//! Proof that the batch engine's slot loop and the quantile sketch's
//! record path perform no heap allocation in steady state, and that under
//! the paper's client–server workload the engine allocates only at
//! high-water marks.
//!
//! Same counting-allocator scheme as `an2-sched/tests/zero_alloc.rs`: a
//! thread-local counter wraps the system allocator, the code under test is
//! warmed up (first slots may grow the delay histogram and scheduler
//! scratch to steady-state capacity, add queue records up to the peak
//! number of pairs holding cells, and give deep queues their spill
//! rings), and after that the counter must not move.
//!
//! The `an2-lint` call-graph rule proves the *scheduler* half of the slot
//! loop allocation-free at the source level; this test is the runtime
//! check that covers what the lint's name-resolution cannot see — the
//! engine's own bookkeeping, `DelayStats::record`'s amortized histogram
//! and `QuantileSketch::record`'s fixed bucket table.

use an2_sched::rng::{SelectRng, Xoshiro256};
use an2_sched::{InputPort, OutputPort, Pim};
use an2_sim::batch::BatchCrossbar;
use an2_sim::cell::Arrival;
use an2_sim::metrics::QuantileSketch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn local_count() -> usize {
    ALLOCATIONS.with(|c| c.get())
}

struct CountingAlloc;

fn bump() {
    // `try_with` because the allocator can be called while a thread's TLS
    // is being torn down; those allocations belong to the runtime anyway.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: a pure pass-through to `System`: every method forwards its
// arguments unchanged and returns `System`'s result unchanged, so the
// GlobalAlloc contract (valid layouts in, valid blocks out, dealloc only
// of live blocks) holds exactly as it does for `System` itself. The only
// addition, `bump()`, touches a thread-local counter and never the heap.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: `layout` is the caller's, passed through unmodified.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` (every allocation
        // in this process goes through the forwarding impl above) and
        // `layout` is the one it was allocated with, per the caller.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr`/`layout` describe a live System allocation (see
        // dealloc) and `new_size` is the caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `QuantileSketch::record` is a pure bucket increment: no allocation
/// from the very first sample (the bucket table is sized at `new`).
#[test]
fn sketch_record_never_allocates() {
    let mut sketch = QuantileSketch::new();
    let before = local_count();
    for v in 0..100_000u64 {
        sketch.record(v.wrapping_mul(0x9e37_79b9).rotate_left(17) % (1 << 40));
    }
    let allocs = local_count() - before;
    assert_eq!(allocs, 0, "sketch record allocated {allocs} times");
    assert_eq!(sketch.count(), 100_000);
}

/// The batch engine's full slot loop — arrival enqueue, scheduling,
/// departure bookkeeping, exact histogram and sketch — settles to zero
/// allocations per slot once scratch reaches steady state.
#[test]
fn batch_slot_loop_does_not_allocate_after_warmup() {
    let n = 32usize;
    let mut engine = BatchCrossbar::new(n, Pim::new(n, 42));
    let mut rng = Xoshiro256::seed_from(0xBA7C);
    let mut buf: Vec<Arrival> = Vec::with_capacity(n);
    let drive = |engine: &mut BatchCrossbar<Pim<Xoshiro256>>,
                     rng: &mut Xoshiro256,
                     buf: &mut Vec<Arrival>,
                     slots: usize| {
        for _ in 0..slots {
            buf.clear();
            for i in 0..n {
                if rng.bernoulli(0.8) {
                    buf.push(Arrival::pair(
                        n,
                        InputPort::new(i),
                        OutputPort::new(rng.index(n)),
                    ));
                }
            }
            engine.step_slot(buf);
        }
    };
    // Warmup: the delay histogram grows to cover the workload's delay
    // range, the scheduler fills its scratch, deep pairs spill once.
    drive(&mut engine, &mut rng, &mut buf, 500);
    let before = local_count();
    drive(&mut engine, &mut rng, &mut buf, 500);
    let allocs = local_count() - before;
    assert_eq!(allocs, 0, "batch slot loop allocated {allocs} times");
}

/// Degraded scheduling is as allocation-free as healthy scheduling: with
/// a quarter of the ports masked out, the masked batch slot loop settles
/// to zero allocations per slot (mask installation and the masked
/// grant/accept sweeps reuse the same scratch).
#[test]
fn masked_batch_slot_loop_does_not_allocate_after_warmup() {
    use an2_sched::PortMask;
    let n = 32usize;
    let mut engine = BatchCrossbar::new(n, Pim::new(n, 43));
    let mut mask = PortMask::all(n);
    for p in 0..n / 4 {
        mask.fail_input(p * 2);
        mask.fail_output(p * 2 + 1);
    }
    engine.set_port_mask(mask);
    // Steady-state degraded traffic targets live ports only: cells for a
    // dead output would buffer forever and their queue growth would be
    // workload-driven allocation, not a hot-path leak.
    let live_in: Vec<usize> = (0..n).filter(|&p| p % 2 == 1 || p >= n / 2).collect();
    let live_out: Vec<usize> = (0..n)
        .filter(|&p| p % 2 == 0 || p >= n / 2)
        .collect();
    let mut rng = Xoshiro256::seed_from(0x3A55);
    let mut buf: Vec<Arrival> = Vec::with_capacity(n);
    let mut drive = |engine: &mut BatchCrossbar<Pim<Xoshiro256>>,
                     rng: &mut Xoshiro256,
                     slots: usize| {
        for _ in 0..slots {
            buf.clear();
            for &i in &live_in {
                if rng.bernoulli(0.6) {
                    buf.push(Arrival::pair(
                        n,
                        InputPort::new(i),
                        OutputPort::new(live_out[rng.index(live_out.len())]),
                    ));
                }
            }
            engine.step_slot(&buf);
        }
    };
    drive(&mut engine, &mut rng, 500);
    let before = local_count();
    drive(&mut engine, &mut rng, 500);
    let allocs = local_count() - before;
    assert_eq!(allocs, 0, "masked batch slot loop allocated {allocs} times");
}

/// Chaos stepping in steady state — `step_faulted` with a drained plan
/// and a degraded mask left over from earlier faults — allocates nothing:
/// the event match, the mask bookkeeping and the injected/corrupted
/// PortSet probes are all stack-only once the log stops growing.
#[test]
fn chaos_stepping_does_not_allocate_after_warmup() {
    use an2_sim::fault::{FaultEvent, FaultKind, FaultLog, FaultPlan};
    let n = 32usize;
    let mut engine = BatchCrossbar::new(n, Pim::new(n, 44));
    // A short-lived campaign: port failures that partially recover, and a
    // burst of cell drops — all consumed during warmup, leaving the
    // engine running degraded (port 3 stays masked) with an empty plan.
    let mut events = vec![
        FaultEvent {
            slot: 10,
            kind: FaultKind::LinkDown { switch: 0, output: 5 },
        },
        FaultEvent {
            slot: 90,
            kind: FaultKind::LinkUp { switch: 0, output: 5 },
        },
        FaultEvent {
            slot: 20,
            kind: FaultKind::PortFail {
                switch: 0,
                side: an2_sim::fault::PortSide::Input,
                port: 3,
            },
        },
    ];
    for slot in 30..60 {
        events.push(FaultEvent {
            slot,
            kind: FaultKind::CellDrop { switch: 0, input: 7 },
        });
    }
    let mut plan = FaultPlan::from_events(events);
    let mut log = FaultLog::new();
    let mut rng = Xoshiro256::seed_from(0xC4A05);
    let mut buf: Vec<Arrival> = Vec::with_capacity(n);
    let mut drive = |engine: &mut BatchCrossbar<Pim<Xoshiro256>>,
                     plan: &mut FaultPlan,
                     log: &mut FaultLog,
                     rng: &mut Xoshiro256,
                     slots: usize| {
        for _ in 0..slots {
            buf.clear();
            for i in 0..n {
                // Input 3 stays masked for the whole test; a cell arriving
                // there would buffer forever, so the host routes around it
                // (unbounded queue growth is workload, not hot path).
                if rng.bernoulli(0.8) && i != 3 {
                    buf.push(Arrival::pair(
                        n,
                        InputPort::new(i),
                        OutputPort::new(rng.index(n)),
                    ));
                }
            }
            engine.step_faulted(&buf, plan, log);
        }
    };
    // Warmup consumes every scripted event (log growth happens here).
    drive(&mut engine, &mut plan, &mut log, &mut rng, 500);
    assert_eq!(plan.remaining(), 0, "warmup must drain the plan");
    assert!(engine.dropped() > 0, "the drop burst must have struck");
    assert!(!engine.port_mask().is_full(), "port 3 must still be masked");
    let before = local_count();
    drive(&mut engine, &mut plan, &mut log, &mut rng, 500);
    let allocs = local_count() - before;
    assert_eq!(allocs, 0, "chaos stepping allocated {allocs} times");
}

/// Queue records are recycled, not allocated: under short on–off bursts
/// at N=64, pairs drain and re-activate every few slots, each drain puts
/// the pair's record on one of the engine's free lists and each first
/// cell takes one back. The slot loop makes no allocation once the warmup
/// has seen the peak number of pairs holding cells, and the peak number
/// of queues running deep at once (a full queue moves into a drained
/// record's bigger ring before it allocates one); at this load both are
/// reached within the warmup. Checked plain, faulted under an empty plan,
/// and faulted with cell drops striking throughout the measured region.
#[test]
fn batch_churn_recycles_queue_records_without_allocating() {
    use an2_sim::fault::{FaultEvent, FaultKind, FaultLog, FaultPlan};
    use an2_sim::traffic::{BurstyTraffic, Traffic};
    let n = 64usize;
    let (warmup, measured) = (20_000u64, 4_000u64);
    // A drop on a rotating input every fourth slot of both regions. The
    // fault log grows by doubling, so it is sized in the warmup, whose
    // drops outnumber the measured region's fivefold.
    let drops = (0..warmup + measured).step_by(4).map(|slot| FaultEvent {
        slot,
        kind: FaultKind::CellDrop {
            switch: 0,
            input: (slot as usize / 4) % n,
        },
    });
    for phase in ["step_slot", "empty plan", "cell drops"] {
        let mut engine = BatchCrossbar::new(n, Pim::new(n, 0xC4));
        let mut traffic = BurstyTraffic::new(n, 0.5, 4.0, 0xC5);
        let mut plan = match phase {
            "cell drops" => FaultPlan::from_events(drops.clone().collect()),
            _ => FaultPlan::new(),
        };
        let mut log = FaultLog::new();
        let mut buf: Vec<Arrival> = Vec::with_capacity(n);
        let (mut drains, mut active) = (0u64, 0usize);
        let mut allocs = 0;
        for slot in 0..warmup + measured {
            buf.clear();
            traffic.arrivals(slot, &mut buf);
            let before = local_count();
            if phase == "step_slot" {
                engine.step_slot(&buf);
            } else {
                engine.step_faulted(&buf, &mut plan, &mut log);
            }
            if slot >= warmup {
                allocs += local_count() - before;
                // A lower bound on drains: the active count only falls
                // when pairs drain.
                drains += active.saturating_sub(engine.active_pairs()) as u64;
            }
            active = engine.active_pairs();
        }
        assert_eq!(allocs, 0, "{phase}: slot loop allocated {allocs} times");
        assert!(drains > measured, "{phase}: {drains} drains, not churn");
        if phase == "cell drops" {
            assert_eq!(plan.remaining(), 0);
            assert!(engine.dropped() >= 1_000, "the drops must have struck");
            assert_eq!(engine.verify_drop_ledger(), Ok(()));
        }
        assert_eq!(engine.verify_conservation(), Ok(()));
    }
}

/// The wide-radix sparse slot loop: a 1024-port engine under light
/// uniform traffic runs the active-pair iSLIP walk (pruned grant columns,
/// nonzero-word successor lookup) plus the idle-slot scheduler skip, and
/// none of it may allocate once warm. This is the exact configuration of
/// the perf harness's headline scaling rows.
#[test]
fn wide_sparse_batch_slot_loop_does_not_allocate_after_warmup() {
    use an2_sched::islip::WideRoundRobinMatching;
    let n = 1024usize;
    let mut engine: BatchCrossbar<_, 16> =
        BatchCrossbar::new(n, WideRoundRobinMatching::islip(n, 4));
    let mut rng = Xoshiro256::seed_from(0xBA7D);
    let mut buf: Vec<Arrival> = Vec::with_capacity(n);
    let mut drive = |engine: &mut BatchCrossbar<WideRoundRobinMatching, 16>, slots: usize| {
        for slot in 0..slots {
            buf.clear();
            // Mostly light load (~51 cells/slot); every 8th slot is idle so
            // the idle-slot skip path is part of the measured region.
            if slot % 8 != 7 {
                for i in 0..n {
                    if rng.bernoulli(0.05) {
                        buf.push(Arrival::pair(
                            n,
                            InputPort::new(i),
                            OutputPort::new(rng.index(n)),
                        ));
                    }
                }
            }
            engine.step_slot(&buf);
        }
    };
    drive(&mut engine, 300);
    let before = local_count();
    drive(&mut engine, 300);
    let allocs = local_count() - before;
    assert_eq!(allocs, 0, "wide sparse slot loop allocated {allocs} times");
}

/// The single-switch engine, through its `CrossbarSwitch` face, at the
/// paper's radix under the Figure 4 client–server workload.
///
/// Its only allocations are high-water-mark growth: a queue record when
/// more pairs hold cells than ever before, a spill ring when a queue runs
/// deeper than every drained ring on offer, or the delay histogram
/// extending to a delay never seen before. The test allows exactly that:
/// after a short warmup, every slot that allocates must set a new peak of
/// active pairs, a new per-pair depth record (one flow per pair here) or
/// a new maximum delay, and such slots stay few.
#[test]
fn client_server_slot_loop_allocates_only_at_high_water_marks() {
    use an2_sim::model::SwitchModel;
    use an2_sim::switch::CrossbarSwitch;
    use an2_sim::traffic::{RateMatrixTraffic, Traffic};
    let n = 16usize;
    let mut engine = CrossbarSwitch::new(Pim::new(n, 0x5CA1));
    let mut traffic = RateMatrixTraffic::client_server(n, 4, 0.9, 0.05, 0x5CA2);
    let mut buf: Vec<Arrival> = Vec::with_capacity(n);
    let mut deepest = vec![0usize; n * n];
    let (mut max_delay, mut most_active) = (0u64, 0usize);
    let (mut allocating_slots, mut records) = (0u32, 0u32);
    for slot in 0..30_000u64 {
        buf.clear();
        traffic.arrivals(slot, &mut buf);
        // A pair peaks within the slot right after its arrival (at most
        // one: one cell per input per slot), before any departure; so do
        // the active pairs.
        let mut record = false;
        let mut active = engine.buffers().active_pairs();
        for a in &buf {
            let peak = engine.buffers().pair_occupancy(a.input, a.output) + 1;
            active += usize::from(peak == 1);
            let deep = &mut deepest[a.input.index() * n + a.output.index()];
            if peak > *deep {
                *deep = peak;
                record = true;
            }
        }
        if active > most_active {
            most_active = active;
            record = true;
        }
        let before = local_count();
        engine.step(&buf);
        let allocs = local_count() - before;
        // `report` builds vectors, so it stays outside the counted region.
        let delay = engine.report().delay.max();
        if delay > max_delay {
            max_delay = delay;
            record = true;
        }
        if slot >= 2_000 {
            records += u32::from(record);
            if allocs > 0 {
                allocating_slots += 1;
                assert!(
                    record,
                    "slot {slot} allocated {allocs} times without a new high-water mark"
                );
            }
        }
    }
    // Records, and with them allocations, thin out once warm.
    assert!(records < 300, "{records} high-water marks after warmup");
    assert!(allocating_slots <= 8, "{allocating_slots} allocating slots");
    assert!(engine.report().departures > 150_000);
}
