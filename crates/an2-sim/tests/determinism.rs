//! Golden digests of full switch-model runs.
//!
//! The VOQ/switch refactor (incremental request matrix, scratch buffers)
//! must not change which cells arrive, match, or depart. Each test runs a
//! switch model over a fixed arrival sequence and digests the final
//! [`SwitchReport`] plus residual occupancy; the constants were recorded
//! before the rewrite.

use an2_sched::rng::{SelectRng, Xoshiro256};
use an2_sched::{AcceptPolicy, FrameSchedule, InputPort, IterationLimit, OutputPort, Pim};
use an2_sim::cell::Arrival;
use an2_sim::fault::{FaultEvent, FaultKind, FaultLog, FaultPlan, PortSide};
use an2_sim::hybrid_switch::{ClassedArrival, HybridSwitch, ServiceClass};
use an2_sim::metrics::SwitchReport;
use an2_sim::model::SwitchModel;
use an2_sim::speedup_switch::SpeedupSwitch;
use an2_sim::switch::CrossbarSwitch;
use an2_task::Fnv;

const N: usize = 8;
const WARMUP: u64 = 64;
const MEASURE: u64 = 512;

/// Folds every field of a report into `d`.
fn fold_report(d: &mut Fnv, r: &SwitchReport) {
    d.u64(r.slots);
    d.u64(r.arrivals);
    d.u64(r.departures);
    d.u64(r.peak_occupancy as u64);
    d.u64(r.final_occupancy as u64);
    for &v in &r.departures_per_output {
        d.u64(v);
    }
    for &(flow, count) in &r.departures_per_flow {
        d.u64(flow);
        d.u64(count);
    }
    d.u64(r.delay.count());
    d.u64(r.delay.max());
    d.u64(r.delay.mean().to_bits());
    d.u64(r.delay.percentile(0.5));
}

/// Bernoulli arrivals at 0.8 load, uniformly random destinations; at most
/// one cell per input per slot, as the models require.
fn arrivals_for(n: usize, rng: &mut Xoshiro256) -> Vec<Arrival> {
    let mut batch = Vec::new();
    for i in 0..n {
        if rng.bernoulli(0.8) {
            batch.push(Arrival::pair(
                n,
                InputPort::new(i),
                OutputPort::new(rng.index(n)),
            ));
        }
    }
    batch
}

fn arrivals_for_slot(rng: &mut Xoshiro256) -> Vec<Arrival> {
    arrivals_for(N, rng)
}

fn model_digest(model: &mut impl SwitchModel) -> u64 {
    let mut rng = Xoshiro256::seed_from(0xA5A5);
    for _ in 0..WARMUP {
        model.step(&arrivals_for_slot(&mut rng));
    }
    model.start_measurement();
    for _ in 0..MEASURE {
        model.step(&arrivals_for_slot(&mut rng));
    }
    let mut d = Fnv::report();
    fold_report(&mut d, &model.report());
    d.u64(model.queued() as u64);
    d.finish()
}

#[track_caller]
fn assert_digest(actual: u64, expected: u64) {
    assert_eq!(
        actual, expected,
        "switch run changed: actual {actual:#018x}, recorded {expected:#018x}"
    );
}

#[test]
fn crossbar_with_pim4() {
    let pim = Pim::with_options(N, 42, IterationLimit::Fixed(4), AcceptPolicy::Random);
    let mut sw = CrossbarSwitch::new(pim);
    assert_digest(model_digest(&mut sw), 0xa28e1aaf46392c78);
}

/// The fault layer's acceptance bar: stepping through `step_faulted` with
/// an **empty** plan must reproduce [`crossbar_with_pim4`]'s digest bit for
/// bit — same arrivals, same RNG draws, same matchings, same report.
#[test]
fn faulted_crossbar_with_empty_plan_is_bit_identical() {
    let pim = Pim::with_options(N, 42, IterationLimit::Fixed(4), AcceptPolicy::Random);
    let mut sw = CrossbarSwitch::new(pim);
    let mut plan = FaultPlan::new();
    let mut log = FaultLog::new();
    let mut rng = Xoshiro256::seed_from(0xA5A5);
    for _ in 0..WARMUP {
        sw.step_faulted(&arrivals_for_slot(&mut rng), &mut plan, &mut log);
    }
    sw.start_measurement();
    for _ in 0..MEASURE {
        sw.step_faulted(&arrivals_for_slot(&mut rng), &mut plan, &mut log);
    }
    let mut d = Fnv::report();
    fold_report(&mut d, &sw.report());
    d.u64(sw.queued() as u64);
    // The pinned digest of the *unfaulted* pim4 run, not a new constant.
    assert_digest(d.finish(), 0xa28e1aaf46392c78);
    assert_eq!(log.digest(), FaultLog::new().digest(), "log must stay empty");
}

/// Golden digest of a faulted 16×16 PIM(4) run under a fixed fault plan:
/// input and output failures with recovery, scripted arrival losses, and a
/// clock-drift excursion. Pins both the traffic outcome and the fault
/// log's own digest so fault bookkeeping can't drift silently.
#[test]
fn faulted_crossbar_digest_is_pinned() {
    const FN: usize = 16;
    const SLOTS: u64 = 400;
    let pim = Pim::with_options(FN, 7, IterationLimit::Fixed(4), AcceptPolicy::Random);
    let mut sw = CrossbarSwitch::new(pim);
    let mut plan = FaultPlan::from_events(vec![
        FaultEvent {
            slot: 40,
            kind: FaultKind::PortFail {
                switch: 0,
                side: PortSide::Input,
                port: 3,
            },
        },
        FaultEvent {
            slot: 60,
            kind: FaultKind::CellDrop {
                switch: 0,
                input: 1,
            },
        },
        FaultEvent {
            slot: 61,
            kind: FaultKind::CellDrop {
                switch: 0,
                input: 2,
            },
        },
        FaultEvent {
            slot: 80,
            kind: FaultKind::PortFail {
                switch: 0,
                side: PortSide::Output,
                port: 9,
            },
        },
        FaultEvent {
            slot: 100,
            kind: FaultKind::CellCorrupt {
                switch: 0,
                input: 5,
            },
        },
        FaultEvent {
            slot: 101,
            kind: FaultKind::CellCorrupt {
                switch: 0,
                input: 6,
            },
        },
        FaultEvent {
            slot: 120,
            kind: FaultKind::PortRecover {
                switch: 0,
                side: PortSide::Input,
                port: 3,
            },
        },
        FaultEvent {
            slot: 150,
            kind: FaultKind::ClockDrift {
                switch: 0,
                slots: 5,
            },
        },
        FaultEvent {
            slot: 200,
            kind: FaultKind::PortRecover {
                switch: 0,
                side: PortSide::Output,
                port: 9,
            },
        },
    ]);
    let mut log = FaultLog::new();
    let mut rng = Xoshiro256::seed_from(0x5EED);
    sw.start_measurement();
    for _ in 0..SLOTS {
        sw.step_faulted(&arrivals_for(FN, &mut rng), &mut plan, &mut log);
    }
    assert_eq!(plan.remaining(), 0, "every scripted event must have fired");
    assert_eq!(log.cells_dropped(), 2, "two scripted losses hit arrivals");
    let mut d = Fnv::report();
    fold_report(&mut d, &sw.report());
    d.u64(sw.queued() as u64);
    d.u64(log.digest());
    assert_digest(d.finish(), 0x874367ff6d918c36);
}

#[test]
fn crossbar_with_islip() {
    let mut sw = CrossbarSwitch::new(an2_sched::islip::RoundRobinMatching::islip(N, 4));
    assert_digest(model_digest(&mut sw), 0x23d8e81486c14351);
}

#[test]
fn speedup_switch_k2() {
    let mut sw = SpeedupSwitch::new(N, 2, 4, 42);
    assert_digest(model_digest(&mut sw), 0xd39e1608701b0af0);
}

#[test]
fn hybrid_switch_cbr_plus_vbr() {
    let mut fs = FrameSchedule::new(N, 4);
    fs.reserve(InputPort::new(0), OutputPort::new(1), 2).unwrap();
    fs.reserve(InputPort::new(3), OutputPort::new(0), 1).unwrap();
    let mut sw = HybridSwitch::new(fs, 42);
    let mut rng = Xoshiro256::seed_from(0xC0FFEE);
    let mut d = Fnv::report();
    for slot in 0..(WARMUP + MEASURE) {
        if slot == WARMUP {
            sw.start_measurement();
        }
        let mut batch: Vec<ClassedArrival> = Vec::new();
        // Input 0 paces a CBR cell every other slot; the rest send VBR.
        if slot % 2 == 0 {
            batch.push(ClassedArrival {
                arrival: Arrival::pair(N, InputPort::new(0), OutputPort::new(1)),
                class: ServiceClass::Cbr,
            });
        }
        for i in 1..N {
            if rng.bernoulli(0.7) {
                batch.push(ClassedArrival {
                    arrival: Arrival::pair(N, InputPort::new(i), OutputPort::new(rng.index(N))),
                    class: ServiceClass::Vbr,
                });
            }
        }
        sw.step_classed(&batch);
    }
    fold_report(&mut d, &sw.report());
    let (cbr_dep, vbr_dep) = sw.departures_by_class();
    d.u64(cbr_dep);
    d.u64(vbr_dep);
    d.u64(sw.cbr_delay().count());
    d.u64(sw.cbr_delay().max());
    d.u64(sw.queued() as u64);
    assert_digest(d.finish(), 0xcb56fddd23392187);
}
