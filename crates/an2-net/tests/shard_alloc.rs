//! Proof that the sharded ring's slot loop allocates nothing per slot.
//!
//! Same counting-allocator scheme as `an2-sim/tests/alloc_probe.rs`, but
//! the counter is process-wide rather than thread-local: the ring is
//! stepped by a two-thread lockstep team, and the helper thread's
//! allocations must count too. Because every thread in the process bumps
//! it, this file holds a single test, so libtest runs nothing alongside it.
//!
//! A run's allocations are its setup (switches, links, the team's spawn)
//! plus whatever its slots allocate. Setup does not depend on the slot
//! count, so the difference between a long and a short run is what the
//! extra slots allocated: only a switch's queue slab reaching a new
//! high-water mark, never a per-slot dispatch or a per-cell record (a
//! drained pair's record and ring are recycled).

use an2_net::shard::{run_shard_net, run_shard_net_faulted, ShardNetConfig};
use an2_sim::fault::FaultPlan;
use an2_task::Pool;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: a pure pass-through to `System`: every method forwards its
// arguments unchanged and returns `System`'s result unchanged, so the
// GlobalAlloc contract (valid layouts in, valid blocks out, dealloc only
// of live blocks) holds exactly as it does for `System` itself. The only
// addition is a relaxed atomic increment, which never touches the heap.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live System allocation (see
        // dealloc) and `new_size` is the caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A 40-switch ring of `(radix, host_load)` switches.
fn ring((radix, host_load): (usize, f64), slots: u64) -> ShardNetConfig {
    ShardNetConfig {
        switches: 40,
        radix,
        span: 3,
        host_load,
        seed: 11,
        slots,
    }
}

/// Allocations made while `run` executes.
fn allocations_of(run: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    run();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// Extra allocations a run may make past its first thousand slots:
/// only high-water marks, a queue record when more pairs of a switch hold
/// cells than ever before, or a spill ring when more of its queues run
/// deep at once than it has rings for. Such peaks rise ever more rarely,
/// so quadrupling a run adds a bounded count, whatever its length.
const HIGH_WATER_ALLOWANCE: usize = 64;

#[test]
fn extra_slots_allocate_only_at_high_water_marks() {
    let pool = Pool::new(2);
    let lengths = [1000, 4000, 16_000];

    // Radix 8 runs on one-word port sets, radix 100 on four-word sets.
    for switch in [(8, 0.05), (100, 0.004)] {
        let plan = FaultPlan::new();
        let fault_free = lengths
            .map(|slots| allocations_of(|| drop(run_shard_net(&ring(switch, slots), &pool))));
        let faulted = lengths.map(|slots| {
            allocations_of(|| drop(run_shard_net_faulted(&ring(switch, slots), &plan, &pool)))
        });
        for (run, counts) in [("fault-free", fault_free), ("faulted", faulted)] {
            for pair in counts.windows(2) {
                assert!(
                    pair[1].saturating_sub(pair[0]) < HIGH_WATER_ALLOWANCE,
                    "{run} {switch:?}: {counts:?} allocations over {lengths:?} slots"
                );
            }
        }
    }
}
