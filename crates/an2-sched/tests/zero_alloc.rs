//! Proof that the hot scheduling path performs no heap allocation.
//!
//! A counting global allocator wraps the system allocator. Each scheduler
//! is warmed up first (early calls may grow scratch buffers to their
//! steady-state capacity); after that, repeated `schedule()` calls must
//! leave the allocation counter untouched.
//!
//! The counter is **thread-local**: the test harness runs its own threads
//! (channels, output capture) whose incidental allocations would otherwise
//! land in a process-global counter at unpredictable moments and fail the
//! test spuriously. Only allocations made by the thread driving the
//! scheduler can be the scheduler's.

use an2_sched::islip::{RoundRobinMatching, WideRoundRobinMatching};
use an2_sched::maximum::MaximumMatching;
use an2_sched::{
    AcceptPolicy, InputPort, IterationLimit, OutputPort, Pim, PimN, PortMask, RequestMatrix,
    RequestMatrixN, Scheduler, WidePim, WideRequestMatrix,
};
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

fn assert_zero_alloc<const W: usize, S: Scheduler<W>>(
    sched: &mut S,
    reqs: &RequestMatrixN<W>,
    label: &str,
) {
    for _ in 0..4 {
        let _ = sched.schedule(reqs);
    }
    let before = local_count();
    for _ in 0..32 {
        let m = sched.schedule(reqs);
        assert!(m.respects(reqs), "{label} broke the request contract");
    }
    let allocs = local_count() - before;
    assert_eq!(allocs, 0, "{label} allocated {allocs} times on the hot path");
}

#[test]
fn schedulers_do_not_allocate_after_warmup() {
    for n in [16usize, 64] {
        let dense = RequestMatrix::from_fn(n, |_, _| true);
        let sparse = RequestMatrix::from_fn(n, |i, j| (i * 7 + j) % 5 == 0);
        for reqs in [&dense, &sparse] {
            // The one-word width runs the same one-word grant store as the
            // four-word `Pim` does at n <= 64.
            let narrow_reqs = RequestMatrixN::<1>::from_fn(n, |i, j| {
                reqs.has(InputPort::new(i), OutputPort::new(j))
            });
            for policy in [
                AcceptPolicy::Random,
                AcceptPolicy::RoundRobin,
                AcceptPolicy::LowestIndex,
            ] {
                for limit in [IterationLimit::Fixed(4), IterationLimit::ToCompletion] {
                    let mut pim = Pim::with_options(n, 42, limit, policy);
                    assert_zero_alloc(&mut pim, reqs, "pim");
                    let mut narrow = PimN::<_, 1>::with_options(n, 42, limit, policy);
                    assert_zero_alloc(&mut narrow, &narrow_reqs, "pim (one word)");
                }
            }
            assert_zero_alloc(&mut RoundRobinMatching::islip(n, 4), reqs, "islip");
            assert_zero_alloc(&mut RoundRobinMatching::rrm(n, 4), reqs, "rrm");
            assert_zero_alloc(&mut MaximumMatching::new(), reqs, "maximum");
        }
    }
}

/// Like [`assert_zero_alloc`], but drives the queue-observation feed each
/// slot the way the simulation engine does — the observe → weigh → match
/// pipeline is the steady-state loop for the queue-aware schedulers, so
/// the whole of it must stay allocation-free.
fn assert_zero_alloc_observed<const W: usize, S: Scheduler<W>>(
    sched: &mut S,
    reqs: &RequestMatrixN<W>,
    label: &str,
) {
    let feed = |sched: &mut S, slot: u32| {
        for (i, j) in reqs.pairs() {
            let depth = (i.index() as u32 + slot) % 9;
            let age = (j.index() as u32 + slot) % 17;
            sched.observe_queue(i, j, depth, age);
        }
    };
    for slot in 0..4 {
        feed(sched, slot);
        let _ = sched.schedule(reqs);
    }
    let before = local_count();
    for slot in 4..36 {
        feed(sched, slot);
        let m = sched.schedule(reqs);
        assert!(m.respects(reqs), "{label} broke the request contract");
    }
    let allocs = local_count() - before;
    assert_eq!(allocs, 0, "{label} allocated {allocs} times on the hot path");
}

/// The queue-aware schedulers: MWM under both weight policies and the
/// SERENADE merge, with and without a degraded-port mask, across sparse
/// and dense request shapes.
#[test]
fn queue_aware_schedulers_do_not_allocate_after_warmup() {
    use an2_sched::{Mwm, Serenade};
    for n in [16usize, 64] {
        let dense = RequestMatrix::from_fn(n, |_, _| true);
        let sparse = RequestMatrix::from_fn(n, |i, j| (i * 7 + j) % 5 == 0);
        for reqs in [&dense, &sparse] {
            assert_zero_alloc_observed(&mut Mwm::lqf(n), reqs, "mwm-lqf");
            assert_zero_alloc_observed(&mut Mwm::ocf(n), reqs, "mwm-ocf");
            assert_zero_alloc_observed(&mut Serenade::new(n, 42), reqs, "serenade");
        }
    }
    // Degraded operation: failed ports masked out mid-run.
    let n = 16;
    let dense = RequestMatrix::from_fn(n, |_, _| true);
    let mut mask = PortMask::all(n);
    mask.fail_input(3);
    mask.fail_output(7);
    let mut mwm = Mwm::lqf(n);
    mwm.set_port_mask(mask);
    assert_zero_alloc_observed(&mut mwm, &dense, "masked mwm");
    let mut ser = Serenade::new(n, 42);
    ser.set_port_mask(mask);
    assert_zero_alloc_observed(&mut ser, &dense, "masked serenade");
}

/// The wide (1024-port) queue-aware kernels in the sparse regime the wide
/// engine schedules. Dense wide MWM is excluded: exact augmentation over
/// a dense 1024-port matrix costs tens of seconds per slot, and the
/// scratch-arena reuse it would exercise is identical to the sparse case.
#[test]
fn wide_queue_aware_schedulers_do_not_allocate_after_warmup() {
    use an2_sched::{WideMwm, WideSerenade};
    let n = 1024;
    let sparse = WideRequestMatrix::from_fn(n, |i, j| (i * 131 + j * 17) % 17000 == 0);
    let dense = WideRequestMatrix::from_fn(n, |_, _| true);
    assert_zero_alloc_observed(&mut WideMwm::lqf(n), &sparse, "wide mwm-lqf");
    assert_zero_alloc_observed(&mut WideMwm::ocf(n), &sparse, "wide mwm-ocf");
    for reqs in [&sparse, &dense] {
        assert_zero_alloc_observed(&mut WideSerenade::new(n, 42), reqs, "wide serenade");
    }
}

/// The parallel experiment engine moves the hot loop onto pool worker
/// threads, and the allocation counter is thread-local — so the serial
/// test above proves nothing about where the experiments actually run.
/// Re-run the check *inside* pool worker closures, at a worker count high
/// enough that every scheduler kind lands on a stolen task at least
/// sometimes.
#[test]
fn schedulers_do_not_allocate_on_pool_workers() {
    use an2_task::Pool;
    let n = 64usize;
    let pool = Pool::new(4);
    let violations = pool.map(
        vec!["pim", "pim-complete", "islip", "rrm", "maximum"],
        |_, kind| {
            let dense = RequestMatrix::from_fn(n, |_, _| true);
            let mut sched: Box<dyn Scheduler> = match kind {
                "pim" => Box::new(Pim::new(n, 7)),
                "pim-complete" => Box::new(Pim::with_options(
                    n,
                    7,
                    IterationLimit::ToCompletion,
                    AcceptPolicy::Random,
                )),
                "islip" => Box::new(RoundRobinMatching::islip(n, 4)),
                "rrm" => Box::new(RoundRobinMatching::rrm(n, 4)),
                "maximum" => Box::new(MaximumMatching::new()),
                _ => unreachable!(),
            };
            for _ in 0..4 {
                let _ = sched.schedule(&dense);
            }
            let before = local_count();
            for _ in 0..32 {
                let _ = sched.schedule(&dense);
            }
            (kind, local_count() - before)
        },
    );
    for (kind, allocs) in violations {
        assert_eq!(allocs, 0, "{kind} allocated {allocs} times on a pool worker");
    }
}

/// Degraded operation must not regress the invariant: a scheduler running
/// with failed ports masked out stays allocation-free, and so does the
/// mask update itself.
#[test]
fn masked_schedulers_do_not_allocate_after_warmup() {
    let n = 16;
    let dense = RequestMatrix::from_fn(n, |_, _| true);
    let mut mask = PortMask::all(n);
    mask.fail_input(3);
    mask.fail_output(7);
    mask.fail_output(11);

    let mut pim = Pim::new(n, 42);
    pim.set_port_mask(mask);
    assert_zero_alloc(&mut pim, &dense, "masked pim");

    let mut islip = RoundRobinMatching::islip(n, 4);
    islip.set_port_mask(mask);
    assert_zero_alloc(&mut islip, &dense, "masked islip");

    let mut maximum = MaximumMatching::new();
    maximum.set_port_mask(mask);
    assert_zero_alloc(&mut maximum, &dense, "masked maximum");

    // Flipping the mask between slots (fail, then recover) is part of the
    // degraded hot path too: it must not allocate either.
    let before = local_count();
    for slot in 0..32 {
        let mut m = PortMask::all(n);
        if slot % 2 == 0 {
            m.fail_input(slot % n);
        }
        pim.set_port_mask(m);
        let _ = pim.schedule(&dense);
    }
    assert_eq!(
        local_count() - before,
        0,
        "mask updates allocated on the hot path"
    );
}

/// The sparse active-pair path at the full wide radix: the pruned grant
/// walk, the nonzero-word successor lookup and the hybrid eligible
/// assembly all work in preallocated scratch, so a 1024-port scheduler
/// stays allocation-free whether the matrix holds a handful of active
/// pairs (the sparse branch) or a dense block (the word-parallel branch).
#[test]
fn wide_sparse_schedulers_do_not_allocate_after_warmup() {
    let n = 1024;
    // ~60 active pairs: the light-load regime the sparse walk targets.
    let sparse = WideRequestMatrix::from_fn(n, |i, j| (i * 131 + j * 17) % 17000 == 0);
    // Every pair active: forces the hybrid assembly's dense branch.
    let dense = WideRequestMatrix::from_fn(n, |_, _| true);
    for reqs in [&sparse, &dense] {
        let mut pim = WidePim::new(n, 42);
        assert_zero_alloc(&mut pim, reqs, "wide pim");
        let mut islip = WideRoundRobinMatching::islip(n, 4);
        assert_zero_alloc(&mut islip, reqs, "wide islip");
        let mut rrm = WideRoundRobinMatching::rrm(n, 4);
        assert_zero_alloc(&mut rrm, reqs, "wide rrm");
    }
}
