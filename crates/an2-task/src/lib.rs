//! Work-stealing task pool and deterministic seed derivation — the
//! engine behind the parallel experiment runner.
//!
//! The paper's evaluation is a grid of independent simulation points:
//! every (scheduler, N, load, seed) cell can run on any core in any
//! order, provided the *inputs* of each cell never depend on execution
//! order. This crate supplies the two pieces that make that safe:
//!
//! * [`Pool`] — a scoped-thread worker pool with per-worker deques and
//!   work stealing. [`Pool::map`] runs one closure per item and returns
//!   results in *item order*, so callers see the same `Vec` whatever the
//!   worker count or completion order was. [`Pool::lockstep`] is the
//!   time-stepped counterpart: a fixed team of workers steps contiguous
//!   parts of one slice through many rounds, separated by a barrier.
//! * [`task_seed`] — derives a task's RNG seed as a pure hash of
//!   `(root_seed, task_key)`. Because no task's seed is "the next draw"
//!   of a shared generator, adding, removing, or reordering tasks never
//!   perturbs any other task's randomness — the property that makes
//!   `--threads 1` and `--threads N` bit-identical.
//!
//! No external dependencies; workers are `std::thread` scoped threads.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Derives a task's RNG seed from the experiment's root seed and a
/// stable task key.
///
/// FNV-1a over the key bytes, mixed with the root seed and finalized
/// with the SplitMix64 avalanche, so related keys ("rep0", "rep1") land
/// far apart. The mapping is **pinned by golden tests**: published
/// experiment numbers are reproducible only as long as this function
/// never changes, so treat any edit here as a breaking change to every
/// recorded result.
///
/// # Examples
///
/// ```
/// use an2_task::task_seed;
/// // Stable: same inputs, same seed, on every platform.
/// assert_eq!(task_seed(7, "table1/p0.50"), task_seed(7, "table1/p0.50"));
/// // Distinct keys and distinct roots give unrelated streams.
/// assert_ne!(task_seed(7, "table1/p0.50"), task_seed(7, "table1/p0.75"));
/// assert_ne!(task_seed(7, "table1/p0.50"), task_seed(8, "table1/p0.50"));
/// ```
pub fn task_seed(root_seed: u64, key: &str) -> u64 {
    let mut z = fnv1a(key.as_bytes()) ^ root_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string — the workspace's standard cheap digest,
/// used both by [`task_seed`] and by the determinism checks that compare
/// serial and parallel experiment outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

/// Streaming FNV-1a over bytes and little-endian words: the workspace's
/// one digest primitive.
///
/// [`Fnv::new`] is FNV-1a proper, the hash of [`fnv1a`] and
/// [`task_seed`]. [`Fnv::report`] runs the same loop with the multiplier
/// 2^48 + 0x1b3 in place of FNV's prime 2^40 + 0x1b3: every report
/// digest in the workspace (switch, fault-log, chaos and ring reports,
/// the scheduler golden tests) was pinned with it, and committed outputs
/// print those digests, so they keep it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv {
    state: u64,
    prime: u64,
}

impl Fnv {
    /// FNV-1a of the empty stream.
    pub const fn new() -> Self {
        Fnv { state: 0xcbf2_9ce4_8422_2325, prime: 0x0000_0100_0000_01b3 }
    }

    /// The report digest of the empty stream.
    pub const fn report() -> Self {
        Fnv { state: 0xcbf2_9ce4_8422_2325, prime: 0x1_0000_0000_01b3 }
    }

    /// Feeds `bytes` in order.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(self.prime);
        }
    }

    /// Feeds `v`'s eight little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest of everything fed so far.
    pub const fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// A fixed-width worker pool that runs batches of independent tasks with
/// work stealing.
///
/// The pool is a *policy* object — it owns no threads between calls.
/// Each [`map`](Pool::map) or [`lockstep`](Pool::lockstep) call spawns
/// scoped workers, runs to completion, and joins them, so a `Pool` can be
/// passed freely down a call tree (including from inside another pool's
/// task, where the nested call simply runs with its own workers).
///
/// `map` suits one batch of independent tasks. `lockstep` suits a
/// simulation that advances many small rounds: it spawns its team once
/// per call and separates rounds with a barrier, where a `map` per round
/// would pay a spawn, a join and the task bookkeeping every round.
///
/// # Examples
///
/// ```
/// use an2_task::Pool;
/// let pool = Pool::new(4);
/// let squares = pool.map((0u64..8).collect(), |_, x| x * x);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// // Results are identical at any worker count.
/// assert_eq!(squares, Pool::serial().map((0u64..8).collect(), |_, x| x * x));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with the given worker count (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A pool sized to the machine's available parallelism.
    pub fn available() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// A single-worker pool: every task runs on the calling thread, in
    /// submission order. The reference execution for determinism checks.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Worker count this pool schedules onto.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` once per item and returns the results **in item order**.
    ///
    /// Items are dealt round-robin onto per-worker deques; a worker that
    /// drains its own deque steals the front half of a victim's. Because
    /// each result lands in the slot of its item index, the output is
    /// independent of worker count and of which worker ran what — any
    /// order dependence left in the caller's closure (e.g. a shared
    /// sequential RNG) is a bug this pool is designed to starve out; use
    /// [`task_seed`] instead.
    ///
    /// # Panics
    ///
    /// Panics if any task panics (the first panic is propagated).
    // an2-lint: allow(panic-freedom) the joins/expects propagate worker panics by design (documented `# Panics`); slot indices are < n by construction
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if self.threads == 1 || n <= 1 {
            // an2-lint: allow(alloc-in-hot-path) single-thread fallback materializes the result vec once per map() batch, not per slot
            return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let workers = self.threads.min(n);
        // Task payloads and result slots, indexed by item position. A
        // Mutex per slot is coarse but contention-free: exactly one
        // worker ever touches a given slot.
        let tasks: Vec<Mutex<Option<T>>> =
            // an2-lint: allow(alloc-in-hot-path) per-batch pool setup, amortized over the whole map() batch rather than per slot
            items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        // an2-lint: allow(alloc-in-hot-path) per-batch pool setup, amortized over the whole map() batch rather than per slot
        let mut results: Vec<Mutex<Option<R>>> = Vec::new();
        results.resize_with(n, || Mutex::new(None));
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            // an2-lint: allow(alloc-in-hot-path) per-batch pool setup, amortized over the whole map() batch rather than per slot
            .map(|w| Mutex::new((w..n).step_by(workers).collect()))
            // an2-lint: allow(alloc-in-hot-path) per-batch pool setup, amortized over the whole map() batch rather than per slot
            .collect();
        std::thread::scope(|scope| {
            let tasks = &tasks;
            let results = &results;
            let deques = &deques;
            let f = &f;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        while let Some(idx) = next_task(deques, w) {
                            let item = lock(&tasks[idx]).take().expect("task scheduled twice");
                            let out = f(idx, item);
                            *lock(&results[idx]) = Some(out);
                        }
                    })
                })
                // an2-lint: allow(alloc-in-hot-path) one spawn handle per worker, once per map() batch
                .collect();
            for h in handles {
                h.join().expect("pool worker panicked");
            }
        });
        results
            .into_iter()
            .map(|slot| {
                lock_owned(slot).expect("every scheduled task stored a result")
            })
            // an2-lint: allow(alloc-in-hot-path) materializes the batch results once per map() call
            .collect()
    }

    /// Steps `items` through `rounds` rounds on a fixed team of workers,
    /// each part folding what it sees into its own accumulator.
    ///
    /// `items` is split into `min(threads, items.len())` contiguous parts
    /// whose lengths differ by at most one (earlier parts take the extra
    /// items). Each part gets an accumulator from `init` before the first
    /// round. The helper threads are spawned once per call; the calling
    /// thread runs part 0. In round `r` every part runs
    /// `step(r, part, acc)`, then all parts wait at one barrier before
    /// round `r + 1` starts. The accumulators come back in part order.
    ///
    /// The contract for `step`: state a part writes in round `r` may be
    /// read by other parts (through shared state `step` captures, such as
    /// atomics) only in round `r + 1` or later. The barrier orders every
    /// write of round `r` before every read of round `r + 1`, so relaxed
    /// atomics suffice. Under that contract the items end the same at any
    /// worker count; the accumulators depend on the partition, so a
    /// caller that wants a count-independent total merges them with an
    /// operation that does not care how the items were grouped (a sum, a
    /// maximum, a bucket-wise histogram merge). A serial pool, or a
    /// one-item slice, runs every round on the caller with no spawn and no
    /// barrier; an empty slice has no parts, so `step` never runs and no
    /// accumulator is made.
    ///
    /// A barrier waiter spins for a bounded number of iterations, then
    /// yields its CPU between checks. Nothing is allocated per round.
    ///
    /// # Examples
    ///
    /// ```
    /// use an2_task::Pool;
    /// use std::sync::atomic::{AtomicU64, Ordering};
    /// // A four-stage shift register: each round, every stage takes its
    /// // predecessor's value from the previous round; each part counts
    /// // the values its stages took.
    /// let wires: Vec<[AtomicU64; 2]> =
    ///     (0..4u64).map(|i| [AtomicU64::new(i), AtomicU64::new(i)]).collect();
    /// let mut stages: Vec<(usize, u64)> = (0..4).map(|i| (i, i as u64)).collect();
    /// let sums = Pool::new(2).lockstep(&mut stages, 3, || 0u64, |round, part, sum| {
    ///     let (read, write) = ((round as usize + 1) % 2, round as usize % 2);
    ///     for (i, v) in part.iter_mut() {
    ///         *v = wires[(*i + 3) % 4][read].load(Ordering::Relaxed);
    ///         wires[*i][write].store(*v, Ordering::Relaxed);
    ///         *sum += *v;
    ///     }
    /// });
    /// // Three rounds moved every value three stages along the ring.
    /// assert_eq!(stages, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
    /// // Two parts; their sum is the same at any thread count.
    /// assert_eq!(sums.len(), 2);
    /// assert_eq!(sums.iter().sum::<u64>(), 18);
    /// ```
    ///
    /// # Panics
    ///
    /// If `step` panics in any part, the barrier is poisoned, the other
    /// parts stop at their next barrier wait, and the call panics with
    /// `pool worker panicked` once every worker has been joined.
    pub fn lockstep<T, A, F>(
        &self,
        items: &mut [T],
        rounds: u64,
        init: impl FnMut() -> A,
        step: F,
    ) -> Vec<A>
    where
        T: Send,
        A: Send,
        F: Fn(u64, &mut [T], &mut A) + Sync,
    {
        let parts = self.threads.min(items.len());
        let mut accs: Vec<A> = std::iter::repeat_with(init).take(parts).collect();
        let Some((first_acc, rest_accs)) = accs.split_first_mut() else {
            return accs;
        };
        if parts == 1 {
            for round in 0..rounds {
                step(round, items, first_acc);
            }
            return accs;
        }
        let (base, extra) = (items.len() / parts, items.len() % parts);
        let barrier = Barrier::new(parts);
        let (barrier, step) = (&barrier, &step);
        std::thread::scope(|scope| {
            let (first, mut rest) = items.split_at_mut(base + usize::from(extra > 0));
            let mut helpers = Vec::with_capacity(parts - 1);
            for (p, acc) in (1..parts).zip(rest_accs.iter_mut()) {
                let (part, tail) = rest.split_at_mut(base + usize::from(p < extra));
                rest = tail;
                helpers.push(scope.spawn(move || run_part(barrier, rounds, step, part, acc)));
            }
            let caller = catch_unwind(AssertUnwindSafe(|| {
                run_part(barrier, rounds, step, first, first_acc)
            }));
            // Join every helper before re-raising, so none outlives the call.
            let mut helpers_ok = true;
            for h in helpers {
                helpers_ok &= h.join().is_ok();
            }
            assert!(caller.is_ok() && helpers_ok, "pool worker panicked");
        });
        accs
    }

    /// Runs a batch of heterogeneous boxed tasks; sugar over [`map`](Pool::map)
    /// for callers whose tasks are distinct closures rather than uniform
    /// items.
    pub fn run_boxed<R: Send>(&self, tasks: Vec<Box<dyn FnOnce() -> R + Send + '_>>) -> Vec<R> {
        self.map(tasks, |_, task| task())
    }
}

/// Pops the worker's own deque, stealing the front half of the richest
/// victim when empty. `None` once every deque is empty (no task can
/// reappear: indices only move between deques under their locks).
// an2-lint: allow(panic-freedom) deque indices w and victim are < workers by the modular step
fn next_task(deques: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(idx) = lock(&deques[w]).pop_front() {
        return Some(idx);
    }
    let workers = deques.len();
    for step in 1..workers {
        let victim = (w + step) % workers;
        let stolen: Vec<usize> = {
            let mut q = lock(&deques[victim]);
            let take = q.len().div_ceil(2);
            // an2-lint: allow(alloc-in-hot-path) work-stealing moves existing indices between deques; the stolen batch is bounded by the victim's half
            q.drain(..take).collect()
        };
        if let Some((&first, rest)) = stolen.split_first() {
            // an2-lint: allow(alloc-in-hot-path) work-stealing moves existing indices between deques; the stolen batch is bounded by the victim's half
            lock(&deques[w]).extend(rest.iter().copied());
            return Some(first);
        }
    }
    None
}

/// Spin iterations a barrier waiter burns before it starts yielding its
/// CPU between checks. Lockstep rounds are short and the parts are
/// balanced, so most waits end within the spin; the yield keeps a long
/// wait (an uneven round, an oversubscribed host) from starving others.
const SPIN_LIMIT: u32 = 1 << 10;

/// One part's loop in [`Pool::lockstep`]: step, then wait for the other
/// parts. The last round needs no barrier — the join orders it.
fn run_part<T, A, F>(barrier: &Barrier, rounds: u64, step: &F, part: &mut [T], acc: &mut A)
where
    F: Fn(u64, &mut [T], &mut A),
{
    let _poison = PoisonOnUnwind(barrier);
    for round in 0..rounds {
        step(round, part, acc);
        if round + 1 < rounds && !barrier.wait() {
            // Another part panicked; its round will never complete.
            return;
        }
    }
}

/// A reusable generation-counting barrier for a fixed team that can be
/// poisoned, so a panicking member releases the others instead of
/// leaving them waiting for an arrival that never comes.
#[derive(Debug)]
struct Barrier {
    parts: usize,
    /// Arrivals in the current generation.
    arrived: AtomicUsize,
    /// Completed generations; waiters leave when it moves.
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl Barrier {
    fn new(parts: usize) -> Self {
        Barrier {
            parts,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Waits until all `parts` members have arrived. Returns `false`
    /// (without waiting further) once the barrier is poisoned.
    ///
    /// The release/acquire chain — each arrival's `AcqRel` increment, the
    /// last arrival's `Release` store of the generation, every waiter's
    /// `Acquire` load of it — orders everything a member wrote before
    /// arriving before everything any member does after leaving.
    fn wait(&self) -> bool {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parts {
            // Reset before publishing the new generation: a released
            // member's next arrival must count from zero.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            return true;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            if self.poisoned.load(Ordering::Acquire) {
                return false;
            }
            if spins < SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        true
    }
}

/// Poisons the barrier if its owner unwinds out of a lockstep part.
struct PoisonOnUnwind<'a>(&'a Barrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
        }
    }
}

/// Locks ignoring poisoning: a panicked worker is re-raised at join, so
/// survivors may keep draining the queue in the meantime.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn lock_owned<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_item_order() {
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let out = pool.map((0..100).collect(), |idx, x: i32| {
                assert_eq!(idx as i32, x);
                x * 2
            });
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let out = Pool::new(4).map((0..257).collect::<Vec<u32>>(), |_, x| {
            ran.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 257);
        assert_eq!(ran.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn uneven_task_durations_still_complete() {
        // Front-loaded long tasks force the later workers to steal.
        let out = Pool::new(4).map((0..32u64).collect(), |_, x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_batches() {
        let pool = Pool::new(8);
        assert_eq!(pool.map(Vec::<u8>::new(), |_, x| x), Vec::<u8>::new());
        assert_eq!(pool.map(vec![9u8], |_, x| x), vec![9]);
    }

    #[test]
    fn nested_map_from_inside_a_task() {
        let pool = Pool::new(2);
        let out = pool.map(vec![10u64, 20], |_, base| {
            Pool::new(2)
                .map((0..4).collect(), move |_, k: u64| base + k)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(out, vec![10 * 4 + 6, 20 * 4 + 6]);
    }

    #[test]
    fn run_boxed_heterogeneous_tasks() {
        let a = 3u64;
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> =
            vec![Box::new(move || a * a), Box::new(|| 42)];
        assert_eq!(Pool::new(2).run_boxed(tasks), vec![9, 42]);
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn task_panic_propagates() {
        let _ = Pool::new(2).map((0..8).collect::<Vec<u32>>(), |_, x| {
            assert!(x != 5, "boom");
            x
        });
    }

    /// A shift-register ring stepped through `rounds` rounds: item `i`
    /// folds its predecessor's previous-round output into its state and
    /// publishes the result on its own double-buffered wire. Each part
    /// sums the states its items publish; the parts' sums are added up.
    fn shift_ring(pool: Pool, len: usize, rounds: u64) -> (Vec<(usize, u64)>, u64) {
        let wires: Vec<[AtomicU64; 2]> = (0..len as u64)
            .map(|i| [AtomicU64::new(i), AtomicU64::new(i)])
            .collect();
        let mut items: Vec<(usize, u64)> = (0..len).map(|i| (i, i as u64 * 7)).collect();
        let sums = pool.lockstep(&mut items, rounds, || 0u64, |round, part, sum| {
            let (read, write) = ((round as usize + 1) % 2, round as usize % 2);
            for (i, state) in part.iter_mut() {
                let pred = (*i + len - 1) % len;
                let v = wires[pred][read].load(Ordering::Relaxed);
                *state = state.wrapping_mul(0x9E37_79B9).wrapping_add(v ^ round);
                wires[*i][write].store(*state, Ordering::Relaxed);
                *sum = sum.wrapping_add(*state);
            }
        });
        assert_eq!(sums.len(), pool.threads().min(len), "one sum per part");
        (items, sums.into_iter().fold(0, u64::wrapping_add))
    }

    #[test]
    fn lockstep_shift_ring_matches_serial() {
        for len in [1, 2, 5, 100] {
            let serial = shift_ring(Pool::serial(), len, 37);
            for threads in [1, 2, 3, 7] {
                assert_eq!(
                    shift_ring(Pool::new(threads), len, 37),
                    serial,
                    "threads={threads} len={len}"
                );
            }
        }
    }

    #[test]
    fn lockstep_clamps_parts_to_the_item_count() {
        for (threads, len, want) in [
            (8, 3, vec![1, 1, 1]),
            (2, 5, vec![3, 2]),
            (3, 7, vec![3, 2, 2]),
        ] {
            let seen = Mutex::new(Vec::new());
            let mut items: Vec<usize> = (0..len).collect();
            let accs = Pool::new(threads).lockstep(&mut items, 4, Vec::new, |round, part, acc| {
                lock(&seen).push((round, part[0], part.len(), std::thread::current().id()));
                acc.push(part[0]);
            });
            let mut seen = lock_owned(seen);
            seen.sort_by_key(|&(round, first, _, _)| (round, first));
            assert_eq!(seen.len(), 4 * want.len(), "threads={threads} len={len}");
            let lens: Vec<usize> = seen[..want.len()].iter().map(|s| s.2).collect();
            assert_eq!(lens, want, "threads={threads} len={len}");
            // Each part keeps its accumulator for the whole call, and the
            // accumulators come back in part order.
            let firsts: Vec<usize> = seen[..want.len()].iter().map(|s| s.1).collect();
            let by_part: Vec<Vec<usize>> = firsts.iter().map(|&f| vec![f; 4]).collect();
            assert_eq!(accs, by_part, "threads={threads} len={len}");
            // Each part keeps its own thread for the whole call.
            let mut ids: Vec<_> = seen.iter().map(|s| format!("{:?}", s.3)).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), want.len(), "threads={threads} len={len}");
        }
    }

    #[test]
    fn lockstep_with_zero_rounds_never_steps() {
        let mut items = vec![1u8; 10];
        for threads in [1, 4] {
            let accs =
                Pool::new(threads).lockstep(&mut items, 0, || 7, |_, _, _| panic!("stepped"));
            assert_eq!(accs, vec![7; threads], "accumulators are made, never stepped");
        }
        let mut empty = Vec::<u8>::new();
        let none = Pool::new(4).lockstep(&mut empty, 5, || 7, |_, _, _| panic!("stepped"));
        assert!(none.is_empty(), "an empty slice has no parts");
        assert_eq!(items, vec![1u8; 10]);
    }

    #[test]
    fn lockstep_nested_inside_map() {
        let out = Pool::new(2).map(vec![5usize, 9], |_, len| shift_ring(Pool::new(3), len, 20));
        assert_eq!(
            out,
            vec![
                shift_ring(Pool::serial(), 5, 20),
                shift_ring(Pool::serial(), 9, 20)
            ]
        );
    }

    /// Panics in the part starting at item `first` at round 7 of 50.
    fn lockstep_panicking_at(first: usize) {
        let mut items: Vec<usize> = (0..9).collect();
        Pool::new(3).lockstep(&mut items, 50, || (), |round, part, ()| {
            assert!(!(round == 7 && part[0] == first), "boom");
        });
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn lockstep_helper_panic_propagates() {
        lockstep_panicking_at(3);
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn lockstep_caller_part_panic_propagates() {
        lockstep_panicking_at(0);
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn lockstep_last_round_panic_propagates() {
        let mut items: Vec<usize> = (0..4).collect();
        Pool::new(2).lockstep(&mut items, 3, || (), |round, part, ()| {
            assert!(!(round == 2 && part[0] == 2), "boom");
        });
    }

    #[test]
    fn threads_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::serial().threads(), 1);
        assert!(Pool::available().threads() >= 1);
    }

    #[test]
    fn task_seed_mixes_root_and_key() {
        let a = task_seed(1, "x");
        assert_ne!(a, task_seed(2, "x"));
        assert_ne!(a, task_seed(1, "y"));
        assert_eq!(a, task_seed(1, "x"));
        // Nearby keys avalanche: no shared low bits.
        let b = task_seed(1, "rep0");
        let c = task_seed(1, "rep1");
        assert!((b ^ c).count_ones() > 8, "{b:#x} vs {c:#x}");
    }

    /// Golden pin of the derived-seed function. Published experiment
    /// numbers are a pure function of these values: if this test fails,
    /// the change silently reseeds **every** recorded result. Do not
    /// update the constants without regenerating EXPERIMENTS.md and the
    /// results/ artifacts in the same commit.
    #[test]
    fn task_seed_is_pinned() {
        for (root, key, expected) in GOLDEN_SEEDS {
            assert_eq!(
                task_seed(*root, key),
                *expected,
                "task_seed({root:#x}, {key:?}) drifted"
            );
        }
    }

    const GOLDEN_SEEDS: &[(u64, &str, u64)] = &[
        (0, "", 0xf52a15e9a9b5e89b),
        (0xA52_1992, "table1", 0x9ba88b3d675733f9),
        (0xA52_1992, "faults", 0xfb1dcde2a10f68ce),
        (7, "curve/pim4", 0x3f24d201c1bc9058),
        (7, "load3fe0000000000000/rep0", 0x1d4485f633c51633),
    ];

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_fnv_matches_the_one_shot_hash() {
        let mut h = Fnv::new();
        h.bytes(b"foo");
        h.bytes(b"");
        h.bytes(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        let mut w = Fnv::default();
        w.u64(0x0102_0304_0506_0708);
        assert_eq!(w.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }

    #[test]
    fn report_digest_is_pinned() {
        // Every recorded report digest depends on this multiplier.
        let mut h = Fnv::report();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xb084_984c_8601_ec8c);
    }
}
