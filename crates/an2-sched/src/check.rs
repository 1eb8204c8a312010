//! Runtime invariant checking for schedulers — zero-cost when disabled.
//!
//! The AN2 correctness argument leans on per-slot properties of every
//! matching a scheduler emits: it must be a valid partial permutation, it
//! must only connect pairs that actually requested, and (for schedulers
//! that promise it) it must be maximal — no request left between two
//! unmatched ports (§3.1). After three rounds of hot-path optimisation
//! those properties are enforced here as a first-class layer rather than
//! inferred from pinned digests.
//!
//! [`CheckedScheduler`] wraps any [`Scheduler`] and re-derives the
//! invariants from scratch after every `schedule()` call, *without ever
//! touching the wrapped scheduler's random streams*: checking is pure
//! reads over the returned matching and the request matrix, so a checked
//! run is bit-identical to an unchecked one (pinned by
//! `tests/determinism.rs`).
//!
//! Checking is compiled in when either `debug_assertions` is on (so every
//! `cargo test` run checks by default) or the `check-invariants` cargo
//! feature is enabled (so release-mode experiment runs can opt in via
//! `an2-repro --check`). In a plain release build [`checking_enabled`]
//! is a compile-time `false` and the entire verify body folds away.

use crate::matching::MatchingN;
use crate::port::PortSetN;
use crate::requests::RequestMatrixN;
use crate::scheduler::{PortMaskN, Scheduler};
use std::fmt;

/// Whether invariant checking is compiled into this build.
///
/// `true` under `debug_assertions` or with the `check-invariants` feature;
/// a compile-time constant, so disabled checks cost nothing.
pub const fn checking_enabled() -> bool {
    cfg!(debug_assertions) || cfg!(feature = "check-invariants")
}

/// One invariant failure observed by a [`CheckedScheduler`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Slot index (number of `schedule()` calls before the failing one).
    pub slot: u64,
    /// Stable identifier of the violated rule ("permutation", "respects",
    /// "maximal").
    pub rule: &'static str,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot {}: [{}] {}", self.slot, self.rule, self.detail)
    }
}

/// What a wrapped scheduler promises about its matchings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// The matching is a partial permutation that respects the requests.
    /// This is the [`Scheduler`] contract every implementation must meet.
    Legal,
    /// Additionally, the matching is maximal: no request connects an
    /// unmatched (healthy) input to an unmatched (healthy) output. True
    /// for PIM run to completion and for maximum matching, but **not**
    /// for PIM with a fixed iteration budget (§3.2's whole point is that
    /// four iterations merely get close).
    Maximal,
}

/// Appends to `out` every invariant violated by `matching` for `requests`.
///
/// The checks are re-derived from scratch — nothing is trusted from the
/// scheduler beyond the returned matching itself:
///
/// * **permutation** — every pair lies inside the switch, no input or
///   output appears twice, and the forward/reverse lookup tables agree.
/// * **respects** — every matched pair had a pending request.
/// * **maximal** (only with [`Expectation::Maximal`]) — no request left
///   between an unmatched input and an unmatched output, restricted to
///   `mask`'s healthy ports when a mask is installed.
///
/// Pure reads only: no RNG, no allocation beyond `out` growth on failure.
///
/// Generic over the bitset width `W` so the same derivation covers the
/// narrow (`W = 4`, up to 256 ports) and wide (`W = 16`, up to 1024
/// ports) scheduler kernels; width is inferred from the arguments.
pub fn matching_violations<const W: usize>(
    slot: u64,
    requests: &RequestMatrixN<W>,
    matching: &MatchingN<W>,
    expect: Expectation,
    mask: Option<&PortMaskN<W>>,
    out: &mut Vec<Violation>,
) {
    let n = matching.n();
    if requests.n() != n {
        out.push(Violation {
            slot,
            rule: "permutation",
            detail: format!(
                "matching is {n}x{n} but the request matrix is {r}x{r}",
                r = requests.n()
            ),
        });
        return;
    }

    // -- permutation: re-derive both directions from the pair list ------
    let mut seen_inputs = PortSetN::<W>::new();
    let mut seen_outputs = PortSetN::<W>::new();
    let mut pair_count = 0usize;
    for (i, j) in matching.pairs() {
        pair_count += 1;
        if i.index() >= n || j.index() >= n {
            out.push(Violation {
                slot,
                rule: "permutation",
                detail: format!("pair ({}, {}) outside {n}-port switch", i.index(), j.index()),
            });
            continue;
        }
        if !seen_inputs.insert(i.index()) {
            out.push(Violation {
                slot,
                rule: "permutation",
                detail: format!("input {} matched twice", i.index()),
            });
        }
        if !seen_outputs.insert(j.index()) {
            out.push(Violation {
                slot,
                rule: "permutation",
                detail: format!("output {} matched twice", j.index()),
            });
        }
        if matching.output_of(i) != Some(j) || matching.input_of(j) != Some(i) {
            out.push(Violation {
                slot,
                rule: "permutation",
                detail: format!(
                    "lookup tables disagree for pair ({}, {})",
                    i.index(),
                    j.index()
                ),
            });
        }
        // -- respects: the pair must have been requested ----------------
        if !requests.has(i, j) {
            out.push(Violation {
                slot,
                rule: "respects",
                detail: format!(
                    "pair ({}, {}) was matched without a pending request",
                    i.index(),
                    j.index()
                ),
            });
        }
    }
    if pair_count != matching.len() {
        out.push(Violation {
            slot,
            rule: "permutation",
            detail: format!(
                "matching reports len {} but enumerates {pair_count} pairs",
                matching.len()
            ),
        });
    }

    // -- maximal: no augmenting edge among unmatched healthy ports ------
    if expect == Expectation::Maximal {
        let mut open_outputs = matching.unmatched_outputs();
        let mut open_inputs = matching.unmatched_inputs();
        if let Some(mask) = mask {
            open_outputs = open_outputs.intersection(mask.active_outputs());
            open_inputs = open_inputs.intersection(mask.active_inputs());
        }
        for i in open_inputs.iter() {
            let missed = requests
                .row(crate::InputPort::new(i))
                .intersection(&open_outputs);
            if let Some(j) = missed.first() {
                out.push(Violation {
                    slot,
                    rule: "maximal",
                    detail: format!(
                        "unmatched input {i} still has a request for unmatched output {j}"
                    ),
                });
            }
        }
    }
}

/// A [`Scheduler`] wrapper that validates every matching it forwards.
///
/// When checking is compiled out ([`checking_enabled`] is `false`) the
/// wrapper is a transparent pass-through; when compiled in, each
/// `schedule()` call re-verifies the returned matching and records any
/// [`Violation`]s instead of panicking, so a replay harness can observe
/// the exact failing slot and keep going.
///
/// The wrapper never draws randomness and never mutates the wrapped
/// scheduler beyond forwarding calls, so checked and unchecked runs are
/// bit-identical.
///
/// # Examples
///
/// ```
/// use an2_sched::check::{CheckedScheduler, checking_enabled};
/// use an2_sched::{Pim, RequestMatrix, Scheduler};
///
/// let mut s = CheckedScheduler::new(Pim::new(8, 7));
/// let reqs = RequestMatrix::from_fn(8, |i, j| (i + j) % 3 == 0);
/// for _ in 0..32 {
///     let _ = s.schedule(&reqs);
/// }
/// assert!(s.violations().is_empty());
/// if checking_enabled() {
///     assert_eq!(s.checks_run(), 32);
/// }
/// ```
#[derive(Debug)]
pub struct CheckedScheduler<S, const W: usize = 4> {
    inner: S,
    expect: Expectation,
    mask: Option<PortMaskN<W>>,
    slot: u64,
    checks_run: u64,
    violations: Vec<Violation>,
}

impl<const W: usize, S: Scheduler<W>> CheckedScheduler<S, W> {
    /// Wraps `inner`, expecting legal (but not necessarily maximal)
    /// matchings — the right setting for any fixed-iteration scheduler.
    pub fn new(inner: S) -> Self {
        Self::with_expectation(inner, Expectation::Legal)
    }

    /// Wraps `inner`, additionally requiring every matching to be maximal.
    /// Use for PIM run to completion, Hopcroft–Karp, and other schedulers
    /// that promise no augmenting edge remains.
    pub fn expecting_maximal(inner: S) -> Self {
        Self::with_expectation(inner, Expectation::Maximal)
    }

    /// Wraps `inner` with an explicit [`Expectation`].
    pub fn with_expectation(inner: S, expect: Expectation) -> Self {
        Self {
            inner,
            expect,
            mask: None,
            slot: 0,
            checks_run: 0,
            violations: Vec::new(),
        }
    }

    /// The wrapped scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped scheduler (e.g. to arm a test hook).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwraps, discarding any recorded violations.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Violations recorded so far, in slot order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Drains and returns the recorded violations.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// Number of matchings verified (0 when checking is compiled out).
    pub fn checks_run(&self) -> u64 {
        self.checks_run
    }

    /// Slots scheduled through this wrapper so far.
    pub fn slots_scheduled(&self) -> u64 {
        self.slot
    }
}

impl<const W: usize, S: Scheduler<W>> Scheduler<W> for CheckedScheduler<S, W> {
    // an2-lint: cold — the checking wrapper is a test/debug observer; it is
    // never installed in production slot loops and is allowed to allocate
    // and assert (see the module docs).
    fn schedule(&mut self, requests: &RequestMatrixN<W>) -> MatchingN<W> {
        let matching = self.inner.schedule(requests);
        if checking_enabled() {
            self.checks_run += 1;
            matching_violations(
                self.slot,
                requests,
                &matching,
                self.expect,
                self.mask.as_ref(),
                &mut self.violations,
            );
        }
        self.slot += 1;
        matching
    }

    fn name(&self) -> &'static str {
        // Transparent: reports and digests must not notice the wrapper.
        self.inner.name()
    }

    fn set_port_mask(&mut self, mask: PortMaskN<W>) {
        self.mask = Some(mask);
        self.inner.set_port_mask(mask);
    }

    fn idle_slot_is_noop(&self) -> bool {
        // Deliberately NOT forwarded: the wrapper counts slots and checks
        // per `schedule` call, so letting an engine skip idle slots would
        // desynchronize `slots_scheduled` from the engine's slot clock.
        // The inner scheduler still behaves identically when called on an
        // idle slot (that is what the flag asserts), so checked and
        // unchecked runs stay bit-identical either way.
        false
    }

    fn wants_queue_observations(&self) -> bool {
        self.inner.wants_queue_observations()
    }

    fn observe_queue(
        &mut self,
        i: crate::port::InputPort,
        j: crate::port::OutputPort,
        depth: u32,
        age: u32,
    ) {
        // Transparent pass-through: observations carry no invariants of
        // their own (they only shape the inner scheduler's weights).
        self.inner.observe_queue(i, j, depth, age);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pim::{AcceptPolicy, IterationLimit, Pim};
    use crate::rng::Xoshiro256;
    use crate::{Matching, PortMask, RequestMatrix};

    #[test]
    fn clean_scheduler_records_nothing() {
        let mut s = CheckedScheduler::new(Pim::new(8, 0xC0FFEE));
        let mut rng = Xoshiro256::seed_from(9);
        for _ in 0..64 {
            let reqs = RequestMatrix::random(8, 0.6, &mut rng);
            let m = s.schedule(&reqs);
            assert!(m.respects(&reqs));
        }
        assert!(s.violations().is_empty(), "{:?}", s.violations());
        assert_eq!(s.slots_scheduled(), 64);
    }

    #[test]
    fn to_completion_pim_is_maximal() {
        let pim = Pim::with_options(
            8,
            3,
            IterationLimit::ToCompletion,
            AcceptPolicy::Random,
        );
        let mut s = CheckedScheduler::expecting_maximal(pim);
        let mut rng = Xoshiro256::seed_from(11);
        for _ in 0..64 {
            let reqs = RequestMatrix::random(8, 0.5, &mut rng);
            let _ = s.schedule(&reqs);
        }
        assert!(s.violations().is_empty(), "{:?}", s.violations());
    }

    /// The four-word `Pim` runs its loop on one word at n = 8 and 16 and on
    /// all four at n = 100; the seeded bug is caught on both paths.
    #[test]
    fn skewed_accept_is_caught() {
        for n in [8, 16, 100] {
            let mut s = CheckedScheduler::new(Pim::new(n, 42));
            s.inner_mut().debug_set_accept_skew(1);
            let mut rng = Xoshiro256::seed_from(5);
            let mut caught = false;
            for _ in 0..32 {
                // Sparse requests: a rotated accept lands on a non-requested
                // output almost immediately.
                let reqs = RequestMatrix::random(n, 0.3, &mut rng);
                let _ = s.schedule(&reqs);
                if !s.violations().is_empty() {
                    caught = true;
                    break;
                }
            }
            if checking_enabled() {
                assert!(
                    caught,
                    "checker missed the seeded accept-skew bug at n = {n}"
                );
                assert_eq!(s.violations()[0].rule, "respects", "n = {n}");
            }
        }
    }

    #[test]
    fn missed_augmenting_edge_is_caught() {
        // An empty matching against a non-empty request matrix violates
        // maximality but is perfectly legal.
        struct Lazy;
        impl Scheduler for Lazy {
            fn schedule(&mut self, requests: &RequestMatrix) -> Matching {
                Matching::new(requests.n())
            }
            fn name(&self) -> &'static str {
                "lazy"
            }
        }
        let reqs = RequestMatrix::from_pairs(4, [(0, 1), (2, 3)]);

        let mut legal = CheckedScheduler::new(Lazy);
        let _ = legal.schedule(&reqs);
        assert!(legal.violations().is_empty());

        let mut maximal = CheckedScheduler::expecting_maximal(Lazy);
        let _ = maximal.schedule(&reqs);
        if checking_enabled() {
            assert_eq!(maximal.violations().len(), 2);
            assert!(maximal.violations().iter().all(|v| v.rule == "maximal"));
        }
    }

    #[test]
    fn masked_maximality_ignores_failed_ports() {
        struct Lazy;
        impl Scheduler for Lazy {
            fn schedule(&mut self, requests: &RequestMatrix) -> Matching {
                Matching::new(requests.n())
            }
            fn name(&self) -> &'static str {
                "lazy"
            }
        }
        // The only request touches output 1, which is failed: an empty
        // matching is maximal on the healthy subgraph.
        let reqs = RequestMatrix::from_pairs(4, [(0, 1)]);
        let mut s = CheckedScheduler::expecting_maximal(Lazy);
        let mut mask = PortMask::all(4);
        mask.fail_output(1);
        s.set_port_mask(mask);
        let _ = s.schedule(&reqs);
        assert!(s.violations().is_empty(), "{:?}", s.violations());
    }
}
