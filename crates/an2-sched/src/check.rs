//! Scheduler contracts and the oracle-free rules that check them.
//!
//! The AN2 correctness argument leans on per-slot properties of every
//! matching a scheduler emits. In the Q/M/⟨Q,M⟩ terms of the MWM→iSLIP
//! tutorial (Q the queue matrix, M the matching, ⟨Q,M⟩ the queued weight
//! M serves), each [`Scheduler`] states what it promises through
//! [`Scheduler::contract`], a [`Contract`] value:
//!
//! * every M is **legal**: a partial permutation (each input once, each
//!   output at most [`Contract::output_capacity`] times) of requested
//!   pairs that touches no failed port — the default every scheduler
//!   meets;
//! * [`maximal`](Contract::maximal): no request joins an unmatched healthy
//!   input to a healthy output with spare capacity (§3.1; §3.4 bounds a
//!   maximal matching at half the maximum);
//! * [`maximum_cardinality`](Contract::maximum_cardinality) and
//!   [`maximum_weight`](Contract::maximum_weight): |M| or ⟨Q,M⟩ is the
//!   largest any matching of the healthy requests reaches;
//! * [`merges_proposals`](Contract::merges_proposals): M merges two
//!   maximal proposals A and B with ⟨Q,M⟩ ≥ max(⟨Q,A⟩, ⟨Q,B⟩)
//!   (SERENADE).
//!
//! This module checks the rules that need no oracle, over a plain pair
//! list so that k-grant PIM's `MultiMatching` uses them too
//! ([`pair_violations`]; [`matching_violations`] adds `MatchingN`'s own
//! lookup tables). The rules that need an oracle (maximum cardinality,
//! maximum weight, the merge bound and §3.4's half-maximum bound) live
//! in `an2_verify::contract`, which calls these first.
//!
//! [`CheckedScheduler`] wraps any scheduler, reads its contract once, and
//! re-derives the oracle-free rules after every `schedule()` call,
//! *without ever touching the wrapped scheduler's random streams*:
//! checking is pure reads over the returned matching and the request
//! matrix, so a checked run is bit-identical to an unchecked one (pinned
//! by `tests/determinism.rs`).
//!
//! Checking is compiled in when either `debug_assertions` is on (so every
//! `cargo test` run checks by default) or the `check-invariants` cargo
//! feature is enabled (so release-mode experiment runs can opt in via
//! `an2-repro --check`). In a plain release build [`checking_enabled`]
//! is a compile-time `false` and the entire verify body folds away.

use crate::matching::MatchingN;
use crate::port::{InputPort, OutputPort, PortSetN};
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

/// What a scheduler promises about every matching it returns; see the
/// module docs for the rules in Q/M/⟨Q,M⟩ terms.
///
/// Every field beyond legality is a promise the scheduler makes on its
/// own behalf; a port mask narrows each of them to the healthy ports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Contract {
    /// No request joins an unmatched healthy input to a healthy output
    /// with spare capacity.
    pub maximal: bool,
    /// |M| equals the maximum matching size of the healthy requests.
    pub maximum_cardinality: bool,
    /// ⟨Q,M⟩ equals the maximum weight of any matching of the healthy
    /// requests, weighing each pair by its observed queue.
    pub maximum_weight: bool,
    /// M merges two maximal proposals and weighs at least as much as
    /// either of them.
    pub merges_proposals: bool,
    /// Cells one output may receive per slot: 1 for a matching, `k` for
    /// k-grant PIM on a `k`-fold replicated fabric.
    pub output_capacity: usize,
}

impl Contract {
    /// Legal matchings and nothing more: the promise every scheduler
    /// makes, and [`Scheduler::contract`]'s default.
    pub const LEGAL: Contract = Contract {
        maximal: false,
        maximum_cardinality: false,
        maximum_weight: false,
        merges_proposals: false,
        output_capacity: 1,
    };
}

/// One invariant failure observed by a [`CheckedScheduler`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Slot index (number of `schedule()` calls before the failing one).
    pub slot: u64,
    /// Stable identifier of the violated rule ("permutation", "respects",
    /// "mask", "maximal", and the oracle rules of `an2_verify::contract`).
    pub rule: &'static str,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot {}: [{}] {}", self.slot, self.rule, self.detail)
    }
}

/// Appends to `out` every oracle-free rule of `contract` that the
/// assignment `pairs` breaks for `requests`:
///
/// * **permutation** — every pair lies inside the switch, no input
///   appears twice, and no output more than `contract.output_capacity`
///   times.
/// * **respects** — every pair had a pending request.
/// * **mask** — with a mask installed, no pair touches a failed port.
/// * **maximal** (when declared) — no request joins an unassigned input
///   to an output with spare capacity, both healthy under `mask`.
///
/// Pure reads: no RNG, and no allocation beyond `out` growth on failure
/// and, above output capacity 1, one per-output load table.
pub fn pair_violations<const W: usize>(
    slot: u64,
    requests: &RequestMatrixN<W>,
    pairs: impl IntoIterator<Item = (InputPort, OutputPort)>,
    contract: Contract,
    mask: Option<&PortMaskN<W>>,
    out: &mut Vec<Violation>,
) {
    let n = requests.n();
    let k = contract.output_capacity;
    let mut push = |rule, detail| out.push(Violation { slot, rule, detail });
    let mut seen_inputs = PortSetN::<W>::new();
    // Outputs at capacity; above capacity 1 the loads are counted.
    let mut full_outputs = PortSetN::<W>::new();
    let mut load = vec![0usize; if k > 1 { n } else { 0 }];
    for (i, j) in pairs {
        let (iu, ju) = (i.index(), j.index());
        if iu >= n || ju >= n {
            push("permutation", format!("pair ({iu}, {ju}) outside {n}-port switch"));
            continue;
        }
        if !seen_inputs.insert(iu) {
            push("permutation", format!("input {iu} matched twice"));
        }
        if full_outputs.contains(ju) {
            let detail = if k > 1 {
                format!("output {ju} receives more than {k} cells")
            } else {
                format!("output {ju} matched twice")
            };
            push("permutation", detail);
        } else if k <= 1 {
            full_outputs.insert(ju);
        } else {
            load[ju] += 1;
            if load[ju] == k {
                full_outputs.insert(ju);
            }
        }
        if !requests.has(i, j) {
            push(
                "respects",
                format!("pair ({iu}, {ju}) was matched without a pending request"),
            );
        }
        if let Some(mask) = mask {
            if !mask.active_inputs().contains(iu) || !mask.active_outputs().contains(ju) {
                push("mask", format!("pair ({iu}, {ju}) uses a failed port"));
            }
        }
    }
    if contract.maximal {
        let all = PortSetN::<W>::all(n);
        let mut open_inputs = all.difference(&seen_inputs);
        let mut open_outputs = all.difference(&full_outputs);
        if let Some(mask) = mask {
            open_inputs = open_inputs.intersection(mask.active_inputs());
            open_outputs = open_outputs.intersection(mask.active_outputs());
        }
        for i in open_inputs.iter() {
            if let Some(j) = requests.row(InputPort::new(i)).intersection(&open_outputs).first() {
                push(
                    "maximal",
                    format!("unmatched input {i} still has a request for unmatched output {j}"),
                );
            }
        }
    }
}

/// [`pair_violations`] for a [`MatchingN`], plus its own bookkeeping:
/// the matching's size is the request matrix's, its forward and reverse
/// lookup tables agree, and `len()` counts its pairs.
pub fn matching_violations<const W: usize>(
    slot: u64,
    requests: &RequestMatrixN<W>,
    matching: &MatchingN<W>,
    contract: Contract,
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
    let mut pair_count = 0usize;
    for (i, j) in matching.pairs() {
        pair_count += 1;
        if j.index() < n && matching.input_of(j) != Some(i) {
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
    pair_violations(slot, requests, matching.pairs(), contract, mask, out);
}

/// A [`Scheduler`] wrapper that validates every matching it forwards
/// against the wrapped scheduler's own [`Contract`].
///
/// When checking is compiled out ([`checking_enabled`] is `false`) the
/// wrapper is a transparent pass-through; when compiled in, each
/// `schedule()` call re-verifies the returned matching with
/// [`matching_violations`] under the contract read at construction and
/// the last installed port mask, and records any [`Violation`]s instead
/// of panicking, so a replay harness can observe the exact failing slot
/// and keep going.
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
    contract: Contract,
    mask: Option<PortMaskN<W>>,
    slot: u64,
    checks_run: u64,
    violations: Vec<Violation>,
}

impl<const W: usize, S: Scheduler<W>> CheckedScheduler<S, W> {
    /// Wraps `inner`, checking every matching against `inner.contract()`.
    pub fn new(inner: S) -> Self {
        Self {
            contract: inner.contract(),
            inner,
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
                self.contract,
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

    fn contract(&self) -> Contract {
        self.inner.contract()
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

    fn observe_queue(&mut self, i: InputPort, j: OutputPort, depth: u32, age: u32) {
        // Transparent pass-through: observations carry no invariants of
        // their own (they only shape the inner scheduler's weights).
        self.inner.observe_queue(i, j, depth, age);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;
    use crate::{Matching, Pim, PortMask, RequestMatrix};

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

    /// A scheduler that declares maximality but never matches anything:
    /// its own declaration, read by `CheckedScheduler::new`, convicts it.
    struct MisDeclared;

    impl Scheduler for MisDeclared {
        fn schedule(&mut self, requests: &RequestMatrix) -> Matching {
            Matching::new(requests.n())
        }
        fn name(&self) -> &'static str {
            "mis-declared"
        }
        fn contract(&self) -> Contract {
            Contract {
                maximal: true,
                ..Contract::LEGAL
            }
        }
    }

    #[test]
    fn a_mis_declared_contract_fails_through_contract_alone() {
        let reqs = RequestMatrix::from_pairs(4, [(0, 1), (2, 3)]);
        let mut s = CheckedScheduler::new(MisDeclared);
        let _ = s.schedule(&reqs);
        if checking_enabled() {
            assert_eq!(s.violations().len(), 2, "{:?}", s.violations());
            assert!(s.violations().iter().all(|v| v.rule == "maximal"));
        }

        // The only request touches output 1, which is failed: an empty
        // matching is maximal on the healthy subgraph.
        let reqs = RequestMatrix::from_pairs(4, [(0, 1)]);
        let mut s = CheckedScheduler::new(MisDeclared);
        let mut mask = PortMask::all(4);
        mask.fail_output(1);
        s.set_port_mask(mask);
        let _ = s.schedule(&reqs);
        assert!(s.violations().is_empty(), "{:?}", s.violations());
    }
}
