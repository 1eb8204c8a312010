//! iSLIP and RRM — round-robin descendants of PIM (extension/ablation).
//!
//! These algorithms are *not* in the 1992 paper; they are the
//! deterministic-pointer successors that PIM inspired (McKeown's iSLIP,
//! 1995, and the simpler round-robin matching RRM). They are included as
//! documented extensions so the benches can ablate PIM's use of randomness:
//! same request/grant/accept skeleton, pointers instead of dice.
//!
//! * **RRM**: each output grants the requesting input nearest at-or-after
//!   its grant pointer, each input accepts the granting output nearest
//!   at-or-after its accept pointer; pointers advance one past the chosen
//!   port after every grant/accept. RRM synchronizes badly under uniform
//!   load (pointers move in lockstep).
//! * **iSLIP**: identical, except pointers advance **only when the grant is
//!   accepted, and only in the first iteration** — the one-line change that
//!   de-synchronizes the pointers and restores ~100% throughput.
//!
//! Like PIM, the scheduler is generic over the bitset width `W`
//! ([`RoundRobinMatchingN`]); [`RoundRobinMatching`] is the four-word
//! 256-port alias and [`WideRoundRobinMatching`] the 1024-port one.
//!
//! There is one kernel, the sparse active-pair walk of
//! [`Scheduler::schedule`]. Its differential oracle is
//! `an2_verify::ReferenceRoundRobin`, a dense sweep over plain vectors
//! that must agree with it on every matching and every pointer, masks
//! included.

use crate::matching::MatchingN;
use crate::port::{InputPort, OutputPort, PortSetN};
use crate::requests::RequestMatrixN;
use crate::scheduler::{PortMaskN, Scheduler};

/// Pointer-update discipline distinguishing RRM from iSLIP.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PointerUpdate {
    /// Advance pointers after every grant/accept (RRM).
    Always,
    /// Advance pointers only for grants that are accepted, and only in the
    /// first iteration (iSLIP).
    OnAcceptFirstIteration,
}

/// A round-robin iterative matching scheduler (RRM or iSLIP), generic over
/// the bitset width `W`.
///
/// Use the [`RoundRobinMatching`] alias unless you are driving a wide
/// (up to 1024-port) switch.
///
/// # Examples
///
/// ```
/// use an2_sched::{islip::RoundRobinMatching, RequestMatrix, Scheduler};
/// let mut islip = RoundRobinMatching::islip(4, 4);
/// let reqs = RequestMatrix::from_fn(4, |_, _| true);
/// let m = islip.schedule(&reqs);
/// assert!(m.respects(&reqs));
/// ```
#[derive(Clone, Debug)]
pub struct RoundRobinMatchingN<const W: usize = 4> {
    n: usize,
    iterations: usize,
    update: PointerUpdate,
    /// Grant pointer per output.
    grant_ptr: Vec<usize>,
    /// Accept pointer per input.
    accept_ptr: Vec<usize>,
    /// Scratch: `grants_to[i]`, cleared lazily on an input's first grant of
    /// the iteration so `schedule()` allocates nothing.
    grants_to: Vec<PortSetN<W>>,
    /// Healthy input ports; failed inputs never request or accept.
    active_inputs: PortSetN<W>,
    /// Healthy output ports; failed outputs never grant.
    active_outputs: PortSetN<W>,
}

/// The default-width round-robin scheduler (up to [`crate::MAX_PORTS`]
/// ports).
pub type RoundRobinMatching = RoundRobinMatchingN<4>;

/// The wide round-robin scheduler (up to [`crate::MAX_WIDE_PORTS`] ports).
pub type WideRoundRobinMatching = RoundRobinMatchingN<16>;

impl<const W: usize> RoundRobinMatchingN<W> {
    /// Creates an iSLIP scheduler running `iterations` iterations per slot.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n` exceeds the width's capacity (`W * 64`), or
    /// `iterations == 0`.
    pub fn islip(n: usize, iterations: usize) -> Self {
        Self::with_update(n, iterations, PointerUpdate::OnAcceptFirstIteration)
    }

    /// Creates an RRM scheduler running `iterations` iterations per slot.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n` exceeds the width's capacity, or
    /// `iterations == 0`.
    pub fn rrm(n: usize, iterations: usize) -> Self {
        Self::with_update(n, iterations, PointerUpdate::Always)
    }

    /// Creates a scheduler with an explicit pointer-update discipline.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n` exceeds the width's capacity, or
    /// `iterations == 0`.
    pub fn with_update(n: usize, iterations: usize, update: PointerUpdate) -> Self {
        assert!(n > 0, "switch must have at least one port");
        assert!(n <= PortSetN::<W>::CAPACITY, "switch size {n} out of range");
        assert!(iterations > 0, "iteration count must be at least 1");
        Self {
            n,
            iterations,
            update,
            grant_ptr: vec![0; n],
            accept_ptr: vec![0; n],
            grants_to: vec![PortSetN::new(); n],
            active_inputs: PortSetN::all(n),
            active_outputs: PortSetN::all(n),
        }
    }

    /// The switch radix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The per-slot iteration budget.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The grant pointer of every output and the accept pointer of every
    /// input — the state a pointer drift would hide in for several slots.
    pub fn pointers(&self) -> (&[usize], &[usize]) {
        (&self.grant_ptr, &self.accept_ptr)
    }
}

impl<const W: usize> Scheduler<W> for RoundRobinMatchingN<W> {
    // an2-lint: hot
    // an2-lint: allow(panic-freedom) the leading assert_eq pins requests.n() == self.n (documented contract), so pointer and port indices stay < n
    fn schedule(&mut self, requests: &RequestMatrixN<W>) -> MatchingN<W> {
        assert_eq!(
            requests.n(),
            self.n,
            "request matrix size {} does not match scheduler size {}",
            requests.n(),
            self.n
        );
        let n = self.n;
        let mut matching = MatchingN::new(n);
        // Failed ports sit out every phase; pointer updates never fire for
        // them either, so a masked run leaves their pointers untouched.
        // With a full mask these are `all(n)` — identical to unmasked runs.
        let mut unmatched_inputs = self.active_inputs;
        let mut unmatched_outputs = self.active_outputs;

        for iter_no in 1..=self.iterations {
            // Grant phase: each unmatched output grants the requesting
            // unmatched input nearest its pointer. Only outputs whose
            // column is non-empty are visited (one word-parallel
            // intersection with the matrix's active-column summary), and
            // each visited output's pointer select runs two-level off the
            // column's nonzero-word bitmap instead of materializing a
            // W-word intersection — per-iteration grant cost scales with
            // the active request set, not N. The pruned outputs would have
            // found an empty eligible set and contributed nothing, and the
            // fused select returns exactly what a dense
            // intersection-then-scan returns, so decisions are those of the
            // textbook sweep (`an2_verify::ReferenceRoundRobin`, checked by
            // the differential properties there).
            let mut granted = PortSetN::<W>::new();
            let mut any = false;
            let candidates = unmatched_outputs.intersection(requests.nonempty_cols());
            for j in candidates.iter() {
                let Some(i) = requests.col_first_at_or_after_in(
                    OutputPort::new(j),
                    self.grant_ptr[j],
                    &unmatched_inputs,
                ) else {
                    continue;
                };
                any = true;
                if granted.insert(i) {
                    // First grant for `i` this iteration: drop the stale
                    // scratch from earlier iterations/slots.
                    self.grants_to[i].clear();
                }
                self.grants_to[i].insert(j);
                if self.update == PointerUpdate::Always && iter_no == 1 {
                    self.grant_ptr[j] = (i + 1) % n;
                }
            }
            if !any {
                break;
            }

            // Accept phase: only inputs actually holding a grant are
            // visited, in the same ascending order as the `0..n` walk.
            for i in granted.iter() {
                let grants = &self.grants_to[i];
                let j = grants
                    .first_at_or_after(self.accept_ptr[i])
                    .expect("grant set checked non-empty");
                matching
                    .pair(InputPort::new(i), OutputPort::new(j))
                    .expect("grant/accept produced a conflicting pair");
                unmatched_inputs.remove(i);
                unmatched_outputs.remove(j);
                if iter_no == 1 {
                    match self.update {
                        PointerUpdate::Always => {
                            self.accept_ptr[i] = (j + 1) % n;
                        }
                        PointerUpdate::OnAcceptFirstIteration => {
                            self.accept_ptr[i] = (j + 1) % n;
                            self.grant_ptr[j] = (i + 1) % n;
                        }
                    }
                }
            }
        }
        matching
    }

    fn name(&self) -> &'static str {
        match self.update {
            PointerUpdate::Always => "rrm",
            PointerUpdate::OnAcceptFirstIteration => "islip",
        }
    }

    fn idle_slot_is_noop(&self) -> bool {
        // With no requests the grant phase finds no candidates and breaks
        // before any pointer moves, so skipping the call entirely is
        // behaviour-identical.
        true
    }

    // an2-lint: allow(panic-freedom) a mis-sized mask is a harness bug, not degraded traffic; the Scheduler trait documents the panic
    fn set_port_mask(&mut self, mask: PortMaskN<W>) {
        assert_eq!(
            mask.n(),
            self.n,
            "mask size {} does not match scheduler size {}",
            mask.n(),
            self.n
        );
        self.active_inputs = *mask.active_inputs();
        self.active_outputs = *mask.active_outputs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requests::RequestMatrix;

    #[test]
    fn names() {
        assert_eq!(RoundRobinMatching::islip(4, 1).name(), "islip");
        assert_eq!(RoundRobinMatching::rrm(4, 1).name(), "rrm");
    }

    #[test]
    fn islip_with_enough_iterations_is_maximal_on_full_requests() {
        let mut islip = RoundRobinMatching::islip(8, 8);
        let reqs = RequestMatrix::from_fn(8, |_, _| true);
        let m = islip.schedule(&reqs);
        assert!(m.is_perfect());
    }

    #[test]
    fn wide_islip_spans_word_boundaries() {
        use crate::requests::WideRequestMatrix;
        let mut islip = WideRoundRobinMatching::islip(130, 130);
        let reqs = WideRequestMatrix::from_fn(130, |_, _| true);
        let m = islip.schedule(&reqs);
        assert!(m.is_perfect());
        assert!(m.respects(&reqs));
    }

    #[test]
    fn islip_desynchronizes_under_persistent_full_load() {
        // Under all-to-all persistent requests, iSLIP converges to a
        // time-division pattern where every slot is a perfect match even
        // with a single iteration (the classic 100%-throughput result).
        let mut islip = RoundRobinMatching::islip(4, 1);
        let reqs = RequestMatrix::from_fn(4, |_, _| true);
        let mut sizes = Vec::new();
        for _ in 0..32 {
            sizes.push(islip.schedule(&reqs).len());
        }
        // After warmup, matches should be perfect.
        assert!(
            sizes[16..].iter().all(|&s| s == 4),
            "iSLIP failed to desynchronize: {sizes:?}"
        );
    }

    #[test]
    fn rrm_stays_synchronized_under_persistent_full_load() {
        // RRM's pointers move in lockstep, so it never reaches sustained
        // perfect matches on the same workload (throughput caps well below
        // 100% — the motivation for iSLIP's update rule).
        let mut rrm = RoundRobinMatching::rrm(4, 1);
        let reqs = RequestMatrix::from_fn(4, |_, _| true);
        let total: usize = (0..64).map(|_| rrm.schedule(&reqs).len()).sum();
        let throughput = total as f64 / (64.0 * 4.0);
        assert!(
            throughput < 0.95,
            "RRM unexpectedly reached {throughput} throughput"
        );
    }

    #[test]
    fn deterministic_across_reconstruction() {
        let reqs = RequestMatrix::from_pairs(4, [(0, 1), (1, 1), (2, 3)]);
        let mut a = RoundRobinMatching::islip(4, 2);
        let mut b = RoundRobinMatching::islip(4, 2);
        for _ in 0..10 {
            assert_eq!(a.schedule(&reqs), b.schedule(&reqs));
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_iterations_panics() {
        let _ = RoundRobinMatching::islip(4, 0);
    }

    #[test]
    fn masked_ports_never_match_and_recover() {
        use crate::scheduler::PortMask;
        let reqs = RequestMatrix::from_fn(4, |_, _| true);
        let mut s = RoundRobinMatching::islip(4, 4);
        let mut mask = PortMask::all(4);
        mask.fail_input(0);
        mask.fail_output(2);
        s.set_port_mask(mask);
        for _ in 0..16 {
            let m = s.schedule(&reqs);
            assert!(m.output_of(InputPort::new(0)).is_none());
            assert!(m.input_of(OutputPort::new(2)).is_none());
            assert!(m.respects(&reqs));
        }
        s.set_port_mask(PortMask::all(4));
        let recovered = (0..16).any(|_| s.schedule(&reqs).is_perfect());
        assert!(recovered, "recovered iSLIP never reached a perfect match");
    }
}
