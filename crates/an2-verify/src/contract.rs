//! The oracle rules of a scheduler's declared [`Contract`].
//!
//! `an2_sched::check` holds the rules a matching can be judged by on its
//! own: legality, the port mask and maximality. The rules here need an
//! oracle, so they live beside the oracles in this crate:
//!
//! * **half-maximum** (every maximal matching, §3.4) — |M| is at least
//!   half the maximum matching size of the healthy requests, from
//!   [`kuhn_maximum_matching_size`];
//! * **maximum-cardinality** — |M| equals that maximum;
//! * **max-weight** — ⟨Q,M⟩ equals
//!   [`brute_force_max_weight_matching`] over the healthy requests;
//! * **merge-weight** — both proposals are legal maximal matchings and
//!   ⟨Q,M⟩ ≥ max(⟨Q,A⟩, ⟨Q,B⟩).
//!
//! [`contract_violations`] reads the contract, runs the oracle-free rules
//! first and then the oracle rules it declares. The weights come from the
//! [`Instance`], and [`Instance::observe`] feeds the same weights to the
//! scheduler, so the oracle and the scheduler weigh the same Q-matrix.

use crate::oracle::{brute_force_max_weight_matching, kuhn_maximum_matching_size};
use an2_sched::check::{matching_violations, Contract, Violation};
use an2_sched::{MatchingN, PortMaskN, RequestMatrixN, Scheduler};

/// The most requested healthy columns an instance may have for the
/// max-weight rule to run: the brute force is exponential in them, and
/// past 16 one check costs seconds. Wider instances are judged by every
/// other rule; the narrower property regimes bound their footprint so
/// the weight rule runs on them.
pub const WEIGHT_ORACLE_COLUMNS: usize = 16;

/// One slot as the oracle rules see it: the requests the scheduler was
/// given, the port mask it ran under, and the queue weight (≥ 1) of each
/// requested pair.
pub struct Instance<'a, const W: usize> {
    /// The slot's request matrix (Q's support).
    pub requests: &'a RequestMatrixN<W>,
    /// The installed port mask, if any.
    pub mask: Option<&'a PortMaskN<W>>,
    /// The queue weight of requested pair `(i, j)`.
    pub weight: &'a dyn Fn(usize, usize) -> u32,
}

impl<const W: usize> std::fmt::Debug for Instance<'_, W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("n", &self.requests.n())
            .field("requests", &self.requests.len())
            .field("mask", &self.mask)
            .finish()
    }
}

impl<const W: usize> Instance<'_, W> {
    /// Feeds `sched` one queue observation per requested pair so that its
    /// Q-matrix weight is the instance's weight under either policy: LQF
    /// weighs the depth, OCF the age plus one. Schedulers that ignore
    /// observations ignore these too.
    pub fn observe<S: Scheduler<W> + ?Sized>(&self, sched: &mut S) {
        for (i, j) in self.requests.pairs() {
            let w = (self.weight)(i.index(), j.index()).max(1);
            sched.observe_queue(i, j, w, w - 1);
        }
    }

    /// ⟨Q,M⟩: the total weight of `m`'s pairs.
    fn weight_of(&self, m: &MatchingN<W>) -> i64 {
        m.pairs()
            .map(|(i, j)| i64::from((self.weight)(i.index(), j.index())))
            .sum()
    }

    /// The requests between healthy ports.
    fn healthy(&self) -> RequestMatrixN<W> {
        let mut healthy = self.requests.clone();
        if let Some(mask) = self.mask {
            for (i, j) in self.requests.pairs() {
                if !mask.input_active(i.index()) || !mask.output_active(j.index()) {
                    healthy.clear(i, j);
                }
            }
        }
        healthy
    }
}

/// Appends to `out` every rule of `contract` that `matching` breaks on
/// `inst`: the oracle-free rules of
/// [`an2_sched::check::matching_violations`], then the oracle rules the
/// contract declares (see the module docs). A merging scheduler's
/// `proposals` are required; without them the merge rule reports that
/// it could not run.
pub fn contract_violations<const W: usize>(
    slot: u64,
    contract: Contract,
    inst: &Instance<'_, W>,
    matching: &MatchingN<W>,
    proposals: Option<[&MatchingN<W>; 2]>,
    out: &mut Vec<Violation>,
) {
    matching_violations(slot, inst.requests, matching, contract, inst.mask, out);
    let healthy = inst.healthy();
    let size = matching.len();
    let mut push = |rule, detail| out.push(Violation { slot, rule, detail });
    if contract.maximal || contract.maximum_cardinality {
        let maximum = kuhn_maximum_matching_size(&healthy);
        if contract.maximal && 2 * size < maximum {
            push(
                "half-maximum",
                format!("maximal matching of {size} pairs is below half the maximum {maximum}"),
            );
        }
        if contract.maximum_cardinality && size != maximum {
            push(
                "maximum-cardinality",
                format!("matched {size} pairs, the maximum is {maximum}"),
            );
        }
    }
    if contract.maximum_weight && healthy.nonempty_cols().len() <= WEIGHT_ORACLE_COLUMNS {
        let achieved = inst.weight_of(matching);
        let optimal =
            brute_force_max_weight_matching(&healthy, &|i, j| i64::from((inst.weight)(i, j)));
        if achieved != optimal {
            push(
                "max-weight",
                format!("matched weight {achieved}, brute-force optimum {optimal}"),
            );
        }
    }
    if !contract.merges_proposals {
        return;
    }
    let Some([a, b]) = proposals else {
        push(
            "merge-weight",
            "no proposals to compare the merge with".to_owned(),
        );
        return;
    };
    let (wa, wb, wm) = (
        inst.weight_of(a),
        inst.weight_of(b),
        inst.weight_of(matching),
    );
    if wm < wa.max(wb) {
        push(
            "merge-weight",
            format!("merged weight {wm} below max of proposals ({wa}, {wb})"),
        );
    }
    let maximal = Contract {
        maximal: true,
        ..Contract::LEGAL
    };
    for p in [a, b] {
        matching_violations(slot, inst.requests, p, maximal, inst.mask, out);
    }
}
