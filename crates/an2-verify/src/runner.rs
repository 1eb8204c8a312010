//! The invariant-checked probe runner: drives a PIM scheduler against
//! per-pair FIFOs ([`PairFifos`]) slot by slot, re-verifying every
//! invariant after every slot.
//!
//! Unlike `an2_sched::CheckedScheduler` — whose checks compile away in
//! plain release builds so it can wrap hot paths for free — this runner
//! checks **unconditionally**: it exists to be asked (`an2-repro --check`,
//! `an2-repro replay`), so a release binary without the
//! `check-invariants` feature still gets real verification.
//!
//! Checked per slot:
//! * the matching meets PIM's declared contract (`Scheduler::contract`),
//!   and is maximal as well when the case demands it;
//! * every matched pair yields a queued cell;
//! * no pair queue holds more than the configured capacity, which the
//!   queues enforce as a depth bound on enqueue;
//! * cells are conserved: admitted = delivered + queued, with corrupted
//!   and rejected cells accounted separately.

use crate::replay::ReplayCase;
use an2_sched::check::{matching_violations, Violation};
use an2_sched::pim::IterationLimit;
use an2_sched::{InputPort, OutputPort, Pim, Scheduler};
use an2_sim::cell::Arrival;
use an2_sim::slab::PairFifos;
use an2_sched::rng::{SelectRng, Xoshiro256};

/// Result of executing a [`ReplayCase`].
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The first violation, if the probe failed.
    pub violation: Option<Violation>,
    /// Slots actually executed (stops at the failing slot).
    pub slots_run: u64,
    /// Invariant evaluations performed (one bundle per slot).
    pub checks: u64,
    /// Cells that crossed the crossbar.
    pub delivered: u64,
    /// Cells lost before admission (corruption faults + drop-tail).
    pub dropped: u64,
}

/// Executes `case` deterministically, stopping at the first violation.
///
/// Traffic: each of the first `active_ports` inputs draws one Bernoulli
/// (`load`) arrival per slot, destined to a uniform output among the
/// first `active_ports`, on a per-input stream split from the root seed
/// (key `0x7_0000 + i`, disjoint from the scheduler's grant/accept
/// streams). Flows are per-pair, so the per-flow FIFO discipline holds
/// by construction. The same case therefore always replays to the same
/// failing slot, on any machine.
pub fn run_case(case: &ReplayCase) -> RunOutcome {
    let n = case.n;
    let m = case.active_ports.clamp(1, n);
    // A budget of `n` iterations runs PIM to completion.
    let limit = IterationLimit::Fixed(case.iterations.clamp(1, n));
    let mut pim = Pim::with_options(n, case.seed, limit, case.accept_policy());
    if case.accept_skew != 0 {
        pim.debug_set_accept_skew(case.accept_skew);
    }
    let mut queues = PairFifos::new(n, case.pair_capacity);
    // A case may demand maximality of a budget short of completion (a
    // replay file from outside the program can say anything).
    let mut contract = pim.contract();
    contract.maximal |= case.expect_maximal;

    let root = Xoshiro256::seed_from(case.seed);
    let mut traffic: Vec<Xoshiro256> = (0..m)
        .map(|i| root.split(0x7_0000 + i as u64))
        .collect();

    let mut admitted: u64 = 0;
    let mut delivered: u64 = 0;
    let mut dropped: u64 = 0;
    let mut checks: u64 = 0;
    let mut violations: Vec<Violation> = Vec::new();

    for slot in 0..case.slots {
        // 1. Arrivals (with the case's scripted corruption faults).
        for (i, rng) in traffic.iter_mut().enumerate() {
            if !rng.bernoulli(case.load) {
                continue;
            }
            let j = rng.index(m);
            if case.is_corrupted(slot, i) {
                dropped += 1;
                continue;
            }
            let arrival = Arrival::pair(n, InputPort::new(i), OutputPort::new(j));
            if queues.push(arrival, slot) {
                admitted += 1;
            } else {
                dropped += 1;
            }
        }

        // 2. Schedule, then verify the matching before touching queues —
        //    a broken matching must be reported, not acted on.
        let matching = pim.schedule(queues.requests());
        checks += 1;
        matching_violations(slot, queues.requests(), &matching, contract, None, &mut violations);

        // 3. Matched pairs transmit.
        if violations.is_empty() {
            for (i, j) in matching.pairs() {
                if queues.pop(i, j, slot).is_some() {
                    delivered += 1;
                } else {
                    violations.push(Violation {
                        slot,
                        rule: "conservation",
                        detail: format!(
                            "matched pair ({}, {}) had no queued cell",
                            i.index(),
                            j.index()
                        ),
                    });
                }
            }
        }

        // 4. Buffer and ledger invariants.
        if violations.is_empty() && !queues.within_bound() {
            violations.push(Violation {
                slot,
                rule: "capacity",
                detail: "a VOQ exceeded its configured pair capacity".to_owned(),
            });
        }
        if violations.is_empty() && admitted != delivered + queues.len() as u64 {
            violations.push(Violation {
                slot,
                rule: "conservation",
                detail: format!(
                    "admitted {admitted} != delivered {delivered} + queued {}",
                    queues.len()
                ),
            });
        }

        if let Some(first) = violations.into_iter().next() {
            return RunOutcome {
                violation: Some(first),
                slots_run: slot + 1,
                checks,
                delivered,
                dropped,
            };
        }
        violations = Vec::new();
    }

    RunOutcome {
        violation: None,
        slots_run: case.slots,
        checks,
        delivered,
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_probe_passes_and_conserves() {
        let case = ReplayCase::new(8, 0xBEEF, 0.7, 256);
        let out = run_case(&case);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert_eq!(out.slots_run, 256);
        assert_eq!(out.checks, 256);
        assert_eq!(out.dropped, 0);
        assert!(out.delivered > 0);
    }

    #[test]
    fn faulted_capacity_probe_still_passes() {
        let mut case = ReplayCase::new(8, 0xBEEF, 1.0, 256);
        case.pair_capacity = Some(4);
        case.corrupt = (0..16).map(|s| (s, (s % 8) as usize)).collect();
        let out = run_case(&case);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.dropped >= 16, "corrupted cells count as dropped");
    }

    #[test]
    fn to_completion_probe_passes_maximality() {
        let mut case = ReplayCase::new(8, 0x5EED, 0.5, 128);
        case.iterations = case.n; // to completion
        case.expect_maximal = true;
        let out = run_case(&case);
        assert!(out.violation.is_none(), "{:?}", out.violation);
    }

    #[test]
    fn seeded_skew_bug_fails_fast() {
        let mut case = ReplayCase::new(8, 0x0DD, 0.3, 512);
        case.accept_skew = 1;
        let out = run_case(&case);
        let v = out.violation.expect("skewed accept must be caught");
        assert_eq!(v.rule, "respects");
        assert_eq!(out.slots_run, v.slot + 1);
    }
}
