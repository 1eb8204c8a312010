//! `an2-repro --check`: runs every experiment under full invariants.
//!
//! Rendering an experiment exercises the optimised hot paths; `--check`
//! follows it with an invariant-checked probe of the same machinery —
//! an [`an2_verify::run_case`] probe configured to match the experiment's
//! scheduler (policy, iteration budget, maximality, buffer bounds), the
//! queue-aware schedulers judged against their declared contracts by
//! `an2_verify::contract`, or a multi-switch network probe verified slot
//! by slot via [`Network::verify_invariants`] for the experiments built
//! on `an2-net`.
//!
//! All reporting goes to stderr so the experiment's stdout render stays
//! byte-identical with and without `--check` (the acceptance bar: checked
//! runs at any `--threads` value produce the same bytes as unchecked
//! runs). On a violation the failing probe serialises to `replay.json`
//! for `an2-repro replay`.

use an2_net::netsim::Network;
use an2_sched::check::Violation;
use an2_sched::{InputPort, OutputPort};
use an2_sim::cell::FlowId;
use an2_verify::{run_case, ReplayCase};

use crate::experiments::Experiment;

/// Slots the network chain probe steps and verifies.
const NETWORK_SLOTS: u64 = 512;
/// Random instances the crossover probe verifies.
const CROSSOVER_SLOTS: u64 = 128;

/// A passed check: which probe ran and how many invariant bundles it
/// evaluated.
#[derive(Clone, Debug)]
pub struct CheckSummary {
    /// Probe description for the stderr report.
    pub probe: String,
    /// Invariant evaluations performed.
    pub checks: u64,
}

/// A failed check: the self-contained case that reproduces it and the
/// first violation observed.
#[derive(Clone, Debug)]
pub struct CheckFailure {
    /// Probe description for the stderr report.
    pub probe: String,
    /// The failing case, ready to serialise as `replay.json`.
    pub case: ReplayCase,
    /// What went wrong, and on which slot.
    pub violation: Violation,
}

/// The invariant probe an experiment runs under `--check`: the shape of
/// scheduler, load and network that its render stresses hardest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// PIM run to completion on 16 ports, demanding maximality
    /// (iteration-count studies).
    ToCompletion,
    /// The same at n = 64 for 256 slots: the O(log N) bound is about
    /// large switches.
    ToCompletion64,
    /// PIM(4) at full load with 16-cell pair buffers (saturation studies).
    Saturated,
    /// PIM(4) with the round-robin accept policy.
    RoundRobinAccept,
    /// PIM(4) with the lowest-index accept policy.
    LowestAccept,
    /// The default: PIM(4) under bursty load with corruption faults.
    Pim4,
    /// A 3-switch chain with a CBR reservation, verified slot by slot.
    NetworkChain,
    /// The queue-aware schedulers (MWM, SERENADE), each judged against its
    /// declared contract.
    Crossover,
}

/// Runs `experiment`'s invariant probe at `seed`.
///
/// `skew` threads the hidden accept-phase bug hook through to the probe's
/// scheduler (`Pim::debug_set_accept_skew`); it is 0 in every real run
/// and non-zero only in checker self-tests and the `AN2_CHECK_SKEW`
/// demonstration path.
///
/// # Errors
///
/// Returns the failing case and first violation if any invariant breaks.
pub fn check_experiment(
    experiment: &Experiment,
    seed: u64,
    skew: usize,
) -> Result<CheckSummary, Box<CheckFailure>> {
    match experiment.probe {
        Probe::NetworkChain => network_probe(experiment.name, seed),
        Probe::Crossover => crossover_probe(seed),
        probe => scheduler_probe(probe, seed, skew),
    }
}

/// The probe matched to the `crossover` experiment: the queue-aware
/// schedulers it sweeps, each judged against its own declared contract
/// by `an2_verify::contract` on freshly seeded random instances.
///
/// Per instance, four decisions: MWM under LQF and under OCF weights
/// (maximal, maximum ⟨Q,M⟩ against the brute force, at least half the
/// maximum), MWM with one input and one output failed (the same over the
/// healthy ports, and no failed port matched), and SERENADE's merge
/// (maximal proposals, merged weight ≥ both). One check is one decision.
///
/// Violations are reported through the same [`Violation`] channel as the
/// PIM probes; the emitted `replay.json` carries the default scheduler
/// case annotated with the failure (the instances here are fully
/// determined by the seed, so the annotation suffices to reproduce).
fn crossover_probe(seed: u64) -> Result<CheckSummary, Box<CheckFailure>> {
    use an2_sched::rng::{SelectRng, Xoshiro256};
    use an2_sched::{Mwm, PortMask, RequestMatrix, Scheduler, Serenade, WeightPolicy};
    use an2_verify::contract::{contract_violations, Instance};

    let probe = "mwm+serenade n=16 (optimality, masked maximality, merge)".to_owned();
    let n = 16;
    let mut rng = Xoshiro256::seed_from(seed);
    let mut violations = Vec::new();
    let mut checks = 0u64;
    for slot in 0..CROSSOVER_SLOTS {
        let density = rng.uniform_f64();
        let reqs = RequestMatrix::random(n, density, &mut rng);
        let weights: Vec<Vec<u32>> = (0..n)
            .map(|_| (0..n).map(|_| 1 + rng.index(64) as u32).collect())
            .collect();
        let mut mask = PortMask::all(n);
        mask.fail_input(rng.index(n));
        mask.fail_output(rng.index(n));
        let weight = |i: usize, j: usize| weights[i][j];
        let plain = Instance {
            requests: &reqs,
            mask: None,
            weight: &weight,
        };
        let masked = Instance {
            mask: Some(&mask),
            ..plain
        };
        let mwms = [
            (Mwm::new(n, WeightPolicy::Lqf), &plain),
            (Mwm::new(n, WeightPolicy::Ocf), &plain),
            (Mwm::lqf(n), &masked),
        ];
        for (mut mwm, inst) in mwms {
            inst.observe(&mut mwm);
            if let Some(&mask) = inst.mask {
                mwm.set_port_mask(mask);
            }
            let m = mwm.schedule(&reqs);
            contract_violations(slot, mwm.contract(), inst, &m, None, &mut violations);
        }
        let mut ser = Serenade::new(n, seed ^ slot);
        plain.observe(&mut ser);
        let (a, b, merged) = ser.schedule_with_proposals(&reqs);
        contract_violations(slot, ser.contract(), &plain, &merged, Some([&a, &b]), &mut violations);
        checks += 4;
        if let Some(violation) = violations.into_iter().next() {
            let mut case = probe_case(Probe::Crossover, seed, 0);
            case.annotate(&violation);
            return Err(Box::new(CheckFailure {
                probe,
                case,
                violation,
            }));
        }
        violations = Vec::new();
    }
    Ok(CheckSummary { probe, checks })
}

/// The case `probe` replays from: the scheduler probes run it, and the
/// network and crossover probes, which have no `ReplayCase` encoding of
/// their own, emit it annotated with their failure so `replay` still has
/// a deterministic artefact.
fn probe_case(probe: Probe, seed: u64, skew: usize) -> ReplayCase {
    let mut case = ReplayCase::new(16, seed, 0.7, 512);
    case.accept_skew = skew;
    match probe {
        Probe::ToCompletion => {
            case.iterations = case.n;
            case.expect_maximal = true;
        }
        Probe::ToCompletion64 => {
            case.n = 64;
            case.active_ports = 64;
            case.iterations = case.n;
            case.expect_maximal = true;
            case.slots = 256;
        }
        Probe::Saturated => {
            case.load = 1.0;
            case.pair_capacity = Some(16);
        }
        Probe::RoundRobinAccept => case.accept = "round-robin".to_owned(),
        Probe::LowestAccept => case.accept = "lowest".to_owned(),
        Probe::Pim4 => {
            case.pair_capacity = Some(32);
            case.corrupt = (0..32).map(|k| (k * 7 % 512, (k % 16) as usize)).collect();
        }
        Probe::NetworkChain => return ReplayCase::new(4, seed, 0.5, NETWORK_SLOTS),
        Probe::Crossover => return ReplayCase::new(16, seed, 0.7, CROSSOVER_SLOTS),
    }
    case
}

fn scheduler_probe(
    probe: Probe,
    seed: u64,
    skew: usize,
) -> Result<CheckSummary, Box<CheckFailure>> {
    let case = probe_case(probe, seed, skew);
    let probe = format!(
        "pim n={} accept={} iters={} load={}",
        case.n,
        case.accept,
        case.iterations,
        case.load
    );
    let outcome = run_case(&case);
    match outcome.violation {
        None => Ok(CheckSummary {
            probe,
            checks: outcome.checks,
        }),
        Some(violation) => {
            let mut case = case;
            case.annotate(&violation);
            Err(Box::new(CheckFailure {
                probe,
                case,
                violation,
            }))
        }
    }
}

/// A 3-switch chain with one CBR reservation and one datagram flow,
/// verified after every slot: frame schedules stay consistent, VOQ
/// occupancy respects capacity, and cells are conserved end-to-end.
fn network_probe(name: &str, seed: u64) -> Result<CheckSummary, Box<CheckFailure>> {
    let slots = NETWORK_SLOTS;
    let mut net = Network::new(seed);
    let s0 = net.add_switch(4);
    let s1 = net.add_switch(4);
    let s2 = net.add_switch(4);
    net.connect(s0, OutputPort::new(2), s1, InputPort::new(0), 1)
        .expect("link");
    net.connect(s1, OutputPort::new(2), s2, InputPort::new(0), 1)
        .expect("link");
    let cbr = FlowId(1);
    let datagram = FlowId(2);
    for sw in [s0, s1] {
        net.add_route(sw, cbr, OutputPort::new(2)).expect("route");
        net.add_route(sw, datagram, OutputPort::new(2)).expect("route");
    }
    for f in [cbr, datagram] {
        net.add_route(s2, f, OutputPort::new(0)).expect("route");
    }
    net.add_source(s0, InputPort::new(2), vec![cbr], 0.5).expect("source");
    net.add_source(s0, InputPort::new(3), vec![datagram], 0.9)
        .expect("source");
    for sw in [s0, s1, s2] {
        net.set_buffer_capacity(sw, Some(64)).expect("capacity");
        net.enable_cbr(sw, 8).expect("cbr");
    }
    net.reserve_flow(cbr, 4).expect("reservation");
    net.validate().expect("complete configuration");

    let probe = format!("network chain (3 switches, CBR frame 8, {slots} slots)");
    for slot in 0..slots {
        net.step();
        if let Err(detail) = net.verify_invariants() {
            let violation = Violation {
                slot,
                rule: "network",
                detail: format!("{name}: {detail}"),
            };
            let mut case = probe_case(Probe::NetworkChain, seed, 0);
            case.annotate(&violation);
            return Err(Box::new(CheckFailure {
                probe,
                case,
                violation,
            }));
        }
    }
    Ok(CheckSummary {
        probe,
        checks: slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{self, EXPERIMENTS};

    #[test]
    fn every_experiment_probe_passes_clean() {
        for experiment in EXPERIMENTS {
            let name = experiment.name;
            let summary = check_experiment(experiment, 0xA52_1992, 0)
                .unwrap_or_else(|f| panic!("{name}: {}", f.violation));
            assert!(summary.checks > 0, "{name} ran no checks");
        }
    }

    #[test]
    fn every_capture_a_probe_writes_parses_back() {
        // The replay reader's bounds (iterations and active ports in
        // 1..=n, the slot cap) must admit every case a probe can emit.
        for experiment in EXPERIMENTS {
            let mut case = probe_case(experiment.probe, 0xA52_1992, 1);
            case.annotate(&Violation {
                slot: case.slots - 1,
                rule: "respects",
                detail: String::new(),
            });
            let parsed = ReplayCase::from_json(&case.to_json());
            assert_eq!(parsed.as_ref(), Ok(&case), "{}", experiment.name);
        }
    }

    #[test]
    fn seeded_bug_fails_the_check_and_emits_a_replayable_case() {
        let fig3 = experiments::find("fig3").expect("fig3 row");
        let failure = check_experiment(fig3, 0xA52_1992, 1)
            .expect_err("a skewed accept phase must fail the probe");
        assert_eq!(failure.violation.rule, "respects");
        // The emitted case is self-contained: parsing its JSON back and
        // re-running reproduces the same failing slot.
        let json = failure.case.to_json();
        let parsed = ReplayCase::from_json(&json).expect("replay.json parses");
        let replayed = run_case(&parsed).violation.expect("still fails");
        assert_eq!(replayed.slot, failure.violation.slot);
    }
}
