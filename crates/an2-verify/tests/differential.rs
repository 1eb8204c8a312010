//! Differential oracles: every optimised implementation re-checked
//! against a naive reference on random instances, and simulated delays
//! cross-checked against the paper's analytic formulas.

use an2_sched::islip::WideRoundRobinMatching;
use an2_sched::maximum::hopcroft_karp;
use an2_sched::pim::{AcceptPolicy, IterationLimit};
use an2_sched::rng::{SelectRng, Xoshiro256};
use an2_sched::{
    FrameSchedule, InputPort, MatchingN, OutputPort, Pim, PimN, PortMaskN, RequestMatrix,
    RequestMatrixN, Scheduler, WidePim, WideRequestMatrix,
};
use an2_sim::analytic::{hol_saturation_throughput, output_queueing_mean_delay};
use an2_sched::fifo::FifoPriority;
use an2_sim::fifo_switch::FifoSwitch;
use an2_sim::output_queued::OutputQueuedSwitch;
use an2_sim::sim::{simulate, SimConfig};
use an2_sim::traffic::RateMatrixTraffic;
use an2_sched::{Mwm, Serenade, WeightPolicy};
use an2_verify::oracle::{
    brute_force_max_weight_matching, frame_demand_feasible, kuhn_maximum_matching_size,
    within_confidence, ReferencePim, ReferencePimN, ReferenceRoundRobin, WideReferencePim,
};
use proptest::prelude::*;

/// Draws an identical instance in both representations.
fn random_instance(n: usize, density: f64, rng: &mut Xoshiro256) -> (RequestMatrix, Vec<Vec<bool>>) {
    let bools: Vec<Vec<bool>> = (0..n)
        .map(|_| (0..n).map(|_| rng.bernoulli(density)).collect())
        .collect();
    let reqs = RequestMatrix::from_fn(n, |i, j| bools[i][j]);
    (reqs, bools)
}

/// The core differential: the optimised `Pim` and the naive
/// `ReferencePim`, seeded identically, must produce *identical* matchings
/// slot after slot — for every accept policy and iteration limit, across
/// densities from empty to full. Any divergence convicts one of them.
#[test]
fn optimised_pim_equals_reference_pim_exactly() {
    let n = 16;
    let policies = [
        AcceptPolicy::Random,
        AcceptPolicy::RoundRobin,
        AcceptPolicy::LowestIndex,
    ];
    let limits = [
        IterationLimit::Fixed(1),
        IterationLimit::Fixed(4),
        IterationLimit::ToCompletion,
    ];
    for &policy in &policies {
        for &limit in &limits {
            let seed = 0xD1FF ^ (policy as u64) << 8;
            let mut fast = Pim::with_options(n, seed, limit, policy);
            let mut slow = ReferencePim::with_options(n, seed, limit, policy);
            let mut traffic_rng = Xoshiro256::seed_from(0xABC);
            let densities = [0.1, 0.5, 0.9, 1.0, 0.0];
            for slot in 0..200u64 {
                let density = densities[(slot as usize) % densities.len()];
                let (reqs, bools) = random_instance(n, density, &mut traffic_rng);
                let m = fast.schedule(&reqs);
                let r = slow.schedule(&bools);
                for (i, ri) in r.iter().enumerate() {
                    assert_eq!(
                        m.output_of(InputPort::new(i)).map(|j| j.index()),
                        *ri,
                        "policy {policy:?} limit {limit:?} slot {slot} input {i} diverged"
                    );
                }
            }
        }
    }
}

/// Hopcroft–Karp (word-parallel bitset rewrite) vs Kuhn (textbook
/// recursion): identical maximum-matching size on every instance.
#[test]
fn hopcroft_karp_matches_kuhn_sizes() {
    let mut rng = Xoshiro256::seed_from(0x7357);
    for trial in 0..300u64 {
        let n = 1 + (rng.index(24));
        let density = rng.uniform_f64();
        let (reqs, _) = random_instance(n, density, &mut rng);
        let hk = hopcroft_karp(&reqs);
        assert!(hk.respects(&reqs));
        assert!(hk.is_maximal(&reqs));
        assert_eq!(
            hk.len(),
            kuhn_maximum_matching_size(&reqs),
            "trial {trial}: n={n} density={density}"
        );
    }
}

/// The incremental Slepian–Duguid insert vs exhaustive backtracking:
/// a random demand matrix is admitted by `FrameSchedule` exactly when the
/// brute-force search can decompose it into frame slots — and both agree
/// with the load condition the theorem predicts.
#[test]
fn frame_schedule_matches_brute_force_feasibility() {
    let mut rng = Xoshiro256::seed_from(0xF3A5);
    for trial in 0..150u64 {
        let n = 2 + rng.index(3); // 2..=4
        let frame_len = 2 + rng.index(3); // 2..=4
        let demand: Vec<Vec<usize>> = (0..n)
            .map(|_| (0..n).map(|_| rng.index(frame_len + 1)).collect())
            .collect();

        let max_load = (0..n)
            .map(|k| {
                let row: usize = demand[k].iter().sum();
                let col: usize = (0..n).map(|i| demand[i][k]).sum();
                row.max(col)
            })
            .max()
            .unwrap();
        let feasible_by_load = max_load <= frame_len;

        let feasible_by_search = frame_demand_feasible(&demand, frame_len);
        assert_eq!(
            feasible_by_search, feasible_by_load,
            "trial {trial}: brute force disagrees with the Slepian–Duguid load condition"
        );

        let mut fs = FrameSchedule::new(n, frame_len);
        let mut admitted_all = true;
        'reserve: for (i, row) in demand.iter().enumerate() {
            for (j, &cells) in row.iter().enumerate() {
                if cells > 0
                    && fs
                        .reserve(InputPort::new(i), OutputPort::new(j), cells)
                        .is_err()
                {
                    admitted_all = false;
                    break 'reserve;
                }
            }
        }
        assert_eq!(
            admitted_all, feasible_by_search,
            "trial {trial}: FrameSchedule admission disagrees with brute force"
        );
        if admitted_all {
            assert!(fs.verify(), "trial {trial}: admitted schedule inconsistent");
        }
    }
}

/// Builds an MWM scheduler whose effective Q-matrix weight for each
/// requested pair is exactly `weights[i][j]` (≥ 1), by feeding the
/// policy-appropriate observation: LQF weighs the depth, OCF weighs
/// `age + 1`.
fn weighted_mwm(n: usize, policy: WeightPolicy, reqs: &RequestMatrix, weights: &[Vec<u32>]) -> Mwm {
    let mut s = Mwm::new(n, policy);
    for (i, j) in reqs.pairs() {
        let w = weights[i.index()][j.index()];
        match policy {
            WeightPolicy::Lqf => s.observe_queue(i, j, w, 0),
            WeightPolicy::Ocf => s.observe_queue(i, j, 0, w - 1),
        }
    }
    s
}

/// Runs one MWM-vs-brute-force differential: the solver's matching must
/// be legal, maximal over the requests, and achieve **exactly** the
/// DP-optimal total weight.
fn assert_mwm_optimal(
    n: usize,
    policy: WeightPolicy,
    reqs: &RequestMatrix,
    weights: &[Vec<u32>],
    label: &str,
) {
    let mut s = weighted_mwm(n, policy, reqs, weights);
    let m = s.schedule(reqs);
    assert!(m.respects(reqs), "{label}: illegal matching");
    assert!(m.is_maximal(reqs), "{label}: non-maximal matching");
    let achieved: i64 = m
        .pairs()
        .map(|(i, j)| i64::from(weights[i.index()][j.index()]))
        .sum();
    let optimal = brute_force_max_weight_matching(reqs, &|i, j| i64::from(weights[i][j]));
    assert_eq!(achieved, optimal, "{label}: achieved {achieved} vs optimal {optimal}");
}

/// The MWM differential, exhaustive regime: **every** request matrix on
/// switches up to 3×3 (2^9 patterns), under the all-ones weighting and a
/// deterministic non-uniform weighting, for both LQF and OCF. Beyond
/// N=3 exhaustion is astronomically infeasible (2^(N²) patterns); the
/// random tests below cover the larger radii.
#[test]
fn mwm_matches_brute_force_on_every_tiny_request_matrix() {
    for n in 1usize..=3 {
        let cells = n * n;
        for pattern in 0u32..(1 << cells) {
            let reqs = RequestMatrix::from_fn(n, |i, j| pattern & (1 << (i * n + j)) != 0);
            let flat: Vec<Vec<u32>> = (0..n)
                .map(|i| (0..n).map(|j| ((i * 7 + j * 13) % 9 + 1) as u32).collect())
                .collect();
            let ones = vec![vec![1u32; n]; n];
            for weights in [&ones, &flat] {
                for policy in [WeightPolicy::Lqf, WeightPolicy::Ocf] {
                    let label = format!("n={n} pattern={pattern:#b} policy={policy:?}");
                    assert_mwm_optimal(n, policy, &reqs, weights, &label);
                }
            }
        }
    }
}

/// The MWM differential, dense-random regime: ≥ 1000 random (pattern,
/// weight) instances across N = 4..=8 — per policy — spanning densities
/// from near-empty to full.
#[test]
fn mwm_matches_brute_force_on_random_small_switches() {
    let mut rng = Xoshiro256::seed_from(0x3A11_1992);
    for policy in [WeightPolicy::Lqf, WeightPolicy::Ocf] {
        for n in 4usize..=8 {
            for trial in 0..250u64 {
                let density = rng.uniform_f64();
                let reqs = RequestMatrix::random(n, density, &mut rng);
                let weights: Vec<Vec<u32>> = (0..n)
                    .map(|_| (0..n).map(|_| 1 + rng.index(16) as u32).collect())
                    .collect();
                let label = format!("n={n} trial={trial} policy={policy:?}");
                assert_mwm_optimal(n, policy, &reqs, &weights, &label);
            }
        }
    }
}

/// The MWM differential, sparse-wide regime: ≥ 1000 random instances at
/// radii up to N=32. The oracle's DP is exponential in the number of
/// *distinct requested columns*, so instances bound that footprint (≤ 10
/// columns) while rows, weights, and the column choice stay random —
/// exactly the sparse shape the wide engine schedules.
#[test]
fn mwm_matches_brute_force_on_sparse_wide_switches() {
    let mut rng = Xoshiro256::seed_from(0x3A11_0032);
    for trial in 0..1000u64 {
        let policy = if trial % 2 == 0 { WeightPolicy::Lqf } else { WeightPolicy::Ocf };
        let n = 9 + rng.index(24); // 9..=32
        let footprint = 1 + rng.index(10);
        let cols: Vec<usize> = (0..footprint).map(|_| rng.index(n)).collect();
        let reqs = RequestMatrix::from_fn(n, |_, j| {
            cols.contains(&j) && rng.bernoulli(0.35)
        });
        let weights: Vec<Vec<u32>> = (0..n)
            .map(|_| (0..n).map(|_| 1 + rng.index(100) as u32).collect())
            .collect();
        let label = format!("n={n} trial={trial} policy={policy:?}");
        assert_mwm_optimal(n, policy, &reqs, &weights, &label);
    }
}

/// SERENADE's merge contract on every case: both random proposals are
/// valid maximal matchings, the merged result is a valid matching, and
/// its Q-matrix weight weakly improves on **both** inputs.
#[test]
fn serenade_merge_is_valid_and_weakly_improving() {
    let mut rng = Xoshiro256::seed_from(0x5E3E_1992);
    for trial in 0..500u64 {
        let n = 2 + rng.index(31); // 2..=32
        let density = rng.uniform_f64();
        let reqs = RequestMatrix::random(n, density, &mut rng);
        let mut s = Serenade::new(n, trial);
        for (i, j) in reqs.pairs() {
            s.observe_queue(i, j, 1 + rng.index(32) as u32, 0);
        }
        let (a, b, merged) = s.schedule_with_proposals(&reqs);
        for (m, which) in [(&a, "A"), (&b, "B")] {
            assert!(m.respects(&reqs), "trial {trial}: proposal {which} illegal");
            assert!(m.is_maximal(&reqs), "trial {trial}: proposal {which} not maximal");
        }
        assert!(merged.respects(&reqs), "trial {trial}: merge illegal");
        let (wa, wb, wm) = (s.weight_of(&a), s.weight_of(&b), s.weight_of(&merged));
        assert!(
            wm >= wa.max(wb),
            "trial {trial}: merged weight {wm} < max({wa}, {wb})"
        );
    }
}

/// Simulated perfect-output-queueing delay vs the paper's M/D/1-based
/// closed form, within confidence bounds.
#[test]
fn output_queueing_delay_matches_analytic_formula() {
    let n = 16;
    let cfg = SimConfig {
        warmup_slots: 4_000,
        measure_slots: 30_000,
    };
    for rho in [0.4, 0.7, 0.9] {
        let mut sw = OutputQueuedSwitch::new(n);
        let mut t = RateMatrixTraffic::uniform(n, rho, 0x0DD5);
        let measured = simulate(&mut sw, &mut t, cfg).delay.mean();
        let predicted = output_queueing_mean_delay(n, rho);
        assert!(
            within_confidence(measured, predicted, 0.08, 0.05),
            "rho={rho}: simulated {measured} vs analytic {predicted}"
        );
    }
}

/// Simulated FIFO saturation throughput vs Karol's exact finite-N values.
#[test]
fn fifo_saturation_matches_karol_values() {
    let cfg = SimConfig {
        warmup_slots: 4_000,
        measure_slots: 30_000,
    };
    for n in [2usize, 4, 8] {
        let mut sw = FifoSwitch::new(n, FifoPriority::Random, 0xF1F0);
        let mut t = RateMatrixTraffic::uniform(n, 1.0, 0xF1F1);
        let measured = simulate(&mut sw, &mut t, cfg).mean_output_utilization();
        let predicted = hol_saturation_throughput(n).unwrap();
        assert!(
            within_confidence(measured, predicted, 0.03, 0.0),
            "N={n}: simulated saturation {measured} vs Karol {predicted}"
        );
    }
}

/// The sparse production kernels vs the dense plain-vector oracles at the
/// full wide radix. `schedule` prunes the grant phase to the outputs that
/// actually hold requests (per-column nonzero-word successor lookup,
/// hybrid eligible assembly); the oracles sweep every output and input,
/// so any divergence convicts one side — in matchings *and* in hidden
/// state (round-robin pointers, per-port RNG streams), which is why the
/// run is long and the schedulers are never reseeded mid-run.
#[test]
fn sparse_wide_kernels_equal_dense_oracles_exactly() {
    let n = 1024;
    let mut islip = WideRoundRobinMatching::islip(n, 4);
    let mut islip_ref = ReferenceRoundRobin::islip(n, 4);
    let mut rrm = WideRoundRobinMatching::rrm(n, 4);
    let mut rrm_ref = ReferenceRoundRobin::rrm(n, 4);
    let mut pim = WidePim::new(n, 0x5BA2_1992);
    let mut pim_ref = WideReferencePim::new(n, 0x5BA2_1992);
    let mut traffic_rng = Xoshiro256::seed_from(0x5AC7);
    // Sweep the density regimes the sparse path specializes: near-empty
    // (active-set pruning dominates), light (the headline N=1024 operating
    // point), and moderate (the hybrid assembly's dense branch).
    let densities = [0.0, 0.0001, 0.001, 0.01, 0.2];
    for slot in 0..40u64 {
        let density = densities[(slot as usize) % densities.len()];
        let reqs = WideRequestMatrix::random(n, density, &mut traffic_rng);
        let plain = bools(&reqs);
        assert_eq!(
            outputs(&islip.schedule(&reqs)),
            islip_ref.schedule(&plain),
            "islip diverged at slot {slot} density {density}"
        );
        assert_eq!(
            islip.pointers(),
            islip_ref.pointers(),
            "islip pointers, slot {slot}"
        );
        assert_eq!(
            outputs(&rrm.schedule(&reqs)),
            rrm_ref.schedule(&plain),
            "rrm diverged at slot {slot} density {density}"
        );
        assert_eq!(
            rrm.pointers(),
            rrm_ref.pointers(),
            "rrm pointers, slot {slot}"
        );
        assert_eq!(
            outputs(&pim.schedule(&reqs)),
            pim_ref.schedule(&plain),
            "pim diverged at slot {slot} density {density}"
        );
    }
}

// ---- Kernel parity properties -------------------------------------------
// The production schedulers run one sparse kernel each; these properties
// pin it to the dense plain-vector oracles over random request matrices,
// iteration budgets and random port fault masks, at widths up to the full
// 1024-port radix. The schedulers keep their state across the slots of a
// run, so a hidden drift (an RNG draw too many, a pointer moved in the
// wrong iteration) fails a later slot even when the first one agrees.

/// Both representations of one request matrix: the plain rows the
/// oracles read.
fn bools<const W: usize>(reqs: &RequestMatrixN<W>) -> Vec<Vec<bool>> {
    let n = reqs.n();
    (0..n)
        .map(|i| {
            let mut row = vec![false; n];
            for j in reqs.row(InputPort::new(i)).iter() {
                row[j] = true;
            }
            row
        })
        .collect()
}

/// A matching in the oracles' shape: `out[i]` is input `i`'s output.
fn outputs<const W: usize>(m: &MatchingN<W>) -> Vec<Option<usize>> {
    (0..m.n())
        .map(|i| m.output_of(InputPort::new(i)).map(|j| j.index()))
        .collect()
}

/// Random request matrices from the production generator, sized up to
/// the full wide radix. Generating 1024×1024 edge lists through
/// proptest's own collections would dominate the run, so the strategy
/// draws only (n, density, seed) and defers the Bernoulli fill to
/// [`RequestMatrixN::random`].
fn matrix_params() -> impl Strategy<Value = (usize, f64, u64)> {
    (
        prop_oneof![Just(16usize), Just(70), Just(256), Just(1024)],
        prop_oneof![Just(0.001f64), Just(0.01), Just(0.1), Just(0.6)],
        any::<u64>(),
    )
}

/// A fault mask failing a few random inputs and outputs (possibly none).
fn masked<const W: usize>(n: usize, seed: u64) -> PortMaskN<W> {
    let mut mask = PortMaskN::<W>::all(n);
    let mut rng = Xoshiro256::seed_from(seed);
    for _ in 0..rng.index(4) {
        mask.fail_input(rng.index(n));
        mask.fail_output(rng.index(n));
    }
    mask
}

proptest! {
    /// Wide PIM's fused loop (sparse eligible assembly, rejection grant
    /// draws) against `WideReferencePim`, sharing per-port RNG state
    /// across slots: the matchings — and therefore every random draw —
    /// must agree exactly.
    #[test]
    fn pim_matches_reference_pim_under_masks(
        params in matrix_params(),
        iters in 1usize..=5,
        sched_seed in any::<u64>(),
        mask_seed in any::<u64>(),
        use_mask in proptest::bool::ANY,
    ) {
        let (n, density, seed) = params;
        let mut pool_rng = Xoshiro256::seed_from(seed);
        let limit = IterationLimit::Fixed(iters);
        let mut pim = WidePim::with_options(n, sched_seed, limit, AcceptPolicy::Random);
        let mut oracle =
            WideReferencePim::with_options(n, sched_seed, limit, AcceptPolicy::Random);
        if use_mask {
            let mask = masked(n, mask_seed);
            pim.set_port_mask(mask);
            oracle.set_port_mask(&mask);
        }
        for slot in 0..4 {
            let reqs = RequestMatrixN::<16>::random(n, density, &mut pool_rng);
            prop_assert_eq!(
                outputs(&pim.schedule(&reqs)),
                oracle.schedule(&bools(&reqs)),
                "n {} density {} slot {}", n, density, slot
            );
        }
    }

    /// iSLIP and RRM: the sparse `schedule` against `ReferenceRoundRobin`,
    /// matchings and both pointer vectors after every slot.
    #[test]
    fn islip_and_rrm_match_reference_round_robin(
        params in matrix_params(),
        iters in 1usize..=4,
        is_islip in proptest::bool::ANY,
        mask_seed in any::<u64>(),
        use_mask in proptest::bool::ANY,
    ) {
        let (n, density, seed) = params;
        let mut pool_rng = Xoshiro256::seed_from(seed);
        let (mut sched, mut oracle) = if is_islip {
            (WideRoundRobinMatching::islip(n, iters), ReferenceRoundRobin::islip(n, iters))
        } else {
            (WideRoundRobinMatching::rrm(n, iters), ReferenceRoundRobin::rrm(n, iters))
        };
        if use_mask {
            let mask = masked(n, mask_seed);
            sched.set_port_mask(mask);
            oracle.set_port_mask(&mask);
        }
        for slot in 0..4 {
            let reqs = RequestMatrixN::<16>::random(n, density, &mut pool_rng);
            prop_assert_eq!(
                outputs(&sched.schedule(&reqs)),
                oracle.schedule(&bools(&reqs)),
                "n {} density {} slot {}", n, density, slot
            );
            prop_assert_eq!(sched.pointers(), oracle.pointers(), "pointers after slot {}", slot);
        }
    }

    /// Every PIM entry point is the same loop: clones driven through
    /// `schedule`, `schedule_with_stats` and `schedule_traced` match
    /// `ReferencePim` in every slot, at the narrow and the wide width,
    /// for every accept policy and iteration limit, masked or not — and
    /// the statistics and trace records they return describe that
    /// matching consistently.
    #[test]
    fn pim_entry_points_match_reference_and_record_consistently(
        params in matrix_params(),
        wide in proptest::bool::ANY,
        policy in 0usize..3,
        iters in 0usize..=5,
        sched_seed in any::<u64>(),
        mask_seed in proptest::option::of(any::<u64>()),
    ) {
        let (n, density, seed) = params;
        let policy = [AcceptPolicy::Random, AcceptPolicy::RoundRobin, AcceptPolicy::LowestIndex][policy];
        let limit = match iters {
            0 => IterationLimit::ToCompletion,
            k => IterationLimit::Fixed(k),
        };
        if wide || n > 256 {
            check_entry_points::<16>(n, density, seed, policy, limit, sched_seed, mask_seed);
        } else {
            check_entry_points::<4>(n, density, seed, policy, limit, sched_seed, mask_seed);
        }
    }
}

/// The body of `pim_entry_points_match_reference_and_record_consistently`
/// at one width.
fn check_entry_points<const W: usize>(
    n: usize,
    density: f64,
    seed: u64,
    policy: AcceptPolicy,
    limit: IterationLimit,
    sched_seed: u64,
    mask_seed: Option<u64>,
) {
    let mut plain = PimN::<Xoshiro256, W>::with_options(n, sched_seed, limit, policy);
    let mut oracle = ReferencePimN::<W>::with_options(n, sched_seed, limit, policy);
    if let Some(mask_seed) = mask_seed {
        let mask = masked::<W>(n, mask_seed);
        plain.set_port_mask(mask);
        oracle.set_port_mask(&mask);
    }
    let mut with_stats = plain.clone();
    let mut traced = plain.clone();
    let mut pool_rng = Xoshiro256::seed_from(seed);
    for slot in 0..4 {
        let reqs = RequestMatrixN::<W>::random(n, density, &mut pool_rng);
        let want = oracle.schedule(&bools(&reqs));
        let ctx = format!("n {n} W {W} {policy:?} {limit:?} density {density} slot {slot}");
        assert_eq!(outputs(&plain.schedule(&reqs)), want, "schedule: {ctx}");
        let (m, stats) = with_stats.schedule_with_stats(&reqs);
        assert_eq!(outputs(&m), want, "schedule_with_stats: {ctx}");
        let mut records = Vec::new();
        let (m, traced_stats) = traced.schedule_traced(&reqs, &mut |r| records.push(r.clone()));
        assert_eq!(outputs(&m), want, "schedule_traced: {ctx}");
        assert_eq!(traced_stats, stats, "{ctx}");

        assert_eq!(stats.iterations_run, records.len(), "{ctx}");
        assert_eq!(stats.matches_after.len(), stats.iterations_run, "{ctx}");
        assert!(
            stats.matches_after.windows(2).all(|w| w[0] <= w[1]),
            "{ctx}"
        );
        assert_eq!(
            stats.matches_after.last().copied().unwrap_or(0),
            m.len(),
            "{ctx}"
        );
        let mut accepted = Vec::new();
        for (k, r) in records.iter().enumerate() {
            assert_eq!(r.iteration, k + 1, "{ctx}");
            assert_eq!(r.unresolved_after, stats.unresolved_after[k], "{ctx}");
            for &(i, j) in &r.accepts {
                assert!(
                    r.grants[i.index()].contains(j.index()),
                    "{ctx}: accept outside grants"
                );
            }
            for (i, grants) in r.grants.iter().enumerate() {
                for j in grants.iter() {
                    assert!(r.requests[j].contains(i), "{ctx}: grant outside requests");
                }
            }
            accepted.extend(r.accepts.iter().copied());
        }
        accepted.sort();
        let pairs: Vec<_> = m.pairs().collect();
        assert_eq!(accepted, pairs, "{ctx}: accepts are not the matching");
    }
}

/// iSLIP and RRM against `ReferenceRoundRobin` over a fixed trial grid:
/// every radix class at one density each, including the full 1024-port
/// all-requests case, with matchings and pointers compared per slot.
#[test]
fn round_robin_kernel_matches_reference_pointer_for_pointer() {
    let mut root = Xoshiro256::seed_from(0x51A9);
    for trial in 0..24 {
        let n = [16, 70, 256, 1024][trial % 4];
        let p = [0.02, 0.1, 0.5, 1.0][trial % 4];
        let reqs = WideRequestMatrix::random(n, p, &mut root);
        let plain = bools(&reqs);
        let (mut sched, mut oracle) = if trial % 2 == 0 {
            (
                WideRoundRobinMatching::islip(n, 4),
                ReferenceRoundRobin::islip(n, 4),
            )
        } else {
            (
                WideRoundRobinMatching::rrm(n, 4),
                ReferenceRoundRobin::rrm(n, 4),
            )
        };
        for slot in 0..6 {
            assert_eq!(
                outputs(&sched.schedule(&reqs)),
                oracle.schedule(&plain),
                "trial {trial} slot {slot}"
            );
            assert_eq!(
                sched.pointers(),
                oracle.pointers(),
                "trial {trial} slot {slot}"
            );
        }
    }
}
