//! Differential oracles: every optimised implementation re-checked
//! against a naive reference on random instances, and simulated delays
//! cross-checked against the paper's analytic formulas. What every
//! scheduler promises per matching (MWM's brute-force optimum, SERENADE's
//! merge, maximality) is checked by `tests/contracts.rs`.

use an2_sched::islip::{RoundRobinMatchingN, WideRoundRobinMatching};
use an2_sched::maximum::{hopcroft_karp, MaximumMatchingN};
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
use an2_sched::{MwmN, SerenadeN};
use an2_verify::oracle::{
    frame_demand_feasible, kuhn_maximum_matching_size,
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

proptest! {
    /// The dispatched kernel: a four- and a sixteen-word `PimN` run their
    /// loop on one-word sets at n <= 64 and on all their words above, and
    /// on both paths every entry point — `schedule`, `schedule_from` from
    /// a non-empty initial matching, `schedule_with_stats` and
    /// `schedule_traced` — decides draw for draw as `ReferencePimN<W>`,
    /// for every accept policy and iteration limit, masked or not. The
    /// sixteen-word oracle keeps its rejection draws at n <= 64, so this
    /// also pins that the draw scheme follows `W`, not the loop's words.
    #[test]
    fn dispatched_pim_kernel_matches_reference_on_both_paths(
        n in prop_oneof![1usize..=64, 65usize..=256],
        density in prop_oneof![Just(0.02f64), Just(0.2), Just(0.7)],
        wide in proptest::bool::ANY,
        policy in 0usize..3,
        iters in 0usize..=5,
        seed in any::<u64>(),
        sched_seed in any::<u64>(),
        mask_seed in proptest::option::of(any::<u64>()),
    ) {
        let policy = [AcceptPolicy::Random, AcceptPolicy::RoundRobin, AcceptPolicy::LowestIndex][policy];
        let limit = match iters {
            0 => IterationLimit::ToCompletion,
            k => IterationLimit::Fixed(k),
        };
        if wide {
            check_entry_points::<16>(n, density, seed, policy, limit, sched_seed, mask_seed);
        } else {
            check_entry_points::<4>(n, density, seed, policy, limit, sched_seed, mask_seed);
        }
    }
}

/// Every PIM entry point at one width against `ReferencePimN<W>`, over
/// four slots, with the statistics and trace records checked against the
/// matching they describe.
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
    let (mut from, mut from_oracle) = (plain.clone(), oracle.clone());
    let mut pool_rng = Xoshiro256::seed_from(seed);
    let mut pair_rng = Xoshiro256::seed_from(seed ^ 0x1417);
    for slot in 0..4 {
        let reqs = RequestMatrixN::<W>::random(n, density, &mut pool_rng);
        let want = oracle.schedule(&bools(&reqs));
        let ctx = format!("n {n} W {W} {policy:?} {limit:?} density {density} slot {slot}");
        assert_eq!(outputs(&plain.schedule(&reqs)), want, "schedule: {ctx}");
        // A few reserved pairs, requested or not; the first always lands.
        let mut initial = MatchingN::<W>::new(n);
        for _ in 0..1 + pair_rng.index(4) {
            let (i, j) = (pair_rng.index(n), pair_rng.index(n));
            let _ = initial.pair(InputPort::new(i), OutputPort::new(j));
        }
        let kept = outputs(&initial);
        let m = from.schedule_from(&reqs, initial);
        assert_eq!(
            outputs(&m),
            from_oracle.schedule_from(&bools(&reqs), &kept),
            "schedule_from: {ctx}"
        );
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

proptest! {
    /// Width parity: at every radix a one-word port set holds, each
    /// narrow kernel decides slot by slot on one-word sets exactly what it
    /// decides on four-word sets — PIM for every accept policy and
    /// iteration limit through all three entry points (matchings,
    /// statistics and trace records), iSLIP and RRM with their pointers,
    /// MWM, SERENADE and maximum matching — masked or not. This is what
    /// lets the width rule (`with_port_width!`) move a switch of 64 ports
    /// or fewer off four-word sets without moving any digest. PIM runs
    /// its one-word loop at both widths here; its oracle coverage on both
    /// loop widths is `dispatched_pim_kernel_matches_reference_on_both_paths`.
    #[test]
    fn narrow_kernels_decide_the_same_on_one_and_four_words(
        n in 1usize..=64,
        density in prop_oneof![Just(0.05f64), Just(0.3), Just(1.0)],
        policy in 0usize..3,
        iters in 0usize..=5,
        seed in any::<u64>(),
        mask_seed in proptest::option::of(any::<u64>()),
    ) {
        let policy = [AcceptPolicy::Random, AcceptPolicy::RoundRobin, AcceptPolicy::LowestIndex][policy];
        let limit = match iters {
            0 => IterationLimit::ToCompletion,
            k => IterationLimit::Fixed(k),
        };
        let one = width_transcript::<1>(n, density, policy, limit, seed, mask_seed);
        let four = width_transcript::<4>(n, density, policy, limit, seed, mask_seed);
        prop_assert_eq!(one.len(), four.len());
        for (a, b) in one.iter().zip(&four) {
            prop_assert_eq!(a, b, "n {} density {} {:?} {:?} mask {:?}", n, density, policy, limit, mask_seed);
        }
    }
}

/// Every narrow kernel's decisions over a few slots at width `W`, one line
/// per kernel and slot, in a form that does not mention `W`: matchings as
/// output lists, port sets in trace records by their members.
fn width_transcript<const W: usize>(
    n: usize,
    density: f64,
    policy: AcceptPolicy,
    limit: IterationLimit,
    seed: u64,
    mask_seed: Option<u64>,
) -> Vec<String> {
    let mut pool_rng = Xoshiro256::seed_from(seed);
    let requests: Vec<RequestMatrixN<W>> = (0..6)
        .map(|_| RequestMatrixN::random(n, density, &mut pool_rng))
        .collect();
    let mask = mask_seed.map(|s| masked::<W>(n, s));
    let mut log = Vec::new();

    let mut pim = PimN::<Xoshiro256, W>::with_options(n, seed, limit, policy);
    if let Some(mask) = mask {
        pim.set_port_mask(mask);
    }
    let (mut with_stats, mut traced) = (pim.clone(), pim.clone());
    for reqs in &requests {
        log.push(format!("pim {:?}", outputs(&pim.schedule(reqs))));
        let (m, stats) = with_stats.schedule_with_stats(reqs);
        log.push(format!("pim stats {:?} {stats:?}", outputs(&m)));
        let mut records = Vec::new();
        let (m, _) = traced.schedule_traced(reqs, &mut |r| records.push(format!("{r:?}")));
        log.push(format!("pim trace {:?} {records:?}", outputs(&m)));
    }

    let iters = match limit {
        IterationLimit::Fixed(k) => k,
        IterationLimit::ToCompletion => 4,
    };
    for mut rr in [
        RoundRobinMatchingN::<W>::islip(n, iters),
        RoundRobinMatchingN::<W>::rrm(n, iters),
    ] {
        if let Some(mask) = mask {
            rr.set_port_mask(mask);
        }
        for reqs in &requests {
            let m = outputs(&rr.schedule(reqs));
            log.push(format!("{} {m:?} {:?}", rr.name(), rr.pointers()));
        }
    }

    // The queue-aware kernels see the same random depth and age per
    // requested pair at both widths.
    let mut observations = Xoshiro256::seed_from(seed ^ 0x0b5e);
    let kernels: [Box<dyn Scheduler<W>>; 4] = [
        Box::new(MwmN::<W>::lqf(n)),
        Box::new(MwmN::<W>::ocf(n)),
        Box::new(SerenadeN::<W>::new(n, seed)),
        Box::new(MaximumMatchingN::<W>::new()),
    ];
    for mut kernel in kernels {
        if let Some(mask) = mask {
            kernel.set_port_mask(mask);
        }
        for reqs in &requests {
            for (i, j) in reqs.pairs() {
                let (depth, age) = (1 + observations.index(40), observations.index(40));
                kernel.observe_queue(i, j, depth as u32, age as u32);
            }
            log.push(format!(
                "{} {:?}",
                kernel.name(),
                outputs(&kernel.schedule(reqs))
            ));
        }
    }
    log
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
