//! Golden digests of scheduling decision sequences.
//!
//! The zero-allocation rewrite of the scheduling hot path must not change
//! any decision: same seed, same requests, same matching, bit for bit —
//! otherwise every number in EXPERIMENTS.md silently drifts. Each test
//! drives one scheduler over a fixed request sequence and compares an
//! FNV-1a digest of the produced matchings (and, for PIM, of the stats
//! and trace records) against a value recorded before the rewrite.
//!
//! If one of these fails after an intentional behaviour change, rerun with
//! the failure message's `actual` value and update the constant — but only
//! together with regenerated EXPERIMENTS.md numbers.

use an2_sched::islip::RoundRobinMatching;
use an2_sched::kgrant::KGrantPim;
use an2_sched::maximum::MaximumMatching;
use an2_sched::rng::Xoshiro256;
use an2_sched::stat::{ReservationTable, StatisticalMatcher};
use an2_sched::{
    AcceptPolicy, CheckedScheduler, InputPort, IterationLimit, Matching, Pim, RequestMatrix,
    Scheduler,
};
use an2_task::Fnv;

const SLOTS: usize = 128;
const N: usize = 16;

/// Folds a matching into `d`: each input's output index as one byte,
/// 0xFF for an unmatched input.
fn fold_matching(d: &mut Fnv, m: &Matching) {
    for i in 0..m.n() {
        let j = m
            .output_of(InputPort::new(i))
            .map_or(0xFF, |j| j.index() as u8);
        d.bytes(&[j]);
    }
}

/// A fixed, varied request sequence: densities cycle through sparse,
/// medium, heavy, full, and empty slots so every scheduler branch
/// (including the no-request early exit) is exercised.
fn request_sequence() -> Vec<RequestMatrix> {
    let mut gen = Xoshiro256::seed_from(0xD15C0);
    let densities = [0.1, 0.5, 0.9, 1.0, 0.0];
    (0..SLOTS)
        .map(|s| RequestMatrix::random(N, densities[s % densities.len()], &mut gen))
        .collect()
}

fn matching_digest(mut sched: impl Scheduler) -> u64 {
    let mut d = Fnv::report();
    for reqs in &request_sequence() {
        let m = sched.schedule(reqs);
        assert!(m.respects(reqs));
        fold_matching(&mut d, &m);
    }
    d.finish()
}

#[track_caller]
fn assert_digest(actual: u64, expected: u64) {
    assert_eq!(
        actual, expected,
        "decision sequence changed: actual {actual:#018x}, recorded {expected:#018x}"
    );
}

#[test]
fn pim_random_fixed4() {
    let s = Pim::with_options(N, 42, IterationLimit::Fixed(4), AcceptPolicy::Random);
    assert_digest(matching_digest(s), 0xbd1c7ae0bbea76c9);
}

#[test]
fn pim_random_to_completion() {
    let s = Pim::with_options(N, 42, IterationLimit::ToCompletion, AcceptPolicy::Random);
    assert_digest(matching_digest(s), 0x204f4cddd3762200);
}

#[test]
fn pim_round_robin_accept() {
    let s = Pim::with_options(N, 42, IterationLimit::Fixed(4), AcceptPolicy::RoundRobin);
    assert_digest(matching_digest(s), 0x015195618db34220);
}

#[test]
fn pim_lowest_index_accept() {
    let s = Pim::with_options(N, 42, IterationLimit::Fixed(4), AcceptPolicy::LowestIndex);
    assert_digest(matching_digest(s), 0x93c54e9f10936bc1);
}

#[test]
fn islip_four_iterations() {
    assert_digest(
        matching_digest(RoundRobinMatching::islip(N, 4)),
        0xc0e22f543d31ba0c,
    );
}

#[test]
fn rrm_four_iterations() {
    assert_digest(
        matching_digest(RoundRobinMatching::rrm(N, 4)),
        0xf9594c1edd360802,
    );
}

#[test]
fn maximum_matching() {
    // Re-pinned when Hopcroft–Karp moved to the bitset (greedy seed +
    // word-parallel BFS) implementation, which selects a different — equally
    // maximum — matching.
    assert_digest(matching_digest(MaximumMatching::new()), 0xf7f19a5c166e3cb6);
}

#[test]
fn stat_with_pim_fill() {
    // A mixed reservation table: diagonal pairs at half budget.
    let table = ReservationTable::from_fn(N, 16, |i, j| if i == j { 8 } else { 0 });
    let pim = Pim::with_options(N, 42, IterationLimit::ToCompletion, AcceptPolicy::Random);
    let s = StatisticalMatcher::new(table, 42).into_scheduler(pim);
    assert_digest(matching_digest(s), 0x9488e2522206cb43);
}

#[test]
fn kgrant_pim_speedup2() {
    let mut s = KGrantPim::new(N, 2, 4, 42);
    let mut d = Fnv::report();
    for reqs in &request_sequence() {
        let mm = s.schedule(reqs);
        assert!(mm.respects(reqs));
        for i in 0..N {
            let j = mm
                .output_of(InputPort::new(i))
                .map_or(0xFF, |j| j.index() as u8);
            d.bytes(&[j]);
        }
    }
    assert_digest(d.finish(), 0xad737cbfd822d37f);
}

/// Deterministic synthetic queue state for the queue-aware schedulers:
/// depth and age are fixed functions of (slot, input, output), so the
/// digest pins the whole observe → weigh → match pipeline without
/// needing a simulator in the loop.
fn feed_observations<const W: usize>(
    sched: &mut impl Scheduler<W>,
    reqs: &an2_sched::RequestMatrixN<W>,
    slot: usize,
) {
    for (i, j) in reqs.pairs() {
        let depth = ((i.index() * 7 + j.index() * 13 + slot * 31) % 32) as u32;
        let age = ((i.index() * 5 + j.index() * 3 + slot * 11) % 64) as u32;
        sched.observe_queue(i, j, depth, age);
    }
}

fn queue_aware_digest(mut sched: impl Scheduler) -> u64 {
    let mut d = Fnv::report();
    for (slot, reqs) in request_sequence().iter().enumerate() {
        feed_observations(&mut sched, reqs, slot);
        let m = sched.schedule(reqs);
        assert!(m.respects(reqs));
        fold_matching(&mut d, &m);
    }
    d.finish()
}

#[test]
fn mwm_lqf_pinned() {
    assert_digest(
        queue_aware_digest(an2_sched::Mwm::lqf(N)),
        0xf946b8c69625e825,
    );
}

#[test]
fn mwm_ocf_pinned() {
    assert_digest(
        queue_aware_digest(an2_sched::Mwm::ocf(N)),
        0xdcacc94eed8b2f68,
    );
}

#[test]
fn serenade_pinned() {
    assert_digest(
        queue_aware_digest(an2_sched::Serenade::new(N, 42)),
        0x3aa94e204e0226a6,
    );
}

/// SERENADE's staged (pool-parallel) component weighing must land on the
/// serial digest at every thread count — the merge decisions are a pure
/// function of the proposals, so the work-stealing schedule cannot leak
/// into the matchings.
#[test]
fn serenade_staged_digest_is_thread_count_invariant() {
    use an2_task::Pool;
    let serial = queue_aware_digest(an2_sched::Serenade::new(N, 42));
    for threads in [1, 4] {
        let pool = Pool::new(threads);
        let mut sched = an2_sched::Serenade::new(N, 42);
        let mut d = Fnv::report();
        for (slot, reqs) in request_sequence().iter().enumerate() {
            feed_observations(&mut sched, reqs, slot);
            let m = sched.schedule_staged(reqs, &pool);
            assert!(m.respects(reqs));
            fold_matching(&mut d, &m);
        }
        assert_digest(d.finish(), serial);
    }
}

/// The wide (1024-port) MWM kernel, pinned across the sparse density
/// regimes. Fewer slots and lighter densities than the other wide pins:
/// successive augmentation is the costliest kernel in the crate, and the
/// sparse regime is the one the wide engine actually schedules.
#[test]
fn wide_mwm_pinned() {
    use an2_sched::{WideMwm, WideRequestMatrix};

    const WN: usize = 1024;
    let mut gen = Xoshiro256::seed_from(0xD15C0);
    let densities = [0.0001, 0.001, 0.0];
    let seq: Vec<WideRequestMatrix> = (0..12)
        .map(|s| WideRequestMatrix::random(WN, densities[s % densities.len()], &mut gen))
        .collect();
    let mut lqf = WideMwm::lqf(WN);
    let mut d = Fnv::report();
    for (slot, reqs) in seq.iter().enumerate() {
        feed_observations(&mut lqf, reqs, slot);
        let m = lqf.schedule(reqs);
        assert!(m.respects(reqs));
        assert!(m.is_maximal(reqs));
        for (i, j) in m.pairs() {
            d.u64(i.index() as u64);
            d.u64(j.index() as u64);
        }
        d.bytes(&[0xFE]);
    }
    assert_digest(d.finish(), 0xb358d259556333ea);
}

/// The invariant checker must be a pure observer: wrapping a scheduler in
/// [`CheckedScheduler`] (checks enabled or not) must reproduce the exact
/// pinned digests — the checker draws no randomness and alters no
/// decision, so digests stay bit-identical with checking on and off. The
/// checker reads what PIM declares, so the run-to-completion row is also
/// checked for maximality, the strictest mode it has.
#[test]
fn checked_wrapper_reproduces_pinned_digests() {
    let cases = [
        (IterationLimit::Fixed(4), AcceptPolicy::Random, 0xbd1c7ae0bbea76c9),
        (IterationLimit::ToCompletion, AcceptPolicy::Random, 0x204f4cddd3762200),
        (IterationLimit::Fixed(4), AcceptPolicy::RoundRobin, 0x015195618db34220),
        (IterationLimit::Fixed(4), AcceptPolicy::LowestIndex, 0x93c54e9f10936bc1),
    ];
    for (limit, policy, expected) in cases {
        let mut checked = CheckedScheduler::new(Pim::with_options(N, 42, limit, policy));
        assert_eq!(
            checked.contract().maximal,
            limit == IterationLimit::ToCompletion,
            "{limit:?}"
        );
        let mut d = Fnv::report();
        for reqs in &request_sequence() {
            fold_matching(&mut d, &checked.schedule(reqs));
        }
        assert_digest(d.finish(), expected);
        assert_eq!(checked.violations(), &[], "checker flagged a correct PIM");
        if an2_sched::checking_enabled() {
            assert!(checked.checks_run() > 0, "checks must run in checked builds");
        } else {
            assert_eq!(checked.checks_run(), 0, "checks must vanish in plain release");
        }
        // name() forwards, so reports and digests keyed by name also agree.
        assert_eq!(checked.name(), "pim");
    }
}

/// The stats path must keep reporting the same per-iteration trajectory
/// after `unresolved_requests` is gated off the plain path.
#[test]
fn pim_stats_trajectory() {
    let mut s = Pim::with_options(N, 42, IterationLimit::Fixed(4), AcceptPolicy::Random);
    let mut d = Fnv::report();
    for reqs in &request_sequence() {
        let (m, stats) = s.schedule_with_stats(reqs);
        fold_matching(&mut d, &m);
        d.u64(stats.iterations_run as u64);
        d.u64(stats.completed as u64);
        for (&a, &b) in stats.matches_after.iter().zip(&stats.unresolved_after) {
            d.u64(a as u64);
            d.u64(b as u64);
        }
    }
    assert_digest(d.finish(), 0x5a1a8c75b9743518);
}

/// The traced path must keep exposing identical per-iteration request,
/// grant, and accept sets.
#[test]
fn pim_trace_records() {
    let mut s = Pim::with_options(N, 42, IterationLimit::Fixed(4), AcceptPolicy::Random);
    let mut d = Fnv::report();
    for reqs in &request_sequence() {
        let (m, _) = s.schedule_traced(reqs, &mut |rec| {
            d.u64(rec.iteration as u64);
            d.u64(rec.unresolved_after as u64);
            for set in rec.requests.iter().chain(rec.grants.iter()) {
                for member in set.iter() {
                    d.bytes(&[member as u8]);
                }
                d.bytes(&[0xFE]);
            }
            for &(i, j) in &rec.accepts {
                d.bytes(&[i.index() as u8]);
                d.bytes(&[j.index() as u8]);
            }
        });
        fold_matching(&mut d, &m);
    }
    assert_digest(d.finish(), 0x52c08599cb6f159c);
}

/// The wide (1024-port) kernels, pinned at the full radix across the
/// density regimes the sparse active-pair walk specializes. PIM's
/// recording entry point (`schedule_with_stats`) must land on the *same*
/// digest as `schedule`, so one constant pins both. The dense oracles
/// these kernels are checked against live in `an2-verify`'s differential
/// properties.
#[test]
fn wide_sparse_kernels_are_pinned() {
    use an2_sched::islip::WideRoundRobinMatching;
    use an2_sched::{WideMatching, WidePim, WideRequestMatrix};

    const WN: usize = 1024;
    let mut gen = Xoshiro256::seed_from(0xD15C0);
    let densities = [0.0001, 0.001, 0.01, 0.0];
    let seq: Vec<WideRequestMatrix> = (0..24)
        .map(|s| WideRequestMatrix::random(WN, densities[s % densities.len()], &mut gen))
        .collect();
    fn digest_of(
        seq: &[WideRequestMatrix],
        mut run: impl FnMut(&WideRequestMatrix) -> WideMatching,
    ) -> u64 {
        let mut d = Fnv::report();
        for reqs in seq {
            let m = run(reqs);
            assert!(m.respects(reqs));
            for i in 0..m.n() {
                d.u64(
                    m.output_of(InputPort::new(i))
                        .map_or(u64::MAX, |j| j.index() as u64),
                );
            }
        }
        d.finish()
    }

    let mut pim = WidePim::new(WN, 42);
    assert_digest(
        digest_of(&seq, |r| pim.schedule(r)),
        0x8b6b3e121b269c02,
    );
    let mut pim_recorded = WidePim::new(WN, 42);
    assert_digest(
        digest_of(&seq, |r| pim_recorded.schedule_with_stats(r).0),
        0x8b6b3e121b269c02,
    );

    let mut islip = WideRoundRobinMatching::islip(WN, 4);
    assert_digest(digest_of(&seq, |r| islip.schedule(r)), 0x98901a9c12f643c8);

    let mut rrm = WideRoundRobinMatching::rrm(WN, 4);
    assert_digest(digest_of(&seq, |r| rrm.schedule(r)), 0x5581f9175a1a3c52);
}
