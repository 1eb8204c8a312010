//! Property-based tests for the scheduling algorithms.
//!
//! These verify the structural invariants the paper relies on, over
//! randomized switch sizes, request densities, seeds and configurations.

use an2_sched::fifo::{FifoArbiter, FifoPriority};
use an2_sched::islip::RoundRobinMatching;
use an2_sched::maximum::hopcroft_karp;
use an2_sched::rng::Xoshiro256;
use an2_sched::stat::{ReservationTable, StatisticalMatcher};
use an2_sched::{
    AcceptPolicy, FrameSchedule, InputPort, IterationLimit, OutputPort, Pim, PortMask, PortSet,
    PortSetN, RequestMatrix, RequestMatrixN, Scheduler,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a request matrix of size `n` with arbitrary edges.
fn request_matrix(max_n: usize) -> impl Strategy<Value = RequestMatrix> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(proptest::bool::ANY, n * n).prop_map(move |bits| {
            RequestMatrix::from_fn(n, |i, j| bits[i * n + j])
        })
    })
}

fn accept_policy() -> impl Strategy<Value = AcceptPolicy> {
    prop_oneof![
        Just(AcceptPolicy::Random),
        Just(AcceptPolicy::RoundRobin),
        Just(AcceptPolicy::LowestIndex),
    ]
}

proptest! {
    #[test]
    fn portset_behaves_like_btreeset(ops in proptest::collection::vec((0usize..256, proptest::bool::ANY), 0..200)) {
        let mut set = PortSet::new();
        let mut model = BTreeSet::new();
        for (idx, insert) in ops {
            if insert {
                prop_assert_eq!(set.insert(idx), model.insert(idx));
            } else {
                prop_assert_eq!(set.remove(idx), model.remove(&idx));
            }
        }
        prop_assert_eq!(set.len(), model.len());
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(set.first(), model.iter().next().copied());
        for (k, want) in model.iter().enumerate() {
            prop_assert_eq!(set.nth(k), Some(*want));
        }
        prop_assert_eq!(set.nth(model.len()), None);
    }

    #[test]
    fn portset_algebra_matches_model(
        a in proptest::collection::btree_set(0usize..256, 0..64),
        b in proptest::collection::btree_set(0usize..256, 0..64),
    ) {
        let sa: PortSet = a.iter().copied().collect();
        let sb: PortSet = b.iter().copied().collect();
        let inter: Vec<usize> = a.intersection(&b).copied().collect();
        let uni: Vec<usize> = a.union(&b).copied().collect();
        let diff: Vec<usize> = a.difference(&b).copied().collect();
        prop_assert_eq!(sa.intersection(&sb).iter().collect::<Vec<_>>(), inter);
        prop_assert_eq!(sa.union(&sb).iter().collect::<Vec<_>>(), uni);
        prop_assert_eq!(sa.difference(&sb).iter().collect::<Vec<_>>(), diff);
        prop_assert_eq!(sa.is_disjoint(&sb), a.is_disjoint(&b));
    }

    #[test]
    fn pim_output_is_always_a_legal_sub_matching(
        reqs in request_matrix(32),
        seed in any::<u64>(),
        iters in 1usize..6,
        policy in accept_policy(),
    ) {
        let mut pim = Pim::with_options(reqs.n(), seed, IterationLimit::Fixed(iters), policy);
        let (m, stats) = pim.schedule_with_stats(&reqs);
        prop_assert!(m.respects(&reqs));
        prop_assert!(stats.iterations_run <= iters);
        // A matching never exceeds the number of requested outputs/inputs.
        prop_assert!(m.len() <= reqs.len());
    }

    #[test]
    fn pim_to_completion_is_maximal(
        reqs in request_matrix(32),
        seed in any::<u64>(),
        policy in accept_policy(),
    ) {
        let mut pim = Pim::with_options(reqs.n(), seed, IterationLimit::ToCompletion, policy);
        let (m, stats) = pim.schedule_with_stats(&reqs);
        prop_assert!(stats.completed);
        prop_assert!(m.is_maximal(&reqs));
        prop_assert_eq!(m.unresolved_requests(&reqs), 0);
    }

    #[test]
    fn maximum_matching_dominates_maximal(
        reqs in request_matrix(32),
        seed in any::<u64>(),
    ) {
        let max = hopcroft_karp(&reqs);
        prop_assert!(max.respects(&reqs));
        prop_assert!(max.is_maximal(&reqs));
        let mut pim = Pim::with_options(
            reqs.n(), seed, IterationLimit::ToCompletion, AcceptPolicy::Random);
        let m = pim.schedule(&reqs);
        // maximal <= maximum <= 2 * maximal (Section 3.4).
        prop_assert!(m.len() <= max.len());
        prop_assert!(max.len() <= 2 * m.len());
    }

    #[test]
    fn pim_schedule_from_retains_initial_pairs(
        reqs in request_matrix(16),
        seed in any::<u64>(),
    ) {
        // Build an initial matching from a greedy sweep of the requests.
        let n = reqs.n();
        let mut initial = an2_sched::Matching::new(n);
        for (i, j) in reqs.pairs() {
            if !initial.input_matched(i) && !initial.output_matched(j) && (i.index() + j.index()) % 3 == 0 {
                initial.pair(i, j).unwrap();
            }
        }
        let kept: Vec<_> = initial.pairs().collect();
        let mut pim = Pim::with_options(n, seed, IterationLimit::ToCompletion, AcceptPolicy::Random);
        let m = pim.schedule_from(&reqs, initial);
        for (i, j) in kept {
            prop_assert_eq!(m.output_of(i), Some(j));
        }
        prop_assert!(m.is_maximal(&reqs));
    }

    #[test]
    fn islip_and_rrm_outputs_are_legal(
        reqs in request_matrix(32),
        iters in 1usize..6,
    ) {
        let mut islip = RoundRobinMatching::islip(reqs.n(), iters);
        let mut rrm = RoundRobinMatching::rrm(reqs.n(), iters);
        for s in [&mut islip, &mut rrm] {
            let m = s.schedule(&reqs);
            prop_assert!(m.respects(&reqs));
        }
    }

    #[test]
    fn fifo_arbiter_is_legal_and_work_conserving(
        n in 1usize..32,
        dests in proptest::collection::vec(proptest::option::of(0usize..32), 1..32),
        seed in any::<u64>(),
        rotating in proptest::bool::ANY,
    ) {
        let n = n.max(dests.len());
        let mut heads: Vec<Option<OutputPort>> = vec![None; n];
        for (i, d) in dests.iter().enumerate() {
            heads[i] = d.map(|j| OutputPort::new(j % n));
        }
        let prio = if rotating { FifoPriority::Rotating } else { FifoPriority::Random };
        let mut arb = FifoArbiter::new(n, prio, seed);
        let m = arb.arbitrate(&heads);
        // Winners sent exactly their head-of-line destination.
        for (i, j) in m.pairs() {
            prop_assert_eq!(heads[i.index()], Some(j));
        }
        // Work conservation: every requested output is served by someone.
        let requested: BTreeSet<usize> =
            heads.iter().flatten().map(|j| j.index()).collect();
        prop_assert_eq!(m.len(), requested.len());
    }

    #[test]
    fn frame_schedule_random_reservations_stay_consistent(
        n in 1usize..8,
        frame_len in 1usize..12,
        ops in proptest::collection::vec((0usize..8, 0usize..8, 1usize..4, proptest::bool::ANY), 0..40),
    ) {
        let mut fs = FrameSchedule::new(n, frame_len);
        for (i, j, cells, release) in ops {
            let (i, j) = (i % n, j % n);
            let (ip, op) = (InputPort::new(i), OutputPort::new(j));
            if release {
                let have = fs.demand(ip, op);
                if have > 0 {
                    fs.release(ip, op, cells.min(have)).unwrap();
                }
            } else {
                let admitted = fs.admits(ip, op, cells);
                prop_assert_eq!(fs.reserve(ip, op, cells).is_ok(), admitted);
            }
            prop_assert!(fs.verify());
        }
    }

    #[test]
    fn frame_schedule_admits_any_doubly_substochastic_demand(
        n in 1usize..8,
        frame_len in 1usize..10,
        seed in any::<u64>(),
    ) {
        // Saturate the switch with random single-cell reservations until no
        // pair is admissible; Slepian-Duguid says admission only ever fails
        // on link capacity, so every admissible request must succeed.
        use an2_sched::rng::SelectRng;
        let mut rng = Xoshiro256::seed_from(seed);
        let mut fs = FrameSchedule::new(n, frame_len);
        for _ in 0..n * frame_len * 3 {
            let i = rng.index(n);
            let j = rng.index(n);
            let (ip, op) = (InputPort::new(i), OutputPort::new(j));
            if fs.admits(ip, op, 1) {
                prop_assert!(fs.reserve(ip, op, 1).is_ok());
            }
        }
        prop_assert!(fs.verify());
    }

    /// At every width, `select_nth` and the request matrix's
    /// `col_select_nth` return what `nth` returns at every rank, including
    /// ranks of `2^32` and beyond that do not fit the `u32` they count in.
    /// Each width draws its own set over its whole capacity, so every
    /// width sees sets of up to about 63 members.
    #[test]
    fn select_nth_agrees_with_naive_nth(
        narrow in proptest::collection::btree_set(0usize..64, 0..128),
        members in proptest::collection::btree_set(0usize..256, 0..64),
        wide in proptest::collection::btree_set(0usize..1024, 0..64),
        far in any::<u64>(),
    ) {
        select_nth_matches_nth::<1>(&narrow, far);
        select_nth_matches_nth::<4>(&members, far);
        select_nth_matches_nth::<16>(&wide, far);
    }

    /// The request matrix's live-word column primitives agree with the
    /// dense column at W = 1, 4 and 16, after random `set`/`clear`
    /// sequences that keep the per-word counts and the nonzero-word bitmap
    /// moving: `col_select_nth` at every rank (and past `2^32`), and
    /// `col_eligible` on one-, four- and sixteen-word eligible sets. Each
    /// matrix has columns with no live word (one untouched, one filled and
    /// emptied again), one live word, and, once `n > 64`, several.
    #[test]
    fn live_word_column_primitives_agree_with_dense_columns(
        radix in any::<u64>(),
        one_word in any::<u64>(),
        ops in proptest::collection::vec((0usize..3, any::<u64>(), 0usize..10), 0..300),
        eligible_seed in any::<u64>(),
        far in any::<u64>(),
    ) {
        live_word_columns::<1>(radix, one_word, &ops, eligible_seed, far);
        live_word_columns::<4>(radix, one_word, &ops, eligible_seed, far);
        live_word_columns::<16>(radix, one_word, &ops, eligible_seed, far);
    }

    #[test]
    fn first_at_or_after_agrees_with_wrapped_scan(
        members in proptest::collection::btree_set(0usize..256, 0..64),
        start in 0usize..256,
    ) {
        let set: PortSet = members.iter().copied().collect();
        let want = members
            .range(start..)
            .next()
            .or_else(|| members.iter().next())
            .copied();
        prop_assert_eq!(set.first_at_or_after(start), want);
    }

    /// Fault recovery moves a flow's reservation between ports by releasing
    /// on the old path and re-reserving on the new one. Any such round-trip
    /// sequence must keep the schedule conflict-free, and a full release
    /// must restore the exact pre-reservation loads (no leaked capacity).
    #[test]
    fn frame_schedule_fault_round_trips_preserve_verify(
        n in 2usize..8,
        frame_len in 2usize..10,
        cells in 1usize..4,
        moves in proptest::collection::vec((0usize..8, 0usize..8, 0usize..8, 0usize..8), 1..24),
    ) {
        let mut fs = FrameSchedule::new(n, frame_len);
        let cells = cells.min(frame_len);
        // Seed one reservation so there is always something to move.
        fs.reserve(InputPort::new(0), OutputPort::new(0), cells).unwrap();
        let mut held = vec![(InputPort::new(0), OutputPort::new(0))];
        for (i, j, i2, j2) in moves {
            // A "link failure": release one held reservation entirely, then
            // try to re-reserve the same demand elsewhere — falling back to
            // the original pair (always admissible again) if the new pair
            // has no capacity, as the netsim reroute path does.
            let (ip, op) = held.pop().unwrap_or((InputPort::new(i % n), OutputPort::new(j % n)));
            if fs.demand(ip, op) >= cells {
                fs.release(ip, op, cells).unwrap();
            }
            prop_assert!(fs.verify());
            let (ni, nj) = (InputPort::new(i2 % n), OutputPort::new(j2 % n));
            if fs.admits(ni, nj, cells) {
                fs.reserve(ni, nj, cells).unwrap();
                held.push((ni, nj));
            } else {
                fs.reserve(ip, op, cells).unwrap();
                held.push((ip, op));
            }
            prop_assert!(fs.verify());
        }
        // Tear everything down: the schedule must drain to empty.
        while let Some((ip, op)) = held.pop() {
            let have = fs.demand(ip, op);
            if have > 0 {
                fs.release(ip, op, have.min(cells)).unwrap();
            }
        }
        prop_assert!(fs.verify());
        for i in 0..n {
            prop_assert_eq!(fs.input_load(InputPort::new(i)), 0);
            prop_assert_eq!(fs.output_load(OutputPort::new(i)), 0);
        }
    }

    /// Degraded scheduling at the wide radices (W = 16, N up to 1024):
    /// the masked wide PIM kernel must never match a failed port, must
    /// stay legal, and must remain maximal over the unmasked sub-switch —
    /// the same contract the narrow kernel pins below, proven on the
    /// chaos engine's operating sizes.
    #[test]
    fn masked_wide_pim_is_maximal_over_unmasked_ports(
        n in prop_oneof![Just(64usize), Just(256), Just(1024)],
        edges in proptest::collection::vec((0usize..1024, 0usize..1024), 1..160),
        seed in any::<u64>(),
        fails in proptest::collection::btree_set((0usize..1024, proptest::bool::ANY), 0..12),
    ) {
        use an2_sched::{WidePim, WidePortMask, WideRequestMatrix};
        let mut reqs = WideRequestMatrix::new(n);
        for &(i, j) in edges.iter().filter(|&&(i, j)| i < n && j < n) {
            reqs.set(InputPort::new(i), OutputPort::new(j));
        }
        let mut mask = WidePortMask::all(n);
        let mut fail_in = BTreeSet::new();
        let mut fail_out = BTreeSet::new();
        for &(p, input_side) in fails.iter().filter(|&&(p, _)| p < n) {
            if input_side {
                mask.fail_input(p);
                fail_in.insert(p);
            } else {
                mask.fail_output(p);
                fail_out.insert(p);
            }
        }
        let mut pim =
            WidePim::with_options(n, seed, IterationLimit::ToCompletion, AcceptPolicy::Random);
        pim.set_port_mask(mask);
        let m = pim.schedule(&reqs);
        prop_assert!(m.respects(&reqs));
        for (i, j) in m.pairs() {
            prop_assert!(!fail_in.contains(&i.index()), "matched failed wide input {i}");
            prop_assert!(!fail_out.contains(&j.index()), "matched failed wide output {j}");
        }
        // The healthy sub-switch: requests between active ports only.
        let mut healthy = WideRequestMatrix::new(n);
        for &(i, j) in edges.iter().filter(|&&(i, j)| i < n && j < n) {
            if !fail_in.contains(&i) && !fail_out.contains(&j) {
                healthy.set(InputPort::new(i), OutputPort::new(j));
            }
        }
        prop_assert!(m.is_maximal(&healthy));
        let max = hopcroft_karp(&healthy);
        prop_assert!(2 * m.len() >= max.len(),
            "masked wide maximal {} fell below half the maximum {}", m.len(), max.len());
    }

    /// Degraded scheduling: with ports masked out, PIM must never match a
    /// failed port, must stay legal, and must still find a maximal matching
    /// of the healthy sub-switch — hence at least half the maximum (§3.4's
    /// bound survives degradation).
    #[test]
    fn masked_pim_never_matches_failed_ports(
        reqs in request_matrix(32),
        seed in any::<u64>(),
        fail_in in proptest::collection::btree_set(0usize..32, 0..8),
        fail_out in proptest::collection::btree_set(0usize..32, 0..8),
    ) {
        let n = reqs.n();
        let mut mask = PortMask::all(n);
        for &i in fail_in.iter().filter(|&&i| i < n) {
            mask.fail_input(i);
        }
        for &j in fail_out.iter().filter(|&&j| j < n) {
            mask.fail_output(j);
        }
        let mut pim = Pim::with_options(n, seed, IterationLimit::ToCompletion, AcceptPolicy::Random);
        pim.set_port_mask(mask);
        let m = pim.schedule(&reqs);
        prop_assert!(m.respects(&reqs));
        for (i, j) in m.pairs() {
            prop_assert!(!fail_in.contains(&i.index()), "matched failed input {i}");
            prop_assert!(!fail_out.contains(&j.index()), "matched failed output {j}");
        }
        // The healthy sub-switch: requests between active ports only.
        let healthy = RequestMatrix::from_fn(n, |i, j| {
            reqs.has(InputPort::new(i), OutputPort::new(j))
                && !fail_in.contains(&i)
                && !fail_out.contains(&j)
        });
        prop_assert!(m.is_maximal(&healthy));
        let max = hopcroft_karp(&healthy);
        prop_assert!(2 * m.len() >= max.len(),
            "masked maximal {} fell below half the maximum {}", m.len(), max.len());
    }

    #[test]
    fn statistical_matching_stays_within_reservations(
        n in 1usize..8,
        seed in any::<u64>(),
        rounds in 1usize..4,
    ) {
        let x = 16;
        // A random reservation pattern within budgets.
        let mut table = ReservationTable::new(n, x);
        let mut rng = Xoshiro256::seed_from(seed);
        use an2_sched::rng::SelectRng;
        for _ in 0..2 * n {
            let i = rng.index(n);
            let j = rng.index(n);
            let u = rng.index(x / 2 + 1);
            let _ = table.set(i, j, u); // over-budget attempts simply fail
        }
        let reserved: Vec<Vec<usize>> =
            (0..n).map(|i| (0..n).map(|j| table.units(i, j)).collect()).collect();
        let mut sm = StatisticalMatcher::with_rounds(table, seed ^ 0xDEAD, rounds);
        for _ in 0..50 {
            let m = sm.next_match();
            for (i, j) in m.pairs() {
                prop_assert!(reserved[i.index()][j.index()] > 0,
                    "matched unreserved pair ({},{})", i, j);
            }
        }
    }
}

fn select_nth_matches_nth<const W: usize>(members: &BTreeSet<usize>, far: u64) {
    let n = PortSetN::<W>::CAPACITY;
    let members: Vec<usize> = members.iter().copied().collect();
    assert!(
        members.iter().all(|&m| m < n),
        "W = {W}: member out of range"
    );
    let set: PortSetN<W> = members.iter().copied().collect();
    let mut col = RequestMatrixN::<W>::new(n);
    for &m in &members {
        col.set(InputPort::new(m), OutputPort::new(0));
    }
    for (k, &want) in members.iter().enumerate() {
        assert_eq!(set.select_nth(k), Some(want), "W = {W}, k = {k}");
    }
    let len = members.len();
    let wrapped = (1usize << 32) + (far % (len as u64 + 2)) as usize;
    for k in (0..=len + 1).chain([wrapped, far as usize, u32::MAX as usize, usize::MAX]) {
        assert_eq!(set.select_nth(k), set.nth(k), "W = {W}, k = {k}");
        assert_eq!(
            col.col_select_nth(OutputPort::new(0), k),
            set.nth(k),
            "W = {W}, k = {k}"
        );
    }
}

/// The body of `live_word_column_primitives_agree_with_dense_columns` at
/// width `W`. Columns: 0 untouched, 1 churned inside one word, 2 churned
/// over every word, 3 churned and then emptied, 4 holding the first and
/// last input.
fn live_word_columns<const W: usize>(
    radix: u64,
    one_word: u64,
    ops: &[(usize, u64, usize)],
    eligible_seed: u64,
    far: u64,
) {
    use an2_sched::rng::SelectRng;
    let cap = PortSetN::<W>::CAPACITY;
    let n = 5 + (radix % (cap as u64 - 4)) as usize;
    let lo = 64 * (one_word % n.div_ceil(64) as u64) as usize;
    let width = (n - lo).min(64) as u64;
    let mut m = RequestMatrixN::<W>::new(n);
    // Seven sets to three clears, so columns fill as they churn.
    for &(col, raw, op) in ops {
        let (i, j) = match col {
            0 => (lo + (raw % width) as usize, 1),
            1 => ((raw % n as u64) as usize, 2),
            _ => ((raw % n as u64) as usize, 3),
        };
        let (i, j) = (InputPort::new(i), OutputPort::new(j));
        if op < 7 {
            m.set(i, j);
        } else {
            m.clear(i, j);
        }
    }
    for i in 0..n {
        m.clear(InputPort::new(i), OutputPort::new(3));
    }
    m.set(InputPort::new(0), OutputPort::new(4));
    m.set(InputPort::new(n - 1), OutputPort::new(4));

    let mut rng = Xoshiro256::seed_from(eligible_seed);
    let eligible: Vec<usize> = (0..n).filter(|_| rng.bernoulli(0.5)).collect();
    for j in (0..5).map(OutputPort::new) {
        let col = m.col(j);
        let len = col.len();
        let wrapped = (1usize << 32) + (far % (len as u64 + 2)) as usize;
        for k in (0..=len).chain([wrapped, far as usize, usize::MAX]) {
            assert_eq!(
                m.col_select_nth(j, k),
                col.select_nth(k),
                "W = {W}, n = {n}, {j:?}, k = {k}"
            );
        }
        // A `V`-word eligible set holds members below `V * 64` only, so
        // narrower sets than the switch see a prefix of `eligible`.
        let check = |v: usize, got: Vec<usize>, got_len: usize| {
            let want: Vec<usize> = col
                .iter()
                .filter(|&i| i < v * 64 && eligible.contains(&i))
                .collect();
            assert_eq!(got, want, "W = {W}, V = {v}, n = {n}, {j:?}");
            assert_eq!(got_len, want.len(), "W = {W}, V = {v}, n = {n}, {j:?}");
        };
        let e: PortSetN<1> = eligible.iter().copied().filter(|&i| i < 64).collect();
        let (got, got_len) = m.col_eligible(j, &e);
        check(1, got.iter().collect(), got_len);
        let e: PortSetN<4> = eligible.iter().copied().filter(|&i| i < 256).collect();
        let (got, got_len) = m.col_eligible(j, &e);
        check(4, got.iter().collect(), got_len);
        let e: PortSetN<16> = eligible.iter().copied().collect();
        let (got, got_len) = m.col_eligible(j, &e);
        check(16, got.iter().collect(), got_len);
    }
}

/// Deterministic word-boundary cases for the rank-select fast path: bits at
/// the first/last position of each of the four 64-bit words, the empty set,
/// index 0, and the last bit of a full set.
#[test]
fn select_nth_word_boundaries() {
    let members = [0usize, 63, 64, 127, 128, 191, 192, 255];
    let set: PortSet = members.iter().copied().collect();
    for (k, &want) in members.iter().enumerate() {
        assert_eq!(set.select_nth(k), Some(want), "k = {k}");
    }
    assert_eq!(set.select_nth(members.len()), None);
    assert_eq!(PortSet::new().select_nth(0), None);
    let full = PortSet::all(256);
    assert_eq!(full.select_nth(0), Some(0));
    assert_eq!(full.select_nth(255), Some(255));
    assert_eq!(full.select_nth(256), None);
}

// ---------------------------------------------------------------------------
// Queue-aware schedulers: MWM (LQF/OCF) and the SERENADE merge.
// ---------------------------------------------------------------------------

/// Reference optimum by skip-or-match recursion over rows — exponential,
/// fine for the `n <= 8` radii these properties run at.
fn brute_force_weight(reqs: &RequestMatrix, weights: &[Vec<u32>]) -> i64 {
    fn go(reqs: &RequestMatrix, weights: &[Vec<u32>], row: usize, used: &mut Vec<bool>) -> i64 {
        if row == reqs.n() {
            return 0;
        }
        // Skip this input entirely...
        let mut best = go(reqs, weights, row + 1, used);
        // ...or match it to any free requested output.
        for j in 0..reqs.n() {
            if !used[j] && reqs.has(InputPort::new(row), OutputPort::new(j)) {
                used[j] = true;
                let w = i64::from(weights[row][j]) + go(reqs, weights, row + 1, used);
                used[j] = false;
                best = best.max(w);
            }
        }
        best
    }
    go(reqs, weights, 0, &mut vec![false; reqs.n()])
}

/// Weights pinned to what the scheduler's Q-matrix derives from an
/// observation stream: every weight >= 1, LQF weighs depth, OCF age + 1.
fn observed_weights(n: usize, seed: u64) -> Vec<Vec<u32>> {
    use an2_sched::rng::SelectRng;
    let mut rng = Xoshiro256::seed_from(seed);
    (0..n)
        .map(|_| (0..n).map(|_| 1 + rng.index(31) as u32).collect())
        .collect()
}

fn observe_all(
    sched: &mut impl Scheduler,
    reqs: &RequestMatrix,
    weights: &[Vec<u32>],
    policy: an2_sched::WeightPolicy,
) {
    for (i, j) in reqs.pairs() {
        let w = weights[i.index()][j.index()];
        match policy {
            an2_sched::WeightPolicy::Lqf => sched.observe_queue(i, j, w, 0),
            an2_sched::WeightPolicy::Ocf => sched.observe_queue(i, j, 0, w - 1),
        }
    }
}

proptest! {
    /// MWM achieves *exactly* the brute-force max-weight optimum on every
    /// instance up to n = 8, under both weight policies, and its matching
    /// is maximal over the requests.
    #[test]
    fn mwm_achieves_the_brute_force_optimum(
        reqs in request_matrix(8),
        seed in any::<u64>(),
        lqf in proptest::bool::ANY,
    ) {
        let n = reqs.n();
        let policy = if lqf { an2_sched::WeightPolicy::Lqf } else { an2_sched::WeightPolicy::Ocf };
        let weights = observed_weights(n, seed);
        let mut sched = an2_sched::Mwm::new(n, policy);
        observe_all(&mut sched, &reqs, &weights, policy);
        let m = sched.schedule(&reqs);
        prop_assert!(m.respects(&reqs));
        prop_assert!(m.is_maximal(&reqs));
        let achieved: i64 = m.pairs()
            .map(|(i, j)| i64::from(weights[i.index()][j.index()]))
            .sum();
        prop_assert_eq!(achieved, brute_force_weight(&reqs, &weights));
    }

    /// MWM is a pure function of the *final* queue state: replaying the
    /// same observations in any shuffled order — including stale values
    /// later overwritten — yields the identical matching. This is the
    /// tie-break determinism bar: ties are broken by port index, never by
    /// observation arrival order.
    #[test]
    fn mwm_tie_breaks_ignore_observation_order(
        reqs in request_matrix(8),
        seed in any::<u64>(),
        lqf in proptest::bool::ANY,
    ) {
        use an2_sched::rng::SelectRng;
        let n = reqs.n();
        let policy = if lqf { an2_sched::WeightPolicy::Lqf } else { an2_sched::WeightPolicy::Ocf };
        let weights = observed_weights(n, seed);
        let mut obs: Vec<(InputPort, OutputPort)> = reqs.pairs().collect();

        let mut reference = an2_sched::Mwm::new(n, policy);
        observe_all(&mut reference, &reqs, &weights, policy);
        let want = reference.schedule(&reqs);

        let mut rng = Xoshiro256::seed_from(seed ^ 0x005A_FF1E);
        for _ in 0..3 {
            // Fisher–Yates shuffle of the insertion order.
            for k in (1..obs.len()).rev() {
                obs.swap(k, rng.index(k + 1));
            }
            let mut shuffled = an2_sched::Mwm::new(n, policy);
            // A pass of stale observations first: the Q-matrix keeps the
            // latest value per pair, so these must be invisible.
            for &(i, j) in &obs {
                shuffled.observe_queue(i, j, 7, 7);
            }
            for &(i, j) in &obs {
                let w = weights[i.index()][j.index()];
                match policy {
                    an2_sched::WeightPolicy::Lqf => shuffled.observe_queue(i, j, w, 0),
                    an2_sched::WeightPolicy::Ocf => shuffled.observe_queue(i, j, 0, w - 1),
                }
            }
            let got = shuffled.schedule(&reqs);
            prop_assert_eq!(
                got.pairs().collect::<Vec<_>>(),
                want.pairs().collect::<Vec<_>>(),
                "matching depends on observation insertion order"
            );
        }
    }

    /// SERENADE: both proposals are valid maximal matchings, the merge is
    /// a valid matching, and the merged weight weakly improves on both
    /// proposals.
    #[test]
    fn serenade_merge_is_valid_and_weakly_improving(
        reqs in request_matrix(32),
        seed in any::<u64>(),
    ) {
        let n = reqs.n();
        let weights = observed_weights(n, seed);
        let mut sched = an2_sched::Serenade::new(n, seed);
        observe_all(&mut sched, &reqs, &weights, an2_sched::WeightPolicy::Lqf);
        let (a, b, merged) = sched.schedule_with_proposals(&reqs);
        prop_assert!(a.respects(&reqs) && a.is_maximal(&reqs));
        prop_assert!(b.respects(&reqs) && b.is_maximal(&reqs));
        prop_assert!(merged.respects(&reqs));
        let (wa, wb, wm) = (sched.weight_of(&a), sched.weight_of(&b), sched.weight_of(&merged));
        prop_assert!(wm >= wa.max(wb), "merged {} < max({}, {})", wm, wa, wb);
    }

    /// The chaos engine's degraded-mask contract, extended to the
    /// queue-aware family: masked MWM must never touch a failed port and
    /// must stay *maximal* over the healthy sub-switch; masked SERENADE
    /// must never touch a failed port and both its proposals must stay
    /// maximal over the healthy sub-switch.
    #[test]
    fn masked_queue_aware_schedulers_respect_the_mask(
        reqs in request_matrix(32),
        seed in any::<u64>(),
        fail_in in proptest::collection::btree_set(0usize..32, 0..8),
        fail_out in proptest::collection::btree_set(0usize..32, 0..8),
        lqf in proptest::bool::ANY,
    ) {
        let n = reqs.n();
        let policy = if lqf { an2_sched::WeightPolicy::Lqf } else { an2_sched::WeightPolicy::Ocf };
        let weights = observed_weights(n, seed);
        let mut mask = PortMask::all(n);
        for &i in fail_in.iter().filter(|&&i| i < n) {
            mask.fail_input(i);
        }
        for &j in fail_out.iter().filter(|&&j| j < n) {
            mask.fail_output(j);
        }
        let healthy = RequestMatrix::from_fn(n, |i, j| {
            reqs.has(InputPort::new(i), OutputPort::new(j))
                && mask.input_active(i)
                && mask.output_active(j)
        });

        let mut mwm = an2_sched::Mwm::new(n, policy);
        observe_all(&mut mwm, &reqs, &weights, policy);
        mwm.set_port_mask(mask);
        let m = mwm.schedule(&reqs);
        prop_assert!(m.respects(&reqs));
        for (i, j) in m.pairs() {
            prop_assert!(mask.input_active(i.index()), "mwm matched failed input {}", i);
            prop_assert!(mask.output_active(j.index()), "mwm matched failed output {}", j);
        }
        prop_assert!(m.is_maximal(&healthy), "masked mwm left an augmenting healthy pair");

        let mut ser = an2_sched::Serenade::new(n, seed);
        observe_all(&mut ser, &reqs, &weights, an2_sched::WeightPolicy::Lqf);
        ser.set_port_mask(mask);
        let (a, b, merged) = ser.schedule_with_proposals(&reqs);
        for p in [&a, &b] {
            prop_assert!(p.respects(&reqs));
            prop_assert!(p.is_maximal(&healthy), "masked serenade proposal not maximal");
        }
        prop_assert!(merged.respects(&reqs));
        for (i, j) in merged.pairs() {
            prop_assert!(mask.input_active(i.index()), "serenade matched failed input {}", i);
            prop_assert!(mask.output_active(j.index()), "serenade matched failed output {}", j);
        }
    }

    /// The same degraded-mask bar at the wide radices the chaos engine
    /// schedules (N up to 1024, sparse edges).
    #[test]
    fn masked_wide_mwm_is_maximal_over_unmasked_ports(
        n in prop_oneof![Just(64usize), Just(256), Just(1024)],
        edges in proptest::collection::vec((0usize..1024, 0usize..1024), 1..160),
        seed in any::<u64>(),
        fails in proptest::collection::btree_set((0usize..1024, proptest::bool::ANY), 0..12),
    ) {
        use an2_sched::rng::SelectRng;
        use an2_sched::{WideMwm, WidePortMask, WideRequestMatrix};
        let mut reqs = WideRequestMatrix::new(n);
        for &(i, j) in edges.iter().filter(|&&(i, j)| i < n && j < n) {
            reqs.set(InputPort::new(i), OutputPort::new(j));
        }
        let mut mask = WidePortMask::all(n);
        for &(p, input_side) in fails.iter().filter(|&&(p, _)| p < n) {
            if input_side {
                mask.fail_input(p);
            } else {
                mask.fail_output(p);
            }
        }
        let mut rng = Xoshiro256::seed_from(seed);
        let mut mwm = WideMwm::lqf(n);
        for (i, j) in reqs.pairs() {
            mwm.observe_queue(i, j, 1 + rng.index(31) as u32, 0);
        }
        mwm.set_port_mask(mask);
        let m = mwm.schedule(&reqs);
        prop_assert!(m.respects(&reqs));
        for (i, j) in m.pairs() {
            prop_assert!(mask.input_active(i.index()), "wide mwm matched failed input {}", i);
            prop_assert!(mask.output_active(j.index()), "wide mwm matched failed output {}", j);
        }
        let mut healthy = WideRequestMatrix::new(n);
        for (i, j) in reqs.pairs() {
            if mask.input_active(i.index()) && mask.output_active(j.index()) {
                healthy.set(i, j);
            }
        }
        prop_assert!(m.is_maximal(&healthy), "masked wide mwm left an augmenting healthy pair");
    }
}
