//! Naive reference implementations the optimised schedulers are checked
//! against.
//!
//! Every oracle here favours obviousness over speed: plain `Vec`s, no
//! bitsets, no scratch reuse, recursion where recursion is clearest. A
//! differential test runs the optimised implementation and its oracle on
//! the same instances and fails on the first divergence. The production
//! crates carry one implementation of each scheduler; the dense sweeps
//! they are checked against live only here.

use an2_sched::islip::PointerUpdate;
use an2_sched::pim::{AcceptPolicy, IterationLimit};
use an2_sched::rng::{SelectRng, Xoshiro256};
use an2_sched::{PortMaskN, RequestMatrix};

/// Rejection draws a wide grant makes before its exact fallback; mirrors
/// the scheduler's private cap.
const GRANT_REJECT_CAP: usize = 8;

/// Textbook PIM over `Vec<Vec<bool>>` request matrices, mirroring
/// `an2_sched::PimN<Xoshiro256, W>` (use the [`ReferencePim`] and
/// [`WideReferencePim`] aliases).
///
/// Replicates the optimised scheduler's randomness *exactly*: the same
/// per-port streams (`root.split(j)` for output grants,
/// `root.split(0x1_0000 + i)` for input accepts), the same draw
/// discipline (an empty candidate set draws nothing; a non-empty one
/// draws one bounded index and picks the index-th smallest member), the
/// same phase order and early exit, and the same failed-port semantics
/// under a port mask. The width `W` decides the grant draw, as it does
/// in the scheduler: above 256 ports of capacity, an output whose
/// candidates cover at least half the switch first tries up to eight
/// `index(n)` rejection draws. Given the same seed, mask and request
/// sequence, the reference and the optimised scheduler must therefore
/// produce **identical matchings, slot after slot** — any divergence
/// convicts one of them.
#[derive(Clone, Debug)]
pub struct ReferencePimN<const W: usize> {
    n: usize,
    limit: IterationLimit,
    accept: AcceptPolicy,
    output_rng: Vec<Xoshiro256>,
    input_rng: Vec<Xoshiro256>,
    accept_ptr: Vec<usize>,
    input_active: Vec<bool>,
    output_active: Vec<bool>,
}

/// The reference for the default-width `an2_sched::Pim`.
pub type ReferencePim = ReferencePimN<4>;

/// The reference for the 1024-port `an2_sched::WidePim`.
pub type WideReferencePim = ReferencePimN<16>;

impl<const W: usize> ReferencePimN<W> {
    /// Mirrors `PimN::new`: four iterations, random accept.
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_options(n, seed, IterationLimit::Fixed(4), AcceptPolicy::Random)
    }

    /// Mirrors `PimN::with_options`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds the width's capacity (`W * 64`).
    pub fn with_options(
        n: usize,
        seed: u64,
        limit: IterationLimit,
        accept: AcceptPolicy,
    ) -> Self {
        assert!(n > 0, "switch must have at least one port");
        assert!(n <= W * 64, "switch size {n} out of range");
        let root = Xoshiro256::seed_from(seed);
        Self {
            n,
            limit,
            accept,
            output_rng: (0..n).map(|j| root.split(j as u64)).collect(),
            input_rng: (0..n).map(|i| root.split(0x1_0000 + i as u64)).collect(),
            accept_ptr: vec![0; n],
            input_active: vec![true; n],
            output_active: vec![true; n],
        }
    }

    /// The switch radix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Mirrors `Scheduler::set_port_mask`: failed inputs never request or
    /// accept, failed outputs never grant (and so never draw).
    ///
    /// # Panics
    ///
    /// Panics if the mask is not sized for this switch.
    pub fn set_port_mask(&mut self, mask: &PortMaskN<W>) {
        (self.input_active, self.output_active) = active_flags(mask, self.n);
    }

    /// One grant draw among `cands` (ascending, non-empty) from output
    /// `j`'s stream.
    fn grant(&mut self, j: usize, cands: &[usize]) -> usize {
        let n = self.n;
        let rng = &mut self.output_rng[j];
        if W * 64 > 256 && 2 * cands.len() >= n {
            for _ in 0..GRANT_REJECT_CAP {
                let p = rng.index(n);
                if cands.contains(&p) {
                    return p;
                }
            }
        }
        cands[rng.index(cands.len())]
    }

    /// Schedules one slot; `out[i]` is the output matched to input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is not `n`×`n`.
    pub fn schedule(&mut self, requests: &[Vec<bool>]) -> Vec<Option<usize>> {
        self.schedule_from(requests, &vec![None; self.n])
    }

    /// Mirrors `PimN::schedule_from`: `initial[i]` is the output input `i`
    /// is already paired with. Those pairs are kept as they are, requested
    /// or not, and their ports neither request nor grant.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is not `n`×`n`, or if `initial` is not `n`
    /// long, names an output `>= n`, or pairs one output twice.
    pub fn schedule_from(
        &mut self,
        requests: &[Vec<bool>],
        initial: &[Option<usize>],
    ) -> Vec<Option<usize>> {
        let n = self.n;
        assert_square(requests, n);
        assert_eq!(initial.len(), n, "initial matching must have n inputs");
        let mut out_of = initial.to_vec();
        let mut in_of: Vec<Option<usize>> = vec![None; n];
        for (i, j) in initial.iter().enumerate() {
            if let Some(j) = *j {
                assert!(in_of[j].replace(i).is_none(), "output {j} paired twice");
            }
        }
        let max_iters = match self.limit {
            IterationLimit::Fixed(k) => k,
            IterationLimit::ToCompletion => n,
        };
        for _ in 0..max_iters {
            // Request phase: unmatched healthy inputs with a cell for
            // unmatched healthy j, in ascending input order (the order
            // `PortSet` iterates).
            let mut requests_to: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (j, to) in requests_to.iter_mut().enumerate() {
                if in_of[j].is_some() || !self.output_active[j] {
                    continue;
                }
                for (i, row) in requests.iter().enumerate() {
                    if out_of[i].is_none() && self.input_active[i] && row[j] {
                        to.push(i);
                    }
                }
            }
            // No request anywhere: stop before any output draws.
            if requests_to.iter().all(Vec::is_empty) {
                break;
            }

            // Grant phase: each output with requests draws once, in
            // ascending output order.
            let mut grants_to: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (j, cands) in requests_to.iter().enumerate() {
                if !cands.is_empty() {
                    let i = self.grant(j, cands);
                    grants_to[i].push(j);
                }
            }

            // Accept phase: each granted input picks one grant. `grants`
            // is ascending because the grant loop ran in ascending j.
            for (i, grants) in grants_to.iter().enumerate() {
                if grants.is_empty() {
                    continue;
                }
                let j = match self.accept {
                    AcceptPolicy::Random => grants[self.input_rng[i].index(grants.len())],
                    AcceptPolicy::RoundRobin => {
                        let j = first_at_or_after(grants, self.accept_ptr[i]);
                        self.accept_ptr[i] = (j + 1) % n;
                        j
                    }
                    AcceptPolicy::LowestIndex => grants[0],
                };
                out_of[i] = Some(j);
                in_of[j] = Some(i);
            }
        }
        out_of
    }
}

/// A port mask as per-port health flags `(inputs, outputs)`.
///
/// # Panics
///
/// Panics if the mask is not sized for an `n`-port switch.
fn active_flags<const W: usize>(mask: &PortMaskN<W>, n: usize) -> (Vec<bool>, Vec<bool>) {
    assert_eq!(mask.n(), n, "mask size does not match the switch");
    (
        (0..n).map(|i| mask.input_active(i)).collect(),
        (0..n).map(|j| mask.output_active(j)).collect(),
    )
}

/// Panics unless `requests` is an `n`×`n` matrix.
fn assert_square(requests: &[Vec<bool>], n: usize) {
    assert_eq!(requests.len(), n, "request matrix must be n x n");
    for row in requests {
        assert_eq!(row.len(), n, "request matrix must be n x n");
    }
}

/// The first member of `sorted` (ascending, non-empty) at or after
/// `ptr`, wrapping to the smallest — one round-robin pointer step.
fn first_at_or_after(sorted: &[usize], ptr: usize) -> usize {
    sorted
        .iter()
        .copied()
        .find(|&x| x >= ptr)
        .unwrap_or(sorted[0])
}

/// Textbook iSLIP and RRM over `Vec<Vec<bool>>` request matrices — the
/// dense sweep the sparse `an2_sched::islip::RoundRobinMatchingN` kernel
/// must reproduce, matching *and* pointers, at every width.
///
/// Each iteration, every unmatched output grants the requesting
/// unmatched input nearest at or after its grant pointer, and every
/// granted input accepts the granting output nearest at or after its
/// accept pointer. Pointers move one past the chosen port, and only in
/// the first iteration (McKeown's iSLIP, as in the MWM→iSLIP tutorial):
///
/// * iSLIP ([`PointerUpdate::OnAcceptFirstIteration`]): an accept moves
///   the input's accept pointer and the accepted output's grant pointer;
///   a grant that is not accepted moves nothing.
/// * RRM ([`PointerUpdate::Always`]): every first-iteration grant moves
///   its output's grant pointer, accepted or not, and every accept moves
///   the input's accept pointer.
///
/// Failed ports (see [`ReferenceRoundRobin::set_port_mask`]) never
/// request, grant or accept, so their pointers never move.
#[derive(Clone, Debug)]
pub struct ReferenceRoundRobin {
    n: usize,
    iterations: usize,
    update: PointerUpdate,
    grant_ptr: Vec<usize>,
    accept_ptr: Vec<usize>,
    input_active: Vec<bool>,
    output_active: Vec<bool>,
}

impl ReferenceRoundRobin {
    /// Mirrors `RoundRobinMatchingN::islip`.
    pub fn islip(n: usize, iterations: usize) -> Self {
        Self::with_update(n, iterations, PointerUpdate::OnAcceptFirstIteration)
    }

    /// Mirrors `RoundRobinMatchingN::rrm`.
    pub fn rrm(n: usize, iterations: usize) -> Self {
        Self::with_update(n, iterations, PointerUpdate::Always)
    }

    /// Mirrors `RoundRobinMatchingN::with_update`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `iterations == 0`.
    pub fn with_update(n: usize, iterations: usize, update: PointerUpdate) -> Self {
        assert!(n > 0, "switch must have at least one port");
        assert!(iterations > 0, "iteration count must be at least 1");
        Self {
            n,
            iterations,
            update,
            grant_ptr: vec![0; n],
            accept_ptr: vec![0; n],
            input_active: vec![true; n],
            output_active: vec![true; n],
        }
    }

    /// Mirrors `Scheduler::set_port_mask`.
    ///
    /// # Panics
    ///
    /// Panics if the mask is not sized for this switch.
    pub fn set_port_mask<const W: usize>(&mut self, mask: &PortMaskN<W>) {
        (self.input_active, self.output_active) = active_flags(mask, self.n);
    }

    /// The grant pointer of every output and the accept pointer of every
    /// input, for comparison with `RoundRobinMatchingN::pointers`.
    pub fn pointers(&self) -> (&[usize], &[usize]) {
        (&self.grant_ptr, &self.accept_ptr)
    }

    /// Schedules one slot; `out[i]` is the output matched to input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is not `n`×`n`.
    pub fn schedule(&mut self, requests: &[Vec<bool>]) -> Vec<Option<usize>> {
        let n = self.n;
        assert_square(requests, n);
        let mut out_of: Vec<Option<usize>> = vec![None; n];
        let mut in_of: Vec<Option<usize>> = vec![None; n];
        for iteration in 1..=self.iterations {
            let first = iteration == 1;
            // Grant phase, in ascending output order.
            let mut grants_to: Vec<Vec<usize>> = vec![Vec::new(); n];
            let mut any = false;
            for j in 0..n {
                if in_of[j].is_some() || !self.output_active[j] {
                    continue;
                }
                let cands: Vec<usize> = (0..n)
                    .filter(|&i| out_of[i].is_none() && self.input_active[i] && requests[i][j])
                    .collect();
                if cands.is_empty() {
                    continue;
                }
                any = true;
                let i = first_at_or_after(&cands, self.grant_ptr[j]);
                grants_to[i].push(j);
                if first && self.update == PointerUpdate::Always {
                    self.grant_ptr[j] = (i + 1) % n;
                }
            }
            if !any {
                break;
            }

            // Accept phase, in ascending input order.
            for (i, grants) in grants_to.iter().enumerate() {
                if grants.is_empty() {
                    continue;
                }
                let j = first_at_or_after(grants, self.accept_ptr[i]);
                out_of[i] = Some(j);
                in_of[j] = Some(i);
                if first {
                    self.accept_ptr[i] = (j + 1) % n;
                    if self.update == PointerUpdate::OnAcceptFirstIteration {
                        self.grant_ptr[j] = (i + 1) % n;
                    }
                }
            }
        }
        out_of
    }
}

/// Kuhn's augmenting-path maximum matching — the classic `O(V · E)`
/// recursive formulation — returning the maximum matching size.
///
/// The reference oracle for the optimised bitset Hopcroft–Karp: both must
/// report the same size on every instance (the matchings themselves may
/// legitimately differ).
pub fn kuhn_maximum_matching_size(requests: &RequestMatrix) -> usize {
    const NIL: usize = usize::MAX;
    let n = requests.n();

    fn try_augment(
        i: usize,
        requests: &RequestMatrix,
        seen: &mut [bool],
        match_out: &mut [usize],
    ) -> bool {
        let n = requests.n();
        for j in 0..n {
            if !requests.has(an2_sched::InputPort::new(i), an2_sched::OutputPort::new(j))
                || seen[j]
            {
                continue;
            }
            seen[j] = true;
            if match_out[j] == NIL || try_augment(match_out[j], requests, seen, match_out) {
                match_out[j] = i;
                return true;
            }
        }
        false
    }

    let mut match_out = vec![NIL; n];
    let mut size = 0;
    for i in 0..n {
        let mut seen = vec![false; n];
        if try_augment(i, requests, &mut seen, &mut match_out) {
            size += 1;
        }
    }
    size
}

/// Brute-force frame-schedule feasibility: can `demand` (cells per pair
/// per frame) be decomposed into `frame_len` partial matchings?
///
/// Exhaustive backtracking over unit cells with one symmetry reduction
/// (empty frame slots are interchangeable, so only the first empty slot
/// is ever tried). The oracle for the incremental Slepian–Duguid insert:
/// by the theorem, feasibility should hold exactly when every input and
/// output load is at most `frame_len` — this search proves it per
/// instance without invoking the theorem. Keep instances small (`n`,
/// `frame_len` ≲ 6): the search is exponential by design.
///
/// # Panics
///
/// Panics if `demand` is not square.
pub fn frame_demand_feasible(demand: &[Vec<usize>], frame_len: usize) -> bool {
    let n = demand.len();
    for row in demand {
        assert_eq!(row.len(), n, "demand matrix must be square");
    }
    let mut cells = Vec::new();
    for (i, row) in demand.iter().enumerate() {
        for (j, &count) in row.iter().enumerate() {
            for _ in 0..count {
                cells.push((i, j));
            }
        }
    }
    if cells.len() > n * frame_len {
        return false;
    }

    struct Search<'a> {
        cells: &'a [(usize, usize)],
        in_used: Vec<Vec<bool>>,
        out_used: Vec<Vec<bool>>,
        slot_load: Vec<usize>,
    }
    impl Search<'_> {
        fn place(&mut self, k: usize) -> bool {
            if k == self.cells.len() {
                return true;
            }
            let (i, j) = self.cells[k];
            let mut tried_empty = false;
            for s in 0..self.slot_load.len() {
                if self.slot_load[s] == 0 {
                    if tried_empty {
                        continue; // interchangeable with the one we tried
                    }
                    tried_empty = true;
                }
                if self.in_used[s][i] || self.out_used[s][j] {
                    continue;
                }
                self.in_used[s][i] = true;
                self.out_used[s][j] = true;
                self.slot_load[s] += 1;
                if self.place(k + 1) {
                    return true;
                }
                self.in_used[s][i] = false;
                self.out_used[s][j] = false;
                self.slot_load[s] -= 1;
            }
            false
        }
    }

    Search {
        cells: &cells,
        in_used: vec![vec![false; n]; frame_len],
        out_used: vec![vec![false; n]; frame_len],
        slot_load: vec![0; frame_len],
    }
    .place(0)
}

/// Exact maximum-weight matching value by dynamic programming over
/// subsets of the **active** output columns — `O(R · 2^C · C)` for `R`
/// nonempty rows and `C` nonempty columns, factorial-free.
///
/// The differential oracle for the MWM scheduler family: the optimised
/// augmenting-path solver must achieve exactly this total weight on
/// every instance (the matchings themselves may legitimately differ when
/// several are optimal). `weight(i, j)` is consulted only for requested
/// pairs and must be positive, mirroring the scheduler's ≥ 1 clamp.
///
/// Subsets are taken over the *distinct requested columns* rather than
/// all `N` outputs, so sparse wide instances (say 32 ports but 10
/// requested outputs) stay cheap; generate oracle instances with a
/// bounded column footprint rather than a bounded radix.
///
/// # Panics
///
/// Panics if more than 20 distinct columns hold requests (the DP table
/// would exceed a million entries — shrink the instance instead).
pub fn brute_force_max_weight_matching<const W: usize>(
    requests: &an2_sched::RequestMatrixN<W>,
    weight: &dyn Fn(usize, usize) -> i64,
) -> i64 {
    use an2_sched::{InputPort, OutputPort};
    let cols: Vec<usize> = requests.nonempty_cols().iter().collect();
    let c = cols.len();
    assert!(
        c <= 20,
        "brute-force max-weight DP supports at most 20 active columns, got {c}"
    );
    const UNREACHED: i64 = i64::MIN;
    // dp[mask] = best total weight of any matching that uses exactly the
    // columns in `mask`, over the rows processed so far.
    let mut dp = vec![UNREACHED; 1 << c];
    dp[0] = 0;
    for i in requests.nonempty_rows().iter() {
        let prev = dp.clone();
        for (mask, &base) in prev.iter().enumerate() {
            if base == UNREACHED {
                continue;
            }
            for (bit, &j) in cols.iter().enumerate() {
                if mask & (1 << bit) == 0
                    && requests.has(InputPort::new(i), OutputPort::new(j))
                {
                    let extended = base + weight(i, j);
                    if extended > dp[mask | (1 << bit)] {
                        dp[mask | (1 << bit)] = extended;
                    }
                }
            }
        }
    }
    dp.into_iter().max().expect("dp table is never empty")
}

/// Whether `measured` agrees with an analytic `predicted` value within
/// `rel_tol` relative error (plus `abs_tol` slack for near-zero targets).
///
/// The confidence bound for the M/D/1 / Karol cross-checks: simulations
/// are finite, so exact equality is never expected.
pub fn within_confidence(measured: f64, predicted: f64, rel_tol: f64, abs_tol: f64) -> bool {
    (measured - predicted).abs() <= predicted.abs() * rel_tol + abs_tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kuhn_on_a_known_instance() {
        // Perfect matching exists on the identity plus one extra edge.
        let reqs = RequestMatrix::from_fn(4, |i, j| i == j || (i == 0 && j == 1));
        assert_eq!(kuhn_maximum_matching_size(&reqs), 4);
        // A star: all inputs want output 0 only.
        let star = RequestMatrix::from_fn(4, |_, j| j == 0);
        assert_eq!(kuhn_maximum_matching_size(&star), 1);
    }

    #[test]
    fn frame_feasibility_matches_the_load_condition() {
        // Loads <= frame_len: feasible.
        let ok = vec![vec![2, 1, 0], vec![1, 0, 2], vec![0, 2, 1]];
        assert!(frame_demand_feasible(&ok, 3));
        // One output overloaded: infeasible.
        let over = vec![vec![2, 0, 0], vec![2, 0, 0], vec![0, 0, 0]];
        assert!(!frame_demand_feasible(&over, 3));
    }

    #[test]
    fn max_weight_dp_on_known_instances() {
        // Diagonal wins over the heavier single edge plus nothing.
        let reqs = RequestMatrix::from_pairs(3, [(0, 0), (0, 1), (1, 0), (2, 2)]);
        let w = |i: usize, j: usize| -> i64 { [[5, 9, 1], [8, 1, 1], [1, 1, 3]][i][j] };
        // Options: {0-1, 1-0, 2-2} = 9 + 8 + 3 = 20 is optimal.
        assert_eq!(brute_force_max_weight_matching(&reqs, &w), 20);
        // Empty matrix: the empty matching.
        assert_eq!(
            brute_force_max_weight_matching(&RequestMatrix::new(4), &|_, _| 1),
            0
        );
    }

    #[test]
    fn max_weight_dp_matches_naive_recursion() {
        // Cross-check the subset DP against a transparent skip-or-match
        // recursion on tiny random instances.
        fn naive(reqs: &RequestMatrix, w: &dyn Fn(usize, usize) -> i64) -> i64 {
            fn go(
                reqs: &RequestMatrix,
                w: &dyn Fn(usize, usize) -> i64,
                i: usize,
                used: &mut Vec<bool>,
            ) -> i64 {
                if i == reqs.n() {
                    return 0;
                }
                let mut best = go(reqs, w, i + 1, used);
                for j in 0..reqs.n() {
                    if !used[j]
                        && reqs.has(
                            an2_sched::InputPort::new(i),
                            an2_sched::OutputPort::new(j),
                        )
                    {
                        used[j] = true;
                        best = best.max(w(i, j) + go(reqs, w, i + 1, used));
                        used[j] = false;
                    }
                }
                best
            }
            go(reqs, w, 0, &mut vec![false; reqs.n()])
        }
        let mut rng = Xoshiro256::seed_from(0xD0);
        for _ in 0..100 {
            let n = 1 + rng.index(6);
            let density = rng.uniform_f64();
            let reqs = RequestMatrix::from_fn(n, |_, _| rng.bernoulli(density));
            let weights: Vec<i64> = (0..n * n).map(|_| 1 + rng.index(9) as i64).collect();
            let w = |i: usize, j: usize| weights[i * n + j];
            assert_eq!(
                brute_force_max_weight_matching(&reqs, &w),
                naive(&reqs, &w)
            );
        }
    }

    #[test]
    fn confidence_bounds() {
        assert!(within_confidence(1.02, 1.0, 0.05, 0.0));
        assert!(!within_confidence(1.2, 1.0, 0.05, 0.0));
        assert!(within_confidence(0.001, 0.0, 0.05, 0.01));
    }
}
