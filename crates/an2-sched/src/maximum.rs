//! Maximum bipartite matching — the §3.4 comparison point.
//!
//! The paper rejects maximum matching for hardware (too slow:
//! `O(N·(N+M))`; and it can starve connections) but uses it as the yardstick
//! for how much throughput maximal matching sacrifices ("the number of
//! pairings in a maximal match can be as small as 50% of ... a maximum
//! match"). This module implements Hopcroft–Karp, `O(M·√N)`, so the
//! simulator can run an idealized maximum-matching switch and the benches
//! can quantify the gap.
//!
//! The implementation works over the [`PortSet`] bitset rows of the request
//! matrix rather than per-edge adjacency lists: a greedy seeding pass grabs
//! the easy pairings word-parallel, BFS layers are built by OR-ing whole
//! adjacency rows of the input frontier (4 words per row at
//! `MAX_PORTS = 256`), and the DFS phase prunes with an `avail` output mask
//! so dead or consumed outputs cost zero edge scans for the rest of the
//! phase. Everything runs on stack bitsets plus the reusable scratch arrays,
//! preserving the zero-allocation hot path.

use crate::check::Contract;
use crate::matching::MatchingN;
use crate::port::{InputPort, OutputPort, PortSetN};
use crate::requests::RequestMatrixN;
use crate::scheduler::{PortMaskN, Scheduler};

const NIL: usize = usize::MAX;
const INF: u32 = u32::MAX;

/// Computes a maximum matching of the request graph with Hopcroft–Karp.
///
/// Deterministic: ties break toward lower port indices (which is exactly the
/// behaviour that produces the §3.4 starvation example — see
/// [`MaximumMatching`] for the scheduler wrapper and its tests). Generic over
/// the bitset width `W`, which is inferred from the request matrix.
///
/// # Examples
///
/// ```
/// use an2_sched::{maximum::hopcroft_karp, RequestMatrix};
/// // 0->{0,1}, 1->{0}: maximum match pairs both inputs.
/// let reqs = RequestMatrix::from_pairs(2, [(0, 0), (0, 1), (1, 0)]);
/// assert_eq!(hopcroft_karp(&reqs).len(), 2);
/// ```
pub fn hopcroft_karp<const W: usize>(requests: &RequestMatrixN<W>) -> MatchingN<W> {
    let n = requests.n();
    hopcroft_karp_masked(
        requests,
        &PortSetN::all(n),
        &PortSetN::all(n),
        &mut HkScratch::default(),
    )
}

/// Reusable working storage for [`hopcroft_karp_masked`]; owning one lets a
/// scheduler run Hopcroft–Karp every slot without reallocating.
#[derive(Clone, Debug, Default)]
struct HkScratch {
    match_in: Vec<usize>,
    match_out: Vec<usize>,
    dist: Vec<u32>,
}

/// Hopcroft–Karp restricted to the healthy sub-graph: failed inputs never
/// seed the greedy pass or the BFS, and edges to failed outputs are masked
/// out of every row intersection, so no failed port appears in the result.
/// With full masks every filter is an identity and the run is bit-identical
/// to the unmasked algorithm (it is fully deterministic — no RNG alignment
/// to worry about).
// an2-lint: hot
// an2-lint: allow(overflow-discipline) BFS level numbers are bounded by n per phase
// an2-lint: allow(panic-freedom) BFS arrays are sized n and frontier indices come from the validated request matrix
fn hopcroft_karp_masked<const W: usize>(
    requests: &RequestMatrixN<W>,
    active_inputs: &PortSetN<W>,
    active_outputs: &PortSetN<W>,
    scratch: &mut HkScratch,
) -> MatchingN<W> {
    let n = requests.n();
    // match_in[i] = output matched to input i (NIL if free), and vice versa.
    // clear+resize reuses capacity; only the first call on a given size
    // allocates, which the zero_alloc test's warm-up run absorbs.
    scratch.match_in.clear();
    scratch.match_in.resize(n, NIL); // an2-lint: allow(alloc-in-hot-path) warm-up only; capacity reused after first slot
    scratch.match_out.clear();
    scratch.match_out.resize(n, NIL); // an2-lint: allow(alloc-in-hot-path) warm-up only; capacity reused after first slot
    scratch.dist.clear();
    scratch.dist.resize(n, INF); // an2-lint: allow(alloc-in-hot-path) warm-up only; capacity reused after first slot
    let match_in = &mut scratch.match_in[..];
    let match_out = &mut scratch.match_out[..];
    let dist = &mut scratch.dist[..];

    // Greedy seeding: pair each input with its first still-free requested
    // output. On random matrices this settles most ports before the first
    // BFS, cutting the number of Hopcroft–Karp phases dramatically.
    let mut free_out = *active_outputs;
    for i in active_inputs.iter() {
        if let Some(j) = requests
            .row(InputPort::new(i))
            .intersection(&free_out)
            .first()
        {
            match_in[i] = j;
            match_out[j] = i;
            free_out.remove(j);
        }
    }

    loop {
        // BFS, word-parallel: each alternating-path layer of outputs is the
        // OR of the frontier inputs' adjacency rows, masked to active and
        // not-yet-visited outputs. Stops at the first layer containing a
        // free output — all augmenting paths this phase end there.
        dist.fill(INF);
        let mut frontier = PortSetN::<W>::new();
        for i in active_inputs.iter() {
            if match_in[i] == NIL {
                dist[i] = 0;
                frontier.insert(i);
            }
        }
        let mut visited_out = PortSetN::<W>::new();
        let mut depth: u32 = 0;
        let mut found_augmenting_layer = false;
        while !frontier.is_empty() {
            let mut reach = PortSetN::<W>::new();
            for i in frontier.iter() {
                reach = reach.union(requests.row(InputPort::new(i)));
            }
            reach = reach.intersection(active_outputs).difference(&visited_out);
            if !reach.is_disjoint(&free_out) {
                found_augmenting_layer = true;
                break;
            }
            visited_out = visited_out.union(&reach);
            depth += 1;
            let mut next = PortSetN::<W>::new();
            for j in reach.iter() {
                // Every output in `reach` is matched (the free ones broke out
                // above); its partner input is the sole continuation.
                let i = match_out[j];
                if dist[i] == INF {
                    dist[i] = depth;
                    next.insert(i);
                }
            }
            frontier = next;
        }
        if !found_augmenting_layer {
            break;
        }
        // DFS phase: a maximal set of vertex-disjoint shortest augmenting
        // paths. `avail` masks outputs already consumed by a path or proven
        // dead ends, so each pruned output disappears from every later row
        // intersection in one word-AND.
        let mut avail = *active_outputs;
        for i in active_inputs.iter() {
            if match_in[i] == NIL {
                try_augment(
                    requests,
                    i,
                    match_in,
                    match_out,
                    dist,
                    &mut avail,
                    &mut free_out,
                );
            }
        }
    }

    let mut m = MatchingN::new(n);
    for (i, &j) in match_in.iter().enumerate() {
        if j != NIL {
            m.pair(InputPort::new(i), OutputPort::new(j))
                .expect("Hopcroft-Karp produced a conflict");
        }
    }
    m
}

// an2-lint: hot
// an2-lint: allow(panic-freedom) augmenting-path indices come from adjacency rows over validated ports < n
fn try_augment<const W: usize>(
    requests: &RequestMatrixN<W>,
    i: usize,
    match_in: &mut [usize],
    match_out: &mut [usize],
    dist: &mut [u32],
    avail: &mut PortSetN<W>,
    free_out: &mut PortSetN<W>,
) -> bool {
    let candidates = requests.row(InputPort::new(i)).intersection(avail);
    for j in candidates.iter() {
        // Deeper recursion may have pruned j out of `avail` since the
        // snapshot above was taken.
        if !avail.contains(j) {
            continue;
        }
        let next = match_out[j];
        if next == NIL {
            avail.remove(j);
            free_out.remove(j);
            match_in[i] = j;
            match_out[j] = i;
            return true;
        }
        // Only tight (layer d -> layer d+1) edges participate; a non-tight
        // edge stays in `avail` for inputs on j's own layer.
        if dist[next] == dist[i] + 1 {
            if try_augment(requests, next, match_in, match_out, dist, avail, free_out) {
                avail.remove(j);
                match_in[i] = j;
                match_out[j] = i;
                return true;
            }
            // `next` is a dead end this phase, and it is j's only
            // continuation, so j is dead for every caller too.
            avail.remove(j);
        }
    }
    dist[i] = INF; // dead end; prune for the rest of this phase
    false
}

/// A scheduler that computes a fresh maximum matching every slot.
///
/// Used as the idealized upper-bound comparator in delay/throughput
/// experiments. Note §3.4's warning: because it is deterministic and
/// size-greedy, it **can starve** particular connections indefinitely — the
/// unit tests below reproduce the paper's Figure 2 starvation example.
///
/// Carries reusable Hopcroft–Karp working arrays so repeated `schedule`
/// calls on a fixed radix allocate nothing; the scratch is not semantic
/// state (the algorithm is stateless across slots). Generic over the bitset
/// width `W`; use the [`MaximumMatching`] alias unless you are driving a
/// wide (up to 1024-port) switch.
#[derive(Clone, Debug, Default)]
pub struct MaximumMatchingN<const W: usize = 4> {
    scratch: HkScratch,
    /// Port health mask; `None` until `set_port_mask` is first called. The
    /// scheduler is radix-agnostic, so the size check happens per `schedule`
    /// call against the presented request matrix.
    mask: Option<PortMaskN<W>>,
}

/// The default-width maximum-matching scheduler (up to [`crate::MAX_PORTS`]
/// ports).
pub type MaximumMatching = MaximumMatchingN<4>;

/// The wide maximum-matching scheduler (up to [`crate::MAX_WIDE_PORTS`]
/// ports).
pub type WideMaximumMatching = MaximumMatchingN<16>;

impl<const W: usize> MaximumMatchingN<W> {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<const W: usize> Scheduler<W> for MaximumMatchingN<W> {
    // an2-lint: allow(panic-freedom) the size assert_eq pins requests.n() == self.n
    fn schedule(&mut self, requests: &RequestMatrixN<W>) -> MatchingN<W> {
        let n = requests.n();
        let full = PortSetN::all(n);
        let (active_inputs, active_outputs) = match &self.mask {
            Some(mask) => {
                assert_eq!(
                    mask.n(),
                    n,
                    "mask size {} does not match request matrix size {n}",
                    mask.n()
                );
                (*mask.active_inputs(), *mask.active_outputs())
            }
            None => (full, full),
        };
        hopcroft_karp_masked(requests, &active_inputs, &active_outputs, &mut self.scratch)
    }

    fn name(&self) -> &'static str {
        "maximum"
    }

    fn contract(&self) -> Contract {
        // A maximum matching is maximal: an augmenting edge would grow it.
        Contract {
            maximal: true,
            maximum_cardinality: true,
            ..Contract::LEGAL
        }
    }

    fn idle_slot_is_noop(&self) -> bool {
        // Hopcroft–Karp is a pure function of the request matrix (the
        // scratch is content-free between calls); an empty matrix yields
        // an empty matching with no state change.
        true
    }

    fn set_port_mask(&mut self, mask: PortMaskN<W>) {
        self.mask = Some(mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requests::RequestMatrix;
    use crate::rng::Xoshiro256;
    use crate::scheduler::PortMask;

    #[test]
    fn empty_graph() {
        assert!(hopcroft_karp(&RequestMatrix::new(4)).is_empty());
    }

    #[test]
    fn full_graph_is_perfect() {
        let reqs = RequestMatrix::from_fn(8, |_, _| true);
        let m = hopcroft_karp(&reqs);
        assert!(m.is_perfect());
        assert!(m.respects(&reqs));
    }

    #[test]
    fn diagonal_graph() {
        let reqs = RequestMatrix::from_fn(6, |i, j| i == j);
        let m = hopcroft_karp(&reqs);
        assert_eq!(m.len(), 6);
        for (i, j) in m.pairs() {
            assert_eq!(i.index(), j.index());
        }
    }

    #[test]
    fn augmenting_path_is_found() {
        // 0->{0}, 1->{0,1}: greedy 1->0 would strand input 0; maximum
        // matching must match both.
        let reqs = RequestMatrix::from_pairs(2, [(0, 0), (1, 0), (1, 1)]);
        let m = hopcroft_karp(&reqs);
        assert_eq!(m.len(), 2);
        assert_eq!(m.output_of(InputPort::new(0)), Some(OutputPort::new(0)));
        assert_eq!(m.output_of(InputPort::new(1)), Some(OutputPort::new(1)));
    }

    #[test]
    fn long_augmenting_chain() {
        // Chain: i -> {i, i+1} for i in 0..n-1, input n-1 -> {n-1}.
        // Maximum match is perfect (i -> i) but requires augmentation if the
        // search first pairs i -> i+1.
        let n = 16;
        let reqs = RequestMatrix::from_fn(n, |i, j| j == i || j == i + 1);
        let m = hopcroft_karp(&reqs);
        assert_eq!(m.len(), n);
    }

    #[test]
    fn reverse_chain_forces_augmentation() {
        // i -> {i-1, i} with input 0 -> {0}: the greedy pass pairs input i
        // with output i-1 for i >= 1 (lower index first), stranding input 0,
        // so every pairing must be flipped through augmenting paths.
        let n = 16;
        let reqs = RequestMatrix::from_fn(n, |i, j| j == i || j + 1 == i);
        let m = hopcroft_karp(&reqs);
        assert_eq!(m.len(), n);
        assert!(m.respects(&reqs));
    }

    #[test]
    fn matches_slow_reference_on_random_graphs() {
        // Cross-check the bitset Hopcroft–Karp's matching *size* against a
        // dead-simple per-edge augmenting-path algorithm (Kuhn's) on random
        // graphs across densities, including sizes that span word
        // boundaries.
        fn kuhn(reqs: &RequestMatrix) -> usize {
            let n = reqs.n();
            let mut match_out = vec![NIL; n];
            fn dfs(
                reqs: &RequestMatrix,
                i: usize,
                seen: &mut [bool],
                match_out: &mut [usize],
            ) -> bool {
                for j in reqs.row(InputPort::new(i)).iter() {
                    if !seen[j] {
                        seen[j] = true;
                        if match_out[j] == NIL
                            || dfs(reqs, match_out[j], seen, match_out)
                        {
                            match_out[j] = i;
                            return true;
                        }
                    }
                }
                false
            }
            let mut size = 0;
            for i in 0..n {
                let mut seen = vec![false; n];
                if dfs(reqs, i, &mut seen, &mut match_out) {
                    size += 1;
                }
            }
            size
        }
        let mut root = Xoshiro256::seed_from(0xB17);
        for &n in &[3, 16, 63, 64, 65, 130] {
            for &density in &[0.05, 0.2, 0.6, 0.95] {
                let reqs = RequestMatrix::random(n, density, &mut root);
                let m = hopcroft_karp(&reqs);
                assert_eq!(m.len(), kuhn(&reqs), "n={n} density={density}");
                assert!(m.respects(&reqs));
            }
        }
    }

    #[test]
    fn wide_hopcroft_karp_spans_word_boundaries() {
        use crate::requests::WideRequestMatrix;
        // Reverse chain at n=520 (crosses eight 64-bit words): perfect
        // matching exists but only via augmentation.
        let n = 520;
        let reqs = WideRequestMatrix::from_fn(n, |i, j| j == i || j + 1 == i);
        let m = hopcroft_karp(&reqs);
        assert_eq!(m.len(), n);
        assert!(m.respects(&reqs));
    }

    #[test]
    fn starvation_example_from_section_3_4() {
        // Figure 2's pattern: input 0 requests {1,3}; inputs 1,2 request {1};
        // input 3 requests {3}. §3.4: "maximum matching would never connect
        // input 1 with output 2" (1-based) — a deterministic maximum
        // scheduler produces the same matching every slot, so whichever
        // connection loses, loses forever. Assert that repeat invocations
        // are identical, the mechanism behind the starvation.
        let reqs = RequestMatrix::from_pairs(4, [(0, 1), (0, 3), (1, 1), (2, 1), (3, 3)]);
        let mut sched = MaximumMatching::new();
        let first = sched.schedule(&reqs);
        for _ in 0..10 {
            assert_eq!(sched.schedule(&reqs), first);
        }
    }

    #[test]
    fn scheduler_name() {
        assert_eq!(MaximumMatching::new().name(), "maximum");
    }

    #[test]
    fn masked_maximum_excludes_failed_ports() {
        let reqs = RequestMatrix::from_fn(6, |_, _| true);
        let mut s = MaximumMatching::new();
        let mut mask = PortMask::all(6);
        mask.fail_input(1);
        mask.fail_output(4);
        s.set_port_mask(mask);
        let m = s.schedule(&reqs);
        assert_eq!(m.len(), 5);
        assert!(m.output_of(InputPort::new(1)).is_none());
        assert!(m.input_of(OutputPort::new(4)).is_none());
        // Full mask restores the unmasked (deterministic) result.
        s.set_port_mask(PortMask::all(6));
        assert_eq!(s.schedule(&reqs), hopcroft_karp(&reqs));
    }
}
