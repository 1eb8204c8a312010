//! SERENADE-style randomized matching: merge two random matchings.
//!
//! SERENADE (Gong et al., PAPERS.md) observes that a near-MWM matching
//! can be built in O(log N) parallel rounds by drawing **two** random
//! matchings and merging them: their union decomposes into disjoint
//! paths and even alternating cycles ("ouroboroi"), and within each
//! component the heavier of the two sub-matchings can be kept
//! independently of every other component. The result is always a valid
//! matching whose total Q-matrix weight is at least `max(w(A), w(B))` —
//! component-wise maximization dominates either global input.
//!
//! This reproduction keeps SERENADE's *semantics* — two fresh uniform
//! random maximal proposals per slot, component-wise heavier-side
//! resolution, queue weights via the [`Scheduler::observe_queue`] hook —
//! while replacing the paper's distributed knowledge-discovery walk with
//! a centralized component scan (the repo simulates the switch, it does
//! not distribute it). The parallel structure is still real: components
//! are independent by construction, so [`SerenadeN::schedule_staged`]
//! fans the per-component weighing over an `an2-task` pool and is
//! bit-identical to the serial [`Scheduler::schedule`] at any worker
//! count (`Pool::map` returns results in item order and the weighing is
//! a pure function of the proposals).
//!
//! Randomness follows the house discipline (see `ReferencePim` in
//! an2-verify): per-input split streams (`root.split(i)` for proposal A,
//! `root.split(0x1_0000 + i)` for proposal B), an empty candidate set
//! draws nothing. Failed ports therefore never consume a draw and
//! healthy ports keep their streams aligned under any mask history.

use crate::check::Contract;
use crate::matching::MatchingN;
use crate::mwm::{QMatrix, WeightPolicy};
use crate::port::{InputPort, OutputPort, PortSetN};
use crate::requests::RequestMatrixN;
use crate::rng::{SelectRng, Xoshiro256};
use crate::scheduler::{PortMaskN, Scheduler};
use an2_task::Pool;

const NIL: u32 = u32::MAX;

/// Reusable working storage: the two proposals (both directions) and the
/// component scan arena.
#[derive(Clone, Debug, Default)]
struct SerenadeScratch {
    /// Proposal A, input side: `a_out[i]` = output granted to input `i`.
    a_out: Vec<u32>,
    /// Proposal A, output side: `a_in[j]` = input holding output `j`.
    a_in: Vec<u32>,
    /// Proposal B, input side.
    b_out: Vec<u32>,
    /// Proposal B, output side.
    b_in: Vec<u32>,
    /// Flat arena of component members (input indices), in discovery order.
    comp_arena: Vec<u32>,
    /// `(start, end)` ranges into `comp_arena`, one per component.
    comp_ranges: Vec<(u32, u32)>,
}

/// The SERENADE-style scheduler, generic over the bitset width `W`. Use
/// the [`Serenade`] alias unless you are driving a wide (up to 1024-port)
/// switch.
#[derive(Clone, Debug)]
pub struct SerenadeN<const W: usize = 4> {
    n: usize,
    policy: WeightPolicy,
    q: QMatrix,
    a_rng: Vec<Xoshiro256>,
    b_rng: Vec<Xoshiro256>,
    mask: Option<PortMaskN<W>>,
    scratch: SerenadeScratch,
}

/// The default-width SERENADE scheduler (up to [`crate::MAX_PORTS`] ports).
pub type Serenade = SerenadeN<4>;

/// The wide SERENADE scheduler (up to [`crate::MAX_WIDE_PORTS`] ports).
pub type WideSerenade = SerenadeN<16>;

impl<const W: usize> SerenadeN<W> {
    /// Creates an `n`-port SERENADE scheduler weighing queues LQF-style.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds the width's capacity (`W * 64`).
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_policy(n, seed, WeightPolicy::Lqf)
    }

    /// Creates the scheduler with an explicit weight policy.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds the width's capacity (`W * 64`).
    pub fn with_policy(n: usize, seed: u64, policy: WeightPolicy) -> Self {
        assert!(n > 0, "switch must have at least one port");
        assert!(n <= PortSetN::<W>::CAPACITY, "switch size {n} out of range");
        let root = Xoshiro256::seed_from(seed);
        Self {
            n,
            policy,
            q: QMatrix::new(n),
            a_rng: (0..n).map(|i| root.split(i as u64)).collect(),
            b_rng: (0..n).map(|i| root.split(0x1_0000 + i as u64)).collect(),
            mask: None,
            scratch: SerenadeScratch {
                // Full capacity up front: component structure varies from
                // slot to slot (it follows the random proposals), so
                // "grow to steady state during warm-up" does not hold for
                // the arena the way it does for fixed-size scratch. Every
                // input appears in at most one component, so `n` bounds
                // both the arena and the range list for good.
                comp_arena: Vec::with_capacity(n),
                comp_ranges: Vec::with_capacity(n),
                ..SerenadeScratch::default()
            },
        }
    }

    /// The switch radix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The total Q-matrix weight of `m` under this scheduler's current
    /// observations (requested-but-unobserved pairs weigh 1).
    pub fn weight_of(&self, m: &MatchingN<W>) -> i64 {
        m.pairs().map(|(i, j)| self.q.weight(i.index(), j.index())).sum()
    }

    /// Like [`Scheduler::schedule`] but also returns the two random
    /// proposals the slot's matching was merged from, `(a, b, merged)`.
    /// Consumes the same random draws as `schedule`; the contract checker
    /// uses it to verify the merge guarantee `w(merged) >= max(w(a), w(b))`
    /// that [`Scheduler::contract`] declares.
    pub fn schedule_with_proposals(
        &mut self,
        requests: &RequestMatrixN<W>,
    ) -> (MatchingN<W>, MatchingN<W>, MatchingN<W>) {
        let (active_inputs, active_outputs) = self.active_sets(requests);
        self.propose(requests, &active_inputs, &active_outputs);
        let n = self.n;
        let mut a = MatchingN::new(n);
        let mut b = MatchingN::new(n);
        for i in 0..n {
            if self.scratch.a_out[i] != NIL {
                a.pair(InputPort::new(i), OutputPort::new(self.scratch.a_out[i] as usize))
                    .expect("proposal A is not a matching");
            }
            if self.scratch.b_out[i] != NIL {
                b.pair(InputPort::new(i), OutputPort::new(self.scratch.b_out[i] as usize))
                    .expect("proposal B is not a matching");
            }
        }
        self.find_components();
        let merged = self.resolve_components(None);
        (a, b, merged)
    }

    /// The staged parallel variant: the per-component weighing fans out
    /// over `pool`, and the result is bit-identical to the serial
    /// [`Scheduler::schedule`] at any worker count.
    pub fn schedule_staged(&mut self, requests: &RequestMatrixN<W>, pool: &Pool) -> MatchingN<W> {
        let (active_inputs, active_outputs) = self.active_sets(requests);
        self.propose(requests, &active_inputs, &active_outputs);
        self.find_components();
        // Stage: one task per ouroboros component, each deciding which
        // sub-matching is heavier. Pure reads over the proposals and the
        // Q-matrix; `Pool::map` slots results by item index, so the
        // decision vector is independent of worker count and stealing.
        let ranges: Vec<(u32, u32)> = self.scratch.comp_ranges.clone();
        let scr = &self.scratch;
        let q = &self.q;
        let decisions = pool.map(ranges, |_, (start, end)| {
            let members = &scr.comp_arena[start as usize..end as usize];
            let (wa, wb) = component_weights(q, &scr.a_out, &scr.b_out, members);
            wa >= wb
        });
        self.resolve_components(Some(&decisions))
    }

    // an2-lint: allow(panic-freedom) pair indices come from the admitted sparse active list, all < n
    fn active_sets(&self, requests: &RequestMatrixN<W>) -> (PortSetN<W>, PortSetN<W>) {
        let n = requests.n();
        assert_eq!(n, self.n, "request matrix size {n} != scheduler size {}", self.n);
        let full = PortSetN::all(n);
        match &self.mask {
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
        }
    }

    /// Draws the two random maximal proposals. Each input, in ascending
    /// order, picks uniformly among its still-free requested healthy
    /// outputs; an input always takes an output when one is available, so
    /// each proposal is maximal over the healthy sub-graph by
    /// construction (free outputs only ever get consumed).
    // an2-lint: allow(panic-freedom) per-port proposal arrays are sized n and indexed by validated ports
    fn propose(
        &mut self,
        requests: &RequestMatrixN<W>,
        active_inputs: &PortSetN<W>,
        active_outputs: &PortSetN<W>,
    ) {
        let n = self.n;
        let scr = &mut self.scratch;
        scr.a_out.clear();
        scr.a_out.resize(n, NIL); // an2-lint: allow(alloc-in-hot-path) warm-up only; capacity reused after first slot
        scr.a_in.clear();
        scr.a_in.resize(n, NIL); // an2-lint: allow(alloc-in-hot-path) warm-up only; capacity reused after first slot
        scr.b_out.clear();
        scr.b_out.resize(n, NIL); // an2-lint: allow(alloc-in-hot-path) warm-up only; capacity reused after first slot
        scr.b_in.clear();
        scr.b_in.resize(n, NIL); // an2-lint: allow(alloc-in-hot-path) warm-up only; capacity reused after first slot
        let mut free_a = *active_outputs;
        let mut free_b = *active_outputs;
        for i in requests.nonempty_rows().intersection(active_inputs).iter() {
            let row = requests.row(InputPort::new(i));
            if let Some(j) = self.a_rng[i].choose(&row.intersection(&free_a)) {
                scr.a_out[i] = j as u32;
                scr.a_in[j] = i as u32;
                free_a.remove(j);
            }
            if let Some(j) = self.b_rng[i].choose(&row.intersection(&free_b)) {
                scr.b_out[i] = j as u32;
                scr.b_in[j] = i as u32;
                free_b.remove(j);
            }
        }
    }

    /// Decomposes the union of the two proposals into its path/cycle
    /// components, as input-index sets. Two inputs are neighbours when
    /// one's A-output is the other's B-output; every input has at most
    /// two neighbours, so each component is a simple path or an even
    /// cycle, and every output's A-owner and B-owner land in the same
    /// component — which is what makes per-component resolution safe.
    // an2-lint: allow(overflow-discipline) component ids and sizes are bounded by n
    // an2-lint: allow(panic-freedom) successor/visited arrays are sized n; union links stay within 0..n
    fn find_components(&mut self) {
        let scr = &mut self.scratch;
        scr.comp_arena.clear();
        scr.comp_ranges.clear();
        let mut visited = PortSetN::<W>::new();
        for start in 0..self.n {
            if visited.contains(start)
                || (scr.a_out[start] == NIL && scr.b_out[start] == NIL)
            {
                continue;
            }
            let comp_start = scr.comp_arena.len() as u32;
            visited.insert(start);
            scr.comp_arena.push(start as u32); // an2-lint: allow(alloc-in-hot-path) warm-up only; capacity reused after first slot
            let mut k = comp_start as usize;
            while k < scr.comp_arena.len() {
                let i = scr.comp_arena[k] as usize;
                k += 1;
                for nb in [
                    if scr.a_out[i] != NIL { scr.b_in[scr.a_out[i] as usize] } else { NIL },
                    if scr.b_out[i] != NIL { scr.a_in[scr.b_out[i] as usize] } else { NIL },
                ] {
                    if nb != NIL && visited.insert(nb as usize) {
                        scr.comp_arena.push(nb); // an2-lint: allow(alloc-in-hot-path) warm-up only; capacity reused after first slot
                    }
                }
            }
            scr.comp_ranges.push((comp_start, scr.comp_arena.len() as u32)); // an2-lint: allow(alloc-in-hot-path) warm-up only; capacity reused after first slot
        }
    }

    /// Keeps the heavier sub-matching of each component (ties favour A).
    /// `decisions`, when given, must hold one pre-computed keep-A flag per
    /// component in `comp_ranges` order; otherwise each component is
    /// weighed inline (the serial path).
    // an2-lint: allow(panic-freedom) component-indexed arrays are sized by the component count <= n
    fn resolve_components(&self, decisions: Option<&[bool]>) -> MatchingN<W> {
        let scr = &self.scratch;
        let mut m = MatchingN::new(self.n);
        for (c, &(start, end)) in scr.comp_ranges.iter().enumerate() {
            let members = &scr.comp_arena[start as usize..end as usize];
            let keep_a = match decisions {
                Some(d) => d[c],
                None => {
                    let (wa, wb) = component_weights(&self.q, &scr.a_out, &scr.b_out, members);
                    wa >= wb
                }
            };
            let chosen = if keep_a { &scr.a_out } else { &scr.b_out };
            for &iu in members {
                let j = chosen[iu as usize];
                if j != NIL {
                    m.pair(InputPort::new(iu as usize), OutputPort::new(j as usize))
                        .expect("SERENADE merge produced a conflict");
                }
            }
        }
        m
    }
}

/// The Q-matrix weight of each proposal restricted to `members`. A pure
/// function of its arguments — the property the staged path relies on.
// an2-lint: hot
// an2-lint: allow(overflow-discipline) weights sum u64 queue occupancies, bounded by total queued cells
// an2-lint: allow(panic-freedom) weight slots are indexed by component id < n
fn component_weights(q: &QMatrix, a_out: &[u32], b_out: &[u32], members: &[u32]) -> (i64, i64) {
    let mut wa = 0i64;
    let mut wb = 0i64;
    for &iu in members {
        let i = iu as usize;
        if a_out[i] != NIL {
            wa += q.weight(i, a_out[i] as usize);
        }
        if b_out[i] != NIL {
            wb += q.weight(i, b_out[i] as usize);
        }
    }
    (wa, wb)
}

impl<const W: usize> Scheduler<W> for SerenadeN<W> {
    fn schedule(&mut self, requests: &RequestMatrixN<W>) -> MatchingN<W> {
        let (active_inputs, active_outputs) = self.active_sets(requests);
        self.propose(requests, &active_inputs, &active_outputs);
        self.find_components();
        self.resolve_components(None)
    }

    fn name(&self) -> &'static str {
        "serenade"
    }

    fn contract(&self) -> Contract {
        // The proposals `schedule_with_proposals` returns are maximal; the
        // merge keeps the heavier side of every component.
        Contract {
            merges_proposals: true,
            ..Contract::LEGAL
        }
    }

    fn set_port_mask(&mut self, mask: PortMaskN<W>) {
        self.mask = Some(mask);
    }

    fn idle_slot_is_noop(&self) -> bool {
        // An empty request matrix has no nonempty rows: no input draws
        // (empty candidate sets draw nothing), no component forms, and no
        // observation arrives — the call touches no state.
        true
    }

    fn wants_queue_observations(&self) -> bool {
        true
    }

    // an2-lint: hot
    fn observe_queue(&mut self, i: InputPort, j: OutputPort, depth: u32, age: u32) {
        self.q.observe(i.index(), j.index(), self.policy.weight(depth, age));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requests::RequestMatrix;
    use crate::scheduler::PortMask;

    #[test]
    fn staged_equals_serial_at_any_thread_count() {
        let mut rng = Xoshiro256::seed_from(0x57A6);
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            let mut serial = Serenade::new(16, 99);
            let mut staged = Serenade::new(16, 99);
            for slot in 0..50u64 {
                let density = [0.1, 0.5, 0.9, 1.0, 0.0][(slot as usize) % 5];
                let reqs = RequestMatrix::random(16, density, &mut rng);
                for (i, j) in reqs.pairs() {
                    let w = 1 + ((i.index() * 31 + j.index() * 7 + slot as usize) % 13) as u32;
                    serial.observe_queue(i, j, w, 0);
                    staged.observe_queue(i, j, w, 0);
                }
                assert_eq!(
                    serial.schedule(&reqs),
                    staged.schedule_staged(&reqs, &pool),
                    "threads {threads} slot {slot}"
                );
            }
        }
    }

    #[test]
    fn masked_serenade_excludes_failed_ports() {
        let reqs = RequestMatrix::from_fn(8, |_, _| true);
        let mut s = Serenade::new(8, 7);
        let mut mask = PortMask::all(8);
        mask.fail_input(2);
        mask.fail_output(5);
        s.set_port_mask(mask);
        for _ in 0..20 {
            let m = s.schedule(&reqs);
            assert!(m.output_of(InputPort::new(2)).is_none());
            assert!(m.input_of(OutputPort::new(5)).is_none());
            assert!(m.respects(&reqs));
        }
    }

    #[test]
    fn full_mask_is_identical_to_no_mask() {
        let mut rng = Xoshiro256::seed_from(3);
        let mut plain = Serenade::new(8, 11);
        let mut masked = Serenade::new(8, 11);
        masked.set_port_mask(PortMask::all(8));
        for _ in 0..30 {
            let reqs = RequestMatrix::random(8, 0.6, &mut rng);
            assert_eq!(plain.schedule(&reqs), masked.schedule(&reqs));
        }
    }

    #[test]
    fn scheduler_name_and_flags() {
        let s = Serenade::new(4, 0);
        assert_eq!(s.name(), "serenade");
        assert!(s.wants_queue_observations());
        assert!(s.idle_slot_is_noop());
    }

    #[test]
    fn wide_serenade_runs_at_full_radix() {
        use crate::requests::WideRequestMatrix;
        let n = 1024;
        let reqs = WideRequestMatrix::from_fn(n, |i, j| (i * 131 + j * 17) % 4000 == 0);
        let mut s = WideSerenade::new(n, 5);
        let m = s.schedule(&reqs);
        assert!(m.respects(&reqs));
    }
}
