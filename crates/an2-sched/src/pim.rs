//! Parallel Iterative Matching (PIM) — the paper's primary contribution (§3).
//!
//! PIM finds a maximal conflict-free pairing of inputs to outputs by
//! iterating three steps (initially all ports unmatched):
//!
//! 1. **Request.** Each unmatched input sends a request to *every* output
//!    for which it has a buffered cell.
//! 2. **Grant.** Each unmatched output that receives requests chooses one
//!    *uniformly at random* to grant.
//! 3. **Accept.** Each input that receives grants chooses one to accept.
//!
//! Matches made in earlier iterations are retained; later iterations "fill
//! in the gaps". Appendix A proves completion in an expected
//! `O(log N)` iterations because each iteration resolves, on average, at
//! least 3/4 of the remaining unresolved requests. The AN2 prototype runs a
//! fixed four iterations per cell slot.
//!
//! This implementation follows the hardware faithfully: every output draws
//! its grant from an independent per-port random stream, and the accept
//! policy is pluggable ([`AcceptPolicy`]) because the paper requires inputs
//! to "choose among grants in a round-robin or other fair fashion" for the
//! no-starvation argument (§3.4) while the grant side must be random.
//!
//! The scheduler is generic over the bitset width `W` ([`PimN`]); the
//! [`Pim`] alias is the four-word 256-port configuration every paper-scale
//! experiment uses, and [`WidePim`] (`W = 16`) drives the 1024-port scaling
//! benches through the identical code path.
//!
//! `W` is a capacity, not a cost: the loop runs on the words an `n`-port
//! switch actually uses, and its per-input grant store follows the same
//! rule. When the width rule of [`with_port_width!`](crate::with_port_width)
//! gives `n` one word (`n <= 64`), every per-call port set is one word wide
//! whatever `W` is, a grant draw reads one word of its column, and each
//! input's grants are one `u64` mask, so a four-word `Pim` at the paper's
//! 16 ports costs what a one-word one does. Above that the loop runs on all
//! `W` words and keeps each input's grants in an inline list that spills to
//! a bitset. The grant draw scheme stays keyed to `W` alone, and both grant
//! stores answer an accept policy with the same member, so neither choice
//! changes a decision.
//!
//! There is one iteration loop. [`Scheduler::schedule`] and
//! [`PimN::schedule_from`] run it as is; [`PimN::schedule_with_stats`] and
//! [`PimN::schedule_traced`] run the same loop with a per-iteration
//! recorder compiled in, so statistics and traces describe exactly the
//! decisions `schedule()` makes. The plain-vector oracle that checks the
//! loop is `an2_verify::ReferencePim`.

use crate::check::Contract;
use crate::matching::MatchingN;
use crate::port::{select_in_word, InputPort, OutputPort, PortSetN};
use crate::requests::RequestMatrixN;
use crate::rng::{SelectRng, Xoshiro256};
use crate::scheduler::{PortMaskN, Scheduler};

/// Grants per input kept in the inline sorted list before spilling to the
/// bitset scratch (switches above 64 ports; see [`Grants`]). An input
/// collects `Binomial(unmatched outputs, 1/unmatched inputs)` grants per
/// iteration — approximately `Poisson(1)` under symmetric load — so more
/// than eight is a `~1e-6` event even at `N = 1024`.
const GRANT_INLINE: usize = 8;

/// The grants each input holds in one iteration, waiting for the accept
/// phase. Its shape follows the width rule: the loop's `V` is 1 exactly
/// when `n <= 64`, and [`Grants::for_ports`] allocates only the
/// representation that `V` reads.
///
/// - `V == 1`: one `u64` mask per input. The first grant of an iteration
///   restarts the mask without a branch; Random accept picks the mask's
///   `k`-th set bit, RoundRobin its first set bit at or after the pointer
///   and LowestIndex its lowest one.
/// - `V > 1`: the first [`GRANT_INLINE`] grants in an inline list, in
///   ascending output order (outputs grant in ascending order), spilling to
///   a bitset past that.
///
/// Either shape keeps each input's grant count beside it, so Random accept
/// sizes its draw with one load (the default x86-64 target has no popcount
/// instruction).
///
/// Both answer the same questions with the same members: the `k`-th
/// smallest grant, and the first grant at or after a pointer, wrapping.
/// So every accept decision and every draw is the same whichever shape
/// the loop runs on.
#[derive(Clone, Debug)]
struct Grants<const W: usize> {
    /// How many grants input `i` holds.
    counts: Vec<u16>,
    /// `V == 1`: input `i`'s grants as a bit mask over the outputs.
    masks: Vec<u64>,
    /// `V > 1`: the first [`GRANT_INLINE`] grants to input `i`, ascending.
    lists: Vec<[u16; GRANT_INLINE]>,
    /// `V > 1`: input `i`'s grant set, written only once it holds more
    /// than [`GRANT_INLINE`] grants.
    spills: Vec<PortSetN<W>>,
}

impl<const W: usize> Grants<W> {
    /// The store for an `n`-port switch: counts, and masks when the width
    /// rule gives `n` one word, lists and spills otherwise.
    fn for_ports(n: usize) -> Self {
        let one_word = crate::with_port_width!(n, V => V == 1);
        let per_input = |used: bool| if used { n } else { 0 };
        Self {
            counts: vec![0; n],
            masks: vec![0; per_input(one_word)],
            lists: vec![[0; GRANT_INLINE]; per_input(!one_word)],
            spills: vec![PortSetN::new(); per_input(!one_word)],
        }
    }

    /// Records output `j`'s grant to input `i`; `fresh` says it is `i`'s
    /// first grant of the iteration, which restarts `i`'s store.
    // an2-lint: hot
    #[inline]
    fn grant<const V: usize>(&mut self, i: usize, j: usize, fresh: bool) {
        let Some(count) = self.counts.get_mut(i) else {
            return;
        };
        let held = if fresh { 0 } else { *count };
        // Each output grants at most once per iteration, so `held` stays
        // below `n <= 1024` and the count never saturates.
        *count = held.saturating_add(1);
        if V == 1 {
            debug_assert!(j < 64, "a one-word grant store holds outputs 0..64");
            if let Some(mask) = self.masks.get_mut(i) {
                // All ones keeps the earlier grants, zero drops them.
                let keep = u64::from(fresh).wrapping_sub(1);
                *mask = *mask & keep | 1u64 << (j & 63);
            }
            return;
        }
        let (Some(list), Some(spill)) = (self.lists.get_mut(i), self.spills.get_mut(i)) else {
            return;
        };
        if let Some(slot) = list.get_mut(usize::from(held)) {
            *slot = j as u16;
        } else {
            if usize::from(held) == GRANT_INLINE {
                // The inline list overflowed: spill it to the bitset and
                // keep going there.
                spill.clear();
                for &g in list.iter() {
                    spill.insert(usize::from(g));
                }
            }
            spill.insert(j);
        }
    }

    /// How many grants input `i` holds.
    // an2-lint: hot
    #[inline]
    fn held(&self, i: usize) -> usize {
        self.counts.get(i).map_or(0, |&c| usize::from(c))
    }

    /// Input `i`'s `k`-th smallest grant (`k` below its [`held`](Self::held) count).
    // an2-lint: hot
    #[inline]
    fn grant_at<const V: usize>(&self, i: usize, k: usize) -> usize {
        debug_assert!(k < self.held(i), "rank {k} past input {i}'s grants");
        if V == 1 {
            let mask = self.masks.get(i).copied().unwrap_or(0);
            return select_in_word(mask, k as u32) as usize;
        }
        if self.held(i) <= GRANT_INLINE {
            self.lists
                .get(i)
                .and_then(|list| list.get(k))
                .map_or(0, |&g| usize::from(g))
        } else {
            self.spills
                .get(i)
                .and_then(|s| s.select_nth(k))
                .unwrap_or(0)
        }
    }

    /// Input `i`'s first grant at or after output `start`, wrapping to
    /// its smallest (`i` holds at least one grant; `start < n`).
    // an2-lint: hot
    #[inline]
    fn grant_from<const V: usize>(&self, i: usize, start: usize) -> usize {
        debug_assert!(self.held(i) > 0, "input {i} holds no grant");
        if V == 1 {
            let mask = self.masks.get(i).copied().unwrap_or(0);
            let after = mask & !0u64 << (start & 63);
            let pick = if after != 0 { after } else { mask };
            return pick.trailing_zeros() as usize;
        }
        let count = self.held(i);
        if count <= GRANT_INLINE {
            // The list-shaped twin of `PortSetN::first_at_or_after`.
            let list = self
                .lists
                .get(i)
                .and_then(|l| l.get(..count))
                .unwrap_or(&[]);
            let grant = |g: &u16| usize::from(*g);
            list.iter()
                .map(grant)
                .find(|&g| g >= start)
                .or_else(|| list.first().map(grant))
                .unwrap_or(0)
        } else {
            self.spills
                .get(i)
                .and_then(|s| s.first_at_or_after(start))
                .unwrap_or(0)
        }
    }

    /// Input `i`'s grants as a port set, for the recorder.
    // an2-lint: cold
    fn grant_set(&self, i: usize) -> PortSetN<W> {
        if !self.masks.is_empty() {
            let mut set = PortSetN::new();
            set.words_mut()[0] = self.masks[i];
            return set;
        }
        let count = usize::from(self.counts[i]);
        if count <= GRANT_INLINE {
            self.lists[i][..count]
                .iter()
                .map(|&g| usize::from(g))
                .collect()
        } else {
            self.spills[i]
        }
    }
}

/// Rejection-sampling attempts per wide grant draw before falling back to
/// the exact rank-select (see [`grant_draw_with`]).
const GRANT_REJECT_CAP: usize = 8;

/// A uniform draw from `col(out) ∩ unmatched` — the grant choice of an
/// iteration where some inputs are already matched — via the request
/// matrix's **sparse** column intersection: only the column's nonzero
/// words are touched ([`RequestMatrixN::col_eligible`]), so the per-output
/// grant cost scales with the column's active words rather than `W`.
///
/// `col_eligible` returns exactly the dense intersection and its exact
/// popcount, so the draw — sized by that popcount, selected by the same
/// rank-select, skipped without consuming randomness when empty — is the
/// one a materialized `col ∩ unmatched` would give at every width (the
/// `an2-verify` differential properties check it against
/// `ReferencePim`). Drawing by rejection instead of assembling the set
/// loses here: with a mostly-matched switch the eligible density is too
/// low for any sensible attempt cap.
#[inline]
// an2-lint: allow(panic-freedom) select_nth(k) succeeds because k < len == set popcount by the draw construction
fn eligible_grant_draw<R: SelectRng, const W: usize, const V: usize>(
    rng: &mut R,
    requests: &RequestMatrixN<W>,
    out: OutputPort,
    unmatched: &PortSetN<V>,
    n: usize,
    wide: bool,
) -> Option<usize> {
    let (e, len) = requests.col_eligible(out, unmatched);
    grant_draw_with(
        rng,
        len,
        n,
        wide,
        |p| e.contains(p),
        |k| e.select_nth(k).expect("rank < len"),
    )
}

/// One grant draw: a uniformly random member of a set whose size `len`
/// the caller already knows, or `None` when it is empty — consuming no
/// randomness in that case, exactly like [`SelectRng::choose`]. The
/// membership test and exact rank-select are abstracted out, so call
/// sites holding a cheaper equivalent representation (the request
/// matrix's per-word popcount cache) draw through the identical decision
/// structure — the first iteration's column draw and later iterations'
/// eligible-set draws cannot drift.
///
/// Without `wide` (every width of at most 256 ports) this *is* `choose`'s
/// `index(len)` + `select_nth` draw, preserving the pinned determinism
/// digests bit for bit. With `wide` ([`PimN::WIDE_DRAW`]) randomness is
/// consumed differently: when the set covers at least half of `0..n`,
/// rejection sampling (draw an index, keep it if it is a member) finds a
/// member in ~2 attempts instead of a 16-word rank-select, falling back to
/// the exact draw after [`GRANT_REJECT_CAP`] misses (probability `<= 2^-8`
/// at the density threshold). Every branch picks uniformly among members —
/// an accepted rejection draw is uniform over members by symmetry, and the
/// fallback is uniform outright. `an2_verify::ReferencePim` replays the
/// same scheme on plain vectors, so the wide widths have an exact
/// differential oracle and pinned digests of their own.
#[inline]
fn grant_draw_with<R: SelectRng>(
    rng: &mut R,
    len: usize,
    n: usize,
    wide: bool,
    contains: impl Fn(usize) -> bool,
    select: impl FnOnce(usize) -> usize,
) -> Option<usize> {
    if len == 0 {
        return None;
    }
    if wide && len * 2 >= n {
        for _ in 0..GRANT_REJECT_CAP {
            let p = rng.index(n);
            if contains(p) {
                return Some(p);
            }
        }
    }
    Some(select(rng.index(len)))
}

/// How an input chooses among the grants it receives in step 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AcceptPolicy {
    /// Choose uniformly at random among grants (the simulations in §3.5).
    Random,
    /// Rotate a per-input pointer and accept the first grant at or after it
    /// (the "round-robin or other fair fashion" of §3.4; also the policy
    /// that makes the no-starvation argument go through deterministically).
    RoundRobin,
    /// Always accept the lowest-numbered granting output. Deliberately
    /// unfair; used by tests to show why fairness at the accept stage
    /// matters.
    LowestIndex,
}

/// Termination rule for the iteration loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IterationLimit {
    /// Run exactly this many iterations (the hardware runs 4; §3.2).
    /// The algorithm may stop earlier if no unresolved request remains.
    Fixed(usize),
    /// Iterate until no unmatched input has a request for an unmatched
    /// output, i.e. until the matching is maximal. Terminates in at most
    /// `N` iterations because every iteration with unresolved requests
    /// adds at least one match.
    ToCompletion,
}

/// Per-iteration record produced when scheduling with an observer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IterationRecord<const W: usize = 4> {
    /// 1-based iteration number.
    pub iteration: usize,
    /// `requests[j]` = inputs that requested output `j` this iteration
    /// (only unmatched inputs request, and only unmatched outputs listen).
    pub requests: Vec<PortSetN<W>>,
    /// `grants[i]` = outputs that granted to input `i` this iteration.
    pub grants: Vec<PortSetN<W>>,
    /// Pairs `(input, output)` accepted this iteration.
    pub accepts: Vec<(InputPort, OutputPort)>,
    /// Unresolved requests remaining *after* this iteration.
    pub unresolved_after: usize,
}

/// Statistics from one invocation of [`Pim::schedule_with_stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PimStats {
    /// Iterations actually executed (may be fewer than a fixed limit if the
    /// match completed early).
    pub iterations_run: usize,
    /// Cumulative matching size after each executed iteration.
    pub matches_after: Vec<usize>,
    /// Unresolved request count after each executed iteration (starts from
    /// the initial request count at index 0 conceptually; here only the
    /// post-iteration values are recorded).
    pub unresolved_after: Vec<usize>,
    /// `true` if the final matching is maximal for the presented requests.
    pub completed: bool,
}

/// The Parallel Iterative Matching scheduler, generic over the bitset width
/// `W`.
///
/// Owns one independent random stream per output port (grant phase) and per
/// input port (random accept phase), split from a single seed for
/// reproducibility. Use the [`Pim`] alias unless you are driving a wide
/// (up to 1024-port) switch.
///
/// # Examples
///
/// ```
/// use an2_sched::{Pim, RequestMatrix, Scheduler};
/// let mut pim = Pim::new(4, 0xA52);
/// let reqs = RequestMatrix::from_pairs(4, [(0, 0), (0, 1), (1, 0), (2, 3)]);
/// let m = pim.schedule(&reqs);
/// assert!(m.respects(&reqs));
/// assert!(m.len() >= 2); // (2,3) always matches; one of the 0/1 conflicts resolves
/// ```
#[derive(Clone, Debug)]
pub struct PimN<R: SelectRng = Xoshiro256, const W: usize = 4> {
    n: usize,
    limit: IterationLimit,
    accept: AcceptPolicy,
    /// Independent grant stream for each output.
    output_rng: Vec<R>,
    /// Independent accept stream for each input.
    input_rng: Vec<R>,
    /// Round-robin accept pointers (used by `AcceptPolicy::RoundRobin`).
    accept_ptr: Vec<usize>,
    /// Test-only accept skew (see [`Pim::debug_set_accept_skew`]); 0 in
    /// every real configuration, in which case it is never read on the
    /// accept path beyond one predictable branch.
    accept_skew: usize,
    /// Scratch: the grants each input holds this iteration, valid only
    /// for inputs in the iteration's granted set. Owned by the scheduler,
    /// so `schedule()` touches no heap after construction.
    grants: Grants<W>,
    /// Healthy input ports; failed inputs never request or accept.
    active_inputs: PortSetN<W>,
    /// Healthy output ports; failed outputs never listen or grant.
    active_outputs: PortSetN<W>,
}

/// The default-width PIM scheduler (up to [`crate::MAX_PORTS`] ports).
///
/// Four words is its capacity; a switch of 64 ports or fewer runs the
/// loop on one-word sets, so its cost follows `n`, not the width.
pub type Pim<R = Xoshiro256> = PimN<R, 4>;

/// The wide PIM scheduler (up to [`crate::MAX_WIDE_PORTS`] ports).
///
/// Sixteen words is its capacity and keys the rejection grant draw; a
/// switch of 64 ports or fewer runs the loop on one-word sets (with the
/// same draws), larger ones on all sixteen words.
pub type WidePim<R = Xoshiro256> = PimN<R, 16>;

impl<const W: usize> PimN<Xoshiro256, W> {
    /// Creates a PIM scheduler for an `n`×`n` switch with the AN2 default of
    /// four iterations and random accept, seeded from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds the width's capacity (`W * 64`).
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_options(n, seed, IterationLimit::Fixed(4), AcceptPolicy::Random)
    }

    /// Creates a PIM scheduler with explicit iteration limit and accept
    /// policy.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n` exceeds the width's capacity, or the limit
    /// is `Fixed(0)`.
    pub fn with_options(
        n: usize,
        seed: u64,
        limit: IterationLimit,
        accept: AcceptPolicy,
    ) -> Self {
        let root = Xoshiro256::seed_from(seed);
        Self::from_streams(
            n,
            limit,
            accept,
            (0..n).map(|j| root.split(j as u64)).collect(),
            (0..n).map(|i| root.split(0x1_0000 + i as u64)).collect(),
        )
    }
}

impl<R: SelectRng, const W: usize> PimN<R, W> {
    /// Creates a PIM scheduler from explicit per-port random streams, for
    /// experiments that vary RNG quality (§3.3 ablation).
    ///
    /// `output_rng[j]` drives output `j`'s grant choice; `input_rng[i]`
    /// drives input `i`'s random accept choice.
    ///
    /// # Panics
    ///
    /// Panics if the stream vectors are not both length `n`, if `n` is out
    /// of range for the width, or if the limit is `Fixed(0)`.
    pub fn from_streams(
        n: usize,
        limit: IterationLimit,
        accept: AcceptPolicy,
        output_rng: Vec<R>,
        input_rng: Vec<R>,
    ) -> Self {
        assert!(n > 0, "switch must have at least one port");
        assert!(n <= PortSetN::<W>::CAPACITY, "switch size {n} out of range");
        assert_eq!(output_rng.len(), n, "need one grant stream per output");
        assert_eq!(input_rng.len(), n, "need one accept stream per input");
        if let IterationLimit::Fixed(k) = limit {
            assert!(k > 0, "a fixed iteration limit must be at least 1");
        }
        Self {
            n,
            limit,
            accept,
            output_rng,
            input_rng,
            accept_ptr: vec![0; n],
            accept_skew: 0,
            grants: Grants::for_ports(n),
            active_inputs: PortSetN::all(n),
            active_outputs: PortSetN::all(n),
        }
    }

    /// The switch radix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The accept policy in force.
    pub fn accept_policy(&self) -> AcceptPolicy {
        self.accept
    }

    /// Installs a deliberate off-by-`skew` bug in the accept phase: every
    /// accepted output index is rotated by `skew` mod `n` *after* the policy
    /// (and any random draw) has chosen, so accepted pairs may not have been
    /// requested. Exists solely so the invariant-checking layer can prove it
    /// catches a realistic scheduler defect; `skew == 0` (the constructor
    /// default) restores correct behaviour bit-for-bit.
    #[doc(hidden)]
    pub fn debug_set_accept_skew(&mut self, skew: usize) {
        self.accept_skew = skew % self.n;
    }

    /// Schedules one time slot and returns per-iteration statistics along
    /// with the matching.
    ///
    /// # Panics
    ///
    /// Panics if `requests.n() != self.n()`.
    pub fn schedule_with_stats(
        &mut self,
        requests: &RequestMatrixN<W>,
    ) -> (MatchingN<W>, PimStats) {
        self.run_recorded(requests, None)
    }

    /// Schedules one time slot starting from `initial` pairings, which are
    /// retained verbatim; PIM fills in the gaps among the still-unmatched
    /// ports. This is how "any slot not used by statistical matching can be
    /// filled with other traffic by parallel iterative matching" (§5.2) and
    /// how VBR cells fill unused CBR slots (§4).
    ///
    /// The initial pairings need not be requests in `requests` (a reserved
    /// CBR slot occupies its ports whether or not the request matrix knows
    /// about the reserved flow's cells).
    ///
    /// # Panics
    ///
    /// Panics if `requests.n()` or `initial.n()` differs from `self.n()`.
    // an2-lint: allow(panic-freedom) the size assert is this API's documented "# Panics" contract
    pub fn schedule_from(
        &mut self,
        requests: &RequestMatrixN<W>,
        initial: MatchingN<W>,
    ) -> MatchingN<W> {
        assert_eq!(
            initial.n(),
            self.n,
            "initial matching size {} does not match scheduler size {}",
            initial.n(),
            self.n
        );
        self.run_at_width::<false>(requests, initial, None)
    }

    /// Schedules one time slot, invoking `observer` with a full
    /// [`IterationRecord`] after every iteration. Used by the Figure 2
    /// trace example and by tests that validate iteration internals.
    ///
    /// # Panics
    ///
    /// Panics if `requests.n() != self.n()`.
    pub fn schedule_traced(
        &mut self,
        requests: &RequestMatrixN<W>,
        observer: &mut dyn FnMut(&IterationRecord<W>),
    ) -> (MatchingN<W>, PimStats) {
        self.run_recorded(requests, Some(observer))
    }

    /// One slot from an empty matching with the recorder compiled in.
    fn run_recorded(
        &mut self,
        requests: &RequestMatrixN<W>,
        observer: Option<&mut dyn FnMut(&IterationRecord<W>)>,
    ) -> (MatchingN<W>, PimStats) {
        let mut rec = Recorder {
            stats: PimStats::default(),
            observer,
        };
        let m = self.run_at_width::<true>(requests, MatchingN::new(self.n), Some(&mut rec));
        (m, rec.stats)
    }

    /// Whether the grant draw samples by rejection: keyed to the width's
    /// capacity, never to the words a call runs on, so a switch decides
    /// the same whichever words its loop uses (see [`grant_draw_with`]).
    const WIDE_DRAW: bool = PortSetN::<W>::CAPACITY > 256;

    /// Runs [`run_from`](Self::run_from) on the words `n` uses: one when
    /// the width rule gives `n` one word, all `W` otherwise.
    #[inline]
    fn run_at_width<const RECORD: bool>(
        &mut self,
        requests: &RequestMatrixN<W>,
        initial: MatchingN<W>,
        rec: Option<&mut Recorder<'_, W>>,
    ) -> MatchingN<W> {
        if crate::with_port_width!(self.n, V => V == 1) {
            self.run_from::<1, RECORD>(requests, initial, rec)
        } else {
            self.run_from::<W, RECORD>(requests, initial, rec)
        }
    }

    /// The iteration loop behind every entry point, on `V`-word port sets
    /// (`n <= V * 64`). `RECORD` selects at compile time whether `rec`
    /// (then `Some`) is written: the
    /// `schedule()` and `schedule_from` instantiations (`RECORD = false`)
    /// carry no recording code at all and perform **zero heap
    /// allocations**.
    ///
    /// The request and grant phases are fused into one scan over the
    /// unmatched outputs: each output's eligible-requester set is
    /// intersected on the fly (or read straight from the column when every
    /// input is still unmatched — the common first iteration), and an
    /// input's grant scratch is restarted lazily on its first grant of the
    /// iteration, so per-iteration work shrinks with the matching instead
    /// of staying O(N·W).
    ///
    /// Randomness follows the phased description exactly: grant draws
    /// happen for exactly the non-empty requester sets, in ascending output
    /// order (an empty set draws nothing), and accept draws happen for
    /// exactly the inputs holding at least one grant, in ascending input
    /// order — the discipline `an2_verify::ReferencePim` replays on plain
    /// vectors. A recording run also stops once no unresolved request is
    /// left; that early exit changes no decision, because the next
    /// iteration would find no request and break before any output draws
    /// from its grant stream.
    // an2-lint: hot
    // an2-lint: allow(panic-freedom) the leading assert_eq pins requests.n() == self.n (documented contract), so every port index stays < n; rank-select expects hold because rank < len by the draw construction
    fn run_from<const V: usize, const RECORD: bool>(
        &mut self,
        requests: &RequestMatrixN<W>,
        initial: MatchingN<W>,
        mut rec: Option<&mut Recorder<'_, W>>,
    ) -> MatchingN<W> {
        assert_eq!(
            requests.n(),
            self.n,
            "request matrix size {} does not match scheduler size {}",
            requests.n(),
            self.n
        );
        let n = self.n;
        debug_assert!(n <= PortSetN::<V>::CAPACITY, "{n} ports on {V} words");
        let mut matching = initial;

        let max_iters = match self.limit {
            IterationLimit::Fixed(k) => k,
            // Each iteration with unresolved requests adds >= 1 match, so N
            // iterations always suffice.
            IterationLimit::ToCompletion => n,
        };

        // Failed ports sit out every phase. With a full mask this intersects
        // with `all(n)` and is a no-op, so unmasked runs are bit-identical.
        // A masked output never enters the grant loop and therefore never
        // draws from its stream, while each healthy output's stream sees
        // exactly the draws it would in a smaller healthy switch.
        // Every port is below `n <= V * 64`, so narrowing to `V` words
        // drops only zero words.
        let mut unmatched_inputs = matching
            .unmatched_inputs()
            .intersection(&self.active_inputs)
            .to_width::<V>();
        let mut unmatched_outputs = matching
            .unmatched_outputs()
            .intersection(&self.active_outputs)
            .to_width::<V>();
        let nonempty_cols = requests.nonempty_cols().to_width::<V>();

        for _ in 0..max_iters {
            // The ports this iteration starts from, for the recorder.
            let (requesters, listeners) = (unmatched_inputs, unmatched_outputs);

            // ---- Request + grant phases, fused -------------------------
            // Visit only unmatched outputs with a non-empty requester
            // column, in ascending order. The skipped outputs would find an
            // empty eligible set and draw nothing (`grant_draw` returns
            // `None` without drawing when `len == 0`), so pruning them
            // consumes the same randomness as visiting every output.
            let inputs_full = unmatched_inputs.len() == n;
            let candidates = unmatched_outputs.intersection(&nonempty_cols);
            let mut granted = PortSetN::<V>::new();
            let mut any_request = false;
            for j in candidates.iter() {
                let out = OutputPort::new(j);
                let choice = if V == 1 {
                    // One word holds the eligible set: the column's first
                    // word (the only one an `n <= 64` switch uses) masked
                    // by the unmatched inputs. The cached column length
                    // sizes the draw while every input is unmatched, which
                    // spares a popcount.
                    let eligible = requests.col(out).words()[0] & unmatched_inputs.words()[0];
                    let len = if inputs_full {
                        requests.col_len(out)
                    } else {
                        eligible.count_ones() as usize
                    };
                    grant_draw_with(
                        &mut self.output_rng[j],
                        len,
                        n,
                        Self::WIDE_DRAW,
                        |p| eligible >> (p & 63) & 1 == 1,
                        |k| select_in_word(eligible, k as u32) as usize,
                    )
                } else if inputs_full {
                    // Every input is unmatched and healthy, so the
                    // eligibility intersection is the identity, the cached
                    // column length sizes the draw for free, and the
                    // rank-select reads the per-word popcount cache plus
                    // one column word instead of the whole column.
                    grant_draw_with(
                        &mut self.output_rng[j],
                        requests.col_len(out),
                        n,
                        Self::WIDE_DRAW,
                        |p| requests.col(out).contains(p),
                        |k| requests.col_select_nth(out, k).expect("rank < len"),
                    )
                } else {
                    eligible_grant_draw(
                        &mut self.output_rng[j],
                        requests,
                        out,
                        &unmatched_inputs,
                        n,
                        Self::WIDE_DRAW,
                    )
                };
                // `choice` is `Some` exactly when the eligible set was
                // non-empty, so it doubles as the any-request signal. An
                // input's first grant of the iteration restarts its store.
                if let Some(i) = choice {
                    any_request = true;
                    let fresh = granted.insert(i);
                    self.grants.grant::<V>(i, j, fresh);
                }
            }
            if !any_request {
                break;
            }

            // ---- Accept phase ------------------------------------------
            // Only inputs actually holding a grant are visited; the skipped
            // inputs have empty grant sets and would draw nothing anyway.
            // The grant store answers with the `k`-th smallest grant — the
            // member a bitset rank-select returns for the same drawn rank —
            // whatever its shape. `iter()` walks a snapshot of the words, so
            // shrinking `unmatched_*` mid-loop is sound.
            for i in granted.iter() {
                let j = match self.accept {
                    AcceptPolicy::Random => {
                        let k = self.input_rng[i].index(self.grants.held(i));
                        self.grants.grant_at::<V>(i, k)
                    }
                    AcceptPolicy::RoundRobin => {
                        let j = self.grants.grant_from::<V>(i, self.accept_ptr[i]);
                        self.accept_ptr[i] = (j + 1) % n;
                        j
                    }
                    AcceptPolicy::LowestIndex => self.grants.grant_from::<V>(i, 0),
                };
                let j = if self.accept_skew == 0 {
                    // Conflict-freedom holds structurally here: each output
                    // grants at most one input per iteration and only while
                    // unmatched, and each granted input accepts exactly
                    // once. `pair_unchecked` debug-asserts it.
                    matching.pair_unchecked(InputPort::new(i), OutputPort::new(j));
                    j
                } else {
                    // Seeded-bug hook (checker self-tests only): a skewed
                    // accept can collide with an existing pair; skip it so
                    // the buggy scheduler still terminates.
                    let j = (j + self.accept_skew) % n;
                    if matching
                        .pair(InputPort::new(i), OutputPort::new(j))
                        .is_err()
                    {
                        continue;
                    }
                    j
                };
                unmatched_inputs.remove(i);
                unmatched_outputs.remove(j);
            }

            if RECORD {
                if let Some(rec) = rec.as_deref_mut() {
                    let unresolved = self.record_iteration(
                        rec,
                        requests,
                        &matching,
                        &requesters.to_width(),
                        &listeners.to_width(),
                        &granted.to_width(),
                    );
                    if unresolved == 0 {
                        break;
                    }
                }
            }
        }

        if RECORD {
            if let Some(rec) = rec {
                rec.stats.completed = matching.is_maximal(requests);
            }
        }
        matching
    }

    /// Writes one finished iteration into `rec`: its [`PimStats`] entry
    /// and, when tracing, the [`IterationRecord`] rebuilt from the loop's
    /// own state. `requesters` and `listeners` are the unmatched inputs
    /// and outputs the iteration started from, `granted` the inputs that
    /// received a grant: an output's requests are its column restricted to
    /// the requesters, an input's grants what its grant store holds, and
    /// its accept — if it made one — its pair in `matching`.
    /// Returns the unresolved-request count after the iteration.
    // an2-lint: cold
    #[cold]
    #[inline(never)]
    fn record_iteration(
        &self,
        rec: &mut Recorder<'_, W>,
        requests: &RequestMatrixN<W>,
        matching: &MatchingN<W>,
        requesters: &PortSetN<W>,
        listeners: &PortSetN<W>,
        granted: &PortSetN<W>,
    ) -> usize {
        let unresolved = matching.unresolved_requests(requests);
        let stats = &mut rec.stats;
        stats.iterations_run += 1;
        stats.matches_after.push(matching.len());
        stats.unresolved_after.push(unresolved);
        if let Some(observer) = rec.observer.as_deref_mut() {
            let mut request_sets = vec![PortSetN::new(); self.n];
            for j in listeners.iter() {
                request_sets[j] = requests.col(OutputPort::new(j)).intersection(requesters);
            }
            let mut grant_sets = vec![PortSetN::new(); self.n];
            for i in granted.iter() {
                grant_sets[i] = self.grants.grant_set(i);
            }
            let accepts = granted
                .iter()
                .filter_map(|i| {
                    let i = InputPort::new(i);
                    matching.output_of(i).map(|j| (i, j))
                })
                .collect();
            observer(&IterationRecord {
                iteration: stats.iterations_run,
                requests: request_sets,
                grants: grant_sets,
                accepts,
                unresolved_after: unresolved,
            });
        }
        unresolved
    }
}

/// Where a recording run ([`PimN::schedule_with_stats`],
/// [`PimN::schedule_traced`]) writes each iteration.
struct Recorder<'a, const W: usize> {
    stats: PimStats,
    observer: Option<&'a mut dyn FnMut(&IterationRecord<W>)>,
}

impl<R: SelectRng, const W: usize> Scheduler<W> for PimN<R, W> {
    fn schedule(&mut self, requests: &RequestMatrixN<W>) -> MatchingN<W> {
        self.run_at_width::<false>(requests, MatchingN::new(self.n), None)
    }

    fn name(&self) -> &'static str {
        "pim"
    }

    fn contract(&self) -> Contract {
        // Run to completion, PIM stops only once the matching is maximal.
        Contract {
            maximal: self.limit == IterationLimit::ToCompletion,
            ..Contract::LEGAL
        }
    }

    fn idle_slot_is_noop(&self) -> bool {
        // With no requests the first iteration finds no candidate outputs
        // and breaks before any output draws from its grant stream, so no
        // RNG state or accept pointer moves; skipping the call entirely is
        // behaviour-identical.
        true
    }

    // an2-lint: allow(panic-freedom) a mis-sized mask is a harness bug, not degraded traffic; the Scheduler trait documents the panic
    fn set_port_mask(&mut self, mask: PortMaskN<W>) {
        assert_eq!(
            mask.n(),
            self.n,
            "mask size {} does not match scheduler size {}",
            mask.n(),
            self.n
        );
        self.active_inputs = *mask.active_inputs();
        self.active_outputs = *mask.active_outputs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requests::RequestMatrix;

    fn pim_complete(n: usize, seed: u64) -> Pim {
        Pim::with_options(n, seed, IterationLimit::ToCompletion, AcceptPolicy::Random)
    }

    #[test]
    fn full_mask_is_identity_and_failed_ports_never_match() {
        use crate::scheduler::PortMask;
        let reqs = RequestMatrix::from_fn(8, |_, _| true);
        let mut plain = Pim::new(8, 77);
        let mut masked = Pim::new(8, 77);
        masked.set_port_mask(PortMask::all(8));
        for _ in 0..50 {
            assert_eq!(plain.schedule(&reqs), masked.schedule(&reqs));
        }
        let mut mask = PortMask::all(8);
        mask.fail_input(3);
        mask.fail_output(5);
        masked.set_port_mask(mask);
        for _ in 0..50 {
            let m = masked.schedule(&reqs);
            assert!(m.output_of(InputPort::new(3)).is_none());
            assert!(m.input_of(OutputPort::new(5)).is_none());
            assert!(m.respects(&reqs));
            assert_eq!(m.len(), 7);
        }
        // Recovery restores the failed ports to service.
        masked.set_port_mask(PortMask::all(8));
        let recovered = masked.schedule(&reqs);
        assert!(recovered.is_perfect());
    }

    /// Recording must not perturb decisions: same-seed schedulers, one
    /// driven through `schedule` and one through `schedule_with_stats`
    /// (whose early exit skips the final empty iteration), must emit
    /// identical matchings slot after slot.
    #[test]
    fn recording_does_not_change_decisions() {
        let mut root = Xoshiro256::seed_from(0xFA57);
        for trial in 0..50 {
            let p = [0.05, 0.3, 0.7, 1.0][trial % 4];
            let n = [3, 8, 16, 64][trial % 4];
            let reqs = RequestMatrix::random(n, p, &mut root);
            for policy in [
                AcceptPolicy::Random,
                AcceptPolicy::RoundRobin,
                AcceptPolicy::LowestIndex,
            ] {
                let mut plain =
                    Pim::with_options(n, trial as u64, IterationLimit::Fixed(4), policy);
                let mut recorded =
                    Pim::with_options(n, trial as u64, IterationLimit::Fixed(4), policy);
                for slot in 0..8 {
                    let a = plain.schedule(&reqs);
                    let (b, _) = recorded.schedule_with_stats(&reqs);
                    assert_eq!(a, b, "trial {trial} slot {slot} policy {policy:?}");
                }
            }
        }
    }

    /// Same equivalence on the wide width, across word boundaries.
    #[test]
    fn wide_recording_does_not_change_decisions() {
        use crate::requests::WideRequestMatrix;
        let mut root = Xoshiro256::seed_from(0x71DE);
        for trial in 0..8 {
            let n = [65, 130, 512, 1024][trial % 4];
            let reqs = WideRequestMatrix::random(n, 0.5, &mut root);
            let mut plain = WidePim::new(n, trial as u64);
            let mut recorded = WidePim::new(n, trial as u64);
            for _ in 0..3 {
                let a = plain.schedule(&reqs);
                let (b, _) = recorded.schedule_with_stats(&reqs);
                assert_eq!(a, b, "trial {trial} n {n}");
                assert!(a.respects(&reqs));
            }
        }
    }

    #[test]
    fn empty_requests_yield_empty_matching() {
        let mut pim = Pim::new(8, 1);
        let (m, stats) = pim.schedule_with_stats(&RequestMatrix::new(8));
        assert!(m.is_empty());
        assert_eq!(stats.iterations_run, 0);
        assert!(stats.completed);
    }

    #[test]
    fn full_requests_reach_perfect_match_at_completion() {
        for seed in 0..10 {
            let mut pim = pim_complete(16, seed);
            let reqs = RequestMatrix::from_fn(16, |_, _| true);
            let (m, stats) = pim.schedule_with_stats(&reqs);
            assert!(m.is_perfect(), "seed {seed}: {m:?}");
            assert!(stats.completed);
            assert!(m.respects(&reqs));
        }
    }

    #[test]
    fn fixed_iterations_respect_budget() {
        let mut root = Xoshiro256::seed_from(3);
        let reqs = RequestMatrix::random(16, 1.0, &mut root);
        let mut pim1 =
            Pim::with_options(16, 9, IterationLimit::Fixed(1), AcceptPolicy::Random);
        let (_, stats) = pim1.schedule_with_stats(&reqs);
        assert_eq!(stats.iterations_run, 1);
        // One iteration of a legal matching.
        assert_eq!(stats.matches_after.len(), 1);
    }

    #[test]
    fn matches_never_decrease_across_iterations() {
        let mut root = Xoshiro256::seed_from(4);
        for trial in 0..50 {
            let reqs = RequestMatrix::random(16, 0.5, &mut root);
            let mut pim = pim_complete(16, trial);
            let (_, stats) = pim.schedule_with_stats(&reqs);
            for w in stats.matches_after.windows(2) {
                assert!(w[1] >= w[0]);
            }
            for w in stats.unresolved_after.windows(2) {
                assert!(w[1] <= w[0]);
            }
        }
    }

    #[test]
    fn single_iteration_still_beats_nothing() {
        // Every output with a request grants, every granted input accepts
        // one, so iteration 1 matches at least one pair when requests exist.
        let mut pim = Pim::with_options(8, 2, IterationLimit::Fixed(1), AcceptPolicy::Random);
        let reqs = RequestMatrix::from_pairs(8, [(0, 0)]);
        let m = pim.schedule(&reqs);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn paper_figure_2_pattern_completes_in_two_iterations() {
        // Figure 2: inputs request {1:{2,4}, 2:{2}, 3:{2}, 4:{4}} (1-based).
        // After running to completion the match must include 4->4 (0-based
        // 3->3) and one of the inputs matched to output 2.
        let reqs = RequestMatrix::from_pairs(4, [(0, 1), (0, 3), (1, 1), (2, 1), (3, 3)]);
        for seed in 0..20 {
            let mut pim = pim_complete(4, seed);
            let (m, stats) = pim.schedule_with_stats(&reqs);
            assert!(stats.iterations_run <= 3, "seed {seed}");
            assert!(m.is_maximal(&reqs));
            // Output 1 (paper's output 2) must be matched: three requesters.
            assert!(m.output_matched(OutputPort::new(1)));
            // Output 3 (paper's output 4) must be matched.
            assert!(m.output_matched(OutputPort::new(3)));
            assert_eq!(m.len(), 2);
        }
    }

    #[test]
    fn round_robin_accept_rotates() {
        // Input 0 requests outputs 0 and 1, both always grant (no other
        // requesters). With round-robin accept, successive *slots* must
        // alternate which grant is accepted.
        let reqs = RequestMatrix::from_pairs(2, [(0, 0), (0, 1)]);
        let mut pim = Pim::with_options(
            2,
            5,
            IterationLimit::Fixed(1),
            AcceptPolicy::RoundRobin,
        );
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            let m = pim.schedule(&reqs);
            seen.insert(m.output_of(InputPort::new(0)).unwrap().index());
        }
        assert_eq!(seen.len(), 2, "round-robin accept must visit both outputs");
    }

    #[test]
    fn lowest_index_accept_is_deterministic() {
        let reqs = RequestMatrix::from_pairs(2, [(0, 0), (0, 1)]);
        let mut pim = Pim::with_options(
            2,
            5,
            IterationLimit::Fixed(1),
            AcceptPolicy::LowestIndex,
        );
        for _ in 0..4 {
            let m = pim.schedule(&reqs);
            assert_eq!(m.output_of(InputPort::new(0)), Some(OutputPort::new(0)));
        }
    }

    #[test]
    fn trace_observer_sees_consistent_iterations() {
        let reqs = RequestMatrix::from_pairs(4, [(0, 1), (0, 3), (1, 1), (2, 1), (3, 3)]);
        let mut pim = pim_complete(4, 1);
        let mut records = Vec::new();
        let (m, stats) = pim.schedule_traced(&reqs, &mut |r| records.push(r.clone()));
        assert_eq!(records.len(), stats.iterations_run);
        // Accepted pairs across all iterations reconstruct the matching.
        let total_accepts: usize = records.iter().map(|r| r.accepts.len()).sum();
        assert_eq!(total_accepts, m.len());
        // In iteration 1 output 1 has requesters {0,1,2}.
        assert_eq!(
            records[0].requests[1].iter().collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // Grants point only at requesters.
        for r in &records {
            for i in 0..4 {
                for j in r.grants[i].iter() {
                    assert!(r.requests[j].contains(i));
                }
            }
        }
    }

    #[test]
    fn appendix_a_average_resolution_factor() {
        // Appendix A: each iteration resolves an average of >= 3/4 of the
        // unresolved requests. Check the first iteration empirically on
        // dense 16x16 matrices.
        let mut root = Xoshiro256::seed_from(1234);
        let mut before = 0usize;
        let mut after = 0usize;
        for trial in 0..400 {
            let reqs = RequestMatrix::random(16, 1.0, &mut root);
            before += reqs.len();
            let mut pim =
                Pim::with_options(16, trial, IterationLimit::Fixed(1), AcceptPolicy::Random);
            let (_, stats) = pim.schedule_with_stats(&reqs);
            after += stats.unresolved_after[0];
        }
        let resolved_fraction = 1.0 - after as f64 / before as f64;
        assert!(
            resolved_fraction >= 0.75,
            "average resolution factor {resolved_fraction} below Appendix A bound"
        );
    }

    #[test]
    fn expected_iterations_within_appendix_a_bound() {
        // E[C] <= log2(N) + 4/3. Measure the sample mean over many trials.
        for n in [4usize, 16, 64] {
            let mut root = Xoshiro256::seed_from(n as u64);
            let mut total_iters = 0usize;
            let trials = 300;
            for t in 0..trials {
                let reqs = RequestMatrix::random(n, 1.0, &mut root);
                let mut pim = pim_complete(n, t as u64);
                let (_, stats) = pim.schedule_with_stats(&reqs);
                total_iters += stats.iterations_run;
            }
            let mean = total_iters as f64 / trials as f64;
            let bound = (n as f64).log2() + 4.0 / 3.0;
            assert!(
                mean <= bound,
                "n={n}: mean iterations {mean} exceeds bound {bound}"
            );
        }
    }

    #[test]
    fn degenerate_randomness_hits_the_worst_case() {
        // §3.2: "In the worst case, this can take N iterations: if all
        // outputs grant to the same input, only one of the grants can be
        // accepted on each round." A constant "random" source makes every
        // output grant the same (highest-indexed) requester, so dense
        // requests resolve one input per iteration — exactly N iterations
        // — while real randomness needs only O(log N). (The constant must
        // be u64::MAX, which Lemire's rejection step always accepts; a
        // constant 0 would be rejected forever for some range sizes.)
        #[derive(Clone, Debug)]
        struct MaxRng;
        impl SelectRng for MaxRng {
            fn next_u64(&mut self) -> u64 {
                u64::MAX
            }
        }
        let n = 16;
        let reqs = RequestMatrix::from_fn(n, |_, _| true);
        let mut degenerate = Pim::from_streams(
            n,
            IterationLimit::ToCompletion,
            AcceptPolicy::LowestIndex,
            vec![MaxRng; n],
            vec![MaxRng; n],
        );
        let (m, stats) = degenerate.schedule_with_stats(&reqs);
        assert_eq!(stats.iterations_run, n, "worst case is exactly N iterations");
        assert!(m.is_perfect());
        // Every iteration matched exactly one more pair.
        for (k, &sz) in stats.matches_after.iter().enumerate() {
            assert_eq!(sz, k + 1);
        }

        let mut random = Pim::with_options(
            n,
            1,
            IterationLimit::ToCompletion,
            AcceptPolicy::Random,
        );
        let (_, stats) = random.schedule_with_stats(&reqs);
        assert!(
            stats.iterations_run <= 7,
            "randomized PIM took {} iterations",
            stats.iterations_run
        );
    }

    #[test]
    #[should_panic(expected = "does not match scheduler size")]
    fn size_mismatch_panics() {
        let mut pim = Pim::new(4, 0);
        let reqs = RequestMatrix::new(8);
        let _ = pim.schedule(&reqs);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_fixed_iterations_panics() {
        let _ = Pim::with_options(4, 0, IterationLimit::Fixed(0), AcceptPolicy::Random);
    }
}
