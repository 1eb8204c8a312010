//! The request matrix: which input–output pairs have a queued cell.
//!
//! §3.4 frames switch scheduling as bipartite matching: "Switch inputs and
//! outputs form the nodes of a bipartite graph; the edges are the
//! connections needed by queued cells." [`RequestMatrix`] is that edge set.
//! Both row (per-input) and column (per-output) bitset views are maintained
//! so the grant phase of parallel iterative matching — each output surveys
//! its requesters — is as cheap as the request phase.

use crate::port::{InputPort, OutputPort, PortSetN};
use crate::rng::SelectRng;
use std::fmt;

/// The set of input→output connection requests for one time slot, generic
/// over the bitset width `W` (64 ports per word).
///
/// Entry `(i, j)` is set when input `i` has at least one queued cell destined
/// for output `j` (with random access input buffers, §2.4, every queued
/// destination is eligible, not just the head of a FIFO).
///
/// Use the [`RequestMatrix`] alias (`W = 4`, up to 256 ports) unless you are
/// driving a wide switch.
///
/// # Examples
///
/// ```
/// use an2_sched::{InputPort, OutputPort, RequestMatrix};
/// let mut m = RequestMatrix::new(4);
/// m.set(InputPort::new(0), OutputPort::new(2));
/// assert!(m.has(InputPort::new(0), OutputPort::new(2)));
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct RequestMatrixN<const W: usize> {
    n: usize,
    /// `rows[i]` = outputs requested by input `i`.
    rows: Vec<PortSetN<W>>,
    /// `cols[j]` = inputs requesting output `j`.
    cols: Vec<PortSetN<W>>,
    /// `col_len[j]` = `cols[j].len()`, maintained incrementally so the
    /// grant phase can size its uniform draw without a popcount scan.
    col_len: Vec<u16>,
    /// `col_word_cnt[j * W + w]` = popcount of word `w` of column `j`,
    /// maintained incrementally. [`col_select_nth`](Self::col_select_nth)
    /// rank-selects from these counts and then reads a *single* word of the
    /// column, instead of popcount-scanning all `W` words — the difference
    /// between ~40 ns and ~15 ns per grant draw at `W = 16`.
    col_word_cnt: Vec<u16>,
    /// `col_nz[j]` = bitmap of which of column `j`'s `W` words are nonzero
    /// (bit `w` set iff `col_word_cnt[j*W+w] > 0`; requires `W <= 64`).
    /// This is the top level of the sparse column scans: a grant select or
    /// eligibility intersection walks only the set bits of this one word
    /// instead of all `W` column words, so per-output work scales with the
    /// column's active words, not the switch width.
    col_nz: Vec<u64>,
    /// `row_len[i]` = `rows[i].len()`, maintained incrementally so row
    /// emptiness transitions update `nonempty_rows` without a popcount.
    row_len: Vec<u16>,
    /// Outputs whose column is non-empty. Lets schedulers skip requestless
    /// outputs in one word-parallel intersection instead of probing all `n`.
    nonempty_cols: PortSetN<W>,
    /// Inputs whose row is non-empty — the active-input summary mirror of
    /// `nonempty_cols`, maintained on the same set/clear increments.
    nonempty_rows: PortSetN<W>,
    /// Total outstanding requests, maintained incrementally so
    /// [`len`](Self::len)/[`is_empty`](Self::is_empty) are O(1) — this is
    /// the active-pair count the batch engine reads every slot.
    total: usize,
}

/// The default-width request matrix (up to [`crate::MAX_PORTS`] ports).
pub type RequestMatrix = RequestMatrixN<4>;

/// The wide request matrix (up to [`crate::MAX_WIDE_PORTS`] ports).
pub type WideRequestMatrix = RequestMatrixN<16>;

impl<const W: usize> RequestMatrixN<W> {
    /// Creates an empty `n`×`n` request matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds the width's capacity (`W * 64`).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "switch must have at least one port");
        assert!(n <= PortSetN::<W>::CAPACITY, "switch size {n} out of range");
        assert!(W <= 64, "the per-column nonzero-word bitmap requires W <= 64");
        Self {
            n,
            rows: vec![PortSetN::new(); n],
            cols: vec![PortSetN::new(); n],
            col_len: vec![0; n],
            col_word_cnt: vec![0; n * W],
            col_nz: vec![0; n],
            row_len: vec![0; n],
            nonempty_cols: PortSetN::new(),
            nonempty_rows: PortSetN::new(),
            total: 0,
        }
    }

    /// Builds a matrix from a predicate over `(input, output)` index pairs.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds the width's capacity.
    pub fn from_fn(n: usize, mut has_request: impl FnMut(usize, usize) -> bool) -> Self {
        let mut m = Self::new(n);
        for i in 0..n {
            for j in 0..n {
                if has_request(i, j) {
                    m.set(InputPort::new(i), OutputPort::new(j));
                }
            }
        }
        m
    }

    /// Builds a matrix from explicit `(input, output)` index pairs.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= n`, or if `n` is out of range.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut m = Self::new(n);
        for (i, j) in pairs {
            assert!(i < n && j < n, "request ({i},{j}) outside {n}x{n} switch");
            m.set(InputPort::new(i), OutputPort::new(j));
        }
        m
    }

    /// Generates a random matrix where each entry is set independently with
    /// probability `p` — the workload of the paper's Table 1.
    pub fn random(n: usize, p: f64, rng: &mut impl SelectRng) -> Self {
        let mut m = Self::new(n);
        for i in 0..n {
            for j in 0..n {
                if rng.bernoulli(p) {
                    m.set(InputPort::new(i), OutputPort::new(j));
                }
            }
        }
        m
    }

    /// The switch radix `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Returns `true` if input `i` has a request for output `j`.
    ///
    /// # Panics
    ///
    /// Panics if either port index is `>= n`.
    #[inline]
    // an2-lint: allow(panic-freedom) check(i, j) validates both ports < n (documented "# Panics" contract), so every row/col/cache index is in range
    pub fn has(&self, i: InputPort, j: OutputPort) -> bool {
        self.check(i, j);
        self.rows[i.index()].contains(j.index())
    }

    /// Adds the request `(i, j)`; returns `true` if it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if either port index is `>= n`.
    // an2-lint: allow(panic-freedom) check(i, j) validates both ports < n (documented "# Panics" contract), so every row/col/cache index is in range
    // an2-lint: allow(overflow-discipline) occupancy counters are exact counts bounded by n*n pending requests
    pub fn set(&mut self, i: InputPort, j: OutputPort) -> bool {
        self.check(i, j);
        let added = self.cols[j.index()].insert(i.index());
        if added {
            self.col_len[j.index()] += 1;
            let cnt = &mut self.col_word_cnt[j.index() * W + (i.index() >> 6)];
            *cnt += 1;
            if *cnt == 1 {
                self.col_nz[j.index()] |= 1u64 << (i.index() >> 6);
            }
            self.nonempty_cols.insert(j.index());
            self.row_len[i.index()] += 1;
            self.nonempty_rows.insert(i.index());
            self.total += 1;
        }
        self.rows[i.index()].insert(j.index())
    }

    /// Removes the request `(i, j)`; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if either port index is `>= n`.
    // an2-lint: allow(panic-freedom) check(i, j) validates both ports < n (documented "# Panics" contract), so every row/col/cache index is in range
    // an2-lint: allow(overflow-discipline) decrements are guarded by `removed`, so counts never pass zero
    pub fn clear(&mut self, i: InputPort, j: OutputPort) -> bool {
        self.check(i, j);
        let removed = self.cols[j.index()].remove(i.index());
        if removed {
            self.col_len[j.index()] -= 1;
            let cnt = &mut self.col_word_cnt[j.index() * W + (i.index() >> 6)];
            *cnt -= 1;
            if *cnt == 0 {
                self.col_nz[j.index()] &= !(1u64 << (i.index() >> 6));
            }
            if self.col_len[j.index()] == 0 {
                self.nonempty_cols.remove(j.index());
            }
            self.row_len[i.index()] -= 1;
            if self.row_len[i.index()] == 0 {
                self.nonempty_rows.remove(i.index());
            }
            self.total -= 1;
        }
        self.rows[i.index()].remove(j.index())
    }

    /// The outputs requested by input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i.index() >= n`.
    #[inline]
    // an2-lint: allow(panic-freedom) check-validated i < n (documented "# Panics" contract) bounds the row index
    pub fn row(&self, i: InputPort) -> &PortSetN<W> {
        assert!(i.index() < self.n, "input {i} outside {0}x{0} switch", self.n);
        &self.rows[i.index()]
    }

    /// The inputs requesting output `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j.index() >= n`.
    #[inline]
    // an2-lint: allow(panic-freedom) check-validated j < n (documented "# Panics" contract) bounds every column index
    pub fn col(&self, j: OutputPort) -> &PortSetN<W> {
        assert!(
            j.index() < self.n,
            "output {j} outside {0}x{0} switch",
            self.n
        );
        &self.cols[j.index()]
    }

    /// Number of inputs requesting output `j`, from the incremental cache
    /// (no popcount scan).
    ///
    /// # Panics
    ///
    /// Panics if `j.index() >= n`.
    #[inline]
    // an2-lint: allow(panic-freedom) check-validated j < n (documented "# Panics" contract) bounds every column index
    pub fn col_len(&self, j: OutputPort) -> usize {
        assert!(
            j.index() < self.n,
            "output {j} outside {0}x{0} switch",
            self.n
        );
        self.col_len[j.index()] as usize
    }

    /// The set of outputs with at least one requester.
    #[inline]
    pub fn nonempty_cols(&self) -> &PortSetN<W> {
        &self.nonempty_cols
    }

    /// The set of inputs with at least one outstanding request — the
    /// active-input summary, maintained incrementally on set/clear.
    #[inline]
    pub fn nonempty_rows(&self) -> &PortSetN<W> {
        &self.nonempty_rows
    }

    /// The first requester of output `j` at or after `start`, wrapping,
    /// restricted to `eligible` inputs; `None` exactly when
    /// `col(j) ∩ eligible` is empty.
    ///
    /// Returns exactly what
    /// `col(j).intersection(eligible).first_at_or_after(start)` returns,
    /// but via a two-level scan: the column's nonzero-word bitmap picks
    /// candidate words, and only those words are intersected with
    /// `eligible` and bit-scanned. This replaces iSLIP's linear pointer
    /// walk — per-output grant cost becomes O(active words of the
    /// column), not O(W) — without changing any decision.
    ///
    /// # Panics
    ///
    /// Panics if `j.index() >= n` or `start >= W * 64`.
    #[inline]
    // an2-lint: allow(panic-freedom) asserted start < n and j < n (documented contract); word indices stay < W via index>>6
    pub fn col_first_at_or_after_in(
        &self,
        j: OutputPort,
        start: usize,
        eligible: &PortSetN<W>,
    ) -> Option<usize> {
        assert!(
            j.index() < self.n,
            "output {j} outside {0}x{0} switch",
            self.n
        );
        assert!(
            start < PortSetN::<W>::CAPACITY,
            "port index {start} out of range"
        );
        let nz = self.col_nz[j.index()];
        if nz == 0 {
            return None;
        }
        let words = self.cols[j.index()].words();
        let ew = eligible.words();
        let w0 = start >> 6;
        // The word holding `start`, masked to bits at or above it.
        if nz >> w0 & 1 == 1 {
            let m = words[w0] & ew[w0] & (!0u64 << (start & 63));
            if m != 0 {
                return Some(w0 * 64 + m.trailing_zeros() as usize);
            }
        }
        // Nonzero words strictly above `start`'s word, in ascending order.
        let mut rest = nz & !(u64::MAX >> (63 - w0));
        while rest != 0 {
            let w = rest.trailing_zeros() as usize;
            let m = words[w] & ew[w];
            if m != 0 {
                return Some(w * 64 + m.trailing_zeros() as usize);
            }
            rest &= rest - 1;
        }
        // Wrap: no eligible requester at or after `start` exists, so every
        // remaining member is below it and the answer is the overall first
        // member — the lowest bit of the lowest nonzero intersection word.
        let mut wrap = nz & (u64::MAX >> (63 - w0));
        while wrap != 0 {
            let w = wrap.trailing_zeros() as usize;
            let m = words[w] & ew[w];
            if m != 0 {
                return Some(w * 64 + m.trailing_zeros() as usize);
            }
            wrap &= wrap - 1;
        }
        None
    }

    /// The eligible-requester set `col(j) ∩ eligible` together with its
    /// size, on the `V` words of `eligible`, assembled by touching only the
    /// column's live (nonzero) words among them (dense columns fall back to
    /// the word-parallel intersection, which is cheaper once most words are
    /// live).
    ///
    /// Returns exactly (`col(j) ∩ eligible`, its size): `eligible` has no
    /// member at or above `V * 64`, so the column's words there cannot
    /// contribute. A grant draw sized and selected from this pair is
    /// therefore bit-identical at every width to one made from the dense
    /// intersection — the sparse PIM path's guarantee — and PIM can run a
    /// switch of `n <= 64` ports on one-word sets (`V = 1`) whatever `W`.
    ///
    /// # Panics
    ///
    /// Panics if `j.index() >= n`.
    #[inline]
    // an2-lint: allow(panic-freedom) asserted j < n (documented contract); nonzero-word indices come from col_nz bits < min(V, W)
    // an2-lint: allow(overflow-discipline) the popcount accumulator is bounded by the column's 64*W bits
    pub fn col_eligible<const V: usize>(
        &self,
        j: OutputPort,
        eligible: &PortSetN<V>,
    ) -> (PortSetN<V>, usize) {
        assert!(
            j.index() < self.n,
            "output {j} outside {0}x{0} switch",
            self.n
        );
        // The column's live words among the first `V`.
        let live = if V >= 64 {
            self.col_nz[j.index()]
        } else {
            self.col_nz[j.index()] & ((1u64 << V) - 1)
        };
        let words = self.cols[j.index()].words();
        let ew = eligible.words();
        let mut out = PortSetN::<V>::new();
        let ow = out.words_mut();
        if live.count_ones() as usize * 2 >= V {
            for (o, (&c, &e)) in ow.iter_mut().zip(words.iter().zip(ew)) {
                *o = c & e;
            }
            let len = out.len();
            return (out, len);
        }
        let mut len = 0usize;
        let mut rest = live;
        while rest != 0 {
            let w = rest.trailing_zeros() as usize;
            let m = words[w] & ew[w];
            ow[w] = m;
            len += m.count_ones() as usize;
            rest &= rest - 1;
        }
        (out, len)
    }

    /// The `k`-th smallest input requesting output `j` (zero-based), or
    /// `None` if `k >= col_len(j)`.
    ///
    /// Returns exactly what `col(j).select_nth(k)` returns, but walks only
    /// the column's live words, found from the nonzero-word bitmap: a
    /// column with one live word (the common case of a lightly loaded wide
    /// switch, and every column of a switch of 64 ports or fewer) goes
    /// straight to that word, reading no cached count; with several live
    /// words, a branch-free count over the cached per-word popcounts picks
    /// the word holding rank `k`. Either way a single column word is
    /// read and rank-selected, never the full `8 * W`-byte column. This is
    /// the grant phase's draw primitive: because the result is identical to
    /// the bitset rank-select, using it never changes a scheduling decision
    /// at any width.
    ///
    /// # Panics
    ///
    /// Panics if `j.index() >= n`.
    #[inline]
    // an2-lint: allow(panic-freedom) asserted j < n (documented contract); word indices come from col_nz bits < W
    // an2-lint: allow(overflow-discipline) prefix popcount accumulators are bounded by the column's 64*W bits
    pub fn col_select_nth(&self, j: OutputPort, k: usize) -> Option<usize> {
        assert!(
            j.index() < self.n,
            "output {j} outside {0}x{0} switch",
            self.n
        );
        // A rank past `u32::MAX` is past every member.
        let Ok(kk) = u32::try_from(k) else {
            return None;
        };
        let words = self.cols[j.index()].words();
        let live = self.col_nz[j.index()];
        if live.is_power_of_two() {
            let w = live.trailing_zeros() as usize;
            let word = words[w];
            return (kk < word.count_ones())
                .then(|| w * 64 + crate::port::select_in_word(word, kk) as usize);
        }
        // Several live words: count the words wholly before rank `k` from
        // the cached popcounts, branch-free (same scheme as
        // `PortSetN::select_nth`; dead words count zero).
        let counts = &self.col_word_cnt[j.index() * W..j.index() * W + W];
        let mut word_idx = 0usize;
        let mut base = 0u32;
        let mut prefix = 0u32;
        for &c in counts {
            let c = c as u32;
            prefix += c;
            let before = ((prefix <= kk) as u32).wrapping_neg();
            word_idx += (before & 1) as usize;
            base += c & before;
        }
        if word_idx == W {
            return None;
        }
        Some(word_idx * 64 + crate::port::select_in_word(words[word_idx], kk - base) as usize)
    }

    /// Total number of requests (edges in the bipartite graph) — the
    /// active-pair count, O(1) from the incremental counter.
    #[inline]
    pub fn len(&self) -> usize {
        self.total
    }

    /// Returns `true` if there are no requests at all, in O(1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Iterates over all `(input, output)` request pairs in row-major order,
    /// visiting only the active rows.
    // an2-lint: allow(panic-freedom) row indices iterate nonempty_rows, whose members are < n by construction
    pub fn pairs(&self) -> impl Iterator<Item = (InputPort, OutputPort)> + '_ {
        self.nonempty_rows.iter().flat_map(|i| {
            self.rows[i]
                .iter()
                .map(move |j| (InputPort::new(i), OutputPort::new(j)))
        })
    }

    /// Removes every request.
    pub fn clear_all(&mut self) {
        for r in &mut self.rows {
            r.clear();
        }
        for c in &mut self.cols {
            c.clear();
        }
        self.col_len.fill(0);
        self.col_word_cnt.fill(0);
        self.col_nz.fill(0);
        self.row_len.fill(0);
        self.nonempty_cols.clear();
        self.nonempty_rows.clear();
        self.total = 0;
    }

    #[inline]
    // an2-lint: allow(panic-freedom) this assert IS the validation point every accessor's documented "# Panics" contract delegates to
    fn check(&self, i: InputPort, j: OutputPort) {
        assert!(
            i.index() < self.n && j.index() < self.n,
            "request ({i},{j}) outside {0}x{0} switch",
            self.n
        );
    }
}

impl<const W: usize> fmt::Debug for RequestMatrixN<W> {
    /// Renders the matrix as a grid of `.`/`#`, one row per input.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RequestMatrix({}x{})", self.n, self.n)?;
        for i in 0..self.n {
            for j in 0..self.n {
                let c = if self.rows[i].contains(j) { '#' } else { '.' };
                write!(f, "{c}")?;
            }
            if i + 1 < self.n {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn ip(i: usize) -> InputPort {
        InputPort::new(i)
    }
    fn op(j: usize) -> OutputPort {
        OutputPort::new(j)
    }

    #[test]
    fn rows_and_cols_stay_consistent() {
        let mut m = RequestMatrix::new(8);
        m.set(ip(1), op(5));
        m.set(ip(1), op(6));
        m.set(ip(3), op(5));
        assert_eq!(m.row(ip(1)).iter().collect::<Vec<_>>(), vec![5, 6]);
        assert_eq!(m.col(op(5)).iter().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(m.len(), 3);
        m.clear(ip(1), op(5));
        assert!(!m.has(ip(1), op(5)));
        assert_eq!(m.col(op(5)).iter().collect::<Vec<_>>(), vec![3]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn from_pairs_and_pairs_roundtrip() {
        let pairs = vec![(0, 1), (2, 3), (3, 0)];
        let m = RequestMatrix::from_pairs(4, pairs.clone());
        let got: Vec<(usize, usize)> =
            m.pairs().map(|(i, j)| (i.index(), j.index())).collect();
        assert_eq!(got, pairs);
    }

    #[test]
    fn from_fn_diagonal() {
        let m = RequestMatrix::from_fn(5, |i, j| i == j);
        assert_eq!(m.len(), 5);
        for i in 0..5 {
            assert!(m.has(ip(i), op(i)));
        }
    }

    #[test]
    fn random_density_tracks_p() {
        let mut rng = Xoshiro256::seed_from(42);
        let mut total = 0usize;
        let trials = 200;
        let n = 16;
        for _ in 0..trials {
            total += RequestMatrix::random(n, 0.25, &mut rng).len();
        }
        let density = total as f64 / (trials * n * n) as f64;
        assert!((density - 0.25).abs() < 0.02, "density {density}");
    }

    #[test]
    fn clear_all_empties() {
        let mut m = RequestMatrix::from_fn(4, |_, _| true);
        assert_eq!(m.len(), 16);
        m.clear_all();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn wide_matrix_round_trips_across_words() {
        let mut m = WideRequestMatrix::new(1024);
        m.set(ip(0), op(1023));
        m.set(ip(1023), op(0));
        m.set(ip(512), op(700));
        assert!(m.has(ip(0), op(1023)));
        assert!(m.has(ip(1023), op(0)));
        assert_eq!(m.col(op(700)).iter().collect::<Vec<_>>(), vec![512]);
        assert_eq!(m.len(), 3);
        m.clear(ip(512), op(700));
        assert!(m.col(op(700)).is_empty());
    }

    #[test]
    fn col_len_cache_tracks_mutations() {
        let mut rng = Xoshiro256::seed_from(7);
        let mut m = WideRequestMatrix::random(300, 0.1, &mut rng);
        for j in (0..300).step_by(3) {
            for i in 0..300 {
                m.clear(ip(i), op(j));
            }
        }
        m.set(ip(299), op(0));
        for j in 0..300 {
            assert_eq!(m.col_len(op(j)), m.col(op(j)).len(), "col {j}");
            assert_eq!(
                m.nonempty_cols().contains(j),
                !m.col(op(j)).is_empty(),
                "nonempty bit {j}"
            );
        }
    }

    #[test]
    fn active_set_caches_track_mutations() {
        let mut rng = Xoshiro256::seed_from(19);
        let mut m = WideRequestMatrix::random(300, 0.08, &mut rng);
        // Churn: clear every request of a third of the rows, re-add a few.
        for i in (0..300).step_by(3) {
            for j in 0..300 {
                m.clear(ip(i), op(j));
            }
        }
        m.set(ip(0), op(299));
        m.clear(ip(0), op(299));
        m.set(ip(3), op(70));
        let mut total = 0;
        for i in 0..300 {
            let row = m.row(ip(i));
            total += row.len();
            assert_eq!(
                m.nonempty_rows().contains(i),
                !row.is_empty(),
                "nonempty row bit {i}"
            );
        }
        assert_eq!(m.len(), total, "incremental total");
        assert_eq!(m.is_empty(), total == 0);
        // Per-column nonzero-word bitmaps match the actual column words.
        for j in 0..300 {
            let words = m.col(op(j)).words();
            for (w, &word) in words.iter().enumerate() {
                assert_eq!(
                    m.col_nz[j] >> w & 1 == 1,
                    word != 0,
                    "col {j} word {w} nz bit"
                );
            }
        }
    }

    #[test]
    fn col_first_at_or_after_in_matches_dense_reference() {
        let mut rng = Xoshiro256::seed_from(23);
        for trial in 0..40 {
            let n = [70, 130, 512, 1024][trial % 4];
            let p = [0.0, 0.01, 0.1, 0.6][trial % 4];
            let m = WideRequestMatrix::random(n, p, &mut rng);
            // Random eligible sets, including empty and full.
            let eligible: crate::port::WidePortSet = match trial % 3 {
                0 => crate::port::PortSetN::all(n),
                1 => (0..n).filter(|_| rng.bernoulli(0.5)).collect(),
                _ => (0..n).filter(|_| rng.bernoulli(0.05)).collect(),
            };
            for j in (0..n).step_by(7) {
                for start in [0, 1, 63, 64, n / 2, n - 1] {
                    let dense = m
                        .col(op(j))
                        .intersection(&eligible)
                        .first_at_or_after(start);
                    let sparse = m.col_first_at_or_after_in(op(j), start, &eligible);
                    assert_eq!(sparse, dense, "trial {trial} col {j} start {start}");
                }
            }
        }
    }

    #[test]
    fn col_eligible_matches_dense_intersection() {
        let mut rng = Xoshiro256::seed_from(29);
        for trial in 0..40 {
            let n = [70, 256, 700, 1024][trial % 4];
            let p = [0.0, 0.02, 0.3, 0.9][trial % 4];
            let m = WideRequestMatrix::random(n, p, &mut rng);
            let eligible: crate::port::WidePortSet =
                (0..n).filter(|_| rng.bernoulli(0.4)).collect();
            for j in (0..n).step_by(11) {
                let dense = m.col(op(j)).intersection(&eligible);
                let (sparse, len) = m.col_eligible(op(j), &eligible);
                assert_eq!(sparse, dense, "trial {trial} col {j}");
                assert_eq!(len, dense.len(), "trial {trial} col {j} len");
            }
        }
    }

    #[test]
    fn debug_renders_grid() {
        let m = RequestMatrix::from_pairs(2, [(0, 1)]);
        let s = format!("{m:?}");
        assert!(s.contains(".#"));
        assert!(s.contains(".."));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_set_panics() {
        let mut m = RequestMatrix::new(4);
        m.set(ip(4), op(0));
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_size_panics() {
        let _ = RequestMatrix::new(0);
    }
}
