//! Port identifiers and port sets.
//!
//! A switch has `n` input ports and `n` output ports. The paper's AN2
//! prototype is 16×16; the algorithms here were designed for "moderate
//! scale" switches (§2.1). The bitset [`PortSetN`] is width-parameterized
//! by its word count `W`, and every scheduler kernel is generic over it.
//! Which width a switch runs on follows from its radix alone, by the rule
//! of [`with_port_width!`](crate::with_port_width):
//!
//! | radix `n`     | `W`  | aliases                            |
//! |---------------|------|------------------------------------|
//! | `n <= 64`     | 1    | —                                  |
//! | `n <= 256`    | 4    | [`PortSet`] (up to [`MAX_PORTS`])  |
//! | `n <= 1024`   | 16   | [`WidePortSet`] (up to [`MAX_WIDE_PORTS`]) |
//!
//! Narrower sets are cheaper to zero, copy and scan: a `MatchingN<1>` is a
//! quarter of a `MatchingN<4>`. The one- and four-word widths make
//! identical decisions at every radix both can hold: the only kernel step
//! that depends on `W` is PIM's grant draw, which samples by rejection at
//! the sixteen-word width alone.

use std::fmt;

/// Radix of the four-word [`PortSet`] width.
///
/// The paper targets 16×16 to 64×64 switches (§2.1). The width rule of
/// [`with_port_width!`](crate::with_port_width) runs radices up to 64 on
/// one-word sets, radices up to this bound on four-word sets, and larger
/// ones on sixteen-word sets, up to [`MAX_WIDE_PORTS`] = 1024. The
/// unparameterized aliases ([`PortSet`], `RequestMatrix`, `Pim`, …) name
/// the four-word width.
pub const MAX_PORTS: usize = 256;

/// Maximum switch radix supported by the crate across all widths.
///
/// Port identifiers are width-agnostic, so this is the one global cap:
/// 1024 ports = a 16-word [`WidePortSet`], the largest width the scaling
/// experiments exercise.
pub const MAX_WIDE_PORTS: usize = 1024;

/// Bitset words in the wide ([`MAX_WIDE_PORTS`]-port) width.
pub const WIDE_WORDS: usize = MAX_WIDE_PORTS / 64;

/// Evaluates an expression with `const W: usize` bound to the bitset width
/// an `n`-port switch runs on: one word for `n <= 64`, four for
/// `n <= 256`, sixteen above.
///
/// This is the one place the width rule lives; a radix too large for
/// sixteen words still gets `W = 16` and is rejected by the constructors.
/// The expression is compiled once per width.
///
/// # Examples
///
/// ```
/// use an2_sched::{with_port_width, PimN, Scheduler, RequestMatrixN};
///
/// fn matched<const W: usize>(n: usize) -> usize {
///     let requests = RequestMatrixN::<W>::from_fn(n, |i, j| i == j);
///     PimN::<_, W>::new(n, 7).schedule(&requests).len()
/// }
///
/// assert_eq!(with_port_width!(16, W => W), 1);
/// assert_eq!(with_port_width!(16, W => matched::<W>(16)), 16);
/// ```
#[macro_export]
macro_rules! with_port_width {
    ($n:expr, $w:ident => $body:expr) => {
        match $n {
            n if n <= 64 => {
                const $w: usize = 1;
                $body
            }
            n if n <= $crate::MAX_PORTS => {
                const $w: usize = 4;
                $body
            }
            _ => {
                const $w: usize = $crate::WIDE_WORDS;
                $body
            }
        }
    };
}

const WORDS: usize = MAX_PORTS / 64;

/// An input-port index of a switch.
///
/// Newtype over `usize` so inputs and outputs cannot be confused
/// (an input can only ever be matched to an output).
///
/// # Examples
///
/// ```
/// use an2_sched::InputPort;
/// let p = InputPort::new(3);
/// assert_eq!(p.index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InputPort(usize);

/// An output-port index of a switch.
///
/// # Examples
///
/// ```
/// use an2_sched::OutputPort;
/// let p = OutputPort::new(0);
/// assert_eq!(p.index(), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OutputPort(usize);

macro_rules! port_impls {
    ($ty:ident, $label:expr) => {
        impl $ty {
            /// Creates a port with the given index.
            ///
            /// # Panics
            ///
            /// Panics if `index >= MAX_WIDE_PORTS`.
            #[inline]
            pub fn new(index: usize) -> Self {
                assert!(index < MAX_WIDE_PORTS, "port index {index} out of range");
                Self(index)
            }

            /// Returns the zero-based index of this port.
            #[inline]
            pub fn index(self) -> usize {
                self.0
            }

            /// Returns an iterator over all ports of an `n`-port switch.
            ///
            /// # Panics
            ///
            /// Panics if `n > MAX_WIDE_PORTS`.
            // an2-lint: allow(panic-freedom) the size assert is this API's documented "# Panics" contract
            pub fn all(n: usize) -> impl Iterator<Item = Self> {
                assert!(n <= MAX_WIDE_PORTS, "switch size {n} out of range");
                (0..n).map(Self)
            }
        }

        impl fmt::Debug for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($label, "{}"), self.0)
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }

        impl From<$ty> for usize {
            fn from(p: $ty) -> usize {
                p.0
            }
        }
    };
}

port_impls!(InputPort, "in");
port_impls!(OutputPort, "out");

/// A set of port indices, stored as a fixed-size bitset of `W` words.
///
/// Used for request rows/columns and matched/unmatched port tracking in the
/// schedulers. All operations are O(`W`) word operations, which is what
/// makes the per-iteration work of parallel iterative matching cheap in
/// software (the hardware analogue is the request/grant wires of §3.3).
/// `W = 1` holds switches of up to 64 ports, `W = 4` (the [`PortSet`]
/// alias) up to 256, and `W = 16` ([`WidePortSet`]) the 1024-port scaling
/// experiments; [`with_port_width!`](crate::with_port_width) picks one.
///
/// The set is untyped with respect to input vs output; the surrounding
/// context (e.g. [`crate::RequestMatrix::row`]) fixes the interpretation.
///
/// # Examples
///
/// ```
/// use an2_sched::PortSet;
/// let mut s = PortSet::new();
/// s.insert(2);
/// s.insert(5);
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(2));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 5]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortSetN<const W: usize> {
    words: [u64; W],
}

/// The default four-word port set: up to [`MAX_PORTS`] = 256 ports.
pub type PortSet = PortSetN<WORDS>;

/// The wide sixteen-word port set: up to [`MAX_WIDE_PORTS`] = 1024 ports.
pub type WidePortSet = PortSetN<WIDE_WORDS>;

impl<const W: usize> Default for PortSetN<W> {
    fn default() -> Self {
        Self { words: [0; W] }
    }
}

impl<const W: usize> PortSetN<W> {
    /// Largest index this width can hold, plus one.
    pub const CAPACITY: usize = W * 64;

    /// Creates an empty set.
    #[inline]
    pub fn new() -> Self {
        Self { words: [0; W] }
    }

    /// Creates a set containing every index in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n > Self::CAPACITY`.
    // an2-lint: allow(panic-freedom) n <= CAPACITY asserted (documented contract); word index w < W by the loop bound
    pub fn all(n: usize) -> Self {
        assert!(n <= Self::CAPACITY, "switch size {n} out of range");
        let mut s = Self::new();
        for w in 0..W {
            let lo = w * 64;
            if n >= lo + 64 {
                s.words[w] = !0;
            } else if n > lo {
                s.words[w] = (1u64 << (n - lo)) - 1;
            }
        }
        s
    }

    /// Returns `true` if the set contains `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= Self::CAPACITY`.
    #[inline]
    // an2-lint: allow(panic-freedom) index < CAPACITY == 64*W asserted (documented contract), so index/64 < W
    pub fn contains(&self, index: usize) -> bool {
        assert!(index < Self::CAPACITY, "port index {index} out of range");
        self.words[index / 64] >> (index % 64) & 1 == 1
    }

    /// Inserts `index`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `index >= Self::CAPACITY`.
    #[inline]
    // an2-lint: allow(panic-freedom) index < CAPACITY == 64*W asserted (documented contract), so index/64 < W
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(index < Self::CAPACITY, "port index {index} out of range");
        let w = &mut self.words[index / 64];
        let bit = 1u64 << (index % 64);
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// Removes `index`; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `index >= Self::CAPACITY`.
    #[inline]
    // an2-lint: allow(panic-freedom) index < CAPACITY == 64*W asserted (documented contract), so index/64 < W
    pub fn remove(&mut self, index: usize) -> bool {
        assert!(index < Self::CAPACITY, "port index {index} out of range");
        let w = &mut self.words[index / 64];
        let bit = 1u64 << (index % 64);
        let present = *w & bit != 0;
        *w &= !bit;
        present
    }

    /// Number of indices in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all indices.
    #[inline]
    pub fn clear(&mut self) {
        self.words = [0; W];
    }

    /// The raw bitset words, least-significant indices first.
    ///
    /// Exposed so word-at-a-time consumers (the SoA batch engine's
    /// request-matrix deltas, occupancy scans) can operate on whole words
    /// without going through per-index calls.
    #[inline]
    pub fn words(&self) -> &[u64; W] {
        &self.words
    }

    /// Mutable access to the raw words, for in-crate kernels that assemble
    /// a set word-at-a-time (the request matrix's sparse column
    /// intersection writes only the column's nonzero words).
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64; W] {
        &mut self.words
    }

    /// The same members on `V` words: the first `min(V, W)` words are
    /// copied and any further ones are zero.
    ///
    /// Narrowing is exact only when every member is below `V * 64`; debug
    /// builds assert that the dropped words are zero. PIM uses this to run
    /// a switch of `n <= 64` ports on one-word sets whatever its width.
    #[inline]
    pub fn to_width<const V: usize>(&self) -> PortSetN<V> {
        debug_assert!(
            self.words.iter().skip(V).all(|&w| w == 0),
            "narrowing to {V} words drops members"
        );
        let mut out = PortSetN::<V>::new();
        for (o, &w) in out.words.iter_mut().zip(&self.words) {
            *o = w;
        }
        out
    }

    /// Set intersection.
    #[inline]
    // an2-lint: allow(panic-freedom) w < W by the loop bound over the fixed-size word array
    pub fn intersection(&self, other: &Self) -> Self {
        let mut out = *self;
        for w in 0..W {
            out.words[w] &= other.words[w];
        }
        out
    }

    /// Set union.
    #[inline]
    // an2-lint: allow(panic-freedom) w < W by the loop bound over the fixed-size word array
    pub fn union(&self, other: &Self) -> Self {
        let mut out = *self;
        for w in 0..W {
            out.words[w] |= other.words[w];
        }
        out
    }

    /// Set difference (`self \ other`).
    #[inline]
    // an2-lint: allow(panic-freedom) w < W by the loop bound over the fixed-size word array
    pub fn difference(&self, other: &Self) -> Self {
        let mut out = *self;
        for w in 0..W {
            out.words[w] &= !other.words[w];
        }
        out
    }

    /// Returns `true` if the two sets share no index.
    #[inline]
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.intersection(other).is_empty()
    }

    /// The smallest index in the set, if any.
    #[inline]
    pub fn first(&self) -> Option<usize> {
        for (w, &word) in self.words.iter().enumerate() {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// The `k`-th smallest index in the set (zero-based), if `k < len()`.
    ///
    /// This is the primitive behind uniform random selection among
    /// requesters/granters: draw `k` uniformly in `0..len()` and take the
    /// `k`-th member.
    pub fn nth(&self, mut k: usize) -> Option<usize> {
        for (w, &word) in self.words.iter().enumerate() {
            let ones = word.count_ones() as usize;
            if k < ones {
                let mut word = word;
                for _ in 0..k {
                    word &= word - 1; // drop lowest set bit
                }
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            k -= ones;
        }
        None
    }

    /// The `k`-th smallest index in the set (zero-based), word-parallel.
    ///
    /// Returns exactly what [`nth`](Self::nth) returns, but instead of
    /// dropping set bits one at a time it skips whole words by popcount and
    /// then rank-selects within the word by halving: six popcount steps
    /// regardless of how many bits precede the answer. This is the hot
    /// selection primitive behind [`crate::rng::SelectRng::choose`] — at
    /// full load a wide request column has up to `W * 64` members, and the
    /// drop-lowest-bit loop of `nth` walks half of them on average.
    // an2-lint: allow(panic-freedom) word/block indices are loop-bounded by W; the final word_idx < W is guaranteed by the early None return
    // an2-lint: allow(overflow-discipline) prefix popcount accumulators are bounded by the set's 64*W bits, far below u32::MAX
    pub fn select_nth(&self, k: usize) -> Option<usize> {
        // Branchless prefix scan: an early-exit word loop mispredicts on
        // random ranks (the exit word depends on the random `k`), so the
        // target word is *counted* instead of searched — a word lies wholly
        // before rank `k` iff the prefix popcount through it is `<= k`, so
        // the target index is the number of such words and the in-word rank
        // is `k` minus their popcount total. Pure adds and mask-ANDs, no
        // data-dependent branches. For wider sets (`W` a multiple of 4
        // beyond one block) the count runs in two levels — pick among
        // 4-word blocks, then among the block's words — halving the serial
        // prefix chain that dominates the flat scan at `W = 16`.
        // A rank past `u32::MAX` is past every member; narrowing it with
        // `as` would wrap it onto a small rank instead.
        let Ok(kk) = u32::try_from(k) else {
            return None;
        };
        let mut word_idx = 0usize;
        let mut base = 0u32;
        if W.is_multiple_of(4) && W > 4 {
            let mut blk = 0usize;
            let mut prefix = 0u32;
            for b in 0..W / 4 {
                let c = self.words[4 * b].count_ones()
                    + self.words[4 * b + 1].count_ones()
                    + self.words[4 * b + 2].count_ones()
                    + self.words[4 * b + 3].count_ones();
                prefix += c;
                // All-ones when this block lies wholly before rank `k`.
                let before = ((prefix <= kk) as u32).wrapping_neg();
                blk += (before & 1) as usize;
                base += c & before;
            }
            if blk == W / 4 {
                return None;
            }
            word_idx = 4 * blk;
            let mut wprefix = base;
            for w in 4 * blk..4 * blk + 3 {
                let c = self.words[w].count_ones();
                wprefix += c;
                let before = ((wprefix <= kk) as u32).wrapping_neg();
                word_idx += (before & 1) as usize;
                base += c & before;
            }
        } else {
            let mut prefix = 0u32;
            for &word in &self.words {
                let c = word.count_ones();
                prefix += c;
                let before = ((prefix <= kk) as u32).wrapping_neg();
                word_idx += (before & 1) as usize;
                base += c & before;
            }
            if word_idx == W {
                return None;
            }
        }
        Some(word_idx * 64 + select_in_word(self.words[word_idx], kk - base) as usize)
    }

    /// Returns `true` if the two sets share at least one member, without
    /// materializing the intersection — one branchless AND/OR pass.
    #[inline]
    // an2-lint: allow(panic-freedom) w < W by the loop bound over the fixed-size word array
    pub fn intersects(&self, other: &Self) -> bool {
        let mut acc = 0u64;
        for w in 0..W {
            acc |= self.words[w] & other.words[w];
        }
        acc != 0
    }

    /// The smallest member `>= start`, wrapping to [`first`](Self::first)
    /// if none; `None` only when the set is empty.
    ///
    /// This is the round-robin pointer scan of iSLIP and of PIM's
    /// round-robin accept policy: mask off the bits below `start` in its
    /// word, scan upward, and wrap. Equivalent to probing
    /// `start, start+1, … (mod n)` one index at a time, in O(words) steps.
    ///
    /// # Panics
    ///
    /// Panics if `start >= Self::CAPACITY`.
    // an2-lint: allow(panic-freedom) start < CAPACITY asserted (documented contract), so start/64 < W; loop words stay < W
    pub fn first_at_or_after(&self, start: usize) -> Option<usize> {
        assert!(start < Self::CAPACITY, "port index {start} out of range");
        let w0 = start / 64;
        let masked = self.words[w0] & (!0u64 << (start % 64));
        if masked != 0 {
            return Some(w0 * 64 + masked.trailing_zeros() as usize);
        }
        for w in w0 + 1..W {
            if self.words[w] != 0 {
                return Some(w * 64 + self.words[w].trailing_zeros() as usize);
            }
        }
        self.first()
    }

    /// Iterates over the indices in the set in increasing order.
    pub fn iter(&self) -> Iter<W> {
        Iter {
            words: self.words,
            word_idx: 0,
        }
    }
}

/// Position of the `k`-th set bit of `word` (zero-based).
///
/// On x86-64 with BMI2, `PDEP(1 << k, word)` deposits a single bit at
/// exactly that position in ~3 cycles; elsewhere a branchless-ish binary
/// search over popcounts of narrower halves does the same in ~25. Both
/// return identical values, so the choice never affects a scheduling
/// decision — only how fast it is made. (`is_x86_feature_detected!`
/// caches, so the probe costs one predictable load per call.)
#[inline]
pub(crate) fn select_in_word(word: u64, k: u32) -> u32 {
    debug_assert!(k < word.count_ones());
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("bmi2") {
        // SAFETY: `select_in_word_bmi2`'s only precondition is that the CPU
        // supports BMI2 (its `#[target_feature]`), which the branch above
        // just verified at runtime on this exact core.
        return unsafe { select_in_word_bmi2(word, k) };
    }
    select_in_word_generic(word, k)
}

// SAFETY: `unsafe` purely because of `#[target_feature(enable = "bmi2")]` —
// calling this on a CPU without BMI2 is undefined behaviour, so callers must
// gate on `is_x86_feature_detected!("bmi2")` first. The body itself has no
// memory-safety obligations: `_pdep_u64(1 << k, word)` deposits the single
// set bit of `1 << k` into the position of `word`'s k-th set bit (PDEP
// scatters source bits into the mask's set-bit positions, in order), and
// `trailing_zeros` reads that position back; both are pure register ops on
// any values, including `k >= word.count_ones()` (the result is then
// meaningless but well-defined: PDEP yields 0 and trailing_zeros yields 64).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
#[inline]
unsafe fn select_in_word_bmi2(word: u64, k: u32) -> u32 {
    std::arch::x86_64::_pdep_u64(1u64 << k, word).trailing_zeros()
}

#[inline]
// an2-lint: allow(overflow-discipline) pos accumulates halving shifts summing to at most 63; k only decreases
fn select_in_word_generic(word: u64, mut k: u32) -> u32 {
    let mut w = word;
    let mut pos = 0u32;
    for shift in [32u32, 16, 8, 4, 2, 1] {
        let lo = w & ((1u64 << shift) - 1);
        let ones = lo.count_ones();
        if k >= ones {
            k -= ones;
            pos += shift;
            w >>= shift;
        } else {
            w = lo;
        }
    }
    pos
}

impl<const W: usize> fmt::Debug for PortSetN<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<const W: usize> FromIterator<usize> for PortSetN<W> {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = Self::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

impl<const W: usize> Extend<usize> for PortSetN<W> {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for i in iter {
            self.insert(i);
        }
    }
}

impl<const W: usize> IntoIterator for PortSetN<W> {
    type Item = usize;
    type IntoIter = Iter<W>;

    fn into_iter(self) -> Iter<W> {
        self.iter()
    }
}

impl<const W: usize> IntoIterator for &PortSetN<W> {
    type Item = usize;
    type IntoIter = Iter<W>;

    fn into_iter(self) -> Iter<W> {
        self.iter()
    }
}

/// Iterator over the members of a [`PortSetN`], produced by
/// [`PortSetN::iter`].
#[derive(Clone, Debug)]
pub struct Iter<const W: usize = WORDS> {
    words: [u64; W],
    word_idx: usize,
}

impl<const W: usize> Iterator for Iter<W> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word_idx < W {
            let word = &mut self.words[self.word_idx];
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n: usize = self.words[self.word_idx..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        (n, Some(n))
    }
}

impl<const W: usize> ExactSizeIterator for Iter<W> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = PortSet::new();
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(255));
        assert!(!s.insert(64));
        assert_eq!(s.len(), 4);
        assert!(s.contains(63));
        assert!(!s.contains(62));
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn all_covers_prefix() {
        for n in [0, 1, 5, 64, 65, 128, 200, 256] {
            let s = PortSet::all(n);
            assert_eq!(s.len(), n);
            for i in 0..n {
                assert!(s.contains(i), "n={n} missing {i}");
            }
            if n < MAX_PORTS {
                assert!(!s.contains(n));
            }
        }
    }

    #[test]
    fn set_algebra() {
        let a: PortSet = [1, 2, 3, 100].into_iter().collect();
        let b: PortSet = [2, 3, 4].into_iter().collect();
        assert_eq!(
            a.intersection(&b).iter().collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(
            a.union(&b).iter().collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 100]
        );
        assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), vec![1, 100]);
        assert!(!a.is_disjoint(&b));
        let c: PortSet = [7].into_iter().collect();
        assert!(a.is_disjoint(&c));
    }

    #[test]
    fn nth_selects_kth_member() {
        let s: PortSet = [3, 17, 64, 65, 130].into_iter().collect();
        assert_eq!(s.nth(0), Some(3));
        assert_eq!(s.nth(1), Some(17));
        assert_eq!(s.nth(2), Some(64));
        assert_eq!(s.nth(3), Some(65));
        assert_eq!(s.nth(4), Some(130));
        assert_eq!(s.nth(5), None);
    }

    #[test]
    fn select_in_word_dispatch_agrees_with_generic() {
        // Whatever path `select_in_word` dispatches to (PDEP on x86-64 with
        // BMI2, the binary search elsewhere) must match the generic code
        // bit for bit, or scheduling decisions would depend on the host CPU.
        let words = [
            1u64,
            u64::MAX,
            0x8000_0000_0000_0001,
            0xDEAD_BEEF_CAFE_F00D,
            0x5555_5555_5555_5555,
        ];
        for &w in &words {
            for k in 0..w.count_ones() {
                assert_eq!(
                    super::select_in_word(w, k),
                    super::select_in_word_generic(w, k),
                    "word {w:#x} k {k}"
                );
            }
        }
    }

    #[test]
    fn select_nth_matches_nth() {
        let s: PortSet = [0, 3, 17, 63, 64, 65, 127, 128, 130, 255]
            .into_iter()
            .collect();
        for k in 0..=s.len() {
            assert_eq!(s.select_nth(k), s.nth(k), "k={k}");
        }
        assert_eq!(PortSet::new().select_nth(0), None);
        assert_eq!(PortSet::all(256).select_nth(255), Some(255));
    }

    #[test]
    fn first_at_or_after_wraps() {
        let s: PortSet = [3, 17, 64, 200].into_iter().collect();
        assert_eq!(s.first_at_or_after(0), Some(3));
        assert_eq!(s.first_at_or_after(3), Some(3));
        assert_eq!(s.first_at_or_after(4), Some(17));
        assert_eq!(s.first_at_or_after(18), Some(64));
        assert_eq!(s.first_at_or_after(65), Some(200));
        assert_eq!(s.first_at_or_after(201), Some(3)); // wraps
        assert_eq!(PortSet::new().first_at_or_after(7), None);
    }

    #[test]
    fn first_and_iter_agree() {
        let s: PortSet = [9, 200, 64].into_iter().collect();
        assert_eq!(s.first(), Some(9));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![9, 64, 200]);
        assert_eq!(s.iter().len(), 3);
        assert_eq!(PortSet::new().first(), None);
    }

    #[test]
    fn wide_set_spans_sixteen_words() {
        let mut s = WidePortSet::new();
        assert_eq!(WidePortSet::CAPACITY, MAX_WIDE_PORTS);
        for i in [0usize, 63, 64, 255, 256, 511, 512, 1000, 1023] {
            assert!(s.insert(i));
        }
        assert_eq!(s.len(), 9);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![0, 63, 64, 255, 256, 511, 512, 1000, 1023]
        );
        for k in 0..=s.len() {
            assert_eq!(s.select_nth(k), s.nth(k), "k={k}");
        }
        assert_eq!(s.first_at_or_after(513), Some(1000));
        assert_eq!(s.first_at_or_after(1001), Some(1023));
        // Wraps across the full 16-word span.
        s.remove(0);
        assert_eq!(s.first_at_or_after(1023), Some(1023));
        s.remove(1023);
        assert_eq!(s.first_at_or_after(1001), Some(63));
    }

    #[test]
    fn wide_all_and_algebra() {
        for n in [0usize, 1, 64, 300, 1023, 1024] {
            let s = WidePortSet::all(n);
            assert_eq!(s.len(), n);
            if n < MAX_WIDE_PORTS {
                assert!(!s.contains(n));
            }
        }
        let a = WidePortSet::all(1024);
        let b: WidePortSet = [700usize, 999].into_iter().collect();
        assert_eq!(a.intersection(&b), b);
        assert_eq!(a.difference(&b).len(), 1022);
        assert_eq!(WidePortSet::all(1024).select_nth(1023), Some(1023));
    }

    #[test]
    fn port_width_follows_the_radix() {
        let width = |n: usize| crate::with_port_width!(n, W => W);
        for (n, w) in [
            (1, 1),
            (16, 1),
            (64, 1),
            (65, 4),
            (256, 4),
            (257, 16),
            (1024, 16),
        ] {
            assert_eq!(width(n), w, "n = {n}");
        }
    }

    #[test]
    fn port_newtypes() {
        let i = InputPort::new(7);
        let o = OutputPort::new(7);
        assert_eq!(i.index(), o.index());
        assert_eq!(format!("{i:?}"), "in7");
        assert_eq!(format!("{o:?}"), "out7");
        assert_eq!(format!("{i}"), "7");
        assert_eq!(usize::from(i), 7);
        assert_eq!(InputPort::all(4).count(), 4);
        // Ports address the wide width too.
        assert_eq!(InputPort::new(MAX_WIDE_PORTS - 1).index(), 1023);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn port_index_out_of_range_panics() {
        let _ = InputPort::new(MAX_WIDE_PORTS);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn portset_index_out_of_range_panics() {
        let mut s = PortSet::new();
        s.insert(MAX_PORTS);
    }
}
