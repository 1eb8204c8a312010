//! Deterministic random number generation for the schedulers.
//!
//! Parallel iterative matching depends on *independent* random choices at
//! each output (§3.2: "we make it unlikely that outputs grant to the same
//! input by having each output choose among requests using an independent
//! random number"). In hardware this is a per-port pseudo-random source; in
//! this reproduction each port owns its own PRNG stream, split from a single
//! experiment seed so that every run is reproducible.
//!
//! §3.3 notes that the number of iterations "is relatively insensitive to
//! the technique used to approximate randomness". To let that claim be
//! tested, this module provides three generators of very different quality:
//!
//! * [`Xoshiro256`] — a full-quality 64-bit generator (the default),
//! * [`Lcg64`] — a classic linear congruential generator, and
//! * [`TableRng`] — a tiny precomputed-table generator mimicking the
//!   hardware "tables of precomputed values" the paper mentions.

/// A source of random 64-bit words used by the schedulers.
///
/// All schedulers in this crate are generic over `SelectRng` so experiments
/// can swap generator quality (see the module docs). The trait is
/// deliberately minimal; [`choose`](SelectRng::choose) and
/// [`index`](SelectRng::index) provide the two selection primitives the
/// algorithms need.
pub trait SelectRng {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniform index in `0..n`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    /// The rejection loop assumes the generator eventually varies: a
    /// degenerate generator that returns the same low value forever can
    /// make this spin (e.g. a constant 0 is rejected indefinitely for
    /// some `n`); a constant `u64::MAX` is always accepted.
    ///
    /// This is the one implementation every generator uses (no impl
    /// overrides it). The common case — one word, one multiply — inlines
    /// into the caller; only a draw that may be rejected (probability
    /// `< n / 2^64`) calls the out-of-line tail.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    // an2-lint: allow(panic-freedom) the n > 0 assert is this API's documented "# Panics" contract
    #[inline]
    fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw an index from an empty range");
        let n = n as u64;
        // Lemire's nearly-divisionless unbiased bounded generation. The
        // rejection threshold is `2^64 mod n`, which is `< n`: a draw with
        // `lo >= n` can never be rejected, so the threshold division only
        // runs in the astronomically rare `lo < n` case. The accept/reject
        // outcome per draw is identical either way, keeping the stream of
        // consumed words bit-compatible with the always-divide form.
        let m = (self.next_u64() as u128) * (n as u128);
        if (m as u64) < n {
            return lemire_tail(self, n, m);
        }
        (m >> 64) as usize
    }

    /// Chooses a uniformly random member of `set`, or `None` if it is empty.
    ///
    /// Draws nothing from the generator when the set is empty; the hot-path
    /// gating in `Pim::run_from` relies on that to keep RNG streams aligned.
    /// Generic over the bitset width so the wide (1024-port) schedulers draw
    /// through the identical selection path as the narrow ones.
    fn choose<const W: usize>(&mut self, set: &crate::port::PortSetN<W>) -> Option<usize>
    where
        Self: Sized,
    {
        let len = set.len();
        if len == 0 {
            return None;
        }
        set.select_nth(self.index(len))
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53 random bits give a uniform double in [0, 1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The rejection tail of [`SelectRng::index`]: `m` is the first draw's
/// product, whose low word fell below `n`. Kept out of line so that the
/// accepted draw inlines as a multiply and a compare.
#[cold]
#[inline(never)]
fn lemire_tail<R: SelectRng + ?Sized>(rng: &mut R, n: u64, mut m: u128) -> usize {
    let threshold = n.wrapping_neg() % n;
    while (m as u64) < threshold {
        m = (rng.next_u64() as u128) * (n as u128);
    }
    (m >> 64) as usize
}

/// The top 53 bits of `x` as a double in `[0, 1)`: exactly
/// `(x >> 11) as f64 * 2^-53`, built without an integer-to-float
/// conversion instruction.
///
/// x86-64's `cvtsi2sd` writes only the low lane of its register, so it
/// waits on whatever last wrote that register unless the compiler breaks
/// the dependency with an `xorps`; in a loop that feeds each draw through
/// `ln` and a division, a dropped break chains every conversion onto the
/// previous iteration's result. Here the double is assembled from integer
/// ops: a nonzero 53-bit `v` with `lz` leading zeros has its top bit at
/// `63 - lz`, so `v * 2^-53` has the biased exponent `1033 - lz` and the
/// bits below the top one as its mantissa. Shifting the top bit to bit 52
/// and adding `(1032 - lz) << 52` carries it into the exponent field.
/// Every bit of `v` fits the mantissa, so the result is bit-identical to
/// the conversion. (Two exact 27-bit half conversions, `2^52` OR-ed in
/// and subtracted, are also exact, but their four dependent float ops
/// left the ln-driven traffic loop ~10% slower than this form.)
///
/// [`SelectRng::uniform_f64`] keeps the conversion: where the compiler
/// keeps its `xorps` it is the cheaper of the two, and with this form in
/// its place `RateMatrixTraffic`'s loop and the ring's `bernoulli` ran
/// slower (`paper16_clientserver` −4%, `ring1000` −12% end to end).
#[inline]
pub fn unit_f64(x: u64) -> f64 {
    let v = x >> 11;
    if v == 0 {
        return 0.0;
    }
    let lz = v.leading_zeros();
    f64::from_bits(((v << lz) >> 11) + ((1032 - u64::from(lz)) << 52))
}

impl<R: SelectRng + ?Sized> SelectRng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A Bernoulli trial of fixed probability, decided on integers: it draws
/// exactly when [`SelectRng::bernoulli`] with the same `p` draws and returns
/// the same outcome, without converting the draw to a double.
///
/// `bernoulli` compares `v * 2^-53 < p` for the 53-bit draw `v`, which is
/// `v < p * 2^53` (scaling by a power of two is exact), which for an
/// integer `v` is `v < ceil(p * 2^53)`. A source that fires with one
/// probability every slot precomputes that ceiling once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bernoulli {
    /// `p <= 0`: never fires, draws nothing.
    Never,
    /// `p >= 1`: always fires, draws nothing.
    Always,
    /// Fires when the draw's top 53 bits are below this bound.
    Below(u64),
}

impl Bernoulli {
    /// The trial that fires with probability `p`, as `bernoulli(p)` does
    /// (a NaN `p` draws and never fires, as there).
    pub fn new(p: f64) -> Self {
        if p <= 0.0 {
            Self::Never
        } else if p >= 1.0 {
            Self::Always
        } else {
            // `p * 2^53` is exact, and below 2^53 so its ceiling fits.
            Self::Below((p * (1u64 << 53) as f64).ceil() as u64)
        }
    }

    /// Runs the trial on `rng`.
    #[inline]
    pub fn sample<R: SelectRng + ?Sized>(self, rng: &mut R) -> bool {
        match self {
            Self::Never => false,
            Self::Always => true,
            Self::Below(bound) => rng.next_u64() >> 11 < bound,
        }
    }
}

/// SplitMix64, used to seed and to *split* generators.
///
/// Splitting gives every port (and every experiment replication) its own
/// well-separated stream from one root seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl SelectRng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** — the crate's default high-quality generator.
///
/// # Examples
///
/// ```
/// use an2_sched::rng::{SelectRng, Xoshiro256};
/// let mut rng = Xoshiro256::seed_from(42);
/// let i = rng.index(16);
/// assert!(i < 16);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator whose state is expanded from `seed` via SplitMix64.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = sm.next_u64();
        }
        // An all-zero state is a fixed point; SplitMix64 cannot produce four
        // zero outputs in a row, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    /// Derives the `k`-th child stream of this generator without disturbing
    /// its own sequence. Children with distinct `k` are well separated.
    pub fn split(&self, k: u64) -> Self {
        let mut sm = SplitMix64::new(
            self.s[0]
                .wrapping_mul(0xA24B_AED4_963E_E407)
                .wrapping_add(k.wrapping_mul(0x9FB2_1C65_1E98_DF25))
                ^ self.s[3],
        );
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = sm.next_u64();
        }
        if s == [0; 4] {
            s[0] = 1;
        }
        Self { s }
    }
}

impl SelectRng for Xoshiro256 {
    // an2-lint: allow(panic-freedom) constant indices 0..=3 into the fixed [u64; 4] state
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// A 64-bit linear congruential generator (Knuth's MMIX constants).
///
/// Deliberately lower quality than [`Xoshiro256`]; used by the RNG-quality
/// ablation to test the paper's §3.3 insensitivity claim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lcg64 {
    state: u64,
}

impl Lcg64 {
    /// Creates a generator from a seed.
    pub fn seed_from(seed: u64) -> Self {
        Self {
            state: seed ^ 0x5DEE_CE66_D1CE_4E5B,
        }
    }
}

impl SelectRng for Lcg64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // LCG low bits are weak; expose only the upper half, doubled up.
        let hi = self.state >> 32;
        hi << 32 | hi
    }
}

/// A tiny table-driven generator: walks a fixed table of precomputed words.
///
/// This is the software analogue of §3.3's hardware suggestion that "the
/// selection can be efficiently implemented using tables of precomputed
/// values". Its randomness is poor by statistical standards — 64 entries
/// replayed forever from a seeded starting point — which is exactly what the
/// ablation wants to stress.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableRng {
    table: [u64; 64],
    pos: usize,
    counter: u64,
}

impl TableRng {
    /// Creates a table generator; the table contents derive from `seed`.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut table = [0u64; 64];
        for w in &mut table {
            *w = sm.next_u64();
        }
        Self {
            table,
            pos: (seed % 64) as usize,
            counter: seed,
        }
    }
}

impl SelectRng for TableRng {
    // an2-lint: allow(panic-freedom) pos is reduced mod 64 on the line above the [u64; 64] table read
    fn next_u64(&mut self) -> u64 {
        self.pos = (self.pos + 1) % 64;
        // A weak counter perturbation so different slots do not replay the
        // identical sequence, mimicking a free-running hardware counter
        // indexing a ROM table.
        self.counter = self.counter.wrapping_add(0x9E37_79B9);
        self.table[self.pos] ^ self.counter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PortSet;

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256::seed_from(7);
        let mut b = Xoshiro256::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::seed_from(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn split_streams_diverge() {
        let root = Xoshiro256::seed_from(1);
        let mut c0 = root.split(0);
        let mut c1 = root.split(1);
        let same = (0..32).filter(|_| c0.next_u64() == c1.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn index_is_in_range_and_roughly_uniform() {
        let mut rng = Xoshiro256::seed_from(99);
        let n = 7;
        let mut counts = [0usize; 7];
        let draws = 70_000;
        for _ in 0..draws {
            let i = rng.index(n);
            counts[i] += 1;
        }
        let expected = draws / n;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected as f64).abs() < expected as f64 * 0.1,
                "bucket {i} count {c} far from {expected}"
            );
        }
    }

    #[test]
    fn choose_picks_members_only() {
        let set: PortSet = [3, 9, 40, 77].into_iter().collect();
        let mut rng = Xoshiro256::seed_from(5);
        for _ in 0..200 {
            let pick = rng.choose(&set).unwrap();
            assert!(set.contains(pick));
        }
        assert_eq!(rng.choose(&PortSet::new()), None);
    }

    #[test]
    fn bernoulli_matches_probability() {
        let mut rng = Xoshiro256::seed_from(11);
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.3)).count();
        assert!((hits as f64 / 100_000.0 - 0.3).abs() < 0.01);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
    }

    /// The words a conversion could round differently: zero, the top
    /// value, powers of two at either end of the 53 bits, both halves'
    /// boundaries and the bits below the 53 kept.
    const EDGE_WORDS: [u64; 12] = [
        0,
        u64::MAX,
        1 << 11,
        (1 << 11) - 1,
        1 << 63,
        (1 << 38) - 1,
        1 << 38,
        (1 << 38) | ((1 << 38) - 1),
        0x8000_0000_0000_07FF,
        0xFFFF_FFFF_FFFF_F800,
        0x0000_0040_0000_0000,
        0x5555_5555_5555_5555,
    ];

    #[test]
    fn unit_f64_is_the_conversion_bit_for_bit() {
        let conversion = |x: u64| (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let mut rng = Xoshiro256::seed_from(0x0F64);
        let random: Vec<u64> = (0..100_000).map(|_| rng.next_u64()).collect();
        for &x in EDGE_WORDS.iter().chain(&random) {
            assert_eq!(
                unit_f64(x).to_bits(),
                conversion(x).to_bits(),
                "word {x:#x}"
            );
        }
        assert!(unit_f64(u64::MAX) < 1.0);
    }

    #[test]
    fn bernoulli_trial_draws_and_decides_as_bernoulli() {
        // A fixed word stream, so every edge word meets every probability.
        #[derive(Clone)]
        struct Words(Vec<u64>, usize);
        impl SelectRng for Words {
            fn next_u64(&mut self) -> u64 {
                self.1 += 1;
                self.0[(self.1 - 1) % self.0.len()]
            }
        }
        let mut rng = Xoshiro256::seed_from(0xB37);
        let words: Vec<u64> = EDGE_WORDS
            .iter()
            .copied()
            .chain((0..4096).map(|_| rng.next_u64()))
            .collect();
        let on_grid = |v: u64| (v as f64) * (1.0 / (1u64 << 53) as f64);
        let probabilities = [
            -1.0,
            0.0,
            f64::MIN_POSITIVE,
            on_grid(1),
            on_grid(12345),
            0.015,
            0.3,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            2.0,
            f64::NAN,
        ];
        for p in probabilities {
            let trial = Bernoulli::new(p);
            let (mut a, mut b) = (Words(words.clone(), 0), Words(words.clone(), 0));
            for k in 0..words.len() {
                assert_eq!(trial.sample(&mut a), b.bernoulli(p), "p {p} word {k}");
                assert_eq!(a.1, b.1, "p {p}: draw counts part at word {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn index_of_zero_panics() {
        Xoshiro256::seed_from(0).index(0);
    }

    #[test]
    fn weak_rngs_still_cover_range() {
        let mut lcg = Lcg64::seed_from(3);
        let mut tab = TableRng::seed_from(3);
        let mut seen_lcg = [false; 4];
        let mut seen_tab = [false; 4];
        for _ in 0..1000 {
            seen_lcg[lcg.index(4)] = true;
            seen_tab[tab.index(4)] = true;
        }
        assert!(seen_lcg.iter().all(|&b| b));
        assert!(seen_tab.iter().all(|&b| b));
    }
}
