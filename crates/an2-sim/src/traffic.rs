//! Workload generators for the switch simulations.
//!
//! The paper's evaluation (§3.5) uses three families of workloads, all
//! reproduced here:
//!
//! * **Uniform** i.i.d. Bernoulli arrivals — Figures 3 and 5, Table 1.
//! * **Client–server** — Figure 4: four server ports, with client–client
//!   connections carrying "only 5% of the traffic of client-server or
//!   server-server connections", offered load measured on a server link.
//! * **Periodic** — Figure 1 / Li's stationary blocking: every input emits
//!   the same cyclic destination sequence, which drives FIFO queueing to
//!   single-link aggregate throughput while leaving non-FIFO schedulers at
//!   full utilization.
//!
//! All sources respect the physical constraint that an input link delivers
//! at most one cell per slot.

use crate::cell::Arrival;
use an2_sched::rng::{unit_f64, SelectRng, Xoshiro256};
use an2_sched::{InputPort, OutputPort};

/// A per-slot arrival process for an `n`-port switch.
///
/// Implementations must emit at most one arrival per input per slot.
pub trait Traffic {
    /// The switch radix this source feeds.
    fn n(&self) -> usize;

    /// Appends the arrivals for `slot` to `out` (which the caller clears).
    fn arrivals(&mut self, slot: u64, out: &mut Vec<Arrival>);

    /// A short label for reports.
    fn name(&self) -> &'static str;
}

impl<T: Traffic + ?Sized> Traffic for Box<T> {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn arrivals(&mut self, slot: u64, out: &mut Vec<Arrival>) {
        (**self).arrivals(slot, out)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Bernoulli arrivals driven by an explicit rate matrix.
///
/// `rate[i][j]` is the probability that a cell from input `i` to output `j`
/// arrives in a given slot. Each input draws one Bernoulli trial per slot
/// with its row sum as success probability, then picks the destination in
/// proportion to its row — so row sums must not exceed 1.
///
/// This is the general form; [`RateMatrixTraffic::uniform`] and
/// [`RateMatrixTraffic::client_server`] build the paper's two workloads.
#[derive(Clone, Debug)]
pub struct RateMatrixTraffic {
    n: usize,
    name: &'static str,
    /// Row-major arrival probability per pair.
    rate: Vec<Vec<f64>>,
    /// Row sums (arrival probability per input).
    row_sum: Vec<f64>,
    /// Cumulative row distributions for destination sampling.
    row_cum: Vec<Vec<f64>>,
    rng: Xoshiro256,
}

impl RateMatrixTraffic {
    /// Creates a source from an explicit rate matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `n`×`n` with `n >= 1`, if any entry is
    /// negative or non-finite, or if a row sum exceeds 1 (beyond a small
    /// tolerance) — an input link cannot carry more than one cell per slot.
    pub fn new(rate: Vec<Vec<f64>>, seed: u64) -> Self {
        Self::with_name(rate, seed, "rate-matrix")
    }

    fn with_name(rate: Vec<Vec<f64>>, seed: u64, name: &'static str) -> Self {
        let n = rate.len();
        assert!(n >= 1, "rate matrix must be non-empty");
        assert!(
            rate.iter().all(|r| r.len() == n),
            "rate matrix must be square"
        );
        assert!(
            rate.iter()
                .flatten()
                .all(|&p| p.is_finite() && p >= 0.0),
            "arrival rates must be finite and non-negative"
        );
        let row_sum: Vec<f64> = rate.iter().map(|r| r.iter().sum()).collect();
        assert!(
            row_sum.iter().all(|&s| s <= 1.0 + 1e-9),
            "an input link cannot exceed one cell per slot (row sum > 1)"
        );
        let row_cum = rate
            .iter()
            .map(|r| {
                let mut acc = 0.0;
                r.iter()
                    .map(|&p| {
                        acc += p;
                        acc
                    })
                    .collect()
            })
            .collect();
        Self {
            n,
            name,
            rate,
            row_sum,
            row_cum,
            rng: Xoshiro256::seed_from(seed),
        }
    }

    /// The uniform workload of Figures 3 and 5: every input offers `load`
    /// cells/slot, destinations uniform over all outputs.
    ///
    /// # Panics
    ///
    /// Panics if `load` is not in `[0, 1]` or `n` is 0.
    pub fn uniform(n: usize, load: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&load), "load must be in [0,1]");
        assert!(n >= 1, "switch must have at least one port");
        let per_pair = load / n as f64;
        Self::with_name(vec![vec![per_pair; n]; n], seed, "uniform")
    }

    /// The client–server workload of Figure 4.
    ///
    /// The first `servers` ports connect to servers, the rest to clients.
    /// Pair intensity is 1 when either endpoint is a server and `cc_ratio`
    /// (the paper uses 0.05) when both are clients, scaled so a **server
    /// link** carries `load` cells/slot. Client links then carry
    /// proportionally less, as in the paper ("offered load refers to the
    /// load on a server link").
    ///
    /// # Panics
    ///
    /// Panics if `servers` is 0 or `> n`, if `cc_ratio` is negative, or if
    /// `load` is not in `[0, 1]`.
    pub fn client_server(n: usize, servers: usize, load: f64, cc_ratio: f64, seed: u64) -> Self {
        assert!(servers >= 1 && servers <= n, "need 1..=n server ports");
        assert!(cc_ratio >= 0.0, "client-client ratio must be non-negative");
        assert!((0.0..=1.0).contains(&load), "load must be in [0,1]");
        let is_server = |p: usize| p < servers;
        let weight = |i: usize, j: usize| {
            if is_server(i) || is_server(j) {
                1.0
            } else {
                cc_ratio
            }
        };
        // A server row (= column, by symmetry) has total weight n; scale so
        // that equals `load`.
        let scale = load / n as f64;
        let rate = (0..n)
            .map(|i| (0..n).map(|j| weight(i, j) * scale).collect())
            .collect();
        Self::with_name(rate, seed, "client-server")
    }

    /// The offered arrival rate of input `i` (cells per slot).
    pub fn input_rate(&self, i: usize) -> f64 {
        assert!(i < self.n, "input {i} outside switch");
        self.row_sum[i]
    }

    /// The offered rate into output `j` (cells per slot).
    pub fn output_rate(&self, j: usize) -> f64 {
        assert!(j < self.n, "output {j} outside switch");
        self.rate.iter().map(|r| r[j]).sum()
    }
}

impl Traffic for RateMatrixTraffic {
    fn n(&self) -> usize {
        self.n
    }

    fn arrivals(&mut self, _slot: u64, out: &mut Vec<Arrival>) {
        for i in 0..self.n {
            let s = self.row_sum[i];
            if s <= 0.0 || !self.rng.bernoulli(s) {
                continue;
            }
            // Destination in proportion to the row.
            let u = self.rng.uniform_f64() * s;
            let j = self.row_cum[i].partition_point(|&c| c <= u).min(self.n - 1);
            out.push(Arrival::pair(
                self.n,
                InputPort::new(i),
                OutputPort::new(j),
            ));
        }
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

/// The uniform workload of [`RateMatrixTraffic::uniform`] generated by
/// geometric skip-sampling: cost per slot is proportional to the number of
/// *arrivals* (`n · load`), not the number of ports.
///
/// Statistically identical to the rate-matrix form — each input fires an
/// i.i.d. Bernoulli(`load`) trial per slot and picks a destination
/// uniformly over all `n` outputs — but instead of running `n` trials, the
/// generator jumps straight to the next firing input with a geometric gap
/// draw (`floor(ln U / ln(1 − load))`, the inverse-CDF of the run length
/// of failures). At `n = 1024` and light load this turns a ~37 µs/slot
/// scan into well under a microsecond, which is what lets the batched
/// engine clear 100k slots/sec.
///
/// The stream is **not** draw-for-draw identical to
/// [`RateMatrixTraffic::uniform`] with the same seed (it consumes two
/// draws per arrival instead of `n` Bernoulli trials per slot), so the
/// narrow pinned-digest workloads keep using the rate-matrix form; this
/// source is for the wide (N > 256) scaling runs, which pin their own
/// digests. Runs are deterministic for a fixed seed on a given platform;
/// the gap draw uses `f64::ln`, so digests are only as portable as the
/// platform's libm rounding (the thread-count invariance checked in CI
/// compares runs on one machine and is unaffected).
#[derive(Clone, Debug)]
pub struct SparseUniformTraffic {
    n: usize,
    load: f64,
    /// `ln(1 − load)`; `None` when `load == 1` (every input fires).
    log_skip: Option<f64>,
    rng: Xoshiro256,
}

impl SparseUniformTraffic {
    /// Creates a uniform source offering `load` cells/slot per input.
    ///
    /// # Panics
    ///
    /// Panics if `load` is not in `[0, 1]` or `n` is 0.
    pub fn new(n: usize, load: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&load), "load must be in [0,1]");
        assert!(n >= 1, "switch must have at least one port");
        let log_skip = if load < 1.0 {
            Some((1.0 - load).ln())
        } else {
            None
        };
        Self {
            n,
            load,
            log_skip,
            rng: Xoshiro256::seed_from(seed),
        }
    }

    /// The number of inputs skipped before the next firing one: a draw
    /// from Geometric(`load`) counting failures, 0 when `load == 1`.
    fn gap(&mut self) -> usize {
        match self.log_skip {
            None => 0,
            Some(ls) => {
                // u ∈ [0, 1); ln(0) = −inf gives an infinite gap, which the
                // saturating cast turns into "no more arrivals this slot" —
                // the correct limit for a zero-probability draw. `unit_f64`
                // is `uniform_f64` without a conversion instruction, whose
                // false dependency would chain each gap onto the last one's
                // `ln` and division.
                let u = unit_f64(self.rng.next_u64());
                (u.ln() / ls) as usize
            }
        }
    }
}

impl Traffic for SparseUniformTraffic {
    fn n(&self) -> usize {
        self.n
    }

    fn arrivals(&mut self, _slot: u64, out: &mut Vec<Arrival>) {
        if self.load <= 0.0 {
            return;
        }
        let n = self.n;
        let mut i = self.gap();
        while i < n {
            let j = self.rng.index(n);
            out.push(Arrival::pair(n, InputPort::new(i), OutputPort::new(j)));
            i += 1 + self.gap();
        }
    }

    fn name(&self) -> &'static str {
        "uniform-sparse"
    }
}

/// Li's periodic workload (Figure 1): every input emits the same periodic
/// destination sequence, in blocks — `block_len` cells for output 0, then
/// `block_len` cells for output 1, and so on, identically at every input.
///
/// Under FIFO queueing the heads chase the same output (*stationary
/// blocking* — aggregate throughput of roughly a single link), while the
/// queued work could keep every link busy: with random-access buffers the
/// backlog spans many outputs, so PIM restores full utilization. Blocks
/// must be long relative to `n` (≳ 32·n) for the collapse to be sustained;
/// with short blocks, round-robin service can accidentally pipeline the
/// heads into distinct blocks.
#[derive(Clone, Debug)]
pub struct PeriodicTraffic {
    n: usize,
    load: f64,
    block_len: usize,
    /// Cells generated so far at each input.
    counter: Vec<u64>,
    rng: Xoshiro256,
}

impl PeriodicTraffic {
    /// Creates the periodic source with the default block length of `n`
    /// cells per destination; at `load == 1.0` it is fully deterministic
    /// (one cell per input per slot).
    ///
    /// # Panics
    ///
    /// Panics if `load` is not in `[0, 1]` or `n` is 0.
    pub fn new(n: usize, load: f64, seed: u64) -> Self {
        Self::with_block_len(n, load, seed, n)
    }

    /// Creates the periodic source with an explicit block length.
    ///
    /// # Panics
    ///
    /// Panics if `load` is not in `[0, 1]`, `n` is 0, or `block_len` is 0.
    pub fn with_block_len(n: usize, load: f64, seed: u64, block_len: usize) -> Self {
        assert!(n >= 1, "switch must have at least one port");
        assert!((0.0..=1.0).contains(&load), "load must be in [0,1]");
        assert!(block_len >= 1, "block length must be at least 1");
        Self {
            n,
            load,
            block_len,
            counter: vec![0; n],
            rng: Xoshiro256::seed_from(seed),
        }
    }

    /// Cells per destination block.
    pub fn block_len(&self) -> usize {
        self.block_len
    }
}

impl Traffic for PeriodicTraffic {
    fn n(&self) -> usize {
        self.n
    }

    fn arrivals(&mut self, _slot: u64, out: &mut Vec<Arrival>) {
        for i in 0..self.n {
            if self.load < 1.0 && !self.rng.bernoulli(self.load) {
                continue;
            }
            let k = self.counter[i];
            self.counter[i] += 1;
            let j = (k / self.block_len as u64) as usize % self.n;
            out.push(Arrival::pair(
                self.n,
                InputPort::new(i),
                OutputPort::new(j),
            ));
        }
    }

    fn name(&self) -> &'static str {
        "periodic"
    }
}

/// Bursty on–off traffic: each input alternates geometrically distributed
/// ON bursts (one cell per slot, single destination per burst) and OFF
/// gaps. Models the §2.4 observation that "local area network traffic is
/// rarely uniform": bursts of consecutive cells to the same output are what
/// break replicated-banyan designs.
#[derive(Clone, Debug)]
pub struct BurstyTraffic {
    n: usize,
    /// Probability an OFF input turns ON in a slot.
    p_on: f64,
    /// Probability an ON input turns OFF after a slot (1/mean burst length).
    p_off: f64,
    /// Current burst destination per input; `None` while OFF.
    burst_dst: Vec<Option<usize>>,
    /// When set, every burst targets this output (hot-spot mode).
    hotspot: Option<usize>,
    rng: Xoshiro256,
}

impl BurstyTraffic {
    /// Creates a bursty source with mean burst length `mean_burst` slots
    /// and long-run per-input load `load`; burst destinations are uniform.
    ///
    /// The ON→OFF probability is `1/mean_burst`; the OFF→ON probability is
    /// chosen so the stationary ON fraction equals `load`.
    ///
    /// # Panics
    ///
    /// Panics if `load` is not in `(0, 1)`, or `mean_burst < 1`.
    pub fn new(n: usize, load: f64, mean_burst: f64, seed: u64) -> Self {
        assert!(n >= 1, "switch must have at least one port");
        assert!(load > 0.0 && load < 1.0, "load must be in (0,1)");
        assert!(mean_burst >= 1.0, "mean burst length must be >= 1 slot");
        let p_off = 1.0 / mean_burst;
        // Stationary ON fraction p_on/(p_on + p_off) = load.
        let p_on = p_off * load / (1.0 - load);
        Self {
            n,
            p_on: p_on.min(1.0),
            p_off,
            burst_dst: vec![None; n],
            hotspot: None,
            rng: Xoshiro256::seed_from(seed),
        }
    }

    /// Directs every burst at output `hot` — the §2.4 client–server burst
    /// pattern that overwhelms output-replicated fabrics.
    ///
    /// # Panics
    ///
    /// Panics if `hot >= n`.
    pub fn with_hotspot(mut self, hot: usize) -> Self {
        assert!(hot < self.n, "hotspot output {hot} outside switch");
        self.hotspot = Some(hot);
        self
    }
}

impl Traffic for BurstyTraffic {
    fn n(&self) -> usize {
        self.n
    }

    fn arrivals(&mut self, _slot: u64, out: &mut Vec<Arrival>) {
        for i in 0..self.n {
            match self.burst_dst[i] {
                None => {
                    if self.rng.bernoulli(self.p_on) {
                        let j = match self.hotspot {
                            Some(h) => h,
                            None => self.rng.index(self.n),
                        };
                        self.burst_dst[i] = Some(j);
                        out.push(Arrival::pair(
                            self.n,
                            InputPort::new(i),
                            OutputPort::new(j),
                        ));
                    }
                }
                Some(j) => {
                    out.push(Arrival::pair(
                        self.n,
                        InputPort::new(i),
                        OutputPort::new(j),
                    ));
                    if self.rng.bernoulli(self.p_off) {
                        self.burst_dst[i] = None;
                    }
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "bursty"
    }
}

/// Deterministic playback of an explicit arrival script, for tests.
#[derive(Clone, Debug)]
pub struct TraceTraffic {
    n: usize,
    /// Sorted by slot: (slot, arrival).
    script: Vec<(u64, Arrival)>,
    next: usize,
}

impl TraceTraffic {
    /// Creates a trace source from `(slot, input, output)` triples, which
    /// must be sorted by slot.
    ///
    /// # Panics
    ///
    /// Panics if the script is not sorted by slot, if any port is `>= n`,
    /// or if two cells share an input and slot.
    pub fn new(n: usize, script: impl IntoIterator<Item = (u64, usize, usize)>) -> Self {
        let script: Vec<(u64, Arrival)> = script
            .into_iter()
            .map(|(t, i, j)| {
                assert!(i < n && j < n, "scripted cell ({i},{j}) outside switch");
                (
                    t,
                    Arrival::pair(n, InputPort::new(i), OutputPort::new(j)),
                )
            })
            .collect();
        for w in script.windows(2) {
            assert!(w[0].0 <= w[1].0, "script must be sorted by slot");
            assert!(
                w[0].0 != w[1].0 || w[0].1.input != w[1].1.input,
                "two cells cannot arrive at one input in the same slot"
            );
        }
        Self { n, script, next: 0 }
    }

    /// Returns `true` once all scripted arrivals have been emitted.
    pub fn is_exhausted(&self) -> bool {
        self.next >= self.script.len()
    }
}

impl Traffic for TraceTraffic {
    fn n(&self) -> usize {
        self.n
    }

    fn arrivals(&mut self, slot: u64, out: &mut Vec<Arrival>) {
        while self.next < self.script.len() && self.script[self.next].0 == slot {
            out.push(self.script[self.next].1);
            self.next += 1;
        }
    }

    fn name(&self) -> &'static str {
        "trace"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measure_rates(t: &mut impl Traffic, slots: u64) -> (Vec<f64>, Vec<f64>) {
        let n = t.n();
        let mut in_cnt = vec![0u64; n];
        let mut out_cnt = vec![0u64; n];
        let mut buf = Vec::new();
        for s in 0..slots {
            buf.clear();
            t.arrivals(s, &mut buf);
            let mut seen = std::collections::HashSet::new();
            for a in &buf {
                assert!(seen.insert(a.input), "two arrivals at one input");
                in_cnt[a.input.index()] += 1;
                out_cnt[a.output.index()] += 1;
            }
        }
        (
            in_cnt.iter().map(|&c| c as f64 / slots as f64).collect(),
            out_cnt.iter().map(|&c| c as f64 / slots as f64).collect(),
        )
    }

    #[test]
    fn uniform_rates_match_load() {
        let mut t = RateMatrixTraffic::uniform(8, 0.6, 1);
        assert_eq!(t.name(), "uniform");
        let (inp, outp) = measure_rates(&mut t, 50_000);
        for r in inp {
            assert!((r - 0.6).abs() < 0.02, "input rate {r}");
        }
        for r in outp {
            assert!((r - 0.6).abs() < 0.03, "output rate {r}");
        }
    }

    #[test]
    fn uniform_rate_accessors() {
        let t = RateMatrixTraffic::uniform(4, 0.8, 0);
        for p in 0..4 {
            assert!((t.input_rate(p) - 0.8).abs() < 1e-9);
            assert!((t.output_rate(p) - 0.8).abs() < 1e-9);
        }
    }

    #[test]
    fn sparse_uniform_rates_match_load() {
        let mut t = SparseUniformTraffic::new(32, 0.3, 9);
        assert_eq!(t.name(), "uniform-sparse");
        let (inp, outp) = measure_rates(&mut t, 50_000);
        for r in inp {
            assert!((r - 0.3).abs() < 0.02, "input rate {r}");
        }
        for r in outp {
            assert!((r - 0.3).abs() < 0.03, "output rate {r}");
        }
    }

    #[test]
    fn sparse_uniform_edge_loads() {
        // load 0: silent. load 1: every input fires every slot.
        let mut buf = Vec::new();
        let mut zero = SparseUniformTraffic::new(16, 0.0, 4);
        zero.arrivals(0, &mut buf);
        assert!(buf.is_empty());
        let mut full = SparseUniformTraffic::new(16, 1.0, 4);
        for s in 0..32u64 {
            buf.clear();
            full.arrivals(s, &mut buf);
            assert_eq!(buf.len(), 16);
            for (i, a) in buf.iter().enumerate() {
                assert_eq!(a.input.index(), i);
            }
        }
    }

    #[test]
    fn sparse_uniform_is_deterministic_per_seed() {
        let runs: Vec<Vec<(usize, usize)>> = (0..2)
            .map(|_| {
                let mut t = SparseUniformTraffic::new(64, 0.2, 77);
                let mut all = Vec::new();
                let mut buf = Vec::new();
                for s in 0..200u64 {
                    buf.clear();
                    t.arrivals(s, &mut buf);
                    all.extend(buf.iter().map(|a| (a.input.index(), a.output.index())));
                }
                all
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert!(!runs[0].is_empty());
    }

    #[test]
    fn client_server_rates() {
        // 16 ports, 4 servers, load 0.8 on server links, cc ratio 0.05.
        let t = RateMatrixTraffic::client_server(16, 4, 0.8, 0.05, 2);
        // Server input rate = load.
        for s in 0..4 {
            assert!((t.input_rate(s) - 0.8).abs() < 1e-9);
            assert!((t.output_rate(s) - 0.8).abs() < 1e-9);
        }
        // Client rate = (4*1 + 12*0.05) * load/16 = 4.6/16 * 0.8 = 0.23.
        for c in 4..16 {
            assert!((t.input_rate(c) - 0.23).abs() < 1e-9, "{}", t.input_rate(c));
        }
        // Empirically too.
        let mut t = t;
        let (inp, _) = measure_rates(&mut t, 40_000);
        assert!((inp[0] - 0.8).abs() < 0.02);
        assert!((inp[10] - 0.23).abs() < 0.02);
    }

    #[test]
    fn client_server_full_load_is_feasible() {
        let t = RateMatrixTraffic::client_server(16, 4, 1.0, 0.05, 3);
        for p in 0..16 {
            assert!(t.input_rate(p) <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn periodic_is_cyclic_and_deterministic_at_full_load() {
        // Block length 1: destination cycles every slot.
        let mut t = PeriodicTraffic::with_block_len(4, 1.0, 0, 1);
        assert_eq!(t.block_len(), 1);
        let mut buf = Vec::new();
        for s in 0..8u64 {
            buf.clear();
            t.arrivals(s, &mut buf);
            assert_eq!(buf.len(), 4);
            for a in &buf {
                assert_eq!(a.output.index(), (s as usize) % 4);
            }
        }
    }

    #[test]
    fn periodic_default_blocks_of_n() {
        let mut t = PeriodicTraffic::new(4, 1.0, 0);
        assert_eq!(t.block_len(), 4);
        let mut buf = Vec::new();
        for s in 0..16u64 {
            buf.clear();
            t.arrivals(s, &mut buf);
            for a in &buf {
                assert_eq!(a.output.index(), (s as usize / 4) % 4, "slot {s}");
            }
        }
    }

    #[test]
    fn periodic_partial_load_thins_arrivals() {
        let mut t = PeriodicTraffic::new(4, 0.5, 7);
        let (inp, _) = measure_rates(&mut t, 40_000);
        for r in inp {
            assert!((r - 0.5).abs() < 0.02, "rate {r}");
        }
    }

    #[test]
    fn bursty_long_run_load() {
        let mut t = BurstyTraffic::new(4, 0.4, 10.0, 5);
        let (inp, _) = measure_rates(&mut t, 200_000);
        for r in inp {
            assert!((r - 0.4).abs() < 0.05, "rate {r}");
        }
    }

    #[test]
    fn bursty_cells_within_burst_share_destination() {
        let mut t = BurstyTraffic::new(1, 0.5, 20.0, 9);
        let mut buf = Vec::new();
        let mut prev: Option<usize> = None;
        let mut switches = 0;
        let mut cells = 0;
        for s in 0..10_000u64 {
            buf.clear();
            t.arrivals(s, &mut buf);
            if let Some(a) = buf.first() {
                cells += 1;
                if prev == Some(a.output.index()) {
                } else if prev.is_some() {
                    switches += 1;
                }
                prev = Some(a.output.index());
            } else {
                prev = None;
            }
        }
        // With mean burst 20, destination switches are rare vs cells.
        assert!(cells > 1000);
        assert!(switches < cells / 5, "{switches} switches in {cells} cells");
    }

    #[test]
    fn bursty_hotspot_targets_one_output() {
        let mut t = BurstyTraffic::new(8, 0.3, 5.0, 11).with_hotspot(3);
        let (_, outp) = measure_rates(&mut t, 20_000);
        for (j, r) in outp.iter().enumerate() {
            if j == 3 {
                assert!(*r > 1.0, "hotspot rate {r}"); // 8 inputs * 0.3
            } else {
                assert_eq!(*r, 0.0);
            }
        }
    }

    #[test]
    fn trace_plays_back_in_order() {
        let mut t = TraceTraffic::new(4, [(0, 0, 1), (0, 1, 1), (2, 0, 3)]);
        let mut buf = Vec::new();
        t.arrivals(0, &mut buf);
        assert_eq!(buf.len(), 2);
        buf.clear();
        t.arrivals(1, &mut buf);
        assert!(buf.is_empty());
        assert!(!t.is_exhausted());
        t.arrivals(2, &mut buf);
        assert_eq!(buf.len(), 1);
        assert!(t.is_exhausted());
    }

    #[test]
    #[should_panic(expected = "sorted by slot")]
    fn unsorted_trace_panics() {
        let _ = TraceTraffic::new(4, [(2, 0, 1), (0, 0, 1)]);
    }

    #[test]
    #[should_panic(expected = "row sum > 1")]
    fn overloaded_rate_matrix_panics() {
        let _ = RateMatrixTraffic::new(vec![vec![0.6, 0.6], vec![0.0, 0.0]], 0);
    }

    #[test]
    #[should_panic(expected = "same slot")]
    fn duplicate_input_slot_trace_panics() {
        let _ = TraceTraffic::new(4, [(0, 0, 1), (0, 0, 2)]);
    }
}
