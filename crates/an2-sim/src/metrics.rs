//! Queueing metrics: delay statistics, throughput and occupancy.
//!
//! The paper's figures plot *average queueing delay (in cell time slots)
//! vs. offered load*; this module collects exactly those quantities, plus
//! the percentiles and per-port/per-flow breakdowns the fairness
//! experiments need.

use std::fmt;

/// Histogram-backed delay statistics in units of cell slots.
///
/// Exact mean/max; percentiles are exact for delays below the
/// histogram cap and conservative (reported as the cap) above it.
///
/// # Examples
///
/// ```
/// use an2_sim::metrics::DelayStats;
/// let mut d = DelayStats::new();
/// for x in [0, 1, 1, 2, 10] {
///     d.record(x);
/// }
/// assert_eq!(d.count(), 5);
/// assert!((d.mean() - 2.8).abs() < 1e-12);
/// assert_eq!(d.max(), 10);
/// assert_eq!(d.percentile(0.5), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DelayStats {
    count: u64,
    sum: u128,
    max: u64,
    /// hist[d] = cells with delay d, for d < CAP; larger delays land in the
    /// overflow counter (still exact in mean/max, conservative in
    /// percentiles).
    hist: Vec<u64>,
    overflow: u64,
}

/// Delays at or above this many slots share one overflow bucket.
const HIST_CAP: usize = 1 << 14;

impl DelayStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one cell's queueing delay in slots.
    // an2-lint: allow(overflow-discipline) count/sum are monotone u64/u128 accumulators; 2^64 recorded cells is unreachable
    // an2-lint: allow(panic-freedom) the HIST_CAP check right above bounds the histogram index
    pub fn record(&mut self, delay_slots: u64) {
        self.count += 1;
        self.sum += delay_slots as u128;
        self.max = self.max.max(delay_slots);
        if (delay_slots as usize) < HIST_CAP {
            if self.hist.len() <= delay_slots as usize {
                // an2-lint: allow(alloc-in-hot-path) histogram growth is bounded by HIST_CAP and amortized over the run
                self.hist.resize(delay_slots as usize + 1, 0);
            }
            self.hist[delay_slots as usize] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Number of recorded cells.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean delay in slots (0 if nothing recorded).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded delay.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `p`-quantile of the delay distribution (e.g. `0.99`), exact for
    /// delays under the histogram cap.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "quantile must be in [0,1]");
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * p).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (d, &c) in self.hist.iter().enumerate() {
            acc += c;
            if acc >= target {
                return d as u64;
            }
        }
        // Target falls into the overflow bucket.
        HIST_CAP as u64
    }

    /// Merges another accumulator into this one (used by multi-seed runs).
    pub fn merge(&mut self, other: &DelayStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        if self.hist.len() < other.hist.len() {
            self.hist.resize(other.hist.len(), 0);
        }
        for (d, &c) in other.hist.iter().enumerate() {
            self.hist[d] += c;
        }
        self.overflow += other.overflow;
    }
}

impl fmt::Display for DelayStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} p50={} p99={} max={}",
            self.count,
            self.mean(),
            self.percentile(0.50),
            self.percentile(0.99),
            self.max
        )
    }
}

/// Exact buckets below this value; octave sub-buckets above.
const SKETCH_EXACT: u64 = 64;
/// 64 exact buckets + 8 sub-buckets for each of the 58 octaves `2^6..2^63`.
const SKETCH_BUCKETS: usize = 64 + 58 * 8;

/// Streaming fixed-memory delay quantile sketch.
///
/// [`DelayStats`] keeps an exact histogram, which is cheap for the delay
/// ranges single-switch runs produce but grows with the largest delay and
/// costs a bounds-checked lazy resize on the record path. This sketch is
/// the O(1)-memory companion for long network runs: delays below
/// 64 slots land in exact unit buckets; larger delays land in one of 8
/// logarithmic sub-buckets per octave, so any reported quantile is a
/// lower bound within 12.5% relative error of the true value. Memory is a
/// fixed 528-bucket table regardless of run length, and
/// [`record`](QuantileSketch::record) never allocates.
///
/// # Examples
///
/// ```
/// use an2_sim::metrics::QuantileSketch;
/// let mut q = QuantileSketch::new();
/// for d in 0..1000u64 {
///     q.record(d);
/// }
/// let p50 = q.quantile(0.5);
/// assert!(p50 <= 500 && 500 - p50 <= 500 / 8);
/// ```
#[derive(Clone)]
pub struct QuantileSketch {
    buckets: Box<[u64; SKETCH_BUCKETS]>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// Creates an empty sketch (one fixed 528-bucket table).
    pub fn new() -> Self {
        Self {
            buckets: Box::new([0u64; SKETCH_BUCKETS]),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v < SKETCH_EXACT {
            v as usize
        } else {
            let e = 63 - v.leading_zeros() as usize;
            64 + (e - 6) * 8 + ((v >> (e - 3)) & 7) as usize
        }
    }

    /// Lower bound of the value range bucket `idx` covers.
    fn bucket_lo(idx: usize) -> u64 {
        if idx < SKETCH_EXACT as usize {
            idx as u64
        } else {
            let rel = idx - 64;
            let e = 6 + rel / 8;
            let sub = (rel % 8) as u64;
            (1u64 << e) + (sub << (e - 3))
        }
    }

    /// Records one delay sample. O(1), allocation-free (enforced by the
    /// counting-allocator test in `tests/alloc_probe.rs`).
    #[inline]
    // an2-lint: allow(overflow-discipline) count/sum are monotone u64/u128 accumulators; 2^64 recorded cells is unreachable
    // an2-lint: allow(panic-freedom) bucket_of maps every u64 below SKETCH_BUCKETS (the last octave's top sub-bucket is the table's last entry)
    pub fn record(&mut self, delay_slots: u64) {
        self.count += 1;
        self.sum += delay_slots as u128;
        self.max = self.max.max(delay_slots);
        self.buckets[Self::bucket_of(delay_slots)] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact maximum recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `p`-quantile as a lower bound: exact below 64 slots, within
    /// 12.5% relative error above.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn quantile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "quantile must be in [0,1]");
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * p).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Self::bucket_lo(idx).min(self.max);
            }
        }
        self.max
    }

    /// Merges another sketch into this one (used by sharded network runs).
    pub fn merge(&mut self, other: &QuantileSketch) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }
}

impl fmt::Debug for QuantileSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuantileSketch")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("max", &self.max)
            .finish()
    }
}

impl fmt::Display for QuantileSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} p50={} p99={} max={}",
            self.count,
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.99),
            self.max
        )
    }
}

/// Measured result of one switch simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SwitchReport {
    /// Delay of every measured departed cell.
    pub delay: DelayStats,
    /// Slots covered by the measurement window.
    pub slots: u64,
    /// Cells that arrived during the window.
    pub arrivals: u64,
    /// Cells that departed during the window (any arrival time).
    pub departures: u64,
    /// Departures per output port during the window.
    pub departures_per_output: Vec<u64>,
    /// Departures per flow during the window (sorted by flow id) — used by
    /// the fairness experiments.
    pub departures_per_flow: Vec<(u64, u64)>,
    /// Peak total buffered cells observed during the window.
    pub peak_occupancy: usize,
    /// Buffered cells at the end of the run.
    pub final_occupancy: usize,
}

impl SwitchReport {
    /// Mean utilization of output links: departures per output per slot,
    /// averaged over outputs. 1.0 = every link busy every slot.
    pub fn mean_output_utilization(&self) -> f64 {
        if self.slots == 0 || self.departures_per_output.is_empty() {
            return 0.0;
        }
        self.departures as f64 / (self.slots as f64 * self.departures_per_output.len() as f64)
    }

    /// Aggregate switch throughput in cells per slot (all outputs).
    pub fn aggregate_throughput(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.departures as f64 / self.slots as f64
        }
    }

    /// Whether the cells this report measured are conserved: every admitted
    /// arrival either departed or is still buffered.
    ///
    /// Only meaningful when the measurement window covers the whole run
    /// (no warmup, no preloaded queues): `arrivals` is window-scoped, so a
    /// cell admitted before the window starts would depart "unpaid". The
    /// invariant layer uses this on purpose-built full-window probes;
    /// dropped cells are accounted separately (a cell refused by a full
    /// queue never increments `arrivals`).
    pub fn is_conserved(&self) -> bool {
        self.arrivals == self.departures + self.final_occupancy as u64
    }
}

/// Jain's fairness index over a set of per-entity throughputs: 1.0 is
/// perfectly fair, `1/n` is maximally unfair. Used to quantify the §5.1
/// fairness discussion.
///
/// Returns 1.0 for an empty slice.
pub fn jain_index(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        return 1.0;
    }
    let sum: f64 = rates.iter().sum();
    let sum_sq: f64 = rates.iter().map(|r| r * r).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (rates.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let d = DelayStats::new();
        assert_eq!(d.count(), 0);
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.max(), 0);
        assert_eq!(d.percentile(0.99), 0);
    }

    #[test]
    fn mean_max_and_percentiles() {
        let mut d = DelayStats::new();
        for x in [2u64, 4, 4, 4, 5, 5, 7, 9] {
            d.record(x);
        }
        assert_eq!(d.count(), 8);
        assert!((d.mean() - 5.0).abs() < 1e-12);
        assert_eq!(d.max(), 9);
        assert_eq!(d.percentile(0.5), 4);
        assert_eq!(d.percentile(1.0), 9);
        assert_eq!(d.percentile(0.0), 2);
    }

    #[test]
    fn percentile_with_overflow_is_conservative() {
        let mut d = DelayStats::new();
        d.record(3);
        d.record(1 << 20);
        assert_eq!(d.percentile(0.25), 3);
        assert!(d.percentile(0.99) >= HIST_CAP as u64);
        assert_eq!(d.max(), 1 << 20);
    }

    #[test]
    fn merge_combines() {
        let mut a = DelayStats::new();
        let mut b = DelayStats::new();
        a.record(1);
        a.record(3);
        b.record(5);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.mean() - 3.0).abs() < 1e-12);
        assert_eq!(a.max(), 5);
    }

    #[test]
    fn display_is_informative() {
        let mut d = DelayStats::new();
        d.record(2);
        let s = d.to_string();
        assert!(s.contains("mean=2.000"), "{s}");
    }

    #[test]
    fn report_throughputs() {
        let r = SwitchReport {
            slots: 100,
            departures: 250,
            departures_per_output: vec![100, 100, 50, 0],
            ..Default::default()
        };
        assert!((r.aggregate_throughput() - 2.5).abs() < 1e-12);
        assert!((r.mean_output_utilization() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn jain_extremes() {
        assert!((jain_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let worst = jain_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((worst - 0.25).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_panics() {
        DelayStats::new().percentile(1.5);
    }

    #[test]
    fn sketch_empty_is_zero() {
        let q = QuantileSketch::new();
        assert_eq!(q.count(), 0);
        assert_eq!(q.mean(), 0.0);
        assert_eq!(q.max(), 0);
        assert_eq!(q.quantile(0.5), 0);
    }

    #[test]
    fn sketch_exact_below_64() {
        let mut q = QuantileSketch::new();
        let mut d = DelayStats::new();
        for x in [2u64, 4, 4, 4, 5, 5, 7, 9, 63] {
            q.record(x);
            d.record(x);
        }
        for p in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(q.quantile(p), d.percentile(p), "p={p}");
        }
        assert_eq!(q.max(), d.max());
        assert!((q.mean() - d.mean()).abs() < 1e-12);
    }

    #[test]
    fn sketch_bucket_roundtrip() {
        // Every bucket's lower bound maps back to that bucket, and
        // bucket_of is monotone over a wide value sweep.
        for idx in 0..SKETCH_BUCKETS {
            assert_eq!(QuantileSketch::bucket_of(QuantileSketch::bucket_lo(idx)), idx);
        }
        let mut prev = 0;
        for e in 0..63u32 {
            let mut offs = [0u64, 1, (1u64 << e) / 3, (1u64 << e) - 1];
            offs.sort_unstable();
            for off in offs {
                let v = (1u64 << e) + off.min((1 << e) - 1);
                let b = QuantileSketch::bucket_of(v);
                assert!(b >= prev, "bucket_of not monotone at {v}");
                assert!(QuantileSketch::bucket_lo(b) <= v);
                prev = b;
            }
        }
    }

    #[test]
    fn sketch_error_bound_vs_exact_histogram() {
        // Geometric-ish delay mix spanning exact and octave buckets.
        let mut q = QuantileSketch::new();
        let mut d = DelayStats::new();
        let mut x = 1u64;
        for i in 0..5000u64 {
            let v = (i * 37 + x) % 10_000;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1) >> 33;
            q.record(v);
            d.record(v);
        }
        for p in [0.5, 0.9, 0.99] {
            let approx = q.quantile(p);
            let exact = d.percentile(p);
            assert!(approx <= exact, "p={p}: sketch {approx} > exact {exact}");
            assert!(
                exact - approx <= approx / 8 + 1,
                "p={p}: sketch {approx} misses exact {exact} by more than 12.5%"
            );
        }
        assert_eq!(q.max(), d.max());
        assert_eq!(q.count(), d.count());
    }

    #[test]
    fn sketch_merge_matches_single_stream() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut all = QuantileSketch::new();
        for v in 0..1000u64 {
            if v % 2 == 0 {
                a.record(v * 3);
            } else {
                b.record(v * 3);
            }
            all.record(v * 3);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.max(), all.max());
        for p in [0.1, 0.5, 0.99] {
            assert_eq!(a.quantile(p), all.quantile(p));
        }
    }
}
