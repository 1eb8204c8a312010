//! Order statistics over host timings.
//!
//! Every host-time metric is a median or a tail percentile of many
//! samples, never a single sample: one round moves 15–20% on a shared
//! 2-vCPU host, while the median of hundreds of 1000-slot chunks holds
//! within a few percent.

/// Fewest samples that must lie beyond a reported tail percentile.
const TAIL_SAMPLES: usize = 10;

/// The deepest tail reported, reached once there are 1000 samples.
const DEEPEST_TAIL: f64 = 0.99;

/// Sorts a copy of `xs` (NaN-free by construction: timings and ratios of
/// positive counts).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile with linear interpolation between closest ranks
/// (numpy's default); `NaN` for an empty slice.
fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "quantile {p} outside [0, 1]");
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    let rank = p * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median; `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The highest percentile that still has at least [`TAIL_SAMPLES`]
/// samples beyond it among `n`, capped at p99 and floored at the median
/// (below 20 samples no tail is resolvable, so the median stands in).
fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - TAIL_SAMPLES as f64 / n as f64).clamp(0.5, DEEPEST_TAIL)
}

/// The value at [`tail_quantile`] of `xs`.
pub fn tail(xs: &[f64]) -> f64 {
    percentile(xs, tail_quantile(xs.len()))
}

/// Mean of the slowest 1% of a delay distribution given by its integer
/// quantile function `q`: the average of `q` over 10 000 evenly spaced
/// points from the 99th percentile up. Unlike the integer p99 itself it
/// moves with the shape of the tail (at 10^7 cells each point stands for
/// about ten of them), and it is above zero whenever any cell waited.
pub fn tail_mean(q: impl Fn(f64) -> u64) -> f64 {
    const STEPS: u32 = 10_000;
    let sum: u64 = (0..STEPS)
        .map(|k| q(0.99 + f64::from(k) * 0.01 / f64::from(STEPS)))
        .sum();
    sum as f64 / f64::from(STEPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 0.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert!((percentile(&[0.0, 10.0], 0.25) - 2.5).abs() < 1e-12);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.9), percentile(&xs, 0.9));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1000 samples reach p99 exactly: 10 lie beyond it.
        assert!((tail_quantile(1000) - 0.99).abs() < 1e-12);
        // 5000 samples would allow p99.8, but the cap holds at p99.
        assert_eq!(tail_quantile(5000), 0.99);
        // 350 chunks: p = 1 - 10/350, with exactly 10 samples beyond.
        let p = tail_quantile(350);
        assert!((p - (1.0 - 10.0 / 350.0)).abs() < 1e-12);
        assert!((350.0 * (1.0 - p) - 10.0).abs() < 1e-9);
        // Below 20 samples the median stands in.
        assert_eq!(tail_quantile(12), 0.5);
        assert_eq!(tail_quantile(0), 0.5);
    }

    #[test]
    fn sample_counts_drive_the_tail() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        // 40 samples: p75, so samples 31..=40 (ten of them) lie beyond.
        assert!((tail(&xs) - percentile(&xs, 0.75)).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > tail(&xs)).count(), TAIL_SAMPLES);
    }

    #[test]
    fn tail_mean_averages_the_slowest_percent() {
        // 99% of cells at delay 0 and 1% at delay 10: the slowest 1% mean is 10.
        assert_eq!(tail_mean(|p| if p >= 0.99 { 10 } else { 0 }), 10.0);
        // Half of the slowest percent at 4 and half at 6 (give or take the
        // one grid point on the boundary).
        assert!((tail_mean(|p| if p < 0.995 { 4 } else { 6 }) - 5.0).abs() < 1e-3);
        assert_eq!(tail_mean(|_| 0), 0.0);
    }
}
