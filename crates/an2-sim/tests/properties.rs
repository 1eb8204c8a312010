//! Property-based tests for the simulator substrate.
//!
//! The engines' own rules (conservation, line rate, losslessness, time
//! shift, reference agreement) are one table in `an2-verify`'s
//! `tests/engines.rs`.

use an2_sim::cell::Arrival;
use an2_sim::metrics::DelayStats;
use an2_sim::traffic::{
    BurstyTraffic, PeriodicTraffic, RateMatrixTraffic, Traffic,
};
use proptest::prelude::*;

fn any_traffic(n: usize, seed: u64, which: u8, load: f64) -> Box<dyn Traffic> {
    match which % 3 {
        0 => Box::new(RateMatrixTraffic::uniform(n, load, seed)),
        1 => Box::new(PeriodicTraffic::new(n, load, seed)),
        _ => Box::new(BurstyTraffic::new(
            n,
            load.clamp(0.05, 0.95),
            4.0,
            seed,
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Traffic sources respect the physical constraints: at most one
    /// arrival per input per slot, ports in range, and long-run input rate
    /// close to the configured load.
    #[test]
    fn traffic_sources_respect_link_constraints(
        n in 1usize..16,
        seed in any::<u64>(),
        which in any::<u8>(),
        load in 0.05f64..1.0,
    ) {
        let mut t = any_traffic(n, seed, which, load);
        let mut buf: Vec<Arrival> = Vec::new();
        let mut per_input = vec![0u64; n];
        let slots = 2_000u64;
        for s in 0..slots {
            buf.clear();
            t.arrivals(s, &mut buf);
            let mut seen = an2_sched::PortSet::new();
            for a in &buf {
                prop_assert!(a.input.index() < n);
                prop_assert!(a.output.index() < n);
                prop_assert!(seen.insert(a.input.index()), "duplicate input in one slot");
                per_input[a.input.index()] += 1;
            }
        }
        for &c in &per_input {
            prop_assert!(c <= slots);
        }
    }

    /// DelayStats matches a naive model for arbitrary samples.
    #[test]
    fn delay_stats_matches_model(samples in proptest::collection::vec(0u64..2_000, 1..300)) {
        let mut d = DelayStats::new();
        for &s in &samples {
            d.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let n = samples.len();
        prop_assert_eq!(d.count(), n as u64);
        let mean: f64 = samples.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        prop_assert!((d.mean() - mean).abs() < 1e-9);
        prop_assert_eq!(d.max(), *sorted.last().unwrap());
        for &p in &[0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let idx = ((n as f64 * p).ceil().max(1.0) as usize - 1).min(n - 1);
            prop_assert_eq!(d.percentile(p), sorted[idx], "p = {}", p);
        }
    }

    /// Merging two DelayStats equals recording the concatenation.
    #[test]
    fn delay_stats_merge_is_concat(
        a in proptest::collection::vec(0u64..500, 0..100),
        b in proptest::collection::vec(0u64..500, 0..100),
    ) {
        let mut da = DelayStats::new();
        for &x in &a { da.record(x); }
        let mut db = DelayStats::new();
        for &x in &b { db.record(x); }
        da.merge(&db);
        let mut all = DelayStats::new();
        for &x in a.iter().chain(&b) { all.record(x); }
        prop_assert_eq!(da, all);
    }
}
