//! Turns a workload's rounds into its named metrics and cross-round
//! checks. The names and units here are the ones `BENCHMARK.json` lists;
//! a test keeps the two in step.

use crate::stats::{median, tail};
use crate::workloads::Round;

/// End-to-end metrics, from the untraced rounds: `(name, unit)`.
const END_TO_END: [(&str, &str); 6] = [
    ("slots_per_s", "slots/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cells_per_slot", "cells/slot"),
    ("mean_delay_slots", "slots"),
    ("tail_delay_slots", "slots"),
];

/// Per-layer metrics, from the traced round: `(name, unit)`. A layer a
/// workload does not run reports 0.
const PER_LAYER: [(&str, &str); 24] = [
    ("traffic.ns_per_slot", "ns"),
    ("traffic.arrivals_per_slot", "cells/slot"),
    ("batch.ns_per_slot", "ns"),
    ("batch.ns_per_cell", "ns"),
    ("batch.queued_mean", "cells"),
    ("batch.active_pairs_mean", "pairs"),
    ("switch.ns_per_slot", "ns"),
    ("switch.queued_mean", "cells"),
    ("sched.ns_per_call", "ns"),
    ("sched.ns_p99", "ns"),
    ("sched.calls_per_slot", "calls/slot"),
    ("sched.matches_per_call", "pairs/call"),
    ("sched.matched_per_backlogged_input", "ratio"),
    ("sched.budget_miss_share", "ratio"),
    ("shard.ns_per_switch_slot", "ns"),
    ("shard.serial_ns_per_switch_slot", "ns"),
    ("task.map_ns", "ns"),
    ("task.dispatch_share", "ratio"),
    ("task.parallel_speedup", "ratio"),
    ("harness.ns_per_slot", "ns"),
    ("harness.chunk_ms_tail", "ms"),
    ("harness.chunk_samples", "count"),
    ("trace.timer_ns", "ns"),
    ("trace.overhead", "ratio"),
];

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metrics(table: &[(&'static str, &'static str)], value: impl Fn(&str) -> f64) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: value(name),
        })
        .collect()
}

/// Host slots/s of each chunk position, from the fastest of its repeats.
///
/// Every round of a seed simulates exactly the same slots, so chunk `k`
/// is the same work in each round. Co-tenants on a shared host slow
/// whole stretches of seconds, by up to 2x; the fastest repeat of each
/// chunk filters out such a stretch unless it covers every round.
fn best_chunk_rates(rounds: &[Round]) -> Vec<f64> {
    let chunks = rounds.iter().map(|r| r.chunk_ns.len()).min().unwrap_or(0);
    (0..chunks)
        .map(|k| {
            let ns = rounds
                .iter()
                .map(|r| r.chunk_ns[k])
                .fold(f64::INFINITY, f64::min);
            rounds[0].chunk_slots / ns * 1e9
        })
        .collect()
}

/// The end-to-end metrics of `rounds` (untraced, at least one). Host
/// times are medians over the fastest repeat of each chunk or build, as
/// above; simulated metrics repeat exactly in every round, so the first
/// round's stand.
pub fn end_to_end(rounds: &[Round]) -> Vec<Metric> {
    let first = &rounds[0];
    let setup = rounds
        .iter()
        .map(|r| median(&r.setup_s))
        .fold(f64::INFINITY, f64::min);
    let rss: Vec<f64> = rounds.iter().map(|r| r.peak_rss_mb).collect();
    metrics(&END_TO_END, |name| match name {
        "slots_per_s" => median(&best_chunk_rates(rounds)),
        "setup_s" => setup,
        "peak_rss_mb" => median(&rss),
        "cells_per_slot" => first.cells_per_slot,
        "mean_delay_slots" => first.mean_delay,
        "tail_delay_slots" => first.tail_delay,
        other => unreachable!("unlisted end-to-end metric {other}"),
    })
}

/// The per-layer metrics of the `traced` round, with the chunk-time tail
/// and the tracing overhead taken against the untraced `rounds`.
pub fn per_layer(rounds: &[Round], traced: &Round) -> Vec<Metric> {
    let chunk_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.chunk_ns.iter().map(|ns| ns / 1e6))
        .collect();
    let untraced_ns: Vec<f64> = rounds.iter().map(Round::ns_per_slot).collect();
    metrics(&PER_LAYER, |name| match name {
        "harness.chunk_ms_tail" => tail(&chunk_ms),
        "harness.chunk_samples" => chunk_ms.len() as f64,
        "trace.overhead" => traced.ns_per_slot() / median(&untraced_ns) - 1.0,
        _ => traced
            .layers
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |&(_, v)| v),
    })
}

/// Checks across rounds: every round of a seed, traced or not, must
/// simulate exactly the same thing. Returns `(checks, failures)`.
pub fn cross_round_checks(rounds: &[Round], traced: Option<&Round>) -> (u64, Vec<String>) {
    let Some(first) = rounds.first() else {
        return (0, Vec::new());
    };
    let mut failures = Vec::new();
    let others: Vec<(&str, &Round)> = rounds[1..]
        .iter()
        .map(|r| ("untraced", r))
        .chain(traced.map(|r| ("traced", r)))
        .collect();
    for (kind, r) in &others {
        if r.digest != first.digest {
            failures.push(format!(
                "{kind} round digest {:016x} differs from first round's {:016x}",
                r.digest, first.digest
            ));
        }
    }
    (others.len() as u64, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::{run_round, Size, Workload};

    /// `(name, unit)` of every metric in one `BENCHMARK.json` list.
    fn listed(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn every_listed_metric_and_nothing_else_is_emitted() {
        let spec = Json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
        for w in Workload::ALL {
            let rounds = [
                run_round(w, 11, Size::Smoke, false),
                run_round(w, 11, Size::Smoke, false),
            ];
            let traced = run_round(w, 11, Size::Smoke, true);
            for (k, _) in &traced.layers {
                assert!(PER_LAYER.iter().any(|&(n, _)| n == k), "unlisted layer {k}");
            }
            for (key, got) in [
                ("end_to_end", end_to_end(&rounds)),
                ("per_layer", per_layer(&rounds, &traced)),
            ] {
                let emitted: Vec<(String, String)> = got
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit.to_string()))
                    .collect();
                assert_eq!(emitted, listed(&spec, key), "{} {key}", w.name());
                for m in &got {
                    assert!(m.value.is_finite(), "{} {} = {}", w.name(), m.name, m.value);
                }
            }
            for m in end_to_end(&rounds) {
                assert!(m.value > 0.0, "{} {} must never be 0", w.name(), m.name);
            }
            let (checks, failures) = cross_round_checks(&rounds, Some(&traced));
            assert_eq!(checks, 2);
            assert!(failures.is_empty(), "{}: {failures:?}", w.name());
        }
    }

    #[test]
    fn each_chunk_keeps_its_fastest_repeat() {
        let round = |chunk_ns: Vec<f64>, setup_s: Vec<f64>| Round {
            chunk_ns,
            setup_s,
            chunk_slots: 1000.0,
            ..Round::default()
        };
        // Round 2 ran its first half slowed 2x, round 1 its second half.
        let rounds = [
            round(vec![1e6, 1e6, 2e6, 2e6, 2e6], vec![3.0, 1.0, 2.0]),
            round(vec![2e6, 2e6, 1e6, 1e6, 1e6], vec![9.0, 9.0, 9.0]),
        ];
        assert_eq!(best_chunk_rates(&rounds), vec![1e6; 5]);
        let e2e = end_to_end(&rounds);
        assert_eq!(e2e[0].value, 1e6);
        // Each round's median build, then the faster round.
        assert_eq!(e2e[1].value, 2.0);
    }

    #[test]
    fn digest_mismatch_is_a_failed_check() {
        let a = Round {
            digest: 1,
            ..Round::default()
        };
        let b = Round {
            digest: 2,
            ..Round::default()
        };
        let (checks, failures) = cross_round_checks(&[a.clone(), a.clone()], Some(&b));
        assert_eq!((checks, failures.len()), (2, 1));
        assert_eq!(cross_round_checks(&[a], None), (0, vec![]));
    }
}
