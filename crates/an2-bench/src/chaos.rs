//! `an2-repro chaos`: seeded fault campaigns over the wide-radix stack.
//!
//! Each scenario is sampled by [`ChaosScenario::generate`] from a seed
//! derived via `task_seed(root, "chaos{i}")`, so the campaign is
//! embarrassingly parallel and byte-identical at any `--threads` value:
//! scenario `i` runs the same engine, load, slot budget and fault plan
//! regardless of which worker picks it up, and outcomes are reduced in
//! index order.
//!
//! A scenario drives one of two engines through its fault plan:
//!
//! * **batch** — a [`BatchCrossbar`] at N ∈ {64, 256, 1024} with the wide
//!   (`W = 16`) PIM kernel wrapped in a [`CheckedScheduler`], stepped via
//!   `step_faulted`. Conservation (`offered == departed + queued +
//!   dropped`) is verified every slot, the per-pair drop ledger at the
//!   end, and every matching is re-derived legal.
//! * **shard-net** — a sharded ring network run under
//!   [`run_shard_net_faulted`] (serial pool inside the worker; the outer
//!   campaign supplies the parallelism).
//!
//! Per scenario the driver records recovery SLOs against the scenario's
//! fault-free tail (the grammar guarantees the final quarter is clean):
//!
//! * **slots-to-recover** — distance from the last scripted event to the
//!   end of the first [`FAULT_WINDOW`]-slot window whose delivered-cell
//!   count regains ≥90% of the pre-fault baseline (mean of full windows
//!   before the first fault, excluding the warmup window).
//! * **residual drop rate** — fault-dropped cells over cells offered.
//! * **post-recovery throughput** — mean windowed throughput over the
//!   clean tail, as a fraction of the baseline.
//!
//! SLO misses are *statistics*; **violations** are broken invariants
//! (illegal matching, conservation or drop-ledger imbalance). On any
//! violation the driver captures a [`ReplayCase`] carrying the scenario's
//! accept-skew configuration so `an2-repro replay` can reproduce and
//! shrink it — the path the CI canary (`AN2_CHECK_SKEW=1`) exercises.

use an2_net::shard::{run_shard_net_faulted, ShardNetConfig, FAULT_WINDOW};
use an2_sched::check::{CheckedScheduler, Violation};
use an2_sched::WidePim;
use an2_sim::batch::BatchCrossbar;
use an2_sim::chaos::{ChaosEngine, ChaosScenario};
use an2_sim::fault::FaultLog;
use an2_sim::traffic::{SparseUniformTraffic, Traffic as _};
use an2_task::{task_seed, Fnv, Pool};
use an2_verify::ReplayCase;
use std::fmt::Write as _;

/// Delivered-throughput fraction of baseline a window must regain for the
/// scenario to count as recovered.
const RECOVERY_FRACTION: f64 = 0.9;

/// What one scenario did, reduced to seed-deterministic numbers.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Campaign position (also the scenario's derivation key).
    pub index: usize,
    /// Scenario grammar pattern.
    pub pattern: &'static str,
    /// Engine label ("batch64" … "batch1024", "shard8x8" …).
    pub engine: String,
    /// Slots run.
    pub slots: u64,
    /// Cells offered (batch: admitted + dropped; shard: host-injected).
    pub offered: u64,
    /// Cells delivered through the fabric.
    pub delivered: u64,
    /// Cells consumed by faults.
    pub dropped: u64,
    /// Cells still queued or on a link at the end.
    pub in_flight: u64,
    /// Fault events applied.
    pub faults: u64,
    /// Whether windowed throughput regained the recovery bar in the tail.
    pub recovered: bool,
    /// Slots from the last scripted event to the recovering window's end
    /// (0 when not recovered or when the baseline is degenerate).
    pub slots_to_recover: u64,
    /// `dropped / offered` (0 when nothing was offered).
    pub residual_drop_rate: f64,
    /// Mean clean-tail windowed throughput over the pre-fault baseline
    /// (1.0 when the baseline is degenerate).
    pub post_recovery_ratio: f64,
    /// First invariant violation, if any.
    pub violation: Option<String>,
}

/// Everything `an2-repro chaos` prints and persists.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Root seed the campaign derived scenario seeds from.
    pub seed: u64,
    /// Accept-skew hook value the engines ran with (0 = correct).
    pub skew: usize,
    /// Whether per-slot invariant checking was on.
    pub check: bool,
    /// Per-scenario outcomes in index order.
    pub outcomes: Vec<ScenarioOutcome>,
}

/// Runs a `scenarios`-sized campaign on `pool`.
///
/// `skew` threads the hidden accept-phase bug hook into every batch
/// scenario's wide PIM (the `AN2_CHECK_SKEW` canary path); it is 0 in
/// real runs. `check` enables the per-slot invariant probes; stdout is
/// byte-identical either way because the checking wrapper is a
/// pass-through around the same scheduler stream.
pub fn run(scenarios: usize, seed: u64, check: bool, skew: usize, pool: &Pool) -> ChaosReport {
    let outcomes = pool.map((0..scenarios).collect(), |_, index| {
        let s = task_seed(seed, &format!("chaos{index}"));
        let scenario = ChaosScenario::generate(s, index);
        // A scenario that trips an engine's own debug assertion (e.g. the
        // skewed scheduler handing the batch engine an illegal pair) is a
        // violation, not a campaign abort: catch it and record it. The
        // panic slot is seed-deterministic, so so is the outcome.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_scenario(&scenario, check, skew)
        }))
        .unwrap_or_else(|payload| crashed_outcome(&scenario, payload))
    });
    ChaosReport {
        seed,
        skew,
        check,
        outcomes,
    }
}

/// The deterministic outcome of a scenario whose engine panicked
/// mid-step (an internal assertion caught a corrupt state before the
/// driver's own probes could).
fn crashed_outcome(
    sc: &ChaosScenario,
    payload: Box<dyn std::any::Any + Send>,
) -> ScenarioOutcome {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "engine panicked".to_owned());
    let engine = match sc.engine {
        ChaosEngine::Batch { n } => format!("batch{n}"),
        ChaosEngine::ShardNet { switches, radix } => format!("shard{switches}x{radix}"),
    };
    ScenarioOutcome {
        index: sc.index,
        pattern: sc.pattern,
        engine,
        slots: sc.slots,
        offered: 0,
        delivered: 0,
        dropped: 0,
        in_flight: 0,
        faults: 0,
        recovered: false,
        slots_to_recover: 0,
        residual_drop_rate: 0.0,
        post_recovery_ratio: 0.0,
        violation: Some(format!("engine panic: {msg}")),
    }
}

/// Runs one sampled scenario on its engine.
fn run_scenario(sc: &ChaosScenario, check: bool, skew: usize) -> ScenarioOutcome {
    match sc.engine {
        ChaosEngine::Batch { n } => run_batch_scenario(sc, n, check, skew),
        ChaosEngine::ShardNet { switches, radix } => {
            run_shard_scenario(sc, switches, radix, check)
        }
    }
}

fn run_batch_scenario(sc: &ChaosScenario, n: usize, check: bool, skew: usize) -> ScenarioOutcome {
    let mut pim = WidePim::new(n, task_seed(sc.seed, "sched"));
    if skew > 0 {
        pim.debug_set_accept_skew(skew);
    }
    // The checker re-derives matching legality from scratch but never
    // perturbs the scheduler stream, so checked and unchecked campaigns
    // print the same bytes.
    let mut engine: BatchCrossbar<_, 16> = BatchCrossbar::new(n, CheckedScheduler::new(pim));
    let mut traffic = SparseUniformTraffic::new(n, sc.load, task_seed(sc.seed, "traffic"));
    let mut plan = sc.plan.clone();
    let mut log = FaultLog::new();
    let mut buf = Vec::with_capacity(n);
    let full = (sc.slots / FAULT_WINDOW).max(1) as usize;
    let mut windows = vec![0u64; full];
    let mut violation: Option<String> = None;
    for slot in 0..sc.slots {
        buf.clear();
        traffic.arrivals(slot, &mut buf);
        let before = engine.departed();
        engine.step_faulted(&buf, &mut plan, &mut log);
        let w = (slot / FAULT_WINDOW) as usize;
        if w < windows.len() {
            windows[w] += engine.departed() - before;
        }
        if check {
            if let Err(e) = engine.verify_conservation() {
                violation = Some(format!("slot {slot}: {e}"));
                break;
            }
            if let Some(v) = engine.scheduler().violations().first() {
                violation = Some(v.to_string());
                break;
            }
        }
    }
    if check && violation.is_none() {
        if let Err(e) = engine.verify_drop_ledger() {
            violation = Some(e);
        }
    }
    let offered = engine.offered();
    let delivered = engine.departed();
    let dropped = engine.dropped();
    let (recovered, slots_to_recover, post_recovery_ratio) = slo(&windows, sc);
    ScenarioOutcome {
        index: sc.index,
        pattern: sc.pattern,
        engine: format!("batch{n}"),
        slots: sc.slots,
        offered,
        delivered,
        dropped,
        in_flight: offered - dropped - delivered,
        faults: log.applied().len() as u64,
        recovered,
        slots_to_recover,
        residual_drop_rate: rate(dropped, offered),
        post_recovery_ratio,
        violation,
    }
}

fn run_shard_scenario(
    sc: &ChaosScenario,
    switches: usize,
    radix: usize,
    check: bool,
) -> ScenarioOutcome {
    let cfg = ShardNetConfig {
        switches,
        radix,
        span: 3.min(switches - 1),
        host_load: sc.load,
        seed: task_seed(sc.seed, "net"),
        slots: sc.slots,
    };
    // The campaign's outer pool supplies the parallelism; each shard-net
    // scenario runs serially inside its worker.
    let r = run_shard_net_faulted(&cfg, &sc.plan, &Pool::serial());
    let violation = if check && !r.is_conserved() {
        // Unreachable in practice: the runner asserts conservation.
        Some("shard-net conservation violated".to_owned())
    } else {
        None
    };
    let full = (sc.slots / FAULT_WINDOW).max(1) as usize;
    let windows: Vec<u64> = r.windows.iter().copied().take(full).collect();
    let (recovered, slots_to_recover, post_recovery_ratio) = slo(&windows, sc);
    ScenarioOutcome {
        index: sc.index,
        pattern: sc.pattern,
        engine: format!("shard{switches}x{radix}"),
        slots: sc.slots,
        offered: r.injected,
        delivered: r.delivered,
        dropped: r.dropped,
        in_flight: r.in_flight,
        faults: r.faults_applied,
        recovered,
        slots_to_recover,
        residual_drop_rate: rate(r.dropped, r.injected),
        post_recovery_ratio,
        violation,
    }
}

fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Computes the recovery SLOs from full-window delivered-cell counts.
///
/// Returns `(recovered, slots_to_recover, post_recovery_ratio)`. A
/// degenerate baseline (no deliveries before the first fault, as happens
/// at very light shard loads) counts as trivially recovered with ratio 1.
fn slo(windows: &[u64], sc: &ChaosScenario) -> (bool, u64, f64) {
    let first_fault = sc.first_fault_slot().unwrap_or(0);
    let last_event = sc.last_event_slot().unwrap_or(0);
    // Baseline: full windows that end before the first fault, skipping
    // window 0 (warmup). Fall back to window 0 if the fault lands early.
    let mut pre: Vec<u64> = windows
        .iter()
        .enumerate()
        .filter(|&(w, _)| w >= 1 && (w as u64 + 1) * FAULT_WINDOW <= first_fault)
        .map(|(_, &v)| v)
        .collect();
    if pre.is_empty() && FAULT_WINDOW <= first_fault && !windows.is_empty() {
        pre.push(windows[0]);
    }
    let baseline = if pre.is_empty() {
        0.0
    } else {
        pre.iter().sum::<u64>() as f64 / pre.len() as f64
    };
    // Tail: full windows past the recovery deadline (clean by grammar).
    let deadline = sc.recovery_deadline();
    let tail: Vec<u64> = windows
        .iter()
        .enumerate()
        .filter(|&(w, _)| w as u64 * FAULT_WINDOW >= deadline)
        .map(|(_, &v)| v)
        .collect();
    let tail_mean = if tail.is_empty() {
        0.0
    } else {
        tail.iter().sum::<u64>() as f64 / tail.len() as f64
    };
    if baseline <= 0.0 {
        return (true, 0, 1.0);
    }
    let bar = RECOVERY_FRACTION * baseline;
    let mut recovered = false;
    let mut slots_to_recover = 0u64;
    for (w, &v) in windows.iter().enumerate() {
        let start = w as u64 * FAULT_WINDOW;
        if start < last_event {
            continue;
        }
        if v as f64 >= bar {
            recovered = true;
            slots_to_recover = start + FAULT_WINDOW - last_event;
            break;
        }
    }
    (recovered, slots_to_recover, tail_mean / baseline)
}

impl ChaosReport {
    /// Outcomes whose invariants broke.
    pub fn violations(&self) -> impl Iterator<Item = &ScenarioOutcome> {
        self.outcomes.iter().filter(|o| o.violation.is_some())
    }

    /// The lowest-index violating scenario, if any.
    pub fn first_failure(&self) -> Option<&ScenarioOutcome> {
        self.violations().next()
    }

    /// Builds the replay artefact for the first violation: the standard
    /// PR 4 scheduler probe carrying this campaign's accept-skew hook, so
    /// `an2-repro replay` reproduces the scheduler-level bug and shrinks
    /// it. (Engine-level imbalances have no self-contained wide encoding;
    /// like the network probes, they ship the annotated default case.)
    pub fn replay_case(&self) -> Option<ReplayCase> {
        let o = self.first_failure()?;
        let mut case = ReplayCase::new(16, task_seed(self.seed, "chaos-replay"), 0.7, 256);
        case.accept_skew = self.skew;
        case.annotate(&Violation {
            slot: 0,
            rule: "chaos",
            detail: format!("scenario {} ({} {}): {}", o.index, o.engine, o.pattern, o.violation.clone().unwrap_or_default()),
        });
        Some(case)
    }

    /// FNV-1a digest over every outcome's numeric fields in index order —
    /// the byte CI diffs across `--threads` values.
    pub fn digest(&self) -> u64 {
        let mut d = Fnv::report();
        let mut fold = |v: u64| d.u64(v);
        for o in &self.outcomes {
            fold(o.index as u64);
            fold(o.slots);
            fold(o.offered);
            fold(o.delivered);
            fold(o.dropped);
            fold(o.in_flight);
            fold(o.faults);
            fold(o.recovered as u64);
            fold(o.slots_to_recover);
            fold(o.residual_drop_rate.to_bits());
            fold(o.post_recovery_ratio.to_bits());
            fold(o.violation.is_some() as u64);
        }
        d.finish()
    }

    fn recovered_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.recovered).count()
    }

    /// Sorted slots-to-recover of recovered scenarios with real recoveries.
    fn recovery_samples(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .outcomes
            .iter()
            .filter(|o| o.recovered && o.slots_to_recover > 0)
            .map(|o| o.slots_to_recover)
            .collect();
        v.sort_unstable();
        v
    }

    fn quantile(samples: &[u64], q: f64) -> u64 {
        if samples.is_empty() {
            return 0;
        }
        let idx = ((samples.len() - 1) as f64 * q).round() as usize;
        samples[idx.min(samples.len() - 1)]
    }

    fn max_residual_drop_rate(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.residual_drop_rate)
            .fold(0.0, f64::max)
    }

    fn min_post_recovery_ratio(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.post_recovery_ratio)
            .fold(f64::INFINITY, f64::min)
    }

    /// `(pattern, count, recovered)` rows in a stable order.
    fn pattern_rows(&self) -> Vec<(&'static str, usize, usize)> {
        ["burst", "flapping", "correlated-group", "recovery-window", "soup"]
            .into_iter()
            .map(|p| {
                let of = self.outcomes.iter().filter(|o| o.pattern == p);
                (
                    p,
                    of.clone().count(),
                    of.filter(|o| o.recovered).count(),
                )
            })
            .collect()
    }

    /// Deterministic stdout render: every number is a pure function of the
    /// campaign seed.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "# chaos: {} scenarios, seed {:#x}, check {}",
            self.outcomes.len(),
            self.seed,
            if self.check { "on" } else { "off" }
        );
        for (p, count, rec) in self.pattern_rows() {
            let _ = writeln!(s, "  {p:<18} {count:>5} scenarios  {rec:>5} recovered");
        }
        let (offered, delivered, dropped, faults) = self.outcomes.iter().fold(
            (0u64, 0u64, 0u64, 0u64),
            |(o, d, x, f), oc| (o + oc.offered, d + oc.delivered, x + oc.dropped, f + oc.faults),
        );
        let _ = writeln!(
            s,
            "offered {offered}  delivered {delivered}  dropped {dropped}  faults {faults}"
        );
        let samples = self.recovery_samples();
        let _ = writeln!(
            s,
            "recovery: {}/{} scenarios  slots-to-recover p50 {} p99 {}",
            self.recovered_count(),
            self.outcomes.len(),
            Self::quantile(&samples, 0.50),
            Self::quantile(&samples, 0.99)
        );
        let _ = writeln!(
            s,
            "residual drop rate max {:.6}  post-recovery throughput min {:.4}",
            self.max_residual_drop_rate(),
            self.min_post_recovery_ratio()
        );
        let _ = writeln!(s, "violations: {}", self.violations().count());
        for o in self.violations().take(8) {
            let _ = writeln!(
                s,
                "  scenario {} ({} {}): {}",
                o.index,
                o.engine,
                o.pattern,
                o.violation.as_deref().unwrap_or("")
            );
        }
        let _ = writeln!(s, "digest {:#018x}", self.digest());
        s
    }

    /// Serialises the campaign to the `results/CHAOS.json` schema
    /// (version 1; see EXPERIMENTS.md).
    pub fn to_json(&self) -> String {
        let samples = self.recovery_samples();
        let mut s = String::with_capacity(2048);
        s.push_str("{\n");
        s.push_str("  \"version\": 1,\n");
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"scenarios\": {},", self.outcomes.len());
        let _ = writeln!(s, "  \"check\": {},", self.check);
        let _ = writeln!(s, "  \"fault_window_slots\": {FAULT_WINDOW},");
        let _ = writeln!(s, "  \"recovery_fraction\": {RECOVERY_FRACTION},");
        s.push_str("  \"slo\": {\n");
        let _ = writeln!(s, "    \"recovered\": {},", self.recovered_count());
        let _ = writeln!(
            s,
            "    \"slots_to_recover_p50\": {},",
            Self::quantile(&samples, 0.50)
        );
        let _ = writeln!(
            s,
            "    \"slots_to_recover_p99\": {},",
            Self::quantile(&samples, 0.99)
        );
        let _ = writeln!(
            s,
            "    \"residual_drop_rate_max\": {},",
            self.max_residual_drop_rate()
        );
        let _ = writeln!(
            s,
            "    \"post_recovery_ratio_min\": {}",
            self.min_post_recovery_ratio()
        );
        s.push_str("  },\n");
        s.push_str("  \"patterns\": {\n");
        let rows = self.pattern_rows();
        for (k, (p, count, rec)) in rows.iter().enumerate() {
            let comma = if k + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    \"{p}\": {{\"count\": {count}, \"recovered\": {rec}}}{comma}"
            );
        }
        s.push_str("  },\n");
        s.push_str("  \"violations\": [\n");
        let viols: Vec<&ScenarioOutcome> = self.violations().collect();
        for (k, o) in viols.iter().enumerate() {
            let comma = if k + 1 < viols.len() { "," } else { "" };
            let detail = o
                .violation
                .as_deref()
                .unwrap_or("")
                .replace('\\', "\\\\")
                .replace('"', "\\\"");
            let _ = writeln!(
                s,
                "    {{\"index\": {}, \"engine\": \"{}\", \"pattern\": \"{}\", \"detail\": \"{detail}\"}}{comma}",
                o.index, o.engine, o.pattern
            );
        }
        s.push_str("  ],\n");
        let _ = writeln!(s, "  \"digest\": \"{:#018x}\"", self.digest());
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_runs_clean_and_is_thread_independent() {
        let a = run(48, 0xC4A05, true, 0, &Pool::serial());
        let b = run(48, 0xC4A05, true, 0, &Pool::new(4));
        assert_eq!(a.violations().count(), 0, "clean engines must pass");
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_json(), b.to_json());
        // The mix must exercise both engines within two dozen scenarios.
        assert!(a.outcomes.iter().any(|o| o.engine.starts_with("batch")));
        assert!(a.outcomes.iter().any(|o| o.engine.starts_with("shard")));
        // Faults actually struck, and most scenarios recover.
        assert!(a.outcomes.iter().all(|o| o.faults > 0));
        assert!(a.recovered_count() * 10 >= a.outcomes.len() * 8);
    }

    #[test]
    fn checking_does_not_change_the_campaign_bytes() {
        let checked = run(12, 0xFACE, true, 0, &Pool::serial());
        let unchecked = run(12, 0xFACE, false, 0, &Pool::serial());
        assert_eq!(checked.digest(), unchecked.digest());
    }

    #[test]
    fn skewed_accept_phase_is_caught_and_yields_a_shrinkable_case() {
        let r = run(12, 0xC4A05, true, 1, &Pool::serial());
        assert!(
            r.violations().count() > 0,
            "the seeded accept-skew bug must break a batch scenario"
        );
        let case = r.replay_case().expect("a failure must yield a case");
        assert_eq!(case.accept_skew, 1);
        let outcome = an2_verify::run_case(&case);
        let v = outcome.violation.expect("the case must reproduce the bug");
        assert_eq!(v.rule, "respects");
        let shrunk = an2_verify::shrink(&case).expect("must shrink");
        assert!(
            shrunk.slots <= 32,
            "shrunk case is {} slots, want <= 32",
            shrunk.slots
        );
    }

    #[test]
    fn recovery_slos_are_measured_for_faulted_scenarios() {
        let r = run(32, 0xBEEF, false, 0, &Pool::serial());
        let with_recovery = r
            .outcomes
            .iter()
            .filter(|o| o.recovered && o.slots_to_recover > 0)
            .count();
        assert!(
            with_recovery > 0,
            "no scenario produced a measurable slots-to-recover"
        );
        for o in &r.outcomes {
            assert!(o.residual_drop_rate < 0.5, "scenario {} lost half its cells", o.index);
            assert!(
                o.offered == o.delivered + o.in_flight + o.dropped,
                "scenario {} leaks cells",
                o.index
            );
        }
    }
}
