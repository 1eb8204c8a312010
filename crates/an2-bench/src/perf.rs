//! Scheduler throughput measurement — the `perf` subcommand.
//!
//! Unlike the paper-reproduction experiments, this module benchmarks the
//! *implementation*: how many scheduling decisions per second each
//! algorithm sustains. The paper's argument rests on PIM being "fast
//! enough to run every cell slot" (§3.2, 420 ns at AN2 link rates), and
//! the ROADMAP's million-slot experiment grids need the simulator's inner
//! loop to stay allocation-free — this harness records the slots/sec
//! trajectory so regressions in the hot path are visible across commits.
//!
//! Each kernel case drives one scheduler over a fixed pool of
//! pre-generated random request matrices (generation and construction
//! excluded from the timed region) and reports slots/sec and matches/sec.
//! Cases are independent tasks on the shared work-stealing pool, each
//! seeded by `task_seed(seed, "perf/<scheduler>/n<n>/load<load>")`.
//!
//! The `version` 3 schema adds two measurements of the *simulation
//! engine* rather than bare kernels: a `scaling` section (full
//! [`BatchCrossbar`] slots — traffic, VOQ bookkeeping and scheduling — at
//! [`SCALING_SIZES`] up to N=1024) and a `network` record (the
//! thousand-switch sharded ring of [`ShardNetConfig::thousand`]). Both
//! run serially *after* the parallel kernel grid so their wall-clock
//! numbers are uncontended and honest. Results serialize to
//! `BENCH_sched.json` (see [`PerfReport::to_json`]), and [`compare`]
//! prints per-case speedups between two saved reports plus their
//! geometric mean (`bench-compare --fail-below R` turns that mean into a
//! CI gate).

use crate::Effort;
use an2_net::shard::{run_shard_net, ShardNetConfig};
use an2_sched::islip::RoundRobinMatchingN;
use an2_sched::maximum::MaximumMatchingN;
use an2_sched::rng::Xoshiro256;
use an2_sched::{AcceptPolicy, IterationLimit, MwmN, PimN, RequestMatrixN, Scheduler, SerenadeN};
use an2_sim::batch::BatchCrossbar;
use an2_sim::traffic::{SparseUniformTraffic, Traffic};
use an2_sim::SwitchModel;
use an2_task::{task_seed, Pool};
use std::fmt::Write as _;
use std::time::Instant;

/// Switch sizes measured.
pub const SIZES: [usize; 3] = [16, 64, 256];

/// The wide-width radix added by the v3 schema; cases at this size run
/// the 16-word (1024-port) scheduler kernels.
pub const WIDE_SIZE: usize = 1024;

/// Schedulers measured at [`WIDE_SIZE`]. `pim` (run-to-completion),
/// `maximum` and the MWM kernels are excluded: dense 1024-port exact
/// matching costs seconds per slot, which would dwarf the grid without
/// informing the hot path. SERENADE's merge is near-linear, so it runs at
/// full radix.
pub const WIDE_SCHEDULERS: [&str; 4] = ["pim4", "islip4", "rrm4", "serenade"];

/// Switch sizes of the simulation-engine scaling curve (the `scaling`
/// section of the v3 schema): full [`BatchCrossbar`] slots — traffic
/// generation, VOQ bookkeeping and scheduling — not bare kernel calls.
pub const SCALING_SIZES: [usize; 4] = [16, 64, 256, 1024];

/// Schedulers traced in the scaling curve.
pub const SCALING_SCHEDULERS: [&str; 2] = ["pim4", "islip4"];

/// Offered loads of the scaling-curve runs (uniform traffic via the
/// skip-sampling generator). The original curve ran the single light
/// operating point 0.05 — the headline N=1024 point (~51 cells/slot),
/// where the batch engine holds ≥100k slots/sec. The sparse active-pair
/// scheduling path makes per-slot cost track traffic rather than N, so
/// the curve now also records moderate loads (0.25 and 0.5) where that
/// win is visible without saturating the fabric.
pub const SCALING_LOADS: [f64; 3] = [0.05, 0.25, 0.5];

/// The headline (lightest) scaling operating point. Rows at this load
/// keep their original `perf/scaling/<name>/n<n>` task-seed keys, so
/// their deterministic departure counts are comparable with reports
/// written before [`SCALING_LOADS`] existed.
pub const SCALING_LOAD: f64 = SCALING_LOADS[0];

/// Request densities measured (probability that a given input has a cell
/// queued for a given output — the workload of the paper's Table 1).
pub const LOADS: [f64; 3] = [0.5, 0.9, 1.0];

/// Scheduler configurations measured, by name: 4-iteration PIM (the
/// paper's hardware budget), run-to-completion PIM, 4-iteration iSLIP and
/// RRM, Hopcroft–Karp maximum matching as the upper-bound comparator, the
/// queue-aware MWM kernels (unit weights here — the kernel grid has no
/// queue state, so they measure the augmenting-path machinery itself) and
/// the SERENADE two-proposal merge.
pub const SCHEDULERS: [&str; 8] = [
    "pim4", "pim", "islip4", "rrm4", "maximum", "mwm-lqf", "mwm-ocf", "serenade",
];

/// Largest radix the MWM kernels run at in the grid. Exact max-weight
/// matching over a dense 256-port request matrix costs tens of seconds
/// per *slot* (successive Bellman–Ford augmentations are O(V·E) each), so
/// rows above this size would dominate the grid's wall clock while
/// measuring nothing the 64-port rows don't already show.
pub const MWM_MAX_SIZE: usize = 64;

/// How many distinct request matrices each case cycles through, so the
/// timed loop sees varied inputs without regenerating matrices per slot.
const POOL: usize = 32;

/// One measured (scheduler, N, load) cell.
#[derive(Clone, Debug)]
pub struct PerfCase {
    /// Scheduler name, one of [`SCHEDULERS`].
    pub scheduler: &'static str,
    /// Switch radix.
    pub n: usize,
    /// Request density.
    pub load: f64,
    /// Scheduling decisions timed.
    pub slots: u64,
    /// Total matched pairs across all timed slots.
    pub matches: u64,
    /// Wall-clock seconds for this case's timed loop.
    pub task_wall_sec: f64,
}

impl PerfCase {
    /// Scheduling decisions per second.
    pub fn slots_per_sec(&self) -> f64 {
        self.slots as f64 / self.task_wall_sec.max(1e-12)
    }

    /// Matched input–output pairs per second.
    pub fn matches_per_sec(&self) -> f64 {
        self.matches as f64 / self.task_wall_sec.max(1e-12)
    }
}

/// Full result of one `perf` run.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Effort level the run used.
    pub effort: Effort,
    /// Root seed for matrix pools and scheduler RNGs.
    pub seed: u64,
    /// Worker threads the run used.
    pub threads: usize,
    /// Wall-clock seconds for the whole case grid.
    pub total_wall_sec: f64,
    /// One entry per (scheduler, N, load): the `SCHEDULERS`×`SIZES`×`LOADS`
    /// narrow grid followed by the `WIDE_SCHEDULERS`×[`WIDE_SIZE`]×`LOADS`
    /// wide cases.
    pub cases: Vec<PerfCase>,
    /// Simulation-engine scaling curve,
    /// `SCALING_SCHEDULERS`×`SCALING_SIZES`×`SCALING_LOADS`.
    pub scaling: Vec<ScalingCase>,
    /// The thousand-switch sharded network scenario.
    pub network: NetCase,
}

/// Builds the named scheduler at bitset width `W` (4 words for the narrow
/// grid, 16 for the 1024-port cases and the engine scaling curve).
fn make_scheduler<const W: usize>(name: &str, n: usize, seed: u64) -> Box<dyn Scheduler<W>> {
    match name {
        "pim4" => Box::new(PimN::<Xoshiro256, W>::with_options(
            n,
            seed,
            IterationLimit::Fixed(4),
            AcceptPolicy::Random,
        )),
        "pim" => Box::new(PimN::<Xoshiro256, W>::with_options(
            n,
            seed,
            IterationLimit::ToCompletion,
            AcceptPolicy::Random,
        )),
        "islip4" => Box::new(RoundRobinMatchingN::<W>::islip(n, 4)),
        "rrm4" => Box::new(RoundRobinMatchingN::<W>::rrm(n, 4)),
        "maximum" => Box::new(MaximumMatchingN::<W>::new()),
        "mwm-lqf" => Box::new(MwmN::<W>::lqf(n)),
        "mwm-ocf" => Box::new(MwmN::<W>::ocf(n)),
        "serenade" => Box::new(SerenadeN::<W>::new(n, seed)),
        other => unreachable!("unknown scheduler {other}"),
    }
}

/// Slots to time for one case: a per-effort budget split across the
/// switch size, so large radices get proportionally fewer slots.
fn slots_for(effort: Effort, n: usize) -> u64 {
    (effort.scale(160_000, 1_600_000) / n as u64).max(100)
}

/// Timed window of a scaling-curve run. The kernel grid's `1/n` window
/// shrink (scheduler cost grows with `n`) is wrong for the full engine at
/// light load, whose per-slot work is O(arrivals) — a 1562-slot window at
/// N=1024 would be dominated by first-touch faults on the ~64 MB pair
/// table and cold caches. A floor keeps the measured region in steady
/// state at every size.
fn scaling_slots_for(effort: Effort, n: usize) -> u64 {
    slots_for(effort, n).max(effort.scale(1_000, 10_000))
}

/// Times one kernel case at bitset width `W`; narrow and wide cases land
/// in the same [`PerfCase`] rows.
fn run_case<const W: usize>(
    scheduler: &'static str,
    n: usize,
    load: f64,
    slots: u64,
    seed: u64,
) -> PerfCase {
    // Pool generation and scheduler construction stay outside the timed
    // region: the measurement is of `schedule()` itself.
    let mut pool_rng = Xoshiro256::seed_from(seed).split(0x9_0000);
    let pool: Vec<RequestMatrixN<W>> = (0..POOL)
        .map(|_| RequestMatrixN::random(n, load, &mut pool_rng))
        .collect();
    let mut sched = make_scheduler::<W>(scheduler, n, seed);
    let mut matches = 0u64;
    let started = Instant::now();
    for s in 0..slots {
        let m = sched.schedule(&pool[(s as usize) % POOL]);
        matches += m.len() as u64;
    }
    let task_wall_sec = started.elapsed().as_secs_f64();
    PerfCase {
        scheduler,
        n,
        load,
        slots,
        matches,
        task_wall_sec,
    }
}

/// One point of the simulation-engine scaling curve: a full
/// [`BatchCrossbar`] run (traffic generation, VOQ bookkeeping and
/// scheduling per slot) at one of the [`SCALING_LOADS`] uniform loads.
/// Every size runs the wide (16-word) width so the curve isolates the
/// N-dependence rather than mixing bitset widths.
#[derive(Clone, Debug)]
pub struct ScalingCase {
    /// Scheduler name, one of [`SCALING_SCHEDULERS`].
    pub name: &'static str,
    /// Switch radix.
    pub n: usize,
    /// Offered uniform load.
    pub load: f64,
    /// Simulated slots in the timed region.
    pub slots: u64,
    /// Cells departed during the timed region (seed-deterministic).
    pub departures: u64,
    /// Wall-clock seconds for the timed region.
    pub task_wall_sec: f64,
}

impl ScalingCase {
    /// Full simulated slots per second (not bare kernel calls).
    pub fn sim_slots_per_sec(&self) -> f64 {
        self.slots as f64 / self.task_wall_sec.max(1e-12)
    }
}

fn run_scaling_case(name: &'static str, n: usize, load: f64, slots: u64, seed: u64) -> ScalingCase {
    let mut engine: BatchCrossbar<_, 16> =
        BatchCrossbar::new(n, make_scheduler::<16>(name, n, seed));
    let mut traffic = SparseUniformTraffic::new(n, load, seed ^ 0x7261_6666);
    let mut buf = Vec::with_capacity(n);
    // Short warmup fills the queues to steady state; the timed region is
    // the measurement window.
    let warmup = (slots / 8).max(1);
    for slot in 0..warmup {
        buf.clear();
        traffic.arrivals(slot, &mut buf);
        engine.step_slot(&buf);
    }
    engine.start_measurement();
    let started = Instant::now();
    for slot in warmup..warmup + slots {
        buf.clear();
        traffic.arrivals(slot, &mut buf);
        engine.step_slot(&buf);
    }
    let task_wall_sec = started.elapsed().as_secs_f64();
    let report = engine.report();
    ScalingCase {
        name,
        n,
        load,
        slots,
        departures: report.departures,
        task_wall_sec,
    }
}

/// Result of the thousand-switch sharded network scenario (see
/// [`ShardNetConfig::thousand`]); the v3 schema records it so the
/// "interactive speed at network scale" claim is pinned in the benchmark
/// file.
#[derive(Clone, Debug)]
pub struct NetCase {
    /// Switches on the ring.
    pub switches: usize,
    /// Slots simulated.
    pub slots: u64,
    /// Cells injected by hosts (seed-deterministic).
    pub injected: u64,
    /// Cells delivered end-to-end (seed-deterministic).
    pub delivered: u64,
    /// Thread-count-independent run digest.
    pub digest: u64,
    /// Wall-clock seconds for the whole network run.
    pub task_wall_sec: f64,
}

fn run_net_case(effort: Effort, seed: u64, pool: &Pool) -> NetCase {
    let mut cfg = ShardNetConfig::thousand();
    cfg.seed = seed;
    cfg.slots = effort.scale(500, 10_000);
    let started = Instant::now();
    let report = run_shard_net(&cfg, pool);
    NetCase {
        switches: cfg.switches,
        slots: cfg.slots,
        injected: report.injected,
        delivered: report.delivered,
        digest: report.digest,
        task_wall_sec: started.elapsed().as_secs_f64(),
    }
}

/// Runs every (scheduler, N, load) case on the pool, then the scaling
/// curve and the network scenario. Counts (slots, matches, departures,
/// digest) are a pure function of the derived case seeds and therefore of
/// `seed` alone; only the timings vary between runs.
pub fn run(effort: Effort, seed: u64, pool: &Pool) -> PerfReport {
    let mut specs: Vec<(&'static str, usize, f64, u64, u64)> = Vec::new();
    for &scheduler in &SCHEDULERS {
        for &n in &SIZES {
            if scheduler.starts_with("mwm-") && n > MWM_MAX_SIZE {
                continue;
            }
            for &load in &LOADS {
                let case_seed = task_seed(seed, &format!("perf/{scheduler}/n{n}/load{load}"));
                specs.push((scheduler, n, load, slots_for(effort, n), case_seed));
            }
        }
    }
    for &scheduler in &WIDE_SCHEDULERS {
        for &load in &LOADS {
            let n = WIDE_SIZE;
            let case_seed = task_seed(seed, &format!("perf/{scheduler}/n{n}/load{load}"));
            specs.push((scheduler, n, load, slots_for(effort, n), case_seed));
        }
    }
    let started = Instant::now();
    let cases = pool.map(specs, |_, (scheduler, n, load, slots, case_seed)| {
        if n > 256 {
            run_case::<16>(scheduler, n, load, slots, case_seed)
        } else {
            run_case::<4>(scheduler, n, load, slots, case_seed)
        }
    });
    // Scaling and network runs go serially: their wall-clock numbers back
    // the engine's headline throughput claims, so they must not contend
    // with each other for cores.
    let mut scaling = Vec::new();
    for &name in &SCALING_SCHEDULERS {
        for &n in &SCALING_SIZES {
            for &load in &SCALING_LOADS {
                // The headline load keeps its pre-SCALING_LOADS task key so
                // its deterministic departure counts stay comparable with
                // older reports; the moderate-load rows get load-qualified
                // keys of their own.
                let key = if load == SCALING_LOAD {
                    format!("perf/scaling/{name}/n{n}")
                } else {
                    format!("perf/scaling/{name}/n{n}/load{load}")
                };
                let case_seed = task_seed(seed, &key);
                scaling.push(run_scaling_case(
                    name,
                    n,
                    load,
                    scaling_slots_for(effort, n),
                    case_seed,
                ));
            }
        }
    }
    let network = run_net_case(effort, task_seed(seed, "perf/net1000"), pool);
    PerfReport {
        effort,
        seed,
        threads: pool.threads(),
        total_wall_sec: started.elapsed().as_secs_f64(),
        cases,
        scaling,
        network,
    }
}

impl PerfReport {
    /// Human-readable table, one row per case.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# scheduler throughput ({} effort, seed {}, {} threads, {:.3}s total)",
            match self.effort {
                Effort::Quick => "quick",
                Effort::Full => "full",
            },
            self.seed,
            self.threads,
            self.total_wall_sec
        );
        let _ = writeln!(
            out,
            "{:<9} {:>4} {:>5} {:>8} {:>10} {:>14} {:>14}",
            "scheduler", "n", "load", "slots", "elapsed", "slots/sec", "matches/sec"
        );
        for c in &self.cases {
            let _ = writeln!(
                out,
                "{:<9} {:>4} {:>5.2} {:>8} {:>9.3}s {:>14.0} {:>14.0}",
                c.scheduler,
                c.n,
                c.load,
                c.slots,
                c.task_wall_sec,
                c.slots_per_sec(),
                c.matches_per_sec()
            );
        }
        let _ = writeln!(out, "# engine scaling (full simulated slots/sec vs N)");
        let _ = writeln!(
            out,
            "{:<9} {:>5} {:>5} {:>8} {:>10} {:>14}",
            "scheduler", "n", "load", "slots", "elapsed", "slots/sec"
        );
        for s in &self.scaling {
            let _ = writeln!(
                out,
                "{:<9} {:>5} {:>5.2} {:>8} {:>9.3}s {:>14.0}",
                s.name,
                s.n,
                s.load,
                s.slots,
                s.task_wall_sec,
                s.sim_slots_per_sec()
            );
        }
        let _ = writeln!(
            out,
            "# network: {} switches, {} slots in {:.3}s ({:.0} switch-slots/sec), \
             {} delivered, digest {:#018x}",
            self.network.switches,
            self.network.slots,
            self.network.task_wall_sec,
            self.network.switches as f64 * self.network.slots as f64
                / self.network.task_wall_sec.max(1e-12),
            self.network.delivered,
            self.network.digest
        );
        out
    }

    /// Serializes the report as the `BENCH_sched.json` document.
    ///
    /// Schema (`version` 3): the v2 layout — top-level `effort`, `seed`,
    /// `threads`, `total_wall_sec`, and `cases`, an array of objects with
    /// `scheduler`, `n`, `load`, `slots`, `matches`, `task_wall_sec`,
    /// `slots_per_sec`, and `matches_per_sec` — plus a `scaling` array
    /// (objects keyed by `name`, recording full simulated slots/sec per
    /// switch size) and a `network` object (the thousand-switch run).
    /// Case lines keep starting with `{"scheduler` and scaling lines start
    /// with `{"name`, so the v1/v2 line-oriented readers skip the new
    /// sections unchanged. (Version 1, kept in
    /// `results/BENCH_sched_pre.json` as the serial baseline, named the
    /// per-case timing `elapsed_sec` and had no `threads` or
    /// `total_wall_sec`; version 2 added those but had no `scaling` or
    /// `network`.)
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"version\": 3,");
        let _ = writeln!(
            out,
            "  \"effort\": \"{}\",",
            match self.effort {
                Effort::Quick => "quick",
                Effort::Full => "full",
            }
        );
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"total_wall_sec\": {:.6},", self.total_wall_sec);
        let _ = writeln!(out, "  \"cases\": [");
        for (idx, c) in self.cases.iter().enumerate() {
            let comma = if idx + 1 < self.cases.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"scheduler\": \"{}\", \"n\": {}, \"load\": {:?}, \
                 \"slots\": {}, \"matches\": {}, \"task_wall_sec\": {:.6}, \
                 \"slots_per_sec\": {:.1}, \"matches_per_sec\": {:.1}}}{comma}",
                c.scheduler,
                c.n,
                c.load,
                c.slots,
                c.matches,
                c.task_wall_sec,
                c.slots_per_sec(),
                c.matches_per_sec()
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"scaling\": [");
        for (idx, s) in self.scaling.iter().enumerate() {
            let comma = if idx + 1 < self.scaling.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"n\": {}, \"load\": {:?}, \"slots\": {}, \
                 \"departures\": {}, \"task_wall_sec\": {:.6}, \
                 \"sim_slots_per_sec\": {:.1}}}{comma}",
                s.name,
                s.n,
                s.load,
                s.slots,
                s.departures,
                s.task_wall_sec,
                s.sim_slots_per_sec()
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(
            out,
            "  \"network\": {{\"switches\": {}, \"slots\": {}, \"injected\": {}, \
             \"delivered\": {}, \"digest\": \"{:#018x}\", \"task_wall_sec\": {:.6}}}",
            self.network.switches,
            self.network.slots,
            self.network.injected,
            self.network.delivered,
            self.network.digest,
            self.network.task_wall_sec
        );
        let _ = writeln!(out, "}}");
        out
    }
}

/// One point parsed back out of a v3 `scaling` array.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedScaling {
    /// Scheduler name.
    pub name: String,
    /// Switch radix.
    pub n: usize,
    /// Offered uniform load.
    pub load: f64,
    /// Recorded full simulated slots per second.
    pub sim_slots_per_sec: f64,
}

/// Parses the `scaling` array of a saved v3 `BENCH_sched.json`. Returns
/// an empty vector for v1/v2 documents (no such section).
pub fn parse_scaling(json: &str) -> Result<Vec<ParsedScaling>, String> {
    let mut points = Vec::new();
    for line in json.lines() {
        let line = line.trim();
        if !line.starts_with("{\"name\"") {
            continue;
        }
        let get = |key: &str| {
            field(line, key).ok_or_else(|| format!("scaling line missing \"{key}\": {line}"))
        };
        points.push(ParsedScaling {
            name: get("name")?.to_string(),
            n: get("n")?
                .parse()
                .map_err(|e| format!("bad n in {line}: {e}"))?,
            load: get("load")?
                .parse()
                .map_err(|e| format!("bad load in {line}: {e}"))?,
            sim_slots_per_sec: rate(get("sim_slots_per_sec")?, "sim_slots_per_sec", line)?,
        });
    }
    Ok(points)
}

/// One case parsed back out of a saved `BENCH_sched.json` (v1 or v2).
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedCase {
    /// Scheduler name.
    pub scheduler: String,
    /// Switch radix.
    pub n: usize,
    /// Request density.
    pub load: f64,
    /// Recorded scheduling decisions per second.
    pub slots_per_sec: f64,
}

/// Pulls the raw text of `"key": <value>` out of one JSON object line
/// written by [`PerfReport::to_json`] (v1 or v2 — a line-oriented reader
/// for our own writer, not a general JSON parser).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Parses the raw text of a recorded rate, which must be a finite positive
/// number: a `NaN` compares false against any floor, so it would slip
/// through the `--fail-below` gate, and a zero or negative rate has no
/// meaningful speedup.
fn rate(raw: &str, key: &str, line: &str) -> Result<f64, String> {
    let value: f64 = raw
        .parse()
        .map_err(|e| format!("bad {key} in {line}: {e}"))?;
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(format!(
            "{key} must be a finite positive rate, got {raw} in {line}"
        ))
    }
}

/// Parses the `cases` array of a saved `BENCH_sched.json` document.
/// Accepts both the v1 and v2 schemas (the comparator only needs the case
/// keys and `slots_per_sec`, which both versions carry).
pub fn parse_cases(json: &str) -> Result<Vec<ParsedCase>, String> {
    let mut cases = Vec::new();
    for line in json.lines() {
        let line = line.trim();
        if !line.starts_with("{\"scheduler\"") {
            continue;
        }
        let get = |key: &str| {
            field(line, key).ok_or_else(|| format!("case line missing \"{key}\": {line}"))
        };
        cases.push(ParsedCase {
            scheduler: get("scheduler")?.to_string(),
            n: get("n")?
                .parse()
                .map_err(|e| format!("bad n in {line}: {e}"))?,
            load: get("load")?
                .parse()
                .map_err(|e| format!("bad load in {line}: {e}"))?,
            slots_per_sec: rate(get("slots_per_sec")?, "slots_per_sec", line)?,
        });
    }
    if cases.is_empty() {
        return Err("no cases found in report".to_string());
    }
    Ok(cases)
}

/// Compares two saved `BENCH_sched.json` documents and renders the
/// per-row speedup of `new` over `old`: the kernel `cases` (matched by
/// (scheduler, n, load)) and, when both reports carry one, the engine
/// `scaling` section (matched by (name, n, load)). Rows present in only
/// one report are skipped; a scaling section present in only one report
/// is noted and skipped, so new reports stay comparable against v1/v2
/// baselines and against pre-`SCALING_LOADS` v3 reports.
pub fn compare(old_json: &str, new_json: &str) -> Result<String, String> {
    compare_with_geomean(old_json, new_json).map(|(table, _)| table)
}

/// Like [`compare`], but also returns the geometric-mean speedup over
/// every matched row — kernel cases and scaling rows together — so
/// callers (the `--fail-below` CI gate) can act on the number.
pub fn compare_with_geomean(old_json: &str, new_json: &str) -> Result<(String, f64), String> {
    let old = parse_cases(old_json)?;
    let new = parse_cases(new_json)?;
    let old_scaling = parse_scaling(old_json)?;
    let new_scaling = parse_scaling(new_json)?;
    let mut out = String::new();
    let _ = writeln!(out, "# speedup per case (new slots/sec over old slots/sec)");
    let _ = writeln!(
        out,
        "{:<9} {:>4} {:>5} {:>14} {:>14} {:>9}",
        "scheduler", "n", "load", "old", "new", "speedup"
    );
    let mut ratios = Vec::new();
    for o in &old {
        let Some(n) = new
            .iter()
            .find(|c| c.scheduler == o.scheduler && c.n == o.n && c.load == o.load)
        else {
            continue;
        };
        let ratio = n.slots_per_sec / o.slots_per_sec.max(1e-12);
        ratios.push(ratio);
        let _ = writeln!(
            out,
            "{:<9} {:>4} {:>5.2} {:>14.0} {:>14.0} {:>8.2}x",
            o.scheduler, o.n, o.load, o.slots_per_sec, n.slots_per_sec, ratio
        );
    }
    let case_rows = ratios.len();
    if !old_scaling.is_empty() && !new_scaling.is_empty() {
        let _ = writeln!(
            out,
            "# scaling speedup (new sim slots/sec over old sim slots/sec)"
        );
        let _ = writeln!(
            out,
            "{:<9} {:>5} {:>5} {:>14} {:>14} {:>9}",
            "scheduler", "n", "load", "old", "new", "speedup"
        );
        for o in &old_scaling {
            let Some(n) = new_scaling
                .iter()
                .find(|s| s.name == o.name && s.n == o.n && s.load == o.load)
            else {
                continue;
            };
            let ratio = n.sim_slots_per_sec / o.sim_slots_per_sec.max(1e-12);
            ratios.push(ratio);
            let _ = writeln!(
                out,
                "{:<9} {:>5} {:>5.2} {:>14.0} {:>14.0} {:>8.2}x",
                o.name, o.n, o.load, o.sim_slots_per_sec, n.sim_slots_per_sec, ratio
            );
        }
    } else if old_scaling.is_empty() != new_scaling.is_empty() {
        let _ = writeln!(
            out,
            "# scaling section present in only one report; not compared"
        );
    }
    if ratios.is_empty() {
        return Err("no common cases between the two reports".to_string());
    }
    let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    let _ = writeln!(
        out,
        "geometric mean speedup over {} rows ({} cases, {} scaling): {geomean:.2}x",
        ratios.len(),
        case_rows,
        ratios.len() - case_rows
    );
    Ok((out, geomean))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_case_counts_slots_and_matches() {
        let c = run_case::<4>("pim4", 8, 1.0, 50, 7);
        assert_eq!(c.slots, 50);
        // Full load on an 8x8 switch: PIM matches most ports every slot.
        assert!(c.matches >= 50 * 6, "matches {}", c.matches);
        assert!(c.slots_per_sec() > 0.0);
        assert!(c.matches_per_sec() >= c.slots_per_sec());
    }

    #[test]
    fn every_named_scheduler_constructs() {
        for name in SCHEDULERS {
            let mut s = make_scheduler::<4>(name, 4, 1);
            let reqs = RequestMatrixN::from_fn(4, |i, j| i == j);
            let m = s.schedule(&reqs);
            assert!(m.respects(&reqs), "{name}");
        }
    }

    fn sample_report() -> PerfReport {
        PerfReport {
            effort: Effort::Quick,
            seed: 3,
            threads: 4,
            total_wall_sec: 1.25,
            cases: vec![PerfCase {
                scheduler: "pim4",
                n: 16,
                load: 1.0,
                slots: 10,
                matches: 150,
                task_wall_sec: 0.5,
            }],
            scaling: vec![ScalingCase {
                name: "pim4",
                n: 1024,
                load: 0.25,
                slots: 200,
                departures: 5000,
                task_wall_sec: 0.001,
            }],
            network: NetCase {
                switches: 1000,
                slots: 2000,
                injected: 400_000,
                delivered: 399_000,
                digest: 0x1234,
                task_wall_sec: 2.5,
            },
        }
    }

    #[test]
    fn json_schema_is_stable() {
        let report = sample_report();
        let json = report.to_json();
        assert!(json.contains("\"version\": 3"), "{json}");
        assert!(json.contains("\"threads\": 4"), "{json}");
        assert!(json.contains("\"total_wall_sec\": 1.250000"), "{json}");
        assert!(json.contains("\"load\": 1.0"), "{json}");
        assert!(json.contains("\"task_wall_sec\": 0.500000"), "{json}");
        assert!(json.contains("\"slots_per_sec\": 20.0"), "{json}");
        assert!(json.contains("\"matches_per_sec\": 300.0"), "{json}");
        assert!(json.contains("\"sim_slots_per_sec\": 200000.0"), "{json}");
        assert!(json.contains("\"network\": {\"switches\": 1000"), "{json}");
        // Old readers key on the line prefix: cases keep `{"scheduler`,
        // scaling must NOT collide with it.
        for line in json.lines() {
            let line = line.trim();
            if line.contains("\"sim_slots_per_sec\"") {
                assert!(line.starts_with("{\"name\""), "{line}");
                assert!(!line.starts_with("{\"scheduler\""), "{line}");
            }
        }
        // Hand-rolled JSON: balanced braces/brackets, no trailing comma.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n  ]"), "{json}");
        let rendered = report.render();
        assert!(rendered.contains("pim4"), "{rendered}");
        assert!(rendered.contains("4 threads"), "{rendered}");
        assert!(rendered.contains("engine scaling"), "{rendered}");
        assert!(rendered.contains("1000 switches"), "{rendered}");
    }

    #[test]
    fn scaling_section_round_trips_and_is_invisible_to_v2_readers() {
        let json = sample_report().to_json();
        let scaling = parse_scaling(&json).expect("own scaling parses");
        assert_eq!(
            scaling,
            vec![ParsedScaling {
                name: "pim4".to_string(),
                n: 1024,
                load: 0.25,
                sim_slots_per_sec: 200000.0,
            }]
        );
        // The v1/v2 case reader sees exactly the cases, not the new rows.
        let cases = parse_cases(&json).expect("cases parse");
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].scheduler, "pim4");
        assert_eq!(cases[0].n, 16);
        // v1 documents simply have no scaling section.
        assert_eq!(parse_scaling("{}").expect("empty ok"), vec![]);
    }

    #[test]
    fn wide_case_runs_the_wide_kernels() {
        for name in WIDE_SCHEDULERS {
            let c = run_case::<16>(name, 300, 0.5, 20, 9);
            assert_eq!(c.slots, 20);
            assert!(c.matches > 0, "{name}");
        }
    }

    #[test]
    fn scaling_case_counts_are_seed_deterministic() {
        let a = run_scaling_case("pim4", 32, 0.25, 100, 5);
        let b = run_scaling_case("pim4", 32, 0.25, 100, 5);
        assert_eq!(a.departures, b.departures);
        assert!(a.departures > 0);
        assert_eq!(a.load, 0.25);
        // Heavier offered load carries more cells through the same window.
        let light = run_scaling_case("pim4", 32, SCALING_LOAD, 100, 5);
        assert!(light.departures < a.departures);
    }

    #[test]
    fn parse_round_trips_own_output() {
        let json = sample_report().to_json();
        let cases = parse_cases(&json).expect("own output parses");
        assert_eq!(
            cases,
            vec![ParsedCase {
                scheduler: "pim4".to_string(),
                n: 16,
                load: 1.0,
                slots_per_sec: 20.0,
            }]
        );
    }

    #[test]
    fn parse_accepts_the_v1_schema() {
        // A case line exactly as PR 1's writer emitted it (elapsed_sec,
        // no threads/total_wall_sec) — the serial baseline file keeps this
        // shape forever, so the comparator must keep reading it.
        let v1 =
            "{\n  \"version\": 1,\n  \"effort\": \"full\",\n  \"seed\": 1,\n  \"cases\": [\n    \
                  {\"scheduler\": \"maximum\", \"n\": 256, \"load\": 1.0, \"slots\": 625, \
                  \"matches\": 160000, \"elapsed_sec\": 0.171988, \"slots_per_sec\": 3634.0, \
                  \"matches_per_sec\": 930297.7}\n  ]\n}\n";
        let cases = parse_cases(v1).expect("v1 parses");
        assert_eq!(cases[0].scheduler, "maximum");
        assert_eq!(cases[0].n, 256);
        assert_eq!(cases[0].slots_per_sec, 3634.0);
    }

    #[test]
    fn parsers_reject_non_finite_and_non_positive_rates() {
        let json = sample_report().to_json();
        for bad in ["NaN", "inf", "-inf", "0.0", "-20.0"] {
            let cases = json.replace(
                "\"slots_per_sec\": 20.0",
                &format!("\"slots_per_sec\": {bad}"),
            );
            let err = parse_cases(&cases).expect_err(bad);
            assert!(err.contains("finite positive"), "{bad}: {err}");
            let scaling = json.replace(
                "\"sim_slots_per_sec\": 200000.0",
                &format!("\"sim_slots_per_sec\": {bad}"),
            );
            let err = parse_scaling(&scaling).expect_err(bad);
            assert!(err.contains("finite positive"), "{bad}: {err}");
            // The comparator refuses the report instead of gating on NaN.
            assert!(compare_with_geomean(&json, &cases).is_err(), "{bad}");
            assert!(compare_with_geomean(&json, &scaling).is_err(), "{bad}");
        }
    }

    #[test]
    fn compare_reports_speedup_per_case() {
        let old = sample_report();
        let mut new = sample_report();
        new.cases[0].task_wall_sec = 0.25; // 2x faster
        let table = compare(&old.to_json(), &new.to_json()).expect("comparable");
        assert!(table.contains("2.00x"), "{table}");
        assert!(table.contains("geometric mean"), "{table}");
        // Fully disjoint reports are an error, not an empty table.
        let mut other = sample_report();
        other.cases[0].scheduler = "islip4";
        other.scaling[0].name = "islip4";
        assert!(compare(&old.to_json(), &other.to_json()).is_err());
        assert!(parse_cases("{}").is_err());
    }

    #[test]
    fn compare_diffs_the_scaling_section() {
        let old = sample_report();
        let mut new = sample_report();
        new.scaling[0].task_wall_sec = old.scaling[0].task_wall_sec / 4.0; // 4x faster
        let (table, geomean) =
            compare_with_geomean(&old.to_json(), &new.to_json()).expect("comparable");
        assert!(table.contains("scaling speedup"), "{table}");
        assert!(table.contains("4.00x"), "{table}");
        assert!(table.contains("(1 cases, 1 scaling)"), "{table}");
        // Geomean spans both sections: sqrt(1.0 * 4.0) = 2.0.
        assert!((geomean - 2.0).abs() < 1e-9, "geomean {geomean}");
        // Scaling rows are matched by load too: a load shift drops the row
        // instead of comparing unlike operating points.
        let mut shifted = sample_report();
        shifted.scaling[0].load = 0.5;
        let (table, geomean) =
            compare_with_geomean(&old.to_json(), &shifted.to_json()).expect("comparable");
        assert!(!table.contains("scaling speedup") || !table.contains("0.50"), "{table}");
        assert!((geomean - 1.0).abs() < 1e-9, "geomean {geomean}");
    }

    #[test]
    fn compare_degrades_gracefully_without_a_scaling_section() {
        // A v1 baseline has no scaling section: the comparator must still
        // diff the cases and say the scaling section was skipped.
        let v1 =
            "{\n  \"version\": 1,\n  \"cases\": [\n    {\"scheduler\": \"pim4\", \"n\": 16, \
             \"load\": 1.0, \"slots\": 10, \"matches\": 150, \"elapsed_sec\": 0.5, \
             \"slots_per_sec\": 20.0, \"matches_per_sec\": 300.0}\n  ]\n}\n";
        let new = sample_report();
        let (table, geomean) = compare_with_geomean(v1, &new.to_json()).expect("comparable");
        assert!(table.contains("present in only one report"), "{table}");
        assert!((geomean - 1.0).abs() < 1e-9, "geomean {geomean}");
    }

    #[test]
    fn slot_budget_scales_down_with_n() {
        assert!(slots_for(Effort::Quick, 16) > slots_for(Effort::Quick, 256));
        assert!(slots_for(Effort::Full, 256) >= 100);
    }

    #[test]
    fn run_produces_the_full_grid() {
        let pool = Pool::new(2);
        let r = run(Effort::Quick, 5, &pool);
        // The exact-MWM rows stop at MWM_MAX_SIZE, so each mwm-* scheduler
        // skips the sizes above it.
        let mwm_skipped = SCHEDULERS
            .iter()
            .filter(|s| s.starts_with("mwm-"))
            .count()
            * SIZES.iter().filter(|&&n| n > MWM_MAX_SIZE).count();
        assert_eq!(
            r.cases.len(),
            (SCHEDULERS.len() * SIZES.len() - mwm_skipped + WIDE_SCHEDULERS.len())
                * LOADS.len()
        );
        assert_eq!(
            r.scaling.len(),
            SCALING_SCHEDULERS.len() * SCALING_SIZES.len() * SCALING_LOADS.len()
        );
        assert_eq!(r.threads, 2);
        assert!(r.total_wall_sec > 0.0);
        assert!(r.network.injected >= r.network.delivered);
        // Counts are derived-seed-deterministic: a rerun at a different
        // thread count matches (slots, matches) exactly — including the
        // network digest, which the CI smoke diffs across thread counts.
        let r1 = run(Effort::Quick, 5, &Pool::serial());
        for (a, b) in r.cases.iter().zip(&r1.cases) {
            assert_eq!(
                (a.scheduler, a.n, a.slots, a.matches),
                (b.scheduler, b.n, b.slots, b.matches)
            );
        }
        for (a, b) in r.scaling.iter().zip(&r1.scaling) {
            assert_eq!(
                (a.name, a.n, a.load.to_bits(), a.departures),
                (b.name, b.n, b.load.to_bits(), b.departures)
            );
        }
        assert_eq!(r.network.digest, r1.network.digest);
    }
}
