//! The four workloads and one measured round of each.
//!
//! A round builds its engine and traffic from `task_seed(seed, name)`,
//! simulates an untimed warmup of 1/8 of the window, then times the
//! window in 1000-slot chunks (one 1000-slot call for the ring). All
//! workloads are open loop: arrivals follow the seeded generator whatever
//! the backlog. Every chunk ends with a conservation audit, and the
//! round's simulated results fold into a digest that must repeat exactly
//! in every round of the same seed, traced or not.

use crate::json::Json;
use crate::stats::{median, tail_mean};
use crate::trace::{timed, timer_ns, total_ns, SchedTrace, Timed};
use an2_net::shard::{run_shard_net, ShardNetConfig, ShardReport};
use an2_sched::{Pim, Scheduler, WidePim};
use an2_sim::batch::BatchCrossbar;
use an2_sim::metrics::{QuantileSketch, SwitchReport};
use an2_sim::switch::CrossbarSwitch;
use an2_sim::traffic::{BurstyTraffic, RateMatrixTraffic, SparseUniformTraffic, Traffic};
use an2_sim::SwitchModel;
use an2_task::{fnv1a, task_seed, Pool};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Slots per timed chunk of the switch workloads.
pub const CHUNK_SLOTS: u64 = 1000;

/// Worker threads of the ring workload's pool: the host's 2 vCPUs.
const RING_THREADS: usize = 2;

/// Items `run_shard_net` hands its pool every slot (its fixed switch
/// chunking), so a `Pool::map` over this many no-op items is the ring's
/// per-slot dispatch cost.
const RING_MAP_ITEMS: usize = 64;

/// Builds per round: at least this many, until [`SETUP_BUDGET`] has passed.
const MIN_SETUPS: usize = 5;
/// Builds per round at most (µs-scale builds reach this first).
const MAX_SETUPS: usize = 2000;
/// Host time after which a round stops repeating its build.
const SETUP_BUDGET: Duration = Duration::from_millis(100);

/// Mean backlog over the window's last quarter may exceed its first
/// quarter's by at most this factor (of at least one cell).
const BACKLOG_GROWTH: f64 = 1.5;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `BatchCrossbar<WidePim, 16>`, N=1024, sparse uniform load 0.05.
    Wide1024Light,
    /// `BatchCrossbar<Pim, 4>`, N=64, bursty load 0.8, mean burst 32.
    Bursty64Deep,
    /// `CrossbarSwitch<Pim>`, N=16, the Figure 4 client–server load 0.9.
    Paper16ClientServer,
    /// `run_shard_net` on the thousand-switch ring, 2 threads.
    Ring1000,
}

/// How long a round runs: the benchmark's full window, or a smoke-sized
/// one for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured window the benchmark reports.
    Full,
    /// A short window that still exercises every code path.
    #[cfg(test)]
    Smoke,
}

impl Workload {
    /// Every workload, in the order rounds interleave them.
    pub const ALL: [Workload; 4] = [
        Workload::Wide1024Light,
        Workload::Bursty64Deep,
        Workload::Paper16ClientServer,
        Workload::Ring1000,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Wide1024Light => "wide1024_light",
            Workload::Bursty64Deep => "bursty64_deep",
            Workload::Paper16ClientServer => "paper16_clientserver",
            Workload::Ring1000 => "ring1000",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Nominal wall seconds of one full untraced round, child process
    /// included, on the 2-vCPU Xeon guest of the README's measurements
    /// (rounded up). `--seconds` plans its rounds from these constants,
    /// not from the clock, so faster and slower builds of the code
    /// measure the same number of rounds.
    pub fn round_s(self) -> f64 {
        match self {
            Workload::Wide1024Light => 2.5,
            Workload::Bursty64Deep => 2.6,
            Workload::Paper16ClientServer => 2.4,
            Workload::Ring1000 => 2.8,
        }
    }

    /// Measured slots per round; for the ring, 1000-slot calls per round.
    fn window(self, size: Size) -> u64 {
        match (self, size) {
            (Workload::Wide1024Light, Size::Full) => 350_000,
            (Workload::Bursty64Deep, Size::Full) => 500_000,
            (Workload::Paper16ClientServer, Size::Full) => 1_600_000,
            (Workload::Ring1000, Size::Full) => 8,
            #[cfg(test)]
            (Workload::Ring1000, Size::Smoke) => 2,
            #[cfg(test)]
            (_, Size::Smoke) => 16_000,
        }
    }
}

/// Slots per ring call.
fn ring_slots(size: Size) -> u64 {
    match size {
        Size::Full => 1000,
        #[cfg(test)]
        Size::Smoke => 100,
    }
}

/// Everything one round measured, passed from the child process that ran
/// it to the parent as one JSON line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Round {
    /// Host seconds of each engine + traffic build.
    pub setup_s: Vec<f64>,
    /// Host ns of each timed chunk.
    pub chunk_ns: Vec<f64>,
    /// Switch-slots simulated per chunk (×1000 switches on the ring).
    pub chunk_slots: f64,
    /// Simulated departures (ring: deliveries) per measured slot.
    pub cells_per_slot: f64,
    /// Simulated mean cell delay, slots.
    pub mean_delay: f64,
    /// Simulated mean delay of the slowest 1% of cells, slots.
    pub tail_delay: f64,
    /// Digest of the simulated results; identical in every round of a seed.
    pub digest: u64,
    /// The process's peak resident set (`VmHWM`), MB.
    pub peak_rss_mb: f64,
    /// Correctness checks made.
    pub checks: u64,
    /// The checks that failed, described.
    pub failures: Vec<String>,
    /// Per-layer metric values; filled by a traced round only.
    pub layers: Vec<(String, f64)>,
}

impl Round {
    /// Counts one correctness check and keeps its failure, if any.
    pub fn check(&mut self, result: Result<(), String>) {
        self.checks += 1;
        if let Err(e) = result {
            self.failures.push(e);
        }
    }

    fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_string(), value));
    }

    /// Host ns per simulated switch-slot, median over the chunks.
    pub fn ns_per_slot(&self) -> f64 {
        median(&self.chunk_ns) / self.chunk_slots
    }

    /// The round as one JSON object (the child-to-parent line).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("setup_s", Json::nums(&self.setup_s)),
            ("chunk_ns", Json::nums(&self.chunk_ns)),
            ("chunk_slots", Json::Num(self.chunk_slots)),
            ("cells_per_slot", Json::Num(self.cells_per_slot)),
            ("mean_delay", Json::Num(self.mean_delay)),
            ("tail_delay", Json::Num(self.tail_delay)),
            ("digest", Json::Str(format!("{:016x}", self.digest))),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("checks", Json::Num(self.checks as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "layers",
                Json::obj(self.layers.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
            ),
        ])
    }

    /// Reads back a [`Round::to_json`] object.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped member.
    pub fn from_json(j: &Json) -> Result<Round, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("round: missing number {k}"))
        };
        let nums = |k: &str| -> Result<Vec<f64>, String> {
            j.get(k)
                .and_then(Json::as_arr)
                .and_then(|v| v.iter().map(Json::as_f64).collect())
                .ok_or_else(|| format!("round: missing number array {k}"))
        };
        let digest = j
            .get("digest")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("round: missing digest")?;
        let failures = j
            .get("failures")
            .and_then(Json::as_arr)
            .and_then(|v| v.iter().map(|f| f.as_str().map(String::from)).collect())
            .ok_or("round: missing failures")?;
        let layers = j
            .get("layers")
            .and_then(Json::as_obj)
            .and_then(|v| {
                v.iter()
                    .map(|(k, x)| Some((k.clone(), x.as_f64()?)))
                    .collect()
            })
            .ok_or("round: missing layers")?;
        Ok(Round {
            setup_s: nums("setup_s")?,
            chunk_ns: nums("chunk_ns")?,
            chunk_slots: num("chunk_slots")?,
            cells_per_slot: num("cells_per_slot")?,
            mean_delay: num("mean_delay")?,
            tail_delay: num("tail_delay")?,
            digest,
            peak_rss_mb: num("peak_rss_mb")?,
            checks: num("checks")? as u64,
            failures,
            layers,
        })
    }
}

/// Runs one round of `workload` in this process.
pub fn run_round(workload: Workload, seed: u64, size: Size, traced: bool) -> Round {
    if traced {
        round::<true>(workload, seed, size)
    } else {
        round::<false>(workload, seed, size)
    }
}

fn round<const ON: bool>(workload: Workload, seed: u64, size: Size) -> Round {
    let seed = task_seed(seed, workload.name());
    let (s, t) = (task_seed(seed, "sched"), task_seed(seed, "traffic"));
    let trace = Rc::new(RefCell::new(SchedTrace::default()));
    let slots = workload.window(size);
    let mut round = match workload {
        Workload::Wide1024Light => switch_round::<_, _, ON>(
            || {
                (
                    BatchCrossbar::<_, 16>::new(
                        1024,
                        Timed::<_, ON>::new(WidePim::new(1024, s), &trace),
                    ),
                    SparseUniformTraffic::new(1024, 0.05, t),
                )
            },
            slots,
            &trace,
        ),
        Workload::Bursty64Deep => switch_round::<_, _, ON>(
            || {
                (
                    BatchCrossbar::<_, 4>::new(64, Timed::<_, ON>::new(Pim::new(64, s), &trace)),
                    BurstyTraffic::new(64, 0.8, 32.0, t),
                )
            },
            slots,
            &trace,
        ),
        Workload::Paper16ClientServer => switch_round::<_, _, ON>(
            || {
                (
                    CrossbarSwitch::with_ports(16, Timed::<_, ON>::new(Pim::new(16, s), &trace)),
                    RateMatrixTraffic::client_server(16, 4, 0.9, 0.05, t),
                )
            },
            slots,
            &trace,
        ),
        Workload::Ring1000 => ring_round::<ON>(seed, slots, ring_slots(size)),
    };
    if ON {
        round.layer("trace.timer_ns", timer_ns());
    }
    round.peak_rss_mb = peak_rss_mb();
    round
}

/// Builds the round's engine and traffic repeatedly, timing each build,
/// and keeps the last: the median of several builds is steadier than one,
/// and the first build in a fresh process also pays its allocator set-up.
fn setup<X>(round: &mut Round, build: impl Fn() -> X) -> X {
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let x = build();
        round.setup_s.push(t.elapsed().as_secs_f64());
        let n = round.setup_s.len();
        if n >= MAX_SETUPS || (n >= MIN_SETUPS && started.elapsed() >= SETUP_BUDGET) {
            return x;
        }
    }
}

/// The single-switch engines the workloads drive.
trait Engine: SwitchModel {
    /// Name of the layer this engine's own per-slot work is reported as.
    const LAYER: &'static str;

    /// The engine's conservation ledger, cheap enough to audit every chunk.
    fn audit(&self, queued_at_window_start: usize) -> Result<(), String>;

    /// Input–output pairs with at least one queued cell.
    fn active_pairs(&self) -> usize;
}

impl<S: Scheduler<W>, const W: usize> Engine for BatchCrossbar<S, W> {
    const LAYER: &'static str = "batch";

    fn audit(&self, _: usize) -> Result<(), String> {
        self.verify_conservation()
    }

    fn active_pairs(&self) -> usize {
        BatchCrossbar::active_pairs(self)
    }
}

impl<S: Scheduler> Engine for CrossbarSwitch<S> {
    const LAYER: &'static str = "switch";

    fn audit(&self, queued_at_window_start: usize) -> Result<(), String> {
        let r = self.report();
        let grew = self.queued() as i128 - queued_at_window_start as i128;
        if i128::from(r.arrivals) - i128::from(r.departures) == grew {
            Ok(())
        } else {
            Err(format!(
                "scalar ledger: {} arrivals - {} departures != {grew} queued cells gained",
                r.arrivals, r.departures
            ))
        }
    }

    fn active_pairs(&self) -> usize {
        self.buffers().requests().len()
    }
}

/// Per-chunk samples and per-slot spans of one measured window.
#[derive(Default)]
struct Window {
    queued: Vec<f64>,
    active_pairs: Vec<f64>,
    traffic: QuantileSketch,
    step: QuantileSketch,
    arrivals: u64,
}

/// Simulates the warmup, then the timed window chunk by chunk, auditing
/// the engine after every chunk. With `ON`, each slot's traffic and
/// engine calls are spans too.
fn drive<E: Engine, T: Traffic, const ON: bool>(
    engine: &mut E,
    traffic: &mut T,
    slots: u64,
    sched: &RefCell<SchedTrace>,
    round: &mut Round,
) -> Window {
    let mut buf = Vec::with_capacity(engine.n());
    let warmup = slots / 8;
    for slot in 0..warmup {
        buf.clear();
        traffic.arrivals(slot, &mut buf);
        engine.step(&buf);
    }
    engine.start_measurement();
    *sched.borrow_mut() = SchedTrace::default();
    let queued_at_start = engine.queued();
    let mut w = Window::default();
    for chunk in (warmup..warmup + slots).step_by(CHUNK_SLOTS as usize) {
        let start = Instant::now();
        for slot in chunk..chunk + CHUNK_SLOTS {
            buf.clear();
            if ON {
                timed(&mut w.traffic, || traffic.arrivals(slot, &mut buf));
                w.arrivals += buf.len() as u64;
                timed(&mut w.step, || engine.step(&buf));
            } else {
                traffic.arrivals(slot, &mut buf);
                engine.step(&buf);
            }
        }
        round.chunk_ns.push(start.elapsed().as_nanos() as f64);
        w.queued.push(engine.queued() as f64);
        w.active_pairs.push(engine.active_pairs() as f64);
        round.check(engine.audit(queued_at_start));
    }
    round.check(backlog_is_stable(&w.queued));
    w
}

/// Open-loop stability: the backlog must not keep growing through the
/// window.
fn backlog_is_stable(queued: &[f64]) -> Result<(), String> {
    let q = queued.len() / 4;
    if q == 0 {
        return Ok(());
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let (first, last) = (mean(&queued[..q]), mean(&queued[queued.len() - q..]));
    if last <= BACKLOG_GROWTH * first.max(1.0) {
        Ok(())
    } else {
        Err(format!(
            "backlog grew from {first:.1} to {last:.1} queued cells over the window"
        ))
    }
}

/// FNV-1a digest over every simulated quantity of a switch report,
/// folded word by word: at N=1024 the per-flow list has ~10^6 entries,
/// and a materialized byte buffer would show up in the peak RSS metric.
fn report_digest(r: &SwitchReport) -> u64 {
    let head = [
        r.slots,
        r.arrivals,
        r.departures,
        r.peak_occupancy as u64,
        r.final_occupancy as u64,
        r.delay.count(),
        r.delay.max(),
        r.delay.mean().to_bits(),
    ];
    let percentiles = [0.5, 0.9, 0.99, 0.999].map(|p| r.delay.percentile(p));
    let flows = r.departures_per_flow.iter().flat_map(|&(f, c)| [f, c]);
    head.into_iter()
        .chain(percentiles)
        .chain(r.departures_per_output.iter().copied())
        .chain(flows)
        .flat_map(u64::to_le_bytes)
        // `fnv1a(&[])` is the FNV offset basis; each step is fnv1a's.
        .fold(fnv1a(&[]), |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn switch_round<E: Engine, T: Traffic, const ON: bool>(
    build: impl Fn() -> (E, T),
    slots: u64,
    sched: &RefCell<SchedTrace>,
) -> Round {
    let mut round = Round::default();
    let (mut engine, mut traffic) = setup(&mut round, build);
    let w = drive::<E, T, ON>(&mut engine, &mut traffic, slots, sched, &mut round);
    let report = engine.report();
    let n = slots as f64;
    round.chunk_slots = CHUNK_SLOTS as f64;
    round.cells_per_slot = report.departures as f64 / n;
    round.mean_delay = report.delay.mean();
    round.tail_delay = tail_mean(|p| report.delay.percentile(p));
    round.digest = report_digest(&report);
    if ON {
        let s = sched.borrow();
        let sched_ns = total_ns(&s.calls);
        let calls = s.calls.count().max(1) as f64;
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let engine_ns = total_ns(&w.step) - sched_ns;
        let chunks_ns: f64 = round.chunk_ns.iter().sum();
        round.layer("traffic.ns_per_slot", total_ns(&w.traffic) / n);
        round.layer("traffic.arrivals_per_slot", w.arrivals as f64 / n);
        round.layer(&format!("{}.ns_per_slot", E::LAYER), engine_ns / n);
        round.layer(&format!("{}.queued_mean", E::LAYER), mean(&w.queued));
        if E::LAYER == "batch" {
            round.layer("batch.ns_per_cell", engine_ns / w.arrivals.max(1) as f64);
            round.layer("batch.active_pairs_mean", mean(&w.active_pairs));
        }
        round.layer("sched.ns_per_call", sched_ns / calls);
        round.layer("sched.ns_p99", s.calls.quantile(0.99) as f64);
        round.layer("sched.calls_per_slot", s.calls.count() as f64 / n);
        round.layer("sched.matches_per_call", s.matched as f64 / calls);
        round.layer(
            "sched.matched_per_backlogged_input",
            s.matched as f64 / s.backlogged.max(1) as f64,
        );
        round.layer("sched.budget_miss_share", s.over_budget as f64 / calls);
        round.layer(
            "harness.ns_per_slot",
            (chunks_ns - total_ns(&w.traffic) - total_ns(&w.step)) / n,
        );
    }
    round
}

fn conserved(r: &ShardReport) -> Result<(), String> {
    if r.is_conserved() {
        Ok(())
    } else {
        Err(format!(
            "ring ledger: {} injected != {} delivered + {} in flight",
            r.injected, r.delivered, r.in_flight
        ))
    }
}

fn ring_round<const ON: bool>(seed: u64, calls: u64, slots: u64) -> Round {
    let mut round = Round::default();
    let pool = Pool::new(RING_THREADS);
    let cfg = |key: &str, slots: u64| ShardNetConfig {
        seed: task_seed(seed, key),
        slots,
        ..ShardNetConfig::thousand()
    };
    let setup_cfg = cfg("setup", 1);
    setup(&mut round, || run_shard_net(&setup_cfg, &pool));
    // Warmup: one untimed call as long as 1/8 of the window's calls.
    run_shard_net(&cfg("warmup", calls * slots / 8), &pool);
    let mut shard = QuantileSketch::new();
    let mut reports = Vec::new();
    for c in 0..calls {
        let call = cfg(&format!("call{c}"), slots);
        let start = Instant::now();
        let r = if ON {
            timed(&mut shard, || run_shard_net(&call, &pool))
        } else {
            run_shard_net(&call, &pool)
        };
        round.chunk_ns.push(start.elapsed().as_nanos() as f64);
        round.check(conserved(&r));
        reports.push(r);
    }
    // The same first call on one thread must reproduce it exactly.
    let start = Instant::now();
    let serial = run_shard_net(&cfg("call0", slots), &Pool::serial());
    let serial_ns = start.elapsed().as_nanos() as f64;
    round.check(if serial.to_string() == reports[0].to_string() {
        Ok(())
    } else {
        Err(format!(
            "ring: serial run {serial} differs from 2-thread run {}",
            reports[0]
        ))
    });

    let switch_slots = (ShardNetConfig::thousand().switches as u64 * slots) as f64;
    let delivered: u64 = reports.iter().map(|r| r.delivered).sum();
    let mut delay = QuantileSketch::new();
    for r in &reports {
        delay.merge(&r.delay);
    }
    round.chunk_slots = switch_slots;
    round.cells_per_slot = delivered as f64 / (calls * slots) as f64;
    round.mean_delay = reports
        .iter()
        .map(|r| r.mean_delay * r.delivered as f64)
        .sum::<f64>()
        / delivered.max(1) as f64;
    round.tail_delay = tail_mean(|p| delay.quantile(p));
    let text: String = reports.iter().map(ToString::to_string).collect();
    round.digest = fnv1a(text.as_bytes());
    if ON {
        let maps: Vec<f64> = (0..200)
            .map(|_| {
                let start = Instant::now();
                pool.map((0..RING_MAP_ITEMS).collect(), |_, x| x);
                start.elapsed().as_nanos() as f64
            })
            .collect();
        let map_ns = median(&maps);
        let parallel_ns = total_ns(&shard) / calls as f64;
        let chunks_ns: f64 = round.chunk_ns.iter().sum();
        round.layer("shard.ns_per_switch_slot", parallel_ns / switch_slots);
        round.layer("shard.serial_ns_per_switch_slot", serial_ns / switch_slots);
        round.layer("task.map_ns", map_ns);
        round.layer("task.dispatch_share", map_ns * slots as f64 / parallel_ns);
        round.layer("task.parallel_speedup", serial_ns / parallel_ns);
        round.layer(
            "harness.ns_per_slot",
            (chunks_ns - total_ns(&shard)) / (switch_slots * calls as f64),
        );
    }
    round
}

/// The process's peak resident set in MB, from `VmHWM` in
/// `/proc/self/status`; 0 where that file does not exist.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn windows_are_whole_chunks() {
        for w in Workload::ALL {
            for size in [Size::Full, Size::Smoke] {
                if w != Workload::Ring1000 {
                    assert_eq!(w.window(size) % CHUNK_SLOTS, 0, "{w:?} {size:?}");
                }
            }
        }
    }

    #[test]
    fn traced_rounds_decide_exactly_as_untraced_ones() {
        // The Timed adapter and the per-slot spans must not change a
        // single decision: same digest, same simulated metrics.
        for w in [
            Workload::Wide1024Light,
            Workload::Bursty64Deep,
            Workload::Paper16ClientServer,
        ] {
            let plain = run_round(w, 3, Size::Smoke, false);
            let traced = run_round(w, 3, Size::Smoke, true);
            assert_eq!(plain.digest, traced.digest, "{w:?}");
            assert_eq!(plain.mean_delay, traced.mean_delay, "{w:?}");
            assert_eq!(plain.cells_per_slot, traced.cells_per_slot, "{w:?}");
            assert!(plain.layers.is_empty() && !traced.layers.is_empty());
        }
    }

    #[test]
    fn seeds_change_the_inputs() {
        let a = run_round(Workload::Paper16ClientServer, 1, Size::Smoke, false);
        let b = run_round(Workload::Paper16ClientServer, 2, Size::Smoke, false);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn round_json_round_trips() {
        let r = run_round(Workload::Ring1000, 5, Size::Smoke, true);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        let back = Round::from_json(&Json::parse(&r.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn backlog_check_flags_only_growth() {
        assert!(backlog_is_stable(&[10.0, 12.0, 9.0, 11.0, 10.0, 13.0, 9.0, 12.0]).is_ok());
        assert!(backlog_is_stable(&[1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 9.0]).is_err());
        // Near-empty queues may wobble by a cell.
        assert!(backlog_is_stable(&[0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0]).is_ok());
    }

    #[test]
    fn ledger_audits_catch_imbalance() {
        let sw = CrossbarSwitch::with_ports(4, Pim::new(4, 1));
        assert!(sw.audit(0).is_ok());
        assert!(sw.audit(3).is_err());
    }
}
