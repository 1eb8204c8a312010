//! One table-driven test for every engine's declared contract.
//!
//! Each row of [`rows`] is one engine with its [`EngineContract`], and
//! every run is judged by `an2_verify::engine` against that contract. A
//! row skips a rule only through its contract, with the reason, which
//! `every_row_states_why_it_skips_a_rule` prints (`-- --nocapture`). The
//! regimes, each on every row that takes its input:
//!
//! * uniform, bursty, hot-spot and Li's periodic traffic from
//!   `an2_sim::traffic`, the measurement window opening mid-run (the ring
//!   and the netsim chain make their own traffic, at the uniform loads);
//! * fault plans from `ChaosScenario::generate`, on the engines with a
//!   faulted step;
//! * starts at 2^32 − 128 (the `u32` stamps wrap mid-run) and at
//!   u64::MAX − 1023 (the run stays shorter than 1023 slots);
//! * every N = 2 script of 4 slots, each input idle or sending to output 0
//!   or 1 in each slot (9^4 scripts), then a drain.
//!
//! A panic in an engine fails the table under the time-shift or reference
//! rule when it strikes a shifted or reference run, and otherwise under
//! the rule its message names (the ring asserts conservation itself).

use an2_net::netsim::Network;
use an2_net::shard::{run_shard_net, run_shard_net_faulted, ShardNetConfig};
use an2_sched::fifo::FifoPriority::{Random, Rotating};
use an2_sched::islip::RoundRobinMatching;
use an2_sched::maximum::MaximumMatching;
use an2_sched::rng::{SelectRng, Xoshiro256};
use an2_sched::{FrameSchedule, InputPort, Mwm, OutputPort, Pim, Scheduler, Serenade, WidePim};
use an2_sim::batch::BatchCrossbar;
use an2_sim::cell::{Arrival, FlowId};
use an2_sim::chaos::{ChaosEngine, ChaosScenario};
use an2_sim::fault::DropCause::{self, BufferFull, Corrupted, DeadLink, Injected, NoRoute};
use an2_sim::fault::{FaultLog, FaultPlan};
use an2_sim::fifo_switch::FifoSwitch;
use an2_sim::hybrid_switch::{ClassedArrival, HybridSwitch, ServiceClass};
use an2_sim::metrics::{DelayStats, SwitchReport};
use an2_sim::model::SwitchModel;
use an2_sim::output_queued::OutputQueuedSwitch;
use an2_sim::speedup_switch::SpeedupSwitch;
use an2_sim::switch::CrossbarSwitch;
use an2_sim::traffic::{BurstyTraffic, PeriodicTraffic, RateMatrixTraffic, Traffic};
use an2_task::Pool;
use an2_verify::engine::{engine_violations, Check, EngineContract, ReferenceSwitch, Run, Tally};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A fault plan and the log it writes to.
type Faults<'a> = Option<(&'a mut FaultPlan, &'a mut FaultLog)>;

/// A single switch as the table drives it.
trait Model: SwitchModel {
    /// One slot, under the regime's fault plan if it has one.
    fn advance(&mut self, arrivals: &[Arrival], _: Faults<'_>) {
        self.step(arrivals);
    }

    /// The engine's own drop counters, by name.
    fn drops(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// What it reports besides its `SwitchReport`.
    fn extra(&self) -> String {
        String::new()
    }
}

impl<S: Scheduler<W>, const W: usize> Model for BatchCrossbar<S, W> {
    fn advance(&mut self, arrivals: &[Arrival], faults: Faults<'_>) {
        match faults {
            Some((plan, log)) => self.step_faulted(arrivals, plan, log),
            None => self.step_slot(arrivals),
        }
    }

    fn drops(&self) -> Vec<(&'static str, u64)> {
        let n = self.n();
        let pairs = (0..n * n).map(|p| self.pair_drops(p / n, p % n)).sum();
        vec![("dropped()", self.dropped()), ("pair_drops", pairs)]
    }
}

impl<S: Scheduler<W>, const W: usize> Model for CrossbarSwitch<S, W> {
    fn advance(&mut self, arrivals: &[Arrival], faults: Faults<'_>) {
        match faults {
            Some((plan, log)) => self.step_faulted(arrivals, plan, log),
            None => self.step(arrivals),
        }
    }

    fn drops(&self) -> Vec<(&'static str, u64)> {
        self.buffers().drops()
    }
}

impl<S: Scheduler<W>, const W: usize> Model for ReferenceSwitch<S, W> {}
impl Model for FifoSwitch {}
impl Model for OutputQueuedSwitch {}
impl Model for SpeedupSwitch {}

/// Input 0's cells are CBR, through `step_classed`; a slot without one
/// goes through `SwitchModel::step`, all VBR.
impl Model for HybridSwitch {
    fn advance(&mut self, arrivals: &[Arrival], _: Faults<'_>) {
        if arrivals.iter().all(|a| a.input.index() > 0) {
            return self.step(arrivals);
        }
        let class = |a: Arrival| match a.input.index() {
            0 => ServiceClass::Cbr,
            _ => ServiceClass::Vbr,
        };
        let classed = arrivals.iter().map(|&a| ClassedArrival {
            arrival: a,
            class: class(a),
        });
        self.step_classed(&classed.collect::<Vec<_>>());
    }

    fn extra(&self) -> String {
        let (cbr, classes) = (self.cbr_delay(), self.departures_by_class());
        format!(" cbr {cbr:?} by class {classes:?}")
    }
}

/// A hybrid switch whose 16-slot frame reserves every output for input 0,
/// `16 / n` slots each.
fn hybrid(n: usize, seed: u64) -> HybridSwitch {
    let mut frame = FrameSchedule::new(n, 16);
    for j in (0..n).map(OutputPort::new) {
        frame.reserve(InputPort::new(0), j, 16 / n).unwrap();
    }
    HybridSwitch::new(frame, seed)
}

/// Builds a single switch of radix `n` from a seed.
type Build = fn(usize, u64) -> Box<dyn Model>;

/// One row: an engine and what it promises. The single switches are
/// built by `switch`; the ring and the netsim chain, which run from their
/// own configs, are run by name.
struct Row {
    name: &'static str,
    contract: EngineContract,
    switch: Option<Build>,
    /// Builds the reference, seeded as `switch` is.
    reference: Option<Build>,
    /// Whether the engine takes fault plans.
    faulted: bool,
}

const NO_REFERENCE: Check = Check::Skipped("ReferenceSwitch models only the crossbar VOQ switch");
const NO_REFERENCE_NET: Check = Check::Skipped("no reference network yet (ROADMAP item 2)");
const RING_START: Check = Check::Skipped("no public start hook; shard::tests pins its 2^32 wrap");
const CHAIN_START: Check = Check::Skipped("no public start hook; its cells carry u64 slots");
const NOT_PER_OUTPUT: Check = Check::Skipped("reports network-wide totals, not per-output sends");

/// A row running `CrossbarSwitch` and its reference over twin schedulers.
macro_rules! crossbar {
    ($name:literal, |$n:ident, $s:tt| $scheduler:expr) => {
        Row {
            name: $name,
            contract: EngineContract::ALL,
            switch: Some(|$n, $s| Box::new(CrossbarSwitch::with_ports($n, $scheduler))),
            reference: Some(|$n, $s| Box::new(ReferenceSwitch::new($n, $scheduler))),
            faulted: true,
        }
    };
}

#[rustfmt::skip]
fn rows() -> Vec<Row> {
    let switch = |name, build| Row { name, contract: EngineContract { reference: NO_REFERENCE, ..EngineContract::ALL }, switch: Some(build), reference: None, faulted: false };
    let network = |name, line_rate, time_shift| Row { name, contract: EngineContract { line_rate, time_shift, reference: NO_REFERENCE_NET, ..EngineContract::ALL }, switch: None, reference: None, faulted: true };
    vec![
        crossbar!("crossbar pim", |n, s| Pim::new(n, s)),
        crossbar!("crossbar islip", |n, _| RoundRobinMatching::islip(n, 4)),
        crossbar!("crossbar rrm", |n, _| RoundRobinMatching::rrm(n, 4)),
        crossbar!("crossbar maximum", |n, _| MaximumMatching::new()),
        crossbar!("crossbar mwm-lqf", |n, _| Mwm::lqf(n)),
        crossbar!("crossbar mwm-ocf", |n, _| Mwm::ocf(n)),
        crossbar!("crossbar serenade", |n, s| Serenade::new(n, s)),
        Row {
            name: "batch wide-pim w16",
            contract: EngineContract::ALL,
            switch: Some(|n, s| Box::new(BatchCrossbar::<_, 16>::new(n, WidePim::new(n, s)))),
            reference: Some(|n, s| Box::new(ReferenceSwitch::<_, 16>::new(n, WidePim::new(n, s)))),
            faulted: true,
        },
        switch("fifo random", |n, s| Box::new(FifoSwitch::new(n, Random, s))),
        switch("fifo rotating", |n, s| Box::new(FifoSwitch::new(n, Rotating, s))),
        switch("fifo windowed", |n, s| Box::new(FifoSwitch::with_window(n, Random, s, 3))),
        switch("output-queued", |n, _| Box::new(OutputQueuedSwitch::new(n))),
        switch("speedup k=1", |n, s| Box::new(SpeedupSwitch::new(n, 1, 4, s))),
        switch("speedup k=2", |n, s| Box::new(SpeedupSwitch::new(n, 2, 4, s))),
        switch("speedup k=3", |n, s| Box::new(SpeedupSwitch::new(n, 3, 4, s))),
        switch("hybrid cbr+vbr", |n, s| Box::new(hybrid(n, s))),
        network("ring", NOT_PER_OUTPUT, RING_START),
        network("netsim chain", Check::Judged, CHAIN_START),
    ]
}

/// The drop causes a fault plan brings.
const FAULT_CAUSES: &[DropCause] = &[Injected, Corrupted, DeadLink];
/// The drop causes of the chain's bounded buffers and missing route.
const CHAIN_CAUSES: &[DropCause] = &[BufferFull, NoRoute];

/// Runs `f`, a run of `row`; a panic fails the test as a violation of
/// `rule`, or of the rule its message names.
fn guarded<T>(context: &str, row: &str, rule: Option<&str>, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let message = (payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        let names = EngineContract::ALL.rules().map(|(name, _)| name);
        let named = names
            .into_iter()
            .find(|name| message.contains(&name.replace('-', " ")));
        let rule = rule.or(named).unwrap_or("panic");
        panic!("{context}, row {row:?}: [{rule}] panicked: {message}")
    })
}

/// Judges `run` of the row named `name`, with its shifted twins and
/// reference run, and fails the test with every rule it breaks.
fn judge(
    name: &str,
    context: &str,
    may_drop: &[DropCause],
    run: &Run,
    twins: &[(u64, Run)],
    reference: Option<&Run>,
) {
    let row = rows().into_iter().find(|r| r.name == name).unwrap();
    let mut out = Vec::new();
    engine_violations(&row.contract, run, may_drop, twins, reference, &mut out);
    let broken: Vec<String> = out.iter().map(ToString::to_string).collect();
    assert!(
        broken.is_empty(),
        "{context}, row {name:?}:\n  {}",
        broken.join("\n  ")
    );
}

/// One arrival script: every row and every reference see the same cells.
struct Script {
    n: usize,
    seed: u64,
    slots: Vec<Vec<Arrival>>,
    /// The slot at which the measurement window opens, if it does.
    window: Option<usize>,
    /// Empty slots stepped after the script while the engine holds cells.
    drain: usize,
}

/// `slots` slots of `traffic`, the window opening at slot `window`.
fn script(mut traffic: impl Traffic, seed: u64, slots: u64, window: usize) -> Script {
    let mut arrivals = |s| {
        let mut cells = Vec::new();
        traffic.arrivals(s, &mut cells);
        cells
    };
    let slots = (0..slots).map(&mut arrivals).collect();
    let (n, window) = (traffic.n(), Some(window));
    Script {
        n,
        seed,
        slots,
        window,
        drain: 0,
    }
}

/// Steps `model` through `script` from slot `start`, under `plan` if
/// given, and drains it. Counts run from the start: the report from
/// before the window opened is added to the window's.
fn run_switch(
    mut model: Box<dyn Model>,
    script: &Script,
    start: u64,
    mut plan: Option<FaultPlan>,
) -> (Run, SwitchReport) {
    if start > 0 {
        model.start_at_slot(start);
    }
    let (mut log, mut run, mut offered) = (FaultLog::new(), Run::default(), 0);
    let (mut before, mut last) = (SwitchReport::default(), vec![0; script.n]);
    let drain = std::iter::repeat_n(&[][..], script.drain);
    let steps = script.slots.iter().map(Vec::as_slice).chain(drain);
    for (slot, arrivals) in steps.enumerate() {
        if slot >= script.slots.len() && model.queued() == 0 {
            break;
        }
        if Some(slot) == script.window {
            before = model.report();
            model.start_measurement();
        }
        model.advance(arrivals, plan.as_mut().map(|plan| (plan, &mut log)));
        offered += arrivals.len() as u64;
        let r = model.report();
        let earlier = |j| before.departures_per_output.get(j).map_or(0, |d| *d);
        let outputs: Vec<u64> = (0..script.n)
            .map(|j| earlier(j) + r.departures_per_output[j])
            .collect();
        let sent = (0..script.n)
            .map(|j| outputs[j].wrapping_sub(last[j]))
            .collect();
        last = outputs;
        let logged = plan.as_ref().map(|_| ("fault log", log.cells_dropped()));
        run.tallies.push(Tally {
            offered,
            arrived: Some(before.arrivals + r.arrivals),
            departed: before.departures + r.departures,
            held: model.queued() as u64,
            dropped: logged.into_iter().chain(model.drops()).collect(),
            sent,
        });
    }
    run.causes = log.drops().iter().map(|d| d.cause).collect();
    let report = model.report();
    run.report = format!("{report:?}{}", model.extra());
    (run, report)
}

/// Runs every switch row that takes `script` (under a plan, those with a
/// faulted step) from slot 0 and from each of `starts`, and judges it
/// with its reference run; returns each row's report and drops.
fn judge_switches(
    regime: &str,
    script: &Script,
    starts: &[u64],
    plan: Option<&FaultPlan>,
) -> Vec<(&'static str, SwitchReport, u64)> {
    let (n, seed) = (script.n, script.seed);
    let label = format!("{regime} (n = {n}, seed {seed:#x})");
    let may_drop = if plan.is_some() { FAULT_CAUSES } else { &[] };
    let mut reports = Vec::new();
    for row in rows().into_iter().filter(|r| plan.is_none() || r.faulted) {
        let Some(build) = row.switch else { continue };
        let run = |rule, build: Build, start, plan| {
            guarded(&label, row.name, rule, || {
                run_switch(build(n, seed), script, start, plan)
            })
        };
        let (main, report) = run(None, build, 0, plan.cloned());
        let shift = |&start| (start, run(Some("time-shift"), build, start, None).0);
        let twins: Vec<(u64, Run)> = starts.iter().map(shift).collect();
        let oracle = row.reference.filter(|_| plan.is_none());
        let oracle = oracle.map(|r| run(Some("reference"), r, 0, None).0);
        judge(row.name, &label, may_drop, &main, &twins, oracle.as_ref());
        let dropped = main.tallies.last().and_then(|t| t.dropped.first());
        reports.push((row.name, report, dropped.map_or(0, |d| d.1)));
    }
    reports
}

/// The ring for 1, 2, ... `cfg.slots` slots: each prefix run's report is
/// the tally after its last slot. It counts queued and in-flight cells as
/// one figure and keeps no fault log.
fn run_ring(cfg: ShardNetConfig, plan: Option<&FaultPlan>) -> Run {
    let pool = Pool::serial();
    let mut run = Run::default();
    for slots in 1..=cfg.slots {
        let cfg = ShardNetConfig { slots, ..cfg };
        let mut tally = Tally::default();
        if let Some(plan) = plan {
            let r = run_shard_net_faulted(&cfg, plan, &pool);
            (tally.offered, tally.departed, tally.held) = (r.injected, r.delivered, r.in_flight);
            (tally.dropped, run.report) = (vec![("dropped", r.dropped)], r.to_string());
        } else {
            let r = run_shard_net(&cfg, &pool);
            (tally.offered, tally.departed, tally.held) = (r.injected, r.delivered, r.in_flight);
            run.report = r.to_string();
        }
        run.tallies.push(tally);
    }
    run
}

/// The ring the regimes run: radix 8, destinations up to three hops on.
/// At `host_load` 0.06 its shared link carries 7 × 0.06 × 2 = 0.84 cells
/// per slot.
fn ring(switches: usize, host_load: f64, seed: u64, slots: u64) -> ShardNetConfig {
    let (radix, span) = (8, 3);
    ShardNetConfig {
        switches,
        radix,
        span,
        host_load,
        seed,
        slots,
    }
}

/// A netsim chain of `k` radix-4 switches run for `slots` slots under
/// `plan`. Port 0 links each switch to the next; host ports 1..4 each
/// inject one flow at `rate`, which leaves the last switch through its
/// own port number. The flow of switch 0's port 3 has no route there, and
/// every pair buffer holds two cells.
fn run_chain(k: usize, rate: f64, seed: u64, slots: u64, plan: FaultPlan) -> Run {
    let mut net = Network::new(seed);
    let ids: Vec<_> = (0..k).map(|_| net.add_switch(4)).collect();
    let (port_in, port_out) = (InputPort::new, OutputPort::new);
    for w in ids.windows(2) {
        net.connect(w[0], port_out(0), w[1], port_in(0), 1).unwrap();
    }
    let mut flows = Vec::new();
    for (s, &id) in ids.iter().enumerate() {
        net.set_buffer_capacity(id, Some(2)).unwrap();
        for p in 1..4 {
            let flow = FlowId((s * 4 + p) as u64);
            for &hop in &ids[s..k - 1] {
                net.add_route(hop, flow, port_out(0)).unwrap();
            }
            if (s, p) != (0, 3) {
                net.add_route(ids[k - 1], flow, port_out(p)).unwrap();
            }
            net.add_source(id, port_in(p), vec![flow], rate).unwrap();
            flows.push((flow, p));
        }
    }
    net.set_fault_plan(plan);
    let (mut run, mut last) = (Run::default(), [0; 4]);
    for _ in 0..slots {
        net.step();
        let mut sinks = [0; 4];
        for &(flow, port) in &flows {
            sinks[port] += net.delivered(flow);
        }
        let sent = (0..4).map(|j| sinks[j].wrapping_sub(last[j])).collect();
        last = sinks;
        run.tallies.push(Tally {
            offered: net.injected_cells(),
            arrived: None,
            departed: net.delivered_cells(),
            held: net.queued() as u64 + net.in_flight_cells(),
            dropped: vec![("fault log", net.fault_log().cells_dropped())],
            sent,
        });
    }
    run.causes = net.fault_log().drops().iter().map(|d| d.cause).collect();
    run
}

/// Bernoulli(`load`) arrivals with a `hot` share aimed at output 0 and
/// the rest uniform, so queues build up unevenly and weights matter.
fn hot_spot(n: usize, load: f64, hot: f64, seed: u64) -> RateMatrixTraffic {
    let rate = |j| load * ((1.0 - hot) / n as f64 + if j == 0 { hot } else { 0.0 });
    RateMatrixTraffic::new(vec![(0..n).map(rate).collect(); n], seed)
}

#[test]
fn traffic_regimes_keep_every_contract() {
    type Source = fn(usize, f64, u64) -> Box<dyn Traffic>;
    #[rustfmt::skip]
    let regimes: [(&str, Source); 4] = [
        ("uniform", |n, load, seed| Box::new(RateMatrixTraffic::uniform(n, load, seed))),
        ("bursty", |n, load, seed| Box::new(BurstyTraffic::new(n, load.min(0.95), 4.0, seed))),
        ("hot-spot", |n, load, seed| Box::new(hot_spot(n, load, 0.3 * load, seed))),
        ("periodic", |n, load, seed| Box::new(PeriodicTraffic::new(n, load, seed))),
    ];
    for (k, (regime, source)) in regimes.into_iter().enumerate() {
        // Eight radixes in 2..=16 at loads in 0.2..=1.0; the hot spot adds
        // deep, uneven queues at the paper's radix, where a queue-aware
        // scheduler's matchings follow every depth and age it is told.
        let mut rng = Xoshiro256::seed_from(0xE7_0000 + k as u64);
        let mut trial = || {
            (
                2 + rng.index(15),
                0.2 + 0.8 * rng.uniform_f64(),
                rng.next_u64(),
            )
        };
        let mut trials: Vec<_> = (0..8).map(|_| trial()).collect();
        trials.extend((regime == "hot-spot").then_some((16, 0.95, 0x0b5e_7e00)));
        for (n, load, seed) in trials {
            let script = script(source(n, load, seed ^ 0xd1ff), seed, 240, 40);
            judge_switches(regime, &script, &[], None);
            if regime == "uniform" {
                let context = format!("uniform (load {load:.2}, seed {seed:#x})");
                let ring = guarded(&context, "ring", None, || {
                    run_ring(ring(8, 0.06 * load, seed, 240), None)
                });
                judge("ring", &context, &[], &ring, &[], None);
                let chain = guarded(&context, "netsim chain", None, || {
                    run_chain(4, load, seed, 240, FaultPlan::new())
                });
                judge("netsim chain", &context, CHAIN_CAUSES, &chain, &[], None);
            }
        }
    }
}

#[test]
fn fault_plans_keep_every_contract() {
    let mut rng = Xoshiro256::seed_from(0xC4A0_5EED);
    let (mut batch, mut rings, mut dropped) = (0, 0, BTreeMap::new());
    let chain_causes = [FAULT_CAUSES, CHAIN_CAUSES].concat();
    for index in 0.. {
        if (batch, rings) == (4, 8) {
            break;
        }
        let sc = ChaosScenario::generate(rng.next_u64(), index);
        let context = format!(
            "chaos scenario {index} ({}, seed {:#x})",
            sc.pattern, sc.seed
        );
        let chain_len = match sc.engine {
            // The crossbar rows run N = 64; the masked wide radixes are
            // pinned by `an2-sim`'s `tests/batch_faults.rs`.
            ChaosEngine::Batch { n: 64 } if batch < 4 => {
                batch += 1;
                let traffic = RateMatrixTraffic::uniform(64, sc.load, sc.seed);
                let script = script(traffic, sc.seed, sc.slots, 0);
                for (row, _, d) in judge_switches(&context, &script, &[], Some(&sc.plan)) {
                    *dropped.entry(row).or_insert(0) += d;
                }
                8
            }
            // At the scenario's own host load (under 0.03) a scripted drop
            // seldom finds a cell to strike, so the ring runs the plan at
            // its full load.
            ChaosEngine::ShardNet { switches, .. } if rings < 8 => {
                rings += 1;
                let cfg = ring(switches, 0.06, sc.seed, sc.slots);
                let ring = guarded(&context, "ring", None, || run_ring(cfg, Some(&sc.plan)));
                judge("ring", &context, FAULT_CAUSES, &ring, &[], None);
                *dropped.entry("ring").or_insert(0) += ring.tallies.last().unwrap().dropped[0].1;
                switches
            }
            _ => continue,
        };
        let plan = sc.plan.clone();
        let chain = guarded(&context, "netsim chain", None, || {
            run_chain(chain_len, 0.3, sc.seed, sc.slots, plan)
        });
        judge("netsim chain", &context, &chain_causes, &chain, &[], None);
    }
    // Every engine with its own drop counters lost cells, so the counters
    // were judged against the fault log.
    let ledgers = rows()
        .into_iter()
        .filter(|r| r.faulted && r.name != "netsim chain");
    for name in ledgers.map(|r| r.name) {
        assert!(
            dropped.get(name).is_some_and(|&d| d > 0),
            "{name}: no fault drop struck"
        );
    }
}

#[test]
fn shifted_starts_keep_every_contract() {
    // 2^32 - 128: the u32 stamps wrap 128 slots in, with cells queued
    // across the wrap and the window open. u64::MAX - 1023: the run stays
    // shorter than 1023 slots. Both are multiples of the hybrid's frame.
    let starts = [(1u64 << 32) - 128, u64::MAX - 1023];
    let scripts = [
        script(RateMatrixTraffic::uniform(8, 0.95, 7), 3, 400, 60),
        script(hot_spot(16, 0.9, 0.2, 11), 5, 400, 60),
    ];
    let mut delays = BTreeMap::new();
    for script in &scripts {
        for (row, r, _) in judge_switches("shifted starts", script, &starts, None) {
            delays
                .entry(row)
                .or_insert_with(DelayStats::new)
                .merge(&r.delay);
        }
    }
    for (row, d) in delays {
        assert!(d.count() > 1000 && d.max() > 2, "{row}: too little traffic");
    }
}

#[test]
fn every_n2_script_keeps_every_contract() {
    // Slot digit d: input 0 does d % 3 and input 1 does d / 3, where 0 is
    // idle and 1 or 2 sends to output 0 or 1.
    let cell = |i, c: u32| Arrival::pair(2, InputPort::new(i), OutputPort::new(c as usize - 1));
    for code in 0..9u32.pow(4) {
        let slot = |s| {
            let d = code / 9u32.pow(s) % 9;
            let sends = [d % 3, d / 3]
                .into_iter()
                .enumerate()
                .filter(|&(_, c)| c > 0);
            sends.map(|(i, c)| cell(i, c)).collect()
        };
        let slots = (0..4).map(slot).collect();
        let script = Script {
            n: 2,
            seed: u64::from(code),
            slots,
            window: None,
            drain: 32,
        };
        for (row, r, _) in judge_switches("every n = 2 script", &script, &[], None) {
            assert_eq!(
                r.final_occupancy, 0,
                "script {code}, {row}: the drain did not finish"
            );
        }
    }
}

/// Prints the table and pins every skip: a row that quietly stopped
/// promising a rule would otherwise just be checked against less.
#[test]
fn every_row_states_why_it_skips_a_rule() {
    for row in rows() {
        let cell = |(rule, check): (&str, Check)| match check {
            Check::Judged => rule.to_string(),
            Check::Skipped(why) => format!("{rule} skipped ({why})"),
        };
        let cells: Vec<String> = row.contract.rules().map(cell).into();
        println!("{:<20} {}", row.name, cells.join("; "));
        let judged = |yes: bool, skip| if yes { Check::Judged } else { skip };
        let want = EngineContract {
            line_rate: judged(row.name != "ring", NOT_PER_OUTPUT),
            time_shift: match row.name {
                "ring" => RING_START,
                "netsim chain" => CHAIN_START,
                _ => Check::Judged,
            },
            reference: match row.switch {
                Some(_) => judged(row.reference.is_some(), NO_REFERENCE),
                None => NO_REFERENCE_NET,
            },
            ..EngineContract::ALL
        };
        assert_eq!(row.contract, want, "{}", row.name);
    }
}
