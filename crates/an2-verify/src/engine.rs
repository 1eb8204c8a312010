//! The rules every switch and network engine is judged by.
//!
//! The paper's switch never invents a cell, never loses one unless a fault
//! takes it, and sends at most one cell per output per slot (§2.4, §3).
//! An [`EngineContract`] states, as plain data, which of the five rules an
//! engine is judged on and why it skips any other; [`engine_violations`]
//! judges a [`Run`] against it and reports each broken rule as a named
//! [`Violation`], as [`crate::contract`] does for schedulers. The
//! table-driven test `tests/engines.rs` runs every engine through the same
//! regimes.
//!
//! * **conservation** — after every slot, offered = departed + held +
//!   dropped; every drop count kept (the fault log's, the engine's own)
//!   agrees, and a switch's admitted cells and drops make up its offer;
//! * **line-rate** — no output sends more than one cell in a slot, and the
//!   slot's sends add up to its departures;
//! * **lossless** — a run whose regime injects no fault and bounds no
//!   buffer drops and loses nothing, and any run drops only for causes its
//!   regime allows;
//! * **time-shift** — runs started just below 2^32 and 2^64 tally and
//!   report exactly what the run from slot 0 does;
//! * **reference** — the run tallies and reports exactly what the same run
//!   of [`ReferenceSwitch`], a plain slot loop over [`ReferenceVoq`], does.

use crate::reference_voq::ReferenceVoq;
use an2_net::flows::{PushOutcome, ServiceDiscipline};
use an2_sched::check::Violation;
use an2_sched::{RequestMatrixN, Scheduler};
use an2_sim::cell::Arrival;
use an2_sim::fault::DropCause;
use an2_sim::metrics::SwitchReport;
use an2_sim::model::{ModelMetrics, SwitchModel};

/// Whether a contract judges one rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// Judged in every regime that exercises the rule.
    Judged,
    /// Not judged, for the stated reason.
    Skipped(&'static str),
}

/// Which of the rules in the module docs an engine is judged on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineContract {
    /// **conservation**.
    pub conservation: Check,
    /// **line-rate**.
    pub line_rate: Check,
    /// **lossless**.
    pub lossless: Check,
    /// **time-shift**.
    pub time_shift: Check,
    /// **reference**.
    pub reference: Check,
}

impl EngineContract {
    /// Judged on every rule.
    pub const ALL: Self = Self {
        conservation: Check::Judged,
        line_rate: Check::Judged,
        lossless: Check::Judged,
        time_shift: Check::Judged,
        reference: Check::Judged,
    };

    /// Each rule's name and entry.
    pub fn rules(&self) -> [(&'static str, Check); 5] {
        [
            ("conservation", self.conservation),
            ("line-rate", self.line_rate),
            ("lossless", self.lossless),
            ("time-shift", self.time_shift),
            ("reference", self.reference),
        ]
    }
}

/// An engine's counts after one slot, from the start of its run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Cells offered: fed by the harness, or injected by the engine's own
    /// sources.
    pub offered: u64,
    /// Cells a single switch reports as admitted (it drops only at its
    /// inputs).
    pub arrived: Option<u64>,
    /// Cells that left through an output.
    pub departed: u64,
    /// Cells in buffers or on links.
    pub held: u64,
    /// Every drop count kept, by keeper: the fault log, the engine's own
    /// counters.
    pub dropped: Vec<(&'static str, u64)>,
    /// Cells each output sent in this slot.
    pub sent: Vec<u64>,
}

/// One run of an engine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Run {
    /// The tally after each slot.
    pub tallies: Vec<Tally>,
    /// The causes of the drops its fault log recorded.
    pub causes: Vec<DropCause>,
    /// Its end-of-run report, rendered with `{:?}`.
    pub report: String,
}

/// Appends to `out` the first slot at which `run` breaks each rule that
/// `contract` judges. `may_drop` lists the causes its regime allows;
/// `shifted` holds the same run from other start slots, and `reference`
/// the same run of the reference.
pub fn engine_violations(
    contract: &EngineContract,
    run: &Run,
    may_drop: &[DropCause],
    shifted: &[(u64, Run)],
    reference: Option<&Run>,
    out: &mut Vec<Violation>,
) {
    let judged = |rule| contract.rules().contains(&(rule, Check::Judged));
    let mut first = |rule, check: &dyn Fn(&Tally, u64) -> Option<String>| {
        let mut departed = 0;
        for (slot, t) in run.tallies.iter().enumerate().filter(|_| judged(rule)) {
            if let Some(detail) = check(t, t.departed.wrapping_sub(departed)) {
                return out.push(violation(slot, rule, detail));
            }
            departed = t.departed;
        }
    };
    let dropped = |t: &Tally| t.dropped.first().map_or(0, |d| d.1);
    first("conservation", &|t, _| {
        let (lost, kept, offered) = (dropped(t), t.departed + t.held, t.offered);
        let keepers = t.dropped.iter().filter(|d| d.1 != lost);
        let disagree = keepers.map(|(keeper, n)| format!("{keeper} counts {n} drops, not {lost}"));
        let unkept = (offered != kept + lost).then(|| format!("{offered} offered, {kept} kept"));
        let unadmitted = t.arrived.filter(|a| a + lost != offered);
        let unadmitted = unadmitted.map(|a| format!("{a} admitted of {offered} offered"));
        disagree.chain(unkept).chain(unadmitted).next()
    });
    first("line-rate", &|t, departed| {
        let sent: u64 = t.sent.iter().sum();
        let over = t.sent.iter().position(|&k| k > 1);
        let over = over.map(|j| format!("output {j} sent {} cells", t.sent[j]));
        over.or((sent != departed).then(|| format!("outputs sent {sent}, {departed} departed")))
    });
    first("lossless", &|t, _| {
        let (lost, kept) = (dropped(t), t.departed + t.held);
        let lossy = may_drop.is_empty() && (lost > 0 || kept != t.offered);
        lossy.then(|| format!("{lost} dropped, {kept} of {} offered kept", t.offered))
    });
    let stray = run.causes.iter().find(|c| !may_drop.contains(c));
    if let Some(cause) = stray.filter(|_| judged("lossless")) {
        let detail = format!("{cause:?} drops where only {may_drop:?} may");
        out.push(violation(run.tallies.len(), "lossless", detail));
    }
    let shifted = shifted.iter().filter(|_| judged("time-shift"));
    let others = shifted.map(|(start, r)| ("time-shift", format!("from slot {start}"), r));
    let reference = reference.filter(|_| judged("reference"));
    let others = others.chain(reference.map(|r| ("reference", "of the reference".into(), r)));
    out.extend(others.filter_map(|(rule, what, other)| disagreement(rule, &what, run, other)));
}

fn violation(slot: usize, rule: &'static str, detail: String) -> Violation {
    let slot = slot as u64;
    Violation { slot, rule, detail }
}

/// The first slot at which `other` tallies other cells than `run`, or else
/// their differing reports.
fn disagreement(rule: &'static str, what: &str, run: &Run, other: &Run) -> Option<Violation> {
    let cells = |t: &Tally| (t.offered, t.arrived, t.departed, t.held, t.sent.clone());
    let (a, b) = (&run.tallies, &other.tallies);
    let slot = (0..a.len().max(b.len())).find(|&s| a.get(s).map(cells) != b.get(s).map(cells));
    let detail = match slot {
        Some(s) => format!(
            "(offered, arrived, departed, held, sent) {:?} {what}, {:?} judged",
            b.get(s).map(cells),
            a.get(s).map(cells)
        ),
        None if run.report == other.report => return None,
        None => format!(
            "report {what}\n    {}\n  judged\n    {}",
            other.report, run.report
        ),
    };
    Some(violation(slot.unwrap_or(a.len()), rule, detail))
}

/// The reference single switch: the textbook slot over a [`ReferenceVoq`].
///
/// Each slot pushes the arrivals stamped with the slot, tells a
/// queue-aware scheduler every requested pair's depth and head-cell age,
/// schedules, and pops one cell from every matched pair. Unlike the
/// single-switch engine it keeps no pair table, queue slab, incremental
/// request matrix or idle-slot skip, and it measures with the plain
/// switch models' [`ModelMetrics`].
#[derive(Debug)]
pub struct ReferenceSwitch<S, const W: usize = 4> {
    n: usize,
    voq: ReferenceVoq,
    scheduler: S,
    metrics: ModelMetrics,
}

impl<S: Scheduler<W>, const W: usize> ReferenceSwitch<S, W> {
    /// An `n`-port reference switch driven by `scheduler`.
    pub fn new(n: usize, scheduler: S) -> Self {
        let voq = ReferenceVoq::new(n, ServiceDiscipline::RoundRobin);
        let metrics = ModelMetrics::new(n);
        Self {
            n,
            voq,
            scheduler,
            metrics,
        }
    }
}

impl<S: Scheduler<W>, const W: usize> SwitchModel for ReferenceSwitch<S, W> {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        "reference"
    }

    fn step(&mut self, arrivals: &[Arrival]) {
        let slot = self.metrics.slot();
        for a in arrivals {
            assert_eq!(self.voq.push(a.into_cell(slot)), PushOutcome::Admitted);
            self.metrics.on_arrival();
        }
        let mut requests = RequestMatrixN::<W>::new(self.n);
        let observe = self.scheduler.wants_queue_observations();
        for (i, j) in self.voq.requests().pairs() {
            requests.set(i, j);
            if let Some(head) = self.voq.pair_head_arrival(i, j).filter(|_| observe) {
                let narrow = |x: u64| u32::try_from(x).expect("depths and ages below 2^32");
                let depth = narrow(self.voq.pair_occupancy(i, j) as u64);
                self.scheduler
                    .observe_queue(i, j, depth, narrow(slot - head));
            }
        }
        for (i, j) in self.scheduler.schedule(&requests).pairs() {
            let cell = self.voq.pop(i, j).expect("matched pairs hold cells");
            self.metrics.on_departure(&cell);
        }
        self.metrics.end_slot(self.voq.len());
    }

    fn queued(&self) -> usize {
        self.voq.len()
    }

    fn start_measurement(&mut self) {
        self.metrics.restart();
    }

    fn start_at_slot(&mut self, slot: u64) {
        self.metrics.start_at_slot(slot);
    }

    fn report(&self) -> SwitchReport {
        self.metrics.report(self.voq.len())
    }
}
