//! Differential test of the single-switch engine against a plain slot loop
//! over [`ReferenceVoq`].
//!
//! The reference is the textbook slot: push the slot's arrivals stamped
//! with the slot, tell a queue-aware scheduler each requested pair's depth
//! and head-cell age (from [`ReferenceVoq::pair_occupancy`] and
//! [`ReferenceVoq::pair_head_arrival`]), schedule, and pop one cell from
//! every matched pair. The engine — `CrossbarSwitch` over the
//! `BatchCrossbar` core, with its pair table, queue slab, incremental
//! request matrix and idle-slot skip — drives an identically seeded
//! scheduler over the same arrivals. The two must agree on the queued
//! cell count and the departures after every slot, and on the whole
//! report at the end.
//!
//! The schedulers cover the queue-oblivious kernels (PIM, iSLIP, RRM,
//! maximum matching) and the queue-aware ones (MWM with longest-queue and
//! oldest-cell weights, SERENADE), whose decisions depend on every depth
//! and age the engine reports.

use an2_net::flows::{PushOutcome, ServiceDiscipline};
use an2_sched::islip::RoundRobinMatchingN;
use an2_sched::maximum::MaximumMatchingN;
use an2_sched::rng::{SelectRng, Xoshiro256};
use an2_sched::{InputPort, Mwm, OutputPort, Pim, Scheduler, Serenade};
use an2_sim::cell::Arrival;
use an2_sim::metrics::{DelayStats, SwitchReport};
use an2_sim::model::SwitchModel;
use an2_sim::switch::CrossbarSwitch;
use an2_verify::ReferenceVoq;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Schedulers under test, by index; the same index and seed build
/// identical twins.
const SCHEDULERS: [&str; 7] = [
    "pim", "islip", "rrm", "maximum", "mwm-lqf", "mwm-ocf", "serenade",
];

fn make_scheduler(which: usize, n: usize, seed: u64) -> Box<dyn Scheduler> {
    match which {
        0 => Box::new(Pim::new(n, seed)),
        1 => Box::new(RoundRobinMatchingN::islip(n, 4)),
        2 => Box::new(RoundRobinMatchingN::rrm(n, 4)),
        3 => Box::new(MaximumMatchingN::new()),
        4 => Box::new(Mwm::lqf(n)),
        5 => Box::new(Mwm::ocf(n)),
        _ => Box::new(Serenade::new(n, seed)),
    }
}

/// The plain slot loop and the report it keeps.
struct Reference {
    n: usize,
    voq: ReferenceVoq,
    scheduler: Box<dyn Scheduler>,
    slot: u64,
    measure_start: u64,
    arrivals: u64,
    departures: u64,
    departed_total: u64,
    per_output: Vec<u64>,
    per_flow: BTreeMap<u64, u64>,
    delay: DelayStats,
    peak_occupancy: usize,
}

impl Reference {
    fn new(n: usize, scheduler: Box<dyn Scheduler>) -> Self {
        Self {
            n,
            voq: ReferenceVoq::new(n, ServiceDiscipline::RoundRobin),
            scheduler,
            slot: 0,
            measure_start: 0,
            arrivals: 0,
            departures: 0,
            departed_total: 0,
            per_output: vec![0; n],
            per_flow: BTreeMap::new(),
            delay: DelayStats::new(),
            peak_occupancy: 0,
        }
    }

    fn step(&mut self, arrivals: &[Arrival]) {
        for a in arrivals {
            assert_eq!(self.voq.push(a.into_cell(self.slot)), PushOutcome::Admitted);
            self.arrivals += 1;
        }
        if self.scheduler.wants_queue_observations() {
            for (i, j) in self.voq.requests().pairs() {
                let depth = self.voq.pair_occupancy(i, j);
                let head = self.voq.pair_head_arrival(i, j).expect("requested pair");
                let age = self.slot - head;
                self.scheduler.observe_queue(
                    i,
                    j,
                    u32::try_from(depth).unwrap(),
                    u32::try_from(age).unwrap(),
                );
            }
        }
        let matching = self.scheduler.schedule(self.voq.requests());
        for (i, j) in matching.pairs() {
            let cell = self.voq.pop(i, j).expect("matched pairs hold cells");
            self.departures += 1;
            self.departed_total += 1;
            self.per_output[j.index()] += 1;
            *self.per_flow.entry(cell.flow.0).or_insert(0) += 1;
            if cell.arrival_slot >= self.measure_start {
                self.delay.record(self.slot - cell.arrival_slot);
            }
        }
        self.peak_occupancy = self.peak_occupancy.max(self.voq.len());
        self.slot += 1;
    }

    fn start_measurement(&mut self) {
        self.measure_start = self.slot;
        self.arrivals = 0;
        self.departures = 0;
        self.per_output = vec![0; self.n];
        self.per_flow.clear();
        self.delay = DelayStats::new();
        self.peak_occupancy = 0;
    }

    fn report(&self) -> SwitchReport {
        SwitchReport {
            delay: self.delay.clone(),
            slots: self.slot - self.measure_start,
            arrivals: self.arrivals,
            departures: self.departures,
            departures_per_output: self.per_output.clone(),
            departures_per_flow: self.per_flow.iter().map(|(&f, &c)| (f, c)).collect(),
            peak_occupancy: self.peak_occupancy,
            final_occupancy: self.voq.len(),
        }
    }
}

/// Bernoulli(load) arrivals, a `hot` share of them aimed at output 0 and
/// the rest uniform, so queues build up unevenly and weights matter.
fn arrivals_for(n: usize, load: f64, hot: f64, rng: &mut Xoshiro256) -> Vec<Arrival> {
    let mut batch = Vec::new();
    for i in 0..n {
        if rng.bernoulli(load) {
            let j = if rng.bernoulli(hot) { 0 } else { rng.index(n) };
            batch.push(Arrival::pair(n, InputPort::new(i), OutputPort::new(j)));
        }
    }
    batch
}

/// Runs engine and reference side by side, failing at the first slot
/// where they part.
fn run(which: usize, n: usize, load: f64, hot: f64, seed: u64) {
    let name = SCHEDULERS[which];
    let mut engine = CrossbarSwitch::with_ports(n, make_scheduler(which, n, seed));
    let mut reference = Reference::new(n, make_scheduler(which, n, seed));
    let mut rng = Xoshiro256::seed_from(seed ^ 0xd1ff);
    for slot in 0..240u64 {
        if slot == 40 {
            engine.start_measurement();
            reference.start_measurement();
        }
        let arrivals = arrivals_for(n, load, hot, &mut rng);
        engine.step(&arrivals);
        reference.step(&arrivals);
        assert_eq!(
            (engine.queued(), engine.buffers().departed()),
            (reference.voq.len(), reference.departed_total),
            "{name} n {n}: queued cells and departures part at slot {slot}"
        );
    }
    let (got, want) = (engine.report(), reference.report());
    assert_eq!(got.slots, want.slots, "{name}");
    assert_eq!(got.arrivals, want.arrivals, "{name}");
    assert_eq!(got.departures, want.departures, "{name}");
    assert_eq!(
        got.departures_per_output, want.departures_per_output,
        "{name}"
    );
    assert_eq!(got.departures_per_flow, want.departures_per_flow, "{name}");
    assert_eq!(got.peak_occupancy, want.peak_occupancy, "{name}");
    assert_eq!(got.final_occupancy, want.final_occupancy, "{name}");
    assert_eq!(got.delay, want.delay, "{name}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_matches_reference_slot_loop(
        which in 0usize..SCHEDULERS.len(),
        n_idx in 0usize..4,
        load_pct in 20u32..=100,
        hot_pct in 0u32..=60,
        seed in any::<u64>(),
    ) {
        let n = [2usize, 4, 8, 16][n_idx];
        run(which, n, f64::from(load_pct) / 100.0, f64::from(hot_pct) / 100.0, seed);
    }
}

/// Every scheduler at a loaded N = 16 with a hot output: queues run deep
/// and uneven, so a queue-aware scheduler's matchings follow the depths
/// and ages it is told.
#[test]
fn every_scheduler_matches_under_a_hot_spot() {
    for which in 0..SCHEDULERS.len() {
        run(which, 16, 0.95, 0.3, 0x0b5e_7e00 + which as u64);
    }
}
