//! The [`SwitchModel`] trait and shared measurement plumbing.
//!
//! All three switch organizations the paper compares (§3.5) — input
//! queueing with a crossbar scheduler, FIFO input queueing, and perfect
//! output queueing — advance in lockstep cell slots behind this trait, so
//! the simulation driver and the experiment harness treat them uniformly.

use crate::cell::{Arrival, Cell};
use crate::metrics::{DelayStats, SwitchReport};
use an2_sched::det::DetHashMap;

/// A switch simulated slot-by-slot.
///
/// A step consists of: accept this slot's arrivals (at most one per
/// input), choose departures subject to the model's constraints (at most
/// one per output; for input-queued models also at most one per input),
/// and retire them. Cells are never dropped — the AN2 design point (§2.4).
pub trait SwitchModel {
    /// The switch radix.
    fn n(&self) -> usize;

    /// A short label for reports.
    fn name(&self) -> &'static str;

    /// Advances one time slot.
    ///
    /// # Panics
    ///
    /// Panics if two arrivals share an input or any port is out of range.
    fn step(&mut self, arrivals: &[Arrival]);

    /// Cells currently buffered in the switch.
    fn queued(&self) -> usize;

    /// Starts the measurement window: statistics collected so far are
    /// discarded, queues are kept (warmup truncation).
    fn start_measurement(&mut self);

    /// Moves a fresh model's clock to `slot`, as if that many empty slots
    /// had passed, and opens the measurement window there: a run can then
    /// cross the `u32` stamp wrap, or end just below 2^64, without
    /// simulating that many slots. The clock is a `u64` that never wraps,
    /// so a run from `slot` must stay shorter than `u64::MAX - slot`.
    ///
    /// # Panics
    ///
    /// Panics if the model has already stepped.
    fn start_at_slot(&mut self, slot: u64);

    /// The statistics collected since [`start_measurement`](SwitchModel::start_measurement)
    /// (or construction, if never called).
    fn report(&self) -> SwitchReport;
}

/// Shared measurement bookkeeping for switch models.
///
/// Delay is recorded at departure, only for cells that *arrived* during
/// the measurement window (standard warmup truncation — cells already
/// queued at warmup's end carry transient state). Per-flow departure
/// counts are kept in a map keyed by flow id.
#[derive(Clone, Debug)]
pub struct ModelMetrics {
    n: usize,
    slot: u64,
    measure_start: u64,
    arrivals: u64,
    departures: u64,
    per_output: Vec<u64>,
    per_flow: DetHashMap<u64, u64>,
    delay: DelayStats,
    peak_occupancy: usize,
}

impl ModelMetrics {
    /// Empty bookkeeping for an `n`-port switch at slot 0.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            slot: 0,
            measure_start: 0,
            arrivals: 0,
            departures: 0,
            per_output: vec![0; n],
            per_flow: DetHashMap::default(),
            delay: DelayStats::new(),
            peak_occupancy: 0,
        }
    }

    /// The current slot number (slots completed so far).
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Moves a fresh model's clock to `slot`; see
    /// [`SwitchModel::start_at_slot`].
    pub fn start_at_slot(&mut self, slot: u64) {
        assert_eq!(self.slot, 0, "only a fresh model can be moved");
        self.slot = slot;
        self.measure_start = slot;
    }

    /// Opens the measurement window at the current slot.
    pub fn restart(&mut self) {
        self.measure_start = self.slot;
        self.arrivals = 0;
        self.departures = 0;
        self.per_output = vec![0; self.n];
        self.per_flow.clear();
        self.delay = DelayStats::new();
        self.peak_occupancy = 0;
    }

    /// Records an admitted arrival.
    pub fn on_arrival(&mut self) {
        self.arrivals += 1;
    }

    /// Records a departure.
    pub fn on_departure(&mut self, cell: &Cell) {
        self.departures += 1;
        self.per_output[cell.output.index()] += 1;
        *self.per_flow.entry(cell.flow.0).or_insert(0) += 1;
        if cell.arrival_slot >= self.measure_start {
            self.delay.record(self.slot - cell.arrival_slot);
        }
    }

    /// Called once per slot after departures, with the post-slot occupancy.
    pub fn end_slot(&mut self, occupancy: usize) {
        self.peak_occupancy = self.peak_occupancy.max(occupancy);
        self.slot += 1;
    }

    /// The statistics since the last [`ModelMetrics::restart`], with
    /// per-flow departures sorted by flow id.
    pub fn report(&self, final_occupancy: usize) -> SwitchReport {
        let mut per_flow: Vec<(u64, u64)> =
            self.per_flow.iter().map(|(&f, &c)| (f, c)).collect();
        per_flow.sort_unstable();
        SwitchReport {
            delay: self.delay.clone(),
            slots: self.slot - self.measure_start,
            arrivals: self.arrivals,
            departures: self.departures,
            departures_per_output: self.per_output.clone(),
            departures_per_flow: per_flow,
            peak_occupancy: self.peak_occupancy,
            final_occupancy,
        }
    }
}

/// Validates the per-slot arrival constraints shared by all models.
///
/// # Panics
///
/// Panics if two arrivals share an input or any port index is `>= n`.
pub(crate) fn validate_arrivals<'a>(n: usize, arrivals: impl IntoIterator<Item = &'a Arrival>) {
    let mut seen = an2_sched::PortSet::new();
    for a in arrivals {
        assert!(
            a.input.index() < n && a.output.index() < n,
            "arrival ({},{}) outside {n}x{n} switch",
            a.input,
            a.output
        );
        assert!(
            seen.insert(a.input.index()),
            "two cells arrived at input {} in one slot",
            a.input
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an2_sched::{InputPort, OutputPort};

    #[test]
    fn metrics_window_truncates_warmup_cells() {
        let mut m = ModelMetrics::new(2);
        let pre = Arrival::pair(2, InputPort::new(0), OutputPort::new(1)).into_cell(0);
        m.on_arrival();
        m.end_slot(1);
        m.restart(); // measurement starts at slot 1
        // The warmup cell departs at slot 3: counted as a departure but not
        // in the delay statistics.
        m.end_slot(1);
        m.end_slot(1);
        m.on_departure(&pre);
        m.end_slot(0);
        let post = Arrival::pair(2, InputPort::new(0), OutputPort::new(1)).into_cell(4);
        m.on_arrival();
        m.on_departure(&post);
        m.end_slot(0);
        let r = m.report(0);
        assert_eq!(r.departures, 2);
        assert_eq!(r.delay.count(), 1);
        assert_eq!(r.delay.max(), 0);
        assert_eq!(r.slots, 4);
        assert_eq!(r.arrivals, 1);
    }

    #[test]
    fn per_flow_accounting_is_sorted() {
        let mut m = ModelMetrics::new(4);
        let c1 = Arrival::pair(4, InputPort::new(3), OutputPort::new(0)).into_cell(0);
        let c2 = Arrival::pair(4, InputPort::new(0), OutputPort::new(1)).into_cell(0);
        m.on_departure(&c1);
        m.on_departure(&c2);
        m.on_departure(&c2);
        m.end_slot(0);
        let r = m.report(0);
        assert_eq!(r.departures_per_flow, vec![(1, 2), (12, 1)]);
    }

    #[test]
    #[should_panic(expected = "only a fresh model")]
    fn a_stepped_model_cannot_be_moved() {
        let mut sw = crate::output_queued::OutputQueuedSwitch::new(2);
        sw.step(&[]);
        sw.start_at_slot(1 << 32);
    }

    #[test]
    #[should_panic(expected = "two cells arrived")]
    fn duplicate_input_arrivals_panic() {
        let a = Arrival::pair(2, InputPort::new(0), OutputPort::new(1));
        validate_arrivals(2, &[a, a]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_arrival_panics() {
        let a = Arrival::pair(8, InputPort::new(5), OutputPort::new(1));
        validate_arrivals(2, &[a]);
    }
}
