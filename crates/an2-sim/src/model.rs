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
pub(crate) struct ModelMetrics {
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
    pub(crate) fn new(n: usize) -> Self {
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
    pub(crate) fn slot(&self) -> u64 {
        self.slot
    }

    /// Moves a fresh model's clock to `slot`, as if that many empty slots
    /// had passed, so tests can cross the `u32` stamp wrap of the pair
    /// queues without simulating four billion slots.
    #[cfg(test)]
    pub(crate) fn start_at_slot(&mut self, slot: u64) {
        assert_eq!(self.slot, 0, "only a fresh model can be moved");
        self.slot = slot;
        self.measure_start = slot;
    }

    pub(crate) fn restart(&mut self) {
        self.measure_start = self.slot;
        self.arrivals = 0;
        self.departures = 0;
        self.per_output = vec![0; self.n];
        self.per_flow.clear();
        self.delay = DelayStats::new();
        self.peak_occupancy = 0;
    }

    pub(crate) fn on_arrival(&mut self) {
        self.arrivals += 1;
    }

    /// Records a departure.
    pub(crate) fn on_departure(&mut self, cell: &Cell) {
        self.departures += 1;
        self.per_output[cell.output.index()] += 1;
        *self.per_flow.entry(cell.flow.0).or_insert(0) += 1;
        if cell.arrival_slot >= self.measure_start {
            self.delay.record(self.slot - cell.arrival_slot);
        }
    }

    /// Called once per slot after departures, with the post-slot occupancy.
    pub(crate) fn end_slot(&mut self, occupancy: usize) {
        self.peak_occupancy = self.peak_occupancy.max(occupancy);
        self.slot += 1;
    }

    /// The statistics since the last [`ModelMetrics::restart`], with
    /// per-flow departures sorted by flow id.
    pub(crate) fn report(&self, final_occupancy: usize) -> SwitchReport {
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
    use crate::fifo_switch::FifoSwitch;
    use crate::hybrid_switch::{ClassedArrival, HybridSwitch, ServiceClass};
    use crate::output_queued::OutputQueuedSwitch;
    use crate::speedup_switch::SpeedupSwitch;
    use crate::traffic::{RateMatrixTraffic, Traffic};
    use an2_sched::fifo::FifoPriority;
    use an2_sched::{FrameSchedule, InputPort, OutputPort};

    /// A start just below 2^32 (and a multiple of the hybrid's frame), so
    /// queued cells, the warmup and the window all straddle the wrap of
    /// 32-bit arrival stamps.
    const SHIFTED: u64 = (1 << 32) - 128;

    /// Runs `model` for 400 slots of load-0.95 traffic, opening the
    /// measurement window at slot 60, with `step` feeding each slot's
    /// arrivals (and the slot count from 0) to the model.
    fn run<M: SwitchModel>(
        mut model: M,
        mut step: impl FnMut(&mut M, u64, &[Arrival]),
    ) -> (M, SwitchReport) {
        let mut traffic = RateMatrixTraffic::uniform(model.n(), 0.95, 7);
        let mut buf = Vec::new();
        for s in 0..400 {
            if s == 60 {
                model.start_measurement();
            }
            buf.clear();
            traffic.arrivals(s, &mut buf);
            step(&mut model, s, &buf);
        }
        let report = model.report();
        (model, report)
    }

    fn same_reports(a: &SwitchReport, b: &SwitchReport) {
        assert!(
            a.delay.count() > 1000 && a.delay.max() > 2,
            "too little traffic"
        );
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.departures, b.departures);
        assert_eq!(a.departures_per_output, b.departures_per_output);
        assert_eq!(a.departures_per_flow, b.departures_per_flow);
        assert_eq!(a.peak_occupancy, b.peak_occupancy);
        assert_eq!(a.final_occupancy, b.final_occupancy);
        assert_eq!(a.delay, b.delay);
    }

    #[test]
    fn models_report_the_same_past_the_u32_stamp_wrap() {
        let fifo = |start| {
            let mut m = FifoSwitch::new(8, FifoPriority::Random, 3);
            m.metrics.start_at_slot(start);
            run(m, |m, _, a| m.step(a)).1
        };
        same_reports(&fifo(0), &fifo(SHIFTED));
        let output_queued = |start| {
            let mut m = OutputQueuedSwitch::new(8);
            m.metrics.start_at_slot(start);
            run(m, |m, _, a| m.step(a)).1
        };
        same_reports(&output_queued(0), &output_queued(SHIFTED));
        let speedup = |start| {
            let mut m = SpeedupSwitch::new(8, 2, 4, 5);
            m.metrics.start_at_slot(start);
            run(m, |m, _, a| m.step(a)).1
        };
        same_reports(&speedup(0), &speedup(SHIFTED));
    }

    #[test]
    fn hybrid_reports_the_same_past_the_u32_stamp_wrap() {
        // Input 0 paces a CBR cell to output 1 every other slot; the other
        // inputs' arrivals are VBR.
        let hybrid = |start| {
            let mut fs = FrameSchedule::new(8, 4);
            fs.reserve(InputPort::new(0), OutputPort::new(1), 2).unwrap();
            let mut m = HybridSwitch::new(fs, 9);
            m.metrics.start_at_slot(start);
            let mut classed = Vec::new();
            let (m, report) = run(m, |m, s, arrivals| {
                classed.clear();
                if s % 2 == 0 {
                    classed.push(ClassedArrival {
                        arrival: Arrival::pair(8, InputPort::new(0), OutputPort::new(1)),
                        class: ServiceClass::Cbr,
                    });
                }
                let vbr = arrivals.iter().filter(|a| a.input.index() != 0);
                classed.extend(vbr.map(|&arrival| ClassedArrival {
                    arrival,
                    class: ServiceClass::Vbr,
                }));
                m.step_classed(&classed);
            });
            (report, m.cbr_delay().clone(), m.departures_by_class())
        };
        let (plain, wrapped) = (hybrid(0), hybrid(SHIFTED));
        same_reports(&plain.0, &wrapped.0);
        assert!(plain.1.count() > 100 && plain.2 .0 > 100);
        assert_eq!(plain.1, wrapped.1);
        assert_eq!(plain.2, wrapped.2);
    }

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
