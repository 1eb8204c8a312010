//! Perfect output queueing — the optimal-performance reference (§2.4).
//!
//! "Perfect output queueing yields the best performance possible in a
//! switch, because cells are only delayed due to contention for limited
//! output link bandwidth, never due to contention internal to the switch."
//! The hardware cost is prohibitive (`N×` internal bandwidth); here it is
//! one line of code: arrivals go straight to their output's queue, and
//! each output transmits one cell per slot.

use crate::cell::{Arrival, Cell};
use crate::metrics::SwitchReport;
use crate::model::{validate_arrivals, ModelMetrics, SwitchModel};
use std::collections::VecDeque;

/// A switch with infinite internal bandwidth and per-output FIFO queues.
///
/// # Examples
///
/// ```
/// use an2_sim::output_queued::OutputQueuedSwitch;
/// use an2_sim::model::SwitchModel;
/// use an2_sim::cell::Arrival;
/// use an2_sched::{InputPort, OutputPort};
///
/// let mut sw = OutputQueuedSwitch::new(4);
/// // Three inputs hit output 0 simultaneously; all are accepted, and the
/// // output drains one per slot.
/// let burst: Vec<Arrival> = (0..3)
///     .map(|i| Arrival::pair(4, InputPort::new(i), OutputPort::new(0)))
///     .collect();
/// sw.step(&burst);
/// assert_eq!(sw.queued(), 2); // one departed in the same slot
/// ```
#[derive(Clone, Debug)]
pub struct OutputQueuedSwitch {
    queues: Vec<VecDeque<Cell>>,
    metrics: ModelMetrics,
}

impl OutputQueuedSwitch {
    /// Creates a perfect output-queued switch with `n` ports.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > MAX_PORTS`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "switch must have at least one port");
        assert!(n <= an2_sched::MAX_PORTS, "switch size {n} out of range");
        Self {
            queues: vec![VecDeque::new(); n],
            metrics: ModelMetrics::new(n),
        }
    }
}

impl SwitchModel for OutputQueuedSwitch {
    fn n(&self) -> usize {
        self.queues.len()
    }

    fn name(&self) -> &'static str {
        "output-queued"
    }

    fn step(&mut self, arrivals: &[Arrival]) {
        let slot = self.metrics.slot();
        validate_arrivals(self.n(), arrivals);
        for a in arrivals {
            self.queues[a.output.index()].push_back(a.into_cell(slot));
            self.metrics.on_arrival();
        }
        for q in &mut self.queues {
            if let Some(cell) = q.pop_front() {
                self.metrics.on_departure(&cell);
            }
        }
        let occ = self.queued();
        self.metrics.end_slot(occ);
    }

    fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    fn start_measurement(&mut self) {
        self.metrics.restart();
    }

    fn start_at_slot(&mut self, slot: u64) {
        self.metrics.start_at_slot(slot);
    }

    fn report(&self) -> SwitchReport {
        self.metrics.report(self.queued())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{RateMatrixTraffic, Traffic};
    use an2_sched::{InputPort, OutputPort};

    #[test]
    fn drains_one_per_output_per_slot() {
        let mut sw = OutputQueuedSwitch::new(4);
        let burst: Vec<Arrival> = (0..4)
            .map(|i| Arrival::pair(4, InputPort::new(i), OutputPort::new(2)))
            .collect();
        sw.step(&burst);
        sw.step(&[]);
        sw.step(&[]);
        sw.step(&[]);
        let r = sw.report();
        assert_eq!(r.departures, 4);
        // Delays 0,1,2,3.
        assert_eq!(r.delay.max(), 3);
        assert!((r.delay.mean() - 1.5).abs() < 1e-12);
        assert_eq!(sw.queued(), 0);
        assert_eq!(sw.name(), "output-queued");
    }

    #[test]
    fn sustains_full_uniform_load() {
        let mut sw = OutputQueuedSwitch::new(16);
        let mut t = RateMatrixTraffic::uniform(16, 1.0, 3);
        let mut buf = Vec::new();
        for s in 0..20_000 {
            buf.clear();
            t.arrivals(s, &mut buf);
            sw.step(&buf);
        }
        let util = sw.report().mean_output_utilization();
        assert!(util > 0.97, "output queueing saturation utilization {util}");
    }
}
