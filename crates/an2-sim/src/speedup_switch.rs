//! A switch with a k-replicated fabric and output buffers (§2.4/§3.1).
//!
//! "One \[approach\] is to expand the internal switch bandwidth so that it
//! can transmit k cells to an output in a single time slot ... Since only
//! one cell can depart from an output during each slot, buffers are
//! required at the outputs with this technique." Unlike the replicated
//! batcher-banyan switches the paper criticizes, this model keeps
//! random-access *input* buffers too and schedules with k-grant PIM, so
//! no cell is ever dropped; at `k = 1` it is the plain AN2 switch with an
//! extra (empty) output stage, and as `k → N` it converges to perfect
//! output queueing. This is the combined input-output queued switch whose
//! delay under maximal matching with speedup Cogill and Lall analyse.
//!
//! The input side keeps one flow per pair ([`crate::cell::FlowId::for_pair`]),
//! queued in a [`PairFifos`] bank.

use crate::cell::{Arrival, Cell};
use crate::metrics::SwitchReport;
use crate::model::{validate_arrivals, ModelMetrics, SwitchModel};
use crate::slab::PairFifos;
use an2_sched::kgrant::KGrantPim;
use std::collections::VecDeque;

/// An input- and output-buffered switch with internal speedup `k`,
/// scheduled by k-grant parallel iterative matching.
///
/// # Examples
///
/// ```
/// use an2_sim::speedup_switch::SpeedupSwitch;
/// use an2_sim::model::SwitchModel;
/// use an2_sim::cell::Arrival;
/// use an2_sched::{InputPort, OutputPort};
///
/// let mut sw = SpeedupSwitch::new(4, 2, 4, 1);
/// // Three inputs burst at output 0; with k = 2 two cells cross the
/// // fabric immediately (one departs, one waits in the output queue).
/// let burst: Vec<Arrival> = (0..3)
///     .map(|i| Arrival::pair(4, InputPort::new(i), OutputPort::new(0)))
///     .collect();
/// sw.step(&burst);
/// assert_eq!(sw.queued(), 2); // 1 still at an input + 1 in the output queue
/// assert_eq!((sw.k(), sw.name()), (2, "speedup"));
/// ```
#[derive(Clone, Debug)]
pub struct SpeedupSwitch {
    inputs: PairFifos,
    scheduler: KGrantPim,
    output_queues: Vec<VecDeque<Cell>>,
    metrics: ModelMetrics,
}

impl SpeedupSwitch {
    /// Creates an `n`-port switch with fabric speedup `k`, scheduling with
    /// `iterations` iterations of k-grant PIM per slot.
    ///
    /// # Panics
    ///
    /// Panics if `n`, `k` or `iterations` is 0, or `n > MAX_PORTS`.
    pub fn new(n: usize, k: usize, iterations: usize, seed: u64) -> Self {
        Self {
            inputs: PairFifos::new(n, None),
            scheduler: KGrantPim::new(n, k, iterations, seed),
            output_queues: vec![VecDeque::new(); n],
            metrics: ModelMetrics::new(n),
        }
    }

    /// The fabric replication factor.
    pub fn k(&self) -> usize {
        self.scheduler.k()
    }

    /// Cells currently waiting in output queues.
    pub fn output_queued(&self) -> usize {
        self.output_queues.iter().map(VecDeque::len).sum()
    }
}

impl SwitchModel for SpeedupSwitch {
    fn n(&self) -> usize {
        self.inputs.n()
    }

    fn name(&self) -> &'static str {
        "speedup"
    }

    fn step(&mut self, arrivals: &[Arrival]) {
        let slot = self.metrics.slot();
        validate_arrivals(self.n(), arrivals);
        for &a in arrivals {
            let queued = self.inputs.push(a, slot);
            debug_assert!(queued, "the input queues are unbounded");
            self.metrics.on_arrival();
        }
        // Up to k cells cross the fabric to each output...
        let requests = self.inputs.requests();
        let mm = self.scheduler.schedule(requests);
        debug_assert!(mm.respects(requests));
        for (i, j) in mm.pairs() {
            let cell = self
                .inputs
                .pop(i, j, slot)
                .expect("scheduler contract: assigned pairs have queued cells");
            self.output_queues[j.index()].push_back(cell);
        }
        // ...and one cell leaves each output link.
        for q in &mut self.output_queues {
            if let Some(cell) = q.pop_front() {
                self.metrics.on_departure(&cell);
            }
        }
        let occ = self.queued();
        self.metrics.end_slot(occ);
    }

    fn queued(&self) -> usize {
        self.inputs.len() + self.output_queued()
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
    use crate::output_queued::OutputQueuedSwitch;
    use crate::sim::{simulate, SimConfig};
    use crate::traffic::{BurstyTraffic, RateMatrixTraffic};

    #[test]
    fn speedup_reduces_delay_toward_output_queueing() {
        let n = 16;
        let load = 0.9;
        let cfg = SimConfig::quick();
        let delay = |k: usize| {
            let mut sw = SpeedupSwitch::new(n, k, 4, 3);
            let mut t = RateMatrixTraffic::uniform(n, load, 4);
            simulate(&mut sw, &mut t, cfg).delay.mean()
        };
        let mut oq = OutputQueuedSwitch::new(n);
        let mut t = RateMatrixTraffic::uniform(n, load, 4);
        let oq_delay = simulate(&mut oq, &mut t, cfg).delay.mean();

        let d1 = delay(1);
        let d2 = delay(2);
        let dn = delay(n);
        assert!(d2 < d1, "k=2 ({d2}) should beat k=1 ({d1})");
        assert!(dn < d2, "k=n ({dn}) should beat k=2 ({d2})");
        // k = n matches perfect output queueing within noise.
        assert!(
            (dn - oq_delay).abs() < 0.3 + oq_delay * 0.1,
            "k=n delay {dn} vs output queueing {oq_delay}"
        );
    }

    #[test]
    fn bursty_hotspot_shows_speedup_value() {
        // The paper's client-server burst pattern: many inputs burst at
        // one output. Speedup moves the burst into the output queue
        // quickly, freeing the inputs for other traffic.
        let n = 8;
        let cfg = SimConfig::quick();
        let run = |k: usize| {
            let mut sw = SpeedupSwitch::new(n, k, 4, 5);
            let mut t = BurstyTraffic::new(n, 0.1, 8.0, 6).with_hotspot(0);
            simulate(&mut sw, &mut t, cfg)
        };
        let r1 = run(1);
        let r4 = run(4);
        // Same offered traffic; both deliver everything (no drops), but
        // the speedup switch holds cells at outputs, not inputs.
        assert!(r4.delay.mean() <= r1.delay.mean() + 0.5);
    }

    #[test]
    fn speedup_two_sustains_full_uniform_load() {
        let mut sw = SpeedupSwitch::new(4, 2, 4, 7);
        let mut t = RateMatrixTraffic::uniform(4, 1.0, 8);
        let cfg = SimConfig {
            warmup_slots: 0,
            measure_slots: 10_000,
        };
        assert!(simulate(&mut sw, &mut t, cfg).mean_output_utilization() > 0.9);
    }
}
