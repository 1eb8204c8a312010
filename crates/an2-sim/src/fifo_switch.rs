//! The FIFO input-queued switch — the baseline of §2.4 and Figure 1.
//!
//! Each input keeps a single FIFO queue; only the head cell contends for
//! an output each slot, so a blocked head stalls everything behind it
//! (head-of-line blocking). An optional *lookahead window* implements the
//! Karol et al. / Hui–Arthurs iterated scheme the paper discusses: "an
//! input that loses the first round of the competition sends the header
//! for the second cell in its queue on the second round, and so on" —
//! "this reduces the impact of head-of-line blocking but does not
//! eliminate it, since only the first k cells in each queue are eligible."

use crate::cell::Arrival;
use crate::metrics::SwitchReport;
use crate::model::{validate_arrivals, ModelMetrics, SwitchModel};
use an2_sched::fifo::{FifoArbiter, FifoPriority};
use an2_sched::rng::{SelectRng, Xoshiro256};
use an2_sched::{Matching, OutputPort, PortSet};
use std::collections::VecDeque;

/// A FIFO input-buffered switch.
///
/// # Examples
///
/// ```
/// use an2_sched::fifo::FifoPriority;
/// use an2_sim::fifo_switch::FifoSwitch;
/// use an2_sim::model::SwitchModel;
/// use an2_sim::traffic::{RateMatrixTraffic, Traffic};
///
/// let mut sw = FifoSwitch::new(16, FifoPriority::Random, 1);
/// let mut t = RateMatrixTraffic::uniform(16, 0.4, 2);
/// let mut buf = Vec::new();
/// for slot in 0..2000 {
///     buf.clear();
///     t.arrivals(slot, &mut buf);
///     sw.step(&buf);
/// }
/// // 0.4 load is below the ~0.58 HOL saturation point, so the queue drains.
/// assert!(sw.report().final_occupancy < 100);
/// ```
#[derive(Clone, Debug)]
pub struct FifoSwitch {
    queues: Vec<VecDeque<crate::cell::Cell>>,
    arbiter: FifoArbiter,
    /// Cells per queue eligible for the competition (1 = pure FIFO).
    window: usize,
    rng: Xoshiro256,
    metrics: ModelMetrics,
}

impl FifoSwitch {
    /// Creates a pure FIFO switch (window of 1).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > MAX_PORTS`.
    pub fn new(n: usize, priority: FifoPriority, seed: u64) -> Self {
        Self::with_window(n, priority, seed, 1)
    }

    /// Creates a FIFO switch where the first `window` cells of each queue
    /// are eligible (Karol's iterated HOL competition for `window > 1`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range or `window == 0`.
    pub fn with_window(n: usize, priority: FifoPriority, seed: u64, window: usize) -> Self {
        assert!(window > 0, "lookahead window must be at least 1");
        Self {
            queues: vec![VecDeque::new(); n],
            arbiter: FifoArbiter::new(n, priority, seed),
            window,
            rng: Xoshiro256::seed_from(seed ^ 0x5EED_F1F0),
            metrics: ModelMetrics::new(n),
        }
    }

    /// The lookahead window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Loads a queue snapshot directly into the input FIFOs, bypassing the
    /// one-cell-per-input-per-slot link constraint (scenario setup for the
    /// Figure 1 snapshot). Cells are appended in the order given and
    /// stamped with the current slot.
    ///
    /// # Panics
    ///
    /// Panics if any port index is out of range.
    pub fn preload(&mut self, arrivals: &[Arrival]) {
        let slot = self.metrics.slot();
        let n = self.n();
        for a in arrivals {
            assert!(
                a.input.index() < n && a.output.index() < n,
                "preloaded cell ({},{}) outside {n}x{n} switch",
                a.input,
                a.output
            );
            self.queues[a.input.index()].push_back(a.into_cell(slot));
            self.metrics.on_arrival();
        }
    }

    /// Runs the windowed competition for `window > 1`: in round `r`, every
    /// unmatched input offers its `r`-th queued cell (if it exists and its
    /// output is unmatched); each output admits one random proposer.
    /// Returns, per input, the queue index of the cell to transmit.
    fn windowed_competition(&mut self) -> Vec<Option<usize>> {
        let n = self.queues.len();
        let mut winner_cell: Vec<Option<usize>> = vec![None; n];
        let mut input_free = PortSet::all(n);
        let mut output_free = PortSet::all(n);
        for round in 0..self.window {
            // proposals[j] = inputs offering their round-th cell to j.
            let mut proposals: Vec<PortSet> = vec![PortSet::new(); n];
            let mut any = false;
            for i in input_free.iter() {
                let Some(cell) = self.queues[i].get(round) else {
                    continue;
                };
                let j = cell.output.index();
                if output_free.contains(j) {
                    proposals[j].insert(i);
                    any = true;
                }
            }
            if !any {
                continue;
            }
            for j in output_free.iter() {
                if let Some(i) = self.rng.choose(&proposals[j]) {
                    winner_cell[i] = Some(round);
                    input_free.remove(i);
                    output_free.remove(j);
                }
            }
        }
        winner_cell
    }
}

impl SwitchModel for FifoSwitch {
    fn n(&self) -> usize {
        self.queues.len()
    }

    fn name(&self) -> &'static str {
        if self.window == 1 {
            "fifo"
        } else {
            "fifo-windowed"
        }
    }

    fn step(&mut self, arrivals: &[Arrival]) {
        let n = self.n();
        let slot = self.metrics.slot();
        validate_arrivals(n, arrivals);
        for a in arrivals {
            self.queues[a.input.index()].push_back(a.into_cell(slot));
            self.metrics.on_arrival();
        }
        if self.window == 1 {
            // Pure FIFO: heads contend, one winner per output.
            let heads: Vec<Option<OutputPort>> = self
                .queues
                .iter()
                .map(|q| q.front().map(|c| c.output))
                .collect();
            let m: Matching = self.arbiter.arbitrate(&heads);
            for (i, _) in m.pairs() {
                let cell = self.queues[i.index()]
                    .pop_front()
                    .expect("winner has a head cell");
                self.metrics.on_departure(&cell);
            }
        } else {
            let winners = self.windowed_competition();
            for (i, w) in winners.iter().enumerate() {
                if let Some(idx) = w {
                    let cell = self.queues[i]
                        .remove(*idx)
                        .expect("competition offered an existing cell");
                    self.metrics.on_departure(&cell);
                }
            }
        }
        let occupancy = self.queued();
        self.metrics.end_slot(occupancy);
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
    use crate::traffic::{PeriodicTraffic, RateMatrixTraffic, TraceTraffic, Traffic};
    use an2_sched::InputPort;

    fn drive(model: &mut dyn SwitchModel, traffic: &mut dyn Traffic, slots: u64) {
        let mut buf = Vec::new();
        for s in 0..slots {
            buf.clear();
            traffic.arrivals(s, &mut buf);
            model.step(&buf);
        }
    }

    #[test]
    fn head_of_line_blocking_occurs() {
        // Input 0: [out0, out1]; input 1: [out0]. Slot 0: inputs 0 and 1
        // contend for output 0; the loser's second cell (for the idle
        // output 1) is blocked behind its head — so at most 1 departure in
        // slot 0 even though two outputs had work.
        let mut sw = FifoSwitch::new(2, FifoPriority::Rotating, 0);
        // Rotating priority with pointer at 0: input 0 wins output 0.
        let mut t = TraceTraffic::new(2, [(0, 0, 0), (0, 1, 0)]);
        let mut buf = Vec::new();
        t.arrivals(0, &mut buf);
        sw.step(&buf);
        assert_eq!(sw.report().departures, 1);
        assert_eq!(sw.queued(), 1);
    }

    #[test]
    fn windowed_switch_bypasses_blocked_head() {
        // Scenario: slot 0 delivers (in0 -> out0) and (in1 -> out0); slot 1
        // delivers (in0 -> out1) and (in1 -> out0). If input 0's head loses
        // the out0 competition, a window of 2 lets its second cell use the
        // idle out1 while pure FIFO leaves it blocked. Within two slots the
        // windowed switch completes all three possible departures with
        // probability 3/4 versus FIFO's 1/2, so over many seeds its total
        // must come out clearly ahead.
        let run = |window: usize, seed: u64| {
            let mut sw = FifoSwitch::with_window(2, FifoPriority::Random, seed, window);
            sw.step(&[
                Arrival::pair(2, InputPort::new(0), OutputPort::new(0)),
                Arrival::pair(2, InputPort::new(1), OutputPort::new(0)),
            ]);
            sw.step(&[
                Arrival::pair(2, InputPort::new(0), OutputPort::new(1)),
                Arrival::pair(2, InputPort::new(1), OutputPort::new(0)),
            ]);
            sw.report().departures
        };
        let seeds = 256u64;
        let fifo_total: u64 = (0..seeds).map(|s| run(1, s)).sum();
        let windowed_total: u64 = (0..seeds).map(|s| run(2, s)).sum();
        assert!(
            windowed_total > fifo_total + seeds / 8,
            "the lookahead window should bypass blocked heads: fifo={fifo_total} windowed={windowed_total}"
        );
        let sw = FifoSwitch::with_window(2, FifoPriority::Random, 0, 2);
        assert_eq!(sw.window(), 2);
        assert_eq!(sw.name(), "fifo-windowed");
    }

    #[test]
    fn uniform_saturation_near_58_percent() {
        // Karol et al. 1987: HOL blocking limits uniform throughput to
        // 2 - sqrt(2) ~ 0.586 as N grows; ~0.60-0.63 at N=16. Offered load
        // 1.0 must leave utilization well below PIM's but above 0.5.
        let mut sw = FifoSwitch::new(16, FifoPriority::Random, 5);
        let mut t = RateMatrixTraffic::uniform(16, 1.0, 6);
        drive(&mut sw, &mut t, 30_000);
        sw.start_measurement();
        drive(&mut sw, &mut t, 30_000);
        let util = sw.report().mean_output_utilization();
        assert!(util > 0.52 && util < 0.68, "FIFO saturation {util}");
    }

    #[test]
    fn stationary_blocking_collapses_throughput() {
        // Figure 1 / Li: periodic traffic at full load with rotating
        // priority drives aggregate FIFO throughput toward a single link's
        // worth (here: utilization ~ 1/N), while the offered work could
        // fill every link.
        let n = 8;
        let mut sw = FifoSwitch::new(n, FifoPriority::Rotating, 0);
        // Long same-destination blocks keep the heads collided (short
        // blocks let round-robin service accidentally pipeline the heads
        // across distinct blocks, defeating the construction).
        let mut t = PeriodicTraffic::with_block_len(n, 1.0, 0, 256);
        drive(&mut sw, &mut t, 2000);
        sw.start_measurement();
        drive(&mut sw, &mut t, 2000);
        let util = sw.report().mean_output_utilization();
        assert!(
            util < 2.5 / n as f64,
            "stationary blocking should collapse throughput, got {util}"
        );
    }

    #[test]
    fn windowed_fifo_raises_saturation_but_not_to_full() {
        let mut pure = FifoSwitch::new(16, FifoPriority::Random, 7);
        let mut wide = FifoSwitch::with_window(16, FifoPriority::Random, 7, 4);
        for sw in [&mut pure, &mut wide] {
            let mut t = RateMatrixTraffic::uniform(16, 1.0, 8);
            drive(sw, &mut t, 20_000);
            sw.start_measurement();
            let mut t2 = RateMatrixTraffic::uniform(16, 1.0, 9);
            drive(sw, &mut t2, 20_000);
        }
        let u_pure = pure.report().mean_output_utilization();
        let u_wide = wide.report().mean_output_utilization();
        assert!(u_wide > u_pure + 0.05, "window should help: {u_pure} vs {u_wide}");
        assert!(u_wide < 0.97, "window must not eliminate HOL: {u_wide}");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_window_panics() {
        let _ = FifoSwitch::with_window(4, FifoPriority::Random, 0, 0);
    }
}
