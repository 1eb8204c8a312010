//! The input-queued crossbar switch (the AN2 organization).
//!
//! Cells wait in random-access input buffers ([`VoqBuffers`]); once per
//! slot a [`Scheduler`] — PIM in the paper, but any implementation of the
//! trait — computes a conflict-free matching from the request matrix, and
//! the matched cells cross the crossbar (§3.1). Cells are never dropped.

use crate::cell::Arrival;
use crate::fault::{DropCause, FaultKind, FaultLog, FaultPlan, PortSide};
use crate::metrics::SwitchReport;
use crate::model::{validate_arrivals, ModelMetrics, SwitchModel};
use crate::voq::VoqBuffers;
use an2_sched::{PortMaskN, PortSetN, Scheduler};

/// An input-queued switch driven by a crossbar scheduler, on `W`-word
/// port sets (the scheduler's width; four words unless it says otherwise).
///
/// # Examples
///
/// ```
/// use an2_sched::Pim;
/// use an2_sim::switch::CrossbarSwitch;
/// use an2_sim::model::SwitchModel;
/// use an2_sim::traffic::{RateMatrixTraffic, Traffic};
///
/// let mut sw = CrossbarSwitch::new(Pim::new(16, 1));
/// let mut traffic = RateMatrixTraffic::uniform(16, 0.5, 2);
/// let mut buf = Vec::new();
/// for slot in 0..1000 {
///     buf.clear();
///     traffic.arrivals(slot, &mut buf);
///     sw.step(&buf);
/// }
/// let report = sw.report();
/// // At half load the switch keeps up: arrivals ~ departures.
/// assert!(report.departures as f64 >= report.arrivals as f64 * 0.95);
/// ```
#[derive(Clone, Debug)]
pub struct CrossbarSwitch<S, const W: usize = 4> {
    scheduler: S,
    voq: VoqBuffers<W>,
    metrics: ModelMetrics,
    /// Port health, updated by applied fault events and pushed to the
    /// scheduler only when it changes (so unfaulted runs never touch it).
    mask: PortMaskN<W>,
    /// Scheduling is suspended while `slot < drift_until` (clock-drift
    /// excursions, §2).
    drift_until: u64,
}

impl<S: Scheduler<W>, const W: usize> CrossbarSwitch<S, W> {
    /// Creates a switch around `scheduler`, sized by the scheduler's own
    /// port count where available; here the size is taken from the first
    /// request matrix, so the scheduler must be constructed for the
    /// intended radix.
    pub fn new(scheduler: S) -> Self
    where
        S: SizedScheduler<W>,
    {
        let n = scheduler.ports();
        Self::with_ports(n, scheduler)
    }

    /// Creates a switch of explicit radix `n` around `scheduler`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > W * 64`. (A mismatch with the
    /// scheduler's own size surfaces as a panic on the first step.)
    pub fn with_ports(n: usize, scheduler: S) -> Self {
        CrossbarSwitch {
            scheduler,
            voq: VoqBuffers::new(n),
            metrics: ModelMetrics::new(n),
            mask: PortMaskN::all(n),
            drift_until: 0,
        }
    }

    /// The underlying scheduler.
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// Mutable access to the underlying scheduler (e.g. to adjust
    /// statistical-matching reservations mid-run).
    pub fn scheduler_mut(&mut self) -> &mut S {
        &mut self.scheduler
    }

    /// The input buffers (for occupancy inspection).
    pub fn buffers(&self) -> &VoqBuffers<W> {
        &self.voq
    }

    /// Mutable access to the input buffers (e.g. to configure a finite
    /// per-VOQ capacity before a fault run).
    pub fn buffers_mut(&mut self) -> &mut VoqBuffers<W> {
        &mut self.voq
    }

    /// The current port health mask.
    pub fn port_mask(&self) -> PortMaskN<W> {
        self.mask
    }

    /// Advances one slot under a fault plan: applies the plan's events due
    /// this slot (masking ports, losing arrivals, suspending scheduling
    /// during clock drift), then runs the ordinary arrival/schedule/
    /// transmit sequence, recording every applied fault and lost cell in
    /// `log`.
    ///
    /// The `switch` tag on events is ignored — the single-switch harness
    /// applies every due event to itself; build per-switch plans when
    /// driving several switches. With an empty plan this is bit-identical
    /// to [`SwitchModel::step`] (the acceptance bar for the fault layer
    /// being zero-impact when idle).
    ///
    /// # Panics
    ///
    /// Panics on the usual arrival violations, or if an event names a port
    /// outside the switch.
    pub fn step_faulted(&mut self, arrivals: &[Arrival], plan: &mut FaultPlan, log: &mut FaultLog) {
        let slot = self.metrics.slot();
        let mut injected = PortSetN::new();
        let mut corrupted = PortSetN::new();
        let mut mask_changed = false;
        for ev in plan.due(slot) {
            match ev.kind {
                FaultKind::LinkDown { output, .. } => {
                    mask_changed |= self.mask.fail_output(output);
                }
                FaultKind::LinkUp { output, .. } => {
                    mask_changed |= self.mask.recover_output(output);
                }
                FaultKind::PortFail { side, port, .. } => {
                    mask_changed |= match side {
                        PortSide::Input => self.mask.fail_input(port),
                        PortSide::Output => self.mask.fail_output(port),
                    };
                }
                FaultKind::PortRecover { side, port, .. } => {
                    mask_changed |= match side {
                        PortSide::Input => self.mask.recover_input(port),
                        PortSide::Output => self.mask.recover_output(port),
                    };
                }
                FaultKind::CellDrop { input, .. } => {
                    injected.insert(input);
                }
                FaultKind::CellCorrupt { input, .. } => {
                    corrupted.insert(input);
                }
                FaultKind::ClockDrift { slots, .. } => {
                    self.drift_until = self.drift_until.max(slot.saturating_add(slots));
                }
            }
            log.record_applied(*ev);
        }
        if mask_changed {
            self.scheduler.set_port_mask(self.mask);
        }
        let skip_schedule = slot < self.drift_until;
        self.advance_slot(arrivals, &injected, &corrupted, skip_schedule, Some(log));
    }

    /// The per-slot engine shared by [`SwitchModel::step`] (no faults) and
    /// [`CrossbarSwitch::step_faulted`].
    fn advance_slot(
        &mut self,
        arrivals: &[Arrival],
        injected: &PortSetN<W>,
        corrupted: &PortSetN<W>,
        skip_schedule: bool,
        mut log: Option<&mut FaultLog>,
    ) {
        let slot = self.metrics.slot();
        validate_arrivals(self.n(), arrivals);
        // 1. Arrivals join their flow queues and become eligible at once
        //    ("any flows that have had cells arrive at the switch in the
        //    meantime" are considered, §3.1) — unless a fault consumes them
        //    on the wire or the VOQ is at capacity.
        for a in arrivals {
            let faulted = if injected.contains(a.input.index()) {
                Some(DropCause::Injected)
            } else if corrupted.contains(a.input.index()) {
                Some(DropCause::Corrupted)
            } else {
                None
            };
            if let Some(cause) = faulted {
                if let Some(log) = log.as_deref_mut() {
                    log.record_drop(slot, 0, a.input.index(), a.flow.0, cause);
                }
                continue;
            }
            if self.voq.push(a.into_cell(slot)).is_admitted() {
                self.metrics.on_arrival();
            } else if let Some(log) = log.as_deref_mut() {
                log.record_drop(slot, 0, a.input.index(), a.flow.0, DropCause::BufferFull);
            }
        }
        if !skip_schedule {
            // 2. Schedule the crossbar from the request matrix. Queue-aware
            //    schedulers first get told what stands behind each request:
            //    the pair's VOQ depth and its head-of-line cell age. The
            //    walk covers exactly the active pairs (every requested pair
            //    has a queued cell by construction), so queue-oblivious
            //    schedulers pay nothing and weighted ones see fresh weights
            //    for every pair they may legally match.
            let requests = self.voq.requests();
            if self.scheduler.wants_queue_observations() {
                for (i, j) in requests.pairs() {
                    let depth = saturate_u32(self.voq.pair_occupancy(i, j));
                    let age = self
                        .voq
                        .pair_head_arrival(i, j)
                        .map_or(0, |arrived| saturate_u32(slot.saturating_sub(arrived)));
                    self.scheduler.observe_queue(i, j, depth, age);
                }
            }
            let matching = self.scheduler.schedule(requests);
            debug_assert!(
                matching.respects(requests),
                "{} scheduled a pair with no queued cell",
                self.scheduler.name()
            );
            // 3. Matched pairs transmit one cell each.
            for (i, j) in matching.pairs() {
                let cell = self
                    .voq
                    .pop(i, j)
                    .expect("scheduler contract: matched pairs have queued cells");
                self.metrics.on_voq_departure(&cell);
            }
        }
        self.metrics.end_slot(self.voq.len());
    }

    /// Loads a queue snapshot directly into the buffers, bypassing the
    /// one-cell-per-input-per-slot link constraint. Used to set up
    /// scenario states like the paper's Figure 1 (queues that accumulated
    /// before the observation window); cells are stamped with the current
    /// slot.
    ///
    /// Returns the number of cells that were *not* admitted (non-zero only
    /// with a finite per-VOQ capacity); callers must account for them so
    /// the conservation ledger stays balanced.
    ///
    /// # Panics
    ///
    /// Panics if any port is out of range or a flow changes output.
    #[must_use = "dropped preload cells must feed the conservation ledger"]
    pub fn preload(&mut self, arrivals: &[crate::cell::Arrival]) -> usize {
        let slot = self.metrics.slot();
        let mut dropped = 0;
        for a in arrivals {
            if self.voq.push(a.into_cell(slot)).is_admitted() {
                self.metrics.on_arrival();
            } else {
                dropped += 1;
            }
        }
        dropped
    }
}

impl<S: Scheduler<W>, const W: usize> SwitchModel for CrossbarSwitch<S, W> {
    fn n(&self) -> usize {
        self.voq.n()
    }

    fn name(&self) -> &'static str {
        self.scheduler.name()
    }

    fn step(&mut self, arrivals: &[Arrival]) {
        let none = PortSetN::new();
        self.advance_slot(arrivals, &none, &none, false, None);
    }

    fn queued(&self) -> usize {
        self.voq.len()
    }

    fn start_measurement(&mut self) {
        self.metrics.restart();
        self.voq.reset_flow_departures();
    }

    fn report(&self) -> SwitchReport {
        self.metrics.report_voq(self.voq.len(), &[&self.voq])
    }
}

/// Narrows a queue depth or cell age to the `u32` a queue observation
/// carries, saturating: a weight past `u32::MAX` stays the largest weight
/// instead of wrapping to a small one.
fn saturate_u32<T: TryInto<u32>>(v: T) -> u32 {
    v.try_into().unwrap_or(u32::MAX)
}

/// Schedulers that know their own port count, enabling
/// [`CrossbarSwitch::new`] to size the buffers automatically.
pub trait SizedScheduler<const W: usize = 4>: Scheduler<W> {
    /// The switch radix this scheduler was built for.
    fn ports(&self) -> usize;
}

impl<R: an2_sched::rng::SelectRng, const W: usize> SizedScheduler<W> for an2_sched::PimN<R, W> {
    fn ports(&self) -> usize {
        self.n()
    }
}

impl<S: SizedScheduler<W>, const W: usize> SizedScheduler<W> for an2_sched::CheckedScheduler<S, W> {
    fn ports(&self) -> usize {
        self.inner().ports()
    }
}

impl<const W: usize> SizedScheduler<W> for an2_sched::islip::RoundRobinMatchingN<W> {
    fn ports(&self) -> usize {
        self.n()
    }
}

impl<R: an2_sched::rng::SelectRng> SizedScheduler for an2_sched::stat::StatWithPimFill<R> {
    fn ports(&self) -> usize {
        self.stat().table().n()
    }
}

impl<const W: usize> SizedScheduler<W> for an2_sched::MwmN<W> {
    fn ports(&self) -> usize {
        self.n()
    }
}

impl<const W: usize> SizedScheduler<W> for an2_sched::SerenadeN<W> {
    fn ports(&self) -> usize {
        self.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{RateMatrixTraffic, TraceTraffic, Traffic};
    use an2_sched::maximum::MaximumMatching;
    use an2_sched::{AcceptPolicy, InputPort, IterationLimit, OutputPort, Pim};

    fn drive(model: &mut dyn SwitchModel, traffic: &mut dyn Traffic, slots: u64) {
        let mut buf = Vec::new();
        for s in 0..slots {
            buf.clear();
            traffic.arrivals(s, &mut buf);
            model.step(&buf);
        }
    }

    #[test]
    fn conservation_arrivals_equal_departures_plus_queued() {
        let mut sw = CrossbarSwitch::new(Pim::new(8, 3));
        let mut t = RateMatrixTraffic::uniform(8, 0.9, 4);
        drive(&mut sw, &mut t, 5000);
        let r = sw.report();
        assert_eq!(r.arrivals, r.departures + r.final_occupancy as u64);
    }

    #[test]
    fn single_cell_crosses_with_zero_delay() {
        let mut sw = CrossbarSwitch::new(Pim::new(4, 0));
        let mut t = TraceTraffic::new(4, [(0, 2, 3)]);
        drive(&mut sw, &mut t, 2);
        let r = sw.report();
        assert_eq!(r.departures, 1);
        assert_eq!(r.delay.mean(), 0.0);
        assert_eq!(r.departures_per_output[3], 1);
        assert_eq!(sw.queued(), 0);
    }

    #[test]
    fn contention_serializes_departures() {
        // Three inputs send to output 0 in the same slot: departures occur
        // over three consecutive slots, delays {0, 1, 2} in some order.
        let mut sw = CrossbarSwitch::new(Pim::new(4, 1));
        let mut t = TraceTraffic::new(4, [(0, 0, 0), (0, 1, 0), (0, 2, 0)]);
        drive(&mut sw, &mut t, 5);
        let r = sw.report();
        assert_eq!(r.departures, 3);
        assert_eq!(r.delay.max(), 2);
        assert!((r.delay.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn queue_observations_reach_the_scheduler() {
        use crate::cell::{Arrival, FlowId};
        // Inputs 0 and 1 contend for output 0; input 1's VOQ is deeper, so
        // LQF-weighted MWM must serve it first — proof the depth/age walk
        // in advance_slot actually lands in the scheduler's Q-matrix.
        let mut sw = CrossbarSwitch::new(an2_sched::Mwm::lqf(4));
        let shallow = Arrival {
            input: InputPort::new(0),
            output: OutputPort::new(0),
            flow: FlowId(1),
        };
        let deep = Arrival {
            input: InputPort::new(1),
            output: OutputPort::new(0),
            flow: FlowId(2),
        };
        let dropped = sw.preload(&[shallow, deep, deep, deep]);
        assert_eq!(dropped, 0);
        sw.step(&[]);
        assert_eq!(sw.voq.pair_occupancy(InputPort::new(0), OutputPort::new(0)), 1);
        assert_eq!(sw.voq.pair_occupancy(InputPort::new(1), OutputPort::new(0)), 2);
        // OCF flips the preference once input 0's head cell is the elder:
        // both heads arrived at slot 0, age ties at the next slot, and the
        // tie breaks to the lower input index — input 0 drains first.
        let mut sw = CrossbarSwitch::new(an2_sched::Mwm::ocf(4));
        let dropped = sw.preload(&[shallow, deep, deep, deep]);
        assert_eq!(dropped, 0);
        sw.step(&[]);
        assert_eq!(sw.voq.pair_occupancy(InputPort::new(0), OutputPort::new(0)), 0);
        assert_eq!(sw.voq.pair_occupancy(InputPort::new(1), OutputPort::new(0)), 3);
    }

    #[test]
    fn serenade_switch_conserves_cells() {
        let mut sw = CrossbarSwitch::new(an2_sched::Serenade::new(8, 21));
        let mut t = RateMatrixTraffic::uniform(8, 0.8, 13);
        drive(&mut sw, &mut t, 3000);
        let r = sw.report();
        assert_eq!(sw.name(), "serenade");
        assert_eq!(r.arrivals, r.departures + r.final_occupancy as u64);
    }

    #[test]
    fn maximum_matching_switch_also_works() {
        let mut sw = CrossbarSwitch::with_ports(8, MaximumMatching::new());
        let mut t = RateMatrixTraffic::uniform(8, 0.95, 9);
        drive(&mut sw, &mut t, 4000);
        let r = sw.report();
        assert_eq!(sw.name(), "maximum");
        // At 0.95 uniform load a maximum-matching switch keeps up.
        assert!(r.final_occupancy < 500, "occupancy {}", r.final_occupancy);
    }

    #[test]
    fn start_measurement_truncates_transient() {
        let mut sw = CrossbarSwitch::new(Pim::new(4, 5));
        let mut t = RateMatrixTraffic::uniform(4, 0.8, 6);
        drive(&mut sw, &mut t, 1000);
        sw.start_measurement();
        let r0 = sw.report();
        assert_eq!(r0.departures, 0);
        assert_eq!(r0.slots, 0);
        drive(&mut sw, &mut t, 1000);
        let r = sw.report();
        assert_eq!(r.slots, 1000);
        assert!(r.departures > 0);
    }

    #[test]
    fn pim_four_iterations_sustains_full_uniform_load_nearly() {
        // Peak throughput of PIM(4) under uniform load approaches 1.0
        // (Figure 3); with offered load 1.0 the queue must grow far slower
        // than a FIFO switch's would.
        let mut sw = CrossbarSwitch::new(Pim::new(16, 7));
        let mut t = RateMatrixTraffic::uniform(16, 1.0, 8);
        drive(&mut sw, &mut t, 20_000);
        let r = sw.report();
        let util = r.mean_output_utilization();
        assert!(util > 0.93, "PIM(4) uniform saturation utilization {util}");
    }

    #[test]
    fn step_faulted_with_empty_plan_matches_step() {
        use crate::fault::{FaultLog, FaultPlan};
        let mut plain = CrossbarSwitch::new(Pim::new(8, 3));
        let mut faulted = CrossbarSwitch::new(Pim::new(8, 3));
        let mut ta = RateMatrixTraffic::uniform(8, 0.9, 4);
        let mut tb = RateMatrixTraffic::uniform(8, 0.9, 4);
        let mut plan = FaultPlan::new();
        let mut log = FaultLog::new();
        let mut buf = Vec::new();
        for s in 0..500 {
            buf.clear();
            ta.arrivals(s, &mut buf);
            plain.step(&buf);
            buf.clear();
            tb.arrivals(s, &mut buf);
            faulted.step_faulted(&buf, &mut plan, &mut log);
        }
        let (a, b) = (plain.report(), faulted.report());
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.departures, b.departures);
        assert_eq!(a.final_occupancy, b.final_occupancy);
        assert_eq!(a.delay.max(), b.delay.max());
        assert_eq!(log.digest(), FaultLog::new().digest());
    }

    #[test]
    fn port_fail_halts_output_until_recovery() {
        use crate::fault::{FaultEvent, FaultKind, FaultLog, FaultPlan, PortSide};
        // Persistent traffic to output 1; fail it for slots 10..20.
        let mut sw = CrossbarSwitch::new(Pim::new(4, 9));
        let mut plan = FaultPlan::from_events(vec![
            FaultEvent {
                slot: 10,
                kind: FaultKind::PortFail {
                    switch: 0,
                    side: PortSide::Output,
                    port: 1,
                },
            },
            FaultEvent {
                slot: 20,
                kind: FaultKind::PortRecover {
                    switch: 0,
                    side: PortSide::Output,
                    port: 1,
                },
            },
        ]);
        let mut log = FaultLog::new();
        let arrivals = [Arrival::pair(4, InputPort::new(0), OutputPort::new(1))];
        let mut departed_at = Vec::new();
        for s in 0..40u64 {
            let before = sw.report().departures;
            sw.step_faulted(&arrivals, &mut plan, &mut log);
            if sw.report().departures > before {
                departed_at.push(s);
            }
        }
        assert!(sw.port_mask().is_full(), "recovery restored the mask");
        // No departures while the output was failed.
        assert!(departed_at.iter().all(|&s| !(10..20).contains(&s)));
        // Service before the failure and after recovery.
        assert!(departed_at.contains(&5));
        assert!(departed_at.contains(&25));
        assert_eq!(log.applied().len(), 2);
    }

    #[test]
    fn injected_and_corrupted_arrivals_are_logged_drops() {
        use crate::fault::{DropCause, FaultEvent, FaultKind, FaultLog, FaultPlan};
        let mut sw = CrossbarSwitch::new(Pim::new(4, 9));
        let mut plan = FaultPlan::from_events(vec![
            FaultEvent {
                slot: 0,
                kind: FaultKind::CellDrop { switch: 0, input: 0 },
            },
            FaultEvent {
                slot: 1,
                kind: FaultKind::CellCorrupt { switch: 0, input: 0 },
            },
        ]);
        let mut log = FaultLog::new();
        let arrivals = [Arrival::pair(4, InputPort::new(0), OutputPort::new(1))];
        for _ in 0..3 {
            sw.step_faulted(&arrivals, &mut plan, &mut log);
        }
        // Slots 0 and 1 lost their arrival; slot 2's got through.
        assert_eq!(log.cells_dropped(), 2);
        assert_eq!(log.drops()[0].cause, DropCause::Injected);
        assert_eq!(log.drops()[1].cause, DropCause::Corrupted);
        assert_eq!(sw.report().arrivals, 1);
    }

    #[test]
    fn clock_drift_suspends_scheduling_but_not_buffering() {
        use crate::fault::{FaultEvent, FaultKind, FaultLog, FaultPlan};
        let mut sw = CrossbarSwitch::new(Pim::new(4, 9));
        let mut plan = FaultPlan::from_events(vec![FaultEvent {
            slot: 0,
            kind: FaultKind::ClockDrift { switch: 0, slots: 5 },
        }]);
        let mut log = FaultLog::new();
        let arrivals = [Arrival::pair(4, InputPort::new(2), OutputPort::new(3))];
        for _ in 0..5 {
            sw.step_faulted(&arrivals, &mut plan, &mut log);
        }
        // All five arrivals buffered, none scheduled during the excursion.
        assert_eq!(sw.report().arrivals, 5);
        assert_eq!(sw.report().departures, 0);
        sw.step_faulted(&arrivals, &mut plan, &mut log);
        assert!(sw.report().departures > 0, "scheduling resumed after drift");
    }

    #[test]
    fn buffer_full_drops_are_logged() {
        use crate::fault::{DropCause, FaultLog, FaultPlan};
        let mut sw = CrossbarSwitch::new(Pim::new(4, 9));
        sw.buffers_mut().set_pair_capacity(Some(1));
        let mut plan = FaultPlan::new();
        let mut log = FaultLog::new();
        // Two inputs fight for output 0: each slot one wins, the loser's
        // VOQ holds its one queued cell, so the loser's next arrival drops.
        let arrivals = [
            Arrival::pair(4, InputPort::new(0), OutputPort::new(0)),
            Arrival::pair(4, InputPort::new(1), OutputPort::new(0)),
        ];
        for _ in 0..10 {
            sw.step_faulted(&arrivals, &mut plan, &mut log);
        }
        assert!(log.cells_dropped() > 0);
        assert!(log.drops().iter().all(|d| d.cause == DropCause::BufferFull));
        assert_eq!(sw.buffers().drops(), log.cells_dropped());
        let r = sw.report();
        assert_eq!(r.arrivals, r.departures + r.final_occupancy as u64);
    }

    #[test]
    fn queue_observation_weights_saturate() {
        let past = u64::from(u32::MAX) + 1;
        assert_eq!(saturate_u32(past), u32::MAX);
        assert_eq!(saturate_u32(u64::MAX), u32::MAX);
        assert_eq!(saturate_u32(u64::from(u32::MAX)), u32::MAX);
        assert_eq!(saturate_u32(past as usize), u32::MAX);
        assert_eq!(saturate_u32(7usize), 7);
        // A truncating cast would have wrapped the oldest age to zero.
        assert_eq!(past as u32, 0);
    }

    #[test]
    fn scheduler_accessors() {
        let mut sw = CrossbarSwitch::new(Pim::with_options(
            4,
            2,
            IterationLimit::Fixed(2),
            AcceptPolicy::Random,
        ));
        assert_eq!(sw.scheduler().n(), 4);
        let _ = sw.scheduler_mut();
        assert_eq!(sw.buffers().n(), 4);
        assert_eq!(
            sw.buffers().pair_occupancy(InputPort::new(0), OutputPort::new(0)),
            0
        );
    }
}
