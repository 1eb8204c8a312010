//! The input-queued crossbar switch (the AN2 organization).
//!
//! Cells wait in random-access input buffers, one FIFO per input–output
//! pair; once per slot a [`Scheduler`] — PIM in the paper, but any
//! implementation of the trait — computes a conflict-free matching from
//! the request matrix, and the matched cells cross the crossbar (§3.1).
//! Cells are never dropped.
//!
//! [`CrossbarSwitch`] is a thin face over the one single-switch engine,
//! [`BatchCrossbar`]: the same slot loop (fault events, arrivals, queue
//! observations, scheduling, transmission, metrics) under the scheduler's
//! own name, sized from the scheduler where it knows its radix. Every
//! arrival's flow is its input–output pair ([`Arrival::pair`]); with one
//! flow per pair the paper's per-flow round robin inside a pair (§3.3) is
//! plain FIFO order. Chains where several flows share a pair run on the
//! network simulator's per-flow buffers (`an2_net::flows`) instead.

use crate::batch::BatchCrossbar;
use crate::cell::Arrival;
use crate::fault::{FaultLog, FaultPlan};
use crate::metrics::SwitchReport;
use crate::model::SwitchModel;
use an2_sched::{PortMaskN, Scheduler};

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
#[derive(Debug)]
pub struct CrossbarSwitch<S, const W: usize = 4>(BatchCrossbar<S, W>);

impl<S: Scheduler<W>, const W: usize> CrossbarSwitch<S, W> {
    /// Creates a switch around `scheduler`, sized by the scheduler's own
    /// port count.
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
        CrossbarSwitch(BatchCrossbar::new(n, scheduler))
    }

    /// The underlying scheduler.
    pub fn scheduler(&self) -> &S {
        self.0.scheduler()
    }

    /// The engine holding the input buffers (for occupancy, request and
    /// ledger inspection).
    pub fn buffers(&self) -> &BatchCrossbar<S, W> {
        &self.0
    }

    /// The current port health mask.
    pub fn port_mask(&self) -> PortMaskN<W> {
        self.0.port_mask()
    }

    /// Advances one slot under a fault plan; see
    /// [`BatchCrossbar::step_faulted`]. With an empty plan this is
    /// bit-identical to [`SwitchModel::step`].
    ///
    /// # Panics
    ///
    /// Panics on the usual arrival violations, or if an event names a port
    /// outside the switch.
    pub fn step_faulted(&mut self, arrivals: &[Arrival], plan: &mut FaultPlan, log: &mut FaultLog) {
        self.0.step_faulted(arrivals, plan, log);
    }

    /// Loads a queue snapshot directly into the buffers; see
    /// [`BatchCrossbar::preload`].
    ///
    /// # Panics
    ///
    /// Panics if any port is out of range or a flow id is not its pair's.
    pub fn preload(&mut self, arrivals: &[Arrival]) {
        self.0.preload(arrivals);
    }
}

impl<S: Scheduler<W>, const W: usize> SwitchModel for CrossbarSwitch<S, W> {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn name(&self) -> &'static str {
        self.0.scheduler().name()
    }

    fn step(&mut self, arrivals: &[Arrival]) {
        self.0.step_slot(arrivals);
    }

    fn queued(&self) -> usize {
        self.0.queued()
    }

    fn start_measurement(&mut self) {
        self.0.start_measurement();
    }

    fn start_at_slot(&mut self, slot: u64) {
        self.0.start_at_slot(slot);
    }

    fn report(&self) -> SwitchReport {
        self.0.report()
    }
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
        // Inputs 0 and 1 contend for output 0; input 1's queue is deeper,
        // so LQF-weighted MWM must serve it first — proof the depth/age
        // walk actually lands in the scheduler's Q-matrix.
        let (i0, i1, j0) = (InputPort::new(0), InputPort::new(1), OutputPort::new(0));
        let (shallow, deep) = (Arrival::pair(4, i0, j0), Arrival::pair(4, i1, j0));
        let mut sw = CrossbarSwitch::new(an2_sched::Mwm::lqf(4));
        sw.preload(&[shallow, deep, deep, deep]);
        assert_eq!((sw.queued(), sw.report().arrivals), (4, 4));
        sw.step(&[]);
        assert_eq!(sw.buffers().pair_occupancy(i0, j0), 1);
        assert_eq!(sw.buffers().pair_occupancy(i1, j0), 2);
        // OCF flips the preference once input 0's head cell is the elder:
        // both heads arrived at slot 0, age ties at the next slot, and the
        // tie breaks to the lower input index — input 0 drains first.
        let mut sw = CrossbarSwitch::new(an2_sched::Mwm::ocf(4));
        sw.preload(&[shallow, deep, deep, deep]);
        sw.step(&[]);
        assert_eq!(sw.buffers().pair_occupancy(i0, j0), 0);
        assert_eq!(sw.buffers().pair_occupancy(i1, j0), 3);
    }

    #[test]
    fn queue_ages_count_slots_since_the_head_arrived() {
        // OCF serves the pair whose head cell is older: input 1's cell
        // arrives at slot 0, input 0's at slot 3, and output 0 stays
        // failed until slot 5, so both wait and the age order decides.
        use crate::fault::{FaultEvent, FaultKind, FaultLog, FaultPlan, PortSide};
        let (i0, i1, j0) = (InputPort::new(0), InputPort::new(1), OutputPort::new(0));
        let port = |slot, fail| FaultEvent {
            slot,
            kind: if fail {
                FaultKind::PortFail {
                    switch: 0,
                    side: PortSide::Output,
                    port: 0,
                }
            } else {
                FaultKind::PortRecover {
                    switch: 0,
                    side: PortSide::Output,
                    port: 0,
                }
            },
        };
        let mut sw = CrossbarSwitch::new(an2_sched::Mwm::ocf(4));
        let mut plan = FaultPlan::from_events(vec![port(0, true), port(5, false)]);
        let mut log = FaultLog::new();
        for slot in 0..6 {
            let arrivals = match slot {
                0 => vec![Arrival::pair(4, i1, j0)],
                3 => vec![Arrival::pair(4, i0, j0)],
                _ => Vec::new(),
            };
            sw.step_faulted(&arrivals, &mut plan, &mut log);
        }
        assert_eq!(sw.buffers().pair_occupancy(i0, j0), 1);
        assert_eq!(
            sw.buffers().pair_occupancy(i1, j0),
            0,
            "the elder head went first"
        );
        assert_eq!(sw.report().delay.max(), 5);
    }

    #[test]
    #[should_panic(expected = "one flow per pair")]
    fn non_pair_flows_are_rejected() {
        let mut sw = CrossbarSwitch::new(Pim::new(4, 1));
        let mut a = Arrival::pair(4, InputPort::new(0), OutputPort::new(1));
        a.flow = crate::cell::FlowId(99);
        sw.step(&[a]);
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
        // Both losses are charged to the pair they struck.
        assert_eq!(sw.buffers().pair_drops(0, 1), 2);
        assert_eq!(sw.buffers().offered(), 3);
    }

    /// A preload counts every snapshot cell as an arrival, so scenario
    /// setups feed the ledger too, and the cells drain in arrival order.
    #[test]
    fn preload_feeds_the_ledger() {
        let n = 4;
        let mut sw = CrossbarSwitch::new(Pim::new(n, 1));
        let snapshot = [Arrival::pair(n, InputPort::new(0), OutputPort::new(0)); 5];
        sw.preload(&snapshot);
        assert_eq!(sw.queued(), 5);
        assert_eq!(
            sw.buffers()
                .pair_occupancy(InputPort::new(0), OutputPort::new(0)),
            5
        );
        let report = sw.report();
        assert_eq!(report.arrivals, 5);
        assert!(report.is_conserved());
        while sw.queued() > 0 {
            sw.step(&[]);
        }
        let report = sw.report();
        assert_eq!((report.departures, report.slots), (5, 5));
        assert_eq!(report.delay.max(), 4, "one departure per slot, FIFO");
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
    fn scheduler_accessors() {
        let sw = CrossbarSwitch::new(Pim::with_options(
            4,
            2,
            IterationLimit::Fixed(2),
            AcceptPolicy::Random,
        ));
        assert_eq!(sw.scheduler().n(), 4);
        assert_eq!(sw.buffers().n(), 4);
        let serenade = CrossbarSwitch::new(an2_sched::Serenade::new(8, 21));
        assert_eq!(serenade.name(), "serenade");
        assert_eq!(
            sw.buffers().pair_occupancy(InputPort::new(0), OutputPort::new(0)),
            0
        );
    }
}
