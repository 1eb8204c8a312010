//! Deterministic fault injection for the switch and network simulators.
//!
//! The paper's AN2 design assumes a fabric that can misbehave — §2's
//! unsynchronized clocks drift, links fail, cells are corrupted in flight —
//! and the reservation machinery of §5 is sized for finite buffers. This
//! module supplies the misbehaviour: a [`FaultPlan`] is an ordered list of
//! slot-stamped [`FaultEvent`]s that a harness applies as simulated time
//! passes, and a [`FaultLog`] records what actually happened (drops,
//! reroutes, re-reservations) in a form that digests to a single `u64` for
//! golden-determinism tests, exactly like PR 1's report digests.
//!
//! Everything here is deterministic: a plan is either scripted or generated
//! from a seed by [`FaultPlan::random`], which draws from its own
//! xoshiro stream so fault generation never perturbs traffic or scheduler
//! randomness.

use an2_sched::rng::{SelectRng, Xoshiro256};
use an2_sched::{PortMaskN, PortSetN};
use an2_task::Fnv;

/// Which side of a switch a [`FaultKind::PortFail`] affects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortSide {
    /// An input port (its receiver fails: queued cells stay, nothing new
    /// arrives or is scheduled from it).
    Input,
    /// An output port (its transmitter fails: no cell is scheduled to it).
    Output,
}

/// One kind of injected fault.
///
/// `switch` is the index of the affected switch. The single-switch engine
/// ([`crate::batch::BatchCrossbar::step_faulted`], which `CrossbarSwitch`
/// runs on) ignores the tag and applies every due event to itself; the
/// network simulators dispatch by it. The single-switch engine and the
/// sharded ring decode an event's effect on one switch through
/// [`SwitchFaults::apply`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The link leaving `switch` through output `output` goes down: the
    /// output is masked and cells in flight on the link are lost.
    LinkDown {
        /// Switch whose outgoing link fails.
        switch: usize,
        /// Output port the link is attached to.
        output: usize,
    },
    /// The link leaving `switch` through `output` comes back up.
    LinkUp {
        /// Switch whose outgoing link recovers.
        switch: usize,
        /// Output port the link is attached to.
        output: usize,
    },
    /// A port of `switch` fails and is masked out of scheduling.
    PortFail {
        /// Affected switch.
        switch: usize,
        /// Which side the port is on.
        side: PortSide,
        /// Port index.
        port: usize,
    },
    /// A previously failed port recovers.
    PortRecover {
        /// Affected switch.
        switch: usize,
        /// Which side the port is on.
        side: PortSide,
        /// Port index.
        port: usize,
    },
    /// The cell arriving at `input` of `switch` this slot is lost (e.g. a
    /// receiver glitch). No-op if nothing arrives that slot.
    CellDrop {
        /// Affected switch.
        switch: usize,
        /// Input port whose arrival is lost.
        input: usize,
    },
    /// The cell arriving at `input` of `switch` this slot is corrupted;
    /// the CRC check discards it on arrival (§2: cells carry a checksum).
    CellCorrupt {
        /// Affected switch.
        switch: usize,
        /// Input port whose arrival is corrupted.
        input: usize,
    },
    /// `switch`'s clock drifts beyond the resynchronization tolerance for
    /// `slots` slots: the switch keeps buffering arrivals but cannot
    /// schedule its crossbar until the excursion ends (§2's unsynchronized
    /// clock model).
    ClockDrift {
        /// Affected switch.
        switch: usize,
        /// Length of the excursion in slots.
        slots: u64,
    },
}

impl FaultKind {
    /// The switch index this fault targets.
    pub fn switch(&self) -> usize {
        match *self {
            FaultKind::LinkDown { switch, .. }
            | FaultKind::LinkUp { switch, .. }
            | FaultKind::PortFail { switch, .. }
            | FaultKind::PortRecover { switch, .. }
            | FaultKind::CellDrop { switch, .. }
            | FaultKind::CellCorrupt { switch, .. }
            | FaultKind::ClockDrift { switch, .. } => switch,
        }
    }

    /// A small stable discriminant used by the log digest.
    fn tag(&self) -> u64 {
        match self {
            FaultKind::LinkDown { .. } => 1,
            FaultKind::LinkUp { .. } => 2,
            FaultKind::PortFail { .. } => 3,
            FaultKind::PortRecover { .. } => 4,
            FaultKind::CellDrop { .. } => 5,
            FaultKind::CellCorrupt { .. } => 6,
            FaultKind::ClockDrift { .. } => 7,
        }
    }

    /// Folds the kind's fields into the digest words.
    fn fold(&self, d: &mut Fnv) {
        d.u64(self.tag());
        match *self {
            FaultKind::LinkDown { switch, output } | FaultKind::LinkUp { switch, output } => {
                d.u64(switch as u64);
                d.u64(output as u64);
            }
            FaultKind::PortFail { switch, side, port }
            | FaultKind::PortRecover { switch, side, port } => {
                d.u64(switch as u64);
                d.u64(matches!(side, PortSide::Output) as u64);
                d.u64(port as u64);
            }
            FaultKind::CellDrop { switch, input } | FaultKind::CellCorrupt { switch, input } => {
                d.u64(switch as u64);
                d.u64(input as u64);
            }
            FaultKind::ClockDrift { switch, slots } => {
                d.u64(switch as u64);
                d.u64(slots);
            }
        }
    }
}

/// A fault scheduled to strike at a particular slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Slot (simulated time) at which the fault strikes.
    pub slot: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// An ordered, slot-stamped schedule of faults.
///
/// Events are kept sorted by slot (stable for equal slots, so scripting
/// order is preserved within a slot) and consumed in order by
/// [`FaultPlan::due`] as the harness's clock advances.
///
/// # Examples
///
/// ```
/// use an2_sim::fault::{FaultEvent, FaultKind, FaultPlan};
/// let mut plan = FaultPlan::from_events(vec![
///     FaultEvent { slot: 10, kind: FaultKind::LinkDown { switch: 0, output: 2 } },
///     FaultEvent { slot: 40, kind: FaultKind::LinkUp { switch: 0, output: 2 } },
/// ]);
/// assert_eq!(plan.len(), 2);
/// assert!(plan.due(5).is_empty());
/// assert_eq!(plan.due(10).len(), 1);
/// assert_eq!(plan.due(100).len(), 1); // only the not-yet-consumed event
/// assert_eq!(plan.remaining(), 0);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Sorted by slot; `cursor` marks the first not-yet-delivered event.
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultPlan {
    /// An empty plan — applying it must leave any harness bit-identical to
    /// a run without a fault layer at all.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a plan from `events`, stable-sorting them by slot.
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.slot);
        Self { events, cursor: 0 }
    }

    /// Adds one more event, keeping the schedule sorted.
    ///
    /// # Panics
    ///
    /// Panics if the event's slot precedes events already consumed by
    /// [`FaultPlan::due`] — the past cannot be re-scripted.
    // an2-lint: allow(panic-freedom) sift indices stay within the backing Vec's len by the heap invariant
    pub fn push(&mut self, event: FaultEvent) {
        if let Some(last_taken) = self.cursor.checked_sub(1) {
            assert!(
                event.slot >= self.events[last_taken].slot,
                "cannot schedule a fault at slot {} after slot {} was delivered",
                event.slot,
                self.events[last_taken].slot
            );
        }
        let pos = self.events[self.cursor..]
            .partition_point(|e| e.slot <= event.slot)
            + self.cursor;
        self.events.insert(pos, event);
    }

    /// Total scripted events (delivered and pending).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events were scripted at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events not yet delivered.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// All scripted events in slot order, without consuming them — the
    /// read-only view SLO analysis uses to locate fault and recovery
    /// windows before (or after) a harness drains the plan via `due`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Returns the events due at or before `slot` that have not been
    /// returned yet, advancing the internal cursor past them. Call once
    /// per slot with a non-decreasing clock.
    // an2-lint: allow(overflow-discipline) the drained count is bounded by the plan's event count
    // an2-lint: allow(panic-freedom) drained events index the heap within len; the ordering debug_asserts pin the invariant
    pub fn due(&mut self, slot: u64) -> &[FaultEvent] {
        let start = self.cursor;
        let count = self.events[start..].partition_point(|e| e.slot <= slot);
        self.cursor = start + count;
        &self.events[start..self.cursor]
    }

    /// Generates a reproducible random plan from `seed`. The generator has
    /// its own xoshiro stream, so plan generation is independent of every
    /// traffic and scheduler stream (same property PR 1's determinism suite
    /// relies on).
    ///
    /// Recovery events are paired with their failures (a `LinkDown` always
    /// gets a later `LinkUp`, a `PortFail` a later `PortRecover`), so a
    /// random plan degrades the fabric only transiently.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has zero switches, ports, events, or horizon.
    pub fn random(seed: u64, cfg: &RandomFaultConfig) -> Self {
        assert!(cfg.switches > 0, "need at least one switch");
        assert!(cfg.ports > 0, "need at least one port");
        assert!(cfg.horizon > 0, "horizon must be at least one slot");
        assert!(cfg.faults > 0, "generate at least one fault");
        let mut rng = Xoshiro256::seed_from(seed);
        let mut events = Vec::with_capacity(cfg.faults * 2);
        for _ in 0..cfg.faults {
            let slot = rng.next_u64() % cfg.horizon;
            let switch = rng.index(cfg.switches);
            let port = rng.index(cfg.ports);
            // Outage length for the paired recovery event.
            let outage = 1 + rng.next_u64() % cfg.max_outage.max(1);
            match rng.index(4) {
                0 => {
                    events.push(FaultEvent {
                        slot,
                        kind: FaultKind::LinkDown {
                            switch,
                            output: port,
                        },
                    });
                    events.push(FaultEvent {
                        slot: slot + outage,
                        kind: FaultKind::LinkUp {
                            switch,
                            output: port,
                        },
                    });
                }
                1 => {
                    let side = if rng.bernoulli(0.5) {
                        PortSide::Input
                    } else {
                        PortSide::Output
                    };
                    events.push(FaultEvent {
                        slot,
                        kind: FaultKind::PortFail { switch, side, port },
                    });
                    events.push(FaultEvent {
                        slot: slot + outage,
                        kind: FaultKind::PortRecover { switch, side, port },
                    });
                }
                2 => {
                    let kind = if rng.bernoulli(0.5) {
                        FaultKind::CellDrop {
                            switch,
                            input: port,
                        }
                    } else {
                        FaultKind::CellCorrupt {
                            switch,
                            input: port,
                        }
                    };
                    events.push(FaultEvent { slot, kind });
                }
                _ => {
                    events.push(FaultEvent {
                        slot,
                        kind: FaultKind::ClockDrift {
                            switch,
                            slots: outage,
                        },
                    });
                }
            }
        }
        Self::from_events(events)
    }
}

/// Parameters for [`FaultPlan::random`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RandomFaultConfig {
    /// Number of switches faults may target (indices `0..switches`).
    pub switches: usize,
    /// Ports per switch (indices `0..ports`).
    pub ports: usize,
    /// Failure slots are drawn from `0..horizon`.
    pub horizon: u64,
    /// Number of faults to script (paired recoveries come extra).
    pub faults: usize,
    /// Longest outage before the paired recovery event (slots, >= 1).
    pub max_outage: u64,
}

/// Why a cell was lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropCause {
    /// Drop-tail: the destination VOQ was at capacity.
    BufferFull,
    /// A scripted [`FaultKind::CellDrop`] consumed the arrival.
    Injected,
    /// A scripted [`FaultKind::CellCorrupt`] made the CRC check fail.
    Corrupted,
    /// The cell was in flight on (or forwarded into) a link that went down.
    DeadLink,
    /// The switch had no route for the cell's flow.
    NoRoute,
}

impl DropCause {
    fn tag(self) -> u64 {
        match self {
            DropCause::BufferFull => 1,
            DropCause::Injected => 2,
            DropCause::Corrupted => 3,
            DropCause::DeadLink => 4,
            DropCause::NoRoute => 5,
        }
    }
}

/// The fault state of one switch's slot loop: port health and the clock
/// drift bound. It is the one decoder of [`FaultKind`] events shared by
/// the batch engine ([`crate::batch::BatchCrossbar::step_faulted`]) and
/// the sharded ring's faulted slot.
///
/// Failed ports keep buffering arrivals; the mask only gates scheduling.
/// A fresh state has every port healthy and no drift, so a slot loop
/// driven by an empty plan never changes it.
#[derive(Clone, Copy, Debug)]
pub struct SwitchFaults<const W: usize> {
    mask: PortMaskN<W>,
    /// Scheduling is suspended while `slot < drift_until`.
    drift_until: u64,
}

impl<const W: usize> SwitchFaults<W> {
    /// A healthy `n`-port switch.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > W * 64`.
    pub fn new(n: usize) -> Self {
        Self {
            mask: PortMaskN::all(n),
            drift_until: 0,
        }
    }

    /// The current port health mask.
    pub fn mask(&self) -> PortMaskN<W> {
        self.mask
    }

    /// Replaces the port health mask.
    pub fn set_mask(&mut self, mask: PortMaskN<W>) {
        self.mask = mask;
    }

    /// Unmasks output `j`; returns whether the mask changed.
    pub fn recover_output(&mut self, j: usize) -> bool {
        self.mask.recover_output(j)
    }

    /// Whether the crossbar may schedule at `slot`: not during a clock
    /// drift excursion.
    #[inline]
    pub fn schedules(&self, slot: u64) -> bool {
        slot >= self.drift_until
    }

    /// Applies `kind` striking at `slot`: masks or unmasks ports, extends
    /// the drift bound, and marks the arrival a cell loss consumes in
    /// `lost`. Returns whether the port mask changed, in which case the
    /// caller pushes [`SwitchFaults::mask`] to its scheduler. The event's
    /// `switch` tag is not read: the caller dispatches.
    ///
    /// # Panics
    ///
    /// Panics if the event names a port outside the switch.
    pub fn apply(&mut self, slot: u64, kind: FaultKind, lost: &mut LostArrivals<W>) -> bool {
        match kind {
            FaultKind::LinkDown { output, .. } => self.mask.fail_output(output),
            FaultKind::LinkUp { output, .. } => self.mask.recover_output(output),
            FaultKind::PortFail { side, port, .. } => match side {
                PortSide::Input => self.mask.fail_input(port),
                PortSide::Output => self.mask.fail_output(port),
            },
            FaultKind::PortRecover { side, port, .. } => match side {
                PortSide::Input => self.mask.recover_input(port),
                PortSide::Output => self.mask.recover_output(port),
            },
            FaultKind::CellDrop { input, .. } => {
                lost.injected.insert(input);
                false
            }
            FaultKind::CellCorrupt { input, .. } => {
                lost.corrupted.insert(input);
                false
            }
            FaultKind::ClockDrift { slots, .. } => {
                self.drift_until = self.drift_until.max(slot.saturating_add(slots));
                false
            }
        }
    }
}

/// The inputs whose arriving cell one slot's fault events consume, by
/// cause; the default loses none.
#[derive(Clone, Copy, Debug, Default)]
pub struct LostArrivals<const W: usize> {
    injected: PortSetN<W>,
    corrupted: PortSetN<W>,
}

impl<const W: usize> LostArrivals<W> {
    /// Why the cell arriving at `input` this slot is lost, if it is. An
    /// injected drop takes precedence over a corruption.
    #[inline]
    pub fn cause(&self, input: usize) -> Option<DropCause> {
        if self.injected.contains(input) {
            Some(DropCause::Injected)
        } else if self.corrupted.contains(input) {
            Some(DropCause::Corrupted)
        } else {
            None
        }
    }
}

/// One lost cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DropRecord {
    /// Slot of the loss.
    pub slot: u64,
    /// Switch where the cell was lost.
    pub switch: usize,
    /// Input port (or, for [`DropCause::DeadLink`] forwarding losses, the
    /// input the cell was queued at).
    pub input: usize,
    /// Flow the cell belonged to.
    pub flow: u64,
    /// Why it was lost.
    pub cause: DropCause,
}

/// One flow moved to a new route after a failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RerouteRecord {
    /// Slot the reroute was installed.
    pub slot: u64,
    /// The rerouted flow.
    pub flow: u64,
    /// Hop count of the new path (switches traversed).
    pub hops: usize,
}

/// One CBR re-reservation attempt during recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReservationRecord {
    /// Slot of the attempt.
    pub slot: u64,
    /// The flow being re-reserved.
    pub flow: u64,
    /// 1-based attempt number (backoff doubles the gap between attempts).
    pub attempt: u32,
    /// Whether the reservation succeeded.
    pub ok: bool,
}

/// The observable consequences of a faulted run: every applied fault and
/// every drop, reroute, and re-reservation it caused, in order.
///
/// The log is append-only and digestable: [`FaultLog::digest`] folds the
/// full event stream through FNV-1a, giving fault runs the same
/// golden-digest determinism story as the PR 1 switch reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultLog {
    applied: Vec<FaultEvent>,
    drops: Vec<DropRecord>,
    reroutes: Vec<RerouteRecord>,
    reservations: Vec<ReservationRecord>,
    /// Flows that exhausted re-reservation retries and now run best-effort.
    degraded: Vec<u64>,
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a fault event the moment it is applied.
    // an2-lint: cold — forensic log growth is amortized, off the slot loop
    pub fn record_applied(&mut self, event: FaultEvent) {
        self.applied.push(event);
    }

    /// Records a lost cell.
    // an2-lint: cold — forensic log growth is amortized, off the slot loop
    pub fn record_drop(&mut self, slot: u64, switch: usize, input: usize, flow: u64, cause: DropCause) {
        self.drops.push(DropRecord {
            slot,
            switch,
            input,
            flow,
            cause,
        });
    }

    /// Records a successful reroute.
    // an2-lint: cold — forensic log growth is amortized, off the slot loop
    pub fn record_reroute(&mut self, slot: u64, flow: u64, hops: usize) {
        self.reroutes.push(RerouteRecord { slot, flow, hops });
    }

    /// Records a CBR re-reservation attempt.
    // an2-lint: cold — forensic log growth is amortized, off the slot loop
    pub fn record_reservation(&mut self, slot: u64, flow: u64, attempt: u32, ok: bool) {
        self.reservations.push(ReservationRecord {
            slot,
            flow,
            attempt,
            ok,
        });
    }

    /// Records a flow degrading to best-effort after retries ran out.
    // an2-lint: cold — forensic log growth is amortized, off the slot loop
    pub fn record_degraded(&mut self, flow: u64) {
        self.degraded.push(flow);
    }

    /// Applied fault events, in application order.
    pub fn applied(&self) -> &[FaultEvent] {
        &self.applied
    }

    /// Every recorded cell loss, in order.
    pub fn drops(&self) -> &[DropRecord] {
        &self.drops
    }

    /// Every recorded reroute, in order.
    pub fn reroutes(&self) -> &[RerouteRecord] {
        &self.reroutes
    }

    /// Every recorded re-reservation attempt, in order.
    pub fn reservations(&self) -> &[ReservationRecord] {
        &self.reservations
    }

    /// Flows degraded to best-effort.
    pub fn degraded(&self) -> &[u64] {
        &self.degraded
    }

    /// Total cells lost.
    pub fn cells_dropped(&self) -> u64 {
        self.drops.len() as u64
    }

    /// Failed re-reservation attempts.
    pub fn reservation_failures(&self) -> u64 {
        self.reservations.iter().filter(|r| !r.ok).count() as u64
    }

    /// FNV-1a digest of the full drop/recovery event stream. Two runs with
    /// the same seed and plan must produce the same digest — the fault
    /// analogue of PR 1's report digests.
    pub fn digest(&self) -> u64 {
        let mut d = Fnv::report();
        d.u64(self.applied.len() as u64);
        for e in &self.applied {
            d.u64(e.slot);
            e.kind.fold(&mut d);
        }
        d.u64(self.drops.len() as u64);
        for r in &self.drops {
            d.u64(r.slot);
            d.u64(r.switch as u64);
            d.u64(r.input as u64);
            d.u64(r.flow);
            d.u64(r.cause.tag());
        }
        d.u64(self.reroutes.len() as u64);
        for r in &self.reroutes {
            d.u64(r.slot);
            d.u64(r.flow);
            d.u64(r.hops as u64);
        }
        d.u64(self.reservations.len() as u64);
        for r in &self.reservations {
            d.u64(r.slot);
            d.u64(r.flow);
            d.u64(u64::from(r.attempt));
            d.u64(r.ok as u64);
        }
        d.u64(self.degraded.len() as u64);
        for &f in &self.degraded {
            d.u64(f);
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_orders_and_delivers_by_slot() {
        let mut plan = FaultPlan::from_events(vec![
            FaultEvent {
                slot: 30,
                kind: FaultKind::CellDrop { switch: 0, input: 1 },
            },
            FaultEvent {
                slot: 10,
                kind: FaultKind::LinkDown { switch: 0, output: 2 },
            },
            FaultEvent {
                slot: 10,
                kind: FaultKind::CellCorrupt { switch: 1, input: 0 },
            },
        ]);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.remaining(), 3);
        assert!(plan.due(9).is_empty());
        let at_10 = plan.due(10);
        assert_eq!(at_10.len(), 2);
        // Stable sort: scripting order preserved within the slot.
        assert!(matches!(at_10[0].kind, FaultKind::LinkDown { .. }));
        assert_eq!(plan.due(29).len(), 0);
        assert_eq!(plan.due(30).len(), 1);
        assert_eq!(plan.remaining(), 0);
        assert!(!plan.is_empty());
    }

    #[test]
    fn plan_push_keeps_order() {
        let mut plan = FaultPlan::new();
        assert!(plan.is_empty());
        plan.push(FaultEvent {
            slot: 20,
            kind: FaultKind::ClockDrift { switch: 0, slots: 5 },
        });
        plan.push(FaultEvent {
            slot: 5,
            kind: FaultKind::CellDrop { switch: 0, input: 0 },
        });
        assert_eq!(plan.due(5).len(), 1);
        plan.push(FaultEvent {
            slot: 12,
            kind: FaultKind::CellDrop { switch: 0, input: 1 },
        });
        assert_eq!(plan.due(25).len(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn plan_rejects_rescripting_the_past() {
        let mut plan = FaultPlan::from_events(vec![FaultEvent {
            slot: 10,
            kind: FaultKind::CellDrop { switch: 0, input: 0 },
        }]);
        let _ = plan.due(10);
        plan.push(FaultEvent {
            slot: 3,
            kind: FaultKind::CellDrop { switch: 0, input: 0 },
        });
    }

    #[test]
    fn random_plans_are_reproducible_and_pair_recoveries() {
        let cfg = RandomFaultConfig {
            switches: 3,
            ports: 8,
            horizon: 1000,
            faults: 40,
            max_outage: 50,
        };
        let a = FaultPlan::random(0xFA17, &cfg);
        let b = FaultPlan::random(0xFA17, &cfg);
        assert_eq!(a, b);
        let c = FaultPlan::random(0xFA18, &cfg);
        assert_ne!(a, c);
        // Every LinkDown has a LinkUp for the same link, strictly later.
        let mut a = a;
        let events: Vec<FaultEvent> = a.due(u64::MAX).to_vec();
        for (idx, e) in events.iter().enumerate() {
            if let FaultKind::LinkDown { switch, output } = e.kind {
                assert!(
                    events.iter().any(|u| {
                        u.kind == FaultKind::LinkUp { switch, output } && u.slot > e.slot
                    }),
                    "unpaired LinkDown at index {idx}"
                );
            }
        }
    }

    #[test]
    fn log_digest_is_order_sensitive_and_stable() {
        let mut a = FaultLog::new();
        let mut b = FaultLog::new();
        assert_eq!(a.digest(), b.digest());
        a.record_drop(4, 0, 1, 7, DropCause::BufferFull);
        a.record_drop(5, 0, 2, 8, DropCause::DeadLink);
        b.record_drop(5, 0, 2, 8, DropCause::DeadLink);
        b.record_drop(4, 0, 1, 7, DropCause::BufferFull);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.cells_dropped(), 2);
        a.record_reservation(6, 7, 1, false);
        a.record_reservation(9, 7, 2, true);
        assert_eq!(a.reservation_failures(), 1);
        a.record_reroute(6, 7, 3);
        a.record_degraded(8);
        assert_eq!(a.reroutes().len(), 1);
        assert_eq!(a.degraded(), &[8]);
    }

    #[test]
    fn fault_kind_switch_accessor() {
        let kinds = [
            FaultKind::LinkDown { switch: 3, output: 0 },
            FaultKind::LinkUp { switch: 3, output: 0 },
            FaultKind::PortFail {
                switch: 3,
                side: PortSide::Input,
                port: 1,
            },
            FaultKind::PortRecover {
                switch: 3,
                side: PortSide::Output,
                port: 1,
            },
            FaultKind::CellDrop { switch: 3, input: 2 },
            FaultKind::CellCorrupt { switch: 3, input: 2 },
            FaultKind::ClockDrift { switch: 3, slots: 9 },
        ];
        for k in kinds {
            assert_eq!(k.switch(), 3);
        }
    }
}
