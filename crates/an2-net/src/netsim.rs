//! A multi-switch, arbitrary-topology datagram network simulator.
//!
//! The AN2 network is "a collection of switches, links, and host network
//! controllers" in any topology (§2); routing is per-flow and static. This
//! module simulates such a network slot-synchronously: hosts inject cells,
//! each switch runs its own scheduler over its random-access input buffers
//! (PIM by default), and departed cells propagate over links with latency
//! toward per-flow sinks.
//!
//! This substrate powers the Figure 9 fairness experiment (flows merging
//! through a chain of switches toward one bottleneck link) and is general
//! enough for arbitrary topologies.
//!
//! # Faults and recovery
//!
//! A network optionally carries a [`FaultPlan`]
//! ([`Network::set_fault_plan`]): links go down and come back, ports fail,
//! cells are lost or corrupted in flight, clocks drift. When a link fails
//! the network behaves the way §2's control software would: in-flight cells
//! on the link are lost, the upstream output is masked out of scheduling,
//! and every flow routed over the link is re-routed along the shortest
//! surviving path (releasing and re-reserving any CBR frame reservations
//! with bounded exponential backoff; a flow whose reservation cannot be
//! re-established degrades to best-effort instead of failing). Everything
//! that happens is recorded in a [`FaultLog`] — drops never panic. An empty
//! plan leaves the simulation bit-identical to one without a fault layer.

use crate::flows::{FlowHint, FlowQueues, PushOutcome, ServiceDiscipline};
use an2_sched::rng::SelectRng as _;
use an2_sched::{FrameSchedule, InputPort, OutputPort, Pim, PortMask, Scheduler};
use an2_sim::cell::{Cell, FlowId};
use an2_sim::fault::{DropCause, FaultKind, FaultLog, FaultPlan, PortSide};
use an2_sched::det::DetHashMap;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a switch within a [`Network`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(usize);

/// A configuration problem detected while building or validating a
/// [`Network`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// A switch id does not exist in this network.
    UnknownSwitch {
        /// The offending switch id.
        switch: SwitchId,
    },
    /// A port index is outside a switch's radix.
    PortOutOfRange {
        /// The switch whose port range was exceeded.
        switch: SwitchId,
        /// The offending port index.
        port: usize,
        /// The switch's radix.
        ports: usize,
    },
    /// A link was declared with zero latency.
    BadLatency,
    /// An input port already has a source attached.
    DuplicateSource {
        /// The switch with the contested input.
        switch: SwitchId,
        /// The contested input port index.
        port: usize,
    },
    /// A flow was given a second, different route at one switch.
    ConflictingRoute {
        /// The re-routed flow.
        flow: FlowId,
        /// The switch with the conflicting entry.
        switch: SwitchId,
    },
    /// A source was declared with no flows to inject.
    NoFlows,
    /// A source rate was outside `[0, 1]` (or not finite).
    InvalidRate,
    /// A flow reaches a switch that has no route entry for it.
    MissingRoute {
        /// The flow without a route.
        flow: FlowId,
        /// The switch where the route is missing.
        switch: SwitchId,
    },
    /// A flow's route revisits a switch.
    RoutingLoop {
        /// The looping flow.
        flow: FlowId,
        /// The first switch revisited.
        switch: SwitchId,
    },
    /// No link path exists between two switches.
    Unreachable {
        /// The starting switch.
        from: SwitchId,
        /// The unreachable switch.
        to: SwitchId,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownSwitch { switch } => write!(f, "switch {switch} does not exist"),
            Self::PortOutOfRange { switch, port, ports } => {
                write!(f, "port {port} out of range for {switch} ({ports} ports)")
            }
            Self::BadLatency => write!(f, "link latency must be at least one slot"),
            Self::DuplicateSource { switch, port } => {
                write!(f, "input {port} of {switch} already has a source")
            }
            Self::ConflictingRoute { flow, switch } => {
                write!(f, "flow {flow} re-routed at {switch}; routes are static")
            }
            Self::NoFlows => write!(f, "a source must inject at least one flow"),
            Self::InvalidRate => write!(f, "rate must be in [0, 1]"),
            Self::MissingRoute { flow, switch } => {
                write!(f, "flow {flow} has no route at {switch}")
            }
            Self::RoutingLoop { flow, switch } => {
                write!(f, "flow {flow} loops back to {switch}")
            }
            Self::Unreachable { from, to } => {
                write!(f, "no link path from {from} to {to}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Error returned by [`Network::reserve_flow`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReserveFlowError {
    /// The flow is not attached to any source, so its entry is unknown.
    UnknownFlow(FlowId),
    /// The flow's route is incomplete or invalid.
    Topology(TopologyError),
    /// A switch on the path lacks frame capacity for the reservation.
    Reservation(an2_sched::ReservationError),
}

impl fmt::Display for ReserveFlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownFlow(flow) => write!(f, "flow {flow} has no source"),
            Self::Topology(e) => write!(f, "cannot reserve: {e}"),
            Self::Reservation(e) => write!(f, "cannot reserve: {e}"),
        }
    }
}

impl std::error::Error for ReserveFlowError {}

impl From<TopologyError> for ReserveFlowError {
    fn from(e: TopologyError) -> Self {
        Self::Topology(e)
    }
}

impl From<an2_sched::ReservationError> for ReserveFlowError {
    fn from(e: an2_sched::ReservationError) -> Self {
        Self::Reservation(e)
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}

/// Where a switch output port leads.
#[derive(Clone, Copy, Debug)]
enum PortTarget {
    /// A link to another switch's input port, with latency in slots.
    Link {
        to: SwitchId,
        port: InputPort,
        latency: u64,
        /// Links start up; a [`FaultKind::LinkDown`] takes one down.
        up: bool,
    },
    /// Delivery to the destination host (cells are counted per flow).
    Sink,
}

struct SwitchNode {
    buffers: FlowQueues,
    scheduler: Box<dyn Scheduler>,
    /// Flow → output port at this switch, with the flow's record in
    /// `buffers` cached beside it.
    routes: DetHashMap<FlowId, (OutputPort, FlowHint)>,
    /// Wiring of output ports; unwired ports are sinks.
    targets: Vec<PortTarget>,
    /// Ports currently in service; mirrors what the scheduler was told.
    mask: PortMask,
    /// Scheduling is suspended until this slot (clock-drift excursions).
    drift_until: u64,
    /// CBR frame schedule, if reservations are enabled at this switch.
    frame: Option<FrameSchedule>,
}

impl fmt::Debug for SwitchNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwitchNode")
            .field("n", &self.buffers.n())
            .field("scheduler", &self.scheduler.name())
            .field("routes", &self.routes.len())
            .field("mask", &self.mask)
            .finish()
    }
}

/// A traffic source attached to one switch input port.
#[derive(Clone, Debug)]
struct Source {
    switch: SwitchId,
    port: InputPort,
    /// Flows injected round-robin by this source.
    flows: Vec<FlowId>,
    next_flow: usize,
    /// Cells offered per slot (1.0 = saturating).
    rate: f64,
    rng: an2_sched::rng::Xoshiro256,
}

/// What the network knows about a flow for recovery purposes.
#[derive(Clone, Debug)]
struct FlowSpec {
    /// Switch and input port where the flow enters the network.
    entry: SwitchId,
    entry_port: InputPort,
    /// Exit hop, learned the first time the full path is walked.
    exit: Option<(SwitchId, OutputPort)>,
    /// CBR cells per frame (0 = best-effort).
    cbr_cells: usize,
    /// Hops currently holding frame reservations for this flow.
    reserved: Vec<(SwitchId, InputPort, OutputPort)>,
    /// `true` once re-reservation retries were exhausted.
    degraded: bool,
}

/// A pending CBR re-reservation attempt.
#[derive(Clone, Copy, Debug)]
struct Retry {
    flow: FlowId,
    next_slot: u64,
    attempt: u32,
}

/// Re-reservation attempts before a flow degrades to best-effort.
const MAX_RESERVE_ATTEMPTS: u32 = 5;

/// A slot-synchronous multi-switch network.
///
/// # Examples
///
/// Two switches in a row; a flow crosses both:
///
/// ```
/// use an2_net::netsim::Network;
/// use an2_sched::{InputPort, OutputPort};
/// use an2_sim::cell::FlowId;
///
/// let mut net = Network::new(7);
/// let a = net.add_switch(2);
/// let b = net.add_switch(2);
/// net.connect(a, OutputPort::new(1), b, InputPort::new(0), 1).unwrap();
/// let flow = FlowId(1);
/// net.add_route(a, flow, OutputPort::new(1)).unwrap();
/// net.add_route(b, flow, OutputPort::new(1)).unwrap();
/// net.add_source(a, InputPort::new(0), vec![flow], 1.0).unwrap();
/// net.run(100);
/// assert!(net.delivered(flow) > 90);
/// ```
pub struct Network {
    switches: Vec<SwitchNode>,
    sources: Vec<Source>,
    /// Cells in flight on links, keyed by delivery slot.
    in_flight: BTreeMap<u64, Vec<(SwitchId, InputPort, FlowId, u64)>>,
    /// Cells delivered end-to-end, per flow.
    delivered: DetHashMap<FlowId, u64>,
    /// Sum of end-to-end latencies (slots), per flow.
    latency_sum: DetHashMap<FlowId, u64>,
    slot: u64,
    seed: u64,
    /// Scripted faults; empty by default (and then entirely inert).
    plan: FaultPlan,
    /// Everything the fault layer did: applied events, drops, recoveries.
    log: FaultLog,
    /// Per-flow recovery state, registered by [`Network::add_source`].
    flows: DetHashMap<FlowId, FlowSpec>,
    /// Pending CBR re-reservation retries (exponential backoff).
    retries: Vec<Retry>,
    /// `(switch, input, cause)` arrival faults active this slot only.
    arrival_faults: Vec<(usize, usize, DropCause)>,
    /// Lifetime count of cells injected at sources. Unlike the per-flow
    /// delivery counters this ledger survives [`Network::reset_counters`],
    /// so the conservation invariant can be checked at any point.
    injected_ledger: u64,
    /// Lifetime count of cells delivered to sinks (same lifetime rule).
    delivered_ledger: u64,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("switches", &self.switches.len())
            .field("sources", &self.sources.len())
            .field("slot", &self.slot)
            .field("faults_pending", &self.plan.remaining())
            .finish()
    }
}

impl Network {
    /// Creates an empty network; `seed` drives every random choice.
    pub fn new(seed: u64) -> Self {
        Self {
            switches: Vec::new(),
            sources: Vec::new(),
            in_flight: BTreeMap::new(),
            delivered: DetHashMap::default(),
            latency_sum: DetHashMap::default(),
            slot: 0,
            seed,
            plan: FaultPlan::new(),
            log: FaultLog::new(),
            flows: DetHashMap::default(),
            retries: Vec::new(),
            arrival_faults: Vec::new(),
            injected_ledger: 0,
            delivered_ledger: 0,
        }
    }

    /// Adds an `n`-port switch scheduled by PIM with the AN2 default of
    /// four iterations.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > MAX_PORTS`.
    pub fn add_switch(&mut self, n: usize) -> SwitchId {
        let id = SwitchId(self.switches.len());
        let seed = self.seed ^ (id.0 as u64).wrapping_mul(0xA24B_AED4_963E_E407);
        self.add_switch_with(
            n,
            Box::new(Pim::new(n, seed)),
            ServiceDiscipline::RoundRobin,
        )
    }

    /// Adds an `n`-port switch with an explicit scheduler and flow-service
    /// discipline.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > MAX_PORTS`.
    pub fn add_switch_with(
        &mut self,
        n: usize,
        scheduler: Box<dyn Scheduler>,
        discipline: ServiceDiscipline,
    ) -> SwitchId {
        let id = SwitchId(self.switches.len());
        self.switches.push(SwitchNode {
            buffers: FlowQueues::new(n, discipline),
            scheduler,
            routes: DetHashMap::default(),
            targets: vec![PortTarget::Sink; n],
            mask: PortMask::all(n),
            drift_until: 0,
            frame: None,
        });
        id
    }

    fn check_switch(&self, sw: SwitchId) -> Result<(), TopologyError> {
        if sw.0 < self.switches.len() {
            Ok(())
        } else {
            Err(TopologyError::UnknownSwitch { switch: sw })
        }
    }

    fn check_port(&self, sw: SwitchId, port: usize) -> Result<(), TopologyError> {
        self.check_switch(sw)?;
        let ports = self.switches[sw.0].buffers.n();
        if port < ports {
            Ok(())
        } else {
            Err(TopologyError::PortOutOfRange {
                switch: sw,
                port,
                ports,
            })
        }
    }

    /// Wires output `out` of switch `from` to input `inp` of switch `to`
    /// with the given link latency in slots (minimum 1: a cell departs one
    /// slot and is eligible downstream the next). The link starts up.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if either switch id or port is out of
    /// range, or `latency == 0`.
    pub fn connect(
        &mut self,
        from: SwitchId,
        out: OutputPort,
        to: SwitchId,
        inp: InputPort,
        latency: u64,
    ) -> Result<(), TopologyError> {
        if latency == 0 {
            return Err(TopologyError::BadLatency);
        }
        self.check_port(to, inp.index())?;
        self.check_port(from, out.index())?;
        self.switches[from.0].targets[out.index()] = PortTarget::Link {
            to,
            port: inp,
            latency,
            up: true,
        };
        Ok(())
    }

    /// Declares that at switch `sw`, cells of `flow` leave via output
    /// `out`. Every switch a flow traverses needs a route entry ("a
    /// routing table in each switch ... determines the output port for
    /// each flow").
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if the switch or port is out of range,
    /// or the flow already has a different route at this switch.
    pub fn add_route(
        &mut self,
        sw: SwitchId,
        flow: FlowId,
        out: OutputPort,
    ) -> Result<(), TopologyError> {
        self.check_port(sw, out.index())?;
        let node = &mut self.switches[sw.0];
        if let Some(&(prev, _)) = node.routes.get(&flow) {
            if prev != out {
                return Err(TopologyError::ConflictingRoute { flow, switch: sw });
            }
        }
        node.routes.insert(flow, (out, FlowHint::default()));
        Ok(())
    }

    /// Attaches a host source to input `port` of switch `sw`, injecting the
    /// given flows round-robin at `rate` cells per slot (1.0 = the link is
    /// saturated).
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if the switch or port is out of range,
    /// `flows` is empty, `rate` is outside `[0, 1]`, or the port already
    /// has a source.
    pub fn add_source(
        &mut self,
        sw: SwitchId,
        port: InputPort,
        flows: Vec<FlowId>,
        rate: f64,
    ) -> Result<(), TopologyError> {
        self.check_port(sw, port.index())?;
        if flows.is_empty() {
            return Err(TopologyError::NoFlows);
        }
        if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
            return Err(TopologyError::InvalidRate);
        }
        if self
            .sources
            .iter()
            .any(|s| s.switch == sw && s.port == port)
        {
            return Err(TopologyError::DuplicateSource {
                switch: sw,
                port: port.index(),
            });
        }
        for &flow in &flows {
            self.flows.entry(flow).or_insert(FlowSpec {
                entry: sw,
                entry_port: port,
                exit: None,
                cbr_cells: 0,
                reserved: Vec::new(),
                degraded: false,
            });
        }
        let seed = self.seed
            ^ (self.sources.len() as u64 + 1).wrapping_mul(0x9FB2_1C65_1E98_DF25);
        self.sources.push(Source {
            switch: sw,
            port,
            flows,
            next_flow: 0,
            rate,
            rng: an2_sched::rng::Xoshiro256::seed_from(seed),
        });
        Ok(())
    }

    /// Bounds the buffers of switch `sw` to `capacity` cells per
    /// input-output pair (`None` = unbounded, the default). Applies to
    /// future arrivals; over-capacity arrivals are dropped (drop-tail) and
    /// counted in the [`FaultLog`].
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownSwitch`] for a bad id.
    pub fn set_buffer_capacity(
        &mut self,
        sw: SwitchId,
        capacity: Option<usize>,
    ) -> Result<(), TopologyError> {
        self.check_switch(sw)?;
        self.switches[sw.0].buffers.set_capacity(capacity);
        Ok(())
    }

    /// Enables CBR frame reservations at switch `sw` with `frame_len` slots
    /// per frame (1000 in the AN2 prototype).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownSwitch`] for a bad id.
    ///
    /// # Panics
    ///
    /// Panics if `frame_len == 0` (a frame must contain slots).
    pub fn enable_cbr(&mut self, sw: SwitchId, frame_len: usize) -> Result<(), TopologyError> {
        self.check_switch(sw)?;
        let n = self.switches[sw.0].buffers.n();
        self.switches[sw.0].frame = Some(FrameSchedule::new(n, frame_len));
        Ok(())
    }

    /// The frame schedule of switch `sw`, if CBR is enabled there.
    pub fn cbr_schedule(&self, sw: SwitchId) -> Option<&FrameSchedule> {
        self.switches.get(sw.0).and_then(|s| s.frame.as_ref())
    }

    /// Reserves `cells` per frame for `flow` at every CBR-enabled switch on
    /// its current path. The reservation follows the flow across reroutes:
    /// link recovery releases it on the old path and re-reserves on the new
    /// one (with bounded exponential backoff; see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`ReserveFlowError`] if the flow has no source, its route is
    /// incomplete, or a switch on the path lacks frame capacity. On error
    /// nothing stays reserved.
    pub fn reserve_flow(&mut self, flow: FlowId, cells: usize) -> Result<(), ReserveFlowError> {
        let spec = self
            .flows
            .get(&flow)
            .ok_or(ReserveFlowError::UnknownFlow(flow))?;
        let (entry, entry_port) = (spec.entry, spec.entry_port);
        let hops = self
            .trace_route(flow, entry, entry_port)
            .ok_or(TopologyError::MissingRoute {
                flow,
                switch: entry,
            })?;
        let reserved = self.reserve_hops(&hops, cells)?;
        let exit = hops.last().map(|&(sw, _, out)| (sw, out));
        let spec = self.flows.get_mut(&flow).expect("checked above");
        spec.cbr_cells = cells;
        spec.reserved = reserved;
        spec.degraded = false;
        if spec.exit.is_none() {
            spec.exit = exit;
        }
        Ok(())
    }

    /// Reserves `cells` at every CBR-enabled hop, rolling back on failure.
    fn reserve_hops(
        &mut self,
        hops: &[(SwitchId, InputPort, OutputPort)],
        cells: usize,
    ) -> Result<Vec<(SwitchId, InputPort, OutputPort)>, an2_sched::ReservationError> {
        let mut done: Vec<(SwitchId, InputPort, OutputPort)> = Vec::new();
        for &(sw, inp, out) in hops {
            if let Some(frame) = self.switches[sw.0].frame.as_mut() {
                if let Err(e) = frame.reserve(inp, out, cells) {
                    for &(s2, i2, o2) in &done {
                        self.switches[s2.0]
                            .frame
                            .as_mut()
                            .expect("reserved hop has a frame schedule")
                            .release(i2, o2, cells)
                            .expect("releasing a reservation just made");
                    }
                    return Err(e);
                }
                done.push((sw, inp, out));
            }
        }
        Ok(done)
    }

    /// Releases whatever `flow` currently has reserved.
    fn release_reservations(&mut self, flow: FlowId) {
        let Some(spec) = self.flows.get_mut(&flow) else {
            return;
        };
        let cells = spec.cbr_cells;
        let reserved = std::mem::take(&mut spec.reserved);
        for (sw, inp, out) in reserved {
            self.switches[sw.0]
                .frame
                .as_mut()
                .expect("reserved hop has a frame schedule")
                .release(inp, out, cells)
                .expect("releasing an existing reservation");
        }
    }

    /// Installs a scripted fault plan; events fire as [`Network::step`]
    /// passes their slots. An empty plan (the default) changes nothing.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// Everything the fault layer did so far: applied events, cell drops
    /// (with causes), reroutes, re-reservation attempts, degraded flows.
    pub fn fault_log(&self) -> &FaultLog {
        &self.log
    }

    /// `true` if `flow` lost its CBR reservation and now runs best-effort.
    pub fn flow_degraded(&self, flow: FlowId) -> bool {
        self.flows.get(&flow).is_some_and(|s| s.degraded)
    }

    /// Whether the link out of `sw` via `out` is up. `None` if the port is
    /// a sink or out of range.
    pub fn link_is_up(&self, sw: SwitchId, out: OutputPort) -> Option<bool> {
        match self.switches.get(sw.0)?.targets.get(out.index())? {
            PortTarget::Link { up, .. } => Some(*up),
            PortTarget::Sink => None,
        }
    }

    /// The current slot number.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Cells delivered end-to-end for `flow` so far.
    pub fn delivered(&self, flow: FlowId) -> u64 {
        self.delivered.get(&flow).copied().unwrap_or(0)
    }

    /// Mean end-to-end latency (slots) of delivered cells of `flow`, if any
    /// were delivered.
    pub fn mean_latency(&self, flow: FlowId) -> Option<f64> {
        let n = self.delivered(flow);
        (n > 0).then(|| *self.latency_sum.get(&flow).unwrap_or(&0) as f64 / n as f64)
    }

    /// Total cells buffered across all switches.
    pub fn queued(&self) -> usize {
        self.switches.iter().map(|s| s.buffers.len()).sum()
    }

    /// Lifetime count of cells injected at sources (never reset).
    pub fn injected_cells(&self) -> u64 {
        self.injected_ledger
    }

    /// Lifetime count of cells delivered to sinks (never reset; the
    /// per-flow [`Network::delivered`] counters *are* reset by
    /// [`Network::reset_counters`]).
    pub fn delivered_cells(&self) -> u64 {
        self.delivered_ledger
    }

    /// Cells currently in flight on links.
    pub fn in_flight_cells(&self) -> u64 {
        self.in_flight.values().map(|v| v.len() as u64).sum()
    }

    /// Verifies the network-wide invariants the AN2 design promises:
    ///
    /// * **frame consistency** — every switch with CBR reservations has a
    ///   frame schedule whose per-pair scheduled counts equal its demand
    ///   matrix ([`FrameSchedule::verify`]);
    /// * **VOQ capacity** — no per-pair queue exceeds its configured
    ///   budget;
    /// * **cell conservation** — every cell ever injected is queued, in
    ///   flight, delivered, or dropped with a recorded cause (including
    ///   under fault plans: scripted losses, dead links, reroute spills
    ///   and no-route drops all land in the [`FaultLog`]).
    ///
    /// Returns the first violation as a description, or `Ok(())`. Pure
    /// reads — calling this never perturbs the simulation.
    pub fn verify_invariants(&self) -> Result<(), String> {
        for (idx, node) in self.switches.iter().enumerate() {
            if let Some(frame) = &node.frame {
                if !frame.verify() {
                    return Err(format!("switch {idx}: frame schedule inconsistent"));
                }
            }
            if !node.buffers.within_capacity() {
                return Err(format!("switch {idx}: VOQ occupancy exceeds capacity"));
            }
        }
        let queued = self.queued() as u64;
        let in_flight = self.in_flight_cells();
        let dropped = self.log.cells_dropped();
        let accounted = self.delivered_ledger + queued + in_flight + dropped;
        if self.injected_ledger != accounted {
            return Err(format!(
                "cell conservation violated: injected {} != delivered {} + queued {queued} \
                 + in-flight {in_flight} + dropped {dropped}",
                self.injected_ledger, self.delivered_ledger
            ));
        }
        Ok(())
    }

    /// Resets the delivery counters (warmup truncation); queues and
    /// scheduler state are preserved.
    pub fn reset_counters(&mut self) {
        self.delivered.clear();
        self.latency_sum.clear();
    }

    /// Advances the network by `slots` time slots.
    pub fn run(&mut self, slots: u64) {
        for _ in 0..slots {
            self.step();
        }
    }

    /// Advances one slot: apply due faults, deliver in-flight link cells,
    /// inject from sources, schedule and forward at every switch.
    ///
    /// Cells that cannot proceed — no route, dead link, full buffer,
    /// scripted loss — are dropped and counted in the [`FaultLog`], never
    /// panicked on.
    pub fn step(&mut self) {
        let now = self.slot;
        self.arrival_faults.clear();
        if self.plan.remaining() > 0 {
            self.apply_due_faults(now);
        }
        if !self.retries.is_empty() {
            self.process_retries(now);
        }
        // 1. Link deliveries scheduled for this slot enter downstream VOQs.
        if let Some(batch) = self.in_flight.remove(&now) {
            for (sw, port, flow, injected_at) in batch {
                self.enqueue(sw, port, flow, injected_at);
            }
        }
        // 2. Sources inject (at most one cell per input port per slot).
        for si in 0..self.sources.len() {
            let (go, sw, port, flow) = {
                let s = &mut self.sources[si];
                let go = s.rate >= 1.0 || s.rng.bernoulli(s.rate);
                let flow = s.flows[s.next_flow % s.flows.len()];
                if go {
                    s.next_flow = (s.next_flow + 1) % s.flows.len();
                }
                (go, s.switch, s.port, flow)
            };
            if go {
                self.injected_ledger += 1;
                self.enqueue(sw, port, flow, now);
            }
        }
        // 3. Every switch schedules and forwards independently ("there is
        //    no centralized scheduler").
        for sw_idx in 0..self.switches.len() {
            if now < self.switches[sw_idx].drift_until {
                // Clock excursion: arrivals buffer, the crossbar idles.
                continue;
            }
            let matching = {
                let node = &mut self.switches[sw_idx];
                let requests = node.buffers.requests();
                let matching = node.scheduler.schedule(requests);
                debug_assert!(matching.respects(requests));
                matching
            };
            for (i, j) in matching.pairs() {
                let cell = self.switches[sw_idx]
                    .buffers
                    .pop(i, j)
                    .expect("scheduler contract: matched pairs have queued cells");
                match self.switches[sw_idx].targets[j.index()] {
                    PortTarget::Link {
                        to,
                        port,
                        latency,
                        up,
                    } => {
                        if up {
                            self.in_flight
                                .entry(now + latency)
                                .or_default()
                                .push((to, port, cell.flow, cell.arrival_slot));
                        } else {
                            // A recovered port can feed a still-dead link.
                            self.log.record_drop(
                                now,
                                sw_idx,
                                i.index(),
                                cell.flow.0,
                                DropCause::DeadLink,
                            );
                        }
                    }
                    PortTarget::Sink => {
                        self.delivered_ledger += 1;
                        *self.delivered.entry(cell.flow).or_insert(0) += 1;
                        *self.latency_sum.entry(cell.flow).or_insert(0) +=
                            now - cell.arrival_slot;
                    }
                }
            }
        }
        self.slot += 1;
    }

    /// Applies every plan event due at `now`, in plan order.
    fn apply_due_faults(&mut self, now: u64) {
        let events: Vec<_> = self.plan.due(now).to_vec();
        for e in events {
            self.log.record_applied(e);
            match e.kind {
                FaultKind::LinkDown { switch, output } => {
                    self.fault_link_down(now, switch, output);
                }
                FaultKind::LinkUp { switch, output } => self.fault_link_up(now, switch, output),
                FaultKind::PortFail { switch, side, port } => {
                    self.fault_port(switch, side, port, false);
                }
                FaultKind::PortRecover { switch, side, port } => {
                    self.fault_port(switch, side, port, true);
                }
                FaultKind::CellDrop { switch, input } => {
                    self.arrival_faults.push((switch, input, DropCause::Injected));
                }
                FaultKind::CellCorrupt { switch, input } => {
                    self.arrival_faults
                        .push((switch, input, DropCause::Corrupted));
                }
                FaultKind::ClockDrift { switch, slots } => {
                    if let Some(node) = self.switches.get_mut(switch) {
                        node.drift_until = node.drift_until.max(now.saturating_add(slots));
                    }
                }
            }
        }
    }

    /// Masks or unmasks one port; events against unknown switches or ports
    /// are ignored (a fault plan is data, not trusted configuration).
    fn fault_port(&mut self, switch: usize, side: PortSide, port: usize, up: bool) {
        let Some(node) = self.switches.get_mut(switch) else {
            return;
        };
        if port >= node.buffers.n() {
            return;
        }
        let changed = match (side, up) {
            (PortSide::Input, false) => node.mask.fail_input(port),
            (PortSide::Input, true) => node.mask.recover_input(port),
            (PortSide::Output, false) => node.mask.fail_output(port),
            (PortSide::Output, true) => node.mask.recover_output(port),
        };
        if changed {
            node.scheduler.set_port_mask(node.mask);
        }
    }

    /// Takes the link out of `switch` via `output` down: in-flight cells on
    /// it are lost, the upstream output is masked, and every flow routed
    /// over it is rerouted (or stranded, with its queued cells dropped).
    fn fault_link_down(&mut self, now: u64, switch: usize, output: usize) {
        let Some(node) = self.switches.get(switch) else {
            return;
        };
        let Some(&PortTarget::Link {
            to,
            port,
            latency,
            up,
        }) = node.targets.get(output)
        else {
            return;
        };
        if !up {
            return;
        }
        self.switches[switch].targets[output] = PortTarget::Link {
            to,
            port,
            latency,
            up: false,
        };
        // Cells in flight on this link are lost.
        for batch in self.in_flight.values_mut() {
            batch.retain(|&(sw, inp, flow, _)| {
                let on_link = sw == to && inp == port;
                if on_link {
                    self.log
                        .record_drop(now, to.0, port.index(), flow.0, DropCause::DeadLink);
                }
                !on_link
            });
        }
        self.fault_port(switch, PortSide::Output, output, false);
        // Reroute every registered flow that crossed the link.
        let affected: Vec<FlowId> = self.switches[switch]
            .routes
            .iter()
            .filter(|(_, (out, _))| out.index() == output)
            .map(|(&flow, _)| flow)
            .filter(|flow| self.flows.contains_key(flow))
            .collect();
        for flow in affected {
            self.reroute_flow(now, flow);
        }
    }

    /// Brings the link back up, unmasks the output, and repairs any
    /// registered flow left without a complete route.
    fn fault_link_up(&mut self, now: u64, switch: usize, output: usize) {
        let Some(node) = self.switches.get(switch) else {
            return;
        };
        let Some(&PortTarget::Link {
            to,
            port,
            latency,
            up,
        }) = node.targets.get(output)
        else {
            return;
        };
        if up {
            return;
        }
        self.switches[switch].targets[output] = PortTarget::Link {
            to,
            port,
            latency,
            up: true,
        };
        self.fault_port(switch, PortSide::Output, output, true);
        let broken: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(flow, spec)| {
                spec.exit.is_some() && self.trace_route(**flow, spec.entry, spec.entry_port).is_none()
            })
            .map(|(flow, _)| *flow)
            .collect();
        for flow in broken {
            self.reroute_flow(now, flow);
        }
    }

    /// Walks `flow`'s installed routes from `start`, ignoring link up/down
    /// state, and returns the `(switch, input, output)` hops ending at a
    /// sink — or `None` if the route is incomplete or loops.
    fn trace_route(
        &self,
        flow: FlowId,
        start: SwitchId,
        entry_port: InputPort,
    ) -> Option<Vec<(SwitchId, InputPort, OutputPort)>> {
        let mut hops = Vec::new();
        let mut here = start;
        let mut inp = entry_port;
        let mut visited = an2_sched::det::DetHashSet::default();
        loop {
            if !visited.insert(here) {
                return None;
            }
            let node = self.switches.get(here.0)?;
            let &(out, _) = node.routes.get(&flow)?;
            hops.push((here, inp, out));
            match node.targets[out.index()] {
                PortTarget::Link { to, port, .. } => {
                    here = to;
                    inp = port;
                }
                PortTarget::Sink => return Some(hops),
            }
        }
    }

    /// Moves `flow` to the shortest path over up links, or strands it:
    /// release reservations, tear down the old route, drop or redirect
    /// queued cells, reinstall, and kick off CBR re-reservation.
    fn reroute_flow(&mut self, now: u64, flow: FlowId) {
        let Some(spec) = self.flows.get(&flow) else {
            return;
        };
        let (entry, entry_port) = (spec.entry, spec.entry_port);
        let old_hops = self.trace_route(flow, entry, entry_port);
        let exit = old_hops
            .as_ref()
            .and_then(|h| h.last().map(|&(sw, _, out)| (sw, out)))
            .or(spec.exit);
        self.release_reservations(flow);
        self.retries.retain(|r| r.flow != flow);
        if let Some(spec) = self.flows.get_mut(&flow) {
            spec.exit = exit;
        }
        // Tear down the old route everywhere (walked hops if known, every
        // switch otherwise — a broken trace means stale partial state).
        let old: Vec<(SwitchId, InputPort, OutputPort)> = match old_hops {
            Some(h) => h,
            None => (0..self.switches.len())
                .map(|i| (SwitchId(i), InputPort::new(0), OutputPort::new(0)))
                .collect(),
        };
        for &(sw, _, _) in &old {
            self.switches[sw.0].routes.remove(&flow);
        }
        let Some((exit_sw, exit_port)) = exit else {
            // Exit never learned: nothing more we can do beyond dropping.
            self.drop_flow_everywhere(now, flow, &old);
            return;
        };
        match self.route_over_up_links(flow, entry, exit_sw, exit_port) {
            Ok(new_len) => {
                // Redirect queued cells at surviving hops, drop the rest.
                for &(sw, inp, old_out) in &old {
                    let node = &mut self.switches[sw.0];
                    let (lost, cause) = match node.routes.get(&flow).map(|&(out, _)| out) {
                        Some(new_out) if new_out != old_out => (
                            node.buffers.redirect_flow(flow, new_out),
                            DropCause::BufferFull,
                        ),
                        Some(_) => continue,
                        None => (node.buffers.drop_flow(flow), DropCause::DeadLink),
                    };
                    for _ in 0..lost {
                        self.log
                            .record_drop(now, sw.0, inp.index(), flow.0, cause);
                    }
                }
                self.log.record_reroute(now, flow.0, new_len);
                let cells = self.flows.get(&flow).map_or(0, |s| s.cbr_cells);
                if cells > 0 {
                    self.attempt_reservation(now, flow, 1);
                }
            }
            Err(_) => {
                // Stranded: no surviving path. Queued cells are lost;
                // future injections become NoRoute drops. A later LinkUp
                // retries the route.
                self.drop_flow_everywhere(now, flow, &old);
                let cells = self.flows.get(&flow).map_or(0, |s| s.cbr_cells);
                if cells > 0 {
                    self.mark_degraded(flow);
                }
            }
        }
    }

    /// Drops `flow`'s queued cells at every listed hop, counting each loss.
    fn drop_flow_everywhere(
        &mut self,
        now: u64,
        flow: FlowId,
        hops: &[(SwitchId, InputPort, OutputPort)],
    ) {
        for &(sw, inp, _) in hops {
            let n = self.switches[sw.0].buffers.drop_flow(flow);
            for _ in 0..n {
                self.log
                    .record_drop(now, sw.0, inp.index(), flow.0, DropCause::DeadLink);
            }
        }
    }

    /// Flags `flow` as degraded to best-effort (once).
    fn mark_degraded(&mut self, flow: FlowId) {
        if let Some(spec) = self.flows.get_mut(&flow) {
            if !spec.degraded {
                spec.degraded = true;
                self.log.record_degraded(flow.0);
            }
        }
    }

    /// BFS shortest path over *up* links only, installing routes. Returns
    /// the hop count.
    fn route_over_up_links(
        &mut self,
        flow: FlowId,
        entry: SwitchId,
        exit: SwitchId,
        exit_port: OutputPort,
    ) -> Result<usize, TopologyError> {
        let mut prev: Vec<Option<(SwitchId, OutputPort)>> = vec![None; self.switches.len()];
        let mut seen = vec![false; self.switches.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[entry.0] = true;
        queue.push_back(entry);
        while let Some(here) = queue.pop_front() {
            if here == exit {
                break;
            }
            for (out, target) in self.switches[here.0].targets.iter().enumerate() {
                if let PortTarget::Link { to, up: true, .. } = target {
                    if !seen[to.0] {
                        seen[to.0] = true;
                        prev[to.0] = Some((here, OutputPort::new(out)));
                        queue.push_back(*to);
                    }
                }
            }
        }
        if !seen[exit.0] {
            return Err(TopologyError::Unreachable {
                from: entry,
                to: exit,
            });
        }
        let mut hops = vec![(exit, exit_port)];
        let mut cursor = exit;
        while cursor != entry {
            let (from, out) = prev[cursor.0].expect("BFS predecessor recorded");
            hops.push((from, out));
            cursor = from;
        }
        let len = hops.len();
        for (sw, out) in hops {
            self.add_route(sw, flow, out)?;
        }
        Ok(len)
    }

    /// One CBR re-reservation attempt; schedules the next with doubled
    /// backoff on failure, or degrades the flow after the last.
    fn attempt_reservation(&mut self, now: u64, flow: FlowId, attempt: u32) {
        let ok = self.try_reserve_registered(flow);
        self.log.record_reservation(now, flow.0, attempt, ok);
        if ok {
            if let Some(spec) = self.flows.get_mut(&flow) {
                spec.degraded = false;
            }
        } else if attempt >= MAX_RESERVE_ATTEMPTS {
            self.mark_degraded(flow);
        } else {
            self.retries.push(Retry {
                flow,
                next_slot: now + (1u64 << attempt),
                attempt: attempt + 1,
            });
        }
    }

    /// Reserves the registered cells/frame along the flow's current path.
    fn try_reserve_registered(&mut self, flow: FlowId) -> bool {
        let Some(spec) = self.flows.get(&flow) else {
            return false;
        };
        let cells = spec.cbr_cells;
        if cells == 0 || !spec.reserved.is_empty() {
            return true;
        }
        let (entry, entry_port) = (spec.entry, spec.entry_port);
        let Some(hops) = self.trace_route(flow, entry, entry_port) else {
            return false;
        };
        match self.reserve_hops(&hops, cells) {
            Ok(done) => {
                if let Some(spec) = self.flows.get_mut(&flow) {
                    spec.reserved = done;
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Runs due re-reservation retries.
    fn process_retries(&mut self, now: u64) {
        let mut due = Vec::new();
        self.retries.retain(|r| {
            if r.next_slot <= now {
                due.push(*r);
                false
            } else {
                true
            }
        });
        for r in due {
            self.attempt_reservation(now, r.flow, r.attempt);
        }
    }

    /// Installs routes for `flow` along a minimum-hop link path from
    /// switch `entry` to switch `exit`, delivering there via `exit_port`
    /// (which should be a sink port). Ties between equal-length paths
    /// break deterministically by switch and port order. Down links are
    /// not used.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Unreachable`] if no up-link path exists
    /// (no routes are installed in that case),
    /// [`TopologyError::UnknownSwitch`] or
    /// [`TopologyError::PortOutOfRange`] for bad ids, and
    /// [`TopologyError::ConflictingRoute`] if the flow already has a
    /// different route on the chosen path.
    pub fn route_shortest(
        &mut self,
        flow: FlowId,
        entry: SwitchId,
        exit: SwitchId,
        exit_port: OutputPort,
    ) -> Result<(), TopologyError> {
        self.check_switch(entry)?;
        self.check_port(exit, exit_port.index())?;
        self.route_over_up_links(flow, entry, exit, exit_port)?;
        Ok(())
    }

    /// Traces the path a flow injected at switch `start` will follow:
    /// the sequence of `(switch, output port)` hops ending at a sink.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if a switch on the path lacks a route
    /// for the flow, or if the path loops.
    pub fn path_of(
        &self,
        flow: FlowId,
        start: SwitchId,
    ) -> Result<Vec<(SwitchId, OutputPort)>, TopologyError> {
        let mut path = Vec::new();
        let mut visited = an2_sched::det::DetHashSet::default();
        let mut here = start;
        loop {
            if !visited.insert(here) {
                return Err(TopologyError::RoutingLoop { flow, switch: here });
            }
            let node = self
                .switches
                .get(here.0)
                .ok_or(TopologyError::UnknownSwitch { switch: here })?;
            let &(out, _) = node
                .routes
                .get(&flow)
                .ok_or(TopologyError::MissingRoute { flow, switch: here })?;
            path.push((here, out));
            match node.targets[out.index()] {
                PortTarget::Link { to, .. } => here = to,
                PortTarget::Sink => return Ok(path),
            }
        }
    }

    /// Validates the whole configuration: every source's flows have a
    /// complete, loop-free route from their entry switch to a sink.
    ///
    /// Call after building the topology; [`step`](Self::step) would
    /// otherwise count the first violation as silent
    /// [`DropCause::NoRoute`] drops mid-simulation.
    ///
    /// # Errors
    ///
    /// Returns the first [`TopologyError`] found.
    pub fn validate(&self) -> Result<(), TopologyError> {
        for s in &self.sources {
            for &flow in &s.flows {
                self.path_of(flow, s.switch)?;
            }
        }
        Ok(())
    }

    /// Pushes a cell of `flow` into switch `sw` at input `port`, looking up
    /// the flow's output there. `injected_at` is preserved end-to-end for
    /// latency accounting. Arrival faults, missing routes, and full
    /// buffers all turn into counted drops.
    // an2-lint: allow(panic-freedom) sw and port come from the topology's validated switch table and radix; both index arrays sized at build time
    fn enqueue(&mut self, sw: SwitchId, port: InputPort, flow: FlowId, injected_at: u64) {
        let now = self.slot;
        if let Some(&(_, _, cause)) = self
            .arrival_faults
            .iter()
            .find(|&&(s, p, _)| s == sw.0 && p == port.index())
        {
            self.log.record_drop(now, sw.0, port.index(), flow.0, cause);
            return;
        }
        let node = &mut self.switches[sw.0];
        let Some((out, hint)) = node.routes.get_mut(&flow) else {
            self.log
                .record_drop(now, sw.0, port.index(), flow.0, DropCause::NoRoute);
            return;
        };
        let cell = Cell {
            flow,
            input: port,
            output: *out,
            arrival_slot: injected_at,
        };
        // an2-lint: allow(alloc-in-hot-path) FlowQueues::push_hinted grows its slab and flow table only when the queued cells or flows reach a new peak
        let outcome = node.buffers.push_hinted(cell, hint);
        if outcome == PushOutcome::Dropped {
            self.log
                .record_drop(now, sw.0, port.index(), flow.0, DropCause::BufferFull);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_switch_delivers() {
        let mut net = Network::new(1);
        let s = net.add_switch(4);
        let f = FlowId(9);
        net.add_route(s, f, OutputPort::new(2)).unwrap();
        net.add_source(s, InputPort::new(0), vec![f], 0.5).unwrap();
        net.run(2000);
        let d = net.delivered(f);
        assert!((d as f64 - 1000.0).abs() < 100.0, "delivered {d}");
        assert!(net.mean_latency(f).unwrap() < 1.5);
    }

    #[test]
    fn two_hop_latency_includes_link() {
        let mut net = Network::new(2);
        let a = net.add_switch(2);
        let b = net.add_switch(2);
        net.connect(a, OutputPort::new(1), b, InputPort::new(0), 3).unwrap();
        let f = FlowId(1);
        net.add_route(a, f, OutputPort::new(1)).unwrap();
        net.add_route(b, f, OutputPort::new(0)).unwrap();
        net.add_source(a, InputPort::new(0), vec![f], 1.0).unwrap();
        net.run(50);
        assert!(net.delivered(f) > 40);
        // Uncontended path: latency = 3 (link) + 0 queueing at each hop.
        let lat = net.mean_latency(f).unwrap();
        assert!((lat - 3.0).abs() < 0.5, "latency {lat}");
    }

    #[test]
    fn contention_shares_a_bottleneck_roughly_evenly() {
        // Two saturated sources into one switch, both routed to output 3:
        // each should get about half the link.
        let mut net = Network::new(5);
        let s = net.add_switch(4);
        let (f1, f2) = (FlowId(1), FlowId(2));
        net.add_route(s, f1, OutputPort::new(3)).unwrap();
        net.add_route(s, f2, OutputPort::new(3)).unwrap();
        net.add_source(s, InputPort::new(0), vec![f1], 1.0).unwrap();
        net.add_source(s, InputPort::new(1), vec![f2], 1.0).unwrap();
        net.run(4000);
        net.reset_counters();
        net.run(10_000);
        let (d1, d2) = (net.delivered(f1) as f64, net.delivered(f2) as f64);
        assert!((d1 + d2 - 10_000.0).abs() < 100.0, "bottleneck not saturated");
        let share = d1 / (d1 + d2);
        assert!((share - 0.5).abs() < 0.05, "share {share}");
    }

    #[test]
    fn source_round_robins_flows() {
        let mut net = Network::new(3);
        let s = net.add_switch(2);
        let (f1, f2) = (FlowId(1), FlowId(2));
        net.add_route(s, f1, OutputPort::new(0)).unwrap();
        net.add_route(s, f2, OutputPort::new(1)).unwrap();
        net.add_source(s, InputPort::new(0), vec![f1, f2], 1.0).unwrap();
        net.run(1000);
        let (d1, d2) = (net.delivered(f1), net.delivered(f2));
        assert!((d1 as i64 - d2 as i64).abs() <= 2, "{d1} vs {d2}");
    }

    #[test]
    fn queued_and_reset() {
        let mut net = Network::new(4);
        let s = net.add_switch(2);
        let (f1, f2) = (FlowId(1), FlowId(2));
        // Both flows to output 0: overload (2 cells/slot offered, 1 served).
        net.add_route(s, f1, OutputPort::new(0)).unwrap();
        net.add_route(s, f2, OutputPort::new(0)).unwrap();
        net.add_source(s, InputPort::new(0), vec![f1], 1.0).unwrap();
        net.add_source(s, InputPort::new(1), vec![f2], 1.0).unwrap();
        net.run(100);
        assert!(net.queued() > 80, "queued {}", net.queued());
        net.reset_counters();
        assert_eq!(net.delivered(f1), 0);
        assert_eq!(net.slot(), 100);
        // The lifetime ledgers survive the reset, so conservation still
        // balances afterwards.
        net.verify_invariants().unwrap();
        assert!(net.delivered_cells() > 0);
    }

    #[test]
    fn missing_route_counts_drops_instead_of_panicking() {
        let mut net = Network::new(0);
        let s = net.add_switch(2);
        net.add_source(s, InputPort::new(0), vec![FlowId(1)], 1.0).unwrap();
        net.run(10);
        assert_eq!(net.delivered(FlowId(1)), 0);
        let log = net.fault_log();
        assert_eq!(log.cells_dropped(), 10);
        assert!(log
            .drops()
            .iter()
            .all(|d| d.cause == DropCause::NoRoute && d.switch == s.0));
    }

    #[test]
    fn duplicate_source_is_a_typed_error() {
        let mut net = Network::new(0);
        let s = net.add_switch(2);
        net.add_route(s, FlowId(1), OutputPort::new(0)).unwrap();
        net.add_source(s, InputPort::new(0), vec![FlowId(1)], 1.0).unwrap();
        let e = net
            .add_source(s, InputPort::new(0), vec![FlowId(1)], 1.0)
            .unwrap_err();
        assert_eq!(e, TopologyError::DuplicateSource { switch: s, port: 0 });
        assert!(e.to_string().contains("already has a source"), "{e}");
    }

    #[test]
    fn conflicting_route_is_a_typed_error() {
        let mut net = Network::new(0);
        let s = net.add_switch(2);
        net.add_route(s, FlowId(1), OutputPort::new(0)).unwrap();
        // Re-adding the same route is idempotent...
        net.add_route(s, FlowId(1), OutputPort::new(0)).unwrap();
        // ...but a different one conflicts.
        let e = net.add_route(s, FlowId(1), OutputPort::new(1)).unwrap_err();
        assert_eq!(
            e,
            TopologyError::ConflictingRoute {
                flow: FlowId(1),
                switch: s
            }
        );
        assert!(e.to_string().contains("re-routed"), "{e}");
    }

    #[test]
    fn builder_errors_are_typed() {
        let mut net = Network::new(0);
        let s = net.add_switch(2);
        assert_eq!(
            net.connect(s, OutputPort::new(0), s, InputPort::new(1), 0),
            Err(TopologyError::BadLatency)
        );
        assert_eq!(
            net.connect(s, OutputPort::new(0), SwitchId(9), InputPort::new(0), 1),
            Err(TopologyError::UnknownSwitch {
                switch: SwitchId(9)
            })
        );
        assert_eq!(
            net.add_route(s, FlowId(1), OutputPort::new(7)),
            Err(TopologyError::PortOutOfRange {
                switch: s,
                port: 7,
                ports: 2
            })
        );
        assert_eq!(
            net.add_source(s, InputPort::new(0), vec![], 1.0),
            Err(TopologyError::NoFlows)
        );
        assert_eq!(
            net.add_source(s, InputPort::new(0), vec![FlowId(1)], 1.5),
            Err(TopologyError::InvalidRate)
        );
        assert_eq!(
            net.add_source(s, InputPort::new(0), vec![FlowId(1)], f64::NAN),
            Err(TopologyError::InvalidRate)
        );
    }
}

#[cfg(test)]
mod topology_tests {
    use super::*;

    #[test]
    fn validate_accepts_complete_configurations() {
        let mut net = Network::new(1);
        let a = net.add_switch(2);
        let b = net.add_switch(2);
        net.connect(a, OutputPort::new(1), b, InputPort::new(0), 1).unwrap();
        let f = FlowId(4);
        net.add_route(a, f, OutputPort::new(1)).unwrap();
        net.add_route(b, f, OutputPort::new(0)).unwrap();
        net.add_source(a, InputPort::new(0), vec![f], 1.0).unwrap();
        net.validate().unwrap();
        let path = net.path_of(f, a).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(path[0], (a, OutputPort::new(1)));
        assert_eq!(path[1], (b, OutputPort::new(0)));
    }

    #[test]
    fn validate_reports_missing_downstream_route() {
        let mut net = Network::new(1);
        let a = net.add_switch(2);
        let b = net.add_switch(2);
        net.connect(a, OutputPort::new(1), b, InputPort::new(0), 1).unwrap();
        let f = FlowId(4);
        net.add_route(a, f, OutputPort::new(1)).unwrap(); // but not at b
        net.add_source(a, InputPort::new(0), vec![f], 1.0).unwrap();
        let e = net.validate().unwrap_err();
        assert_eq!(e, TopologyError::MissingRoute { flow: f, switch: b });
        assert!(e.to_string().contains("no route"), "{e}");
    }

    #[test]
    fn validate_detects_routing_loops() {
        let mut net = Network::new(1);
        let a = net.add_switch(2);
        let b = net.add_switch(2);
        net.connect(a, OutputPort::new(0), b, InputPort::new(0), 1).unwrap();
        net.connect(b, OutputPort::new(0), a, InputPort::new(1), 1).unwrap();
        let f = FlowId(9);
        net.add_route(a, f, OutputPort::new(0)).unwrap();
        net.add_route(b, f, OutputPort::new(0)).unwrap();
        net.add_source(a, InputPort::new(0), vec![f], 1.0).unwrap();
        let e = net.validate().unwrap_err();
        assert!(matches!(e, TopologyError::RoutingLoop { .. }), "{e}");
    }

    #[test]
    fn path_of_unknown_switch_errors() {
        let net = Network::new(1);
        let e = net.path_of(FlowId(1), SwitchId(3)).unwrap_err();
        assert!(matches!(e, TopologyError::UnknownSwitch { .. }));
        assert!(e.to_string().contains("does not exist"));
    }
}

#[cfg(test)]
mod routing_tests {
    use super::*;

    /// A 2x2 grid of 4-port switches, links in both row/column directions.
    fn grid() -> (Network, [SwitchId; 4]) {
        let mut net = Network::new(3);
        let s: Vec<SwitchId> = (0..4).map(|_| net.add_switch(4)).collect();
        // s0 - s1
        // |     |
        // s2 - s3     (one-directional links, port 2 = east, port 3 = south)
        net.connect(s[0], OutputPort::new(2), s[1], InputPort::new(0), 1).unwrap();
        net.connect(s[0], OutputPort::new(3), s[2], InputPort::new(0), 1).unwrap();
        net.connect(s[1], OutputPort::new(3), s[3], InputPort::new(1), 1).unwrap();
        net.connect(s[2], OutputPort::new(2), s[3], InputPort::new(2), 1).unwrap();
        (net, [s[0], s[1], s[2], s[3]])
    }

    #[test]
    fn shortest_route_is_installed_and_works() {
        let (mut net, s) = grid();
        let f = FlowId(5);
        net.route_shortest(f, s[0], s[3], OutputPort::new(1)).unwrap();
        let path = net.path_of(f, s[0]).unwrap();
        // Two hops to cross the grid plus the delivery hop = 3 entries.
        assert_eq!(path.len(), 3);
        assert_eq!(path[0].0, s[0]);
        assert_eq!(path[2], (s[3], OutputPort::new(1)));
        net.add_source(s[0], InputPort::new(1), vec![f], 1.0).unwrap();
        net.validate().unwrap();
        net.run(100);
        assert!(net.delivered(f) > 90);
    }

    #[test]
    fn trivial_route_at_the_exit_switch() {
        let (mut net, s) = grid();
        let f = FlowId(6);
        net.route_shortest(f, s[3], s[3], OutputPort::new(0)).unwrap();
        let path = net.path_of(f, s[3]).unwrap();
        assert_eq!(path, vec![(s[3], OutputPort::new(0))]);
    }

    #[test]
    fn unreachable_exit_is_reported() {
        let (mut net, s) = grid();
        // Links only go east/south: s3 cannot reach s0.
        let e = net
            .route_shortest(FlowId(7), s[3], s[0], OutputPort::new(0))
            .unwrap_err();
        assert_eq!(e, TopologyError::Unreachable { from: s[3], to: s[0] });
        assert!(e.to_string().contains("no link path"));
        // Nothing was installed.
        assert!(matches!(
            net.path_of(FlowId(7), s[3]),
            Err(TopologyError::MissingRoute { .. })
        ));
    }

    #[test]
    fn shortest_route_prefers_fewest_hops() {
        let (mut net, s) = grid();
        // s0 -> s1 is direct (1 link); the alternative via s2/s3 is longer.
        let f = FlowId(8);
        net.route_shortest(f, s[0], s[1], OutputPort::new(1)).unwrap();
        let path = net.path_of(f, s[0]).unwrap();
        assert_eq!(path.len(), 2, "{path:?}");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use an2_sim::fault::FaultEvent;

    /// Three switches in a chain with a redundant diagonal:
    /// s0 --(out 2)--> s1 --(out 2)--> s2 --(out 0)--> sink
    /// plus s0 --(out 3, latency 3)--> s2 (input 1) as backup.
    fn chain_with_backup() -> (Network, [SwitchId; 3], FlowId) {
        let mut net = Network::new(0xFA);
        let s0 = net.add_switch(4);
        let s1 = net.add_switch(4);
        let s2 = net.add_switch(4);
        net.connect(s0, OutputPort::new(2), s1, InputPort::new(0), 1).unwrap();
        net.connect(s1, OutputPort::new(2), s2, InputPort::new(0), 1).unwrap();
        net.connect(s0, OutputPort::new(3), s2, InputPort::new(1), 3).unwrap();
        let f = FlowId(42);
        for sw in [s0, s1] {
            net.add_route(sw, f, OutputPort::new(2)).unwrap();
        }
        net.add_route(s2, f, OutputPort::new(0)).unwrap();
        net.add_source(s0, InputPort::new(2), vec![f], 1.0).unwrap();
        net.validate().unwrap();
        (net, [s0, s1, s2], f)
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let (mut plain, _, f) = chain_with_backup();
        let (mut faulted, _, _) = chain_with_backup();
        faulted.set_fault_plan(FaultPlan::new());
        plain.run(500);
        faulted.run(500);
        assert_eq!(plain.delivered(f), faulted.delivered(f));
        assert_eq!(plain.queued(), faulted.queued());
        assert_eq!(faulted.fault_log().digest(), FaultLog::new().digest());
    }

    #[test]
    fn link_down_reroutes_over_the_backup_path() {
        let (mut net, [s0, _, _], f) = chain_with_backup();
        net.set_fault_plan(FaultPlan::from_events(vec![FaultEvent {
            slot: 100,
            kind: FaultKind::LinkDown { switch: 0, output: 2 },
        }]));
        net.run(400);
        // The flow now crosses the diagonal.
        let path = net.path_of(f, s0).unwrap();
        assert_eq!(path[0], (s0, OutputPort::new(3)));
        assert_eq!(net.link_is_up(s0, OutputPort::new(2)), Some(false));
        let log = net.fault_log();
        assert_eq!(log.reroutes().len(), 1);
        assert_eq!(log.reroutes()[0].flow, f.0);
        // Service continued: well over half the slots delivered.
        assert!(net.delivered(f) > 300, "delivered {}", net.delivered(f));
        assert!(!net.flow_degraded(f));
    }

    #[test]
    fn link_down_without_backup_strands_then_link_up_repairs() {
        let mut net = Network::new(7);
        let a = net.add_switch(2);
        let b = net.add_switch(2);
        net.connect(a, OutputPort::new(1), b, InputPort::new(0), 1).unwrap();
        let f = FlowId(5);
        net.add_route(a, f, OutputPort::new(1)).unwrap();
        net.add_route(b, f, OutputPort::new(0)).unwrap();
        net.add_source(a, InputPort::new(0), vec![f], 1.0).unwrap();
        net.set_fault_plan(FaultPlan::from_events(vec![
            FaultEvent {
                slot: 50,
                kind: FaultKind::LinkDown { switch: 0, output: 1 },
            },
            FaultEvent {
                slot: 150,
                kind: FaultKind::LinkUp { switch: 0, output: 1 },
            },
        ]));
        net.run(100);
        let at_outage = net.delivered(f);
        // Stranded: injections become NoRoute drops.
        assert!(net
            .fault_log()
            .drops()
            .iter()
            .any(|d| d.cause == DropCause::NoRoute));
        net.run(200);
        // Repaired: deliveries resumed after slot 150.
        assert!(
            net.delivered(f) > at_outage + 100,
            "delivered {}",
            net.delivered(f)
        );
        assert_eq!(net.fault_log().reroutes().len(), 1);
        net.validate().unwrap();
    }

    #[test]
    fn in_flight_cells_on_a_dead_link_are_lost() {
        let mut net = Network::new(9);
        let a = net.add_switch(2);
        let b = net.add_switch(2);
        // Long latency so cells are in flight when the link dies.
        net.connect(a, OutputPort::new(1), b, InputPort::new(0), 10).unwrap();
        let f = FlowId(3);
        net.add_route(a, f, OutputPort::new(1)).unwrap();
        net.add_route(b, f, OutputPort::new(0)).unwrap();
        net.add_source(a, InputPort::new(0), vec![f], 1.0).unwrap();
        net.set_fault_plan(FaultPlan::from_events(vec![FaultEvent {
            slot: 20,
            kind: FaultKind::LinkDown { switch: 0, output: 1 },
        }]));
        net.run(40);
        let dead = net
            .fault_log()
            .drops()
            .iter()
            .filter(|d| d.cause == DropCause::DeadLink)
            .count();
        // ~10 cells were mid-link at the failure.
        assert!(dead >= 8, "only {dead} dead-link drops");
    }

    #[test]
    fn cell_faults_and_port_faults_are_counted() {
        let mut net = Network::new(4);
        let s = net.add_switch(2);
        let f = FlowId(1);
        net.add_route(s, f, OutputPort::new(1)).unwrap();
        net.add_source(s, InputPort::new(0), vec![f], 1.0).unwrap();
        net.set_fault_plan(FaultPlan::from_events(vec![
            FaultEvent {
                slot: 5,
                kind: FaultKind::CellDrop { switch: 0, input: 0 },
            },
            FaultEvent {
                slot: 6,
                kind: FaultKind::CellCorrupt { switch: 0, input: 0 },
            },
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
        ]));
        net.run(60);
        let log = net.fault_log();
        assert_eq!(log.applied().len(), 4);
        assert!(log.drops().iter().any(|d| d.cause == DropCause::Injected));
        assert!(log.drops().iter().any(|d| d.cause == DropCause::Corrupted));
        // The port outage paused delivery but everything still flows after.
        assert!(net.delivered(f) >= 40, "delivered {}", net.delivered(f));
    }

    #[test]
    fn clock_drift_pauses_scheduling_then_drains() {
        let mut net = Network::new(11);
        let s = net.add_switch(2);
        let f = FlowId(2);
        net.add_route(s, f, OutputPort::new(0)).unwrap();
        net.add_source(s, InputPort::new(0), vec![f], 1.0).unwrap();
        net.set_fault_plan(FaultPlan::from_events(vec![FaultEvent {
            slot: 10,
            kind: FaultKind::ClockDrift { switch: 0, slots: 20 },
        }]));
        net.run(30);
        // Arrivals kept buffering during the excursion.
        assert!(net.queued() >= 19, "queued {}", net.queued());
        let frozen = net.delivered(f);
        net.run(60);
        assert!(net.delivered(f) > frozen + 40);
    }

    #[test]
    fn finite_buffers_shed_overload_gracefully() {
        let mut net = Network::new(13);
        let s = net.add_switch(2);
        let (f1, f2) = (FlowId(1), FlowId(2));
        // 2 cells/slot offered into one output serving 1 cell/slot.
        net.add_route(s, f1, OutputPort::new(0)).unwrap();
        net.add_route(s, f2, OutputPort::new(0)).unwrap();
        net.add_source(s, InputPort::new(0), vec![f1], 1.0).unwrap();
        net.add_source(s, InputPort::new(1), vec![f2], 1.0).unwrap();
        net.set_buffer_capacity(s, Some(4)).unwrap();
        net.run(200);
        // Queues stay bounded; the excess shows up as BufferFull drops.
        assert!(net.queued() <= 8, "queued {}", net.queued());
        let log = net.fault_log();
        assert!(log.cells_dropped() > 50);
        assert!(log.drops().iter().all(|d| d.cause == DropCause::BufferFull));
        // The bottleneck still ran at full rate.
        assert!(net.delivered(f1) + net.delivered(f2) > 180);
    }

    #[test]
    fn cbr_reservation_follows_a_reroute() {
        let (mut net, [s0, s1, s2], f) = chain_with_backup();
        for sw in [s0, s1, s2] {
            net.enable_cbr(sw, 10).unwrap();
        }
        net.reserve_flow(f, 3).unwrap();
        assert!(net.cbr_schedule(s1).unwrap().verify());
        assert_eq!(
            net.cbr_schedule(s1)
                .unwrap()
                .scheduled_cells(InputPort::new(0), OutputPort::new(2)),
            3
        );
        net.set_fault_plan(FaultPlan::from_events(vec![FaultEvent {
            slot: 50,
            kind: FaultKind::LinkDown { switch: 0, output: 2 },
        }]));
        net.run(100);
        // The reservation moved: s1 is off the path, s0 now reserves the
        // diagonal, s2 the landing input.
        assert_eq!(
            net.cbr_schedule(s1)
                .unwrap()
                .scheduled_cells(InputPort::new(0), OutputPort::new(2)),
            0
        );
        assert_eq!(
            net.cbr_schedule(s0)
                .unwrap()
                .scheduled_cells(InputPort::new(2), OutputPort::new(3)),
            3
        );
        assert_eq!(
            net.cbr_schedule(s2)
                .unwrap()
                .scheduled_cells(InputPort::new(1), OutputPort::new(0)),
            3
        );
        let log = net.fault_log();
        assert_eq!(log.reservations().len(), 1);
        assert!(log.reservations()[0].ok);
        assert!(!net.flow_degraded(f));
        assert!(net.cbr_schedule(s0).unwrap().verify());
        assert!(net.cbr_schedule(s2).unwrap().verify());
    }

    #[test]
    fn exhausted_rereservation_degrades_to_best_effort() {
        let (mut net, [s0, s1, s2], f) = chain_with_backup();
        // Tiny frames: after the reroute the diagonal hop cannot host the
        // reservation because a competing flow holds all its slots.
        for sw in [s0, s1, s2] {
            net.enable_cbr(sw, 2).unwrap();
        }
        net.reserve_flow(f, 2).unwrap();
        // A blocker flow saturates the diagonal's frame capacity.
        let blocker = FlowId(77);
        net.add_route(s0, blocker, OutputPort::new(3)).unwrap();
        net.add_route(s2, blocker, OutputPort::new(1)).unwrap();
        net.add_source(s0, InputPort::new(1), vec![blocker], 0.1).unwrap();
        net.reserve_flow(blocker, 2).unwrap();
        net.set_fault_plan(FaultPlan::from_events(vec![FaultEvent {
            slot: 10,
            kind: FaultKind::LinkDown { switch: 0, output: 2 },
        }]));
        net.run(200);
        let log = net.fault_log();
        // All attempts failed with exponential backoff, then degradation.
        assert_eq!(log.reservations().len(), MAX_RESERVE_ATTEMPTS as usize);
        assert!(log.reservations().iter().all(|r| !r.ok));
        let slots: Vec<u64> = log.reservations().iter().map(|r| r.slot).collect();
        for w in slots.windows(2) {
            assert!(w[1] > w[0], "retries must be spread out: {slots:?}");
        }
        assert_eq!(log.degraded(), &[f.0]);
        assert!(net.flow_degraded(f));
        // Best-effort service continues regardless.
        let before = net.delivered(f);
        net.run(100);
        assert!(net.delivered(f) > before + 50);
    }
}
