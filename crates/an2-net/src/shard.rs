//! Sharded thousand-switch network stepper.
//!
//! [`Network`](crate::netsim::Network) is a single-threaded, fully general
//! simulator (arbitrary topologies, faults, rerouting); stepping a
//! 1000-switch network through 10k slots with it is a minutes-scale job.
//! This module is the scale-out companion: a fixed **ring** of identical
//! crossbar switches stepped in lockstep by an [`an2_task::Pool`] team
//! ([`Pool::lockstep`]), so the same run is bit-identical at any thread
//! count.
//!
//! Determinism argument: every switch's state — its traffic generator,
//! its PIM scheduler streams, its VOQ contents — is a function of its own
//! seed (`task_seed(root, "sw{k}")`) and of the cells its ring
//! predecessor hands it. Each ring link is a pair of per-sender cells
//! indexed by slot parity. In slot `s`, switch `k`:
//!
//! 1. takes its predecessor's cell from the link's slot `s - 1` half
//!    (one-slot link latency),
//! 2. injects host traffic from its private RNG, schedules its crossbar
//!    and delivers local cells,
//! 3. writes its outgoing cell (or the empty sentinel) into its own
//!    link's slot `s` half.
//!
//! A switch writes only its own state and the slot-`s` half of its own
//! link, and reads only the slot-`s - 1` half of its predecessor's. The
//! pool's barrier between slots orders every slot-`s - 1` write before
//! every slot-`s` read, so how the team partitions the ring cannot affect
//! any value.
//!
//! Each switch runs on the port-set width its radix picks
//! ([`with_port_width!`]): the thousand-switch ring's radix-16 switches
//! keep their request matrix, matching and masks in one 64-bit word per
//! row, which the four-word width would zero and scan four times over.
//!
//! State follows traffic, as the paper's shared random-access input
//! buffers do (§2.4). A radix-16 switch keeps an 832-byte record (RNG,
//! counters, fault state, the scheduler's fixed part), a 4-byte queue
//! handle per pair (1 KB), a queue slab ([`QueueSlab`] of packed `u64`
//! cells) that starts with eight 64-byte records and holds one only per
//! pair with queued cells, and PIM's per-port streams and request rows.
//! That is 4.4 KB of heap per switch when the thousand-switch ring is
//! built and 4.6 KB after its 10k slots (peak heap over the 1000
//! switches, counting allocator), against 13.2 and 14.2 KB with a ring
//! buffer per pair and a delay sketch per switch. Only the `2 * radix - 1`
//! pairs into the ring port or out of the ring input ever hold a cell.
//!
//! What the run reports about delivered cells (the delay sketch, the
//! summed delay, the faulted runs' per-window deliveries) is gathered
//! once per lockstep part, not per switch: [`Pool::lockstep`] hands each
//! part its own tally, and the tallies merge by addition in part order,
//! which no partition can change. The end-of-run [`ShardReport`]
//! aggregates per-switch counters in index order and carries an FNV
//! digest over them, so `--threads 1` and `--threads 8` runs can be
//! byte-compared.
//!
//! Cells carry the low 32 bits of their injection slot, and a delay is
//! the wrapping difference of two stamps, so runs may pass 2^32 slots.

use an2_sched::rng::{Bernoulli, SelectRng, Xoshiro256};
use an2_sched::{with_port_width, PimN, RequestMatrixN, Scheduler};
use an2_sim::fault::{FaultEvent, FaultKind, FaultPlan, LostArrivals, PortSide, SwitchFaults};
use an2_sim::metrics::QuantileSketch;
use an2_sim::slab::{QueueSlab, NO_QUEUE};
use an2_task::{task_seed, Fnv, Pool};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Largest ring: [`pack`] keeps the destination switch in 20 bits.
const MAX_SWITCHES: usize = 1 << 20;

/// A ring-link half carrying no cell. [`pack`] never produces it: a
/// packed cell's port field is below the radix (at most 256, enforced by
/// [`ShardNetConfig::validate`]), never the all-ones `0xFFF`.
const EMPTY: u64 = u64::MAX;

/// One ring link, owned by its sender: the cell sent in slot `s` waits in
/// the half of `s`'s parity until the receiver takes it in slot `s + 1`.
/// Each half holds a packed cell or [`EMPTY`]. Halves are accessed with
/// `Relaxed` ordering: the cell is the only data they publish, and the
/// [`Pool::lockstep`] barrier between slots orders every store of slot
/// `s` before every load of slot `s + 1`.
#[derive(Debug)]
struct Link {
    even: AtomicU64,
    odd: AtomicU64,
}

impl Link {
    fn new() -> Self {
        Link {
            even: AtomicU64::new(EMPTY),
            odd: AtomicU64::new(EMPTY),
        }
    }

    /// The half carrying the cell sent in `slot`.
    #[inline]
    fn half(&self, slot: u64) -> &AtomicU64 {
        if slot & 1 == 0 {
            &self.even
        } else {
            &self.odd
        }
    }
}

/// Longest gap between ring-link re-reservation probes (slots). Backoff
/// doubles from 1 up to this bound, so a switch whose outgoing link died
/// probes the link within `MAX_BACKOFF` slots of it physically returning.
const MAX_BACKOFF: u64 = 64;

/// Queue records a switch's slab starts with, besides its sentinel: eight
/// records fill 512 bytes. At the thousand-switch ring's load a switch
/// seldom has more than seven pairs holding cells at once; a busier one
/// grows its slab to its peak and then recycles records.
const SLAB_RESERVE: usize = 7;

/// Slots per throughput-recovery window in faulted runs: delivered-cell
/// counts are bucketed at this granularity so the chaos driver can find
/// the slot where post-fault throughput regains its pre-fault baseline.
pub const FAULT_WINDOW: u64 = 32;

/// Scenario parameters for a sharded ring-network run.
#[derive(Clone, Copy, Debug)]
pub struct ShardNetConfig {
    /// Switches on the ring.
    pub switches: usize,
    /// Ports per switch; port 0 is the ring link, ports `1..radix` face
    /// hosts.
    pub radix: usize,
    /// Destination span: each injected cell targets a switch uniformly
    /// `1..=span` hops ahead on the ring.
    pub span: usize,
    /// Per-host-port Bernoulli injection probability per slot. Keep
    /// `host_load * (radix-1) * (span+1) / 2` under 1.0 or the shared
    /// ring link saturates and queues diverge.
    pub host_load: f64,
    /// Root seed; switch `k` derives its streams via
    /// `task_seed(seed, "sw{k}")`.
    pub seed: u64,
    /// Slots to simulate.
    pub slots: u64,
}

impl ShardNetConfig {
    /// The thousand-switch scaling scenario the benchmarks record.
    pub fn thousand() -> Self {
        Self {
            switches: 1000,
            radix: 16,
            span: 4,
            host_load: 0.015,
            seed: 0xA2,
            slots: 10_000,
        }
    }

    /// Checks every range the packed cell format and the ring links rely
    /// on; the radix bound keeps a packed cell distinct from the link's
    /// [`EMPTY`] sentinel. The slot count is unbounded: cells carry the
    /// slot's low 32 bits, and delays are wrapping differences.
    fn validate(&self) {
        assert!(self.switches >= 2, "a ring needs at least two switches");
        assert!(
            self.switches <= MAX_SWITCHES,
            "the destination switch is packed in 20 bits (at most 2^20 switches)"
        );
        assert!(
            self.radix >= 2 && self.radix <= an2_sched::MAX_PORTS,
            "shard radix 2..=256: one-word port sets up to 64 ports, four-word up to 256"
        );
        assert!(self.span >= 1 && self.span < self.switches, "span out of range");
        assert!(
            (0.0..=1.0).contains(&self.host_load),
            "host_load must be a probability"
        );
    }
}

/// Packed transit cell: destination switch (20 bits), destination host
/// port (12 bits), low 32 bits of the injection slot.
#[inline]
fn pack(dst_switch: usize, dst_port: usize, stamp: u32) -> u64 {
    debug_assert!(
        dst_switch < MAX_SWITCHES && dst_port < 0xFFF,
        "cell fields out of range: switch {dst_switch}, port {dst_port}"
    );
    ((dst_switch as u64) << 44) | ((dst_port as u64) << 32) | u64::from(stamp)
}

#[inline]
fn dst_switch(cell: u64) -> usize {
    (cell >> 44) as usize
}

#[inline]
fn dst_port(cell: u64) -> usize {
    ((cell >> 32) & 0xFFF) as usize
}

/// The low 32 bits of the slot `cell` was injected in.
#[inline]
fn stamp(cell: u64) -> u32 {
    cell as u32
}

/// What one lockstep part gathers from the switches it steps: the delays
/// of the cells they deliver and, in faulted runs, the deliveries per
/// [`FAULT_WINDOW`]. Every field merges by addition (the sketch bucket by
/// bucket), so the merged tally is the same however the ring was split.
#[derive(Debug)]
struct PartTally {
    /// Summed end-to-end delay of the delivered cells.
    delay_sum: u128,
    delay: QuantileSketch,
    /// Delivered-cell counts per window; empty in fault-free runs.
    windows: Vec<u64>,
    /// The window the current slot falls in.
    window: usize,
}

impl PartTally {
    fn new(buckets: usize) -> Self {
        Self {
            delay_sum: 0,
            delay: QuantileSketch::new(),
            windows: vec![0; buckets],
            window: 0,
        }
    }

    /// Records a cell delivered `d` slots after its injection.
    #[inline]
    // an2-lint: allow(overflow-discipline) monotone sums of delivered cells and their delays, bounded by the run's cell-slots
    fn deliver(&mut self, d: u64) {
        self.delay_sum += u128::from(d);
        self.delay.record(d);
        if let Some(w) = self.windows.get_mut(self.window) {
            *w += 1;
        }
    }

    /// Adds `other` into this tally.
    fn merge(&mut self, other: &PartTally) {
        self.delay_sum += other.delay_sum;
        self.delay.merge(&other.delay);
        for (w, &v) in self.windows.iter_mut().zip(&other.windows) {
            *w += v;
        }
    }
}

/// One ring switch: private RNG, PIM scheduler, per-pair queue handles
/// into its own queue slab, and the single-cell buffers for the ring
/// link's receive and send ends, on `W`-word port sets.
#[derive(Debug)]
struct SwitchShard<const W: usize> {
    k: usize,
    switches: usize,
    radix: usize,
    span: usize,
    /// Whether a host port injects a cell this slot, as
    /// `rng.bernoulli(host_load)` would decide it.
    host_fires: Bernoulli,
    rng: Xoshiro256,
    sched: PimN<Xoshiro256, W>,
    requests: RequestMatrixN<W>,
    /// One [`QueueSlab`] handle per pair, row-major; [`NO_QUEUE`] while
    /// the pair holds no cell.
    handles: Vec<u32>,
    /// Queue records of the pairs holding cells: on the ring only the
    /// `2 * radix - 1` pairs into the ring port or out of the ring input
    /// ever do, and at light load a few at a time.
    slab: QueueSlab<u64>,
    inbox: Option<u64>,
    outbox: Option<u64>,
    queued: u64,
    injected: u64,
    delivered: u64,
    // --- fault state (inert in fault-free runs) ---------------------
    /// This switch's slice of the campaign's fault plan.
    plan: FaultPlan,
    /// Port health and clock drift; failed ports are masked out of
    /// scheduling only.
    faults: SwitchFaults<W>,
    /// Physical state of the outgoing ring link (LinkDown/LinkUp events).
    link_up: bool,
    /// A re-reservation backoff loop is running for the ring link.
    reserving: bool,
    /// Slot of the next re-reservation probe.
    retry_at: u64,
    /// Current probe gap; doubles per failure up to [`MAX_BACKOFF`].
    backoff: u64,
    /// Slot the current ring-link outage began (for recovery SLOs).
    down_since: u64,
    /// Cells lost at this switch (injected drops, corrupted CRCs, cells
    /// in flight on a dying link).
    dropped: u64,
    /// Fault events applied here.
    applied: u64,
    /// Ring-link re-reservation probes sent / probes that failed.
    res_attempts: u64,
    res_failures: u64,
    /// Completed ring-link recoveries, and their summed outage-to-
    /// reservation latency in slots.
    recoveries: u64,
    recovery_slots: u64,
}

impl<const W: usize> SwitchShard<W> {
    fn new(cfg: &ShardNetConfig, k: usize) -> Self {
        let seed = task_seed(cfg.seed, &format!("sw{k}"));
        Self {
            k,
            switches: cfg.switches,
            radix: cfg.radix,
            span: cfg.span,
            host_fires: Bernoulli::new(cfg.host_load),
            rng: Xoshiro256::seed_from(seed),
            sched: PimN::new(cfg.radix, seed),
            requests: RequestMatrixN::new(cfg.radix),
            handles: vec![NO_QUEUE; cfg.radix * cfg.radix],
            slab: QueueSlab::with_capacity(SLAB_RESERVE),
            inbox: None,
            outbox: None,
            queued: 0,
            injected: 0,
            delivered: 0,
            plan: FaultPlan::new(),
            faults: SwitchFaults::new(cfg.radix),
            link_up: true,
            reserving: false,
            retry_at: 0,
            backoff: 1,
            down_since: 0,
            dropped: 0,
            applied: 0,
            res_attempts: 0,
            res_failures: 0,
            recoveries: 0,
            recovery_slots: 0,
        }
    }

    #[inline]
    // an2-lint: allow(overflow-discipline) queued counts resident cells, bounded by the slab's records
    // an2-lint: allow(panic-freedom) p = input * radix + output with both factors < radix, so p < handles.len()
    fn enqueue_cell(&mut self, input: usize, cell: u64) {
        let output = if dst_switch(cell) == self.k {
            dst_port(cell)
        } else {
            0
        };
        let p = input * self.radix + output;
        if self.slab.admit(&mut self.handles[p], cell) {
            self.requests.set(
                an2_sched::InputPort::new(input),
                an2_sched::OutputPort::new(output),
            );
        }
        self.queued += 1;
    }

    /// One slot: take the predecessor's cell off its link, run the slot
    /// (under this switch's fault plan when `FAULTED`), then put the
    /// outgoing cell, or [`EMPTY`], on this switch's own link. Delivered
    /// cells are recorded in `tally`, the stepping part's.
    // an2-lint: hot
    fn step<const FAULTED: bool>(&mut self, slot: u64, links: &[Link], tally: &mut PartTally) {
        debug_assert_eq!(links.len(), self.switches, "one link per switch");
        self.receive(links, slot);
        if FAULTED {
            self.faulted_slot(slot, tally);
        } else {
            self.advance(slot, &LostArrivals::default(), true, tally);
        }
        let out = self.outbox.take().unwrap_or(EMPTY);
        if let Some(link) = links.get(self.k) {
            link.half(slot).store(out, Ordering::Relaxed);
        }
    }

    /// Takes into the inbox the predecessor's cell, if any, that was sent
    /// in the slot before `slot`.
    #[inline]
    fn receive(&mut self, links: &[Link], slot: u64) {
        let pred = if self.k == 0 { self.switches } else { self.k } - 1;
        let cell = links.get(pred).map_or(EMPTY, |link| {
            link.half(slot.wrapping_sub(1)).load(Ordering::Relaxed)
        });
        self.inbox = (cell != EMPTY).then_some(cell);
    }

    /// Applies this switch's due fault events (mask changes, on-the-wire
    /// cell losses, clock drift), runs the bounded-backoff
    /// re-reservation probe for a failed ring link, then the ordinary
    /// inject/schedule/transmit sequence. The ring output stays masked
    /// from a link's failure until a probe re-reserves it, so no cell is
    /// sent onto a dead link; should one be, it is lost here, at the
    /// sender, and counted. With an empty plan
    /// the slot is bit-identical to a fault-free one — the RNG draw order
    /// never depends on fault state.
    // an2-lint: hot
    // an2-lint: allow(overflow-discipline) monotone u64 fault counters; slot >= down_since and backoff is clamped to MAX_BACKOFF, so the slot arithmetic cannot wrap
    fn faulted_slot(&mut self, slot: u64, tally: &mut PartTally) {
        let mut lost = LostArrivals::default();
        let mut mask_changed = false;
        // Move the plan out so event handling can borrow `self` freely.
        let mut plan = std::mem::take(&mut self.plan);
        for ev in plan.due(slot) {
            match ev.kind {
                // Physical repair only: the output stays masked until a
                // re-reservation probe succeeds.
                FaultKind::LinkUp { output: 0, .. } => self.link_up = true,
                // Nor does a port recovery unmask the ring output while
                // the re-reservation loop runs: the link may still be
                // down, and cells sent onto it would be lost.
                FaultKind::PortRecover {
                    side: PortSide::Output,
                    port: 0,
                    ..
                } if self.reserving => {}
                kind => {
                    if let FaultKind::LinkDown { output: 0, .. } = kind {
                        // The outgoing ring link died: start the
                        // re-reservation loop. The cell already on the
                        // wire is the successor's to drop (`split_plan`).
                        self.link_up = false;
                        if !self.reserving {
                            self.reserving = true;
                            self.down_since = slot;
                            self.backoff = 1;
                            self.retry_at = slot + 1;
                        }
                    }
                    mask_changed |= self.faults.apply(slot, kind, &mut lost);
                }
            }
            self.applied += 1;
        }
        self.plan = plan;
        // Bounded-backoff re-reservation: probe the dead ring link on the
        // backoff schedule; once it is physically up a probe re-reserves
        // the slot capacity and unmasks the output.
        if self.reserving && slot >= self.retry_at {
            self.res_attempts += 1;
            if self.link_up {
                self.reserving = false;
                mask_changed |= self.faults.recover_output(0);
                self.recoveries += 1;
                self.recovery_slots += slot - self.down_since;
            } else {
                self.res_failures += 1;
                self.backoff = (self.backoff * 2).min(MAX_BACKOFF);
                self.retry_at = slot + self.backoff;
            }
        }
        if mask_changed {
            self.sched.set_port_mask(self.faults.mask());
        }
        let schedule = self.faults.schedules(slot);
        self.advance(slot, &lost, schedule, tally);
        if !self.link_up && self.outbox.take().is_some() {
            self.dropped += 1;
        }
    }

    /// The slot engine shared by fault-free and faulted slots. RNG draws
    /// happen for every host arrival whether or not a fault consumes it,
    /// so masking and drops are draw-neutral. An idle crossbar skips the
    /// scheduler call, which PIM declares draw-neutral
    /// ([`Scheduler::idle_slot_is_noop`]). Cells are stamped with the
    /// slot's low 32 bits and a delay is the wrapping difference of two
    /// stamps, so runs may pass 2^32 slots.
    // an2-lint: hot
    // an2-lint: allow(overflow-discipline) queued mirrors slab occupancy; delivery counters are monotone u64
    // an2-lint: allow(panic-freedom) matched pairs come from the scheduler, so i and j are < radix and p < handles.len()
    fn advance(
        &mut self,
        slot: u64,
        lost: &LostArrivals<W>,
        schedule: bool,
        tally: &mut PartTally,
    ) {
        let now = slot as u32;
        if let Some(cell) = self.inbox.take() {
            if lost.cause(0).is_some() {
                // The cell in flight on the (dying or glitching) ring link
                // is lost at the receiver.
                self.dropped += 1;
            } else {
                self.enqueue_cell(0, cell);
            }
        }
        for h in 1..self.radix {
            if self.host_fires.sample(&mut self.rng) {
                let d = (self.k + 1 + self.rng.index(self.span)) % self.switches;
                let q = 1 + self.rng.index(self.radix - 1);
                self.injected += 1;
                if lost.cause(h).is_some() {
                    self.dropped += 1;
                } else {
                    self.enqueue_cell(h, pack(d, q, now));
                }
            }
        }
        if !schedule || (self.requests.is_empty() && self.sched.idle_slot_is_noop()) {
            return;
        }
        let matching = self.sched.schedule(&self.requests);
        for (i, j) in matching.pairs() {
            let p = i.index() * self.radix + j.index();
            let (cell, drained) = self.slab.serve(&mut self.handles[p]);
            if drained {
                self.requests.clear(i, j);
            }
            self.queued -= 1;
            if j.index() == 0 {
                debug_assert!(self.outbox.is_none(), "two cells matched onto the ring link");
                self.outbox = Some(cell);
            } else {
                self.delivered += 1;
                tally.deliver(u64::from(now.wrapping_sub(stamp(cell))));
            }
        }
    }

    /// Cells still inside this switch (VOQs plus undelivered link buffers).
    fn in_flight(&self) -> u64 {
        self.queued + self.inbox.is_some() as u64 + self.outbox.is_some() as u64
    }
}

/// Aggregate result of a sharded network run; identical at any thread
/// count for a given [`ShardNetConfig`].
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Slots simulated.
    pub slots: u64,
    /// Switches on the ring.
    pub switches: usize,
    /// Cells injected by hosts.
    pub injected: u64,
    /// Cells delivered to their destination host port.
    pub delivered: u64,
    /// Cells still queued or on a link at the end of the run.
    pub in_flight: u64,
    /// End-to-end delay distribution of delivered cells (injection slot to
    /// delivery slot), in the O(1)-memory sketch.
    pub delay: QuantileSketch,
    /// Exact mean end-to-end delay in slots.
    pub mean_delay: f64,
    /// FNV-1a digest over per-switch `(injected, delivered, in_flight)`
    /// triples in switch-index order — a thread-count-independence probe.
    pub digest: u64,
}

impl ShardReport {
    /// Every injected cell is delivered or still in flight.
    pub fn is_conserved(&self) -> bool {
        self.injected == self.delivered + self.in_flight
    }
}

impl fmt::Display for ShardReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "shard-net: {} switches x {} slots",
            self.switches, self.slots
        )?;
        writeln!(
            f,
            "  injected {}  delivered {}  in-flight {}",
            self.injected, self.delivered, self.in_flight
        )?;
        writeln!(
            f,
            "  delay mean {:.4}  p50 {}  p99 {}  max {}",
            self.mean_delay,
            self.delay.quantile(0.50),
            self.delay.quantile(0.99),
            self.delay.max()
        )?;
        write!(f, "  digest {:#018x}", self.digest)
    }
}

/// Runs the configured ring network on `pool` and returns the merged
/// report.
///
/// # Panics
///
/// Panics if the configuration is out of range (see [`ShardNetConfig`]
/// field docs) or if cell conservation is violated.
pub fn run_shard_net(cfg: &ShardNetConfig, pool: &Pool) -> ShardReport {
    let r = with_port_width!(cfg.radix, W => drive::<W, false>(cfg, &FaultPlan::new(), pool, 0));
    ShardReport {
        slots: r.slots,
        switches: r.switches,
        injected: r.injected,
        delivered: r.delivered,
        in_flight: r.in_flight,
        delay: r.delay,
        mean_delay: r.mean_delay,
        digest: r.digest,
    }
}

/// Aggregate result of a faulted sharded run; identical at any thread
/// count for a given `(ShardNetConfig, FaultPlan)` pair.
#[derive(Clone, Debug)]
pub struct ShardFaultReport {
    /// Slots simulated.
    pub slots: u64,
    /// Switches on the ring.
    pub switches: usize,
    /// Cells injected by hosts.
    pub injected: u64,
    /// Cells delivered to their destination host port.
    pub delivered: u64,
    /// Cells still queued or on a link at the end of the run.
    pub in_flight: u64,
    /// Cells lost to faults (injected drops, corrupted CRCs, cells caught
    /// on a dying ring link).
    pub dropped: u64,
    /// Fault events applied across the network.
    pub faults_applied: u64,
    /// Ring-link re-reservation probes sent, and probes that found the
    /// link still down.
    pub res_attempts: u64,
    /// Failed re-reservation probes (link still physically down).
    pub res_failures: u64,
    /// Completed ring-link recoveries.
    pub recoveries: u64,
    /// Summed outage-begin-to-reservation latency over all recoveries.
    pub recovery_slots: u64,
    /// Exact mean end-to-end delay of delivered cells, in slots.
    pub mean_delay: f64,
    /// End-to-end delay distribution of delivered cells.
    pub delay: QuantileSketch,
    /// Network-wide delivered-cell counts per [`FAULT_WINDOW`]-slot
    /// bucket, for throughput-recovery SLOs.
    pub windows: Vec<u64>,
    /// FNV-1a digest over per-switch `(injected, delivered, in_flight,
    /// dropped)` quadruples in switch-index order.
    pub digest: u64,
}

impl ShardFaultReport {
    /// Every injected cell is delivered, still in flight, or accounted as
    /// a fault drop.
    pub fn is_conserved(&self) -> bool {
        self.injected == self.delivered + self.in_flight + self.dropped
    }

    /// Mean slots from ring-link outage to successful re-reservation.
    pub fn mean_recovery_slots(&self) -> f64 {
        if self.recoveries == 0 {
            0.0
        } else {
            self.recovery_slots as f64 / self.recoveries as f64
        }
    }
}

impl fmt::Display for ShardFaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "shard-net faulted: {} switches x {} slots",
            self.switches, self.slots
        )?;
        writeln!(
            f,
            "  injected {}  delivered {}  in-flight {}  dropped {}",
            self.injected, self.delivered, self.in_flight, self.dropped
        )?;
        writeln!(
            f,
            "  faults {}  probes {} ({} failed)  recoveries {}  mean-recovery {:.2}",
            self.faults_applied,
            self.res_attempts,
            self.res_failures,
            self.recoveries,
            self.mean_recovery_slots()
        )?;
        writeln!(
            f,
            "  delay mean {:.4}  p50 {}  p99 {}  max {}",
            self.mean_delay,
            self.delay.quantile(0.50),
            self.delay.quantile(0.99),
            self.delay.max()
        )?;
        write!(f, "  digest {:#018x}", self.digest)
    }
}

/// Splits a network-wide fault plan into per-switch plans.
///
/// A ring `LinkDown {..., output: 0}` is additionally mirrored as a
/// synthetic `CellDrop { switch: successor, input: 0 }` at the same slot:
/// under the one-slot link-latency model the cell in flight on the dying
/// link is the one the successor takes in that slot, so the successor
/// drops it as it arrives, and no switch writes another's state.
fn split_plan(plan: &FaultPlan, switches: usize) -> Vec<Vec<FaultEvent>> {
    let mut per_switch: Vec<Vec<FaultEvent>> = vec![Vec::new(); switches];
    for ev in plan.events() {
        let s = ev.kind.switch();
        debug_assert!(s < switches, "fault event targets switch {s} of {switches}");
        if s >= switches {
            continue;
        }
        per_switch[s].push(*ev);
        if let FaultKind::LinkDown { output: 0, .. } = ev.kind {
            let succ = (s + 1) % switches;
            per_switch[succ].push(FaultEvent {
                slot: ev.slot,
                kind: FaultKind::CellDrop {
                    switch: succ,
                    input: 0,
                },
            });
        }
    }
    per_switch
}

/// Runs the configured ring network under `plan` on `pool` and returns
/// the merged fault report. With an empty plan the per-switch dynamics
/// are bit-identical to [`run_shard_net`].
///
/// # Panics
///
/// Panics if the configuration is out of range or if cell conservation
/// (injected == delivered + in flight + dropped) is violated.
pub fn run_shard_net_faulted(
    cfg: &ShardNetConfig,
    plan: &FaultPlan,
    pool: &Pool,
) -> ShardFaultReport {
    with_port_width!(cfg.radix, W => drive::<W, true>(cfg, plan, pool, 0))
}

/// The driver behind both runners, on `W`-word port sets. It builds the
/// ring on the calling thread, steps it on `pool` with one lockstep round
/// per slot from slot `start` (0 outside tests), and reduces the
/// per-switch counters in switch-index order and the parts' tallies in
/// part order. A fault-free run (`FAULTED == false`) ignores `plan`,
/// keeps no window buckets, and leaves its always-zero drop count out of
/// the digest.
fn drive<const W: usize, const FAULTED: bool>(
    cfg: &ShardNetConfig,
    plan: &FaultPlan,
    pool: &Pool,
    start: u64,
) -> ShardFaultReport {
    cfg.validate();
    let k = cfg.switches;
    let buckets = if FAULTED {
        cfg.slots.div_ceil(FAULT_WINDOW).max(1) as usize
    } else {
        0
    };
    let mut switches: Vec<SwitchShard<W>> = (0..k).map(|i| SwitchShard::new(cfg, i)).collect();
    if FAULTED {
        for (sw, events) in switches.iter_mut().zip(split_plan(plan, k)) {
            sw.plan = FaultPlan::from_events(events);
        }
    }
    let links: Vec<Link> = (0..k).map(|_| Link::new()).collect();
    let tallies = pool.lockstep(
        &mut switches,
        cfg.slots,
        || PartTally::new(buckets),
        |round, part, tally| {
            tally.window = (round / FAULT_WINDOW) as usize;
            for sw in part {
                sw.step::<FAULTED>(start + round, &links, tally);
            }
        },
    );
    // Cells sent in the last slot are still on the wire; they count as
    // in flight at their receiver, as if it were starting one more slot.
    for sw in &mut switches {
        sw.receive(&links, start + cfg.slots);
    }

    // Deterministic reduction in switch-index order.
    let mut injected = 0u64;
    let mut delivered = 0u64;
    let mut in_flight = 0u64;
    let mut dropped = 0u64;
    let mut faults_applied = 0u64;
    let mut res_attempts = 0u64;
    let mut res_failures = 0u64;
    let mut recoveries = 0u64;
    let mut recovery_slots = 0u64;
    let mut tally = PartTally::new(buckets);
    for part in &tallies {
        tally.merge(part);
    }
    let mut digest = Fnv::report();
    for sw in &switches {
        injected += sw.injected;
        delivered += sw.delivered;
        in_flight += sw.in_flight();
        dropped += sw.dropped;
        faults_applied += sw.applied;
        res_attempts += sw.res_attempts;
        res_failures += sw.res_failures;
        recoveries += sw.recoveries;
        recovery_slots += sw.recovery_slots;
        digest.u64(sw.injected);
        digest.u64(sw.delivered);
        digest.u64(sw.in_flight());
        if FAULTED {
            digest.u64(sw.dropped);
        }
    }
    let report = ShardFaultReport {
        slots: cfg.slots,
        switches: k,
        injected,
        delivered,
        in_flight,
        dropped,
        faults_applied,
        res_attempts,
        res_failures,
        recoveries,
        recovery_slots,
        mean_delay: if delivered == 0 {
            0.0
        } else {
            tally.delay_sum as f64 / delivered as f64
        },
        delay: tally.delay,
        windows: tally.windows,
        digest: digest.finish(),
    };
    assert!(
        report.is_conserved(),
        "cell conservation violated: {} injected, {} delivered, {} in flight, {} dropped",
        report.injected,
        report.delivered,
        report.in_flight,
        report.dropped
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use an2_sim::fault::PortSide;

    fn small() -> ShardNetConfig {
        ShardNetConfig {
            switches: 32,
            radix: 8,
            span: 3,
            host_load: 0.02,
            seed: 7,
            slots: 400,
        }
    }

    #[test]
    fn thread_count_does_not_change_the_run() {
        let a = run_shard_net(&small(), &Pool::serial());
        let b = run_shard_net(&small(), &Pool::new(4));
        let c = run_shard_net(&small(), &Pool::new(3));
        assert!(a.delay.max() >= 2, "ring transit takes at least two slots");
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.digest, c.digest);
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(a.to_string(), c.to_string());
    }

    #[test]
    fn distinct_seeds_produce_distinct_runs() {
        let mut cfg = small();
        let a = run_shard_net(&cfg, &Pool::serial());
        cfg.seed = 8;
        let b = run_shard_net(&cfg, &Pool::serial());
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn ring_latency_reflects_span() {
        // With span 1 every cell crosses exactly one link: scheduled out
        // in the injection slot at the earliest, delivered no sooner than
        // the next slot — delay is at least 1.
        let cfg = ShardNetConfig {
            switches: 8,
            radix: 4,
            span: 1,
            host_load: 0.01,
            seed: 3,
            slots: 500,
        };
        let r = run_shard_net(&cfg, &Pool::serial());
        assert!(r.delivered > 0);
        assert!(r.delay.quantile(0.5) >= 1);
    }

    #[test]
    #[should_panic(expected = "at least two switches")]
    fn single_switch_ring_rejected() {
        let mut cfg = small();
        cfg.switches = 1;
        run_shard_net(&cfg, &Pool::serial());
    }

    #[test]
    #[should_panic(expected = "packed in 20 bits")]
    fn ring_wider_than_the_switch_field_rejected() {
        let mut cfg = small();
        cfg.switches = MAX_SWITCHES + 1;
        run_shard_net(&cfg, &Pool::serial());
    }

    #[test]
    #[should_panic(expected = "radix 2..=256")]
    fn radix_past_four_word_sets_rejected() {
        let mut cfg = small();
        cfg.radix = 257;
        run_shard_net(&cfg, &Pool::serial());
    }

    #[test]
    fn packed_cells_at_the_field_limits_round_trip_and_stay_off_the_sentinel() {
        let cell = pack(MAX_SWITCHES - 1, 255, u32::MAX);
        assert_ne!(cell, EMPTY);
        assert_eq!(dst_switch(cell), MAX_SWITCHES - 1);
        assert_eq!(dst_port(cell), 255);
        assert_eq!(stamp(cell), u32::MAX);
    }

    #[test]
    fn empty_plan_matches_the_fault_free_run() {
        let cfg = small();
        let base = run_shard_net(&cfg, &Pool::serial());
        let faulted = run_shard_net_faulted(&cfg, &FaultPlan::new(), &Pool::serial());
        assert_eq!(base.injected, faulted.injected);
        assert_eq!(base.delivered, faulted.delivered);
        assert_eq!(base.in_flight, faulted.in_flight);
        assert_eq!(faulted.dropped, 0);
        assert_eq!(faulted.faults_applied, 0);
        assert_eq!(base.mean_delay, faulted.mean_delay);
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(base.delay.quantile(q), faulted.delay.quantile(q));
        }
        assert_eq!(
            faulted.windows.iter().sum::<u64>(),
            faulted.delivered,
            "window buckets must sum to the delivered total"
        );
    }

    fn burst_plan() -> FaultPlan {
        FaultPlan::from_events(vec![
            FaultEvent {
                slot: 50,
                kind: FaultKind::LinkDown { switch: 5, output: 0 },
            },
            FaultEvent {
                slot: 90,
                kind: FaultKind::LinkUp { switch: 5, output: 0 },
            },
            FaultEvent {
                slot: 60,
                kind: FaultKind::PortFail {
                    switch: 11,
                    side: PortSide::Input,
                    port: 3,
                },
            },
            FaultEvent {
                slot: 120,
                kind: FaultKind::PortRecover {
                    switch: 11,
                    side: PortSide::Input,
                    port: 3,
                },
            },
            FaultEvent {
                slot: 70,
                kind: FaultKind::CellDrop { switch: 2, input: 4 },
            },
            FaultEvent {
                slot: 75,
                kind: FaultKind::ClockDrift { switch: 9, slots: 8 },
            },
        ])
    }

    #[test]
    fn faulted_run_is_thread_count_independent() {
        let cfg = small();
        let plan = burst_plan();
        let a = run_shard_net_faulted(&cfg, &plan, &Pool::serial());
        let b = run_shard_net_faulted(&cfg, &plan, &Pool::new(4));
        let c = run_shard_net_faulted(&cfg, &plan, &Pool::new(3));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.digest, c.digest);
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(a.to_string(), c.to_string());
    }

    /// Golden pins of the ring's output, one per port-set width class:
    /// radix 16 and 8 run on one-word sets, radix 100 on four-word sets.
    /// Any change to a decision, a draw or the report moves these.
    #[test]
    fn ring_reports_are_pinned() {
        let mut thousand = ShardNetConfig::thousand();
        thousand.slots = 200;
        let r = run_shard_net(&thousand, &Pool::new(2));
        assert_eq!(r.digest, 0x0fbe_7da1_a6b8_1947, "{r}");

        let faulted = run_shard_net_faulted(&small(), &burst_plan(), &Pool::serial());
        assert_eq!(
            faulted.to_string(),
            "shard-net faulted: 32 switches x 400 slots
  injected 1837  delivered 1826  in-flight 10  dropped 1
  faults 7  probes 6 (5 failed)  recoveries 1  mean-recovery 63.00
  delay mean 2.8023  p50 2  p99 19  max 73
  digest 0xd245f2fdd1977d13"
        );

        let mut wide = small();
        wide.radix = 100;
        wide.host_load = 0.002;
        let faulted = run_shard_net_faulted(&wide, &burst_plan(), &Pool::serial());
        assert_eq!(
            faulted.to_string(),
            "shard-net faulted: 32 switches x 400 slots
  injected 2560  delivered 2548  in-flight 12  dropped 0
  faults 7  probes 6 (5 failed)  recoveries 1  mean-recovery 63.00
  delay mean 2.8752  p50 2  p99 10  max 74
  digest 0xed3ac0811dcf94c7"
        );
    }

    /// Runs `cfg` under `plan` on a two-thread team from slot `start`, the
    /// plan's events moved along with it: the start-slot hook that lets a
    /// test cross the 32-bit stamp wrap without four billion slots.
    fn faulted_from(cfg: &ShardNetConfig, plan: &FaultPlan, start: u64) -> ShardFaultReport {
        let shifted = plan
            .events()
            .iter()
            .map(|ev| FaultEvent {
                slot: ev.slot + start,
                kind: ev.kind,
            })
            .collect();
        let shifted = FaultPlan::from_events(shifted);
        with_port_width!(cfg.radix, W => drive::<W, true>(cfg, &shifted, &Pool::new(2), start))
    }

    #[test]
    fn runs_straddling_the_stamp_wrap_report_as_runs_from_zero() {
        // The 32-bit stamps wrap 150 slots into the second run (and before
        // the third starts), while cells injected before the wrap are
        // still queued; every delay, window and count must come out the
        // same. Radix 8 and 100 cover one- and four-word port sets.
        let mut wide = small();
        wide.radix = 100;
        wide.host_load = 0.002;
        for cfg in [small(), wide] {
            for plan in [FaultPlan::new(), burst_plan()] {
                let plain = faulted_from(&cfg, &plan, 0);
                assert!(plain.delivered > 1000 && plain.delay.max() > 2, "{plain}");
                for start in [u64::from(u32::MAX) - 150, u64::from(u32::MAX) + 1] {
                    let shifted = faulted_from(&cfg, &plan, start);
                    assert_eq!(shifted.to_string(), plain.to_string(), "start {start}");
                    assert_eq!(shifted.windows, plain.windows, "start {start}");
                    assert_eq!(shifted.mean_delay.to_bits(), plain.mean_delay.to_bits());
                    for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
                        assert_eq!(shifted.delay.quantile(q), plain.delay.quantile(q));
                    }
                }
            }
        }
    }

    #[test]
    fn ring_link_outage_recovers_with_bounded_backoff() {
        let cfg = small();
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                slot: 100,
                kind: FaultKind::LinkDown { switch: 7, output: 0 },
            },
            FaultEvent {
                slot: 140,
                kind: FaultKind::LinkUp { switch: 7, output: 0 },
            },
        ]);
        let r = run_shard_net_faulted(&cfg, &plan, &Pool::serial());
        assert!(r.is_conserved());
        assert_eq!(r.recoveries, 1, "one outage, one recovery");
        // The outage lasted 40 slots; backoff doubles 1,2,4,... so the
        // reservation lands within MAX_BACKOFF slots of the repair.
        assert!(r.recovery_slots >= 40, "recovered before the link came back");
        assert!(
            r.recovery_slots < 140 - 100 + MAX_BACKOFF,
            "recovery {} slots exceeds the backoff bound",
            r.recovery_slots
        );
        assert!(r.res_attempts > r.recoveries, "probes should precede recovery");
        assert!(r.delivered > 0);
        // applied = 2 scripted events + 1 synthetic in-flight drop probe.
        assert_eq!(r.faults_applied, 3);
    }

    #[test]
    fn a_port_recovery_leaves_a_dead_ring_link_masked() {
        // Switch 7's ring link dies at slot 100. A port recovery on its
        // ring output at slot 110 must not unmask it while the link is
        // down: the run must equal the one without the recovery, not send
        // ring cells onto the dead link to be lost at the sender. Once
        // the link is repaired, the re-reservation probe unmasks it as
        // usual.
        let cfg = small();
        let event = |slot, kind| FaultEvent { slot, kind };
        let down = event(100, FaultKind::LinkDown { switch: 7, output: 0 });
        let unmask = event(
            110,
            FaultKind::PortRecover {
                switch: 7,
                side: PortSide::Output,
                port: 0,
            },
        );
        let up = event(140, FaultKind::LinkUp { switch: 7, output: 0 });
        let run =
            |events| run_shard_net_faulted(&cfg, &FaultPlan::from_events(events), &Pool::serial());
        let (masked, r) = (run(vec![down]), run(vec![down, unmask]));
        assert!(masked.is_conserved() && r.is_conserved(), "{r}");
        assert_eq!(r.recoveries, 0, "the link never comes back");
        assert_eq!(
            (r.dropped, r.delivered, r.digest),
            (masked.dropped, masked.delivered, masked.digest),
            "a port recovery unmasked a dead ring link"
        );
        assert_eq!(r.faults_applied, masked.faults_applied + 1);
        let (repaired, r) = (run(vec![down, up]), run(vec![down, unmask, up]));
        assert_eq!(r.recoveries, 1, "the probe unmasks the repaired link");
        assert_eq!(
            (r.dropped, r.delivered, r.recovery_slots, r.digest),
            (
                repaired.dropped,
                repaired.delivered,
                repaired.recovery_slots,
                repaired.digest
            )
        );
    }
}
