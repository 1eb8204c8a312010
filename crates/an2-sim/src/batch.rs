//! Batched structure-of-arrays crossbar engine for large radices.
//!
//! [`CrossbarSwitch`](crate::switch::CrossbarSwitch) walks heap-allocated
//! per-flow queues (a slab of `VecDeque<Cell>` FIFOs) every slot. That
//! layout supports the general many-flows-per-pair experiments, but at
//! N=1024 the pointer chasing and per-cell `Cell` bookkeeping dominate the
//! slot loop. [`BatchCrossbar`] is the wide-radix engine behind the
//! scaling benches: it restricts itself to the *one-flow-per-pair*
//! convention (`FlowId::for_pair`, which every uniform/load-sweep workload
//! uses) and stores each input–output pair's queue as a FIFO of `u32`
//! arrival slots in one dense `n*n` table of cache-line records.
//!
//! Under that convention the two engines are **bit-identical**: the VOQ
//! round-robin over flows degenerates to a per-pair FIFO, so pushing
//! arrival slots instead of `Cell` objects loses nothing, and the
//! incremental request-matrix maintenance (set on first cell, clear on
//! drain) matches [`crate::voq::VoqBuffers`] exactly. The property test
//! `tests/batch_vs_scalar.rs` pins byte-identical [`SwitchReport`]
//! digests across schedulers, sizes and loads.
//!
//! Layout at N=1024 (width `W = 16`):
//!
//! ```text
//! pairs:     [PairQueue; n*n]  row-major, pairs[i*n+j] = one 64-byte line:
//!                              7 inline u32 slots + depth + departure count
//!                              (+ spill ring pointer for deep queues)
//! requests:  RequestMatrixN<W> 16 words/row bit-matrix, set/clear deltas
//! per_output:[u64; n]          departure counts per output link
//! ```
//!
//! Arrivals address random pairs, so the table is touched at cache-miss
//! granularity; packing a pair's queue, depth and counter into one line
//! (instead of ring-header + boxed-buffer + count-array, three lines) is
//! worth ~2x on the N=1024 slot rate.
//!
//! Delay statistics are collected twice: the exact [`DelayStats`]
//! histogram (for digest parity with the scalar engine) and the O(1)-memory
//! [`QuantileSketch`] (what long network runs keep when the exact
//! histogram would grow unboundedly).

use crate::cell::{Arrival, FlowId};
use crate::fault::{DropCause, FaultKind, FaultLog, FaultPlan, PortSide};
use crate::metrics::{DelayStats, QuantileSketch, SwitchReport};
use crate::model::SwitchModel;
use an2_sched::{MatchingN, PortMaskN, PortSetN, RequestMatrixN, Scheduler};

/// Cells a [`PairQueue`] holds inline before spilling to a boxed ring.
const QUEUE_INLINE: usize = 7;

/// One input–output pair's FIFO of `u32` arrival slots plus its departure
/// counter, packed into a single 64-byte cache line.
///
/// Arrivals land on random pairs of an `n*n` table, so every queue touch
/// is a cache miss; what matters is how *many* lines each touch drags in.
/// Keeping the first [`QUEUE_INLINE`] slots, the depth, and the departure
/// count in one aligned record makes the common shallow-queue case
/// (steady-state mean depth ≈ 1) exactly one line per enqueue/dequeue —
/// the separate ring-header / boxed-buffer / count-array layout this
/// replaced paid three.
///
/// A queue deeper than [`QUEUE_INLINE`] spills to a power-of-two boxed
/// ring and stays spilled (two lines per touch) until the engine resets;
/// shrinking back was measured as churn without benefit since deep pairs
/// under sustained load spill right back.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PairQueue {
    /// Inline FIFO storage, front-first in `[0..len)` while unspilled.
    inline: [u32; QUEUE_INLINE],
    /// Queue depth, inline or spilled.
    len: u32,
    /// Ring head index; meaningful only once spilled.
    head: u32,
    /// Cells of this pair lost to injected faults over the engine's whole
    /// lifetime (never reset: the drop ledger spans measurement windows).
    dropped: u32,
    /// Departures from this pair in the measurement window.
    count: u64,
    /// Spilled ring storage; empty means unspilled, else a power of two.
    spill: Box<[u32]>,
}

impl PairQueue {
    #[inline]
    // an2-lint: allow(overflow-discipline) occupancy counters are bounded by queue capacity; sequence counters are monotone u64
    // an2-lint: allow(panic-freedom) lane and port indices are < LANES and < n by the SoA layout's construction bounds
    fn enqueue(&mut self, v: u32) {
        let len = self.len as usize;
        if !self.spill.is_empty() {
            if len == self.spill.len() {
                self.grow();
            }
            let mask = self.spill.len() - 1;
            let tail = (self.head as usize + len) & mask;
            self.spill[tail] = v;
        } else if len < QUEUE_INLINE {
            self.inline[len] = v;
        } else {
            self.spill_out();
            self.spill[len] = v;
        }
        self.len += 1;
    }

    #[inline]
    // an2-lint: allow(overflow-discipline) occupancy decrements follow a non-empty check; delivery counters are monotone u64
    // an2-lint: allow(panic-freedom) lane and port indices are < LANES and < n by the SoA layout's construction bounds
    fn dequeue(&mut self) -> u32 {
        debug_assert!(self.len > 0, "dequeue from empty pair queue");
        self.len -= 1;
        if self.spill.is_empty() {
            let v = self.inline[0];
            // One-lane shift within the same cache line: cheaper than ring
            // arithmetic would make the spilled-or-not branch.
            self.inline.copy_within(1..QUEUE_INLINE, 0);
            v
        } else {
            let mask = self.spill.len() - 1;
            let v = self.spill[self.head as usize];
            self.head = ((self.head as usize + 1) & mask) as u32;
            v
        }
    }

    /// First overflow past the inline slots: moves them into a fresh ring
    /// with room to grow (head at 0, so the caller appends at `len`).
    // an2-lint: cold
    #[cold]
    fn spill_out(&mut self) {
        let mut buf = vec![0u32; (QUEUE_INLINE + 1).next_power_of_two() * 2].into_boxed_slice();
        buf[..QUEUE_INLINE].copy_from_slice(&self.inline);
        self.spill = buf;
        self.head = 0;
    }

    /// Doubles spilled capacity, compacting the live window to the front.
    // an2-lint: cold
    #[cold]
    fn grow(&mut self) {
        let cap = self.spill.len();
        let mut next = vec![0u32; cap * 2].into_boxed_slice();
        let mask = cap - 1;
        for k in 0..self.len as usize {
            next[k] = self.spill[(self.head as usize + k) & mask];
        }
        self.spill = next;
        self.head = 0;
    }
}

/// Structure-of-arrays crossbar simulator for the one-flow-per-pair
/// regime, generic over the scheduler bitset width `W`.
///
/// Behaves identically to [`CrossbarSwitch`](crate::switch::CrossbarSwitch)
/// with unbounded buffers when every arrival's flow id is
/// [`FlowId::for_pair`]; panics on any other flow id (use the scalar
/// engine for many-flows-per-pair experiments).
///
/// # Examples
///
/// ```
/// use an2_sched::Pim;
/// use an2_sim::batch::BatchCrossbar;
/// use an2_sim::sim::{simulate, SimConfig};
/// use an2_sim::traffic::RateMatrixTraffic;
///
/// let mut switch = BatchCrossbar::new(16, Pim::new(16, 42));
/// let mut traffic = RateMatrixTraffic::uniform(16, 0.80, 43);
/// let report = simulate(&mut switch, &mut traffic, SimConfig::quick());
/// assert!(report.delay.mean() < 10.0);
/// ```
#[derive(Debug)]
pub struct BatchCrossbar<S, const W: usize = 4> {
    n: usize,
    scheduler: S,
    requests: RequestMatrixN<W>,
    pairs: Vec<PairQueue>,
    queued: usize,
    slot: u64,
    measure_start: u64,
    arrivals: u64,
    departures: u64,
    per_output: Vec<u64>,
    delay: DelayStats,
    sketch: QuantileSketch,
    peak_occupancy: usize,
    /// Port health as seen by [`BatchCrossbar::step_faulted`]; failed
    /// ports keep buffering arrivals but are masked out of scheduling.
    mask: PortMaskN<W>,
    /// Scheduling is suspended while `slot < drift_until` (clock drift).
    drift_until: u64,
    /// Lifetime cells admitted to a pair queue (never reset).
    admitted_total: u64,
    /// Lifetime cells transmitted (never reset).
    departed_total: u64,
    /// Lifetime cells consumed by injected faults before admission.
    dropped: u64,
}

impl<const W: usize, S: Scheduler<W>> BatchCrossbar<S, W> {
    /// Creates an `n`-port batch engine driven by `scheduler`.
    ///
    /// Allocates the full `n*n` pair table up front (~64 MB at N=1024,
    /// one cache line per pair); the slot loop itself never allocates
    /// except for amortized spill-ring growth.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds the width's capacity (`W * 64`).
    pub fn new(n: usize, scheduler: S) -> Self {
        assert!(n > 0, "switch must have at least one port");
        assert!(
            n <= PortSetN::<W>::CAPACITY,
            "switch size {n} exceeds width capacity {}",
            PortSetN::<W>::CAPACITY
        );
        let mut pairs = Vec::new();
        pairs.resize_with(n * n, PairQueue::default);
        Self {
            n,
            scheduler,
            requests: RequestMatrixN::new(n),
            pairs,
            queued: 0,
            slot: 0,
            measure_start: 0,
            arrivals: 0,
            departures: 0,
            per_output: vec![0; n],
            delay: DelayStats::new(),
            sketch: QuantileSketch::new(),
            peak_occupancy: 0,
            mask: PortMaskN::all(n),
            drift_until: 0,
            admitted_total: 0,
            departed_total: 0,
            dropped: 0,
        }
    }

    /// Installs a port health mask on the underlying scheduler.
    // an2-lint: allow(panic-freedom) a mis-sized mask is a harness bug, not degraded traffic; the trait documents the panic
    pub fn set_port_mask(&mut self, mask: PortMaskN<W>) {
        assert_eq!(mask.n(), self.n, "mask size mismatch");
        self.mask = mask;
        self.scheduler.set_port_mask(mask);
    }

    /// The current port health mask (mutated by [`BatchCrossbar::step_faulted`]).
    pub fn port_mask(&self) -> PortMaskN<W> {
        self.mask
    }

    /// The wrapped scheduler (e.g. to read a `CheckedScheduler`'s
    /// violation list after a chaos campaign).
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// Lifetime cells consumed by injected faults before admission.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Lifetime cells offered to the switch: admitted plus fault-dropped.
    pub fn offered(&self) -> u64 {
        self.admitted_total + self.dropped
    }

    /// Lifetime cells admitted into the VOQs (offered minus fault drops).
    pub fn admitted(&self) -> u64 {
        self.admitted_total
    }

    /// Lifetime cells transmitted through the crossbar — the cheap counter
    /// chaos drivers difference per slot for windowed throughput.
    pub fn departed(&self) -> u64 {
        self.departed_total
    }

    /// Lifetime fault drops charged to pair `(i, j)`.
    pub fn pair_drops(&self, i: usize, j: usize) -> u64 {
        assert!(i < self.n && j < self.n, "pair ({i},{j}) out of range");
        u64::from(self.pairs[i * self.n + j].dropped)
    }

    /// The O(1) conservation ledger: every cell ever offered to the switch
    /// is admitted or fault-dropped, and every admitted cell has departed
    /// or is still queued. Holds after every slot, faulted or not.
    ///
    /// # Errors
    ///
    /// Returns a description of the imbalance when the ledger is violated.
    pub fn verify_conservation(&self) -> Result<(), String> {
        let expect = self.departed_total + self.queued as u64;
        if self.admitted_total != expect {
            return Err(format!(
                "conservation violated: {} admitted != {} departed + {} queued",
                self.admitted_total, self.departed_total, self.queued
            ));
        }
        Ok(())
    }

    /// The O(n^2) half of the drop ledger: the per-pair drop counters must
    /// sum to the engine total. Intended for end-of-run audits, not the
    /// slot loop.
    ///
    /// # Errors
    ///
    /// Returns a description of the imbalance when a per-pair counter and
    /// the total disagree.
    pub fn verify_drop_ledger(&self) -> Result<(), String> {
        let per_pair: u64 = self.pairs.iter().map(|q| u64::from(q.dropped)).sum();
        if per_pair != self.dropped {
            return Err(format!(
                "drop ledger violated: per-pair drops sum to {per_pair} \
                 but the engine counted {}",
                self.dropped
            ));
        }
        Ok(())
    }

    /// The streaming quantile sketch over measured delays (same samples as
    /// the exact histogram in [`SwitchReport::delay`]).
    pub fn quantiles(&self) -> &QuantileSketch {
        &self.sketch
    }

    /// Input–output pairs with at least one queued cell — the active-pair
    /// count the sparse scheduling path sizes its work by. O(1): the
    /// request matrix maintains the count incrementally on every
    /// enqueue/drain transition.
    pub fn active_pairs(&self) -> usize {
        self.requests.len()
    }

    /// Advances one cell slot: arrivals join their pair FIFOs, the
    /// scheduler computes a matching, matched pairs each transmit their
    /// head-of-queue cell.
    ///
    /// # Panics
    ///
    /// Panics if two arrivals share an input, any port is out of range, or
    /// an arrival's flow id is not `FlowId::for_pair` for its pair.
    // an2-lint: hot
    pub fn step_slot(&mut self, arrivals: &[Arrival]) {
        let none = PortSetN::<W>::new();
        self.advance(arrivals, &none, &none, false, None);
    }

    /// Advances one slot under a fault plan: applies the plan's events due
    /// this slot (masking ports, losing arrivals, suspending scheduling
    /// during clock drift), then runs the ordinary arrival/schedule/
    /// transmit sequence, recording every applied fault and lost cell in
    /// `log`.
    ///
    /// Same semantics as the scalar
    /// [`CrossbarSwitch::step_faulted`](crate::switch::CrossbarSwitch::step_faulted):
    /// the `switch` tag on events is ignored (build per-switch plans when
    /// driving several switches), failed ports keep *buffering* arrivals —
    /// the mask only gates scheduling — and with an empty plan the slot is
    /// bit-identical to [`BatchCrossbar::step_slot`] (pinned by
    /// `tests/batch_faults.rs` at N ∈ {64, 256, 1024}).
    ///
    /// # Panics
    ///
    /// Panics on the usual arrival violations, or if an event names a port
    /// outside the switch.
    // an2-lint: hot
    pub fn step_faulted(&mut self, arrivals: &[Arrival], plan: &mut FaultPlan, log: &mut FaultLog) {
        let slot = self.slot;
        let mut injected = PortSetN::<W>::new();
        let mut corrupted = PortSetN::<W>::new();
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
        self.advance(arrivals, &injected, &corrupted, skip_schedule, Some(log));
    }

    /// The per-slot engine shared by [`BatchCrossbar::step_slot`] (no
    /// faults) and [`BatchCrossbar::step_faulted`].
    // an2-lint: hot
    // an2-lint: allow(overflow-discipline) slot and delivery counters are monotone u64; a delay is the wrapping difference of u32 arrival stamps, exact while every queued cell is younger than 2^32 slots
    // an2-lint: allow(panic-freedom) matched pairs come from the scheduler, so all indices are < n
    fn advance(
        &mut self,
        arrivals: &[Arrival],
        injected: &PortSetN<W>,
        corrupted: &PortSetN<W>,
        skip_schedule: bool,
        mut log: Option<&mut FaultLog>,
    ) {
        let slot = self.slot;
        // Pair queues stamp cells with the slot's low 32 bits; a delay is
        // the wrapping difference of stamps, so runs may pass 2^32 slots.
        let stamp = slot as u32;
        let n = self.n;
        // Warming sweep: the slot's arrivals address random pair records,
        // and the update loop below chains a dependent load into each one.
        // Reading the records first issues the misses as independent loads
        // the core overlaps, so the updates hit L1. (A prefetch intrinsic
        // would need unsafe; a black-boxed read is the safe equivalent.)
        let mut warm = 0u32;
        for a in arrivals {
            let p = a.input.index().wrapping_mul(n) + a.output.index();
            warm = warm.wrapping_add(self.pairs.get(p).map_or(0, |q| q.len));
        }
        std::hint::black_box(warm);
        let mut seen = PortSetN::<W>::new();
        for a in arrivals {
            let (i, j) = (a.input.index(), a.output.index());
            assert!(
                i < n && j < n,
                "arrival ({},{}) outside {n}x{n} switch",
                a.input,
                a.output
            );
            assert!(
                seen.insert(i),
                "two cells arrived at input {} in one slot",
                a.input
            );
            assert!(
                a.flow == FlowId::for_pair(n, a.input, a.output),
                "flow {} is not the pair flow of ({},{}): \
                 BatchCrossbar requires one flow per pair; use CrossbarSwitch",
                a.flow,
                a.input,
                a.output
            );
            let p = i * n + j;
            // A scripted fault consumes the arrival on the wire: charged to
            // the drop ledger instead of the pair FIFO. Failed ports still
            // buffer (the mask only gates scheduling), matching the scalar
            // engine's semantics.
            let lost = if injected.contains(i) {
                Some(DropCause::Injected)
            } else if corrupted.contains(i) {
                Some(DropCause::Corrupted)
            } else {
                None
            };
            if let Some(cause) = lost {
                self.pairs[p].dropped += 1;
                self.dropped += 1;
                if let Some(log) = log.as_deref_mut() {
                    log.record_drop(slot, 0, i, a.flow.0, cause);
                }
                continue;
            }
            let q = &mut self.pairs[p];
            if q.len == 0 {
                self.requests.set(a.input, a.output);
            }
            q.enqueue(stamp);
            self.queued += 1;
            self.arrivals += 1;
            self.admitted_total += 1;
        }
        if skip_schedule {
            // Clock drift: the crossbar cannot schedule; queues only grow.
            self.peak_occupancy = self.peak_occupancy.max(self.queued);
            self.slot += 1;
            return;
        }
        // Idle-slot skip: with zero active pairs (O(1) from the request
        // matrix's incremental counter) and a scheduler that declares the
        // idle call a no-op, the slot's matching is known empty without
        // invoking the scheduler at all. `step_faulted` funnels through
        // here too, so masked/degraded slots take the same sparse path
        // (the mask never adds requests, only removes candidates).
        let matching = if self.requests.is_empty() && self.scheduler.idle_slot_is_noop() {
            MatchingN::new(n)
        } else {
            self.scheduler.schedule(&self.requests)
        };
        debug_assert!(
            matching.respects(&self.requests),
            "{} scheduled a pair with no queued cell",
            self.scheduler.name()
        );
        // A departing cell arrived in the measurement window iff its delay
        // is at most the window's age: `slot - d >= measure_start`.
        let window = slot - self.measure_start;
        // Same warming sweep for the matched pairs' records.
        let mut warm = 0u32;
        for (i, j) in matching.pairs() {
            warm = warm.wrapping_add(self.pairs[i.index() * n + j.index()].len);
        }
        std::hint::black_box(warm);
        for (i, j) in matching.pairs() {
            let p = i.index() * n + j.index();
            let q = &mut self.pairs[p];
            let d = u64::from(stamp.wrapping_sub(q.dequeue()));
            q.count += 1;
            if q.len == 0 {
                self.requests.clear(i, j);
            }
            self.queued -= 1;
            self.departures += 1;
            self.departed_total += 1;
            self.per_output[j.index()] += 1;
            if d <= window {
                self.delay.record(d);
                self.sketch.record(d);
            }
        }
        self.peak_occupancy = self.peak_occupancy.max(self.queued);
        self.slot += 1;
    }
}

#[cfg(test)]
impl<const W: usize, S: Scheduler<W>> BatchCrossbar<S, W> {
    /// Moves a fresh engine's clock to `slot`, as if that many empty slots
    /// had passed, so tests can cross the `u32` stamp wrap without
    /// simulating four billion slots.
    fn start_at_slot(&mut self, slot: u64) {
        assert_eq!(self.slot, 0, "only a fresh engine can be moved");
        self.slot = slot;
        self.measure_start = slot;
    }
}

impl<const W: usize, S: Scheduler<W>> SwitchModel for BatchCrossbar<S, W> {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        "batch-crossbar"
    }

    fn step(&mut self, arrivals: &[Arrival]) {
        self.step_slot(arrivals);
    }

    fn queued(&self) -> usize {
        self.queued
    }

    fn start_measurement(&mut self) {
        self.measure_start = self.slot;
        self.arrivals = 0;
        self.departures = 0;
        self.per_output.fill(0);
        for q in &mut self.pairs {
            q.count = 0;
        }
        self.delay = DelayStats::new();
        self.sketch = QuantileSketch::new();
        self.peak_occupancy = 0;
    }

    fn report(&self) -> SwitchReport {
        let mut per_flow = Vec::new();
        for (p, q) in self.pairs.iter().enumerate() {
            if q.count > 0 {
                per_flow.push((p as u64, q.count));
            }
        }
        SwitchReport {
            delay: self.delay.clone(),
            slots: self.slot - self.measure_start,
            arrivals: self.arrivals,
            departures: self.departures,
            departures_per_output: self.per_output.clone(),
            departures_per_flow: per_flow,
            peak_occupancy: self.peak_occupancy,
            final_occupancy: self.queued,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate, SimConfig};
    use crate::switch::CrossbarSwitch;
    use crate::traffic::RateMatrixTraffic;
    use an2_sched::islip::RoundRobinMatching;
    use an2_sched::Pim;

    #[test]
    fn pair_queue_fifo_order_across_spill_and_growth() {
        // 100 cells crosses inline -> spill (at 8) and several doublings;
        // interleaved dequeues exercise the wrapped-ring compaction.
        let mut r = PairQueue::default();
        for v in 0..100u32 {
            r.enqueue(v);
        }
        for v in 0..50u32 {
            assert_eq!(r.dequeue(), v);
        }
        for v in 100..200u32 {
            r.enqueue(v);
        }
        for v in 50..200u32 {
            assert_eq!(r.dequeue(), v);
        }
        assert_eq!(r.len, 0);
    }

    #[test]
    fn pair_queue_inline_only_never_allocates_spill() {
        let mut r = PairQueue::default();
        // Stay at depth <= QUEUE_INLINE across many operations.
        for round in 0..50u32 {
            for v in 0..QUEUE_INLINE as u32 {
                r.enqueue(round * 100 + v);
            }
            for v in 0..QUEUE_INLINE as u32 {
                assert_eq!(r.dequeue(), round * 100 + v);
            }
        }
        assert!(r.spill.is_empty(), "shallow queue must not spill");
    }

    fn reports_match(a: &SwitchReport, b: &SwitchReport) {
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
    fn matches_scalar_engine_pim() {
        let mut batch = BatchCrossbar::new(8, Pim::new(8, 42));
        let mut scalar = CrossbarSwitch::new(Pim::new(8, 42));
        let cfg = SimConfig {
            warmup_slots: 100,
            measure_slots: 1000,
        };
        let rb = simulate(&mut batch, &mut RateMatrixTraffic::uniform(8, 0.9, 7), cfg);
        let rs = simulate(&mut scalar, &mut RateMatrixTraffic::uniform(8, 0.9, 7), cfg);
        reports_match(&rb, &rs);
    }

    #[test]
    fn matches_scalar_engine_islip() {
        let mut batch = BatchCrossbar::new(16, RoundRobinMatching::islip(16, 4));
        let mut scalar = CrossbarSwitch::new(RoundRobinMatching::islip(16, 4));
        let cfg = SimConfig {
            warmup_slots: 50,
            measure_slots: 500,
        };
        let rb = simulate(&mut batch, &mut RateMatrixTraffic::uniform(16, 1.0, 9), cfg);
        let rs = simulate(&mut scalar, &mut RateMatrixTraffic::uniform(16, 1.0, 9), cfg);
        reports_match(&rb, &rs);
    }

    #[test]
    fn delays_stay_exact_across_the_u32_stamp_wrap() {
        // Same arrivals, one engine from slot 0 and one from just below
        // 2^32: warmup, measurement start and queued cells all straddle
        // the wrap in the second, and both must report the same delays.
        let run = |start: u64| {
            let mut batch = BatchCrossbar::new(8, Pim::new(8, 42));
            batch.start_at_slot(start);
            let mut traffic = RateMatrixTraffic::uniform(8, 0.97, 7);
            let mut buf = Vec::new();
            for s in 0..400u64 {
                if s == 60 {
                    batch.start_measurement();
                }
                buf.clear();
                crate::traffic::Traffic::arrivals(&mut traffic, s, &mut buf);
                batch.step_slot(&buf);
            }
            batch.report()
        };
        let (plain, wrapped) = (run(0), run(u64::from(u32::MAX) - 100));
        assert!(plain.delay.count() > 1000 && plain.delay.max() > 2);
        reports_match(&plain, &wrapped);
        let beyond = run(u64::from(u32::MAX) + 1);
        reports_match(&plain, &beyond);
    }

    #[test]
    fn conserves_cells_over_full_window() {
        let mut batch = BatchCrossbar::new(8, Pim::new(8, 3));
        let cfg = SimConfig {
            warmup_slots: 0,
            measure_slots: 2000,
        };
        let r = simulate(&mut batch, &mut RateMatrixTraffic::uniform(8, 0.7, 5), cfg);
        assert!(r.is_conserved());
    }

    #[test]
    fn sketch_tracks_exact_histogram() {
        let mut batch = BatchCrossbar::new(8, Pim::new(8, 3));
        let cfg = SimConfig {
            warmup_slots: 200,
            measure_slots: 2000,
        };
        let r = simulate(&mut batch, &mut RateMatrixTraffic::uniform(8, 0.9, 5), cfg);
        let q = batch.quantiles();
        assert_eq!(q.count(), r.delay.count());
        assert_eq!(q.max(), r.delay.max());
        let (approx, exact) = (q.quantile(0.99), r.delay.percentile(0.99));
        assert!(approx <= exact && exact - approx <= approx / 8 + 1);
    }

    #[test]
    fn wide_width_runs_n_512() {
        // Smoke: the W=16 instantiation schedules beyond the narrow cap.
        use an2_sched::WidePim;
        let mut batch: BatchCrossbar<_, 16> = BatchCrossbar::new(512, WidePim::new(512, 11));
        let cfg = SimConfig {
            warmup_slots: 0,
            measure_slots: 50,
        };
        let r = simulate(&mut batch, &mut RateMatrixTraffic::uniform(512, 0.3, 2), cfg);
        assert!(r.is_conserved());
        assert!(r.departures > 0);
    }

    #[test]
    #[should_panic(expected = "one flow per pair")]
    fn non_pair_flow_panics() {
        let mut batch = BatchCrossbar::new(4, Pim::new(4, 1));
        let mut a = Arrival::pair(
            4,
            an2_sched::InputPort::new(0),
            an2_sched::OutputPort::new(1),
        );
        a.flow = FlowId(99);
        batch.step_slot(&[a]);
    }

    #[test]
    #[should_panic(expected = "two cells arrived")]
    fn duplicate_input_panics() {
        let mut batch = BatchCrossbar::new(4, Pim::new(4, 1));
        let a = Arrival::pair(
            4,
            an2_sched::InputPort::new(0),
            an2_sched::OutputPort::new(1),
        );
        batch.step_slot(&[a, a]);
    }
}
