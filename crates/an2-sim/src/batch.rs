//! The single-switch engine: a structure-of-arrays input-queued crossbar.
//!
//! [`BatchCrossbar`] is the one slot procedure every single-switch
//! experiment runs, from the paper's 16-port figures to the 1024-port
//! scaling runs; [`CrossbarSwitch`](crate::switch::CrossbarSwitch) is a
//! thin face over it that reports under its scheduler's name. One slot
//! applies the fault events due ([`BatchCrossbar::step_faulted`]), admits
//! the arrivals, tells a queue-aware scheduler each requested pair's depth
//! and head-cell age, schedules, transmits the matched cells and records
//! the metrics.
//!
//! The engine keeps to the *one-flow-per-pair* convention
//! (`FlowId::for_pair`, which every single-switch workload uses) and
//! stores each input–output pair's queue as a FIFO of `u32` arrival
//! stamps. With one flow per pair the paper's per-flow round robin inside
//! a pair (§3.3) is plain FIFO order, so nothing is lost; chains where
//! several flows share a pair run on the network simulator's per-flow
//! buffers (`an2_net::flows`), on the same [`QueueSlab`]. The request
//! matrix is maintained incrementally (set on a pair's first cell, clear
//! on drain). Storage follows traffic rather than N: one dense 4-byte
//! entry per pair, and queue records only for the pairs that hold cells.
//!
//! `tests/engine_golden.rs` pins the engine's report digests, recorded
//! from the retired per-flow scalar loop, across schedulers, sizes and
//! traffic shapes; `an2-verify`'s `tests/engines.rs` checks it slot by
//! slot against a plain loop over the reference VOQ, queue-aware
//! schedulers included.
//!
//! Layout at N=1024 (width `W = 16`):
//!
//! ```text
//! pairs:     [u32; n*n]        row-major, pairs[i*n+j] = one packed word:
//!                              low 21 bits the queue handle (0 = no
//!                              queued cell), high 11 bits the low bits
//!                              of the window departure count; 4 MB,
//!                              zeroed by the allocator, not written at
//!                              build
//! drops:     [u32; n*n]        lifetime fault drops per pair; empty
//!                              until the first drop allocates it
//! slab:      QueueSlab<u32>    one 64-byte record per pair holding cells:
//!                              7 inline u32 slots + depth + ring head
//!                              (+ spill ring pointer for deep queues);
//!                              drained records wait on free lists by
//!                              ring size (`crate::slab`, shared with the
//!                              sharded ring's u64 cells)
//! requests:  RequestMatrixN<W> 16 words/row bit-matrix, set/clear deltas
//! per_output:[u64; n]          departure counts per output link
//! ```
//!
//! The paper's input buffers are random-access memories that an input's
//! queued cells share across outputs (§2.4), and at light load the queue
//! matrix is almost all zeros: at N=1024 and load 0.05 only one or two of
//! the 2^20 pairs hold a cell between slots. A 64-byte record for every
//! pair would make a 64 MB table that is nearly all empty; the pair table
//! is 4 MB (sixteen pairs per cache line), and the slab stays as small as
//! the peak number of active pairs, so it is cache-resident when traffic
//! is light. Arrivals still address random pairs, so each touch costs one
//! pair-table miss, over a sixteenth of the memory a record per pair
//! would take.
//!
//! A pair entry packs two fields into one `u32`, split by N: the low
//! `hb` bits hold the queue handle, where `hb` is the number of bits
//! `n*n` needs (no handle exceeds `n*n`: record 0 is the sentinel and at
//! most `n*n` pairs hold cells), and the high `32 - hb` bits the low bits
//! of the pair's window departure count (11 bits at N=1024, 23 at N=16).
//! A count that wraps its field, or a pair's 32-bit drop count, carries
//! into a side table that stays nearly empty in practice; `report()`
//! rebuilds the exact counts from both.
//!
//! Cells are stamped with the slot's low 32 bits. A delay, and a queue
//! age reported to the scheduler, is the wrapping difference of two
//! stamps, so runs may pass 2^32 slots and both are exact for any cell
//! that has waited fewer than 2^32 slots.
//!
//! Delay statistics are collected once, in the exact [`DelayStats`]
//! histogram that the report carries and the pinned digests cover.

use crate::cell::{Arrival, FlowId};
use crate::fault::{FaultLog, FaultPlan, LostArrivals, SwitchFaults};
use crate::metrics::{DelayStats, SwitchReport};
use crate::model::SwitchModel;
use crate::slab::{QueueSlab, NO_QUEUE};
use an2_sched::{InputPort, MatchingN, OutputPort, PortMaskN, PortSetN, RequestMatrixN, Scheduler};
use std::collections::BTreeMap;

/// Structure-of-arrays crossbar simulator for the one-flow-per-pair
/// regime, generic over the scheduler bitset width `W`.
///
/// Every arrival's flow id must be [`FlowId::for_pair`]; any other panics.
/// [`CrossbarSwitch`](crate::switch::CrossbarSwitch) runs on this engine.
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
    /// One packed entry per pair, row-major (see [`PairPacking`]): the
    /// pair's [`QueueSlab`] handle (or [`NO_QUEUE`]) and the low bits of
    /// its departures in the measurement window. The only dense per-pair
    /// state a fault-free run keeps.
    pairs: Vec<u32>,
    /// How `pairs` splits each entry, fixed by `n`.
    packing: PairPacking,
    /// Whether a slot reads the pair-table lines of its arrivals before
    /// updating them ([`warm`]): only where the width rule gives `n` more
    /// than one word. At `n <= 64` the table (16 KB at N=64) stays in
    /// cache and a sweep is pure cost; at N=1024 (4 MB) it misses.
    warm_table: bool,
    /// Queue records of the pairs that hold cells.
    slab: QueueSlab<u32>,
    /// Wraps of a pair's window count field, by pair index, in units of
    /// [`PairPacking::count_unit_bits`]; cleared with the counts when a
    /// measurement window opens.
    count_carries: BTreeMap<usize, u64>,
    /// Low 32 bits of each pair's lifetime fault drops (never reset: the
    /// drop ledger spans measurement windows); empty until the first drop.
    drops: Vec<u32>,
    /// Wraps of a pair's 32-bit drop count past 2^32, by pair index;
    /// empty until some pair loses its 2^32-th cell.
    drop_carries: BTreeMap<usize, u64>,
    queued: usize,
    slot: u64,
    measure_start: u64,
    /// `admitted_total` when the measurement window opened.
    window_admitted: u64,
    /// `departed_total` when the measurement window opened.
    window_departed: u64,
    per_output: Vec<u64>,
    delay: DelayStats,
    peak_occupancy: usize,
    /// Port health and clock drift as seen by
    /// [`BatchCrossbar::step_faulted`].
    faults: SwitchFaults<W>,
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
    /// Allocates the `n*n` pair table up front (one packed 4-byte entry
    /// per pair, 4 MB at N=1024, zeroed by the allocator rather than
    /// written) and room for `4n` queue records. The per-pair drop table
    /// (4 bytes per pair) waits for the first fault drop, so a fault-free
    /// run never holds it. The slot loop itself allocates only at
    /// high-water marks: when more pairs hold cells than ever before, or
    /// more queues run deep at once than the slab has rings for, and once
    /// on the first drop.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n` exceeds the width's capacity (`W * 64`), or
    /// the switch has 2^31 pairs or more (a packed entry needs a bit for
    /// its count).
    pub fn new(n: usize, scheduler: S) -> Self {
        assert!(n > 0, "switch must have at least one port");
        assert!(
            n <= PortSetN::<W>::CAPACITY,
            "switch size {n} exceeds width capacity {}",
            PortSetN::<W>::CAPACITY
        );
        let packing = PairPacking::for_ports(n)
            .unwrap_or_else(|| panic!("switch size {n} has more pairs than a packed entry holds"));
        Self {
            n,
            scheduler,
            requests: RequestMatrixN::new(n),
            pairs: vec![0; n * n],
            packing,
            warm_table: an2_sched::with_port_width!(n, V => V > 1),
            slab: QueueSlab::with_capacity((4 * n).min(n * n)),
            count_carries: BTreeMap::new(),
            drops: Vec::new(),
            drop_carries: BTreeMap::new(),
            queued: 0,
            slot: 0,
            measure_start: 0,
            window_admitted: 0,
            window_departed: 0,
            per_output: vec![0; n],
            delay: DelayStats::new(),
            peak_occupancy: 0,
            faults: SwitchFaults::new(n),
            admitted_total: 0,
            departed_total: 0,
            dropped: 0,
        }
    }

    /// Installs a port health mask on the underlying scheduler.
    // an2-lint: allow(panic-freedom) a mis-sized mask is a harness bug, not degraded traffic; the trait documents the panic
    pub fn set_port_mask(&mut self, mask: PortMaskN<W>) {
        assert_eq!(mask.n(), self.n, "mask size mismatch");
        self.faults.set_mask(mask);
        self.scheduler.set_port_mask(mask);
    }

    /// The current port health mask (mutated by [`BatchCrossbar::step_faulted`]).
    pub fn port_mask(&self) -> PortMaskN<W> {
        self.faults.mask()
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
        let p = i * self.n + j;
        let carries = self.drop_carries.get(&p).map_or(0, |&c| c << 32);
        carries | self.drops.get(p).map_or(0, |&d| u64::from(d))
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
        let low: u64 = self.drops.iter().map(|&d| u64::from(d)).sum();
        let per_pair = self
            .drop_carries
            .values()
            .fold(low, |sum, &c| sum + (c << 32));
        if per_pair != self.dropped {
            return Err(format!(
                "drop ledger violated: per-pair drops sum to {per_pair} \
                 but the engine counted {}",
                self.dropped
            ));
        }
        Ok(())
    }

    /// Input–output pairs with at least one queued cell — the active-pair
    /// count the sparse scheduling path sizes its work by. O(1): the
    /// request matrix maintains the count incrementally on every
    /// enqueue/drain transition.
    pub fn active_pairs(&self) -> usize {
        self.requests.len()
    }

    /// The request matrix: pair `(i, j)` requests iff it holds a cell.
    pub fn requests(&self) -> &RequestMatrixN<W> {
        &self.requests
    }

    /// Cells queued from input `i` to output `j`.
    ///
    /// # Panics
    ///
    /// Panics if a port is outside the switch.
    pub fn pair_occupancy(&self, i: InputPort, j: OutputPort) -> usize {
        assert!(
            i.index() < self.n && j.index() < self.n,
            "pair ({i},{j}) out of range"
        );
        let h = self
            .packing
            .handle(self.pairs[i.index() * self.n + j.index()]);
        self.slab.peek(h).map_or(0, |(depth, _)| depth as usize)
    }

    /// Loads a queue snapshot directly into the pair queues, bypassing the
    /// one-cell-per-input-per-slot link constraint. Used to set up
    /// scenario states like the paper's Figure 1 (queues that accumulated
    /// before the observation window); cells are stamped with the current
    /// slot and count as arrivals.
    ///
    /// # Panics
    ///
    /// Panics if any port is out of range or a flow id is not its pair's.
    pub fn preload(&mut self, arrivals: &[Arrival]) {
        let stamp = self.slot as u32;
        for a in arrivals {
            let (i, j) = (a.input.index(), a.output.index());
            if i >= self.n || j >= self.n || a.flow != FlowId::for_pair(self.n, a.input, a.output) {
                malformed_arrival(a, self.n, true);
            }
            let entry = &mut self.pairs[i * self.n + j];
            let mut queue = self.packing.handle(*entry);
            if self.slab.admit(&mut queue, stamp) {
                *entry = self.packing.with_handle(*entry, queue);
                self.requests.set(a.input, a.output);
            }
            self.queued += 1;
            self.admitted_total += 1;
        }
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
        self.advance(arrivals, &LostArrivals::default(), true, None);
    }

    /// Advances one slot under a fault plan: applies the plan's events due
    /// this slot (masking ports, losing arrivals, suspending scheduling
    /// during clock drift), then runs the ordinary arrival/schedule/
    /// transmit sequence, recording every applied fault and lost cell in
    /// `log`.
    ///
    /// The `switch` tag on events is ignored (build per-switch plans when
    /// driving several switches); [`SwitchFaults::apply`] decodes each
    /// event. Failed ports keep *buffering* arrivals — the mask only gates
    /// scheduling — and with an empty plan the slot is bit-identical to
    /// [`BatchCrossbar::step_slot`] (pinned by `tests/batch_faults.rs` at
    /// N ∈ {64, 256, 1024}).
    ///
    /// # Panics
    ///
    /// Panics on the usual arrival violations, or if an event names a port
    /// outside the switch.
    // an2-lint: hot
    pub fn step_faulted(&mut self, arrivals: &[Arrival], plan: &mut FaultPlan, log: &mut FaultLog) {
        let slot = self.slot;
        let mut lost = LostArrivals::default();
        let mut mask_changed = false;
        for ev in plan.due(slot) {
            mask_changed |= self.faults.apply(slot, ev.kind, &mut lost);
            log.record_applied(*ev);
        }
        if mask_changed {
            self.scheduler.set_port_mask(self.faults.mask());
        }
        let schedule = self.faults.schedules(slot);
        self.advance(arrivals, &lost, schedule, Some(log));
    }

    /// The per-slot engine shared by [`BatchCrossbar::step_slot`] (no
    /// faults) and [`BatchCrossbar::step_faulted`].
    // an2-lint: hot
    fn advance(
        &mut self,
        arrivals: &[Arrival],
        lost: &LostArrivals<W>,
        schedule: bool,
        mut log: Option<&mut FaultLog>,
    ) {
        let slot = self.slot;
        // Pair queues stamp cells with the slot's low 32 bits; a delay is
        // the wrapping difference of stamps, so runs may pass 2^32 slots.
        let stamp = slot as u32;
        let (n, packing) = (self.n, self.packing);
        debug_assert_eq!(self.pairs.len(), n * n);
        if self.warm_table {
            let at = |a: &Arrival| {
                a.input
                    .index()
                    .wrapping_mul(n)
                    .wrapping_add(a.output.index())
            };
            warm(&self.pairs, arrivals.iter().map(at));
        }
        let mut seen = PortSetN::<W>::new();
        for a in arrivals {
            let (i, j) = (a.input.index(), a.output.index());
            let fresh = i < n && j < n && seen.insert(i);
            if !fresh || a.flow != FlowId::for_pair(n, a.input, a.output) {
                malformed_arrival(a, n, fresh);
            }
            let p = i * n + j;
            // A scripted fault consumes the arrival on the wire: charged to
            // the drop ledger instead of the pair FIFO. Failed ports still
            // buffer (the mask only gates scheduling).
            if let Some(cause) = lost.cause(i) {
                self.charge_drop(p);
                if let Some(log) = log.as_deref_mut() {
                    log.record_drop(slot, 0, i, a.flow.0, cause);
                }
                continue;
            }
            // an2-lint: allow(panic-freedom) p = i*n + j < n*n = pairs.len(): i, j < n checked above
            let entry = &mut self.pairs[p];
            let mut queue = packing.handle(*entry);
            // The slab hands out a handle only to a pair that was empty.
            if self.slab.admit(&mut queue, stamp) {
                *entry = packing.with_handle(*entry, queue);
                self.requests.set(a.input, a.output);
            }
            // an2-lint: allow(overflow-discipline) queued counts cells held in memory, so it fits usize
            self.queued += 1;
            // an2-lint: allow(overflow-discipline) monotone u64 total, at most one per offered cell
            self.admitted_total += 1;
        }
        // Under clock drift the crossbar cannot schedule; queues only grow.
        if schedule {
            self.transmit(stamp);
        }
        self.peak_occupancy = self.peak_occupancy.max(self.queued);
        // an2-lint: allow(overflow-discipline) the slot clock is a monotone u64
        self.slot += 1;
    }

    /// The scheduling half of a slot: computes a matching and sends each
    /// matched pair's head-of-queue cell, stamped `stamp` on arrival.
    // an2-lint: hot
    fn transmit(&mut self, stamp: u32) {
        let (n, packing) = (self.n, self.packing);
        if self.scheduler.wants_queue_observations() {
            self.observe_queues(stamp);
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
        debug_assert!(self.slot >= self.measure_start);
        let window = self.slot.wrapping_sub(self.measure_start);
        // No warming sweep over the matched pairs: at light load they are
        // mostly this slot's own arrivals, whose lines `advance` has just
        // warmed, and on the N=256/1024 scaling rows at loads 0.25 and 0.5
        // (backlogged pairs) a sweep here measured no faster than none.
        for (i, j) in matching.pairs() {
            debug_assert!(
                i.index() < n && j.index() < n,
                "scheduler matched outside the switch"
            );
            let p = i.index() * n + j.index();
            // an2-lint: allow(panic-freedom) matched pairs come from the scheduler, so i, j < n and p < pairs.len()
            let entry = &mut self.pairs[p];
            let mut queue = packing.handle(*entry);
            if queue == NO_QUEUE {
                unqueued_match(self.scheduler.name(), i, j);
            }
            // The count sits above the handle, so a step that wraps it
            // leaves the handle bits alone.
            let wrapped;
            (*entry, wrapped) = entry.overflowing_add(packing.one_departure());
            if wrapped {
                carry(&mut self.count_carries, p);
            }
            // The slab clears the handle only when the pair drains.
            let (arrived, drained) = self.slab.serve(&mut queue);
            if drained {
                *entry = packing.with_handle(*entry, queue);
                self.requests.clear(i, j);
            }
            let d = u64::from(stamp.wrapping_sub(arrived));
            // an2-lint: allow(overflow-discipline) the pair held a cell (checked above), so queued >= 1
            self.queued -= 1;
            // an2-lint: allow(overflow-discipline) monotone u64 total, at most one per admitted cell
            self.departed_total += 1;
            // an2-lint: allow(overflow-discipline, panic-freedom) monotone u64 count; j < n = per_output.len() as the scheduler's output
            self.per_output[j.index()] += 1;
            if d <= window {
                self.delay.record(d);
            }
        }
    }

    /// Tells a queue-aware scheduler what stands behind each request: the
    /// pair's depth and its head cell's age in slots. The walk covers
    /// exactly the requested pairs, each of which holds a cell. An age is
    /// the wrapping difference of 32-bit stamps, so like a delay it is
    /// exact for cells that have waited fewer than 2^32 slots.
    // an2-lint: hot
    fn observe_queues(&mut self, stamp: u32) {
        let n = self.n;
        for (i, j) in self.requests.pairs() {
            let p = i.index().wrapping_mul(n).wrapping_add(j.index());
            let queue = self
                .pairs
                .get(p)
                .map_or(NO_QUEUE, |&e| self.packing.handle(e));
            debug_assert!(queue != NO_QUEUE, "a requested pair holds a cell");
            if let Some((depth, front)) = self.slab.peek(queue) {
                let age = stamp.wrapping_sub(front);
                self.scheduler.observe_queue(i, j, depth, age);
            }
        }
    }

    /// Charges one fault drop to pair `p`. Only injected faults drop
    /// cells, so this is off the slot loop's common path.
    // an2-lint: cold
    #[cold]
    fn charge_drop(&mut self, p: usize) {
        let low = &mut self.drop_table()[p];
        let wrapped;
        (*low, wrapped) = low.overflowing_add(1);
        if wrapped {
            carry(&mut self.drop_carries, p);
        }
        self.dropped += 1;
    }

    /// The per-pair drop table, allocated on its first use: a fault-free
    /// run never holds it.
    // an2-lint: cold
    #[cold]
    fn drop_table(&mut self) -> &mut [u32] {
        if self.drops.is_empty() {
            self.drops = vec![0; self.pairs.len()];
        }
        &mut self.drops
    }
}

/// Warming sweep: a slot's arrivals address random pairs, and the update
/// loop chains dependent loads into each pair's table line. Reading the
/// lines at `entries` first issues the misses as independent loads the
/// core overlaps, so the updates hit L1. (A prefetch intrinsic would need
/// unsafe; a black-boxed read is the safe equivalent.) The matched pairs
/// get no sweep of their own (see `transmit`).
// an2-lint: hot
#[inline]
fn warm(pairs: &[u32], entries: impl Iterator<Item = usize>) {
    let sum = entries.fold(0u32, |sum, p| {
        sum.wrapping_add(pairs.get(p).copied().unwrap_or(0))
    });
    std::hint::black_box(sum);
}

/// Records one wrap of pair `p`'s count field in `carries`.
// an2-lint: cold
#[cold]
fn carry(carries: &mut BTreeMap<usize, u64>, p: usize) {
    *carries.entry(p).or_insert(0) += 1;
}

/// How a pair entry packs the pair's [`QueueSlab`] handle and its window
/// departure count into one `u32`, fixed by the switch size: the low
/// `handle_bits` bits hold the handle, the high `32 - handle_bits` bits
/// the low bits of the count.
#[derive(Clone, Copy, Debug)]
struct PairPacking {
    /// The number of bits `n*n` needs: no handle exceeds `n*n`, because
    /// record 0 is the sentinel and at most `n*n` pairs hold cells.
    handle_bits: u32,
}

impl PairPacking {
    /// The split for an `n`-port switch, or `None` when `n*n` leaves no
    /// bit of the entry for the count.
    fn for_ports(n: usize) -> Option<Self> {
        let pairs = u32::try_from(n.checked_mul(n)?).ok()?;
        let handle_bits = u32::BITS - pairs.leading_zeros();
        (handle_bits < u32::BITS).then_some(Self { handle_bits })
    }

    /// The handle bits of an entry.
    #[inline]
    fn handle_mask(self) -> u32 {
        (1 << self.handle_bits) - 1
    }

    /// The queue handle held in `entry`.
    #[inline]
    fn handle(self, entry: u32) -> u32 {
        entry & self.handle_mask()
    }

    /// `entry` with its handle replaced by `handle`, its count kept.
    #[inline]
    fn with_handle(self, entry: u32, handle: u32) -> u32 {
        debug_assert!(
            handle <= self.handle_mask(),
            "handle {handle} outgrows its field"
        );
        entry & !self.handle_mask() | handle
    }

    /// The amount one departure adds to an entry: one in the count field.
    #[inline]
    fn one_departure(self) -> u32 {
        1 << self.handle_bits
    }

    /// The width of the count field: one carry stands for
    /// `2^count_unit_bits` departures.
    fn count_unit_bits(self) -> u32 {
        u32::BITS - self.handle_bits
    }

    /// The exact window count of an entry whose count field wrapped
    /// `carries` times.
    fn count(self, entry: u32, carries: u64) -> u64 {
        carries << self.count_unit_bits() | u64::from(entry >> self.handle_bits)
    }

    /// `entry` with its count field set to the low bits of `count`, and
    /// the carries that make up the rest.
    #[cfg(test)]
    fn with_count(self, entry: u32, count: u64) -> (u32, u64) {
        let unit = self.count_unit_bits();
        let low = u32::try_from(count & ((1 << unit) - 1)).expect("masked to the count field");
        (self.handle(entry) | low << self.handle_bits, count >> unit)
    }
}

/// Panics for an arrival [`BatchCrossbar::step_slot`] documents as
/// malformed: outside the switch, a second cell at one input (`fresh` is
/// false for an in-range repeat), or not the pair's flow.
// an2-lint: cold
#[cold]
fn malformed_arrival(a: &Arrival, n: usize, fresh: bool) -> ! {
    assert!(
        a.input.index() < n && a.output.index() < n,
        "arrival ({},{}) outside {n}x{n} switch",
        a.input,
        a.output
    );
    assert!(fresh, "two cells arrived at input {} in one slot", a.input);
    panic!(
        "flow {} is not the pair flow of ({},{}): \
         the single-switch engine requires one flow per pair",
        a.flow, a.input, a.output
    )
}

/// Panics for a matched pair that holds no cell: the scheduler broke the
/// contract that a matching respects the requests, and serving the pair
/// would corrupt the queues. (Chaos campaigns record the panic as a
/// violation; it is how a seeded scheduler bug shows in a release build.)
// an2-lint: cold
#[cold]
fn unqueued_match(scheduler: &str, i: InputPort, j: OutputPort) -> ! {
    panic!("{scheduler} scheduled pair ({i},{j}) with no queued cell")
}

#[cfg(test)]
impl<const W: usize, S: Scheduler<W>> BatchCrossbar<S, W> {
    /// Charges pair `(i, j)` with `drops` earlier fault drops, as if that
    /// many had struck it, so tests can cross the 32-bit per-pair drop
    /// count without dropping four billion cells.
    fn preset_pair_drops(&mut self, i: usize, j: usize, drops: u64) {
        let p = i * self.n + j;
        assert_eq!(
            self.pair_drops(i, j),
            0,
            "only an undropped pair can be preset"
        );
        self.drop_table()[p] = drops as u32; // the low 32 bits
        if drops >> 32 > 0 {
            self.drop_carries.insert(p, drops >> 32);
        }
        self.dropped += drops;
    }

    /// Credits pair `(i, j)` with `count` departures in the current
    /// window, as if that many of its cells had crossed the switch, so
    /// tests can cross the 32-bit window count without sending four
    /// billion cells.
    fn preset_pair_departures(&mut self, i: usize, j: usize, count: u64) {
        let p = i * self.n + j;
        let carries = self.count_carries.get(&p).copied().unwrap_or(0);
        assert!(
            self.packing.count(self.pairs[p], carries) == 0,
            "only a pair with no departures in the window can be preset"
        );
        let (entry, carries) = self.packing.with_count(self.pairs[p], count);
        self.pairs[p] = entry;
        if carries > 0 {
            self.count_carries.insert(p, carries);
        }
        self.admitted_total += count;
        self.departed_total += count;
        self.per_output[j] += count;
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
        self.window_admitted = self.admitted_total;
        self.window_departed = self.departed_total;
        self.per_output.fill(0);
        let packing = self.packing;
        for entry in &mut self.pairs {
            *entry = packing.handle(*entry);
        }
        self.count_carries.clear();
        self.delay = DelayStats::new();
        self.peak_occupancy = 0;
    }

    fn start_at_slot(&mut self, slot: u64) {
        assert_eq!(self.slot, 0, "only a fresh engine can be moved");
        self.slot = slot;
        self.measure_start = slot;
    }

    fn report(&self) -> SwitchReport {
        // At N=1024 nearly every pair departs in a long window; sizing the
        // list once, by an exact count, keeps a doubling Vec from holding
        // twice the list (plus the copy) at its peak.
        let departed = |(p, &entry): (usize, &u32)| {
            let carries = self.count_carries.get(&p).copied().unwrap_or(0);
            Some((p as u64, self.packing.count(entry, carries))).filter(|&(_, count)| count > 0)
        };
        let flows = self.pairs.iter().enumerate().filter_map(departed).count();
        let mut per_flow = Vec::with_capacity(flows);
        per_flow.extend(self.pairs.iter().enumerate().filter_map(departed));
        SwitchReport {
            delay: self.delay.clone(),
            slots: self.slot - self.measure_start,
            arrivals: self.admitted_total - self.window_admitted,
            departures: self.departed_total - self.window_departed,
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
    use crate::fault::{FaultEvent, FaultKind};
    use crate::sim::{simulate, SimConfig};
    use crate::traffic::RateMatrixTraffic;
    use an2_sched::Pim;

    /// Steps `engine` over `slots` slots from its current one, feeding
    /// one cell per slot to each listed pair while `slot < feed_until`,
    /// under `plan`.
    fn drive_pairs(
        engine: &mut BatchCrossbar<Pim>,
        plan: &mut FaultPlan,
        pairs: &[(usize, usize)],
        slots: std::ops::Range<u64>,
        feed_until: u64,
    ) {
        let mut log = FaultLog::new();
        for slot in slots {
            let arrivals: Vec<Arrival> = if slot < feed_until {
                pairs
                    .iter()
                    .map(|&(i, j)| {
                        Arrival::pair(
                            engine.n,
                            an2_sched::InputPort::new(i),
                            an2_sched::OutputPort::new(j),
                        )
                    })
                    .collect()
            } else {
                Vec::new()
            };
            engine.step_faulted(&arrivals, plan, &mut log);
        }
    }

    fn drift(slot: u64, slots: u64) -> FaultEvent {
        FaultEvent {
            slot,
            kind: FaultKind::ClockDrift { switch: 0, slots },
        }
    }

    #[test]
    fn recycled_records_keep_fifo_order_and_delays_in_the_engine() {
        // Phase 1: clock drift holds scheduling off while pairs A=(0,0)
        // and C=(1,1) each queue 12 cells (spilling at 8); each then drains
        // one cell per slot, so every cell waits exactly 12 slots. Phase
        // 2: B=(2,3) and D=(3,2) queue 10 cells each under a second drift
        // and take A's and C's drained records, at the heads A and C left;
        // A comes back mid-drift with one cell and takes a fresh record.
        // Any mix-up of records, heads or depths breaks FIFO order, and
        // with it the constant per-phase delay.
        let mut engine = BatchCrossbar::new(4, Pim::new(4, 9));
        let mut plan = FaultPlan::from_events(vec![drift(0, 12), drift(30, 10)]);
        drive_pairs(&mut engine, &mut plan, &[(0, 0), (1, 1)], 0..30, 12);
        let r = engine.report();
        assert_eq!((r.departures, r.delay.count()), (24, 24));
        assert_eq!((r.delay.max(), r.delay.mean()), (12, 12.0));
        let handle = |p: usize| engine.packing.handle(engine.pairs[p]);
        let (a, c) = (handle(0), handle(5));
        assert_eq!((a, c, engine.active_pairs()), (NO_QUEUE, NO_QUEUE, 0));
        let records = engine.slab.records();
        assert_eq!(records, 3, "two records and the sentinel");

        engine.start_measurement();
        drive_pairs(&mut engine, &mut plan, &[(2, 3), (3, 2)], 30..35, 35);
        drive_pairs(
            &mut engine,
            &mut plan,
            &[(2, 3), (3, 2), (0, 0)],
            35..36,
            36,
        );
        drive_pairs(&mut engine, &mut plan, &[(2, 3), (3, 2)], 36..40, 40);
        let handle = |p: usize| engine.packing.handle(engine.pairs[p]);
        let (b, d) = (handle(2 * 4 + 3), handle(3 * 4 + 2));
        let mut taken = [b, d];
        taken.sort_unstable();
        assert_eq!(taken, [1, 2], "B and D must take the drained records");
        for h in taken {
            let (ring, head) = engine.slab.ring(h);
            assert!(ring > 0 && head > 0, "a kept ring at a moved head");
        }
        assert_ne!(handle(0), NO_QUEUE, "A is active again");
        drive_pairs(&mut engine, &mut plan, &[], 40..60, 0);
        let r = engine.report();
        // B and D: 10 cells each, each waits 10 slots. A: one cell at slot
        // 35, served when the drift ends at slot 40 (its pair shares no
        // port with B or D).
        assert_eq!((r.departures, r.delay.count()), (21, 21));
        assert_eq!(r.delay.max(), 10);
        assert_eq!(r.delay.mean(), 205.0 / 21.0);
        assert_eq!(
            r.departures_per_flow,
            vec![(0, 1), (2 * 4 + 3, 10), (3 * 4 + 2, 10)]
        );
        assert_eq!(
            engine.slab.records(),
            records + 1,
            "only A needed a fresh record"
        );
        assert!(engine.verify_conservation().is_ok());
    }

    #[test]
    fn pair_drops_stay_exact_past_the_32_bit_count() {
        // A pair preset three drops short of 2^32 loses six more cells:
        // its count crosses the 32-bit drop table entry, and both the per-pair
        // figure and the drop ledger must stay exact.
        let mut engine = BatchCrossbar::new(4, Pim::new(4, 5));
        let start = (1u64 << 32) - 3;
        engine.preset_pair_drops(2, 1, start);
        assert_eq!(engine.pair_drops(2, 1), start);
        let drops: Vec<FaultEvent> = (0..6)
            .map(|slot| FaultEvent {
                slot,
                kind: FaultKind::CellDrop {
                    switch: 0,
                    input: 2,
                },
            })
            .collect();
        let mut plan = FaultPlan::from_events(drops);
        drive_pairs(&mut engine, &mut plan, &[(2, 1), (0, 3)], 0..8, 8);
        assert_eq!(engine.pair_drops(2, 1), start + 6);
        assert_eq!(engine.pair_drops(0, 3), 0);
        assert_eq!(engine.dropped(), start + 6);
        assert_eq!(engine.verify_drop_ledger(), Ok(()));
        assert_eq!(engine.admitted(), 2 + 8, "the undropped cells are admitted");
        // A second pair past the limit is carried separately.
        engine.preset_pair_drops(3, 3, 5 << 32);
        assert_eq!(engine.pair_drops(3, 3), 5 << 32);
        assert_eq!(engine.verify_drop_ledger(), Ok(()));
    }

    #[test]
    fn window_counts_stay_exact_past_the_32_bit_count() {
        // A pair credited three departures short of 2^32 sends eight more
        // cells: its window count crosses 2^32, a multiple of the packed
        // count field's 2^27 at N=4, so the field wraps there too, and the
        // report must show the exact u64 count.
        let mut engine = BatchCrossbar::new(4, Pim::new(4, 5));
        let start = (1u64 << 32) - 3;
        engine.preset_pair_departures(2, 1, start);
        let mut plan = FaultPlan::new();
        drive_pairs(&mut engine, &mut plan, &[(2, 1), (0, 3)], 0..10, 8);
        let r = engine.report();
        assert_eq!(r.departures_per_flow, vec![(3, 8), (2 * 4 + 1, start + 8)]);
        assert_eq!(r.departures, start + 16);
        assert_eq!(r.departures_per_output, vec![0, start + 8, 0, 8]);
        // A new window counts from zero: a carry kept from the last one
        // would show as 2^32 departures too many.
        engine.start_measurement();
        drive_pairs(&mut engine, &mut plan, &[(2, 1)], 10..15, 13);
        assert_eq!(engine.report().departures_per_flow, vec![(2 * 4 + 1, 3)]);
        // And it carries again when it crosses 2^32 once more.
        engine.start_measurement();
        engine.preset_pair_departures(2, 1, (3 << 32) - 1);
        drive_pairs(&mut engine, &mut plan, &[(2, 1)], 15..20, 17);
        let r = engine.report();
        assert_eq!(r.departures_per_flow, vec![(2 * 4 + 1, (3 << 32) + 1)]);
        assert_eq!(engine.verify_conservation(), Ok(()));
    }

    #[test]
    fn window_counts_carry_out_of_the_packed_field_at_n_1024() {
        // At N=1024 a pair entry keeps 11 count bits above its 21-bit
        // handle. Two pairs into output 7 each send a cell every slot for
        // 2^11 + 5 slots, so their queues grow while their count fields
        // wrap, and then drain: each report count must be exact.
        use an2_sched::WidePim;
        let n = 1024;
        let mut engine: BatchCrossbar<_, 16> = BatchCrossbar::new(n, WidePim::new(n, 3));
        assert_eq!(engine.packing.count_unit_bits(), 11);
        let to_seven = |i| {
            Arrival::pair(
                n,
                an2_sched::InputPort::new(i),
                an2_sched::OutputPort::new(7),
            )
        };
        let sent = (1 << 11) + 5;
        for _ in 0..sent {
            engine.step_slot(&[to_seven(5), to_seven(6)]);
        }
        assert!(engine.queued() > 1000, "the queues outlive the wrap");
        while engine.queued() > 0 {
            engine.step_slot(&[]);
        }
        let r = engine.report();
        assert_eq!(
            r.departures_per_flow,
            vec![(5 * 1024 + 7, sent), (6 * 1024 + 7, sent)]
        );
        assert_eq!((r.departures, r.delay.count()), (2 * sent, 2 * sent));
        assert_eq!(engine.active_pairs(), 0);
        assert_eq!(engine.verify_conservation(), Ok(()));
    }

    /// Serves one diagonal per call: at call `k`, each pair
    /// `(i, i + k mod n)` that holds a cell.
    struct Diagonals {
        calls: usize,
    }

    impl Scheduler for Diagonals {
        fn schedule(&mut self, requests: &an2_sched::RequestMatrix) -> an2_sched::Matching {
            let n = requests.n();
            let mut m = an2_sched::Matching::new(n);
            for i in 0..n {
                let (i, j) = (
                    an2_sched::InputPort::new(i),
                    an2_sched::OutputPort::new((i + self.calls) % n),
                );
                if requests.has(i, j) {
                    m.pair(i, j).unwrap();
                }
            }
            self.calls += 1;
            m
        }

        fn name(&self) -> &'static str {
            "diagonals"
        }
    }

    #[test]
    fn every_pair_queued_at_once_reaches_handle_n_squared() {
        // At N=4 a pair entry's handle field has the 5 bits that 16 = n²
        // needs: the largest handle the slab hands out, once every pair
        // holds cells. Clock drift holds scheduling off for 8 slots while
        // input i sends to output (i + s) mod 4 at slot s, so each pair
        // queues two cells, 4 slots apart. Then one diagonal is served per
        // slot: pair (i, i + d) sends at slots 8 + d and 12 + d, so in
        // FIFO order each of the 32 cells waits exactly 8 slots.
        let n = 4;
        let mut engine = BatchCrossbar::new(n, Diagonals { calls: 0 });
        let mut plan = FaultPlan::from_events(vec![drift(0, 8)]);
        let mut log = FaultLog::new();
        for slot in 0..16 {
            let arrivals: Vec<Arrival> = (0..n)
                .filter(|_| slot < 8)
                .map(|i| {
                    Arrival::pair(
                        n,
                        an2_sched::InputPort::new(i),
                        an2_sched::OutputPort::new((i + slot) % n),
                    )
                })
                .collect();
            engine.step_faulted(&arrivals, &mut plan, &mut log);
            if slot == 7 {
                let mut handles: Vec<u32> = engine
                    .pairs
                    .iter()
                    .map(|&e| engine.packing.handle(e))
                    .collect();
                handles.sort_unstable();
                assert_eq!(handles, (1..=16).collect::<Vec<u32>>());
                assert_eq!(engine.active_pairs(), 16);
            }
        }
        let r = engine.report();
        assert_eq!((r.departures, r.delay.count()), (32, 32));
        assert_eq!((r.delay.max(), r.delay.mean()), (8, 8.0));
        assert_eq!(
            r.departures_per_flow,
            (0..16).map(|p| (p, 2)).collect::<Vec<_>>()
        );
        assert_eq!(engine.active_pairs(), 0);
        assert_eq!(engine.verify_conservation(), Ok(()));
    }

    #[test]
    fn the_drop_table_waits_for_the_first_drop() {
        // A fault-free run at N=1024 never allocates the drop table; the
        // first cell drop allocates it, once.
        use an2_sched::WidePim;
        let n = 1024;
        let mut engine: BatchCrossbar<_, 16> = BatchCrossbar::new(n, WidePim::new(n, 3));
        let mut traffic = RateMatrixTraffic::uniform(n, 0.05, 4);
        let mut plan = FaultPlan::from_events(
            (40..50)
                .map(|slot| FaultEvent {
                    slot,
                    kind: FaultKind::CellDrop {
                        switch: 0,
                        input: 2,
                    },
                })
                .collect(),
        );
        let mut log = FaultLog::new();
        let mut buf = Vec::new();
        let mut table = None;
        for slot in 0..60 {
            buf.clear();
            crate::traffic::Traffic::arrivals(&mut traffic, slot, &mut buf);
            buf.retain(|a| a.input.index() != 2);
            buf.push(Arrival::pair(
                n,
                an2_sched::InputPort::new(2),
                an2_sched::OutputPort::new(9),
            ));
            engine.step_faulted(&buf, &mut plan, &mut log);
            if slot < 40 {
                assert_eq!(engine.drops.capacity(), 0, "slot {slot}: no drop yet");
                assert_eq!(engine.pair_drops(2, 9), 0);
                assert_eq!(engine.verify_drop_ledger(), Ok(()));
            } else {
                let at = (engine.drops.as_ptr(), engine.drops.len());
                assert_eq!(*table.get_or_insert(at), at, "slot {slot}: one table");
                assert_eq!(at.1, n * n);
            }
        }
        assert!(engine.admitted() > 1000);
        assert_eq!(engine.pair_drops(2, 9), 10);
        assert_eq!(engine.dropped(), 10);
        assert_eq!(engine.verify_drop_ledger(), Ok(()));
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
        let r = simulate(
            &mut batch,
            &mut RateMatrixTraffic::uniform(512, 0.3, 2),
            cfg,
        );
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

    /// A broken scheduler that always matches input 0 to output 0.
    struct AlwaysZero;

    impl Scheduler for AlwaysZero {
        fn schedule(&mut self, requests: &an2_sched::RequestMatrix) -> an2_sched::Matching {
            let mut m = an2_sched::Matching::new(requests.n());
            m.pair(an2_sched::InputPort::new(0), an2_sched::OutputPort::new(0))
                .unwrap();
            m
        }

        fn name(&self) -> &'static str {
            "always-zero"
        }
    }

    #[test]
    #[should_panic(expected = "with no queued cell")]
    fn matching_a_pair_without_cells_panics() {
        // Serving an empty pair would corrupt the queues, in release
        // builds too (where the engine's own check, not the debug
        // assertion on the whole matching, refuses it).
        let mut batch = BatchCrossbar::new(4, AlwaysZero);
        let a = Arrival::pair(
            4,
            an2_sched::InputPort::new(1),
            an2_sched::OutputPort::new(2),
        );
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
