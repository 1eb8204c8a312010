//! Queue records for the pairs that hold cells.
//!
//! An input-queued switch keeps a FIFO per input–output pair, but at any
//! moment only a few pairs hold cells: the paper's input buffers are
//! random-access memories that an input's queued cells share across
//! outputs (§2.4), not a fixed queue per pair. [`QueueSlab`] stores a
//! queue only while its pair holds cells. The caller keeps a dense `u32`
//! handle per pair, [`NO_QUEUE`] while the pair is empty, and the slab
//! hands a record out on the pair's first cell ([`QueueSlab::admit`]) and
//! takes it back when the last one leaves ([`QueueSlab::serve`]).
//!
//! The slab is generic over what a queue holds ([`QueueCell`]): the
//! single-switch engine ([`crate::batch::BatchCrossbar`]) and the
//! [`PairFifos`] bank queue `u32` arrival stamps, the sharded ring
//! (`an2_net::shard`) packed `u64` routed cells, and the network
//! simulator's per-flow buffers (`an2_net::flows`) `[u64; 2]` pairs of
//! push sequence and injection slot. Either way a record is one 64-byte
//! cache line: as many cells inline as fit beside the record's header (7
//! stamps, 4 ring cells or 2 flow cells), then a power-of-two boxed ring
//! for deep queues.

use crate::cell::{Arrival, Cell, FlowId};
use an2_sched::{InputPort, OutputPort, RequestMatrix};
use std::fmt;

/// What a [`QueueSlab`] queues: a small `Copy` value, with the inline
/// array that keeps a [`PairQueue`] one 64-byte line.
pub trait QueueCell: Copy + Default + fmt::Debug {
    /// A record's inline storage: the most cells that fit beside its
    /// 28-byte header in one cache line.
    type Inline: Copy + Default + fmt::Debug + AsRef<[Self]> + AsMut<[Self]>;
}

/// Arrival stamps of the single-switch engine.
impl QueueCell for u32 {
    type Inline = [u32; 7];
}

/// Packed routed cells of the sharded ring.
impl QueueCell for u64 {
    type Inline = [u64; 4];
}

/// Push sequence and injection slot of a network simulator flow's cell.
impl QueueCell for [u64; 2] {
    type Inline = [[u64; 2]; 2];
}

/// Cells in a queue's first ring: at least twice any inline capacity,
/// and a power of two.
const FIRST_RING: usize = 16;

/// Free lists of drained records, one per ring size: class 0 holds the
/// records that never spilled, class `c >= 1` those whose ring holds
/// `2^(c+3)` cells (so a [`FIRST_RING`] is class 1). A `u32` depth caps a
/// ring at 2^32 cells, class 29.
const RING_CLASSES: usize = 32;

/// The queue handle of a pair with no queued cell. Slab record 0 is a
/// permanent empty sentinel that is never handed out, so a handle is a
/// plain slab index and 0 doubles as the free list's end marker.
pub const NO_QUEUE: u32 = 0;

/// The FIFO of one pair that holds cells, packed into a single 64-byte
/// cache line.
///
/// Keeping the first cells and the depth in one aligned record makes the
/// common shallow-queue case (steady-state mean depth ≈ 1) one slab line
/// per enqueue/dequeue.
///
/// A queue deeper than its inline slots moves to a power-of-two boxed
/// ring (two lines per touch) and, if it fills that, to a ring twice as
/// big. The ring stays with the record when the pair drains: the record's
/// next pair either keeps using it or, while drained, the record lends it
/// to a deeper queue ([`QueueSlab::widen`]).
#[repr(align(64))]
#[derive(Clone, Debug, Default)]
struct PairQueue<T: QueueCell> {
    /// Inline FIFO storage, front-first in `[0..len)` while unspilled.
    inline: T::Inline,
    /// Queue depth, inline or spilled.
    len: u32,
    /// Ring head index; meaningful only once spilled, and always inside
    /// the ring. A pair taking over a drained ring starts at whatever head
    /// it left: every ring index is relative to it.
    head: u32,
    /// Next record on its free list while this one is drained.
    next_free: u32,
    /// Spilled ring storage; empty means unspilled, else a power of two.
    spill: Box<[T]>,
}

const _: () = assert!(
    std::mem::size_of::<PairQueue<u32>>() == 64
        && std::mem::size_of::<PairQueue<u64>>() == 64
        && std::mem::size_of::<PairQueue<[u64; 2]>>() == 64
);

impl<T: QueueCell> PairQueue<T> {
    /// Cells a record holds before it spills.
    const INLINE: usize = std::mem::size_of::<T::Inline>() / std::mem::size_of::<T>();

    /// Cells the record holds before it must move to a bigger ring.
    fn capacity(&self) -> usize {
        if self.spill.is_empty() {
            Self::INLINE
        } else {
            self.spill.len()
        }
    }

    /// The free list a drained record waits on (see [`RING_CLASSES`]).
    fn ring_class(&self) -> usize {
        if self.spill.is_empty() {
            0
        } else {
            (self.spill.len() >> 3).trailing_zeros() as usize
        }
    }

    #[inline]
    // an2-lint: allow(overflow-discipline) the caller makes room first (QueueSlab::widen), so len < capacity before the increment
    // an2-lint: allow(panic-freedom) len < capacity indexes the inline slots; a ring index is masked by the ring's power-of-two size
    fn enqueue(&mut self, v: T) {
        debug_assert!(
            (self.len as usize) < self.capacity(),
            "enqueue into a full record"
        );
        let len = self.len as usize;
        if self.spill.is_empty() {
            self.inline.as_mut()[len] = v;
        } else {
            let mask = self.spill.len() - 1;
            self.spill[(self.head as usize + len) & mask] = v;
        }
        self.len += 1;
    }

    /// The oldest cell; the record holds at least one.
    #[inline]
    fn front(&self) -> T {
        // An unspilled record has no ring, so the lookup falls through.
        self.spill
            .get(self.head as usize)
            .or_else(|| self.inline.as_ref().first())
            .copied()
            .unwrap_or_default()
    }

    #[inline]
    // an2-lint: allow(overflow-discipline) callers only serve pairs the request matrix marks non-empty (the debug_assert pins len > 0)
    // an2-lint: allow(panic-freedom) the inline slots are a fixed array; a ring index is masked by the ring's power-of-two size
    fn dequeue(&mut self) -> T {
        debug_assert!(self.len > 0, "dequeue from empty pair queue");
        self.len -= 1;
        if self.spill.is_empty() {
            let inline = self.inline.as_mut();
            let v = inline[0];
            // One-lane shift within the same cache line: cheaper than ring
            // arithmetic would make the spilled-or-not branch.
            inline.copy_within(1..Self::INLINE, 0);
            v
        } else {
            let mask = self.spill.len() - 1;
            let v = self.spill[self.head as usize];
            self.head = ((self.head as usize + 1) & mask) as u32;
            v
        }
    }
}

/// The queue records of the pairs that hold cells, with the drained ones
/// on free lists threaded through [`PairQueue::next_free`], one list per
/// ring size.
///
/// A pair takes a record on its first cell ([`QueueSlab::admit`]) and
/// gives it back when its last cell leaves ([`QueueSlab::serve`]). Claims
/// take the smallest ring on offer, most recently drained first, so a
/// shallow queue keeps to its record's own cache line and big rings wait
/// for the pairs that go deep: a full queue moves into the largest ring
/// of a drained record when that is bigger ([`QueueSlab::widen`]). So
/// the slab grows only when the number of pairs holding cells reaches a
/// new peak, and rings only when the concurrently deep queues outgrow
/// every ring the slab holds.
///
/// # Examples
///
/// ```
/// use an2_sim::slab::{QueueSlab, NO_QUEUE};
///
/// let mut slab = QueueSlab::<u64>::with_capacity(2);
/// let mut pair = NO_QUEUE;
/// assert!(slab.admit(&mut pair, 10), "the pair just became active");
/// assert!(!slab.admit(&mut pair, 11));
/// assert_eq!(slab.serve(&mut pair), (10, false));
/// assert_eq!(slab.serve(&mut pair), (11, true));
/// assert_eq!(pair, NO_QUEUE, "a drained pair holds no record");
/// ```
#[derive(Clone, Debug)]
pub struct QueueSlab<T: QueueCell> {
    /// Record 0 is the [`NO_QUEUE`] sentinel; the rest are handed out.
    records: Vec<PairQueue<T>>,
    /// Free-list heads by ring class; [`NO_QUEUE`] ends a list.
    free: [u32; RING_CLASSES],
    /// Bit `c` is set iff class `c`'s free list is non-empty.
    nonempty: u32,
}

impl<T: QueueCell> QueueSlab<T> {
    /// A slab with room for `reserve` records besides the sentinel.
    pub fn with_capacity(reserve: usize) -> Self {
        let mut records = Vec::with_capacity(reserve + 1);
        records.push(PairQueue::default());
        Self {
            records,
            free: [NO_QUEUE; RING_CLASSES],
            nonempty: 0,
        }
    }

    /// Appends `v` to the queue of the pair whose handle is `handle`,
    /// handing the pair a record if it held no cell. Returns whether it
    /// did, i.e. whether the pair just became active.
    ///
    /// A handle must be [`NO_QUEUE`] or one this slab handed out.
    #[inline]
    pub fn admit(&mut self, handle: &mut u32, v: T) -> bool {
        let fresh = *handle == NO_QUEUE;
        if fresh {
            let smallest = self.nonempty.trailing_zeros() as usize;
            *handle = if smallest < RING_CLASSES {
                self.take_free(smallest)
            } else {
                self.grow()
            };
        }
        let h = *handle as usize;
        debug_assert!(h != 0 && h < self.records.len());
        // an2-lint: allow(panic-freedom) a handle is a slab index: only take_free() and grow() hand one out
        if self.records[h].len as usize == self.records[h].capacity() {
            self.widen(h);
        }
        // an2-lint: allow(panic-freedom) a handle is a slab index: only take_free() and grow() hand one out
        self.records[h].enqueue(v);
        fresh
    }

    /// Removes the oldest cell of the pair whose handle is `handle` and,
    /// if that was its last, puts the pair's record on a free list and
    /// sets the handle to [`NO_QUEUE`]. Returns the cell and whether the
    /// pair drained. The pair must hold a cell.
    #[inline]
    pub fn serve(&mut self, handle: &mut u32) -> (T, bool) {
        let h = *handle;
        debug_assert!(h != NO_QUEUE, "served a pair with no queued cell");
        debug_assert!((h as usize) < self.records.len());
        // an2-lint: allow(panic-freedom) a handle is a slab index: only take_free() and grow() hand one out
        let q = &mut self.records[h as usize];
        let v = q.dequeue();
        let drained = q.len == 0;
        if drained {
            self.put_free(h);
            *handle = NO_QUEUE;
        }
        (v, drained)
    }

    /// The depth of the pair whose handle is `handle` and its oldest
    /// cell, or `None` for a handle this slab never handed out. A pair
    /// with no cell ([`NO_QUEUE`]) has depth 0.
    #[inline]
    pub fn peek(&self, handle: u32) -> Option<(u32, T)> {
        self.records
            .get(handle as usize)
            .map(|q| (q.len, q.front()))
    }

    /// Drops the newest cells of the pair whose handle is `handle` until
    /// at most `keep` remain. A pair left with none gives its record back
    /// and its handle becomes [`NO_QUEUE`]. For the cold paths that
    /// reroute or discard a queue; a handle the slab never handed out is
    /// left alone.
    // an2-lint: cold
    #[cold]
    pub fn truncate(&mut self, handle: &mut u32, keep: u32) {
        let h = *handle;
        let Some(q) = self.records.get_mut(h as usize).filter(|_| h != NO_QUEUE) else {
            return;
        };
        if q.len <= keep {
            return;
        }
        q.len = keep;
        if keep == 0 {
            self.put_free(h);
            *handle = NO_QUEUE;
        }
    }

    /// Takes the head record off class `c`'s free list (which must be
    /// non-empty).
    #[inline]
    fn take_free(&mut self, c: usize) -> u32 {
        debug_assert!(self.nonempty & (1 << c) != 0, "free list {c} is empty");
        let Some(head) = self.free.get_mut(c) else {
            return NO_QUEUE;
        };
        let h = *head;
        *head = self
            .records
            .get(h as usize)
            .map_or(NO_QUEUE, |q| q.next_free);
        if *head == NO_QUEUE {
            self.nonempty &= !(1 << c);
        }
        h
    }

    /// Puts drained record `h` at the head of its class's free list.
    #[inline]
    fn put_free(&mut self, h: u32) {
        let Some(q) = self.records.get_mut(h as usize) else {
            return;
        };
        let c = q.ring_class();
        debug_assert!(c < RING_CLASSES, "a u32 depth bounds every ring");
        if let Some(head) = self.free.get_mut(c) {
            q.next_free = *head;
            *head = h;
            self.nonempty |= 1 << c;
        }
    }

    /// Moves the full queue of record `h` into a ring with room for at
    /// least twice its cells: the largest ring of a drained record, when
    /// that is bigger, else a fresh one. A donor record takes `h`'s old
    /// storage in exchange and moves to that storage's free list.
    // an2-lint: cold
    #[cold]
    fn widen(&mut self, h: usize) {
        let (class, cap) = (self.records[h].ring_class(), self.records[h].capacity());
        let donor = (self.nonempty >> class > 1)
            .then(|| self.take_free(31 - self.nonempty.leading_zeros() as usize) as usize);
        let ring = match donor {
            Some(d) => std::mem::take(&mut self.records[d].spill),
            None => vec![T::default(); (2 * cap).max(FIRST_RING)].into_boxed_slice(),
        };
        let q = &mut self.records[h];
        let old = std::mem::replace(&mut q.spill, ring);
        let len = q.len as usize;
        if old.is_empty() {
            q.spill[..len].copy_from_slice(&q.inline.as_ref()[..len]);
        } else {
            let mask = old.len() - 1;
            for k in 0..len {
                q.spill[k] = old[(q.head as usize + k) & mask];
            }
        }
        q.head = 0;
        if let Some(d) = donor {
            // The donor's head indexed its old ring and may lie outside
            // this one; drained, the donor can restart at slot 0.
            let donor = &mut self.records[d];
            donor.spill = old;
            donor.head = 0;
            self.put_free(d as u32);
        }
    }

    /// Appends a fresh record and returns its handle: every free list is
    /// empty, so the pairs holding cells have reached a new peak.
    // an2-lint: cold
    #[cold]
    fn grow(&mut self) -> u32 {
        // At most one record per pair plus the sentinel, and callers size
        // their pair tables (and so the number of handles) to fit `u32`.
        let h = u32::try_from(self.records.len()).expect("slab handles fit u32");
        self.records.push(PairQueue::default());
        h
    }
}

/// One FIFO of arrival stamps per input–output pair, for the switch
/// models that keep to one flow per pair ([`FlowId::for_pair`]) outside
/// the single-switch engine: the speedup switch, the hybrid CBR/VBR
/// switch (one bank per service class) and the `an2-verify` probe runner.
///
/// The bank keeps a dense `u32` [`QueueSlab`] handle per pair, the
/// request matrix in step with the queues (set on a pair's first cell,
/// cleared when it drains), the queued count, and an optional depth bound
/// that [`PairFifos::push`] enforces by refusing the arriving cell
/// (drop-tail). Cells are stamped with the slot's low 32 bits, and a
/// departing cell's arrival slot is the departure slot minus the wrapping
/// difference of stamps, so runs may pass 2^32 slots and stay exact for
/// any cell that waited fewer than 2^32 slots.
///
/// # Examples
///
/// ```
/// use an2_sched::{InputPort, OutputPort};
/// use an2_sim::cell::Arrival;
/// use an2_sim::slab::PairFifos;
///
/// let mut bank = PairFifos::new(4, Some(1));
/// let a = Arrival::pair(4, InputPort::new(0), OutputPort::new(2));
/// assert!(bank.push(a, 7));
/// assert!(!bank.push(a, 8), "the pair is at its depth bound");
/// let cell = bank.pop(InputPort::new(0), OutputPort::new(2), 9).unwrap();
/// assert_eq!((cell.flow, cell.arrival_slot), (a.flow, 7));
/// assert_eq!(bank.len(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct PairFifos {
    n: usize,
    /// One [`QueueSlab`] handle per pair, row-major.
    handles: Vec<u32>,
    slab: QueueSlab<u32>,
    /// Bit `(i, j)` is set iff pair `(i, j)` holds a cell.
    requests: RequestMatrix,
    queued: usize,
    /// The most cells a pair may hold; `None` is unbounded.
    bound: Option<u32>,
}

impl PairFifos {
    /// Empty queues for an `n`-port switch whose pairs hold at most
    /// `bound` cells each (`None`: unbounded).
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or larger than a [`RequestMatrix`] holds.
    pub fn new(n: usize, bound: Option<usize>) -> Self {
        Self {
            n,
            handles: vec![NO_QUEUE; n * n],
            slab: QueueSlab::with_capacity(n),
            requests: RequestMatrix::new(n),
            queued: 0,
            bound: bound.map(|b| u32::try_from(b).unwrap_or(u32::MAX)),
        }
    }

    /// The switch radix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Cells queued across all pairs.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// Returns `true` if no cell is queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// The pairs that hold a cell.
    pub fn requests(&self) -> &RequestMatrix {
        &self.requests
    }

    /// Row-major index of pair `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if either port is outside the switch.
    fn pair(&self, i: InputPort, j: OutputPort) -> usize {
        if i.index() >= self.n || j.index() >= self.n {
            refused_pair(i, j, self.n, "lies outside the switch");
        }
        i.index() * self.n + j.index()
    }

    /// Whether every pair holds at most the depth bound. [`PairFifos::push`]
    /// refuses cells past it, so this is a check on the bank itself.
    pub fn within_bound(&self) -> bool {
        let Some(bound) = self.bound else {
            return true;
        };
        self.handles
            .iter()
            .all(|&h| self.slab.peek(h).is_some_and(|(depth, _)| depth <= bound))
    }

    /// Queues arrival `a`, stamped with `slot`, or refuses it when its pair
    /// is at the depth bound. Returns whether the cell was queued.
    ///
    /// # Panics
    ///
    /// Panics if a port is outside the switch or the arrival's flow id is
    /// not [`FlowId::for_pair`] of its pair.
    #[must_use = "a refused cell must be accounted for"]
    pub fn push(&mut self, a: Arrival, slot: u64) -> bool {
        let p = self.pair(a.input, a.output);
        if a.flow != FlowId::for_pair(self.n, a.input, a.output) {
            refused_pair(
                a.input,
                a.output,
                self.n,
                "got another flow: these switches queue one flow per pair",
            );
        }
        let Some(h) = self.handles.get_mut(p) else {
            return false;
        };
        if let Some(bound) = self.bound {
            if self.slab.peek(*h).is_some_and(|(depth, _)| depth >= bound) {
                return false;
            }
        }
        if self.slab.admit(h, slot as u32) {
            self.requests.set(a.input, a.output);
        }
        self.queued = self.queued.wrapping_add(1);
        true
    }

    /// Dequeues the oldest cell of pair `(i, j)` as it departs in `slot`,
    /// or `None` if the pair holds none.
    ///
    /// # Panics
    ///
    /// Panics if either port is outside the switch.
    pub fn pop(&mut self, i: InputPort, j: OutputPort, slot: u64) -> Option<Cell> {
        let p = self.pair(i, j);
        let h = self.handles.get_mut(p).filter(|h| **h != NO_QUEUE)?;
        let (stamp, drained) = self.slab.serve(h);
        if drained {
            self.requests.clear(i, j);
        }
        self.queued = self.queued.wrapping_sub(1);
        let waited = u64::from((slot as u32).wrapping_sub(stamp));
        Some(Arrival::pair(self.n, i, j).into_cell(slot.wrapping_sub(waited)))
    }
}

/// Panics for a cell [`PairFifos`] refuses by contract: one whose pair
/// lies outside the switch, or whose flow is not its pair's.
// an2-lint: cold
#[cold]
fn refused_pair(i: InputPort, j: OutputPort, n: usize, why: &str) -> ! {
    panic!("pair ({i},{j}) of a {n}x{n} switch {why}")
}

#[cfg(test)]
impl<T: QueueCell> QueueSlab<T> {
    /// Records, the sentinel included.
    pub(crate) fn records(&self) -> usize {
        self.records.len()
    }

    /// The ring size and head of record `h` (size 0 while unspilled).
    pub(crate) fn ring(&self, h: u32) -> (usize, u32) {
        let q = &self.records[h as usize];
        (q.spill.len(), q.head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A payload the tests can write from a counter. The `u64` cells carry
    /// a high tag so a truncation to 32 bits would show.
    trait Cell: QueueCell + PartialEq {
        fn of(v: u32) -> Self;
    }

    impl Cell for u32 {
        fn of(v: u32) -> Self {
            v
        }
    }

    impl Cell for u64 {
        fn of(v: u32) -> Self {
            (0xABC << 40) | u64::from(v)
        }
    }

    impl Cell for [u64; 2] {
        fn of(v: u32) -> Self {
            [u64::from(v), (0xDEF << 40) | u64::from(v)]
        }
    }

    fn inline<T: Cell>() -> u32 {
        PairQueue::<T>::INLINE as u32
    }

    fn fifo_across_spill_and_growth<T: Cell>() {
        // 100 cells crosses inline -> spill and several doublings;
        // interleaved dequeues exercise the wrapped-ring compaction.
        let mut slab = QueueSlab::<T>::with_capacity(1);
        let mut l = NO_QUEUE;
        for v in 0..100 {
            slab.admit(&mut l, T::of(v));
        }
        for v in 0..50 {
            assert_eq!(slab.serve(&mut l).0, T::of(v));
            assert_eq!(slab.peek(l), Some((99 - v, T::of(v + 1))));
        }
        for v in 100..200 {
            slab.admit(&mut l, T::of(v));
        }
        for v in 50..200 {
            assert_eq!(slab.serve(&mut l), (T::of(v), v == 199));
        }
        assert_eq!(l, NO_QUEUE);
        assert_eq!(slab.peek(l).map(|(depth, _)| depth), Some(0));
    }

    #[test]
    fn pair_queue_fifo_order_across_spill_and_growth() {
        fifo_across_spill_and_growth::<u32>();
        fifo_across_spill_and_growth::<u64>();
        fifo_across_spill_and_growth::<[u64; 2]>();
    }

    fn inline_only_never_spills<T: Cell>() {
        let mut slab = QueueSlab::<T>::with_capacity(1);
        let mut l = NO_QUEUE;
        // Stay at depth <= the inline capacity across many operations.
        for round in 0..50 {
            for v in 0..inline::<T>() {
                slab.admit(&mut l, T::of(round * 100 + v));
            }
            for v in 0..inline::<T>() {
                assert_eq!(slab.serve(&mut l).0, T::of(round * 100 + v));
            }
        }
        assert_eq!(slab.ring(1).0, 0, "shallow queue must not spill");
        assert_eq!(slab.records(), 2, "one record serves every round");
    }

    #[test]
    fn pair_queue_inline_only_never_allocates_spill() {
        inline_only_never_spills::<u32>();
        inline_only_never_spills::<u64>();
        inline_only_never_spills::<[u64; 2]>();
    }

    fn recycled_record_at_a_moved_head<T: Cell>() {
        // Pair A spills past its inline slots, drains, and hands its
        // record (ring and all) to pair B, whose cells then start at A's
        // final ring head and wrap around the ring's end.
        let mut slab = QueueSlab::<T>::with_capacity(4);
        let (mut a, mut b) = (NO_QUEUE, NO_QUEUE);
        for v in 0..12 {
            assert_eq!(slab.admit(&mut a, T::of(v)), v == 0);
        }
        let h = a;
        assert_ne!(h, NO_QUEUE);
        for v in 0..12 {
            assert_eq!(slab.serve(&mut a), (T::of(v), v == 11));
        }
        assert_eq!(a, NO_QUEUE, "a drained pair holds no record");
        let (ring, head) = slab.ring(h);
        assert!(
            ring > 0 && head > 0,
            "A must leave a spilled ring at a moved head"
        );
        for v in 100..115 {
            assert_eq!(slab.admit(&mut b, T::of(v)), v == 100);
        }
        assert_eq!(b, h, "B must take A's drained record");
        assert_eq!(slab.ring(h).0, ring, "the ring is kept");
        assert!(
            head as usize + 15 > ring,
            "B's cells must wrap the ring's end"
        );
        for v in 100..115 {
            assert_eq!(slab.serve(&mut b), (T::of(v), v == 114));
        }
        assert_eq!(
            slab.records(),
            2,
            "one record and the sentinel served both pairs"
        );
    }

    #[test]
    fn recycled_record_keeps_fifo_order_at_a_moved_ring_head() {
        recycled_record_at_a_moved_head::<u32>();
        recycled_record_at_a_moved_head::<u64>();
        recycled_record_at_a_moved_head::<[u64; 2]>();
    }

    fn deep_queue_takes_a_drained_ring<T: Cell>() {
        // A goes 40 deep (a 64-cell ring) and drains; B, shallow, drains
        // into an inline record. C then takes B's inline record (smallest
        // ring first) and, past its inline slots, swaps storage with A's
        // drained record: C's queue moves into the 64-cell ring, A's
        // record takes C's empty storage, and no new ring is allocated.
        let mut slab = QueueSlab::<T>::with_capacity(4);
        let [mut a, mut b, mut c] = [NO_QUEUE; 3];
        for v in 0..40 {
            slab.admit(&mut a, T::of(v));
        }
        slab.admit(&mut b, T::of(7));
        let (ha, hb) = (a, b);
        for v in 0..40 {
            assert_eq!(slab.serve(&mut a).0, T::of(v));
        }
        assert_eq!(slab.serve(&mut b), (T::of(7), true));
        let ring = slab.records[ha as usize].spill.as_ptr();
        assert_eq!(slab.ring(ha).0, 64);
        for v in 0..30 {
            assert_eq!(slab.admit(&mut c, T::of(v)), v == 0);
        }
        assert_eq!(c, hb, "C takes the inline record first");
        assert_eq!(
            slab.records[hb as usize].spill.as_ptr(),
            ring,
            "C's queue moved into A's old ring"
        );
        assert_eq!(slab.ring(ha).0, 0);
        assert_eq!(slab.nonempty, 1, "A's record now waits on the inline list");
        for v in 0..30 {
            assert_eq!(slab.serve(&mut c), (T::of(v), v == 29));
        }
        assert_eq!(slab.records(), 3);
    }

    #[test]
    fn a_deep_queue_takes_a_drained_ring_instead_of_allocating() {
        deep_queue_takes_a_drained_ring::<u32>();
        deep_queue_takes_a_drained_ring::<u64>();
        deep_queue_takes_a_drained_ring::<[u64; 2]>();
    }

    fn donor_restarts_at_its_new_ring_head<T: Cell>() {
        // A drains from 40 deep, leaving its 64-cell ring's head at 40. D,
        // full at 16 cells in a 16-cell ring, swaps storage with A's
        // record, which must then index the 16-cell ring from its start:
        // E takes that record next and must see FIFO order.
        let mut slab = QueueSlab::<T>::with_capacity(4);
        let [mut a, mut d, mut e] = [NO_QUEUE; 3];
        for v in 0..40 {
            slab.admit(&mut a, T::of(v));
        }
        for v in 0..16 {
            slab.admit(&mut d, T::of(v));
        }
        let ha = a;
        for v in 0..40 {
            assert_eq!(slab.serve(&mut a).0, T::of(v));
        }
        assert_eq!(slab.ring(ha), (64, 40));
        slab.admit(&mut d, T::of(16));
        assert_eq!(slab.ring(d).0, 64, "D took A's ring");
        assert_eq!(slab.ring(ha).0, 16, "A's record took D's ring");
        for v in 100..112 {
            slab.admit(&mut e, T::of(v));
        }
        assert_eq!(e, ha, "E takes the smallest ring on offer");
        for v in 100..112 {
            assert_eq!(slab.serve(&mut e), (T::of(v), v == 111));
        }
        for v in 0..17 {
            assert_eq!(slab.serve(&mut d), (T::of(v), v == 16));
        }
    }

    #[test]
    fn a_donor_record_restarts_at_the_head_of_the_ring_it_receives() {
        donor_restarts_at_its_new_ring_head::<u32>();
        donor_restarts_at_its_new_ring_head::<u64>();
        donor_restarts_at_its_new_ring_head::<[u64; 2]>();
    }

    fn truncate_drops_the_newest<T: Cell>() {
        // Truncation keeps the oldest cells in order, inline and spilled,
        // and a queue truncated to nothing gives its record back.
        let mut slab = QueueSlab::<T>::with_capacity(2);
        let (mut a, mut b) = (NO_QUEUE, NO_QUEUE);
        for v in 0..3 {
            slab.admit(&mut a, T::of(v));
        }
        for v in 0..40 {
            slab.admit(&mut b, T::of(v));
        }
        slab.serve(&mut b);
        slab.truncate(&mut a, 5);
        assert_eq!(
            slab.peek(a).map(|(depth, _)| depth),
            Some(3),
            "nothing to drop"
        );
        slab.truncate(&mut a, 2);
        slab.truncate(&mut b, 20);
        assert_eq!(slab.serve(&mut a), (T::of(0), false));
        assert_eq!(slab.serve(&mut a), (T::of(1), true));
        for v in 1..21 {
            assert_eq!(slab.serve(&mut b), (T::of(v), v == 20));
        }
        let mut c = NO_QUEUE;
        slab.admit(&mut c, T::of(7));
        let h = c;
        slab.truncate(&mut c, 0);
        assert_eq!(c, NO_QUEUE, "an emptied queue holds no record");
        slab.truncate(&mut c, 0);
        slab.admit(&mut c, T::of(8));
        assert_eq!(c, h, "the record went back on its free list");
        assert_eq!(slab.records(), 3);
    }

    #[test]
    fn truncate_keeps_the_oldest_cells_and_frees_emptied_records() {
        truncate_drops_the_newest::<u32>();
        truncate_drops_the_newest::<u64>();
        truncate_drops_the_newest::<[u64; 2]>();
    }

    fn arrival(n: usize, i: usize, j: usize) -> Arrival {
        Arrival::pair(n, InputPort::new(i), OutputPort::new(j))
    }

    #[test]
    fn pair_fifos_keep_requests_and_counts_in_step() {
        let mut bank = PairFifos::new(4, None);
        assert!(bank.push(arrival(4, 0, 3), 5));
        assert!(bank.push(arrival(4, 0, 3), 6));
        assert!(bank.push(arrival(4, 2, 1), 6));
        let reqs: Vec<_> = bank.requests().pairs().collect();
        assert_eq!(
            reqs,
            [
                (InputPort::new(0), OutputPort::new(3)),
                (InputPort::new(2), OutputPort::new(1))
            ]
        );
        assert_eq!(bank.len(), 3);
        let (i, j) = (InputPort::new(0), OutputPort::new(3));
        assert_eq!(bank.pop(i, j, 9), Some(arrival(4, 0, 3).into_cell(5)));
        assert!(bank.requests().has(i, j));
        assert_eq!(bank.pop(i, j, 9), Some(arrival(4, 0, 3).into_cell(6)));
        assert!(
            !bank.requests().has(i, j),
            "a drained pair stops requesting"
        );
        assert_eq!(bank.pop(i, j, 9), None);
        assert_eq!(bank.len(), 1);
        assert!(!bank.is_empty());
    }

    #[test]
    fn pair_fifos_refuse_cells_past_the_depth_bound() {
        let mut bank = PairFifos::new(4, Some(2));
        assert!(bank.push(arrival(4, 1, 2), 0));
        assert!(bank.push(arrival(4, 1, 2), 1));
        assert!(!bank.push(arrival(4, 1, 2), 2), "drop-tail at the bound");
        assert!(bank.push(arrival(4, 1, 3), 2), "the bound is per pair");
        assert!(bank.within_bound());
        assert_eq!(bank.len(), 3);
        // The queued cells are the two oldest.
        let (i, j) = (InputPort::new(1), OutputPort::new(2));
        assert_eq!(bank.pop(i, j, 3).map(|c| c.arrival_slot), Some(0));
        assert!(bank.push(arrival(4, 1, 2), 3), "draining makes room");
    }

    #[test]
    fn pair_fifos_report_arrival_slots_across_the_stamp_wrap() {
        let mut bank = PairFifos::new(2, None);
        let before = u64::from(u32::MAX) - 1;
        assert!(bank.push(arrival(2, 1, 0), before));
        let cell = bank.pop(InputPort::new(1), OutputPort::new(0), before + 5);
        assert_eq!(cell.map(|c| c.arrival_slot), Some(before));
    }

    #[test]
    #[should_panic(expected = "one flow per pair")]
    fn pair_fifos_reject_a_non_pair_flow() {
        let mut bank = PairFifos::new(4, None);
        let mut a = arrival(4, 0, 1);
        a.flow = FlowId(99);
        let _ = bank.push(a, 0);
    }
}
