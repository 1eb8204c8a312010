//! Random-access input buffers, organized as the paper describes (§3.3):
//!
//! > "Each flow has its own FIFO queue of buffered cells. A flow is
//! > *eligible* for scheduling if it has at least one cell queued. A list
//! > of eligible flows is kept for each input-output pair. If there is at
//! > least one eligible flow for a given input-output pair, the input
//! > requests the output during parallel iterative matching. If the
//! > request is granted, one of the eligible flows is chosen for
//! > scheduling in round-robin fashion."
//!
//! These are virtual output queues (VOQs) with per-flow FIFO sub-queues.
//! Cells within a flow are never reordered; cells of different flows can
//! be. Because every cell of a flow is routed to the same output, "either
//! none of the cells of a flow are blocked or all are" — no head-of-line
//! blocking (§3.1).
//!
//! # Layout
//!
//! ```text
//! index: DetHashMap<FlowId, u32>   flow -> slab index, touched once per new flow
//! slab:  [FlowSlot]                id, route pin, next-eligible link,
//!                                  FIFO of (seq, Cell)
//! free:  [u32]                     slots released by drop_flow, reused first
//! pairs: [PairSlot; n*n]           row-major: eligible-list head/tail,
//!                                  last-flow cache, queued-cell count
//! ```
//!
//! A flow is *interned* on first sight: it gets a slot in a dense flow
//! slab holding its id, its route pin and its cell FIFO, and the only hash
//! map lookup maps the flow id to that slot. Each pair remembers the slot
//! of the flow last pushed on it, so a steady-state `push` — the same flow
//! arriving on the same pair again, which is every push under the
//! one-flow-per-pair convention — checks the cache and never hashes. A
//! pair's list of eligible flows is threaded through the slab itself
//! (head/tail in the pair record, a `next` link per slot), so `pop` walks
//! slab indices and does no hashing at all. The per-cell cost is therefore
//! bounded by **one hash per new flow** (plus one per cache miss when
//! several flows interleave on one pair).
//!
//! `drop_flow` releases a flow's slot to a free list that the next new flow
//! reuses, so the slab tracks the live flows, not every flow ever seen.

use crate::cell::{Cell, FlowId};
use an2_sched::det::DetHashMap;
use an2_sched::{InputPort, OutputPort, PortSet, RequestMatrix};
use std::collections::VecDeque;

/// Outcome of [`VoqBuffers::push`]: whether the buffer admitted the cell.
///
/// Unbounded buffers (the default) always admit. Once a finite per-pair
/// capacity is configured with [`VoqBuffers::set_pair_capacity`], a push to
/// a full pair drops the *arriving* cell (drop-tail) and reports it here;
/// callers must consume the outcome so dropped cells are accounted for, not
/// silently lost.
#[must_use = "dropped cells must be accounted for by the caller"]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// The cell was queued.
    Admitted,
    /// The cell was discarded because its pair's VOQ was full.
    Dropped,
}

impl PushOutcome {
    /// `true` if the cell was queued.
    pub fn is_admitted(self) -> bool {
        self == PushOutcome::Admitted
    }

    /// `true` if the cell was discarded.
    pub fn is_dropped(self) -> bool {
        self == PushOutcome::Dropped
    }
}

/// How [`VoqBuffers::pop`] chooses among the eligible flows of one
/// input–output pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ServiceDiscipline {
    /// Round-robin among eligible flows — the AN2 switch's discipline
    /// (§3.3: "one of the eligible flows is chosen ... in round-robin
    /// fashion").
    #[default]
    RoundRobin,
    /// Strict arrival order across flows (oldest queued cell of the pair
    /// first) — the discipline the paper's Figure 9 illustration assumes
    /// when flows merge into one stream.
    Fifo,
}

/// Slab index meaning "no flow": the end of an eligible list, an empty
/// list's head and tail, and an empty last-flow cache.
const NIL: u32 = u32::MAX;

/// One interned flow.
#[derive(Clone, Debug)]
struct FlowSlot {
    id: FlowId,
    /// The output every cell of the flow must take (flows are
    /// route-pinned, §2; only [`VoqBuffers::redirect_flow`] moves it).
    output: OutputPort,
    /// `false` once [`VoqBuffers::drop_flow`] released the slot to the
    /// free list; a stale last-flow cache entry must not resurrect it.
    live: bool,
    /// The next flow in this flow's pair's eligible list, or [`NIL`].
    next: u32,
    /// Queued cells with their push sequence numbers, oldest first.
    cells: VecDeque<(u64, Cell)>,
}

/// The per-pair state, one record per input–output pair.
#[derive(Clone, Copy, Debug)]
struct PairSlot {
    /// First flow of the pair's eligible list (round-robin order), or
    /// [`NIL`] when no flow of the pair has a queued cell.
    head: u32,
    /// Last flow of the eligible list, or [`NIL`].
    tail: u32,
    /// Slab index of the flow last pushed on this pair, or [`NIL`].
    last: u32,
    /// Queued cells of the pair across all its flows.
    count: usize,
}

const EMPTY_PAIR: PairSlot = PairSlot {
    head: NIL,
    tail: NIL,
    last: NIL,
    count: 0,
};

/// The input-side buffer pool of one switch: per-flow FIFO queues plus
/// per-(input, output) round-robin lists of eligible flows, for switches
/// of up to [`PortSet::CAPACITY`] ports.
///
/// # Examples
///
/// ```
/// use an2_sim::voq::VoqBuffers;
/// use an2_sim::cell::{Arrival, Cell, FlowId};
/// use an2_sched::{InputPort, OutputPort};
///
/// let mut voq = VoqBuffers::new(4);
/// let a = Arrival::pair(4, InputPort::new(0), OutputPort::new(2));
/// assert!(voq.push(a.into_cell(0)).is_admitted());
/// assert_eq!(voq.len(), 1);
/// let c = voq.pop(InputPort::new(0), OutputPort::new(2)).unwrap();
/// assert_eq!(c.arrival_slot, 0);
/// assert!(voq.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct VoqBuffers {
    n: usize,
    discipline: ServiceDiscipline,
    /// Monotonic push counter; orders cells across flows for `Fifo`.
    next_seq: u64,
    /// Flow id -> slab index of every live flow (see the module docs).
    index: DetHashMap<FlowId, u32>,
    /// The interned flows; indices are stable while a flow lives.
    slab: Vec<FlowSlot>,
    /// Slab slots released by [`VoqBuffers::drop_flow`], reused first.
    free: Vec<u32>,
    /// `pairs[i * n + j]`: eligible list, last-flow cache and cell count
    /// of pair `(i, j)`.
    pairs: Vec<PairSlot>,
    /// Total queued cells.
    total: usize,
    /// Queued cells per input (for occupancy metrics).
    per_input: Vec<usize>,
    /// Incrementally maintained request matrix: bit `(i, j)` is set iff
    /// pair `(i, j)` has an eligible flow. Kept in sync by `push`/`pop` so
    /// [`VoqBuffers::requests`] is a free borrow instead of an `O(N²)`
    /// rebuild every slot.
    requests: RequestMatrix,
    /// Per-pair cell budget; `None` = unbounded (the pre-fault default).
    capacity: Option<usize>,
    /// Cells discarded (drop-tail, redirect overflow, stranded flows).
    drops_total: u64,
    /// Discards per input port.
    drops_per_input: Vec<u64>,
}

impl VoqBuffers {
    /// Creates empty buffers for an `n`-port switch with the AN2
    /// round-robin flow discipline.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > PortSet::CAPACITY`.
    pub fn new(n: usize) -> Self {
        Self::with_discipline(n, ServiceDiscipline::RoundRobin)
    }

    /// Creates empty buffers with an explicit flow-service discipline.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > PortSet::CAPACITY`.
    pub fn with_discipline(n: usize, discipline: ServiceDiscipline) -> Self {
        assert!(n > 0, "switch must have at least one port");
        assert!(n <= PortSet::CAPACITY, "switch size {n} out of range");
        Self {
            n,
            discipline,
            next_seq: 0,
            index: DetHashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            pairs: vec![EMPTY_PAIR; n * n],
            total: 0,
            per_input: vec![0; n],
            requests: RequestMatrix::new(n),
            capacity: None,
            drops_total: 0,
            drops_per_input: vec![0; n],
        }
    }

    /// Sets the per-(input, output) cell budget; `None` restores unbounded
    /// buffering. Applies to future pushes only: cells already queued above
    /// a newly lowered budget stay queued and drain normally.
    pub fn set_pair_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
    }

    /// The per-pair cell budget in force (`None` = unbounded).
    pub fn pair_capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Whether every per-pair occupancy respects the configured capacity.
    ///
    /// Vacuously `true` when unbounded. May legitimately be `false` right
    /// after [`VoqBuffers::set_pair_capacity`] *lowers* the budget below an
    /// existing queue length (those cells stay queued and drain), so the
    /// invariant layer checks it only on runs whose capacity was fixed
    /// before the first push.
    pub fn capacity_invariant_holds(&self) -> bool {
        let Some(cap) = self.capacity else {
            return true;
        };
        self.pairs.iter().all(|p| p.count <= cap)
    }

    /// Cells discarded so far (drop-tail on full VOQs, redirect overflow,
    /// and flows dropped by [`VoqBuffers::drop_flow`]).
    pub fn drops(&self) -> u64 {
        self.drops_total
    }

    /// Cells discarded at input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i.index() >= n`.
    pub fn drops_at_input(&self, i: InputPort) -> u64 {
        assert!(i.index() < self.n, "input {i} outside switch");
        self.drops_per_input[i.index()]
    }

    /// The flow-service discipline in force.
    pub fn discipline(&self) -> ServiceDiscipline {
        self.discipline
    }

    /// The switch radix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total queued cells across all inputs.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Returns `true` if no cell is queued.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Queued cells at input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i.index() >= n`.
    pub fn input_occupancy(&self, i: InputPort) -> usize {
        assert!(i.index() < self.n, "input {i} outside switch");
        self.per_input[i.index()]
    }

    /// The row-major index of pair `(i, j)` in `pairs`.
    ///
    /// # Panics
    ///
    /// Panics if either port is out of range.
    #[inline]
    // an2-lint: allow(panic-freedom) the range assert is the "# Panics" contract of every public per-pair method that calls this
    fn pair_index(&self, i: InputPort, j: OutputPort) -> usize {
        assert!(
            i.index() < self.n && j.index() < self.n,
            "pair ({i},{j}) outside switch"
        );
        debug_assert!(self.n <= PortSet::CAPACITY, "constructor bounds n");
        // an2-lint: allow(overflow-discipline) i, j < n <= PortSet::CAPACITY (asserted above), so i * n + j < n * n fits in usize
        i.index() * self.n + j.index()
    }

    /// Queued cells for the pair `(i, j)` across all its flows. O(1): the
    /// count is maintained incrementally by push/pop (it also backs the
    /// finite-capacity admission check).
    ///
    /// # Panics
    ///
    /// Panics if either port is out of range.
    pub fn pair_occupancy(&self, i: InputPort, j: OutputPort) -> usize {
        self.pairs[self.pair_index(i, j)].count
    }

    /// Total queued cells of one flow.
    pub fn flow_occupancy(&self, flow: FlowId) -> usize {
        self.index
            .get(&flow)
            .and_then(|&k| self.slab.get(k as usize))
            .map_or(0, |s| s.cells.len())
    }

    /// Walks pair `p`'s eligible list for the flow whose head cell was
    /// pushed first. Returns `(predecessor, flow)` slab indices, either of
    /// which is [`NIL`] (no predecessor: the flow heads the list; no flow:
    /// the list is empty).
    fn oldest_eligible(&self, p: usize) -> (u32, u32) {
        let mut best = (NIL, NIL, u64::MAX);
        let (mut prev, mut k) = (NIL, self.pairs[p].head);
        while k != NIL {
            let s = &self.slab[k as usize];
            if let Some(&(seq, _)) = s.cells.front() {
                if seq < best.2 {
                    best = (prev, k, seq);
                }
            }
            prev = k;
            k = s.next;
        }
        (best.0, best.1)
    }

    /// The predecessor of flow `k` in pair `p`'s eligible list (`Some(NIL)`
    /// when `k` heads it), or `None` if `k` is not listed.
    fn find_eligible(&self, p: usize, k: u32) -> Option<u32> {
        let (mut prev, mut at) = (NIL, self.pairs[p].head);
        while at != NIL {
            if at == k {
                return Some(prev);
            }
            prev = at;
            at = self.slab[at as usize].next;
        }
        None
    }

    /// Appends flow `k` to the back of pair `p`'s eligible list.
    #[inline]
    // an2-lint: allow(panic-freedom) p < n * n and k, tail are live slab indices < slab.len()
    fn link_back(&mut self, p: usize, k: u32) {
        self.slab[k as usize].next = NIL;
        let tail = self.pairs[p].tail;
        if tail == NIL {
            self.pairs[p].head = k;
        } else {
            self.slab[tail as usize].next = k;
        }
        self.pairs[p].tail = k;
    }

    /// Removes flow `k`, whose predecessor in pair `p`'s eligible list is
    /// `prev` ([`NIL`] if `k` is the head), keeping the others' order.
    #[inline]
    fn unlink(&mut self, p: usize, prev: u32, k: u32) {
        let next = self.slab[k as usize].next;
        if prev == NIL {
            self.pairs[p].head = next;
        } else {
            self.slab[prev as usize].next = next;
        }
        if self.pairs[p].tail == k {
            self.pairs[p].tail = prev;
        }
    }

    /// The slab index of `flow`, pushed on pair `p` towards output `j`:
    /// the pair's last-flow cache when it still names this live flow on
    /// this output, else the intern map.
    #[inline]
    // an2-lint: allow(panic-freedom) p < n * n (the caller validated both ports)
    fn flow_slot(&mut self, p: usize, flow: FlowId, j: OutputPort) -> u32 {
        let k = self.pairs[p].last;
        if let Some(s) = self.slab.get(k as usize) {
            if s.id == flow && s.live && s.output == j {
                return k;
            }
        }
        self.lookup_flow(p, flow, j)
    }

    /// The cache-miss half of [`VoqBuffers::flow_slot`]: one hash lookup,
    /// interning the flow if it is new, then the route-pin check.
    ///
    /// # Panics
    ///
    /// Panics if the flow is pinned to an output other than `j`.
    #[inline(never)]
    // an2-lint: allow(panic-freedom) the pin assert is push's documented "# Panics" contract; k is a live slab index and p < n * n
    fn lookup_flow(&mut self, p: usize, flow: FlowId, j: OutputPort) -> u32 {
        let k = match self.index.get(&flow) {
            Some(&k) => k,
            None => self.intern(flow, j),
        };
        let pinned = self.slab[k as usize].output;
        assert_eq!(
            pinned, j,
            "flow {flow} changed output ({pinned} -> {j}); flows are route-pinned"
        );
        self.pairs[p].last = k;
        k
    }

    /// Gives a new flow a slab slot — a released one if any — pinned to
    /// `output`, and records it in the intern map.
    ///
    /// # Panics
    ///
    /// Panics if the slab would need more than `u32::MAX - 1` slots.
    // an2-lint: cold
    #[cold]
    fn intern(&mut self, flow: FlowId, output: OutputPort) -> u32 {
        let k = if let Some(k) = self.free.pop() {
            let s = &mut self.slab[k as usize];
            debug_assert!(!s.live && s.cells.is_empty());
            s.id = flow;
            s.output = output;
            s.live = true;
            k
        } else {
            let k = u32::try_from(self.slab.len())
                .ok()
                .filter(|&k| k != NIL)
                .expect("flow slab exceeds u32 indices");
            self.slab.push(FlowSlot {
                id: flow,
                output,
                live: true,
                next: NIL,
                cells: VecDeque::new(),
            });
            k
        };
        self.index.insert(flow, k);
        k
    }

    /// Enqueues an arrived cell, or drops it (drop-tail) if the pair's VOQ
    /// is at its configured capacity.
    ///
    /// A drop rejects the *arriving* cell only: queued cells, flow head
    /// cells, and eligibility lists are untouched, so pair heads and
    /// in-flow FIFO order stay valid across drops. The flow is still pinned to the cell's output.
    ///
    /// # Panics
    ///
    /// Panics if the cell's ports are out of range, or if its flow was
    /// previously seen with a different output (flows are route-pinned;
    /// reroute via [`VoqBuffers::redirect_flow`]).
    // an2-lint: allow(panic-freedom) pair_index validated both ports, so p < n * n and i < n; k is a live slab index from flow_slot
    pub fn push(&mut self, cell: Cell) -> PushOutcome {
        let i = cell.input.index();
        let p = self.pair_index(cell.input, cell.output);
        let k = self.flow_slot(p, cell.flow, cell.output);
        if let Some(cap) = self.capacity {
            if self.pairs[p].count >= cap {
                self.drops_total = self.drops_total.wrapping_add(1);
                self.drops_per_input[i] = self.drops_per_input[i].wrapping_add(1);
                return PushOutcome::Dropped;
            }
        }
        let cells = &mut self.slab[k as usize].cells;
        let newly_eligible = cells.is_empty();
        // an2-lint: allow(alloc-in-hot-path) amortized deque growth, bounded by the flow's queued cells
        cells.push_back((self.next_seq, cell));
        if newly_eligible {
            self.link_back(p, k);
            self.requests.set(cell.input, cell.output);
        }
        self.next_seq = self.next_seq.wrapping_add(1);
        self.total = self.total.wrapping_add(1);
        self.per_input[i] = self.per_input[i].wrapping_add(1);
        self.pairs[p].count = self.pairs[p].count.wrapping_add(1);
        PushOutcome::Admitted
    }

    /// Dequeues the next cell for the pair `(i, j)`, choosing among its
    /// eligible flows per the configured [`ServiceDiscipline`] and
    /// preserving FIFO order within the chosen flow.
    ///
    /// Returns `None` if no flow of the pair has a queued cell.
    ///
    /// # Panics
    ///
    /// Panics if either port index is `>= n`.
    pub fn pop(&mut self, i: InputPort, j: OutputPort) -> Option<Cell> {
        let p = self.pair_index(i, j);
        let (prev, k) = match self.discipline {
            ServiceDiscipline::RoundRobin => (NIL, self.pairs[p].head),
            ServiceDiscipline::Fifo => self.oldest_eligible(p),
        };
        let slot = self.slab.get_mut(k as usize)?;
        let (_, cell) = slot.cells.pop_front()?;
        if slot.cells.is_empty() {
            self.unlink(p, prev, k);
            if self.pairs[p].head == NIL {
                // The pair's last eligible flow drained; retract its request.
                self.requests.clear(i, j);
            }
        } else if self.pairs[p].tail != k {
            // The flow rejoins at the back (round-robin rotation; harmless
            // under Fifo, which ignores list order). Already the tail, as
            // a pair's only flow is, it stays put.
            self.unlink(p, prev, k);
            self.link_back(p, k);
        }
        self.total -= 1;
        self.per_input[i.index()] -= 1;
        self.pairs[p].count -= 1;
        Some(cell)
    }

    /// Re-pins `flow` to `new_output`, moving its queued cells to the new
    /// pair's VOQ and rewriting their output. Used by network-level
    /// recovery when a link failure reroutes a flow mid-stream.
    ///
    /// If the new pair's VOQ lacks room under the configured capacity, the
    /// flow's *newest* cells are discarded (drop-tail, counted as drops)
    /// until it fits. Returns the number of cells discarded.
    ///
    /// # Panics
    ///
    /// Panics if `new_output.index() >= n`.
    pub fn redirect_flow(&mut self, flow: FlowId, new_output: OutputPort) -> usize {
        assert!(
            new_output.index() < self.n,
            "output {new_output} outside switch"
        );
        let Some(&k) = self.index.get(&flow) else {
            // Unknown flow: pin it so future cells take the new route.
            self.intern(flow, new_output);
            return 0;
        };
        let slot = &mut self.slab[k as usize];
        let old_output = slot.output;
        if old_output == new_output {
            return 0;
        }
        slot.output = new_output;
        let Some(&(_, head)) = slot.cells.front() else {
            return 0;
        };
        let i = head.input;
        let count = slot.cells.len();
        let (op, np) = (
            self.pair_index(i, old_output),
            self.pair_index(i, new_output),
        );
        if let Some(prev) = self.find_eligible(op, k) {
            self.unlink(op, prev, k);
            if self.pairs[op].head == NIL {
                self.requests.clear(i, old_output);
            }
        }
        self.pairs[op].count -= count;
        let room = self
            .capacity
            .map_or(usize::MAX, |cap| cap.saturating_sub(self.pairs[np].count));
        let kept = count.min(room);
        let dropped = count - kept;
        let cells = &mut self.slab[k as usize].cells;
        cells.truncate(kept);
        for (_, cell) in cells.iter_mut() {
            cell.output = new_output;
        }
        self.pairs[np].count += kept;
        self.total -= dropped;
        self.per_input[i.index()] -= dropped;
        self.drops_total += dropped as u64;
        self.drops_per_input[i.index()] += dropped as u64;
        if kept > 0 {
            self.link_back(np, k);
            self.requests.set(i, new_output);
        }
        dropped
    }

    /// Discards every queued cell of `flow` and forgets its route pin.
    /// Used by network-level recovery for flows stranded by a failure with
    /// no surviving path through this switch. Returns the number of cells
    /// discarded (all counted as drops).
    ///
    /// The flow's slab slot goes back to the free list for the next new
    /// flow.
    pub fn drop_flow(&mut self, flow: FlowId) -> usize {
        let Some(k) = self.index.remove(&flow) else {
            return 0;
        };
        let count = self.slab[k as usize].cells.len();
        if let Some(&(_, head)) = self.slab[k as usize].cells.front() {
            let (i, j) = (head.input, head.output);
            let p = self.pair_index(i, j);
            if let Some(prev) = self.find_eligible(p, k) {
                self.unlink(p, prev, k);
                if self.pairs[p].head == NIL {
                    self.requests.clear(i, j);
                }
            }
            self.pairs[p].count -= count;
            self.total -= count;
            self.per_input[i.index()] -= count;
            self.drops_total += count as u64;
            self.drops_per_input[i.index()] += count as u64;
        }
        let slot = &mut self.slab[k as usize];
        slot.cells.clear();
        slot.live = false;
        slot.next = NIL;
        self.free.push(k);
        count
    }

    /// The request matrix for the next slot: pair `(i, j)` requests iff it
    /// has at least one eligible flow. Maintained incrementally by
    /// `push`/`pop`, so this is a borrow, not a rebuild.
    pub fn requests(&self) -> &RequestMatrix {
        &self.requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Arrival;

    fn cell(n: usize, i: usize, j: usize, slot: u64) -> Cell {
        Arrival::pair(n, InputPort::new(i), OutputPort::new(j)).into_cell(slot)
    }

    fn flow_cell(flow: u64, i: usize, j: usize, slot: u64) -> Cell {
        Cell {
            flow: FlowId(flow),
            input: InputPort::new(i),
            output: OutputPort::new(j),
            arrival_slot: slot,
        }
    }

    fn push_ok(voq: &mut VoqBuffers, cell: Cell) {
        assert_eq!(voq.push(cell), PushOutcome::Admitted);
    }

    #[test]
    fn fifo_within_flow() {
        let mut voq = VoqBuffers::new(4);
        for s in 0..5 {
            push_ok(&mut voq, cell(4, 1, 2, s));
        }
        for s in 0..5 {
            let c = voq.pop(InputPort::new(1), OutputPort::new(2)).unwrap();
            assert_eq!(c.arrival_slot, s);
        }
        assert!(voq.pop(InputPort::new(1), OutputPort::new(2)).is_none());
    }

    #[test]
    fn round_robin_between_flows_of_a_pair() {
        let mut voq = VoqBuffers::new(4);
        // Two flows on pair (0, 1), three cells each.
        for s in 0..3 {
            push_ok(&mut voq, flow_cell(100, 0, 1, s));
            push_ok(&mut voq, flow_cell(200, 0, 1, s));
        }
        let order: Vec<u64> = (0..6)
            .map(|_| {
                voq.pop(InputPort::new(0), OutputPort::new(1))
                    .unwrap()
                    .flow
                    .0
            })
            .collect();
        assert_eq!(order, vec![100, 200, 100, 200, 100, 200]);
    }

    #[test]
    fn requests_reflect_eligibility() {
        let mut voq = VoqBuffers::new(4);
        push_ok(&mut voq, cell(4, 0, 3, 0));
        push_ok(&mut voq, cell(4, 2, 1, 0));
        let reqs = voq.requests();
        assert_eq!(reqs.len(), 2);
        assert!(reqs.has(InputPort::new(0), OutputPort::new(3)));
        assert!(reqs.has(InputPort::new(2), OutputPort::new(1)));
        voq.pop(InputPort::new(0), OutputPort::new(3)).unwrap();
        assert_eq!(voq.requests().len(), 1);
    }

    #[test]
    fn occupancy_accounting() {
        let mut voq = VoqBuffers::new(4);
        push_ok(&mut voq, cell(4, 0, 1, 0));
        push_ok(&mut voq, cell(4, 0, 2, 1));
        push_ok(&mut voq, cell(4, 3, 1, 1));
        assert_eq!(voq.len(), 3);
        assert_eq!(voq.input_occupancy(InputPort::new(0)), 2);
        assert_eq!(voq.pair_occupancy(InputPort::new(0), OutputPort::new(2)), 1);
        voq.pop(InputPort::new(0), OutputPort::new(1)).unwrap();
        assert_eq!(voq.len(), 2);
        assert_eq!(voq.input_occupancy(InputPort::new(0)), 1);
        assert!(!voq.is_empty());
    }

    #[test]
    fn fifo_discipline_serves_across_flows_in_arrival_order() {
        let mut voq = VoqBuffers::with_discipline(4, ServiceDiscipline::Fifo);
        assert_eq!(voq.discipline(), ServiceDiscipline::Fifo);
        // Flow 100 queues two cells, then flow 200 queues two, all on the
        // same pair: FIFO service yields 100,100,200,200 (round-robin
        // would interleave).
        for s in 0..2 {
            push_ok(&mut voq, flow_cell(100, 0, 1, s));
        }
        for s in 2..4 {
            push_ok(&mut voq, flow_cell(200, 0, 1, s));
        }
        let order: Vec<u64> = (0..4)
            .map(|_| {
                voq.pop(InputPort::new(0), OutputPort::new(1))
                    .unwrap()
                    .flow
                    .0
            })
            .collect();
        assert_eq!(order, vec![100, 100, 200, 200]);
        assert_eq!(voq.flow_occupancy(FlowId(100)), 0);
    }

    #[test]
    #[should_panic(expected = "route-pinned")]
    fn flow_changing_output_panics() {
        let mut voq = VoqBuffers::new(4);
        push_ok(&mut voq, flow_cell(7, 0, 1, 0));
        push_ok(&mut voq, flow_cell(7, 0, 2, 1));
    }

    #[test]
    fn empty_pair_pop_is_none() {
        let mut voq = VoqBuffers::new(2);
        assert!(voq.pop(InputPort::new(0), OutputPort::new(0)).is_none());
    }

    #[test]
    fn finite_capacity_drops_tail_and_counts() {
        let mut voq = VoqBuffers::new(4);
        voq.set_pair_capacity(Some(2));
        assert_eq!(voq.pair_capacity(), Some(2));
        push_ok(&mut voq, cell(4, 1, 2, 0));
        push_ok(&mut voq, cell(4, 1, 2, 1));
        assert_eq!(voq.push(cell(4, 1, 2, 2)), PushOutcome::Dropped);
        assert_eq!(voq.len(), 2);
        assert_eq!(voq.drops(), 1);
        assert_eq!(voq.drops_at_input(InputPort::new(1)), 1);
        assert_eq!(voq.drops_at_input(InputPort::new(0)), 0);
        // The queued cells are the two oldest: drop-tail rejected the
        // newest arrival, preserving in-flow FIFO order.
        let a = voq.pop(InputPort::new(1), OutputPort::new(2)).unwrap();
        let b = voq.pop(InputPort::new(1), OutputPort::new(2)).unwrap();
        assert_eq!((a.arrival_slot, b.arrival_slot), (0, 1));
        // Draining frees capacity for new arrivals.
        push_ok(&mut voq, cell(4, 1, 2, 9));
    }

    #[test]
    fn capacity_is_per_pair_not_global() {
        let mut voq = VoqBuffers::new(4);
        voq.set_pair_capacity(Some(1));
        push_ok(&mut voq, cell(4, 0, 1, 0));
        // A different pair of the same input still has room.
        push_ok(&mut voq, cell(4, 0, 2, 0));
        assert_eq!(voq.push(cell(4, 0, 1, 1)), PushOutcome::Dropped);
    }

    #[test]
    fn redirect_flow_moves_cells_and_requests() {
        let mut voq = VoqBuffers::new(4);
        for s in 0..3 {
            push_ok(&mut voq, flow_cell(9, 0, 1, s));
        }
        let dropped = voq.redirect_flow(FlowId(9), OutputPort::new(3));
        assert_eq!(dropped, 0);
        assert_eq!(voq.pair_occupancy(InputPort::new(0), OutputPort::new(1)), 0);
        assert_eq!(voq.pair_occupancy(InputPort::new(0), OutputPort::new(3)), 3);
        assert!(!voq.requests().has(InputPort::new(0), OutputPort::new(1)));
        assert!(voq.requests().has(InputPort::new(0), OutputPort::new(3)));
        // Cells come out of the new pair, rewritten and in order.
        for s in 0..3 {
            let c = voq.pop(InputPort::new(0), OutputPort::new(3)).unwrap();
            assert_eq!(c.arrival_slot, s);
            assert_eq!(c.output, OutputPort::new(3));
        }
        // The pin moved: pushing on the new route is accepted...
        push_ok(&mut voq, flow_cell(9, 0, 3, 9));
    }

    #[test]
    #[should_panic(expected = "route-pinned")]
    fn redirect_flow_repins_old_route_rejected() {
        let mut voq = VoqBuffers::new(4);
        push_ok(&mut voq, flow_cell(9, 0, 1, 0));
        let _ = voq.redirect_flow(FlowId(9), OutputPort::new(3));
        let _ = voq.push(flow_cell(9, 0, 1, 1)); // old route now violates the pin
    }

    #[test]
    fn redirect_flow_respects_destination_capacity() {
        let mut voq = VoqBuffers::new(4);
        voq.set_pair_capacity(Some(2));
        // Fill pair (0,3) with another flow's cell; flow 9 holds 2 on (0,1).
        push_ok(&mut voq, flow_cell(5, 0, 3, 0));
        push_ok(&mut voq, flow_cell(9, 0, 1, 1));
        push_ok(&mut voq, flow_cell(9, 0, 1, 2));
        let dropped = voq.redirect_flow(FlowId(9), OutputPort::new(3));
        // Only one slot of room: the newest cell is discarded.
        assert_eq!(dropped, 1);
        assert_eq!(voq.drops(), 1);
        assert_eq!(voq.pair_occupancy(InputPort::new(0), OutputPort::new(3)), 2);
        assert_eq!(voq.len(), 2);
        let kept: Vec<u64> = (0..2)
            .map(|_| {
                voq.pop(InputPort::new(0), OutputPort::new(3))
                    .unwrap()
                    .arrival_slot
            })
            .collect();
        assert!(kept.contains(&1), "oldest redirected cell kept: {kept:?}");
    }

    #[test]
    fn drop_flow_discards_and_unpins() {
        let mut voq = VoqBuffers::new(4);
        for s in 0..4 {
            push_ok(&mut voq, flow_cell(7, 2, 1, s));
        }
        assert_eq!(voq.drop_flow(FlowId(7)), 4);
        assert!(voq.is_empty());
        assert_eq!(voq.drops(), 4);
        assert_eq!(voq.drops_at_input(InputPort::new(2)), 4);
        assert!(!voq.requests().has(InputPort::new(2), OutputPort::new(1)));
        assert!(voq.pop(InputPort::new(2), OutputPort::new(1)).is_none());
        // The pin is forgotten: the flow may reappear on a different route.
        push_ok(&mut voq, flow_cell(7, 2, 3, 9));
        // Dropping an unknown flow is a no-op.
        assert_eq!(voq.drop_flow(FlowId(999)), 0);
    }

    #[test]
    fn drop_flow_churn_reuses_slab_slots() {
        let mut voq = VoqBuffers::new(4);
        for f in 0..1000u64 {
            let (i, j) = ((f % 4) as usize, ((f / 4) % 4) as usize);
            push_ok(&mut voq, flow_cell(f, i, j, f));
            if f >= 8 {
                assert_eq!(voq.drop_flow(FlowId(f - 8)), 1);
            }
        }
        // At most nine flows were ever live at once (eight kept plus the
        // newest before its predecessor's drop), so the slab never grew
        // past nine slots although a thousand flows passed through.
        assert_eq!(voq.slab.len(), 9);
        assert_eq!(voq.index.len(), 8);
        assert_eq!(voq.len(), 8);
        assert_eq!(voq.drops(), 992);
    }

    #[test]
    fn last_flow_cache_never_resurrects_a_dropped_flow() {
        let mut voq = VoqBuffers::new(4);
        push_ok(&mut voq, flow_cell(7, 0, 1, 0));
        assert_eq!(voq.drop_flow(FlowId(7)), 1);
        // The pair's cache still names the released slot, which still
        // carries id 7: flow 7 must be interned afresh, not resurrected.
        push_ok(&mut voq, flow_cell(7, 0, 1, 1));
        assert_eq!(voq.flow_occupancy(FlowId(7)), 1);
        assert_eq!(voq.drop_flow(FlowId(7)), 1);
        // Flow 8 takes the released slot the cache names; flow 7, new
        // again, must miss the cache (the slot now holds 8).
        push_ok(&mut voq, flow_cell(8, 0, 1, 2));
        push_ok(&mut voq, flow_cell(7, 0, 1, 3));
        assert_eq!(voq.slab.len(), 2);
        assert_eq!(voq.flow_occupancy(FlowId(7)), 1);
        assert_eq!(voq.flow_occupancy(FlowId(8)), 1);
        let order: Vec<u64> = (0..2)
            .map(|_| {
                voq.pop(InputPort::new(0), OutputPort::new(1))
                    .unwrap()
                    .flow
                    .0
            })
            .collect();
        assert_eq!(order, vec![8, 7]);
    }
}
