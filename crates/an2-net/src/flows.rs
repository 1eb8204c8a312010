//! Per-flow input buffers for the network simulator, organized as the
//! paper describes (§3.3):
//!
//! > "Each flow has its own FIFO queue of buffered cells. A flow is
//! > *eligible* for scheduling if it has at least one cell queued. A list
//! > of eligible flows is kept for each input-output pair. If there is at
//! > least one eligible flow for a given input-output pair, the input
//! > requests the output during parallel iterative matching. If the
//! > request is granted, one of the eligible flows is chosen for
//! > scheduling in round-robin fashion."
//!
//! [`FlowQueues`] is that buffer for one switch of a
//! [`Network`](crate::netsim::Network). Each flow's cells sit in a
//! [`QueueSlab`] queue, and a pair's eligible flows form a list threaded
//! through the flow records. A pair's flows are served by round robin or,
//! for the paper's Figure 9 illustration, in arrival order
//! ([`ServiceDiscipline`]). A finite per-pair capacity drops arriving
//! cells at the tail. Flows are not pinned to an output: the caller takes
//! each cell's output from its routing table and moves or discards queued
//! cells when a route changes ([`FlowQueues::redirect_flow`],
//! [`FlowQueues::drop_flow`]). A caller that already looks the flow up in
//! its routing table can keep a [`FlowHint`] in the route entry, so an
//! arriving cell costs that one lookup ([`FlowQueues::push_hinted`]).

use an2_sched::det::DetHashMap;
use an2_sched::{InputPort, OutputPort, RequestMatrix};
use an2_sim::cell::{Cell, FlowId};
use an2_sim::slab::{QueueSlab, NO_QUEUE};

/// How [`FlowQueues::pop`] chooses among the eligible flows of one
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

/// Outcome of [`FlowQueues::push`]: a push to a pair at its capacity
/// drops the *arriving* cell (drop-tail).
#[must_use = "dropped cells must be accounted for by the caller"]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// The cell was queued.
    Admitted,
    /// The cell was discarded because its pair was full.
    Dropped,
}

/// Flow index meaning "no flow": the end of an eligible list and an
/// empty list's head and tail.
const NIL: u32 = u32::MAX;

/// [`Flow::pair`] of a record [`FlowQueues::drop_flow`] released: no pair
/// index reaches it, so a [`FlowHint`] to a released record fails its
/// check.
const RELEASED: u32 = u32::MAX;

/// A caller's cached index of one flow's record in a [`FlowQueues`], for
/// [`FlowQueues::push_hinted`]. It starts unset and is checked on every
/// use, so a stale hint (the flow was dropped, or the hint came from
/// another switch) costs only the lookup it would have saved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowHint(u32);

impl Default for FlowHint {
    fn default() -> Self {
        Self(NIL)
    }
}

/// One flow the switch has seen.
#[derive(Clone, Copy, Debug)]
struct Flow {
    id: FlowId,
    /// [`QueueSlab`] handle of the flow's queued cells, each a
    /// `[push sequence, arrival slot]` pair, or [`NO_QUEUE`].
    queue: u32,
    /// Row-major index of the pair the queued cells wait on (meaningful
    /// while the flow holds cells), or [`RELEASED`].
    pair: u32,
    /// The next flow in that pair's eligible list, or [`NIL`].
    next: u32,
}

/// One input–output pair: its eligible list and queued-cell count.
#[derive(Clone, Copy, Debug)]
struct Pair {
    /// First flow of the eligible list (round-robin order), or [`NIL`].
    head: u32,
    /// Last flow of the eligible list, or [`NIL`].
    tail: u32,
    /// Queued cells across the pair's flows.
    count: usize,
}

/// The input buffers of one network switch: a FIFO per flow, a list of
/// eligible flows per input–output pair, and the request matrix kept in
/// step with them.
///
/// # Examples
///
/// ```
/// use an2_net::flows::{FlowQueues, PushOutcome, ServiceDiscipline};
/// use an2_sched::{InputPort, OutputPort};
/// use an2_sim::cell::{Cell, FlowId};
///
/// let mut q = FlowQueues::new(4, ServiceDiscipline::RoundRobin);
/// let (i, j) = (InputPort::new(0), OutputPort::new(2));
/// for (flow, slot) in [(7, 0), (7, 1), (9, 2)] {
///     let cell = Cell { flow: FlowId(flow), input: i, output: j, arrival_slot: slot };
///     assert_eq!(q.push(cell), PushOutcome::Admitted);
/// }
/// // Round robin between the pair's two flows.
/// let order: Vec<u64> = (0..3).map(|_| q.pop(i, j).unwrap().flow.0).collect();
/// assert_eq!(order, [7, 9, 7]);
/// assert_eq!(q.len(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct FlowQueues {
    n: usize,
    discipline: ServiceDiscipline,
    /// Per-pair cell budget; `None` is unbounded.
    capacity: Option<usize>,
    /// Push counter; orders cells across flows for
    /// [`ServiceDiscipline::Fifo`].
    next_seq: u64,
    /// Flow id -> index in `flows` of every flow not dropped.
    index: DetHashMap<FlowId, u32>,
    flows: Vec<Flow>,
    /// Indices released by [`FlowQueues::drop_flow`], reused first.
    free: Vec<u32>,
    /// `pairs[i * n + j]`.
    pairs: Vec<Pair>,
    slab: QueueSlab<[u64; 2]>,
    /// Bit `(i, j)` is set iff pair `(i, j)` has an eligible flow.
    requests: RequestMatrix,
    queued: usize,
}

impl FlowQueues {
    /// Empty, unbounded buffers for an `n`-port switch.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or larger than a [`RequestMatrix`] holds.
    pub fn new(n: usize, discipline: ServiceDiscipline) -> Self {
        let empty = Pair {
            head: NIL,
            tail: NIL,
            count: 0,
        };
        Self {
            n,
            discipline,
            capacity: None,
            next_seq: 0,
            index: DetHashMap::default(),
            flows: Vec::new(),
            free: Vec::new(),
            pairs: vec![empty; n * n],
            slab: QueueSlab::with_capacity(n),
            requests: RequestMatrix::new(n),
            queued: 0,
        }
    }

    /// The switch radix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sets the per-pair cell budget; `None` is unbounded. Applies to
    /// later pushes: cells already queued above a lowered budget stay and
    /// drain.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
    }

    /// Whether every pair holds at most the budget. Vacuously true when
    /// unbounded; may be false right after the budget is lowered below a
    /// queue's depth.
    pub fn within_capacity(&self) -> bool {
        self.capacity
            .is_none_or(|cap| self.pairs.iter().all(|p| p.count <= cap))
    }

    /// Cells queued across all flows.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// Returns `true` if no cell is queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// The request matrix: pair `(i, j)` requests iff it has an eligible
    /// flow.
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
            outside_switch(i, j);
        }
        i.index() * self.n + j.index()
    }

    /// The ports of pair index `p`.
    fn ports(&self, p: usize) -> (InputPort, OutputPort) {
        (InputPort::new(p / self.n), OutputPort::new(p % self.n))
    }

    /// Enqueues `cell` on its flow's FIFO, or drops it (drop-tail) when
    /// the pair is at its budget. A flow's queued cells wait on one pair:
    /// the one its oldest queued cell named. Later cells join them there
    /// until the flow drains or is redirected.
    ///
    /// # Panics
    ///
    /// Panics if a port of the cell is outside the switch.
    pub fn push(&mut self, cell: Cell) -> PushOutcome {
        self.push_hinted(cell, &mut FlowHint::default())
    }

    /// [`FlowQueues::push`] with the flow's record index cached in `hint`:
    /// a hint that names the flow's record saves the flow-index lookup,
    /// any other is replaced by the looked-up index.
    ///
    /// # Panics
    ///
    /// Panics if a port of the cell is outside the switch.
    // an2-lint: allow(panic-freedom) pair() checked both ports, so p < n * n = pairs.len(); k is a checked hint or comes from the index or intern(), so k < flows.len()
    pub fn push_hinted(&mut self, cell: Cell, hint: &mut FlowHint) -> PushOutcome {
        let mut p = self.pair(cell.input, cell.output);
        let named = |f: &Flow| f.id == cell.flow && f.pair != RELEASED;
        if !self.flows.get(hint.0 as usize).is_some_and(named) {
            hint.0 = match self.index.get(&cell.flow) {
                Some(&k) => k,
                None => self.intern(cell.flow),
            };
        }
        let k = hint.0;
        let flow = &mut self.flows[k as usize];
        if flow.queue != NO_QUEUE {
            p = flow.pair as usize;
        }
        if self.capacity.is_some_and(|cap| self.pairs[p].count >= cap) {
            return PushOutcome::Dropped;
        }
        if self
            .slab
            .admit(&mut flow.queue, [self.next_seq, cell.arrival_slot])
        {
            flow.pair = p as u32;
            self.link_back(p, k);
            let (i, j) = self.ports(p);
            self.requests.set(i, j);
        }
        self.next_seq = self.next_seq.wrapping_add(1);
        self.pairs[p].count = self.pairs[p].count.wrapping_add(1);
        self.queued = self.queued.wrapping_add(1);
        PushOutcome::Admitted
    }

    /// Dequeues the next cell of pair `(i, j)`, choosing among its
    /// eligible flows by the discipline, or `None` if none is eligible.
    ///
    /// # Panics
    ///
    /// Panics if either port is outside the switch.
    // an2-lint: allow(panic-freedom) pair() checked both ports, so p < n * n = pairs.len()
    pub fn pop(&mut self, i: InputPort, j: OutputPort) -> Option<Cell> {
        let p = self.pair(i, j);
        let (prev, k) = match self.discipline {
            ServiceDiscipline::RoundRobin => (NIL, self.pairs[p].head),
            ServiceDiscipline::Fifo => self.oldest(p),
        };
        let flow = self.flows.get_mut(k as usize)?;
        let ([_, arrival_slot], drained) = self.slab.serve(&mut flow.queue);
        let id = flow.id;
        if drained {
            self.unlink(p, prev, k);
            if self.pairs[p].head == NIL {
                self.requests.clear(i, j);
            }
        } else if self.pairs[p].tail != k {
            // The flow rejoins at the back (round-robin rotation; harmless
            // under Fifo, which ignores list order).
            self.unlink(p, prev, k);
            self.link_back(p, k);
        }
        self.pairs[p].count = self.pairs[p].count.wrapping_sub(1);
        self.queued = self.queued.wrapping_sub(1);
        Some(Cell {
            flow: id,
            input: i,
            output: j,
            arrival_slot,
        })
    }

    /// Moves `flow`'s queued cells to output `new_output` of the same
    /// input, after the flow's route changed. If the new pair lacks room
    /// under the budget, the flow's *newest* cells are discarded until the
    /// rest fit. Returns the number discarded.
    ///
    /// # Panics
    ///
    /// Panics if `new_output` is outside the switch.
    pub fn redirect_flow(&mut self, flow: FlowId, new_output: OutputPort) -> usize {
        assert!(
            new_output.index() < self.n,
            "output {new_output} outside switch"
        );
        let Some(&k) = self.index.get(&flow) else {
            return 0;
        };
        let f = self.flows[k as usize];
        let (i, old_output) = self.ports(f.pair as usize);
        if f.queue == NO_QUEUE || old_output == new_output {
            return 0;
        }
        let count = self.detach(k);
        let np = self.pair(i, new_output);
        let room = self
            .capacity
            .map_or(usize::MAX, |cap| cap.saturating_sub(self.pairs[np].count));
        let kept = count.min(room);
        let f = &mut self.flows[k as usize];
        self.slab.truncate(&mut f.queue, kept as u32);
        f.pair = np as u32;
        if kept > 0 {
            self.pairs[np].count += kept;
            self.link_back(np, k);
            self.requests.set(i, new_output);
        }
        self.queued -= count - kept;
        count - kept
    }

    /// Discards every queued cell of `flow` and forgets the flow. Returns
    /// the number discarded.
    pub fn drop_flow(&mut self, flow: FlowId) -> usize {
        let Some(k) = self.index.remove(&flow) else {
            return 0;
        };
        let count = self.detach(k);
        let f = &mut self.flows[k as usize];
        self.slab.truncate(&mut f.queue, 0);
        f.pair = RELEASED;
        self.free.push(k);
        self.queued -= count;
        count
    }

    /// Gives a new flow a record (a released one if any) and indexes it.
    ///
    /// # Panics
    ///
    /// Panics if the table would need more than `u32::MAX - 1` records.
    // an2-lint: cold
    #[cold]
    fn intern(&mut self, id: FlowId) -> u32 {
        let flow = Flow {
            id,
            queue: NO_QUEUE,
            pair: 0,
            next: NIL,
        };
        let k = match self.free.pop() {
            Some(k) => {
                self.flows[k as usize] = flow;
                k
            }
            None => {
                self.flows.push(flow);
                u32::try_from(self.flows.len() - 1)
                    .ok()
                    .filter(|&k| k != NIL)
                    .expect("flow table exceeds u32 indices")
            }
        };
        self.index.insert(id, k);
        k
    }

    /// Takes flow `k`'s queued cells off their pair: unlinks the flow from
    /// the pair's eligible list, retracts the pair's request if no flow is
    /// left, and uncounts the cells, which stay in the flow's queue.
    /// Returns their number.
    fn detach(&mut self, k: u32) -> usize {
        let f = self.flows[k as usize];
        let depth = self
            .slab
            .peek(f.queue)
            .map_or(0, |(depth, _)| depth as usize);
        if depth == 0 {
            return 0;
        }
        let p = f.pair as usize;
        let (mut prev, mut at) = (NIL, self.pairs[p].head);
        while at != k {
            prev = at;
            at = self.flows[at as usize].next;
        }
        self.unlink(p, prev, k);
        if self.pairs[p].head == NIL {
            let (i, j) = self.ports(p);
            self.requests.clear(i, j);
        }
        self.pairs[p].count -= depth;
        depth
    }

    /// Walks pair `p`'s eligible list for the flow whose head cell was
    /// pushed first. Returns `(predecessor, flow)`; either is [`NIL`] (no
    /// predecessor: the flow heads the list; no flow: the list is empty).
    // an2-lint: allow(panic-freedom) p < n * n = pairs.len() (the caller checked its ports) and a listed flow index is < flows.len()
    fn oldest(&self, p: usize) -> (u32, u32) {
        let mut best = (NIL, NIL, u64::MAX);
        let (mut prev, mut k) = (NIL, self.pairs[p].head);
        while k != NIL {
            let f = &self.flows[k as usize];
            if let Some((_, [seq, _])) = self.slab.peek(f.queue) {
                if seq < best.2 {
                    best = (prev, k, seq);
                }
            }
            prev = k;
            k = f.next;
        }
        (best.0, best.1)
    }

    /// Appends flow `k` to the back of pair `p`'s eligible list.
    // an2-lint: allow(panic-freedom) p < n * n = pairs.len() (the caller checked its ports); k and a list's tail are flow indices < flows.len()
    fn link_back(&mut self, p: usize, k: u32) {
        self.flows[k as usize].next = NIL;
        match self.pairs[p].tail {
            NIL => self.pairs[p].head = k,
            tail => self.flows[tail as usize].next = k,
        }
        self.pairs[p].tail = k;
    }

    /// Removes flow `k`, whose predecessor in pair `p`'s eligible list is
    /// `prev` ([`NIL`] if `k` heads it), keeping the others' order.
    // an2-lint: allow(panic-freedom) p < n * n = pairs.len() (the caller checked its ports); k and prev are listed flow indices < flows.len()
    fn unlink(&mut self, p: usize, prev: u32, k: u32) {
        let next = self.flows[k as usize].next;
        match prev {
            NIL => self.pairs[p].head = next,
            prev => self.flows[prev as usize].next = next,
        }
        if self.pairs[p].tail == k {
            self.pairs[p].tail = prev;
        }
    }
}

/// Panics for a pair outside the switch, the documented contract of every
/// per-pair method.
// an2-lint: cold
#[cold]
fn outside_switch(i: InputPort, j: OutputPort) -> ! {
    panic!("pair ({i},{j}) outside switch")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(flow: u64, i: usize, j: usize, slot: u64) -> Cell {
        Cell {
            flow: FlowId(flow),
            input: InputPort::new(i),
            output: OutputPort::new(j),
            arrival_slot: slot,
        }
    }

    /// Cells counted on pair `(i, j)`.
    fn depth(q: &FlowQueues, i: usize, j: usize) -> usize {
        q.pairs[i * q.n + j].count
    }

    fn push_ok(q: &mut FlowQueues, c: Cell) {
        assert_eq!(q.push(c), PushOutcome::Admitted);
    }

    /// Pops `count` cells of pair `(i, j)`, returning their flow ids.
    fn pop_flows(q: &mut FlowQueues, i: usize, j: usize, count: usize) -> Vec<u64> {
        (0..count)
            .map(|_| q.pop(InputPort::new(i), OutputPort::new(j)).unwrap().flow.0)
            .collect()
    }

    fn round_robin(n: usize) -> FlowQueues {
        FlowQueues::new(n, ServiceDiscipline::RoundRobin)
    }

    #[test]
    fn fifo_within_flow() {
        let mut q = round_robin(4);
        for s in 0..5 {
            push_ok(&mut q, cell(6, 1, 2, s));
        }
        for s in 0..5 {
            let c = q.pop(InputPort::new(1), OutputPort::new(2)).unwrap();
            assert_eq!(c, cell(6, 1, 2, s));
        }
        assert!(q.pop(InputPort::new(1), OutputPort::new(2)).is_none());
    }

    #[test]
    fn round_robin_between_flows_of_a_pair() {
        let mut q = round_robin(4);
        for s in 0..3 {
            push_ok(&mut q, cell(100, 0, 1, s));
            push_ok(&mut q, cell(200, 0, 1, s));
        }
        assert_eq!(pop_flows(&mut q, 0, 1, 6), [100, 200, 100, 200, 100, 200]);
    }

    #[test]
    fn requests_reflect_eligibility() {
        let mut q = round_robin(4);
        push_ok(&mut q, cell(3, 0, 3, 0));
        push_ok(&mut q, cell(9, 2, 1, 0));
        let reqs = q.requests();
        assert_eq!(reqs.len(), 2);
        assert!(reqs.has(InputPort::new(0), OutputPort::new(3)));
        assert!(reqs.has(InputPort::new(2), OutputPort::new(1)));
        q.pop(InputPort::new(0), OutputPort::new(3)).unwrap();
        assert_eq!(q.requests().len(), 1);
    }

    #[test]
    fn occupancy_accounting() {
        let mut q = round_robin(4);
        push_ok(&mut q, cell(1, 0, 1, 0));
        push_ok(&mut q, cell(2, 0, 2, 1));
        push_ok(&mut q, cell(13, 3, 1, 1));
        assert_eq!(q.len(), 3);
        assert_eq!(depth(&q, 0, 2), 1);
        q.pop(InputPort::new(0), OutputPort::new(1)).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(depth(&q, 0, 1), 0);
        assert!(!q.is_empty());
    }

    #[test]
    fn fifo_discipline_serves_across_flows_in_arrival_order() {
        let mut q = FlowQueues::new(4, ServiceDiscipline::Fifo);
        // Flow 100 queues two cells, then flow 200 two, all on one pair:
        // FIFO service yields 100,100,200,200 (round robin interleaves).
        for s in 0..2 {
            push_ok(&mut q, cell(100, 0, 1, s));
        }
        for s in 2..4 {
            push_ok(&mut q, cell(200, 0, 1, s));
        }
        assert_eq!(pop_flows(&mut q, 0, 1, 4), [100, 100, 200, 200]);
        assert!(q.is_empty());
    }

    #[test]
    fn a_flows_later_cells_join_its_queued_pair() {
        // Flows are not pinned: while flow 7 holds cells on (0, 1), a cell
        // naming output 2 joins them there; once drained, it may go
        // anywhere.
        let mut q = round_robin(4);
        push_ok(&mut q, cell(7, 0, 1, 0));
        push_ok(&mut q, cell(7, 0, 2, 1));
        assert_eq!(depth(&q, 0, 1), 2);
        assert!(!q.requests().has(InputPort::new(0), OutputPort::new(2)));
        assert_eq!(pop_flows(&mut q, 0, 1, 2), [7, 7]);
        push_ok(&mut q, cell(7, 0, 2, 2));
        assert_eq!(
            q.pop(InputPort::new(0), OutputPort::new(2)),
            Some(cell(7, 0, 2, 2))
        );
    }

    #[test]
    fn empty_pair_pop_is_none() {
        let mut q = round_robin(2);
        assert!(q.pop(InputPort::new(0), OutputPort::new(0)).is_none());
    }

    #[test]
    fn finite_capacity_drops_tail() {
        let mut q = round_robin(4);
        q.set_capacity(Some(2));
        push_ok(&mut q, cell(6, 1, 2, 0));
        push_ok(&mut q, cell(6, 1, 2, 1));
        assert_eq!(q.push(cell(6, 1, 2, 2)), PushOutcome::Dropped);
        assert_eq!(q.len(), 2);
        assert!(q.within_capacity());
        // The queued cells are the two oldest: drop-tail refused the
        // newest arrival, keeping in-flow FIFO order.
        let a = q.pop(InputPort::new(1), OutputPort::new(2)).unwrap();
        let b = q.pop(InputPort::new(1), OutputPort::new(2)).unwrap();
        assert_eq!((a.arrival_slot, b.arrival_slot), (0, 1));
        // Draining frees room for new arrivals.
        push_ok(&mut q, cell(6, 1, 2, 9));
        // A lowered budget keeps what is queued, and says so.
        push_ok(&mut q, cell(6, 1, 2, 10));
        q.set_capacity(Some(1));
        assert!(!q.within_capacity());
    }

    #[test]
    fn capacity_is_per_pair_not_global() {
        let mut q = round_robin(4);
        q.set_capacity(Some(1));
        push_ok(&mut q, cell(1, 0, 1, 0));
        // A different pair of the same input still has room.
        push_ok(&mut q, cell(2, 0, 2, 0));
        assert_eq!(q.push(cell(1, 0, 1, 1)), PushOutcome::Dropped);
    }

    #[test]
    fn redirect_flow_moves_cells_and_requests() {
        let mut q = round_robin(4);
        for s in 0..3 {
            push_ok(&mut q, cell(9, 0, 1, s));
        }
        assert_eq!(q.redirect_flow(FlowId(9), OutputPort::new(3)), 0);
        assert_eq!(depth(&q, 0, 1), 0);
        assert_eq!(depth(&q, 0, 3), 3);
        assert!(!q.requests().has(InputPort::new(0), OutputPort::new(1)));
        assert!(q.requests().has(InputPort::new(0), OutputPort::new(3)));
        // Cells come out of the new pair, rewritten and in order.
        for s in 0..3 {
            let c = q.pop(InputPort::new(0), OutputPort::new(3)).unwrap();
            assert_eq!(c, cell(9, 0, 3, s));
        }
        // Redirecting an unknown or empty flow moves nothing.
        assert_eq!(q.redirect_flow(FlowId(9), OutputPort::new(0)), 0);
        assert_eq!(q.redirect_flow(FlowId(99), OutputPort::new(0)), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn redirect_flow_keeps_the_oldest_cells_that_fit() {
        let mut q = round_robin(4);
        q.set_capacity(Some(2));
        // Pair (0, 3) holds another flow's cell; flow 9 holds 2 on (0, 1).
        push_ok(&mut q, cell(5, 0, 3, 0));
        push_ok(&mut q, cell(9, 0, 1, 1));
        push_ok(&mut q, cell(9, 0, 1, 2));
        // One cell of room: the newest is discarded.
        assert_eq!(q.redirect_flow(FlowId(9), OutputPort::new(3)), 1);
        assert_eq!(depth(&q, 0, 3), 2);
        assert_eq!(q.len(), 2);
        let kept: Vec<Cell> = (0..2)
            .map(|_| q.pop(InputPort::new(0), OutputPort::new(3)).unwrap())
            .collect();
        assert_eq!(kept, [cell(5, 0, 3, 0), cell(9, 0, 3, 1)]);
    }

    #[test]
    fn drop_flow_discards_and_forgets() {
        let mut q = round_robin(4);
        for s in 0..4 {
            push_ok(&mut q, cell(7, 2, 1, s));
        }
        assert_eq!(q.drop_flow(FlowId(7)), 4);
        assert!(q.is_empty());
        assert!(!q.requests().has(InputPort::new(2), OutputPort::new(1)));
        assert!(q.pop(InputPort::new(2), OutputPort::new(1)).is_none());
        // The flow may reappear on a different route.
        push_ok(&mut q, cell(7, 2, 3, 9));
        // Dropping an unknown flow is a no-op.
        assert_eq!(q.drop_flow(FlowId(999)), 0);
    }

    #[test]
    fn drop_flow_churn_reuses_flow_records() {
        let mut q = round_robin(4);
        for f in 0..1000u64 {
            let (i, j) = ((f % 4) as usize, ((f / 4) % 4) as usize);
            push_ok(&mut q, cell(f, i, j, f));
            if f >= 8 {
                assert_eq!(q.drop_flow(FlowId(f - 8)), 1);
            }
        }
        // At most nine flows were ever live at once (eight kept plus the
        // newest before its predecessor's drop), so the table never grew
        // past nine records although a thousand flows passed through.
        assert_eq!(q.flows.len(), 9);
        assert_eq!(q.index.len(), 8);
        assert_eq!(q.len(), 8);
    }

    #[test]
    fn a_hint_is_checked_before_it_is_trusted() {
        let mut q = round_robin(4);
        let mut hint = FlowHint::default();
        // The first push looks the flow up and caches its record.
        assert_eq!(
            q.push_hinted(cell(7, 0, 1, 0), &mut hint),
            PushOutcome::Admitted
        );
        assert_eq!(hint, FlowHint(q.index[&FlowId(7)]));
        assert_eq!(
            q.push_hinted(cell(7, 0, 1, 1), &mut hint),
            PushOutcome::Admitted
        );
        // A hint for another flow's record is replaced, not followed.
        let mut other = hint;
        push_ok(&mut q, cell(8, 0, 1, 2));
        assert_eq!(
            q.push_hinted(cell(8, 0, 1, 3), &mut other),
            PushOutcome::Admitted
        );
        assert_eq!(other, FlowHint(q.index[&FlowId(8)]));
        assert_eq!(pop_flows(&mut q, 0, 1, 4), [7, 8, 7, 8]);
        // A released record fails the check although it still names the
        // flow: the dropped flow comes back in a record of its own.
        push_ok(&mut q, cell(7, 0, 2, 4));
        assert_eq!(q.drop_flow(FlowId(7)), 1);
        let stale = hint;
        assert_eq!(
            q.push_hinted(cell(7, 0, 2, 5), &mut hint),
            PushOutcome::Admitted
        );
        assert_eq!(hint, FlowHint(q.index[&FlowId(7)]));
        assert_eq!(stale, hint, "the released record is the one reused");
        assert_eq!(q.len(), 1);
        assert_eq!(pop_flows(&mut q, 0, 2, 1), [7]);
    }

    #[test]
    fn a_reused_flow_record_never_resurrects_a_dropped_flow() {
        let mut q = round_robin(4);
        push_ok(&mut q, cell(7, 0, 1, 0));
        assert_eq!(q.drop_flow(FlowId(7)), 1);
        // Flow 7 comes back in a fresh record.
        push_ok(&mut q, cell(7, 0, 1, 1));
        assert_eq!(q.drop_flow(FlowId(7)), 1);
        // Flow 8 takes the released record; flow 7, new again, gets its own.
        push_ok(&mut q, cell(8, 0, 1, 2));
        push_ok(&mut q, cell(7, 0, 1, 3));
        assert_eq!(q.flows.len(), 2);
        assert_eq!(pop_flows(&mut q, 0, 1, 2), [8, 7]);
        assert!(q.is_empty());
    }
}
