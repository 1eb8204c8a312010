//! Reference input buffers the network simulator's per-flow buffers
//! ([`an2_net::flows::FlowQueues`]) are checked against.
//!
//! [`ReferenceVoq`] is the straightforward rendering of the paper's §3.3
//! buffer: a hash map from flow to its FIFO, a hash map from flow to its
//! pinned output, and a `Vec<Vec<VecDeque<FlowId>>>` of per-pair
//! round-robin lists of eligible flows. Every operation hashes; nothing is
//! cached or interned. The production buffer keeps each flow's cells in a
//! slab queue and threads the per-pair lists through its flow records, and
//! the differential property test `tests/voq_differential.rs` runs both on
//! the same random operation sequences and fails on the first divergence
//! in popped cells, push outcomes, drop counts, pair occupancies or
//! request matrices. It is also the queue
//! of [`crate::engine::ReferenceSwitch`]: a plain slot loop over it,
//! with [`ReferenceVoq::pair_head_arrival`] giving each pair's head-cell
//! age, checks the single-switch engine's queue observations.

use an2_net::flows::{PushOutcome, ServiceDiscipline};
use an2_sched::det::DetHashMap;
use an2_sched::{InputPort, OutputPort, RequestMatrix};
use an2_sim::cell::{Cell, FlowId};
use std::collections::VecDeque;

/// Hash-map-per-flow VOQ buffers with the same observable behaviour as
/// [`an2_net::flows::FlowQueues`].
#[derive(Clone, Debug)]
pub struct ReferenceVoq {
    n: usize,
    discipline: ServiceDiscipline,
    next_seq: u64,
    flows: DetHashMap<FlowId, VecDeque<(u64, Cell)>>,
    flow_output: DetHashMap<FlowId, OutputPort>,
    eligible: Vec<Vec<VecDeque<FlowId>>>,
    total: usize,
    requests: RequestMatrix,
    capacity: Option<usize>,
    pair_count: Vec<Vec<usize>>,
    drops_total: u64,
    drops_per_input: Vec<u64>,
}

impl ReferenceVoq {
    /// Empty buffers for an `n`-port switch under `discipline`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > MAX_PORTS`.
    pub fn new(n: usize, discipline: ServiceDiscipline) -> Self {
        assert!(
            n > 0 && n <= an2_sched::MAX_PORTS,
            "switch size {n} out of range"
        );
        Self {
            n,
            discipline,
            next_seq: 0,
            flows: DetHashMap::default(),
            flow_output: DetHashMap::default(),
            eligible: vec![vec![VecDeque::new(); n]; n],
            total: 0,
            requests: RequestMatrix::new(n),
            capacity: None,
            pair_count: vec![vec![0; n]; n],
            drops_total: 0,
            drops_per_input: vec![0; n],
        }
    }

    /// Sets the per-pair cell budget (`None` = unbounded).
    pub fn set_pair_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
    }

    /// Cells discarded so far.
    pub fn drops(&self) -> u64 {
        self.drops_total
    }

    /// Cells discarded at input `i`.
    pub fn drops_at_input(&self, i: InputPort) -> u64 {
        self.drops_per_input[i.index()]
    }

    /// Total queued cells.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Returns `true` if no cell is queued.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Queued cells of pair `(i, j)`.
    pub fn pair_occupancy(&self, i: InputPort, j: OutputPort) -> usize {
        self.pair_count[i.index()][j.index()]
    }

    /// Arrival slot of the oldest head cell among the pair's flows.
    pub fn pair_head_arrival(&self, i: InputPort, j: OutputPort) -> Option<u64> {
        self.eligible[i.index()][j.index()]
            .iter()
            .filter_map(|flow| self.flows[flow].front())
            .min_by_key(|&&(seq, _)| seq)
            .map(|&(_, cell)| cell.arrival_slot)
    }

    /// Enqueues `cell`, or drops it when its pair is at capacity.
    ///
    /// # Panics
    ///
    /// Panics if a port is out of range or the flow changes output.
    pub fn push(&mut self, cell: Cell) -> PushOutcome {
        let (i, j) = (cell.input, cell.output);
        assert!(
            i.index() < self.n && j.index() < self.n,
            "cell outside switch"
        );
        let pinned = self.flow_output.entry(cell.flow).or_insert(j);
        assert_eq!(*pinned, j, "flow {} is route-pinned", cell.flow);
        if let Some(cap) = self.capacity {
            if self.pair_count[i.index()][j.index()] >= cap {
                self.drops_total += 1;
                self.drops_per_input[i.index()] += 1;
                return PushOutcome::Dropped;
            }
        }
        let q = self.flows.entry(cell.flow).or_default();
        if q.is_empty() {
            self.eligible[i.index()][j.index()].push_back(cell.flow);
            self.requests.set(i, j);
        }
        q.push_back((self.next_seq, cell));
        self.next_seq += 1;
        self.total += 1;
        self.pair_count[i.index()][j.index()] += 1;
        PushOutcome::Admitted
    }

    /// Dequeues the next cell of pair `(i, j)` under the discipline.
    pub fn pop(&mut self, i: InputPort, j: OutputPort) -> Option<Cell> {
        let list = &mut self.eligible[i.index()][j.index()];
        let pos = match self.discipline {
            ServiceDiscipline::RoundRobin => 0,
            ServiceDiscipline::Fifo => (0..list.len())
                .min_by_key(|&k| self.flows[&list[k]].front().expect("eligible").0)?,
        };
        let flow = *list.get(pos)?;
        list.remove(pos);
        let q = self
            .flows
            .get_mut(&flow)
            .expect("eligible flow has a queue");
        let (_, cell) = q.pop_front().expect("eligible flow has a cell");
        if !q.is_empty() {
            list.push_back(flow);
        } else if list.is_empty() {
            self.requests.clear(i, j);
        }
        self.total -= 1;
        self.pair_count[i.index()][j.index()] -= 1;
        Some(cell)
    }

    /// Re-pins `flow` to `new_output`, moving its queued cells; returns
    /// the cells discarded for lack of room.
    pub fn redirect_flow(&mut self, flow: FlowId, new_output: OutputPort) -> usize {
        let Some(&old_output) = self.flow_output.get(&flow) else {
            self.flow_output.insert(flow, new_output);
            return 0;
        };
        if old_output == new_output {
            return 0;
        }
        self.flow_output.insert(flow, new_output);
        let Some(q) = self.flows.get_mut(&flow) else {
            return 0;
        };
        if q.is_empty() {
            return 0;
        }
        let i = q.front().expect("non-empty").1.input;
        let count = q.len();
        let (oi, oj) = (i.index(), old_output.index());
        let list = &mut self.eligible[oi][oj];
        if let Some(pos) = list.iter().position(|f| *f == flow) {
            list.remove(pos);
            if list.is_empty() {
                self.requests.clear(i, old_output);
            }
        }
        self.pair_count[oi][oj] -= count;
        let nj = new_output.index();
        let room = self.capacity.map_or(usize::MAX, |cap| {
            cap.saturating_sub(self.pair_count[oi][nj])
        });
        let kept = count.min(room);
        let dropped = count - kept;
        q.truncate(kept);
        for (_, cell) in q.iter_mut() {
            cell.output = new_output;
        }
        self.pair_count[oi][nj] += kept;
        self.total -= dropped;
        self.drops_total += dropped as u64;
        self.drops_per_input[oi] += dropped as u64;
        if kept > 0 {
            self.eligible[oi][nj].push_back(flow);
            self.requests.set(i, new_output);
        }
        dropped
    }

    /// Discards every queued cell of `flow` and forgets its pin; returns
    /// the number discarded.
    pub fn drop_flow(&mut self, flow: FlowId) -> usize {
        let count = match self.flows.remove(&flow) {
            Some(q) if !q.is_empty() => {
                let head = q.front().expect("non-empty").1;
                let (i, j) = (head.input, head.output);
                let count = q.len();
                let list = &mut self.eligible[i.index()][j.index()];
                if let Some(pos) = list.iter().position(|f| *f == flow) {
                    list.remove(pos);
                    if list.is_empty() {
                        self.requests.clear(i, j);
                    }
                }
                self.pair_count[i.index()][j.index()] -= count;
                self.total -= count;
                self.drops_total += count as u64;
                self.drops_per_input[i.index()] += count as u64;
                count
            }
            _ => 0,
        };
        self.flow_output.remove(&flow);
        count
    }

    /// The request matrix: pair `(i, j)` requests iff it has an eligible
    /// flow.
    pub fn requests(&self) -> &RequestMatrix {
        &self.requests
    }
}
