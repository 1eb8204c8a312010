//! k-grant PIM for replicated switch fabrics — the §3.1 generalization.
//!
//! "Consider a batcher-banyan switch with k copies of the banyan network.
//! With such a switch, up to k cells can be delivered to a single output
//! during one time slot. ... we can modify parallel iterative matching to
//! allow each output to make up to k grants in step 2. In all other ways,
//! the algorithm remains the same." (Such fabrics need buffers at the
//! outputs, since only one cell per slot leaves an output — see the
//! speedup switch model in `an2-sim`.)

use crate::check::Contract;
use crate::port::{InputPort, OutputPort, PortSet};
use crate::requests::RequestMatrix;
use crate::rng::{SelectRng, Xoshiro256};
use std::fmt;

/// A conflict-free assignment where each input sends at most one cell and
/// each output may *receive* up to `k` cells in one slot.
///
/// # Examples
///
/// ```
/// use an2_sched::kgrant::MultiMatching;
/// use an2_sched::{InputPort, OutputPort};
/// let mut m = MultiMatching::new(4, 2);
/// m.assign(InputPort::new(0), OutputPort::new(1)).unwrap();
/// m.assign(InputPort::new(2), OutputPort::new(1)).unwrap();
/// assert_eq!(m.output_load(OutputPort::new(1)), 2);
/// assert!(m.assign(InputPort::new(3), OutputPort::new(1)).is_err()); // k = 2
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct MultiMatching {
    n: usize,
    k: usize,
    input_to_output: Vec<Option<OutputPort>>,
    inputs_of_output: Vec<Vec<InputPort>>,
}

/// Error returned by [`MultiMatching::assign`] on a capacity conflict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AssignConflict {
    /// The input being assigned.
    pub input: InputPort,
    /// The output being assigned.
    pub output: OutputPort,
}

impl fmt::Display for AssignConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot assign input {} to output {}: input busy or output at fabric capacity",
            self.input, self.output
        )
    }
}

impl std::error::Error for AssignConflict {}

impl MultiMatching {
    /// Creates an empty assignment for an `n`-port switch with fabric
    /// replication factor (speedup) `k`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > MAX_PORTS`, or `k == 0`.
    // an2-lint: allow(panic-freedom) the leading asserts are this constructor's documented `# Panics` contract
    pub fn new(n: usize, k: usize) -> Self {
        assert!(n > 0, "switch must have at least one port");
        assert!(n <= crate::MAX_PORTS, "switch size {n} out of range");
        assert!(k > 0, "speedup must be at least 1");
        Self {
            n,
            k,
            // an2-lint: allow(alloc-in-hot-path) per-assignment buffers sized n, allocated once per construction on the scalar reference path
            input_to_output: vec![None; n],
            // an2-lint: allow(alloc-in-hot-path) per-assignment buffers sized n, allocated once per construction on the scalar reference path
            inputs_of_output: vec![Vec::new(); n],
        }
    }

    /// The switch radix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The fabric replication factor.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Assigns input `i` to deliver its cell to output `j` this slot.
    ///
    /// # Errors
    ///
    /// Returns [`AssignConflict`] if `i` is already assigned or `j`
    /// already receives `k` cells.
    ///
    /// # Panics
    ///
    /// Panics if either port index is `>= n`.
    // an2-lint: allow(panic-freedom) both ports are validated < n before any indexing by the conflict check
    pub fn assign(&mut self, i: InputPort, j: OutputPort) -> Result<(), AssignConflict> {
        assert!(
            i.index() < self.n && j.index() < self.n,
            "pair ({i},{j}) outside {0}x{0} switch",
            self.n
        );
        if self.input_to_output[i.index()].is_some()
            || self.inputs_of_output[j.index()].len() >= self.k
        {
            return Err(AssignConflict {
                input: i,
                output: j,
            });
        }
        self.input_to_output[i.index()] = Some(j);
        // an2-lint: allow(alloc-in-hot-path) inputs_of_output fanout push is bounded by k entries per output
        self.inputs_of_output[j.index()].push(i);
        Ok(())
    }

    /// The output input `i` delivers to, if assigned.
    // an2-lint: allow(panic-freedom) the input index is < n by the port type's construction bound
    pub fn output_of(&self, i: InputPort) -> Option<OutputPort> {
        assert!(i.index() < self.n, "input {i} outside switch");
        self.input_to_output[i.index()]
    }

    /// Cells delivered to output `j` this slot.
    // an2-lint: allow(panic-freedom) the output index is < n by the port type's construction bound
    pub fn output_load(&self, j: OutputPort) -> usize {
        assert!(j.index() < self.n, "output {j} outside switch");
        self.inputs_of_output[j.index()].len()
    }

    /// Total assigned cells.
    pub fn len(&self) -> usize {
        self.input_to_output.iter().filter(|o| o.is_some()).count()
    }

    /// Returns `true` if nothing is assigned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(input, output)` assignments in input order.
    pub fn pairs(&self) -> impl Iterator<Item = (InputPort, OutputPort)> + '_ {
        self.input_to_output
            .iter()
            .enumerate()
            .filter_map(|(i, j)| j.map(|j| (InputPort::new(i), j)))
    }

    /// Returns `true` if every assignment is a request in `requests`.
    pub fn respects(&self, requests: &RequestMatrix) -> bool {
        self.n == requests.n() && self.pairs().all(|(i, j)| requests.has(i, j))
    }

    /// Returns `true` if no unassigned input has a request for an output
    /// with spare fabric capacity (the k-grant analogue of maximality).
    // an2-lint: allow(panic-freedom) indices iterate 0..n over per-port vectors sized n
    pub fn is_maximal(&self, requests: &RequestMatrix) -> bool {
        if self.n != requests.n() {
            return false;
        }
        let open_outputs: PortSet = (0..self.n)
            .filter(|&j| self.inputs_of_output[j].len() < self.k)
            // an2-lint: allow(alloc-in-hot-path) PortSet's FromIterator fills a fixed-width bitset in place
            .collect();
        (0..self.n)
            .filter(|&i| self.input_to_output[i].is_none())
            .all(|i| requests.row(InputPort::new(i)).is_disjoint(&open_outputs))
    }
}

impl fmt::Debug for MultiMatching {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MultiMatching({}x{}, k={}) {{", self.n, self.n, self.k)?;
        let mut first = true;
        for (i, j) in self.pairs() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, " {i:?}->{j:?}")?;
            first = false;
        }
        write!(f, " }}")
    }
}

/// Parallel iterative matching with up to `k` grants per output.
///
/// Identical to [`crate::Pim`] except that an output stays in the grant
/// pool until `k` of its grants have been accepted, and may grant several
/// requesters in one iteration.
#[derive(Clone, Debug)]
pub struct KGrantPim<R: SelectRng = Xoshiro256> {
    n: usize,
    k: usize,
    iterations: usize,
    output_rng: Vec<R>,
    input_rng: Vec<R>,
    /// Scratch: `grants_to[i]`, cleared and refilled every iteration so
    /// `schedule()` only allocates for the returned `MultiMatching`.
    grants_to: Vec<PortSet>,
}

impl KGrantPim<Xoshiro256> {
    /// Creates a k-grant PIM scheduler running `iterations` iterations per
    /// slot.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `k` is 0, `n > MAX_PORTS`, or `iterations == 0`.
    pub fn new(n: usize, k: usize, iterations: usize, seed: u64) -> Self {
        assert!(n > 0, "switch must have at least one port");
        assert!(n <= crate::MAX_PORTS, "switch size {n} out of range");
        assert!(k > 0, "speedup must be at least 1");
        assert!(iterations > 0, "iteration count must be at least 1");
        let root = Xoshiro256::seed_from(seed);
        Self {
            n,
            k,
            iterations,
            output_rng: (0..n).map(|j| root.split(j as u64)).collect(),
            input_rng: (0..n).map(|i| root.split(0x3_0000 + i as u64)).collect(),
            grants_to: vec![PortSet::new(); n],
        }
    }
}

impl<R: SelectRng> KGrantPim<R> {
    /// The switch radix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The fabric replication factor.
    pub fn k(&self) -> usize {
        self.k
    }

    /// What every assignment promises: each output receives at most `k`
    /// cells, and with at least `n` iterations the assignment is maximal
    /// (an iteration that is not yet maximal assigns at least one more
    /// input, so `n` always suffice).
    pub fn contract(&self) -> Contract {
        Contract {
            maximal: self.iterations >= self.n,
            output_capacity: self.k,
            ..Contract::LEGAL
        }
    }

    /// Computes the multi-assignment for one slot.
    ///
    /// # Panics
    ///
    /// Panics if `requests.n() != self.n()`.
    // an2-lint: allow(panic-freedom) the size assert_eq pins requests.n() == self.n; drawn ports are < n by construction
    pub fn schedule(&mut self, requests: &RequestMatrix) -> MultiMatching {
        assert_eq!(
            requests.n(),
            self.n,
            "request matrix size {} does not match scheduler size {}",
            requests.n(),
            self.n
        );
        let n = self.n;
        let mut mm = MultiMatching::new(n, self.k);
        let mut unmatched_inputs = PortSet::all(n);

        for _ in 0..self.iterations {
            // Grant phase: each output with spare capacity grants up to
            // (k - load) distinct unmatched requesters, chosen at random.
            for g in &mut self.grants_to[..n] {
                g.clear();
            }
            let mut any = false;
            for j in 0..n {
                let spare = self.k - mm.output_load(OutputPort::new(j));
                if spare == 0 {
                    continue;
                }
                let mut pool = requests
                    .col(OutputPort::new(j))
                    .intersection(&unmatched_inputs);
                for _ in 0..spare {
                    let Some(i) = self.output_rng[j].choose(&pool) else {
                        break;
                    };
                    pool.remove(i);
                    self.grants_to[i].insert(j);
                    any = true;
                }
            }
            if !any {
                break;
            }
            // Accept phase: each granted input accepts one at random.
            for i in 0..n {
                if self.grants_to[i].is_empty() {
                    continue;
                }
                let j = self.input_rng[i]
                    .choose(&self.grants_to[i])
                    .expect("non-empty grant set");
                mm.assign(InputPort::new(i), OutputPort::new(j))
                    .expect("grants bounded by spare capacity");
                unmatched_inputs.remove(i);
            }
            if mm.is_maximal(requests) {
                break;
            }
        }
        mm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k1_behaves_like_a_matching() {
        let mut s = KGrantPim::new(8, 1, 8, 1);
        let reqs = RequestMatrix::from_fn(8, |_, _| true);
        let mm = s.schedule(&reqs);
        assert!(mm.respects(&reqs));
        for j in 0..8 {
            assert!(mm.output_load(OutputPort::new(j)) <= 1);
        }
        assert_eq!(mm.len(), 8);
    }

    #[test]
    fn hotspot_benefits_from_speedup() {
        // All 8 inputs want output 0 only: a k=1 fabric delivers 1 cell,
        // a k=4 fabric delivers 4.
        let reqs = RequestMatrix::from_fn(8, |_, j| j == 0);
        let mut s1 = KGrantPim::new(8, 1, 4, 2);
        let mut s4 = KGrantPim::new(8, 4, 4, 2);
        assert_eq!(s1.schedule(&reqs).len(), 1);
        assert_eq!(s4.schedule(&reqs).len(), 4);
    }

    #[test]
    fn full_speedup_clears_all_requests_with_one_request_per_input() {
        // With k = n and each input holding exactly one request, every
        // cell is delivered in one slot regardless of destination pattern
        // (perfect output queueing behaviour).
        let n = 8;
        let reqs = RequestMatrix::from_fn(n, |_, j| j == 0);
        let mut s = KGrantPim::new(n, n, 4, 9);
        let mm = s.schedule(&reqs);
        assert_eq!(mm.len(), n);
        assert_eq!(mm.output_load(OutputPort::new(0)), n);
    }

    #[test]
    fn multi_matching_assign_conflicts() {
        let mut m = MultiMatching::new(2, 1);
        m.assign(InputPort::new(0), OutputPort::new(0)).unwrap();
        let e = m.assign(InputPort::new(0), OutputPort::new(1)).unwrap_err();
        assert!(e.to_string().contains("capacity"), "{e}");
        let e = m.assign(InputPort::new(1), OutputPort::new(0)).unwrap_err();
        assert_eq!(e.input, InputPort::new(1));
        assert!(!m.is_empty());
        assert_eq!(format!("{m:?}"), "MultiMatching(2x2, k=1) { in0->out0 }");
    }

    #[test]
    #[should_panic(expected = "speedup")]
    fn zero_speedup_panics() {
        let _ = MultiMatching::new(4, 0);
    }
}
