//! Differential test of the slab-based `VoqBuffers` against the plain
//! hash-map `ReferenceVoq`.
//!
//! Both buffers receive the same random sequence of `push`, `pop`,
//! `redirect_flow`, `drop_flow` and `set_pair_capacity` calls under either
//! service discipline. Several flows share each input–output pair, flows
//! are rerouted mid-stream, and dropped flows come back pinned to a new
//! output, so the last-flow cache, the intrusive eligible lists and the
//! slab's free list all see churn. After every call the two must agree on
//! the returned cell or outcome and on every observable: lengths and
//! occupancies, drop counters and the request matrix.

use an2_sched::{InputPort, OutputPort};
use an2_sim::cell::{Cell, FlowId};
use an2_sim::voq::{ServiceDiscipline, VoqBuffers};
use an2_verify::ReferenceVoq;
use proptest::collection;
use proptest::prelude::*;

/// One step of the script: an operation selector and two operands.
type Op = (u8, u64, u64);

/// Asserts every observable of the two buffers is identical.
fn assert_same(voq: &VoqBuffers, reference: &ReferenceVoq, n: usize, flows: u64) {
    assert_eq!(voq.len(), reference.len());
    assert_eq!(voq.is_empty(), reference.is_empty());
    assert_eq!(voq.drops(), reference.drops());
    let got: Vec<_> = voq.requests().pairs().collect();
    let want: Vec<_> = reference.requests().pairs().collect();
    assert_eq!(got, want, "request matrices differ");
    for i in (0..n).map(InputPort::new) {
        assert_eq!(voq.input_occupancy(i), reference.input_occupancy(i));
        assert_eq!(voq.drops_at_input(i), reference.drops_at_input(i));
        for j in (0..n).map(OutputPort::new) {
            assert_eq!(voq.pair_occupancy(i, j), reference.pair_occupancy(i, j));
        }
    }
    for f in (0..flows).map(FlowId) {
        assert_eq!(voq.flow_occupancy(f), reference.flow_occupancy(f), "{f}");
    }
}

/// Runs `script` against both buffers on an `n`-port switch with
/// `per_input` flows per input.
fn run(n: usize, per_input: usize, discipline: ServiceDiscipline, script: &[Op]) {
    let flows = (n * per_input) as u64;
    // Flow f enters at input f % n; the first pins put two flows on each
    // of the pairs (i, 0) and (i, 1) before redirects spread them out.
    let input = |f: u64| InputPort::new(f as usize % n);
    let mut pin: Vec<OutputPort> = (0..flows)
        .map(|f| OutputPort::new((f as usize / n) % 2 % n))
        .collect();
    let mut voq = VoqBuffers::with_discipline(n, discipline);
    let mut reference = ReferenceVoq::new(n, discipline);
    for (step, &(kind, a, b)) in script.iter().enumerate() {
        let f = a % flows;
        match kind {
            0..=49 => {
                let cell = Cell {
                    flow: FlowId(f),
                    input: input(f),
                    output: pin[f as usize],
                    arrival_slot: step as u64,
                };
                assert_eq!(voq.push(cell), reference.push(cell), "push at {step}");
            }
            50..=79 => {
                // Mostly a pair some flow is pinned to, sometimes any pair.
                let (i, j) = if b % 4 == 0 {
                    (
                        InputPort::new(a as usize % n),
                        OutputPort::new(b as usize / 4 % n),
                    )
                } else {
                    (input(f), pin[f as usize])
                };
                assert_eq!(
                    voq.pop(i, j),
                    reference.pop(i, j),
                    "pop ({i},{j}) at {step}"
                );
            }
            80..=87 => {
                let to = OutputPort::new(b as usize % n);
                let lost = voq.redirect_flow(FlowId(f), to);
                assert_eq!(
                    lost,
                    reference.redirect_flow(FlowId(f), to),
                    "redirect at {step}"
                );
                pin[f as usize] = to;
            }
            88..=93 => {
                let lost = voq.drop_flow(FlowId(f));
                assert_eq!(lost, reference.drop_flow(FlowId(f)), "drop_flow at {step}");
                // The flow may come back on any route.
                pin[f as usize] = OutputPort::new(b as usize % n);
            }
            _ => {
                let cap = (b % 5 != 0).then_some(b as usize % 4 + 1);
                voq.set_pair_capacity(cap);
                reference.set_pair_capacity(cap);
            }
        }
        assert_same(&voq, &reference, n, flows);
    }
}

fn script() -> impl Strategy<Value = Vec<Op>> {
    collection::vec((0u8..100, any::<u64>(), any::<u64>()), 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn round_robin_matches_reference(n in 1usize..6, per_input in 1usize..5, ops in script()) {
        run(n, per_input, ServiceDiscipline::RoundRobin, &ops);
    }

    #[test]
    fn fifo_matches_reference(n in 1usize..6, per_input in 1usize..5, ops in script()) {
        run(n, per_input, ServiceDiscipline::Fifo, &ops);
    }
}

/// A hand-written script hitting the churn corners the random scripts
/// reach only sometimes: a redirect onto a full pair, three flows on one
/// pair, and a dropped flow re-pinned to the output it left. With n = 2
/// and three flows per input, flows 0 and 4 start on pair (0, 0) and
/// flow 2 on pair (0, 1).
#[test]
fn churn_corners_match_reference() {
    let ops: Vec<Op> = vec![
        (0, 0, 0),
        (0, 4, 0),
        (0, 2, 0),
        (0, 2, 0),
        (95, 0, 1), // capacity 2
        (80, 2, 0), // flow 2 -> (0, 0), which is full: both cells drop
        (0, 0, 0),  // dropped at capacity
        (95, 0, 0), // unbounded again
        (0, 2, 0),  // flows 0, 4 and 2 now share (0, 0)
        (50, 0, 1),
        (88, 0, 0), // flow 0 dropped, re-pinned to output 0
        (0, 0, 0),
        (50, 4, 1),
        (50, 2, 1),
        (50, 0, 1),
        (50, 4, 1),
    ];
    for discipline in [ServiceDiscipline::RoundRobin, ServiceDiscipline::Fifo] {
        run(2, 3, discipline, &ops);
    }
}
