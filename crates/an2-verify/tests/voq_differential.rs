//! Differential test of the network simulator's per-flow buffers
//! (`an2_net::flows::FlowQueues`, on the shared queue slab) against the
//! plain hash-map `ReferenceVoq`.
//!
//! Both buffers receive the same random sequence of `push`, `pop`,
//! `redirect_flow`, `drop_flow` and capacity calls under either service
//! discipline. Several flows share each input–output pair, flows are
//! rerouted mid-stream, and dropped flows come back on a new output, so
//! the intrusive eligible lists, the flow table's free list and the slab's
//! record recycling all see churn. After every call the two must agree on
//! the returned cell or outcome and on every observable: the queued
//! count, the cells dropped (summed per input here from the calls'
//! returns) and the request matrix. At the end both are drained pair by
//! pair and must yield the same cells.

use an2_net::flows::{FlowQueues, PushOutcome, ServiceDiscipline};
use an2_sched::{InputPort, OutputPort};
use an2_sim::cell::{Cell, FlowId};
use an2_verify::ReferenceVoq;
use proptest::collection;
use proptest::prelude::*;

/// One step of the script: an operation selector and two operands.
type Op = (u8, u64, u64);

/// Asserts every observable of the two buffers is identical; `lost[i]`
/// counts the cells the flow buffers reported dropped at input `i`.
fn assert_same(queues: &FlowQueues, reference: &ReferenceVoq, lost: &[u64]) {
    assert_eq!(queues.len(), reference.len());
    assert_eq!(queues.is_empty(), reference.is_empty());
    assert_eq!(lost.iter().sum::<u64>(), reference.drops());
    for (i, &lost) in lost.iter().enumerate() {
        assert_eq!(lost, reference.drops_at_input(InputPort::new(i)));
    }
    let got: Vec<_> = queues.requests().pairs().collect();
    let want: Vec<_> = reference.requests().pairs().collect();
    assert_eq!(got, want, "request matrices differ");
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
    let mut queues = FlowQueues::new(n, discipline);
    let mut reference = ReferenceVoq::new(n, discipline);
    let mut lost = vec![0u64; n];
    for (step, &(kind, a, b)) in script.iter().enumerate() {
        let f = a % flows;
        let at = input(f).index();
        match kind {
            0..=49 => {
                let cell = Cell {
                    flow: FlowId(f),
                    input: input(f),
                    output: pin[f as usize],
                    arrival_slot: step as u64,
                };
                let outcome = queues.push(cell);
                assert_eq!(outcome, reference.push(cell), "push at {step}");
                lost[at] += u64::from(outcome == PushOutcome::Dropped);
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
                    queues.pop(i, j),
                    reference.pop(i, j),
                    "pop ({i},{j}) at {step}"
                );
            }
            80..=87 => {
                let to = OutputPort::new(b as usize % n);
                let spilled = queues.redirect_flow(FlowId(f), to);
                assert_eq!(
                    spilled,
                    reference.redirect_flow(FlowId(f), to),
                    "redirect at {step}"
                );
                lost[at] += spilled as u64;
                pin[f as usize] = to;
            }
            88..=93 => {
                let dropped = queues.drop_flow(FlowId(f));
                assert_eq!(
                    dropped,
                    reference.drop_flow(FlowId(f)),
                    "drop_flow at {step}"
                );
                lost[at] += dropped as u64;
                // The flow may come back on any route.
                pin[f as usize] = OutputPort::new(b as usize % n);
            }
            _ => {
                let cap = (b % 5 != 0).then_some(b as usize % 4 + 1);
                queues.set_capacity(cap);
                reference.set_pair_capacity(cap);
            }
        }
        assert_same(&queues, &reference, &lost);
    }
    // Drain every pair: whatever either buffer still holds must come out
    // the same, cell for cell.
    for i in (0..n).map(InputPort::new) {
        for j in (0..n).map(OutputPort::new) {
            loop {
                let cell = queues.pop(i, j);
                assert_eq!(cell, reference.pop(i, j), "drain ({i},{j})");
                if cell.is_none() {
                    break;
                }
            }
        }
    }
    assert!(queues.is_empty() && reference.is_empty());
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
