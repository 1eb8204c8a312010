//! Integration tests for the data-path fabrics (§2.2): Batcher network
//! sortedness, crossbar and batcher-banyan permutation routing, and a
//! cross-check that the fabrics transport exactly the matchings the
//! simulated crossbar switch executes.

use an2_fabric::{Banyan, BatcherBanyan, BatcherSorter, Crossbar, Fabric, FabricCell};
use an2_sched::rng::{SelectRng, Xoshiro256};
use an2_sched::{IterationLimit, Pim, Scheduler};
use an2_sim::cell::Arrival;
use an2_sim::model::SwitchModel;
use an2_sim::slab::PairFifos;
use an2_sim::switch::CrossbarSwitch;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A partial permutation on `0..n`: each input sends at most one cell,
/// no two cells share an output.
fn partial_permutation(n: usize) -> impl Strategy<Value = Vec<FabricCell>> {
    (
        Just((0..n).collect::<Vec<usize>>()).prop_shuffle(),
        proptest::collection::vec(proptest::bool::ANY, n),
    )
        .prop_map(move |(outs, present)| {
            (0..n)
                .filter(|&i| present[i])
                .map(|i| (i, outs[i]))
                .collect()
        })
}

proptest! {
    /// Batcher's bitonic network really sorts: any input vector leaves in
    /// the exact order `std` sorting produces.
    #[test]
    fn batcher_network_sorts_arbitrary_lanes(
        values in proptest::collection::vec(0u32..1000, 16..=16),
    ) {
        let sorter = BatcherSorter::new(16);
        let mut lanes = values.clone();
        sorter.sort(&mut lanes);
        let mut expect = values;
        expect.sort_unstable();
        prop_assert_eq!(lanes, expect);
    }

    /// `sort_tracked` reports where each original lane ended up: the map
    /// is a permutation and replaying it reproduces the sorted vector.
    #[test]
    fn batcher_tracking_is_a_consistent_permutation(
        values in proptest::collection::vec(0u32..1000, 16..=16),
    ) {
        let sorter = BatcherSorter::new(16);
        let mut lanes = values.clone();
        let final_lane = sorter.sort_tracked(&mut lanes);
        let distinct: BTreeSet<usize> = final_lane.iter().copied().collect();
        prop_assert_eq!(distinct.len(), 16, "tracking map must be a permutation");
        for (orig, &dest) in final_lane.iter().enumerate() {
            prop_assert_eq!(lanes[dest], values[orig], "lane {orig} mistracked");
        }
    }

    /// A crossbar routes any partial permutation with no internal loss.
    #[test]
    fn crossbar_routes_every_partial_permutation(cells in partial_permutation(16)) {
        let fabric = Crossbar::new(16);
        let out = fabric.route(&cells);
        prop_assert!(out.is_clean());
        prop_assert_eq!(out.delivered.len(), cells.len());
    }

    /// The crossbar and the batcher-banyan are interchangeable data paths:
    /// on identical cell sets they deliver identical cells (the paper's
    /// claim that either implements the non-blocking fabric PIM assumes).
    #[test]
    fn batcher_banyan_delivers_exactly_what_the_crossbar_does(
        cells in partial_permutation(16),
    ) {
        let xbar = Crossbar::new(16).route(&cells);
        let bb = BatcherBanyan::new(16).route(&cells);
        prop_assert!(bb.is_clean(), "blocked: {:?}", bb.blocked);
        let a: BTreeSet<FabricCell> = xbar.delivered.iter().copied().collect();
        let b: BTreeSet<FabricCell> = bb.delivered.iter().copied().collect();
        prop_assert_eq!(a, b);
    }

    /// A bare banyan never loses cells silently: delivered + blocked
    /// always partitions the offered set.
    #[test]
    fn banyan_partitions_cells_into_delivered_and_blocked(
        cells in partial_permutation(16),
    ) {
        let out = Banyan::new(16).route(&cells);
        let mut union: Vec<FabricCell> = out.delivered.clone();
        union.extend(out.blocked.iter().copied());
        union.sort_unstable();
        let mut offered = cells.clone();
        offered.sort_unstable();
        prop_assert_eq!(union, offered);
    }
}

/// Cross-check against the simulated switch: mirror a `CrossbarSwitch`'s
/// PIM with an identically seeded scheduler, route every slot's matching
/// through both non-blocking fabrics, and verify the fabrics carry the
/// exact cell count the switch reports as departures.
#[test]
fn fabrics_carry_every_matching_the_crossbar_switch_executes() {
    let n = 16usize;
    let seed = 0xFAB;
    let mut switch = CrossbarSwitch::new(Pim::with_options(
        n,
        seed,
        IterationLimit::Fixed(4),
        an2_sched::AcceptPolicy::Random,
    ));
    let mut mirror = Pim::with_options(
        n,
        seed,
        IterationLimit::Fixed(4),
        an2_sched::AcceptPolicy::Random,
    );
    let mut queues = PairFifos::new(n, None);
    let crossbar = Crossbar::new(n);
    let batcher_banyan = BatcherBanyan::new(n);

    let mut rng = Xoshiro256::seed_from(0xF00D);
    let mut fabric_delivered = 0u64;
    for slot in 0..400u64 {
        let mut arrivals = Vec::new();
        for i in 0..n {
            if rng.bernoulli(0.6) {
                arrivals.push(Arrival::pair(
                    n,
                    an2_sched::InputPort::new(i),
                    an2_sched::OutputPort::new(rng.index(n)),
                ));
            }
        }
        // The mirror sees the same arrivals and scheduler state, so it
        // computes the exact matching the switch is about to execute.
        for &a in &arrivals {
            assert!(queues.push(a, slot));
        }
        let matching = mirror.schedule(queues.requests());
        for fabric in [&crossbar as &dyn Fabric, &batcher_banyan] {
            let out = fabric.route_matching(&matching);
            assert!(out.is_clean(), "{} blocked {:?}", fabric.name(), out.blocked);
            assert_eq!(out.delivered.len(), matching.len());
        }
        for (i, j) in matching.pairs() {
            if queues.pop(i, j, slot).is_some() {
                fabric_delivered += 1;
            }
        }
        switch.step(&arrivals);
    }

    let report = switch.report();
    assert_eq!(
        report.departures, fabric_delivered,
        "fabric deliveries diverged from the switch's departures"
    );
    assert_eq!(switch.queued(), queues.len());
}
