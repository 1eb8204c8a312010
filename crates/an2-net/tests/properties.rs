//! Property-based tests for the network substrate.

use an2_net::cbr::{simulate_cbr_chain, CbrChainConfig};
use an2_net::clock::ClockPolicy;
use an2_net::netsim::Network;
use an2_net::shard::{run_shard_net, run_shard_net_faulted, ShardNetConfig};
use an2_sched::{InputPort, OutputPort};
use an2_sim::cell::FlowId;
use an2_sim::fault::{FaultEvent, FaultKind, FaultPlan, PortSide};
use an2_sim::metrics::QuantileSketch;
use an2_task::Pool;
use proptest::prelude::*;

fn any_policy(which: u8, a: u64, b: u64) -> ClockPolicy {
    match which % 3 {
        0 => ClockPolicy::Constant((a % 101) as f64 / 100.0),
        1 => ClockPolicy::Random,
        _ => ClockPolicy::SlowThenFast {
            slow_frames: 1 + a % 50,
            fast_frames: 1 + b % 50,
        },
    }
}

/// Decodes one fault event on a ring of `switches` switches of `radix`
/// ports from two raw draws. A third of link faults hit the ring link
/// (output 0); event slots run a little past the end of the run.
fn ring_fault(a: u64, b: u64, switches: usize, radix: usize, slots: u64) -> FaultEvent {
    let switch = ((a >> 8) % switches as u64) as usize;
    let port = ((b >> 32) % radix as u64) as usize;
    let link = if a.is_multiple_of(3) { 0 } else { port };
    let side = if a & 0x10 == 0 {
        PortSide::Input
    } else {
        PortSide::Output
    };
    let kind = match (a >> 5) % 7 {
        0 => FaultKind::LinkDown {
            switch,
            output: link,
        },
        1 => FaultKind::LinkUp {
            switch,
            output: link,
        },
        2 => FaultKind::PortFail { switch, side, port },
        3 => FaultKind::PortRecover { switch, side, port },
        4 => FaultKind::CellDrop {
            switch,
            input: port,
        },
        5 => FaultKind::CellCorrupt {
            switch,
            input: port,
        },
        _ => FaultKind::ClockDrift {
            switch,
            slots: 1 + (b >> 40) % 24,
        },
    };
    FaultEvent {
        slot: b % (slots + 8),
        kind,
    }
}

/// Team sizes the partition properties compare with the serial run: two
/// parts (the benchmark's team), and three and five, which split most
/// rings unevenly.
const TEAMS: [usize; 3] = [2, 3, 5];

/// Everything the delay sketch answers, for exact comparison.
fn sketch_view(q: &QuantileSketch) -> (u64, u64, u64, Vec<u64>) {
    let grid = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];
    (
        q.count(),
        q.max(),
        q.mean().to_bits(),
        grid.iter().map(|&p| q.quantile(p)).collect(),
    )
}

/// Runs the ring serially and on each of [`TEAMS`], faulted when `faults`
/// holds raw fault draws, and asserts every run reports the same: the
/// `Display` text, the delay sketch's quantiles and the faulted run's
/// per-window deliveries. The runs' delay sketches and windows are merged
/// from per-part tallies, so this is what pins the merge to the partition.
fn assert_ring_is_partition_independent(cfg: &ShardNetConfig, faults: Option<Vec<(u64, u64)>>) {
    match faults {
        None => {
            let serial = run_shard_net(cfg, &Pool::serial());
            for threads in TEAMS {
                let team = run_shard_net(cfg, &Pool::new(threads));
                assert_eq!(
                    team.to_string(),
                    serial.to_string(),
                    "{cfg:?} threads={threads}"
                );
                assert_eq!(
                    sketch_view(&team.delay),
                    sketch_view(&serial.delay),
                    "{cfg:?} threads={threads}"
                );
                assert_eq!(team.mean_delay.to_bits(), serial.mean_delay.to_bits());
            }
        }
        Some(raw) => {
            let plan = FaultPlan::from_events(
                raw.iter()
                    .map(|&(a, b)| ring_fault(a, b, cfg.switches, cfg.radix, cfg.slots))
                    .collect(),
            );
            let serial = run_shard_net_faulted(cfg, &plan, &Pool::serial());
            assert_eq!(serial.windows.iter().sum::<u64>(), serial.delivered);
            for threads in TEAMS {
                let team = run_shard_net_faulted(cfg, &plan, &Pool::new(threads));
                assert_eq!(
                    team.to_string(),
                    serial.to_string(),
                    "{cfg:?} threads={threads}"
                );
                assert_eq!(
                    sketch_view(&team.delay),
                    sketch_view(&serial.delay),
                    "{cfg:?} threads={threads}"
                );
                assert_eq!(team.windows, serial.windows, "{cfg:?} threads={threads}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sharded ring's report is byte-identical to the serial run's
    /// at 2, 3 and 5 threads, faulted or not. Rings of 2 to 40 switches
    /// cover uneven partitions and teams clamped to fewer parts than
    /// threads.
    #[test]
    fn shard_ring_matches_serial_at_any_thread_count(
        switches in 2usize..=40,
        radix in 2usize..=8,
        span_draw in any::<u64>(),
        host_load in 0.0f64..1.0,
        slots in 0u64..150,
        seed in any::<u64>(),
        faults in proptest::option::of(
            proptest::collection::vec((any::<u64>(), any::<u64>()), 1..16)
        ),
    ) {
        let cfg = ShardNetConfig {
            switches,
            radix,
            span: 1 + (span_draw % (switches as u64 - 1)) as usize,
            host_load,
            seed,
            slots,
        };
        assert_ring_is_partition_independent(&cfg, faults);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same check on radix-100 switches, which sit on four-word port
    /// sets where radix 2..=8 sits on one-word sets.
    #[test]
    fn four_word_shard_ring_matches_serial_at_any_thread_count(
        switches in 2usize..=40,
        span_draw in any::<u64>(),
        host_load in 0.0f64..1.0,
        slots in 0u64..150,
        seed in any::<u64>(),
        faults in proptest::option::of(
            proptest::collection::vec((any::<u64>(), any::<u64>()), 1..16)
        ),
    ) {
        let cfg = ShardNetConfig {
            switches,
            radix: 100,
            span: 1 + (span_draw % (switches as u64 - 1)) as usize,
            host_load,
            seed,
            slots,
        };
        assert_ring_is_partition_independent(&cfg, faults);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Appendix B bounds hold for arbitrary valid configurations and
    /// clock adversaries.
    #[test]
    fn cbr_bounds_hold_for_random_configs(
        hops in 1usize..6,
        k in 1usize..4,
        frame_slots in 20usize..200,
        tol_bp in 1u32..300,         // tolerance in basis points (0.01%..3%)
        latency in 0.0f64..20.0,
        ctrl_which in any::<u8>(),
        sw_which in any::<u8>(),
        a in any::<u64>(),
        b in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let mut cfg = CbrChainConfig {
            hops,
            cells_per_frame: k.min(frame_slots),
            switch_frame_slots: frame_slots,
            controller_stuffing: 0,
            slot_time: 1.0,
            tolerance: tol_bp as f64 / 10_000.0,
            link_latency: latency,
            frames: 150,
        };
        cfg.controller_stuffing = cfg.min_stuffing();
        let report = simulate_cbr_chain(
            &cfg,
            any_policy(ctrl_which, a, b),
            any_policy(sw_which, b, a),
            seed,
        )
        .expect("generated config is valid");
        prop_assert!(report.within_bounds(), "{report}");
        prop_assert_eq!(report.cells_delivered, 150 * cfg.cells_per_frame as u64);
    }

    /// In any linear chain, total deliveries never exceed bottleneck
    /// capacity and all flows make progress (no starvation under PIM).
    #[test]
    fn chain_flows_all_progress(
        seed in any::<u64>(),
        chain_len in 1usize..4,
        latency in 1u64..4,
    ) {
        let mut net = Network::new(seed);
        // chain_len switches; each has a local source at input 1; chain
        // runs through input 0 / output 0.
        let switches: Vec<_> = (0..chain_len).map(|_| net.add_switch(2)).collect();
        for w in switches.windows(2) {
            net.connect(w[0], OutputPort::new(0), w[1], InputPort::new(0), latency)
                .unwrap();
        }
        let mut flows = Vec::new();
        for (idx, &sw) in switches.iter().enumerate() {
            let f = FlowId(idx as u64 + 1);
            // Route through every switch from its entry onward.
            for &later in &switches[idx..] {
                net.add_route(later, f, OutputPort::new(0)).unwrap();
            }
            net.add_source(sw, InputPort::new(1), vec![f], 1.0).unwrap();
            flows.push(f);
        }
        let slots = 3_000u64;
        net.run(slots);
        let total: u64 = flows.iter().map(|&f| net.delivered(f)).sum();
        prop_assert!(total <= slots, "bottleneck overdelivered: {total} > {slots}");
        for &f in &flows {
            prop_assert!(net.delivered(f) > 0, "flow {f} starved");
        }
    }

    /// Uncontended paths deliver at full rate with latency equal to the
    /// sum of link latencies.
    #[test]
    fn uncontended_path_full_rate(
        seed in any::<u64>(),
        hops in 1usize..5,
        latency in 1u64..5,
    ) {
        let mut net = Network::new(seed);
        let switches: Vec<_> = (0..hops).map(|_| net.add_switch(2)).collect();
        for w in switches.windows(2) {
            net.connect(w[0], OutputPort::new(1), w[1], InputPort::new(0), latency)
                .unwrap();
        }
        let f = FlowId(9);
        for &sw in &switches {
            net.add_route(sw, f, OutputPort::new(1)).unwrap();
        }
        net.add_source(switches[0], InputPort::new(0), vec![f], 1.0)
            .unwrap();
        let slots = 500u64;
        net.run(slots);
        let expected_latency = (hops as u64 - 1) * latency;
        prop_assert!(net.delivered(f) >= slots - expected_latency - 2);
        if let Some(lat) = net.mean_latency(f) {
            prop_assert!(
                (lat - expected_latency as f64).abs() < 0.5,
                "latency {lat} vs expected {expected_latency}"
            );
        }
    }
}
