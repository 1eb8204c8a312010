//! Faulted stepping of the batched SoA engine.
//!
//! Pins the chaos-engine contracts of [`BatchCrossbar::step_faulted`]:
//!
//! * **digest parity** — with an empty fault plan, `step_faulted` is
//!   bit-identical to `step_slot` at every wide radix the chaos grammar
//!   samples (N ∈ {64, 256, 1024}); fault handling must cost nothing in
//!   behaviour when no fault strikes.
//! * **ledger** — the O(1) conservation ledger holds after every slot of
//!   the degraded runs below. How injected and corrupted drops are
//!   charged (engine total, per-pair counters, fault log) is judged by
//!   `an2-verify`'s engine table (`tests/engines.rs`) under chaos plans.
//! * **degraded scheduling** — a failed output stops departing but its
//!   arrivals still buffer (the mask gates scheduling only); clock drift
//!   suspends scheduling entirely until the excursion ends.

use an2_sched::rng::{SelectRng, Xoshiro256};
use an2_sched::{InputPort, OutputPort, Scheduler, WidePim};
use an2_sim::batch::BatchCrossbar;
use an2_sim::cell::Arrival;
use an2_sim::fault::{FaultEvent, FaultKind, FaultLog, FaultPlan, PortSide};
use an2_sim::model::SwitchModel;
use an2_task::Fnv;
use proptest::prelude::*;

/// Bernoulli(load) arrivals with uniform destinations — the pair-flow
/// convention the engine's one-flow-per-pair regime expects.
fn arrivals_for(n: usize, load: f64, rng: &mut Xoshiro256) -> Vec<Arrival> {
    let mut batch = Vec::new();
    for i in 0..n {
        if rng.bernoulli(load) {
            batch.push(Arrival::pair(
                n,
                InputPort::new(i),
                OutputPort::new(rng.index(n)),
            ));
        }
    }
    batch
}

/// FNV-1a digest over everything observable about the engine.
fn digest<S: Scheduler<16>>(engine: &BatchCrossbar<S, 16>) -> u64 {
    let r = engine.report();
    let mut h = Fnv::report();
    let mut mix = |v: u64| h.u64(v);
    mix(r.slots);
    mix(r.arrivals);
    mix(r.departures);
    mix(r.peak_occupancy as u64);
    mix(r.final_occupancy as u64);
    for &d in &r.departures_per_output {
        mix(d);
    }
    mix(r.delay.count());
    mix(r.delay.max());
    mix(r.delay.mean().to_bits());
    mix(r.delay.percentile(0.5));
    mix(engine.offered());
    mix(engine.dropped());
    h.finish()
}

fn wide_engine(n: usize, seed: u64) -> BatchCrossbar<WidePim, 16> {
    BatchCrossbar::new(n, WidePim::new(n, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `step_faulted` with an empty plan is `step_slot`, bit for bit, at
    /// every radix the chaos grammar samples.
    #[test]
    fn empty_plan_step_faulted_matches_step_slot(
        seed in any::<u64>(),
        load in 0.02f64..0.30,
    ) {
        for n in [64usize, 256, 1024] {
            let slots = if n == 1024 { 96 } else { 192 };
            let mut plain = wide_engine(n, seed);
            let mut faulted = wide_engine(n, seed);
            let mut plan = FaultPlan::new();
            let mut log = FaultLog::new();
            let mut rng_a = Xoshiro256::seed_from(seed ^ 0x7EA);
            let mut rng_b = Xoshiro256::seed_from(seed ^ 0x7EA);
            for _ in 0..slots {
                plain.step_slot(&arrivals_for(n, load, &mut rng_a));
                faulted.step_faulted(&arrivals_for(n, load, &mut rng_b), &mut plan, &mut log);
            }
            prop_assert_eq!(digest(&plain), digest(&faulted), "divergence at n={}", n);
            prop_assert_eq!(faulted.dropped(), 0);
            prop_assert_eq!(log.drops().len(), 0);
            faulted.verify_conservation().unwrap();
            faulted.verify_drop_ledger().unwrap();
        }
    }
}

/// A failed output is masked out of scheduling — nothing departs through
/// it — but its arrivals still buffer, and recovery drains the backlog.
#[test]
fn masked_output_buffers_but_never_departs() {
    let n = 64;
    let target = 7usize;
    let mut engine = wide_engine(n, 0x5EED);
    let mut plan = FaultPlan::from_events(vec![
        FaultEvent {
            slot: 0,
            kind: FaultKind::LinkDown { switch: 0, output: target },
        },
        FaultEvent {
            slot: 200,
            kind: FaultKind::LinkUp { switch: 0, output: target },
        },
    ]);
    let mut log = FaultLog::new();
    // Every input sends to the failed output only.
    let burst: Vec<Arrival> = (0..8)
        .map(|i| Arrival::pair(n, InputPort::new(i), OutputPort::new(target)))
        .collect();
    for slot in 0..200u64 {
        let arrivals = if slot < 8 { burst.clone() } else { Vec::new() };
        engine.step_faulted(&arrivals, &mut plan, &mut log);
        engine.verify_conservation().unwrap();
    }
    let r = engine.report();
    assert_eq!(r.departures, 0, "a masked output must not depart cells");
    assert_eq!(r.final_occupancy, 64, "arrivals must still buffer while masked");
    assert!(!engine.port_mask().is_full());
    // Recovery unmasks the output; the backlog drains one cell per slot.
    for _ in 200..300u64 {
        engine.step_faulted(&[], &mut plan, &mut log);
    }
    let r = engine.report();
    assert_eq!(r.departures, 64, "the backlog must drain after recovery");
    assert!(engine.port_mask().is_full());
}

/// Clock drift freezes the crossbar: arrivals buffer, nothing departs
/// until the excursion ends, and scheduling resumes afterwards.
#[test]
fn clock_drift_suspends_scheduling() {
    let n = 64;
    let mut engine = wide_engine(n, 0xD21F7);
    let mut plan = FaultPlan::from_events(vec![FaultEvent {
        slot: 4,
        kind: FaultKind::ClockDrift { switch: 0, slots: 32 },
    }]);
    let mut log = FaultLog::new();
    let mut rng = Xoshiro256::seed_from(0x1CE);
    let mut frozen_departures = None;
    for slot in 0..96u64 {
        engine.step_faulted(&arrivals_for(n, 0.4, &mut rng), &mut plan, &mut log);
        if slot == 4 {
            frozen_departures = Some(engine.departed());
        }
        if (5..36).contains(&slot) {
            assert_eq!(
                engine.departed(),
                frozen_departures.unwrap(),
                "slot {slot}: departures advanced during the drift excursion"
            );
        }
        engine.verify_conservation().unwrap();
    }
    assert!(
        engine.departed() > frozen_departures.unwrap(),
        "scheduling must resume after the excursion"
    );
}

/// The masked engine never matches a failed port even at the widest
/// radix: a spot check of the chaos engine's degraded-scheduling path at
/// N = 1024 with both an input-side and an output-side failure.
#[test]
fn wide_masked_ports_direct_traffic_around_failures() {
    let n = 1024;
    let mut engine = wide_engine(n, 0x71DE);
    let mut plan = FaultPlan::from_events(vec![
        FaultEvent {
            slot: 0,
            kind: FaultKind::PortFail { switch: 0, side: PortSide::Input, port: 100 },
        },
        FaultEvent {
            slot: 0,
            kind: FaultKind::LinkDown { switch: 0, output: 200 },
        },
    ]);
    let mut log = FaultLog::new();
    let mut rng = Xoshiro256::seed_from(0xFA11);
    for _ in 0..64u64 {
        engine.step_faulted(&arrivals_for(n, 0.1, &mut rng), &mut plan, &mut log);
        engine.verify_conservation().unwrap();
    }
    let r = engine.report();
    assert_eq!(
        r.departures_per_output[200], 0,
        "failed output 200 must not see departures"
    );
    assert!(r.departures > 0, "the healthy 1022 ports must keep moving cells");
    engine.verify_drop_ledger().unwrap();
}
