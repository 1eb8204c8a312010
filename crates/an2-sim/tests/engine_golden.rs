//! Golden pins of the single-switch engine's reports.
//!
//! `CrossbarSwitch` and `BatchCrossbar` are one engine: the first is a thin
//! newtype over the second. Before they were merged, `CrossbarSwitch` ran
//! its own slot loop over per-flow heap queues, and the two were held
//! bit-identical by a property test. The digests below were recorded from
//! that scalar loop over a fixed grid: five schedulers (PIM with four
//! iterations, PIM to completion, iSLIP, RRM, maximum matching), N ∈ {4,
//! 16, 64}, and four traffic shapes (uniform Bernoulli at loads 0.5 and
//! 0.95, on–off bursts spread uniformly, and bursts aimed at one hot
//! output), each at a fixed seed. Both faces of the merged engine must
//! reproduce every digest: same arrivals admitted, same requests
//! presented, same matchings drawn, same departures and delays recorded.

use an2_sched::islip::RoundRobinMatchingN;
use an2_sched::maximum::MaximumMatchingN;
use an2_sched::rng::{SelectRng, Xoshiro256};
use an2_sched::{AcceptPolicy, InputPort, IterationLimit, OutputPort, Pim, PimN, Scheduler};
use an2_sim::batch::BatchCrossbar;
use an2_sim::cell::Arrival;
use an2_sim::metrics::SwitchReport;
use an2_sim::model::SwitchModel;
use an2_sim::sim::{simulate, SimConfig};
use an2_sim::switch::CrossbarSwitch;
use an2_sim::traffic::{BurstyTraffic, RateMatrixTraffic, Traffic};
use an2_task::Fnv;

/// FNV-1a over the full report, matching `determinism.rs`'s field walk.
fn digest_report(r: &SwitchReport, queued: usize) -> u64 {
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
    for &(flow, count) in &r.departures_per_flow {
        mix(flow);
        mix(count);
    }
    mix(r.delay.count());
    mix(r.delay.max());
    mix(r.delay.mean().to_bits());
    mix(r.delay.percentile(0.5));
    mix(queued as u64);
    h.finish()
}

/// The grid's schedulers, by index.
fn make_scheduler(which: usize, n: usize, seed: u64) -> Box<dyn Scheduler> {
    match which {
        0 => Box::new(Pim::new(n, seed)),
        1 => Box::new(Pim::with_options(
            n,
            seed,
            IterationLimit::ToCompletion,
            AcceptPolicy::Random,
        )),
        2 => Box::new(RoundRobinMatchingN::islip(n, 4)),
        3 => Box::new(RoundRobinMatchingN::rrm(n, 4)),
        _ => Box::new(MaximumMatchingN::new()),
    }
}

/// Bernoulli(load) arrivals with uniform destinations, one flow per pair.
struct Uniform {
    n: usize,
    load: f64,
    rng: Xoshiro256,
}

impl Traffic for Uniform {
    fn n(&self) -> usize {
        self.n
    }

    fn arrivals(&mut self, _slot: u64, out: &mut Vec<Arrival>) {
        for i in 0..self.n {
            if self.rng.bernoulli(self.load) {
                let j = self.rng.index(self.n);
                out.push(Arrival::pair(self.n, InputPort::new(i), OutputPort::new(j)));
            }
        }
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

/// The grid's traffic shapes, by index. Short bursts at moderate load, and
/// a hot spot fed just above one cell per slot, keep pairs draining and
/// re-activating all run long.
fn make_traffic(shape: usize, n: usize, seed: u64) -> Box<dyn Traffic> {
    match shape {
        0 | 1 => Box::new(Uniform {
            n,
            load: [0.5, 0.95][shape],
            rng: Xoshiro256::seed_from(seed),
        }),
        2 => Box::new(BurstyTraffic::new(n, 0.8, 6.0, seed)),
        // The hot output receives n * load = 1.125 cells per slot.
        _ => Box::new(BurstyTraffic::new(n, 1.125 / n as f64, 4.0, seed).with_hotspot(n / 2)),
    }
}

/// Runs 32 warmup and 288 measured slots and digests the report.
fn run_digest(model: &mut dyn SwitchModel, traffic: &mut dyn Traffic) -> u64 {
    let mut buf = Vec::new();
    for slot in 0..320u64 {
        if slot == 32 {
            model.start_measurement();
        }
        buf.clear();
        traffic.arrivals(slot, &mut buf);
        model.step(&buf);
    }
    digest_report(&model.report(), model.queued())
}

const SIZES: [usize; 3] = [4, 16, 64];

/// Digests by `[scheduler][size][traffic shape]`, recorded from the
/// pre-merge scalar engine.
#[rustfmt::skip]
const GOLDEN: [[[u64; 4]; 3]; 5] = [
    // PIM(4)
    [
        [0x777c174f82d4202b, 0x9fee71aaba83b4ef, 0xb8229af07fab76c3, 0x7eb6902fda3c87e8],
        [0x8fc4a088cfeae4f8, 0x919230fdb2d6e4cb, 0xc1074645bec0950a, 0xc86d58bb0800acd2],
        [0xa022a16a82acc9f1, 0x0cdf43b63ca56773, 0xcc72513d83b958ba, 0xcf1ad53f75ad0b0b],
    ],
    // PIM to completion
    [
        [0xb6b68c715bc24dd4, 0xd0de41916a77e619, 0xc9940a9f64993843, 0xc776d67f1730b4d4],
        [0x27cb329879f08abd, 0x73e6249e5b41478d, 0xa38bb38b5b081d56, 0x882f1255b8ac047b],
        [0x37994e4a368cccbc, 0x88183f055a41dd90, 0x311240698c501ee2, 0xdbae5bf2ee76457e],
    ],
    // iSLIP(4)
    [
        [0xdb4a777a9b8c65c2, 0x4c5031c4bfdcd0a8, 0xcc2fe8d494871f3d, 0x296d0388e725c5e4],
        [0x73c575e7bf525cb3, 0x871ffc66e52c26ce, 0xb3e2e1bc62ba5063, 0xa8b881a7756cdff9],
        [0x50cf1f60ddff4de0, 0x38e37ba11a3c64c4, 0x5feb72bd5f9cfeb3, 0x6f47928528e89e2a],
    ],
    // RRM(4)
    [
        [0x75df2184b3d68fe9, 0x66b2857d9be0880b, 0xbf9742a71326f1af, 0x5e464709dd2a4573],
        [0xd0d76dd2ccf7c71b, 0x0e7f72b4c1103e49, 0x59e6b9741d6c084e, 0x3bbf4fd631fbecd4],
        [0x423e73a3d4d47996, 0xfa29115451b83794, 0x2dda7b3327a3e749, 0x928ff6f8c90b06ea],
    ],
    // maximum matching
    [
        [0x9651a23ed7d3b62f, 0x2d47ab0f6912b5b3, 0x459481d7a4f5a27b, 0xf4c65a397593c1c8],
        [0xaa4dd7031065ab98, 0xfe74990f5a46e2a4, 0xe9bd45b6a3830179, 0xa8d824aebb79d28e],
        [0x549a87ef3bf1fa1d, 0x9575b74145cd8aba, 0x0885408814cc094e, 0x9a426acf4b62943a],
    ],
];

/// Every grid case: scheduler, size, traffic shape and the case's seed.
fn cases() -> impl Iterator<Item = (usize, usize, usize, u64)> {
    (0..5).flat_map(|which| {
        (0..SIZES.len()).flat_map(move |size| {
            (0..4).map(move |shape| {
                let seed = 0x601d_0000 + (which * 100 + size * 10 + shape) as u64;
                (which, size, shape, seed)
            })
        })
    })
}

#[test]
fn crossbar_switch_reproduces_the_golden_digests() {
    for (which, size, shape, seed) in cases() {
        let n = SIZES[size];
        let mut sw = CrossbarSwitch::with_ports(n, make_scheduler(which, n, seed));
        let got = run_digest(&mut sw, &mut *make_traffic(shape, n, seed));
        assert_eq!(
            got, GOLDEN[which][size][shape],
            "CrossbarSwitch: scheduler {which} n {n} traffic {shape}"
        );
    }
}

#[test]
fn batch_crossbar_reproduces_the_golden_digests() {
    for (which, size, shape, seed) in cases() {
        let n = SIZES[size];
        let mut sw = BatchCrossbar::new(n, make_scheduler(which, n, seed));
        let got = run_digest(&mut sw, &mut *make_traffic(shape, n, seed));
        assert_eq!(
            got, GOLDEN[which][size][shape],
            "BatchCrossbar: scheduler {which} n {n} traffic {shape}"
        );
    }
}

/// The width an engine is compiled at is a capacity, not a decision: at
/// n <= 64 the one-word engine and the four-word one the benchmark pins
/// (`BatchCrossbar<Pim, 4>`) run PIM's loop on one word with one grant
/// mask per input, and must report alike, field for field, under bursty
/// and client-server load, with every accept policy.
#[test]
fn one_word_and_four_word_engines_report_alike() {
    let cfg = SimConfig {
        warmup_slots: 200,
        measure_slots: 2_000,
    };
    let traffic = |shape: usize, n: usize, seed: u64| -> Box<dyn Traffic> {
        if shape == 0 {
            Box::new(BurstyTraffic::new(n, 0.8, 32.0, seed))
        } else {
            Box::new(RateMatrixTraffic::client_server(n, 4, 0.9, 0.05, seed))
        }
    };
    for n in [16, 64] {
        for shape in 0..2 {
            for policy in [
                AcceptPolicy::Random,
                AcceptPolicy::RoundRobin,
                AcceptPolicy::LowestIndex,
            ] {
                let seed = 0x51de_0000 + (n * 10 + shape) as u64;
                let limit = IterationLimit::Fixed(4);
                let mut narrow: BatchCrossbar<_, 1> =
                    BatchCrossbar::new(n, PimN::<_, 1>::with_options(n, seed, limit, policy));
                let mut wide: BatchCrossbar<_, 4> =
                    BatchCrossbar::new(n, Pim::with_options(n, seed, limit, policy));
                let a = simulate(&mut narrow, &mut *traffic(shape, n, seed), cfg);
                let b = simulate(&mut wide, &mut *traffic(shape, n, seed), cfg);
                assert!(a.departures > 0, "n {n} traffic {shape}: nothing crossed");
                assert_eq!(a, b, "n {n} traffic {shape} policy {policy:?}");
            }
        }
    }
}
