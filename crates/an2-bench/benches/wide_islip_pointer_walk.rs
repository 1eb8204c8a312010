//! Criterion microbenchmark: the sparse wide-iSLIP grant walk.
//!
//! The sparse active-pair scheduling path prunes the grant phase to the
//! outputs that actually have requests and finds each grant pointer's
//! successor through the per-column nonzero-word bitmap, so decision cost
//! tracks traffic instead of N. This bench times the wide (16-word)
//! iSLIP kernel at N ∈ {256, 1024} under offered loads {0.05, 0.25}.
//!
//! "Load" here matches the perf harness's scaling curve: the per-input
//! offered load of the batch engine, whose steady-state request matrix
//! holds about `load × N` active pairs. The matrices are therefore drawn
//! at per-pair density `load / N` (≈51 pairs at N=1024, load 0.05), not
//! at density `load` like the saturated kernel grid — the sparse regime
//! is exactly where an N-proportional pointer walk would dominate, so
//! cost per decision should grow with load far more than with N.

use an2_sched::islip::WideRoundRobinMatching;
use an2_sched::rng::Xoshiro256;
use an2_sched::{Scheduler, WideRequestMatrix};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// Pre-generates a pool of random wide request matrices so RNG cost stays
/// out of the measured region.
fn matrices(n: usize, p: f64, count: usize, seed: u64) -> Vec<WideRequestMatrix> {
    let mut rng = Xoshiro256::seed_from(seed);
    (0..count)
        .map(|_| WideRequestMatrix::random(n, p, &mut rng))
        .collect()
}

fn bench_sparse(c: &mut Criterion) {
    for n in [256usize, 1024] {
        for load in [0.05f64, 0.25] {
            let mut group = c.benchmark_group(format!("wide_islip4_n{n}_load{load}"));
            // Engine-equivalent sparsity: ~load×N active pairs per matrix.
            let pool = matrices(n, load / n as f64, 32, 11);
            // Decisions per second is the headline; per-port throughput
            // keeps the numbers comparable across N.
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(BenchmarkId::new("sparse", n), &n, |b, &n| {
                let mut islip = WideRoundRobinMatching::islip(n, 4);
                let mut k = 0;
                b.iter(|| {
                    k = (k + 1) % pool.len();
                    islip.schedule(&pool[k])
                });
            });
            group.finish();
        }
    }
}

criterion_group!(benches, bench_sparse);
criterion_main!(benches);
