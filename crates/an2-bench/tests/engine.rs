//! Property tests for the parallel experiment engine: the experiment
//! table's renders must be a pure function of the root seed — independent
//! of thread count and submission order — and the derived-seed function
//! is pinned so a refactor cannot silently reshuffle every experiment.

use an2_bench::experiments::{self, Experiment, EXPERIMENTS};
use an2_bench::Effort;
use an2_task::{fnv1a, task_seed, Pool};
use proptest::prelude::*;

/// Rows too slow to render four times per case (release build, quick
/// effort): crossover ~13 s, ablate-speedup ~4.5 s, fig5 ~2.7 s,
/// ablate-sched ~2.1 s, fig3 ~1.4 s, fig4 ~1.0 s. Every other row,
/// including any row added later, is covered.
const COSTLY: [&str; 6] = [
    "crossover",
    "ablate-speedup",
    "fig5",
    "ablate-sched",
    "fig3",
    "fig4",
];

fn cheap_rows() -> Vec<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .filter(|e| !COSTLY.contains(&e.name))
        .collect()
}

/// Renders `rows` at quick effort on `pool` — across rows and inside each
/// row's own sweep — and returns `(name, fnv1a of the render)` in row
/// order.
fn digests(pool: Pool, root: u64, rows: Vec<&'static Experiment>) -> Vec<(&'static str, u64)> {
    pool.map(rows, |_, e| {
        let text = e.render(Effort::Quick, root, &pool);
        (e.name, fnv1a(text.as_bytes()))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Any subset of the cheap rows, submitted in any order, at 1, 2, or
    /// 4 threads, renders identically.
    #[test]
    fn digests_are_schedule_independent(
        order in Just((0..cheap_rows().len()).collect::<Vec<usize>>()).prop_shuffle(),
        k in 1usize..5,
        root in any::<u64>(),
    ) {
        let rows = cheap_rows();
        let sel: Vec<&'static Experiment> = order[..k].iter().map(|&i| rows[i]).collect();
        let base = digests(Pool::serial(), root, sel.clone());
        for threads in [2, 4] {
            let got = digests(Pool::new(threads), root, sel.clone());
            assert_eq!(base, got, "threads={threads} changed the digests");
        }
        // Submission order is also irrelevant: reversing the selection
        // permutes the result rows but not any row's digest.
        let rev: Vec<&'static Experiment> = sel.iter().rev().copied().collect();
        let rev_run = digests(Pool::new(2), root, rev);
        for (name, digest) in &base {
            let (_, d) = rev_run
                .iter()
                .find(|(n, _)| n == name)
                .expect("reversed run covers the same rows");
            assert_eq!(d, digest, "{name} digest changed with submission order");
        }
    }
}

#[test]
fn every_costly_row_exists() {
    for name in COSTLY {
        assert!(experiments::find(name).is_some(), "{name} is not a row");
    }
}

#[test]
fn digests_depend_on_the_seed() {
    let fig8 = vec![experiments::find("fig8").expect("fig8 row")];
    let a = digests(Pool::serial(), 1, fig8.clone());
    let b = digests(Pool::serial(), 2, fig8);
    assert_ne!(a[0].1, b[0].1, "different roots must yield different runs");
}

/// Pins `task_seed` itself. Every experiment's PRNG stream hangs off this
/// function, so changing it re-rolls the entire reproduction — these
/// constants make that an explicit, reviewed decision rather than an
/// accident.
#[test]
fn derived_seed_function_is_pinned() {
    let golden: [(u64, &str, u64); 5] = [
        (0, "", 0xf52a15e9a9b5e89b),
        (0xA52_1992, "table1", 0x9ba88b3d675733f9),
        (0xA52_1992, "faults", 0xfb1dcde2a10f68ce),
        (7, "curve/pim4", 0x3f24d201c1bc9058),
        (7, "load3fe0000000000000/rep0", 0x1d4485f633c51633),
    ];
    for (root, key, want) in golden {
        assert_eq!(
            task_seed(root, key),
            want,
            "task_seed({root:#x}, {key:?}) drifted"
        );
    }
}
