//! The experiment table: every text-rendering experiment `an2-repro`
//! runs, once.
//!
//! A row's `name` is its CLI subcommand, its `task_seed` key and its
//! committed render `results/<name>.txt`; `about` is its `--help` line;
//! `run` renders it; `probe` is the invariant probe `--check` runs after
//! it. `an2-repro`'s dispatch, `all` and `--help`, the `--check` probes
//! and the determinism property test (`tests/engine.rs`) all read this
//! table, so a new row is run, documented, checked and covered by adding
//! it here.
//!
//! The determinism contract: a row's render is a pure function of its
//! seed, whatever the pool's width. Each sweep cell seeds its own PRNG
//! from `task_seed(seed, key)` rather than from a shared stream, so the
//! work-stealing schedule cannot leak into the numbers.

use crate::check::Probe::{self, *};
use crate::{
    appendix_a, appendix_b, appendix_c, delay_curves, fairness_exp, fig1, frames_demo, karol,
    latency95, rng_ablation, stat_fairness, subframes, table1, table2, Effort,
};
use an2_sched::{AcceptPolicy, IterationLimit, Pim, RequestMatrix};
use an2_task::{fnv1a, task_seed, Fnv, Pool};
use std::fmt::Write as _;

/// One experiment: a named render plus the probe that checks it.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// CLI subcommand, `task_seed` key and `results/<name>.txt` stem.
    pub name: &'static str,
    /// One-line description for `--help`.
    pub about: &'static str,
    /// Renders the experiment from its own seed (see
    /// [`Experiment::render`]).
    pub run: fn(Effort, u64, &Pool) -> String,
    /// The invariant probe `--check` runs after the render.
    pub probe: Probe,
}

impl Experiment {
    /// Renders the experiment under the CLI's root `seed`. Every
    /// experiment runs from `task_seed(seed, name)`, so `--seed` steers
    /// all of them and no experiment's cell keys can collide with
    /// another's.
    pub fn render(&self, effort: Effort, seed: u64, pool: &Pool) -> String {
        (self.run)(effort, task_seed(seed, self.name), pool)
    }
}

/// The row named `name`, if any.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Every experiment, in `an2-repro all` order.
pub static EXPERIMENTS: &[Experiment] = &[
    row("table1", ToCompletion, "% of matches found within K PIM iterations (Table 1)",
        |e, s, p| table1::run(16, e, s, p).render()),
    row("table2", Pim4, "AN2 component cost breakdown (Table 2)",
        |_, _, _| table2::render()),
    row("fig1", Pim4, "FIFO stationary blocking vs PIM (Figure 1)",
        |e, s, p| fig1::run(16, e, s, p).render()),
    row("fig2", ToCompletion, "one traced PIM run on the paper's 4x4 pattern (Figure 2)",
        |_, s, _| fig2_trace(s)),
    row("fig3", Pim4, "delay vs load: fifo/pim4/output-queued, uniform (Figure 3)",
        |e, s, p| delay_curves::figure_3(e, s, p).render()),
    row("fig4", Pim4, "delay vs load, client-server workload (Figure 4)",
        |e, s, p| delay_curves::figure_4(e, s, p).render()),
    row("fig5", Pim4, "delay vs load by PIM iteration count (Figure 5)",
        |e, s, p| delay_curves::figure_5(e, s, p).render()),
    row("fig67", NetworkChain, "CBR frame schedule + rearrangement demo (Figures 6-7)",
        |_, _, _| frames_demo::run()),
    row("fig8", ToCompletion, "PIM single-switch unfairness (Figure 8)",
        |e, s, p| fairness_exp::figure_8(e, s, p).render()),
    row("fig9", NetworkChain, "chain-of-switches unfairness (Figure 9)",
        |e, s, p| fairness_exp::figure_9(e, s, p).render()),
    row("karol", Saturated, "FIFO saturation throughput vs N (~58%)",
        |e, s, p| karol::run(&[4, 8, 16, 32, 64], e, s, p).render()),
    row("latency95", Saturated, "the <13us mean delay at 95% load claim",
        |e, s, _| latency95::run(e, s).render()),
    row("appendix-a", ToCompletion64, "O(log N) iterations bound",
        |e, s, p| appendix_a::run(&[4, 8, 16, 32, 64, 128], e, s, p).render()),
    row("appendix-b", NetworkChain, "CBR latency/buffer bounds under clock drift",
        |e, s, p| appendix_b::run(e, s, p).render()),
    row("appendix-c", ToCompletion, "statistical matching 63%/72% throughput",
        |e, s, p| appendix_c::run(e, s, p).render()),
    row("ablate-sched", RoundRobinAccept, "PIM vs iSLIP vs RRM vs maximum matching",
        |e, s, p| delay_curves::ablate_schedulers(e, s, p).render()),
    row("crossover", Crossover, "queue-aware MWM-LQF/OCF + SERENADE vs PIM(4)/iSLIP(4)",
        |e, s, p| delay_curves::crossover(e, s, p).render()),
    row("ablate-rng", LowestAccept, "PIM sensitivity to RNG quality",
        |e, s, p| rng_ablation::run(e, s, p).render()),
    row("ablate-speedup", Pim4, "fabric speedup k (k-grant PIM + output buffers)",
        |e, s, p| delay_curves::ablate_speedup(e, s, p).render()),
    row("stat-fairness", ToCompletion, "statistical matching repairing Figure 8's unfairness",
        |e, s, p| stat_fairness::run(e, s, p).render()),
    row("subframes", NetworkChain, "frame subdivision latency/granularity trade-off (§4)",
        |e, s, p| subframes::run(e, s, p).render()),
    row("batch1024", Pim4, "N=1024 single switch on the batched engine: report digest",
        |e, s, _| batch1024(e, s)),
    row("net1000", Pim4, "1000-switch sharded ring network (10k slots with --full)",
        net1000),
];

/// A row, with its fields in the order the table writes them.
const fn row(
    name: &'static str,
    probe: Probe,
    about: &'static str,
    run: fn(Effort, u64, &Pool) -> String,
) -> Experiment {
    Experiment {
        name,
        about,
        run,
        probe,
    }
}

/// Figure 2: trace one PIM scheduling decision on the paper's request
/// pattern (also available as the `pim_trace` example with commentary).
fn fig2_trace(seed: u64) -> String {
    let mut out = "# Figure 2: one PIM run on the paper's 4x4 pattern (1-based ports)\n".to_owned();
    let reqs = RequestMatrix::from_pairs(4, [(0, 1), (0, 3), (1, 1), (2, 1), (3, 3)]);
    let mut pim = Pim::with_options(4, seed, IterationLimit::ToCompletion, AcceptPolicy::Random);
    let (m, _) = pim.schedule_traced(&reqs, &mut |rec| {
        let _ = writeln!(out, "iteration {}:", rec.iteration);
        for (sets, side, verb) in [
            (&rec.requests, "output", "requested by inputs"),
            (&rec.grants, "input", "granted by outputs"),
        ] {
            for (k, set) in sets.iter().enumerate().filter(|(_, set)| !set.is_empty()) {
                let from: Vec<String> = set.iter().map(|p| (p + 1).to_string()).collect();
                let _ = writeln!(out, "  {side} {} {verb} {}", k + 1, from.join(","));
            }
        }
        for (i, j) in &rec.accepts {
            let _ = writeln!(out, "  accept: input {} -> output {}", i.index() + 1, j.index() + 1);
        }
        let _ = writeln!(out, "  unresolved requests remaining: {}", rec.unresolved_after);
    });
    let pairs: Vec<String> = m
        .pairs()
        .map(|(i, j)| format!("{}->{}", i.index() + 1, j.index() + 1))
        .collect();
    let _ = writeln!(out, "final matching: {}", pairs.join(", "));
    out
}

/// `batch1024`: the batched engine on a 1024-port switch at light uniform
/// load, rendered as its report's deterministic fields and a digest of
/// them.
fn batch1024(effort: Effort, seed: u64) -> String {
    use an2_sched::WidePim;
    use an2_sim::batch::BatchCrossbar;
    use an2_sim::traffic::{SparseUniformTraffic, Traffic as _};
    use an2_sim::SwitchModel as _;

    let n = 1024;
    // The headline operating point: light uniform load (~51 cells/slot at
    // N=1024), where the engine sustains >=100k slots/sec.
    let load = 0.05;
    let warmup = effort.scale(500, 2_000);
    let measure = effort.scale(5_000, 50_000);
    let mut engine: BatchCrossbar<_, 16> = BatchCrossbar::new(n, WidePim::new(n, seed));
    let mut traffic = SparseUniformTraffic::new(n, load, task_seed(seed, "traffic"));
    let mut buf = Vec::with_capacity(n);
    for slot in 0..warmup + measure {
        if slot == warmup {
            engine.start_measurement();
        }
        buf.clear();
        traffic.arrivals(slot, &mut buf);
        engine.step_slot(&buf);
    }
    let r = engine.report();
    // Each field is chained onto the digest so far: d = fnv1a(d ‖ v).
    let mut digest = fnv1a(&r.slots.to_le_bytes());
    for v in [
        r.arrivals,
        r.departures,
        r.peak_occupancy as u64,
        r.final_occupancy as u64,
        r.delay.count(),
        r.delay.max(),
        r.delay.mean().to_bits(),
        r.delay.percentile(0.5),
        r.delay.percentile(0.99),
    ] {
        let mut h = Fnv::new();
        h.u64(digest);
        h.u64(v);
        digest = h.finish();
    }
    let mut out = String::new();
    let _ = writeln!(out, "# batch1024: pim4, load {load}, {measure} measured slots");
    let _ = writeln!(
        out,
        "arrivals {}  departures {}  peak {}  final {}",
        r.arrivals, r.departures, r.peak_occupancy, r.final_occupancy
    );
    let _ = writeln!(
        out,
        "delay mean {:.4}  p50 {}  p99 {}  max {}",
        r.delay.mean(),
        r.delay.percentile(0.5),
        r.delay.percentile(0.99),
        r.delay.max()
    );
    let _ = writeln!(out, "digest {digest:#018x}");
    out
}

/// `net1000`: the 1000-switch sharded ring network; its report carries
/// only seed-deterministic values.
fn net1000(effort: Effort, seed: u64, pool: &Pool) -> String {
    use an2_net::shard::{run_shard_net, ShardNetConfig};

    let mut cfg = ShardNetConfig::thousand();
    cfg.seed = seed;
    cfg.slots = effort.scale(2_000, 10_000);
    format!("{}\n", run_shard_net(&cfg, pool))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::Path;

    /// Stems of the `.txt` files in the workspace directory `dir`.
    fn committed(dir: &str) -> BTreeSet<String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(dir);
        std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|entry| entry.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "txt"))
            .map(|p| p.file_stem().expect("stem").to_string_lossy().into_owned())
            .collect()
    }

    #[test]
    fn names_are_unique() {
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }

    #[test]
    fn rows_and_committed_results_match_one_to_one() {
        let rows: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.name.to_owned()).collect();
        assert_eq!(committed("results"), rows);
        let full = committed("results-full");
        assert!(full.is_subset(&rows), "{:?} name no row", full.difference(&rows));
    }
}
