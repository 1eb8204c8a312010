//! Load sweeps and replication — the machinery behind Figures 3–5.
//!
//! Each figure in the paper plots mean queueing delay against offered
//! load for one or more switch configurations. [`load_sweep`] runs one
//! configuration across a list of loads, optionally replicated over
//! multiple seeds, and returns the per-load summary rows. Every
//! (load, replication) cell is a self-contained task on the caller's
//! work-stealing [`Pool`] with a seed derived from
//! `task_seed(root_seed, "load<bits>/rep<r>")`, so the results are
//! byte-identical no matter how many workers run the sweep or in what
//! order the tasks complete.

use crate::metrics::{DelayStats, SwitchReport};
use crate::model::SwitchModel;
use crate::sim::{simulate, SimConfig};
use crate::traffic::Traffic;
use an2_task::{task_seed, Pool};

/// Summary of one load point of a sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The offered load of this point.
    pub load: f64,
    /// Merged delay statistics across replications.
    pub delay: DelayStats,
    /// Mean output-link utilization (delivered throughput per link).
    pub utilization: f64,
    /// Mean peak buffer occupancy across replications.
    pub mean_peak_occupancy: f64,
    /// Per-replication mean delays (for confidence intervals).
    pub replication_means: Vec<f64>,
}

impl SweepPoint {
    /// Mean queueing delay in cell slots — the y-axis of Figures 3–5.
    pub fn mean_delay(&self) -> f64 {
        self.delay.mean()
    }

    /// Half-width of a normal-approximation 95% confidence interval on
    /// the mean delay, from the replication means. `None` with fewer than
    /// two replications.
    pub fn delay_ci95(&self) -> Option<f64> {
        let n = self.replication_means.len();
        if n < 2 {
            return None;
        }
        let mean = self.replication_means.iter().sum::<f64>() / n as f64;
        let var = self
            .replication_means
            .iter()
            .map(|m| (m - mean) * (m - mean))
            .sum::<f64>()
            / (n as f64 - 1.0);
        Some(1.96 * (var / n as f64).sqrt())
    }
}

/// Builds the (model, traffic) pair for one run of a sweep.
///
/// Implemented by closures: `|load, seed| (model, traffic)`. Each
/// invocation must return a fresh pair; seeds differ per replication.
pub trait RunFactory: Sync {
    /// Creates the switch model and traffic source for one run.
    fn build(&self, load: f64, seed: u64) -> (Box<dyn SwitchModel>, Box<dyn Traffic>);
}

impl<F> RunFactory for F
where
    F: Fn(f64, u64) -> (Box<dyn SwitchModel>, Box<dyn Traffic>) + Sync,
{
    fn build(&self, load: f64, seed: u64) -> (Box<dyn SwitchModel>, Box<dyn Traffic>) {
        self(load, seed)
    }
}

/// Runs a load sweep: for every load in `loads`, `replications` runs with
/// distinct seeds, merged into one [`SweepPoint`]. Every
/// (load, replication) cell is an independent task on `pool`; its seed is
/// `task_seed(root_seed, "load<f64 bits>/rep<r>")`, a pure function of the
/// cell, so worker count and completion order cannot change any result.
///
/// # Panics
///
/// Panics if `replications == 0`.
pub fn load_sweep(
    loads: &[f64],
    factory: &dyn RunFactory,
    cfg: SimConfig,
    replications: u64,
    root_seed: u64,
    pool: &Pool,
) -> Vec<SweepPoint> {
    assert!(replications > 0, "at least one replication is required");
    let mut cells = Vec::with_capacity(loads.len() * replications as usize);
    for &load in loads {
        for rep in 0..replications {
            cells.push((load, rep));
        }
    }
    let reports = pool.map(cells, |_, (load, rep)| {
        let seed = task_seed(root_seed, &format!("load{:016x}/rep{rep}", load.to_bits()));
        let (mut model, mut traffic) = factory.build(load, seed);
        simulate(model.as_mut(), traffic.as_mut(), cfg)
    });
    reports
        .chunks(replications as usize)
        .zip(loads)
        .map(|(reps, &load)| merge_point(load, reps))
        .collect()
}

fn merge_point(load: f64, reports: &[SwitchReport]) -> SweepPoint {
    let mut delay = DelayStats::new();
    let mut replication_means = Vec::with_capacity(reports.len());
    for report in reports {
        delay.merge(&report.delay);
        replication_means.push(report.delay.mean());
    }
    let utilization =
        reports.iter().map(SwitchReport::mean_output_utilization).sum::<f64>() / reports.len() as f64;
    let mean_peak_occupancy =
        reports.iter().map(|r| r.peak_occupancy as f64).sum::<f64>() / reports.len() as f64;
    SweepPoint {
        load,
        delay,
        utilization,
        mean_peak_occupancy,
        replication_means,
    }
}

/// Formats sweep results as an aligned text table (one row per load), the
/// output format of the `an2-repro` harness.
pub fn format_sweep(title: &str, series: &[(&str, &[SweepPoint])]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = write!(out, "{:>6}", "load");
    for (name, _) in series {
        let _ = write!(out, " {:>12} {:>8}", format!("{name}:delay"), "util");
    }
    let _ = writeln!(out);
    let rows = series.first().map_or(0, |(_, pts)| pts.len());
    for r in 0..rows {
        let _ = write!(out, "{:>6.3}", series[0].1[r].load);
        for (_, pts) in series {
            let p = &pts[r];
            let _ = write!(out, " {:>12.3} {:>8.4}", p.mean_delay(), p.utilization);
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output_queued::OutputQueuedSwitch;
    use crate::switch::CrossbarSwitch;
    use crate::traffic::RateMatrixTraffic;
    use an2_sched::{with_port_width, PimN};

    fn pim_factory(n: usize) -> impl RunFactory {
        move |load: f64, seed: u64| {
            let model: Box<dyn SwitchModel> =
                with_port_width!(n, W => Box::new(CrossbarSwitch::new(PimN::<_, W>::new(n, seed))));
            let traffic: Box<dyn Traffic> =
                Box::new(RateMatrixTraffic::uniform(n, load, seed ^ 1));
            (model, traffic)
        }
    }

    const SEED: u64 = 0xA5;

    fn sweep(
        loads: &[f64],
        factory: &dyn RunFactory,
        replications: u64,
    ) -> Vec<SweepPoint> {
        load_sweep(
            loads,
            factory,
            SimConfig::quick(),
            replications,
            SEED,
            &Pool::new(2),
        )
    }

    #[test]
    fn sweep_points_align_with_loads() {
        let loads = [0.2, 0.5, 0.8];
        let pts = sweep(&loads, &pim_factory(8), 2);
        assert_eq!(pts.len(), 3);
        for (p, &l) in pts.iter().zip(&loads) {
            assert_eq!(p.load, l);
            assert!(p.delay.count() > 0);
        }
        // Delay grows with load.
        assert!(pts[2].mean_delay() > pts[0].mean_delay());
        // Utilization tracks offered load below saturation.
        assert!((pts[1].utilization - 0.5).abs() < 0.05);
    }

    #[test]
    fn output_queued_delay_is_a_lower_bound() {
        let loads = [0.6, 0.9];
        let oq = |load: f64, seed: u64| {
            let m: Box<dyn SwitchModel> = Box::new(OutputQueuedSwitch::new(8));
            let t: Box<dyn Traffic> = Box::new(RateMatrixTraffic::uniform(8, load, seed));
            (m, t)
        };
        let pim_pts = sweep(&loads, &pim_factory(8), 2);
        let oq_pts = sweep(&loads, &oq, 2);
        for (p, o) in pim_pts.iter().zip(&oq_pts) {
            assert!(
                p.mean_delay() >= o.mean_delay() * 0.95,
                "PIM {} vs OQ {} at load {}",
                p.mean_delay(),
                o.mean_delay(),
                p.load
            );
        }
    }

    #[test]
    fn confidence_interval_reflects_replication_spread() {
        let pts = sweep(&[0.8], &pim_factory(8), 4);
        let p = &pts[0];
        assert_eq!(p.replication_means.len(), 4);
        let ci = p.delay_ci95().expect("4 replications give a CI");
        assert!(ci > 0.0);
        // The CI half-width is small relative to the mean at this scale.
        assert!(ci < p.mean_delay(), "ci {ci} vs mean {}", p.mean_delay());
        // A single replication has no CI.
        let single = sweep(&[0.8], &pim_factory(8), 1);
        assert!(single[0].delay_ci95().is_none());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        // The per-cell derived seeds make the sweep a pure function of
        // (loads, factory, cfg, replications, root_seed) — the pool size
        // must be invisible in the output.
        let loads = [0.3, 0.7, 0.9];
        let runs: Vec<Vec<SweepPoint>> = [1, 2, 5]
            .iter()
            .map(|&threads| {
                load_sweep(
                    &loads,
                    &pim_factory(8),
                    SimConfig::quick(),
                    3,
                    SEED,
                    &Pool::new(threads),
                )
            })
            .collect();
        for run in &runs[1..] {
            for (a, b) in runs[0].iter().zip(run) {
                assert_eq!(a.load, b.load);
                assert_eq!(a.delay.mean().to_bits(), b.delay.mean().to_bits());
                assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
                assert_eq!(a.replication_means, b.replication_means);
            }
        }
    }

    #[test]
    fn format_sweep_renders_rows() {
        let pts = sweep(&[0.3], &pim_factory(4), 1);
        let s = format_sweep("demo", &[("pim", &pts)]);
        assert!(s.contains("# demo"));
        assert!(s.contains("pim:delay"));
        assert!(s.contains("0.300"));
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_panics() {
        let _ = sweep(&[0.5], &pim_factory(4), 0);
    }
}
