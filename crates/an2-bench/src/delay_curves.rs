//! Delay-vs-load curves: Figures 3, 4 and 5, plus scheduler ablations.
//!
//! * **Figure 3** — uniform workload, 16×16: FIFO queueing vs parallel
//!   iterative matching (4 iterations) vs perfect output queueing.
//! * **Figure 4** — client–server workload (4 servers, client–client at 5%
//!   of client–server intensity), offered load measured on a server link.
//! * **Figure 5** — PIM with 1, 2, 3, 4 iterations and run-to-completion
//!   under the uniform workload.
//! * **Ablation** — PIM vs its round-robin successors (RRM, iSLIP) and the
//!   maximum-matching upper baseline (§3.4).

use crate::Effort;
use an2_sched::fifo::FifoPriority;
use an2_sched::islip::RoundRobinMatchingN;
use an2_sched::maximum::MaximumMatchingN;
use an2_sched::{with_port_width, AcceptPolicy, IterationLimit, MwmN, PimN, SerenadeN};
use an2_sim::experiment::{format_sweep, load_sweep, RunFactory, SweepPoint};
use an2_sim::fifo_switch::FifoSwitch;
use an2_sim::model::SwitchModel;
use an2_sim::output_queued::OutputQueuedSwitch;
use an2_sim::sim::SimConfig;
use an2_sim::switch::CrossbarSwitch;
use an2_sim::traffic::{RateMatrixTraffic, Traffic};
use an2_task::{task_seed, Pool};

/// Which switch/scheduler configuration a curve simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchKind {
    /// FIFO input queueing (random priority).
    Fifo,
    /// PIM with a fixed iteration budget.
    Pim(usize),
    /// PIM run to completion every slot.
    PimComplete,
    /// Perfect output queueing.
    OutputQueued,
    /// Maximum matching (Hopcroft–Karp) every slot.
    Maximum,
    /// iSLIP with the given iteration budget.
    Islip(usize),
    /// RRM with the given iteration budget.
    Rrm(usize),
    /// k-grant PIM over a k-replicated fabric with output buffers (§3.1).
    Speedup(usize),
    /// Max-weight matching, longest-queue-first weights.
    MwmLqf,
    /// Max-weight matching, oldest-cell-first weights.
    MwmOcf,
    /// SERENADE-style merge of two random maximal matchings.
    Serenade,
}

impl SwitchKind {
    /// A short label for table headers.
    pub fn label(self) -> String {
        match self {
            SwitchKind::Fifo => "fifo".into(),
            SwitchKind::Pim(k) => format!("pim{k}"),
            SwitchKind::PimComplete => "pim-inf".into(),
            SwitchKind::OutputQueued => "outq".into(),
            SwitchKind::Maximum => "maxm".into(),
            SwitchKind::Islip(k) => format!("islip{k}"),
            SwitchKind::Rrm(k) => format!("rrm{k}"),
            SwitchKind::Speedup(k) => format!("spdup{k}"),
            SwitchKind::MwmLqf => "mwm-lqf".into(),
            SwitchKind::MwmOcf => "mwm-ocf".into(),
            SwitchKind::Serenade => "serenade".into(),
        }
    }

    /// Builds the switch; crossbar kinds run on the port-set width `n`
    /// picks.
    fn build(self, n: usize, seed: u64) -> Box<dyn SwitchModel> {
        with_port_width!(n, W => match self {
            SwitchKind::Fifo => Box::new(FifoSwitch::new(n, FifoPriority::Random, seed)),
            SwitchKind::Pim(k) => Box::new(CrossbarSwitch::new(PimN::<_, W>::with_options(
                n,
                seed,
                IterationLimit::Fixed(k),
                AcceptPolicy::Random,
            ))),
            SwitchKind::PimComplete => Box::new(CrossbarSwitch::new(PimN::<_, W>::with_options(
                n,
                seed,
                IterationLimit::ToCompletion,
                AcceptPolicy::Random,
            ))),
            SwitchKind::OutputQueued => Box::new(OutputQueuedSwitch::new(n)),
            SwitchKind::Maximum => {
                Box::new(CrossbarSwitch::with_ports(n, MaximumMatchingN::<W>::new()))
            }
            SwitchKind::Islip(k) => Box::new(CrossbarSwitch::new(
                RoundRobinMatchingN::<W>::islip(n, k),
            )),
            SwitchKind::Rrm(k) => {
                Box::new(CrossbarSwitch::new(RoundRobinMatchingN::<W>::rrm(n, k)))
            }
            SwitchKind::Speedup(k) => {
                Box::new(an2_sim::speedup_switch::SpeedupSwitch::new(n, k, 4, seed))
            }
            SwitchKind::MwmLqf => Box::new(CrossbarSwitch::new(MwmN::<W>::lqf(n))),
            SwitchKind::MwmOcf => Box::new(CrossbarSwitch::new(MwmN::<W>::ocf(n))),
            SwitchKind::Serenade => Box::new(CrossbarSwitch::new(SerenadeN::<W>::new(n, seed))),
        })
    }
}

/// Which workload feeds the sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Uniform Bernoulli destinations (Figures 3 and 5).
    Uniform,
    /// Client–server with 4 servers and 5% client–client intensity
    /// (Figure 4); the load parameter is the server-link load.
    ClientServer,
}

impl Workload {
    fn build(self, n: usize, load: f64, seed: u64) -> Box<dyn Traffic> {
        match self {
            Workload::Uniform => Box::new(RateMatrixTraffic::uniform(n, load, seed)),
            Workload::ClientServer => {
                Box::new(RateMatrixTraffic::client_server(n, 4, load, 0.05, seed))
            }
        }
    }
}

/// A family of delay-vs-load curves over a common load axis.
#[derive(Clone, Debug)]
pub struct CurveSet {
    /// Experiment title.
    pub title: String,
    /// One `(label, points)` series per configuration.
    pub series: Vec<(String, Vec<SweepPoint>)>,
}

impl CurveSet {
    /// Formats the curves as an aligned text table followed by an ASCII
    /// log-scale plot (the paper's figures are log-delay curves).
    pub fn render(&self) -> String {
        let refs: Vec<(&str, &[SweepPoint])> = self
            .series
            .iter()
            .map(|(l, p)| (l.as_str(), p.as_slice()))
            .collect();
        let mut out = format_sweep(&self.title, &refs);
        let plot_series: Vec<(&str, Vec<(f64, f64)>)> = self
            .series
            .iter()
            .map(|(l, pts)| {
                (
                    l.as_str(),
                    pts.iter().map(|p| (p.load, p.mean_delay())).collect(),
                )
            })
            .collect();
        out.push('\n');
        out.push_str(&crate::plot::ascii_plot(
            "mean delay (slots, log scale) vs offered load",
            &plot_series,
            64,
            16,
            true,
        ));
        out
    }

    /// The series with the given label, if present.
    pub fn series(&self, label: &str) -> Option<&[SweepPoint]> {
        self.series
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, p)| p.as_slice())
    }
}

struct Factory {
    kind: SwitchKind,
    workload: Workload,
    n: usize,
}

impl RunFactory for Factory {
    fn build(&self, load: f64, seed: u64) -> (Box<dyn SwitchModel>, Box<dyn Traffic>) {
        (
            self.kind.build(self.n, seed),
            self.workload.build(self.n, load, seed ^ 0x5A5A),
        )
    }
}

fn sim_config(effort: Effort) -> SimConfig {
    SimConfig {
        warmup_slots: effort.scale(10_000, 50_000),
        measure_slots: effort.scale(40_000, 400_000),
    }
}

/// Axes of one delay-vs-load sweep: which switches run, under what
/// workload, over which load points, at what radix.
#[derive(Clone, Copy, Debug)]
pub struct SweepSpec<'a> {
    /// Plot title.
    pub title: &'a str,
    /// Switch radix.
    pub n: usize,
    /// Switch kinds, one curve each.
    pub kinds: &'a [SwitchKind],
    /// Traffic workload shared by all curves.
    pub workload: Workload,
    /// Offered-load axis.
    pub loads: &'a [f64],
}

/// Runs one delay-vs-load sweep for several switch kinds on a common load
/// axis. Each curve derives its own root seed from
/// `task_seed(root_seed, "curve/<label>")`, and `load_sweep` splits it
/// further per (load, replication) cell, so the whole grid is a pure
/// function of `root_seed` regardless of pool size.
pub fn sweep(spec: &SweepSpec<'_>, effort: Effort, root_seed: u64, pool: &Pool) -> CurveSet {
    let cfg = sim_config(effort);
    let reps = effort.scale(1, 3);
    let series = spec
        .kinds
        .iter()
        .map(|&kind| {
            let f = Factory {
                kind,
                workload: spec.workload,
                n: spec.n,
            };
            let curve_seed = task_seed(root_seed, &format!("curve/{}", kind.label()));
            (
                kind.label(),
                load_sweep(spec.loads, &f, cfg, reps, curve_seed, pool),
            )
        })
        .collect();
    CurveSet {
        title: spec.title.to_string(),
        series,
    }
}

/// The default load axis of the figures.
pub fn default_loads() -> Vec<f64> {
    vec![0.10, 0.20, 0.30, 0.40, 0.50, 0.55, 0.60, 0.65, 0.70, 0.80, 0.90, 0.95, 0.99]
}

/// Figure 3: FIFO vs PIM(4) vs output queueing, uniform workload, 16×16.
pub fn figure_3(effort: Effort, seed: u64, pool: &Pool) -> CurveSet {
    sweep(
        &SweepSpec {
            title: "Figure 3: mean delay (slots) vs offered load, uniform, 16x16",
            n: 16,
            kinds: &[SwitchKind::Fifo, SwitchKind::Pim(4), SwitchKind::OutputQueued],
            workload: Workload::Uniform,
            loads: &default_loads(),
        },
        effort,
        seed,
        pool,
    )
}

/// Figure 4: the same switches under the client–server workload.
pub fn figure_4(effort: Effort, seed: u64, pool: &Pool) -> CurveSet {
    sweep(
        &SweepSpec {
            title: "Figure 4: mean delay (slots) vs server-link load, client-server, 16x16",
            n: 16,
            kinds: &[SwitchKind::Fifo, SwitchKind::Pim(4), SwitchKind::OutputQueued],
            workload: Workload::ClientServer,
            loads: &default_loads(),
        },
        effort,
        seed,
        pool,
    )
}

/// Figure 5: PIM iteration count 1–4 and run-to-completion, uniform.
pub fn figure_5(effort: Effort, seed: u64, pool: &Pool) -> CurveSet {
    sweep(
        &SweepSpec {
            title: "Figure 5: PIM mean delay (slots) vs offered load by iteration count, uniform, 16x16",
            n: 16,
            kinds: &[
            SwitchKind::Pim(1),
            SwitchKind::Pim(2),
            SwitchKind::Pim(3),
            SwitchKind::Pim(4),
            SwitchKind::PimComplete,
        ],
            workload: Workload::Uniform,
            loads: &default_loads(),
        },
        effort,
        seed,
        pool,
    )
}

/// Ablation: fabric speedup k ∈ {1, 2, 4} between plain PIM and perfect
/// output queueing (§3.1's replicated-fabric generalization).
pub fn ablate_speedup(effort: Effort, seed: u64, pool: &Pool) -> CurveSet {
    sweep(
        &SweepSpec {
            title: "Ablation: fabric speedup (k-grant PIM + output buffers), uniform, 16x16",
            n: 16,
            kinds: &[
            SwitchKind::Pim(4),
            SwitchKind::Speedup(1),
            SwitchKind::Speedup(2),
            SwitchKind::Speedup(4),
            SwitchKind::OutputQueued,
        ],
            workload: Workload::Uniform,
            loads: &default_loads(),
        },
        effort,
        seed,
        pool,
    )
}

/// Crossover study: queue-aware scheduling (MWM-LQF, MWM-OCF, SERENADE)
/// against the paper's queue-oblivious family (PIM(4), iSLIP(4)).
///
/// At low load every maximal matcher looks alike; the interesting regime
/// is the top of the load axis, where queue weights keep VOQs balanced
/// and the delay curves cross. MWM is the quality ceiling for this
/// family; SERENADE shows how much of that a two-proposal randomized
/// merge recovers.
pub fn crossover(effort: Effort, seed: u64, pool: &Pool) -> CurveSet {
    sweep(
        &SweepSpec {
            title: "Crossover: MWM-LQF/OCF vs SERENADE vs PIM(4) vs iSLIP(4), uniform, 16x16",
            n: 16,
            kinds: &[
            SwitchKind::Pim(4),
            SwitchKind::Islip(4),
            SwitchKind::MwmLqf,
            SwitchKind::MwmOcf,
            SwitchKind::Serenade,
        ],
            workload: Workload::Uniform,
            loads: &default_loads(),
        },
        effort,
        seed,
        pool,
    )
}

/// Ablation: PIM vs iSLIP vs RRM vs maximum matching, uniform workload.
pub fn ablate_schedulers(effort: Effort, seed: u64, pool: &Pool) -> CurveSet {
    sweep(
        &SweepSpec {
            title: "Ablation: PIM(4) vs iSLIP(4) vs RRM(4) vs maximum matching, uniform, 16x16",
            n: 16,
            kinds: &[
            SwitchKind::Pim(4),
            SwitchKind::Islip(4),
            SwitchKind::Rrm(4),
            SwitchKind::Maximum,
        ],
            workload: Workload::Uniform,
            loads: &default_loads(),
        },
        effort,
        seed,
        pool,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A coarse grid keeps the test quick while still spanning the
    /// regimes: below FIFO saturation, between, and near line rate.
    const TEST_LOADS: [f64; 3] = [0.30, 0.70, 0.95];

    #[test]
    fn figure_3_shape() {
        let cs = sweep(
            &SweepSpec {
                title: "t",
                n: 16,
                kinds: &[SwitchKind::Fifo, SwitchKind::Pim(4), SwitchKind::OutputQueued],
                workload: Workload::Uniform,
                loads: &TEST_LOADS,
            },
            Effort::Quick,
            7,
            &Pool::new(2),
        );
        let fifo = cs.series("fifo").unwrap();
        let pim = cs.series("pim4").unwrap();
        let outq = cs.series("outq").unwrap();
        // Low load: all three roughly agree (paper: "little difference").
        assert!((fifo[0].mean_delay() - outq[0].mean_delay()).abs() < 1.5);
        assert!((pim[0].mean_delay() - outq[0].mean_delay()).abs() < 1.0);
        // Above FIFO saturation (0.7): FIFO blows up, PIM does not.
        assert!(fifo[1].mean_delay() > 10.0 * pim[1].mean_delay());
        assert!(fifo[1].utilization < 0.68);
        // Near line rate: PIM keeps utilization and a delay within a small
        // multiple of output queueing.
        assert!(pim[2].utilization > 0.90);
        assert!(pim[2].mean_delay() < 12.0 * outq[2].mean_delay() + 20.0);
        assert!(pim[2].mean_delay() >= outq[2].mean_delay() * 0.9);
    }

    #[test]
    fn figure_4_client_server_shape() {
        let cs = sweep(
            &SweepSpec {
                title: "t",
                n: 16,
                kinds: &[SwitchKind::Pim(4), SwitchKind::OutputQueued],
                workload: Workload::ClientServer,
                loads: &[0.5, 0.9],
            },
            Effort::Quick,
            7,
            &Pool::new(2),
        );
        let pim = cs.series("pim4").unwrap();
        let outq = cs.series("outq").unwrap();
        // Paper: PIM comes "even closer to optimal than in the uniform
        // case". Sanity: within a modest multiple at high server load.
        assert!(pim[1].mean_delay() < 4.0 * outq[1].mean_delay() + 8.0);
    }

    #[test]
    fn figure_5_iterations_shape() {
        let cs = sweep(
            &SweepSpec {
                title: "t",
                n: 16,
                kinds: &[
                SwitchKind::Pim(1),
                SwitchKind::Pim(4),
                SwitchKind::PimComplete,
            ],
                workload: Workload::Uniform,
                loads: &[0.6, 0.9],
            },
            Effort::Quick,
            7,
            &Pool::new(2),
        );
        let p1 = cs.series("pim1").unwrap();
        let p4 = cs.series("pim4").unwrap();
        let pinf = cs.series("pim-inf").unwrap();
        // One iteration is clearly worse at high load...
        assert!(p1[1].mean_delay() > 1.5 * p4[1].mean_delay());
        // ...while four iterations sit within a whisker of completion
        // (paper: within 0.5%; we allow simulation noise).
        let rel = (p4[1].mean_delay() - pinf[1].mean_delay()).abs() / pinf[1].mean_delay();
        assert!(rel < 0.10, "pim4 vs completion differ by {rel}");
    }

    #[test]
    fn speedup_interpolates_between_pim_and_output_queueing() {
        let cs = sweep(
            &SweepSpec {
                title: "t",
                n: 16,
                kinds: &[
                SwitchKind::Pim(4),
                SwitchKind::Speedup(2),
                SwitchKind::OutputQueued,
            ],
                workload: Workload::Uniform,
                loads: &[0.9],
            },
            Effort::Quick,
            7,
            &Pool::new(2),
        );
        let pim = cs.series("pim4").unwrap()[0].mean_delay();
        let spd = cs.series("spdup2").unwrap()[0].mean_delay();
        let oq = cs.series("outq").unwrap()[0].mean_delay();
        assert!(oq <= spd * 1.05, "oq {oq} vs speedup2 {spd}");
        assert!(spd < pim * 0.8, "speedup2 {spd} should clearly beat pim {pim}");
    }

    #[test]
    fn crossover_queue_aware_schedulers_sustain_high_load() {
        let cs = sweep(
            &SweepSpec {
                title: "t",
                n: 16,
                kinds: &[
                SwitchKind::Pim(4),
                SwitchKind::MwmLqf,
                SwitchKind::MwmOcf,
                SwitchKind::Serenade,
            ],
                workload: Workload::Uniform,
                loads: &[0.95],
            },
            Effort::Quick,
            7,
            &Pool::new(2),
        );
        let pim = cs.series("pim4").unwrap()[0].mean_delay();
        for label in ["mwm-lqf", "mwm-ocf", "serenade"] {
            let pt = &cs.series(label).unwrap()[0];
            // Queue-aware maximal matchers must not collapse where PIM
            // holds up: full utilization and a delay in PIM's ballpark.
            assert!(pt.utilization > 0.90, "{label} utilization {}", pt.utilization);
            assert!(
                pt.mean_delay() < 4.0 * pim + 20.0,
                "{label} delay {} vs pim {pim}",
                pt.mean_delay()
            );
        }
    }

    #[test]
    fn labels_are_unique() {
        let kinds = [
            SwitchKind::Fifo,
            SwitchKind::Pim(1),
            SwitchKind::Pim(4),
            SwitchKind::PimComplete,
            SwitchKind::OutputQueued,
            SwitchKind::Maximum,
            SwitchKind::Islip(4),
            SwitchKind::Rrm(4),
            SwitchKind::MwmLqf,
            SwitchKind::MwmOcf,
            SwitchKind::Serenade,
        ];
        let labels: std::collections::HashSet<String> =
            kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }
}
