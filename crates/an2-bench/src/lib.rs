//! Experiment harness for the AN2 reproduction.
//!
//! Each module regenerates one table or figure of *High Speed Switch
//! Scheduling for Local Area Networks* (Anderson et al., ASPLOS 1992); the
//! [`experiments`] table lists them, and the `an2-repro` binary exposes
//! each row as a subcommand. Functions return structured results plus a
//! formatted text block matching the paper's presentation, so integration
//! tests can assert the *shape* of each result (who wins, by what factor,
//! where crossovers fall).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod appendix_a;
pub mod appendix_b;
pub mod appendix_c;
pub mod chaos;
pub mod check;
pub mod delay_curves;
pub mod experiments;
pub mod fairness_exp;
pub mod faults;
pub mod fig1;
pub mod frames_demo;
pub mod karol;
pub mod latency95;
pub mod perf;
pub mod plot;
pub mod rng_ablation;
pub mod stat_fairness;
pub mod subframes;
pub mod table1;
pub mod table2;

/// Effort level for an experiment run: `Quick` for smoke tests and CI,
/// `Full` for publication-quality statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effort {
    /// Small sample counts; seconds per experiment.
    Quick,
    /// Paper-scale sample counts; minutes per experiment.
    Full,
}

impl Effort {
    /// Scales a baseline count by the effort level.
    pub fn scale(self, quick: u64, full: u64) -> u64 {
        match self {
            Effort::Quick => quick,
            Effort::Full => full,
        }
    }
}
