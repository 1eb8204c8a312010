//! FIFO saturation throughput vs switch size (§2.4, Karol et al. 1987).
//!
//! "Head-of-line blocking limits switch throughput to 58% of each link,
//! when the destinations of incoming cells are uniformly distributed."
//! The exact asymptote is `2 − √2 ≈ 0.586`; finite switches sit slightly
//! above it. This sweep measures the saturation utilization of the FIFO
//! switch across sizes and contrasts PIM at `N = 16`.

use crate::Effort;
use an2_sched::fifo::FifoPriority;
use an2_sched::{with_port_width, PimN};
use an2_sim::fifo_switch::FifoSwitch;
use an2_sim::model::SwitchModel;
use an2_sim::switch::CrossbarSwitch;
use an2_sim::traffic::{RateMatrixTraffic, Traffic};
use an2_task::{task_seed, Pool};
use std::fmt::Write as _;

/// Karol's asymptotic FIFO saturation throughput, `2 − √2`.
pub fn hol_asymptote() -> f64 {
    2.0 - std::f64::consts::SQRT_2
}

/// Result of the saturation sweep.
#[derive(Clone, Debug)]
pub struct KarolResult {
    /// `(n, fifo saturation utilization)` per switch size.
    pub fifo: Vec<(usize, f64)>,
    /// PIM(4) saturation utilization at `N = 16`, for contrast.
    pub pim_16: f64,
}

impl KarolResult {
    /// Formats the result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# FIFO saturation throughput vs N (uniform, offered load 1.0); asymptote 2-sqrt(2) = {:.4}",
            hol_asymptote()
        );
        let _ = writeln!(out, "{:>4} {:>10}", "N", "fifo util");
        for (n, u) in &self.fifo {
            let _ = writeln!(out, "{n:>4} {u:>10.4}");
        }
        let _ = writeln!(out, "PIM(4) at N=16 for contrast: {:.4}", self.pim_16);
        out
    }
}

/// Measures saturation utilization for FIFO switches of the given sizes.
/// Each size plus the PIM(4) contrast run is one pool task seeded by
/// `task_seed(seed, "karol/<which>")`.
pub fn run(sizes: &[usize], effort: Effort, seed: u64, pool: &Pool) -> KarolResult {
    let slots = effort.scale(30_000, 300_000);
    let saturation = |model: &mut dyn SwitchModel, n: usize, seed: u64| -> f64 {
        let mut t = RateMatrixTraffic::uniform(n, 1.0, seed);
        let mut buf = Vec::new();
        for s in 0..slots {
            if s == slots / 3 {
                model.start_measurement();
            }
            buf.clear();
            t.arrivals(s, &mut buf);
            model.step(&buf);
        }
        model.report().mean_output_utilization()
    };
    // `Some(n)` = FIFO saturation at radix n; `None` = the PIM(4) contrast.
    let mut tasks: Vec<Option<usize>> = sizes.iter().copied().map(Some).collect();
    tasks.push(None);
    let utils = pool.map(tasks, |_, t| match t {
        Some(n) => {
            let s = task_seed(seed, &format!("karol/fifo{n}"));
            let mut sw = FifoSwitch::new(n, FifoPriority::Random, s);
            saturation(&mut sw, n, s ^ 1)
        }
        None => {
            let s = task_seed(seed, "karol/pim16");
            with_port_width!(16, W => {
                let mut pim = CrossbarSwitch::new(PimN::<_, W>::new(16, s));
                saturation(&mut pim, 16, s ^ 1)
            })
        }
    });
    let fifo = sizes.iter().copied().zip(utils.iter().copied()).collect();
    KarolResult {
        fifo,
        pim_16: utils[sizes.len()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_approaches_karol_bound() {
        let r = run(&[4, 16, 64], Effort::Quick, 3, &Pool::new(2));
        // Larger switches approach 0.586 from above.
        let utils: Vec<f64> = r.fifo.iter().map(|&(_, u)| u).collect();
        assert!(utils[0] > utils[2], "monotone decrease: {utils:?}");
        assert!(
            (utils[2] - hol_asymptote()).abs() < 0.03,
            "N=64 utilization {} vs asymptote {}",
            utils[2],
            hol_asymptote()
        );
        // PIM saturates near full throughput.
        assert!(r.pim_16 > 0.93, "pim {}", r.pim_16);
        assert!(r.render().contains("asymptote"));
    }
}
