//! Figures 8 and 9: unfairness of parallel iterative matching.

use crate::Effort;
use an2_net::fairness::{figure_8_connection_rates, figure_9_shares_with, ChainShares};
use an2_net::flows::ServiceDiscipline;
use an2_sched::{AcceptPolicy, IterationLimit, Pim};
use an2_task::{task_seed, Pool};
use std::fmt::Write as _;

/// Result of the Figure 8 experiment at both iteration budgets.
#[derive(Clone, Debug)]
pub struct Fig8Result {
    /// `(starved 4→1 rate, input 4's other rates)` with one PIM iteration.
    pub one_iteration: (f64, [f64; 3]),
    /// The same with the AN2 budget of four iterations.
    pub four_iterations: (f64, [f64; 3]),
}

impl Fig8Result {
    /// Formats the result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Figure 8: PIM unfairness on a saturated 4x4 pattern");
        let _ = writeln!(
            out,
            "(input 4 requests all outputs; inputs 1-3 request only output 1)"
        );
        let fmt = |(starved, others): &(f64, [f64; 3])| {
            format!(
                "4->1: {:.4} (paper: 1/16 = {:.4});  4->2..4: {:.4} {:.4} {:.4} (paper: 5/16 = {:.4})",
                starved,
                1.0 / 16.0,
                others[0],
                others[1],
                others[2],
                5.0 / 16.0
            )
        };
        let _ = writeln!(out, "1 iteration : {}", fmt(&self.one_iteration));
        let _ = writeln!(out, "4 iterations: {}", fmt(&self.four_iterations));
        out
    }
}

/// Runs Figure 8 at one and four PIM iterations, as two pool tasks seeded
/// by `task_seed(seed, "fig8/iter<k>")`.
pub fn figure_8(effort: Effort, seed: u64, pool: &Pool) -> Fig8Result {
    let slots = effort.scale(100_000, 2_000_000);
    let rates = pool.map(vec![1usize, 4], |_, iters| {
        let s = task_seed(seed, &format!("fig8/iter{iters}"));
        let mut pim =
            Pim::with_options(4, s, IterationLimit::Fixed(iters), AcceptPolicy::Random);
        figure_8_connection_rates(&mut pim, slots)
    });
    Fig8Result {
        one_iteration: rates[0],
        four_iterations: rates[1],
    }
}

/// Result of the Figure 9 experiment under both merge disciplines.
#[derive(Clone, Debug)]
pub struct Fig9Result {
    /// Shares with FIFO merging (the paper's illustration): ~1/2, 1/4,
    /// 1/8, 1/8.
    pub fifo: ChainShares,
    /// Shares with AN2's per-flow round-robin: ~1/2, 1/6, 1/6, 1/6.
    pub round_robin: ChainShares,
}

impl Fig9Result {
    /// Formats the result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# Figure 9: chain-of-switches unfairness (4 flows share one bottleneck; fair = 0.25 each)"
        );
        let row = |label: &str, s: &ChainShares, expect: &str| {
            format!(
                "{label:<22} a={:.3} b={:.3} c={:.3} d={:.3}  jain={:.3}  (expected ~ {expect})",
                s.shares[0], s.shares[1], s.shares[2], s.shares[3], s.jain
            )
        };
        let _ = writeln!(out, "{}", row("fifo merge (paper):", &self.fifo, "1/2 1/4 1/8 1/8"));
        let _ = writeln!(
            out,
            "{}",
            row("per-flow round-robin:", &self.round_robin, "1/2 1/6 1/6 1/6")
        );
        out
    }
}

/// Runs Figure 9 under both disciplines, as two pool tasks seeded by
/// `task_seed(seed, "fig9/<discipline>")`.
pub fn figure_9(effort: Effort, seed: u64, pool: &Pool) -> Fig9Result {
    let warmup = effort.scale(5_000, 20_000);
    let measure = effort.scale(40_000, 400_000);
    let mut shares = pool.map(
        vec![
            ("fifo", ServiceDiscipline::Fifo),
            ("round-robin", ServiceDiscipline::RoundRobin),
        ],
        |_, (label, discipline)| {
            let s = task_seed(seed, &format!("fig9/{label}"));
            figure_9_shares_with(s, warmup, measure, discipline)
        },
    );
    let round_robin = shares.pop().expect("two disciplines ran");
    let fifo = shares.pop().expect("two disciplines ran");
    Fig9Result { fifo, round_robin }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_8_one_iteration_numbers() {
        let r = figure_8(Effort::Quick, 1, &Pool::new(2));
        let (starved, others) = r.one_iteration;
        assert!((starved - 1.0 / 16.0).abs() < 0.012, "starved {starved}");
        for o in others {
            assert!((o - 5.0 / 16.0).abs() < 0.012, "other {o}");
        }
        // Four iterations: still at least a 2x gap.
        let (s4, o4) = r.four_iterations;
        assert!(o4.iter().all(|&o| o > 2.0 * s4));
        assert!(r.render().contains("5/16"));
    }

    #[test]
    fn figure_9_both_disciplines() {
        let r = figure_9(Effort::Quick, 2, &Pool::new(2));
        assert!((r.fifo.shares[0] - 0.5).abs() < 0.05);
        assert!((r.fifo.shares[1] - 0.25).abs() < 0.05);
        assert!((r.round_robin.shares[1] - 1.0 / 6.0).abs() < 0.05);
        assert!(r.fifo.jain < 0.9 && r.round_robin.jain < 0.9);
        assert!(r.render().contains("jain"));
    }
}
