//! Figure 1: performance degradation due to FIFO queueing.
//!
//! Two demonstrations of head-of-line / stationary blocking:
//!
//! 1. **Snapshot drain** — the figure's literal scenario: every input of a
//!    4×4 switch holds the same queue of cells for outputs 1..4. With
//!    random-access buffers the backlog is a perfect matching per slot and
//!    drains in `n` slots; FIFO with rotating priority serves mostly one
//!    cell per slot.
//! 2. **Sustained collapse** — Li's periodic traffic at full load: FIFO
//!    aggregate throughput falls to about one link while PIM keeps every
//!    link busy.

use crate::Effort;
use an2_sched::fifo::FifoPriority;
use an2_sched::{with_port_width, PimN};
use an2_sim::fifo_switch::FifoSwitch;
use an2_sim::model::SwitchModel;
use an2_sim::switch::CrossbarSwitch;
use an2_sim::cell::Arrival;
use an2_sim::traffic::{PeriodicTraffic, Traffic};
use an2_task::{task_seed, Pool};
use std::fmt::Write as _;

/// Results of the Figure 1 reproduction.
#[derive(Clone, Debug)]
pub struct Fig1Result {
    /// Slots for FIFO to drain the snapshot backlog.
    pub fifo_drain_slots: u64,
    /// Slots for PIM (random-access buffers) to drain the same backlog.
    pub pim_drain_slots: u64,
    /// Sustained FIFO utilization under periodic full load.
    pub fifo_sustained_util: f64,
    /// Sustained PIM utilization under the same traffic.
    pub pim_sustained_util: f64,
    /// Switch radix used.
    pub n: usize,
}

impl Fig1Result {
    /// Formats the result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Figure 1: FIFO queueing degradation ({0}x{0})", self.n);
        let _ = writeln!(
            out,
            "snapshot drain: fifo {} slots vs pim {} slots (ideal = {})",
            self.fifo_drain_slots, self.pim_drain_slots, self.n
        );
        let _ = writeln!(
            out,
            "sustained periodic full load: fifo utilization {:.3} (~1/N = {:.3}) vs pim {:.3}",
            self.fifo_sustained_util,
            1.0 / self.n as f64,
            self.pim_sustained_util
        );
        out
    }
}

/// Runs both Figure 1 demonstrations on an `n`×`n` switch. The four
/// measurements (two drains, two sustained runs) are independent pool
/// tasks, each seeded by `task_seed(seed, "fig1/<which>")`.
pub fn run(n: usize, effort: Effort, seed: u64, pool: &Pool) -> Fig1Result {
    // --- Snapshot drain -------------------------------------------------
    // The figure's literal state: every input already holds one queued
    // cell for each output, in the same order (outputs 0, 1, ..., n-1).
    // The snapshot is preloaded (it accumulated before the observation
    // window) and drained with no further arrivals.
    let snapshot: Vec<Arrival> = (0..n)
        .flat_map(|i| {
            (0..n).map(move |j| {
                Arrival::pair(n, an2_sched::InputPort::new(i), an2_sched::OutputPort::new(j))
            })
        })
        .collect();

    let drain = |model: &mut dyn SwitchModel| -> u64 {
        let mut slot = 0u64;
        while model.queued() > 0 {
            model.step(&[]);
            slot += 1;
            assert!(slot < 100 * n as u64 * n as u64, "drain failed to terminate");
        }
        slot
    };

    // --- Sustained collapse ----------------------------------------------
    // Block length scales with the horizon: long enough that FIFO heads
    // cross a block boundary only a couple of times (each crossing lets
    // the heads momentarily de-collide), short enough that the growing
    // backlog spans all n outputs well before measurement starts, so the
    // random-access schedulers see a full request matrix.
    let slots = effort.scale(20_000, 200_000);
    let block = (slots as usize / (2 * n)).max(1);
    let sustained = |model: &mut dyn SwitchModel, traffic_seed: u64| -> f64 {
        let mut t = PeriodicTraffic::with_block_len(n, 1.0, traffic_seed, block);
        let mut buf = Vec::new();
        for s in 0..slots {
            if s == slots * 3 / 5 {
                model.start_measurement();
            }
            buf.clear();
            t.arrivals(s, &mut buf);
            model.step(&buf);
        }
        model.report().mean_output_utilization()
    };

    let which = vec!["fifo-drain", "pim-drain", "fifo-sustained", "pim-sustained"];
    let vals = pool.map(which, |_, w| {
        let s = task_seed(seed, &format!("fig1/{w}"));
        match w {
            "fifo-drain" => {
                let mut fifo = FifoSwitch::new(n, FifoPriority::Rotating, s);
                fifo.preload(&snapshot);
                drain(&mut fifo) as f64
            }
            "pim-drain" => with_port_width!(n, W => {
                let mut pim = CrossbarSwitch::new(PimN::<_, W>::new(n, s));
                pim.preload(&snapshot);
                drain(&mut pim) as f64
            }),
            "fifo-sustained" => {
                let mut fifo = FifoSwitch::new(n, FifoPriority::Rotating, s);
                sustained(&mut fifo, s ^ 1)
            }
            "pim-sustained" => with_port_width!(n, W => {
                let mut pim = CrossbarSwitch::new(PimN::<_, W>::new(n, s));
                sustained(&mut pim, s ^ 1)
            }),
            _ => unreachable!(),
        }
    });

    Fig1Result {
        fifo_drain_slots: vals[0] as u64,
        pim_drain_slots: vals[1] as u64,
        fifo_sustained_util: vals[2],
        pim_sustained_util: vals[3],
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_collapses_and_pim_does_not() {
        let r = run(4, Effort::Quick, 7, &Pool::new(2));
        // PIM drains the n-cells-per-input snapshot in about n slots
        // (perfect or near-perfect matches every slot). FIFO's collided
        // heads unblock one input per slot, so the drain takes 2n-1 slots
        // — the text's "aggregate switch throughput ... limited to twice
        // the throughput of a single link" for this pattern.
        assert!(r.pim_drain_slots <= 4 + 2, "pim {}", r.pim_drain_slots);
        assert_eq!(r.fifo_drain_slots, 2 * 4 - 1, "fifo ladder drain");
        assert!(r.fifo_drain_slots as f64 >= 1.5 * r.pim_drain_slots as f64);
        // Sustained: FIFO near 1/N, PIM near 1.0.
        assert!(r.fifo_sustained_util < 0.5, "fifo {}", r.fifo_sustained_util);
        assert!(r.pim_sustained_util > 0.9, "pim {}", r.pim_sustained_util);
        let text = r.render();
        assert!(text.contains("sustained"));
    }
}
