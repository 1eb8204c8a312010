//! The §3.5 latency claim: at 95% uniform load, the AN2 switch forwards an
//! arriving cell "in an average of less than 13 μsec" — about 30.7 cell
//! slots at 53 bytes and 1 Gbit/s.

use crate::Effort;
use an2_sched::{with_port_width, PimN};
use an2_sim::sim::{simulate, SimConfig};
use an2_sim::switch::CrossbarSwitch;
use an2_sim::traffic::RateMatrixTraffic;
use an2_sim::units::LinkRate;
use std::fmt::Write as _;

/// Result of the 95%-load latency measurement.
#[derive(Clone, Debug)]
pub struct Latency95Result {
    /// Mean queueing delay in cell slots.
    pub mean_delay_slots: f64,
    /// The same delay in microseconds at 1 Gbit/s.
    pub mean_delay_micros: f64,
    /// The paper's claimed ceiling (13 μs).
    pub claim_micros: f64,
}

impl Latency95Result {
    /// Formats the result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Section 3.5 claim: mean delay at 95% uniform load, 16x16, PIM(4)");
        let _ = writeln!(
            out,
            "measured: {:.2} slots = {:.2} us at 1 Gb/s (paper claims < {:.0} us)",
            self.mean_delay_slots, self.mean_delay_micros, self.claim_micros
        );
        out
    }

    /// `true` if the measurement honours the paper's claim.
    pub fn claim_holds(&self) -> bool {
        self.mean_delay_micros < self.claim_micros
    }
}

/// Measures mean PIM(4) delay at 95% uniform load on a 16×16 switch.
pub fn run(effort: Effort, seed: u64) -> Latency95Result {
    let cfg = SimConfig {
        warmup_slots: effort.scale(30_000, 200_000),
        measure_slots: effort.scale(100_000, 1_000_000),
    };
    let mut t = RateMatrixTraffic::uniform(16, 0.95, seed ^ 1);
    let report = with_port_width!(16, W => {
        let mut sw = CrossbarSwitch::new(PimN::<_, W>::new(16, seed));
        simulate(&mut sw, &mut t, cfg)
    });
    let mean_delay_slots = report.delay.mean();
    Latency95Result {
        mean_delay_slots,
        mean_delay_micros: LinkRate::an2().slots_to_micros(mean_delay_slots),
        claim_micros: 13.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_microsecond_claim_holds() {
        let r = run(Effort::Quick, 5);
        assert!(
            r.claim_holds(),
            "mean delay {:.2} us exceeds the 13 us claim",
            r.mean_delay_micros
        );
        // And it is a queueing regime, not an idle switch.
        assert!(r.mean_delay_slots > 2.0);
        assert!(r.render().contains("95%"));
    }
}
