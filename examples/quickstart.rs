//! Quickstart: schedule a 16×16 AN2-style switch with parallel iterative
//! matching and compare its queueing delay against the ideal
//! output-queued switch.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use an2::sched::{with_port_width, PimN};
use an2::sim::output_queued::OutputQueuedSwitch;
use an2::sim::sim::{simulate, SimConfig};
use an2::sim::switch::CrossbarSwitch;
use an2::sim::traffic::RateMatrixTraffic;
use an2::sim::units::LinkRate;

fn main() {
    let n = 16;
    let cfg = SimConfig {
        warmup_slots: 10_000,
        measure_slots: 50_000,
    };
    let link = LinkRate::an2();
    println!(
        "AN2-style {n}x{n} switch, 53-byte cells at 1 Gb/s (slot = {:.0} ns, {:.1}M cells/s aggregate)\n",
        link.cell_time_ns(),
        link.aggregate_cells_per_sec(n) / 1e6
    );
    println!(
        "{:>6} {:>16} {:>16} {:>12}",
        "load", "pim4 delay", "output-q delay", "pim4 (us)"
    );
    for load in [0.5, 0.8, 0.9, 0.95] {
        // A 16-port switch runs on one-word port sets.
        let mut traffic = RateMatrixTraffic::uniform(n, load, 2);
        let pim_report = with_port_width!(n, W => {
            let mut pim_switch = CrossbarSwitch::new(PimN::<_, W>::new(n, 1));
            simulate(&mut pim_switch, &mut traffic, cfg)
        });

        let mut oq_switch = OutputQueuedSwitch::new(n);
        let mut traffic = RateMatrixTraffic::uniform(n, load, 2);
        let oq_report = simulate(&mut oq_switch, &mut traffic, cfg);

        println!(
            "{load:>6.2} {:>11.2} slots {:>11.2} slots {:>9.2} us",
            pim_report.delay.mean(),
            oq_report.delay.mean(),
            link.slots_to_micros(pim_report.delay.mean()),
        );
    }
    println!(
        "\nPIM with four iterations tracks the ideal (but unbuildable) output-queued\nswitch across the load range — the paper's Figure 3 in miniature."
    );
}
