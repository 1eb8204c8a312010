//! Figure 9: four flows merge through a chain of three switches toward
//! one bottleneck link — and share it very unevenly.
//!
//! Flows c and d enter the first switch, b merges at the second, a at the
//! third. Per-switch scheduling is locally fair (PIM grants 50/50 at each
//! contended output), yet the end-to-end shares come out ~1/2, 1/4, 1/8,
//! 1/8 instead of the fair 1/4 each — the motivation for §5's statistical
//! matching.
//!
//! ```text
//! cargo run --release --example fairness_chain
//! ```

use an2::net::fairness::{build_figure_9_chain, figure_9_shares_with};
use an2::net::flows::ServiceDiscipline;

fn main() {
    println!("topology: d,c -> [s1] -> [s2] -> [s3] -> bottleneck");
    println!("                    b ----^        a ----^\n");

    // Quick sanity run to show deliveries accumulate.
    let (mut net, flows, _) = build_figure_9_chain(42);
    net.run(2_000);
    println!(
        "after 2000 slots: a={} b={} c={} d={} cells delivered\n",
        net.delivered(flows.a),
        net.delivered(flows.b),
        net.delivered(flows.c),
        net.delivered(flows.d)
    );

    for (label, discipline, expect) in [
        ("FIFO merge (paper's illustration)", ServiceDiscipline::Fifo, "1/2 1/4 1/8 1/8"),
        ("AN2 per-flow round-robin", ServiceDiscipline::RoundRobin, "1/2 1/6 1/6 1/6"),
    ] {
        let s = figure_9_shares_with(7, 5_000, 50_000, discipline);
        println!(
            "{label:<36} a={:.3} b={:.3} c={:.3} d={:.3}  (expected ~ {expect}; Jain index {:.3})",
            s.shares[0], s.shares[1], s.shares[2], s.shares[3], s.jain
        );
    }
    println!(
        "\nA fair allocation would give each flow 0.250 (Jain index 1.0). Flows that\nmerge early are taxed at every hop — locally fair switches are globally unfair."
    );
}
