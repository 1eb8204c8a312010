//! Figure 4's scenario as an application workload: a 16-port switch
//! connecting 4 servers and 12 clients, with client–client traffic at 5%
//! of the client–server intensity.
//!
//! Sweeps the server-link load and reports mean delay for FIFO queueing,
//! PIM(4) and ideal output queueing — the paper's conclusion is that PIM
//! comes even closer to optimal here than under uniform traffic.
//!
//! ```text
//! cargo run --release --example client_server
//! ```

use an2::sched::fifo::FifoPriority;
use an2::sched::{with_port_width, PimN};
use an2::sim::fifo_switch::FifoSwitch;
use an2::sim::model::SwitchModel;
use an2::sim::output_queued::OutputQueuedSwitch;
use an2::sim::sim::{simulate, SimConfig};
use an2::sim::switch::CrossbarSwitch;
use an2::sim::traffic::RateMatrixTraffic;

fn main() {
    let n = 16;
    let servers = 4;
    let cfg = SimConfig {
        warmup_slots: 10_000,
        measure_slots: 50_000,
    };
    println!(
        "{n}-port switch: {servers} servers, {} clients; client-client traffic at 5%\nof client-server intensity; load measured on a server link\n",
        n - servers
    );
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "load", "fifo", "pim4", "output-q"
    );
    for load in [0.3, 0.6, 0.8, 0.95] {
        let run = |model: &mut dyn SwitchModel, seed: u64| {
            let mut t = RateMatrixTraffic::client_server(n, servers, load, 0.05, seed);
            simulate(model, &mut t, cfg).delay.mean()
        };
        let fifo = run(&mut FifoSwitch::new(n, FifoPriority::Random, 1), 7);
        let pim =
            with_port_width!(n, W => run(&mut CrossbarSwitch::new(PimN::<_, W>::new(n, 2)), 7));
        let oq = run(&mut OutputQueuedSwitch::new(n), 7);
        println!("{load:>6.2} {fifo:>12.2} {pim:>12.2} {oq:>12.2}   (mean delay, slots)");
    }
    println!("\nPIM tracks the output-queued ideal closely on this bursty, asymmetric\nworkload while FIFO degrades — the shape of the paper's Figure 4.");
}
