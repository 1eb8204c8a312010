//! Figure 1: FIFO queueing collapses under periodic traffic while
//! random-access buffers keep every link busy.
//!
//! Every input of an 8×8 switch receives the same periodic destination
//! sequence (long same-destination blocks). Under FIFO queueing all the
//! head-of-line cells chase the same output — aggregate throughput of
//! roughly one link. The same backlog, held in virtual output queues and
//! scheduled by parallel iterative matching, keeps the switch near full
//! utilization.
//!
//! ```text
//! cargo run --release --example stationary_blocking
//! ```

use an2::sched::fifo::FifoPriority;
use an2::sched::{with_port_width, PimN};
use an2::sim::fifo_switch::FifoSwitch;
use an2::sim::model::SwitchModel;
use an2::sim::switch::CrossbarSwitch;
use an2::sim::traffic::{PeriodicTraffic, Traffic};

fn measure(model: &mut dyn SwitchModel, n: usize, slots: u64, block: usize) -> f64 {
    let mut traffic = PeriodicTraffic::with_block_len(n, 1.0, 9, block);
    let mut buf = Vec::new();
    for s in 0..slots {
        if s == slots * 3 / 5 {
            model.start_measurement();
        }
        buf.clear();
        traffic.arrivals(s, &mut buf);
        model.step(&buf);
    }
    model.report().mean_output_utilization()
}

fn main() {
    let n = 8;
    let slots = 40_000;
    let block = slots as usize / (2 * n);
    println!(
        "{n}x{n} switch, periodic full-load traffic (destination blocks of {block} cells)\n"
    );

    let mut fifo = FifoSwitch::new(n, FifoPriority::Rotating, 1);
    let fifo_util = measure(&mut fifo, n, slots, block);
    println!("FIFO input queueing : {fifo_util:.3} mean link utilization (1/N = {:.3})", 1.0 / n as f64);

    let pim_util = with_port_width!(n, W => {
        let mut pim = CrossbarSwitch::new(PimN::<_, W>::new(n, 2));
        measure(&mut pim, n, slots, block)
    });
    println!("PIM over VOQ buffers: {pim_util:.3} mean link utilization");

    println!(
        "\nFIFO forwards ~{:.1}x fewer cells than PIM on identical traffic: the head\nof each queue blocks everything behind it (stationary blocking, Li 1988).",
        pim_util / fifo_util
    );
    assert!(fifo_util < 0.4 && pim_util > 0.9);
}
