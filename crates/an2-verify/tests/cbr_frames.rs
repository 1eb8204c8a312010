//! CBR service invariant (§4): every flow with a Slepian–Duguid frame
//! reservation receives exactly its reserved slots per frame, no matter
//! how much datagram traffic competes for the fabric.

use an2_sched::{FrameSchedule, InputPort, OutputPort};
use an2_sim::cell::Arrival;
use an2_sim::hybrid_switch::{ClassedArrival, HybridSwitch, ServiceClass};

fn classed(n: usize, i: usize, j: usize, class: ServiceClass) -> ClassedArrival {
    ClassedArrival {
        arrival: Arrival::pair(n, InputPort::new(i), OutputPort::new(j)),
        class,
    }
}

/// Reserves a small demand matrix, injects exactly that demand per frame
/// (plus saturating VBR background), and asserts the per-frame CBR
/// departure count equals the reserved cell count from the second frame
/// on — the "exactly their reserved slots" invariant.
#[test]
fn cbr_flows_get_exactly_their_reserved_slots_per_frame() {
    let n = 4;
    let frame_len = 4;
    let mut fs = FrameSchedule::new(n, frame_len);
    // (input, output, cells per frame); total demand 6 of 16 frame slots.
    let demand = [(0usize, 1usize, 2usize), (1, 0, 1), (2, 3, 3)];
    for &(i, j, cells) in &demand {
        fs.reserve(InputPort::new(i), OutputPort::new(j), cells)
            .expect("loads are below the frame length");
    }
    assert!(fs.verify(), "reservation table must be self-consistent");
    let per_frame: u64 = demand.iter().map(|&(_, _, c)| c as u64).sum();

    let mut sw = HybridSwitch::new(fs, 0xCB4);
    let frames = 50u64;
    let mut last_cbr = 0u64;
    for frame in 0..frames {
        for offset in 0..frame_len {
            let mut arrivals = Vec::new();
            for &(i, j, cells) in &demand {
                // One CBR cell per input per slot: pair (i, j) injects on
                // the first `cells` offsets of each frame.
                if offset < cells {
                    arrivals.push(classed(n, i, j, ServiceClass::Cbr));
                } else {
                    // Off-slots become VBR background from the same input.
                    arrivals.push(classed(n, i, (j + 1) % n, ServiceClass::Vbr));
                }
            }
            // Input 3 floods datagrams at the busiest CBR output.
            arrivals.push(classed(n, 3, 3, ServiceClass::Vbr));
            sw.step_classed(&arrivals);
        }
        let (cbr, _) = sw.departures_by_class();
        if frame >= 1 {
            assert_eq!(
                cbr - last_cbr,
                per_frame,
                "frame {frame}: CBR served a different number of slots than reserved"
            );
        }
        last_cbr = cbr;
    }

    let (cbr, vbr) = sw.departures_by_class();
    assert!(cbr >= (frames - 1) * per_frame);
    assert!(vbr > 0, "datagram traffic still flows around the reservations");
    assert!(
        sw.cbr_queued() <= per_frame as usize,
        "CBR backlog must stay bounded by one frame of demand"
    );
}

/// An idle reservation must not block datagram traffic: with no CBR cells
/// queued, VBR cells ride through slots the frame nominally reserves.
#[test]
fn idle_reservations_fall_back_to_datagram_service() {
    let n = 4;
    let mut fs = FrameSchedule::new(n, 4);
    fs.reserve(InputPort::new(0), OutputPort::new(1), 4)
        .expect("full input-0 reservation fits");
    let mut sw = HybridSwitch::new(fs, 0xFA11);
    for _ in 0..64 {
        // Only VBR traffic, on the very pair the frame reserves.
        sw.step_classed(&[classed(n, 0, 1, ServiceClass::Vbr)]);
    }
    let (cbr, vbr) = sw.departures_by_class();
    assert_eq!(cbr, 0);
    assert_eq!(vbr, 64, "every VBR cell crossed during the idle reservation");
    assert_eq!(sw.vbr_queued(), 0);
}
