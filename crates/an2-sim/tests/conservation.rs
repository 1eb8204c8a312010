//! Conservation-ledger regression tests: every arrival the single-switch
//! engine is offered must be admitted or dropped with a cause, including
//! under scripted faults. Guards the invariant-checker's core identity:
//! offered cells = admitted arrivals + dropped-with-cause.

use an2_sched::{InputPort, OutputPort, Pim};
use an2_sim::cell::Arrival;
use an2_sim::fault::{DropCause, FaultEvent, FaultKind, FaultLog, FaultPlan};
use an2_sim::model::SwitchModel;
use an2_sim::switch::CrossbarSwitch;

/// Regression: drops under `CellCorrupt` and `CellDrop` faults all land in
/// the fault log and in the engine's drop ledger, so the end-to-end ledger
/// balances exactly.
#[test]
fn corrupt_and_injected_drops_balance_the_ledger() {
    let n = 4;
    let mut sw = CrossbarSwitch::new(Pim::new(n, 0xFEED));
    let fault = |slot, input, corrupt| FaultEvent {
        slot,
        kind: if corrupt {
            FaultKind::CellCorrupt { switch: 0, input }
        } else {
            FaultKind::CellDrop { switch: 0, input }
        },
    };
    let mut events: Vec<FaultEvent> = (3..9).map(|slot| fault(slot, 1, true)).collect();
    events.extend((20..24).map(|slot| fault(slot, 2, false)));
    let mut plan = FaultPlan::from_events(events);
    let mut log = FaultLog::new();
    let mut offered = 0u64;
    for _ in 0..64 {
        // Hotspot: every input offers a cell for output 0 every slot. Only
        // one can depart per slot, so the queues grow while the scripted
        // losses strike.
        let arrivals: Vec<Arrival> = (0..n)
            .map(|i| Arrival::pair(n, InputPort::new(i), OutputPort::new(0)))
            .collect();
        offered += arrivals.len() as u64;
        sw.step_faulted(&arrivals, &mut plan, &mut log);
    }
    let report = sw.report();

    let count = |cause| log.drops().iter().filter(|d| d.cause == cause).count() as u64;
    assert_eq!(count(DropCause::Corrupted), 6, "one per scripted slot");
    assert_eq!(count(DropCause::Injected), 4, "one per scripted slot");
    assert_eq!(log.cells_dropped(), 10);
    assert_eq!(
        sw.buffers().dropped(),
        log.cells_dropped(),
        "fault log and engine drop counters must agree"
    );
    assert_eq!(sw.buffers().pair_drops(1, 0), 6);
    assert_eq!(sw.buffers().pair_drops(2, 0), 4);
    assert_eq!(sw.buffers().verify_drop_ledger(), Ok(()));

    // The ledger: every offered cell was admitted or lost on the wire —
    // nothing vanishes silently.
    assert_eq!(offered, report.arrivals + log.cells_dropped());
    assert_eq!(sw.buffers().offered(), offered);
    // And every admitted cell either departed or is still buffered.
    assert!(
        report.is_conserved(),
        "arrivals {} != departures {} + queued {}",
        report.arrivals,
        report.departures,
        report.final_occupancy
    );
    assert_eq!(sw.buffers().verify_conservation(), Ok(()));
}

/// A preload counts every snapshot cell as an arrival, so scenario setups
/// feed the ledger too, and the cells drain in arrival order.
#[test]
fn preload_feeds_the_ledger() {
    let n = 4;
    let mut sw = CrossbarSwitch::new(Pim::new(n, 1));
    let snapshot = [Arrival::pair(n, InputPort::new(0), OutputPort::new(0)); 5];
    sw.preload(&snapshot);
    assert_eq!(sw.queued(), 5);
    assert_eq!(
        sw.buffers()
            .pair_occupancy(InputPort::new(0), OutputPort::new(0)),
        5
    );
    let report = sw.report();
    assert_eq!(report.arrivals, 5);
    assert!(report.is_conserved());
    while sw.queued() > 0 {
        sw.step(&[]);
    }
    let report = sw.report();
    assert_eq!((report.departures, report.slots), (5, 5));
    assert_eq!(report.delay.max(), 4, "one departure per slot, FIFO");
}
