//! The full AN2 switch: pre-scheduled CBR frames plus PIM-filled VBR (§4).
//!
//! "CBR cells are routed across the switch during scheduled slots. VBR
//! cells are transmitted during slots not used by CBR cells. In addition,
//! VBR cells can use an allocated slot if no cell from the scheduled flow
//! is present at the switch." CBR cells use statically reserved buffers;
//! VBR cells use a separate pool: here one [`PairFifos`] bank per class,
//! each holding one flow per pair ([`crate::cell::FlowId::for_pair`]).
//!
//! Each slot `t` this model:
//! 1. takes the reserved matching for frame slot `t mod frame_len`,
//! 2. keeps only the reserved pairs that actually hold a queued CBR cell
//!    (idle reservations return their ports to the datagram pool), and
//! 3. extends the matching over the VBR request matrix with
//!    [`Pim::schedule_from`].

use crate::cell::Arrival;
use crate::metrics::{DelayStats, SwitchReport};
use crate::model::{validate_arrivals, ModelMetrics, SwitchModel};
use crate::slab::PairFifos;
use an2_sched::{FrameSchedule, Matching, Pim};

/// Which service class an arrival belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServiceClass {
    /// Constant bit rate: pre-scheduled, guaranteed (§4).
    Cbr,
    /// Variable bit rate (datagram): scheduled by PIM in leftover capacity.
    Vbr,
}

/// An arrival tagged with its service class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassedArrival {
    /// The cell.
    pub arrival: Arrival,
    /// Its service class.
    pub class: ServiceClass,
}

/// A switch carrying CBR reservations (frame schedule) and VBR datagrams
/// (PIM) side by side.
///
/// Implements [`SwitchModel`] for VBR traffic via `step` (all untagged
/// arrivals are VBR); CBR cells enter through
/// [`step_classed`](Self::step_classed).
///
/// # Examples
///
/// ```
/// use an2_sched::{FrameSchedule, InputPort, OutputPort};
/// use an2_sim::hybrid_switch::{ClassedArrival, HybridSwitch, ServiceClass};
/// use an2_sim::cell::Arrival;
///
/// let mut fs = FrameSchedule::new(4, 4);
/// fs.reserve(InputPort::new(0), OutputPort::new(1), 2).unwrap();
/// let mut sw = HybridSwitch::new(fs, 7);
/// let cbr = ClassedArrival {
///     arrival: Arrival::pair(4, InputPort::new(0), OutputPort::new(1)),
///     class: ServiceClass::Cbr,
/// };
/// sw.step_classed(&[cbr]);
/// ```
#[derive(Clone, Debug)]
pub struct HybridSwitch {
    schedule: FrameSchedule,
    pim: Pim,
    cbr: PairFifos,
    vbr: PairFifos,
    metrics: ModelMetrics,
    cbr_delay: DelayStats,
    cbr_departures: u64,
    vbr_departures: u64,
}

impl HybridSwitch {
    /// Creates a hybrid switch around a CBR frame schedule; VBR traffic is
    /// filled in with run-to-completion PIM.
    pub fn new(schedule: FrameSchedule, seed: u64) -> Self {
        let n = schedule.n();
        Self {
            schedule,
            pim: Pim::with_options(
                n,
                seed,
                an2_sched::IterationLimit::ToCompletion,
                an2_sched::AcceptPolicy::Random,
            ),
            cbr: PairFifos::new(n, None),
            vbr: PairFifos::new(n, None),
            metrics: ModelMetrics::new(n),
            cbr_delay: DelayStats::new(),
            cbr_departures: 0,
            vbr_departures: 0,
        }
    }

    /// The CBR frame schedule (e.g. to inspect reservations).
    pub fn schedule(&self) -> &FrameSchedule {
        &self.schedule
    }

    /// Mutable access to the frame schedule, for adding or releasing
    /// reservations between slots.
    pub fn schedule_mut(&mut self) -> &mut FrameSchedule {
        &mut self.schedule
    }

    /// Queued CBR cells.
    pub fn cbr_queued(&self) -> usize {
        self.cbr.len()
    }

    /// Queued VBR cells.
    pub fn vbr_queued(&self) -> usize {
        self.vbr.len()
    }

    /// Delay statistics of departed CBR cells (measurement window).
    pub fn cbr_delay(&self) -> &DelayStats {
        &self.cbr_delay
    }

    /// CBR and VBR departures since measurement started.
    pub fn departures_by_class(&self) -> (u64, u64) {
        (self.cbr_departures, self.vbr_departures)
    }

    /// Advances one slot with class-tagged arrivals.
    ///
    /// # Panics
    ///
    /// Panics on the usual arrival violations (duplicate input, port out
    /// of range) or if an arrival's flow id is not its pair's.
    pub fn step_classed(&mut self, arrivals: &[ClassedArrival]) {
        self.step_tagged(arrivals.iter().map(|c| (&c.arrival, c.class)));
    }

    /// The slot procedure behind [`HybridSwitch::step_classed`] and
    /// [`SwitchModel::step`], over arrivals paired with their classes.
    fn step_tagged<'a>(
        &mut self,
        arrivals: impl Iterator<Item = (&'a Arrival, ServiceClass)> + Clone,
    ) {
        let slot = self.metrics.slot();
        validate_arrivals(self.cbr.n(), arrivals.clone().map(|(a, _)| a));
        for (&a, class) in arrivals {
            let bank = match class {
                ServiceClass::Cbr => &mut self.cbr,
                ServiceClass::Vbr => &mut self.vbr,
            };
            let queued = bank.push(a, slot);
            debug_assert!(queued, "the class queues are unbounded");
            self.metrics.on_arrival();
        }
        // Reserved matching for this frame slot, restricted to pairs with
        // a queued CBR cell.
        let frame_len = self.schedule.frame_len() as u64;
        let reserved = self.schedule.slot((slot % frame_len) as usize);
        let n = self.cbr.n();
        let mut initial = Matching::new(n);
        for (i, j) in reserved.pairs() {
            if self.cbr.requests().has(i, j) {
                initial.pair(i, j).expect("subset of a legal matching");
            }
        }
        // PIM fills everything else from the VBR requests. The pairs of
        // the initial matching are exactly the reserved ones holding a CBR
        // cell; PIM adds only pairs on free ports.
        let matching = self.pim.schedule_from(self.vbr.requests(), initial);
        for (i, j) in matching.pairs() {
            let cbr = reserved.output_of(i) == Some(j) && self.cbr.requests().has(i, j);
            let bank = if cbr { &mut self.cbr } else { &mut self.vbr };
            let cell = bank
                .pop(i, j, slot)
                .expect("a matched pair holds a cell of its class");
            self.metrics.on_departure(&cell);
            if cbr {
                self.cbr_departures += 1;
                self.cbr_delay.record(slot - cell.arrival_slot);
            } else {
                self.vbr_departures += 1;
            }
        }
        self.metrics.end_slot(self.queued());
    }
}

impl SwitchModel for HybridSwitch {
    fn n(&self) -> usize {
        self.cbr.n()
    }

    fn name(&self) -> &'static str {
        "hybrid-cbr-vbr"
    }

    /// Untagged arrivals are treated as VBR datagrams.
    fn step(&mut self, arrivals: &[Arrival]) {
        self.step_tagged(arrivals.iter().map(|a| (a, ServiceClass::Vbr)));
    }

    fn queued(&self) -> usize {
        self.cbr.len() + self.vbr.len()
    }

    fn start_measurement(&mut self) {
        self.metrics.restart();
        self.cbr_delay = DelayStats::new();
        self.cbr_departures = 0;
        self.vbr_departures = 0;
    }

    fn start_at_slot(&mut self, slot: u64) {
        self.metrics.start_at_slot(slot);
    }

    fn report(&self) -> SwitchReport {
        self.metrics.report(self.queued())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an2_sched::rng::{SelectRng, Xoshiro256};
    use an2_sched::{InputPort, OutputPort};

    fn classed(n: usize, i: usize, j: usize, class: ServiceClass) -> ClassedArrival {
        ClassedArrival {
            arrival: Arrival::pair(n, InputPort::new(i), OutputPort::new(j)),
            class,
        }
    }

    #[test]
    fn cbr_rides_its_reserved_slots() {
        let n = 4;
        let frame = 4;
        let mut fs = FrameSchedule::new(n, frame);
        fs.reserve(InputPort::new(0), OutputPort::new(1), 2).unwrap();
        let mut sw = HybridSwitch::new(fs, 1);
        // A *paced* CBR source (exactly the reserved 2 cells per 4-slot
        // frame — one every other slot, as a conforming application would
        // send) plus VBR flooding every input.
        let mut rng = Xoshiro256::seed_from(2);
        let slots = 20_000u64;
        for s in 0..slots {
            let mut batch = Vec::new();
            if s % 2 == 0 {
                batch.push(classed(n, 0, 1, ServiceClass::Cbr));
            }
            for i in 0..n {
                if batch.iter().any(|c| c.arrival.input.index() == i) {
                    continue;
                }
                batch.push(classed(n, i, rng.index(n), ServiceClass::Vbr));
            }
            sw.step_classed(&batch);
        }
        let (cbr_dep, vbr_dep) = sw.departures_by_class();
        let cbr_rate = cbr_dep as f64 / slots as f64;
        assert!((cbr_rate - 0.5).abs() < 0.01, "CBR rate {cbr_rate}");
        assert!(sw.cbr_queued() < 10, "CBR backlog {}", sw.cbr_queued());
        // A paced cell waits at most ~2 frames for its reserved slot (§4).
        assert!(
            sw.cbr_delay().max() <= 2 * frame as u64,
            "CBR max delay {}",
            sw.cbr_delay().max()
        );
        // VBR filled the remaining capacity.
        assert!(vbr_dep > slots * 3, "VBR departures {vbr_dep}");
    }

    #[test]
    fn idle_reservations_are_lent_to_vbr() {
        // Reserve the whole diagonal but send no CBR at all: VBR still
        // gets full switch throughput.
        let n = 4;
        let mut fs = FrameSchedule::new(n, 2);
        for p in 0..n {
            fs.reserve(InputPort::new(p), OutputPort::new(p), 2).unwrap();
        }
        let mut sw = HybridSwitch::new(fs, 3);
        let mut rng = Xoshiro256::seed_from(4);
        let slots = 10_000u64;
        for _ in 0..slots {
            let batch: Vec<ClassedArrival> = (0..n)
                .map(|i| classed(n, i, rng.index(n), ServiceClass::Vbr))
                .collect();
            sw.step_classed(&batch);
        }
        let r = sw.report();
        assert!(
            r.mean_output_utilization() > 0.93,
            "VBR utilization {} despite idle reservations",
            r.mean_output_utilization()
        );
        let (cbr_dep, _) = sw.departures_by_class();
        assert_eq!(cbr_dep, 0);
    }

    #[test]
    fn vbr_only_step_works_via_switch_model() {
        let mut fs = FrameSchedule::new(2, 2);
        fs.reserve(InputPort::new(0), OutputPort::new(0), 1).unwrap();
        let mut sw = HybridSwitch::new(fs, 5);
        assert_eq!(sw.name(), "hybrid-cbr-vbr");
        sw.step(&[Arrival::pair(2, InputPort::new(1), OutputPort::new(1))]);
        let r = sw.report();
        assert_eq!(r.departures, 1);
        assert_eq!(sw.queued(), 0);
        assert_eq!(sw.vbr_queued(), 0);
        assert_eq!(sw.cbr_queued(), 0);
    }

    #[test]
    fn schedule_can_be_updated_between_slots() {
        let mut fs = FrameSchedule::new(2, 4);
        fs.reserve(InputPort::new(0), OutputPort::new(1), 1).unwrap();
        let mut sw = HybridSwitch::new(fs, 6);
        sw.step(&[]);
        sw.schedule_mut()
            .reserve(InputPort::new(1), OutputPort::new(0), 2)
            .unwrap();
        assert_eq!(
            sw.schedule().demand(InputPort::new(1), OutputPort::new(0)),
            2
        );
        sw.step(&[]);
    }
}
