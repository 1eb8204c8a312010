//! A multicast-capable input-queued switch (the §2 capability the paper
//! defers).
//!
//! Each input keeps a FIFO of multicast cells; the head cell's residual
//! fanout competes each slot under multicast PIM
//! ([`an2_sched::multicast::McPim`]). A crossbar can drive many outputs
//! from one input simultaneously, so a cell with fanout `k` can finish in
//! a single slot when uncontended — where a unicast-only switch would
//! serialize `k` copies through one input link over `k` slots.

use crate::cell::FlowId;
use crate::metrics::DelayStats;
use an2_sched::multicast::{FanoutRequests, McPim};
use an2_sched::{InputPort, PortSet};
use std::collections::VecDeque;

/// A multicast cell: one payload bound for a set of outputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct McCell {
    /// The flow the cell belongs to.
    pub flow: FlowId,
    /// The input it arrived on.
    pub input: InputPort,
    /// The outputs it must reach.
    pub fanout: PortSet,
    /// The slot it arrived in.
    pub arrival_slot: u64,
}

/// An arriving multicast cell (one per input per slot at most).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct McArrival {
    /// The input the cell arrives on.
    pub input: InputPort,
    /// The outputs it must reach.
    pub fanout: PortSet,
    /// Its flow.
    pub flow: FlowId,
}

/// Head cell currently in (possibly partial) service at one input.
#[derive(Clone, Debug)]
struct InService {
    cell: McCell,
    residue: PortSet,
}

/// The multicast switch model.
///
/// # Examples
///
/// ```
/// use an2_sched::{InputPort, PortSet};
/// use an2_sim::cell::FlowId;
/// use an2_sim::multicast_switch::{McArrival, MulticastSwitch};
///
/// let mut sw = MulticastSwitch::new(4, 9);
/// sw.step(&[McArrival {
///     input: InputPort::new(0),
///     fanout: [1usize, 2, 3].into_iter().collect(),
///     flow: FlowId(1),
/// }]);
/// // Uncontended: the whole fanout went out in one slot.
/// assert_eq!(sw.completed(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct MulticastSwitch {
    n: usize,
    queues: Vec<VecDeque<McCell>>,
    in_service: Vec<Option<InService>>,
    scheduler: McPim,
    slot: u64,
    completed: u64,
    copies: u64,
    copies_per_output: Vec<u64>,
    completion_delay: DelayStats,
}

impl MulticastSwitch {
    /// Creates an `n`-port multicast switch.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > MAX_PORTS`.
    pub fn new(n: usize, seed: u64) -> Self {
        Self {
            n,
            queues: vec![VecDeque::new(); n],
            in_service: vec![None; n],
            scheduler: McPim::new(n, seed),
            slot: 0,
            completed: 0,
            copies: 0,
            copies_per_output: vec![0; n],
            completion_delay: DelayStats::new(),
        }
    }

    /// The switch radix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Multicast cells fully delivered so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Total copies (cell × output) delivered so far.
    pub fn copies(&self) -> u64 {
        self.copies
    }

    /// Copies delivered out of output `j`.
    pub fn copies_of_output(&self, j: usize) -> u64 {
        assert!(j < self.n, "output {j} outside switch");
        self.copies_per_output[j]
    }

    /// Completion delay statistics (arrival to final copy) in slots.
    pub fn completion_delay(&self) -> &DelayStats {
        &self.completion_delay
    }

    /// Cells queued or in partial service.
    pub fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum::<usize>()
            + self.in_service.iter().flatten().count()
    }

    /// Advances one slot.
    ///
    /// # Panics
    ///
    /// Panics if two arrivals share an input, a fanout is empty, or any
    /// port is out of range.
    pub fn step(&mut self, arrivals: &[McArrival]) {
        let mut seen = PortSet::new();
        for a in arrivals {
            assert!(a.input.index() < self.n, "input {} outside switch", a.input);
            assert!(
                seen.insert(a.input.index()),
                "two cells arrived at input {} in one slot",
                a.input
            );
            assert!(!a.fanout.is_empty(), "multicast cells need a non-empty fanout");
            assert!(
                a.fanout.iter().all(|j| j < self.n),
                "fanout of input {} contains an output outside the switch",
                a.input
            );
            self.queues[a.input.index()].push_back(McCell {
                flow: a.flow,
                input: a.input,
                fanout: a.fanout,
                arrival_slot: self.slot,
            });
        }
        // Promote head cells into service.
        for i in 0..self.n {
            if self.in_service[i].is_none() {
                if let Some(cell) = self.queues[i].pop_front() {
                    self.in_service[i] = Some(InService {
                        cell,
                        residue: cell.fanout,
                    });
                }
            }
        }
        // Schedule residual fanouts.
        let mut requests = FanoutRequests::new(self.n);
        for i in 0..self.n {
            if let Some(s) = &self.in_service[i] {
                requests.set(InputPort::new(i), s.residue);
            }
        }
        let m = self.scheduler.schedule(&requests);
        debug_assert!(m.respects(&requests));
        for i in 0..self.n {
            let served = *m.served(InputPort::new(i));
            if served.is_empty() {
                continue;
            }
            let svc = self.in_service[i]
                .as_mut()
                .expect("served inputs have a cell in service");
            svc.residue = svc.residue.difference(&served);
            self.copies += served.len() as u64;
            for j in served.iter() {
                self.copies_per_output[j] += 1;
            }
            if svc.residue.is_empty() {
                self.completed += 1;
                self.completion_delay
                    .record(self.slot - svc.cell.arrival_slot);
                self.in_service[i] = None;
            }
        }
        self.slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(n: usize, i: usize, outs: &[usize], flow: u64) -> McArrival {
        let _ = n;
        McArrival {
            input: InputPort::new(i),
            fanout: outs.iter().copied().collect(),
            flow: FlowId(flow),
        }
    }

    #[test]
    fn uncontended_fanout_completes_in_one_slot() {
        let mut sw = MulticastSwitch::new(8, 1);
        sw.step(&[arrival(8, 2, &[0, 3, 5, 7], 1)]);
        assert_eq!(sw.completed(), 1);
        assert_eq!(sw.copies(), 4);
        assert_eq!(sw.completion_delay().max(), 0);
        assert_eq!(sw.queued(), 0);
    }

    #[test]
    fn multicast_beats_serialized_unicast_copies() {
        // Broadcast from one input to all 8 outputs: multicast finishes in
        // 1 slot; sending 8 unicast copies through one input link takes 8.
        let mut sw = MulticastSwitch::new(8, 2);
        sw.step(&[arrival(8, 0, &[0, 1, 2, 3, 4, 5, 6, 7], 1)]);
        assert_eq!(sw.completed(), 1);
        assert_eq!(sw.completion_delay().max(), 0);
        // The unicast equivalent: the input link serializes.
        use crate::switch::CrossbarSwitch;
        use crate::model::SwitchModel;
        use an2_sched::Pim;
        let mut uni = CrossbarSwitch::new(Pim::new(8, 3));
        let copies: Vec<crate::cell::Arrival> = (0..8)
            .map(|j| crate::cell::Arrival::pair(8, InputPort::new(0), an2_sched::OutputPort::new(j)))
            .collect();
        uni.preload(&copies);
        let mut slots = 0;
        while uni.queued() > 0 {
            uni.step(&[]);
            slots += 1;
        }
        assert_eq!(slots, 8, "unicast copies serialize through the input link");
    }

    #[test]
    fn contended_outputs_split_fairly() {
        // Four inputs each broadcast to all four outputs, continuously.
        let n = 4;
        let mut sw = MulticastSwitch::new(n, 5);
        let slots = 8_000u64;
        for s in 0..slots {
            let arrivals: Vec<McArrival> = (0..n)
                .filter(|&i| sw.queues[i].len() < 4) // keep queues bounded
                .map(|i| arrival(n, i, &[0, 1, 2, 3], s * 10 + i as u64))
                .collect();
            sw.step(&arrivals);
        }
        // Output links run at full rate.
        for j in 0..n {
            let util = sw.copies_of_output(j) as f64 / slots as f64;
            assert!(util > 0.99, "output {j} utilization {util}");
        }
        // Each cell needs all 4 outputs against 3 competitors, and up to
        // 4 more cells queue behind it: service is roughly a max of four
        // geometric(1/4) draws (~8 slots) plus the queue wait, so the
        // mean completion delay is a few tens of slots — bounded, because
        // fanout splitting makes steady progress every slot.
        assert!(
            sw.completion_delay().mean() < 64.0,
            "mean completion delay {}",
            sw.completion_delay().mean()
        );
        // Aggregate service matches the link capacity: 4 copies per slot
        // across the switch = 1 completed broadcast per slot.
        let rate = sw.completed() as f64 / slots as f64;
        assert!((rate - 1.0).abs() < 0.05, "completion rate {rate}");
    }

    #[test]
    fn conservation_copies_match_completions() {
        let n = 4;
        let mut sw = MulticastSwitch::new(n, 7);
        use an2_sched::rng::{SelectRng, Xoshiro256};
        let mut rng = Xoshiro256::seed_from(8);
        let mut offered_copies = 0u64;
        for s in 0..2_000u64 {
            let mut batch = Vec::new();
            for i in 0..n {
                if sw.queues[i].len() < 2 && rng.bernoulli(0.3) {
                    let fan: PortSet = (0..n).filter(|_| rng.bernoulli(0.5)).collect();
                    if !fan.is_empty() {
                        offered_copies += fan.len() as u64;
                        batch.push(McArrival {
                            input: InputPort::new(i),
                            fanout: fan,
                            flow: FlowId(s),
                        });
                    }
                }
            }
            sw.step(&batch);
        }
        // Drain.
        let mut guard = 0;
        while sw.queued() > 0 {
            sw.step(&[]);
            guard += 1;
            assert!(guard < 10_000, "drain failed");
        }
        assert_eq!(sw.copies(), offered_copies);
    }

    #[test]
    #[should_panic(expected = "non-empty fanout")]
    fn empty_fanout_panics() {
        let mut sw = MulticastSwitch::new(4, 0);
        sw.step(&[McArrival {
            input: InputPort::new(0),
            fanout: PortSet::new(),
            flow: FlowId(1),
        }]);
    }
}
