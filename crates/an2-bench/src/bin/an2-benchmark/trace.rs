//! Spans timed from outside the engines: the [`Timed`] scheduler adapter
//! and the timer-cost calibration.
//!
//! Spans are aggregated in memory, one [`QuantileSketch`] of nanoseconds
//! per name (count, total and a log-linear histogram), and read out when
//! the round ends. Only the traced round pays for them.

use crate::stats::median;
use an2_sched::{InputPort, MatchingN, OutputPort, PortMaskN, RequestMatrixN, Scheduler};
use an2_sim::metrics::QuantileSketch;
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// One AN2 cell time: a 53-byte cell at 1 Gb/s (§3.5). PIM is meant to
/// decide within it; calls that take longer count as budget misses.
pub const CELL_SLOT_NS: u64 = 424;

/// Runs `f` and records its host time, in ns, into `span`.
#[inline]
pub fn timed<R>(span: &mut QuantileSketch, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    span.record(start.elapsed().as_nanos() as u64);
    r
}

/// Total ns recorded in a span.
pub fn total_ns(span: &QuantileSketch) -> f64 {
    span.mean() * span.count() as f64
}

/// What the scheduler layer did over a measured window.
#[derive(Debug, Default)]
pub struct SchedTrace {
    /// Host ns per `schedule` call.
    pub calls: QuantileSketch,
    /// Calls slower than [`CELL_SLOT_NS`].
    pub over_budget: u64,
    /// Matched pairs summed over calls.
    pub matched: u64,
    /// Inputs with at least one request, summed over calls: the most
    /// pairs each call could have matched.
    pub backlogged: u64,
}

/// A scheduler wrapper that, when `ON`, times every
/// [`Scheduler::schedule`] call and counts what it achieved into a shared
/// [`SchedTrace`]. Every trait method forwards to the wrapped scheduler
/// unchanged, so a traced run makes the same decisions, bit for bit, as
/// an untraced one (the benchmark checks the digests). With `ON = false`
/// the wrapper compiles down to the bare scheduler call.
#[derive(Debug)]
pub struct Timed<S, const ON: bool> {
    inner: S,
    trace: Rc<RefCell<SchedTrace>>,
}

impl<S, const ON: bool> Timed<S, ON> {
    /// Wraps `inner`, recording into `trace` when `ON`.
    pub fn new(inner: S, trace: &Rc<RefCell<SchedTrace>>) -> Self {
        Self {
            inner,
            trace: Rc::clone(trace),
        }
    }
}

impl<const W: usize, const ON: bool, S: Scheduler<W>> Scheduler<W> for Timed<S, ON> {
    #[inline]
    fn schedule(&mut self, requests: &RequestMatrixN<W>) -> MatchingN<W> {
        if !ON {
            return self.inner.schedule(requests);
        }
        let start = Instant::now();
        let m = self.inner.schedule(requests);
        let ns = start.elapsed().as_nanos() as u64;
        let mut t = self.trace.borrow_mut();
        t.calls.record(ns);
        t.over_budget += u64::from(ns > CELL_SLOT_NS);
        t.matched += m.len() as u64;
        t.backlogged += requests.nonempty_rows().len() as u64;
        m
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn set_port_mask(&mut self, mask: PortMaskN<W>) {
        self.inner.set_port_mask(mask);
    }

    fn idle_slot_is_noop(&self) -> bool {
        self.inner.idle_slot_is_noop()
    }

    fn wants_queue_observations(&self) -> bool {
        self.inner.wants_queue_observations()
    }

    fn observe_queue(&mut self, i: InputPort, j: OutputPort, depth: u32, age: u32) {
        self.inner.observe_queue(i, j, depth, age);
    }
}

/// Host ns one `Instant::now()` costs: the median over 21 batches of
/// 10 000 back-to-back reads. Every span pays about two of these, which
/// the traced round's overhead (traced ÷ untraced ns/slot − 1) includes.
pub fn timer_ns() -> f64 {
    const READS: u32 = 10_000;
    let batches: Vec<f64> = (0..21)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..READS {
                black_box(Instant::now());
            }
            start.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    median(&batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use an2_sched::{Pim, PortMask, RequestMatrix};

    #[test]
    fn timed_forwards_every_method_and_decision() {
        let trace = Rc::new(RefCell::new(SchedTrace::default()));
        let mut plain = Pim::new(8, 5);
        let mut timed = Timed::<_, true>::new(Pim::new(8, 5), &trace);
        assert_eq!(Scheduler::<4>::name(&timed), plain.name());
        assert_eq!(
            Scheduler::<4>::idle_slot_is_noop(&timed),
            plain.idle_slot_is_noop()
        );
        assert_eq!(
            Scheduler::<4>::wants_queue_observations(&timed),
            plain.wants_queue_observations()
        );
        let mut mask = PortMask::all(8);
        mask.fail_output(3);
        plain.set_port_mask(mask);
        timed.set_port_mask(mask);
        let reqs = RequestMatrix::from_fn(8, |i, j| (i + j) % 3 != 0);
        for _ in 0..20 {
            assert_eq!(timed.schedule(&reqs), plain.schedule(&reqs));
        }
        let t = trace.borrow();
        assert_eq!(t.calls.count(), 20);
        assert_eq!(t.backlogged, 20 * 8);
        // Output 3 is masked, so at most 7 pairs match per call.
        assert!(t.matched > 0 && t.matched <= 20 * 7);
    }

    #[test]
    fn untimed_wrapper_records_nothing() {
        let trace = Rc::new(RefCell::new(SchedTrace::default()));
        let mut timed = Timed::<_, false>::new(Pim::new(4, 1), &trace);
        timed.schedule(&RequestMatrix::from_fn(4, |_, _| true));
        assert_eq!(trace.borrow().calls.count(), 0);
    }

    #[test]
    fn timer_cost_is_positive_and_small() {
        let ns = timer_ns();
        assert!(ns > 0.0 && ns < 10_000.0, "{ns} ns per Instant::now()");
    }
}
