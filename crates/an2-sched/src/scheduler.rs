//! The [`Scheduler`] trait: one matching per cell time slot.
//!
//! Every crossbar scheduler in this crate (PIM, iSLIP, RRM, maximum
//! matching, statistical matching with PIM fill) produces a
//! [`crate::Matching`] from a [`crate::RequestMatrix`] once per slot; the
//! simulator in `an2-sim` is
//! generic over this trait. FIFO input queueing does **not** implement it —
//! a FIFO switch only exposes head-of-line cells, not the full request
//! matrix — and is modeled separately.
//!
//! The trait carries the bitset width `W` as a defaulted const parameter:
//! `Scheduler` (no argument) is the four-word, 256-port width every
//! paper-scale experiment uses; `Scheduler<16>` is the wide 1024-port
//! variant behind the scaling benches.

use crate::check::Contract;
use crate::matching::MatchingN;
use crate::port::PortSetN;
use crate::requests::RequestMatrixN;
use std::fmt;

/// Which ports of a switch are currently healthy, generic over the bitset
/// width `W`.
///
/// A fault-injection layer (see `an2-sim`'s `fault` module) marks failed
/// input or output ports here and hands the mask to the scheduler via
/// [`Scheduler::set_port_mask`]; masked ports are excluded from the
/// request/grant/accept rounds. The mask is a pair of [`PortSetN`]s, so it
/// is `Copy` and applying it allocates nothing.
///
/// A freshly built mask has every port active; a full mask must leave the
/// scheduler's behaviour — including every draw from its per-port random
/// streams — bit-identical to an unmasked run, so the fault layer is
/// provably zero-impact when idle.
///
/// # Examples
///
/// ```
/// use an2_sched::PortMask;
/// let mut mask = PortMask::all(4);
/// assert!(mask.is_full());
/// mask.fail_output(2);
/// assert!(!mask.output_active(2));
/// assert_eq!(mask.failed_ports(), 1);
/// mask.recover_output(2);
/// assert!(mask.is_full());
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PortMaskN<const W: usize> {
    n: usize,
    inputs: PortSetN<W>,
    outputs: PortSetN<W>,
}

/// The default-width port mask (up to [`crate::MAX_PORTS`] ports).
pub type PortMask = PortMaskN<4>;

/// The wide port mask (up to [`crate::MAX_WIDE_PORTS`] ports).
pub type WidePortMask = PortMaskN<16>;

impl<const W: usize> PortMaskN<W> {
    /// Creates a mask for an `n`-port switch with every port active.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds the width's capacity (`W * 64`).
    // an2-lint: allow(panic-freedom) the port-count assert is the documented contract; word indices derived from n stay < W
    pub fn all(n: usize) -> Self {
        assert!(n > 0, "switch must have at least one port");
        assert!(n <= PortSetN::<W>::CAPACITY, "switch size {n} out of range");
        Self {
            n,
            inputs: PortSetN::all(n),
            outputs: PortSetN::all(n),
        }
    }

    /// The switch radix this mask describes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The set of healthy input ports.
    pub fn active_inputs(&self) -> &PortSetN<W> {
        &self.inputs
    }

    /// The set of healthy output ports.
    pub fn active_outputs(&self) -> &PortSetN<W> {
        &self.outputs
    }

    /// Whether input `i` is healthy.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    // an2-lint: allow(panic-freedom) the port bound assert validates the index; the word index i/64 is then < W
    pub fn input_active(&self, i: usize) -> bool {
        assert!(i < self.n, "input {i} outside switch");
        self.inputs.contains(i)
    }

    /// Whether output `j` is healthy.
    ///
    /// # Panics
    ///
    /// Panics if `j >= n`.
    // an2-lint: allow(panic-freedom) the port bound assert validates the index; the word index j/64 is then < W
    pub fn output_active(&self, j: usize) -> bool {
        assert!(j < self.n, "output {j} outside switch");
        self.outputs.contains(j)
    }

    /// Marks input `i` failed. Returns `true` if it was previously active.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    // an2-lint: allow(panic-freedom) the port bound assert validates the index; the word index is then < W
    pub fn fail_input(&mut self, i: usize) -> bool {
        assert!(i < self.n, "input {i} outside switch");
        self.inputs.remove(i)
    }

    /// Marks output `j` failed. Returns `true` if it was previously active.
    ///
    /// # Panics
    ///
    /// Panics if `j >= n`.
    // an2-lint: allow(panic-freedom) the port bound assert validates the index; the word index is then < W
    pub fn fail_output(&mut self, j: usize) -> bool {
        assert!(j < self.n, "output {j} outside switch");
        self.outputs.remove(j)
    }

    /// Marks input `i` healthy again. Returns `true` if it was failed.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    // an2-lint: allow(panic-freedom) the port bound assert validates the index; the word index is then < W
    pub fn recover_input(&mut self, i: usize) -> bool {
        assert!(i < self.n, "input {i} outside switch");
        self.inputs.insert(i)
    }

    /// Marks output `j` healthy again. Returns `true` if it was failed.
    ///
    /// # Panics
    ///
    /// Panics if `j >= n`.
    // an2-lint: allow(panic-freedom) the port bound assert validates the index; the word index is then < W
    pub fn recover_output(&mut self, j: usize) -> bool {
        assert!(j < self.n, "output {j} outside switch");
        self.outputs.insert(j)
    }

    /// Total failed ports (inputs plus outputs).
    pub fn failed_ports(&self) -> usize {
        2 * self.n - self.inputs.len() - self.outputs.len()
    }

    /// `true` when no port is failed.
    pub fn is_full(&self) -> bool {
        self.inputs.len() == self.n && self.outputs.len() == self.n
    }
}

impl<const W: usize> fmt::Debug for PortMaskN<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PortMask")
            .field("n", &self.n)
            .field("failed_inputs", &(self.n - self.inputs.len()))
            .field("failed_outputs", &(self.n - self.outputs.len()))
            .finish()
    }
}

/// A crossbar scheduler for an input-queued switch with random-access
/// buffers.
///
/// Implementations are stateful across slots (random streams, round-robin
/// pointers) — call [`schedule`](Scheduler::schedule) once per time slot.
/// The const parameter `W` is the bitset width of the request/matching
/// types; it defaults to 4 words (256 ports), so existing
/// `Box<dyn Scheduler>` and `S: Scheduler` code means the narrow width.
///
/// # Contract
///
/// Every returned matching must be legal: a partial permutation of
/// requested pairs ([`MatchingN::respects`]`(requests)`) that touches no
/// port failed by [`set_port_mask`](Scheduler::set_port_mask) — a
/// scheduler must never connect a pair that has no queued cell.
/// Anything more a scheduler promises (maximality, maximum cardinality,
/// maximum ⟨Q,M⟩ weight, SERENADE's merge bound) it declares itself
/// through [`contract`](Scheduler::contract). One checker enforces the
/// declaration everywhere: [`crate::check::CheckedScheduler`] re-derives
/// the oracle-free rules every slot in checked builds, and
/// `an2-verify`'s contract property runs every scheduler in this crate
/// against the oracle rules too.
pub trait Scheduler<const W: usize = 4> {
    /// Computes the matching that configures the crossbar for the next time
    /// slot, given the current queued-cell requests.
    fn schedule(&mut self, requests: &RequestMatrixN<W>) -> MatchingN<W>;

    /// A short stable identifier for reports ("pim", "islip", ...).
    fn name(&self) -> &'static str;

    /// What this scheduler promises about every matching it returns
    /// (see [`Contract`]). The default promises legality only; a
    /// scheduler that guarantees more declares it here, and the checkers
    /// hold it to the declaration.
    ///
    /// Read once per checker, never per slot.
    fn contract(&self) -> Contract {
        Contract::LEGAL
    }

    /// Installs a port health mask: failed ports are excluded from every
    /// subsequent [`schedule`](Scheduler::schedule) call until the mask is
    /// replaced.
    ///
    /// Implementations must not perturb random draws for healthy ports, and
    /// a full mask (no failed ports) must be behaviourally identical to
    /// never calling this method. The default implementation ignores the
    /// mask, which is correct for schedulers that are never run against a
    /// degraded fabric.
    ///
    /// # Panics
    ///
    /// Implementations panic if `mask.n()` differs from the scheduler size.
    fn set_port_mask(&mut self, mask: PortMaskN<W>) {
        let _ = mask;
    }

    /// Returns `true` if calling [`schedule`](Scheduler::schedule) with an
    /// **empty** request matrix is a pure no-op for this scheduler: it
    /// returns an empty matching, consumes no randomness, and moves no
    /// pointer or other internal state.
    ///
    /// Engines use this to skip the scheduler call outright on idle slots
    /// (the batch engine's sparse slot loop), so an incorrect `true` here
    /// breaks bit-identity with unskipped runs. The default is the safe
    /// `false`; stateless-when-idle schedulers (PIM, iSLIP/RRM, maximum
    /// matching) opt in. Schedulers that advance state every call no
    /// matter what — statistical matching's frame position — must keep the
    /// default.
    fn idle_slot_is_noop(&self) -> bool {
        false
    }

    /// Returns `true` if this scheduler wants per-pair queue observations
    /// ([`observe_queue`](Scheduler::observe_queue)) fed to it before each
    /// [`schedule`](Scheduler::schedule) call.
    ///
    /// Queue-aware schedulers (MWM with LQF/OCF weight policies, SERENADE's
    /// weighted merge) opt in; the engine then walks the active request
    /// pairs and reports each pair's VOQ depth and head-of-line cell age.
    /// Queue-oblivious schedulers keep the default `false` and the engine
    /// skips the walk entirely, so the binary-request fast path is
    /// untouched.
    fn wants_queue_observations(&self) -> bool {
        false
    }

    /// Reports the queue state behind one active request pair: `depth`
    /// cells are buffered from input `i` to output `j`, and the
    /// head-of-line cell has waited `age` slots.
    ///
    /// Called once per active pair between slots, before
    /// [`schedule`](Scheduler::schedule), and only when
    /// [`wants_queue_observations`](Scheduler::wants_queue_observations)
    /// returns `true`. Pairs not reported since the last `schedule` call
    /// default to weight 1 (pure connectivity), so a queue-aware scheduler
    /// driven without observations degrades to maximum-cardinality
    /// behaviour instead of misbehaving.
    fn observe_queue(
        &mut self,
        i: crate::port::InputPort,
        j: crate::port::OutputPort,
        depth: u32,
        age: u32,
    ) {
        let _ = (i, j, depth, age);
    }
}

impl<const W: usize, S: Scheduler<W> + ?Sized> Scheduler<W> for Box<S> {
    fn schedule(&mut self, requests: &RequestMatrixN<W>) -> MatchingN<W> {
        (**self).schedule(requests)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn contract(&self) -> Contract {
        (**self).contract()
    }

    fn set_port_mask(&mut self, mask: PortMaskN<W>) {
        (**self).set_port_mask(mask);
    }

    fn idle_slot_is_noop(&self) -> bool {
        (**self).idle_slot_is_noop()
    }

    fn wants_queue_observations(&self) -> bool {
        (**self).wants_queue_observations()
    }

    fn observe_queue(
        &mut self,
        i: crate::port::InputPort,
        j: crate::port::OutputPort,
        depth: u32,
        age: u32,
    ) {
        (**self).observe_queue(i, j, depth, age);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pim::Pim;
    use crate::requests::RequestMatrix;

    #[test]
    fn boxed_scheduler_delegates() {
        let mut s: Box<dyn Scheduler> = Box::new(Pim::new(4, 1));
        assert_eq!(s.name(), "pim");
        let reqs = RequestMatrix::from_pairs(4, [(0, 0)]);
        let m = s.schedule(&reqs);
        assert_eq!(m.len(), 1);
    }
}
