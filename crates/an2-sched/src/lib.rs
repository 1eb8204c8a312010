//! Switch-scheduling algorithms from *High Speed Switch Scheduling for
//! Local Area Networks* (Anderson, Owicki, Saxe, Thacker; ASPLOS 1992).
//!
//! The paper's AN2 switch separates *scheduling* (choosing a conflict-free
//! set of cells per time slot) from *data forwarding* (a crossbar). This
//! crate implements the scheduling side:
//!
//! * [`Pim`] — **parallel iterative matching**, the paper's primary
//!   contribution: a randomized parallel algorithm that finds a maximal
//!   bipartite matching of inputs to outputs in `O(log N)` expected
//!   iterations (§3, Appendix A).
//! * [`FrameSchedule`] — Slepian–Duguid frame scheduling for constant-bit-
//!   rate reservations with guaranteed bandwidth (§4).
//! * [`stat::StatisticalMatcher`] — **statistical
//!   matching**, the weighted-dice generalization of PIM that reserves up
//!   to ~72% of each link for rapidly changing allocations (§5, App. C).
//! * Baselines and extensions: [`FifoArbiter`](fifo::FifoArbiter)
//!   (head-of-line blocking baseline, §2.4),
//!   [`MaximumMatching`](maximum::MaximumMatching) (Hopcroft–Karp, §3.4),
//!   and [`RoundRobinMatching`](islip::RoundRobinMatching) (RRM/iSLIP, the
//!   pointer-based successors, included for ablation).
//!
//! Simulation of switches and networks built on these algorithms lives in
//! the companion crates `an2-sim` and `an2-net`.
//!
//! # Quick start
//!
//! ```
//! use an2_sched::{Pim, RequestMatrix, Scheduler};
//!
//! // A 16x16 switch where every input has a cell for every output.
//! let requests = RequestMatrix::from_fn(16, |_, _| true);
//! let mut pim = Pim::new(16, 0xA2);
//! let matching = pim.schedule(&requests);
//! assert!(matching.respects(&requests));
//! // With four iterations (the AN2 hardware budget), dense request
//! // patterns almost always reach a maximal -- here perfect -- match.
//! assert!(matching.len() >= 12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// `deny` rather than `forbid`: the single sanctioned exception is the
// BMI2 rank-select intrinsic in `port::select_in_word_bmi2`. The allow is
// scoped to the whole `port` module (below) rather than sprinkled on items,
// and an2-lint's unsafe-hygiene rule independently requires every `unsafe`
// there to carry a `// SAFETY:` rationale.
#![deny(unsafe_code)]

pub mod check;
pub mod costmodel;
pub mod det;
pub mod fifo;
mod frame;
pub mod islip;
pub mod kgrant;
mod matching;
pub mod maximum;
pub mod mwm;
pub mod pim;
// The one module permitted to contain `unsafe`: the runtime-dispatched
// BMI2 fast path. See lint/unsafe-allowlist.txt.
#[allow(unsafe_code)]
mod port;
mod requests;
pub mod rng;
mod scheduler;
pub mod serenade;
pub mod stat;
pub mod subframe;

pub use check::{checking_enabled, CheckedScheduler, Violation};
pub use frame::{FrameSchedule, ReservationError};
pub use matching::{Matching, MatchingN, PairConflict, WideMatching};
pub use mwm::{Mwm, MwmN, WeightPolicy, WideMwm};
pub use pim::{AcceptPolicy, IterationLimit, Pim, PimN, PimStats, WidePim};
pub use port::{
    InputPort, OutputPort, PortSet, PortSetN, WidePortSet, MAX_PORTS, MAX_WIDE_PORTS, WIDE_WORDS,
};
pub use requests::{RequestMatrix, RequestMatrixN, WideRequestMatrix};
pub use scheduler::{PortMask, PortMaskN, Scheduler, WidePortMask};
pub use serenade::{Serenade, SerenadeN, WideSerenade};
pub use stat::{ReservationTable, StatisticalMatcher};
