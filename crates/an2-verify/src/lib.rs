//! Verification layer for the AN2 reproduction.
//!
//! Three PRs of hot-path optimisation (zero-allocation scheduling, BMI2
//! bit tricks, a bitset Hopcroft–Karp, work-stealing parallelism) left the
//! repo's correctness story resting on pinned digests. This crate turns
//! that into machine-checked invariants, following the practice of the
//! SERENADE and iSLIP validation literature: check randomized schedulers
//! against exact naive references and closed-form queueing formulas.
//!
//! * [`oracle`] — **differential oracles**: a [`ReferencePim`] over plain
//!   `Vec<Vec<bool>>` matrices that replicates the optimised scheduler's
//!   draw discipline bit-for-bit at both widths and under port masks, a
//!   [`ReferenceRoundRobin`] dense iSLIP/RRM sweep that the sparse
//!   round-robin kernel must match pointer for pointer, a Kuhn
//!   maximum-matching reference for Hopcroft–Karp, a brute-force
//!   frame-schedule feasibility search for the Slepian–Duguid
//!   construction, and confidence-bound helpers for the analytic M/D/1
//!   and Karol cross-checks.
//! * [`reference_voq`] — a [`ReferenceVoq`]: the §3.3 input buffer as
//!   plain hash maps of per-flow FIFOs and nested per-pair lists, the
//!   oracle for the network simulator's per-flow buffers
//!   (`an2_net::flows::FlowQueues`) and, driven by a plain slot loop, for
//!   the single-switch engine's queues and queue observations.
//! * [`runner`] — an **invariant-checked probe runner** that drives a
//!   scheduler over per-pair FIFOs slot by slot, re-verifying after every
//!   slot that the matching is a legal (optionally maximal) permutation
//!   submatrix of the requests, that no pair queue exceeds its capacity,
//!   and that cells are conserved. Unlike `an2_sched::CheckedScheduler`
//!   (which compiles its checks away in plain release builds) the runner
//!   always checks — it exists to be asked.
//! * [`replay`] — a **deterministic replay + shrink harness**: a failing
//!   probe serialises to a self-contained `replay.json` ([`ReplayCase`])
//!   that `an2-repro replay <file>` re-executes to the exact failing
//!   slot; [`replay::shrink`] greedily minimises slot count and active
//!   ports while preserving the failure.
//!
//! The runtime hooks these build on live with the code they check:
//! `an2_sched::check` (per-matching invariants), `PairFifos::within_bound`,
//! `FlowQueues::within_capacity`, `SwitchReport::is_conserved`, and
//! `Network::verify_invariants`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod oracle;
pub mod reference_voq;
pub mod replay;
pub mod runner;

pub use oracle::{ReferencePim, ReferencePimN, ReferenceRoundRobin, WideReferencePim};
pub use reference_voq::ReferenceVoq;
pub use replay::{shrink, ReplayCase, ReplayParseError};
pub use runner::{run_case, RunOutcome};
