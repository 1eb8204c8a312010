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
//! * [`contract`] — the **oracle rules of a scheduler's declared
//!   contract** (`an2_sched::Scheduler::contract`): maximum cardinality
//!   against Kuhn, maximum ⟨Q,M⟩ against the brute-force DP, SERENADE's
//!   merge bound and §3.4's half-maximum bound on every maximal
//!   matching, after the oracle-free rules of `an2_sched::check`. The
//!   table-driven property `tests/contracts.rs` runs every scheduler
//!   through it.
//! * [`engine`] — the **rules of an engine's declared
//!   [`EngineContract`](engine::EngineContract)**: conservation (drops by
//!   cause included), line rate, losslessness, time-shift invariance and
//!   agreement with [`ReferenceSwitch`](engine::ReferenceSwitch), a plain
//!   slot loop over [`ReferenceVoq`]. The
//!   table-driven test `tests/engines.rs` runs every switch model, the
//!   batch engine, the sharded ring and a netsim chain through it.
//! * [`reference_voq`] — a [`ReferenceVoq`]: the §3.3 input buffer as
//!   plain hash maps of per-flow FIFOs and nested per-pair lists, the
//!   oracle for the network simulator's per-flow buffers
//!   (`an2_net::flows::FlowQueues`) and, under `ReferenceSwitch`, for
//!   the single-switch engine's queues and queue observations.
//! * [`runner`] — an **invariant-checked probe runner** that drives a
//!   scheduler over per-pair FIFOs slot by slot, re-verifying after every
//!   slot that the matching meets the scheduler's contract (maximal too
//!   when the case asks for it), that no pair queue exceeds its capacity,
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
//! `FlowQueues::within_capacity`, `SwitchReport::is_conserved` and
//! `Network::verify_invariants` (for the probe runner, the chaos campaign
//! and `an2-repro --check`), and `SwitchModel::start_at_slot` (for the
//! time-shift rule).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod contract;
pub mod engine;
pub mod oracle;
pub mod reference_voq;
pub mod replay;
pub mod runner;

pub use oracle::{ReferencePim, ReferencePimN, ReferenceRoundRobin, WideReferencePim};
pub use reference_voq::ReferenceVoq;
pub use replay::{shrink, ReplayCase, ReplayParseError};
pub use runner::{run_case, RunOutcome};
