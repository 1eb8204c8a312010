//! Multi-switch network simulation for the AN2 reproduction.
//!
//! The paper evaluates more than a single switch: §4/Appendix B bound CBR
//! latency and buffering across a *path* of switches with unsynchronized
//! clocks, and §5.1/Figure 9 shows fairness degrading across a *chain* of
//! switches. This crate provides those substrates:
//!
//! * [`netsim`] — a slot-synchronous arbitrary-topology network of
//!   input-queued switches (PIM-scheduled by default), links with latency,
//!   per-flow static routes, saturating or rate-limited sources.
//! * [`flows`] — the per-flow input buffers of a network switch (§3.3):
//!   a FIFO per flow on the shared queue slab, round robin or FIFO across
//!   the flows of a pair, drop-tail capacity, reroute.
//! * [`clock`] — drifting frame clocks, including the Appendix B
//!   slow-then-fast adversary.
//! * [`cbr`] — the frame-based CBR chain simulation that checks the
//!   Appendix B latency bound (Formula 3) and buffer bound (Formula 5).
//! * [`fairness`] — the Figure 8 and Figure 9 unfairness experiments.
//!
//! # Quick start
//!
//! ```
//! use an2_net::fairness::figure_9_shares;
//! let s = figure_9_shares(1, 2_000, 10_000);
//! // The flow merging at the last switch gets about half the bottleneck.
//! assert!(s.shares[0] > 0.4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod cbr;
pub mod clock;
pub mod fairness;
pub mod flows;
pub mod netsim;
pub mod shard;

pub use cbr::{simulate_cbr_chain, CbrChainConfig, CbrChainReport, CbrConfigError};
pub use clock::{ClockPolicy, FrameClock};
pub use netsim::{Network, ReserveFlowError, SwitchId, TopologyError};
pub use shard::{
    run_shard_net, run_shard_net_faulted, ShardFaultReport, ShardNetConfig, ShardReport,
    FAULT_WINDOW,
};
