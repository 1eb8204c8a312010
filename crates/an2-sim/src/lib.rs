//! Slot-level single-switch simulator for the AN2 reproduction.
//!
//! This crate provides the evaluation substrate of §3.5 of *High Speed
//! Switch Scheduling for Local Area Networks* (Anderson et al., ASPLOS
//! 1992): workload generators ([`traffic`]), three switch organizations
//! ([`switch`], [`fifo_switch`], [`output_queued`]) behind one
//! [`model::SwitchModel`] trait, queueing metrics ([`metrics`]), and the
//! sweep machinery that regenerates the delay-vs-load figures
//! ([`experiment`]).
//!
//! The input-queued crossbar has one engine, [`batch::BatchCrossbar`]:
//! per-pair FIFOs of arrival stamps in a [`slab::QueueSlab`] (records only
//! for the pairs holding cells), an incremental request matrix, fault
//! events decoded by [`fault::SwitchFaults`], and queue observations for
//! queue-aware schedulers. [`switch::CrossbarSwitch`] is its face under
//! the scheduler's name. The speedup and hybrid switches queue on the same
//! slab through [`slab::PairFifos`], one FIFO per pair; the paper's
//! per-flow buffers, where several flows share a pair, live beside the
//! network simulator (`an2_net::flows`).
//!
//! # Quick start
//!
//! Reproduce one point of Figure 3 — PIM with four iterations on a 16×16
//! switch under uniform load:
//!
//! ```
//! use an2_sched::Pim;
//! use an2_sim::sim::{simulate, SimConfig};
//! use an2_sim::switch::CrossbarSwitch;
//! use an2_sim::traffic::RateMatrixTraffic;
//!
//! let mut switch = CrossbarSwitch::new(Pim::new(16, 42));
//! let mut traffic = RateMatrixTraffic::uniform(16, 0.80, 43);
//! let report = simulate(&mut switch, &mut traffic, SimConfig::quick());
//! // At 80% uniform load PIM's mean delay is a handful of slots.
//! assert!(report.delay.mean() < 10.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod analytic;
pub mod batch;
pub mod cell;
pub mod chaos;
pub mod experiment;
pub mod fault;
pub mod fifo_switch;
pub mod hybrid_switch;
pub mod metrics;
pub mod model;
pub mod output_queued;
pub mod sim;
pub mod slab;
pub mod speedup_switch;
pub mod switch;
pub mod traffic;
pub mod units;

pub use batch::BatchCrossbar;
pub use cell::{Arrival, Cell, FlowId};
pub use chaos::{ChaosEngine, ChaosScenario};
pub use fault::{DropCause, FaultEvent, FaultKind, FaultLog, FaultPlan, PortSide};
pub use metrics::{DelayStats, SwitchReport};
pub use model::SwitchModel;
pub use sim::{simulate, SimConfig};
