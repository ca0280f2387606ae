//! Deterministic discrete-event cluster simulation substrate.
//!
//! The paper evaluates Q-Graph on two multi-core machines (M1, M2, workers
//! communicating over loopback TCP) and an 8-node Gigabit-Ethernet cluster
//! (C1). Reproducing those testbeds in wall-clock time is impossible here,
//! so this crate provides the closest synthetic equivalent (ARCHITECTURE.md,
//! "Runtimes", has its place in the engine): a virtual-time discrete-event
//! simulator whose cost model captures exactly the three latency components
//! the paper's results hinge on:
//!
//! 1. **compute** — per-vertex-update cost on each worker ([`ComputeModel`]),
//! 2. **network** — per-message latency + bandwidth + serialization cost,
//!    different for loopback vs Ethernet ([`NetworkModel`]),
//! 3. **synchronization** — barrier round-trips, expressed by the engine in
//!    terms of 1 and 2.
//!
//! Everything is deterministic: the same seed and configuration produce an
//! identical event trace, which the integration tests assert.

#![forbid(unsafe_code)]

mod clock;
mod event;
mod models;

pub use clock::SimTime;
pub use event::{EventQueue, ScheduledEvent};
pub use models::{
    ClusterModel, ComputeModel, NetworkModel, BATCH_MAX_MSGS, STATE_BYTES_PER_VERTEX,
};
