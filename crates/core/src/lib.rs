//! **Q-Graph**: multi-query vertex-centric graph processing with
//! query-aware partitioning (*Q-cut*), *hybrid barrier synchronization*,
//! and runtime *adaptivity* — a Rust reproduction of Mayer et al.,
//! "Q-Graph: Preserving Query Locality in Multi-Query Graph Processing"
//! (GRADES-NDA'18).
//!
//! # Architecture (paper §3.1)
//!
//! Q-Graph is two-layered:
//! * **Workers** execute vertex functions over their partition of the
//!   shared graph and exchange messages ([`worker`]).
//! * A **centralized controller** holds *high-level* global knowledge —
//!   per-query local scope sizes and intersections, never raw vertices —
//!   and uses it for barrier management and repartitioning ([`controller`]).
//!
//! Queries are *heterogeneous*: one engine instance runs SSSP, POI, and
//! reachability programs concurrently. Internally every submitted
//! [`VertexProgram`] is erased behind an object-safe
//! [`task::QueryTask`]; the public API stays fully typed through
//! [`QueryHandle`]s.
//!
//! The controller's query protocol — admission, per-query barriers,
//! DoP deferral, the stop-the-world window — is written once, as a
//! sans-IO state machine (the crate-private `coord` module), and the query
//! API is written once too: one [`Engine`] front (submit / run / output /
//! report) over the [`Runtime`] that executes the protocol:
//! * [`SimEngine`] (`Engine<Sim>`) — a deterministic discrete-event
//!   engine over the `qgraph-sim` virtual cluster; every paper figure of
//!   the `qgraph-bench` experiments harness and `qbench`'s `sim-paper`
//!   workload use it (the `qgraph-sim` crate docs say why the paper's
//!   testbeds are simulated; ARCHITECTURE.md, "Runtimes", how the two
//!   relate).
//! * [`ThreadEngine`] (`Engine<Threads>`) — a real shared-memory
//!   multi-threaded executor of the same protocol, demonstrating the
//!   library on actual hardware.
//!
//! Both are assembled from graph, partitioner, cluster, and configuration
//! by [`EngineBuilder`]; a driver generic over `R: Runtime` runs on
//! either.
//!
//! # Quick example
//!
//! ```
//! use qgraph_core::{programs::ReachProgram, EngineBuilder};
//! use qgraph_graph::{GraphBuilder, VertexId};
//! use qgraph_partition::RangePartitioner;
//! use qgraph_sim::ClusterModel;
//!
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(0, 1, 1.0);
//! b.add_edge(1, 2, 1.0);
//! let graph = b.build();
//! let mut engine = EngineBuilder::new(graph)
//!     .cluster(ClusterModel::scale_up(2))
//!     .partitioner(RangePartitioner)
//!     .build_sim();
//! let q = engine.submit(ReachProgram::new(VertexId(0)));
//! engine.run();
//! let reached = engine.output(&q).unwrap();
//! assert!(reached.contains(&VertexId(2)));
//! ```

#![forbid(unsafe_code)]

pub mod api;
pub mod barrier;
pub mod config;
pub mod controller;
mod coord;
pub mod engine;
pub mod hb;
pub mod index_plane;
pub mod pool;
pub mod program;
pub mod programs;
pub mod qcut;
pub mod query;
pub mod report;
pub mod runtime;
pub mod sched;
pub mod task;
pub mod trace;
pub mod worker;

pub use api::{Engine, EngineBuilder, Runtime};
pub use config::{BarrierMode, QcutConfig, SystemConfig};
pub use engine::SimEngine;
pub use index_plane::{IndexRepairEvent, PointAnswer, PointIndex, PointQuery, RepairSummary};
pub use pool::PoolStats;
pub use program::{Context, VertexProgram};
pub use query::{OutcomeStatus, QueryHandle, QueryId, QueryOutcome, ServedBy};
pub use report::{
    EngineReport, MutationEvent, Percentiles, PoolCounters, ProgramSummary, SloReport,
};
pub use runtime::{EngineClient, ThreadEngine};
pub use sched::{AdmissionPolicy, Submission};
pub use trace::TraceData;

// The mutation plane's graph-side vocabulary, re-exported so engine users
// build batches without a separate qgraph-graph import.
pub use qgraph_graph::{GraphMutation, MutationBatch, Topology};
