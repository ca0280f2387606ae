//! **Q-cut**: centralized query-aware partitioning (paper §3.2 + App. A).
//!
//! The controller never sees vertices. Workers report, per query `q`, the
//! size of the local query scope `|LS(q,w)|` and the intersections between
//! co-located scopes; Q-cut then optimizes this *high-level* representation
//! with iterated local search (ILS) and hands back scope-granularity move
//! requests `move(LS(q,w), w → w')`.
//!
//! Components, one module each:
//! * `stats` — the high-level input representation ([`ScopeStats`]).
//! * `cluster` — Karger-style contraction of overlapping queries into at
//!   most `4k` clusters (paper App. A.1).
//! * `solution` — the solution state, its cost function, and the balance
//!   constraint δ.
//! * `local_search` — Algorithm 2: steepest-descent scope moves, one
//!   cached scan per move ([`Solution::steepest_move`]).
//! * `perturb` — Appendix A.2: gather one query's scopes, then rebalance.
//! * `ils` — Algorithm 1: the ILS driver with cost tracing.
//! * `migrate` — shared [`MovePlan`] application: resolve scope moves into
//!   disjoint vertex transfers, replay them on workers and partitioning
//!   (used by both runtimes' global barriers).

mod cluster;
mod ils;
mod local_search;
pub mod migrate;
mod perturb;
mod solution;
mod stats;

pub use cluster::{cluster_queries, QueryCluster};
pub use ils::{run_qcut, IlsResult, IlsTracePoint};
pub use local_search::local_search;
pub use migrate::{Migration, VertexMove};
pub use perturb::perturb;
pub use solution::{MovePlan, ScopeMove, Solution};
pub use stats::ScopeStats;
