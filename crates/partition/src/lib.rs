//! Graph partitioners and partitioning-quality metrics.
//!
//! The paper evaluates Q-cut on top of two *static* prepartitionings and
//! rejects a third:
//!
//! * **Hash** — pseudo-random vertex→worker assignment. Ideal workload
//!   balance, terrible locality (§4.1, Figure 6e/6f).
//! * **Domain** — a "domain expert" assigns whole query hotspots (regions /
//!   cities) to single workers. Near-ideal locality (>95 %), poor balance.
//! * **LDG** — linear deterministic greedy streaming partitioning
//!   (Stanton & Kliot), the state-of-the-art query-agnostic baseline that
//!   the paper excluded after observing heavy imbalance under skewed query
//!   workloads (2–6× latency). We implement it so the exclusion experiment
//!   is reproducible.
//!
//! [`Partitioning`] is the shared assignment type consumed by the engine;
//! Q-cut itself lives in `qgraph-core` because it operates on query scopes,
//! not the raw graph.

#![forbid(unsafe_code)]

mod domain;
mod hash;
mod ldg;
mod quality;
mod range;
mod types;

pub use domain::DomainPartitioner;
pub use hash::HashPartitioner;
pub use ldg::LdgPartitioner;
pub use quality::{edge_cut, imbalance, locality_fraction, query_cut};
pub use range::RangePartitioner;
pub use types::{Partitioner, Partitioning, WorkerId};
