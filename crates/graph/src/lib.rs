//! Graph substrate for the Q-Graph reproduction.
//!
//! This crate provides the static graph storage shared by every query: a
//! compressed sparse row ([`Graph`]) over directed, weighted edges, plus
//! optional per-vertex properties used by the paper's workloads (2-D
//! coordinates for road networks, boolean tags for point-of-interest
//! queries, and a *region* label used by the Domain partitioner).
//!
//! Design notes:
//! * Vertex ids are dense `u32` indices ([`VertexId`]); a road network of the
//!   paper's largest scale (11.8 M vertices) fits comfortably.
//! * Edge weights are `f32` travel times (length / speed limit in the paper).
//! * The CSR itself is immutable after [`GraphBuilder::build`]; queries
//!   only ever read it, and all query-mutable state lives in
//!   query-specific vertex data. *Topology* changes (the evolving-graph
//!   serving model) go through the [`Topology`] overlay: one
//!   copy-on-write out-row per vertex a mutation changed, over the frozen
//!   base, compacted back into a fresh CSR when it grows too large.

#![forbid(unsafe_code)]

mod builder;
mod csr;
mod ids;
mod mutation;
mod props;
mod topology;
mod validate;

pub use builder::GraphBuilder;
pub use csr::{Graph, NeighborIter};
pub use ids::{EdgeId, VertexId};
pub use mutation::{valid_weight, GraphMutation, MutationBatch, MutationError};
pub use props::{RegionId, VertexProps};
pub use topology::{AppliedMutation, EdgeChange, TopoNeighbors, Topology};
pub use validate::{validate, GraphInvariantError};
