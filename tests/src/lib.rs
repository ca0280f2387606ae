//! Shared helpers for the cross-crate integration tests.
//!
//! The actual tests live in `tests/tests/*.rs`; this library only hosts
//! fixtures that several of them reuse (small deterministic worlds: a graph,
//! a partitioning, and a query workload).

#![forbid(unsafe_code)]

use qgraph_core::{EngineReport, QueryId};
use qgraph_graph::Graph;
use qgraph_workload::{RoadNetworkConfig, RoadNetworkGenerator};

/// The placement- and schedule-independent structural record of every
/// outcome, keyed by query id: program, iterations, local iterations,
/// vertex updates, remote messages, remote batches, scope size, tasks.
/// With adaptivity off it must be identical across pool widths, DoP
/// budgets and runtimes.
pub type Fingerprint = Vec<(QueryId, &'static str, u32, u32, u64, u64, u64, u64, u64)>;

/// The [`Fingerprint`] of `report`, sorted by query id.
pub fn fingerprint(report: &EngineReport) -> Fingerprint {
    let mut fp: Fingerprint = report
        .outcomes
        .iter()
        .map(|o| {
            (
                o.id,
                o.program,
                o.iterations,
                o.local_iterations,
                o.vertex_updates,
                o.remote_messages,
                o.remote_batches,
                o.scope_size,
                o.tasks,
            )
        })
        .collect();
    fp.sort_unstable_by_key(|f| f.0);
    fp
}

/// A small deterministic road network (a few thousand vertices) used by the
/// integration tests. Cheap enough to build per-test.
pub fn small_road_world(seed: u64) -> qgraph_workload::RoadNetwork {
    RoadNetworkGenerator::new(RoadNetworkConfig {
        num_cities: 4,
        vertices_per_city: 400,
        seed,
        ..RoadNetworkConfig::default()
    })
    .generate()
}

/// A tiny line graph `0 -> 1 -> ... -> n-1` with unit weights, handy for
/// hand-checkable shortest-path assertions.
pub fn line_graph(n: usize) -> Graph {
    let mut b = qgraph_graph::GraphBuilder::new(n);
    for i in 0..n.saturating_sub(1) {
        b.add_edge(i as u32, i as u32 + 1, 1.0);
    }
    b.build()
}
