//! Microsecond point queries: the hub-label index plane end to end.
//!
//! Builds a pruned-landmark label index over a road network and installs
//! it on a `ThreadEngine`. Point-shaped queries (s→t distance,
//! reachability) are then answered at admission by a two-hop label
//! intersection instead of running a BSP traversal — same answers,
//! orders of magnitude less work. Edge churn is streamed in to show the
//! other half of the plane: every mutation barrier repairs the labels —
//! a rebuild when the batch nets to an edge removal, a resume of the
//! affected passes when it only inserts — and the index keeps serving
//! across epochs.
//!
//! Run with: `cargo run --release --bin point_queries`

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use qgraph_algo::{ReachPointProgram, SsspProgram};
use qgraph_core::{SystemConfig, ThreadEngine, Topology};
use qgraph_graph::VertexId;
use qgraph_index::{IndexConfig, LabelIndex};
use qgraph_partition::{HashPartitioner, Partitioner};
use qgraph_workload::{
    edge_churn, generate_point_queries, ChurnConfig, PairSkew, PointQuerySpec, PointWorkloadConfig,
    RoadNetworkConfig, RoadNetworkGenerator,
};

fn serve(engine: &mut ThreadEngine, specs: &[PointQuerySpec]) -> f64 {
    let start = Instant::now();
    for s in specs {
        if s.reach {
            engine.submit(ReachPointProgram::new(s.source, s.target));
        } else {
            engine.submit(SsspProgram::new(s.source, s.target));
        }
    }
    engine.run();
    start.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let net = RoadNetworkGenerator::new(RoadNetworkConfig {
        num_cities: 3,
        vertices_per_city: 400,
        seed: 42,
        ..Default::default()
    })
    .generate();
    let graph = Arc::new(net.graph);
    println!(
        "road network: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // Build the two-hop label index (sequential pruned landmark labeling,
    // roots ranked by sampled shortest-path coverage × degree).
    let build_start = Instant::now();
    let index = LabelIndex::build(&Topology::new(Arc::clone(&graph)), IndexConfig::default());
    println!(
        "label index: {} entries ({:.1} per vertex) built in {:.1} ms",
        index.total_entries(),
        index.total_entries() as f64 / graph.num_vertices() as f64,
        build_start.elapsed().as_secs_f64() * 1e3,
    );

    let live: Vec<VertexId> = (0..graph.num_vertices() as u32).map(VertexId).collect();
    let specs = generate_point_queries(
        &live,
        &PointWorkloadConfig {
            count: 192,
            skew: PairSkew::Uniform,
            reach_fraction: 0.25,
            seed: 7,
        },
    );
    let parts = HashPartitioner::default().partition(&graph, 4);

    // The same stream through a traversal-only engine and an
    // index-serving engine; the speedup is the headline number.
    let mut traversal =
        ThreadEngine::with_config(Arc::clone(&graph), parts.clone(), SystemConfig::default());
    let trav_ms = serve(&mut traversal, &specs);
    traversal.shutdown();

    let mut engine = ThreadEngine::with_config(Arc::clone(&graph), parts, SystemConfig::default());
    engine.install_index(Box::new(index));
    let idx_ms = serve(&mut engine, &specs);

    let report = engine.report();
    let tis = report.time_in_system_percentiles();
    println!(
        "{} queries: traversal {:.1} ms, index {:.3} ms ({:.0}x)",
        specs.len(),
        trav_ms,
        idx_ms,
        trav_ms / idx_ms.max(1e-9),
    );
    println!(
        "index-served {} / traversal-served {}; time-in-system p50 {:.6}s p99 {:.6}s",
        report.index_served(),
        report.traversal_served(),
        tis.p50,
        tis.p99,
    );

    // Stream road churn into the same engine: each batch applies at a
    // mutation barrier and the installed index repairs itself there.
    for tm in edge_churn(&graph, &ChurnConfig::uniform(6, 4, 10.0, 23)) {
        engine.mutate(tm.batch);
        engine.drain();
    }
    for r in &engine.report().index_repairs {
        println!(
            "  epoch {}: {} root passes run, -{}/+{} labels{}",
            r.epoch,
            r.summary.roots_rerun,
            r.summary.labels_removed,
            r.summary.labels_added,
            if r.summary.rebuilt {
                " (rebuilt: the batch nets to a removal)"
            } else {
                " (resumed)"
            },
        );
    }

    // The repaired index keeps serving point queries on the churned
    // graph — no stale answers, no fallback to traversal.
    let before = engine.report().index_served();
    let post = generate_point_queries(
        &live,
        &PointWorkloadConfig {
            count: 64,
            skew: PairSkew::Uniform,
            reach_fraction: 0.25,
            seed: 29,
        },
    );
    serve(&mut engine, &post);
    let report = engine.report();
    println!(
        "after churn (epoch {}): {} more point queries index-served, index valid through epoch {}",
        engine.epoch(),
        report.index_served() - before,
        engine.epoch(),
    );
    engine.shutdown();
}
