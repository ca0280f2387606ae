//! Serving queries over an evolving graph: the mutation plane end to end.
//!
//! A `ThreadEngine` serves an open-loop SSSP stream while a second client
//! streams road closures and re-openings into the same engine. Each
//! mutation batch applies atomically at a stop-the-world barrier and
//! opens a new *graph epoch*; every query outcome records the epoch span
//! it ran under, so answers stay attributable even as the road network
//! changes beneath them.
//!
//! Run with: `cargo run --release --bin evolving`

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use qgraph_algo::SsspProgram;
use qgraph_core::{EngineBuilder, QcutConfig, SystemConfig};
use qgraph_graph::VertexId;
use qgraph_partition::HashPartitioner;
use qgraph_workload::{road_closures, ChurnConfig, RoadNetworkConfig, RoadNetworkGenerator};

fn main() {
    let net = RoadNetworkGenerator::new(RoadNetworkConfig {
        num_cities: 4,
        vertices_per_city: 500,
        seed: 42,
        ..Default::default()
    })
    .generate();
    let graph = Arc::new(net.graph);
    let n = graph.num_vertices() as u32;
    println!(
        "road network: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    let churn = road_closures(&graph, &ChurnConfig::poisson(12, 6, 1.0, 7));

    let cfg = SystemConfig {
        qcut: Some(QcutConfig::default()),
        // Compact aggressively so the example shows a CSR rebuild.
        compact_fraction: 0.002,
        ..Default::default()
    };
    let mut engine = EngineBuilder::new(Arc::clone(&graph))
        .workers(4)
        .partitioner(HashPartitioner::default())
        .config(cfg)
        .build_threaded();
    engine.start();

    // Client A: an open-loop query stream.
    let queries = engine.client();
    let query_thread = thread::spawn(move || {
        for i in 0..48u32 {
            let s = VertexId((i * 131) % n);
            let t = VertexId((i * 197 + n / 2) % n);
            queries.submit(SsspProgram::new(s, t));
            thread::sleep(Duration::from_millis(1));
        }
    });

    // Client B: the road churn.
    let roads = engine.client();
    let churn_thread = thread::spawn(move || {
        for m in churn {
            roads.mutate(m.batch);
            thread::sleep(Duration::from_millis(4));
        }
    });

    query_thread.join().expect("query client");
    churn_thread.join().expect("churn client");
    engine.shutdown();

    let report = engine.report();
    println!(
        "served {} queries across {} graph epochs",
        report.completed().count(),
        engine.epoch()
    );
    for m in &report.mutations {
        println!(
            "  epoch {:>2}: {} ops{}{}",
            m.epoch,
            m.ops,
            if m.new_vertices > 0 {
                format!(", +{} vertices", m.new_vertices)
            } else {
                String::new()
            },
            if m.compacted { ", compacted CSR" } else { "" },
        );
    }
    let spanning = report.completed().filter(|o| !o.single_epoch()).count();
    println!(
        "{} queries ran wholly inside one epoch, {} spanned a mutation barrier",
        report.completed().count() - spanning,
        spanning
    );
    println!(
        "repartitions: {}; final topology: {} vertices / {} edges (epoch {})",
        report.repartitions.len(),
        engine.topology().num_vertices(),
        engine.topology().num_edges(),
        engine.epoch()
    );
}
