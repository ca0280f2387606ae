//! Adaptive Q-cut on real threads: run a repeating SSSP hotspot on the
//! multi-threaded runtime twice — once on a static hash partitioning,
//! once with the stop-the-world Q-cut loop enabled — verify the answers
//! against sequential Dijkstra, and compare locality and repartitioning
//! activity between the two runs.
//!
//! ```text
//! cargo run -p qgraph-examples --bin thread_qcut
//! ```

#![forbid(unsafe_code)]

use std::sync::Arc;

use qgraph_algo::{dijkstra_to, SsspProgram};
use qgraph_core::{EngineBuilder, EngineReport, QcutConfig, SystemConfig};
use qgraph_graph::{Graph, VertexId};
use qgraph_partition::HashPartitioner;
use qgraph_workload::{RoadNetworkConfig, RoadNetworkGenerator};

fn run_hotspot(graph: &Arc<Graph>, qcut: Option<QcutConfig>) -> EngineReport {
    let mut engine = EngineBuilder::new(Arc::clone(graph))
        .workers(4)
        .partitioner(HashPartitioner::default())
        .config(SystemConfig {
            qcut,
            ..Default::default()
        })
        .build_threaded();

    // A tight hotspot: eight source→target pairs, each submitted four
    // times, so the live scopes overlap heavily.
    let pairs: Vec<(VertexId, VertexId)> = (0..32u32)
        .map(|i| (VertexId(i % 8), VertexId(300 + (i % 8))))
        .collect();
    let handles: Vec<_> = pairs
        .iter()
        .map(|&(s, t)| engine.submit(SsspProgram::new(s, t)))
        .collect();
    engine.run();

    for (h, &(s, t)) in handles.iter().zip(&pairs) {
        let got = *engine.output(h).expect("query finished");
        let want = dijkstra_to(graph, s, t);
        assert_eq!(
            got.is_some(),
            want.is_some(),
            "{s:?} -> {t:?}: engine {got:?} vs Dijkstra {want:?}"
        );
        if let (Some(a), Some(b)) = (got, want) {
            assert!((a - b).abs() < 1e-3, "{s:?} -> {t:?}: {a} vs {b}");
        }
    }
    engine.report().clone()
}

fn main() {
    let world = RoadNetworkGenerator::new(RoadNetworkConfig {
        num_cities: 4,
        vertices_per_city: 400,
        seed: 7,
        ..RoadNetworkConfig::default()
    })
    .generate();
    let graph = Arc::new(world.graph);

    let static_report = run_hotspot(&graph, None);
    let adaptive_report = run_hotspot(&graph, Some(QcutConfig::default()));

    println!("all 64 answers match sequential Dijkstra");
    println!(
        "static   : locality {:.3}, {} repartitions",
        static_report.mean_locality(),
        static_report.repartitions.len()
    );
    println!(
        "adaptive : locality {:.3}, {} repartitions, {} vertices migrated",
        adaptive_report.mean_locality(),
        adaptive_report.repartitions.len(),
        adaptive_report.total_moved_vertices()
    );
    // A thrashing trigger shows here first: many windows, most of the
    // wall spent inside them.
    let in_barrier: f64 = adaptive_report
        .repartitions
        .iter()
        .map(|r| r.barrier_duration)
        .sum();
    let wall = adaptive_report.finished_at_secs;
    println!(
        "           {:.1} ms of {:.1} ms wall inside repartition windows ({:.0}%)",
        in_barrier * 1e3,
        wall * 1e3,
        100.0 * in_barrier / wall
    );
    for (i, r) in adaptive_report.repartitions.iter().enumerate() {
        println!(
            "  repartition {i}: moved {:5} vertices, scope locality {:.3} -> {:.3}, \
             ILS cost {:.0} -> {:.0}",
            r.moved_vertices,
            r.locality_before,
            r.locality_after,
            r.ils.initial_cost,
            r.ils.final_cost
        );
    }
}
