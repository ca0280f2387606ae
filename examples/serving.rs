//! The streaming/serving loop end to end: a long-lived `ThreadEngine`
//! absorbs an open-loop query stream submitted from two producer threads
//! through cloned `EngineClient` handles while Q-cut repartitions
//! underneath, with a per-program-kind priority admission policy. The
//! report shows per-program outcomes plus the serving metrics the policy
//! layer exists for: queueing delay and time in system.
//!
//! ```text
//! cargo run -p qgraph-examples --bin serving
//! ```

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use qgraph_algo::{PoiProgram, SsspProgram};
use qgraph_core::{AdmissionPolicy, EngineBuilder, QcutConfig, SystemConfig};
use qgraph_partition::HashPartitioner;
use qgraph_workload::{
    assign_tags, schedule_open_loop, ArrivalConfig, QueryKind, RoadNetworkConfig,
    RoadNetworkGenerator, WorkloadConfig, WorkloadGenerator,
};

fn main() {
    let mut world = RoadNetworkGenerator::new(RoadNetworkConfig {
        num_cities: 4,
        vertices_per_city: 400,
        seed: 42,
        ..RoadNetworkConfig::default()
    })
    .generate();
    assign_tags(&mut world.graph, 1.0 / 60.0, 5);

    // Two open-loop streams over the hotspot workload: an SSSP stream and
    // a smaller POI stream. Arrival times come from the workload crate's
    // Poisson process; the producers replay them with (scaled) sleeps.
    let gen = WorkloadGenerator::new(&world);
    let sssp_stream = schedule_open_loop(
        &gen.generate(&WorkloadConfig::single(48, false, false, 1)),
        &ArrivalConfig::poisson(48, 4000.0, 11),
    );
    let poi_stream = schedule_open_loop(
        &gen.generate(&WorkloadConfig::single(16, true, false, 2)),
        &ArrivalConfig::poisson(16, 1500.0, 13),
    );
    let graph = Arc::new(world.graph.clone());

    let cfg = SystemConfig {
        qcut: Some(QcutConfig::default()),
        // POI lookups are latency-sensitive point queries: let them
        // overtake queued SSSP scans.
        admission: AdmissionPolicy::priorities(&[("poi", 10), ("sssp", 1)]),
        max_parallel_queries: 8,
        ..Default::default()
    };
    let mut engine = EngineBuilder::new(Arc::clone(&graph))
        .workers(4)
        .partitioner(HashPartitioner::default())
        .config(cfg)
        .build_threaded();
    engine.start();

    let sssp_client = engine.client();
    let sssp_producer = thread::spawn(move || {
        let mut last = 0.0f64;
        for tq in &sssp_stream {
            thread::sleep(Duration::from_secs_f64(tq.at_secs - last));
            last = tq.at_secs;
            if let QueryKind::Sssp { source, target } = tq.spec.kind {
                sssp_client.submit(SsspProgram::new(source, target));
            }
        }
        sssp_stream.len()
    });
    let poi_client = engine.client();
    let poi_producer = thread::spawn(move || {
        let mut last = 0.0f64;
        for tq in &poi_stream {
            thread::sleep(Duration::from_secs_f64(tq.at_secs - last));
            last = tq.at_secs;
            if let QueryKind::Poi { source } = tq.spec.kind {
                poi_client.submit(PoiProgram::new(source));
            }
        }
        poi_stream.len()
    });

    let submitted =
        sssp_producer.join().expect("sssp producer") + poi_producer.join().expect("poi producer");
    let report = engine.drain().clone();
    engine.shutdown();

    println!(
        "served {} of {} streamed queries in {:.3}s wall",
        report.outcomes.len(),
        submitted,
        report.finished_at_secs
    );
    println!("{}", report.program_table().render());
    println!(
        "queueing delay: mean {:.6}s | time in system: mean {:.6}s",
        report.mean_queueing_delay(),
        report.mean_time_in_system()
    );
    println!(
        "repartitions mid-stream: {} ({} vertices migrated)",
        report.repartitions.len(),
        report.total_moved_vertices()
    );
    for (i, r) in report.repartitions.iter().enumerate() {
        println!(
            "  repartition {i}: moved {:5} vertices, scope locality {:.3} -> {:.3}",
            r.moved_vertices, r.locality_before, r.locality_after
        );
    }
}
