//! Message-plane smoke benchmark: combiners on vs off on an SSSP-heavy
//! road serving mix, on both runtimes, emitting a small JSON summary
//! (`target/BENCH_msgplane.json`) that the `bench-smoke` CI job uploads as
//! an artifact. The tracked `BENCH_msgplane.json` at the repository root
//! is not this file: it holds `qbench` parent / change pairs.
//!
//! The workload is the heterogeneous traffic one engine instance serves:
//! a burst of road SSSP queries (the paper's headline query) with a small
//! flood component riding along (deep k-hop circles and two whole-graph
//! WCC scans) — the part where per-vertex message duplication gives the
//! combiner real work.
//!
//! Env knobs: `QGRAPH_SCALE` (graph scale, default 0.1),
//! `QGRAPH_QUERIES` (default 96), `QGRAPH_WORKERS` (default 4),
//! `QGRAPH_BENCH_JSON` (output path, default
//! `target/BENCH_msgplane.json`, relative to the working directory).

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use qgraph_algo::{BfsProgram, RoadProgram, WccProgram};
use qgraph_bench::{build_network, partition_graph, GraphPreset, Strategy};
use qgraph_core::{Engine, EngineReport, SimEngine, SystemConfig, ThreadEngine};
use qgraph_graph::{Graph, VertexId};
use qgraph_partition::Partitioning;
use qgraph_sim::ClusterModel;
use qgraph_workload::{QueryKind, QuerySpec, WorkloadConfig, WorkloadGenerator};

struct Measured {
    wall_ms: f64,
    report: EngineReport,
}

/// Submit the serving mix and run to completion on either runtime.
fn drive<E: Engine>(engine: &mut E, graph: &Graph, specs: &[QuerySpec]) {
    let n = graph.num_vertices() as u32;
    for (i, s) in specs.iter().enumerate() {
        match s.kind {
            QueryKind::Sssp { source, target } => {
                engine.submit(RoadProgram::sssp(source, target));
            }
            QueryKind::Poi { source } => {
                engine.submit(RoadProgram::poi(source));
            }
        }
        // Every 16th query, a k-hop flood rides along.
        if i % 16 == 8 {
            engine.submit(BfsProgram::new(VertexId((i as u32 * 101) % n), 48));
        }
    }
    engine.submit(WccProgram);
    engine.submit(WccProgram);
    engine.run();
}

fn run_sim(
    graph: &Arc<Graph>,
    parts: &Partitioning,
    specs: &[QuerySpec],
    combiners: bool,
) -> Measured {
    let mut engine = SimEngine::new(
        Arc::clone(graph),
        ClusterModel::scale_up(parts.num_workers()),
        parts.clone(),
        SystemConfig {
            combiners,
            ..Default::default()
        },
    );
    let start = Instant::now();
    drive(&mut engine, graph, specs);
    Measured {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        report: engine.report().clone(),
    }
}

fn run_thread(
    graph: &Arc<Graph>,
    parts: &Partitioning,
    specs: &[QuerySpec],
    combiners: bool,
) -> Measured {
    let mut engine = ThreadEngine::with_config(
        Arc::clone(graph),
        parts.clone(),
        SystemConfig {
            combiners,
            ..Default::default()
        },
    );
    let start = Instant::now();
    drive(&mut engine, graph, specs);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let report = engine.report().clone();
    engine.shutdown();
    Measured { wall_ms, report }
}

fn side_json(m: &Measured) -> String {
    format!(
        "{{\"wall_ms\": {:.3}, \"remote_messages\": {}, \"remote_messages_pre_combine\": {}, \
         \"remote_batches\": {}, \"total_latency_s\": {:.6}, \"mean_locality\": {:.4}}}",
        m.wall_ms,
        m.report.total_remote_messages(),
        m.report.total_remote_messages_pre_combine(),
        m.report.total_remote_batches(),
        m.report.total_latency(),
        m.report.mean_locality(),
    )
}

/// A/B one runtime: best-of-3 per side (reports are identical across
/// repeats on the sim — deterministic — and stable on the thread runtime;
/// only wall time varies with host noise).
fn ab(runner: &dyn Fn(bool) -> Measured) -> (Measured, Measured, f64, f64) {
    let best_of = |combiners: bool| -> Measured {
        (0..3)
            .map(|_| runner(combiners))
            .min_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms))
            .expect("three runs")
    };
    let off = best_of(false);
    let on = best_of(true);
    let msg_reduction = 1.0
        - on.report.total_remote_messages() as f64
            / off.report.total_remote_messages().max(1) as f64;
    let wall_speedup = off.wall_ms / on.wall_ms.max(1e-9);
    (off, on, msg_reduction, wall_speedup)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let scale = env_f64("QGRAPH_SCALE", 0.1);
    let queries = env_f64("QGRAPH_QUERIES", 96.0) as usize;
    let workers = env_f64("QGRAPH_WORKERS", 4.0) as usize;
    let out_path = std::env::var("QGRAPH_BENCH_JSON")
        .unwrap_or_else(|_| "target/BENCH_msgplane.json".to_string());

    // Hash partitioning on purpose: it maximizes boundary crossings, so
    // the message plane is the bottleneck being measured.
    let net = build_network(GraphPreset::BwLike { scale }, 0.0, 11);
    let parts = partition_graph(Strategy::Hash, &net, workers, 11);
    let specs =
        WorkloadGenerator::new(&net).generate(&WorkloadConfig::single(queries, false, false, 11));
    let graph = Arc::new(net.graph);

    // Warm-up, then A/B each runtime.
    let _ = run_sim(&graph, &parts, &specs[..specs.len().min(8)], true);
    let (sim_off, sim_on, sim_red, sim_speedup) = ab(&|c| run_sim(&graph, &parts, &specs, c));
    let (thr_off, thr_on, thr_red, thr_speedup) = ab(&|c| run_thread(&graph, &parts, &specs, c));

    let json = format!(
        "{{\n  \"bench\": \"msgplane_smoke\",\n  \"graph_vertices\": {},\n  \"queries\": {},\n  \
         \"workers\": {},\n  \"sim\": {{\n    \"combiners_off\": {},\n    \"combiners_on\": {},\n    \
         \"remote_message_reduction\": {:.4},\n    \"simulated_latency_reduction\": {:.4},\n    \
         \"wall_speedup\": {:.3}\n  }},\n  \"thread\": {{\n    \"combiners_off\": {},\n    \
         \"combiners_on\": {},\n    \"remote_message_reduction\": {:.4},\n    \
         \"wall_speedup\": {:.3}\n  }}\n}}\n",
        graph.num_vertices(),
        specs.len(),
        workers,
        side_json(&sim_off),
        side_json(&sim_on),
        sim_red,
        1.0 - sim_on.report.total_latency() / sim_off.report.total_latency().max(1e-12),
        sim_speedup,
        side_json(&thr_off),
        side_json(&thr_on),
        thr_red,
        thr_speedup,
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create the bench JSON's directory");
    }
    std::fs::write(&out_path, &json).expect("write bench JSON");
    println!("{json}");
    println!("wrote {out_path}");

    // Sanity for CI: combining must never *increase* wire traffic, and
    // outputs are equivalence-tested elsewhere — here we only guard the
    // accounting.
    for (off, on) in [(&sim_off, &sim_on), (&thr_off, &thr_on)] {
        assert!(
            on.report.total_remote_messages() <= off.report.total_remote_messages(),
            "combiners increased remote traffic"
        );
        assert_eq!(
            off.report.total_remote_messages(),
            off.report.total_remote_messages_pre_combine(),
            "combiner-disabled run must combine nothing"
        );
    }
    assert_eq!(
        sim_on.report.total_remote_messages(),
        thr_on.report.total_remote_messages(),
        "runtimes must agree on combined wire traffic"
    );
}
