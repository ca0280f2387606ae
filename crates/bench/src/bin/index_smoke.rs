//! Index-plane smoke benchmark: hub-label point-query serving vs plain
//! traversal on the thread runtime, plus per-batch repair cost under
//! edge churn — a rebuild when the batch nets to a removal, a resume
//! when it only inserts — emitting a small JSON summary
//! (`BENCH_index.json`) that the `bench-smoke` CI job uploads as an
//! artifact.
//!
//! Four phases:
//! 1. **Construction** — pruned-landmark build over the road network
//!    (size + wall time recorded; at most 130 label entries per vertex —
//!    the rank order's diet, a count and so safe to assert in CI).
//! 2. **Serving A/B** — the same point-query stream (dist + reach pairs)
//!    through a traversal-only engine and an index-serving engine,
//!    best-of-3 each; answers must be identical, and the wall-clock
//!    ratio is the headline number.
//! 3. **Churn** — mixed edge-churn batches applied at mutation barriers
//!    with repair on; per-batch wall cost and repair summaries are
//!    recorded, and a post-churn query wave must again match a traversal
//!    engine on the churned graph exactly.
//! 4. **Road closures** — removal-biased churn (closures outnumber
//!    re-openings 2:1) against a fresh copy of the pre-churn index, same
//!    record and same conformance check.
//!
//! Timings are recorded, counts are asserted: every batch rebuilt iff it
//! netted to a removal.
//!
//! Env knobs: `QGRAPH_SCALE` (graph scale, default 0.02),
//! `QGRAPH_QUERIES` (default 256), `QGRAPH_WORKERS` (default 4),
//! `QGRAPH_BATCHES` (churn batches per churn phase, default 8),
//! `QGRAPH_BENCH_JSON` (output path, default `BENCH_index.json`).

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use qgraph_algo::{ReachPointProgram, SsspProgram};
use qgraph_bench::{build_network, partition_graph, GraphPreset, Strategy};
use qgraph_core::{Engine, SystemConfig, ThreadEngine, Topology};
use qgraph_graph::{Graph, VertexId};
use qgraph_index::{IndexConfig, LabelIndex};
use qgraph_partition::{HashPartitioner, Partitioner, Partitioning};
use qgraph_workload::{
    edge_churn, generate_point_queries, nets_to_removal, road_closures, ChurnConfig, PairSkew,
    PointQuerySpec, PointWorkloadConfig, TimedMutation,
};

/// One answered point query, for cross-engine comparison.
#[derive(PartialEq, Debug)]
enum Answer {
    Dist(Option<f32>),
    Reach(bool),
}

/// Label intersection sums `d(u,h) + d(h,v)` in a different order than a
/// traversal accumulates along the path, so with real-valued road
/// weights the answers agree only to f32 rounding. Reachability and
/// None/Some structure must still match exactly.
fn assert_answers_close(a: &[Answer], b: &[Answer], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: answer count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        match (x, y) {
            (Answer::Dist(Some(dx)), Answer::Dist(Some(dy))) => {
                let scale = dx.abs().max(dy.abs()).max(1.0);
                assert!(
                    (dx - dy).abs() <= 1e-4 * scale,
                    "{ctx}: answer {i} diverges: {dx} vs {dy}"
                );
            }
            _ => assert_eq!(x, y, "{ctx}: answer {i}"),
        }
    }
}

fn fresh_engine(graph: &Arc<Graph>, parts: &Partitioning) -> ThreadEngine {
    ThreadEngine::with_config(Arc::clone(graph), parts.clone(), SystemConfig::default())
}

/// Submit the stream, run it to completion, and collect wall time plus
/// every answer in submission order.
fn serve(engine: &mut ThreadEngine, specs: &[PointQuerySpec]) -> (f64, Vec<Answer>) {
    let start = Instant::now();
    let mut dists = Vec::new();
    let mut reaches = Vec::new();
    for (i, s) in specs.iter().enumerate() {
        if s.reach {
            reaches.push((i, engine.submit(ReachPointProgram::new(s.source, s.target))));
        } else {
            dists.push((i, engine.submit(SsspProgram::new(s.source, s.target))));
        }
    }
    engine.run();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut answers: Vec<Option<Answer>> = (0..specs.len()).map(|_| None).collect();
    for (i, h) in dists {
        answers[i] = Some(Answer::Dist(*engine.output(&h).expect("sssp finished")));
    }
    for (i, h) in reaches {
        answers[i] = Some(Answer::Reach(*engine.output(&h).expect("reach finished")));
    }
    (
        wall_ms,
        answers.into_iter().map(|a| a.expect("answered")).collect(),
    )
}

/// Best-of-3 serving wall time; the answers (identical across repeats)
/// come from the first run, the served-by counts from its report.
fn best_of_3(
    graph: &Arc<Graph>,
    parts: &Partitioning,
    index: Option<&LabelIndex>,
    specs: &[PointQuerySpec],
) -> (f64, Vec<Answer>, usize, usize) {
    let mut best = f64::INFINITY;
    let mut kept: Option<(Vec<Answer>, usize, usize)> = None;
    for _ in 0..3 {
        let mut engine = fresh_engine(graph, parts);
        if let Some(index) = index {
            engine.install_index(Box::new(index.clone()));
        }
        let (wall_ms, answers) = serve(&mut engine, specs);
        best = best.min(wall_ms);
        if kept.is_none() {
            let report = engine.report();
            kept = Some((answers, report.index_served(), report.traversal_served()));
        }
        engine.shutdown();
    }
    let (answers, index_served, traversal_served) = kept.expect("three runs");
    (best, answers, index_served, traversal_served)
}

/// What one churn phase measured.
struct ChurnPhase {
    /// One JSON record per batch.
    batch_json: Vec<String>,
    total_ms: f64,
    max_ms: f64,
    rebuilds: usize,
}

/// Apply `stream` batch by batch to an engine serving a copy of `index`,
/// timing each barrier (mutation + repair + drain); assert every batch
/// rebuilt iff it netted to a removal, then hold a post-churn query wave
/// to a traversal engine built on the churned graph.
fn churn_phase(
    graph: &Arc<Graph>,
    parts: &Partitioning,
    index: &LabelIndex,
    stream: Vec<TimedMutation>,
    post_specs: &[PointQuerySpec],
    ctx: &str,
) -> ChurnPhase {
    let mut engine = fresh_engine(graph, parts);
    engine.install_index(Box::new(index.clone()));
    let mut replay = Topology::new(Arc::clone(graph));
    let mut walls: Vec<f64> = Vec::new();
    let mut removals: Vec<bool> = Vec::new();
    for tm in stream {
        let before = replay.clone();
        replay.apply(&tm.batch);
        removals.push(nets_to_removal(&before, &replay));
        let start = Instant::now();
        engine.mutate(tm.batch);
        engine.drain();
        walls.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let repairs = engine.report().index_repairs.clone();
    assert_eq!(repairs.len(), walls.len(), "{ctx}: one repair per batch");
    let mut batch_json = Vec::new();
    for ((r, wall), &removal) in repairs.iter().zip(&walls).zip(&removals) {
        let s = r.summary;
        assert_eq!(
            s.rebuilt, removal,
            "{ctx}: epoch {} rebuilds iff it nets to a removal ({s:?})",
            r.epoch
        );
        batch_json.push(format!(
            "{{\"epoch\": {}, \"wall_ms\": {:.3}, \"rebuilt\": {}, \"roots_rerun\": {}, \
             \"labels_removed\": {}, \"labels_added\": {}}}",
            r.epoch, wall, s.rebuilt, s.roots_rerun, s.labels_removed, s.labels_added,
        ));
    }

    // Conformance: the repaired index must agree with a traversal engine
    // built on the churned graph.
    let churned = Arc::new(engine.topology_snapshot().materialize());
    let (_, idx_answers) = serve(&mut engine, post_specs);
    assert_eq!(
        engine.report().index_served(),
        post_specs.len(),
        "{ctx}: repaired index must keep serving"
    );
    engine.shutdown();
    let churned_parts = HashPartitioner::with_seed(17).partition(&churned, parts.num_workers());
    let mut ref_engine = fresh_engine(&churned, &churned_parts);
    let (_, ref_answers) = serve(&mut ref_engine, post_specs);
    ref_engine.shutdown();
    assert_answers_close(&idx_answers, &ref_answers, ctx);

    ChurnPhase {
        batch_json,
        total_ms: walls.iter().sum(),
        max_ms: walls.iter().copied().fold(0.0, f64::max),
        rebuilds: removals.iter().filter(|&&r| r).count(),
    }
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let scale = env_f64("QGRAPH_SCALE", 0.02);
    let queries = env_f64("QGRAPH_QUERIES", 256.0) as usize;
    let workers = env_f64("QGRAPH_WORKERS", 4.0) as usize;
    let batches = env_f64("QGRAPH_BATCHES", 8.0) as usize;
    let out_path =
        std::env::var("QGRAPH_BENCH_JSON").unwrap_or_else(|_| "BENCH_index.json".to_string());

    let net = build_network(GraphPreset::BwLike { scale }, 0.0, 17);
    let parts = partition_graph(Strategy::Hash, &net, workers, 17);
    let graph = Arc::new(net.graph);
    let live: Vec<VertexId> = (0..graph.num_vertices() as u32).map(VertexId).collect();
    let specs = generate_point_queries(
        &live,
        &PointWorkloadConfig {
            count: queries,
            skew: PairSkew::Uniform,
            reach_fraction: 0.25,
            seed: 17,
        },
    );

    // Phase 1: construction.
    let build_start = Instant::now();
    let index = LabelIndex::build(&Topology::new(Arc::clone(&graph)), IndexConfig::default());
    let construction_ms = build_start.elapsed().as_secs_f64() * 1e3;
    let entries = index.total_entries();
    let entries_per_vertex = entries as f64 / graph.num_vertices().max(1) as f64;
    assert!(
        entries_per_vertex <= 130.0,
        "label volume off the diet: {entries_per_vertex:.1} entries per vertex"
    );

    // Phase 2: serving A/B on the static graph.
    let (trav_ms, trav_answers, trav_idx, trav_tra) = best_of_3(&graph, &parts, None, &specs);
    let (idx_ms, idx_answers, idx_idx, idx_tra) = best_of_3(&graph, &parts, Some(&index), &specs);
    assert_answers_close(&trav_answers, &idx_answers, "static graph");
    assert_eq!(
        trav_idx, 0,
        "no index installed, nothing may be index-served"
    );
    assert_eq!(trav_tra, specs.len(), "traversal engine serves every query");
    assert_eq!(
        idx_idx,
        specs.len(),
        "every eligible query must be index-served"
    );
    assert_eq!(
        idx_tra, 0,
        "index engine must not fall back on a static graph"
    );
    let latency_ratio = trav_ms / idx_ms.max(1e-9);

    // Phases 3 and 4: mixed edge churn, then removal-biased road
    // closures, each against its own copy of the pre-churn index.
    let post_specs = generate_point_queries(
        &live,
        &PointWorkloadConfig {
            count: queries.min(64),
            skew: PairSkew::Uniform,
            reach_fraction: 0.25,
            seed: 29,
        },
    );
    let churn = churn_phase(
        &graph,
        &parts,
        &index,
        edge_churn(&graph, &ChurnConfig::uniform(batches, 6, 10.0, 23)),
        &post_specs,
        "churned graph",
    );
    let closures = churn_phase(
        &graph,
        &parts,
        &index,
        road_closures(&graph, &ChurnConfig::uniform(batches, 2, 10.0, 31)),
        &post_specs,
        "closed graph",
    );

    let json = format!(
        "{{\n  \"bench\": \"index_smoke\",\n  \"graph_vertices\": {},\n  \"queries\": {},\n  \
         \"workers\": {},\n  \"construction_ms\": {:.3},\n  \"label_entries\": {},\n  \
         \"entries_per_vertex\": {:.1},\n  \
         \"traversal_wall_ms\": {:.3},\n  \"index_wall_ms\": {:.3},\n  \
         \"latency_ratio\": {:.3},\n  \"churn_batches\": {},\n  \"churn_rebuilds\": {},\n  \
         \"repair_total_ms\": {:.3},\n  \"repair_mean_ms\": {:.3},\n  \
         \"repair_max_ms\": {:.3},\n  \"batches\": [\n    {}\n  ],\n  \
         \"closure_batches\": {},\n  \"closure_rebuilds\": {},\n  \
         \"closure_total_ms\": {:.3},\n  \"closure_mean_ms\": {:.3},\n  \
         \"closure_max_ms\": {:.3},\n  \"closures\": [\n    {}\n  ]\n}}\n",
        graph.num_vertices(),
        specs.len(),
        workers,
        construction_ms,
        entries,
        entries_per_vertex,
        trav_ms,
        idx_ms,
        latency_ratio,
        batches,
        churn.rebuilds,
        churn.total_ms,
        churn.total_ms / batches.max(1) as f64,
        churn.max_ms,
        churn.batch_json.join(",\n    "),
        batches,
        closures.rebuilds,
        closures.total_ms,
        closures.total_ms / batches.max(1) as f64,
        closures.max_ms,
        closures.batch_json.join(",\n    "),
    );
    std::fs::write(&out_path, &json).expect("write bench JSON");
    println!("{json}");
    println!("wrote {out_path}");
}
