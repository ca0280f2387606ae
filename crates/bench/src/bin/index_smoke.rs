//! Index-plane smoke benchmark: hub-label point-query serving vs plain
//! traversal on the thread runtime, plus per-batch incremental repair
//! cost under edge churn, emitting a small JSON summary
//! (`BENCH_index.json`) that the `index-stress` CI job uploads as an
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
//!    with incremental repair on; per-batch wall cost and repair
//!    summaries are recorded, and a post-churn query wave must again
//!    match a traversal engine on the churned graph exactly.
//! 4. **Road closures** — removal-biased churn (closures outnumber
//!    re-openings 2:1): the witness-count deletion path must absorb at
//!    least 75% of the batches incrementally (the damage cap is allowed
//!    to route a genuinely heavy batch to rebuild), and the JSON records
//!    the incremental-vs-rebuild split plus witness counters per batch.
//!
//! Every batch record carries why it rebuilt (`rebuild_cause`) and how
//! many full passes a sweep-cap bail had already spent (`sweep_passes`).
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
use qgraph_core::{Engine, RepairSummary, SystemConfig, ThreadEngine, Topology};
use qgraph_graph::{Graph, VertexId};
use qgraph_index::{IndexConfig, LabelIndex};
use qgraph_partition::{HashPartitioner, Partitioner, Partitioning};
use qgraph_workload::{
    edge_churn, generate_point_queries, road_closures, ChurnConfig, PairSkew, PointQuerySpec,
    PointWorkloadConfig,
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

/// The repair-summary fields every batch record ends with.
fn summary_json(s: &RepairSummary) -> String {
    format!(
        "\"labels_removed\": {}, \"labels_added\": {}, \"rebuilt\": {}, \
         \"rebuild_cause\": \"{:?}\", \"sweep_passes\": {}",
        s.labels_removed, s.labels_added, s.rebuilt, s.rebuild_cause, s.sweep_passes,
    )
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
    // A generous damage threshold (fraction of a rebuild's `2n` root
    // passes): road-network deletions cascade widely — a removed witness
    // edge voids pruning certificates down the rank order — and the
    // bench wants to time the incremental path, not only rebuilds. The
    // cap still routes a batch whose repair would cost nearly as much as
    // a rebuild (>80% of the passes) to the rebuild path.
    let cfg = IndexConfig {
        damage_threshold: 0.8,
        ..IndexConfig::default()
    };
    let index = LabelIndex::build(&Topology::new(Arc::clone(&graph)), cfg);
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

    // Phase 3: churn with incremental repair at the barriers.
    let churn = edge_churn(&graph, &ChurnConfig::uniform(batches, 6, 10.0, 23));
    let mut engine = fresh_engine(&graph, &parts);
    engine.install_index(Box::new(index.clone()));
    let mut batch_walls: Vec<f64> = Vec::new();
    for tm in churn {
        let start = Instant::now();
        engine.mutate(tm.batch);
        engine.drain();
        batch_walls.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let repairs = engine.report().index_repairs.clone();
    assert_eq!(repairs.len(), batches, "one repair event per churn batch");
    let batch_json: Vec<String> = repairs
        .iter()
        .zip(&batch_walls)
        .map(|(r, wall)| {
            format!(
                "{{\"epoch\": {}, \"wall_ms\": {:.3}, \"roots_rerun\": {}, {}}}",
                r.epoch,
                wall,
                r.summary.roots_rerun,
                summary_json(&r.summary),
            )
        })
        .collect();

    // Post-churn conformance: the repaired index must agree with a
    // traversal engine built on the churned graph.
    let churned = Arc::new(engine.topology_snapshot().materialize());
    let post_specs = generate_point_queries(
        &live,
        &PointWorkloadConfig {
            count: queries.min(64),
            skew: PairSkew::Uniform,
            reach_fraction: 0.25,
            seed: 29,
        },
    );
    let (_, post_idx_answers) = serve(&mut engine, &post_specs);
    assert_eq!(
        engine.report().index_served(),
        post_specs.len(),
        "repaired index must keep serving after churn"
    );
    engine.shutdown();
    let churned_parts = HashPartitioner::with_seed(17).partition(&churned, workers);
    let mut ref_engine = fresh_engine(&churned, &churned_parts);
    let (_, post_ref_answers) = serve(&mut ref_engine, &post_specs);
    ref_engine.shutdown();
    assert_answers_close(&post_idx_answers, &post_ref_answers, "churned graph");

    // Phase 4: removal-biased road closures against a fresh copy of the
    // pre-churn index. This is the deletion workload the witness counts
    // exist for: closures outnumber re-openings 2:1, and each sub-cap
    // batch must ride decrement + partial-resume repair, not the
    // rebuild bail-out.
    let closures = road_closures(&graph, &ChurnConfig::uniform(batches, 2, 10.0, 31));
    let mut engine = fresh_engine(&graph, &parts);
    engine.install_index(Box::new(index.clone()));
    let mut closure_walls: Vec<f64> = Vec::new();
    for tm in closures {
        let start = Instant::now();
        engine.mutate(tm.batch);
        engine.drain();
        closure_walls.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let closure_repairs = engine.report().index_repairs.clone();
    assert_eq!(
        closure_repairs.len(),
        batches,
        "one repair event per closure batch"
    );
    let incremental = closure_repairs
        .iter()
        .filter(|r| !r.summary.rebuilt)
        .count();
    assert!(
        incremental * 4 >= batches * 3,
        "removal-heavy churn must repair >=75% of batches incrementally \
         ({incremental}/{batches})"
    );
    let closure_json: Vec<String> = closure_repairs
        .iter()
        .zip(&closure_walls)
        .map(|(r, wall)| {
            format!(
                "{{\"epoch\": {}, \"wall_ms\": {:.3}, \"roots_rerun\": {}, \
                 \"partial_roots\": {}, \"witness_decrements\": {}, \
                 \"entries_invalidated\": {}, {}}}",
                r.epoch,
                wall,
                r.summary.roots_rerun,
                r.summary.partial_roots,
                r.summary.witness_decrements,
                r.summary.entries_invalidated,
                summary_json(&r.summary),
            )
        })
        .collect();

    // Post-closure conformance, same shape as phase 3.
    let closed = Arc::new(engine.topology_snapshot().materialize());
    let (_, closed_idx_answers) = serve(&mut engine, &post_specs);
    assert_eq!(
        engine.report().index_served(),
        post_specs.len(),
        "repaired index must keep serving after closures"
    );
    engine.shutdown();
    let closed_parts = HashPartitioner::with_seed(17).partition(&closed, workers);
    let mut ref_engine = fresh_engine(&closed, &closed_parts);
    let (_, closed_ref_answers) = serve(&mut ref_engine, &post_specs);
    ref_engine.shutdown();
    assert_answers_close(&closed_idx_answers, &closed_ref_answers, "closed graph");

    let closure_total_ms: f64 = closure_walls.iter().sum();
    let repair_total_ms: f64 = batch_walls.iter().sum();
    let json = format!(
        "{{\n  \"bench\": \"index_smoke\",\n  \"graph_vertices\": {},\n  \"queries\": {},\n  \
         \"workers\": {},\n  \"construction_ms\": {:.3},\n  \"label_entries\": {},\n  \
         \"entries_per_vertex\": {:.1},\n  \
         \"traversal_wall_ms\": {:.3},\n  \"index_wall_ms\": {:.3},\n  \
         \"latency_ratio\": {:.3},\n  \"churn_batches\": {},\n  \
         \"repair_total_ms\": {:.3},\n  \"repair_mean_ms\": {:.3},\n  \"batches\": [\n    {}\n  ],\n  \
         \"closure_batches\": {},\n  \"closure_incremental\": {},\n  \
         \"closure_rebuilds\": {},\n  \"closure_total_ms\": {:.3},\n  \
         \"closure_mean_ms\": {:.3},\n  \"closures\": [\n    {}\n  ]\n}}\n",
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
        repair_total_ms,
        repair_total_ms / batches.max(1) as f64,
        batch_json.join(",\n    "),
        batches,
        incremental,
        batches - incremental,
        closure_total_ms,
        closure_total_ms / batches.max(1) as f64,
        closure_json.join(",\n    "),
    );
    std::fs::write(&out_path, &json).expect("write bench JSON");
    println!("{json}");
    println!("wrote {out_path}");
}
