//! The per-layer ledger of a thread-runtime workload: every line is
//! computed outside the engine — from the benchmark's spans and probe
//! counters, from public `EngineReport` fields, and from direct timing of
//! public functions on the workload's own inputs. All sums are over the
//! traced window's prefix (see [`crate::thread_run::Prefix`]).

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use qgraph_core::qcut::{run_qcut, ScopeStats};
use qgraph_core::{Percentiles, QcutConfig, QueryId, SimEngine, Topology};
use qgraph_partition::edge_cut;
use qgraph_sim::ClusterModel;

use crate::check::CheckResult;
use crate::inputs::{Inputs, PARTITIONS};
use crate::probe::Ledger;
use crate::spans::Spans;
use crate::spec::Workload;
use crate::stats::{mean, median};
use crate::thread_run::Window;

/// Ledger lines as `(name, value)`.
pub type Lines = Vec<(&'static str, f64)>;

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Total length and count of the union of `[start, end]` intervals: each
/// stop-the-world window counts once however many events it carried.
fn union_of(mut intervals: Vec<(f64, f64)>) -> (f64, usize) {
    intervals.sort_by(|a, b| a.partial_cmp(b).expect("finite stamps"));
    let mut total = 0.0;
    let mut windows = 0;
    let mut open: Option<(f64, f64)> = None;
    for (start, end) in intervals {
        match &mut open {
            Some((_, open_end)) if start <= *open_end => *open_end = open_end.max(end),
            _ => {
                if let Some((s, e)) = open.replace((start, end)) {
                    total += e - s;
                }
                windows += 1;
            }
        }
    }
    if let Some((s, e)) = open {
        total += e - s;
    }
    (total, windows)
}

/// Nanoseconds per edge of a full `Topology::neighbors` sweep (median of
/// five sweeps).
fn scan_ns_per_edge(topology: &Topology) -> f64 {
    let sweeps: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut acc = 0.0f32;
            for v in topology.vertices() {
                for (t, w) in topology.neighbors(v) {
                    acc += w + t.0 as f32;
                }
            }
            black_box(acc);
            start.elapsed().as_nanos() as f64 / topology.num_edges().max(1) as f64
        })
        .collect();
    median(&sweeps)
}

/// The `graph` layer: probes on the workload's own topology and batches.
fn graph_lines(inputs: &Inputs, window: &Window, spans: &Spans, out: &mut Lines) {
    let _span = spans.enter("probe.graph");
    let base = Topology::new(Arc::clone(&inputs.graph));
    out.push(("graph.csr_scan_ns_per_edge", scan_ns_per_edge(&base)));
    // The same sweep through the overlay the prefix's batches leave
    // behind, uncompacted (no batches: the pass-through path again).
    let mut overlaid = base;
    let mut apply_ms = Vec::new();
    for batch in inputs.batches.iter().take(window.prefix.mutations) {
        let start = Instant::now();
        overlaid.apply(batch);
        apply_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    out.push((
        "graph.overlay_scan_ns_per_edge",
        scan_ns_per_edge(&overlaid),
    ));
    out.push(("graph.apply_ms_per_batch", mean(&apply_ms)));
    let start = Instant::now();
    black_box(overlaid.compacted());
    out.push(("graph.compact_ms", start.elapsed().as_secs_f64() * 1e3));
    out.push((
        "graph.overlay_fraction_end",
        window.engine.topology().overlay_fraction(),
    ));
}

/// `qcut::run_qcut` on a 128-query × 8-worker hash-like `ScopeStats`, as
/// `crates/bench/benches/micro.rs` builds it; milliseconds.
fn ils_probe_ms(spans: &Spans) -> f64 {
    let _span = spans.enter("probe.ils");
    let (queries, k) = (128usize, PARTITIONS);
    let stats = ScopeStats {
        num_workers: k,
        queries: (0..queries as u32).map(QueryId).collect(),
        sizes: vec![vec![50.0 / k as f64; k]; queries],
        overlaps: (0..queries - 1).map(|i| (i, i + 1, 5.0)).collect(),
        base_vertices: vec![2000.0; k],
    };
    let start = Instant::now();
    black_box(run_qcut(&stats, &QcutConfig::default()));
    start.elapsed().as_secs_f64() * 1e3
}

/// `SimEngine` mean virtual latency on block 0's stream, same
/// partitioning and configuration, over the thread-measured mean of the
/// same block: the cost model's prediction error.
fn virt_over_wall(inputs: &Inputs, plain: &Window, spans: &Spans) -> f64 {
    let _span = spans.enter("probe.sim");
    let mut sim = SimEngine::new(
        Arc::clone(&inputs.graph),
        ClusterModel::scale_up(PARTITIONS),
        inputs.parts.clone(),
        inputs.cfg.clone(),
    );
    for q in inputs.block_queries(0) {
        q.submit(&mut sim);
    }
    let virt_ms = sim.run().mean_latency() * 1e3;
    ratio(virt_ms, plain.blocks[0].lat_mean_ms)
}

/// Every per-layer line of a thread-runtime workload. `plain` and
/// `traced` are the two windows of the traced run; the ledger is read
/// off `traced`, and `plain` gives the overhead's base.
pub fn thread_lines(
    inputs: &Inputs,
    plain: &Window,
    traced: &Window,
    ledger: &Ledger,
    check: &CheckResult,
    warmup_s: f64,
    spans: &Spans,
) -> Lines {
    let mut out = Lines::new();
    let prefix = traced.prefix;
    let blocks = traced.prefix_blocks();
    let tally = traced.tally();
    let pool = traced.pool();
    let report = traced.engine.report();
    let wall_s: f64 = blocks.iter().map(|b| b.wall_s).sum();
    let queries: usize = blocks.iter().map(|b| b.queries).sum();
    let threads = pool.threads.max(1) as f64;
    let marks = prefix.marks;

    graph_lines(inputs, traced, spans, &mut out);

    out.push(("partition.partition_ms", inputs.times.partition_s * 1e3));
    out.push((
        "partition.edge_cut_ratio",
        ratio(
            edge_cut(&inputs.graph, &inputs.parts) as f64,
            inputs.graph.num_edges() as f64,
        ),
    ));
    out.push(("workload.gen_ms", inputs.times.workload_s * 1e3));

    let compute_busy_s = marks.compute_ns as f64 / 1e9;
    let compute_share = ratio(compute_busy_s, wall_s * threads);
    out.push(("algo.compute_calls", marks.compute_calls as f64));
    out.push(("algo.compute_busy_s", compute_busy_s));
    out.push(("algo.compute_share", compute_share));
    out.push(("algo.combine_calls", marks.combine_calls as f64));
    out.push((
        "algo.combine_merged_ratio",
        ratio(marks.combine_merged as f64, marks.combine_calls as f64),
    ));
    out.push(("algo.init_busy_s", marks.init_ns as f64 / 1e9));
    out.push(("algo.finalize_busy_s", marks.finalize_ns as f64 / 1e9));
    out.push((
        "algo.ref_qps",
        ratio(check.checked as f64, check.reference_s),
    ));

    out.push(("worker.supersteps", tally.supersteps as f64));
    out.push((
        "worker.local_superstep_ratio",
        ratio(tally.local_supersteps as f64, tally.supersteps as f64),
    ));
    out.push(("worker.vertex_updates", tally.vertex_updates as f64));
    out.push(("worker.remote_msgs", tally.remote_msgs as f64));
    out.push((
        "worker.remote_msgs_pre_combine",
        tally.remote_msgs_pre_combine as f64,
    ));
    out.push((
        "worker.combine_saved_ratio",
        ratio(
            tally
                .remote_msgs_pre_combine
                .saturating_sub(tally.remote_msgs) as f64,
            tally.remote_msgs_pre_combine as f64,
        ),
    ));
    out.push(("worker.remote_batches", tally.remote_batches as f64));
    out.push((
        "worker.scope_size_mean",
        ratio(tally.scope_size as f64, tally.traversal as f64),
    ));

    out.push(("pool.tasks", pool.tasks as f64));
    out.push(("pool.steals", pool.steals as f64));
    out.push(("pool.idle_waits", pool.idle_waits as f64));
    out.push((
        "pool.steal_ratio",
        ratio(pool.steals as f64, pool.tasks as f64),
    ));
    out.push((
        "pool.tasks_per_superstep",
        ratio(pool.tasks as f64, tally.supersteps as f64),
    ));
    out.push((
        "pool.us_per_task",
        ratio(wall_s * threads * 1e6, pool.tasks as f64),
    ));

    let completed = tally.outcomes - tally.rejected;
    out.push((
        "sched.index_served_ratio",
        ratio(tally.index_served as f64, tally.outcomes as f64),
    ));
    out.push(("sched.rejected", tally.rejected as f64));
    out.push((
        "sched.effective_dop_mean",
        ratio(tally.effective_dop as f64, tally.traversal as f64),
    ));
    out.push((
        "sched.queue_wait_mean_ms",
        ratio(tally.queue_wait_s * 1e3, completed as f64),
    ));

    // Every MutationEvent of one stop-the-world window carries the whole
    // window's duration, and a repartition may share that window: take
    // the union of the windows' intervals, never the sum of the events.
    let mutations = &report.mutations[..prefix.mutations];
    let repartitions = &report.repartitions[..prefix.repartitions];
    let (quiesce_s, quiesce_windows) = union_of(
        mutations
            .iter()
            .map(|m| (m.applied_at, m.applied_at + m.barrier_duration))
            .chain(
                repartitions
                    .iter()
                    .map(|r| (r.applied_at - r.barrier_duration, r.applied_at)),
            )
            .collect(),
    );
    let quiesce_share = ratio(quiesce_s, wall_s);
    out.push(("runtime.start_ms", traced.start_s * 1e3));
    out.push((
        "runtime.submit_ns_per_query",
        ratio(
            blocks.iter().map(|b| b.submit_s).sum::<f64>() * 1e9,
            queries as f64,
        ),
    ));
    out.push(("runtime.drain_s", blocks.iter().map(|b| b.drain_s).sum()));
    out.push(("runtime.shutdown_ms", traced.shutdown_s * 1e3));
    out.push(("runtime.quiesce_windows", quiesce_windows as f64));
    out.push(("runtime.quiesce_s", quiesce_s));
    out.push(("runtime.quiesce_share", quiesce_share));
    out.push(("runtime.coord_share", 1.0 - compute_share - quiesce_share));
    out.push((
        "runtime.us_per_superstep",
        ratio(wall_s * 1e6, tally.supersteps as f64),
    ));
    let over = |f: fn(&crate::thread_run::BlockStats) -> f64| -> f64 {
        median(&blocks.iter().map(f).collect::<Vec<_>>())
    };
    out.push(("runtime.lat_p50_ms", over(|b| b.lat_p50_ms)));
    out.push(("runtime.lat_p99_ms", over(|b| b.lat_p99_ms)));

    let barrier_ms: Vec<f64> = repartitions
        .iter()
        .map(|r| r.barrier_duration * 1e3)
        .collect();
    let traversal_locality: Vec<f64> = report.outcomes
        [..blocks.iter().map(|b| b.tally.outcomes as usize).sum()]
        .iter()
        .filter(|o| !o.is_rejected() && !o.is_index_served())
        .map(|o| o.locality())
        .collect();
    out.push(("qcut.repartitions", repartitions.len() as f64));
    out.push((
        "qcut.moved_vertices",
        repartitions.iter().map(|r| r.moved_vertices as f64).sum(),
    ));
    out.push(("qcut.barrier_s", barrier_ms.iter().sum::<f64>() / 1e3));
    out.push((
        "qcut.barrier_ms_p50",
        Percentiles::of(barrier_ms.clone()).p50,
    ));
    out.push((
        "qcut.locality_gain_mean",
        mean(
            &repartitions
                .iter()
                .map(|r| r.locality_after - r.locality_before)
                .collect::<Vec<_>>(),
        ),
    ));
    out.push((
        "qcut.ils_improvement_mean",
        mean(
            &repartitions
                .iter()
                .map(|r| r.ils.improvement())
                .collect::<Vec<_>>(),
        ),
    ));
    out.push((
        "qcut.locality_last_quartile",
        mean(&traversal_locality[traversal_locality.len() * 3 / 4..]),
    ));
    out.push(("qcut.ils_probe_ms", ils_probe_ms(spans)));

    let roads = matches!(
        inputs.workload,
        Workload::RoadHash | Workload::RoadDomain | Workload::RoadQcut
    );
    out.push((
        "sim.virt_over_wall_lat",
        if roads {
            virt_over_wall(inputs, plain, spans)
        } else {
            0.0
        },
    ));

    let entries = inputs.index.as_ref().map_or(0, |i| i.total_entries());
    let serve_ns: Vec<f64> = ledger
        .serve_ns
        .lock()
        .map(|all| {
            all[..marks.serve_calls as usize]
                .iter()
                .map(|n| *n as f64)
                .collect()
        })
        .unwrap_or_default();
    let repairs: Vec<_> = ledger
        .repairs
        .lock()
        .map(|all| all[..marks.repairs].to_vec())
        .unwrap_or_default();
    let repair_ms: Vec<f64> = repairs.iter().map(|r| r.ms).collect();
    out.push(("index.build_s", inputs.times.index_s));
    out.push(("index.label_entries", entries as f64));
    out.push((
        "index.entries_per_vertex",
        ratio(entries as f64, inputs.graph.num_vertices() as f64),
    ));
    out.push(("index.serve_calls", marks.serve_calls as f64));
    out.push((
        "index.serve_hit_ratio",
        ratio(marks.serve_hits as f64, marks.serve_calls as f64),
    ));
    out.push(("index.serve_busy_s", serve_ns.iter().sum::<f64>() / 1e9));
    out.push(("index.serve_ns_p50", Percentiles::of(serve_ns.clone()).p50));
    out.push(("index.repair_calls", repairs.len() as f64));
    out.push(("index.repair_busy_s", repair_ms.iter().sum::<f64>() / 1e3));
    out.push((
        "index.repair_ms_p50",
        Percentiles::of(repair_ms.clone()).p50,
    ));
    out.push((
        "index.repair_ms_max",
        repair_ms.iter().copied().fold(0.0, f64::max),
    ));
    out.push((
        "index.rebuild_ratio",
        ratio(
            repairs.iter().filter(|r| r.rebuilt).count() as f64,
            repairs.len() as f64,
        ),
    ));
    out.push((
        "index.roots_rerun",
        repairs.iter().map(|r| r.roots_rerun as f64).sum(),
    ));
    out.push((
        "index.labels_churned",
        repairs.iter().map(|r| r.labels_churned as f64).sum(),
    ));

    out.push((
        "bench.trace_overhead",
        ratio(
            median(&plain.over_blocks(|b| b.qps())),
            median(&traced.over_blocks(|b| b.qps())),
        ),
    ));
    out.push(("bench.threads", threads));
    out.push(("bench.warmup_s", warmup_s));
    out.push(("bench.blocks", traced.blocks.len() as f64));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_barriers_count_once() {
        // Three events of one window, a repartition inside it, and a
        // second window apart.
        let (total, windows) = union_of(vec![
            (1.0, 3.0),
            (1.0, 3.0),
            (1.0, 3.0),
            (1.5, 2.9),
            (10.0, 10.5),
        ]);
        assert_eq!(windows, 2);
        assert!((total - 2.5).abs() < 1e-12, "{total}");
        assert_eq!(union_of(Vec::new()), (0.0, 0));
    }
}
