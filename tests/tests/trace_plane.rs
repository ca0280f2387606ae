//! Tracing-plane integration suite (`qgraph_core::trace`, switched on
//! per engine by `SystemConfig::trace`).
//!
//! What this file pins down, on *both* runtimes:
//! * **timelines** — every submitted query gets a per-query timeline
//!   whose five-phase breakdown (queued / executing / frozen-waiting /
//!   deferred-by-dop / parked-at-barrier) partitions its time in
//!   system, and whose superstep count equals the outcome's — also for
//!   the supersteps the thread runtime closes on a partition's lane,
//!   which the core stamps when their report arrives;
//! * **saturation** — a deliberately tiny ring must *drop and count*,
//!   never block or grow: the engine completes identical work and the
//!   loss is visible in `dropped_events`;
//! * **export** — the Chrome trace-event JSON round-trips through
//!   `validate_chrome` (JSON validity, declared-track references,
//!   envelope nesting);
//! * **completeness** — a traced run's `Step` spans carry every vertex
//!   update its outcomes count, the one record the figures' imbalance
//!   series is read from;
//! * **auditor interplay** — with `check-hb` also on, serving and
//!   mutation schedules run clean with both instrumentation planes
//!   live (they share the barrier drain points).

use qgraph_algo::{BfsProgram, SsspProgram};
use qgraph_core::trace::{outcome, validate_chrome, Kind, QueryTimeline};
use qgraph_core::{Engine, EngineBuilder, EngineReport, Runtime, SystemConfig};
use qgraph_graph::VertexId;
use qgraph_integration_tests::line_graph;
use qgraph_partition::{HashPartitioner, RangePartitioner};

fn traced_cfg() -> SystemConfig {
    SystemConfig {
        trace: true,
        max_parallel_queries: 4,
        ..Default::default()
    }
}

fn grid_world() -> qgraph_graph::Graph {
    // A 24x24 undirected grid: multi-superstep frontiers on every
    // partition without road-network build cost.
    let n = 24u32;
    let mut b = qgraph_graph::GraphBuilder::new((n * n) as usize);
    for r in 0..n {
        for c in 0..n {
            let v = r * n + c;
            if c + 1 < n {
                b.add_undirected_edge(v, v + 1, 1.0);
            }
            if r + 1 < n {
                b.add_undirected_edge(v, v + n, 1.0);
            }
        }
    }
    b.build()
}

/// The supersteps `report` counted for the query of timeline `t`.
fn iterations(report: &EngineReport, t: &QueryTimeline) -> u64 {
    let outcome = report
        .outcomes
        .iter()
        .find(|o| u64::from(o.id.0) == t.query);
    u64::from(outcome.expect("every timeline has an outcome").iterations)
}

/// Five-phase partition + one timeline per query, simulated engine
/// (virtual stamps: the residual is pure float noise).
#[test]
fn sim_timelines_partition_time_in_system() {
    let mut e = EngineBuilder::new(grid_world())
        .workers(3)
        .partitioner(HashPartitioner::default())
        .config(traced_cfg())
        .build_sim();
    for i in 0..6u32 {
        e.submit_at(BfsProgram::new(VertexId(i * 97 % 576), 30), 1e-5 * i as f64);
    }
    e.run();
    let s = e.report().trace();
    assert_eq!(s.timelines.len(), 6);
    assert_eq!(s.dropped_events, 0);
    for t in &s.timelines {
        assert_eq!(t.outcome, outcome::COMPLETED, "query {}", t.query);
        assert!(t.supersteps > 0 && t.tasks > 0, "query {}", t.query);
        assert_eq!(t.supersteps, iterations(e.report(), t), "query {}", t.query);
        assert!(t.executing_secs > 0.0, "query {}", t.query);
        let residual = (t.phase_sum_secs() - t.time_in_system_secs()).abs();
        assert!(
            residual <= 1e-9 + 0.01 * t.time_in_system_secs(),
            "query {}: phases leak {residual}s of {}s",
            t.query,
            t.time_in_system_secs()
        );
    }
}

/// Same claim on the thread runtime's monotonic wall stamps, plus the
/// export round-trip on a real multi-query schedule.
#[test]
fn thread_timelines_and_chrome_round_trip() {
    let mut e = EngineBuilder::new(grid_world())
        .workers(3)
        .partitioner(HashPartitioner::default())
        .config(traced_cfg())
        .build_threaded();
    for i in 0..6u32 {
        e.submit(BfsProgram::new(VertexId(i * 97 % 576), 30));
    }
    e.run();
    let report = e.shutdown();
    let s = report.trace();
    assert_eq!(s.timelines.len(), 6);
    assert_eq!(s.dropped_events, 0);
    for t in &s.timelines {
        assert_eq!(t.outcome, outcome::COMPLETED, "query {}", t.query);
        assert_eq!(t.supersteps, iterations(report, t), "query {}", t.query);
        assert!(t.executing_secs > 0.0, "query {}", t.query);
        let residual = (t.phase_sum_secs() - t.time_in_system_secs()).abs();
        assert!(
            residual <= 1e-9 + 0.01 * t.time_in_system_secs(),
            "query {}: phases leak {residual}s",
            t.query
        );
    }
    let stats =
        validate_chrome(&report.trace.export_chrome()).expect("chrome export must validate");
    assert_eq!(stats.envelopes, 6);
    // Lane tracks + coordinator + one per query.
    assert!(stats.tracks > 6, "got {} tracks", stats.tracks);
    assert!(stats.spans > 0);
}

/// Supersteps closed on a partition's lane never pass through the
/// coordinator one by one, yet each gets its `superstep_done` stamp: on a
/// contiguous partitioning of a line, a shortest path is one long run of
/// local supersteps per partition, far fewer Step spans than supersteps.
#[test]
fn thread_timelines_count_supersteps_closed_on_the_lane() {
    let mut e = EngineBuilder::new(line_graph(96))
        .workers(3)
        .partitioner(RangePartitioner)
        .config(traced_cfg())
        .build_threaded();
    for _ in 0..3 {
        e.submit(SsspProgram::new(VertexId(0), VertexId(95)));
    }
    e.run();
    let report = e.shutdown();
    let s = report.trace();
    assert_eq!((s.timelines.len(), s.dropped_events), (3, 0));
    for t in &s.timelines {
        assert_eq!(t.supersteps, 96, "query {}", t.query);
        assert_eq!(t.supersteps, iterations(report, t), "query {}", t.query);
        assert!(
            t.tasks < t.supersteps,
            "query {}: {} commands for {} supersteps",
            t.query,
            t.tasks,
            t.supersteps
        );
        let residual = (t.phase_sum_secs() - t.time_in_system_secs()).abs();
        assert!(residual <= 1e-9 + 0.01 * t.time_in_system_secs());
    }
}

/// Saturation: a 16-event ring on a schedule that records far more
/// must drop + count, while the engine's own results stay identical to
/// an untraced run — recording loss is never execution loss. The count
/// adds up over hand-overs and sessions: each later drain, a single
/// query's, raises it, before and after a restart.
#[test]
fn full_rings_drop_and_count_without_blocking() {
    let run = |capacity: usize, trace: bool| {
        let mut e = EngineBuilder::new(line_graph(96))
            .workers(3)
            .partitioner(HashPartitioner::default())
            .config(SystemConfig {
                trace,
                trace_ring_capacity: capacity,
                ..Default::default()
            })
            .build_threaded();
        let sssp = SsspProgram::new(VertexId(0), VertexId(95));
        let mut h: Vec<_> = (0..4).map(|_| e.submit(sssp.clone())).collect();
        let mut dropped = vec![e.run().trace.summary().dropped_events];
        h.push(e.submit(sssp.clone()));
        dropped.push(e.drain().trace.summary().dropped_events);
        e.shutdown();
        h.push(e.submit(sssp));
        dropped.push(e.run().trace.summary().dropped_events);
        e.shutdown();
        let outputs: Vec<Option<f32>> = h.iter().map(|h| e.output(h).copied().flatten()).collect();
        (outputs, dropped)
    };
    let (saturated_out, saturated_dropped) = run(16, true);
    let (untraced_out, untraced_dropped) = run(1 << 20, false);
    assert!(
        saturated_dropped[0] > 0,
        "a 16-event ring must overflow on a 4x95-superstep schedule"
    );
    assert!(
        saturated_dropped.windows(2).all(|w| w[0] < w[1]),
        "every hand-over adds its own drops: {saturated_dropped:?}"
    );
    assert_eq!(untraced_dropped, vec![0; 3]);
    assert_eq!(saturated_out, untraced_out);
    assert_eq!(saturated_out, vec![Some(95.0); 6]);
}

/// The sim's flavor of saturation: virtual stamps, same drop contract.
#[test]
fn sim_full_rings_drop_and_count() {
    let mut e = EngineBuilder::new(line_graph(96))
        .workers(3)
        .partitioner(HashPartitioner::default())
        .config(SystemConfig {
            trace: true,
            trace_ring_capacity: 16,
            ..Default::default()
        })
        .build_sim();
    let h = e.submit_at(SsspProgram::new(VertexId(0), VertexId(95)), 0.0);
    e.run();
    assert_eq!(e.output(&h).copied().flatten(), Some(95.0));
    assert!(e.report().trace.summary().dropped_events > 0);
}

/// The runtime knob: a `trace` build with `SystemConfig::trace` off
/// must record nothing at all (the knob-off side of the overhead
/// claim).
#[test]
fn knob_off_records_nothing() {
    let mut e = EngineBuilder::new(line_graph(32))
        .workers(2)
        .partitioner(HashPartitioner::default())
        .config(SystemConfig::default())
        .build_threaded();
    e.submit(SsspProgram::new(VertexId(0), VertexId(31)));
    e.run();
    let report = e.shutdown();
    assert!(report.trace.is_empty());
    assert_eq!(report.trace.summary().timelines.len(), 0);
}

/// The trace is a complete record of per-partition work: on both
/// runtimes, the vertex updates a traced run's `Step` spans carry sum to
/// the outcomes' — what `EngineReport::imbalance_series` (Figure 6e and
/// the figures' imbalance column) reads.
#[test]
fn step_spans_carry_every_vertex_update() {
    fn span_and_outcome_updates<R: Runtime>(mut e: Engine<R>) -> (u64, u64) {
        for i in 0..6u32 {
            e.submit(BfsProgram::new(VertexId(i * 97 % 576), 30));
        }
        e.run();
        let report = e.report();
        assert_eq!(report.trace.dropped_events, 0);
        let steps = (report.trace.events.iter()).filter(|ev| ev.kind == Kind::TaskEnd);
        let updates = report.outcomes.iter().map(|o| o.vertex_updates).sum();
        (steps.map(|ev| ev.aux).sum(), updates)
    }
    let builder = || {
        EngineBuilder::new(grid_world())
            .workers(3)
            .partitioner(HashPartitioner::default())
            .config(traced_cfg())
    };
    let sim = span_and_outcome_updates(builder().build_sim());
    let threads = span_and_outcome_updates(builder().build_threaded());
    for (runtime, (spans, updates)) in [("sim", sim), ("threads", threads)] {
        assert!(updates > 0, "{runtime}");
        assert_eq!(spans, updates, "{runtime}");
    }
}

/// Both instrumentation planes at once: the tracer and the
/// happens-before auditor share the barrier drain points, so a
/// serving + mutation schedule must run clean with both live — on
/// both runtimes — and still produce full timelines.
#[cfg(feature = "check-hb")]
mod with_hb_auditor {
    use super::*;
    use qgraph_core::MutationBatch;

    #[test]
    fn sim_serving_and_mutations_with_both_planes() {
        let mut e = EngineBuilder::new(line_graph(96))
            .workers(3)
            .partitioner(HashPartitioner::default())
            .config(traced_cfg())
            .build_sim();
        for i in 0..4u32 {
            e.submit_at(SsspProgram::new(VertexId(0), VertexId(95)), 1e-6 * i as f64);
        }
        for i in 0..8u32 {
            let mut m = MutationBatch::new();
            m.add_edge(i, 95 - i, 0.5 + i as f32);
            e.mutate_at(m, 1e-5 + 2e-5 * i as f64);
        }
        e.run();
        let s = e.report().trace();
        assert_eq!(s.timelines.len(), 4);
        assert!(s.timelines.iter().all(|t| t.outcome == outcome::COMPLETED));
    }

    #[test]
    fn thread_serving_and_mutations_with_both_planes() {
        let mut e = EngineBuilder::new(line_graph(96))
            .workers(3)
            .partitioner(HashPartitioner::default())
            .config(traced_cfg())
            .build_threaded();
        for i in 0..4u32 {
            let _ = i;
            e.submit(SsspProgram::new(VertexId(0), VertexId(95)));
        }
        for i in 0..8u32 {
            let mut m = MutationBatch::new();
            m.add_edge(i, 95 - i, 0.5 + i as f32);
            e.mutate(m);
        }
        e.run();
        let report = e.shutdown();
        let s = report.trace();
        assert_eq!(s.timelines.len(), 4);
        assert!(s.timelines.iter().all(|t| t.outcome == outcome::COMPLETED));
        validate_chrome(&report.trace.export_chrome())
            .expect("chrome export valid under both planes");
    }
}
