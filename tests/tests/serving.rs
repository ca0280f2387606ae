//! The streaming/serving layer end to end: concurrent submission through
//! [`EngineClient`] while `ThreadEngine` runs supersteps, virtual-time
//! arrivals on `SimEngine`, the admission policies (FIFO / program
//! priority / deadline), per-outcome queueing metrics, and the
//! multi-run report boundaries.
//!
//! The headline acceptance test streams a mixed SSSP + POI + Reach + BFS
//! workload from a second thread into a live engine under *each* policy:
//! every answer must match the sequential references and at least one
//! Q-cut repartition must fire mid-stream.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use qgraph_algo::{
    connected_component_of, dijkstra_to, k_hop, nearest_tagged, BfsProgram, PoiProgram, SsspProgram,
};
use qgraph_core::programs::ReachProgram;
use qgraph_core::{
    AdmissionPolicy, Engine, EngineBuilder, OutcomeStatus, PoolCounters, QcutConfig, QueryHandle,
    QueryId, Submission, SystemConfig,
};
use qgraph_graph::{Graph, VertexId};
use qgraph_integration_tests::{line_graph, small_road_world};
use qgraph_partition::{HashPartitioner, Partitioner};
use qgraph_workload::{arrival_times, assign_tags, ArrivalConfig};

fn tagged_world() -> (Arc<Graph>, Vec<VertexId>) {
    let mut world = small_road_world(57);
    assign_tags(&mut world.graph, 1.0 / 60.0, 5);
    let n = world.graph.num_vertices() as u32;
    // A hotspot band in the first quarter of the id space: overlapping
    // sources keep the scopes intersecting across queries.
    let sources: Vec<VertexId> = (0..12u32).map(|i| VertexId((i * 29) % (n / 4))).collect();
    (Arc::new(world.graph), sources)
}

struct MixedHandles {
    sssp: Vec<QueryHandle<SsspProgram>>,
    poi: Vec<QueryHandle<PoiProgram>>,
    reach: QueryHandle<ReachProgram>,
    bfs: QueryHandle<BfsProgram>,
}

fn verify_mixed<E: Engine>(engine: &E, graph: &Graph, sources: &[VertexId], h: &MixedHandles) {
    for (i, (&s, hs)) in sources.iter().zip(&h.sssp).enumerate() {
        let t = sources[(i + 5) % sources.len()];
        let want = dijkstra_to(graph, s, t);
        let got = *engine.output(hs).expect("sssp finished");
        match (want, got) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-3, "sssp {i}: {a} vs {b}"),
            (None, None) => {}
            other => panic!("sssp {i}: {other:?}"),
        }
    }
    for (i, hp) in h.poi.iter().enumerate() {
        let s = sources[i * 3];
        let want = nearest_tagged(graph, s);
        let got = *engine.output(hp).expect("poi finished");
        match (want, got) {
            (Some((_, wd)), Some((_, gd))) => {
                assert!((wd - gd).abs() < 1e-3, "poi {i}: {wd} vs {gd}");
            }
            (None, None) => {}
            other => panic!("poi {i}: {other:?}"),
        }
    }
    let mut want_reach = connected_component_of(graph, sources[0]);
    want_reach.sort_unstable();
    assert_eq!(
        engine.output(&h.reach).expect("reach finished"),
        &want_reach,
        "reach disagrees with reference"
    );
    let mut want_bfs = k_hop(graph, sources[1], 3);
    want_bfs.sort_unstable();
    let mut got_bfs = engine.output(&h.bfs).expect("bfs finished").clone();
    got_bfs.sort_unstable();
    assert_eq!(got_bfs, want_bfs, "bfs disagrees with reference");
}

fn serving_config(policy: AdmissionPolicy) -> SystemConfig {
    SystemConfig {
        // Wall-clock cooldown on threads; these streams last milliseconds.
        qcut: Some(QcutConfig {
            min_repartition_interval_secs: 0.0,
            ..Default::default()
        }),
        admission: policy,
        ..Default::default()
    }
}

/// The acceptance scenario: a second thread streams the mixed workload
/// through a cloned [`qgraph_core::EngineClient`] while the engine is
/// live. Answers must match the references, a Q-cut repartition must fire
/// mid-stream, and per-outcome queueing metrics must be coherent — under
/// all three admission policies.
#[test]
fn mixed_stream_from_second_thread_matches_references_under_all_policies() {
    let policies = [
        AdmissionPolicy::Fifo,
        AdmissionPolicy::priorities(&[("poi", 10), ("bfs", 5), ("sssp", 1)]),
        AdmissionPolicy::Deadline,
    ];
    let mut slo_policies = Vec::new();
    for policy in policies {
        let label = format!("{policy:?}");
        let policy_label = policy.label();
        let (graph, sources) = tagged_world();
        let mut engine = EngineBuilder::new(Arc::clone(&graph))
            .workers(4)
            .partitioner(HashPartitioner::default())
            .config(serving_config(policy))
            .build_threaded();
        engine.start();
        let client = engine.client();
        let deadline = label.contains("Deadline");
        let producer_sources = sources.clone();
        let producer = thread::spawn(move || {
            let mut sssp = Vec::new();
            let mut poi = Vec::new();
            for (i, &s) in producer_sources.iter().enumerate() {
                let t = producer_sources[(i + 5) % producer_sources.len()];
                if deadline {
                    sssp.push(client.submit_with_deadline(
                        SsspProgram::new(s, t),
                        (producer_sources.len() - i) as f64,
                    ));
                } else {
                    sssp.push(client.submit(SsspProgram::new(s, t)));
                }
                if i % 3 == 0 {
                    poi.push(client.submit(PoiProgram::new(s)));
                }
                // Spread the stream out so submissions interleave with
                // supersteps (and with repartition barriers).
                thread::sleep(Duration::from_micros(200));
            }
            let reach = client.submit(ReachProgram::new(producer_sources[0]));
            let bfs = client.submit(BfsProgram::new(producer_sources[1], 3));
            MixedHandles {
                sssp,
                poi,
                reach,
                bfs,
            }
        });
        let handles = producer.join().expect("producer thread");
        engine.drain();
        verify_mixed(&engine, &graph, &sources, &handles);

        let report = engine.report();
        assert!(
            !report.repartitions.is_empty(),
            "[{label}] hash partitioning + hotspot stream must repartition mid-stream"
        );
        for r in &report.repartitions {
            assert!(r.moved_vertices > 0, "[{label}]");
            assert!(r.applied_at >= r.triggered_at, "[{label}]");
        }
        assert_eq!(report.outcomes.len(), 12 + 4 + 2, "[{label}]");
        for o in &report.outcomes {
            assert!(o.queueing_delay_secs() >= 0.0, "[{label}]");
            assert!(
                o.time_in_system_secs() >= o.latency_secs() - 1e-9,
                "[{label}] time in system must cover execution"
            );
            assert!(
                o.queued_at <= o.submitted_at && o.submitted_at <= o.completed_at,
                "[{label}] lifecycle timestamps out of order"
            );
        }

        // The serving-quality view: latency tails keyed by the policy
        // that produced them, overall and per program kind.
        let slo = report.slo();
        assert_eq!(slo.policy, policy_label, "[{label}] SLO keyed by policy");
        assert_eq!(slo.completed, report.completed().count(), "[{label}]");
        assert_eq!(slo.completed, 12 + 4 + 2, "[{label}] nothing rejected here");
        for (name, pct) in [
            ("time-in-system", &slo.time_in_system),
            ("queueing-delay", &slo.queueing_delay),
        ] {
            assert!(
                pct.p50 <= pct.p95 && pct.p95 <= pct.p99,
                "[{label}] {name} percentiles must be monotone: {pct:?}"
            );
        }
        assert!(
            slo.time_in_system.p50 > 0.0,
            "[{label}] completions take wall time"
        );
        let mut kinds: Vec<&str> = slo.per_program.iter().map(|p| p.program).collect();
        kinds.sort_unstable();
        assert_eq!(
            kinds,
            vec!["bfs", "poi", "reach", "sssp"],
            "[{label}] every program kind gets its own tail breakdown"
        );
        for p in &slo.per_program {
            let expected = match p.program {
                "sssp" => 12,
                "poi" => 4,
                _ => 1,
            };
            assert_eq!(p.queries, expected, "[{label}] {} count", p.program);
            assert!(
                p.time_in_system.p50 <= p.time_in_system.p95
                    && p.time_in_system.p95 <= p.time_in_system.p99,
                "[{label}] {} tails must be monotone",
                p.program
            );
            // Queueing delay is a prefix of time in system per query, and
            // nearest-rank percentiles preserve pointwise domination.
            assert!(
                p.queueing_delay.p99 <= p.time_in_system.p99 + 1e-9,
                "[{label}] {}: queueing is part of time in system",
                p.program
            );
        }
        slo_policies.push(slo.policy);
        engine.shutdown();
    }
    slo_policies.sort_unstable();
    assert_eq!(
        slo_policies,
        vec!["deadline", "fifo", "program-priority"],
        "each engine's SLO view names the policy it ran under"
    );
}

/// FIFO vs priority on a constructed backlog (simulated engine, fully
/// deterministic): with one closed-loop slot the admission order *is* the
/// completion order, so the policies must produce their characteristic
/// orderings and queueing delays.
#[test]
fn fifo_vs_priority_ordering_on_constructed_backlog() {
    let build = |policy: AdmissionPolicy| {
        let cfg = SystemConfig {
            max_parallel_queries: 1,
            admission: policy,
            ..Default::default()
        };
        let mut e = EngineBuilder::new(line_graph(24))
            .workers(2)
            .config(cfg)
            .build_sim();
        // Backlog before run: 3 reach then 3 ping — all queued at t=0.
        for i in 0..3u32 {
            e.submit(ReachProgram::bounded(VertexId(i * 4), 2));
        }
        for i in 0..3u32 {
            e.submit(qgraph_core::programs::PingProgram {
                ring: vec![VertexId(i), VertexId(20 + i)],
                rounds: 2,
            });
        }
        e.run();
        e.report()
            .outcomes
            .iter()
            .map(|o| o.program)
            .collect::<Vec<_>>()
    };

    let fifo = build(AdmissionPolicy::Fifo);
    assert_eq!(
        fifo,
        vec!["reach", "reach", "reach", "ping", "ping", "ping"],
        "FIFO must preserve submission order"
    );
    let prio = build(AdmissionPolicy::priorities(&[("ping", 10)]));
    assert_eq!(
        prio,
        vec!["ping", "ping", "ping", "reach", "reach", "reach"],
        "priority must drain ping before reach"
    );
}

/// Same constructed-backlog comparison on the thread runtime: one slot,
/// pre-start backlog, policy-ordered admission.
#[test]
fn thread_backlog_respects_program_priority() {
    let cfg = SystemConfig {
        max_parallel_queries: 1,
        admission: AdmissionPolicy::priorities(&[("ping", 10)]),
        ..Default::default()
    };
    let mut e = EngineBuilder::new(line_graph(24))
        .workers(2)
        .config(cfg)
        .build_threaded();
    for i in 0..3u32 {
        e.submit(ReachProgram::bounded(VertexId(i * 4), 2));
    }
    for i in 0..3u32 {
        e.submit(qgraph_core::programs::PingProgram {
            ring: vec![VertexId(i), VertexId(20 + i)],
            rounds: 2,
        });
    }
    e.run();
    let order: Vec<&str> = e.report().outcomes.iter().map(|o| o.program).collect();
    // A serving engine admits eagerly: the first reach grabs the lone slot
    // the moment its submission lands, before the rest of the backlog
    // streams in. From then on the policy governs — every ping overtakes
    // the remaining reaches.
    assert_eq!(
        order,
        vec!["reach", "ping", "ping", "ping", "reach", "reach"]
    );
    // The overtaken queries carry the wait as queueing delay.
    let last = e.report().outcomes.last().unwrap();
    assert!(last.queueing_delay_secs() >= 0.0);
}

/// Earliest-deadline-first on a constructed backlog.
#[test]
fn deadline_policy_admits_earliest_deadline_first() {
    let cfg = SystemConfig {
        max_parallel_queries: 1,
        admission: AdmissionPolicy::Deadline,
        ..Default::default()
    };
    let mut e = EngineBuilder::new(line_graph(16))
        .workers(2)
        .config(cfg)
        .build_sim();
    let slack = e.submit_when(
        ReachProgram::bounded(VertexId(0), 2),
        Submission::with_deadline(100.0),
    );
    let urgent = e.submit_when(
        ReachProgram::bounded(VertexId(4), 2),
        Submission::with_deadline(1.0),
    );
    let undeadlined = e.submit(ReachProgram::bounded(VertexId(8), 2));
    e.run();
    let order: Vec<_> = e.report().outcomes.iter().map(|o| o.id).collect();
    assert_eq!(
        order,
        vec![urgent.id(), slack.id(), undeadlined.id()],
        "EDF: urgent first, no-deadline last"
    );
}

/// Virtual-time arrivals on the simulated engine: `submit_at` models an
/// open-loop stream; arrival order and queueing metrics must reflect the
/// schedule, deterministically.
#[test]
fn sim_open_loop_arrivals_respect_virtual_time() {
    let times = arrival_times(&ArrivalConfig::uniform(8, 100.0));
    let mut e = EngineBuilder::new(line_graph(64)).workers(4).build_sim();
    let handles: Vec<_> = times
        .iter()
        .enumerate()
        .map(|(i, &t)| e.submit_at(ReachProgram::bounded(VertexId(i as u32 * 7), 3), t))
        .collect();
    e.run();
    let report = e.report();
    assert_eq!(report.outcomes.len(), 8);
    for (h, &t) in handles.iter().zip(&times) {
        assert!(e.output(h).is_some());
        let o = report
            .outcomes
            .iter()
            .find(|o| o.id == h.id())
            .expect("outcome present");
        assert!(
            (o.queued_at.as_secs_f64() - t).abs() < 1e-9,
            "arrival time recorded as queued_at"
        );
        assert!(o.submitted_at >= o.queued_at);
    }
    // Replay determinism extends to the streaming arrivals.
    let rerun = {
        let mut e2 = EngineBuilder::new(line_graph(64)).workers(4).build_sim();
        for (i, &t) in times.iter().enumerate() {
            e2.submit_at(ReachProgram::bounded(VertexId(i as u32 * 7), 3), t);
        }
        e2.run().finished_at_secs
    };
    assert_eq!(report.finished_at_secs, rerun);
}

/// Satellite regression: reports are well-defined across multiple runs —
/// every outcome belongs to exactly one run window, windows are
/// chronological, and a later run's trigger state does not inherit the
/// idle gap.
#[test]
fn sim_reports_have_run_boundaries_across_multiple_runs() {
    let mut e = EngineBuilder::new(line_graph(32)).workers(2).build_sim();
    e.submit(ReachProgram::bounded(VertexId(0), 4));
    e.submit(ReachProgram::bounded(VertexId(8), 4));
    e.run();
    e.submit(ReachProgram::bounded(VertexId(16), 4));
    e.run();
    let r = e.report();
    assert_eq!(r.runs.len(), 2);
    assert_eq!(r.run_outcomes(0).len(), 2);
    assert_eq!(r.run_outcomes(1).len(), 1);
    assert_eq!(
        r.runs.iter().map(|w| w.outcomes_end).max().unwrap(),
        r.outcomes.len(),
        "every outcome is covered by a window"
    );
    assert!(r.runs[0].finished_at_secs <= r.runs[1].started_at_secs + 1e-9);
    assert!(r.runs[1].finished_at_secs <= r.finished_at_secs + 1e-9);
}

/// Satellite regression: an aggressive trigger cadence with a tiny
/// monitoring window evaluates the activity window before/while samples
/// land — this must be guarded, never a panic.
#[test]
fn sim_qcut_trigger_before_first_activity_sample_is_guarded() {
    let cfg = SystemConfig {
        qcut: Some(QcutConfig {
            // Sub-nanosecond window: rolls on the very first sample, so
            // the imbalance evaluation repeatedly sees an empty window.
            monitoring_window_secs: 1e-12,
            locality_threshold: 1.0,
            min_repartition_interval_secs: 0.0,
            ils_budget_secs: 1e-6,
            ils_max_rounds: 2,
            ..Default::default()
        }),
        ..Default::default()
    };
    let mut e = EngineBuilder::new(line_graph(32))
        .workers(2)
        .config(cfg)
        .build_sim();
    let a = e.submit(ReachProgram::new(VertexId(0)));
    let b = e.submit(ReachProgram::new(VertexId(1)));
    e.run();
    assert_eq!(e.output(&a).unwrap().len(), 32);
    assert_eq!(e.output(&b).unwrap().len(), 31);
}

/// Streaming submissions racing an always-firing repartition barrier:
/// queries admitted mid-phase must park like resident ones and resume
/// against the migrated layout — no deadlock, no wrong answers.
#[test]
fn thread_stream_races_repartition_barriers() {
    let world = small_road_world(31);
    let graph = Arc::new(world.graph.clone());
    let parts = HashPartitioner::default().partition(&graph, 4);
    let cfg = SystemConfig {
        qcut: Some(QcutConfig {
            // locality is in [0, 1]: threshold 2.0 with no cooldown forces
            // a barrier at every superstep end with >= 2 known scopes.
            min_repartition_interval_secs: 0.0,
            locality_threshold: 2.0,
            ils_max_rounds: 4,
            ..Default::default()
        }),
        max_parallel_queries: 3,
        ..Default::default()
    };
    let mut engine = EngineBuilder::new(Arc::clone(&graph))
        .partitioning(parts)
        .config(cfg)
        .build_threaded();
    engine.start();
    let client = engine.client();
    let jobs_graph = Arc::clone(&graph);
    let producer = thread::spawn(move || {
        let n = jobs_graph.num_vertices() as u32;
        (0..16u32)
            .map(|i| {
                let s = VertexId((i * 37) % (n / 4));
                let t = VertexId((i * 53 + 200) % (n / 4));
                let h = client.submit(SsspProgram::new(s, t));
                thread::yield_now();
                (s, t, h)
            })
            .collect::<Vec<_>>()
    });
    let jobs = producer.join().expect("producer");
    engine.drain();
    let report = engine.report();
    assert_eq!(report.outcomes.len(), jobs.len(), "every query finished");
    assert!(
        !report.repartitions.is_empty(),
        "the always-on trigger must repartition"
    );
    assert_eq!(
        engine.partitioning().sizes().iter().sum::<usize>(),
        graph.num_vertices()
    );
    for (i, (s, t, h)) in jobs.iter().enumerate() {
        let want = dijkstra_to(&graph, *s, *t);
        let got = *engine.output(h).expect("finished");
        match (want, got) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-3, "query {i}: {a} vs {b}"),
            (None, None) => {}
            other => panic!("query {i}: {other:?}"),
        }
    }
}

/// Multiple drains on one serve session: each drain closes a run window
/// over the cumulative report and the engine keeps serving afterwards.
/// Across drains, a stop and a restart, every outcome is handed over
/// exactly once, the windows tile the outcomes and their pool deltas sum
/// to the totals.
#[test]
fn thread_serve_loop_drains_in_windows() {
    let mut e = EngineBuilder::new(line_graph(32))
        .workers(2)
        .build_threaded();
    e.start();
    let client = e.client();
    let h1 = client.submit(ReachProgram::bounded(VertexId(0), 4));
    e.drain();
    assert!(e.output(&h1).is_some());
    let h2 = client.submit(ReachProgram::bounded(VertexId(8), 4));
    let h3 = client.submit(ReachProgram::bounded(VertexId(16), 4));
    e.drain();
    assert!(e.output(&h2).is_some() && e.output(&h3).is_some());
    // An idle drain closes no window but still stamps the report's end.
    let closed_at = e.report().finished_at_secs;
    thread::sleep(Duration::from_millis(1));
    assert!(e.drain().finished_at_secs > closed_at);
    let r = e.shutdown();
    assert_eq!(r.runs.len(), 2, "one window per drain");
    assert_eq!(r.run_outcomes(0).len(), 1);
    assert_eq!(r.run_outcomes(1).len(), 2);
    assert_eq!(r.outcomes.len(), 3);

    // The next session: one query sent while stopped, one streamed.
    let h4 = e.submit(ReachProgram::bounded(VertexId(24), 4));
    e.run();
    let h5 = e.client().submit(ReachProgram::bounded(VertexId(4), 4));
    e.drain();
    assert!(e.output(&h4).is_some() && e.output(&h5).is_some());
    // At a drain that closed a window, every counter ties out.
    let r = e.report();
    let summed =
        |count: fn(&PoolCounters) -> u64| -> u64 { r.runs.iter().map(|w| count(&w.pool)).sum() };
    let counters = (
        summed(|p| p.tasks),
        summed(|p| p.steals),
        summed(|p| p.idle_waits),
    );
    assert_eq!(counters, (r.pool.tasks, r.pool.steals, r.pool.idle_waits));
    let r = e.shutdown();
    let mut ids: Vec<QueryId> = r.outcomes.iter().map(|o| o.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..5).map(QueryId).collect::<Vec<_>>(), "each once");
    assert_eq!(r.runs.len(), 4);
    let mut tiled = (0, r.runs[0].started_at_secs);
    for (i, w) in r.runs.iter().enumerate() {
        assert_eq!((w.index, w.outcomes_start), (i, tiled.0));
        assert!(tiled.1 <= w.started_at_secs && w.started_at_secs <= w.finished_at_secs);
        tiled = (w.outcomes_end, w.finished_at_secs);
    }
    assert_eq!(tiled.0, r.outcomes.len());
    let tasks: u64 = r.runs.iter().map(|w| w.pool.tasks).sum();
    assert_eq!(tasks, r.pool.tasks);
}

// ---------------------------------------------------------------------
// Backpressure: the bounded admission queue rejects overload.
// ---------------------------------------------------------------------

/// Sim: with one closed-loop slot and a 2-deep waiting queue, a burst of
/// 6 pre-run submissions queues 2 and rejects 4 (nothing is admitted
/// until `run`, so the queue is the only buffer) — each rejection a
/// distinct outcome with no output.
#[test]
fn sim_bounded_queue_rejects_overload() {
    let cfg = SystemConfig {
        max_parallel_queries: 1,
        max_queued: Some(2),
        ..Default::default()
    };
    let mut e = EngineBuilder::new(line_graph(24))
        .workers(2)
        .config(cfg)
        .build_sim();
    let handles: Vec<QueryHandle<ReachProgram>> = (0..6u32)
        .map(|i| e.submit(ReachProgram::bounded(VertexId(i), 2)))
        .collect();
    e.run();
    let report = e.report();
    assert_eq!(report.outcomes.len(), 6, "every submission has an outcome");
    assert_eq!(report.rejected_queries(), 4);
    assert_eq!(report.completed().count(), 2);
    let mut rejected_outputs = 0;
    for h in &handles {
        let o = report
            .outcomes
            .iter()
            .find(|o| o.id == h.id())
            .expect("outcome recorded");
        if o.is_rejected() {
            assert!(e.output(h).is_none(), "rejected queries have no output");
            assert_eq!(o.iterations, 0);
            assert_eq!(o.queued_at, o.completed_at, "bounced at arrival");
            rejected_outputs += 1;
        } else {
            assert!(e.output(h).is_some());
        }
    }
    assert_eq!(rejected_outputs, 4);
    // Rejections carry no latency signal: the means cover completions.
    assert!(report.mean_latency() > 0.0);
}

/// Sim: spaced open-loop arrivals under the same bound are all admitted —
/// backpressure only bites when the queue is actually full.
#[test]
fn sim_bounded_queue_admits_spaced_arrivals() {
    let mut e = EngineBuilder::new(line_graph(24))
        .workers(2)
        .max_queued(2)
        .build_sim();
    for i in 0..6u32 {
        e.submit_at(ReachProgram::bounded(VertexId(i), 2), i as f64 * 10.0);
    }
    e.run();
    assert_eq!(e.report().rejected_queries(), 0);
    assert_eq!(e.report().outcomes.len(), 6);
}

/// Thread runtime: a same-thread burst against a 1-slot loop with a
/// 1-deep queue serves some and rejects the rest; accepted answers still
/// match the reference.
#[test]
fn thread_bounded_queue_rejects_overload() {
    let graph = Arc::new(line_graph(40));
    let cfg = SystemConfig {
        max_parallel_queries: 1,
        max_queued: Some(1),
        ..Default::default()
    };
    let parts = HashPartitioner::default().partition(&graph, 2);
    let mut engine = qgraph_core::ThreadEngine::with_config(Arc::clone(&graph), parts, cfg);
    engine.start();
    let client = engine.client();
    let handles: Vec<QueryHandle<ReachProgram>> = (0..8u32)
        .map(|i| client.submit(ReachProgram::new(VertexId(i))))
        .collect();
    engine.drain();
    let report = engine.report();
    assert_eq!(report.outcomes.len(), 8, "every submission has an outcome");
    let rejected = report.rejected_queries();
    assert!(rejected > 0, "the burst must overflow a 1-deep queue");
    assert!(rejected < 8, "the first submission is always admitted");
    for h in &handles {
        let o = report
            .outcomes
            .iter()
            .find(|o| o.id == h.id())
            .expect("outcome recorded");
        match o.status {
            OutcomeStatus::Rejected => assert!(engine.output(h).is_none()),
            OutcomeStatus::Completed => {
                let got = engine.output(h).expect("completed output");
                let mut want = connected_component_of(&graph, VertexId(o.id.0));
                want.sort_unstable();
                assert_eq!(got, &want);
            }
        }
    }
    engine.shutdown();
}

// ---------------------------------------------------------------------
// The wire batch cap (`batch_max_msgs`) is accounting only.
// ---------------------------------------------------------------------

/// The cap pin: `batch_max_msgs` sets how many wire batches a Step's
/// messages are *counted* as, nothing else — a run at cap 2 is output-
/// and structure-identical to one with an effectively unbounded cap.
#[test]
fn thread_chunked_and_unchunked_runs_are_identical() {
    let (graph, sources) = {
        let world = small_road_world(77);
        let n = world.graph.num_vertices() as u32;
        let sources: Vec<VertexId> = (0..10u32).map(|i| VertexId((i * 31) % (n / 3))).collect();
        (Arc::new(world.graph), sources)
    };
    let run = |batch_max_msgs: usize| {
        let cfg = SystemConfig {
            batch_max_msgs,
            ..Default::default()
        };
        let parts = HashPartitioner::default().partition(&graph, 4);
        let mut e = qgraph_core::ThreadEngine::with_config(Arc::clone(&graph), parts, cfg);
        let handles: Vec<_> = sources
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let t = sources[(i + 3) % sources.len()];
                e.submit(SsspProgram::new(s, t))
            })
            .collect();
        e.run();
        let outputs: Vec<Option<f32>> = handles
            .iter()
            .map(|h| e.output(h).copied().expect("finished"))
            .collect();
        let structure: Vec<(u32, u64, u64)> = {
            let mut o: Vec<_> = e
                .report()
                .outcomes
                .iter()
                .map(|o| (o.iterations, o.vertex_updates, o.remote_messages))
                .collect();
            o.sort_unstable();
            o
        };
        (outputs, structure)
    };
    let chunked = run(2);
    let unchunked = run(1 << 20);
    assert_eq!(chunked.0, unchunked.0, "outputs identical");
    assert_eq!(
        chunked.1, unchunked.1,
        "iterations/updates/messages identical"
    );
}
