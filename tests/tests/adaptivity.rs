//! End-to-end behaviour of the adaptive Q-cut loop: repartitioning must
//! preserve answers, improve locality on hotspot workloads, and keep the
//! engine deterministic.

use std::sync::Arc;

use qgraph_algo::{dijkstra_to, SsspProgram};
use qgraph_core::{QcutConfig, SimEngine, SystemConfig, ThreadEngine};
use qgraph_integration_tests::small_road_world;
use qgraph_partition::{HashPartitioner, Partitioner};
use qgraph_sim::ClusterModel;
use qgraph_workload::{QueryKind, WorkloadConfig, WorkloadGenerator};

fn adaptive_config() -> SystemConfig {
    SystemConfig {
        qcut: Some(QcutConfig::time_scaled(2000.0)),
        ..Default::default()
    }
}

fn run_adaptive(
    seed: u64,
    queries: usize,
) -> (
    Vec<Option<f32>>,
    qgraph_core::EngineReport,
    Vec<Option<f32>>,
) {
    let world = small_road_world(seed);
    let graph = Arc::new(world.graph.clone());
    let parts = HashPartitioner::default().partition(&graph, 4);
    let mut engine = SimEngine::new(
        Arc::clone(&graph),
        ClusterModel::scale_up(4),
        parts,
        adaptive_config(),
    );
    let gen = WorkloadGenerator::new(&world);
    let specs = gen.generate(&WorkloadConfig::single(queries, false, false, seed));
    let mut expected = Vec::new();
    let mut handles = Vec::new();
    for s in &specs {
        if let QueryKind::Sssp { source, target } = s.kind {
            handles.push(engine.submit(SsspProgram::new(source, target)));
            expected.push(dijkstra_to(&graph, source, target));
        }
    }
    let report = engine.run().clone();
    let got = handles.iter().map(|h| *engine.output(h).unwrap()).collect();
    (got, report, expected)
}

#[test]
fn repartitioning_preserves_query_answers() {
    let (got, report, expected) = run_adaptive(11, 96);
    assert!(
        !report.repartitions.is_empty(),
        "hotspot workload on hash partitioning must trigger Q-cut"
    );
    for (i, (g, w)) in got.iter().zip(&expected).enumerate() {
        match (g, w) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-3, "query {i}: {a} vs {b}"),
            (None, None) => {}
            other => panic!("query {i}: {other:?}"),
        }
    }
}

#[test]
fn qcut_improves_locality_over_the_run() {
    let (_, report, _) = run_adaptive(13, 128);
    let o = &report.outcomes;
    let third = o.len() / 3;
    let early: f64 = o[..third].iter().map(|x| x.locality()).sum::<f64>() / third as f64;
    let late: f64 = o[o.len() - third..]
        .iter()
        .map(|x| x.locality())
        .sum::<f64>()
        / third as f64;
    assert!(
        late > early + 0.15,
        "locality must improve: early {early:.3} late {late:.3}"
    );
}

#[test]
fn adaptive_runs_are_deterministic() {
    let (a_out, a_rep, _) = run_adaptive(17, 64);
    let (b_out, b_rep, _) = run_adaptive(17, 64);
    assert_eq!(a_out, b_out);
    assert_eq!(a_rep.finished_at_secs, b_rep.finished_at_secs);
    assert_eq!(a_rep.repartitions.len(), b_rep.repartitions.len());
    let lat_a: Vec<u64> = a_rep
        .outcomes
        .iter()
        .map(|o| o.completed_at.as_nanos())
        .collect();
    let lat_b: Vec<u64> = b_rep
        .outcomes
        .iter()
        .map(|o| o.completed_at.as_nanos())
        .collect();
    assert_eq!(lat_a, lat_b, "event timing must replay bit-identically");
}

#[test]
fn moved_vertex_totals_stay_consistent() {
    let (_, report, _) = run_adaptive(19, 96);
    let world = small_road_world(19);
    for r in &report.repartitions {
        assert!(r.moved_vertices <= world.graph.num_vertices());
        assert!(r.barrier_duration >= 0.0);
        assert!(r.ils.final_cost <= r.ils.initial_cost + 1e-9);
    }
}

/// Repartition-timing stress, simulated runtime: a narrow closed loop
/// keeps the pending queue full, so query *dispatches* race the STOP
/// barriers — deferred control messages must drain before any migration
/// and resume against the new layout afterwards (the seeded scheduler
/// replays the same interleaving every run). No deadlock, no stale-owner
/// delivery: every answer must still match Dijkstra.
#[test]
fn queries_dispatched_while_barrier_pending_sim() {
    let world = small_road_world(29);
    let graph = Arc::new(world.graph.clone());
    let parts = HashPartitioner::default().partition(&graph, 4);
    let cfg = SystemConfig {
        qcut: Some(QcutConfig {
            // Trigger at every opportunity with a near-instant ILS budget:
            // barriers fire while dispatches from completions are still in
            // flight.
            locality_threshold: 1.0,
            min_repartition_interval_secs: 0.0,
            ils_budget_secs: 1e-6,
            ils_max_rounds: 6,
            ..QcutConfig::time_scaled(2000.0)
        }),
        max_parallel_queries: 3,
        ..Default::default()
    };
    let mut engine = SimEngine::new(Arc::clone(&graph), ClusterModel::scale_up(4), parts, cfg);
    let gen = WorkloadGenerator::new(&world);
    let specs = gen.generate(&WorkloadConfig::single(48, false, false, 29));
    let mut jobs = Vec::new();
    for s in &specs {
        if let QueryKind::Sssp { source, target } = s.kind {
            jobs.push((
                source,
                target,
                engine.submit(SsspProgram::new(source, target)),
            ));
        }
    }
    engine.run();
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
        let got = *engine.output(h).unwrap();
        match (want, got) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-3, "query {i}: {a} vs {b}"),
            (None, None) => {}
            other => panic!("query {i}: {other:?}"),
        }
    }
}

/// Repartition-timing stress, real threads: with the trigger firing at
/// every superstep end and a narrow closed loop, admissions land
/// while a barrier is pending and parked queries resume against migrated
/// inboxes. The run must terminate (no deadlock) and every answer must
/// match Dijkstra (no stale-owner message delivery).
#[test]
fn queries_admitted_while_barrier_pending_threaded() {
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
    let mut engine = ThreadEngine::with_config(Arc::clone(&graph), parts, cfg);
    let gen = WorkloadGenerator::new(&world);
    let specs = gen.generate(&WorkloadConfig::single(16, false, false, 31));
    let mut jobs = Vec::new();
    for s in &specs {
        if let QueryKind::Sssp { source, target } = s.kind {
            jobs.push((
                source,
                target,
                engine.submit(SsspProgram::new(source, target)),
            ));
        }
    }
    engine.run();
    let report = engine.report();
    assert_eq!(report.outcomes.len(), jobs.len(), "every query finished");
    assert!(
        !report.repartitions.is_empty(),
        "the always-on trigger must repartition"
    );
    for r in &report.repartitions {
        assert!(r.moved_vertices > 0);
        assert!(r.barrier_duration >= 0.0);
    }
    assert_eq!(
        engine.partitioning().sizes().iter().sum::<usize>(),
        graph.num_vertices()
    );
    for (i, (s, t, h)) in jobs.iter().enumerate() {
        let want = dijkstra_to(&graph, *s, *t);
        let got = *engine.output(h).unwrap();
        match (want, got) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-3, "query {i}: {a} vs {b}"),
            (None, None) => {}
            other => panic!("query {i}: {other:?}"),
        }
    }
}

#[test]
fn static_config_never_repartitions() {
    let world = small_road_world(23);
    let graph = Arc::new(world.graph.clone());
    let parts = HashPartitioner::default().partition(&graph, 4);
    let before = parts.clone();
    let mut engine = SimEngine::new(
        Arc::clone(&graph),
        ClusterModel::scale_up(4),
        parts,
        SystemConfig::default(),
    );
    let gen = WorkloadGenerator::new(&world);
    for s in gen.generate(&WorkloadConfig::single(32, false, false, 1)) {
        if let QueryKind::Sssp { source, target } = s.kind {
            engine.submit(SsspProgram::new(source, target));
        }
    }
    engine.run();
    assert!(engine.report().repartitions.is_empty());
    assert_eq!(engine.partitioning(), &before, "assignment untouched");
}

/// Adaptivity on real threads: the same hotspot stream from the same
/// hash partitioning, the trigger on the session wall clock with a
/// cooldown sized to a run of milliseconds. Locality, not wall time, is
/// what must move — late finishers run on the layout the early ones
/// paid for — and every answer still matches Dijkstra.
#[test]
fn thread_qcut_improves_locality_over_the_run() {
    let world = small_road_world(13);
    let graph = Arc::new(world.graph.clone());
    let parts = HashPartitioner::default().partition(&graph, 4);
    let cfg = SystemConfig {
        qcut: Some(QcutConfig {
            min_repartition_interval_secs: 1e-3,
            ..Default::default()
        }),
        ..Default::default()
    };
    let mut engine = ThreadEngine::with_config(Arc::clone(&graph), parts, cfg);
    let gen = WorkloadGenerator::new(&world);
    let mut jobs = Vec::new();
    for s in gen.generate(&WorkloadConfig::single(128, false, false, 13)) {
        if let QueryKind::Sssp { source, target } = s.kind {
            let h = engine.submit(SsspProgram::new(source, target));
            jobs.push((source, target, h));
        }
    }
    engine.run();
    let report = engine.report();
    assert_eq!(report.outcomes.len(), jobs.len(), "every query finished");
    assert!(!report.repartitions.is_empty(), "locality ~0 under hash");
    // Outcomes are recorded in completion order.
    let quartile = report.outcomes.len() / 4;
    let mean = |os: &[qgraph_core::QueryOutcome]| {
        os.iter().map(|o| o.locality()).sum::<f64>() / os.len() as f64
    };
    let early = mean(&report.outcomes[..quartile]);
    let late = mean(&report.outcomes[report.outcomes.len() - quartile..]);
    // Measured, debug and release: ~0.16 against ~0.70.
    assert!(
        late > early + 0.25,
        "locality must improve: first quartile {early:.3}, last {late:.3}"
    );
    for (i, (s, t, h)) in jobs.iter().enumerate() {
        let want = dijkstra_to(&graph, *s, *t);
        let got = *engine.output(h).unwrap();
        match (want, got) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-3, "query {i}: {a} vs {b}"),
            (None, None) => {}
            other => panic!("query {i}: {other:?}"),
        }
    }
}
