//! Engine edge cases: aggregator-driven termination, submission bursts,
//! queries arriving during repartitioning, degenerate workloads.

use std::sync::Arc;

use qgraph_core::programs::ReachProgram;
use qgraph_core::{Context, QcutConfig, SimEngine, SystemConfig, VertexProgram};
use qgraph_graph::{Topology, VertexId};
use qgraph_integration_tests::{line_graph, small_road_world};
use qgraph_partition::{HashPartitioner, Partitioner, RangePartitioner};
use qgraph_sim::ClusterModel;
use qgraph_workload::{QueryKind, WorkloadConfig, WorkloadGenerator};

/// A program that floods forever unless the aggregator stops it: counts
/// supersteps via the aggregate and terminates at a fixed round.
#[derive(Clone)]
struct CountdownProgram {
    start: VertexId,
    stop_after: u32,
}

impl VertexProgram for CountdownProgram {
    type State = u32;
    type Message = u32;
    type Aggregate = u32;
    type Output = u32;

    fn init_state(&self) -> u32 {
        0
    }
    fn aggregate_identity(&self) -> u32 {
        0
    }
    fn aggregate_combine(&self, a: &mut u32, b: &u32) {
        *a = (*a).max(*b);
    }
    fn initial_messages(&self, _g: &Topology) -> Vec<(VertexId, u32)> {
        vec![(self.start, 1)]
    }
    fn compute(
        &self,
        graph: &Topology,
        v: VertexId,
        state: &mut u32,
        messages: &[u32],
        ctx: &mut Context<'_, u32, u32>,
    ) {
        let round = messages.iter().copied().max().unwrap_or(0);
        *state = (*state).max(round);
        ctx.aggregate(&round);
        // Endless ping to the next vertex (wraps around).
        let next = VertexId((v.0 + 1) % graph.num_vertices() as u32);
        ctx.send(next, round + 1);
    }
    fn should_terminate(&self, agg: &u32) -> bool {
        *agg >= self.stop_after
    }
    fn finalize(&self, _g: &Topology, states: &mut dyn Iterator<Item = (VertexId, u32)>) -> u32 {
        states.map(|(_, s)| s).max().unwrap_or(0)
    }
}

#[test]
fn aggregator_terminates_endless_program() {
    let g = Arc::new(line_graph(8));
    let parts = RangePartitioner.partition(&g, 2);
    let mut e = SimEngine::new(g, ClusterModel::scale_up(2), parts, SystemConfig::default());
    let q = e.submit(CountdownProgram {
        start: VertexId(0),
        stop_after: 5,
    });
    e.run();
    assert_eq!(e.report().outcomes[0].iterations, 5);
    assert_eq!(*e.output(&q).unwrap(), 5);
}

#[test]
fn burst_submission_beyond_parallelism_completes_in_order_slots() {
    let g = Arc::new(line_graph(64));
    let parts = RangePartitioner.partition(&g, 4);
    let cfg = SystemConfig {
        max_parallel_queries: 4,
        ..Default::default()
    };
    let mut e = SimEngine::new(g, ClusterModel::scale_up(4), parts, cfg);
    for i in 0..32u32 {
        e.submit(ReachProgram::bounded(VertexId(i), 3));
    }
    e.run();
    let o = &e.report().outcomes;
    assert_eq!(o.len(), 32);
    // Closed loop: at every submission instant, at most 4 queries are in
    // flight (submitted but not yet completed).
    for probe in o {
        let t = probe.submitted_at;
        let in_flight = o
            .iter()
            .filter(|x| x.submitted_at <= t && x.completed_at > t)
            .count();
        assert!(in_flight <= 4, "parallelism window exceeded: {in_flight}");
    }
}

#[test]
fn queries_submitted_during_repartition_windows_still_answer() {
    // A long adaptive run where many queries overlap global barriers.
    let world = small_road_world(77);
    let graph = Arc::new(world.graph.clone());
    let parts = HashPartitioner::default().partition(&graph, 4);
    let cfg = SystemConfig {
        qcut: Some(QcutConfig {
            ils_budget_secs: 0.0005,
            ..QcutConfig::time_scaled(2000.0)
        }),
        ..Default::default()
    };
    let mut e = SimEngine::new(Arc::clone(&graph), ClusterModel::scale_up(4), parts, cfg);
    let gen = WorkloadGenerator::new(&world);
    let specs = gen.generate(&WorkloadConfig::single(64, false, false, 4));
    let mut handles = Vec::new();
    for s in &specs {
        if let QueryKind::Sssp { source, target } = s.kind {
            handles.push(e.submit(qgraph_algo::SsspProgram::new(source, target)));
        }
    }
    let count = handles.len();
    e.run();
    assert_eq!(e.report().outcomes.len(), count);
    assert!(
        e.report().repartitions.len() >= 2,
        "aggressive config must repartition repeatedly"
    );
    // Spot-check some answers.
    for (i, s) in specs.iter().take(8).enumerate() {
        if let QueryKind::Sssp { source, target } = s.kind {
            let want = qgraph_algo::dijkstra_to(&graph, source, target);
            let got = *e.output(&handles[i]).unwrap();
            match (want, got) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-3),
                (None, None) => {}
                other => panic!("query {i}: {other:?}"),
            }
        }
    }
}

#[test]
fn zero_query_run_terminates_immediately() {
    let g = Arc::new(line_graph(4));
    let parts = RangePartitioner.partition(&g, 2);
    let mut e = SimEngine::new(g, ClusterModel::scale_up(2), parts, SystemConfig::default());
    e.run();
    assert!(e.report().outcomes.is_empty());
    assert_eq!(e.now_secs(), 0.0);
}

#[test]
fn same_source_queries_are_independent() {
    let g = Arc::new(line_graph(16));
    let parts = RangePartitioner.partition(&g, 2);
    let mut e = SimEngine::new(g, ClusterModel::scale_up(2), parts, SystemConfig::default());
    let q1 = e.submit(ReachProgram::bounded(VertexId(0), 2));
    let q2 = e.submit(ReachProgram::bounded(VertexId(0), 5));
    e.run();
    assert_eq!(e.output(&q1).unwrap().len(), 3);
    assert_eq!(e.output(&q2).unwrap().len(), 6);
}

/// `max_parallel_queries: 0` used to diverge: the thread runtime clamped
/// it to one slot while the simulated engine admitted nothing and
/// returned zero outcomes, silently. The shared coordinator core clamps
/// once, so both runtimes run the query (one at a time).
#[test]
fn zero_parallelism_is_clamped_to_one_slot_on_both_runtimes() {
    use qgraph_core::{Engine, EngineBuilder, Runtime};

    fn drive<R: Runtime>(e: &mut Engine<R>) {
        let a = e.submit(ReachProgram::new(VertexId(0)));
        let b = e.submit(ReachProgram::new(VertexId(4)));
        e.run();
        assert_eq!(e.outcomes().len(), 2, "both queries ran");
        assert_eq!(e.output(&a).map(Vec::len), Some(8));
        assert_eq!(e.output(&b).map(Vec::len), Some(4));
        // One slot: the second query is admitted only once the first is done.
        let (first, second) = (&e.outcomes()[0], &e.outcomes()[1]);
        assert!(second.submitted_at >= first.completed_at);
    }

    let cfg = SystemConfig {
        max_parallel_queries: 0,
        ..Default::default()
    };
    let builder = || {
        EngineBuilder::new(line_graph(8))
            .workers(2)
            .partitioner(RangePartitioner)
            .config(cfg.clone())
    };
    drive(&mut builder().build_sim());
    drive(&mut builder().build_threaded());
}
