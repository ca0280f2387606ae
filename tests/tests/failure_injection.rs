//! Failure/perturbation injection: the system must stay *correct* under a
//! straggling worker (inflated compute costs), an overloaded network, or a
//! degenerate cluster layout — only latency may suffer — and a vertex
//! program that panics must surface, not hang the engine.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use qgraph_algo::{dijkstra_to, SsspProgram};
use qgraph_core::{Context, SimEngine, SystemConfig, ThreadEngine, Topology, VertexProgram};
use qgraph_graph::VertexId;
use qgraph_integration_tests::{line_graph, small_road_world};
use qgraph_partition::{HashPartitioner, Partitioner, RangePartitioner};
use qgraph_sim::{ClusterModel, ComputeModel, NetworkModel};
use qgraph_workload::{QueryKind, WorkloadConfig, WorkloadGenerator};

fn run_with_cluster(cluster: ClusterModel, seed: u64) -> (Vec<Option<f32>>, Vec<Option<f32>>, f64) {
    let world = small_road_world(seed);
    let graph = Arc::new(world.graph.clone());
    let k = cluster.num_workers;
    let parts = HashPartitioner::default().partition(&graph, k);
    let mut engine = SimEngine::new(Arc::clone(&graph), cluster, parts, SystemConfig::default());
    let gen = WorkloadGenerator::new(&world);
    let specs = gen.generate(&WorkloadConfig::single(16, false, false, seed));
    let mut expected = Vec::new();
    let mut handles = Vec::new();
    for s in &specs {
        if let QueryKind::Sssp { source, target } = s.kind {
            handles.push(engine.submit(SsspProgram::new(source, target)));
            expected.push(dijkstra_to(&graph, source, target));
        }
    }
    let report = engine.run();
    let total = report.total_latency();
    let got = handles.iter().map(|h| *engine.output(h).unwrap()).collect();
    (got, expected, total)
}

fn assert_answers(got: &[Option<f32>], want: &[Option<f32>]) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        match (g, w) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-3, "query {i}: {a} vs {b}"),
            (None, None) => {}
            other => panic!("query {i}: {other:?}"),
        }
    }
}

#[test]
fn slow_compute_worker_only_slows_the_system() {
    let baseline = ClusterModel::scale_up(4);
    let (got_b, want_b, total_b) = run_with_cluster(baseline, 31);
    assert_answers(&got_b, &want_b);

    // A 20x slower compute model everywhere (worst-case uniform straggler).
    let mut slow = ClusterModel::scale_up(4);
    slow.compute = ComputeModel {
        vertex_update_ns: slow.compute.vertex_update_ns * 20,
        message_apply_ns: slow.compute.message_apply_ns * 20,
        superstep_overhead_ns: slow.compute.superstep_overhead_ns * 20,
        ..slow.compute
    };
    let (got_s, want_s, total_s) = run_with_cluster(slow, 31);
    assert_answers(&got_s, &want_s);
    assert!(total_s > total_b, "straggling compute must cost latency");
}

#[test]
fn congested_network_only_slows_the_system() {
    let (got_b, want_b, total_b) = run_with_cluster(ClusterModel::scale_up(4), 37);
    assert_answers(&got_b, &want_b);

    let mut congested = ClusterModel::scale_up(4);
    congested.network = NetworkModel {
        remote_latency_ns: congested.network.remote_latency_ns * 50,
        loopback_latency_ns: congested.network.loopback_latency_ns * 50,
        remote_bandwidth_bps: congested.network.remote_bandwidth_bps / 100,
        loopback_bandwidth_bps: congested.network.loopback_bandwidth_bps / 100,
        ..congested.network
    };
    let (got_c, want_c, total_c) = run_with_cluster(congested, 37);
    assert_answers(&got_c, &want_c);
    assert!(total_c > total_b, "congestion must cost latency");
}

#[test]
fn single_worker_cluster_is_a_valid_degenerate_case() {
    let (got, want, _) = run_with_cluster(ClusterModel::scale_up(1), 41);
    assert_answers(&got, &want);
}

/// A flood whose vertex function panics at its third vertex.
struct Boom;

impl VertexProgram for Boom {
    type State = ();
    type Message = ();
    type Aggregate = ();
    type Output = ();
    fn init_state(&self) {}
    fn aggregate_identity(&self) {}
    fn aggregate_combine(&self, _: &mut (), _: &()) {}
    fn initial_messages(&self, _: &Topology) -> Vec<(VertexId, ())> {
        vec![(VertexId(0), ())]
    }
    fn compute(
        &self,
        _: &Topology,
        v: VertexId,
        _: &mut (),
        _: &[()],
        ctx: &mut Context<'_, (), ()>,
    ) {
        assert!(v.0 < 2, "boom: the vertex program failed at {v:?}");
        ctx.send(VertexId(v.0 + 1), ());
    }
    fn finalize(&self, _: &Topology, _: &mut dyn Iterator<Item = (VertexId, ())>) {}
}

/// The lane that runs the panicking Step owns the query's progress, so
/// nothing else would answer for it: the coordinator must hear of the
/// panic and `drain` must re-raise it. The engine runs on a helper thread
/// so that a hang fails the test instead of stalling the suite.
#[test]
fn a_panicking_vertex_program_surfaces_from_drain() {
    let (done, outcome) = channel();
    std::thread::spawn(move || {
        let ran = std::panic::catch_unwind(|| {
            let g = Arc::new(line_graph(8));
            let parts = RangePartitioner.partition(&g, 2);
            let mut e = ThreadEngine::with_config(Arc::clone(&g), parts, SystemConfig::default());
            e.submit(Boom);
            e.run();
        });
        let message = ran.err().map(|payload| match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map_or_else(String::new, |m| m.to_string()),
        });
        let _ = done.send(message);
    });
    let message = outcome
        .recv_timeout(Duration::from_secs(30))
        .expect("drain() neither returned nor panicked within 30 s");
    let message = message.expect("drain() returned although the vertex program panicked");
    assert!(message.contains("boom"), "surfaced: {message}");
}

#[test]
fn scale_out_cluster_matches_scale_up_answers() {
    let (got_up, want, _) = run_with_cluster(ClusterModel::scale_up(4), 43);
    let (got_out, _, _) = run_with_cluster(ClusterModel::c1(4), 43);
    assert_answers(&got_up, &want);
    assert_eq!(got_up, got_out, "topology must not change answers");
}
