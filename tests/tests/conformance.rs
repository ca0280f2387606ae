//! Cross-runtime conformance: the *same* mixed workload (SSSP + POI +
//! Reach + BFS) must match the sequential references in
//! `qgraph_algo::reference` on `SimEngine` and `ThreadEngine`, with Q-cut
//! enabled and disabled — four configurations. Adaptive repartitioning is
//! an optimization of *where* state lives; it must never change an
//! answer.
//!
//! Nor may *where a superstep closes*: the thread runtime closes runs of
//! fully local supersteps on the partition's lane (a bounded quantum per
//! dispatch), the simulation closes every superstep in the coordinator.
//! On a domain-partitioned hotspot stream — where most supersteps are
//! local — the two must agree outcome for outcome on the superstep
//! structure, at every pool width, and a mutation epoch plus Q-cut
//! windows landing mid-run must leave the answers equal to the references.

use std::sync::Arc;

use qgraph_algo::{
    connected_component_of, dijkstra_to, k_hop, nearest_tagged, BfsProgram, PoiProgram,
    ReachPointProgram, RoadAnswer, RoadProgram, SsspProgram,
};
use qgraph_core::programs::ReachProgram;
use qgraph_core::{
    Engine, EngineBuilder, EngineReport, MutationBatch, QcutConfig, QueryHandle, QueryId,
    SystemConfig, Topology,
};
use qgraph_graph::{Graph, VertexId};
use qgraph_integration_tests::{fingerprint, small_road_world};
use qgraph_partition::{DomainPartitioner, HashPartitioner, Partitioner};
use qgraph_workload::{assign_tags, QueryKind, WorkloadConfig, WorkloadGenerator};

/// The mixed batch: sources are clustered in one region so live scopes
/// overlap — the workload shape Q-cut exists for.
struct MixedHandles {
    sssp: Vec<QueryHandle<SsspProgram>>,
    poi: Vec<QueryHandle<PoiProgram>>,
    reach: QueryHandle<ReachProgram>,
    bfs: QueryHandle<BfsProgram>,
}

fn tagged_world() -> (Arc<Graph>, Vec<VertexId>) {
    let mut world = small_road_world(57);
    assign_tags(&mut world.graph, 1.0 / 60.0, 5);
    let n = world.graph.num_vertices() as u32;
    // A hotspot band in the first quarter of the id space: overlapping
    // sources keep the scopes intersecting across queries.
    let sources: Vec<VertexId> = (0..12u32).map(|i| VertexId((i * 29) % (n / 4))).collect();
    (Arc::new(world.graph), sources)
}

fn submit_mixed<E: Engine>(engine: &mut E, sources: &[VertexId]) -> MixedHandles {
    let mut sssp = Vec::new();
    let mut poi = Vec::new();
    for (i, &s) in sources.iter().enumerate() {
        let t = sources[(i + 5) % sources.len()];
        sssp.push(engine.submit(SsspProgram::new(s, t)));
        if i % 3 == 0 {
            poi.push(engine.submit(PoiProgram::new(s)));
        }
    }
    let reach = engine.submit(ReachProgram::new(sources[0]));
    let bfs = engine.submit(BfsProgram::new(sources[1], 3));
    MixedHandles {
        sssp,
        poi,
        reach,
        bfs,
    }
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

/// Q-cut configuration for the simulated engine (time constants scaled to
/// its virtual milliseconds).
fn sim_qcut() -> SystemConfig {
    SystemConfig {
        qcut: Some(QcutConfig::time_scaled(2000.0)),
        ..Default::default()
    }
}

/// Q-cut configuration for the thread runtime: the same trigger on the
/// session wall clock, where these runs last milliseconds — no cooldown.
fn thread_qcut() -> SystemConfig {
    SystemConfig {
        qcut: Some(QcutConfig {
            min_repartition_interval_secs: 0.0,
            ..Default::default()
        }),
        ..Default::default()
    }
}

#[test]
fn sim_static_matches_references() {
    let (graph, sources) = tagged_world();
    let mut e = EngineBuilder::new(Arc::clone(&graph))
        .workers(4)
        .partitioner(HashPartitioner::default())
        .build_sim();
    let h = submit_mixed(&mut e, &sources);
    e.run();
    verify_mixed(&e, &graph, &sources, &h);
    assert!(e.report().repartitions.is_empty());
}

#[test]
fn sim_qcut_matches_references() {
    let (graph, sources) = tagged_world();
    let mut e = EngineBuilder::new(Arc::clone(&graph))
        .workers(4)
        .partitioner(HashPartitioner::default())
        .config(sim_qcut())
        .build_sim();
    let h = submit_mixed(&mut e, &sources);
    e.run();
    verify_mixed(&e, &graph, &sources, &h);
}

#[test]
fn thread_static_matches_references() {
    let (graph, sources) = tagged_world();
    let mut e = EngineBuilder::new(Arc::clone(&graph))
        .workers(4)
        .partitioner(HashPartitioner::default())
        .build_threaded();
    let h = submit_mixed(&mut e, &sources);
    e.run();
    verify_mixed(&e, &graph, &sources, &h);
    assert!(e.report().repartitions.is_empty());
}

#[test]
fn thread_qcut_matches_references_and_repartitions() {
    let (graph, sources) = tagged_world();
    let mut e = EngineBuilder::new(Arc::clone(&graph))
        .workers(4)
        .partitioner(HashPartitioner::default())
        .config(thread_qcut())
        .build_threaded();
    let h = submit_mixed(&mut e, &sources);
    e.run();
    verify_mixed(&e, &graph, &sources, &h);

    let report = e.report();
    assert!(
        !report.repartitions.is_empty(),
        "hash partitioning + hotspot mix must trigger at least one repartition"
    );
    for r in &report.repartitions {
        assert!(r.moved_vertices > 0);
        assert!(r.ils.final_cost <= r.ils.initial_cost + 1e-9);
        assert!((0.0..=1.0).contains(&r.locality_before));
        assert!((0.0..=1.0).contains(&r.locality_after));
    }
    // The assignment drifted but still covers the graph exactly.
    assert_eq!(
        e.partitioning().sizes().iter().sum::<usize>(),
        graph.num_vertices()
    );
}

/// Output-lifecycle conformance, simulated engine: `take_output` moves
/// the result out exactly once; every later access through any path sees
/// `None`; a second `take_output` is `None`, not a panic.
#[test]
fn sim_output_lifecycle_take_then_gone() {
    let (graph, sources) = tagged_world();
    let mut e = EngineBuilder::new(Arc::clone(&graph))
        .workers(2)
        .build_sim();
    let q = e.submit(ReachProgram::new(sources[0]));
    e.run();
    assert!(e.output(&q).is_some(), "finished query has an output");
    let owned = e.take_output(&q).expect("first take succeeds");
    assert!(!owned.is_empty());
    assert!(e.output(&q).is_none(), "output after take is None");
    assert!(e.take_output(&q).is_none(), "second take is None");
    assert!(
        Engine::output_envelope(&e, q.id()).is_none(),
        "erased access agrees"
    );
}

/// Output-lifecycle conformance, thread runtime: identical pinned
/// behavior to the simulated engine.
#[test]
fn thread_output_lifecycle_take_then_gone() {
    let (graph, sources) = tagged_world();
    let mut e = EngineBuilder::new(Arc::clone(&graph))
        .workers(2)
        .build_threaded();
    let q = e.submit(ReachProgram::new(sources[0]));
    e.run();
    assert!(e.output(&q).is_some(), "finished query has an output");
    let owned = e.take_output(&q).expect("first take succeeds");
    assert!(!owned.is_empty());
    assert!(e.output(&q).is_none(), "output after take is None");
    assert!(e.take_output(&q).is_none(), "second take is None");
    assert!(
        Engine::output_envelope(&e, q.id()).is_none(),
        "erased access agrees"
    );
}

/// Dropping a `QueryHandle` before completion is harmless on both
/// runtimes: handles are detached receipts, the query still runs to
/// completion, its outcome is reported, and the output stays reachable by
/// raw id through the typed lookup.
#[test]
fn dropped_handle_before_completion_is_harmless_on_both_runtimes() {
    let (graph, sources) = tagged_world();

    let mut sim = EngineBuilder::new(Arc::clone(&graph))
        .workers(2)
        .build_sim();
    let kept = sim.submit(BfsProgram::new(sources[0], 2));
    let dropped_id = {
        let h = sim.submit(ReachProgram::new(sources[1]));
        h.id()
    }; // handle dropped here, query still queued
    sim.run();
    assert!(sim.output(&kept).is_some());
    assert_eq!(sim.report().outcomes.len(), 2, "dropped handle still ran");
    assert!(
        sim.output_as::<ReachProgram>(dropped_id).is_some(),
        "output reachable by raw id"
    );

    let mut thr = EngineBuilder::new(Arc::clone(&graph))
        .workers(2)
        .build_threaded();
    let kept = thr.submit(BfsProgram::new(sources[0], 2));
    let dropped_id = {
        let h = thr.submit(ReachProgram::new(sources[1]));
        h.id()
    };
    thr.run();
    assert!(thr.output(&kept).is_some());
    assert_eq!(thr.report().outcomes.len(), 2, "dropped handle still ran");
    assert!(
        thr.output_as::<ReachProgram>(dropped_id).is_some(),
        "output reachable by raw id"
    );
}

/// The acceptance comparison: the adaptive thread runtime on a repeating
/// hotspot must end with locality no worse than the static-partition run
/// of the same workload, and each migration must not lower the live
/// scopes' partition-level locality.
#[test]
fn thread_qcut_locality_no_worse_than_static() {
    let (graph, _) = tagged_world();
    // Eight distinct source→target pairs inside the hotspot, each
    // repeated four times: scopes overlap heavily, so gathering them is
    // pure win for Q-cut.
    let pairs: Vec<(VertexId, VertexId)> = (0..32u32)
        .map(|i| (VertexId(i % 8), VertexId(300 + (i % 8))))
        .collect();

    let run = |cfg: SystemConfig| {
        let parts = HashPartitioner::default().partition(&graph, 4);
        let mut e = EngineBuilder::new(Arc::clone(&graph))
            .partitioning(parts)
            .config(cfg)
            .build_threaded();
        let handles: Vec<_> = pairs
            .iter()
            .map(|&(s, t)| e.submit(SsspProgram::new(s, t)))
            .collect();
        e.run();
        for (i, (h, &(s, t))) in handles.iter().zip(&pairs).enumerate() {
            let want = dijkstra_to(&graph, s, t);
            let got = *e.output(h).expect("finished");
            match (want, got) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-3, "query {i}: {a} vs {b}"),
                (None, None) => {}
                other => panic!("query {i}: {other:?}"),
            }
        }
        (e.report().mean_locality(), e.report().repartitions.clone())
    };

    let (static_locality, static_events) = run(SystemConfig::default());
    let (adaptive_locality, events) = run(thread_qcut());

    assert!(static_events.is_empty());
    assert!(!events.is_empty(), "the hotspot must trigger Q-cut");
    for r in &events {
        assert!((0.0..=1.0).contains(&r.locality_before));
        assert!((0.0..=1.0).contains(&r.locality_after));
        assert!(r.ils.final_cost <= r.ils.initial_cost + 1e-9);
    }
    // At least one migration must have raised the partition-level scope
    // locality (per-event monotonicity is not guaranteed — a move can
    // serve a retained overlapping scope at a live scope's expense — but
    // a gathering run over a repeating hotspot must show improvement).
    assert!(
        events
            .iter()
            .any(|r| r.locality_after > r.locality_before + 1e-9),
        "no migration improved scope locality: {:?}",
        events
            .iter()
            .map(|r| (r.locality_before, r.locality_after))
            .collect::<Vec<_>>()
    );
    // Thread scheduling decides exactly which superstep ends repartition, so
    // the behavioural mean is noisy run to run; the tolerance absorbs that
    // noise without weakening the acceptance claim (observed adaptive
    // locality is consistently a multiple of the near-zero static value).
    assert!(
        adaptive_locality >= static_locality - 0.02,
        "adaptive locality {adaptive_locality:.3} worse than static {static_locality:.3}"
    );
}

// ---------------------------------------------------------------------
// Local supersteps closed on the lane
// ---------------------------------------------------------------------

/// One query of the local stream.
#[derive(Clone, Copy)]
enum Local {
    /// `RoadProgram::sssp`: a sticky bound that prunes, never terminates.
    Sssp(VertexId, VertexId),
    /// `RoadProgram::poi`: the same kind of bound, fed by tagged vertices.
    Poi(VertexId),
    /// `ReachPointProgram`: a sticky flag that terminates the query.
    Reach(VertexId, VertexId),
}

/// Intra-urban hotspot shortest paths and nearest-POI searches on a
/// tagged four-city map, a few inter-urban paths that cross partitions,
/// every fourth path also asked as a reachability point query.
fn local_world() -> (Arc<Graph>, Vec<Local>) {
    let mut world = small_road_world(57);
    assign_tags(&mut world.graph, 1.0 / 60.0, 5);
    let gen = WorkloadGenerator::new(&world);
    let mut stream = Vec::new();
    let paths = gen.generate(&WorkloadConfig::single(96, false, false, 3));
    let searches = gen.generate(&WorkloadConfig::single(24, true, false, 4));
    let crossing = gen.generate(&WorkloadConfig::single(2, false, true, 5));
    for (i, spec) in paths.iter().chain(&searches).chain(&crossing).enumerate() {
        match spec.kind {
            QueryKind::Sssp { source, target } => {
                stream.push(Local::Sssp(source, target));
                if i % 4 == 0 {
                    stream.push(Local::Reach(source, target));
                }
            }
            QueryKind::Poi { source } => stream.push(Local::Poi(source)),
        }
    }
    (Arc::new(world.graph), stream)
}

enum LocalHandle {
    Road(QueryHandle<RoadProgram>),
    Reach(QueryHandle<ReachPointProgram>),
}

fn submit_local<E: Engine>(e: &mut E, stream: &[Local]) -> Vec<LocalHandle> {
    let submit = |q: &Local| match *q {
        Local::Sssp(s, t) => LocalHandle::Road(e.submit(RoadProgram::sssp(s, t))),
        Local::Poi(s) => LocalHandle::Road(e.submit(RoadProgram::poi(s))),
        Local::Reach(s, t) => LocalHandle::Reach(e.submit(ReachPointProgram::new(s, t))),
    };
    stream.iter().map(submit).collect()
}

/// What a query answered, comparable across engines.
#[derive(Debug, PartialEq)]
enum LocalAnswer {
    Road(RoadAnswer),
    Reach(bool),
}

fn answers<E: Engine>(e: &E, handles: &[LocalHandle]) -> Vec<(QueryId, LocalAnswer)> {
    let answer = |h: &LocalHandle| match h {
        LocalHandle::Road(h) => (
            h.id(),
            LocalAnswer::Road(*e.output(h).expect("road query finished")),
        ),
        LocalHandle::Reach(h) => (
            h.id(),
            LocalAnswer::Reach(*e.output(h).expect("reach query finished")),
        ),
    };
    handles.iter().map(answer).collect()
}

/// Shortest-path lengths agree to the references' tolerance.
fn assert_close(want: Option<f32>, got: Option<f32>, ctx: &str) {
    match (want, got) {
        (Some(a), Some(b)) => assert!((a - b).abs() < 1e-3, "{ctx}: {a} vs {b}"),
        (None, None) => {}
        other => panic!("{ctx}: {other:?}"),
    }
}

#[test]
fn supersteps_closed_on_the_lane_match_the_simulation_outcome_for_outcome() {
    let (graph, stream) = local_world();
    let k = 4;
    let parts = || DomainPartitioner.partition(&graph, k);

    let mut sim = EngineBuilder::new(Arc::clone(&graph))
        .partitioning(parts())
        .build_sim();
    let sim_handles = submit_local(&mut sim, &stream);
    sim.run();
    let want_answers = answers(&sim, &sim_handles);
    let want = fingerprint(sim.report());
    let outcomes = &sim.report().outcomes;
    let supersteps: u64 = outcomes.iter().map(|o| u64::from(o.iterations)).sum();
    let local: u64 = outcomes.iter().map(|o| u64::from(o.local_iterations)).sum();
    let tasks: u64 = outcomes.iter().map(|o| o.tasks).sum();
    assert!(
        local * 5 > supersteps * 4,
        "the stream must be mostly local: {local} of {supersteps} supersteps"
    );
    // The simulation reports every per-(query, partition) execution.
    assert_eq!(sim.report().activity.len() as u64, tasks);

    for width in [1, 2, k] {
        let mut e = EngineBuilder::new(Arc::clone(&graph))
            .partitioning(parts())
            .pool_threads(width)
            .build_threaded();
        let handles = submit_local(&mut e, &stream);
        e.run();
        assert_eq!(answers(&e, &handles), want_answers, "width {width}");
        let report = e.shutdown();
        assert_eq!(fingerprint(report), want, "width {width}");
        assert_eq!(report.pool.tasks, tasks, "width {width}: one per execution");
        // A report covers a whole chain: every execution it does not
        // report on its own was closed on the lane — most local supersteps
        // were, for the same vertex updates.
        let closed_on_lane = tasks - report.activity.len() as u64;
        assert!(
            closed_on_lane * 2 > local,
            "width {width}: {closed_on_lane} of {local} local supersteps closed on the lane"
        );
        let executed = |r: &EngineReport| -> u64 { r.activity.iter().map(|s| s.executed).sum() };
        assert_eq!(executed(report), executed(sim.report()), "width {width}");
    }
}

/// The stream again, with a mutation epoch and short-cooldown Q-cut
/// windows landing while chains are running: parked chains resume against
/// the new topology and layout, and answers equal the references.
#[test]
fn chains_survive_a_mutation_epoch_and_qcut_windows_mid_run() {
    let (graph, stream) = local_world();
    // Shortcuts between the endpoints of the first paths: epoch 1 answers
    // differ from epoch 0's.
    let mut batch = MutationBatch::new();
    for q in stream.iter().take(12) {
        if let Local::Sssp(s, t) = *q {
            batch.add_edge(s.0, t.0, 0.5);
        }
    }
    let mut evolved = Topology::new(Arc::clone(&graph));
    evolved.apply(&batch);
    let epochs = [graph.as_ref().clone(), evolved.materialize()];

    let cfg = SystemConfig {
        qcut: Some(QcutConfig {
            // Always under Φ, a window every millisecond at most.
            locality_threshold: 1.0,
            min_repartition_interval_secs: 1e-3,
            ..Default::default()
        }),
        ..Default::default()
    };
    for domain in [true, false] {
        let parts = if domain {
            DomainPartitioner.partition(&graph, 4)
        } else {
            HashPartitioner::default().partition(&graph, 4)
        };
        let mut e = EngineBuilder::new(Arc::clone(&graph))
            .partitioning(parts)
            .config(cfg.clone())
            .build_threaded();
        // A third of the stream settles in epoch 0; the batch lands behind
        // the next third's submissions, ahead of the last third's.
        let (first, rest) = stream.split_at(stream.len() / 3);
        let (second, third) = rest.split_at(rest.len() / 2);
        let mut handles = submit_local(&mut e, first);
        e.run();
        handles.extend(submit_local(&mut e, second));
        e.mutate(batch.clone());
        handles.extend(submit_local(&mut e, third));
        e.run();
        let got = answers(&e, &handles);
        let report = e.shutdown();
        assert_eq!(report.mutations.len(), 1, "domain {domain}");
        if !domain {
            assert!(
                !report.repartitions.is_empty(),
                "hash layout must repartition"
            );
        }
        let mut verified = [0usize; 2];
        for ((q, answer), spec) in got.iter().zip(&stream) {
            let outcome = report.outcomes.iter().find(|o| o.id == *q);
            let outcome = outcome.expect("every submission has an outcome");
            if !outcome.single_epoch() {
                continue;
            }
            let epoch = outcome.first_epoch as usize;
            let reference = &epochs[epoch];
            verified[epoch] += 1;
            let ctx = format!("domain {domain} epoch {epoch} {q:?}");
            match (*spec, answer) {
                (Local::Sssp(s, t), LocalAnswer::Road(RoadAnswer::Distance(got))) => {
                    assert_close(dijkstra_to(reference, s, t), *got, &ctx);
                }
                (Local::Poi(s), LocalAnswer::Road(RoadAnswer::Nearest(got))) => {
                    let want = nearest_tagged(reference, s).map(|(_, d)| d);
                    assert_close(want, got.map(|(_, d)| d), &ctx);
                }
                (Local::Reach(s, t), LocalAnswer::Reach(got)) => {
                    assert_eq!(*got, dijkstra_to(reference, s, t).is_some(), "{ctx}");
                }
                _ => panic!("{ctx}: answer of the wrong kind"),
            }
        }
        assert!(
            verified[0] > 0 && verified[1] > 0,
            "domain {domain}: both epochs verified, got {verified:?}"
        );
    }
}
