//! Heterogeneous multi-query execution: one engine instance — simulated
//! *and* threaded, driven through the shared `Engine` front — runs
//! reachability, SSSP, POI, and BFS programs concurrently in a single
//! `run`, and every typed output must match the sequential reference
//! algorithms.

use std::sync::Arc;

use qgraph_algo::{
    connected_component_of, dijkstra_to, k_hop, nearest_tagged, BfsProgram, PoiProgram, SsspProgram,
};
use qgraph_core::programs::ReachProgram;
use qgraph_core::{Engine, EngineBuilder, QueryHandle, Runtime};
use qgraph_graph::{Graph, VertexId};
use qgraph_integration_tests::small_road_world;
use qgraph_partition::{HashPartitioner, Partitioner};
use qgraph_sim::ClusterModel;
use qgraph_workload::assign_tags;

/// One mixed batch: the handles keep each program's output type.
struct MixedHandles {
    reach: QueryHandle<ReachProgram>,
    sssp: Vec<QueryHandle<SsspProgram>>,
    poi: Vec<QueryHandle<PoiProgram>>,
    bfs: QueryHandle<BfsProgram>,
}

/// Submit the same heterogeneous batch to any engine — written once
/// against the `Engine` front, used for both runtimes.
fn submit_mixed<R: Runtime>(engine: &mut Engine<R>, sources: &[VertexId]) -> MixedHandles {
    let reach = engine.submit(ReachProgram::new(sources[0]));
    let mut sssp = Vec::new();
    let mut poi = Vec::new();
    for (i, &s) in sources.iter().enumerate() {
        let t = sources[(i + 1) % sources.len()];
        sssp.push(engine.submit(SsspProgram::new(s, t)));
        poi.push(engine.submit(PoiProgram::new(s)));
    }
    let bfs = engine.submit(BfsProgram::new(sources[1], 2));
    MixedHandles {
        reach,
        sssp,
        poi,
        bfs,
    }
}

/// Check every typed output against the sequential references.
fn verify_mixed<R: Runtime>(
    engine: &Engine<R>,
    graph: &Graph,
    sources: &[VertexId],
    h: &MixedHandles,
) {
    // Reachability == connected component (the road network is undirected).
    let mut want_reach = connected_component_of(graph, sources[0]);
    want_reach.sort_unstable();
    let got_reach = engine.output(&h.reach).expect("reach finished");
    assert_eq!(got_reach, &want_reach, "reach disagrees with reference");

    for (i, (&s, hs)) in sources.iter().zip(&h.sssp).enumerate() {
        let t = sources[(i + 1) % sources.len()];
        let want = dijkstra_to(graph, s, t);
        let got = *engine.output(hs).expect("sssp finished");
        match (want, got) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-3, "sssp {i}: {a} vs {b}"),
            (None, None) => {}
            other => panic!("sssp {i}: {other:?}"),
        }
    }

    for (i, (&s, hp)) in sources.iter().zip(&h.poi).enumerate() {
        let want = nearest_tagged(graph, s);
        let got = *engine.output(hp).expect("poi finished");
        match (want, got) {
            (Some((_, wd)), Some((_, gd))) => {
                // Distances must agree; vertex may differ only on exact ties.
                assert!((wd - gd).abs() < 1e-3, "poi {i}: {wd} vs {gd}");
            }
            (None, None) => {}
            other => panic!("poi {i}: {other:?}"),
        }
    }

    let mut want_bfs = k_hop(graph, sources[1], 2);
    want_bfs.sort_unstable();
    let mut got_bfs = engine.output(&h.bfs).expect("bfs finished").clone();
    got_bfs.sort_unstable();
    assert_eq!(got_bfs, want_bfs, "bfs disagrees with reference");
}

fn tagged_world() -> (Arc<Graph>, Vec<VertexId>) {
    let mut world = small_road_world(91);
    assign_tags(&mut world.graph, 1.0 / 60.0, 5);
    let n = world.graph.num_vertices() as u32;
    let sources: Vec<VertexId> = (0..4u32).map(|i| VertexId(i * (n / 5) + 3)).collect();
    (Arc::new(world.graph), sources)
}

#[test]
fn sim_engine_runs_mixed_program_types_in_one_run() {
    let (graph, sources) = tagged_world();
    let mut engine = EngineBuilder::new(Arc::clone(&graph))
        .cluster(ClusterModel::scale_up(4))
        .partitioner(HashPartitioner::default())
        .build_sim();
    let handles = submit_mixed(&mut engine, &sources);
    engine.run();
    // 1 reach + 4 sssp + 4 poi + 1 bfs, all in one run.
    assert_eq!(engine.outcomes().len(), 10);
    verify_mixed(&engine, &graph, &sources, &handles);

    // The per-program report keeps the mix legible (rows appear in
    // completion order, so compare as a set).
    let summaries = engine.report().per_program();
    let mut kinds: Vec<&str> = summaries.iter().map(|s| s.program).collect();
    kinds.sort_unstable();
    assert_eq!(kinds, vec!["bfs", "poi", "reach", "sssp"]);
    let sssp = summaries.iter().find(|s| s.program == "sssp").unwrap();
    assert_eq!(sssp.queries, 4);
    assert_eq!(engine.report().program_table().num_rows(), 4);
}

#[test]
fn thread_engine_runs_mixed_program_types_in_one_run() {
    let (graph, sources) = tagged_world();
    let parts = HashPartitioner::default().partition(&graph, 4);
    let mut engine = EngineBuilder::new(Arc::clone(&graph))
        .partitioning(parts)
        .build_threaded();
    let handles = submit_mixed(&mut engine, &sources);
    engine.run();
    assert_eq!(engine.outcomes().len(), 10);
    verify_mixed(&engine, &graph, &sources, &handles);
}

#[test]
fn both_runtimes_agree_on_the_mixed_batch() {
    let (graph, sources) = tagged_world();
    let parts = HashPartitioner::default().partition(&graph, 3);

    let mut sim = EngineBuilder::new(Arc::clone(&graph))
        .partitioning(parts.clone())
        .build_sim();
    let sim_handles = submit_mixed(&mut sim, &sources);
    sim.run();

    let mut threaded = EngineBuilder::new(Arc::clone(&graph))
        .partitioning(parts)
        .build_threaded();
    let thread_handles = submit_mixed(&mut threaded, &sources);
    threaded.run();

    assert_eq!(
        sim.output(&sim_handles.reach),
        threaded.output(&thread_handles.reach)
    );
    for (a, b) in sim_handles.sssp.iter().zip(&thread_handles.sssp) {
        assert_eq!(sim.output(a), threaded.output(b));
    }
    for (a, b) in sim_handles.poi.iter().zip(&thread_handles.poi) {
        assert_eq!(sim.output(a), threaded.output(b));
    }
    let mut sim_bfs = sim.output(&sim_handles.bfs).unwrap().clone();
    let mut thread_bfs = threaded.output(&thread_handles.bfs).unwrap().clone();
    sim_bfs.sort_unstable();
    thread_bfs.sort_unstable();
    assert_eq!(sim_bfs, thread_bfs);
}
