//! End-to-end correctness: the distributed engines must agree with the
//! sequential reference algorithms and with each other, for every
//! partitioning and barrier mode.

use std::sync::Arc;

use qgraph_algo::{dijkstra_to, nearest_tagged, PoiProgram, SsspProgram};
use qgraph_core::runtime::ThreadEngine;
use qgraph_core::{BarrierMode, SimEngine, SystemConfig};
use qgraph_integration_tests::small_road_world;
use qgraph_partition::{DomainPartitioner, HashPartitioner, Partitioner};
use qgraph_sim::ClusterModel;
use qgraph_workload::{assign_tags, QueryKind, WorkloadConfig, WorkloadGenerator};

#[test]
fn sim_engine_sssp_matches_dijkstra_on_road_network() {
    let world = small_road_world(21);
    let graph = Arc::new(world.graph.clone());
    let gen = WorkloadGenerator::new(&world);
    let specs = gen.generate(&WorkloadConfig::figure5(24, 8, 5));

    for partitioner in [true, false] {
        let parts = if partitioner {
            HashPartitioner::default().partition(&graph, 4)
        } else {
            DomainPartitioner.partition(&graph, 4)
        };
        let mut engine = SimEngine::new(
            Arc::clone(&graph),
            ClusterModel::scale_up(4),
            parts,
            SystemConfig::default(),
        );
        let mut expected = Vec::new();
        let mut handles = Vec::new();
        for s in &specs {
            if let QueryKind::Sssp { source, target } = s.kind {
                handles.push(engine.submit(SsspProgram::new(source, target)));
                expected.push(dijkstra_to(&graph, source, target));
            }
        }
        engine.run();
        for (i, want) in expected.iter().enumerate() {
            let got = engine.output(&handles[i]).unwrap();
            match (want, got) {
                (Some(a), Some(b)) => {
                    assert!((a - b).abs() < 1e-3, "query {i}: {a} vs {b}")
                }
                (None, None) => {}
                other => panic!("query {i}: {other:?}"),
            }
        }
    }
}

#[test]
fn poi_matches_reference_on_tagged_network() {
    let mut world = small_road_world(33);
    assign_tags(&mut world.graph, 1.0 / 50.0, 3);
    let graph = Arc::new(world.graph.clone());
    let parts = HashPartitioner::default().partition(&graph, 4);
    let mut engine = SimEngine::new(
        Arc::clone(&graph),
        ClusterModel::scale_up(4),
        parts,
        SystemConfig::default(),
    );
    let gen = WorkloadGenerator::new(&world);
    let specs = gen.generate(&WorkloadConfig::single(16, true, false, 9));
    let mut expected = Vec::new();
    let mut handles = Vec::new();
    for s in &specs {
        if let QueryKind::Poi { source } = s.kind {
            handles.push(engine.submit(PoiProgram::new(source)));
            expected.push(nearest_tagged(&graph, source));
        }
    }
    engine.run();
    for (i, want) in expected.iter().enumerate() {
        let got = engine.output(&handles[i]).unwrap();
        match (want, got) {
            (Some((_, wd)), Some((_, gd))) => {
                // Distances must agree; vertex may differ only on exact ties.
                assert!((wd - gd).abs() < 1e-3, "query {i}: {wd} vs {gd}");
            }
            (None, None) => {}
            other => panic!("query {i}: {other:?}"),
        }
    }
}

#[test]
fn barrier_modes_do_not_change_answers() {
    let world = small_road_world(44);
    let graph = Arc::new(world.graph.clone());
    let gen = WorkloadGenerator::new(&world);
    let specs = gen.generate(&WorkloadConfig::single(12, false, false, 2));

    let run = |mode: BarrierMode| -> Vec<Option<f32>> {
        let parts = HashPartitioner::default().partition(&graph, 4);
        let mut engine = SimEngine::new(
            Arc::clone(&graph),
            ClusterModel::scale_up(4),
            parts,
            SystemConfig::static_with_barrier(mode),
        );
        let handles: Vec<_> = specs
            .iter()
            .filter_map(|s| match s.kind {
                QueryKind::Sssp { source, target } => {
                    Some(engine.submit(SsspProgram::new(source, target)))
                }
                _ => None,
            })
            .collect();
        engine.run();
        handles.iter().map(|h| *engine.output(h).unwrap()).collect()
    };
    assert_eq!(run(BarrierMode::Hybrid), run(BarrierMode::SharedGlobal));
}

#[test]
fn thread_engine_agrees_with_sim_engine() {
    let world = small_road_world(55);
    let graph = Arc::new(world.graph.clone());
    let gen = WorkloadGenerator::new(&world);
    let specs = gen.generate(&WorkloadConfig::single(10, false, false, 6));

    let programs: Vec<SsspProgram> = specs
        .iter()
        .filter_map(|s| match s.kind {
            QueryKind::Sssp { source, target } => Some(SsspProgram::new(source, target)),
            _ => None,
        })
        .collect();

    // Simulated engine.
    let parts = HashPartitioner::default().partition(&graph, 3);
    let mut sim = SimEngine::new(
        Arc::clone(&graph),
        ClusterModel::scale_up(3),
        parts.clone(),
        SystemConfig::default(),
    );
    let sim_handles: Vec<_> = programs.iter().map(|p| sim.submit(p.clone())).collect();
    sim.run();

    // Real threads, via the same submit/run/output lifecycle.
    let mut te = ThreadEngine::with_config(Arc::clone(&graph), parts, SystemConfig::default());
    let thread_handles: Vec<_> = programs.iter().map(|p| te.submit(p.clone())).collect();
    te.run();

    for (i, (sh, th)) in sim_handles.iter().zip(&thread_handles).enumerate() {
        let sim_out = sim.output(sh).unwrap();
        let thread_out = te.output(th).unwrap();
        assert_eq!(thread_out, sim_out, "query {i} disagrees across runtimes");
    }
}
