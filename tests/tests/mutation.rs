//! Mutation-plane correctness: serving queries over an evolving graph.
//!
//! Three layers of assurance:
//! * **overlay/compaction equivalence** — a property test that random
//!   mutation sequences read identically through the overlay and through
//!   the compacted CSR;
//! * **per-epoch reference conformance** — after every mutation epoch,
//!   re-running queries matches `qgraph_algo::reference` on an
//!   identically rebuilt graph, on both runtimes with Q-cut on and off;
//! * **concurrent serving** — queries and mutations streamed from
//!   separate threads into a live `ThreadEngine` (and via `mutate_at` on
//!   `SimEngine`), every outcome attributed to a consistent epoch span
//!   and single-epoch results verified against the reference graph of
//!   that epoch — with compaction and Q-cut repartitions firing
//!   mid-stream.

use std::sync::mpsc::channel;
use std::thread;

use proptest::prelude::*;
use qgraph_algo::{connected_component_of, dijkstra_to, k_hop, BfsProgram, SsspProgram};
use qgraph_core::programs::ReachProgram;
use qgraph_core::{
    Engine, EngineBuilder, MutationBatch, QcutConfig, QueryId, Runtime, SystemConfig, Topology,
};
use qgraph_graph::{Graph, VertexId};
use qgraph_integration_tests::line_graph;
use qgraph_partition::HashPartitioner;
use qgraph_workload::{road_closures, social_follows, ChurnConfig, TimedMutation};

/// A connected ring + chords world small enough for per-epoch Dijkstra.
fn ring_world(n: u32) -> Graph {
    let mut b = qgraph_graph::GraphBuilder::new(n as usize);
    for i in 0..n {
        b.add_undirected_edge(i, (i + 1) % n, 1.0 + (i % 7) as f32 * 0.25);
    }
    for i in (0..n).step_by(9) {
        b.add_undirected_edge(i, (i + n / 3) % n, 2.0);
    }
    b.build()
}

/// Reference graphs per epoch: `refs[e]` is the materialized graph after
/// the first `e` batches.
fn epoch_references(base: &Graph, stream: &[TimedMutation]) -> Vec<Graph> {
    let mut topo = Topology::new(base.clone());
    let mut refs = vec![topo.materialize()];
    for m in stream {
        topo.apply(&m.batch);
        refs.push(topo.materialize());
    }
    refs
}

fn assert_sssp_matches(reference: &Graph, s: VertexId, t: VertexId, got: Option<f32>, ctx: &str) {
    let want = dijkstra_to(reference, s, t);
    match (want, got) {
        (Some(a), Some(b)) => assert!((a - b).abs() < 1e-3, "{ctx}: {a} vs {b}"),
        (None, None) => {}
        other => panic!("{ctx}: {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Per-epoch reference conformance, four configurations.
// ---------------------------------------------------------------------

fn epoch_conformance<R: Runtime>(mk: impl Fn() -> Engine<R>, label: &str) {
    let base = ring_world(60);
    let stream = road_closures(&base, &ChurnConfig::uniform(5, 4, 1.0, 11));
    let refs = epoch_references(&base, &stream);
    let mut engine = mk();
    for (e, m) in stream.iter().enumerate() {
        engine.mutate(m.batch.clone());
        engine.run();
        let epoch = (e + 1) as u64;
        let reference = &refs[e + 1];
        // Re-run a query mix against the mutated engine and the
        // identically rebuilt reference graph.
        let sssp = engine.submit(SsspProgram::new(VertexId(3), VertexId(33)));
        let reach = engine.submit(ReachProgram::new(VertexId(10)));
        let bfs = engine.submit(BfsProgram::new(VertexId(20), 3));
        engine.run();
        assert_sssp_matches(
            reference,
            VertexId(3),
            VertexId(33),
            *engine.output(&sssp).expect("sssp finished"),
            &format!("{label} epoch {epoch} sssp"),
        );
        let mut want = connected_component_of(reference, VertexId(10));
        want.sort_unstable();
        assert_eq!(
            engine.output(&reach).expect("reach finished"),
            &want,
            "{label} epoch {epoch} reach"
        );
        let mut want_bfs = k_hop(reference, VertexId(20), 3);
        want_bfs.sort_unstable();
        let mut got_bfs = engine.output(&bfs).expect("bfs finished").clone();
        got_bfs.sort_unstable();
        assert_eq!(got_bfs, want_bfs, "{label} epoch {epoch} bfs");
        // Every outcome of this round ran wholly inside the epoch.
        for o in engine.outcomes().iter().rev().take(3) {
            assert_eq!(o.first_epoch, epoch, "{label}: admitted at the epoch");
            assert_eq!(o.last_epoch, epoch, "{label}: completed in the epoch");
            assert!(o.single_epoch());
        }
    }
}

fn qcut_cfg_sim() -> SystemConfig {
    SystemConfig {
        qcut: Some(QcutConfig::time_scaled(2000.0)),
        compact_fraction: 0.1,
        ..Default::default()
    }
}

fn qcut_cfg_thread() -> SystemConfig {
    SystemConfig {
        qcut: Some(QcutConfig::default()),
        compact_fraction: 0.1,
        ..Default::default()
    }
}

#[test]
fn sim_epoch_reruns_match_reference_static() {
    epoch_conformance(
        || {
            EngineBuilder::new(ring_world(60))
                .workers(3)
                .partitioner(HashPartitioner::default())
                .build_sim()
        },
        "sim/static",
    );
}

#[test]
fn sim_epoch_reruns_match_reference_qcut() {
    epoch_conformance(
        || {
            EngineBuilder::new(ring_world(60))
                .workers(3)
                .partitioner(HashPartitioner::default())
                .config(qcut_cfg_sim())
                .build_sim()
        },
        "sim/qcut",
    );
}

#[test]
fn thread_epoch_reruns_match_reference_static() {
    epoch_conformance(
        || {
            EngineBuilder::new(ring_world(60))
                .workers(3)
                .partitioner(HashPartitioner::default())
                .build_threaded()
        },
        "thread/static",
    );
}

#[test]
fn thread_epoch_reruns_match_reference_qcut() {
    epoch_conformance(
        || {
            EngineBuilder::new(ring_world(60))
                .workers(3)
                .partitioner(HashPartitioner::default())
                .config(qcut_cfg_thread())
                .build_threaded()
        },
        "thread/qcut",
    );
}

// ---------------------------------------------------------------------
// Growth: new vertices are placed and queryable on both runtimes.
// ---------------------------------------------------------------------

#[test]
fn added_vertices_are_placed_and_reachable_both_runtimes() {
    let base = ring_world(30);
    let stream = social_follows(&base, &ChurnConfig::uniform(4, 10, 1.0, 5));
    let refs = epoch_references(&base, &stream);
    let final_n = refs.last().unwrap().num_vertices();
    assert!(final_n > 30, "the follow stream must add users");

    fn grow_and_check<R: Runtime>(
        mut engine: Engine<R>,
        stream: &[TimedMutation],
        reference: &Graph,
    ) {
        for m in stream {
            engine.mutate(m.batch.clone());
            engine.run();
        }
        // Follows point from the new user into the graph: a flood from
        // the newest vertex must traverse its follow edges into the old
        // graph exactly as on the reference rebuild.
        let newest = VertexId(reference.num_vertices() as u32 - 1);
        let reach = engine.submit(ReachProgram::new(newest));
        engine.run();
        let mut want = connected_component_of(reference, newest);
        want.sort_unstable();
        assert_eq!(engine.output(&reach).expect("finished"), &want);
        assert!(
            want.len() > 1,
            "the new user's follows lead into the old graph"
        );
    }
    let builder = || {
        EngineBuilder::new(base.clone())
            .workers(3)
            .partitioner(HashPartitioner::default())
            .config(SystemConfig {
                compact_fraction: 0.2,
                ..Default::default()
            })
    };
    grow_and_check(builder().build_sim(), &stream, refs.last().unwrap());
    grow_and_check(builder().build_threaded(), &stream, refs.last().unwrap());
}

// ---------------------------------------------------------------------
// Concurrent serving: queries and mutations race on a live ThreadEngine.
// ---------------------------------------------------------------------

#[test]
fn thread_serving_streams_mutations_and_queries_concurrently() {
    let base = ring_world(80);
    let stream = road_closures(&base, &ChurnConfig::uniform(10, 4, 1.0, 23));
    let refs = epoch_references(&base, &stream);

    // Aggressive knobs so compaction *and* repartition barriers both fire
    // mid-stream: locality is in [0, 1], so threshold 2.0 trips the
    // trigger at every due check with >= 2 known scopes (the adaptivity
    // suite's always-on recipe), and a tiny overlay fraction compacts at
    // every mutation epoch.
    let cfg = SystemConfig {
        qcut: Some(QcutConfig {
            locality_threshold: 2.0,
            ils_max_rounds: 4,
            ..Default::default()
        }),
        compact_fraction: 0.05,
        max_parallel_queries: 3,
        ..Default::default()
    };
    let mut engine = EngineBuilder::new(base.clone())
        .workers(3)
        .partitioner(HashPartitioner::default())
        .config(cfg)
        .build_threaded();
    engine.start();

    let sources: Vec<(u32, u32)> = (0..24u32)
        .map(|i| (i * 3 % 80, (i * 7 + 40) % 80))
        .collect();
    let (id_tx, id_rx) = channel::<(QueryId, u32, u32)>();
    let qclient = engine.client();
    let query_thread = thread::spawn(move || {
        for (i, &(s, t)) in sources.iter().enumerate() {
            let h = qclient.submit(SsspProgram::new(VertexId(s), VertexId(t)));
            id_tx.send((h.id(), s, t)).expect("receiver alive");
            // The first half bursts (concurrent scopes keep the trigger
            // hot); the rest trickle to stretch the serving window across
            // the mutation stream.
            if i >= 12 {
                thread::sleep(std::time::Duration::from_millis(2));
            }
        }
    });
    let mclient = engine.client();
    let batches = stream.clone();
    let mutation_thread = thread::spawn(move || {
        for m in batches {
            mclient.mutate(m.batch);
            thread::sleep(std::time::Duration::from_millis(3));
        }
    });
    query_thread.join().expect("query thread");
    mutation_thread.join().expect("mutation thread");
    engine.shutdown();

    let report = engine.report();
    let total_epochs = stream.len() as u64;
    assert_eq!(engine.epoch(), total_epochs, "every batch applied");
    assert_eq!(report.mutations.len(), stream.len());
    assert!(
        report.mutations.iter().any(|m| m.compacted),
        "compaction fired mid-stream"
    );
    assert!(
        !report.repartitions.is_empty(),
        "a Q-cut repartition fired mid-stream"
    );
    // The engine's final topology equals the reference replay, edge for
    // edge — placement, overlay, and compaction all agreed.
    let final_ref = refs.last().unwrap();
    let final_topo = engine.topology().materialize();
    assert_eq!(final_topo.num_vertices(), final_ref.num_vertices());
    for v in final_ref.vertices() {
        let a: Vec<_> = final_topo.neighbors(v).collect();
        let b: Vec<_> = final_ref.neighbors(v).collect();
        assert_eq!(a, b, "vertex {v}");
    }

    // Every outcome is attributable to a consistent epoch span, and
    // single-epoch queries match the reference graph of that epoch.
    let specs: Vec<(QueryId, u32, u32)> = id_rx.try_iter().collect();
    assert_eq!(specs.len(), 24);
    let mut verified = 0usize;
    for (q, s, t) in specs {
        let o = report
            .outcomes
            .iter()
            .find(|o| o.id == q)
            .expect("every submission has an outcome");
        assert!(o.first_epoch <= o.last_epoch);
        assert!(o.last_epoch <= total_epochs);
        if o.single_epoch() {
            let got = engine
                .output_as::<SsspProgram>(q)
                .expect("completed query has output");
            assert_sssp_matches(
                &refs[o.first_epoch as usize],
                VertexId(s),
                VertexId(t),
                *got,
                &format!("serving epoch {}", o.first_epoch),
            );
            verified += 1;
        }
    }
    assert!(verified > 0, "some queries ran wholly inside one epoch");
}

#[test]
fn sim_virtual_time_mutations_interleave_with_arrivals() {
    let base = ring_world(80);
    let stream = road_closures(&base, &ChurnConfig::uniform(6, 4, 1.0, 31));
    let refs = epoch_references(&base, &stream);
    let cfg = SystemConfig {
        qcut: Some(QcutConfig::time_scaled(2000.0)),
        compact_fraction: 0.05,
        max_parallel_queries: 4,
        ..Default::default()
    };
    let mut e = EngineBuilder::new(base.clone())
        .workers(3)
        .partitioner(HashPartitioner::default())
        .config(cfg)
        .build_sim();
    // Mutations at 1s intervals; queries arriving at ~0.3s intervals race
    // them in virtual time.
    for (i, m) in stream.iter().enumerate() {
        e.mutate_at(m.batch.clone(), 1.0 + i as f64);
    }
    let mut specs = Vec::new();
    for i in 0..20u32 {
        let (s, t) = (i * 3 % 80, (i * 11 + 37) % 80);
        let h = e.submit_at(SsspProgram::new(VertexId(s), VertexId(t)), 0.3 * i as f64);
        specs.push((h.id(), s, t));
    }
    e.run();
    let total_epochs = stream.len() as u64;
    assert_eq!(e.epoch(), total_epochs);
    assert_eq!(e.report().mutations.len(), stream.len());
    let mut verified = 0usize;
    for (q, s, t) in specs {
        let o = e
            .report()
            .outcomes
            .iter()
            .find(|o| o.id == q)
            .expect("outcome recorded");
        assert!(o.first_epoch <= o.last_epoch && o.last_epoch <= total_epochs);
        if o.single_epoch() {
            let got = e.output_as::<SsspProgram>(q).expect("output present");
            assert_sssp_matches(
                &refs[o.first_epoch as usize],
                VertexId(s),
                VertexId(t),
                *got,
                &format!("sim serving epoch {}", o.first_epoch),
            );
            verified += 1;
        }
    }
    assert!(verified > 0, "some queries ran wholly inside one epoch");
    // Determinism: replaying the identical schedule reproduces the report.
    let rerun = || {
        let cfg = SystemConfig {
            qcut: Some(QcutConfig::time_scaled(2000.0)),
            compact_fraction: 0.05,
            max_parallel_queries: 4,
            ..Default::default()
        };
        let mut e = EngineBuilder::new(base.clone())
            .workers(3)
            .partitioner(HashPartitioner::default())
            .config(cfg)
            .build_sim();
        for (i, m) in stream.iter().enumerate() {
            e.mutate_at(m.batch.clone(), 1.0 + i as f64);
        }
        for i in 0..20u32 {
            let (s, t) = (i * 3 % 80, (i * 11 + 37) % 80);
            e.submit_at(SsspProgram::new(VertexId(s), VertexId(t)), 0.3 * i as f64);
        }
        e.run();
        (
            e.report().total_latency(),
            e.report().mutations.len(),
            e.report()
                .outcomes
                .iter()
                .map(|o| (o.first_epoch, o.last_epoch))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(rerun(), rerun(), "virtual-time mutation replay is exact");
}

// ---------------------------------------------------------------------
// Line-graph smoke: hand-checkable mutation semantics end to end.
// ---------------------------------------------------------------------

#[test]
fn closing_and_reopening_an_edge_changes_answers() {
    let g = line_graph(10);
    let mut e = EngineBuilder::new(g).workers(2).build_sim();
    let q0 = e.submit(SsspProgram::new(VertexId(0), VertexId(9)));
    e.run();
    assert_eq!(*e.output(&q0).unwrap(), Some(9.0));

    // Sever the line: unreachable. Settle the epoch first — a query
    // submitted in the same run would be admitted before the mutation's
    // virtual-time event pops and span both epochs.
    let mut cut = MutationBatch::new();
    cut.remove_edge(4, 5);
    e.mutate(cut);
    e.run();
    let q1 = e.submit(SsspProgram::new(VertexId(0), VertexId(9)));
    e.run();
    assert_eq!(*e.output(&q1).unwrap(), None, "severed");
    let o1 = e
        .report()
        .outcomes
        .iter()
        .find(|o| o.id == q1.id())
        .unwrap();
    assert_eq!((o1.first_epoch, o1.last_epoch), (1, 1));

    // Reopen with a detour cost.
    let mut reopen = MutationBatch::new();
    reopen.add_edge(4, 5, 3.5);
    e.mutate(reopen);
    e.run();
    let q2 = e.submit(SsspProgram::new(VertexId(0), VertexId(9)));
    e.run();
    assert_eq!(*e.output(&q2).unwrap(), Some(11.5), "detour weight");
    assert_eq!(e.epoch(), 2);
}

// ---------------------------------------------------------------------
// Property: overlay reads equal the compacted CSR, always.
// ---------------------------------------------------------------------

/// A random mutation program over a small base graph, as data.
fn arb_mutations() -> impl Strategy<Value = (usize, Vec<(u32, u32, u32)>)> {
    (
        4usize..12,
        prop::collection::vec((0u32..5, 0u32..16, 0u32..16), 1..40),
    )
}

proptest! {
    #[test]
    fn overlay_view_equals_compacted_csr((n, ops) in arb_mutations()) {
        let mut b = qgraph_graph::GraphBuilder::new(n);
        for i in 0..n as u32 - 1 {
            b.add_undirected_edge(i, i + 1, 1.0 + i as f32);
        }
        let mut topo = Topology::new(b.build());
        let mut batch = MutationBatch::new();
        let mut vcount = n as u32;
        for (kind, a, b2) in ops {
            let (a, b2) = (a % vcount, b2 % vcount);
            match kind {
                0 => {
                    batch.add_vertex();
                    vcount += 1;
                }
                1 => {
                    if a != b2 {
                        batch.add_edge(a, b2, 0.5 + (a + b2) as f32);
                    }
                }
                2 => {
                    batch.remove_edge(a, b2);
                }
                3 => {
                    batch.set_weight(a, b2, 9.0);
                }
                _ => {
                    batch.remove_vertex(a);
                }
            }
        }
        topo.apply(&batch);
        let compacted = topo.compacted();
        prop_assert_eq!(topo.num_vertices(), compacted.num_vertices());
        // Compare against the rebuilt CSR's *actual* edge count (not the
        // carried-over counter) so live-edge bookkeeping is really pinned.
        prop_assert_eq!(topo.num_edges(), compacted.base().num_edges());
        for v in topo.vertices() {
            let via_overlay: Vec<_> = topo.neighbors(v).collect();
            let via_csr: Vec<_> = compacted.neighbors(v).collect();
            prop_assert_eq!(via_overlay, via_csr, "vertex {}", v);
        }
    }
}
