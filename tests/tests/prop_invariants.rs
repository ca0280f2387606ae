//! Cross-crate property tests on system invariants.

use std::convert::identity;
use std::sync::Arc;

use proptest::prelude::*;
use qgraph_algo::{
    dijkstra_to, BfsProgram, PoiProgram, PprProgram, RoadProgram, SsspProgram, WccProgram,
};
use qgraph_core::programs::{ReachProgram, Uncombined};
use qgraph_core::qcut::{
    cluster_queries, local_search, migrate, run_qcut, MovePlan, ScopeMove, ScopeStats, Solution,
};
use qgraph_core::{QcutConfig, QueryId, SimEngine, SystemConfig, ThreadEngine, VertexProgram};
use qgraph_graph::{Graph, GraphBuilder, VertexId};
use qgraph_partition::{HashPartitioner, Partitioner, Partitioning, WorkerId};
use qgraph_sim::ClusterModel;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// Arbitrary connected-ish weighted graph: a random spanning path plus
/// extra random edges.
fn arb_graph(max_v: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32, f32)>)> {
    (3..max_v).prop_flat_map(|n| {
        let extra = prop::collection::vec((0..n as u32, 0..n as u32, 0.1f32..10.0), 0..(2 * n));
        (Just(n), extra)
    })
}

fn build(n: usize, extra: &[(u32, u32, f32)]) -> Arc<qgraph_graph::Graph> {
    let mut b = GraphBuilder::new(n);
    for i in 0..(n as u32 - 1) {
        b.add_undirected_edge(i, i + 1, 1.0 + (i % 5) as f32);
    }
    for &(s, t, w) in extra {
        if s != t {
            b.add_undirected_edge(s, t, w);
        }
    }
    Arc::new(b.build())
}

/// Like [`build`], with every third vertex POI-tagged (for `PoiProgram`).
fn build_tagged(n: usize, extra: &[(u32, u32, f32)]) -> Arc<Graph> {
    let mut b = GraphBuilder::new(n);
    for i in 0..(n as u32 - 1) {
        b.add_undirected_edge(i, i + 1, 1.0 + (i % 5) as f32);
    }
    for &(s, t, w) in extra {
        if s != t {
            b.add_undirected_edge(s, t, w);
        }
    }
    let mut g = b.build();
    g.props_mut().tags = (0..n).map(|v| v % 3 == 0).collect();
    Arc::new(g)
}

/// The handles of the mixed workload of the combiner-equivalence tests
/// (see [`submit_mixed!`]).
struct Mixed<A, B, C, D, E, F> {
    sssp: A,
    bfs: B,
    poi: C,
    reach: D,
    road: E,
    wcc: F,
}

/// Submit the mixed workload into engine `$e`: every builtin
/// combiner-carrying program (the four acceptance programs plus the Road
/// dispatch wrapper and whole-graph WCC), each passed through `$wrap` —
/// `identity` runs the programs as they are, `Uncombined` the same
/// programs without their combiners.
macro_rules! submit_mixed {
    ($e:expr, $wrap:expr, $n:expr, $s:expr, $t:expr, $depth:expr) => {{
        let (n, s, t, depth): (usize, u32, u32, u32) = ($n, $s, $t, $depth);
        let s = VertexId(s % n as u32);
        let t = VertexId(t % n as u32);
        let e = &mut $e;
        Mixed {
            sssp: e.submit($wrap(SsspProgram::new(s, t))),
            bfs: e.submit($wrap(BfsProgram::new(t, depth))),
            poi: e.submit($wrap(PoiProgram::new(s))),
            reach: e.submit($wrap(ReachProgram::bounded(t, depth + 2))),
            road: e.submit($wrap(RoadProgram::sssp(t, s))),
            wcc: e.submit($wrap(WccProgram)),
        }
    }};
}

/// Assert engine `$a`'s outputs under handles `$ha` equal engine `$b`'s
/// under `$hb`, for every mixed-workload query.
macro_rules! assert_same_outputs {
    ($a:expr, $ha:expr, $b:expr, $hb:expr) => {{
        prop_assert_eq!($a.output(&$ha.sssp), $b.output(&$hb.sssp));
        prop_assert_eq!($a.output(&$ha.bfs), $b.output(&$hb.bfs));
        prop_assert_eq!($a.output(&$ha.poi), $b.output(&$hb.poi));
        prop_assert_eq!($a.output(&$ha.reach), $b.output(&$hb.reach));
        prop_assert_eq!($a.output(&$ha.road), $b.output(&$hb.road));
        prop_assert_eq!($a.output(&$ha.wcc), $b.output(&$hb.wcc));
        prop_assert!($a.output(&$ha.sssp).is_some(), "queries must finish");
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// BSP SSSP on any partitioning equals Dijkstra.
    #[test]
    fn engine_sssp_equals_dijkstra((n, extra) in arb_graph(40), k in 1usize..5, s in 0u32..10, t in 0u32..10) {
        let g = build(n, &extra);
        let s = VertexId(s % n as u32);
        let t = VertexId(t % n as u32);
        let parts = HashPartitioner::default().partition(&g, k);
        let mut e = SimEngine::new(
            Arc::clone(&g),
            ClusterModel::scale_up(k),
            parts,
            SystemConfig::default(),
        );
        let q = e.submit(SsspProgram::new(s, t));
        e.run();
        let got = *e.output(&q).unwrap();
        let want = dijkstra_to(&g, s, t);
        match (got, want) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-3),
            (None, None) => {}
            other => prop_assert!(false, "mismatch {other:?}"),
        }
    }

    /// Local search never increases cost and never worsens imbalance
    /// beyond max(δ, initial).
    #[test]
    fn local_search_invariants(
        sizes in prop::collection::vec(prop::collection::vec(0.0f64..50.0, 4), 2..20),
        base in prop::collection::vec(50.0f64..200.0, 4),
    ) {
        let stats = ScopeStats {
            num_workers: 4,
            queries: (0..sizes.len() as u32).map(QueryId).collect(),
            sizes,
            overlaps: vec![],
            base_vertices: base,
        };
        let mut rng = SmallRng::seed_from_u64(5);
        let clusters = cluster_queries(&stats, 16, &mut rng);
        let mut s = Solution::initial(&stats, &clusters, 0.25);
        let c0 = s.cost();
        let imb0 = s.imbalance();
        let c1 = local_search(&mut s);
        prop_assert!(c1 <= c0 + 1e-9);
        prop_assert!(s.imbalance() <= imb0.max(0.25) + 1e-9);
        prop_assert!((s.cost() - s.recompute_cost()).abs() < 1e-6);
    }

    /// The full ILS plan realizes its reported final state: replaying the
    /// moves on the stats yields the claimed cost direction.
    #[test]
    fn ils_plan_is_consistent(
        sizes in prop::collection::vec(prop::collection::vec(0.0f64..30.0, 3), 2..16),
    ) {
        let stats = ScopeStats {
            num_workers: 3,
            queries: (0..sizes.len() as u32).map(QueryId).collect(),
            sizes,
            overlaps: vec![],
            base_vertices: vec![100.0; 3],
        };
        let r = run_qcut(&stats, &QcutConfig::default());
        prop_assert!(r.final_cost <= r.initial_cost + 1e-9);
        for mv in &r.plan.moves {
            prop_assert!(mv.from != mv.to);
            prop_assert!(mv.from < 3 && mv.to < 3);
        }
    }

    /// Moving vertices never changes the total vertex count per
    /// partitioning.
    #[test]
    fn partition_moves_conserve_vertices(assign in prop::collection::vec(0u32..4, 5..60), moves in prop::collection::vec((0usize..60, 0u32..4), 0..30)) {
        let n = assign.len();
        let mut p = Partitioning::new(assign.into_iter().map(WorkerId).collect(), 4);
        for (v, w) in moves {
            p.move_vertex(VertexId((v % n) as u32), WorkerId(w));
        }
        prop_assert_eq!(p.sizes().iter().sum::<usize>(), n);
    }

    /// Any `MovePlan` applied through the shared `qcut::migrate` path
    /// preserves the partition invariants: the resolved transfers are
    /// pairwise disjoint, only vertices owned by the move's source worker
    /// move, every vertex ends up owned by exactly one in-range worker
    /// (edge endpoints stay resolvable), no vertex is lost or duplicated,
    /// and untouched vertices keep their owner.
    #[test]
    fn migrate_plan_preserves_partition_invariants(
        assign in prop::collection::vec(0u32..4, 8..80),
        raw_scopes in prop::collection::vec(prop::collection::vec(0usize..200, 0..24), 1..8),
        raw_moves in prop::collection::vec((0u32..10, 0usize..4, 0usize..4), 0..16),
    ) {
        let n = assign.len();
        let original = assign.clone();
        let mut p = Partitioning::new(assign.into_iter().map(WorkerId).collect(), 4);
        let plan = MovePlan {
            moves: raw_moves
                .into_iter()
                .filter(|&(_, f, t)| f != t)
                .map(|(q, from, to)| ScopeMove { query: QueryId(q), from, to })
                .collect(),
        };
        // Query q's (global) scope is a pseudo-random vertex subset; the
        // resolver must cut it down to the source worker itself.
        let scopes = raw_scopes;
        let mut scope_of = |q: QueryId, _w: usize| -> Vec<VertexId> {
            scopes[q.0 as usize % scopes.len()]
                .iter()
                .map(|&v| VertexId((v % n) as u32))
                .collect()
        };
        let m = migrate::resolve_plan(&plan, &p, &mut scope_of);

        let mut seen: HashSet<VertexId> = HashSet::new();
        let mut per_pair_expect: Vec<(usize, usize, usize)> = Vec::new();
        for mv in &m.moves {
            prop_assert!(!mv.vertices.is_empty(), "empty moves must be dropped");
            for &v in &mv.vertices {
                prop_assert!(seen.insert(v), "vertex {v:?} claimed by two moves");
                prop_assert_eq!(
                    p.worker_of(v).index(), mv.from,
                    "resolved a vertex the source worker does not own"
                );
            }
            match per_pair_expect.iter_mut().find(|(f, t, _)| (*f, *t) == (mv.from, mv.to)) {
                Some((_, _, c)) => *c += mv.vertices.len(),
                None => per_pair_expect.push((mv.from, mv.to, mv.vertices.len())),
            }
        }
        per_pair_expect.sort_unstable();
        prop_assert_eq!(m.moved_vertices, seen.len());
        prop_assert_eq!(&m.per_pair, &per_pair_expect);

        migrate::commit(&m, &mut p);
        // No vertex lost or duplicated; every owner in range.
        prop_assert_eq!(p.sizes().iter().sum::<usize>(), n);
        for v in 0..n {
            let v = VertexId(v as u32);
            let owner = p.worker_of(v).index();
            prop_assert!(owner < 4, "unresolvable owner");
            let expected = m
                .moves
                .iter()
                .find(|mv| mv.vertices.contains(&v))
                .map(|mv| mv.to)
                .unwrap_or(original[v.index()] as usize);
            prop_assert_eq!(owner, expected);
        }
    }

    /// End-to-end: the adaptive engine on random graphs with repartitions
    /// forced at essentially arbitrary points still covers the graph with
    /// exactly one owner per vertex and answers SSSP like Dijkstra.
    #[test]
    fn adaptive_engine_preserves_cover_and_answers(
        (n, extra) in arb_graph(32),
        seed in 0u64..40,
    ) {
        let g = build(n, &extra);
        let parts = HashPartitioner::with_seed(seed).partition(&g, 3);
        let cfg = SystemConfig {
            qcut: Some(QcutConfig {
                // Trigger at every opportunity: any non-local query mix
                // repartitions as soon as the wait (paced by a 1 µs
                // budget) allows, so the repartition points vary with the graph
                // and the hash seed rather than a tuned schedule.
                locality_threshold: 1.0,
                ils_budget_secs: 1e-6,
                ils_max_rounds: 8,
                ..QcutConfig::default()
            }),
            max_parallel_queries: 4,
            ..Default::default()
        };
        let mut e = SimEngine::new(Arc::clone(&g), ClusterModel::scale_up(3), parts, cfg);
        let mut queries = Vec::new();
        for i in 0..6u32 {
            let s = VertexId((i * 5) % n as u32);
            let t = VertexId((i * 11 + 3) % n as u32);
            queries.push((s, t, e.submit(SsspProgram::new(s, t))));
        }
        e.run();
        prop_assert_eq!(e.partitioning().num_vertices(), n);
        prop_assert_eq!(e.partitioning().sizes().iter().sum::<usize>(), n);
        for (s, t, h) in queries {
            let want = dijkstra_to(&g, s, t);
            let got = *e.output(&h).unwrap();
            match (want, got) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-3),
                (None, None) => {}
                other => prop_assert!(false, "{s:?}->{t:?}: {other:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole acceptance: a combined run and an uncombined run
    /// ([`Uncombined`]) of the same mixed workload (SSSP, BFS, POI, Reach,
    /// Road, WCC) are *identical* on the sim engine — same outputs, same
    /// completion order, same per-query iteration/locality/scope
    /// structure — and the combine accounting is coherent:
    /// `remote_messages ≤ remote_messages_pre_combine`, produced
    /// (pre-combine) traffic is unchanged by combining, and the
    /// uncombined run combines nothing.
    #[test]
    fn sim_combiner_equivalence(
        (n, extra) in arb_graph(36),
        k in 1usize..4,
        s in 0u32..40,
        t in 0u32..40,
        depth in 0u32..5,
    ) {
        let g = build_tagged(n, &extra);
        let mk = || {
            let parts = HashPartitioner::default().partition(&g, k);
            SimEngine::new(
                Arc::clone(&g),
                ClusterModel::scale_up(k),
                parts,
                SystemConfig {
                    // Sequential admission pins the completion order, so
                    // the ordering comparison below is meaningful.
                    max_parallel_queries: 1,
                    ..Default::default()
                },
            )
        };
        let mut on = mk();
        let mut off = mk();
        let h = submit_mixed!(on, identity, n, s, t, depth);
        let h2 = submit_mixed!(off, Uncombined, n, s, t, depth);
        prop_assert_eq!(h.sssp.id(), h2.sssp.id(), "same submission order → same ids");
        on.run();
        off.run();
        assert_same_outputs!(on, h, off, h2);

        let ids_on: Vec<QueryId> = on.report().outcomes.iter().map(|o| o.id).collect();
        let ids_off: Vec<QueryId> = off.report().outcomes.iter().map(|o| o.id).collect();
        prop_assert_eq!(ids_on, ids_off, "combining must not reorder completions");
        for (a, b) in on.report().outcomes.iter().zip(off.report().outcomes.iter()) {
            // Combining must not change the superstep structure, the
            // locality metric, or the touched scope.
            prop_assert_eq!(a.iterations, b.iterations);
            prop_assert_eq!(a.local_iterations, b.local_iterations);
            prop_assert_eq!(a.locality(), b.locality());
            prop_assert_eq!(a.scope_size, b.scope_size);
            prop_assert_eq!(a.vertex_updates, b.vertex_updates);
            // Accounting coherence.
            prop_assert!(a.remote_messages <= a.remote_messages_pre_combine);
            prop_assert_eq!(
                a.remote_messages_pre_combine, b.remote_messages_pre_combine,
                "produced traffic is a property of compute, not the combiner"
            );
            prop_assert_eq!(
                b.remote_messages, b.remote_messages_pre_combine,
                "the uncombined run combines nothing"
            );
            prop_assert!(a.remote_messages <= b.remote_messages);
            prop_assert!(a.remote_batches <= a.remote_messages);
            prop_assert_eq!(a.remote_batches > 0, a.remote_messages > 0);
        }
    }

    /// Same equivalence under adaptive Q-cut forced at arbitrary points:
    /// outputs agree between combined and [`Uncombined`] runs (superstep
    /// *timing* differs, so migrations land differently — only answers
    /// and partition invariants are comparable), and the partition cover
    /// survives in both.
    #[test]
    fn sim_combiner_equivalence_with_qcut(
        (n, extra) in arb_graph(32),
        seed in 0u64..20,
        s in 0u32..40,
        t in 0u32..40,
    ) {
        let g = build_tagged(n, &extra);
        let mk = || {
            let parts = HashPartitioner::with_seed(seed).partition(&g, 3);
            SimEngine::new(
                Arc::clone(&g),
                ClusterModel::scale_up(3),
                parts,
                SystemConfig {
                    qcut: Some(QcutConfig {
                        locality_threshold: 1.0,
                        ils_budget_secs: 1e-6,
                        ils_max_rounds: 8,
                        ..QcutConfig::default()
                    }),
                    max_parallel_queries: 4,
                    ..Default::default()
                },
            )
        };
        let mut on = mk();
        let mut off = mk();
        let h = submit_mixed!(on, identity, n, s, t, 3);
        let h_b = submit_mixed!(on, identity, n, t, s.wrapping_add(7), 2);
        let h2 = submit_mixed!(off, Uncombined, n, s, t, 3);
        let h2_b = submit_mixed!(off, Uncombined, n, t, s.wrapping_add(7), 2);
        on.run();
        off.run();
        assert_same_outputs!(on, h, off, h2);
        assert_same_outputs!(on, h_b, off, h2_b);
        for e in [&on, &off] {
            prop_assert_eq!(e.partitioning().num_vertices(), n);
            prop_assert_eq!(e.partitioning().sizes().iter().sum::<usize>(), n);
        }
        for o in on.report().outcomes.iter() {
            prop_assert!(o.remote_messages <= o.remote_messages_pre_combine);
        }
    }

    /// The thread runtime agrees too: combined and [`Uncombined`] runs
    /// of the mixed workload produce identical outputs with Q-cut off and
    /// with the stop-the-world Q-cut loop forced on, and the combine
    /// accounting stays coherent.
    #[test]
    fn thread_combiner_equivalence(
        (n, extra) in arb_graph(28),
        qcut in 0usize..2,
        s in 0u32..40,
        t in 0u32..40,
        depth in 0u32..4,
    ) {
        let g = build_tagged(n, &extra);
        let mk = || {
            let parts = HashPartitioner::default().partition(&g, 2);
            ThreadEngine::with_config(
                Arc::clone(&g),
                parts,
                SystemConfig {
                    qcut: (qcut == 1).then(|| QcutConfig {
                        locality_threshold: 1.0,
                        ils_max_rounds: 8,
                        ..QcutConfig::default()
                    }),
                    ..Default::default()
                },
            )
        };
        let mut on = mk();
        let mut off = mk();
        let h = submit_mixed!(on, identity, n, s, t, depth);
        let h2 = submit_mixed!(off, Uncombined, n, s, t, depth);
        on.run();
        off.run();
        assert_same_outputs!(on, h, off, h2);
        for (a, b) in on.report().outcomes.iter().zip(off.report().outcomes.iter()) {
            prop_assert!(a.remote_messages <= a.remote_messages_pre_combine);
            prop_assert_eq!(b.remote_messages, b.remote_messages_pre_combine);
            prop_assert!(a.remote_batches <= a.remote_messages);
        }
        on.shutdown();
        off.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// PPR's compensated-sum combiner is *tolerance*-equivalent: unlike
    /// the exact min/OR folds, a floating-point sum regrouped by
    /// combining may differ by rounding — the Kahan/Neumaier messages
    /// bound that difference to ulps, which this property pins on random
    /// graphs. (The push threshold makes mass a discontinuous function of
    /// rounding, so the bound is on masses of the shared support and on
    /// the mass of any vertex only one side reports.)
    #[test]
    fn ppr_combined_matches_uncombined_within_tolerance(
        (n, extra) in arb_graph(30),
        k in 1usize..4,
        src in 0u32..30,
    ) {
        let g = build(n, &extra);
        let src = VertexId(src % n as u32);
        fn run<P: VertexProgram<Output = Vec<(VertexId, f32)>>>(
            g: &Arc<Graph>,
            k: usize,
            program: P,
        ) -> Vec<(VertexId, f32)> {
            let cfg = SystemConfig::default();
            let parts = HashPartitioner::default().partition(g, k);
            let mut e = SimEngine::new(Arc::clone(g), ClusterModel::scale_up(k), parts, cfg);
            let q = e.submit(program);
            e.run();
            let mut out = e.take_output(&q).unwrap();
            out.sort_by_key(|(v, _)| *v);
            out
        }
        let ppr = PprProgram::new(src, 0.15, 1e-3);
        let on = run(&g, k, ppr.clone());
        let off = run(&g, k, Uncombined(ppr));
        let tol = 1e-3f32;
        let mut i = 0usize;
        let mut j = 0usize;
        while i < on.len() || j < off.len() {
            match (on.get(i), off.get(j)) {
                (Some(&(va, a)), Some(&(vb, b))) if va == vb => {
                    prop_assert!((a - b).abs() <= tol * a.abs().max(b.abs()).max(1e-2),
                        "vertex {}: {} vs {}", va, a, b);
                    i += 1;
                    j += 1;
                }
                (Some(&(va, a)), Some(&(vb, _))) if va < vb => {
                    prop_assert!(a.abs() <= tol, "only combined reports {}: {}", va, a);
                    i += 1;
                }
                (Some(_), Some(&(vb, b))) => {
                    prop_assert!(b.abs() <= tol, "only uncombined reports {}: {}", vb, b);
                    j += 1;
                }
                (Some(&(va, a)), None) => {
                    prop_assert!(a.abs() <= tol, "only combined reports {}: {}", va, a);
                    i += 1;
                }
                (None, Some(&(vb, b))) => {
                    prop_assert!(b.abs() <= tol, "only uncombined reports {}: {}", vb, b);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
    }
}
