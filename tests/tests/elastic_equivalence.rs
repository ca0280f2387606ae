//! Elastic ≡ fixed-partition equivalence: the morsel-style task pool
//! changes *when* per-partition compute runs, never *what* it computes.
//!
//! The property: for any pool width (including 1 and more threads than
//! partitions) and any DoP budget, a run of the mixed workload is
//! output-identical to the fixed one-thread-per-partition baseline — and
//! with adaptivity off, identical in superstep structure too
//! (iterations, locality split, vertex updates, message traffic, scope).
//! Mutation epochs are applied at deterministic run boundaries so the
//! graph history is the same under every width; Q-cut runs are compared
//! on answers and invariants only (migration points are timing-dependent,
//! exactly like the combiner-equivalence precedent).

use std::sync::Arc;

use proptest::prelude::*;
use qgraph_algo::{BfsProgram, PoiProgram, SsspProgram, WccProgram};
use qgraph_core::programs::ReachProgram;
use qgraph_core::{
    DopPolicy, Engine, EngineReport, QcutConfig, QueryHandle, SimEngine, SystemConfig, ThreadEngine,
};
use qgraph_graph::{Graph, GraphBuilder, MutationBatch, VertexId};
use qgraph_integration_tests::fingerprint;
use qgraph_partition::{HashPartitioner, Partitioner};
use qgraph_sim::ClusterModel;

/// Arbitrary connected-ish weighted graph: a random spanning path plus
/// extra random edges.
fn arb_graph(max_v: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32, f32)>)> {
    (4..max_v).prop_flat_map(|n| {
        let extra = prop::collection::vec((0..n as u32, 0..n as u32, 0.1f32..10.0), 0..(2 * n));
        (Just(n), extra)
    })
}

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

struct MixedHandles {
    sssp: QueryHandle<SsspProgram>,
    bfs: QueryHandle<BfsProgram>,
    poi: QueryHandle<PoiProgram>,
    reach: QueryHandle<ReachProgram>,
    wcc: QueryHandle<WccProgram>,
}

fn submit_mixed<E: Engine>(e: &mut E, n: usize, s: u32, t: u32, depth: u32) -> MixedHandles {
    let s = VertexId(s % n as u32);
    let t = VertexId(t % n as u32);
    MixedHandles {
        sssp: e.submit(SsspProgram::new(s, t)),
        bfs: e.submit(BfsProgram::new(t, depth)),
        poi: e.submit(PoiProgram::new(s)),
        reach: e.submit(ReachProgram::bounded(t, depth + 2)),
        wcc: e.submit(WccProgram),
    }
}

macro_rules! assert_same_outputs {
    ($a:expr, $b:expr, $h:expr) => {{
        prop_assert_eq!($a.output(&$h.sssp), $b.output(&$h.sssp));
        prop_assert_eq!($a.output(&$h.bfs), $b.output(&$h.bfs));
        prop_assert_eq!($a.output(&$h.poi), $b.output(&$h.poi));
        prop_assert_eq!($a.output(&$h.reach), $b.output(&$h.reach));
        prop_assert_eq!($a.output(&$h.wcc), $b.output(&$h.wcc));
        prop_assert!($a.output(&$h.sssp).is_some(), "queries must finish");
    }};
}

/// Pool/DoP accounting coherence, independent of the comparison run:
/// the report's task counter matches the per-outcome totals, and every
/// traversal-served outcome's effective DoP is within budget.
fn check_pool_accounting(
    report: &EngineReport,
    expect_threads: usize,
    k: usize,
    dop_cap: Option<usize>,
) {
    assert_eq!(report.pool.threads, expect_threads, "pool width recorded");
    let outcome_tasks: u64 = report.outcomes.iter().map(|o| o.tasks).sum();
    assert_eq!(
        report.pool.tasks, outcome_tasks,
        "pool task counter must reconcile with per-query task totals"
    );
    for o in report.outcomes.iter() {
        if o.tasks > 0 {
            assert!(
                (1..=k as u32).contains(&o.effective_dop),
                "effective DoP of {:?} out of range: {}",
                o.id,
                o.effective_dop
            );
            assert!(
                o.tasks >= u64::from(o.iterations),
                "at least one task per superstep"
            );
            if let Some(cap) = dop_cap {
                assert!(
                    o.effective_dop as usize <= cap,
                    "DoP budget {} exceeded by {:?}: {}",
                    cap,
                    o.id,
                    o.effective_dop
                );
            }
        }
    }
}

/// Drive one engine through the phased workload: mutation epochs land in
/// their own `run()` (so they apply at a quiescent, width-independent
/// point), query batches in theirs.
fn drive<E: Engine>(
    e: &mut E,
    mutate: &mut dyn FnMut(&mut E, MutationBatch),
    n: usize,
    s: u32,
    t: u32,
    depth: u32,
) -> (MixedHandles, MixedHandles) {
    let mut m1 = MutationBatch::new();
    m1.add_edge(0, (n as u32 - 1) % n as u32, 0.5);
    m1.add_vertex();
    mutate(e, m1);
    e.run();
    let h_a = submit_mixed(e, n, s, t, depth);
    e.run();
    let mut m2 = MutationBatch::new();
    m2.add_edge(s % n as u32, t % n as u32, 0.25);
    m2.remove_edge(0, 1);
    mutate(e, m2);
    e.run();
    let h_b = submit_mixed(e, n, t.wrapping_add(3), s.wrapping_add(7), depth + 1);
    e.run();
    (h_a, h_b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sim engine, adaptivity off: every (pool width, DoP budget) pair —
    /// width 1, width = partitions, width > partitions; adaptive, pinned,
    /// and per-program budgets — reproduces the fixed-partition
    /// baseline's outputs *and* its full structural fingerprint across
    /// two mutation epochs.
    #[test]
    fn sim_elastic_matches_fixed_partition_baseline(
        (n, extra) in arb_graph(32),
        k in 2usize..5,
        s in 0u32..40,
        t in 0u32..40,
        depth in 0u32..4,
    ) {
        let g = build_tagged(n, &extra);
        let mk = |pool_threads: usize, dop: DopPolicy| {
            let parts = HashPartitioner::default().partition(&g, k);
            SimEngine::new(
                Arc::clone(&g),
                ClusterModel::scale_up(k),
                parts,
                SystemConfig { pool_threads, dop, ..Default::default() },
            )
        };
        let mut mutate_sim = |e: &mut SimEngine, m: MutationBatch| e.mutate(m);

        let mut base = mk(0, DopPolicy::Adaptive);
        let (bh_a, bh_b) = drive(&mut base, &mut mutate_sim, n, s, t, depth);
        let base_fp = fingerprint(base.report());
        check_pool_accounting(base.report(), k, k, None);

        let widths = [1usize, k, 2 * k + 1];
        let dops = [
            DopPolicy::Adaptive,
            DopPolicy::Fixed(1),
            DopPolicy::Fixed(2),
            DopPolicy::per_program(&[("sssp", 1), ("wcc", 4)]),
        ];
        for &w in &widths {
            for dop in &dops {
                let cap = match dop {
                    DopPolicy::Fixed(c) => Some(*c),
                    _ => None,
                };
                let mut e = mk(w, dop.clone());
                let (h_a, h_b) = drive(&mut e, &mut mutate_sim, n, s, t, depth);
                assert_same_outputs!(e, base, h_a);
                assert_same_outputs!(e, base, h_b);
                prop_assert_eq!(h_a.sssp.id(), bh_a.sssp.id());
                prop_assert_eq!(h_b.wcc.id(), bh_b.wcc.id());
                prop_assert_eq!(
                    &fingerprint(e.report()), &base_fp,
                    "width {} dop {:?}: structure must match the baseline", w, dop
                );
                check_pool_accounting(e.report(), w, k, cap);
            }
        }
    }

    /// Sim engine with Q-cut forced on over the same phased workload:
    /// migration points shift with pool timing, so (like the combiner ≡
    /// Q-cut precedent) the comparable surface is answers, the partition
    /// cover, and the pool/DoP accounting — all of which must hold at
    /// every width.
    #[test]
    fn sim_elastic_with_qcut_matches_baseline_answers(
        (n, extra) in arb_graph(28),
        seed in 0u64..20,
        s in 0u32..40,
        t in 0u32..40,
    ) {
        let g = build_tagged(n, &extra);
        let mk = |pool_threads: usize, dop: DopPolicy| {
            let parts = HashPartitioner::default().partition(&g, 3);
            SimEngine::new(
                Arc::clone(&g),
                ClusterModel::scale_up(3),
                parts,
                SystemConfig {
                    pool_threads,
                    dop,
                    qcut: Some(QcutConfig {
                        locality_threshold: 1.0,
                        min_repartition_interval_secs: 0.0,
                        ils_budget_secs: 1e-6,
                        ils_max_rounds: 8,
                        seed,
                        ..QcutConfig::default()
                    }),
                    max_parallel_queries: 4,
                    ..Default::default()
                },
            )
        };
        let mut mutate_sim = |e: &mut SimEngine, m: MutationBatch| e.mutate(m);
        let mut base = mk(0, DopPolicy::Adaptive);
        let (bh_a, bh_b) = drive(&mut base, &mut mutate_sim, n, s, t, 3);
        for (w, dop) in [(1usize, DopPolicy::Fixed(1)), (2, DopPolicy::Adaptive), (7, DopPolicy::Fixed(2))] {
            let mut e = mk(w, dop);
            let (h_a, h_b) = drive(&mut e, &mut mutate_sim, n, s, t, 3);
            prop_assert_eq!(h_a.sssp.id(), bh_a.sssp.id());
            prop_assert_eq!(h_b.reach.id(), bh_b.reach.id());
            assert_same_outputs!(e, base, h_a);
            assert_same_outputs!(e, base, h_b);
            prop_assert_eq!(e.partitioning().num_vertices(), base.partitioning().num_vertices());
            prop_assert_eq!(
                e.partitioning().sizes().iter().sum::<usize>(),
                base.partitioning().sizes().iter().sum::<usize>()
            );
            check_pool_accounting(e.report(), w, 3, None);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Thread runtime: real pool threads drawing from the shared queues.
    /// With Q-cut off the full structural fingerprint must match the
    /// fixed baseline at every width/budget; with the stop-the-world
    /// Q-cut loop forced on, answers and accounting must. Mutation
    /// epochs land between drains on both sides.
    #[test]
    fn thread_elastic_matches_fixed_partition_baseline(
        (n, extra) in arb_graph(24),
        qcut in 0usize..2,
        s in 0u32..40,
        t in 0u32..40,
        depth in 0u32..4,
    ) {
        let g = build_tagged(n, &extra);
        let k = 3usize;
        let mk = |pool_threads: usize, dop: DopPolicy| {
            let parts = HashPartitioner::default().partition(&g, k);
            ThreadEngine::with_config(
                Arc::clone(&g),
                parts,
                SystemConfig {
                    pool_threads,
                    dop,
                    qcut: (qcut == 1).then(|| QcutConfig {
                        locality_threshold: 1.0,
                        min_repartition_interval_secs: 0.0,
                        ils_budget_secs: 1e-6,
                        ils_max_rounds: 8,
                        ..QcutConfig::default()
                    }),
                    ..Default::default()
                },
            )
        };
        let mut mutate_thread = |e: &mut ThreadEngine, m: MutationBatch| e.mutate(m);
        let mut base = mk(0, DopPolicy::Adaptive);
        let (bh_a, bh_b) = drive(&mut base, &mut mutate_thread, n, s, t, depth);
        let base_fp = fingerprint(base.report());
        for (w, dop) in [
            (1usize, DopPolicy::Adaptive),
            (1, DopPolicy::Fixed(1)),
            (k + 2, DopPolicy::Fixed(2)),
            (k + 2, DopPolicy::Adaptive),
        ] {
            let cap = match dop {
                DopPolicy::Fixed(c) => Some(c),
                _ => None,
            };
            let mut e = mk(w, dop.clone());
            let (h_a, h_b) = drive(&mut e, &mut mutate_thread, n, s, t, depth);
            prop_assert_eq!(h_a.sssp.id(), bh_a.sssp.id());
            prop_assert_eq!(h_b.wcc.id(), bh_b.wcc.id());
            assert_same_outputs!(e, base, h_a);
            assert_same_outputs!(e, base, h_b);
            if qcut == 0 {
                prop_assert_eq!(
                    &fingerprint(e.report()), &base_fp,
                    "width {} dop {:?}: structure must match the baseline", w, dop
                );
            }
            check_pool_accounting(e.report(), w, k, cap);
            e.shutdown();
        }
        base.shutdown();
    }
}
