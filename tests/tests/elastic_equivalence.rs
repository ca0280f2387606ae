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
//!
//! The same file pins what the elastic pool is *for*, in deterministic
//! simulated time on a road network: an idle analytic finishes sooner
//! at DoP > 1, and at equal thread count the saturation knee of a mixed
//! open-loop stream shifts right.

use std::sync::Arc;

use proptest::prelude::*;
use qgraph_algo::{BfsProgram, PoiProgram, RoadProgram, SsspProgram, WccProgram};
use qgraph_core::programs::ReachProgram;
use qgraph_core::{
    DopPolicy, Engine, EngineReport, QcutConfig, QueryHandle, SimEngine, SystemConfig, ThreadEngine,
};
use qgraph_graph::{Graph, GraphBuilder, MutationBatch, VertexId};
use qgraph_integration_tests::fingerprint;
use qgraph_partition::{HashPartitioner, Partitioner, Partitioning};
use qgraph_sim::ClusterModel;
use qgraph_workload::{
    arrival_times, assign_tags, ArrivalConfig, QueryKind, QuerySpec, RoadNetwork,
    RoadNetworkConfig, RoadNetworkGenerator, WorkloadConfig, WorkloadGenerator,
};

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

/// A BW-like road network at scale 0.08 (≈ 5 k vertices), seed 19.
fn serving_road() -> RoadNetwork {
    let mut net = RoadNetworkGenerator::new(RoadNetworkConfig::bw_like(0.08, 19)).generate();
    assign_tags(&mut net.graph, 0.0, 19);
    net
}

/// Hash partitioning on purpose: frontiers spread across partitions, so
/// scheduling — not placement — is the variable under test.
fn hash_parts(net: &RoadNetwork, k: usize) -> Partitioning {
    HashPartitioner::with_seed(19).partition(&net.graph, k)
}

fn sim_engine(graph: &Arc<Graph>, parts: &Partitioning, cfg: SystemConfig) -> SimEngine {
    SimEngine::new(
        Arc::clone(graph),
        ClusterModel::scale_up(parts.num_workers()),
        parts.clone(),
        cfg,
    )
}

/// One whole-graph WCC on an otherwise idle engine: under `Fixed(1)` its
/// per-partition tasks run one at a time, under `Adaptive` it fans to the
/// pool width. Same outputs, same task count, so only the wider budget
/// can make it finish sooner.
#[test]
fn idle_analytic_finishes_sooner_at_adaptive_dop() {
    let net = serving_road();
    let parts = hash_parts(&net, 8);
    let graph = Arc::new(net.graph);
    let run = |dop| {
        let mut e = sim_engine(
            &graph,
            &parts,
            SystemConfig {
                dop,
                ..Default::default()
            },
        );
        e.submit(WccProgram);
        e.run().outcomes[0]
    };
    let serial = run(DopPolicy::Fixed(1));
    let elastic = run(DopPolicy::Adaptive);
    assert!(
        elastic.time_in_system_secs() < serial.time_in_system_secs(),
        "idle analytic must speed up with DoP > 1: serial {:.6}s vs elastic {:.6}s",
        serial.time_in_system_secs(),
        elastic.time_in_system_secs()
    );
    assert!(
        elastic.effective_dop > 1,
        "the adaptive budget must actually fan the analytic out"
    );
}

/// One job of the mixed open-loop stream.
enum Job {
    /// A road point query (pinned to DoP 1 under `Adaptive`).
    Point { source: VertexId, target: VertexId },
    /// A deep k-hop flood (fans to the pool width under `Adaptive`).
    Flood { source: VertexId, depth: u32 },
}

/// Every point query of the generated road workload, with a deep flood
/// riding along every eighth submission.
fn mixed_jobs(specs: &[QuerySpec], graph_vertices: u32) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (i, s) in specs.iter().enumerate() {
        match s.kind {
            QueryKind::Sssp { source, target } => jobs.push(Job::Point { source, target }),
            QueryKind::Poi { source } => jobs.push(Job::Flood { source, depth: 8 }),
        }
        if i % 8 == 4 {
            jobs.push(Job::Flood {
                source: VertexId((i as u32 * 257 + 13) % graph_vertices),
                depth: 24,
            });
        }
    }
    jobs
}

/// Run the stream open-loop at `rate_qps` (Poisson arrivals, seed 23).
fn run_stream(
    graph: &Arc<Graph>,
    parts: &Partitioning,
    jobs: &[Job],
    dop: DopPolicy,
    pool_threads: usize,
    rate_qps: f64,
) -> EngineReport {
    let cfg = SystemConfig {
        pool_threads,
        dop,
        ..Default::default()
    };
    let mut engine = sim_engine(graph, parts, cfg);
    let times = arrival_times(&ArrivalConfig::poisson(jobs.len(), rate_qps, 23));
    for (job, at) in jobs.iter().zip(times) {
        match *job {
            Job::Point { source, target } => {
                engine.submit_at(RoadProgram::sssp(source, target), at);
            }
            Job::Flood { source, depth } => {
                engine.submit_at(BfsProgram::new(source, depth), at);
            }
        }
    }
    engine.run().clone()
}

/// Two engines at equal thread count `T` = 4 take the same mixed stream
/// across a ladder of arrival rates:
/// * fixed — `T` partitions, `DopPolicy::Fixed(T)`: one coarse lane per
///   partition, every query fanned to everything it touches;
/// * elastic — `4·T` partitions, `DopPolicy::Adaptive`: finer morsels on
///   the same thread budget, point queries pinned to DoP 1.
///
/// Each curve's knee is the highest rate whose p95 time-in-system stays
/// under 4× that configuration's *own* idle p95 (finer partitions buy a
/// higher per-query floor, so an absolute threshold would conflate
/// per-query cost with saturation). The elastic knee must lie strictly
/// right of the fixed one, inside the ladder, with no job lost.
#[test]
fn the_saturation_knee_shifts_right_for_elastic_dop() {
    let threads = 4;
    let net = serving_road();
    let specs =
        WorkloadGenerator::new(&net).generate(&WorkloadConfig::single(80, false, false, 19));
    let fixed = (hash_parts(&net, threads), DopPolicy::Fixed(threads));
    let elastic = (hash_parts(&net, 4 * threads), DopPolicy::Adaptive);
    let graph = Arc::new(net.graph);
    let jobs = mixed_jobs(&specs, graph.num_vertices() as u32);
    let run = |(parts, dop): &(Partitioning, DopPolicy), rate: f64| {
        run_stream(&graph, parts, &jobs, dop.clone(), threads, rate).slo()
    };

    // At 1 query/s the stream is effectively idle (virtual service times
    // are milliseconds): each curve's flat-region floor. The ladder
    // brackets the fixed engine's perfect-parallelism capacity.
    let fixed_idle = run(&fixed, 1.0).time_in_system;
    let capacity_est = threads as f64 / ((fixed_idle.p50 + fixed_idle.p95) / 2.0).max(1e-9);
    let ladder = [0.25, 0.375, 0.56, 0.84, 1.27, 1.9, 2.85, 4.27, 6.4].map(|f| f * capacity_est);
    let knee = |config: &(Partitioning, DopPolicy), idle_p95: f64| {
        let threshold = 4.0 * idle_p95;
        let mut knee = 0.0f64;
        for &rate in &ladder {
            let slo = run(config, rate);
            // An open queue rejects nothing: the knee is about latency.
            assert_eq!(
                slo.completed,
                jobs.len(),
                "every job completes at {rate:.1} qps"
            );
            if slo.time_in_system.p95 <= threshold {
                knee = rate;
            }
        }
        knee
    };
    let fixed_knee = knee(&fixed, fixed_idle.p95);
    let elastic_knee = knee(&elastic, run(&elastic, 1.0).time_in_system.p95);
    println!("knee: fixed {fixed_knee:.1} qps, elastic {elastic_knee:.1} qps");

    assert!(
        elastic_knee > fixed_knee,
        "elastic knee did not shift right of the fixed baseline: {elastic_knee:.1} vs {fixed_knee:.1} qps"
    );
    assert!(
        fixed_knee > 0.0,
        "threshold calibration broken: even the lowest rate violated the SLO"
    );
    assert!(
        elastic_knee < ladder[ladder.len() - 1],
        "the elastic knee must be interior to the ladder, not a ceiling artifact"
    );
}
