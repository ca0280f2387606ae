//! Index-plane conformance: hub-label serving must be indistinguishable
//! from traversal, on both runtimes, across mutation epochs.
//!
//! Three layers:
//! * **static conformance** — an index built over each engine's topology
//!   answers every dist/reach pair exactly as `qgraph_algo::reference`
//!   does, the outcomes are tagged `ServedBy::Index` with zero traversal
//!   work, and the build itself leaves no query in the engine's report;
//! * **repair conformance** — after each of a stream of mutation batches
//!   (applied through the engine, repairing the installed index at the
//!   barrier), index-served answers still match the reference graph of
//!   that epoch;
//! * **a property test** — random mutation programs (≥3 batches,
//!   integer weights so f32 arithmetic is exact) on both runtimes: every
//!   index answer equals the reference, every eligible query is actually
//!   index-served.
//!
//! Plus the validity rule: with repair disabled the index goes stale at
//! the first mutation and every query silently falls back to traversal —
//! still correct, just not index-served. And the repair rule itself: a
//! batch that nets to an edge removal rebuilds — to the labels a fresh
//! build commits, entry for entry — and any other batch resumes.

use proptest::prelude::*;
use qgraph_algo::{connected_component_of, dijkstra_to, ReachPointProgram, SsspProgram};
use qgraph_core::{
    Engine, EngineBuilder, MutationBatch, OutcomeStatus, PointAnswer, PointIndex, PointQuery,
    QueryHandle, QueryOutcome, RepairSummary, ServedBy, SystemConfig, Topology,
};
use qgraph_graph::AppliedMutation;
use qgraph_graph::{Graph, GraphBuilder, VertexId};
use qgraph_index::{IndexConfig, LabelIndex};
use qgraph_partition::HashPartitioner;
use qgraph_workload::{
    generate_ba, generate_point_queries, generate_ws, nets_to_removal, BarabasiAlbertConfig,
    PointWorkloadConfig, RoadNetworkConfig, RoadNetworkGenerator, WattsStrogatzConfig,
};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// A connected ring + chords world with integer weights (exact in f32).
fn ring_world(n: u32) -> Graph {
    let mut b = GraphBuilder::new(n as usize);
    for i in 0..n {
        b.add_undirected_edge(i, (i + 1) % n, 1.0 + (i % 7) as f32);
    }
    for i in (0..n).step_by(9) {
        b.add_undirected_edge(i, (i + n / 3) % n, 2.0);
    }
    b.build()
}

fn outcome_of(engine: &impl Engine, id: qgraph_core::QueryId) -> &QueryOutcome {
    engine
        .report()
        .outcomes
        .iter()
        .find(|o| o.id == id)
        .expect("every submission has an outcome")
}

/// The installed index behind a shared handle: the engine owns a
/// `Box<dyn PointIndex>`, the test keeps a clone to read the labels its
/// barriers repaired.
#[derive(Clone)]
struct SharedIndex(Arc<Mutex<LabelIndex>>);

impl SharedIndex {
    fn install<E: Engine>(engine: &mut E, index: LabelIndex) -> Self {
        let shared = SharedIndex(Arc::new(Mutex::new(index)));
        engine.install_index(Box::new(shared.clone()));
        shared
    }

    /// Audit the labels against `topology`, and — when the last batch
    /// rebuilt — hold them to a fresh build's, entry for entry.
    fn check(&self, topology: &Topology, rebuilt: bool, ctx: &str) {
        let index = self.0.lock().unwrap();
        index.audit(topology);
        if rebuilt {
            let fresh = LabelIndex::build(topology, *index.config());
            assert_eq!(index.labels().order, fresh.labels().order, "{ctx}");
            assert_eq!(
                index.labels().out_labels,
                fresh.labels().out_labels,
                "{ctx}"
            );
            assert_eq!(index.labels().in_labels, fresh.labels().in_labels, "{ctx}");
        }
    }
}

impl PointIndex for SharedIndex {
    fn serve(&self, q: &PointQuery) -> Option<PointAnswer> {
        self.0.lock().unwrap().serve(q)
    }

    fn repaired_through(&self) -> u64 {
        self.0.lock().unwrap().repaired_through()
    }

    fn repair(&mut self, t: &Topology, applied: &AppliedMutation, epoch: u64) -> RepairSummary {
        self.0.lock().unwrap().repair(t, applied, epoch)
    }

    fn set_parallelism(&mut self, threads: usize) {
        self.0.lock().unwrap().set_parallelism(threads)
    }
}

/// Submit the pair stream as real queries and check answers + tags
/// against `reference` (the materialized graph of the current epoch).
fn serve_and_check<E: Engine>(
    engine: &mut E,
    reference: &Graph,
    pairs: &[(u32, u32)],
    expect: ServedBy,
    ctx: &str,
) {
    let mut handles = Vec::new();
    for &(s, t) in pairs {
        let dist = engine.submit(SsspProgram::new(VertexId(s), VertexId(t)));
        let reach = engine.submit(ReachPointProgram::new(VertexId(s), VertexId(t)));
        handles.push((s, t, dist, reach));
    }
    engine.run();
    for (s, t, dist, reach) in handles {
        let want = dijkstra_to(reference, VertexId(s), VertexId(t));
        let got = *engine.output(&dist).expect("sssp finished");
        assert_eq!(got, want, "{ctx}: dist {s}->{t}");
        let want_reach = connected_component_of(reference, VertexId(s)).contains(&VertexId(t));
        let got_reach = *engine.output(&reach).expect("reach finished");
        assert_eq!(got_reach, want_reach, "{ctx}: reach {s}->{t}");
        for id in [dist.id(), reach.id()] {
            let o = outcome_of(engine, id);
            assert_eq!(o.status, OutcomeStatus::Completed, "{ctx}: {s}->{t}");
            assert_eq!(o.served_by, expect, "{ctx}: {s}->{t} serving path");
            if expect == ServedBy::Index {
                assert_eq!(o.iterations, 0, "{ctx}: index hits run no supersteps");
                assert_eq!(o.vertex_updates, 0, "{ctx}: index hits touch no vertices");
            }
        }
    }
}

fn pair_stream(n: u32, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let live: Vec<VertexId> = (0..n).map(VertexId).collect();
    generate_point_queries(&live, &PointWorkloadConfig::uniform(count, seed))
        .into_iter()
        .map(|s| (s.source.0, s.target.0))
        .collect()
}

// ---------------------------------------------------------------------
// Static conformance, both runtimes.
// ---------------------------------------------------------------------

fn static_conformance<E: Engine>(mut engine: E, label: &str) {
    let reference = engine.topology_snapshot().materialize();
    let index = LabelIndex::build(&engine.topology_snapshot(), IndexConfig::default());
    assert_eq!(index.repaired_through(), 0);
    engine.install_index(Box::new(index));
    serve_and_check(
        &mut engine,
        &reference,
        &pair_stream(48, 24, 7),
        ServedBy::Index,
        label,
    );
    let report = engine.report();
    assert_eq!(report.index_served(), 48, "{label}: all 48 queries indexed");
    // The build ran beside the engine, not through it: the report holds
    // the caller's queries only.
    assert_eq!(report.traversal_served(), 0, "{label}");
}

#[test]
fn sim_index_serves_point_queries_exactly() {
    static_conformance(
        EngineBuilder::new(ring_world(48))
            .workers(3)
            .partitioner(HashPartitioner::default())
            .build_sim(),
        "sim/static",
    );
}

#[test]
fn thread_index_serves_point_queries_exactly() {
    static_conformance(
        EngineBuilder::new(ring_world(48))
            .workers(3)
            .partitioner(HashPartitioner::default())
            .build_threaded(),
        "thread/static",
    );
}

// ---------------------------------------------------------------------
// Repair conformance across a mutation stream, both runtimes.
// ---------------------------------------------------------------------

/// The settle step differs per runtime (see tests/tests/mutation.rs).
trait MutableEngine: Engine {
    fn apply_and_settle(&mut self, batch: MutationBatch);
    /// Stream the batch in *without* settling, so subsequent submissions
    /// race its barrier. `step` spaces the barriers out in virtual time
    /// on the sim engine (interleaved submissions at one instant would
    /// all be admitted before the first quiescent point); the thread
    /// engine races for real and ignores it.
    fn enqueue_mutation(&mut self, batch: MutationBatch, step: u64);
    /// Submit a probe racing the `step`-th barrier.
    fn submit_racing(&mut self, program: SsspProgram, step: u64) -> QueryHandle<SsspProgram>;
}

impl MutableEngine for qgraph_core::SimEngine {
    fn apply_and_settle(&mut self, batch: MutationBatch) {
        self.mutate(batch);
        qgraph_core::SimEngine::run(self);
    }

    fn enqueue_mutation(&mut self, batch: MutationBatch, step: u64) {
        self.mutate_at(batch, step as f64);
    }

    fn submit_racing(&mut self, program: SsspProgram, step: u64) -> QueryHandle<SsspProgram> {
        self.submit_at(program, step as f64 + 0.5)
    }
}

impl MutableEngine for qgraph_core::ThreadEngine {
    fn apply_and_settle(&mut self, batch: MutationBatch) {
        self.mutate(batch);
        self.drain();
    }

    fn enqueue_mutation(&mut self, batch: MutationBatch, _step: u64) {
        self.mutate(batch);
    }

    fn submit_racing(&mut self, program: SsspProgram, _step: u64) -> QueryHandle<SsspProgram> {
        self.submit(program)
    }
}

/// A deterministic mixed mutation stream: removals, inserts, reweights,
/// and one new vertex, all integer-weighted.
fn mixed_batches(n: u32) -> Vec<MutationBatch> {
    let mut batches = Vec::new();
    let mut b = MutationBatch::new();
    b.remove_undirected_edge(0, 1).add_edge(2, 17, 1.0);
    batches.push(b);
    let mut b = MutationBatch::new();
    b.set_weight(3, 4, 9.0).set_weight(4, 3, 1.0);
    b.add_undirected_edge(5, n - 2, 2.0);
    batches.push(b);
    let mut b = MutationBatch::new();
    b.add_vertex();
    b.add_edge(n, 0, 1.0).add_edge(7, n, 3.0);
    batches.push(b);
    let mut b = MutationBatch::new();
    b.remove_edge(2, 17).remove_undirected_edge(9, 10);
    b.add_undirected_edge(11, 30, 4.0);
    batches.push(b);
    batches
}

fn repair_conformance<E: MutableEngine>(mut engine: E, label: &str) {
    let n = 36u32;
    let index = LabelIndex::build(&engine.topology_snapshot(), IndexConfig::default());
    let shared = SharedIndex::install(&mut engine, index);
    let mut replay = Topology::new(ring_world(n));
    // Removal; reweight-up (3→4 weighs 4); new vertex + inserts; removals.
    let rebuilds = [true, true, false, true];
    for (e, batch) in mixed_batches(n).into_iter().enumerate() {
        let before = replay.clone();
        replay.apply(&batch);
        assert_eq!(nets_to_removal(&before, &replay), rebuilds[e]);
        engine.apply_and_settle(batch);
        shared.check(&replay, rebuilds[e], &format!("{label} epoch {}", e + 1));
        let reference = replay.materialize();
        let live = reference.num_vertices() as u32;
        let pairs: Vec<(u32, u32)> = pair_stream(live, 12, 100 + e as u64);
        serve_and_check(
            &mut engine,
            &reference,
            &pairs,
            ServedBy::Index,
            &format!("{label} epoch {}", e + 1),
        );
    }
    // Each batch produced one repair event at its barrier.
    let repairs = &engine.report().index_repairs;
    assert_eq!(repairs.len(), 4, "{label}: one repair per batch");
    for (i, r) in repairs.iter().enumerate() {
        assert_eq!(r.epoch, i as u64 + 1, "{label}: repair epochs in order");
        assert_eq!(r.summary.rebuilt, rebuilds[i], "{label}: {r:?}");
    }
}

#[test]
fn sim_index_repairs_across_mutation_epochs() {
    repair_conformance(
        EngineBuilder::new(ring_world(36))
            .workers(3)
            .partitioner(HashPartitioner::default())
            .build_sim(),
        "sim/repair",
    );
}

#[test]
fn thread_index_repairs_across_mutation_epochs() {
    repair_conformance(
        EngineBuilder::new(ring_world(36))
            .workers(3)
            .partitioner(HashPartitioner::default())
            .build_threaded(),
        "thread/repair",
    );
}

// ---------------------------------------------------------------------
// The other side of the rule: a batch with no netted removal keeps the
// labels and resumes — or, when its events cancel, runs nothing at all.
// ---------------------------------------------------------------------

fn insert_only_batches_resume<E: MutableEngine>(mut engine: E, label: &str) {
    let n = 36u32;
    let index = LabelIndex::build(&engine.topology_snapshot(), IndexConfig::default());
    let shared = SharedIndex::install(&mut engine, index);
    let mut replay = Topology::new(ring_world(n));

    // Two shortcuts and a reweight-down (18→19 weighs 5).
    let mut inserts = MutationBatch::new();
    inserts
        .add_undirected_edge(2, 20, 1.0)
        .add_edge(30, 7, 2.0)
        .set_weight(18, 19, 1.0);
    // An edge that comes and goes inside one batch.
    let mut ephemeral = MutationBatch::new();
    ephemeral.add_edge(4, 25, 1.0).remove_edge(4, 25);
    for (e, batch) in [inserts, ephemeral].into_iter().enumerate() {
        let before = replay.clone();
        replay.apply(&batch);
        assert!(!nets_to_removal(&before, &replay));
        engine.apply_and_settle(batch);
        let ctx = format!("{label} epoch {}", e + 1);
        shared.check(&replay, false, &ctx);
        let pairs = pair_stream(n, 12, 500 + e as u64);
        check_epoch_against_fresh_build(&mut engine, &replay, &pairs, &ctx);
    }
    let repairs = &engine.report().index_repairs;
    let resumed = repairs[0].summary;
    assert!(!resumed.rebuilt && resumed.roots_rerun > 0, "{resumed:?}");
    assert_eq!(resumed.labels_removed, 0, "{label}: {resumed:?}");
    assert_eq!(
        repairs[1].summary,
        RepairSummary::default(),
        "{label}: a batch that nets to nothing runs zero passes"
    );
}

#[test]
fn sim_insert_only_batches_resume_without_rebuilding() {
    insert_only_batches_resume(
        EngineBuilder::new(ring_world(36))
            .workers(3)
            .partitioner(HashPartitioner::default())
            .build_sim(),
        "sim/insert",
    );
}

#[test]
fn thread_insert_only_batches_resume_without_rebuilding() {
    insert_only_batches_resume(
        EngineBuilder::new(ring_world(36))
            .workers(3)
            .partitioner(HashPartitioner::default())
            .build_threaded(),
        "thread/insert",
    );
}

// ---------------------------------------------------------------------
// Regression: installing an index must not clobber its own thread count.
// `SystemConfig::index_build_threads` defaults to 0 ("nothing to say"),
// and both engines used to forward that 0 unconditionally — overwriting
// a caller's `IndexConfig { build_threads: 1, .. }` with "auto".
// ---------------------------------------------------------------------

/// Records every parallelism hint it is handed; serves nothing.
struct HintRecorder(Arc<Mutex<Vec<usize>>>);

impl PointIndex for HintRecorder {
    fn serve(&self, _q: &PointQuery) -> Option<PointAnswer> {
        None
    }

    fn repaired_through(&self) -> u64 {
        0
    }

    fn repair(&mut self, _t: &Topology, _a: &AppliedMutation, _epoch: u64) -> RepairSummary {
        RepairSummary::default()
    }

    fn set_parallelism(&mut self, threads: usize) {
        self.0.lock().unwrap().push(threads);
    }
}

fn hints_received<E: Engine>(
    build: impl Fn(EngineBuilder) -> E,
    index_build_threads: usize,
) -> Vec<usize> {
    let config = SystemConfig {
        index_build_threads,
        ..SystemConfig::default()
    };
    let mut engine = build(EngineBuilder::new(ring_world(12)).workers(2).config(config));
    let hints = Arc::new(Mutex::new(Vec::new()));
    engine.install_index(Box::new(HintRecorder(Arc::clone(&hints))));
    let got = hints.lock().unwrap().clone();
    got
}

#[test]
fn install_forwards_only_a_nonzero_thread_hint() {
    for (runtime, got) in [
        ("sim", hints_received(EngineBuilder::build_sim, 0)),
        ("thread", hints_received(EngineBuilder::build_threaded, 0)),
    ] {
        assert!(got.is_empty(), "{runtime}: default config sent {got:?}");
    }
    for (runtime, got) in [
        ("sim", hints_received(EngineBuilder::build_sim, 3)),
        ("thread", hints_received(EngineBuilder::build_threaded, 3)),
    ] {
        assert_eq!(got, vec![3], "{runtime}");
    }
}

// ---------------------------------------------------------------------
// Regression: admission racing a mutation barrier. A query admitted at
// epoch e must answer for epoch e's graph — never from an index only
// repaired through e-1. Each probe pair's distance *changes* at its
// batch, so serving from the stale labels would be caught.
// ---------------------------------------------------------------------

fn admission_races_barrier<E: MutableEngine>(mut engine: E, label: &str) {
    let n = 36u32;
    let probes: Vec<(u32, u32)> = (0..4).map(|k| (9 * k, 9 * k + 1)).collect();

    // Per-epoch references: epoch k+1 removes the ring edge under probe k.
    let mut replay = Topology::new(ring_world(n));
    let mut refs = vec![replay.materialize()];
    let mut batches = Vec::new();
    for &(a, b) in &probes {
        let mut batch = MutationBatch::new();
        batch.remove_undirected_edge(a, b);
        replay.apply(&batch);
        refs.push(replay.materialize());
        batches.push(batch);
    }
    // Sensitivity: every probe's distance really changes at its batch, so
    // an answer from the previous epoch's labels cannot pass as correct.
    for (k, &(a, b)) in probes.iter().enumerate() {
        let before = dijkstra_to(&refs[k], VertexId(a), VertexId(b));
        let after = dijkstra_to(&refs[k + 1], VertexId(a), VertexId(b));
        assert_ne!(before, after, "probe {k} must be epoch-sensitive");
    }

    let index = LabelIndex::build(&engine.topology_snapshot(), IndexConfig::default());
    engine.install_index(Box::new(index));

    // Interleave barriers and submissions with no settling in between:
    // each burst races the batch just streamed in.
    let mut handles = Vec::new();
    for (k, batch) in batches.into_iter().enumerate() {
        engine.enqueue_mutation(batch, k as u64);
        for &(a, b) in &probes {
            handles.push((
                a,
                b,
                engine.submit_racing(SsspProgram::new(VertexId(a), VertexId(b)), k as u64),
            ));
        }
    }
    engine.run();

    let mut indexed = 0usize;
    let mut post_barrier = 0usize;
    for (a, b, h) in handles {
        let got = *engine.output(&h).expect("sssp finished");
        let o = outcome_of(&engine, h.id());
        assert_eq!(o.status, OutcomeStatus::Completed, "{label}: {a}->{b}");
        let e = o.first_epoch as usize;
        assert!(e < refs.len(), "{label}: epoch {e} in range");
        let want = dijkstra_to(&refs[e], VertexId(a), VertexId(b));
        assert_eq!(got, want, "{label}: {a}->{b} admitted at epoch {e}");
        if o.served_by == ServedBy::Index {
            indexed += 1;
            assert_eq!(
                o.first_epoch, o.last_epoch,
                "{label}: an index hit answers for exactly one epoch"
            );
        }
        if e > 0 {
            post_barrier += 1;
        }
    }
    assert!(indexed > 0, "{label}: the index served some racing queries");
    assert!(
        post_barrier > 0,
        "{label}: some queries were admitted past a barrier"
    );
}

#[test]
fn sim_admission_racing_barrier_answers_for_its_epoch() {
    admission_races_barrier(
        EngineBuilder::new(ring_world(36))
            .workers(3)
            .partitioner(HashPartitioner::default())
            .build_sim(),
        "sim/race",
    );
}

#[test]
fn thread_admission_racing_barrier_answers_for_its_epoch() {
    admission_races_barrier(
        EngineBuilder::new(ring_world(36))
            .workers(3)
            .partitioner(HashPartitioner::default())
            .build_threaded(),
        "thread/race",
    );
}

// ---------------------------------------------------------------------
// Validity rule: a stale index must not serve.
// ---------------------------------------------------------------------

#[test]
fn stale_index_falls_back_to_traversal() {
    let n = 30u32;
    let mut engine = EngineBuilder::new(ring_world(n)).workers(2).build_sim();
    let index = LabelIndex::build(
        &engine.topology_snapshot(),
        IndexConfig {
            repair: false,
            ..IndexConfig::default()
        },
    );
    engine.install_index(Box::new(index));

    // Valid at epoch 0: served by the index.
    let reference = Topology::new(ring_world(n)).materialize();
    serve_and_check(
        &mut engine,
        &reference,
        &[(0, 15), (7, 3)],
        ServedBy::Index,
        "epoch 0",
    );

    // One mutation; repair is disabled, so the index is now permanently
    // behind — every answer must come from a traversal, and still be
    // correct for the *new* graph.
    let mut replay = Topology::new(ring_world(n));
    let mut batch = MutationBatch::new();
    batch
        .remove_undirected_edge(0, 1)
        .add_undirected_edge(2, 20, 1.0);
    replay.apply(&batch);
    engine.mutate(batch);
    qgraph_core::SimEngine::run(&mut engine);
    serve_and_check(
        &mut engine,
        &replay.materialize(),
        &[(0, 15), (7, 3), (1, 0)],
        ServedBy::Traversal,
        "stale epoch 1",
    );
    assert_eq!(engine.report().index_served(), 4);
    // The 6 fallbacks; building the index submitted nothing.
    assert_eq!(engine.report().traversal_served(), 6);
}

// ---------------------------------------------------------------------
// Ineligible programs never take the index path.
// ---------------------------------------------------------------------

#[test]
fn floods_stay_on_the_traversal_path() {
    let mut engine = EngineBuilder::new(ring_world(24)).workers(2).build_sim();
    let index = LabelIndex::build(&engine.topology_snapshot(), IndexConfig::default());
    engine.install_index(Box::new(index));
    let q = engine.submit(qgraph_core::programs::ReachProgram::new(VertexId(0)));
    engine.run();
    assert_eq!(engine.output(&q).expect("finished").len(), 24);
    let o = outcome_of(&engine, q.id());
    assert_eq!(o.served_by, ServedBy::Traversal);
    assert!(o.iterations > 0, "a flood really traversed");
}

// ---------------------------------------------------------------------
// Property: random mutation programs, both runtimes, repair enabled.
// ---------------------------------------------------------------------

/// ≥3 batches of random integer-weighted ops over a random base size.
#[allow(clippy::type_complexity)]
fn arb_mutation_program() -> impl Strategy<Value = (u32, Vec<Vec<(u32, u32, u32, u32)>>)> {
    (
        10u32..24,
        prop::collection::vec(
            prop::collection::vec((0u32..4, 0u32..64, 0u32..64, 1u32..10), 1..8),
            3..6,
        ),
    )
}

fn apply_program<E: MutableEngine>(
    mut engine: E,
    n: u32,
    batches: &[Vec<(u32, u32, u32, u32)>],
    label: &str,
) {
    let index = LabelIndex::build(&engine.topology_snapshot(), IndexConfig::default());
    let shared = SharedIndex::install(&mut engine, index);
    let mut replay = Topology::new(ring_world(n));
    let mut vcount = n;
    for (e, ops) in batches.iter().enumerate() {
        let mut batch = MutationBatch::new();
        for &(kind, a, b, w) in ops {
            let (a, b) = (a % vcount, b % vcount);
            match kind {
                0 => {
                    if a != b {
                        batch.add_edge(a, b, w as f32);
                    }
                }
                1 => {
                    batch.remove_edge(a, b);
                }
                2 => {
                    batch.set_weight(a, b, w as f32);
                }
                _ => {
                    batch.add_vertex();
                    batch.add_edge(a, vcount, w as f32);
                    batch.add_edge(vcount, b, (w / 2 + 1) as f32);
                    vcount += 1;
                }
            }
        }
        let before = replay.clone();
        replay.apply(&batch);
        engine.apply_and_settle(batch);
        // Some cases resume and some rebuild — both must stay exact.
        let rebuilt = nets_to_removal(&before, &replay);
        shared.check(&replay, rebuilt, &format!("{label} batch {}", e + 1));
        let reference = replay.materialize();
        let pairs = pair_stream(vcount, 6, 31 * (e as u64 + 1));
        serve_and_check(
            &mut engine,
            &reference,
            &pairs,
            ServedBy::Index,
            &format!("{label} batch {}", e + 1),
        );
        let summary = engine.report().index_repairs[e].summary;
        assert_eq!(summary.rebuilt, rebuilt, "{label} batch {}", e + 1);
    }
}

// ---------------------------------------------------------------------
// Removal-biased churn: deletions dominate, so most batches rebuild —
// to exactly the labels of a fresh build — and only the insert-only
// ones stay incremental; the index must answer like traversal every
// epoch. (The two tests keep the names they had when removals, too,
// were repaired incrementally, so the suite still lists them.)
// ---------------------------------------------------------------------

/// A w×h road-like grid with tie-breaking integer weights: removing one
/// segment reroutes locally (Manhattan alternatives), unlike the ring
/// where a cut reroutes half the world. The weight band (4..9) is
/// deliberately narrow: a wide spread turns the cheapest edges into
/// global highways that carry the shortest paths of a large fraction of
/// all pairs.
fn grid_world(w: u32, h: u32) -> Graph {
    let mut b = GraphBuilder::new((w * h) as usize);
    let id = |x: u32, y: u32| y * w + x;
    for y in 0..h {
        for x in 0..w {
            let wt = |a: u32, b: u32| (4 + (a * 7 + b * 13) % 5) as f32;
            if x + 1 < w {
                b.add_undirected_edge(id(x, y), id(x + 1, y), wt(x, y));
            }
            if y + 1 < h {
                b.add_undirected_edge(id(x, y), id(x, y + 1), wt(y, x + 3));
            }
        }
    }
    b.build()
}

/// Every live directed edge of the current topology, in vertex order.
fn live_edges(t: &Topology) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for v in 0..t.num_vertices() as u32 {
        for (to, _) in t.neighbors(VertexId(v)) {
            edges.push((v, to.0));
        }
    }
    edges
}

/// One churn batch: `ops` picks are (selector, a, b); selectors < 7 (70%)
/// remove the selector-th live directed edge, the rest insert.
fn churn_batch(replay: &Topology, n: u32, ops: &[(u32, u32, u32)]) -> MutationBatch {
    let edges = live_edges(replay);
    let mut batch = MutationBatch::new();
    for &(sel, a, b) in ops {
        if sel % 10 < 7 && !edges.is_empty() {
            let (f, t) = edges[(a as usize * 31 + b as usize) % edges.len()];
            batch.remove_edge(f, t);
        } else {
            let (a, b) = (a % n, b % n);
            if a != b {
                batch.add_edge(a, b, ((a + b) % 9 + 1) as f32);
            }
        }
    }
    batch
}

/// Check the engine-served answers AND a fresh `LabelIndex` built from
/// scratch on the same topology against the traversal reference — the
/// repaired labels must be answer-equivalent to a fresh build.
fn check_epoch_against_fresh_build<E: MutableEngine>(
    engine: &mut E,
    replay: &Topology,
    pairs: &[(u32, u32)],
    ctx: &str,
) {
    let reference = replay.materialize();
    let fresh = LabelIndex::build(replay, IndexConfig::default());
    for &(s, t) in pairs {
        let want = dijkstra_to(&reference, VertexId(s), VertexId(t));
        let fresh_ans = fresh.serve(&qgraph_core::PointQuery::Dist {
            source: VertexId(s),
            target: VertexId(t),
        });
        assert_eq!(
            fresh_ans,
            Some(qgraph_core::PointAnswer::Dist(want)),
            "{ctx}: fresh build {s}->{t}"
        );
    }
    serve_and_check(engine, &reference, pairs, ServedBy::Index, ctx);
}

fn removal_heavy_churn<E: MutableEngine>(mut engine: E, label: &str) {
    let n = 432u32;
    let index = LabelIndex::build(&engine.topology_snapshot(), IndexConfig::default());
    let shared = SharedIndex::install(&mut engine, index);
    let mut replay = Topology::new(grid_world(24, 18));

    // Deterministic LCG-driven plan: 10 batches of two ops, ~70%
    // removals.
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ label.len() as u64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let mut removal_epochs = Vec::new();
    for e in 0..10 {
        let ops: Vec<(u32, u32, u32)> = (0..2).map(|_| (rng(), rng(), rng())).collect();
        let batch = churn_batch(&replay, n, &ops);
        let before = replay.clone();
        replay.apply(&batch);
        engine.apply_and_settle(batch);
        let ctx = format!("{label} epoch {}", e + 1);
        // After a removal batch the repaired labels are a fresh build's.
        removal_epochs.push(nets_to_removal(&before, &replay));
        shared.check(&replay, removal_epochs[e], &ctx);
        let pairs = pair_stream(n, 8, 1000 + e as u64);
        check_epoch_against_fresh_build(&mut engine, &replay, &pairs, &ctx);
    }

    // One rule: rebuilt iff the batch netted to a removal; a rebuild
    // runs every root's two passes and drops the whole old index, any
    // other repair drops nothing.
    let repairs = &engine.report().index_repairs;
    assert_eq!(repairs.len(), 10, "{label}: one repair per batch");
    for (r, &removal) in repairs.iter().zip(&removal_epochs) {
        let s = r.summary;
        assert_eq!(s.rebuilt, removal, "{label}: epoch {} {s:?}", r.epoch);
        if removal {
            assert_eq!(s.roots_rerun, 2 * n as usize, "{label}: {s:?}");
            assert!(s.labels_removed > 0, "{label}: {s:?}");
        } else {
            assert_eq!(s.labels_removed, 0, "{label}: {s:?}");
        }
    }
    let rebuilds = removal_epochs.iter().filter(|&&r| r).count();
    assert!(
        (1..10).contains(&rebuilds),
        "{label}: the plan exercises both paths ({rebuilds}/10 rebuilt)"
    );
}

#[test]
fn sim_removal_heavy_churn_stays_incremental_and_exact() {
    removal_heavy_churn(
        EngineBuilder::new(grid_world(24, 18))
            .workers(3)
            .partitioner(HashPartitioner::default())
            .build_sim(),
        "sim/churn",
    );
}

#[test]
fn thread_removal_heavy_churn_stays_incremental_and_exact() {
    removal_heavy_churn(
        EngineBuilder::new(grid_world(24, 18))
            .workers(2)
            .partitioner(HashPartitioner::default())
            .build_threaded(),
        "thread/churn",
    );
}

// ---------------------------------------------------------------------
// The rank order: label-volume guards, build threads, a wide closure
// wave. Entry counts are exact functions of (graph, order), so they
// repeat run to run and can gate.
// ---------------------------------------------------------------------

/// A BW-like road map with real-valued (f32) segment weights.
fn road_map(scale: f64, seed: u64) -> Arc<Graph> {
    Arc::new(
        RoadNetworkGenerator::new(RoadNetworkConfig::bw_like(scale, seed))
            .generate()
            .graph,
    )
}

fn dist_of(index: &LabelIndex, s: u32, t: u32) -> Option<f32> {
    match index.serve(&PointQuery::Dist {
        source: VertexId(s),
        target: VertexId(t),
    }) {
        Some(PointAnswer::Dist(d)) => d,
        other => panic!("dist query {s}->{t} answered {other:?}"),
    }
}

/// The serving map (`qbench`'s `serve-mix` / `evolve-churn` graph) under
/// the coverage × degree order: the deleted degree order committed 552.9
/// entries per vertex here.
#[test]
fn road_map_labels_stay_on_the_diet() {
    let graph = road_map(0.05, 7);
    let index = LabelIndex::build(&Topology::new(Arc::clone(&graph)), IndexConfig::default());
    let per_vertex = index.total_entries() as f64 / graph.num_vertices() as f64;
    println!(
        "road 0.05: {} entries, {per_vertex:.1} per vertex",
        index.total_entries()
    );
    assert!(per_vertex <= 130.0, "{per_vertex:.1} entries per vertex");
}

/// One order must serve every graph: on hub-dominated graphs, where
/// degree alone was already a good order, the product may cost at most
/// 10 % over the deleted degree order's counts (136,878 / 384,764).
#[test]
fn social_graph_labels_stay_within_a_tenth_of_degree_order() {
    let ba = generate_ba(BarabasiAlbertConfig {
        n: 2000,
        m: 4,
        seed: 42,
    });
    let ws = generate_ws(WattsStrogatzConfig {
        n: 2000,
        k: 8,
        beta: 0.05,
        seed: 42,
        ..WattsStrogatzConfig::default()
    });
    for (name, graph, cap) in [("ba", ba, 150_500usize), ("ws", ws, 423_000)] {
        let entries =
            LabelIndex::build(&Topology::new(graph), IndexConfig::default()).total_entries();
        println!("{name} 2000: {entries} entries");
        assert!(entries <= cap, "{name}: {entries} entries > {cap}");
    }
}

/// The labels do not depend on who ran the passes: one build thread and
/// three commit the same order and the same entries.
#[test]
fn build_threads_commit_identical_labels() {
    let topo = Topology::new(road_map(0.01, 17));
    assert!(
        topo.num_vertices() >= 256,
        "below that every build is serial"
    );
    let with = |build_threads: usize| {
        let cfg = IndexConfig {
            build_threads,
            ..IndexConfig::default()
        };
        LabelIndex::build(&topo, cfg)
    };
    let (serial, threaded) = (with(1), with(3));
    assert_eq!(serial.labels().order, threaded.labels().order);
    assert_eq!(serial.labels().out_labels, threaded.labels().out_labels);
    assert_eq!(serial.labels().in_labels, threaded.labels().in_labels);
}

/// `evolve-churn`'s batch shape: 113 road segments (4 % of the serving
/// map) closed at once. It nets to removals, so it rebuilds — the whole
/// old index out, a fresh build's labels in, real-valued weights and all.
#[test]
fn wide_closure_wave_rebuilds_on_its_footprint() {
    let graph = road_map(0.05, 7);
    let mut topo = Topology::new(Arc::clone(&graph));
    let mut index = LabelIndex::build(&topo, IndexConfig::default());
    let entries_before = index.total_entries();

    let mut rng = SmallRng::seed_from_u64(7);
    let mut closed: Vec<(u32, u32)> = Vec::new();
    let mut batch = MutationBatch::new();
    while closed.len() < 113 {
        let v = rng.gen_range(0..graph.num_vertices() as u32);
        let degree = topo.degree(VertexId(v));
        if degree == 0 {
            continue;
        }
        let (t, _) = topo
            .neighbors(VertexId(v))
            .nth(rng.gen_range(0..degree))
            .expect("pick below degree");
        if !closed.contains(&(v, t.0)) && !closed.contains(&(t.0, v)) {
            batch.remove_undirected_edge(v, t.0);
            closed.push((v, t.0));
        }
    }
    let applied = topo.apply(&batch);
    let summary = index.repair(&topo, &applied, applied.epoch);
    let fresh = LabelIndex::build(&topo, IndexConfig::default());
    assert_eq!(
        summary,
        RepairSummary {
            rebuilt: true,
            roots_rerun: 2 * graph.num_vertices(),
            labels_removed: entries_before,
            labels_added: fresh.total_entries(),
        }
    );
    assert_eq!(index.labels().order, fresh.labels().order);
    assert_eq!(index.labels().out_labels, fresh.labels().out_labels);
    assert_eq!(index.labels().in_labels, fresh.labels().in_labels);

    let reference = topo.materialize();
    for (s, t) in pair_stream(graph.num_vertices() as u32, 40, 11) {
        let want = dijkstra_to(&reference, VertexId(s), VertexId(t));
        match (dist_of(&index, s, t), want) {
            (Some(x), Some(y)) => assert!((x - y).abs() <= 1e-4 * y.max(1.0), "{s}->{t}"),
            (x, y) => assert_eq!(x, y, "{s}->{t}"),
        }
    }
}

/// One churn batch: (selector, a, b) picks, resolved against the live
/// edge set at apply time.
type ChurnPlanBatch = Vec<(u32, u32, u32)>;

/// Randomized removal-biased churn plans: a vertex count plus batches.
fn arb_removal_churn() -> impl Strategy<Value = (u32, Vec<ChurnPlanBatch>)> {
    (
        24u32..40,
        prop::collection::vec(
            prop::collection::vec((0u32..10, 0u32..4096, 0u32..4096), 1..5),
            3..7,
        ),
    )
}

fn apply_removal_churn<E: MutableEngine>(
    mut engine: E,
    n: u32,
    plan: &[Vec<(u32, u32, u32)>],
    label: &str,
) {
    let index = LabelIndex::build(&engine.topology_snapshot(), IndexConfig::default());
    let shared = SharedIndex::install(&mut engine, index);
    let mut replay = Topology::new(ring_world(n));
    for (e, ops) in plan.iter().enumerate() {
        let batch = churn_batch(&replay, n, ops);
        let before = replay.clone();
        replay.apply(&batch);
        engine.apply_and_settle(batch);
        let ctx = format!("{label} epoch {}", e + 1);
        let removal = nets_to_removal(&before, &replay);
        shared.check(&replay, removal, &ctx);
        let pairs = pair_stream(n, 5, 73 * (e as u64 + 1));
        check_epoch_against_fresh_build(&mut engine, &replay, &pairs, &ctx);
        // Labels leave only through a rebuild, and a rebuild happens
        // only for a netted removal.
        let s = engine.report().index_repairs[e].summary;
        assert_eq!(s.rebuilt, removal, "{ctx}: {s:?}");
        assert_eq!(s.labels_removed > 0, removal, "{ctx}: {s:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sim_removal_churn_keeps_index_exact((n, plan) in arb_removal_churn()) {
        apply_removal_churn(
            EngineBuilder::new(ring_world(n))
                .workers(3)
                .partitioner(HashPartitioner::default())
                .build_sim(),
            n,
            &plan,
            "sim/rmchurn",
        );
    }

    #[test]
    fn thread_removal_churn_keeps_index_exact((n, plan) in arb_removal_churn()) {
        apply_removal_churn(
            EngineBuilder::new(ring_world(n))
                .workers(2)
                .partitioner(HashPartitioner::default())
                .build_threaded(),
            n,
            &plan,
            "thread/rmchurn",
        );
    }

    /// The audit rides the same removal-biased churn on a bare index:
    /// after the build and after every repair, the labeling's cover
    /// invariant is re-verified over every live edge from scratch. A
    /// stale entry fails here even when the served answers still happen
    /// to match.
    #[test]
    fn audit_survives_removal_churn((n, plan) in arb_removal_churn()) {
        let mut replay = Topology::new(ring_world(n));
        let mut index = LabelIndex::build(&replay, IndexConfig::default());
        index.audit(&replay);
        for ops in &plan {
            let batch = churn_batch(&replay, n, ops);
            let applied = replay.apply(&batch);
            index.repair(&replay, &applied, applied.epoch);
            index.audit(&replay);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sim_random_mutations_keep_index_exact((n, batches) in arb_mutation_program()) {
        apply_program(
            EngineBuilder::new(ring_world(n))
                .workers(3)
                .partitioner(HashPartitioner::default())
                .build_sim(),
            n,
            &batches,
            "sim/prop",
        );
    }

    #[test]
    fn thread_random_mutations_keep_index_exact((n, batches) in arb_mutation_program()) {
        apply_program(
            EngineBuilder::new(ring_world(n))
                .workers(2)
                .partitioner(HashPartitioner::default())
                .build_threaded(),
            n,
            &batches,
            "thread/prop",
        );
    }
}
