//! # qgraph-index — the hub-label index plane
//!
//! Microsecond point queries (`dist(u,v)` / `reach(u,v)`) over the
//! evolving graph, by pruned landmark labeling (2-hop hub labels):
//! every vertex is a landmark root ranked by sampled shortest-path
//! coverage × degree; each root runs a rank-restricted pruned pass in
//! both directions; a query intersects
//! the source's out-labels with the target's in-labels. The minimum
//! over common hubs is the exact shortest-path distance — Quegel's Hub2
//! serving mode, grown into a full plane of this engine:
//!
//! * **Construction** ([`build_on_engine`]) runs the landmark passes as
//!   ordinary vertex-program queries on either runtime, in waves — the
//!   index is built *by* the engine it will serve.
//! * **Serving** ([`LabelIndex`] implementing
//!   [`PointIndex`](qgraph_core::PointIndex)) answers from frozen flat
//!   label arrays; the engines consult it at admission, tag outcomes
//!   `ServedBy::Index`, and fall back to traversal whenever the index
//!   declines.
//! * **Repair** ([`PointIndex::repair`](qgraph_core::PointIndex::repair))
//!   absorbs each applied mutation batch at the barrier: insertions
//!   resume passes from the new edge (Akiba-style), deletions invalidate
//!   exactly the roots whose witness paths used a removed edge and
//!   re-run them, and damage beyond [`IndexConfig::damage_threshold`]
//!   — judged from the batch's footprint before any pass runs — falls
//!   back to a full rebuild. Epoch validity is tracked so a query
//!   admitted at epoch *e* is never served by an index repaired only
//!   through *e − 1*.

#![forbid(unsafe_code)]

pub mod labels;
pub mod program;

mod build;
mod dist;
mod repair;

pub use build::build_on_engine;
pub use labels::{Direction, FlatLabels, HubLabels, LabelEntry};
pub use program::{reverse_adjacency, PllPassProgram, RevAdj};

use qgraph_core::{PointAnswer, PointIndex, PointQuery, RepairSummary};
use qgraph_graph::{AppliedMutation, Topology};

/// Index-plane tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct IndexConfig {
    /// Repair incrementally at mutation barriers. When `false` the index
    /// never advances its valid epoch past construction, so queries on
    /// mutated graphs silently fall back to traversal.
    pub repair: bool,
    /// Fraction of a rebuild's `2n` root passes that repair may re-run
    /// in full before bailing to the rebuild instead (which also
    /// re-ranks the roots on the new topology). Counted per *pass*,
    /// not per root: most weakened roots re-run a single direction.
    /// Consulted up front against the passes a batch's removals touch
    /// and again mid-sweep against the full re-runs actually incurred.
    pub damage_threshold: f64,
    /// Landmark roots per construction wave (each submits two passes).
    /// Wider waves cost fewer engine round-trips and commit a few more
    /// entries: wave outputs are re-filtered against the live labels in
    /// rank order, which answers every query the same but is not the
    /// width-1 labeling entry for entry (see `build.rs`). At one width
    /// the labels are identical across builders, engines and thread
    /// counts.
    pub wave: usize,
    /// Worker threads for offline index work — the sequential build,
    /// barrier-time full rebuilds, and witness recount sweeps. `0` picks
    /// the machine's parallelism (capped at 8). The committed labels are
    /// identical for every thread count: waves prune against a shared
    /// snapshot and commit in rank order regardless of who ran the pass.
    pub build_threads: usize,
    /// Paranoid audit mode (debug builds only): after construction and
    /// after every repair, recount every witness from scratch and
    /// re-verify each entry's tightness and the pruned labeling's cover
    /// invariant over every live edge. O(n·entries + m·entries) per
    /// barrier — a test harness for the incremental repair machinery,
    /// never a serving configuration. No-op in release builds.
    pub paranoid: bool,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            repair: true,
            damage_threshold: 0.25,
            wave: 8,
            build_threads: 0,
            paranoid: false,
        }
    }
}

/// The servable hub-label index: mutable labels for repair, frozen flat
/// labels for answering, and the graph epoch the labels are valid
/// through.
#[derive(Clone, Debug)]
pub struct LabelIndex {
    labels: HubLabels,
    flat: FlatLabels,
    repaired_through: u64,
    cfg: IndexConfig,
}

impl LabelIndex {
    /// Build over `topology` without an engine: pruned root passes in
    /// waves of [`IndexConfig::wave`], fanned across
    /// [`IndexConfig::build_threads`] scoped workers. The committed
    /// labels equal the engine-built labels for the same wave width
    /// (`wave: 1` gives the fully sequential minimal labeling) and are
    /// independent of the thread count.
    pub fn build(topology: &Topology, cfg: IndexConfig) -> Self {
        let mut labels = HubLabels::empty(topology);
        repair::build_waves(&mut labels, topology, &cfg);
        if cfg.paranoid && cfg!(debug_assertions) {
            repair::audit(&labels, topology);
        }
        Self::from_labels(labels, topology.epoch(), cfg)
    }

    /// Wrap already-constructed labels valid through `epoch`.
    pub(crate) fn from_labels(labels: HubLabels, epoch: u64, cfg: IndexConfig) -> Self {
        let flat = FlatLabels::freeze(&labels);
        LabelIndex {
            labels,
            flat,
            repaired_through: epoch,
            cfg,
        }
    }

    /// The mutable label store (rank order + per-vertex entries).
    pub fn labels(&self) -> &HubLabels {
        &self.labels
    }

    /// Total committed label entries across both families — the index's
    /// memory footprint in entries.
    pub fn total_entries(&self) -> usize {
        self.labels.total_entries()
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &IndexConfig {
        &self.cfg
    }
}

impl PointIndex for LabelIndex {
    fn serve(&self, q: &PointQuery) -> Option<PointAnswer> {
        let n = self.flat.num_vertices();
        let (u, v) = (q.source(), q.target());
        if u.index() >= n || v.index() >= n {
            return None; // unknown vertex: let the traversal path decide
        }
        match q {
            PointQuery::Dist { .. } => Some(PointAnswer::Dist(self.flat.dist(u, v))),
            PointQuery::Reach { .. } => Some(PointAnswer::Reach(self.flat.dist(u, v).is_some())),
        }
    }

    fn repaired_through(&self) -> u64 {
        self.repaired_through
    }

    fn repair(
        &mut self,
        topology: &Topology,
        applied: &AppliedMutation,
        epoch: u64,
    ) -> RepairSummary {
        if !self.cfg.repair {
            // Deliberately stale: repaired_through stays behind the graph
            // epoch and the engines route everything to traversal.
            return RepairSummary::default();
        }
        let summary = repair::repair(&mut self.labels, topology, applied, &self.cfg);
        if self.cfg.paranoid && cfg!(debug_assertions) {
            // Covers both outcomes — incremental repair and a damage-cap
            // bailout to rebuild — since either commits into `labels`.
            repair::audit(&self.labels, topology);
        }
        self.flat = FlatLabels::freeze(&self.labels);
        self.repaired_through = epoch;
        summary
    }

    fn set_parallelism(&mut self, threads: usize) {
        self.cfg.build_threads = threads;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgraph_core::RebuildCause;
    use qgraph_graph::{GraphBuilder, MutationBatch, VertexId};

    fn topo() -> Topology {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(0, 2, 5.0);
        b.add_edge(2, 3, 1.0);
        b.add_edge(3, 4, 1.0);
        b.add_edge(4, 0, 1.0);
        b.add_edge(5, 3, 2.0);
        Topology::new(std::sync::Arc::new(b.build()))
    }

    /// Every pair's answer must equal a fresh build's answer on the
    /// current topology — the repair-correctness oracle.
    fn assert_matches_rebuild(index: &LabelIndex, topology: &Topology) {
        let fresh = LabelIndex::build(topology, *index.config());
        let n = topology.num_vertices() as u32;
        for u in 0..n {
            for v in 0..n {
                let q = PointQuery::Dist {
                    source: VertexId(u),
                    target: VertexId(v),
                };
                assert_eq!(index.serve(&q), fresh.serve(&q), "{u}->{v}");
            }
        }
    }

    #[test]
    fn sequential_build_answers_exact_distances() {
        let topo = topo();
        let index = LabelIndex::build(&topo, IndexConfig::default());
        let d = |u: u32, v: u32| match index
            .serve(&PointQuery::Dist {
                source: VertexId(u),
                target: VertexId(v),
            })
            .unwrap()
        {
            PointAnswer::Dist(d) => d,
            PointAnswer::Reach(_) => unreachable!(),
        };
        assert_eq!(d(0, 2), Some(2.0)); // 0->1->2 beats the 5.0 edge
        assert_eq!(d(5, 0), Some(4.0)); // 5->3->4->0
        assert_eq!(d(0, 5), None); // 5 has no in-edges
        assert_eq!(d(3, 3), Some(0.0));
    }

    #[test]
    fn repair_absorbs_insertions() {
        let mut topo = topo();
        let mut index = LabelIndex::build(&topo, IndexConfig::default());
        let mut batch = MutationBatch::new();
        batch.add_edge(2, 5, 1.0).add_edge(1, 4, 1.0);
        let applied = topo.apply(&batch);
        index.repair(&topo, &applied, applied.epoch);
        assert_eq!(index.repaired_through(), applied.epoch);
        assert_matches_rebuild(&index, &topo);
    }

    #[test]
    fn repair_absorbs_removals_and_reweights() {
        let mut topo = topo();
        let mut index = LabelIndex::build(
            &topo,
            IndexConfig {
                damage_threshold: 1.0, // force the incremental path
                ..IndexConfig::default()
            },
        );
        let mut batch = MutationBatch::new();
        batch.remove_edge(0, 1).set_weight(0, 2, 1.0);
        let applied = topo.apply(&batch);
        let summary = index.repair(&topo, &applied, applied.epoch);
        assert!(!summary.rebuilt);
        assert_matches_rebuild(&index, &topo);
    }

    #[test]
    fn tight_removal_takes_the_witness_path() {
        let mut topo = topo();
        let mut index = LabelIndex::build(
            &topo,
            IndexConfig {
                damage_threshold: 1.0,
                ..IndexConfig::default()
            },
        );
        // 1→2 is the unique tight witness for d(0,2)=2 (the 0→2 edge
        // weighs 5): counts hit zero and invalidate downstream, but the
        // repair stays a seeded partial resume — no rebuild.
        let mut batch = MutationBatch::new();
        batch.remove_edge(1, 2);
        let applied = topo.apply(&batch);
        let summary = index.repair(&topo, &applied, applied.epoch);
        assert!(!summary.rebuilt);
        assert!(summary.witness_decrements > 0, "{summary:?}");
        assert!(summary.entries_invalidated > 0, "{summary:?}");
        assert!(summary.partial_roots > 0, "{summary:?}");
        assert_matches_rebuild(&index, &topo);
    }

    /// PR 7 satellite: `damage_threshold * n` rounds to 0 on a tiny
    /// index, so before the clamp *any* removal tripped a full rebuild.
    /// A diamond has two tight parents into the sink, so the witness
    /// count absorbs one removal within the clamped one-root cap.
    #[test]
    fn small_index_removals_repair_incrementally() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(1, 3, 1.0);
        b.add_edge(2, 3, 1.0);
        let mut topo = Topology::new(std::sync::Arc::new(b.build()));
        // Default threshold: 0.25 * 4 = 1.0 — zero before the clamp
        // would already have been hit by the pre-PR 7 `<=` endpoint
        // test flagging three roots here.
        let mut index = LabelIndex::build(&topo, IndexConfig::default());
        let mut batch = MutationBatch::new();
        batch.remove_edge(1, 3);
        let applied = topo.apply(&batch);
        let summary = index.repair(&topo, &applied, applied.epoch);
        assert!(!summary.rebuilt, "{summary:?}");
        assert!(summary.witness_decrements > 0, "{summary:?}");
        assert_matches_rebuild(&index, &topo);
    }

    #[test]
    fn repair_handles_new_vertices() {
        let mut topo = topo();
        let mut index = LabelIndex::build(&topo, IndexConfig::default());
        let mut batch = MutationBatch::new();
        batch.add_vertex(); // vertex 6
        batch.add_edge(6, 0, 1.0).add_edge(2, 6, 2.0);
        let applied = topo.apply(&batch);
        assert_eq!(applied.new_vertices, vec![VertexId(6)]);
        index.repair(&topo, &applied, applied.epoch);
        assert_matches_rebuild(&index, &topo);
    }

    #[test]
    fn heavy_damage_trips_rebuild() {
        let mut topo = topo();
        let mut index = LabelIndex::build(
            &topo,
            IndexConfig {
                damage_threshold: 0.0,
                ..IndexConfig::default()
            },
        );
        let mut batch = MutationBatch::new();
        batch.remove_edge(0, 1);
        let applied = topo.apply(&batch);
        let entries_before = index.total_entries();
        let summary = index.repair(&topo, &applied, applied.epoch);
        assert!(summary.rebuilt);
        // The cap clamps to one pass and the removal flags exactly one,
        // so both up-front checks pass; the re-run weakens a second
        // root mid-sweep and the backstop trips with one pass spent.
        assert_eq!(summary.rebuild_cause, RebuildCause::SweepCap);
        assert_eq!(summary.sweep_passes, 1);
        assert_eq!(summary.labels_removed, entries_before);
        assert_matches_rebuild(&index, &topo);

        // Two more removals touch more passes than the cap allows: the
        // decision is taken before any pass is spent.
        let mut batch = MutationBatch::new();
        batch.remove_edge(2, 3).remove_edge(4, 0);
        let applied = topo.apply(&batch);
        let entries_before = index.total_entries();
        let summary = index.repair(&topo, &applied, applied.epoch);
        assert_eq!(summary.rebuild_cause, RebuildCause::Footprint);
        assert_eq!(summary.sweep_passes, 0);
        assert_eq!(summary.labels_removed, entries_before);
        assert_matches_rebuild(&index, &topo);
    }

    #[test]
    fn disabled_repair_keeps_the_index_stale() {
        let mut topo = topo();
        let mut index = LabelIndex::build(
            &topo,
            IndexConfig {
                repair: false,
                ..IndexConfig::default()
            },
        );
        let mut batch = MutationBatch::new();
        batch.add_edge(2, 5, 1.0);
        let applied = topo.apply(&batch);
        let summary = index.repair(&topo, &applied, applied.epoch);
        assert_eq!(summary, RepairSummary::default());
        assert_eq!(index.repaired_through(), 0, "valid epoch must not advance");
    }

    #[test]
    fn sequence_of_mixed_batches_stays_exact() {
        let mut topo = topo();
        let mut index = LabelIndex::build(
            &topo,
            IndexConfig {
                damage_threshold: 1.0,
                ..IndexConfig::default()
            },
        );
        let batches: Vec<MutationBatch> = {
            let mut v = Vec::new();
            let mut b = MutationBatch::new();
            b.add_edge(4, 2, 1.0).remove_edge(2, 3);
            v.push(b);
            let mut b = MutationBatch::new();
            b.add_vertex();
            b.add_edge(6, 5, 1.0)
                .add_edge(1, 6, 1.0)
                .set_weight(0, 1, 3.0);
            v.push(b);
            let mut b = MutationBatch::new();
            b.remove_edge(4, 0)
                .set_weight(0, 2, 0.5)
                .add_edge(3, 0, 4.0);
            v.push(b);
            v
        };
        for batch in &batches {
            let applied = topo.apply(batch);
            index.repair(&topo, &applied, applied.epoch);
            assert_matches_rebuild(&index, &topo);
        }
    }
}

/// Regression: a mutation program (originally found by the integration
/// property test) that stacks *parallel* edges, inserts-then-removes an
/// edge inside one batch, and mixes reweights with new vertices. Repair
/// must classify per-edge *minimum* weights, not per-event weights.
#[cfg(test)]
mod multigraph_repair_regression {
    use super::*;
    use qgraph_graph::{GraphBuilder, MutationBatch, VertexId};

    fn ring_world(n: u32) -> Topology {
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n {
            b.add_undirected_edge(i, (i + 1) % n, 1.0 + (i % 7) as f32);
        }
        for i in (0..n).step_by(9) {
            b.add_undirected_edge(i, (i + n / 3) % n, 2.0);
        }
        Topology::new(std::sync::Arc::new(b.build()))
    }

    #[test]
    fn parallel_edge_batches_repair_exactly() {
        let n = 16u32;
        let batches: Vec<Vec<(u32, u32, u32, u32)>> = vec![
            vec![(1, 29, 10, 9), (1, 7, 29, 9), (2, 41, 52, 7)],
            vec![(0, 1, 4, 2), (2, 35, 2, 1), (1, 37, 1, 7), (1, 27, 11, 4)],
            vec![(3, 29, 61, 9)],
            vec![
                (0, 41, 53, 2),
                (0, 58, 36, 6),
                (1, 61, 50, 9),
                (0, 60, 32, 7),
                (1, 58, 27, 2),
            ],
            vec![
                (3, 24, 32, 7),
                (1, 25, 41, 3),
                (1, 48, 37, 1),
                (0, 18, 5, 6),
                (3, 52, 24, 2),
                (0, 29, 28, 7),
                (3, 39, 36, 5),
            ],
        ];
        let mut topo = ring_world(n);
        let mut index = LabelIndex::build(
            &topo,
            IndexConfig {
                damage_threshold: 0.3,
                ..IndexConfig::default()
            },
        );
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
            let applied = topo.apply(&batch);
            index.repair(&topo, &applied, applied.epoch);
            let fresh = LabelIndex::build(&topo, *index.config());
            for u in 0..vcount {
                for v in 0..vcount {
                    let q = PointQuery::Dist {
                        source: VertexId(u),
                        target: VertexId(v),
                    };
                    assert_eq!(index.serve(&q), fresh.serve(&q), "batch {} {u}->{v}", e + 1);
                }
            }
        }
    }
}
