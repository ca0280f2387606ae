//! # qgraph-index — the hub-label index plane
//!
//! Microsecond point queries (`dist(u,v)` / `reach(u,v)`) over the
//! evolving graph, by pruned landmark labeling (2-hop hub labels):
//! every vertex is a landmark root ranked by sampled shortest-path
//! coverage × degree; each root's rank-restricted pruned passes fill its
//! entries in both label families; a query intersects
//! the source's out-labels with the target's in-labels. The minimum
//! over common hubs is the exact shortest-path distance — Quegel's Hub2
//! serving mode, grown into a full plane of this engine:
//!
//! * **Construction** ([`LabelIndex::build`]) runs the landmark passes
//!   one rank at a time, on the caller's thread, over one reused scratch
//!   and flat CSR snapshots of the [`Topology`]'s live edges, taken once
//!   per build. Each root runs a forward and a backward pass; where
//!   every edge has an equal-weight twin the other way (a road map), its
//!   one forward pass commits into both families. One builder, which the
//!   in-barrier rebuild runs too.
//! * **Serving** ([`LabelIndex`] implementing
//!   [`PointIndex`]) answers from the one label
//!   store ([`HubLabels`]); the engines consult it at admission, tag
//!   outcomes `ServedBy::Index`, and fall back to traversal whenever the
//!   index declines.
//! * **Repair** ([`PointIndex::repair`])
//!   absorbs each applied mutation batch at the barrier by one rule: a
//!   batch that moves some edge's cheapest parallel (up, down, appear or
//!   vanish) or creates a vertex rebuilds the labels on the new topology
//!   with the one builder, so they equal a fresh build's entry for
//!   entry; a batch that moves nothing runs nothing. Epoch validity is
//!   tracked so a query admitted at epoch *e* is never served by an
//!   index repaired only through *e − 1*.

#![forbid(unsafe_code)]

pub mod labels;

mod dist;
mod repair;

pub use labels::{Direction, HubLabels, LabelEntry};

use qgraph_core::{PointAnswer, PointIndex, PointQuery, RepairSummary};
use qgraph_graph::{AppliedMutation, Topology};

/// Index-plane configuration: whether mutation barriers repair the
/// labels. The builder has nothing to tune — it runs on the caller's
/// thread, one pass at a time.
#[derive(Clone, Copy, Debug)]
pub struct IndexConfig {
    /// Repair at mutation barriers. When `false` the index never
    /// advances its valid epoch past construction, so queries on mutated
    /// graphs silently fall back to traversal.
    pub repair: bool,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig { repair: true }
    }
}

/// The servable hub-label index: the labels, which repairs write and
/// queries read, and the graph epoch they are valid through.
#[derive(Clone, Debug)]
pub struct LabelIndex {
    labels: HubLabels,
    repaired_through: u64,
    cfg: IndexConfig,
}

impl LabelIndex {
    /// Build over `topology`: each root's pruned passes, in rank order,
    /// over flat CSR snapshots of its live edges — a forward and a
    /// backward pass, or on a symmetric graph one pass that fills both
    /// label families. The labels are valid through the topology's
    /// epoch.
    pub fn build(topology: &Topology, cfg: IndexConfig) -> Self {
        let labels = repair::build(topology, &mut repair::Scratch::default());
        LabelIndex {
            labels,
            repaired_through: topology.epoch(),
            cfg,
        }
    }

    /// The label store (rank order + per-vertex entries).
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

    /// Test harness: re-verify the labeling's cover invariant over every
    /// live edge of `topology` — the graph the index was last built or
    /// repaired on — and panic on the first entry a real path beats with
    /// no higher-ranked hub covering it. A missing or looser entry under
    /// such a cover is legal: the pass pruned there, on a 2-hop cover
    /// sum. O(m · entries), exact comparisons — a cover sum associates
    /// differently from a path sum — so meant for integer-weighted test
    /// graphs, after every repair.
    #[doc(hidden)]
    pub fn audit(&self, topology: &Topology) {
        repair::audit(&self.labels, topology);
    }
}

impl PointIndex for LabelIndex {
    fn serve(&self, q: &PointQuery) -> Option<PointAnswer> {
        let n = self.labels.num_vertices();
        let (u, v) = (q.source(), q.target());
        if u.index() >= n || v.index() >= n {
            return None; // unknown vertex: let the traversal path decide
        }
        let dist = self.labels.query_dist(u, v);
        match q {
            PointQuery::Dist { .. } => Some(PointAnswer::Dist(dist)),
            PointQuery::Reach { .. } => Some(PointAnswer::Reach(dist.is_some())),
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
        let summary = repair::repair(&mut self.labels, topology, applied);
        self.repaired_through = epoch;
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    /// current topology, and the cover invariant must hold on every live
    /// edge — the repair-correctness oracle.
    fn assert_matches_rebuild(index: &LabelIndex, topology: &Topology) {
        index.audit(topology);
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

    /// The stronger oracle a rebuild earns: the repaired labels *are* a
    /// fresh build's, entry for entry, and the summary says so.
    fn assert_rebuilt_to_fresh_labels(
        index: &LabelIndex,
        topology: &Topology,
        summary: RepairSummary,
        entries_before: usize,
    ) {
        let fresh = LabelIndex::build(topology, *index.config());
        assert_eq!(index.labels().order, fresh.labels().order);
        assert_eq!(index.labels().out_labels, fresh.labels().out_labels);
        assert_eq!(index.labels().in_labels, fresh.labels().in_labels);
        assert_eq!(
            summary,
            RepairSummary {
                rebuilt: true,
                roots_rerun: 2 * topology.num_vertices(),
                labels_removed: entries_before,
                labels_added: fresh.total_entries(),
            }
        );
        index.audit(topology);
    }

    /// Apply `batch`, repair, and hand back the summary with the entry
    /// count the index held going in.
    fn apply_and_repair(
        index: &mut LabelIndex,
        topo: &mut Topology,
        batch: &MutationBatch,
    ) -> (RepairSummary, usize) {
        let entries_before = index.total_entries();
        let applied = topo.apply(batch);
        let summary = index.repair(topo, &applied, applied.epoch);
        assert_eq!(index.repaired_through(), applied.epoch);
        (summary, entries_before)
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
    fn serve_answers_reachability_and_bounds_checks() {
        let index = LabelIndex::build(&topo(), IndexConfig::default());
        let reach = |u: u32, v: u32| {
            index.serve(&PointQuery::Reach {
                source: VertexId(u),
                target: VertexId(v),
            })
        };
        assert_eq!(reach(5, 0), Some(PointAnswer::Reach(true)));
        assert_eq!(reach(0, 5), Some(PointAnswer::Reach(false)));
        // Out-of-range vertices decline rather than answer.
        assert_eq!(reach(0, 99), None);
        let dist_from_unknown = PointQuery::Dist {
            source: VertexId(99),
            target: VertexId(0),
        };
        assert_eq!(index.serve(&dist_from_unknown), None);
    }

    /// Insertions move minima (from nothing), so they rebuild like any
    /// other such batch.
    #[test]
    fn repair_absorbs_insertions() {
        let mut topo = topo();
        let mut index = LabelIndex::build(&topo, IndexConfig::default());
        let mut batch = MutationBatch::new();
        batch.add_edge(2, 5, 1.0).add_edge(1, 4, 1.0);
        let (summary, before) = apply_and_repair(&mut index, &mut topo, &batch);
        assert_rebuilt_to_fresh_labels(&index, &topo, summary, before);
    }

    #[test]
    fn repair_absorbs_removals_and_reweights() {
        let mut topo = topo();
        let mut index = LabelIndex::build(&topo, IndexConfig::default());
        let mut batch = MutationBatch::new();
        batch.remove_edge(0, 1).set_weight(0, 2, 1.0);
        let (summary, before) = apply_and_repair(&mut index, &mut topo, &batch);
        assert_rebuilt_to_fresh_labels(&index, &topo, summary, before);
    }

    #[test]
    fn tight_removal_rebuilds_to_fresh_labels() {
        let mut topo = topo();
        let mut index = LabelIndex::build(&topo, IndexConfig::default());
        // 1→2 is the unique tight parent of d(0,2)=2 (the 0→2 edge
        // weighs 5): every distance through it grows.
        let mut batch = MutationBatch::new();
        batch.remove_edge(1, 2);
        let (summary, before) = apply_and_repair(&mut index, &mut topo, &batch);
        assert_rebuilt_to_fresh_labels(&index, &topo, summary, before);
    }

    /// A diamond has two tight parents into the sink, so removing one
    /// changes no distance — the rule does not look: a netted removal
    /// rebuilds, on a four-vertex index as on any other. (The name is
    /// from when such a removal had a path of its own; kept so the suite
    /// still lists the test.)
    #[test]
    fn small_index_removals_repair_incrementally() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(1, 3, 1.0);
        b.add_edge(2, 3, 1.0);
        let mut topo = Topology::new(std::sync::Arc::new(b.build()));
        let mut index = LabelIndex::build(&topo, IndexConfig::default());
        let mut batch = MutationBatch::new();
        batch.remove_edge(1, 3);
        let (summary, before) = apply_and_repair(&mut index, &mut topo, &batch);
        assert_rebuilt_to_fresh_labels(&index, &topo, summary, before);
    }

    /// A new vertex rebuilds: it is re-ranked with everyone else, not
    /// appended at the lowest rank.
    #[test]
    fn repair_handles_new_vertices() {
        let mut topo = topo();
        let mut index = LabelIndex::build(&topo, IndexConfig::default());
        let entries_before = index.total_entries();
        let mut batch = MutationBatch::new();
        batch.add_vertex(); // vertex 6
        batch.add_edge(6, 0, 1.0).add_edge(2, 6, 2.0);
        let applied = topo.apply(&batch);
        assert_eq!(applied.new_vertices, vec![VertexId(6)]);
        let summary = index.repair(&topo, &applied, applied.epoch);
        assert_rebuilt_to_fresh_labels(&index, &topo, summary, entries_before);
        assert_eq!(index.labels().num_vertices(), 7);
    }

    /// A new vertex beside a removal: the rebuild ranks and covers the
    /// newcomer with everyone else.
    #[test]
    fn new_vertex_beside_a_removal_rebuilds_and_is_covered() {
        let mut topo = topo();
        let mut index = LabelIndex::build(&topo, IndexConfig::default());
        let mut batch = MutationBatch::new();
        batch.add_vertex(); // vertex 6
        batch
            .add_edge(6, 0, 1.0)
            .add_edge(2, 6, 2.0)
            .remove_edge(3, 4);
        let (summary, before) = apply_and_repair(&mut index, &mut topo, &batch);
        assert_rebuilt_to_fresh_labels(&index, &topo, summary, before);
        assert_eq!(index.labels().num_vertices(), 7);
        let to_new = PointQuery::Dist {
            source: VertexId(0),
            target: VertexId(6),
        };
        assert_eq!(index.serve(&to_new), Some(PointAnswer::Dist(Some(4.0))));
    }

    #[test]
    fn heavy_damage_trips_rebuild() {
        let mut topo = topo();
        let mut index = LabelIndex::build(&topo, IndexConfig::default());
        let mut batch = MutationBatch::new();
        batch.remove_edge(0, 1);
        let (summary, before) = apply_and_repair(&mut index, &mut topo, &batch);
        assert_rebuilt_to_fresh_labels(&index, &topo, summary, before);

        // Two more removals, rebuilt from the already-rebuilt labels.
        let mut batch = MutationBatch::new();
        batch.remove_edge(2, 3).remove_edge(4, 0);
        let (summary, before) = apply_and_repair(&mut index, &mut topo, &batch);
        assert_rebuilt_to_fresh_labels(&index, &topo, summary, before);
    }

    /// Netting: a batch whose events cancel moves no edge's cheapest
    /// parallel, so nothing runs — not a pass, not a rebuild.
    #[test]
    fn batches_that_net_to_nothing_run_zero_passes() {
        let mut topo = topo();
        // Stack a heavier parallel beside 0→1 (weight 1).
        let mut stack = MutationBatch::new();
        stack.add_edge(0, 1, 4.0);
        topo.apply(&stack);
        let mut index = LabelIndex::build(&topo, IndexConfig::default());
        let labels_before = index.labels().clone();

        // Insert an edge and remove it again.
        let mut batch = MutationBatch::new();
        batch.add_edge(5, 0, 1.0).remove_edge(5, 0);
        let (summary, _) = apply_and_repair(&mut index, &mut topo, &batch);
        assert_eq!(summary, RepairSummary::default());

        // Remove the heavier of the two parallels (`remove_edge` drops
        // both; the cheaper one goes straight back in).
        let mut batch = MutationBatch::new();
        batch.remove_edge(0, 1).add_edge(0, 1, 1.0);
        let (summary, _) = apply_and_repair(&mut index, &mut topo, &batch);
        assert_eq!(summary, RepairSummary::default());

        assert_eq!(index.labels().out_labels, labels_before.out_labels);
        assert_eq!(index.labels().in_labels, labels_before.in_labels);
        assert_matches_rebuild(&index, &topo);
    }

    /// Reweights are judged on the cheapest parallel: up or down, on the
    /// path or off it, the batch rebuilds.
    #[test]
    fn reweight_up_and_down_both_rebuild() {
        let mut topo = topo();
        let mut index = LabelIndex::build(&topo, IndexConfig::default());
        let mut batch = MutationBatch::new();
        batch.set_weight(0, 2, 1.0); // 5 → 1: now beats 0→1→2
        let (summary, before) = apply_and_repair(&mut index, &mut topo, &batch);
        assert_rebuilt_to_fresh_labels(&index, &topo, summary, before);

        let mut batch = MutationBatch::new();
        batch.set_weight(0, 2, 3.0); // 1 → 3
        let (summary, before) = apply_and_repair(&mut index, &mut topo, &batch);
        assert_rebuilt_to_fresh_labels(&index, &topo, summary, before);
    }

    #[test]
    fn disabled_repair_keeps_the_index_stale() {
        let mut topo = topo();
        let mut index = LabelIndex::build(&topo, IndexConfig { repair: false });
        let mut batch = MutationBatch::new();
        batch.add_edge(2, 5, 1.0);
        let applied = topo.apply(&batch);
        let summary = index.repair(&topo, &applied, applied.epoch);
        assert_eq!(summary, RepairSummary::default());
        assert_eq!(index.repaired_through(), 0, "valid epoch must not advance");
    }

    /// Removals, a new vertex beside a reweight-up, a reweight-down
    /// with an insert, a removal with a lighter parallel: every batch
    /// moves a minimum, so each one rebuilds to a fresh build's labels.
    #[test]
    fn sequence_of_mixed_batches_stays_exact() {
        let mut topo = topo();
        let mut index = LabelIndex::build(&topo, IndexConfig::default());
        let batches: Vec<MutationBatch> = {
            let mut v = Vec::new();
            let mut b = MutationBatch::new();
            b.add_edge(4, 2, 1.0).remove_edge(2, 3);
            v.push(b);
            let mut b = MutationBatch::new();
            b.add_vertex();
            b.add_edge(6, 5, 1.0)
                .add_edge(1, 6, 1.0)
                .set_weight(0, 1, 3.0); // 1 → 3: a reweight-up
            v.push(b);
            let mut b = MutationBatch::new();
            b.set_weight(0, 2, 0.5).add_edge(3, 0, 4.0);
            v.push(b);
            let mut b = MutationBatch::new();
            b.remove_edge(4, 0).add_edge(3, 0, 2.0);
            v.push(b);
            v
        };
        for batch in &batches {
            let (summary, before) = apply_and_repair(&mut index, &mut topo, batch);
            assert_rebuilt_to_fresh_labels(&index, &topo, summary, before);
        }
    }
}

/// Regression: a mutation program (originally found by the integration
/// property test) that stacks *parallel* edges, inserts-then-removes an
/// edge inside one batch, and mixes reweights with new vertices. Repair
/// must judge per-edge *minimum* weights, not per-event weights.
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
        let mut index = LabelIndex::build(&topo, IndexConfig::default());
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
            index.audit(&topo);
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
