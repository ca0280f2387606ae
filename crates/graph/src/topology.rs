//! The evolving-graph view: an immutable CSR base plus a mutation overlay.
//!
//! A [`Topology`] is what the engines' workers read adjacency through. It
//! starts as a thin pass-through over an [`Arc<Graph>`] and accumulates an
//! overlay as [`MutationBatch`]es apply: one copy-on-write out-row per
//! vertex the batches changed. The first op that changes a vertex's
//! out-edges copies its live row from the base CSR, later ops edit the
//! copy in place, and a read returns the row if there is one, else the CSR
//! row — no per-edge lookup either way. When the overlay grows past a
//! configurable fraction of the base (engine policy, see
//! `SystemConfig::compact_fraction` in `qgraph-core`),
//! [`Topology::compacted`] rebuilds a fresh CSR with an empty overlay.
//!
//! Identity rules keep query state meaningful across mutations:
//! * vertex ids are dense and never reused — [`GraphMutation::AddVertex`]
//!   appends, [`GraphMutation::RemoveVertex`] only disconnects (the id
//!   stays valid as an isolated vertex and may be reconnected later);
//! * neighbor order is stable across compaction (surviving base edges
//!   first, in base order, then added edges in insertion order), so a
//!   query replayed on the compacted CSR walks edges in the same order as
//!   on the overlay — the mutation conformance tests pin this.

use std::sync::Arc;

use rustc_hash::{FxHashMap, FxHashSet};

use crate::csr::NeighborIter;
use crate::{Graph, GraphBuilder, GraphMutation, MutationBatch, VertexId, VertexProps};

/// The mutation overlay over an immutable CSR base.
#[derive(Clone, Debug, Default)]
struct GraphDelta {
    /// The live out-row of every vertex an op changed: its surviving base
    /// edges in base order, then its added edges in insertion order.
    rows: FxHashMap<VertexId, Vec<(VertexId, f32)>>,
    /// Vertices appended past the base id space.
    extra_vertices: u32,
    /// Total ops absorbed since the last compaction (the compaction
    /// policy's size signal).
    overlay_ops: usize,
}

/// One live-edge-level effect of an applied mutation op — the index
/// plane's repair input. Where the vertex-level `touched` set answers
/// *"whose statistics are stale?"*, the edge changes answer *"which
/// shortest paths may have changed, and in which direction?"*: inserts
/// (and weight decreases) can only shorten distances, removals (and
/// weight increases) can only lengthen them, and repair strategies differ
/// accordingly. Old weights are captured at apply time because the
/// overlay forgets them immediately after.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EdgeChange {
    /// A live `from -> to` edge appeared with this weight.
    Inserted {
        /// Source vertex.
        from: VertexId,
        /// Target vertex.
        to: VertexId,
        /// The new edge's weight.
        weight: f32,
    },
    /// A live `from -> to` edge with this weight died (one entry per
    /// parallel edge; `RemoveVertex` reports every incident edge).
    Removed {
        /// Source vertex.
        from: VertexId,
        /// Target vertex.
        to: VertexId,
        /// The weight the edge had when it was removed.
        weight: f32,
    },
    /// A live `from -> to` edge changed weight (one entry per parallel
    /// edge; no entry when the new weight equals the old).
    Reweighted {
        /// Source vertex.
        from: VertexId,
        /// Target vertex.
        to: VertexId,
        /// The weight before the op.
        old: f32,
        /// The weight after the op.
        new: f32,
    },
}

/// What one [`Topology::apply`] call did — the engines use this to extend
/// the partitioning (new-vertex placement), invalidate stale Q-cut scope
/// statistics, repair label indexes, and price the barrier.
#[derive(Clone, Debug)]
pub struct AppliedMutation {
    /// The graph epoch after this batch (each applied batch bumps it).
    pub epoch: u64,
    /// Ops applied (no-ops included — they were still processed).
    pub ops: usize,
    /// Ids of vertices this batch created, in creation order.
    pub new_vertices: Vec<VertexId>,
    /// Every vertex incident to any op of the batch (sorted, deduplicated)
    /// — the staleness footprint for scope statistics.
    pub touched: Vec<VertexId>,
    /// Live-edge effects of the batch, in op order — what the index
    /// plane's repair consumes, and where the placement heuristic finds
    /// each new vertex's batch neighbors (its `Inserted` records). No-op
    /// mutations (removing a dead edge, reweighting to the same value)
    /// contribute nothing.
    pub edge_changes: Vec<EdgeChange>,
}

/// An evolving graph: immutable CSR base + mutation overlay + epoch.
///
/// Cheap to clone (the base is shared behind an `Arc`; the overlay is
/// bounded by the compaction policy), so the thread runtime broadcasts a
/// fresh `Arc<Topology>` to every worker at each epoch barrier.
#[derive(Clone, Debug)]
pub struct Topology {
    base: Arc<Graph>,
    delta: GraphDelta,
    /// Live directed edge count (base minus removed plus added).
    live_edges: usize,
    epoch: u64,
}

impl Topology {
    /// A pass-through view of `graph` at epoch 0.
    pub fn new(graph: impl Into<Arc<Graph>>) -> Self {
        let base = graph.into();
        Topology {
            live_edges: base.num_edges(),
            base,
            delta: GraphDelta::default(),
            epoch: 0,
        }
    }

    /// The immutable CSR base (excluding the overlay).
    pub fn base(&self) -> &Arc<Graph> {
        &self.base
    }

    /// The graph epoch: how many mutation batches have applied.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total vertices (base plus appended).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices() + self.delta.extra_vertices as usize
    }

    /// Live directed edges (base minus removed plus added).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.live_edges
    }

    /// Iterate over all vertex ids (removed vertices included — they are
    /// merely isolated).
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    /// Vertex properties of the *base*. Appended vertices answer the
    /// accessors' defaults (untagged, no coordinates) until a compaction
    /// extends the property vectors.
    #[inline]
    pub fn props(&self) -> &VertexProps {
        self.base.props()
    }

    /// Out-degree of `v` under the overlay. `O(1)`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Iterate over `(target, weight)` pairs of the live out-edges of `v`:
    /// surviving base edges in base order, then added edges in insertion
    /// order.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> TopoNeighbors<'_> {
        let inner = match self.delta.rows.get(&v) {
            Some(row) => NeighborsInner::Row(row.iter()),
            None if v.index() < self.base.num_vertices() => {
                NeighborsInner::Csr(self.base.neighbors(v))
            }
            None => NeighborsInner::Row([].iter()),
        };
        TopoNeighbors { inner }
    }

    /// True if a live `v -> u` edge exists. `O(degree(v))`.
    pub fn has_edge(&self, v: VertexId, u: VertexId) -> bool {
        self.neighbors(v).any(|(t, _)| t == u)
    }

    /// Overlay size relative to the base edge count — the engines compare
    /// this against their configured compaction threshold.
    pub fn overlay_fraction(&self) -> f64 {
        self.delta.overlay_ops as f64 / self.base.num_edges().max(1) as f64
    }

    /// True when no overlay is pending (reads go straight to the CSR).
    pub fn is_compact(&self) -> bool {
        self.delta.overlay_ops == 0
    }

    /// Apply one batch atomically, bumping the epoch. Ops apply in order;
    /// a later op may reference a vertex an earlier `AddVertex` created.
    ///
    /// # Panics
    /// Panics if an op references a vertex id that does not exist at the
    /// point the op applies, or if any op carries a NaN, negative, or
    /// infinite edge weight ([`MutationBatch::validate`]). Both are
    /// checked up front, so a rejected batch leaves the topology
    /// untouched.
    pub fn apply(&mut self, batch: &MutationBatch) -> AppliedMutation {
        if let Err(e) = batch.validate() {
            panic!("rejected mutation batch: {e}");
        }
        self.check_ids(batch);
        let mut new_vertices: Vec<VertexId> = Vec::new();
        let mut touched: FxHashSet<VertexId> = FxHashSet::default();
        let mut edge_changes: Vec<EdgeChange> = Vec::new();
        for op in batch.ops() {
            self.delta.overlay_ops += 1;
            match *op {
                GraphMutation::AddVertex => {
                    let id = VertexId(self.num_vertices() as u32);
                    self.delta.extra_vertices += 1;
                    new_vertices.push(id);
                    touched.insert(id);
                }
                GraphMutation::AddEdge { from, to, weight } => {
                    self.row_mut(from).push((to, weight));
                    self.live_edges += 1;
                    edge_changes.push(EdgeChange::Inserted { from, to, weight });
                    touched.extend([from, to]);
                }
                GraphMutation::RemoveEdge { from, to } => {
                    self.remove_edges(from, to, &mut edge_changes);
                    touched.extend([from, to]);
                }
                GraphMutation::SetWeight { from, to, weight } => {
                    if self.has_edge(from, to) {
                        for e in self.row_mut(from).iter_mut().filter(|e| e.0 == to) {
                            if e.1 != weight {
                                edge_changes.push(EdgeChange::Reweighted {
                                    from,
                                    to,
                                    old: e.1,
                                    new: weight,
                                });
                            }
                            e.1 = weight;
                        }
                    }
                    touched.extend([from, to]);
                }
                GraphMutation::RemoveVertex(v) => {
                    // Out-edges (self-loops included) first, then every
                    // in-neighbor's edges in id order: one O(V + E) scan,
                    // and `RemoveVertex` is the rare churn op. `v`'s row is
                    // empty by then, so its self-loops are recorded once.
                    let out = edge_changes.len();
                    edge_changes.extend(self.neighbors(v).map(|(to, weight)| {
                        EdgeChange::Removed {
                            from: v,
                            to,
                            weight,
                        }
                    }));
                    if edge_changes.len() > out {
                        self.live_edges -= edge_changes.len() - out;
                        self.delta.rows.insert(v, Vec::new());
                    }
                    for u in (0..self.num_vertices() as u32).map(VertexId) {
                        self.remove_edges(u, v, &mut edge_changes);
                    }
                    touched.insert(v);
                }
            }
        }
        self.epoch += 1;
        let mut touched: Vec<VertexId> = touched.into_iter().collect();
        touched.sort_unstable();
        AppliedMutation {
            epoch: self.epoch,
            ops: batch.len(),
            new_vertices,
            touched,
            edge_changes,
        }
    }

    /// Panic unless every op's vertex ids exist at the point the op
    /// applies, counting the batch's own `AddVertex` ops in order.
    fn check_ids(&self, batch: &MutationBatch) {
        let mut n = self.num_vertices();
        for op in batch.ops() {
            let (from, to) = match *op {
                GraphMutation::AddVertex => {
                    n += 1;
                    continue;
                }
                GraphMutation::RemoveVertex(v) => (v, v),
                GraphMutation::AddEdge { from, to, .. }
                | GraphMutation::RemoveEdge { from, to }
                | GraphMutation::SetWeight { from, to, .. } => (from, to),
            };
            for v in [from, to] {
                assert!(
                    v.index() < n,
                    "{op:?}: vertex {v:?} out of range for {n} vertices"
                );
            }
        }
    }

    /// `v`'s overlay row, copied from the base CSR on first touch.
    fn row_mut(&mut self, v: VertexId) -> &mut Vec<(VertexId, f32)> {
        let base = &self.base;
        self.delta.rows.entry(v).or_insert_with(|| {
            if v.index() < base.num_vertices() {
                base.neighbors(v).collect()
            } else {
                Vec::new()
            }
        })
    }

    /// Remove every live `from -> to` edge, recording each one. Copies no
    /// row when no such edge is live.
    fn remove_edges(&mut self, from: VertexId, to: VertexId, changes: &mut Vec<EdgeChange>) {
        if !self.has_edge(from, to) {
            return;
        }
        let row = self.row_mut(from);
        let live = row.len();
        for &(_, weight) in row.iter().filter(|e| e.0 == to) {
            changes.push(EdgeChange::Removed { from, to, weight });
        }
        row.retain(|e| e.0 != to);
        let dead = live - row.len();
        self.live_edges -= dead;
    }

    /// Rebuild a standalone CSR equal to the current view. Vertex ids and
    /// neighbor order are preserved; property vectors are extended with
    /// defaults for appended vertices.
    pub fn materialize(&self) -> Graph {
        let n = self.num_vertices();
        let mut b = GraphBuilder::new(n).with_edge_capacity(self.live_edges);
        for v in self.vertices() {
            for (t, w) in self.neighbors(v) {
                b.add_edge(v.0, t.0, w);
            }
        }
        let mut props = self.base.props().clone();
        if self.delta.extra_vertices > 0 {
            if !props.coords.is_empty() {
                props.coords.resize(n, (0.0, 0.0));
            }
            if !props.tags.is_empty() {
                props.tags.resize(n, false);
            }
            if !props.regions.is_empty() {
                props.regions.resize(n, crate::RegionId(0));
            }
        }
        b.set_props(props);
        b.build()
    }

    /// The compacted equivalent: same adjacency and epoch, empty overlay.
    pub fn compacted(&self) -> Topology {
        Topology {
            base: Arc::new(self.materialize()),
            delta: GraphDelta::default(),
            live_edges: self.live_edges,
            epoch: self.epoch,
        }
    }
}

enum NeighborsInner<'a> {
    Csr(NeighborIter<'a>),
    Row(std::slice::Iter<'a, (VertexId, f32)>),
}

/// Iterator over the live out-edges of one vertex under the overlay.
pub struct TopoNeighbors<'a> {
    inner: NeighborsInner<'a>,
}

impl Iterator for TopoNeighbors<'_> {
    type Item = (VertexId, f32);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            NeighborsInner::Csr(it) => it.next(),
            NeighborsInner::Row(it) => it.next().copied(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            NeighborsInner::Csr(it) => it.size_hint(),
            NeighborsInner::Row(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for TopoNeighbors<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 2.0);
        b.add_edge(1, 3, 3.0);
        b.add_edge(2, 3, 1.0);
        b.build()
    }

    fn n(t: &Topology, v: u32) -> Vec<(u32, f32)> {
        t.neighbors(VertexId(v)).map(|(t, w)| (t.0, w)).collect()
    }

    #[test]
    #[should_panic(expected = "rejected mutation")]
    fn apply_rejects_raw_pushed_invalid_weight() {
        let mut t = Topology::new(diamond());
        let mut batch = MutationBatch::new();
        // Bypass the builder checks; `apply` must still catch it.
        batch.push(crate::GraphMutation::AddEdge {
            from: VertexId(0),
            to: VertexId(3),
            weight: f32::NAN,
        });
        t.apply(&batch);
    }

    #[test]
    fn rejected_batch_leaves_topology_untouched() {
        let mut bad_weight = MutationBatch::new();
        bad_weight.remove_edge(0, 1); // valid op first: atomicity means it must NOT apply
        bad_weight.push(crate::GraphMutation::SetWeight {
            from: VertexId(0),
            to: VertexId(2),
            weight: -1.0,
        });
        let mut bad_id = MutationBatch::new();
        bad_id.remove_edge(0, 1).add_edge(0, 9, 1.0);
        let mut bad_id_after_growth = MutationBatch::new();
        bad_id_after_growth
            .add_vertex()
            .remove_edge(0, 1)
            .add_edge(5, 0, 1.0);
        for batch in [bad_weight, bad_id, bad_id_after_growth] {
            let mut t = Topology::new(diamond());
            let before = n(&t, 0);
            let epoch = t.epoch();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.apply(&batch)));
            assert!(r.is_err(), "{batch:?}");
            assert_eq!(n(&t, 0), before);
            assert_eq!(t.epoch(), epoch);
            assert_eq!(t.num_vertices(), 4);
            assert_eq!(t.num_edges(), 4);
            assert!(t.is_compact());
        }
        // A batch may create a vertex and connect it in the same breath.
        let mut t = Topology::new(diamond());
        let mut grow = MutationBatch::new();
        grow.add_vertex()
            .add_edge(4, 0, 1.0)
            .add_vertex()
            .add_edge(4, 5, 2.0);
        t.apply(&grow);
        assert_eq!(n(&t, 4), vec![(0, 1.0), (5, 2.0)]);
        assert_eq!(t.num_edges(), 6);
    }

    #[test]
    fn passthrough_matches_base() {
        let t = Topology::new(diamond());
        assert!(t.is_compact());
        assert_eq!(t.num_vertices(), 4);
        assert_eq!(t.num_edges(), 4);
        assert_eq!(n(&t, 0), vec![(1, 1.0), (2, 2.0)]);
        assert_eq!(t.epoch(), 0);
    }

    #[test]
    fn add_and_remove_edges_overlay() {
        let mut t = Topology::new(diamond());
        let mut b = MutationBatch::new();
        b.add_edge(3, 0, 9.0).remove_edge(0, 2);
        let applied = t.apply(&b);
        assert_eq!(applied.epoch, 1);
        assert_eq!(t.epoch(), 1);
        assert_eq!(t.num_edges(), 4); // one added, one removed
        assert_eq!(n(&t, 0), vec![(1, 1.0)]);
        assert_eq!(n(&t, 3), vec![(0, 9.0)]);
        assert!(t.has_edge(VertexId(3), VertexId(0)));
        assert!(!t.has_edge(VertexId(0), VertexId(2)));
        assert_eq!(applied.touched, vec![VertexId(0), VertexId(2), VertexId(3)]);
    }

    #[test]
    fn reweight_applies_to_base_and_added() {
        let mut t = Topology::new(diamond());
        let mut b = MutationBatch::new();
        b.add_edge(1, 2, 5.0)
            .set_weight(1, 2, 7.0)
            .set_weight(0, 1, 0.5);
        t.apply(&b);
        assert_eq!(n(&t, 1), vec![(3, 3.0), (2, 7.0)]);
        assert_eq!(n(&t, 0), vec![(1, 0.5), (2, 2.0)]);
        // Re-weighting a non-existent edge is a no-op.
        let mut b2 = MutationBatch::new();
        b2.set_weight(3, 1, 4.0);
        t.apply(&b2);
        assert_eq!(n(&t, 3), Vec::<(u32, f32)>::new());
    }

    #[test]
    fn add_vertex_assigns_dense_ids_and_connects_in_batch() {
        let mut t = Topology::new(diamond());
        let mut b = MutationBatch::new();
        b.add_vertex().add_edge(4, 0, 1.0).add_edge(3, 4, 2.0);
        let applied = t.apply(&b);
        assert_eq!(applied.new_vertices, vec![VertexId(4)]);
        assert_eq!(t.num_vertices(), 5);
        assert_eq!(n(&t, 4), vec![(0, 1.0)]);
        assert_eq!(n(&t, 3), vec![(4, 2.0)]);
        assert_eq!(
            applied.edge_changes,
            vec![
                EdgeChange::Inserted {
                    from: VertexId(4),
                    to: VertexId(0),
                    weight: 1.0
                },
                EdgeChange::Inserted {
                    from: VertexId(3),
                    to: VertexId(4),
                    weight: 2.0
                },
            ]
        );
    }

    #[test]
    fn remove_vertex_disconnects_both_directions() {
        let mut t = Topology::new(diamond());
        let mut b = MutationBatch::new();
        b.remove_vertex(3);
        t.apply(&b);
        assert_eq!(t.num_edges(), 2, "1->3 and 2->3 die with the vertex");
        assert_eq!(n(&t, 1), Vec::<(u32, f32)>::new());
        assert_eq!(n(&t, 3), Vec::<(u32, f32)>::new());
        assert_eq!(t.num_vertices(), 4, "the id stays valid");
        // Reconnection works: removed means isolated, not gone.
        let mut b2 = MutationBatch::new();
        b2.add_edge(3, 0, 1.0);
        t.apply(&b2);
        assert_eq!(n(&t, 3), vec![(0, 1.0)]);
        assert_eq!(t.num_edges(), 3);
    }

    #[test]
    fn remove_edge_kills_parallel_edges() {
        let mut g = GraphBuilder::new(2);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 1, 2.0);
        let mut t = Topology::new(g.build());
        let mut b = MutationBatch::new();
        b.remove_edge(0, 1);
        t.apply(&b);
        assert_eq!(t.num_edges(), 0);
        // Removing again is a no-op.
        let mut b2 = MutationBatch::new();
        b2.remove_edge(0, 1);
        t.apply(&b2);
        assert_eq!(t.num_edges(), 0);
    }

    #[test]
    fn remove_vertex_with_self_loop_counts_edges_once() {
        let mut g = GraphBuilder::new(3);
        g.add_edge(0, 0, 1.0); // self-loop
        g.add_edge(1, 0, 1.0);
        g.add_edge(0, 2, 1.0);
        g.add_edge(1, 2, 1.0);
        let mut t = Topology::new(g.build());
        let mut b = MutationBatch::new();
        b.remove_vertex(0);
        t.apply(&b);
        assert_eq!(t.num_edges(), 1, "only 1->2 survives");
        assert_eq!(t.materialize().num_edges(), 1);
        // Removing an already-isolated vertex is a no-op on the counts,
        // and in-degree maintenance survives interleaved adds.
        let mut b2 = MutationBatch::new();
        b2.add_edge(2, 0, 1.0).remove_vertex(0).remove_vertex(2);
        t.apply(&b2);
        assert_eq!(t.num_edges(), 0);
        assert_eq!(t.materialize().num_edges(), 0);
    }

    #[test]
    fn materialize_equals_overlay_view() {
        let mut t = Topology::new(diamond());
        let mut b = MutationBatch::new();
        b.add_vertex()
            .add_edge(4, 1, 0.5)
            .remove_edge(0, 1)
            .set_weight(2, 3, 8.0)
            .remove_vertex(1);
        t.apply(&b);
        let g = t.materialize();
        assert_eq!(g.num_vertices(), t.num_vertices());
        assert_eq!(g.num_edges(), t.num_edges());
        for v in t.vertices() {
            let via_overlay: Vec<_> = t.neighbors(v).collect();
            let via_csr: Vec<_> = g.neighbors(v).collect();
            assert_eq!(via_overlay, via_csr, "vertex {v}");
        }
        let c = t.compacted();
        assert!(c.is_compact());
        assert_eq!(c.epoch(), t.epoch());
        assert_eq!(c.num_edges(), t.num_edges());
    }

    #[test]
    fn compaction_extends_props_with_defaults() {
        let mut g = diamond();
        g.props_mut().tags = vec![true, false, false, true];
        let mut t = Topology::new(g);
        let mut b = MutationBatch::new();
        b.add_vertex();
        t.apply(&b);
        assert!(t.props().is_tagged(VertexId(0)));
        assert!(!t.props().is_tagged(VertexId(4)), "appended: default");
        let c = t.compacted();
        assert_eq!(c.props().tags.len(), 5);
        assert!(c.props().is_tagged(VertexId(3)));
        assert!(!c.props().is_tagged(VertexId(4)));
    }

    #[test]
    fn overlay_fraction_tracks_ops() {
        let mut t = Topology::new(diamond());
        assert_eq!(t.overlay_fraction(), 0.0);
        let mut b = MutationBatch::new();
        b.add_edge(0, 3, 1.0).remove_edge(1, 3);
        t.apply(&b);
        assert!(
            (t.overlay_fraction() - 0.5).abs() < 1e-12,
            "2 ops / 4 edges"
        );
        assert!(t.compacted().overlay_fraction() == 0.0);
    }

    #[test]
    fn edge_changes_capture_old_weights() {
        let mut t = Topology::new(diamond());
        let mut b = MutationBatch::new();
        b.add_edge(3, 0, 9.0)
            .remove_edge(0, 2)
            .set_weight(1, 3, 4.5)
            .set_weight(2, 3, 1.0) // same weight: no change recorded
            .remove_edge(3, 1); // dead edge: no change recorded
        let applied = t.apply(&b);
        assert_eq!(
            applied.edge_changes,
            vec![
                EdgeChange::Inserted {
                    from: VertexId(3),
                    to: VertexId(0),
                    weight: 9.0
                },
                EdgeChange::Removed {
                    from: VertexId(0),
                    to: VertexId(2),
                    weight: 2.0
                },
                EdgeChange::Reweighted {
                    from: VertexId(1),
                    to: VertexId(3),
                    old: 3.0,
                    new: 4.5
                },
            ]
        );
    }

    #[test]
    fn remove_vertex_reports_every_incident_edge() {
        let mut t = Topology::new(diamond());
        let mut b = MutationBatch::new();
        b.remove_vertex(3);
        let applied = t.apply(&b);
        // 3 has no out-edges; in-edges 1->3 (3.0) and 2->3 (1.0) die.
        let mut changes = applied.edge_changes.clone();
        changes.sort_by_key(|c| match *c {
            EdgeChange::Removed { from, .. } => from.0,
            _ => u32::MAX,
        });
        assert_eq!(
            changes,
            vec![
                EdgeChange::Removed {
                    from: VertexId(1),
                    to: VertexId(3),
                    weight: 3.0
                },
                EdgeChange::Removed {
                    from: VertexId(2),
                    to: VertexId(3),
                    weight: 1.0
                },
            ]
        );
        // Parallel edges each report their own removal.
        let mut g = GraphBuilder::new(2);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 1, 2.0);
        let mut t = Topology::new(g.build());
        let mut b = MutationBatch::new();
        b.remove_edge(0, 1);
        assert_eq!(t.apply(&b).edge_changes.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_mutation_panics() {
        let mut t = Topology::new(diamond());
        let mut b = MutationBatch::new();
        b.add_edge(0, 9, 1.0);
        t.apply(&b);
    }
}
