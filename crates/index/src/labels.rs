//! The 2-hop hub label store: the one copy of the labels, which the
//! builder writes — offline or as a repair's rebuild — and point queries
//! read.
//!
//! Every vertex is a landmark *root*, ranked by sampled shortest-path
//! coverage × degree (descending, vertex id breaking ties; see
//! `rank_order`) — rank 0 is the highest-priority root. A directed
//! graph needs two label families:
//!
//! * `in_labels[v]`  — entries `(rank(r), dist(r → v))`, committed by
//!   *forward* passes from each root `r`;
//! * `out_labels[v]` — entries `(rank(r), dist(v → r))`, committed by
//!   *backward* passes.
//!
//! `dist(u, v) = min over common hubs h of out[u][h] + in[v][h]`; with a
//! full pruned-landmark labeling the minimum is the exact shortest-path
//! distance (the highest-ranked vertex on a shortest `u → v` path is in
//! both label sets — the canonical 2-hop cover invariant that
//! rank-restricted pruning preserves).
//!
//! The passes and the rank order walk `Adjacency` — flat CSR snapshots
//! of the live out- and in-edges, taken once per build — and
//! never the mutation overlay. Where every edge has an equal-weight twin
//! the other way (a road map), the snapshot is `symmetric` and the two
//! families of a fresh build are mirror images.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use qgraph_graph::{Graph, GraphBuilder, Topology, VertexId};

use crate::dist::{improves, OrdF32};

/// One label entry: hub rank and certified distance. Lists are sorted by
/// rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LabelEntry {
    /// The hub's rank (index into [`HubLabels::order`]).
    pub rank: u32,
    /// The certified distance between hub and vertex.
    pub dist: f32,
}

/// Find the distance entry for `rank` in a rank-sorted list.
pub(crate) fn entry(list: &[LabelEntry], rank: u32) -> Option<f32> {
    list.binary_search_by_key(&rank, |e| e.rank)
        .ok()
        .map(|i| list[i].dist)
}

/// Minimum `out + in` over common hubs of two rank-sorted lists,
/// restricted to hubs with rank strictly below `rank_limit`.
fn intersect_below(out: &[LabelEntry], inl: &[LabelEntry], rank_limit: u32) -> f32 {
    let mut best = f32::INFINITY;
    let (mut i, mut j) = (0usize, 0usize);
    while i < out.len() && j < inl.len() {
        let (ro, d_out) = (out[i].rank, out[i].dist);
        let (ri, d_in) = (inl[j].rank, inl[j].dist);
        if ro >= rank_limit || ri >= rank_limit {
            break; // sorted by rank: nothing below the limit remains
        }
        match ro.cmp(&ri) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let d = d_out + d_in;
                if improves(d, best) {
                    best = d;
                }
                i += 1;
                j += 1;
            }
        }
    }
    best
}

/// Shortest-path trees sampled to score the rank order. A constant, not
/// a knob: on the 1.9k-vertex road map 16 / 64 / 256 trees give 181k /
/// 154k / 153k label entries (degree order: 1,057k) — flat past a few
/// dozen.
const ORDER_SAMPLES: usize = 64;

/// rank → vertex by *sampled shortest-path coverage × degree*,
/// descending, vertex id breaking ties. [`ORDER_SAMPLES`] plain Dijkstra
/// trees grow from sources spread evenly over the vertex ids; a vertex
/// scores the sum of its subtree sizes — how many sampled shortest
/// paths run through it, hence how much a pass from it lets every later
/// pass prune. Degree alone says that on a social graph and nothing on
/// a road map (every degree is 2–4); coverage alone over-ranks chains
/// on hub-dominated graphs; the product serves both. No RNG, no thread
/// count: every build derives the same order. Parent ties go to the
/// first relaxation, so `fwd` must list edges in `Topology::neighbors`
/// order.
// qlint: allow(raw-adjacency) — an `Adjacency` snapshot: the live edges, overlay included
fn rank_order(fwd: &Graph) -> Vec<VertexId> {
    let n = fwd.num_vertices();
    let samples = ORDER_SAMPLES.min(n);
    let mut score = vec![0u64; n];
    let mut dist = vec![f32::INFINITY; n];
    let mut parent = vec![u32::MAX; n];
    let mut size = vec![0u64; n];
    let mut settled: Vec<u32> = Vec::with_capacity(n);
    let mut heap: BinaryHeap<Reverse<(OrdF32, u32)>> = BinaryHeap::new();
    for i in 0..samples {
        let source = (i * n / samples) as u32;
        dist.fill(f32::INFINITY);
        dist[source as usize] = 0.0;
        parent[source as usize] = u32::MAX;
        heap.push(Reverse((OrdF32(0.0), source)));
        while let Some(Reverse((OrdF32(d), v))) = heap.pop() {
            if improves(dist[v as usize], d) {
                continue; // stale heap entry
            }
            settled.push(v);
            for (t, w) in fwd.neighbors(VertexId(v)) {
                let nd = d + w;
                if improves(nd, dist[t.index()]) {
                    dist[t.index()] = nd;
                    parent[t.index()] = v;
                    heap.push(Reverse((OrdF32(nd), t.0)));
                }
            }
        }
        // Children settle after their parents: one reverse sweep folds
        // subtree sizes upward (and zeroes `size` for the next tree).
        for v in settled.drain(..).rev() {
            let subtree = std::mem::take(&mut size[v as usize]) + 1;
            score[v as usize] += subtree;
            if let Some(p) = size.get_mut(parent[v as usize] as usize) {
                *p += subtree;
            }
        }
    }
    let mut order: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
    order.sort_by_cached_key(|&v| (Reverse(score[v.index()] * fwd.degree(v) as u64), v.0));
    order
}

/// The hub label store: per-vertex rank-sorted label lists plus the rank
/// order itself.
#[derive(Clone, Debug, Default)]
pub struct HubLabels {
    /// rank → vertex (`rank_order` over the graph the labels were built
    /// on; a repair that creates vertices rebuilds, re-ranking them with
    /// everyone else).
    pub order: Vec<VertexId>,
    /// vertex index → rank (inverse of `order`).
    pub rank_of: Vec<u32>,
    /// `out_labels[v]`: entries for `dist(v → r)`, sorted by rank.
    pub out_labels: Vec<Vec<LabelEntry>>,
    /// `in_labels[v]`: entries for `dist(r → v)`, sorted by rank.
    pub in_labels: Vec<Vec<LabelEntry>>,
}

impl HubLabels {
    /// An empty store over `topology`'s vertices, ranked by
    /// `rank_order`.
    pub fn empty(topology: &Topology) -> Self {
        Self::ranked(&Adjacency::new(topology).fwd)
    }

    /// An empty store over the forward snapshot's vertices, ranked by
    /// `rank_order` — the one place the order is made, shared by the
    /// build and the in-barrier rebuild.
    // qlint: allow(raw-adjacency) — an `Adjacency` snapshot: the live edges, overlay included
    pub(crate) fn ranked(fwd: &Graph) -> Self {
        let n = fwd.num_vertices();
        let order = rank_order(fwd);
        let mut rank_of = vec![0u32; n];
        for (rank, &v) in order.iter().enumerate() {
            rank_of[v.index()] = rank as u32;
        }
        HubLabels {
            order,
            rank_of,
            out_labels: vec![Vec::new(); n],
            in_labels: vec![Vec::new(); n],
        }
    }

    /// Number of covered vertices.
    pub fn num_vertices(&self) -> usize {
        self.rank_of.len()
    }

    /// Total committed entries across both families.
    pub fn total_entries(&self) -> usize {
        self.out_labels.iter().map(Vec::len).sum::<usize>()
            + self.in_labels.iter().map(Vec::len).sum::<usize>()
    }

    /// Exact distance `u → v` over the full label intersection;
    /// `None` when unreachable.
    pub fn query_dist(&self, u: VertexId, v: VertexId) -> Option<f32> {
        let d = intersect_below(
            &self.out_labels[u.index()],
            &self.in_labels[v.index()],
            u32::MAX,
        );
        d.is_finite().then_some(d)
    }

    /// Distance `u → v` witnessed only by hubs ranked strictly above
    /// (numerically below) `rank_limit` — the rank-restricted query that
    /// makes pruning sound by induction on rank. `INFINITY` if no such
    /// witness exists.
    pub fn query_below(&self, u: VertexId, v: VertexId, rank_limit: u32) -> f32 {
        intersect_below(
            &self.out_labels[u.index()],
            &self.in_labels[v.index()],
            rank_limit,
        )
    }

    /// The label family a pass in `dir` commits into.
    pub(crate) fn family(&self, dir: Direction) -> &Vec<Vec<LabelEntry>> {
        match dir {
            Direction::Forward => &self.in_labels,
            Direction::Backward => &self.out_labels,
        }
    }

    /// Insert hub `rank`'s entry at `v`, keeping the list sorted. A
    /// build commits each `(vertex, rank, family)` once: a pass settles a
    /// vertex once.
    pub fn commit(&mut self, v: VertexId, rank: u32, d: f32, dir: Direction) {
        let lists = match dir {
            Direction::Forward => &mut self.in_labels,
            Direction::Backward => &mut self.out_labels,
        };
        let list = &mut lists[v.index()];
        let i = list.partition_point(|e| e.rank < rank);
        debug_assert!(
            list.get(i).is_none_or(|e| e.rank != rank),
            "hub rank {rank} committed twice at {v:?} ({dir:?})"
        );
        list.insert(i, LabelEntry { rank, dist: d });
    }
}

/// Which label family a pass feeds: a forward pass from root `r` settles
/// `dist(r → v)` into `in_labels`; a backward pass settles
/// `dist(v → r)` into `out_labels`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    Forward,
    Backward,
}

/// Flat CSR snapshots of a topology's live edges, taken once per build:
/// the passes and the rank order walk these instead of the mutation
/// overlay.
pub(crate) struct Adjacency {
    /// Out-edges, in `Topology::neighbors` order: the base itself when no
    /// overlay is pending.
    pub(crate) fwd: Arc<Graph>,
    /// In-edges: `rev.neighbors(v)` lists `(u, w)` for every live edge
    /// `u → v`, by ascending `u`.
    pub(crate) rev: Graph,
    /// Every vertex's out-edge multiset equals its in-edge multiset,
    /// weights bit for bit — a root's backward pass would repeat its
    /// forward pass, so the build runs one and commits both families.
    pub(crate) symmetric: bool,
}

impl Adjacency {
    pub(crate) fn new(topology: &Topology) -> Self {
        let fwd = if topology.is_compact() {
            Arc::clone(topology.base())
        } else {
            Arc::new(topology.materialize())
        };
        let mut b = GraphBuilder::new(fwd.num_vertices()).with_edge_capacity(fwd.num_edges());
        for (u, v, w) in fwd.edges() {
            b.add_edge(v.0, u.0, w);
        }
        let rev = b.build();
        let symmetric = same_multisets(&fwd, &rev);
        Adjacency {
            fwd,
            rev,
            symmetric,
        }
    }
}

/// Every vertex lists the same `(neighbor, weight bits)` multiset in `a`
/// as in `b`.
// qlint: allow(raw-adjacency) — an `Adjacency` snapshot: the live edges, overlay included
fn same_multisets(a: &Graph, b: &Graph) -> bool {
    let key = |(t, w): (VertexId, f32)| (t.0, w.to_bits());
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    a.vertices().all(|v| {
        xs.clear();
        xs.extend(a.neighbors(v).map(key));
        xs.sort_unstable();
        ys.clear();
        ys.extend(b.neighbors(v).map(key));
        ys.sort_unstable();
        xs == ys
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgraph_graph::MutationBatch;

    fn topo() -> Topology {
        // 0 -> 1 -> 2, 0 -> 2; degrees: 0:2, 1:1, 2:0.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(0, 2, 5.0);
        Topology::new(Arc::new(b.build()))
    }

    #[test]
    fn rank_order_is_a_deterministic_permutation() {
        let topo = topo();
        let labels = HubLabels::empty(&topo);
        let mut seen = labels.order.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![VertexId(0), VertexId(1), VertexId(2)]);
        for (rank, &v) in labels.order.iter().enumerate() {
            assert_eq!(labels.rank_of[v.index()], rank as u32);
        }
        assert_eq!(labels.order, HubLabels::empty(&topo).order);
    }

    /// Two 5-cliques joined through vertex 5, which touches one *gate*
    /// per clique (4 and 6). Every clique vertex has a higher degree
    /// than the bridge's 2, so a degree order ranks it dead last; every
    /// cross-clique shortest path runs through it, so coverage lifts it
    /// above all eight non-gate clique vertices — only the gates, which
    /// carry the same paths at degree 5, stay ahead.
    #[test]
    fn barbell_bridge_outranks_higher_degree_clique_vertices() {
        let mut b = GraphBuilder::new(11);
        for base in [0u32, 6] {
            for u in base..base + 5 {
                for v in u + 1..base + 5 {
                    b.add_undirected_edge(u, v, 1.0);
                }
            }
        }
        b.add_undirected_edge(4, 5, 1.0);
        b.add_undirected_edge(5, 6, 1.0);
        let topo = Topology::new(Arc::new(b.build()));
        let labels = HubLabels::empty(&topo);
        assert_eq!(topo.degree(VertexId(5)), 2);
        assert_eq!(labels.rank_of[5], 2, "order: {:?}", labels.order);
        let mut gates = labels.order[..2].to_vec();
        gates.sort_unstable();
        assert_eq!(gates, vec![VertexId(4), VertexId(6)]);
    }

    #[test]
    fn degenerate_graphs_still_rank_every_vertex() {
        // Edgeless: every score·degree is 0, ids break the ties.
        let edgeless = Topology::new(Arc::new(GraphBuilder::new(4).build()));
        let ids = |n: u32| (0..n).map(VertexId).collect::<Vec<_>>();
        assert_eq!(HubLabels::empty(&edgeless).order, ids(4));
        assert!(
            HubLabels::empty(&Topology::new(Arc::new(GraphBuilder::new(0).build())))
                .order
                .is_empty()
        );
        // Disconnected: trees stop at their component's edge.
        let mut b = GraphBuilder::new(5);
        b.add_undirected_edge(0, 1, 1.0);
        b.add_undirected_edge(3, 4, 2.0);
        let mut order = HubLabels::empty(&Topology::new(Arc::new(b.build()))).order;
        order.sort_unstable();
        assert_eq!(order, ids(5));
    }

    #[test]
    fn manual_labels_answer_queries() {
        let mut labels = HubLabels::empty(&topo());
        // Hub 0 (rank 0) covers everything.
        labels.commit(VertexId(0), 0, 0.0, Direction::Forward);
        labels.commit(VertexId(1), 0, 1.0, Direction::Forward);
        labels.commit(VertexId(2), 0, 2.0, Direction::Forward);
        labels.commit(VertexId(0), 0, 0.0, Direction::Backward);
        assert_eq!(labels.query_dist(VertexId(0), VertexId(2)), Some(2.0));
        assert_eq!(labels.query_dist(VertexId(2), VertexId(0)), None);
        // Rank restriction: no hub below rank 0 exists.
        assert!(labels
            .query_below(VertexId(0), VertexId(2), 0)
            .is_infinite());
    }

    /// On an overlaid topology the forward snapshot keeps
    /// `Topology::neighbors` order, the reverse one lists exactly the
    /// in-edges, and `symmetric` holds only while every edge has its
    /// equal-weight twin.
    #[test]
    fn snapshots_follow_the_overlay_and_detect_symmetry() {
        let mut b = GraphBuilder::new(4);
        b.add_undirected_edge(0, 1, 1.5);
        b.add_undirected_edge(0, 2, 0.1);
        b.add_undirected_edge(1, 2, 2.0);
        b.add_undirected_edge(2, 3, 0.7);
        let mut topo = Topology::new(Arc::new(b.build()));
        assert!(Adjacency::new(&topo).symmetric);

        let mut batch = MutationBatch::new();
        batch
            .add_undirected_edge(0, 3, 4.0)
            .remove_undirected_edge(0, 1)
            .add_undirected_edge(0, 1, 1.5);
        topo.apply(&batch);
        assert!(!topo.is_compact());
        let adj = Adjacency::new(&topo);
        assert!(adj.symmetric, "the batch re-adds every edge it removes");
        let mut in_edges: Vec<Vec<(VertexId, f32)>> = vec![Vec::new(); 4];
        for u in topo.vertices() {
            let live: Vec<_> = topo.neighbors(u).collect();
            assert_eq!(adj.fwd.neighbors(u).collect::<Vec<_>>(), live);
            for (v, w) in live {
                in_edges[v.index()].push((u, w));
            }
        }
        for v in topo.vertices() {
            assert_eq!(
                adj.rev.neighbors(v).collect::<Vec<_>>(),
                in_edges[v.index()]
            );
        }
        assert_eq!(adj.rev.num_edges(), topo.num_edges());

        let mut one_way = topo.clone();
        let mut batch = MutationBatch::new();
        batch.add_edge(1, 3, 1.0);
        one_way.apply(&batch);
        assert!(!Adjacency::new(&one_way).symmetric);
        let mut reweighted = topo;
        let mut batch = MutationBatch::new();
        batch.set_weight(2, 3, 0.75);
        reweighted.apply(&batch);
        assert!(!Adjacency::new(&reweighted).symmetric);
    }
}
