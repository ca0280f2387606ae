//! The 2-hop hub label store: the one copy of the labels, which builds
//! and repairs write and point queries read.
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

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use qgraph_graph::{Topology, VertexId};

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
/// count: every build derives the same order.
fn rank_order(topology: &Topology) -> Vec<VertexId> {
    let n = topology.num_vertices();
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
            for (t, w) in topology.neighbors(VertexId(v)) {
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
    order.sort_by_cached_key(|&v| (Reverse(score[v.index()] * topology.degree(v) as u64), v.0));
    order
}

/// The hub label store: per-vertex rank-sorted label lists plus the rank
/// order itself.
#[derive(Clone, Debug, Default)]
pub struct HubLabels {
    /// rank → vertex (`rank_order`; vertices created by later mutation
    /// epochs are appended at the end, i.e. lowest priority).
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
    /// `rank_order` — the one place the order is made, shared by the
    /// build and the in-barrier rebuild.
    pub fn empty(topology: &Topology) -> Self {
        let n = topology.num_vertices();
        let order = rank_order(topology);
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

    /// Append vertices created by a mutation epoch at the *end* of the
    /// rank order (lowest priority) — existing labels stay valid and the
    /// newcomers' own passes run last.
    pub fn append_vertices(&mut self, new: &[VertexId]) {
        for &v in new {
            debug_assert_eq!(v.index(), self.rank_of.len(), "dense id append");
            self.rank_of.push(self.order.len() as u32);
            self.order.push(v);
            self.out_labels.push(Vec::new());
            self.in_labels.push(Vec::new());
        }
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

    /// The committed entry of hub `rank` at `v` in the given direction.
    pub fn hub_entry(&self, v: VertexId, rank: u32, dir: Direction) -> Option<f32> {
        match dir {
            Direction::Forward => entry(&self.in_labels[v.index()], rank),
            Direction::Backward => entry(&self.out_labels[v.index()], rank),
        }
    }

    /// The label family a pass in `dir` commits into.
    pub(crate) fn family(&self, dir: Direction) -> &Vec<Vec<LabelEntry>> {
        match dir {
            Direction::Forward => &self.in_labels,
            Direction::Backward => &self.out_labels,
        }
    }

    /// Commit (insert or tighten) hub `rank`'s entry at `v`, keeping the
    /// list sorted; returns `true` if a new entry was inserted.
    pub fn commit(&mut self, v: VertexId, rank: u32, d: f32, dir: Direction) -> bool {
        let lists = match dir {
            Direction::Forward => &mut self.in_labels,
            Direction::Backward => &mut self.out_labels,
        };
        let list = &mut lists[v.index()];
        match list.binary_search_by_key(&rank, |e| e.rank) {
            Ok(i) => {
                list[i].dist = d;
                false
            }
            Err(i) => {
                list.insert(i, LabelEntry { rank, dist: d });
                true
            }
        }
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

/// Reverse adjacency: `rev[v]` lists `(u, w)` for every live edge
/// `u → v`. Backward passes traverse it; the build and the repair
/// construct it once per topology epoch.
pub(crate) type RevAdj = Vec<Vec<(VertexId, f32)>>;

/// Build the reverse adjacency of `topology`'s live edges.
pub(crate) fn reverse_adjacency(topology: &Topology) -> RevAdj {
    let n = topology.num_vertices();
    let mut rev: RevAdj = vec![Vec::new(); n];
    for u in 0..n as u32 {
        let u = VertexId(u);
        for (v, w) in topology.neighbors(u) {
            rev[v.index()].push((u, w));
        }
    }
    rev
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgraph_graph::GraphBuilder;
    use std::sync::Arc;

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

    #[test]
    fn reverse_adjacency_inverts_edges() {
        let rev = reverse_adjacency(&topo());
        assert_eq!(rev[2], vec![(VertexId(0), 5.0), (VertexId(1), 1.0)]);
        assert!(rev[0].is_empty());
    }

    #[test]
    fn append_vertices_extends_at_lowest_priority() {
        let mut labels = HubLabels::empty(&topo());
        labels.append_vertices(&[VertexId(3)]);
        assert_eq!(labels.order.last(), Some(&VertexId(3)));
        assert_eq!(labels.rank_of[3], 3);
        assert_eq!(labels.num_vertices(), 4);
    }
}
