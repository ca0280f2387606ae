//! The label builder, and label repair under graph mutation.
//!
//! One kernel, [`pass`], runs every pruned landmark pass in the crate
//! over a caller-owned [`Scratch`] and the flat CSR snapshots of an
//! [`Adjacency`], taken once per build, and commits while it settles: a
//! hub's pass reads only higher-ranked hubs' entries, so the entries it
//! writes never feed back into its own decisions.
//!
//! The builder ([`build`], behind [`crate::LabelIndex::build`] and the
//! in-barrier rebuild) is classic sequential pruned landmark labeling:
//! one rank loop, each root's forward pass then its backward pass, each
//! pruning against every entry committed before it. On a symmetric
//! snapshot each root runs its forward pass alone and commits into both
//! families — the backward pass would settle the same entries bit for
//! bit. A pass on the 1.9k-vertex serving map costs a few microseconds,
//! less than handing it to another thread, so the builder runs on the
//! caller's thread (ARCHITECTURE.md has the measurements).
//!
//! Repair has one rule: **a batch that moves a minimum rebuilds.** A
//! batch that moves some edge's cheapest parallel — up, down, into
//! existence or out of it — or creates a vertex discards the labels and
//! builds them afresh on the post-batch topology, re-ranked, by the same
//! builder, so repaired labels *are* a fresh build's, entry for entry. A
//! batch that moves nothing runs nothing: shortest paths only see the
//! cheapest parallel, so the labels already cover the new graph.
//! Netting is what makes "insert an edge and remove it again" or
//! "remove the heavier of two parallels" such a batch.
//!
//! Re-running only the passes a batch touches does not pay: a removal
//! touches the top-ranked, most expensive passes, and re-running passes
//! from inserted edges wins on a small insert-only batch but loses on a
//! wave-sized one and leaves the labels above minimal (ARCHITECTURE.md
//! has the measurements).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use qgraph_core::RepairSummary;
use qgraph_graph::{AppliedMutation, EdgeChange, Topology, VertexId};
use rustc_hash::FxHashMap;

use crate::dist::{covers, improves, OrdF32};
use crate::labels::{entry, Adjacency, Direction, HubLabels, LabelEntry};

/// The labels' best distance between `root` and `vertex` in `dir`,
/// witnessed by hubs ranked above `rank` — what hub `rank`'s pass prunes
/// at `vertex` against, and what the audit holds an edge to.
fn threshold(
    labels: &HubLabels,
    root: VertexId,
    vertex: VertexId,
    rank: u32,
    dir: Direction,
) -> f32 {
    match dir {
        Direction::Forward => labels.query_below(root, vertex, rank),
        Direction::Backward => labels.query_below(vertex, root, rank),
    }
}

/// The entries of a rank-sorted list whose hubs rank above `rank`.
fn below(list: &[LabelEntry], rank: u32) -> impl Iterator<Item = &LabelEntry> + '_ {
    list.iter().take_while(move |e| e.rank < rank)
}

/// The root's own label a pass in `dir` prunes with: the family the
/// opposite direction commits into, which the pass itself never writes.
fn own_label(labels: &HubLabels, root: VertexId, dir: Direction) -> &[LabelEntry] {
    match dir {
        Direction::Forward => &labels.out_labels[root.index()],
        Direction::Backward => &labels.in_labels[root.index()],
    }
}

/// The buffers a [`pass`] runs in, owned by the caller and reused from
/// pass to pass. Between passes `dist` and `hub` are all `INFINITY` and
/// `touched` and `heap` are empty; a pass grows the vectors to the graph
/// on first use and restores that state before it returns.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Tentative distance per vertex.
    dist: Vec<f32>,
    /// The vertices whose `dist` the running pass wrote.
    touched: Vec<VertexId>,
    heap: BinaryHeap<Reverse<(OrdF32, u32)>>,
    /// The root's own label by hub rank, ranks above the pass's only.
    hub: Vec<f32>,
}

impl Scratch {
    fn relax(&mut self, v: VertexId, d: f32) {
        let slot = &mut self.dist[v.index()];
        if improves(d, *slot) {
            if slot.is_infinite() {
                self.touched.push(v);
            }
            *slot = d;
            self.heap.push(Reverse((OrdF32(d), v.0)));
        }
    }
}

/// One pruned Dijkstra pass from hub `rank`'s root in `dir` over the
/// snapshot `adj`: commits every settled vertex no higher-ranked hub
/// covers as the hub's entry there, and returns the number of entries
/// committed.
///
/// `mirror` commits each settled entry into the backward family too: a
/// forward pass from the root, run on a symmetric snapshot over labels
/// whose families are mirror images, settles exactly what the backward
/// pass would (see [`build`]).
///
/// The root's label is scattered into `scratch.hub` once; the prune test
/// at a settled `v` then walks `v`'s list below `rank` alone and sums the
/// same operands, in the same order, as the label intersection behind
/// [`threshold`] — so it decides every prune exactly as `threshold` does.
pub(crate) fn pass(
    labels: &mut HubLabels,
    adj: &Adjacency,
    rank: u32,
    dir: Direction,
    mirror: bool,
    scratch: &mut Scratch,
) -> usize {
    debug_assert!(!mirror || dir == Direction::Forward);
    let s = scratch;
    let root = labels.order[rank as usize];
    let edges = match dir {
        Direction::Forward => &*adj.fwd,
        Direction::Backward => &adj.rev,
    };
    if s.dist.len() < edges.num_vertices() {
        s.dist.resize(edges.num_vertices(), f32::INFINITY);
    }
    if s.hub.len() < labels.order.len() {
        s.hub.resize(labels.order.len(), f32::INFINITY);
    }
    for e in below(own_label(labels, root, dir), rank) {
        s.hub[e.rank as usize] = e.dist;
    }
    s.relax(root, 0.0);
    let mut added = 0usize;
    while let Some(Reverse((OrdF32(d), v))) = s.heap.pop() {
        if improves(s.dist[v as usize], d) {
            continue; // stale heap entry
        }
        let vertex = VertexId(v);
        let list = &labels.family(dir)[vertex.index()];
        let hub = &s.hub;
        let pruned = match dir {
            Direction::Forward => {
                below(list, rank).any(|e| covers(hub[e.rank as usize] + e.dist, d))
            }
            Direction::Backward => {
                below(list, rank).any(|e| covers(e.dist + hub[e.rank as usize], d))
            }
        };
        if pruned {
            continue; // a higher-ranked hub covers it
        }
        labels.commit(vertex, rank, d, dir);
        added += 1;
        if mirror {
            labels.commit(vertex, rank, d, Direction::Backward);
            added += 1;
        }
        for (t, w) in edges.neighbors(vertex) {
            s.relax(t, d + w);
        }
    }
    for v in s.touched.drain(..) {
        s.dist[v.index()] = f32::INFINITY;
    }
    for e in below(own_label(labels, root, dir), rank) {
        s.hub[e.rank as usize] = f32::INFINITY;
    }
    added
}

/// Build the complete labeling over `topology`, ranked by `rank_order`
/// on its forward snapshot: for each rank, the root's forward pass, then
/// its backward pass.
///
/// On a symmetric snapshot each root runs its forward pass alone and
/// commits into both families. That is exact: the backward pass would
/// sum the same weights in the same order from the root and settle the
/// same `(vertex, distance)` pairs bit for bit, its prune test being the
/// forward one with the operands of one IEEE addition swapped — so, by
/// induction on rank, `in_labels == out_labels` after every rank.
pub(crate) fn build(topology: &Topology, scratch: &mut Scratch) -> HubLabels {
    let adj = Adjacency::new(topology);
    let mut labels = HubLabels::ranked(&adj.fwd);
    let dirs: &[Direction] = if adj.symmetric {
        &[Direction::Forward]
    } else {
        &[Direction::Forward, Direction::Backward]
    };
    for rank in 0..labels.order.len() as u32 {
        for &dir in dirs {
            pass(&mut labels, &adj, rank, dir, adj.symmetric, scratch);
        }
    }
    labels
}

/// Did the batch move some edge's cheapest parallel — heavier, lighter,
/// into existence or out of it?
///
/// A batch can insert an edge and remove it again, reweight repeatedly,
/// or stack *parallel* edges (the topology is a multigraph), and only the
/// cheapest parallel is on any shortest path, so the batch is judged on
/// each touched `(from, to)`'s pre-batch vs post-batch minimum weight.
/// The pre-batch parallel multiset is recovered by undoing this batch's
/// events, in reverse, against the post-batch adjacency.
fn moves_a_minimum(topology: &Topology, applied: &AppliedMutation) -> bool {
    // Per-edge event list: (weight before, weight after) per event.
    type EdgeEvents = Vec<(Option<f32>, Option<f32>)>;
    let mut by_edge: FxHashMap<(VertexId, VertexId), EdgeEvents> = FxHashMap::default();
    for change in &applied.edge_changes {
        let (from, to, before, after) = match *change {
            EdgeChange::Inserted { from, to, weight } => (from, to, None, Some(weight)),
            EdgeChange::Removed { from, to, weight } => (from, to, Some(weight), None),
            EdgeChange::Reweighted { from, to, old, new } => (from, to, Some(old), Some(new)),
        };
        by_edge.entry((from, to)).or_default().push((before, after));
    }
    by_edge.iter().any(|(&(a, b), events)| {
        let mut multiset: Vec<f32> = topology
            .neighbors(a)
            .filter(|&(t, _)| t == b)
            .map(|(_, w)| w)
            .collect();
        let after_min = multiset.iter().copied().reduce(f32::min);
        for &(before, after) in events.iter().rev() {
            if let Some(w) = after {
                if let Some(i) = multiset.iter().position(|&x| x == w) {
                    multiset.swap_remove(i);
                }
            }
            if let Some(w) = before {
                multiset.push(w);
            }
        }
        let before_min = multiset.iter().copied().reduce(f32::min);
        match (before_min, after_min) {
            (Some(wi), Some(wf)) => improves(wf, wi) || improves(wi, wf),
            (wi, wf) => wi.is_some() != wf.is_some(),
        }
    })
}

/// Repair `labels` to cover `topology` (the post-batch graph) after
/// `applied`. See the module docs for the rule.
pub(crate) fn repair(
    labels: &mut HubLabels,
    topology: &Topology,
    applied: &AppliedMutation,
) -> RepairSummary {
    if applied.new_vertices.is_empty() && !moves_a_minimum(topology, applied) {
        return RepairSummary::default(); // the labels already cover it
    }
    // The whole pre-batch index counts as removed, and is freed before
    // the build allocates its own.
    let labels_removed = std::mem::take(labels).total_entries();
    *labels = build(topology, &mut Scratch::default());
    RepairSummary {
        rebuilt: true,
        labels_removed,
        labels_added: labels.total_entries(),
        roots_rerun: 2 * labels.order.len(),
    }
}

/// Re-derive the labeling's cover invariant from scratch and panic on
/// the first inconsistency (see [`crate::LabelIndex::audit`]): one
/// relaxation sweep over every live edge. An edge that reaches the head
/// *tighter* than its held entry (or reaches a head holding no entry at
/// all) is only legal if some higher-ranked hub already bounds the
/// candidate distance, so the pass pruned there on a 2-hop cover sum.
/// No cover means a wrong distance — the served minimum could be beaten
/// by a real path. The comparisons are exact and a cover sum associates
/// differently from the path sum it bounds, so the audit is for weights
/// whose sums are exact in f32 (integers).
pub(crate) fn audit(labels: &HubLabels, topology: &Topology) {
    let check = |dir: Direction, parent: VertexId, child: VertexId, w: f32| {
        let lists = labels.family(dir);
        for &LabelEntry { rank, dist } in &lists[parent.index()] {
            let cand = dist + w;
            let root = labels.order[rank as usize];
            let held = entry(&lists[child.index()], rank);
            if held.is_some_and(|dc| covers(dc, cand)) {
                continue;
            }
            let probe = threshold(labels, root, child, rank, dir);
            assert!(
                covers(probe, cand),
                "index audit: vertex {} holds {held:?} for {dir:?} hub rank {rank} but \
                 the edge {}->{} (w {w}) reaches it at {cand}, and no higher-ranked \
                 hub covers that distance (best 2-hop probe: {probe})",
                child.0,
                parent.0,
                child.0,
            );
        }
    };
    for ui in 0..topology.num_vertices() {
        let u = VertexId(ui as u32);
        for (t, w) in topology.neighbors(u) {
            // Forward entries relax along the edge; backward entries
            // against it (the head is the parent of the tail).
            check(Direction::Forward, u, t, w);
            check(Direction::Backward, t, u, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgraph_graph::{GraphBuilder, MutationBatch};
    use qgraph_workload::{RoadNetworkConfig, RoadNetworkGenerator};
    use std::sync::Arc;

    /// 0 → 1 → 3 beats 0 → 2 → 3; 4 hangs off 3.
    fn diamond() -> Topology {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 3, 1.0);
        b.add_edge(0, 2, 5.0);
        b.add_edge(2, 3, 1.0);
        b.add_edge(3, 4, 2.0);
        Topology::new(Arc::new(b.build()))
    }

    /// A random digraph with integer weights 1..=9: `n` vertices and up
    /// to `3n` edges from a fixed LCG, parallels and all.
    fn random_digraph(n: u32, seed: u64) -> Topology {
        let mut state = seed;
        let mut next = move |bound: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % u64::from(bound)) as u32
        };
        let mut b = GraphBuilder::new(n as usize);
        for _ in 0..3 * n {
            let (u, v) = (next(n), next(n));
            if u != v {
                b.add_edge(u, v, (1 + next(9)) as f32);
            }
        }
        Topology::new(Arc::new(b.build()))
    }

    fn road_map() -> Topology {
        let net = RoadNetworkGenerator::new(RoadNetworkConfig::bw_like(0.01, 17)).generate();
        Topology::new(Arc::new(net.graph))
    }

    /// Hub `rank`'s entries in `dir`'s family, sorted by vertex.
    fn entries_of(labels: &HubLabels, rank: u32, dir: Direction) -> Vec<(u32, f32)> {
        let lists = labels.family(dir);
        (0..lists.len())
            .filter_map(|v| Some((v as u32, entry(&lists[v], rank)?)))
            .collect()
    }

    fn assert_clean(s: &Scratch) {
        assert!(s.dist.iter().all(|x| x.is_infinite()), "dist left dirty");
        assert!(s.hub.iter().all(|x| x.is_infinite()), "hub left dirty");
        assert!(s.touched.is_empty() && s.heap.is_empty());
    }

    fn assert_same_labels(a: &HubLabels, b: &HubLabels) {
        assert_eq!(a.order, b.order);
        assert_eq!(a.out_labels, b.out_labels);
        assert_eq!(a.in_labels, b.in_labels);
    }

    /// Reverse adjacency: `rev[v]` lists `(u, w)` for every live edge
    /// `u → v`, read off the topology itself.
    type RevAdj = Vec<Vec<(VertexId, f32)>>;

    fn reverse_adjacency(topology: &Topology) -> RevAdj {
        let mut rev: RevAdj = vec![Vec::new(); topology.num_vertices()];
        for u in topology.vertices() {
            for (v, w) in topology.neighbors(u) {
                rev[v.index()].push((u, w));
            }
        }
        rev
    }

    /// The kernel before it took a scratch: a hash-map `dist`, the label
    /// intersection at every settled vertex, fresh buffers per pass. It
    /// reads the labels only and returns the settled pairs to commit.
    fn reference_pass(
        labels: &HubLabels,
        topology: &Topology,
        rev: &RevAdj,
        rank: u32,
        dir: Direction,
    ) -> Vec<(VertexId, f32)> {
        let root = labels.order[rank as usize];
        let mut dist: FxHashMap<u32, f32> = FxHashMap::default();
        let mut heap: BinaryHeap<Reverse<(OrdF32, u32)>> = BinaryHeap::new();
        dist.insert(root.0, 0.0);
        heap.push(Reverse((OrdF32(0.0), root.0)));
        let mut settled = Vec::new();
        while let Some(Reverse((OrdF32(d), v))) = heap.pop() {
            if improves(dist[&v], d) {
                continue;
            }
            let vertex = VertexId(v);
            if covers(threshold(labels, root, vertex, rank, dir), d) {
                continue;
            }
            settled.push((vertex, d));
            let edges: Vec<(VertexId, f32)> = match dir {
                Direction::Forward => topology.neighbors(vertex).collect(),
                Direction::Backward => rev[vertex.index()].clone(),
            };
            for (t, w) in edges {
                let slot = dist.entry(t.0).or_insert(f32::INFINITY);
                if improves(d + w, *slot) {
                    *slot = d + w;
                    heap.push(Reverse((OrdF32(d + w), t.0)));
                }
            }
        }
        settled
    }

    /// Classic pruned landmark labeling over the reference kernel: each
    /// pass commits before the next one runs, both directions per root.
    fn reference_build(topology: &Topology) -> HubLabels {
        let mut labels = HubLabels::empty(topology);
        let rev = reverse_adjacency(topology);
        for rank in 0..labels.order.len() as u32 {
            for dir in [Direction::Forward, Direction::Backward] {
                for (v, d) in reference_pass(&labels, topology, &rev, rank, dir) {
                    labels.commit(v, rank, d, dir);
                }
            }
        }
        labels
    }

    /// A full pass from `v` against empty labels, where nothing prunes:
    /// plain Dijkstra, sorted by vertex.
    fn unpruned(v: u32, dir: Direction) -> Vec<(u32, f32)> {
        let topo = diamond();
        let mut labels = HubLabels::empty(&topo);
        let adj = Adjacency::new(&topo);
        let rank = labels.rank_of[v as usize];
        let mut scratch = Scratch::default();
        pass(&mut labels, &adj, rank, dir, false, &mut scratch);
        assert_clean(&scratch);
        entries_of(&labels, rank, dir)
    }

    #[test]
    fn forward_pass_settles_distances() {
        assert_eq!(
            unpruned(0, Direction::Forward),
            vec![(0, 0.0), (1, 1.0), (2, 5.0), (3, 2.0), (4, 4.0)]
        );
    }

    #[test]
    fn backward_pass_settles_reverse_distances() {
        // Distances *to* vertex 3.
        assert_eq!(
            unpruned(3, Direction::Backward),
            vec![(0, 2.0), (1, 1.0), (2, 1.0), (3, 0.0)]
        );
    }

    /// The scratch kernel builds the reference's labels entry for entry,
    /// on real-valued road weights and on an integer digraph, and every
    /// pass hands its scratch back clean. The road map is symmetric, so
    /// its builds take the one-pass path — compact, and overlaid after a
    /// removal batch; one one-way edge sends it down the two-pass path.
    /// A scratch that already built a bigger graph builds every input
    /// like a fresh one.
    #[test]
    fn build_equals_the_reference_kernel_entry_for_entry() {
        let mut closed = road_map();
        let mut batch = MutationBatch::new();
        for u in [3u32, 40, 77] {
            let (v, _) = closed.neighbors(VertexId(u)).next().expect("road vertex");
            batch.remove_undirected_edge(u, v.0);
        }
        closed.apply(&batch);
        assert!(!closed.is_compact());
        let mut one_way = road_map();
        let mut batch = MutationBatch::new();
        batch.add_edge(5, 90, 0.3);
        one_way.apply(&batch);
        let mut reused = Scratch::default();
        build(&random_digraph(200, 11), &mut reused);
        for (topo, symmetric) in [
            (road_map(), true),
            (closed, true),
            (one_way, false),
            (random_digraph(120, 3), false),
        ] {
            let adj = Adjacency::new(&topo);
            assert_eq!(adj.symmetric, symmetric);
            let want = reference_build(&topo);
            let labels = build(&topo, &mut Scratch::default());
            assert_same_labels(&labels, &want);
            assert_same_labels(&build(&topo, &mut reused), &want);
            assert_clean(&reused);

            let mut checked = HubLabels::ranked(&adj.fwd);
            let dirs: &[Direction] = if symmetric {
                &[Direction::Forward]
            } else {
                &[Direction::Forward, Direction::Backward]
            };
            let (mut added, mut scratch) = (0, Scratch::default());
            for rank in 0..checked.order.len() as u32 {
                for &dir in dirs {
                    added += pass(&mut checked, &adj, rank, dir, symmetric, &mut scratch);
                    assert_clean(&scratch);
                }
            }
            assert_same_labels(&checked, &want);
            assert_eq!(added, want.total_entries());
        }
    }
}
