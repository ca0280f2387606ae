//! The label builder, and label repair under graph mutation.
//!
//! One kernel, [`pass`], runs every pruned landmark pass in the crate —
//! the build's, an insertion resume's and a new vertex's first — over a
//! caller-owned [`Scratch`] and the flat CSR snapshots of an
//! [`Adjacency`], taken once per build or repair, and commits while it
//! settles: a hub's pass reads only higher-ranked hubs' entries and the
//! hub's own pre-pass entry at each vertex, so the entries it writes
//! never feed back into its own decisions.
//!
//! The builder ([`build`], behind [`crate::LabelIndex::build`] and the
//! in-barrier rebuild) is classic sequential pruned landmark labeling:
//! one rank loop, each root's forward pass then its backward pass, each
//! pruning against every entry committed before it. On a symmetric
//! snapshot each root runs its forward pass alone and commits into both
//! families — the backward pass would settle the same entries bit for
//! bit. Resumes and new-vertex passes keep both directions: drifted
//! labels need not be mirror images. A pass on the 1.9k-vertex serving
//! map costs a few microseconds, less than handing it to another
//! thread, so the builder runs on the caller's thread (ARCHITECTURE.md
//! has the measurements).
//!
//! Repair consumes one [`AppliedMutation`]'s `edge_changes`, netted per
//! edge to the cheapest parallel's weight before and after the batch, and
//! restores the 2-hop cover on the post-batch topology by one rule:
//!
//! * **A batch that nets to a removal rebuilds.** A deleted edge, or a
//!   reweight-up of the cheapest parallel, can lengthen shortest paths;
//!   the labels are discarded and built afresh on the new topology —
//!   re-ranked, vertices created by the batch included — by the same
//!   builder, so the repaired labels *are* a fresh build's, entry for
//!   entry. Re-running only the passes a removal touches does not pay:
//!   they are the top-ranked, most expensive ones, run one at a time
//!   against live labels, and that lost to the rebuild on every measured
//!   cell (ROADMAP item 3 has the table). The price is a closure on a
//!   quiet street: a few percent of the passes touched, one rebuild paid.
//! * **Insertions / reweight-down** only create shorter paths. Each root
//!   with a committed entry at the new edge's tail resumes its pass from
//!   the head (Akiba-style): seeds `d(r,a) + w` at `b`, then a pruned
//!   Dijkstra over the new topology settles every improvement. Resumes
//!   never drop an entry a shorter path made redundant, so labels drift
//!   above minimal until the next rebuild.
//! * **New vertices** are appended at the tail of the rank order and run
//!   their own passes last.
//!
//! Netting is what makes "insert an edge and remove it again" or
//! "remove the heavier of two parallels" a no-op: no minimum moved, no
//! pass runs.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

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

/// One pruned Dijkstra pass for hub `rank` in `dir` over the snapshot
/// `adj`: commits every settled vertex no higher-ranked hub covers as the
/// hub's entry there, and returns the number of entries inserted (the
/// rest tightened one).
///
/// `mirror` commits each settled entry into the backward family too: a
/// forward pass from the root, run on a symmetric snapshot over labels
/// whose families are mirror images, settles exactly what the backward
/// pass would (see [`build`]).
///
/// `resume` is `None` for a full pass, seeded at the root with 0. An
/// insertion resume passes its seeds instead, and the pass then also
/// stops at a vertex whose existing entry for this hub already covers
/// the candidate: the old entries' consequences are already in the
/// labels, so only improvements propagate.
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
    resume: Option<&[(VertexId, f32)]>,
    mirror: bool,
    scratch: &mut Scratch,
) -> usize {
    debug_assert!(!mirror || (dir == Direction::Forward && resume.is_none()));
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
    match resume {
        None => s.relax(root, 0.0),
        Some(seeds) => {
            for &(v, d) in seeds {
                s.relax(v, d);
            }
        }
    }
    let mut added = 0usize;
    while let Some(Reverse((OrdF32(d), v))) = s.heap.pop() {
        if improves(s.dist[v as usize], d) {
            continue; // stale heap entry
        }
        let vertex = VertexId(v);
        if resume.is_some()
            && labels
                .hub_entry(vertex, rank, dir)
                .is_some_and(|old| covers(old, d))
        {
            continue;
        }
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
        if labels.commit(vertex, rank, d, dir) {
            added += 1;
        }
        if mirror && labels.commit(vertex, rank, d, Direction::Backward) {
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
            pass(&mut labels, &adj, rank, dir, None, adj.symmetric, scratch);
        }
    }
    labels
}

/// Net the batch's edge changes per `(from, to)`: `None` when some
/// edge's cheapest parallel got *heavier* or vanished, else the edges
/// whose cheapest parallel got lighter or appeared — `(a, b, new
/// minimum)`, sorted.
///
/// A batch can insert an edge and remove it again, reweight repeatedly,
/// or stack *parallel* edges (the topology is a multigraph), and
/// repairing against the intermediate states would label paths the final
/// topology does not have. Shortest paths only see the cheapest
/// parallel, so the batch is judged on the pre-batch vs post-batch
/// minimum weight. The pre-batch parallel multiset is recovered by
/// undoing this batch's events, in reverse, against the post-batch
/// adjacency.
fn net_changes(
    topology: &Topology,
    applied: &AppliedMutation,
) -> Option<Vec<(VertexId, VertexId, f32)>> {
    // Per-edge event list: (weight before, weight after) per event.
    type EdgeEvents = Vec<(Option<f32>, Option<f32>)>;
    let mut touched_edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut by_edge: FxHashMap<(VertexId, VertexId), EdgeEvents> = FxHashMap::default();
    for change in &applied.edge_changes {
        let (from, to, before, after) = match *change {
            EdgeChange::Inserted { from, to, weight } => (from, to, None, Some(weight)),
            EdgeChange::Removed { from, to, weight } => (from, to, Some(weight), None),
            EdgeChange::Reweighted { from, to, old, new } => (from, to, Some(old), Some(new)),
        };
        by_edge
            .entry((from, to))
            .or_insert_with(|| {
                touched_edges.push((from, to));
                Vec::new()
            })
            .push((before, after));
    }
    let mut inserts: Vec<(VertexId, VertexId, f32)> = Vec::new();
    for &(a, b) in &touched_edges {
        let mut multiset: Vec<f32> = topology
            .neighbors(a)
            .filter(|&(t, _)| t == b)
            .map(|(_, w)| w)
            .collect();
        let after_min = multiset.iter().copied().reduce(f32::min);
        for &(before, after) in by_edge[&(a, b)].iter().rev() {
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
            (None, Some(w)) => inserts.push((a, b, w)),
            (Some(_), None) => return None,
            (Some(wi), Some(wf)) if improves(wf, wi) => inserts.push((a, b, wf)),
            (Some(wi), Some(wf)) if improves(wi, wf) => return None,
            _ => {} // minimum unchanged (or ephemeral within the batch)
        }
    }
    inserts.sort_unstable_by_key(|&(a, b, _)| (a, b));
    Some(inserts)
}

/// Repair `labels` to cover `topology` (the post-batch graph) after
/// `applied`. See the module docs for the rule.
pub(crate) fn repair(
    labels: &mut HubLabels,
    topology: &Topology,
    applied: &AppliedMutation,
) -> RepairSummary {
    let mut scratch = Scratch::default();
    let Some(inserts) = net_changes(topology, applied) else {
        // A full rebuild on the current topology, re-ranked: the whole
        // pre-batch index counts as removed, and is freed before the
        // build allocates its own.
        let labels_removed = std::mem::take(labels).total_entries();
        *labels = build(topology, &mut scratch);
        return RepairSummary {
            rebuilt: true,
            labels_removed,
            labels_added: labels.total_entries(),
            roots_rerun: 2 * labels.order.len(),
        };
    };
    let mut summary = RepairSummary::default();
    if inserts.is_empty() && applied.new_vertices.is_empty() {
        return summary; // no minimum moved: the labels already cover it
    }

    // Vertices created by this batch join at the lowest ranks; their
    // passes run last, and insert-resumes reach *through* them because
    // the resumed Dijkstra runs on the new topology.
    labels.append_vertices(&applied.new_vertices);
    let adj = Adjacency::new(topology);

    // 1. Insertion resumes, in rank order. A root's seed distances are
    //    read from its own entries at each new edge's tail — exact for
    //    their hub by rank induction — and the resumed pass settles
    //    every improvement on the new topology.
    let mut hubs: BTreeSet<u32> = BTreeSet::new();
    for &(a, b, _) in &inserts {
        hubs.extend(labels.in_labels[a.index()].iter().map(|e| e.rank));
        hubs.extend(labels.out_labels[b.index()].iter().map(|e| e.rank));
    }
    for rank in hubs {
        for dir in [Direction::Forward, Direction::Backward] {
            let lists = labels.family(dir);
            let seeds: Vec<(VertexId, f32)> = inserts
                .iter()
                .filter_map(|&(a, b, w)| {
                    let (tail, head) = match dir {
                        Direction::Forward => (a, b),
                        Direction::Backward => (b, a),
                    };
                    let cand = entry(&lists[tail.index()], rank)? + w;
                    let held = entry(&lists[head.index()], rank);
                    (!held.is_some_and(|dh| covers(dh, cand))).then_some((head, cand))
                })
                .collect();
            if !seeds.is_empty() {
                let resume = Some(seeds.as_slice());
                summary.labels_added += pass(labels, &adj, rank, dir, resume, false, &mut scratch);
                summary.roots_rerun += 1;
            }
        }
    }

    // 2. The new vertices' own passes, in their (appended) rank order.
    for &v in &applied.new_vertices {
        let rank = labels.rank_of[v.index()];
        for dir in [Direction::Forward, Direction::Backward] {
            summary.labels_added += pass(labels, &adj, rank, dir, None, false, &mut scratch);
            summary.roots_rerun += 1;
        }
    }

    summary
}

/// Re-derive the labeling's cover invariant from scratch and panic on
/// the first inconsistency (see [`crate::LabelIndex::audit`]): one
/// relaxation sweep over every live edge. An edge that reaches the head
/// *tighter* than its held entry (or reaches a head holding no entry at
/// all) is only legal if some higher-ranked hub already bounds the
/// candidate distance, so the pass pruned there and the held entry is
/// covered-redundant (entries legitimately drift loose under insert
/// resumes and drop on the next rebuild). No cover means a wrong
/// distance — the served minimum could be beaten by a real path. The
/// comparisons are exact and a 2-hop probe is a differently associated
/// sum, so the audit is for weights whose sums are exact in f32
/// (integers).
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

    fn fresh_build(topology: &Topology) -> HubLabels {
        build(topology, &mut Scratch::default())
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
        pass(&mut labels, &adj, rank, dir, None, false, &mut scratch);
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

    /// A resume reads the labels and writes only its own hub's entries —
    /// the improvements — and the repair built from it answers like a
    /// fresh build and keeps the cover invariant.
    #[test]
    fn pass_reads_labels_and_the_resume_built_from_it_matches_a_fresh_build() {
        let mut topo = diamond();
        let mut labels = fresh_build(&topo);
        let before = labels.clone();

        // 2 → 4 at weight 1 shortens 2 ⇝ 4 from 3 to 1.
        let mut batch = MutationBatch::new();
        batch.add_edge(2, 4, 1.0);
        let applied = topo.apply(&batch);
        let adj = Adjacency::new(&topo);
        let rank = labels.rank_of[2];
        let mut resumed = labels.clone();
        let seeds = [(VertexId(4), 1.0)];
        let mut scratch = Scratch::default();
        let (fwd, bwd) = (Direction::Forward, Direction::Backward);
        pass(
            &mut resumed,
            &adj,
            rank,
            fwd,
            Some(&seeds),
            false,
            &mut scratch,
        );
        assert_clean(&scratch);
        let mut want = entries_of(&before, rank, fwd);
        want.retain(|&(v, _)| v != 4);
        want.push((4, 1.0));
        want.sort_by_key(|&(v, _)| v);
        assert_eq!(entries_of(&resumed, rank, fwd), want);
        for other in (0..5).filter(|&r| r != rank) {
            assert_eq!(
                entries_of(&resumed, other, fwd),
                entries_of(&before, other, fwd)
            );
        }
        for r in 0..5 {
            assert_eq!(entries_of(&resumed, r, bwd), entries_of(&before, r, bwd));
        }

        let summary = repair(&mut labels, &topo, &applied);
        assert!(!summary.rebuilt && summary.roots_rerun > 0, "{summary:?}");
        audit(&labels, &topo);
        let fresh = fresh_build(&topo);
        for u in 0..5 {
            for v in 0..5 {
                let (u, v) = (VertexId(u), VertexId(v));
                assert_eq!(
                    labels.query_dist(u, v),
                    fresh.query_dist(u, v),
                    "{u:?}->{v:?}"
                );
            }
        }
    }

    /// The scratch kernel builds the reference's labels entry for entry,
    /// on real-valued road weights and on an integer digraph, and every
    /// pass hands its scratch back clean. The road map is symmetric, so
    /// its builds take the one-pass path — compact, and overlaid after a
    /// removal batch; one one-way edge sends it down the two-pass path.
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

            let mut checked = HubLabels::ranked(&adj.fwd);
            let dirs: &[Direction] = if symmetric {
                &[Direction::Forward]
            } else {
                &[Direction::Forward, Direction::Backward]
            };
            let (mut added, mut scratch) = (0, Scratch::default());
            for rank in 0..checked.order.len() as u32 {
                for &dir in dirs {
                    added += pass(&mut checked, &adj, rank, dir, None, symmetric, &mut scratch);
                    assert_clean(&scratch);
                }
            }
            assert_same_labels(&checked, &want);
            assert_eq!(added, want.total_entries());
        }
    }

    /// A scratch that already ran a bigger graph's build resumes exactly
    /// like a fresh one, pass after pass.
    #[test]
    fn a_reused_scratch_resumes_like_a_fresh_one() {
        let mut reused = Scratch::default();
        let big = random_digraph(200, 11);
        build(&big, &mut reused);

        let mut topo = random_digraph(80, 5);
        let base = fresh_build(&topo);
        let mut batch = MutationBatch::new();
        batch.add_edge(3, 41, 1.0).add_edge(57, 8, 1.0);
        topo.apply(&batch);
        let adj = Adjacency::new(&topo);
        let (mut with_reused, mut with_fresh) = (base.clone(), base.clone());
        let mut resumes = 0;
        for rank in 0..base.order.len() as u32 {
            for (dir, tail, head) in [
                (Direction::Forward, 3, 41),
                (Direction::Backward, 41, 3),
                (Direction::Forward, 57, 8),
                (Direction::Backward, 8, 57),
            ] {
                let Some(at_tail) = entry(&with_fresh.family(dir)[tail], rank) else {
                    continue;
                };
                let seeds = [(VertexId(head as u32), at_tail + 1.0)];
                let resume = Some(&seeds[..]);
                let a = pass(
                    &mut with_reused,
                    &adj,
                    rank,
                    dir,
                    resume,
                    false,
                    &mut reused,
                );
                let fresh = &mut Scratch::default();
                let b = pass(&mut with_fresh, &adj, rank, dir, resume, false, fresh);
                assert_eq!(a, b, "rank {rank} {dir:?}");
                assert_clean(&reused);
                assert_same_labels(&with_reused, &with_fresh);
                resumes += 1;
            }
        }
        assert!(resumes > 0);
    }
}
