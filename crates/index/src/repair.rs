//! The label builder, and label repair under graph mutation.
//!
//! One read-only kernel, [`pass`], runs every pruned landmark pass in the
//! crate: a hub's pass reads only higher-ranked hubs' labels and the
//! hub's own pre-pass entries, so it never needs to write while it runs —
//! the build, the insert resume and a new vertex's first pass all settle
//! first and commit after.
//!
//! The builder ([`build_waves`], behind [`crate::LabelIndex::build`] and
//! the in-barrier rebuild) runs the passes as **morsel-parallel waves**:
//! each wave of [`WAVE`] roots prunes against the labels committed by
//! earlier waves, executes across scoped worker threads, then commits in
//! rank order. The committed labels do not depend on the thread count.
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
//!   against live labels, and that lost to the parallel rebuild on every
//!   measured cell (ROADMAP item 3 has the table). The price is a closure
//!   on a quiet street: a few percent of the passes touched, one rebuild
//!   paid.
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
use crate::labels::{entry, reverse_adjacency, Direction, HubLabels, LabelEntry, RevAdj};

/// Landmark roots per build wave (each runs two passes). A wave's passes
/// prune only against earlier waves, so a wider wave keeps more workers
/// busy and commits a few more entries: its outputs are re-filtered
/// against the live labels in rank order, which answers every query the
/// same but is not the width-1 labeling entry for entry — a pass that
/// propagated through a vertex the sequential build would have pruned at
/// settles the vertices beyond it at their true distance, where the
/// covering hub ties in real arithmetic, and the 2-hop sum associates
/// differently from the path sum in f32 (on the 1.9k-vertex road map
/// widths 1 / 8 / 32 commit 151,184 / 154,258 / 169,522 entries).
const WAVE: usize = 8;

/// The labels' best distance between `root` and `vertex` in `dir`,
/// witnessed by hubs ranked above `rank` — the prune threshold of hub
/// `rank`'s pass at `vertex`.
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

/// One read-only pruned Dijkstra pass for hub `rank`, seeded at `seeds`:
/// the morsel a build wave runs per worker, and the body of every repair
/// pass. Returns the settled `(vertex, distance)` pairs no higher-ranked
/// hub covers, in settling order, for the caller to commit.
///
/// `resume` also stops at a vertex whose *existing* entry for this hub
/// already covers the candidate — the mode of an insertion resume, where
/// only improvements propagate because the old entries' consequences are
/// already in the labels. A full pass from the root passes `false`.
///
/// Settling first and committing after equals committing while settling:
/// the pass reads ranks below `rank` and the hub's pre-pass entry at a
/// vertex, and Dijkstra settles each vertex once.
pub(crate) fn pass(
    labels: &HubLabels,
    topology: &Topology,
    rev: &RevAdj,
    rank: u32,
    dir: Direction,
    seeds: &[(VertexId, f32)],
    resume: bool,
) -> Vec<(VertexId, f32)> {
    type Heap = BinaryHeap<Reverse<(OrdF32, u32)>>;
    fn relax(dist: &mut FxHashMap<u32, f32>, heap: &mut Heap, v: VertexId, d: f32) {
        let slot = dist.entry(v.0).or_insert(f32::INFINITY);
        if improves(d, *slot) {
            *slot = d;
            heap.push(Reverse((OrdF32(d), v.0)));
        }
    }
    let root = labels.order[rank as usize];
    let mut dist: FxHashMap<u32, f32> = FxHashMap::default();
    let mut heap = Heap::new();
    for &(v, d) in seeds {
        relax(&mut dist, &mut heap, v, d);
    }
    let mut settled: Vec<(VertexId, f32)> = Vec::new();
    while let Some(Reverse((OrdF32(d), v))) = heap.pop() {
        if improves(dist.get(&v).copied().unwrap_or(f32::INFINITY), d) {
            continue; // stale heap entry
        }
        let vertex = VertexId(v);
        if resume
            && labels
                .hub_entry(vertex, rank, dir)
                .is_some_and(|old| covers(old, d))
        {
            continue;
        }
        if covers(threshold(labels, root, vertex, rank, dir), d) {
            continue; // pruned: a higher-ranked hub covers it
        }
        settled.push((vertex, d));
        match dir {
            Direction::Forward => {
                for (t, w) in topology.neighbors(vertex) {
                    relax(&mut dist, &mut heap, t, d + w);
                }
            }
            Direction::Backward => {
                for &(t, w) in &rev[vertex.index()] {
                    relax(&mut dist, &mut heap, t, d + w);
                }
            }
        }
    }
    settled
}

/// Commit one pass's settled pairs as hub `rank`'s entries; returns the
/// number of entries inserted (the rest tightened an existing one).
fn commit_pass(
    labels: &mut HubLabels,
    rank: u32,
    dir: Direction,
    settled: Vec<(VertexId, f32)>,
) -> usize {
    let mut added = 0usize;
    for (v, d) in settled {
        if labels.commit(v, rank, d, dir) {
            added += 1;
        }
    }
    added
}

/// Resolve the worker-thread count for offline index work. `0` asks for
/// the machine's parallelism (capped at 8 — label passes saturate memory
/// bandwidth well before core count); tiny graphs stay sequential
/// because thread spawn costs more than the passes.
pub(crate) fn resolve_threads(configured: usize, n: usize) -> usize {
    if n < 256 {
        return 1;
    }
    if configured != 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(8)
}

/// Build the complete labeling over `topology` in pruned waves: each
/// wave of [`WAVE`] roots runs both directions' passes read-only against
/// the labels committed by earlier waves — fanned across scoped worker
/// threads — then commits in rank order. Returns the number of entries
/// committed; the labels are the same for any `build_threads`.
pub(crate) fn build_waves(
    labels: &mut HubLabels,
    topology: &Topology,
    build_threads: usize,
) -> usize {
    let rev = reverse_adjacency(topology);
    let n = labels.order.len();
    let threads = resolve_threads(build_threads, n);
    let mut added = 0usize;
    let mut rank = 0usize;
    while rank < n {
        let end = (rank + WAVE).min(n);
        let tasks: Vec<(u32, Direction)> = (rank..end)
            .flat_map(|r| {
                [
                    (r as u32, Direction::Forward),
                    (r as u32, Direction::Backward),
                ]
            })
            .collect();
        // All of a wave's passes read the same pre-wave labels; commits
        // happen only after every pass of the wave has finished, so the
        // sequential branch and the threaded branch compute identical
        // results.
        let snapshot: &HubLabels = labels;
        let run = |r: u32, dir: Direction| {
            let root = snapshot.order[r as usize];
            pass(snapshot, topology, &rev, r, dir, &[(root, 0.0)], false)
        };
        let results: Vec<Vec<(VertexId, f32)>> = if threads <= 1 {
            tasks.iter().map(|&(r, dir)| run(r, dir)).collect()
        } else {
            let tasks_ref = &tasks;
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads.min(tasks.len()))
                    .map(|tid| {
                        let workers = threads.min(tasks_ref.len());
                        s.spawn(move || {
                            tasks_ref
                                .iter()
                                .enumerate()
                                .filter(|(i, _)| i % workers == tid)
                                .map(|(i, &(r, dir))| (i, run(r, dir)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                let mut slots: Vec<Vec<(VertexId, f32)>> = vec![Vec::new(); tasks_ref.len()];
                for h in handles {
                    for (i, settled) in h.join().expect("index build worker panicked") {
                        slots[i] = settled;
                    }
                }
                slots
            })
        };
        // Commit in rank order, re-testing each entry against everything
        // committed so far (earlier waves AND earlier tasks of this
        // wave). The wave passes prune only against pre-wave labels, so
        // their results are a superset; this filter cuts them back
        // toward the sequential labeling — the same labels for any
        // thread count, though not the width-1 labels entry for entry
        // ([`WAVE`] says why).
        for (&(r, dir), mut settled) in tasks.iter().zip(results) {
            let root = labels.order[r as usize];
            settled.retain(|&(v, d)| !covers(threshold(labels, root, v, r, dir), d));
            added += commit_pass(labels, r, dir, settled);
        }
        rank = end;
    }
    added
}

/// Full from-scratch rebuild on the current topology, re-ranked
/// ([`HubLabels::empty`]), via the wave-parallel builder: the whole
/// pre-batch index counts as removed.
fn rebuild(labels: &mut HubLabels, topology: &Topology, build_threads: usize) -> RepairSummary {
    let labels_removed = labels.total_entries();
    *labels = HubLabels::empty(topology);
    RepairSummary {
        rebuilt: true,
        labels_removed,
        labels_added: build_waves(labels, topology, build_threads),
        roots_rerun: 2 * labels.order.len(),
    }
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
    build_threads: usize,
) -> RepairSummary {
    let Some(inserts) = net_changes(topology, applied) else {
        return rebuild(labels, topology, build_threads);
    };
    let mut summary = RepairSummary::default();
    if inserts.is_empty() && applied.new_vertices.is_empty() {
        return summary; // no minimum moved: the labels already cover it
    }

    // Vertices created by this batch join at the lowest ranks; their
    // passes run last, and insert-resumes reach *through* them because
    // the resumed Dijkstra runs on the new topology.
    labels.append_vertices(&applied.new_vertices);
    let rev = reverse_adjacency(topology);

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
                let settled = pass(labels, topology, &rev, rank, dir, &seeds, true);
                summary.labels_added += commit_pass(labels, rank, dir, settled);
                summary.roots_rerun += 1;
            }
        }
    }

    // 2. The new vertices' own passes, in their (appended) rank order.
    for &v in &applied.new_vertices {
        let rank = labels.rank_of[v.index()];
        for dir in [Direction::Forward, Direction::Backward] {
            let settled = pass(labels, topology, &rev, rank, dir, &[(v, 0.0)], false);
            summary.labels_added += commit_pass(labels, rank, dir, settled);
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

    fn sorted(mut settled: Vec<(VertexId, f32)>) -> Vec<(u32, f32)> {
        settled.sort_by_key(|&(v, _)| v);
        settled.into_iter().map(|(v, d)| (v.0, d)).collect()
    }

    /// A full pass from `v` against empty labels, where nothing prunes:
    /// plain Dijkstra, sorted by vertex.
    fn unpruned(v: u32, dir: Direction) -> Vec<(u32, f32)> {
        let topo = diamond();
        let labels = HubLabels::empty(&topo);
        let rev = reverse_adjacency(&topo);
        let rank = labels.rank_of[v as usize];
        let seeds = [(VertexId(v), 0.0)];
        sorted(pass(&labels, &topo, &rev, rank, dir, &seeds, false))
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

    /// The kernel is read-only — a resume settles the improvements and
    /// leaves the labels as they were — and the repair built from it
    /// answers like a fresh build and keeps the cover invariant.
    #[test]
    fn pass_reads_labels_and_the_resume_built_from_it_matches_a_fresh_build() {
        let mut topo = diamond();
        let mut labels = HubLabels::empty(&topo);
        build_waves(&mut labels, &topo, 1);
        let before = labels.clone();

        // 2 → 4 at weight 1 shortens 2 ⇝ 4 from 3 to 1.
        let mut batch = MutationBatch::new();
        batch.add_edge(2, 4, 1.0);
        let applied = topo.apply(&batch);
        let rev = reverse_adjacency(&topo);
        let rank = labels.rank_of[2];
        let settled = pass(
            &labels,
            &topo,
            &rev,
            rank,
            Direction::Forward,
            &[(VertexId(4), 1.0)],
            true,
        );
        assert_eq!(sorted(settled), vec![(4, 1.0)]);
        assert_eq!(labels.order, before.order);
        assert_eq!(labels.out_labels, before.out_labels);
        assert_eq!(labels.in_labels, before.in_labels);

        let summary = repair(&mut labels, &topo, &applied, 1);
        assert!(!summary.rebuilt && summary.roots_rerun > 0, "{summary:?}");
        audit(&labels, &topo);
        let mut fresh = HubLabels::empty(&topo);
        build_waves(&mut fresh, &topo, 1);
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
}
