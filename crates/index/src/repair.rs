//! Label repair under graph mutation, and the wave-parallel sequential
//! builder.
//!
//! Consumes one [`AppliedMutation`]'s `edge_changes`, netted per edge to
//! the cheapest parallel's weight before and after the batch, and
//! restores the 2-hop cover on the post-batch topology by one rule:
//!
//! * **A batch that nets to a removal rebuilds.** A deleted edge, or a
//!   reweight-up of the cheapest parallel, can lengthen shortest paths;
//!   the labels are discarded and built afresh on the new topology —
//!   re-ranked, vertices created by the batch included — by the same
//!   wave builder [`crate::LabelIndex::build`] runs, so the repaired
//!   labels *are* a fresh build's, entry for entry. Re-running only the
//!   passes a removal touches does not pay: they are the top-ranked,
//!   most expensive ones, run one at a time against live labels, and
//!   that lost to the parallel rebuild on every measured cell (ROADMAP
//!   item 3 has the table). The price is a closure on a quiet street:
//!   a few percent of the passes touched, one rebuild paid.
//! * **Insertions / reweight-down** only create shorter paths. Each root
//!   with a committed entry at the new edge's tail resumes its pass from
//!   the head (Akiba-style): seeds `d(r,a) + w` at `b`, then a pruned
//!   Dijkstra over the new topology commits every improvement. Resumes
//!   never drop an entry a shorter path made redundant, so labels drift
//!   above minimal until the next rebuild.
//! * **New vertices** are appended at the tail of the rank order and run
//!   their own passes last.
//!
//! Netting is what makes "insert an edge and remove it again" or
//! "remove the heavier of two parallels" a no-op: no minimum moved, no
//! pass runs.
//!
//! The rebuild — and the sequential [`crate::LabelIndex::build`] — run
//! as **morsel-parallel waves**: each wave's root passes prune against a
//! shared snapshot of the labels committed by earlier waves and execute
//! read-only across scoped worker threads, then commit in rank order.
//! The snapshot discipline makes the result identical to the
//! engine-built labels for the same wave width, and independent of the
//! thread count.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use qgraph_core::RepairSummary;
use qgraph_graph::{AppliedMutation, EdgeChange, Topology, VertexId};
use rustc_hash::FxHashMap;

use crate::dist::{covers, improves, OrdF32};
use crate::labels::{entry, Direction, HubLabels, LabelEntry};
use crate::program::{reverse_adjacency, RevAdj};
use crate::IndexConfig;

/// One sequential pruned pass for hub `rank`, seeded at `seeds`.
///
/// `resume` gates commits on improving the hub's *existing* entries —
/// the mode of an insertion resume; a new vertex's first pass has none
/// and passes `false`. Returns the number of label entries inserted.
/// The prune/commit predicate matches the engine pass exactly
/// (rank-restricted query against the live labels), so sequential and
/// engine-built labels coincide entry for entry.
pub(crate) fn pruned_pass(
    labels: &mut HubLabels,
    topology: &Topology,
    rev: &RevAdj,
    rank: u32,
    dir: Direction,
    seeds: &[(VertexId, f32)],
    resume: bool,
) -> usize {
    let root = labels.order[rank as usize];
    let mut dist: FxHashMap<u32, f32> = FxHashMap::default();
    let mut heap: BinaryHeap<Reverse<(OrdF32, u32)>> = BinaryHeap::new();
    for &(v, d) in seeds {
        let slot = dist.entry(v.0).or_insert(f32::INFINITY);
        if improves(d, *slot) {
            *slot = d;
            heap.push(Reverse((OrdF32(d), v.0)));
        }
    }
    let mut added = 0usize;
    while let Some(Reverse((OrdF32(d), v))) = heap.pop() {
        if improves(dist.get(&v).copied().unwrap_or(f32::INFINITY), d) {
            continue; // stale heap entry
        }
        let vertex = VertexId(v);
        if resume {
            // Only improvements over the committed entry propagate; the
            // existing entry's consequences are already in the labels.
            if let Some(old) = labels.hub_entry(vertex, rank, dir) {
                if covers(old, d) {
                    continue;
                }
            }
        }
        let threshold = match dir {
            Direction::Forward => labels.query_below(root, vertex, rank),
            Direction::Backward => labels.query_below(vertex, root, rank),
        };
        if covers(threshold, d) {
            continue; // pruned: a higher-ranked hub covers it
        }
        if labels.commit(vertex, rank, d, dir) {
            added += 1;
        }
        match dir {
            Direction::Forward => {
                for (t, w) in topology.neighbors(vertex) {
                    let nd = d + w;
                    let slot = dist.entry(t.0).or_insert(f32::INFINITY);
                    if improves(nd, *slot) {
                        *slot = nd;
                        heap.push(Reverse((OrdF32(nd), t.0)));
                    }
                }
            }
            Direction::Backward => {
                for &(t, w) in &rev[vertex.index()] {
                    let nd = d + w;
                    let slot = dist.entry(t.0).or_insert(f32::INFINITY);
                    if improves(nd, *slot) {
                        *slot = nd;
                        heap.push(Reverse((OrdF32(nd), t.0)));
                    }
                }
            }
        }
    }
    added
}

/// One read-only pruned pass for hub `rank` against a label *snapshot*:
/// the morsel a wave-parallel build runs per worker. Returns the settled
/// `(vertex, distance)` pairs that passed the snapshot's prune predicate
/// — the same set the engine's `PllPassProgram` driver commits, so wave
/// builds are identical across the sequential path, both engines, and
/// any thread count.
pub(crate) fn snapshot_pass(
    snapshot: &HubLabels,
    topology: &Topology,
    rev: &RevAdj,
    rank: u32,
    dir: Direction,
) -> Vec<(VertexId, f32)> {
    let root = snapshot.order[rank as usize];
    let mut dist: FxHashMap<u32, f32> = FxHashMap::default();
    let mut heap: BinaryHeap<Reverse<(OrdF32, u32)>> = BinaryHeap::new();
    dist.insert(root.0, 0.0);
    heap.push(Reverse((OrdF32(0.0), root.0)));
    let mut settled: Vec<(VertexId, f32)> = Vec::new();
    while let Some(Reverse((OrdF32(d), v))) = heap.pop() {
        if improves(dist.get(&v).copied().unwrap_or(f32::INFINITY), d) {
            continue;
        }
        let vertex = VertexId(v);
        let threshold = match dir {
            Direction::Forward => snapshot.query_below(root, vertex, rank),
            Direction::Backward => snapshot.query_below(vertex, root, rank),
        };
        if covers(threshold, d) {
            continue;
        }
        settled.push((vertex, d));
        match dir {
            Direction::Forward => {
                for (t, w) in topology.neighbors(vertex) {
                    let nd = d + w;
                    let slot = dist.entry(t.0).or_insert(f32::INFINITY);
                    if improves(nd, *slot) {
                        *slot = nd;
                        heap.push(Reverse((OrdF32(nd), t.0)));
                    }
                }
            }
            Direction::Backward => {
                for &(t, w) in &rev[vertex.index()] {
                    let nd = d + w;
                    let slot = dist.entry(t.0).or_insert(f32::INFINITY);
                    if improves(nd, *slot) {
                        *slot = nd;
                        heap.push(Reverse((OrdF32(nd), t.0)));
                    }
                }
            }
        }
    }
    settled
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
/// wave of [`IndexConfig::wave`] roots runs both directions' passes
/// read-only against a snapshot of the labels committed by earlier
/// waves — fanned across scoped worker threads — then commits in rank
/// order. `wave = 1` reproduces the fully sequential labeling; any wave
/// width reproduces the engine-built labels of the same width,
/// independent of `threads`.
pub(crate) fn build_waves(labels: &mut HubLabels, topology: &Topology, cfg: &IndexConfig) -> usize {
    let rev = reverse_adjacency(topology);
    let n = labels.order.len();
    let wave = cfg.wave.max(1);
    let threads = resolve_threads(cfg.build_threads, n);
    let mut added = 0usize;
    let mut rank = 0usize;
    while rank < n {
        let end = (rank + wave).min(n);
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
        let results: Vec<Vec<(VertexId, f32)>> = if threads <= 1 {
            tasks
                .iter()
                .map(|&(r, dir)| snapshot_pass(labels, topology, &rev, r, dir))
                .collect()
        } else {
            let snapshot: &HubLabels = labels;
            let rev_ref = &rev;
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
                                .map(|(i, &(r, dir))| {
                                    (i, snapshot_pass(snapshot, topology, rev_ref, r, dir))
                                })
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
        // thread count and as the engine build of this width, though
        // not the width-1 labels entry for entry (`build.rs` says why).
        for (&(r, dir), settled) in tasks.iter().zip(results) {
            let root = labels.order[r as usize];
            for (v, d) in settled {
                let covered = match dir {
                    Direction::Forward => covers(labels.query_below(root, v, r), d),
                    Direction::Backward => covers(labels.query_below(v, root, r), d),
                };
                if covered {
                    continue;
                }
                if labels.commit(v, r, d, dir) {
                    added += 1;
                }
            }
        }
        rank = end;
    }
    added
}

/// Full from-scratch rebuild on the current topology, re-ranked
/// ([`HubLabels::empty`]), via the wave-parallel builder: the whole
/// pre-batch index counts as removed.
fn rebuild(labels: &mut HubLabels, topology: &Topology, cfg: &IndexConfig) -> RepairSummary {
    let labels_removed = labels.total_entries();
    *labels = HubLabels::empty(topology);
    RepairSummary {
        rebuilt: true,
        labels_removed,
        labels_added: build_waves(labels, topology, cfg),
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
    cfg: &IndexConfig,
) -> RepairSummary {
    let Some(inserts) = net_changes(topology, applied) else {
        return rebuild(labels, topology, cfg);
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
    //    their hub by rank induction — and the resumed pass commits
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
                summary.labels_added +=
                    pruned_pass(labels, topology, &rev, rank, dir, &seeds, true);
                summary.roots_rerun += 1;
            }
        }
    }

    // 2. The new vertices' own passes, in their (appended) rank order.
    for &v in &applied.new_vertices {
        let rank = labels.rank_of[v.index()];
        for dir in [Direction::Forward, Direction::Backward] {
            summary.labels_added +=
                pruned_pass(labels, topology, &rev, rank, dir, &[(v, 0.0)], false);
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
            let probe = match dir {
                Direction::Forward => labels.query_below(root, child, rank),
                Direction::Backward => labels.query_below(child, root, rank),
            };
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
