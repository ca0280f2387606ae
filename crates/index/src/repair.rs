//! Incremental label repair under graph mutation, and the wave-parallel
//! sequential builder.
//!
//! Consumes one [`AppliedMutation`]'s `edge_changes` and restores the
//! 2-hop cover on the post-batch topology:
//!
//! * **Deletions / reweight-up** are handled by **witness counting**
//!   (PR 7). Every entry stores how many tight parent edges certify its
//!   distance (`labels.rs`); a removal that was *tight* for a root
//!   (`d(r,a) + w = d(r,b)`, strictly increasing) merely decrements the
//!   head entry's count. Only when a count reaches zero is the entry
//!   invalidated, cascading decrements to its tight children in
//!   ascending distance order; the invalidated region is then re-settled
//!   by one seeded partial resume from the surviving frontier — no full
//!   root re-run. Three cases stay conservative and re-run the root in
//!   full: a *loose* hit (`d(r,a) + w < d(r,b)`, possible after
//!   insert-resumes improved an upstream entry without re-tightening
//!   the chains below it, and for zero-weight ties), a *fragile* entry
//!   (count 0 on the decrement path: its witnesses could not be
//!   certified), and a removed edge on a *chain head's* covered support
//!   path — an entry with zero entry-backed witnesses is supported
//!   through label-free (covered) vertices, f32 rounding breaks the
//!   closure property that would otherwise guarantee the support chain
//!   is stored, and such invisible support is probed per removal with
//!   full 2-hop queries on the old labels (see `classify_removals`).
//!   Repairs interact across roots through *weakened* entries: a root
//!   whose own vector lost an uncovered entry re-runs in full, every
//!   other root just re-tests the weakened vertices with a
//!   boundary-seeded resume, and a loss still covered at its old value
//!   by higher-ranked hubs (`cover_held`) weakens nothing.
//! * **Insertions / reweight-down** only create shorter paths. Each root
//!   with a committed entry at the new edge's tail resumes its pass from
//!   the head (Akiba-style): seeds `d(r,a) + w` at `b`, then a pruned
//!   Dijkstra over the new topology commits every improvement.
//! * **New vertices** are appended at the tail of the rank order and run
//!   their own passes last.
//!
//! After any pass, witness counts are *recounted exactly* (from the
//! current entries and topology) over the vertices the pass touched plus
//! their downstream neighbors — improving an entry without re-committing
//! its children would otherwise leave a child counting a witness whose
//! parent sum no longer matches, and an overcount is the one unsound
//! direction (it could keep a dead entry alive). Undercounts are safe:
//! they only make repair more conservative.
//!
//! Past a damage threshold (fully re-run *passes* as a fraction of a
//! rebuild's own `2n` root passes, clamped to at least one pass so tiny
//! indexes still repair incrementally) repair falls back to a full
//! rebuild, which also re-ranks the roots on the new topology. The cap
//! is consulted before the sweep — against the passes classification
//! flagged, then against every pass the removals touch (the batch's
//! *footprint*) — and once more inside it as the backstop; the summary
//! carries which one tripped ([`RebuildCause`]). The rebuild — and the
//! sequential [`crate::LabelIndex::build`] — run as **morsel-parallel
//! waves**: each wave's root passes prune against a shared snapshot of
//! the labels committed by earlier waves and execute read-only across
//! scoped worker threads, then commit in rank order. The snapshot
//! discipline makes the result identical to the engine-built labels for
//! the same wave width, and independent of the thread count.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use qgraph_core::{RebuildCause, RepairSummary};
use qgraph_graph::{AppliedMutation, EdgeChange, Topology, VertexId};
use rustc_hash::{FxHashMap, FxHashSet};

use crate::dist::{covers, improves, looser, same, tight_via, within_slack, OrdF32};
use crate::labels::{entry, Direction, HubLabels};
use crate::program::{reverse_adjacency, RevAdj};
use crate::IndexConfig;

/// One sequential pruned pass for hub `rank`, seeded at `seeds`.
///
/// `resume` gates commits on improving the hub's *existing* entries —
/// the incremental mode shared by insertion resumes and witness-region
/// repairs; a full (re)run passes `false` after stripping the hub's
/// entries. Returns the number of label entries inserted and appends
/// every committed vertex (inserts and overwrites) to `committed` so the
/// caller can recount witnesses. The prune/commit predicate matches the
/// engine pass exactly (rank-restricted query against the live labels),
/// so sequential and engine-built labels coincide entry for entry.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pruned_pass(
    labels: &mut HubLabels,
    topology: &Topology,
    rev: &RevAdj,
    rank: u32,
    dir: Direction,
    seeds: &[(VertexId, f32)],
    resume: bool,
    committed: &mut Vec<VertexId>,
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
        committed.push(vertex);
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
/// independent of `threads`. Finishes with an exact witness recount.
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
        // Near-minimality matters beyond size: repair treats a dropped
        // entry as a weakened pruning certificate, so redundant entries
        // would turn the first full re-run into an avalanche.
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
    recount_all(labels, topology, &rev, threads);
    added
}

/// Exact witness count for the entry `(rank, dv)` at `v`: the number of
/// tight strict parents in the root's shortest-path DAG, by scanning the
/// incoming (forward family) or outgoing (backward family) live edges
/// against the parents' *current* committed entries. The root's own
/// entry gets count 1 (it certifies itself).
fn count_witnesses(
    labels: &HubLabels,
    topology: &Topology,
    rev: &RevAdj,
    rank: u32,
    dir: Direction,
    v: VertexId,
    dv: f32,
) -> u32 {
    if labels.order[rank as usize] == v {
        return 1;
    }
    let lists = labels.family(dir);
    let tight =
        |u: VertexId, w: f32| entry(&lists[u.index()], rank).is_some_and(|du| tight_via(du, w, dv));
    let n = match dir {
        Direction::Forward => rev[v.index()].iter().filter(|&&(u, w)| tight(u, w)).count(),
        Direction::Backward => topology.neighbors(v).filter(|&(u, w)| tight(u, w)).count(),
    };
    n.min(u32::MAX as usize) as u32
}

/// Recount witnesses for hub `rank`'s entries at exactly `verts` (plus
/// nothing else) in `dir`.
fn recount_at(
    labels: &mut HubLabels,
    topology: &Topology,
    rev: &RevAdj,
    rank: u32,
    dir: Direction,
    verts: &FxHashSet<u32>,
) {
    for &vi in verts {
        let v = VertexId(vi);
        if let Some(dv) = labels.hub_entry(v, rank, dir) {
            let wit = count_witnesses(labels, topology, rev, rank, dir, v, dv);
            labels.set_witness(v, rank, dir, wit);
        }
    }
}

/// Extend `set` with the downstream neighbors of `verts` (edge heads for
/// the forward family, edge tails for the backward family): the vertices
/// whose witness counts may reference a value a pass just changed.
fn extend_downstream(
    set: &mut FxHashSet<u32>,
    topology: &Topology,
    rev: &RevAdj,
    dir: Direction,
    verts: &[VertexId],
) {
    for &v in verts {
        match dir {
            Direction::Forward => {
                for (t, _) in topology.neighbors(v) {
                    set.insert(t.0);
                }
            }
            Direction::Backward => {
                for &(t, _) in &rev[v.index()] {
                    set.insert(t.0);
                }
            }
        }
    }
}

/// Recount every witness count from scratch — the post-build sweep.
/// Reads are independent per entry, so the sweep fans out across scoped
/// threads over vertex chunks and writes back single-threaded.
pub(crate) fn recount_all(
    labels: &mut HubLabels,
    topology: &Topology,
    rev: &RevAdj,
    threads: usize,
) {
    let n = labels.num_vertices();
    type VertWits = (usize, Vec<u32>, Vec<u32>);
    let compute = |labels: &HubLabels, lo: usize, hi: usize| -> Vec<VertWits> {
        (lo..hi)
            .map(|vi| {
                let v = VertexId(vi as u32);
                let in_wits = labels.in_labels[vi]
                    .iter()
                    .map(|e| {
                        count_witnesses(
                            labels,
                            topology,
                            rev,
                            e.rank,
                            Direction::Forward,
                            v,
                            e.dist,
                        )
                    })
                    .collect();
                let out_wits = labels.out_labels[vi]
                    .iter()
                    .map(|e| {
                        count_witnesses(
                            labels,
                            topology,
                            rev,
                            e.rank,
                            Direction::Backward,
                            v,
                            e.dist,
                        )
                    })
                    .collect();
                (vi, in_wits, out_wits)
            })
            .collect()
    };
    let all: Vec<VertWits> = if threads <= 1 || n < 256 {
        compute(labels, 0, n)
    } else {
        let shared: &HubLabels = labels;
        let chunk = n.div_ceil(threads);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (lo, hi) = (t * chunk, ((t + 1) * chunk).min(n));
                    s.spawn(move || compute(shared, lo, hi.max(lo)))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("recount worker panicked"))
                .collect()
        })
    };
    for (vi, in_wits, out_wits) in all {
        for (e, w) in labels.in_labels[vi].iter_mut().zip(in_wits) {
            e.wit = w;
        }
        for (e, w) in labels.out_labels[vi].iter_mut().zip(out_wits) {
            e.wit = w;
        }
    }
}

/// Full from-scratch rebuild on the current topology, re-ranked
/// ([`HubLabels::empty`]), via the wave-parallel builder. Safe to call
/// mid-repair: it discards the label state wholesale — so what the
/// batch removed, and why it came to this, is the caller's to fill in.
fn rebuild(labels: &mut HubLabels, topology: &Topology, cfg: &IndexConfig) -> RepairSummary {
    let mut summary = RepairSummary {
        rebuilt: true,
        ..RepairSummary::default()
    };
    *labels = HubLabels::empty(topology);
    summary.labels_added = build_waves(labels, topology, cfg);
    summary.roots_rerun = 2 * labels.order.len();
    summary
}

/// How the witness phase classified one root's exposure to the batch's
/// removals, per direction.
#[derive(Default)]
struct WitnessPlan {
    /// Roots that must fully re-run: a loose hit (`d(r,a)+w < d(r,b)`),
    /// a zero-weight tie, a removed edge on a chain head's covered
    /// support path, or a fragile entry on the decrement path.
    full: FxHashSet<u32>,
    /// Tight decrement targets per rank (with multiplicity: one per
    /// removed tight parent edge).
    direct: FxHashMap<u32, Vec<VertexId>>,
}

impl WitnessPlan {
    /// Passes of this direction the removals touch at all: flagged for
    /// a full re-run or holding a decrement target.
    fn footprint(&self) -> usize {
        let direct_only = self.direct.keys().filter(|r| !self.full.contains(r));
        self.full.len() + direct_only.count()
    }
}

/// Classify one direction's removals against the stored entries. For the
/// forward family a removed edge `(a, b, w)` is a parent edge *into* `b`
/// (`d(r,a) + w` vs `d(r,b)`); for the backward family it is a parent
/// edge *into* `a` (`d(b→r) + w` vs `d(a→r)`).
fn classify_removals(
    labels: &HubLabels,
    removals: &[(VertexId, VertexId, f32)],
    old_n: usize,
    dir: Direction,
) -> WitnessPlan {
    let mut plan = WitnessPlan::default();
    let lists = labels.family(dir);
    // Chain heads: committed entries with *zero* entry-backed witnesses.
    // Their support enters the label set from covered (label-free)
    // vertices — f32 rounding lets a near-tie cover query prune a tight
    // parent while committing the child, so the closure property
    // ("every tight strict parent of a committed entry is committed")
    // does not survive floating point. A removed edge inside that
    // covered support chain never touches a stored entry, so the
    // per-entry scan below is blind to it; each chain head instead gets
    // an explicit edge-on-old-shortest-path test.
    let mut chain_heads: Vec<(u32, VertexId, f32)> = Vec::new();
    for (vi, list) in lists.iter().enumerate().take(old_n) {
        for e in list {
            if e.wit == 0 {
                chain_heads.push((e.rank, VertexId(vi as u32), e.dist));
            }
        }
    }
    for &(a, b, w) in removals {
        if a.index() >= old_n || b.index() >= old_n {
            // Endpoint created by this very batch: it has no labels yet,
            // so no stored witness chain can pass through it.
            continue;
        }
        let (tail, head) = match dir {
            Direction::Forward => (a, b),
            Direction::Backward => (b, a),
        };
        for e in &lists[tail.index()] {
            if plan.full.contains(&e.rank) {
                continue;
            }
            let Some(dh) = entry(&lists[head.index()], e.rank) else {
                continue;
            };
            let sum = e.dist + w;
            if same(sum, dh) && improves(e.dist, dh) {
                // A strict tight parent died: one witness fewer.
                plan.direct.entry(e.rank).or_default().push(head);
            } else if covers(sum, dh) {
                // Loose (stale upstream improvement) or a zero-weight
                // tie: witness counts never certified this chain, so the
                // root re-runs in full — PR 6's conservative path.
                plan.full.insert(e.rank);
            }
        }
        // Covered-support test: does the removed edge lie on an old
        // shortest path from the hub to a chain head? Both legs are
        // full 2-hop queries on the pre-repair labels (exact up to f32
        // rounding — hence the relative tolerance, erring toward a
        // spurious full re-run, never a missed one). A hit means the
        // unlabeled support may have died: re-run that root in full.
        for &(rank, v, dv) in &chain_heads {
            if plan.full.contains(&rank) {
                continue;
            }
            let hub = labels.order[rank as usize];
            let sum = match dir {
                Direction::Forward => {
                    labels.query_below(hub, a, u32::MAX) + w + labels.query_below(b, v, u32::MAX)
                }
                Direction::Backward => {
                    labels.query_below(v, a, u32::MAX) + w + labels.query_below(b, hub, u32::MAX)
                }
            };
            if within_slack(sum, dv) {
                plan.full.insert(rank);
            }
        }
    }
    plan
}

/// The outcome of one root's decrement-and-cascade in one direction.
#[derive(Default)]
struct CascadeOutcome {
    /// Invalidated entries: vertex → the distance the entry held.
    region: FxHashMap<u32, f32>,
    /// Entries decremented but still certified (count stayed positive);
    /// recounted exactly after the region pass.
    touched: Vec<VertexId>,
    /// Hit a fragile (count 0) entry — the caller falls back to a full
    /// re-run of this root.
    fragile: bool,
    /// Decrements applied (direct + cascade).
    decrements: usize,
}

/// Apply one root's direct witness decrements and cascade invalidations
/// through its shortest-path DAG, removing entries whose count reaches
/// zero. Children are visited in ascending entry distance so parents
/// always invalidate before the chains below them.
fn decrement_and_cascade(
    labels: &mut HubLabels,
    topology: &Topology,
    rev: &RevAdj,
    rank: u32,
    dir: Direction,
    targets: &[VertexId],
) -> CascadeOutcome {
    let mut out = CascadeOutcome::default();
    let mut zero: BinaryHeap<Reverse<(OrdF32, u32)>> = BinaryHeap::new();
    for &v in targets {
        let Some(pre) = labels.decrement_witness(v, rank, dir) else {
            continue; // entry already invalidated by an earlier cascade
        };
        out.decrements += 1;
        match pre {
            0 => {
                out.fragile = true;
                return out;
            }
            1 => {
                let d = labels
                    .hub_entry(v, rank, dir)
                    .expect("decremented entry exists");
                zero.push(Reverse((OrdF32(d), v.0)));
            }
            _ => out.touched.push(v),
        }
    }
    while let Some(Reverse((OrdF32(dv), vi))) = zero.pop() {
        let v = VertexId(vi);
        if out.region.contains_key(&vi) {
            continue;
        }
        let Some(old) = labels.remove_entry(v, rank, dir) else {
            continue;
        };
        out.region.insert(vi, old);
        // Decrement the tight children that counted this entry. The test
        // runs on the *post-batch* adjacency, so a removed tight edge
        // (already handled as a direct hit) can't decrement twice.
        let children: Vec<(VertexId, f32)> = match dir {
            Direction::Forward => topology.neighbors(v).collect(),
            Direction::Backward => rev[v.index()].clone(),
        };
        for (x, w) in children {
            let Some(dx) = labels.hub_entry(x, rank, dir) else {
                continue;
            };
            if !tight_via(dv, w, dx) {
                continue;
            }
            let Some(pre) = labels.decrement_witness(x, rank, dir) else {
                continue;
            };
            out.decrements += 1;
            match pre {
                0 => {
                    out.fragile = true;
                    return out;
                }
                1 => zero.push(Reverse((OrdF32(dx), x.0))),
                _ => out.touched.push(x),
            }
        }
    }
    out
}

/// Is a vanished-or-grown entry still covered at its old value by
/// higher-ranked (already repaired) hubs?
///
/// Only an *uncovered* loss weakens other roots' pruning certificates:
/// a prune that consumed `d(u, h) + d` is still justified whenever
/// `query_below(h, v, rank_h) <= d`, because the cover path through a
/// higher hub bounds `d(u, v)` by the same value. Redundant entries —
/// labels drift away from minimal as insert resumes shorten distances
/// under them — drop on the next re-run; without this test every such
/// drop would masquerade as damage and snowball into further full
/// re-runs.
fn cover_held(
    labels: &HubLabels,
    root: VertexId,
    rank: u32,
    dir: Direction,
    v: VertexId,
    d: f32,
) -> bool {
    match dir {
        Direction::Forward => covers(labels.query_below(root, v, rank), d),
        Direction::Backward => covers(labels.query_below(v, root, rank), d),
    }
}

/// Seed the partial resume for one invalidated region: every live edge
/// from a vertex with a *surviving* entry into the region contributes a
/// candidate distance. Seeding all boundary edges (not just the cheapest)
/// lets the resumed Dijkstra handle paths that exit and re-enter the
/// region.
fn region_seeds(
    labels: &HubLabels,
    topology: &Topology,
    rev: &RevAdj,
    rank: u32,
    dir: Direction,
    region: &FxHashSet<u32>,
) -> Vec<(VertexId, f32)> {
    let lists = labels.family(dir);
    let mut seeds: Vec<(VertexId, f32)> = Vec::new();
    for &vi in region {
        let v = VertexId(vi);
        match dir {
            Direction::Forward => {
                for &(u, w) in &rev[v.index()] {
                    if let Some(du) = entry(&lists[u.index()], rank) {
                        seeds.push((v, du + w));
                    }
                }
            }
            Direction::Backward => {
                for (u, w) in topology.neighbors(v) {
                    if let Some(du) = entry(&lists[u.index()], rank) {
                        seeds.push((v, du + w));
                    }
                }
            }
        }
    }
    seeds
}

/// Repair `labels` to cover `topology` (the post-batch graph) after
/// `applied`. See the module docs for the algorithm.
pub(crate) fn repair(
    labels: &mut HubLabels,
    topology: &Topology,
    applied: &AppliedMutation,
    cfg: &IndexConfig,
) -> RepairSummary {
    let mut summary = RepairSummary::default();

    // Net the batch's edge changes per (from, to) — a batch can insert an
    // edge and remove it again, reweight repeatedly, or stack *parallel*
    // edges (the topology is a multigraph), and repairing against the
    // intermediate states would label paths the final topology does not
    // have. Shortest paths only see the cheapest parallel, so classify
    // on the pre-batch vs post-batch minimum weight: a net decrease is
    // an insertion, a net increase a deletion of the old minimum (the
    // re-run pass sees the real new topology either way). The pre-batch
    // parallel multiset is recovered by undoing this batch's events, in
    // reverse, against the post-batch adjacency.
    // Per-edge event list: (weight before, weight after) per event.
    type EdgeEvents = Vec<(Option<f32>, Option<f32>)>;
    let mut touched_edges: Vec<(u32, u32)> = Vec::new();
    let mut by_edge: FxHashMap<(u32, u32), EdgeEvents> = FxHashMap::default();
    for change in &applied.edge_changes {
        let (from, to, before, after) = match *change {
            EdgeChange::Inserted { from, to, weight } => (from, to, None, Some(weight)),
            EdgeChange::Removed { from, to, weight } => (from, to, Some(weight), None),
            EdgeChange::Reweighted { from, to, old, new } => (from, to, Some(old), Some(new)),
        };
        by_edge
            .entry((from.0, to.0))
            .or_insert_with(|| {
                touched_edges.push((from.0, to.0));
                Vec::new()
            })
            .push((before, after));
    }
    let mut removals: Vec<(VertexId, VertexId, f32)> = Vec::new();
    let mut inserts: Vec<(VertexId, VertexId, f32)> = Vec::new();
    for &(af, bf) in &touched_edges {
        let (a, b) = (VertexId(af), VertexId(bf));
        let mut multiset: Vec<f32> = topology
            .neighbors(a)
            .filter(|&(t, _)| t == b)
            .map(|(_, w)| w)
            .collect();
        let after_min = multiset.iter().copied().reduce(f32::min);
        for &(before, after) in by_edge[&(af, bf)].iter().rev() {
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
            (Some(w), None) => removals.push((a, b, w)),
            (Some(wi), Some(wf)) if wf < wi => inserts.push((a, b, wf)),
            (Some(wi), Some(wf)) if wf > wi => removals.push((a, b, wi)),
            _ => {} // minimum unchanged (or ephemeral within the batch)
        }
    }
    removals.sort_unstable_by_key(|&(a, b, _)| (a.0, b.0));
    inserts.sort_unstable_by_key(|&(a, b, _)| (a.0, b.0));

    // Witness classification: tight hits become per-root decrement
    // lists, loose hits / zero-weight ties flag the root for a full
    // re-run (PR 6's conservative path, now the exception rather than
    // the rule).
    let old_n = labels.in_labels.len();
    let fwd_plan = classify_removals(labels, &removals, old_n, Direction::Forward);
    let bwd_plan = classify_removals(labels, &removals, old_n, Direction::Backward);

    // Damage cap: bail to a rebuild when the full passes repair would
    // re-run stop being cheap next to a rebuild's own `2n` passes.
    // Counted per *pass*, not per root — a weakened vector voids one
    // direction, and charging the whole root would double-bill the
    // common case. The cap is clamped to at least one pass: on a tiny
    // index the product used to round down to zero and *any* removal
    // tripped a rebuild.
    //
    // Consulted twice before any pass runs: against the passes already
    // flagged for a full re-run, then against the batch's *footprint* —
    // every pass the removals touch. Classification sees first-order
    // damage only; a wide footprint is what cascades, and the sweep
    // runs its most expensive roots first, so learning it at the
    // mid-sweep backstop costs as much again as the rebuild it ends in.
    let n_before = labels.order.len().max(1);
    let damage_cap = (cfg.damage_threshold * 2.0 * n_before as f64).max(1.0);
    let labels_before = labels.total_entries();
    let bail = |labels: &mut HubLabels, rebuild_cause, sweep_passes| RepairSummary {
        labels_removed: labels_before,
        rebuild_cause,
        sweep_passes,
        ..rebuild(labels, topology, cfg)
    };
    let over_cap = |passes: usize| passes as f64 > damage_cap;
    let pre_flagged = fwd_plan.full.len() + bwd_plan.full.len();
    // `full` ⊆ footprint, so the footprint test subsumes the other.
    if over_cap(fwd_plan.footprint() + bwd_plan.footprint()) {
        let cause = if over_cap(pre_flagged) {
            RebuildCause::PreFlagged
        } else {
            RebuildCause::Footprint
        };
        return bail(labels, cause, 0);
    }

    // Vertices created by this batch join at the lowest ranks; their
    // passes run last, and insert-resumes reach *through* them because
    // the resumed Dijkstra runs on the new topology.
    labels.append_vertices(&applied.new_vertices);

    let rev = reverse_adjacency(topology);

    // 1. Removal repair, in rank order (each pass prunes only against
    //    higher ranks, already repaired by induction). Per root and
    //    direction: apply witness decrements, cascade count-zero
    //    invalidations through the SP-DAG, then either re-settle the
    //    invalidated region with one seeded resume (the incremental
    //    path) or fully re-run a flagged root.
    //
    //    Repairs interact across roots through *weakened* entries — an
    //    entry that vanished or grew during this repair may have been
    //    another root's pruning certificate. A pass's prune test
    //    `query_below` reads exactly two label vectors: the root's own
    //    (the opposite family at the root vertex, consulted at *every*
    //    pop) and the popped vertex's own (the pass's family). So:
    //    * a root whose own vector weakened re-runs in full — its old
    //      prune decisions are void everywhere;
    //    * every other root re-tests just the weakened vertices with a
    //      boundary-seeded resume — cover can only have broken *there*.
    //    Rank order makes this a single sweep: a weakened entry only
    //    ever belongs to an already-processed (higher-ranked) hub, and
    //    re-tests read only already-repaired labels. Full re-runs count
    //    against the damage cap; blowing it bails to a rebuild.
    let mut weakened: [FxHashSet<u32>; 2] = [FxHashSet::default(), FxHashSet::default()];
    let fam = |dir: Direction| match dir {
        Direction::Forward => 0usize,
        Direction::Backward => 1usize,
    };
    let mut flagged_passes = 0usize;
    let mut committed: Vec<VertexId> = Vec::new();
    for rank in 0..n_before as u32 {
        let root = labels.order[rank as usize];
        // A forward pass prunes against the root's *out* vector (the
        // backward family at the root vertex); a backward pass against
        // its *in* vector. Either weakening voids that pass wholesale.
        let mut full_fwd =
            fwd_plan.full.contains(&rank) || weakened[fam(Direction::Backward)].contains(&root.0);
        let mut full_bwd =
            bwd_plan.full.contains(&rank) || weakened[fam(Direction::Forward)].contains(&root.0);
        // Decrement-and-cascade first: it can discover fragile entries
        // that demote the direction to a full re-run. A direction
        // already flagged full skips the bookkeeping (the re-run strips
        // and recounts everything anyway).
        let mut outcomes: [Option<CascadeOutcome>; 2] = [None, None];
        for (slot, (full, plan, dir)) in [
            (&mut full_fwd, &fwd_plan, Direction::Forward),
            (&mut full_bwd, &bwd_plan, Direction::Backward),
        ]
        .into_iter()
        .enumerate()
        {
            if *full {
                continue;
            }
            let Some(targets) = plan.direct.get(&rank) else {
                continue;
            };
            let outcome = decrement_and_cascade(labels, topology, &rev, rank, dir, targets);
            summary.witness_decrements += outcome.decrements;
            if outcome.fragile {
                *full = true;
            }
            // Kept even when fragile: the cascade may already have
            // removed entries, and the full re-run's weakening detection
            // must compare against those pre-repair values too.
            outcomes[slot] = Some(outcome);
        }
        let flagged_here = full_fwd as usize + full_bwd as usize;
        if over_cap(flagged_passes + flagged_here) {
            return bail(labels, RebuildCause::SweepCap, flagged_passes);
        }
        flagged_passes += flagged_here;
        let seed = [(root, 0.0f32)];
        for (outcome, (full, dir)) in outcomes.into_iter().zip([
            (full_fwd, Direction::Forward),
            (full_bwd, Direction::Backward),
        ]) {
            if full {
                // Full re-run: strip the hub, pass from scratch, recount
                // every fresh entry. `old` merges any entries the
                // cascade already removed so weakening detection sees
                // the true pre-repair values.
                let mut old = labels.remove_hub(rank, dir);
                if let Some(o) = outcome {
                    old.extend(o.region.iter().map(|(&v, &d)| (VertexId(v), d)));
                    summary.entries_invalidated += o.region.len();
                }
                summary.labels_removed += old.len();
                committed.clear();
                summary.labels_added += pruned_pass(
                    labels,
                    topology,
                    &rev,
                    rank,
                    dir,
                    &seed,
                    false,
                    &mut committed,
                );
                summary.roots_rerun += 1;
                let set: FxHashSet<u32> = committed.iter().map(|v| v.0).collect();
                recount_at(labels, topology, &rev, rank, dir, &set);
                for &(v, d) in &old {
                    if labels
                        .hub_entry(v, rank, dir)
                        .is_none_or(|nd| looser(nd, d))
                        && !cover_held(labels, root, rank, dir, v, d)
                    {
                        weakened[fam(dir)].insert(v.0);
                    }
                }
                continue;
            }
            let o = outcome.unwrap_or_default();
            // Resume region: this root's own invalidated entries plus
            // every vertex weakened by higher-ranked repairs (its cover
            // for this hub may have gone through a weakened entry — the
            // resume re-tests the prune decision on current labels).
            let mut resume: FxHashSet<u32> = o.region.keys().copied().collect();
            resume.extend(weakened[fam(dir)].iter().copied());
            if resume.is_empty() {
                // Decrements only, nothing invalidated: counts are still
                // exact lower bounds (the dead parents are subtracted),
                // and every entry keeps a certified witness. No pass.
                continue;
            }
            summary.entries_invalidated += o.region.len();
            summary.labels_removed += o.region.len();
            let seeds = region_seeds(labels, topology, &rev, rank, dir, &resume);
            committed.clear();
            if !seeds.is_empty() {
                summary.labels_added += pruned_pass(
                    labels,
                    topology,
                    &rev,
                    rank,
                    dir,
                    &seeds,
                    true,
                    &mut committed,
                );
            }
            if !o.region.is_empty() {
                summary.partial_roots += 1;
            }
            // Exact recount: the region, the surviving decremented
            // entries, everything the pass committed, and the committed
            // vertices' downstream neighbors (whose counts may reference
            // a value the pass just improved — stale overcounts are the
            // one unsound direction).
            let mut set: FxHashSet<u32> = o.region.keys().copied().collect();
            set.extend(o.touched.iter().map(|v| v.0));
            set.extend(committed.iter().map(|v| v.0));
            extend_downstream(&mut set, topology, &rev, dir, &committed);
            recount_at(labels, topology, &rev, rank, dir, &set);
            for (&v, &d) in &o.region {
                if labels
                    .hub_entry(VertexId(v), rank, dir)
                    .is_none_or(|nd| looser(nd, d))
                    && !cover_held(labels, root, rank, dir, VertexId(v), d)
                {
                    weakened[fam(dir)].insert(v);
                }
            }
        }
    }

    // 2. Insertion resumes, in rank order. A root's seed distances are
    //    read from its own entries at each new edge's tail — exact for
    //    their hub by rank induction — and the resumed pass commits
    //    every improvement on the new topology. A *tying* insert
    //    (candidate == stored entry) commits nothing but adds a tight
    //    parent, so the head is recounted either way.
    if !inserts.is_empty() {
        let mut hubs: FxHashSet<u32> = FxHashSet::default();
        for &(a, b, _) in &inserts {
            for e in &labels.in_labels[a.index()] {
                hubs.insert(e.rank);
            }
            for e in &labels.out_labels[b.index()] {
                hubs.insert(e.rank);
            }
        }
        let mut hubs: Vec<u32> = hubs.into_iter().collect();
        hubs.sort_unstable();
        for &rank in &hubs {
            for dir in [Direction::Forward, Direction::Backward] {
                let lists = labels.family(dir);
                let mut seeds: Vec<(VertexId, f32)> = Vec::new();
                let mut recount: FxHashSet<u32> = FxHashSet::default();
                for &(a, b, w) in &inserts {
                    let (tail, head) = match dir {
                        Direction::Forward => (a, b),
                        Direction::Backward => (b, a),
                    };
                    if let Some(dt) = entry(&lists[tail.index()], rank) {
                        let cand = dt + w;
                        match entry(&lists[head.index()], rank) {
                            Some(dh) if looser(cand, dh) => {}
                            Some(dh) if same(cand, dh) => {
                                recount.insert(head.0); // new tight parent
                            }
                            _ => seeds.push((head, cand)),
                        }
                    }
                }
                if !seeds.is_empty() {
                    committed.clear();
                    summary.labels_added += pruned_pass(
                        labels,
                        topology,
                        &rev,
                        rank,
                        dir,
                        &seeds,
                        true,
                        &mut committed,
                    );
                    summary.roots_rerun += 1;
                    recount.extend(committed.iter().map(|v| v.0));
                    extend_downstream(&mut recount, topology, &rev, dir, &committed);
                }
                if !recount.is_empty() {
                    recount_at(labels, topology, &rev, rank, dir, &recount);
                }
            }
        }
    }

    // 3. The new vertices' own passes, in their (appended) rank order.
    for &v in &applied.new_vertices {
        let rank = labels.rank_of[v.index()];
        let seed = [(v, 0.0f32)];
        for dir in [Direction::Forward, Direction::Backward] {
            committed.clear();
            summary.labels_added += pruned_pass(
                labels,
                topology,
                &rev,
                rank,
                dir,
                &seed,
                false,
                &mut committed,
            );
            let set: FxHashSet<u32> = committed.iter().map(|v| v.0).collect();
            recount_at(labels, topology, &rev, rank, dir, &set);
            summary.roots_rerun += 1;
        }
    }

    summary
}

/// Paranoid audit (see [`IndexConfig::paranoid`]): re-derive from
/// scratch everything the incremental machinery maintains and panic on
/// the first inconsistency. Two sweeps:
///
/// 1. **Witness recount** — every entry's stored count must not exceed
///    an exact recount: an overcount is the one unsound direction (it
///    could keep a dead entry alive through a future removal cascade).
///    Equality is deliberately not required — decrement-only repairs
///    leave counts as exact-lower-bound undercounts, and an inserted
///    equal-cost path adds a tight parent without a recount. Zero is
///    legal too: a chain head's support can run entirely through
///    label-free covered vertices (see the module docs).
/// 2. **Tightness / cover** — one relaxation sweep over every live
///    edge. An edge that reaches the head *tighter* than its held
///    entry (or reaches a head holding no entry at all) is only legal
///    if the pruned labeling's cover invariant explains it: some
///    higher-ranked hub already bounds the candidate distance, so the
///    pass pruned there and the held entry is covered-redundant
///    (entries legitimately drift loose under insert resumes and drop
///    on the next re-run). No cover means a wrong distance — the
///    served minimum could be beaten by a real path. [`within_slack`]
///    backstops the exact cover test because the 2-hop probe is a
///    differently associated sum.
pub(crate) fn audit(labels: &HubLabels, topology: &Topology) {
    let rev = reverse_adjacency(topology);
    let n = labels.num_vertices();
    for vi in 0..n {
        let v = VertexId(vi as u32);
        for (dir, list) in [
            (Direction::Forward, &labels.in_labels[vi]),
            (Direction::Backward, &labels.out_labels[vi]),
        ] {
            for e in list {
                let exact = count_witnesses(labels, topology, &rev, e.rank, dir, v, e.dist);
                assert!(
                    e.wit <= exact,
                    "paranoid audit: {dir:?} entry (hub rank {}, vertex {vi}, dist {}) \
                     stores witness count {} but an exact recount gives only {exact}",
                    e.rank,
                    e.dist,
                    e.wit,
                );
            }
        }
    }
    let check = |dir: Direction, parent: VertexId, child: VertexId, w: f32| {
        let lists = labels.family(dir);
        for e in &lists[parent.index()] {
            let cand = e.dist + w;
            let root = labels.order[e.rank as usize];
            let held = entry(&lists[child.index()], e.rank);
            let improvable = match held {
                Some(dc) => improves(cand, dc) && !within_slack(dc, cand),
                None => true,
            };
            if !improvable {
                continue;
            }
            let probe = match dir {
                Direction::Forward => labels.query_below(root, child, e.rank),
                Direction::Backward => labels.query_below(child, root, e.rank),
            };
            assert!(
                covers(probe, cand) || within_slack(probe, cand),
                "paranoid audit: vertex {} holds {held:?} for {dir:?} hub rank {} but \
                 the edge {}->{} (w {w}) reaches it at {cand}, and no higher-ranked \
                 hub covers that distance (best 2-hop probe: {probe})",
                child.0,
                e.rank,
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
