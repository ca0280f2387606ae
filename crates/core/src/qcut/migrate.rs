//! Shared [`MovePlan`] application: resolving scope-granularity move
//! requests into concrete vertex transfers and replaying them on a
//! partitioning and on worker state.
//!
//! Both runtimes repartition through this module. The *decision* of what
//! moves where is pure and runtime-agnostic ([`resolve_plan`]): it turns
//! the ILS plan's `move(LS(q,w), w, w')` requests into disjoint per-move
//! vertex sets, enforcing the system invariant that a vertex moves at most
//! once per plan (overlapping scopes assigned to different destinations
//! must not ping-pong their shared vertices). The *data plumbing* is one
//! path too: inside the stop-the-world window no partition computes, so
//! [`apply_to_workers`] extracts each move's vertices from the source
//! worker and injects them into the destination directly —
//! [`SimEngine`](crate::SimEngine) on the workers it owns,
//! [`ThreadEngine`](crate::ThreadEngine) on the ones it holds locked in
//! the partition contexts (their mailboxes flushed first).
//!
//! Ownership flips afterwards in one [`commit`] call, so routing state and
//! worker data can never disagree mid-plan.

use std::borrow::BorrowMut;
use std::sync::Arc;

use rustc_hash::FxHashSet;

use qgraph_graph::VertexId;
use qgraph_partition::{Partitioning, WorkerId};

use crate::query::QueryId;
use crate::task::QueryTask;
use crate::worker::Worker;

use super::MovePlan;

/// One resolved transfer: the concrete vertices of `query`'s local scope
/// that leave worker `from` for worker `to`. Vertex sets of the moves in
/// one [`Migration`] are pairwise disjoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VertexMove {
    /// The query whose scope move produced this transfer.
    pub query: QueryId,
    /// Source worker.
    pub from: usize,
    /// Destination worker.
    pub to: usize,
    /// The vertices that move, sorted and non-empty.
    pub vertices: Vec<VertexId>,
}

/// A fully resolved migration: what [`resolve_plan`] hands back.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Migration {
    /// Concrete transfers, in plan order; empty resolved moves are dropped.
    pub moves: Vec<VertexMove>,
    /// Total vertices changing workers (the moves are disjoint).
    pub moved_vertices: usize,
    /// Vertices moved per `(from, to)` worker pair, sorted by pair (the
    /// simulation prices each pair's bulk transfer independently).
    pub per_pair: Vec<(usize, usize, usize)>,
}

impl Migration {
    /// True when nothing moves.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Resolve a [`MovePlan`] against the *current* partitioning.
///
/// `scope_of(q, w)` must return the vertex set backing `LS(q,w)` — a live
/// query's local scope on `w`, or a finished query's retained global scope
/// (the ownership filter below restricts it to `w`). Moves are resolved in
/// plan order; a vertex claimed by an earlier move is excluded from later
/// ones, and only vertices currently owned by the move's source worker
/// qualify. The result is therefore a set of disjoint transfers that any
/// runtime can apply in any order.
pub fn resolve_plan(
    plan: &MovePlan,
    partitioning: &Partitioning,
    scope_of: &mut dyn FnMut(QueryId, usize) -> Vec<VertexId>,
) -> Migration {
    let mut already_moved: FxHashSet<VertexId> = FxHashSet::default();
    let mut moves = Vec::new();
    let mut per_pair: Vec<(usize, usize, usize)> = Vec::new();
    let mut moved_total = 0usize;

    for mv in &plan.moves {
        let vertices: FxHashSet<VertexId> = scope_of(mv.query, mv.from)
            .into_iter()
            .filter(|&v| {
                !already_moved.contains(&v) && partitioning.worker_of(v).index() == mv.from
            })
            .collect();
        if vertices.is_empty() {
            continue;
        }
        already_moved.extend(vertices.iter().copied());
        moved_total += vertices.len();
        match per_pair
            .iter_mut()
            .find(|(f, t, _)| (*f, *t) == (mv.from, mv.to))
        {
            Some((_, _, n)) => *n += vertices.len(),
            None => per_pair.push((mv.from, mv.to, vertices.len())),
        }
        let mut vertices: Vec<VertexId> = vertices.into_iter().collect();
        vertices.sort_unstable();
        moves.push(VertexMove {
            query: mv.query,
            from: mv.from,
            to: mv.to,
            vertices,
        });
    }
    per_pair.sort_unstable();
    Migration {
        moves,
        moved_vertices: moved_total,
        per_pair,
    }
}

/// Flip ownership of every resolved vertex to its destination worker.
///
/// Call this *after* the data transfer: workers route messages through the
/// partitioning, so ownership must not change while query data is still in
/// flight between workers.
pub fn commit(migration: &Migration, partitioning: &mut Partitioning) {
    for mv in &migration.moves {
        for &v in &mv.vertices {
            partitioning.move_vertex(v, WorkerId(mv.to as u32));
        }
    }
}

/// Run a migration's measured commit sequence in the canonical order —
/// locality before, data `transfer`, ownership [`commit`], locality after
/// — and return `(locality_before, locality_after)`. The core's window
/// routes every migration through this, so the measurement protocol is
/// written once; `transfer` is the executor's [`apply_to_workers`] call.
pub fn apply_measured(
    migration: &Migration,
    partitioning: &mut Partitioning,
    observed: &[(QueryId, Vec<VertexId>)],
    transfer: impl FnOnce(),
) -> (f64, f64) {
    let locality_before = scope_locality(observed, partitioning);
    transfer();
    commit(migration, partitioning);
    let locality_after = scope_locality(observed, partitioning);
    (locality_before, locality_after)
}

/// Apply the resolved transfers to the workers, indexed by partition:
/// every query's data on the moved vertices — vertex state *and* pending
/// next-superstep messages — is extracted from the source worker and
/// injected into the destination. The workers must be quiescent (no
/// frozen superstep in flight): the simulation owns them, the thread
/// runtime passes them out of the partition contexts it holds locked.
/// `task_of` resolves a live query's task. Returns the `(query,
/// destination)` pairs that gained state.
pub fn apply_to_workers<W: BorrowMut<Worker>>(
    migration: &Migration,
    workers: &mut [W],
    task_of: &dyn Fn(QueryId) -> Arc<dyn QueryTask>,
) -> Vec<(QueryId, usize)> {
    let mut gained = Vec::new();
    for mv in &migration.moves {
        let set: FxHashSet<VertexId> = mv.vertices.iter().copied().collect();
        let data = workers[mv.from]
            .borrow_mut()
            .extract_vertices(task_of, &set);
        gained.extend(data.iter().map(|(q, _)| (*q, mv.to)));
        workers[mv.to].borrow_mut().inject_vertices(task_of, data);
    }
    gained
}

/// Scope-weighted locality of the given query scopes under `partitioning`:
/// `Σ_q max_w |LS(q,w)| / Σ_q |LS(q)|`, i.e. the fraction of live scope
/// vertices sitting on their query's majority worker. `1.0` when every
/// scope is gathered on a single worker (or when there are no scopes) —
/// the partition-level counterpart of the behavioural per-query locality
/// in [`QueryOutcome::locality`](crate::QueryOutcome::locality), and the
/// quantity a repartitioning is meant to raise.
pub fn scope_locality(scopes: &[(QueryId, Vec<VertexId>)], partitioning: &Partitioning) -> f64 {
    let k = partitioning.num_workers();
    let mut on_majority = 0.0f64;
    let mut total = 0.0f64;
    let mut per_worker = vec![0u64; k];
    for (_, vs) in scopes {
        if vs.is_empty() {
            continue;
        }
        per_worker.iter_mut().for_each(|c| *c = 0);
        for &v in vs {
            per_worker[partitioning.worker_of(v).index()] += 1;
        }
        on_majority += *per_worker.iter().max().expect("k > 0") as f64;
        total += vs.len() as f64;
    }
    if total == 0.0 {
        1.0
    } else {
        on_majority / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::ReachProgram;
    use crate::qcut::ScopeMove;
    use crate::task::TypedTask;

    fn part(assign: &[u32], k: usize) -> Partitioning {
        Partitioning::new(assign.iter().map(|&w| WorkerId(w)).collect(), k)
    }

    fn vids(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&v| VertexId(v)).collect()
    }

    #[test]
    fn resolves_disjoint_moves_in_plan_order() {
        // Queries 0 and 1 share vertex 2 on worker 0; the plan sends q0's
        // scope to w1 and q1's to w2 — the shared vertex must follow the
        // *first* move only.
        let p = part(&[0, 0, 0, 0, 1], 3);
        let plan = MovePlan {
            moves: vec![
                ScopeMove {
                    query: QueryId(0),
                    from: 0,
                    to: 1,
                },
                ScopeMove {
                    query: QueryId(1),
                    from: 0,
                    to: 2,
                },
            ],
        };
        let mut scope_of = |q: QueryId, _w: usize| match q {
            QueryId(0) => vids(&[0, 2]),
            _ => vids(&[2, 3]),
        };
        let m = resolve_plan(&plan, &p, &mut scope_of);
        assert_eq!(m.moves.len(), 2);
        assert_eq!(m.moves[0].vertices, vids(&[0, 2]));
        assert_eq!(m.moves[1].vertices, vids(&[3]), "vertex 2 already claimed");
        assert_eq!(m.moved_vertices, 3);
        assert_eq!(m.per_pair, vec![(0, 1, 2), (0, 2, 1)]);
    }

    #[test]
    fn resolution_filters_by_current_owner() {
        // A finished query's retained scope is a *global* vertex list; only
        // the vertices actually on the source worker move.
        let p = part(&[0, 1, 0, 1], 2);
        let plan = MovePlan {
            moves: vec![ScopeMove {
                query: QueryId(7),
                from: 0,
                to: 1,
            }],
        };
        let mut scope_of = |_q: QueryId, _w: usize| vids(&[0, 1, 2, 3]);
        let m = resolve_plan(&plan, &p, &mut scope_of);
        assert_eq!(m.moves.len(), 1);
        assert_eq!(m.moves[0].vertices, vids(&[0, 2]));
    }

    #[test]
    fn empty_resolved_moves_are_dropped() {
        let p = part(&[1, 1], 2);
        let plan = MovePlan {
            moves: vec![ScopeMove {
                query: QueryId(0),
                from: 0,
                to: 1,
            }],
        };
        let mut scope_of = |_q: QueryId, _w: usize| Vec::new();
        let m = resolve_plan(&plan, &p, &mut scope_of);
        assert!(m.is_empty());
        assert_eq!(m.moved_vertices, 0);
    }

    #[test]
    fn commit_flips_ownership_only_for_moved_vertices() {
        let mut p = part(&[0, 0, 1], 2);
        let m = Migration {
            moves: vec![VertexMove {
                query: QueryId(0),
                from: 0,
                to: 1,
                vertices: vids(&[1]),
            }],
            moved_vertices: 1,
            per_pair: vec![(0, 1, 1)],
        };
        commit(&m, &mut p);
        assert_eq!(p.worker_of(VertexId(0)), WorkerId(0));
        assert_eq!(p.worker_of(VertexId(1)), WorkerId(1));
        assert_eq!(p.sizes().iter().sum::<usize>(), 3, "no vertex lost");
    }

    #[test]
    fn apply_to_workers_conserves_query_data() {
        // Build real worker state (vertex 0 has state, vertex 1 a pending
        // message), migrate both vertices, and check nothing is lost,
        // duplicated, or left behind.
        let mut b = qgraph_graph::GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        let g = qgraph_graph::Topology::new(b.build());
        let task: Arc<TypedTask<ReachProgram>> =
            Arc::new(TypedTask::new(ReachProgram::new(VertexId(0))));
        let q = QueryId(0);
        let mut workers = vec![Worker::new(0), Worker::new(1)];
        workers[0].deliver(
            task.as_ref(),
            q,
            task.batch_for_test(vec![(VertexId(0), 0)]),
        );
        workers[0].freeze(q);
        let prev = task.aggregate_identity();
        workers[0].execute(q, task.as_ref(), &g, &prev, &|_| 0);
        let scope_before = workers[0].scope_size(q);
        assert_eq!(scope_before, 1);
        assert!(workers[0].has_pending(q));

        let m = Migration {
            moves: vec![VertexMove {
                query: q,
                from: 0,
                to: 1,
                vertices: vids(&[0, 1]),
            }],
            moved_vertices: 2,
            per_pair: vec![(0, 1, 2)],
        };
        let task_of = {
            let task = Arc::clone(&task);
            move |_q: QueryId| task.clone() as Arc<dyn QueryTask>
        };
        apply_to_workers(&m, &mut workers, &task_of);
        assert_eq!(workers[0].scope_size(q), 0, "source fully drained");
        assert!(!workers[0].has_pending(q));
        assert_eq!(workers[1].scope_size(q), scope_before, "state conserved");
        assert!(workers[1].has_pending(q), "inbox migrated with the vertex");
    }

    #[test]
    fn scope_locality_bounds_and_direction() {
        let spread = part(&[0, 1, 0, 1], 2);
        let gathered = part(&[0, 0, 0, 0], 2);
        let scopes = vec![(QueryId(0), vids(&[0, 1, 2, 3]))];
        assert_eq!(scope_locality(&scopes, &spread), 0.5);
        assert_eq!(scope_locality(&scopes, &gathered), 1.0);
        assert_eq!(scope_locality(&[], &spread), 1.0, "vacuously local");
        let with_empty = vec![(QueryId(0), Vec::new()), (QueryId(1), vids(&[0]))];
        assert_eq!(scope_locality(&with_empty, &spread), 1.0);
    }
}
