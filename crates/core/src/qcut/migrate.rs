//! Shared [`MovePlan`] application: resolving scope-granularity move
//! requests into concrete vertex transfers and replaying them on a
//! partitioning and on the queries' state.
//!
//! Both runtimes repartition through this module. The *decision* of what
//! moves where is pure and runtime-agnostic ([`resolve_plan`]): it turns
//! the ILS plan's `move(LS(q,w), w, w')` requests into disjoint per-move
//! vertex sets, enforcing the system invariant that a vertex moves at most
//! once per plan (overlapping scopes assigned to different destinations
//! must not ping-pong their shared vertices). The *data plumbing* is one
//! path too: a query's state lives in its record, one local per partition
//! (`coord::Stepping::locals`), and inside the stop-the-world window every
//! local is at rest there. So `transfer` is a pass over the records: per
//! move, every query's data on the move's vertices leaves its local on the
//! source for its local on the destination — no partition is touched, on
//! either runtime, after the core delivered every live query's pending
//! input from its record into its own locals.
//!
//! Ownership flips afterwards in one [`commit`] call, so routing state and
//! query data can never disagree mid-plan.

use rustc_hash::FxHashSet;

use qgraph_graph::VertexId;
use qgraph_partition::{Partitioning, WorkerId};

use crate::coord::Record;
use crate::query::QueryId;

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
/// written once; the window's `transfer` moves the data (this module's
/// `transfer`) and prices it.
pub fn apply_measured(
    migration: &Migration,
    partitioning: &mut Partitioning,
    observed: &[(QueryId, &[VertexId])],
    transfer: impl FnOnce(),
) -> (f64, f64) {
    let locality_before = scope_locality(observed, partitioning);
    transfer();
    commit(migration, partitioning);
    let locality_after = scope_locality(observed, partitioning);
    (locality_before, locality_after)
}

/// Apply the resolved transfers to the `records`, given in query id
/// order: move by move, every query's data on the moved vertices — vertex
/// state *and* pending next-superstep messages — is extracted from its
/// local on the source partition and injected into its local on the
/// destination, made from its task when it has none there yet. Every local must be at rest with no frozen
/// superstep in it, which the window guarantees.
pub(crate) fn transfer<'a>(
    migration: &Migration,
    records: impl Iterator<Item = &'a Record> + Clone,
) {
    for mv in &migration.moves {
        let set: FxHashSet<VertexId> = mv.vertices.iter().copied().collect();
        for record in records.clone() {
            let locals = &mut record.stepping().locals;
            let Some(data) = locals[mv.from].as_mut().and_then(|l| l.extract(&set)) else {
                continue;
            };
            let to = locals[mv.to].get_or_insert_with(|| record.task.new_local());
            to.inject(data);
        }
    }
}

/// Scope-weighted locality of the given query scopes under `partitioning`:
/// `Σ_q max_w |LS(q,w)| / Σ_q |LS(q)|`, i.e. the fraction of live scope
/// vertices sitting on their query's majority worker. `1.0` when every
/// scope is gathered on a single worker (or when there are no scopes) —
/// the partition-level counterpart of the behavioural per-query locality
/// in [`QueryOutcome::locality`](crate::QueryOutcome::locality), and the
/// quantity a repartitioning is meant to raise.
pub fn scope_locality(scopes: &[(QueryId, &[VertexId])], partitioning: &Partitioning) -> f64 {
    let k = partitioning.num_workers();
    let mut on_majority = 0.0f64;
    let mut total = 0.0f64;
    let mut per_worker = vec![0u64; k];
    for &(_, vs) in scopes {
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
    use std::sync::{Arc, Mutex};

    use qgraph_graph::Topology;

    use super::*;
    use crate::coord::Query;
    use crate::program::{Context, VertexProgram};
    use crate::qcut::ScopeMove;
    use crate::task::{QueryTask, TypedTask};
    use crate::worker::Moved;

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

    /// A program whose combiner declines every merge and logs each offer
    /// as `(tag, message)`. An inject offers each of a vertex's pending
    /// messages after its first, so the log orders the injects across
    /// queries.
    struct Tagged {
        tag: u32,
        offers: Arc<Mutex<Vec<(u32, u32)>>>,
    }

    impl VertexProgram for Tagged {
        type State = u32;
        type Message = u32;
        type Aggregate = ();
        type Output = ();
        fn init_state(&self) -> u32 {
            0
        }
        fn aggregate_identity(&self) {}
        fn aggregate_combine(&self, _: &mut (), _: &()) {}
        fn combine(&self, _: &mut u32, other: &u32) -> bool {
            self.offers.lock().unwrap().push((self.tag, *other));
            false
        }
        fn initial_messages(&self, _: &Topology) -> Vec<(VertexId, u32)> {
            Vec::new()
        }
        fn compute(
            &self,
            _: &Topology,
            _: VertexId,
            _: &mut u32,
            _: &[u32],
            _: &mut Context<'_, u32, ()>,
        ) {
        }
        fn finalize(&self, _: &Topology, _: &mut dyn Iterator<Item = (VertexId, u32)>) {}
    }

    #[test]
    fn transfer_conserves_query_data_move_by_move_then_by_query_id() {
        // Queries 0 and 1 each hold vertex 0 on partition 0 and vertex 1
        // on partition 1: a state and two pending messages each. Two moves
        // send both vertices to partition 2.
        let offers = Arc::new(Mutex::new(Vec::new()));
        let records: Vec<Record> = (0..2)
            .map(|tag| {
                let program = Tagged {
                    tag,
                    offers: Arc::clone(&offers),
                };
                let task: Arc<dyn QueryTask> = Arc::new(TypedTask::new(program));
                let record = Query::new(QueryId(tag), task, Default::default(), 1, 3);
                for w in 0..2 {
                    let mut local = record.task.new_local();
                    let held: Moved<Tagged> =
                        vec![(VertexId(w), Some(tag), vec![10 * w, 10 * w + 1])];
                    local.inject(Box::new(held));
                    record.stepping().locals[w as usize] = Some(local);
                }
                record
            })
            .collect();
        offers.lock().unwrap().clear();
        let m = Migration {
            moves: vec![
                VertexMove {
                    query: QueryId(0),
                    from: 0,
                    to: 2,
                    vertices: vids(&[0]),
                },
                VertexMove {
                    query: QueryId(1),
                    from: 1,
                    to: 2,
                    vertices: vids(&[1]),
                },
            ],
            moved_vertices: 2,
            per_pair: vec![(0, 2, 1), (1, 2, 1)],
        };
        transfer(&m, records.iter());
        // Move by move, and within a move query by query, in id order:
        // each query's data moves whichever query the move was planned for.
        let order = vec![(0, 1), (1, 1), (0, 11), (1, 11)];
        assert_eq!(*offers.lock().unwrap(), order);
        for record in &records {
            let mut step = record.stepping();
            for w in 0..2 {
                let source = step.locals[w].as_ref().expect("left in place");
                assert_eq!((source.scope_size(), source.has_pending()), (0, false));
            }
            let gained = step.locals[2].as_mut().expect("made from the task");
            let mut scope = Vec::new();
            gained.for_each_scope_vertex(&mut |v| scope.push(v));
            scope.sort_unstable();
            assert_eq!(scope, vids(&[0, 1]), "{}: state conserved", record.id);
            assert_eq!(
                gained.freeze(),
                (2, 4),
                "{}: inboxes moved along",
                record.id
            );
        }
    }

    #[test]
    fn scope_locality_bounds_and_direction() {
        let spread = part(&[0, 1, 0, 1], 2);
        let gathered = part(&[0, 0, 0, 0], 2);
        let all = vids(&[0, 1, 2, 3]);
        let scopes = [(QueryId(0), &all[..])];
        assert_eq!(scope_locality(&scopes, &spread), 0.5);
        assert_eq!(scope_locality(&scopes, &gathered), 1.0);
        assert_eq!(scope_locality(&[], &spread), 1.0, "vacuously local");
        let one = vids(&[0]);
        let with_empty = [(QueryId(0), &[][..]), (QueryId(1), &one[..])];
        assert_eq!(scope_locality(&with_empty, &spread), 1.0);
    }
}
