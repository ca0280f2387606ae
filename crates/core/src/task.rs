//! The type-erased query-task layer.
//!
//! The engines run *heterogeneous* concurrent queries — one engine
//! instance executes SSSP, POI, and reachability programs side by side —
//! so the runtimes cannot be generic over a single
//! [`VertexProgram`]. Two object-safe faces carry a program through them
//! instead:
//!
//! * [`QueryTask`], one per query (a `TypedTask` behind an
//!   `Arc<dyn QueryTask>`): the per-query work — admission's seed
//!   batches, the aggregate at each barrier, an index answer, and
//!   `finalize`;
//! * [`LocalState`], one per (query, partition) (a [`QueryLocal`] in the
//!   query's record, run over its partition's [`Scratch`]): the
//!   per-partition work — deliver, execute, and a migration's extract and
//!   inject. The local holds the program, so it runs itself.
//!
//! Program-specific payloads (message batches, aggregates, migrated
//! vertex data, outputs) cross the erased boundary as
//! `Box<dyn Any + Send>` **envelopes** ([`Envelope`], [`MessageBatch`]),
//! and this module's helpers open them: elsewhere in the core only the
//! typed output lookup of [`Engine`](crate::Engine) downcasts (qlint's
//! `erasure-boundary` rule). A mismatched envelope is a library bug,
//! caught by a panic with a clear message, never a caller-visible `Any`
//! API; a message batch names its sender's program as well, since two
//! programs may share a message type.
//!
//! A message batch's payload is the sender's bucket itself — a
//! `Box<Vec<(VertexId, Message)>>` coerced to an [`Envelope`], not a
//! vector boxed a second time — and `MessageBatch::into_messages`
//! downcasts it back to the same box, which the receiving partition
//! parks in its pool as the buffer of a bucket it will send
//! (`pooled_batch` opens it again; see [`crate::worker`]).
//! The message count rides alongside the envelope for the runtimes' cost
//! models, so the simulation's network model never has to peek inside an
//! erased payload.

use std::any::{Any, TypeId};
use std::sync::Arc;

use rustc_hash::FxHashMap;

use qgraph_graph::{Topology, VertexId};

use crate::program::VertexProgram;
use crate::worker::{Batch, LocalState, Moved, QueryLocal, Scratch};

/// A type-erased, sendable payload (messages, aggregate, states, output).
pub type Envelope = Box<dyn Any + Send>;

/// Take query `q`'s finished output out of an engine's output table —
/// only if it downcasts to the program type the caller's handle names.
pub(crate) fn take_output<P: VertexProgram>(
    outputs: &mut [Option<Envelope>],
    q: crate::QueryId,
) -> Option<P::Output> {
    let slot = outputs.get_mut(q.index())?;
    slot.as_ref()?.downcast_ref::<P::Output>()?;
    slot.take()
        .and_then(|b| b.downcast::<P::Output>().ok())
        .map(|b| *b)
}

/// Program `P`'s aggregate, out of its envelope.
pub(crate) fn aggregate_of<P: VertexProgram>(envelope: &Envelope) -> &P::Aggregate {
    envelope
        .downcast_ref()
        .expect("query task type mismatch: aggregate envelope is not this program's")
}

/// Program `P`'s migrated vertex data, out of the envelope
/// [`LocalState::extract`] made of it.
pub(crate) fn moved_of<P: VertexProgram>(data: Envelope) -> Moved<P> {
    *data
        .downcast()
        .expect("query task type mismatch: migration envelope is not this program's")
}

/// An emptied buffer of program `P`'s message type out of a partition's
/// batch pool, if one is parked there.
pub(crate) fn pooled_batch<P: VertexProgram>(scratch: &mut Scratch) -> Option<Batch<P>> {
    let buffer = scratch.parked::<Vec<(VertexId, P::Message)>>().pop()?;
    Some(
        buffer
            .downcast()
            .expect("batch pool mismatch: a buffer parked under another type"),
    )
}

/// A batch of one query's messages addressed to one worker. The payload is
/// the sender's boxed `Vec<(VertexId, P::Message)>` as an [`Envelope`]
/// (one allocation, which the receiver reuses); the message count is
/// carried openly for the runtimes' cost models: what the batch actually
/// holds (post sender-side combining — what the wire carries and the
/// network model prices).
pub struct MessageBatch {
    count: usize,
    /// The sending program's type: the payload's own type cannot tell
    /// apart two programs with one message type.
    program: TypeId,
    payload: Envelope,
}

impl MessageBatch {
    /// Program `P`'s batch buffer as a batch: the box becomes the payload
    /// as it is, no second allocation.
    pub(crate) fn new<P: VertexProgram>(msgs: Batch<P>) -> Self {
        MessageBatch {
            count: msgs.len(),
            program: TypeId::of::<P>(),
            payload: msgs,
        }
    }

    /// The batch's buffer, still in the box it travelled in.
    pub(crate) fn into_messages<P: VertexProgram>(self) -> Batch<P> {
        let mismatch = "query task type mismatch: message batch is not this program's";
        assert!(self.program == TypeId::of::<P>(), "{mismatch}");
        self.payload.downcast().expect(mismatch)
    }

    /// Number of messages in the batch (post-combine).
    pub fn len(&self) -> usize {
        self.count
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// The object-safe face of one submitted query: its program's per-query
/// work, erased behind envelopes (the per-partition work is its
/// [`LocalState`]'s). Runtimes hold `Arc<dyn QueryTask>` per query and
/// stay completely program-agnostic.
pub trait QueryTask: Send + Sync {
    /// The program-kind label (see [`VertexProgram::name`]).
    fn program_name(&self) -> &'static str;

    /// The program's index-eligible point-query form, if any (see
    /// [`VertexProgram::point_query`]).
    fn point_query(&self) -> Option<crate::index_plane::PointQuery>;

    /// Wrap an index answer as this task's typed output envelope, or
    /// `None` when the program declines it (see
    /// [`VertexProgram::output_from_answer`]) — the query then runs as a
    /// traversal.
    fn envelope_from_answer(&self, answer: &crate::index_plane::PointAnswer) -> Option<Envelope>;

    /// Fresh per-partition local state for this query.
    fn new_local(&self) -> Box<dyn LocalState>;

    /// The aggregator's identity element, enveloped.
    fn aggregate_identity(&self) -> Envelope;

    /// Fold `b` into `acc` (both must be this task's aggregate type).
    fn aggregate_combine(&self, acc: &mut Envelope, b: &Envelope);

    /// Clone an aggregate envelope (the thread runtime broadcasts the
    /// previous aggregate to every involved worker).
    fn clone_aggregate(&self, a: &Envelope) -> Envelope;

    /// Whether the aggregate accumulates across the whole run.
    fn aggregate_sticky(&self) -> bool;

    /// Should the query stop at this barrier?
    fn should_terminate(&self, aggregate: &Envelope) -> bool;

    /// The seed messages, pre-bucketed by destination worker via `route`
    /// and offered to the program's combiner per destination vertex.
    fn initial_batches(
        &self,
        graph: &Topology,
        route: &dyn Fn(VertexId) -> usize,
    ) -> Vec<(usize, MessageBatch)>;

    /// Produce the query's output envelope (downcast by
    /// [`crate::QueryHandle`]) from the locals its record held, one per
    /// partition it touched: the program reads their states in place,
    /// local after local. A vertex's state lives on its owner alone, so no two locals
    /// hold one vertex.
    fn finalize(&self, graph: &Topology, locals: Vec<Box<dyn LocalState>>) -> Envelope;
}

/// The typed implementation of [`QueryTask`] for a program `P`.
pub(crate) struct TypedTask<P: VertexProgram> {
    program: Arc<P>,
}

impl<P: VertexProgram> TypedTask<P> {
    pub(crate) fn new(program: P) -> Self {
        TypedTask {
            program: Arc::new(program),
        }
    }

    #[cfg(test)]
    pub(crate) fn batch_for_test(&self, msgs: Vec<(VertexId, P::Message)>) -> MessageBatch {
        MessageBatch::new::<P>(Box::new(msgs))
    }
}

impl<P: VertexProgram> QueryTask for TypedTask<P> {
    fn program_name(&self) -> &'static str {
        self.program.name()
    }

    fn point_query(&self) -> Option<crate::index_plane::PointQuery> {
        self.program.point_query()
    }

    fn envelope_from_answer(&self, answer: &crate::index_plane::PointAnswer) -> Option<Envelope> {
        self.program
            .output_from_answer(answer)
            .map(|out| Box::new(out) as Envelope)
    }

    fn new_local(&self) -> Box<dyn LocalState> {
        Box::new(QueryLocal::<P>::new(Arc::clone(&self.program)))
    }

    fn aggregate_identity(&self) -> Envelope {
        Box::new(self.program.aggregate_identity())
    }

    fn aggregate_combine(&self, acc: &mut Envelope, b: &Envelope) {
        let b = aggregate_of::<P>(b).clone();
        let acc = acc
            .downcast_mut::<P::Aggregate>()
            .expect("query task type mismatch: aggregate envelope is not this program's");
        self.program.aggregate_combine(acc, &b);
    }

    fn clone_aggregate(&self, a: &Envelope) -> Envelope {
        Box::new(aggregate_of::<P>(a).clone())
    }

    fn aggregate_sticky(&self) -> bool {
        self.program.aggregate_sticky()
    }

    fn should_terminate(&self, aggregate: &Envelope) -> bool {
        self.program.should_terminate(aggregate_of::<P>(aggregate))
    }

    fn initial_batches(
        &self,
        graph: &Topology,
        route: &dyn Fn(VertexId) -> usize,
    ) -> Vec<(usize, MessageBatch)> {
        let mut by_worker: FxHashMap<usize, Vec<(VertexId, P::Message)>> = FxHashMap::default();
        for (v, m) in self.program.initial_messages(graph) {
            by_worker.entry(route(v)).or_default().push((v, m));
        }
        let mut out: Vec<(usize, MessageBatch)> = by_worker
            .into_iter()
            .map(|(w, mut msgs)| {
                crate::worker::combine_in_place(self.program.as_ref(), &mut msgs);
                (w, MessageBatch::new::<P>(Box::new(msgs)))
            })
            .collect();
        out.sort_unstable_by_key(|(w, _)| *w); // deterministic order
        out
    }

    fn finalize(&self, graph: &Topology, locals: Vec<Box<dyn LocalState>>) -> Envelope {
        debug_assert!(
            scopes_disjoint::<P>(&locals),
            "two locals of one query hold the same vertex"
        );
        let mut states = locals.into_iter().flat_map(|local| {
            let any: Box<dyn Any> = local;
            let local = any
                .downcast::<QueryLocal<P>>()
                .expect("query task type mismatch: local state is not this program's");
            local.into_states()
        });
        Box::new(self.program.finalize(graph, &mut states))
    }
}

/// Does every vertex have its state in one of program `P`'s `locals` at
/// most? One pass per pair of locals, allocating nothing.
fn scopes_disjoint<P: VertexProgram>(locals: &[Box<dyn LocalState>]) -> bool {
    fn typed<P: VertexProgram>(local: &dyn LocalState) -> &QueryLocal<P> {
        let any: &dyn Any = local;
        let local = any.downcast_ref();
        local.expect("query task type mismatch: local state is not this program's")
    }
    locals.iter().enumerate().all(|(i, a)| {
        let a = typed::<P>(a.as_ref());
        let mut rest = locals[i + 1..].iter();
        rest.all(|b| !a.shares_a_vertex_with(typed::<P>(b.as_ref())))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::ReachProgram;
    use crate::worker::Scratch;
    use qgraph_graph::GraphBuilder;

    #[test]
    fn initial_batches_bucket_by_route() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        let g = Topology::new(b.build());
        let task = TypedTask::new(ReachProgram::new(VertexId(2)));
        let batches = task.initial_batches(&g, &|v| v.0 as usize % 2);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].0, 0); // vertex 2 routes to worker 0
        assert_eq!(batches[0].1.len(), 1);
    }

    /// A reach local that visited `vertices` (the graph has no edges).
    fn visited(
        task: &TypedTask<ReachProgram>,
        g: &Topology,
        vertices: &[u32],
    ) -> Box<dyn LocalState> {
        let mut local = task.new_local();
        let mut scratch = Scratch::default();
        let seeds = vertices.iter().map(|&v| (VertexId(v), 0u32)).collect();
        local.deliver(task.batch_for_test(seeds), &mut scratch);
        local.freeze();
        let prev = task.aggregate_identity();
        local.execute(g, &prev, 0, &|_| 0, &mut scratch);
        local
    }

    fn reached(out: Envelope) -> Vec<VertexId> {
        *out.downcast::<Vec<VertexId>>().expect("typed output")
    }

    #[test]
    fn finalize_merges_worker_locals() {
        let g = Topology::new(GraphBuilder::new(4).build());
        let task = TypedTask::new(ReachProgram::new(VertexId(0)));
        // Two locals that each visited one vertex.
        let out = task.finalize(&g, vec![visited(&task, &g, &[0]), visited(&task, &g, &[3])]);
        assert_eq!(reached(out), vec![VertexId(0), VertexId(3)]);
    }

    #[test]
    fn finalize_over_split_locals_equals_finalize_over_one() {
        let g = Topology::new(GraphBuilder::new(8).build());
        let task = TypedTask::new(ReachProgram::new(VertexId(0)));
        let all = [6, 0, 3, 7, 1, 4];
        let one = reached(task.finalize(&g, vec![visited(&task, &g, &all)]));
        assert_eq!(one, [0, 1, 3, 4, 6, 7].map(VertexId));
        for parts in [
            vec![&[6, 0][..], &[3, 7], &[1, 4]],
            vec![&[4], &[7, 3, 1], &[], &[0, 6]],
        ] {
            let locals = parts.iter().map(|p| visited(&task, &g, p)).collect();
            assert_eq!(reached(task.finalize(&g, locals)), one, "{parts:?}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "two locals of one query hold the same vertex")]
    fn finalize_rejects_a_vertex_on_two_locals() {
        let g = Topology::new(GraphBuilder::new(4).build());
        let task = TypedTask::new(ReachProgram::new(VertexId(0)));
        task.finalize(
            &g,
            vec![visited(&task, &g, &[0, 2]), visited(&task, &g, &[2])],
        );
    }

    #[test]
    fn a_batch_travels_in_one_box_from_delivery_to_the_next_send() {
        // 0 -> 1 with vertex 1 on worker 1: what worker 0 sends is the
        // envelope it was sent.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        let g = Topology::new(b.build());
        let task = TypedTask::new(ReachProgram::new(VertexId(0)));
        let address = |batch: &MessageBatch| {
            let msgs = batch.payload.downcast_ref::<Vec<(VertexId, u32)>>();
            msgs.expect("a reach batch") as *const Vec<_>
        };
        let arriving = task.batch_for_test(vec![(VertexId(0), 0)]);
        let sent = address(&arriving);
        let mut local = task.new_local();
        let mut scratch = Scratch::default();
        local.deliver(arriving, &mut scratch);
        local.freeze();
        let (stats, _, remote) = local.execute(
            &g,
            &task.aggregate_identity(),
            0,
            &|v| v.0 as usize,
            &mut scratch,
        );
        let [(1, leaving)] = &remote[..] else {
            panic!("one batch, for worker 1");
        };
        assert_eq!(address(leaving), sent);
        assert_eq!((leaving.len(), stats.remote_pre_combine), (1, 1));
    }

    #[test]
    fn aggregate_roundtrip_through_envelopes() {
        use crate::program::{Context, VertexProgram};
        #[derive(Clone)]
        struct SumProgram;
        impl VertexProgram for SumProgram {
            type State = ();
            type Message = u32;
            type Aggregate = u64;
            type Output = u64;
            fn init_state(&self) {}
            fn aggregate_identity(&self) -> u64 {
                0
            }
            fn aggregate_combine(&self, a: &mut u64, b: &u64) {
                *a += *b;
            }
            fn initial_messages(&self, _g: &Topology) -> Vec<(VertexId, u32)> {
                vec![]
            }
            fn compute(
                &self,
                _g: &Topology,
                _v: VertexId,
                _s: &mut (),
                _m: &[u32],
                _c: &mut Context<'_, u32, u64>,
            ) {
            }
            fn finalize(&self, _g: &Topology, _s: &mut dyn Iterator<Item = (VertexId, ())>) -> u64 {
                0
            }
        }
        let task = TypedTask::new(SumProgram);
        let mut acc = task.aggregate_identity();
        task.aggregate_combine(&mut acc, &(Box::new(5u64) as Envelope));
        task.aggregate_combine(
            &mut acc,
            &task.clone_aggregate(&(Box::new(7u64) as Envelope)),
        );
        assert_eq!(*acc.downcast_ref::<u64>().unwrap(), 12);
        assert!(!task.should_terminate(&acc));
    }
}
