//! The type-erased query-task layer.
//!
//! The engines run *heterogeneous* concurrent queries — one engine
//! instance executes SSSP, POI, and reachability programs side by side —
//! so the runtimes cannot be generic over a single
//! [`VertexProgram`]. Instead, every submitted program is wrapped in a
//! [`TypedTask`] and handled through the object-safe [`QueryTask`] trait:
//!
//! * program-specific payloads (message batches, aggregates, vertex-state
//!   envelopes, outputs) cross the erased boundary as
//!   `Box<dyn Any + Send>` **envelopes** ([`Envelope`], [`MessageBatch`]);
//! * the *only* code that downcasts is the per-query runner inside
//!   [`TypedTask`], so a mismatched envelope is a library bug, caught by a
//!   panic with a clear message, never a caller-visible `Any` API;
//! * callers get their types back through [`QueryHandle`](crate::QueryHandle),
//!   which carries the program type in a zero-sized marker and downcasts
//!   the output envelope exactly once, in
//!   [`Engine::output`](crate::Engine::output).
//!
//! A message batch's payload is the sender's bucket itself — a
//! `Box<Vec<(VertexId, Message)>>` coerced to an [`Envelope`], not a
//! vector boxed a second time — and [`QueryTask::deliver`] downcasts it
//! back to the same box, which the receiving [`QueryLocal`] keeps as the
//! buffer of a bucket it will send (see [`crate::worker`]).
//!
//! The counts a runtime needs for cost accounting (how many messages a
//! batch carries) ride alongside the envelope in [`MessageBatch`], so the
//! simulation's network model never has to peek inside an erased payload.

use std::any::Any;
use std::sync::Arc;

use rustc_hash::{FxHashMap, FxHashSet};

use qgraph_graph::{Topology, VertexId};

use crate::program::VertexProgram;
use crate::worker::{Batch, CombineScratch, LocalState, QueryLocal, SuperstepStats};

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

/// A batch of one query's messages addressed to one worker. The payload is
/// the sender's boxed `Vec<(VertexId, P::Message)>` as an [`Envelope`]
/// (one allocation, which the receiver reuses); the message
/// counts are carried openly for the runtimes' cost models: `count` is
/// what the batch actually holds (post sender-side combining — what the
/// wire carries and the network model prices), `pre_combine` what the
/// producing superstep addressed to this worker before the combiner ran.
pub struct MessageBatch {
    count: usize,
    pre_combine: usize,
    payload: Envelope,
}

impl MessageBatch {
    /// Number of messages in the batch (post-combine).
    pub fn len(&self) -> usize {
        self.count
    }

    /// Messages addressed to this batch's worker before sender-side
    /// combining; `len() ≤ pre_combine()`, equal when the program has no
    /// combiner (or combining is disabled).
    pub fn pre_combine(&self) -> usize {
        self.pre_combine
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// The object-safe face of one submitted query: its program plus every
/// typed operation a runtime needs, erased behind envelopes. Runtimes hold
/// `Arc<dyn QueryTask>` per query and stay completely program-agnostic.
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

    /// Fresh per-worker local state for this query; `combiners` gates the
    /// program's message combiner (see [`VertexProgram::combine`]).
    fn new_local(&self, combiners: bool) -> Box<dyn LocalState>;

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
    /// and combined per destination vertex when `combiners` is set.
    fn initial_batches(
        &self,
        graph: &Topology,
        route: &dyn Fn(VertexId) -> usize,
        combiners: bool,
    ) -> Vec<(usize, MessageBatch)>;

    /// Deliver a batch into `local`'s next-superstep inbox.
    fn deliver(&self, local: &mut dyn LocalState, batch: MessageBatch);

    /// Execute `local`'s frozen superstep; returns the step statistics,
    /// the superstep's aggregate contribution, and remote message batches
    /// bucketed by destination worker (combined sender-side through
    /// `scratch` when the program carries a combiner).
    fn execute(
        &self,
        local: &mut dyn LocalState,
        graph: &Topology,
        prev_aggregate: &Envelope,
        home: usize,
        route: &dyn Fn(VertexId) -> usize,
        scratch: &mut CombineScratch,
    ) -> (SuperstepStats, Envelope, Vec<(usize, MessageBatch)>);

    /// Extract this query's data for the given vertices out of `local`
    /// (migration), or `None` if the query holds nothing there.
    fn extract(
        &self,
        local: &mut dyn LocalState,
        vertices: &FxHashSet<VertexId>,
    ) -> Option<Envelope>;

    /// Inject a migration envelope produced by [`QueryTask::extract`].
    fn inject(&self, local: &mut dyn LocalState, data: Envelope);

    /// Merge the locals collected from every worker and produce the
    /// query's output envelope (downcast by [`crate::QueryHandle`]).
    fn finalize(&self, graph: &Topology, locals: Vec<Box<dyn LocalState>>) -> Envelope;
}

/// The typed implementation of [`QueryTask`] for a program `P` — the
/// per-query runner where every downcast in the system lives.
pub(crate) struct TypedTask<P: VertexProgram> {
    program: Arc<P>,
}

impl<P: VertexProgram> TypedTask<P> {
    pub(crate) fn new(program: P) -> Self {
        TypedTask {
            program: Arc::new(program),
        }
    }

    fn local_mut<'a>(&self, local: &'a mut dyn LocalState) -> &'a mut QueryLocal<P> {
        let any: &mut dyn Any = local;
        any.downcast_mut::<QueryLocal<P>>()
            .expect("query task type mismatch: local state is not this program's")
    }

    /// The batch's buffer, still in the box it travelled in.
    fn messages(&self, batch: MessageBatch) -> Batch<P> {
        batch
            .payload
            .downcast::<Vec<(VertexId, P::Message)>>()
            .expect("query task type mismatch: message batch is not this program's")
    }

    fn aggregate<'a>(&self, envelope: &'a Envelope) -> &'a P::Aggregate {
        envelope
            .downcast_ref::<P::Aggregate>()
            .expect("query task type mismatch: aggregate envelope is not this program's")
    }

    /// The box becomes the payload as it is: no second allocation.
    fn wrap_batch(&self, pre_combine: usize, msgs: Batch<P>) -> MessageBatch {
        MessageBatch {
            count: msgs.len(),
            pre_combine,
            payload: msgs,
        }
    }

    /// Sort a bucket by destination vertex and collapse each vertex's run
    /// through the program's combiner (sender-side combining).
    fn combine_bucket(&self, msgs: &mut Vec<(VertexId, P::Message)>) {
        crate::worker::combine_in_place(self.program.as_ref(), msgs);
    }

    #[cfg(test)]
    pub(crate) fn batch_for_test(&self, msgs: Vec<(VertexId, P::Message)>) -> MessageBatch {
        let pre = msgs.len();
        self.wrap_batch(pre, Box::new(msgs))
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

    fn new_local(&self, combiners: bool) -> Box<dyn LocalState> {
        Box::new(QueryLocal::<P>::new(Arc::clone(&self.program), combiners))
    }

    fn aggregate_identity(&self) -> Envelope {
        Box::new(self.program.aggregate_identity())
    }

    fn aggregate_combine(&self, acc: &mut Envelope, b: &Envelope) {
        let b = self.aggregate(b).clone();
        let acc = acc
            .downcast_mut::<P::Aggregate>()
            .expect("query task type mismatch: aggregate envelope is not this program's");
        self.program.aggregate_combine(acc, &b);
    }

    fn clone_aggregate(&self, a: &Envelope) -> Envelope {
        Box::new(self.aggregate(a).clone())
    }

    fn aggregate_sticky(&self) -> bool {
        self.program.aggregate_sticky()
    }

    fn should_terminate(&self, aggregate: &Envelope) -> bool {
        self.program.should_terminate(self.aggregate(aggregate))
    }

    fn initial_batches(
        &self,
        graph: &Topology,
        route: &dyn Fn(VertexId) -> usize,
        combiners: bool,
    ) -> Vec<(usize, MessageBatch)> {
        let mut by_worker: FxHashMap<usize, Vec<(VertexId, P::Message)>> = FxHashMap::default();
        for (v, m) in self.program.initial_messages(graph) {
            by_worker.entry(route(v)).or_default().push((v, m));
        }
        let mut out: Vec<(usize, MessageBatch)> = by_worker
            .into_iter()
            .map(|(w, mut msgs)| {
                let pre = msgs.len();
                if combiners {
                    self.combine_bucket(&mut msgs);
                }
                (w, self.wrap_batch(pre, Box::new(msgs)))
            })
            .collect();
        out.sort_unstable_by_key(|(w, _)| *w); // deterministic order
        out
    }

    fn deliver(&self, local: &mut dyn LocalState, batch: MessageBatch) {
        let msgs = self.messages(batch);
        self.local_mut(local).deliver(msgs);
    }

    fn execute(
        &self,
        local: &mut dyn LocalState,
        graph: &Topology,
        prev_aggregate: &Envelope,
        home: usize,
        route: &dyn Fn(VertexId) -> usize,
        scratch: &mut CombineScratch,
    ) -> (SuperstepStats, Envelope, Vec<(usize, MessageBatch)>) {
        let prev = self.aggregate(prev_aggregate);
        let (stats, agg, remote) =
            self.local_mut(local)
                .execute(graph, self.program.as_ref(), prev, home, route, scratch);
        let remote = remote
            .into_iter()
            .map(|(w, pre, msgs)| (w, self.wrap_batch(pre, msgs)))
            .collect();
        (stats, Box::new(agg), remote)
    }

    fn extract(
        &self,
        local: &mut dyn LocalState,
        vertices: &FxHashSet<VertexId>,
    ) -> Option<Envelope> {
        let entries = self.local_mut(local).extract(vertices);
        if entries.is_empty() {
            None
        } else {
            Some(Box::new(entries))
        }
    }

    fn inject(&self, local: &mut dyn LocalState, data: Envelope) {
        let entries = *data
            .downcast::<Vec<(VertexId, Option<P::State>, Vec<P::Message>)>>()
            .expect("query task type mismatch: migration envelope is not this program's");
        self.local_mut(local).inject(entries);
    }

    fn finalize(&self, graph: &Topology, locals: Vec<Box<dyn LocalState>>) -> Envelope {
        let mut states: FxHashMap<VertexId, P::State> = FxHashMap::default();
        for local in locals {
            let any: Box<dyn Any> = local;
            let local = any
                .downcast::<QueryLocal<P>>()
                .expect("query task type mismatch: local state is not this program's");
            states.extend(local.into_states());
        }
        let mut it = states.into_iter();
        Box::new(self.program.finalize(graph, &mut it))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::ReachProgram;
    use qgraph_graph::GraphBuilder;

    #[test]
    fn initial_batches_bucket_by_route() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        let g = Topology::new(b.build());
        let task = TypedTask::new(ReachProgram::new(VertexId(2)));
        let batches = task.initial_batches(&g, &|v| v.0 as usize % 2, true);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].0, 0); // vertex 2 routes to worker 0
        assert_eq!(batches[0].1.len(), 1);
        assert_eq!(batches[0].1.pre_combine(), 1);
    }

    #[test]
    fn finalize_merges_worker_locals() {
        let g = Topology::new(GraphBuilder::new(4).build());
        let task = TypedTask::new(ReachProgram::new(VertexId(0)));
        // Two locals that each visited one vertex.
        let mk = |v: u32| -> Box<dyn LocalState> {
            let program = Arc::new(ReachProgram::new(VertexId(0)));
            let mut local = QueryLocal::<ReachProgram>::new(Arc::clone(&program), true);
            local.deliver(Box::new(vec![(VertexId(v), 0u32)]));
            LocalState::freeze(&mut local);
            local.execute(
                &g,
                program.as_ref(),
                &(),
                0,
                &|_| 0,
                &mut CombineScratch::default(),
            );
            Box::new(local)
        };
        let out = task.finalize(&g, vec![mk(0), mk(3)]);
        let reached = out.downcast::<Vec<VertexId>>().expect("typed output");
        assert_eq!(*reached, vec![VertexId(0), VertexId(3)]);
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
        let mut local = task.new_local(true);
        task.deliver(local.as_mut(), arriving);
        local.freeze();
        let (_, _, remote) = task.execute(
            local.as_mut(),
            &g,
            &task.aggregate_identity(),
            0,
            &|v| v.0 as usize,
            &mut CombineScratch::default(),
        );
        let [(1, leaving)] = &remote[..] else {
            panic!("one batch, for worker 1");
        };
        assert_eq!(address(leaving), sent);
        assert_eq!((leaving.len(), leaving.pre_combine()), (1, 1));
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
