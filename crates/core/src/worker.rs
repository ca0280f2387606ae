//! Worker-side query execution (paper §3.1, "low-level vertex-centric,
//! local knowledge").
//!
//! A query's state on one partition is a sparse [`QueryLocal`]: the
//! query-specific vertex data of the vertices the query activated there
//! (its local scope `LS(q,w)`), plus double-buffered message inboxes.
//! Sparse storage is essential for the multi-query model — dense
//! per-query arrays would cost `O(|V| · |Q|)` memory while localized
//! queries touch a tiny graph fraction. The locals live in their query's
//! record, one slot per partition (`coord::Stepping::locals`), and leave
//! with it when the query finishes; a partition holds only the
//! [`Scratch`] every query's Steps there share.
//!
//! ## The message plane
//!
//! The pending inbox is a *flat append-only* `Vec<(VertexId, Message)>`:
//! delivery is a bump-pointer push, with no per-vertex `HashMap` entry or
//! per-message heap `Vec` growth on the hot path. The inbox is sorted and
//! **coalesced exactly once**, at the superstep freeze, into a run-length
//! layout (`cur` runs over a contiguous `cur_msgs` buffer) that `execute`
//! walks in deterministic vertex order. A program's combiner
//! ([`crate::VertexProgram::combine`]) collapses each vertex's run to a
//! single message during that coalesce (receiver side) and again when a
//! superstep's remote messages are bucketed per destination worker
//! (sender side), so N relaxations addressed to one vertex cost 1 on the
//! wire and 1 at apply time; a program without one declines every offer.
//! [`SuperstepStats`] reports both the pre-combine and the post-combine
//! remote counts so the runtimes can charge combined traffic while still
//! accounting for what combining saved.
//!
//! A steady-state superstep allocates nothing for its messages. The
//! [`QueryLocal`] keeps every buffer it works in across supersteps — the
//! frozen runs, the inbox, the vector `compute` sends into, and a dense
//! per-destination bucket table in place of a per-superstep hash map —
//! and the batch buffers themselves **circulate** through one pool per
//! partition, in its [`Scratch`]: `deliver` drains a batch that
//! arrived and parks its emptied, still boxed, buffer there, on the list
//! of its message type (at most `POOL_BATCHES`); `execute` opens a bucket
//! by popping one; the box then travels as the [`MessageBatch`] payload
//! to the next partition's pool. On a hash layout a partition receives
//! about as many batches as it sends, so the envelopes travel in circles.
//! The pool belongs to the partition, not to a query: a new query's first
//! supersteps send in the buffers of queries that finished, and a
//! finished query's locals hold no batch buffer. The table is walked in
//! index order, so the batches leave in ascending destination order
//! without a sort.
//!
//! A partition is **not generic**: each query's local state is held
//! behind the object-safe [`LocalState`] face, which [`QueryLocal`]
//! implements once with the program it holds — message delivery,
//! superstep execution and a migration's extract and inject included,
//! their program-specific payloads crossing as envelopes that
//! [`crate::task`] opens. One partition therefore executes SSSP, POI, and
//! reachability queries side by side, and a migration moves a query's
//! vertices from one of its locals to another without looking up its
//! task.
//!
//! The locals are runtime-agnostic: both the discrete-event engine and
//! the thread runtime call [`LocalState::deliver`] and
//! [`LocalState::execute`] with their partition's index, its scratch and
//! a routing closure that resolves the current vertex→worker assignment.

use std::any::{Any, TypeId};
use std::ops::Range;
use std::sync::Arc;

use rustc_hash::{FxHashMap, FxHashSet};

use qgraph_graph::{Topology, VertexId};
use qgraph_sim::BATCH_MAX_MSGS;

use crate::program::{Context, VertexProgram};
use crate::task::{aggregate_of, moved_of, pooled_batch, Envelope, MessageBatch};

/// Counters reported after one local superstep: what the query's outcome
/// and the simulation's network model read of it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SuperstepStats {
    /// Vertex functions executed.
    pub executed: usize,
    /// Messages destined for other workers, *after* sender-side combining
    /// — what actually crosses the wire and what the network cost model
    /// prices.
    pub remote_deliveries: usize,
    /// Messages destined for other workers as produced by `compute`,
    /// *before* sender-side combining. `remote_deliveries ≤
    /// remote_pre_combine`; the difference is the traffic the combiner
    /// saved.
    pub remote_pre_combine: usize,
    /// Wire batches the remote messages occupy under the paper's batch
    /// cap (32 messages per batch): `Σ_dest ⌈msgs_dest / cap⌉`. Matches
    /// what the simulation's `NetworkModel::transfer_cost` prices, so
    /// thread-runtime accounting and sim pricing agree.
    pub remote_batches: usize,
}

/// The object-safe face of one query's state on one worker: a runtime
/// drives it without knowing the program. [`QueryLocal`] implements it
/// with the program it holds; program-specific payloads cross as
/// envelopes. The `Any` supertrait lets the query's task take the typed
/// locals back at `finalize`.
pub trait LocalState: Any + Send {
    /// Does a next superstep have pending messages here?
    fn has_pending(&self) -> bool;

    /// Freeze the pending inbox as the current superstep's input; returns
    /// `(active vertices, messages)` for the cost model (messages
    /// post-combine — what will actually be applied).
    fn freeze(&mut self) -> (usize, usize);

    /// `(active vertices, messages)` of the already-frozen superstep input.
    fn frozen_counts(&self) -> (usize, usize);

    /// `|LS(q,w)|`: vertices the query has activated on this worker.
    fn scope_size(&self) -> usize;

    /// Visit every live local-scope vertex. The visitor replaces the old
    /// `scope_vertices() -> Vec` accessor so barrier-phase stat gathering
    /// can stream ids into a caller-owned buffer instead of allocating a
    /// fresh `Vec` per (query, worker) pair.
    fn for_each_scope_vertex(&self, f: &mut dyn FnMut(VertexId));

    /// Deliver a batch into the next-superstep inbox (a flat append) and
    /// park its emptied buffer in the partition's pool (`scratch`), for a
    /// bucket of a later superstep of any query.
    fn deliver(&mut self, batch: MessageBatch, scratch: &mut Scratch);

    /// Execute the frozen superstep; returns the step statistics, the
    /// superstep's aggregate contribution, and the remote messages.
    ///
    /// `route` resolves the *current* assignment; messages to `home`, the
    /// executing partition, go straight into the next inbox, others are
    /// returned as batches bucketed by destination worker, in ascending
    /// worker order — each opened on a buffer from `scratch`'s pool when
    /// it has one, and offered to the program's combiner sender-side
    /// through `scratch`.
    fn execute(
        &mut self,
        graph: &Topology,
        prev_aggregate: &Envelope,
        home: usize,
        route: &dyn Fn(VertexId) -> usize,
        scratch: &mut Scratch,
    ) -> (SuperstepStats, Envelope, Vec<(usize, MessageBatch)>);

    /// Take out all data of the given vertices — vertex state and pending
    /// messages, as vertex-sorted entries — for migration to another
    /// of the query's locals during a global barrier, or `None` if it
    /// holds nothing there. The frozen inbox must be empty (no superstep
    /// in flight), which the engine guarantees by quiescing first.
    fn extract(&mut self, vertices: &FxHashSet<VertexId>) -> Option<Envelope>;

    /// Replay, entry by entry, what [`LocalState::extract`] took out of a
    /// local of the same query.
    fn inject(&mut self, data: Envelope);
}

/// Per-query, per-worker execution state for one program type `P`.
pub struct QueryLocal<P: VertexProgram> {
    /// Frozen superstep input: per-vertex runs (sorted by vertex id for
    /// deterministic execution order) over the contiguous `cur_msgs`
    /// buffer.
    cur: Vec<(VertexId, Range<usize>)>,
    /// The frozen messages, grouped per `cur` run.
    cur_msgs: Vec<P::Message>,
    /// Flat append-only inbox accumulating messages for the next
    /// superstep; sorted + coalesced once at [`LocalState::freeze`].
    next: Vec<(VertexId, P::Message)>,
    /// Query-specific vertex data `D_v` for activated vertices.
    state: FxHashMap<VertexId, P::State>,
    /// The program, kept for the combiner at coalesce time.
    program: Arc<P>,
    /// What `compute` produced this superstep, before routing. Empty
    /// between supersteps; kept for its capacity.
    outgoing: Vec<(VertexId, P::Message)>,
    /// Routing table of the running superstep, indexed by destination
    /// worker: its open bucket. All closed between supersteps; kept so
    /// routing hashes nothing.
    buckets: Vec<Option<Batch<P>>>,
}

/// The buffer of one message batch. It stays boxed from the sender's
/// bucket through the [`MessageBatch`] payload to the receiver's pool,
/// so a batch crossing partitions moves one pointer and allocates
/// nothing once buffers circulate.
pub(crate) type Batch<P> = Box<Vec<(VertexId, <P as VertexProgram>::Message)>>;

/// What a migration moves of one query: per vertex, in vertex order, its
/// state (if it has any) and its pending messages in arrival order.
pub(crate) type Moved<P> = Vec<(
    VertexId,
    Option<<P as VertexProgram>::State>,
    Vec<<P as VertexProgram>::Message>,
)>;

/// How many emptied batch buffers a worker's pool keeps per message type.
/// A superstep opens at most one bucket per other partition and, on a
/// hash layout, a partition receives about as many batches as it sends;
/// past a few supersteps' worth of its queries' buckets, a parked buffer
/// is only memory.
const POOL_BATCHES: usize = 64;

/// Partition-owned scratch, shared by every query on the partition: the
/// sender-side combine index and the batch pool.
///
/// The combine index is a stamp-tagged direct-address array `vertex →
/// slot in its destination bucket`. One probe is a single indexed read
/// (no hashing, no clearing — bumping the stamp invalidates every tag at
/// once), so combining a remote message costs less than delivering it
/// would have. Memory is `O(|V|)` *per worker* — the same order as the
/// vertex→worker assignment the partition already routes against —
/// preserving the sparse `O(scope)` per-query storage the multi-query
/// model depends on. A destination vertex routes to exactly one worker,
/// so the tag needs no worker component.
///
/// The pool holds emptied batch buffers, one list per message type (two
/// programs with one message type share theirs), each at most
/// `POOL_BATCHES` long: [`LocalState::deliver`] parks what it drained,
/// and [`LocalState::execute`] opens its buckets from it.
#[derive(Default)]
pub struct Scratch {
    /// `(stamp, bucket slot)` per vertex id.
    tags: Vec<(u64, u32)>,
    /// Current superstep's stamp; tags from older stamps are stale.
    stamp: u64,
    /// The batch pool: per buffer type, the parked empty buffers.
    pool: Vec<(TypeId, Vec<Envelope>)>,
}

impl Scratch {
    /// Start a new superstep over a graph of `num_vertices`: grow the tag
    /// array if needed and invalidate every previous tag.
    #[inline]
    pub fn begin(&mut self, num_vertices: usize) {
        if self.tags.len() < num_vertices {
            self.tags.resize(num_vertices, (0, 0));
        }
        self.stamp += 1;
    }

    /// The live slot for `v` in this stamp generation, if any.
    #[inline]
    fn slot(&self, v: VertexId) -> Option<usize> {
        let (e, s) = self.tags[v.0 as usize];
        (e == self.stamp).then_some(s as usize)
    }

    /// Record `v`'s (newest) bucket slot for this stamp generation.
    #[inline]
    fn set_slot(&mut self, v: VertexId, slot: usize) {
        self.tags[v.0 as usize] = (self.stamp, slot as u32);
    }

    /// The pool's list of parked buffers of type `B` — every entry a
    /// `Box<B>`, empty.
    pub(crate) fn parked<B: Any>(&mut self) -> &mut Vec<Envelope> {
        let ty = TypeId::of::<B>();
        let at = match self.pool.iter().position(|(t, _)| *t == ty) {
            Some(at) => at,
            None => {
                self.pool.push((ty, Vec::new()));
                self.pool.len() - 1
            }
        };
        &mut self.pool[at].1
    }

    /// Park an emptied batch buffer, unless its type's list is full.
    fn park<P: VertexProgram>(&mut self, buffer: Batch<P>) {
        debug_assert!(buffer.is_empty(), "a parked batch buffer holds messages");
        let list = self.parked::<Vec<(VertexId, P::Message)>>();
        if list.len() < POOL_BATCHES {
            list.push(buffer);
        }
    }
}

impl<P: VertexProgram> QueryLocal<P> {
    /// Fresh empty state for `program`.
    pub(crate) fn new(program: Arc<P>) -> Self {
        QueryLocal {
            cur: Vec::new(),
            cur_msgs: Vec::new(),
            next: Vec::new(),
            state: FxHashMap::default(),
            program,
            outgoing: Vec::new(),
            buckets: Vec::new(),
        }
    }

    /// Consume the local, yielding the vertex states it accumulated (for
    /// [`VertexProgram::finalize`]).
    pub(crate) fn into_states(self) -> FxHashMap<VertexId, P::State> {
        self.state
    }

    /// Does a vertex have its state both here and in `other`?
    pub(crate) fn shares_a_vertex_with(&self, other: &Self) -> bool {
        self.state.keys().any(|v| other.state.contains_key(v))
    }
}

/// Append one pending message to `inbox`, offering it to `program`'s
/// combiner with the tail when the previous delivery addressed the same
/// vertex (sender-side-combined batches arrive vertex-sorted, so
/// intra-batch duplicates are adjacent). Cross-batch duplicates coalesce
/// at the freeze.
#[inline]
fn push_pending<P: VertexProgram>(
    inbox: &mut Vec<(VertexId, P::Message)>,
    program: &P,
    to: VertexId,
    msg: P::Message,
) {
    if let Some((last_v, acc)) = inbox.last_mut() {
        if *last_v == to && program.combine(acc, &msg) {
            return;
        }
    }
    inbox.push((to, msg));
}

impl<P: VertexProgram> LocalState for QueryLocal<P> {
    fn has_pending(&self) -> bool {
        !self.next.is_empty()
    }

    /// Called at *barrier release* (not task start): all involved workers
    /// freeze at the same instant, so messages produced by another
    /// worker's in-flight superstep can never leak into this one — the
    /// BSP isolation that makes iteration counts partition-independent.
    ///
    /// This is the single sort + coalesce of the inbox lifecycle: the
    /// flat pending vec is stably sorted by vertex (preserving arrival
    /// order within a vertex) and split into per-vertex runs; the
    /// program's combiner collapses each run as it is built.
    fn freeze(&mut self) -> (usize, usize) {
        debug_assert!(self.cur.is_empty(), "freeze with unexecuted frozen inbox");
        let mut buf = std::mem::take(&mut self.next);
        buf.sort_by_key(|(v, _)| *v); // stable: arrival order within a vertex
        self.cur_msgs.clear();
        self.cur_msgs.reserve(buf.len());
        for (v, m) in buf.drain(..) {
            match self.cur.last_mut() {
                Some((last_v, run)) if *last_v == v => {
                    if self.program.combine(&mut self.cur_msgs[run.end - 1], &m) {
                        continue;
                    }
                    self.cur_msgs.push(m);
                    run.end += 1;
                }
                _ => {
                    let start = self.cur_msgs.len();
                    self.cur_msgs.push(m);
                    self.cur.push((v, start..start + 1));
                }
            }
        }
        // Hand the drained (now empty) buffer back as the next inbox, so
        // its capacity amortizes across the query's supersteps.
        self.next = buf;
        (self.cur.len(), self.cur_msgs.len())
    }

    fn frozen_counts(&self) -> (usize, usize) {
        (self.cur.len(), self.cur_msgs.len())
    }

    fn scope_size(&self) -> usize {
        self.state.len()
    }

    fn for_each_scope_vertex(&self, f: &mut dyn FnMut(VertexId)) {
        for v in self.state.keys() {
            f(*v);
        }
    }

    fn deliver(&mut self, batch: MessageBatch, scratch: &mut Scratch) {
        let mut batch = batch.into_messages::<P>();
        for (v, m) in batch.drain(..) {
            push_pending(&mut self.next, self.program.as_ref(), v, m);
        }
        scratch.park::<P>(batch);
    }

    fn execute(
        &mut self,
        graph: &Topology,
        prev_aggregate: &Envelope,
        home: usize,
        route: &dyn Fn(VertexId) -> usize,
        scratch: &mut Scratch,
    ) -> (SuperstepStats, Envelope, Vec<(usize, MessageBatch)>) {
        // Split borrows: the program is read while the buffers change,
        // with no `Arc` clone per superstep.
        let QueryLocal {
            cur,
            cur_msgs,
            next,
            state,
            program,
            outgoing,
            buckets,
        } = self;
        let program = program.as_ref();
        let prev_aggregate = aggregate_of::<P>(prev_aggregate);
        let mut stats = SuperstepStats::default();
        let mut aggregate = program.aggregate_identity();
        let fold = |a: &mut P::Aggregate, b: &P::Aggregate| program.aggregate_combine(a, b);

        // The frozen buffers and the outgoing vector are emptied in place:
        // their capacity amortizes across the query's supersteps instead
        // of regrowing from zero at every one.
        for (v, run) in cur.iter() {
            let msgs = &cur_msgs[run.clone()];
            let state = state.entry(*v).or_insert_with(|| program.init_state());
            let mut ctx = Context {
                outgoing: &mut *outgoing,
                aggregate: &mut aggregate,
                prev_aggregate,
                combine: &fold,
            };
            program.compute(graph, *v, state, msgs, &mut ctx);
            stats.executed += 1;
        }
        cur.clear();
        cur_msgs.clear();

        // Route produced messages, applying the combiner *sender-side* as
        // the buckets are built: one direct-address scratch probe per
        // remote message merges it into an earlier message to the same
        // vertex — no hashing, no sort, nothing for the receiver to redo.
        // A bucket is opened on a pooled buffer when there is one.
        scratch.begin(graph.num_vertices());
        let mut opened = 0;
        for (to, msg) in outgoing.drain(..) {
            let w = route(to);
            if w == home {
                push_pending(next, program, to, msg);
                continue;
            }
            stats.remote_pre_combine += 1;
            if w >= buckets.len() {
                buckets.resize_with(w + 1, || None);
            }
            let bucket = buckets[w].get_or_insert_with(|| {
                opened += 1;
                pooled_batch::<P>(scratch).unwrap_or_default()
            });
            if let Some(slot) = scratch.slot(to) {
                if program.combine(&mut bucket[slot].1, &msg) {
                    continue;
                }
            }
            // First sighting — or a declined combine: later messages
            // target the newest occurrence.
            scratch.set_slot(to, bucket.len());
            bucket.push((to, msg));
        }

        // The table is walked in index order, so the batches come out by
        // ascending destination — the deterministic order — unsorted.
        let mut remote = Vec::with_capacity(opened);
        for (w, bucket) in buckets.iter_mut().enumerate() {
            if let Some(msgs) = bucket.take() {
                stats.remote_deliveries += msgs.len();
                stats.remote_batches += msgs.len().div_ceil(BATCH_MAX_MSGS);
                remote.push((w, MessageBatch::new::<P>(msgs)));
            }
        }
        (stats, Box::new(aggregate), remote)
    }

    fn extract(&mut self, vertices: &FxHashSet<VertexId>) -> Option<Envelope> {
        debug_assert!(self.cur.is_empty(), "migration during a running superstep");
        // Split the flat inbox: moved vertices' messages leave (grouped
        // per vertex, arrival order preserved), the rest stays pending.
        let mut moved_msgs: FxHashMap<VertexId, Vec<P::Message>> = FxHashMap::default();
        let mut kept = Vec::with_capacity(self.next.len());
        for (v, m) in std::mem::take(&mut self.next) {
            if vertices.contains(&v) {
                moved_msgs.entry(v).or_default().push(m);
            } else {
                kept.push((v, m));
            }
        }
        self.next = kept;
        let touched: Vec<VertexId> = self
            .state
            .keys()
            .filter(|v| vertices.contains(v))
            .copied()
            .chain(moved_msgs.keys().copied())
            .collect::<FxHashSet<_>>()
            .into_iter()
            .collect();
        let mut entries: Moved<P> = Vec::new();
        for v in touched {
            let st = self.state.remove(&v);
            let msgs = moved_msgs.remove(&v).unwrap_or_default();
            entries.push((v, st, msgs));
        }
        if entries.is_empty() {
            return None;
        }
        entries.sort_unstable_by_key(|(v, _, _)| *v);
        Some(Box::new(entries))
    }

    fn inject(&mut self, data: Envelope) {
        for (v, st, msgs) in moved_of::<P>(data) {
            if let Some(st) = st {
                self.state.insert(v, st);
            }
            for m in msgs {
                push_pending(&mut self.next, self.program.as_ref(), v, m);
            }
        }
    }
}

/// Sort a message bucket by destination vertex and collapse each vertex's
/// run through the program's combiner, in place (swap-compaction, no
/// allocation beyond the sort's own scratch — and `sort_unstable` has
/// none). Unstable sort is safe under the combiner contract: the
/// within-vertex fold is order-insensitive, and unstable sort is still
/// deterministic for a fixed input permutation.
pub(crate) fn combine_in_place<P: VertexProgram>(
    program: &P,
    msgs: &mut Vec<(VertexId, P::Message)>,
) {
    if msgs.len() <= 1 {
        return;
    }
    msgs.sort_unstable_by_key(|(v, _)| *v);
    let mut w = 0usize; // last kept entry
    for r in 1..msgs.len() {
        let (kept, rest) = msgs.split_at_mut(r);
        let (v, m) = &rest[0];
        let (last_v, acc) = &mut kept[w];
        if *last_v == *v && program.combine(acc, m) {
            continue;
        }
        w += 1;
        msgs.swap(w, r);
    }
    msgs.truncate(w + 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{PingProgram, ReachProgram, Tally, Uncombined};
    use crate::task::{QueryTask, TypedTask};
    use qgraph_graph::GraphBuilder;

    fn line() -> Topology {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(2, 3, 1.0);
        Topology::new(b.build())
    }

    fn reach_task() -> TypedTask<ReachProgram> {
        TypedTask::new(ReachProgram::new(VertexId(0)))
    }

    /// Reach from vertex 0 without its combiner.
    fn uncombined_reach_task() -> TypedTask<Uncombined<ReachProgram>> {
        TypedTask::new(Uncombined(ReachProgram::new(VertexId(0))))
    }

    fn batch<P: VertexProgram>(
        task: &TypedTask<P>,
        msgs: Vec<(VertexId, P::Message)>,
    ) -> MessageBatch {
        task.batch_for_test(msgs)
    }

    fn vids(ids: &[u32]) -> FxHashSet<VertexId> {
        ids.iter().map(|&v| VertexId(v)).collect()
    }

    /// `LS(q,w)` as the local's visitor walks it, sorted.
    fn scope(local: &dyn LocalState) -> Vec<VertexId> {
        let mut scope = Vec::new();
        local.for_each_scope_vertex(&mut |v| scope.push(v));
        scope.sort_unstable();
        scope
    }

    /// A local of program `P`, typed.
    fn typed<P: VertexProgram>(local: &dyn LocalState) -> &QueryLocal<P> {
        let local: &dyn Any = local;
        local.downcast_ref().expect("a local of this program")
    }

    /// A local's frozen input: each vertex's messages.
    fn frozen_runs<P: VertexProgram>(local: &dyn LocalState) -> Vec<(VertexId, Vec<P::Message>)> {
        let local = typed::<P>(local);
        let run = |(v, r): &(VertexId, Range<usize>)| (*v, local.cur_msgs[r.clone()].to_vec());
        local.cur.iter().map(run).collect()
    }

    /// Partition `home` runs `local`'s frozen superstep with everything
    /// routed home: the local's state grows, its own mail stays pending.
    fn run_at_home(home: usize, s: &mut Scratch, local: &mut dyn LocalState, g: &Topology) {
        let prev = reach_task().aggregate_identity();
        local.execute(g, &prev, home, &|_| home, s);
    }

    #[test]
    fn deliver_freeze_execute_cycle() {
        let g = line();
        let task = reach_task();
        let mut s = Scratch::default();
        let mut l = task.new_local();
        l.deliver(batch(&task, vec![(VertexId(0), 0)]), &mut s);
        assert!(l.has_pending());
        assert_eq!(l.freeze(), (1, 1));
        let prev = task.aggregate_identity();
        let (stats, _agg, remote) = l.execute(&g, &prev, 0, &|_| 0, &mut s);
        assert_eq!(stats.executed, 1);
        assert!(remote.is_empty(), "0 -> 1 stays local");
        assert_eq!(stats.remote_batches, 0);
        assert_eq!(l.scope_size(), 1);
        assert!(l.has_pending()); // vertex 1 activated
    }

    #[test]
    fn remote_messages_bucketed_by_destination() {
        let g = line();
        let task = reach_task();
        let mut s = Scratch::default();
        let mut l = task.new_local();
        l.deliver(batch(&task, vec![(VertexId(0), 0)]), &mut s);
        l.freeze();
        // Route everything except vertex 0 to worker 1.
        let prev = task.aggregate_identity();
        let away = |v: VertexId| usize::from(v != VertexId(0));
        let (stats, _, remote) = l.execute(&g, &prev, 0, &away, &mut s);
        assert_eq!(stats.remote_deliveries, 1);
        assert_eq!(stats.remote_pre_combine, 1);
        assert_eq!(stats.remote_batches, 1);
        assert_eq!(remote.len(), 1);
        assert_eq!(remote[0].0, 1);
        assert_eq!(remote[0].1.len(), 1);
        assert!(!l.has_pending());
    }

    #[test]
    fn freeze_coalesces_duplicate_deliveries_with_combiner() {
        // Reach's combiner keeps the minimum hop: three messages to one
        // vertex freeze into a single apply.
        let task = reach_task();
        let mut s = Scratch::default();
        let mut l = task.new_local();
        l.deliver(batch(&task, vec![(VertexId(1), 3)]), &mut s);
        l.deliver(batch(&task, vec![(VertexId(2), 5)]), &mut s);
        let twice = vec![(VertexId(1), 1), (VertexId(1), 2)];
        l.deliver(batch(&task, twice), &mut s);
        assert!(l.has_pending());
        let (active, msgs) = l.freeze();
        assert_eq!(active, 2);
        assert_eq!(msgs, 2, "per-vertex runs collapse to one message");
    }

    #[test]
    fn combiner_disabled_keeps_every_message() {
        let task = uncombined_reach_task();
        let mut l = task.new_local();
        let twice = vec![(VertexId(1), 3), (VertexId(1), 1)];
        l.deliver(batch(&task, twice), &mut Scratch::default());
        assert_eq!(l.freeze(), (1, 2));
    }

    #[test]
    fn remote_batches_respect_the_wire_cap() {
        // One message more than a batch holds, all to partition 1 → 2
        // batches.
        let n = BATCH_MAX_MSGS + 1;
        let mut b = GraphBuilder::new(n + 1);
        for t in 1..=n {
            b.add_edge(0, t as u32, 1.0);
        }
        let g = Topology::new(b.build());
        let task = reach_task();
        let mut s = Scratch::default();
        let mut l = task.new_local();
        l.deliver(batch(&task, vec![(VertexId(0), 0)]), &mut s);
        l.freeze();
        let prev = task.aggregate_identity();
        let away = |v: VertexId| usize::from(v != VertexId(0));
        let (stats, _, remote) = l.execute(&g, &prev, 0, &away, &mut s);
        assert_eq!(stats.remote_deliveries, n);
        assert_eq!(stats.remote_batches, 2);
        assert_eq!(remote.len(), 1);
    }

    #[test]
    fn migration_roundtrip_preserves_state_and_inbox() {
        let g = line();
        let task = reach_task();
        let mut s = Scratch::default();
        let mut a = task.new_local();
        a.deliver(batch(&task, vec![(VertexId(0), 0)]), &mut s);
        a.freeze();
        run_at_home(0, &mut s, a.as_mut(), &g);
        // Now vertex 0 has state, vertex 1 has a pending message.
        let mut b = task.new_local();
        b.inject(a.extract(&vids(&[0, 1])).expect("data on both"));
        assert_eq!((a.scope_size(), a.has_pending()), (0, false));
        assert_eq!(b.scope_size(), 1);
        assert!(b.has_pending());
        assert_eq!(b.freeze(), (1, 1));
        assert!(a.extract(&vids(&[0, 1])).is_none(), "nothing left to move");
    }

    /// 0 -> 1 and 3 -> 4. On partition 0 the query holds vertex 0, with
    /// mail for 1 (its own, then a batch's) and 2; on partition 1 it holds
    /// vertex 3, with mail for 4 and 1. Vertices 0, 1 and 2 move to 1:
    /// vertex 1's inbox there is `at_1`.
    fn move_into_a_partition_holding_the_query<P: VertexProgram<Message = u32>>(
        task: &TypedTask<P>,
        at_1: Vec<u32>,
    ) {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0);
        b.add_edge(3, 4, 1.0);
        let g = Topology::new(b.build());
        let mut scratch = [Scratch::default(), Scratch::default()];
        let mut locals = [task.new_local(), task.new_local()];
        let seeded = [
            (0, vec![(VertexId(1), 5), (VertexId(2), 7)]),
            (3, vec![(VertexId(1), 2)]),
        ];
        let parts = scratch.iter_mut().zip(&mut locals).zip(seeded);
        for (home, ((s, local), (seed, mail))) in parts.enumerate() {
            local.deliver(batch(task, vec![(VertexId(seed), 0)]), s);
            local.freeze();
            run_at_home(home, s, local.as_mut(), &g);
            local.deliver(batch(task, mail), s);
        }
        let [src, dst] = &mut locals;
        dst.inject(src.extract(&vids(&[0, 1, 2])).expect("data to move"));
        assert_eq!((src.scope_size(), src.has_pending()), (0, false));
        let name = std::any::type_name::<P>();
        assert_eq!(scope(dst.as_ref()), [VertexId(0), VertexId(3)], "{name}");
        dst.freeze();
        let inbox = vec![
            (VertexId(1), at_1),
            (VertexId(2), vec![7]),
            (VertexId(4), vec![1]),
        ];
        assert_eq!(frozen_runs::<P>(dst.as_ref()), inbox, "{name}");
    }

    #[test]
    fn a_move_into_a_worker_holding_the_query_merges_states_and_inboxes() {
        // Vertex 1's inbox: partition 1's message first, then partition
        // 0's two.
        move_into_a_partition_holding_the_query(&reach_task(), vec![1]);
        move_into_a_partition_holding_the_query(&uncombined_reach_task(), vec![2, 1, 5]);
    }

    #[test]
    fn extract_leaves_unmoved_pending_messages() {
        let task = reach_task();
        let mut l = task.new_local();
        let two = vec![(VertexId(1), 1), (VertexId(2), 2)];
        l.deliver(batch(&task, two), &mut Scratch::default());
        assert!(l.extract(&vids(&[1])).is_some());
        assert!(l.has_pending(), "vertex 2's message stays");
        assert_eq!(l.freeze(), (1, 1));
    }

    #[test]
    fn multiple_queries_of_mixed_types_are_isolated() {
        let g = line();
        let reach = reach_task();
        let ping = TypedTask::new(PingProgram {
            ring: vec![VertexId(2), VertexId(3)],
            rounds: 2,
        });
        // Two queries' locals on one partition, sharing its scratch.
        let mut s = Scratch::default();
        let (mut l1, mut l2) = (reach.new_local(), ping.new_local());
        l1.deliver(batch(&reach, vec![(VertexId(0), 0)]), &mut s);
        l2.deliver(batch(&ping, vec![(VertexId(2), 0)]), &mut s);
        l1.freeze();
        let prev = reach.aggregate_identity();
        l1.execute(&g, &prev, 0, &|_| 0, &mut s);
        assert_eq!((l1.scope_size(), l2.scope_size()), (1, 0));
        assert!(l2.has_pending());

        l2.freeze();
        let prev = ping.aggregate_identity();
        let (stats, _, _) = l2.execute(&g, &prev, 0, &|_| 0, &mut s);
        assert_eq!(stats.executed, 1);
        assert_eq!(l2.scope_size(), 1);
    }

    #[test]
    fn empty_freeze_is_harmless() {
        assert_eq!(reach_task().new_local().freeze(), (0, 0));
    }

    #[test]
    fn scope_visitor_matches_materialized_set() {
        let g = line();
        let task = reach_task();
        let mut s = Scratch::default();
        let mut l = task.new_local();
        l.deliver(batch(&task, vec![(VertexId(0), 0)]), &mut s);
        l.freeze();
        run_at_home(0, &mut s, l.as_mut(), &g);
        l.freeze();
        run_at_home(0, &mut s, l.as_mut(), &g);
        let typed = typed::<ReachProgram>(l.as_ref());
        let mut states: Vec<VertexId> = typed.state.keys().copied().collect();
        states.sort_unstable();
        assert_eq!(scope(l.as_ref()), states);
        assert_eq!((l.scope_size(), states.len()), (2, 2));
    }

    #[test]
    #[should_panic(expected = "query task type mismatch")]
    fn wrong_task_type_panics_in_debug() {
        let task = reach_task();
        let ping = TypedTask::new(PingProgram {
            ring: vec![],
            rounds: 0,
        });
        let mut s = Scratch::default();
        let mut l = task.new_local();
        l.deliver(batch(&task, vec![(VertexId(0), 0)]), &mut s);
        // Delivering a ping batch through the reach local must be caught.
        l.deliver(batch(&ping, vec![(VertexId(0), 0)]), &mut s);
    }

    fn reach_local() -> QueryLocal<ReachProgram> {
        QueryLocal::new(Arc::new(ReachProgram::new(VertexId(0))))
    }

    /// The heap addresses of a batch buffer: its box and its vector's.
    fn addresses<M>(
        buffer: &Vec<(VertexId, M)>,
    ) -> (*const Vec<(VertexId, M)>, *const (VertexId, M)) {
        (buffer as *const Vec<_>, buffer.as_ptr())
    }

    /// How many empty buffers of message type `M` the partition's pool
    /// holds (it asserts each is empty, as it pops them all and puts them
    /// back).
    fn pooled<P: VertexProgram>(s: &mut Scratch) -> usize {
        let mut popped = Vec::new();
        while let Some(buffer) = pooled_batch::<P>(s) {
            assert!(buffer.is_empty(), "a pooled buffer holds messages");
            popped.push(buffer);
        }
        let n = popped.len();
        for buffer in popped.into_iter().rev() {
            s.park::<P>(buffer);
        }
        n
    }

    #[test]
    fn a_delivered_batchs_buffer_is_the_next_bucket() {
        let g = line(); // 0 -> 1, with vertex 1 on worker 1
        let mut local = reach_local();
        let mut travelling: Batch<ReachProgram> = Box::new(Vec::with_capacity(7));
        travelling.push((VertexId(0), 0));
        let sent = addresses(&travelling);
        let mut scratch = Scratch::default();
        local.deliver(MessageBatch::new::<ReachProgram>(travelling), &mut scratch);
        local.freeze();
        let route = |v: VertexId| v.0 as usize;
        let (stats, _, mut remote) =
            local.execute(&g, &(Box::new(()) as Envelope), 0, &route, &mut scratch);
        let Some((1, batch)) = remote.pop().filter(|_| remote.is_empty()) else {
            panic!("one bucket, for worker 1");
        };
        assert_eq!((batch.len(), stats.remote_pre_combine), (1, 1));
        let bucket = batch.into_messages::<ReachProgram>();
        // Same box, same heap buffer: nothing was allocated for the batch.
        assert_eq!(addresses(&bucket), sent);
        assert_eq!((bucket.len(), bucket.capacity()), (1, 7));
        assert!(
            pooled_batch::<ReachProgram>(&mut scratch).is_none(),
            "the one pooled buffer is on its way"
        );
    }

    #[test]
    fn a_collected_querys_buffer_opens_the_next_querys_first_bucket() {
        // Query 1's seed arrives first, then query 0's batch; query 0
        // runs at home and finishes, its local dropped. Query 1's first
        // superstep sends to worker 1 in the buffer query 0 left in the
        // pool.
        let g = line();
        let task = reach_task();
        let mut s = Scratch::default();
        let (mut done, mut next) = (task.new_local(), task.new_local());
        next.deliver(batch(&task, vec![(VertexId(0), 0)]), &mut s);
        let mut left: Batch<ReachProgram> = Box::new(Vec::with_capacity(9));
        left.push((VertexId(2), 0));
        let parked = addresses(&left);
        done.deliver(MessageBatch::new::<ReachProgram>(left), &mut s);
        done.freeze();
        let prev = task.aggregate_identity();
        let (_, _, remote) = done.execute(&g, &prev, 0, &|_| 0, &mut s);
        assert!(remote.is_empty(), "query 0 ran at home");
        drop(done);
        assert_eq!(pooled::<ReachProgram>(&mut s), 2, "both seeds' buffers");

        next.freeze();
        let away = |v: VertexId| usize::from(v != VertexId(0));
        let (_, _, mut remote) = next.execute(&g, &prev, 0, &away, &mut s);
        let Some((1, sent)) = remote.pop().filter(|_| remote.is_empty()) else {
            panic!("one batch, for worker 1");
        };
        let sent = sent.into_messages::<ReachProgram>();
        // Query 0's box and heap buffer: no allocation.
        assert_eq!(addresses(&sent), parked);
        assert_eq!((sent.capacity(), &sent[..]), (9, &[(VertexId(1), 1)][..]));
        assert_eq!(pooled::<ReachProgram>(&mut s), 1, "query 1's seed buffer");
    }

    #[test]
    fn the_pool_is_capped_per_message_type() {
        // Reach and ping send `u32`s and share a list; tally's `()`s
        // have their own.
        let reach = uncombined_reach_task();
        let ping = TypedTask::new(PingProgram {
            ring: vec![VertexId(0)],
            rounds: 1,
        });
        let tally = TypedTask::new(Tally {
            seed: VertexId(0),
            hop: 0,
            sticky: false,
            stop_at: 1,
        });
        let mut s = Scratch::default();
        let tasks: [&dyn QueryTask; 3] = [&reach, &ping, &tally];
        let mut locals = tasks.map(|t| t.new_local());
        let extra = POOL_BATCHES as u32 + 5;
        for i in 0..extra {
            let v = VertexId(i);
            locals[0].deliver(batch(&reach, vec![(v, 0)]), &mut s);
            locals[1].deliver(batch(&ping, vec![(v, 0)]), &mut s);
            locals[2].deliver(batch(&tally, vec![(v, ())]), &mut s);
        }
        assert_eq!(pooled::<ReachProgram>(&mut s), POOL_BATCHES);
        assert_eq!(pooled::<Tally>(&mut s), POOL_BATCHES);
        assert_eq!(s.pool.len(), 2, "one list per message type");
        for local in &mut locals {
            assert_eq!(local.freeze().1, extra as usize, "no message lost");
        }
    }

    #[test]
    fn a_recycled_buffer_carries_only_its_new_querys_messages() {
        // Ping's seed arrives, then a full reach batch, whose buffer is
        // on top of the pool. Ping, another program with the same message
        // type, sends its one message to vertex 3 on worker 1 in it: the
        // batch holds that message alone, and so does worker 1's frozen
        // input of ping.
        let g = line();
        let reach = uncombined_reach_task();
        let ping = TypedTask::new(PingProgram {
            ring: vec![VertexId(2), VertexId(3)],
            rounds: 3,
        });
        let mut s = Scratch::default();
        let (mut pinging, mut reaching) = (ping.new_local(), reach.new_local());
        pinging.deliver(batch(&ping, vec![(VertexId(2), 0)]), &mut s);
        let full: Vec<(VertexId, u32)> = (0..4).map(|v| (VertexId(v), 7)).collect();
        reaching.deliver(batch(&reach, full), &mut s);
        pinging.freeze();
        let away = |v: VertexId| usize::from(v == VertexId(3));
        let prev = ping.aggregate_identity();
        let (_, _, mut remote) = pinging.execute(&g, &prev, 0, &away, &mut s);
        let Some((1, sent)) = remote.pop().filter(|_| remote.is_empty()) else {
            panic!("one batch, for worker 1");
        };
        let sent = sent.into_messages::<PingProgram>();
        assert_eq!((sent.capacity(), &sent[..]), (4, &[(VertexId(3), 1)][..]));
        let mut far = Scratch::default();
        let mut there = ping.new_local();
        there.deliver(MessageBatch::new::<PingProgram>(sent), &mut far);
        there.freeze();
        let local = typed::<PingProgram>(there.as_ref());
        assert_eq!(local.cur, [(VertexId(3), 0..1)]);
        assert_eq!(local.cur_msgs, [1]);
        assert_eq!(
            pooled::<ReachProgram>(&mut s),
            1,
            "ping's seed buffer, empty"
        );
        assert_eq!(pooled::<ReachProgram>(&mut far), 1, "reach's buffer, empty");
    }

    #[test]
    fn remote_comes_out_in_ascending_destination_order() {
        // `compute` walks the edges to 1, 2, 3, 4, which live on workers
        // 4, 3, 2, 1: the buckets are opened in descending order. Vertices
        // 0 and 5 are at home; the second round reuses the table.
        let mut b = GraphBuilder::new(6);
        for t in 1..5 {
            b.add_edge(0, t, 1.0);
            b.add_edge(5, t, 1.0);
        }
        let g = Topology::new(b.build());
        let task = reach_task();
        let mut s = Scratch::default();
        let mut l = task.new_local();
        let route = |v: VertexId| (5 - v.0 as usize) % 5;
        let prev = task.aggregate_identity();
        for round in 0..2 {
            l.deliver(batch(&task, vec![(VertexId(5 * round), 0)]), &mut s);
            l.freeze();
            let (stats, _, remote) = l.execute(&g, &prev, 0, &route, &mut s);
            let to: Vec<usize> = remote.iter().map(|(to, _)| *to).collect();
            assert_eq!(to, vec![1, 2, 3, 4], "round {round}");
            assert!(remote.iter().all(|(_, b)| b.len() == 1));
            let counts = (stats.remote_pre_combine, stats.remote_deliveries);
            assert_eq!((counts, stats.remote_batches), ((4, 4), 4));
        }
    }

    /// Two vertices at home relax the one vertex that is away, 2, in each
    /// of two supersteps (0 and 1, then 3 and 4): each superstep's
    /// `(remote_pre_combine, remote_deliveries, remote_batches)` is
    /// `counts`.
    fn sender_side_counts<P: VertexProgram<Message = u32>>(
        task: &TypedTask<P>,
        counts: (usize, usize, usize),
    ) {
        let mut b = GraphBuilder::new(5);
        for s in [0, 1, 3, 4] {
            b.add_edge(s, 2, 1.0);
        }
        let g = Topology::new(b.build());
        let route = |v: VertexId| usize::from(v == VertexId(2));
        let prev = task.aggregate_identity();
        let mut s = Scratch::default();
        let mut l = task.new_local();
        for first in [0, 3] {
            let seeds = vec![(VertexId(first), 0), (VertexId(first + 1), 3)];
            l.deliver(batch(task, seeds), &mut s);
            l.freeze();
            let (stats, _, remote) = l.execute(&g, &prev, 0, &route, &mut s);
            let got = (
                stats.remote_pre_combine,
                stats.remote_deliveries,
                stats.remote_batches,
            );
            let name = std::any::type_name::<P>();
            assert_eq!(got, counts, "{name}");
            assert_eq!(remote[0].1.len(), counts.1, "{name}");
        }
    }

    #[test]
    fn sender_side_counts_with_the_combiner_on_and_off() {
        sender_side_counts(&reach_task(), (2, 1, 1));
        sender_side_counts(&uncombined_reach_task(), (2, 2, 1));
    }
}
