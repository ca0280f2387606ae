//! Worker-side query execution (paper §3.1, "low-level vertex-centric,
//! local knowledge").
//!
//! A [`Worker`] owns, for every query it participates in, a sparse
//! [`QueryLocal`]: the query-specific vertex data of the vertices the query
//! activated here (its local scope `LS(q,w)`), plus double-buffered message
//! inboxes. Sparse storage is essential for the multi-query model — dense
//! per-query arrays would cost `O(|V| · |Q|)` memory while localized
//! queries touch a tiny graph fraction.
//!
//! ## The message plane
//!
//! The pending inbox is a *flat append-only* `Vec<(VertexId, Message)>`:
//! delivery is a bump-pointer push, with no per-vertex `HashMap` entry or
//! per-message heap `Vec` growth on the hot path. The inbox is sorted and
//! **coalesced exactly once**, at the superstep freeze, into a run-length
//! layout (`cur` runs over a contiguous `cur_msgs` buffer) that `execute`
//! walks in deterministic vertex order. Programs with a combiner
//! ([`crate::VertexProgram::combine`]) collapse each vertex's run to a
//! single message during that coalesce (receiver side) and again when a
//! superstep's remote messages are bucketed per destination worker
//! (sender side), so N relaxations addressed to one vertex cost 1 on the
//! wire and 1 at apply time. [`SuperstepStats`] reports both the
//! pre-combine and the post-combine remote counts so the runtimes can
//! charge combined traffic while still accounting for what combining
//! saved.
//!
//! A steady-state superstep allocates nothing for its messages. The
//! [`QueryLocal`] keeps every buffer it works in across supersteps — the
//! frozen runs, the inbox, the vector `compute` sends into, and a dense
//! per-destination bucket table in place of a per-superstep hash map —
//! and the batch buffers themselves **circulate**: `deliver` drains a
//! batch that arrived and parks its emptied, still boxed, buffer on a
//! short spare list ([`SPARE_BATCHES`]); `execute` opens a bucket by
//! popping one; the box then travels as the [`MessageBatch`] payload to
//! the next partition's spare list. On a hash layout a partition receives
//! about as many batches as it sends, so the envelopes travel in circles;
//! the list dies with the local when the query is collected. The table is
//! walked in index order, so the batches leave in ascending destination
//! order without a sort.
//!
//! Since the heterogeneous-query redesign the worker is **not generic**:
//! each query's local state is held behind the object-safe [`LocalState`]
//! facade, and every operation whose signature mentions program-specific
//! types (message delivery, superstep execution, vertex migration) is
//! routed through that query's [`QueryTask`](crate::task::QueryTask),
//! which downcasts back to the typed [`QueryLocal`] internally. One worker
//! therefore executes SSSP, POI, and reachability queries side by side.
//!
//! Workers are runtime-agnostic: both the discrete-event engine and the
//! thread runtime drive the same code, passing a routing closure that
//! resolves the current vertex→worker assignment.

use std::any::Any;
use std::ops::Range;
use std::sync::Arc;

use rustc_hash::{FxHashMap, FxHashSet};

use qgraph_graph::{Topology, VertexId};

use crate::program::{Context, VertexProgram};
use crate::task::{Envelope, MessageBatch, QueryTask};
use crate::QueryId;

/// Counters reported after one local superstep; the sizes in it are what
/// the worker piggybacks to the controller as `stats(q, |LS(q,w)|, I_w, w)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SuperstepStats {
    /// Vertex functions executed.
    pub executed: usize,
    /// Messages consumed (post-combine: what the compute cost model
    /// charges per `message_apply`).
    pub messages_in: usize,
    /// Messages that stayed on this worker.
    pub local_deliveries: usize,
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
    /// `|LS(q,w)|` after the step.
    pub local_scope: usize,
    /// Elastic-pool compute tasks this report covers — one
    /// per-(query, partition) superstep execution is one task, so a
    /// single report carries `1` and aggregation across the involved
    /// partitions yields the superstep's task count.
    pub tasks: usize,
}

/// The object-safe facade over one query's per-worker state: everything a
/// runtime needs that does *not* mention program-specific types. Typed
/// operations reach the concrete [`QueryLocal`] by downcasting through
/// `Any` (the `LocalState: Any` supertrait) inside the query's task.
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
    /// Apply the program's combiner (engines disable this to verify
    /// output equivalence).
    combine: bool,
    /// What `compute` produced this superstep, before routing. Empty
    /// between supersteps; kept for its capacity.
    outgoing: Vec<(VertexId, P::Message)>,
    /// Routing table of the running superstep, indexed by destination
    /// worker: `(pre-combine count, open bucket)`. All closed between
    /// supersteps; kept so routing hashes nothing.
    buckets: Vec<(usize, Option<Batch<P>>)>,
    /// Emptied buffers of delivered batches, at most [`SPARE_BATCHES`]:
    /// the next buckets `execute` opens.
    spare: Vec<Batch<P>>,
}

/// The buffer of one message batch. It stays boxed from the sender's
/// bucket through the [`MessageBatch`] payload to the receiver's spare
/// list, so a batch crossing partitions moves one pointer and allocates
/// nothing once buffers circulate.
pub(crate) type Batch<P> = Box<Vec<(VertexId, <P as VertexProgram>::Message)>>;

/// How many emptied batch buffers a [`QueryLocal`] keeps. A superstep
/// opens at most one bucket per other partition and, on a hash layout,
/// receives about as many batches as it sends; anything past a few
/// supersteps' worth would only be memory held by a query that stopped
/// sending.
const SPARE_BATCHES: usize = 32;

/// Worker-owned sender-side combine index: a stamp-tagged
/// direct-address array `vertex → slot in its destination bucket`.
///
/// One probe is a single indexed read (no hashing, no clearing — bumping
/// the stamp invalidates every tag at once), so combining a remote
/// message costs less than delivering it would have. Memory is `O(|V|)`
/// *per worker* — the same order as the vertex→worker assignment the
/// worker already routes against — and is shared by every query on the
/// worker, preserving the sparse `O(scope)` per-query storage the
/// multi-query model depends on. A destination vertex routes to exactly
/// one worker, so the tag needs no worker component.
#[derive(Default)]
pub struct CombineScratch {
    /// `(stamp, bucket slot)` per vertex id.
    tags: Vec<(u64, u32)>,
    /// Current superstep's stamp; tags from older stamps are stale.
    stamp: u64,
}

impl CombineScratch {
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
}

impl<P: VertexProgram> QueryLocal<P> {
    /// Fresh empty state for `program`; `combine` gates the combiner.
    pub(crate) fn new(program: Arc<P>, combine: bool) -> Self {
        QueryLocal {
            cur: Vec::new(),
            cur_msgs: Vec::new(),
            next: Vec::new(),
            state: FxHashMap::default(),
            program,
            combine,
            outgoing: Vec::new(),
            buckets: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Append one pending message, opportunistically combining into the
    /// inbox tail when the previous delivery addressed the same vertex
    /// (sender-side-combined batches arrive vertex-sorted, so intra-batch
    /// duplicates are adjacent). Cross-batch duplicates coalesce at the
    /// freeze.
    #[inline]
    fn push_pending(&mut self, to: VertexId, msg: P::Message) {
        if self.combine {
            if let Some((last_v, acc)) = self.next.last_mut() {
                if *last_v == to && self.program.combine(acc, &msg) {
                    return;
                }
            }
        }
        self.next.push((to, msg));
    }
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
    /// order within a vertex) and split into per-vertex runs; a combiner
    /// collapses each run as it is built.
    fn freeze(&mut self) -> (usize, usize) {
        debug_assert!(self.cur.is_empty(), "freeze with unexecuted frozen inbox");
        let mut buf = std::mem::take(&mut self.next);
        buf.sort_by_key(|(v, _)| *v); // stable: arrival order within a vertex
        self.cur_msgs.clear();
        self.cur_msgs.reserve(buf.len());
        for (v, m) in buf.drain(..) {
            match self.cur.last_mut() {
                Some((last_v, run)) if *last_v == v => {
                    if self.combine {
                        let acc = &mut self.cur_msgs[run.end - 1];
                        if self.program.combine(acc, &m) {
                            continue;
                        }
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
}

impl<P: VertexProgram> QueryLocal<P> {
    /// Deliver a batch into the next-superstep inbox (a flat append) and
    /// keep its emptied buffer for a bucket of a later superstep.
    pub(crate) fn deliver(&mut self, mut batch: Batch<P>) {
        for (v, m) in batch.drain(..) {
            self.push_pending(v, m);
        }
        if self.spare.len() < SPARE_BATCHES {
            self.spare.push(batch);
        }
    }

    /// Execute the frozen superstep.
    ///
    /// `route` resolves the *current* assignment; messages to `home` go
    /// straight into the next inbox, others are returned bucketed by
    /// destination worker as `(worker, pre-combine count, messages)`, in
    /// ascending worker order — each bucket combined when the program has
    /// a combiner.
    #[allow(clippy::type_complexity)]
    pub(crate) fn execute(
        &mut self,
        graph: &Topology,
        program: &P,
        prev_aggregate: &P::Aggregate,
        home: usize,
        route: &dyn Fn(VertexId) -> usize,
        scratch: &mut CombineScratch,
    ) -> (SuperstepStats, P::Aggregate, Vec<(usize, usize, Batch<P>)>) {
        let mut stats = SuperstepStats {
            tasks: 1,
            ..SuperstepStats::default()
        };
        let mut aggregate = program.aggregate_identity();
        let combine = |a: &mut P::Aggregate, b: &P::Aggregate| program.aggregate_combine(a, b);

        // The frozen buffers and the outgoing vector are taken for the
        // loop and handed back empty: their capacity amortizes across the
        // query's supersteps instead of regrowing from zero at every one.
        let mut cur = std::mem::take(&mut self.cur);
        let mut cur_msgs = std::mem::take(&mut self.cur_msgs);
        let mut outgoing = std::mem::take(&mut self.outgoing);
        for (v, run) in &cur {
            let msgs = &cur_msgs[run.clone()];
            let state = self.state.entry(*v).or_insert_with(|| program.init_state());
            let mut ctx = Context {
                outgoing: &mut outgoing,
                aggregate: &mut aggregate,
                prev_aggregate,
                combine: &combine,
            };
            program.compute(graph, *v, state, msgs, &mut ctx);
            stats.executed += 1;
            stats.messages_in += msgs.len();
        }
        cur.clear();
        cur_msgs.clear();
        self.cur = cur;
        self.cur_msgs = cur_msgs;

        // Route produced messages, applying the combiner *sender-side* as
        // the buckets are built: one direct-address scratch probe per
        // remote message merges it into an earlier message to the same
        // vertex — no hashing, no sort, nothing for the receiver to redo.
        // A bucket is opened on a spare buffer when there is one.
        if self.combine {
            scratch.begin(graph.num_vertices());
        }
        let mut opened = 0;
        for (to, msg) in outgoing.drain(..) {
            let w = route(to);
            if w == home {
                self.push_pending(to, msg);
                stats.local_deliveries += 1;
                continue;
            }
            stats.remote_pre_combine += 1;
            if w >= self.buckets.len() {
                self.buckets.resize_with(w + 1, || (0, None));
            }
            let (pre, bucket) = &mut self.buckets[w];
            *pre += 1;
            let bucket = bucket.get_or_insert_with(|| {
                opened += 1;
                self.spare.pop().unwrap_or_default()
            });
            if self.combine {
                if let Some(slot) = scratch.slot(to) {
                    if program.combine(&mut bucket[slot].1, &msg) {
                        continue;
                    }
                }
                // First sighting — or a declined combine: later messages
                // target the newest occurrence.
                scratch.set_slot(to, bucket.len());
            }
            bucket.push((to, msg));
        }
        self.outgoing = outgoing;
        stats.local_scope = self.state.len();

        // The table is walked in index order, so the batches come out by
        // ascending destination — the deterministic order — unsorted.
        let mut remote = Vec::with_capacity(opened);
        for (w, (pre, bucket)) in self.buckets.iter_mut().enumerate() {
            if let Some(msgs) = bucket.take() {
                stats.remote_deliveries += msgs.len();
                remote.push((w, std::mem::take(pre), msgs));
            }
        }
        (stats, aggregate, remote)
    }

    /// Extract all data of the given vertices, for migration to another
    /// worker during a global barrier. The frozen inbox must be empty (no
    /// superstep in flight), which the engine guarantees by quiescing
    /// workers first.
    #[allow(clippy::type_complexity)]
    pub(crate) fn extract(
        &mut self,
        vertices: &FxHashSet<VertexId>,
    ) -> Vec<(VertexId, Option<P::State>, Vec<P::Message>)> {
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
        let mut entries = Vec::new();
        for v in touched {
            let st = self.state.remove(&v);
            let msgs = moved_msgs.remove(&v).unwrap_or_default();
            entries.push((v, st, msgs));
        }
        entries.sort_unstable_by_key(|(v, _, _)| *v);
        entries
    }

    /// Inject migrated vertex data (the counterpart of
    /// [`QueryLocal::extract`]).
    #[allow(clippy::type_complexity)]
    pub(crate) fn inject(&mut self, entries: Vec<(VertexId, Option<P::State>, Vec<P::Message>)>) {
        for (v, st, msgs) in entries {
            if let Some(st) = st {
                self.state.insert(v, st);
            }
            for m in msgs {
                self.push_pending(v, m);
            }
        }
    }

    /// Consume the local, yielding the vertex states it accumulated (for
    /// [`VertexProgram::finalize`]).
    pub(crate) fn into_states(self) -> FxHashMap<VertexId, P::State> {
        self.state
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

/// One worker: the container of all queries' local state on this
/// partition. Queries of *different* program types coexist; each entry is
/// a type-erased [`LocalState`] that the query's task downcasts.
pub struct Worker {
    /// This worker's id (index into the cluster).
    pub id: usize,
    queries: FxHashMap<QueryId, Box<dyn LocalState>>,
    /// Combiners enabled for newly created query locals.
    combiners: bool,
    /// The wire batch cap used for [`SuperstepStats::remote_batches`]
    /// accounting (the paper's 32-message batches).
    batch_max_msgs: usize,
    /// Shared sender-side combine index (see [`CombineScratch`]).
    scratch: CombineScratch,
}

impl Worker {
    /// An empty worker with combiners on and the paper's 32-message batch
    /// cap.
    pub fn new(id: usize) -> Self {
        Self::configured(id, true, 32)
    }

    /// An empty worker with explicit combiner gating and batch cap (the
    /// engines thread [`crate::SystemConfig`] through here).
    pub fn configured(id: usize, combiners: bool, batch_max_msgs: usize) -> Self {
        Worker {
            id,
            queries: FxHashMap::default(),
            combiners,
            batch_max_msgs: batch_max_msgs.max(1),
            scratch: CombineScratch::default(),
        }
    }

    fn local_or_new(&mut self, task: &dyn QueryTask, q: QueryId) -> &mut Box<dyn LocalState> {
        let combiners = self.combiners;
        self.queries
            .entry(q)
            .or_insert_with(|| task.new_local(combiners))
    }

    /// Deliver a message batch into query `q`'s next-superstep inbox.
    pub fn deliver(&mut self, task: &dyn QueryTask, q: QueryId, batch: MessageBatch) {
        self.deliver_all(task, q, [batch]);
    }

    /// Deliver `batches`, in order, into query `q`'s next-superstep inbox
    /// under one lookup of the query's local.
    pub fn deliver_all(
        &mut self,
        task: &dyn QueryTask,
        q: QueryId,
        batches: impl IntoIterator<Item = MessageBatch>,
    ) {
        let local = self.local_or_new(task, q);
        for batch in batches {
            task.deliver(local.as_mut(), batch);
        }
    }

    /// Does query `q` have pending messages for a next superstep here?
    pub fn has_pending(&self, q: QueryId) -> bool {
        self.queries.get(&q).is_some_and(|l| l.has_pending())
    }

    /// Freeze query `q`'s pending inbox as the current superstep's input;
    /// returns `(active vertices, messages)` for the cost model.
    pub fn freeze(&mut self, q: QueryId) -> (usize, usize) {
        self.queries.get_mut(&q).map_or((0, 0), |l| l.freeze())
    }

    /// `(active vertices, messages)` of the already-frozen superstep input.
    pub fn frozen_counts(&self, q: QueryId) -> (usize, usize) {
        self.queries.get(&q).map_or((0, 0), |l| l.frozen_counts())
    }

    /// Execute the frozen superstep of query `q` under its `task`. The
    /// returned stats carry both pre- and post-combine remote counts plus
    /// the batch count under this worker's wire cap.
    pub fn execute(
        &mut self,
        q: QueryId,
        task: &dyn QueryTask,
        graph: &Topology,
        prev_aggregate: &Envelope,
        route: &dyn Fn(VertexId) -> usize,
    ) -> (SuperstepStats, Envelope, Vec<(usize, MessageBatch)>) {
        let home = self.id;
        let batch_max = self.batch_max_msgs;
        let combiners = self.combiners;
        // Split borrows: the query map and the combine scratch are
        // disjoint worker fields.
        let local = self
            .queries
            .entry(q)
            .or_insert_with(|| task.new_local(combiners));
        let (mut stats, agg, remote) = task.execute(
            local.as_mut(),
            graph,
            prev_aggregate,
            home,
            route,
            &mut self.scratch,
        );
        stats.remote_batches = remote
            .iter()
            .map(|(_, b)| b.len().div_ceil(batch_max))
            .sum();
        (stats, agg, remote)
    }

    /// `|LS(q,w)|`: vertices query `q` has activated on this worker.
    pub fn scope_size(&self, q: QueryId) -> usize {
        self.queries.get(&q).map_or(0, |l| l.scope_size())
    }

    /// Visit query `q`'s live local-scope vertices without allocating.
    pub fn for_each_scope_vertex(&self, q: QueryId, f: &mut dyn FnMut(VertexId)) {
        if let Some(l) = self.queries.get(&q) {
            l.for_each_scope_vertex(f);
        }
    }

    /// The live local scope vertex set of query `q`, materialized.
    /// Prefer [`Worker::for_each_scope_vertex`] where a caller-owned
    /// buffer can absorb the ids.
    pub fn scope_vertices(&self, q: QueryId) -> Vec<VertexId> {
        let mut out = Vec::new();
        self.for_each_scope_vertex(q, &mut |v| out.push(v));
        out
    }

    /// Queries with state on this worker.
    pub fn active_queries(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.queries.keys().copied()
    }

    /// This worker's part of a scope report: `(query, this worker, live
    /// scope vertices)` per query with state here, in no particular order.
    /// Only stable while no superstep of the query runs.
    pub(crate) fn scope_report(
        &self,
    ) -> impl Iterator<Item = (QueryId, usize, Vec<VertexId>)> + '_ {
        self.active_queries()
            .map(|q| (q, self.id, self.scope_vertices(q)))
    }

    /// This worker's part of a pending report: `(query, this worker)` per
    /// query with messages waiting for a next superstep here.
    pub(crate) fn pending_report(&self) -> impl Iterator<Item = (QueryId, usize)> + '_ {
        let pending = self.queries.iter().filter(|(_, l)| l.has_pending());
        pending.map(|(&q, _)| (q, self.id))
    }

    /// Remove query `q` entirely, returning its local state (for the
    /// task's `finalize`).
    pub fn take_local(&mut self, q: QueryId) -> Option<Box<dyn LocalState>> {
        self.queries.remove(&q)
    }

    /// Extract all per-query data of the given vertices, for migration to
    /// another worker during a global barrier. `task_of` resolves each
    /// query's task (which performs the typed extraction).
    pub fn extract_vertices(
        &mut self,
        task_of: &dyn Fn(QueryId) -> std::sync::Arc<dyn QueryTask>,
        vertices: &FxHashSet<VertexId>,
    ) -> Vec<(QueryId, Envelope)> {
        let mut out = Vec::new();
        for (&q, local) in self.queries.iter_mut() {
            if let Some(envelope) = task_of(q).extract(local.as_mut(), vertices) {
                out.push((q, envelope));
            }
        }
        out.sort_unstable_by_key(|(q, _)| *q);
        out
    }

    /// Inject migrated vertex data (the counterpart of
    /// [`Worker::extract_vertices`]).
    pub fn inject_vertices(
        &mut self,
        task_of: &dyn Fn(QueryId) -> std::sync::Arc<dyn QueryTask>,
        data: Vec<(QueryId, Envelope)>,
    ) {
        for (q, envelope) in data {
            let task = task_of(q);
            let local = self.local_or_new(task.as_ref(), q);
            task.inject(local.as_mut(), envelope);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::ReachProgram;
    use crate::task::TypedTask;
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

    fn batch(task: &TypedTask<ReachProgram>, msgs: Vec<(VertexId, u32)>) -> MessageBatch {
        task.batch_for_test(msgs)
    }

    #[test]
    fn deliver_freeze_execute_cycle() {
        let g = line();
        let task = reach_task();
        let mut w = Worker::new(0);
        let q = QueryId(0);
        w.deliver(&task, q, batch(&task, vec![(VertexId(0), 0)]));
        assert!(w.has_pending(q));
        assert_eq!(w.freeze(q), (1, 1));
        let prev = task.aggregate_identity();
        let (stats, _agg, remote) = w.execute(q, &task, &g, &prev, &|_| 0);
        assert_eq!(stats.executed, 1);
        assert_eq!(stats.local_deliveries, 1); // 0 -> 1 stays local
        assert!(remote.is_empty());
        assert_eq!(stats.remote_batches, 0);
        assert_eq!(w.scope_size(q), 1);
        assert!(w.has_pending(q)); // vertex 1 activated
    }

    #[test]
    fn remote_messages_bucketed_by_destination() {
        let g = line();
        let task = reach_task();
        let mut w = Worker::new(0);
        let q = QueryId(0);
        w.deliver(&task, q, batch(&task, vec![(VertexId(0), 0)]));
        w.freeze(q);
        // Route everything except vertex 0 to worker 1.
        let prev = task.aggregate_identity();
        let (stats, _, remote) = w.execute(q, &task, &g, &prev, &|v| usize::from(v != VertexId(0)));
        assert_eq!(stats.remote_deliveries, 1);
        assert_eq!(stats.remote_pre_combine, 1);
        assert_eq!(stats.remote_batches, 1);
        assert_eq!(remote.len(), 1);
        assert_eq!(remote[0].0, 1);
        assert_eq!(remote[0].1.len(), 1);
        assert!(!w.has_pending(q));
    }

    #[test]
    fn freeze_coalesces_duplicate_deliveries_with_combiner() {
        // Reach's combiner keeps the minimum hop: three messages to one
        // vertex freeze into a single apply.
        let task = reach_task();
        let mut w = Worker::new(0);
        let q = QueryId(0);
        w.deliver(&task, q, batch(&task, vec![(VertexId(1), 3)]));
        w.deliver(&task, q, batch(&task, vec![(VertexId(2), 5)]));
        w.deliver(
            &task,
            q,
            batch(&task, vec![(VertexId(1), 1), (VertexId(1), 2)]),
        );
        assert!(w.has_pending(q));
        let (active, msgs) = w.freeze(q);
        assert_eq!(active, 2);
        assert_eq!(msgs, 2, "per-vertex runs collapse to one message");
    }

    #[test]
    fn combiner_disabled_keeps_every_message() {
        let task = reach_task();
        let mut w = Worker::configured(0, false, 32);
        let q = QueryId(0);
        w.deliver(
            &task,
            q,
            batch(&task, vec![(VertexId(1), 3), (VertexId(1), 1)]),
        );
        let (active, msgs) = w.freeze(q);
        assert_eq!((active, msgs), (1, 2));
    }

    #[test]
    fn remote_batches_respect_the_wire_cap() {
        // 5 distinct remote destinations with a cap of 2 → ⌈5/2⌉ batches.
        let mut b = GraphBuilder::new(6);
        for t in 1..6 {
            b.add_edge(0, t, 1.0);
        }
        let g = Topology::new(b.build());
        let task = reach_task();
        let mut w = Worker::configured(0, true, 2);
        let q = QueryId(0);
        w.deliver(&task, q, batch(&task, vec![(VertexId(0), 0)]));
        w.freeze(q);
        let prev = task.aggregate_identity();
        let (stats, _, remote) = w.execute(q, &task, &g, &prev, &|v| usize::from(v != VertexId(0)));
        assert_eq!(stats.remote_deliveries, 5);
        assert_eq!(stats.remote_batches, 3);
        assert_eq!(remote.len(), 1);
    }

    #[test]
    fn migration_roundtrip_preserves_state_and_inbox() {
        let g = line();
        let task = std::sync::Arc::new(reach_task());
        let q = QueryId(0);
        let mut a = Worker::new(0);
        a.deliver(task.as_ref(), q, batch(&task, vec![(VertexId(0), 0)]));
        a.freeze(q);
        let prev = task.aggregate_identity();
        a.execute(q, task.as_ref(), &g, &prev, &|_| 0);
        // Now vertex 0 has state, vertex 1 has a pending message.
        let moved: FxHashSet<VertexId> = [VertexId(0), VertexId(1)].into_iter().collect();
        let task_of = {
            let task = std::sync::Arc::clone(&task);
            move |_q: QueryId| task.clone() as std::sync::Arc<dyn QueryTask>
        };
        let data = a.extract_vertices(&task_of, &moved);
        assert_eq!(a.scope_size(q), 0);
        assert!(!a.has_pending(q));

        let mut b = Worker::new(1);
        b.inject_vertices(&task_of, data);
        assert_eq!(b.scope_size(q), 1);
        assert!(b.has_pending(q));
        assert_eq!(b.freeze(q), (1, 1));
    }

    #[test]
    fn extract_leaves_unmoved_pending_messages() {
        let task = reach_task();
        let mut w = Worker::new(0);
        let q = QueryId(0);
        w.deliver(
            &task,
            q,
            batch(&task, vec![(VertexId(1), 1), (VertexId(2), 2)]),
        );
        let moved: FxHashSet<VertexId> = [VertexId(1)].into_iter().collect();
        let task_of = {
            let task = std::sync::Arc::new(reach_task());
            move |_q: QueryId| task.clone() as std::sync::Arc<dyn QueryTask>
        };
        let data = w.extract_vertices(&task_of, &moved);
        assert_eq!(data.len(), 1);
        assert!(w.has_pending(q), "vertex 2's message stays");
        assert_eq!(w.freeze(q), (1, 1));
    }

    #[test]
    fn take_local_removes_query() {
        let g = line();
        let task = reach_task();
        let q = QueryId(0);
        let mut w = Worker::new(0);
        w.deliver(&task, q, batch(&task, vec![(VertexId(0), 0)]));
        w.freeze(q);
        let prev = task.aggregate_identity();
        w.execute(q, &task, &g, &prev, &|_| 0);
        let local = w.take_local(q).expect("present");
        assert_eq!(local.scope_size(), 1);
        assert_eq!(w.scope_size(q), 0);
        assert_eq!(w.active_queries().count(), 0);
    }

    #[test]
    fn multiple_queries_of_mixed_types_are_isolated() {
        let g = line();
        let reach = reach_task();
        let ping = TypedTask::new(crate::programs::PingProgram {
            ring: vec![VertexId(2), VertexId(3)],
            rounds: 2,
        });
        let (q1, q2) = (QueryId(1), QueryId(2));
        let mut w = Worker::new(0);
        w.deliver(&reach, q1, batch(&reach, vec![(VertexId(0), 0)]));
        w.deliver(&ping, q2, ping.batch_for_test(vec![(VertexId(2), 0)]));
        w.freeze(q1);
        let prev = reach.aggregate_identity();
        w.execute(q1, &reach, &g, &prev, &|_| 0);
        assert_eq!(w.scope_size(q1), 1);
        assert_eq!(w.scope_size(q2), 0);
        assert!(w.has_pending(q2));

        w.freeze(q2);
        let prev = ping.aggregate_identity();
        let (stats, _, _) = w.execute(q2, &ping, &g, &prev, &|_| 0);
        assert_eq!(stats.executed, 1);
        assert_eq!(w.scope_size(q2), 1);
    }

    #[test]
    fn empty_freeze_is_harmless() {
        let mut w = Worker::new(0);
        assert_eq!(w.freeze(QueryId(0)), (0, 0));
    }

    #[test]
    fn scope_visitor_matches_materialized_set() {
        let g = line();
        let task = reach_task();
        let q = QueryId(0);
        let mut w = Worker::new(0);
        w.deliver(&task, q, batch(&task, vec![(VertexId(0), 0)]));
        w.freeze(q);
        let prev = task.aggregate_identity();
        w.execute(q, &task, &g, &prev, &|_| 0);
        let mut visited = Vec::new();
        w.for_each_scope_vertex(q, &mut |v| visited.push(v));
        visited.sort_unstable();
        let mut materialized = w.scope_vertices(q);
        materialized.sort_unstable();
        assert_eq!(visited, materialized);
        // Unknown query: visitor is a no-op.
        w.for_each_scope_vertex(QueryId(9), &mut |_| panic!("no scope"));
    }

    #[test]
    #[should_panic(expected = "query task type mismatch")]
    fn wrong_task_type_panics_in_debug() {
        let task = reach_task();
        let ping = TypedTask::new(crate::programs::PingProgram {
            ring: vec![],
            rounds: 0,
        });
        let mut w = Worker::new(0);
        let q = QueryId(0);
        w.deliver(&task, q, batch(&task, vec![(VertexId(0), 0)]));
        // Delivering a ping batch through the reach local must be caught.
        w.deliver_all(&ping, q, [ping.batch_for_test(vec![(VertexId(0), 0)])]);
    }

    fn reach_local() -> (Arc<ReachProgram>, QueryLocal<ReachProgram>) {
        let program = Arc::new(ReachProgram::new(VertexId(0)));
        let local = QueryLocal::new(Arc::clone(&program), true);
        (program, local)
    }

    #[test]
    fn a_delivered_batchs_buffer_is_the_next_bucket() {
        let g = line(); // 0 -> 1, with vertex 1 on worker 1
        let (program, mut local) = reach_local();
        let mut travelling: Batch<ReachProgram> = Box::new(Vec::with_capacity(7));
        travelling.push((VertexId(0), 0));
        let (envelope, buffer) = (&*travelling as *const Vec<_>, travelling.as_ptr());
        local.deliver(travelling);
        local.freeze();
        let route = |v: VertexId| v.0 as usize;
        let mut scratch = CombineScratch::default();
        let (_, (), remote) = local.execute(&g, &program, &(), 0, &route, &mut scratch);
        let [(1, 1, bucket)] = &remote[..] else {
            panic!("one bucket, for worker 1");
        };
        // Same box, same heap buffer: nothing was allocated for the batch.
        assert_eq!(
            (&**bucket as *const Vec<_>, bucket.as_ptr()),
            (envelope, buffer)
        );
        assert_eq!((bucket.len(), bucket.capacity()), (1, 7));
        assert!(local.spare.is_empty(), "the one spare is on its way");
    }

    #[test]
    fn the_spare_list_is_capped() {
        let (_, mut local) = reach_local();
        for i in 0..SPARE_BATCHES as u32 + 5 {
            local.deliver(Box::new(vec![(VertexId(i), 0)]));
            assert!(local.spare.len() <= SPARE_BATCHES);
        }
        assert_eq!(local.spare.len(), SPARE_BATCHES);
        assert_eq!(local.next.len(), SPARE_BATCHES + 5, "no message lost");
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
        let q = QueryId(0);
        let mut w = Worker::new(0);
        let route = |v: VertexId| (5 - v.0 as usize) % 5;
        let prev = task.aggregate_identity();
        for round in 0..2 {
            w.deliver(&task, q, batch(&task, vec![(VertexId(5 * round), 0)]));
            w.freeze(q);
            let (stats, _, remote) = w.execute(q, &task, &g, &prev, &route);
            let to: Vec<usize> = remote.iter().map(|(to, _)| *to).collect();
            assert_eq!(to, vec![1, 2, 3, 4], "round {round}");
            assert!(remote
                .iter()
                .all(|(_, b)| b.len() == 1 && b.pre_combine() == 1));
            assert_eq!((stats.remote_deliveries, stats.remote_batches), (4, 4));
        }
    }

    #[test]
    fn sender_side_counts_with_the_combiner_on_and_off() {
        // Two vertices at home relax the one vertex that is away, 2, in
        // each of two supersteps (0 and 1, then 3 and 4).
        let mut b = GraphBuilder::new(5);
        for s in [0, 1, 3, 4] {
            b.add_edge(s, 2, 1.0);
        }
        let g = Topology::new(b.build());
        let task = reach_task();
        let q = QueryId(0);
        let route = |v: VertexId| usize::from(v == VertexId(2));
        let prev = task.aggregate_identity();
        // (remote_pre_combine, remote_deliveries, remote_batches)
        for (combiners, counts) in [(true, (2, 1, 1)), (false, (2, 2, 1))] {
            let mut w = Worker::configured(0, combiners, 32);
            for first in [0, 3] {
                let seeds = vec![(VertexId(first), 0), (VertexId(first + 1), 3)];
                w.deliver(&task, q, batch(&task, seeds));
                w.freeze(q);
                let (stats, _, remote) = w.execute(q, &task, &g, &prev, &route);
                let got = (
                    stats.remote_pre_combine,
                    stats.remote_deliveries,
                    stats.remote_batches,
                );
                assert_eq!(got, counts, "combiners {combiners}");
                assert_eq!(
                    (remote[0].1.pre_combine(), remote[0].1.len()),
                    (2, counts.1)
                );
            }
        }
    }
}
