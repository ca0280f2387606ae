//! The coordinator core: the paper's one controller protocol, written
//! once as a sans-IO state machine that both runtimes execute.
//!
//! [`Coordinator`] owns everything protocol-shaped — the policy-ordered
//! admission queue and the closed-loop slots, every live query's
//! [`Query`], release (*which* partitions compute a superstep, in *which*
//! order, under what DoP budget), step-completion accounting (aggregate
//! roll-over, locality via [`barrier::is_local`], the next involved set,
//! terminate → finalize → outcome), parking while a stop-the-world window
//! is wanted, the window body itself (mutation epochs → compaction → index
//! repair → Q-cut migration, publications, event stamping, unpark +
//! re-admit), and every protocol-level hb / tracer stamp. It performs no
//! IO and spawns nothing: it takes *inputs* (submit, mutate,
//! install-index, a step-done report, a terminated query, clock readings)
//! and emits *dispatches* through the statically-dispatched [`Executor`]
//! it is handed.
//!
//! An executor answers "run this dispatch, tell me when it is done":
//! [`SimEngine`](crate::SimEngine) prices dispatches on a virtual clock,
//! [`ThreadEngine`](crate::ThreadEngine) turns them into pool commands.
//! Neither knows about parked sets, locality counting or outcome fields.
//!
//! ## One record, one fold, one close
//!
//! An admitted query is one [`Query`] ([`Record`]): its id, its task and
//! its [`Stepping`] state behind one lock, with one fold
//! ([`Stepping::fold`], a finished Step's [`StepReport`]) and one close
//! ([`Stepping::close`]); whoever observes a superstep's last Step closes
//! it there. [`Coordinator::step_done`] is fold + close, for the
//! simulation's reports; the thread runtime's lanes fold, close and
//! release the next superstep themselves (see [`crate::runtime`]), so its
//! core hears of a query only when it terminates, parks for a window, or
//! a Q-cut check is due.
//!
//! The record is also the one home of the query's vertex data: one local
//! per partition ([`Stepping::locals`], the paper's `LS(q,w)` with its
//! inbox), a filled slot being a partition the query touched. A Step
//! works on its partition's local — the simulation in place, under the
//! record's lock; a lane takes it out under the lock it takes its input
//! under and puts it back under the lock it folds under — so at every
//! close all of the query's locals are at rest in the record. Ending a
//! query is therefore one call, [`Coordinator::finish`]: it takes the
//! locals out and finalizes over them, with no round over the partitions.
//!
//! ## One mail plane
//!
//! A superstep's input lives in its query's record too. The record holds,
//! per partition ([`Stepping::mail`]), the batches the current superstep
//! reads there and those its Steps send for the next ([`Mail`]):
//! admission puts the initial batches into the next input, a Step's fold
//! puts what it sent there under the lock it folds under, and
//! [`Stepping::begin`] swaps the two. So BSP isolation holds by
//! construction on both runtimes: nothing a Step of superstep `n` sends
//! can reach another Step of `n`, however late that one runs.
//!
//! What an executor owes for a dispatched superstep
//! ([`Executor::superstep`]) is the rest of the BSP contract: every
//! involved partition takes its input from the record into its inbox and
//! executes it with what it sent itself, at most `dop` Steps run at once,
//! and the held-back partitions go in `involved` order, one per completing
//! Step ([`Stepping::next_deferred`]), decided where the completion is
//! observed. Mail reaches a local outside a Step in one place only: a
//! window that migrates first delivers every live record's next input into
//! that record's own locals, so migration moves every pending message with
//! its vertex.
//!
//! ## The Q-cut trigger
//!
//! There is one (paper §3.4): [`Coordinator::trigger`], called with the
//! executor's own clock reading — virtual seconds in the simulation,
//! session wall-clock seconds on threads. The simulation calls it after
//! every superstep close; the thread runtime when a lane closes a
//! superstep at or after [`Coordinator::next_check`] (the wait's end; a
//! check that declines leaves it due, so the next close checks again).
//! Unless a plan is in flight, the [`Controller`] tests the wait since the
//! last plan came due ([`Controller::next_check`]), then the mean
//! lifetime locality of the running queries against Φ — read live from
//! their records — and the activity imbalance of the last μ/8 sub-window
//! ([`Controller::note_activity`]) against its threshold. A hit reads
//! the scopes from the records while partitions compute — the locals at
//! rest; one a running Step holds is skipped, so the read waits on no
//! partition — and runs the ILS there and then, hidden behind query
//! processing as in the paper; a hit that finds fewer than two scopes
//! stays wanted, and the next check plans without testing again (on
//! threads a terminated query's scope is retained as the core finishes
//! it). The plan comes due ([`Coordinator::plan_due`]) one priced
//! `ils_budget_secs` later in the simulation, and as soon as the ILS
//! returns on threads, where the coordinator's turn has paid for it. The
//! wait restarts when the plan comes due, and only a plan that moves
//! something wants a window, which resolves it against the scopes
//! gathered inside — every local at rest there — and migrates: a pass
//! over the records that moves each query's data from one of its locals
//! to another ([`migrate::transfer`]), after which the executor only
//! prices the transfer.
//!
//! ## One pacing rule
//!
//! Both runtimes pace the checks by what adaptation costs on their own
//! clock (paper §3.4), not by a constant. The wait starts at 0; the
//! executor only reports instants ([`Executor::now`]). A plan's cost P
//! runs from the trigger's scope read to its due instant: the priced
//! budget in the simulation, the scope statistics plus the ILS on
//! threads. A plan that moves nothing paces at once; one that moves
//! something paces as its window ends, with P plus the window's own
//! duration. Either way the wait becomes `min(max(f · wait, cost), μ/8)`
//! ([`Controller::pace`]), f = 1 when the window raised locality
//! ([`RepartitionEvent::raised_locality`]) and 2 otherwise, so windows
//! that raise nothing stay logarithmic in the run's length.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use qgraph_graph::{MutationBatch, Topology, VertexId};
use qgraph_partition::Partitioning;
use qgraph_sim::SimTime;

use crate::barrier;
use crate::config::SystemConfig;
use crate::controller::{apply_mutation_epochs, Controller};
use crate::hb::Hb;
use crate::index_plane::PointIndex;
use crate::qcut::{migrate, IlsResult, Migration};
use crate::query::{OutcomeStatus, QueryId, QueryOutcome, ServedBy};
use crate::report::{EngineReport, RepartitionEvent};
use crate::sched::{dop_budget, try_index_path, QueueEntry, Scheduler};
use crate::task::{Envelope, MessageBatch, QueryTask};
use crate::trace::{outcome, Tracer};
use crate::worker::{LocalState, Scratch, SuperstepStats};

/// The dispatch vocabulary. `migrate` is synchronous and issued only
/// inside a window, while the partitions are idle.
pub(crate) trait Executor {
    /// A clock reading. Inside a window it advances as the executor
    /// completes (or prices) the window's work.
    fn now(&self) -> SimTime;
    /// Run the superstep `step` (the record's state, locked for the call)
    /// just began, and close it (see the module docs). Its index is
    /// `step.out.iterations`: 0 is dispatched by admission, every later
    /// one follows a close (a barrier release, or a window's resume).
    fn superstep(&mut self, record: &Record, step: &mut Stepping);
    /// Query `q` finished with `output`.
    fn complete(&mut self, q: QueryId, output: Envelope);
    /// Mutation epochs were applied: every partition must see the new
    /// topology and the (possibly grown) assignment before it steps
    /// again. `ops` / `compacted_edges` size the work for pricing.
    fn publish_topology(
        &mut self,
        topology: &Topology,
        partitioning: &Partitioning,
        version: u64,
        ops: usize,
        compacted_edges: Option<usize>,
    );
    /// A migration committed: publish the new assignment.
    fn publish_partitioning(&mut self, partitioning: &Partitioning, version: u64);
    /// The core moved the resolved transfers' vertex state and pending
    /// inboxes between the records' locals: what the transfer costs.
    fn migrate(&mut self, migration: &Migration);
}

/// One finished `Step`, as its partition reports it.
pub(crate) struct StepReport {
    pub q: QueryId,
    pub worker: usize,
    /// Executions and remote traffic (post/pre sender-side combining,
    /// wire batches under the configured cap).
    pub stats: SuperstepStats,
    pub agg: Envelope,
    /// What the step sent away, by destination partition: the fold puts
    /// it into the record's next input.
    pub remote: Vec<(usize, MessageBatch)>,
    /// The partition still holds pending messages for `q` after the step.
    pub self_pending: bool,
}

/// An admitted query, shared by the core and whoever closes its
/// supersteps (see the module docs).
pub(crate) type Record = Arc<Query>;

/// Lock a record, recovering from poisoning: each update leaves it
/// valid, and a panic elsewhere surfaces on its own.
pub(crate) fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// One admitted query: built once at admission, until it completes.
pub(crate) struct Query {
    pub id: QueryId,
    pub task: Arc<dyn QueryTask>,
    step: Mutex<Stepping>,
}

impl Query {
    /// Admit `task` as query `id` under the DoP budget `dop`
    /// ([`dop_budget`]) over `partitions` partitions: nothing pending, no
    /// local anywhere, `out` as the outcome under construction.
    pub fn new(
        id: QueryId,
        task: Arc<dyn QueryTask>,
        out: QueryOutcome,
        dop: usize,
        partitions: usize,
    ) -> Record {
        let step = Stepping {
            last_done: out.submitted_at,
            msg_arrival: SimTime::ZERO,
            out,
            dop,
            outstanding: 0,
            released: 0,
            involved_cur: Vec::new(),
            next_involved: Vec::with_capacity(partitions),
            crossed: false,
            agg_prev: task.aggregate_identity(),
            agg_acc: task.aggregate_identity(),
            mail: (0..partitions).map(|_| Mail::default()).collect(),
            locals: (0..partitions).map(|_| None).collect(),
        };
        Arc::new(Query {
            id,
            task,
            step: Mutex::new(step),
        })
    }

    pub fn stepping(&self) -> MutexGuard<'_, Stepping> {
        relock(&self.step)
    }

    /// Deliver the next superstep's input into the query's own locals —
    /// one made from its task where it has none — parking the drained
    /// buffers in `scratch`. For a window about to migrate: every local is
    /// at rest, none frozen.
    pub fn deliver_mail(&self, scratch: &mut Scratch) {
        let mut step = self.stepping();
        let Stepping { mail, locals, .. } = &mut *step;
        for (mail, local) in mail.iter_mut().zip(locals.iter_mut()) {
            if mail.next.is_empty() {
                continue;
            }
            let local = local.get_or_insert_with(|| self.task.new_local());
            for batch in mail.next.drain(..) {
                local.deliver(batch, scratch);
            }
        }
    }

    /// `(partition, live scope vertices)` of every local at rest in the
    /// record, in partition order: a local a running Step holds is not
    /// there to read.
    pub fn scopes(&self) -> Vec<(usize, Vec<VertexId>)> {
        let step = self.stepping();
        let at_rest = step.locals.iter().enumerate();
        let at_rest = at_rest.filter_map(|(w, local)| Some((w, local.as_ref()?)));
        at_rest
            .map(|(w, local)| {
                let mut scope = Vec::with_capacity(local.scope_size());
                local.for_each_scope_vertex(&mut |v| scope.push(v));
                (w, scope)
            })
            .collect()
    }
}

/// One admitted query's superstep state.
pub(crate) struct Stepping {
    /// The outcome under construction: work counters accumulate in place.
    pub out: QueryOutcome,
    /// Latest instant any of the query's Steps finished, as the executor
    /// reported it to [`Coordinator::step_done`].
    pub last_done: SimTime,
    /// Latest arrival of any message the query sent between partitions,
    /// as the simulation prices it; with `last_done`, what
    /// [`barrier::decide`] reads.
    pub msg_arrival: SimTime,
    /// DoP budget, fixed at admission.
    pub dop: usize,
    /// Steps of the current superstep not yet folded.
    pub outstanding: usize,
    /// How many of `involved_cur` have been released.
    released: usize,
    /// Partitions computing the current superstep, in release order.
    pub involved_cur: Vec<usize>,
    /// Partitions with pending messages for the next one (sorted).
    pub next_involved: Vec<usize>,
    /// Any message of the current superstep crossed a partition boundary.
    pub crossed: bool,
    /// The aggregate the current superstep reads.
    pub agg_prev: Envelope,
    agg_acc: Envelope,
    /// Per partition, the query's mail there.
    pub mail: Vec<Mail>,
    /// Per partition, the query's local there: `None` where it never
    /// reached, or while a lane's Step holds it.
    pub locals: Vec<Option<Box<dyn LocalState>>>,
}

/// One partition's mail in a query's record: the batches the current
/// superstep reads there — its Step takes them — and those sent for the
/// next.
#[derive(Default)]
pub(crate) struct Mail {
    pub input: Vec<MessageBatch>,
    pub next: Vec<MessageBatch>,
}

/// What a closed superstep leaves its query to do: start the next one
/// over `next_involved` (or park first), or finish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Close {
    Next,
    Terminate,
}

impl Stepping {
    /// Start the next superstep: the pending set becomes the involved set,
    /// the next input the current one, and the first `dop` of it are
    /// released. Every Step of the closed superstep took its input, so the
    /// emptied buffers collect the new superstep's sends.
    pub fn begin(&mut self) {
        std::mem::swap(&mut self.involved_cur, &mut self.next_involved);
        for mail in &mut self.mail {
            std::mem::swap(&mut mail.input, &mut mail.next);
        }
        self.next_involved.clear();
        self.crossed = false;
        let involved = self.involved_cur.len();
        self.out.tasks += involved as u64;
        self.out.effective_dop = self.out.effective_dop.max(involved.min(self.dop) as u32);
        self.outstanding = involved;
        self.released = involved.min(self.dop);
    }

    /// The partitions whose Steps go as the superstep begins, and those
    /// the budget holds back, in release order.
    pub fn released(&self) -> (&[usize], &[usize]) {
        self.involved_cur.split_at(self.released)
    }

    /// A Step completed and freed its budget slot: the next held-back
    /// partition, if any, goes now.
    pub fn next_deferred(&mut self) -> Option<usize> {
        let w = *self.involved_cur.get(self.released)?;
        self.released += 1;
        Some(w)
    }

    /// Fold one finished Step in: its work, its messages (into the next
    /// input), its aggregate contribution. True when it was the
    /// superstep's last.
    pub fn fold(&mut self, task: &dyn QueryTask, rep: StepReport) -> bool {
        self.outstanding -= 1;
        let stats = &rep.stats;
        self.out.vertex_updates += stats.executed as u64;
        self.out.remote_messages += stats.remote_deliveries as u64;
        self.out.remote_messages_pre_combine += stats.remote_pre_combine as u64;
        self.out.remote_batches += stats.remote_batches as u64;
        self.crossed |= !rep.remote.is_empty();
        task.aggregate_combine(&mut self.agg_acc, &rep.agg);
        if rep.self_pending {
            insert_sorted(&mut self.next_involved, rep.worker);
        }
        for (w, batch) in rep.remote {
            insert_sorted(&mut self.next_involved, w);
            self.mail[w].next.push(batch);
        }
        self.outstanding == 0
    }

    /// Close the superstep whose last Step was just folded: count it (and
    /// whether it was local, [`barrier::is_local`]), roll the aggregate —
    /// the contributions are folded into the one the next superstep reads
    /// when the program's aggregate is sticky, replace it otherwise — and
    /// say whether the query goes on.
    pub fn close(&mut self, task: &dyn QueryTask) -> Close {
        self.out.iterations += 1;
        if barrier::is_local(self.involved_cur.len(), self.crossed) {
            self.out.local_iterations += 1;
        }
        let acc = std::mem::replace(&mut self.agg_acc, task.aggregate_identity());
        if task.aggregate_sticky() {
            task.aggregate_combine(&mut self.agg_prev, &acc);
        } else {
            self.agg_prev = acc;
        }
        if task.should_terminate(&self.agg_prev) || self.next_involved.is_empty() {
            Close::Terminate
        } else {
            Close::Next
        }
    }
}

/// The engine state that outlives a serve session: what a runtime hands
/// the core at start and takes back when it stops.
pub struct EngineState {
    pub topology: Topology,
    pub partitioning: Partitioning,
    pub controller: Controller,
    pub index: Option<Box<dyn PointIndex>>,
    pub report: EngineReport,
}

/// Where the next repartition stands; a plan carries its trigger instant.
enum Repartition {
    None,
    /// A hit that found fewer than two scopes to plan over: the next check
    /// plans without testing again.
    Wanted,
    /// Planned at the trigger; not due yet. The trigger instant, and
    /// where the plan's cost counts from: the executor's clock as the
    /// trigger's scope read returned.
    Budgeted(IlsResult, SimTime, SimTime),
    /// A plan that came due and moves something, and what it took to
    /// plan: apply at the next window, which paces the next check.
    Due(IlsResult, SimTime, SimTime),
}

/// An open stop-the-world window: where its report events start, and
/// what the plan it applies took to make.
struct Window {
    entered: SimTime,
    mutations_from: usize,
    repartitions_from: usize,
    planned: Option<SimTime>,
}

fn secs(t: SimTime) -> f64 {
    t.as_secs_f64()
}

fn insert_sorted(set: &mut Vec<usize>, w: usize) {
    if let Err(i) = set.binary_search(&w) {
        set.insert(i, w);
    }
}

/// The single outcome constructor: a submission that has done no work
/// yet. Index-served, rejected and empty queries are recorded as is
/// (after their tag is set); traversed queries accumulate into it.
fn blank_outcome(
    id: QueryId,
    program: &'static str,
    queued_at: SimTime,
    submitted_at: SimTime,
    epoch: u64,
) -> QueryOutcome {
    QueryOutcome {
        id,
        program,
        queued_at,
        submitted_at,
        completed_at: submitted_at,
        first_epoch: epoch,
        last_epoch: epoch,
        ..QueryOutcome::default()
    }
}

/// The query-protocol state machine. See the module docs.
pub(crate) struct Coordinator {
    pub state: EngineState,
    cfg: SystemConfig,
    hb: Hb,
    tracer: Tracer,
    scheduler: Scheduler,
    /// Admitted, unfinished queries — ordered, so every float sum over
    /// them is taken in the same (id) order on every run.
    queries: BTreeMap<QueryId, Record>,
    /// No more admissions (shutdown requested): running queries finish.
    closed: bool,
    /// A window is wanted or open: no admissions, and queries reaching
    /// their barrier park instead of releasing.
    paused: bool,
    parked: Vec<QueryId>,
    mutations: Vec<MutationBatch>,
    repartition: Repartition,
    window: Option<Window>,
}

impl Coordinator {
    /// The pool width a configuration asks for over `k` partitions.
    pub fn pool_width(cfg: &SystemConfig, k: usize) -> usize {
        match cfg.pool_threads {
            0 => k,
            n => n,
        }
    }

    /// A core over `state`; stamps the initial topology and assignment as
    /// published before any partition can read them; the straggler watch
    /// restarts.
    pub fn new(mut state: EngineState, cfg: SystemConfig, hb: Hb, tracer: Tracer) -> Self {
        state.report.admission_policy = cfg.admission.label().to_string();
        state.controller.restart_activity_watch(SimTime::ZERO);
        hb.publish_topology(0, state.topology.epoch());
        hb.publish_partitioning(0);
        Coordinator {
            scheduler: Scheduler::bounded(cfg.admission.clone(), cfg.max_queued),
            state,
            cfg,
            hb,
            tracer,
            queries: BTreeMap::new(),
            closed: false,
            paused: false,
            parked: Vec::new(),
            mutations: Vec::new(),
            repartition: Repartition::None,
            window: None,
        }
    }

    pub fn cfg(&self) -> &SystemConfig {
        &self.cfg
    }

    /// A stop-the-world window is wanted (or open): the executor runs
    /// [`Coordinator::window_open`] once its partitions are quiescent.
    pub fn paused(&self) -> bool {
        self.paused
    }

    /// No admitted query and no mutation is left to run.
    pub fn quiet(&self) -> bool {
        self.queries.is_empty() && self.mutations.is_empty()
    }

    /// Fully idle: quiet, nothing queued, no window wanted.
    pub fn idle(&self) -> bool {
        self.quiet() && self.scheduler.is_empty() && !self.paused
    }

    /// Queries currently mid-superstep.
    pub fn computing(&self) -> usize {
        let mid = |r: &&Record| r.stepping().outstanding > 0;
        self.queries.values().filter(mid).count()
    }

    /// When the next Q-cut check is due ([`Controller::next_check`]), or
    /// never while a window is wanted. A check that declines leaves it due.
    pub fn next_check(&self) -> SimTime {
        if self.paused {
            SimTime::MAX
        } else {
            self.state.controller.next_check()
        }
    }

    /// Live query `q`'s record (`q` must be live).
    pub fn query(&self, q: QueryId) -> &Record {
        let live = self.queries.get(&q);
        live.unwrap_or_else(|| panic!("protocol invariant: {q} is not a live query"))
    }

    // ------------------------------------------------------------------
    // Client inputs
    // ------------------------------------------------------------------

    /// Query `q` arrived at `arrival`: queue it under the admission
    /// policy, or bounce it if the bounded queue is full. Returns whether
    /// it was queued. Does not admit — see [`Coordinator::admit`].
    pub fn submit(
        &mut self,
        q: QueryId,
        task: Arc<dyn QueryTask>,
        arrival: SimTime,
        deadline: Option<SimTime>,
    ) -> bool {
        self.tracer.admitted(secs(arrival), u64::from(q.0));
        let program = task.program_name();
        if self.scheduler.push(q, task, arrival, deadline) {
            return true;
        }
        // Backpressure: the submission never executes, its output stays
        // `None`, every lifecycle stamp is the arrival instant.
        let epoch = self.state.topology.epoch();
        let mut out = blank_outcome(q, program, arrival, arrival, epoch);
        out.status = OutcomeStatus::Rejected;
        self.conclude(out, outcome::REJECTED);
        false
    }

    /// A mutation batch to apply at the next window (a new graph epoch).
    pub fn mutate(&mut self, batch: MutationBatch) {
        self.mutations.push(batch);
        self.paused = true;
    }

    /// Stop admitting: already-admitted queries finish, queued ones stay
    /// queued.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Admit waiting queries into free closed-loop slots.
    pub fn admit<X: Executor>(&mut self, x: &mut X, now: SimTime) {
        // A closed loop of zero slots would never run anything.
        let slots = self.cfg.max_parallel_queries.max(1);
        while !self.paused && !self.closed && self.queries.len() < slots {
            let Some(entry) = self.scheduler.pop() else {
                break;
            };
            self.start_query(x, entry, now);
        }
    }

    fn start_query<X: Executor>(&mut self, x: &mut X, entry: QueueEntry, now: SimTime) {
        let (q, task, enqueued_at) = (entry.q, entry.task, entry.enqueued_at);
        let st = &self.state;
        let epoch = st.topology.epoch();
        let mut out = blank_outcome(q, task.program_name(), enqueued_at, now, epoch);

        // Index fast path: an eligible point query whose index is repaired
        // through the admission epoch completes here, without occupying a
        // closed-loop slot or touching a partition.
        if let Some(output) = try_index_path(task.as_ref(), st.index.as_deref(), epoch) {
            out.served_by = ServedBy::Index;
            x.complete(q, output);
            self.conclude(out, outcome::INDEX_SERVED);
            return;
        }

        // Route against the *current* assignment and topology.
        let k = st.partitioning.num_workers();
        let route = |v: VertexId| st.partitioning.worker_of(v).index();
        let batches = task.initial_batches(&st.topology, &route);
        // The budget is fixed at admission for the query's lifetime.
        let dop = dop_budget(task.as_ref(), Self::pool_width(&self.cfg, k));
        let record = Query::new(q, task, out, dop, k);
        let mut step = record.stepping();
        // `initial_batches` is sorted by partition, so the set is too.
        for (w, batch) in batches {
            step.next_involved.push(w);
            step.mail[w].next.push(batch);
        }
        let empty = step.next_involved.is_empty();
        drop(step);
        self.queries.insert(q, record);
        if empty {
            // No initial messages: finalize over the empty state set.
            self.finish(x, q, now);
        } else {
            self.dispatch_superstep(x, q, now);
        }
    }

    // ------------------------------------------------------------------
    // Supersteps
    // ------------------------------------------------------------------

    /// Query `q`'s barrier opened: start its next superstep — unless a
    /// window is wanted, in which case it parks until the window ends.
    pub fn release<X: Executor>(&mut self, x: &mut X, q: QueryId, now: SimTime) {
        if self.paused {
            self.tracer.park(secs(now), u64::from(q.0));
            self.parked.push(q);
            return;
        }
        self.dispatch_superstep(x, q, now);
    }

    /// The one release path (admission, barrier release, window resume):
    /// the pending set becomes the involved set and the whole superstep
    /// goes to the executor, which runs at most the budget of Steps at
    /// once. A deferred partition still executes the input it had at this
    /// instant (the executor's BSP contract), which is what keeps
    /// budgeted execution output-identical to the all-at-once baseline.
    fn dispatch_superstep<X: Executor>(&mut self, x: &mut X, q: QueryId, now: SimTime) {
        let Some(record) = self.queries.get(&q) else {
            debug_assert!(false, "released {q} is no longer live");
            return;
        };
        let mut step = record.stepping();
        if step.next_involved.is_empty() {
            // Migration preserves pending messages, so a waiting query
            // cannot lose them: loud in debug, finish rather than
            // deadlock in release.
            debug_assert!(false, "{q} reached a release with nothing pending");
            drop(step);
            self.finish(x, q, now);
            return;
        }
        step.begin();
        for &w in step.released().1 {
            self.tracer.defer(secs(now), u64::from(q.0), w as u32);
        }
        x.superstep(record, &mut step);
    }

    /// A Step finished at `done_at` (≥ `now` when the executor prices the
    /// send that follows the compute): fold its report into the query's
    /// record and, when it was the superstep's last, close the superstep —
    /// `None` while Steps of it are still running. On `Next` the query
    /// waits at its barrier ([`Coordinator::release`]); on `Terminate` it
    /// finishes. The simulation's path; the thread runtime's lanes fold
    /// and close on their own.
    pub fn step_done<X: Executor>(
        &mut self,
        x: &mut X,
        rep: StepReport,
        now: SimTime,
        done_at: SimTime,
    ) -> Option<Close> {
        let q = rep.q;
        let executed = rep.stats.executed as u64;
        self.state
            .controller
            .note_activity(now, rep.worker, executed);
        let Some(record) = self.queries.get(&q) else {
            panic!("protocol invariant: step report for {q}, which is not live");
        };
        // The executor releases the superstep's deferred Steps on its own
        // — even while a window is wanted: the superstep must complete
        // before the query can park.
        let mut step = record.stepping();
        step.last_done = step.last_done.max(done_at);
        if !step.fold(record.task.as_ref(), rep) {
            return None;
        }
        self.tracer.superstep_done(secs(now), u64::from(q.0));
        let close = step.close(record.task.as_ref());
        drop(step);
        if close == Close::Terminate {
            self.finish(x, q, now);
        }
        Some(close)
    }

    /// Query `q` terminated, every local of it at rest in its record:
    /// take them out in partition order, finalize over them and free its
    /// closed-loop slot.
    pub fn finish<X: Executor>(&mut self, x: &mut X, q: QueryId, now: SimTime) {
        let Some(record) = self.queries.remove(&q) else {
            panic!("protocol invariant: {q} finished, but it is not live");
        };
        let mut step = record.stepping();
        let locals: Vec<_> = step.locals.iter_mut().filter_map(Option::take).collect();
        let (mut out, at) = (step.out, step.last_done.max(now));
        drop(step);
        out.completed_at = at;
        out.last_epoch = self.state.topology.epoch();
        out.scope_size = locals.iter().map(|l| l.scope_size() as u64).sum();
        if self.state.controller.qcut_config().is_some() {
            // Retain the scope for the monitoring window (only worth
            // materializing when Q-cut runs).
            let mut scope: Vec<VertexId> = Vec::with_capacity(out.scope_size as usize);
            for l in &locals {
                l.for_each_scope_vertex(&mut |v| scope.push(v));
            }
            self.state.controller.record_finished_scope(q, scope, at);
        }
        x.complete(q, record.task.finalize(&self.state.topology, locals));
        self.conclude(out, outcome::COMPLETED);
        // Closed loop: the freed slot admits the next waiting query.
        self.admit(x, now);
    }

    /// Record a final outcome. It is stamped with an epoch, so that
    /// epoch's publication must be ordered before this point.
    fn conclude(&mut self, out: QueryOutcome, code: u64) {
        self.hb.outcome_epoch(0, out.last_epoch);
        let at = secs(out.completed_at);
        self.tracer.outcome(at, u64::from(out.id.0), code);
        let report = &mut self.state.report;
        report.finished_at_secs = report.finished_at_secs.max(at);
        // One pool task per superstep execution, wherever it ran.
        report.pool.tasks += out.tasks;
        report.outcomes.push(out);
    }

    // ------------------------------------------------------------------
    // The Q-cut trigger
    // ------------------------------------------------------------------

    /// The repartition trigger (paper §3.4), evaluated after a superstep
    /// closes — see the module docs. When the ILS ran, returns the instant
    /// its priced budget elapses; the executor calls
    /// [`Coordinator::plan_due`] then (the simulation) or at once (threads).
    pub fn trigger<X: Executor>(&mut self, x: &mut X, now: SimTime) -> Option<SimTime> {
        let controller = &mut self.state.controller;
        if self.paused || controller.qcut_config().is_none() {
            return None;
        }
        // Only scopes within the monitoring window may feed the trigger.
        controller.expire(now);
        // No plan while one is in flight; fewer than two known scopes
        // make one meaningless (a solo query never repartitions).
        let inflight = matches!(self.repartition, Repartition::Budgeted(..));
        if inflight || self.queries.len() + controller.retained() < 2 {
            return None;
        }
        // Lifetime locality of the running queries, in id order, read
        // from their records as they stand.
        let localities = self.queries.values().filter_map(|r| {
            let step = r.stepping();
            (step.out.iterations > 0).then(|| step.out.locality())
        });
        let wanted = matches!(self.repartition, Repartition::Wanted);
        if !wanted && !controller.should_trigger(now, localities) {
            return None;
        }
        let (_, live) = self.gather_scopes();
        // The plan's cost counts from the read's return.
        let scoped = x.now();
        let st = &mut self.state;
        let stats = st.controller.build_scope_stats(&live, &st.partitioning);
        // Fewer than two non-empty scopes make a plan meaningless.
        if stats.queries.len() < 2 {
            self.repartition = Repartition::Wanted;
            return None;
        }
        let (result, budget) = st.controller.plan(&stats);
        self.repartition = Repartition::Budgeted(result, now, scoped);
        Some(now + budget)
    }

    /// The budgeted plan came due: the wait to the next check restarts. A
    /// plan that moves nothing paces it here; one that moves something
    /// wants a window, which paces it as it ends (see the module docs).
    pub fn plan_due(&mut self, now: SimTime) {
        let controller = &mut self.state.controller;
        controller.plan_due(now);
        if let Repartition::Budgeted(result, triggered_at, scoped) =
            std::mem::replace(&mut self.repartition, Repartition::None)
        {
            let planned = now.saturating_sub(scoped);
            if result.plan.is_empty() {
                controller.pace(planned, false);
            } else {
                self.repartition = Repartition::Due(result, triggered_at, planned);
                self.paused = true;
            }
        }
    }

    /// The live queries' scopes as their records hold them at rest
    /// ([`Query::scopes`]): per partition (sorted by query, then
    /// partition) and unioned per query (sorted by query).
    #[allow(clippy::type_complexity)]
    fn gather_scopes(
        &self,
    ) -> (
        Vec<(QueryId, usize, Vec<VertexId>)>,
        Vec<(QueryId, Vec<VertexId>)>,
    ) {
        let mut local = Vec::new();
        let mut live: Vec<(QueryId, Vec<VertexId>)> = Vec::new();
        for (&q, record) in &self.queries {
            let scopes = record.scopes();
            if scopes.is_empty() {
                continue;
            }
            live.push((q, scopes.iter().flat_map(|(_, vs)| vs).copied().collect()));
            local.extend(scopes.into_iter().map(|(w, vs)| (q, w, vs)));
        }
        (local, live)
    }

    // ------------------------------------------------------------------
    // The stop-the-world window
    // ------------------------------------------------------------------

    /// Open the window once the executor's partitions are quiescent; the
    /// executor then runs [`Coordinator::window_apply`].
    pub fn window_open<X: Executor>(&mut self, x: &X) {
        let entered = x.now();
        // Open the auditor's window *before* anything else: if a dispatch
        // is still in flight, its two-stack report beats a bare assert,
        // and no partition has been touched yet.
        self.hb.quiesce_begin();
        self.tracer.quiesce_begin(secs(entered));
        debug_assert!(self.paused, "a window nobody wanted");
        let report = &self.state.report;
        self.window = Some(Window {
            entered,
            mutations_from: report.mutations.len(),
            repartitions_from: report.repartitions.len(),
            planned: None,
        });
    }

    /// The window body, in the window [`Coordinator::window_open`]
    /// opened: apply every queued mutation batch (each a new graph epoch;
    /// compaction and index repair ride along), then the due repartition.
    /// One window serves both, so a mutation landing while a Q-cut phase
    /// is pending costs no extra quiesce. The executor calls
    /// [`Coordinator::window_end`] when the window's work is done.
    pub fn window_apply<X: Executor>(&mut self, x: &mut X) {
        let Some(win) = self.window.as_mut() else {
            debug_assert!(false, "window_apply without an open window");
            return;
        };
        let entered = win.entered;
        let st = &mut self.state;

        // Phase 1: mutation epochs, in arrival order.
        let batches = std::mem::take(&mut self.mutations);
        if !batches.is_empty() {
            let n = batches.len() as u64;
            self.tracer.mutation_begin(secs(entered), n);
            let epoch_before = st.topology.epoch();
            let repairs_before = st.report.index_repairs.len();
            let apply =
                apply_mutation_epochs(st, &batches, self.cfg.compact_fraction, secs(entered));
            // Every epoch the batches opened is published inside the
            // window, before anything resumes and can stamp an outcome
            // with it or execute against it.
            for e in epoch_before + 1..=st.topology.epoch() {
                self.hb.publish_topology(0, e);
            }
            let version = self.hb.publish_partitioning(0);
            x.publish_topology(
                &st.topology,
                &st.partitioning,
                version,
                apply.ops,
                apply.compacted_edges,
            );
            if apply.compacted_edges.is_some() {
                self.tracer.compaction(secs(x.now()));
            }
            // The repair stages ran inside `apply_mutation_epochs`; the
            // span covers the mutation phase, its end instants carry the
            // repair counters of this window's batches.
            let repairs = &st.report.index_repairs[repairs_before..];
            if !repairs.is_empty() {
                self.tracer.repair_begin(secs(entered));
                self.tracer.repair_end(secs(x.now()), repairs);
            }
            self.tracer.mutation_end(secs(x.now()), n);
        }

        // Phase 2: the repartition, under the same window.
        if let Repartition::Due(result, triggered_at, planned) =
            std::mem::replace(&mut self.repartition, Repartition::None)
        {
            win.planned = Some(planned);
            self.tracer.qcut_begin(secs(x.now()));
            self.repartition_phase(x, result, triggered_at, entered);
            self.tracer.qcut_end(secs(x.now()));
        }
    }

    /// Resolve the plan against the quiesced partitions and migrate. A
    /// plan can resolve to nothing by now (scopes finished and expired
    /// since the trigger): then no event is recorded — a
    /// [`RepartitionEvent`] means vertices moved.
    fn repartition_phase<X: Executor>(
        &mut self,
        x: &mut X,
        result: IlsResult,
        triggered_at: SimTime,
        entered: SimTime,
    ) {
        let (local, live) = self.gather_scopes();
        let st = &mut self.state;
        // A live query's current scope on the source partition, or a
        // finished query's retained scope (the resolver's ownership
        // filter restricts it to the source).
        let queries = &self.queries;
        let controller = &st.controller;
        let mut scope_of = |q: QueryId, w: usize| -> Vec<VertexId> {
            if queries.contains_key(&q) {
                local
                    .binary_search_by_key(&(q, w), |(q, w, _)| (*q, *w))
                    .map_or_else(|_| Vec::new(), |i| local[i].2.clone())
            } else {
                controller.finished_scope(q).unwrap_or_default().to_vec()
            }
        };
        let migration = migrate::resolve_plan(&result.plan, &st.partitioning, &mut scope_of);
        if migration.is_empty() {
            return;
        }
        // Every pending message moves with its vertex: each live record's
        // next input goes into its own locals first, their buffers parked
        // in a scratch of the window's.
        let mut scratch = Scratch::default();
        for record in self.queries.values() {
            record.deliver_mail(&mut scratch);
        }
        let observed = st.controller.observed_scopes(&live);
        // The selection lists the live queries' scopes first.
        let running = live.iter().filter(|(_, vs)| !vs.is_empty()).count();
        let running = &observed[..running.min(observed.len())];
        let live_locality_before = migrate::scope_locality(running, &st.partitioning);
        let records = &self.queries;
        let (locality_before, locality_after) =
            migrate::apply_measured(&migration, &mut st.partitioning, &observed, || {
                migrate::transfer(&migration, records.values());
                x.migrate(&migration);
            });
        let live_locality_after = migrate::scope_locality(running, &st.partitioning);
        let version = self.hb.publish_partitioning(0);
        x.publish_partitioning(&st.partitioning, version);
        st.report.repartitions.push(RepartitionEvent {
            triggered_at: secs(triggered_at),
            applied_at: secs(entered),
            barrier_duration: 0.0, // stamped once the window's end is known
            moved_vertices: migration.moved_vertices,
            locality_before,
            locality_after,
            live_locality_before,
            live_locality_after,
            ils: result,
        });
        // The migration moved pending inboxes between partitions: rebuild
        // the next involved set of every query waiting at its barrier from
        // the locals that now hold them.
        for record in self.queries.values() {
            let mut step = record.stepping();
            if step.outstanding > 0 {
                continue;
            }
            let Stepping {
                next_involved,
                locals,
                ..
            } = &mut *step;
            let pending = locals
                .iter()
                .map(|l| l.as_ref().is_some_and(|l| l.has_pending()));
            next_involved.clear();
            next_involved.extend(pending.enumerate().filter(|(_, p)| *p).map(|(w, _)| w));
        }
    }

    /// The window's work finished at `now`: stamp its duration on the
    /// events it recorded, pace the next check if it applied a plan, close
    /// it, resume the parked queries against the (possibly new) layout and
    /// re-open admissions.
    pub fn window_end<X: Executor>(&mut self, x: &mut X, now: SimTime) {
        let Some(win) = self.window.take() else {
            debug_assert!(false, "window_end without an open window");
            return;
        };
        let duration = secs(now - win.entered);
        let report = &mut self.state.report;
        for ev in &mut report.mutations[win.mutations_from..] {
            ev.barrier_duration = duration;
        }
        let applied = &mut report.repartitions[win.repartitions_from..];
        for ev in applied.iter_mut() {
            ev.barrier_duration = duration;
        }
        if let Some(planned) = win.planned {
            let raised = applied.iter().any(RepartitionEvent::raised_locality);
            let cost = planned + now.saturating_sub(win.entered);
            self.state.controller.pace(cost, raised);
        }
        // Close the window before any release: a release is a dispatch,
        // and a dispatch inside the window is exactly the PR-2 race.
        self.hb.quiesce_end();
        self.tracer.quiesce_end(secs(now));
        // The lanes are provably idle inside the window: the cheapest
        // point to move their rings into the central buffer.
        self.tracer.drain();
        self.paused = false;
        for q in std::mem::take(&mut self.parked) {
            self.tracer.unpark(secs(now), u64::from(q.0));
            self.dispatch_superstep(x, q, now);
        }
        self.admit(x, now);
        // Work that became ready while the window was open (a mutation,
        // a plan coming due) re-enters the stop-the-world phase at once.
        self.paused =
            !self.mutations.is_empty() || matches!(self.repartition, Repartition::Due(..));
    }
}

#[cfg(test)]
mod tests {
    //! The core against a scripted executor: no threads, no event queue —
    //! every dispatch is logged and every report is written by hand.

    use super::*;
    use crate::config::QcutConfig;
    use crate::index_plane::{PointAnswer, PointQuery, RepairSummary};
    use crate::program::{Context, VertexProgram};
    use crate::programs::{PingProgram, Tally};
    use crate::qcut::{MovePlan, ScopeMove};
    use crate::task::TypedTask;
    use crate::worker::Moved;
    use qgraph_graph::{AppliedMutation, GraphBuilder};
    use qgraph_partition::{Partitioner, RangePartitioner};

    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        /// `(query, involved in release order, DoP budget, index)`.
        Superstep(u32, Vec<usize>, usize, u32),
        Complete(u32),
        PublishTopology(u64),
        PublishPartitioning,
        Migrate,
    }

    /// Logs dispatches and the batches each Step takes from its record.
    /// It runs no Step: the tests write the reports, and put into the
    /// records by hand the locals those Steps would have left there.
    #[derive(Default)]
    struct Script {
        log: Vec<Op>,
        clock: SimTime,
        /// Per dispatched superstep and involved partition, `(query,
        /// partition, batches taken)`: its input from the record.
        read: Vec<(u32, usize, usize)>,
    }

    impl Executor for Script {
        fn now(&self) -> SimTime {
            self.clock
        }
        fn superstep(&mut self, record: &Record, step: &mut Stepping) {
            let (q, involved) = (record.id, step.involved_cur.clone());
            let index = step.out.iterations;
            self.log
                .push(Op::Superstep(q.0, involved.clone(), step.dop, index));
            for w in involved {
                let taken = std::mem::take(&mut step.mail[w].input).len();
                self.read.push((q.0, w, taken));
            }
        }
        fn complete(&mut self, q: QueryId, _: Envelope) {
            self.log.push(Op::Complete(q.0));
        }
        fn publish_topology(
            &mut self,
            topology: &Topology,
            _: &Partitioning,
            _: u64,
            _: usize,
            _: Option<usize>,
        ) {
            self.log.push(Op::PublishTopology(topology.epoch()));
        }
        fn publish_partitioning(&mut self, _: &Partitioning, _: u64) {
            self.log.push(Op::PublishPartitioning);
        }
        fn migrate(&mut self, _: &Migration) {
            self.log.push(Op::Migrate);
        }
    }

    /// Ping query `q`'s local on partition `w` holds state on `vertices`
    /// and nothing pending, at rest in its record.
    fn hold(core: &Coordinator, q: u32, w: usize, vertices: &[u32]) {
        let record = core.query(QueryId(q));
        let mut local = record.task.new_local();
        let held = vertices.iter().map(|&v| (VertexId(v), Some(0), Vec::new()));
        local.inject(Box::new(held.collect::<Moved<PingProgram>>()));
        record.stepping().locals[w] = Some(local);
    }

    /// Does query `q` hold messages for a next superstep on partition `w`?
    fn pending_at(core: &Coordinator, q: u32, w: usize) -> bool {
        let step = core.query(QueryId(q)).stepping();
        step.locals[w].as_ref().is_some_and(|l| l.has_pending())
    }

    /// Six vertices over three partitions: `{0,1} {2,3} {4,5}`.
    fn core(cfg: SystemConfig) -> Coordinator {
        let graph = std::sync::Arc::new(GraphBuilder::new(6).build());
        let state = EngineState {
            partitioning: RangePartitioner.partition(&graph, 3),
            topology: Topology::new(graph),
            controller: Controller::new(cfg.qcut.clone(), 3),
            index: None,
            report: EngineReport::default(),
        };
        Coordinator::new(state, cfg, Hb::new(3), Tracer::new(3, 16, false))
    }

    /// A ping over one vertex of each partition, budgeted to one task at
    /// a time.
    fn ping() -> TypedTask<PingProgram> {
        TypedTask::new(PingProgram {
            ring: vec![VertexId(0), VertexId(2), VertexId(4)],
            rounds: 9,
        })
    }

    fn serial() -> SystemConfig {
        SystemConfig {
            pool_threads: 1,
            ..Default::default()
        }
    }

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Partition `w` finished its step of query 0 having executed one
    /// vertex and sent one message to each partition in `to` (its ring
    /// vertex, `2 · to`).
    fn report(task: &TypedTask<PingProgram>, w: usize, to: &[usize]) -> StepReport {
        let batch = |to: usize| task.batch_for_test(vec![(VertexId(2 * to as u32), 1)]);
        StepReport {
            q: QueryId(0),
            worker: w,
            stats: SuperstepStats {
                executed: 1,
                remote_deliveries: to.len(),
                remote_pre_combine: to.len(),
                remote_batches: to.len(),
            },
            agg: task.aggregate_identity(),
            remote: to.iter().map(|&to| (to, batch(to))).collect(),
            self_pending: false,
        }
    }

    #[test]
    fn every_freeze_precedes_every_step_and_deferred_steps_release_in_order() {
        let (mut core, mut x, task) = (core(serial()), Script::default(), ping());
        assert!(core.submit(QueryId(0), Arc::new(ping()), at(0), None));
        core.admit(&mut x, at(1));
        assert_eq!(
            x.log,
            vec![Op::Superstep(0, vec![0, 1, 2], 1, 0)],
            "one dispatch: the budget and the release order travel with it"
        );
        let seeds = vec![(0, 0, 1), (0, 1, 1), (0, 2, 1)];
        assert_eq!(
            x.read, seeds,
            "each partition read its seed from the record"
        );
        // A step-done moves nothing: what a Step sent waits in the record
        // until the next superstep, and the executor releases the deferred
        // partitions, in involved order.
        x.log.clear();
        let outcome = core.step_done(&mut x, report(&task, 0, &[1]), at(2), at(2));
        assert_eq!(outcome, None);
        let outcome = core.step_done(&mut x, report(&task, 1, &[]), at(3), at(3));
        assert_eq!(outcome, None);
        let outcome = core.step_done(&mut x, report(&task, 2, &[]), at(4), at(4));
        assert_eq!(outcome, Some(Close::Next));
        assert!(x.log.is_empty(), "nothing moves until the barrier opens");
        // The next superstep involves only the partition that was sent to,
        // and reads what was sent.
        core.release(&mut x, QueryId(0), at(5));
        assert_eq!(x.log, vec![Op::Superstep(0, vec![1], 1, 1)]);
        assert_eq!(x.read[3..], [(0, 1, 1)]);
        let out = core.query(QueryId(0)).stepping().out;
        assert_eq!((out.iterations, out.local_iterations), (1, 0));
        assert_eq!((out.tasks, out.effective_dop), (4, 1));
    }

    #[test]
    fn a_superstep_ending_under_a_wanted_window_parks_until_the_window_ends() {
        let cfg = SystemConfig {
            qcut: Some(QcutConfig::default()),
            ..serial()
        };
        let (mut core, mut x, task) = (core(cfg), Script::default(), ping());
        core.submit(QueryId(0), Arc::new(ping()), at(0), None);
        core.admit(&mut x, at(1));
        // A plan comes due mid-superstep: moving q0's scope from
        // partition 0 to partition 2.
        let plan = MovePlan {
            moves: vec![ScopeMove {
                query: QueryId(0),
                from: 0,
                to: 2,
            }],
        };
        let due = IlsResult {
            plan,
            initial_cost: 2.0,
            final_cost: 1.0,
            trace: Vec::new(),
            num_clusters: 1,
        };
        core.repartition = Repartition::Budgeted(due, at(1), at(1));
        core.plan_due(at(2));
        assert!(core.paused());
        // The superstep still runs to its end (deferred steps release
        // even while the window is wanted) ...
        core.step_done(&mut x, report(&task, 0, &[]), at(3), at(3));
        core.step_done(&mut x, report(&task, 1, &[0]), at(4), at(4));
        let outcome = core.step_done(&mut x, report(&task, 2, &[]), at(5), at(5));
        assert_eq!(outcome, Some(Close::Next));
        // ... then parks at the release instead of dispatching.
        x.log.clear();
        core.release(&mut x, QueryId(0), at(6));
        assert!(x.log.is_empty() && core.parked == vec![QueryId(0)]);

        // The window migrates {v0, v1}: the pending input for partition 0
        // is delivered into the local there first and travels to partition
        // 2, where the rebuilt pending set finds it.
        x.clock = at(7);
        hold(&core, 0, 0, &[0, 1]);
        core.window_open(&x);
        core.window_apply(&mut x);
        assert_eq!(x.log, vec![Op::Migrate, Op::PublishPartitioning]);
        assert_eq!(core.state.partitioning.worker_of(VertexId(1)).index(), 2);
        assert!(!pending_at(&core, 0, 0) && pending_at(&core, 0, 2));
        x.log.clear();
        core.window_end(&mut x, at(9));
        assert_eq!(
            x.log,
            vec![Op::Superstep(0, vec![2], 1, 1)],
            "resumed where the pending input went, not the stale set"
        );
        assert!(!core.paused() && core.parked.is_empty());
        let ev = &core.state.report.repartitions[0];
        assert_eq!((ev.moved_vertices, ev.applied_at), (2, 7e-6));
        assert!((ev.barrier_duration - 2e-6).abs() < 1e-12);
    }

    #[test]
    fn a_window_delivers_a_parked_querys_input_before_it_migrates_the_vertex() {
        let cfg = SystemConfig {
            qcut: Some(QcutConfig::default()),
            ..serial()
        };
        let (mut core, mut x, task) = (core(cfg), Script::default(), ping());
        core.submit(QueryId(0), Arc::new(ping()), at(0), None);
        core.admit(&mut x, at(1));
        // Superstep 0 sends vertex 2 (partition 1) its message; the query
        // parks at the barrier a due plan wants a window for, with the
        // message in its record.
        core.step_done(&mut x, report(&task, 0, &[1]), at(2), at(2));
        core.step_done(&mut x, report(&task, 1, &[]), at(3), at(3));
        core.step_done(&mut x, report(&task, 2, &[]), at(4), at(4));
        let plan = MovePlan {
            moves: vec![ScopeMove {
                query: QueryId(0),
                from: 1,
                to: 0,
            }],
        };
        let due = IlsResult {
            plan,
            initial_cost: 2.0,
            final_cost: 1.0,
            trace: Vec::new(),
            num_clusters: 1,
        };
        core.repartition = Repartition::Budgeted(due, at(4), at(4));
        core.plan_due(at(5));
        core.release(&mut x, QueryId(0), at(5));
        assert_eq!(core.parked, vec![QueryId(0)]);
        assert_eq!(core.query(QueryId(0)).stepping().mail[1].next.len(), 1);

        // The window moves vertex 2 to partition 0: the message, delivered
        // from the record into the local on partition 1, goes along.
        x.log.clear();
        hold(&core, 0, 1, &[2]);
        core.window_open(&x);
        core.window_apply(&mut x);
        assert_eq!(x.log, vec![Op::Migrate, Op::PublishPartitioning]);
        assert_eq!(core.state.partitioning.worker_of(VertexId(2)).index(), 0);
        assert!(core.query(QueryId(0)).stepping().mail[1].next.is_empty());
        assert!(!pending_at(&core, 0, 1) && pending_at(&core, 0, 0));
        x.log.clear();
        core.window_end(&mut x, at(6));
        // Superstep 1 runs where the message went, with nothing left in
        // the record for it.
        assert_eq!(x.log, vec![Op::Superstep(0, vec![0], 1, 1)]);
        assert_eq!(x.read.last(), Some(&(0, 0, 0)));
    }

    /// Q-cut on with the paper's constants.
    fn adaptive() -> SystemConfig {
        SystemConfig {
            qcut: Some(QcutConfig::default()),
            ..Default::default()
        }
    }

    /// Two admitted pings, each one crossing superstep in (lifetime
    /// locality 0) and waiting at its barrier on partition 1.
    fn two_remote_queries(cfg: SystemConfig) -> (Coordinator, Script) {
        let (mut core, mut x, task) = (core(cfg), Script::default(), ping());
        for q in 0..2 {
            core.submit(QueryId(q), Arc::new(ping()), at(0), None);
        }
        core.admit(&mut x, at(0));
        for q in 0..2 {
            for (w, to) in [(0, &[1][..]), (1, &[]), (2, &[])] {
                let q = QueryId(q);
                core.step_done(
                    &mut x,
                    StepReport {
                        q,
                        ..report(&task, w, to)
                    },
                    at(1),
                    at(1),
                );
            }
        }
        (core, x)
    }

    /// Each query's scope split over partitions 0 and 1 (`{0} {2}` and
    /// `{1} {3}`): the ILS gathers each onto one partition.
    fn split_scopes(core: &Coordinator) {
        for (q, w, v) in [(0, 0, 0), (0, 1, 2), (1, 0, 1), (1, 1, 3)] {
            hold(core, q, w, &[v]);
        }
    }

    #[test]
    fn the_cooldown_blocks_a_second_trigger_until_it_has_elapsed_again() {
        // The simulation's shape: the scope read returns at the trigger
        // instant and the plan comes due one priced budget later.
        let (mut core, mut x) = two_remote_queries(adaptive());
        split_scopes(&core);
        let sec = 1_000_000;
        // The first wait is 0. The hit plans at the trigger; its plan
        // comes due one budget (the paper's 2 s) later, and nothing
        // re-triggers while it is in flight.
        x.clock = at(sec);
        let due = at(3 * sec);
        assert_eq!(core.trigger(&mut x, at(sec)), Some(due));
        assert!(matches!(core.repartition, Repartition::Budgeted(_, t, _) if t == at(sec)));
        assert_eq!(core.trigger(&mut x, at(sec + 1)), None);
        assert!(!core.paused());
        core.plan_due(due);
        assert!(core.paused(), "the plan moves something");
        for q in 0..2 {
            core.release(&mut x, QueryId(q), due);
        }
        x.clock = at(3 * sec + 1);
        core.window_open(&x);
        core.window_apply(&mut x);
        core.window_end(&mut x, at(3 * sec + 2));
        let ev = &core.state.report.repartitions[0];
        assert_eq!((ev.triggered_at, ev.applied_at), (1.0, 3.000001));
        assert!(ev.raised_locality());
        // The wait restarted when the plan came due, and the window that
        // raised locality set it to what the plan and the window cost:
        // 2 s and 1 µs.
        assert!(!core.paused());
        assert_eq!(core.next_check(), at(5 * sec + 1));
        assert_eq!(core.trigger(&mut x, at(5 * sec)), None);
        assert!(!core.paused(), "one microsecond short of the wait");
        assert_eq!(core.trigger(&mut x, at(5 * sec + 1)), Some(at(7 * sec + 1)));
    }

    #[test]
    fn a_measured_wait_replaces_the_configured_cooldown() {
        // The thread runtime's shape: the plan comes due on the trigger's
        // turn, its cost measured from the scope read's return.
        let (mut core, mut x) = two_remote_queries(adaptive());
        split_scopes(&core);
        assert_eq!(core.next_check(), SimTime::ZERO, "the first check plans");
        x.clock = at(4);
        assert_eq!(core.trigger(&mut x, at(2)), Some(at(2_000_002)));
        core.plan_due(at(14));
        assert!(core.paused(), "the plan moves something");
        for q in 0..2 {
            core.release(&mut x, QueryId(q), at(14));
        }
        x.clock = at(20);
        core.window_open(&x);
        core.window_apply(&mut x);
        core.window_end(&mut x, at(25));
        // The next wait counts from the plan's due instant: a plan time of
        // 10 µs plus a window of 5 µs.
        assert_eq!(core.next_check(), at(29));
        assert_eq!(core.trigger(&mut x, at(28)), None);
        assert_eq!(core.trigger(&mut x, at(29)), Some(at(2_000_029)));
    }

    #[test]
    fn a_hit_whose_plan_moves_nothing_opens_no_window() {
        let (mut core, mut x) = two_remote_queries(adaptive());
        // Each scope already lies on one partition: nothing to move.
        hold(&core, 0, 0, &[0, 1]);
        hold(&core, 1, 1, &[2, 3]);
        // The thread runtime's shape: the scopes are read by 2 µs and the
        // plan comes due on the trigger's turn, 3 µs later.
        x.clock = at(2);
        core.trigger(&mut x, at(2));
        core.plan_due(at(5));
        assert!(!core.paused(), "an empty plan wants no window");
        assert!(matches!(core.repartition, Repartition::None));
        assert_eq!(core.next_check(), at(8), "paced at once by the plan time");
        // A second empty plan, quicker, doubles the wait.
        x.clock = at(8);
        core.trigger(&mut x, at(8));
        core.plan_due(at(9));
        assert_eq!(core.next_check(), at(15));
        // Both queries go on without parking.
        x.log.clear();
        core.release(&mut x, QueryId(0), at(10));
        assert_eq!(x.log, vec![Op::Superstep(0, vec![1], 3, 1)]);
        assert!(core.parked.is_empty());
    }

    #[test]
    fn a_declined_trigger_leaves_the_pause_and_the_plan_untouched() {
        let mut cfg = adaptive();
        cfg.qcut.as_mut().expect("adaptive").locality_threshold = 0.4;
        let (mut core, mut x) = two_remote_queries(cfg);
        let task = ping();
        // One local superstep each lifts the mean locality to 0.5.
        for q in 0..2 {
            let q = QueryId(q);
            core.release(&mut x, q, at(2));
            let rep = StepReport {
                q,
                self_pending: true,
                ..report(&task, 1, &[])
            };
            assert_eq!(core.step_done(&mut x, rep, at(3), at(3)), Some(Close::Next));
            assert_eq!(core.query(q).stepping().out.locality(), 0.5);
        }
        assert_eq!(core.trigger(&mut x, at(4)), None);
        assert!(!core.paused() && matches!(core.repartition, Repartition::None));
        assert_eq!(core.next_check(), SimTime::ZERO, "the wait did not restart");
    }

    #[test]
    fn fewer_than_two_known_scopes_never_open_a_window() {
        // One live query, nothing retained: not even a look at locality.
        let (mut core, mut x, task) = (core(adaptive()), Script::default(), ping());
        core.submit(QueryId(0), Arc::new(ping()), at(0), None);
        core.admit(&mut x, at(0));
        for (w, to) in [(0, &[1][..]), (1, &[]), (2, &[])] {
            core.step_done(&mut x, report(&task, w, to), at(1), at(1));
        }
        hold(&core, 0, 0, &[0]);
        assert_eq!(core.trigger(&mut x, at(2)), None);
        assert!(matches!(core.repartition, Repartition::None));
        // A finished query's retained scope is the second one.
        let retained = vec![VertexId(4)];
        core.state
            .controller
            .record_finished_scope(QueryId(9), retained, at(2));
        assert_eq!(core.trigger(&mut x, at(3)), Some(at(2_000_003)));

        // The ILS input counts non-empty scopes: two live queries of
        // which one has an empty scope plan nothing, and the hit stays
        // wanted ...
        let (mut core, mut x) = two_remote_queries(adaptive());
        hold(&core, 0, 0, &[0]);
        hold(&core, 1, 0, &[]);
        assert_eq!(core.trigger(&mut x, at(2)), None);
        assert!(matches!(core.repartition, Repartition::Wanted));
        assert_eq!(core.next_check(), SimTime::ZERO, "the wait did not restart");
        // ... until the next check finds two scopes, and plans.
        hold(&core, 1, 1, &[2]);
        assert_eq!(core.trigger(&mut x, at(3)), Some(at(2_000_003)));
        assert!(matches!(core.repartition, Repartition::Budgeted(_, t, _) if t == at(3)));
        assert!(!core.paused());
    }

    #[test]
    fn a_hit_plans_once_the_scopes_it_lacked_are_retained() {
        // The records hold no local at rest (on threads, running Steps may
        // hold them all), so the hit finds no scope to plan over.
        let (mut core, mut x) = two_remote_queries(adaptive());
        assert_eq!(core.trigger(&mut x, at(2)), None);
        assert!(matches!(core.repartition, Repartition::Wanted));
        for (q, vs) in [(7, [0, 2]), (8, [1, 3])] {
            let scope = vs.map(VertexId).to_vec();
            core.state
                .controller
                .record_finished_scope(QueryId(q), scope, at(3));
        }
        for q in 0..2 {
            core.finish(&mut x, QueryId(q), at(3));
        }
        // No query runs any more, so the locality test would decline: the
        // wanted hit plans over the retained scopes without it, and the
        // window migrates them.
        assert_eq!(core.trigger(&mut x, at(4)), Some(at(2_000_004)));
        core.plan_due(at(4));
        assert!(core.paused());
        x.clock = at(5);
        core.window_open(&x);
        core.window_apply(&mut x);
        core.window_end(&mut x, at(6));
        assert!(x.log.contains(&Op::Migrate));
        assert_eq!(core.state.report.repartitions.len(), 1);
    }

    /// A tally seeded on partition 1 and admitted: its first superstep
    /// involves that one partition (budget: the pool's width, 3).
    fn solo_tally(sticky: bool, stop_at: u64) -> (Coordinator, Script, TypedTask<Tally>) {
        let program = Tally {
            seed: VertexId(2),
            hop: 0,
            sticky,
            stop_at,
        };
        let (mut core, mut x) = (core(SystemConfig::default()), Script::default());
        let task = Arc::new(TypedTask::new(program.clone()));
        core.submit(QueryId(0), task, at(0), None);
        core.admit(&mut x, at(1));
        let dispatched = vec![Op::Superstep(0, vec![1], 3, 0)];
        assert_eq!(std::mem::take(&mut x.log), dispatched);
        (core, x, TypedTask::new(program))
    }

    /// Partition 1 executed the tally's one vertex once, contributing
    /// `contribution`, sent nothing away and is still pending.
    fn local_report(contribution: u64) -> StepReport {
        StepReport {
            q: QueryId(0),
            worker: 1,
            stats: SuperstepStats {
                executed: 1,
                ..Default::default()
            },
            agg: Box::new(contribution),
            remote: Vec::new(),
            self_pending: true,
        }
    }

    /// What a lane does with query 0's solo supersteps contributing
    /// `contributions`: fold and close each on the record, beginning the
    /// next in place while the query goes on. No coordinator turn.
    fn close_on_the_lane(core: &Coordinator, task: &dyn QueryTask, contributions: &[u64]) -> Close {
        let mut step = core.query(QueryId(0)).stepping();
        let mut close = Close::Next;
        for (i, &c) in contributions.iter().enumerate() {
            if i > 0 {
                assert_eq!(close, Close::Next, "closed past a termination");
                step.begin();
            }
            assert!(step.fold(task, local_report(c)), "solo: its last Step");
            close = step.close(task);
        }
        close
    }

    fn tally_of(aggregate: &Envelope) -> u64 {
        *aggregate.downcast_ref::<u64>().expect("a tally aggregate")
    }

    #[test]
    fn a_chained_report_folds_like_the_same_supersteps_reported_one_by_one() {
        for (sticky, left) in [(false, 3), (true, 6)] {
            // One by one: local supersteps contributing 1, 2 and 3, a
            // report to the core and a release each.
            let (mut single, mut x, _) = solo_tally(sticky, u64::MAX);
            for c in [1, 2, 3] {
                let outcome = single.step_done(&mut x, local_report(c), at(1 + c), at(1 + c));
                assert_eq!(outcome, Some(Close::Next));
                if c < 3 {
                    single.release(&mut x, QueryId(0), at(1 + c));
                }
            }
            // Chained on the lane: the same three, closed through the
            // record's one fold and close, the next begun in place.
            let (chained, y, task) = solo_tally(sticky, u64::MAX);
            assert_eq!(close_on_the_lane(&chained, &task, &[1, 2, 3]), Close::Next);
            assert!(y.log.is_empty(), "two coordinator turns never happened");

            let (a, b) = (single.query(QueryId(0)), chained.query(QueryId(0)));
            let (a, b) = (a.stepping(), b.stepping());
            // 3 supersteps, all local, 3 vertex updates, 3 tasks at DoP 1.
            assert_eq!(work(&b.out), [3, 3, 3, 0, 0, 0, 3, 1]);
            assert_eq!(work(&a.out), work(&b.out));
            assert_eq!((tally_of(&a.agg_prev), tally_of(&b.agg_prev)), (left, left));
            assert_eq!((&a.next_involved, &b.next_involved), (&vec![1], &vec![1]));
        }
    }

    #[test]
    fn a_query_its_lane_terminated_completes_from_the_locals_in_its_record() {
        // Sticky and stopping at 3: the third close ends the query, on the
        // lane, whose Steps left the one local in the record. The core's
        // one turn finalizes over it and completes the query.
        let (mut core, mut x, task) = solo_tally(true, 3);
        assert_eq!(
            close_on_the_lane(&core, &task, &[1, 1, 1]),
            Close::Terminate
        );
        let record = Arc::clone(core.query(QueryId(0)));
        let mut local = record.task.new_local();
        let held: Moved<Tally> = vec![(VertexId(2), Some(()), Vec::new())];
        local.inject(Box::new(held));
        record.stepping().locals[1] = Some(local);
        core.finish(&mut x, QueryId(0), at(2));
        assert_eq!(x.log, vec![Op::Complete(0)]);
        assert!(core.quiet());
        assert!(
            record.stepping().locals.iter().all(Option::is_none),
            "the finish took every local out"
        );
        let outcomes = &core.state.report.outcomes;
        assert_eq!(outcomes.len(), 1);
        // One vertex in the finished scope.
        assert_eq!(work(&outcomes[0]), [3, 3, 3, 0, 0, 1, 3, 1]);
    }

    #[test]
    fn a_chained_report_under_a_wanted_window_parks_at_its_release() {
        let (mut core, mut x, task) = solo_tally(false, u64::MAX);
        let mut batch = MutationBatch::new();
        batch.add_edge(0, 1, 1.0);
        core.mutate(batch);
        assert!(core.paused());
        // The lane closes five, sees the window wanted and hands the query
        // back: the core parks it at its release.
        assert_eq!(close_on_the_lane(&core, &task, &[1; 5]), Close::Next);
        core.release(&mut x, QueryId(0), at(2));
        assert!(x.log.is_empty() && core.parked == vec![QueryId(0)]);
        assert_eq!(core.query(QueryId(0)).stepping().out.iterations, 5);
        // The window resumes it where its messages are, as superstep 5.
        x.clock = at(3);
        core.window_open(&x);
        core.window_apply(&mut x);
        x.log.clear();
        core.window_end(&mut x, at(4));
        let resumed = vec![Op::Superstep(0, vec![1], 3, 5)];
        assert_eq!(x.log, resumed);
    }

    #[test]
    fn only_a_one_partition_dispatch_carries_the_solo_hint() {
        // The hint is the involved set itself: a lane executes the next
        // superstep in place only when its record involves one partition.
        // An unbudgeted ping over three partitions: all three at once.
        let cfg = SystemConfig::default();
        let (mut core, mut x, task) = (core(cfg), Script::default(), ping());
        core.submit(QueryId(0), Arc::new(ping()), at(0), None);
        core.admit(&mut x, at(1));
        let supersteps = |log: &[Op]| -> Vec<Op> {
            let dispatched = log.iter().filter(|op| matches!(op, Op::Superstep(..)));
            dispatched.cloned().collect()
        };
        let first = Op::Superstep(0, vec![0, 1, 2], 3, 0);
        assert_eq!(supersteps(&x.log), vec![first]);
        // Two partitions pending: still a shared superstep.
        for (w, to) in [(0, &[1][..]), (1, &[2]), (2, &[])] {
            core.step_done(&mut x, report(&task, w, to), at(2), at(2));
        }
        x.log.clear();
        core.release(&mut x, QueryId(0), at(3));
        let shared = Op::Superstep(0, vec![1, 2], 3, 1);
        assert_eq!(supersteps(&x.log), vec![shared]);
        // One partition pending: the superstep's only task.
        core.step_done(&mut x, report(&task, 1, &[]), at(4), at(4));
        core.step_done(&mut x, report(&task, 2, &[0]), at(4), at(4));
        x.log.clear();
        core.release(&mut x, QueryId(0), at(5));
        let solo = Op::Superstep(0, vec![0], 3, 2);
        assert_eq!(supersteps(&x.log), vec![solo]);
    }

    /// A point-shaped program whose traversal never runs in these tests.
    struct Probe;

    impl VertexProgram for Probe {
        type State = ();
        type Message = ();
        type Aggregate = ();
        type Output = u32;
        fn name(&self) -> &'static str {
            "probe"
        }
        fn init_state(&self) {}
        fn aggregate_identity(&self) {}
        fn aggregate_combine(&self, _: &mut (), _: &()) {}
        fn initial_messages(&self, _: &Topology) -> Vec<(VertexId, ())> {
            vec![(VertexId(0), ())]
        }
        fn compute(
            &self,
            _: &Topology,
            _: VertexId,
            _: &mut (),
            _: &[()],
            _: &mut Context<'_, (), ()>,
        ) {
        }
        fn finalize(&self, _: &Topology, _: &mut dyn Iterator<Item = (VertexId, ())>) -> u32 {
            0
        }
        fn point_query(&self) -> Option<PointQuery> {
            Some(PointQuery::Reach {
                source: VertexId(0),
                target: VertexId(1),
            })
        }
        fn output_from_answer(&self, _: &PointAnswer) -> Option<u32> {
            Some(7)
        }
    }

    /// An index that answers everything and is always repaired.
    struct Oracle;

    impl PointIndex for Oracle {
        fn serve(&self, _: &PointQuery) -> Option<PointAnswer> {
            Some(PointAnswer::Reach(true))
        }
        fn repaired_through(&self) -> u64 {
            u64::MAX
        }
        fn repair(&mut self, _: &Topology, _: &AppliedMutation, _: u64) -> RepairSummary {
            RepairSummary::default()
        }
    }

    /// The work counters an outcome carries.
    fn work(o: &QueryOutcome) -> [u64; 8] {
        [
            u64::from(o.iterations),
            u64::from(o.local_iterations),
            o.vertex_updates,
            o.remote_messages,
            o.remote_batches,
            o.scope_size,
            o.tasks,
            u64::from(o.effective_dop),
        ]
    }

    #[test]
    fn the_outcome_constructor_covers_all_four_ways_out() {
        let cfg = SystemConfig {
            max_queued: Some(2),
            ..serial()
        };
        let (mut core, mut x, task) = (core(cfg), Script::default(), ping());
        core.state.index = Some(Box::new(Oracle));
        let empty = PingProgram {
            ring: Vec::new(),
            rounds: 0,
        };
        // Queue depth 2: the third arrival bounces.
        assert!(core.submit(QueryId(0), Arc::new(ping()), at(1), None));
        assert!(core.submit(QueryId(1), Arc::new(TypedTask::new(Probe)), at(2), None));
        assert!(!core.submit(
            QueryId(2),
            Arc::new(TypedTask::new(empty.clone())),
            at(3),
            None
        ));
        core.admit(&mut x, at(4));
        assert!(core.submit(QueryId(3), Arc::new(TypedTask::new(empty)), at(5), None));
        core.admit(&mut x, at(6));

        // q0 traverses: one superstep before and one after a mutation epoch.
        core.step_done(&mut x, report(&task, 0, &[1]), at(7), at(7));
        core.step_done(&mut x, report(&task, 1, &[]), at(8), at(8));
        core.step_done(&mut x, report(&task, 2, &[]), at(9), at(9));
        let mut batch = MutationBatch::new();
        batch.add_edge(0, 1, 1.0);
        core.mutate(batch);
        core.release(&mut x, QueryId(0), at(10));
        x.clock = at(11);
        core.window_open(&x);
        core.window_apply(&mut x);
        core.window_end(&mut x, at(12));
        assert!(x.log.contains(&Op::PublishTopology(1)));
        x.log.clear();
        let outcome = core.step_done(&mut x, report(&task, 1, &[]), at(13), at(14));
        assert_eq!(outcome, Some(Close::Terminate));
        assert_eq!(x.log[0], Op::Complete(0), "finished at once, no round");

        let by_id = |id: u32| {
            let outcomes = &core.state.report.outcomes;
            *outcomes
                .iter()
                .find(|o| o.id == QueryId(id))
                .expect("recorded")
        };
        let rejected = by_id(2);
        assert_eq!(rejected.status, OutcomeStatus::Rejected);
        assert_eq!((rejected.queued_at, rejected.completed_at), (at(3), at(3)));
        assert_eq!(work(&rejected), [0; 8]);

        let indexed = by_id(1);
        assert_eq!(
            (indexed.status, indexed.served_by),
            (OutcomeStatus::Completed, ServedBy::Index)
        );
        assert_eq!(
            (
                indexed.queued_at,
                indexed.submitted_at,
                indexed.completed_at
            ),
            (at(2), at(4), at(4))
        );
        assert_eq!(work(&indexed), [0; 8]);

        let hollow = by_id(3);
        assert_eq!(
            (hollow.status, hollow.served_by),
            (OutcomeStatus::Completed, ServedBy::Traversal)
        );
        assert_eq!((hollow.submitted_at, hollow.completed_at), (at(6), at(6)));
        assert_eq!((work(&hollow), hollow.program), ([0; 8], "ping"));

        let traversed = by_id(0);
        assert_eq!(traversed.served_by, ServedBy::Traversal);
        assert_eq!(
            (
                traversed.queued_at,
                traversed.submitted_at,
                traversed.completed_at
            ),
            (at(1), at(4), at(14))
        );
        assert_eq!((traversed.first_epoch, traversed.last_epoch), (0, 1));
        // 2 supersteps (the second one local), 4 vertex updates, 1 remote
        // message in 1 batch, no scope in the record, 3 + 1 tasks at DoP 1.
        assert_eq!(work(&traversed), [2, 1, 4, 1, 1, 0, 4, 1]);
        for id in [1, 2, 3] {
            assert_eq!((by_id(id).first_epoch, by_id(id).last_epoch), (0, 0));
        }
    }
}
