//! The coordinator core: the paper's one controller protocol, written
//! once as a sans-IO state machine that both runtimes execute.
//!
//! [`Coordinator`] owns everything protocol-shaped — the policy-ordered
//! admission queue and the closed-loop slots, every live query's
//! superstep state, release (*which* partitions compute a superstep, in
//! *which* order, under what DoP budget — handed to the executor as one
//! [`Superstep`]), step-completion accounting (aggregate roll-over,
//! locality via [`barrier::is_local`], the next involved set, terminate →
//! collect → outcome), parking while a stop-the-world window is wanted,
//! the window body itself (mutation epochs → compaction → index repair →
//! Q-cut migration, publications, event stamping, unpark + re-admit), and
//! every protocol-level hb / tracer stamp. It performs no IO and spawns
//! nothing: it takes *inputs* (submit, mutate, install-index, a step-done
//! report, a collected local, clock readings) and emits *dispatches*
//! through the statically-dispatched [`Executor`] it is handed.
//!
//! An executor answers "run this dispatch, tell me when it is done":
//! [`SimEngine`](crate::SimEngine) prices dispatches on a virtual clock,
//! [`ThreadEngine`](crate::ThreadEngine) turns them into pool commands.
//! Neither knows about parked sets, locality counting or outcome fields.
//!
//! ## One superstep, one dispatch, one close
//!
//! A query's superstep state is one [`Stepping`] record behind a shared
//! lock ([`Record`]), with one fold ([`Stepping::fold`], a finished Step's
//! [`StepReport`]) and one close ([`Stepping::close`]); whoever observes a
//! superstep's last Step closes it there. [`Coordinator::step_done`] is
//! fold + close, for the simulation's reports; the thread runtime's lanes
//! fold, close and release the next superstep themselves (see
//! [`crate::runtime`]), so its core hears of a query only when it
//! terminates, parks for a window, or a Q-cut check is due.
//!
//! What an executor owes for a dispatched superstep
//! ([`Executor::superstep`]) is the BSP contract: every involved partition
//! executes exactly the input that was pending for it when the superstep
//! began — nothing a Step of this superstep sends may reach another Step
//! of it, however late that one runs — at most `dop` Steps run at once,
//! and the held-back partitions go in `involved` order, one per completing
//! Step ([`Stepping::next_deferred`]), decided where the completion is
//! observed. The messages a Step sends away travel executor-side too; the
//! core routes nothing but a query's initial batches
//! ([`Executor::deliver`]).
//!
//! ## The Q-cut trigger
//!
//! There is one (paper §3.4): [`Coordinator::trigger`], called with the
//! executor's own clock reading — virtual seconds in the simulation,
//! session wall-clock seconds on threads. The simulation calls it after
//! every superstep close; the thread runtime when a lane closes a
//! superstep at or after [`Coordinator::next_check`] (the cooldown's end;
//! a check that declines leaves it due, so the next close checks again).
//! The core tests the cooldown, then the mean lifetime locality of the
//! running queries against Φ — read live from their records — and the
//! activity imbalance of the last μ/8 sub-window
//! ([`Coordinator::note_activity`]) against its threshold. Only *when the
//! ILS runs* differs, by what [`Executor::scopes_readable_live`] answers:
//!
//! * yes (one address space — the simulation): the ILS runs at the
//!   trigger, hidden behind query processing as in the paper, and its
//!   plan is applied by the window that opens one priced
//!   `ils_budget_secs` later ([`Coordinator::plan_due`]);
//! * no (real threads — a scope report needs quiescent partitions): the
//!   trigger asks for the window at once and the ILS runs inside it,
//!   from the scopes gathered there.
//!
//! Either way the cooldown starts when the window is asked for.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use rustc_hash::FxHashMap;

use qgraph_graph::{MutationBatch, Topology, VertexId};
use qgraph_partition::Partitioning;
use qgraph_sim::SimTime;

use crate::barrier;
use crate::config::{QcutConfig, SystemConfig};
use crate::controller::{apply_mutation_epochs, Controller};
use crate::hb::Hb;
use crate::index_plane::PointIndex;
use crate::qcut::{migrate, run_qcut, IlsResult, Migration};
use crate::query::{OutcomeStatus, QueryId, QueryOutcome, ServedBy};
use crate::report::{ActivitySample, EngineReport, RepartitionEvent};
use crate::sched::{try_index_path, QueueEntry, Scheduler};
use crate::task::{Envelope, MessageBatch, QueryTask};
use crate::trace::{outcome_code, Tracer};
use crate::worker::{LocalState, SuperstepStats};

/// One whole superstep of one query, as the core hands it to an executor
/// (see the module docs for what the executor owes).
pub(crate) struct Superstep<'a> {
    pub task: &'a Arc<dyn QueryTask>,
    /// The query's record, locked by the core for the call (`step`): an
    /// executor may close supersteps where they end. `step.out.iterations`
    /// is the superstep's index; a Step of superstep `n` produces input of
    /// superstep `n + 1`. Superstep 0 is dispatched by admission; every
    /// later one follows a close (a barrier release, or a window resuming
    /// a parked query).
    pub record: &'a Record,
    pub step: &'a Stepping,
}

/// The dispatch vocabulary. The three `*_report`/`migrate` calls are
/// synchronous and only issued while the partitions are idle.
pub(crate) trait Executor {
    /// A clock reading. Inside a window it advances as the executor
    /// completes (or prices) the window's work.
    fn now(&self) -> SimTime;
    /// Query `q` was admitted with `batch` addressed to `w`: input of its
    /// superstep 0 there.
    fn deliver(&mut self, q: QueryId, w: usize, task: &dyn QueryTask, batch: MessageBatch);
    /// Run `q`'s next superstep and close it (see the module docs).
    fn superstep(&mut self, q: QueryId, s: Superstep<'_>);
    /// Hand back `q`'s local state on every partition in `touched` (the
    /// query terminated): right away (one address space), or `None` and
    /// later, all at once, as a [`Coordinator::collected`] input.
    fn collect(&mut self, q: QueryId, touched: Vec<usize>) -> Option<Locals>;
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
    /// Whether [`Executor::scope_report`] can also be answered while
    /// partitions compute — which decides when the ILS runs (see the
    /// module docs).
    fn scopes_readable_live(&self) -> bool;
    /// Every `(query, partition, live scope vertices)` triple.
    fn scope_report(&mut self) -> Vec<(QueryId, usize, Vec<VertexId>)>;
    /// Move the resolved transfers' vertex state *and* pending inboxes;
    /// `task_of` resolves a live query's task. Returns the `(query,
    /// partition)` pairs that gained state.
    fn migrate(
        &mut self,
        migration: &Migration,
        task_of: &dyn Fn(QueryId) -> Arc<dyn QueryTask>,
    ) -> Vec<(QueryId, usize)>;
    /// Every `(query, partition)` pair with pending messages.
    fn pending_report(&mut self) -> Vec<(QueryId, usize)>;
}

/// One finished `Step`, as its partition reports it.
pub(crate) struct StepReport {
    pub q: QueryId,
    pub worker: usize,
    /// Executions and remote traffic (post/pre sender-side combining,
    /// wire batches under the configured cap).
    pub stats: SuperstepStats,
    pub agg: Envelope,
    /// The partitions the step sent messages to (the executor carries the
    /// messages themselves).
    pub remote: Vec<usize>,
    /// The partition still holds pending messages for `q` after the step.
    pub self_pending: bool,
}

/// A terminated query's collected local states.
pub(crate) type Locals = Vec<Box<dyn LocalState>>;

/// A query's superstep state, shared by the core and whoever closes its
/// supersteps (see the module docs).
pub(crate) type Record = Arc<Mutex<Stepping>>;

/// Lock a record, a mailbox or a collect, recovering from poisoning: each
/// update leaves them valid, and a panic elsewhere surfaces on its own.
pub(crate) fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// One admitted query's superstep state.
pub(crate) struct Stepping {
    /// The outcome under construction: work counters accumulate in place.
    pub out: QueryOutcome,
    /// DoP budget ([`crate::DopPolicy::budget`], fixed at admission).
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
    /// Partitions holding state for the query (sorted) — the collect set.
    pub touched: Vec<usize>,
}

/// What a closed superstep leaves its query to do: start the next one
/// over `next_involved` (or park first), or be collected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Close {
    Next,
    Terminate,
}

impl Stepping {
    /// A query's record at admission: nothing pending, nothing touched.
    pub fn new(task: &dyn QueryTask, out: QueryOutcome, dop: usize, partitions: usize) -> Self {
        Stepping {
            out,
            dop,
            outstanding: 0,
            released: 0,
            involved_cur: Vec::new(),
            next_involved: Vec::with_capacity(partitions),
            crossed: false,
            agg_prev: task.aggregate_identity(),
            agg_acc: task.aggregate_identity(),
            touched: Vec::with_capacity(partitions),
        }
    }

    /// Start the next superstep: the pending set becomes the involved set,
    /// and the first `dop` of it are released.
    pub fn begin(&mut self) {
        std::mem::swap(&mut self.involved_cur, &mut self.next_involved);
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

    /// Fold one finished Step in: its work, where its messages went, its
    /// aggregate contribution. True when it was the superstep's last.
    pub fn fold(&mut self, task: &dyn QueryTask, rep: &StepReport) -> bool {
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
        for &w in &rep.remote {
            insert_sorted(&mut self.next_involved, w);
            insert_sorted(&mut self.touched, w);
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
pub(crate) struct EngineState {
    pub topology: Topology,
    pub partitioning: Partitioning,
    pub controller: Controller,
    pub index: Option<Box<dyn PointIndex>>,
    pub report: EngineReport,
}

/// One admitted query.
pub(crate) struct QueryRun {
    pub task: Arc<dyn QueryTask>,
    pub record: Record,
    /// Latest instant any of the query's steps finished, as the executor
    /// reported it to [`Coordinator::step_done`].
    pub last_done: SimTime,
}

impl QueryRun {
    pub fn stepping(&self) -> MutexGuard<'_, Stepping> {
        relock(&self.record)
    }
}

/// The repartition the next window applies.
enum Repartition {
    None,
    /// Planned at the trigger; its ILS budget has not elapsed yet.
    Budgeted(IlsResult, SimTime),
    /// Apply at the next window: a budgeted plan that came due, or
    /// (`None`) plan inside the window from the scopes gathered there.
    Due(Option<IlsResult>, SimTime),
}

/// An open stop-the-world window: where its report events start.
struct Window {
    entered: SimTime,
    mutations_from: usize,
    repartitions_from: usize,
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
    /// Tasks of queued submissions, until admission moves them into a run.
    waiting: FxHashMap<QueryId, Arc<dyn QueryTask>>,
    /// Admitted, unfinished queries — ordered, so every float sum over
    /// them is taken in the same (id) order on every run.
    queries: BTreeMap<QueryId, QueryRun>,
    /// No more admissions (shutdown requested): running queries finish.
    closed: bool,
    /// A window is wanted or open: no admissions, and queries reaching
    /// their barrier park instead of releasing.
    paused: bool,
    parked: Vec<QueryId>,
    mutations: Vec<MutationBatch>,
    repartition: Repartition,
    window: Option<Window>,
    /// The trigger's straggler watch (Q-cut on): per-partition vertex
    /// updates over a rolling sub-window — an eighth of the monitoring
    /// window μ — of the executor's clock, and the imbalance of the last
    /// sub-window that completed with any work in it.
    activity: Vec<usize>,
    activity_since: SimTime,
    activity_imbalance: f64,
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
    /// published before any partition can read them.
    pub fn new(mut state: EngineState, cfg: SystemConfig, hb: Hb, tracer: Tracer) -> Self {
        let k = state.partitioning.num_workers();
        state.report.admission_policy = cfg.admission.label().to_string();
        hb.publish_topology(0, state.topology.epoch());
        hb.publish_partitioning(0);
        Coordinator {
            scheduler: Scheduler::bounded(cfg.admission.clone(), cfg.max_queued),
            activity: vec![0; k],
            activity_since: SimTime::ZERO,
            activity_imbalance: 0.0,
            state,
            cfg,
            hb,
            tracer,
            waiting: FxHashMap::default(),
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
        let mid = |r: &&QueryRun| r.stepping().outstanding > 0;
        self.queries.values().filter(mid).count()
    }

    /// When the next Q-cut check is due: the cooldown's end, or never (Q-cut
    /// off, or a window wanted). A check that declines leaves it due.
    pub fn next_check(&self) -> SimTime {
        match &self.cfg.qcut {
            Some(cfg) if !self.paused => {
                let cooldown = SimTime::from_secs_f64(cfg.min_repartition_interval_secs);
                self.state.controller.last_repartition + cooldown
            }
            _ => SimTime::MAX,
        }
    }

    /// Live query `q`'s superstep state (`q` must be live).
    pub fn run(&self, q: QueryId) -> &QueryRun {
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
        if self.scheduler.push(q, program, arrival, deadline) {
            self.waiting.insert(q, task);
            return true;
        }
        // Backpressure: the submission never executes, its output stays
        // `None`, every lifecycle stamp is the arrival instant.
        let epoch = self.state.topology.epoch();
        let mut out = blank_outcome(q, program, arrival, arrival, epoch);
        out.status = OutcomeStatus::Rejected;
        self.conclude(out, outcome_code::REJECTED);
        false
    }

    /// A mutation batch to apply at the next window (a new graph epoch).
    pub fn mutate(&mut self, batch: MutationBatch) {
        self.mutations.push(batch);
        self.paused = true;
    }

    /// Install (or replace) the point-query label index.
    pub fn install_index(&mut self, index: Box<dyn PointIndex>) {
        self.state.index = Some(index);
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
        let q = entry.q;
        let Some(task) = self.waiting.remove(&q) else {
            debug_assert!(false, "queued {q} has no registered task");
            return;
        };
        let st = &self.state;
        let epoch = st.topology.epoch();
        let mut out = blank_outcome(q, task.program_name(), entry.enqueued_at, now, epoch);

        // Index fast path: an eligible point query whose index is repaired
        // through the admission epoch completes here, without occupying a
        // closed-loop slot or touching a partition.
        if let Some(output) = try_index_path(task.as_ref(), st.index.as_deref(), epoch) {
            out.served_by = ServedBy::Index;
            x.complete(q, output);
            self.conclude(out, outcome_code::INDEX_SERVED);
            return;
        }

        // Route against the *current* assignment and topology.
        let pool_width = Self::pool_width(&self.cfg, st.partitioning.num_workers());
        let route = |v: VertexId| st.partitioning.worker_of(v).index();
        let batches = task.initial_batches(&st.topology, &route, self.cfg.combiners);
        // The budget is fixed at admission for the query's lifetime.
        let dop = self.cfg.dop.budget(task.as_ref(), pool_width).max(1);
        let mut step = Stepping::new(task.as_ref(), out, dop, batches.len());
        // `initial_batches` is sorted by partition, so both sets are too.
        for (w, batch) in batches {
            step.touched.push(w);
            step.next_involved.push(w);
            x.deliver(q, w, task.as_ref(), batch);
        }
        let empty = step.next_involved.is_empty();
        let run = QueryRun {
            task,
            record: Arc::new(Mutex::new(step)),
            last_done: now,
        };
        self.queries.insert(q, run);
        if empty {
            // No initial messages: finalize over the empty state set.
            self.collected(x, q, Vec::new(), now);
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
        let Some(run) = self.queries.get(&q) else {
            debug_assert!(false, "released {q} is no longer live");
            return;
        };
        let mut step = run.stepping();
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
        x.superstep(
            q,
            Superstep {
                task: &run.task,
                record: &run.record,
                step: &step,
            },
        );
    }

    /// A Step finished at `done_at` (≥ `now` when the executor prices the
    /// send that follows the compute): fold its report into the query's
    /// record and, when it was the superstep's last, close the superstep —
    /// `None` while Steps of it are still running. On `Next` the query
    /// waits at its barrier ([`Coordinator::release`]); on `Terminate` it
    /// is collected. The simulation's path; the thread runtime's lanes fold
    /// and close on their own.
    pub fn step_done<X: Executor>(
        &mut self,
        x: &mut X,
        rep: StepReport,
        now: SimTime,
        done_at: SimTime,
    ) -> Option<Close> {
        let q = rep.q;
        self.note_activity(now, rep.worker, rep.stats.executed as u64);
        let Some(run) = self.queries.get_mut(&q) else {
            panic!("protocol invariant: step report for {q}, which is not live");
        };
        run.last_done = run.last_done.max(done_at);
        // The executor releases the superstep's deferred Steps on its own
        // — even while a window is wanted: the superstep must complete
        // before the query can park.
        let mut step = run.stepping();
        if !step.fold(run.task.as_ref(), &rep) {
            return None;
        }
        self.tracer.superstep_done(secs(now), u64::from(q.0));
        let close = step.close(run.task.as_ref());
        drop(step);
        if close == Close::Terminate {
            self.finish(x, q, now);
        }
        Some(close)
    }

    /// `executed` vertex updates on `worker`, seen at `now`: a report
    /// sample, and the straggler watch when Q-cut runs — per Step report in
    /// the simulation, per partition whenever the thread coordinator looks.
    pub fn note_activity(&mut self, now: SimTime, worker: usize, executed: u64) {
        let t = secs(now);
        let report = &mut self.state.report;
        report.activity.push(ActivitySample {
            t,
            worker,
            executed,
        });
        if let Some(qcut) = &self.cfg.qcut {
            let sub_window = SimTime::from_secs_f64(qcut.monitoring_window_secs / 8.0);
            if now.saturating_sub(self.activity_since) >= sub_window {
                if self.activity.iter().any(|&a| a > 0) {
                    self.activity_imbalance = qgraph_partition::imbalance(&self.activity);
                }
                self.activity.fill(0);
                self.activity_since = now;
            }
            self.activity[worker] += executed as usize;
        }
    }

    /// Query `q` terminated: collect its state from every partition that
    /// holds any.
    fn finish<X: Executor>(&mut self, x: &mut X, q: QueryId, now: SimTime) {
        let Some(run) = self.queries.get(&q) else {
            return;
        };
        let touched = std::mem::take(&mut run.stepping().touched);
        if let Some(locals) = x.collect(q, touched) {
            self.collected(x, q, locals, now);
        }
    }

    /// Query `q` terminated and its collected locals arrived: finalize it
    /// and free its closed-loop slot.
    pub fn collected<X: Executor>(&mut self, x: &mut X, q: QueryId, locals: Locals, now: SimTime) {
        let Some(run) = self.queries.remove(&q) else {
            panic!("protocol invariant: collected locals for {q}, which is not live");
        };
        let mut out = run.stepping().out;
        let at = run.last_done.max(now);
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
        x.complete(q, run.task.finalize(&self.state.topology, locals));
        self.conclude(out, outcome_code::COMPLETED);
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
        report.outcomes.push(out);
    }

    // ------------------------------------------------------------------
    // The Q-cut trigger
    // ------------------------------------------------------------------

    /// A run boundary (the engine went idle): the straggler watch starts
    /// over, so a trigger early in the next burst never measures
    /// imbalance across the gap.
    pub fn restart_activity_watch(&mut self, now: SimTime) {
        self.activity.fill(0);
        self.activity_since = now;
        self.activity_imbalance = 0.0;
    }

    /// The repartition trigger (paper §3.4), evaluated after a superstep
    /// closes — see the module docs. When the ILS ran here, returns the
    /// instant its budget elapses, at which the executor calls
    /// [`Coordinator::plan_due`]; otherwise a hit wants a window at once.
    pub fn trigger<X: Executor>(&mut self, x: &mut X, now: SimTime) -> Option<SimTime> {
        if self.paused {
            return None;
        }
        let cfg = self.cfg.qcut.as_ref()?;
        // Only scopes within the monitoring window may feed the trigger.
        let controller = &mut self.state.controller;
        controller.expire(now);
        // Fewer than two known scopes make a repartition meaningless (a
        // solo query never repartitions).
        if self.queries.len() + controller.retained() < 2 {
            return None;
        }
        // Lifetime locality of the running queries, in id order, read
        // from their records as they stand.
        let localities = self.queries.values().filter_map(|r| {
            let step = r.stepping();
            (step.out.iterations > 0).then(|| step.out.locality())
        });
        if !controller.should_trigger(now, self.activity_imbalance, localities) {
            return None;
        }
        if !x.scopes_readable_live() {
            controller.last_repartition = now;
            self.repartition = Repartition::Due(None, now);
            self.paused = true;
            return None;
        }
        let (_, live) = self.gather_scopes(x);
        let result = self.plan(&live, cfg)?;
        self.state.controller.ils_inflight = true;
        self.repartition = Repartition::Budgeted(result, now);
        Some(now + SimTime::from_secs_f64(cfg.ils_budget_secs))
    }

    /// The budgeted plan's ILS budget elapsed: the cooldown starts, and a
    /// non-empty plan wants a window.
    pub fn plan_due(&mut self, now: SimTime) {
        self.state.controller.ils_inflight = false;
        self.state.controller.last_repartition = now;
        if let Repartition::Budgeted(result, triggered_at) =
            std::mem::replace(&mut self.repartition, Repartition::None)
        {
            if !result.plan.is_empty() {
                self.repartition = Repartition::Due(Some(result), triggered_at);
                self.paused = true;
            }
        }
    }

    /// The live queries' scopes, per partition (sorted by query, then
    /// partition) and unioned per query (sorted by query).
    #[allow(clippy::type_complexity)]
    fn gather_scopes<X: Executor>(
        &self,
        x: &mut X,
    ) -> (
        Vec<(QueryId, usize, Vec<VertexId>)>,
        Vec<(QueryId, Vec<VertexId>)>,
    ) {
        let mut local = x.scope_report();
        local.retain(|(q, _, _)| self.queries.contains_key(q));
        local.sort_unstable_by_key(|(q, w, _)| (*q, *w));
        let mut live: Vec<(QueryId, Vec<VertexId>)> = Vec::new();
        for (q, _, vs) in &local {
            match live.last_mut() {
                Some((last, all)) if last == q => all.extend_from_slice(vs),
                _ => live.push((*q, vs.clone())),
            }
        }
        (local, live)
    }

    /// One ILS run over the live + retained scopes; `None` when fewer
    /// than two scopes make a repartition meaningless.
    fn plan(&self, live: &[(QueryId, Vec<VertexId>)], cfg: &QcutConfig) -> Option<IlsResult> {
        let st = &self.state;
        let stats = st.controller.build_scope_stats(live, &st.partitioning);
        (stats.queries.len() >= 2).then(|| run_qcut(&stats, cfg))
    }

    // ------------------------------------------------------------------
    // The stop-the-world window
    // ------------------------------------------------------------------

    /// Open the window once the executor's partitions are quiescent. The
    /// executor may then touch them (the thread runtime flushes their
    /// mailboxes) before it runs [`Coordinator::window_apply`].
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
        });
    }

    /// The window body, in the window [`Coordinator::window_open`]
    /// opened: apply every queued mutation batch (each a new graph epoch;
    /// compaction and index repair ride along), then the due repartition.
    /// One window serves both, so a mutation landing while a Q-cut phase
    /// is pending costs no extra quiesce. The executor calls
    /// [`Coordinator::window_end`] when the window's work is done.
    pub fn window_apply<X: Executor>(&mut self, x: &mut X) {
        let Some(entered) = self.window.as_ref().map(|w| w.entered) else {
            debug_assert!(false, "window_apply without an open window");
            return;
        };
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
        if let Repartition::Due(planned, triggered_at) =
            std::mem::replace(&mut self.repartition, Repartition::None)
        {
            self.tracer.qcut_begin(secs(x.now()));
            self.repartition_phase(x, planned, triggered_at, entered);
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
        planned: Option<IlsResult>,
        triggered_at: SimTime,
        entered: SimTime,
    ) {
        let Some(cfg) = self.cfg.qcut.as_ref() else {
            return;
        };
        let (local, live) = self.gather_scopes(x);
        let planned = planned.or_else(|| self.plan(&live, cfg).filter(|r| !r.plan.is_empty()));
        let Some(result) = planned else {
            return;
        };
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
        let observed = st.controller.observed_scopes(&live);
        // Only live queries hold state on a partition: `Collect` took a
        // finished one's.
        let task_of = |q: QueryId| Arc::clone(&queries[&q].task);
        let mut gained = Vec::new();
        let (locality_before, locality_after) =
            migrate::apply_measured(&migration, &mut st.partitioning, &observed, || {
                gained = x.migrate(&migration, &task_of);
            });
        let version = self.hb.publish_partitioning(0);
        x.publish_partitioning(&st.partitioning, version);
        st.report.repartitions.push(RepartitionEvent {
            triggered_at: secs(triggered_at),
            applied_at: secs(entered),
            barrier_duration: 0.0, // stamped once the window's end is known
            moved_vertices: migration.moved_vertices,
            locality_before,
            locality_after,
            ils: result,
        });
        for (q, w) in gained {
            if let Some(run) = self.queries.get(&q) {
                insert_sorted(&mut run.stepping().touched, w);
            }
        }
        // The migration moved pending inboxes between partitions: rebuild
        // the next involved set of every query waiting at its barrier.
        for run in self.queries.values() {
            let mut step = run.stepping();
            if step.outstanding == 0 {
                step.next_involved.clear();
            }
        }
        for (q, w) in x.pending_report() {
            if let Some(run) = self.queries.get(&q) {
                let mut step = run.stepping();
                if step.outstanding == 0 {
                    insert_sorted(&mut step.next_involved, w);
                }
            }
        }
    }

    /// The window's work finished at `now`: stamp its duration on the
    /// events it recorded, close it, resume the parked queries against
    /// the (possibly new) layout and re-open admissions.
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
        for ev in &mut report.repartitions[win.repartitions_from..] {
            ev.barrier_duration = duration;
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
    use crate::index_plane::{PointAnswer, PointQuery, RepairSummary};
    use crate::program::{Context, VertexProgram};
    use crate::programs::{PingProgram, Tally};
    use crate::qcut::{MovePlan, ScopeMove};
    use crate::sched::DopPolicy;
    use crate::task::TypedTask;
    use qgraph_graph::{AppliedMutation, GraphBuilder};
    use qgraph_partition::{Partitioner, RangePartitioner};

    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        Deliver(u32, usize),
        /// `(query, involved in release order, DoP budget, index)`.
        Superstep(u32, Vec<usize>, usize, u32),
        Collect(u32, usize),
        Complete(u32),
        PublishTopology(u64),
        PublishPartitioning,
        Migrate,
    }

    /// Logs dispatches; answers the synchronous ones from canned data.
    #[derive(Default)]
    struct Script {
        log: Vec<Op>,
        clock: SimTime,
        /// Answers scope reports while partitions compute (the
        /// simulation's shape); off, like real threads, by default.
        live_scopes: bool,
        scopes: Vec<(QueryId, usize, Vec<VertexId>)>,
        gained: Vec<(QueryId, usize)>,
        pending: Vec<(QueryId, usize)>,
    }

    impl Executor for Script {
        fn now(&self) -> SimTime {
            self.clock
        }
        fn deliver(&mut self, q: QueryId, w: usize, _: &dyn QueryTask, _: MessageBatch) {
            self.log.push(Op::Deliver(q.0, w));
        }
        fn superstep(&mut self, q: QueryId, s: Superstep<'_>) {
            let (step, involved) = (s.step, s.step.involved_cur.clone());
            let index = step.out.iterations;
            self.log.push(Op::Superstep(q.0, involved, step.dop, index));
        }
        fn collect(&mut self, q: QueryId, touched: Vec<usize>) -> Option<Locals> {
            let collects = touched.into_iter().map(|w| Op::Collect(q.0, w));
            self.log.extend(collects);
            Some(Vec::new())
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
        fn scopes_readable_live(&self) -> bool {
            self.live_scopes
        }
        fn scope_report(&mut self) -> Vec<(QueryId, usize, Vec<VertexId>)> {
            self.scopes.clone()
        }
        fn migrate(
            &mut self,
            _: &Migration,
            _: &dyn Fn(QueryId) -> Arc<dyn QueryTask>,
        ) -> Vec<(QueryId, usize)> {
            self.log.push(Op::Migrate);
            self.gained.clone()
        }
        fn pending_report(&mut self) -> Vec<(QueryId, usize)> {
            self.pending.clone()
        }
    }

    /// Six vertices over three partitions: `{0,1} {2,3} {4,5}`.
    fn core(cfg: SystemConfig) -> Coordinator {
        let graph = std::sync::Arc::new(GraphBuilder::new(6).build());
        let state = EngineState {
            partitioning: RangePartitioner.partition(&graph, 3),
            topology: Topology::new(graph),
            controller: Controller::new(cfg.qcut.clone()),
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
            dop: DopPolicy::Fixed(1),
            ..Default::default()
        }
    }

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Partition `w` finished its step of query 0 having executed one
    /// vertex and sent one message to each partition in `to`.
    fn report(task: &TypedTask<PingProgram>, w: usize, to: &[usize]) -> StepReport {
        StepReport {
            q: QueryId(0),
            worker: w,
            stats: SuperstepStats {
                executed: 1,
                remote_deliveries: to.len(),
                remote_pre_combine: to.len(),
                remote_batches: to.len(),
                ..Default::default()
            },
            agg: task.aggregate_identity(),
            remote: to.to_vec(),
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
            vec![
                Op::Deliver(0, 0),
                Op::Deliver(0, 1),
                Op::Deliver(0, 2),
                Op::Superstep(0, vec![0, 1, 2], 1, 0),
            ],
            "one dispatch: all three inputs are in before it, the budget \
             and the release order travel with it"
        );
        // A step-done moves nothing: what a Step sent is the executor's to
        // hold back until the next superstep, and so is the release of the
        // deferred partitions, in involved order.
        x.log.clear();
        let outcome = core.step_done(&mut x, report(&task, 0, &[1]), at(2), at(2));
        assert_eq!(outcome, None);
        let outcome = core.step_done(&mut x, report(&task, 1, &[]), at(3), at(3));
        assert_eq!(outcome, None);
        let outcome = core.step_done(&mut x, report(&task, 2, &[]), at(4), at(4));
        assert_eq!(outcome, Some(Close::Next));
        assert!(x.log.is_empty(), "nothing moves until the barrier opens");
        // The next superstep involves only the partition that was sent to.
        core.release(&mut x, QueryId(0), at(5));
        assert_eq!(x.log, vec![Op::Superstep(0, vec![1], 1, 1)]);
        let out = core.run(QueryId(0)).stepping().out;
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
        core.repartition = Repartition::Budgeted(due, at(1));
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

        // The window migrates {v0, v1}: the pending inbox on partition 0
        // travels to partition 2, which the pending report reflects.
        x.clock = at(7);
        x.scopes = vec![(QueryId(0), 0, vec![VertexId(0), VertexId(1)])];
        x.gained = vec![(QueryId(0), 2)];
        x.pending = vec![(QueryId(0), 2)];
        core.window_open(&x);
        core.window_apply(&mut x);
        assert_eq!(x.log, vec![Op::Migrate, Op::PublishPartitioning]);
        assert_eq!(core.state.partitioning.worker_of(VertexId(1)).index(), 2);
        x.log.clear();
        core.window_end(&mut x, at(9));
        assert_eq!(
            x.log,
            vec![Op::Superstep(0, vec![2], 1, 1)],
            "resumed against the post-migration pending report, not the stale set"
        );
        assert!(!core.paused() && core.parked.is_empty());
        let ev = &core.state.report.repartitions[0];
        assert_eq!((ev.moved_vertices, ev.applied_at), (2, 7e-6));
        assert!((ev.barrier_duration - 2e-6).abs() < 1e-12);
    }

    /// Q-cut on with the given cooldown, every other constant the paper's.
    fn adaptive(cooldown_secs: f64) -> SystemConfig {
        SystemConfig {
            qcut: Some(QcutConfig {
                min_repartition_interval_secs: cooldown_secs,
                ..Default::default()
            }),
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

    #[test]
    fn the_cooldown_blocks_a_second_trigger_until_it_has_elapsed_again() {
        let (mut core, mut x) = two_remote_queries(adaptive(1.0));
        let sec = 1_000_000;
        // Locality 0 is under Φ, but the session is younger than the
        // cooldown.
        assert_eq!(core.trigger(&mut x, at(sec - 1)), None);
        assert!(!core.paused());
        // No live scope reports (threads): the hit wants its window at
        // once and plans inside it.
        assert_eq!(core.trigger(&mut x, at(sec)), None);
        assert!(core.paused());
        assert!(matches!(core.repartition, Repartition::Due(None, t) if t == at(sec)));
        for q in 0..2 {
            core.release(&mut x, QueryId(q), at(sec + 1));
        }
        x.clock = at(sec + 2);
        core.window_open(&x);
        core.window_apply(&mut x);
        core.window_end(&mut x, at(sec + 3));
        // The script reported no scopes, so nothing moved — and still the
        // cooldown restarted when the window was asked for.
        assert!(!core.paused() && core.state.report.repartitions.is_empty());
        assert_eq!(core.trigger(&mut x, at(2 * sec - 1)), None);
        assert!(!core.paused(), "one microsecond short of the cooldown");
        core.trigger(&mut x, at(2 * sec));
        assert!(core.paused());
    }

    #[test]
    fn a_declined_trigger_leaves_the_pause_and_the_plan_untouched() {
        let mut cfg = adaptive(0.0);
        cfg.qcut.as_mut().expect("adaptive").locality_threshold = 0.4;
        let (mut core, mut x) = two_remote_queries(cfg);
        x.live_scopes = true;
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
            assert_eq!(core.run(q).stepping().out.locality(), 0.5);
        }
        assert_eq!(core.trigger(&mut x, at(4)), None);
        assert!(!core.paused() && matches!(core.repartition, Repartition::None));
        let controller = &core.state.controller;
        assert!(!controller.ils_inflight && controller.last_repartition == SimTime::ZERO);
    }

    #[test]
    fn fewer_than_two_known_scopes_never_open_a_window() {
        // One live query, nothing retained: not even a look at locality.
        let (mut core, mut x, task) = (core(adaptive(0.0)), Script::default(), ping());
        core.submit(QueryId(0), Arc::new(ping()), at(0), None);
        core.admit(&mut x, at(0));
        for (w, to) in [(0, &[1][..]), (1, &[]), (2, &[])] {
            core.step_done(&mut x, report(&task, w, to), at(1), at(1));
        }
        assert_eq!(core.trigger(&mut x, at(2)), None);
        assert!(!core.paused());
        // A finished query's retained scope is the second one.
        let retained = vec![VertexId(4)];
        core.state
            .controller
            .record_finished_scope(QueryId(9), retained, at(2));
        core.trigger(&mut x, at(3));
        assert!(core.paused());

        // With live scope reports the ILS input is counted exactly: two
        // live queries of which one has an empty scope plan nothing ...
        let (mut core, mut x) = two_remote_queries(adaptive(0.0));
        x.live_scopes = true;
        x.scopes = vec![(QueryId(0), 0, vec![VertexId(0)])];
        assert_eq!(core.trigger(&mut x, at(2)), None);
        assert!(matches!(core.repartition, Repartition::None));
        assert!(!core.state.controller.ils_inflight);
        // ... and two scopes run the ILS at the trigger: its plan comes
        // due one budget (the paper's 2 s) later, nothing re-triggers in
        // between, and the cooldown starts when it comes due.
        x.scopes.push((QueryId(1), 1, vec![VertexId(2)]));
        assert_eq!(core.trigger(&mut x, at(3)), Some(at(2_000_003)));
        assert!(matches!(core.repartition, Repartition::Budgeted(_, t) if t == at(3)));
        assert_eq!(core.trigger(&mut x, at(4)), None);
        core.plan_due(at(2_000_003));
        let controller = &core.state.controller;
        assert!(!controller.ils_inflight && controller.last_repartition == at(2_000_003));
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
        let dispatched = vec![Op::Deliver(0, 1), Op::Superstep(0, vec![1], 3, 0)];
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
                local_deliveries: 1,
                tasks: 1,
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
        let mut step = core.run(QueryId(0)).stepping();
        let mut close = Close::Next;
        for (i, &c) in contributions.iter().enumerate() {
            if i > 0 {
                assert_eq!(close, Close::Next, "closed past a termination");
                step.begin();
            }
            assert!(step.fold(task, &local_report(c)), "solo: its last Step");
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

            let (a, b) = (single.run(QueryId(0)), chained.run(QueryId(0)));
            let (a, b) = (a.stepping(), b.stepping());
            // 3 supersteps, all local, 3 vertex updates, 3 tasks at DoP 1.
            assert_eq!(work(&b.out), [3, 3, 3, 0, 0, 0, 3, 1]);
            assert_eq!(work(&a.out), work(&b.out));
            assert_eq!((tally_of(&a.agg_prev), tally_of(&b.agg_prev)), (left, left));
            assert_eq!((&a.next_involved, &b.next_involved), (&vec![1], &vec![1]));
        }
    }

    #[test]
    fn a_query_its_lane_terminated_completes_from_one_collect() {
        // Sticky and stopping at 3: the third close ends the query, on the
        // lane, which takes the collect set and hands back every local at
        // once. The core's one turn completes the query.
        let (mut core, mut x, task) = solo_tally(true, 3);
        assert_eq!(
            close_on_the_lane(&core, &task, &[1, 1, 1]),
            Close::Terminate
        );
        let touched = std::mem::take(&mut core.run(QueryId(0)).stepping().touched);
        assert_eq!(touched, vec![1]);
        core.collected(&mut x, QueryId(0), Vec::new(), at(2));
        assert_eq!(x.log, vec![Op::Complete(0)]);
        assert!(core.quiet());
        let outcomes = &core.state.report.outcomes;
        assert_eq!(outcomes.len(), 1);
        assert_eq!(work(&outcomes[0]), [3, 3, 3, 0, 0, 0, 3, 1]);
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
        assert_eq!(core.run(QueryId(0)).stepping().out.iterations, 5);
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
        core.install_index(Box::new(Oracle));
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
        let collects = [Op::Collect(0, 0), Op::Collect(0, 1), Op::Collect(0, 2)];
        assert_eq!(x.log[..3], collects, "every partition that held state");
        assert_eq!(x.log[3], Op::Complete(0));

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
        // message in 1 batch, no collected scope, 3 + 1 tasks at DoP 1.
        assert_eq!(work(&traversed), [2, 1, 4, 1, 1, 0, 4, 1]);
        for id in [1, 2, 3] {
            assert_eq!((by_id(id).first_epoch, by_id(id).last_epoch), (0, 0));
        }
    }
}
