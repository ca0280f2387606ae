//! The discrete-event multi-query engine: the virtual-time executor of
//! the coordinator core.
//!
//! [`SimEngine`] runs the query protocol of [`crate::coord`] — admission,
//! per-query barriers, DoP deferral, the stop-the-world window — exactly
//! as the thread runtime does, while *time* advances on the `qgraph-sim`
//! virtual clock using the cluster's compute/network cost models. Results
//! are bit-identical across runs for a fixed configuration, and latency
//! decomposes into the same three components as on the paper's testbeds:
//! compute, network transfer, and barrier synchronization.
//!
//! The engine is **not generic over a program type**: each submitted
//! query is wrapped in a type-erased [`QueryTask`] at
//! [`SimEngine::submit`], which returns a typed [`QueryHandle`] through
//! which [`SimEngine::output`] recovers the program's `Output`.
//!
//! ## What this executor prices
//!
//! Each worker is a sequential resource processing one superstep task at a
//! time (FIFO), and at most `pool_threads` workers compute at once;
//! queueing across concurrent queries is what turns workload imbalance
//! into the paper's straggler effects. A dispatched superstep seals every
//! involved inbox at once (the cost model reads the frozen counts), and
//! each of its Steps
//!
//! 1. travels as a control message (admission; a budget slot freed by a
//!    completing Step, one control hop after that completion) or rides
//!    its barrier release,
//! 2. occupies its worker for the compute cost of its frozen input, then
//!    for the serialization of what it sends (`SendDone`); wire time
//!    delays the messages further,
//! 3. and when the core reports the superstep complete,
//!    [`barrier::decide`] computes the release *delay* (hybrid: free if
//!    fully local; `SharedGlobal` couples all queries' releases).
//!
//! A Q-cut plan is computed at its trigger (these workers can report
//! scopes while they run) and applied one virtual ILS budget later; a
//! window costs its mutation/compaction work plus the slowest pair's bulk
//! transfer, bracketed by one control round trip each way.

use std::collections::VecDeque;
use std::sync::Arc;

use qgraph_graph::{Graph, MutationBatch, Topology, VertexId};
use qgraph_partition::Partitioning;
use qgraph_sim::{ClusterModel, EventQueue, SimTime};

use crate::barrier::{self, BarrierInput};
use crate::config::{BarrierMode, SystemConfig};
use crate::controller::Controller;
use crate::coord::{Close, Coordinator, EngineState, Executor, Locals, StepReport, Superstep};
use crate::hb::{kind, Hb};
use crate::index_plane::PointIndex;
use crate::program::VertexProgram;
use crate::qcut::{migrate, Migration};
use crate::query::{QueryHandle, QueryId};
use crate::report::{EngineReport, PoolCounters};
use crate::sched::Submission;
use crate::task::{Envelope, MessageBatch, QueryTask, TypedTask};
use crate::trace::{cmd, Tracer};
use crate::worker::Worker;

enum Event {
    /// A streamed query's virtual arrival time was reached: it enters the
    /// admission queue (see [`SimEngine::submit_when`]).
    Arrival {
        q: QueryId,
        task: Arc<dyn QueryTask>,
        deadline: Option<SimTime>,
    },
    /// Query `q` may run a superstep on worker `w`.
    TaskReady { q: QueryId, w: usize },
    /// Worker `w` finished computing query `q`'s superstep.
    TaskDone { q: QueryId, w: usize },
    /// Worker `w` finished serializing/sending its outgoing messages.
    SendDone { w: usize },
    /// Query `q`'s barrier released: start the next superstep.
    BarrierRelease { q: QueryId },
    /// The virtual ILS budget elapsed; the pending plan comes due.
    IlsReady,
    /// A mutation batch's virtual application time was reached.
    MutationDue { batch: MutationBatch },
    /// SharedGlobal mode: the cross-query round barrier released.
    RoundRelease,
    /// Workers are quiescent: run the window body (STOP barrier).
    GlobalBarrierApply,
    /// The window's priced work finished: resume (START barrier).
    GlobalBarrierEnd,
}

struct WorkerSched {
    queue: VecDeque<QueryId>,
    running: Option<QueryId>,
}

/// The deterministic multi-query engine. See the module docs.
pub struct SimEngine {
    /// The query-protocol state machine this engine executes.
    core: Coordinator,
    x: SimExec,
}

/// The virtual-time executor: workers in one address space, an event
/// queue, and the cost models that turn dispatches into delays.
struct SimExec {
    cluster: ClusterModel,
    state_bytes_per_vertex: u64,
    workers: Vec<Worker>,
    sched: Vec<WorkerSched>,
    /// The simulated elastic pool's thread count: a global concurrency
    /// cap over the per-worker FIFO queues. With fewer threads than
    /// partitions, a freed thread picks up *any* queued partition — the
    /// work-conserving behavior the real pool exhibits.
    pool_width: usize,
    /// Worker tasks (compute or send) currently occupying pool threads.
    pool_busy: usize,
    /// Compute tasks completed (the sim's [`PoolCounters::tasks`]; steals
    /// and idle waits are physical-pool phenomena and stay 0 here).
    pool_tasks: u64,
    events: EventQueue<Event>,
    outputs: Vec<Option<Envelope>>,
    /// Per query: latest arrival of any inter-worker message it sent.
    msg_arrival: Vec<SimTime>,
    /// `TaskReady` dispatches scheduled but not yet delivered. Quiescence
    /// requires this to reach zero: a control message racing the STOP
    /// barrier would otherwise start a superstep mid-migration.
    inflight_ready: usize,
    /// `GlobalBarrierApply` is scheduled or the window is open.
    window_scheduled: bool,
    /// Virtual cost of the open window's work so far.
    window_cost: SimTime,
    /// SharedGlobal mode: queries whose iteration finished and who wait
    /// for the cross-query round barrier, and the round's release time
    /// (max over them).
    round_waiting: Vec<QueryId>,
    round_release: SimTime,
    /// Happens-before auditor (no-op unless `check-hb`): stamps the
    /// dispatch tokens of this executor.
    hb: Hb,
    /// Structured event recorder (no-op unless `trace`): task spans on
    /// the virtual clock. Lanes are partition indices — the sim's
    /// analogue of pool-thread identity.
    tracer: Tracer,
    /// Test hook: make [`SimExec::is_quiescent`] ignore in-flight
    /// `TaskReady` dispatches, reintroducing the pre-fix quiesce race
    /// so the auditor's detection of it stays regression-tested.
    #[cfg(feature = "check-hb")]
    hb_ignore_inflight_ready: bool,
}

impl Executor for SimExec {
    fn now(&self) -> SimTime {
        self.events.now() + self.window_cost
    }

    fn deliver(&mut self, q: QueryId, w: usize, task: &dyn QueryTask, batch: MessageBatch) {
        self.workers[w].deliver(task, q, batch);
    }

    // Every involved inbox is sealed here, at the release instant, so
    // whatever a Step of this superstep delivers lands in a next-superstep
    // inbox however late a deferred partition runs. A one-partition
    // superstep is not closed on the worker: `barrier::decide` already
    // releases a local superstep at `compute_done`, so virtual time has
    // nothing to save there. Superstep 0's Steps are admission's control
    // messages; every later superstep rides the barrier release whose
    // round trip its close already paid for.
    fn superstep(&mut self, q: QueryId, s: Superstep<'_>) {
        for &w in &s.step.involved_cur {
            self.workers[w].freeze(q);
        }
        let admitted = s.step.out.iterations == 0;
        for &w in s.step.released().0 {
            if admitted {
                self.control_ready(q, w);
            } else {
                self.task_ready(q, w);
            }
        }
    }

    fn collect(&mut self, q: QueryId, touched: Vec<usize>) -> Option<Locals> {
        let locals = touched.into_iter().map(|w| self.workers[w].take_local(q));
        Some(locals.flatten().collect())
    }

    fn complete(&mut self, q: QueryId, output: Envelope) {
        self.outputs[q.index()] = Some(output);
    }

    // The workers read the core's topology and assignment directly, so a
    // publication only costs time.
    fn publish_topology(
        &mut self,
        _: &Topology,
        _: &Partitioning,
        _: u64,
        ops: usize,
        compacted_edges: Option<usize>,
    ) {
        self.window_cost += self.cluster.compute.mutation_cost(ops);
        if let Some(edges) = compacted_edges {
            self.window_cost += self.cluster.compute.compaction_cost(edges);
        }
    }

    fn publish_partitioning(&mut self, _: &Partitioning, _: u64) {}

    fn scopes_readable_live(&self) -> bool {
        true
    }

    fn scope_report(&mut self) -> Vec<(QueryId, usize, Vec<VertexId>)> {
        self.workers.iter().flat_map(Worker::scope_report).collect()
    }

    fn migrate(
        &mut self,
        migration: &Migration,
        task_of: &dyn Fn(QueryId) -> Arc<dyn QueryTask>,
    ) -> Vec<(QueryId, usize)> {
        let gained = migrate::apply_to_workers(migration, &mut self.workers, task_of);
        // The migration lasts as long as the slowest pair's bulk transfer.
        self.window_cost += migration
            .per_pair
            .iter()
            .map(|&(f, t, n)| {
                self.cluster.network.bulk_move_cost(
                    n,
                    self.state_bytes_per_vertex,
                    self.cluster.is_remote(f, t),
                )
            })
            .max()
            .unwrap_or(SimTime::ZERO);
        gained
    }

    fn pending_report(&mut self) -> Vec<(QueryId, usize)> {
        self.workers
            .iter()
            .flat_map(Worker::pending_report)
            .collect()
    }
}

impl SimExec {
    // ------------------------------------------------------------------
    // Task scheduling on workers
    // ------------------------------------------------------------------

    /// executeQuery(q): a controller → worker dispatch, one control hop
    /// out.
    fn control_ready(&mut self, q: QueryId, w: usize) {
        let at = self.events.now() + self.cluster.control_cost_to_controller(w);
        self.inflight_ready += 1;
        self.hb.token_open(q.0, kind::READY);
        self.events.schedule(at, Event::TaskReady { q, w });
    }

    fn task_ready(&mut self, q: QueryId, w: usize) {
        // Pre-frozen supersteps always run — during a STOP barrier they
        // are exactly the in-flight work the barrier drains.
        self.hb.token_open(q.0, kind::TASK);
        self.sched[w].queue.push_back(q);
        self.try_start(w);
    }

    fn try_start(&mut self, w: usize) {
        // A partition runs at most one task at a time (actor model), and
        // the elastic pool caps how many partitions compute at once.
        if self.sched[w].running.is_some() || self.pool_busy >= self.pool_width {
            return;
        }
        let Some(q) = self.sched[w].queue.pop_front() else {
            return;
        };
        let now = self.events.now();
        let (active, msgs) = self.workers[w].frozen_counts(q);
        let cost = self.cluster.compute.superstep_cost(active, msgs);
        self.sched[w].running = Some(q);
        self.pool_busy += 1;
        let (lane, id) = (w as u32, u64::from(q.0));
        self.tracer
            .task_begin(now.as_secs_f64(), lane, id, lane, cmd::STEP, false);
        self.events.schedule(now + cost, Event::TaskDone { q, w });
    }

    /// Worker `w`'s pool thread freed up. The thread is not bound to the
    /// partition it just ran, so scan every worker queue (index order —
    /// the sim's deterministic stand-in for the physical pool's
    /// affinity-then-steal scan) for the next startable task.
    fn free_worker(&mut self, w: usize) {
        debug_assert!(self.sched[w].running.is_some());
        if let Some(q) = self.sched[w].running.take() {
            self.hb.token_close(q.0, kind::TASK);
        }
        self.pool_busy -= 1;
        for w in 0..self.sched.len() {
            if self.pool_busy >= self.pool_width {
                return;
            }
            self.try_start(w);
        }
    }

    fn is_quiescent(&self) -> bool {
        #[cfg(feature = "check-hb")]
        let ready_drained = self.inflight_ready == 0 || self.hb_ignore_inflight_ready;
        #[cfg(not(feature = "check-hb"))]
        let ready_drained = self.inflight_ready == 0;
        ready_drained
            && self
                .sched
                .iter()
                .all(|s| s.running.is_none() && s.queue.is_empty())
    }

    fn max_control_cost(&self) -> SimTime {
        (0..self.cluster.num_workers)
            .map(|w| self.cluster.control_cost_to_controller(w))
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

impl SimEngine {
    /// Create an engine over `graph`, simulated on `cluster`, starting from
    /// `partitioning`.
    ///
    /// # Panics
    /// Panics if the partitioning does not match the graph or cluster.
    pub fn new(
        graph: Arc<Graph>,
        cluster: ClusterModel,
        partitioning: Partitioning,
        cfg: SystemConfig,
    ) -> Self {
        assert_eq!(
            partitioning.num_vertices(),
            graph.num_vertices(),
            "partitioning does not cover the graph"
        );
        assert_eq!(
            partitioning.num_workers(),
            cluster.num_workers,
            "partitioning and cluster disagree on worker count"
        );
        let k = cluster.num_workers;
        // Batch accounting (`remote_batches`) uses the config's cap, and
        // pricing (`transfer_cost`) uses the network model's — they must
        // agree, or the reported batch counts would diverge from what the
        // cost model charges (and from the thread runtime's accounting).
        assert_eq!(
            cfg.batch_max_msgs, cluster.network.batch_max_msgs,
            "SystemConfig::batch_max_msgs must match the cluster \
             NetworkModel::batch_max_msgs"
        );
        let hb = Hb::new(k);
        let tracer = Tracer::new(k, cfg.trace_ring_capacity, cfg.trace);
        let x = SimExec {
            cluster,
            state_bytes_per_vertex: cfg.state_bytes_per_vertex,
            workers: (0..k)
                .map(|w| Worker::configured(w, cfg.combiners, cfg.batch_max_msgs))
                .collect(),
            sched: (0..k)
                .map(|_| WorkerSched {
                    queue: VecDeque::new(),
                    running: None,
                })
                .collect(),
            pool_width: Coordinator::pool_width(&cfg, k),
            pool_busy: 0,
            pool_tasks: 0,
            events: EventQueue::new(),
            outputs: Vec::new(),
            msg_arrival: Vec::new(),
            inflight_ready: 0,
            window_scheduled: false,
            window_cost: SimTime::ZERO,
            round_waiting: Vec::new(),
            round_release: SimTime::ZERO,
            hb: hb.clone(),
            tracer: tracer.clone(),
            #[cfg(feature = "check-hb")]
            hb_ignore_inflight_ready: false,
        };
        let state = EngineState {
            topology: Topology::new(graph),
            partitioning,
            controller: Controller::new(cfg.qcut.clone()),
            index: None,
            report: EngineReport::default(),
        };
        SimEngine {
            core: Coordinator::new(state, cfg, hb, tracer),
            x,
        }
    }

    /// Enqueue a query of any program type; one engine instance runs
    /// heterogeneous queries concurrently. It starts once a closed-loop
    /// slot is free (`max_parallel_queries` in flight at a time, the
    /// paper's batches). Returns a typed handle for [`SimEngine::output`].
    pub fn submit<P: VertexProgram>(&mut self, program: P) -> QueryHandle<P> {
        QueryHandle::new(self.submit_task(Arc::new(TypedTask::new(program))))
    }

    /// Submit with explicit arrival/deadline options: a [`Submission`]
    /// with `at_secs` models an *open-loop streaming* arrival — the query
    /// joins the admission queue only when the virtual clock reaches that
    /// time (an arrival event), exactly like a client submitting against a
    /// live serving engine. A `deadline_secs` feeds the
    /// [`crate::AdmissionPolicy::Deadline`] policy.
    pub fn submit_when<P: VertexProgram>(
        &mut self,
        program: P,
        submission: Submission,
    ) -> QueryHandle<P> {
        QueryHandle::new(self.submit_task_when(Arc::new(TypedTask::new(program)), submission))
    }

    /// Shorthand for [`SimEngine::submit_when`] with only an arrival time.
    pub fn submit_at<P: VertexProgram>(&mut self, program: P, at_secs: f64) -> QueryHandle<P> {
        self.submit_when(program, Submission::at(at_secs))
    }

    /// Type-erased submission backing [`SimEngine::submit`] (and the
    /// [`crate::Engine`] trait).
    pub fn submit_task(&mut self, task: Arc<dyn QueryTask>) -> QueryId {
        self.submit_task_when(task, Submission::default())
    }

    /// Type-erased submission with arrival/deadline options (see
    /// [`SimEngine::submit_when`]).
    pub fn submit_task_when(
        &mut self,
        task: Arc<dyn QueryTask>,
        submission: Submission,
    ) -> QueryId {
        let x = &mut self.x;
        let q = QueryId(x.outputs.len() as u32);
        let now = x.events.now();
        // An arrival in the past clamps to now: the clock never rewinds.
        let arrival = submission
            .at_secs
            .map(|t| SimTime::from_secs_f64(t).max(now))
            .unwrap_or(now);
        let deadline = submission
            .deadline_secs
            .map(|d| arrival + SimTime::from_secs_f64(d));
        x.outputs.push(None);
        x.msg_arrival.push(SimTime::ZERO);
        if arrival > now {
            x.events
                .schedule(arrival, Event::Arrival { q, task, deadline });
        } else {
            self.core.submit(q, task, arrival, deadline);
        }
        q
    }

    /// Schedule a [`MutationBatch`] to apply at virtual time `at_secs`
    /// (clamped to now): when the clock reaches it, the engine stops the
    /// world at the next quiescent point, applies the batch atomically,
    /// and opens a new graph epoch — in-flight queries park at their
    /// barriers and resume against the mutated topology, exactly like the
    /// Q-cut stop-the-world phase. Batches due at the same barrier apply
    /// in submission order.
    ///
    /// # Panics
    /// Rejects the batch at submission (see [`MutationBatch::validate`])
    /// if any op carries a NaN, negative, or infinite weight — failing
    /// here, rather than at the barrier, keeps the error on the caller's
    /// stack.
    pub fn mutate_at(&mut self, batch: MutationBatch, at_secs: f64) {
        if let Err(e) = batch.validate() {
            panic!("rejected mutation batch: {e}");
        }
        let at = SimTime::from_secs_f64(at_secs).max(self.x.events.now());
        self.x.events.schedule(at, Event::MutationDue { batch });
    }

    /// Apply a [`MutationBatch`] at the next quiescent point (shorthand
    /// for [`SimEngine::mutate_at`] with the current virtual time).
    pub fn mutate(&mut self, batch: MutationBatch) {
        self.mutate_at(batch, self.now_secs());
    }

    /// Run until every submitted query (including future [`Event::Arrival`]
    /// submissions) has finished. Returns the cumulative report; the
    /// window this call covers is the last entry of
    /// [`EngineReport::runs`].
    pub fn run(&mut self) -> &EngineReport {
        let run_started = self.x.events.now();
        self.core.restart_activity_watch(run_started);

        self.core.admit(&mut self.x, run_started);
        while let Some(ev) = self.x.events.pop() {
            let now = ev.at;
            match ev.payload {
                Event::Arrival { q, task, deadline } => {
                    // During a STOP barrier the query waits in the queue
                    // exactly like a resident one.
                    if self.core.submit(q, task, now, deadline) {
                        self.core.admit(&mut self.x, now);
                    }
                }
                Event::TaskReady { q, w } => {
                    self.x.inflight_ready -= 1;
                    self.x.hb.token_close(q.0, kind::READY);
                    self.x.task_ready(q, w);
                }
                Event::TaskDone { q, w } => self.on_task_done(now, q, w),
                Event::SendDone { w } => {
                    self.x.free_worker(w);
                    self.maybe_quiesced(now);
                }
                Event::BarrierRelease { q } => self.core.release(&mut self.x, q, now),
                Event::RoundRelease => {
                    // The cross-query round barrier fired: release every
                    // waiting query at once.
                    self.x.round_release = SimTime::ZERO;
                    for q in std::mem::take(&mut self.x.round_waiting) {
                        self.core.release(&mut self.x, q, now);
                    }
                }
                Event::IlsReady => {
                    self.core.plan_due(now);
                    self.maybe_quiesced(now);
                }
                Event::MutationDue { batch } => {
                    // During an open window the batch simply queues for
                    // the re-entry check at the window's end.
                    self.core.mutate(batch);
                    self.maybe_quiesced(now);
                }
                Event::GlobalBarrierApply => {
                    // The core opens the auditor's window first: if a
                    // dispatch is still in flight, its two-stack report
                    // beats this bare assert.
                    self.core.window_open(&self.x);
                    self.core.window_apply(&mut self.x);
                    debug_assert!(self.x.is_quiescent());
                    let end = self.x.now() + self.x.max_control_cost();
                    self.x.events.schedule(end, Event::GlobalBarrierEnd);
                }
                Event::GlobalBarrierEnd => {
                    self.x.window_cost = SimTime::ZERO;
                    self.x.window_scheduled = false;
                    self.core.window_end(&mut self.x, now);
                    self.maybe_quiesced(now);
                }
            }
            if self.x.events.is_empty() {
                self.core.admit(&mut self.x, now);
            }
        }
        let x = &mut self.x;
        let report = &mut self.core.state.report;
        report.finished_at_secs = x.events.now().as_secs_f64();
        x.tracer.drain();
        report.trace.absorb(&x.tracer);
        // `tasks` counts the same per-(query, partition) units the thread
        // runtime counts.
        let pool_at_close = PoolCounters {
            threads: x.pool_width,
            tasks: x.pool_tasks,
            steals: 0,
            idle_waits: 0,
        };
        report.close_run(
            run_started.as_secs_f64(),
            report.finished_at_secs,
            pool_at_close,
        );
        report
    }

    /// The output of a finished query, recovered through its typed handle.
    pub fn output<P: VertexProgram>(&self, handle: &QueryHandle<P>) -> Option<&P::Output> {
        self.output_as::<P>(handle.id())
    }

    /// Typed output lookup by raw [`QueryId`] (for callers that index
    /// queries positionally); `None` if unfinished or if `P` is not the
    /// program type the query was submitted with.
    pub fn output_as<P: VertexProgram>(&self, q: QueryId) -> Option<&P::Output> {
        self.output_envelope(q)?.downcast_ref::<P::Output>()
    }

    /// Erased output access (backs the [`crate::Engine`] trait).
    pub fn output_envelope(&self, q: QueryId) -> Option<&(dyn std::any::Any + Send)> {
        self.x.outputs.get(q.index())?.as_deref()
    }

    /// Take ownership of a finished query's output.
    pub fn take_output<P: VertexProgram>(&mut self, handle: &QueryHandle<P>) -> Option<P::Output> {
        crate::task::take_output::<P>(&mut self.x.outputs, handle.id())
    }

    /// The measurement report (also returned by [`SimEngine::run`]).
    pub fn report(&self) -> &EngineReport {
        &self.core.state.report
    }

    /// The current vertex→worker assignment (mutated by repartitionings).
    pub fn partitioning(&self) -> &Partitioning {
        &self.core.state.partitioning
    }

    /// Current virtual time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.x.events.now().as_secs_f64()
    }

    /// The evolving graph view queries currently execute against.
    pub fn topology(&self) -> &Topology {
        &self.core.state.topology
    }

    /// The current graph epoch (mutation batches applied so far).
    pub fn epoch(&self) -> u64 {
        self.topology().epoch()
    }

    /// Install a label index (see [`crate::index_plane::PointIndex`]):
    /// from now on, eligible point queries popping off the admission
    /// queue are answered by label intersection instead of traversal —
    /// provided the index stays repaired through the admission epoch.
    /// Replaces any previously installed index. A non-zero
    /// [`SystemConfig::index_build_threads`](crate::SystemConfig) is
    /// forwarded as the index's parallelism hint for rebuild work; zero
    /// leaves the index's own setting alone.
    pub fn install_index(&mut self, mut index: Box<dyn PointIndex>) {
        let threads = self.core.cfg().index_build_threads;
        if threads != 0 {
            index.set_parallelism(threads);
        }
        self.core.install_index(index);
    }

    /// Remove and return the installed label index, if any (queries fall
    /// back to the traversal path afterwards).
    pub fn take_index(&mut self) -> Option<Box<dyn PointIndex>> {
        self.core.state.index.take()
    }

    /// The installed label index, if any.
    pub fn index(&self) -> Option<&dyn PointIndex> {
        self.core.state.index.as_deref()
    }

    /// Test hook (`check-hb` only): reintroduce the quiesce race the
    /// `inflight_ready` count fixed — quiescence stops counting
    /// scheduled-but-undelivered `TaskReady` dispatches, so a
    /// stop-the-world barrier can fire with control messages in flight.
    /// Exists solely so the regression suite can assert the
    /// happens-before auditor catches that race; never enable otherwise.
    #[cfg(feature = "check-hb")]
    #[doc(hidden)]
    pub fn hb_test_reintroduce_quiesce_race(&mut self) {
        self.x.hb_ignore_inflight_ready = true;
    }

    // ------------------------------------------------------------------
    // Event handlers that need both the core and the executor
    // ------------------------------------------------------------------

    fn on_task_done(&mut self, now: SimTime, q: QueryId, w: usize) {
        let x = &mut self.x;
        debug_assert_eq!(x.sched[w].running, Some(q));
        let st = &self.core.state;
        let run = self.core.run(q);
        let mut step = run.stepping();
        let route = |v: VertexId| st.partitioning.worker_of(v).index();
        let (stats, agg, remote) =
            x.workers[w].execute(q, run.task.as_ref(), &st.topology, &step.agg_prev, &route);

        // Serialization occupies this worker; the wire time then delays
        // the messages further.
        let sent_at = now + x.cluster.network.serialize_cost(stats.remote_deliveries);
        let crossed = !remote.is_empty();
        let self_pending = x.workers[w].has_pending(q);
        let mut sent_to = Vec::with_capacity(remote.len());
        for (w2, batch) in remote {
            let arrival = sent_at + x.cluster.message_cost(w, w2, batch.len());
            x.msg_arrival[q.index()] = x.msg_arrival[q.index()].max(arrival);
            x.workers[w2].deliver(run.task.as_ref(), q, batch);
            sent_to.push(w2);
        }
        // The freed budget slot releases the superstep's next deferred
        // partition, priced as a fresh controller dispatch.
        if let Some(w2) = step.next_deferred() {
            x.tracer
                .defer_release(now.as_secs_f64(), w as u32, u64::from(q.0), w2 as u32);
            x.control_ready(q, w2);
        }
        drop(step);
        x.pool_tasks += 1;
        let (lane, id) = (w as u32, u64::from(q.0));
        x.tracer.task_end(
            now.as_secs_f64(),
            lane,
            id,
            lane,
            cmd::STEP,
            stats.executed as u64,
        );
        let report = StepReport {
            q,
            worker: w,
            stats,
            agg,
            remote: sent_to,
            self_pending,
        };
        if let Some(close) = self.core.step_done(x, report, now, sent_at) {
            self.on_superstep_end(now, q, close);
        }
        if crossed {
            // Worker stays busy until the socket push completes — the
            // pool thread serializes, so it stays occupied too.
            self.x.events.schedule(sent_at, Event::SendDone { w });
        } else {
            self.x.free_worker(w);
            self.maybe_quiesced(now);
        }
    }

    /// The core closed query `q`'s superstep: price its barrier, then let
    /// the Q-cut trigger look at the new locality picture.
    fn on_superstep_end(&mut self, now: SimTime, q: QueryId, close: Close) {
        let x = &mut self.x;
        let mode = self.core.cfg().barrier_mode;
        let shared = mode == BarrierMode::SharedGlobal;
        if close == Close::Next {
            let run = self.core.run(q);
            let step = run.stepping();
            let decision = barrier::decide(
                &BarrierInput {
                    mode,
                    compute_done: run.last_done,
                    msg_arrival: x.msg_arrival[q.index()],
                    involved_cur: &step.involved_cur,
                    involved_next: &step.next_involved,
                    crossed: step.crossed,
                },
                &x.cluster,
            );
            let release = decision.release.max(now);
            if shared {
                // Traditional BSP: hold the query until the slowest query
                // of this round has also synchronized.
                x.round_waiting.push(q);
                x.round_release = x.round_release.max(release);
            } else {
                x.events.schedule(release, Event::BarrierRelease { q });
            }
        }
        if shared && self.core.computing() == 0 && !x.round_waiting.is_empty() {
            x.events
                .schedule(x.round_release.max(now), Event::RoundRelease);
        }
        if let Some(ready) = self.core.trigger(x, now) {
            x.events.schedule(ready, Event::IlsReady);
        }
    }

    /// If the core wants a window and the workers have drained, schedule
    /// its body one control hop out.
    fn maybe_quiesced(&mut self, now: SimTime) {
        let x = &mut self.x;
        if x.window_scheduled || !self.core.paused() || !x.is_quiescent() {
            return;
        }
        x.window_scheduled = true;
        let max_ctl = x.max_control_cost();
        x.events.schedule(now + max_ctl, Event::GlobalBarrierApply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BarrierMode;
    use crate::programs::{PingProgram, ReachProgram};
    use qgraph_graph::GraphBuilder;
    use qgraph_partition::{HashPartitioner, Partitioner, RangePartitioner};

    fn line_graph(n: usize) -> Arc<Graph> {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as u32, i as u32 + 1, 1.0);
        }
        Arc::new(b.build())
    }

    fn engine_on(graph: Arc<Graph>, k: usize, cfg: SystemConfig) -> SimEngine {
        let parts = RangePartitioner.partition(&graph, k);
        SimEngine::new(graph, ClusterModel::scale_up(k), parts, cfg)
    }

    #[test]
    fn single_query_reaches_whole_line() {
        let g = line_graph(10);
        let mut e = engine_on(g, 2, SystemConfig::default());
        let q = e.submit(ReachProgram::new(VertexId(0)));
        e.run();
        let out = e.output(&q).unwrap();
        assert_eq!(out.len(), 10);
        let r = &e.report().outcomes[0];
        assert_eq!(r.iterations, 10);
        assert_eq!(r.program, "reach");
        assert!(r.latency_secs() > 0.0);
    }

    #[test]
    fn local_query_has_full_locality() {
        let g = line_graph(10);
        let mut e = engine_on(g, 2, SystemConfig::default());
        // Vertices 5..10 live on worker 1 under Range partitioning.
        let q = e.submit(ReachProgram::new(VertexId(5)));
        e.run();
        let out = e.output(&q).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(e.report().outcomes[0].locality(), 1.0);
        assert_eq!(e.report().outcomes[0].remote_messages, 0);
    }

    #[test]
    fn crossing_query_counts_remote_messages() {
        let g = line_graph(10);
        let mut e = engine_on(g, 2, SystemConfig::default());
        let q = e.submit(ReachProgram::new(VertexId(0)));
        e.run();
        let _ = q;
        let o = &e.report().outcomes[0];
        assert_eq!(o.remote_messages, 1, "one boundary crossing (4->5)");
        assert!(o.locality() < 1.0);
    }

    #[test]
    fn multiple_queries_all_finish() {
        let g = line_graph(64);
        let mut e = engine_on(g, 4, SystemConfig::default());
        let qs: Vec<QueryHandle<ReachProgram>> = (0..16u32)
            .map(|i| e.submit(ReachProgram::bounded(VertexId(i * 4), 3)))
            .collect();
        e.run();
        assert_eq!(e.report().outcomes.len(), 16);
        for q in qs {
            assert!(e.output(&q).is_some());
        }
    }

    #[test]
    fn heterogeneous_queries_share_one_engine() {
        let g = line_graph(12);
        let mut e = engine_on(g, 2, SystemConfig::default());
        let reach = e.submit(ReachProgram::bounded(VertexId(0), 3));
        let ping = e.submit(PingProgram {
            ring: vec![VertexId(1), VertexId(10)],
            rounds: 4,
        });
        let reach2 = e.submit(ReachProgram::new(VertexId(8)));
        e.run();
        assert_eq!(e.output(&reach).unwrap().len(), 4);
        assert_eq!(*e.output(&ping).unwrap(), 3);
        assert_eq!(e.output(&reach2).unwrap().len(), 4);
        let programs: Vec<&str> = e.report().outcomes.iter().map(|o| o.program).collect();
        assert!(programs.contains(&"reach") && programs.contains(&"ping"));
    }

    #[test]
    fn output_with_wrong_type_is_none_not_panic() {
        let g = line_graph(4);
        let mut e = engine_on(g, 2, SystemConfig::default());
        let q = e.submit(ReachProgram::new(VertexId(0)));
        e.run();
        assert!(e.output_as::<ReachProgram>(q.id()).is_some());
        assert!(e.output_as::<PingProgram>(q.id()).is_none());
    }

    #[test]
    fn take_output_transfers_ownership() {
        let g = line_graph(6);
        let mut e = engine_on(g, 2, SystemConfig::default());
        let q = e.submit(ReachProgram::new(VertexId(0)));
        e.run();
        let owned = e.take_output(&q).unwrap();
        assert_eq!(owned.len(), 6);
        assert!(e.output(&q).is_none(), "taken outputs are gone");
    }

    #[test]
    fn closed_loop_respects_parallelism() {
        let g = line_graph(32);
        let cfg = SystemConfig {
            max_parallel_queries: 2,
            ..Default::default()
        };
        let mut e = engine_on(g, 2, cfg);
        for i in 0..6u32 {
            e.submit(ReachProgram::bounded(VertexId(i), 2));
        }
        e.run();
        assert_eq!(e.report().outcomes.len(), 6);
        // With 2-way parallelism, later queries are submitted strictly
        // after earlier completions.
        let o = &e.report().outcomes;
        assert!(o[5].submitted_at >= o[0].completed_at);
    }

    #[test]
    fn hybrid_no_slower_than_global_barrier() {
        let g = line_graph(40);
        let run = |mode| {
            let cfg = SystemConfig {
                barrier_mode: mode,
                ..Default::default()
            };
            let mut e = engine_on(line_graph(40), 2, cfg);
            let _ = g; // keep naming tidy
            for i in 0..8u32 {
                e.submit(ReachProgram::bounded(VertexId(i), 4));
            }
            e.run();
            e.report().total_latency()
        };
        let hybrid = run(BarrierMode::Hybrid);
        let global = run(BarrierMode::GlobalPerQuery);
        assert!(
            hybrid <= global,
            "hybrid {hybrid} must not exceed global {global}"
        );
    }

    #[test]
    fn deterministic_replay() {
        let build = || {
            let g = line_graph(50);
            let parts = HashPartitioner::default().partition(&g, 4);
            let mut e =
                SimEngine::new(g, ClusterModel::scale_up(4), parts, SystemConfig::default());
            for i in 0..10u32 {
                e.submit(ReachProgram::bounded(VertexId(i * 3), 5));
            }
            e.run();
            (
                e.report().total_latency(),
                e.report().outcomes.len(),
                e.report().total_remote_messages(),
            )
        };
        assert_eq!(build(), build());
    }

    fn ping_engine(k: usize) -> SimEngine {
        let g = line_graph(4);
        let parts = RangePartitioner.partition(&g, k);
        SimEngine::new(g, ClusterModel::scale_up(k), parts, SystemConfig::default())
    }

    #[test]
    fn ping_program_runs_fixed_rounds() {
        let mut e = ping_engine(2);
        let q = e.submit(PingProgram {
            ring: vec![VertexId(0), VertexId(3)],
            rounds: 5,
        });
        e.run();
        assert_eq!(*e.output(&q).unwrap(), 4);
        assert_eq!(e.report().outcomes[0].iterations, 5);
    }

    #[test]
    #[should_panic(expected = "batch_max_msgs")]
    fn mismatched_batch_caps_panic() {
        let g = line_graph(4);
        let parts = RangePartitioner.partition(&g, 2);
        let cfg = SystemConfig {
            batch_max_msgs: 8,
            ..Default::default()
        };
        let _ = SimEngine::new(g, ClusterModel::scale_up(2), parts, cfg);
    }

    /// Submitted through the erased paths — at once and as a future
    /// arrival — a task is held while its query lives, and by nothing once
    /// it finished.
    #[test]
    fn a_finished_querys_task_is_dropped() {
        let mut e = engine_on(line_graph(8), 2, SystemConfig::default());
        let reach = |v| -> Arc<dyn QueryTask> { Arc::new(TypedTask::new(ReachProgram::new(v))) };
        let (now, later) = (reach(VertexId(0)), reach(VertexId(3)));
        let kept = [Arc::downgrade(&now), Arc::downgrade(&later)];
        e.submit_task(now);
        e.submit_task_when(later, Submission::at(1e-3));
        e.run();
        assert_eq!(e.report().outcomes.len(), 2);
        assert!(
            kept.iter().all(|t| t.upgrade().is_none()),
            "a task outlived its query"
        );
    }

    #[test]
    fn empty_query_completes_instantly() {
        let mut e = ping_engine(2);
        let q = e.submit(PingProgram {
            ring: vec![],
            rounds: 0,
        });
        e.run();
        assert_eq!(*e.output(&q).unwrap(), 0);
        assert_eq!(e.report().outcomes[0].iterations, 0);
    }
}
