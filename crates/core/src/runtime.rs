//! A real multi-threaded shared-memory runtime: the `TaskPool` executor
//! of the coordinator core.
//!
//! [`ThreadEngine`] runs the same worker code as the discrete-event engine
//! — same [`crate::worker::Worker`], same vertex programs — and executes
//! the same query protocol ([`crate::coord`]), on OS threads with
//! `std::sync::mpsc` channels. It demonstrates that the library is an
//! executable system, and the integration tests use it to cross-validate
//! the simulator: both runtimes must produce identical query outputs.
//!
//! ## Morsel-style elastic execution
//!
//! Partitions are *logical actors*, not threads. Each partition's state —
//! vertex values, inboxes, Q-cut scope — lives in a [`WorkerCtx`], and
//! every dispatch the core emits for a partition becomes one [`Cmd`] task
//! in a shared [`TaskPool`] drawn by [`SystemConfig::pool_threads`] OS
//! threads (default: one per partition, the fixed-partition baseline). The
//! pool serializes tasks per partition, so partition ownership still
//! governs *state placement*, while *compute* is elastic: one thread can
//! drain many partitions, and many threads can race through one query's
//! superstep. A dispatched superstep and a `Collect` each answer once on
//! the coordinator channel ([`Resp`]); the count of those still
//! unanswered is this executor's definition of quiescence.
//!
//! ## Messages stay on the lanes
//!
//! Between two supersteps of a query nothing but the reports crosses the
//! coordinator. Each partition owns a [`Mailbox`] beside its
//! [`WorkerCtx`]: one lock, two slots keyed by query, chosen by the parity
//! of the superstep that will *read* them. A Step of superstep `n` first
//! takes its own parity-`n` slot into the worker inbox and seals it, and
//! after executing puts every remote batch straight into the destination's
//! parity-`n + 1` slot — so BSP isolation holds by construction: a
//! partition of superstep `n` that runs late (deferred by the DoP budget)
//! cannot see this superstep's output, whenever it runs. Two slots
//! suffice: mail for `n + 2` is put by Steps of `n + 1`, which are
//! dispatched only after every partition holding mail for `n` has taken
//! it. Admission's initial batches go into parity-0 slots, `Collect`
//! clears both of the query's slots (a query terminated by its aggregate
//! may leave mail), and a window flushes every mailbox into the worker
//! inboxes before it reads anything, so scope reports, migration and the
//! pending report see every message.
//!
//! Taking does not dismantle the slot: [`Partition::take`] swaps the
//! slot's vector with the empty one the [`WorkerCtx`] owns, so the entry
//! stays — with a buffer the next puts fill — until `Collect` removes it,
//! and a Step's whole take is delivered under one lookup of the query's
//! local ([`Worker::deliver_all`]). Together with the circulating batch
//! buffers of [`crate::worker`], a steady-state Step puts, takes and
//! delivers without touching the allocator.
//!
//! ## One superstep, one dispatch, one report
//!
//! The core hands over a whole superstep ([`Executor::superstep`]). If it
//! involves one partition, that is one inline `Step` command and one
//! [`StepReport`] back. Otherwise the involved partitions share a
//! [`SharedStep`] record: the first `dop` Steps are pushed, and the lane
//! that finishes a Step files its report in the record, pushes the next
//! deferred partition's Step into the pool itself (in the core's release
//! order) and — if it was the last — sends the one message that carries
//! every report. The coordinator is woken once per superstep and folds the
//! reports through [`Coordinator::step_done`] one by one.
//!
//! ## The local barrier stays on the lane
//!
//! A superstep that ran on one partition and crossed no boundary needs no
//! synchronisation at all (paper §3.3; the simulation prices it so). When
//! a `Step` is its superstep's only task, [`Lane::handle`] therefore
//! keeps going: if the step sent nothing away, left the partition with
//! pending messages and the rolled aggregate does not terminate the
//! query, it closes the superstep itself — the core's own
//! [`close_superstep`] — seals its inbox and executes again, up to
//! [`LOCAL_QUANTUM`] closes per dispatch. One [`StepReport`] then carries
//! the summed statistics and what was closed, and the core accounts for
//! each superstep as if it had been reported on its own.
//!
//! ## The window touches quiescent partitions directly
//!
//! A stop-the-world window opens only when no dispatched superstep or
//! `Collect` is unanswered, so no lane computes until it ends. The
//! coordinator then locks each partition's `WorkerCtx` itself, in
//! partition order, and makes the simulation's [`Worker`] calls — mailbox
//! flush, `Worker::scope_report`, [`migrate::apply_to_workers`],
//! `Worker::pending_report` — and installs a new `Arc<Topology>` /
//! `Arc<Partitioning>` into every context before anything resumes. A lane
//! releases its context before it reports, so a window never waits on a
//! lane's epilogue.
//!
//! ## Streaming submission and the serving loop
//!
//! The engine is *long-lived*: [`ThreadEngine::start`] spawns the pool
//! plus a **coordinator** thread that owns the core and the drive loop
//! ([`serve`]). Callers on any thread submit through a cloneable
//! [`EngineClient`] *while supersteps are in flight*:
//!
//! * a submission draws its [`QueryId`] from a shared counter and sends
//!   its type-erased task down the same channel the pool answers on; the
//!   coordinator stamps the arrival time and hands both to the core, which
//!   holds the task until the query completes — nothing else keeps it;
//! * when a superstep closes, the loop reads the session clock for the
//!   core's one Q-cut trigger ([`Coordinator::trigger`]): the
//!   [`crate::QcutConfig`] time constants are session wall-clock seconds
//!   here, and a hit's ILS runs inside the window it opens, because only
//!   quiescent partitions report stable scopes;
//! * the window reads nothing from the channel: a client message sent
//!   meanwhile waits there and is admitted against the post-window layout.
//!
//! Results become visible on the engine (`output`, `report`,
//! `partitioning`) after `run`/`drain`/`shutdown` — the coordinator owns
//! them while serving and the sync points hand them back.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::Instant;

use rustc_hash::FxHashMap;

use qgraph_graph::{Graph, MutationBatch as GraphMutationBatch, Topology, VertexId};
use qgraph_partition::Partitioning;
use qgraph_sim::SimTime;

use crate::config::SystemConfig;
use crate::controller::Controller;
use crate::coord::{
    close_superstep, Chained, Collect, Coordinator, EngineState, Executor, StepOutcome, StepReport,
    Superstep,
};
use crate::hb::{kind, Hb};
use crate::index_plane::PointIndex;
use crate::pool::TaskPool;
use crate::program::VertexProgram;
use crate::qcut::{migrate, Migration};
use crate::query::{QueryHandle, QueryId};
use crate::report::{EngineReport, PoolCounters};
use crate::task::{Envelope, MessageBatch, QueryTask, TypedTask};
use crate::trace::{cmd, Tracer};
use crate::worker::{LocalState, SuperstepStats, Worker};

/// Lock a mailbox or a superstep record, recovering from poisoning: each
/// update (a push, a take, a counter step) leaves them valid, and a Step
/// that panicked elsewhere must not wedge the other partitions' mail
/// behind a poisoned lock.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Lock a partition's worker state. Unlike mail, a command that panicked
/// mid-way may have left it torn, so poisoning propagates.
fn lock_ctx(ctx: &Mutex<WorkerCtx>) -> MutexGuard<'_, WorkerCtx> {
    ctx.lock()
        // qlint: allow(no-unwrap-hot-loop) — poisoned ⇒ a sibling pool thread already panicked; propagate
        .expect("worker state poisoned by an earlier panic")
}

/// One partition's mail (see the module docs): per query, the batches
/// other partitions' Steps — or admission — addressed here, in the slot of
/// the parity of the superstep that will read them.
#[derive(Default)]
struct Mailbox {
    slots: [FxHashMap<QueryId, Vec<MessageBatch>>; 2],
}

/// A partition: the worker state the pool serializes access to, and the
/// mailbox any lane may put into.
struct Partition {
    ctx: Mutex<WorkerCtx>,
    mail: Mutex<Mailbox>,
}

impl Partition {
    /// Add `batch` to the input of query `q`'s superstep `index` here.
    fn put(&self, q: QueryId, index: u32, batch: MessageBatch) {
        let mut mail = relock(&self.mail);
        mail.slots[(index & 1) as usize]
            .entry(q)
            .or_default()
            .push(batch);
    }

    /// Take what was put for query `q`'s superstep `index`, in put order,
    /// into the empty `into`: the two buffers trade places, so the slot
    /// entry stays (until `Collect`) with a buffer the next puts fill.
    fn take(&self, q: QueryId, index: u32, into: &mut Vec<MessageBatch>) {
        debug_assert!(into.is_empty(), "the taken mail would be lost");
        let mut mail = relock(&self.mail);
        if let Some(put) = mail.slots[(index & 1) as usize].get_mut(&q) {
            std::mem::swap(put, into);
        }
    }
}

/// A window's first act: every mailbox's batches move into its worker's
/// inboxes, in put order, leaving the slot entries and their buffers in
/// place. Only while the partitions are quiescent, so nothing is put
/// meanwhile.
fn flush_mail(parts: &[Partition], hb: &Hb, task_of: &dyn Fn(QueryId) -> Arc<dyn QueryTask>) {
    for (w, part) in parts.iter().enumerate() {
        let mut ctx = lock_ctx(&part.ctx);
        let mut mail = relock(&part.mail);
        hb.mail_take(w);
        for (&q, batches) in mail.slots.iter_mut().flatten() {
            if !batches.is_empty() {
                let task = task_of(q);
                ctx.worker.deliver_all(task.as_ref(), q, batches.drain(..));
            }
        }
    }
}

/// The record the Steps of a superstep over several partitions share.
struct SharedStep {
    state: Mutex<SharedState>,
}

struct SharedState {
    /// Partitions the DoP budget still holds back, in release order, each
    /// with its copy of the aggregate the superstep reads.
    deferred: VecDeque<(usize, Envelope)>,
    /// Steps that have not filed their report yet.
    remaining: usize,
    reports: Vec<StepReport>,
}

enum Cmd {
    /// Execute query `q`'s superstep `index` here: take this partition's
    /// mail for it, seal the inbox, run, put what it sends away into the
    /// destinations' mailboxes for `index + 1`.
    Step {
        q: QueryId,
        task: Arc<dyn QueryTask>,
        prev_agg: Envelope,
        index: u32,
        /// The record of a superstep shared with other partitions. `None`:
        /// this is the superstep's only task, reported by itself, and the
        /// lane may close local supersteps on its own (see
        /// [`LOCAL_QUANTUM`]).
        shared: Option<Arc<SharedStep>>,
    },
    Collect {
        q: QueryId,
    },
}

/// How many supersteps a lane closes on its own per dispatched
/// one-partition superstep before it reports (so one dispatch executes at most
/// `1 + LOCAL_QUANTUM`). The paper's hybrid barrier makes a superstep that
/// ran on one partition and crossed no boundary communication-free; the
/// quantum bounds how long a wanted stop-the-world window, or another
/// query queued on the same partition, waits behind such a run. Chain
/// termination depends only on data, so per-query step counts stay
/// deterministic. One value in use, hence a constant; swept on ISSUE 14's
/// sizing prototype over `qbench`'s `road-domain` (locality 0.95, 88 %
/// local supersteps; 2 cores, 12 s; without chaining 3.17k qps, p95
/// 15.5 ms):
///
/// | quantum | qps | lat_p95_ms |
/// |---|---|---|
/// | 1 | 3.92k | 13.8 |
/// | 2 | 4.15k | 14.3 |
/// | 3 | 4.20k | 15.0 |
/// | **4** | 4.19k | 15.3 |
/// | 8 | 4.2k | 17.0 |
/// | 16 | 3.98k | 19.6 |
/// | unbounded | 4.2k | 18.7 |
///
/// Throughput saturates by 3–4; past that only the tail grows
/// (head-of-line blocking on the hotspot partition).
const LOCAL_QUANTUM: u32 = 4;

enum Resp {
    /// A one-partition superstep finished.
    StepDone(StepReport),
    /// A superstep shared by several partitions finished: every member's
    /// report, in completion order.
    SuperstepDone(Vec<StepReport>),
    Collected {
        q: QueryId,
        local: Option<Box<dyn LocalState>>,
    },
}

/// Everything the coordinator thread receives: worker responses plus the
/// client-side protocol (submissions, drain requests, shutdown). One
/// channel carries both, read only between windows.
enum CoordMsg {
    Worker(Resp),
    /// A query was submitted; admit it under the configured policy. The
    /// deadline is relative seconds from arrival (stamped on receipt).
    Submit {
        q: QueryId,
        task: Arc<dyn QueryTask>,
        deadline_secs: Option<f64>,
    },
    /// A mutation batch to apply at the next stop-the-world barrier
    /// (opening a new graph epoch).
    Mutate(GraphMutationBatch),
    /// Install (or replace) the point-query label index on the serving
    /// coordinator; picked up on its next turn through the loop.
    InstallIndex(Box<dyn PointIndex>),
    /// Reply on `ack` once the engine is idle (everything submitted so
    /// far has completed).
    Drain {
        ack: Sender<Snapshot>,
    },
    /// Stop serving (the engine drains first; see
    /// [`ThreadEngine::shutdown`]).
    Shutdown,
}

/// The state a drain hands back to the engine: the report entries
/// appended since the previous drain (see [`EngineReport::since`]) plus
/// the current layout.
struct Snapshot {
    report: EngineReport,
    partitioning: Partitioning,
    topology: Topology,
    /// Outputs of the queries that finished since the previous drain.
    outputs: Vec<(QueryId, Envelope)>,
}

/// The serving clock: wall time since `start`, offset by the report's
/// previous end so timestamps stay monotonic across serve sessions.
/// `Copy` so the coordinator and every pool thread can stamp trace
/// events off the *same* time base — one origin per serve session.
#[derive(Clone, Copy)]
struct Clock {
    base: f64,
    started: Instant,
}

impl Clock {
    fn now(&self) -> SimTime {
        SimTime::from_secs_f64(self.base + self.started.elapsed().as_secs_f64())
    }
}

/// A cloneable submission handle into a serving [`ThreadEngine`]. Obtain
/// one with [`ThreadEngine::client`]; clones can be moved to any thread
/// and submit concurrently while the engine runs supersteps.
///
/// Submissions after the engine has shut down are silently dropped (the
/// returned handle's output stays `None`) — a streaming producer racing a
/// shutdown must coordinate externally if that matters.
#[derive(Clone)]
pub struct EngineClient {
    next_id: Arc<AtomicU32>,
    tx: Sender<CoordMsg>,
}

impl EngineClient {
    /// Submit a query of any program type into the live stream.
    pub fn submit<P: VertexProgram>(&self, program: P) -> QueryHandle<P> {
        QueryHandle::new(self.submit_task(Arc::new(TypedTask::new(program)), None))
    }

    /// Submit with a deadline `deadline_secs` from now (consulted by
    /// [`crate::AdmissionPolicy::Deadline`]).
    pub fn submit_with_deadline<P: VertexProgram>(
        &self,
        program: P,
        deadline_secs: f64,
    ) -> QueryHandle<P> {
        QueryHandle::new(self.submit_task(Arc::new(TypedTask::new(program)), Some(deadline_secs)))
    }

    /// Type-erased submission backing the typed ones.
    pub fn submit_task(&self, task: Arc<dyn QueryTask>, deadline_secs: Option<f64>) -> QueryId {
        let q = QueryId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let _ = self.tx.send(CoordMsg::Submit {
            q,
            task,
            deadline_secs,
        });
        q
    }

    /// Stream a mutation batch into the serving engine: it applies
    /// atomically at the next stop-the-world barrier (in-flight queries
    /// park at their superstep barriers first), opening a new graph
    /// epoch. Batches from one client apply in submission order; like
    /// submissions, a batch racing a shutdown may be dropped.
    ///
    /// # Panics
    /// Rejects the batch at submission (see
    /// [`GraphMutationBatch::validate`]) if any op carries a NaN,
    /// negative, or infinite weight — failing on the caller's stack
    /// instead of poisoning the coordinator at the barrier.
    pub fn mutate(&self, batch: GraphMutationBatch) {
        if let Err(e) = batch.validate() {
            panic!("rejected mutation batch: {e}");
        }
        let _ = self.tx.send(CoordMsg::Mutate(batch));
    }
}

/// The serving-session handles the engine keeps while the coordinator
/// thread runs.
struct Serving {
    tx: Sender<CoordMsg>,
    /// Yields the final state plus the outputs of any completions that
    /// raced between the last drain ack and the stop.
    handle: thread::JoinHandle<(EngineState, Vec<(QueryId, Envelope)>)>,
}

/// The multi-threaded runtime: an elastic pool of compute threads plus a
/// coordinator thread serving an open-ended query stream, with the same
/// submit/run/output lifecycle as the simulated engine (see the module
/// docs for the streaming protocol).
pub struct ThreadEngine {
    /// The engine's state as of the last sync point. While serving, the
    /// coordinator holds the master: topology, assignment and report here
    /// are copies refreshed at every drain, and the controller (so
    /// retained finished scopes survive serve sessions) and the label
    /// index are away with the session until shutdown hands them back.
    state: EngineState,
    cfg: SystemConfig,
    /// The next [`QueryId`], shared with every client: ids are dense.
    next_id: Arc<AtomicU32>,
    outputs: Vec<Option<Envelope>>,
    /// Submissions/mutations made before `start` (forwarded in order when
    /// serving begins).
    pre_ops: Vec<CoordMsg>,
    serving: Option<Serving>,
    /// Test hook: see [`ThreadEngine::hb_test_reintroduce_quiesce_race`].
    #[cfg(feature = "check-hb")]
    hb_test_early_quiesce: bool,
    /// Test probe: what the coordinator dispatched and heard back.
    #[cfg(test)]
    traffic: Arc<StepTraffic>,
    /// Test probe: the serving session's partitions (their mailboxes).
    #[cfg(test)]
    parts: Option<Arc<Vec<Partition>>>,
}

/// Supersteps the coordinator dispatched and step messages it received.
#[cfg(test)]
#[derive(Default)]
struct StepTraffic {
    dispatched: std::sync::atomic::AtomicU64,
    messages: std::sync::atomic::AtomicU64,
}

impl ThreadEngine {
    /// Create a runtime over `graph` with an initial `partitioning` and
    /// the default [`SystemConfig`].
    pub fn new(graph: Arc<Graph>, partitioning: Partitioning) -> Self {
        Self::with_config(graph, partitioning, SystemConfig::default())
    }

    /// Create a runtime with an explicit configuration. The thread runtime
    /// honors `max_parallel_queries`, the admission policy, and — when
    /// `qcut` is set — the adaptive repartitioning loop, its time
    /// constants read in session wall-clock seconds; barrier mode and the
    /// simulated cost model remain simulation-only.
    pub fn with_config(graph: Arc<Graph>, partitioning: Partitioning, cfg: SystemConfig) -> Self {
        assert_eq!(
            partitioning.num_vertices(),
            graph.num_vertices(),
            "partitioning does not cover the graph"
        );
        ThreadEngine {
            state: EngineState {
                topology: Topology::new(graph),
                partitioning,
                controller: Controller::new(cfg.qcut.clone()),
                index: None,
                report: EngineReport::default(),
            },
            cfg,
            next_id: Arc::default(),
            outputs: Vec::new(),
            pre_ops: Vec::new(),
            serving: None,
            #[cfg(feature = "check-hb")]
            hb_test_early_quiesce: false,
            #[cfg(test)]
            traffic: Arc::default(),
            #[cfg(test)]
            parts: None,
        }
    }

    /// Test-only hook: re-introduce the historical bug where the
    /// stop-the-world barrier opened its quiesce window while one
    /// Step/Collect was still outstanding (the coordinator treats a
    /// single in-flight op as "quiescent"). The `check-hb` auditor must
    /// flag that dispatch-inside-quiesce race deterministically; the
    /// regression test in `tests/` keeps it that way.
    #[cfg(feature = "check-hb")]
    #[doc(hidden)]
    pub fn hb_test_reintroduce_quiesce_race(&mut self) {
        assert!(
            self.serving.is_none(),
            "set the quiesce-race hook before the engine starts serving"
        );
        self.hb_test_early_quiesce = true;
    }

    /// Install (or replace) a point-query label index. While serving it is
    /// handed to the coordinator (picked up on its next turn); otherwise
    /// it is held until the next [`ThreadEngine::start`]. Eligible point
    /// queries are answered from the index at admission, and mutation
    /// barriers repair it before opening the new epoch to queries. A
    /// non-zero [`SystemConfig::index_build_threads`](crate::SystemConfig)
    /// is forwarded as the index's parallelism hint for rebuild work;
    /// zero leaves the index's own setting alone.
    pub fn install_index(&mut self, mut index: Box<dyn PointIndex>) {
        if self.cfg.index_build_threads != 0 {
            index.set_parallelism(self.cfg.index_build_threads);
        }
        match &self.serving {
            Some(s) => {
                let _ = s.tx.send(CoordMsg::InstallIndex(index));
            }
            None => self.state.index = Some(index),
        }
    }

    /// Remove and return the installed index. Only meaningful while not
    /// serving (the coordinator owns it during a session — call
    /// [`ThreadEngine::shutdown`] first); returns `None` otherwise.
    pub fn take_index(&mut self) -> Option<Box<dyn PointIndex>> {
        self.state.index.take()
    }

    /// The installed index, if present and the engine is not serving.
    pub fn index(&self) -> Option<&dyn PointIndex> {
        self.state.index.as_deref()
    }

    /// Apply a mutation batch: if the engine is serving it rides the next
    /// stop-the-world barrier (a new graph epoch, exactly like
    /// [`EngineClient::mutate`]); before `start` it queues and applies —
    /// in order with pre-start submissions — when serving begins.
    ///
    /// # Panics
    /// Rejects the batch at submission (see
    /// [`GraphMutationBatch::validate`]) if any op carries a NaN,
    /// negative, or infinite weight.
    pub fn mutate(&mut self, batch: GraphMutationBatch) {
        if let Err(e) = batch.validate() {
            panic!("rejected mutation batch: {e}");
        }
        self.send(CoordMsg::Mutate(batch));
    }

    /// Hand `msg` to the coordinator, or queue it for the next `start`.
    fn send(&mut self, msg: CoordMsg) {
        match &self.serving {
            Some(s) => {
                let _ = s.tx.send(msg);
            }
            None => self.pre_ops.push(msg),
        }
    }

    /// Enqueue a query of any program type; it starts as soon as a
    /// closed-loop slot frees up once the engine is serving (or at the
    /// next [`ThreadEngine::run`]).
    pub fn submit<P: VertexProgram>(&mut self, program: P) -> QueryHandle<P> {
        QueryHandle::new(self.submit_task(Arc::new(TypedTask::new(program))))
    }

    /// Submit with a deadline `deadline_secs` from arrival (consulted by
    /// [`crate::AdmissionPolicy::Deadline`]).
    pub fn submit_with_deadline<P: VertexProgram>(
        &mut self,
        program: P,
        deadline_secs: f64,
    ) -> QueryHandle<P> {
        QueryHandle::new(
            self.submit_task_opts(Arc::new(TypedTask::new(program)), Some(deadline_secs)),
        )
    }

    /// Type-erased submission backing [`ThreadEngine::submit`] (and the
    /// [`crate::Engine`] trait).
    pub fn submit_task(&mut self, task: Arc<dyn QueryTask>) -> QueryId {
        self.submit_task_opts(task, None)
    }

    fn submit_task_opts(
        &mut self,
        task: Arc<dyn QueryTask>,
        deadline_secs: Option<f64>,
    ) -> QueryId {
        let q = QueryId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.send(CoordMsg::Submit {
            q,
            task,
            deadline_secs,
        });
        q
    }

    /// Start serving: spawn the elastic pool threads and the coordinator
    /// thread owning the drive loop. Idempotent. Queries submitted before
    /// this call are forwarded in submission order.
    pub fn start(&mut self) {
        if self.serving.is_some() {
            return;
        }
        let k = self.state.partitioning.num_workers();
        let (msg_tx, msg_rx) = channel::<CoordMsg>();
        let hb = Hb::new(k);
        // 0 = the fixed-partition baseline: one thread per partition.
        let pool_threads = Coordinator::pool_width(&self.cfg, k);
        // One time base for the whole session: the coordinator and every
        // pool thread stamp trace events (and the coordinator its report
        // entries) off this same clock, so lane spans and query envelopes
        // line up without cross-clock skew.
        let clock = Clock {
            base: self.state.report.finished_at_secs,
            started: Instant::now(),
        };
        let tracer = Tracer::new(pool_threads, self.cfg.trace_ring_capacity, self.cfg.trace);
        // The core continues the cumulative report; the engine keeps its
        // identical copy and appends drain deltas to it. The controller
        // and the index travel with the session (a static placeholder
        // stays behind). Building the core stamps the initial topology and
        // assignment as published, before any partition context below can
        // read them.
        let st = &mut self.state;
        let state = EngineState {
            topology: st.topology.clone(),
            partitioning: st.partitioning.clone(),
            controller: std::mem::replace(&mut st.controller, Controller::new(None)),
            index: st.index.take(),
            report: st.report.clone(),
        };
        let core = Coordinator::new(state, self.cfg.clone(), hb.clone(), tracer.clone());
        // Partition state stays partition-owned: one context per logical
        // worker, locked by whichever pool thread draws that partition's
        // next command — or, inside a window, by the coordinator — so the
        // lock only moves the state between threads. The mailbox beside
        // it is what other lanes reach.
        let shared_parts = Arc::new(self.state.partitioning.clone());
        let shared_topology = Arc::new(self.state.topology.clone());
        let (combiners, batch_max) = (self.cfg.combiners, self.cfg.batch_max_msgs);
        let parts: Arc<Vec<Partition>> = Arc::new(
            (0..k)
                .map(|w| {
                    hb.spawn_worker(w);
                    Partition {
                        ctx: Mutex::new(WorkerCtx {
                            worker: Worker::configured(w, combiners, batch_max),
                            topology: Arc::clone(&shared_topology),
                            partitioning: Arc::clone(&shared_parts),
                            taken: Vec::new(),
                        }),
                        mail: Mutex::default(),
                    }
                })
                .collect(),
        );
        #[cfg(test)]
        {
            self.parts = Some(Arc::clone(&parts));
        }
        let lane = Lane {
            width: pool_threads,
            parts: Arc::clone(&parts),
            resp: msg_tx.clone(),
            hb: hb.clone(),
            tracer: tracer.clone(),
            clock,
        };
        let pool = TaskPool::new(k, pool_threads, move |push, tid, w, cmd| {
            lane.handle(push, tid, w, cmd)
        });
        let x = PoolExec {
            pool,
            parts,
            msg_rx,
            finished: Vec::new(),
            hb,
            tracer,
            clock,
            inflight_ops: 0,
            pool_tasks: 0,
            // The hook widens "quiescent" to one still-open op — exactly
            // the race the hb auditor exists to catch.
            #[cfg(feature = "check-hb")]
            quiesce_at: usize::from(self.hb_test_early_quiesce),
            #[cfg(not(feature = "check-hb"))]
            quiesce_at: 0,
            drain_waiters: Vec::new(),
            shutdown: false,
            #[cfg(test)]
            traffic: Arc::clone(&self.traffic),
        };
        let handle = thread::spawn(move || serve(core, x));

        for msg in self.pre_ops.drain(..) {
            let _ = msg_tx.send(msg);
        }
        self.serving = Some(Serving { tx: msg_tx, handle });
    }

    /// A cloneable concurrent submission handle (starts the engine if it
    /// is not serving yet). Clients submit from any thread while
    /// supersteps are in flight.
    pub fn client(&mut self) -> EngineClient {
        self.start();
        let Some(s) = self.serving.as_ref() else {
            unreachable!("start() always installs the serving session");
        };
        EngineClient {
            next_id: Arc::clone(&self.next_id),
            tx: s.tx.clone(),
        }
    }

    /// Block until everything submitted so far has completed, then sync
    /// outputs, report, and partitioning back into the engine. One run
    /// window ([`crate::RunSummary`]) closes per drain. If concurrent
    /// clients keep submitting, the drain waits for *them* too — it
    /// returns at a moment the engine is fully idle. Starts the engine if
    /// there are pre-start submissions waiting (a `submit` + `drain` pair
    /// must never silently skip the query).
    pub fn drain(&mut self) -> &EngineReport {
        if self.serving.is_none() {
            if self.pre_ops.is_empty() {
                return &self.state.report;
            }
            self.start();
        }
        let (ack_tx, ack_rx) = channel::<Snapshot>();
        let sent = self.serving.as_ref().and_then(|s| {
            let drain = CoordMsg::Drain { ack: ack_tx };
            s.tx.send(drain).ok()
        });
        let Some(snapshot) = sent.and_then(|()| ack_rx.recv().ok()) else {
            // The coordinator hung up mid-serve; it only exits early by
            // panicking. Join its thread to surface the *original* panic
            // (payload intact) instead of a secondary channel error here.
            if let Some(s) = self.serving.take() {
                if let Err(payload) = s.handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
            unreachable!("coordinator exited without acking the drain");
        };
        self.state.report.append(snapshot.report);
        self.state.partitioning = snapshot.partitioning;
        self.state.topology = snapshot.topology;
        self.store_outputs(snapshot.outputs);
        &self.state.report
    }

    /// Execute every pending query to completion; equivalent to
    /// [`ThreadEngine::start`] followed by [`ThreadEngine::drain`]. The
    /// engine keeps serving afterwards (subsequent submissions stream into
    /// the same session); it stops at [`ThreadEngine::shutdown`] or drop.
    pub fn run(&mut self) -> &EngineReport {
        self.start();
        self.drain()
    }

    /// Drain, then stop the coordinator and worker threads and take the
    /// final report/partitioning/controller state back. The engine can be
    /// started again afterwards. A client submission racing the stop is
    /// still *executed* if the coordinator had already admitted it (its
    /// outcome and output are in the final state); one still waiting in
    /// the admission queue is discarded, like any submission after
    /// shutdown.
    pub fn shutdown(&mut self) -> &EngineReport {
        if self.serving.is_none() {
            return &self.state.report;
        }
        self.drain();
        let Some(s) = self.serving.take() else {
            // drain() tears the session down itself only by propagating a
            // coordinator panic, so reaching here without one is a bug —
            // but returning the synced report beats panicking over it.
            return &self.state.report;
        };
        let _ = s.tx.send(CoordMsg::Shutdown);
        let (state, outputs) = match s.handle.join() {
            Ok(exit) => exit,
            // Propagate the coordinator's own panic payload.
            Err(payload) => std::panic::resume_unwind(payload),
        };
        self.state = state;
        self.store_outputs(outputs);
        &self.state.report
    }

    fn store_outputs(&mut self, finished: Vec<(QueryId, Envelope)>) {
        // Ids are dense. The counter publishes nothing, so `Relaxed`: a
        // finished id was drawn before its `Submit` was sent, and the
        // channel orders that draw before this drain's ack.
        let issued = self.next_id.load(Ordering::Relaxed) as usize;
        self.outputs.resize_with(issued, || None);
        for (q, output) in finished {
            self.outputs[q.index()] = Some(output);
        }
    }

    /// The output of a finished query, recovered through its typed handle
    /// (visible after `run`/`drain`/`shutdown`).
    pub fn output<P: VertexProgram>(&self, handle: &QueryHandle<P>) -> Option<&P::Output> {
        self.output_as::<P>(handle.id())
    }

    /// Typed output lookup by raw [`QueryId`]; `None` if unfinished or if
    /// `P` is not the program type the query was submitted with.
    pub fn output_as<P: VertexProgram>(&self, q: QueryId) -> Option<&P::Output> {
        self.output_envelope(q)?.downcast_ref::<P::Output>()
    }

    /// Erased output access (backs the [`crate::Engine`] trait).
    pub fn output_envelope(&self, q: QueryId) -> Option<&(dyn std::any::Any + Send)> {
        self.outputs.get(q.index())?.as_deref()
    }

    /// Take ownership of a finished query's output.
    pub fn take_output<P: VertexProgram>(&mut self, handle: &QueryHandle<P>) -> Option<P::Output> {
        crate::task::take_output::<P>(&mut self.outputs, handle.id())
    }

    /// The cumulative measurement report over the engine's lifetime, as of
    /// the last sync point (`run`/`drain`/`shutdown`).
    pub fn report(&self) -> &EngineReport {
        &self.state.report
    }

    /// The vertex→worker assignment as of the last sync point (mutated by
    /// repartitionings while serving).
    pub fn partitioning(&self) -> &Partitioning {
        &self.state.partitioning
    }

    /// The evolving graph view as of the last sync point
    /// (`run`/`drain`/`shutdown`).
    pub fn topology(&self) -> &Topology {
        &self.state.topology
    }

    /// The graph epoch as of the last sync point (mutation batches
    /// applied over the engine's lifetime).
    pub fn epoch(&self) -> u64 {
        self.state.topology.epoch()
    }
}

impl Drop for ThreadEngine {
    /// Best-effort teardown *without* draining: already-admitted queries
    /// finish their run (their results are simply discarded with the
    /// engine), queued ones are dropped (use [`ThreadEngine::shutdown`]
    /// for a clean stop that keeps the results).
    fn drop(&mut self) {
        if let Some(s) = self.serving.take() {
            let _ = s.tx.send(CoordMsg::Shutdown);
            let _ = s.handle.join();
        }
    }
}

/// The `TaskPool` executor: turns the core's superstep and collect
/// dispatches into pool commands and channel traffic, and works a window
/// on the quiescent partitions directly. All of the session's measurement
/// state lives in the core it serves and flows back through drain
/// snapshots / the exit value.
struct PoolExec {
    pool: TaskPool<Cmd>,
    /// The partitions: admission puts a query's initial batches straight
    /// into their mailboxes, and a window locks their contexts.
    parts: Arc<Vec<Partition>>,
    msg_rx: Receiver<CoordMsg>,
    /// Outputs of finished queries, until the next drain ships them.
    finished: Vec<(QueryId, Envelope)>,
    /// Happens-before auditor (no-op unless `check-hb`): stamps the
    /// command/response channel edges, the Step/Collect tokens and the
    /// window's installs.
    hb: Hb,
    /// Structured event recorder (no-op unless `trace`); the pool threads
    /// hold clones of the same recorder and stamp off the same clock.
    tracer: Tracer,
    /// The session time base shared with every pool thread.
    clock: Clock,
    /// Dispatched supersteps and Collect commands awaiting their one
    /// response: zero while a window is wanted means the partitions are
    /// quiescent.
    inflight_ops: usize,
    /// Steps completed, cumulative across serve sessions.
    pool_tasks: u64,
    /// How many unanswered ops still count as quiescent: 0, or 1 under
    /// [`ThreadEngine::hb_test_reintroduce_quiesce_race`].
    quiesce_at: usize,
    drain_waiters: Vec<Sender<Snapshot>>,
    shutdown: bool,
    #[cfg(test)]
    traffic: Arc<StepTraffic>,
}

impl PoolExec {
    /// The one message a dispatched superstep answers with arrived: fold
    /// its reports — the last closes the superstep — then let the Q-cut
    /// trigger look and release the query's barrier.
    fn stepped(
        &mut self,
        core: &mut Coordinator,
        reports: impl IntoIterator<Item = StepReport>,
        now: SimTime,
    ) {
        self.inflight_ops -= 1;
        #[cfg(test)]
        self.traffic
            .messages
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut last = None;
        for report in reports {
            let q = report.q;
            // One pool task per executed superstep, wherever it closed.
            self.pool_tasks += 1 + report.chained.as_ref().map_or(0, |c| u64::from(c.n));
            self.hb.token_close(q.0, kind::STEP);
            last = Some((q, core.step_done(self, report, now, now)));
        }
        let Some((q, outcome)) = last else {
            return;
        };
        debug_assert!(outcome != StepOutcome::Running, "a report went missing");
        // The superstep closed: the Q-cut trigger looks first, so a window
        // it wants parks `q` at this very release. The ILS runs inside
        // that window, never on a budget.
        let budgeted = core.trigger(self, now);
        debug_assert!(budgeted.is_none(), "no live scope reports here");
        if outcome == StepOutcome::Barrier {
            // Real threads have no barrier delay to wait out.
            core.release(self, q, now);
        }
    }

    /// The window's hold on the quiescent partitions: every worker state,
    /// locked in partition order.
    fn contexts(&self) -> Vec<MutexGuard<'_, WorkerCtx>> {
        self.parts.iter().map(|p| lock_ctx(&p.ctx)).collect()
    }

    /// Close the run window `[started, end]` on `report`. Pool counters
    /// first — the window's pool delta is computed against the *current*
    /// totals, and this session's `TaskPool` starts its own stats at zero,
    /// so fold in the `base` the report carried into the session. The
    /// lanes are idle whenever a window closes, so their rings drain fully.
    fn close_run(&self, report: &mut EngineReport, base: PoolCounters, started: f64, end: f64) {
        let ps = self.pool.stats();
        report.pool = PoolCounters {
            threads: self.pool.width(),
            tasks: self.pool_tasks,
            steals: base.steals + ps.steals,
            idle_waits: base.idle_waits + ps.idle_waits,
        };
        self.tracer.drain();
        report.trace.absorb(&self.tracer);
        report.close_run(started, end, report.pool);
    }
}

impl Executor for PoolExec {
    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn deliver(&mut self, q: QueryId, w: usize, _: &dyn QueryTask, batch: MessageBatch) {
        self.hb.mail_put(0, w);
        self.parts[w].put(q, 0, batch);
    }

    fn superstep(&mut self, q: QueryId, s: Superstep<'_>) {
        self.inflight_ops += 1;
        #[cfg(test)]
        self.traffic
            .dispatched
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let step = |shared| Cmd::Step {
            q,
            task: Arc::clone(s.task),
            prev_agg: s.task.clone_aggregate(s.prev),
            index: s.index,
            shared,
        };
        if let [w] = *s.involved {
            self.hb.send_step(q.0, w);
            self.pool.push(w, step(None));
            return;
        }
        let (released, deferred) = s.involved.split_at(s.involved.len().min(s.dop));
        let deferred = deferred.iter().map(|&w| {
            self.hb.token_open(q.0, kind::STEP);
            (w, s.task.clone_aggregate(s.prev))
        });
        let shared = Arc::new(SharedStep {
            state: Mutex::new(SharedState {
                deferred: deferred.collect(),
                remaining: s.involved.len(),
                reports: Vec::with_capacity(s.involved.len()),
            }),
        });
        for &w in released {
            self.hb.send_step(q.0, w);
            self.pool.push(w, step(Some(Arc::clone(&shared))));
        }
    }

    fn collect(&mut self, q: QueryId, w: usize) -> Collect {
        self.hb.send_collect(q.0, w);
        self.pool.push(w, Cmd::Collect { q });
        self.inflight_ops += 1;
        Collect::Pending
    }

    fn complete(&mut self, q: QueryId, output: Envelope) {
        self.finished.push((q, output));
    }

    fn publish_topology(
        &mut self,
        topology: &Topology,
        partitioning: &Partitioning,
        version: u64,
        _: usize,
        _: Option<usize>,
    ) {
        let shared = Arc::new(topology.clone());
        for (w, mut ctx) in self.contexts().into_iter().enumerate() {
            self.hb.install_topology(w, topology.epoch());
            ctx.topology = Arc::clone(&shared);
        }
        self.publish_partitioning(partitioning, version);
    }

    fn publish_partitioning(&mut self, partitioning: &Partitioning, version: u64) {
        let shared = Arc::new(partitioning.clone());
        for (w, mut ctx) in self.contexts().into_iter().enumerate() {
            self.hb.install_partitioning(w, version);
            ctx.partitioning = Arc::clone(&shared);
        }
    }

    // A running Step changes the scope it would report, so scopes are
    // read only inside a window, where no Step runs.
    fn scopes_readable_live(&self) -> bool {
        false
    }

    fn scope_report(&mut self) -> Vec<(QueryId, usize, Vec<VertexId>)> {
        let contexts = self.contexts();
        contexts
            .iter()
            .flat_map(|c| c.worker.scope_report())
            .collect()
    }

    fn migrate(
        &mut self,
        migration: &Migration,
        task_of: &dyn Fn(QueryId) -> Arc<dyn QueryTask>,
    ) -> Vec<(QueryId, usize)> {
        let mut contexts = self.contexts();
        let mut workers: Vec<&mut Worker> = contexts.iter_mut().map(|c| &mut c.worker).collect();
        migrate::apply_to_workers(migration, &mut workers, task_of)
    }

    fn pending_report(&mut self) -> Vec<(QueryId, usize)> {
        let contexts = self.contexts();
        contexts
            .iter()
            .flat_map(|c| c.worker.pending_report())
            .collect()
    }
}

/// The serving loop: feeds the core from the one channel that carries
/// pool responses and client traffic, runs a window whenever the core
/// wants one and the pool has drained, and acks drains at full idle. Runs
/// until [`CoordMsg::Shutdown`], then stops the pool and returns the
/// final state.
fn serve(mut core: Coordinator, mut x: PoolExec) -> (EngineState, Vec<(QueryId, Envelope)>) {
    // One monotonic time base across serve sessions: this session's
    // timestamps continue from the previous report's end, so the
    // cumulative report's outcomes and `finished_at_secs` agree.
    let clock = x.clock;
    let pool_base = core.state.report.pool;
    x.pool_tasks = pool_base.tasks;
    // The current run window opens where the previous one closed.
    let mut run_started = clock.base;
    // The engine holds an identical report prefix; drains ship only what
    // was appended past these marks.
    let mut synced = core.state.report.marks();

    loop {
        // Stop-the-world window — mutation epochs and/or Q-cut — once the
        // in-flight work has drained (every live query is then waiting at
        // its barrier or collected). The auditor's window opens before
        // any partition is touched.
        if core.paused() && x.inflight_ops <= x.quiesce_at {
            core.window_open(&x);
            // Mail is only ever held for live queries (`Collect` clears a
            // query's slots), so the core resolves every task.
            flush_mail(&x.parts, &x.hb, &|q| Arc::clone(&core.run(q).task));
            core.window_apply(&mut x);
            core.window_end(&mut x, clock.now());
            continue;
        }

        // Drain acks fire at full idle. Each ack closes one run window.
        if !x.drain_waiters.is_empty() && core.idle() && x.inflight_ops == 0 {
            let now = clock.now();
            let end = now.as_secs_f64();
            core.state.report.finished_at_secs = end;
            x.close_run(&mut core.state.report, pool_base, run_started, end);
            run_started = end;
            core.restart_activity_watch(now);
            for ack in x.drain_waiters.drain(..) {
                // Only the delta past the engine's synced prefix; a second
                // waiter in the same idle moment gets an empty one (its
                // engine-side state is already current).
                let _ = ack.send(Snapshot {
                    report: core.state.report.since(&synced),
                    partitioning: core.state.partitioning.clone(),
                    topology: core.state.topology.clone(),
                    outputs: std::mem::take(&mut x.finished),
                });
                synced = core.state.report.marks();
            }
        }

        // Stop only once admitted work has finished: a submission the
        // core already started executing is never abandoned (its
        // completion streams out and shutdown() collects it).
        if x.shutdown && core.quiet() && x.inflight_ops == 0 {
            break;
        }

        let Ok(msg) = x.msg_rx.recv() else {
            // Every sender (engine handle included) is gone.
            break;
        };
        x.hb.coord_recv();
        // One clock read per message turn, shared by every stamp the turn
        // emits — repeated reads are measurable on chained
        // single-partition supersteps.
        let now = clock.now();
        match msg {
            CoordMsg::Worker(Resp::StepDone(report)) => x.stepped(&mut core, [report], now),
            CoordMsg::Worker(Resp::SuperstepDone(reports)) => x.stepped(&mut core, reports, now),
            CoordMsg::Worker(Resp::Collected { q, local }) => {
                x.inflight_ops -= 1;
                x.hb.token_close(q.0, kind::COLLECT);
                core.collected(&mut x, q, local, now);
            }
            CoordMsg::Submit {
                q,
                task,
                deadline_secs,
            } => {
                let deadline = deadline_secs.map(|d| now + SimTime::from_secs_f64(d));
                core.submit(q, task, now, deadline);
                // The only client message that can make admission
                // possible: completions and window ends admit themselves.
                core.admit(&mut x, now);
            }
            CoordMsg::Mutate(batch) => core.mutate(batch),
            CoordMsg::InstallIndex(index) => core.install_index(index),
            CoordMsg::Drain { ack } => x.drain_waiters.push(ack),
            CoordMsg::Shutdown => {
                // Already-admitted queries finish, queued ones drop.
                x.shutdown = true;
                core.close();
            }
        }
    }

    // Teardown: drain and join the pool threads (propagating any pool
    // thread's own panic payload), then close any trailing run window so
    // every outcome has a home.
    let report = &mut core.state.report;
    let runs_before = report.runs.len();
    let end = clock.now().as_secs_f64();
    // `close_run` no-ops when nothing happened past the last boundary
    // (the normal case: shutdown() drained first).
    x.close_run(report, pool_base, run_started, end);
    if report.runs.len() > runs_before {
        report.finished_at_secs = end;
    }
    x.pool.shutdown();
    (core.state, x.finished)
}

/// The partition-owned state a pool task operates on: the logical
/// actor's [`Worker`] (vertex values, inboxes, Q-cut scope) plus its view
/// of the published topology and assignment. Placement stays fixed to the
/// partition — only *compute* is elastic — so everything that used to be
/// a dedicated worker thread's locals lives here, and whichever pool
/// thread draws the partition's next command locks it; inside a window the
/// coordinator does. The pool serializes commands per partition and a
/// window opens only at quiescence, so the lock exists to move the state
/// between threads.
struct WorkerCtx {
    worker: Worker,
    topology: Arc<Topology>,
    partitioning: Arc<Partitioning>,
    /// The buffer a Step takes its mail into (see [`Partition::take`]);
    /// empty between Steps.
    taken: Vec<MessageBatch>,
}

/// What every pool thread shares to execute commands: the partitions, the
/// response channel, and the session's auditor / recorder / clock. Each
/// pool thread holds its own clone.
#[derive(Clone)]
struct Lane {
    width: usize,
    parts: Arc<Vec<Partition>>,
    resp: Sender<CoordMsg>,
    hb: Hb,
    tracer: Tracer,
    clock: Clock,
}

impl Lane {
    /// One pool task: pool thread `tid` executes a single command against
    /// partition `w`'s state; `push` enqueues a further command from here
    /// (the next deferred Step of a shared superstep). The hb auditor
    /// brackets the task with the pool hand-off edges
    /// ([`Hb::pool_acquire`]/[`Hb::pool_release`]) that carry the
    /// actor-serialization guarantee dedicated threads would give for free.
    /// The partition's state is held for the execution only and released
    /// before anything is reported.
    fn handle(&self, push: &dyn Fn(usize, Cmd), tid: usize, w: usize, cmd: Cmd) {
        let (hb, tracer) = (&self.hb, &self.tracer);
        hb.pool_acquire(w);
        // Every executed command joins the clock snapshot queued at the
        // matching send — the channel edge of the HB graph.
        hb.worker_recv(w);
        let (traced_q, code) = match &cmd {
            Cmd::Step { q, .. } => (*q, cmd::STEP),
            Cmd::Collect { q } => (*q, cmd::COLLECT),
        };
        // The lane span opens before the state lock: lock wait is part of
        // the task's runtime as the pool experiences it. Steals are
        // labelled the same way `pick()` counts them — off the affine
        // thread. The begin stamp is read here but recorded with the end
        // stamp below: one ring lock per task instead of two keeps the
        // span's serial cost on chained point queries in check.
        let begin_at = tracer.enabled().then(|| self.clock.now().as_secs_f64());
        let mut executed_n: u64 = 0;
        // Every command produces at most one response; funneling them
        // through a single send gives one clean-shutdown path instead of
        // a panic per protocol arm.
        let reply: Option<Resp> = match cmd {
            Cmd::Step {
                q,
                task,
                mut prev_agg,
                index,
                shared,
            } => {
                let mut stats = SuperstepStats::default();
                let mut closed = 0;
                let (agg, remote, self_pending) = {
                    let mut guard = lock_ctx(&self.parts[w].ctx);
                    let ctx = &mut *guard;
                    // This superstep's input: what was put for it, sealed
                    // with what the partition sent itself. Mail put from
                    // here on is for the next superstep and lands in the
                    // other slot.
                    hb.mail_take(w);
                    self.parts[w].take(q, index, &mut ctx.taken);
                    ctx.worker
                        .deliver_all(task.as_ref(), q, ctx.taken.drain(..));
                    ctx.worker.freeze(q);
                    let route = |v: VertexId| ctx.partitioning.worker_of(v).index();
                    loop {
                        // The superstep reads the published topology and
                        // assignment: the auditor checks this worker's clock
                        // is ordered after the latest publication before any
                        // vertex executes.
                        hb.worker_step(w);
                        let (step, agg, remote) =
                            ctx.worker
                                .execute(q, task.as_ref(), &ctx.topology, &prev_agg, &route);
                        stats.then(&step);
                        let self_pending = ctx.worker.has_pending(q);
                        // The local barrier: the only task of its superstep
                        // sent nothing away and left work here, so the next
                        // involved set is this partition alone — unless the
                        // rolled aggregate ends the query, which is the
                        // core's to find. Nothing else is stepping `q`, so
                        // nobody can have put mail for the inbox sealed
                        // below.
                        if shared.is_none()
                            && closed < LOCAL_QUANTUM
                            && remote.is_empty()
                            && self_pending
                        {
                            let mut acc = task.aggregate_identity();
                            task.aggregate_combine(&mut acc, &agg);
                            // On a copy: a terminating close is not taken.
                            let mut rolled = task.clone_aggregate(&prev_agg);
                            if !close_superstep(task.as_ref(), &mut rolled, acc) {
                                prev_agg = rolled;
                                closed += 1;
                                ctx.worker.freeze(q);
                                continue;
                            }
                        }
                        break (agg, remote, self_pending);
                    }
                };
                executed_n = stats.executed as u64;
                // What the reported superstep sent away is input of the
                // one after it.
                let reads = index + closed + 1;
                let sent_to = remote.into_iter().map(|(to, batch)| {
                    hb.mail_put(1 + w, to);
                    self.parts[to].put(q, reads, batch);
                    to
                });
                let report = StepReport {
                    q,
                    worker: w,
                    stats,
                    agg,
                    remote: sent_to.collect(),
                    self_pending,
                    chained: (closed > 0).then(|| Chained {
                        n: closed,
                        agg_prev: prev_agg,
                    }),
                };
                match shared {
                    None => Some(Resp::StepDone(report)),
                    Some(record) => {
                        hb.record_join(q.0, w);
                        let (next, reports) = {
                            let mut st = relock(&record.state);
                            st.reports.push(report);
                            st.remaining -= 1;
                            let last = st.remaining == 0;
                            let reports = last.then(|| std::mem::take(&mut st.reports));
                            (st.deferred.pop_front(), reports)
                        };
                        // The freed budget slot releases the next deferred
                        // partition from here, in the core's order — no
                        // coordinator turn in between.
                        if let Some((to, prev_agg)) = next {
                            if tracer.enabled() {
                                let (at, id) = (self.clock.now().as_secs_f64(), u64::from(q.0));
                                tracer.defer_release(at, tid as u32, id, to as u32);
                            }
                            hb.lane_send_step(w, to);
                            let shared = Some(Arc::clone(&record));
                            push(
                                to,
                                Cmd::Step {
                                    q,
                                    task,
                                    prev_agg,
                                    index,
                                    shared,
                                },
                            );
                        }
                        // The last finisher's one message carries them all.
                        reports.map(|reports| {
                            hb.record_close(q.0, w);
                            Resp::SuperstepDone(reports)
                        })
                    }
                }
            }
            Cmd::Collect { q } => {
                for slot in &mut relock(&self.parts[w].mail).slots {
                    slot.remove(&q);
                }
                let local = lock_ctx(&self.parts[w].ctx).worker.take_local(q);
                Some(Resp::Collected { q, local })
            }
        };
        if let Some(begin_at) = begin_at {
            tracer.task_span(
                begin_at,
                self.clock.now().as_secs_f64(),
                tid as u32,
                u64::from(traced_q.0),
                w as u32,
                code,
                w % self.width != tid,
                executed_n,
            );
        }
        if let Some(r) = reply {
            hb.worker_send(w);
            // The coordinator hanging up (its thread panicked or exited
            // early) is tolerable: nobody is left to consume responses,
            // and the pool is torn down right behind it.
            let _ = self.resp.send(CoordMsg::Worker(r));
        }
        hb.pool_release(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QcutConfig;
    use crate::programs::{PingProgram, ReachProgram, Tally};
    use qgraph_graph::GraphBuilder;
    use qgraph_partition::{Partitioner, RangePartitioner};

    fn line(n: usize) -> Arc<Graph> {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as u32, i as u32 + 1, 1.0);
        }
        Arc::new(b.build())
    }

    /// A lane with no pool behind it: the test thread handles partition
    /// commands itself, stamped for the auditor the way `PoolExec` stamps
    /// them, and collects what the lane pushes. Query 0 is `task`, its
    /// initial batches put where admission puts them.
    struct ByHand {
        lane: Lane,
        rx: Receiver<CoordMsg>,
        task: Arc<dyn QueryTask>,
        /// Commands the lane pushed itself (already stamped by it).
        pushed: std::cell::RefCell<Vec<(usize, Cmd)>>,
    }

    const Q: QueryId = QueryId(0);

    fn seeded_lane(g: &Arc<Graph>, parts: Partitioning, task: Arc<dyn QueryTask>) -> ByHand {
        let k = parts.num_workers();
        let hb = Hb::new(k);
        hb.publish_topology(0, 0);
        hb.publish_partitioning(0);
        let topology = Arc::new(Topology::new(Arc::clone(g)));
        let parts = Arc::new(parts);
        let partition = |w| {
            hb.spawn_worker(w);
            Partition {
                ctx: Mutex::new(WorkerCtx {
                    worker: Worker::new(w),
                    topology: Arc::clone(&topology),
                    partitioning: Arc::clone(&parts),
                    taken: Vec::new(),
                }),
                mail: Mutex::default(),
            }
        };
        let (resp, rx) = channel();
        let lane = Lane {
            width: 1,
            parts: Arc::new((0..k).map(partition).collect()),
            resp,
            hb: hb.clone(),
            tracer: Tracer::new(1, 16, false),
            clock: Clock {
                base: 0.0,
                started: Instant::now(),
            },
        };
        let route = |v: VertexId| parts.worker_of(v).index();
        for (w, batch) in task.initial_batches(&topology, &route, true) {
            hb.mail_put(0, w);
            lane.parts[w].put(Q, 0, batch);
        }
        ByHand {
            lane,
            rx,
            task,
            pushed: Default::default(),
        }
    }

    impl ByHand {
        /// Run `cmd` on partition `w` as a command the coordinator sent.
        fn handle(&self, w: usize, cmd: Cmd) {
            match &cmd {
                Cmd::Step { q, .. } => self.lane.hb.send_step(q.0, w),
                Cmd::Collect { q } => self.lane.hb.send_collect(q.0, w),
            }
            self.run(w, cmd);
        }

        fn run(&self, w: usize, cmd: Cmd) {
            let push = |to: usize, cmd: Cmd| self.pushed.borrow_mut().push((to, cmd));
            self.lane.handle(&push, 0, w, cmd);
        }

        /// Query 0's superstep `index` as a command for one partition.
        fn step_cmd(&self, index: u32, shared: Option<Arc<SharedStep>>) -> Cmd {
            Cmd::Step {
                q: Q,
                task: Arc::clone(&self.task),
                prev_agg: self.task.aggregate_identity(),
                index,
                shared,
            }
        }

        /// A record for a superstep over `members` partitions of which
        /// `deferred` are still held back.
        fn record(&self, members: usize, deferred: &[usize]) -> Arc<SharedStep> {
            let held = deferred.iter().map(|&w| {
                self.lane.hb.token_open(Q.0, kind::STEP);
                (w, self.task.aggregate_identity())
            });
            Arc::new(SharedStep {
                state: Mutex::new(SharedState {
                    deferred: held.collect(),
                    remaining: members,
                    reports: Vec::new(),
                }),
            })
        }

        /// The one message waiting on the coordinator channel, if any.
        fn response(&self) -> Option<Resp> {
            let Ok(CoordMsg::Worker(resp)) = self.rx.try_recv() else {
                return None;
            };
            assert!(self.rx.try_recv().is_err(), "one message at a time");
            Some(resp)
        }

        /// Dispatch query 0's superstep 0 on `w` as its only task; its
        /// one report. `solo`: as a one-partition superstep (else through
        /// a one-member record, the way a shared superstep reports).
        fn step(&self, w: usize, solo: bool) -> StepReport {
            let shared = (!solo).then(|| self.record(1, &[]));
            self.handle(w, self.step_cmd(0, shared));
            match self.response() {
                Some(Resp::StepDone(report)) if solo => report,
                Some(Resp::SuperstepDone(mut reports)) if !solo && reports.len() == 1 => {
                    reports.remove(0)
                }
                _ => panic!("a Step answers with its report"),
            }
        }

        /// Batches waiting in partition `w`'s mailbox for query 0, per
        /// parity slot.
        fn mail(&self, w: usize) -> [usize; 2] {
            let mail = relock(&self.lane.parts[w].mail);
            [0, 1].map(|slot| mail.slots[slot].get(&Q).map_or(0, Vec::len))
        }

        /// Does partition `w`'s mailbox have an entry for query 0, per
        /// parity slot (a taken slot keeps its entry, empty).
        fn holds(&self, w: usize) -> [bool; 2] {
            let mail = relock(&self.lane.parts[w].mail);
            [0, 1].map(|slot| mail.slots[slot].contains_key(&Q))
        }

        fn has_pending(&self, w: usize) -> bool {
            let ctx = self.lane.parts[w].ctx.lock().unwrap();
            ctx.worker.has_pending(Q)
        }

        /// Partition `w`'s part of a pending report.
        fn pending(&self, w: usize) -> Vec<(QueryId, usize)> {
            let ctx = self.lane.parts[w].ctx.lock().unwrap();
            ctx.worker.pending_report().collect()
        }
    }

    fn tally(sticky: bool, stop_at: u64) -> Arc<dyn QueryTask> {
        Arc::new(TypedTask::new(Tally {
            seed: VertexId(0),
            hop: 0,
            sticky,
            stop_at,
        }))
    }

    fn tally_of(aggregate: &Envelope) -> u64 {
        *aggregate.downcast_ref::<u64>().expect("a tally aggregate")
    }

    #[test]
    fn a_solo_step_closes_a_quantum_of_local_supersteps_on_the_lane() {
        let g = line(4);
        let parts = || RangePartitioner.partition(&g, 2);
        // The tally's vertex re-activates itself forever: the chain ends
        // at the quantum, with the partition still pending.
        let by_hand = seeded_lane(&g, parts(), tally(false, u64::MAX));
        let rep = by_hand.step(0, true);
        let executions = 1 + LOCAL_QUANTUM as usize;
        let chain = rep.chained.expect("closed on the lane");
        assert_eq!((chain.n, tally_of(&chain.agg_prev)), (LOCAL_QUANTUM, 1));
        assert_eq!(
            (rep.stats.executed, rep.stats.tasks),
            (executions, executions)
        );
        assert_eq!(rep.stats.local_deliveries, executions);
        assert!(rep.self_pending && rep.remote.is_empty() && tally_of(&rep.agg) == 1);
        // Every execution was audited against the published versions and
        // the one Step token is still open: the coordinator closes it.
        #[cfg(feature = "check-hb")]
        assert_eq!(by_hand.lane.hb.audited(), (executions as u64, 1));

        // In a shared superstep the same Step is reported as it ends.
        let by_hand = seeded_lane(&g, parts(), tally(false, u64::MAX));
        let rep = by_hand.step(0, false);
        assert!(rep.chained.is_none() && rep.self_pending);
        assert_eq!((rep.stats.executed, rep.stats.tasks), (1, 1));
    }

    #[test]
    fn a_chain_stops_before_a_terminating_close_and_at_a_crossing_step() {
        let g = line(4);
        let parts = || RangePartitioner.partition(&g, 2);
        // Sticky and stopping at 3: the third close would end the query,
        // so the third superstep is reported unrolled behind two closes.
        let by_hand = seeded_lane(&g, parts(), tally(true, 3));
        let rep = by_hand.step(0, true);
        let chain = rep.chained.expect("two closed on the lane");
        assert_eq!((chain.n, tally_of(&chain.agg_prev)), (2, 2));
        assert_eq!((rep.stats.executed, tally_of(&rep.agg)), (3, 1));
        assert!(rep.self_pending);

        // A flood from vertex 0 of `{0,1} {2,3}`: the superstep at vertex
        // 1 crosses, so it ends the chain — and what it sent waits in
        // partition 1's mailbox for superstep 2.
        let reach = Arc::new(TypedTask::new(ReachProgram::new(VertexId(0))));
        let by_hand = seeded_lane(&g, parts(), reach);
        let rep = by_hand.step(0, true);
        assert_eq!(rep.chained.map(|c| c.n), Some(1));
        assert_eq!((rep.stats.executed, rep.stats.remote_deliveries), (2, 1));
        assert!(!rep.self_pending && rep.remote == vec![1]);
        assert_eq!((by_hand.mail(0), by_hand.mail(1)), ([0, 0], [1, 0]));
    }

    /// A ping between vertex 0 (partition 0) and vertex 2 (partition 1) of
    /// `{0,1} {2,3}`: every superstep involves both and each sends to the
    /// other.
    fn ping_pong(g: &Arc<Graph>) -> ByHand {
        let ping = PingProgram {
            ring: vec![VertexId(0), VertexId(2)],
            rounds: 4,
        };
        let parts = RangePartitioner.partition(g, 2);
        seeded_lane(g, parts, Arc::new(TypedTask::new(ping)))
    }

    #[test]
    fn a_deferred_step_executes_its_sealed_input_while_the_mail_waits() {
        let by_hand = ping_pong(&line(4));
        assert_eq!((by_hand.mail(0), by_hand.mail(1)), ([1, 0], [1, 0]));
        // Superstep 0 at DoP 1: partition 0 runs, partition 1 is deferred.
        let record = by_hand.record(2, &[1]);
        by_hand.handle(0, by_hand.step_cmd(0, Some(Arc::clone(&record))));
        // Partition 0 sent to partition 1 *before* partition 1 ran: the
        // batch sits in the slot superstep 1 will read, beside the input
        // of superstep 0. Nothing went to the coordinator; the lane pushed
        // the deferred Step itself.
        assert_eq!((by_hand.mail(0), by_hand.mail(1)), ([0, 0], [1, 1]));
        assert!(by_hand.response().is_none());
        let (to, next) = by_hand.pushed.borrow_mut().pop().expect("handed on");
        assert!(to == 1 && matches!(next, Cmd::Step { index: 0, .. }));
        by_hand.run(to, next);
        // Partition 1 executed exactly its sealed input — one message,
        // not two — and the one message carries both reports.
        let Some(Resp::SuperstepDone(reports)) = by_hand.response() else {
            panic!("the last finisher reports the superstep");
        };
        let summary = |r: &StepReport| (r.worker, r.stats.messages_in, r.remote.clone());
        let reports: Vec<_> = reports.iter().map(summary).collect();
        assert_eq!(reports, vec![(0, 1, vec![1]), (1, 1, vec![0])]);
        assert_eq!((by_hand.mail(0), by_hand.mail(1)), ([0, 1], [0, 1]));
        assert!(by_hand.pushed.borrow().is_empty());
        #[cfg(feature = "check-hb")]
        assert_eq!(by_hand.lane.hb.audited(), (2, 2));
        // Superstep 1 reads what superstep 0 sent.
        by_hand.handle(1, by_hand.step_cmd(1, Some(by_hand.record(1, &[]))));
        let Some(Resp::SuperstepDone(reports)) = by_hand.response() else {
            panic!("a one-member record still reports through it");
        };
        assert_eq!(reports[0].stats.messages_in, 1);
        assert_eq!((by_hand.mail(0), by_hand.mail(1)), ([1, 1], [0, 0]));
    }

    #[test]
    fn a_collect_clears_both_of_the_querys_mail_slots() {
        let by_hand = ping_pong(&line(4));
        // Leave mail in both parities on partition 1: the seed for
        // superstep 0 and what partition 0's Step sent for superstep 1.
        by_hand.handle(0, by_hand.step_cmd(0, Some(by_hand.record(1, &[]))));
        assert!(by_hand.response().is_some());
        assert_eq!(by_hand.mail(1), [1, 1]);
        for w in [0, 1] {
            by_hand.handle(w, Cmd::Collect { q: Q });
            let Some(Resp::Collected { q: Q, local }) = by_hand.response() else {
                panic!("a Collect answers with the local");
            };
            assert_eq!(local.is_some(), w == 0, "only partition 0 executed");
            assert_eq!(by_hand.holds(w), [false, false]);
        }
    }

    #[test]
    fn a_taken_slot_keeps_its_entry_and_trades_buffers_with_the_partition() {
        let by_hand = ping_pong(&line(4));
        let buffer = |w: usize, slot: usize| {
            let mail = relock(&by_hand.lane.parts[w].mail);
            (
                mail.slots[slot][&Q].as_ptr(),
                mail.slots[slot][&Q].capacity(),
            )
        };
        let seeded = buffer(0, 0);
        assert!(seeded.1 > 0 && by_hand.holds(0) == [true, false]);
        // Superstep 0 on partition 0 takes the seed batch: the entry stays,
        // empty, holding the (unallocated) buffer the partition owned, and
        // the partition now owns the slot's.
        by_hand.handle(0, by_hand.step_cmd(0, Some(by_hand.record(2, &[]))));
        assert_eq!((by_hand.holds(0), by_hand.mail(0)), ([true, false], [0, 0]));
        assert_eq!(buffer(0, 0).1, 0);
        {
            let ctx = by_hand.lane.parts[0].ctx.lock().unwrap();
            assert!(ctx.taken.is_empty(), "delivered, every batch");
            assert_eq!((ctx.taken.as_ptr(), ctx.taken.capacity()), seeded);
        }
        // Partition 1's Step sends back for superstep 1; superstep 2 would
        // read parity 0 again, where the entry still is.
        by_hand.handle(1, by_hand.step_cmd(0, Some(by_hand.record(1, &[]))));
        assert_eq!((by_hand.holds(0), by_hand.mail(0)), ([true, true], [0, 1]));
        by_hand.handle(0, by_hand.step_cmd(1, Some(by_hand.record(1, &[]))));
        assert_eq!((by_hand.holds(0), by_hand.mail(0)), ([true, true], [0, 0]));
        // The buffer superstep 0 took is the one superstep 1's slot keeps.
        assert_eq!(buffer(0, 1), seeded);
    }

    #[test]
    fn a_window_flushes_the_mail_so_a_pending_inbox_survives_migration() {
        // A flood from vertex 0 of `{0,1} {2,3}` leaves one batch for
        // vertex 2 in partition 1's mailbox, nothing in its inbox.
        let g = line(4);
        let reach: Arc<dyn QueryTask> = Arc::new(TypedTask::new(ReachProgram::new(VertexId(0))));
        let by_hand = seeded_lane(&g, RangePartitioner.partition(&g, 2), Arc::clone(&reach));
        by_hand.step(0, true);
        assert!(by_hand.mail(1) == [1, 0] && !by_hand.has_pending(1));
        // The window's flush moves it into the inbox, where the pending
        // report sees it.
        let (parts, hb) = (&by_hand.lane.parts, &by_hand.lane.hb);
        let task_of = |_: QueryId| Arc::clone(&reach);
        flush_mail(parts, hb, &task_of);
        assert_eq!(by_hand.mail(1), [0, 0]);
        assert_eq!(
            (by_hand.pending(0), by_hand.pending(1)),
            (vec![], vec![(Q, 1)])
        );

        // Migrating vertex 2 to partition 0 takes the mailed message along.
        let migration = Migration {
            moves: vec![crate::qcut::VertexMove {
                query: Q,
                from: 1,
                to: 0,
                vertices: vec![VertexId(2)],
            }],
            moved_vertices: 1,
            per_pair: vec![(1, 0, 1)],
        };
        let mut contexts: Vec<_> = parts.iter().map(|p| lock_ctx(&p.ctx)).collect();
        let mut workers: Vec<&mut Worker> = contexts.iter_mut().map(|c| &mut c.worker).collect();
        let gained = migrate::apply_to_workers(&migration, &mut workers, &task_of);
        drop(contexts);
        assert_eq!(gained, vec![(Q, 0)]);
        assert_eq!(
            (by_hand.pending(0), by_hand.pending(1)),
            (vec![(Q, 0)], vec![])
        );
        assert_eq!((by_hand.mail(0), by_hand.mail(1)), ([0, 0], [0, 0]));
    }

    /// Submitted through the erased path, a task is held by the core while
    /// its query lives, and by nothing once it finished.
    #[test]
    fn a_finished_querys_task_is_dropped() {
        let g = line(8);
        let mut e = ThreadEngine::new(Arc::clone(&g), RangePartitioner.partition(&g, 2));
        let reach = |v| -> Arc<dyn QueryTask> { Arc::new(TypedTask::new(ReachProgram::new(v))) };
        let mut kept = Vec::new();
        // Two before the engine starts, one from a client while it serves.
        for v in [0, 3] {
            let task = reach(VertexId(v));
            kept.push(Arc::downgrade(&task));
            e.submit_task(task);
        }
        e.run();
        let task = reach(VertexId(5));
        kept.push(Arc::downgrade(&task));
        e.client().submit_task(task, None);
        e.drain();
        assert_eq!(e.report().outcomes.len(), 3);
        assert!(
            kept.iter().all(|t| t.upgrade().is_none()),
            "a task outlived its query"
        );
    }

    #[test]
    fn single_query_runs_to_completion() {
        let g = line(12);
        let parts = RangePartitioner.partition(&g, 3);
        let mut e = ThreadEngine::new(Arc::clone(&g), parts);
        let q = e.submit(ReachProgram::new(VertexId(0)));
        e.run();
        assert_eq!(e.output(&q).unwrap().len(), 12);
        assert_eq!(e.report().outcomes.len(), 1);
        let o = &e.report().outcomes[0];
        assert_eq!(o.iterations, 12);
        assert_eq!(o.program, "reach");
        assert!(o.queueing_delay_secs() >= 0.0);
        assert!(o.time_in_system_secs() >= o.latency_secs());
    }

    #[test]
    fn many_parallel_queries() {
        let g = line(64);
        let parts = RangePartitioner.partition(&g, 4);
        let mut e = ThreadEngine::new(Arc::clone(&g), parts);
        let qs: Vec<_> = (0..12u32)
            .map(|i| e.submit(ReachProgram::bounded(VertexId(i * 5), 4)))
            .collect();
        e.run();
        assert_eq!(e.report().outcomes.len(), 12);
        for (i, q) in qs.iter().enumerate() {
            assert_eq!(q.id(), QueryId(i as u32));
            assert!(!e.output(q).unwrap().is_empty());
        }
    }

    #[test]
    fn heterogeneous_queries_in_one_run() {
        let g = line(16);
        let parts = RangePartitioner.partition(&g, 2);
        let mut e = ThreadEngine::new(Arc::clone(&g), parts);
        let reach = e.submit(ReachProgram::bounded(VertexId(0), 5));
        let ping = e.submit(PingProgram {
            ring: vec![VertexId(2), VertexId(14)],
            rounds: 6,
        });
        e.run();
        assert_eq!(e.output(&reach).unwrap().len(), 6);
        assert_eq!(*e.output(&ping).unwrap(), 5);
        let mut programs: Vec<&str> = e.report().outcomes.iter().map(|o| o.program).collect();
        programs.sort_unstable();
        assert_eq!(programs, vec!["ping", "reach"]);
    }

    #[test]
    fn empty_run_is_a_no_op() {
        let g = line(4);
        let parts = RangePartitioner.partition(&g, 2);
        let mut e = ThreadEngine::new(g, parts);
        e.run();
        assert!(e.report().outcomes.is_empty());
    }

    #[test]
    fn run_then_submit_then_run_again() {
        let g = line(8);
        let parts = RangePartitioner.partition(&g, 2);
        let mut e = ThreadEngine::new(Arc::clone(&g), parts);
        let q1 = e.submit(ReachProgram::new(VertexId(3)));
        e.run();
        let q2 = e.submit(ReachProgram::new(VertexId(6)));
        e.run();
        assert_eq!(e.output(&q1).unwrap().len(), 5);
        assert_eq!(e.output(&q2).unwrap().len(), 2);
        assert_eq!(e.report().outcomes.len(), 2);
        // Each run closed its own window over the cumulative report.
        assert_eq!(e.report().runs.len(), 2);
        assert_eq!(e.report().run_outcomes(0).len(), 1);
        assert_eq!(e.report().run_outcomes(1).len(), 1);
    }

    #[test]
    fn drain_without_start_runs_pre_submitted_queries() {
        let g = line(8);
        let parts = RangePartitioner.partition(&g, 2);
        let mut e = ThreadEngine::new(Arc::clone(&g), parts);
        let q = e.submit(ReachProgram::new(VertexId(0)));
        // drain() must honor its contract and execute the backlog, not
        // return early because start() was never called.
        e.drain();
        assert_eq!(e.output(&q).unwrap().len(), 8);
        assert_eq!(e.report().outcomes.len(), 1);
        // ...but a never-started, never-submitted engine stays inert.
        let parts = RangePartitioner.partition(&g, 2);
        let mut idle = ThreadEngine::new(Arc::clone(&g), parts);
        idle.drain();
        assert!(idle.report().outcomes.is_empty());
    }

    #[test]
    fn locality_matches_sim_engine_definition() {
        // The superstep crossing the 5->6 partition boundary runs on one
        // worker but sends a remote message: per the canonical rule
        // (`barrier::decide`: one involved worker AND nothing crossed) it
        // must not count as local — same as the simulated engine.
        let g = line(12);
        let parts = RangePartitioner.partition(&g, 2);
        let mut e = ThreadEngine::new(Arc::clone(&g), parts);
        let q = e.submit(ReachProgram::new(VertexId(0)));
        e.run();
        assert_eq!(e.output(&q).unwrap().len(), 12);
        let o = &e.report().outcomes[0];
        assert!(o.remote_messages >= 1);
        assert!(o.locality() < 1.0, "crossing superstep counted as local");
    }

    #[test]
    fn report_time_base_is_monotonic_across_runs() {
        let g = line(8);
        let parts = RangePartitioner.partition(&g, 2);
        let mut e = ThreadEngine::new(Arc::clone(&g), parts);
        e.submit(ReachProgram::new(VertexId(0)));
        e.run();
        let first_end = e.report().finished_at_secs;
        e.submit(ReachProgram::new(VertexId(4)));
        e.run();
        let report = e.report();
        assert!(report.finished_at_secs >= first_end);
        for o in &report.outcomes {
            assert!(
                o.completed_at.as_secs_f64() <= report.finished_at_secs + 1e-9,
                "outcome completes after the report's end"
            );
        }
        let second = &report.outcomes[1];
        assert!(second.submitted_at.as_secs_f64() >= first_end - 1e-9);
    }

    #[test]
    fn time_base_survives_shutdown_and_restart() {
        let g = line(8);
        let parts = RangePartitioner.partition(&g, 2);
        let mut e = ThreadEngine::new(Arc::clone(&g), parts);
        e.submit(ReachProgram::new(VertexId(0)));
        e.run();
        let first_end = e.report().finished_at_secs;
        e.shutdown();
        // A fresh serve session continues the report's time base.
        e.submit(ReachProgram::new(VertexId(4)));
        e.run();
        let second = &e.report().outcomes[1];
        assert!(second.submitted_at.as_secs_f64() >= first_end - 1e-9);
        assert_eq!(e.report().outcomes.len(), 2);
    }

    #[test]
    fn single_worker_partition() {
        let g = line(8);
        let parts = RangePartitioner.partition(&g, 1);
        let mut e = ThreadEngine::new(Arc::clone(&g), parts);
        let q = e.submit(ReachProgram::new(VertexId(3)));
        e.run();
        assert_eq!(e.output(&q).unwrap().len(), 5);
        assert_eq!(e.report().outcomes[0].locality(), 1.0);
    }

    #[test]
    fn closed_loop_respects_max_parallel() {
        let g = line(32);
        let parts = RangePartitioner.partition(&g, 2);
        let cfg = SystemConfig {
            max_parallel_queries: 2,
            ..Default::default()
        };
        let mut e = ThreadEngine::with_config(Arc::clone(&g), parts, cfg);
        let qs: Vec<_> = (0..6u32)
            .map(|i| e.submit(ReachProgram::bounded(VertexId(i), 2)))
            .collect();
        e.run();
        assert_eq!(e.report().outcomes.len(), 6);
        for q in qs {
            assert!(e.output(&q).is_some());
        }
    }

    /// The basic streaming contract: a second thread submits through a
    /// cloned client while the engine is live; drain makes everything
    /// visible.
    #[test]
    fn client_submits_from_second_thread() {
        let g = line(32);
        let parts = RangePartitioner.partition(&g, 2);
        let mut e = ThreadEngine::new(Arc::clone(&g), parts);
        let client = e.client();
        let producer = thread::spawn(move || {
            (0..8u32)
                .map(|i| client.submit(ReachProgram::bounded(VertexId(i * 3), 4)))
                .collect::<Vec<_>>()
        });
        let handles = producer.join().expect("producer");
        e.drain();
        for h in &handles {
            assert!(e.output(h).is_some(), "streamed query finished");
        }
        assert_eq!(e.report().outcomes.len(), 8);
        e.shutdown();
        assert_eq!(e.report().outcomes.len(), 8);
    }

    /// Submissions racing the drive loop: the producer interleaves with
    /// in-flight supersteps rather than landing in one pre-run batch.
    #[test]
    fn interleaved_stream_completes() {
        let g = line(64);
        let parts = RangePartitioner.partition(&g, 4);
        let cfg = SystemConfig {
            max_parallel_queries: 2,
            ..Default::default()
        };
        let mut e = ThreadEngine::with_config(Arc::clone(&g), parts, cfg);
        // Seed the engine so supersteps are in flight when the stream lands.
        let seed = e.submit(ReachProgram::new(VertexId(0)));
        let client = e.client();
        let producer = thread::spawn(move || {
            let mut hs = Vec::new();
            for i in 0..6u32 {
                hs.push(client.submit(ReachProgram::bounded(VertexId(i * 9), 5)));
                thread::yield_now();
            }
            hs
        });
        let handles = producer.join().expect("producer");
        e.drain();
        assert_eq!(e.output(&seed).unwrap().len(), 64);
        for h in &handles {
            assert!(e.output(h).is_some());
        }
        assert_eq!(e.report().outcomes.len(), 7);
    }

    #[test]
    fn no_mail_entry_outlives_its_query() {
        // `take` leaves entries behind; `Collect` is what removes them. A
        // mixed stream over an every-hop-crosses layout: floods that end by
        // running dry, a ping, and a tally its aggregate stops while the
        // fourth vertex's activation waits in the mail.
        let g = line(48);
        let assign = (0..48).map(|v| qgraph_partition::WorkerId(v % 4));
        let mut e = ThreadEngine::new(Arc::clone(&g), Partitioning::new(assign.collect(), 4));
        for round in 0..3u32 {
            for source in [0, 17, 30] {
                e.submit(ReachProgram::bounded(VertexId(source + round), 9));
            }
            e.submit(PingProgram {
                ring: (0..7).map(VertexId).collect(),
                rounds: 5,
            });
            e.submit(Tally {
                seed: VertexId(round),
                hop: 1,
                sticky: true,
                stop_at: 3,
            });
            e.drain();
            let parts = e.parts.as_ref().expect("serving");
            for (w, part) in parts.iter().enumerate() {
                let mail = relock(&part.mail);
                let left: Vec<_> = mail.slots.iter().flat_map(|s| s.keys()).collect();
                assert!(left.is_empty(), "partition {w} still holds {left:?}");
            }
        }
        assert_eq!(e.report().outcomes.len(), 15);
    }

    #[test]
    fn budgeted_supersteps_match_the_simulation_and_answer_with_one_message_each() {
        use crate::sched::DopPolicy;
        use std::sync::atomic::Ordering;
        // A line dealt round-robin over four partitions: every hop crosses,
        // so no superstep is closed on a lane and every one is dispatched.
        let g = line(48);
        let parts = || {
            let assign = (0..48).map(|v| qgraph_partition::WorkerId(v % 4));
            Partitioning::new(assign.collect(), 4)
        };
        fn submit<E: crate::Engine>(e: &mut E) {
            for source in [0, 17, 30, 47] {
                e.submit(ReachProgram::bounded(VertexId(source), 9));
            }
            e.submit(PingProgram {
                ring: (0..7).map(VertexId).collect(),
                rounds: 6,
            });
        }
        let work = |report: &EngineReport| {
            let mut work: Vec<_> = report
                .outcomes
                .iter()
                .map(|o| {
                    let msgs = (o.remote_messages, o.remote_batches, o.vertex_updates);
                    let supersteps = (o.iterations, o.local_iterations);
                    (o.id, supersteps, o.tasks, o.effective_dop, msgs)
                })
                .collect();
            work.sort_unstable();
            work
        };
        for dop in [1, 2] {
            let cfg = SystemConfig {
                dop: DopPolicy::Fixed(dop),
                ..Default::default()
            };
            let mut threads = ThreadEngine::with_config(Arc::clone(&g), parts(), cfg.clone());
            let mut sim = crate::SimEngine::new(
                Arc::clone(&g),
                qgraph_sim::ClusterModel::scale_up(4),
                parts(),
                cfg,
            );
            submit(&mut threads);
            submit(&mut sim);
            threads.run();
            sim.run();
            let expected = work(sim.report());
            assert_eq!(work(threads.report()), expected, "DoP {dop}");
            let supersteps: u64 = expected.iter().map(|w| u64::from(w.1 .0)).sum();
            let dispatched = threads.traffic.dispatched.load(Ordering::Relaxed);
            let messages = threads.traffic.messages.load(Ordering::Relaxed);
            assert_eq!((dispatched, messages), (supersteps, supersteps));
            // The ping starts on all four partitions: the budget held
            // some of them back.
            assert_eq!(expected[4].3, dop as u32);
        }
    }

    /// `n` vertices dealt round-robin over two partitions: every reach
    /// superstep on a line crosses the boundary, so locality is ~0.
    fn interleaved(n: u32) -> Partitioning {
        let assign = (0..n).map(|v| qgraph_partition::WorkerId(v % 2)).collect();
        Partitioning::new(assign, 2)
    }

    fn qcut_with_cooldown(secs: f64) -> SystemConfig {
        SystemConfig {
            qcut: Some(QcutConfig {
                min_repartition_interval_secs: secs,
                ..Default::default()
            }),
            ..Default::default()
        }
    }

    #[test]
    fn qcut_barrier_repartitions_and_preserves_answers() {
        let g = line(64);
        let mut e =
            ThreadEngine::with_config(Arc::clone(&g), interleaved(64), qcut_with_cooldown(0.0));
        let a = e.submit(ReachProgram::new(VertexId(0)));
        let b = e.submit(ReachProgram::new(VertexId(1)));
        e.run();
        assert_eq!(e.output(&a).unwrap().len(), 64);
        assert_eq!(e.output(&b).unwrap().len(), 63);
        let report = e.report();
        assert!(
            !report.repartitions.is_empty(),
            "interleaved partition + low locality must trigger Q-cut"
        );
        for r in &report.repartitions {
            assert!(r.moved_vertices > 0);
            assert!(r.ils.final_cost <= r.ils.initial_cost + 1e-9);
            assert!(r.applied_at >= r.triggered_at);
        }
        // The assignment actually changed and still covers the graph.
        assert_eq!(e.partitioning().num_vertices(), 64);
        assert_eq!(e.partitioning().sizes().iter().sum::<usize>(), 64);
    }

    /// The thrash net: on a partitioning that keeps locality under Φ for
    /// the whole run, windows still open no more often than the cooldown
    /// (session wall-clock) allows.
    #[test]
    fn the_cooldown_spaces_repartitions_on_the_wall_clock() {
        let cooldown = 1e-3;
        let g = line(1024);
        let parts = interleaved(1024);
        let mut e = ThreadEngine::with_config(Arc::clone(&g), parts, qcut_with_cooldown(cooldown));
        let qs: Vec<_> = (0..4u32)
            .map(|i| e.submit(ReachProgram::new(VertexId(i))))
            .collect();
        e.run();
        for (i, q) in qs.iter().enumerate() {
            assert_eq!(e.output(q).unwrap().len(), 1024 - i);
        }
        let report = e.report();
        let events = &report.repartitions;
        assert!(
            !events.is_empty(),
            "a thousand remote supersteps, no window"
        );
        for pair in events.windows(2) {
            let gap = pair[1].triggered_at - pair[0].triggered_at;
            assert!(gap >= cooldown - 1e-9, "triggers {gap} s apart");
        }
        let most = (report.finished_at_secs / cooldown).floor() as usize + 1;
        assert!(
            events.len() <= most,
            "{} windows, at most {most}",
            events.len()
        );
    }

    #[test]
    fn the_default_cooldown_outlasts_a_short_run() {
        // Ten wall-clock seconds from session start: a millisecond run on
        // the worst partitioning never pays for a window.
        let g = line(32);
        let parts = interleaved(32);
        let before = parts.clone();
        let cfg = SystemConfig::qgraph();
        let mut e = ThreadEngine::with_config(Arc::clone(&g), parts, cfg);
        let a = e.submit(ReachProgram::new(VertexId(0)));
        let b = e.submit(ReachProgram::new(VertexId(1)));
        e.run();
        assert_eq!(e.output(&a).unwrap().len(), 32);
        assert_eq!(e.output(&b).unwrap().len(), 31);
        assert!(e.report().repartitions.is_empty());
        assert_eq!(e.partitioning(), &before, "assignment untouched");
    }
}
