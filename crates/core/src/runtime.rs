//! A real multi-threaded shared-memory runtime: the `TaskPool` executor
//! of the coordinator core.
//!
//! [`ThreadEngine`] runs the same worker code as the discrete-event engine
//! — same query locals over the same per-partition scratch, same vertex
//! programs — and executes
//! the same query protocol (`coord`), on OS threads with
//! `std::sync::mpsc` channels. It demonstrates that the library is an
//! executable system, and the integration tests use it to cross-validate
//! the simulator: both runtimes must produce identical query outputs.
//!
//! ## Morsel-style elastic execution
//!
//! Partitions are *logical actors*, not threads. Each partition's own
//! state — its batch pool and combine scratch, its view of the published
//! topology and assignment — lives in a `WorkerCtx`; a query's vertex
//! values, inboxes and scope there live in the query's record (see
//! `coord`). Every Step of a superstep on a partition is one `Cmd` task
//! in a shared [`TaskPool`] drawn by [`SystemConfig::pool_threads`] OS
//! threads (default: one per partition, the fixed-partition baseline). The
//! pool serializes tasks per partition, so partition ownership still
//! governs *placement*, while *compute* is elastic: one thread can drain
//! many partitions, and many threads can race through one query's
//! superstep. A query the core dispatches stays on the lanes until it
//! terminates or parks, and then answers once on the coordinator channel
//! (`Resp`); the count of queries still unanswered is this executor's
//! definition of quiescence.
//!
//! ## Messages stay on the lanes
//!
//! No message of a running query crosses the coordinator: a superstep's
//! input lives in its query's record (see `coord`). A Step of superstep
//! `n` takes its partition's input and its partition's local out of the
//! record under one lock, delivers the input into the local's inbox and
//! seals it; its fold puts the local back and every remote batch into the
//! record's input for `n + 1`, under the lock it folds under — so a
//! partition of superstep `n` that runs late (deferred by the DoP budget)
//! cannot see this superstep's output, whenever it runs, and every local
//! is at rest in the record at every close. Admission puts the initial
//! batches into the record, mail left by a query its aggregate terminated
//! goes with the record, and a window that migrates has the core deliver
//! every live record's pending input into that record's locals first.
//!
//! Taking trades buffers: the Step swaps the record's vector with the
//! empty one the `WorkerCtx` owns, so the record keeps a buffer the next
//! superstep's sends fill (the Step delivers the whole take).
//! Together with the batch buffers that circulate through each
//! partition's pool (see [`crate::worker`]), a steady-state Step puts,
//! takes and delivers without touching the allocator, and a finished
//! query's locals hold no batch buffer for the coordinator to free.
//!
//! ## Lanes close every superstep
//!
//! The core dispatches a query's first superstep (and a parked query's
//! next) with its record — the core's one `Query` per admitted query: id,
//! task, superstep state, mail and locals behind one lock — and from then
//! on the lanes drive it. Every `Step` carries the record: the lane that
//! finishes a Step folds its report in (`Stepping::fold`) and pushes the
//! next held-back partition's Step itself, and the last finisher closes
//! the superstep (`Stepping::close`, the simulation's close too) and,
//! under the same lock, begins the next one and pushes its first `dop`
//! Steps — or hands the query back to park when the park flag is up, or,
//! when the query terminated, sends the coordinator its one
//! `Resp::Terminated`: the locals are all in the record, and the
//! coordinator finalizes over them (`Coordinator::finish`) with no further
//! pool command. A Q-cut check is due from an instant the coordinator
//! publishes (the last plan's due instant plus the core's paced wait): the
//! lane that closes a superstep at or after it takes it and sends one
//! `Tick`. A local superstep — one partition, nothing sent away — that
//! goes on is begun in place: the record holds no input for it, so the
//! lane takes its local again, seals its inbox and executes again, up to
//! `LOCAL_QUANTUM` = 4 times per `Step` (the paper's communication-free
//! local barrier, §3.3).
//!
//! ## The window works on the records
//!
//! A stop-the-world window opens only when no query is on the lanes, so
//! no lane computes until it ends and every local is at rest in its
//! record. The core reads the scopes, delivers the pending input and
//! migrates there (see `coord`); this executor's part is to install a new
//! `Arc<Topology>` / `Arc<Partitioning>` into every partition's
//! `WorkerCtx` — the only time the coordinator locks one — before
//! anything resumes. A lane releases its context before it answers, so a
//! window never waits on a lane's epilogue. The Q-cut trigger's scope read
//! outside a window locks records, not contexts: it skips a local a
//! running Step holds, and so never waits on a lane.
//!
//! ## Streaming submission and the serving loop
//!
//! The engine is *long-lived*: [`ThreadEngine::start`] spawns the pool
//! plus a **coordinator** thread that owns the core and the drive loop
//! (`serve`). Callers on any thread submit through a cloneable
//! [`EngineClient`] *while supersteps are in flight*; the engine's own
//! `submit*` and `mutate` are its client's:
//!
//! * the client channel is created with the engine, and a stop opens a
//!   fresh one: whatever is sent before `start`, or after `shutdown`,
//!   waits there and the next session serves it in order;
//! * a submission draws its [`QueryId`] from a shared counter and sends
//!   its type-erased task down the same channel the pool answers on; the
//!   coordinator stamps the arrival time and hands both to the core, which
//!   holds the task until the query completes — nothing else keeps it;
//! * a `Resp::Tick` — and, while a check is due, a query's termination,
//!   whose scope the core retains as it finishes the query — runs the
//!   core's one Q-cut trigger (`Coordinator::trigger`) on the session
//!   clock: μ is session wall-clock seconds here, and the ILS budget is
//!   not read; a hit reads the scopes from the records while the lanes
//!   compute, runs the ILS on this turn and makes its plan due as the
//!   ILS returns (`Coordinator::plan_due`) — a plan that moves nothing
//!   opens no window. The core paces the next check from the instants
//!   this executor reports (see `coord`): what the scope statistics and
//!   the ILS took, plus the window's own duration;
//! * a lane that panics says so as it unwinds, and stopping the pool
//!   re-raises the panic through `drain`;
//! * the window reads nothing from the channel: a client message sent
//!   meanwhile waits there and is admitted against the post-window layout.
//!
//! ## One hand-off
//!
//! Every report entry has one owner. A session's coordinator records
//! outcomes, window events and trace events into a report that starts
//! from the engine's scalars alone (`EngineReport::carry`). At every
//! drain, and at the stop, it moves what it recorded since the previous
//! hand-over into one `Snapshot`, with the layout; the engine appends
//! the entries. A drain stamps the report's end at its instant, and so
//! does the stop when it hands over an outcome or a repartition. The
//! stop's snapshot comes back with the controller and the label index.
//! Results become visible on the engine (`output`, `report`,
//! `partitioning`) at these hand-overs: `run`, `drain` and `shutdown`.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::Instant;

use qgraph_graph::{Graph, MutationBatch as GraphMutationBatch, Topology, VertexId};
use qgraph_partition::Partitioning;
use qgraph_sim::SimTime;

use crate::api::{Engine, Runtime};
use crate::barrier;
use crate::config::SystemConfig;
use crate::controller::Controller;
use crate::coord::{Close, Coordinator, EngineState, Executor, Record, StepReport, Stepping};
use crate::hb::{kind, Hb};
use crate::index_plane::PointIndex;
use crate::pool::TaskPool;
use crate::program::VertexProgram;
use crate::qcut::Migration;
use crate::query::{QueryHandle, QueryId};
use crate::report::{EngineReport, PoolCounters};
use crate::sched::check_submission;
use crate::task::{Envelope, MessageBatch, QueryTask, TypedTask};
use crate::trace::Tracer;
use crate::worker::Scratch;

/// Lock a partition's worker state. Unlike a record, a command that
/// panicked mid-way may have left it torn, so poisoning propagates.
fn lock_ctx(ctx: &Mutex<WorkerCtx>) -> MutexGuard<'_, WorkerCtx> {
    ctx.lock()
        // qlint: allow(no-unwrap-hot-loop) — poisoned ⇒ a sibling pool thread already panicked; propagate
        .expect("worker state poisoned by an earlier panic")
}

/// A partition: the worker state the pool serializes access to, and the
/// vertex updates its Steps ran since the coordinator last looked.
struct Partition {
    ctx: Mutex<WorkerCtx>,
    executed: AtomicU64,
}

/// The one pool command, a `Step`: execute the query's current superstep
/// here and fold it into its record (see the module docs).
struct Cmd {
    /// This Step's copy of the aggregate the superstep reads.
    prev_agg: Envelope,
    record: Record,
}

/// How many supersteps a lane begins in place per `Step` command (so one
/// command executes at most `1 + LOCAL_QUANTUM`). The paper's hybrid
/// barrier makes a superstep that ran on one partition and crossed no
/// boundary communication-free; the quantum bounds how long another query
/// queued on the same partition waits behind such a run. Chain
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
/// (head-of-line blocking on the hotspot partition). With the lanes
/// closing every superstep, chaining still pays: a variant that pushed
/// each next local superstep through the pool instead read lower on
/// `road-domain` in 3 of 4 pairs.
const LOCAL_QUANTUM: u32 = 4;

/// What the lanes tell the coordinator.
enum Resp {
    /// Query `q` closed a superstep while a window was wanted.
    Parked(QueryId),
    /// Query `q` terminated: its locals are all at rest in its record.
    Terminated(QueryId),
    /// A superstep closed at or after the published Q-cut check instant.
    Tick,
    /// A lane is unwinding from a panic.
    Panicked,
}

/// What the lanes read at every close and the coordinator publishes.
struct Signals {
    /// A window is wanted: a closing lane hands its query back.
    park: AtomicBool,
    /// The session-clock instant (nanoseconds) from which a close asks for
    /// a Q-cut check; `u64::MAX`: none due, or one asked for already.
    check_at: AtomicU64,
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
    /// Hand over on `ack` once the engine is idle (everything submitted
    /// so far has completed).
    Drain {
        ack: Sender<Snapshot>,
    },
    /// Stop serving (the engine drains first; see
    /// [`ThreadEngine::shutdown`]).
    Shutdown,
}

/// One hand-over from the coordinator to the engine (see the module
/// docs): what was recorded since the previous one, and the layout.
struct Snapshot {
    /// The entries, moved out of the coordinator's report
    /// ([`EngineReport::hand_over`]), with the scalars current.
    report: EngineReport,
    partitioning: Partitioning,
    topology: Topology,
    /// Outputs of the queries that finished since the previous hand-over.
    outputs: Vec<(QueryId, Envelope)>,
}

/// What a stopped coordinator hands back: the last hand-over, plus the
/// controller and the label index it served with.
type Stopped = (Snapshot, Controller, Option<Box<dyn PointIndex>>);

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
/// A client serves one session: submissions after the engine has shut
/// down are silently dropped (the returned handle's output stays `None`)
/// — a streaming producer racing a shutdown must coordinate externally if
/// that matters.
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
    ///
    /// # Panics
    /// Rejects a deadline that is not a finite, non-negative number of
    /// seconds here, on the caller's stack, before the query gets an id.
    pub fn submit_task(&self, task: Arc<dyn QueryTask>, deadline_secs: Option<f64>) -> QueryId {
        check_submission(None, deadline_secs);
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

/// The multi-threaded engine: the shared [`Engine`] front over the thread
/// runtime, an elastic pool of compute threads plus a coordinator thread
/// serving an open-ended query stream (see the module docs for the
/// streaming protocol).
pub type ThreadEngine = Engine<Threads>;

/// The thread [`Runtime`]: the engine's state between serve sessions and
/// the session it serves.
pub struct Threads {
    /// The engine's state as of the last hand-over. While serving, the
    /// coordinator holds the master: topology and assignment here are
    /// copies refreshed at every drain, the report holds every entry
    /// handed over so far, and the controller (so retained finished
    /// scopes survive serve sessions) and the label index are away with
    /// the session until the stop hands them back.
    state: EngineState,
    cfg: SystemConfig,
    /// The engine's own client: `submit*` and `mutate` are its.
    client: EngineClient,
    /// The receiving end of `client`'s channel until a session's
    /// coordinator takes it: what was sent meanwhile waits there.
    inbox: Option<Receiver<CoordMsg>>,
    /// The serving session's coordinator thread.
    serving: Option<thread::JoinHandle<Stopped>>,
    outputs: Vec<Option<Envelope>>,
    /// Test hook: see [`Engine::hb_test_reintroduce_quiesce_race`].
    #[cfg(feature = "check-hb")]
    hb_test_early_quiesce: bool,
    /// Test probe: what the coordinator dispatched and heard back.
    #[cfg(test)]
    traffic: Arc<StepTraffic>,
    /// Test probe: the serving session's signals (the park flag).
    #[cfg(test)]
    signals: Option<Arc<Signals>>,
}

/// Supersteps the coordinator dispatched, and the messages about queries
/// it heard back from the lanes.
#[cfg(test)]
#[derive(Default)]
struct StepTraffic {
    dispatched: std::sync::atomic::AtomicU64,
    messages: std::sync::atomic::AtomicU64,
}

impl Engine<Threads> {
    /// Create a runtime with an explicit configuration. The thread runtime
    /// honors `max_parallel_queries`, the admission policy, and — when
    /// `qcut` is set — the adaptive repartitioning loop, μ read in session
    /// wall-clock seconds and paced by what its plans and windows take,
    /// not by the ILS budget; barrier mode and the
    /// simulated cost model remain simulation-only.
    pub fn with_config(graph: Arc<Graph>, partitioning: Partitioning, cfg: SystemConfig) -> Self {
        assert_eq!(
            partitioning.num_vertices(),
            graph.num_vertices(),
            "partitioning does not cover the graph"
        );
        let (tx, rx) = channel();
        let controller = Controller::new(cfg.qcut.clone(), partitioning.num_workers());
        let rt = Threads {
            state: EngineState {
                topology: Topology::new(graph),
                partitioning,
                controller,
                index: None,
                report: EngineReport::default(),
            },
            cfg,
            client: EngineClient {
                next_id: Arc::default(),
                tx,
            },
            inbox: Some(rx),
            serving: None,
            outputs: Vec::new(),
            #[cfg(feature = "check-hb")]
            hb_test_early_quiesce: false,
            #[cfg(test)]
            traffic: Arc::default(),
            #[cfg(test)]
            signals: None,
        };
        Engine { rt }
    }

    /// Test-only hook: re-introduce the historical bug where the
    /// stop-the-world barrier opened its quiesce window while one query
    /// was still on the lanes (the coordinator treats a single in-flight
    /// op as "quiescent"). The `check-hb` auditor must
    /// flag that dispatch-inside-quiesce race deterministically; the
    /// regression test in `tests/` keeps it that way.
    #[cfg(feature = "check-hb")]
    #[doc(hidden)]
    pub fn hb_test_reintroduce_quiesce_race(&mut self) {
        assert!(
            self.rt.serving.is_none(),
            "set the quiesce-race hook before the engine starts serving"
        );
        self.rt.hb_test_early_quiesce = true;
    }

    /// Start serving: spawn the elastic pool threads and the coordinator
    /// thread owning the drive loop. Idempotent. What was sent before
    /// this call is served in the order it was sent.
    pub fn start(&mut self) {
        self.rt.start();
    }

    /// Submit with a deadline `deadline_secs` from arrival (consulted by
    /// [`crate::AdmissionPolicy::Deadline`]).
    ///
    /// # Panics
    /// Rejects a malformed deadline, as [`EngineClient::submit_task`] does.
    pub fn submit_with_deadline<P: VertexProgram>(
        &mut self,
        program: P,
        deadline_secs: f64,
    ) -> QueryHandle<P> {
        self.rt.client.submit_with_deadline(program, deadline_secs)
    }

    /// A cloneable concurrent submission handle (starts the engine if it
    /// is not serving yet). Clients submit from any thread while
    /// supersteps are in flight.
    pub fn client(&mut self) -> EngineClient {
        self.rt.start();
        self.rt.client.clone()
    }

    /// Block until everything submitted so far has completed, then take
    /// the coordinator's hand-over in: outputs, report entries and
    /// partitioning, and stamp the report's end. If concurrent clients
    /// keep submitting, the drain waits for *them* too — it returns at a
    /// moment the engine is fully idle.
    /// Starts the engine if it is not serving; [`Engine::run`] is this
    /// call.
    pub fn drain(&mut self) -> &EngineReport {
        self.run()
    }

    /// Drain, then stop the coordinator and worker threads and take the
    /// last hand-over, the controller and the index back. The engine can
    /// be started again afterwards. A client submission racing the stop is
    /// still *executed* if the coordinator had already admitted it (its
    /// outcome and output are in the final state); one still waiting in
    /// the admission queue is discarded, like any submission after
    /// shutdown.
    pub fn shutdown(&mut self) -> &EngineReport {
        let rt = &mut self.rt;
        if rt.serving.is_some() {
            rt.drive();
            let _ = rt.client.tx.send(CoordMsg::Shutdown);
            rt.stop();
        }
        self.report()
    }
}

impl Runtime for Threads {
    fn held(&self) -> (&EngineState, &[Option<Envelope>]) {
        (&self.state, &self.outputs)
    }

    fn held_mut(&mut self) -> (&mut EngineState, &mut [Option<Envelope>]) {
        (&mut self.state, &mut self.outputs)
    }

    // Sent before `start` or after `shutdown`, a submission or a batch
    // waits in the channel for the next session, in order with the rest.
    fn enqueue(&mut self, task: Arc<dyn QueryTask>) -> QueryId {
        self.client.submit_task(task, None)
    }

    fn apply(&mut self, batch: GraphMutationBatch) {
        self.client.mutate(batch);
    }

    // While serving the coordinator owns the index and picks a new one up
    // on its next turn; otherwise it waits for the next `start`.
    fn install(&mut self, index: Box<dyn PointIndex>) {
        if self.serving.is_some() {
            let _ = self.client.tx.send(CoordMsg::InstallIndex(index));
        } else {
            self.state.index = Some(index);
        }
    }

    fn drive(&mut self) {
        self.start();
        let (ack_tx, ack_rx) = channel::<Snapshot>();
        let drain = CoordMsg::Drain { ack: ack_tx };
        let sent = self.client.tx.send(drain).ok();
        let Some(snapshot) = sent.and_then(|()| ack_rx.recv().ok()) else {
            // The coordinator hung up mid-serve; it only exits early by
            // panicking. Stopping it surfaces the *original* panic
            // (payload intact) instead of a secondary channel error here.
            self.stop();
            unreachable!("coordinator exited without acking the drain");
        };
        self.absorb(snapshot);
    }

    // Take the coordinator's hand-over first: an index built from a stale
    // view would disagree with serving.
    fn settle(&mut self) {
        self.drive();
    }
}

impl Threads {
    fn start(&mut self) {
        let Some(msg_rx) = self.inbox.take() else {
            return;
        };
        let k = self.state.partitioning.num_workers();
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
        // The core records from the report's scalars alone and hands its
        // entries over at every drain. The controller and the index
        // travel with the session (a static placeholder stays behind).
        // Building the core stamps the initial topology and assignment as
        // published, before any partition context below can read them.
        let st = &mut self.state;
        let pool_base = st.report.pool;
        let state = EngineState {
            topology: st.topology.clone(),
            partitioning: st.partitioning.clone(),
            controller: std::mem::replace(&mut st.controller, Controller::new(None, 0)),
            index: st.index.take(),
            report: st.report.carry(),
        };
        let core = Coordinator::new(state, self.cfg.clone(), hb.clone(), tracer.clone());
        // Partition state stays partition-owned: one context per logical
        // worker, locked by whichever pool thread draws that partition's
        // next command — or, inside a window, by the coordinator installing
        // a publication — so the lock only moves the state between threads.
        let shared_parts = Arc::new(self.state.partitioning.clone());
        let shared_topology = Arc::new(self.state.topology.clone());
        let parts: Arc<Vec<Partition>> = Arc::new(
            (0..k)
                .map(|w| {
                    hb.spawn_worker(w);
                    Partition {
                        ctx: Mutex::new(WorkerCtx {
                            scratch: Scratch::default(),
                            topology: Arc::clone(&shared_topology),
                            partitioning: Arc::clone(&shared_parts),
                            taken: Vec::new(),
                        }),
                        executed: AtomicU64::default(),
                    }
                })
                .collect(),
        );
        let signals = Arc::new(Signals {
            park: AtomicBool::new(false),
            check_at: AtomicU64::new(u64::MAX),
        });
        #[cfg(test)]
        {
            self.signals = Some(Arc::clone(&signals));
        }
        let lane = Lane {
            width: pool_threads,
            parts: Arc::clone(&parts),
            signals: Arc::clone(&signals),
            resp: self.client.tx.clone(),
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
            signals,
            check_at: u64::MAX,
            msg_rx,
            finished: Vec::new(),
            hb,
            tracer,
            clock,
            inflight_ops: 0,
            pool_base,
            // The hook widens "quiescent" to one still-open op — exactly
            // the race the hb auditor exists to catch.
            #[cfg(feature = "check-hb")]
            quiesce_at: usize::from(self.hb_test_early_quiesce),
            #[cfg(not(feature = "check-hb"))]
            quiesce_at: 0,
            drain: None,
            shutdown: false,
            #[cfg(test)]
            traffic: Arc::clone(&self.traffic),
        };
        self.serving = Some(thread::spawn(move || serve(core, x)));
    }

    /// Join the serving coordinator — told to stop, or dead — and take its
    /// last hand-over, the controller and the index back; the engine's
    /// client gets a fresh channel for the next session. Re-raises the
    /// coordinator's panic.
    fn stop(&mut self) {
        let Some(handle) = self.serving.take() else {
            return;
        };
        let (tx, rx) = channel();
        self.client.tx = tx;
        self.inbox = Some(rx);
        let (snapshot, controller, index) = match handle.join() {
            Ok(stopped) => stopped,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        self.absorb(snapshot);
        self.state.controller = controller;
        self.state.index = index;
    }

    /// Take a hand-over in: append its entries, adopt the layout, store
    /// the outputs.
    fn absorb(&mut self, s: Snapshot) {
        self.state.report.append(s.report);
        self.state.partitioning = s.partitioning;
        self.state.topology = s.topology;
        // Ids are dense. The counter publishes nothing, so `Relaxed`: a
        // finished id was drawn before its `Submit` was sent, and the
        // channel orders that draw before this hand-over.
        let issued = self.client.next_id.load(Ordering::Relaxed) as usize;
        self.outputs.resize_with(issued, || None);
        for (q, output) in s.outputs {
            self.outputs[q.index()] = Some(output);
        }
    }
}

impl Drop for Threads {
    /// Best-effort teardown *without* draining: already-admitted queries
    /// finish their run (their results are simply discarded with the
    /// engine), queued ones are dropped (use [`Engine::shutdown`]
    /// for a clean stop that keeps the results).
    fn drop(&mut self) {
        if let Some(handle) = self.serving.take() {
            let _ = self.client.tx.send(CoordMsg::Shutdown);
            let _ = handle.join();
        }
    }
}

/// The `TaskPool` executor: turns the core's superstep dispatches into
/// pool commands and channel traffic, and installs a window's
/// publications into the quiescent partitions. All of the session's
/// measurement state lives in the core it serves and leaves it at each
/// hand-over.
struct PoolExec {
    pool: TaskPool<Cmd>,
    /// The partitions: a window's installs lock their contexts.
    parts: Arc<Vec<Partition>>,
    signals: Arc<Signals>,
    /// The check instant last published; a lane that takes it swaps in
    /// `u64::MAX`, which stands until its `Tick` is handled.
    check_at: u64,
    msg_rx: Receiver<CoordMsg>,
    /// Outputs of finished queries, until the next hand-over.
    finished: Vec<(QueryId, Envelope)>,
    /// Happens-before auditor (no-op unless `check-hb`): stamps the
    /// command/response channel edges, the Step tokens and the window's
    /// installs.
    hb: Hb,
    /// Structured event recorder (no-op unless `SystemConfig::trace`); the
    /// pool threads hold clones of the same recorder and stamp off the
    /// same clock.
    tracer: Tracer,
    /// The session time base shared with every pool thread.
    clock: Clock,
    /// Queries on the lanes, each owing the coordinator one message: zero
    /// while a window is wanted means the partitions are quiescent.
    inflight_ops: usize,
    /// The pool counters the report carried into the session: this
    /// session's `TaskPool` counts from zero on top of them.
    pool_base: PoolCounters,
    /// How many unanswered ops still count as quiescent: 0, or 1 under
    /// [`ThreadEngine::hb_test_reintroduce_quiesce_race`].
    quiesce_at: usize,
    /// The engine's drain, acked at full idle.
    drain: Option<Sender<Snapshot>>,
    shutdown: bool,
    #[cfg(test)]
    traffic: Arc<StepTraffic>,
}

impl PoolExec {
    /// One of the messages `inflight_ops` counts arrived.
    fn answered(&mut self) {
        self.inflight_ops -= 1;
        #[cfg(test)]
        self.traffic.messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the core's pause into the park flag, and publish the next
    /// check instant unless a lane's `Tick` is still on its way.
    fn publish(&mut self, core: &Coordinator) {
        let signals = &self.signals;
        signals.park.store(core.paused(), Ordering::Relaxed);
        let at = core.next_check().0;
        if at != self.check_at
            && (signals.check_at)
                .compare_exchange(self.check_at, at, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.check_at = at;
        }
    }

    /// Feed the lanes' vertex updates since the last look to the
    /// straggler watch.
    fn note_activity(&self, core: &mut Coordinator, now: SimTime) {
        for (w, part) in self.parts.iter().enumerate() {
            let executed = part.executed.swap(0, Ordering::Relaxed);
            if executed > 0 {
                core.state.controller.note_activity(now, w, executed);
            }
        }
    }

    /// A due Q-cut check: the lanes' activity feeds the straggler watch,
    /// then the trigger runs. This turn paid for the ILS, so its plan is
    /// due as it returns.
    fn check(&mut self, core: &mut Coordinator, now: SimTime) {
        self.note_activity(core, now);
        if core.trigger(self, now).is_some() {
            core.plan_due(self.clock.now());
        }
    }

    /// The window's hold on the quiescent partitions: every worker state,
    /// locked in partition order.
    fn contexts(&self) -> Vec<MutexGuard<'_, WorkerCtx>> {
        self.parts.iter().map(|p| lock_ctx(&p.ctx)).collect()
    }

    /// Hand over what the core recorded since the previous hand-over, at
    /// `now`: first the pool counters as of now and the trace (the lanes
    /// are idle at every hand-over, so their rings drain fully), then
    /// every entry leaves the core's report with the layout as it stands.
    /// A hand-over that brings an outcome or a repartition ends the report
    /// at `now`.
    fn hand_over(&mut self, core: &mut Coordinator, now: SimTime) -> Snapshot {
        let (base, ps) = (self.pool_base, self.pool.stats());
        let st = &mut core.state;
        // The core counts the tasks as queries complete.
        let pool = &mut st.report.pool;
        pool.threads = self.pool.width();
        pool.steals = base.steals + ps.steals;
        pool.idle_waits = base.idle_waits + ps.idle_waits;
        st.report.trace.absorb(&self.tracer);
        if !st.report.outcomes.is_empty() || !st.report.repartitions.is_empty() {
            st.report.finished_at_secs = now.as_secs_f64();
        }
        Snapshot {
            report: st.report.hand_over(),
            partitioning: st.partitioning.clone(),
            topology: st.topology.clone(),
            outputs: std::mem::take(&mut self.finished),
        }
    }
}

impl Executor for PoolExec {
    fn now(&self) -> SimTime {
        self.clock.now()
    }

    // The query goes onto the lanes until it terminates or parks.
    fn superstep(&mut self, record: &Record, step: &mut Stepping) {
        self.inflight_ops += 1;
        #[cfg(test)]
        self.traffic.dispatched.fetch_add(1, Ordering::Relaxed);
        let push = |w, cmd| self.pool.push(w, cmd);
        launch(&push, &self.hb, None, record, step);
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

    // The core moved the data between the records' locals; the window's
    // wall-clock duration is its price.
    fn migrate(&mut self, _: &Migration) {}
}

/// The serving loop: feeds the core from the one channel that carries
/// pool responses and client traffic, runs a window whenever the core
/// wants one and the pool has drained, and hands over at the engine's
/// drain once fully idle. Runs until [`CoordMsg::Shutdown`], then stops
/// the pool and hands over one last time.
fn serve(mut core: Coordinator, mut x: PoolExec) -> Stopped {
    // One monotonic time base across serve sessions: this session's
    // timestamps continue from the previous report's end, so the
    // cumulative report's outcomes and `finished_at_secs` agree.
    let clock = x.clock;

    loop {
        x.publish(&core);
        // Stop-the-world window — mutation epochs and/or Q-cut — once the
        // lanes have handed back every query (each is then parked at its
        // barrier, or finished). The auditor's window opens before any
        // partition is touched.
        if core.paused() && x.inflight_ops <= x.quiesce_at {
            core.window_open(&x);
            core.window_apply(&mut x);
            // The queries the window resumes must not park again on the
            // flag it leaves behind.
            x.signals.park.store(false, Ordering::Relaxed);
            core.window_end(&mut x, clock.now());
            continue;
        }

        // The drain's hand-over fires at full idle; even an idle one
        // stamps the report's end.
        if x.drain.is_some() && core.idle() && x.inflight_ops == 0 {
            let now = clock.now();
            core.state.report.finished_at_secs = now.as_secs_f64();
            let snapshot = x.hand_over(&mut core, now);
            core.state.controller.restart_activity_watch(now);
            if let Some(ack) = x.drain.take() {
                let _ = ack.send(snapshot);
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
        // emits.
        let now = clock.now();
        match msg {
            CoordMsg::Worker(Resp::Parked(q)) => {
                x.answered();
                core.release(&mut x, q, now);
            }
            CoordMsg::Worker(Resp::Terminated(q)) => {
                x.answered();
                core.finish(&mut x, q, now);
                // A query's last close is heard here, its scope retained
                // as it finished: a due check sees it, as the simulation's
                // does.
                if now >= core.next_check() {
                    x.check(&mut core, now);
                }
            }
            CoordMsg::Worker(Resp::Tick) => {
                // The lane that sent it took the published instant.
                x.check_at = u64::MAX;
                x.check(&mut core, now);
            }
            // Stopping the pool below re-raises the lane's panic.
            CoordMsg::Worker(Resp::Panicked) => break,
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
            CoordMsg::InstallIndex(index) => core.state.index = Some(index),
            CoordMsg::Drain { ack } => x.drain = Some(ack),
            CoordMsg::Shutdown => {
                // Already-admitted queries finish, queued ones drop.
                x.shutdown = true;
                core.close();
            }
        }
    }

    // Teardown: the last hand-over — empty in the normal case, as
    // shutdown() drained first; it stamps the report's end only if
    // something happened since — then drain and join the pool threads,
    // propagating any pool thread's own panic payload.
    let snapshot = x.hand_over(&mut core, clock.now());
    x.pool.shutdown();
    (snapshot, core.state.controller, core.state.index)
}

/// The partition-owned state a pool task operates on: the logical
/// actor's [`Scratch`] (its batch pool and combine index) plus its view
/// of the published topology and assignment. Placement stays fixed to the
/// partition — only *compute* is elastic — so whichever pool thread draws
/// the partition's next command locks it; inside a window the coordinator
/// does, to install what was published. The pool serializes commands per
/// partition and a window opens only at quiescence, so the lock exists to
/// move the state between threads.
struct WorkerCtx {
    scratch: Scratch,
    topology: Arc<Topology>,
    partitioning: Arc<Partitioning>,
    /// The buffer a Step trades for its input in the record (see the
    /// module docs); empty between Steps.
    taken: Vec<MessageBatch>,
}

/// Push the first Steps of the superstep the record's `step` just began,
/// one `STEP` token per involved partition; `from`: `None` for the core's
/// dispatch, else the partition whose lane closed the superstep before.
fn launch(
    push: &dyn Fn(usize, Cmd),
    hb: &Hb,
    from: Option<usize>,
    record: &Record,
    step: &Stepping,
) {
    let q = record.id.0;
    let (first, held_back) = step.released();
    for &w in first {
        match from {
            None => hb.send_step(q, w),
            Some(from) => {
                hb.token_open(q, kind::STEP);
                hb.lane_send_step(from, w);
            }
        }
        let cmd = Cmd {
            prev_agg: record.task.clone_aggregate(&step.agg_prev),
            record: Arc::clone(record),
        };
        push(w, cmd);
    }
    for _ in held_back {
        hb.token_open(q, kind::STEP);
    }
}

/// What every pool thread shares to execute commands: the partitions, the
/// signals, the response channel, and the session's auditor / recorder /
/// clock. Each pool thread holds its own clone.
#[derive(Clone)]
struct Lane {
    width: usize,
    parts: Arc<Vec<Partition>>,
    signals: Arc<Signals>,
    resp: Sender<CoordMsg>,
    hb: Hb,
    tracer: Tracer,
    clock: Clock,
}

/// Tells the coordinator when a lane unwinds past it: a panicking command
/// loses its query's next Step, and nothing else would answer for it.
struct Unwind<'a>(&'a Sender<CoordMsg>);

impl Drop for Unwind<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            let _ = self.0.send(CoordMsg::Worker(Resp::Panicked));
        }
    }
}

impl Lane {
    /// One pool task: pool thread `tid` executes a single Step against
    /// partition `w`'s state; `push` enqueues further Steps from here (see
    /// the module docs).
    /// The hb auditor brackets the task with the pool hand-off edges
    /// ([`Hb::pool_acquire`]/[`Hb::pool_release`]) that carry the
    /// actor-serialization guarantee dedicated threads would give for free.
    /// The partition's state is released before anything is answered.
    fn handle(&self, push: &dyn Fn(usize, Cmd), tid: usize, w: usize, cmd: Cmd) {
        let _unwind = Unwind(&self.resp);
        let (hb, tracer) = (&self.hb, &self.tracer);
        hb.pool_acquire(w);
        // Every executed command joins the clock snapshot queued at the
        // matching send — the channel edge of the HB graph.
        hb.worker_recv(w);
        let traced_q = cmd.record.id;
        // The lane span opens before the state lock: lock wait is part of
        // the task's runtime as the pool experiences it. Steals are
        // labelled the same way `pick()` counts them — off the affine
        // thread. The begin stamp is read here but recorded with the end
        // stamp below: one ring lock per task instead of two keeps the
        // span's serial cost on chained point queries in check.
        let begin_at = self.trace_now();
        let (executed, reply) = self.step(push, tid, w, cmd.prev_agg, cmd.record);
        if let Some(begin_at) = begin_at {
            tracer.task_span(
                begin_at,
                self.clock.now().as_secs_f64(),
                tid as u32,
                u64::from(traced_q.0),
                w as u32,
                w % self.width != tid,
                executed,
            );
        }
        if let Some(r) = reply {
            self.answer(w, r);
        }
        hb.pool_release(w);
    }

    /// One `Step` (see the module docs): take, seal, execute, fold — and
    /// as the superstep's last Step, close it and see to what follows.
    /// Returns the vertex updates and, when the query leaves the lanes
    /// here to park or because it terminated, the answer.
    fn step(
        &self,
        push: &dyn Fn(usize, Cmd),
        tid: usize,
        w: usize,
        mut prev_agg: Envelope,
        record: Record,
    ) -> (u64, Option<Resp>) {
        let (hb, q, task) = (&self.hb, record.id, record.task.as_ref());
        let (mut executed, mut chained) = (0, 0);
        let mut guard = lock_ctx(&self.parts[w].ctx);
        let ctx = &mut *guard;
        // This superstep's input — what was sent for it, traded for the
        // partition's empty buffer — and the query's local here, taken
        // under one lock; the input is sealed with what the partition sent
        // itself.
        let held = {
            let mut step = record.stepping();
            std::mem::swap(&mut step.mail[w].input, &mut ctx.taken);
            step.locals[w].take()
        };
        let mut local = held.unwrap_or_else(|| task.new_local());
        for batch in ctx.taken.drain(..) {
            local.deliver(batch, &mut ctx.scratch);
        }
        local.freeze();
        let route = |v: VertexId| ctx.partitioning.worker_of(v).index();
        let (mut step, close) = loop {
            // The superstep reads the published topology and assignment:
            // the auditor checks this worker's clock is ordered after the
            // latest publication before any vertex executes.
            hb.worker_step(w);
            let (stats, agg, remote) =
                local.execute(&ctx.topology, &prev_agg, w, &route, &mut ctx.scratch);
            executed += stats.executed as u64;
            let report = StepReport {
                q,
                worker: w,
                stats,
                agg,
                remote,
                self_pending: local.has_pending(),
            };
            // What the superstep sent away goes into the record's next
            // input with the fold, before the fold can release it; the
            // local goes back under the same lock.
            let mut step = record.stepping();
            hb.record_join(q.0, w);
            if !step.fold(task, report) {
                step.locals[w] = Some(local);
                break (step, None);
            }
            hb.record_close(q.0, w);
            let close = step.close(task);
            self.closed(w, q);
            // The local barrier: a superstep on this partition alone that
            // sent nothing away and goes on involves this partition alone
            // next, with nothing in the record for it: the inbox sealed
            // below is its whole input. The Step keeps the local it would
            // put back and take again under this one lock.
            let solo = barrier::is_local(step.involved_cur.len(), step.crossed);
            if close == Close::Next && solo && chained < LOCAL_QUANTUM && !self.parking() {
                step.begin();
                prev_agg = task.clone_aggregate(&step.agg_prev);
                chained += 1;
                drop(step);
                local.freeze();
                continue;
            }
            step.locals[w] = Some(local);
            break (step, Some(close));
        };
        drop(guard);
        if executed > 0 {
            self.parts[w]
                .executed
                .fetch_add(executed, Ordering::Relaxed);
        }
        // Everything below happens under the record's lock, before this
        // Step's token closes: while the query is on the lanes, one of its
        // tokens is always open.
        let reply = match close {
            // Not the last: the freed budget slot releases the next
            // held-back partition, in the core's order, with this Step's
            // copy of the aggregate the superstep reads.
            None => {
                if let Some(to) = step.next_deferred() {
                    if let Some(at) = self.trace_now() {
                        let id = u64::from(q.0);
                        self.tracer.defer_release(at, tid as u32, id, to as u32);
                    }
                    hb.lane_send_step(w, to);
                    let record = Arc::clone(&record);
                    push(to, Cmd { prev_agg, record });
                }
                None
            }
            // Every local is at rest in the record: the coordinator
            // finalizes over them.
            Some(Close::Terminate) => Some(Resp::Terminated(q)),
            // A window is wanted: the query waits at this barrier.
            Some(Close::Next) if self.parking() => Some(Resp::Parked(q)),
            Some(Close::Next) => {
                step.begin();
                if let Some(at) = self.trace_now() {
                    for &p in step.released().1 {
                        self.tracer.defer(at, u64::from(q.0), p as u32);
                    }
                }
                launch(push, hb, Some(w), &record, &step);
                None
            }
        };
        hb.token_close(q.0, kind::STEP);
        (executed, reply)
    }

    /// A superstep of `q` closed on this lane: stamp it, and ask for the
    /// Q-cut check if one is due — the lane that takes the published
    /// instant sends the one `Tick`.
    fn closed(&self, w: usize, q: QueryId) {
        if let Some(at) = self.trace_now() {
            self.tracer.superstep_done(at, u64::from(q.0));
        }
        let check = &self.signals.check_at;
        let at = check.load(Ordering::Relaxed);
        let due = at != u64::MAX && self.clock.now().0 >= at;
        let relaxed = Ordering::Relaxed;
        if due
            && check
                .compare_exchange(at, u64::MAX, relaxed, relaxed)
                .is_ok()
        {
            self.answer(w, Resp::Tick);
        }
    }

    /// A window is wanted.
    fn parking(&self) -> bool {
        self.signals.park.load(Ordering::Relaxed)
    }

    /// The session clock in seconds, read only when the tracer records.
    fn trace_now(&self) -> Option<f64> {
        self.tracer
            .enabled()
            .then(|| self.clock.now().as_secs_f64())
    }

    fn answer(&self, w: usize, r: Resp) {
        self.hb.worker_send(w);
        // The coordinator hanging up (its thread panicked or exited early)
        // is tolerable: nobody is left to consume answers, and the pool is
        // torn down right behind it.
        let _ = self.resp.send(CoordMsg::Worker(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::Query;
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

    /// A lane with no pool behind it: the test thread runs the pushed
    /// commands itself, oldest first, stamped for the auditor by whoever
    /// pushed them. Query 0 is `task` under the DoP budget `dop`, admitted:
    /// its record as admission leaves it, the initial batches in its next
    /// input.
    struct ByHand {
        lane: Lane,
        rx: Receiver<CoordMsg>,
        record: Record,
        /// Commands pushed and not run yet.
        queue: std::cell::RefCell<std::collections::VecDeque<(usize, Cmd)>>,
    }

    const Q: QueryId = QueryId(0);

    fn seeded_lane(
        g: &Arc<Graph>,
        parts: Partitioning,
        task: Arc<dyn QueryTask>,
        dop: usize,
    ) -> ByHand {
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
                    scratch: Scratch::default(),
                    topology: Arc::clone(&topology),
                    partitioning: Arc::clone(&parts),
                    taken: Vec::new(),
                }),
                executed: AtomicU64::default(),
            }
        };
        let (resp, rx) = channel();
        let lane = Lane {
            width: 1,
            parts: Arc::new((0..k).map(partition).collect()),
            signals: Arc::new(Signals {
                park: AtomicBool::new(false),
                check_at: AtomicU64::new(u64::MAX),
            }),
            resp,
            hb: hb.clone(),
            tracer: Tracer::new(1, 16, false),
            clock: Clock {
                base: 0.0,
                started: Instant::now(),
            },
        };
        let route = |v: VertexId| parts.worker_of(v).index();
        let batches = task.initial_batches(&topology, &route);
        let record = Query::new(Q, task, Default::default(), dop, k);
        let mut step = record.stepping();
        for (w, batch) in batches {
            step.next_involved.push(w);
            step.mail[w].next.push(batch);
        }
        drop(step);
        ByHand {
            lane,
            rx,
            record,
            queue: Default::default(),
        }
    }

    impl ByHand {
        fn push(&self) -> impl Fn(usize, Cmd) + '_ {
            |w, cmd| self.queue.borrow_mut().push_back((w, cmd))
        }

        /// Begin query 0's next superstep and push its first Steps, the
        /// way the core's dispatch does.
        fn dispatch(&self) {
            let mut step = self.record.stepping();
            step.begin();
            launch(&self.push(), &self.lane.hb, None, &self.record, &step);
        }

        /// Run the oldest pushed command; its partition.
        fn run_next(&self) -> usize {
            let next = self.queue.borrow_mut().pop_front();
            let (w, cmd) = next.expect("a pushed command");
            self.lane.handle(&self.push(), 0, w, cmd);
            w
        }

        /// The Steps waiting: each one's partition and the superstep it
        /// runs (the record's current one).
        fn queued(&self) -> Vec<(usize, u32)> {
            let superstep = self.out().iterations;
            let queue = self.queue.borrow();
            queue.iter().map(|(w, _)| (*w, superstep)).collect()
        }

        fn out(&self) -> crate::QueryOutcome {
            self.record.stepping().out
        }

        /// Vertex updates counted for partition `w`.
        fn executed(&self, w: usize) -> u64 {
            self.lane.parts[w].executed.load(Ordering::Relaxed)
        }

        /// The one message waiting on the coordinator channel, if any.
        fn response(&self) -> Option<Resp> {
            let Ok(CoordMsg::Worker(resp)) = self.rx.try_recv() else {
                return None;
            };
            assert!(self.rx.try_recv().is_err(), "one message at a time");
            Some(resp)
        }

        /// Batches waiting in query 0's record for partition `w`: the
        /// current superstep's input, and the next one's.
        fn input(&self, w: usize) -> [usize; 2] {
            let step = self.record.stepping();
            [step.mail[w].input.len(), step.mail[w].next.len()]
        }

        /// Does query 0's local on partition `w` hold messages for a next
        /// superstep?
        fn has_pending(&self, w: usize) -> bool {
            let step = self.record.stepping();
            step.locals[w].as_ref().is_some_and(|l| l.has_pending())
        }

        /// The partitions whose locals are at rest in the record.
        fn at_rest(&self) -> Vec<usize> {
            let step = self.record.stepping();
            let slots = step.locals.iter().enumerate();
            slots.filter(|(_, l)| l.is_some()).map(|(w, _)| w).collect()
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
        // The tally's vertex re-activates itself forever: the command ends
        // at the quantum, with the partition still pending.
        let by_hand = seeded_lane(&g, parts(), tally(false, u64::MAX), 1);
        by_hand.dispatch();
        by_hand.run_next();
        let executions = 1 + LOCAL_QUANTUM;
        let out = by_hand.out();
        // Every execution closed its superstep on the lane, each local;
        // the last close began the next one and pushed its Step back into
        // the pool. Nothing went to the coordinator.
        assert_eq!(
            (out.iterations, out.local_iterations),
            (executions, executions)
        );
        let executions = u64::from(executions);
        assert_eq!(
            (out.vertex_updates, out.tasks),
            (executions, executions + 1)
        );
        assert_eq!(by_hand.queued(), vec![(0, executions as u32)]);
        assert!(by_hand.response().is_none());
        assert_eq!(by_hand.executed(0), executions);
        assert_eq!(tally_of(&by_hand.record.stepping().agg_prev), 1);
        // Every execution was audited against the published versions; the
        // one token open is the pushed Step's.
        #[cfg(feature = "check-hb")]
        assert_eq!(by_hand.lane.hb.audited(), (executions, 1));

        // A Step of a shared superstep runs once: here partition 1 shares
        // superstep 0 with nothing to do, and as its last finisher closes
        // it and releases superstep 1 — partition 0 alone.
        let by_hand = seeded_lane(&g, parts(), tally(false, u64::MAX), 2);
        by_hand.record.stepping().next_involved.push(1);
        by_hand.dispatch();
        assert_eq!(by_hand.run_next(), 0);
        let out = by_hand.out();
        assert_eq!((out.iterations, out.vertex_updates), (0, 1));
        assert_eq!(by_hand.run_next(), 1);
        let out = by_hand.out();
        assert_eq!((out.iterations, out.local_iterations), (1, 0));
        assert_eq!(by_hand.queued(), vec![(0, 1)]);
    }

    #[test]
    fn a_chain_stops_before_a_terminating_close_and_at_a_crossing_step() {
        let g = line(4);
        let parts = || RangePartitioner.partition(&g, 2);
        // Sticky and stopping at 3: the third close ends the query instead
        // of executing again, and answers for it.
        let by_hand = seeded_lane(&g, parts(), tally(true, 3), 1);
        by_hand.dispatch();
        by_hand.run_next();
        let out = by_hand.out();
        assert_eq!((out.iterations, out.vertex_updates, out.tasks), (3, 3, 3));
        assert!(by_hand.queued().is_empty());
        assert!(matches!(by_hand.response(), Some(Resp::Terminated(Q))));
        assert_eq!(by_hand.at_rest(), vec![0]);
        #[cfg(feature = "check-hb")]
        assert_eq!(by_hand.lane.hb.audited(), (3, 0));

        // A flood from vertex 0 of `{0,1} {2,3}`: the superstep at vertex
        // 1 crosses, so it ends the chain — and what it sent waits in the
        // record as superstep 2's input on partition 1, whose Step is
        // pushed.
        let reach = Arc::new(TypedTask::new(ReachProgram::new(VertexId(0))));
        let by_hand = seeded_lane(&g, parts(), reach, 1);
        by_hand.dispatch();
        by_hand.run_next();
        let out = by_hand.out();
        assert_eq!((out.iterations, out.local_iterations), (2, 1));
        assert_eq!((out.vertex_updates, out.remote_messages), (2, 1));
        assert_eq!(by_hand.queued(), vec![(1, 2)]);
        assert_eq!((by_hand.input(0), by_hand.input(1)), ([0, 0], [1, 0]));
    }

    /// A ping between vertex 0 (partition 0) and vertex 2 (partition 1) of
    /// `{0,1} {2,3}`: every superstep involves both and each sends to the
    /// other.
    fn ping_pong(g: &Arc<Graph>, dop: usize) -> ByHand {
        let ping = PingProgram {
            ring: vec![VertexId(0), VertexId(2)],
            rounds: 4,
        };
        let parts = RangePartitioner.partition(g, 2);
        seeded_lane(g, parts, Arc::new(TypedTask::new(ping)), dop)
    }

    #[test]
    fn a_deferred_step_executes_its_sealed_input_while_the_mail_waits() {
        let by_hand = ping_pong(&line(4), 1);
        // Admission left each partition's seed in the record's next input.
        assert_eq!((by_hand.input(0), by_hand.input(1)), ([0, 1], [0, 1]));
        // Superstep 0 at DoP 1: partition 0 runs, partition 1 is held back.
        by_hand.dispatch();
        assert_eq!((by_hand.input(0), by_hand.input(1)), ([1, 0], [1, 0]));
        assert_eq!(by_hand.queued(), vec![(0, 0)]);
        by_hand.run_next();
        // Partition 0 took its input and sent to partition 1 *before*
        // partition 1 ran: the batch waits in the next input, beside the
        // current one. Nothing went to the coordinator; the lane pushed
        // the held-back Step itself.
        assert_eq!((by_hand.input(0), by_hand.input(1)), ([0, 0], [1, 1]));
        assert!(by_hand.response().is_none());
        assert_eq!(by_hand.queued(), vec![(1, 0)]);
        by_hand.run_next();
        // Partition 1 executed exactly its sealed input and, as the last
        // finisher, closed superstep 0 and began superstep 1: what each
        // partition sent the other is now its input. Superstep 1's first
        // Step is pushed.
        assert_eq!((by_hand.input(0), by_hand.input(1)), ([1, 0], [1, 0]));
        let out = by_hand.out();
        assert_eq!(
            (out.iterations, out.vertex_updates, out.remote_messages),
            (1, 2, 2)
        );
        assert_eq!(by_hand.queued(), vec![(0, 1)]);
        assert!(by_hand.response().is_none());
        // Both of superstep 1's tokens are open, the held-back one's too.
        #[cfg(feature = "check-hb")]
        assert_eq!(by_hand.lane.hb.audited(), (2, 2));
        // Superstep 1 reads what superstep 0 sent.
        by_hand.run_next();
        assert_eq!(by_hand.out().vertex_updates, 3);
        assert_eq!((by_hand.input(0), by_hand.input(1)), ([0, 0], [1, 1]));
        assert_eq!(by_hand.queued(), vec![(1, 1)]);
    }

    #[test]
    fn a_terminating_close_answers_once_with_every_local_at_rest_in_the_record() {
        // Four rounds of ping-pong, both partitions at once: every Step
        // puts its local back as it folds, so each close finds both at
        // rest. The last close answers, and nothing runs after it.
        let by_hand = ping_pong(&line(4), 2);
        by_hand.dispatch();
        let mut steps = 0;
        while !by_hand.queued().is_empty() {
            assert!(by_hand.response().is_none(), "answered before the end");
            by_hand.run_next();
            steps += 1;
            if by_hand.record.stepping().outstanding == 0 {
                assert_eq!(by_hand.at_rest(), vec![0, 1], "after step {steps}");
            }
        }
        assert_eq!((steps, by_hand.out().iterations), (8, 4));
        assert!(matches!(by_hand.response(), Some(Resp::Terminated(Q))));
        assert_eq!(by_hand.at_rest(), vec![0, 1]);
        #[cfg(feature = "check-hb")]
        assert_eq!(by_hand.lane.hb.audited(), (8, 0), "no token left open");
    }

    #[test]
    fn a_taken_input_trades_buffers_with_the_partition() {
        let by_hand = ping_pong(&line(4), 2);
        let buffer = |w: usize| {
            let step = by_hand.record.stepping();
            (step.mail[w].input.as_ptr(), step.mail[w].input.capacity())
        };
        by_hand.dispatch();
        let seeded = buffer(0);
        assert!(seeded.1 > 0);
        // Superstep 0 on partition 0 takes the seed batch: the record now
        // holds the (unallocated) buffer the partition owned, and the
        // partition the record's.
        assert_eq!(by_hand.run_next(), 0);
        assert_eq!(buffer(0).1, 0);
        {
            let ctx = by_hand.lane.parts[0].ctx.lock().unwrap();
            assert!(ctx.taken.is_empty(), "delivered, every batch");
            assert_eq!((ctx.taken.as_ptr(), ctx.taken.capacity()), seeded);
        }
        // Partition 1's Step sends back for superstep 1 and begins it;
        // partition 0's Step of superstep 1 trades again, and the record
        // keeps the buffer superstep 0 took: the next sends fill it.
        assert_eq!(by_hand.run_next(), 1);
        assert_eq!(by_hand.input(0), [1, 0]);
        assert_eq!(by_hand.run_next(), 0);
        assert_eq!((by_hand.input(0), buffer(0)), ([0, 0], seeded));
    }

    #[test]
    fn a_parked_querys_input_reaches_the_inbox_and_moves_with_its_vertex() {
        // A flood from vertex 1 of `{0,1} {2,3}` under a wanted window:
        // its superstep 0 sends to vertex 2, and the lane that closes it
        // hands the query back with the batch in the record.
        let g = line(4);
        let reach: Arc<dyn QueryTask> = Arc::new(TypedTask::new(ReachProgram::new(VertexId(1))));
        let by_hand = seeded_lane(&g, RangePartitioner.partition(&g, 2), Arc::clone(&reach), 1);
        by_hand.lane.signals.park.store(true, Ordering::Relaxed);
        by_hand.dispatch();
        by_hand.run_next();
        assert!(matches!(by_hand.response(), Some(Resp::Parked(Q))));
        assert!(by_hand.input(1) == [0, 1] && !by_hand.has_pending(1));
        // The window takes it out of the record's mail into the record's
        // local on partition 1 ...
        by_hand.record.deliver_mail(&mut Scratch::default());
        assert_eq!(by_hand.input(1), [0, 0]);
        assert!(!by_hand.has_pending(0) && by_hand.has_pending(1));
        // ... so migrating vertex 2 to partition 0 takes the message along.
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
        crate::qcut::migrate::transfer(&migration, [&by_hand.record].into_iter());
        assert!(by_hand.has_pending(0) && !by_hand.has_pending(1));
        // Resumed there, superstep 1 takes an empty input from the record
        // and executes vertex 2 from the local's inbox.
        by_hand.lane.signals.park.store(false, Ordering::Relaxed);
        by_hand.record.stepping().next_involved = vec![0];
        by_hand.dispatch();
        assert_eq!(by_hand.run_next(), 0);
        let out = by_hand.out();
        assert_eq!((out.iterations, out.vertex_updates), (2, 2));
        assert_eq!((by_hand.input(0), by_hand.input(1)), ([0, 0], [1, 0]));
        assert_eq!(by_hand.queued(), vec![(1, 2)]);
    }

    /// What a [`Peeking`] flood saw: per vertex it computed, its record's
    /// scopes at rest, each sorted.
    type Seen = Arc<Mutex<Vec<(VertexId, Vec<(usize, Vec<VertexId>)>)>>>;

    /// A flood that, as each vertex computes, reads its own record's
    /// scopes the way the Q-cut trigger does, while its Step runs.
    struct Peeking {
        flood: ReachProgram,
        record: Arc<std::sync::OnceLock<std::sync::Weak<Query>>>,
        seen: Seen,
    }

    impl VertexProgram for Peeking {
        type State = crate::programs::ReachState;
        type Message = u32;
        type Aggregate = ();
        type Output = Vec<VertexId>;

        fn init_state(&self) -> Self::State {
            self.flood.init_state()
        }
        fn aggregate_identity(&self) {}
        fn aggregate_combine(&self, _: &mut (), _: &()) {}
        fn initial_messages(&self, graph: &Topology) -> Vec<(VertexId, u32)> {
            self.flood.initial_messages(graph)
        }
        fn compute(
            &self,
            graph: &Topology,
            vertex: VertexId,
            state: &mut Self::State,
            messages: &[u32],
            ctx: &mut crate::program::Context<'_, u32, ()>,
        ) {
            let record = self.record.get().and_then(std::sync::Weak::upgrade);
            let mut scopes = record.expect("the record is set").scopes();
            scopes.iter_mut().for_each(|(_, vs)| vs.sort_unstable());
            self.seen.lock().unwrap().push((vertex, scopes));
            self.flood.compute(graph, vertex, state, messages, ctx);
        }
        fn finalize(
            &self,
            graph: &Topology,
            states: &mut dyn Iterator<Item = (VertexId, Self::State)>,
        ) -> Vec<VertexId> {
            self.flood.finalize(graph, states)
        }
    }

    #[test]
    fn the_scope_read_skips_a_local_its_step_holds_and_sees_it_after_the_fold() {
        // A flood from vertex 0 of `{0,1} {2,3}`: partition 0 runs vertices
        // 0 and 1 (a chain of two local supersteps), partition 1 vertices 2
        // and 3. A read during a Step does not wait for it: it skips the
        // local the Step holds, and finds it at rest once the Step folded.
        let g = line(4);
        let (cell, seen) = (Arc::default(), Seen::default());
        let peeking = Peeking {
            flood: ReachProgram::new(VertexId(0)),
            record: Arc::clone(&cell),
            seen: Arc::clone(&seen),
        };
        let task = Arc::new(TypedTask::new(peeking));
        let by_hand = seeded_lane(&g, RangePartitioner.partition(&g, 2), task, 1);
        cell.set(Arc::downgrade(&by_hand.record)).expect("set once");
        by_hand.dispatch();
        assert_eq!(by_hand.run_next(), 0);
        assert_eq!(by_hand.run_next(), 1);
        assert!(matches!(by_hand.response(), Some(Resp::Terminated(Q))));
        let v = |ids: &[u32]| ids.iter().map(|&v| VertexId(v)).collect::<Vec<_>>();
        let first = vec![(0, v(&[0, 1]))];
        let expected = vec![
            (VertexId(0), vec![]),
            (VertexId(1), vec![]),
            (VertexId(2), first.clone()),
            (VertexId(3), first),
        ];
        assert_eq!(*seen.lock().unwrap(), expected);
        let mut scopes = by_hand.record.scopes();
        scopes.iter_mut().for_each(|(_, vs)| vs.sort_unstable());
        let both = vec![(0, v(&[0, 1])), (1, v(&[2, 3]))];
        assert_eq!(scopes, both, "every local at rest");
    }

    /// Submitted through the erased path, a task is held by the core while
    /// its query lives, and by nothing once it finished.
    #[test]
    fn a_finished_querys_task_is_dropped() {
        let g = line(8);
        let mut e = ThreadEngine::with_config(
            Arc::clone(&g),
            RangePartitioner.partition(&g, 2),
            SystemConfig::default(),
        );
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
        let mut e = ThreadEngine::with_config(Arc::clone(&g), parts, SystemConfig::default());
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
        let mut e = ThreadEngine::with_config(Arc::clone(&g), parts, SystemConfig::default());
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
        let mut e = ThreadEngine::with_config(Arc::clone(&g), parts, SystemConfig::default());
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
        let mut e = ThreadEngine::with_config(g, parts, SystemConfig::default());
        e.run();
        assert!(e.report().outcomes.is_empty());
    }

    #[test]
    fn run_then_submit_then_run_again() {
        let g = line(8);
        let parts = RangePartitioner.partition(&g, 2);
        let mut e = ThreadEngine::with_config(Arc::clone(&g), parts, SystemConfig::default());
        let q1 = e.submit(ReachProgram::new(VertexId(3)));
        e.run();
        let q2 = e.submit(ReachProgram::new(VertexId(6)));
        e.run();
        assert_eq!(e.output(&q1).unwrap().len(), 5);
        assert_eq!(e.output(&q2).unwrap().len(), 2);
        assert_eq!(e.report().outcomes.len(), 2);
    }

    /// `drain()` executes the backlog of an engine that was never started
    /// instead of returning early. The engine submits through its own
    /// client, so what it sends before `start`, and again after
    /// `shutdown`, waits in the channel and the next session serves it in
    /// order: a flood sent before a mutation is admitted in the old epoch,
    /// one sent after it in the new.
    #[test]
    fn drain_without_start_runs_pre_submitted_queries() {
        let g = line(8);
        let mut e = ThreadEngine::with_config(
            Arc::clone(&g),
            RangePartitioner.partition(&g, 2),
            SystemConfig::default(),
        );
        let mut seen = Vec::new();
        // Epoch 1 closes the line into a ring, epoch 2 opens it again.
        for ring in [true, false] {
            let before = e.submit(ReachProgram::new(VertexId(7)));
            let mut batch = GraphMutationBatch::new();
            if ring {
                batch.add_edge(7, 0, 1.0);
            } else {
                batch.remove_edge(7, 0);
            }
            e.mutate(batch);
            let after = e.submit(ReachProgram::new(VertexId(7)));
            e.drain();
            e.shutdown();
            for h in [before, after] {
                let outcomes = &e.report().outcomes;
                let o = outcomes.iter().find(|o| o.id == h.id()).expect("finished");
                seen.push((o.first_epoch, e.output(&h).expect("an output").len()));
            }
        }
        // The flood admitted on the ring crossed 7 → 0 in its first
        // superstep, before the window that removed the edge.
        assert_eq!(seen, vec![(0, 1), (1, 8), (1, 8), (2, 1)]);
        assert_eq!((e.epoch(), e.report().outcomes.len()), (2, 4));
        // A never-started, never-submitted engine drains to the empty
        // report.
        let parts = RangePartitioner.partition(&g, 2);
        let mut idle = ThreadEngine::with_config(Arc::clone(&g), parts, SystemConfig::default());
        assert!(idle.drain().outcomes.is_empty());
    }

    /// The stop is the last hand-over, without the drain `shutdown` sends
    /// first: with nothing recorded since the last drain it stamps
    /// nothing; a query the coordinator admitted after the last drain
    /// finishes before it stops, and the stop hands its outcome over,
    /// stamping the report's end, like a drain.
    #[test]
    fn the_stop_hands_over_a_trailing_run_and_stamps_its_end() {
        let g = line(8);
        let mut e = ThreadEngine::with_config(
            Arc::clone(&g),
            RangePartitioner.partition(&g, 2),
            SystemConfig::default(),
        );
        let drained_at = e.drain().finished_at_secs;
        assert!(drained_at > 0.0, "an idle drain stamps");
        let _ = e.rt.client.tx.send(CoordMsg::Shutdown);
        e.rt.stop();
        assert_eq!(e.report().finished_at_secs, drained_at);
        let q = e.submit(ReachProgram::new(VertexId(0)));
        e.start();
        let _ = e.rt.client.tx.send(CoordMsg::Shutdown);
        e.rt.stop();
        let report = e.report();
        assert!(report.finished_at_secs > drained_at);
        assert_eq!(report.outcomes.len(), 1);
        let completed = report.outcomes[0].completed_at.as_secs_f64();
        assert!(report.finished_at_secs >= completed);
        assert_eq!(report.pool.tasks, report.outcomes[0].tasks);
        assert_eq!(e.output(&q).unwrap().len(), 8);
    }

    #[test]
    fn locality_matches_sim_engine_definition() {
        // The superstep crossing the 5->6 partition boundary runs on one
        // worker but sends a remote message: per the canonical rule
        // (`barrier::decide`: one involved worker AND nothing crossed) it
        // must not count as local — same as the simulated engine.
        let g = line(12);
        let parts = RangePartitioner.partition(&g, 2);
        let mut e = ThreadEngine::with_config(Arc::clone(&g), parts, SystemConfig::default());
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
        let mut e = ThreadEngine::with_config(Arc::clone(&g), parts, SystemConfig::default());
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
        let mut e = ThreadEngine::with_config(Arc::clone(&g), parts, SystemConfig::default());
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
        let mut e = ThreadEngine::with_config(Arc::clone(&g), parts, SystemConfig::default());
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
        let mut e = ThreadEngine::with_config(Arc::clone(&g), parts, SystemConfig::default());
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
    fn budgeted_supersteps_match_the_simulation_and_cost_the_coordinator_one_message_per_query() {
        // A line dealt round-robin over four partitions: every hop crosses,
        // so every superstep is a full round of the lanes' fold and close.
        let g = line(48);
        let parts = || {
            let assign = (0..48).map(|v| qgraph_partition::WorkerId(v % 4));
            Partitioning::new(assign.collect(), 4)
        };
        fn submit<R: Runtime>(e: &mut Engine<R>) {
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
                pool_threads: dop,
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
            // The core dispatched each query once and heard back once,
            // when it terminated: no window opened, so nothing parked.
            let queries = expected.len() as u64;
            let dispatched = threads.rt.traffic.dispatched.load(Ordering::Relaxed);
            let messages = threads.rt.traffic.messages.load(Ordering::Relaxed);
            assert_eq!((dispatched, messages), (queries, queries), "DoP {dop}");
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

    #[test]
    fn qcut_barrier_repartitions_and_preserves_answers() {
        let g = line(64);
        let mut e =
            ThreadEngine::with_config(Arc::clone(&g), interleaved(64), SystemConfig::qgraph());
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

    /// A gate the test opens once.
    type Gate = Arc<(Mutex<bool>, std::sync::Condvar)>;

    /// A flood that holds its lane at vertex `at` until the gate opens.
    struct GatedReach {
        flood: ReachProgram,
        at: VertexId,
        gate: Gate,
    }

    impl VertexProgram for GatedReach {
        type State = crate::programs::ReachState;
        type Message = u32;
        type Aggregate = ();
        type Output = Vec<VertexId>;

        fn init_state(&self) -> Self::State {
            self.flood.init_state()
        }
        fn aggregate_identity(&self) {}
        fn aggregate_combine(&self, _: &mut (), _: &()) {}
        fn initial_messages(&self, graph: &Topology) -> Vec<(VertexId, u32)> {
            self.flood.initial_messages(graph)
        }
        fn compute(
            &self,
            graph: &Topology,
            vertex: VertexId,
            state: &mut Self::State,
            messages: &[u32],
            ctx: &mut crate::program::Context<'_, u32, ()>,
        ) {
            if vertex == self.at {
                let (open, opened) = &*self.gate;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = opened.wait(open).unwrap();
                }
            }
            self.flood.compute(graph, vertex, state, messages, ctx);
        }
        fn finalize(
            &self,
            graph: &Topology,
            states: &mut dyn Iterator<Item = (VertexId, Self::State)>,
        ) -> Vec<VertexId> {
            self.flood.finalize(graph, states)
        }
    }

    /// A mutation batch lands while floods run on the lanes: each parks
    /// at the next barrier it closes, one window applies the batch, and
    /// every flood resumes against the new epoch — at every pool width.
    #[test]
    fn a_wanted_window_parks_lane_driven_queries_at_their_next_barrier() {
        const N: u32 = 256;
        let g = line(N as usize);
        let k = 2;
        for width in [1, k, 2 * k + 1] {
            let cfg = SystemConfig {
                pool_threads: width,
                ..Default::default()
            };
            let mut e = ThreadEngine::with_config(Arc::clone(&g), interleaved(N), cfg);
            // Each flood holds its lane at its source until the coordinator
            // has the batch: none can close a superstep before that.
            let gate = Gate::default();
            let floods: Vec<_> = (0..4)
                .map(|s| {
                    e.submit(GatedReach {
                        flood: ReachProgram::new(VertexId(s)),
                        at: VertexId(s),
                        gate: Arc::clone(&gate),
                    })
                })
                .collect();
            e.start();
            // Epoch 1 closes the line into a ring.
            let mut ring = GraphMutationBatch::new();
            ring.add_edge(N - 1, 0, 1.0);
            e.mutate(ring);
            let signals = Arc::clone(e.rt.signals.as_ref().expect("serving"));
            while !signals.park.load(Ordering::Relaxed) {
                thread::yield_now();
            }
            *gate.0.lock().unwrap() = true;
            gate.1.notify_all();
            e.run();
            let report = e.report();
            assert_eq!(report.mutations.len(), 1, "width {width}: one window");
            for h in &floods {
                let o = report.outcomes.iter().find(|o| o.id == h.id());
                let o = o.expect("every flood finished");
                // Parked mid-run, finished under the ring: every vertex.
                assert_eq!((o.first_epoch, o.last_epoch), (0, 1), "width {width}");
                assert_eq!(e.output(h).unwrap().len(), N as usize, "width {width}");
            }
        }
    }

    /// The thrash net: a run whose windows cannot raise locality. Each
    /// ping query circles a ring of its own, so its scope is the whole
    /// ring and every superstep local; all rings start on partition 0,
    /// beside far more idle vertices than partition 1 holds, so every plan
    /// that finds a ring on partition 0 moves it over whole to rebalance —
    /// locality 1 before and after. Φ above 1 makes every check plan. Each
    /// window doubles the wait from at least its own duration, so they
    /// stay logarithmic in the run length; a wait that never doubles
    /// fails this.
    #[test]
    fn the_measured_wait_keeps_windows_that_raise_nothing_logarithmic() {
        const RING: u32 = 4;
        const RINGS: u32 = 256;
        const IDLE: u32 = 16_384;
        let n = RING * RINGS + IDLE;
        let g = Arc::new(GraphBuilder::new(n as usize).build());
        let all_on_0 = (0..n).map(|_| qgraph_partition::WorkerId(0)).collect();
        let qcut = crate::QcutConfig {
            locality_threshold: 2.0,
            ils_max_rounds: 1,
            ..Default::default()
        };
        let cap = qcut.monitoring_window_secs / 8.0;
        let cfg = SystemConfig {
            qcut: Some(qcut),
            ..Default::default()
        };
        let mut e = ThreadEngine::with_config(g, Partitioning::new(all_on_0, 2), cfg);
        let pings: Vec<_> = (0..RINGS)
            .map(|r| {
                let ring = (r * RING..(r + 1) * RING).map(VertexId).collect();
                e.submit(PingProgram { ring, rounds: 50 })
            })
            .collect();
        e.run();
        for h in &pings {
            assert_eq!(*e.output(h).unwrap(), 49);
        }
        let report = e.report();
        let events = &report.repartitions;
        assert!(!events.is_empty(), "every plan moves a ring, no window");
        assert!(events.iter().all(|e| !e.raised_locality()));
        let shortest = (events.iter().map(|e| e.barrier_duration)).fold(f64::INFINITY, f64::min);
        let run = report.finished_at_secs;
        let most = crate::controller::most_flat_windows(run, shortest, 0.0, cap);
        assert!(
            events.len() <= most,
            "{} windows in {:.0} µs, the shortest {:.0} µs: at most {most}",
            events.len(),
            run * 1e6,
            shortest * 1e6
        );
    }

    #[test]
    fn a_default_config_run_repartitions_and_never_reads_the_cooldown() {
        // The wait starts at 0: the first check plans, so a millisecond
        // run on the worst partitioning repartitions. Two waves of short
        // floods: a plan made at superstep 0 sees one-vertex scopes and
        // moves nothing, and the later ones find scopes small enough to
        // gather one move at a time within δ.
        const N: u32 = 1024;
        let g = line(N as usize);
        let mut e =
            ThreadEngine::with_config(Arc::clone(&g), interleaved(N), SystemConfig::qgraph());
        let floods: Vec<_> = (0..32u32)
            .map(|i| e.submit(ReachProgram::bounded(VertexId(32 * i), 16)))
            .collect();
        e.run();
        for (i, h) in floods.iter().enumerate() {
            let from = 32 * i as u32;
            let reached: Vec<_> = (from..=from + 16).map(VertexId).collect();
            assert_eq!(e.output(h).unwrap(), &reached);
        }
        assert!(!e.report().repartitions.is_empty(), "no window");
        assert_ne!(e.partitioning(), &interleaved(N), "assignment untouched");
        e.shutdown();
        let wait = e.rt.state.controller.wait();
        assert!(wait > SimTime::ZERO, "the wait travels with the controller");
    }
}
