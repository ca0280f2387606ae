//! The shared engine API: one [`Engine`] trait over both runtimes and an
//! [`EngineBuilder`] that assembles graph, partitioner, cluster, and
//! configuration into either of them.
//!
//! The trait's required methods are the *erased* lifecycle
//! (`submit_task`, `output_envelope`, ...); the typed surface — generic
//! [`Engine::submit`] returning a [`QueryHandle`], [`Engine::output`]
//! recovering `&P::Output` — is provided on top, so both
//! [`SimEngine`] and [`ThreadEngine`] share one
//! submit/run/output contract and generic drivers can be written once:
//!
//! ```
//! use qgraph_core::{programs::ReachProgram, Engine, EngineBuilder};
//! use qgraph_graph::{GraphBuilder, VertexId};
//!
//! fn count_reached<E: Engine>(engine: &mut E) -> usize {
//!     let q = engine.submit(ReachProgram::new(VertexId(0)));
//!     engine.run();
//!     engine.output(&q).map_or(0, Vec::len)
//! }
//!
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(0, 1, 1.0);
//! b.add_edge(1, 2, 1.0);
//! let graph = b.build();
//! let mut sim = EngineBuilder::new(graph.clone()).workers(2).build_sim();
//! let mut threaded = EngineBuilder::new(graph).workers(2).build_threaded();
//! assert_eq!(count_reached(&mut sim), 3);
//! assert_eq!(count_reached(&mut threaded), 3);
//! ```

use std::any::Any;
use std::sync::Arc;

use qgraph_graph::Graph;
use qgraph_partition::{HashPartitioner, Partitioner, Partitioning};
use qgraph_sim::ClusterModel;

use crate::config::{QcutConfig, SystemConfig};
use crate::engine::SimEngine;
use crate::index_plane::PointIndex;
use crate::program::VertexProgram;
use crate::query::{QueryHandle, QueryId, QueryOutcome};
use crate::report::EngineReport;
use crate::runtime::ThreadEngine;
use crate::sched::{AdmissionPolicy, DopPolicy};
use crate::task::{QueryTask, TypedTask};

/// The shared multi-query engine lifecycle: submit heterogeneous queries,
/// run them to completion, retrieve typed outputs and the measurement
/// report. Implemented by [`SimEngine`] (deterministic discrete-event
/// simulation) and [`ThreadEngine`] (real OS threads).
pub trait Engine {
    /// Erased submission: enqueue a prepared [`QueryTask`]. Prefer the
    /// typed [`Engine::submit`].
    fn submit_task(&mut self, task: Arc<dyn QueryTask>) -> QueryId;

    /// Run every submitted query to completion; returns the report.
    fn run(&mut self) -> &EngineReport;

    /// The measurement report accumulated so far.
    fn report(&self) -> &EngineReport;

    /// Erased output access backing the typed lookups.
    fn output_envelope(&self, q: QueryId) -> Option<&(dyn Any + Send)>;

    /// Install (or replace) a point-query label index
    /// ([`crate::index_plane::PointIndex`]). Eligible point queries are
    /// answered from it at admission; mutation barriers repair it before
    /// the new epoch opens to queries.
    fn install_index(&mut self, index: Box<dyn PointIndex>);

    /// A coherent copy of the current graph view — the epoch an index
    /// built now would be valid for. (The thread runtime drains first,
    /// taking its coordinator's hand-over, so the snapshot is never
    /// stale.)
    fn topology_snapshot(&mut self) -> qgraph_graph::Topology;

    /// Submit a query of any [`VertexProgram`] type; the returned handle
    /// recovers the typed output after [`Engine::run`].
    fn submit<P: VertexProgram>(&mut self, program: P) -> QueryHandle<P>
    where
        Self: Sized,
    {
        let id = self.submit_task(Arc::new(TypedTask::new(program)));
        QueryHandle::new(id)
    }

    /// The output of a finished query, through its typed handle.
    fn output<P: VertexProgram>(&self, handle: &QueryHandle<P>) -> Option<&P::Output>
    where
        Self: Sized,
    {
        self.output_as::<P>(handle.id())
    }

    /// Typed output lookup by raw [`QueryId`]; `None` if unfinished or if
    /// `P` is not the program type the query was submitted with.
    fn output_as<P: VertexProgram>(&self, q: QueryId) -> Option<&P::Output>
    where
        Self: Sized,
    {
        self.output_envelope(q)?.downcast_ref::<P::Output>()
    }

    /// Per-query outcomes, in completion order.
    fn outcomes(&self) -> &[QueryOutcome] {
        &self.report().outcomes
    }
}

impl Engine for SimEngine {
    fn submit_task(&mut self, task: Arc<dyn QueryTask>) -> QueryId {
        SimEngine::submit_task(self, task)
    }

    fn run(&mut self) -> &EngineReport {
        SimEngine::run(self)
    }

    fn report(&self) -> &EngineReport {
        SimEngine::report(self)
    }

    fn output_envelope(&self, q: QueryId) -> Option<&(dyn Any + Send)> {
        SimEngine::output_envelope(self, q)
    }

    fn install_index(&mut self, index: Box<dyn PointIndex>) {
        SimEngine::install_index(self, index)
    }

    fn topology_snapshot(&mut self) -> qgraph_graph::Topology {
        SimEngine::topology(self).clone()
    }
}

impl Engine for ThreadEngine {
    fn submit_task(&mut self, task: Arc<dyn QueryTask>) -> QueryId {
        ThreadEngine::submit_task(self, task)
    }

    fn run(&mut self) -> &EngineReport {
        ThreadEngine::run(self)
    }

    fn report(&self) -> &EngineReport {
        ThreadEngine::report(self)
    }

    fn output_envelope(&self, q: QueryId) -> Option<&(dyn Any + Send)> {
        ThreadEngine::output_envelope(self, q)
    }

    fn install_index(&mut self, index: Box<dyn PointIndex>) {
        ThreadEngine::install_index(self, index)
    }

    fn topology_snapshot(&mut self) -> qgraph_graph::Topology {
        // Take the coordinator's hand-over first — an index built from a
        // stale view would disagree with serving.
        ThreadEngine::drain(self);
        ThreadEngine::topology(self).clone()
    }
}

/// Assembles an engine from its parts: graph, worker count, partitioner
/// (or an explicit partitioning), cluster model, and system configuration.
/// Finish with [`EngineBuilder::build_sim`] or
/// [`EngineBuilder::build_threaded`].
pub struct EngineBuilder {
    graph: Arc<Graph>,
    workers: Option<usize>,
    partitioner: Box<dyn Partitioner>,
    partitioning: Option<Partitioning>,
    cluster: Option<ClusterModel>,
    config: SystemConfig,
}

impl EngineBuilder {
    /// Start building over `graph`. Defaults: 1 worker, hash partitioning,
    /// a scale-up cluster, [`SystemConfig::default`].
    pub fn new(graph: impl Into<Arc<Graph>>) -> Self {
        EngineBuilder {
            graph: graph.into(),
            workers: None,
            partitioner: Box::new(HashPartitioner::default()),
            partitioning: None,
            cluster: None,
            config: SystemConfig::default(),
        }
    }

    /// Number of workers `k`. Optional when an explicit partitioning or
    /// cluster already fixes the count; if both are given they must
    /// agree (checked at build, independent of call order).
    pub fn workers(mut self, k: usize) -> Self {
        assert!(k > 0, "at least one worker");
        self.workers = Some(k);
        self
    }

    /// The static partitioner producing the initial assignment.
    pub fn partitioner(mut self, partitioner: impl Partitioner + 'static) -> Self {
        self.partitioner = Box::new(partitioner);
        self
    }

    /// An explicit initial partitioning (overrides the partitioner; its
    /// worker count becomes the engine's).
    pub fn partitioning(mut self, partitioning: Partitioning) -> Self {
        self.partitioning = Some(partitioning);
        self
    }

    /// The simulated cluster model (sim engine only; defaults to
    /// [`ClusterModel::scale_up`] over the worker count).
    pub fn cluster(mut self, cluster: ClusterModel) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// The system configuration (barriers, Q-cut, closed-loop width).
    pub fn config(mut self, config: SystemConfig) -> Self {
        self.config = config;
        self
    }

    /// Enable adaptive Q-cut repartitioning with the given configuration
    /// (shorthand for setting [`SystemConfig::qcut`] on the config).
    pub fn qcut(mut self, qcut: QcutConfig) -> Self {
        self.config.qcut = Some(qcut);
        self
    }

    /// The admission policy draining the waiting backlog into free
    /// closed-loop slots (shorthand for setting
    /// [`SystemConfig::admission`]): FIFO, per-program-kind priorities, or
    /// earliest deadline first. See [`crate::sched`].
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.config.admission = policy;
        self
    }

    /// Elastic pool width (shorthand for [`SystemConfig::pool_threads`]):
    /// the number of compute threads drawing per-(query, partition)
    /// tasks from the shared morsel pool. `0` (the default) matches the
    /// partition count — the fixed-partition baseline's thread budget.
    /// The simulated engine prices the same width as its cap on
    /// concurrently executing tasks.
    pub fn pool_threads(mut self, threads: usize) -> Self {
        self.config.pool_threads = threads;
        self
    }

    /// Per-query degree-of-parallelism policy (shorthand for
    /// [`SystemConfig::dop`]): how many of a superstep's per-partition
    /// tasks the coordinator dispatches concurrently per query. See
    /// [`DopPolicy`].
    pub fn dop(mut self, policy: DopPolicy) -> Self {
        self.config.dop = policy;
        self
    }

    /// Bound the admission queue at `depth` waiting queries (shorthand
    /// for [`SystemConfig::max_queued`]): submissions arriving beyond it
    /// are rejected with a distinct [`crate::OutcomeStatus::Rejected`]
    /// outcome — backpressure for overloaded serving engines.
    pub fn max_queued(mut self, depth: usize) -> Self {
        self.config.max_queued = Some(depth);
        self
    }

    /// Mutation-plane compaction threshold (shorthand for
    /// [`SystemConfig::compact_fraction`]): rebuild the CSR at a mutation
    /// barrier once the overlay crosses this fraction of the base edges.
    pub fn compact_fraction(mut self, fraction: f64) -> Self {
        self.config.compact_fraction = fraction;
        self
    }

    /// Record structured trace events (shorthand for
    /// [`SystemConfig::trace`]): per-query timelines via
    /// `EngineReport::trace()` and Chrome-trace export. Only effective
    /// when the crate is compiled with the `trace` feature; the knob is
    /// a no-op otherwise (see [`crate::trace`]).
    pub fn trace(mut self, enabled: bool) -> Self {
        self.config.trace = enabled;
        self
    }

    /// Order-independent assembly: an explicit partitioning fixes the
    /// worker count, else an explicit `workers(k)`, else the cluster's,
    /// else 1. Conflicting explicit counts panic here with the
    /// builder's vocabulary rather than deep inside `SimEngine::new`.
    fn resolve(self) -> (Arc<Graph>, Partitioning, ClusterModel, SystemConfig) {
        let partitioning = match self.partitioning {
            Some(p) => {
                if let Some(k) = self.workers {
                    assert_eq!(
                        k,
                        p.num_workers(),
                        "EngineBuilder: workers({k}) conflicts with the explicit \
                         partitioning over {} workers",
                        p.num_workers()
                    );
                }
                p
            }
            None => {
                let k = self
                    .workers
                    .or(self.cluster.as_ref().map(|c| c.num_workers))
                    .unwrap_or(1);
                self.partitioner.partition(&self.graph, k)
            }
        };
        let k = partitioning.num_workers();
        let cluster = match self.cluster {
            Some(c) => {
                assert_eq!(
                    c.num_workers, k,
                    "EngineBuilder: the cluster model has {} workers but the \
                     engine resolved to {k}",
                    c.num_workers
                );
                c
            }
            None => ClusterModel::scale_up(k),
        };
        (self.graph, partitioning, cluster, self.config)
    }

    /// Build the deterministic discrete-event engine.
    pub fn build_sim(self) -> SimEngine {
        let (graph, partitioning, cluster, config) = self.resolve();
        SimEngine::new(graph, cluster, partitioning, config)
    }

    /// Build the multi-threaded runtime (the cluster model, a
    /// simulation-only concern, is ignored).
    pub fn build_threaded(self) -> ThreadEngine {
        let (graph, partitioning, _cluster, config) = self.resolve();
        ThreadEngine::with_config(graph, partitioning, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{PingProgram, ReachProgram};
    use qgraph_graph::{GraphBuilder, VertexId};
    use qgraph_partition::RangePartitioner;

    fn line(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as u32, i as u32 + 1, 1.0);
        }
        b.build()
    }

    /// A driver written once against the trait, exercised on both
    /// runtimes — the point of the shared API.
    fn mixed_drive<E: Engine>(engine: &mut E) -> (usize, u32) {
        let reach = engine.submit(ReachProgram::bounded(VertexId(0), 4));
        let ping = engine.submit(PingProgram {
            ring: vec![VertexId(1), VertexId(7)],
            rounds: 3,
        });
        engine.run();
        (
            engine.output(&reach).map_or(0, Vec::len),
            *engine.output(&ping).unwrap_or(&0),
        )
    }

    #[test]
    fn one_driver_runs_on_both_engines() {
        let mut sim = EngineBuilder::new(line(8)).workers(2).build_sim();
        let mut threaded = EngineBuilder::new(line(8)).workers(2).build_threaded();
        let a = mixed_drive(&mut sim);
        let b = mixed_drive(&mut threaded);
        assert_eq!(a, (5, 2));
        assert_eq!(a, b, "runtimes must agree");
        assert_eq!(Engine::outcomes(&sim).len(), 2);
        assert_eq!(Engine::outcomes(&threaded).len(), 2);
    }

    #[test]
    fn builder_accepts_explicit_partitioning() {
        let g = line(6);
        let parts = RangePartitioner.partition(&g, 3);
        let mut e = EngineBuilder::new(g).partitioning(parts).build_sim();
        let q = e.submit(ReachProgram::new(VertexId(0)));
        e.run();
        assert_eq!(e.output(&q).unwrap().len(), 6);
    }

    #[test]
    fn builder_worker_count_resolution_is_order_independent() {
        use qgraph_sim::ClusterModel;
        // cluster() before workers() used to lose the cluster count and
        // panic inside SimEngine::new; both orders must now agree.
        let e = EngineBuilder::new(line(8))
            .cluster(ClusterModel::scale_up(4))
            .workers(4)
            .build_sim();
        assert_eq!(e.partitioning().num_workers(), 4);
        let e = EngineBuilder::new(line(8))
            .workers(4)
            .cluster(ClusterModel::scale_up(4))
            .build_sim();
        assert_eq!(e.partitioning().num_workers(), 4);
        // Cluster alone fixes the count.
        let e = EngineBuilder::new(line(8))
            .cluster(ClusterModel::scale_up(3))
            .build_sim();
        assert_eq!(e.partitioning().num_workers(), 3);
    }

    #[test]
    #[should_panic(expected = "EngineBuilder")]
    fn builder_conflicting_counts_panic_with_builder_message() {
        use qgraph_sim::ClusterModel;
        let _ = EngineBuilder::new(line(8))
            .cluster(ClusterModel::scale_up(4))
            .workers(8)
            .build_sim();
    }

    #[test]
    fn builder_threads_qcut_config_into_both_runtimes() {
        let cfg = QcutConfig {
            min_repartition_interval_secs: 0.25,
            locality_threshold: 0.9,
            ..Default::default()
        };
        // qcut() installs the full config on a builder that had none.
        let b = EngineBuilder::new(line(8)).workers(2);
        assert!(b.config.qcut.is_none());
        let q = b.qcut(cfg).config.qcut.expect("installed");
        assert_eq!(q.min_repartition_interval_secs, 0.25);
        assert_eq!(q.locality_threshold, 0.9);
        assert_eq!(q.max_queries, QcutConfig::default().max_queries);
    }

    #[test]
    fn builder_threads_admission_policy_into_config() {
        let b = EngineBuilder::new(line(8))
            .workers(2)
            .admission(AdmissionPolicy::Deadline);
        assert_eq!(b.config.admission, AdmissionPolicy::Deadline);
        let b = EngineBuilder::new(line(8))
            .workers(2)
            .admission(AdmissionPolicy::priorities(&[("poi", 5)]));
        assert!(matches!(
            b.config.admission,
            AdmissionPolicy::ProgramPriority(_)
        ));
    }

    #[test]
    fn builder_threads_elastic_knobs_into_config() {
        let b = EngineBuilder::new(line(8))
            .workers(2)
            .pool_threads(3)
            .dop(DopPolicy::Fixed(2));
        assert_eq!(b.config.pool_threads, 3);
        assert_eq!(b.config.dop, DopPolicy::Fixed(2));
        // Elastic knobs are structure-preserving: a narrow pool still
        // computes identical outputs on both runtimes.
        let mut sim = EngineBuilder::new(line(8))
            .workers(4)
            .pool_threads(1)
            .dop(DopPolicy::Fixed(1))
            .build_sim();
        let mut threaded = EngineBuilder::new(line(8))
            .workers(4)
            .pool_threads(1)
            .dop(DopPolicy::Fixed(1))
            .build_threaded();
        assert_eq!(mixed_drive(&mut sim), (5, 2));
        assert_eq!(mixed_drive(&mut threaded), (5, 2));
    }

    #[test]
    fn builder_uses_partitioner_and_workers() {
        let mut e = EngineBuilder::new(line(16))
            .workers(4)
            .partitioner(RangePartitioner)
            .build_sim();
        assert_eq!(e.partitioning().num_workers(), 4);
        let q = e.submit(ReachProgram::bounded(VertexId(0), 2));
        e.run();
        assert_eq!(e.output(&q).unwrap().len(), 3);
    }
}
