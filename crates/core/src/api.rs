//! The engine API: one [`Engine`] front over both runtimes and an
//! [`EngineBuilder`] that assembles graph, partitioner, cluster, and
//! configuration into either of them.
//!
//! [`Engine<R>`] defines the lifecycle once — typed [`Engine::submit`]
//! returning a [`QueryHandle`], [`Engine::run`], [`Engine::output`]
//! recovering `&P::Output`, the report, layout and index accessors — over
//! the [`Runtime`] `R` that executes the coordinator protocol:
//! [`SimEngine`] is `Engine<Sim>` and [`ThreadEngine`] is
//! `Engine<Threads>`. Generic drivers are written once:
//!
//! ```
//! use qgraph_core::{programs::ReachProgram, Engine, EngineBuilder, Runtime};
//! use qgraph_graph::{GraphBuilder, VertexId};
//!
//! fn count_reached<R: Runtime>(engine: &mut Engine<R>) -> usize {
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

use qgraph_graph::{Graph, MutationBatch, Topology};
use qgraph_partition::{HashPartitioner, Partitioner, Partitioning};
use qgraph_sim::ClusterModel;

use crate::config::SystemConfig;
use crate::coord::EngineState;
use crate::engine::{Sim, SimEngine};
use crate::index_plane::PointIndex;
use crate::program::VertexProgram;
use crate::query::{QueryHandle, QueryId, QueryOutcome};
use crate::report::EngineReport;
use crate::runtime::{ThreadEngine, Threads};
use crate::task::{take_output, Envelope, QueryTask, TypedTask};

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Sim {}
    impl Sealed for super::Threads {}
}

/// What executes an [`Engine`]'s queries: [`Sim`], the deterministic
/// discrete-event simulation, or [`Threads`], real OS threads. Sealed: it
/// names the runtime in generic drivers (`fn f<R: Runtime>(e: &mut
/// Engine<R>)`) and cannot be implemented outside this crate. Its hidden
/// methods are the per-runtime glue the front calls.
pub trait Runtime: sealed::Sealed {
    /// The engine state and the finished queries' outputs.
    #[doc(hidden)]
    fn held(&self) -> (&EngineState, &[Option<Envelope>]);
    #[doc(hidden)]
    fn held_mut(&mut self) -> (&mut EngineState, &mut [Option<Envelope>]);
    #[doc(hidden)]
    fn enqueue(&mut self, task: Arc<dyn QueryTask>) -> QueryId;
    /// Run every submitted query to completion.
    #[doc(hidden)]
    fn drive(&mut self);
    #[doc(hidden)]
    fn install(&mut self, index: Box<dyn PointIndex>) {
        self.held_mut().0.index = Some(index);
    }
    /// Validate a mutation batch, then apply it at the next quiescent
    /// point.
    #[doc(hidden)]
    fn apply(&mut self, batch: MutationBatch);
    /// Make the held state current before a snapshot of it.
    #[doc(hidden)]
    fn settle(&mut self) {}
}

/// The multi-query engine: submit heterogeneous queries, run them to
/// completion, retrieve typed outputs and the measurement report — the
/// same calls on both runtimes. Build one with [`EngineBuilder`]; the
/// calls only one runtime has are on [`SimEngine`] and [`ThreadEngine`].
pub struct Engine<R> {
    pub(crate) rt: R,
}

impl<R: Runtime> Engine<R> {
    /// Enqueue a query of any [`VertexProgram`] type; one engine runs
    /// heterogeneous queries concurrently. It starts once a closed-loop
    /// slot is free (`max_parallel_queries` in flight at a time); the
    /// returned handle recovers the typed output after [`Engine::run`].
    pub fn submit<P: VertexProgram>(&mut self, program: P) -> QueryHandle<P> {
        QueryHandle::new(self.submit_task(Arc::new(TypedTask::new(program))))
    }

    /// Erased submission: enqueue a prepared [`QueryTask`]. Prefer the
    /// typed [`Engine::submit`].
    pub fn submit_task(&mut self, task: Arc<dyn QueryTask>) -> QueryId {
        self.rt.enqueue(task)
    }

    /// Apply a [`MutationBatch`] at the next quiescent point: the engine
    /// stops the world, applies the batch atomically and opens a new graph
    /// epoch — in-flight queries park at their barriers and resume
    /// against the mutated topology. Batches apply in submission order (on
    /// threads, a batch sent while not serving waits for the next session).
    ///
    /// # Panics
    /// Rejects the batch here, on the caller's stack (see
    /// [`MutationBatch::validate`]), if any op carries a NaN, negative, or
    /// infinite weight.
    pub fn mutate(&mut self, batch: MutationBatch) {
        self.rt.apply(batch);
    }

    /// Run every submitted query to completion; returns the cumulative
    /// report. A thread engine keeps serving afterwards.
    pub fn run(&mut self) -> &EngineReport {
        self.rt.drive();
        self.report()
    }

    /// The output of a finished query, through its typed handle (on
    /// threads, visible after `run`/`drain`/`shutdown`).
    pub fn output<P: VertexProgram>(&self, handle: &QueryHandle<P>) -> Option<&P::Output> {
        self.output_as::<P>(handle.id())
    }

    /// Typed output lookup by raw [`QueryId`]; `None` if unfinished or if
    /// `P` is not the program type the query was submitted with.
    pub fn output_as<P: VertexProgram>(&self, q: QueryId) -> Option<&P::Output> {
        self.output_envelope(q)?.downcast_ref::<P::Output>()
    }

    /// Erased output access backing the typed lookups.
    pub fn output_envelope(&self, q: QueryId) -> Option<&(dyn Any + Send)> {
        self.rt.held().1.get(q.index())?.as_deref()
    }

    /// Take ownership of a finished query's output.
    pub fn take_output<P: VertexProgram>(&mut self, handle: &QueryHandle<P>) -> Option<P::Output> {
        take_output::<P>(self.rt.held_mut().1, handle.id())
    }

    /// The cumulative measurement report (on threads, as of the last
    /// hand-over: `run`/`drain`/`shutdown`).
    pub fn report(&self) -> &EngineReport {
        &self.rt.held().0.report
    }

    /// Per-query outcomes, in completion order.
    pub fn outcomes(&self) -> &[QueryOutcome] {
        &self.report().outcomes
    }

    /// The current vertex→worker assignment (mutated by repartitionings).
    pub fn partitioning(&self) -> &Partitioning {
        &self.rt.held().0.partitioning
    }

    /// The evolving graph view queries execute against.
    pub fn topology(&self) -> &Topology {
        &self.rt.held().0.topology
    }

    /// The current graph epoch (mutation batches applied so far).
    pub fn epoch(&self) -> u64 {
        self.topology().epoch()
    }

    /// A coherent copy of the current graph view — the epoch an index
    /// built now would be valid for. (A thread engine drains first, taking
    /// its coordinator's hand-over, so the snapshot is never stale.)
    pub fn topology_snapshot(&mut self) -> Topology {
        self.rt.settle();
        self.topology().clone()
    }

    /// Install (or replace) a point-query label index (see
    /// [`PointIndex`]): eligible point queries popping off the admission
    /// queue are answered by it instead of traversal, and mutation
    /// barriers repair it before the new epoch opens to queries. A serving
    /// thread engine's coordinator picks it up on its next turn.
    pub fn install_index(&mut self, index: Box<dyn PointIndex>) {
        self.rt.install(index);
    }

    /// The installed index, if any (and, on threads, not serving).
    pub fn index(&self) -> Option<&dyn PointIndex> {
        self.rt.held().0.index.as_deref()
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

    /// A driver written once against the front, exercised on both
    /// runtimes — the point of the shared API.
    fn mixed_drive<R: Runtime>(engine: &mut Engine<R>) -> (usize, u32) {
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
        assert_eq!(sim.outcomes().len(), 2);
        assert_eq!(threaded.outcomes().len(), 2);
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
    fn builder_threads_elastic_knobs_into_config() {
        // Elastic knobs are structure-preserving: a narrow pool still
        // computes identical outputs on both runtimes.
        let narrow = || SystemConfig {
            pool_threads: 1,
            ..Default::default()
        };
        let builder = || EngineBuilder::new(line(8)).workers(4).config(narrow());
        assert_eq!(mixed_drive(&mut builder().build_sim()), (5, 2));
        assert_eq!(mixed_drive(&mut builder().build_threaded()), (5, 2));
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
