//! System configuration mirroring the paper's §4.1 parameter table.

use serde::{Deserialize, Serialize};

use crate::sched::{AdmissionPolicy, DopPolicy};

/// How query iterations are synchronized (paper §3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BarrierMode {
    /// The hybrid barrier: per-query barriers limited to involved workers;
    /// fully local queries synchronize for free (no controller round-trip).
    Hybrid,
    /// Per-query barriers (Seraph-style): every query runs an independent
    /// barrier spanning *all* workers every iteration.
    GlobalPerQuery,
    /// Traditional BSP: one barrier *shared by all queries* — every query's
    /// next iteration waits for every other query's current iteration (the
    /// Figure 6d baseline, with the straggler problem §3.3 describes).
    SharedGlobal,
}

/// Configuration of the Q-cut adaptive repartitioning loop (paper §3.2/3.4).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QcutConfig {
    /// Locality threshold Φ: repartition when the mean query locality over
    /// the monitoring window drops below it. Paper: 0.7.
    pub locality_threshold: f64,
    /// Also repartition when the workers' recent *activity* imbalance
    /// (vertex updates per monitoring sub-window) exceeds this. The paper's
    /// trigger is locality-only, but its Domain+Q-cut curves (Fig. 5/6)
    /// require rebalancing a partitioning whose locality is already high —
    /// Domain's problem is stragglers, not locality — so the controller
    /// also watches balance. Default 2δ.
    pub imbalance_threshold: f64,
    /// Monitoring window μ in seconds on the executor's own clock: how
    /// long finished queries' statistics stay in the controller's view,
    /// and (an eighth of it) the sub-window the activity imbalance is
    /// measured over. Virtual seconds in the simulation, session
    /// wall-clock seconds in the thread runtime (short runs retain every
    /// finished scope, bounded by the `max_queries`-derived cap).
    /// Paper: 240 s.
    pub monitoring_window_secs: f64,
    /// Maximum queries fed into one ILS run. Paper: 128.
    pub max_queries: usize,
    /// Virtual time budget for one ILS run; the result is applied this long
    /// after triggering (the computation itself is hidden behind query
    /// processing, paper §3.4). Paper: 2 s.
    pub ils_budget_secs: f64,
    /// Hard cap on ILS outer iterations (perturbation rounds), bounding the
    /// host CPU spent per run.
    pub ils_max_rounds: usize,
    /// Maximum workload imbalance δ between any worker pair. Paper: 0.25.
    pub delta: f64,
    /// Cluster queries to at most `cluster_factor * k` clusters before the
    /// local search (paper App. A.1 uses 4k).
    pub cluster_factor: usize,
    /// Cooldown: minimum seconds between repartitionings, on the
    /// executor's own clock — virtual seconds in the simulation, session
    /// wall-clock seconds in the thread runtime, where it is all that
    /// stands between a low-locality stream and one stop-the-world window
    /// per superstep (prevents barrier thrashing while statistics are
    /// still converging). `0.0` lets every superstep end re-trigger.
    pub min_repartition_interval_secs: f64,
    /// RNG seed for the ILS (perturbation and clustering are randomized).
    pub seed: u64,
}

impl Default for QcutConfig {
    fn default() -> Self {
        QcutConfig {
            locality_threshold: 0.7,
            imbalance_threshold: 0.5,
            monitoring_window_secs: 240.0,
            max_queries: 128,
            ils_budget_secs: 2.0,
            ils_max_rounds: 60,
            delta: 0.25,
            cluster_factor: 4,
            min_repartition_interval_secs: 10.0,
            seed: 0xC0FFEE,
        }
    }
}

impl QcutConfig {
    /// The paper's defaults with every *time* constant divided by `factor`.
    ///
    /// The experiments run on graphs scaled down from the paper's (and on
    /// a virtual clock), so query latencies are roughly `factor`× shorter
    /// than the paper's wall-clock latencies; the adaptivity time
    /// constants (monitoring window μ, ILS budget, repartition cooldown)
    /// must shrink by the same factor to keep the *ratio* of adaptation
    /// rate to query rate faithful. `factor = 1` is the paper verbatim.
    pub fn time_scaled(factor: f64) -> Self {
        assert!(factor > 0.0, "time scale must be positive");
        let base = QcutConfig::default();
        QcutConfig {
            monitoring_window_secs: base.monitoring_window_secs / factor,
            ils_budget_secs: base.ils_budget_secs / factor,
            min_repartition_interval_secs: base.min_repartition_interval_secs / factor,
            ..base
        }
    }
}

/// Top-level engine configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Barrier synchronization mode.
    pub barrier_mode: BarrierMode,
    /// Adaptive Q-cut repartitioning; `None` keeps the initial partitioning
    /// static (the paper's "static Hash"/"static Domain" baselines).
    pub qcut: Option<QcutConfig>,
    /// Closed-loop concurrency: this many queries run in parallel; the next
    /// pending query starts when one finishes. Paper: 16.
    pub max_parallel_queries: usize,
    /// How the waiting backlog drains into free closed-loop slots (see
    /// [`crate::sched`]). FIFO reproduces the paper's batches; the other
    /// policies reorder admission for mixed streams.
    pub admission: AdmissionPolicy,
    /// Modelled per-vertex state size for repartitioning transfer costs.
    pub state_bytes_per_vertex: u64,
    /// Apply vertex-level message combiners
    /// ([`crate::VertexProgram::combine`]) at both ends of the wire.
    /// Combining is output-preserving by the combiner contract; disable
    /// it only for A/B checks (only the combiner on ≡ off equivalence
    /// tests do).
    pub combiners: bool,
    /// Wire batch cap used for remote-batch *accounting*
    /// ([`crate::QueryOutcome::remote_batches`]): the paper's 32-message
    /// batches. The simulated engine prices transfers with its
    /// `NetworkModel::batch_max_msgs` (same default) and asserts at
    /// construction that the two caps agree, so reported batch counts
    /// always match what the cost model charges (and what the thread
    /// runtime reports for the same config). Accounting only: the count
    /// comes from `Worker::execute`; the thread runtime moves a Step's
    /// messages to one destination as one batch, mailbox to mailbox.
    pub batch_max_msgs: usize,
    /// Mutation-plane compaction threshold: at a mutation epoch barrier,
    /// rebuild the CSR (see `qgraph_graph::Topology::compacted`) once the
    /// overlay's op count reaches this fraction of the base edge count.
    /// `f64::INFINITY` never compacts; `0.0` compacts at every epoch.
    pub compact_fraction: f64,
    /// Bounded admission queue (backpressure): a submission arriving while
    /// this many queries are already waiting is *rejected* — it gets a
    /// distinct [`crate::OutcomeStatus::Rejected`] outcome and its output
    /// stays `None`. `None` = unbounded (the default).
    pub max_queued: Option<usize>,
    /// Worker threads for point-index (hub-label) rebuilds, forwarded to
    /// [`crate::PointIndex::set_parallelism`] when an index is installed.
    /// `0` (the default) forwards nothing, so the index keeps its own
    /// setting — for `qgraph-index` that is `IndexConfig::build_threads`,
    /// itself defaulting to available parallelism capped at 8 and
    /// sequential for small graphs. The built labels are identical for
    /// any thread count.
    pub index_build_threads: usize,
    /// Compute threads in the elastic morsel pool (see [`crate::pool`]):
    /// partitions keep state ownership while this many threads draw
    /// per-(query, partition) tasks from the shared pool. `0` (the
    /// default) matches the partition count — the fixed-partition
    /// baseline's thread budget. Outputs and iteration counts are
    /// identical for every width; only wall-clock scheduling changes.
    /// The simulated engine prices the same width as a cap on
    /// concurrently executing tasks.
    pub pool_threads: usize,
    /// Per-query degree-of-parallelism budgets chosen at admission (see
    /// [`DopPolicy`]): how many of a superstep's per-partition tasks may
    /// run concurrently. Structure-preserving for every budget.
    pub dop: DopPolicy,
    /// Record structured trace events (see [`crate::trace`]). Only
    /// meaningful when the crate is compiled with the `trace` feature;
    /// without it the recorder is a zero-sized no-op regardless of this
    /// knob. Off by default: tracing is opt-in per engine.
    pub trace: bool,
    /// Per-actor trace ring capacity (events buffered between barrier
    /// drains). A full ring drops further events and counts them in
    /// `EngineReport::trace().dropped_events` — it never blocks or
    /// grows.
    pub trace_ring_capacity: usize,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            barrier_mode: BarrierMode::Hybrid,
            qcut: None,
            max_parallel_queries: 16,
            admission: AdmissionPolicy::Fifo,
            state_bytes_per_vertex: 32,
            combiners: true,
            batch_max_msgs: 32,
            compact_fraction: 0.25,
            max_queued: None,
            index_build_threads: 0,
            pool_threads: 0,
            dop: DopPolicy::Adaptive,
            trace: false,
            trace_ring_capacity: 65_536,
        }
    }
}

impl SystemConfig {
    /// The paper's full Q-Graph configuration: hybrid barriers + adaptive
    /// Q-cut with the §4.1 defaults.
    pub fn qgraph() -> Self {
        SystemConfig {
            qcut: Some(QcutConfig::default()),
            ..Default::default()
        }
    }

    /// A static baseline (no repartitioning) with the given barrier mode.
    pub fn static_with_barrier(mode: BarrierMode) -> Self {
        SystemConfig {
            barrier_mode: mode,
            qcut: None,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_4_1() {
        let q = QcutConfig::default();
        assert_eq!(q.locality_threshold, 0.7);
        assert_eq!(q.monitoring_window_secs, 240.0);
        assert_eq!(q.max_queries, 128);
        assert_eq!(q.ils_budget_secs, 2.0);
        assert_eq!(q.delta, 0.25);
        let s = SystemConfig::default();
        assert_eq!(s.max_parallel_queries, 16);
        assert_eq!(s.barrier_mode, BarrierMode::Hybrid);
        assert!(s.qcut.is_none());
        assert!(s.combiners, "combiners are on by default");
        assert_eq!(s.batch_max_msgs, 32, "the paper's batch cap");
        assert_eq!(s.compact_fraction, 0.25);
        assert!(s.max_queued.is_none(), "unbounded admission by default");
        assert_eq!(s.index_build_threads, 0, "index picks its own width");
        assert_eq!(s.pool_threads, 0, "pool width follows partition count");
        assert_eq!(s.dop, DopPolicy::Adaptive, "points narrow, analytics wide");
        assert!(!s.trace, "tracing is opt-in");
        assert_eq!(s.trace_ring_capacity, 65_536);
    }

    #[test]
    fn qgraph_preset_enables_qcut() {
        assert!(SystemConfig::qgraph().qcut.is_some());
    }

    #[test]
    fn time_scaling_divides_the_time_constants_and_nothing_else() {
        let (q, base) = (QcutConfig::time_scaled(100.0), QcutConfig::default());
        assert_eq!(
            q.monitoring_window_secs,
            base.monitoring_window_secs / 100.0
        );
        assert_eq!(q.ils_budget_secs, base.ils_budget_secs / 100.0);
        assert_eq!(
            q.min_repartition_interval_secs,
            base.min_repartition_interval_secs / 100.0
        );
        assert_eq!(
            (q.locality_threshold, q.max_queries, q.delta),
            (base.locality_threshold, base.max_queries, base.delta)
        );
    }

    #[test]
    fn default_admission_is_fifo() {
        assert_eq!(SystemConfig::default().admission, AdmissionPolicy::Fifo);
    }

    #[test]
    fn config_debug_is_informative() {
        let d = format!("{:?}", SystemConfig::qgraph());
        assert!(d.contains("Hybrid"));
        assert!(d.contains("locality_threshold"));
    }
}
