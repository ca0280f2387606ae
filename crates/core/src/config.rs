//! System configuration mirroring the paper's §4.1 parameter table.

use qgraph_sim::SimTime;

use crate::sched::AdmissionPolicy;

/// How query iterations are synchronized (paper §3.3): Q-Graph's hybrid
/// barrier, or the traditional BSP baseline it is measured against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierMode {
    /// The hybrid barrier: per-query barriers limited to involved workers;
    /// fully local queries synchronize for free (no controller round-trip).
    Hybrid,
    /// Traditional BSP: one barrier *shared by all queries* and spanning
    /// all workers — every query's next iteration waits for every other
    /// query's current iteration (the Figure 6d baseline, with the
    /// straggler problem §3.3 describes).
    SharedGlobal,
}

/// Configuration of the Q-cut adaptive repartitioning loop (paper §3.2/3.4).
#[derive(Clone, Debug)]
pub struct QcutConfig {
    /// Locality threshold Φ: repartition when the mean query locality over
    /// the monitoring window drops below it. Paper: 0.7.
    pub locality_threshold: f64,
    /// Monitoring window μ in seconds on the executor's own clock: how
    /// long finished queries' statistics stay in the controller's view,
    /// and (an eighth of it) both the sub-window the activity imbalance is
    /// measured over and the cap on the wait between Q-cut checks.
    /// Virtual seconds in the simulation, session wall-clock seconds in
    /// the thread runtime (short runs retain every finished scope, bounded
    /// by a cap of 4 × [`QcutConfig::MAX_QUERIES`]). Paper: 240 s.
    pub monitoring_window_secs: f64,
    /// Time budget for one ILS run, which runs at the trigger, hidden
    /// behind query processing (paper §3.4). The simulation prices it: the
    /// plan comes due this many virtual seconds after the trigger, and
    /// this is the planning cost its pacing measures. On threads the
    /// budget is the ILS's own run time — the plan comes due as the ILS
    /// returns — and this value is not read. Paper: 2 s.
    pub ils_budget_secs: f64,
    /// Hard cap on ILS outer iterations (perturbation rounds), bounding the
    /// host CPU spent per run.
    pub ils_max_rounds: usize,
}

impl Default for QcutConfig {
    fn default() -> Self {
        QcutConfig {
            locality_threshold: 0.7,
            monitoring_window_secs: 240.0,
            ils_budget_secs: 2.0,
            ils_max_rounds: 60,
        }
    }
}

impl QcutConfig {
    /// Maximum workload imbalance δ between any worker pair. Paper: 0.25.
    pub const DELTA: f64 = 0.25;

    /// Also repartition when the workers' recent *activity* imbalance
    /// (vertex updates per monitoring sub-window) exceeds this. The paper's
    /// trigger is locality-only, but its Domain+Q-cut curves (Fig. 5/6)
    /// require rebalancing a partitioning whose locality is already high —
    /// Domain's problem is stragglers, not locality — so the controller
    /// also watches balance. 2δ.
    pub const IMBALANCE_THRESHOLD: f64 = 2.0 * Self::DELTA;

    /// RNG seed for the ILS (perturbation and clustering are randomized).
    pub const SEED: u64 = 0xC0FFEE;

    /// Maximum queries fed into one ILS run. Paper: 128.
    pub const MAX_QUERIES: usize = 128;

    /// Cluster queries to at most `CLUSTER_FACTOR · k` clusters before the
    /// local search. Paper (App. A.1): 4.
    pub const CLUSTER_FACTOR: usize = 4;

    /// The paper's defaults with every *time* constant divided by `factor`.
    ///
    /// The experiments run on graphs scaled down from the paper's (and on
    /// a virtual clock), so query latencies are roughly `factor`× shorter
    /// than the paper's wall-clock latencies; the adaptivity time
    /// constants (monitoring window μ, ILS budget) must shrink by the
    /// same factor to keep the *ratio* of adaptation rate to query rate
    /// faithful. `factor = 1` is the paper verbatim. The ILS budget is
    /// simulation-only (threads measure the ILS's run time), so on threads
    /// only μ scales.
    pub fn time_scaled(factor: f64) -> Self {
        assert!(factor > 0.0, "time scale must be positive");
        let base = QcutConfig::default();
        QcutConfig {
            monitoring_window_secs: base.monitoring_window_secs / factor,
            ils_budget_secs: base.ils_budget_secs / factor,
            ..base
        }
    }

    /// μ/8: the sub-window the activity imbalance is measured over, and
    /// the cap on the wait between Q-cut checks.
    pub fn sub_window(&self) -> SimTime {
        SimTime::from_secs_f64(self.monitoring_window_secs / 8.0)
    }
}

/// Top-level engine configuration. Message combining is not configured
/// here: it is the program's, which has a combiner
/// ([`crate::VertexProgram::combine`]) or declines.
#[derive(Clone, Debug)]
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
    /// Compute threads in the elastic morsel pool (see [`crate::pool`]):
    /// partitions keep state ownership while this many threads draw
    /// per-(query, partition) tasks from the shared pool. `0` (the
    /// default) matches the partition count — the fixed-partition
    /// baseline's thread budget. Outputs and iteration counts are
    /// identical for every width; only wall-clock scheduling changes.
    /// The simulated engine prices the same width as a cap on
    /// concurrently executing tasks. Each query's degree-of-parallelism
    /// budget follows from it at admission: analytics get the width,
    /// point queries 1.
    pub pool_threads: usize,
    /// Record structured trace events (see [`crate::trace`]). The one
    /// switch for the tracer, which every build compiles in; off, each
    /// call site costs one `Option` check. Off by default: tracing is
    /// opt-in per engine.
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
            compact_fraction: 0.25,
            max_queued: None,
            pool_threads: 0,
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
        assert_eq!(QcutConfig::MAX_QUERIES, 128);
        assert_eq!(QcutConfig::CLUSTER_FACTOR, 4);
        assert_eq!(q.ils_budget_secs, 2.0);
        assert_eq!(QcutConfig::DELTA, 0.25);
        assert_eq!(QcutConfig::IMBALANCE_THRESHOLD, 0.5);
        let s = SystemConfig::default();
        assert_eq!(s.max_parallel_queries, 16);
        assert_eq!(s.barrier_mode, BarrierMode::Hybrid);
        assert!(s.qcut.is_none());
        assert_eq!(qgraph_sim::BATCH_MAX_MSGS, 32, "the paper's batch cap");
        assert_eq!(s.compact_fraction, 0.25);
        assert!(s.max_queued.is_none(), "unbounded admission by default");
        assert_eq!(s.pool_threads, 0, "pool width follows partition count");
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
            (q.locality_threshold, q.ils_max_rounds),
            (base.locality_threshold, base.ils_max_rounds)
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
