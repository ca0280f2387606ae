//! The measurement record one engine run produces, plus the derived
//! series the experiment harness plots.
//!
//! An engine's report is cumulative over its lifetime, and every entry in
//! it has one owner. The thread runtime's coordinator records into a
//! report of its own and, at every drain and at the stop, hands its
//! entries over ([`EngineReport::hand_over`]): they leave the coordinator,
//! which keeps only the scalars ([`EngineReport::carry`]), and the engine
//! appends them and closes the run window ([`EngineReport::close_run`]).

use qgraph_metrics::{Table, TimeSeries};
use qgraph_partition::imbalance;

use crate::index_plane::IndexRepairEvent;
use crate::qcut::IlsResult;
use crate::query::QueryOutcome;
use crate::trace::TraceData;

/// One worker-activity observation: the vertex-function count of one step
/// report, attributed to the instant it reached the coordinator. Figure 6e
/// derives workload-imbalance curves from these. One sample per report:
/// a superstep execution in the simulation; on the thread runtime a run
/// of local supersteps closed on the partition's lane is one report, its
/// executions summed at the report instant.
#[derive(Clone, Copy, Debug)]
pub struct ActivitySample {
    /// Report time (the executor's clock, seconds).
    pub t: f64,
    /// Worker index.
    pub worker: usize,
    /// Vertex functions executed in the reported superstep(s).
    pub executed: u64,
}

/// One adaptive repartitioning (global barrier) event.
#[derive(Clone, Debug)]
pub struct RepartitionEvent {
    /// When the ILS was triggered (virtual seconds).
    pub triggered_at: f64,
    /// When the moves were applied (global barrier STOP).
    pub applied_at: f64,
    /// Global barrier duration (virtual seconds).
    pub barrier_duration: f64,
    /// Vertices that changed workers.
    pub moved_vertices: usize,
    /// Scope-weighted locality of the scopes the ILS optimized (the
    /// controller's capped selection of live queries plus the retained
    /// finished window) against the partition as it stood when the
    /// barrier fired (see [`crate::qcut::migrate::scope_locality`]).
    pub locality_before: f64,
    /// The same metric recomputed against the *current* partition after
    /// the migration — always the post-move assignment, never the initial
    /// one, so successive events stay comparable as partitions drift.
    pub locality_after: f64,
    /// The ILS run's result (costs, trace, plan size).
    pub ils: IlsResult,
}

/// One applied mutation epoch: a `MutationBatch` absorbed at a
/// stop-the-world barrier (and possibly the compaction it tripped).
#[derive(Clone, Copy, Debug)]
pub struct MutationEvent {
    /// When the batch applied (virtual seconds).
    pub applied_at: f64,
    /// The graph epoch after this batch.
    pub epoch: u64,
    /// Ops in the batch.
    pub ops: usize,
    /// Vertices the batch appended.
    pub new_vertices: usize,
    /// Did this barrier also compact the overlay into a fresh CSR?
    pub compacted: bool,
    /// Duration of the whole stop-the-world barrier the batch rode
    /// (shared when several batches apply at one barrier).
    pub barrier_duration: f64,
}

/// One run window: a `run()` call (or, on the serving loop, the interval
/// between two drains). The engines' reports are *cumulative* across the
/// engine's lifetime; run windows give every outcome and repartition a
/// well-defined home so multi-run and long-serving reports stay
/// interpretable — a later window never silently mixes with an earlier
/// one's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunSummary {
    /// Zero-based run index.
    pub index: usize,
    /// When the window opened (virtual seconds; the previous window's end
    /// for serving drains).
    pub started_at_secs: f64,
    /// When the window closed.
    pub finished_at_secs: f64,
    /// `outcomes[outcomes_start..outcomes_end]` completed in this window.
    pub outcomes_start: usize,
    /// End of this window's outcome range (exclusive).
    pub outcomes_end: usize,
    /// `repartitions[repartitions_start..repartitions_end]` fired in this
    /// window.
    pub repartitions_start: usize,
    /// End of this window's repartition range (exclusive).
    pub repartitions_end: usize,
    /// Pool work attributable to this window: the *delta* of the
    /// cumulative [`EngineReport::pool`] counters since the previous
    /// closed window (skipped empty windows fold into the next closed
    /// one), so multi-run traces can attribute tasks and steals to a
    /// run. `threads` carries the width at close, not a delta.
    pub pool: PoolCounters,
}

/// Elastic-pool execution counters over the engine's lifetime (see
/// [`crate::pool`]): how many per-(query, partition) compute tasks ran,
/// how elastically, and how starved the pool was. The thread runtime
/// reports measured values; the simulated engine reports the same task
/// decomposition it priced (steals and idle waits stay zero there — the
/// virtual clock has no thread affinity to violate).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Pool threads serving the partitions (the effective width:
    /// `SystemConfig::pool_threads`, or the partition count when 0).
    pub threads: usize,
    /// Per-(query, partition) superstep executions — the sum of
    /// [`QueryOutcome::tasks`] over the traversed queries, on both
    /// runtimes. Not pool commands: a Collect is not counted, and a
    /// thread-runtime Step that closes `n` further local supersteps on its
    /// lane counts `1 + n`.
    pub tasks: u64,
    /// Tasks a thread executed off its affine partition (thread runtime
    /// only).
    pub steals: u64,
    /// Fruitless scans that parked a pool thread (thread runtime only).
    pub idle_waits: u64,
}

/// Everything measured over an engine's lifetime (cumulative across
/// `run()` calls / serving drains; see [`EngineReport::runs`] for the
/// per-run boundaries).
#[derive(Clone, Debug, Default)]
pub struct EngineReport {
    /// Per-query outcomes, in completion order.
    pub outcomes: Vec<QueryOutcome>,
    /// Worker activity, one sample per step report.
    pub activity: Vec<ActivitySample>,
    /// Adaptive repartitioning events.
    pub repartitions: Vec<RepartitionEvent>,
    /// Applied mutation epochs (the evolving-graph plane).
    pub mutations: Vec<MutationEvent>,
    /// Label-index repairs, one per mutation batch absorbed by an
    /// installed index (the index plane; parallel to `mutations`).
    pub index_repairs: Vec<IndexRepairEvent>,
    /// Completed run windows, oldest first.
    pub runs: Vec<RunSummary>,
    /// Virtual time at which the last query finished.
    pub finished_at_secs: f64,
    /// Elastic-pool execution counters (cumulative).
    pub pool: PoolCounters,
    /// The admission policy the engine served under (see
    /// [`crate::sched::AdmissionPolicy::label`]) — the grouping key of
    /// [`EngineReport::slo`]. Empty on a hand-built report.
    pub admission_policy: String,
    /// Accumulated structured trace events (see [`crate::trace`]);
    /// zero-sized unless the crate is built with the `trace` feature
    /// and empty unless [`crate::SystemConfig::trace`] was on.
    pub trace: TraceData,
}

impl EngineReport {
    /// A report holding only this one's scalars (`finished_at_secs`,
    /// `pool`, `admission_policy`): where a recorder that hands its
    /// entries over starts from.
    pub(crate) fn carry(&self) -> EngineReport {
        EngineReport {
            finished_at_secs: self.finished_at_secs,
            pool: self.pool,
            admission_policy: self.admission_policy.clone(),
            ..EngineReport::default()
        }
    }

    /// Move every entry recorded so far out, as a report of its own with
    /// the scalars current; this one keeps only the scalars
    /// ([`EngineReport::carry`]). The receiver [`EngineReport::append`]s
    /// it and closes its run window itself.
    pub(crate) fn hand_over(&mut self) -> EngineReport {
        let carried = self.carry();
        std::mem::replace(self, carried)
    }

    /// Fold in what a recorder handed over ([`EngineReport::hand_over`]).
    pub(crate) fn append(&mut self, delta: EngineReport) {
        self.outcomes.extend(delta.outcomes);
        self.activity.extend(delta.activity);
        self.repartitions.extend(delta.repartitions);
        self.mutations.extend(delta.mutations);
        self.index_repairs.extend(delta.index_repairs);
        self.trace.merge(delta.trace);
        self.finished_at_secs = delta.finished_at_secs;
        self.pool = delta.pool;
        self.admission_policy = delta.admission_policy;
    }

    /// The outcomes that actually executed (admission rejections carry no
    /// latency or locality signal, so every mean below skips them).
    pub fn completed(&self) -> impl Iterator<Item = &QueryOutcome> {
        self.outcomes.iter().filter(|o| !o.is_rejected())
    }

    /// Submissions the bounded admission queue rejected
    /// ([`crate::SystemConfig::max_queued`]).
    pub fn rejected_queries(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_rejected()).count()
    }

    /// Mean query latency (virtual seconds). NaN when no query finished.
    pub fn mean_latency(&self) -> f64 {
        qgraph_metrics::mean(self.completed().map(|o| o.latency_secs()))
    }

    /// Summed latency over all completed queries (the paper's Figure
    /// 6a–6c metric).
    pub fn total_latency(&self) -> f64 {
        self.completed().map(|o| o.latency_secs()).sum()
    }

    /// Mean per-query locality (the paper's Figure 6f metric).
    pub fn mean_locality(&self) -> f64 {
        qgraph_metrics::mean(self.completed().map(|o| o.locality()))
    }

    /// Mean queueing delay (arrival to admission) — how long the admission
    /// policy kept queries waiting. NaN when no query finished.
    pub fn mean_queueing_delay(&self) -> f64 {
        qgraph_metrics::mean(self.completed().map(|o| o.queueing_delay_secs()))
    }

    /// Mean time in system (arrival to completion) — what a streaming
    /// client observes. NaN when no query finished.
    pub fn mean_time_in_system(&self) -> f64 {
        qgraph_metrics::mean(self.completed().map(|o| o.time_in_system_secs()))
    }

    /// Queueing-delay percentiles (p50/p95/p99) over all completed
    /// queries — the tail the admission policies trade against each
    /// other. Zeros when no query finished.
    pub fn queueing_delay_percentiles(&self) -> Percentiles {
        Percentiles::of(self.completed().map(|o| o.queueing_delay_secs()).collect())
    }

    /// Time-in-system percentiles (p50/p95/p99) over all completed
    /// queries — the end-to-end tail a streaming client observes. Zeros
    /// when no query finished.
    pub fn time_in_system_percentiles(&self) -> Percentiles {
        Percentiles::of(self.completed().map(|o| o.time_in_system_secs()).collect())
    }

    /// Queries the installed label index answered at admission (see
    /// [`crate::query::ServedBy`]).
    pub fn index_served(&self) -> usize {
        self.completed().filter(|o| o.is_index_served()).count()
    }

    /// Queries that ran the full BSP traversal path.
    pub fn traversal_served(&self) -> usize {
        self.completed().filter(|o| !o.is_index_served()).count()
    }

    /// Close the current run window at `finished_at_secs`: every outcome
    /// and repartition recorded since the previous window becomes this
    /// run's. Called by the engines at the end of `run()` / at each
    /// serving drain with the pool counters *as of the close* — the
    /// window keeps the delta since the previous closed window, so
    /// summing `runs[..].pool` reproduces the cumulative counters.
    /// Returns whether a window was recorded.
    pub(crate) fn close_run(
        &mut self,
        started_at_secs: f64,
        finished_at_secs: f64,
        pool_at_close: PoolCounters,
    ) -> bool {
        self.pool = pool_at_close;
        let (o0, r0) = self
            .runs
            .last()
            .map(|r| (r.outcomes_end, r.repartitions_end))
            .unwrap_or((0, 0));
        if self.outcomes.len() == o0 && self.repartitions.len() == r0 {
            // Nothing happened since the last boundary (an idle drain, an
            // empty run): recording an empty window would only add noise.
            // Its pool delta (if any) folds into the next closed window.
            return false;
        }
        let prior = self.runs.iter().fold((0u64, 0u64, 0u64), |acc, r| {
            (
                acc.0 + r.pool.tasks,
                acc.1 + r.pool.steals,
                acc.2 + r.pool.idle_waits,
            )
        });
        self.runs.push(RunSummary {
            index: self.runs.len(),
            started_at_secs,
            finished_at_secs,
            outcomes_start: o0,
            outcomes_end: self.outcomes.len(),
            repartitions_start: r0,
            repartitions_end: self.repartitions.len(),
            pool: PoolCounters {
                threads: pool_at_close.threads,
                tasks: pool_at_close.tasks.saturating_sub(prior.0),
                steals: pool_at_close.steals.saturating_sub(prior.1),
                idle_waits: pool_at_close.idle_waits.saturating_sub(prior.2),
            },
        });
        true
    }

    /// Per-query timeline summaries from the tracing plane: one
    /// [`qgraph_trace::QueryTimeline`] per traced query with the
    /// five-phase time-in-system breakdown (queued / executing /
    /// frozen-waiting / deferred-by-dop / parked-at-barrier), plus the
    /// recorder's `dropped_events` health counter. Only available when
    /// the crate is built with the `trace` feature; empty unless
    /// [`crate::SystemConfig::trace`] was on.
    #[cfg(feature = "trace")]
    pub fn trace(&self) -> qgraph_trace::TraceSummary {
        self.trace.summary()
    }

    /// The outcomes completed within run window `index` (empty for an
    /// unknown index).
    pub fn run_outcomes(&self, index: usize) -> &[QueryOutcome] {
        self.runs
            .get(index)
            .map(|r| &self.outcomes[r.outcomes_start..r.outcomes_end])
            .unwrap_or(&[])
    }

    /// The repartition events that fired within run window `index`.
    pub fn run_repartitions(&self, index: usize) -> &[RepartitionEvent] {
        self.runs
            .get(index)
            .map(|r| &self.repartitions[r.repartitions_start..r.repartitions_end])
            .unwrap_or(&[])
    }

    /// Latency samples over completion time.
    pub fn latency_series(&self) -> TimeSeries {
        let mut s = TimeSeries::new("latency");
        for o in self.completed() {
            s.push(o.completed_at.as_secs_f64(), o.latency_secs());
        }
        s
    }

    /// Per-query locality over completion time.
    pub fn locality_series(&self) -> TimeSeries {
        let mut s = TimeSeries::new("locality");
        for o in self.completed() {
            s.push(o.completed_at.as_secs_f64(), o.locality());
        }
        s
    }

    /// Workload imbalance over time: bucket worker activity into windows
    /// of `window` seconds; imbalance of a window is
    /// `max_w(load) / mean_w(load) - 1` (0 = perfectly balanced;
    /// [`qgraph_partition::imbalance`]).
    pub fn imbalance_series(&self, num_workers: usize, window: f64) -> TimeSeries {
        assert!(window > 0.0);
        let mut s = TimeSeries::new("imbalance");
        if self.activity.is_empty() {
            return s;
        }
        let mut bucket_start = 0.0f64;
        let mut loads = vec![0usize; num_workers];
        let mut any = false;
        for a in &self.activity {
            while a.t >= bucket_start + window {
                if any {
                    s.push(bucket_start, imbalance(&loads));
                }
                loads.iter_mut().for_each(|l| *l = 0);
                any = false;
                bucket_start += window;
            }
            loads[a.worker] += a.executed as usize;
            any = true;
        }
        if any {
            s.push(bucket_start, imbalance(&loads));
        }
        s
    }

    /// Total remote messages across all queries (post-combine: what the
    /// wire carried).
    pub fn total_remote_messages(&self) -> u64 {
        self.outcomes.iter().map(|o| o.remote_messages).sum()
    }

    /// Total remote messages as produced, before sender-side combining.
    pub fn total_remote_messages_pre_combine(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.remote_messages_pre_combine)
            .sum()
    }

    /// Total wire batches across all queries (the paper's 32-message
    /// batch granularity; per-batch protocol overhead is charged per one
    /// of these).
    pub fn total_remote_batches(&self) -> u64 {
        self.outcomes.iter().map(|o| o.remote_batches).sum()
    }

    /// Fraction of produced remote traffic the combiners eliminated
    /// (`0.0` when nothing was combined — or nothing was sent).
    pub fn combine_reduction(&self) -> f64 {
        let pre = self.total_remote_messages_pre_combine();
        if pre == 0 {
            return 0.0;
        }
        1.0 - self.total_remote_messages() as f64 / pre as f64
    }

    /// Total vertices migrated across all repartitioning events.
    pub fn total_moved_vertices(&self) -> usize {
        self.repartitions.iter().map(|r| r.moved_vertices).sum()
    }

    /// Aggregate the outcomes per program kind (first-submission order) —
    /// the legibility layer for mixed workloads, where one engine run
    /// carries SSSP, POI, and reachability traffic at once.
    pub fn per_program(&self) -> Vec<ProgramSummary> {
        let mut order: Vec<&'static str> = Vec::new();
        for o in self.completed() {
            if !order.contains(&o.program) {
                order.push(o.program);
            }
        }
        order
            .into_iter()
            .map(|name| {
                let outcomes = self.completed().filter(|o| o.program == name);
                let mut s = ProgramSummary {
                    program: name,
                    queries: 0,
                    index_served: 0,
                    mean_latency_secs: 0.0,
                    mean_locality: 0.0,
                    vertex_updates: 0,
                    remote_messages: 0,
                    remote_messages_pre_combine: 0,
                    queueing_delay: Percentiles::default(),
                    time_in_system: Percentiles::default(),
                };
                let mut queueing: Vec<f64> = Vec::new();
                let mut in_system: Vec<f64> = Vec::new();
                for o in outcomes {
                    s.queries += 1;
                    if o.is_index_served() {
                        s.index_served += 1;
                    }
                    s.mean_latency_secs += o.latency_secs();
                    s.mean_locality += o.locality();
                    s.vertex_updates += o.vertex_updates;
                    s.remote_messages += o.remote_messages;
                    s.remote_messages_pre_combine += o.remote_messages_pre_combine;
                    queueing.push(o.queueing_delay_secs());
                    in_system.push(o.time_in_system_secs());
                }
                s.mean_latency_secs /= s.queries as f64;
                s.mean_locality /= s.queries as f64;
                s.queueing_delay = Percentiles::of(queueing);
                s.time_in_system = Percentiles::of(in_system);
                s
            })
            .collect()
    }

    /// The serving-quality (SLO) view of this report: p50/p95/p99
    /// time-in-system and queueing delay under the engine's admission
    /// policy, overall and broken out per program kind. This is the
    /// per-policy latency percentile reporting the serving loop promises:
    /// run one engine per candidate policy over the same arrival stream
    /// and compare their `slo()` tails directly.
    pub fn slo(&self) -> SloReport {
        SloReport {
            policy: self.admission_policy.clone(),
            completed: self.completed().count(),
            time_in_system: self.time_in_system_percentiles(),
            queueing_delay: self.queueing_delay_percentiles(),
            per_program: self.per_program(),
        }
    }

    /// Render [`EngineReport::per_program`] as a result table.
    pub fn program_table(&self) -> Table {
        let mut table = Table::new(
            "per-program outcomes",
            &[
                "program",
                "queries",
                "index_hits",
                "mean_latency_s",
                "tis_p50_s",
                "tis_p95_s",
                "tis_p99_s",
                "locality",
                "vertex_updates",
                "remote_msgs",
            ],
        );
        for s in self.per_program() {
            table.row(&[
                s.program.to_string(),
                format!("{}", s.queries),
                format!("{}", s.index_served),
                format!("{:.6}", s.mean_latency_secs),
                format!("{:.6}", s.time_in_system.p50),
                format!("{:.6}", s.time_in_system.p95),
                format!("{:.6}", s.time_in_system.p99),
                format!("{:.3}", s.mean_locality),
                format!("{}", s.vertex_updates),
                format!("{}", s.remote_messages),
            ]);
        }
        table
    }
}

/// The p50/p95/p99 of one latency-like distribution (seconds), computed
/// by the *nearest-rank* method — every reported value is an actual
/// sample, so tails are never smoothed away by interpolation. All zeros
/// for an empty sample set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Nearest-rank percentiles of `samples` (any order; consumed to
    /// sort in place).
    pub fn of(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return Percentiles::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latency samples"));
        let rank = |p: f64| -> f64 {
            let n = samples.len();
            // Nearest rank: the ⌈p·n⌉-th smallest sample (1-based).
            let i = ((p * n as f64).ceil() as usize).clamp(1, n);
            samples[i - 1]
        };
        Percentiles {
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
        }
    }
}

/// One engine run's serving-quality summary: latency-tail percentiles
/// keyed by the admission policy that produced them, with the
/// per-program-kind breakdown riding along (each
/// [`ProgramSummary`] carries its own queueing/time-in-system
/// percentiles). Produced by [`EngineReport::slo`].
#[derive(Clone, Debug, PartialEq)]
pub struct SloReport {
    /// The admission policy label
    /// ([`crate::sched::AdmissionPolicy::label`]).
    pub policy: String,
    /// Completed (non-rejected) queries backing the percentiles.
    pub completed: usize,
    /// p50/p95/p99 of arrival→completion over every completed query.
    pub time_in_system: Percentiles,
    /// p50/p95/p99 of arrival→admission over every completed query.
    pub queueing_delay: Percentiles,
    /// The same tails per program kind.
    pub per_program: Vec<ProgramSummary>,
}

/// Aggregated outcomes of all queries sharing one program kind.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProgramSummary {
    /// The program-kind label (see `VertexProgram::name`).
    pub program: &'static str,
    /// Queries of this kind that finished.
    pub queries: usize,
    /// Of those, how many the label index answered at admission.
    pub index_served: usize,
    /// Mean latency (virtual seconds).
    pub mean_latency_secs: f64,
    /// Mean per-query locality.
    pub mean_locality: f64,
    /// Summed vertex-function executions.
    pub vertex_updates: u64,
    /// Summed boundary-crossing messages (post-combine).
    pub remote_messages: u64,
    /// Summed boundary-crossing messages before sender-side combining.
    pub remote_messages_pre_combine: u64,
    /// Queueing-delay percentiles (arrival → admission).
    pub queueing_delay: Percentiles,
    /// Time-in-system percentiles (arrival → completion) — the
    /// end-to-end tail, where the index plane's win shows.
    pub time_in_system: Percentiles,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryId;
    use qgraph_sim::SimTime;

    fn outcome(sub: u64, done: u64, local: u32, iters: u32) -> QueryOutcome {
        QueryOutcome {
            id: QueryId(0),
            program: "test",
            status: crate::query::OutcomeStatus::Completed,
            served_by: crate::query::ServedBy::Traversal,
            queued_at: SimTime::from_secs(sub),
            submitted_at: SimTime::from_secs(sub),
            completed_at: SimTime::from_secs(done),
            iterations: iters,
            local_iterations: local,
            vertex_updates: 1,
            remote_messages: 3,
            remote_messages_pre_combine: 5,
            remote_batches: 2,
            scope_size: 1,
            tasks: 2,
            effective_dop: 1,
            first_epoch: 0,
            last_epoch: 0,
        }
    }

    #[test]
    fn rejected_outcomes_do_not_skew_means() {
        let mut rej = outcome(0, 0, 0, 0);
        rej.status = crate::query::OutcomeStatus::Rejected;
        let r = EngineReport {
            outcomes: vec![outcome(0, 2, 1, 2), rej],
            ..Default::default()
        };
        assert_eq!(r.rejected_queries(), 1);
        assert_eq!(r.completed().count(), 1);
        assert_eq!(r.mean_latency(), 2.0, "rejection carries no latency");
        assert_eq!(r.latency_series().len(), 1);
        assert_eq!(r.per_program().len(), 1);
    }

    #[test]
    fn aggregate_metrics() {
        let r = EngineReport {
            outcomes: vec![outcome(0, 2, 1, 2), outcome(1, 5, 4, 4)],
            ..Default::default()
        };
        assert_eq!(r.mean_latency(), 3.0);
        assert_eq!(r.total_latency(), 6.0);
        assert_eq!(r.mean_locality(), 0.75);
        assert_eq!(r.total_remote_messages(), 6);
        assert_eq!(r.total_remote_messages_pre_combine(), 10);
        assert_eq!(r.total_remote_batches(), 4);
        assert!((r.combine_reduction() - 0.4).abs() < 1e-12);
        assert_eq!(r.latency_series().len(), 2);
        assert_eq!(r.locality_series().len(), 2);
    }

    #[test]
    fn imbalance_series_buckets() {
        let r = EngineReport {
            activity: vec![
                ActivitySample {
                    t: 0.1,
                    worker: 0,
                    executed: 10,
                },
                ActivitySample {
                    t: 0.2,
                    worker: 1,
                    executed: 10,
                },
                ActivitySample {
                    t: 1.5,
                    worker: 0,
                    executed: 20,
                },
            ],
            ..Default::default()
        };
        let s = r.imbalance_series(2, 1.0);
        assert_eq!(s.len(), 2);
        // First window balanced, second fully skewed (max/mean - 1 = 1.0).
        assert_eq!(s.samples()[0].value, 0.0);
        assert_eq!(s.samples()[1].value, 1.0);
    }

    #[test]
    fn empty_report_is_sane() {
        let r = EngineReport::default();
        assert!(r.mean_latency().is_nan());
        assert_eq!(r.total_latency(), 0.0);
        assert_eq!(r.combine_reduction(), 0.0, "empty report combines nothing");
        assert!(r.imbalance_series(2, 1.0).is_empty());
        assert!(r.per_program().is_empty());
        assert_eq!(r.program_table().num_rows(), 0);
    }

    #[test]
    fn run_windows_partition_the_cumulative_report() {
        let mut r = EngineReport {
            outcomes: vec![outcome(0, 2, 1, 2), outcome(1, 5, 4, 4)],
            ..Default::default()
        };
        r.close_run(0.0, 5.0, PoolCounters::default());
        r.outcomes.push(outcome(6, 8, 1, 1));
        r.close_run(5.0, 8.0, PoolCounters::default());
        assert_eq!(r.runs.len(), 2);
        assert_eq!(r.run_outcomes(0).len(), 2);
        assert_eq!(r.run_outcomes(1).len(), 1);
        assert_eq!(r.run_outcomes(1)[0].completed_at, SimTime::from_secs(8));
        assert!(r.run_outcomes(2).is_empty(), "unknown window is empty");
        assert!(r.run_repartitions(0).is_empty());
        assert_eq!(r.runs[1].index, 1);
        assert!(r.runs[0].finished_at_secs <= r.runs[1].started_at_secs);
    }

    #[test]
    fn run_windows_attribute_pool_deltas() {
        let counters = |tasks, steals, idle_waits| PoolCounters {
            threads: 4,
            tasks,
            steals,
            idle_waits,
        };
        let mut r = EngineReport {
            outcomes: vec![outcome(0, 2, 1, 2)],
            ..Default::default()
        };
        r.close_run(0.0, 5.0, counters(10, 2, 1));
        // Idle drain: pool kept spinning but nothing completed — the
        // skipped window's delta folds into the next closed one.
        r.close_run(5.0, 6.0, counters(12, 2, 3));
        r.outcomes.push(outcome(6, 8, 1, 1));
        r.close_run(6.0, 8.0, counters(25, 6, 4));
        assert_eq!(r.runs.len(), 2);
        assert_eq!(r.runs[0].pool, counters(10, 2, 1));
        assert_eq!(r.runs[1].pool, counters(15, 4, 3));
        assert_eq!(r.pool, counters(25, 6, 4), "cumulative follows the close");
        let summed: u64 = r.runs.iter().map(|w| w.pool.tasks).sum();
        assert_eq!(summed, r.pool.tasks, "window deltas partition the total");
    }

    #[test]
    fn queueing_aggregates() {
        let mut a = outcome(1, 3, 1, 1);
        a.queued_at = SimTime::ZERO; // 1 s queueing, 3 s in system
        let b = outcome(2, 4, 1, 1); // 0 s queueing, 2 s in system
        let r = EngineReport {
            outcomes: vec![a, b],
            ..Default::default()
        };
        assert_eq!(r.mean_queueing_delay(), 0.5);
        assert_eq!(r.mean_time_in_system(), 2.5);
    }

    #[test]
    fn slo_report_groups_tails_by_policy_and_program() {
        let mut a = outcome(0, 2, 1, 2); // 2 s in system
        a.program = "sssp";
        let mut b = outcome(1, 5, 4, 4); // 4 s in system
        b.program = "poi";
        let r = EngineReport {
            outcomes: vec![a, b],
            admission_policy: "fifo".to_string(),
            ..Default::default()
        };
        let slo = r.slo();
        assert_eq!(slo.policy, "fifo");
        assert_eq!(slo.completed, 2);
        assert_eq!(slo.time_in_system.p50, 2.0);
        assert_eq!(slo.time_in_system.p99, 4.0);
        assert!(slo.time_in_system.p50 <= slo.time_in_system.p95);
        assert!(slo.time_in_system.p95 <= slo.time_in_system.p99);
        assert_eq!(slo.per_program.len(), 2);
        assert_eq!(slo.per_program[0].program, "sssp");
        assert_eq!(slo.per_program[0].time_in_system.p99, 2.0);
        assert_eq!(slo.per_program[1].time_in_system.p99, 4.0);
    }

    #[test]
    fn pool_counters_default_to_zero() {
        let r = EngineReport::default();
        assert_eq!(r.pool, PoolCounters::default());
        assert_eq!(r.pool.tasks, 0);
        assert!(r.admission_policy.is_empty());
        assert_eq!(r.slo().completed, 0);
    }

    #[test]
    fn per_program_groups_mixed_workloads() {
        let mut sssp = outcome(0, 2, 1, 2);
        sssp.program = "sssp";
        let mut poi = outcome(1, 5, 4, 4);
        poi.program = "poi";
        let mut sssp2 = outcome(2, 4, 2, 2);
        sssp2.program = "sssp";
        let r = EngineReport {
            outcomes: vec![sssp, poi, sssp2],
            ..Default::default()
        };
        let summaries = r.per_program();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].program, "sssp");
        assert_eq!(summaries[0].queries, 2);
        assert_eq!(summaries[0].mean_latency_secs, 2.0);
        assert_eq!(summaries[0].remote_messages, 6);
        assert_eq!(summaries[1].program, "poi");
        assert_eq!(summaries[1].queries, 1);
        assert_eq!(r.program_table().num_rows(), 2);
    }
}
