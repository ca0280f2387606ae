//! Controller-side global knowledge (paper §3.1/3.4): the scope registry
//! with its tumbling monitoring window μ, the repartition trigger Φ, and
//! the construction of the high-level [`ScopeStats`] fed to Q-cut.

use std::collections::VecDeque;

use rustc_hash::FxHashSet;

use qgraph_graph::{AppliedMutation, EdgeChange, MutationBatch, VertexId};
use qgraph_partition::{Partitioning, WorkerId};
use qgraph_sim::SimTime;

use crate::config::QcutConfig;
use crate::qcut::{run_qcut, IlsResult, ScopeStats};
use crate::QueryId;

/// A finished query's retained scope (until the monitoring window expires).
#[derive(Clone, Debug)]
struct RetainedScope {
    query: QueryId,
    vertices: Vec<VertexId>,
    expires: SimTime,
}

/// The centralized controller state.
///
/// Holds only *high-level* query knowledge plus the registry of scope
/// vertex sets needed to resolve `move(LS(q,w), w, w')` requests — in the
/// paper that resolution happens on the workers; keeping the registry
/// beside the engine's single address space is equivalent and keeps the
/// controller/worker split observable in the cost model rather than the
/// data layout. It also owns the Q-cut check's state.
pub struct Controller {
    cfg: Option<QcutConfig>,
    finished: VecDeque<RetainedScope>,
    /// When the last repartition came due (a window was asked for, or
    /// its ILS found nothing to move): the wait to the next check counts
    /// from here.
    last_repartition: SimTime,
    /// The wait from `last_repartition` to the next check, from 0, paced
    /// by what plans and their windows cost ([`Controller::pace`]).
    wait: SimTime,
    /// The straggler watch: per-partition vertex updates over a rolling
    /// μ/8 sub-window of the executor's clock, and the imbalance of the
    /// last sub-window that completed with any work in it.
    activity: Vec<usize>,
    activity_since: SimTime,
    activity_imbalance: f64,
    /// [`Controller::build_scope_stats`]'s buffers, kept between triggers.
    scratch: StatsScratch,
}

/// The scope statistics' working buffers.
#[derive(Default)]
struct StatsScratch {
    /// CSR offsets of the vertex → scope-index inverted index.
    offsets: Vec<u32>,
    /// Where each vertex's run in `members` ends.
    ends: Vec<u32>,
    /// The inverted index's scope indices, ascending per vertex.
    members: Vec<u32>,
    /// Shared-vertex counts of the current scope `a` with each `b > a`.
    row: Vec<u32>,
    /// The `b`s with a nonzero count in `row`.
    touched: Vec<u32>,
}

impl Controller {
    /// A controller over `workers` partitions with the given Q-cut
    /// configuration (`None` = static). Its first check is due at once.
    pub fn new(cfg: Option<QcutConfig>, workers: usize) -> Self {
        Controller {
            cfg,
            finished: VecDeque::new(),
            last_repartition: SimTime::ZERO,
            wait: SimTime::ZERO,
            activity: vec![0; workers],
            activity_since: SimTime::ZERO,
            activity_imbalance: 0.0,
            scratch: StatsScratch::default(),
        }
    }

    /// The Q-cut configuration, if adaptive.
    pub fn qcut_config(&self) -> Option<&QcutConfig> {
        self.cfg.as_ref()
    }

    /// Record a finished query's global scope; it stays visible for the
    /// monitoring window μ.
    ///
    /// Eviction runs here *as well as* at trigger evaluation: the window
    /// is wall-clock in the thread runtime, so a burst of short queries
    /// followed by a quiet period must not keep arbitrarily stale scopes
    /// alive until the next query happens to finish.
    pub fn record_finished_scope(&mut self, query: QueryId, vertices: Vec<VertexId>, now: SimTime) {
        let Some((window_secs, cap)) = self
            .cfg
            .as_ref()
            .map(|c| (c.monitoring_window_secs, QcutConfig::MAX_QUERIES * 4))
        else {
            return;
        };
        self.expire(now);
        // Scope-retention expiry is plain scheduling math on the
        // controller's own monitoring window, not latency attribution.
        // qlint: allow(time-epoch-arith)
        let expires = now + SimTime::from_secs_f64(window_secs);
        self.finished.push_back(RetainedScope {
            query,
            vertices,
            expires,
        });
        // Bound memory: keep at most 4x the ILS input cap.
        while self.finished.len() > cap {
            self.finished.pop_front();
        }
    }

    /// Drop scopes whose window expired.
    pub fn expire(&mut self, now: SimTime) {
        while let Some(front) = self.finished.front() {
            if front.expires <= now {
                self.finished.pop_front();
            } else {
                break;
            }
        }
    }

    /// Number of retained finished scopes.
    pub fn retained(&self) -> usize {
        self.finished.len()
    }

    /// Mutation-plane staleness: drop every retained finished scope that
    /// touches a mutated vertex. Their sizes and overlaps were measured
    /// against the pre-mutation topology, so feeding them to the ILS
    /// would optimize for adjacency that no longer exists; untouched
    /// scopes stay (their statistics are still valid). Live queries are
    /// unaffected — their scopes are re-gathered at every barrier.
    pub fn invalidate_scopes(&mut self, mutated: &[VertexId]) {
        if mutated.is_empty() || self.finished.is_empty() {
            return;
        }
        let set: FxHashSet<VertexId> = mutated.iter().copied().collect();
        self.finished
            .retain(|r| !r.vertices.iter().any(|v| set.contains(v)));
    }

    /// When the next Q-cut check is due: the wait after the last
    /// repartition, or never (Q-cut off).
    pub fn next_check(&self) -> SimTime {
        match self.cfg {
            Some(_) => self.last_repartition + self.wait,
            None => SimTime::MAX,
        }
    }

    /// A plan came due at `now` (or a hit's ILS found nothing to move):
    /// the wait to the next check counts from here.
    pub fn plan_due(&mut self, now: SimTime) {
        self.last_repartition = now;
    }

    /// Pace the next check after a plan whose making, and window if it
    /// opened one, took `cost` (see [`crate::coord`]): the wait — doubled
    /// unless the window `raised` locality — floored at `cost` and capped
    /// at μ/8. It never shrinks, so plans that raise nothing number
    /// O(log₂(T / cost)) over `T`.
    pub(crate) fn pace(&mut self, cost: SimTime, raised: bool) {
        let Some(cfg) = &self.cfg else { return };
        let factor = if raised { 1 } else { 2 };
        self.wait = SimTime(self.wait.as_nanos().saturating_mul(factor))
            .max(cost)
            .min(cfg.sub_window());
    }

    /// `executed` vertex updates on `worker`, seen at `now`, for the
    /// straggler watch (Q-cut on): a sub-window of μ/8 that has elapsed
    /// closes — its imbalance stands if any work fell in it — and a new
    /// one opens.
    pub fn note_activity(&mut self, now: SimTime, worker: usize, executed: u64) {
        let Some(cfg) = &self.cfg else { return };
        if now.saturating_sub(self.activity_since) >= cfg.sub_window() {
            if self.activity.iter().any(|&a| a > 0) {
                self.activity_imbalance = qgraph_partition::imbalance(&self.activity);
            }
            self.activity.fill(0);
            self.activity_since = now;
        }
        self.activity[worker] += executed as usize;
    }

    /// A run boundary (the engine went idle): the straggler watch starts
    /// over, so a trigger early in the next burst never measures
    /// imbalance across the gap.
    pub fn restart_activity_watch(&mut self, now: SimTime) {
        self.activity.fill(0);
        self.activity_since = now;
        self.activity_imbalance = 0.0;
    }

    /// Should a repartition be triggered now? The one trigger predicate
    /// (paper §3.4): the wait since the last repartition elapsed on the
    /// executor's clock ([`Controller::next_check`]), and the mean of the
    /// active queries' `localities` below Φ — extended with the straggler
    /// watch, see [`QcutConfig::IMBALANCE_THRESHOLD`]. The wait is tested
    /// before `localities` is consumed: on threads this runs at every due
    /// check, a lane's `Tick` or a query's termination.
    pub fn should_trigger(&self, now: SimTime, localities: impl Iterator<Item = f64>) -> bool {
        let Some(cfg) = &self.cfg else { return false };
        if now < self.next_check() {
            return false;
        }
        let (mut sum, mut active) = (0.0f64, 0usize);
        for locality in localities {
            sum += locality;
            active += 1;
        }
        let mean_locality = sum / active as f64;
        active > 0
            && (mean_locality < cfg.locality_threshold
                || self.activity_imbalance > QcutConfig::IMBALANCE_THRESHOLD)
    }

    /// Run Q-cut over `stats` (Q-cut on): the plan, and the simulation's
    /// priced time to its due instant, [`QcutConfig::ils_budget_secs`].
    pub fn plan(&self, stats: &ScopeStats) -> (IlsResult, SimTime) {
        let cfg = self.cfg.as_ref().expect("a plan needs Q-cut on");
        let budget = SimTime::from_secs_f64(cfg.ils_budget_secs);
        (run_qcut(stats, cfg), budget)
    }

    /// The ILS input selection policy: live queries first, then retained
    /// finished scopes newest-first, empties skipped, capped at
    /// [`QcutConfig::MAX_QUERIES`]. Both the [`ScopeStats`] snapshot and the
    /// repartition locality measurement (what the runtimes measure
    /// `RepartitionEvent::locality_before/after` over) go through this one
    /// selection, so the reported locality covers exactly the scopes the
    /// ILS optimized.
    pub fn observed_scopes<'a>(
        &'a self,
        live: &'a [(QueryId, Vec<VertexId>)],
    ) -> Vec<(QueryId, &'a [VertexId])> {
        let max_queries = match self.cfg {
            Some(_) => QcutConfig::MAX_QUERIES,
            None => usize::MAX,
        };
        let mut selected: Vec<(QueryId, &[VertexId])> = Vec::new();
        for (q, vs) in live {
            if selected.len() >= max_queries {
                break;
            }
            if !vs.is_empty() {
                selected.push((*q, vs));
            }
        }
        for r in self.finished.iter().rev() {
            if selected.len() >= max_queries {
                break;
            }
            if !r.vertices.is_empty() {
                selected.push((r.query, &r.vertices));
            }
        }
        selected
    }

    /// Build the high-level [`ScopeStats`] snapshot for an ILS run from the
    /// live queries' scopes plus the retained finished scopes, capped at
    /// the configured maximum (most recent first; live queries preferred).
    ///
    /// Overlaps come from an inverted index, vertex → the ascending
    /// indices of the scopes holding it, in CSR form over the
    /// partitioning's vertices; each query `a` then counts its shared
    /// vertices with every `b > a` in one row. Every figure is an integer
    /// count. The index and the row are the controller's, reused across
    /// triggers.
    pub fn build_scope_stats(
        &mut self,
        live: &[(QueryId, Vec<VertexId>)],
        partitioning: &Partitioning,
    ) -> ScopeStats {
        let k = partitioning.num_workers();
        let mut scratch = std::mem::take(&mut self.scratch);
        let StatsScratch {
            offsets,
            ends,
            members,
            row,
            touched,
        } = &mut scratch;
        let selected = self.observed_scopes(live);
        let entries: usize = selected.iter().map(|(_, vs)| vs.len()).sum();
        assert!(entries <= u32::MAX as usize, "scope entries overflow u32");

        // Sizes per worker, vertices in some scope per worker, and the
        // inverted index's counts (`offsets[v]`: scopes holding `v`).
        let mut sizes = vec![vec![0.0f64; k]; selected.len()];
        let mut in_scope = vec![0.0f64; k];
        offsets.clear();
        offsets.resize(partitioning.num_vertices() + 1, 0);
        for (qi, (_, vs)) in selected.iter().enumerate() {
            for &v in vs.iter() {
                let w = partitioning.worker_of(v).index();
                sizes[qi][w] += 1.0;
                let count = &mut offsets[v.index()];
                if *count == 0 {
                    in_scope[w] += 1.0;
                }
                *count += 1;
            }
        }
        // Running sums make `offsets[v]` the end of `v`'s run (`ends`
        // keeps it). Filling from the last scope down walks each offset
        // back to its run's start and leaves every run ascending; when
        // scope `a` lands on `v`, the rest of `v`'s run is already the
        // scopes `b > a` that share `v`, so the same pass counts the
        // overlaps, one row per `a`.
        let mut end = 0u32;
        for o in offsets.iter_mut() {
            end += *o;
            *o = end;
        }
        ends.clear();
        ends.extend_from_slice(offsets);
        members.clear();
        members.resize(entries, 0);
        row.clear();
        row.resize(selected.len(), 0);
        // Each vertex lives on exactly one worker, so the per-worker and
        // global overlap agree.
        let mut overlaps: Vec<(usize, usize, f64)> = Vec::new();
        for (a, (_, vs)) in selected.iter().enumerate().rev() {
            for &v in vs.iter() {
                let slot = &mut offsets[v.index()];
                *slot -= 1;
                let start = *slot as usize;
                members[start] = a as u32;
                for &b in &members[start + 1..ends[v.index()] as usize] {
                    debug_assert_ne!(b as usize, a, "a scope holds each vertex once");
                    if row[b as usize] == 0 {
                        touched.push(b);
                    }
                    row[b as usize] += 1;
                }
            }
            // Descending here, ascending once the list is reversed.
            touched.sort_unstable_by(|x, y| y.cmp(x));
            for &b in touched.iter() {
                overlaps.push((a, b as usize, f64::from(row[b as usize])));
                row[b as usize] = 0;
            }
            touched.clear();
        }
        overlaps.reverse();

        let base_vertices: Vec<f64> = partitioning
            .sizes()
            .iter()
            .zip(&in_scope)
            .map(|(&total, &in_scope)| (total as f64 - in_scope).max(0.0))
            .collect();

        let stats = ScopeStats {
            num_workers: k,
            queries: selected.iter().map(|(q, _)| *q).collect(),
            sizes,
            overlaps,
            base_vertices,
        };
        self.scratch = scratch;
        stats
    }

    /// Resolve a finished query's retained scope (for move execution).
    pub fn finished_scope(&self, q: QueryId) -> Option<&[VertexId]> {
        self.finished
            .iter()
            .rev()
            .find(|r| r.query == q)
            .map(|r| r.vertices.as_slice())
    }
}

/// What one stop-the-world window's mutation phase did — the sizes the
/// simulation prices.
pub(crate) struct MutationApply {
    /// Total ops applied across the barrier's batches.
    pub ops: usize,
    /// Live edges rebuilt into a fresh CSR, when the compaction policy
    /// fired.
    pub compacted_edges: Option<usize>,
}

/// The mutation-epoch body of a stop-the-world window (see
/// [`crate::coord`]): apply each due batch atomically (one graph
/// epoch each, in order), extend the partitioning for created vertices,
/// drop stale retained scopes, repair the installed label index (when
/// one is installed — see [`crate::index_plane::PointIndex::repair`]),
/// record `MutationEvent`s, and evaluate the compaction policy once at
/// the end. The executors add what is theirs alone — the sim charges
/// virtual cost from the returned totals, the thread runtime installs
/// the new `Arc<Topology>` in its partitions.
pub(crate) fn apply_mutation_epochs(
    state: &mut crate::coord::EngineState,
    batches: &[MutationBatch],
    compact_fraction: f64,
    applied_at_secs: f64,
) -> MutationApply {
    let crate::coord::EngineState {
        topology,
        partitioning,
        controller,
        index,
        report,
    } = state;
    let mut ops = 0usize;
    for batch in batches {
        let applied = topology.apply(batch);
        place_new_vertices(partitioning, &applied);
        // Retained finished scopes touching mutated vertices carry
        // pre-mutation statistics: drop them before the next ILS.
        controller.invalidate_scopes(&applied.touched);
        // Per-batch index repair keeps `repaired_through` in lockstep
        // with the epoch: a query admitted right after this barrier sees
        // an index valid for the graph it will run against.
        if let Some(ix) = index.as_mut() {
            let summary = ix.repair(topology, &applied, applied.epoch);
            report
                .index_repairs
                .push(crate::index_plane::IndexRepairEvent {
                    applied_at: applied_at_secs,
                    epoch: applied.epoch,
                    summary,
                });
        }
        ops += applied.ops;
        report.mutations.push(crate::report::MutationEvent {
            applied_at: applied_at_secs,
            epoch: applied.epoch,
            ops: applied.ops,
            new_vertices: applied.new_vertices.len(),
            compacted: false,
            barrier_duration: 0.0, // stamped once the window's end is known
        });
    }
    // Compaction policy: once per barrier, after every batch applied.
    let mut compacted_edges = None;
    if !batches.is_empty()
        && !topology.is_compact()
        && topology.overlay_fraction() >= compact_fraction
    {
        compacted_edges = Some(topology.num_edges());
        *topology = topology.compacted();
        if let Some(ev) = report.mutations.last_mut() {
            ev.compacted = true;
        }
    }
    MutationApply {
        ops,
        compacted_edges,
    }
}

/// Place the vertices a mutation batch created: each goes to the worker
/// owning the plurality of its batch-adjacent neighbors (ties to the
/// lower worker id), or to the smallest partition when the batch attached
/// it to nothing already placed. A cheap locality heuristic — the next
/// ILS pass refines the placement with real scope statistics.
pub fn place_new_vertices(partitioning: &mut Partitioning, applied: &AppliedMutation) {
    if applied.new_vertices.is_empty() {
        return;
    }
    let mut sizes = partitioning.sizes();
    for &v in &applied.new_vertices {
        debug_assert_eq!(
            v.index(),
            partitioning.num_vertices(),
            "new vertices extend the assignment densely, in id order"
        );
        // Only an `AddEdge` can connect a vertex the batch created, so its
        // batch neighbors are the other ends of the `Inserted` records.
        let neighbors = applied.edge_changes.iter().filter_map(|c| match *c {
            EdgeChange::Inserted { from, to, .. } if from == v => Some(to),
            EdgeChange::Inserted { from, to, .. } if to == v => Some(from),
            _ => None,
        });
        let mut votes = vec![0usize; partitioning.num_workers()];
        let mut any = false;
        for n in neighbors {
            if n.index() < partitioning.num_vertices() {
                votes[partitioning.worker_of(n).index()] += 1;
                any = true;
            }
        }
        let w = if any {
            votes
                .iter()
                .enumerate()
                .max_by_key(|&(i, c)| (*c, std::cmp::Reverse(i)))
                .map(|(i, _)| i)
                .expect("at least one worker")
        } else {
            sizes
                .iter()
                .enumerate()
                .min_by_key(|&(i, c)| (*c, i))
                .map(|(i, _)| i)
                .expect("at least one worker")
        };
        partitioning.push(WorkerId(w as u32));
        sizes[w] += 1;
    }
}

/// The most windows that raise no locality a run of `run` seconds can
/// hold under [`Controller::pace`]: after each, the wait to the next check
/// doubles, from at least `first` up to `cap`, and the next plan takes at
/// least `plan` more. The two runtimes' thrash nets count against it.
#[cfg(test)]
pub(crate) fn most_flat_windows(run: f64, first: f64, plan: f64, cap: f64) -> usize {
    let (mut due, mut wait, mut most) = (plan, first, 1);
    while due + wait + plan <= run {
        due += wait + plan;
        wait = (2.0 * wait).min(cap);
        most += 1;
    }
    most
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two partitions, μ = 100 s, a 10 s wait between checks.
    fn ctl() -> Controller {
        let cfg = QcutConfig {
            monitoring_window_secs: 100.0,
            locality_threshold: 0.7,
            ..Default::default()
        };
        let mut c = Controller::new(Some(cfg), 2);
        c.pace(SimTime::from_secs(10), false);
        c
    }

    impl Controller {
        pub(crate) fn wait(&self) -> SimTime {
            self.wait
        }
    }

    fn part(assign: Vec<u32>, k: usize) -> Partitioning {
        Partitioning::new(assign.into_iter().map(WorkerId).collect(), k)
    }

    #[test]
    fn scopes_expire_after_window() {
        let mut c = ctl();
        c.record_finished_scope(QueryId(0), vec![VertexId(1)], SimTime::ZERO);
        assert_eq!(c.retained(), 1);
        c.expire(SimTime::from_secs(99));
        assert_eq!(c.retained(), 1);
        c.expire(SimTime::from_secs(101));
        assert_eq!(c.retained(), 0);
    }

    #[test]
    fn stale_scopes_evicted_on_insert_not_only_on_expire_calls() {
        let mut c = ctl(); // 100 s monitoring window
        c.record_finished_scope(QueryId(0), vec![VertexId(1)], SimTime::ZERO);
        c.record_finished_scope(QueryId(1), vec![VertexId(2)], SimTime::from_secs(1));
        assert_eq!(c.retained(), 2);
        // A long quiet gap, then one more finish: the burst's scopes are
        // long past their window and must not survive the insert.
        c.record_finished_scope(QueryId(2), vec![VertexId(3)], SimTime::from_secs(500));
        assert_eq!(c.retained(), 1);
        assert_eq!(c.finished_scope(QueryId(0)), None);
        assert_eq!(c.finished_scope(QueryId(2)), Some(&[VertexId(3)][..]));
    }

    /// `should_trigger` at `secs` over `active` queries of one locality.
    fn hit(c: &Controller, secs: u64, locality: f64, active: usize) -> bool {
        let localities = std::iter::repeat_n(locality, active);
        c.should_trigger(SimTime::from_secs(secs), localities)
    }

    /// A sub-window (μ/8 = 12.5 s) whose vertex updates per partition
    /// were `loads` closes at 13 s.
    fn watched(c: &mut Controller, loads: [u64; 2]) {
        c.restart_activity_watch(SimTime::ZERO);
        for (w, executed) in loads.into_iter().enumerate() {
            c.note_activity(SimTime::from_secs(1), w, executed);
        }
        c.note_activity(SimTime::from_secs(13), 0, 0);
    }

    #[test]
    fn trigger_respects_threshold_and_cooldown() {
        let c = ctl();
        assert!(hit(&c, 11, 0.5, 4));
        assert!(!hit(&c, 11, 0.9, 4), "locality fine, balance fine");
        assert!(!hit(&c, 5, 0.5, 4), "the wait");
        assert!(!hit(&c, 11, 0.5, 0), "no queries");
    }

    #[test]
    fn imbalance_also_triggers() {
        let mut c = ctl();
        watched(&mut c, [9, 1]); // imbalance 0.8
        assert!(
            hit(&c, 11, 0.95, 4),
            "high locality but heavy straggler skew must trigger"
        );
        watched(&mut c, [13, 7]); // 0.3
        assert!(!hit(&c, 11, 0.95, 4));
        // A sub-window without work keeps the last imbalance; a restart
        // clears it.
        watched(&mut c, [9, 1]);
        c.note_activity(SimTime::from_secs(26), 0, 0);
        assert!(hit(&c, 30, 0.95, 4));
        c.restart_activity_watch(SimTime::from_secs(30));
        assert!(!hit(&c, 30, 0.95, 4));
    }

    #[test]
    fn static_controller_never_triggers() {
        let mut c = Controller::new(None, 2);
        c.note_activity(SimTime::ZERO, 0, 9);
        c.note_activity(SimTime::from_secs(100), 0, 0);
        assert!(!hit(&c, 100, 0.0, 10));
        assert_eq!(c.next_check(), SimTime::MAX);
    }

    #[test]
    fn the_cooldown_counts_from_the_last_repartition_and_is_tested_first() {
        let mut c = ctl(); // a 10 s wait
        assert_eq!(c.next_check(), SimTime::from_secs(10));
        c.plan_due(SimTime::from_secs(100));
        assert_eq!(c.next_check(), SimTime::from_secs(110));
        watched(&mut c, [9, 1]);
        assert!(!hit(&c, 109, 0.5, 4));
        assert!(hit(&c, 110, 0.5, 4));
        c.restart_activity_watch(SimTime::ZERO);
        assert!(!hit(&c, 110, 0.9, 4), "elapsed, but nothing to fix");
        // Inside the wait no query's locality is even looked at.
        let mut looked = 0;
        let localities = [0.0, 0.0].into_iter().inspect(|_| looked += 1);
        assert!(!c.should_trigger(SimTime::from_secs(105), localities));
        assert_eq!(looked, 0);
    }

    #[test]
    fn the_wait_doubles_from_zero_floored_at_the_plan_time_capped_at_mu_8() {
        let ms = SimTime::from_millis;
        let cap = QcutConfig::default().sub_window();
        assert_eq!(cap, SimTime::from_secs(30), "μ/8 at the paper's μ");
        // A controller starts due: the first check may plan.
        let mut c = Controller::new(Some(QcutConfig::default()), 2);
        assert_eq!((c.wait(), c.next_check()), (SimTime::ZERO, SimTime::ZERO));
        let mut paced = |planned, raised| {
            c.pace(planned, raised);
            c.wait()
        };
        // The first plan's own run time is the first wait ...
        assert_eq!(paced(ms(3), false), ms(3));
        // ... which then doubles while plans stay cheaper ...
        assert_eq!(paced(ms(1), false), ms(6));
        assert_eq!(paced(ms(6), false), ms(12));
        // ... unless a plan took longer than twice the wait.
        assert_eq!(paced(ms(40), false), ms(40));
        // A window that raised locality keeps the wait, floored alike ...
        assert_eq!(paced(ms(1), true), ms(40));
        assert_eq!(paced(ms(50), true), ms(50));
        // ... and both stop at the sub-window.
        assert_eq!(paced(SimTime::from_secs(20), false), SimTime::from_secs(20));
        assert_eq!(paced(ms(1), false), cap);
        assert_eq!(paced(ms(1), false), cap);
        assert_eq!(paced(SimTime::from_secs(60), false), cap);
        assert_eq!(paced(SimTime::from_secs(60), true), cap);
        assert_eq!(paced(ms(1), true), cap);
    }

    #[test]
    fn scope_stats_sizes_and_overlaps() {
        let mut c = ctl();
        let p = part(vec![0, 0, 1, 1], 2);
        let live = vec![
            (QueryId(0), vec![VertexId(0), VertexId(1), VertexId(2)]),
            (QueryId(1), vec![VertexId(2), VertexId(3)]),
        ];
        let s = c.build_scope_stats(&live, &p);
        assert_eq!(s.validate(), Ok(()));
        assert_eq!(s.sizes[0], vec![2.0, 1.0]);
        assert_eq!(s.sizes[1], vec![0.0, 2.0]);
        assert_eq!(s.overlaps, vec![(0, 1, 1.0)]); // vertex 2 shared
                                                   // base: w0 has 2 vertices, both in scope 0 -> 0 base; w1 has 2, both in scopes.
        assert_eq!(s.base_vertices, vec![0.0, 0.0]);
    }

    #[test]
    fn scope_stats_includes_recent_finished() {
        let mut c = ctl();
        let p = part(vec![0, 1], 2);
        c.record_finished_scope(QueryId(5), vec![VertexId(0)], SimTime::ZERO);
        let s = c.build_scope_stats(&[], &p);
        assert_eq!(s.queries, vec![QueryId(5)]);
        assert_eq!(s.sizes[0], vec![1.0, 0.0]);
        assert_eq!(s.base_vertices, vec![0.0, 1.0]);
    }

    /// `n` live one-vertex scopes over two vertices.
    fn many_live(n: u32) -> Vec<(QueryId, Vec<VertexId>)> {
        (0..n)
            .map(|q| (QueryId(q), vec![VertexId(q % 2)]))
            .collect()
    }

    #[test]
    fn max_queries_cap_prefers_live() {
        let mut c = ctl();
        let p = part(vec![0, 1], 2);
        c.record_finished_scope(QueryId(900), vec![VertexId(0)], SimTime::ZERO);
        let cap = QcutConfig::MAX_QUERIES as u32;
        let s = c.build_scope_stats(&many_live(cap), &p);
        assert_eq!(s.queries, (0..cap).map(QueryId).collect::<Vec<_>>());
        let s = c.build_scope_stats(&many_live(cap - 1), &p);
        assert_eq!(s.queries.last(), Some(&QueryId(900)));
    }

    #[test]
    fn mutation_invalidates_touching_scopes_only() {
        let mut c = ctl();
        c.record_finished_scope(QueryId(0), vec![VertexId(1), VertexId(2)], SimTime::ZERO);
        c.record_finished_scope(QueryId(1), vec![VertexId(7)], SimTime::ZERO);
        c.invalidate_scopes(&[VertexId(2), VertexId(9)]);
        assert_eq!(c.retained(), 1, "only the touching scope is stale");
        assert!(c.finished_scope(QueryId(0)).is_none());
        assert!(c.finished_scope(QueryId(1)).is_some());
        c.invalidate_scopes(&[]);
        assert_eq!(c.retained(), 1, "empty footprint is a no-op");
    }

    #[test]
    fn new_vertices_placed_with_batch_neighbors() {
        use qgraph_graph::{MutationBatch, Topology};
        // Worker 0 owns {0,1}, worker 1 owns {2,3}.
        let mut p = part(vec![0, 0, 1, 1], 2);
        let mut b = qgraph_graph::GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        let mut t = Topology::new(b.build());
        let mut batch = MutationBatch::new();
        // Vertex 4: two neighbors on worker 1 -> placed there. Vertex 5:
        // no edges -> smallest partition.
        batch
            .add_vertex()
            .add_edge(4, 2, 1.0)
            .add_edge(3, 4, 1.0)
            .add_edge(4, 0, 1.0)
            .add_vertex();
        let applied = t.apply(&batch);
        place_new_vertices(&mut p, &applied);
        assert_eq!(p.num_vertices(), 6);
        assert_eq!(p.worker_of(VertexId(4)), WorkerId(1), "plurality wins");
        assert_eq!(p.worker_of(VertexId(5)), WorkerId(0), "smallest partition");
    }

    #[test]
    fn finished_scope_lookup() {
        let mut c = ctl();
        c.record_finished_scope(QueryId(3), vec![VertexId(7)], SimTime::ZERO);
        assert_eq!(c.finished_scope(QueryId(3)), Some(&[VertexId(7)][..]));
        assert_eq!(c.finished_scope(QueryId(4)), None);
    }

    /// The hash-map construction [`Controller::build_scope_stats`]
    /// replaces, kept as its reference: a map from vertex to its scopes'
    /// indices, a map from index pair to shared-vertex count.
    fn reference_stats(
        c: &Controller,
        live: &[(QueryId, Vec<VertexId>)],
        partitioning: &Partitioning,
    ) -> ScopeStats {
        use rustc_hash::FxHashMap;
        let k = partitioning.num_workers();
        let selected = c.observed_scopes(live);
        let mut sizes = vec![vec![0.0f64; k]; selected.len()];
        let mut vertex_queries: FxHashMap<VertexId, Vec<u32>> = FxHashMap::default();
        for (qi, (_, vs)) in selected.iter().enumerate() {
            for &v in vs.iter() {
                sizes[qi][partitioning.worker_of(v).index()] += 1.0;
                vertex_queries.entry(v).or_default().push(qi as u32);
            }
        }
        let mut overlap_map: FxHashMap<(u32, u32), f64> = FxHashMap::default();
        let mut scope_vertices_per_worker = vec![0.0f64; k];
        for (v, qs) in &vertex_queries {
            scope_vertices_per_worker[partitioning.worker_of(*v).index()] += 1.0;
            for i in 0..qs.len() {
                for j in (i + 1)..qs.len() {
                    let key = (qs[i].min(qs[j]), qs[i].max(qs[j]));
                    *overlap_map.entry(key).or_default() += 1.0;
                }
            }
        }
        let mut overlaps: Vec<(usize, usize, f64)> = overlap_map
            .into_iter()
            .map(|((a, b), o)| (a as usize, b as usize, o))
            .collect();
        overlaps.sort_unstable_by_key(|&(a, b, _)| (a, b));
        let base_vertices = partitioning
            .sizes()
            .iter()
            .zip(&scope_vertices_per_worker)
            .map(|(&total, &in_scope)| (total as f64 - in_scope).max(0.0))
            .collect();
        ScopeStats {
            num_workers: k,
            queries: selected.iter().map(|(q, _)| *q).collect(),
            sizes,
            overlaps,
            base_vertices,
        }
    }

    /// `build_scope_stats` equals the reference, field for field and bit
    /// for bit.
    fn assert_stats_match_reference(
        c: &mut Controller,
        live: &[(QueryId, Vec<VertexId>)],
        p: &Partitioning,
    ) -> ScopeStats {
        let want = reference_stats(c, live, p);
        let got = c.build_scope_stats(live, p);
        assert_eq!(got.validate(), Ok(()));
        assert_eq!(got.num_workers, want.num_workers);
        assert_eq!(got.queries, want.queries);
        let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
            rows.iter()
                .map(|r| r.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&got.sizes), bits(&want.sizes));
        let pairs = |o: &[(usize, usize, f64)]| -> Vec<(usize, usize, u64)> {
            o.iter().map(|&(a, b, x)| (a, b, x.to_bits())).collect()
        };
        assert_eq!(pairs(&got.overlaps), pairs(&want.overlaps));
        assert_eq!(
            bits(std::slice::from_ref(&got.base_vertices)),
            bits(&[want.base_vertices])
        );
        got
    }

    /// `len` distinct vertices of `0..n`, in random order.
    fn random_scope(rng: &mut rand::rngs::SmallRng, n: u32, len: usize) -> Vec<VertexId> {
        use rand::Rng;
        let mut picked = FxHashSet::default();
        let mut scope = Vec::with_capacity(len);
        while scope.len() < len.min(n as usize) {
            let v = rng.gen_range(0..n);
            if picked.insert(v) {
                scope.push(VertexId(v));
            }
        }
        scope
    }

    #[test]
    fn scope_stats_equal_the_hash_map_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(35);
        for trial in 0..40u32 {
            let mut c = ctl();
            let (n, k) = (rng.gen_range(1..300u32), rng.gen_range(1..9usize));
            let p = part((0..n).map(|_| rng.gen_range(0..k as u32)).collect(), k);
            let scopes = rng.gen_range(0..30usize);
            let live: Vec<_> = (0..scopes as u32)
                .map(|q| {
                    let len = match q % 4 {
                        0 => 0, // skipped by the selection
                        1 => rng.gen_range(1..4),
                        _ => rng.gen_range(1..(n as usize).max(2)),
                    };
                    (QueryId(q), random_scope(&mut rng, n, len))
                })
                .collect();
            // One trigger in three also sees finished scopes.
            let finished = if trial % 3 == 0 { 3 } else { 0 };
            for f in 0..finished {
                let len = rng.gen_range(1..(n as usize).max(2));
                let scope = random_scope(&mut rng, n, len);
                c.record_finished_scope(QueryId(1000 + f), scope, SimTime::ZERO);
            }
            // Twice: the second call runs on the first one's scratch.
            assert_stats_match_reference(&mut c, &live, &p);
            assert_stats_match_reference(&mut c, &live, &p);
        }
    }

    #[test]
    fn scope_stats_edge_cases_equal_the_reference() {
        let mut c = ctl();
        let p = part(vec![0, 1, 2, 0, 1, 2, 0], 3);
        let last = VertexId(6); // num_vertices - 1
        let shared: Vec<_> = (0..5u32)
            .map(|q| (QueryId(q), vec![VertexId(q), last]))
            .collect();
        let s = assert_stats_match_reference(&mut c, &shared, &p);
        assert_eq!(s.overlaps.len(), 10, "every pair shares the last vertex");
        assert!(s.overlaps.iter().all(|&(_, _, o)| o == 1.0));

        // Empty scopes are skipped; nothing at all is an empty snapshot.
        let empties = vec![(QueryId(0), vec![]), (QueryId(1), vec![last])];
        let s = assert_stats_match_reference(&mut c, &empties, &p);
        assert_eq!(s.queries, vec![QueryId(1)]);
        let s = assert_stats_match_reference(&mut c, &[], &p);
        assert!(s.queries.is_empty() && s.overlaps.is_empty());

        // Live plus finished scopes, under the `MAX_QUERIES` cap, and the
        // scratch reused on a bigger partitioning, then a smaller one.
        let mut capped = ctl();
        capped.record_finished_scope(QueryId(1007), vec![VertexId(1), last], SimTime::ZERO);
        capped.record_finished_scope(QueryId(1008), vec![last, VertexId(2)], SimTime::ZERO);
        let live: Vec<_> = (0..QcutConfig::MAX_QUERIES as u32 - 1)
            .map(|q| (QueryId(q), vec![VertexId(q % 6), last]))
            .collect();
        let s = assert_stats_match_reference(&mut capped, &live, &p);
        let selected = &s.queries[live.len() - 1..];
        assert_eq!(selected, [QueryId(live.len() as u32 - 1), QueryId(1008)]);
        let big = part((0..40).map(|v| v % 3).collect(), 3);
        let live = vec![
            (QueryId(0), vec![VertexId(39), VertexId(0)]),
            (QueryId(1), vec![VertexId(39)]),
        ];
        assert_stats_match_reference(&mut capped, &live, &big);
        assert_stats_match_reference(&mut capped, &shared[..2], &p);
    }
}
