//! Controller-side global knowledge (paper §3.1/3.4): the scope registry
//! with its tumbling monitoring window μ, the repartition trigger Φ, and
//! the construction of the high-level [`ScopeStats`] fed to Q-cut.

use std::collections::VecDeque;

use rustc_hash::{FxHashMap, FxHashSet};

use qgraph_graph::{AppliedMutation, MutationBatch, VertexId};
use qgraph_partition::{Partitioning, WorkerId};
use qgraph_sim::SimTime;

use crate::config::QcutConfig;
use crate::qcut::ScopeStats;
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
/// data layout.
pub struct Controller {
    cfg: Option<QcutConfig>,
    finished: VecDeque<RetainedScope>,
    /// When the last repartition came due (a window was asked for, or
    /// its ILS found nothing to move): the cooldown counts from here.
    pub last_repartition: SimTime,
    /// An ILS run is in flight (its virtual budget has not elapsed).
    pub ils_inflight: bool,
}

impl Controller {
    /// A controller with the given Q-cut configuration (`None` = static).
    pub fn new(cfg: Option<QcutConfig>) -> Self {
        Controller {
            cfg,
            finished: VecDeque::new(),
            last_repartition: SimTime::ZERO,
            ils_inflight: false,
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
            .map(|c| (c.monitoring_window_secs, c.max_queries * 4))
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

    /// Should a repartition be triggered now? The one trigger predicate
    /// (paper §3.4): no ILS in flight, the cooldown since the last
    /// repartition elapsed on the executor's clock, and the mean of the
    /// active queries' `localities` below Φ — extended with the activity
    /// imbalance watch, see [`QcutConfig::imbalance_threshold`]. The
    /// cooldown is tested before `localities` is consumed: on threads
    /// this runs at every superstep end.
    pub fn should_trigger(
        &self,
        now: SimTime,
        activity_imbalance: f64,
        localities: impl Iterator<Item = f64>,
    ) -> bool {
        let Some(cfg) = &self.cfg else { return false };
        let cooldown = SimTime::from_secs_f64(cfg.min_repartition_interval_secs);
        if self.ils_inflight || now < self.last_repartition + cooldown {
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
                || activity_imbalance > cfg.imbalance_threshold)
    }

    /// The ILS input selection policy: live queries first, then retained
    /// finished scopes newest-first, empties skipped, capped at the
    /// configured `max_queries`. Both the [`ScopeStats`] snapshot and the
    /// repartition locality measurement go through this one selection, so
    /// the reported `locality_before/after` covers exactly the scopes the
    /// ILS optimized.
    fn select_scopes<'a>(
        &'a self,
        live: &'a [(QueryId, Vec<VertexId>)],
    ) -> Vec<(QueryId, &'a [VertexId])> {
        let max_queries = self
            .cfg
            .as_ref()
            .map(|c| c.max_queries)
            .unwrap_or(usize::MAX);
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

    /// The scope population a repartition observes (owned form of
    /// [`Controller::select_scopes`]) — what the runtimes measure
    /// `RepartitionEvent::locality_before/after` over.
    pub fn observed_scopes(
        &self,
        live: &[(QueryId, Vec<VertexId>)],
    ) -> Vec<(QueryId, Vec<VertexId>)> {
        self.select_scopes(live)
            .into_iter()
            .map(|(q, vs)| (q, vs.to_vec()))
            .collect()
    }

    /// Build the high-level [`ScopeStats`] snapshot for an ILS run from the
    /// live queries' scopes plus the retained finished scopes, capped at
    /// the configured maximum (most recent first; live queries preferred).
    pub fn build_scope_stats(
        &self,
        live: &[(QueryId, Vec<VertexId>)],
        partitioning: &Partitioning,
    ) -> ScopeStats {
        let k = partitioning.num_workers();
        let selected = self.select_scopes(live);

        // Sizes per worker + inverted index for overlaps.
        let mut sizes = vec![vec![0.0f64; k]; selected.len()];
        let mut vertex_queries: FxHashMap<VertexId, Vec<u32>> = FxHashMap::default();
        for (qi, (_, vs)) in selected.iter().enumerate() {
            for &v in vs.iter() {
                sizes[qi][partitioning.worker_of(v).index()] += 1.0;
                vertex_queries.entry(v).or_default().push(qi as u32);
            }
        }

        // Pairwise overlaps via the inverted index (each vertex lives on
        // exactly one worker, so the per-worker and global overlap agree).
        let mut overlap_map: FxHashMap<(u32, u32), f64> = FxHashMap::default();
        let mut scope_vertices_per_worker = vec![0.0f64; k];
        for (v, qs) in &vertex_queries {
            scope_vertices_per_worker[partitioning.worker_of(*v).index()] += 1.0;
            if qs.len() >= 2 {
                for i in 0..qs.len() {
                    for j in (i + 1)..qs.len() {
                        let key = (qs[i].min(qs[j]), qs[i].max(qs[j]));
                        *overlap_map.entry(key).or_default() += 1.0;
                    }
                }
            }
        }
        let mut overlaps: Vec<(usize, usize, f64)> = overlap_map
            .into_iter()
            .map(|((a, b), o)| (a as usize, b as usize, o))
            .collect();
        overlaps.sort_unstable_by_key(|&(a, b, _)| (a, b));

        let base_vertices: Vec<f64> = partitioning
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
    for (v, neighbors) in &applied.new_vertex_neighbors {
        debug_assert_eq!(
            v.index(),
            partitioning.num_vertices(),
            "new vertices extend the assignment densely, in id order"
        );
        let mut votes = vec![0usize; partitioning.num_workers()];
        let mut any = false;
        for n in neighbors {
            if n.index() < partitioning.num_vertices() {
                votes[partitioning.worker_of(*n).index()] += 1;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> Controller {
        Controller::new(Some(QcutConfig {
            monitoring_window_secs: 100.0,
            min_repartition_interval_secs: 10.0,
            locality_threshold: 0.7,
            imbalance_threshold: 0.5,
            ..Default::default()
        }))
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
    fn hit(c: &Controller, secs: u64, locality: f64, imbalance: f64, active: usize) -> bool {
        let localities = std::iter::repeat_n(locality, active);
        c.should_trigger(SimTime::from_secs(secs), imbalance, localities)
    }

    #[test]
    fn trigger_respects_threshold_and_cooldown() {
        let mut c = ctl();
        assert!(hit(&c, 11, 0.5, 0.0, 4));
        assert!(!hit(&c, 11, 0.9, 0.0, 4), "locality fine, balance fine");
        assert!(!hit(&c, 5, 0.5, 0.0, 4), "cooldown");
        assert!(!hit(&c, 11, 0.5, 0.0, 0), "no queries");
        c.ils_inflight = true;
        assert!(!hit(&c, 11, 0.5, 0.0, 4), "in flight");
    }

    #[test]
    fn imbalance_also_triggers() {
        let c = ctl();
        assert!(
            hit(&c, 11, 0.95, 0.8, 4),
            "high locality but heavy straggler skew must trigger"
        );
        assert!(!hit(&c, 11, 0.95, 0.3, 4));
    }

    #[test]
    fn static_controller_never_triggers() {
        assert!(!hit(&Controller::new(None), 100, 0.0, 1.0, 10));
    }

    #[test]
    fn the_cooldown_counts_from_the_last_repartition_and_is_tested_first() {
        let mut c = ctl(); // 10 s cooldown
        c.last_repartition = SimTime::from_secs(100);
        assert!(!hit(&c, 109, 0.5, 0.8, 4));
        assert!(hit(&c, 110, 0.5, 0.0, 4));
        assert!(!hit(&c, 110, 0.9, 0.0, 4), "elapsed, but nothing to fix");
        // Inside the cooldown no query's locality is even looked at.
        let mut looked = 0;
        let localities = [0.0, 0.0].into_iter().inspect(|_| looked += 1);
        assert!(!c.should_trigger(SimTime::from_secs(105), 0.0, localities));
        assert_eq!(looked, 0);
    }

    #[test]
    fn scope_stats_sizes_and_overlaps() {
        let c = ctl();
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

    #[test]
    fn max_queries_cap_prefers_live() {
        let mut c = Controller::new(Some(QcutConfig {
            max_queries: 2,
            ..Default::default()
        }));
        let p = part(vec![0, 1], 2);
        c.record_finished_scope(QueryId(9), vec![VertexId(0)], SimTime::ZERO);
        let live = vec![
            (QueryId(0), vec![VertexId(0)]),
            (QueryId(1), vec![VertexId(1)]),
        ];
        let s = c.build_scope_stats(&live, &p);
        assert_eq!(s.queries, vec![QueryId(0), QueryId(1)]);
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
}
