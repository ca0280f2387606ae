//! Q-cut solution states: the space `S` the ILS searches (paper §3.2.2).

use crate::QueryId;

use super::{QueryCluster, ScopeStats};

/// One scope-granularity move request, the unit of the paper's worker API
/// call `move(LS(q,w), w, w')`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScopeMove {
    /// Whose local scope moves.
    pub query: QueryId,
    /// Source worker.
    pub from: usize,
    /// Destination worker.
    pub to: usize,
}

/// The ordered list of scope moves that transforms the current partitioning
/// into the solution's partitioning.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MovePlan {
    /// The moves, in execution order.
    pub moves: Vec<ScopeMove>,
}

impl MovePlan {
    /// True when the plan changes nothing.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// A solution state: the assignment of cluster scopes to workers.
///
/// Two mass measures per `(cluster, worker)` cell, both from the
/// controller's high-level statistics:
///
/// * **query mass** `Σ_{q ∈ cluster} |LS(q,w)|` — the paper's per-query
///   scope sum. Drives the cost function (§3.2.2) and the query-load half
///   of the workload metric: a hotspot serving many queries weighs
///   proportionally to its query count.
/// * **vertex mass** — the estimated *union* of the member scopes (query
///   mass shrunk by intra-cluster overlap). These are the vertices that
///   physically move, and the `|V(w)|` half of the workload metric.
///
/// The workload of worker `w` is the paper's App. A.1 definition
/// `L_w = (|V(w)| + Σ_q |LS(q,w)|) / 2` with
/// `|V(w)| = base_w + Σ_c vmass[c][w]`.
#[derive(Clone, Debug)]
pub struct Solution {
    num_workers: usize,
    /// `qmass[c][w]`: cluster `c`'s per-query scope mass on worker `w`.
    qmass: Vec<Vec<f64>>,
    /// `vmass[c][w]`: cluster `c`'s estimated distinct-vertex mass on `w`.
    vmass: Vec<Vec<f64>>,
    /// `holder[c][w_orig]`: the worker now holding the scope mass that was
    /// originally on `w_orig` (tracked for plan extraction).
    holder: Vec<Vec<usize>>,
    /// Non-scope vertices per worker (immutable: they never move).
    base: Vec<f64>,
    /// Cached per-worker mass sums.
    qmass_sum: Vec<f64>,
    vmass_sum: Vec<f64>,
    /// Balance constraint δ (paper: 0.25).
    delta: f64,
    /// Cached total cost.
    cost: f64,
}

impl Solution {
    /// The initial solution: the partitioning as currently reported by the
    /// workers (paper App. A.3).
    pub fn initial(stats: &ScopeStats, clusters: &[QueryCluster], delta: f64) -> Solution {
        let k = stats.num_workers;
        // Intra-cluster overlap per cluster, added in `overlaps` order.
        let mut cluster_of = vec![usize::MAX; stats.queries.len()];
        for (c, cl) in clusters.iter().enumerate() {
            for &q in &cl.members {
                debug_assert_eq!(cluster_of[q], usize::MAX, "clusters are disjoint");
                cluster_of[q] = c;
            }
        }
        let mut overlap = vec![0.0f64; clusters.len()];
        for &(a, b, o) in &stats.overlaps {
            if cluster_of[a] == cluster_of[b] && cluster_of[a] != usize::MAX {
                overlap[cluster_of[a]] += o;
            }
        }
        let mut qmass = Vec::with_capacity(clusters.len());
        let mut vmass = Vec::with_capacity(clusters.len());
        for (cl, &overlap) in clusters.iter().zip(&overlap) {
            let mut per_w = vec![0.0f64; k];
            let mut sum_total = 0.0;
            let mut max_member = 0.0f64;
            for &q in &cl.members {
                let t = stats.global_size(q);
                sum_total += t;
                max_member = max_member.max(t);
                for (acc, s) in per_w.iter_mut().zip(&stats.sizes[q]) {
                    *acc += s;
                }
            }
            // Union estimate: member sum shrunk by intra-cluster overlap,
            // never below the largest member.
            let union = (sum_total - overlap).max(max_member).max(0.0);
            let shrink = if sum_total > 0.0 {
                union / sum_total
            } else {
                1.0
            };
            let v_per_w: Vec<f64> = per_w.iter().map(|&m| m * shrink).collect();
            qmass.push(per_w);
            vmass.push(v_per_w);
        }

        let holder = (0..clusters.len()).map(|_| (0..k).collect()).collect();
        let mut qmass_sum = vec![0.0; k];
        let mut vmass_sum = vec![0.0; k];
        for c in 0..qmass.len() {
            for w in 0..k {
                qmass_sum[w] += qmass[c][w];
                vmass_sum[w] += vmass[c][w];
            }
        }
        let mut s = Solution {
            num_workers: k,
            qmass,
            vmass,
            holder,
            base: stats.base_vertices.clone(),
            qmass_sum,
            vmass_sum,
            delta,
            cost: 0.0,
        };
        s.cost = s.recompute_cost();
        s
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.qmass.len()
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Cluster `c`'s per-query scope mass on worker `w`.
    pub fn scope_mass(&self, c: usize, w: usize) -> f64 {
        self.qmass[c][w]
    }

    /// The balance constraint δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The workload `L_w` (paper App. A.1).
    pub fn load(&self, w: usize) -> f64 {
        (self.base[w] + self.vmass_sum[w] + self.qmass_sum[w]) / 2.0
    }

    /// The cached total cost (paper §3.2.2): per cluster, the query mass
    /// not on the cluster's argmax worker.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Recompute the cost from scratch (used by debug assertions / tests).
    pub fn recompute_cost(&self) -> f64 {
        (0..self.qmass.len()).map(|c| self.cluster_cost(c)).sum()
    }

    fn cluster_cost(&self, c: usize) -> f64 {
        let total: f64 = self.qmass[c].iter().sum();
        let max = self.qmass[c].iter().cloned().fold(0.0, f64::max);
        total - max
    }

    /// Relative imbalance `(max_w L_w - min_w L_w) / max_w L_w`.
    pub fn imbalance(&self) -> f64 {
        let (mut max, mut min) = (0.0f64, f64::INFINITY);
        for w in 0..self.num_workers {
            let l = self.load(w);
            max = max.max(l);
            min = min.min(l);
        }
        if max <= 0.0 {
            0.0
        } else {
            (max - min) / max
        }
    }

    /// Whether the solution satisfies the balance constraint δ.
    pub fn is_balanced(&self) -> bool {
        self.imbalance() < self.delta
    }

    /// The steepest allowed move: the `(c, from, to, cost delta)` with the
    /// least delta over every allowed `(c, from, to)`, the first one in
    /// `(c, from, to)` order on ties — exactly what looping over the test
    /// module's reference `move_allowed` and `move_cost_delta` returns, bit
    /// for bit, in one scan.
    ///
    /// Which moves are allowed (Algorithm 2 line 15): the paper requires
    /// the post-move balance between the two workers to satisfy δ. We
    /// check the *global* post-move imbalance (which subsumes the moved
    /// pair) and additionally accept moves that strictly reduce it, so the
    /// search can escape initial states that already violate δ (e.g.
    /// Domain partitionings) — the paper's premise that "all solution
    /// states have balanced workload" does not hold for its own Domain
    /// baseline. Accepted moves therefore never increase imbalance beyond
    /// `max(δ, current imbalance)`.
    ///
    /// The loads and the imbalance are read once per scan, each cluster's
    /// total and cost once per cluster. The max (min) over the workers
    /// other than `from` and `to` is the first of the three heaviest
    /// (lightest) workers that is neither: max and min are exact, so every
    /// compared value is the reference's.
    pub fn steepest_move(&self) -> Option<(usize, usize, usize, f64)> {
        let k = self.num_workers;
        let loads: Vec<f64> = (0..k).map(|w| self.load(w)).collect();
        let imbalance = self.imbalance();
        let heaviest = leaders(k, |a, b| loads[a] > loads[b]);
        let lightest = leaders(k, |a, b| loads[a] < loads[b]);
        let mut best: Option<(usize, usize, usize, f64)> = None;
        for (c, (q, v)) in self.qmass.iter().zip(&self.vmass).enumerate() {
            let total: f64 = q.iter().sum();
            let before = self.cluster_cost(c);
            let heaviest_mass = leaders(k, |a, b| q[a] > q[b]);
            for from in 0..k {
                if q[from] <= 0.0 {
                    continue;
                }
                let shift = (q[from] + v[from]) / 2.0;
                let lf = loads[from] - shift;
                for to in 0..k {
                    if to == from {
                        continue;
                    }
                    let lt = loads[to] + shift;
                    let mut post_max = lf.max(lt);
                    let mut post_min = lf.min(lt);
                    if let Some(w) = other(&heaviest, from, to) {
                        post_max = post_max.max(loads[w]);
                    }
                    if let Some(w) = other(&lightest, from, to) {
                        post_min = post_min.min(loads[w]);
                    }
                    let allowed = post_max <= 0.0 || {
                        let post_imb = (post_max - post_min) / post_max;
                        post_imb < self.delta || post_imb < imbalance - 1e-12
                    };
                    if !allowed {
                        continue;
                    }
                    let mut max_after = 0.0f64.max(q[to] + q[from]);
                    if let Some(w) = other(&heaviest_mass, from, to) {
                        max_after = max_after.max(q[w]);
                    }
                    let delta = (total - max_after) - before;
                    match best {
                        Some((_, _, _, d)) if d <= delta => {}
                        _ => best = Some((c, from, to, delta)),
                    }
                }
            }
        }
        best
    }

    /// Apply the move, updating masses, holders, and the cached cost.
    pub fn apply_move(&mut self, c: usize, from: usize, to: usize) {
        debug_assert!(from != to);
        let before = self.cluster_cost(c);
        let q = self.qmass[c][from];
        let v = self.vmass[c][from];
        self.qmass[c][from] = 0.0;
        self.qmass[c][to] += q;
        self.vmass[c][from] = 0.0;
        self.vmass[c][to] += v;
        self.qmass_sum[from] -= q;
        self.qmass_sum[to] += q;
        self.vmass_sum[from] -= v;
        self.vmass_sum[to] += v;
        for h in self.holder[c].iter_mut() {
            if *h == from {
                *h = to;
            }
        }
        self.cost += self.cluster_cost(c) - before;
    }

    /// The worker holding cluster `c`'s largest scope (ties → lowest id).
    pub fn argmax_worker(&self, c: usize) -> usize {
        let mut best = 0;
        for w in 1..self.num_workers {
            if self.qmass[c][w] > self.qmass[c][best] {
                best = w;
            }
        }
        best
    }

    /// Whether cluster `c` has scope mass on at least two workers.
    pub fn is_spread(&self, c: usize) -> bool {
        self.qmass[c].iter().filter(|&&m| m > 0.0).nth(1).is_some()
    }

    /// Workers on which cluster `c` currently has scope mass.
    pub fn spread(&self, c: usize) -> Vec<usize> {
        (0..self.num_workers)
            .filter(|&w| self.qmass[c][w] > 0.0)
            .collect()
    }

    /// Extract the scope-move plan realizing this solution, expanding
    /// clusters back into per-query moves against the *original* layout.
    pub fn plan(&self, stats: &ScopeStats, clusters: &[QueryCluster]) -> MovePlan {
        let mut moves = Vec::new();
        for (c, cl) in clusters.iter().enumerate() {
            for w_orig in 0..self.num_workers {
                let target = self.holder[c][w_orig];
                if target == w_orig {
                    continue;
                }
                for &q in &cl.members {
                    if stats.sizes[q][w_orig] > 0.0 {
                        moves.push(ScopeMove {
                            query: stats.queries[q],
                            from: w_orig,
                            to: target,
                        });
                    }
                }
            }
        }
        MovePlan { moves }
    }
}

/// The (up to) three first workers of `0..k` in the order `before`
/// defines; `usize::MAX` pads when `k < 3`. The first of them that is
/// neither `from` nor `to` leads every worker but those two.
fn leaders(k: usize, before: impl Fn(usize, usize) -> bool) -> [usize; 3] {
    let mut top = [usize::MAX; 3];
    for w in 0..k {
        let mut cand = w;
        for slot in top.iter_mut() {
            if *slot == usize::MAX {
                *slot = cand;
                break;
            }
            if before(cand, *slot) {
                std::mem::swap(slot, &mut cand);
            }
        }
    }
    top
}

/// The first of `leaders` that is neither `from` nor `to`.
fn other(leaders: &[usize; 3], from: usize, to: usize) -> Option<usize> {
    leaders
        .iter()
        .copied()
        .find(|&w| w != from && w != to && w != usize::MAX)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::SmallRng;

    /// The reference [`Solution::steepest_move`] is held to, one move at a
    /// time.
    impl Solution {
        /// Is moving cluster `c`'s scope from `from` to `to` allowed? See
        /// [`Solution::steepest_move`] for the rule.
        pub(crate) fn move_allowed(&self, c: usize, from: usize, to: usize) -> bool {
            if from == to || self.qmass[c][from] <= 0.0 {
                return false;
            }
            let shift = (self.qmass[c][from] + self.vmass[c][from]) / 2.0;
            let lf = self.load(from) - shift;
            let lt = self.load(to) + shift;
            let mut post_max = lf.max(lt);
            let mut post_min = lf.min(lt);
            for w in 0..self.num_workers {
                if w != from && w != to {
                    let l = self.load(w);
                    post_max = post_max.max(l);
                    post_min = post_min.min(l);
                }
            }
            if post_max <= 0.0 {
                return true;
            }
            let post_imb = (post_max - post_min) / post_max;
            post_imb < self.delta || post_imb < self.imbalance() - 1e-12
        }

        /// Cost change if cluster `c`'s scope on `from` moved to `to`
        /// (without applying it).
        pub(crate) fn move_cost_delta(&self, c: usize, from: usize, to: usize) -> f64 {
            let before = self.cluster_cost(c);
            let total: f64 = self.qmass[c].iter().sum();
            let mut max_after = 0.0f64;
            for w in 0..self.num_workers {
                let v = if w == from {
                    0.0
                } else if w == to {
                    self.qmass[c][to] + self.qmass[c][from]
                } else {
                    self.qmass[c][w]
                };
                max_after = max_after.max(v);
            }
            (total - max_after) - before
        }
    }

    /// 2 workers; q0 fully on w0 (13), q1 split 2/14, q2 fully on w1 (5).
    pub(crate) fn example() -> (ScopeStats, Vec<QueryCluster>) {
        let stats = ScopeStats {
            num_workers: 2,
            queries: vec![QueryId(0), QueryId(1), QueryId(2)],
            sizes: vec![vec![13.0, 0.0], vec![2.0, 14.0], vec![0.0, 5.0]],
            overlaps: vec![],
            base_vertices: vec![20.0, 10.0],
        };
        let clusters = (0..3).map(|q| QueryCluster { members: vec![q] }).collect();
        (stats, clusters)
    }

    #[test]
    fn initial_cost_counts_off_argmax_mass() {
        let (stats, clusters) = example();
        let s = Solution::initial(&stats, &clusters, 0.25);
        // q0: 0 off-max; q1: 2 off-max (max is 14 on w1); q2: 0.
        assert_eq!(s.cost(), 2.0);
        assert_eq!(s.recompute_cost(), 2.0);
    }

    #[test]
    fn loads_follow_paper_formula() {
        let (stats, clusters) = example();
        let s = Solution::initial(&stats, &clusters, 0.25);
        // Singleton clusters without overlap: vmass == qmass.
        // L_w0 = (20 + 15 + 15) / 2 = 25; L_w1 = (10 + 19 + 19) / 2 = 24.
        assert_eq!(s.load(0), 25.0);
        assert_eq!(s.load(1), 24.0);
    }

    #[test]
    fn apply_move_transfers_mass_and_updates_cost() {
        let (stats, clusters) = example();
        let mut s = Solution::initial(&stats, &clusters, 0.25);
        let delta = s.move_cost_delta(1, 0, 1);
        assert_eq!(delta, -2.0);
        s.apply_move(1, 0, 1);
        assert_eq!(s.cost(), 0.0);
        assert_eq!(s.recompute_cost(), 0.0);
        assert_eq!(s.scope_mass(1, 0), 0.0);
        assert_eq!(s.scope_mass(1, 1), 16.0);
    }

    #[test]
    fn move_allowed_respects_delta() {
        let (stats, clusters) = example();
        let s = Solution::initial(&stats, &clusters, 0.25);
        // Moving q0 (mass 13) from w0 to w1 concentrates almost everything
        // on w1 ⇒ imbalance far beyond δ and growing ⇒ rejected.
        assert!(!s.move_allowed(0, 0, 1));
        // Moving q1's small w0 part (mass 2) keeps loads near-equal.
        assert!(s.move_allowed(1, 0, 1));
        // No mass there ⇒ not a move.
        assert!(!s.move_allowed(2, 0, 1));
        assert!(!s.move_allowed(0, 1, 1));
    }

    #[test]
    fn imbalance_reducing_moves_allowed_even_above_delta() {
        let stats = ScopeStats {
            num_workers: 2,
            queries: vec![QueryId(0)],
            sizes: vec![vec![100.0, 0.0]],
            overlaps: vec![],
            base_vertices: vec![0.0, 0.0],
        };
        let clusters = vec![QueryCluster { members: vec![0] }];
        let s = Solution::initial(&stats, &clusters, 0.1);
        // loads 100 vs 0: moving everything just mirrors the imbalance —
        // no strict reduction, rejected.
        assert!(!s.move_allowed(0, 0, 1));
        let stats2 = ScopeStats {
            base_vertices: vec![150.0, 0.0],
            ..stats
        };
        let s2 = Solution::initial(&stats2, &clusters, 0.1);
        // loads 175 vs 0 (imbalance 1.0); post-move 75 vs 100 (0.25) — a
        // strict reduction, so allowed despite exceeding δ = 0.1.
        assert!(s2.move_allowed(0, 0, 1));
    }

    #[test]
    fn hot_cluster_query_mass_blocks_gathering() {
        // One cluster whose *query* mass (many overlapping queries) far
        // exceeds its vertex mass: the union is small, but the workload
        // metric must still see the query load and forbid concentrating it.
        let stats = ScopeStats {
            num_workers: 2,
            queries: vec![QueryId(0), QueryId(1), QueryId(2), QueryId(3)],
            // Four queries sharing one 50-vertex hotspot, split evenly.
            sizes: vec![vec![25.0, 25.0]; 4],
            overlaps: vec![
                (0, 1, 50.0),
                (0, 2, 50.0),
                (0, 3, 50.0),
                (1, 2, 50.0),
                (1, 3, 50.0),
                (2, 3, 50.0),
            ],
            base_vertices: vec![100.0, 100.0],
        };
        let clusters = vec![QueryCluster {
            members: vec![0, 1, 2, 3],
        }];
        let s = Solution::initial(&stats, &clusters, 0.25);
        // qmass per worker = 100, vmass (union 50) per worker = 25.
        assert_eq!(s.scope_mass(0, 0), 100.0);
        // L = (100 + 25 + 100)/2 = 112.5 each side.
        assert_eq!(s.load(0), 112.5);
        // Gathering doubles one side: (100+50+200)/2 = 175 vs (100)/2 = 50
        // ⇒ imbalance 0.71 ⇒ rejected.
        assert!(!s.move_allowed(0, 0, 1));
    }

    #[test]
    fn plan_expands_clusters_into_query_moves() {
        let (stats, clusters) = example();
        let mut s = Solution::initial(&stats, &clusters, 0.25);
        s.apply_move(1, 0, 1);
        let plan = s.plan(&stats, &clusters);
        assert_eq!(
            plan.moves,
            vec![ScopeMove {
                query: QueryId(1),
                from: 0,
                to: 1
            }]
        );
    }

    #[test]
    fn plan_empty_when_nothing_moved() {
        let (stats, clusters) = example();
        let s = Solution::initial(&stats, &clusters, 0.25);
        assert!(s.plan(&stats, &clusters).is_empty());
    }

    #[test]
    fn overlap_shrinks_vertex_mass_not_query_mass() {
        let stats = ScopeStats {
            num_workers: 2,
            queries: vec![QueryId(0), QueryId(1)],
            sizes: vec![vec![10.0, 0.0], vec![10.0, 0.0]],
            overlaps: vec![(0, 1, 5.0)],
            base_vertices: vec![0.0, 0.0],
        };
        let clusters = vec![QueryCluster {
            members: vec![0, 1],
        }];
        let s = Solution::initial(&stats, &clusters, 0.25);
        // qmass stays the per-query sum; vmass is the union estimate:
        // union = 20 - 5 = 15 ⇒ L_w0 = (0 + 15 + 20)/2 = 17.5.
        assert_eq!(s.scope_mass(0, 0), 20.0);
        assert!((s.load(0) - 17.5).abs() < 1e-9);
    }

    #[test]
    fn argmax_and_spread() {
        let (stats, clusters) = example();
        let s = Solution::initial(&stats, &clusters, 0.25);
        assert_eq!(s.argmax_worker(1), 1);
        assert_eq!(s.spread(1), vec![0, 1]);
        assert_eq!(s.spread(0), vec![0]);
    }

    #[test]
    fn is_balanced_reflects_delta() {
        let (stats, clusters) = example();
        let s = Solution::initial(&stats, &clusters, 0.25);
        assert!(s.is_balanced()); // loads 25 vs 24
    }

    /// The reference scan [`Solution::steepest_move`] replaces: every
    /// `(c, from, to)` through `move_allowed` and `move_cost_delta`, the
    /// first minimum kept.
    fn reference_move(s: &Solution) -> Option<(usize, usize, usize, f64)> {
        let mut best: Option<(usize, usize, usize, f64)> = None;
        for c in 0..s.num_clusters() {
            for from in 0..s.num_workers() {
                if s.scope_mass(c, from) <= 0.0 {
                    continue;
                }
                for to in 0..s.num_workers() {
                    if !s.move_allowed(c, from, to) {
                        continue;
                    }
                    let delta = s.move_cost_delta(c, from, to);
                    match best {
                        Some((_, _, _, d)) if d <= delta => {}
                        _ => best = Some((c, from, to, delta)),
                    }
                }
            }
        }
        best
    }

    /// Both scans agree bit for bit on `s`.
    fn assert_scans_agree(s: &Solution, what: &str) {
        let bits =
            |m: Option<(usize, usize, usize, f64)>| m.map(|(c, f, t, d)| (c, f, t, d.to_bits()));
        assert_eq!(bits(s.steepest_move()), bits(reference_move(s)), "{what}");
    }

    /// Random statistics: `k` workers, fractional sizes, or small integer
    /// ones (`ties`) that make equal deltas common; `skew` piles scopes
    /// and base vertices on worker 0, as a Domain layout does.
    pub(crate) fn random_stats(rng: &mut SmallRng, k: usize, ties: bool, skew: bool) -> ScopeStats {
        use rand::Rng;
        let n = rng.gen_range(2..40usize);
        let sizes = (0..n)
            .map(|_| {
                (0..k)
                    .map(|w| {
                        if rng.gen_bool(0.3) {
                            0.0
                        } else if ties {
                            f64::from(rng.gen_range(1..4u32))
                        } else {
                            let scale = if skew && w == 0 { 8.0 } else { 1.0 };
                            rng.gen_range(0.0..40.0) * scale
                        }
                    })
                    .collect()
            })
            .collect();
        let mut overlaps = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if rng.gen_bool(0.05) {
                    let o = if ties { 1.0 } else { rng.gen_range(0.0..10.0) };
                    overlaps.push((a, b, o));
                }
            }
        }
        let base_vertices = (0..k)
            .map(|w| {
                if skew && w == 0 {
                    2000.0
                } else {
                    rng.gen_range(0.0..300.0)
                }
            })
            .collect();
        ScopeStats {
            num_workers: k,
            queries: (0..n as u32).map(QueryId).collect(),
            sizes,
            overlaps,
            base_vertices,
        }
    }

    #[test]
    fn steepest_move_equals_the_reference_scan() {
        use crate::qcut::{cluster_queries, perturb};
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(35);
        let mut imbalanced = 0;
        for trial in 0..300 {
            let k = [1, 2, 2, 3, 4, 5, 8][trial % 7];
            let (ties, skew) = (trial % 3 == 0, trial % 4 == 1);
            let stats = random_stats(&mut rng, k, ties, skew);
            let max_clusters = [2, 4, 4 * k][trial % 3];
            let clusters = cluster_queries(&stats, max_clusters, &mut rng);
            let delta = [0.1, 0.25, 0.5][trial % 3];
            let mut s = Solution::initial(&stats, &clusters, delta);
            imbalanced += usize::from(!s.is_balanced());
            for round in 0..4 {
                // Down one descent, checking every step, then perturb.
                loop {
                    assert_scans_agree(&s, &format!("trial {trial} round {round}"));
                    match s.steepest_move() {
                        Some((c, from, to, d)) if d < 0.0 => s.apply_move(c, from, to),
                        _ => break,
                    }
                }
                perturb(&mut s, &mut rng);
            }
        }
        assert!(imbalanced > 50, "the trials cover δ-violating states");
    }

    #[test]
    fn steepest_move_keeps_the_first_of_tied_moves() {
        // Four identical split clusters on two workers: every gathering
        // move ties, and the reference keeps the first.
        let stats = ScopeStats {
            num_workers: 2,
            queries: (0..4).map(QueryId).collect(),
            sizes: vec![vec![3.0, 3.0]; 4],
            overlaps: vec![],
            base_vertices: vec![100.0, 100.0],
        };
        let clusters: Vec<_> = (0..4).map(|q| QueryCluster { members: vec![q] }).collect();
        let s = Solution::initial(&stats, &clusters, 0.25);
        assert_eq!(s.steepest_move(), Some((0, 0, 1, -3.0)));
        assert_scans_agree(&s, "ties");
    }

    #[test]
    fn intra_cluster_overlap_is_summed_in_list_order() {
        // The reference sum: per cluster, every overlap with both ends in
        // it, in `overlaps` order.
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..50 {
            let stats = random_stats(&mut rng, 3, false, false);
            let clusters = crate::qcut::cluster_queries(&stats, 3, &mut rng);
            let s = Solution::initial(&stats, &clusters, 0.25);
            for (c, cl) in clusters.iter().enumerate() {
                let overlap: f64 = stats
                    .overlaps
                    .iter()
                    .filter(|&&(a, b, _)| cl.members.contains(&a) && cl.members.contains(&b))
                    .map(|&(_, _, o)| o)
                    .sum();
                let total: f64 = cl.members.iter().map(|&q| stats.global_size(q)).sum();
                let max_member = cl
                    .members
                    .iter()
                    .map(|&q| stats.global_size(q))
                    .fold(0.0, f64::max);
                let union = (total - overlap).max(max_member).max(0.0);
                let shrink = if total > 0.0 { union / total } else { 1.0 };
                for w in 0..3 {
                    assert_eq!(s.vmass[c][w].to_bits(), (s.qmass[c][w] * shrink).to_bits());
                }
            }
        }
    }
}
