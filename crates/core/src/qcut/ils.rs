//! The iterated local search driver (paper Algorithm 1).
//!
//! ```text
//! ŝ ← InitialSolution()
//! while not Terminated():
//!     s ← Perturbation(ŝ)
//!     s ← LocalSearch(s)
//!     if c_s < c_ŝ: ŝ ← s
//! ```
//!
//! Termination is externally bounded (paper App. A.3): the controller
//! interrupts when it needs the result; here the bound is a deterministic
//! round budget so experiments replay exactly. The cost trace with
//! perturbation markers regenerates the paper's Figure 6g.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::{cluster_queries, local_search, perturb, MovePlan, ScopeStats, Solution};
use crate::config::QcutConfig;

/// One point of the ILS cost trace (for Figure 6g).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IlsTracePoint {
    /// Outer-loop round index.
    pub round: usize,
    /// Best cost after this round's local search.
    pub best_cost: f64,
    /// Whether this round started from a perturbation (round 0 does not).
    pub perturbed: bool,
}

/// The outcome of one Q-cut run.
#[derive(Clone, Debug)]
pub struct IlsResult {
    /// The move plan realizing the best found solution.
    pub plan: MovePlan,
    /// Cost of the initial solution (the current partitioning).
    pub initial_cost: f64,
    /// Cost of the best found solution.
    pub final_cost: f64,
    /// Cost trace across rounds, with perturbation markers.
    pub trace: Vec<IlsTracePoint>,
    /// Number of query clusters the search operated on.
    pub num_clusters: usize,
}

impl IlsResult {
    /// Relative cost reduction achieved, in `[0, 1]`.
    pub fn improvement(&self) -> f64 {
        if self.initial_cost <= 0.0 {
            0.0
        } else {
            1.0 - self.final_cost / self.initial_cost
        }
    }
}

/// Lexicographic solution ordering keeping the search inside the paper's
/// *balanced* solution space: a δ-feasible solution always beats an
/// infeasible one; among feasible solutions cost decides; among infeasible
/// ones (possible only when the *initial* partitioning, e.g. Domain,
/// violates δ) imbalance decides first, then cost. This is what makes
/// Q-cut restore balance (Figure 6e) as well as locality.
fn prefer(a: &Solution, b: &Solution) -> bool {
    match (a.is_balanced(), b.is_balanced()) {
        (true, true) => a.cost() < b.cost(),
        (true, false) => true,
        (false, true) => false,
        (false, false) => {
            a.imbalance() < b.imbalance() - 1e-12
                || (a.imbalance() <= b.imbalance() + 1e-12 && a.cost() < b.cost())
        }
    }
}

/// Run Q-cut on the given scope statistics.
pub fn run_qcut(stats: &ScopeStats, cfg: &QcutConfig) -> IlsResult {
    run_with(stats, cfg, QcutConfig::CLUSTER_FACTOR)
}

/// [`run_qcut`] over at most `factor · k` query clusters.
pub(crate) fn run_with(stats: &ScopeStats, cfg: &QcutConfig, factor: usize) -> IlsResult {
    debug_assert_eq!(stats.validate(), Ok(()));
    let mut rng = SmallRng::seed_from_u64(QcutConfig::SEED);
    let max_clusters = factor * stats.num_workers;
    let clusters = cluster_queries(stats, max_clusters, &mut rng);

    let mut best = Solution::initial(stats, &clusters, QcutConfig::DELTA);
    let initial_cost = best.cost();
    let mut trace = Vec::with_capacity(cfg.ils_max_rounds + 1);

    // Round 0: pure local search from the current partitioning.
    let c0 = local_search(&mut best);
    trace.push(IlsTracePoint {
        round: 0,
        best_cost: c0,
        perturbed: false,
    });

    for round in 1..=cfg.ils_max_rounds {
        if best.cost() <= 0.0 && best.is_balanced() {
            break; // perfect locality reached within the balanced space
        }
        let mut s = best.clone();
        perturb(&mut s, &mut rng);
        local_search(&mut s);
        if prefer(&s, &best) {
            best = s;
        }
        trace.push(IlsTracePoint {
            round,
            best_cost: best.cost(),
            perturbed: true,
        });
    }

    IlsResult {
        plan: best.plan(stats, &clusters),
        initial_cost,
        final_cost: best.cost(),
        trace,
        num_clusters: clusters.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryId;
    use rand::Rng;

    /// A hash-like mess: every query's scope is split evenly over all
    /// workers — the situation Q-cut exists to fix.
    fn hash_like(num_queries: usize, k: usize, scope: f64) -> ScopeStats {
        ScopeStats {
            num_workers: k,
            queries: (0..num_queries as u32).map(QueryId).collect(),
            sizes: vec![vec![scope / k as f64; k]; num_queries],
            overlaps: vec![],
            base_vertices: vec![1000.0; k],
        }
    }

    #[test]
    fn reduces_cost_on_hash_like_input() {
        let stats = hash_like(32, 4, 100.0);
        let r = run_qcut(&stats, &QcutConfig::default());
        assert!(r.initial_cost > 0.0);
        assert!(
            r.improvement() > 0.75,
            "paper Fig 6g: ILS cuts cost by >75%; got {:.2} ({} -> {})",
            r.improvement(),
            r.initial_cost,
            r.final_cost
        );
        assert!(!r.plan.is_empty());
    }

    #[test]
    fn trace_is_monotonically_non_increasing() {
        let stats = hash_like(32, 4, 100.0);
        let r = run_qcut(&stats, &QcutConfig::default());
        for w in r.trace.windows(2) {
            assert!(
                w[1].best_cost <= w[0].best_cost,
                "best-so-far must not regress"
            );
        }
        assert!(!r.trace[0].perturbed);
        if r.trace.len() > 1 {
            assert!(r.trace[1].perturbed);
        }
    }

    #[test]
    fn perfect_input_needs_no_moves() {
        // Every query already fully local.
        let stats = ScopeStats {
            num_workers: 2,
            queries: vec![QueryId(0), QueryId(1)],
            sizes: vec![vec![10.0, 0.0], vec![0.0, 10.0]],
            overlaps: vec![],
            base_vertices: vec![10.0, 10.0],
        };
        let r = run_qcut(&stats, &QcutConfig::default());
        assert_eq!(r.initial_cost, 0.0);
        assert_eq!(r.final_cost, 0.0);
        assert!(r.plan.is_empty());
    }

    #[test]
    fn deterministic_for_seed() {
        let stats = hash_like(24, 4, 64.0);
        let a = run_qcut(&stats, &QcutConfig::default());
        let b = run_qcut(&stats, &QcutConfig::default());
        assert_eq!(a.final_cost, b.final_cost);
        assert_eq!(a.plan, b.plan);
    }

    #[test]
    fn respects_round_budget() {
        let stats = hash_like(16, 4, 100.0);
        let cfg = QcutConfig {
            ils_max_rounds: 3,
            ..Default::default()
        };
        let r = run_qcut(&stats, &cfg);
        assert!(r.trace.len() <= 4);
    }

    #[test]
    fn solution_stays_balanced_on_random_inputs() {
        let mut rng = SmallRng::seed_from_u64(99);
        for trial in 0..10 {
            let k = 4;
            let nq = 20;
            let stats = ScopeStats {
                num_workers: k,
                queries: (0..nq as u32).map(QueryId).collect(),
                sizes: (0..nq)
                    .map(|_| (0..k).map(|_| rng.gen_range(0.0..50.0)).collect())
                    .collect(),
                overlaps: vec![],
                base_vertices: vec![200.0; k],
            };
            let clusters = cluster_queries(&stats, 16, &mut rng);
            let mut s = Solution::initial(&stats, &clusters, 0.25);
            let initial_imbalance = s.imbalance();
            local_search(&mut s);
            assert!(
                s.imbalance() <= initial_imbalance.max(0.25) + 1e-9,
                "trial {trial}: imbalance grew from {initial_imbalance} to {}",
                s.imbalance()
            );
        }
    }

    #[test]
    fn overlapping_queries_contract_when_over_bound() {
        // Six pairwise-chained queries with cluster bound 1·k = 2: the
        // contraction merges the strongest overlaps so whole hotspots move
        // as units, and the ILS still finds a zero-cost gathering.
        let stats = ScopeStats {
            num_workers: 2,
            queries: (0..6u32).map(QueryId).collect(),
            sizes: vec![vec![10.0, 10.0]; 6],
            overlaps: vec![(0, 1, 15.0), (1, 2, 15.0), (3, 4, 15.0), (4, 5, 15.0)],
            base_vertices: vec![1000.0, 1000.0],
        };
        let r = run_with(&stats, &QcutConfig::default(), 1);
        assert_eq!(r.num_clusters, 2, "contracted to the 1·k bound");
        assert_eq!(r.final_cost, 0.0);
        assert!(!r.plan.is_empty());
    }

    #[test]
    fn unsplittable_hot_cluster_stays_spread() {
        // One mega-cluster carrying nearly all the load cannot be gathered
        // without violating δ — the ILS must keep it spread (the paper:
        // "higher query locality would result in higher workload imbalance
        // which we do not allow").
        let stats = ScopeStats {
            num_workers: 4,
            queries: (0..8u32).map(QueryId).collect(),
            sizes: vec![vec![100.0; 4]; 8],
            overlaps: (0..8usize)
                .flat_map(|a| ((a + 1)..8).map(move |b| (a, b, 350.0)))
                .collect(),
            base_vertices: vec![50.0; 4],
        };
        // A factor of 0 forces full contraction to one cluster.
        let r = run_with(&stats, &QcutConfig::default(), 0);
        assert_eq!(r.num_clusters, 1);
        assert!(
            r.plan.is_empty(),
            "gathering the hot cluster would unbalance the system"
        );
    }

    /// The 128-query × 8-worker hash-like input of the benchmark's ILS
    /// probe: every scope split evenly, a chain of light overlaps.
    fn ils_probe_input() -> ScopeStats {
        let (queries, k) = (128usize, 8usize);
        ScopeStats {
            num_workers: k,
            queries: (0..queries as u32).map(QueryId).collect(),
            sizes: vec![vec![50.0 / k as f64; k]; queries],
            overlaps: (0..queries - 1).map(|i| (i, i + 1, 5.0)).collect(),
            base_vertices: vec![2000.0; k],
        }
    }

    /// A Domain-like input that violates δ from the start: most scopes
    /// (and most base vertices) sit on worker 0, with fractional sizes and
    /// overlaps so any change in summation order shows in the bits.
    fn domain_like_input() -> ScopeStats {
        let (queries, k) = (20usize, 4usize);
        let sizes = (0..queries)
            .map(|i| {
                let home = if i < 12 { 0 } else { i % k };
                (0..k)
                    .map(|w| {
                        if w == home {
                            (30 + (i * 17) % 20) as f64 * 1.1
                        } else {
                            ((i * 3 + w * 5) % 4) as f64 / 3.0
                        }
                    })
                    .collect()
            })
            .collect();
        let overlaps = (0..queries - 1)
            .filter(|i| i % 3 != 2)
            .map(|i| (i, i + 1, (2 + i % 5) as f64 * 0.7))
            .collect();
        ScopeStats {
            num_workers: k,
            queries: (0..queries as u32).map(QueryId).collect(),
            sizes,
            overlaps,
            base_vertices: vec![3000.0, 1000.0, 1000.0, 1000.0],
        }
    }

    /// A plan as `(query, from, to)` triples.
    fn triples(plan: &MovePlan) -> Vec<(u32, usize, usize)> {
        plan.moves
            .iter()
            .map(|m| (m.query.0, m.from, m.to))
            .collect()
    }

    /// The trace's best costs, as bits, expanded from `(bits, repeats)`.
    fn runs(runs: &[(u64, usize)]) -> Vec<u64> {
        runs.iter()
            .flat_map(|&(bits, n)| std::iter::repeat_n(bits, n))
            .collect()
    }

    /// `run_qcut`'s output pinned on the benchmark probe's input. A
    /// planner change that moves any bit here changes every Q-cut plan.
    #[test]
    fn golden_plan_on_the_ils_probe_input() {
        let r = run_qcut(&ils_probe_input(), &QcutConfig::default());
        assert_eq!(r.initial_cost.to_bits(), 0x40b5e00000000000);
        assert_eq!(r.final_cost.to_bits(), 0);
        assert_eq!(r.num_clusters, 32);
        let trace: Vec<_> = r
            .trace
            .iter()
            .map(|p| (p.best_cost.to_bits(), p.perturbed))
            .collect();
        assert_eq!(trace, vec![(0, false)]);
        let golden: Vec<(u32, usize, usize)> = include_str!("golden/ils_probe.plan")
            .lines()
            .map(|l| {
                let f: Vec<usize> = l.split(' ').map(|x| x.parse().expect("a number")).collect();
                (f[0] as u32, f[1], f[2])
            })
            .collect();
        assert_eq!(golden.len(), 896);
        assert_eq!(triples(&r.plan), golden);
    }

    /// `run_qcut`'s output pinned on a δ-violating Domain-like input: the
    /// search starts outside δ and runs all 60 perturbation rounds.
    #[test]
    fn golden_plan_on_a_domain_like_input() {
        let stats = domain_like_input();
        let r = run_qcut(&stats, &QcutConfig::default());
        assert_eq!(r.initial_cost.to_bits(), 0x4059c44444444444);
        assert_eq!(r.final_cost.to_bits(), 0x4016aaaaaaaaaaa0);
        assert_eq!(r.num_clusters, 16);
        let bits: Vec<u64> = r.trace.iter().map(|p| p.best_cost.to_bits()).collect();
        let golden = runs(&[
            (0x401ffffffffffff8, 2),
            (0x401eaaaaaaaaaaa0, 1),
            (0x401d555555555550, 1),
            (0x401bfffffffffff8, 2),
            (0x4017fffffffffff8, 4),
            (0x4016aaaaaaaaaaa0, 51),
        ]);
        assert_eq!(bits, golden);
        assert!(!r.trace[0].perturbed && r.trace[1..].iter().all(|p| p.perturbed));
        #[rustfmt::skip]
        let plan = vec![
            (0, 0, 3), (0, 1, 3), (0, 2, 3), (1, 0, 3), (2, 0, 1), (2, 3, 1), (3, 0, 2),
            (3, 1, 2), (4, 0, 3), (5, 0, 3), (4, 1, 3), (4, 2, 3), (5, 2, 3), (6, 0, 1),
            (6, 3, 1), (7, 0, 2), (7, 1, 2), (8, 0, 3), (9, 0, 1), (10, 0, 1), (11, 0, 2),
            (11, 1, 2), (12, 0, 3), (13, 0, 1), (14, 0, 1), (13, 2, 1), (14, 2, 1),
            (13, 3, 1), (14, 3, 1), (15, 0, 2), (15, 1, 2), (15, 3, 2), (16, 0, 3),
            (17, 0, 1), (18, 0, 2), (19, 0, 2), (18, 1, 2), (19, 1, 2), (18, 3, 2),
            (19, 3, 2),
        ];
        assert_eq!(triples(&r.plan), plan);
        let clusters = cluster_queries(&stats, 16, &mut SmallRng::seed_from_u64(QcutConfig::SEED));
        assert!(
            !Solution::initial(&stats, &clusters, QcutConfig::DELTA).is_balanced(),
            "the input starts outside δ"
        );
    }
}
