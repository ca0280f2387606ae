//! The local search heuristic (paper Algorithm 2).
//!
//! Steepest descent over scope moves: enumerate every
//! `(cluster, from, to)` successor satisfying the balance constraint, take
//! the one with minimal cost, repeat until no successor improves. Returns
//! the reached local minimum's cost. Each step is one cached scan,
//! [`Solution::steepest_move`].

use super::Solution;

/// Run Algorithm 2 on `s` in place; returns the local-minimum cost.
pub fn local_search(s: &mut Solution) -> f64 {
    loop {
        match s.steepest_move() {
            Some((c, from, to, delta)) if delta < 0.0 => {
                s.apply_move(c, from, to);
                debug_assert!((s.cost() - s.recompute_cost()).abs() < 1e-6);
            }
            _ => return s.cost(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qcut::solution::tests::example;
    use crate::qcut::{QueryCluster, ScopeStats, Solution};
    use crate::QueryId;

    #[test]
    fn finds_zero_cost_when_reachable() {
        let (stats, clusters) = example();
        let mut s = Solution::initial(&stats, &clusters, 0.25);
        let cost = local_search(&mut s);
        assert_eq!(cost, 0.0, "q1's split scope should be gathered on w1");
    }

    #[test]
    fn never_increases_cost() {
        let (stats, clusters) = example();
        let mut s = Solution::initial(&stats, &clusters, 0.25);
        let before = s.cost();
        let after = local_search(&mut s);
        assert!(after <= before);
    }

    #[test]
    fn respects_balance_constraint() {
        // Two identical split queries: the cost-0 optimum needs a *swap*
        // (q0 gathered on w0, q1 on w1), but any single gathering move
        // would push one worker to 3/4 of the load — beyond δ. Pure local
        // search must therefore stop at the balanced cost-100 minimum;
        // escaping it is exactly the perturbation's job (see
        // `ils::tests`).
        let stats = ScopeStats {
            num_workers: 2,
            queries: vec![QueryId(0), QueryId(1)],
            sizes: vec![vec![50.0, 50.0], vec![50.0, 50.0]],
            overlaps: vec![],
            base_vertices: vec![0.0, 0.0],
        };
        let clusters: Vec<_> = (0..2).map(|q| QueryCluster { members: vec![q] }).collect();
        let mut s = Solution::initial(&stats, &clusters, 0.25);
        local_search(&mut s);
        assert!(s.imbalance() < 0.25 + 1e-9, "imbalance {}", s.imbalance());
        assert_eq!(s.cost(), 100.0, "local search alone cannot swap");

        // The full ILS (perturbation + local search) does reach cost 0.
        let r = crate::qcut::run_qcut(&stats, &crate::config::QcutConfig::default());
        assert_eq!(r.final_cost, 0.0, "ILS escapes the swap-shaped minimum");
    }

    #[test]
    fn idempotent_at_local_minimum() {
        let (stats, clusters) = example();
        let mut s = Solution::initial(&stats, &clusters, 0.25);
        let c1 = local_search(&mut s);
        let c2 = local_search(&mut s);
        assert_eq!(c1, c2);
    }
}
