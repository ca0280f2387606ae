//! The perturbation subroutine (paper App. A.2).
//!
//! To escape local minima, the ILS injects *informed disorder*:
//!
//! 1. pick a random cluster spread across ≥ 2 workers,
//! 2. gather all its scopes on the worker already holding its largest
//!    scope (ignoring the balance constraint),
//! 3. re-establish balance by moving random scopes from the most- to the
//!    least-loaded worker.

use rand::rngs::SmallRng;
use rand::Rng;

use super::Solution;

/// Perturb `s` in place. Returns `true` if anything changed (a spread
/// cluster existed or balance moves were possible).
pub fn perturb(s: &mut Solution, rng: &mut SmallRng) -> bool {
    // (i) candidates: clusters spread over at least two workers.
    let spread: Vec<usize> = (0..s.num_clusters()).filter(|&c| s.is_spread(c)).collect();
    let mut changed = false;
    if let Some(&c) = pick(&spread, rng) {
        // (ii) gather on the argmax worker.
        let target = s.argmax_worker(c);
        for from in s.spread(c) {
            if from != target {
                s.apply_move(c, from, target);
                changed = true;
            }
        }
    }

    // (iii) rebalance: move random scopes max→min worker. Only a move
    // changes the loads, so the extremes and the movable scopes are read
    // again after each move, not after each draw.
    let mut attempts = 0;
    let max_attempts = 4 * s.num_clusters().max(1);
    let mut movable = Vec::new();
    'rebalance: while s.imbalance() >= s.delta() && attempts < max_attempts {
        let (max_w, min_w) = extreme_workers(s);
        // Scopes available to move off the hottest worker.
        movable.clear();
        movable.extend((0..s.num_clusters()).filter(|&c| s.scope_mass(c, max_w) > 0.0));
        let old_diff = (s.load(max_w) - s.load(min_w)).abs();
        while attempts < max_attempts {
            attempts += 1;
            let Some(&c) = pick(&movable, rng) else {
                break 'rebalance;
            };
            // Only helpful if it does not immediately overshoot far past min.
            let x = s.scope_mass(c, max_w);
            let new_diff = ((s.load(max_w) - x) - (s.load(min_w) + x)).abs();
            if new_diff < old_diff {
                s.apply_move(c, max_w, min_w);
                changed = true;
                break;
            }
        }
    }
    changed
}

fn extreme_workers(s: &Solution) -> (usize, usize) {
    let mut max_w = 0;
    let mut min_w = 0;
    for w in 1..s.num_workers() {
        if s.load(w) > s.load(max_w) {
            max_w = w;
        }
        if s.load(w) < s.load(min_w) {
            min_w = w;
        }
    }
    (max_w, min_w)
}

fn pick<'a, T>(xs: &'a [T], rng: &mut SmallRng) -> Option<&'a T> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[rng.gen_range(0..xs.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qcut::{QueryCluster, ScopeStats, Solution};
    use crate::QueryId;
    use rand::SeedableRng;

    fn split_state() -> Solution {
        let stats = ScopeStats {
            num_workers: 3,
            queries: vec![QueryId(0), QueryId(1)],
            sizes: vec![vec![10.0, 10.0, 0.0], vec![0.0, 5.0, 5.0]],
            overlaps: vec![],
            base_vertices: vec![10.0, 10.0, 10.0],
        };
        let clusters: Vec<_> = (0..2).map(|q| QueryCluster { members: vec![q] }).collect();
        Solution::initial(&stats, &clusters, 0.25)
    }

    #[test]
    fn gathers_a_spread_cluster() {
        let mut s = split_state();
        let mut rng = SmallRng::seed_from_u64(3);
        let changed = perturb(&mut s, &mut rng);
        assert!(changed);
        // At least one cluster must now be fully local.
        let local = (0..s.num_clusters())
            .filter(|&c| s.spread(c).len() == 1)
            .count();
        assert!(local >= 1);
    }

    #[test]
    fn no_spread_clusters_is_a_noop_when_balanced() {
        let stats = ScopeStats {
            num_workers: 2,
            queries: vec![QueryId(0), QueryId(1)],
            sizes: vec![vec![10.0, 0.0], vec![0.0, 10.0]],
            overlaps: vec![],
            base_vertices: vec![5.0, 5.0],
        };
        let clusters: Vec<_> = (0..2).map(|q| QueryCluster { members: vec![q] }).collect();
        let mut s = Solution::initial(&stats, &clusters, 0.25);
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(!perturb(&mut s, &mut rng));
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = split_state();
        let mut b = split_state();
        perturb(&mut a, &mut SmallRng::seed_from_u64(9));
        perturb(&mut b, &mut SmallRng::seed_from_u64(9));
        assert_eq!(a.cost(), b.cost());
        for w in 0..3 {
            assert_eq!(a.load(w), b.load(w));
        }
    }

    #[test]
    fn rebalances_after_gathering() {
        // Gathering the only cluster creates imbalance; step (iii) cannot
        // split it back (single scope), so imbalance may persist — but the
        // perturbation must terminate regardless.
        let stats = ScopeStats {
            num_workers: 2,
            queries: vec![QueryId(0)],
            sizes: vec![vec![50.0, 50.0]],
            overlaps: vec![],
            base_vertices: vec![0.0, 0.0],
        };
        let clusters = vec![QueryCluster { members: vec![0] }];
        let mut s = Solution::initial(&stats, &clusters, 0.25);
        let mut rng = SmallRng::seed_from_u64(2);
        perturb(&mut s, &mut rng);
        assert_eq!(s.spread(0).len(), 1);
    }

    /// The perturbation as it read every draw's extremes and movable
    /// scopes afresh: the reference [`perturb`] is held to.
    fn reference_perturb(s: &mut Solution, rng: &mut SmallRng) -> bool {
        let spread: Vec<usize> = (0..s.num_clusters())
            .filter(|&c| s.spread(c).len() >= 2)
            .collect();
        let mut changed = false;
        if let Some(&c) = pick(&spread, rng) {
            let target = s.argmax_worker(c);
            for from in s.spread(c) {
                if from != target {
                    s.apply_move(c, from, target);
                    changed = true;
                }
            }
        }
        let mut attempts = 0;
        let max_attempts = 4 * s.num_clusters().max(1);
        while s.imbalance() >= s.delta() && attempts < max_attempts {
            attempts += 1;
            let (max_w, min_w) = extreme_workers(s);
            let movable: Vec<usize> = (0..s.num_clusters())
                .filter(|&c| s.scope_mass(c, max_w) > 0.0)
                .collect();
            let Some(&c) = pick(&movable, rng) else { break };
            let x = s.scope_mass(c, max_w);
            let new_diff = ((s.load(max_w) - x) - (s.load(min_w) + x)).abs();
            let old_diff = (s.load(max_w) - s.load(min_w)).abs();
            if new_diff < old_diff {
                s.apply_move(c, max_w, min_w);
                changed = true;
            }
        }
        changed
    }

    /// Every mass, load and the cost, as bits.
    fn fingerprint(s: &Solution) -> Vec<u64> {
        let mut bits = vec![s.cost().to_bits()];
        for w in 0..s.num_workers() {
            bits.push(s.load(w).to_bits());
            bits.extend((0..s.num_clusters()).map(|c| s.scope_mass(c, w).to_bits()));
        }
        bits
    }

    #[test]
    fn perturb_equals_the_reference_draw_for_draw() {
        use crate::qcut::cluster_queries;
        use crate::qcut::solution::tests::random_stats;
        use rand::Rng;
        let mut inputs = SmallRng::seed_from_u64(35);
        for trial in 0..200u64 {
            let k = [2, 3, 4, 8][trial as usize % 4];
            let stats = random_stats(&mut inputs, k, trial % 3 == 0, trial % 2 == 1);
            let clusters = cluster_queries(&stats, 4 * k, &mut inputs);
            let mut s = Solution::initial(&stats, &clusters, [0.1, 0.25][trial as usize % 2]);
            let mut reference = s.clone();
            let (mut rng, mut ref_rng) = (
                SmallRng::seed_from_u64(trial),
                SmallRng::seed_from_u64(trial),
            );
            for round in 0..5 {
                let changed = perturb(&mut s, &mut rng);
                assert_eq!(changed, reference_perturb(&mut reference, &mut ref_rng));
                assert_eq!(
                    fingerprint(&s),
                    fingerprint(&reference),
                    "trial {trial} round {round}"
                );
                assert_eq!(rng.gen::<u64>(), ref_rng.gen::<u64>(), "the same draws");
            }
        }
    }
}
