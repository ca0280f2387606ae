//! Point-query workload generation for the index plane.
//!
//! Hub-label serving (see `qgraph-index`) answers fixed-pair
//! `dist(u, v)` / `reach(u, v)` questions at admission; this module
//! generates the matching query streams: source/target pairs drawn over
//! the *live* vertex set — pass the current vertex list so streams stay
//! valid under churn — either uniformly or skewed toward the head of the
//! list (vertex ids are creation-ordered, so a power-law skew toward low
//! indices models the "popular old entities" pattern of social graphs).
//! A stream is made open-loop by zipping it with the arrival instants
//! the traversal workloads use ([`crate::arrival_times`]).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use qgraph_graph::VertexId;

/// How source/target pairs are drawn from the live vertex list.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PairSkew {
    /// Every live vertex equally likely.
    Uniform,
    /// Power-law bias toward the head of the list: a vertex at relative
    /// position `p` in the list is picked like `u^exponent` (`u` uniform),
    /// so `exponent > 1` concentrates mass on low indices. `1.0` is
    /// uniform.
    Skewed {
        /// Bias strength (`>= 1`; larger = more concentrated).
        exponent: f64,
    },
}

/// One generated point query: a fixed source/target pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PointQuerySpec {
    /// Start vertex.
    pub source: VertexId,
    /// End vertex.
    pub target: VertexId,
    /// `true` = reachability (`reach(u,v)`), `false` = distance
    /// (`dist(u,v)`).
    pub reach: bool,
}

/// Point-query stream configuration.
#[derive(Clone, Debug)]
pub struct PointWorkloadConfig {
    /// Number of queries.
    pub count: usize,
    /// Pair distribution over the live vertex list.
    pub skew: PairSkew,
    /// Fraction of queries that are reachability questions (the rest are
    /// distance questions).
    pub reach_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl PointWorkloadConfig {
    /// A uniform, all-distance stream.
    pub fn uniform(count: usize, seed: u64) -> Self {
        PointWorkloadConfig {
            count,
            skew: PairSkew::Uniform,
            reach_fraction: 0.0,
            seed,
        }
    }

    /// A skewed stream (see [`PairSkew::Skewed`]).
    pub fn skewed(count: usize, exponent: f64, seed: u64) -> Self {
        PointWorkloadConfig {
            count,
            skew: PairSkew::Skewed { exponent },
            reach_fraction: 0.0,
            seed,
        }
    }
}

/// Generate `cfg.count` point queries over `live` (the current vertex
/// set — under churn, pass the post-mutation list so every pair is
/// servable). Deterministic in the seed.
///
/// # Panics
/// Panics if `live` is empty.
pub fn generate_point_queries(live: &[VertexId], cfg: &PointWorkloadConfig) -> Vec<PointQuerySpec> {
    assert!(!live.is_empty(), "point queries need live vertices");
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x706F_696E_7471_7279);
    (0..cfg.count)
        .map(|_| {
            let source = sample(live, cfg.skew, &mut rng);
            let mut target = sample(live, cfg.skew, &mut rng);
            if target == source && live.len() > 1 {
                // One redraw keeps self-pairs rare without biasing much.
                target = sample(live, cfg.skew, &mut rng);
            }
            let reach = rng.gen::<f64>() < cfg.reach_fraction;
            PointQuerySpec {
                source,
                target,
                reach,
            }
        })
        .collect()
}

fn sample(live: &[VertexId], skew: PairSkew, rng: &mut SmallRng) -> VertexId {
    let u: f64 = rng.gen();
    let pos = match skew {
        PairSkew::Uniform => u,
        PairSkew::Skewed { exponent } => u.powf(exponent.max(1.0)),
    };
    live[((pos * live.len() as f64) as usize).min(live.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live(n: u32) -> Vec<VertexId> {
        (0..n).map(VertexId).collect()
    }

    #[test]
    fn generates_requested_count_over_live_set() {
        let live = live(50);
        let specs = generate_point_queries(&live, &PointWorkloadConfig::uniform(200, 1));
        assert_eq!(specs.len(), 200);
        for s in &specs {
            assert!(s.source.0 < 50 && s.target.0 < 50);
            assert!(!s.reach);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let live = live(40);
        let cfg = PointWorkloadConfig::skewed(100, 2.0, 9);
        assert_eq!(
            generate_point_queries(&live, &cfg),
            generate_point_queries(&live, &cfg)
        );
    }

    #[test]
    fn skew_concentrates_on_the_head() {
        let live = live(1000);
        let uniform = generate_point_queries(&live, &PointWorkloadConfig::uniform(2000, 5));
        let skewed = generate_point_queries(&live, &PointWorkloadConfig::skewed(2000, 3.0, 5));
        let head = |specs: &[PointQuerySpec]| {
            specs
                .iter()
                .flat_map(|s| [s.source.0, s.target.0])
                .filter(|&v| v < 100)
                .count()
        };
        assert!(
            head(&skewed) > 2 * head(&uniform),
            "skewed {} vs uniform {}",
            head(&skewed),
            head(&uniform)
        );
    }

    #[test]
    fn reach_fraction_mixes_kinds() {
        let live = live(30);
        let cfg = PointWorkloadConfig {
            count: 1000,
            skew: PairSkew::Uniform,
            reach_fraction: 0.5,
            seed: 2,
        };
        let reaches = generate_point_queries(&live, &cfg)
            .iter()
            .filter(|s| s.reach)
            .count();
        assert!((300..700).contains(&reaches), "got {reaches}");
    }
}
