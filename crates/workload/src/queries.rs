//! Hotspot query workload generation (paper §4.1).
//!
//! The paper generates 2048 SSSP (or POI) queries whose start vertices
//! cluster around the biggest cities, with per-city query counts
//! proportional to population, executed in batches of 16 parallel queries.
//! Figure 5 then *disturbs* the workload: 496 further queries switch from
//! intra-urban to inter-urban (between random neighbouring cities).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use qgraph_graph::VertexId;

use crate::RoadNetwork;

/// The concrete query types the paper evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Single-source shortest path from `source` to `target`.
    Sssp {
        /// Start vertex.
        source: VertexId,
        /// End vertex.
        target: VertexId,
    },
    /// Nearest tagged vertex (e.g. gas station) from `source`.
    Poi {
        /// Start vertex.
        source: VertexId,
    },
}

impl QueryKind {
    /// The query's start vertex.
    pub fn source(&self) -> VertexId {
        match *self {
            QueryKind::Sssp { source, .. } | QueryKind::Poi { source } => source,
        }
    }
}

/// One generated query plus the hotspot city it was sampled from.
#[derive(Clone, Copy, Debug)]
pub struct QuerySpec {
    /// What to compute.
    pub kind: QueryKind,
    /// Index of the city the start vertex belongs to.
    pub hotspot_city: usize,
}

/// One phase of the workload (Figure 5 uses two: 2048 intra-urban queries,
/// then 496 inter-urban disturbance queries).
#[derive(Clone, Copy, Debug)]
pub struct WorkloadPhase {
    /// Number of queries in this phase.
    pub count: usize,
    /// Generate POI queries instead of SSSP.
    pub poi: bool,
    /// Inter-urban: SSSP targets lie in a random *neighbouring* city
    /// instead of the start city.
    pub inter_urban: bool,
}

/// Workload generator configuration.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// The phases, generated in order.
    pub phases: Vec<WorkloadPhase>,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The Figure-5 workload: `main` intra-urban SSSP queries followed by
    /// `disturbance` inter-urban ones (paper: 2048 + 496).
    pub fn figure5(main: usize, disturbance: usize, seed: u64) -> Self {
        WorkloadConfig {
            phases: vec![
                WorkloadPhase {
                    count: main,
                    poi: false,
                    inter_urban: false,
                },
                WorkloadPhase {
                    count: disturbance,
                    poi: false,
                    inter_urban: true,
                },
            ],
            seed,
        }
    }

    /// A single-phase workload.
    pub fn single(count: usize, poi: bool, inter_urban: bool, seed: u64) -> Self {
        WorkloadConfig {
            phases: vec![WorkloadPhase {
                count,
                poi,
                inter_urban,
            }],
            seed,
        }
    }
}

/// Generates hotspot query streams over a [`RoadNetwork`].
pub struct WorkloadGenerator<'a> {
    net: &'a RoadNetwork,
    /// Cumulative population distribution for weighted city sampling.
    cumulative: Vec<f64>,
    /// Per city: nearest neighbour city indices (for inter-urban targets).
    neighbours: Vec<Vec<usize>>,
}

impl<'a> WorkloadGenerator<'a> {
    /// Build a generator for `net`.
    pub fn new(net: &'a RoadNetwork) -> Self {
        let weights = net.population_weights();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();

        let k = net.config.highways_per_city.max(1);
        let centers: Vec<(f32, f32)> = net.cities.iter().map(|c| c.center).collect();
        let neighbours = (0..net.cities.len())
            .map(|a| {
                let mut others: Vec<usize> = (0..net.cities.len()).filter(|&b| b != a).collect();
                others.sort_by(|&x, &y| {
                    let dx = dist(centers[a], centers[x]);
                    let dy = dist(centers[a], centers[y]);
                    dx.partial_cmp(&dy).expect("finite")
                });
                others.truncate(k);
                others
            })
            .collect();

        WorkloadGenerator {
            net,
            cumulative,
            neighbours,
        }
    }

    /// Generate the full query stream for `cfg`.
    pub fn generate(&self, cfg: &WorkloadConfig) -> Vec<QuerySpec> {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x6B75_6572_7973_0001);
        let mut out = Vec::with_capacity(cfg.phases.iter().map(|p| p.count).sum());
        for phase in &cfg.phases {
            for _ in 0..phase.count {
                out.push(self.generate_one(phase, &mut rng));
            }
        }
        out
    }

    fn generate_one(&self, phase: &WorkloadPhase, rng: &mut SmallRng) -> QuerySpec {
        let city = self.sample_city(rng);
        let source = self.sample_vertex_in_city(city, rng);
        let kind = if phase.poi {
            QueryKind::Poi { source }
        } else if phase.inter_urban && self.net.cities.len() > 1 {
            let nb = &self.neighbours[city];
            let target_city = nb[rng.gen_range(0..nb.len())];
            let mut target = self.sample_vertex_in_city(target_city, rng);
            if target == source {
                target = self.sample_vertex_in_city(target_city, rng);
            }
            QueryKind::Sssp { source, target }
        } else {
            // Intra-urban: the paper generates "an end vertex with variable
            // euclidean distance to the start vertex" and cites that >50 %
            // of mobile queries have *local* intent. Sample candidate
            // targets within the city and pick by a quadratically-biased
            // distance rank: mostly short routes, occasionally city-wide.
            let target = self.sample_intra_target(city, source, rng);
            QueryKind::Sssp { source, target }
        };
        QuerySpec {
            kind,
            hotspot_city: city,
        }
    }

    /// Pick an intra-urban SSSP target at a variable Euclidean distance
    /// from `source` (short routes dominate; see `generate_one`).
    fn sample_intra_target(&self, city: usize, source: VertexId, rng: &mut SmallRng) -> VertexId {
        const CANDIDATES: usize = 8;
        let props = self.net.graph.props();
        let mut cands: Vec<VertexId> = (0..CANDIDATES)
            .map(|_| self.sample_vertex_in_city(city, rng))
            .filter(|&v| v != source)
            .collect();
        if cands.is_empty() {
            return self.sample_vertex_in_city(city, rng);
        }
        if props.coords.is_empty() {
            return cands[0];
        }
        cands.sort_by(|&a, &b| {
            props
                .euclidean(source, a)
                .partial_cmp(&props.euclidean(source, b))
                .expect("finite coords")
        });
        let u: f64 = rng.gen();
        let idx = ((u * u) * cands.len() as f64) as usize;
        cands[idx.min(cands.len() - 1)]
    }

    /// Population-weighted city sample (paper: queries per city ∝ population).
    fn sample_city(&self, rng: &mut SmallRng) -> usize {
        let r: f64 = rng.gen();
        self.cumulative
            .partition_point(|&c| c < r)
            .min(self.net.cities.len() - 1)
    }

    fn sample_vertex_in_city(&self, city: usize, rng: &mut SmallRng) -> VertexId {
        let c = &self.net.cities[city];
        VertexId(c.first_vertex + rng.gen_range(0..c.count))
    }
}

fn dist(a: (f32, f32), b: (f32, f32)) -> f32 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RoadNetworkConfig, RoadNetworkGenerator};

    fn net() -> RoadNetwork {
        RoadNetworkGenerator::new(RoadNetworkConfig {
            num_cities: 8,
            vertices_per_city: 200,
            seed: 11,
            ..Default::default()
        })
        .generate()
    }

    #[test]
    fn generates_requested_counts() {
        let net = net();
        let g = WorkloadGenerator::new(&net);
        let specs = g.generate(&WorkloadConfig::figure5(100, 20, 1));
        assert_eq!(specs.len(), 120);
    }

    #[test]
    fn intra_urban_targets_stay_in_city() {
        let net = net();
        let g = WorkloadGenerator::new(&net);
        let specs = g.generate(&WorkloadConfig::single(200, false, false, 2));
        for s in specs {
            if let QueryKind::Sssp { source, target } = s.kind {
                let rs = net.graph.props().region(source);
                let rt = net.graph.props().region(target);
                assert_eq!(rs, rt, "intra-urban query crossed cities");
            }
        }
    }

    #[test]
    fn inter_urban_targets_leave_city() {
        let net = net();
        let g = WorkloadGenerator::new(&net);
        let specs = g.generate(&WorkloadConfig::single(200, false, true, 3));
        let crossing = specs
            .iter()
            .filter(|s| match s.kind {
                QueryKind::Sssp { source, target } => {
                    net.graph.props().region(source) != net.graph.props().region(target)
                }
                _ => false,
            })
            .count();
        assert_eq!(crossing, 200, "all inter-urban queries must cross cities");
    }

    #[test]
    fn popular_cities_get_more_queries() {
        let net = net();
        let g = WorkloadGenerator::new(&net);
        let specs = g.generate(&WorkloadConfig::single(2000, false, false, 4));
        let mut counts = vec![0usize; net.cities.len()];
        for s in &specs {
            counts[s.hotspot_city] += 1;
        }
        assert!(
            counts[0] > counts[net.cities.len() - 1],
            "{counts:?}: city 0 (largest) should dominate"
        );
    }

    #[test]
    fn poi_phase_generates_poi() {
        let net = net();
        let g = WorkloadGenerator::new(&net);
        let specs = g.generate(&WorkloadConfig::single(50, true, false, 5));
        assert!(specs
            .iter()
            .all(|s| matches!(s.kind, QueryKind::Poi { .. })));
    }

    #[test]
    fn deterministic() {
        let net = net();
        let g = WorkloadGenerator::new(&net);
        let cfg = WorkloadConfig::figure5(64, 16, 9);
        let a: Vec<_> = g.generate(&cfg).iter().map(|s| s.kind).collect();
        let b: Vec<_> = g.generate(&cfg).iter().map(|s| s.kind).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn sources_are_valid_vertices() {
        let net = net();
        let g = WorkloadGenerator::new(&net);
        for s in g.generate(&WorkloadConfig::figure5(100, 50, 6)) {
            assert!(s.kind.source().index() < net.graph.num_vertices());
        }
    }
}
