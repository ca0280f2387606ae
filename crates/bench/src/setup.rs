//! Experiment composition: graph presets, partitioning strategies, and the
//! closed-loop query driver, mirroring the paper's §4.1 setup.

use std::sync::Arc;

use qgraph_algo::RoadProgram;
use qgraph_core::{BarrierMode, EngineReport, QcutConfig, SimEngine, SystemConfig};
use qgraph_partition::{
    DomainPartitioner, HashPartitioner, LdgPartitioner, Partitioner, Partitioning,
};
use qgraph_sim::ClusterModel;
use qgraph_workload::{
    assign_tags, QueryKind, RoadNetwork, RoadNetworkConfig, RoadNetworkGenerator, WorkloadConfig,
    WorkloadGenerator,
};

/// Which road network to generate (paper: BW and GY OpenStreetMap graphs;
/// the `qgraph-workload` crate docs describe the synthetic substitution).
#[derive(Clone, Copy, Debug)]
pub enum GraphPreset {
    /// Baden-Württemberg-like: 16 cities.
    BwLike {
        /// Vertex-budget multiplier (1.0 ≈ 60 k vertices).
        scale: f64,
    },
    /// Germany-like: 64 cities, ≈ 4× the vertices of BW at equal scale.
    GyLike {
        /// Vertex-budget multiplier.
        scale: f64,
    },
}

/// Initial partitioning strategy plus whether adaptive Q-cut runs on top —
/// the four curves of the paper's Figures 5–7, plus the LDG baseline the
/// paper excluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Static hash partitioning.
    Hash,
    /// Static domain-expert partitioning.
    Domain,
    /// Hash prepartitioning + adaptive Q-cut.
    HashQcut,
    /// Domain prepartitioning + adaptive Q-cut.
    DomainQcut,
    /// Static LDG streaming partitioning (§4.1 exclusion experiment).
    Ldg,
}

impl Strategy {
    /// Display name used in result tables.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Hash => "Hash",
            Strategy::Domain => "Domain",
            Strategy::HashQcut => "Hash+Qcut",
            Strategy::DomainQcut => "Domain+Qcut",
            Strategy::Ldg => "LDG",
        }
    }

    /// Does this strategy run adaptive Q-cut?
    pub fn adaptive(self) -> bool {
        matches!(self, Strategy::HashQcut | Strategy::DomainQcut)
    }

    /// All four paper strategies (no LDG).
    pub fn paper_set() -> [Strategy; 4] {
        [
            Strategy::Hash,
            Strategy::Domain,
            Strategy::HashQcut,
            Strategy::DomainQcut,
        ]
    }
}

/// A complete experiment description.
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    /// The road network.
    pub graph: GraphPreset,
    /// Partitioning strategy.
    pub strategy: Strategy,
    /// Barrier synchronization mode.
    pub barrier: BarrierMode,
    /// Number of workers `k`.
    pub workers: usize,
    /// Scale-out cluster (paper's C1) instead of one multi-core host.
    pub scale_out: bool,
    /// The query workload.
    pub workload: WorkloadConfig,
    /// POI tag probability (only matters for POI phases).
    pub tag_probability: f64,
    /// Divide the paper's adaptivity time constants by this factor
    /// (see [`QcutConfig::time_scaled`]); our scaled-down graphs make
    /// queries roughly this much faster than the paper's wall clock.
    pub time_scale: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl ExperimentSpec {
    /// The paper's default setup: BW graph, k = 8 scale-up workers, hybrid
    /// barriers, `n` intra-urban SSSP queries.
    pub fn default_bw(strategy: Strategy, n: usize, scale: f64) -> Self {
        ExperimentSpec {
            graph: GraphPreset::BwLike { scale },
            strategy,
            barrier: BarrierMode::Hybrid,
            workers: 8,
            scale_out: false,
            workload: WorkloadConfig::single(n, false, false, 7),
            tag_probability: 1.0 / 12_500.0,
            // Paper queries average ≈ 4 s wall (Fig. 7: 283–927 s for 1024
            // queries at 16-way parallelism); ours ≈ 2 ms virtual at the
            // default graph scale ⇒ adaptivity constants shrink ~2000×.
            time_scale: 2000.0,
            seed: 7,
        }
    }
}

/// Build the road network for a preset (tags attached).
pub fn build_network(preset: GraphPreset, tag_probability: f64, seed: u64) -> RoadNetwork {
    let cfg = match preset {
        GraphPreset::BwLike { scale } => RoadNetworkConfig::bw_like(scale, seed),
        GraphPreset::GyLike { scale } => RoadNetworkConfig::gy_like(scale, seed),
    };
    let mut net = RoadNetworkGenerator::new(cfg).generate();
    assign_tags(&mut net.graph, tag_probability, seed);
    net
}

/// Produce the initial partitioning for a strategy.
pub fn partition_graph(
    strategy: Strategy,
    net: &RoadNetwork,
    workers: usize,
    seed: u64,
) -> Partitioning {
    match strategy {
        Strategy::Hash | Strategy::HashQcut => {
            HashPartitioner::with_seed(seed).partition(&net.graph, workers)
        }
        Strategy::Domain | Strategy::DomainQcut => DomainPartitioner.partition(&net.graph, workers),
        Strategy::Ldg => LdgPartitioner::default().partition(&net.graph, workers),
    }
}

/// Run one experiment end to end; returns the engine report.
pub fn run_road_experiment(spec: &ExperimentSpec) -> EngineReport {
    let net = build_network(spec.graph, spec.tag_probability, spec.seed);
    let partitioning = partition_graph(spec.strategy, &net, spec.workers, spec.seed);
    let cluster = if spec.scale_out {
        ClusterModel::c1(spec.workers)
    } else {
        ClusterModel::scale_up(spec.workers)
    };
    let cfg = SystemConfig {
        barrier_mode: spec.barrier,
        qcut: spec
            .strategy
            .adaptive()
            .then(|| QcutConfig::time_scaled(spec.time_scale)),
        ..Default::default()
    };

    let gen = WorkloadGenerator::new(&net);
    let specs = gen.generate(&spec.workload);
    let graph = Arc::new(net.graph);
    let mut engine = SimEngine::new(graph, cluster, partitioning, cfg);
    for s in &specs {
        match s.kind {
            QueryKind::Sssp { source, target } => {
                engine.submit(RoadProgram::sssp(source, target));
            }
            QueryKind::Poi { source } => {
                engine.submit(RoadProgram::poi(source));
            }
        }
    }
    engine.run().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_experiment_runs() {
        let spec = ExperimentSpec {
            workload: WorkloadConfig::single(16, false, false, 3),
            ..ExperimentSpec::default_bw(Strategy::Hash, 16, 0.05)
        };
        let report = run_road_experiment(&spec);
        assert_eq!(report.outcomes.len(), 16);
        assert!(report.mean_latency() > 0.0);
    }
}
