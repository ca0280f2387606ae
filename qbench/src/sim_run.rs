//! `sim-paper`: the simulated runtime on the paper's Figure-6a shape —
//! the same hotspot SSSP stream under static Hash, static Domain,
//! Hash + Q-cut and Domain + Q-cut, back to back. Composed from
//! `build_network` / `partition_graph` / `SimEngine::new` exactly as
//! `qgraph_bench::run_road_experiment` does, but keeping the query ids so
//! the outputs can be checked.

#![forbid(unsafe_code)]

use std::sync::Arc;

use qgraph_bench::{build_network, partition_graph, ExperimentSpec, Strategy};
use qgraph_core::{Percentiles, QcutConfig, SimEngine, SystemConfig};
use qgraph_sim::ClusterModel;
use qgraph_workload::{QueryKind, WorkloadConfig, WorkloadGenerator};

use crate::check::{check_one, CheckResult, SampleRng};
use crate::inputs::{Query, MAP_SEED};
use crate::spans::Spans;
use crate::spec::Size;
use crate::stats::mean;

/// One strategy's simulated run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StrategyRun {
    /// Mean / p95 `latency_secs()` on the virtual clock, milliseconds.
    pub virt_lat_mean_ms: f64,
    pub virt_lat_p95_ms: f64,
    pub locality: f64,
    pub repartitions: usize,
    /// Host seconds inside `SimEngine::run`.
    pub host_s: f64,
    /// Host seconds from graph generation to the last `submit`.
    pub setup_s: f64,
}

impl StrategyRun {
    /// The simulated quantities, which must repeat bit for bit.
    pub fn virtual_part(&self) -> (u64, u64, u64, usize) {
        (
            self.virt_lat_mean_ms.to_bits(),
            self.virt_lat_p95_ms.to_bits(),
            self.locality.to_bits(),
            self.repartitions,
        )
    }
}

/// The four strategies run once each, in `Strategy::paper_set()` order.
#[derive(Clone, Debug)]
pub struct Pass {
    pub runs: Vec<StrategyRun>,
    pub queries: usize,
    pub check: CheckResult,
}

impl Pass {
    /// Host seconds inside the four `run()` calls.
    pub fn host_s(&self) -> f64 {
        self.runs.iter().map(|r| r.host_s).sum()
    }

    pub fn setup_s(&self) -> f64 {
        self.runs.iter().map(|r| r.setup_s).sum()
    }
}

/// Run the four strategies over the fixed map and `seed`'s stream. `sample`
/// outputs per pass (spread over the strategies) are checked against
/// Dijkstra; every query must complete with an output.
pub fn run_pass(seed: u64, size: &Size, sample: usize, spans: &Spans) -> Pass {
    let pass_span = spans.enter_block("sim.pass");
    let n = size.sim_queries;
    let mut runs = Vec::new();
    let mut check = CheckResult::default();
    for strategy in Strategy::paper_set() {
        let spec = ExperimentSpec {
            workload: WorkloadConfig::single(n, false, false, seed),
            seed: MAP_SEED,
            ..ExperimentSpec::default_bw(strategy, n, size.sim_scale)
        };
        let setup = spans.enter("sim.setup");
        let net = build_network(spec.graph, spec.tag_probability, spec.seed);
        let partitioning = partition_graph(spec.strategy, &net, spec.workers, seed);
        let cfg = SystemConfig {
            barrier_mode: spec.barrier,
            qcut: strategy
                .adaptive()
                .then(|| QcutConfig::time_scaled(spec.time_scale)),
            ..Default::default()
        };
        let queries: Vec<Query> = WorkloadGenerator::new(&net)
            .generate(&spec.workload)
            .into_iter()
            .map(|s| match s.kind {
                QueryKind::Sssp { source, target } => Query::RoadSssp { source, target },
                QueryKind::Poi { source } => Query::RoadPoi { source },
            })
            .collect();
        let graph = Arc::new(net.graph);
        let cluster = ClusterModel::scale_up(spec.workers);
        let mut engine = SimEngine::new(Arc::clone(&graph), cluster, partitioning, cfg);
        let ids: Vec<_> = queries.iter().map(|q| q.submit(&mut engine)).collect();
        let setup_s = setup.finish();

        let run = spans.enter("engine.run");
        engine.run();
        let host_s = run.finish();

        let report = engine.report();
        let lat_ms: Vec<f64> = report.completed().map(|o| o.latency_secs() * 1e3).collect();
        runs.push(StrategyRun {
            virt_lat_mean_ms: mean(&lat_ms),
            virt_lat_p95_ms: Percentiles::of(lat_ms).p95,
            locality: report.mean_locality(),
            repartitions: report.repartitions.len(),
            host_s,
            setup_s,
        });

        let checking = spans.enter("bench.check");
        check.attempted += ids.len() as u64;
        let missing = ids
            .iter()
            .filter(|id| engine.output_envelope(**id).is_none())
            .count() as u64
            + report.rejected_queries() as u64;
        check.failed += missing;
        if missing > 0 {
            check.notes.push(format!(
                "{}: {missing} queries without an output",
                strategy.name()
            ));
        }
        let mut rng = SampleRng(seed ^ strategy as u64);
        for _ in 0..sample.div_ceil(4) {
            let i = rng.below(ids.len());
            if let Some(envelope) = engine.output_envelope(ids[i]) {
                let what = format!("{} query {i}", strategy.name());
                check_one(&mut check, &queries[i], envelope, &graph, &what);
            }
        }
        drop(checking);
    }
    drop(pass_span);
    Pass {
        runs,
        queries: n * Strategy::paper_set().len(),
        check,
    }
}
