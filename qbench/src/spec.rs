//! The benchmark's vocabulary: the six workloads, the end-to-end and
//! per-layer metric names with their units, and the fixed sizes. The
//! names here are the ones `BENCHMARK.json` lists (the smoke test holds
//! the two together) and the ones every later change claims against.

#![forbid(unsafe_code)]

/// A metric's name, unit and which direction is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees; measured with probes off.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("qps", "queries/s", "higher"),
    m("lat_mean_ms", "ms", "lower"),
    m("lat_p95_ms", "ms", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// One ledger line per layer quantity; layer = module name. Measured in
/// the traced run only. A metric that does not apply to a workload (the
/// `engine.*` lines on a thread workload, `index.*` without an index)
/// reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    m("graph.csr_scan_ns_per_edge", "ns/edge", "lower"),
    m("graph.overlay_scan_ns_per_edge", "ns/edge", "lower"),
    m("graph.apply_ms_per_batch", "ms", "lower"),
    m("graph.compact_ms", "ms", "lower"),
    m("graph.overlay_fraction_end", "ratio", "lower"),
    m("partition.partition_ms", "ms", "lower"),
    m("partition.edge_cut_ratio", "ratio", "lower"),
    m("workload.gen_ms", "ms", "lower"),
    m("algo.compute_calls", "count", "lower"),
    m("algo.compute_busy_s", "s", "lower"),
    m("algo.compute_share", "ratio", "higher"),
    m("algo.combine_calls", "count", "lower"),
    m("algo.combine_merged_ratio", "ratio", "higher"),
    m("algo.init_busy_s", "s", "lower"),
    m("algo.finalize_busy_s", "s", "lower"),
    m("algo.ref_qps", "queries/s", "higher"),
    m("worker.supersteps", "count", "lower"),
    m("worker.local_superstep_ratio", "ratio", "higher"),
    m("worker.vertex_updates", "count", "lower"),
    m("worker.remote_msgs", "count", "lower"),
    m("worker.remote_msgs_pre_combine", "count", "lower"),
    m("worker.combine_saved_ratio", "ratio", "higher"),
    m("worker.remote_batches", "count", "lower"),
    m("worker.scope_size_mean", "count", "lower"),
    m("pool.tasks", "count", "lower"),
    m("pool.steals", "count", "lower"),
    m("pool.idle_waits", "count", "lower"),
    m("pool.steal_ratio", "ratio", "lower"),
    m("pool.tasks_per_superstep", "ratio", "lower"),
    m("pool.us_per_task", "us", "lower"),
    m("sched.index_served_ratio", "ratio", "higher"),
    m("sched.rejected", "count", "lower"),
    m("sched.effective_dop_mean", "count", "higher"),
    m("sched.queue_wait_mean_ms", "ms", "lower"),
    m("runtime.start_ms", "ms", "lower"),
    m("runtime.submit_ns_per_query", "ns", "lower"),
    m("runtime.drain_s", "s", "lower"),
    m("runtime.shutdown_ms", "ms", "lower"),
    m("runtime.quiesce_windows", "count", "lower"),
    m("runtime.quiesce_s", "s", "lower"),
    m("runtime.quiesce_share", "ratio", "lower"),
    m("runtime.coord_share", "ratio", "lower"),
    m("runtime.us_per_superstep", "us", "lower"),
    m("runtime.lat_p50_ms", "ms", "lower"),
    m("runtime.lat_p99_ms", "ms", "lower"),
    m("qcut.repartitions", "count", "lower"),
    m("qcut.moved_vertices", "count", "lower"),
    m("qcut.barrier_s", "s", "lower"),
    m("qcut.barrier_ms_p50", "ms", "lower"),
    m("qcut.locality_gain_mean", "ratio", "higher"),
    m("qcut.ils_improvement_mean", "ratio", "higher"),
    m("qcut.locality_last_quartile", "ratio", "higher"),
    m("qcut.ils_probe_ms", "ms", "lower"),
    m("engine.virt_lat_mean_ms.hash", "ms", "lower"),
    m("engine.virt_lat_mean_ms.domain", "ms", "lower"),
    m("engine.virt_lat_mean_ms.hash-qcut", "ms", "lower"),
    m("engine.virt_lat_mean_ms.domain-qcut", "ms", "lower"),
    m("engine.locality.hash", "ratio", "higher"),
    m("engine.locality.domain", "ratio", "higher"),
    m("engine.locality.hash-qcut", "ratio", "higher"),
    m("engine.locality.domain-qcut", "ratio", "higher"),
    m("engine.repartitions.hash", "count", "lower"),
    m("engine.repartitions.domain", "count", "lower"),
    m("engine.repartitions.hash-qcut", "count", "lower"),
    m("engine.repartitions.domain-qcut", "count", "lower"),
    m("engine.host_s.hash", "s", "lower"),
    m("engine.host_s.domain", "s", "lower"),
    m("engine.host_s.hash-qcut", "s", "lower"),
    m("engine.host_s.domain-qcut", "s", "lower"),
    m("engine.qcut_lat_cut", "ratio", "higher"),
    m("sim.virt_over_wall_lat", "ratio", "higher"),
    m("index.build_s", "s", "lower"),
    m("index.label_entries", "count", "lower"),
    m("index.entries_per_vertex", "count", "lower"),
    m("index.serve_calls", "count", "lower"),
    m("index.serve_hit_ratio", "ratio", "higher"),
    m("index.serve_busy_s", "s", "lower"),
    m("index.serve_ns_p50", "ns", "lower"),
    m("index.repair_calls", "count", "lower"),
    m("index.repair_busy_s", "s", "lower"),
    m("index.repair_ms_p50", "ms", "lower"),
    m("index.repair_ms_max", "ms", "lower"),
    m("index.rebuild_ratio", "ratio", "lower"),
    m("index.roots_rerun", "count", "lower"),
    m("index.labels_churned", "count", "lower"),
    m("bench.trace_overhead", "ratio", "lower"),
    m("bench.threads", "count", "higher"),
    m("bench.warmup_s", "s", "lower"),
    m("bench.spans", "count", "lower"),
    m("bench.blocks", "count", "higher"),
    m("bench.fail_ratio", "ratio", "lower"),
];

/// The four strategies of `sim-paper`, in run order, with the suffix
/// their `engine.*` lines carry.
pub const SIM_STRATEGIES: [&str; 4] = ["hash", "domain", "hash-qcut", "domain-qcut"];

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RoadHash,
    RoadDomain,
    RoadQcut,
    ServeMix,
    EvolveChurn,
    SimPaper,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::RoadHash,
        Workload::RoadDomain,
        Workload::RoadQcut,
        Workload::ServeMix,
        Workload::EvolveChurn,
        Workload::SimPaper,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RoadHash => "road-hash",
            Workload::RoadDomain => "road-domain",
            Workload::RoadQcut => "road-qcut",
            Workload::ServeMix => "serve-mix",
            Workload::EvolveChurn => "evolve-churn",
            Workload::SimPaper => "sim-paper",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Index into [`Workload::ALL`]; the `pid` of the workload's spans.
    pub fn id(self) -> u32 {
        Workload::ALL
            .iter()
            .position(|w| *w == self)
            .expect("listed in ALL") as u32
    }

    /// Why the workload exists: which layer does its work and which it
    /// bypasses (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::RoadHash => {
                "hash partitioning, locality ~0: message plane, pool tasks and coordinator \
                 turns do the work; Q-cut, index and mutation plane are bypassed"
            }
            Workload::RoadDomain => {
                "domain partitioning, locality ~0.95: per-superstep round trips and vertex \
                 compute dominate; message plane and Q-cut are bypassed"
            }
            Workload::RoadQcut => {
                "road-hash's graph and stream under adaptive Q-cut: ILS, migration and \
                 park/quiesce windows in wall-clock; compare with road-hash"
            }
            Workload::ServeMix => {
                "read-only serving mix on an indexed graph: admission, index serve, DoP for \
                 floods and analytics; mutation plane and Q-cut are bypassed"
            }
            Workload::EvolveChurn => {
                "serve-mix's reads beside mutation batches: apply, overlay reads, compaction, \
                 index repair inside the barrier, park/unpark"
            }
            Workload::SimPaper => {
                "the simulated runtime on the paper's four strategies: cost models and \
                 sim-side Q-cut, the headline latency cut; thread pool and channels bypassed"
            }
        }
    }

    /// Does the workload run on the thread runtime?
    pub fn threaded(self) -> bool {
        self != Workload::SimPaper
    }
}

/// The fixed sizes of a run. The measuring time is an argument
/// (`--seconds`); everything else is fixed so a number means the same on
/// every commit.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Road-network scale of the three `road-*` workloads.
    pub road_scale: f64,
    /// Road-network scale of `sim-paper`.
    pub sim_scale: f64,
    /// Road-network scale of `serve-mix` and `evolve-churn`.
    pub serve_scale: f64,
    /// Queries of the untimed warm-up on a throwaway engine.
    pub warmup: usize,
    /// Outputs checked against the sequential reference, at least.
    pub sample: usize,
    /// Blocks every window runs whatever the clock says.
    pub min_blocks: usize,
    /// Queries per simulated strategy in one `sim-paper` pass.
    pub sim_queries: usize,
    /// Set-ups timed for `setup_s` (median), at least.
    pub setups: usize,
    /// Scales the per-workload block sizes (1 = full size).
    pub block_divisor: usize,
}

impl Size {
    /// The sizes every tracked number is taken at.
    pub const FULL: Size = Size {
        road_scale: 1.0,
        sim_scale: 0.5,
        serve_scale: 0.05,
        warmup: 256,
        sample: 256,
        min_blocks: 4,
        sim_queries: 2048,
        setups: 3,
        block_divisor: 1,
    };

    /// The smoke-test size: tiny graphs, two short blocks.
    pub const QUICK: Size = Size {
        road_scale: 0.02,
        sim_scale: 0.02,
        serve_scale: 0.02,
        warmup: 16,
        sample: 48,
        min_blocks: 2,
        sim_queries: 48,
        setups: 1,
        block_divisor: 8,
    };

    /// Queries in one block (one closed-loop round ended by a drain) of
    /// `workload`: sized to take roughly a second on the reference box,
    /// long enough that the drain's tail is small and short enough that
    /// a window holds several blocks to take a median over.
    pub fn block(&self, workload: Workload) -> usize {
        let full = match workload {
            Workload::RoadHash => 384,
            Workload::RoadDomain => 2048,
            Workload::RoadQcut => 256,
            Workload::ServeMix => 2400,
            Workload::EvolveChurn => 500,
            Workload::SimPaper => self.sim_queries * SIM_STRATEGIES.len(),
        };
        (full / self.block_divisor).max(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(d.better, "lower" | "higher"));
        }
        assert!(PER_LAYER.len() <= 128);
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}", w.name());
        }
    }
}
