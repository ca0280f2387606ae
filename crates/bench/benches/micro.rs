//! Criterion micro-benchmarks for the performance-critical building
//! blocks: partitioners, the Q-cut ILS, graph generation, and single-query
//! engine execution — plus the Q-cut clustering ablation.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use qgraph_algo::SsspProgram;
use qgraph_core::qcut::{cluster_queries, local_search, run_qcut, ScopeStats, Solution};
use qgraph_core::{programs::ReachProgram, QcutConfig, QueryId, SimEngine, SystemConfig};
use qgraph_graph::VertexId;
use qgraph_partition::{DomainPartitioner, HashPartitioner, LdgPartitioner, Partitioner};
use qgraph_sim::ClusterModel;
use qgraph_workload::{RoadNetworkConfig, RoadNetworkGenerator};

fn hash_like_stats(num_queries: usize, k: usize) -> ScopeStats {
    ScopeStats {
        num_workers: k,
        queries: (0..num_queries as u32).map(QueryId).collect(),
        sizes: vec![vec![50.0 / k as f64; k]; num_queries],
        overlaps: (0..num_queries - 1).map(|i| (i, i + 1, 5.0)).collect(),
        base_vertices: vec![2000.0; k],
    }
}

fn bench_partitioners(c: &mut Criterion) {
    let net = RoadNetworkGenerator::new(RoadNetworkConfig {
        num_cities: 16,
        vertices_per_city: 1000,
        seed: 3,
        ..Default::default()
    })
    .generate();
    let mut g = c.benchmark_group("partitioners");
    g.sample_size(10);
    g.bench_function("hash_16k", |b| {
        b.iter(|| HashPartitioner::default().partition(&net.graph, 8))
    });
    g.bench_function("domain_16k", |b| {
        b.iter(|| DomainPartitioner.partition(&net.graph, 8))
    });
    g.bench_function("ldg_16k", |b| {
        b.iter(|| LdgPartitioner::default().partition(&net.graph, 8))
    });
    g.finish();
}

fn bench_qcut(c: &mut Criterion) {
    let stats = hash_like_stats(128, 8);
    let cfg = QcutConfig::default();
    let mut g = c.benchmark_group("qcut");
    g.sample_size(10);
    g.bench_function("ils_128q_8w", |b| b.iter(|| run_qcut(&stats, &cfg)));
    g.bench_function("clustering_128q", |b| {
        b.iter_batched(
            || SmallRng::seed_from_u64(1),
            |mut rng| cluster_queries(&stats, 32, &mut rng),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("local_search_128q", |b| {
        let mut rng = SmallRng::seed_from_u64(1);
        let clusters = cluster_queries(&stats, 32, &mut rng);
        b.iter_batched(
            || Solution::initial(&stats, &clusters, 0.25),
            |mut s| local_search(&mut s),
            BatchSize::SmallInput,
        )
    });
    // Ablation: flat (no clustering) vs clustered search.
    g.bench_function("local_search_flat_vs_clustered", |b| {
        let flat: Vec<_> = (0..stats.queries.len())
            .map(|q| qgraph_core::qcut::QueryCluster { members: vec![q] })
            .collect();
        b.iter_batched(
            || Solution::initial(&stats, &flat, 0.25),
            |mut s| local_search(&mut s),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload");
    g.sample_size(10);
    g.bench_function("road_network_8k", |b| {
        b.iter(|| {
            RoadNetworkGenerator::new(RoadNetworkConfig {
                num_cities: 16,
                vertices_per_city: 500,
                seed: 9,
                ..Default::default()
            })
            .generate()
        })
    });
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    let net = RoadNetworkGenerator::new(RoadNetworkConfig {
        num_cities: 8,
        vertices_per_city: 500,
        seed: 5,
        ..Default::default()
    })
    .generate();
    let graph = Arc::new(net.graph);
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.bench_function("reach_query_8w", |b| {
        b.iter_batched(
            || {
                let parts = HashPartitioner::default().partition(&graph, 8);
                SimEngine::new(
                    Arc::clone(&graph),
                    ClusterModel::scale_up(8),
                    parts,
                    SystemConfig::default(),
                )
            },
            |mut e| {
                let q = e.submit(ReachProgram::bounded(VertexId(0), 12));
                e.run();
                e.output(&q).map(Vec::len)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// The message-plane A/B: a burst of overlapping SSSP queries on a
/// hash-partitioned road network (every superstep crosses boundaries, so
/// inter-worker traffic dominates), with vertex-level combiners on vs
/// off. The `bench-smoke` CI job runs the same comparison through
/// `src/bin/msgplane_smoke.rs`, which also emits a JSON artifact.
fn bench_message_plane(c: &mut Criterion) {
    let net = RoadNetworkGenerator::new(RoadNetworkConfig {
        num_cities: 8,
        vertices_per_city: 400,
        seed: 11,
        ..Default::default()
    })
    .generate();
    let graph = Arc::new(net.graph);
    let n = graph.num_vertices() as u32;
    let queries: Vec<(VertexId, VertexId)> = (0..48u32)
        .map(|i| (VertexId((i * 37) % n), VertexId((i * 61 + 13) % n)))
        .collect();
    let mut g = c.benchmark_group("message_plane");
    g.sample_size(10);
    for (id, combiners) in [
        ("sssp_burst_combine_on", true),
        ("sssp_burst_combine_off", false),
    ] {
        let graph = Arc::clone(&graph);
        let queries = queries.clone();
        g.bench_function(id, move |b| {
            b.iter_batched(
                || {
                    let parts = HashPartitioner::default().partition(&graph, 8);
                    SimEngine::new(
                        Arc::clone(&graph),
                        ClusterModel::scale_up(8),
                        parts,
                        SystemConfig {
                            combiners,
                            ..Default::default()
                        },
                    )
                },
                |mut e| {
                    for &(s, t) in &queries {
                        e.submit(SsspProgram::new(s, t));
                    }
                    e.run();
                    e.report().total_remote_messages()
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// Mutation-plane primitives: overlay application, overlay-mode
/// neighbor reads, and CSR compaction — the costs the sim's
/// `mutation_apply_ns` / `compact_ns_per_edge` constants model.
fn bench_mutation_plane(c: &mut Criterion) {
    use qgraph_graph::Topology;
    use qgraph_workload::{edge_churn, ChurnConfig};

    let net = RoadNetworkGenerator::new(RoadNetworkConfig {
        num_cities: 4,
        vertices_per_city: 800,
        seed: 19,
        ..Default::default()
    })
    .generate();
    let graph = Arc::new(net.graph);
    let stream = edge_churn(&graph, &ChurnConfig::uniform(16, 64, 1.0, 9));

    let mut g = c.benchmark_group("mutation_plane");
    g.sample_size(10);
    let apply_graph = Arc::clone(&graph);
    let apply_stream = stream.clone();
    g.bench_function("apply_16x64_ops", move |b| {
        b.iter_batched(
            || Topology::new(Arc::clone(&apply_graph)),
            |mut topo| {
                for m in &apply_stream {
                    topo.apply(&m.batch);
                }
                topo.num_edges()
            },
            BatchSize::SmallInput,
        )
    });
    let mut dirty = Topology::new(Arc::clone(&graph));
    for m in &stream {
        dirty.apply(&m.batch);
    }
    let read_topo = dirty.clone();
    g.bench_function("overlay_neighbor_scan", move |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for v in read_topo.vertices() {
                acc += read_topo.neighbors(v).count();
            }
            acc
        })
    });
    g.bench_function("compact_rebuild", move |b| {
        b.iter(|| dirty.compacted().num_edges())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_partitioners,
    bench_qcut,
    bench_generation,
    bench_engine,
    bench_message_plane,
    bench_mutation_plane
);
criterion_main!(benches);
