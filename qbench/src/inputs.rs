//! Input generation, timed stage by stage. The road network is the
//! benchmark's fixed map ([`MAP_SEED`]); the run's seed draws everything
//! that is traffic — the query stream, the point pairs, the churn
//! batches — and the hash partitioning. The engine receives the generated
//! inputs, never the seed.

#![forbid(unsafe_code)]

use std::any::Any;
use std::sync::Arc;

use qgraph_algo::{
    BfsProgram, ReachPointProgram, RoadAnswer, RoadProgram, SsspProgram, WccProgram,
};
use qgraph_bench::{build_network, partition_graph, GraphPreset, Strategy};
use qgraph_core::{
    EngineClient, MutationBatch, QueryId, SimEngine, SystemConfig, Topology, VertexProgram,
};
use qgraph_graph::{Graph, VertexId};
use qgraph_index::{IndexConfig, LabelIndex};
use qgraph_partition::Partitioning;
use qgraph_workload::{
    generate_point_queries, PairSkew, PointWorkloadConfig, QueryKind, RoadNetwork, WorkloadConfig,
    WorkloadGenerator,
};

use crate::check::SampleRng;
use crate::probe::{Ledger, Probe};
use crate::spans::Spans;
use crate::spec::{Size, Workload};

/// Seed of the road network itself. The map is one fixed city system;
/// a run's `--seed` varies the traffic on it. (Measured while sizing: a
/// map drawn per seed moves the label count of the 1.9k-vertex serving
/// graph by 2x and with it `setup_s`, `qps` and `peak_rss_mb` by 30-40 %
/// between seeds, far past any bound a regression gate could use.)
pub const MAP_SEED: u64 = 7;
/// Partitions of every engine (the paper's k = 8).
pub const PARTITIONS: usize = 8;
/// Depth of the serving mix's k-hop floods.
const BFS_DEPTH: u32 = 12;
/// Blocks of distinct queries generated; a longer window cycles.
const STREAM_BLOCKS: usize = 16;
/// Churn batches generated, one per `evolve-churn` block; the window
/// ends when they run out.
const CHURN_BATCHES: usize = 48;

/// Pool threads of every thread-runtime workload: `min(nproc, 4)`.
pub fn pool_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// One query of a stream, as plain data.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// `RoadProgram::sssp` — a hotspot shortest path.
    RoadSssp { source: VertexId, target: VertexId },
    /// `RoadProgram::poi` — nearest tagged vertex.
    RoadPoi { source: VertexId },
    /// `SsspProgram` — an index-eligible distance point query.
    Dist { source: VertexId, target: VertexId },
    /// `ReachPointProgram` — an index-eligible reachability point query.
    Reach { source: VertexId, target: VertexId },
    /// `BfsProgram` — a k-hop flood.
    Bfs { source: VertexId },
    /// `WccProgram` — a whole-graph analytic.
    Wcc,
}

/// A query's answer, whichever program produced it.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    Dist(Option<f32>),
    Nearest(Option<(VertexId, f32)>),
    Reach(bool),
    Hops(Vec<(VertexId, u32)>),
    Components(usize),
}

/// Where a query is submitted: a serving thread engine (optionally
/// probed) or a simulated engine.
pub trait Sink {
    fn put<P: VertexProgram>(&mut self, program: P) -> QueryId;
}

/// The driver thread's handle into a serving `ThreadEngine`.
pub struct ClientSink<'a> {
    pub client: &'a EngineClient,
    /// Wrap every program in a [`Probe`] (the traced run).
    pub ledger: Option<&'a Arc<Ledger>>,
}

impl Sink for ClientSink<'_> {
    fn put<P: VertexProgram>(&mut self, program: P) -> QueryId {
        match self.ledger {
            Some(ledger) => self.client.submit(Probe::new(program, ledger)).id(),
            None => self.client.submit(program).id(),
        }
    }
}

impl Sink for SimEngine {
    fn put<P: VertexProgram>(&mut self, program: P) -> QueryId {
        self.submit(program).id()
    }
}

impl Query {
    /// Submit the query's program.
    pub fn submit(&self, sink: &mut impl Sink) -> QueryId {
        match *self {
            Query::RoadSssp { source, target } => sink.put(RoadProgram::sssp(source, target)),
            Query::RoadPoi { source } => sink.put(RoadProgram::poi(source)),
            Query::Dist { source, target } => sink.put(SsspProgram::new(source, target)),
            Query::Reach { source, target } => sink.put(ReachPointProgram::new(source, target)),
            Query::Bfs { source } => sink.put(BfsProgram::new(source, BFS_DEPTH)),
            Query::Wcc => sink.put(WccProgram),
        }
    }

    /// Read the query's answer out of its output envelope (`None` when
    /// the envelope holds another program's output type).
    pub fn answer(&self, envelope: &(dyn Any + Send)) -> Option<Answer> {
        match self {
            Query::RoadSssp { .. } | Query::RoadPoi { .. } => {
                envelope.downcast_ref::<RoadAnswer>().map(|a| match *a {
                    RoadAnswer::Distance(d) => Answer::Dist(d),
                    RoadAnswer::Nearest(n) => Answer::Nearest(n),
                })
            }
            Query::Dist { .. } => envelope
                .downcast_ref::<Option<f32>>()
                .map(|d| Answer::Dist(*d)),
            Query::Reach { .. } => envelope.downcast_ref::<bool>().map(|r| Answer::Reach(*r)),
            Query::Bfs { .. } => envelope
                .downcast_ref::<Vec<(VertexId, u32)>>()
                .map(|h| Answer::Hops(h.clone())),
            Query::Wcc => envelope
                .downcast_ref::<usize>()
                .map(|c| Answer::Components(*c)),
        }
    }

    /// The sequential reference answer on `graph`.
    pub fn reference(&self, graph: &Graph) -> Answer {
        use qgraph_algo::{connected_component_of, dijkstra_to, k_hop, nearest_tagged};
        match *self {
            Query::RoadSssp { source, target } | Query::Dist { source, target } => {
                Answer::Dist(dijkstra_to(graph, source, target))
            }
            Query::RoadPoi { source } => Answer::Nearest(nearest_tagged(graph, source)),
            Query::Reach { source, target } => {
                Answer::Reach(dijkstra_to(graph, source, target).is_some())
            }
            Query::Bfs { source } => Answer::Hops(k_hop(graph, source, BFS_DEPTH)),
            Query::Wcc => {
                // HashMin labels a vertex with the smallest id that reaches
                // it, so its label count is the number of vertices no
                // smaller vertex reaches: sweep ids upward, claiming each
                // unclaimed vertex's forward component.
                let mut claimed = vec![false; graph.num_vertices()];
                let mut components = 0;
                for v in graph.vertices() {
                    if !claimed[v.index()] {
                        components += 1;
                        for u in connected_component_of(graph, v) {
                            claimed[u.index()] = true;
                        }
                    }
                }
                Answer::Components(components)
            }
        }
    }
}

impl Answer {
    /// Equal, with distances compared to 1e-4 relative: a label
    /// intersection sums `d(u,h) + d(h,v)` in another order than a
    /// traversal accumulates along the path.
    pub fn agrees_with(&self, reference: &Answer) -> bool {
        let close = |a: f32, b: f32| (a - b).abs() <= 1e-4 * a.abs().max(b.abs()).max(1.0);
        match (self, reference) {
            (Answer::Dist(Some(a)), Answer::Dist(Some(b))) => close(*a, *b),
            // Two tagged vertices at rounding distance of each other may
            // tie-break differently; the distance is what must agree.
            (Answer::Nearest(Some((_, a))), Answer::Nearest(Some((_, b)))) => close(*a, *b),
            (a, b) => a == b,
        }
    }
}

/// Seconds each set-up stage took.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub graph_s: f64,
    pub partition_s: f64,
    pub workload_s: f64,
    pub index_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.graph_s + self.partition_s + self.workload_s + self.index_s
    }
}

/// Everything a thread-runtime workload feeds its engine.
pub struct Inputs {
    pub workload: Workload,
    pub graph: Arc<Graph>,
    pub parts: Partitioning,
    pub cfg: SystemConfig,
    /// Queries per block.
    pub block: usize,
    /// The query stream; block `b` is the `b`-th slice of `block`
    /// queries, wrapping around.
    pub stream: Vec<Query>,
    /// The untimed warm-up's queries (drawn apart from the stream).
    pub warmup: Vec<Query>,
    /// `evolve-churn` only: batch `b` is sent in the middle of block `b`.
    pub batches: Vec<MutationBatch>,
    pub index: Option<LabelIndex>,
    pub times: SetupTimes,
}

impl Inputs {
    /// The queries of block `b`.
    pub fn block_queries(&self, b: usize) -> &[Query] {
        let blocks = self.stream.len() / self.block;
        let at = (b % blocks) * self.block;
        &self.stream[at..at + self.block]
    }
}

/// Run one set-up stage under a span, adding its duration to `into`.
fn stage<T>(spans: &Spans, name: &'static str, into: &mut f64, f: impl FnOnce() -> T) -> T {
    let span = spans.enter(name);
    let out = f();
    *into += span.finish();
    out
}

fn road_queries(net: &RoadNetwork, n: usize, poi: bool, seed: u64) -> Vec<Query> {
    WorkloadGenerator::new(net)
        .generate(&WorkloadConfig::single(n, poi, false, seed))
        .into_iter()
        .map(|s| match s.kind {
            QueryKind::Sssp { source, target } => Query::RoadSssp { source, target },
            QueryKind::Poi { source } => Query::RoadPoi { source },
        })
        .collect()
}

/// The serving mix: a fixed 100-slot pattern of 60 point queries (25 %
/// reachability, skew 1.1), 27 hotspot road queries alternating POI and
/// shortest path, and 13 k-hop floods; every 500th query is a WCC.
fn serving_mix(net: &RoadNetwork, n: usize, seed: u64) -> Vec<Query> {
    let live: Vec<VertexId> = net.graph.vertices().collect();
    let mut points = generate_point_queries(
        &live,
        &PointWorkloadConfig {
            count: n,
            skew: PairSkew::Skewed { exponent: 1.1 },
            reach_fraction: 0.25,
            seed,
        },
    )
    .into_iter();
    let mut sssp = road_queries(net, n, false, seed).into_iter();
    let mut poi = road_queries(net, n, true, seed ^ 0x51).into_iter();
    let mut floods = road_queries(net, n, false, seed ^ 0xB5).into_iter();
    let mut road_turn = 0usize;
    (0..n)
        .map(|i| {
            let slot = i % 100;
            if i % 500 == 499 {
                Query::Wcc
            } else if slot % 5 < 3 {
                let p = points.next().expect("one point query per slot");
                if p.reach {
                    Query::Reach {
                        source: p.source,
                        target: p.target,
                    }
                } else {
                    Query::Dist {
                        source: p.source,
                        target: p.target,
                    }
                }
            } else if (slot / 5 * 2 + slot % 5 - 3) % 3 == 2 {
                // Every third of the 40 non-point slots: 13 floods.
                match floods.next().expect("one flood source per slot") {
                    Query::RoadSssp { source, .. } => Query::Bfs { source },
                    other => other,
                }
            } else {
                road_turn += 1;
                if road_turn % 2 == 1 {
                    poi.next().expect("one poi query per slot")
                } else {
                    sssp.next().expect("one sssp query per slot")
                }
            }
        })
        .collect()
}

/// One batch per block, every one to the same recipe so that blocks stay
/// like for like: re-open the road segments the previous batch closed
/// and close a fresh *wave* of random live ones. The map stays "the base
/// minus one wave" from block 0 on, and the wave is sized so that the
/// overlay passes the engine's compaction threshold within the first
/// four blocks. (`qgraph_workload`'s generators were tried first, as
/// ISSUE 11 names them: `edge_churn`'s random long-range edges reshape a
/// 1.9k-vertex road map, and 2-op `road_closures` batches repair in 16 ms
/// or rebuild in 2.5 s depending on the segment hit — between them block
/// walls differed 2x from seed to seed.)
fn churn_batches(graph: &Graph, compact_fraction: f64, seed: u64) -> Vec<MutationBatch> {
    // A wave costs four overlay ops (two directions, closed then opened).
    let wave = (compact_fraction * graph.num_edges() as f64 / 12.0).ceil() as usize;
    let mut rng = SampleRng(seed ^ 0x6368_7572_6e21);
    let mut replica = Topology::new(graph.clone());
    let mut closed: Vec<(u32, u32, f32)> = Vec::new();
    (0..CHURN_BATCHES)
        .map(|_| {
            let mut batch = MutationBatch::new();
            for (a, b, w) in closed.drain(..) {
                batch.add_undirected_edge(a, b, w);
            }
            // The replica still has the previous wave closed, so a pick
            // can only repeat a segment of this wave.
            while closed.len() < wave {
                let v = VertexId(rng.below(replica.num_vertices()) as u32);
                let pick = rng.below(replica.degree(v).max(1));
                let Some((t, w)) = replica.neighbors(v).nth(pick) else {
                    continue;
                };
                let repeat =
                    |c: &(u32, u32, f32)| (c.0, c.1) == (v.0, t.0) || (c.0, c.1) == (t.0, v.0);
                if !closed.iter().any(repeat) {
                    batch.remove_undirected_edge(v.0, t.0);
                    closed.push((v.0, t.0, w));
                }
            }
            replica.apply(&batch);
            batch
        })
        .collect()
}

/// Generate a thread-runtime workload's inputs: the fixed map, and
/// `seed`'s traffic on it.
pub fn build_inputs(workload: Workload, seed: u64, size: &Size, spans: &Spans) -> Inputs {
    assert!(workload.threaded(), "sim-paper builds its own inputs");
    let mut times = SetupTimes::default();
    let roads = matches!(
        workload,
        Workload::RoadHash | Workload::RoadDomain | Workload::RoadQcut
    );
    let (scale, tag_probability) = if roads {
        (size.road_scale, 1.0 / 12_500.0)
    } else {
        (size.serve_scale, 1.0 / 200.0)
    };
    let net = stage(spans, "setup.graph", &mut times.graph_s, || {
        build_network(GraphPreset::BwLike { scale }, tag_probability, MAP_SEED)
    });
    let strategy = match workload {
        Workload::RoadDomain => Strategy::Domain,
        _ => Strategy::Hash,
    };
    let parts = stage(spans, "setup.partition", &mut times.partition_s, || {
        partition_graph(strategy, &net, PARTITIONS, seed)
    });
    let cfg = SystemConfig {
        pool_threads: pool_threads(),
        ..match workload {
            Workload::RoadQcut => SystemConfig::qgraph(),
            _ => SystemConfig::default(),
        }
    };
    let block = size.block(workload);
    let n = block * STREAM_BLOCKS;
    let (stream, warmup, batches) = stage(spans, "setup.workload", &mut times.workload_s, || {
        if roads {
            (
                road_queries(&net, n, false, seed),
                road_queries(&net, size.warmup, false, seed ^ 0xA11),
                Vec::new(),
            )
        } else {
            let batches = match workload {
                Workload::EvolveChurn => churn_batches(&net.graph, cfg.compact_fraction, seed),
                _ => Vec::new(),
            };
            (
                serving_mix(&net, n, seed),
                serving_mix(&net, size.warmup, seed ^ 0xA11),
                batches,
            )
        }
    });
    let graph = Arc::new(net.graph);
    let index = (!roads).then(|| {
        stage(spans, "setup.index", &mut times.index_s, || {
            LabelIndex::build(&Topology::new(Arc::clone(&graph)), IndexConfig::default())
        })
    });
    Inputs {
        workload,
        graph,
        parts,
        cfg,
        block,
        stream,
        warmup,
        batches,
        index,
        times,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_mix_follows_the_pattern() {
        let net = build_network(GraphPreset::BwLike { scale: 0.02 }, 1.0 / 200.0, 3);
        let mix = serving_mix(&net, 1000, 3);
        let count = |f: fn(&Query) -> bool| mix.iter().filter(|q| f(q)).count();
        assert_eq!(count(|q| matches!(q, Query::Wcc)), 2);
        let points = count(|q| matches!(q, Query::Dist { .. } | Query::Reach { .. }));
        let floods = count(|q| matches!(q, Query::Bfs { .. }));
        let roads = count(|q| matches!(q, Query::RoadSssp { .. } | Query::RoadPoi { .. }));
        // 60 / 13 / 27 per hundred, less the two slots WCC took.
        assert_eq!(points + floods + roads, 998);
        assert!((598..=600).contains(&points), "{points}");
        assert!((128..=130).contains(&floods), "{floods}");
        assert!((268..=270).contains(&roads), "{roads}");
        assert_eq!(mix, serving_mix(&net, 1000, 3), "same seed, same stream");
        assert_ne!(mix, serving_mix(&net, 1000, 4));
    }

    #[test]
    fn churn_waves_keep_the_map_stationary_and_cross_the_compaction_threshold() {
        let net = build_network(GraphPreset::BwLike { scale: 0.02 }, 0.0, 5);
        let batches = churn_batches(&net.graph, 0.25, 5);
        assert_eq!(batches.len(), CHURN_BATCHES);
        let wave = batches[0].len() / 2;
        assert!(batches[1..].iter().all(|b| b.len() == 4 * wave));
        let mut topo = Topology::new(net.graph.clone());
        for (b, batch) in batches[..4].iter().enumerate() {
            topo.apply(batch);
            // Always the base minus exactly one wave of segments.
            assert_eq!(
                topo.num_edges(),
                net.graph.num_edges() - 2 * wave,
                "block {b}"
            );
        }
        assert!(
            topo.overlay_fraction() >= 0.25,
            "{}",
            topo.overlay_fraction()
        );
        assert_ne!(batches, churn_batches(&net.graph, 0.25, 6));
    }

    #[test]
    fn wcc_reference_counts_components() {
        let mut b = qgraph_graph::GraphBuilder::new(5);
        b.add_undirected_edge(0, 1, 1.0);
        b.add_undirected_edge(3, 4, 1.0);
        b.add_edge(4, 2, 1.0);
        // Labels 0 0 2 3 3: vertex 2 keeps its own id, smaller than 3's.
        assert_eq!(Query::Wcc.reference(&b.build()), Answer::Components(3));
    }
}
