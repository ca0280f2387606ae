//! Graph-churn generation: deterministic mutation streams for the
//! evolving-graph serving experiments (the mutation plane).
//!
//! Each generator produces a sequence of [`TimedMutation`]s — a
//! [`MutationBatch`] plus its arrival time under a reused
//! [`ArrivalPattern`] (uniform / Poisson / bursts). Feed the batches to
//! `SimEngine::mutate_at` (virtual time) or replay them against a live
//! `ThreadEngine` client. Generators track a private [`Topology`] replica
//! while generating, so removals always reference *live* edges and
//! re-openings restore the exact closed segment — apply the stream in
//! order to an engine seeded with the same base graph and the engine's
//! topology walks through the identical epochs.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use qgraph_graph::{Graph, MutationBatch, Topology, VertexId};

use crate::{arrival_times, ArrivalConfig, ArrivalPattern};

/// One mutation batch of an open-loop churn stream.
#[derive(Clone, Debug)]
pub struct TimedMutation {
    /// Arrival time in seconds from stream start.
    pub at_secs: f64,
    /// The batch to apply.
    pub batch: MutationBatch,
}

/// Configuration of one churn stream.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Number of mutation batches.
    pub batches: usize,
    /// Ops per batch.
    pub ops_per_batch: usize,
    /// Mean batch arrival rate (batches per second); ignored by
    /// [`ArrivalPattern::Bursts`].
    pub rate_per_sec: f64,
    /// Inter-arrival structure of the batches.
    pub pattern: ArrivalPattern,
    /// RNG seed (op selection and Poisson arrivals).
    pub seed: u64,
}

impl ChurnConfig {
    /// A uniform stream of `batches` batches of `ops_per_batch` ops.
    pub fn uniform(batches: usize, ops_per_batch: usize, rate_per_sec: f64, seed: u64) -> Self {
        ChurnConfig {
            batches,
            ops_per_batch,
            rate_per_sec,
            pattern: ArrivalPattern::Uniform,
            seed,
        }
    }

    /// A Poisson stream (the standard open-loop churn model).
    pub fn poisson(batches: usize, ops_per_batch: usize, rate_per_sec: f64, seed: u64) -> Self {
        ChurnConfig {
            pattern: ArrivalPattern::Poisson,
            ..Self::uniform(batches, ops_per_batch, rate_per_sec, seed)
        }
    }

    fn times(&self) -> Vec<f64> {
        arrival_times(&ArrivalConfig {
            count: self.batches,
            rate_per_sec: self.rate_per_sec,
            pattern: self.pattern,
            seed: self.seed ^ 0x6368_7572_6e21,
        })
    }
}

/// A random live edge of `topo`, if any: `(source, target, weight)`.
/// Uniform over vertices then over the vertex's out-edges (cheap, and
/// degree bias is irrelevant for churn purposes).
fn random_live_edge(topo: &Topology, rng: &mut SmallRng) -> Option<(u32, u32, f32)> {
    if topo.num_edges() == 0 {
        return None;
    }
    let n = topo.num_vertices();
    for _ in 0..4 * n {
        let v = VertexId(rng.gen_range(0..n as u32));
        let deg = topo.degree(v);
        if deg == 0 {
            continue;
        }
        let k = rng.gen_range(0..deg);
        if let Some((t, w)) = topo.neighbors(v).nth(k) {
            return Some((v.0, t.0, w));
        }
    }
    None
}

/// Did the step from `before` to `after` make some edge's cheapest
/// parallel heavier, or remove it — the class of batch that can lengthen
/// shortest paths (an index repairs those by rebuilding)? Read off the
/// two graphs, not a batch's events, so an edge inserted and removed
/// again, or a heavier parallel dropped, does not count.
pub fn nets_to_removal(before: &Topology, after: &Topology) -> bool {
    let cheapest = |t: &Topology, u: VertexId, v: VertexId| {
        t.neighbors(u)
            .filter(|&(x, _)| x == v)
            .map(|(_, w)| w)
            .reduce(f32::min)
    };
    before.vertices().any(|u| {
        before.neighbors(u).any(|(v, _)| {
            let was = cheapest(before, u, v).expect("the edge was just listed");
            cheapest(after, u, v).is_none_or(|now| now > was)
        })
    })
}

/// Unstructured edge churn: each op flips a fair coin between inserting a
/// random edge (weight in `[0.5, 2)`) and removing a random live one —
/// the adversarial baseline for Q-cut under topology drift.
pub fn edge_churn(graph: &Graph, cfg: &ChurnConfig) -> Vec<TimedMutation> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut topo = Topology::new(graph.clone());
    let n = topo.num_vertices() as u32;
    assert!(n >= 2, "edge churn needs at least two vertices");
    cfg.times()
        .into_iter()
        .map(|at_secs| {
            let mut batch = MutationBatch::new();
            for _ in 0..cfg.ops_per_batch {
                if rng.gen_bool(0.5) {
                    let a = rng.gen_range(0..n);
                    let mut b = rng.gen_range(0..n);
                    if b == a {
                        b = (b + 1) % n;
                    }
                    let w = 0.5 + 1.5 * rng.gen::<f64>() as f32;
                    batch.add_edge(a, b, w);
                } else if let Some((a, b, _)) = random_live_edge(&topo, &mut rng) {
                    batch.remove_edge(a, b);
                }
            }
            topo.apply(&batch);
            TimedMutation { at_secs, batch }
        })
        .collect()
}

/// Road-closure churn: each op either *closes* a random live segment
/// (removes both directions, remembering the weight) or *re-opens* a
/// previously closed one — the paper's road-network workload under
/// incident traffic. Closures outnumber re-openings 2:1 while anything
/// is closed, so the network degrades and recovers in waves.
pub fn road_closures(graph: &Graph, cfg: &ChurnConfig) -> Vec<TimedMutation> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x726f_6164);
    let mut topo = Topology::new(graph.clone());
    let mut closed: Vec<(u32, u32, f32)> = Vec::new();
    cfg.times()
        .into_iter()
        .map(|at_secs| {
            let mut batch = MutationBatch::new();
            for _ in 0..cfg.ops_per_batch {
                let reopen = !closed.is_empty() && rng.gen_bool(1.0 / 3.0);
                if reopen {
                    let seg = closed.swap_remove(rng.gen_range(0..closed.len()));
                    batch.add_undirected_edge(seg.0, seg.1, seg.2);
                } else if let Some((a, b, w)) = random_live_edge(&topo, &mut rng) {
                    batch.remove_undirected_edge(a, b);
                    closed.push((a, b, w));
                }
            }
            topo.apply(&batch);
            TimedMutation { at_secs, batch }
        })
        .collect()
}

/// Social-follow churn: new follow edges attach preferentially to
/// high-degree vertices (sampled by walking a random live edge to its
/// target, the classic preferential-attachment trick), and every few ops
/// a *new user* joins — an `AddVertex` followed in the same batch by
/// follows to popular accounts, exercising the engines' new-vertex
/// placement heuristic.
pub fn social_follows(graph: &Graph, cfg: &ChurnConfig) -> Vec<TimedMutation> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x666f_6c6c_6f77);
    let mut topo = Topology::new(graph.clone());
    cfg.times()
        .into_iter()
        .map(|at_secs| {
            let mut batch = MutationBatch::new();
            let mut next_id = topo.num_vertices() as u32;
            for op in 0..cfg.ops_per_batch {
                let n = next_id;
                // Preferential target: the head of a random live edge.
                let popular = random_live_edge(&topo, &mut rng)
                    .map(|(_, t, _)| t)
                    .unwrap_or_else(|| rng.gen_range(0..n));
                if op % 5 == 4 {
                    // A new user follows one popular account and one
                    // uniformly random one.
                    batch.add_vertex();
                    let fresh = next_id;
                    next_id += 1;
                    batch.add_edge(fresh, popular, 1.0);
                    let other = rng.gen_range(0..n);
                    if other != popular {
                        batch.add_edge(fresh, other, 1.0);
                    }
                } else {
                    let follower = rng.gen_range(0..n);
                    if follower != popular {
                        batch.add_edge(follower, popular, 1.0);
                    }
                }
            }
            topo.apply(&batch);
            TimedMutation { at_secs, batch }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgraph_graph::GraphBuilder;

    fn grid(n: u32) -> Graph {
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n - 1 {
            b.add_undirected_edge(i, i + 1, 1.0);
        }
        b.build()
    }

    fn replay(graph: &Graph, stream: &[TimedMutation]) -> Topology {
        let mut t = Topology::new(graph.clone());
        for m in stream {
            t.apply(&m.batch);
        }
        t
    }

    #[test]
    fn edge_churn_is_deterministic_and_applies_cleanly() {
        let g = grid(30);
        let cfg = ChurnConfig::uniform(8, 5, 2.0, 42);
        let a = edge_churn(&g, &cfg);
        let b = edge_churn(&g, &cfg);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.batch, y.batch, "seeded stream must replay");
            assert_eq!(x.at_secs, y.at_secs);
        }
        let t = replay(&g, &a);
        assert_eq!(t.epoch(), 8);
    }

    #[test]
    fn road_closures_reopen_what_they_closed() {
        let g = grid(40);
        let cfg = ChurnConfig::poisson(20, 3, 4.0, 7);
        let stream = road_closures(&g, &cfg);
        let t = replay(&g, &stream);
        // Every live edge weight matches the original segment weight (1.0):
        // re-openings restored what closures removed.
        for v in t.vertices() {
            for (_, w) in t.neighbors(v) {
                assert_eq!(w, 1.0);
            }
        }
        assert!(t.num_edges() <= g.num_edges());
        let times: Vec<f64> = stream.iter().map(|m| m.at_secs).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "monotone arrivals");
    }

    #[test]
    fn nets_to_removal_reads_the_cheapest_parallel() {
        let base = Topology::new(grid(4));
        let step = |build: &dyn Fn(&mut MutationBatch)| {
            let mut batch = MutationBatch::new();
            build(&mut batch);
            let mut after = base.clone();
            after.apply(&batch);
            nets_to_removal(&base, &after)
        };
        assert!(step(&|b| {
            b.remove_edge(0, 1);
        }));
        assert!(step(&|b| {
            b.set_weight(1, 2, 3.0);
        }));
        assert!(!step(&|b| {
            b.set_weight(1, 2, 0.5).add_edge(0, 3, 1.0);
        }));
        // Ephemeral edge; a heavier parallel that comes and goes.
        assert!(!step(&|b| {
            b.add_edge(0, 2, 1.0).remove_edge(0, 2);
        }));
        assert!(!step(&|b| {
            b.add_edge(0, 1, 9.0).remove_edge(0, 1).add_edge(0, 1, 1.0);
        }));
    }

    #[test]
    fn social_follows_grow_the_graph() {
        let g = grid(25);
        let cfg = ChurnConfig::uniform(6, 10, 1.0, 3);
        let stream = social_follows(&g, &cfg);
        let t = replay(&g, &stream);
        assert!(
            t.num_vertices() > 25,
            "new users joined ({} vertices)",
            t.num_vertices()
        );
        assert!(t.num_edges() > g.num_edges(), "follows only add edges");
    }
}
