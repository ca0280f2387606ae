//! The pruned-landmark pass as a vertex program on the Q-Graph engine.
//!
//! One [`PllPassProgram`] query is one root's pass: a pruned relaxation
//! wave from the root (forward along out-edges, or backward along a
//! precomputed reverse adjacency). Pruning consults a *snapshot* of the
//! labels committed by strictly higher-ranked roots — the rank
//! restriction that makes pruned landmark labeling correct: if a
//! higher-ranked hub already witnesses a path to a vertex no longer than
//! the pass's candidate distance, the wave stops there.
//!
//! The pass's final per-vertex distances are schedule-independent (the
//! relaxation folds with `min`, and the prune predicate is a fixed
//! threshold per vertex), so both engines produce identical labels — the
//! property the cross-runtime conformance tests pin.

use std::sync::Arc;

use qgraph_core::{Context, VertexProgram};
use qgraph_graph::{Topology, VertexId};

use crate::labels::{Direction, HubLabels};

/// Reverse adjacency: `rev[v]` lists `(u, w)` for every live edge
/// `u → v`. Backward passes traverse it; the build/repair drivers
/// construct it once per topology epoch.
pub type RevAdj = Vec<Vec<(VertexId, f32)>>;

/// Build the reverse adjacency of `topology`'s live edges.
pub fn reverse_adjacency(topology: &Topology) -> RevAdj {
    let n = topology.num_vertices();
    let mut rev: RevAdj = vec![Vec::new(); n];
    for u in 0..n as u32 {
        let u = VertexId(u);
        for (v, w) in topology.neighbors(u) {
            rev[v.index()].push((u, w));
        }
    }
    rev
}

/// One pruned landmark pass from one root, in one direction.
///
/// Output: the pass's settled `(vertex, distance)` pairs, sorted by
/// vertex id. The driver applies the *same* prune predicate again at
/// commit time, against the live labels, so only vertices no
/// higher-ranked hub covers receive a label.
pub struct PllPassProgram {
    root: VertexId,
    root_rank: u32,
    dir: Direction,
    committed: Arc<HubLabels>,
    rev: Arc<RevAdj>,
}

impl PllPassProgram {
    /// A pass from `root` (priority `root_rank`) pruned against the
    /// `committed` snapshot; `rev` is consulted by backward passes only.
    pub fn new(
        root: VertexId,
        root_rank: u32,
        dir: Direction,
        committed: Arc<HubLabels>,
        rev: Arc<RevAdj>,
    ) -> Self {
        PllPassProgram {
            root,
            root_rank,
            dir,
            committed,
            rev,
        }
    }

    /// The prune threshold at `vertex`: the best distance between root
    /// and vertex witnessed by strictly higher-ranked hubs.
    pub(crate) fn prune_threshold(&self, vertex: VertexId) -> f32 {
        match self.dir {
            Direction::Forward => self
                .committed
                .query_below(self.root, vertex, self.root_rank),
            Direction::Backward => self
                .committed
                .query_below(vertex, self.root, self.root_rank),
        }
    }
}

impl VertexProgram for PllPassProgram {
    /// Best candidate distance seen so far.
    type State = f32;
    /// A candidate distance.
    type Message = f32;
    type Aggregate = ();
    /// Settled `(vertex, distance)` pairs, sorted by vertex id.
    type Output = Vec<(VertexId, f32)>;

    fn name(&self) -> &'static str {
        "pll"
    }

    fn init_state(&self) -> f32 {
        f32::INFINITY
    }

    fn aggregate_identity(&self) {}

    fn aggregate_combine(&self, _a: &mut (), _b: &()) {}

    /// Min-distance combiner, exact like SSSP's.
    fn combine(&self, acc: &mut f32, other: &f32) -> bool {
        *acc = acc.min(*other);
        true
    }

    fn initial_messages(&self, _graph: &Topology) -> Vec<(VertexId, f32)> {
        vec![(self.root, 0.0)]
    }

    fn compute(
        &self,
        graph: &Topology,
        vertex: VertexId,
        state: &mut f32,
        messages: &[f32],
        ctx: &mut Context<'_, f32, ()>,
    ) {
        let best = messages.iter().copied().fold(f32::INFINITY, f32::min);
        if !crate::dist::improves(best, *state) {
            return; // no improvement: stay silent
        }
        *state = best;
        // Rank-restricted pruning: a higher-ranked hub already covers
        // this vertex at least as tightly — the wave stops. (The prune
        // predicate is monotone in the distance, so a swallowed later
        // candidate could never have propagated either.)
        if crate::dist::covers(self.prune_threshold(vertex), best) {
            return;
        }
        match self.dir {
            Direction::Forward => {
                for (t, w) in graph.neighbors(vertex) {
                    ctx.send(t, best + w);
                }
            }
            Direction::Backward => {
                for &(t, w) in &self.rev[vertex.index()] {
                    ctx.send(t, best + w);
                }
            }
        }
    }

    fn finalize(
        &self,
        _graph: &Topology,
        states: &mut dyn Iterator<Item = (VertexId, f32)>,
    ) -> Vec<(VertexId, f32)> {
        let mut settled: Vec<(VertexId, f32)> = states.filter(|(_, d)| d.is_finite()).collect();
        settled.sort_by_key(|(v, _)| *v);
        settled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgraph_core::{SimEngine, SystemConfig};
    use qgraph_graph::{Graph, GraphBuilder};
    use qgraph_partition::{HashPartitioner, Partitioner};
    use qgraph_sim::ClusterModel;

    fn diamond() -> Arc<Graph> {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 3, 1.0);
        b.add_edge(0, 2, 5.0);
        b.add_edge(2, 3, 1.0);
        Arc::new(b.build())
    }

    #[test]
    fn reverse_adjacency_inverts_edges() {
        let topo = Topology::new(diamond());
        let rev = reverse_adjacency(&topo);
        assert_eq!(rev[3], vec![(VertexId(1), 1.0), (VertexId(2), 1.0)]);
        assert!(rev[0].is_empty());
    }

    #[test]
    fn forward_pass_settles_distances() {
        let graph = diamond();
        let topo = Topology::new(Arc::clone(&graph));
        let labels = Arc::new(HubLabels::empty(&topo));
        let rev = Arc::new(reverse_adjacency(&topo));
        let parts = HashPartitioner::default().partition(&graph, 2);
        let mut e = SimEngine::new(
            graph,
            ClusterModel::scale_up(2),
            parts,
            SystemConfig::default(),
        );
        let rank = labels.rank_of[0];
        let q = e.submit(PllPassProgram::new(
            VertexId(0),
            rank,
            Direction::Forward,
            labels,
            rev,
        ));
        e.run();
        let out = e.output(&q).unwrap();
        assert_eq!(
            out,
            &vec![
                (VertexId(0), 0.0),
                (VertexId(1), 1.0),
                (VertexId(2), 5.0),
                (VertexId(3), 2.0)
            ]
        );
    }

    #[test]
    fn backward_pass_settles_reverse_distances() {
        let graph = diamond();
        let topo = Topology::new(Arc::clone(&graph));
        let labels = Arc::new(HubLabels::empty(&topo));
        let rev = Arc::new(reverse_adjacency(&topo));
        let parts = HashPartitioner::default().partition(&graph, 2);
        let mut e = SimEngine::new(
            graph,
            ClusterModel::scale_up(2),
            parts,
            SystemConfig::default(),
        );
        let rank = labels.rank_of[3];
        let q = e.submit(PllPassProgram::new(
            VertexId(3),
            rank,
            Direction::Backward,
            labels,
            rev,
        ));
        e.run();
        let out = e.output(&q).unwrap();
        // Distances *to* vertex 3.
        assert_eq!(
            out,
            &vec![
                (VertexId(0), 2.0),
                (VertexId(1), 1.0),
                (VertexId(2), 1.0),
                (VertexId(3), 0.0)
            ]
        );
    }
}
