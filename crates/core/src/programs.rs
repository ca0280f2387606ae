//! Small built-in vertex programs used by tests, docs, and examples.
//! The paper's evaluation programs (SSSP, POI, …) live in `qgraph-algo`.

use qgraph_graph::{Topology, VertexId};

use crate::program::{Context, VertexProgram};

/// Reachability: floods from a source; the output is the set of reached
/// vertices. The simplest possible localized query — handy for exercising
/// the engine machinery.
#[derive(Clone, Debug)]
pub struct ReachProgram {
    source: VertexId,
    /// Stop flooding after this many hops (`u32::MAX` = unbounded).
    max_hops: u32,
}

impl ReachProgram {
    /// Unbounded reachability from `source`.
    pub fn new(source: VertexId) -> Self {
        ReachProgram {
            source,
            max_hops: u32::MAX,
        }
    }

    /// Reachability limited to `max_hops` hops.
    pub fn bounded(source: VertexId, max_hops: u32) -> Self {
        ReachProgram { source, max_hops }
    }
}

/// Per-vertex state: visited flag + hop distance.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReachState {
    visited: bool,
    hops: u32,
}

impl VertexProgram for ReachProgram {
    type State = ReachState;
    /// The hop depth at which the vertex is reached.
    type Message = u32;
    type Aggregate = ();
    type Output = Vec<VertexId>;

    fn name(&self) -> &'static str {
        "reach"
    }

    fn init_state(&self) -> ReachState {
        ReachState::default()
    }

    fn aggregate_identity(&self) {}

    fn aggregate_combine(&self, _a: &mut (), _b: &()) {}

    /// Min-hop combiner: `compute` folds incoming hop depths with `min`,
    /// so N flood messages to one vertex collapse to the smallest.
    fn combine(&self, acc: &mut u32, other: &u32) -> bool {
        *acc = (*acc).min(*other);
        true
    }

    fn initial_messages(&self, _graph: &Topology) -> Vec<(VertexId, u32)> {
        vec![(self.source, 0)]
    }

    fn compute(
        &self,
        graph: &Topology,
        vertex: VertexId,
        state: &mut ReachState,
        messages: &[u32],
        ctx: &mut Context<'_, u32, ()>,
    ) {
        if state.visited {
            return; // first activation is already the BFS level
        }
        state.visited = true;
        state.hops = messages.iter().copied().min().unwrap_or(0);
        if state.hops < self.max_hops {
            for (t, _) in graph.neighbors(vertex) {
                ctx.send(t, state.hops + 1);
            }
        }
    }

    fn finalize(
        &self,
        _graph: &Topology,
        states: &mut dyn Iterator<Item = (VertexId, ReachState)>,
    ) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = states.filter(|(_, s)| s.visited).map(|(v, _)| v).collect();
        out.sort_unstable();
        out
    }
}

/// A synthetic program that performs a fixed number of supersteps over a
/// fixed vertex set — used by barrier/scheduling tests that need precise
/// control over iteration structure.
#[derive(Clone, Debug)]
pub struct PingProgram {
    /// The vertices that ping each other.
    pub ring: Vec<VertexId>,
    /// Number of rounds to run.
    pub rounds: u32,
}

impl VertexProgram for PingProgram {
    /// Rounds completed at this vertex.
    type State = u32;
    /// The round number being propagated.
    type Message = u32;
    type Aggregate = ();
    type Output = u32;

    fn name(&self) -> &'static str {
        "ping"
    }

    fn init_state(&self) -> u32 {
        0
    }

    fn aggregate_identity(&self) {}

    fn aggregate_combine(&self, _a: &mut (), _b: &()) {}

    fn initial_messages(&self, _graph: &Topology) -> Vec<(VertexId, u32)> {
        self.ring.iter().map(|&v| (v, 0)).collect()
    }

    fn compute(
        &self,
        _graph: &Topology,
        vertex: VertexId,
        state: &mut u32,
        messages: &[u32],
        ctx: &mut Context<'_, u32, ()>,
    ) {
        let round = messages.iter().copied().max().unwrap_or(0);
        *state = (*state).max(round);
        if round + 1 < self.rounds {
            // Ping the next ring member.
            let idx = self
                .ring
                .iter()
                .position(|&v| v == vertex)
                .expect("vertex in ring");
            let next = self.ring[(idx + 1) % self.ring.len()];
            ctx.send(next, round + 1);
        }
    }

    fn finalize(
        &self,
        _graph: &Topology,
        states: &mut dyn Iterator<Item = (VertexId, u32)>,
    ) -> u32 {
        states.map(|(_, s)| s).max().unwrap_or(0)
    }
}

/// Test program for the superstep close: one active vertex that forever
/// activates the vertex `hop` ids on (itself when 0), contributing 1 to a
/// summed aggregate every superstep — per superstep, or over the run when
/// `sticky` — and stopping once the aggregate reaches `stop_at`, with the
/// last message unread.
#[cfg(test)]
#[derive(Clone, Debug)]
pub(crate) struct Tally {
    pub seed: VertexId,
    pub hop: u32,
    pub sticky: bool,
    pub stop_at: u64,
}

#[cfg(test)]
impl VertexProgram for Tally {
    type State = ();
    type Message = ();
    type Aggregate = u64;
    type Output = ();

    fn name(&self) -> &'static str {
        "tally"
    }
    fn init_state(&self) {}
    fn aggregate_identity(&self) -> u64 {
        0
    }
    fn aggregate_combine(&self, a: &mut u64, b: &u64) {
        *a += *b;
    }
    fn aggregate_sticky(&self) -> bool {
        self.sticky
    }
    fn initial_messages(&self, _: &Topology) -> Vec<(VertexId, ())> {
        vec![(self.seed, ())]
    }
    fn compute(
        &self,
        _: &Topology,
        vertex: VertexId,
        _: &mut (),
        _: &[()],
        ctx: &mut Context<'_, (), u64>,
    ) {
        ctx.aggregate(&1);
        ctx.send(VertexId(vertex.0 + self.hop), ());
    }
    fn should_terminate(&self, aggregate: &u64) -> bool {
        *aggregate >= self.stop_at
    }
    fn finalize(&self, _: &Topology, _: &mut dyn Iterator<Item = (VertexId, ())>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgraph_graph::GraphBuilder;

    #[test]
    fn reach_initial_messages_seed_source() {
        let g = Topology::new(GraphBuilder::new(2).build());
        let p = ReachProgram::new(VertexId(1));
        assert_eq!(p.initial_messages(&g), vec![(VertexId(1), 0)]);
    }

    #[test]
    fn reach_finalize_sorts_visited() {
        let g = Topology::new(GraphBuilder::new(3).build());
        let p = ReachProgram::new(VertexId(0));
        let mut it = vec![
            (
                VertexId(2),
                ReachState {
                    visited: true,
                    hops: 0,
                },
            ),
            (
                VertexId(0),
                ReachState {
                    visited: true,
                    hops: 0,
                },
            ),
            (
                VertexId(1),
                ReachState {
                    visited: false,
                    hops: 0,
                },
            ),
        ]
        .into_iter();
        assert_eq!(p.finalize(&g, &mut it), vec![VertexId(0), VertexId(2)]);
    }

    #[test]
    fn reach_combiner_keeps_min_hop_and_ping_declines() {
        let p = ReachProgram::new(VertexId(0));
        let mut acc = 5u32;
        assert!(p.combine(&mut acc, &3));
        assert!(p.combine(&mut acc, &7));
        assert_eq!(acc, 3);
        // Ping keeps the default no-combiner: its messages are control
        // flow (round numbers), exercised individually by barrier tests.
        let ping = PingProgram {
            ring: vec![],
            rounds: 0,
        };
        let mut m = 1u32;
        assert!(!ping.combine(&mut m, &2));
        assert_eq!(m, 1);
    }

    #[test]
    fn ping_ring_round_limit() {
        let g = Topology::new(GraphBuilder::new(4).build());
        let p = PingProgram {
            ring: vec![VertexId(0), VertexId(1)],
            rounds: 3,
        };
        // Round 2 is the last sent round (0-based: rounds 0,1,2).
        let mut out: Vec<(VertexId, u32)> = Vec::new();
        let mut agg = ();
        let prev = ();
        let combine = |_: &mut (), _: &()| {};
        let mut state = 0;
        let mut ctx = Context {
            outgoing: &mut out,
            aggregate: &mut agg,
            prev_aggregate: &prev,
            combine: &combine,
        };
        p.compute(&g, VertexId(0), &mut state, &[2], &mut ctx);
        assert!(out.is_empty(), "round 2 of 3 must not send a 4th round");
    }
}
