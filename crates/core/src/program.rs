//! The vertex-centric programming model (paper §2).
//!
//! Each query is a pair `(f, V_sub)` of a vertex function and an initial
//! active vertex set. The vertex function iteratively recomputes
//! query-specific vertex data from incoming messages, under bulk
//! synchronous processing. We extend the paper's minimal model with
//! Pregel-style *aggregators*, which the paper's SSSP/POI queries need for
//! bounded search (prune expansion beyond the best known answer).

use qgraph_graph::{Topology, VertexId};

use crate::index_plane::{PointAnswer, PointQuery};

/// A vertex program: the `f` in the paper's query tuple `(f, V_sub)`.
///
/// Implementations must be deterministic functions of their inputs — the
/// engine's replay guarantees and the repartitioning correctness tests
/// rely on it.
pub trait VertexProgram: Send + Sync + 'static {
    /// Query-specific per-vertex data `D_v`. Created on first activation
    /// via [`VertexProgram::init_state`]; stored sparsely because localized
    /// queries touch a small fraction of the graph.
    type State: Clone + Send + 'static;
    /// Message exchanged along edges.
    type Message: Clone + Send + std::fmt::Debug + 'static;
    /// Global aggregate combined across workers at every query barrier and
    /// broadcast into the next superstep. Use `()` if unused.
    type Aggregate: Clone + Send + PartialEq + std::fmt::Debug + 'static;
    /// The query's final answer, extracted from the touched states.
    type Output: Send + 'static;

    /// A short program-kind label, used to tag [`crate::QueryOutcome`]s so
    /// mixed-workload reports stay legible per query type. Defaults to the
    /// type name; override with something terse ("sssp", "poi", ...).
    fn name(&self) -> &'static str {
        let full = std::any::type_name::<Self>();
        full.rsplit("::").next().unwrap_or(full)
    }

    /// The state a vertex holds before its first message arrives.
    fn init_state(&self) -> Self::State;

    /// The aggregator's identity element.
    fn aggregate_identity(&self) -> Self::Aggregate;

    /// Fold `b` into `a`. Must be commutative and associative.
    fn aggregate_combine(&self, a: &mut Self::Aggregate, b: &Self::Aggregate);

    /// Whether the aggregate is *sticky*: combined across the whole query
    /// run rather than reset each superstep. Bounds (SSSP's best target
    /// distance, POI's best tagged distance) are sticky; per-superstep
    /// quantities (e.g. a residual sum used for convergence detection) are
    /// not.
    fn aggregate_sticky(&self) -> bool {
        false
    }

    /// Combine `other` into `acc`, both addressed to the *same* vertex,
    /// and return `true`; or return `false` (leaving `acc` untouched) to
    /// keep the messages separate. The default declines: the program has
    /// no combiner and every message is delivered individually.
    ///
    /// A combiner must satisfy
    /// `compute(state, [a, b, rest…]) == compute(state, [combine(a,b), rest…])`
    /// for every message pair — in practice the same commutative,
    /// associative, *exactly representable* fold `compute` already applies
    /// (min for SSSP/BFS distances, OR for reachability flags). Exact
    /// folds keep results bit-identical to the program without its
    /// combiner ([`crate::programs::Uncombined`]), which is what the
    /// engine-wide equivalence property tests pin. A fold
    /// that is only *approximately* associative (a floating-point sum)
    /// may still opt in when it carries compensation in the message
    /// (Kahan/Neumaier partial sums, see `qgraph_algo`'s PPR residuals)
    /// and ships with a tolerance-based equivalence test instead of the
    /// bit-identical one; otherwise it should decline.
    ///
    /// The engines offer every message to it at both ends of the wire:
    /// sender-side when a superstep's remote messages (and the seed
    /// messages) are bucketed per destination worker, and receiver-side
    /// when the pending inbox is coalesced at the superstep freeze — N
    /// relaxations addressed to one vertex collapse to 1 before they are
    /// priced, shipped, or applied. To run a program without its
    /// combiner, submit it as [`crate::programs::Uncombined`].
    fn combine(&self, _acc: &mut Self::Message, _other: &Self::Message) -> bool {
        false
    }

    /// Messages that seed the query (sent to the paper's `V_sub`); for SSSP
    /// this is a zero-distance message to the start vertex.
    fn initial_messages(&self, graph: &Topology) -> Vec<(VertexId, Self::Message)>;

    /// The vertex function: fold `messages` into `state` and send new
    /// messages via `ctx`. Runs once per active vertex per superstep.
    fn compute(
        &self,
        graph: &Topology,
        vertex: VertexId,
        state: &mut Self::State,
        messages: &[Self::Message],
        ctx: &mut Context<'_, Self::Message, Self::Aggregate>,
    );

    /// Inspect the combined aggregate at a barrier; return `true` to
    /// terminate the query even if active vertices remain.
    fn should_terminate(&self, _aggregate: &Self::Aggregate) -> bool {
        false
    }

    /// Extract the query's answer from all states it touched.
    fn finalize(
        &self,
        graph: &Topology,
        states: &mut dyn Iterator<Item = (VertexId, Self::State)>,
    ) -> Self::Output;

    /// If this program is an index-eligible *point query* — a
    /// fixed-source, fixed-target distance or reachability question — its
    /// [`PointQuery`] form; `None` (the default) keeps the program on the
    /// traversal path unconditionally. A program returning `Some` here
    /// must also implement [`VertexProgram::output_from_answer`] so the
    /// index's answer can be surfaced through the program's typed output.
    fn point_query(&self) -> Option<PointQuery> {
        None
    }

    /// Convert an index's [`PointAnswer`] into this program's
    /// [`Output`](VertexProgram::Output). Returning `None` (the default)
    /// declines the answer and the query runs as a traversal after all —
    /// the safe fallback for mismatched answer shapes.
    fn output_from_answer(&self, _answer: &PointAnswer) -> Option<Self::Output> {
        None
    }
}

/// Per-vertex execution context handed to [`VertexProgram::compute`].
///
/// Collects outgoing messages and aggregate contributions; exposes the
/// previous superstep's combined aggregate.
pub struct Context<'a, M, A> {
    pub(crate) outgoing: &'a mut Vec<(VertexId, M)>,
    pub(crate) aggregate: &'a mut A,
    pub(crate) prev_aggregate: &'a A,
    pub(crate) combine: &'a dyn Fn(&mut A, &A),
}

impl<M, A> Context<'_, M, A> {
    /// Send `msg` to vertex `to`, activating it next superstep.
    #[inline]
    pub fn send(&mut self, to: VertexId, msg: M) {
        self.outgoing.push((to, msg));
    }

    /// Contribute `value` to this superstep's aggregate.
    #[inline]
    pub fn aggregate(&mut self, value: &A) {
        (self.combine)(self.aggregate, value);
    }

    /// The combined aggregate of the *previous* superstep (the identity in
    /// superstep 0).
    #[inline]
    pub fn prev_aggregate(&self) -> &A {
        self.prev_aggregate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_collects_messages_and_aggregates() {
        let mut out: Vec<(VertexId, u32)> = Vec::new();
        let mut agg = 0u64;
        let prev = 7u64;
        let combine = |a: &mut u64, b: &u64| *a += *b;
        let mut ctx = Context {
            outgoing: &mut out,
            aggregate: &mut agg,
            prev_aggregate: &prev,
            combine: &combine,
        };
        assert_eq!(*ctx.prev_aggregate(), 7);
        ctx.send(VertexId(3), 10);
        ctx.send(VertexId(4), 11);
        ctx.aggregate(&5);
        ctx.aggregate(&6);
        assert_eq!(out, vec![(VertexId(3), 10), (VertexId(4), 11)]);
        assert_eq!(agg, 11);
    }
}
