//! Localized (personalized) PageRank — the paper's future-work item (i):
//! "query locality for algorithms such as localized PageRank".
//!
//! Vertex-centric adaptation of the forward-push algorithm
//! (Andersen–Chung–Lang): each vertex holds probability mass `p` and
//! residual `r`; when `r` exceeds `epsilon · degree`, the vertex keeps
//! `alpha · r` and pushes `(1-alpha) · r` to its neighbours. The query
//! terminates when every residual is below threshold — naturally
//! localized around the source, exactly like the paper's road queries.

use qgraph_core::{Context, VertexProgram};
use qgraph_graph::{Topology, VertexId};

/// Personalized PageRank from `source` with teleport `alpha` and push
/// threshold `epsilon`.
#[derive(Clone, Debug)]
pub struct PprProgram {
    source: VertexId,
    alpha: f32,
    epsilon: f32,
}

impl PprProgram {
    /// A localized PageRank query. Typical values: `alpha` 0.15,
    /// `epsilon` 1e-4.
    pub fn new(source: VertexId, alpha: f32, epsilon: f32) -> Self {
        assert!((0.0..1.0).contains(&alpha), "alpha in (0,1)");
        assert!(epsilon > 0.0, "epsilon must be positive");
        PprProgram {
            source,
            alpha,
            epsilon,
        }
    }
}

/// Per-vertex PPR state: settled mass and pending residual.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PprState {
    /// Settled probability mass.
    pub p: f32,
    /// Residual mass not yet pushed.
    pub r: f32,
}

/// A residual-mass transfer carried as a compensated partial sum
/// (Neumaier's variant of Kahan summation): `sum` plus the accumulated
/// low-order error `c`. Folding transfers through [`Residual::add`]
/// loses far less precision than a plain `f32` running sum, which is
/// what makes PPR's message *combiner* admissible: regrouping additions
/// (combining is exactly that) perturbs the result by at most a few
/// ulps instead of accumulating O(n) rounding drift — the
/// tolerance-based equivalence property test pins the bound.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Residual {
    sum: f32,
    c: f32,
}

impl Residual {
    /// A single transfer of `mass`.
    pub fn new(mass: f32) -> Self {
        Residual { sum: mass, c: 0.0 }
    }

    /// Compensated add (Neumaier): accumulate `x`, tracking the rounding
    /// error of every addition in `c`.
    #[inline]
    pub fn add(&mut self, x: f32) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.c += (self.sum - t) + x;
        } else {
            self.c += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// Fold another compensated sum in.
    #[inline]
    pub fn merge(&mut self, other: &Residual) {
        self.add(other.sum);
        self.add(other.c);
    }

    /// The compensated total.
    #[inline]
    pub fn value(&self) -> f32 {
        self.sum + self.c
    }
}

impl VertexProgram for PprProgram {
    type State = PprState;
    /// Residual mass transferred along an edge, as a compensated sum.
    ///
    /// PPR's fold is a floating-point sum — only approximately
    /// associative, so unlike the min/OR programs its combined and
    /// uncombined runs are *tolerance*-equivalent rather than
    /// bit-identical (see [`VertexProgram::combine`]'s contract notes).
    /// Carrying Kahan/Neumaier compensation in the message keeps that
    /// tolerance at a few ulps, which unlocks the combiner for this
    /// sum-fold: N pushes addressed to one vertex cross the wire as one.
    type Message = Residual;
    type Aggregate = ();
    /// `(vertex, mass)` pairs with meaningful mass, sorted descending.
    type Output = Vec<(VertexId, f32)>;

    fn name(&self) -> &'static str {
        "ppr"
    }

    fn init_state(&self) -> PprState {
        PprState::default()
    }

    fn aggregate_identity(&self) {}

    fn aggregate_combine(&self, _a: &mut (), _b: &()) {}

    /// Compensated-sum combiner: transfers to one vertex fold into a
    /// single message. Approximately associative (see `Message` docs);
    /// equivalence with combining disabled is tolerance-based.
    fn combine(&self, acc: &mut Residual, other: &Residual) -> bool {
        acc.merge(other);
        true
    }

    fn initial_messages(&self, _graph: &Topology) -> Vec<(VertexId, Residual)> {
        vec![(self.source, Residual::new(1.0))]
    }

    fn compute(
        &self,
        graph: &Topology,
        vertex: VertexId,
        state: &mut PprState,
        messages: &[Residual],
        ctx: &mut Context<'_, Residual, ()>,
    ) {
        // Fold incoming transfers with the same compensated accumulation
        // the combiner uses, so combined and uncombined runs walk nearly
        // identical arithmetic.
        let mut acc = Residual::new(state.r);
        for m in messages {
            acc.merge(m);
        }
        state.r = acc.value();
        let degree = graph.degree(vertex);
        if degree == 0 {
            // Dangling vertex: keep everything.
            state.p += state.r;
            state.r = 0.0;
            return;
        }
        if state.r >= self.epsilon * degree as f32 {
            let r = state.r;
            state.p += self.alpha * r;
            state.r = 0.0;
            let share = (1.0 - self.alpha) * r / degree as f32;
            for (t, _) in graph.neighbors(vertex) {
                ctx.send(t, Residual::new(share));
            }
        }
        // Below threshold: hold the residual; a later message may push it
        // over, reactivating this vertex.
    }

    fn finalize(
        &self,
        _graph: &Topology,
        states: &mut dyn Iterator<Item = (VertexId, PprState)>,
    ) -> Vec<(VertexId, f32)> {
        let mut out: Vec<(VertexId, f32)> = states
            .map(|(v, s)| (v, s.p + self.alpha * s.r))
            .filter(|(_, p)| *p > 0.0)
            .collect();
        out.sort_by(|(va, a), (vb, b)| b.partial_cmp(a).expect("finite").then(va.cmp(vb)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgraph_core::programs::Uncombined;
    use qgraph_core::{SimEngine, SystemConfig};
    use qgraph_graph::Graph;
    use qgraph_graph::GraphBuilder;
    use qgraph_partition::{Partitioner, RangePartitioner};
    use qgraph_sim::ClusterModel;
    use std::sync::Arc;

    fn run_ppr(g: Arc<Graph>, s: u32, eps: f32) -> Vec<(VertexId, f32)> {
        let parts = RangePartitioner.partition(&g, 2);
        let mut e = SimEngine::new(g, ClusterModel::scale_up(2), parts, SystemConfig::default());
        let q = e.submit(PprProgram::new(VertexId(s), 0.15, eps));
        e.run();
        e.take_output(&q).unwrap()
    }

    fn path(n: u32) -> Arc<Graph> {
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n - 1 {
            b.add_undirected_edge(i, i + 1, 1.0);
        }
        Arc::new(b.build())
    }

    #[test]
    fn source_has_highest_mass() {
        let out = run_ppr(path(20), 10, 1e-4);
        assert_eq!(out[0].0, VertexId(10));
    }

    #[test]
    fn mass_is_conserved_approximately() {
        // Total settled+residual mass must stay ≤ 1 and close to 1 for a
        // small epsilon.
        let out = run_ppr(path(30), 15, 1e-6);
        let total: f32 = out.iter().map(|(_, p)| p).sum();
        assert!(total <= 1.0 + 1e-3, "total {total}");
        assert!(total > 0.5, "too much mass lost: {total}");
    }

    #[test]
    fn locality_grows_with_epsilon() {
        let tight = run_ppr(path(200), 100, 1e-2);
        let loose = run_ppr(path(200), 100, 1e-5);
        assert!(
            tight.len() < loose.len(),
            "larger epsilon ⇒ smaller scope ({} vs {})",
            tight.len(),
            loose.len()
        );
    }

    #[test]
    fn residual_compensation_beats_naive_summation() {
        // Summing many tiny values into a large one: the compensated
        // accumulator retains them, a plain f32 sum drops them all.
        let mut acc = Residual::new(1.0);
        let tiny = 1e-8f32;
        for _ in 0..1000 {
            acc.add(tiny);
        }
        let naive = (0..1000).fold(1.0f32, |s, _| s + tiny);
        let exact = 1.0f64 + 1000.0 * 1e-8;
        assert_eq!(naive, 1.0, "naive f32 summation loses every tiny term");
        // The compensated total is exact up to the final f32 rounding of
        // `sum + c` (one half-ulp of 1.00001, ~6e-8).
        assert!((acc.value() as f64 - exact).abs() < 1e-7, "{}", acc.value());
    }

    #[test]
    fn combined_and_uncombined_masses_agree_within_tolerance() {
        // The tolerance-based equivalence the combiner contract requires
        // for approximately-associative folds: same graph, PPR with its
        // combiner vs `Uncombined`, per-vertex masses within a few ulps of
        // each other.
        fn run<P: VertexProgram<Output = Vec<(VertexId, f32)>>>(
            g: &Arc<Graph>,
            program: P,
        ) -> Vec<(VertexId, f32)> {
            let parts = RangePartitioner.partition(g, 2);
            let cfg = SystemConfig::default();
            let mut e = SimEngine::new(Arc::clone(g), ClusterModel::scale_up(2), parts, cfg);
            let q = e.submit(program);
            e.run();
            e.take_output(&q).unwrap()
        }
        let g = path(40);
        let ppr = PprProgram::new(VertexId(20), 0.15, 1e-5);
        let on = run(&g, ppr.clone());
        let off = run(&g, Uncombined(ppr));
        let masses = |out: &[(VertexId, f32)]| {
            let mut m: Vec<(VertexId, f32)> = out.to_vec();
            m.sort_by_key(|(v, _)| *v);
            m
        };
        let (on, off) = (masses(&on), masses(&off));
        assert_eq!(
            on.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
            off.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
            "same vertex set"
        );
        for ((v, a), (_, b)) in on.iter().zip(&off) {
            assert!(
                (a - b).abs() <= 1e-5 * a.abs().max(*b).max(1e-3),
                "{v}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn isolated_source_keeps_all_mass() {
        let g = Arc::new(GraphBuilder::new(3).build());
        let out = run_ppr(g, 1, 1e-4);
        assert_eq!(out, vec![(VertexId(1), 1.0)]);
    }
}
