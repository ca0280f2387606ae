//! Property-based tests for CSR construction and the mutation overlay.

use proptest::prelude::*;
use qgraph_graph::{
    validate, EdgeChange, GraphBuilder, GraphMutation, MutationBatch, Topology, VertexId,
};

fn arb_edges(max_v: u32, max_e: usize) -> impl Strategy<Value = (u32, Vec<(u32, u32, f32)>)> {
    (1..=max_v).prop_flat_map(move |n| {
        let edges = prop::collection::vec((0..n, 0..n, 0.0f32..1000.0), 0..max_e);
        (Just(n), edges)
    })
}

proptest! {
    /// Every edge fed to the builder appears exactly once in the CSR, with
    /// its weight, grouped under its source.
    #[test]
    fn builder_preserves_multiset_of_edges((n, edges) in arb_edges(64, 256)) {
        let mut b = GraphBuilder::new(n as usize);
        for &(s, t, w) in &edges {
            b.add_edge(s, t, w);
        }
        let g = b.build();
        prop_assert_eq!(g.num_edges(), edges.len());

        let mut expected: Vec<(u32, u32, u32)> = edges
            .iter()
            .map(|&(s, t, w)| (s, t, w.to_bits()))
            .collect();
        expected.sort_unstable();
        let mut actual: Vec<(u32, u32, u32)> = g
            .edges()
            .map(|(s, t, w)| (s.0, t.0, w.to_bits()))
            .collect();
        actual.sort_unstable();
        prop_assert_eq!(expected, actual);
    }

    /// All built graphs satisfy the CSR invariants.
    #[test]
    fn built_graphs_validate((n, edges) in arb_edges(64, 256)) {
        let mut b = GraphBuilder::new(n as usize);
        for &(s, t, w) in &edges {
            b.add_edge(s, t, w);
        }
        prop_assert!(validate(&b.build()).is_ok());
    }

    /// Degrees sum to the edge count and match per-vertex counts.
    #[test]
    fn degrees_consistent((n, edges) in arb_edges(32, 128)) {
        let mut b = GraphBuilder::new(n as usize);
        let mut by_src = vec![0usize; n as usize];
        for &(s, t, w) in &edges {
            b.add_edge(s, t, w);
            by_src[s as usize] += 1;
        }
        let g = b.build();
        let total: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(total, edges.len());
        for v in 0..n {
            prop_assert_eq!(g.degree(VertexId(v)), by_src[v as usize]);
        }
    }
}

/// The naive reference of the mutation plane: one out-row per vertex,
/// each op applied by its documented meaning.
type Model = Vec<Vec<(VertexId, f32)>>;

const WEIGHTS: [f32; 4] = [0.0, 1.0, 2.0, 3.5];

/// One drawn op: `(kind, a, b, weight index)`. Ids are mapped into range
/// against the model when the batch is assembled.
type RawOp = (u32, u32, u32, u32);

fn arb_batches() -> impl Strategy<Value = Vec<(Vec<RawOp>, u32)>> {
    let op = (0u32..5, 0u32..1000, 0u32..1000, 0u32..4);
    prop::collection::vec((prop::collection::vec(op, 0..12), 0u32..2), 1..5)
}

/// A small base graph that always holds a self-loop and a parallel pair.
fn arb_base() -> impl Strategy<Value = (u32, Vec<(u32, u32, f32)>)> {
    (1..=6u32).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 0u32..4).prop_map(|(s, t, w)| (s, t, WEIGHTS[w as usize]));
        (Just(n), prop::collection::vec(edge, 0..14)).prop_map(|(n, mut edges)| {
            edges.push((0, 0, 1.0));
            edges.push((n - 1, 0, 2.0));
            edges.push((n - 1, 0, 3.5));
            (n, edges)
        })
    })
}

/// Turn a raw op into a mutation in range for the model's vertex count,
/// aiming `RemoveEdge` / `SetWeight` at a live edge half of the time.
fn to_op(model: &Model, (kind, a, b, w): RawOp) -> GraphMutation {
    let n = model.len() as u32;
    let from = VertexId(a % n);
    let row = &model[from.index()];
    let to = if b % 2 == 0 && !row.is_empty() {
        row[(b / 2) as usize % row.len()].0
    } else {
        VertexId(b % n)
    };
    let weight = WEIGHTS[w as usize];
    match kind {
        0 => GraphMutation::AddVertex,
        1 => GraphMutation::RemoveVertex(from),
        2 => GraphMutation::AddEdge { from, to, weight },
        3 => GraphMutation::RemoveEdge { from, to },
        _ => GraphMutation::SetWeight { from, to, weight },
    }
}

/// Apply `op` to the model, returning its live-edge effects in the order
/// `EdgeChange` documents.
fn model_apply(model: &mut Model, op: GraphMutation) -> Vec<EdgeChange> {
    let mut changes = Vec::new();
    match op {
        GraphMutation::AddVertex => model.push(Vec::new()),
        GraphMutation::AddEdge { from, to, weight } => {
            model[from.index()].push((to, weight));
            changes.push(EdgeChange::Inserted { from, to, weight });
        }
        GraphMutation::RemoveEdge { from, to } => {
            for &(t, weight) in &model[from.index()] {
                if t == to {
                    changes.push(EdgeChange::Removed { from, to, weight });
                }
            }
            model[from.index()].retain(|&(t, _)| t != to);
        }
        GraphMutation::SetWeight { from, to, weight } => {
            for e in model[from.index()].iter_mut().filter(|e| e.0 == to) {
                if e.1 != weight {
                    changes.push(EdgeChange::Reweighted {
                        from,
                        to,
                        old: e.1,
                        new: weight,
                    });
                }
                e.1 = weight;
            }
        }
        GraphMutation::RemoveVertex(v) => {
            for (t, weight) in std::mem::take(&mut model[v.index()]) {
                changes.push(EdgeChange::Removed {
                    from: v,
                    to: t,
                    weight,
                });
            }
            for (u, row) in model.iter_mut().enumerate() {
                for &(_, weight) in row.iter().filter(|e| e.0 == v) {
                    changes.push(EdgeChange::Removed {
                        from: VertexId(u as u32),
                        to: v,
                        weight,
                    });
                }
                row.retain(|&(t, _)| t != v);
            }
        }
    }
    changes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every op of every batch means on the overlay what it means on a
    /// plain adjacency list: same counts, same rows in the same order,
    /// same edge changes in the same order — compacted between batches
    /// or not.
    #[test]
    fn topology_ops_match_the_adjacency_model((n, edges) in arb_base(), batches in arb_batches()) {
        let mut b = GraphBuilder::new(n as usize);
        for &(s, t, w) in &edges {
            b.add_edge(s, t, w);
        }
        let g = b.build();
        let mut model: Model = g.vertices().map(|v| g.neighbors(v).collect()).collect();
        let mut topo = Topology::new(g);
        for (raw, compact) in batches {
            let mut batch = MutationBatch::new();
            let mut expected = Vec::new();
            for r in raw {
                let op = to_op(&model, r);
                batch.push(op);
                expected.extend(model_apply(&mut model, op));
            }
            let applied = topo.apply(&batch);
            if compact == 1 {
                topo = topo.compacted();
            }
            prop_assert_eq!(applied.edge_changes, expected);
            prop_assert_eq!(topo.num_vertices(), model.len());
            prop_assert_eq!(topo.num_edges(), model.iter().map(Vec::len).sum::<usize>());
            for v in topo.vertices() {
                let row = &model[v.index()];
                prop_assert_eq!(&topo.neighbors(v).collect::<Vec<_>>(), row, "vertex {}", v);
                prop_assert_eq!(topo.degree(v), row.len());
                for u in topo.vertices() {
                    prop_assert_eq!(topo.has_edge(v, u), row.iter().any(|e| e.0 == u));
                }
            }
        }
    }
}
