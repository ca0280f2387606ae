//! Property-based tests for CSR construction.

use proptest::prelude::*;
use qgraph_graph::{validate, GraphBuilder, VertexId};

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
