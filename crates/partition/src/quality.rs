//! Partitioning quality metrics: the classic edge-cut, the paper's
//! query-cut (§2), balance, and query locality.

use qgraph_graph::{Graph, VertexId};

use crate::Partitioning;

/// Number of directed edges whose endpoints live on different workers — the
/// objective of query-*agnostic* edge-cut partitioning that Figure 1 shows
/// to be the wrong objective for CGA applications.
pub fn edge_cut(graph: &Graph, p: &Partitioning) -> usize {
    graph
        .edges()
        .filter(|&(s, t, _)| p.worker_of(s) != p.worker_of(t))
        .count()
}

/// Relative imbalance of per-worker loads: `max(load)/mean(load) - 1`.
/// Zero for perfect balance; the paper allows δ = 0.25.
pub fn imbalance(loads: &[usize]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let total: usize = loads.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mean = total as f64 / loads.len() as f64;
    let max = *loads.iter().max().expect("non-empty") as f64;
    max / mean - 1.0
}

/// The paper's **query-cut** metric: `Σ_q |{w : LS(q,w) ≠ ∅}|`, i.e. for
/// each query the number of workers holding at least one of its scope
/// vertices. A fully local query contributes 1.
///
/// `scopes` holds each query's *global* scope `GS(q)` as a vertex list.
pub fn query_cut(scopes: &[Vec<VertexId>], p: &Partitioning) -> usize {
    let mut total = 0usize;
    let mut touched = vec![false; p.num_workers()];
    for scope in scopes {
        for t in touched.iter_mut() {
            *t = false;
        }
        for &v in scope {
            touched[p.worker_of(v).index()] = true;
        }
        total += touched.iter().filter(|&&t| t).count();
    }
    total
}

/// Fraction of queries that are *completely local* (scope on one worker).
pub fn locality_fraction(scopes: &[Vec<VertexId>], p: &Partitioning) -> f64 {
    if scopes.is_empty() {
        return 1.0;
    }
    let local = scopes
        .iter()
        .filter(|scope| {
            let mut it = scope.iter();
            match it.next() {
                None => true,
                Some(&first) => {
                    let w = p.worker_of(first);
                    it.all(|&v| p.worker_of(v) == w)
                }
            }
        })
        .count();
    local as f64 / scopes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkerId;
    use qgraph_graph::GraphBuilder;

    fn path4() -> Graph {
        // 0 - 1 - 2 - 3 (undirected)
        let mut b = GraphBuilder::new(4);
        b.add_undirected_edge(0, 1, 1.0);
        b.add_undirected_edge(1, 2, 1.0);
        b.add_undirected_edge(2, 3, 1.0);
        b.build()
    }

    fn split_at_middle() -> Partitioning {
        Partitioning::new(vec![WorkerId(0), WorkerId(0), WorkerId(1), WorkerId(1)], 2)
    }

    #[test]
    fn edge_cut_counts_directed_crossings() {
        let g = path4();
        // Only 1<->2 crosses: 2 directed edges.
        assert_eq!(edge_cut(&g, &split_at_middle()), 2);
    }

    #[test]
    fn imbalance_zero_when_equal() {
        assert_eq!(imbalance(&[5, 5, 5]), 0.0);
        assert!((imbalance(&[10, 5, 0]) - 1.0).abs() < 1e-12); // max 10, mean 5
        assert_eq!(imbalance(&[]), 0.0);
        assert_eq!(imbalance(&[0, 0]), 0.0);
    }

    #[test]
    fn query_cut_counts_nonempty_local_scopes() {
        let p = split_at_middle();
        let scopes = vec![
            vec![VertexId(0), VertexId(1)], // local on w0 -> 1
            vec![VertexId(1), VertexId(2)], // spans both  -> 2
            vec![VertexId(3)],              // local on w1 -> 1
        ];
        assert_eq!(query_cut(&scopes, &p), 4);
    }

    #[test]
    fn locality_fraction_counts_fully_local() {
        let p = split_at_middle();
        let scopes = vec![
            vec![VertexId(0), VertexId(1)],
            vec![VertexId(1), VertexId(2)],
        ];
        assert_eq!(locality_fraction(&scopes, &p), 0.5);
        assert_eq!(locality_fraction(&[], &p), 1.0);
        assert_eq!(locality_fraction(&[vec![]], &p), 1.0);
    }

    #[test]
    fn figure1_style_example() {
        // The Figure 1 narrative: a cut separating the two query regions has
        // query-cut 2 (each query local) even if its edge-cut is larger.
        let g = path4();
        let p = split_at_middle();
        let scopes = [
            vec![VertexId(0), VertexId(1)],
            vec![VertexId(2), VertexId(3)],
        ];
        assert_eq!(query_cut(&scopes, &p), 2);
        assert_eq!(locality_fraction(&scopes, &p), 1.0);
        assert_eq!(edge_cut(&g, &p), 2);
        assert_eq!(imbalance(&p.sizes()), 0.0);
    }
}
