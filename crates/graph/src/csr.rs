//! Compressed-sparse-row graph storage.

use crate::{EdgeId, VertexId, VertexProps};

/// An immutable directed graph in compressed-sparse-row form.
///
/// Out-edges of vertex `v` occupy the index range
/// `offsets[v.index()] .. offsets[v.index() + 1]` of the `targets` and
/// `weights` arrays. Construction goes through [`crate::GraphBuilder`].
///
/// The graph optionally carries [`VertexProps`] (coordinates, POI tags,
/// region labels); workload generators populate them, plain edge-list
/// loading leaves them empty.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    pub(crate) offsets: Vec<u32>,
    pub(crate) targets: Vec<VertexId>,
    pub(crate) weights: Vec<f32>,
    pub(crate) props: VertexProps,
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Iterate over `(target, weight)` pairs of the out-edges of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> NeighborIter<'_> {
        let i = v.index();
        let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        NeighborIter {
            targets: &self.targets[lo..hi],
            weights: &self.weights[lo..hi],
            pos: 0,
        }
    }

    /// The out-edge ids of `v`, as a range into the edge arrays.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> {
        let i = v.index();
        (self.offsets[i]..self.offsets[i + 1]).map(EdgeId)
    }

    /// Target vertex of edge `e`.
    #[inline]
    pub fn edge_target(&self, e: EdgeId) -> VertexId {
        self.targets[e.index()]
    }

    /// Weight of edge `e`.
    #[inline]
    pub fn edge_weight(&self, e: EdgeId) -> f32 {
        self.weights[e.index()]
    }

    /// Iterate over all vertex ids.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    /// Iterate over all edges as `(source, target, weight)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, f32)> + '_ {
        self.vertices()
            .flat_map(move |v| self.neighbors(v).map(move |(t, w)| (v, t, w)))
    }

    /// Vertex properties (coordinates, tags, regions). May be empty.
    #[inline]
    pub fn props(&self) -> &VertexProps {
        &self.props
    }

    /// Mutable access to vertex properties, used by workload generators to
    /// attach tags/regions after construction.
    #[inline]
    pub fn props_mut(&mut self) -> &mut VertexProps {
        &mut self.props
    }

    /// True if the graph stores a `v -> u` edge. O(degree(v)).
    pub fn has_edge(&self, v: VertexId, u: VertexId) -> bool {
        self.neighbors(v).any(|(t, _)| t == u)
    }
}

/// Iterator over `(target, weight)` pairs of one vertex's out-edges.
#[derive(Clone)]
pub struct NeighborIter<'a> {
    targets: &'a [VertexId],
    weights: &'a [f32],
    pos: usize,
}

impl Iterator for NeighborIter<'_> {
    type Item = (VertexId, f32);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let i = self.pos;
        if i < self.targets.len() {
            self.pos += 1;
            Some((self.targets[i], self.weights[i]))
        } else {
            None
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.targets.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> Graph {
        // 0 -> 1 (1.0), 0 -> 2 (2.0), 1 -> 3 (3.0), 2 -> 3 (1.0)
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 2.0);
        b.add_edge(1, 3, 3.0);
        b.add_edge(2, 3, 1.0);
        b.build()
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.degree(VertexId(0)), 2);
        assert_eq!(g.degree(VertexId(1)), 1);
        assert_eq!(g.degree(VertexId(3)), 0);
    }

    #[test]
    fn neighbors_sorted_by_insertion_per_source() {
        let g = diamond();
        let n: Vec<_> = g.neighbors(VertexId(0)).collect();
        assert_eq!(n, vec![(VertexId(1), 1.0), (VertexId(2), 2.0)]);
    }

    #[test]
    fn neighbor_iter_is_exact_size() {
        let g = diamond();
        let it = g.neighbors(VertexId(0));
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn edge_accessors() {
        let g = diamond();
        let eids: Vec<_> = g.out_edges(VertexId(0)).collect();
        assert_eq!(eids.len(), 2);
        assert_eq!(g.edge_target(eids[0]), VertexId(1));
        assert_eq!(g.edge_weight(eids[0]), 1.0);
    }

    #[test]
    fn edges_iterator_covers_all() {
        let g = diamond();
        let all: Vec<_> = g.edges().collect();
        assert_eq!(all.len(), 4);
        assert!(all.contains(&(VertexId(2), VertexId(3), 1.0)));
    }

    #[test]
    fn has_edge() {
        let g = diamond();
        assert!(g.has_edge(VertexId(0), VertexId(2)));
        assert!(!g.has_edge(VertexId(3), VertexId(0)));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.vertices().count(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(g.num_vertices(), 3);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 0);
            assert_eq!(g.neighbors(v).count(), 0);
        }
    }
}
