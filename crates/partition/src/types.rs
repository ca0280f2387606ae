//! The assignment type shared by all partitioners and the engine.

use qgraph_graph::{Graph, VertexId};

/// Identifier of a worker (equivalently: a partition).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct WorkerId(pub u32);

impl WorkerId {
    /// The index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// A complete vertex→worker assignment.
///
/// This is the *dynamic* object of the paper's partitioning problem: the
/// assignment function `A : V × T → W` at one instant. The engine mutates it
/// during global barriers via [`Partitioning::move_vertex`].
#[derive(Clone, Debug, PartialEq)]
pub struct Partitioning {
    assignment: Vec<WorkerId>,
    num_workers: usize,
}

impl Partitioning {
    /// Build from an explicit assignment vector.
    ///
    /// # Panics
    /// Panics if any worker id is out of range or `num_workers == 0`.
    pub fn new(assignment: Vec<WorkerId>, num_workers: usize) -> Self {
        assert!(num_workers > 0, "need at least one worker");
        assert!(
            assignment.iter().all(|w| w.index() < num_workers),
            "assignment references a worker >= {num_workers}"
        );
        Partitioning {
            assignment,
            num_workers,
        }
    }

    /// All vertices on worker 0 (the trivial single-partition case).
    pub fn single(num_vertices: usize) -> Self {
        Partitioning {
            assignment: vec![WorkerId(0); num_vertices],
            num_workers: 1,
        }
    }

    /// Number of workers.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Number of vertices covered by the assignment.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.assignment.len()
    }

    /// The worker owning vertex `v`.
    #[inline]
    pub fn worker_of(&self, v: VertexId) -> WorkerId {
        self.assignment[v.index()]
    }

    /// Reassign `v` to `w`.
    #[inline]
    pub fn move_vertex(&mut self, v: VertexId, w: WorkerId) {
        debug_assert!(w.index() < self.num_workers);
        self.assignment[v.index()] = w;
    }

    /// Append one vertex assigned to `w` (the mutation plane's
    /// `AddVertex`: ids are dense, so the new vertex is
    /// `num_vertices() - 1` after the push).
    ///
    /// # Panics
    /// Panics if `w` is out of range.
    #[inline]
    pub fn push(&mut self, w: WorkerId) {
        assert!(
            w.index() < self.num_workers,
            "push assigns to worker {w} but there are only {} workers",
            self.num_workers
        );
        self.assignment.push(w);
    }

    /// Vertex count per worker.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_workers];
        for w in &self.assignment {
            sizes[w.index()] += 1;
        }
        sizes
    }

    /// The raw assignment slice.
    pub fn assignment(&self) -> &[WorkerId] {
        &self.assignment
    }
}

/// A static partitioning algorithm.
pub trait Partitioner {
    /// Produce an assignment of `graph`'s vertices onto `num_workers` workers.
    fn partition(&self, graph: &Graph, num_workers: usize) -> Partitioning;

    /// Short human-readable name (used in experiment tables).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_count_assignments() {
        let p = Partitioning::new(vec![WorkerId(0), WorkerId(1), WorkerId(1), WorkerId(0)], 2);
        assert_eq!(p.sizes(), vec![2, 2]);
        assert_eq!(p.num_vertices(), 4);
        assert_eq!(p.worker_of(VertexId(2)), WorkerId(1));
    }

    #[test]
    fn move_vertex_updates_assignment() {
        let mut p = Partitioning::new(vec![WorkerId(0); 3], 2);
        p.move_vertex(VertexId(1), WorkerId(1));
        assert_eq!(p.worker_of(VertexId(1)), WorkerId(1));
        assert_eq!(p.sizes(), vec![2, 1]);
    }

    #[test]
    fn push_appends_assignment() {
        let mut p = Partitioning::new(vec![WorkerId(0); 2], 2);
        p.push(WorkerId(1));
        assert_eq!(p.num_vertices(), 3);
        assert_eq!(p.worker_of(VertexId(2)), WorkerId(1));
        assert_eq!(p.sizes(), vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "only 2 workers")]
    fn push_out_of_range_panics() {
        let mut p = Partitioning::new(vec![WorkerId(0)], 2);
        p.push(WorkerId(2));
    }

    #[test]
    #[should_panic(expected = "references a worker")]
    fn out_of_range_worker_rejected() {
        Partitioning::new(vec![WorkerId(5)], 2);
    }

    #[test]
    fn single_puts_everything_on_worker_zero() {
        let p = Partitioning::single(10);
        assert_eq!(p.num_workers(), 1);
        assert_eq!(p.sizes(), vec![10]);
    }
}
