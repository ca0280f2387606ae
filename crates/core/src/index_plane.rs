//! The engine-side face of the index plane.
//!
//! Point queries — `dist(u,v)` / `reach(u,v)` — do not need a BSP
//! traversal when a precomputed 2-hop label index is available (Quegel's
//! Hub2 serving mode; see `qgraph-index` for the construction). This
//! module defines the *vocabulary* the engines speak to such an index:
//!
//! * [`PointQuery`] / [`PointAnswer`] — the eligible query shapes and
//!   their answers, declared by programs via
//!   [`VertexProgram::point_query`](crate::VertexProgram::point_query);
//! * [`PointIndex`] — the object-safe trait an index implements to serve
//!   point queries at admission and to repair itself at mutation
//!   barriers;
//! * [`IndexRepairEvent`] — the per-batch repair record surfaced through
//!   [`EngineReport`](crate::EngineReport).
//!
//! The dependency points one way: `qgraph-core` knows only this trait,
//! `qgraph-index` implements it. The engines hold an installed index as
//! `Option<Box<dyn PointIndex>>` and consult it in the admission path
//! (see [`crate::sched::try_index_path`]); a query admitted at graph
//! epoch *e* is index-served only when the index reports
//! [`repaired_through`](PointIndex::repaired_through)` >= e`, so a stale
//! index silently degrades to traversal instead of serving wrong answers.

use qgraph_graph::{AppliedMutation, Topology, VertexId};

/// A query answerable by label intersection instead of traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointQuery {
    /// Shortest-path distance from `source` to `target`.
    Dist {
        /// Start vertex.
        source: VertexId,
        /// End vertex.
        target: VertexId,
    },
    /// Is `target` reachable from `source`?
    Reach {
        /// Start vertex.
        source: VertexId,
        /// End vertex.
        target: VertexId,
    },
}

impl PointQuery {
    /// The query's source vertex.
    pub fn source(&self) -> VertexId {
        match *self {
            PointQuery::Dist { source, .. } | PointQuery::Reach { source, .. } => source,
        }
    }

    /// The query's target vertex.
    pub fn target(&self) -> VertexId {
        match *self {
            PointQuery::Dist { target, .. } | PointQuery::Reach { target, .. } => target,
        }
    }
}

/// The answer an index returns for a [`PointQuery`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PointAnswer {
    /// Distance (`None` = unreachable), matching [`PointQuery::Dist`].
    Dist(Option<f32>),
    /// Reachability flag, matching [`PointQuery::Reach`].
    Reach(bool),
}

/// What one repair did — returned by [`PointIndex::repair`] and
/// recorded as an [`IndexRepairEvent`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RepairSummary {
    /// Root passes run: resumed or first-run passes on an incremental
    /// repair, every root's two passes on a rebuild.
    pub roots_rerun: usize,
    /// Label entries dropped by the batch (on a rebuild: the whole
    /// pre-batch index).
    pub labels_removed: usize,
    /// Label entries (re)committed by the repair.
    pub labels_added: usize,
    /// Were the labels rebuilt from scratch? For `qgraph-index` that is
    /// the reason too: the batch netted to an edge removal.
    pub rebuilt: bool,
}

/// The object-safe index contract the engines hold. Implemented by
/// `qgraph-index`'s `LabelIndex`; `core` itself ships no implementation.
pub trait PointIndex: Send {
    /// Answer `q` from the labels, or `None` when the index cannot
    /// (vertex out of range, unknown shape) — the engine then falls back
    /// to the traversal path. A `Some` answer must be *identical* to
    /// what the program's traversal would produce.
    fn serve(&self, q: &PointQuery) -> Option<PointAnswer>;

    /// The graph epoch the labels are valid through. The engines only
    /// index-serve queries admitted at epochs `<= repaired_through()`.
    fn repaired_through(&self) -> u64;

    /// Absorb one applied mutation batch: invalidate damaged labels,
    /// re-run affected landmark passes against `topology` (already the
    /// post-batch graph), and advance
    /// [`repaired_through`](PointIndex::repaired_through) to `epoch`.
    fn repair(
        &mut self,
        topology: &Topology,
        applied: &AppliedMutation,
        epoch: u64,
    ) -> RepairSummary;

    /// Hint how many worker threads the index may use for its own
    /// offline work (full rebuilds at mutation barriers). The engines
    /// forward a non-zero
    /// [`SystemConfig::index_build_threads`](crate::SystemConfig) here
    /// at [`install_index`](crate::Engine::install_index) time — zero
    /// leaves the index's own setting alone; indexes without internal
    /// parallelism ignore it.
    fn set_parallelism(&mut self, _threads: usize) {}
}

/// One index-repair record: a mutation batch absorbed by the installed
/// index at a stop-the-world barrier. Rides
/// [`EngineReport::index_repairs`](crate::EngineReport::index_repairs),
/// parallel to the mutation plane's
/// [`MutationEvent`](crate::MutationEvent)s.
#[derive(Clone, Copy, Debug)]
pub struct IndexRepairEvent {
    /// When the batch (and repair) applied (virtual seconds).
    pub applied_at: f64,
    /// The graph epoch the repair brought the index up to.
    pub epoch: u64,
    /// What the repair did.
    pub summary: RepairSummary,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_query_accessors() {
        let d = PointQuery::Dist {
            source: VertexId(1),
            target: VertexId(2),
        };
        let r = PointQuery::Reach {
            source: VertexId(3),
            target: VertexId(4),
        };
        assert_eq!(d.source(), VertexId(1));
        assert_eq!(d.target(), VertexId(2));
        assert_eq!(r.source(), VertexId(3));
        assert_eq!(r.target(), VertexId(4));
    }

    #[test]
    fn answers_compare_by_value() {
        assert_eq!(PointAnswer::Dist(Some(1.5)), PointAnswer::Dist(Some(1.5)));
        assert_ne!(PointAnswer::Dist(None), PointAnswer::Dist(Some(0.0)));
        assert_ne!(PointAnswer::Reach(true), PointAnswer::Reach(false));
    }
}
