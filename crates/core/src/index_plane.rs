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

/// Why a repair fell back to a full rebuild — each variant names the
/// point at which the damage cap was consulted. The discriminants are
/// the trace codes (`qgraph_trace::classify::CAUSES`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RebuildCause {
    /// No rebuild: the batch was repaired incrementally.
    #[default]
    None = 0,
    /// Classification alone flagged more full re-runs than the cap.
    PreFlagged = 1,
    /// The batch's footprint — root passes its removals touch at all,
    /// flagged or merely decremented — exceeded the cap before any pass
    /// ran.
    Footprint = 2,
    /// The backstop: full re-runs accumulated past the cap mid-sweep
    /// (cascading weakenings classification could not see); the passes
    /// already spent are in [`RepairSummary::sweep_passes`].
    SweepCap = 3,
}

/// What one repair pass did — returned by [`PointIndex::repair`] and
/// recorded as an [`IndexRepairEvent`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RepairSummary {
    /// Landmark roots whose passes were re-run (or resumed) in full.
    pub roots_rerun: usize,
    /// Root passes repaired by a seeded partial resume over the
    /// witness-invalidated region only (the cheap deletion path).
    pub partial_roots: usize,
    /// Witness-count decrements applied (direct hits plus cascade).
    pub witness_decrements: usize,
    /// Label entries invalidated because their witness count hit zero.
    pub entries_invalidated: usize,
    /// Label entries invalidated by the batch (on a rebuild: the whole
    /// pre-batch index, whichever exit the repair took).
    pub labels_removed: usize,
    /// Label entries (re)committed by the repair.
    pub labels_added: usize,
    /// Did the damage threshold trip a full scoped rebuild?
    /// (`rebuild_cause != None`, kept as a flag for report consumers.)
    pub rebuilt: bool,
    /// Which consultation of the damage cap tripped the rebuild.
    pub rebuild_cause: RebuildCause,
    /// Full passes re-run and then discarded by a
    /// [`RebuildCause::SweepCap`] bail (0 on every other exit).
    pub sweep_passes: usize,
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
    /// offline work (full rebuilds at mutation barriers, witness
    /// recounts). `0` = pick automatically. The engines forward
    /// [`SystemConfig::index_build_threads`](crate::SystemConfig) here
    /// at [`install_index`](crate::Engine::install_index) time; indexes
    /// without internal parallelism ignore it.
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
