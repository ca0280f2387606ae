//! Distance-comparison helpers.
//!
//! Every f32 comparison on label distances routes through this module
//! (qlint's `index-float-cmp` rule enforces it). Centralizing them
//! pins down the crate's floating-point contract in one place:
//! relaxation and pruning use **exact** comparisons (`<`, `<=`). Every
//! path length is the same left-to-right sum of edge weights no matter
//! which pass computed it, so equal paths compare equal bit-for-bit and
//! the usual epsilon smearing would only *create* disagreement between
//! build, repair, and the engine drivers (which must produce identical
//! labels entry-for-entry). A prune compares such a path sum against a
//! 2-hop cover sum, which associates differently; exactness there costs
//! a few redundant entries (`build.rs`), never a wrong answer.

/// `cand` strictly improves on the held distance `cur`.
#[inline]
pub(crate) fn improves(cand: f32, cur: f32) -> bool {
    cand < cur
}

/// A cover at distance `held` dominates a candidate entry at `d`:
/// committing the candidate would be redundant (ties prune — the
/// higher-ranked hub wins them, keeping labels minimal).
#[inline]
pub(crate) fn covers(held: f32, d: f32) -> bool {
    held <= d
}

/// Total order on finite f32 distances for the Dijkstra heaps.
#[derive(Clone, Copy, PartialEq)]
pub(crate) struct OrdF32(pub(crate) f32);

impl Eq for OrdF32 {}

impl PartialOrd for OrdF32 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF32 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("finite distances")
    }
}
