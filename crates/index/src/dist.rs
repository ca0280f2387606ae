//! Distance-comparison helpers — the index's "tolerance helpers".
//!
//! Every f32 comparison on label distances routes through this module
//! (qlint's `index-float-cmp` rule enforces it). Centralizing them
//! pins down the crate's floating-point contract in one place:
//!
//! - Relaxation and pruning use **exact** comparisons (`<`, `<=`,
//!   `==`): every path length is the same left-to-right sum of edge
//!   weights no matter which pass computed it, so equal paths compare
//!   equal bit-for-bit and the usual epsilon smearing would only
//!   *create* disagreement between build, repair, and the engine
//!   drivers (which must produce identical labels entry-for-entry).
//! - The one place genuinely different float *expressions* are
//!   compared — the chain-head support probe, where a 2-hop query sum
//!   `d(r,a) + w + d(b,v)` stands in for a stored single-sum entry —
//!   uses a relative slack ([`within_slack`]), erring toward a
//!   spurious full re-run and never a missed one.

/// Relative tolerance for comparisons between differently-associated
/// sums (see [`within_slack`]).
pub(crate) const REL_SLACK: f32 = 1e-4;

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

/// The candidate `nd` is strictly looser than `d` (a replacement entry
/// that failed to restore the old distance).
#[inline]
pub(crate) fn looser(nd: f32, d: f32) -> bool {
    nd > d
}

/// Exact distance equality. Sound here because both sides are built
/// from the same left-to-right edge-weight sums (see module docs).
#[inline]
pub(crate) fn same(a: f32, b: f32) -> bool {
    a == b
}

/// The edge `(u, v, w)` is a *tight strict* parent relation for entries
/// `du` at `u` and `dv` at `v`: `du < dv` and `du + w == dv`. This is
/// the witness predicate of the shortest-path DAG.
#[inline]
pub(crate) fn tight_via(du: f32, w: f32, dv: f32) -> bool {
    du < dv && du + w == dv
}

/// `sum` reaches `d` up to the relative slack. Used where the two
/// sides are *differently associated* sums (a 2-hop probe vs a stored
/// entry), so exact equality would under-report support.
#[inline]
pub(crate) fn within_slack(sum: f32, d: f32) -> bool {
    sum.is_finite() && sum <= d * (1.0 + REL_SLACK)
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
