//! Index construction as engine work: landmark passes submitted in waves.
//!
//! Every vertex is a root. Ranks are processed in waves of
//! [`IndexConfig::wave`] roots; each wave submits one forward and one
//! backward [`PllPassProgram`] per root, all pruned against a *snapshot*
//! of the labels committed by earlier waves, then runs them as ordinary
//! engine queries (so construction exercises the same scheduling,
//! message, and barrier machinery as any other workload — and both
//! runtimes build identical labels, because each pass's result is
//! schedule-independent and the wave structure is deterministic).
//!
//! After a wave completes, its outputs are committed in rank order,
//! re-filtered against the *live* labels — everything committed by
//! earlier waves and by earlier roots of this wave. The wave passes
//! prune only against the pre-wave snapshot, so their propagating sets
//! are supersets; the live filter cuts them back toward the sequential
//! labeling. *Toward*, not *to*: a pass that propagated through a
//! vertex the sequential build would have pruned at settles the
//! vertices beyond it at their true distance, where the covering hub
//! ties in real arithmetic — and the 2-hop cover sum associates
//! differently from the path sum in f32, so the live filter's exact
//! comparison keeps entries a width-1 build never tests (on the
//! 1.9k-vertex road map widths 1 / 8 / 32 commit 151,184 / 154,258 /
//! 169,522 entries). What *is* identical is the labeling at one width
//! across the sequential builder, both engines and every thread count;
//! across widths the answers agree (to the rounding of the 2-hop sum),
//! the entry counts do not.

use std::sync::Arc;

use qgraph_core::Engine;

use crate::labels::{Direction, HubLabels};
use crate::program::{reverse_adjacency, PllPassProgram};
use crate::{IndexConfig, LabelIndex};

/// Build a [`LabelIndex`] by running the landmark passes on `engine`.
///
/// The labels cover the engine's topology at call time (the thread
/// runtime syncs with its coordinator first); the returned index is
/// valid through that epoch. Install it with
/// [`Engine::install_index`] to start serving point queries.
pub fn build_on_engine<E: Engine>(engine: &mut E, cfg: IndexConfig) -> LabelIndex {
    let topology = engine.topology_snapshot();
    let mut labels = HubLabels::empty(&topology);
    let rev = Arc::new(reverse_adjacency(&topology));
    let n = labels.order.len();
    let wave = cfg.wave.max(1);

    let mut rank = 0u32;
    while (rank as usize) < n {
        let end = (rank as usize + wave).min(n) as u32;
        let snapshot = Arc::new(labels.clone());
        let mut passes = Vec::with_capacity(2 * (end - rank) as usize);
        for r in rank..end {
            let root = snapshot.order[r as usize];
            for dir in [Direction::Forward, Direction::Backward] {
                let handle = engine.submit(PllPassProgram::new(
                    root,
                    r,
                    dir,
                    Arc::clone(&snapshot),
                    Arc::clone(&rev),
                ));
                passes.push((r, root, dir, handle));
            }
        }
        engine.run();
        for (r, root, dir, handle) in passes {
            let settled = engine
                .output(&handle)
                .expect("pll pass must complete")
                .clone();
            for (v, d) in settled {
                // Re-test against the live labels (earlier waves plus
                // earlier roots of this wave): the pass propagated under
                // the weaker snapshot filter, so this prunes its result
                // back toward the sequential labeling (module docs).
                let threshold = match dir {
                    Direction::Forward => labels.query_below(root, v, r),
                    Direction::Backward => labels.query_below(v, root, r),
                };
                if !crate::dist::covers(threshold, d) {
                    labels.commit(v, r, d, dir);
                }
            }
        }
        rank = end;
    }

    LabelIndex::from_labels(labels, topology.epoch(), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgraph_core::{EngineBuilder, PointAnswer, PointIndex, PointQuery};
    use qgraph_graph::{Graph, GraphBuilder, Topology, VertexId};

    fn gadget() -> Graph {
        // Two overlapping diamonds plus a dead-end and an unreachable tail.
        let mut b = GraphBuilder::new(8);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 4.0);
        b.add_edge(1, 3, 1.0);
        b.add_edge(2, 3, 1.0);
        b.add_edge(3, 4, 2.0);
        b.add_edge(1, 4, 5.0);
        b.add_edge(4, 5, 1.0);
        b.add_edge(6, 0, 1.0);
        b.add_edge(7, 6, 3.0);
        b.build()
    }

    #[test]
    fn engine_build_matches_sequential_build_answers() {
        let graph = gadget();
        let seq = LabelIndex::build(&Topology::new(graph.clone()), IndexConfig::default());
        for wave in [1usize, 3, 64] {
            let mut sim = EngineBuilder::new(graph.clone()).workers(3).build_sim();
            let built = build_on_engine(
                &mut sim,
                IndexConfig {
                    wave,
                    ..IndexConfig::default()
                },
            );
            for u in 0..8u32 {
                for v in 0..8u32 {
                    let q = PointQuery::Dist {
                        source: VertexId(u),
                        target: VertexId(v),
                    };
                    assert_eq!(built.serve(&q), seq.serve(&q), "wave={wave} {u}->{v}");
                }
            }
        }
    }

    #[test]
    fn every_builder_commits_identical_labels_at_one_width() {
        let graph = gadget();
        let cfg = IndexConfig {
            wave: 3,
            ..IndexConfig::default()
        };
        let seq = LabelIndex::build(&Topology::new(graph.clone()), cfg);
        let mut sim = EngineBuilder::new(graph.clone()).workers(2).build_sim();
        let mut threaded = EngineBuilder::new(graph).workers(2).build_threaded();
        let a = build_on_engine(&mut sim, cfg);
        let b = build_on_engine(&mut threaded, cfg);
        // One rank order and one labeling, whoever builds at this width.
        for other in [&b, &seq] {
            assert_eq!(a.labels().order, other.labels().order);
            assert_eq!(a.labels().out_labels, other.labels().out_labels);
            assert_eq!(a.labels().in_labels, other.labels().in_labels);
        }
    }

    #[test]
    fn serve_answers_reachability_and_bounds_checks() {
        let graph = gadget();
        let mut sim = EngineBuilder::new(graph).workers(2).build_sim();
        let index = build_on_engine(&mut sim, IndexConfig::default());
        assert_eq!(
            index.serve(&PointQuery::Reach {
                source: VertexId(7),
                target: VertexId(5),
            }),
            Some(PointAnswer::Reach(true))
        );
        assert_eq!(
            index.serve(&PointQuery::Reach {
                source: VertexId(5),
                target: VertexId(7),
            }),
            Some(PointAnswer::Reach(false))
        );
        // Out-of-range vertices decline rather than answer.
        assert_eq!(
            index.serve(&PointQuery::Dist {
                source: VertexId(0),
                target: VertexId(99),
            }),
            None
        );
    }
}
