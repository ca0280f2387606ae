//! Finalize over states split across partitions equals finalize over
//! the same states in one partition, for every program of `qgraph-algo`.
//!
//! At a query's end the engine hands the program's `finalize` one
//! iterator chained over the collected locals' own state maps, local
//! after local, with no merge into one map: a vertex's state lives on its
//! owner alone, so nothing needs merging. What a program may see is
//! therefore any split of its states into locals, each in its own map
//! order. Each program here is fed one state set whole (ascending and
//! descending) and split across 2, 3 and 5 locals by vertex id (each
//! local's states descending, the locals in partition order and
//! reversed), and must give one answer. The sets hold the ties a program
//! breaks: two nearest POIs at one distance, two PPR scores that are
//! equal, repeated WCC labels.

use std::fmt::Debug;

use qgraph_algo::{
    BfsProgram, PoiProgram, PprProgram, ReachPointProgram, RoadAnswer, RoadProgram, SsspProgram,
    WccProgram,
};
use qgraph_core::VertexProgram;
use qgraph_graph::{GraphBuilder, Topology, VertexId};

const VERTICES: usize = 12;

/// Every order the test feeds `states` in: whole, ascending and
/// descending; split across `k` locals by `v mod k`, in partition order
/// and reversed.
fn orders<S: Clone>(states: &[(VertexId, S)]) -> Vec<Vec<(VertexId, S)>> {
    let mut ascending = states.to_vec();
    ascending.sort_by_key(|(v, _)| *v);
    let descending: Vec<_> = ascending.iter().rev().cloned().collect();
    let mut out = vec![ascending, descending.clone()];
    for k in [2, 3, 5] {
        let of = |p: usize| {
            descending
                .iter()
                .filter(move |(v, _)| v.0 as usize % k == p)
        };
        let mut locals: Vec<Vec<_>> = (0..k).map(|p| of(p).cloned().collect()).collect();
        out.push(locals.concat());
        locals.reverse();
        out.push(locals.concat());
    }
    out
}

/// `program`'s answer over `states`, the same in every order; returned.
fn split_invariant<P>(program: &P, graph: &Topology, states: &[(VertexId, P::State)]) -> P::Output
where
    P: VertexProgram,
    P::Output: PartialEq + Debug,
{
    let mut answers = orders(states)
        .into_iter()
        .map(|order| program.finalize(graph, &mut order.into_iter()));
    let first = answers.next().expect("at least one order");
    for (i, other) in answers.enumerate() {
        assert_eq!(other, first, "{}: order {}", program.name(), i + 1);
    }
    first
}

/// `VERTICES` vertices, no edges; vertices 2, 5, 7 and 9 carry a tag.
fn graph() -> Topology {
    let mut g = GraphBuilder::new(VERTICES).build();
    g.props_mut().tags = (0..VERTICES).map(|v| [2, 5, 7, 9].contains(&v)).collect();
    Topology::new(g)
}

fn at<S: Clone>(pairs: &[(u32, S)]) -> Vec<(VertexId, S)> {
    pairs
        .iter()
        .map(|(v, s)| (VertexId(*v), s.clone()))
        .collect()
}

/// Distances over most vertices: 5 and 7 are the nearest tagged (3.0
/// each), untagged 1 and 4 are nearer, 9 is tagged but unreached.
fn distances() -> Vec<(VertexId, f32)> {
    let d = [
        0.0,
        1.0,
        4.0,
        2.5,
        1.5,
        3.0,
        6.0,
        3.0,
        2.0,
        f32::INFINITY,
        3.5,
    ];
    d.iter()
        .enumerate()
        .map(|(v, d)| (VertexId(v as u32), *d))
        .collect()
}

#[test]
fn sssp_reach_and_road_find_their_target_in_any_split() {
    let g = graph();
    let (s, reached, unreached) = (VertexId(0), VertexId(6), VertexId(9));
    let states = distances();
    assert_eq!(
        split_invariant(&SsspProgram::new(s, reached), &g, &states),
        Some(6.0)
    );
    assert_eq!(
        split_invariant(&SsspProgram::new(s, unreached), &g, &states),
        None
    );
    let absent = VertexId(VERTICES as u32 - 1);
    assert_eq!(
        split_invariant(&SsspProgram::new(s, absent), &g, &states),
        None
    );
    let road = RoadProgram::sssp(s, reached);
    assert_eq!(
        split_invariant(&road, &g, &states),
        RoadAnswer::Distance(Some(6.0))
    );

    let visited = at(&[(0, true), (3, true), (4, false), (8, true), (10, false)]);
    let reach = |t: u32| split_invariant(&ReachPointProgram::new(s, VertexId(t)), &g, &visited);
    assert_eq!((reach(8), reach(4), reach(11)), (true, false, false));
}

#[test]
fn poi_breaks_a_distance_tie_by_vertex_id_in_any_split() {
    let g = graph();
    let states = distances();
    let nearest = Some((VertexId(5), 3.0));
    assert_eq!(
        split_invariant(&PoiProgram::new(VertexId(0)), &g, &states),
        nearest
    );
    let road = RoadProgram::poi(VertexId(0));
    assert_eq!(
        split_invariant(&road, &g, &states),
        RoadAnswer::Nearest(nearest)
    );
    let untagged = at(&[(0, 0.0), (1, 1.0), (3, 2.0)]);
    assert_eq!(
        split_invariant(&PoiProgram::new(VertexId(0)), &g, &untagged),
        None
    );
}

#[test]
fn bfs_and_wcc_answer_alike_in_any_split() {
    let g = graph();
    let depths = at(&[
        (0, 0),
        (1, 1),
        (2, 1),
        (3, 2),
        (6, u32::MAX),
        (7, 2),
        (11, 3),
    ]);
    let within = split_invariant(&BfsProgram::new(VertexId(0), 3), &g, &depths);
    let expected = at(&[(0, 0), (1, 1), (2, 1), (3, 2), (7, 2), (11, 3)]);
    assert_eq!(within, expected);

    let labels = at(&[
        (0, 0),
        (1, 0),
        (2, 2),
        (3, 0),
        (4, 2),
        (5, 5),
        (8, 5),
        (10, 10),
    ]);
    assert_eq!(split_invariant(&WccProgram, &g, &labels), 4);
}

#[test]
fn ppr_orders_equal_scores_by_vertex_id_in_any_split() {
    type PprState = <PprProgram as VertexProgram>::State;
    let g = graph();
    let alpha = 0.5;
    let state = |p: f32, r: f32| PprState { p, r };
    // Vertices 3, 8 and 10 score 0.25 each (8 by its residual alone);
    // vertex 6 scores nothing and is left out.
    let states = at(&[
        (0, state(0.5, 0.0)),
        (10, state(0.25, 0.0)),
        (3, state(0.125, 0.25)),
        (8, state(0.0, 0.5)),
        (6, state(0.0, 0.0)),
        (1, state(0.0625, 0.0)),
    ]);
    let ranked = split_invariant(&PprProgram::new(VertexId(0), alpha, 1e-4), &g, &states);
    let expected = at(&[(0, 0.5), (3, 0.25), (8, 0.25), (10, 0.25), (1, 0.0625)]);
    assert_eq!(ranked, expected);
}
