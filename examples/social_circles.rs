//! Application 2 (paper §1): personalized social-network analysis — many
//! overlapping "social circle" queries on a shared small-world graph, here
//! as k-hop neighbourhoods plus localized PageRank (the paper's
//! future-work algorithm) — *mixed in one engine run*, executed on the
//! real multi-threaded runtime.
//!
//! ```text
//! cargo run --release -p qgraph-examples --bin social_circles
//! ```

#![forbid(unsafe_code)]

use std::sync::Arc;

use qgraph_algo::{BfsProgram, PprProgram};
use qgraph_core::{SystemConfig, ThreadEngine};
use qgraph_graph::VertexId;
use qgraph_partition::{DomainPartitioner, Partitioner};
use qgraph_workload::{generate_ws, WattsStrogatzConfig};

fn main() {
    // A small-world network: high clustering => overlapping circles.
    let graph = Arc::new(generate_ws(WattsStrogatzConfig {
        n: 20_000,
        k: 10,
        beta: 0.05,
        region_size: 1_000,
        seed: 7,
    }));
    println!(
        "social graph: {} users, {} ties",
        graph.num_vertices(),
        graph.num_edges() / 2
    );

    let parts = DomainPartitioner.partition(&graph, 4);

    // One heterogeneous batch on real threads: 2-hop circles for a set of
    // users *and* a localized PageRank around the first one.
    let mut engine = ThreadEngine::with_config(Arc::clone(&graph), parts, SystemConfig::default());
    let users: Vec<u32> = (0..12).map(|i| i * 1_500 + 37).collect();
    let circles: Vec<_> = users
        .iter()
        .map(|&u| engine.submit(BfsProgram::new(VertexId(u), 2)))
        .collect();
    let ppr = engine.submit(PprProgram::new(VertexId(users[0]), 0.15, 1e-5));
    engine.run();

    for (u, c) in users.iter().zip(&circles) {
        let outcome = engine
            .report()
            .outcomes
            .iter()
            .find(|o| o.id == c.id())
            .expect("finished");
        println!(
            "  user {u}: {} people within 2 hops ({} supersteps)",
            engine.output(c).expect("finished").len(),
            outcome.iterations
        );
    }

    let top = engine.output(&ppr).expect("finished");
    println!(
        "localized PageRank around user {}: touched {} vertices; top-3 {:?}",
        users[0],
        top.len(),
        top.iter()
            .take(3)
            .map(|(v, p)| (v.0, *p))
            .collect::<Vec<_>>()
    );
    print!("{}", engine.report().program_table().render());
}
