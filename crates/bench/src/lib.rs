//! Shared experiment harness: builds the paper's workload/infrastructure
//! combinations and runs them on the deterministic engine. Every figure
//! of `benches/experiments.rs` composes these pieces, and so does the
//! repository's benchmark, `qbench`.

#![forbid(unsafe_code)]

pub mod setup;

pub use setup::{
    build_network, partition_graph, run_road_experiment, ExperimentSpec, GraphPreset, Strategy,
};
