//! Measurement plumbing for the Q-Graph experiments: the mean, time
//! series over virtual time bucketed into tumbling windows, and the
//! aligned tables the experiment binaries print paper-style rows with.

#![forbid(unsafe_code)]

mod series;
mod stats;
mod table;

pub use series::{Sample, TimeSeries};
pub use stats::mean;
pub use table::Table;
