//! The correctness gate: after a window, outside its timing, every query
//! must have completed with an output, and a seeded sample of outputs
//! must agree with the sequential reference (`qgraph_algo::reference`)
//! on the graph version the query ran on.

#![forbid(unsafe_code)]

use std::time::Instant;

use qgraph_core::{QueryId, QueryOutcome, Topology};
use qgraph_graph::Graph;

use crate::inputs::{Inputs, Query};
use crate::thread_run::Window;

/// The outcome of checking one window (or one simulated pass).
#[derive(Clone, Debug, Default)]
pub struct CheckResult {
    /// Queries submitted.
    pub attempted: u64,
    /// Rejected + missing output + output ≠ reference.
    pub failed: u64,
    /// Outputs compared with the reference.
    pub checked: u64,
    /// Seconds the sequential reference took to answer the sample.
    pub reference_s: f64,
    /// The first few failures, for the operator.
    pub notes: Vec<String>,
}

impl CheckResult {
    pub fn merge(&mut self, other: CheckResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checked += other.checked;
        self.reference_s += other.reference_s;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

/// SplitMix64: the sample must not depend on the engine's `rand` shim.
pub struct SampleRng(pub u64);

impl SampleRng {
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// Compare one output with the reference; records a failure on a miss.
pub fn check_one(
    result: &mut CheckResult,
    query: &Query,
    envelope: &(dyn std::any::Any + Send),
    graph: &Graph,
    what: &str,
) {
    let start = Instant::now();
    let reference = query.reference(graph);
    result.reference_s += start.elapsed().as_secs_f64();
    result.checked += 1;
    match query.answer(envelope) {
        Some(got) if got.agrees_with(&reference) => {}
        Some(got) => result.fail(format!(
            "{what}: {query:?} gave {got:?}, reference {reference:?}"
        )),
        None => result.fail(format!("{what}: {query:?} has an output of another type")),
    }
}

/// Check a thread-runtime window. Every outcome must be a completion
/// with an output; `sample` seeded picks (plus block 0's analytics) are
/// compared with the reference. Under churn only outcomes that saw a
/// single graph epoch are comparable, against the benchmark's own replay
/// of the batches through `Topology::apply`.
pub fn check_window(window: &Window, inputs: &Inputs, sample: usize, seed: u64) -> CheckResult {
    let mut result = CheckResult::default();
    let report = window.engine.report();
    let submitted: usize = window.ids.iter().map(Vec::len).sum();
    result.attempted = submitted as u64;

    // Outcome of each query id (ids are dense per engine).
    let mut by_id: Vec<Option<&QueryOutcome>> = vec![None; submitted];
    for o in &report.outcomes {
        if let Some(slot) = by_id.get_mut(o.id.index()) {
            *slot = Some(o);
        }
    }
    let output_of = |id: QueryId| window.engine.output_envelope(id);
    for (b, ids) in window.ids.iter().enumerate() {
        for (i, id) in ids.iter().enumerate() {
            match by_id.get(id.index()).copied().flatten() {
                None => result.fail(format!("block {b} query {i}: no outcome")),
                Some(o) if o.is_rejected() => result.fail(format!("block {b} query {i}: rejected")),
                Some(_) if output_of(*id).is_none() => {
                    result.fail(format!("block {b} query {i}: no output"))
                }
                Some(_) => {}
            }
        }
    }

    let mut picks: Vec<(u64, usize, usize)> = window.ids[0]
        .iter()
        .enumerate()
        .filter(|(i, _)| inputs.block_queries(0)[*i] == Query::Wcc)
        .map(|(i, _)| (0, i))
        .chain({
            let mut rng = SampleRng(seed ^ 0x5A4D_504C_4553);
            (0..sample).map(move |_| {
                let b = rng.below(window.ids.len());
                (b, rng.below(window.ids[b].len()))
            })
        })
        .filter_map(|(b, i)| {
            // Rejected and output-less queries are already counted above;
            // a query that straddled a mutation barrier has no single
            // graph version to be compared on.
            let outcome = by_id[window.ids[b][i].index()]?;
            (!outcome.is_rejected() && outcome.single_epoch()).then_some((
                outcome.first_epoch,
                b,
                i,
            ))
        })
        .collect();

    // Epoch e is the base graph after the first e batches; visit the
    // picks in epoch order so one replica replays the batches once.
    picks.sort_unstable();
    let mut replica = Topology::new(std::sync::Arc::clone(&inputs.graph));
    let mut view: Option<Graph> = None;
    for (epoch, b, i) in picks {
        while replica.epoch() < epoch {
            replica.apply(&inputs.batches[replica.epoch() as usize]);
            view = None;
        }
        let graph = match epoch {
            0 => inputs.graph.as_ref(),
            _ => &*view.get_or_insert_with(|| replica.materialize()),
        };
        if let Some(envelope) = output_of(window.ids[b][i]) {
            let query = &inputs.block_queries(b)[i];
            check_one(
                &mut result,
                query,
                envelope,
                graph,
                &format!("block {b} query {i}"),
            );
        }
    }
    result
}
