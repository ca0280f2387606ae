//! Behaviour-preserving wrappers that let the benchmark count and time
//! the engine's calls into a vertex program and a point index without
//! touching the engine: [`Probe`] forwards every `VertexProgram` method
//! to the wrapped program, [`ProbeIndex`] every `PointIndex` method to
//! the wrapped index. Hot calls (`compute`, `combine`, `serve`) land in
//! per-thread-sharded counters with a 1-in-1024 sampled span; each
//! `repair` gets a span of its own. The exact-count anchors check that
//! a probed run does the same work as a plain one.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use qgraph_core::{
    Context, PointAnswer, PointIndex, PointQuery, RepairSummary, Topology, VertexProgram,
};
use qgraph_graph::{AppliedMutation, VertexId};

use crate::spans::Spans;

/// Hot calls between two sampled spans.
const SAMPLE_EVERY: u64 = 1024;
const SHARDS: usize = 16;

/// One cache line per shard, so pool threads never share a counter line.
#[repr(align(64))]
#[derive(Default)]
struct Slot(AtomicU64);

/// A statistic summed over per-thread shards. `Relaxed` throughout: the
/// values publish no other data and are read only after the engine has
/// drained (the drain's channel round trip orders them).
#[derive(Default)]
pub struct Sharded([Slot; SHARDS]);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

impl Sharded {
    /// Add `n`; returns this shard's previous value (the sampling clock).
    fn add(&self, n: u64) -> u64 {
        SHARD.with(|s| self.0[*s].0.fetch_add(n, Ordering::Relaxed))
    }

    pub fn sum(&self) -> u64 {
        self.0.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// One `PointIndex::repair` call.
#[derive(Clone, Copy, Debug)]
pub struct RepairRecord {
    pub ms: f64,
    pub rebuilt: bool,
    pub roots_rerun: u64,
    pub labels_churned: u64,
}

/// The ledger's cumulative readings at one instant (taken while the
/// engine is drained, so nothing is in flight).
#[derive(Clone, Copy, Debug, Default)]
pub struct Marks {
    pub compute_calls: u64,
    pub compute_ns: u64,
    pub combine_calls: u64,
    pub combine_merged: u64,
    pub init_ns: u64,
    pub finalize_ns: u64,
    pub serve_calls: u64,
    pub serve_hits: u64,
    pub repairs: usize,
}

/// Everything the probes of one traced run recorded.
pub struct Ledger {
    pub spans: Arc<Spans>,
    pub compute_calls: Sharded,
    pub compute_ns: Sharded,
    pub combine_calls: Sharded,
    pub combine_merged: Sharded,
    pub init_ns: Sharded,
    pub finalize_ns: Sharded,
    pub serve_calls: AtomicU64,
    pub serve_hits: AtomicU64,
    /// Every `serve` duration, nanoseconds (one coordinator thread calls
    /// `serve`, so the lock is never contended).
    pub serve_ns: Mutex<Vec<u64>>,
    /// Every `repair`, in call order.
    pub repairs: Mutex<Vec<RepairRecord>>,
}

impl Ledger {
    pub fn new(spans: Arc<Spans>) -> Arc<Self> {
        Arc::new(Ledger {
            spans,
            compute_calls: Sharded::default(),
            compute_ns: Sharded::default(),
            combine_calls: Sharded::default(),
            combine_merged: Sharded::default(),
            init_ns: Sharded::default(),
            finalize_ns: Sharded::default(),
            serve_calls: AtomicU64::new(0),
            serve_hits: AtomicU64::new(0),
            serve_ns: Mutex::new(Vec::new()),
            repairs: Mutex::new(Vec::new()),
        })
    }

    pub fn marks(&self) -> Marks {
        Marks {
            compute_calls: self.compute_calls.sum(),
            compute_ns: self.compute_ns.sum(),
            combine_calls: self.combine_calls.sum(),
            combine_merged: self.combine_merged.sum(),
            init_ns: self.init_ns.sum(),
            finalize_ns: self.finalize_ns.sum(),
            serve_calls: self.serve_calls.load(Ordering::Relaxed),
            serve_hits: self.serve_hits.load(Ordering::Relaxed),
            repairs: self.repairs.lock().map_or(0, |r| r.len()),
        }
    }
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// A vertex program with its calls counted; behaves exactly like `P`.
pub struct Probe<P> {
    inner: P,
    ledger: Arc<Ledger>,
}

impl<P> Probe<P> {
    pub fn new(inner: P, ledger: &Arc<Ledger>) -> Self {
        Probe {
            inner,
            ledger: Arc::clone(ledger),
        }
    }
}

impl<P: VertexProgram> VertexProgram for Probe<P> {
    type State = P::State;
    type Message = P::Message;
    type Aggregate = P::Aggregate;
    type Output = P::Output;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init_state(&self) -> P::State {
        self.inner.init_state()
    }

    fn aggregate_identity(&self) -> P::Aggregate {
        self.inner.aggregate_identity()
    }

    fn aggregate_combine(&self, a: &mut P::Aggregate, b: &P::Aggregate) {
        self.inner.aggregate_combine(a, b);
    }

    fn aggregate_sticky(&self) -> bool {
        self.inner.aggregate_sticky()
    }

    fn combine(&self, acc: &mut P::Message, other: &P::Message) -> bool {
        let merged = self.inner.combine(acc, other);
        self.ledger.combine_calls.add(1);
        if merged {
            self.ledger.combine_merged.add(1);
        }
        merged
    }

    fn initial_messages(&self, graph: &Topology) -> Vec<(VertexId, P::Message)> {
        let start = Instant::now();
        let out = self.inner.initial_messages(graph);
        self.ledger.init_ns.add(nanos(start, Instant::now()));
        out
    }

    fn compute(
        &self,
        graph: &Topology,
        vertex: VertexId,
        state: &mut P::State,
        messages: &[P::Message],
        ctx: &mut Context<'_, P::Message, P::Aggregate>,
    ) {
        let start = Instant::now();
        self.inner.compute(graph, vertex, state, messages, ctx);
        let end = Instant::now();
        self.ledger.compute_ns.add(nanos(start, end));
        if self
            .ledger
            .compute_calls
            .add(1)
            .is_multiple_of(SAMPLE_EVERY)
        {
            self.ledger.spans.sampled("algo.compute", start, end);
        }
    }

    fn should_terminate(&self, aggregate: &P::Aggregate) -> bool {
        self.inner.should_terminate(aggregate)
    }

    fn finalize(
        &self,
        graph: &Topology,
        states: &mut dyn Iterator<Item = (VertexId, P::State)>,
    ) -> P::Output {
        let start = Instant::now();
        let out = self.inner.finalize(graph, states);
        self.ledger.finalize_ns.add(nanos(start, Instant::now()));
        out
    }

    fn point_query(&self) -> Option<PointQuery> {
        self.inner.point_query()
    }

    fn output_from_answer(&self, answer: &PointAnswer) -> Option<P::Output> {
        self.inner.output_from_answer(answer)
    }
}

/// A point index with its calls counted; answers exactly like the
/// wrapped one.
pub struct ProbeIndex {
    inner: Box<dyn PointIndex>,
    ledger: Arc<Ledger>,
}

impl ProbeIndex {
    pub fn new(inner: Box<dyn PointIndex>, ledger: &Arc<Ledger>) -> Self {
        ProbeIndex {
            inner,
            ledger: Arc::clone(ledger),
        }
    }
}

impl PointIndex for ProbeIndex {
    fn serve(&self, q: &PointQuery) -> Option<PointAnswer> {
        let start = Instant::now();
        let answer = self.inner.serve(q);
        let end = Instant::now();
        let calls = self.ledger.serve_calls.fetch_add(1, Ordering::Relaxed);
        if answer.is_some() {
            self.ledger.serve_hits.fetch_add(1, Ordering::Relaxed);
        }
        if let Ok(mut all) = self.ledger.serve_ns.lock() {
            all.push(nanos(start, end));
        }
        if calls.is_multiple_of(SAMPLE_EVERY) {
            self.ledger.spans.sampled("index.serve", start, end);
        }
        answer
    }

    fn repaired_through(&self) -> u64 {
        self.inner.repaired_through()
    }

    fn repair(
        &mut self,
        topology: &Topology,
        applied: &AppliedMutation,
        epoch: u64,
    ) -> RepairSummary {
        let start = Instant::now();
        let summary = self.inner.repair(topology, applied, epoch);
        let end = Instant::now();
        self.ledger.spans.sampled("index.repair", start, end);
        if let Ok(mut log) = self.ledger.repairs.lock() {
            log.push(RepairRecord {
                ms: nanos(start, end) as f64 / 1e6,
                rebuilt: summary.rebuilt,
                roots_rerun: summary.roots_rerun as u64,
                labels_churned: (summary.labels_removed + summary.labels_added) as u64,
            });
        }
        summary
    }

    fn set_parallelism(&mut self, threads: usize) {
        self.inner.set_parallelism(threads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgraph_algo::SsspProgram;
    use qgraph_core::{Engine, EngineBuilder};
    use qgraph_graph::GraphBuilder;

    #[test]
    fn probed_program_answers_like_the_plain_one() {
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.add_undirected_edge(i, i + 1, 1.5);
        }
        let graph = b.build();
        let ledger = Ledger::new(Arc::new(Spans::new(0)));
        let mut engine = EngineBuilder::new(graph).workers(2).build_sim();
        let plain = engine.submit(SsspProgram::new(VertexId(0), VertexId(4)));
        let probed = engine.submit(Probe::new(
            SsspProgram::new(VertexId(0), VertexId(4)),
            &ledger,
        ));
        engine.run();
        assert_eq!(engine.output(&plain), engine.output(&probed));
        assert_eq!(engine.output(&probed), Some(&Some(6.0)));
        let (a, b) = (&engine.outcomes()[0], &engine.outcomes()[1]);
        assert_eq!(a.vertex_updates, b.vertex_updates);
        assert_eq!(a.program, b.program);
        assert_eq!(ledger.compute_calls.sum(), b.vertex_updates);
        assert!(ledger.spans.len() >= 1, "first compute call is sampled");
    }
}
