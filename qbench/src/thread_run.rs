//! The thread-runtime driver: one closed-loop window on a `ThreadEngine`.
//!
//! Load shape (the paper's §4.1 driver): the driver thread — main, the
//! only thread the benchmark itself runs — submits a block of queries
//! through an `EngineClient`, the engine keeps its `max_parallel_queries`
//! (16, the library default) in flight, and a `drain()` ends the block.
//! Blocks repeat until the measuring time is up; every block is fixed
//! work in a fixed order, so the window's numbers are medians over
//! like-for-like repeats. `evolve-churn` sends one mutation batch in the
//! middle of each block.

#![forbid(unsafe_code)]

use std::sync::Arc;

use qgraph_core::{EngineClient, Percentiles, PoolCounters, QueryId, QueryOutcome, ThreadEngine};

use crate::inputs::{ClientSink, Inputs};
use crate::probe::{Ledger, Marks, ProbeIndex};
use crate::spans::Spans;
use crate::spec::Workload;
use crate::stats::mean;

/// Sums over the outcomes of one block (or one window).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    pub outcomes: u64,
    pub rejected: u64,
    pub index_served: u64,
    /// Completed by traversal: the latency population.
    pub traversal: u64,
    pub supersteps: u64,
    pub local_supersteps: u64,
    pub vertex_updates: u64,
    pub remote_msgs: u64,
    pub remote_msgs_pre_combine: u64,
    pub remote_batches: u64,
    pub scope_size: u64,
    pub effective_dop: u64,
    pub queue_wait_s: f64,
}

impl Tally {
    fn add(&mut self, o: &QueryOutcome) {
        self.outcomes += 1;
        if o.is_rejected() {
            self.rejected += 1;
            return;
        }
        self.queue_wait_s += o.queueing_delay_secs();
        if o.is_index_served() {
            self.index_served += 1;
            return;
        }
        self.traversal += 1;
        self.supersteps += u64::from(o.iterations);
        self.local_supersteps += u64::from(o.local_iterations);
        self.vertex_updates += o.vertex_updates;
        self.remote_msgs += o.remote_messages;
        self.remote_msgs_pre_combine += o.remote_messages_pre_combine;
        self.remote_batches += o.remote_batches;
        self.scope_size += o.scope_size;
        self.effective_dop += u64::from(o.effective_dop);
    }

    pub fn merge(&mut self, other: &Tally) {
        self.outcomes += other.outcomes;
        self.rejected += other.rejected;
        self.index_served += other.index_served;
        self.traversal += other.traversal;
        self.supersteps += other.supersteps;
        self.local_supersteps += other.local_supersteps;
        self.vertex_updates += other.vertex_updates;
        self.remote_msgs += other.remote_msgs;
        self.remote_msgs_pre_combine += other.remote_msgs_pre_combine;
        self.remote_batches += other.remote_batches;
        self.scope_size += other.scope_size;
        self.effective_dop += other.effective_dop;
        self.queue_wait_s += other.queue_wait_s;
    }
}

/// One block: a closed-loop round from its first `submit` to the return
/// of its `drain()`.
#[derive(Clone, Debug)]
pub struct BlockStats {
    pub queries: usize,
    pub wall_s: f64,
    pub submit_s: f64,
    pub drain_s: f64,
    pub tally: Tally,
    /// Pool work of this block (delta of the cumulative counters).
    pub pool: PoolCounters,
    /// `latency_secs()` of the traversal-served completed queries, ms.
    pub lat_mean_ms: f64,
    pub lat_p50_ms: f64,
    pub lat_p95_ms: f64,
    pub lat_p99_ms: f64,
}

impl BlockStats {
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.wall_s
    }
}

/// Where the window's first `min_blocks` blocks ended. The per-layer
/// ledger is read over this prefix — fixed work on every machine and
/// commit — while a faster machine merely fits more blocks behind it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Prefix {
    pub blocks: usize,
    /// Lengths of the report's event lists at the prefix's end.
    pub mutations: usize,
    pub repartitions: usize,
    /// The probes' readings at the prefix's end (zero in a plain window).
    pub marks: Marks,
    /// `VmHWM` of the process at the prefix's end, megabytes.
    pub peak_rss_mb: f64,
}

/// A finished window; the engine is shut down and still holds every
/// output, the cumulative report and the final topology.
pub struct Window {
    pub engine: ThreadEngine,
    /// The query ids of each block, in submission order.
    pub ids: Vec<Vec<QueryId>>,
    pub blocks: Vec<BlockStats>,
    pub prefix: Prefix,
    pub start_s: f64,
    pub shutdown_s: f64,
}

impl Window {
    /// The blocks of the prefix.
    pub fn prefix_blocks(&self) -> &[BlockStats] {
        &self.blocks[..self.prefix.blocks]
    }

    /// Outcome sums over the prefix.
    pub fn tally(&self) -> Tally {
        let mut all = Tally::default();
        for b in self.prefix_blocks() {
            all.merge(&b.tally);
        }
        all
    }

    /// Pool work over the prefix.
    pub fn pool(&self) -> PoolCounters {
        let mut all = PoolCounters::default();
        for b in self.prefix_blocks() {
            all.threads = b.pool.threads;
            all.tasks += b.pool.tasks;
            all.steals += b.pool.steals;
            all.idle_waits += b.pool.idle_waits;
        }
        all
    }

    pub fn over_blocks(&self, f: impl Fn(&BlockStats) -> f64) -> Vec<f64> {
        self.blocks.iter().map(f).collect()
    }
}

/// `VmHWM` of this process in megabytes (0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Build the workload's engine and start it serving. With a ledger the
/// index goes in behind a [`ProbeIndex`]. Returns the engine, its client
/// and the construction and `start()` times in seconds.
pub fn start_engine(
    inputs: &Inputs,
    ledger: Option<&Arc<Ledger>>,
    spans: &Spans,
) -> (ThreadEngine, EngineClient, f64, f64) {
    let span = spans.enter("runtime.new");
    let mut engine = ThreadEngine::with_config(
        Arc::clone(&inputs.graph),
        inputs.parts.clone(),
        inputs.cfg.clone(),
    );
    if let Some(index) = &inputs.index {
        let plain = Box::new(index.clone());
        engine.install_index(match ledger {
            Some(ledger) => Box::new(ProbeIndex::new(plain, ledger)),
            None => plain,
        });
    }
    let construct_s = span.finish();
    let span = spans.enter("runtime.start");
    let client = engine.client();
    let start_s = span.finish();
    (engine, client, construct_s, start_s)
}

/// The untimed warm-up: the warm-up queries on a throwaway engine, so
/// the allocator, the page cache and the CPU are in their steady state
/// when the window opens. Returns its duration in seconds.
pub fn warm_up(inputs: &Inputs, spans: &Spans) -> f64 {
    let span = spans.enter("bench.warmup");
    let (mut engine, client, ..) = start_engine(inputs, None, spans);
    let mut sink = ClientSink {
        client: &client,
        ledger: None,
    };
    for q in &inputs.warmup {
        q.submit(&mut sink);
    }
    engine.shutdown();
    span.finish()
}

/// Run one window: blocks until `seconds` have passed and at least
/// `min_blocks` blocks ran (or `evolve-churn` is out of batches).
/// `between_blocks` runs after each block, while the engine is drained
/// and outside every block's timing.
pub fn run_window(
    inputs: &Inputs,
    seconds: f64,
    min_blocks: usize,
    ledger: Option<&Arc<Ledger>>,
    spans: &Spans,
    mut between_blocks: impl FnMut(),
) -> Window {
    let (mut engine, client, _, start_s) = start_engine(inputs, ledger, spans);
    let mut sink = ClientSink {
        client: &client,
        ledger,
    };
    let churn = inputs.workload == Workload::EvolveChurn;
    let mut ids = Vec::new();
    let mut blocks: Vec<BlockStats> = Vec::new();
    let mut seen = 0usize;
    let mut pool_before = PoolCounters::default();
    let mut prefix = None;
    let window = spans.enter("window");
    loop {
        let b = blocks.len();
        let out_of_batches = churn && b >= inputs.batches.len();
        if out_of_batches || (b >= min_blocks && window.elapsed_secs() >= seconds) {
            break;
        }
        let queries = inputs.block_queries(b);
        let block = spans.enter_block("block");
        let submit = spans.enter("runtime.submit");
        let mut block_ids = Vec::with_capacity(queries.len());
        let (first, second) = queries.split_at(if churn { queries.len() / 2 } else { 0 });
        block_ids.extend(first.iter().map(|q| q.submit(&mut sink)));
        if churn {
            let mutate = spans.enter("runtime.mutate");
            client.mutate(inputs.batches[b].clone());
            drop(mutate);
        }
        block_ids.extend(second.iter().map(|q| q.submit(&mut sink)));
        let submit_s = submit.finish();
        let drain = spans.enter("runtime.drain");
        let report = engine.drain();
        let drain_s = drain.finish();
        let wall_s = block.finish();

        let mut tally = Tally::default();
        let mut lat_ms = Vec::new();
        for o in &report.outcomes[seen..] {
            tally.add(o);
            if !o.is_rejected() && !o.is_index_served() {
                lat_ms.push(o.latency_secs() * 1e3);
            }
        }
        seen = report.outcomes.len();
        let pool = PoolCounters {
            threads: report.pool.threads,
            tasks: report.pool.tasks - pool_before.tasks,
            steals: report.pool.steals - pool_before.steals,
            idle_waits: report.pool.idle_waits - pool_before.idle_waits,
        };
        pool_before = report.pool;
        // Nearest-rank, as the engine's own reports take them.
        let lat_mean_ms = mean(&lat_ms);
        let tail = Percentiles::of(lat_ms);
        blocks.push(BlockStats {
            queries: queries.len(),
            wall_s,
            submit_s,
            drain_s,
            tally,
            pool,
            lat_mean_ms,
            lat_p50_ms: tail.p50,
            lat_p95_ms: tail.p95,
            lat_p99_ms: tail.p99,
        });
        ids.push(block_ids);
        if blocks.len() == min_blocks {
            prefix = Some(Prefix {
                blocks: min_blocks,
                mutations: report.mutations.len(),
                repartitions: report.repartitions.len(),
                marks: ledger.map(|l| l.marks()).unwrap_or_default(),
                peak_rss_mb: peak_rss_mb(),
            });
        }
        between_blocks();
    }
    drop(window);
    let span = spans.enter("runtime.shutdown");
    engine.shutdown();
    let shutdown_s = span.finish();
    let prefix = prefix.expect("a window runs at least min_blocks blocks");
    Window {
        engine,
        ids,
        blocks,
        prefix,
        start_s,
        shutdown_s,
    }
}
