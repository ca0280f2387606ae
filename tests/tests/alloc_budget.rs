//! The Step path's allocation budget: heap calls per pool task.
//!
//! A steady-state Step reuses every variable-size buffer it touches — the
//! batch buffers circulate through the partitions' pools, outliving the
//! queries that sent them, a query record's input vectors trade places
//! with the partition's and the per-query routing state keeps its own —
//! so what a pool task still costs the allocator is a handful of small
//! fixed-size boxes (aggregates, the report, the command). A finished
//! query's finalize reads the collected locals' state maps in place. This
//! binary counts it: a counting `#[global_allocator]`, hence a test
//! binary of its own with one `#[test]` (anything else running in the
//! process would be counted too).
//!
//! The count covers the whole process between two drains — submission,
//! admission, the coordinator's turns, local-state growth, finalize and
//! the report entries included — divided by the pool tasks (executed
//! supersteps) of that window. The map is `qbench`'s road map at twice the
//! vertex budget (16 cities, ≈ 120k vertices; 8 partitions, 2 pool
//! threads, 96 hotspot shortest-path queries): on anything smaller a
//! domain-partitioned query is over in a dozen tasks and the reading is
//! mostly the per-query costs. Second pass of an identical stream,
//! `alloc + realloc` per pool task (debug build, tracer compiled in, knob
//! off):
//!
//! | layout | tasks | before buffer reuse | per-query spare lists, merged finalize | per-partition pool, finalize in place |
//! |---|---|---|---|---|
//! | hash (every hop crosses) | 21,098 | 24.69 | 4.28 | 3.43 |
//! | domain (chained local supersteps) | 3,041 | 10.54 | 4.73 | 4.66 |
//!
//! The task counts repeat exactly and the call counts to three digits
//! (timing moves only which lane closes a shared superstep). The hash
//! budget, 4.0, fails the per-query spare lists' reading; the domain
//! budget is at most half of the reading before buffer reuse.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use qgraph_algo::RoadProgram;
use qgraph_core::{SystemConfig, ThreadEngine};
use qgraph_graph::Graph;
use qgraph_partition::{DomainPartitioner, HashPartitioner, Partitioner, Partitioning};
use qgraph_workload::{
    QueryKind, RoadNetworkConfig, RoadNetworkGenerator, WorkloadConfig, WorkloadGenerator,
};

/// `alloc` + `realloc` calls since process start.
static HEAP_CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        HEAP_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const PARTITIONS: usize = 8;
const QUERIES: usize = 96;

/// Heap calls per pool task over the second of two identical streams.
fn heap_calls_per_task(graph: &Arc<Graph>, parts: Partitioning, stream: &[RoadProgram]) -> f64 {
    let cfg = SystemConfig {
        pool_threads: 2,
        ..SystemConfig::default()
    };
    let mut engine = ThreadEngine::with_config(Arc::clone(graph), parts, cfg);
    let pass = |engine: &mut ThreadEngine| {
        let (calls, tasks) = (
            HEAP_CALLS.load(Ordering::Relaxed),
            engine.report().pool.tasks,
        );
        for program in stream {
            engine.submit(program.clone());
        }
        let tasks = engine.drain().pool.tasks - tasks;
        let calls = HEAP_CALLS.load(Ordering::Relaxed) - calls;
        assert!(tasks > 10 * QUERIES as u64, "a stream of real traversals");
        calls as f64 / tasks as f64
    };
    // The first pass warms what a serving engine has warm: the pool, the
    // channels, the per-partition buffers, the report's vectors' first
    // doublings.
    pass(&mut engine);
    let per_task = pass(&mut engine);
    engine.shutdown();
    per_task
}

#[test]
fn a_pool_task_stays_inside_its_heap_budget() {
    let world = RoadNetworkGenerator::new(RoadNetworkConfig::bw_like(2.0, 7)).generate();
    let stream: Vec<RoadProgram> = WorkloadGenerator::new(&world)
        .generate(&WorkloadConfig::single(QUERIES, false, false, 11))
        .into_iter()
        .map(|spec| match spec.kind {
            QueryKind::Sssp { source, target } => RoadProgram::sssp(source, target),
            QueryKind::Poi { source } => RoadProgram::poi(source),
        })
        .collect();
    let graph = Arc::new(world.graph);
    let layout = |partitioner: &dyn Partitioner| partitioner.partition(&graph, PARTITIONS);
    let hash = heap_calls_per_task(&graph, layout(&HashPartitioner::default()), &stream);
    let domain = heap_calls_per_task(&graph, layout(&DomainPartitioner), &stream);
    println!("heap calls per pool task: hash {hash:.2}, domain {domain:.2}");
    // The auditor's stamps allocate per task.
    if cfg!(feature = "check-hb") {
        return;
    }
    assert!(hash <= 4.0, "hash layout: {hash:.2} heap calls per task");
    assert!(
        domain <= 5.25,
        "domain layout: {domain:.2} heap calls per task"
    );
}
