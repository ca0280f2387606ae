//! The shared morsel pool behind the thread runtime's elastic execution.
//!
//! The fixed-partition runtime dedicated one OS thread to each vertex
//! partition, so compute capacity was welded to state placement: a heavy
//! analytic query could never fan wider than the partitions it touched
//! had threads, and a hot partition's queue could not be helped by idle
//! neighbours. The pool decouples the two. Partitions keep *state
//! ownership* (inboxes, vertex values, Q-cut migration all stay
//! partition-addressed), while a configurable number of pool threads
//! ([`crate::SystemConfig::pool_threads`]) draw per-(query, partition)
//! commands from per-partition queues.
//!
//! Two invariants make this a drop-in replacement for the
//! thread-per-partition actor model:
//!
//! 1. **Per-partition FIFO**: commands pushed for partition `p` execute
//!    in push order — each queue is a `VecDeque` popped from the front.
//! 2. **Per-partition mutual exclusion**: at most one pool thread
//!    executes partition `p`'s commands at a time, enforced by a
//!    `running` flag held across the handler call. Together these give
//!    exactly the ordering semantics of the old dedicated thread +
//!    mpsc channel, so the coordinator protocol is unchanged.
//!
//! Commands come from two kinds of producer: the owner of the pool
//! ([`TaskPool::push`]) and the handler itself, which is handed a `push`
//! closure so a lane that finishes one partition's command can enqueue the
//! next one — for any partition, its own included — without a round trip
//! through the owner. Both go through the same queue under the same lock,
//! so the two invariants hold for either; a handler's push wakes one
//! parked thread (if every other thread is busy, the pushing thread picks
//! the command up itself on its next scan).
//!
//! Threads prefer partitions they are affine to (`p % threads == tid`);
//! draining another thread's partition is counted as a *steal*, and a
//! fruitless scan that parks on the condvar as an *idle wait* — both
//! surface in [`PoolStats`] and ultimately in the engine report, so the
//! saturation bench can tell work-conservation from contention.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

/// Lifetime counters of one pool: how much work ran, how much of it ran
/// off its affine thread, and how often threads found nothing runnable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Commands executed (every Step/Collect/window command is one).
    pub tasks: u64,
    /// Commands executed by a thread the partition is not affine to.
    pub steals: u64,
    /// Condvar parks: a thread scanned every queue and found nothing
    /// runnable (empty, or its partition already running elsewhere).
    pub idle_waits: u64,
}

struct PoolState<T> {
    /// One FIFO of pending commands per partition.
    queues: Vec<VecDeque<T>>,
    /// Is some thread currently executing this partition's command?
    running: Vec<bool>,
    shutdown: bool,
    /// A handler panicked; the partition it held is permanently wedged
    /// and further `push` calls refuse (mirroring the old runtime's
    /// "worker hung up" send panic).
    panicked: bool,
    stats: PoolStats,
}

struct Shared<T> {
    state: Mutex<PoolState<T>>,
    cv: Condvar,
}

/// A fixed-width pool of OS threads executing per-partition command
/// queues under the FIFO + mutual-exclusion invariants above.
pub struct TaskPool<T> {
    shared: Arc<Shared<T>>,
    threads: Vec<thread::JoinHandle<()>>,
    width: usize,
}

/// Marks the pool panicked if the handler unwinds, so producers fail
/// fast instead of waiting on a response that will never come.
struct PanicGuard<'a, T> {
    shared: &'a Shared<T>,
    armed: bool,
}

impl<T> Drop for PanicGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            if let Ok(mut st) = self.shared.state.lock() {
                st.panicked = true;
            }
            self.shared.cv.notify_all();
        }
    }
}

/// The next runnable `(partition, stolen?)` for thread `tid`, preferring
/// affine partitions (`p % threads == tid`) before stealing the
/// lowest-indexed runnable queue.
fn pick<T>(st: &PoolState<T>, tid: usize, threads: usize) -> Option<(usize, bool)> {
    let runnable = |p: usize| !st.running[p] && !st.queues[p].is_empty();
    let mut p = tid;
    while p < st.queues.len() {
        if runnable(p) {
            return Some((p, false));
        }
        p += threads;
    }
    (0..st.queues.len())
        .find(|&p| runnable(p))
        .map(|p| (p, true))
}

/// Enqueue `item` on partition `p`'s FIFO and wake one parked thread.
/// Refuses (returns `false`, dropping `item`) once a pool thread has
/// panicked: the partition it was serving is wedged and the pool is going
/// down. A handler's push into a pool that is merely shutting down still
/// runs: threads exit only on empty queues, and the pushing thread scans
/// again.
fn enqueue<T>(shared: &Shared<T>, p: usize, item: T) -> bool {
    let mut st = shared.state.lock().expect("pool state poisoned");
    if st.panicked {
        return false;
    }
    st.queues[p].push_back(item);
    drop(st);
    shared.cv.notify_one();
    true
}

fn pool_thread<T, F>(tid: usize, threads: usize, shared: &Shared<T>, handler: F)
where
    F: Fn(&dyn Fn(usize, T), usize, usize, T),
{
    // Into a panicked pool the command is dropped: the original panic is
    // the one `shutdown` should surface, not a second one from here.
    let push = |p: usize, item: T| {
        enqueue(shared, p, item);
    };
    loop {
        let (p, item) = {
            let mut st = shared.state.lock().expect("pool state poisoned");
            loop {
                if let Some((p, stolen)) = pick(&st, tid, threads) {
                    let item = st.queues[p].pop_front().expect("picked queue is non-empty");
                    st.running[p] = true;
                    st.stats.tasks += 1;
                    if stolen {
                        st.stats.steals += 1;
                    }
                    break (p, item);
                }
                if st.panicked || (st.shutdown && st.queues.iter().all(|q| q.is_empty())) {
                    return;
                }
                st.stats.idle_waits += 1;
                st = shared.cv.wait(st).expect("pool state poisoned");
            }
        };
        let mut guard = PanicGuard {
            shared,
            armed: true,
        };
        handler(&push, tid, p, item);
        guard.armed = false;
        drop(guard);
        shared.state.lock().expect("pool state poisoned").running[p] = false;
        // A completion can unblock any thread whose pick was gated on
        // this partition's running flag, so wake them all.
        shared.cv.notify_all();
    }
}

impl<T: Send + 'static> TaskPool<T> {
    /// Spawn `threads` pool threads (at least one) over `partitions`
    /// command queues. Each thread runs its own clone of `handler`;
    /// `handler(push, tid, p, item)` is invoked with the partition's
    /// `running` flag held, so for a fixed `p` calls never overlap and
    /// follow push order. `push(p2, item)` enqueues a further command from
    /// inside the handler (see the module docs). `tid` is the executing
    /// pool thread — comparing it against the partition's affine thread
    /// (`p % width`) tells a steal from an affine run, which is how the
    /// tracing plane labels its tracks.
    pub fn new<F>(partitions: usize, threads: usize, handler: F) -> Self
    where
        F: Fn(&dyn Fn(usize, T), usize, usize, T) + Send + Clone + 'static,
    {
        let width = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queues: (0..partitions).map(|_| VecDeque::new()).collect(),
                running: vec![false; partitions],
                shutdown: false,
                panicked: false,
                stats: PoolStats::default(),
            }),
            cv: Condvar::new(),
        });
        let threads = (0..width)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                let handler = handler.clone();
                thread::Builder::new()
                    .name(format!("qgraph-pool-{tid}"))
                    .spawn(move || pool_thread(tid, width, &shared, handler))
                    .expect("spawn pool thread")
            })
            .collect();
        TaskPool {
            shared,
            threads,
            width,
        }
    }

    /// Enqueue a command on partition `p`'s FIFO. Panics if a pool
    /// thread has panicked — the partition it was serving is wedged and
    /// the response the coordinator is waiting on will never come.
    pub fn push(&self, p: usize, item: T) {
        assert!(
            enqueue(&self.shared, p, item),
            "worker {p} hung up mid-serve (a pool thread panicked)"
        );
    }

    /// The number of pool threads.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> PoolStats {
        self.shared.state.lock().expect("pool state poisoned").stats
    }

    #[cfg(test)]
    fn is_panicked(&self) -> bool {
        self.shared
            .state
            .lock()
            .expect("pool state poisoned")
            .panicked
    }

    /// Drain every queue, stop the threads, and propagate the first
    /// pool-thread panic (the teardown analogue of joining the old
    /// dedicated worker threads).
    pub fn shutdown(mut self) {
        self.shared
            .state
            .lock()
            .expect("pool state poisoned")
            .shutdown = true;
        self.shared.cv.notify_all();
        for h in self.threads.drain(..) {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl<T> Drop for TaskPool<T> {
    /// Last-resort teardown when the owner unwinds without calling
    /// [`TaskPool::shutdown`] (e.g. a coordinator panic): stop the
    /// threads without re-panicking so the original panic propagates.
    fn drop(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        if let Ok(mut st) = self.shared.state.lock() {
            st.shutdown = true;
        }
        self.shared.cv.notify_all();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_task_and_counts_them() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = {
            let done = Arc::clone(&done);
            TaskPool::new(4, 2, move |_push, _tid, _p, _item: usize| {
                done.fetch_add(1, Ordering::SeqCst);
            })
        };
        for i in 0..40 {
            pool.push(i % 4, i);
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn per_partition_order_is_fifo_and_exclusive() {
        // Record (partition, seq) in execution order; per partition the
        // sequence must be strictly increasing even with threads > 1
        // racing over the queues.
        let seen: Arc<Mutex<Vec<(usize, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let in_flight: Arc<Vec<AtomicUsize>> =
            Arc::new((0..3).map(|_| AtomicUsize::new(0)).collect());
        let pool = {
            let seen = Arc::clone(&seen);
            let in_flight = Arc::clone(&in_flight);
            TaskPool::new(3, 4, move |_push, _tid, p, seq: usize| {
                assert_eq!(
                    in_flight[p].fetch_add(1, Ordering::SeqCst),
                    0,
                    "partition executed concurrently"
                );
                seen.lock().unwrap().push((p, seq));
                std::thread::yield_now();
                in_flight[p].fetch_sub(1, Ordering::SeqCst);
            })
        };
        for seq in 0..60 {
            pool.push(seq % 3, seq);
        }
        pool.shutdown();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 60);
        for p in 0..3 {
            let per: Vec<usize> = seen
                .iter()
                .filter(|(q, _)| *q == p)
                .map(|(_, s)| *s)
                .collect();
            assert!(
                per.windows(2).all(|w| w[0] < w[1]),
                "partition {p} reordered"
            );
        }
    }

    #[test]
    fn a_push_from_inside_a_handler_keeps_the_invariants_and_wakes_a_parked_thread() {
        use std::sync::mpsc::channel;
        // Item 0 on partition 0 pushes 1 and 2 to partition 1 and 3 to its
        // own partition, then waits until item 1 has run: with its own
        // thread blocked here, only the *parked* thread can run item 1.
        let seen: Arc<Mutex<Vec<(usize, u32)>>> = Arc::new(Mutex::new(Vec::new()));
        let busy: Arc<Vec<AtomicUsize>> = Arc::new((0..2).map(|_| AtomicUsize::new(0)).collect());
        let (ran_tx, ran_rx) = channel::<()>();
        let (ran_tx, ran_rx) = (Mutex::new(ran_tx), Arc::new(Mutex::new(ran_rx)));
        let pool = {
            let (seen, busy) = (Arc::clone(&seen), Arc::clone(&busy));
            let ran_tx = Arc::new(ran_tx);
            TaskPool::new(2, 2, move |push, _tid, p, item: u32| {
                assert_eq!(busy[p].fetch_add(1, Ordering::SeqCst), 0, "overlap");
                seen.lock().unwrap().push((p, item));
                match item {
                    0 => {
                        push(1, 1);
                        push(1, 2);
                        push(0, 3);
                        ran_rx.lock().unwrap().recv().expect("item 1 ran");
                    }
                    1 => ran_tx.lock().unwrap().send(()).expect("item 0 waits"),
                    _ => {}
                }
                busy[p].fetch_sub(1, Ordering::SeqCst);
            })
        };
        // Both threads scanned the empty queues and parked.
        while pool.stats().idle_waits < 2 {
            std::thread::yield_now();
        }
        pool.push(0, 0);
        pool.shutdown();
        let seen = seen.lock().unwrap();
        let on = |p: usize| -> Vec<u32> {
            let mine = seen.iter().filter(|(q, _)| *q == p);
            mine.map(|(_, item)| *item).collect()
        };
        // FIFO per partition; 3 waited for 0 to leave partition 0.
        assert_eq!((on(0), on(1)), (vec![0, 3], vec![1, 2]));
    }

    #[test]
    fn narrow_pool_still_drains_every_partition() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = {
            let done = Arc::clone(&done);
            TaskPool::new(8, 1, move |_push, _tid, _p, _item: ()| {
                done.fetch_add(1, Ordering::SeqCst);
            })
        };
        for p in 0..8 {
            pool.push(p, ());
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn counters_cover_all_executed_work() {
        let pool = TaskPool::new(4, 2, |_push, _tid, _p, _item: ()| {});
        for p in 0..4 {
            for _ in 0..5 {
                pool.push(p, ());
            }
        }
        // Stats are monotone and tasks converge to what was pushed.
        loop {
            if pool.stats().tasks == 20 {
                break;
            }
            std::thread::yield_now();
        }
        pool.shutdown();
    }

    #[test]
    #[should_panic(expected = "hung up mid-serve")]
    fn push_after_handler_panic_fails_fast() {
        let pool = TaskPool::new(2, 1, |_push, _tid, _p, item: u32| {
            assert!(item != 7, "poison item");
        });
        pool.push(0, 7);
        while !pool.is_panicked() {
            std::thread::yield_now();
        }
        pool.push(1, 1);
    }
}
