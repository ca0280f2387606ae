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
//! so the two invariants hold for either.
//!
//! **Only parked threads are signalled.** The pool counts the threads
//! inside the condvar wait (`parked`, under the pool lock). A push
//! notifies one thread if that count is non-zero — when it is zero every
//! thread is in a handler or about to scan, and will find the command by
//! itself. A completion notifies one thread only if someone is parked
//! *and* its partition still has a queued command: that command is the
//! one thing a cleared `running` flag can make runnable, and the
//! completing thread, which scans again, may prefer an affine partition
//! over it. Shutdown and a handler panic wake everyone, as does every
//! completion once shutdown is flagged (a parked thread's exit may have
//! been waiting for exactly that queue to empty). On a Step that costs
//! single-digit microseconds the futex calls this saves are a measurable
//! share (ARCHITECTURE.md, "Elastic execution").
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
    /// Commands executed (every Step is one).
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
    /// Threads inside `cv.wait` (or woken and not yet holding the lock
    /// again). Zero means every thread will scan the queues again by
    /// itself, so there is nobody to signal.
    parked: usize,
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

/// Enqueue `item` on partition `p`'s FIFO and wake one parked thread, if
/// there is one. Refuses (returns `false`, dropping `item`) once a pool
/// thread has panicked: the partition it was serving is wedged and the
/// pool is going down. A handler's push into a pool that is merely shutting down still
/// runs: threads exit only once every queue is empty and no handler is
/// running, since a running one may still push.
fn enqueue<T>(shared: &Shared<T>, p: usize, item: T) -> bool {
    let mut st = shared.state.lock().expect("pool state poisoned");
    if st.panicked {
        return false;
    }
    st.queues[p].push_back(item);
    let wake = st.parked > 0;
    drop(st);
    if wake {
        shared.cv.notify_one();
    }
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
                let drained = st.queues.iter().all(VecDeque::is_empty);
                if st.panicked || (st.shutdown && drained && !st.running.contains(&true)) {
                    return;
                }
                st.stats.idle_waits += 1;
                st.parked += 1;
                st = shared.cv.wait(st).expect("pool state poisoned");
                st.parked -= 1;
            }
        };
        let mut guard = PanicGuard {
            shared,
            armed: true,
        };
        handler(&push, tid, p, item);
        guard.armed = false;
        drop(guard);
        let mut st = shared.state.lock().expect("pool state poisoned");
        st.running[p] = false;
        // The cleared flag makes one thing runnable that was not: the
        // command queued behind this one, if any. This thread scans again
        // but may prefer an affine partition, so a parked thread is told.
        // During shutdown it may also have been the last thing a parked
        // thread's exit was waiting for.
        let wake = st.parked > 0 && !st.queues[p].is_empty();
        let exiting = st.shutdown;
        drop(st);
        if exiting {
            shared.cv.notify_all();
        } else if wake {
            shared.cv.notify_one();
        }
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
                parked: 0,
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

    /// Spin until the pool has parked `n` times in all.
    fn parks(pool: &TaskPool<u32>, n: u64) {
        while pool.stats().idle_waits < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_command_behind_a_running_partition_runs_once_the_handler_returns() {
        use std::sync::mpsc::channel;
        // Item 0 holds partition 0 until released; item 1 is queued behind
        // it while the other thread is parked. Only the returning handler
        // makes it runnable, and whichever thread then runs it, it runs.
        let (go_tx, go_rx) = channel::<()>();
        let (ran_tx, ran_rx) = channel::<u32>();
        let go_rx = Arc::new(Mutex::new(go_rx));
        let pool = TaskPool::new(2, 2, move |_push, _tid, _p, item: u32| {
            if item == 0 {
                go_rx.lock().unwrap().recv().expect("released");
            }
            ran_tx.send(item).expect("the test listens");
        });
        parks(&pool, 2);
        pool.push(0, 0); // wakes one thread, which blocks in the handler
        pool.push(0, 1); // wakes the other, which finds nothing runnable
        parks(&pool, 3);
        let shared = Arc::clone(&pool.shared);
        let parked = shared.state.lock().unwrap().parked;
        assert_eq!(parked, 1, "every thread but the running one");
        assert!(ran_rx.try_recv().is_err(), "nothing ran past the gate");
        go_tx.send(()).expect("item 0 waits");
        assert_eq!((ran_rx.recv(), ran_rx.recv()), (Ok(0), Ok(1)));
        pool.shutdown();
        assert_eq!(shared.state.lock().unwrap().stats.tasks, 2);
    }

    #[test]
    fn an_idle_wait_is_one_park_and_nobody_is_woken_for_nothing() {
        const N: u64 = 60;
        let pool = TaskPool::new(2, 2, |_push, _tid, _p, _item: u32| {});
        let shared = Arc::clone(&pool.shared);
        let settled = |tasks: u64| loop {
            let st = shared.state.lock().unwrap();
            if st.stats.tasks == tasks && st.parked == 2 {
                break st.stats.idle_waits;
            }
            drop(st);
            std::thread::yield_now();
        };
        assert_eq!(settled(0), 2);
        // One command at a time: one thread is woken for it, runs it,
        // finds nothing queued behind it — tells nobody — and parks again,
        // while the other sleeps through. (Waking everyone at each
        // completion would park twice per command.)
        for i in 0..N {
            pool.push((i % 2) as usize, 0);
            settled(i + 1);
        }
        let idle_waits = settled(N);
        assert!(
            (2 + N..2 + N + N / 2).contains(&idle_waits),
            "{idle_waits} parks for {N} commands"
        );
        pool.shutdown();
    }

    #[test]
    fn a_churn_of_owner_and_handler_pushes_runs_every_command_and_shuts_down() {
        // More threads than partitions, so threads park and are woken all
        // the time; every command below 2/3 of the budget pushes one more
        // from inside the handler, to the other partition or its own.
        const OWNER: u32 = 40_000;
        const TOTAL: usize = 100_000;
        let done = Arc::new(AtomicUsize::new(0));
        let spawned = Arc::new(AtomicUsize::new(OWNER as usize));
        let pool = {
            let (done, spawned) = (Arc::clone(&done), Arc::clone(&spawned));
            TaskPool::new(3, 5, move |push, _tid, p, item: u32| {
                done.fetch_add(1, Ordering::SeqCst);
                let more = spawned.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                    (n < TOTAL).then_some(n + 1)
                });
                if more.is_ok() {
                    push((p + item as usize % 2) % 3, item / 2);
                }
            })
        };
        for i in 0..OWNER {
            pool.push(i as usize % 3, i);
        }
        // Shutdown drains: it returns only once every thread has exited,
        // and threads exit only on empty queues.
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), TOTAL);
    }

    #[test]
    fn shutdown_with_a_command_queued_behind_a_running_one_joins_every_thread() {
        use std::sync::mpsc::channel;
        // The parked threads are woken by the shutdown, find the queue
        // non-empty but not runnable, and park again: the completions
        // that follow must wake them to exit.
        let (go_tx, go_rx) = channel::<()>();
        let go_rx = Arc::new(Mutex::new(go_rx));
        let pool = TaskPool::new(1, 3, move |_push, _tid, _p, item: u32| {
            if item == 0 {
                go_rx.lock().unwrap().recv().expect("released");
            }
        });
        parks(&pool, 3);
        pool.push(0, 0);
        pool.push(0, 1);
        parks(&pool, 4);
        let shared = Arc::clone(&pool.shared);
        let release = std::thread::spawn(move || {
            // Once the flag is up and both idle threads parked again on
            // the still-queued item.
            loop {
                let st = shared.state.lock().unwrap();
                if st.shutdown && st.parked == 2 && st.stats.idle_waits >= 6 {
                    break;
                }
                drop(st);
                std::thread::yield_now();
            }
            go_tx.send(()).expect("item 0 waits");
        });
        pool.shutdown();
        release.join().expect("released");
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
