//! Happens-before auditing for the barrier protocol (`check-hb`).
//!
//! Both engines coordinate through the same stop-the-world discipline:
//! query supersteps drain to quiescence, the coordinator applies
//! mutation epochs and/or a migration inside the quiesce window,
//! publishes the new `Arc<Topology>` / `Partitioning`, and only then
//! resumes dispatch. The [`Hb`] facade stamps every edge of that
//! protocol — channel sends/receives, barrier park/quiesce/resume,
//! object publication — into per-actor **vector clocks** and verifies
//! three invariants as the run unfolds:
//!
//! 1. every read of a published `Topology`/`Partitioning` is ordered
//!    *after* its publication (and, at a worker superstep, the held
//!    version is the latest published one — the window installs it in
//!    every partition before resuming, so a stale version at execution
//!    is a lost edge);
//! 2. no query-task dispatch is concurrent with a quiesce window (the
//!    PR-2 class of bug: a `TaskReady` in flight while the barrier
//!    believed the world stopped);
//! 3. a mutation epoch's publication happens-before any query outcome
//!    stamped with that epoch.
//!
//! A violation panics with **both** stacks: the one captured when the
//! earlier side (publication, dispatch, window) was stamped, and the
//! current one.
//!
//! With the `check-hb` feature off (the default) every method is an
//! inline empty body on a zero-sized type, so call sites need no
//! `cfg` and release builds carry no cost.
//!
//! Actor model: actor `0` is the coordinator (thread runtime) or the
//! controller (sim); actors `1..=k` are the workers. The simulated
//! engine is single-threaded, so its clock edges are trivially
//! ordered — there the value of the auditor is the token/window logic
//! (invariant 2) and the publication ledger (invariants 1 and 3). The
//! thread runtime exercises the clocks for real: the per-worker
//! command channels are FIFO queues of clock snapshots, the
//! many-producer response channel is a conservative sync-object join.
//! Inside a window the coordinator locks the quiescent partitions'
//! contexts itself; installing a published version there
//! ([`Hb::install_topology`] / [`Hb::install_partitioning`]) is a
//! coordinator → partition edge taken under the context lock, and sets
//! the version the partition holds.
//!
//! Since messages, Steps and Collects travel lane to lane, three more
//! edges are stamped. A **mailbox** is a sync object per partition: a put
//! joins the sender's clock into it ([`Hb::mail_put`] — a partition's
//! Step, or the coordinator at admission), a take joins it into the
//! owner's ([`Hb::mail_take`]). A **lane-to-lane hand-off**
//! ([`Hb::lane_send_step`]) is a command-channel send whose snapshot is
//! the sending partition's clock, not the coordinator's: a held-back Step
//! a finishing Step releases, the next superstep's Steps a closing Step
//! releases, the Collects of a query a closing Step terminated. The
//! command queues then have several producers, and a snapshot is queued a
//! moment before its command: two racing producers can queue them in
//! opposite orders, which delays a join by one command but cannot lose
//! one. A **superstep record** is a sync object per query: every member
//! Step's fold joins its clock in ([`Hb::record_join`]) and the last
//! finisher takes the lot ([`Hb::record_close`]) as it closes the
//! superstep, so the next superstep's Steps it releases — or its one
//! message to the coordinator — are ordered after every member; a
//! query's Collects use the record the same way. One `STEP` token per
//! involved partition is opened as a superstep begins ([`Hb::send_step`]
//! for the released at the core's dispatch, [`Hb::token_open`] for the
//! rest) and closed as its lane finishes the Step: after the fold and
//! whatever the fold released, so a query on the lanes always holds an
//! open token.

/// Dispatch-token kinds (what kind of in-flight work a token stands
/// for). `READY` is a scheduled-but-undelivered sim dispatch
/// (`Event::TaskReady`); `TASK` a superstep occupying a sim worker;
/// `STEP`/`COLLECT` the thread runtime's in-flight worker commands.
pub(crate) mod kind {
    pub const READY: u8 = 0;
    pub const TASK: u8 = 1;
    pub const STEP: u8 = 2;
    pub const COLLECT: u8 = 3;

    #[cfg_attr(not(feature = "check-hb"), allow(dead_code))]
    pub fn name(k: u8) -> &'static str {
        match k {
            READY => "TaskReady dispatch",
            TASK => "superstep task",
            STEP => "worker Step command",
            COLLECT => "worker Collect command",
            _ => "work",
        }
    }
}

#[cfg(feature = "check-hb")]
mod imp {
    use super::kind;
    use rustc_hash::FxHashMap;
    use std::backtrace::Backtrace;
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex, MutexGuard};

    #[derive(Clone, Debug, Default)]
    struct VClock(Vec<u64>);

    impl VClock {
        fn new(n: usize) -> Self {
            VClock(vec![0; n])
        }
        fn tick(&mut self, actor: usize) {
            self.0[actor] += 1;
        }
        fn join(&mut self, other: &VClock) {
            for (a, b) in self.0.iter_mut().zip(&other.0) {
                *a = (*a).max(*b);
            }
        }
        /// `other ≤ self` component-wise: everything `other` had seen
        /// when snapshotted happens-before `self`'s present.
        fn dominates(&self, other: &VClock) -> bool {
            self.0.iter().zip(&other.0).all(|(a, b)| a >= b)
        }
    }

    struct Publication {
        clock: VClock,
        stack: Backtrace,
    }

    struct Token {
        q: u32,
        kind: u8,
        stack: Backtrace,
    }

    struct Window {
        stack: Backtrace,
    }

    struct State {
        clocks: Vec<VClock>,
        /// FIFO clock queue per partition command channel (producers: the
        /// coordinator, and lanes handing a deferred Step on).
        cmd_chans: Vec<VecDeque<VClock>>,
        /// Sync-object clock per partition mailbox.
        mail: Vec<VClock>,
        /// Sync-object clock per shared superstep record, by query.
        records: FxHashMap<u32, VClock>,
        /// Conservative sync-object clock for the many-producer
        /// worker→coordinator response channel.
        msg_chan: VClock,
        topo_pubs: FxHashMap<u64, Publication>,
        part_pubs: FxHashMap<u64, Publication>,
        latest_epoch: u64,
        latest_part: u64,
        /// Versions each worker actor currently holds (index = worker).
        held_epoch: Vec<u64>,
        held_part: Vec<u64>,
        tokens: Vec<Token>,
        /// Supersteps audited by [`Hb::worker_step`].
        steps: u64,
        window: Option<Window>,
        /// Elastic-pool mutual exclusion: the acquire stack of the pool
        /// thread currently executing each partition's command, `None`
        /// when the partition is idle. Two concurrent acquires of one
        /// partition are a lost hand-off edge — the actor model's
        /// serialization guarantee would be broken.
        pool_held: Vec<Option<Backtrace>>,
    }

    impl State {
        /// `actor` stamps an event: its clock after the tick.
        fn stamp(&mut self, actor: usize) -> VClock {
            self.clocks[actor].tick(actor);
            self.clocks[actor].clone()
        }

        fn publish(&mut self, actor: usize) -> (VClock, Backtrace) {
            (self.stamp(actor), Backtrace::force_capture())
        }

        fn check_pub(
            pubs: &FxHashMap<u64, Publication>,
            what: &str,
            version: u64,
            reader: &VClock,
            ctx: &str,
        ) {
            let Some(p) = pubs.get(&version) else {
                panic!(
                    "hb violation: {ctx} uses {what} version {version}, \
                     which was never published\n--- current stack ---\n{}",
                    Backtrace::force_capture()
                );
            };
            if !reader.dominates(&p.clock) {
                panic!(
                    "hb violation: {ctx} reads {what} version {version} \
                     without being ordered after its publication\n\
                     --- publication stack ---\n{}\n--- reading stack ---\n{}",
                    p.stack,
                    Backtrace::force_capture()
                );
            }
        }
    }

    /// The happens-before auditor (real implementation). One instance
    /// per engine; cloning shares the state.
    #[derive(Clone)]
    pub struct Hb {
        inner: Arc<Mutex<State>>,
    }

    impl Hb {
        /// An auditor over `k` workers (actors `1..=k`; actor 0 is the
        /// coordinator/controller).
        pub fn new(k: usize) -> Self {
            let n = k + 1;
            Hb {
                inner: Arc::new(Mutex::new(State {
                    clocks: (0..n).map(|_| VClock::new(n)).collect(),
                    cmd_chans: (0..k).map(|_| VecDeque::new()).collect(),
                    mail: (0..k).map(|_| VClock::new(n)).collect(),
                    records: FxHashMap::default(),
                    msg_chan: VClock::new(n),
                    topo_pubs: FxHashMap::default(),
                    part_pubs: FxHashMap::default(),
                    latest_epoch: 0,
                    latest_part: 0,
                    held_epoch: vec![0; k],
                    held_part: vec![0; k],
                    tokens: Vec::new(),
                    steps: 0,
                    window: None,
                    pool_held: (0..k).map(|_| None).collect(),
                })),
            }
        }

        fn lock(&self) -> MutexGuard<'_, State> {
            // A poisoned auditor only happens while a violation panic is
            // already unwinding; the state is still sound to read.
            self.inner.lock().unwrap_or_else(|p| p.into_inner())
        }

        // -- publications -------------------------------------------------

        /// Stamp the publication of graph epoch `epoch` by `actor`.
        pub fn publish_topology(&self, actor: usize, epoch: u64) {
            let mut s = self.lock();
            let (clock, stack) = s.publish(actor);
            s.latest_epoch = s.latest_epoch.max(epoch);
            s.topo_pubs.insert(epoch, Publication { clock, stack });
        }

        /// Stamp a new partitioning publication by `actor`; returns the
        /// fresh version number (`0` is the initial assignment).
        pub fn publish_partitioning(&self, actor: usize) -> u64 {
            let mut s = self.lock();
            let (clock, stack) = s.publish(actor);
            let v = if s.part_pubs.is_empty() {
                0
            } else {
                s.latest_part + 1
            };
            s.latest_part = v;
            s.part_pubs.insert(v, Publication { clock, stack });
            v
        }

        /// Invariant 3: an outcome stamped with `epoch` must be ordered
        /// after that epoch's publication.
        pub fn outcome_epoch(&self, actor: usize, epoch: u64) {
            let s = self.lock();
            State::check_pub(
                &s.topo_pubs,
                "Topology epoch",
                epoch,
                &s.clocks[actor],
                "a query outcome stamp",
            );
        }

        // -- dispatch tokens & quiesce windows ----------------------------

        /// Open an in-flight-work token for query `q` (invariant 2: no
        /// dispatch while a quiesce window is open).
        pub fn token_open(&self, q: u32, kind: u8) {
            let mut s = self.lock();
            if let Some(w) = &s.window {
                panic!(
                    "hb violation: {} for query {q} dispatched inside a \
                     quiesce window (stop-the-world barrier in progress)\n\
                     --- window-open stack ---\n{}\n--- dispatch stack ---\n{}",
                    kind::name(kind),
                    w.stack,
                    Backtrace::force_capture()
                );
            }
            s.tokens.push(Token {
                q,
                kind,
                stack: Backtrace::force_capture(),
            });
        }

        /// Close the most recent matching token.
        pub fn token_close(&self, q: u32, kind: u8) {
            let mut s = self.lock();
            let Some(i) = s.tokens.iter().rposition(|t| t.q == q && t.kind == kind) else {
                panic!(
                    "hb violation: {} for query {q} completed without a \
                     matching dispatch\n--- current stack ---\n{}",
                    kind::name(kind),
                    Backtrace::force_capture()
                );
            };
            s.tokens.swap_remove(i);
        }

        /// The stop-the-world barrier believes the engine is quiescent.
        /// Invariant 2, other direction: every dispatch token must have
        /// closed by now.
        pub fn quiesce_begin(&self) {
            let mut s = self.lock();
            if let Some(t) = s.tokens.first() {
                panic!(
                    "hb violation: quiesce window opened while a {} for \
                     query {} is still in flight\n--- dispatch stack ---\n{}\n\
                     --- window-open stack ---\n{}",
                    kind::name(t.kind),
                    t.q,
                    t.stack,
                    Backtrace::force_capture()
                );
            }
            if s.window.is_some() {
                panic!(
                    "hb violation: nested quiesce windows\n--- stack ---\n{}",
                    Backtrace::force_capture()
                );
            }
            s.window = Some(Window {
                stack: Backtrace::force_capture(),
            });
        }

        /// The barrier resumes the world.
        pub fn quiesce_end(&self) {
            let mut s = self.lock();
            if s.window.take().is_none() {
                panic!(
                    "hb violation: quiesce window closed twice\n--- stack ---\n{}",
                    Backtrace::force_capture()
                );
            }
        }

        // -- thread-runtime channel edges ---------------------------------

        /// Coordinator spawns worker `w`, handing it the current
        /// topology/partitioning Arcs: join edge plus initial versions.
        pub fn spawn_worker(&self, w: usize) {
            let mut s = self.lock();
            s.clocks[0].tick(0);
            let snap = s.clocks[0].clone();
            s.clocks[1 + w].join(&snap);
            s.held_epoch[w] = s.latest_epoch;
            s.held_part[w] = s.latest_part;
        }

        /// The coordinator, inside a window, installs graph epoch `epoch`
        /// into worker `w`'s context under its lock: the worker's next
        /// command is ordered after the install, and holds that version.
        pub fn install_topology(&self, w: usize, epoch: u64) {
            let mut s = self.install(w);
            s.held_epoch[w] = epoch;
        }

        /// The coordinator, inside a window, installs partitioning
        /// `version` into worker `w`'s context under its lock.
        pub fn install_partitioning(&self, w: usize, version: u64) {
            let mut s = self.install(w);
            s.held_part[w] = version;
        }

        /// The coordinator → worker `w` edge of an install.
        fn install(&self, w: usize) -> MutexGuard<'_, State> {
            let mut s = self.lock();
            let snap = s.stamp(0);
            s.clocks[1 + w].join(&snap);
            s
        }

        /// A `Step` dispatch to worker `w`: channel edge + work token.
        pub fn send_step(&self, q: u32, w: usize) {
            self.token_open(q, kind::STEP);
            self.send_entry(0, w);
        }

        /// A `Collect` dispatch to worker `w`: channel edge + work token.
        pub fn send_collect(&self, q: u32, w: usize) {
            self.token_open(q, kind::COLLECT);
            self.send_entry(0, w);
        }

        /// `actor` queues a command for worker `w`.
        fn send_entry(&self, actor: usize, w: usize) {
            let mut s = self.lock();
            let clock = s.stamp(actor);
            s.cmd_chans[w].push_back(clock);
        }

        /// Worker `from` pushes a command to worker `to` itself — a
        /// held-back Step, the next superstep's, or a Collect: a
        /// command-channel edge from a worker actor. (The command's token
        /// is opened by the caller.)
        pub fn lane_send_step(&self, from: usize, to: usize) {
            self.send_entry(1 + from, to);
        }

        /// `actor` (0 = the coordinator at admission, `1 + w` = partition
        /// `w`'s Step) puts a message batch into partition `to`'s mailbox.
        pub fn mail_put(&self, actor: usize, to: usize) {
            let mut s = self.lock();
            let snap = s.stamp(actor);
            s.mail[to].join(&snap);
        }

        /// Worker `w` takes mail out of its own mailbox: ordered after
        /// every put so far.
        pub fn mail_take(&self, w: usize) {
            let mut s = self.lock();
            let mail = s.mail[w].clone();
            s.clocks[1 + w].join(&mail);
        }

        /// Worker `w` folds its Step into query `q`'s superstep record.
        pub fn record_join(&self, q: u32, w: usize) {
            let mut s = self.lock();
            let snap = s.stamp(1 + w);
            match s.records.get_mut(&q) {
                Some(record) => record.join(&snap),
                None => drop(s.records.insert(q, snap)),
            }
        }

        /// Worker `w` folded the record's last Step and closes it: ordered
        /// after every member's fold, before whatever it sends next.
        pub fn record_close(&self, q: u32, w: usize) {
            let mut s = self.lock();
            let Some(record) = s.records.remove(&q) else {
                panic!(
                    "hb violation: worker {w} closes a superstep record of \
                     query {q} that no report was filed in\n\
                     --- current stack ---\n{}",
                    Backtrace::force_capture()
                );
            };
            s.clocks[1 + w].join(&record);
        }

        /// Worker `w` received its next command: pop the FIFO snapshot and
        /// join it.
        pub fn worker_recv(&self, w: usize) {
            let mut s = self.lock();
            let Some(clock) = s.cmd_chans[w].pop_front() else {
                panic!(
                    "hb violation: worker {w} received a command with no \
                     stamped send (an uninstrumented channel?)\n\
                     --- current stack ---\n{}",
                    Backtrace::force_capture()
                );
            };
            s.clocks[1 + w].join(&clock);
        }

        /// Worker `w` executes a superstep: invariant 1. Its held
        /// topology/partitioning must be the latest published versions
        /// (the window installs them before resuming), and both
        /// publications must be ordered before this read.
        pub fn worker_step(&self, w: usize) {
            let mut s = self.lock();
            s.steps += 1;
            let reader = &s.clocks[1 + w];
            if s.held_epoch[w] != s.latest_epoch {
                let p = s.topo_pubs.get(&s.latest_epoch);
                panic!(
                    "hb violation: worker {w} executes a superstep against \
                     Topology epoch {} while epoch {} is published (a resume \
                     outran the barrier broadcast)\n--- publication stack ---\n{}\n\
                     --- superstep stack ---\n{}",
                    s.held_epoch[w],
                    s.latest_epoch,
                    p.map(|p| p.stack.to_string()).unwrap_or_default(),
                    Backtrace::force_capture()
                );
            }
            if s.held_part[w] != s.latest_part {
                let p = s.part_pubs.get(&s.latest_part);
                panic!(
                    "hb violation: worker {w} executes a superstep against \
                     Partitioning version {} while version {} is published\n\
                     --- publication stack ---\n{}\n--- superstep stack ---\n{}",
                    s.held_part[w],
                    s.latest_part,
                    p.map(|p| p.stack.to_string()).unwrap_or_default(),
                    Backtrace::force_capture()
                );
            }
            State::check_pub(
                &s.topo_pubs,
                "Topology epoch",
                s.held_epoch[w],
                reader,
                &format!("worker {w} superstep"),
            );
            State::check_pub(
                &s.part_pubs,
                "Partitioning",
                s.held_part[w],
                reader,
                &format!("worker {w} superstep"),
            );
        }

        /// `(supersteps audited, dispatch tokens open)` so far.
        #[cfg(test)]
        pub fn audited(&self) -> (u64, usize) {
            let s = self.lock();
            (s.steps, s.tokens.len())
        }

        /// Has `actor` seen everything actor `of` has stamped so far?
        #[cfg(test)]
        pub fn has_seen(&self, actor: usize, of: usize) -> bool {
            let s = self.lock();
            s.clocks[actor].0[of] >= s.clocks[of].0[of]
        }

        /// A pool thread takes partition `w`'s next command — the
        /// elastic pool's task hand-off edge. The partitions stay
        /// logical actors: their clocks are sound only if at most one
        /// OS thread drives a partition at a time, so a second acquire
        /// while one is held is flagged with both stacks.
        pub fn pool_acquire(&self, w: usize) {
            let mut s = self.lock();
            if let Some(held) = &s.pool_held[w] {
                panic!(
                    "hb violation: partition {w} acquired by two pool \
                     threads at once (the elastic pool lost its \
                     mutual-exclusion hand-off edge)\n\
                     --- first acquire stack ---\n{held}\n\
                     --- second acquire stack ---\n{}",
                    Backtrace::force_capture()
                );
            }
            s.pool_held[w] = Some(Backtrace::force_capture());
        }

        /// The pool thread finished partition `w`'s command — the task
        /// completion edge closing [`Hb::pool_acquire`].
        pub fn pool_release(&self, w: usize) {
            let mut s = self.lock();
            if s.pool_held[w].take().is_none() {
                panic!(
                    "hb violation: partition {w} released without a \
                     matching pool acquire\n--- current stack ---\n{}",
                    Backtrace::force_capture()
                );
            }
        }

        /// Worker `w` sends a response up the shared channel.
        pub fn worker_send(&self, w: usize) {
            let mut s = self.lock();
            let snap = s.stamp(1 + w);
            s.msg_chan.join(&snap);
        }

        /// Coordinator received something from the shared channel
        /// (conservative: joins every sender seen so far).
        pub fn coord_recv(&self) {
            let mut s = self.lock();
            let chan = s.msg_chan.clone();
            s.clocks[0].join(&chan);
        }
    }
}

#[cfg(not(feature = "check-hb"))]
mod imp {
    /// The happens-before auditor, compiled out (`check-hb` off):
    /// zero-sized, every method an inline empty body.
    #[derive(Clone)]
    pub struct Hb;

    #[allow(clippy::unused_self)]
    impl Hb {
        #[inline(always)]
        pub fn new(_k: usize) -> Self {
            Hb
        }
        #[inline(always)]
        pub fn publish_topology(&self, _actor: usize, _epoch: u64) {}
        #[inline(always)]
        pub fn publish_partitioning(&self, _actor: usize) -> u64 {
            0
        }
        #[inline(always)]
        pub fn outcome_epoch(&self, _actor: usize, _epoch: u64) {}
        #[inline(always)]
        pub fn token_open(&self, _q: u32, _kind: u8) {}
        #[inline(always)]
        pub fn token_close(&self, _q: u32, _kind: u8) {}
        #[inline(always)]
        pub fn quiesce_begin(&self) {}
        #[inline(always)]
        pub fn quiesce_end(&self) {}
        #[inline(always)]
        pub fn spawn_worker(&self, _w: usize) {}
        #[inline(always)]
        pub fn install_topology(&self, _w: usize, _epoch: u64) {}
        #[inline(always)]
        pub fn install_partitioning(&self, _w: usize, _version: u64) {}
        #[inline(always)]
        pub fn send_step(&self, _q: u32, _w: usize) {}
        #[inline(always)]
        pub fn send_collect(&self, _q: u32, _w: usize) {}
        #[inline(always)]
        pub fn lane_send_step(&self, _from: usize, _to: usize) {}
        #[inline(always)]
        pub fn mail_put(&self, _actor: usize, _to: usize) {}
        #[inline(always)]
        pub fn mail_take(&self, _w: usize) {}
        #[inline(always)]
        pub fn record_join(&self, _q: u32, _w: usize) {}
        #[inline(always)]
        pub fn record_close(&self, _q: u32, _w: usize) {}
        #[inline(always)]
        pub fn pool_acquire(&self, _w: usize) {}
        #[inline(always)]
        pub fn pool_release(&self, _w: usize) {}
        #[inline(always)]
        pub fn worker_recv(&self, _w: usize) {}
        #[inline(always)]
        pub fn worker_step(&self, _w: usize) {}
        #[inline(always)]
        pub fn worker_send(&self, _w: usize) {}
        #[inline(always)]
        pub fn coord_recv(&self) {}
    }
}

pub use imp::Hb;

#[cfg(all(test, feature = "check-hb"))]
mod tests {
    use super::{kind, Hb};

    #[test]
    fn clean_protocol_round_trip() {
        let hb = Hb::new(2);
        hb.publish_topology(0, 0);
        hb.publish_partitioning(0);
        hb.spawn_worker(0);
        hb.spawn_worker(1);
        hb.send_step(7, 0);
        hb.pool_acquire(0);
        hb.worker_recv(0);
        hb.worker_step(0);
        hb.worker_send(0);
        hb.pool_release(0);
        hb.coord_recv();
        hb.token_close(7, kind::STEP);
        hb.quiesce_begin();
        hb.publish_topology(0, 1);
        hb.install_topology(0, 1);
        hb.install_topology(1, 1);
        hb.quiesce_end();
        hb.outcome_epoch(0, 1);
    }

    /// Two published versions and two spawned workers.
    fn two_workers() -> Hb {
        let hb = Hb::new(2);
        hb.publish_topology(0, 0);
        hb.publish_partitioning(0);
        hb.spawn_worker(0);
        hb.spawn_worker(1);
        hb
    }

    #[test]
    fn a_mailbox_put_orders_the_sender_before_the_take() {
        let hb = two_workers();
        hb.mail_put(1, 1); // partition 0's Step puts into partition 1's box
        assert!(!hb.has_seen(2, 1), "no edge until the mail is taken");
        hb.mail_take(1);
        assert!(hb.has_seen(2, 1));
        // The coordinator's admission put reaches the taker the same way.
        hb.mail_put(0, 0);
        hb.mail_take(0);
        assert!(hb.has_seen(1, 0));
    }

    #[test]
    fn a_lane_to_lane_step_is_a_command_edge_from_the_sending_worker() {
        let hb = two_workers();
        // Dispatch: partition 0 released, partition 1 deferred.
        hb.send_step(7, 0);
        hb.token_open(7, kind::STEP);
        hb.pool_acquire(0);
        hb.worker_recv(0);
        hb.worker_step(0);
        hb.lane_send_step(0, 1);
        hb.pool_release(0);
        hb.pool_acquire(1);
        hb.worker_recv(1);
        assert!(hb.has_seen(2, 1), "the receiver joined the sender's clock");
        hb.worker_step(1);
        hb.pool_release(1);
        hb.token_close(7, kind::STEP);
        hb.token_close(7, kind::STEP);
        hb.quiesce_begin();
    }

    #[test]
    #[should_panic(expected = "no stamped send")]
    fn an_unstamped_lane_to_lane_push_is_flagged() {
        let hb = two_workers();
        hb.send_step(7, 0);
        hb.pool_acquire(0);
        hb.worker_recv(0);
        hb.pool_release(0);
        // Partition 0's lane pushed partition 1's Step without stamping.
        hb.pool_acquire(1);
        hb.worker_recv(1);
    }

    #[test]
    fn a_record_carries_every_members_clock_in_one_message() {
        let hb = two_workers();
        hb.record_join(7, 0);
        hb.record_join(7, 1);
        hb.record_close(7, 1);
        hb.worker_send(1);
        assert!(!hb.has_seen(0, 1) && !hb.has_seen(0, 2));
        hb.coord_recv();
        assert!(hb.has_seen(0, 1) && hb.has_seen(0, 2));
    }

    #[test]
    fn a_superstep_closed_on_a_lane_orders_every_member_before_the_next_one() {
        let hb = Hb::new(3);
        hb.publish_topology(0, 0);
        hb.publish_partitioning(0);
        for w in 0..3 {
            hb.spawn_worker(w);
        }
        // Superstep n on partitions 0 and 1: both fold into the record,
        // partition 1 last.
        for w in [0, 1] {
            hb.send_step(7, w);
            hb.pool_acquire(w);
            hb.worker_recv(w);
            hb.worker_step(w);
            hb.record_join(7, w);
        }
        // Partition 1 closes it and releases superstep n + 1 on partition
        // 2 itself, then both Steps end.
        hb.record_close(7, 1);
        hb.token_open(7, kind::STEP);
        hb.lane_send_step(1, 2);
        for w in [0, 1] {
            hb.token_close(7, kind::STEP);
            hb.pool_release(w);
        }
        assert!(!hb.has_seen(3, 1), "no edge until the Step is received");
        hb.pool_acquire(2);
        hb.worker_recv(2);
        assert!(hb.has_seen(3, 1) && hb.has_seen(3, 2), "every member of n");
        hb.worker_step(2);
        hb.token_close(7, kind::STEP);
        hb.pool_release(2);
        hb.quiesce_begin();
    }

    #[test]
    #[should_panic(expected = "no report was filed")]
    fn closing_an_empty_record_is_flagged() {
        let hb = Hb::new(1);
        hb.record_close(3, 0);
    }

    #[test]
    #[should_panic(expected = "quiesce window")]
    fn dispatch_inside_window_is_flagged() {
        let hb = Hb::new(1);
        hb.quiesce_begin();
        hb.token_open(3, kind::READY);
    }

    #[test]
    #[should_panic(expected = "still in flight")]
    fn window_over_open_dispatch_is_flagged() {
        let hb = Hb::new(1);
        hb.token_open(3, kind::TASK);
        hb.quiesce_begin();
    }

    #[test]
    #[should_panic(expected = "acquired by two pool threads")]
    fn concurrent_partition_acquire_is_flagged() {
        let hb = Hb::new(2);
        hb.pool_acquire(1);
        hb.pool_acquire(1);
    }

    #[test]
    #[should_panic(expected = "without a matching pool acquire")]
    fn unmatched_pool_release_is_flagged() {
        let hb = Hb::new(1);
        hb.pool_release(0);
    }

    #[test]
    fn sequential_partition_reuse_is_clean() {
        let hb = Hb::new(2);
        hb.pool_acquire(0);
        hb.pool_release(0);
        hb.pool_acquire(0);
        hb.pool_release(0);
    }

    #[test]
    #[should_panic(expected = "never published")]
    fn unpublished_epoch_stamp_is_flagged() {
        let hb = Hb::new(1);
        hb.outcome_epoch(0, 42);
    }

    #[test]
    #[should_panic(expected = "resume outran the barrier broadcast")]
    fn stale_topology_at_superstep_is_flagged() {
        let hb = Hb::new(1);
        hb.publish_topology(0, 0);
        hb.publish_partitioning(0);
        hb.spawn_worker(0);
        // Epoch 1 is published but never installed at the worker.
        hb.publish_topology(0, 1);
        hb.send_step(7, 0);
        hb.worker_recv(0);
        hb.worker_step(0);
    }

    #[test]
    fn an_install_orders_the_coordinator_before_the_partitions_next_step() {
        let hb = two_workers();
        hb.quiesce_begin();
        hb.publish_topology(0, 1);
        for w in 0..2 {
            hb.install_topology(w, 1);
            assert!(hb.has_seen(1 + w, 0), "partition {w} saw the install");
        }
        hb.quiesce_end();
        for w in 0..2 {
            hb.send_step(7, w);
            hb.worker_recv(w);
            hb.worker_step(w);
        }
        // A repartition's install reaches the next step the same way.
        let v = hb.publish_partitioning(0);
        hb.install_partitioning(0, v);
        hb.worker_step(0);
    }

    #[test]
    #[should_panic(expected = "resume outran the barrier broadcast")]
    fn a_partition_the_window_skipped_is_flagged() {
        let hb = two_workers();
        hb.quiesce_begin();
        hb.publish_topology(0, 1);
        hb.install_topology(1, 1);
        hb.quiesce_end();
        hb.send_step(7, 0);
        hb.worker_recv(0);
        hb.worker_step(0);
    }
}
