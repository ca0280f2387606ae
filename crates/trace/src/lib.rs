//! **qgraph-trace**: the structured event recorder behind the engines'
//! tracing plane (compiled into `qgraph-core` only under its `trace`
//! feature; the engines' call sites go through a zero-sized no-op
//! facade when the feature is off, the same pattern as the
//! happens-before auditor in `qgraph-core/src/hb.rs`).
//!
//! # Model
//!
//! Every actor that can stamp events — the coordinator (or the whole
//! simulated engine) plus one lane per pool thread — owns a bounded
//! *ring* it appends [`Event`]s to. Recording never blocks and never
//! grows a ring past its capacity: a full ring **drops** the event and
//! bumps a shared `dropped` counter (surfaced all the way up through
//! `EngineReport::trace()`), because the recorder must degrade rather
//! than distort the schedule it is observing. Rings are guarded by
//! per-actor mutexes that are uncontended in steady state (only the
//! owning actor touches its ring between barriers); the coordinator
//! *drains* every ring into a central buffer at the points where the
//! engine is quiescent anyway — superstep barriers, mutation/Q-cut
//! quiesce windows, drain, teardown — which is when taking all the
//! locks is free.
//!
//! Timestamps are plain `f64` seconds with no unit enforcement on
//! purpose: the simulated engine stamps **virtual** time (its event
//! queue clock) and the thread runtime stamps **monotonic wall** time
//! (a [`WallClock`] anchored at recorder creation), so the same
//! vocabulary yields comparable traces from both runtimes and every
//! sim cost-model constant can be calibrated against a real trace.
//!
//! Consumers:
//! * [`summarize`] folds an event stream into per-query
//!   [`QueryTimeline`]s whose five phase buckets (queued / executing /
//!   frozen-waiting / deferred-by-dop / parked-at-barrier) partition
//!   the query's time in system by construction.
//! * [`export_chrome`] renders the stream as Chrome trace-event JSON
//!   (one track per lane, one per query) loadable in Perfetto, and
//!   [`validate_chrome`] round-trips that JSON through a
//!   validity + track-consistency + envelope-nesting check.

#![forbid(unsafe_code)]

mod chrome;
mod json;
mod summary;

pub use chrome::{export_chrome, validate_chrome, ChromeStats};
pub use summary::{summarize, QueryTimeline, TraceSummary};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// "No query" marker for [`Event::query`].
pub const QNONE: u64 = u64::MAX;
/// "No partition" marker for [`Event::partition`].
pub const PNONE: u32 = u32::MAX;

/// What a task-span event was executing (the pool command vocabulary).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmdKind {
    /// Superstep compute: take the partition's mail, seal the inbox and
    /// execute the vertex function over the scope.
    Step,
    /// Output collection after termination.
    Collect,
    /// Anything else the pool runs (scope reports, state migration, …).
    Other,
}

impl CmdKind {
    /// Stable display name (Chrome span names, summaries).
    pub fn name(self) -> &'static str {
        match self {
            CmdKind::Step => "step",
            CmdKind::Collect => "collect",
            CmdKind::Other => "other",
        }
    }
}

/// The event vocabulary. Span-shaped kinds come in `*Begin`/`*End`
/// pairs; the rest are instants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A query entered the admission queue (its `queued` phase opens).
    Admitted,
    /// A query left the system (completed / rejected / index-served);
    /// `aux` is an [`outcome`] code.
    Outcome,
    /// A pool lane started executing a task; `aux` bit 0 = stolen
    /// (executed off the partition's affine lane).
    TaskBegin,
    /// The matching task finished; `aux` = vertices executed (steps).
    TaskEnd,
    /// All of a query's superstep tasks completed (frozen-waiting
    /// phase opens until the barrier releases the next superstep).
    SuperstepDone,
    /// The query parked at its barrier for a global quiesce window.
    Park,
    /// The parked query was released after the quiesce window.
    Unpark,
    /// A superstep task was withheld by the query's DoP budget.
    Defer,
    /// A withheld task was released by a completing sibling.
    DeferRelease,
    /// Stop-the-world quiesce window opened (coordinator track).
    QuiesceBegin,
    /// Quiesce window closed; parked queries resume.
    QuiesceEnd,
    /// Mutation-epoch application began inside the quiesce window;
    /// `aux` = batches applied.
    MutationBegin,
    /// Mutation-epoch application finished.
    MutationEnd,
    /// Q-cut migration phase began inside the quiesce window.
    QcutBegin,
    /// Q-cut migration phase finished.
    QcutEnd,
    /// The topology overlay was compacted at this barrier.
    Compaction,
    /// Point-index repair began at this mutation barrier.
    RepairBegin,
    /// Point-index repair finished: `aux` holds the root passes run in
    /// its low 32 bits and, above them, how many of the window's batches
    /// rebuilt the labels (each because it netted to an edge removal).
    RepairEnd,
}

/// [`Event::aux`] codes for [`Kind::Outcome`].
pub mod outcome {
    /// Ran to completion through the superstep loop.
    pub const COMPLETED: u64 = 0;
    /// Rejected at admission (backpressure).
    pub const REJECTED: u64 = 1;
    /// Answered from the point index at admission.
    pub const INDEX_SERVED: u64 = 2;
}

/// Where an event renders in the exported trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Track {
    /// The serve loop / barrier machinery (sim: the event loop).
    Coordinator,
    /// One execution lane: a pool thread on the thread runtime, a
    /// partition compute lane on the simulated engine.
    Lane(u32),
    /// One query's lifecycle track.
    Query(u64),
}

/// One recorded event: fixed-size, `Copy`, cheap to stamp.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Seconds — virtual on the sim, monotonic wall on threads.
    pub at_secs: f64,
    pub kind: Kind,
    pub track: Track,
    /// Owning query, or [`QNONE`].
    pub query: u64,
    /// Touched partition, or [`PNONE`].
    pub partition: u32,
    /// Task-span command kind ([`CmdKind::Other`] when meaningless).
    pub cmd: CmdKind,
    /// Kind-specific payload (see each [`Kind`] variant).
    pub aux: u64,
}

impl Event {
    /// A query-lifecycle event on the query's own track.
    pub fn query(at_secs: f64, kind: Kind, q: u64) -> Event {
        Event {
            at_secs,
            kind,
            track: Track::Query(q),
            query: q,
            partition: PNONE,
            cmd: CmdKind::Other,
            aux: 0,
        }
    }

    /// Same, with an `aux` payload.
    pub fn query_aux(at_secs: f64, kind: Kind, q: u64, aux: u64) -> Event {
        Event {
            aux,
            ..Event::query(at_secs, kind, q)
        }
    }

    /// A task-span event on an execution lane.
    pub fn task(
        at_secs: f64,
        kind: Kind,
        lane: u32,
        q: u64,
        p: u32,
        cmd: CmdKind,
        aux: u64,
    ) -> Event {
        Event {
            at_secs,
            kind,
            track: Track::Lane(lane),
            query: q,
            partition: p,
            cmd,
            aux,
        }
    }

    /// A barrier-machinery event on the coordinator track.
    pub fn coord(at_secs: f64, kind: Kind, aux: u64) -> Event {
        Event {
            at_secs,
            kind,
            track: Track::Coordinator,
            query: QNONE,
            partition: PNONE,
            cmd: CmdKind::Other,
            aux,
        }
    }
}

/// Total order for event streams: by timestamp, stable within ties
/// (callers sort with `sort_by` which is stable, so same-stamp events
/// from one actor keep their emission order — the case that matters on
/// the virtual clock, where one actor records everything).
pub fn order(a: &Event, b: &Event) -> std::cmp::Ordering {
    a.at_secs
        .partial_cmp(&b.at_secs)
        .unwrap_or(std::cmp::Ordering::Equal)
}

struct Ring {
    buf: Vec<Event>,
}

/// The per-actor ring recorder. Actor 0 is the coordinator; actors
/// `1..=lanes` are the execution lanes.
pub struct Recorder {
    rings: Vec<Mutex<Ring>>,
    capacity: usize,
    drained: Mutex<Vec<Event>>,
    dropped: AtomicU64,
    /// How much of `dropped` earlier `take_all` calls already reported.
    dropped_taken: AtomicU64,
}

impl Recorder {
    /// A recorder with one ring per actor (`1 + lanes`), each bounded
    /// at `capacity` events between drains.
    pub fn new(lanes: usize, capacity: usize) -> Recorder {
        let actors = 1 + lanes;
        Recorder {
            rings: (0..actors)
                .map(|_| {
                    Mutex::new(Ring {
                        buf: Vec::with_capacity(capacity.min(1024)),
                    })
                })
                .collect(),
            capacity: capacity.max(1),
            drained: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            dropped_taken: AtomicU64::new(0),
        }
    }

    /// Append to `actor`'s ring; a full ring drops the event and
    /// counts it — recording never blocks on a consumer and never
    /// grows unbounded.
    pub fn record(&self, actor: usize, ev: Event) {
        let Some(ring) = self.rings.get(actor) else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let mut ring = ring.lock().expect("trace ring poisoned");
        if ring.buf.len() >= self.capacity {
            drop(ring);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        ring.buf.push(ev);
    }

    /// Append a begin/end pair under one lock — the hot-path variant
    /// for task spans, where both stamps are known once the task ends
    /// and a second lock round-trip would be pure overhead.
    pub fn record2(&self, actor: usize, a: Event, b: Event) {
        let Some(ring) = self.rings.get(actor) else {
            self.dropped.fetch_add(2, Ordering::Relaxed);
            return;
        };
        let mut ring = ring.lock().expect("trace ring poisoned");
        let room = self.capacity.saturating_sub(ring.buf.len());
        match room {
            0 => {
                drop(ring);
                self.dropped.fetch_add(2, Ordering::Relaxed);
            }
            1 => {
                ring.buf.push(a);
                drop(ring);
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                ring.buf.push(a);
                ring.buf.push(b);
            }
        }
    }

    /// Move every ring's contents into the central drained buffer.
    /// Called by the coordinator at quiesce points, where the lanes
    /// are idle and the locks are uncontended.
    pub fn drain(&self) {
        let mut out = self.drained.lock().expect("trace drain poisoned");
        for ring in &self.rings {
            let mut ring = ring.lock().expect("trace ring poisoned");
            out.append(&mut ring.buf);
        }
    }

    /// Events dropped by full rings since creation.
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drain, then hand over everything accumulated since the last
    /// `take_all`, plus the dropped-count delta over the same window.
    pub fn take_all(&self) -> (Vec<Event>, u64) {
        self.drain();
        let events = std::mem::take(&mut *self.drained.lock().expect("trace drain poisoned"));
        let dropped = self.dropped.load(Ordering::Relaxed);
        let prior = self.dropped_taken.swap(dropped, Ordering::Relaxed);
        (events, dropped.saturating_sub(prior))
    }
}

/// Monotonic wall clock for the thread runtime's stamps: seconds since
/// recorder creation, comparable across every thread in the process.
pub struct WallClock {
    t0: Instant,
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl WallClock {
    pub fn new() -> WallClock {
        WallClock { t0: Instant::now() }
    }

    pub fn now_secs(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: f64) -> Event {
        Event::coord(at, Kind::Compaction, 0)
    }

    #[test]
    fn records_and_takes_in_order() {
        let r = Recorder::new(2, 16);
        r.record(0, ev(1.0));
        r.record(1, ev(2.0));
        r.record(2, ev(3.0));
        let (mut got, dropped) = r.take_all();
        assert_eq!(dropped, 0);
        got.sort_by(order);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].at_secs, 1.0);
        assert_eq!(got[2].at_secs, 3.0);
    }

    #[test]
    fn full_ring_drops_and_counts_instead_of_growing() {
        let r = Recorder::new(0, 4);
        for i in 0..10 {
            r.record(0, ev(i as f64));
        }
        assert_eq!(r.dropped_events(), 6);
        let (got, dropped) = r.take_all();
        assert_eq!(got.len(), 4, "ring held exactly its capacity");
        assert_eq!(dropped, 6);
        // The kept events are the earliest (drop-newest degradation).
        assert_eq!(got[0].at_secs, 0.0);
        assert_eq!(got[3].at_secs, 3.0);
    }

    #[test]
    fn drain_frees_ring_capacity() {
        let r = Recorder::new(0, 2);
        r.record(0, ev(0.0));
        r.record(0, ev(1.0));
        r.drain();
        r.record(0, ev(2.0));
        let (got, dropped) = r.take_all();
        assert_eq!(got.len(), 3);
        assert_eq!(dropped, 0, "draining between bursts avoids drops");
    }

    #[test]
    fn dropped_delta_is_per_take_window() {
        let r = Recorder::new(0, 1);
        r.record(0, ev(0.0));
        r.record(0, ev(1.0));
        assert_eq!(r.take_all().1, 1);
        r.record(0, ev(2.0));
        r.record(0, ev(3.0));
        let (_, d) = r.take_all();
        assert_eq!(d, 1, "second window reports only its own drops");
        assert_eq!(r.dropped_events(), 2, "cumulative counter keeps both");
    }

    #[test]
    fn unknown_actor_counts_as_dropped() {
        let r = Recorder::new(1, 8);
        r.record(7, ev(0.0));
        assert_eq!(r.dropped_events(), 1);
    }

    #[test]
    fn concurrent_lane_recording_is_safe() {
        let r = std::sync::Arc::new(Recorder::new(4, 1024));
        std::thread::scope(|s| {
            for lane in 0..4u32 {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..200 {
                        r.record(
                            1 + lane as usize,
                            Event::task(i as f64, Kind::TaskBegin, lane, 0, lane, CmdKind::Step, 0),
                        );
                    }
                });
            }
        });
        let (got, dropped) = r.take_all();
        assert_eq!(got.len(), 800);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_secs();
        let b = c.now_secs();
        assert!(b >= a);
    }
}
