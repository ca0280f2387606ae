//! The per-actor ring recorder and the event vocabulary it stores (see
//! [`crate::trace`] for the model).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// "No query" marker for [`Event::query`].
pub const QNONE: u64 = u64::MAX;
/// "No partition" marker for [`Event::partition`].
pub const PNONE: u32 = u32::MAX;

/// The event vocabulary. Span-shaped kinds come in `*Begin`/`*End`
/// pairs; the rest are instants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A query entered the admission queue (its `queued` phase opens).
    Admitted,
    /// A query left the system (completed / rejected / index-served);
    /// `aux` is an [`outcome`] code.
    Outcome,
    /// A pool lane started executing a task — every task is a Step: take
    /// the partition's input from the query's record, seal the inbox and
    /// execute the vertex function over the scope. `aux` bit 0 = stolen
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
    /// Point-index repair finished: `aux` holds the root directions
    /// relabelled (`RepairSummary::roots_rerun`) in its low 32 bits and,
    /// above them, how many of the window's batches rebuilt the labels
    /// (each because it netted to an edge removal).
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
    pub fn task(at_secs: f64, kind: Kind, lane: u32, q: u64, p: u32, aux: u64) -> Event {
        Event {
            at_secs,
            kind,
            track: Track::Lane(lane),
            query: q,
            partition: p,
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
        assert_eq!(r.dropped.load(Ordering::Relaxed), 6);
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
        assert_eq!(
            r.dropped.load(Ordering::Relaxed),
            2,
            "cumulative counter keeps both"
        );
    }

    #[test]
    fn unknown_actor_counts_as_dropped() {
        let r = Recorder::new(1, 8);
        r.record(7, ev(0.0));
        assert_eq!(r.dropped.load(Ordering::Relaxed), 1);
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
                            Event::task(i as f64, Kind::TaskBegin, lane, 0, lane, 0),
                        );
                    }
                });
            }
        });
        let (got, dropped) = r.take_all();
        assert_eq!(got.len(), 800);
        assert_eq!(dropped, 0);
    }
}
