//! The engines' structured event tracer, compiled into every build and
//! switched on per engine by [`crate::SystemConfig::trace`]: with the
//! knob off a [`Tracer`] holds no recorder and every call site costs one
//! `Option` check.
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
//! Every [`Tracer`] method takes an explicit `at` in plain `f64`
//! seconds: the simulated engine stamps **virtual** time (its event
//! queue clock) and the thread runtime stamps **monotonic wall** time
//! (its session clock, `runtime.rs::Clock`), so the same vocabulary
//! yields comparable traces from both runtimes and every sim cost-model
//! constant can be calibrated against a real trace.
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
//! * `EngineReport::imbalance_series` buckets the vertex updates of the
//!   `Step` spans' [`Kind::TaskEnd`] events by partition: the trace is
//!   the report's one record of per-partition work, complete when
//!   nothing was dropped.
//!
//! The cost of tracing on the wall clock is tracked by `qbench` as
//! `bench.trace_overhead` (a plain window's qps over a traced one's);
//! `trace_plane::sim_timelines_partition_time_in_system` pins the phase
//! fold against time in system.
//!
//! [`TraceData`] is the report-side accumulation (raw events + dropped
//! count) that `EngineReport` and the thread runtime's `Snapshot`
//! carry. The thread coordinator hands its accumulation over at every
//! drain and at the stop and starts a new one, so what the engine
//! merges is disjoint: events append, dropped counts add.

mod chrome;
mod json;
mod recorder;
mod summary;

pub use chrome::{export_chrome, validate_chrome, ChromeStats};
pub use recorder::{order, outcome, Event, Kind, Track, PNONE, QNONE};
pub use summary::{summarize, QueryTimeline, TraceSummary};

use crate::index_plane::IndexRepairEvent;
use recorder::Recorder;
use std::sync::Arc;

/// Shared recording handle: the coordinator (or sim event loop) and
/// every pool thread hold clones of one `Tracer`.
#[derive(Clone, Default)]
pub struct Tracer {
    rec: Option<Arc<Recorder>>,
}

impl Tracer {
    /// A tracer over `lanes` execution lanes with per-actor rings of
    /// `capacity` events. `enabled = false` yields an inert tracer (the
    /// runtime-knob-off case).
    pub fn new(lanes: usize, capacity: usize, enabled: bool) -> Tracer {
        Tracer {
            rec: enabled.then(|| Arc::new(Recorder::new(lanes, capacity))),
        }
    }

    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    fn rec(&self, actor: usize, ev: Event) {
        if let Some(r) = &self.rec {
            r.record(actor, ev);
        }
    }

    pub fn admitted(&self, at: f64, q: u64) {
        self.rec(0, Event::query(at, Kind::Admitted, q));
    }

    /// The query left the system; `code` is an [`outcome`] code.
    pub fn outcome(&self, at: f64, q: u64, code: u64) {
        self.rec(0, Event::query_aux(at, Kind::Outcome, q, code));
    }

    pub fn superstep_done(&self, at: f64, q: u64) {
        self.rec(0, Event::query(at, Kind::SuperstepDone, q));
    }

    pub fn park(&self, at: f64, q: u64) {
        self.rec(0, Event::query(at, Kind::Park, q));
    }

    pub fn unpark(&self, at: f64, q: u64) {
        self.rec(0, Event::query(at, Kind::Unpark, q));
    }

    pub fn defer(&self, at: f64, q: u64, p: u32) {
        self.rec(
            0,
            Event {
                partition: p,
                ..Event::query(at, Kind::Defer, q)
            },
        );
    }

    /// Stamped where the completion that frees the budget slot is
    /// observed: `lane` is the pool thread (thread runtime) or the
    /// partition (sim) whose Step just finished, `p` the partition
    /// released.
    pub fn defer_release(&self, at: f64, lane: u32, q: u64, p: u32) {
        self.rec(
            lane as usize + 1,
            Event {
                partition: p,
                ..Event::query(at, Kind::DeferRelease, q)
            },
        );
    }

    /// A lane ran a task from `begin_at` to `end_at`; `executed` =
    /// vertices stepped. Thread runtime: `lane` = pool thread id, stamped
    /// from that thread. Sim: `lane` = partition. Begin and end are
    /// recorded together, under one ring lock, once the task finished.
    #[allow(clippy::too_many_arguments)]
    pub fn task_span(
        &self,
        begin_at: f64,
        end_at: f64,
        lane: u32,
        q: u64,
        p: u32,
        stolen: bool,
        executed: u64,
    ) {
        if let Some(r) = &self.rec {
            r.record2(
                lane as usize + 1,
                Event::task(begin_at, Kind::TaskBegin, lane, q, p, u64::from(stolen)),
                Event::task(end_at, Kind::TaskEnd, lane, q, p, executed),
            );
        }
    }

    pub fn quiesce_begin(&self, at: f64) {
        self.rec(0, Event::coord(at, Kind::QuiesceBegin, 0));
    }

    pub fn quiesce_end(&self, at: f64) {
        self.rec(0, Event::coord(at, Kind::QuiesceEnd, 0));
    }

    pub fn mutation_begin(&self, at: f64, batches: u64) {
        self.rec(0, Event::coord(at, Kind::MutationBegin, batches));
    }

    pub fn mutation_end(&self, at: f64, batches: u64) {
        self.rec(0, Event::coord(at, Kind::MutationEnd, batches));
    }

    pub fn qcut_begin(&self, at: f64) {
        self.rec(0, Event::coord(at, Kind::QcutBegin, 0));
    }

    pub fn qcut_end(&self, at: f64) {
        self.rec(0, Event::coord(at, Kind::QcutEnd, 0));
    }

    pub fn compaction(&self, at: f64) {
        self.rec(0, Event::coord(at, Kind::Compaction, 0));
    }

    pub fn repair_begin(&self, at: f64) {
        self.rec(0, Event::coord(at, Kind::RepairBegin, 0));
    }

    /// Close the repair span: the window's root directions relabelled
    /// and how many of its batches rebuilt (see [`Kind::RepairEnd`]).
    pub fn repair_end(&self, at: f64, repairs: &[IndexRepairEvent]) {
        let passes: usize = repairs.iter().map(|ev| ev.summary.roots_rerun).sum();
        let rebuilt = repairs.iter().filter(|ev| ev.summary.rebuilt).count();
        let aux = (passes as u64).min(u64::from(u32::MAX)) | (rebuilt as u64) << 32;
        self.rec(0, Event::coord(at, Kind::RepairEnd, aux));
    }

    /// Move every lane ring into the central buffer — called at quiesce
    /// points where the lanes are idle anyway.
    pub fn drain(&self) {
        if let Some(r) = &self.rec {
            r.drain();
        }
    }
}

/// Accumulated trace output carried by `EngineReport` (and by what the
/// thread runtime's coordinator hands over at a drain or stop).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceData {
    /// Raw events (unsorted; consumers sort by stamp).
    pub events: Vec<Event>,
    /// Events dropped by full rings — non-zero means incomplete
    /// timelines; raise `SystemConfig::trace_ring_capacity`.
    pub dropped_events: u64,
}

impl TraceData {
    /// Pull everything the tracer has recorded since the last absorb
    /// into this accumulation.
    pub fn absorb(&mut self, t: &Tracer) {
        if let Some(r) = &t.rec {
            let (events, dropped) = r.take_all();
            self.events.extend(events);
            self.dropped_events += dropped;
        }
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Fold in an accumulation handed over by the coordinator. Its
    /// dropped count covers only what it held — the coordinator's
    /// restarts at every hand-over — so the counts add.
    pub fn merge(&mut self, handed: TraceData) {
        self.events.extend(handed.events);
        self.dropped_events += handed.dropped_events;
    }

    /// Per-query timelines + recorder health (see [`summarize`]).
    pub fn summary(&self) -> TraceSummary {
        summarize(&self.events, self.dropped_events)
    }

    /// Chrome trace-event JSON (see [`export_chrome`]).
    pub fn export_chrome(&self) -> String {
        export_chrome(&self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(2, 64, false);
        assert!(!t.enabled());
        t.admitted(0.0, 1);
        t.task_span(0.1, 0.2, 0, 1, 0, false, 1);
        let mut data = TraceData::default();
        data.absorb(&t);
        assert!(data.is_empty());
    }

    #[test]
    fn enabled_tracer_accumulates_and_summarizes() {
        let t = Tracer::new(1, 64, true);
        t.admitted(0.0, 7);
        t.task_span(1.0, 2.0, 0, 7, 0, false, 5);
        t.superstep_done(2.0, 7);
        t.outcome(2.0, 7, outcome::COMPLETED);
        let mut data = TraceData::default();
        data.absorb(&t);
        assert_eq!(data.events.len(), 5);
        let s = data.summary();
        assert_eq!(s.timelines.len(), 1);
        assert_eq!(s.timelines[0].queued_secs, 1.0);
        assert_eq!(s.timelines[0].executing_secs, 1.0);
        assert_eq!(s.dropped_events, 0);
    }

    #[test]
    fn hand_overs_add_up_their_events_and_drops() {
        // A 1-event coordinator ring: of the two events recorded between
        // hand-overs, the second is dropped.
        let t = Tracer::new(0, 1, true);
        let mut engine = TraceData::default();
        for q in 0..3 {
            t.admitted(0.0, q);
            t.outcome(1.0, q, outcome::COMPLETED);
            // What the coordinator hands over holds only its own window.
            let mut handed = TraceData::default();
            handed.absorb(&t);
            assert_eq!((handed.events.len(), handed.dropped_events), (1, 1));
            engine.merge(handed);
        }
        assert_eq!((engine.events.len(), engine.dropped_events), (3, 3));
    }
}
