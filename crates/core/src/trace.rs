//! The engines' tracing facade: feature-gated structured event
//! recording, compiled to a zero-sized no-op when the `trace` feature
//! is off — the same dual-module pattern as the happens-before auditor
//! in [`crate::hb`], so every call site stays `cfg`-free.
//!
//! With the feature on, [`Tracer`] wraps a shared
//! `qgraph_trace::Recorder` (per-actor bounded rings, drained at
//! barriers; a full ring drops + counts, never blocks). Every method
//! takes an explicit `at` in seconds, so each runtime stamps its own
//! notion of time — the session wall clock, or virtual time — with the
//! same vocabulary.
//!
//! Recording is additionally gated at runtime by
//! [`crate::SystemConfig::trace`]: a `trace`-feature build with the
//! knob off carries one `Option` check per call site. The cost of
//! tracing on the wall clock is tracked by `qbench` as
//! `bench.trace_overhead` (a plain window's qps over a traced one's);
//! `trace_plane::sim_timelines_partition_time_in_system` pins the phase
//! fold against time in system.
//!
//! [`TraceData`] is the report-side accumulation (raw events + dropped
//! count). It exists in both builds — zero-sized without the feature —
//! so `EngineReport` and the thread runtime's `Snapshot` carry it
//! unconditionally. The thread coordinator hands its accumulation over
//! at every drain and at the stop and starts a new one, so what the
//! engine merges is disjoint: events append, dropped counts add.

/// Task-span command codes, shared by both facade variants (the no-op
/// build has no `qgraph_trace::CmdKind` to name).
pub(crate) mod cmd {
    pub const STEP: u8 = 2;
    pub const COLLECT: u8 = 3;
    /// Catch-all for non-query commands; reserved — no call site emits
    /// it today, but `cmd_kind` must map every byte somewhere.
    #[allow(dead_code)]
    pub const OTHER: u8 = 4;
}

/// Outcome codes mirroring `qgraph_trace::outcome`.
pub(crate) mod outcome_code {
    pub const COMPLETED: u64 = 0;
    pub const REJECTED: u64 = 1;
    pub const INDEX_SERVED: u64 = 2;
}

#[cfg(feature = "trace")]
mod imp {
    use crate::index_plane::IndexRepairEvent;
    use qgraph_trace::{CmdKind, Event, Kind, Recorder};
    use std::sync::Arc;

    fn cmd_kind(code: u8) -> CmdKind {
        match code {
            super::cmd::STEP => CmdKind::Step,
            super::cmd::COLLECT => CmdKind::Collect,
            _ => CmdKind::Other,
        }
    }

    struct Inner {
        rec: Recorder,
    }

    /// Shared recording handle: the coordinator (or sim event loop)
    /// and every pool thread hold clones of one `Tracer`.
    #[derive(Clone, Default)]
    pub struct Tracer {
        inner: Option<Arc<Inner>>,
    }

    impl Tracer {
        /// A tracer over `lanes` execution lanes with per-actor rings
        /// of `capacity` events. `enabled = false` yields an inert
        /// tracer (the runtime-knob-off case).
        pub fn new(lanes: usize, capacity: usize, enabled: bool) -> Tracer {
            Tracer {
                inner: enabled.then(|| {
                    Arc::new(Inner {
                        rec: Recorder::new(lanes, capacity),
                    })
                }),
            }
        }

        pub fn enabled(&self) -> bool {
            self.inner.is_some()
        }

        fn rec(&self, actor: usize, ev: Event) {
            if let Some(i) = &self.inner {
                i.rec.record(actor, ev);
            }
        }

        pub fn admitted(&self, at: f64, q: u64) {
            self.rec(0, Event::query(at, Kind::Admitted, q));
        }

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

        /// A lane started a task. Thread runtime: `lane` = pool thread
        /// id, stamped from that thread. Sim: `lane` = partition.
        pub fn task_begin(&self, at: f64, lane: u32, q: u64, p: u32, cmd: u8, stolen: bool) {
            self.rec(
                lane as usize + 1,
                Event::task(
                    at,
                    Kind::TaskBegin,
                    lane,
                    q,
                    p,
                    cmd_kind(cmd),
                    u64::from(stolen),
                ),
            );
        }

        /// The matching task finished; `executed` = vertices stepped.
        pub fn task_end(&self, at: f64, lane: u32, q: u64, p: u32, cmd: u8, executed: u64) {
            self.rec(
                lane as usize + 1,
                Event::task(at, Kind::TaskEnd, lane, q, p, cmd_kind(cmd), executed),
            );
        }

        /// Begin + end recorded together under one ring lock — the
        /// thread runtime's hot path, where both stamps are in hand by
        /// the time the task finishes and pool commands are short
        /// enough that a second lock round-trip is measurable.
        #[allow(clippy::too_many_arguments)]
        pub fn task_span(
            &self,
            begin_at: f64,
            end_at: f64,
            lane: u32,
            q: u64,
            p: u32,
            cmd: u8,
            stolen: bool,
            executed: u64,
        ) {
            if let Some(i) = &self.inner {
                let kind = cmd_kind(cmd);
                i.rec.record2(
                    lane as usize + 1,
                    Event::task(
                        begin_at,
                        Kind::TaskBegin,
                        lane,
                        q,
                        p,
                        kind,
                        u64::from(stolen),
                    ),
                    Event::task(end_at, Kind::TaskEnd, lane, q, p, kind, executed),
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

        /// Move every lane ring into the central buffer — called at
        /// quiesce points where the lanes are idle anyway.
        pub fn drain(&self) {
            if let Some(i) = &self.inner {
                i.rec.drain();
            }
        }
    }

    /// Accumulated trace output carried by `EngineReport` (and by what
    /// the thread runtime's coordinator hands over at a drain or stop).
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct TraceData {
        /// Raw events (unsorted; consumers sort by stamp).
        pub events: Vec<Event>,
        /// Events dropped by full rings — non-zero means incomplete
        /// timelines; raise `SystemConfig::trace_ring_capacity`.
        pub dropped_events: u64,
    }

    impl TraceData {
        /// Pull everything the tracer has recorded since the last
        /// absorb into this accumulation.
        pub fn absorb(&mut self, t: &Tracer) {
            if let Some(i) = &t.inner {
                let (events, dropped) = i.rec.take_all();
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

        /// Per-query timelines + recorder health (see
        /// `qgraph_trace::summarize`).
        pub fn summary(&self) -> qgraph_trace::TraceSummary {
            qgraph_trace::summarize(&self.events, self.dropped_events)
        }

        /// Chrome trace-event JSON (see `qgraph_trace::export_chrome`).
        pub fn export_chrome(&self) -> String {
            qgraph_trace::export_chrome(&self.events)
        }
    }
}

#[cfg(not(feature = "trace"))]
mod imp {
    /// Zero-sized stand-in: every method is an empty `#[inline(always)]`
    /// body, so the instrumented call sites compile away entirely.
    #[derive(Clone, Default)]
    pub struct Tracer;

    #[allow(clippy::unused_self)]
    impl Tracer {
        #[inline(always)]
        pub fn new(_lanes: usize, _capacity: usize, _enabled: bool) -> Tracer {
            Tracer
        }
        #[inline(always)]
        pub fn enabled(&self) -> bool {
            false
        }
        #[inline(always)]
        pub fn admitted(&self, _at: f64, _q: u64) {}
        #[inline(always)]
        pub fn outcome(&self, _at: f64, _q: u64, _code: u64) {}
        #[inline(always)]
        pub fn superstep_done(&self, _at: f64, _q: u64) {}
        #[inline(always)]
        pub fn park(&self, _at: f64, _q: u64) {}
        #[inline(always)]
        pub fn unpark(&self, _at: f64, _q: u64) {}
        #[inline(always)]
        pub fn defer(&self, _at: f64, _q: u64, _p: u32) {}
        #[inline(always)]
        pub fn defer_release(&self, _at: f64, _lane: u32, _q: u64, _p: u32) {}
        #[inline(always)]
        pub fn task_begin(&self, _at: f64, _lane: u32, _q: u64, _p: u32, _cmd: u8, _stolen: bool) {}
        #[inline(always)]
        pub fn task_end(&self, _at: f64, _lane: u32, _q: u64, _p: u32, _cmd: u8, _executed: u64) {}
        #[inline(always)]
        #[allow(clippy::too_many_arguments)]
        pub fn task_span(
            &self,
            _begin_at: f64,
            _end_at: f64,
            _lane: u32,
            _q: u64,
            _p: u32,
            _cmd: u8,
            _stolen: bool,
            _executed: u64,
        ) {
        }
        #[inline(always)]
        pub fn quiesce_begin(&self, _at: f64) {}
        #[inline(always)]
        pub fn quiesce_end(&self, _at: f64) {}
        #[inline(always)]
        pub fn mutation_begin(&self, _at: f64, _batches: u64) {}
        #[inline(always)]
        pub fn mutation_end(&self, _at: f64, _batches: u64) {}
        #[inline(always)]
        pub fn qcut_begin(&self, _at: f64) {}
        #[inline(always)]
        pub fn qcut_end(&self, _at: f64) {}
        #[inline(always)]
        pub fn compaction(&self, _at: f64) {}
        #[inline(always)]
        pub fn repair_begin(&self, _at: f64) {}
        #[inline(always)]
        pub fn repair_end(&self, _at: f64, _repairs: &[crate::index_plane::IndexRepairEvent]) {}
        #[inline(always)]
        pub fn drain(&self) {}
    }

    /// Zero-sized report-side twin of the real accumulation.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct TraceData;

    #[allow(clippy::unused_self)]
    impl TraceData {
        #[inline(always)]
        pub fn absorb(&mut self, _t: &Tracer) {}
        #[inline(always)]
        pub fn is_empty(&self) -> bool {
            true
        }
        #[inline(always)]
        pub fn merge(&mut self, _handed: TraceData) {}
    }
}

pub use imp::{TraceData, Tracer};

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(2, 64, false);
        assert!(!t.enabled());
        t.admitted(0.0, 1);
        t.task_begin(0.1, 0, 1, 0, cmd::STEP, false);
        let mut data = TraceData::default();
        data.absorb(&t);
        assert!(data.is_empty());
    }

    #[test]
    fn enabled_tracer_accumulates_and_summarizes() {
        let t = Tracer::new(1, 64, true);
        t.admitted(0.0, 7);
        t.task_begin(1.0, 0, 7, 0, cmd::STEP, false);
        t.task_end(2.0, 0, 7, 0, cmd::STEP, 5);
        t.superstep_done(2.0, 7);
        t.outcome(2.0, 7, outcome_code::COMPLETED);
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
            t.outcome(1.0, q, outcome_code::COMPLETED);
            // What the coordinator hands over holds only its own window.
            let mut handed = TraceData::default();
            handed.absorb(&t);
            assert_eq!((handed.events.len(), handed.dropped_events), (1, 1));
            engine.merge(handed);
        }
        assert_eq!((engine.events.len(), engine.dropped_events), (3, 3));
    }
}
