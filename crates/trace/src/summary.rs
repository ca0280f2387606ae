//! Per-query timelines: fold an event stream into a five-phase
//! breakdown whose buckets partition the query's time in system.
//!
//! The fold replays the stream in timestamp order driving one state
//! machine per query; at every transition the elapsed interval lands
//! in exactly one bucket, so `phase_sum_secs()` equals
//! `time_in_system_secs()` up to f64 rounding *by construction* —
//! `trace_plane::sim_timelines_partition_time_in_system` (and its thread
//! twin) asserts the residual stays under 1%; `qbench`'s
//! `bench.trace_overhead` tracks what tracing costs on the wall clock.
//!
//! Phase semantics (the precise micro-definitions behind the names):
//! * **queued** — admission until the query's first task starts
//!   executing on a lane (covers scheduler wait *and* the dispatch
//!   hop), plus the whole life of rejected / index-served queries.
//! * **executing** — wall-clock union of "at least one of the query's
//!   tasks is on a lane". Overlapping tasks under DoP > 1 count once:
//!   this is elapsed time, not CPU time (CPU time is the sum of
//!   `TaskBegin`..`TaskEnd` span lengths on the lane tracks).
//! * **deferred-by-dop** — mid-superstep with zero tasks running:
//!   remaining tasks are withheld by the DoP budget or sitting in
//!   pool queues behind other queries.
//! * **frozen-waiting** — superstep complete, waiting for the barrier
//!   decision and the next superstep's first task.
//! * **parked-at-barrier** — parked for a global quiesce window
//!   (mutation epochs, Q-cut migration, compaction) until released.

use crate::{order, Event, Kind, QNONE};

/// One query's journey through the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryTimeline {
    pub query: u64,
    /// Admission stamp (seconds — virtual or wall, per runtime).
    pub admitted_at_secs: f64,
    /// Outcome stamp.
    pub finished_at_secs: f64,
    /// [`crate::outcome`] code from the outcome event.
    pub outcome: u64,
    pub queued_secs: f64,
    pub executing_secs: f64,
    pub frozen_secs: f64,
    pub deferred_secs: f64,
    pub parked_secs: f64,
    /// Tasks that ran for this query (all command kinds).
    pub tasks: u64,
    /// Completed supersteps.
    pub supersteps: u64,
    /// DoP-budget deferrals observed.
    pub defers: u64,
}

impl QueryTimeline {
    /// Admission → outcome.
    pub fn time_in_system_secs(&self) -> f64 {
        (self.finished_at_secs - self.admitted_at_secs).max(0.0)
    }

    /// Sum of the five phase buckets; equals
    /// [`time_in_system_secs`](Self::time_in_system_secs) up to f64
    /// rounding.
    pub fn phase_sum_secs(&self) -> f64 {
        self.queued_secs
            + self.executing_secs
            + self.frozen_secs
            + self.deferred_secs
            + self.parked_secs
    }
}

/// What `EngineReport::trace()` returns: every query's timeline plus
/// the recorder's health counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// One timeline per traced query, in admission order.
    pub timelines: Vec<QueryTimeline>,
    /// Events the summary was built from.
    pub events: usize,
    /// Events dropped by full rings — non-zero means the timelines
    /// (and any export) are incomplete; raise the ring capacity.
    pub dropped_events: u64,
}

impl TraceSummary {
    /// The timeline of one query, if it was traced.
    pub fn timeline(&self, query: u64) -> Option<&QueryTimeline> {
        self.timelines.iter().find(|t| t.query == query)
    }
}

/// The five mutually-exclusive query states, plus terminal `Done`.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum St {
    Queued,
    Executing,
    Deferred,
    Frozen,
    Parked,
    Done,
}

impl St {
    pub(crate) fn phase_name(self) -> &'static str {
        match self {
            St::Queued => "queued",
            St::Executing => "executing",
            St::Deferred => "deferred-by-dop",
            St::Frozen => "frozen-waiting",
            St::Parked => "parked-at-barrier",
            St::Done => "done",
        }
    }
}

pub(crate) struct Fold {
    pub(crate) tl: QueryTimeline,
    /// Every closed interval, for the Chrome exporter's phase spans.
    pub(crate) intervals: Vec<(St, f64, f64)>,
    st: St,
    since: f64,
    running: u32,
}

impl Fold {
    fn new(q: u64, at: f64) -> Fold {
        Fold {
            tl: QueryTimeline {
                query: q,
                admitted_at_secs: at,
                finished_at_secs: at,
                ..QueryTimeline::default()
            },
            intervals: Vec::new(),
            st: St::Queued,
            since: at,
            running: 0,
        }
    }

    /// Close the open interval into the current state's bucket and
    /// move to `next`.
    fn flip(&mut self, at: f64, next: St) {
        let dt = (at - self.since).max(0.0);
        match self.st {
            St::Queued => self.tl.queued_secs += dt,
            St::Executing => self.tl.executing_secs += dt,
            St::Deferred => self.tl.deferred_secs += dt,
            St::Frozen => self.tl.frozen_secs += dt,
            St::Parked => self.tl.parked_secs += dt,
            St::Done => {}
        }
        if dt > 0.0 && self.st != St::Done {
            self.intervals.push((self.st, self.since, self.since + dt));
        }
        self.since = self.since.max(at);
        self.st = next;
    }
}

/// Replay a **sorted** stream through the per-query state machines.
pub(crate) fn fold_queries(sorted: &[Event]) -> Vec<Fold> {
    let mut folds: Vec<Fold> = Vec::new();
    for ev in sorted {
        if ev.query == QNONE {
            continue;
        }
        if ev.kind == Kind::Admitted {
            folds.push(Fold::new(ev.query, ev.at_secs));
            continue;
        }
        // Latest fold wins: engines never reuse query ids, but a
        // truncated (ring-dropped) stream may miss an admission.
        let Some(f) = folds.iter_mut().rev().find(|f| f.tl.query == ev.query) else {
            continue;
        };
        if f.st == St::Done {
            continue;
        }
        let at = ev.at_secs;
        match ev.kind {
            Kind::TaskBegin => {
                if f.running == 0 {
                    f.flip(at, St::Executing);
                }
                f.running += 1;
                f.tl.tasks += 1;
            }
            Kind::TaskEnd => {
                f.running = f.running.saturating_sub(1);
                if f.running == 0 {
                    // Provisionally mid-superstep; a SuperstepDone at
                    // (or just after) this stamp corrects to Frozen.
                    f.flip(at, St::Deferred);
                }
            }
            Kind::SuperstepDone => {
                f.flip(at, St::Frozen);
                f.tl.supersteps += 1;
            }
            Kind::Park => f.flip(at, St::Parked),
            Kind::Unpark => f.flip(at, St::Deferred),
            Kind::Defer => f.tl.defers += 1,
            Kind::Outcome => {
                f.flip(at, St::Done);
                f.tl.finished_at_secs = at.max(f.tl.admitted_at_secs);
                f.tl.outcome = ev.aux;
            }
            _ => {}
        }
    }
    folds
}

/// Fold a (not necessarily sorted) event stream into per-query
/// timelines. `dropped` is the recorder's drop counter, passed through
/// to the summary.
pub fn summarize(events: &[Event], dropped: u64) -> TraceSummary {
    let mut sorted: Vec<Event> = events.to_vec();
    sorted.sort_by(order);
    TraceSummary {
        timelines: fold_queries(&sorted).into_iter().map(|f| f.tl).collect(),
        events: events.len(),
        dropped_events: dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{outcome, CmdKind, Event};

    fn task(at: f64, kind: Kind, q: u64) -> Event {
        Event::task(at, kind, 0, q, 0, CmdKind::Step, 0)
    }

    #[test]
    fn phases_partition_time_in_system() {
        let q = 7;
        let evs = vec![
            Event::query(0.0, Kind::Admitted, q),
            task(1.0, Kind::TaskBegin, q),              // queued 1.0
            task(2.0, Kind::TaskEnd, q),                // executing 1.0
            Event::query(2.25, Kind::SuperstepDone, q), // deferred 0.25
            task(3.0, Kind::TaskBegin, q),              // frozen 0.75
            task(4.0, Kind::TaskEnd, q),                // executing 1.0
            Event::query(4.0, Kind::SuperstepDone, q),
            Event::query(4.5, Kind::Park, q),   // frozen 0.5
            Event::query(6.0, Kind::Unpark, q), // parked 1.5
            task(6.5, Kind::TaskBegin, q),      // deferred 0.5
            task(7.0, Kind::TaskEnd, q),        // executing 0.5
            Event::query(7.0, Kind::SuperstepDone, q),
            Event::query_aux(7.0, Kind::Outcome, q, outcome::COMPLETED),
        ];
        let s = summarize(&evs, 0);
        assert_eq!(s.timelines.len(), 1);
        let t = &s.timelines[0];
        assert_eq!(t.queued_secs, 1.0);
        assert_eq!(t.executing_secs, 2.5);
        assert_eq!(t.frozen_secs, 1.25);
        assert_eq!(t.deferred_secs, 0.75);
        assert_eq!(t.parked_secs, 1.5);
        assert_eq!(t.supersteps, 3);
        assert_eq!(t.tasks, 3);
        assert!((t.phase_sum_secs() - t.time_in_system_secs()).abs() < 1e-12);
    }

    #[test]
    fn overlapping_tasks_count_elapsed_once() {
        let q = 1;
        let evs = vec![
            Event::query(0.0, Kind::Admitted, q),
            task(1.0, Kind::TaskBegin, q),
            task(1.5, Kind::TaskBegin, q), // overlap
            task(2.0, Kind::TaskEnd, q),
            task(3.0, Kind::TaskEnd, q),
            Event::query(3.0, Kind::SuperstepDone, q),
            Event::query_aux(3.0, Kind::Outcome, q, outcome::COMPLETED),
        ];
        let t = summarize(&evs, 0).timelines[0];
        assert_eq!(t.executing_secs, 2.0, "union, not sum of task spans");
        assert_eq!(t.tasks, 2);
        assert!((t.phase_sum_secs() - t.time_in_system_secs()).abs() < 1e-12);
    }

    #[test]
    fn rejected_query_is_all_queued_time() {
        let evs = vec![
            Event::query(1.0, Kind::Admitted, 3),
            Event::query_aux(1.5, Kind::Outcome, 3, outcome::REJECTED),
        ];
        let t = summarize(&evs, 0).timelines[0];
        assert_eq!(t.queued_secs, 0.5);
        assert_eq!(t.outcome, outcome::REJECTED);
        assert_eq!(t.phase_sum_secs(), t.time_in_system_secs());
    }

    #[test]
    fn unsorted_input_is_reordered() {
        let q = 2;
        let mut evs = vec![
            task(2.0, Kind::TaskEnd, q),
            Event::query(0.0, Kind::Admitted, q),
            Event::query_aux(2.0, Kind::Outcome, q, outcome::COMPLETED),
            task(1.0, Kind::TaskBegin, q),
        ];
        evs.reverse();
        let t = summarize(&evs, 0).timelines[0];
        assert_eq!(t.queued_secs, 1.0);
        assert_eq!(t.executing_secs, 1.0);
    }

    #[test]
    fn orphan_events_without_admission_are_ignored() {
        let evs = vec![task(1.0, Kind::TaskBegin, 9)];
        let s = summarize(&evs, 4);
        assert!(s.timelines.is_empty());
        assert_eq!(s.dropped_events, 4);
        assert_eq!(s.events, 1);
    }
}
