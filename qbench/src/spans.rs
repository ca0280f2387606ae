//! The benchmark's own span recorder.
//!
//! Spans are taken from outside the engine, around calls into its public
//! functions: a name, a start, an end, the span that caused it, and the
//! workload's id. They stay in memory and are written once, at exit, in
//! Chrome trace-event format. The driver thread opens and closes spans in
//! stack order ([`Spans::enter`]); code running on the engine's threads
//! (a probed `compute`, an index `serve`) adds already-finished sampled
//! spans under the block that is currently open ([`Spans::sampled`]).

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{obj, Json};

/// `parent` of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Recorded on an engine thread rather than the driver thread.
    pub sampled: bool,
}

/// The in-memory span store of one workload run.
pub struct Spans {
    origin: Instant,
    workload_id: u32,
    spans: Mutex<Vec<Span>>,
    /// Innermost span open on the driver thread.
    current: AtomicU32,
    /// Span that adopts sampled spans (the open block).
    sample_parent: AtomicU32,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    spans: &'a Spans,
    id: u32,
    parent: u32,
}

impl Spans {
    pub fn new(workload_id: u32) -> Self {
        Spans {
            origin: Instant::now(),
            workload_id,
            spans: Mutex::new(Vec::new()),
            current: AtomicU32::new(NO_PARENT),
            sample_parent: AtomicU32::new(NO_PARENT),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A push can never leave the vector torn, so a panic elsewhere
        // while the lock was held does not invalidate it.
        self.spans.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Open a span on the driver thread under the innermost open one.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let parent = self.current.load(Ordering::Relaxed);
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        let id = spans.len() as u32;
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: (parent != NO_PARENT).then_some(parent),
            sampled: false,
        });
        drop(spans);
        self.current.store(id, Ordering::Relaxed);
        SpanGuard {
            spans: self,
            id,
            parent,
        }
    }

    /// Open a span that also adopts the sampled spans recorded while it
    /// is open (one block of the window). The engine threads read the
    /// adopter after the channel send that hands them the block's first
    /// query, so the store needs no ordering of its own.
    pub fn enter_block(&self, name: &'static str) -> SpanGuard<'_> {
        let guard = self.enter(name);
        self.sample_parent.store(guard.id, Ordering::Relaxed);
        guard
    }

    /// Record a finished span from an engine thread.
    pub fn sampled(&self, name: &'static str, started: Instant, ended: Instant) {
        let parent = self.sample_parent.load(Ordering::Relaxed);
        let start_ns = started.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = ended.saturating_duration_since(self.origin).as_nanos() as u64;
        self.lock().push(Span {
            name,
            start_ns,
            end_ns,
            parent: (parent != NO_PARENT).then_some(parent),
            sampled: true,
        });
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// A copy of every span recorded so far.
    #[cfg(test)]
    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Chrome trace-event document: one complete (`"ph": "X"`) event per
    /// span, microsecond timestamps, `pid` = workload id, driver spans on
    /// `tid` 0 and sampled engine-thread spans on `tid` 1; the span's own
    /// index and its parent's ride in `args`.
    pub fn to_chrome_trace(&self, workload: &str) -> Json {
        let events = self
            .lock()
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj([
                    ("name", Json::Str(s.name.to_string())),
                    ("cat", Json::Str(workload.to_string())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(f64::from(self.workload_id))),
                    ("tid", Json::Num(if s.sampled { 1.0 } else { 0.0 })),
                    (
                        "args",
                        obj([
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        obj([
            ("displayTimeUnit", Json::Str("ms".into())),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

impl SpanGuard<'_> {
    /// Seconds since the span opened.
    pub fn elapsed_secs(&self) -> f64 {
        let start = self.spans.lock()[self.id as usize].start_ns;
        (self.spans.now_ns() - start) as f64 / 1e9
    }

    /// Close the span now and return its duration in seconds.
    pub fn finish(self) -> f64 {
        let secs = self.elapsed_secs();
        drop(self);
        secs
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.spans.now_ns();
        let mut spans = self.spans.lock();
        let span = &mut spans[self.id as usize];
        span.end_ns = end.max(span.start_ns);
        drop(spans);
        self.spans.current.store(self.parent, Ordering::Relaxed);
        // The block stops adopting: later samples (there are none while
        // the engine is drained) fall to the enclosing span.
        let _ = self.spans.sample_parent.compare_exchange(
            self.id,
            self.parent,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_sampling() {
        let spans = Spans::new(3);
        let root = spans.enter("run");
        {
            let block = spans.enter_block("block");
            let t0 = Instant::now();
            spans.sampled("compute", t0, Instant::now());
            let inner = spans.enter("drain");
            assert!(inner.finish() >= 0.0);
            drop(block);
        }
        drop(root);
        let all = spans.snapshot();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(1), "sample adopted by the block");
        assert!(all[2].sampled);
        assert_eq!(all[3].parent, Some(1));
        for s in &all {
            if let Some(p) = s.parent {
                let p = &all[p as usize];
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns, "{s:?}");
            }
        }
        let doc = spans.to_chrome_trace("w");
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 4);
    }
}
