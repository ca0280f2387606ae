//! Chrome trace-event export + round-trip validation.
//!
//! [`export_chrome`] renders an event stream as the Trace Event
//! Format's JSON object form (`{"traceEvents": [...]}`), loadable in
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`:
//!
//! * **pid 1 "engine"** — one track (tid) per execution lane (pool
//!   thread on the thread runtime, partition lane on the sim; tid =
//!   lane + 1) carrying complete `X` spans for every task the lane
//!   ran, plus tid 0 for the coordinator's barrier machinery (quiesce
//!   windows with nested mutation-apply / Q-cut / index-repair spans,
//!   compaction and repair-stage instants).
//! * **pid 2 "queries"** — one track per query: an `in-system`
//!   envelope span from admission to outcome with the five phase
//!   spans (queued / executing / frozen-waiting / deferred-by-dop /
//!   parked-at-barrier) nested inside it.
//!
//! [`validate_chrome`] re-parses the JSON (own mini-parser, no
//! serde_json in the workspace) and checks what a viewer relies on:
//! every span references a declared track, every duration is
//! non-negative (begin ≤ end), and every query's phase spans nest
//! inside that query's envelope.

use crate::json::{self, Value};
use crate::summary::fold_queries;
use crate::{order, CmdKind, Event, Kind, QNONE};

const PID_ENGINE: f64 = 1.0;
const PID_QUERIES: f64 = 2.0;
/// Validator slack for span-nesting comparisons, in microseconds —
/// covers the exporter's fixed-precision timestamp formatting.
const TS_EPS_US: f64 = 0.01;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn us(secs: f64) -> String {
    format!("{:.3}", secs * 1e6)
}

struct Writer {
    rows: Vec<String>,
}

impl Writer {
    fn meta_process(&mut self, pid: f64, name: &str) {
        self.rows.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
    }

    fn meta_thread(&mut self, pid: f64, tid: f64, name: &str) {
        self.rows.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
    }

    #[allow(clippy::too_many_arguments)]
    fn span(&mut self, name: &str, cat: &str, pid: f64, tid: f64, t0: f64, t1: f64, args: &str) {
        self.rows.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}",
            esc(name),
            esc(cat),
            us(t0),
            us((t1 - t0).max(0.0)),
        ));
    }

    fn instant(&mut self, name: &str, cat: &str, pid: f64, tid: f64, at: f64, args: &str) {
        self.rows.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}",
            esc(name),
            esc(cat),
            us(at),
        ));
    }
}

/// A span-shaped coordinator kind's `(begin, end, name)` triple, if any.
fn coord_pair(kind: Kind) -> Option<(Kind, &'static str)> {
    match kind {
        Kind::QuiesceBegin => Some((Kind::QuiesceEnd, "quiesce")),
        Kind::MutationBegin => Some((Kind::MutationEnd, "mutation.apply")),
        Kind::QcutBegin => Some((Kind::QcutEnd, "qcut.migrate")),
        Kind::RepairBegin => Some((Kind::RepairEnd, "index.repair")),
        _ => None,
    }
}

/// Render `events` as Chrome trace-event JSON. The stream need not be
/// sorted; lane spans are paired by (lane, query, partition, cmd).
pub fn export_chrome(events: &[Event]) -> String {
    let mut sorted: Vec<Event> = events.to_vec();
    sorted.sort_by(order);

    let mut w = Writer { rows: Vec::new() };

    // --- Declare every track before any span references it.
    let mut lanes: Vec<u32> = sorted
        .iter()
        .filter_map(|e| match e.track {
            crate::Track::Lane(l) => Some(l),
            _ => None,
        })
        .collect();
    lanes.sort_unstable();
    lanes.dedup();
    let folds = fold_queries(&sorted);
    w.meta_process(PID_ENGINE, "engine");
    w.meta_thread(PID_ENGINE, 0.0, "coordinator");
    for &l in &lanes {
        w.meta_thread(PID_ENGINE, f64::from(l) + 1.0, &format!("lane {l}"));
    }
    w.meta_process(PID_QUERIES, "queries");
    for f in &folds {
        w.meta_thread(
            PID_QUERIES,
            f.tl.query as f64,
            &format!("query {}", f.tl.query),
        );
    }

    // --- Lane task spans: pair Begin/End by full identity, most
    // recent first (lanes run one task at a time, but a truncated
    // stream may interleave keys).
    let mut open: Vec<(u32, u64, u32, CmdKind, f64, u64)> = Vec::new();
    // --- Coordinator spans: one pending begin per pair kind.
    let mut coord_open: Vec<(Kind, f64, u64)> = Vec::new();

    for ev in &sorted {
        match ev.kind {
            Kind::TaskBegin => {
                if let crate::Track::Lane(l) = ev.track {
                    open.push((l, ev.query, ev.partition, ev.cmd, ev.at_secs, ev.aux));
                }
            }
            Kind::TaskEnd => {
                if let crate::Track::Lane(l) = ev.track {
                    let key = (l, ev.query, ev.partition, ev.cmd);
                    if let Some(i) = open
                        .iter()
                        .rposition(|&(ol, oq, op, oc, _, _)| (ol, oq, op, oc) == key)
                    {
                        let (_, q, p, cmd, t0, stolen) = open.remove(i);
                        let name = if q == QNONE {
                            cmd.name().to_string()
                        } else {
                            format!("{} q{q} p{p}", cmd.name())
                        };
                        let args = format!(
                            "\"query\":{},\"partition\":{},\"stolen\":{},\"executed\":{}",
                            q as i64,
                            i64::from(p as i32),
                            (stolen & 1) == 1,
                            ev.aux
                        );
                        w.span(
                            &name,
                            "task",
                            PID_ENGINE,
                            f64::from(l) + 1.0,
                            t0,
                            ev.at_secs,
                            &args,
                        );
                    }
                }
            }
            Kind::QuiesceBegin | Kind::MutationBegin | Kind::QcutBegin | Kind::RepairBegin => {
                coord_open.push((ev.kind, ev.at_secs, ev.aux));
            }
            Kind::QuiesceEnd | Kind::MutationEnd | Kind::QcutEnd | Kind::RepairEnd => {
                if let Some(i) = coord_open
                    .iter()
                    .rposition(|&(k, _, _)| coord_pair(k).map(|(end, _)| end) == Some(ev.kind))
                {
                    let (k, t0, aux) = coord_open.remove(i);
                    if let Some((_, name)) = coord_pair(k) {
                        let args = if ev.kind == Kind::RepairEnd {
                            let (passes, rebuilt) = (ev.aux & u64::from(u32::MAX), ev.aux >> 32);
                            format!("\"passes\":{passes},\"rebuilt\":{rebuilt}")
                        } else {
                            format!("\"aux\":{aux}")
                        };
                        w.span(name, "barrier", PID_ENGINE, 0.0, t0, ev.at_secs, &args);
                    }
                }
            }
            Kind::Compaction => {
                w.instant("compaction", "barrier", PID_ENGINE, 0.0, ev.at_secs, "");
            }
            _ => {}
        }
    }

    // --- Query tracks: envelope + nested phase spans + instants.
    for f in &folds {
        let tid = f.tl.query as f64;
        let t0 = f.tl.admitted_at_secs;
        let t1 = f.tl.finished_at_secs.max(t0);
        w.span(
            &format!("in-system q{}", f.tl.query),
            "query.envelope",
            PID_QUERIES,
            tid,
            t0,
            t1,
            &format!("\"outcome\":{}", f.tl.outcome),
        );
        for &(st, s0, s1) in &f.intervals {
            // Phase intervals are within [t0, t1] by construction of
            // the fold; clamp anyway so formatting can't leak outside.
            let (s0, s1) = (s0.max(t0), s1.min(t1));
            if s1 <= s0 {
                continue;
            }
            w.span(st.phase_name(), "query.phase", PID_QUERIES, tid, s0, s1, "");
        }
        w.instant("admitted", "query", PID_QUERIES, tid, t0, "");
        w.instant(
            "outcome",
            "query",
            PID_QUERIES,
            tid,
            t1,
            &format!("\"code\":{}", f.tl.outcome),
        );
    }

    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        w.rows.join(",\n")
    )
}

/// What [`validate_chrome`] measured while checking.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChromeStats {
    /// Trace events of any phase type.
    pub events: usize,
    /// Complete (`ph: "X"`) spans.
    pub spans: usize,
    /// Declared tracks (thread_name metadata rows).
    pub tracks: usize,
    /// Query envelopes whose nesting was verified.
    pub envelopes: usize,
}

fn field_f64(ev: &Value, key: &str) -> Result<f64, String> {
    ev.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("event missing numeric {key:?}: {ev:?}"))
}

/// Round-trip check over exported JSON: parses, then verifies track
/// consistency (every span's (pid, tid) was declared), non-negative
/// durations, and that each query's phase spans nest inside its
/// `in-system` envelope.
pub fn validate_chrome(text: &str) -> Result<ChromeStats, String> {
    let root = json::parse(text)?;
    let events = root
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing traceEvents array")?;

    let mut stats = ChromeStats {
        events: events.len(),
        ..ChromeStats::default()
    };
    let mut tracks: Vec<(i64, i64)> = Vec::new();
    // (tid, ts, ts+dur) per category, for the nesting pass.
    let mut envelopes: Vec<(i64, f64, f64)> = Vec::new();
    let mut phases: Vec<(i64, f64, f64)> = Vec::new();

    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event missing ph: {ev:?}"))?;
        ev.get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event missing name: {ev:?}"))?;
        let pid = field_f64(ev, "pid")? as i64;
        let tid = field_f64(ev, "tid")? as i64;
        if ph == "M" {
            if ev.get("name").and_then(Value::as_str) == Some("thread_name") {
                tracks.push((pid, tid));
                stats.tracks += 1;
            }
            continue;
        }
        if !tracks.contains(&(pid, tid)) {
            return Err(format!(
                "span references undeclared track ({pid}, {tid}): {ev:?}"
            ));
        }
        let ts = field_f64(ev, "ts")?;
        if ph == "X" {
            let dur = field_f64(ev, "dur")?;
            if dur < 0.0 {
                return Err(format!("span begins after it ends (dur {dur}): {ev:?}"));
            }
            stats.spans += 1;
            if pid == PID_QUERIES as i64 {
                match ev.get("cat").and_then(Value::as_str) {
                    Some("query.envelope") => envelopes.push((tid, ts, ts + dur)),
                    Some("query.phase") => phases.push((tid, ts, ts + dur)),
                    _ => {}
                }
            }
        }
    }

    for &(tid, t0, t1) in &phases {
        let env = envelopes
            .iter()
            .find(|&&(etid, _, _)| etid == tid)
            .ok_or_else(|| format!("phase span on query track {tid} has no envelope"))?;
        if t0 < env.1 - TS_EPS_US || t1 > env.2 + TS_EPS_US {
            return Err(format!(
                "phase span [{t0}, {t1}] escapes envelope [{}, {}] on query track {tid}",
                env.1, env.2
            ));
        }
    }
    stats.envelopes = envelopes.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{outcome, Event};

    fn sample_events() -> Vec<Event> {
        let q = 3;
        vec![
            Event::query(0.0, Kind::Admitted, q),
            Event::task(0.5, Kind::TaskBegin, 1, q, 2, CmdKind::Step, 0),
            Event::task(1.0, Kind::TaskEnd, 1, q, 2, CmdKind::Step, 40),
            Event::query(1.0, Kind::SuperstepDone, q),
            Event::coord(1.2, Kind::QuiesceBegin, 0),
            Event::query(1.2, Kind::Park, q),
            Event::coord(1.3, Kind::MutationBegin, 2),
            Event::coord(1.4, Kind::MutationEnd, 2),
            Event::coord(1.4, Kind::Compaction, 0),
            Event::coord(1.45, Kind::RepairBegin, 0),
            Event::coord(1.5, Kind::RepairEnd, 1 << 32 | 2534),
            Event::coord(1.5, Kind::QuiesceEnd, 0),
            Event::query(1.5, Kind::Unpark, q),
            Event::task(1.6, Kind::TaskBegin, 0, q, 1, CmdKind::Step, 1),
            Event::task(2.0, Kind::TaskEnd, 0, q, 1, CmdKind::Step, 12),
            Event::query(2.0, Kind::SuperstepDone, q),
            Event::query_aux(2.0, Kind::Outcome, q, outcome::COMPLETED),
        ]
    }

    #[test]
    fn export_round_trips_through_the_validator() {
        let json = export_chrome(&sample_events());
        let stats = validate_chrome(&json).expect("exported trace must validate");
        assert!(stats.spans >= 7, "tasks + barriers + envelope + phases");
        assert_eq!(stats.envelopes, 1);
        // coordinator + 2 lanes + 1 query track
        assert_eq!(stats.tracks, 4);
    }

    #[test]
    fn lane_spans_land_on_their_lane_track() {
        let json = export_chrome(&sample_events());
        assert!(json.contains("\"name\":\"lane 0\""));
        assert!(json.contains("\"name\":\"lane 1\""));
        assert!(json.contains("\"name\":\"step q3 p2\""));
        assert!(json.contains("\"name\":\"quiesce\""));
        assert!(json.contains("\"name\":\"parked-at-barrier\""));
        assert!(json.contains("\"passes\":2534,\"rebuilt\":1"));
    }

    #[test]
    fn validator_rejects_undeclared_tracks() {
        let bad = r#"{"traceEvents":[
            {"name":"x","cat":"t","ph":"X","ts":0,"dur":1,"pid":9,"tid":9}
        ]}"#;
        assert!(validate_chrome(bad).is_err());
    }

    #[test]
    fn validator_rejects_negative_durations() {
        let bad = r#"{"traceEvents":[
            {"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"t"}},
            {"name":"x","cat":"t","ph":"X","ts":5,"dur":-1,"pid":1,"tid":0}
        ]}"#;
        let err = validate_chrome(bad).expect_err("negative dur must fail");
        assert!(err.contains("begins after"));
    }

    #[test]
    fn validator_rejects_phase_escaping_envelope() {
        let bad = r#"{"traceEvents":[
            {"name":"thread_name","ph":"M","pid":2,"tid":1,"args":{"name":"q"}},
            {"name":"in-system q1","cat":"query.envelope","ph":"X","ts":10,"dur":5,"pid":2,"tid":1},
            {"name":"executing","cat":"query.phase","ph":"X","ts":8,"dur":3,"pid":2,"tid":1}
        ]}"#;
        let err = validate_chrome(bad).expect_err("escaping phase must fail");
        assert!(err.contains("escapes envelope"));
    }

    #[test]
    fn validator_rejects_malformed_json() {
        assert!(validate_chrome("{\"traceEvents\": [").is_err());
        assert!(validate_chrome("{}").is_err());
    }
}
