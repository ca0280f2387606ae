//! One workload run, end to end: set-up, warm-up, the window(s), the
//! correctness gate, and the metric lines.
//!
//! An untraced run (plain programs, plain index) yields the end-to-end
//! metrics. A traced run splits the measuring time into a plain window
//! and a probed one on fresh engines, checks that the probes changed no
//! count, and yields the per-layer ledger plus the trace file.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::check::{check_window, CheckResult};
use crate::inputs::build_inputs;
use crate::json::{obj, Json};
use crate::layers::{thread_lines, Lines};
use crate::probe::Ledger;
use crate::sim_run::{run_pass, Pass};
use crate::spans::Spans;
use crate::spec::{MetricDef, Size, Workload, END_TO_END, PER_LAYER, SIM_STRATEGIES};
use crate::stats::median;
use crate::thread_run::{peak_rss_mb, run_window, start_engine, warm_up, Window};

/// What to run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Where the trace file goes.
    pub out_dir: PathBuf,
}

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub workload: Workload,
    /// No output failed its check and no anchor moved.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Outputs compared with the sequential reference.
    pub checked: u64,
    pub metrics: Vec<Metric>,
    /// Exact counts later changes watch for drift, `(name, value)`.
    pub anchors: Vec<(String, f64)>,
    /// Failed checks and moved anchors, for the operator.
    pub notes: Vec<String>,
    /// The Chrome trace a traced run wrote.
    pub trace_file: Option<PathBuf>,
}

impl RunResult {
    /// The driver's result object: `correct`, `attempted`, `failed` and
    /// `metrics` as `{name: {value, unit}}`.
    pub fn to_json(&self) -> Json {
        obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let value = obj([
                                ("value", Json::Num(m.value)),
                                ("unit", Json::Str(m.unit.to_string())),
                            ]);
                            (m.name.to_string(), value)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Order `lines` as `defs` lists them, reading 0 for a line the workload
/// does not have; a line outside `defs` is a bug in the benchmark.
fn metrics_in_order(defs: &[MetricDef], lines: &Lines) -> Vec<Metric> {
    for (name, _) in lines {
        assert!(
            defs.iter().any(|d| d.name == *name),
            "unlisted metric {name}"
        );
    }
    defs.iter()
        .map(|d| Metric {
            name: d.name,
            // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
            value: lines
                .iter()
                .find(|(name, _)| *name == d.name)
                .map_or(0.0, |(_, value)| *value + 0.0),
            unit: d.unit,
        })
        .collect()
}

/// The counts that must not depend on whether probes are installed.
fn anchor_counts(w: &Window) -> Vec<(String, f64)> {
    let tally = w.tally();
    vec![
        ("worker.remote_msgs".into(), tally.remote_msgs as f64),
        ("worker.vertex_updates".into(), tally.vertex_updates as f64),
        ("worker.supersteps".into(), tally.supersteps as f64),
        ("pool.tasks".into(), w.pool().tasks as f64),
        (
            "sched.index_served_ratio".into(),
            tally.index_served as f64 / tally.outcomes.max(1) as f64,
        ),
    ]
}

fn write_trace(args: &RunArgs, spans: &Spans) -> Result<PathBuf, String> {
    let path = args
        .out_dir
        .join(format!("{}.trace.json", args.workload.name()));
    write_file(&path, &spans.to_chrome_trace(args.workload.name()).encode())?;
    Ok(path)
}

/// Write `text` to `path`, creating the directory.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn finish(
    args: &RunArgs,
    lines: Lines,
    check: CheckResult,
    anchors: Vec<(String, f64)>,
    mut notes: Vec<String>,
    spans: &Spans,
) -> Result<RunResult, String> {
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let trace_file = match args.trace {
        true => Some(write_trace(args, spans)?),
        false => None,
    };
    let anchors_hold = notes.is_empty();
    notes.extend(check.notes.iter().cloned());
    Ok(RunResult {
        workload: args.workload,
        correct: check.failed == 0 && anchors_hold,
        attempted: check.attempted.max(1),
        failed: check.failed,
        checked: check.checked,
        metrics: metrics_in_order(defs, &lines),
        anchors,
        notes,
        trace_file,
    })
}

fn run_threaded(args: &RunArgs) -> Result<RunResult, String> {
    let spans = Arc::new(Spans::new(args.workload.id()));
    let size = &args.size;
    // Churn parks some picks across an epoch; draw twice as many.
    let sample = match args.workload {
        Workload::EvolveChurn => size.sample * 2,
        _ => size.sample,
    };
    let root = spans.enter("run");

    if !args.trace {
        // Set-up — everything from graph generation to a serving engine —
        // is timed several times over and reported as a median.
        let time_setup = || {
            let span = spans.enter("setup");
            let inputs = build_inputs(args.workload, args.seed, size, &spans);
            let (mut engine, _client, construct_s, start_s) = start_engine(&inputs, None, &spans);
            drop(span);
            engine.shutdown();
            (inputs.times.total() + construct_s + start_s, inputs)
        };
        let mut setups = Vec::new();
        let mut last = None;
        for _ in 0..size.setups {
            let (secs, inputs) = time_setup();
            setups.push(secs);
            last = Some(inputs);
        }
        let inputs = last.ok_or("at least one set-up")?;
        warm_up(&inputs, &spans);
        // A millisecond set-up (no index to build) is at the mercy of
        // whatever else the box is doing in that instant: take one more
        // sample between every two blocks, so the median spans the run.
        let cheap = median(&setups) < 0.05;
        let window = run_window(&inputs, args.seconds, size.min_blocks, None, &spans, || {
            if cheap {
                setups.push(time_setup().0);
            }
        });
        let check = {
            let _span = spans.enter("bench.check");
            check_window(&window, &inputs, sample, args.seed)
        };
        let lines: Lines = vec![
            ("setup_s", median(&setups)),
            ("qps", median(&window.over_blocks(|b| b.qps()))),
            (
                "lat_mean_ms",
                median(&window.over_blocks(|b| b.lat_mean_ms)),
            ),
            ("lat_p95_ms", median(&window.over_blocks(|b| b.lat_p95_ms))),
            // Read when the window's fixed-work prefix ended: the engine
            // retains every output, so the mark at exit would grow with
            // however many blocks the machine fitted into the window.
            ("peak_rss_mb", window.prefix.peak_rss_mb),
        ];
        let anchors = anchor_counts(&window);
        drop(root);
        return finish(args, lines, check, anchors, Vec::new(), &spans);
    }

    let inputs = {
        let _span = spans.enter("setup");
        build_inputs(args.workload, args.seed, size, &spans)
    };
    let warmup_s = warm_up(&inputs, &spans);
    let half = args.seconds / 2.0;
    let plain = run_window(&inputs, half, size.min_blocks, None, &spans, || {});
    let ledger = Ledger::new(Arc::clone(&spans));
    let traced = run_window(&inputs, half, size.min_blocks, Some(&ledger), &spans, || {});
    let check = {
        let _span = spans.enter("bench.check");
        let mut check = check_window(&plain, &inputs, sample, args.seed);
        check.merge(check_window(&traced, &inputs, sample, args.seed ^ 1));
        check
    };

    // The wrappers must not change behaviour: on the static workloads the
    // probed prefix does exactly the plain prefix's work.
    let anchors = anchor_counts(&traced);
    let mut notes = Vec::new();
    let static_work = matches!(
        args.workload,
        Workload::RoadHash | Workload::RoadDomain | Workload::ServeMix
    );
    if static_work {
        for ((name, with), (_, without)) in anchors.iter().zip(anchor_counts(&plain)) {
            if *with != without {
                notes.push(format!(
                    "anchor {name} moved under probes: {without} -> {with}"
                ));
            }
        }
    }

    let mut lines = thread_lines(&inputs, &plain, &traced, &ledger, &check, warmup_s, &spans);
    drop(root);
    lines.push(("bench.spans", spans.len() as f64));
    lines.push(("bench.fail_ratio", check.fail_ratio()));
    finish(args, lines, check, anchors, notes, &spans)
}

/// The name of strategy `i`'s `engine.<what>.<strategy>` line.
fn engine_line(what: &str, i: usize) -> &'static str {
    let wanted = format!("engine.{what}.{}", SIM_STRATEGIES[i]);
    PER_LAYER
        .iter()
        .find(|d| d.name == wanted)
        .map(|d| d.name)
        .expect("every engine line is listed")
}

fn run_simulated(args: &RunArgs) -> Result<RunResult, String> {
    let spans = Arc::new(Spans::new(args.workload.id()));
    let size = &args.size;
    let root = spans.enter("run");
    // Passes repeat until the time is up; the simulation is deterministic,
    // so every pass must reproduce the first one's virtual numbers bit
    // for bit, and only the host-side times differ between passes.
    let mut passes: Vec<Pass> = Vec::new();
    // Read after the two passes every run makes: fixed work, like the
    // thread workloads' prefix.
    let mut rss_mb = 0.0;
    let window = spans.enter("window");
    while passes.len() < 2 || window.elapsed_secs() < args.seconds {
        // Later passes repeat the first one's outputs; check those once.
        let sample = if passes.is_empty() { size.sample } else { 0 };
        passes.push(run_pass(args.seed, size, sample, &spans));
        if passes.len() == 2 {
            rss_mb = peak_rss_mb();
        }
    }
    drop(window);
    let mut check = CheckResult::default();
    let mut notes = Vec::new();
    for (p, pass) in passes.iter().enumerate() {
        check.merge(pass.check.clone());
        for (i, run) in pass.runs.iter().enumerate() {
            if run.virtual_part() != passes[0].runs[i].virtual_part() {
                notes.push(format!(
                    "pass {p}: {} did not repeat bit for bit: {run:?} vs {:?}",
                    SIM_STRATEGIES[i], passes[0].runs[i]
                ));
            }
        }
    }
    let first = &passes[0];
    let hash = first.runs[0].virt_lat_mean_ms;
    let headline = first.runs[2]; // Hash + Q-cut, the paper's configuration
    let over_passes = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let qps = over_passes(&|p| p.queries as f64 / p.host_s());
    let anchors = (0..SIM_STRATEGIES.len())
        .map(|i| {
            (
                engine_line("virt_lat_mean_ms", i).to_string(),
                first.runs[i].virt_lat_mean_ms,
            )
        })
        .collect();

    let lines: Lines = if args.trace {
        let mut lines = Lines::new();
        for i in 0..SIM_STRATEGIES.len() {
            let run = first.runs[i];
            lines.push((engine_line("virt_lat_mean_ms", i), run.virt_lat_mean_ms));
            lines.push((engine_line("locality", i), run.locality));
            lines.push((engine_line("repartitions", i), run.repartitions as f64));
            lines.push((engine_line("host_s", i), over_passes(&|p| p.runs[i].host_s)));
        }
        lines.push((
            "engine.qcut_lat_cut",
            1.0 - headline.virt_lat_mean_ms / hash,
        ));
        lines.push((
            "algo.ref_qps",
            check.checked as f64 / check.reference_s.max(1e-9),
        ));
        // Spans are the only instrumentation of a simulated run and are
        // always on, so tracing costs it nothing extra.
        lines.push(("bench.trace_overhead", 1.0));
        lines.push(("bench.threads", 1.0));
        lines.push(("bench.blocks", passes.len() as f64));
        lines.push(("bench.fail_ratio", check.fail_ratio()));
        drop(root);
        lines.push(("bench.spans", spans.len() as f64));
        lines
    } else {
        drop(root);
        vec![
            ("setup_s", over_passes(&|p| p.setup_s())),
            ("qps", qps),
            ("lat_mean_ms", headline.virt_lat_mean_ms),
            ("lat_p95_ms", headline.virt_lat_p95_ms),
            ("peak_rss_mb", rss_mb),
        ]
    };
    finish(args, lines, check, anchors, notes, &spans)
}

/// Run one workload.
pub fn run_workload(args: &RunArgs) -> Result<RunResult, String> {
    if args.workload.threaded() {
        run_threaded(args)
    } else {
        run_simulated(args)
    }
}
