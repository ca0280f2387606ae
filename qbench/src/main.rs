//! `qbench` — the repository's benchmark.
//!
//! ```text
//! qbench list
//! qbench run --workload <name> [--seed S] [--seconds N] [--trace [0|1]] [--out FILE] [--quick]
//! qbench all [--seed S] [--seconds N] [--runs R] [--trace] [--out FILE] [--quick]
//! qbench diff OLD.json NEW.json [--benchmark BENCHMARK.json]
//! ```
//!
//! `run` prints every metric as `name value unit`, checks the outputs,
//! exits non-zero on a failed check, and ends its standard output with
//! one JSON object (`correct`, `attempted`, `failed`, `metrics`). An
//! untraced run reports the end-to-end metrics, a traced run the
//! per-layer ledger. See `README.md` beside `Cargo.toml`.

#![forbid(unsafe_code)]

mod check;
mod diff;
mod inputs;
mod json;
mod layers;
mod probe;
mod run;
mod sim_run;
#[cfg(test)]
mod smoke;
mod spans;
mod spec;
mod stats;
mod thread_run;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::{obj, Json};
use run::{run_workload, write_file, RunArgs, RunResult};
use spec::{Size, Workload, END_TO_END};

/// The seed tracked numbers are taken at.
const DEFAULT_SEED: u64 = 7;
/// Default measuring time, seconds (`run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 12.0;

/// Parsed command-line options (every sub-command shares the parser).
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
    benchmark: Option<PathBuf>,
    quick: bool,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 1,
        out: None,
        benchmark: None,
        quick: false,
        positional: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => o.workload = Some(value("a name")?),
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--runs" => {
                o.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if !(1..=64).contains(&o.runs) {
                    return Err("--runs must be in 1..=64".into());
                }
            }
            "--out" => o.out = Some(PathBuf::from(value("a file")?)),
            "--benchmark" => o.benchmark = Some(PathBuf::from(value("a file")?)),
            "--quick" => o.quick = true,
            "--trace" => {
                // `--trace`, `--trace 0` and `--trace 1` are all accepted.
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

/// Results and traces go under the build directory, which git ignores.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("qbench")
}

fn size_of(o: &Options) -> Size {
    if o.quick {
        Size::QUICK
    } else {
        Size::FULL
    }
}

fn print_result(r: &RunResult) {
    println!(
        "# {} seed-checked outputs {} of {} queries, failed {}",
        r.workload.name(),
        r.checked,
        r.attempted,
        r.failed
    );
    for m in &r.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for (name, value) in &r.anchors {
        println!("anchor {name} {value}");
    }
    for note in &r.notes {
        println!("note {note}");
    }
    if let Some(path) = &r.trace_file {
        println!("trace {}", path.display());
    }
}

fn cmd_list() -> ExitCode {
    for w in Workload::ALL {
        println!("{:<13} {}", w.name(), w.why());
    }
    ExitCode::SUCCESS
}

fn cmd_run(o: &Options) -> Result<ExitCode, String> {
    let name = o.workload.as_deref().ok_or("run needs --workload <name>")?;
    let workload =
        Workload::from_name(name).ok_or(format!("unknown workload {name}; try `list`"))?;
    let result = run_workload(&RunArgs {
        workload,
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        size: size_of(o),
        out_dir: out_dir(),
    })?;
    print_result(&result);
    let line = result.to_json().encode();
    if let Some(path) = &o.out {
        write_file(path, &line)?;
    }
    println!("{line}");
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run `qbench run` for one workload in a process of its own (so that
/// `peak_rss_mb` is the workload's, not the sweep's) and parse the JSON
/// object its output ends with.
fn run_child(o: &Options, workload: Workload, trace: bool) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if o.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or(format!(
        "{} printed nothing: {}",
        workload.name(),
        String::from_utf8_lossy(&output.stderr)
    ))?;
    Ok((json::parse(last)?, output.status.success()))
}

fn cmd_all(o: &Options) -> Result<ExitCode, String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut runs = Vec::new();
        for _ in 0..o.runs {
            let (result, ok) = run_child(o, workload, false)?;
            all_correct &= ok;
            runs.push(result);
        }
        let number = |r: &Json, key: &str| r.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let fail_ratio = runs
            .iter()
            .map(|r| number(r, "failed") / number(r, "attempted").max(1.0))
            .fold(0.0, f64::max);
        let end_to_end = END_TO_END.iter().map(|d| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(d.name)?.get("value")?.as_f64())
                .collect();
            let record = obj([
                ("median", Json::Num(stats::median(&values))),
                (
                    "spread",
                    stats::quartile_spread(&values).map_or(Json::Null, Json::Num),
                ),
                ("unit", Json::Str(d.unit.to_string())),
                (
                    "values",
                    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                ),
            ]);
            println!(
                "{:<13} {:<12} {} {}",
                workload.name(),
                d.name,
                stats::median(&values),
                d.unit
            );
            (d.name, record)
        });
        let mut record = vec![
            ("fail_ratio".to_string(), Json::Num(fail_ratio)),
            ("end_to_end".to_string(), obj(end_to_end)),
        ];
        if o.trace {
            let (result, ok) = run_child(o, workload, true)?;
            all_correct &= ok;
            for (name, m) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("{:<13} {name} {value} {unit}", workload.name());
            }
            record.push((
                "per_layer".to_string(),
                result.get("metrics").cloned().unwrap_or(Json::Null),
            ));
        }
        workloads.push((workload.name(), Json::Obj(record)));
    }
    let doc = obj([
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("runs", Json::Num(o.runs as f64)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("pool_threads", Json::Num(inputs::pool_threads() as f64)),
        ("workloads", obj(workloads)),
    ]);
    let path = o.out.clone().unwrap_or_else(|| out_dir().join("all.json"));
    write_file(&path, &doc.encode())?;
    println!("wrote {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_diff(o: &Options) -> Result<ExitCode, String> {
    let [old, new] = o.positional.as_slice() else {
        return Err("diff needs OLD.json NEW.json".into());
    };
    let read = |path: &std::path::Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let benchmark = o
        .benchmark
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCHMARK.json"));
    let bounds = diff::bounds_of(&read(&benchmark)?)?;
    let (report, regressed) = diff::diff(&read(old.as_ref())?, &read(new.as_ref())?, &bounds);
    print!("{report}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: qbench <list|run|all|diff> ...");
        return ExitCode::from(2);
    };
    let outcome = parse_options(rest).and_then(|o| match command.as_str() {
        "list" => Ok(cmd_list()),
        "run" => cmd_run(&o),
        "all" => cmd_all(&o),
        "diff" => cmd_diff(&o),
        other => Err(format!("unknown command {other}")),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("qbench: {e}");
        ExitCode::from(2)
    })
}
