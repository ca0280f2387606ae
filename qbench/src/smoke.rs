//! Smoke tests: every workload at `--quick` size, both runs, held
//! against `BENCHMARK.json`; the trace file's structure; and the
//! repository's lint rules over the benchmark's own sources.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use crate::json::{parse, Json};
use crate::run::{run_workload, RunArgs, RunResult};
use crate::spec::{Size, Workload, END_TO_END, PER_LAYER};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json beside the package")).unwrap()
}

fn listed(benchmark: &Json, key: &str) -> Vec<String> {
    benchmark
        .get(key)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn quick(workload: Workload, trace: bool) -> (RunResult, PathBuf) {
    let out_dir = crate::out_dir().join("smoke");
    let result = run_workload(&RunArgs {
        workload,
        seed: 11,
        seconds: 0.05,
        trace,
        size: Size::QUICK,
        out_dir: out_dir.clone(),
    })
    .expect("the run completes");
    (result, out_dir)
}

/// Both runs of `workload`: correct, exactly the listed metrics under
/// well-formed names, and a trace whose every span has an existing
/// parent that encloses it.
fn smoke(workload: Workload) {
    let benchmark = benchmark_json();
    for trace in [false, true] {
        let (result, out_dir) = quick(workload, trace);
        assert!(result.correct, "{}: {:?}", workload.name(), result.notes);
        assert_eq!(result.failed, 0);
        assert!(
            result.checked >= Size::QUICK.sample as u64,
            "{}",
            result.checked
        );
        let names: Vec<String> = result.metrics.iter().map(|m| m.name.to_string()).collect();
        let key = if trace { "per_layer" } else { "end_to_end" };
        assert_eq!(names, listed(&benchmark, key), "{} {key}", workload.name());
        for m in &result.metrics {
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            if !trace {
                assert!(m.value > 0.0, "end-to-end {} must never read 0", m.name);
            }
        }
        if !trace {
            continue;
        }
        let value = |name: &str| {
            result
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert!(value("bench.spans") > 0.0 && value("bench.trace_overhead") > 0.0);
        if workload.threaded() {
            assert!(value("algo.compute_calls") == value("worker.vertex_updates"));
            assert!(value("runtime.coord_share") < 1.0);
        } else {
            assert!(value("engine.virt_lat_mean_ms.hash") > 0.0);
        }
        let path = out_dir.join(format!("{}.trace.json", workload.name()));
        assert_eq!(result.trace_file.as_deref(), Some(path.as_path()));
        let doc = parse(&std::fs::read_to_string(&path).unwrap()).expect("the trace parses");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len() as f64, value("bench.spans"));
        let interval = |e: &Json| {
            let ts = e.get("ts").and_then(Json::as_f64).unwrap();
            (ts, ts + e.get("dur").and_then(Json::as_f64).unwrap())
        };
        for (i, e) in events.iter().enumerate() {
            let args = e.get("args").unwrap();
            assert_eq!(args.get("id").and_then(Json::as_f64), Some(i as f64));
            assert_eq!(
                e.get("pid").and_then(Json::as_f64),
                Some(f64::from(workload.id()))
            );
            match args.get("parent").unwrap() {
                Json::Null => assert_eq!(i, 0, "only the run span is a root"),
                parent => {
                    let p = parent.as_f64().unwrap() as usize;
                    assert!(p < events.len(), "span {i}: parent {p} does not exist");
                    let (start, end) = interval(e);
                    let (p_start, p_end) = interval(&events[p]);
                    // Timestamps are nanoseconds printed as microseconds.
                    assert!(
                        p_start <= start + 1e-3 && end <= p_end + 1e-3,
                        "span {i} [{start}, {end}] outside parent {p} [{p_start}, {p_end}]"
                    );
                }
            }
        }
    }
}

#[test]
fn road_hash_smoke() {
    smoke(Workload::RoadHash);
}

#[test]
fn road_domain_smoke() {
    smoke(Workload::RoadDomain);
}

#[test]
fn road_qcut_smoke() {
    smoke(Workload::RoadQcut);
}

#[test]
fn serve_mix_smoke() {
    smoke(Workload::ServeMix);
}

#[test]
fn evolve_churn_smoke() {
    smoke(Workload::EvolveChurn);
}

#[test]
fn sim_paper_smoke() {
    smoke(Workload::SimPaper);
}

#[test]
fn benchmark_json_lists_what_the_code_measures() {
    let benchmark = benchmark_json();
    let fields = |m: &Json, keys: &[&str]| -> Vec<String> {
        keys.iter()
            .map(|k| m.get(k).and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = benchmark.get(key).and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (m, d) in listed.iter().zip(defs) {
            assert_eq!(
                fields(m, &["name", "unit", "better"]),
                [d.name, d.unit, d.better]
            );
        }
    }
    let workloads = benchmark.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (m, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(fields(m, &["name", "why"]), [w.name(), w.why()]);
    }
    let bound = |name: &str| {
        let all = benchmark.get("end_to_end").and_then(Json::as_arr).unwrap();
        let m = all
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name));
        m.and_then(|m| m.get("bound")?.as_f64()).unwrap()
    };
    assert!(END_TO_END.iter().all(|d| bound(d.name) <= bound("setup_s")));
    assert!(bound("setup_s") <= 0.25);
}

/// The repository's lint pass walks `crates/*/src` only, so hold the
/// benchmark to the same rules here, as a bench bin would be held.
#[test]
fn sources_pass_the_repository_lints() {
    let src = manifest_dir().join("src");
    let mut linted = 0;
    for entry in std::fs::read_dir(&src).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rs") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).unwrap();
            let as_if = format!("crates/bench/src/bin/qbench/{name}");
            let findings = qgraph_check::lint_source(&as_if, &text);
            assert!(findings.is_empty(), "{findings:#?}");
            linted += 1;
        }
    }
    assert!(linted >= 12, "linted {linted} files");
}
