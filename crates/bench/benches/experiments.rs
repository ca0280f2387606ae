//! The per-figure experiment harness: regenerates every table and figure
//! of the paper's evaluation (§4). Run all figures:
//!
//! ```text
//! cargo bench -p qgraph-bench --bench experiments
//! ```
//!
//! or a single one: `cargo bench -p qgraph-bench --bench experiments -- fig6a`.
//! Set `QGRAPH_QUICK=1` for a fast smoke pass. Absolute numbers are virtual
//! seconds on the simulated cluster (see ARCHITECTURE.md, "Runtimes"). Each
//! figure prints the paper's caption and numbers beside its own table; the
//! headline (Hash / Domain / +Q-cut latency and locality) is tracked run to
//! run by the `sim-paper` workload of `qbench`.

use qgraph_bench::{run_road_experiment, ExperimentSpec, GraphPreset, Strategy};
use qgraph_core::{BarrierMode, EngineReport};
use qgraph_metrics::{Table, TimeSeries};
use qgraph_workload::WorkloadConfig;

fn quick() -> bool {
    std::env::var("QGRAPH_QUICK").is_ok_and(|v| v != "0")
}

/// Figure-5 style workload sizes (main + disturbance), scaled for the host.
fn fig5_sizes() -> (usize, usize) {
    if quick() {
        (256, 64)
    } else {
        (1024, 256)
    }
}

fn spec_bw(strategy: Strategy) -> ExperimentSpec {
    let (main, dist) = fig5_sizes();
    ExperimentSpec {
        workload: WorkloadConfig::figure5(main, dist, 7),
        ..ExperimentSpec::default_bw(strategy, main, 0.5)
    }
}

fn spec_gy(strategy: Strategy) -> ExperimentSpec {
    let (main, dist) = fig5_sizes();
    ExperimentSpec {
        graph: GraphPreset::GyLike { scale: 0.25 },
        workload: WorkloadConfig::figure5(main, dist, 7),
        ..ExperimentSpec::default_bw(strategy, main, 0.5)
    }
}

/// Latency-over-time series normalized by static Hash, in tumbling buckets
/// (the paper's Figure 5 presentation).
fn normalized_over_time(name: &str, reports: &[(Strategy, EngineReport)]) {
    let hash = &reports
        .iter()
        .find(|(s, _)| *s == Strategy::Hash)
        .expect("Hash included")
        .1;
    let window = hash.finished_at_secs / 10.0;
    let base = hash.latency_series().tumbling_mean(window.max(1e-6));

    let mut table = Table::new(
        format!("{name}: mean query latency over time, normalized to static Hash"),
        &["bucket", "Hash", "Domain", "Hash+Qcut", "Domain+Qcut"],
    );
    let buckets = base.len();
    let series: Vec<(Strategy, TimeSeries)> = reports
        .iter()
        .map(|(s, r)| {
            let w = r.finished_at_secs / buckets.max(1) as f64;
            (*s, r.latency_series().tumbling_mean(w.max(1e-6)))
        })
        .collect();
    for b in 0..buckets {
        let hash_v = base.samples()[b].value;
        let cell = |s: Strategy| -> String {
            series
                .iter()
                .find(|(st, _)| *st == s)
                .and_then(|(_, ts)| ts.samples().get(b))
                .map(|smp| format!("{:.3}", smp.value / hash_v))
                .unwrap_or_else(|| "-".into())
        };
        table.row(&[
            format!("{b}"),
            cell(Strategy::Hash),
            cell(Strategy::Domain),
            cell(Strategy::HashQcut),
            cell(Strategy::DomainQcut),
        ]);
    }
    print!("{}", table.render());
}

fn run_strategies(mk: impl Fn(Strategy) -> ExperimentSpec) -> Vec<(Strategy, EngineReport)> {
    Strategy::paper_set()
        .into_iter()
        .map(|s| (s, run_road_experiment(&mk(s))))
        .collect()
}

fn summary_table(name: &str, reports: &[(Strategy, EngineReport)]) {
    let mut table = Table::new(
        name.to_string(),
        &[
            "strategy",
            "total_latency_s",
            "mean_latency_s",
            "locality",
            "imbalance",
            "repartitions",
        ],
    );
    for (s, r) in reports {
        let imb = r.imbalance_series(8, (r.finished_at_secs / 10.0).max(1e-6));
        table.row(&[
            s.name().to_string(),
            format!("{:.3}", r.total_latency()),
            format!("{:.5}", r.mean_latency()),
            format!("{:.3}", r.mean_locality()),
            format!("{:.3}", imb.mean()),
            format!("{}", r.repartitions.len()),
        ]);
    }
    print!("{}", table.render());
    let hash = reports.iter().find(|(s, _)| *s == Strategy::Hash).unwrap();
    let domain = reports
        .iter()
        .find(|(s, _)| *s == Strategy::Domain)
        .unwrap();
    for (s, r) in reports {
        if s.adaptive() {
            println!(
                "  {}: total latency {:+.1}% vs Hash, {:+.1}% vs Domain",
                s.name(),
                (r.total_latency() / hash.1.total_latency() - 1.0) * 100.0,
                (r.total_latency() / domain.1.total_latency() - 1.0) * 100.0,
            );
        }
    }
}

fn fig5a() {
    println!("\n### Figure 5a — SSSP on BW: adaptive Q-cut over time (with disturbance)");
    let reports = run_strategies(spec_bw);
    normalized_over_time("fig5a", &reports);
    summary_table("fig5a summary", &reports);
}

fn fig5b() {
    println!("\n### Figure 5b — SSSP on GY: adaptive Q-cut over time (with disturbance)");
    let reports = run_strategies(spec_gy);
    normalized_over_time("fig5b", &reports);
    summary_table("fig5b summary", &reports);
}

fn fig6a() {
    println!(
        "\n### Figure 6a — summed latency, SSSP on BW (paper: Q-cut −43% vs Hash, −22% vs Domain)"
    );
    let reports = run_strategies(|s| {
        let (main, _) = fig5_sizes();
        ExperimentSpec::default_bw(s, main, 0.5)
    });
    summary_table("fig6a", &reports);
}

fn fig6b() {
    println!("\n### Figure 6b — summed latency, SSSP on GY (paper: −13% vs Hash, −25% vs Domain)");
    let reports = run_strategies(|s| {
        let (main, _) = fig5_sizes();
        ExperimentSpec {
            graph: GraphPreset::GyLike { scale: 0.25 },
            ..ExperimentSpec::default_bw(s, main, 0.5)
        }
    });
    summary_table("fig6b", &reports);
}

fn fig6c() {
    println!("\n### Figure 6c — summed latency, POI on BW (paper: −50% vs Hash, −28% vs Domain)");
    let reports = run_strategies(|s| {
        let (main, _) = fig5_sizes();
        ExperimentSpec {
            workload: WorkloadConfig::single(main, true, false, 7),
            // Scaled so the expected POIs *per city* match the paper's
            // gas-station density at our reduced graph size.
            tag_probability: 1.0 / 200.0,
            ..ExperimentSpec::default_bw(s, main, 0.5)
        }
    });
    summary_table("fig6c", &reports);
}

fn fig6d() {
    println!(
        "\n### Figure 6d — hybrid vs global barrier, 64 SSSP on BW (paper: hybrid 1.2–1.7x faster)"
    );
    let n = if quick() { 32 } else { 64 };
    let mut table = Table::new(
        "fig6d: total latency by barrier mode",
        &[
            "partitioning",
            "global_barrier_s",
            "hybrid_barrier_s",
            "speedup",
        ],
    );
    for strategy in [Strategy::Hash, Strategy::Domain] {
        let run = |barrier| {
            let spec = ExperimentSpec {
                barrier,
                workload: WorkloadConfig::single(n, false, false, 7),
                ..ExperimentSpec::default_bw(strategy, n, 0.5)
            };
            run_road_experiment(&spec).total_latency()
        };
        let global = run(BarrierMode::SharedGlobal);
        let hybrid = run(BarrierMode::Hybrid);
        table.row(&[
            strategy.name().to_string(),
            format!("{global:.3}"),
            format!("{hybrid:.3}"),
            format!("{:.2}x", global / hybrid),
        ]);
    }
    print!("{}", table.render());
}

fn fig6e() {
    println!(
        "\n### Figure 6e — workload imbalance over time (paper: Hash low, Domain high, Q-cut → ~δ)"
    );
    let reports = run_strategies(spec_bw);
    let mut table = Table::new(
        "fig6e: activity imbalance (max/mean - 1) per time bucket",
        &["bucket", "Hash", "Domain", "Hash+Qcut", "Domain+Qcut"],
    );
    let series: Vec<(Strategy, TimeSeries)> = reports
        .iter()
        .map(|(s, r)| {
            let w = (r.finished_at_secs / 10.0).max(1e-6);
            (*s, r.imbalance_series(8, w))
        })
        .collect();
    let buckets = series.iter().map(|(_, t)| t.len()).min().unwrap_or(0);
    for b in 0..buckets {
        let cell = |s: Strategy| {
            series
                .iter()
                .find(|(st, _)| *st == s)
                .map(|(_, t)| format!("{:.3}", t.samples()[b].value))
                .unwrap()
        };
        table.row(&[
            format!("{b}"),
            cell(Strategy::Hash),
            cell(Strategy::Domain),
            cell(Strategy::HashQcut),
            cell(Strategy::DomainQcut),
        ]);
    }
    print!("{}", table.render());
}

fn fig6f() {
    println!(
        "\n### Figure 6f — query locality over time (paper: Domain >95%, Hash ~38%, Q-cut → ~80%)"
    );
    let reports = run_strategies(spec_bw);
    let mut table = Table::new(
        "fig6f: fraction of fully-local iterations per completion bucket",
        &["bucket", "Hash", "Domain", "Hash+Qcut", "Domain+Qcut"],
    );
    let series: Vec<(Strategy, TimeSeries)> = reports
        .iter()
        .map(|(s, r)| {
            let w = (r.finished_at_secs / 10.0).max(1e-6);
            (*s, r.locality_series().tumbling_mean(w))
        })
        .collect();
    let buckets = series.iter().map(|(_, t)| t.len()).min().unwrap_or(0);
    for b in 0..buckets {
        let cell = |s: Strategy| {
            series
                .iter()
                .find(|(st, _)| *st == s)
                .map(|(_, t)| format!("{:.3}", t.samples()[b].value))
                .unwrap()
        };
        table.row(&[
            format!("{b}"),
            cell(Strategy::Hash),
            cell(Strategy::Domain),
            cell(Strategy::HashQcut),
            cell(Strategy::DomainQcut),
        ]);
    }
    print!("{}", table.render());
}

fn fig6g() {
    println!(
        "\n### Figure 6g — ILS cost trace with perturbations (paper: cost −75% within the budget)"
    );
    // Run Hash+Qcut and show the hardest ILS run's trace: the one where
    // perturbations did the most work (longest non-trivial trace).
    let report = run_road_experiment(&spec_bw(Strategy::HashQcut));
    let Some(event) = report.repartitions.iter().max_by_key(|e| {
        let improving_rounds = e
            .ils
            .trace
            .windows(2)
            .filter(|w| w[1].best_cost < w[0].best_cost)
            .count();
        (improving_rounds, e.ils.initial_cost as u64)
    }) else {
        println!("  (no repartition occurred — increase workload size)");
        return;
    };
    let mut table = Table::new(
        "fig6g: best-so-far Q-cut cost by ILS round (first controller run)",
        &["round", "best_cost", "perturbed"],
    );
    // Show the rounds where the best solution improved (the paper's plot
    // marks exactly these as the effective perturbations), plus the final.
    let mut last_cost = f64::INFINITY;
    for (i, p) in event.ils.trace.iter().enumerate() {
        if p.best_cost < last_cost - 1e-9 || i + 1 == event.ils.trace.len() {
            table.row(&[
                format!("{}", p.round),
                format!("{:.0}", p.best_cost),
                format!("{}", p.perturbed),
            ]);
            last_cost = p.best_cost;
        }
    }
    print!("{}", table.render());
    println!(
        "  initial cost {:.0} -> final {:.0} ({:.0}% reduction), {} clusters",
        event.ils.initial_cost,
        event.ils.final_cost,
        event.ils.improvement() * 100.0,
        event.ils.num_clusters
    );
}

fn fig7(poi: bool) {
    let (label, paper) = if poi {
        ("fig7b — POI", "same shape as SSSP")
    } else {
        (
            "fig7a — SSSP",
            "Hash U-shape 927→474→863s; Domain 1790→562s; Q-cut best",
        )
    };
    println!("\n### Figure {label} on BW, scale-out C1 (paper: {paper})");
    let n = if quick() { 128 } else { 512 };
    let mut table = Table::new(
        format!("{label}: total latency (s) vs worker count on C1"),
        &["k", "Hash", "Hash+Qcut", "Domain", "Domain+Qcut"],
    );
    for k in [2usize, 4, 8, 16] {
        let mut cells = vec![format!("{k}")];
        for strategy in [
            Strategy::Hash,
            Strategy::HashQcut,
            Strategy::Domain,
            Strategy::DomainQcut,
        ] {
            let spec = ExperimentSpec {
                workers: k,
                scale_out: true,
                workload: WorkloadConfig::single(n, poi, false, 7),
                tag_probability: if poi { 1.0 / 200.0 } else { 1.0 / 12_500.0 },
                ..ExperimentSpec::default_bw(strategy, n, 0.5)
            };
            let r = run_road_experiment(&spec);
            cells.push(format!("{:.3}", r.total_latency()));
        }
        table.row(&cells);
    }
    print!("{}", table.render());
}

fn ldg_imbalance() {
    println!("\n### §4.1 — LDG exclusion experiment (paper: 2–6x higher latency from imbalance)");
    let n = if quick() { 128 } else { 512 };
    let mut table = Table::new(
        "ldg: total latency vs the kept baselines",
        &["strategy", "total_latency_s", "vertex_imbalance"],
    );
    for strategy in [Strategy::Hash, Strategy::Domain, Strategy::Ldg] {
        let spec = ExperimentSpec {
            workload: WorkloadConfig::single(n, false, false, 7),
            ..ExperimentSpec::default_bw(strategy, n, 0.5)
        };
        let net = qgraph_bench::build_network(spec.graph, spec.tag_probability, spec.seed);
        let parts = qgraph_bench::partition_graph(strategy, &net, spec.workers, spec.seed);
        let imb = qgraph_partition::imbalance(&parts.sizes());
        let r = run_road_experiment(&spec);
        table.row(&[
            strategy.name().to_string(),
            format!("{:.3}", r.total_latency()),
            format!("{imb:.3}"),
        ]);
    }
    print!("{}", table.render());
}

fn main() {
    let known: &[(&str, fn())] = &[
        ("fig5a", fig5a),
        ("fig5b", fig5b),
        ("fig6a", fig6a),
        ("fig6b", fig6b),
        ("fig6c", fig6c),
        ("fig6d", fig6d),
        ("fig6e", fig6e),
        ("fig6f", fig6f),
        ("fig6g", fig6g),
        ("fig7a", || fig7(false)),
        ("fig7b", || fig7(true)),
        ("ldg_imbalance", ldg_imbalance),
    ];
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let selected: Vec<&(&str, fn())> = if args.is_empty() {
        known.iter().collect()
    } else {
        known
            .iter()
            .filter(|(name, _)| args.iter().any(|a| name.contains(a.as_str())))
            .collect()
    };
    if selected.is_empty() {
        eprintln!("unknown figure; available:");
        for (name, _) in known {
            eprintln!("  {name}");
        }
        std::process::exit(1);
    }
    for (name, f) in selected {
        let _ = name;
        f();
    }
}
