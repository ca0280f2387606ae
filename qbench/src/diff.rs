//! `qbench diff OLD NEW`: compare two result files written by `qbench
//! all`, pair by pair, against the bounds `BENCHMARK.json` fixes.
//!
//! For every (end-to-end metric, workload) pair the new median may be
//! worse than the old one by at most the metric's bound. A pair whose
//! recorded run-to-run spread exceeds the bound on either side is
//! reported as *unresolved*, never as unchanged. A higher failure ratio
//! is a regression whatever the metrics say.

#![forbid(unsafe_code)]

use crate::json::Json;

/// Verdict on one (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
    /// Absent on one side.
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Regressed => "REGRESSED",
            Verdict::Missing => "missing",
        }
    }
}

/// One end-to-end metric's direction and bound, from `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Read the end-to-end bounds out of a parsed `BENCHMARK.json`.
pub fn bounds_of(benchmark: &Json) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or(format!("BENCHMARK.json: metric without {k}"))
            };
            Ok(Bound {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().unwrap_or(0.0),
            })
        })
        .collect()
}

/// How much worse `new` is than `old`, as a share of `old` (negative =
/// better).
fn worsening(old: f64, new: f64, lower_is_better: bool) -> f64 {
    let change = if old == 0.0 {
        0.0
    } else {
        (new - old) / old.abs()
    };
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// Judge one pair from its two `{median, spread}` records.
pub fn judge(old: Option<&Json>, new: Option<&Json>, bound: &Bound) -> (Verdict, f64) {
    let median = |side: Option<&Json>| side?.get("median")?.as_f64();
    let spread = |side: Option<&Json>| side.and_then(|s| s.get("spread")?.as_f64());
    let (Some(old_median), Some(new_median)) = (median(old), median(new)) else {
        return (Verdict::Missing, 0.0);
    };
    let worse = worsening(old_median, new_median, bound.lower_is_better);
    let noisy = [spread(old), spread(new)]
        .iter()
        .any(|s| s.is_some_and(|s| s > bound.bound));
    let verdict = if worse > bound.bound {
        Verdict::Regressed
    } else if noisy {
        Verdict::Unresolved
    } else if worse < -bound.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, worse)
}

/// The `{median, spread}` record of `metric` in one workload's results.
fn pair_of<'a>(side: Option<&'a Json>, metric: &str) -> Option<&'a Json> {
    side?.get("end_to_end")?.get(metric)
}

/// Compare two result documents; returns the printed report and whether
/// anything regressed.
pub fn diff(old: &Json, new: &Json, bounds: &[Bound]) -> (String, bool) {
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .unwrap_or(&[])
            .to_vec()
    };
    let old_workloads = workloads(old);
    let mut out = String::new();
    let mut regressed = false;
    for (name, new_side) in workloads(new) {
        let old_side = old_workloads
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v);
        let mut cells = Vec::new();
        for bound in bounds {
            let (verdict, worse) = judge(
                pair_of(old_side, &bound.name),
                pair_of(Some(&new_side), &bound.name),
                bound,
            );
            regressed |= verdict == Verdict::Regressed;
            cells.push(format!(
                "{} {} ({:+.1}%)",
                bound.name,
                verdict.label(),
                worse * 100.0
            ));
        }
        let fail = |side: Option<&Json>| side?.get("fail_ratio")?.as_f64();
        let (old_fail, new_fail) = (
            fail(old_side).unwrap_or(0.0),
            fail(Some(&new_side)).unwrap_or(0.0),
        );
        if new_fail > old_fail {
            regressed = true;
            cells.push(format!("fail_ratio REGRESSED ({old_fail} -> {new_fail})"));
        }
        out.push_str(&format!("{name:<13} {}\n", cells.join(" | ")));
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{obj, parse};

    fn doc(qps: f64, spread: f64, fail: f64) -> Json {
        obj([(
            "workloads",
            obj([(
                "road-hash",
                obj([
                    ("fail_ratio", Json::Num(fail)),
                    (
                        "end_to_end",
                        obj([(
                            "qps",
                            obj([("median", Json::Num(qps)), ("spread", Json::Num(spread))]),
                        )]),
                    ),
                ]),
            )]),
        )])
    }

    fn qps_bound() -> Vec<Bound> {
        let b = parse(
            r#"{"end_to_end": [{"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        );
        bounds_of(&b.unwrap()).unwrap()
    }

    #[test]
    fn verdicts() {
        let bounds = qps_bound();
        let case = |old: Json, new: Json| diff(&old, &new, &bounds);
        assert!(
            case(doc(100.0, 0.02, 0.0), doc(80.0, 0.02, 0.0)).1,
            "20% slower regresses"
        );
        let (text, bad) = case(doc(100.0, 0.02, 0.0), doc(95.0, 0.02, 0.0));
        assert!(!bad && text.contains("unchanged"), "{text}");
        let (text, bad) = case(doc(100.0, 0.3, 0.0), doc(95.0, 0.02, 0.0));
        assert!(!bad && text.contains("UNRESOLVED"), "{text}");
        let (text, bad) = case(doc(100.0, 0.02, 0.0), doc(130.0, 0.02, 0.0));
        assert!(!bad && text.contains("improved"), "{text}");
        assert!(
            case(doc(100.0, 0.02, 0.0), doc(100.0, 0.02, 0.01)).1,
            "more failures regress"
        );
    }
}
