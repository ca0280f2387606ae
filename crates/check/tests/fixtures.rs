//! The two promises the lint pass makes, as tests:
//!
//! * **sensitivity** — every rule in [`qgraph_check::rules::RULES`]
//!   fires on its seeded fixture under `fixtures/` when linted at an
//!   in-scope virtual path;
//! * **specificity** — the real workspace lints clean. This is the
//!   tier-1 zero-findings gate: a change that trips a rule fails here,
//!   in `cargo test`, not just in the standalone `qlint` binary.

use qgraph_check::{find_workspace_root, lint_source, lint_workspace, rules};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Lint `fixture_name` as if it lived at `virtual_path` and assert the
/// named rule (and only deliberate rules) fires.
fn assert_fires(rule: &str, virtual_path: &str, fixture_name: &str) {
    let findings = lint_source(virtual_path, &fixture(fixture_name));
    assert!(
        findings.iter().any(|f| f.rule == rule),
        "expected `{rule}` to fire on fixtures/{fixture_name} at {virtual_path}; got {findings:?}"
    );
}

#[test]
fn raw_adjacency_fires_on_fixture() {
    // Both shapes: a `.base().neighbors(..)` escape and an `&Graph`
    // parameter smuggled into engine code.
    let findings = lint_source("crates/core/src/fixture.rs", &fixture("raw_adjacency.rs"));
    let hits = findings
        .iter()
        .filter(|f| f.rule == "raw-adjacency")
        .count();
    assert!(
        hits >= 2,
        "expected both seeded leaks to fire; got {findings:?}"
    );
}

#[test]
fn raw_adjacency_is_scoped() {
    // The same source outside the traversal crates is none of the
    // rule's business.
    let findings = lint_source("crates/sim/src/fixture.rs", &fixture("raw_adjacency.rs"));
    assert!(
        !findings.iter().any(|f| f.rule == "raw-adjacency"),
        "raw-adjacency fired out of scope: {findings:?}"
    );
}

#[test]
fn thread_discipline_fires_on_fixture() {
    assert_fires(
        "thread-discipline",
        "crates/workload/src/fixture.rs",
        "thread_discipline.rs",
    );
}

#[test]
fn thread_discipline_exempts_the_runtime() {
    let findings = lint_source(
        "crates/core/src/runtime.rs",
        &fixture("thread_discipline.rs"),
    );
    assert!(
        !findings.iter().any(|f| f.rule == "thread-discipline"),
        "the coordinator runtime owns thread::spawn: {findings:?}"
    );
}

#[test]
fn thread_discipline_exempts_the_pool() {
    let findings = lint_source("crates/core/src/pool.rs", &fixture("thread_discipline.rs"));
    assert!(
        !findings.iter().any(|f| f.rule == "thread-discipline"),
        "the elastic pool owns compute-thread spawning: {findings:?}"
    );
}

#[test]
fn thread_discipline_pool_exemption_is_file_precise() {
    // The sanction covers pool.rs, not the rest of the core crate: a
    // spawn smuggled into a sibling module must still be a finding.
    assert_fires(
        "thread-discipline",
        "crates/core/src/sched.rs",
        "thread_discipline.rs",
    );
}

#[test]
fn thread_discipline_exempts_the_trace_crate() {
    // The recorder's tests spawn threads to exercise cross-thread
    // recording; the crate is sanctioned.
    let findings = lint_source("crates/trace/src/lib.rs", &fixture("thread_discipline.rs"));
    assert!(
        !findings.iter().any(|f| f.rule == "thread-discipline"),
        "the trace crate owns its recorder-thread tests: {findings:?}"
    );
}

#[test]
fn thread_discipline_trace_exemption_is_dir_precise() {
    // The sanction covers crates/trace/src, not trace-adjacent code
    // elsewhere (the engine's own trace module must not inherit it).
    assert_fires(
        "thread-discipline",
        "crates/core/src/trace.rs",
        "thread_discipline.rs",
    );
}

#[test]
fn index_float_cmp_fires_on_fixture() {
    assert_fires(
        "index-float-cmp",
        "crates/index/src/fixture.rs",
        "index_float_cmp.rs",
    );
}

#[test]
fn no_unwrap_hot_loop_fires_on_fixture() {
    assert_fires(
        "no-unwrap-hot-loop",
        "crates/core/src/runtime.rs",
        "no_unwrap_hot_loop.rs",
    );
}

#[test]
fn no_unwrap_hot_loop_covers_the_coordinator_core() {
    // The protocol core is the hottest loop body of both runtimes.
    assert_fires(
        "no-unwrap-hot-loop",
        "crates/core/src/coord.rs",
        "no_unwrap_hot_loop.rs",
    );
}

#[test]
fn time_epoch_arith_exempts_the_coordinator_core() {
    // Outcome stamping and window durations are the core's job.
    let findings = lint_source("crates/core/src/coord.rs", &fixture("time_epoch_arith.rs"));
    assert!(
        !findings.iter().any(|f| f.rule == "time-epoch-arith"),
        "the coordinator core owns outcome/epoch stamping: {findings:?}"
    );
}

#[test]
fn thread_discipline_holds_the_coordinator_core() {
    // Sans-IO means sans-threads: the core is not on the sanction list.
    assert_fires(
        "thread-discipline",
        "crates/core/src/coord.rs",
        "thread_discipline.rs",
    );
}

#[test]
fn time_epoch_arith_fires_on_fixture() {
    assert_fires(
        "time-epoch-arith",
        "crates/index/src/fixture.rs",
        "time_epoch_arith.rs",
    );
}

#[test]
fn time_epoch_arith_exempts_the_trace_crate() {
    // Phase folding *is* stamp subtraction; the trace crate owns that
    // arithmetic the same way the sim crate owns virtual-time math.
    let findings = lint_source(
        "crates/trace/src/summary.rs",
        &fixture("time_epoch_arith.rs"),
    );
    assert!(
        !findings.iter().any(|f| f.rule == "time-epoch-arith"),
        "the trace crate owns stamp arithmetic: {findings:?}"
    );
}

#[test]
fn time_epoch_arith_trace_exemption_is_dir_precise() {
    // Outside crates/trace/src the rule still polices stamp math —
    // consumers must go through the attribution helpers.
    assert_fires(
        "time-epoch-arith",
        "crates/core/src/trace.rs",
        "time_epoch_arith.rs",
    );
}

#[test]
fn forbid_unsafe_fires_on_fixture() {
    assert_fires(
        "forbid-unsafe",
        "crates/demo/src/lib.rs",
        "forbid_unsafe.rs",
    );
}

#[test]
fn an_allow_comment_waives_a_finding() {
    let src = "fn f(d: f32, best: f32) -> bool {\n    \
               // qlint: allow(index-float-cmp) — fixture: exact tie intended\n    \
               d < best\n}\n";
    let findings = lint_source("crates/index/src/fixture.rs", src);
    assert!(findings.is_empty(), "waiver ignored: {findings:?}");
}

#[test]
fn every_rule_has_a_fixture_test() {
    // Adding a rule without wiring a fixture is the failure mode this
    // guards: the count here must move in lockstep with RULES.
    assert_eq!(
        rules::RULES.len(),
        6,
        "rule added or removed — update the fixture suite to match"
    );
    // The thread-discipline sanction list is deliberate and small; a
    // new exemption needs a fixture test like the pool's above.
    let td = rules::RULES
        .iter()
        .find(|r| r.name == "thread-discipline")
        .expect("thread-discipline rule present");
    assert_eq!(
        td.exempt.len(),
        4,
        "thread-discipline exemption added — wire a fixture test"
    );
    // The hot-loop and stamp-arithmetic path lists follow the engine's
    // module layout: a new protocol/executor module must be listed (and
    // get a fixture test like the coordinator core's above).
    let list_len = |rule: &str, exempt: bool| {
        let r = rules::RULES.iter().find(|r| r.name == rule);
        r.map(|r| {
            if exempt {
                r.exempt.len()
            } else {
                r.scope.len()
            }
        })
    };
    assert_eq!(list_len("no-unwrap-hot-loop", false), Some(4));
    assert_eq!(list_len("time-epoch-arith", true), Some(8));
}

#[test]
fn workspace_lints_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("crates/check lives inside the workspace");
    let findings = lint_workspace(&root);
    assert!(
        findings.is_empty(),
        "workspace must lint clean; qlint found:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
