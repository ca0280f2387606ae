//! The project rule set, data-driven: each rule is a scope (path
//! substrings), an allowlist (exempt path substrings), and a token
//! pattern. Adding a rule means adding one entry to [`RULES`] and a
//! seeded fixture under `fixtures/` (the test suite insists every rule
//! fires on its fixture and stays silent on the workspace).
//!
//! Findings can be waived in-source with a justification comment on
//! the same line or the line above:
//!
//! ```text
//! // qlint: allow(no-unwrap-hot-loop) — invariant: registry outlives workers
//! ```

/// One element of a token pattern.
#[derive(Debug, Clone, Copy)]
pub enum Pat {
    /// An identifier with exactly this name.
    Id(&'static str),
    /// A punctuation token.
    P(&'static str),
}

/// How a rule inspects the token stream.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// Any of these token sequences is a finding.
    ForbidSeqs(&'static [&'static [Pat]]),
    /// An identifier from `idents` (or ending in one of `suffixes`)
    /// immediately adjacent to one of `ops` — optionally across a
    /// no-argument call `()` — is a finding. This is how "no naked
    /// float compare on distances" and "no epoch arithmetic" are
    /// expressed without type information.
    ForbidAdjacent {
        ops: &'static [&'static str],
        idents: &'static [&'static str],
        suffixes: &'static [&'static str],
    },
    /// The file must contain this token sequence (inverted rule: the
    /// finding is its absence). Scoped by `Rule::scope` like the rest.
    RequireSeq(&'static [Pat]),
}

/// A single lint rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    pub name: &'static str,
    pub summary: &'static str,
    /// Path substrings a file must match for the rule to apply.
    /// Empty ⇒ every scanned file.
    pub scope: &'static [&'static str],
    /// Path substrings that waive the rule (the per-rule allowlist).
    pub exempt: &'static [&'static str],
    pub check: Check,
}

macro_rules! base_call {
    ($m:literal) => {
        &[
            Pat::Id("base"),
            Pat::P("("),
            Pat::P(")"),
            Pat::P("."),
            Pat::Id($m),
            Pat::P("("),
        ]
    };
}

/// Adjacency-method names of the raw CSR surface. Everything outside
/// `crates/graph` must traverse through `Topology` so overlay edges
/// (mutation deltas) are visible; sneaking past it via
/// `topology.base()` reads the stale base snapshot.
const BASE_LEAK: &[&[Pat]] = &[
    &[Pat::P("&"), Pat::Id("Graph")],
    &[Pat::P("&"), Pat::Id("mut"), Pat::Id("Graph")],
    base_call!("neighbors"),
    base_call!("out_edges"),
    base_call!("edge_target"),
    base_call!("edge_weight"),
    base_call!("degree"),
    base_call!("edges"),
    base_call!("vertices"),
    base_call!("has_edge"),
];

/// The workspace rule set.
pub const RULES: &[Rule] = &[
    Rule {
        name: "raw-adjacency",
        summary: "raw Graph/CSR adjacency access outside crates/graph; go through Topology",
        scope: &["crates/core/src", "crates/index/src", "crates/algo/src"],
        // The reference oracles intentionally run on materialized CSR
        // snapshots — they are the thing Topology answers are checked
        // against.
        exempt: &["crates/algo/src/reference.rs"],
        check: Check::ForbidSeqs(BASE_LEAK),
    },
    Rule {
        name: "thread-discipline",
        summary: "std::thread outside the engine runtime / pool / index morsel scopes",
        scope: &[],
        // pool.rs owns the elastic compute-thread pool (the only place
        // worker compute threads are born); runtime.rs owns the single
        // coordinator thread (the protocol core it runs, coord.rs, is
        // sans-IO and must spawn nothing); repair.rs owns the scoped
        // morsel pools for index build/rebuild work; the trace crate
        // owns the recorder rings that pool/coordinator threads stamp
        // into (its tests exercise cross-thread recording).
        exempt: &[
            "crates/core/src/pool.rs",
            "crates/core/src/runtime.rs",
            "crates/index/src/repair.rs",
            "crates/trace/src",
        ],
        check: Check::ForbidSeqs(&[
            &[Pat::Id("thread"), Pat::P("::"), Pat::Id("spawn")],
            &[Pat::Id("thread"), Pat::P("::"), Pat::Id("scope")],
            &[Pat::Id("thread"), Pat::P("::"), Pat::Id("Builder")],
        ]),
    },
    Rule {
        name: "index-float-cmp",
        summary: "naked f32 comparison on distances in crates/index; use the dist helpers",
        scope: &["crates/index/src"],
        // dist.rs *is* the tolerance-helper module.
        exempt: &["crates/index/src/dist.rs"],
        check: Check::ForbidAdjacent {
            ops: &["==", "!=", "<", "<=", ">", ">="],
            idents: &[
                "d",
                "du",
                "dv",
                "dw",
                "dh",
                "dx",
                "dr",
                "nd",
                "cand",
                "best",
                "dist",
                "sum",
                "threshold",
            ],
            suffixes: &["_dist"],
        },
    },
    Rule {
        name: "no-unwrap-hot-loop",
        summary: "unwrap()/expect() in coordinator/worker loop bodies",
        scope: &[
            "crates/core/src/coord.rs",
            "crates/core/src/runtime.rs",
            "crates/core/src/engine.rs",
            "crates/core/src/worker.rs",
        ],
        exempt: &[],
        check: Check::ForbidSeqs(&[
            &[Pat::P("."), Pat::Id("unwrap"), Pat::P("(")],
            &[Pat::P("."), Pat::Id("expect"), Pat::P("(")],
        ]),
    },
    Rule {
        name: "time-epoch-arith",
        summary: "direct SimTime/epoch arithmetic outside the attribution helpers",
        scope: &[],
        // topology.rs owns the epoch counter; the coordinator core, its
        // two executors and the sim crate own (virtual-)time scheduling
        // math and outcome stamping; query.rs/report.rs own
        // latency/epoch attribution; the trace crate owns stamp
        // arithmetic by design (phase folding is subtraction over
        // admitted/finished stamps).
        exempt: &[
            "crates/graph/src/topology.rs",
            "crates/core/src/coord.rs",
            "crates/core/src/engine.rs",
            "crates/core/src/runtime.rs",
            "crates/core/src/report.rs",
            "crates/core/src/query.rs",
            "crates/sim/src",
            "crates/trace/src",
        ],
        check: Check::ForbidAdjacent {
            ops: &["+", "-", "+=", "-=", "*", "/"],
            idents: &[
                "epoch",
                "first_epoch",
                "last_epoch",
                "SimTime",
                "queued_at",
                "submitted_at",
                "completed_at",
            ],
            suffixes: &[],
        },
    },
    Rule {
        name: "forbid-unsafe",
        summary: "crate root missing #![forbid(unsafe_code)]",
        scope: &["src/lib.rs", "/src/bin/", "src/main.rs"],
        exempt: &[],
        check: Check::RequireSeq(&[
            Pat::P("#"),
            Pat::P("!"),
            Pat::P("["),
            Pat::Id("forbid"),
            Pat::P("("),
            Pat::Id("unsafe_code"),
            Pat::P(")"),
            Pat::P("]"),
        ]),
    },
];
