//! qgraph-check: workspace correctness tooling.
//!
//! The `qlint` pass walks every `crates/*/src/**/*.rs` file, lexes it
//! with a hand-rolled tokenizer ([`lex`]), and applies the data-driven
//! project rules ([`rules::RULES`]): adjacency access discipline,
//! thread-spawn discipline, distance-comparison hygiene in the index,
//! unwrap-free engine hot loops, epoch/SimTime attribution, one erasure
//! boundary in the engine core, and the `#![forbid(unsafe_code)]` floor. Findings are machine-readable
//! (`Finding`, JSON via `--json` on the binary) and the whole pass
//! runs as a tier-1 test asserting zero findings.
//!
//! Test-gated code (`#[cfg(test)]` items) is exempt everywhere, and a
//! finding can be waived with a justified
//! `// qlint: allow(rule-name) — why` comment on its line or the line
//! above.

#![forbid(unsafe_code)]

pub mod lex;
pub mod rules;

use lex::{Lexed, Tok, TokKind};
use rules::{Check, Pat, Rule, RULES};
use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    pub line: u32,
    /// The trimmed source line (empty for whole-file findings).
    pub excerpt: String,
}

impl Finding {
    /// One-line JSON encoding (the only strings involved are source
    /// text and paths; escape the minimum that keeps them valid).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"excerpt\":\"{}\"}}",
            self.rule,
            esc(&self.file),
            self.line,
            esc(&self.excerpt)
        )
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.excerpt
        )
    }
}

/// Lint one file's source text under its workspace-relative path.
/// Exposed so the fixture tests can lint seeded sources *as if* they
/// lived inside a rule's scope.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let lexed = lex::lex(src);
    let test_spans = lex::test_spans(&lexed.toks);
    let lines: Vec<&str> = src.lines().collect();
    let mut findings = Vec::new();

    for rule in RULES {
        if !in_scope(rel_path, rule) {
            continue;
        }
        match rule.check {
            Check::ForbidSeqs(seqs) => {
                for hit in seq_hits(&lexed.toks, seqs) {
                    push_finding(
                        &mut findings,
                        rule,
                        rel_path,
                        hit,
                        &lexed,
                        &test_spans,
                        &lines,
                    );
                }
            }
            Check::ForbidAdjacent {
                ops,
                idents,
                suffixes,
            } => {
                for hit in adjacent_hits(&lexed.toks, ops, idents, suffixes) {
                    push_finding(
                        &mut findings,
                        rule,
                        rel_path,
                        hit,
                        &lexed,
                        &test_spans,
                        &lines,
                    );
                }
            }
            Check::RequireSeq(seq) => {
                if seq_hits(&lexed.toks, &[seq]).is_empty() {
                    findings.push(Finding {
                        rule: rule.name,
                        file: rel_path.to_string(),
                        line: 1,
                        excerpt: format!("missing required `{}`", seq_text(seq)),
                    });
                }
            }
        }
    }
    findings
}

fn push_finding(
    findings: &mut Vec<Finding>,
    rule: &Rule,
    rel_path: &str,
    tok_idx: usize,
    lexed: &Lexed,
    test_spans: &[(usize, usize)],
    lines: &[&str],
) {
    if test_spans.iter().any(|&(a, b)| a <= tok_idx && tok_idx < b) {
        return;
    }
    let line = lexed.toks[tok_idx].line;
    let waived = lexed
        .allows
        .iter()
        .any(|(l, r)| r == rule.name && (*l == line || *l + 1 == line));
    if waived {
        return;
    }
    let excerpt = lines
        .get(line as usize - 1)
        .map(|l| l.trim().to_string())
        .unwrap_or_default();
    findings.push(Finding {
        rule: rule.name,
        file: rel_path.to_string(),
        line,
        excerpt,
    });
}

fn in_scope(rel_path: &str, rule: &Rule) -> bool {
    let scoped = rule.scope.is_empty() || rule.scope.iter().any(|s| rel_path.contains(s));
    scoped && !rule.exempt.iter().any(|s| rel_path.contains(s))
}

fn pat_matches(pat: &Pat, tok: &Tok) -> bool {
    match (pat, &tok.kind) {
        (Pat::Id(want), TokKind::Ident(name)) => name == want,
        (Pat::P(want), TokKind::Punct(p)) => p == want,
        _ => false,
    }
}

/// Token indices where any of `seqs` begins.
fn seq_hits(toks: &[Tok], seqs: &[&[Pat]]) -> Vec<usize> {
    let mut hits = Vec::new();
    for i in 0..toks.len() {
        for seq in seqs {
            if toks.len() - i >= seq.len()
                && seq
                    .iter()
                    .enumerate()
                    .all(|(k, p)| pat_matches(p, &toks[i + k]))
            {
                hits.push(i);
                break;
            }
        }
    }
    hits
}

/// Token indices of identifiers from `idents`/`suffixes` adjacent to
/// one of `ops` — directly (`d < best`, `epoch += 1`, `sum - x`) or
/// across a no-argument call (`.epoch() + 1`).
fn adjacent_hits(toks: &[Tok], ops: &[&str], idents: &[&str], suffixes: &[&str]) -> Vec<usize> {
    let is_op = |k: &TokKind| matches!(k, TokKind::Punct(p) if ops.contains(p));
    let mut hits = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        let TokKind::Ident(name) = &tok.kind else {
            continue;
        };
        if !(idents.contains(&name.as_str()) || suffixes.iter().any(|s| name.ends_with(s))) {
            continue;
        }
        // op immediately before: `… < d`, `now + SimTime::…`.
        if i > 0 && is_op(&toks[i - 1].kind) {
            hits.push(i);
            continue;
        }
        // op immediately after: `d < …`, `epoch += 1`.
        if i + 1 < toks.len() && is_op(&toks[i + 1].kind) {
            hits.push(i);
            continue;
        }
        // op after a no-arg call: `.epoch() + 1`.
        if i + 3 < toks.len()
            && toks[i + 1].kind == TokKind::Punct("(")
            && toks[i + 2].kind == TokKind::Punct(")")
            && is_op(&toks[i + 3].kind)
        {
            hits.push(i);
        }
    }
    hits
}

fn seq_text(seq: &[Pat]) -> String {
    seq.iter()
        .map(|p| match p {
            Pat::Id(s) => *s,
            Pat::P(s) => *s,
        })
        .collect::<Vec<_>>()
        .join("")
}

/// Locate the workspace root: walk up from `start` until a directory
/// holding a `Cargo.toml` with a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Every `.rs` file under `crates/*/src`, workspace-relative with `/`
/// separators, sorted for stable output. (`tests/`, `examples/`, and
/// `vendor/` are harness/shim code and out of lint scope — see
/// ARCHITECTURE.md.)
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates) else {
        return files;
    };
    for entry in entries.flatten() {
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files);
        }
    }
    files.sort();
    files
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Run the full lint pass over the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for path in workspace_sources(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        findings.extend(lint_source(&rel, &src));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_operators_and_allows() {
        let lexed = lex::lex("let a = b + 1; // qlint: allow(time-epoch-arith) — why\n");
        assert!(lexed.toks.iter().any(|t| t.kind == TokKind::Punct("+")));
        assert_eq!(lexed.allows, vec![(1, "time-epoch-arith".to_string())]);
    }

    #[test]
    fn char_literal_is_not_a_lifetime() {
        let lexed = lex::lex("let c = 'x'; fn f<'a>(v: &'a str) {}");
        let lits = lexed.toks.iter().filter(|t| t.kind == TokKind::Lit).count();
        let lifes = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Life)
            .count();
        assert_eq!(lits, 1);
        assert_eq!(lifes, 2);
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = "fn hot() {}\n#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\n";
        let findings = lint_source("crates/core/src/runtime.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn adjacency_matches_through_calls() {
        let hits = adjacent_hits(
            &lex::lex("let e = topo.epoch() + 1;").toks,
            &["+"],
            &["epoch"],
            &[],
        );
        assert_eq!(hits.len(), 1);
    }
}
