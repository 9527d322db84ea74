//! `mosh-lint` — workspace invariant linter.
//!
//! `clippy -D warnings` audits general Rust hygiene; this pass audits
//! the *project* invariants that reviews of PRs 5–6 kept re-deriving by
//! hand, encoded as named rules over a hand-rolled token stream (the
//! workspace is vendored-only, so no `syn`):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-wallclock-in-sim` | `Instant::now` / `SystemTime::now` / `thread::sleep` only in the real-UDP substrates (`UdpChannel`, `UdpPoller`), bench, or test code — everything else must take time as a parameter so replays are schedule-identical |
//! | `saturating-deadlines` | no bare `-` / `-=` / `duration_since` on time-like operands in `crates/net` or `crates/core/src/hub` — deadline math uses `saturating_*` / `checked_*` (the PR 6 underflow class) |
//! | `bounded-channels` | no unbounded `mpsc::channel()` in `crates/net` / `crates/core` — queues between threads are `sync_channel` with an explicit depth (the PR 5 review class) |
//! | `safety-comments` | every `unsafe` block, fn, or impl carries a `// SAFETY:` justification (or a `# Safety` doc section) |
//! | `no-unwrap-hot-path` | no `unwrap` / `expect` / `panic!` in non-test code of `hub/`, `net/src/feed.rs`, `net/src/channel.rs` — a hub pump must not be able to take down its thread on a routine edge |
//!
//! Suppress a deliberate violation on its own line (or the line above)
//! with a reason:
//!
//! ```text
//! // mosh-lint: allow(no-wallclock-in-sim): pump budget is wall time on the real socket thread
//! ```
//!
//! A suppression without a reason is itself a finding. Test code
//! (`#[cfg(test)]` modules, `#[test]` fns, `tests/`, `examples/`,
//! `benches/`, `crates/bench/`) is exempt from every rule except
//! `safety-comments`; `vendor/` is not scanned at all (third-party API
//! shims).
//!
//! Runs as both a binary (`cargo run -p mosh-lint`, machine-readable
//! `file:line: [rule] message` findings, exit 1 on any) and as the
//! workspace self-check test in `crates/lint/tests/rules.rs`, so tier-1
//! catches regressions without a separate CI wiring.
//!
//! The same walk counts **production lines**: every line of a scanned
//! file outside `#[cfg(test)]` / `#[test]` items, in files under no
//! `tests/` or `examples/` directory ([`Analysis::production_lines`]).
//! Only `src/` and `crates/` contribute; `vendor/` and `benchmark/` are
//! never scanned.

pub mod lexer;
pub mod rules;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::{Tok, TokKind};
pub use rules::Rule;

/// One lint violation, anchored to a repo-relative path and 1-based
/// line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub path: String,
    pub line: u32,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// A whole-tree run: how many files were scanned, how many production
/// lines they hold, and what survived suppression.
#[derive(Debug)]
pub struct Report {
    pub files: usize,
    pub production_lines: usize,
    pub findings: Vec<Finding>,
}

/// One file's lexed form, split into code and comment streams, with
/// test regions resolved so rules can skip them.
pub struct Analysis {
    pub path: String,
    lines: Vec<String>,
    pub code: Vec<Tok>,
    pub comments: Vec<Tok>,
    test_ranges: Vec<(u32, u32)>,
}

impl Analysis {
    pub fn new(path: &str, src: &str) -> Self {
        let toks = lexer::lex(src);
        let (mut code, mut comments) = (Vec::new(), Vec::new());
        for t in toks {
            match t.kind {
                TokKind::LineComment | TokKind::BlockComment => comments.push(t),
                _ => code.push(t),
            }
        }
        let test_ranges = test_ranges(&code);
        Analysis {
            path: path.to_string(),
            lines: src.lines().map(str::to_string).collect(),
            code,
            comments,
            test_ranges,
        }
    }

    /// Is this 1-based line inside a `#[cfg(test)]` / `#[test]` item?
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// Lines that ship: every line outside test items, or none when the
    /// file sits under a `tests/` or `examples/` directory.
    pub fn production_lines(&self) -> usize {
        if self
            .path
            .split('/')
            .any(|dir| dir == "tests" || dir == "examples")
        {
            return 0;
        }
        (1..=self.lines.len() as u32)
            .filter(|&line| !self.is_test_line(line))
            .count()
    }

    /// Raw text of a 1-based line ("" when out of range).
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map_or("", String::as_str)
    }
}

/// Find line ranges covered by test-gated items: an attribute group
/// containing the bare ident `test` (`#[test]`, `#[cfg(test)]`,
/// `#[cfg(all(test, ...))]`) marks the following item through its
/// closing brace (or `;`). Attributes that also contain `not` (as in
/// `#[cfg(not(test))]`) gate *non*-test code and are skipped.
fn test_ranges(code: &[Tok]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < code.len() {
        if !code[k].is_punct("#") {
            k += 1;
            continue;
        }
        let start_line = code[k].line;
        let mut j = k + 1;
        if j < code.len() && code[j].is_punct("!") {
            j += 1;
        }
        if j >= code.len() || !code[j].is_punct("[") {
            k += 1;
            continue;
        }
        let (end, has_test, has_not) = scan_attr(code, j);
        k = end + 1;
        if !has_test || has_not {
            continue;
        }
        // Skip any further attributes stacked on the same item.
        while k < code.len() && code[k].is_punct("#") {
            let mut a = k + 1;
            if a < code.len() && code[a].is_punct("!") {
                a += 1;
            }
            if a < code.len() && code[a].is_punct("[") {
                let (end, _, _) = scan_attr(code, a);
                k = end + 1;
            } else {
                break;
            }
        }
        // The item body runs to the matching `}` of its first brace, or
        // to `;` for braceless items (`#[cfg(test)] use ...;`).
        while k < code.len() {
            if code[k].is_punct(";") {
                out.push((start_line, code[k].line));
                k += 1;
                break;
            }
            if code[k].is_punct("{") {
                let mut depth = 0i32;
                while k < code.len() {
                    if code[k].is_punct("{") {
                        depth += 1;
                    } else if code[k].is_punct("}") {
                        depth -= 1;
                        if depth == 0 {
                            out.push((start_line, code[k].line));
                            break;
                        }
                    }
                    k += 1;
                }
                k += 1;
                break;
            }
            k += 1;
        }
    }
    out
}

/// Scan an attribute group starting at its `[`; return (index of the
/// matching `]`, saw bare ident `test`, saw bare ident `not`).
fn scan_attr(code: &[Tok], open: usize) -> (usize, bool, bool) {
    let mut depth = 0i32;
    let (mut has_test, mut has_not) = (false, false);
    let mut m = open;
    while m < code.len() {
        if code[m].is_punct("[") {
            depth += 1;
        } else if code[m].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return (m, has_test, has_not);
            }
        } else if code[m].is_ident("test") {
            has_test = true;
        } else if code[m].is_ident("not") {
            has_not = true;
        }
        m += 1;
    }
    (m.saturating_sub(1), has_test, has_not)
}

/// A parsed allow directive: `allow(<rule>): <reason>` after the tool
/// prefix.
struct Suppression {
    line: u32,
    rule: Rule,
}

/// Extract suppressions from a file's comments. Malformed directives
/// (bad syntax, unknown rule, missing reason) become findings — a
/// suppression is an auditable artifact, not an escape hatch.
fn parse_suppressions(a: &Analysis) -> (Vec<Suppression>, Vec<Finding>) {
    let mut supps = Vec::new();
    let mut bad = Vec::new();
    for c in &a.comments {
        let Some(pos) = c.text.find("mosh-lint:") else {
            continue;
        };
        let mut flag = |message: String| {
            bad.push(Finding {
                path: a.path.clone(),
                line: c.line,
                rule: Rule::Suppression,
                message,
            });
        };
        let rest = c.text[pos + "mosh-lint:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            flag("malformed directive; expected `mosh-lint: allow(<rule>): <reason>`".into());
            continue;
        };
        let Some(close) = rest.find(')') else {
            flag("unclosed `allow(`; expected `mosh-lint: allow(<rule>): <reason>`".into());
            continue;
        };
        let name = rest[..close].trim();
        let Some(rule) = Rule::from_name(name) else {
            flag(format!(
                "unknown rule `{name}`; known rules: {}",
                Rule::SUPPRESSABLE
                    .iter()
                    .map(|r| r.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            continue;
        };
        let reason = rest[close + 1..]
            .trim_start()
            .strip_prefix(':')
            .map(str::trim)
            .unwrap_or("");
        if reason.is_empty() {
            flag(format!(
                "suppression of `{name}` needs a reason: `mosh-lint: allow({name}): <why>`"
            ));
        }
        // The suppression still masks its target even when the reason
        // is missing — the Suppression finding above keeps the run red,
        // and reporting both lines would be noise.
        supps.push(Suppression { line: c.line, rule });
    }
    (supps, bad)
}

/// Lint one file's source. `path` is repo-relative with `/` separators
/// and drives rule scoping, so fixtures can impersonate any location.
pub fn check_source(path: &str, src: &str) -> Vec<Finding> {
    check(&Analysis::new(path, src))
}

fn check(a: &Analysis) -> Vec<Finding> {
    let mut findings = Vec::new();
    rules::check_all(a, &mut findings);
    let (supps, bad) = parse_suppressions(a);
    findings.retain(|f| {
        !supps
            .iter()
            .any(|s| s.rule == f.rule && (s.line == f.line || s.line + 1 == f.line))
    });
    findings.extend(bad);
    let set: BTreeSet<Finding> = findings.into_iter().collect();
    set.into_iter().collect()
}

/// Walk the workspace at `root`, lint every first-party `.rs` file
/// (`src/`, `crates/`, `tests/`, `examples/`) and count its production
/// lines. `vendor/` and build output are not scanned.
pub fn run_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for top in ["src", "crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut findings = Vec::new();
    let mut production_lines = 0;
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let a = Analysis::new(&rel, &fs::read_to_string(f)?);
        findings.extend(check(&a));
        production_lines += a.production_lines();
    }
    findings.sort();
    Ok(Report {
        files: files.len(),
        production_lines,
        findings,
    })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != "vendor" {
                collect_rs(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
