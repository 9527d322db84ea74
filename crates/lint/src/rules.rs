//! The five project-invariant rules, plus the meta-rule for malformed
//! suppressions. Each rule is scoped by repo-relative path (see
//! [`Rule::applies_to`]) and — except `safety-comments` — skips test
//! code, both test-only paths and `#[cfg(test)]` / `#[test]` regions
//! within production files.

use crate::lexer::{Tok, TokKind};
use crate::{Analysis, Finding};

/// A named rule. The first five are the suppressable project
/// invariants; [`Rule::Suppression`] reports broken allow directives
/// and cannot itself be suppressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    NoWallclockInSim,
    SaturatingDeadlines,
    BoundedChannels,
    SafetyComments,
    NoUnwrapHotPath,
    Suppression,
}

impl Rule {
    pub const SUPPRESSABLE: [Rule; 5] = [
        Rule::NoWallclockInSim,
        Rule::SaturatingDeadlines,
        Rule::BoundedChannels,
        Rule::SafetyComments,
        Rule::NoUnwrapHotPath,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Rule::NoWallclockInSim => "no-wallclock-in-sim",
            Rule::SaturatingDeadlines => "saturating-deadlines",
            Rule::BoundedChannels => "bounded-channels",
            Rule::SafetyComments => "safety-comments",
            Rule::NoUnwrapHotPath => "no-unwrap-hot-path",
            Rule::Suppression => "suppression",
        }
    }

    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::SUPPRESSABLE
            .iter()
            .copied()
            .find(|r| r.name() == name)
    }

    /// Path scope. `path` is repo-relative with `/` separators.
    pub fn applies_to(self, path: &str) -> bool {
        match self {
            // Schedule-identity: everything except the real-UDP
            // substrates, which exist to translate wall time into the
            // deterministic core's Millis.
            Rule::NoWallclockInSim => {
                !is_test_path(path)
                    && path != "crates/net/src/channel.rs"
                    && path != "crates/net/src/poller.rs"
            }
            Rule::SaturatingDeadlines => {
                !is_test_path(path)
                    && (path.starts_with("crates/net/src/")
                        || path.starts_with("crates/core/src/hub/"))
            }
            Rule::BoundedChannels => {
                !is_test_path(path)
                    && (path.starts_with("crates/net/src/") || path.starts_with("crates/core/src/"))
            }
            // SAFETY discipline holds in test code too.
            Rule::SafetyComments => true,
            Rule::NoUnwrapHotPath => {
                !is_test_path(path)
                    && (path.starts_with("crates/core/src/hub/")
                        || path == "crates/net/src/feed.rs"
                        || path == "crates/net/src/channel.rs")
            }
            Rule::Suppression => true,
        }
    }

    /// Whether findings inside `#[cfg(test)]` / `#[test]` regions are
    /// dropped for this rule.
    fn skips_test_code(self) -> bool {
        !matches!(self, Rule::SafetyComments)
    }
}

/// Paths whose whole contents are test/bench scope.
fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.starts_with("crates/bench/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

/// Run every rule that applies to `a.path`, appending findings.
pub(crate) fn check_all(a: &Analysis, out: &mut Vec<Finding>) {
    let mut emit = |rule: Rule, line: u32, message: String| {
        if rule.applies_to(&a.path) && !(rule.skips_test_code() && a.is_test_line(line)) {
            out.push(Finding {
                path: a.path.clone(),
                line,
                rule,
                message,
            });
        }
    };
    no_wallclock(a, &mut emit);
    saturating_deadlines(a, &mut emit);
    bounded_channels(a, &mut emit);
    safety_comments(a, &mut emit);
    no_unwrap_hot_path(a, &mut emit);
}

fn tok_at(code: &[Tok], k: usize) -> Option<&Tok> {
    code.get(k)
}

// ---------------------------------------------------------------- rule 1

/// `Instant::now`, `SystemTime::now`, `thread::sleep` (call sites and
/// `use` paths both contain the two-segment sequence).
fn no_wallclock(a: &Analysis, emit: &mut impl FnMut(Rule, u32, String)) {
    let code = &a.code;
    for k in 0..code.len() {
        let Some(seg) = tok_at(code, k).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        let pair = match seg.text.as_str() {
            "Instant" | "SystemTime" => "now",
            "thread" => "sleep",
            _ => continue,
        };
        if tok_at(code, k + 1).is_some_and(|t| t.is_punct("::"))
            && tok_at(code, k + 2).is_some_and(|t| t.is_ident(pair))
        {
            emit(
                Rule::NoWallclockInSim,
                seg.line,
                format!(
                    "`{}::{}` breaks schedule-identity; take time as a parameter, or keep \
                     wall-clock reads inside UdpChannel/UdpPoller/bench/test code",
                    seg.text, pair
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- rule 2

/// Identifier names treated as time-valued for subtraction checks.
/// Lexical analysis has no types, so this is a curated list covering
/// the workspace's deadline vocabulary; `saturating_sub` /
/// `checked_sub` / `saturating_duration_since` are different
/// identifiers and pass untouched.
fn time_like(name: &str) -> bool {
    const EXACT: &[&str] = &[
        "now",
        "deadline",
        "due",
        "at",
        "start",
        "elapsed",
        "timeout",
        "expiry",
        "expires",
        "wakeup",
        "Instant",
        "Duration",
        "SystemTime",
    ];
    const SUFFIX: &[&str] = &[
        "_at",
        "_time",
        "_deadline",
        "_due",
        "_until",
        "_ms",
        "_millis",
    ];
    EXACT.contains(&name) || SUFFIX.iter().any(|s| name.ends_with(s))
}

/// Bare `-` / `-=` with a time-like operand, or `.duration_since(`.
fn saturating_deadlines(a: &Analysis, emit: &mut impl FnMut(Rule, u32, String)) {
    let code = &a.code;
    for k in 0..code.len() {
        let t = &code[k];
        if t.is_ident("duration_since")
            && k > 0
            && code[k - 1].is_punct(".")
            && tok_at(code, k + 1).is_some_and(|n| n.is_punct("("))
        {
            emit(
                Rule::SaturatingDeadlines,
                t.line,
                "`duration_since` panics/errors on clock reversal; use \
                 `saturating_duration_since`"
                    .into(),
            );
            continue;
        }
        if t.kind != TokKind::Punct || (t.text != "-" && t.text != "-=") {
            continue;
        }
        if t.text == "-" {
            // Binary minus only: unary negation has no operand before
            // it, so the previous token must end one.
            let Some(prev) = k.checked_sub(1).map(|p| &code[p]) else {
                continue;
            };
            let binary = matches!(prev.kind, TokKind::Ident | TokKind::Number)
                || prev.is_punct(")")
                || prev.is_punct("]");
            if !binary {
                continue;
            }
        }
        let left = left_operand_name(code, k);
        let right = right_operand_name(code, k);
        let hit = left.as_deref().is_some_and(time_like) || right.as_deref().is_some_and(time_like);
        if hit {
            emit(
                Rule::SaturatingDeadlines,
                t.line,
                format!(
                    "bare `{}` on time-like operand{} underflows when the deadline has passed; \
                     use `saturating_sub`/`checked_sub`",
                    t.text,
                    match (&left, &right) {
                        (Some(l), _) if time_like(l) => format!(" `{l}`"),
                        (_, Some(r)) => format!(" `{r}`"),
                        _ => String::new(),
                    }
                ),
            );
        }
    }
}

/// Name of the operand ending just before the `-` at `code[k]`: an
/// identifier, or — through a closing `)` — the called method's name
/// (`x.elapsed() - y` → `elapsed`, `v.len() - 1` → `len`).
fn left_operand_name(code: &[Tok], k: usize) -> Option<String> {
    let prev = &code[k.checked_sub(1)?];
    if prev.kind == TokKind::Ident {
        return Some(prev.text.clone());
    }
    if prev.is_punct(")") {
        let mut depth = 0i32;
        let mut m = k - 1;
        loop {
            if code[m].is_punct(")") {
                depth += 1;
            } else if code[m].is_punct("(") {
                depth -= 1;
                if depth == 0 {
                    let before = &code[m.checked_sub(1)?];
                    if before.kind == TokKind::Ident {
                        return Some(before.text.clone());
                    }
                    return None;
                }
            }
            m = m.checked_sub(1)?;
        }
    }
    None
}

/// Name of the operand starting just after the `-` at `code[k]`:
/// `foo`, `self.foo` → `foo`, `Instant::now()` → `Instant`.
fn right_operand_name(code: &[Tok], k: usize) -> Option<String> {
    let next = tok_at(code, k + 1)?;
    if next.kind != TokKind::Ident {
        return None;
    }
    if next.text == "self"
        && tok_at(code, k + 2).is_some_and(|t| t.is_punct("."))
        && tok_at(code, k + 3).is_some_and(|t| t.kind == TokKind::Ident)
    {
        return Some(code[k + 3].text.clone());
    }
    Some(next.text.clone())
}

// ---------------------------------------------------------------- rule 3

/// `mpsc::channel` anywhere (call or `use` path), plus the bare ident
/// `channel` inside a `use` statement that mentions `mpsc` (catching
/// `use std::sync::mpsc::{channel, ...}` and therefore any later
/// unqualified `channel()` call).
fn bounded_channels(a: &Analysis, emit: &mut impl FnMut(Rule, u32, String)) {
    let code = &a.code;
    const MSG: &str = "unbounded `mpsc::channel` hides backpressure; use `sync_channel` with an \
                       explicit depth";
    for k in 0..code.len() {
        if code[k].is_ident("mpsc")
            && tok_at(code, k + 1).is_some_and(|t| t.is_punct("::"))
            && tok_at(code, k + 2).is_some_and(|t| t.is_ident("channel"))
        {
            emit(Rule::BoundedChannels, code[k + 2].line, MSG.into());
        }
    }
    let mut k = 0usize;
    while k < code.len() {
        if !code[k].is_ident("use") {
            k += 1;
            continue;
        }
        let start = k;
        let mut end = k;
        while end < code.len() && !code[end].is_punct(";") {
            end += 1;
        }
        let stmt = &code[start..end];
        if stmt.iter().any(|t| t.is_ident("mpsc")) {
            // `use std::sync::mpsc::channel;` is also caught by the
            // qualified scan above; identical findings dedup downstream.
            for t in stmt {
                if t.is_ident("channel") {
                    emit(Rule::BoundedChannels, t.line, MSG.into());
                }
            }
        }
        k = end + 1;
    }
}

// ---------------------------------------------------------------- rule 4

/// Every `unsafe` block / fn / impl / trait needs a `SAFETY:` comment
/// (or, for fns, a `# Safety` doc section) adjacent to it: on the same
/// line, the first line inside the block, or in the run of comments and
/// attributes immediately above.
fn safety_comments(a: &Analysis, emit: &mut impl FnMut(Rule, u32, String)) {
    let code = &a.code;
    for k in 0..code.len() {
        if !code[k].is_ident("unsafe") {
            continue;
        }
        // `unsafe fn(...)` with `(` right after `fn` is a fn-pointer
        // *type*, not a definition — nothing to justify at this site.
        if tok_at(code, k + 1).is_some_and(|t| t.is_ident("fn"))
            && tok_at(code, k + 2).is_some_and(|t| t.is_punct("("))
        {
            continue;
        }
        let line = code[k].line;
        if has_safety_context(a, line) {
            continue;
        }
        let what = tok_at(code, k + 1).map_or("block", |t| match t.text.as_str() {
            "fn" => "fn",
            "impl" => "impl",
            "trait" => "trait",
            _ => "block",
        });
        emit(
            Rule::SafetyComments,
            line,
            format!(
                "`unsafe` {what} without an adjacent `// SAFETY:` justification (or `# Safety` \
                 doc section)"
            ),
        );
    }
}

fn has_safety_context(a: &Analysis, line: u32) -> bool {
    let marks = |s: &str| s.contains("SAFETY:") || s.contains("# Safety");
    if marks(a.line_text(line)) || marks(a.line_text(line + 1)) {
        return true;
    }
    // Scan up through the contiguous run of comments and attributes.
    let mut l = line.saturating_sub(1);
    while l >= 1 {
        let t = a.line_text(l).trim();
        if t.starts_with("//") {
            if marks(t) {
                return true;
            }
        } else if !(t.starts_with("#[") || t.starts_with("#!") || t.starts_with(")]")) {
            break;
        }
        l -= 1;
    }
    false
}

// ---------------------------------------------------------------- rule 5

/// `.unwrap(` / `.expect(` / `panic!` in hot-path files.
fn no_unwrap_hot_path(a: &Analysis, emit: &mut impl FnMut(Rule, u32, String)) {
    let code = &a.code;
    for k in 0..code.len() {
        let t = &code[k];
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && k > 0
            && code[k - 1].is_punct(".")
            && tok_at(code, k + 1).is_some_and(|n| n.is_punct("("))
        {
            emit(
                Rule::NoUnwrapHotPath,
                t.line,
                format!(
                    "`.{}()` can take down a hub thread on a routine edge; propagate the error \
                     instead",
                    t.text
                ),
            );
        }
        if t.is_ident("panic") && tok_at(code, k + 1).is_some_and(|n| n.is_punct("!")) {
            emit(
                Rule::NoUnwrapHotPath,
                t.line,
                "`panic!` in a hot path; return an error instead".into(),
            );
        }
    }
}
