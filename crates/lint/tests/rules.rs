//! Fixture coverage for every rule — one tripping, one clean, one
//! suppressed snippet each — plus the workspace self-check that keeps
//! the live tree lint-clean under tier-1.
//!
//! Fixtures impersonate in-scope paths (rule scoping is path-driven),
//! so a deliberate violation "in `crates/net`" is a string handed to
//! [`mosh_lint::check_source`] with a `crates/net/src/...` path — no
//! temp files in the real tree.

use mosh_lint::{check_source, Analysis, Rule};
use std::path::Path;

/// Findings for `src` pretending to live at `path`, as rule names.
fn rules_at(path: &str, src: &str) -> Vec<&'static str> {
    check_source(path, src)
        .into_iter()
        .map(|f| f.rule.name())
        .collect()
}

const HUB: &str = "crates/core/src/hub/fixture.rs";
const NET: &str = "crates/net/src/fixture.rs";

// ---------------------------------------------------------- wallclock

#[test]
fn wallclock_trips_in_sim_scope() {
    let src = "fn pump() { let t = std::time::Instant::now(); }";
    assert_eq!(rules_at(NET, src), vec!["no-wallclock-in-sim"]);
    let sleep = "fn pace() { std::thread::sleep(d); }";
    assert_eq!(rules_at(HUB, sleep), vec!["no-wallclock-in-sim"]);
    let sys = "fn stamp() { let t = SystemTime::now(); }";
    assert_eq!(
        rules_at("crates/core/src/session.rs", sys),
        vec!["no-wallclock-in-sim"]
    );
}

#[test]
fn wallclock_clean_when_time_is_a_parameter() {
    let src = "fn pump(now: Millis) -> Millis { now + 1 }";
    assert!(rules_at(NET, src).is_empty());
}

#[test]
fn wallclock_suppressed_with_reason() {
    let src = "fn epoch() {\n\
               // mosh-lint: allow(no-wallclock-in-sim): real-UDP substrate epoch\n\
               let t = Instant::now();\n}";
    assert!(rules_at(NET, src).is_empty());
}

#[test]
fn wallclock_allowed_in_udp_substrates_bench_and_tests() {
    let src = "fn bind() { let t = Instant::now(); }";
    assert!(rules_at("crates/net/src/channel.rs", src).is_empty());
    assert!(rules_at("crates/net/src/poller.rs", src).is_empty());
    assert!(rules_at("crates/bench/src/bin/b.rs", src).is_empty());
    assert!(rules_at("crates/net/tests/t.rs", src).is_empty());
    let in_test_mod = "#[cfg(test)]\nmod tests {\n fn t() { let x = Instant::now(); }\n}";
    assert!(rules_at(NET, in_test_mod).is_empty());
}

#[test]
fn wallclock_in_strings_and_comments_is_ignored() {
    let src = "// Instant::now() would be wrong here\nfn f() { let s = \"Instant::now()\"; }";
    assert!(rules_at(NET, src).is_empty());
}

// ------------------------------------------------- saturating deadlines

/// The acceptance-criteria case: a deliberate deadline underflow in
/// `crates/net` fails the lint.
#[test]
fn deadline_subtraction_trips() {
    let src = "fn left(deadline: Millis, now: Millis) -> Millis { deadline - now }";
    assert_eq!(rules_at(NET, src), vec!["saturating-deadlines"]);
    let ds = "fn gap(a: Instant, b: Instant) -> Duration { a.duration_since(b) }";
    assert_eq!(rules_at(HUB, ds), vec!["saturating-deadlines"]);
    let method = "fn left(x: Thing, now: Millis) -> Millis { x.deadline() - now }";
    assert_eq!(rules_at(NET, method), vec!["saturating-deadlines"]);
    let compound = "fn tick(&mut self) { self.budget -= self.elapsed; }";
    assert_eq!(rules_at(NET, compound), vec!["saturating-deadlines"]);
}

#[test]
fn deadline_saturating_forms_are_clean() {
    let src = "fn left(deadline: Millis, now: Millis) -> Millis {\n\
               let _ = deadline.saturating_sub(now);\n\
               let _ = a.saturating_duration_since(b);\n\
               deadline.checked_sub(now).unwrap_or(0)\n}";
    assert!(rules_at(NET, src).is_empty());
}

#[test]
fn deadline_rule_ignores_non_time_subtraction() {
    let src = "fn f(v: &[u8]) -> usize { v.len() - 1 }";
    assert!(rules_at(NET, src).is_empty());
    let floats = "fn g(rate: f64, x: f64) -> f64 { rate - x }";
    assert!(rules_at(NET, floats).is_empty());
    let unary = "fn h(deadline: i64) -> i64 { -deadline }";
    assert!(rules_at(NET, unary).is_empty());
    let arrow = "fn a() -> u32 { 1 }";
    assert!(rules_at(NET, arrow).is_empty());
}

#[test]
fn deadline_rule_scoped_to_net_and_hub() {
    let src = "fn left(deadline: Millis, now: Millis) -> Millis { deadline - now }";
    assert!(rules_at("crates/terminal/src/grid.rs", src).is_empty());
}

#[test]
fn deadline_suppressed_with_reason() {
    let src = "fn left(deadline: Millis, now: Millis) -> Millis {\n\
               // mosh-lint: allow(saturating-deadlines): caller guarantees now <= deadline\n\
               deadline - now\n}";
    assert!(rules_at(NET, src).is_empty());
}

// ------------------------------------------------------ bounded channels

/// The acceptance-criteria case: an unbounded `mpsc::channel()` in
/// `crates/net` fails the lint.
#[test]
fn unbounded_channel_trips() {
    let src = "fn wire() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); }";
    assert_eq!(rules_at(NET, src), vec!["bounded-channels"]);
    // The import form is caught too, so a later bare `channel()` call
    // cannot slip through unqualified.
    let import =
        "use std::sync::mpsc::{channel, Receiver};\nfn wire() { let (tx, rx) = channel::<u8>(); }";
    assert_eq!(
        rules_at("crates/core/src/hub/router_fixture.rs", import),
        vec!["bounded-channels"]
    );
}

#[test]
fn sync_channel_is_clean() {
    let src = "use std::sync::mpsc::{sync_channel, Receiver, SyncSender};\n\
               fn wire() { let (tx, rx) = sync_channel::<u8>(4); }";
    assert!(rules_at(NET, src).is_empty());
}

#[test]
fn unbounded_channel_outside_net_core_is_clean() {
    let src = "fn wire() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); }";
    assert!(rules_at("crates/terminal/src/emulator.rs", src).is_empty());
}

#[test]
fn unbounded_channel_suppressed_with_reason() {
    let src = "fn wire() {\n\
               // mosh-lint: allow(bounded-channels): consumer drains faster than producer by construction\n\
               let (tx, rx) = std::sync::mpsc::channel::<u8>();\n}";
    assert!(rules_at(NET, src).is_empty());
}

// ------------------------------------------------------ safety comments

#[test]
fn unsafe_without_justification_trips() {
    let block = "fn f(p: *mut u8) { unsafe { *p = 0; } }";
    assert_eq!(
        rules_at("crates/crypto/src/x.rs", block),
        vec!["safety-comments"]
    );
    let imp = "unsafe impl Send for Job {}";
    assert_eq!(rules_at(HUB, imp), vec!["safety-comments"]);
    let f = "unsafe fn raw(p: *mut u8) -> u8 { *p }";
    assert_eq!(
        rules_at("crates/crypto/src/x.rs", f),
        vec!["safety-comments"]
    );
}

#[test]
fn unsafe_with_safety_comment_or_doc_is_clean() {
    let block =
        "fn f(p: *mut u8) {\n// SAFETY: p is valid for writes by contract\nunsafe { *p = 0; }\n}";
    assert!(rules_at("crates/crypto/src/x.rs", block).is_empty());
    let inside =
        "fn f(p: *mut u8) {\nunsafe {\n// SAFETY: p is valid for writes by contract\n*p = 0;\n}\n}";
    assert!(rules_at("crates/crypto/src/x.rs", inside).is_empty());
    let doc = "/// # Safety\n/// Caller must check the CPU feature.\n#[target_feature(enable = \"aes\")]\npub unsafe fn go() {}";
    assert!(rules_at("crates/crypto/src/x.rs", doc).is_empty());
}

#[test]
fn unsafe_fn_pointer_type_is_not_a_definition() {
    let src = "struct Job { run: unsafe fn(*mut ()) -> u32 }";
    assert!(rules_at(HUB, src).is_empty());
}

#[test]
fn unsafe_suppressed_with_reason() {
    let src = "fn f(p: *mut u8) {\n\
               // mosh-lint: allow(safety-comments): justification lives on the module doc\n\
               unsafe { *p = 0; }\n}";
    assert!(rules_at("crates/crypto/src/x.rs", src).is_empty());
}

#[test]
fn safety_rule_applies_even_in_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n fn f(p: *mut u8) { unsafe { *p = 0; } }\n}";
    assert_eq!(
        rules_at("crates/crypto/src/x.rs", src),
        vec!["safety-comments"]
    );
}

// ------------------------------------------------------ unwrap hot path

#[test]
fn unwrap_in_hot_path_trips() {
    let src = "fn pump(x: Option<u8>) -> u8 { x.unwrap() }";
    assert_eq!(rules_at(HUB, src), vec!["no-unwrap-hot-path"]);
    let expect = "fn pump(x: Option<u8>) -> u8 { x.expect(\"always here\") }";
    assert_eq!(
        rules_at("crates/net/src/feed.rs", expect),
        vec!["no-unwrap-hot-path"]
    );
    let panics = "fn pump() { panic!(\"boom\"); }";
    assert_eq!(
        rules_at("crates/net/src/channel.rs", panics),
        vec!["no-unwrap-hot-path"]
    );
}

#[test]
fn unwrap_alternatives_and_cold_paths_are_clean() {
    let src = "fn pump(x: Option<u8>) -> u8 { x.unwrap_or(0) }";
    assert!(rules_at(HUB, src).is_empty());
    let cold = "fn setup(x: Option<u8>) -> u8 { x.unwrap() }";
    assert!(rules_at("crates/core/src/session.rs", cold).is_empty());
    let in_test = "#[test]\nfn t() { Some(1).unwrap(); }";
    assert!(rules_at(HUB, in_test).is_empty());
}

#[test]
fn unwrap_suppressed_with_reason() {
    let src = "fn pump(x: Option<u8>) -> u8 {\n\
               // mosh-lint: allow(no-unwrap-hot-path): index produced by position() two lines up\n\
               x.unwrap()\n}";
    assert!(rules_at(HUB, src).is_empty());
}

// --------------------------------------------------------- suppressions

#[test]
fn suppression_without_reason_is_flagged() {
    let src = "fn pump(x: Option<u8>) -> u8 {\n\
               // mosh-lint: allow(no-unwrap-hot-path)\n\
               x.unwrap()\n}";
    assert_eq!(rules_at(HUB, src), vec!["suppression"]);
}

#[test]
fn suppression_of_unknown_rule_is_flagged() {
    let src = "// mosh-lint: allow(no-such-rule): whatever\nfn f() {}";
    assert_eq!(rules_at(NET, src), vec!["suppression"]);
}

#[test]
fn suppression_only_covers_its_own_rule_and_lines() {
    // Wrong rule: the wallclock finding survives.
    let wrong = "fn f() {\n\
                 // mosh-lint: allow(no-unwrap-hot-path): misdirected\n\
                 let t = Instant::now();\n}";
    assert_eq!(rules_at(NET, wrong), vec!["no-wallclock-in-sim"]);
    // Too far away: two lines above the violation does not count.
    let far = "fn f() {\n\
               // mosh-lint: allow(no-wallclock-in-sim): stale\n\
               let a = 1;\n\
               let t = Instant::now();\n}";
    assert_eq!(rules_at(NET, far), vec!["no-wallclock-in-sim"]);
}

// ------------------------------------------------------ production lines

/// Production lines are every line outside test items, blank lines and
/// comments included; a `#[cfg(not(test))]` item ships; a file under
/// `tests/` or `examples/` ships nothing.
#[test]
fn production_lines_skip_test_items_and_test_paths() {
    let src = "//! A module.\n\
               pub fn f() -> u8 { 1 }\n\
               \n\
               #[cfg(not(test))]\n\
               fn g() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
               #[test]\n\
               fn t() { assert_eq!(super::f(), 1); }\n\
               }\n\
               // trailing\n";
    let lines = |path| Analysis::new(path, src).production_lines();
    assert_eq!(lines("crates/x/src/lib.rs"), 6);
    assert_eq!(lines("src/lib.rs"), 6);
    assert_eq!(lines("crates/x/tests/t.rs"), 0);
    assert_eq!(lines("tests/t.rs"), 0);
    assert_eq!(lines("examples/demo.rs"), 0);
}

// ----------------------------------------------------------- self-check

/// The live tree must be lint-clean: this is the regression gate that
/// makes every rule part of tier-1, not just of the CI binary.
#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels under the workspace root");
    let report = mosh_lint::run_workspace(root).expect("workspace scan");
    assert!(
        report.files > 50,
        "walker found only {} files — scan roots look wrong",
        report.files
    );
    let rendered: Vec<String> = report.findings.iter().map(ToString::to_string).collect();
    assert!(
        rendered.is_empty(),
        "live tree has lint findings:\n{}",
        rendered.join("\n")
    );
}

/// Every suppressable rule is reachable from a fixture (guards against
/// a rule being silently compiled out of `check_all`).
#[test]
fn all_five_rules_fire_somewhere() {
    let by_rule: &[(&str, &str, &str)] = &[
        (
            "no-wallclock-in-sim",
            NET,
            "fn f() { let t = Instant::now(); }",
        ),
        (
            "saturating-deadlines",
            NET,
            "fn f(deadline: u64, now: u64) -> u64 { deadline - now }",
        ),
        (
            "bounded-channels",
            NET,
            "fn f() { let p = std::sync::mpsc::channel::<u8>(); }",
        ),
        (
            "safety-comments",
            NET,
            "fn f(p: *mut u8) { unsafe { *p = 0; } }",
        ),
        (
            "no-unwrap-hot-path",
            HUB,
            "fn f(x: Option<u8>) -> u8 { x.unwrap() }",
        ),
    ];
    for (name, path, src) in by_rule {
        let fired = rules_at(path, src);
        assert!(
            fired.contains(name),
            "{name} did not fire on its fixture: {fired:?}"
        );
        assert!(
            Rule::from_name(name).is_some(),
            "{name} missing from the suppressable set"
        );
    }
}
