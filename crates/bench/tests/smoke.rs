//! Smoke tests: every figure/table binary must run to completion in
//! `--quick` mode and print its report. This keeps the evaluation
//! binaries from silently rotting as the crates under them evolve.
//!
//! Cargo builds each `[[bin]]` target before running these tests and
//! exposes its path through `CARGO_BIN_EXE_<name>`.

use std::process::Command;

/// Runs `exe --quick`, asserting success and the expected stdout needles;
/// returns the stdout.
fn run_quick(exe: &str, expect: &[&str]) -> String {
    let out = Command::new(exe)
        .arg("--quick")
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} --quick exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in expect {
        assert!(
            stdout.contains(needle),
            "{exe} --quick output missing {needle:?}:\n{stdout}"
        );
    }
    stdout.into_owned()
}

/// The figure printed after `label` on the report line starting with
/// `row`: a percentage, or a time (`147 ms`, `1.69 s`, `< 5 ms`) in ms.
fn printed(stdout: &str, row: &str, label: &str) -> f64 {
    let line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with(row))
        .unwrap_or_else(|| panic!("no {row:?} row in:\n{stdout}"));
    let mut words = line[line.find(label).expect("label on the row") + label.len()..]
        .split_whitespace()
        .skip_while(|w| *w == "<");
    let figure = words.next().expect("a figure after the label");
    let value: f64 = figure
        .trim_end_matches('%')
        .parse()
        .unwrap_or_else(|_| panic!("{figure:?} is not a number in {line:?}"));
    match words.next() {
        Some("s") => value * 1000.0,
        _ => value,
    }
}

#[test]
fn fig2_evdo_quick() {
    let out = run_quick(
        env!("CARGO_BIN_EXE_fig2_evdo"),
        &["Figure 2", "Mosh", "SSH", "instant keystrokes"],
    );
    // The paper's row — ~70 % instant, mean 173 ms, 0.9 % mispredicted —
    // held in bands, so it cannot drift back unnoticed (the positional
    // engine read 51 % / 408 ms / 2.8 % here).
    let instant = printed(&out, "instant keystrokes", "instant keystrokes");
    let mean = printed(&out, "Mosh", "mean");
    let mispredicted = printed(&out, "mispredictions", "mispredictions");
    assert!(instant >= 65.0, "instant keystrokes {instant} %:\n{out}");
    assert!(mean <= 250.0, "Mosh mean {mean} ms:\n{out}");
    assert!(
        mispredicted <= 1.5,
        "mispredictions {mispredicted} %:\n{out}"
    );
}

#[test]
fn fig3_collection_quick() {
    run_quick(
        env!("CARGO_BIN_EXE_fig3_collection"),
        &["Figure 3", "curve minimum"],
    );
}

#[test]
fn table_loss_quick() {
    run_quick(
        env!("CARGO_BIN_EXE_table_loss"),
        &["packet loss", "SSH", "Mosh"],
    );
}

#[test]
fn table_lte_quick() {
    run_quick(env!("CARGO_BIN_EXE_table_lte"), &["SSH", "Mosh"]);
}

#[test]
fn table_singapore_quick() {
    run_quick(
        env!("CARGO_BIN_EXE_table_singapore"),
        &["SSH", "Mosh", "instant keystrokes"],
    );
}

#[test]
fn ablation_ack_quick() {
    run_quick(env!("CARGO_BIN_EXE_ablation_ack"), &["Ablation", "acks"]);
}

#[test]
fn ablation_ctrlc_quick() {
    run_quick(
        env!("CARGO_BIN_EXE_ablation_ctrlc"),
        &["Ablation", "Control-C", "visible after"],
    );
}

#[test]
fn term_ops_quick() {
    // The bin itself asserts the skip-path diff is byte-identical
    // to the full-scan oracle on every measured pair, and that
    // `Terminal::write` leaves the same terminal as the per-action route
    // on every stream (and, in release, the >= 3x editor/mostly-idle
    // diff gates and the flood >= 3x / editor >= 1x ingest gates); a
    // divergence exits non-zero and fails this smoke.
    run_quick(
        env!("CARGO_BIN_EXE_term_ops"),
        &[
            "term_ops",
            "byte-identity-checked",
            "skip ns/diff",
            "oracle ns/diff",
            "mostly_idle",
            "snapshot-identity-checked",
            "write ns/byte",
            "scroll ns/line",
        ],
    );
}
