//! Smoke tests: every figure/table binary must run to completion in
//! `--quick` mode and print its report. This keeps the evaluation
//! binaries from silently rotting as the crates under them evolve.
//!
//! The seven paper bins' reports are deterministic, in debug and release
//! builds alike, so each must also equal its stored golden,
//! `tests/golden/<bin>.txt`, byte for byte. Regenerating a golden
//! (`cargo run --release -q --bin <bin> -- --quick >
//! crates/bench/tests/golden/<bin>.txt`) is a reviewed change that says
//! which rows moved and why. `term_ops` prints timings and has none.
//!
//! Cargo builds each `[[bin]]` target before running these tests and
//! exposes its path through `CARGO_BIN_EXE_<name>`.

use std::ops::RangeInclusive;
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

/// Asserts `stdout` equals the stored `golden` report byte for byte,
/// naming the first line that differs.
fn assert_golden(stdout: &str, golden: &str) {
    if stdout == golden {
        return;
    }
    let (n, (got, want)) = stdout
        .lines()
        .chain(std::iter::repeat("<end of output>"))
        .zip(golden.lines().chain(std::iter::repeat("<end of golden>")))
        .enumerate()
        .find(|(_, (got, want))| got != want)
        .unwrap_or((0, ("<line endings differ>", "")));
    panic!(
        "report differs from its golden at line {}:\n  got:  {got:?}\n  want: {want:?}\nstdout:\n{stdout}",
        n + 1
    );
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

/// Asserts the figure `value` of `row` lies in `band`: a band around the
/// paper's figure, or — for a row a named cause still holds off the
/// paper — the side of the paper's figure that cause puts it on, until
/// the ROADMAP direction that owns the cause narrows it.
fn within(row: &str, value: f64, band: RangeInclusive<f64>, out: &str) {
    assert!(
        band.contains(&value),
        "{row} {value} outside {band:?}:\n{out}"
    );
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
    // SSH waits one round trip for every echo: 510 / 510 ms against the
    // paper's 503 / 515 ms, held within 5 % of each.
    let ssh_median = printed(&out, "SSH", "median");
    within("SSH median (ms)", ssh_median, 478.0..=528.0, &out);
    let ssh_mean = printed(&out, "SSH", "mean");
    within("SSH mean (ms)", ssh_mean, 489.0..=541.0, &out);
    assert_golden(&out, include_str!("golden/fig2_evdo.txt"));
}

#[test]
fn fig3_collection_quick() {
    let out = run_quick(
        env!("CARGO_BIN_EXE_fig3_collection"),
        &["Figure 3", "curve minimum"],
    );
    // Minimum at 32 ms against the paper's 8 ms (the sweep's grid is 0,
    // 1, 2, 4, 8, 16, 32, 64, 100 ms): which send rule keeps it above the
    // paper's is direction 4's question, so it is held at or above 8 ms
    // and no later than 32 ms.
    let minimum = printed(&out, "curve minimum", "at");
    within("curve minimum (ms)", minimum, 8.0..=32.0, &out);
    assert_golden(&out, include_str!("golden/fig3_collection.txt"));
}

#[test]
fn table_loss_quick() {
    let out = run_quick(
        env!("CARGO_BIN_EXE_table_loss"),
        &["packet loss", "SSH", "Mosh"],
    );
    // No row sits near the paper's yet; each is held to the side its
    // named cause puts it on.
    // SSH median 3.00 s against 0.416 s: RFC 6298's 1 s RTO floor, so
    // every lost segment costs at least a second (1(b)).
    let ssh_median = printed(&out, "SSH", "median");
    within("SSH median (ms)", ssh_median, 1_000.0..=4_000.0, &out);
    // SSH mean 5.40 s against 16.8 s: the paper's tail needs long runs of
    // back-to-back timeouts, which a 250-key replay is too short to hold
    // (1(b), "then explain the mean").
    let ssh_mean = printed(&out, "SSH", "mean");
    within("SSH mean (ms)", ssh_mean, 2_000.0..=16_800.0, &out);
    // Mosh median 761 ms against 222 ms: the clock stops at the echo
    // ack, up to 300 ms after the frame that shows the key (1(c)), and
    // the rest is when the sender retransmits (4).
    let mosh_median = printed(&out, "Mosh", "median");
    within("Mosh median (ms)", mosh_median, 222.0..=1_000.0, &out);
    assert_golden(&out, include_str!("golden/table_loss.txt"));
}

#[test]
fn table_lte_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_table_lte"), &["SSH", "Mosh"]);
    // The paper's Mosh row — median < 5 ms — held in a band, so it cannot
    // drift back unnoticed (a client that held keystrokes for the
    // server's 8 ms read 1.69 s and 50 % instant here). `printed` reads
    // "< 5 ms" as 5, so the median is checked by the words it prints.
    let mosh = out
        .lines()
        .find(|l| l.trim_start().starts_with("Mosh"))
        .expect("a Mosh row");
    let median: Vec<&str> = mosh[mosh.find("median").expect("a median") + 6..]
        .split_whitespace()
        .take(3)
        .collect();
    assert_eq!(median, ["<", "5", "ms"], "Mosh median:\n{out}");
    let instant = printed(&out, "instant keystrokes", "instant keystrokes");
    assert!(instant >= 60.0, "instant keystrokes {instant} %:\n{out}");
    // SSH median 1.92 s against 5.36 s: the bulk flow keeps the link's
    // 5 s queue about a third full, so keystrokes wait behind less of it
    // than in the paper (1(d)). Held below the paper's, above 1 s.
    let ssh_median = printed(&out, "SSH", "median");
    within("SSH median (ms)", ssh_median, 1_000.0..=5_360.0, &out);
    // Mosh mean 687 ms against 1.70 s: the keystrokes that are not shown
    // at once wait behind the same bulk flow, which keeps the queue only
    // about a third full (1(d)). Held below the paper's, and above the
    // tens of ms an empty queue would give.
    let mosh_mean = printed(&out, "Mosh", "mean");
    within("Mosh mean (ms)", mosh_mean, 250.0..=1_700.0, &out);
    assert_golden(&out, include_str!("golden/table_lte.txt"));
}

#[test]
fn table_singapore_quick() {
    let out = run_quick(
        env!("CARGO_BIN_EXE_table_singapore"),
        &["SSH", "Mosh", "instant keystrokes"],
    );
    // The paper's Mosh mean over this path is 86 ms, held to at most
    // half again as Fig. 2's 173 ms is; the instant share holds the same
    // §3.2 "~70 %" floor as Fig. 2's.
    let instant = printed(&out, "instant keystrokes", "instant keystrokes");
    within("instant keystrokes (%)", instant, 65.0..=100.0, &out);
    let mean = printed(&out, "Mosh", "mean");
    within("Mosh mean (ms)", mean, 0.0..=130.0, &out);
    // SSH waits one round trip for every echo: 279 / 279 ms against the
    // paper's 273 / 272 ms, held within 5 % of each.
    let ssh_median = printed(&out, "SSH", "median");
    within("SSH median (ms)", ssh_median, 259.0..=287.0, &out);
    let ssh_mean = printed(&out, "SSH", "mean");
    within("SSH mean (ms)", ssh_mean, 258.0..=286.0, &out);
    assert_golden(&out, include_str!("golden/table_singapore.txt"));
}

#[test]
fn ablation_ack_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_ablation_ack"), &["Ablation", "acks"]);
    // The paper has "more than 99.9 %" piggybacked. This replay counts
    // 196 acks, so one lone ack is 0.5 % and the paper's figure would
    // allow none; the band allows one in a hundred.
    let piggybacked = printed(&out, "piggybacked", "=");
    within("piggybacked (%)", piggybacked, 99.0..=100.0, &out);
    assert_golden(&out, include_str!("golden/ablation_ack.txt"));
}

#[test]
fn ablation_ctrlc_quick() {
    let out = run_quick(
        env!("CARGO_BIN_EXE_ablation_ctrlc"),
        &["Ablation", "Control-C", "visible after"],
    );
    // Mosh's ^C shows within about one RTT plus a frame (it reads 80 ms);
    // SSH's waits behind the whole backlog, past its two-minute limit.
    let mosh = printed(&out, "Mosh:", "visible after");
    assert!(mosh <= 300.0, "Mosh ^C after {mosh} ms:\n{out}");
    assert!(
        out.lines()
            .any(|l| l.trim_start().starts_with("SSH:  ^C visible after >120 s")),
        "SSH row:\n{out}"
    );
    assert_golden(&out, include_str!("golden/ablation_ctrlc.txt"));
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
