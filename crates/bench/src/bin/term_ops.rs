//! Terminal hot-path throughput: damage-tracked frame diffing vs the
//! full-scan oracle.
//!
//! The frame differ runs on every dirty tick of every session (paper
//! §2.1/§3: the server ships *diffs between framebuffer states*), so at
//! C100K fleet scale its cost is a per-session tax. PR 10 made diffing
//! proportional to **damage** — per-row generation counters plus
//! per-cell dirty ranges recorded by every emulator mutation — with the
//! original full-scan differ kept as the byte-identical correctness
//! oracle. This bench measures both on the three workload shapes that
//! bound the design space:
//!
//! * **flood**: full-screen rewrites every frame (`yes`, build logs) —
//!   everything is damaged, so damage tracking can only add overhead;
//!   the gate is merely that it stays in the same ballpark.
//! * **editor**: a cursor line plus a status bar change per frame while
//!   the other ~22 rows stay still — the interactive shape Mosh exists
//!   for.
//! * **mostly-idle**: the C100K fleet shape — almost every tick diffs a
//!   frame against an identical predecessor (echo-ack-only traffic);
//!   the damage path proves identity in O(rows) pointer checks without
//!   even cloning the differ simulation.
//!
//! Every measured pair is first checked **byte-identical** between the
//! damage path and the oracle — a fast-but-wrong diff fails the bin,
//! not just CI. The enforced perf gates are ratios (wall-clock varies
//! by machine): damage-tracked diffing must be ≥ 3× the oracle on the
//! editor and mostly-idle traces. Results land in `BENCH_term.json`.

use mosh_bench::merge_bench_json;
use mosh_terminal::{display, Framebuffer, Terminal};
use std::time::Instant;

const WIDTH: usize = 80;
const HEIGHT: usize = 24;

/// One trace: consecutive framebuffer snapshots sharing row lineage
/// (each is a COW clone of the live emulator frame, exactly like the
/// sender's retained diff sources in `Transport`).
fn snapshots(ticks: usize, mut step: impl FnMut(usize, &mut Terminal)) -> Vec<Framebuffer> {
    let mut term = Terminal::new(WIDTH, HEIGHT);
    let mut frames = Vec::with_capacity(ticks + 1);
    frames.push(term.frame().clone());
    for i in 0..ticks {
        step(i, &mut term);
        frames.push(term.frame().clone());
    }
    frames
}

/// Full-screen rewrites: scrolling flood output, every row damaged.
fn trace_flood(ticks: usize) -> Vec<Framebuffer> {
    snapshots(ticks, |i, term| {
        for line in 0..HEIGHT {
            let text = format!(
                "\r\nmake[{}]: target {:>6} of {:>6} ok",
                i % 4,
                i * HEIGHT + line,
                ticks * HEIGHT
            );
            term.write(text.as_bytes());
        }
    })
}

/// An editing session: one buffer line and the status bar change per
/// frame; everything else holds still.
fn trace_editor(ticks: usize) -> Vec<Framebuffer> {
    let mut term_init = String::new();
    for row in 1..HEIGHT {
        term_init.push_str(&format!("\x1b[{row};1Hfn line_{row}() {{ body(); }}"));
    }
    snapshots(ticks, move |i, term| {
        if i == 0 {
            term.write(term_init.as_bytes());
        }
        let row = 2 + (i % (HEIGHT - 4));
        let edit = format!("\x1b[{};9H// edited pass {:<6}", row, i);
        let status = format!(
            "\x1b[{HEIGHT};1H\x1b[7m -- INSERT -- col {:<5}\x1b[0m",
            i % WIDTH
        );
        term.write(edit.as_bytes());
        term.write(status.as_bytes());
    })
}

/// The fleet shape: a prompt sits still; one keystroke lands every 50th
/// tick, every other tick's frame is identical to its predecessor.
fn trace_mostly_idle(ticks: usize) -> Vec<Framebuffer> {
    snapshots(ticks, |i, term| {
        if i == 0 {
            term.write(b"$ ");
        } else if i % 50 == 0 {
            let byte = b'a' + ((i / 50) % 26) as u8;
            term.write(&[byte]);
        }
        // All other ticks: no writes — the snapshot pair is identical.
    })
}

struct TraceResult {
    name: &'static str,
    damage_ns: f64,
    full_ns: f64,
    speedup: f64,
    damage_fps: f64,
    pairs: usize,
}

/// Nanoseconds per diff sweeping all consecutive pairs of `frames`,
/// repeated until `window_ms` of wall clock has elapsed.
fn ns_per_diff(
    frames: &[Framebuffer],
    window_ms: u64,
    mut diff: impl FnMut(&Framebuffer, &Framebuffer),
) -> f64 {
    // Warm-up pass (faults in buffers, stabilizes the scratch string).
    for pair in frames.windows(2) {
        diff(&pair[0], &pair[1]);
    }
    let start = Instant::now();
    let mut diffs = 0u64;
    loop {
        for pair in frames.windows(2) {
            diff(&pair[0], &pair[1]);
        }
        diffs += (frames.len() - 1) as u64;
        let elapsed = start.elapsed();
        if elapsed.as_millis() as u64 >= window_ms {
            return elapsed.as_nanos() as f64 / diffs as f64;
        }
    }
}

fn run_trace(name: &'static str, frames: &[Framebuffer], window_ms: u64) -> TraceResult {
    // Correctness first: the damage-tracked diff must be byte-identical
    // to the full-scan oracle on every pair before its speed means
    // anything.
    let mut scratch = String::new();
    for pair in frames.windows(2) {
        display::new_frame_into(true, &pair[0], &pair[1], &mut scratch);
        let oracle = display::new_frame_full_scan(true, &pair[0], &pair[1]);
        assert_eq!(
            scratch, oracle,
            "{name}: damage diff diverged from the full-scan oracle"
        );
    }

    let damage_ns = ns_per_diff(frames, window_ms, |a, b| {
        display::new_frame_into(true, a, b, &mut scratch);
    });
    let full_ns = ns_per_diff(frames, window_ms, |a, b| {
        let _ = display::new_frame_full_scan(true, a, b);
    });
    TraceResult {
        name,
        damage_ns,
        full_ns,
        speedup: full_ns / damage_ns,
        damage_fps: 1e9 / damage_ns,
        pairs: frames.len() - 1,
    }
}

fn main() {
    let quick = mosh_bench::quick();
    let (ticks, window_ms): (usize, u64) = if quick { (96, 60) } else { (400, 400) };

    println!("=== term_ops: damage-tracked frame diffing vs the full-scan oracle ===");
    println!("  ({WIDTH}x{HEIGHT} screen, {ticks} ticks per trace, {window_ms} ms per measurement; every pair byte-identity-checked)\n");

    let traces = [
        run_trace("flood", &trace_flood(ticks), window_ms),
        run_trace("editor", &trace_editor(ticks), window_ms),
        run_trace("mostly_idle", &trace_mostly_idle(ticks), window_ms),
    ];

    println!(
        "  {:>12}  {:>14}  {:>14}  {:>9}  {:>14}",
        "trace", "damage ns/diff", "oracle ns/diff", "speedup", "damage fr/s"
    );
    for t in &traces {
        println!(
            "  {:>12}  {:>14.0}  {:>14.0}  {:>8.1}x  {:>14.0}",
            t.name, t.damage_ns, t.full_ns, t.speedup, t.damage_fps
        );
    }

    // The gates: interactive and idle shapes must repay the bookkeeping
    // at least 3x; the flood shape must not pathologically regress. Only
    // meaningful in release — a debug build runs the differ's full
    // convergence `debug_assert` inside every damage-path diff, which is
    // exactly the scan the fast path exists to skip.
    if cfg!(debug_assertions) {
        println!("\n  (debug build: byte-identity checked, perf gates skipped)");
    } else {
        for t in &traces[1..] {
            assert!(
                t.speedup >= 3.0,
                "{}: damage-tracked diff must be >= 3x the full-scan oracle (got {:.1}x)",
                t.name,
                t.speedup
            );
        }
        assert!(
            traces[0].speedup >= 0.5,
            "flood: damage tracking must stay within 2x of the oracle (got {:.2}x)",
            traces[0].speedup
        );
    }

    let mut sections = Vec::new();
    for t in &traces {
        sections.push((
            t.name,
            format!(
                "{{\n    \"pairs\": {},\n    \"damage_ns_per_diff\": {:.1},\n    \
                 \"full_scan_ns_per_diff\": {:.1},\n    \"speedup\": {:.2},\n    \
                 \"damage_frames_per_sec\": {:.0}\n  }}",
                t.pairs, t.damage_ns, t.full_ns, t.speedup, t.damage_fps
            ),
        ));
    }
    let path = std::path::Path::new("BENCH_term.json");
    match merge_bench_json(path, &sections) {
        Ok(()) => println!("\nwrote flood/editor/mostly_idle sections to BENCH_term.json"),
        Err(e) => println!("\ncould not write BENCH_term.json: {e}"),
    }

    println!(
        "diff cost tracks damage, not screen size: editor {:.0}x, mostly-idle {:.0}x over full scans",
        traces[1].speedup, traces[2].speedup
    );
}
