//! Terminal hot-path throughput: frame diffing that skips shared rows vs
//! the full-scan oracle, and one-pass ingest vs the per-action route.
//!
//! The frame differ runs on every dirty tick of every session (paper
//! §2.1/§3: the server ships *diffs between framebuffer states*), so at
//! C100K fleet scale its cost is a per-session tax. Rows are
//! copy-on-write, so a row no write touched since the receiver's frame
//! still shares that frame's storage, and `display::new_frame_into`
//! skips it on one pointer compare; every other row is compared cell by
//! cell. The full-scan differ, which compares every row's cells, is kept
//! as the byte-identical correctness oracle. This bench measures both on
//! the three workload shapes that bound the design space:
//!
//! * **flood**: full-screen rewrites every frame (`yes`, build logs) —
//!   no row is shared, so skipping can only add overhead; the gate is
//!   merely that it stays in the same ballpark.
//! * **editor**: a cursor line plus a status bar change per frame while
//!   the other ~22 rows stay still — the interactive shape Mosh exists
//!   for.
//! * **mostly-idle**: the C100K fleet shape — almost every tick diffs a
//!   frame against an identical predecessor (echo-ack-only traffic);
//!   the skip path proves identity in O(rows) pointer checks.
//!
//! Every measured pair is first checked **byte-identical** between the
//! skip path and the oracle — a fast-but-wrong diff fails the bin, not
//! just CI. The enforced perf gates are ratios (wall-clock varies by
//! machine): the skip path must be ≥ 3× the oracle on the editor and
//! mostly-idle traces. Results are printed, not written: the bin exists
//! for its gates, and `benchmark/` reports the terminal's per-stage costs
//! on the named workloads.

use mosh_terminal::{display, Framebuffer, Terminal};
use std::time::Instant;

const WIDTH: usize = 80;
const HEIGHT: usize = 24;

/// The byte stream behind one trace: the application's writes, tick by
/// tick.
type Stream = Vec<Vec<Vec<u8>>>;

/// One trace: consecutive framebuffer snapshots sharing row lineage
/// (each is a COW clone of the live emulator frame, exactly like the
/// sender's retained diff sources in `Transport`).
fn snapshots(stream: &Stream) -> Vec<Framebuffer> {
    let mut term = Terminal::new(WIDTH, HEIGHT);
    let mut frames = Vec::with_capacity(stream.len() + 1);
    frames.push(term.frame().clone());
    for tick in stream {
        for write in tick {
            term.write(write);
        }
        frames.push(term.frame().clone());
    }
    frames
}

/// Full-screen rewrites: scrolling flood output, every row rewritten.
fn stream_flood(ticks: usize) -> Stream {
    (0..ticks)
        .map(|i| {
            (0..HEIGHT)
                .map(|line| {
                    format!(
                        "\r\nmake[{}]: target {:>6} of {:>6} ok",
                        i % 4,
                        i * HEIGHT + line,
                        ticks * HEIGHT
                    )
                    .into_bytes()
                })
                .collect()
        })
        .collect()
}

/// An editing session: one buffer line and the status bar change per
/// frame; everything else holds still.
fn stream_editor(ticks: usize) -> Stream {
    let mut term_init = String::new();
    for row in 1..HEIGHT {
        term_init.push_str(&format!("\x1b[{row};1Hfn line_{row}() {{ body(); }}"));
    }
    (0..ticks)
        .map(|i| {
            let row = 2 + (i % (HEIGHT - 4));
            let edit = format!("\x1b[{};9H// edited pass {:<6}", row, i);
            let status = format!(
                "\x1b[{HEIGHT};1H\x1b[7m -- INSERT -- col {:<5}\x1b[0m",
                i % WIDTH
            );
            let mut tick = vec![edit.into_bytes(), status.into_bytes()];
            if i == 0 {
                tick.insert(0, term_init.clone().into_bytes());
            }
            tick
        })
        .collect()
}

/// The fleet shape: a prompt sits still; one keystroke lands every 50th
/// tick, every other tick's frame is identical to its predecessor.
fn stream_mostly_idle(ticks: usize) -> Stream {
    (0..ticks)
        .map(|i| {
            if i == 0 {
                vec![b"$ ".to_vec()]
            } else if i % 50 == 0 {
                vec![vec![b'a' + ((i / 50) % 26) as u8]]
            } else {
                // No writes — the snapshot pair is identical.
                Vec::new()
            }
        })
        .collect()
}

struct TraceResult {
    name: &'static str,
    skip_ns: f64,
    full_ns: f64,
    speedup: f64,
    skip_fps: f64,
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
    // Correctness first: the skip path's diff must be byte-identical to
    // the full-scan oracle on every pair before its speed means anything.
    let mut scratch = String::new();
    for pair in frames.windows(2) {
        display::new_frame_into(true, &pair[0], &pair[1], &mut scratch);
        let oracle = display::new_frame_full_scan(true, &pair[0], &pair[1]);
        assert_eq!(
            scratch, oracle,
            "{name}: skip diff diverged from the full-scan oracle"
        );
    }

    let skip_ns = ns_per_diff(frames, window_ms, |a, b| {
        display::new_frame_into(true, a, b, &mut scratch);
    });
    let full_ns = ns_per_diff(frames, window_ms, |a, b| {
        let _ = display::new_frame_full_scan(true, a, b);
    });
    TraceResult {
        name,
        skip_ns,
        full_ns,
        speedup: full_ns / skip_ns,
        skip_fps: 1e9 / skip_ns,
    }
}

struct IngestResult {
    name: &'static str,
    bytes: usize,
    write_ns: f64,
    per_action_ns: f64,
    speedup: f64,
}

/// The route `Terminal::write` replaced: collect the chunk's actions,
/// then apply each.
fn write_per_action(term: &mut Terminal, bytes: &[u8]) {
    let actions = term.parser_mut().input(bytes);
    for action in &actions {
        term.perform(action);
    }
}

/// Feeds the whole stream to a fresh terminal.
fn ingest(stream: &Stream, mut write: impl FnMut(&mut Terminal, &[u8])) -> Terminal {
    let mut term = Terminal::new(WIDTH, HEIGHT);
    for bytes in stream.iter().flatten() {
        write(&mut term, bytes);
    }
    term
}

/// Nanoseconds per byte ingesting `stream` into a fresh terminal,
/// repeated until `window_ms` of wall clock has elapsed. (On the nine
/// bytes of the mostly-idle stream this is the cost of the fresh
/// terminal, on both routes alike; the row is there for completeness.)
fn ns_per_byte(
    stream: &Stream,
    bytes: usize,
    window_ms: u64,
    mut write: impl FnMut(&mut Terminal, &[u8]),
) -> f64 {
    std::hint::black_box(ingest(stream, &mut write));
    let start = Instant::now();
    let mut sweeps = 0u64;
    loop {
        std::hint::black_box(ingest(std::hint::black_box(stream), &mut write));
        sweeps += 1;
        let elapsed = start.elapsed();
        if elapsed.as_millis() as u64 >= window_ms {
            return elapsed.as_nanos() as f64 / (sweeps as f64 * bytes as f64);
        }
    }
}

fn run_ingest(name: &'static str, stream: &Stream, window_ms: u64) -> IngestResult {
    // Correctness first: both routes must leave the same terminal —
    // screen, scrollback, interpreter and parser state.
    assert_eq!(
        ingest(stream, Terminal::write).snapshot_bytes(),
        ingest(stream, write_per_action).snapshot_bytes(),
        "{name}: write diverged from the per-action route"
    );
    let bytes = stream.iter().flatten().map(Vec::len).sum();
    let write_ns = ns_per_byte(stream, bytes, window_ms, Terminal::write);
    let per_action_ns = ns_per_byte(stream, bytes, window_ms, write_per_action);
    IngestResult {
        name,
        bytes,
        write_ns,
        per_action_ns,
        speedup: per_action_ns / write_ns,
    }
}

/// Nanoseconds per short line written at the bottom margin of a terminal
/// whose scrollback is already full — the steady state of a flood, where
/// each line retires the top row into history and the oldest history row
/// comes back as the blank bottom row. A figure, not a gate: there is no
/// second route to hold it against.
fn scroll_ns_per_line(window_ms: u64) -> f64 {
    let mut term = Terminal::new(WIDTH, HEIGHT);
    let fill = HEIGHT + term.frame().scrollback_limit();
    for _ in 0..fill {
        term.write(b"\r\ny");
    }
    let start = Instant::now();
    let mut lines = 0u64;
    loop {
        for _ in 0..1000 {
            term.write(std::hint::black_box(b"\r\ny"));
        }
        lines += 1000;
        let elapsed = start.elapsed();
        if elapsed.as_millis() as u64 >= window_ms {
            std::hint::black_box(&term);
            return elapsed.as_nanos() as f64 / lines as f64;
        }
    }
}

fn main() {
    let quick = mosh_bench::quick();
    let (ticks, window_ms): (usize, u64) = if quick { (96, 60) } else { (400, 400) };

    println!("=== term_ops: frame diffing that skips shared rows vs the full-scan oracle ===");
    println!("  ({WIDTH}x{HEIGHT} screen, {ticks} ticks per trace, {window_ms} ms per measurement; every pair byte-identity-checked)\n");

    let streams = [
        ("flood", stream_flood(ticks)),
        ("editor", stream_editor(ticks)),
        ("mostly_idle", stream_mostly_idle(ticks)),
    ];
    let traces = streams
        .each_ref()
        .map(|(name, stream)| run_trace(name, &snapshots(stream), window_ms));

    println!(
        "  {:>12}  {:>14}  {:>14}  {:>9}  {:>14}",
        "trace", "skip ns/diff", "oracle ns/diff", "speedup", "skip fr/s"
    );
    for t in &traces {
        println!(
            "  {:>12}  {:>14.0}  {:>14.0}  {:>8.1}x  {:>14.0}",
            t.name, t.skip_ns, t.full_ns, t.speedup, t.skip_fps
        );
    }

    // The gates: interactive and idle shapes must be at least 3x the
    // oracle; the flood shape must not pathologically regress. Only
    // meaningful in release — a debug build runs the differ's full
    // convergence `debug_assert` inside every skip-path diff, which is
    // exactly the scan the fast path exists to skip.
    if cfg!(debug_assertions) {
        println!("\n  (debug build: byte-identity checked, perf gates skipped)");
    } else {
        for t in &traces[1..] {
            assert!(
                t.speedup >= 3.0,
                "{}: the skip diff must be >= 3x the full-scan oracle (got {:.1}x)",
                t.name,
                t.speedup
            );
        }
        assert!(
            traces[0].speedup >= 0.5,
            "flood: the skip diff must stay within 2x of the oracle (got {:.2}x)",
            traces[0].speedup
        );
    }

    println!("\n=== term_ops: ingest, Terminal::write vs the per-action route ===");
    println!("  (the byte streams behind the traces above; resulting terminals snapshot-identity-checked)\n");
    let ingests = streams
        .each_ref()
        .map(|(name, stream)| run_ingest(name, stream, window_ms));
    println!(
        "  {:>12}  {:>9}  {:>13}  {:>18}  {:>9}",
        "stream", "bytes", "write ns/byte", "per-action ns/byte", "speedup"
    );
    for r in &ingests {
        println!(
            "  {:>12}  {:>9}  {:>13.1}  {:>18.1}  {:>8.1}x",
            r.name, r.bytes, r.write_ns, r.per_action_ns, r.speedup
        );
    }
    let scroll_ns = scroll_ns_per_line(window_ms);
    println!(
        "  {:>12}  {:>9}  {:>13.1}  (scroll ns/line: one short line at the bottom margin, scrollback full)",
        "scroll", "-", scroll_ns
    );
    // Release only, like the diff gates: a debug build's per-byte costs
    // are bounds checks and unoptimised iterators on both routes.
    if cfg!(debug_assertions) {
        println!("\n  (debug build: snapshot identity checked, ingest gates skipped)");
    } else {
        assert!(
            ingests[0].speedup >= 3.0,
            "flood: write must be >= 3x the per-action route (got {:.1}x)",
            ingests[0].speedup
        );
        assert!(
            ingests[1].speedup >= 1.0,
            "editor: the escape-heavy stream must not pay for the run path (got {:.2}x)",
            ingests[1].speedup
        );
    }

    println!(
        "\ndiff cost tracks the rows written, not screen size: editor {:.0}x, mostly-idle {:.0}x over full scans",
        traces[1].speedup, traces[2].speedup
    );
}
