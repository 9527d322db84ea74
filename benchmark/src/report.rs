//! Running workloads, printing what they measured, result files, and
//! `compare`.

use crate::host;
use crate::json::{self, Value};
use crate::metrics::{self, Probed, Stages, END_TO_END, PER_LAYER};
use crate::trace::{self, ThreadData, NO_PARENT, NO_REQ};
use crate::workloads::{self, Artifacts, Outcome, Size};
use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// The generator must not be the thing measured: a UDP run is void when
/// half its keys were typed more than this late, or the generator thread
/// was on the CPU for more than that share of the wall clock. Lateness is
/// judged at the median, not the 99th percentile the issue asked for: a
/// generator that cannot keep its schedule is late on every key, while on
/// a shared host the tail of lateness is the host's (eight busy
/// neighbours on two cores lift the p90 to 4 ms and the p99 to 9 ms and
/// leave the median under 1 ms), and a run the host disturbed is noisy,
/// not failed. All three percentiles are printed.
const GEN_LATE_P50_MS: f64 = 2.0;
const GEN_BUSY_MAX: f64 = 0.8;

pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub horizon_ms: u64,
    pub traced: bool,
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Sample counts and tables, printed above the result line.
    pub notes: String,
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .expect("every reported metric is in a table")
}

/// Sets `workload` up and runs it once: `(set-up seconds, outcome,
/// artifacts, spans)`.
fn setup_and_run(
    workload: &str,
    size: Size,
    seed: u64,
    traced: bool,
) -> (f64, Outcome, Artifacts, Vec<ThreadData>) {
    let t = Instant::now();
    let (setup_s, (out, artifacts)) = if workload == "typing_udp" {
        let world = workloads::setup_udp(size, seed);
        let setup_s = t.elapsed().as_secs_f64();
        trace::set_on(traced);
        (setup_s, workloads::run_typing_udp(world))
    } else {
        let world = workloads::setup_sim(workload, size, seed);
        let setup_s = t.elapsed().as_secs_f64();
        trace::set_on(traced);
        let run = match workload {
            "typing_sim" => workloads::run_typing_sim,
            "flood_sim" => workloads::run_flood_sim,
            _ => workloads::run_idle_fleet_sim,
        };
        (setup_s, run(world))
    };
    trace::set_on(false);
    // The world is gone by now, so the hub's workers have exited and
    // handed their spans in.
    trace::flush_thread();
    (setup_s, out, artifacts, trace::take_collected())
}

/// One set-up, torn down again: seconds.
fn setup_only(workload: &str, size: Size, seed: u64) -> f64 {
    let t = Instant::now();
    if workload == "typing_udp" {
        drop(workloads::setup_udp(size, seed));
    } else {
        drop(workloads::setup_sim(workload, size, seed));
    }
    let s = t.elapsed().as_secs_f64();
    trace::take_collected();
    s
}

fn check_generator(out: &Outcome, failures: &mut Vec<String>) -> u64 {
    if out.gen_late_ms.is_empty() {
        return 0;
    }
    let late = metrics::percentile(&out.gen_late_ms, 50.0);
    let mut bad = 0;
    if late > GEN_LATE_P50_MS {
        bad += 1;
        failures.push(format!(
            "generator ran late: p50 {late:.3} ms > {GEN_LATE_P50_MS} ms, so echo times are the generator's"
        ));
    }
    if out.gen_busy > GEN_BUSY_MAX {
        bad += 1;
        failures.push(format!(
            "generator {:.0}% busy > {:.0}%: it saturates before the server",
            out.gen_busy * 100.0,
            GEN_BUSY_MAX * 100.0
        ));
    }
    bad
}

/// The seconds that size a run: all of them untraced, a third traced.
fn run_seconds(seconds: u64, traced: bool) -> u64 {
    if traced {
        (seconds / 3).max(1)
    } else {
        seconds
    }
}

pub fn run_one(workload: &str, seed: u64, seconds: u64, traced: bool, smoke: bool) -> RunResult {
    let rss_before = host::rss_kb();
    let mut notes = String::new();
    if !traced {
        let size = workloads::size_of(workload, run_seconds(seconds, false), smoke);
        let (first, out, ..) = setup_and_run(workload, size, seed, false);
        // Set up again, three to twenty-five times in all (more when a
        // set-up is quick), so the median is steady; each is torn down
        // at once.
        let mut setups = vec![first];
        while setups.len() < 3 || (setups.len() < 25 && setups.iter().sum::<f64>() < 1.0) {
            setups.push(setup_only(workload, size, seed));
        }
        let mut failures = out.failures.clone();
        let void = check_generator(&out, &mut failures);
        let _ = writeln!(
            notes,
            "  {} sessions, {} keys ({} timed), {:.1} session-s in {:.2} wall s / {:.2} cpu s, {} set-ups",
            out.sessions,
            out.keys,
            out.response_ms.len(),
            out.session_seconds,
            out.wall_s,
            out.cpu_s,
            setups.len()
        );
        if !out.gen_late_ms.is_empty() {
            let _ = writeln!(
                notes,
                "  generator: lateness p50 {:.3} / p90 {:.3} / p99 {:.3} ms over {} keys, {:.1}% busy (loopback, not a real link)",
                metrics::percentile(&out.gen_late_ms, 50.0),
                metrics::percentile(&out.gen_late_ms, 90.0),
                metrics::percentile(&out.gen_late_ms, 99.0),
                out.gen_late_ms.len(),
                out.gen_busy * 100.0
            );
        }
        return RunResult {
            workload: workload.to_string(),
            seed,
            horizon_ms: size.horizon_ms,
            traced,
            metrics: metrics::end_to_end(&out, metrics::median(&setups), rss_before),
            attempted: out.attempted(),
            failed: out.failed() + void,
            failures,
            notes,
        };
    }

    // Traced: a third of the horizon, once plain and once with spans on;
    // the plain run is only there to price the tracing.
    let size = workloads::size_of(workload, run_seconds(seconds, true), smoke);
    let (_, plain, ..) = setup_and_run(workload, size, seed, false);
    let (_, out, artifacts, threads) = setup_and_run(workload, size, seed, true);
    let per_session_s = |o: &Outcome| o.cpu_s / o.session_seconds;
    let overhead = per_session_s(&out) / per_session_s(&plain);
    let simulated = workload != "typing_udp";
    let stages = Stages::sum(&threads, !simulated);
    let probed = Probed::run(&artifacts);
    let layer = metrics::per_layer(&out, &stages, &artifacts, &probed, simulated, overhead);
    let _ = writeln!(
        notes,
        "  traced {:.2} wall s / {:.2} cpu s against {:.2} / {:.2} plain; {} keys, {} echo samples",
        out.wall_s,
        out.cpu_s,
        plain.wall_s,
        plain.cpu_s,
        out.keys,
        out.screen_ms.len()
    );
    notes.push_str(&metrics::stage_table(&stages, out.wall_s));
    if !artifacts.budget.is_empty() {
        notes.push_str(&metrics::budget_table(
            &artifacts.budget,
            metrics::percentile(&out.screen_ms, 50.0),
        ));
    }
    match write_spans(workload, &threads) {
        Ok(path) => {
            let _ = writeln!(notes, "  spans: {}", path.display());
        }
        Err(e) => {
            let _ = writeln!(notes, "  spans not written: {e}");
        }
    }
    RunResult {
        workload: workload.to_string(),
        seed,
        horizon_ms: size.horizon_ms,
        traced,
        metrics: layer,
        attempted: out.attempted(),
        failed: out.failed(),
        failures: out.failures,
        notes,
    }
}

fn write_spans(workload: &str, threads: &[ThreadData]) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}.jsonl"));
    let mut w = BufWriter::new(std::fs::File::create(&path)?);
    for t in threads {
        for r in &t.raw {
            let parent = if r.parent == NO_PARENT {
                "null".to_string()
            } else {
                format!("\"t{}-{}\"", t.id, r.parent)
            };
            let req = if r.req == NO_REQ {
                "null".to_string()
            } else {
                format!(
                    "{{\"session\":{},\"key\":{}}}",
                    r.req >> 32,
                    r.req & 0xffff_ffff
                )
            };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"id\":\"t{}-{}\",\"parent\":{},\"thread\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
                r.stage.name(),
                t.id,
                r.seq,
                parent,
                t.name,
                r.start_ns,
                r.end_ns,
                req
            )?;
        }
    }
    w.flush()?;
    Ok(path)
}

impl RunResult {
    pub fn valid(&self) -> bool {
        self.failed == 0
    }

    pub fn print_human(&self) {
        println!(
            "== {} (seed {}, horizon {} ms{}) ==",
            self.workload,
            self.seed,
            self.horizon_ms,
            if self.traced { ", traced" } else { "" }
        );
        print!("{}", self.notes);
        for (name, value) in &self.metrics {
            println!("  {name:<34} {value:>16.4} {}", unit_of(name));
        }
        println!(
            "  {:<34} {:>16.6} ratio ({} failed of {} attempted)",
            "op_fail_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }

    /// The driver's result line.
    pub fn contract_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    unit_of(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One run in a process of its own, as the driver makes it — so that
/// set-up time and memory are a fresh process's — echoing what it prints.
/// Returns `(attempted, failed, metrics)` off its result line.
fn run_in_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
) -> Result<(u64, u64, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this program: {e}"))?;
    let mut child = Command::new(exe);
    child
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if smoke {
        child.arg("--smoke");
    }
    let output = child
        .output()
        .map_err(|e| format!("{workload} did not start: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (human, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{workload} printed no result"))?;
    println!("{human}");
    let result = json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let count = |key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    let metrics = result.get("metrics").cloned().unwrap_or(Value::Null);
    Ok((count("attempted"), count("failed"), metrics))
}

/// One workload's rows of a result file.
struct Rows {
    workload: &'static str,
    horizon_ms: u64,
    attempted: u64,
    failed: u64,
    /// Per metric, in table order: one value per run.
    values: Vec<Vec<f64>>,
}

/// `run` / `trace`: every workload, `repeat` times with seeds `seed`,
/// `seed + 1`, …; writes a result file and returns whether all passed.
pub fn run_all(
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    repeat: u64,
    out: Option<&str>,
) -> bool {
    let mut ok = true;
    let names: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut results: Vec<Rows> = Vec::new();
    for w in workloads::NAMES {
        let mut rows = Rows {
            workload: w,
            horizon_ms: workloads::size_of(w, run_seconds(seconds, traced), smoke).horizon_ms,
            attempted: 0,
            failed: 0,
            values: vec![Vec::new(); names.len()],
        };
        for k in 0..repeat {
            match run_in_child(w, seed + k, seconds, traced, smoke) {
                Ok((attempted, failed, metrics)) => {
                    rows.attempted += attempted;
                    rows.failed += failed;
                    for (name, v) in names.iter().zip(rows.values.iter_mut()) {
                        let value = metrics.get(name).and_then(|m| m.get("value"));
                        v.extend(value.and_then(Value::as_f64));
                    }
                }
                Err(e) => {
                    println!("FAILED: {e}");
                    rows.failed += 1;
                }
            }
        }
        ok &= rows.failed == 0;
        results.push(rows);
    }

    let mut body = String::from("{\n");
    for (k, v) in host::record() {
        let _ = writeln!(body, "  \"{k}\": {v},");
    }
    let _ = writeln!(
        body,
        "  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"repeat\": {repeat},"
    );
    let _ = writeln!(body, "  \"traced\": {traced},\n  \"smoke\": {smoke},");
    let horizons: Vec<String> = results
        .iter()
        .map(|r| format!("\"{}\": {}", r.workload, r.horizon_ms))
        .collect();
    let _ = writeln!(body, "  \"horizons_ms\": {{{}}},", horizons.join(", "));
    body.push_str("  \"results\": {\n");
    for (i, rows) in results.iter().enumerate() {
        let _ = writeln!(body, "    \"{}\": {{", rows.workload);
        let _ = writeln!(
            body,
            "      \"attempted\": {},\n      \"failed\": {},",
            rows.attempted, rows.failed
        );
        body.push_str("      \"metrics\": {\n");
        for (j, (name, v)) in names.iter().zip(&rows.values).enumerate() {
            let v: Vec<String> = v.iter().map(f64::to_string).collect();
            let _ = writeln!(
                body,
                "        \"{name}\": [{}]{}",
                v.join(", "),
                if j + 1 == names.len() { "" } else { "," }
            );
        }
        let _ = writeln!(
            body,
            "      }}\n    }}{}",
            if i + 1 == results.len() { "" } else { "," }
        );
    }
    body.push_str("  }\n}\n");

    let path = match out {
        Some(p) => PathBuf::from(p),
        None => out_dir().join(format!(
            "{}-{seed}.json",
            if traced { "trace" } else { "run" }
        )),
    };
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, body));
    match written {
        Ok(()) => println!("result file: {}", path.display()),
        Err(e) => {
            println!("could not write {}: {e}", path.display());
            ok = false;
        }
    }
    ok
}

// ---------------------------------------------------------------------
// describe
// ---------------------------------------------------------------------

/// The driver's command, to which it appends `--workload`, `--seed`,
/// `--seconds` and `--trace`.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The text of the repo's `BENCHMARK.json`: the tables of this package
/// in the driver's format. The package's test holds the file to it.
pub fn describe(run_seconds: u64) -> String {
    let quoted = |items: &[&str]| {
        let q: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
        q.join(", ")
    };
    let workloads: Vec<String> = workloads::NAMES
        .iter()
        .zip(workloads::WHY)
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

/// Quartiles as Python's `statistics.quantiles(v, n=4)` gives them.
fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Inter-quartile distance as a share of the median; 0 below four values.
fn spread(v: &[f64]) -> f64 {
    if v.len() < 4 {
        return 0.0;
    }
    let (q1, q3) = quartiles(v);
    let m = metrics::median(v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values_of(file: &Value, workload: &str, metric: &str) -> Vec<f64> {
    file.get("results")
        .and_then(|r| r.get(workload))
        .and_then(|w| w.get("metrics"))
        .and_then(|m| m.get(metric))
        .map(|v| v.as_arr().iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Compares two result files row by row against each metric's bound.
/// Returns false when the files are not comparable or any row is worse.
pub fn compare(a_path: &str, b_path: &str) -> bool {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            println!("compare: {e}");
            return false;
        }
    };
    for field in ["cores", "aes_backend", "horizons_ms", "smoke", "traced"] {
        if a.get(field) != b.get(field) {
            println!(
                "compare: refusing, the files differ in {field}: {:?} against {:?}",
                a.get(field),
                b.get(field)
            );
            return false;
        }
    }
    let mut ok = true;
    println!(
        "  {:<16} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "change", "bound"
    );
    for w in workloads::NAMES {
        for m in &END_TO_END {
            let (va, vb) = (values_of(&a, w, m.name), values_of(&b, w, m.name));
            if va.is_empty() || vb.is_empty() {
                println!("  {w:<16} {:<26} missing", m.name);
                ok = false;
                continue;
            }
            let (ma, mb) = (metrics::median(&va), metrics::median(&vb));
            // Positive change = b is worse.
            let worse_by = match m.better {
                "lower" => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
                _ => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
            };
            let noisy = spread(&va).max(spread(&vb)) > m.bound;
            let b_all_better = match m.better {
                "lower" => vb.iter().all(|x| va.iter().all(|y| x < y)),
                _ => vb.iter().all(|x| va.iter().all(|y| x > y)),
            };
            let verdict = if va == vb {
                // What virtual time gives for one seed: nothing moved.
                "identical"
            } else if noisy && !b_all_better {
                "unresolved (spread wider than bound)"
            } else if worse_by > m.bound {
                ok = false;
                "WORSE"
            } else if worse_by < -m.bound {
                "better"
            } else {
                "within bound"
            };
            println!(
                "  {w:<16} {:<26} {ma:>14.4} {mb:>14.4} {:>+8.2}% {:>6.0}%  {verdict}",
                m.name,
                -worse_by * 100.0 * if m.better == "lower" { -1.0 } else { 1.0 },
                m.bound * 100.0
            );
        }
        let failed = |f: &Value| {
            f.get("results")
                .and_then(|r| r.get(w))
                .and_then(|r| r.get("failed"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        if failed(&b) > failed(&a) {
            println!("  {w:<16} op_fail_ratio: more operations fail in b: WORSE");
            ok = false;
        }
    }
    ok
}
