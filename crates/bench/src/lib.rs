//! Shared helpers for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (§4). The helpers here run trace replays over a
//! configured network and print paper-vs-measured rows.

mod send_timer;
pub use send_timer::SendTimer;

use mosh_net::LinkConfig;
use mosh_prediction::DisplayPreference;
use mosh_trace::{
    replay_mosh_many, replay_ssh_many, Latencies, ReplayConfig, ReplayOutcome, UserTrace,
};

/// True when the binary was invoked with `--quick`: a smoke-sized run
/// (a small trace, a short horizon, a short measurement window).
pub fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Which traces to replay: the full six users, or a quick subset under
/// [`quick`].
pub fn traces() -> Vec<UserTrace> {
    if quick() {
        vec![mosh_trace::small_trace(250)]
    } else {
        mosh_trace::six_users()
    }
}

/// Aggregated outcome of replaying a set of traces through one system.
pub struct SystemResult {
    /// All latencies pooled across users.
    pub latencies: Latencies,
    /// Total instantly-displayed keystrokes.
    pub instant: u64,
    /// Total measured keystrokes.
    pub measured: u64,
    /// Total mispredictions.
    pub mispredicted: u64,
}

/// Replays every trace through Mosh — all users concurrently on one
/// multi-session hub — and pools the results (identical to dedicated
/// per-user loops, by the hub's schedule-identity guarantee).
pub fn run_mosh(traces: &[UserTrace], cfg: &ReplayConfig) -> SystemResult {
    pool(replay_mosh_many(traces, cfg).into_iter())
}

/// Replays every trace through SSH on one multi-session hub and pools
/// the results.
pub fn run_ssh(traces: &[UserTrace], cfg: &ReplayConfig) -> SystemResult {
    pool(replay_ssh_many(traces, cfg).into_iter())
}

fn pool(outcomes: impl Iterator<Item = ReplayOutcome>) -> SystemResult {
    let mut latencies = Latencies::new();
    let mut instant = 0;
    let mut measured = 0;
    let mut mispredicted = 0;
    for o in outcomes {
        latencies.extend(&o.latencies);
        instant += o.instant;
        measured += o.measured;
        mispredicted += o.mispredicted;
    }
    SystemResult {
        latencies,
        instant,
        measured,
        mispredicted,
    }
}

/// Formats a millisecond value the way the paper does (sub-5 ms values
/// print as "< 5 ms").
pub fn fmt_ms(ms: f64) -> String {
    if ms < 5.0 {
        "< 5 ms".to_string()
    } else if ms >= 1000.0 {
        format!("{:.2} s", ms / 1000.0)
    } else {
        format!("{:.0} ms", ms)
    }
}

/// Prints one system's median/mean/σ row next to the paper's numbers.
pub fn print_row(system: &str, l: &Latencies, paper: &str) {
    println!(
        "  {system:<22} median {:>9}   mean {:>9}   σ {:>9}   (paper: {paper})",
        fmt_ms(l.median()),
        fmt_ms(l.mean()),
        fmt_ms(l.stddev()),
    );
}

/// The standard Mosh replay configuration over a pair of links. Batch
/// replays spread users over one hub shard per available core: per-user
/// results are identical at every thread count — the sharded hub is
/// byte-identical to the single-threaded one (`hub_identity`) — so the
/// core count only buys wall clock.
pub fn mosh_cfg(up: LinkConfig, down: LinkConfig) -> ReplayConfig {
    ReplayConfig {
        up,
        down,
        seed: 2012,
        preference: DisplayPreference::Adaptive,
        mindelay: None,
        bulk_download: false,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// The `p`-th percentile of an unsorted sample set (nearest-rank), for
/// the latency distributions the scaling benches report. Returns 0 for
/// an empty set.
pub fn percentile_us(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

/// Merges top-level `(key, raw JSON value)` pairs into the JSON object
/// at `path`, replacing keys that already exist and appending new ones —
/// so two bench binaries (`hub_scaling` and `hub_c100k`) can share one
/// trajectory artifact without clobbering each other's sections. A
/// missing or unparsable file starts from an empty object.
pub fn merge_bench_json(path: &std::path::Path, updates: &[(&str, String)]) -> std::io::Result<()> {
    let mut pairs = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| split_top_level(&s))
        .unwrap_or_default();
    for (key, value) in updates {
        match pairs.iter_mut().find(|(k, _)| k == key) {
            Some(pair) => pair.1 = value.clone(),
            None => pairs.push((key.to_string(), value.clone())),
        }
    }
    let mut out = String::from("{\n");
    for (i, (key, value)) in pairs.iter().enumerate() {
        let sep = if i + 1 == pairs.len() { "" } else { "," };
        out.push_str(&format!("  \"{key}\": {value}{sep}\n"));
    }
    out.push_str("}\n");
    std::fs::write(path, out)
}

/// Splits a JSON object's top level into `(key, raw value)` pairs —
/// string-aware and depth-scanning, which is all our own bench artifacts
/// need (no dependency on a JSON crate).
fn split_top_level(json: &str) -> Option<Vec<(String, String)>> {
    let inner = json.trim().strip_prefix('{')?.strip_suffix('}')?;
    let bytes = inner.as_bytes();
    let (mut depth, mut in_str, mut esc) = (0i32, false, false);
    let mut items = Vec::new();
    let mut start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if esc {
            esc = false;
            continue;
        }
        match b {
            b'\\' if in_str => esc = true,
            b'"' => in_str = !in_str,
            b'{' | b'[' if !in_str => depth += 1,
            b'}' | b']' if !in_str => depth -= 1,
            b',' if !in_str && depth == 0 => {
                items.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 || in_str {
        return None;
    }
    if !inner[start..].trim().is_empty() {
        items.push(&inner[start..]);
    }
    let mut pairs = Vec::new();
    for item in items {
        let rest = item.trim().strip_prefix('"')?;
        let end = rest.find('"')?;
        let value = rest[end + 1..].trim_start().strip_prefix(':')?;
        pairs.push((rest[..end].to_string(), value.trim().to_string()));
    }
    Some(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_us(&mut s, 50.0), 50.0);
        assert_eq!(percentile_us(&mut s, 99.0), 99.0);
        assert_eq!(percentile_us(&mut s, 100.0), 100.0);
        assert_eq!(percentile_us(&mut [], 50.0), 0.0);
        assert_eq!(percentile_us(&mut [7.0], 99.0), 7.0);
    }

    #[test]
    fn merge_preserves_other_sections() {
        let dir = std::env::temp_dir().join(format!("mosh_bench_merge_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("merge.json");
        let _ = std::fs::remove_file(&path);

        merge_bench_json(&path, &[("bench", "\"hub_scaling\"".into())]).unwrap();
        merge_bench_json(
            &path,
            &[(
                "c100k",
                "{\n    \"results\": [1, 2],\n    \"note\": \"a, b\"\n  }".into(),
            )],
        )
        .unwrap();
        // Re-emitting one section leaves the other byte-intact.
        merge_bench_json(&path, &[("bench", "\"hub_scaling\"".into())]).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let pairs = split_top_level(&text).unwrap();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, "bench");
        assert_eq!(pairs[0].1, "\"hub_scaling\"");
        assert_eq!(pairs[1].0, "c100k");
        assert!(pairs[1].1.contains("\"note\": \"a, b\""));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn split_rejects_malformed_json() {
        assert!(split_top_level("{\"a\": [1, 2}").is_none());
        assert!(split_top_level("not json").is_none());
        assert_eq!(split_top_level("{}").unwrap().len(), 0);
    }
}
