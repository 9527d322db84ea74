//! Shared helpers for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (§4). The helpers here run trace replays over a
//! configured network and print paper-vs-measured rows.

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
