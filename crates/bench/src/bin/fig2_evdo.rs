//! Figure 2: cumulative distribution of keystroke response times over
//! Sprint EV-DO (3G).
//!
//! Paper: Mosh median 5 ms / mean 173 ms; SSH median 503 ms / mean 515 ms;
//! ~70% of keystrokes displayed instantly; 0.9% mispredictions.

use mosh_bench::{mosh_cfg, print_row, run_mosh, run_ssh, traces};
use mosh_net::LinkConfig;

fn main() {
    let traces = traces();
    let cfg = mosh_cfg(LinkConfig::evdo_uplink(), LinkConfig::evdo_downlink());

    println!("=== Figure 2: keystroke response time CDF, EV-DO (3G) ===");
    let mosh = run_mosh(&traces, &cfg);
    let ssh = run_ssh(&traces, &cfg);

    print_row("Mosh", &mosh.latencies, "median 5 ms, mean 173 ms");
    print_row("SSH", &ssh.latencies, "median 503 ms, mean 515 ms");

    let instant_pct = 100.0 * mosh.instant as f64 / mosh.measured.max(1) as f64;
    let mispred_pct = 100.0 * mosh.mispredicted as f64 / mosh.measured.max(1) as f64;
    println!("  instant keystrokes     {instant_pct:.0}%  (paper: ~70%)");
    println!("  mispredictions         {mispred_pct:.1}%  (paper: 0.9%)");

    println!("\n  CDF (latency ms -> cumulative %):");
    let thresholds = [
        0.0, 5.0, 50.0, 100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 800.0, 1000.0,
    ];
    println!("   {:>8}  {:>8}  {:>8}", "ms", "Mosh", "SSH");
    for &t in &thresholds {
        println!(
            "   {:>8.0}  {:>7.1}%  {:>7.1}%",
            t,
            100.0 * mosh.latencies.fraction_below(t),
            100.0 * ssh.latencies.fraction_below(t)
        );
    }
}
