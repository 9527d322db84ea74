//! Every metric the benchmark reports: its name, unit and direction
//! (which `BENCHMARK.json` repeats, and the smoke test holds the two
//! together), and how it is computed from what a run measured.

use crate::adapter;
use crate::budget::{self, KeyPath};
use crate::trace::{Agg, Stage, ThreadData, STAGES};
use crate::workloads::{Artifacts, Outcome};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median a change may lose.
    pub bound: f64,
}

/// The end-to-end metrics. Every workload reports every one of them, so
/// each is defined so that it means something, and is never zero, on all
/// four; what each means where is in `README.md`. A bound is about three
/// times the widest spread seen between ten seeds on the reference box.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "session_s_per_cpu_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "key_response_ms_mean",
        unit: "ms",
        better: "lower",
        bound: 0.1,
    },
    EndToEnd {
        name: "wire_bytes_per_key",
        unit: "bytes",
        better: "lower",
        bound: 0.12,
    },
    EndToEnd {
        name: "rss_kb_per_session",
        unit: "kB",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics of the traced run. A metric that does not apply
/// to a workload (the UDP-only queue and path metrics on a simulation,
/// say) reads 0 there; `README.md` says which apply where and which
/// end-to-end metric each should move.
pub const PER_LAYER: [PerLayer; 77] = [
    pl("net.recv_ns_per_dgram", "ns", "lower"),
    pl("net.send_ns_per_dgram", "ns", "lower"),
    pl("net.dgrams_per_drain", "count", "higher"),
    pl("net.allocs_per_dgram", "count", "lower"),
    pl("net.idle_wakeups_per_s", "1/s", "lower"),
    pl("net.ingress_us_p50", "us", "lower"),
    pl("net.egress_us_p50", "us", "lower"),
    pl("net.feed_overflow", "count", "lower"),
    pl("net.feed_dropped", "count", "lower"),
    pl("net.feed_bounced", "count", "lower"),
    pl("net.sim_ns_per_event", "ns", "lower"),
    pl("crypto.open_ns_per_dgram", "ns", "lower"),
    pl("crypto.seal_ns_per_dgram", "ns", "lower"),
    pl("crypto.open_ns_per_byte", "ns", "lower"),
    pl("crypto.seal_ns_per_byte", "ns", "lower"),
    pl("crypto.opens_per_delivery", "ratio", "lower"),
    pl("crypto.rejected", "count", "lower"),
    pl("ssp.recv_ns_per_dgram", "ns", "lower"),
    pl("ssp.encode_ns_per_dgram", "ns", "lower"),
    pl("ssp.dgrams_per_key", "count", "lower"),
    pl("ssp.bytes_per_dgram_p50", "bytes", "lower"),
    pl("ssp.pure_acks", "count", "lower"),
    pl("ssp.heartbeats", "count", "lower"),
    pl("ssp.piggyback_ratio", "ratio", "higher"),
    pl("ssp.fragments_per_instruction", "count", "lower"),
    pl("ssp.retransmits", "count", "lower"),
    pl("ssp.wire_per_app_byte", "ratio", "lower"),
    pl("terminal.act_ns_per_byte", "ns", "lower"),
    pl("terminal.diff_ns_per_frame", "ns", "lower"),
    pl("terminal.diff_bytes_per_frame", "bytes", "lower"),
    pl("terminal.apply_ns_per_diff", "ns", "lower"),
    pl("states.diff_ns_per_call", "ns", "lower"),
    pl("states.user_diff_ns_per_call", "ns", "lower"),
    pl("states.apply_ns_per_call", "ns", "lower"),
    pl("prediction.keystroke_ns", "ns", "lower"),
    pl("prediction.display_ns", "ns", "lower"),
    pl("prediction.instant_ratio", "ratio", "higher"),
    pl("prediction.mispredict_ratio", "ratio", "lower"),
    pl("core.server_tick_ns_per_key", "ns", "lower"),
    pl("core.client_tick_ns_per_key", "ns", "lower"),
    pl("core.server_receive_ns_per_dgram", "ns", "lower"),
    pl("core.tick_residual_ns", "ns", "lower"),
    pl("core.ticks_per_key", "count", "lower"),
    pl("core.empty_tick_ratio", "ratio", "lower"),
    pl("core.client_hold_ms_p50", "ms", "lower"),
    pl("core.server_hold_ms_p50", "ms", "lower"),
    pl("core.echo_ms_p50", "ms", "lower"),
    pl("core.response_ms_p95", "ms", "lower"),
    pl("core.echo_ms_tail", "ms", "lower"),
    pl("core.echo_tail_percentile", "%", "higher"),
    pl("core.echo_samples", "count", "higher"),
    pl("core.gen_late_ms_p99", "ms", "lower"),
    pl("core.gen_busy_ratio", "ratio", "lower"),
    pl("core.server_cpu_ms_per_s", "ms/s", "lower"),
    pl("hub.pump_self_ns_per_wakeup", "ns", "lower"),
    pl("hub.wakeups_per_session_s", "1/s", "lower"),
    pl("hub.lease_ns_per_session", "ns", "lower"),
    pl("hub.worker_hop_us_p50", "us", "lower"),
    pl("hub.wakeup_to_send_us_p50", "us", "lower"),
    pl("hub.wakeup_to_send_us_p99", "us", "lower"),
    pl("hub.snapshot_ns_per_session", "ns", "lower"),
    pl("hub.snapshot_bytes_per_session", "bytes", "lower"),
    pl("hub.live_bytes_per_idle_server", "bytes", "lower"),
    pl("app.input_ns_per_key", "ns", "lower"),
    pl("app.poll_ns_per_call", "ns", "lower"),
    pl("app.mb_per_cpu_s", "MB/s", "higher"),
    pl("share.net", "ratio", "lower"),
    pl("share.core", "ratio", "lower"),
    pl("share.hub", "ratio", "lower"),
    pl("share.app", "ratio", "lower"),
    pl("share.prediction", "ratio", "lower"),
    pl("share.bench", "ratio", "lower"),
    pl("share.unattributed", "ratio", "lower"),
    pl("share.crypto_in_core", "ratio", "lower"),
    pl("share.terminal_in_core", "ratio", "lower"),
    pl("share.ssp_states_in_core", "ratio", "lower"),
    pl("trace.overhead_ratio", "ratio", "lower"),
];

// ---------------------------------------------------------------------
// Small statistics
// ---------------------------------------------------------------------

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The `p`-th percentile (nearest rank) of `v`; 0 when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile of `v` that still has ten samples beyond it,
/// and its value.
pub fn supported_tail(v: &[f64]) -> (f64, f64) {
    let n = v.len();
    if n < 20 {
        return (50.0, median(v));
    }
    let pct = 100.0 * (n - 10) as f64 / n as f64;
    (pct, percentile(v, pct))
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

// ---------------------------------------------------------------------
// End-to-end
// ---------------------------------------------------------------------

/// `(name, value)` for every end-to-end metric, in table order.
pub fn end_to_end(out: &Outcome, setup_s: f64, rss_before_kb: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("setup_s", setup_s),
        ("session_s_per_cpu_s", ratio(out.session_seconds, out.cpu_s)),
        ("key_response_ms_mean", mean(&out.response_ms)),
        (
            "wire_bytes_per_key",
            ratio(out.wire_bytes() as f64, out.keys as f64),
        ),
        (
            "rss_kb_per_session",
            ratio(out.rss_kb - rss_before_kb, out.sessions as f64),
        ),
    ]
}

// ---------------------------------------------------------------------
// Per-layer
// ---------------------------------------------------------------------

/// The spans of every thread, summed per stage.
pub struct Stages {
    pub agg: [Agg; STAGES.len()],
    pub hops_us: Vec<f64>,
    /// Self time of the driving threads' spans (what the wall clock of
    /// the timed section is compared with).
    pub driver_ns: u64,
    /// With the hub on worker threads: their on-CPU time that no span
    /// covers, which is the hub's own work (router, timer wheel, lease
    /// sweep). The pumping thread's `hub.pump` self time is then a wait.
    pub worker_self_ns: Option<u64>,
}

impl Stages {
    /// `blocking_waits`: `net.wait` sleeps in the kernel (real sockets)
    /// and so is no part of a worker's on-CPU time.
    pub fn sum(threads: &[ThreadData], blocking_waits: bool) -> Self {
        let mut agg = [Agg::default(); STAGES.len()];
        let mut hops_us = Vec::new();
        let mut driver_ns = 0;
        let mut worker_self_ns = None;
        for t in threads {
            if let Some(cpu) = t.worker_cpu_ns {
                let covered = t.top_ns - if blocking_waits { t.top_wait_ns } else { 0 };
                *worker_self_ns.get_or_insert(0) += cpu.saturating_sub(covered);
            }
            for (a, b) in agg.iter_mut().zip(t.agg.iter()) {
                a.count += b.count;
                a.total_ns += b.total_ns;
                a.self_ns += b.self_ns;
                a.self_allocs += b.self_allocs;
            }
            hops_us.extend_from_slice(&t.hops_us);
            if t.agg[Stage::Drive as usize].count > 0 {
                // Everything on a driving thread nests under its
                // top-level spans, so their totals are its covered time.
                driver_ns += [Stage::Drive, Stage::HubPump, Stage::GenPump]
                    .iter()
                    .map(|s| t.agg[*s as usize].total_ns)
                    .sum::<u64>();
            }
        }
        Stages {
            agg,
            hops_us,
            driver_ns,
            worker_self_ns,
        }
    }

    /// The hub's own time: on its workers when it has them, else the
    /// pumping thread's `hub.pump` self time.
    fn hub_self_ns(&self) -> f64 {
        self.worker_self_ns
            .unwrap_or(self.of(Stage::HubPump).self_ns) as f64
    }

    pub fn of(&self, s: Stage) -> Agg {
        self.agg[s as usize]
    }

    fn self_ns(&self, stages: &[Stage]) -> f64 {
        stages.iter().map(|s| self.of(*s).self_ns as f64).sum()
    }
}

const NET: [Stage; 3] = [Stage::NetWait, Stage::NetDrain, Stage::NetSend];
const CORE: [Stage; 5] = [
    Stage::SrvOpen,
    Stage::SrvReceive,
    Stage::SrvTick,
    Stage::CliReceive,
    Stage::CliTick,
];

/// What the probes measured, scaled to the whole traced run.
pub struct Probed {
    pub terminal: adapter::TerminalProbe,
    pub crypto: adapter::CryptoProbe,
    pub user: (u64, u64, u64),
    pub idle_server_bytes: f64,
}

impl Probed {
    pub fn run(a: &Artifacts) -> Self {
        Probed {
            terminal: adapter::probe_terminal(&a.captures),
            crypto: adapter::probe_crypto(&a.sizes),
            user: adapter::probe_user_stream(&a.typed),
            idle_server_bytes: adapter::probe_idle_server_bytes(256),
        }
    }
}

fn budget_median(paths: &[KeyPath], row: &str) -> f64 {
    let i = budget::ROWS
        .iter()
        .position(|(name, _)| *name == row)
        .expect("known budget row");
    median(&paths.iter().map(|p| p.rows[i]).collect::<Vec<_>>())
}

/// `(name, value)` for every per-layer metric, in table order.
pub fn per_layer(
    out: &Outcome,
    st: &Stages,
    a: &Artifacts,
    p: &Probed,
    simulated: bool,
    overhead_ratio: f64,
) -> Vec<(&'static str, f64)> {
    let ag = |s| st.of(s);
    let f = |n: u64| n as f64;
    let keys = f(out.keys);
    let dgrams = f(out.wire_dgrams());
    let net_events =
        f(ag(Stage::NetWait).count + ag(Stage::NetDrain).count + ag(Stage::NetSend).count);
    let sizes: Vec<f64> = a.sizes.iter().map(|s| *s as f64).collect();
    let t = &p.terminal;
    let c = &p.crypto;
    let ticks = f(ag(Stage::SrvTick).count + ag(Stage::CliTick).count);
    let down = f(out.net.down_dgrams);

    // What the probes say the server ticks spent below `core`, scaled
    // from the captured sample to the whole run.
    let act_est = ratio(f(t.act_ns), f(t.act_bytes)) * f(out.app_bytes);
    let diff_est = ratio(f(t.state_diff_ns), f(t.frames)) * f(out.ep.data);
    let encode_est = ratio(f(t.encode_ns), f(t.fragments)) * down;
    let seal_est = ratio(f(c.seal_ns), f(c.dgrams)) * dgrams;
    let open_est = ratio(f(c.open_ns), f(c.dgrams)) * f(out.ep.decrypts);
    let srv_tick_self = f(ag(Stage::SrvTick).self_ns);
    let residual =
        srv_tick_self - act_est - diff_est - encode_est - ratio(f(c.seal_ns), f(c.dgrams)) * down;

    let wall_ns = out.wall_s * 1e9;
    let share = |ns: f64| ratio(ns, wall_ns);
    let (tail_pct, tail_ms) = supported_tail(&out.screen_ms);
    let wake: &[f64] = &a.wake_to_send_us;

    vec![
        (
            "net.recv_ns_per_dgram",
            ratio(
                f(ag(Stage::NetDrain).self_ns),
                f(out.net.received + out.gen_net.received),
            ),
        ),
        (
            "net.send_ns_per_dgram",
            ratio(f(ag(Stage::NetSend).self_ns), dgrams),
        ),
        (
            "net.dgrams_per_drain",
            ratio(
                f(out.net.received + out.gen_net.received),
                f(out.net.drains + out.gen_net.drains),
            ),
        ),
        (
            "net.allocs_per_dgram",
            ratio(NET.iter().map(|s| f(ag(*s).self_allocs)).sum(), dgrams),
        ),
        (
            "net.idle_wakeups_per_s",
            ratio(f(out.net.empty_waits + out.gen_net.empty_waits), out.wall_s),
        ),
        (
            "net.ingress_us_p50",
            budget_median(&a.budget, "net.ingress") * 1e3,
        ),
        (
            "net.egress_us_p50",
            budget_median(&a.budget, "net.egress") * 1e3,
        ),
        ("net.feed_overflow", f(out.hub.feed_overflow)),
        ("net.feed_dropped", f(out.hub.feed_dropped)),
        ("net.feed_bounced", f(out.hub.feed_bounced)),
        (
            "net.sim_ns_per_event",
            if simulated {
                ratio(st.self_ns(&NET), net_events)
            } else {
                0.0
            },
        ),
        ("crypto.open_ns_per_dgram", ratio(f(c.open_ns), f(c.dgrams))),
        ("crypto.seal_ns_per_dgram", ratio(f(c.seal_ns), f(c.dgrams))),
        ("crypto.open_ns_per_byte", ratio(f(c.open_ns), f(c.bytes))),
        ("crypto.seal_ns_per_byte", ratio(f(c.seal_ns), f(c.bytes))),
        (
            "crypto.opens_per_delivery",
            ratio(f(out.ep.decrypts), f(out.ep.accepted)),
        ),
        ("crypto.rejected", f(out.ep.rejected)),
        (
            "ssp.recv_ns_per_dgram",
            ratio(
                st.self_ns(&[Stage::SrvReceive, Stage::CliReceive]),
                f(out.ep.accepted),
            ),
        ),
        (
            "ssp.encode_ns_per_dgram",
            ratio(f(t.encode_ns), f(t.fragments)),
        ),
        ("ssp.dgrams_per_key", ratio(dgrams, keys)),
        ("ssp.bytes_per_dgram_p50", percentile(&sizes, 50.0)),
        ("ssp.pure_acks", f(out.ep.pure_acks)),
        ("ssp.heartbeats", f(out.ep.heartbeats)),
        (
            "ssp.piggyback_ratio",
            ratio(
                f(out.ep.piggybacked),
                f(out.ep.piggybacked + out.ep.pure_acks),
            ),
        ),
        (
            "ssp.fragments_per_instruction",
            ratio(f(t.fragments), f(t.frames)),
        ),
        ("ssp.retransmits", f(out.ep.retransmits)),
        (
            "ssp.wire_per_app_byte",
            ratio(f(out.wire_bytes()), f(out.app_bytes)),
        ),
        (
            "terminal.act_ns_per_byte",
            ratio(f(t.act_ns), f(t.act_bytes)),
        ),
        (
            "terminal.diff_ns_per_frame",
            ratio(f(t.frame_diff_ns), f(t.frames)),
        ),
        (
            "terminal.diff_bytes_per_frame",
            ratio(f(t.diff_bytes), f(t.frames)),
        ),
        (
            "terminal.apply_ns_per_diff",
            ratio(f(t.term_apply_ns), f(t.frames)),
        ),
        (
            "states.diff_ns_per_call",
            ratio(f(t.state_diff_ns), f(t.frames)),
        ),
        (
            "states.user_diff_ns_per_call",
            ratio(f(p.user.0), f(p.user.2)),
        ),
        (
            "states.apply_ns_per_call",
            ratio(f(t.state_apply_ns), f(t.frames)),
        ),
        (
            "prediction.keystroke_ns",
            ratio(
                f(ag(Stage::Keystroke).total_ns),
                f(ag(Stage::Keystroke).count),
            ),
        ),
        (
            "prediction.display_ns",
            ratio(f(ag(Stage::Display).total_ns), f(ag(Stage::Display).count)),
        ),
        (
            "prediction.instant_ratio",
            ratio(f(out.instant), f(out.response_ms.len() as u64)),
        ),
        (
            "prediction.mispredict_ratio",
            ratio(f(out.ep.mispredicted), f(out.ep.predicted)),
        ),
        ("core.server_tick_ns_per_key", ratio(srv_tick_self, keys)),
        (
            "core.client_tick_ns_per_key",
            ratio(f(ag(Stage::CliTick).self_ns), keys),
        ),
        (
            "core.server_receive_ns_per_dgram",
            ratio(
                f(ag(Stage::SrvReceive).self_ns),
                f(ag(Stage::SrvReceive).count),
            ),
        ),
        (
            "core.tick_residual_ns",
            ratio(residual, f(ag(Stage::SrvTick).count)),
        ),
        ("core.ticks_per_key", ratio(ticks, keys)),
        (
            "core.empty_tick_ratio",
            1.0 - ratio(f(ag(Stage::NetSend).count), ticks),
        ),
        (
            "core.client_hold_ms_p50",
            budget_median(&a.budget, "core.client_hold"),
        ),
        (
            "core.server_hold_ms_p50",
            budget_median(&a.budget, "core.server_hold"),
        ),
        ("core.echo_ms_p50", percentile(&out.screen_ms, 50.0)),
        ("core.response_ms_p95", percentile(&out.response_ms, 95.0)),
        ("core.echo_ms_tail", tail_ms),
        ("core.echo_tail_percentile", tail_pct),
        ("core.echo_samples", out.screen_ms.len() as f64),
        ("core.gen_late_ms_p99", percentile(&out.gen_late_ms, 99.0)),
        ("core.gen_busy_ratio", out.gen_busy),
        (
            "core.server_cpu_ms_per_s",
            ratio(out.cpu_s * 1e3, out.wall_s),
        ),
        (
            "hub.pump_self_ns_per_wakeup",
            ratio(st.hub_self_ns(), f(out.hub.wakeups)),
        ),
        (
            "hub.wakeups_per_session_s",
            ratio(f(out.hub.wakeups), out.session_seconds),
        ),
        (
            "hub.lease_ns_per_session",
            ratio(
                st.hub_self_ns(),
                f(ag(Stage::HubPump).count) * out.sessions as f64,
            ),
        ),
        ("hub.worker_hop_us_p50", percentile(&st.hops_us, 50.0)),
        ("hub.wakeup_to_send_us_p50", percentile(wake, 50.0)),
        ("hub.wakeup_to_send_us_p99", percentile(wake, 99.0)),
        (
            "hub.snapshot_ns_per_session",
            ratio(f(a.snapshot.0), f(a.snapshot.2)),
        ),
        (
            "hub.snapshot_bytes_per_session",
            ratio(f(a.snapshot.1), f(a.snapshot.2)),
        ),
        ("hub.live_bytes_per_idle_server", p.idle_server_bytes),
        (
            "app.input_ns_per_key",
            ratio(
                f(ag(Stage::AppInput).total_ns),
                f(ag(Stage::AppInput).count),
            ),
        ),
        (
            "app.poll_ns_per_call",
            ratio(f(ag(Stage::AppPoll).total_ns), f(ag(Stage::AppPoll).count)),
        ),
        ("app.mb_per_cpu_s", ratio(f(out.app_bytes) / 1e6, out.cpu_s)),
        // A wait on a real socket sleeps in the kernel: not busy time.
        (
            "share.net",
            share(st.self_ns(if simulated { &NET } else { &NET[1..] })),
        ),
        ("share.core", share(st.self_ns(&CORE))),
        (
            "share.hub",
            share(st.hub_self_ns() + st.self_ns(&[Stage::GenPump])),
        ),
        (
            "share.app",
            share(st.self_ns(&[Stage::AppInput, Stage::AppPoll])),
        ),
        (
            "share.prediction",
            share(st.self_ns(&[Stage::Keystroke, Stage::Display])),
        ),
        ("share.bench", share(st.self_ns(&[Stage::Drive]))),
        (
            "share.unattributed",
            (1.0 - share(st.driver_ns as f64)).max(0.0),
        ),
        ("share.crypto_in_core", share(seal_est + open_est)),
        ("share.terminal_in_core", share(act_est)),
        ("share.ssp_states_in_core", share(diff_est + encode_est)),
        ("trace.overhead_ratio", overhead_ratio),
    ]
}

/// The stage table of a traced run: self time, count and share of wall
/// per stage.
pub fn stage_table(st: &Stages, wall_s: f64) -> String {
    let mut s = format!(
        "  {:<24} {:>12} {:>12} {:>10} {:>8}\n",
        "stage", "self ms", "count", "ns/call", "of wall"
    );
    for stage in STAGES {
        let a = st.of(stage);
        if a.count == 0 {
            continue;
        }
        s.push_str(&format!(
            "  {:<24} {:>12.1} {:>12} {:>10.0} {:>7.1}%\n",
            stage.name(),
            a.self_ns as f64 / 1e6,
            a.count,
            a.self_ns as f64 / a.count as f64,
            100.0 * a.self_ns as f64 / (wall_s * 1e9),
        ));
    }
    if let Some(ns) = st.worker_self_ns {
        s.push_str(&format!(
            "  {:<24} {:>12.1} {:>12} {:>10} {:>7.1}%   (workers' CPU outside every span; hub.pump above is then a wait)\n",
            "hub.worker",
            ns as f64 / 1e6,
            "",
            "",
            100.0 * ns as f64 / (wall_s * 1e9)
        ));
    }
    let covered = st.driver_ns as f64 / (wall_s * 1e9);
    s.push_str(&format!(
        "  {:<24} {:>12.1} {:>12} {:>10} {:>7.1}%\n",
        "unattributed",
        (1.0 - covered).max(0.0) * wall_s * 1e3,
        "",
        "",
        100.0 * (1.0 - covered).max(0.0)
    ));
    s
}

/// The per-key budget table of the traced UDP run.
pub fn budget_table(paths: &[KeyPath], echo_p50: f64) -> String {
    let mut s = format!(
        "  per-key budget, median over {} keys (loopback, not a real link)\n",
        paths.len()
    );
    let mut sum = 0.0;
    for (i, (name, kind)) in budget::ROWS.iter().enumerate() {
        let m = median(&paths.iter().map(|p| p.rows[i]).collect::<Vec<_>>());
        sum += m;
        s.push_str(&format!("  {name:<34} {kind:<5} {m:>9.3} ms\n"));
    }
    let whole = median(&paths.iter().map(KeyPath::total_ms).collect::<Vec<_>>());
    s.push_str(&format!(
        "  {:<34} {:<5} {:>9.3} ms   (median key path {:.3} ms, echo_ms_p50 {:.3} ms, rows/echo {:.3})\n",
        "sum of rows", "", sum, whole, echo_p50, ratio(sum, echo_p50)
    ));
    s
}
