//! Replay under event-driven stepping is statistic-identical to the
//! seed's 1 ms pump.
//!
//! `replay_mosh`/`replay_ssh` drive each user as a session of one
//! `ShardedHub`, through one replay loop both systems share, resolving
//! keystroke latencies from typed events instead of polling per
//! millisecond. This test keeps the **historical 1 ms replay loop**
//! verbatim as a reference implementation and demands the ported engine
//! reproduce it exactly: the same latency samples in the same order, the
//! same instant/measured counts, the same server-side write delays, the
//! same sender counters — across EV-DO, the lossy netem path, and the
//! rate-limited Singapore links.

use mosh_core::{Millis, MoshClient, MoshServer};
use mosh_crypto::Base64Key;
use mosh_net::{Addr, LinkConfig, Network, Side};
use mosh_prediction::DisplayPreference;
use mosh_ssh::{SshClient, SshServer};
use mosh_trace::{
    replay_mosh, replay_ssh, small_trace, AppKind, Latencies, ReplayConfig, UserTrace, WorkloadApp,
    WriteDelayLog, SWITCH_BYTE,
};
use std::collections::VecDeque;

/// Historical latency-resolution results from the 1 ms loop.
struct Reference {
    samples: Vec<f64>,
    instant: u64,
    measured: u64,
    mispredicted: u64,
    write_delays: Vec<(Millis, Millis)>,
    sender_stats: mosh_ssp::sender::SenderStats,
}

/// A flattened key script: (absolute time, bytes, measured).
type FlatKeys = Vec<(Millis, Vec<u8>, bool)>;

/// Flattens exactly as the replay engine does (kept in lockstep by the
/// assertions below — a drift in either copy shows up as divergence).
fn flatten(trace: &UserTrace) -> (FlatKeys, Vec<AppKind>) {
    let mut keys = Vec::new();
    let mut now: Millis = 1500;
    for (i, seg) in trace.segments.iter().enumerate() {
        if i > 0 {
            now += 1500;
            keys.push((now, vec![SWITCH_BYTE], false));
        }
        for k in &seg.keys {
            now += k.gap_ms;
            keys.push((now, k.bytes.clone(), true));
        }
    }
    (keys, trace.segments.iter().map(|s| s.app).collect())
}

fn dry_run_targets(keys: &[(Millis, Vec<u8>, bool)], apps: &[AppKind]) -> Vec<u64> {
    use mosh_core::apps::Application;
    let mut app = WorkloadApp::new(apps.to_vec());
    let mut cumulative: u64 = app.start(0).iter().map(|w| w.bytes.len() as u64).sum();
    let mut targets = Vec::with_capacity(keys.len());
    for (at, bytes, _) in keys {
        let produced: u64 = app
            .on_input(*at, bytes)
            .iter()
            .map(|w| w.bytes.len() as u64)
            .sum();
        cumulative += produced;
        targets.push(if produced == 0 { 0 } else { cumulative });
    }
    targets
}

/// The seed's replay_mosh, verbatim: 1 ms ticks, per-address mailbox
/// drains, got_any-gated resolution.
fn reference_mosh(trace: &UserTrace, cfg: &ReplayConfig) -> Reference {
    let (keys, apps) = flatten(trace);
    let targets = dry_run_targets(&keys, &apps);
    let key = Base64Key::from_bytes([0x4d; 16]);
    let c_addr = Addr::new(1, 1000);
    let s_addr = Addr::new(2, 60001);
    let mut net = Network::new(cfg.up.clone(), cfg.down.clone(), cfg.seed);
    net.register(c_addr, Side::Client);
    net.register(s_addr, Side::Server);

    let mut client = MoshClient::new(key.clone(), s_addr, 80, 24, cfg.preference);
    let mut server = MoshServer::new(key, Box::new(WorkloadApp::new(apps)));
    if let Some(md) = cfg.mindelay {
        server.set_mindelay(md);
    }
    let write_log = WriteDelayLog::install(&mut server);

    let mut latencies = Latencies::new();
    let mut instant = 0u64;
    let mut measured = 0u64;
    let mut pending: VecDeque<(u64, Millis, bool)> = VecDeque::new();

    let end = keys.last().map(|k| k.0).unwrap_or(0) + 20_000;
    let mut next_key = 0usize;
    let mut now: Millis = 0;
    while now < end {
        while next_key < keys.len() && keys[next_key].0 <= now {
            let (_, bytes, count_it) = &keys[next_key];
            let shown = client.keystroke(now, bytes);
            let idx = client.input_end_index();
            let countable = *count_it && targets[next_key] != 0;
            if shown && countable {
                instant += 1;
                measured += 1;
                latencies.push(0.0);
            } else {
                pending.push_back((idx, now, countable));
            }
            next_key += 1;
        }
        for (to, w) in client.tick(now) {
            net.send(c_addr, to, w);
        }
        for (to, w) in server.tick(now) {
            net.send(s_addr, to, w);
        }
        now += 1;
        net.advance_to(now);
        while let Some(dg) = net.recv(s_addr) {
            server.receive(now, dg.from, &dg.payload);
        }
        let mut got_any = false;
        while let Some(dg) = net.recv(c_addr) {
            client.receive(now, &dg.payload);
            got_any = true;
        }
        if got_any {
            let ack = client.echo_ack();
            while let Some(&(idx, at, countable)) = pending.front() {
                if ack >= idx {
                    if countable {
                        measured += 1;
                        latencies.push((now - at) as f64);
                    }
                    pending.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    Reference {
        samples: latencies.samples().to_vec(),
        instant,
        measured,
        mispredicted: client.prediction_stats().mispredicted,
        write_delays: write_log.try_iter().collect(),
        sender_stats: *server.sender_stats(),
    }
}

/// The seed's replay_ssh, verbatim.
fn reference_ssh(trace: &UserTrace, cfg: &ReplayConfig) -> Reference {
    let (keys, apps) = flatten(trace);
    let targets = dry_run_targets(&keys, &apps);
    let c_addr = Addr::new(1, 5001);
    let s_addr = Addr::new(2, 22);
    let mut net = Network::new(cfg.up.clone(), cfg.down.clone(), cfg.seed);
    net.register(c_addr, Side::Client);
    net.register(s_addr, Side::Server);

    let mut client = SshClient::new(c_addr, s_addr, 80, 24);
    let mut server = SshServer::new(s_addr, c_addr, Box::new(WorkloadApp::new(apps)));

    let mut latencies = Latencies::new();
    let mut measured = 0u64;
    let mut pending: VecDeque<(u64, Millis)> = VecDeque::new();

    let end = keys.last().map(|k| k.0).unwrap_or(0) + 130_000;
    let mut next_key = 0usize;
    let mut now: Millis = 0;
    while now < end {
        while next_key < keys.len() && keys[next_key].0 <= now {
            let (_, bytes, count_it) = &keys[next_key];
            client.keystroke(now, bytes);
            if *count_it && targets[next_key] != 0 {
                pending.push_back((targets[next_key], now));
            }
            next_key += 1;
        }
        for (to, w) in client.tick(now) {
            net.send(c_addr, to, w);
        }
        for (to, w) in server.tick(now) {
            net.send(s_addr, to, w);
        }
        now += 1;
        net.advance_to(now);
        while let Some(dg) = net.recv(s_addr) {
            server.receive(now, &dg.payload);
        }
        let mut got_any = false;
        while let Some(dg) = net.recv(c_addr) {
            client.receive(now, &dg.payload);
            got_any = true;
        }
        if got_any {
            let rendered = client.rendered_bytes();
            while let Some(&(target, at)) = pending.front() {
                if rendered >= target {
                    measured += 1;
                    latencies.push((now - at) as f64);
                    pending.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    Reference {
        samples: latencies.samples().to_vec(),
        instant: 0,
        measured,
        mispredicted: 0,
        write_delays: Vec::new(),
        sender_stats: mosh_ssp::sender::SenderStats::default(),
    }
}

fn configs() -> Vec<(&'static str, ReplayConfig)> {
    let mut netem = ReplayConfig::over(LinkConfig::netem_lossy(), LinkConfig::netem_lossy());
    netem.preference = DisplayPreference::Never;
    vec![
        (
            "evdo",
            ReplayConfig::over(LinkConfig::evdo_uplink(), LinkConfig::evdo_downlink()),
        ),
        ("netem_lossy", netem),
        (
            "singapore",
            ReplayConfig::over(LinkConfig::singapore(), LinkConfig::singapore()),
        ),
    ]
}

#[test]
fn mosh_replay_matches_the_1ms_reference_exactly() {
    let trace = small_trace(120);
    for (name, cfg) in configs() {
        let reference = reference_mosh(&trace, &cfg);
        let ported = replay_mosh(&trace, &cfg);
        assert_eq!(
            reference.samples,
            ported.latencies.samples(),
            "{name}: latency sample streams diverged"
        );
        assert_eq!(reference.instant, ported.instant, "{name}: instant");
        assert_eq!(reference.measured, ported.measured, "{name}: measured");
        assert_eq!(
            reference.mispredicted, ported.mispredicted,
            "{name}: mispredicted"
        );
        assert_eq!(
            reference.write_delays, ported.write_delays,
            "{name}: write delays (Figure 3 inputs)"
        );
        assert_eq!(
            reference.sender_stats, ported.sender_stats,
            "{name}: sender counters (ablation inputs)"
        );
        assert!(
            reference.measured > 100,
            "{name}: enough keystrokes measured"
        );
    }
}

#[test]
fn ssh_replay_matches_the_1ms_reference_exactly() {
    let trace = small_trace(120);
    for (name, cfg) in configs() {
        let reference = reference_ssh(&trace, &cfg);
        let ported = replay_ssh(&trace, &cfg);
        assert_eq!(
            reference.samples,
            ported.latencies.samples(),
            "{name}: latency sample streams diverged"
        );
        assert_eq!(reference.measured, ported.measured, "{name}: measured");
        assert!(
            reference.measured > 100,
            "{name}: enough keystrokes measured"
        );
    }
}
