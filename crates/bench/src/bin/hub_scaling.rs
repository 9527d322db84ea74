//! Multi-session scaling: wall-clock cost per simulated user when a hub
//! multiplexes 1 / 8 / 64 concurrent Mosh sessions — and, at 64
//! sessions, when the hub is sharded over 1 / 2 / 4 / 8 worker threads.
//!
//! Each session is a full client↔server pair in its own emulated network
//! world, typing steadily; the hub drives them all through per-shard
//! timer wheels. Two quantities must hold for a production front end:
//! the *per-user* cost staying flat as the fleet grows (the wheel pops
//! one session per wakeup; idle neighbors are free), and the 64-session
//! cost dropping as shards are added on a multicore machine (sessions
//! are independent worlds — sharding is embarrassingly parallel, so the
//! ceiling is the core count; a single-core machine pins the speedup at
//! ~1×, which the JSON records alongside the detected parallelism).
//! Results land in `BENCH_hub_scaling.json` so the perf trajectory
//! captures both axes run over run.
//!
//! Wall-clock numbers vary by machine; the per-user *wakeup* counts are
//! deterministic and identical at every shard count.

use mosh_core::{HubSession, LineShell, MoshClient, MoshServer, Party, SessionId, ShardedHub};
use mosh_crypto::Base64Key;
use mosh_net::{Addr, LinkConfig, Network, Side, SimChannel, SimPoller};
use mosh_prediction::DisplayPreference;
use std::time::Instant;

const C: Addr = Addr::new(1, 1000);
const S: Addr = Addr::new(2, 60001);

#[derive(Clone, Copy)]
struct FleetResult {
    sessions: usize,
    shards: usize,
    wall_ms: f64,
    wakeups: u64,
    /// Re-arms where an endpoint reported an already-due wakeup (0 by the
    /// `Endpoint::next_wakeup` contract).
    overdue: u64,
    delivered: u64,
}

fn run_fleet(n: usize, shards: usize, horizon: u64) -> FleetResult {
    let mut hub = ShardedHub::with_shards(shards, SimPoller::new);
    let mut sids: Vec<SessionId> = Vec::new();
    let mut users: Vec<(MoshClient, MoshServer)> = Vec::new();
    for i in 0..n {
        let mut net = Network::new(
            LinkConfig::evdo_uplink(),
            LinkConfig::evdo_downlink(),
            i as u64 + 1,
        );
        net.register(C, Side::Client);
        net.register(S, Side::Server);
        sids.push(hub.add_session(SimChannel::new(net)));
        let key = Base64Key::from_bytes([i as u8; 16]);
        users.push((
            MoshClient::new(key.clone(), S, 80, 24, DisplayPreference::Adaptive),
            MoshServer::new(key, Box::new(LineShell::new())),
        ));
    }

    // Everyone types one keystroke a second (staggered per user), ENTER
    // every eighth — a steady interactive load on every session.
    let start = Instant::now();
    let mut now = 0u64;
    let mut key_no = 0u64;
    while now < horizon {
        let target = (now + 1_000).min(horizon);
        let mut leases: Vec<[Party<'_>; 2]> = users
            .iter_mut()
            .map(|(c, s)| [Party::new(C, c), Party::new(S, s)])
            .collect();
        let mut sessions: Vec<HubSession<'_, '_>> = leases
            .iter_mut()
            .zip(sids.iter())
            .map(|(parties, sid)| HubSession::new(*sid, parties, target))
            .collect();
        hub.pump(&mut sessions);
        drop(sessions);
        drop(leases);
        now = target;
        if now < horizon {
            let byte = if key_no % 8 == 7 {
                b'\r'
            } else {
                b'a' + (key_no % 26) as u8
            };
            for (client, _) in users.iter_mut() {
                client.keystroke(now, &[byte]);
            }
            key_no += 1;
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let stats = hub.stats();
    FleetResult {
        sessions: n,
        shards,
        wall_ms,
        wakeups: stats.wakeups,
        overdue: stats.overdue_wakeups,
        delivered: stats.delivered,
    }
}

fn print_row(r: &FleetResult) {
    println!(
        "  {:>8}  {:>6}  {:>12.1}  {:>14.2}  {:>16.1}  {:>14.1}",
        r.sessions,
        r.shards,
        r.wall_ms,
        r.wall_ms / r.sessions as f64,
        r.wakeups as f64 / r.sessions as f64,
        r.delivered as f64 / r.sessions as f64,
    );
}

fn json_row(r: &FleetResult, last: bool) -> String {
    format!(
        "    {{\"sessions\": {}, \"shards\": {}, \"wall_ms\": {:.3}, \
         \"wall_ms_per_session\": {:.3}, \"wakeups_per_session\": {:.1}, \
         \"datagrams_per_session\": {:.1}}}{}\n",
        r.sessions,
        r.shards,
        r.wall_ms,
        r.wall_ms / r.sessions as f64,
        r.wakeups as f64 / r.sessions as f64,
        r.delivered as f64 / r.sessions as f64,
        if last { "" } else { "," },
    )
}

fn main() {
    let quick = mosh_bench::quick();
    let horizon: u64 = if quick { 20_000 } else { 120_000 };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("=== hub_scaling: one sharded hub, N concurrent Mosh sessions ===");
    println!("  ({horizon} virtual ms per fleet, EV-DO links, steady typing, {cores} core(s))\n");
    println!(
        "  {:>8}  {:>6}  {:>12}  {:>14}  {:>16}  {:>14}",
        "sessions", "shards", "wall ms", "wall ms/user", "wakeups/user", "dgrams/user"
    );

    // Axis 1: fleet size at one shard (the PR 3/4 trajectory series).
    let mut results = Vec::new();
    for n in [1usize, 8, 64] {
        let r = run_fleet(n, 1, horizon);
        print_row(&r);
        results.push(r);
    }

    // Axis 2: shard count at 64 sessions (the threaded-hub series). The
    // 1-shard row IS the 64-session row above — no need to replay it.
    println!();
    let solo_wakeups = results[2].wakeups;
    let mut threaded = vec![results[2]];
    for shards in [2usize, 4, 8] {
        let r = run_fleet(64, shards, horizon);
        print_row(&r);
        assert_eq!(
            r.wakeups, solo_wakeups,
            "sharding must not change the deterministic schedule"
        );
        threaded.push(r);
    }

    // The perf-trajectory artifact — merged by top-level key, so the
    // `hub_c100k` section written by its sibling binary survives.
    let mut rows = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        rows.push_str(&json_row(r, i + 1 == results.len()));
    }
    rows.push_str("  ]");
    let mut threaded_rows = String::from("[\n");
    for (i, r) in threaded.iter().enumerate() {
        threaded_rows.push_str(&json_row(r, i + 1 == threaded.len()));
    }
    threaded_rows.push_str("  ]");
    match mosh_bench::merge_bench_json(
        std::path::Path::new("BENCH_hub_scaling.json"),
        &[
            ("bench", "\"hub_scaling\"".to_string()),
            ("horizon_ms", horizon.to_string()),
            ("cores", cores.to_string()),
            ("results", rows),
            ("threads_64_sessions", threaded_rows),
        ],
    ) {
        Ok(()) => println!("\nwrote BENCH_hub_scaling.json"),
        Err(e) => println!("\ncould not write BENCH_hub_scaling.json: {e}"),
    }

    let overdue: u64 = results
        .iter()
        .chain(&threaded[1..])
        .map(|r| r.overdue)
        .sum();
    println!("overdue wakeups (an endpoint asked to spin): {overdue}");
    let per_user: Vec<f64> = results
        .iter()
        .map(|r| r.wall_ms / r.sessions as f64)
        .collect();
    println!(
        "per-user cost 1 -> 64 sessions: {:.2} ms -> {:.2} ms ({})",
        per_user[0],
        per_user[2],
        if per_user[2] <= per_user[0] * 3.0 {
            "flat-ish: the wheel scales"
        } else {
            "growing: investigate"
        }
    );
    let speedup = threaded[0].wall_ms / threaded[2].wall_ms;
    println!(
        "64-session speedup at 4 shards: {speedup:.2}x on {cores} core(s) ({})",
        if cores == 1 {
            "single core: sharding can only break even here"
        } else if speedup >= 1.5 {
            "shards scale"
        } else {
            "below 1.5x: investigate"
        }
    );
}
