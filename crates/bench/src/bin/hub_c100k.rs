//! The C100K fleet bench: wakeup-to-send latency when one sharded hub
//! carries 1k / 10k / 100k mostly-idle Mosh sessions with a small bursty
//! active subset — the workload SSP is designed for
//! (conf_usenix_WinsteinB12 §2: a server holds state, not connections,
//! so an idle session costs nothing on the wire).
//!
//! Every session is a full client↔server pair in its own emulated
//! world; only a fixed subset (spread evenly through the fleet) types,
//! in bursts. For each burst keystroke we measure **wall-clock**
//! wakeup-to-send latency: from the keystroke's injection until the
//! client endpoint's next tick actually emits a datagram, across the
//! persistent shard runtime's dispatch, the lease sweep over the whole
//! (mostly idle) fleet, and the session's own send scheduling. p50/p99
//! land in `BENCH_hub_scaling.json` (section `"c100k"`, merged alongside
//! `hub_scaling`'s axes) so the trajectory captures tail latency under
//! fleet growth, not just throughput.
//!
//! `--quick` runs 1k and 10k; the full run adds 100k (~15 GB of session
//! state). `MOSH_C100K_SESSIONS` (comma-separated) overrides the fleet
//! sizes outright.

use mosh_bench::{merge_bench_json, percentile_us, SendTimer};
use mosh_core::{HubSession, LineShell, MoshClient, MoshServer, Party, SessionId, ShardedHub};
use mosh_crypto::Base64Key;
use mosh_net::{Addr, LinkConfig, Millis, Network, Side, SimChannel, SimPoller};
use mosh_prediction::DisplayPreference;
use std::time::Instant;

const C: Addr = Addr::new(1, 1000);
const S: Addr = Addr::new(2, 60001);

struct FleetResult {
    sessions: usize,
    wall_ms: f64,
    p50_us: f64,
    p99_us: f64,
    samples: usize,
    wakeups: u64,
    /// Re-arms where an endpoint reported an already-due wakeup (0 by the
    /// `Endpoint::next_wakeup` contract).
    overdue: u64,
    checkpoint_bytes: u64,
}

fn key(i: usize) -> Base64Key {
    let mut bytes = [0u8; 16];
    bytes[..4].copy_from_slice(&(i as u32).to_le_bytes());
    bytes[15] = 0xc1;
    Base64Key::from_bytes(bytes)
}

fn run_fleet(
    n: usize,
    shards: usize,
    active: usize,
    horizon: u64,
    cadence: Option<Millis>,
) -> FleetResult {
    let mut hub = ShardedHub::with_shards(shards, SimPoller::new);
    if let Some(cadence) = cadence {
        hub.enable_checkpointing(cadence);
    }
    let mut sids: Vec<SessionId> = Vec::with_capacity(n);
    // Active sessions spread evenly through the fleet, so a lease sweep
    // meets them where a real fleet would — not conveniently up front.
    let stride = n / active;
    let is_active = |i: usize| i.is_multiple_of(stride) && i / stride < active;
    let mut actives: Vec<(usize, SendTimer)> = Vec::with_capacity(active);
    let mut idles: Vec<(MoshClient, MoshServer)> = Vec::with_capacity(n - active);
    let mut servers: Vec<MoshServer> = Vec::with_capacity(active);
    for i in 0..n {
        let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), i as u64 + 1);
        net.register(C, Side::Client);
        net.register(S, Side::Server);
        sids.push(hub.add_session(SimChannel::new(net)));
        let key = key(i);
        let client = MoshClient::new(key.clone(), S, 80, 24, DisplayPreference::Never);
        let server = MoshServer::new(key, Box::new(LineShell::new()));
        if is_active(i) {
            actives.push((i, SendTimer::new(client)));
            servers.push(server);
        } else {
            idles.push((client, server));
        }
    }

    let start = Instant::now();
    let mut now = 0u64;
    let mut key_no = 0u64;
    while now < horizon {
        let target = (now + 1_000).min(horizon);
        // Lease the whole fleet every pump, as a front end leasing its
        // registry would: the idle sweep is part of what's measured.
        let mut active_it = actives.iter_mut().zip(servers.iter_mut());
        let mut idle_it = idles.iter_mut();
        let mut leases: Vec<[Party<'_>; 2]> = (0..n)
            .map(|i| {
                if is_active(i) {
                    let ((_, timer), server) = active_it.next().expect("active lease");
                    [Party::new(C, timer), Party::new(S, server)]
                } else {
                    let (client, server) = idle_it.next().expect("idle lease");
                    [Party::new(C, client), Party::new(S, server)]
                }
            })
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
        if now < horizon && (now / 1_000) % 2 == 1 {
            // Odd seconds burst, even seconds idle: the active subset is
            // bursty, not a steady drip.
            let byte = b'a' + (key_no % 26) as u8;
            for (_, timer) in actives.iter_mut() {
                timer.keystroke(now, &[byte]);
            }
            key_no += 1;
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut samples: Vec<f64> = actives
        .iter()
        .flat_map(|(_, t)| t.samples_us().iter().copied())
        .collect();
    let stats = hub.stats();
    assert_eq!(stats.shard_panics, 0, "no shard lost during the bench");
    FleetResult {
        sessions: n,
        wall_ms,
        p50_us: percentile_us(&mut samples, 50.0),
        p99_us: percentile_us(&mut samples, 99.0),
        samples: samples.len(),
        wakeups: stats.wakeups,
        overdue: stats.overdue_wakeups,
        checkpoint_bytes: stats.checkpoint_bytes,
    }
}

fn fleet_sizes(quick: bool) -> Vec<usize> {
    if let Ok(v) = std::env::var("MOSH_C100K_SESSIONS") {
        let sizes: Vec<usize> = v.split(',').filter_map(|s| s.trim().parse().ok()).collect();
        if !sizes.is_empty() {
            return sizes;
        }
    }
    if quick {
        vec![1_000, 10_000]
    } else {
        vec![1_000, 10_000, 100_000]
    }
}

fn main() {
    let quick = mosh_bench::quick();
    let horizon: u64 = 8_000;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Always at least two shards: the persistent worker runtime is the
    // thing under test, not the inline fast path.
    let shards = cores.clamp(2, 8);

    println!("=== hub_c100k: mostly-idle fleets, bursty active subset ===");
    println!("  ({horizon} virtual ms per fleet, LAN links, {shards} shard(s), {cores} core(s))\n");
    println!(
        "  {:>8}  {:>12}  {:>10}  {:>14}  {:>14}  {:>12}",
        "sessions", "wall ms", "bursts", "p50 send (us)", "p99 send (us)", "wakeups/user"
    );

    let mut results = Vec::new();
    for n in fleet_sizes(quick) {
        let active = 64.min(n);
        let r = run_fleet(n, shards, active, horizon, None);
        println!(
            "  {:>8}  {:>12.1}  {:>10}  {:>14.1}  {:>14.1}  {:>12.1}",
            r.sessions,
            r.wall_ms,
            r.samples,
            r.p50_us,
            r.p99_us,
            r.wakeups as f64 / r.sessions as f64,
        );
        assert!(
            r.samples > 0 && r.p50_us > 0.0 && r.p99_us > 0.0,
            "bursts must produce latency samples"
        );
        results.push(r);
    }
    let overdue: u64 = results.iter().map(|r| r.overdue).sum();
    println!("  overdue wakeups (an endpoint asked to spin): {overdue}");

    // Checkpoint cadence/bytes trade-off: the same mostly-idle fleet at
    // the smallest size, with crash recovery on at several cadences. A
    // shorter cadence buys a fresher resurrection point; what it costs
    // is cumulative framed snapshot bytes (`HubStats::checkpoint_bytes`).
    // Only sessions that made progress re-checkpoint, so the mostly-idle
    // fleet keeps the byte count proportional to the *active* subset.
    let sweep_n = fleet_sizes(quick).into_iter().min().expect("fleet sizes");
    let cadences: [Millis; 4] = [500, 1_000, 2_000, 4_000];
    println!("\n  checkpoint cadence sweep ({sweep_n} sessions, {horizon} virtual ms):");
    println!(
        "  {:>12}  {:>18}  {:>12}",
        "cadence ms", "checkpoint bytes", "wall ms"
    );
    let mut sweep = Vec::new();
    for cadence in cadences {
        let r = run_fleet(sweep_n, shards, 64.min(sweep_n), horizon, Some(cadence));
        println!(
            "  {:>12}  {:>18}  {:>12.1}",
            cadence, r.checkpoint_bytes, r.wall_ms
        );
        assert!(
            r.checkpoint_bytes > 0,
            "checkpoint cadence must write snapshots"
        );
        sweep.push((cadence, r));
    }
    for pair in sweep.windows(2) {
        assert!(
            pair[0].1.checkpoint_bytes >= pair[1].1.checkpoint_bytes,
            "a shorter cadence never writes fewer checkpoint bytes"
        );
    }

    let mut rows = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        rows.push_str(&format!(
            "      {{\"sessions\": {}, \"wall_ms\": {:.3}, \"p50_wakeup_to_send_us\": {:.3}, \
             \"p99_wakeup_to_send_us\": {:.3}, \"latency_samples\": {}, \
             \"wakeups_per_session\": {:.1}}}{}\n",
            r.sessions,
            r.wall_ms,
            r.p50_us,
            r.p99_us,
            r.samples,
            r.wakeups as f64 / r.sessions as f64,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    rows.push_str("    ]");
    let section = format!(
        "{{\n    \"horizon_ms\": {horizon},\n    \"cores\": {cores},\n    \
         \"shards\": {shards},\n    \"active_sessions\": 64,\n    \"results\": {rows}\n  }}"
    );
    let mut sweep_rows = String::from("[\n");
    for (i, (cadence, r)) in sweep.iter().enumerate() {
        sweep_rows.push_str(&format!(
            "      {{\"cadence_ms\": {}, \"checkpoint_bytes\": {}, \"wall_ms\": {:.3}}}{}\n",
            cadence,
            r.checkpoint_bytes,
            r.wall_ms,
            if i + 1 == sweep.len() { "" } else { "," },
        ));
    }
    sweep_rows.push_str("    ]");
    let sweep_section = format!(
        "{{\n    \"sessions\": {sweep_n},\n    \"horizon_ms\": {horizon},\n    \
         \"active_sessions\": {},\n    \"results\": {sweep_rows}\n  }}",
        64.min(sweep_n)
    );

    let path = std::path::Path::new("BENCH_hub_scaling.json");
    match merge_bench_json(
        path,
        &[("c100k", section), ("checkpoint_cadence", sweep_section)],
    ) {
        Ok(()) => println!(
            "\nmerged sections \"c100k\" and \"checkpoint_cadence\" into BENCH_hub_scaling.json"
        ),
        Err(e) => println!("\ncould not write BENCH_hub_scaling.json: {e}"),
    }

    let last = results.last().expect("at least one fleet");
    println!(
        "largest fleet: {} sessions, p50 {:.0} us / p99 {:.0} us wakeup-to-send ({})",
        last.sessions,
        last.p50_us,
        last.p99_us,
        if last.p99_us < 1e6 {
            "sub-second tail under full-fleet sweeps"
        } else {
            "tail above 1 s: investigate"
        }
    );
}
