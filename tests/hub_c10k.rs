//! The C10K loopback smoke: the persistent shard runtime plus the
//! batched distributor path, under a mostly-idle fleet with a small live
//! subset — the shape SSP was designed for (conf_usenix_WinsteinB12 §2:
//! datagram state sync, no per-session connection churn), small enough
//! to run on every push. The benchmark's `idle_fleet_sim` workload
//! measures the same shape in simulation.
//!
//! Thousands of registered Mosh server sessions sit idle behind **one**
//! UDP socket while a handful of real loopback clients type and wait for
//! their echoes. The idle fleet must cost only registration — wakeups
//! scale with *live* sessions — and every live session must converge,
//! with zero shard panics and zero unexplained drops.
//!
//! Session count defaults low enough for debug-profile CI tier-1; the
//! dedicated CI step raises it via `MOSH_C10K_SESSIONS=10000` on the
//! release profile. Under `--nocapture` the test prints the bytes an idle
//! session keeps resident: the growth of the process's `VmRSS` over the
//! fleet, divided by its size.

use mosh::core::{HubSession, LineShell, MoshClient, MoshServer, Party, SessionLoop, ShardedHub};
use mosh::crypto::Base64Key;
use mosh::net::UdpChannel;
use mosh::prediction::DisplayPreference;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn key(i: usize) -> Base64Key {
    let mut bytes = [0u8; 16];
    bytes[..4].copy_from_slice(&(i as u32).to_le_bytes());
    bytes[15] = 0xc1;
    Base64Key::from_bytes(bytes)
}

/// This process's resident set in kB: `VmRSS` in `/proc/self/status`,
/// `None` where the system has no such file.
fn rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn session_count() -> usize {
    std::env::var("MOSH_C10K_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

#[test]
fn mostly_idle_fleet_serves_its_live_sessions() {
    const SHARDS: usize = 4;
    const LIVE: usize = 3;
    let total = session_count().max(LIVE);

    let socket = std::net::UdpSocket::bind("127.0.0.1:0").expect("server socket");
    let server_addr = mosh::net::channel::addr_from_socket(socket.local_addr().unwrap());
    let (mut hub, mut dist) = ShardedHub::over_distributor(socket, SHARDS).expect("distributor");

    // The whole fleet registers up front; only the first LIVE ever hear
    // from a client.
    let rss_before = rss_kb();
    let mut sids = Vec::with_capacity(total);
    let mut servers: Vec<MoshServer> = Vec::with_capacity(total);
    for i in 0..total {
        sids.push(hub.add_distributed_session());
        servers.push(MoshServer::new(key(i), Box::new(LineShell::new())));
    }
    assert_eq!(hub.session_count(), total);

    let done = Arc::new(AtomicUsize::new(0));
    let mut clients = Vec::new();
    for i in 0..LIVE {
        let done = done.clone();
        let key = key(i);
        clients.push(std::thread::spawn(move || {
            let channel = UdpChannel::bind("127.0.0.1:0").expect("client socket");
            let addr = channel.local_addr();
            let mut client = MoshClient::new(key, server_addr, 80, 24, DisplayPreference::Never);
            let mut sl = SessionLoop::new(channel);
            let start = std::time::Instant::now();
            let expected = format!("$ {}", (b'a' + i as u8) as char);
            let mut typed = false;
            loop {
                assert!(
                    start.elapsed().as_secs() < 120,
                    "client {i} timed out waiting for {expected:?} (screen: {:?})",
                    client.server_frame().row_text(0)
                );
                let t = sl.now() + 5;
                sl.pump_until(&mut [Party::new(addr, &mut client)], t);
                let row = client.server_frame().row_text(0);
                if row == "$" && !typed {
                    typed = true;
                    client.keystroke(sl.now(), &[b'a' + i as u8]);
                } else if row == expected {
                    break;
                }
            }
            done.fetch_add(1, Ordering::SeqCst);
            (i, client.server_frame().row_text(0))
        }));
    }

    // Every session is leased every pump — the idle fleet rides along,
    // as a real server's accept loop would lease its whole registry —
    // while this thread seats the distributor.
    let start = std::time::Instant::now();
    while done.load(Ordering::SeqCst) < LIVE {
        assert!(start.elapsed().as_secs() < 180, "c10k smoke timed out");
        let target = hub.now(sids[0]) + 10;
        let mut leases: Vec<[Party<'_>; 1]> = servers
            .iter_mut()
            .map(|s| [Party::new(server_addr, s)])
            .collect();
        let mut sessions: Vec<HubSession<'_, '_>> = leases
            .iter_mut()
            .zip(sids.iter())
            .map(|(parties, sid)| HubSession::new(*sid, parties, target))
            .collect();
        hub.pump_with(&mut sessions, || dist.pump(10));
    }

    for c in clients {
        let (i, row) = c.join().expect("client thread");
        assert_eq!(row, format!("$ {}", (b'a' + i as u8) as char));
    }
    if let (Some(before), Some(after)) = (rss_before, rss_kb()) {
        let grown = after.saturating_sub(before);
        println!(
            "idle fleet: {} B resident per session: VmRSS +{grown} kB over {total} \
             sessions, from before they registered to after the run. It counts \
             the server ends (each MoshServer and its hub slot) and \
             what the {LIVE} in-process loopback clients left behind.",
            grown * 1024 / total as u64
        );
    }

    let stats = hub.stats();
    assert_eq!(stats.shard_panics, 0, "no shard was lost");
    assert!(stats.delivered > 0, "live traffic flowed");
    assert_eq!(stats.feed_overflow, 0, "no feed queue shed: {stats:?}");
    assert!(
        stats.feed_hints >= 1,
        "replies taught the distributor its source hints: {stats:?}"
    );
}
