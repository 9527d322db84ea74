//! The multi-session runtime at scale: one `ServerHub`, one event loop,
//! many concurrent sessions.
//!
//! * 64 simulated sessions (each in its own emulated network world)
//!   driven through one timer wheel, all reaching their echoes.
//! * Idle cost scales linearly in sessions — a wakeup pops one heap
//!   entry, it never scans the session table, so 64 idle sessions cost
//!   ~64× one idle session and the *active* session's traffic is
//!   untouched by idle neighbors.
//! * 8 real UDP loopback sessions behind ONE server socket, demultiplexed
//!   by source address with the crypto-authentication fallback (every
//!   inbound datagram is ambiguous by receive address here, so this also
//!   exercises the auth path end to end).

use mosh::core::{
    HubSession, LineShell, MoshClient, MoshServer, Party, ServerHub, SessionId, SessionLoop,
};
use mosh::crypto::Base64Key;
use mosh::net::{
    Addr, LinkConfig, Network, Poller, Side, SimChannel, SimPoller, UdpChannel, UdpPoller,
};
use mosh::prediction::DisplayPreference;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const C: Addr = Addr::new(1, 1000);
const S: Addr = Addr::new(2, 60001);

fn sim_world(seed: u64) -> SimChannel {
    sim_world_over(LinkConfig::lan(), LinkConfig::lan(), seed)
}

fn sim_world_over(up: LinkConfig, down: LinkConfig, seed: u64) -> SimChannel {
    let mut net = Network::new(up, down, seed);
    net.register(C, Side::Client);
    net.register(S, Side::Server);
    SimChannel::new(net)
}

fn key(i: usize) -> Base64Key {
    let mut bytes = [0u8; 16];
    bytes[0] = i as u8;
    bytes[1] = 0x5a;
    Base64Key::from_bytes(bytes)
}

struct SimFleet {
    hub: ServerHub<SimPoller>,
    sids: Vec<SessionId>,
    users: Vec<(MoshClient, MoshServer)>,
}

fn sim_fleet(n: usize) -> SimFleet {
    let mut hub = ServerHub::new(SimPoller::new());
    let mut sids = Vec::new();
    let mut users = Vec::new();
    for i in 0..n {
        let tok = hub.poller_mut().add(sim_world(i as u64 + 1));
        sids.push(hub.add_session(tok));
        users.push((
            MoshClient::new(key(i), S, 80, 24, DisplayPreference::Never),
            MoshServer::new(key(i), Box::new(LineShell::new())),
        ));
    }
    SimFleet { hub, sids, users }
}

impl SimFleet {
    fn pump_all(&mut self, target: u64) {
        let mut leases: Vec<[Party<'_>; 2]> = self
            .users
            .iter_mut()
            .map(|(c, s)| [Party::new(C, c), Party::new(S, s)])
            .collect();
        let mut sessions: Vec<HubSession<'_, '_>> = leases
            .iter_mut()
            .zip(self.sids.iter())
            .map(|(parties, sid)| HubSession::new(*sid, parties, target))
            .collect();
        self.hub.pump(&mut sessions);
        assert_eq!(self.hub.stats().shard_panics, 0);
    }
}

#[test]
fn one_hub_serves_64_concurrent_simulated_sessions() {
    let n = 64;
    let mut fleet = sim_fleet(n);
    fleet.pump_all(500);
    for (i, (client, _)) in fleet.users.iter().enumerate() {
        assert_eq!(
            client.server_frame().row_text(0),
            "$",
            "session {i} reached its prompt"
        );
    }

    // Every user types a distinct character at a staggered instant.
    for (i, (client, _)) in fleet.users.iter_mut().enumerate() {
        client.keystroke(500, &[b'a' + (i % 26) as u8]);
    }
    fleet.pump_all(1500);
    for (i, (client, server)) in fleet.users.iter().enumerate() {
        let expected = format!("$ {}", (b'a' + (i % 26) as u8) as char);
        assert_eq!(
            client.server_frame().row_text(0),
            expected,
            "session {i}'s own keystroke echoed"
        );
        assert_eq!(server.target(), Some(C), "session {i} learned its client");
    }
    let stats = fleet.hub.stats();
    assert_eq!(stats.shard_panics, 0, "{stats:?}");
    assert_eq!(stats.dropped, 0, "no datagram lost in the demux");
    assert_eq!(
        stats.auth_routed, 0,
        "per-world sessions route by address alone — no crypto needed"
    );
    assert!(stats.delivered as usize >= n * 4, "real traffic flowed");
    assert_eq!(stats.overdue_wakeups, 0, "no endpoint asked to spin");
}

#[test]
fn idle_sessions_cost_linearly_never_quadratically() {
    // An idle Mosh session still heartbeats every ~3 s; what must NOT
    // happen is any per-wakeup cost proportional to the number of other
    // (idle) sessions. Wakeups are the unit of work: with a timer wheel,
    // total wakeups for k idle sessions ≈ k × (wakeups of one).
    let horizon = 60_000;
    let mut solo = sim_fleet(1);
    solo.pump_all(horizon);
    let solo_wakeups = solo.hub.stats().wakeups;

    let k = 64;
    let mut fleet = sim_fleet(k);
    fleet.pump_all(horizon);
    let fleet_wakeups = fleet.hub.stats().wakeups;

    assert!(solo_wakeups > 0);
    let per_session = fleet_wakeups as f64 / k as f64;
    assert!(
        per_session <= solo_wakeups as f64 * 1.25,
        "per-session wakeups grew with fleet size: {per_session:.1} vs solo {solo_wakeups} \
         (a scan would make this explode)"
    );
    assert_eq!(fleet.hub.stats().overdue_wakeups, 0);
}

/// The wakeup budget of the paper's Fig. 2 workload: a user typing over
/// EV-DO costs the hub a few dozen wakeups per second — each key's
/// collection interval, frame gate, echo-ack timer and delayed ack, on
/// both endpoints, plus the deliveries — not the ~210 it cost while an
/// overdue ack behind a closed frame gate re-woke the session every
/// millisecond. A wakeup-contract violation shows up here (and in
/// `overdue_wakeups`) as a failed test instead of only as CPU.
#[test]
fn a_typing_session_over_evdo_stays_within_its_wakeup_budget() {
    let mut hub = ServerHub::new(SimPoller::new());
    let tok = hub.poller_mut().add(sim_world_over(
        LinkConfig::evdo_uplink(),
        LinkConfig::evdo_downlink(),
        17,
    ));
    let sid = hub.add_session(tok);
    let mut client = MoshClient::new(key(17), S, 80, 24, DisplayPreference::Adaptive);
    let mut server = MoshServer::new(key(17), Box::new(LineShell::new()));
    let pump = |hub: &mut ServerHub<SimPoller>,
                client: &mut MoshClient,
                server: &mut MoshServer,
                target: u64| {
        let mut parties = [Party::new(C, client), Party::new(S, server)];
        hub.pump(&mut [HubSession::new(sid, &mut parties, target)]);
    };

    // Set-up: hello, prompt, RTT estimate.
    pump(&mut hub, &mut client, &mut server, 2_000);
    let before = hub.stats().wakeups;

    // 4 keys/s on an uneven schedule for 30 s, a pause every twelfth key.
    let text = b"ls -l /usr/share\rcat notes.txt\recho done\r";
    let (start, mut at, mut typed) = (2_000u64, 2_000u64, 0usize);
    while at < start + 30_000 {
        pump(&mut hub, &mut client, &mut server, at);
        client.keystroke(at, &[text[typed % text.len()]]);
        typed += 1;
        at += 130 + (typed as u64 * 97) % 240;
        if typed.is_multiple_of(12) {
            at += 1_500;
        }
    }
    pump(&mut hub, &mut client, &mut server, at + 2_000);

    let stats = hub.stats();
    assert_eq!(stats.shard_panics, 0, "{stats:?}");
    let seconds = (at + 2_000 - start) as f64 / 1000.0;
    let per_second = (stats.wakeups - before) as f64 / seconds;
    assert!(typed > 80, "typed {typed} keys");
    assert_eq!(client.server_frame(), server.frame(), "session converged");
    assert!(
        per_second <= 40.0,
        "{per_second:.1} hub wakeups per session-second (budget 40)"
    );
    assert_eq!(stats.overdue_wakeups, 0, "no endpoint asked to spin");
}

/// Eight real Mosh sessions behind ONE UDP server socket, one hub, one
/// event loop — the multi-session loopback smoke test CI runs.
#[test]
fn eight_udp_sessions_behind_one_socket() {
    const N: usize = 8;
    let server_channel = UdpChannel::bind("127.0.0.1:0").expect("server socket");
    let server_addr = server_channel.local_addr();

    let mut hub = ServerHub::new(UdpPoller::new());
    let tok = hub.poller_mut().add(server_channel);
    let mut sids = Vec::new();
    let mut servers: Vec<MoshServer> = Vec::new();
    for i in 0..N {
        sids.push(hub.add_session(tok));
        servers.push(MoshServer::new(key(i), Box::new(LineShell::new())));
    }

    let done = Arc::new(AtomicUsize::new(0));
    let mut clients = Vec::new();
    for i in 0..N {
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
                    start.elapsed().as_secs() < 60,
                    "client {i} timed out waiting for {expected:?} \
                     (screen: {:?})",
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

    // One event loop serves all eight sessions until every client saw its
    // echo. Every inbound datagram here is ambiguous (all sessions share
    // the receive address), so the demux authenticates each one.
    let start = std::time::Instant::now();
    while done.load(Ordering::SeqCst) < N {
        assert!(start.elapsed().as_secs() < 90, "hub smoke timed out");
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
        hub.pump(&mut sessions);
    }

    for c in clients {
        let (i, row) = c.join().expect("client thread");
        assert_eq!(row, format!("$ {}", (b'a' + i as u8) as char));
    }
    // Each session echoed exactly its own client's keystroke — never a
    // neighbor's — and learned that client's real socket address.
    let mut targets = std::collections::HashSet::new();
    for (i, server) in servers.iter().enumerate() {
        let expected = format!("$ {}", (b'a' + i as u8) as char);
        assert_eq!(server.frame().row_text(0), expected, "server {i} screen");
        let target = server.target().expect("server {i} learned a client");
        assert!(targets.insert(target), "distinct client per session");
        assert_eq!(
            server.transport_stats().datagrams_rejected,
            0,
            "auth demux never fed session {i} a foreign datagram"
        );
    }
    let stats = hub.stats();
    assert_eq!(stats.shard_panics, 0, "{stats:?}");
    assert_eq!(stats.overdue_wakeups, 0, "no endpoint asked to spin");
    assert!(
        stats.auth_routed >= stats.delivered,
        "every shared-socket delivery went through authentication \
         (auth_routed {} vs delivered {})",
        stats.auth_routed,
        stats.delivered
    );
}
