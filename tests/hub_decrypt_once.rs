//! The decrypt-once acceptance bar: an ambiguous-address datagram through
//! the hub demux crosses AES-OCB **exactly once** — the authenticating
//! routing probe *is* the delivery decrypt — while per-session behavior
//! stays byte-identical to dedicated `SessionLoop`s.
//!
//! Two full Mosh sessions share one emulated world and one server receive
//! address (the shape of hundreds of sessions behind one UDP socket), so
//! every client→server datagram is ambiguous by address and must be
//! routed by cryptographic authentication. Before the decrypt-once
//! pipeline, each such datagram cost two OCB passes (a verification
//! decrypt whose plaintext was thrown away, then the delivery decrypt);
//! the per-endpoint `decrypt_count` instrumentation proves it now costs
//! one. Adversarial injections at the end pin the hub's dropped-counter
//! on wires that authenticate to no session.

use mosh::core::{
    Endpoint, HubSession, LineShell, MoshClient, MoshServer, Party, ServerHub, SessionEvent,
    SessionId, SessionLoop, ShardedHub,
};
use mosh::crypto::Base64Key;
use mosh::net::{Addr, LinkConfig, Network, Poller, Side, SimChannel, SimPoller};
use mosh::prediction::DisplayPreference;
use mosh::ssp::datagram::Opened;

/// One wire-level action: (virtual time, 's'end or 'r'eceive, peer, bytes).
type Transcript = Vec<(u64, u8, Addr, Vec<u8>)>;

/// Records raw wire traffic around an endpoint. Receives that arrive as
/// already-opened tokens (the ambiguous-address path) are not logged —
/// identity for those endpoints is asserted over their *send* transcript,
/// which pins their entire observable schedule.
struct Recorder<E> {
    inner: E,
    log: Transcript,
}

impl<E> Recorder<E> {
    fn new(inner: E) -> Self {
        Recorder {
            inner,
            log: Vec::new(),
        }
    }

    fn sends(&self) -> Transcript {
        self.log
            .iter()
            .filter(|(_, kind, _, _)| *kind == b's')
            .cloned()
            .collect()
    }
}

impl<E: Endpoint> Endpoint for Recorder<E> {
    fn receive(&mut self, now: u64, from: Addr, wire: &[u8], events: &mut Vec<SessionEvent>) {
        self.log.push((now, b'r', from, wire.to_vec()));
        self.inner.receive(now, from, wire, events);
    }

    fn tick(&mut self, now: u64, out: &mut Vec<(Addr, Vec<u8>)>, events: &mut Vec<SessionEvent>) {
        let start = out.len();
        self.inner.tick(now, out, events);
        for (to, wire) in &out[start..] {
            self.log.push((now, b's', *to, wire.clone()));
        }
    }

    fn next_wakeup(&self, now: u64) -> u64 {
        self.inner.next_wakeup(now)
    }

    fn last_heard(&self) -> Option<u64> {
        self.inner.last_heard()
    }

    fn authenticates(&self, wire: &[u8]) -> bool {
        self.inner.authenticates(wire)
    }

    fn try_open(&mut self, wire: &[u8]) -> Option<Opened> {
        self.inner.try_open(wire)
    }

    fn receive_opened(
        &mut self,
        now: u64,
        from: Addr,
        opened: Opened,
        events: &mut Vec<SessionEvent>,
    ) {
        self.inner.receive_opened(now, from, opened, events);
    }
}

/// Client addresses are distinct; the server address is shared — every
/// inbound server-side datagram is ambiguous.
const CLIENTS: [Addr; 2] = [Addr::new(1, 1000), Addr::new(3, 3000)];
const S: Addr = Addr::new(2, 60001);
const END: u64 = 9000;

fn key(i: usize) -> Base64Key {
    Base64Key::from_bytes([0x40 + i as u8; 16])
}

fn endpoints(i: usize) -> (MoshClient, MoshServer) {
    (
        MoshClient::new(key(i), S, 80, 24, DisplayPreference::Never),
        MoshServer::new(key(i), Box::new(LineShell::new())),
    )
}

/// Per-session keystroke script, staggered so the sessions interleave.
fn script(i: usize) -> Vec<(u64, u8)> {
    vec![
        (500 + 37 * i as u64, b'a' + i as u8),
        (1100 + 53 * i as u64, b'z' - i as u8),
    ]
}

/// The dedicated-loop reference: session `i` alone in its own world (lan
/// links consume no randomness, so per-datagram delivery is independent
/// of any neighbor — the solo schedule IS the shared-world schedule).
fn dedicated_run(i: usize) -> (Transcript, Transcript, String) {
    let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), 99);
    net.register(CLIENTS[i], Side::Client);
    net.register(S, Side::Server);
    let (client, server) = endpoints(i);
    let mut client = Recorder::new(client);
    let mut server = Recorder::new(server);
    let mut sl = SessionLoop::new(SimChannel::new(net));

    for (at, byte) in script(i) {
        sl.pump_until(
            &mut [
                Party::new(CLIENTS[i], &mut client),
                Party::new(S, &mut server),
            ],
            at,
        );
        client.inner.keystroke(at, &[byte]);
    }
    sl.pump_until(
        &mut [
            Party::new(CLIENTS[i], &mut client),
            Party::new(S, &mut server),
        ],
        END,
    );
    let screen = client.inner.server_frame().to_text();
    (client.log, server.sends(), screen)
}

#[test]
fn ambiguous_datagrams_are_decrypted_exactly_once_and_transcripts_match() {
    // --- The hub run: both sessions behind ONE world and ONE server
    // address, sharing a single poller source token.
    let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), 99);
    net.register(CLIENTS[0], Side::Client);
    net.register(CLIENTS[1], Side::Client);
    net.register(S, Side::Server);
    let mut hub = ServerHub::new(SimPoller::new());
    let tok = hub.poller_mut().add(SimChannel::new(net));
    let sids: Vec<SessionId> = (0..2).map(|_| hub.add_session(tok)).collect();

    let mut recs: Vec<(Recorder<MoshClient>, Recorder<MoshServer>)> = (0..2)
        .map(|i| {
            let (c, s) = endpoints(i);
            (Recorder::new(c), Recorder::new(s))
        })
        .collect();

    let pump_all = |hub: &mut ServerHub<SimPoller>,
                    recs: &mut Vec<(Recorder<MoshClient>, Recorder<MoshServer>)>,
                    target: u64| {
        let mut leases: Vec<[Party<'_>; 2]> = recs
            .iter_mut()
            .enumerate()
            .map(|(i, (c, s))| [Party::new(CLIENTS[i], c), Party::new(S, s)])
            .collect();
        let mut sessions: Vec<HubSession<'_, '_>> = leases
            .iter_mut()
            .zip(sids.iter())
            .map(|(parties, sid)| HubSession::new(*sid, parties, target))
            .collect();
        hub.pump(&mut sessions);
    };

    // Interleave both sessions' keystroke instants into one pump plan.
    let mut instants: Vec<(u64, usize, u8)> = Vec::new();
    for i in 0..2 {
        for (at, byte) in script(i) {
            instants.push((at, i, byte));
        }
    }
    instants.sort();
    for (at, i, byte) in instants {
        pump_all(&mut hub, &mut recs, at);
        recs[i].0.inner.keystroke(at, &[byte]);
    }
    pump_all(&mut hub, &mut recs, END);

    // --- Both sessions behaved: each echoed exactly its own keystrokes.
    for (i, (client, server)) in recs.iter().enumerate() {
        let expected = format!("$ {}{}", (b'a' + i as u8) as char, (b'z' - i as u8) as char);
        assert_eq!(
            client.inner.server_frame().row_text(0),
            expected,
            "session {i} echo"
        );
        assert_eq!(
            server.inner.transport_stats().datagrams_rejected,
            0,
            "auth demux never fed session {i} a foreign datagram"
        );
    }
    let stats = hub.stats();
    assert_eq!(stats.shard_panics, 0, "{stats:?}");
    assert_eq!(stats.dropped, 0, "no legitimate datagram was dropped");
    assert!(
        stats.auth_routed > 0,
        "the shared server address forced authentication routing"
    );

    // --- THE decrypt-once bar. Every server-side datagram was ambiguous
    // and auth-routed; the winner's routing probe is the only OCB pass it
    // ever gets. The single extra decrypt is the one cold-hint miss (the
    // first datagram from the second client is probed against session 0
    // before session 1 claims it). The old demux paid 2× per delivery.
    let received: u64 = recs
        .iter()
        .map(|(_, s)| s.inner.transport_stats().datagrams_received)
        .sum();
    let decrypts: u64 = recs.iter().map(|(_, s)| s.inner.decrypt_count()).sum();
    assert!(
        received >= 16,
        "enough traffic to prove anything: {received}"
    );
    assert_eq!(
        decrypts,
        received + 1,
        "every ambiguous delivery cost exactly one OCB open \
         (plus the single cold-hint probe miss)"
    );
    // Client side (unique addresses, fast path): also exactly one per
    // accepted datagram.
    for (i, (client, _)) in recs.iter().enumerate() {
        assert_eq!(
            client.inner.decrypt_count(),
            client.inner.transport_stats().datagrams_received,
            "client {i} decrypts once per datagram"
        );
    }

    // --- Byte-identity against dedicated loops: full client transcripts
    // (both directions, raw wires) and full server send transcripts pin
    // the schedule; screens pin the outcome.
    for (i, (client, server)) in recs.iter().enumerate() {
        let (ded_client, ded_server_sends, ded_screen) = dedicated_run(i);
        assert_eq!(
            client.log, ded_client,
            "session {i}: client wire transcript diverged from dedicated loop"
        );
        assert_eq!(
            server.sends(),
            ded_server_sends,
            "session {i}: server send transcript diverged from dedicated loop"
        );
        assert_eq!(client.inner.server_frame().to_text(), ded_screen);
        assert!(
            client.log.len() > 10,
            "session {i} too quiet to prove anything"
        );
    }

    // --- Adversarial injections: wires that authenticate to no session
    // are dropped by the hub (its rejected-counter), not delivered.
    let dropped_before = hub.stats().dropped;
    let delivered_before = hub.stats().delivered;
    let some_client_wire = recs[0]
        .0
        .log
        .iter()
        .find(|(_, kind, _, _)| *kind == b's')
        .map(|(_, _, _, w)| w.clone())
        .expect("client sent something");
    let some_server_wire = recs[0]
        .1
        .log
        .iter()
        .find(|(_, kind, _, _)| *kind == b's')
        .map(|(_, _, _, w)| w.clone())
        .expect("server sent something");
    let mut flipped_tag = some_client_wire.clone();
    *flipped_tag.last_mut().unwrap() ^= 0x01;
    let mut foreign_client = MoshClient::new(
        Base64Key::from_bytes([0xEE; 16]),
        S,
        80,
        24,
        DisplayPreference::Never,
    );
    let foreign = (0..100)
        .find_map(|t| foreign_client.tick(t).into_iter().next().map(|(_, w)| w))
        .expect("foreign hello");
    let injections: [Vec<u8>; 4] = [
        some_client_wire[..12].to_vec(), // truncated
        flipped_tag,                     // tampered tag
        some_server_wire,                // reflected own-direction wire
        foreign,                         // cross-session key confusion
    ];
    let n_injections = injections.len() as u64;
    for bad in injections {
        hub.poller_mut()
            .channel_mut(tok)
            .network_mut()
            .send(CLIENTS[0], S, bad);
    }
    let target = hub.now(sids[0]) + 50;
    pump_all(&mut hub, &mut recs, target);
    let stats = hub.stats();
    assert_eq!(stats.shard_panics, 0, "{stats:?}");
    assert_eq!(
        stats.dropped,
        dropped_before + n_injections,
        "each adversarial wire hit the hub's rejected-counter"
    );
    assert_eq!(
        stats.delivered - delivered_before,
        {
            let received_now: u64 = recs
                .iter()
                .map(|(_, s)| s.inner.transport_stats().datagrams_received)
                .sum();
            received_now - received
        },
        "no adversarial wire was delivered to any session"
    );
    for (i, (_, server)) in recs.iter().enumerate() {
        assert_eq!(
            server.inner.transport_stats().datagrams_rejected,
            0,
            "failed routing probes never count against session {i}"
        );
    }
}

/// Ticks `client` from `*now` until it emits, returning that burst's wires.
fn next_burst(client: &mut MoshClient, now: &mut u64) -> Vec<Vec<u8>> {
    loop {
        let burst = client.tick(*now);
        *now += 1;
        if !burst.is_empty() {
            return burst.into_iter().map(|(_, w)| w).collect();
        }
    }
}

/// Two clients NAT'd onto one source address X reach two sessions behind
/// one server address, so only authentication tells their datagrams
/// apart, and the hint for X names whichever session won last. A drain
/// in which X's owner changes and then sends several datagrams costs one
/// failed probe per change of owner, not one per datagram behind it.
#[test]
fn a_hint_that_moves_mid_drain_costs_one_probe_per_switch() {
    const X: Addr = Addr::new(5, 5000);
    let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), 99);
    net.register(X, Side::Client);
    net.register(S, Side::Server);
    let mut hub = ServerHub::new(SimPoller::new());
    let tok = hub.poller_mut().add(SimChannel::new(net));
    let sids: Vec<SessionId> = (0..2).map(|_| hub.add_session(tok)).collect();
    let (mut c0, mut s0) = endpoints(0);
    let (mut c1, mut s1) = endpoints(1);

    // The wires, made off the hub: session 1's first two bursts and a
    // paste on session 0 long enough to fragment. The paste is seeded
    // printable noise, which compression cannot shorten.
    let (mut t0, mut t1) = (0, 0);
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let text: Vec<u8> = (0..1500)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            b' ' + (x % 95) as u8
        })
        .collect();
    c0.keystroke(0, &text);
    let paste = next_burst(&mut c0, &mut t0);
    assert!(paste.len() >= 3, "the paste fragments: {}", paste.len());
    c1.keystroke(0, b"a");
    let first = next_burst(&mut c1, &mut t1);
    c1.keystroke(t1, b"b");
    let second = next_burst(&mut c1, &mut t1);

    // Which session owns each datagram, in the order they land.
    let mut owners: Vec<usize> = Vec::new();
    let mut land = |hub: &mut ServerHub<SimPoller>,
                    drain: Vec<(usize, Vec<u8>)>,
                    servers: [&mut MoshServer; 2]| {
        for (owner, wire) in drain {
            owners.push(owner);
            hub.poller_mut()
                .channel_mut(tok)
                .network_mut()
                .send(X, S, wire);
        }
        let target = hub.now(sids[0]) + 10;
        let [s0, s1] = servers;
        let mut p0 = [Party::new(S, s0)];
        let mut p1 = [Party::new(S, s1)];
        hub.pump(&mut [
            HubSession::new(sids[0], &mut p0, target),
            HubSession::new(sids[1], &mut p1, target),
        ]);
    };
    // Session 1 wins X first (a cold probe of session 0 misses). Then
    // one drain: session 0's fragments, then session 1 again.
    land(
        &mut hub,
        first.into_iter().map(|w| (1, w)).collect(),
        [&mut s0, &mut s1],
    );
    let drain: Vec<(usize, Vec<u8>)> = paste
        .into_iter()
        .map(|w| (0, w))
        .chain(second.into_iter().map(|w| (1, w)))
        .collect();
    land(&mut hub, drain, [&mut s0, &mut s1]);

    let received =
        s0.transport_stats().datagrams_received + s1.transport_stats().datagrams_received;
    assert_eq!(received, owners.len() as u64);
    assert_eq!(
        s0.last_heard(),
        s1.last_heard(),
        "the second drain landed at one instant"
    );
    // With no hint, session 0 is probed first: that is the owner before
    // the first datagram.
    let switches = std::iter::once(0)
        .chain(owners.iter().copied())
        .collect::<Vec<_>>()
        .windows(2)
        .filter(|w| w[0] != w[1])
        .count() as u64;
    assert_eq!(switches, 3);
    assert_eq!(
        s0.decrypt_count() + s1.decrypt_count(),
        received + switches,
        "one failed probe per change of owner"
    );
}

/// The same bar through the sharded runtime: two sessions sharing one
/// world and one server address are co-located on one shard at accept
/// time (a shared source has exactly one owning thread), a third
/// private-world session rides on another shard, and every ambiguous
/// datagram is still OCB-opened exactly once — with all transcripts
/// byte-identical to dedicated loops.
#[test]
fn sharded_hub_keeps_the_decrypt_once_bar() {
    let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), 99);
    net.register(CLIENTS[0], Side::Client);
    net.register(CLIENTS[1], Side::Client);
    net.register(S, Side::Server);

    let mut hub = ShardedHub::with_shards(3, SimPoller::new);
    let first = hub.add_session(SimChannel::new(net));
    let second = hub.add_session_sharing(first);
    assert_eq!(
        hub.location(first),
        hub.location(second),
        "a shared world is owned by exactly one shard"
    );
    let sids = [first, second];

    // A third, independent session on its own world keeps another shard
    // genuinely busy during the same pumps.
    let mut extra_net = Network::new(LinkConfig::lan(), LinkConfig::lan(), 7);
    let extra_c = Addr::new(8, 8000);
    extra_net.register(extra_c, Side::Client);
    extra_net.register(S, Side::Server);
    let extra_sid = hub.add_session(SimChannel::new(extra_net));
    assert_ne!(hub.location(extra_sid), hub.location(first));
    let key = Base64Key::from_bytes([0x99; 16]);
    let mut extra_client = MoshClient::new(key.clone(), S, 80, 24, DisplayPreference::Never);
    let mut extra_server = MoshServer::new(key, Box::new(LineShell::new()));

    let mut recs: Vec<(Recorder<MoshClient>, Recorder<MoshServer>)> = (0..2)
        .map(|i| {
            let (c, s) = endpoints(i);
            (Recorder::new(c), Recorder::new(s))
        })
        .collect();

    let pump_all = |hub: &mut ShardedHub<SimPoller>,
                    recs: &mut Vec<(Recorder<MoshClient>, Recorder<MoshServer>)>,
                    extra: (&mut MoshClient, &mut MoshServer),
                    target: u64| {
        let mut leases: Vec<[Party<'_>; 2]> = recs
            .iter_mut()
            .enumerate()
            .map(|(i, (c, s))| [Party::new(CLIENTS[i], c), Party::new(S, s)])
            .collect();
        let mut sessions: Vec<HubSession<'_, '_>> = leases
            .iter_mut()
            .zip(sids.iter())
            .map(|(parties, sid)| HubSession::new(*sid, parties, target))
            .collect();
        let mut extra_parties = [Party::new(extra_c, extra.0), Party::new(S, extra.1)];
        sessions.push(HubSession::new(extra_sid, &mut extra_parties, target));
        hub.pump(&mut sessions);
    };

    let mut instants: Vec<(u64, usize, u8)> = Vec::new();
    for i in 0..2 {
        for (at, byte) in script(i) {
            instants.push((at, i, byte));
        }
    }
    instants.sort();
    for (at, i, byte) in instants {
        pump_all(
            &mut hub,
            &mut recs,
            (&mut extra_client, &mut extra_server),
            at,
        );
        recs[i].0.inner.keystroke(at, &[byte]);
        if i == 0 {
            extra_client.keystroke(at, b"q");
        }
    }
    pump_all(
        &mut hub,
        &mut recs,
        (&mut extra_client, &mut extra_server),
        END,
    );

    // The decrypt-once bar, unchanged by sharding: every server-side
    // datagram of the shared world was ambiguous and auth-routed; the
    // winner's routing probe is its only OCB pass (plus the single
    // cold-hint miss).
    let received: u64 = recs
        .iter()
        .map(|(_, s)| s.inner.transport_stats().datagrams_received)
        .sum();
    let decrypts: u64 = recs.iter().map(|(_, s)| s.inner.decrypt_count()).sum();
    assert!(
        received >= 16,
        "enough traffic to prove anything: {received}"
    );
    assert_eq!(
        decrypts,
        received + 1,
        "sharding must not add OCB passes to the ambiguous path"
    );

    // Byte-identity against dedicated loops survives the shard boundary.
    for (i, (client, server)) in recs.iter().enumerate() {
        let (ded_client, ded_server_sends, ded_screen) = dedicated_run(i);
        assert_eq!(
            client.log, ded_client,
            "session {i}: client transcript diverged under the sharded hub"
        );
        assert_eq!(server.sends(), ded_server_sends);
        assert_eq!(client.inner.server_frame().to_text(), ded_screen);
    }
    // The neighbor shard's session worked too, on the address fast path.
    assert!(extra_client.server_frame().row_text(0).starts_with("$ qq"));
    assert_eq!(
        extra_server.transport_stats().datagrams_rejected
            + extra_client.transport_stats().datagrams_rejected,
        0
    );

    let stats = hub.stats();
    assert_eq!(stats.shard_panics, 0, "{stats:?}");
    assert_eq!(stats.dropped, 0, "no legitimate datagram was dropped");
    assert!(stats.auth_routed > 0, "the ambiguous path was exercised");
}
