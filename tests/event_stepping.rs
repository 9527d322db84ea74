//! Event-driven stepping is *schedule-identical* to the seed's 1 ms loop.
//!
//! `SessionLoop` steps virtual time by `min(next_wakeup, next_event_time)`
//! instead of polling every millisecond. That is only sound if skipping
//! the quiet milliseconds changes nothing: every datagram must be sent
//! and received at exactly the same virtual instant, with exactly the
//! same bytes (same RNG draws, same chaff, same fragmentation). This
//! test pits the two drivers against each other over a lossy, jittery
//! link and demands **byte-identical wire transcripts** on both sides.

use mosh::core::{
    Endpoint, HubSession, LineShell, MoshClient, MoshServer, Party, ServerHub, SessionEvent,
    SessionId, SessionLoop,
};
use mosh::crypto::Base64Key;
use mosh::net::{Addr, LinkConfig, Network, Poller, Side, SimChannel, SimPoller};
use mosh::prediction::DisplayPreference;

/// One wire-level action: (virtual time, 's'end or 'r'eceive, peer, bytes).
type Transcript = Vec<(u64, u8, Addr, Vec<u8>)>;

/// Records every datagram an endpoint sends or receives, verbatim.
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

    fn try_open(&mut self, wire: &[u8]) -> Option<mosh::ssp::datagram::Opened> {
        self.inner.try_open(wire)
    }

    fn receive_opened(
        &mut self,
        now: u64,
        from: Addr,
        opened: mosh::ssp::datagram::Opened,
        events: &mut Vec<SessionEvent>,
    ) {
        // Only reachable through an ambiguous-address demux; the suites
        // here give every endpoint a unique receive address, so raw-wire
        // `receive` keeps doing the transcript logging.
        self.inner.receive_opened(now, from, opened, events);
    }
}

const C: Addr = Addr::new(1, 1000);
const S: Addr = Addr::new(2, 60001);
const END: u64 = 25_000;

fn net(seed: u64) -> Network {
    // Loss + jitter + a rate limit: retransmissions, reordering windows,
    // and queueing all get exercised (every RNG draw must line up).
    let link = LinkConfig {
        delay_ms: 80,
        jitter_ms: 25,
        loss: 0.12,
        rate_bytes_per_ms: Some(200),
        ..LinkConfig::lan()
    };
    let mut net = Network::new(link.clone(), link, seed);
    net.register(C, Side::Client);
    net.register(S, Side::Server);
    net
}

fn endpoints(seed: u64) -> (MoshClient, MoshServer) {
    let key = Base64Key::from_bytes([seed as u8; 16]);
    (
        MoshClient::new(key.clone(), S, 80, 24, DisplayPreference::Adaptive),
        MoshServer::new(key, Box::new(LineShell::new())),
    )
}

/// The user script: (time, keystroke bytes). Includes a flood (`yes`) to
/// exercise the application-poll wakeup path, and its interrupt.
fn script() -> Vec<(u64, Vec<u8>)> {
    let mut keys: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut t = 1000;
    for &b in b"echo hello\r" {
        keys.push((t, vec![b]));
        t += 137;
    }
    for &b in b"yes\r" {
        keys.push((t + 400, vec![b]));
        t += 211;
    }
    keys.push((t + 2500, vec![0x03])); // ^C stops the flood
    keys.push((t + 3100, b"ls\r".to_vec()));
    keys
}

/// The seed's historical driver: tick both sides every millisecond,
/// advance the emulator by one, drain mailboxes. Kept verbatim as the
/// reference semantics for the event-driven loop.
fn reference_run(seed: u64) -> (Transcript, Transcript, String) {
    let mut net = net(seed);
    let (mut client, mut server) = endpoints(seed);
    let mut client_log: Transcript = Vec::new();
    let mut server_log: Transcript = Vec::new();
    let keys = script();
    let mut next_key = 0;

    let mut now = 0u64;
    while now < END {
        while next_key < keys.len() && keys[next_key].0 <= now {
            client.keystroke(now, &keys[next_key].1);
            next_key += 1;
        }
        for (to, w) in MoshClient::tick(&mut client, now) {
            client_log.push((now, b's', to, w.clone()));
            net.send(C, to, w);
        }
        for (to, w) in MoshServer::tick(&mut server, now) {
            server_log.push((now, b's', to, w.clone()));
            net.send(S, to, w);
        }
        now += 1;
        net.advance_to(now);
        while let Some(dg) = net.recv(S) {
            server_log.push((now, b'r', dg.from, dg.payload.clone()));
            MoshServer::receive(&mut server, now, dg.from, &dg.payload);
        }
        while let Some(dg) = net.recv(C) {
            client_log.push((now, b'r', dg.from, dg.payload.clone()));
            MoshClient::receive(&mut client, now, &dg.payload);
        }
    }
    let screen = client.server_frame().to_text();
    (client_log, server_log, screen)
}

/// The same session driven by `SessionLoop` over the `Channel` seam.
fn event_driven_run(seed: u64) -> (Transcript, Transcript, String) {
    let (client, server) = endpoints(seed);
    let mut client = Recorder::new(client);
    let mut server = Recorder::new(server);
    let mut sl = SessionLoop::new(SimChannel::new(net(seed)));

    for (at, bytes) in script() {
        sl.pump_until(
            &mut [Party::new(C, &mut client), Party::new(S, &mut server)],
            at,
        );
        client.inner.keystroke(at, &bytes);
    }
    sl.pump_until(
        &mut [Party::new(C, &mut client), Party::new(S, &mut server)],
        END,
    );
    let screen = client.inner.server_frame().to_text();
    (client.log, server.log, screen)
}

#[test]
fn wire_schedule_is_byte_identical_to_the_1ms_loop() {
    for seed in [7u64, 42, 1234] {
        let (rc, rs, rscreen) = reference_run(seed);
        let (ec, es, escreen) = event_driven_run(seed);
        // Compare counts first for a readable failure, then every byte.
        assert_eq!(
            rc.len(),
            ec.len(),
            "seed {seed}: client wire-action count diverged"
        );
        assert_eq!(
            rs.len(),
            es.len(),
            "seed {seed}: server wire-action count diverged"
        );
        for (i, (a, b)) in rc.iter().zip(ec.iter()).enumerate() {
            assert_eq!(
                a, b,
                "seed {seed}: client wire action #{i} diverged \
                 (reference vs event-driven)"
            );
        }
        for (i, (a, b)) in rs.iter().zip(es.iter()).enumerate() {
            assert_eq!(
                a, b,
                "seed {seed}: server wire action #{i} diverged \
                 (reference vs event-driven)"
            );
        }
        assert_eq!(rscreen, escreen, "seed {seed}: final screens diverged");
        // Sanity: the session actually did things (handshake, echo
        // frames, a flood, retransmissions over 12% loss, heartbeats).
        assert!(
            rc.len() > 30,
            "seed {seed}: session too quiet to prove anything ({} actions)",
            rc.len()
        );
        assert!(
            rscreen.contains('y') && rscreen.contains("Makefile"),
            "seed {seed}: flood and post-interrupt `ls` both reached the client"
        );
    }
}

/// The same sessions driven by one multi-session `ServerHub` instead of
/// dedicated `SessionLoop`s. Each session lives in its own emulated
/// world; the hub interleaves them through one timer wheel.
fn hub_run(seeds: &[u64]) -> Vec<(Transcript, Transcript, String)> {
    let mut hub = ServerHub::new(SimPoller::new());
    let mut sids: Vec<SessionId> = Vec::new();
    let mut recs: Vec<(Recorder<MoshClient>, Recorder<MoshServer>)> = Vec::new();
    for &seed in seeds {
        let tok = hub.poller_mut().add(SimChannel::new(net(seed)));
        sids.push(hub.add_session(tok));
        let (client, server) = endpoints(seed);
        recs.push((Recorder::new(client), Recorder::new(server)));
    }

    let pump_all = |hub: &mut ServerHub<SimPoller>,
                    recs: &mut Vec<(Recorder<MoshClient>, Recorder<MoshServer>)>,
                    target: u64| {
        let mut leases: Vec<[Party<'_>; 2]> = recs
            .iter_mut()
            .map(|(c, s)| [Party::new(C, c), Party::new(S, s)])
            .collect();
        let mut sessions: Vec<HubSession<'_, '_>> = leases
            .iter_mut()
            .zip(sids.iter())
            .map(|(parties, sid)| HubSession::new(*sid, parties, target))
            .collect();
        hub.pump(&mut sessions);
    };

    for (at, bytes) in script() {
        pump_all(&mut hub, &mut recs, at);
        for (client, _) in recs.iter_mut() {
            client.inner.keystroke(at, &bytes);
        }
    }
    pump_all(&mut hub, &mut recs, END);
    // Typing, a flood, loss and heartbeats: no endpoint ever reported a
    // wakeup its own tick declined to act on.
    assert_eq!(hub.stats().overdue_wakeups, 0);
    assert_eq!(hub.stats().shard_panics, 0);

    recs.into_iter()
        .map(|(c, s)| {
            let screen = c.inner.server_frame().to_text();
            (c.log, s.log, screen)
        })
        .collect()
}

/// The multi-session acceptance bar: a hub driving N sessions produces
/// byte-identical per-session wire transcripts to N dedicated
/// `SessionLoop`s (which are themselves pinned to the 1 ms reference
/// above) — multiplexing changes *nothing* about any single session.
#[test]
fn hub_matches_dedicated_loops_byte_for_byte() {
    let seeds = [7u64, 42, 1234];
    let hubbed = hub_run(&seeds);
    for (i, &seed) in seeds.iter().enumerate() {
        let (dc, ds, dscreen) = event_driven_run(seed);
        let (hc, hs, hscreen) = &hubbed[i];
        assert_eq!(
            dc.len(),
            hc.len(),
            "seed {seed}: client wire-action count diverged under the hub"
        );
        assert_eq!(
            ds.len(),
            hs.len(),
            "seed {seed}: server wire-action count diverged under the hub"
        );
        for (n, (a, b)) in dc.iter().zip(hc.iter()).enumerate() {
            assert_eq!(
                a, b,
                "seed {seed}: client wire action #{n} diverged \
                 (dedicated loop vs hub)"
            );
        }
        for (n, (a, b)) in ds.iter().zip(hs.iter()).enumerate() {
            assert_eq!(
                a, b,
                "seed {seed}: server wire action #{n} diverged \
                 (dedicated loop vs hub)"
            );
        }
        assert_eq!(&dscreen, hscreen, "seed {seed}: final screens diverged");
        assert!(
            dc.len() > 30,
            "seed {seed}: session too quiet to prove anything"
        );
    }
}

#[test]
fn event_driven_loop_takes_far_fewer_steps() {
    // Not just correct — the point of the redesign. Count emulator
    // advances by instrumenting next_event_time-driven stepping: an idle
    // 25 s session visits well under 1% of the 25 000 instants the
    // reference loop grinds through. We proxy "steps" by wire actions
    // plus timer wakeups, which bounds pump iterations.
    let (client, server) = endpoints(7);
    let mut client = Recorder::new(client);
    let mut server = Recorder::new(server);
    let mut sl = SessionLoop::new(SimChannel::new(net(7)));
    // Fully idle session (no keystrokes): only handshake + heartbeats.
    sl.pump_until(
        &mut [Party::new(C, &mut client), Party::new(S, &mut server)],
        END,
    );
    let actions = client.log.len() + server.log.len();
    assert!(
        actions < 400,
        "idle 25 s session produced {actions} wire actions; \
         event stepping should make this sparse"
    );
}
