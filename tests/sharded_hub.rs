//! The sharded-hub acceptance bar: spreading sessions over worker
//! threads changes *nothing* a session can observe.
//!
//! * A proptest drives random session counts, shard counts, keystroke
//!   schedules, and delivery interleavings through a [`ShardedHub`] and
//!   through the single-threaded [`ServerHub`], and requires the full
//!   per-session wire transcripts (both directions, raw bytes, with
//!   timestamps) to be **byte-identical** — including the §2.2 hostile
//!   case where every client NAT-roams onto one shared address
//!   mid-stream while the sessions land on *different* shards.
//! * A live smoke runs Mosh sessions spread over shards behind **one**
//!   UDP socket, routed by the distributor with cross-shard
//!   authentication fan-out, and requires that no endpoint ever accepts
//!   (or is even fed) a foreign datagram.
//! * Behind that socket, a session whose shell panics is restored in
//!   place from its checkpoint, on its own shard, while both clients keep
//!   typing; a panicking session with no checkpoint is closed.
//! * A shard that owns no session still hands what the distributor feeds
//!   it on to the shard that does.

use mosh::core::hub::snapshot::resurrect_server;
use mosh::core::{
    Application, Endpoint, HubSession, LineShell, MoshClient, MoshServer, Party, ServerHub,
    SessionEvent, SessionId, SessionLoop, ShardedHub, TimedWrite,
};
use mosh::crypto::Base64Key;
use mosh::net::{
    Addr, ChannelPoller, FeedChannel, LinkConfig, Network, Poller, Side, SimChannel, SimPoller,
    UdpChannel, UdpDistributor,
};
use mosh::prediction::DisplayPreference;
use mosh::ssp::datagram::Opened;
use proptest::prelude::*;

const S: Addr = Addr::new(2, 60001);
/// The shared post-roam source address (every client behind one NAT).
const NAT: Addr = Addr::new(9, 9999);

/// One wire-level action: (virtual time, 's'end or 'r'eceive, peer, bytes).
type Transcript = Vec<(u64, u8, Addr, Vec<u8>)>;

/// Records raw wire traffic around an endpoint (sends and raw receives;
/// opened-token receives are pinned via the peer's send log).
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

fn key(i: usize) -> Base64Key {
    let mut bytes = [0u8; 16];
    bytes[0] = 0x70 + i as u8;
    bytes[1] = 0x0d;
    Base64Key::from_bytes(bytes)
}

fn client_addr(i: usize) -> Addr {
    Addr::new(1, 1000 + i as u16)
}

/// One user's world: its own emulated network with the client's home
/// address, the NAT address it may roam to, and the server address.
fn world(i: usize, seed: u64) -> SimChannel {
    let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), seed);
    net.register(client_addr(i), Side::Client);
    net.register(NAT, Side::Client);
    net.register(S, Side::Server);
    SimChannel::new(net)
}

fn endpoints(i: usize) -> (Recorder<MoshClient>, Recorder<MoshServer>) {
    (
        Recorder::new(MoshClient::new(key(i), S, 80, 24, DisplayPreference::Never)),
        Recorder::new(MoshServer::new(key(i), Box::new(LineShell::new()))),
    )
}

/// The common script shape: user `i` types `texts[i]` one byte per step,
/// roaming its client onto the shared NAT address after `roam_after`
/// steps. Returns per-user (client transcript, server transcript, final
/// screen row) — the full observable behavior of every session.
struct Run {
    clients: Vec<Transcript>,
    servers: Vec<Transcript>,
    screens: Vec<String>,
    /// Hub counters cross-checked between runs: sharding changes which
    /// thread runs a session, never how often the hub wakes it.
    delivered: u64,
    wakeups: u64,
}

/// Drives `users` sessions with any hub through one closure so the
/// single-threaded and sharded runs share every line of schedule code.
fn drive(
    texts: &[String],
    seed: u64,
    roam_after: usize,
    mut pump: impl FnMut(&mut [HubSession<'_, '_>]) -> Vec<(SessionId, SessionEvent)>,
    sids: &[SessionId],
    recs: &mut [(Recorder<MoshClient>, Recorder<MoshServer>)],
) {
    let _ = seed;
    let users = texts.len();
    let longest = texts.iter().map(|t| t.len()).max().unwrap_or(0);
    let mut addrs: Vec<Addr> = (0..users).map(client_addr).collect();
    let mut now = 0u64;
    for step in 0..=longest {
        if step == roam_after.min(longest) {
            // Every client roams onto ONE shared address, mid-stream.
            for a in addrs.iter_mut() {
                *a = NAT;
            }
        }
        // Pump everyone to this step's deadline, then inject keystrokes.
        now += 137;
        let mut leases: Vec<Vec<Party<'_>>> = recs
            .iter_mut()
            .enumerate()
            .map(|(i, (c, s))| vec![Party::new(addrs[i], c), Party::new(S, s)])
            .collect();
        let mut sessions: Vec<HubSession<'_, '_>> = leases
            .iter_mut()
            .zip(sids.iter())
            .map(|(parties, sid)| HubSession::new(*sid, parties, now))
            .collect();
        pump(&mut sessions);
        drop(sessions);
        drop(leases);
        for (i, text) in texts.iter().enumerate() {
            if let Some(b) = text.as_bytes().get(step) {
                recs[i].0.inner.keystroke(now, &[*b]);
            }
        }
    }
    // Let retransmissions and acks settle well past any RTO.
    now += 8_000;
    let mut leases: Vec<Vec<Party<'_>>> = recs
        .iter_mut()
        .enumerate()
        .map(|(i, (c, s))| vec![Party::new(addrs[i], c), Party::new(S, s)])
        .collect();
    let mut sessions: Vec<HubSession<'_, '_>> = leases
        .iter_mut()
        .zip(sids.iter())
        .map(|(parties, sid)| HubSession::new(*sid, parties, now))
        .collect();
    pump(&mut sessions);
}

fn single_threaded_run(texts: &[String], seed: u64, roam_after: usize) -> Run {
    let mut hub = ServerHub::new(SimPoller::new());
    let mut recs: Vec<_> = (0..texts.len()).map(endpoints).collect();
    let sids: Vec<SessionId> = (0..texts.len())
        .map(|i| {
            let tok = hub.poller_mut().add(world(i, seed));
            hub.add_session(tok)
        })
        .collect();
    drive(
        texts,
        seed,
        roam_after,
        |sessions| hub.pump(sessions),
        &sids,
        &mut recs,
    );
    let stats = hub.stats();
    assert_eq!(stats.overdue_wakeups, 0, "no endpoint asked to spin");
    assert_eq!(stats.shard_panics, 0);
    collect(recs, stats.delivered, stats.wakeups)
}

fn sharded_run(texts: &[String], seed: u64, roam_after: usize, shards: usize) -> Run {
    let mut hub = ShardedHub::with_shards(shards, SimPoller::new);
    let mut recs: Vec<_> = (0..texts.len()).map(endpoints).collect();
    let sids: Vec<SessionId> = (0..texts.len())
        .map(|i| hub.add_session(world(i, seed)))
        .collect();
    drive(
        texts,
        seed,
        roam_after,
        |sessions| hub.pump(sessions),
        &sids,
        &mut recs,
    );
    let stats = hub.stats();
    assert_eq!(stats.overdue_wakeups, 0, "no endpoint asked to spin");
    assert_eq!(stats.shard_panics, 0);
    collect(recs, stats.delivered, stats.wakeups)
}

fn collect(
    recs: Vec<(Recorder<MoshClient>, Recorder<MoshServer>)>,
    delivered: u64,
    wakeups: u64,
) -> Run {
    let mut run = Run {
        clients: Vec::new(),
        servers: Vec::new(),
        screens: Vec::new(),
        delivered,
        wakeups,
    };
    for (client, server) in recs {
        run.screens
            .push(client.inner.server_frame().row_text(0).to_string());
        run.clients.push(client.log);
        run.servers.push(server.log);
    }
    run
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random session counts, shard counts, and typing interleavings:
    /// sharded transcripts are byte-identical to the 1-thread hub, with
    /// every client NAT-roamed onto one address mid-stream and the
    /// same-address sessions spread across different shards.
    #[test]
    fn sharded_transcripts_equal_single_threaded_hub(
        seed in any::<u64>(),
        texts in proptest::collection::vec("[a-z]{1,6}", 2..5),
        shards in 2usize..5,
        roam_after in 1usize..4,
    ) {
        let reference = single_threaded_run(&texts, seed, roam_after);
        let sharded = sharded_run(&texts, seed, roam_after, shards);

        for (i, text) in texts.iter().enumerate() {
            prop_assert_eq!(
                &sharded.clients[i], &reference.clients[i],
                "user {} client transcript diverged under {} shards", i, shards
            );
            prop_assert_eq!(
                &sharded.servers[i], &reference.servers[i],
                "user {} server transcript diverged under {} shards", i, shards
            );
            prop_assert_eq!(&sharded.screens[i], &reference.screens[i]);
            // The session genuinely did something after the roam.
            let expected = format!("$ {text}");
            prop_assert_eq!(sharded.screens[i].as_str(), expected.as_str());
        }
        prop_assert_eq!(sharded.delivered, reference.delivered);
        prop_assert_eq!(sharded.wakeups, reference.wakeups);

        // Sessions roamed onto ONE address really do live on different
        // shards (round-robin accept: user 0 on shard 0, user 1 on 1).
        let mut hub = ShardedHub::with_shards(shards, SimPoller::new);
        let a = hub.add_session(world(0, seed));
        let b = hub.add_session(world(1, seed));
        prop_assert_ne!(hub.location(a), hub.location(b));
    }
}

/// Sharded scheduling is observably identical to a dedicated
/// [`SessionLoop`] per session, not just to the single-threaded hub —
/// the full chain pinned on a fixed case with every shard count.
#[test]
fn sharded_hub_matches_dedicated_loops_byte_for_byte() {
    let texts = vec!["hello".to_string(), "world".to_string(), "mosh".to_string()];
    let reference = single_threaded_run(&texts, 77, 2);
    for shards in [1usize, 2, 4] {
        let sharded = sharded_run(&texts, 77, 2, shards);
        for i in 0..texts.len() {
            assert_eq!(
                sharded.clients[i], reference.clients[i],
                "user {i} diverged at {shards} shards"
            );
            assert_eq!(sharded.servers[i], reference.servers[i]);
        }
        assert!(reference.wakeups > 0);
        assert_eq!(
            sharded.wakeups, reference.wakeups,
            "hub wakeups at {shards} shards"
        );
    }

    // And the reference itself equals dedicated per-session loops.
    for (i, text) in texts.iter().enumerate() {
        let mut sl = SessionLoop::new(world(i, 77));
        let (mut client, mut server) = endpoints(i);
        let mut addr = client_addr(i);
        let mut now = 0u64;
        for step in 0..=text.len() {
            if step == 2 {
                addr = NAT;
            }
            now += 137;
            sl.pump_until(
                &mut [Party::new(addr, &mut client), Party::new(S, &mut server)],
                now,
            );
            if let Some(b) = text.as_bytes().get(step) {
                client.inner.keystroke(now, &[*b]);
            }
        }
        now += 8_000;
        sl.pump_until(
            &mut [Party::new(addr, &mut client), Party::new(S, &mut server)],
            now,
        );
        assert_eq!(
            client.log, reference.clients[i],
            "user {i}: hub diverged from a dedicated loop"
        );
        assert_eq!(server.log, reference.servers[i]);
    }
}

/// The live path: sessions spread over shards behind ONE UDP socket,
/// fed by the distributor, with unclaimed wires fanned out across
/// shards by bounce — and never a foreign datagram accepted.
#[test]
fn shards_share_one_socket_via_distributor() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    const N: usize = 6;
    const SHARDS: usize = 3;
    let socket = std::net::UdpSocket::bind("127.0.0.1:0").expect("server socket");
    let server_addr = mosh::net::channel::addr_from_socket(socket.local_addr().unwrap());
    let (mut hub, mut dist) = ShardedHub::over_distributor(socket, SHARDS).expect("distributor");

    let mut sids = Vec::new();
    let mut servers: Vec<MoshServer> = Vec::new();
    for i in 0..N {
        sids.push(hub.add_distributed_session());
        servers.push(MoshServer::new(key(i), Box::new(LineShell::new())));
    }
    // Round-robin accept really spread the sessions over every shard.
    let shards_used: std::collections::HashSet<usize> =
        sids.iter().map(|sid| hub.location(*sid)).collect();
    assert_eq!(shards_used.len(), SHARDS);

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

    // Shard worker threads pump their sessions while the calling thread
    // seats the distributor — one socket, SHARDS event loops.
    let start = std::time::Instant::now();
    while done.load(Ordering::SeqCst) < N {
        assert!(start.elapsed().as_secs() < 90, "sharded smoke timed out");
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
    // Each session echoed exactly its own client's keystroke and learned
    // that client's real socket address; a misroute would be rejected by
    // the endpoint's transport and counted.
    let mut targets = std::collections::HashSet::new();
    for (i, server) in servers.iter().enumerate() {
        assert_eq!(
            server.frame().row_text(0),
            format!("$ {}", (b'a' + i as u8) as char),
            "server {i} screen"
        );
        let target = server.target().expect("server learned a client");
        assert!(targets.insert(target), "distinct client per session");
        assert_eq!(
            server.transport_stats().datagrams_rejected,
            0,
            "session {i} was never fed a foreign datagram"
        );
    }
    let stats = hub.stats();
    assert!(stats.delivered > 0, "real traffic flowed: {stats:?}");
    assert_eq!(stats.shard_panics, 0, "{stats:?}");
    assert!(
        dist.stats().routed > 0,
        "the distributor carried the socket: {:?}",
        dist.stats()
    );
}

/// The one-session-per-shard regression bar: a shard holding exactly one
/// session behind the shared socket must still *bounce* a foreign
/// client's datagrams onward (cross-shard authentication fan-out), never
/// swallow them into its lone endpoint. Every client here binds a source
/// port that hashes to the *other* shard, so its hello deterministically
/// lands wrong first — without the bounce, these clients are permanently
/// blackholed (the owning shard never hears them, so never replies, so
/// no hint is ever learned).
#[test]
fn one_session_per_shard_bounces_wrong_hash_clients() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    const SHARDS: usize = 2;
    let socket = std::net::UdpSocket::bind("127.0.0.1:0").expect("server socket");
    let server_addr = mosh::net::channel::addr_from_socket(socket.local_addr().unwrap());
    let (mut hub, mut dist) = ShardedHub::over_distributor(socket, SHARDS).expect("distributor");

    let mut sids = Vec::new();
    let mut servers: Vec<MoshServer> = Vec::new();
    for i in 0..SHARDS {
        sids.push(hub.add_distributed_session());
        servers.push(MoshServer::new(key(i), Box::new(LineShell::new())));
        // Round-robin accept: session i owns shard i, alone.
        assert_eq!(hub.location(sids[i]), i);
    }

    let done = Arc::new(AtomicUsize::new(0));
    let mut clients = Vec::new();
    for i in 0..SHARDS {
        let done = done.clone();
        let key = key(i);
        clients.push(std::thread::spawn(move || {
            // Rebind until the source port hashes to the wrong shard —
            // the distributor's stable fallback is port % shards.
            let channel = loop {
                let ch = UdpChannel::bind("127.0.0.1:0").expect("client socket");
                if (ch.local_addr().port as usize) % SHARDS == (i + 1) % SHARDS {
                    break ch;
                }
            };
            let addr = channel.local_addr();
            let mut client = MoshClient::new(key, server_addr, 80, 24, DisplayPreference::Never);
            let mut sl = SessionLoop::new(channel);
            let start = std::time::Instant::now();
            let expected = format!("$ {}", (b'a' + i as u8) as char);
            let mut typed = false;
            loop {
                assert!(
                    start.elapsed().as_secs() < 60,
                    "client {i} blackholed by the wrong shard (screen: {:?})",
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
            i
        }));
    }

    let start = std::time::Instant::now();
    while done.load(Ordering::SeqCst) < SHARDS {
        assert!(start.elapsed().as_secs() < 90, "bounce smoke timed out");
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
        c.join().expect("client thread");
    }

    // Every session served exactly its own client, and the wires that
    // landed on the wrong lone-session shard were bounced, not eaten.
    for (i, server) in servers.iter().enumerate() {
        assert_eq!(
            server.frame().row_text(0),
            format!("$ {}", (b'a' + i as u8) as char),
            "server {i} screen"
        );
        assert_eq!(
            server.transport_stats().datagrams_rejected,
            0,
            "session {i} was never fed a foreign datagram"
        );
    }
    let stats = hub.stats();
    assert_eq!(stats.shard_panics, 0, "{stats:?}");
    assert!(
        stats.bounced >= SHARDS as u64,
        "each client's first hello was bounced off the wrong shard: {stats:?}"
    );
    assert!(
        dist.stats().bounced >= SHARDS as u64,
        "the distributor forwarded the bounces: {:?}",
        dist.stats()
    );
    assert_eq!(stats.dropped, 0, "no datagram was swallowed: {stats:?}");

    // Retiring the sessions evicts their distributor hints, so a
    // long-running front end's hint map tracks live sessions only.
    assert!(
        dist.stats_handle().hint_count() > 0,
        "replies taught source hints"
    );
    for sid in sids {
        hub.remove_session(sid);
    }
    assert_eq!(hub.session_count(), 0);
    assert_eq!(
        dist.stats_handle().hint_count(),
        0,
        "removed sessions' hints evicted"
    );
}

/// An endpoint whose first tick panics: a crash before its session ever
/// checkpoints.
struct PanicEndpoint;

impl Endpoint for PanicEndpoint {
    fn receive(&mut self, _: u64, _: Addr, _: &[u8], _: &mut Vec<SessionEvent>) {}

    fn tick(&mut self, _: u64, _: &mut Vec<(Addr, Vec<u8>)>, _: &mut Vec<SessionEvent>) {
        panic!("injected endpoint panic");
    }

    fn next_wakeup(&self, now: u64) -> u64 {
        now
    }
}

/// The key a [`Tripwire`] shell panics on.
const TRIP: u8 = b'!';

/// A [`LineShell`] that panics when [`TRIP`] is typed: the injected
/// endpoint fault. It saves and restores as a plain `LineShell`, which is
/// what the crashed session is restored with, since the client
/// retransmits the key.
struct Tripwire(LineShell);

impl Application for Tripwire {
    fn start(&mut self, now: u64) -> Vec<TimedWrite> {
        self.0.start(now)
    }

    fn on_input(&mut self, now: u64, bytes: &[u8]) -> Vec<TimedWrite> {
        assert!(!bytes.contains(&TRIP), "tripwire key typed");
        self.0.on_input(now, bytes)
    }

    fn poll(&mut self, now: u64) -> Vec<TimedWrite> {
        self.0.poll(now)
    }

    fn next_wakeup(&self, now: u64) -> Option<u64> {
        self.0.next_wakeup(now)
    }

    fn on_resize(&mut self, now: u64, width: usize, height: usize) -> Vec<TimedWrite> {
        self.0.on_resize(now, width, height)
    }

    fn save_state(&self) -> Vec<u8> {
        self.0.save_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        self.0.restore_state(bytes)
    }
}

/// One 10 ms round behind the shared socket: each server pumps on its
/// shard's worker while this thread seats the distributor, beside a
/// panicking endpoint leased as `bomb` when one is given.
fn serve(
    hub: &mut ShardedHub<ChannelPoller<FeedChannel>>,
    dist: &mut UdpDistributor,
    sids: &[SessionId],
    servers: &mut [MoshServer],
    bomb: Option<SessionId>,
) -> Vec<(SessionId, SessionEvent)> {
    let addr = dist.local_addr();
    let target = hub.now(sids[0]) + 10;
    let mut panicker = PanicEndpoint;
    let mut leases: Vec<Vec<Party<'_>>> = servers
        .iter_mut()
        .map(|s| vec![Party::new(addr, s)])
        .collect();
    let mut leased = sids.to_vec();
    if let Some(sid) = bomb {
        leases.push(vec![Party::new(addr, &mut panicker)]);
        leased.push(sid);
    }
    let mut sessions: Vec<HubSession<'_, '_>> = leases
        .iter_mut()
        .zip(&leased)
        .map(|(parties, sid)| HubSession::new(*sid, parties, target))
        .collect();
    hub.pump_with(&mut sessions, || dist.pump(10))
}

/// The distributor branch of crash recovery, live, at 1 and 2 shards:
/// two clients behind one socket (one session per shard at 2), each
/// typing one key per echo. A panicking endpoint with no checkpoint on
/// the victim's shared source is closed at once. Mid-conversation the
/// victim's shell panics on a key, and the session is restored in place
/// — same shard, same source — from its checkpoint. Both conversations
/// finish, no datagram is lost to a full bounce cycle, and once the
/// clients are gone both servers report their peer timeout.
#[test]
fn distributor_sessions_survive_an_endpoint_panic() {
    for shards in [1, 2] {
        distributor_crash_run(shards);
    }
}

fn distributor_crash_run(shards: usize) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const TEXT: &str = "abc!efghij";
    let socket = std::net::UdpSocket::bind("127.0.0.1:0").expect("server socket");
    let server_addr = mosh::net::channel::addr_from_socket(socket.local_addr().unwrap());
    let (mut hub, mut dist) = ShardedHub::over_distributor(socket, shards).expect("distributor");
    hub.enable_checkpointing(50);
    let sids = [hub.add_distributed_session(), hub.add_distributed_session()];
    let home = hub.location(sids[1]);
    assert_eq!((hub.location(sids[0]), home), (0, shards - 1));
    let token = hub.shard(home).token_of(sids[1]);
    let bomb = hub.add_session_sharing(sids[1]);
    for sid in sids {
        hub.set_peer_timeout(sid, Some(1_000));
    }
    let mut servers = vec![
        MoshServer::new(key(0), Box::new(LineShell::new())),
        MoshServer::new(key(1), Box::new(Tripwire(LineShell::new()))),
    ];

    let finished: Arc<[AtomicBool; 2]> = Arc::default();
    let clients: Vec<_> = (0..2)
        .map(|i| {
            let finished = finished.clone();
            let key = key(i);
            std::thread::spawn(move || {
                // Client 0's source port hashes to shard 1, but its
                // session lives on shard 0: at 2 shards its hello must
                // bounce on.
                let channel = loop {
                    let ch = UdpChannel::bind("127.0.0.1:0").expect("client socket");
                    if i != 0 || ch.local_addr().port % 2 == 1 {
                        break ch;
                    }
                };
                let addr = channel.local_addr();
                let mut client =
                    MoshClient::new(key, server_addr, 80, 24, DisplayPreference::Never);
                let mut sl = SessionLoop::new(channel);
                let start = Instant::now();
                let mut k = 0;
                loop {
                    assert!(
                        start.elapsed() < Duration::from_secs(60),
                        "client {i} stuck at {:?}",
                        client.server_frame().row_text(0)
                    );
                    let shown = match k {
                        0 => "$".to_string(),
                        k => format!("$ {}", &TEXT[..k]),
                    };
                    if client.server_frame().row_text(0) == shown {
                        if k == TEXT.len() {
                            finished[i].store(true, Ordering::SeqCst);
                            return;
                        }
                        client.keystroke(sl.now(), &TEXT.as_bytes()[k..=k]);
                        k += 1;
                    }
                    let t = sl.now() + 5;
                    sl.pump_until(&mut [Party::new(addr, &mut client)], t);
                }
            })
        })
        .collect();

    let start = Instant::now();
    let mut crashes = Vec::new();
    let mut timeouts = Vec::new();
    let mut lease_bomb = Some(bomb);
    while timeouts.len() < 2 {
        assert!(start.elapsed() < Duration::from_secs(60), "timed out");
        for (sid, ev) in serve(&mut hub, &mut dist, &sids, &mut servers, lease_bomb.take()) {
            match ev {
                SessionEvent::Crashed { checkpoint, .. } => {
                    crashes.push((sid, checkpoint.is_some()));
                    if let Some(framed) = checkpoint {
                        assert_eq!(sid, sids[1]);
                        servers[1] = resurrect_server(&framed, Box::new(LineShell::new()))
                            .expect("checkpoint decodes");
                    }
                }
                // Only the silence after a client is done counts: the
                // other client may still be typing, and a restored
                // server may not have heard its client yet.
                SessionEvent::PeerTimeout { .. }
                    if finished[usize::from(sid == sids[1])].load(Ordering::SeqCst) =>
                {
                    timeouts.push(sid);
                }
                _ => {}
            }
        }
    }
    for c in clients {
        c.join().expect("client thread");
    }

    assert_eq!(crashes, [(bomb, false), (sids[1], true)]);
    let closed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hub.location(bomb)));
    assert!(
        closed.is_err(),
        "a crash with no checkpoint closes the session"
    );
    assert_eq!(hub.session_count(), 2);
    assert_eq!(hub.location(sids[1]), home, "restored in place");
    assert_eq!(hub.shard(home).token_of(sids[1]), token);
    timeouts.sort();
    assert_eq!(timeouts, sids);
    for (i, server) in servers.iter().enumerate() {
        assert_eq!(
            server.frame().row_text(0),
            format!("$ {TEXT}"),
            "server {i}"
        );
    }
    let stats = hub.stats();
    assert_eq!(stats.shard_panics, 2, "{stats:?}");
    // At 2 shards client 0's first hello hashed to shard 1 and was
    // bounced on; no wire went round every shard unclaimed.
    assert!(stats.feed_bounced >= (shards as u64 - 1), "{stats:?}");
    assert_eq!(stats.feed_dropped, 0, "{stats:?}");
}

/// A shard that owns no session still passes its feed queue on: both
/// sessions live on shard 0, and the client's odd source port hashes its
/// hello to shard 1, which must bounce it to shard 0 rather than sit on
/// it because nothing there is leased.
#[test]
fn an_unleased_shard_bounces_its_feed_onward() {
    use std::time::{Duration, Instant};

    let socket = std::net::UdpSocket::bind("127.0.0.1:0").expect("server socket");
    let server_addr = mosh::net::channel::addr_from_socket(socket.local_addr().unwrap());
    let (mut hub, mut dist) = ShardedHub::over_distributor(socket, 2).expect("distributor");
    let first = hub.add_distributed_session();
    let sids = [first, hub.add_session_sharing(first)];
    assert!(sids.iter().all(|sid| hub.location(*sid) == 0));
    let mut servers: Vec<MoshServer> = (0..2)
        .map(|i| MoshServer::new(key(i), Box::new(LineShell::new())))
        .collect();

    let client = std::thread::spawn(move || {
        let channel = loop {
            let ch = UdpChannel::bind("127.0.0.1:0").expect("client socket");
            if ch.local_addr().port % 2 == 1 {
                break ch;
            }
        };
        let addr = channel.local_addr();
        let mut client = MoshClient::new(key(0), server_addr, 80, 24, DisplayPreference::Never);
        let mut sl = SessionLoop::new(channel);
        let start = Instant::now();
        while client.server_frame().row_text(0) != "$" {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "client never heard"
            );
            let t = sl.now() + 5;
            sl.pump_until(&mut [Party::new(addr, &mut client)], t);
        }
    });
    while !client.is_finished() {
        serve(&mut hub, &mut dist, &sids, &mut servers, None);
    }
    client.join().expect("client thread");
    let stats = hub.stats();
    assert!(stats.feed_bounced >= 1, "{stats:?}");
    assert_eq!(stats.shard_panics, 0, "{stats:?}");
}
