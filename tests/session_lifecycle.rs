//! The session-lifecycle acceptance bar: a [`ShardedHub`] session is a
//! *value* — it can be checkpointed, shipped to a new process, and
//! restored in place after its endpoint panics — and none of that is
//! allowed to change what the session's peer observes.
//!
//! * **Cross-process handoff** is byte-identical: mid-replay, every
//!   session is snapshotted into a handoff file, a *fresh* hub with a
//!   different shard count restores them, and the replay continues with
//!   transcripts equal to the uninterrupted run.
//! * **Crash recovery loses zero checkpointed sessions**: a proptest
//!   crashes one session mid-replay with a key its shell panics on; it is
//!   restored in place from its last checkpoint and converges to the same
//!   final screen as the undisturbed run — the un-checkpointed tail
//!   arrives by SSP retransmit, exactly like a Mosh loss episode — while
//!   every other session's wire is byte-identical to that run's.
//! * **Corrupt snapshots are rejected whole**: random truncations and
//!   bit flips never half-apply.

use mosh::core::hub::snapshot;
use mosh::core::{
    Application, Endpoint, HubSession, LineShell, MoshClient, MoshServer, Party, ServerHub,
    SessionEvent, SessionId, ShardedHub, TimedWrite,
};
use mosh::crypto::Base64Key;
use mosh::net::{Addr, LinkConfig, Network, Poller, Side, SimChannel, SimPoller};
use mosh::prediction::DisplayPreference;
use mosh::ssp::datagram::Opened;
use proptest::prelude::*;

const S: Addr = Addr::new(2, 60001);

/// One wire-level action: (virtual time, 's'end or 'r'eceive, peer, bytes).
type Transcript = Vec<(u64, u8, Addr, Vec<u8>)>;

/// Records raw wire traffic around an endpoint, forwarding everything —
/// including the snapshot hooks, so the checkpoint cadence sees through
/// the recorder.
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

    fn activity_marker(&self) -> Option<(u64, u64)> {
        self.inner.activity_marker()
    }

    fn checkpoint(&mut self, now: u64) -> Option<Vec<u8>> {
        self.inner.checkpoint(now)
    }
}

fn key(i: usize) -> Base64Key {
    let mut bytes = [0u8; 16];
    bytes[0] = 0x30 + i as u8;
    bytes[1] = 0x5f;
    Base64Key::from_bytes(bytes)
}

fn client_addr(i: usize) -> Addr {
    Addr::new(1, 2000 + i as u16)
}

fn world(i: usize, seed: u64) -> SimChannel {
    let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), seed);
    net.register(client_addr(i), Side::Client);
    net.register(S, Side::Server);
    SimChannel::new(net)
}

fn endpoints(i: usize) -> (Recorder<MoshClient>, Recorder<MoshServer>) {
    (
        Recorder::new(MoshClient::new(key(i), S, 80, 24, DisplayPreference::Never)),
        Recorder::new(MoshServer::new(key(i), Box::new(LineShell::new()))),
    )
}

const STEP_MS: u64 = 137;
const SETTLE_MS: u64 = 8_000;

/// Drives one scripted step (or the final settle) through `pump`.
fn pump_step(
    now: u64,
    sids: &[SessionId],
    recs: &mut [(Recorder<MoshClient>, Recorder<MoshServer>)],
    mut pump: impl FnMut(&mut [HubSession<'_, '_>]),
) {
    let mut leases: Vec<Vec<Party<'_>>> = recs
        .iter_mut()
        .enumerate()
        .map(|(i, (c, s))| vec![Party::new(client_addr(i), c), Party::new(S, s)])
        .collect();
    let mut sessions: Vec<HubSession<'_, '_>> = leases
        .iter_mut()
        .zip(sids.iter())
        .map(|(parties, sid)| HubSession::new(*sid, parties, now))
        .collect();
    pump(&mut sessions);
}

/// Peer-silence timeout of every session in the crash-recovery runs:
/// longer than the 3 s heartbeat, so it fires only once the clients
/// fall silent.
const PEER_TIMEOUT_MS: u64 = 4_000;
/// How long the servers pump on alone after the settle.
const SILENCE_MS: u64 = 10_000;

/// One user's observable outcome: client transcript, server transcript,
/// final screen row.
type Outcome = (Transcript, Transcript, String);

/// The uninterrupted reference: every session in one single-threaded hub.
fn reference_run(texts: &[String], seed: u64) -> Vec<Outcome> {
    let mut hub = ServerHub::new(SimPoller::new());
    let mut recs: Vec<_> = (0..texts.len()).map(endpoints).collect();
    let sids: Vec<SessionId> = (0..texts.len())
        .map(|i| {
            let tok = hub.poller_mut().add(world(i, seed));
            hub.add_session(tok)
        })
        .collect();
    let longest = texts.iter().map(|t| t.len()).max().unwrap_or(0);
    let mut now = 0u64;
    for step in 0..=longest {
        now += STEP_MS;
        pump_step(now, &sids, &mut recs, |s| {
            hub.pump(s);
        });
        for (i, text) in texts.iter().enumerate() {
            if let Some(b) = text.as_bytes().get(step) {
                recs[i].0.inner.keystroke(now, &[*b]);
            }
        }
    }
    now += SETTLE_MS;
    pump_step(now, &sids, &mut recs, |s| {
        hub.pump(s);
    });
    assert_eq!(hub.stats().shard_panics, 0);
    recs.into_iter()
        .map(|(c, s)| {
            let screen = c.inner.server_frame().row_text(0).to_string();
            (c.log, s.log, screen)
        })
        .collect()
}

/// What one [`crash_run`] leaves behind: each user's outcome (`None` for
/// a closed session), each `Crashed` event's "had a checkpoint", and the
/// sessions that reported a peer timeout once the clients fell silent.
struct CrashRun {
    outcomes: Vec<Option<Outcome>>,
    crashes: Vec<bool>,
    timeouts: Vec<SessionId>,
}

/// Replays `texts` through a [`ShardedHub`] of `shards` shards, each
/// session under a [`PEER_TIMEOUT_MS`] peer timeout, then lets the
/// clients fall silent for [`SILENCE_MS`] while the servers pump on.
/// With `trip`, user `victim`'s shell is a [`Tripwire`]; a crash with a
/// checkpoint is answered by restoring the server in place, and one
/// without closes the session.
fn crash_run(
    texts: &[String],
    seed: u64,
    shards: usize,
    checkpointing: bool,
    victim: usize,
    trip: bool,
) -> CrashRun {
    let mut hub = ShardedHub::with_shards(shards, SimPoller::new);
    if checkpointing {
        hub.enable_checkpointing(40);
    }
    let mut recs: Vec<_> = (0..texts.len()).map(endpoints).collect();
    if trip {
        recs[victim].1.inner = MoshServer::new(key(victim), Box::new(Tripwire(LineShell::new())));
    }
    let sids: Vec<SessionId> = (0..texts.len())
        .map(|i| hub.add_session(world(i, seed)))
        .collect();
    for sid in &sids {
        hub.set_peer_timeout(*sid, Some(PEER_TIMEOUT_MS));
    }
    let home = hub.location(sids[victim]);
    let token = hub.shard(home).token_of(sids[victim]);
    let longest = texts.iter().map(|t| t.len()).max().unwrap_or(0);
    let mut crashes = Vec::new();
    let mut alive: Vec<usize> = (0..texts.len()).collect();

    let mut now = 0u64;
    for step in 0..=longest + 1 {
        now += if step > longest { SETTLE_MS } else { STEP_MS };
        let mut events = Vec::new();
        pump_alive(now, &sids, &mut recs, &alive, |s| {
            events = hub.pump(s);
        });
        for (sid, ev) in events {
            let SessionEvent::Crashed { checkpoint, .. } = ev else {
                continue;
            };
            assert_eq!(sid, sids[victim]);
            crashes.push(checkpoint.is_some());
            match checkpoint {
                Some(framed) => {
                    // In place: the same shard, slot and source.
                    assert_eq!(hub.location(sid), home);
                    assert_eq!(hub.shard(home).token_of(sid), token);
                    let restored = snapshot::resurrect_server(&framed, Box::new(LineShell::new()))
                        .expect("stored checkpoint decodes");
                    // Keep the transcript log; swap the endpoint.
                    let old = std::mem::replace(&mut recs[victim].1, Recorder::new(restored));
                    recs[victim].1.log = old.log;
                }
                None => alive.retain(|&i| i != victim),
            }
        }
        if step <= longest {
            for &i in &alive {
                if let Some(b) = texts[i].as_bytes().get(step) {
                    recs[i].0.inner.keystroke(now, &[*b]);
                }
            }
        }
    }
    assert_eq!(hub.stats().shard_panics, crashes.len() as u64);
    assert_eq!(hub.session_count(), alive.len());

    // The clients fall silent: only the servers pump on.
    let mut leases: Vec<(SessionId, [Party<'_>; 1])> = recs
        .iter_mut()
        .enumerate()
        .filter(|(i, _)| alive.contains(i))
        .map(|(i, (_, s))| (sids[i], [Party::new(S, s)]))
        .collect();
    let mut sessions: Vec<HubSession<'_, '_>> = leases
        .iter_mut()
        .map(|(sid, parties)| HubSession::new(*sid, parties, now + SILENCE_MS))
        .collect();
    let mut timeouts: Vec<SessionId> = hub
        .pump(&mut sessions)
        .into_iter()
        .filter(|(_, e)| matches!(e, SessionEvent::PeerTimeout { .. }))
        .map(|(sid, _)| sid)
        .collect();
    drop(sessions);
    drop(leases);
    timeouts.sort();

    let outcomes = recs
        .into_iter()
        .enumerate()
        .map(|(i, (c, s))| {
            let screen = c.inner.server_frame().row_text(0).to_string();
            alive.contains(&i).then_some((c.log, s.log, screen))
        })
        .collect();
    CrashRun {
        outcomes,
        crashes,
        timeouts,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random truncations and bit flips of a real session snapshot are
    /// rejected at decode — never half-applied — and the pristine frame
    /// still restores afterwards.
    #[test]
    fn corrupt_snapshots_are_rejected_whole(
        cut_seed in any::<u64>(),
        flip_seed in any::<u64>(),
    ) {
        // One busy server, snapshotted once (outside the proptest loop
        // this would be cheaper, but determinism matters more here).
        let mut hub = ServerHub::new(SimPoller::new());
        let tok = hub.poller_mut().add(world(0, 99));
        let sid = hub.add_session(tok);
        let (mut c, mut s) = endpoints(0);
        {
            let mut parties = vec![Party::new(client_addr(0), &mut c), Party::new(S, &mut s)];
            hub.pump(&mut [HubSession::new(sid, &mut parties, 200)]);
        }
        c.inner.keystroke(200, b"q");
        {
            let mut parties = vec![Party::new(client_addr(0), &mut c), Party::new(S, &mut s)];
            hub.pump(&mut [HubSession::new(sid, &mut parties, 500)]);
        }
        prop_assert_eq!(hub.stats().shard_panics, 0);
        let framed = snapshot::snapshot_server(&s.inner);

        let cut = (cut_seed as usize) % framed.len();
        prop_assert!(
            snapshot::restore_server(&framed[..cut], Box::new(LineShell::new())).is_err(),
            "truncation at {} must be rejected", cut
        );
        let mut flipped = framed.clone();
        let bit = (flip_seed as usize) % (framed.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            snapshot::restore_server(&flipped, Box::new(LineShell::new())).is_err(),
            "bit flip at {} must be rejected", bit
        );
        prop_assert!(snapshot::restore_server(&framed, Box::new(LineShell::new())).is_ok());
    }

    /// Crash one session mid-replay with checkpointing on: **zero
    /// sessions are lost**. At 1 and 2 shards, the victim's shell panics
    /// on a key; the session is restored in place (same shard, same
    /// source) from its last checkpoint, the client retransmits the
    /// un-checkpointed tail, and it converges to the same final screen
    /// as the undisturbed reference run. Every other session — on the
    /// victim's shard or not — keeps a byte-identical wire transcript to
    /// the same hub's run without the panic, and once the clients fall
    /// silent every server, the restored one too, reports its peer
    /// timeout. With checkpointing off the victim is closed instead, and
    /// the others still never notice.
    #[test]
    fn crash_recovery_loses_no_checkpointed_sessions(
        seed in any::<u64>(),
        texts in proptest::collection::vec("[a-z]{2,5}", 2..4),
        crash_step in 1usize..3,
        victim in 0usize..4,
        checkpointing in any::<bool>(),
    ) {
        // The victim types the tripwire key at `crash_step`; the
        // undisturbed runs type it too, into a plain shell.
        let victim = victim % texts.len();
        let mut texts = texts;
        let crash_step = crash_step.min(texts[victim].len());
        texts[victim].insert(crash_step, TRIP as char);
        let reference = reference_run(&texts, seed);

        for shards in [1usize, 2] {
            let calm = crash_run(&texts, seed, shards, checkpointing, victim, false);
            let crashed = crash_run(&texts, seed, shards, checkpointing, victim, true);
            prop_assert!(calm.crashes.is_empty());
            prop_assert_eq!(&crashed.crashes, &[checkpointing]);
            let all: Vec<SessionId> = (0..texts.len()).map(SessionId).collect();
            prop_assert_eq!(&calm.timeouts, &all);
            let survivors: Vec<SessionId> = all
                .into_iter()
                .filter(|sid| checkpointing || sid.0 != victim)
                .collect();
            prop_assert_eq!(&crashed.timeouts, &survivors, "{} shards", shards);

            for (i, text) in texts.iter().enumerate() {
                let (calm_c, calm_s, calm_screen) = calm.outcomes[i].as_ref().expect("undisturbed");
                prop_assert_eq!(calm_screen, &reference[i].2);
                prop_assert_eq!(calm_screen, &format!("$ {text}"));
                let Some((c, s, screen)) = &crashed.outcomes[i] else {
                    prop_assert!(i == victim && !checkpointing, "user {} closed", i);
                    continue;
                };
                // Convergence: the restored victim too ends on the
                // reference run's final screen.
                prop_assert_eq!(screen, calm_screen, "user {} diverged", i);
                if i != victim {
                    prop_assert!(c == calm_c, "user {} client wire changed", i);
                    prop_assert!(s == calm_s, "user {} server wire changed", i);
                }
            }
        }
    }
}

/// [`pump_step`] for the `alive` users only.
fn pump_alive(
    now: u64,
    sids: &[SessionId],
    recs: &mut [(Recorder<MoshClient>, Recorder<MoshServer>)],
    alive: &[usize],
    mut pump: impl FnMut(&mut [HubSession<'_, '_>]),
) {
    let mut leases: Vec<(SessionId, Vec<Party<'_>>)> = recs
        .iter_mut()
        .enumerate()
        .filter(|(i, _)| alive.contains(i))
        .map(|(i, (c, s))| {
            (
                sids[i],
                vec![Party::new(client_addr(i), c), Party::new(S, s)],
            )
        })
        .collect();
    let mut sessions: Vec<HubSession<'_, '_>> = leases
        .iter_mut()
        .map(|(sid, parties)| HubSession::new(*sid, parties, now))
        .collect();
    pump(&mut sessions);
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

/// A session whose screen has scrolled rides the snapshot container
/// through restore (handoff) and resurrect (crash recovery) with its
/// screen intact, and keeps scrolling and converging afterwards.
#[test]
fn a_scrolled_session_survives_snapshot_and_restore() {
    let seed = 1717u64;
    let mut hub = ShardedHub::with_shards(2, SimPoller::new);
    let (mut c, mut s) = endpoints(0);
    let sid = hub.add_session(world(0, seed));
    let sids = [sid];
    let mut now = 0u64;

    // Hammer ENTER until the prompt walks off the bottom of the 24-row
    // screen.
    for _ in 0..32 {
        now += STEP_MS;
        {
            let mut recs = [(c, s)];
            pump_step(now, &sids, &mut recs, |l| {
                hub.pump(l);
            });
            [(c, s)] = recs;
        }
        c.inner.keystroke(now, b"\r");
    }
    now += SETTLE_MS;
    {
        let mut recs = [(c, s)];
        pump_step(now, &sids, &mut recs, |l| {
            hub.pump(l);
        });
        [(c, s)] = recs;
    }
    assert_eq!(
        s.inner.frame().cursor.row,
        23,
        "32 prompts on a 24-row screen reach its bottom"
    );

    // Snapshot → restore (clean handoff) and → resurrect (crash
    // recovery): both must bring back the screen.
    let framed = snapshot::snapshot_server(&s.inner);
    for restored in [
        snapshot::restore_server(&framed, Box::new(LineShell::new())).expect("restores"),
        snapshot::resurrect_server(&framed, Box::new(LineShell::new())).expect("resurrects"),
    ] {
        assert_eq!(restored.frame(), s.inner.frame());
    }

    // Swap in the restored server (handoff style) and keep typing: the
    // session must keep scrolling and converging.
    let restored = snapshot::restore_server(&framed, Box::new(LineShell::new())).expect("restores");
    let old = std::mem::replace(&mut s, Recorder::new(restored));
    s.log = old.log;
    for _ in 0..6 {
        now += STEP_MS;
        {
            let mut recs = [(c, s)];
            pump_step(now, &sids, &mut recs, |l| {
                hub.pump(l);
            });
            [(c, s)] = recs;
        }
        c.inner.keystroke(now, b"\r");
    }
    now += SETTLE_MS;
    {
        let mut recs = [(c, s)];
        pump_step(now, &sids, &mut recs, |l| {
            hub.pump(l);
        });
        [(c, s)] = recs;
    }

    assert_eq!(
        c.inner.server_frame().row_text(23),
        "$",
        "session converges"
    );
    assert_eq!(c.inner.server_frame(), s.inner.frame());
    assert_eq!(hub.stats().shard_panics, 0);
}

/// Mid-replay, snapshot every session into a handoff container, restart
/// into a **fresh hub with a different shard count**, restore, and
/// finish the replay: transcripts are byte-identical to never having
/// restarted. The rolling-restart path, end to end, file included.
#[test]
fn cross_process_handoff_is_byte_identical() {
    let texts: Vec<String> = ["hand", "off", "fest"].map(String::from).to_vec();
    let seed = 4242u64;
    let reference = reference_run(&texts, seed);

    let mut recs: Vec<_> = (0..texts.len()).map(endpoints).collect();
    let longest = texts.iter().map(|t| t.len()).max().unwrap_or(0);
    let handoff_step = 2usize;
    let mut now = 0u64;

    // Phase 1: the old process — a two-shard hub.
    let mut old_hub = ShardedHub::with_shards(2, SimPoller::new);
    let sids: Vec<SessionId> = (0..texts.len())
        .map(|i| old_hub.add_session(world(i, seed)))
        .collect();
    for step in 0..handoff_step {
        now += STEP_MS;
        pump_step(now, &sids, &mut recs, |s| {
            old_hub.pump(s);
        });
        for (i, text) in texts.iter().enumerate() {
            if let Some(b) = text.as_bytes().get(step) {
                recs[i].0.inner.keystroke(now, &[*b]);
            }
        }
    }

    // The handoff: snapshot every server verbatim (no ack capping — the
    // old process is shutting down cleanly, not crashing), ship the
    // container through an actual file, and pull the live channels out
    // of the old pollers (the fd-passing half of a real rolling restart).
    let entries: Vec<(usize, Vec<u8>)> = sids
        .iter()
        .zip(recs.iter())
        .map(|(sid, (_, s))| (sid.0, snapshot::snapshot_server(&s.inner)))
        .collect();
    let path = std::env::temp_dir().join("mosh-lifecycle-handoff.bin");
    std::fs::write(&path, snapshot::encode_handoff(&entries)).expect("handoff written");
    let restored_entries = snapshot::decode_handoff(&std::fs::read(&path).expect("handoff read"))
        .expect("handoff decodes");
    let _ = std::fs::remove_file(&path);
    assert_eq!(restored_entries, entries);

    let channels: Vec<SimChannel> = sids
        .iter()
        .map(|sid| {
            let shard = old_hub.location(*sid);
            let tok = old_hub.shard(shard).token_of(*sid);
            old_hub
                .shard_mut(shard)
                .poller_mut()
                .extract(tok)
                .expect("channel leaves the old process")
        })
        .collect();
    assert_eq!(old_hub.stats().shard_panics, 0);
    drop(old_hub);

    // Phase 2: the new process — three shards now — restores each
    // session from the container and keeps replaying.
    let mut new_hub = ShardedHub::with_shards(3, SimPoller::new);
    let new_sids: Vec<SessionId> = channels
        .into_iter()
        .map(|ch| new_hub.add_session(ch))
        .collect();
    for (i, (gid, framed)) in restored_entries.iter().enumerate() {
        assert_eq!(*gid, sids[i].0, "container preserves session order");
        let restored = snapshot::restore_server(framed, Box::new(LineShell::new()))
            .expect("handoff snapshot decodes");
        let old = std::mem::replace(&mut recs[i].1, Recorder::new(restored));
        recs[i].1.log = old.log;
    }
    for step in handoff_step..=longest {
        now += STEP_MS;
        pump_step(now, &new_sids, &mut recs, |s| {
            new_hub.pump(s);
        });
        for (i, text) in texts.iter().enumerate() {
            if let Some(b) = text.as_bytes().get(step) {
                recs[i].0.inner.keystroke(now, &[*b]);
            }
        }
    }
    now += SETTLE_MS;
    pump_step(now, &new_sids, &mut recs, |s| {
        new_hub.pump(s);
    });
    assert_eq!(new_hub.stats().shard_panics, 0);

    for (i, ((c, s), text)) in recs.iter().zip(texts.iter()).enumerate() {
        let (ref_c, ref_s, ref_screen) = &reference[i];
        assert_eq!(&c.log, ref_c, "user {i} client transcript diverged");
        assert_eq!(&s.log, ref_s, "user {i} server transcript diverged");
        let screen = c.inner.server_frame().row_text(0).to_string();
        assert_eq!(&screen, ref_screen);
        assert_eq!(screen, format!("$ {text}"));
    }
}
