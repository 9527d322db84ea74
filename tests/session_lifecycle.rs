//! The session-lifecycle acceptance bar: a [`ShardedHub`] session is a
//! *value* — it can be checkpointed, shipped to a new process, and
//! resurrected after its shard dies — and none of that is allowed to
//! change what the session's peer observes.
//!
//! * **Cross-process handoff** is byte-identical: mid-replay, every
//!   session is snapshotted into a handoff file, a *fresh* hub with a
//!   different shard count restores them, and the replay continues with
//!   transcripts equal to the uninterrupted run.
//! * **Crash recovery loses zero checkpointed sessions**: a proptest
//!   kills a shard mid-replay with an injected endpoint panic; every
//!   session on it resurrects from its last checkpoint onto a healthy
//!   shard and converges to the same final screen as the undisturbed
//!   run — the un-checkpointed tail arrives by SSP retransmit, exactly
//!   like a Mosh loss episode.
//! * **Corrupt snapshots are rejected whole**: random truncations and
//!   bit flips never half-apply.

use mosh::core::hub::snapshot;
use mosh::core::{
    Endpoint, HubSession, LineShell, MoshClient, MoshServer, Party, ServerHub, SessionEvent,
    SessionId, ShardedHub,
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

/// The uninterrupted reference: every session in one single-threaded hub.
fn reference_run(texts: &[String], seed: u64) -> Vec<(Transcript, Transcript, String)> {
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
    recs.into_iter()
        .map(|(c, s)| {
            let screen = c.inner.server_frame().row_text(0).to_string();
            (c.log, s.log, screen)
        })
        .collect()
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

    /// Kill a shard mid-replay with checkpointing on: **zero sessions
    /// are lost**. Every session of the dead shard resurrects from its
    /// last checkpoint onto a healthy shard, the client retransmits the
    /// un-checkpointed tail, and every session converges to the same
    /// final screen as the undisturbed reference run.
    #[test]
    fn crash_recovery_loses_no_checkpointed_sessions(
        seed in any::<u64>(),
        texts in proptest::collection::vec("[a-z]{2,5}", 2..4),
        shards in 2usize..4,
        crash_step in 1usize..3,
    ) {
        let reference = reference_run(&texts, seed);

        let mut hub = ShardedHub::with_shards(shards, SimPoller::new);
        hub.enable_checkpointing(40);
        let mut recs: Vec<_> = (0..texts.len()).map(endpoints).collect();
        let sids: Vec<SessionId> = (0..texts.len())
            .map(|i| hub.add_session(world(i, seed)))
            .collect();
        let longest = texts.iter().map(|t| t.len()).max().unwrap_or(0);
        let crash_step = crash_step.min(longest);
        let victim_shard = 0usize;

        let mut now = 0u64;
        for step in 0..=longest {
            now += STEP_MS;
            if step == crash_step {
                // A panicking endpoint lands on the victim shard and
                // kills its pump; every session there is stranded.
                let tok = hub.shard_mut(victim_shard).poller_mut().add(world(7, seed ^ 1));
                let doomed = hub.add_session_on(victim_shard, tok);
                let mut bomb = PanicEndpoint;
                {
                    let mut parties = vec![Party::new(client_addr(7), &mut bomb)];
                    let mut lease = [HubSession::new(doomed, &mut parties, now)];
                    hub.pump(&mut lease);
                }
                prop_assert!(hub.shard_error(victim_shard).is_some());

                // Recovery: every one of *our* sessions that lived on the
                // dead shard comes back; its caller rebuilds the server
                // endpoint from the snapshot (the client never died).
                let mut stranded: Vec<SessionId> = sids
                    .iter()
                    .copied()
                    .filter(|sid| hub.location(*sid).0 == victim_shard)
                    .collect();
                let recovered = hub.resurrect_quarantined();
                let mut brought_back: Vec<SessionId> =
                    recovered.iter().map(|(sid, _)| *sid).collect();
                for sid in &brought_back {
                    prop_assert!(hub.location(*sid).0 != victim_shard);
                }
                // Zero loss: exactly the stranded set resurrects (the
                // bomb checkpoints nothing and is the only casualty).
                stranded.sort();
                brought_back.sort();
                prop_assert_eq!(&brought_back, &stranded);
                prop_assert_eq!(
                    hub.stats().sessions_resurrected,
                    brought_back.len() as u64
                );
                prop_assert_eq!(hub.session_count(), texts.len());
                for (sid, framed) in recovered {
                    let i = sids
                        .iter()
                        .position(|s| *s == sid)
                        .expect("recovered id is one of ours");
                    let restored = snapshot::resurrect_server(&framed, Box::new(LineShell::new()))
                        .expect("stored checkpoint decodes");
                    // Keep the transcript log; swap the endpoint.
                    let old = std::mem::replace(&mut recs[i].1, Recorder::new(restored));
                    recs[i].1.log = old.log;
                }
            }
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

        // Convergence: every session — resurrected or bystander — ends
        // on the reference run's final screen. (Wire transcripts differ
        // by the retransmit of the un-checkpointed tail; the *outcome*
        // must not.)
        for (i, ((c, _), text)) in recs.iter().zip(texts.iter()).enumerate() {
            let screen = c.inner.server_frame().row_text(0).to_string();
            prop_assert_eq!(&screen, &reference[i].2, "user {} diverged", i);
            prop_assert_eq!(screen, format!("$ {text}"));
        }
    }
}

/// An endpoint whose first timer tick panics — the injected shard fault.
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
    snapshot::write_handoff(&path, &entries).expect("handoff written");
    let restored_entries = snapshot::read_handoff(&path)
        .expect("handoff read")
        .expect("handoff decodes");
    let _ = std::fs::remove_file(&path);
    assert_eq!(restored_entries, entries);

    let channels: Vec<SimChannel> = sids
        .iter()
        .map(|sid| {
            let (shard, local) = old_hub.location(*sid);
            let tok = old_hub.shard(shard).token_of(local);
            old_hub
                .shard_mut(shard)
                .poller_mut()
                .extract(tok)
                .expect("channel leaves the old process")
        })
        .collect();
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

    for (i, ((c, s), text)) in recs.iter().zip(texts.iter()).enumerate() {
        let (ref_c, ref_s, ref_screen) = &reference[i];
        assert_eq!(&c.log, ref_c, "user {i} client transcript diverged");
        assert_eq!(&s.log, ref_s, "user {i} server transcript diverged");
        let screen = c.inner.server_frame().row_text(0).to_string();
        assert_eq!(&screen, ref_screen);
        assert_eq!(screen, format!("$ {text}"));
    }
}
