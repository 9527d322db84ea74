//! The single-threaded multi-session runtime — one shard of the server.
//!
//! Mosh ships as one server process per session; the production-scale
//! question is what a front end hosting *many* SSP sessions behind one
//! event loop looks like. [`ServerHub`] is that front end (and, under a
//! [`super::ShardedHub`], one worker thread's private shard of it):
//!
//! * it owns one [`Poller`] (the readiness seam over any number of
//!   datagram sources — per-session emulated worlds, or one shared UDP
//!   socket),
//! * a **timer wheel** of per-session `next_wakeup`s, so a wakeup costs
//!   `O(log n)` heap work regardless of how many *other* sessions are
//!   idle — never a scan across the session table,
//! * and a demultiplexer that routes inbound datagrams to sessions by
//!   receive address, falling back to source address and finally to
//!   **cryptographic authentication** when addresses collide (two
//!   clients roamed behind one NAT address — the paper's §2.2 roaming
//!   rule, generalized: the address is a routing hint, the key is the
//!   identity, and plaintext is never misrouted). The authenticating
//!   probe is `Endpoint::try_open`, which *keeps* the verified
//!   plaintext: the winning session consumes the already-opened token,
//!   so an ambiguous-address datagram crosses AES-OCB **exactly once**
//!   under its own key (the decrypt-once receive pipeline). Datagrams
//!   are routed one at a time, in poll order, each against the hints the
//!   datagrams before it left: a source whose owner changes costs one
//!   failed probe, then the new owner is probed first.
//!
//! This is the tree's one session event loop: the single-session
//! [`crate::session::SessionLoop`] is a `ServerHub` with one source and
//! one lease. What the hub keeps for a session between pumps — its
//! source, its wheel generation, its peer-silence episodes, its latest
//! checkpoint and the cadence state that decides when to take the next,
//! its lease stamp (its place in the lease slice and the number of the
//! pump that leased it) — lives in one slot, indexed by the session's id,
//! and each simulated session lives in its own discrete-event world, so
//! a hub driving N sessions produces
//! **byte-identical per-session wire transcripts** to N hubs of one
//! (pinned by `tests/event_stepping.rs` and the replay identity suite).

use super::snapshot;
use super::{HubSession, HubStats, SessionId};
use crate::session::{Party, SessionEvent};
use crate::Millis;
use mosh_net::{Addr, Channel, Datagram, Poller, Token};
use mosh_ssp::datagram::Opened;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The unclaimed-datagram hook: called with datagrams no session claims
/// on its registered source, returning true to take ownership of the
/// wire (the sharded bounce path) instead of letting the hub count it
/// dropped.
pub type UnclaimedHook = Box<dyn FnMut(&Datagram) -> bool + Send>;

/// Registered per-session state that outlives any single pump: all the
/// hub keeps for one session, at the index of its [`SessionId`].
struct Slot {
    token: Token,
    /// Emit [`SessionEvent::PeerTimeout`] after this much peer silence;
    /// `None` disables.
    peer_timeout: Option<Millis>,
    /// Per party position in the lease: the `last_heard` value already
    /// reported, so each silence episode yields one
    /// [`SessionEvent::PeerTimeout`] however the party is re-addressed.
    reported_silence: Vec<Option<Millis>>,
    /// Generation of this session's live wheel entry; older entries in
    /// the heap are stale and skipped on pop.
    gen: u64,
    /// The earliest wakeup the session's endpoints reported when it was
    /// last re-armed — unclamped, unlike its wheel entry, which never
    /// lies past the pump's target. 0 until then, so a session's first
    /// pump ticks it.
    wakeup: Millis,
    /// False once removed: retired slots keep only this marker (ids are
    /// positional and never reused). Also false in the vacant slots a
    /// shard keeps for ids that live on other shards of a
    /// [`super::ShardedHub`] (which keeps no copy of this flag).
    live: bool,
    /// The session's latest checkpoint, out of line: `None` until the
    /// hub first checkpoints it (see [`ServerHub::enable_checkpointing`])
    /// and again once it is removed, so a hub that never checkpoints pays
    /// one pointer per slot.
    ckpt: Option<Box<CkptState>>,
    /// The lease stamp: this session's index in the lease slice of pump
    /// number `leased_in` — meaningless unless that is the current pump
    /// (see [`ServerHub::lease_of`]).
    lease: usize,
    leased_in: u64,
}

impl Slot {
    /// A slot on source `token`, not yet live.
    fn new(token: Token) -> Self {
        Slot {
            token,
            peer_timeout: None,
            reported_silence: Vec::new(),
            gen: 0,
            wakeup: 0,
            live: false,
            ckpt: None,
            lease: 0,
            leased_in: 0,
        }
    }

    /// Runs the peer-silence check at `now` (a no-op unless a timeout is
    /// configured), emitting one event per party per silence episode.
    fn check_timeouts(
        &mut self,
        parties: &[Party<'_>],
        now: Millis,
        events: &mut Vec<SessionEvent>,
    ) {
        let Some(limit) = self.peer_timeout else {
            return;
        };
        // Keyed by position, not address: a roam changes a party's
        // address mid-episode, never its place in the lease.
        self.reported_silence.resize(parties.len(), None);
        for (p, reported) in parties.iter().zip(self.reported_silence.iter_mut()) {
            // `None` means the endpoint does not track peer contact at
            // all (SSH/TCP endpoints, test instruments) — not "silent
            // since the epoch" — so it never times out. Detecting a peer
            // that was *never* reached is the caller's job.
            let Some(heard) = p.endpoint.last_heard() else {
                continue;
            };
            let silent_for = now.saturating_sub(heard);
            if silent_for < limit {
                // Contact is fresh; re-arm for the next episode.
                *reported = None;
            } else if *reported != Some(heard) {
                *reported = Some(heard);
                events.push(SessionEvent::PeerTimeout {
                    at: now,
                    silent_for,
                });
            }
        }
    }
}

/// One session's latest checkpoint, and when and at what activity the
/// cadence last ran for it.
#[derive(Default)]
struct CkptState {
    /// When the cadence last ran for this session (`None` once a crash
    /// resets it, so the restored session checkpoints at its first
    /// service, as a session with no checkpoint yet does).
    last_at: Option<Millis>,
    /// Activity marker captured by the last checkpoint — an unchanged
    /// marker means the session saw no new traffic and the cadence skips
    /// the (comparatively expensive) re-encode.
    last_marker: Option<(u64, u64)>,
    /// The checkpoint itself: [`snapshot::frame`] output.
    framed: Vec<u8>,
}

/// Buffers [`ServerHub::pump`] reuses across its wakeups and across
/// pumps, so a warm event loop allocates nothing per lease, wakeup or
/// datagram.
#[derive(Default)]
struct PumpScratch {
    /// Leases to re-tick after this wakeup's deliveries, and the same set
    /// as a per-lease flag (membership without scanning `woken`).
    woken: Vec<usize>,
    is_woken: Vec<bool>,
    /// Leases whose endpoint code panicked this pump: cut off until it
    /// ends (see [`ServerHub::contain`]).
    cut: Vec<bool>,
    /// [`ServerHub::route`]'s candidates for one datagram, in lease
    /// order.
    cands: Vec<usize>,
    /// The same candidates, in the order it probes them.
    probes: Vec<usize>,
    /// What the pump returns, and one endpoint call's events on the way.
    events: Vec<(SessionId, SessionEvent)>,
    scratch: Vec<SessionEvent>,
}

impl PumpScratch {
    /// Readies the per-lease flags for a pump of `leases` leases.
    fn reset(&mut self, leases: usize) {
        for flags in [&mut self.is_woken, &mut self.cut] {
            flags.clear();
            flags.resize(leases, false);
        }
    }

    fn wake(&mut self, lease: usize) {
        if !std::mem::replace(&mut self.is_woken[lease], true) {
            self.woken.push(lease);
        }
    }
}

/// The multi-session runtime: one poller, one timer wheel, N sessions.
pub struct ServerHub<P: Poller> {
    poller: P,
    slots: Vec<Slot>,
    live_sessions: usize,
    /// The timer wheel: a min-heap of `(due, session, generation)` with
    /// lazy invalidation. Re-scheduling a session bumps its generation,
    /// so at most one entry per session is live and a wakeup never scans
    /// the session table. Equal due times pop in session-id order.
    wheel: BinaryHeap<Reverse<(Millis, usize, u64)>>,
    /// Source-address routing hints learned from authenticated traffic:
    /// which session(s) last proved ownership of datagrams from this
    /// source. Only ever an *ordering* hint for the authentication
    /// fallback — never trusted on its own when addresses are ambiguous —
    /// and evicted when a session is removed.
    routes: HashMap<(Token, Addr), Vec<SessionId>>,
    /// Each source's registered sessions in id order, indexed by token:
    /// [`ServerHub::route`]'s candidates, read against the live lease.
    on_token: Vec<Vec<SessionId>>,
    /// Sessions removed since the last pump started: they leave
    /// `on_token` when the next one starts, so a lease a crash removes
    /// mid-pump keeps its candidacy until its pump ends, and its traffic
    /// stays dropped rather than rerouted.
    leaving: Vec<SessionId>,
    /// The number of the current (or last) pump, which stamps its leases.
    pump_no: u64,
    /// The buffers every pump reuses, taken out of the hub while one runs.
    scratch: PumpScratch,
    stats: HubStats,
    /// Per-source unclaimed-datagram hooks (see
    /// [`ServerHub::set_unclaimed`]). A hooked token is a
    /// **distributor-shared** source: sessions owned by *other* shards
    /// also live behind it, so routing on it must always authenticate —
    /// a lone local candidate proves nothing, and a wire it cannot open
    /// belongs elsewhere and is handed to the hook (bounced), never
    /// silently fed to the wrong endpoint.
    unclaimed: Vec<(Token, UnclaimedHook)>,
    /// The crash-recovery cadence: the least session time between two
    /// checkpoints of one session. `None` (the default) disables it.
    cadence: Option<Millis>,
}

impl<P: Poller> ServerHub<P> {
    /// A hub over `poller` (register sources on it first or via
    /// [`ServerHub::poller_mut`]).
    pub fn new(poller: P) -> Self {
        ServerHub {
            poller,
            slots: Vec::new(),
            live_sessions: 0,
            wheel: BinaryHeap::new(),
            routes: HashMap::new(),
            on_token: Vec::new(),
            leaving: Vec::new(),
            pump_no: 0,
            scratch: PumpScratch::default(),
            stats: HubStats::default(),
            unclaimed: Vec::new(),
            cadence: None,
        }
    }

    /// Turns on the crash-recovery checkpoint cadence: every session,
    /// whenever it was added, is snapshotted into its own slot — on its
    /// next service, then at most every `cadence` ms of its own clock,
    /// and only when its activity marker moved, so idle sessions cost
    /// nothing. Each checkpoint replaces the one before it and caps the
    /// session's outgoing acks at the input it contains
    /// ([`crate::server::MoshServer::checkpoint_body`]), so anything the
    /// checkpoint misses, the client keeps retransmitting.
    pub fn enable_checkpointing(&mut self, cadence: Millis) {
        self.cadence = Some(cadence);
    }

    /// Installs the unclaimed-datagram hook for source `tok`: wires no
    /// session claims there are offered to `hook` before being counted
    /// dropped; returning true takes the wire (counted bounced instead).
    /// A sharded front end uses this to return another shard's traffic
    /// to the distributor — the fan-out leg of the cross-shard
    /// authentication fallback.
    ///
    /// Installing a hook also marks `tok` as a **shared** source:
    /// datagrams on it are always routed by cryptographic
    /// authentication, never by the single-candidate fast path — a shard
    /// holding one session behind a distributor-shared socket must still
    /// bounce foreign clients' datagrams rather than swallow them.
    pub fn set_unclaimed(&mut self, tok: Token, hook: UnclaimedHook) {
        self.unclaimed.retain(|(t, _)| *t != tok);
        self.unclaimed.push((tok, hook));
    }

    /// True when `tok` is a distributor-shared source (it has an
    /// unclaimed-datagram hook), so routing on it must authenticate.
    fn is_shared(&self, tok: Token) -> bool {
        self.unclaimed.iter().any(|(t, _)| *t == tok)
    }

    /// This shard's distributor-shared source, if it has one.
    pub(super) fn shared_source(&self) -> Option<Token> {
        self.unclaimed.first().map(|(t, _)| *t)
    }

    /// Registers a session living on source `token`. Many sessions may
    /// share one token (a UDP socket serving hundreds of clients); a
    /// simulated session typically gets its own.
    pub fn add_session(&mut self, token: Token) -> SessionId {
        let sid = SessionId(self.slots.len());
        self.add_session_as(token, sid);
        sid
    }

    /// Registers a session on source `token` under `sid`, an id no slot
    /// here has held: a [`super::ShardedHub`]'s hub-wide id. The ids
    /// between the last one registered here and `sid` live on other
    /// shards; each keeps a vacant slot here, like a retired one.
    pub(crate) fn add_session_as(&mut self, token: Token, sid: SessionId) {
        assert!(
            sid.0 >= self.slots.len(),
            "session {sid:?} registered out of order"
        );
        self.slots.resize_with(sid.0 + 1, || Slot::new(token));
        self.slots[sid.0].live = true;
        self.live_sessions += 1;
        if self.on_token.len() <= token.0 {
            self.on_token.resize_with(token.0 + 1, Vec::new);
        }
        self.on_token[token.0].push(sid);
    }

    /// Retires a session for good (the user logged out, the session
    /// timed out, or crashed with no checkpoint): its wheel entries go
    /// stale, its checkpoint is dropped, and every source-address route
    /// to it is dropped, so memory tracks *live* sessions. A route no session
    /// holds any more also leaves the substrate
    /// ([`mosh_net::Channel::evict_hint`]), or later traffic from that
    /// address would keep being steered at this shard. The channel stays
    /// registered. The id is never reused; leasing a retired id panics.
    pub fn remove_session(&mut self, sid: SessionId) {
        let slot = &mut self.slots[sid.0];
        if !slot.live {
            return;
        }
        slot.live = false;
        slot.gen += 1; // invalidate any queued wheel entry
        slot.reported_silence = Vec::new();
        slot.ckpt = None;
        self.live_sessions -= 1;
        let poller = &mut self.poller;
        self.routes.retain(|&(tok, addr), sids| {
            sids.retain(|s| *s != sid);
            if sids.is_empty() {
                poller.channel_mut(tok).evict_hint(addr);
            }
            !sids.is_empty()
        });
        self.leaving.push(sid);
    }

    /// Configures a session's peer-silence timeout (see
    /// [`SessionEvent::PeerTimeout`]); `None` disables.
    pub fn set_peer_timeout(&mut self, sid: SessionId, timeout: Option<Millis>) {
        self.slots[sid.0].peer_timeout = timeout;
    }

    /// True while `sid` is registered here and not yet removed (or
    /// closed after a crash).
    pub(super) fn is_live(&self, sid: SessionId) -> bool {
        self.slots[sid.0].live
    }

    /// Number of sessions registered and not yet removed.
    pub fn session_count(&self) -> usize {
        self.live_sessions
    }

    /// The source a session lives on.
    pub fn token_of(&self, sid: SessionId) -> Token {
        self.slots[sid.0].token
    }

    /// Current time on a session's source clock.
    pub fn now(&self, sid: SessionId) -> Millis {
        self.poller.now(self.slots[sid.0].token)
    }

    /// Hub counters.
    pub fn stats(&self) -> HubStats {
        self.stats.clone()
    }

    /// The readiness seam (network stats, socket addresses, ...).
    pub fn poller(&self) -> &P {
        &self.poller
    }

    /// Mutable poller access (add sources, rebind sockets, register
    /// roamed emulator addresses, ...).
    pub fn poller_mut(&mut self) -> &mut P {
        &mut self.poller
    }

    /// Unwraps the poller.
    pub fn into_poller(self) -> P {
        self.poller
    }

    /// Drives every leased session until its own target, returning all
    /// events tagged by session, in the order they happened.
    ///
    /// Per session the order is tick → wait → deliver → check timeouts:
    /// deliveries *at* the target are processed, ticks at the target wait
    /// for the next pump (after the caller injects input), which is what
    /// keeps the schedule identical to a 1 ms reference loop (receive →
    /// inject → tick at each instant). Sessions left out of a pump are
    /// parked: their state persists, but datagrams arriving for them are
    /// dropped like any unclaimed traffic. A pump with no lease at all
    /// hands whatever its shared sources hold to their unclaimed hooks,
    /// so a shard that owns no session still passes its feed on.
    ///
    /// Each wakeup drains the poller one datagram at a time: `poll_any`,
    /// then `route` (hinted candidates first, one `try_open` per probe),
    /// then delivery to the winner (the raw wire, or the token its
    /// routing probe opened). The arrival time is the source clock when
    /// the datagram is polled.
    ///
    /// Only what is due is ticked. A session opens the pump with a tick
    /// only if the wakeup it reported when last re-armed has come, or its
    /// endpoints now report one that has (caller input since the last
    /// pump); and a wheel entry whose wait ended early — a real socket's
    /// traffic, for this session or another — goes back on the wheel
    /// untouched unless a delivery woke the session. By the wakeup
    /// contract every tick skipped this way was a no-op, and simulated
    /// substrates never end a wait early, so transcripts are unchanged.
    ///
    /// A panic in a session's endpoint code costs that session alone: it
    /// is cut off for the rest of the pump and reported as
    /// [`SessionEvent::Crashed`], and every other lease pumps on. A panic
    /// anywhere else — the poller, the wheel, the routing — unwinds the
    /// caller.
    pub fn pump(&mut self, sessions: &mut [HubSession<'_, '_>]) -> Vec<(SessionId, SessionEvent)> {
        while let Some(sid) = self.leaving.pop() {
            let listed = &mut self.on_token[self.slots[sid.0].token.0];
            if let Ok(k) = listed.binary_search(&sid) {
                listed.remove(k);
            }
        }
        self.pump_no += 1;
        if sessions.is_empty() && !self.unclaimed.is_empty() {
            // A zero-length wait marks each shared source ready, since
            // the poller only drains sources it has waited on.
            for k in 0..self.unclaimed.len() {
                let tok = self.unclaimed[k].0;
                let now = self.poller.now(tok);
                self.poller.wait_until(tok, now);
            }
            while let Some((tok, dg)) = self.poller.poll_any() {
                self.bounce_or_drop(tok, &dg);
            }
            return Vec::new();
        }
        // Stamp each lease's position into its slot. Routing reads the
        // parties' addresses off the live lease, so a party re-addressed
        // between pumps (roaming) needs no index of its own.
        for (i, s) in sessions.iter().enumerate() {
            let slot = &mut self.slots[s.id.0];
            assert!(slot.live, "session {:?} was removed", s.id);
            assert!(
                slot.leased_in != self.pump_no,
                "session {:?} leased twice",
                s.id
            );
            slot.lease = i;
            slot.leased_in = self.pump_no;
        }
        let mut ps = std::mem::take(&mut self.scratch);
        ps.reset(sessions.len());

        // Opening round: every session that has not reached its target is
        // re-armed at its current now, and ticked first if it is due. The
        // reported wakeup catches endpoints that act at the very instant
        // they named; the fresh one catches input injected since.
        for i in 0..sessions.len() {
            let slot = &self.slots[sessions[i].id.0];
            let now = self.poller.now(slot.token);
            if now >= sessions[i].target {
                continue;
            }
            let idle = (slot.wakeup > now)
                .then(|| {
                    self.contain(i, now, sessions, &mut ps, |_, lease, _| {
                        wakeup_of(lease, now)
                    })
                })
                .flatten()
                .filter(|&wakeup| wakeup > now);
            if idle.is_none() {
                self.tick(i, now, sessions, &mut ps);
            }
            self.rearm(i, now, sessions, &mut ps, idle);
        }

        // The event loop: always wake the earliest-due session, route
        // whatever arrived anywhere, re-arm everyone it woke.
        while let Some((due, sid)) = self.pop_due() {
            let Some(i) = self.lease_of(sid) else {
                // The wheel entry of a session left out of this pump: it
                // stays parked (this pump drops the entry; the session's
                // next pump re-arms it).
                continue;
            };
            self.stats.wakeups += 1;
            let tok = self.slots[sid.0].token;
            self.poller.wait_until(tok, due);

            // Route and deliver everything that arrived, on any source, in
            // poll order: each datagram's routing decision is made once,
            // against the hints every earlier datagram left behind.
            while let Some((t2, dg)) = self.poller.poll_any() {
                let at = self.poller.now(t2);
                match self.route(t2, &dg, at, sessions, &mut ps) {
                    // Routed to a lease cut off earlier in this pump.
                    Some((j, _)) if ps.cut[j] => self.stats.dropped += 1,
                    Some((j, opened)) => {
                        self.contain(j, at, sessions, &mut ps, |_, lease, events| {
                            let Some(p) = party_at(lease.parties, dg.to) else {
                                return;
                            };
                            match opened {
                                // Ambiguous address: the routing probe
                                // already opened the datagram — deliver the
                                // plaintext token, never a second decrypt.
                                Some(op) => p.endpoint.receive_opened(at, dg.from, op, events),
                                None => p.endpoint.receive(at, dg.from, &dg.payload, events),
                            }
                        });
                        self.stats.delivered += 1;
                        ps.wake(j);
                    }
                    None => self.bounce_or_drop(t2, &dg),
                }
            }

            // The popped session is awake once its clock reached the
            // entry; a wait that ended early leaves it on the wheel as it
            // was, unless a delivery woke it. Traffic may have woken
            // others (shared sources). Timeout checks and re-ticks run in
            // lease order for determinism.
            if self.poller.now(tok) >= due {
                ps.wake(i);
            } else if !ps.is_woken[i] && !ps.cut[i] {
                self.wheel
                    .push(Reverse((due, sid.0, self.slots[sid.0].gen)));
            }
            ps.woken.sort_unstable();
            for k in 0..ps.woken.len() {
                let j = ps.woken[k];
                ps.is_woken[j] = false;
                let nowj = self.poller.now(self.slots[sessions[j].id.0].token);
                self.contain(j, nowj, sessions, &mut ps, |hub, lease, events| {
                    hub.slots[lease.id.0].check_timeouts(lease.parties, nowj, events);
                });
                if nowj < sessions[j].target {
                    self.tick(j, nowj, sessions, &mut ps);
                    self.rearm(j, nowj, sessions, &mut ps, None);
                }
            }
            ps.woken.clear();
        }
        let events = std::mem::take(&mut ps.events);
        self.scratch = ps;
        events
    }

    /// Where `sid` sits in the current pump's lease slice, if this pump
    /// leased it.
    fn lease_of(&self, sid: SessionId) -> Option<usize> {
        let slot = &self.slots[sid.0];
        (slot.leased_in == self.pump_no).then_some(slot.lease)
    }

    /// Runs `call` — one call into lease `i`'s endpoint code, at its
    /// session clock `now` — so that a panic there costs that session
    /// alone. The events `call` appends are the lease's. Returns `None`
    /// without calling when the lease was already cut off this pump, and
    /// when the call panics: the lease is then cut off for the rest of
    /// the pump, its half-reported events dropped (see
    /// [`ServerHub::crash`]).
    fn contain<R>(
        &mut self,
        i: usize,
        now: Millis,
        sessions: &mut [HubSession<'_, '_>],
        ps: &mut PumpScratch,
        call: impl FnOnce(&mut Self, &mut HubSession<'_, '_>, &mut Vec<SessionEvent>) -> R,
    ) -> Option<R> {
        if ps.cut[i] {
            return None;
        }
        let lease = &mut sessions[i];
        ps.scratch.clear();
        match catch_unwind(AssertUnwindSafe(|| call(self, lease, &mut ps.scratch))) {
            Ok(r) => {
                ps.events
                    .extend(ps.scratch.drain(..).map(|e| (lease.id, e)));
                Some(r)
            }
            Err(_) => {
                ps.cut[i] = true;
                self.crash(lease.id, now, ps);
                None
            }
        }
    }

    /// Restores session `sid` in place after its endpoint code panicked
    /// at `at`, and reports it as [`SessionEvent::Crashed`] with a copy of
    /// its last checkpoint. Its wheel entries go stale and its next pump
    /// ticks the endpoint the caller leases in its place. The slot keeps
    /// the checkpoint but forgets when and at what activity it was taken,
    /// so that endpoint checkpoints again on its first service: a second
    /// crash then restores past every sequence number the first restored
    /// incarnation sent, and a crash before that service still carries the
    /// bytes it had. The peer-silence timeout and the route hints stay. A
    /// session with no checkpoint is closed instead
    /// ([`ServerHub::remove_session`]), as a crashed `mosh-server` is.
    fn crash(&mut self, sid: SessionId, at: Millis, ps: &mut PumpScratch) {
        self.stats.shard_panics += 1;
        let slot = &mut self.slots[sid.0];
        slot.gen += 1;
        slot.wakeup = 0;
        let checkpoint = slot.ckpt.as_deref_mut().map(|ck| {
            ck.last_at = None;
            ck.last_marker = None;
            ck.framed.clone()
        });
        if checkpoint.is_none() {
            self.remove_session(sid);
        }
        ps.events
            .push((sid, SessionEvent::Crashed { at, checkpoint }));
    }

    /// Hands a datagram no lease claims to `tok`'s unclaimed hook,
    /// counting it bounced if the hook takes it and dropped otherwise.
    fn bounce_or_drop(&mut self, tok: Token, dg: &Datagram) {
        let bounced = self
            .unclaimed
            .iter_mut()
            .find(|(t, _)| *t == tok)
            .is_some_and(|(_, hook)| hook(dg));
        if bounced {
            self.stats.bounced += 1;
        } else {
            self.stats.dropped += 1;
        }
    }

    /// Ticks lease `i`'s parties at `now`, in lease order, shipping each
    /// party's whole outbox on its source as **one** batch — the
    /// sendmmsg-shaped seam: the poller's substrate ships it whole when
    /// it can. A party that panics mid-tick ships nothing: its half-built
    /// batch unwinds with it.
    fn tick(
        &mut self,
        i: usize,
        now: Millis,
        sessions: &mut [HubSession<'_, '_>],
        ps: &mut PumpScratch,
    ) {
        self.contain(i, now, sessions, ps, |hub, lease, events| {
            let tok = hub.slots[lease.id.0].token;
            for p in lease.parties.iter_mut() {
                let mut out = Vec::new();
                p.endpoint.tick(now, &mut out, events);
                if !out.is_empty() {
                    hub.poller.send_many(tok, p.addr, out);
                }
            }
        });
    }

    /// Runs lease `i`'s checkpoint cadence at `now`, then schedules its
    /// next wakeup. `known` is the endpoints' wakeup at `now` when the
    /// caller has just asked for it and nothing has ticked since; it is
    /// asked again only if a checkpoint changes the endpoints first.
    fn rearm(
        &mut self,
        i: usize,
        now: Millis,
        sessions: &mut [HubSession<'_, '_>],
        ps: &mut PumpScratch,
        known: Option<Millis>,
    ) {
        let asked = self.contain(i, now, sessions, ps, |hub, lease, _| {
            let checkpointed = hub.checkpoint_if_due(now, lease);
            known
                .filter(|_| !checkpointed)
                .unwrap_or_else(|| wakeup_of(lease, now))
        });
        let Some(wakeup) = asked else {
            return;
        };
        if wakeup <= now {
            // The clamp to `now + 1` below is about to fire because of an
            // endpoint, not the substrate: a wakeup-contract violation.
            self.stats.overdue_wakeups += 1;
        }
        // The next instant anything can happen for this session, clamped
        // to `(now, target]`: the earliest endpoint wakeup, the
        // substrate's next scheduled event (if it can know one), or the
        // caller's target.
        let lease = &sessions[i];
        let slot = &mut self.slots[lease.id.0];
        let substrate = self.poller.next_event_time(slot.token);
        let next = substrate
            .map_or(wakeup, |t| t.min(wakeup))
            .min(lease.target)
            .max(now + 1);
        slot.wakeup = wakeup;
        slot.gen += 1;
        self.wheel.push(Reverse((next, lease.id.0, slot.gen)));
    }

    /// The crash-recovery cadence: when checkpointing is on and `lease` is
    /// due and saw traffic since its last checkpoint, snapshots it into
    /// its slot, returning whether it did. Runs after the tick so the
    /// checkpoint contains everything this service step shipped.
    fn checkpoint_if_due(&mut self, now: Millis, lease: &mut HubSession<'_, '_>) -> bool {
        let Some(cadence) = self.cadence else {
            return false;
        };
        let ckpt = &mut self.slots[lease.id.0].ckpt;
        if let Some(ck) = ckpt.as_deref_mut() {
            if ck
                .last_at
                .is_some_and(|at| now.saturating_sub(at) < cadence)
            {
                return false;
            }
            ck.last_at = Some(now);
        }
        let marker = lease
            .parties
            .iter()
            .find_map(|p| p.endpoint.activity_marker());
        let last_marker = ckpt.as_ref().and_then(|ck| ck.last_marker);
        let Some(marker) = marker.filter(|m| last_marker != Some(*m)) else {
            return false;
        };
        let Some(body) = lease
            .parties
            .iter_mut()
            .find_map(|p| p.endpoint.checkpoint(now))
        else {
            return false;
        };
        let framed = snapshot::frame(&body);
        self.stats.checkpoint_bytes += framed.len() as u64;
        let ck = ckpt.get_or_insert_default();
        ck.last_at = Some(now);
        ck.last_marker = Some(marker);
        ck.framed = framed;
        true
    }

    /// Pops the next live wheel entry, skipping stale generations.
    fn pop_due(&mut self) -> Option<(Millis, SessionId)> {
        while let Some(Reverse((due, s, gen))) = self.wheel.pop() {
            if self.slots[s].gen == gen {
                return Some((due, SessionId(s)));
            }
        }
        None
    }

    /// Decides which leased session a datagram that arrived at `at`
    /// belongs to, returning the lease index and — when authentication
    /// had to decide — the already-opened datagram token.
    ///
    /// 1. By receive address, on a **private** source only: if exactly
    ///    one lease claims `(token, to)`, it gets the raw datagram — the
    ///    single-session fast path, all a `SessionLoop` ever takes
    ///    (inauthentic line noise included: the endpoint rejects it
    ///    itself, keeping its counters byte-identical).
    /// 2. Ambiguous receive address (many sessions behind one socket), or
    ///    any datagram on a **distributor-shared** source (see
    ///    [`ServerHub::set_unclaimed`] — other shards' sessions live
    ///    behind it too, so even a lone local candidate proves nothing):
    ///    **authentication decides**, and the deciding decrypt is the only
    ///    one the datagram ever gets — `Endpoint::try_open` keeps the
    ///    verified plaintext, which `pump` then delivers to the winner as
    ///    an opened token. Source-address routes learned from earlier
    ///    authentic traffic order the candidates so the common case opens
    ///    against one key; roaming collisions degrade to trying every
    ///    candidate. No candidate authenticates → unclaimed: bounced to
    ///    the distributor when the source has a hook, dropped otherwise.
    ///
    /// The candidates are the leases of `tok`'s sessions with a party
    /// receiving on `to`, read off the live leases: a private source has
    /// one session, so its fast path is a slot read. A lease cut off this
    /// pump is never probed: a datagram on a private source with it as
    /// the only candidate is routed to it all the same, and `pump` drops
    /// it; otherwise only the live candidates can claim.
    fn route(
        &mut self,
        tok: Token,
        dg: &Datagram,
        at: Millis,
        sessions: &mut [HubSession<'_, '_>],
        ps: &mut PumpScratch,
    ) -> Option<(usize, Option<Opened>)> {
        ps.cands.clear();
        for &sid in self.on_token.get(tok.0)? {
            if let Some(j) = self.lease_of(sid) {
                if sessions[j].parties.iter().any(|p| p.addr == dg.to) {
                    ps.cands.push(j);
                }
            }
        }
        match ps.cands[..] {
            [] => return None,
            [j] if !self.is_shared(tok) => return Some((j, None)),
            _ => ps.cands.sort_unstable(),
        }

        // Hinted candidates first (sessions that previously authenticated
        // traffic from this source), then the rest in lease order.
        ps.probes.clear();
        if let Some(sids) = self.routes.get(&(tok, dg.from)) {
            ps.probes.extend(
                sids.iter()
                    .filter_map(|&sid| self.lease_of(sid))
                    .filter(|j| ps.cands.contains(j)),
            );
        }
        let hinted = ps.probes.len();
        for &j in &ps.cands {
            if !ps.probes[..hinted].contains(&j) {
                ps.probes.push(j);
            }
        }
        for k in 0..ps.probes.len() {
            let j = ps.probes[k];
            let opened = self.contain(j, at, sessions, ps, |_, lease, _| {
                party_at(lease.parties, dg.to)?
                    .endpoint
                    .try_open(&dg.payload)
            });
            if let Some(opened) = opened.flatten() {
                self.stats.auth_routed += 1;
                let sid = sessions[j].id;
                let route = self.routes.entry((tok, dg.from)).or_default();
                if route.first() != Some(&sid) {
                    route.retain(|s| *s != sid);
                    route.insert(0, sid);
                }
                return Some((j, Some(opened)));
            }
        }
        None
    }
}

/// The earliest wakeup `lease`'s endpoints report at `now` — by the
/// [`crate::session::Endpoint::next_wakeup`] contract `> now` right after
/// a tick, so a value `<= now` is an endpoint asking to spin (counted in
/// [`HubStats::overdue_wakeups`]).
fn wakeup_of(lease: &HubSession<'_, '_>, now: Millis) -> Millis {
    lease
        .parties
        .iter()
        .map(|p| p.endpoint.next_wakeup(now))
        .min()
        .unwrap_or(Millis::MAX)
}

/// The party receiving on `addr`, if any.
fn party_at<'a, 'e>(parties: &'a mut [Party<'e>], addr: Addr) -> Option<&'a mut Party<'e>> {
    parties.iter_mut().find(|p| p.addr == addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::LineShell;
    use crate::client::MoshClient;
    use crate::server::MoshServer;
    use crate::session::Party;
    use mosh_crypto::Base64Key;
    use mosh_net::{LinkConfig, Network, Side, SimChannel, SimPoller};
    use mosh_prediction::DisplayPreference;

    const C: Addr = Addr::new(1, 1000);
    const S: Addr = Addr::new(2, 60001);

    fn sim_world(seed: u64) -> SimChannel {
        let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), seed);
        net.register(C, Side::Client);
        net.register(S, Side::Server);
        SimChannel::new(net)
    }

    fn pair(key_byte: u8) -> (MoshClient, MoshServer) {
        let key = Base64Key::from_bytes([key_byte; 16]);
        (
            MoshClient::new(key.clone(), S, 80, 24, DisplayPreference::Never),
            MoshServer::new(key, Box::new(LineShell::new())),
        )
    }

    #[test]
    fn hub_drives_many_sessions_to_their_prompts() {
        let mut hub = ServerHub::new(SimPoller::new());
        let mut users: Vec<(SessionId, MoshClient, MoshServer)> = Vec::new();
        for u in 0..5u8 {
            let tok = hub.poller_mut().add(sim_world(u as u64));
            let sid = hub.add_session(tok);
            let (client, server) = pair(u + 1);
            users.push((sid, client, server));
        }

        // One pump drives all five sessions 400 virtual ms.
        let sids: Vec<SessionId> = users.iter().map(|(sid, _, _)| *sid).collect();
        let mut leases: Vec<Vec<Party<'_>>> = Vec::new();
        for (_, client, server) in users.iter_mut() {
            leases.push(vec![Party::new(C, client), Party::new(S, server)]);
        }
        let mut sessions: Vec<HubSession<'_, '_>> = leases
            .iter_mut()
            .zip(sids.iter())
            .map(|(parties, sid)| HubSession::new(*sid, parties, 400))
            .collect();
        let events = hub.pump(&mut sessions);
        drop(sessions);
        drop(leases);

        for (sid, client, _) in users.iter() {
            assert_eq!(
                client.server_frame().row_text(0),
                "$",
                "session {sid:?} reached its prompt"
            );
            assert_eq!(hub.now(*sid), 400, "its world advanced to the target");
        }
        assert!(
            events
                .iter()
                .any(|(_, e)| matches!(e, SessionEvent::FrameAdvanced { .. })),
            "prompt frames were reported"
        );
        assert!(hub.stats().delivered > 0);
        assert_eq!(hub.stats().dropped, 0);
    }

    #[test]
    fn removed_sessions_release_their_routes_and_cannot_be_leased() {
        let mut hub = ServerHub::new(SimPoller::new());
        let t1 = hub.poller_mut().add(sim_world(21));
        let t2 = hub.poller_mut().add(sim_world(22));
        let s1 = hub.add_session(t1);
        let s2 = hub.add_session(t2);
        assert_eq!(hub.session_count(), 2);

        let (mut c1, mut sv1) = pair(7);
        let mut p1 = [Party::new(C, &mut c1), Party::new(S, &mut sv1)];
        hub.pump(&mut [HubSession::new(s1, &mut p1, 300)]);
        assert_eq!(c1.server_frame().row_text(0), "$");

        hub.remove_session(s1);
        assert_eq!(hub.session_count(), 1);
        assert!(hub.routes.is_empty(), "routes for removed sessions evicted");
        hub.remove_session(s1); // idempotent

        // The survivor still pumps; leasing the retired id panics.
        let (mut c2, mut sv2) = pair(8);
        let mut p2 = [Party::new(C, &mut c2), Party::new(S, &mut sv2)];
        hub.pump(&mut [HubSession::new(s2, &mut p2, 300)]);
        assert_eq!(c2.server_frame().row_text(0), "$");

        let mut p1 = [Party::new(C, &mut c1), Party::new(S, &mut sv1)];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            hub.pump(&mut [HubSession::new(s1, &mut p1, 600)]);
        }));
        assert!(err.is_err(), "leasing a removed session must panic");
    }

    #[test]
    fn sessions_can_pump_to_different_targets() {
        let mut hub = ServerHub::new(SimPoller::new());
        let t1 = hub.poller_mut().add(sim_world(1));
        let t2 = hub.poller_mut().add(sim_world(2));
        let s1 = hub.add_session(t1);
        let s2 = hub.add_session(t2);
        let (mut c1, mut sv1) = pair(1);
        let (mut c2, mut sv2) = pair(2);

        let mut p1 = [Party::new(C, &mut c1), Party::new(S, &mut sv1)];
        let mut p2 = [Party::new(C, &mut c2), Party::new(S, &mut sv2)];
        hub.pump(&mut [
            HubSession::new(s1, &mut p1, 250),
            HubSession::new(s2, &mut p2, 700),
        ]);
        assert_eq!(hub.now(s1), 250);
        assert_eq!(hub.now(s2), 700);
    }

    /// A test endpoint that records when it is ticked and received on,
    /// and wants a tick at `at` (or, with `every_ms`, reports `now + 1`
    /// and acts every millisecond — `BulkSender`'s shape). With `crashes`
    /// its first tick panics.
    #[derive(Default)]
    struct Recorder {
        at: Option<Millis>,
        every_ms: bool,
        crashes: bool,
        ticks: Vec<Millis>,
        received: Vec<Millis>,
    }

    impl crate::session::Endpoint for Recorder {
        fn receive(&mut self, now: Millis, _: Addr, _: &[u8], _: &mut Vec<SessionEvent>) {
            self.received.push(now);
        }

        fn tick(&mut self, now: Millis, _: &mut Vec<(Addr, Vec<u8>)>, _: &mut Vec<SessionEvent>) {
            assert!(!self.crashes, "injected endpoint panic");
            self.ticks.push(now);
        }

        fn next_wakeup(&self, now: Millis) -> Millis {
            match self.at {
                _ if self.every_ms => now + 1,
                Some(at) if at > now => at,
                _ => Millis::MAX,
            }
        }
    }

    fn pump_recorders(
        hub: &mut ServerHub<impl Poller>,
        sids: &[SessionId],
        recorders: &mut [Recorder],
        addrs: &[Addr],
        targets: &[Millis],
    ) {
        let mut leases: Vec<[Party<'_>; 1]> = recorders
            .iter_mut()
            .zip(addrs)
            .map(|(r, &addr)| [Party::new(addr, r)])
            .collect();
        let mut sessions: Vec<HubSession<'_, '_>> = leases
            .iter_mut()
            .zip(sids.iter().zip(targets))
            .map(|(parties, (&sid, &target))| HubSession::new(sid, parties, target))
            .collect();
        hub.pump(&mut sessions);
    }

    #[test]
    fn a_pump_over_idle_sessions_ticks_none_of_them() {
        let mut hub = ServerHub::new(SimPoller::new());
        let sids: Vec<SessionId> = (0..64)
            .map(|i| {
                let tok = hub.poller_mut().add(sim_world(i));
                hub.add_session(tok)
            })
            .collect();
        let mut idle: Vec<Recorder> = (0..64).map(|_| Recorder::default()).collect();
        let addrs = vec![S; 64];
        // A session's first pump ticks it (it has reported nothing yet).
        pump_recorders(&mut hub, &sids, &mut idle, &addrs, &[100; 64]);
        assert!(idle.iter().all(|r| r.ticks == [0]));
        // From then on an idle session costs its wheel entry, no tick.
        pump_recorders(&mut hub, &sids, &mut idle, &addrs, &[200; 64]);
        pump_recorders(&mut hub, &sids, &mut idle, &addrs, &[300; 64]);
        assert!(idle.iter().all(|r| r.ticks == [0]), "idle sessions ticked");
        assert!(sids.iter().all(|&sid| hub.now(sid) == 300));
    }

    #[test]
    fn an_endpoint_acting_every_millisecond_keeps_its_schedule_across_pumps() {
        // It reports `now + 1` right after every tick and acts at once:
        // at a pump boundary only the wakeup it reported last (not a
        // fresh one) says its tick at the boundary is due.
        let run = |slices: &[Millis]| {
            let mut hub = ServerHub::new(SimPoller::new());
            let tok = hub.poller_mut().add(sim_world(1));
            let sid = hub.add_session(tok);
            let mut metronome = [Recorder {
                every_ms: true,
                ..Recorder::default()
            }];
            for &target in slices {
                pump_recorders(&mut hub, &[sid], &mut metronome, &[S], &[target]);
            }
            std::mem::take(&mut metronome[0].ticks)
        };
        let whole = run(&[30]);
        assert_eq!(whole, (0..30).collect::<Vec<Millis>>());
        assert_eq!(run(&[10, 20, 30]), whole);
        assert_eq!(run(&[1, 2, 7, 8, 29, 30]), whole);
    }

    #[test]
    #[should_panic(expected = "leased twice")]
    fn leasing_one_session_twice_in_one_pump_panics() {
        let mut hub = ServerHub::new(SimPoller::new());
        let tok = hub.poller_mut().add(sim_world(1));
        let sid = hub.add_session(tok);
        let mut recorders = [Recorder::default(), Recorder::default()];
        pump_recorders(&mut hub, &[sid, sid], &mut recorders, &[S, S], &[100, 100]);
    }

    #[test]
    fn a_session_left_out_of_a_pump_stays_parked_and_its_stale_lease_routes_nothing() {
        let mut hub = ServerHub::new(SimPoller::new());
        let ta = hub.poller_mut().add(sim_world(1));
        let tb = hub.poller_mut().add(sim_world(2));
        let sids = [hub.add_session(ta), hub.add_session(tb)];
        let mut recorders = [Recorder::default(), Recorder::default()];
        // Pump k leases a at index 0 and b at index 1, both on S.
        pump_recorders(&mut hub, &sids, &mut recorders, &[S, S], &[100, 100]);

        // A datagram for a reaches its world while a is left out...
        let net = hub.poller_mut().channel_mut(ta).network_mut();
        net.send(C, S, b"for a".to_vec());
        net.advance_to(150);
        // ...of pump k + 1, which leases b alone, at the index a's stale
        // stamp names.
        pump_recorders(&mut hub, &sids[1..], &mut recorders[1..], &[S], &[200]);

        let [a, b] = &recorders;
        assert!(b.received.is_empty(), "routed by a stale stamp");
        assert!(a.received.is_empty() && a.ticks == [0], "a was parked");
        assert_eq!((hub.stats().delivered, hub.stats().dropped), (0, 1));
        assert_eq!((hub.now(sids[0]), hub.now(sids[1])), (150, 200));
    }

    #[test]
    fn a_lease_a_crash_removes_stays_a_candidate_until_its_pump_ends() {
        // Two sessions behind S on one world, no checkpoints: the first
        // crashes in its opening tick, which removes it, and a datagram
        // for S arrives 1 ms later in the same pump.
        let mut hub = ServerHub::new(SimPoller::new());
        let tok = hub.poller_mut().add(sim_world(1));
        let sids = [hub.add_session(tok), hub.add_session(tok)];
        let net = hub.poller_mut().channel_mut(tok).network_mut();
        net.send(C, S, b"for either".to_vec());
        let mut recorders = [
            Recorder {
                crashes: true,
                ..Recorder::default()
            },
            Recorder::default(),
        ];
        pump_recorders(&mut hub, &sids, &mut recorders, &[S, S], &[100, 100]);

        // Two candidates still, so authentication decides, and the
        // survivor authenticates nothing: it is never handed the wire
        // as the lone candidate.
        assert_eq!(hub.session_count(), 1);
        assert!(recorders[1].received.is_empty(), "fed to the survivor");
        assert_eq!((hub.stats().delivered, hub.stats().dropped), (0, 1));
    }

    #[test]
    fn a_party_readdressed_between_pumps_is_routed_at_its_new_address() {
        const S2: Addr = Addr::new(2, 60002);
        let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), 1);
        net.register(C, Side::Client);
        net.register(S, Side::Server);
        net.register(S2, Side::Server);
        let mut hub = ServerHub::new(SimPoller::new());
        let tok = hub.poller_mut().add(SimChannel::new(net));
        let sid = hub.add_session(tok);
        let mut recorder = [Recorder::default()];
        pump_recorders(&mut hub, &[sid], &mut recorder, &[S], &[100]);

        // The party moves from S to S2; one datagram goes to each.
        let net = hub.poller_mut().channel_mut(tok).network_mut();
        net.send(C, S2, b"new".to_vec());
        net.send(C, S, b"old".to_vec());
        pump_recorders(&mut hub, &[sid], &mut recorder, &[S2], &[200]);

        assert_eq!(recorder[0].received, [101], "delivered at S2");
        assert_eq!((hub.stats().delivered, hub.stats().dropped), (1, 1));
    }

    /// Pumps the sessions in `live` (indices into `sids` and `users`) to
    /// `target`: client `i` on `clients[i]`, every server on `S`.
    fn pump_pairs(
        hub: &mut ServerHub<SimPoller>,
        sids: &[SessionId],
        users: &mut [(MoshClient, MoshServer)],
        clients: &[Addr],
        live: &[usize],
        target: Millis,
    ) {
        let mut leases: Vec<(SessionId, [Party<'_>; 2])> = users
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| live.contains(i))
            .map(|(i, (c, s))| (sids[i], [Party::new(clients[i], c), Party::new(S, s)]))
            .collect();
        let mut sessions: Vec<HubSession<'_, '_>> = leases
            .iter_mut()
            .map(|(sid, parties)| HubSession::new(*sid, parties, target))
            .collect();
        hub.pump(&mut sessions);
    }

    #[test]
    fn removing_sessions_behind_one_source_drops_exactly_their_hints() {
        // K sessions behind one server address, each client on its own
        // source: every server-bound datagram is routed by
        // authentication, and leaves a hint for its source.
        const K: usize = 4;
        let clients: Vec<Addr> = (0..K as u32).map(|i| Addr::new(10 + i, 1000)).collect();
        let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), 3);
        for &c in &clients {
            net.register(c, Side::Client);
        }
        net.register(S, Side::Server);
        let mut hub = ServerHub::new(SimPoller::new());
        let tok = hub.poller_mut().add(SimChannel::new(net));
        let sids: Vec<SessionId> = (0..K).map(|_| hub.add_session(tok)).collect();
        let mut users: Vec<(MoshClient, MoshServer)> = (1..=K as u8).map(pair).collect();
        let mut live: Vec<usize> = (0..K).collect();
        pump_pairs(&mut hub, &sids, &mut users, &clients, &live, 400);

        let mut target = 400;
        for gone in [2, 0, 3] {
            hub.remove_session(sids[gone]);
            live.retain(|&i| i != gone);
            let mut keys: Vec<(Token, Addr)> = hub.routes.keys().copied().collect();
            keys.sort();
            let survivors: Vec<(Token, Addr)> = live.iter().map(|&i| (tok, clients[i])).collect();
            assert_eq!(keys, survivors, "after removing session {gone}");
            for &i in &live {
                assert_eq!(hub.routes[&(tok, clients[i])], [sids[i]]);
            }

            if live.len() < 2 {
                break; // a lone session is routed by address, not by hint
            }
            // Each survivor types; its hint is probed first, so each
            // server-bound datagram is opened once, under its own key.
            for &i in &live {
                let now = hub.now(sids[i]);
                users[i].0.keystroke(now, b"x");
            }
            let opens = |users: &[(MoshClient, MoshServer)]| -> u64 {
                users.iter().map(|(_, s)| s.decrypt_count()).sum()
            };
            let (opened, routed) = (opens(&users), hub.stats().auth_routed);
            target += 500;
            pump_pairs(&mut hub, &sids, &mut users, &clients, &live, target);
            let routed = hub.stats().auth_routed - routed;
            assert!(routed >= live.len() as u64, "every survivor was heard");
            assert_eq!(opens(&users) - opened, routed, "a survivor lost its hint");
        }
        hub.remove_session(sids[1]);
        assert!(hub.routes.is_empty());
    }

    /// A hub with checkpointing on and `n` sessions, each on a world of
    /// its own, pumped to their prompts at 300 ms, which checkpoints each.
    fn checkpointed_hub(n: u8) -> (ServerHub<SimPoller>, Vec<SessionId>) {
        let mut hub = ServerHub::new(SimPoller::new());
        hub.enable_checkpointing(50);
        let sids: Vec<SessionId> = (0..n)
            .map(|i| {
                let tok = hub.poller_mut().add(sim_world(40 + i as u64));
                hub.add_session(tok)
            })
            .collect();
        let mut users: Vec<(MoshClient, MoshServer)> = (1..=n).map(pair).collect();
        let live: Vec<usize> = (0..n as usize).collect();
        pump_pairs(
            &mut hub,
            &sids,
            &mut users,
            &vec![C; live.len()],
            &live,
            300,
        );
        (hub, sids)
    }

    /// The checkpoint `sid`'s slot holds.
    fn checkpoint_of(hub: &ServerHub<SimPoller>, sid: SessionId) -> Option<Vec<u8>> {
        hub.slots[sid.0].ckpt.as_ref().map(|ck| ck.framed.clone())
    }

    #[test]
    fn removing_a_session_frees_its_checkpoint_and_no_other() {
        let (mut hub, sids) = checkpointed_hub(3);
        let before: Vec<Option<Vec<u8>>> = sids.iter().map(|&s| checkpoint_of(&hub, s)).collect();
        assert!(
            before.iter().all(Option::is_some),
            "each session checkpointed"
        );
        hub.remove_session(sids[1]);
        let after: Vec<Option<Vec<u8>>> = sids.iter().map(|&s| checkpoint_of(&hub, s)).collect();
        assert_eq!(after, [before[0].clone(), None, before[2].clone()]);
    }

    #[test]
    fn a_crash_before_the_restored_session_checkpoints_carries_the_last_checkpoint() {
        let (mut hub, sids) = checkpointed_hub(1);
        let last = checkpoint_of(&hub, sids[0]);
        assert!(last.is_some());
        // The first crash, then one in the first tick of what the caller
        // leases in its place, before that can checkpoint again: both
        // carry the bytes the slot had, and the session stays.
        for target in [400, 500] {
            let mut restored = Recorder {
                every_ms: true,
                crashes: true,
                ..Recorder::default()
            };
            let events = hub.pump(&mut [HubSession::new(
                sids[0],
                &mut [Party::new(S, &mut restored)],
                target,
            )]);
            assert!(
                matches!(&events[..], [(sid, SessionEvent::Crashed { checkpoint, .. })]
                    if *sid == sids[0] && *checkpoint == last),
                "pump to {target}: {events:?}"
            );
        }
        assert_eq!(hub.stats().shard_panics, 2);
        assert_eq!(hub.session_count(), 1);
        assert_eq!(checkpoint_of(&hub, sids[0]), last);
    }

    #[test]
    fn a_session_woken_early_by_another_sessions_datagram_is_not_ticked() {
        use mosh_net::{UdpChannel, UdpPoller};

        // Two real sockets on one poller. The alarm wants one tick, at
        // 250 ms; the listener wants none. A datagram for the listener
        // ends the wait the alarm's wheel entry is in, at ~50 ms.
        let mut hub = ServerHub::new(UdpPoller::new());
        let alarm_tok = hub
            .poller_mut()
            .add(UdpChannel::bind("127.0.0.1:0").unwrap());
        let listener_tok = hub
            .poller_mut()
            .add(UdpChannel::bind("127.0.0.1:0").unwrap());
        let addrs = [
            hub.poller().channel(alarm_tok).local_addr(),
            hub.poller().channel(listener_tok).local_addr(),
        ];
        let sids = [hub.add_session(alarm_tok), hub.add_session(listener_tok)];
        let alarm_at = hub.now(sids[0]) + 250;
        let mut recorders = [
            Recorder {
                at: Some(alarm_at),
                ..Recorder::default()
            },
            Recorder::default(),
        ];
        let to = mosh_net::channel::socket_from_addr(addrs[1]);
        let sender = std::thread::spawn(move || {
            let peer = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
            std::thread::sleep(std::time::Duration::from_millis(50));
            peer.send_to(b"for the listener", to).unwrap();
        });
        let targets = [hub.now(sids[0]) + 400, hub.now(sids[1]) + 400];
        pump_recorders(&mut hub, &sids, &mut recorders, &addrs, &targets);
        sender.join().unwrap();

        let [alarm, listener] = &recorders;
        assert_eq!(listener.received.len(), 1, "the datagram arrived");
        assert!(listener.received[0] < alarm_at, "and woke the hub early");
        // The listener: its opening tick, then one after its delivery.
        assert_eq!(listener.ticks.len(), 2);
        // The alarm: its opening tick, then its own, never in between.
        assert_eq!(alarm.ticks.len(), 2, "alarm ticks: {:?}", alarm.ticks);
        assert!(alarm.ticks[1] >= alarm_at);
    }
}
