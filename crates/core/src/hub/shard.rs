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
//! one lease. Per-session scheduling decisions are made by a
//! [`SessionDriver`] per session, and each simulated session lives in its
//! own discrete-event world, so a hub driving N sessions produces
//! **byte-identical per-session wire transcripts** to N hubs of one
//! (pinned by `tests/event_stepping.rs` and the replay identity suite).

use super::snapshot::{self, CheckpointStore};
use super::{HubSession, HubStats, SessionId};
use crate::session::{party_at, SessionDriver, SessionEvent};
use crate::Millis;
use mosh_net::{Addr, Channel, Datagram, Poller, Token};
use mosh_ssp::datagram::Opened;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// The unclaimed-datagram hook: called with datagrams no session claims
/// on its registered source, returning true to take ownership of the
/// wire (the sharded bounce path) instead of letting the hub count it
/// dropped.
pub type UnclaimedHook = Box<dyn FnMut(&Datagram) -> bool + Send>;

/// Everything that moves with a session in a live shard-to-shard
/// migration (see [`ServerHub::extract_session`]). The endpoints are
/// caller-owned and never move; the channel moves separately, via
/// [`Poller::extract`] for a private source.
pub struct ExtractedSession {
    /// Scheduling and silence bookkeeping, moved verbatim.
    pub driver: SessionDriver,
    /// The checkpoint-store key the session was tracked under, if crash
    /// recovery is on.
    pub ckpt_key: Option<usize>,
}

/// Registered per-session state that outlives any single pump.
struct Slot {
    token: Token,
    driver: SessionDriver,
    /// Generation of this session's live wheel entry; older entries in
    /// the heap are stale and skipped on pop.
    gen: u64,
    /// The earliest wakeup the session's endpoints reported when it was
    /// last re-armed — unclamped, unlike its wheel entry, which never
    /// lies past the pump's target. 0 until then, so a session's first
    /// pump ticks it.
    wakeup: Millis,
    /// False once removed; retired slots keep only this marker (ids are
    /// positional and never reused).
    live: bool,
    /// Crash-recovery bookkeeping, when this session is tracked by a
    /// [`CheckpointStore`] (see [`ServerHub::set_checkpoint_key`]).
    ckpt: Option<CkptState>,
}

/// One tracked session's checkpoint bookkeeping.
struct CkptState {
    /// Key in the shared store — a [`super::ShardedHub`]'s *global*
    /// session id, stable across migrations.
    key: usize,
    /// When the cadence last ran for this session (`None` = never: the
    /// first service after tracking starts checkpoints immediately, so
    /// a freshly added or migrated-in session always has a snapshot).
    last_at: Option<Millis>,
    /// Activity marker captured by the last stored checkpoint — an
    /// unchanged marker means the session saw no new traffic and the
    /// cadence skips the (comparatively expensive) re-encode.
    last_marker: Option<(u64, u64)>,
}

/// The timer wheel: a min-heap of `(due, session, generation)` with lazy
/// invalidation. Re-scheduling a session bumps its generation, so at most
/// one entry per session is live and a wakeup never scans the session
/// table.
#[derive(Default)]
struct TimerWheel {
    heap: BinaryHeap<Reverse<(Millis, usize, u64)>>,
}

impl TimerWheel {
    fn schedule(&mut self, due: Millis, session: usize, gen: u64) {
        self.heap.push(Reverse((due, session, gen)));
    }
}

/// Buffers one [`ServerHub::pump`] reuses across its wakeups, so the
/// event loop allocates per pump, not per wakeup or per datagram.
#[derive(Default)]
struct PumpScratch {
    /// Leases to re-tick after this wakeup's deliveries, and the same set
    /// as a per-lease flag (membership without scanning `woken`).
    woken: Vec<usize>,
    is_woken: Vec<bool>,
    /// [`ServerHub::route`]'s hinted candidates for one datagram.
    hinted: Vec<usize>,
}

impl PumpScratch {
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
    wheel: TimerWheel,
    /// Source-address routing hints learned from authenticated traffic:
    /// which session(s) last proved ownership of datagrams from this
    /// source. Only ever an *ordering* hint for the authentication
    /// fallback — never trusted on its own when addresses are ambiguous —
    /// and evicted when a session is removed.
    routes: HashMap<(Token, Addr), Vec<SessionId>>,
    stats: HubStats,
    /// Per-source unclaimed-datagram hooks (see
    /// [`ServerHub::set_unclaimed`]). A hooked token is a
    /// **distributor-shared** source: sessions owned by *other* shards
    /// also live behind it, so routing on it must always authenticate —
    /// a lone local candidate proves nothing, and a wire it cannot open
    /// belongs elsewhere and is handed to the hook (bounced), never
    /// silently fed to the wrong endpoint.
    unclaimed: Vec<(Token, UnclaimedHook)>,
    /// Crash-recovery configuration: the shared store checkpoints are
    /// written to and the cadence between checkpoints of one session.
    /// `None` (the default) disables the cadence entirely.
    checkpoints: Option<(CheckpointStore, Millis)>,
}

impl<P: Poller> ServerHub<P> {
    /// A hub over `poller` (register sources on it first or via
    /// [`ServerHub::poller_mut`]).
    pub fn new(poller: P) -> Self {
        ServerHub {
            poller,
            slots: Vec::new(),
            live_sessions: 0,
            wheel: TimerWheel::default(),
            routes: HashMap::new(),
            stats: HubStats::default(),
            unclaimed: Vec::new(),
            checkpoints: None,
        }
    }

    /// Turns on the crash-recovery checkpoint cadence: every tracked
    /// session (see [`ServerHub::set_checkpoint_key`]) is snapshotted
    /// into `store` at most every `cadence` ms of its own clock — and
    /// only when its activity marker moved, so idle sessions cost
    /// nothing. Each checkpoint caps the session's outgoing acks at the
    /// input it contains ([`crate::server::MoshServer::checkpoint_body`]),
    /// so anything the checkpoint misses, the client keeps retransmitting.
    pub fn enable_checkpointing(&mut self, store: CheckpointStore, cadence: Millis) {
        self.checkpoints = Some((store, cadence));
    }

    /// The store the checkpoint cadence writes to, when enabled.
    pub fn checkpoint_store(&self) -> Option<&CheckpointStore> {
        self.checkpoints.as_ref().map(|(s, _)| s)
    }

    /// Tracks `sid` in the checkpoint store under `key` (a sharded
    /// hub's *global* session id — stable across migrations). The next
    /// service of the session writes its first checkpoint immediately.
    pub fn set_checkpoint_key(&mut self, sid: SessionId, key: usize) {
        self.slots[sid.0].ckpt = Some(CkptState {
            key,
            last_at: None,
            last_marker: None,
        });
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
    pub(super) fn is_shared(&self, tok: Token) -> bool {
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
        self.add_session_with_driver(token, SessionDriver::new())
    }

    /// Registers a session that arrives with scheduling state already —
    /// the receiving half of a live migration: the driver (silence
    /// bookkeeping, outbox scratch) moves verbatim from the old shard,
    /// so the session's behavior is indistinguishable from never having
    /// moved.
    pub fn add_session_with_driver(&mut self, token: Token, driver: SessionDriver) -> SessionId {
        let sid = SessionId(self.slots.len());
        self.slots.push(Slot {
            token,
            driver,
            gen: 0,
            wakeup: 0,
            live: true,
            ckpt: None,
        });
        self.live_sessions += 1;
        sid
    }

    /// Retires a live session and hands back what moves with it: its
    /// wheel entries become stale, and every source-address route
    /// pointing at it is dropped, so a long-running hub's memory tracks
    /// *live* sessions. A route no session holds any more also leaves
    /// the substrate ([`mosh_net::Channel::evict_hint`] — a
    /// distributor's source hint), or later traffic from that address
    /// would keep being steered at a shard that no longer claims it.
    /// The channel itself stays registered: the router extracts it
    /// (private source) or re-homes the session onto the destination's
    /// shared source.
    ///
    /// Returns `None` if the session was already removed.
    pub fn extract_session(&mut self, sid: SessionId) -> Option<ExtractedSession> {
        let slot = &mut self.slots[sid.0];
        if !slot.live {
            return None;
        }
        slot.live = false;
        slot.gen += 1; // invalidate any queued wheel entry
        let driver = std::mem::take(&mut slot.driver);
        let ckpt_key = slot.ckpt.take().map(|c| c.key);
        self.live_sessions -= 1;
        let poller = &mut self.poller;
        self.routes.retain(|&(tok, addr), sids| {
            sids.retain(|s| *s != sid);
            if sids.is_empty() {
                poller.channel_mut(tok).evict_hint(addr);
            }
            !sids.is_empty()
        });
        Some(ExtractedSession { driver, ckpt_key })
    }

    /// Retires a session for good (the user logged out, the session
    /// timed out): [`ServerHub::extract_session`], with the driver state
    /// and the checkpoint dropped, so it never resurrects. The id is
    /// never reused; leasing a retired id panics.
    pub fn remove_session(&mut self, sid: SessionId) {
        let Some(ex) = self.extract_session(sid) else {
            return;
        };
        if let (Some(key), Some((store, _))) = (ex.ckpt_key, &self.checkpoints) {
            store.remove(key);
        }
    }

    /// Configures a session's peer-silence timeout (see
    /// [`SessionEvent::PeerTimeout`]); `None` disables.
    pub fn set_peer_timeout(&mut self, sid: SessionId, timeout: Option<Millis>) {
        self.slots[sid.0].driver.set_peer_timeout(timeout);
    }

    /// Number of sessions registered and not yet removed.
    pub fn session_count(&self) -> usize {
        self.live_sessions
    }

    /// The source a session lives on.
    pub fn token_of(&self, sid: SessionId) -> Token {
        self.slots[sid.0].token
    }

    /// Number of live sessions registered on source `tok` (migration
    /// feasibility: a private source moves shards only with *all* its
    /// co-located sessions, or not at all).
    pub fn sessions_on(&self, tok: Token) -> usize {
        self.slots
            .iter()
            .filter(|s| s.live && s.token == tok)
            .count()
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
    /// dropped like any unclaimed traffic.
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
    pub fn pump(&mut self, sessions: &mut [HubSession<'_, '_>]) -> Vec<(SessionId, SessionEvent)> {
        let mut events: Vec<(SessionId, SessionEvent)> = Vec::new();
        let mut scratch: Vec<SessionEvent> = Vec::new();
        let mut ps = PumpScratch {
            is_woken: vec![false; sessions.len()],
            ..PumpScratch::default()
        };

        // Where each leased session sits in `sessions`, and which leases
        // claim each (token, receive address): rebuilt per pump because
        // the caller may re-address parties between pumps (roaming).
        let mut pos: HashMap<SessionId, usize> = HashMap::new();
        let mut to_index: HashMap<(Token, Addr), Vec<usize>> = HashMap::new();
        for (i, s) in sessions.iter().enumerate() {
            assert!(self.slots[s.id.0].live, "session {:?} was removed", s.id);
            let prev = pos.insert(s.id, i);
            assert!(prev.is_none(), "session {:?} leased twice", s.id);
            let tok = self.slots[s.id.0].token;
            for p in s.parties.iter() {
                let entry = to_index.entry((tok, p.addr)).or_default();
                if !entry.contains(&i) {
                    entry.push(i);
                }
            }
        }

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
                .then(|| slot.driver.earliest_wakeup(sessions[i].parties, now))
                .filter(|&wakeup| wakeup > now);
            if idle.is_none() {
                self.tick(i, now, sessions, &mut events, &mut scratch);
            }
            self.rearm(i, now, sessions, idle);
        }

        // The event loop: always wake the earliest-due session, route
        // whatever arrived anywhere, re-arm everyone it woke.
        while let Some((due, sid)) = self.pop_due() {
            let Some(&i) = pos.get(&sid) else {
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
                match self.route(t2, &dg, sessions, &to_index, &mut ps.hinted) {
                    Some((j, opened)) => {
                        let sj = sessions[j].id;
                        scratch.clear();
                        let driver = &mut self.slots[sj.0].driver;
                        match opened {
                            // Ambiguous address: the routing probe already
                            // opened the datagram — deliver the plaintext
                            // token, never a second decrypt.
                            Some(op) => driver.deliver_opened(
                                sessions[j].parties,
                                at,
                                dg.from,
                                dg.to,
                                op,
                                &mut scratch,
                            ),
                            None => driver.deliver(sessions[j].parties, at, &dg, &mut scratch),
                        };
                        self.stats.delivered += 1;
                        events.extend(scratch.drain(..).map(|e| (sj, e)));
                        ps.wake(j);
                    }
                    None => {
                        let bounced = self
                            .unclaimed
                            .iter_mut()
                            .find(|(t, _)| *t == t2)
                            .is_some_and(|(_, hook)| hook(&dg));
                        if bounced {
                            self.stats.bounced += 1;
                        } else {
                            self.stats.dropped += 1;
                        }
                    }
                }
            }

            // The popped session is awake once its clock reached the
            // entry; a wait that ended early leaves it on the wheel as it
            // was, unless a delivery woke it. Traffic may have woken
            // others (shared sources). Timeout checks and re-ticks run in
            // lease order for determinism.
            if self.poller.now(tok) >= due {
                ps.wake(i);
            } else if !ps.is_woken[i] {
                self.wheel.schedule(due, sid.0, self.slots[sid.0].gen);
            }
            ps.woken.sort_unstable();
            for j in ps.woken.drain(..) {
                ps.is_woken[j] = false;
                let sj = sessions[j].id;
                let nowj = self.poller.now(self.slots[sj.0].token);
                scratch.clear();
                self.slots[sj.0]
                    .driver
                    .check_timeouts(sessions[j].parties, nowj, &mut scratch);
                events.extend(scratch.drain(..).map(|e| (sj, e)));
                if nowj < sessions[j].target {
                    self.tick(j, nowj, sessions, &mut events, &mut scratch);
                    self.rearm(j, nowj, sessions, None);
                }
            }
        }
        events
    }

    /// Ticks lease `i`'s parties at `now`, shipping their output on its
    /// source.
    fn tick(
        &mut self,
        i: usize,
        now: Millis,
        sessions: &mut [HubSession<'_, '_>],
        events: &mut Vec<(SessionId, SessionEvent)>,
        scratch: &mut Vec<SessionEvent>,
    ) {
        let sid = sessions[i].id;
        let Self { poller, slots, .. } = self;
        let slot = &mut slots[sid.0];
        let tok = slot.token;
        scratch.clear();
        // Each party's burst leaves as one batch — the sendmmsg-shaped
        // seam: the poller's substrate ships it whole when it can.
        slot.driver.tick_parties(
            sessions[i].parties,
            now,
            &mut |from, batch| poller.send_many(tok, from, batch),
            scratch,
        );
        events.extend(scratch.drain(..).map(|e| (sid, e)));
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
        mut known: Option<Millis>,
    ) {
        let sid = sessions[i].id;
        let Self {
            poller,
            slots,
            wheel,
            stats,
            checkpoints,
            ..
        } = self;
        let slot = &mut slots[sid.0];
        let tok = slot.token;

        // Crash-recovery cadence: when this session is tracked, due, and
        // saw traffic since its last checkpoint, snapshot it into the
        // shared store. Runs after the tick so the checkpoint contains
        // everything this service step shipped.
        if let (Some((store, cadence)), Some(ck)) = (checkpoints.as_ref(), slot.ckpt.as_mut()) {
            let due = ck
                .last_at
                .is_none_or(|at| now.saturating_sub(at) >= *cadence);
            if due {
                let marker = sessions[i]
                    .parties
                    .iter()
                    .find_map(|p| p.endpoint.activity_marker());
                if let Some(marker) = marker.filter(|m| ck.last_marker != Some(*m)) {
                    if let Some(body) = sessions[i]
                        .parties
                        .iter_mut()
                        .find_map(|p| p.endpoint.checkpoint(now))
                    {
                        let framed = snapshot::frame(&body);
                        stats.checkpoint_bytes += framed.len() as u64;
                        store.put(ck.key, framed, marker);
                        ck.last_marker = Some(marker);
                        known = None;
                    }
                }
                ck.last_at = Some(now);
            }
        }

        let wakeup = known.unwrap_or_else(|| slot.driver.earliest_wakeup(sessions[i].parties, now));
        if wakeup <= now {
            // The clamp to `now + 1` below is about to fire because of an
            // endpoint, not the substrate: a wakeup-contract violation.
            stats.overdue_wakeups += 1;
        }
        let next =
            slot.driver
                .next_step(wakeup, now, sessions[i].target, poller.next_event_time(tok));
        slot.wakeup = wakeup;
        slot.gen += 1;
        wheel.schedule(next, sid.0, slot.gen);
    }

    /// Pops the next live wheel entry, skipping stale generations.
    fn pop_due(&mut self) -> Option<(Millis, SessionId)> {
        while let Some(Reverse((due, s, gen))) = self.wheel.heap.pop() {
            if self.slots[s].gen == gen {
                return Some((due, SessionId(s)));
            }
        }
        None
    }

    /// Decides which leased session a datagram belongs to, returning the
    /// lease index and — when authentication had to decide — the
    /// already-opened datagram token.
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
    fn route(
        &mut self,
        tok: Token,
        dg: &Datagram,
        sessions: &mut [HubSession<'_, '_>],
        to_index: &HashMap<(Token, Addr), Vec<usize>>,
        hinted: &mut Vec<usize>,
    ) -> Option<(usize, Option<Opened>)> {
        let cands = to_index.get(&(tok, dg.to))?;
        if cands.len() == 1 && !self.is_shared(tok) {
            return Some((cands[0], None));
        }

        // Hinted candidates first (sessions that previously authenticated
        // traffic from this source), then the rest in lease order.
        hinted.clear();
        if let Some(sids) = self.routes.get(&(tok, dg.from)) {
            hinted.extend(
                sids.iter()
                    .filter_map(|sid| cands.iter().copied().find(|&j| sessions[j].id == *sid)),
            );
        }
        let hinted = &*hinted;
        let rest = cands.iter().copied().filter(|j| !hinted.contains(j));
        let (j, opened) = hinted.iter().copied().chain(rest).find_map(|j| {
            let p = party_at(sessions[j].parties, dg.to)?;
            Some((j, p.endpoint.try_open(&dg.payload)?))
        })?;

        self.stats.auth_routed += 1;
        let route = self.routes.entry((tok, dg.from)).or_default();
        if route.first() != Some(&sessions[j].id) {
            route.retain(|sid| *sid != sessions[j].id);
            route.insert(0, sessions[j].id);
        }
        Some((j, Some(opened)))
    }
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
    /// and acts every millisecond — `BulkSender`'s shape).
    #[derive(Default)]
    struct Recorder {
        at: Option<Millis>,
        every_ms: bool,
        ticks: Vec<Millis>,
        received: Vec<Millis>,
    }

    impl crate::session::Endpoint for Recorder {
        fn receive(&mut self, now: Millis, _: Addr, _: &[u8], _: &mut Vec<SessionEvent>) {
            self.received.push(now);
        }

        fn tick(&mut self, now: Millis, _: &mut Vec<(Addr, Vec<u8>)>, _: &mut Vec<SessionEvent>) {
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
