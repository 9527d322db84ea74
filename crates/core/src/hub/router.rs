//! The sharded multi-threaded hub runtime.
//!
//! [`ShardedHub`] scales the single-threaded [`ServerHub`] across cores:
//! N worker threads, each owning a **private** shard (poller + timer
//! wheel + sessions), fed by a sharding front end that assigns sessions
//! to shards at accept time. Nothing is locked on the datagram path —
//! sessions are independent worlds behind tokens, endpoints are `Send`,
//! and a shard's poller sources are touched by exactly one thread at a
//! time — so per-session behavior is **byte-identical to the
//! single-threaded hub for every shard count** (pinned by
//! `tests/sharded_hub.rs` and the sharded decrypt-once suite).
//!
//! Datagram routing is layered exactly as in one hub:
//!
//! * **Private sources** (a simulated world per session, or a socket per
//!   shard): the owning shard routes by receive address, source hint,
//!   and cryptographic authentication — the [`ServerHub`] demux,
//!   unchanged. Sessions sharing one source (many users behind one
//!   socket or one emulated NAT world) are co-located on that source's
//!   shard at accept time, so their ambiguous-address datagrams are
//!   still OCB-opened exactly once by the winning session's probe.
//! * **A source shared by all shards** (one UDP port for the whole
//!   server): a `mosh_net::UdpDistributor` owns the socket and feeds
//!   per-shard SPSC queues, routing by authenticated source hints; a
//!   datagram its first shard cannot authenticate is *bounced* back
//!   (via the shard's unclaimed-datagram hook, never counted dropped)
//!   and fanned out to the next shard. The winning shard's `try_open`
//!   probe keeps the verified plaintext — the `Opened` token is `Send`
//!   and crosses the shard boundary as the delivery itself, so the
//!   fan-out never decrypts a datagram twice.
//!
//! Worker threads are **persistent**: spawned once on the first
//! threaded pump and parked on their command channels between pumps
//! (spawn/join per pump would tax exactly the mostly-idle fleets SSP is
//! built for). Each pump sends every involved shard a job — a borrow of
//! that shard and its leases for the duration of the pump — and blocks
//! until every shard has replied, so the caller still owns every
//! endpoint and injects keystrokes between pumps, exactly as with one
//! hub. One shard runs inline (a `ShardedHub` of 1 *is* a `ServerHub`,
//! thread overhead included); dropping the hub shuts the workers down.
//!
//! A panicking endpoint costs its **shard**, not the hub: the worker
//! catches the panic, the shard is quarantined (its sessions stop; see
//! [`ShardedHub::shard_error`] and `HubStats::shard_panics`), and every
//! other shard keeps pumping.

use super::shard::ServerHub;
use super::snapshot::CheckpointStore;
use super::{HubSession, HubStats, SessionId};
use crate::session::SessionEvent;
use crate::Millis;
use mosh_net::{
    ChannelPoller, DistributorStatsHandle, FeedBouncer, FeedChannel, Poller, Token, UdpDistributor,
};
use std::collections::HashMap;
use std::io;
use std::net::UdpSocket;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// What one pump round hands a shard worker: type-erased borrows of the
/// shard and its lease vector, plus the monomorphized entry point that
/// knows their real types. Erasure is what lets the persistent workers
/// stay non-generic (one runtime type for every poller) and outlive any
/// single pump's lease lifetimes.
///
/// # Safety
///
/// The pointers borrow data owned by the pumping thread's stack frame.
/// Sending them is sound because [`ShardedHub::pump_inner`] blocks on
/// every dispatched shard's reply before returning — the borrows cannot
/// be outlived — and is `Send`-correct because jobs are only built in
/// the `P: Poller + Send` impl (checked by `assert_send` at the build
/// site, since erasure hides the payload types from the compiler).
struct PumpJob {
    run: unsafe fn(*mut (), *mut ()) -> Vec<(SessionId, SessionEvent)>,
    shard: *mut (),
    leases: *mut (),
}

// SAFETY: see the `# Safety` section above — the raw borrows a job
// carries live until the dispatching frame has collected the worker's
// reply, and the build site proves the erased payloads are `Send`.
unsafe impl Send for PumpJob {}

/// The monomorphized shim a [`PumpJob`] carries: recover the real types
/// and pump.
///
/// # Safety
///
/// `shard` must point at a live `ServerHub<P>` and `leases` at a live
/// `Vec<HubSession>`, each borrowed exclusively for this call (upheld by
/// the dispatch/reply protocol described on [`PumpJob`]).
unsafe fn pump_erased<P: Poller>(
    shard: *mut (),
    leases: *mut (),
) -> Vec<(SessionId, SessionEvent)> {
    let shard = &mut *(shard as *mut ServerHub<P>);
    let leases = &mut *(leases as *mut Vec<HubSession<'static, 'static>>);
    shard.pump(leases)
}

enum Command {
    Pump(PumpJob),
    Shutdown,
}

/// One pump's outcome from one worker: the shard's events, or the
/// message of the panic that killed it.
type PumpReply = Result<Vec<(SessionId, SessionEvent)>, String>;

/// One persistent shard worker: a parked thread plus its command and
/// reply channels.
struct ShardWorker {
    tx: SyncSender<Command>,
    reply: Receiver<PumpReply>,
    handle: Option<JoinHandle<()>>,
}

/// The persistent worker pool, spawned lazily on the first threaded
/// pump (a hub that only ever pumps one shard inline never starts a
/// thread). Dropping it is the clean shutdown: every worker is sent
/// [`Command::Shutdown`] and joined.
struct ShardRuntime {
    workers: Vec<ShardWorker>,
}

impl ShardRuntime {
    fn spawn(shards: usize) -> Self {
        let workers = (0..shards)
            .map(|i| {
                // Depth 1 is exact, not just bounded: the dispatch/reply
                // protocol keeps at most one command (and one reply) in
                // flight per worker, so neither send can ever block.
                let (tx, rx) = sync_channel::<Command>(1);
                let (reply_tx, reply) = sync_channel::<PumpReply>(1);
                let handle = std::thread::Builder::new()
                    .name(format!("mosh-shard-{i}"))
                    .spawn(move || worker_loop(rx, reply_tx))
                    // mosh-lint: allow(no-unwrap-hot-path): OS thread-spawn failure at the first threaded pump, before any session state exists to preserve
                    .expect("spawn shard worker");
                ShardWorker {
                    tx,
                    reply,
                    handle: Some(handle),
                }
            })
            .collect();
        ShardRuntime { workers }
    }
}

impl Drop for ShardRuntime {
    fn drop(&mut self) {
        for w in &self.workers {
            // A worker already gone (channel closed) is fine: the join
            // below reaps it either way.
            let _ = w.tx.send(Command::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// The worker body: park on the command channel, pump on demand, and
/// **always** reply — a caught panic becomes an `Err` reply, never a
/// missing one, because the pumping thread blocks on every reply before
/// releasing the borrows the job carries.
fn worker_loop(rx: Receiver<Command>, reply: SyncSender<PumpReply>) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Command::Pump(job) => {
                // SAFETY: the job was built this pump round from live
                // exclusive borrows (see `PumpJob`'s Safety section);
                // the dispatcher blocks on our reply before releasing
                // them, so the pointers are valid for this whole call.
                let result = catch_unwind(AssertUnwindSafe(|| unsafe {
                    (job.run)(job.shard, job.leases)
                }))
                .map_err(panic_message);
                if reply.send(result).is_err() {
                    // The hub is gone mid-pump (its thread is unwinding);
                    // nothing left to serve.
                    return;
                }
            }
            Command::Shutdown => return,
        }
    }
}

/// Renders a caught panic payload (`panic!` carries `&str` or `String`;
/// anything else is opaque).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The sharding front end: N worker threads, each a private [`ServerHub`].
pub struct ShardedHub<P: Poller> {
    shards: Vec<ServerHub<P>>,
    /// Global session id → (owning shard, its local id there). `None`
    /// is a tombstone: the session was removed, or lost with its
    /// quarantined shard. The *global* id is stable for a session's
    /// whole life — resurrection rewrites the mapping, not the id.
    sessions: Vec<Option<(usize, SessionId)>>,
    /// Accept-time assignment cursor (round-robin over healthy shards).
    next_shard: usize,
    /// The persistent worker pool, spawned on the first threaded pump
    /// and shut down (signal + join) when the hub drops.
    runtime: Option<ShardRuntime>,
    /// Per-shard quarantine: the panic message once an endpoint panic
    /// killed that shard's pump. A quarantined shard is skipped by later
    /// pumps — its state is suspect — while every other shard keeps
    /// serving its sessions.
    failed: Vec<Option<String>>,
    /// Live distributor counters when built over a shared socket
    /// ([`ShardedHub::over_distributor`]); folded into
    /// [`ShardedHub::stats`] so feed-queue shedding is operator-visible.
    dist_stats: Option<DistributorStatsHandle>,
    /// Crash-recovery config mirrored from the shards (see
    /// [`ShardedHub::enable_checkpointing`]): the shared store and the
    /// per-session checkpoint cadence.
    checkpoints: Option<(CheckpointStore, Millis)>,
    /// Sessions resurrected so far, folded into [`ShardedHub::stats`].
    resurrected: u64,
}

impl<P: Poller> ShardedHub<P> {
    /// A sharded hub over one poller per worker thread.
    pub fn new(pollers: Vec<P>) -> Self {
        assert!(!pollers.is_empty(), "a hub needs at least one shard");
        let n = pollers.len();
        ShardedHub {
            shards: pollers.into_iter().map(ServerHub::new).collect(),
            sessions: Vec::new(),
            next_shard: 0,
            runtime: None,
            failed: vec![None; n],
            dist_stats: None,
            checkpoints: None,
            resurrected: 0,
        }
    }

    /// A sharded hub of `n` shards built by `make` (e.g.
    /// `ShardedHub::with_shards(4, SimPoller::new)`).
    pub fn with_shards(n: usize, mut make: impl FnMut() -> P) -> Self {
        Self::new((0..n).map(|_| make()).collect())
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard (its poller carries network stats, socket addresses, …).
    pub fn shard(&self, i: usize) -> &ServerHub<P> {
        &self.shards[i]
    }

    /// Mutable shard access (register sources, rebind sockets, inject
    /// emulator traffic in tests, …).
    pub fn shard_mut(&mut self, i: usize) -> &mut ServerHub<P> {
        &mut self.shards[i]
    }

    /// Accepts a session living on its own private source: the session
    /// is assigned to a shard **at accept time** (round-robin over the
    /// shards that are not quarantined) and the source is registered on
    /// that shard's poller. Returns the global session id.
    pub fn add_session(&mut self, channel: P::Chan) -> SessionId {
        let shard = self.next_accept_shard();
        let tok = self.shards[shard].poller_mut().add(channel);
        self.add_session_on(shard, tok)
    }

    /// The one accept cursor: round-robin over the shards that are not
    /// quarantined (nothing pumps those, so a session accepted there
    /// would never be served). With every shard quarantined, plain
    /// round-robin.
    fn next_accept_shard(&mut self) -> usize {
        let n = self.shards.len();
        let shard = (0..n)
            .map(|k| (self.next_shard + k) % n)
            .find(|&i| self.failed[i].is_none())
            .unwrap_or(self.next_shard);
        self.next_shard = (shard + 1) % n;
        shard
    }

    /// Accepts a session sharing the source (and therefore the shard) of
    /// an existing session — many sessions behind one socket or one
    /// emulated world. Co-location is what keeps a shared source owned
    /// by exactly one thread; the shard's demux handles the ambiguity
    /// exactly as a single-threaded hub would.
    pub fn add_session_sharing(&mut self, with: SessionId) -> SessionId {
        let (shard, local) = self.location(with);
        let tok = self.shards[shard].token_of(local);
        self.add_session_on(shard, tok)
    }

    /// Accepts a session on an explicit shard and source token (the
    /// low-level accept path the other accessors build on).
    pub fn add_session_on(&mut self, shard: usize, tok: Token) -> SessionId {
        let sid = SessionId(self.sessions.len());
        self.sessions.push(None);
        self.place(sid, shard, tok);
        sid
    }

    /// Registers global session `sid` in a new slot on `shard`'s source
    /// `tok`, tracked for checkpoints under its global id when crash
    /// recovery is on.
    fn place(&mut self, sid: SessionId, shard: usize, tok: Token) {
        let local = self.shards[shard].add_session(tok);
        if self.checkpoints.is_some() {
            self.shards[shard].set_checkpoint_key(local, sid.0);
        }
        self.sessions[sid.0] = Some((shard, local));
    }

    /// Where a session on `shard`'s source `tok` lives once it moves to
    /// `target`: a distributor-shared source is swapped for the target's
    /// own, a private source's channel moves across. `None` when the
    /// target has no shared source or the poller cannot release the
    /// channel.
    fn rehome(&mut self, shard: usize, tok: Token, target: usize) -> Option<Token> {
        if self.shards[shard].is_shared(tok) {
            return self.shards[target].shared_source();
        }
        let chan = self.shards[shard].poller_mut().extract(tok)?;
        Some(self.shards[target].poller_mut().add(chan))
    }

    /// The shard a session lives on and its local id there. Panics for
    /// a removed (or lost-with-its-shard) session, like leasing one.
    pub fn location(&self, sid: SessionId) -> (usize, SessionId) {
        match self.sessions[sid.0] {
            Some(loc) => loc,
            // mosh-lint: allow(no-unwrap-hot-path): caller bug — using a retired SessionId, like an out-of-range token
            None => panic!("session {sid:?} was removed"),
        }
    }

    /// Retires a session (see [`ServerHub::remove_session`], which also
    /// evicts the distributor's source hints for its routes).
    pub fn remove_session(&mut self, sid: SessionId) {
        let Some((shard, local)) = self.sessions[sid.0].take() else {
            return; // already removed (idempotent, like the shard's own)
        };
        if self.failed[shard].is_some() {
            // The owning shard is quarantined: never dispatch into its
            // suspect state. Tombstoning the mapping is the removal —
            // the shard's sessions are no longer pumped anyway — and
            // dropping the checkpoint guarantees the session can't come
            // back through `resurrect_quarantined`.
            if let Some((store, _)) = &self.checkpoints {
                store.remove(sid.0);
            }
            return;
        }
        self.shards[shard].remove_session(local);
    }

    /// Configures a session's peer-silence timeout.
    pub fn set_peer_timeout(&mut self, sid: SessionId, timeout: Option<Millis>) {
        let (shard, local) = self.location(sid);
        self.shards[shard].set_peer_timeout(local, timeout);
    }

    /// Number of sessions registered and not yet removed, over all
    /// **healthy** shards — a quarantined shard's sessions are not being
    /// served (resurrect them to count again).
    pub fn session_count(&self) -> usize {
        self.shards
            .iter()
            .zip(self.failed.iter())
            .filter(|(_, f)| f.is_none())
            .map(|(s, _)| s.session_count())
            .sum()
    }

    /// Current time on a session's source clock.
    pub fn now(&self, sid: SessionId) -> Millis {
        let (shard, local) = self.location(sid);
        self.shards[shard].now(local)
    }

    /// Aggregated counters over all shards, the quarantine count, and —
    /// when the hub answers on a shared socket — the distributor's
    /// routing/shedding counters and hint gauge.
    pub fn stats(&self) -> HubStats {
        let mut total = HubStats::default();
        for s in &self.shards {
            total.add(s.stats());
        }
        total.shard_panics = self.failed.iter().filter(|f| f.is_some()).count() as u64;
        total.sessions_resurrected = self.resurrected;
        if let Some(h) = &self.dist_stats {
            let d = h.snapshot();
            total.feed_overflow = d.overflow;
            total.feed_bounced = d.bounced;
            total.feed_dropped = d.dropped;
            total.feed_send_failed = d.send_failed;
            total.feed_hints = h.hint_count() as u64;
        }
        total
    }

    /// The panic message that quarantined shard `i`, if any. A
    /// quarantined shard's sessions are no longer pumped (its state is
    /// suspect after the unwind); every other shard is unaffected.
    pub fn shard_error(&self, i: usize) -> Option<&str> {
        self.failed[i].as_deref()
    }

    /// Turns on crash recovery: every shard checkpoints its tracked
    /// sessions into one shared [`CheckpointStore`] at most every
    /// `cadence` ms of session time (idle sessions cost nothing — see
    /// [`ServerHub::enable_checkpointing`]). Sessions are tracked under
    /// their **global** ids, which survive resurrection.
    /// Returns a handle to the store (it is `Clone`; the hub keeps one).
    pub fn enable_checkpointing(&mut self, cadence: Millis) -> CheckpointStore {
        let store = CheckpointStore::new();
        for shard in &mut self.shards {
            shard.enable_checkpointing(store.clone(), cadence);
        }
        for (gid, entry) in self.sessions.iter().enumerate() {
            if let Some((shard, local)) = *entry {
                self.shards[shard].set_checkpoint_key(local, gid);
            }
        }
        self.checkpoints = Some((store.clone(), cadence));
        store
    }

    /// The shared checkpoint store, when crash recovery is on.
    pub fn checkpoint_store(&self) -> Option<&CheckpointStore> {
        self.checkpoints.as_ref().map(|(s, _)| s)
    }

    /// Crash recovery: re-registers every quarantined shard's sessions
    /// on healthy shards from their last checkpoints, returning each
    /// recovered session's global id and framed snapshot. The *caller*
    /// owns the endpoints, so rebuilding them is the caller's half:
    /// decode each snapshot with [`super::snapshot::resurrect_server`]
    /// (which burns the nonce gap a stale checkpoint demands) and lease
    /// the new endpoint under the same [`SessionId`] from the next pump
    /// on. Client endpoints never crashed and are kept as they are —
    /// input the checkpoint missed is still unacked (the checkpoint
    /// capped the acks), so the client retransmits it into the
    /// resurrected server like any Mosh loss episode.
    ///
    /// Sessions with no checkpoint (never serviced while checkpointing
    /// was on, or checkpointing off entirely) are **lost**: their
    /// mapping is tombstoned. Sessions sharing one private channel stay
    /// co-located on their new shard. The quarantined shards stay
    /// quarantined — their remaining state is still suspect.
    pub fn resurrect_quarantined(&mut self) -> Vec<(SessionId, Vec<u8>)> {
        let store = match &self.checkpoints {
            Some((store, _)) => store.clone(),
            None => return Vec::new(),
        };
        let healthy: Vec<usize> = (0..self.shards.len())
            .filter(|&i| self.failed[i].is_none())
            .collect();
        if healthy.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut rr = 0usize;
        // Where each dead shard's channel went, so co-located sessions
        // land together: (old shard, old token) → (new shard, new token).
        let mut rehomed: HashMap<(usize, Token), (usize, Token)> = HashMap::new();
        for gid in 0..self.sessions.len() {
            let Some((shard, local)) = self.sessions[gid] else {
                continue;
            };
            if self.failed[shard].is_none() {
                continue;
            }
            let Some(framed) = store.get(gid) else {
                self.sessions[gid] = None; // no checkpoint: lost
                continue;
            };
            let old_tok = self.shards[shard].token_of(local);
            let home = match rehomed.get(&(shard, old_tok)) {
                Some(&home) => home, // co-located sibling: follow the channel
                None => {
                    // A private channel survived the panic (the unwind was
                    // in endpoint code; the poller's sources were not
                    // mid-mutation), so it can be pulled out of the dead
                    // shard; its co-located siblings follow it.
                    let target = healthy[rr % healthy.len()];
                    rr += 1;
                    let Some(new_tok) = self.rehome(shard, old_tok, target) else {
                        self.sessions[gid] = None; // channel unrecoverable
                        continue;
                    };
                    if !self.shards[shard].is_shared(old_tok) {
                        rehomed.insert((shard, old_tok), (target, new_tok));
                    }
                    (target, new_tok)
                }
            };
            let timeout = self.shards[shard].peer_timeout(local); // the caller's setting
            self.place(SessionId(gid), home.0, home.1);
            self.set_peer_timeout(SessionId(gid), timeout);
            self.resurrected += 1;
            out.push((SessionId(gid), framed));
        }
        out
    }
}

impl<P: Poller + Send> ShardedHub<P> {
    /// Drives every leased session until its own target — each shard's
    /// sessions on that shard's worker thread — returning all events
    /// tagged by **global** session id, grouped by shard in shard order
    /// (cross-shard ordering carries no meaning: shards are independent
    /// worlds, exactly as a poller's sources already are).
    ///
    /// Per-session semantics are exactly [`ServerHub::pump`]'s; a hub of
    /// one shard pumps inline with no thread at all.
    pub fn pump(&mut self, sessions: &mut [HubSession<'_, '_>]) -> Vec<(SessionId, SessionEvent)> {
        self.pump_inner(sessions, None::<fn()>)
    }

    /// Like [`ShardedHub::pump`], running `side` on the calling thread
    /// *while* the shards pump — the seat of a `UdpDistributor` draining
    /// a shared socket for the duration of the pump. Because `side` must
    /// genuinely run concurrently (a blocked shard may be waiting on a
    /// datagram only `side` can feed it), every shard gets a worker
    /// thread here, even a lone one — the inline fast path belongs to
    /// [`ShardedHub::pump`] alone. Every shard is pumped, leased or not,
    /// quarantined or not, so one that serves no session still bounces
    /// what `side` feeds it (see [`ServerHub::pump`]).
    pub fn pump_with(
        &mut self,
        sessions: &mut [HubSession<'_, '_>],
        side: impl FnOnce(),
    ) -> Vec<(SessionId, SessionEvent)> {
        self.pump_inner(sessions, Some(side))
    }

    fn pump_inner(
        &mut self,
        sessions: &mut [HubSession<'_, '_>],
        side: Option<impl FnOnce()>,
    ) -> Vec<(SessionId, SessionEvent)> {
        // Partition leases by owning shard — quarantined shards are
        // skipped (their state is suspect after a caught panic; every
        // healthy shard keeps serving) — remembering the local→global
        // mapping for the event tags.
        let n = self.shards.len();
        let mut shard_leases: Vec<Vec<HubSession<'_, '_>>> = (0..n).map(|_| Vec::new()).collect();
        let mut to_global: Vec<HashMap<SessionId, SessionId>> =
            (0..n).map(|_| HashMap::new()).collect();
        for s in sessions.iter_mut() {
            let Some((shard, local)) = self.sessions[s.id.0] else {
                // mosh-lint: allow(no-unwrap-hot-path): caller bug — leasing a retired SessionId, like an out-of-range token
                panic!("session {:?} was removed", s.id);
            };
            if self.failed[shard].is_some() {
                continue;
            }
            to_global[shard].insert(local, s.id);
            shard_leases[shard].push(HubSession::new(local, &mut *s.parties, s.target));
        }

        if n == 1 && side.is_none() {
            // The inline fast path: no runtime, no thread — but the same
            // panic contract as the workers (an endpoint panic
            // quarantines the shard, it does not unwind the caller).
            let shard = &mut self.shards[0];
            let leases = &mut shard_leases[0];
            let events = match catch_unwind(AssertUnwindSafe(|| shard.pump(leases))) {
                Ok(events) => events,
                Err(payload) => {
                    self.failed[0] = Some(panic_message(payload));
                    Vec::new()
                }
            };
            return events
                .into_iter()
                .map(|(local, ev)| (to_global[0][&local], ev))
                .collect();
        }

        // The jobs carry type-erased borrows, so restate here what the
        // compiler can no longer see at the channel boundary: everything
        // a worker touches is Send.
        fn assert_send<T: Send>(_: &T) {}
        assert_send(&self.shards);
        assert_send(&shard_leases);

        // Dispatch one job per involved shard to the persistent workers
        // (spawned on first use), run `side` on this thread while they
        // pump, then block for every reply — the borrows the jobs carry
        // must not outlive this frame. Shards with no leases this pump
        // stay parked on their command channels, like unleased sessions —
        // except behind a shared socket, where every shard runs: an
        // unleased or quarantined one bounces what the distributor fed it
        // onward. A quarantined shard has no leases, so its pump touches
        // only its poller and its unclaimed hook, never its sessions.
        let shared = side.is_some();
        let runtime = self.runtime.get_or_insert_with(|| ShardRuntime::spawn(n)) as &ShardRuntime;
        let mut dispatched = vec![false; n];
        let mut new_failures: Vec<(usize, String)> = Vec::new();
        for (i, leases) in shard_leases.iter_mut().enumerate() {
            if leases.is_empty() && !shared {
                continue;
            }
            let job = PumpJob {
                run: pump_erased::<P>,
                shard: &mut self.shards[i] as *mut ServerHub<P> as *mut (),
                leases: leases as *mut Vec<HubSession<'_, '_>> as *mut (),
            };
            if runtime.workers[i].tx.send(Command::Pump(job)).is_ok() {
                dispatched[i] = true;
            } else {
                // The worker's thread is gone (torn down externally):
                // quarantine the shard like a panic and keep pumping
                // the others rather than taking down the whole hub.
                new_failures.push((i, "shard worker disconnected".to_string()));
            }
        }

        // `side` may itself panic (it is arbitrary caller code): the
        // replies must still be collected first, or the workers could
        // touch freed lease memory while this frame unwinds.
        let side_outcome = side.map(|f| catch_unwind(AssertUnwindSafe(f)));

        let mut per_shard: Vec<Vec<(SessionId, SessionEvent)>> = Vec::with_capacity(n);
        for (i, worker) in runtime.workers.iter().enumerate() {
            if !dispatched[i] {
                per_shard.push(Vec::new());
                continue;
            }
            per_shard.push(match worker.reply.recv() {
                Ok(Ok(events)) => events,
                Ok(Err(msg)) => {
                    new_failures.push((i, msg));
                    Vec::new()
                }
                // The worker died without replying — only possible if
                // its thread was torn down externally. Quarantine, same
                // as a panic.
                Err(_) => {
                    new_failures.push((i, "shard worker disconnected".to_string()));
                    Vec::new()
                }
            });
        }
        for (i, msg) in new_failures {
            // A quarantined shard keeps its first panic's message.
            self.failed[i].get_or_insert(msg);
        }
        if let Some(Err(payload)) = side_outcome {
            resume_unwind(payload);
        }

        per_shard
            .into_iter()
            .enumerate()
            .flat_map(|(i, events)| {
                let map = &to_global[i];
                events.into_iter().map(move |(local, ev)| (map[&local], ev))
            })
            .collect()
    }
}

impl ShardedHub<ChannelPoller<FeedChannel>> {
    /// A sharded hub whose shards all answer on **one** UDP socket: the
    /// socket is split into a [`UdpDistributor`] (drain it with
    /// [`UdpDistributor::pump`], typically inside
    /// [`ShardedHub::pump_with`]'s `side`) plus one queue-fed source per
    /// shard. Each shard's unclaimed-datagram hook is wired to bounce
    /// foreign wires back to the distributor, completing the cross-shard
    /// authentication fan-out.
    pub fn over_distributor(
        socket: UdpSocket,
        shards: usize,
    ) -> io::Result<(Self, UdpDistributor)> {
        let (dist, feeds) = UdpDistributor::new(socket, shards)?;
        let bouncers: Vec<FeedBouncer> = feeds.iter().map(FeedChannel::bouncer).collect();
        let mut hub = ShardedHub::new(feeds.into_iter().map(ChannelPoller::solo).collect());
        hub.dist_stats = Some(dist.stats_handle());
        for (shard, bouncer) in hub.shards.iter_mut().zip(bouncers) {
            // Only the shared source bounces; a private source's
            // unclaimed traffic is line noise, dropped as always. The
            // hook also marks the source shared, so the shard always
            // routes it by authentication — even with a single local
            // session, a foreign client's datagram must bounce onward
            // rather than be swallowed by the wrong endpoint.
            shard.set_unclaimed(Token(0), Box::new(move |dg| bouncer.bounce(dg)));
        }
        Ok((hub, dist))
    }

    /// Accepts a session behind the shared socket, on the shard the
    /// accept cursor picks (see [`ShardedHub::add_session`]).
    pub fn add_distributed_session(&mut self) -> SessionId {
        let shard = self.next_accept_shard();
        let Some(tok) = self.shards[shard].shared_source() else {
            // mosh-lint: allow(no-unwrap-hot-path): caller bug — accept time, before any session state exists
            panic!("no distributor: build with over_distributor");
        };
        self.add_session_on(shard, tok)
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
    use mosh_net::Addr;

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

    /// The whole sharded runtime is Send: shards (with their pollers,
    /// drivers, and boxed hooks) can move to worker threads.
    #[test]
    fn sharded_runtime_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ServerHub<SimPoller>>();
        assert_send::<ShardedHub<SimPoller>>();
        assert_send::<MoshClient>();
        assert_send::<MoshServer>();
        assert_send::<mosh_ssp::datagram::Opened>();
    }

    #[test]
    fn shards_drive_sessions_to_their_prompts_in_parallel() {
        for shards in [1usize, 2, 3] {
            let mut hub = ShardedHub::with_shards(shards, SimPoller::new);
            let mut users = Vec::new();
            let mut sids = Vec::new();
            for u in 0..5u8 {
                sids.push(hub.add_session(sim_world(u as u64)));
                users.push(pair(u + 1));
            }
            // Round-robin accept spreads sessions over every shard.
            assert_eq!(hub.session_count(), 5);
            assert!((0..5).all(|i| hub.location(sids[i]).0 == (i % shards)));

            let mut leases: Vec<Vec<Party<'_>>> = Vec::new();
            for (client, server) in users.iter_mut() {
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

            for (sid, (client, _)) in sids.iter().zip(users.iter()) {
                assert_eq!(client.server_frame().row_text(0), "$");
                assert_eq!(hub.now(*sid), 400);
            }
            assert!(events
                .iter()
                .any(|(_, e)| matches!(e, SessionEvent::FrameAdvanced { .. })));
            assert!(hub.stats().delivered > 0);
            assert_eq!(hub.stats().dropped, 0);

            // Round-robin accept spread real work over every shard.
            assert!((0..shards).all(|i| hub.shard(i).stats().wakeups > 0));
        }
    }

    /// An endpoint whose first timer tick panics — the injected fault
    /// for the quarantine tests.
    struct PanicEndpoint;

    impl crate::session::Endpoint for PanicEndpoint {
        fn receive(&mut self, _: Millis, _: Addr, _: &[u8], _: &mut Vec<SessionEvent>) {}

        fn tick(&mut self, _: Millis, _: &mut Vec<(Addr, Vec<u8>)>, _: &mut Vec<SessionEvent>) {
            panic!("injected endpoint panic");
        }

        fn next_wakeup(&self, now: Millis) -> Millis {
            now
        }
    }

    #[test]
    fn panicking_endpoint_quarantines_its_shard_not_the_hub() {
        let mut hub = ShardedHub::with_shards(2, SimPoller::new);
        // Round-robin: sessions 0 and 2 land on shard 0 (healthy pairs),
        // session 1 on shard 1 (the bomb).
        let healthy_a = hub.add_session(sim_world(1));
        let doomed = hub.add_session(sim_world(2));
        let healthy_b = hub.add_session(sim_world(3));
        assert_eq!(hub.location(doomed).0, 1);

        let (mut client_a, mut server_a) = pair(1);
        let (mut client_b, mut server_b) = pair(2);
        let mut bomb = PanicEndpoint;
        let mut parties_a = vec![Party::new(C, &mut client_a), Party::new(S, &mut server_a)];
        let mut parties_b = vec![Party::new(C, &mut client_b), Party::new(S, &mut server_b)];
        let mut parties_doomed = vec![Party::new(C, &mut bomb)];
        let mut sessions = vec![
            HubSession::new(healthy_a, &mut parties_a, 400),
            HubSession::new(doomed, &mut parties_doomed, 400),
            HubSession::new(healthy_b, &mut parties_b, 400),
        ];

        // The pump must return, not unwind: the panic costs shard 1 only.
        let events = hub.pump(&mut sessions);
        drop(sessions);
        assert!(events
            .iter()
            .all(|(sid, _)| *sid == healthy_a || *sid == healthy_b));
        assert_eq!(hub.stats().shard_panics, 1);
        assert_eq!(hub.shard_error(0), None);
        assert!(hub
            .shard_error(1)
            .expect("shard 1 quarantined")
            .contains("injected endpoint panic"));
        assert_eq!(client_a.server_frame().row_text(0), "$");
        assert_eq!(client_b.server_frame().row_text(0), "$");
        assert_eq!(hub.now(healthy_a), 400);

        // Later pumps skip the quarantined shard and keep serving the
        // healthy one.
        let mut parties_a = vec![Party::new(C, &mut client_a), Party::new(S, &mut server_a)];
        let mut parties_doomed = vec![Party::new(C, &mut bomb)];
        let mut sessions = vec![
            HubSession::new(healthy_a, &mut parties_a, 800),
            HubSession::new(doomed, &mut parties_doomed, 800),
        ];
        hub.pump(&mut sessions);
        drop(sessions);
        assert_eq!(hub.now(healthy_a), 800);
        assert_eq!(hub.stats().shard_panics, 1, "no second panic: skipped");

        // Without checkpointing there is nothing to resurrect: recovery
        // reports no sessions rather than half-restoring anything, and
        // removing the doomed session must not dispatch into the
        // quarantined shard's suspect state.
        assert!(hub.resurrect_quarantined().is_empty());
        assert_eq!(hub.stats().sessions_resurrected, 0);
        hub.remove_session(doomed);
        hub.remove_session(doomed); // idempotent on a tombstone
        assert_eq!(hub.session_count(), 2, "healthy shard's sessions only");
    }

    /// Nothing pumps a quarantined shard, so accept must not hand it
    /// new sessions: every one would wait forever, uncounted.
    #[test]
    fn accept_skips_quarantined_shards() {
        let mut hub = ShardedHub::with_shards(2, SimPoller::new);
        hub.add_session(sim_world(30));
        let doomed = hub.add_session(sim_world(31));
        let mut bomb = PanicEndpoint;
        hub.pump(&mut [HubSession::new(
            doomed,
            &mut [Party::new(C, &mut bomb)],
            100,
        )]);
        assert!(hub.shard_error(1).is_some());

        let sids: Vec<SessionId> = (0..4).map(|i| hub.add_session(sim_world(40 + i))).collect();
        assert!(sids.iter().all(|sid| hub.location(*sid).0 == 0));
        let mut users: Vec<_> = (0..4).map(|i| pair(40 + i)).collect();
        let mut leases: Vec<[Party<'_>; 2]> = users
            .iter_mut()
            .map(|(c, s)| [Party::new(C, c), Party::new(S, s)])
            .collect();
        let mut sessions: Vec<HubSession<'_, '_>> = leases
            .iter_mut()
            .zip(&sids)
            .map(|(parties, sid)| HubSession::new(*sid, parties, 400))
            .collect();
        hub.pump(&mut sessions);
        drop(sessions);
        drop(leases);
        for (client, _) in &users {
            assert_eq!(client.server_frame().row_text(0), "$");
        }
        assert_eq!(hub.session_count(), 5, "the first session and the four");
    }

    #[test]
    fn inline_single_shard_pump_also_contains_the_panic() {
        let mut hub = ShardedHub::with_shards(1, SimPoller::new);
        let doomed = hub.add_session(sim_world(4));
        let mut bomb = PanicEndpoint;
        let mut parties = vec![Party::new(C, &mut bomb)];
        let mut sessions = vec![HubSession::new(doomed, &mut parties, 100)];
        let events = hub.pump(&mut sessions);
        drop(sessions);
        assert!(events.is_empty());
        assert_eq!(hub.stats().shard_panics, 1);
        assert!(hub.shard_error(0).is_some());
    }

    #[test]
    fn feed_shedding_and_hints_surface_in_hub_stats() {
        use mosh_net::channel::{addr_from_socket, socket_from_addr};
        use std::net::UdpSocket;
        use std::time::Instant;

        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (mut hub, mut dist) = ShardedHub::over_distributor(socket, 1).unwrap();
        let server_addr = dist.local_addr();
        let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peer_addr = addr_from_socket(peer.local_addr().unwrap());

        // Nobody pumps the lone shard, so its bounded queue sheds past
        // FEED_CAPACITY — and the shedding must be visible through the
        // hub's stats, not just the distributor's. The flood goes out in
        // bursts, each taken off the socket before the next, so the
        // kernel's receive buffer drops none of it.
        let start = Instant::now();
        let (burst, mut sent) = (64, 0);
        while sent < mosh_net::FEED_CAPACITY + 2 {
            for _ in 0..burst {
                peer.send_to(b"flood", socket_from_addr(server_addr))
                    .unwrap();
            }
            sent += burst;
            while dist.stats().routed + hub.stats().feed_overflow < sent as u64 {
                assert!(
                    start.elapsed().as_secs() < 10,
                    "overflow never surfaced: {:?}",
                    hub.stats()
                );
                dist.pump(5);
            }
        }
        assert_eq!(
            hub.stats().feed_overflow,
            (sent - mosh_net::FEED_CAPACITY) as u64
        );
        assert_eq!(hub.stats().feed_hints, 0);

        // A shard reply teaches the distributor a source hint; the hub's
        // gauge tracks it.
        hub.shard_mut(0)
            .poller_mut()
            .send(Token(0), server_addr, peer_addr, b"reply".to_vec());
        assert_eq!(hub.stats().feed_hints, 1);
        assert_eq!(peer.recv_from(&mut [0u8; 64]).unwrap().0, 5);
    }

    #[test]
    fn refused_replies_surface_in_hub_stats() {
        use std::net::UdpSocket;

        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (mut hub, dist) = ShardedHub::over_distributor(socket, 2).unwrap();
        // The shared socket is IPv4: a reply to an IPv6 peer is refused
        // by the kernel, a lost datagram the hub must count, whichever
        // shard sent it.
        for shard in 0..2 {
            hub.shard_mut(shard).poller_mut().send(
                Token(0),
                dist.local_addr(),
                Addr::v6(1, 60001),
                b"reply".to_vec(),
            );
        }
        assert_eq!(hub.stats().feed_send_failed, 2);
    }

    #[test]
    fn sessions_sharing_a_world_are_co_located() {
        let mut hub = ShardedHub::with_shards(4, SimPoller::new);
        let first = hub.add_session(sim_world(7));
        let second = hub.add_session_sharing(first);
        let (shard_a, _) = hub.location(first);
        let (shard_b, _) = hub.location(second);
        assert_eq!(shard_a, shard_b, "one source, one owning thread");
        // And independent sessions still spread out.
        let third = hub.add_session(sim_world(8));
        assert_ne!(hub.location(third).0, shard_a);
    }

    /// Sessions sharing one private channel on a quarantined shard
    /// resurrect together: the channel moves once, to one healthy
    /// shard, and every session on it follows onto the same new token.
    #[test]
    fn co_located_sessions_resurrect_onto_one_shard_and_source() {
        let mut hub = ShardedHub::with_shards(3, SimPoller::new);
        hub.enable_checkpointing(50);
        hub.add_session(sim_world(50)); // shard 0
        let first = hub.add_session(sim_world(51)); // shard 1
        let second = hub.add_session_sharing(first);
        hub.add_session(sim_world(52)); // shard 2
        let (mut client_a, mut server_a) = pair(5);
        let (mut client_b, mut server_b) = pair(6);
        {
            // Both pairs share one world's addresses; the shard tells
            // them apart by key.
            let mut pa = vec![Party::new(C, &mut client_a), Party::new(S, &mut server_a)];
            let mut pb = vec![Party::new(C, &mut client_b), Party::new(S, &mut server_b)];
            hub.pump(&mut [
                HubSession::new(first, &mut pa, 300),
                HubSession::new(second, &mut pb, 300),
            ]);
        }
        let store = hub.checkpoint_store().expect("checkpointing on").clone();
        assert!(store.get(first.0).is_some() && store.get(second.0).is_some());

        let doomed = hub.add_session_sharing(first);
        hub.pump(&mut [HubSession::new(
            doomed,
            &mut [Party::new(C, &mut PanicEndpoint)],
            400,
        )]);
        assert!(hub.shard_error(1).is_some());

        let recovered = hub.resurrect_quarantined();
        let ids: Vec<SessionId> = recovered.iter().map(|(sid, _)| *sid).collect();
        assert_eq!(ids, [first, second], "the panicker had no checkpoint");
        let (shard_a, local_a) = hub.location(first);
        let (shard_b, local_b) = hub.location(second);
        assert_ne!(shard_a, 1, "off the quarantined shard");
        assert_eq!(shard_a, shard_b, "one channel, one owning shard");
        assert_eq!(
            hub.shard(shard_a).token_of(local_a),
            hub.shard(shard_b).token_of(local_b),
            "one channel, one new token"
        );
        assert_eq!(hub.stats().sessions_resurrected, 2);
    }

    /// A peer-silence timeout is the caller's setting, not the shard's:
    /// a session resurrected onto another shard still reports a client
    /// that fell silent, exactly as the same session does when nothing
    /// crashed.
    #[test]
    fn resurrection_keeps_the_peer_timeout() {
        use super::super::snapshot;

        let run = |crash: bool| {
            let mut hub = ShardedHub::with_shards(2, SimPoller::new);
            hub.enable_checkpointing(50);
            hub.add_session(sim_world(60)); // shard 0
            let victim = hub.add_session(sim_world(61)); // shard 1
            hub.set_peer_timeout(victim, Some(500));
            let (mut client, mut server) = pair(7);
            {
                let mut parties = vec![Party::new(C, &mut client), Party::new(S, &mut server)];
                hub.pump(&mut [HubSession::new(victim, &mut parties, 300)]);
            }
            if crash {
                let doomed = hub.add_session_sharing(victim);
                hub.pump(&mut [HubSession::new(
                    doomed,
                    &mut [Party::new(C, &mut PanicEndpoint)],
                    400,
                )]);
                let recovered = hub.resurrect_quarantined();
                assert_eq!(recovered.len(), 1);
                assert_eq!(hub.location(victim).0, 0);
                server = snapshot::resurrect_server(&recovered[0].1, Box::new(LineShell::new()))
                    .expect("checkpoint decodes");
            }
            // The client falls silent: only the server is leased.
            let events = hub.pump(&mut [HubSession::new(
                victim,
                &mut [Party::new(S, &mut server)],
                4_000,
            )]);
            events
                .iter()
                .filter(|(sid, e)| *sid == victim && matches!(e, SessionEvent::PeerTimeout { .. }))
                .count()
        };
        assert_eq!(run(false), 1, "undisturbed");
        assert_eq!(run(true), 1, "resurrected");
    }

    /// A shorter checkpoint cadence buys a fresher resurrection point,
    /// never fewer snapshot bytes: the same typing fleet checkpointed
    /// every 500 ms writes at least what it writes every 2 000 ms.
    #[test]
    fn a_shorter_cadence_never_writes_fewer_checkpoint_bytes() {
        let run = |cadence: Millis| {
            let mut hub = ShardedHub::with_shards(2, SimPoller::new);
            hub.enable_checkpointing(cadence);
            let sids: Vec<SessionId> = (0..4).map(|i| hub.add_session(sim_world(20 + i))).collect();
            let mut users: Vec<_> = (0..4).map(|i| pair(20 + i)).collect();
            for second in 1..=8u64 {
                let now = second * 1_000;
                let mut leases: Vec<[Party<'_>; 2]> = users
                    .iter_mut()
                    .map(|(c, s)| [Party::new(C, c), Party::new(S, s)])
                    .collect();
                let mut sessions: Vec<HubSession<'_, '_>> = leases
                    .iter_mut()
                    .zip(&sids)
                    .map(|(parties, sid)| HubSession::new(*sid, parties, now))
                    .collect();
                hub.pump(&mut sessions);
                drop(sessions);
                drop(leases);
                for (client, _) in users.iter_mut() {
                    client.keystroke(now, b"k");
                }
            }
            hub.stats().checkpoint_bytes
        };
        let (often, seldom) = (run(500), run(2_000));
        assert!(seldom > 0, "the cadence wrote snapshots");
        assert!(often >= seldom, "500 ms: {often} B, 2000 ms: {seldom} B");
    }

    /// The crash-recovery round trip (the tentpole's acceptance shape):
    /// a real session checkpoints on cadence, its shard is killed by a
    /// co-resident panicking endpoint, and resurrection brings it back
    /// on a healthy shard — same global id, client endpoint untouched,
    /// conversation continuing.
    #[test]
    fn quarantined_sessions_resurrect_from_checkpoints() {
        use super::super::snapshot;

        let mut hub = ShardedHub::with_shards(2, SimPoller::new);
        hub.enable_checkpointing(50);
        // Round-robin: bystander on shard 0, victim on shard 1.
        let bystander = hub.add_session(sim_world(11));
        let victim = hub.add_session(sim_world(12));
        let (mut client_b, mut server_b) = pair(3);
        let (mut client_v, mut server_v) = pair(4);

        // Reach the prompt, type, and let the cadence checkpoint the
        // typed-into state.
        {
            let mut pb = vec![Party::new(C, &mut client_b), Party::new(S, &mut server_b)];
            let mut pv = vec![Party::new(C, &mut client_v), Party::new(S, &mut server_v)];
            let mut sessions = vec![
                HubSession::new(bystander, &mut pb, 300),
                HubSession::new(victim, &mut pv, 300),
            ];
            hub.pump(&mut sessions);
        }
        client_v.keystroke(300, b"l");
        {
            let mut pb = vec![Party::new(C, &mut client_b), Party::new(S, &mut server_b)];
            let mut pv = vec![Party::new(C, &mut client_v), Party::new(S, &mut server_v)];
            let mut sessions = vec![
                HubSession::new(bystander, &mut pb, 600),
                HubSession::new(victim, &mut pv, 600),
            ];
            hub.pump(&mut sessions);
        }
        assert_eq!(client_v.server_frame().row_text(0), "$ l");
        assert!(hub.stats().checkpoint_bytes > 0, "cadence ran");
        let store = hub.checkpoint_store().expect("checkpointing on").clone();
        assert!(store.get(victim.0).is_some(), "victim has a checkpoint");

        // A bomb lands on the victim's shard and kills it mid-pump.
        let bomb_tok = hub.shard_mut(1).poller_mut().add(sim_world(13));
        let doomed = hub.add_session_on(1, bomb_tok);
        let mut bomb = PanicEndpoint;
        {
            let mut pv = vec![Party::new(C, &mut client_v), Party::new(S, &mut server_v)];
            let mut pd = vec![Party::new(C, &mut bomb)];
            let mut sessions = vec![
                HubSession::new(victim, &mut pv, 700),
                HubSession::new(doomed, &mut pd, 700),
            ];
            hub.pump(&mut sessions);
        }
        assert_eq!(hub.stats().shard_panics, 1);
        assert!(hub.shard_error(1).is_some());

        // Recovery: the victim resurrects from its checkpoint onto the
        // healthy shard; the bomb has no checkpoint and is lost.
        let seq_dead = server_v.next_seq();
        let recovered = hub.resurrect_quarantined();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].0, victim);
        assert_eq!(hub.location(victim).0, 0);
        assert_eq!(hub.stats().sessions_resurrected, 1);
        assert_eq!(hub.session_count(), 2, "bystander + resurrected victim");

        // The caller's half: rebuild the server endpoint from the
        // snapshot. The client endpoint never crashed and is kept as-is;
        // the resurrected server's nonces are strictly ahead of anything
        // the dead incarnation could have sent.
        let mut server_v2 = snapshot::resurrect_server(&recovered[0].1, Box::new(LineShell::new()))
            .expect("checkpoint decodes");
        assert!(server_v2.next_seq() > seq_dead, "nonce margin burned");
        drop(server_v);

        // The conversation continues: un-checkpointed tail retransmits,
        // new input round-trips through the resurrected endpoint.
        client_v.keystroke(700, b"s");
        {
            let mut pb = vec![Party::new(C, &mut client_b), Party::new(S, &mut server_b)];
            let mut pv = vec![Party::new(C, &mut client_v), Party::new(S, &mut server_v2)];
            let mut sessions = vec![
                HubSession::new(bystander, &mut pb, 2000),
                HubSession::new(victim, &mut pv, 2000),
            ];
            hub.pump(&mut sessions);
        }
        assert_eq!(client_v.server_frame().row_text(0), "$ ls");
        assert_eq!(
            client_b.server_frame().row_text(0),
            "$",
            "bystander untouched"
        );
    }
}
