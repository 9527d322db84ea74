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
//! Sessions never move between shards: a session lives on the shard that
//! accepted it until it is removed, and the shard knows it by the same
//! hub-wide [`SessionId`] the caller does — its slot there sits at that
//! index, and each id that lives on another shard leaves a vacant slot
//! behind, like a removed session's. Leases and events carry one id all
//! the way down, with no translation, and a session's checkpoint lives
//! in its slot, which no other shard touches. The front end keeps each
//! id's shard, fixed at accept; whether it lives, only the shard that
//! removes or closes it says.
//!
//! A panicking endpoint costs its **session** alone, inside its shard's
//! pump (see [`ServerHub::pump`]): the caller restores it in place from
//! the checkpoint its [`SessionEvent::Crashed`] carries. Any other panic
//! in a shard's pump is a hub bug. The worker still catches it, because
//! the borrows a pump job carries need every reply collected, and the
//! pumping thread resumes it once all replies are in.

use super::shard::ServerHub;
use super::{HubSession, HubStats, SessionId};
use crate::session::SessionEvent;
use crate::Millis;
use mosh_net::{
    ChannelPoller, DistributorStatsHandle, FeedBouncer, FeedChannel, Poller, Token, UdpDistributor,
};
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
/// panic its pump raised outside any endpoint's code.
type PumpReply = std::thread::Result<Vec<(SessionId, SessionEvent)>>;

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
/// releasing the borrows the job carries (and then resumes the panic).
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
                }));
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

/// The sharding front end: N worker threads, each a private [`ServerHub`].
pub struct ShardedHub<P: Poller> {
    shards: Vec<ServerHub<P>>,
    /// Session id → the shard that registered it under that same id,
    /// written at accept and never changed, removed or not.
    sessions: Vec<usize>,
    /// Accept-time assignment cursor (round-robin).
    next_shard: usize,
    /// The persistent worker pool, spawned on the first threaded pump
    /// and shut down (signal + join) when the hub drops.
    runtime: Option<ShardRuntime>,
    /// Live distributor counters when built over a shared socket
    /// ([`ShardedHub::over_distributor`]); folded into
    /// [`ShardedHub::stats`] so feed-queue shedding is operator-visible.
    dist_stats: Option<DistributorStatsHandle>,
}

impl<P: Poller> ShardedHub<P> {
    /// A sharded hub over one poller per worker thread.
    pub fn new(pollers: Vec<P>) -> Self {
        assert!(!pollers.is_empty(), "a hub needs at least one shard");
        ShardedHub {
            shards: pollers.into_iter().map(ServerHub::new).collect(),
            sessions: Vec::new(),
            next_shard: 0,
            runtime: None,
            dist_stats: None,
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
    /// is assigned to a shard **at accept time** (round-robin) and the
    /// source is registered on that shard's poller. Returns the session
    /// id.
    pub fn add_session(&mut self, channel: P::Chan) -> SessionId {
        let shard = self.next_accept_shard();
        let tok = self.shards[shard].poller_mut().add(channel);
        self.add_session_on(shard, tok)
    }

    /// The one accept cursor: round-robin over the shards.
    fn next_accept_shard(&mut self) -> usize {
        let shard = self.next_shard;
        self.next_shard = (shard + 1) % self.shards.len();
        shard
    }

    /// Accepts a session sharing the source (and therefore the shard) of
    /// an existing session — many sessions behind one socket or one
    /// emulated world. Co-location is what keeps a shared source owned
    /// by exactly one thread; the shard's demux handles the ambiguity
    /// exactly as a single-threaded hub would.
    pub fn add_session_sharing(&mut self, with: SessionId) -> SessionId {
        let shard = self.location(with);
        let tok = self.shards[shard].token_of(with);
        self.add_session_on(shard, tok)
    }

    /// Accepts a session on an explicit shard and source token (the
    /// low-level accept path the other accessors build on). The shard
    /// registers it under the id returned here.
    pub fn add_session_on(&mut self, shard: usize, tok: Token) -> SessionId {
        let sid = SessionId(self.sessions.len());
        self.shards[shard].add_session_as(tok, sid);
        self.sessions.push(shard);
        sid
    }

    /// The shard a session lives on; its id there is its own. Panics for
    /// a removed (or closed after a crash) session, like leasing one.
    pub fn location(&self, sid: SessionId) -> usize {
        let shard = self.sessions[sid.0];
        if !self.shards[shard].is_live(sid) {
            // mosh-lint: allow(no-unwrap-hot-path): caller bug — using a retired SessionId, like an out-of-range token
            panic!("session {sid:?} was removed");
        }
        shard
    }

    /// Retires a session, once (see [`ServerHub::remove_session`], which
    /// also evicts the distributor's source hints for its routes).
    pub fn remove_session(&mut self, sid: SessionId) {
        self.shards[self.sessions[sid.0]].remove_session(sid);
    }

    /// Configures a session's peer-silence timeout.
    pub fn set_peer_timeout(&mut self, sid: SessionId, timeout: Option<Millis>) {
        let shard = self.location(sid);
        self.shards[shard].set_peer_timeout(sid, timeout);
    }

    /// Number of sessions registered and not yet removed, over all
    /// shards.
    pub fn session_count(&self) -> usize {
        self.shards.iter().map(ServerHub::session_count).sum()
    }

    /// Current time on a session's source clock.
    pub fn now(&self, sid: SessionId) -> Millis {
        self.shards[self.location(sid)].now(sid)
    }

    /// Aggregated counters over all shards and — when the hub answers on
    /// a shared socket — the distributor's routing/shedding counters and
    /// hint gauge.
    pub fn stats(&self) -> HubStats {
        let mut total = HubStats::default();
        for s in &self.shards {
            total.add(s.stats());
        }
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

    /// Turns on crash recovery: every shard checkpoints its sessions —
    /// those already added and those added later — each into its own
    /// slot on its shard, at most every `cadence` ms of session time
    /// (idle sessions cost nothing — see
    /// [`ServerHub::enable_checkpointing`]). A session whose endpoint
    /// panics is reported as [`SessionEvent::Crashed`] with its last
    /// checkpoint, to restore in place under the same id.
    pub fn enable_checkpointing(&mut self, cadence: Millis) {
        for shard in &mut self.shards {
            shard.enable_checkpointing(cadence);
        }
    }
}

impl<P: Poller + Send> ShardedHub<P> {
    /// Drives every leased session until its own target — each shard's
    /// sessions on that shard's worker thread — returning all events
    /// tagged by session id, grouped by shard in shard order
    /// (cross-shard ordering carries no meaning: shards are independent
    /// worlds, exactly as a poller's sources already are).
    ///
    /// Per-session semantics are exactly [`ServerHub::pump`]'s; a hub of
    /// one shard pumps inline with no thread at all. A session reported
    /// [`SessionEvent::Crashed`] with no checkpoint is closed by its
    /// shard: its id is retired like a removed one's.
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
    /// so one that serves no session still bounces what `side` feeds it
    /// (see [`ServerHub::pump`]).
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
        // Partition leases by placement; each shard knows its sessions by
        // the same ids, so leases and events pass through untouched. A
        // retired id panics here, before any shard pumps.
        let n = self.shards.len();
        let mut shard_leases: Vec<Vec<HubSession<'_, '_>>> = (0..n).map(|_| Vec::new()).collect();
        for s in sessions.iter_mut() {
            let shard = self.location(s.id);
            shard_leases[shard].push(HubSession::new(s.id, &mut *s.parties, s.target));
        }

        if n == 1 && side.is_none() {
            // The inline fast path: no runtime, no thread.
            return self.shards[0].pump(&mut shard_leases[0]);
        }
        self.pump_on_workers(&mut shard_leases, side)
    }

    /// Pumps each shard's leases on its persistent worker (spawned on
    /// first use) while `side` runs on this thread, returning the
    /// shards' events in shard order.
    fn pump_on_workers(
        &mut self,
        shard_leases: &mut [Vec<HubSession<'_, '_>>],
        side: Option<impl FnOnce()>,
    ) -> Vec<(SessionId, SessionEvent)> {
        // The jobs carry type-erased borrows, so restate here what the
        // compiler can no longer see at the channel boundary: everything
        // a worker touches is Send.
        fn assert_send<T: Send>(_: &T) {}
        assert_send(&self.shards);
        assert_send(&shard_leases);

        // Dispatch one job per involved shard, run `side` on this thread
        // while they pump, then block for every reply — the borrows the
        // jobs carry must not outlive this frame. Shards with no leases
        // this pump stay parked on their command channels, like unleased
        // sessions — except behind a shared socket, where every shard
        // runs: an unleased one bounces what the distributor fed it
        // onward.
        let n = self.shards.len();
        let shared = side.is_some();
        let runtime = self.runtime.get_or_insert_with(|| ShardRuntime::spawn(n)) as &ShardRuntime;
        let mut dispatched = vec![false; n];
        for (i, leases) in shard_leases.iter_mut().enumerate() {
            if leases.is_empty() && !shared {
                continue;
            }
            let job = PumpJob {
                run: pump_erased::<P>,
                shard: &mut self.shards[i] as *mut ServerHub<P> as *mut (),
                leases: leases as *mut Vec<HubSession<'_, '_>> as *mut (),
            };
            // A worker that is gone has dropped its reply channel too, so
            // a failed send surfaces as a failed receive below.
            let _ = runtime.workers[i].tx.send(Command::Pump(job));
            dispatched[i] = true;
        }

        // `side` may itself panic (it is arbitrary caller code): the
        // replies must still be collected first, or the workers could
        // touch freed lease memory while this frame unwinds.
        let side_outcome = side.map(|f| catch_unwind(AssertUnwindSafe(f)));

        let replies: Vec<PumpReply> = runtime
            .workers
            .iter()
            .zip(dispatched)
            .map(|(worker, dispatched)| match dispatched {
                false => Ok(Vec::new()),
                true => worker
                    .reply
                    .recv()
                    .unwrap_or_else(|_| Err(Box::new("shard worker disconnected"))),
            })
            .collect();
        // Every borrow is back: a panic outside endpoint code (which the
        // shards contain per session) is a hub bug, and unwinds here.
        if let Some(Err(payload)) = side_outcome {
            resume_unwind(payload);
        }
        replies
            .into_iter()
            .flat_map(|reply| reply.unwrap_or_else(|payload| resume_unwind(payload)))
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
    use crate::apps::{LineShell, TimedWrite};
    use crate::client::MoshClient;
    use crate::server::MoshServer;
    use crate::session::Party;
    use mosh_crypto::Base64Key;
    use mosh_net::{LinkConfig, Network, Side, SimChannel, SimPoller};
    use mosh_prediction::DisplayPreference;
    use mosh_ssp::datagram::Opened;

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
    /// slots, and boxed hooks) can move to worker threads.
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
            assert!((0..5).all(|i| hub.location(sids[i]) == (i % shards)));

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

    /// An endpoint whose first timer tick panics: a crash before the
    /// session ever checkpoints.
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

    /// The key a [`Tripwire`] shell panics on.
    const TRIP: u8 = b'!';

    /// A [`LineShell`] that panics when [`TRIP`] is typed: the injected
    /// fault, raised in the server's receive path. It saves and restores
    /// as a plain `LineShell`, which is what a crashed session is restored
    /// with, since the client retransmits the key.
    struct Tripwire(LineShell);

    impl crate::Application for Tripwire {
        fn start(&mut self, now: Millis) -> Vec<TimedWrite> {
            self.0.start(now)
        }

        fn on_input(&mut self, now: Millis, bytes: &[u8]) -> Vec<TimedWrite> {
            assert!(!bytes.contains(&TRIP), "tripwire key typed");
            self.0.on_input(now, bytes)
        }

        fn poll(&mut self, now: Millis) -> Vec<TimedWrite> {
            self.0.poll(now)
        }

        fn next_wakeup(&self, now: Millis) -> Option<Millis> {
            self.0.next_wakeup(now)
        }

        fn on_resize(&mut self, now: Millis, width: usize, height: usize) -> Vec<TimedWrite> {
            self.0.on_resize(now, width, height)
        }

        fn save_state(&self) -> Vec<u8> {
            self.0.save_state()
        }

        fn restore_state(&mut self, bytes: &[u8]) -> bool {
            self.0.restore_state(bytes)
        }
    }

    /// An endpoint that logs every datagram it sends: a session's client
    /// and server logs together are its whole wire transcript.
    struct Logged<E> {
        inner: E,
        sent: Vec<(Millis, Addr, Vec<u8>)>,
    }

    impl<E> Logged<E> {
        fn new(inner: E) -> Self {
            Logged {
                inner,
                sent: Vec::new(),
            }
        }
    }

    impl<E: crate::session::Endpoint> crate::session::Endpoint for Logged<E> {
        fn receive(
            &mut self,
            now: Millis,
            from: Addr,
            wire: &[u8],
            events: &mut Vec<SessionEvent>,
        ) {
            self.inner.receive(now, from, wire, events);
        }

        fn tick(
            &mut self,
            now: Millis,
            out: &mut Vec<(Addr, Vec<u8>)>,
            events: &mut Vec<SessionEvent>,
        ) {
            let start = out.len();
            self.inner.tick(now, out, events);
            let sent = out[start..]
                .iter()
                .map(|(to, wire)| (now, *to, wire.clone()));
            self.sent.extend(sent);
        }

        fn next_wakeup(&self, now: Millis) -> Millis {
            self.inner.next_wakeup(now)
        }

        fn last_heard(&self) -> Option<Millis> {
            self.inner.last_heard()
        }

        fn try_open(&mut self, wire: &[u8]) -> Option<Opened> {
            self.inner.try_open(wire)
        }

        fn receive_opened(
            &mut self,
            now: Millis,
            from: Addr,
            opened: Opened,
            events: &mut Vec<SessionEvent>,
        ) {
            self.inner.receive_opened(now, from, opened, events);
        }

        fn activity_marker(&self) -> Option<(u64, u64)> {
            self.inner.activity_marker()
        }

        fn checkpoint(&mut self, now: Millis) -> Option<Vec<u8>> {
            self.inner.checkpoint(now)
        }
    }

    /// What one [`crash_run`] leaves behind.
    struct CrashRun {
        /// Final screens: victim, sibling, bystander.
        screens: Vec<String>,
        /// The sibling's and the bystander's wire transcripts.
        wires: Vec<Vec<(Millis, Addr, Vec<u8>)>>,
        /// Each `Crashed` event: the session, and whether it carried a
        /// checkpoint.
        crashes: Vec<(SessionId, bool)>,
        /// Each `PeerTimeout` event's session.
        timeouts: Vec<SessionId>,
        stats: HubStats,
    }

    /// One run on `shards` shards with checkpointing on: a victim (id 0),
    /// a sibling sharing its source and so its shard (id 1), and a
    /// bystander on a source of its own (id 2), each typing three keys.
    /// The victim's second key is [`TRIP`]; with `trip` its shell is a
    /// [`Tripwire`], and each crash with a checkpoint is answered by
    /// restoring the server in place. With `bomb`, a [`PanicEndpoint`]
    /// session sharing the victim's source (id 3) is leased for one pump.
    /// At 3 s every client falls silent, and the servers pump on to 12 s
    /// under a 4 s peer timeout.
    fn crash_run(shards: usize, trip: bool, bomb: bool) -> CrashRun {
        use super::super::snapshot;

        let mut hub = ShardedHub::with_shards(shards, SimPoller::new);
        hub.enable_checkpointing(50);
        let victim = hub.add_session(sim_world(70));
        let sids = [
            victim,
            hub.add_session_sharing(victim),
            hub.add_session(sim_world(71)),
        ];
        let bomb = bomb.then(|| hub.add_session_sharing(victim));
        for sid in sids {
            hub.set_peer_timeout(sid, Some(4_000));
        }
        let home = hub.location(victim);
        let token = hub.shard(home).token_of(victim);
        let mut users: Vec<(Logged<MoshClient>, Logged<MoshServer>)> = (0..3)
            .map(|u| {
                let (client, server) = pair(70 + u);
                (Logged::new(client), Logged::new(server))
            })
            .collect();
        if trip {
            let key = Base64Key::from_bytes([70; 16]);
            users[0].1.inner = MoshServer::new(key, Box::new(Tripwire(LineShell::new())));
        }
        let mut run = CrashRun {
            screens: Vec::new(),
            wires: Vec::new(),
            crashes: Vec::new(),
            timeouts: Vec::new(),
            stats: HubStats::default(),
        };
        let keys: [[&[u8]; 3]; 3] = [
            [b"l", b"s", b"x"],
            [&[TRIP], b"t", b"y"],
            [b"s", b"u", b"z"],
        ];
        for (step, target) in [300, 600, 900, 3_000, 12_000].into_iter().enumerate() {
            let silent = target > 3_000;
            let mut panicker = PanicEndpoint;
            let mut leases: Vec<Vec<Party<'_>>> = users
                .iter_mut()
                .map(|(c, s)| match silent {
                    false => vec![Party::new(C, c), Party::new(S, s)],
                    true => vec![Party::new(S, s)],
                })
                .collect();
            let mut leased = sids.to_vec();
            if let Some(sid) = bomb.filter(|_| step == 1) {
                leases.push(vec![Party::new(C, &mut panicker)]);
                leased.push(sid);
            }
            let mut sessions: Vec<HubSession<'_, '_>> = leases
                .iter_mut()
                .zip(&leased)
                .map(|(parties, sid)| HubSession::new(*sid, parties, target))
                .collect();
            let events = hub.pump(&mut sessions);
            drop(sessions);
            drop(leases);
            for (sid, ev) in events {
                match ev {
                    SessionEvent::Crashed { checkpoint, .. } => {
                        run.crashes.push((sid, checkpoint.is_some()));
                        if let Some(framed) = checkpoint {
                            users[sid.0].1.inner =
                                snapshot::resurrect_server(&framed, Box::new(LineShell::new()))
                                    .expect("checkpoint decodes");
                        }
                    }
                    SessionEvent::PeerTimeout { .. } => run.timeouts.push(sid),
                    _ => {}
                }
            }
            // In place: the same shard, the same slot, the same source.
            assert_eq!(hub.location(victim), home);
            assert_eq!(hub.shard(home).token_of(victim), token);
            for ((client, _), key) in users.iter_mut().zip(keys.get(step).into_iter().flatten()) {
                client.inner.keystroke(target, key);
            }
        }
        if let Some(sid) = bomb {
            let closed = catch_unwind(AssertUnwindSafe(|| hub.location(sid)));
            assert!(
                closed.is_err(),
                "a crash with no checkpoint closes the session"
            );
        }
        assert_eq!(hub.session_count(), 3);
        run.screens = users
            .iter()
            .map(|(c, _)| c.inner.server_frame().row_text(0).to_string())
            .collect();
        run.wires = users
            .drain(1..)
            .flat_map(|(c, s)| [c.sent, s.sent])
            .collect();
        run.stats = hub.stats();
        run
    }

    /// A panicking endpoint costs its session, not its shard: at 1 and 2
    /// shards the crash is reported once and counted once, the victim is
    /// restored in place and converges to the undisturbed run's screen,
    /// and its sibling on the same source and shard and the bystander
    /// send byte for byte what they send when nothing crashes.
    #[test]
    fn a_panicking_endpoint_costs_its_session_not_its_shard() {
        for shards in [1, 2] {
            let calm = crash_run(shards, false, false);
            let crashed = crash_run(shards, true, false);
            assert_eq!(calm.stats.shard_panics, 0);
            assert!(calm.crashes.is_empty());
            assert_eq!(crashed.crashes, [(SessionId(0), true)], "{shards} shards");
            assert_eq!(crashed.stats.shard_panics, 1);
            assert_eq!(calm.screens, ["$ l!s", "$ stu", "$ xyz"]);
            assert_eq!(crashed.screens, calm.screens, "{shards} shards");
            assert!(
                crashed.wires == calm.wires,
                "a sibling's wire changed at {shards} shards"
            );
            assert_eq!(crashed.stats.dropped, calm.stats.dropped);
        }
    }

    /// The inline one-shard path contains a panic like the workers do: a
    /// session with no checkpoint is closed, and the session beside it
    /// pumps on. At 1, 2 and 3 shards the closed id is then retired
    /// everywhere the hub takes one: `location`, `now` and
    /// `set_peer_timeout` panic, `remove_session` does nothing, it no
    /// longer counts, and leasing it again panics "was removed" before
    /// any session pumps.
    #[test]
    fn inline_single_shard_pump_also_contains_the_panic() {
        /// True when `call` panics with "was removed".
        fn removed<R>(call: impl FnOnce() -> R) -> bool {
            catch_unwind(AssertUnwindSafe(call)).is_err_and(|payload| {
                payload
                    .downcast_ref::<String>()
                    .is_some_and(|m| m.contains("was removed"))
            })
        }

        for shards in [1, 2, 3] {
            let mut hub = ShardedHub::with_shards(shards, SimPoller::new);
            let doomed = hub.add_session(sim_world(4));
            let healthy = hub.add_session(sim_world(5));
            let (mut client, mut server) = pair(5);
            let events = hub.pump(&mut [
                HubSession::new(doomed, &mut [Party::new(C, &mut PanicEndpoint)], 100),
                HubSession::new(
                    healthy,
                    &mut [Party::new(C, &mut client), Party::new(S, &mut server)],
                    300,
                ),
            ]);
            let crashes: Vec<&(SessionId, SessionEvent)> = events
                .iter()
                .filter(|(_, e)| matches!(e, SessionEvent::Crashed { .. }))
                .collect();
            let closed = (
                doomed,
                SessionEvent::Crashed {
                    at: 0,
                    checkpoint: None,
                },
            );
            assert_eq!(crashes, [&closed], "{shards} shards");
            assert_eq!(hub.stats().shard_panics, 1);
            assert_eq!(hub.session_count(), 1, "the doomed session was closed");
            assert_eq!(client.server_frame().row_text(0), "$");

            assert!(removed(|| hub.location(doomed)), "{shards} shards");
            assert!(removed(|| hub.now(doomed)), "{shards} shards");
            assert!(removed(|| hub.set_peer_timeout(doomed, Some(1_000))));
            hub.remove_session(doomed);
            hub.remove_session(doomed);
            assert_eq!(hub.session_count(), 1, "{shards} shards");
            assert_eq!(hub.location(healthy), 1 % shards);
            assert!(
                removed(|| hub.pump(&mut [
                    HubSession::new(
                        healthy,
                        &mut [Party::new(C, &mut client), Party::new(S, &mut server)],
                        400,
                    ),
                    HubSession::new(doomed, &mut [Party::new(C, &mut PanicEndpoint)], 400),
                ])),
                "{shards} shards: a retired id was leased"
            );
            assert_eq!(hub.now(healthy), 300, "{shards} shards: nothing pumped");
        }
    }

    /// A panic outside endpoint code is a hub bug and unwinds the caller
    /// of `pump`, at 1 shard (inline) and at 2 (on the workers, after
    /// every reply is in); dropping the hub afterwards joins its workers.
    #[test]
    fn a_poller_panic_unwinds_the_caller() {
        /// A [`SimPoller`] whose waits panic once `armed`.
        struct Faulty {
            inner: SimPoller,
            armed: bool,
        }

        impl Poller for Faulty {
            type Chan = SimChannel;

            fn add(&mut self, channel: SimChannel) -> Token {
                self.inner.add(channel)
            }

            fn len(&self) -> usize {
                self.inner.len()
            }

            fn channel(&self, tok: Token) -> &SimChannel {
                self.inner.channel(tok)
            }

            fn channel_mut(&mut self, tok: Token) -> &mut SimChannel {
                self.inner.channel_mut(tok)
            }

            fn next_event_time(&self, tok: Token) -> Option<Millis> {
                self.inner.next_event_time(tok)
            }

            fn poll_any(&mut self) -> Option<(Token, mosh_net::Datagram)> {
                self.inner.poll_any()
            }

            fn wait_until(&mut self, tok: Token, deadline: Millis) -> Millis {
                assert!(!self.armed, "injected poller panic");
                self.inner.wait_until(tok, deadline)
            }
        }

        for shards in [1, 2] {
            let mut hub = ShardedHub::with_shards(shards, || Faulty {
                inner: SimPoller::new(),
                armed: false,
            });
            let sids: Vec<SessionId> = (0..shards as u64)
                .map(|i| hub.add_session(sim_world(80 + i)))
                .collect();
            hub.shard_mut(shards - 1).poller_mut().armed = true;
            let mut users: Vec<_> = (0..shards as u8).map(|i| pair(80 + i)).collect();
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                let mut leases: Vec<[Party<'_>; 2]> = users
                    .iter_mut()
                    .map(|(c, s)| [Party::new(C, c), Party::new(S, s)])
                    .collect();
                let mut sessions: Vec<HubSession<'_, '_>> = leases
                    .iter_mut()
                    .zip(&sids)
                    .map(|(parties, sid)| HubSession::new(*sid, parties, 300))
                    .collect();
                hub.pump(&mut sessions)
            }));
            let payload = unwound.expect_err("the poller's panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"injected poller panic")
            );
            if shards == 2 {
                // Shard 0's worker replied before the pump unwound.
                assert_eq!(users[0].0.server_frame().row_text(0), "$");
                assert_eq!(hub.now(sids[0]), 300);
            }
            assert_eq!(hub.stats().shard_panics, 0, "not an endpoint panic");
            drop(hub);
        }
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
        let shard_a = hub.location(first);
        let shard_b = hub.location(second);
        assert_eq!(shard_a, shard_b, "one source, one owning thread");
        // And independent sessions still spread out.
        let third = hub.add_session(sim_world(8));
        assert_ne!(hub.location(third), shard_a);
    }

    /// Two crashes on one source in one run: a session with no checkpoint
    /// is closed, a session with one is restored in place onto the same
    /// source as its surviving sibling, and the sibling's wire is byte for
    /// byte the undisturbed run's.
    #[test]
    fn co_located_sessions_resurrect_onto_one_shard_and_source() {
        let calm = crash_run(3, false, false);
        let crashed = crash_run(3, true, true);
        assert_eq!(
            crashed.crashes,
            [(SessionId(3), false), (SessionId(0), true)]
        );
        assert_eq!(crashed.stats.shard_panics, 2);
        assert_eq!(crashed.screens, calm.screens);
        assert!(crashed.wires == calm.wires, "a sibling's wire changed");
    }

    /// A peer-silence timeout is the caller's setting and outlives a
    /// crash: at 1 and 2 shards, once the clients fall silent every
    /// server reports it once — the restored victim too — exactly as when
    /// nothing crashed.
    #[test]
    fn resurrection_keeps_the_peer_timeout() {
        for shards in [1, 2] {
            let calm = crash_run(shards, false, false);
            let crashed = crash_run(shards, true, false);
            let all = [SessionId(0), SessionId(1), SessionId(2)];
            assert_eq!(calm.timeouts, all, "{shards} shards, undisturbed");
            assert_eq!(crashed.timeouts, all, "{shards} shards, restored");
        }
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

    /// Checkpointing switched on after sessions exist covers them as it
    /// covers the sessions added later: at 1, 2 and 3 shards, one pump
    /// checkpoints every session, and every event carries a leased id.
    /// A second pump that leases each session a [`PanicEndpoint`] reads
    /// each checkpoint back through that session's `Crashed` event: its
    /// restored server opens that session's client wires and no other's.
    #[test]
    fn checkpointing_switched_on_late_covers_every_session() {
        use super::super::snapshot;

        for shards in [1, 2, 3] {
            let mut hub = ShardedHub::with_shards(shards, SimPoller::new);
            let mut sids: Vec<SessionId> =
                (0..3).map(|i| hub.add_session(sim_world(90 + i))).collect();
            hub.enable_checkpointing(50);
            sids.extend((3..5).map(|i| hub.add_session(sim_world(90 + i))));
            sids.push(hub.add_session_sharing(sids[1]));
            let mut users: Vec<_> = (0..6).map(|i| pair(90 + i)).collect();

            let mut leases: Vec<[Party<'_>; 2]> = users
                .iter_mut()
                .map(|(c, s)| [Party::new(C, c), Party::new(S, s)])
                .collect();
            let mut sessions: Vec<HubSession<'_, '_>> = leases
                .iter_mut()
                .zip(&sids)
                .map(|(parties, sid)| HubSession::new(*sid, parties, 300))
                .collect();
            let events = hub.pump(&mut sessions);
            drop(sessions);
            drop(leases);

            assert!(events.iter().all(|(sid, _)| sids.contains(sid)));
            for sid in &sids {
                assert!(
                    events
                        .iter()
                        .any(|(s, e)| s == sid && matches!(e, SessionEvent::FrameAdvanced { .. })),
                    "{shards} shards: no frame reported for {sid:?}"
                );
            }

            let mut bombs: Vec<PanicEndpoint> = sids.iter().map(|_| PanicEndpoint).collect();
            let mut leases: Vec<[Party<'_>; 1]> =
                bombs.iter_mut().map(|bomb| [Party::new(C, bomb)]).collect();
            let mut sessions: Vec<HubSession<'_, '_>> = leases
                .iter_mut()
                .zip(&sids)
                .map(|(parties, sid)| HubSession::new(*sid, parties, 400))
                .collect();
            let checkpoints: Vec<(SessionId, Vec<u8>)> = hub
                .pump(&mut sessions)
                .into_iter()
                .filter_map(|(sid, e)| match e {
                    SessionEvent::Crashed { checkpoint, .. } => {
                        Some((sid, checkpoint.expect("checkpointed")))
                    }
                    _ => None,
                })
                .collect();
            drop(sessions);
            drop(leases);
            let mut crashed: Vec<SessionId> = checkpoints.iter().map(|(sid, _)| *sid).collect();
            crashed.sort();
            assert_eq!(crashed, sids, "{shards} shards");
            assert_eq!(hub.session_count(), sids.len(), "each restored in place");

            let wires: Vec<Vec<u8>> = users
                .iter_mut()
                .map(|(client, _)| {
                    client.keystroke(300, b"k");
                    (300..400)
                        .find_map(|t| client.tick(t).into_iter().next())
                        .expect("the keystroke is sent")
                        .1
                })
                .collect();
            for (sid, framed) in &checkpoints {
                let restored = snapshot::restore_server(framed, Box::new(LineShell::new()))
                    .expect("checkpoint decodes");
                let opens: Vec<bool> = wires.iter().map(|w| restored.authenticates(w)).collect();
                let k = sids.iter().position(|s| s == sid).unwrap();
                let only_its_own: Vec<bool> = (0..wires.len()).map(|m| m == k).collect();
                assert_eq!(opens, only_its_own, "{shards} shards, {sid:?}");
            }
        }
    }

    /// Two crashes in a row never reuse a nonce: a restored session
    /// checkpoints again at its first service, so when it crashes after
    /// sending heartbeats and acks that move no activity marker, the
    /// second restore still starts past every sequence number the first
    /// restored server sent.
    #[test]
    fn a_second_crash_resurrects_past_every_sequence_number_sent() {
        use super::super::snapshot;

        let mut hub = ShardedHub::with_shards(1, SimPoller::new);
        hub.enable_checkpointing(50);
        let sid = hub.add_session(sim_world(30));
        let (mut client, mut server) = pair(30);
        let crash_at = |hub: &mut ShardedHub<SimPoller>, target: Millis| -> MoshServer {
            let events = hub.pump(&mut [HubSession::new(
                sid,
                &mut [Party::new(C, &mut PanicEndpoint)],
                target,
            )]);
            let framed = match &events[..] {
                [(_, SessionEvent::Crashed { checkpoint, .. })] => checkpoint.clone(),
                _ => None,
            };
            let framed = framed.expect("one crash, with a checkpoint");
            snapshot::resurrect_server(&framed, Box::new(LineShell::new()))
                .expect("checkpoint decodes")
        };

        hub.pump(&mut [HubSession::new(
            sid,
            &mut [Party::new(C, &mut client), Party::new(S, &mut server)],
            300,
        )]);
        assert_eq!(client.server_frame().row_text(0), "$");
        let mut first = crash_at(&mut hub, 301);
        let restored_at = first.next_seq();
        hub.pump(&mut [HubSession::new(
            sid,
            &mut [Party::new(C, &mut client), Party::new(S, &mut first)],
            8_000,
        )]);
        assert!(first.next_seq() > restored_at, "the restored server sent");
        let second = crash_at(&mut hub, 8_001);
        assert!(
            second.next_seq() >= first.next_seq(),
            "the second restore reuses sequence numbers {} to {}",
            second.next_seq(),
            first.next_seq()
        );
    }

    /// The crash-recovery round trip: a real session checkpoints on
    /// cadence, panics on a key it receives, and is restored in place
    /// from the checkpoint its `Crashed` event carries — same id, same
    /// shard, same source, client endpoint untouched, nonces ahead of the
    /// dead incarnation's. A panic the input itself triggers recurs after
    /// a restore that keeps the fault, and each repeat is reported; a
    /// restore without the fault converges.
    #[test]
    fn crashed_sessions_restore_in_place_from_checkpoints() {
        use super::super::snapshot;

        let mut hub = ShardedHub::with_shards(2, SimPoller::new);
        hub.enable_checkpointing(50);
        // Round-robin: bystander on shard 0, victim on shard 1.
        let bystander = hub.add_session(sim_world(11));
        let victim = hub.add_session(sim_world(12));
        let home = hub.location(victim);
        let (mut client_b, mut server_b) = pair(3);
        let (mut client_v, _) = pair(4);
        let tripwire = || {
            let key = Base64Key::from_bytes([4; 16]);
            MoshServer::new(key, Box::new(Tripwire(LineShell::new())))
        };
        let mut server_v = tripwire();
        let mut pump = |hub: &mut ShardedHub<SimPoller>,
                        client_v: &mut MoshClient,
                        server_v: &mut MoshServer,
                        target: Millis| {
            let mut pb = vec![Party::new(C, &mut client_b), Party::new(S, &mut server_b)];
            let mut pv = vec![Party::new(C, client_v), Party::new(S, server_v)];
            let events = hub.pump(&mut [
                HubSession::new(bystander, &mut pb, target),
                HubSession::new(victim, &mut pv, target),
            ]);
            assert_eq!(
                client_b.server_frame().row_text(0),
                "$",
                "bystander untouched"
            );
            events
                .into_iter()
                .filter_map(|(sid, e)| match e {
                    SessionEvent::Crashed { checkpoint, .. } => Some((sid, checkpoint)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };

        // Reach the prompt, type, and let the cadence checkpoint the
        // typed-into state.
        assert!(pump(&mut hub, &mut client_v, &mut server_v, 300).is_empty());
        client_v.keystroke(300, b"l");
        assert!(pump(&mut hub, &mut client_v, &mut server_v, 600).is_empty());
        assert_eq!(client_v.server_frame().row_text(0), "$ l");

        // The tripwire key kills the victim's server as it arrives.
        client_v.keystroke(600, &[TRIP]);
        let crashes = pump(&mut hub, &mut client_v, &mut server_v, 700);
        assert_eq!(crashes.len(), 1);
        assert_eq!(crashes[0].0, victim);
        let framed = crashes[0].1.clone().expect("victim has a checkpoint");
        assert_eq!(hub.stats().shard_panics, 1);
        assert_eq!(hub.location(victim), home, "restored in place");
        assert_eq!(hub.session_count(), 2);

        // Restored with the fault still in it, the retransmitted key
        // panics again; the caller sees each repeat.
        let seq_dead = server_v.next_seq();
        server_v = snapshot::resurrect_server(&framed, Box::new(Tripwire(LineShell::new())))
            .expect("checkpoint decodes");
        assert!(server_v.next_seq() > seq_dead, "nonce margin burned");
        let crashes = pump(&mut hub, &mut client_v, &mut server_v, 1_500);
        assert_eq!(crashes.len(), 1, "the input trips it again");
        assert_eq!(hub.stats().shard_panics, 2);

        // Restored as a plain shell, the conversation continues: the
        // un-checkpointed tail retransmits, new input round-trips.
        let framed = crashes[0].1.clone().expect("still checkpointed");
        server_v = snapshot::resurrect_server(&framed, Box::new(LineShell::new()))
            .expect("checkpoint decodes");
        client_v.keystroke(1_500, b"s");
        assert!(pump(&mut hub, &mut client_v, &mut server_v, 3_000).is_empty());
        assert_eq!(client_v.server_frame().row_text(0), "$ l!s");
        assert_eq!(hub.location(victim), home);
        assert_eq!(hub.stats().shard_panics, 2);
    }
}
