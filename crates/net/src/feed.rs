//! The shared-socket distributor: one UDP socket feeding many shards.
//!
//! A sharded hub (see `mosh_core::hub::ShardedHub`) runs one `ServerHub`
//! per worker thread, but a production front end still answers on **one**
//! UDP port. Two threads cannot both block on one socket without stealing
//! each other's datagrams, so the socket is owned by a single
//! **distributor** ([`UdpDistributor`]) that drains it and hands each
//! datagram to the shard that owns the sending session, over an SPSC
//! queue per shard. Each shard sees its queue as an ordinary [`Channel`]
//! — a [`FeedChannel`] — so the per-shard `ServerHub` machinery is
//! unchanged: replies go straight out the shared socket
//! (`UdpSocket::send_to` is `&self`, so senders never serialize behind
//! the distributor).
//!
//! Routing follows the hub's demux discipline — the address is a hint,
//! the key is the identity:
//!
//! * **Source hints** are learned from *outbound* traffic: a Mosh server
//!   only ever targets the source of an authentic datagram (§2.2), so
//!   when shard `i` sends to address `X`, datagrams *from* `X` are
//!   authenticated traffic of a session on shard `i`. Every send writes
//!   its targets into the shared hint map, one lock per batch, so the
//!   map follows the shard that replied last (two NAT-collided sessions
//!   on different shards take turns; the bounce covers either). The
//!   common case routes on one hash-map lookup and is opened once, by
//!   its owner.
//! * **Unhinted or mis-hinted datagrams fan out**: the receiving shard
//!   probes its own sessions cryptographically (`Endpoint::try_open` —
//!   one OCB open per probed key, and the winner's probe *is* its
//!   delivery decrypt); if no local session claims the wire, the shard
//!   **bounces** it back and the distributor forwards it to the next
//!   shard. The distributor thread alone counts the hops: it remembers
//!   how many shards declined each datagram that has bounced (a
//!   bounded ring keyed by a wire fingerprint, so the queues carry
//!   plain datagrams and nothing is locked per datagram), and drops a
//!   wire no shard claims after a full cycle. The plaintext is never
//!   decrypted twice by its owner, and never misrouted: exactly the
//!   single-hub auth fallback, spread over threads.
//!
//! A bounce goes to the shard after the one that declined it, so a cycle
//! visits every shard once even when the hint map shifts mid-fan-out
//! (NAT-collided sessions on two shards taking turns to reply).
//!
//! The distributor hands each datagram over when it arrives, one queue
//! slot per datagram. It blocks in one readiness wait (a `poll(2)`, as
//! under every real socket here) on the socket and on a wake descriptor
//! every [`FeedBouncer`] signals, until a datagram lands, a shard bounces
//! one, or its pump's deadline comes. It then reads the (nonblocking)
//! socket until the kernel queue is empty, sending each datagram to its
//! shard as it reads it, so a lone keystroke waits for no timer.
//!
//! Every queue is **bounded** by [`FEED_CAPACITY`]: a stalled shard
//! sheds its overflow (counted in
//! [`DistributorStats::overflow`]) instead of growing without bound or
//! stalling the distributor, and a shard evicts the hints of a session
//! it retires ([`Channel::evict_hint`]), so a long-running server's
//! maps track live sessions, not history. Because the shared socket is
//! nonblocking, a reply the kernel cannot take at once is lost rather
//! than stalling its shard, and counted
//! ([`DistributorStats::send_failed`]).

use crate::channel::{
    addr_from_socket, recv_raw, send_raw, wait_readable, Channel, PollFd, MAX_DATAGRAM,
};
use crate::{Addr, Datagram, Millis};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::UdpSocket;
use std::os::unix::net::UnixDatagram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The fingerprint a bounced datagram's hop count is filed under:
/// source address, payload length, and the wire's first 8 bytes (the
/// clear sequence header, unique per datagram in practice — a collision
/// requires a byte-identical duplicate, whose hop mix-up is at worst one
/// extra or one fewer bounce hop, ordinary datagram semantics).
type HopKey = (Addr, usize, [u8; 8]);

fn hop_key(dg: &Datagram) -> HopKey {
    let mut head = [0u8; 8];
    let n = dg.payload.len().min(8);
    head[..n].copy_from_slice(&dg.payload[..n]);
    (dg.from, dg.payload.len(), head)
}

/// Most datagrams the distributor reads off the socket in one pump
/// round before it gathers bounces again, so a socket burst never keeps
/// a bounced datagram waiting for long.
const FEED_BATCH: usize = 64;

/// The bound on each distributor→shard queue, in datagrams (one per
/// slot); the bounce queue holds this many per shard. A stalled shard
/// can hold at most this many datagrams before the distributor starts
/// shedding new ones for it — drop-on-overflow is ordinary datagram
/// semantics (SSP retransmits), unbounded memory under a wedged
/// consumer is not.
pub const FEED_CAPACITY: usize = 1024;

/// Distributor counters (a point-in-time snapshot; see
/// [`DistributorStatsHandle`] for reading them while the distributor is
/// busy on another thread).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistributorStats {
    /// Datagrams routed to a shard from the socket.
    pub routed: u64,
    /// Forwards of bounced (unclaimed-by-one-shard) datagrams.
    pub bounced: u64,
    /// Datagrams no shard claimed after a full fan-out cycle.
    pub dropped: u64,
    /// Datagrams shed because the target shard's queue was full
    /// (backpressure: the shard is stalled or not being pumped).
    pub overflow: u64,
    /// Shard replies the shared socket refused: its send buffer was full
    /// (`WouldBlock` — the socket is nonblocking, so a shard never waits
    /// on it) or the destination was unroutable. Each is a lost datagram
    /// SSP retransmits.
    pub send_failed: u64,
}

/// The distributor's live counters, shared so a hub (or an operator
/// thread) can observe routing, shedding, and hint population *while*
/// the distributor pumps on another thread — `ShardedHub::stats()`
/// folds these into `HubStats`, which is what makes feed-queue overflow
/// visible to operators at all.
#[derive(Debug, Clone)]
pub struct DistributorStatsHandle {
    cells: Arc<StatsCells>,
    hints: Arc<Mutex<HashMap<Addr, usize>>>,
}

impl DistributorStatsHandle {
    /// A consistent-enough snapshot of the counters (each counter is
    /// individually exact; the set is read without a global lock).
    pub fn snapshot(&self) -> DistributorStats {
        DistributorStats {
            routed: self.cells.routed.load(Ordering::Relaxed),
            bounced: self.cells.bounced.load(Ordering::Relaxed),
            dropped: self.cells.dropped.load(Ordering::Relaxed),
            overflow: self.cells.overflow.load(Ordering::Relaxed),
            send_failed: self.cells.send_failed.load(Ordering::Relaxed),
        }
    }

    /// Number of live source hints (a gauge, not a counter: one entry
    /// per client address currently claimed by a shard).
    pub fn hint_count(&self) -> usize {
        lock_hints(&self.hints).len()
    }
}

/// The shared counter cells behind [`DistributorStatsHandle`].
#[derive(Debug, Default)]
struct StatsCells {
    routed: AtomicU64,
    bounced: AtomicU64,
    dropped: AtomicU64,
    overflow: AtomicU64,
    send_failed: AtomicU64,
}

/// Locks the shared hint map, shrugging off poisoning: every access is
/// a single `HashMap` call, so a holder that panicked (a shard worker
/// dying mid-send) cannot have left the map mid-update — recovering the
/// guard is strictly better than cascading the panic through every
/// other shard's send path.
fn lock_hints(
    hints: &Mutex<HashMap<Addr, usize>>,
) -> std::sync::MutexGuard<'_, HashMap<Addr, usize>> {
    hints
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One shard's view of the shared socket: a [`Channel`] whose receive
/// side is the distributor's queue and whose send side is the shared
/// socket itself.
///
/// The clock is wall milliseconds since the distributor was created, so
/// every shard behind one socket speaks the same `Millis` epoch.
#[derive(Debug)]
pub struct FeedChannel {
    shard: usize,
    socket: Arc<UdpSocket>,
    local: Addr,
    start: Instant,
    rx: Receiver<Datagram>,
    /// The datagram a blocking wait took off the queue, held for the
    /// next [`Channel::poll_any`].
    held: Option<Datagram>,
    bounce_tx: SyncSender<(usize, Datagram)>,
    /// The writing end of the distributor's wake descriptor, handed to
    /// every [`FeedBouncer`].
    wake: Arc<UnixDatagram>,
    /// The distributor's counters (this side counts failed sends).
    cells: Arc<StatsCells>,
    /// Source hints shared with the distributor: sending to `X` proves a
    /// session for `X` lives on this shard (servers only target
    /// authenticated sources).
    hints: Arc<Mutex<HashMap<Addr, usize>>>,
}

impl FeedChannel {
    /// The shared socket's address (every session behind the distributor
    /// receives on it).
    pub fn local_addr(&self) -> Addr {
        self.local
    }

    /// The bounce half for this shard: wire it into the shard hub's
    /// unclaimed-datagram hook so wires no local session authenticates
    /// return to the distributor instead of being dropped.
    pub fn bouncer(&self) -> FeedBouncer {
        FeedBouncer {
            shard: self.shard,
            tx: self.bounce_tx.clone(),
            wake: Arc::clone(&self.wake),
        }
    }

    /// Sends one reply out the shared socket, counting a refusal.
    fn send_out(&self, to: Addr, payload: &[u8]) {
        if send_raw(&self.socket, self.local.is_v6(), to, payload).is_err() {
            self.cells.send_failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Channel for FeedChannel {
    fn now(&self) -> Millis {
        self.start.elapsed().as_millis() as Millis
    }

    /// Sends one reply, first hinting its target: this shard owns
    /// `to`'s session.
    fn send(&mut self, _from: Addr, to: Addr, payload: Vec<u8>) {
        lock_hints(&self.hints).insert(to, self.shard);
        self.send_out(to, &payload);
    }

    /// The batched transmit path: every target hinted under one lock,
    /// then every datagram straight out the shared socket.
    fn send_many(&mut self, _from: Addr, batch: Vec<(Addr, Vec<u8>)>) {
        {
            let mut map = lock_hints(&self.hints);
            for (to, _) in &batch {
                map.insert(*to, self.shard);
            }
        }
        for (to, payload) in batch {
            self.send_out(to, &payload);
        }
    }

    fn poll_any(&mut self) -> Option<Datagram> {
        self.held.take().or_else(|| self.rx.try_recv().ok())
    }

    fn next_event_time(&self) -> Option<Millis> {
        None // Real traffic cannot announce its arrivals.
    }

    fn wait_until(&mut self, deadline: Millis) -> Millis {
        let now = self.now();
        if now >= deadline || self.held.is_some() {
            return now;
        }
        // Saturating: the guard above makes `now < deadline` today, but
        // this subtraction must never be one refactor away from a debug
        // panic — or a ~585-million-year release timeout — when handed a
        // deadline the clock has already passed.
        match self
            .rx
            .recv_timeout(Duration::from_millis(deadline.saturating_sub(now)))
        {
            Ok(dg) => {
                self.held = Some(dg);
                self.now()
            }
            Err(RecvTimeoutError::Timeout) => self.now(),
            // The distributor is gone; nothing will ever arrive.
            Err(RecvTimeoutError::Disconnected) => deadline.max(self.now()),
        }
    }

    /// Forgets the authenticated-source hint for `addr` (its session was
    /// removed) when it still points at this shard — another shard's
    /// later claim is left alone, and any shard still serving `addr`
    /// re-hints it with its next reply. Keeps a long-running
    /// distributor's map tracking *live* sessions, not every client
    /// address ever replied to.
    fn evict_hint(&mut self, addr: Addr) {
        let mut map = lock_hints(&self.hints);
        if map.get(&addr) == Some(&self.shard) {
            map.remove(&addr);
        }
    }
}

/// Returns unclaimed datagrams to the distributor (see
/// [`FeedChannel::bouncer`]), tagged with the shard that declined them;
/// the distributor counts their hops.
#[derive(Debug, Clone)]
pub struct FeedBouncer {
    shard: usize,
    tx: SyncSender<(usize, Datagram)>,
    wake: Arc<UnixDatagram>,
}

impl FeedBouncer {
    /// Bounces one unclaimed datagram back to the distributor and wakes
    /// it, so the bounce moves on at once, not when the socket next has
    /// traffic. Returns false when the distributor is gone or the bounce
    /// queue is full (the caller should then count the datagram dropped
    /// — never block a shard's event loop behind a stalled distributor).
    pub fn bounce(&self, dg: &Datagram) -> bool {
        let queued = self.tx.try_send((self.shard, dg.clone())).is_ok();
        if queued {
            // Queued first, signalled second: a distributor that reads
            // the signal always finds the bounce. A full wake buffer
            // already holds a signal the distributor has not read, so a
            // failed write loses nothing.
            let _ = self.wake.send(&[0]);
        }
        queued
    }
}

/// Owns the shared socket and routes its datagrams to shard queues, one
/// queue send per datagram: each pump round forwards the bounces, then
/// reads what the kernel has queued, up to `FEED_BATCH` datagrams.
/// Between rounds it waits for readiness (see the module docs), never
/// for a timer.
///
/// Run [`UdpDistributor::pump`] on its own thread (or interleaved with
/// other work on the accept thread) while the shards pump their hubs.
#[derive(Debug)]
pub struct UdpDistributor {
    socket: Arc<UdpSocket>,
    local: Addr,
    buf: Box<[u8; MAX_DATAGRAM]>,
    /// The reading end of the wake descriptor [`FeedBouncer::bounce`]
    /// signals (nonblocking, drained after every wait it ends).
    wake: UnixDatagram,
    feeds: Vec<SyncSender<Datagram>>,
    /// Bounced datagrams, each with the shard that declined it.
    bounce_rx: Receiver<(usize, Datagram)>,
    /// How many shards have declined each datagram that has bounced,
    /// touched by this thread only. Bounded: `hop_order` lists keys
    /// oldest first, and the oldest is forgotten past
    /// `2 × FEED_CAPACITY` per shard — what the feed queues and the
    /// bounce queue hold when all are full, so a datagram still mid-cycle
    /// keeps its count. A delivered datagram's entry simply ages out.
    hops: HashMap<HopKey, usize>,
    hop_order: VecDeque<HopKey>,
    hints: Arc<Mutex<HashMap<Addr, usize>>>,
    cells: Arc<StatsCells>,
}

impl UdpDistributor {
    /// Splits `socket` into a distributor plus one [`FeedChannel`] per
    /// shard, each queue bounded by [`FEED_CAPACITY`]. The socket must
    /// already be bound; every shard sends through it and receives from
    /// its own queue.
    pub fn new(socket: UdpSocket, shards: usize) -> io::Result<(Self, Vec<FeedChannel>)> {
        assert!(shards > 0, "a distributor needs at least one shard");
        let local = addr_from_socket(socket.local_addr()?);
        // Nonblocking for good: the distributor reads until `WouldBlock`
        // and waits on readiness, and shard replies never wait on a full
        // send buffer.
        socket.set_nonblocking(true)?;
        let socket = Arc::new(socket);
        let (wake, wake_tx) = UnixDatagram::pair()?;
        wake.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let wake_tx = Arc::new(wake_tx);
        let cells = Arc::new(StatsCells::default());
        // mosh-lint: allow(no-wallclock-in-sim): the distributor is a real-UDP substrate like UdpChannel; this anchors the Millis epoch every shard behind the socket shares
        let start = Instant::now();
        let hints = Arc::new(Mutex::new(HashMap::new()));
        // Every shard produces into the one bounce queue, so size it for
        // the worst-case wave — all shards declining full queues at once
        // (hintless restart) — or declined datagrams would be dropped
        // instead of continuing the fan-out cycle.
        let (bounce_tx, bounce_rx) = sync_channel(FEED_CAPACITY * shards);
        let mut feeds = Vec::with_capacity(shards);
        let mut channels = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = sync_channel(FEED_CAPACITY);
            feeds.push(tx);
            channels.push(FeedChannel {
                shard,
                socket: Arc::clone(&socket),
                local,
                start,
                rx,
                held: None,
                bounce_tx: bounce_tx.clone(),
                wake: Arc::clone(&wake_tx),
                cells: Arc::clone(&cells),
                hints: Arc::clone(&hints),
            });
        }
        Ok((
            UdpDistributor {
                socket,
                local,
                buf: Box::new([0u8; MAX_DATAGRAM]),
                wake,
                feeds,
                bounce_rx,
                hops: HashMap::new(),
                hop_order: VecDeque::new(),
                hints,
                cells,
            },
            channels,
        ))
    }

    /// The shared socket's address.
    pub fn local_addr(&self) -> Addr {
        self.local
    }

    /// Distributor counters (a snapshot; see
    /// [`UdpDistributor::stats_handle`] for observing them live from
    /// another thread).
    pub fn stats(&self) -> DistributorStats {
        self.stats_handle().snapshot()
    }

    /// A cloneable live view of the counters and hint population, for a
    /// hub or operator thread to read while the distributor pumps.
    pub fn stats_handle(&self) -> DistributorStatsHandle {
        DistributorStatsHandle {
            cells: Arc::clone(&self.cells),
            hints: Arc::clone(&self.hints),
        }
    }

    /// The shard a datagram from `from` starts its routing at: the
    /// learned hint when one exists, a stable hash of the source
    /// otherwise (so retries of an unknown source probe shards in a
    /// consistent order).
    fn base_shard(&self, from: Addr) -> usize {
        if let Some(&shard) = lock_hints(&self.hints).get(&from) {
            return shard;
        }
        (from.port as usize) % self.feeds.len()
    }

    /// Drains the socket and the bounce queue for `wall_ms` wall-clock
    /// milliseconds, routing every datagram to a shard queue. Each round
    /// forwards the bounces, then reads the socket until the kernel queue
    /// is empty, at most `FEED_BATCH` datagrams. A round that emptied the
    /// socket then waits for a datagram, a bounce, or the deadline,
    /// whichever comes first.
    pub fn pump(&mut self, wall_ms: u64) {
        // mosh-lint: allow(no-wallclock-in-sim): pump's budget is wall time spent on the real socket thread, outside any simulated schedule
        let deadline = Instant::now() + Duration::from_millis(wall_ms);
        loop {
            self.gather_bounces();
            let emptied = self.drain_socket(FEED_BATCH);
            // mosh-lint: allow(no-wallclock-in-sim): same wall-time pump budget as above
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            if emptied {
                self.wait(deadline.saturating_duration_since(now));
            }
        }
    }

    /// Blocks until the socket is readable, a bouncer has signalled, or
    /// `timeout` passes. Signals are consumed here; the next round
    /// gathers the bounces they announce.
    fn wait(&mut self, timeout: Duration) {
        let mut fds = [
            PollFd::readable(&*self.socket),
            PollFd::readable(&self.wake),
        ];
        wait_readable(&mut fds, timeout);
        if fds[1].ready() {
            let mut signal = [0u8; 1];
            while self.wake.recv(&mut signal).is_ok() {}
        }
    }

    /// Counts one more decline of each bounced datagram (an unseen one
    /// has none) and forwards it to the shard after the one that declined
    /// it — or drops it once every shard has declined it. The cycle
    /// follows the decliners, not the hint map, so a hint that moves
    /// mid-cycle cannot send a datagram back to a shard that just
    /// declined it.
    fn gather_bounces(&mut self) {
        let shards = self.feeds.len();
        while let Ok((declined, dg)) = self.bounce_rx.try_recv() {
            let key = hop_key(&dg);
            let hops = self.hops.get(&key).map_or(1, |h| h + 1);
            if hops >= shards {
                // No shard claimed it after a full fan-out cycle.
                self.hops.remove(&key);
                self.cells.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if self.hops.insert(key, hops).is_none() {
                self.hop_order.push_back(key);
                if self.hop_order.len() > 2 * FEED_CAPACITY * shards {
                    if let Some(old) = self.hop_order.pop_front() {
                        self.hops.remove(&old);
                    }
                }
            }
            self.feed((declined + 1) % shards, dg, true);
        }
    }

    /// Routes one socket burst, up to `max` datagrams, without blocking,
    /// reading past transient errors.
    /// Returns true when the burst ended because the kernel queue was
    /// empty, false when it stopped at `max` with more possibly queued.
    fn drain_socket(&mut self, max: usize) -> bool {
        for _ in 0..max {
            match recv_raw(&self.socket, &mut self.buf[..], self.local) {
                Ok(dg) => {
                    let shard = self.base_shard(dg.from);
                    self.feed(shard, dg, false);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(_) => continue,
            }
        }
        false
    }

    /// Sends one datagram (a bounce's forward when `bounce`) to
    /// `shard`'s queue. A full queue sheds it, counted: drop-on-overflow
    /// is ordinary datagram semantics (SSP retransmits), and a stalled
    /// shard must never back-pressure the socket drain for everyone else.
    fn feed(&self, shard: usize, dg: Datagram, bounce: bool) {
        let counter = match self.feeds[shard].try_send(dg) {
            Ok(()) if bounce => &self.cells.bounced,
            Ok(()) => &self.cells.routed,
            Err(TrySendError::Full(_)) => &self.cells.overflow,
            Err(TrySendError::Disconnected(_)) => &self.cells.dropped,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributor_routes_by_hint_and_feeds_shards() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (mut dist, mut feeds) = UdpDistributor::new(socket, 2).unwrap();
        let server_addr = dist.local_addr();

        // A remote peer sends one datagram to the shared socket.
        let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peer_addr = addr_from_socket(peer.local_addr().unwrap());
        // Teach the hint map first, as an outbound send from shard 1
        // would: datagrams from this peer belong to shard 1.
        feeds[1].send(server_addr, peer_addr, b"hello peer".to_vec());
        assert_eq!(peer.recv_from(&mut [0u8; 64]).unwrap().0, 10);

        peer.send_to(b"to shard 1", crate::channel::socket_from_addr(server_addr))
            .unwrap();
        let start = Instant::now();
        let dg = loop {
            assert!(start.elapsed().as_secs() < 10, "datagram never routed");
            dist.pump(5);
            let t = feeds[1].now() + 5;
            feeds[1].wait_until(t);
            if let Some(dg) = feeds[1].poll_any() {
                break dg;
            }
        };
        assert_eq!(dg.payload, b"to shard 1");
        assert_eq!(dg.from, peer_addr);
        assert_eq!(dg.to, server_addr);
        assert!(feeds[0].poll_any().is_none(), "shard 0 saw nothing");
        assert_eq!(dist.stats().routed, 1);
    }

    #[test]
    fn bounced_datagrams_cycle_to_the_next_shard_then_drop() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (mut dist, mut feeds) = UdpDistributor::new(socket, 2).unwrap();
        let server_addr = dist.local_addr();
        let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peer_addr = addr_from_socket(peer.local_addr().unwrap());
        peer.send_to(b"orphan", crate::channel::socket_from_addr(server_addr))
            .unwrap();

        // Route to its base shard.
        let base = (peer_addr.port as usize) % 2;
        let start = Instant::now();
        let dg = loop {
            assert!(start.elapsed().as_secs() < 10, "never arrived");
            dist.pump(5);
            if let Some(dg) = feeds[base].poll_any() {
                break dg;
            }
        };

        // That shard declines it; the other shard must receive it next.
        assert!(feeds[base].bouncer().bounce(&dg));
        dist.pump(5);
        let other = 1 - base;
        let again = feeds[other].poll_any().expect("forwarded to next shard");
        assert_eq!(again.payload, b"orphan");

        // The second decline completes the cycle: dropped, not re-fed.
        assert!(feeds[other].bouncer().bounce(&again));
        dist.pump(5);
        assert!(feeds[base].poll_any().is_none());
        assert!(feeds[other].poll_any().is_none());
        assert_eq!(dist.stats().dropped, 1);
        assert_eq!(dist.stats().bounced, 1);
    }

    #[test]
    fn a_bounce_moves_past_its_decliner_when_the_hint_moves() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (mut dist, mut feeds) = UdpDistributor::new(socket, 3).unwrap();
        let server_addr = dist.local_addr();
        let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peer_addr = addr_from_socket(peer.local_addr().unwrap());

        // Shard 1 replies to the peer, so the peer's datagram routes there.
        feeds[1].send(server_addr, peer_addr, b"hi".to_vec());
        peer.send_to(b"mid-cycle", crate::channel::socket_from_addr(server_addr))
            .unwrap();
        let start = Instant::now();
        let dg = loop {
            assert!(start.elapsed().as_secs() < 10, "never arrived");
            dist.pump(5);
            if let Some(dg) = feeds[1].poll_any() {
                break dg;
            }
        };

        // Shard 0 replies to the peer too (a NAT-collided session there),
        // which moves the hint; then shard 1 declines the datagram. It
        // goes on to shard 2, not back to shard 1 (hint 0 plus one hop).
        feeds[0].send(server_addr, peer_addr, b"moved".to_vec());
        assert!(feeds[1].bouncer().bounce(&dg));
        dist.pump(5);
        assert!(feeds[1].poll_any().is_none(), "back to its decliner");
        let next = feeds[2].poll_any().expect("forwarded to shard 2");
        assert_eq!(next.payload, b"mid-cycle");
        assert_eq!(dist.stats().bounced, 1);
    }

    #[test]
    fn full_shard_queue_sheds_overflow_instead_of_growing() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (mut dist, mut feeds) = UdpDistributor::new(socket, 1).unwrap();
        let to = crate::channel::socket_from_addr(dist.local_addr());
        let peer = UdpSocket::bind("127.0.0.1:0").unwrap();

        // Sends `bursts` bursts of FEED_BATCH datagrams, each routed or
        // shed before the next, so the kernel's receive buffer drops none.
        let start = Instant::now();
        let mut sent = 0;
        let mut flood = |dist: &mut UdpDistributor, bursts: usize| {
            for _ in 0..bursts {
                for _ in 0..FEED_BATCH {
                    peer.send_to(b"flood", to).unwrap();
                }
                sent += FEED_BATCH as u64;
                while dist.stats().routed + dist.stats().overflow < sent {
                    assert!(
                        start.elapsed().as_secs() < 10,
                        "datagrams never drained: {:?}",
                        dist.stats()
                    );
                    dist.pump(5);
                }
            }
        };
        let full = FEED_CAPACITY / FEED_BATCH;

        // Nobody drains the lone shard: its queue holds FEED_CAPACITY
        // datagrams, the rest are shed and counted, and the distributor
        // never blocks.
        flood(&mut dist, full + 1);
        assert_eq!(dist.stats().routed, FEED_CAPACITY as u64);
        assert_eq!(dist.stats().overflow, FEED_BATCH as u64);

        // The shard drains its queue, which frees every slot: the next
        // FEED_CAPACITY datagrams are all routed, none shed.
        let drained = std::iter::from_fn(|| feeds[0].poll_any()).count();
        assert_eq!(drained, FEED_CAPACITY);
        flood(&mut dist, full);
        assert_eq!(dist.stats().routed, 2 * FEED_CAPACITY as u64);
        assert_eq!(dist.stats().overflow, FEED_BATCH as u64);
    }

    #[test]
    fn evicted_hints_are_forgotten_but_other_shards_claims_survive() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (dist, mut feeds) = UdpDistributor::new(socket, 2).unwrap();
        let server_addr = dist.local_addr();
        let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peer_addr = addr_from_socket(peer.local_addr().unwrap());

        // Shard 0 replies to the peer: one hint.
        feeds[0].send(server_addr, peer_addr, b"hi".to_vec());
        assert_eq!(dist.stats_handle().hint_count(), 1);

        // The peer's session later lands on shard 1 (roam/reconnect):
        // shard 1's send takes over the hint, and shard 0's eviction
        // must not destroy shard 1's claim.
        feeds[1].send(server_addr, peer_addr, b"again".to_vec());
        feeds[0].evict_hint(peer_addr);
        assert_eq!(
            dist.stats_handle().hint_count(),
            1,
            "shard 1's hint survives"
        );

        feeds[1].evict_hint(peer_addr);
        assert_eq!(
            dist.stats_handle().hint_count(),
            0,
            "owning shard's eviction lands"
        );

        // After eviction the shard-local memo is cold too: a new send
        // re-teaches the shared map rather than skipping it.
        feeds[1].send(server_addr, peer_addr, b"back".to_vec());
        assert_eq!(dist.stats_handle().hint_count(), 1);
    }

    #[test]
    fn stale_deadline_returns_promptly_without_underflow() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (_dist, mut feeds) = UdpDistributor::new(socket, 1).unwrap();
        // Let the shared clock tick past zero so `deadline < now` is a
        // real gap, not a same-millisecond tie.
        std::thread::sleep(Duration::from_millis(5));
        let now = feeds[0].now();
        assert!(now > 0, "clock advanced");
        // A deadline the clock has already passed must return promptly
        // (saturating to a zero timeout), not panic in debug or wrap to
        // a ~585-million-year wait in release.
        let start = Instant::now();
        let woke = feeds[0].wait_until(0);
        assert!(woke >= now);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "stale deadline must not block"
        );
    }

    #[test]
    fn feed_preserves_arrival_order() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (mut dist, mut feeds) = UdpDistributor::new(socket, 1).unwrap();
        let server_addr = dist.local_addr();
        let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
        for i in 0..10u8 {
            peer.send_to(&[i], crate::channel::socket_from_addr(server_addr))
                .unwrap();
        }
        let start = Instant::now();
        let mut got = Vec::new();
        while got.len() < 10 {
            assert!(start.elapsed().as_secs() < 10, "datagrams never arrived");
            dist.pump(5);
            while let Some(dg) = feeds[0].poll_any() {
                got.push(dg.payload[0]);
            }
        }
        // One sender over loopback: arrival order is send order, and the
        // feed must not reorder it.
        assert_eq!(got, (0..10u8).collect::<Vec<_>>());
        assert_eq!(dist.stats().routed, 10);
    }

    #[test]
    fn each_bounce_keeps_its_own_hop_count() {
        // A once-bounced datagram and a fresh one land in the same shard
        // queue; the shard drains BOTH before deciding, then declines
        // both. Each must bounce with its own hop count: the old one
        // completes its fan-out cycle and drops, the fresh one continues
        // to the other shard (the single-cell accounting this replaces
        // would have stamped both with the last-consumed count).
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (mut dist, mut feeds) = UdpDistributor::new(socket, 2).unwrap();
        let server_addr = dist.local_addr();
        let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peer_addr = addr_from_socket(peer.local_addr().unwrap());
        let base = (peer_addr.port as usize) % 2;
        let other = 1 - base;

        peer.send_to(b"veteran", crate::channel::socket_from_addr(server_addr))
            .unwrap();
        let start = Instant::now();
        let veteran = loop {
            assert!(start.elapsed().as_secs() < 10, "never arrived");
            dist.pump(5);
            if let Some(dg) = feeds[base].poll_any() {
                break dg;
            }
        };
        // First decline: the veteran moves to the other shard at hops 1.
        assert!(feeds[base].bouncer().bounce(&veteran));
        peer.send_to(b"fresh one", crate::channel::socket_from_addr(server_addr))
            .unwrap();
        // The fresh datagram routes to `base`; pump until both queues
        // hold their datagram, then drain each shard fully before any
        // decision.
        let mut got_other: Vec<Datagram> = Vec::new();
        let mut got_base: Vec<Datagram> = Vec::new();
        let start = Instant::now();
        while got_other.is_empty() || got_base.is_empty() {
            assert!(start.elapsed().as_secs() < 10, "never routed");
            dist.pump(5);
            got_other.extend(std::iter::from_fn(|| feeds[other].poll_any()));
            got_base.extend(std::iter::from_fn(|| feeds[base].poll_any()));
        }
        assert_eq!(got_other[0].payload, b"veteran");
        assert_eq!(got_base[0].payload, b"fresh one");
        // Decline everything, in arbitrary decision order.
        assert!(feeds[base].bouncer().bounce(&got_base[0]));
        assert!(feeds[other].bouncer().bounce(&got_other[0]));
        dist.pump(5);
        // The veteran finished its cycle (hops 2 of 2): dropped. The
        // fresh one continues at hops 1: fed to the other shard.
        assert_eq!(dist.stats().dropped, 1);
        let cont = feeds[other].poll_any().expect("fresh datagram continues");
        assert_eq!(cont.payload, b"fresh one");
    }

    #[test]
    fn eviction_invalidates_other_shards_stale_memos() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (dist, mut feeds) = UdpDistributor::new(socket, 2).unwrap();
        let server_addr = dist.local_addr();
        let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peer_addr = addr_from_socket(peer.local_addr().unwrap());

        // Both shards served the address at some point (a session that
        // reconnected onto a different shard): both memos hold it, the
        // shared map points at shard 1.
        feeds[0].send(server_addr, peer_addr, b"old".to_vec());
        feeds[1].send(server_addr, peer_addr, b"new".to_vec());

        // The shard-1 session is removed. Shard 0 still serves a live
        // session for this address, and its memo predates the eviction —
        // its next reply must re-teach the shared map, not be blocked by
        // the stale memo (which would leave the address permanently
        // unhinted: every inbound datagram paying the bounce fan-out).
        feeds[1].evict_hint(peer_addr);
        assert_eq!(dist.stats_handle().hint_count(), 0);
        feeds[0].send(server_addr, peer_addr, b"mine".to_vec());
        assert_eq!(
            dist.stats_handle().hint_count(),
            1,
            "live shard re-taught its hint"
        );
    }
}
