//! The readiness seam: one wait point over many datagram sources.
//!
//! The session event loop (`mosh_core::hub::ServerHub`) owns any number
//! of [`Channel`] sources — one dedicated channel under a single-session
//! `SessionLoop`, one emulated network per simulated session, or one
//! shared UDP socket serving hundreds of sessions — and needs a single
//! place to ask "advance this source to its deadline, and hand me
//! whatever arrived anywhere". A [`Poller`] is that place:
//!
//! * [`SimPoller`] is deterministic: each registered [`SimChannel`] is a
//!   discrete-event world of its own, `wait_until` advances exactly that
//!   world's virtual clock (via the network's event queue), and nothing
//!   arrives anywhere else — which is what makes a hub driving N
//!   simulated sessions byte-identical to N dedicated loops.
//! * [`UdpPoller`] is readiness-style over nonblocking sockets: a wait
//!   is one `poll(2)` over every registered socket that ends when *any*
//!   of them has traffic — the sockets it found ready are drained (via
//!   [`UdpChannel::drain`]) — or at the deadline, so one blocked session
//!   never delays another's input.
//!
//! Sources are identified by a [`Token`] handed out at registration, in
//! the spirit of `mio`; per-session clocks stay per-source because
//! emulated worlds advance independently (and two real sockets have two
//! epochs).

use crate::channel::{wait_readable, Channel, PollFd};
use crate::{Addr, Datagram, Millis, SimChannel, UdpChannel};
use std::collections::VecDeque;
use std::time::Duration;

/// Sources that might have undrained deliveries, each queued at most
/// once. This is what keeps [`Poller::poll_any`] independent of the
/// number of *idle* sources: a wakeup only ever touches sources that were
/// actually waited on or received traffic, never the whole registry.
#[derive(Debug, Default)]
struct ReadySet {
    queue: VecDeque<usize>,
    queued: Vec<bool>,
}

impl ReadySet {
    fn grow(&mut self) {
        self.queued.push(false);
    }

    fn push(&mut self, i: usize) {
        if !self.queued[i] {
            self.queued[i] = true;
            self.queue.push_back(i);
        }
    }

    fn front(&self) -> Option<usize> {
        self.queue.front().copied()
    }

    fn pop(&mut self) {
        if let Some(i) = self.queue.pop_front() {
            self.queued[i] = false;
        }
    }
}

/// Identifies one registered source within a [`Poller`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

/// A set of datagram sources behind one wait point.
pub trait Poller {
    /// The channel type this poller aggregates.
    type Chan: Channel;

    /// Registers a source, returning its token.
    fn add(&mut self, channel: Self::Chan) -> Token;

    /// Number of registered sources.
    fn len(&self) -> usize;

    /// True when no sources are registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A registered source.
    fn channel(&self, tok: Token) -> &Self::Chan;

    /// Mutable access to a registered source (rebind a socket, register
    /// roamed emulator addresses, ...).
    fn channel_mut(&mut self, tok: Token) -> &mut Self::Chan;

    /// Current time on a source's clock.
    fn now(&self, tok: Token) -> Millis {
        self.channel(tok).now()
    }

    /// Sends one datagram on a source.
    fn send(&mut self, tok: Token, from: Addr, to: Addr, payload: Vec<u8>) {
        self.channel_mut(tok).send(from, to, payload);
    }

    /// Sends a batch of datagrams from one source address on a source —
    /// the poller face of [`Channel::send_many`], so a hub flushing one
    /// session tick's output pays per-send bookkeeping once per batch.
    fn send_many(&mut self, tok: Token, from: Addr, batch: Vec<(Addr, Vec<u8>)>) {
        self.channel_mut(tok).send_many(from, batch);
    }

    /// Removes a registered source and returns its channel, for moving a
    /// session's source to another poller (crash recovery, or a rolling
    /// restart handing its socket on). The token is retired, never
    /// reused; touching it afterwards panics like any out-of-range token. Pollers that cannot
    /// release a source (e.g. a shared-socket substrate) return `None` —
    /// the default.
    fn extract(&mut self, tok: Token) -> Option<Self::Chan> {
        let _ = tok;
        None
    }

    /// Time of the next already-scheduled delivery on a source, if the
    /// substrate can know it (the simulator can; real sockets cannot).
    fn next_event_time(&self, tok: Token) -> Option<Millis> {
        self.channel(tok).next_event_time()
    }

    /// Takes the next delivered datagram from *any* source, tagged with
    /// its token. Per-token delivery order is preserved.
    fn poll_any(&mut self) -> Option<(Token, Datagram)>;

    /// Blocks (or advances virtual time) until `deadline` on `tok`'s
    /// clock, returning that clock's new now. May return early — never
    /// before `tok`'s current now — when traffic arrives on any source.
    fn wait_until(&mut self, tok: Token, deadline: Millis) -> Millis;
}

// ---------------------------------------------------------------------
// SimPoller
// ---------------------------------------------------------------------

/// The deterministic poller: every source is its own discrete-event
/// world, advanced only when explicitly waited on. See [`SimPoller`].
#[derive(Debug)]
pub struct ChannelPoller<C: Channel> {
    /// `None` marks an extracted source: its token is retired
    /// (positions are tokens, so slots are never compacted).
    channels: Vec<Option<C>>,
    ready: ReadySet,
}

impl<C: Channel> Default for ChannelPoller<C> {
    fn default() -> Self {
        // Hand-written so `C` itself need not be `Default` (an empty
        // poller holds no channels).
        ChannelPoller::new()
    }
}

/// [`ChannelPoller`] over [`SimChannel`]s — the deterministic poller a
/// hub uses to drive simulated sessions.
pub type SimPoller = ChannelPoller<SimChannel>;

impl<C: Channel> ChannelPoller<C> {
    /// An empty poller.
    pub fn new() -> Self {
        ChannelPoller {
            channels: Vec::new(),
            ready: ReadySet::default(),
        }
    }

    /// A poller over one source, registered as `Token(0)` — the
    /// substrate of a single-session `mosh_core::SessionLoop`.
    pub fn solo(channel: C) -> Self {
        let mut poller = Self::new();
        poller.add(channel);
        poller
    }

    /// Unwraps a single-source poller's channel.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one source is registered.
    pub fn into_solo(mut self) -> C {
        assert_eq!(self.channels.len(), 1, "not a single-source poller");
        self.channels
            .pop()
            .flatten()
            .expect("single source present")
    }
}

impl<C: Channel> Poller for ChannelPoller<C> {
    type Chan = C;

    fn add(&mut self, channel: C) -> Token {
        self.channels.push(Some(channel));
        self.ready.grow();
        Token(self.channels.len() - 1)
    }

    fn len(&self) -> usize {
        self.channels.iter().filter(|c| c.is_some()).count()
    }

    fn channel(&self, tok: Token) -> &C {
        self.channels[tok.0].as_ref().expect("source was extracted")
    }

    fn channel_mut(&mut self, tok: Token) -> &mut C {
        // Conservatively assume the caller made the source ready (swapped
        // a network, advanced it out-of-band): one wasted scan at most.
        self.ready.push(tok.0);
        self.channels[tok.0].as_mut().expect("source was extracted")
    }

    fn poll_any(&mut self) -> Option<(Token, Datagram)> {
        // Only sources that were waited on (or touched) can hold
        // deliveries; idle sources cost nothing here. Ready order is
        // deterministic: sources are independent worlds, so cross-source
        // order carries no meaning.
        while let Some(i) = self.ready.front() {
            if let Some(dg) = self.channels[i].as_mut().and_then(C::poll_any) {
                return Some((Token(i), dg));
            }
            self.ready.pop();
        }
        None
    }

    fn wait_until(&mut self, tok: Token, deadline: Millis) -> Millis {
        let now = self.channels[tok.0]
            .as_mut()
            .expect("source was extracted")
            .wait_until(deadline);
        self.ready.push(tok.0);
        now
    }

    fn extract(&mut self, tok: Token) -> Option<C> {
        self.channels[tok.0].take()
    }
}

// ---------------------------------------------------------------------
// UdpPoller
// ---------------------------------------------------------------------

/// The readiness-style poller over real nonblocking UDP sockets.
///
/// A wait blocks in one `poll(2)` over every registered socket until the
/// deadline or the first arrival anywhere, then drains the sockets it
/// found ready (via [`UdpChannel::drain`]). Everything except the wait
/// is [`ChannelPoller`]'s registry, shared by delegation.
#[derive(Debug, Default)]
pub struct UdpPoller {
    inner: ChannelPoller<UdpChannel>,
    /// The wait set, one entry per registered source in token order,
    /// rebuilt per wait (a source may have been rebound or extracted
    /// since).
    fds: Vec<PollFd>,
}

impl UdpPoller {
    /// An empty poller.
    pub fn new() -> Self {
        UdpPoller::default()
    }
}

impl Poller for UdpPoller {
    type Chan = UdpChannel;

    fn add(&mut self, channel: UdpChannel) -> Token {
        self.inner.add(channel)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn channel(&self, tok: Token) -> &UdpChannel {
        self.inner.channel(tok)
    }

    fn channel_mut(&mut self, tok: Token) -> &mut UdpChannel {
        self.inner.channel_mut(tok)
    }

    fn poll_any(&mut self) -> Option<(Token, Datagram)> {
        self.inner.poll_any()
    }

    fn extract(&mut self, tok: Token) -> Option<UdpChannel> {
        self.inner.extract(tok)
    }

    fn wait_until(&mut self, tok: Token, deadline: Millis) -> Millis {
        let UdpPoller { inner, fds } = self;
        fds.clear();
        let mut got = false;
        for (i, ch) in inner.channels.iter().enumerate() {
            let Some(ch) = ch else { continue };
            if ch.pending() {
                inner.ready.push(i);
                got = true;
            }
            fds.push(ch.poll_fd());
        }
        loop {
            let now = inner.channel(tok).now();
            if got || now >= deadline {
                return now;
            }
            // Saturating on principle, like `UdpChannel::wait_until`.
            wait_readable(fds, Duration::from_millis(deadline.saturating_sub(now)));
            let live = inner.channels.iter_mut().enumerate();
            let live = live.filter_map(|(i, ch)| Some((i, ch.as_mut()?)));
            for (fd, (i, ch)) in fds.iter().zip(live) {
                if fd.ready() && ch.drain() {
                    inner.ready.push(i);
                    got = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkConfig, Network, Side};

    fn sim_world(seed: u64) -> (SimChannel, Addr, Addr) {
        let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), seed);
        let c = Addr::new(1, 1000);
        let s = Addr::new(2, 60001);
        net.register(c, Side::Client);
        net.register(s, Side::Server);
        (SimChannel::new(net), c, s)
    }

    #[test]
    fn sim_poller_advances_sources_independently() {
        let mut poller = SimPoller::new();
        let (ch_a, ca, sa) = sim_world(1);
        let (ch_b, cb, sb) = sim_world(2);
        let a = poller.add(ch_a);
        let b = poller.add(ch_b);

        poller.send(a, ca, sa, b"for a".to_vec());
        poller.send(b, cb, sb, b"for b".to_vec());

        // Advancing world A delivers only A's traffic; B's clock is
        // untouched.
        poller.wait_until(a, 10);
        assert_eq!(poller.now(a), 10);
        assert_eq!(poller.now(b), 0);
        let (tok, dg) = poller.poll_any().expect("A's datagram");
        assert_eq!(tok, a);
        assert_eq!(dg.payload, b"for a");
        assert!(poller.poll_any().is_none(), "B has not advanced");

        poller.wait_until(b, 10);
        let (tok, dg) = poller.poll_any().expect("B's datagram");
        assert_eq!(tok, b);
        assert_eq!(dg.payload, b"for b");
    }

    #[test]
    fn udp_poller_wakes_on_traffic_for_any_source() {
        let mut poller = UdpPoller::new();
        let a = poller.add(UdpChannel::bind("127.0.0.1:0").unwrap());
        let b = poller.add(UdpChannel::bind("127.0.0.1:0").unwrap());
        let b_addr = poller.channel(b).local_addr();
        let a_addr = poller.channel(a).local_addr();

        // Send to B, then wait on A's clock: the sweep must surface B's
        // datagram well before A's distant deadline.
        poller.send(a, a_addr, b_addr, b"cross".to_vec());
        let deadline = poller.now(a) + 2_000;
        let woke_at = poller.wait_until(a, deadline);
        assert!(woke_at < deadline, "sweep returned early on traffic");
        let (tok, dg) = poller.poll_any().expect("delivered");
        assert_eq!(tok, b);
        assert_eq!(dg.payload, b"cross");
        assert_eq!(dg.from, a_addr);
    }

    #[test]
    fn udp_poller_single_socket_blocks_like_the_channel() {
        let mut poller = UdpPoller::new();
        let a = poller.add(UdpChannel::bind("127.0.0.1:0").unwrap());
        let target = poller.now(a) + 25;
        let now = poller.wait_until(a, target);
        assert!(now >= target);
    }
}
