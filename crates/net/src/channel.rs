//! Pluggable datagram substrates: the seam between SSP and the world.
//!
//! The paper's central design claim (§2) is that SSP is a pure state
//! machine: all timing is supplied by the caller, so the same endpoint
//! code runs under the evaluation simulator and over live UDP. A
//! [`Channel`] is that seam — it owns a clock and moves datagrams, and
//! nothing else:
//!
//! * [`SimChannel`] adapts the discrete-event [`Network`] emulator.
//!   `wait_until` advances virtual time instantly, so 40 hours of traces
//!   replay in seconds.
//! * [`UdpChannel`] wraps a real, nonblocking `std::net::UdpSocket` with
//!   a monotonic-clock→[`Millis`] mapping. `wait_until` genuinely blocks
//!   (until the deadline or earlier traffic), so the same event loop
//!   that drives the simulator drives a live session.
//!
//! Every real socket in the crate waits the same way: in
//! `wait_readable`, one `poll(2)` over the descriptors that can wake
//! the waiter, with a timeout that ends exactly at its deadline. The
//! sockets themselves never block — a reader drains its kernel queue
//! until `WouldBlock` and waits again — so a datagram is handed on when
//! it arrives, not when a read timeout (a scheduler tick, 4 ms on a
//! `HZ=250` kernel) next expires.
//!
//! The event loop (`mosh_core::hub::ServerHub`, reaching channels through
//! a [`crate::poller::Poller`]) steps time by
//! `min(endpoint wakeups, next_event_time, deadline)` instead of polling
//! every millisecond.

use crate::sim::Network;
use crate::{Addr, Datagram, Host, Millis};
use std::collections::VecDeque;
use std::io;
use std::net::{
    Ipv4Addr, Ipv6Addr, SocketAddr, SocketAddrV4, SocketAddrV6, ToSocketAddrs, UdpSocket,
};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short};
use std::time::{Duration, Instant};

/// A datagram substrate plus a clock.
///
/// All methods are non-blocking except [`Channel::wait_until`], which is
/// where a backend either advances virtual time (simulator) or sleeps on
/// the socket (UDP).
pub trait Channel {
    /// Current time on this channel's clock.
    fn now(&self) -> Millis;

    /// Sends one datagram. Datagram semantics: may be lost, reordered, or
    /// duplicated; never an error the caller must handle.
    fn send(&mut self, from: Addr, to: Addr, payload: Vec<u8>);

    /// Takes the next delivered datagram for *any* endpoint, in delivery
    /// order.
    fn poll_any(&mut self) -> Option<Datagram>;

    /// Time of the next already-scheduled delivery, if the substrate can
    /// know it (the simulator can; real networks cannot).
    fn next_event_time(&self) -> Option<Millis>;

    /// Blocks (or advances virtual time) until `deadline`, returning the
    /// new `now`. May return early — but never before `now` — when
    /// traffic arrives first; callers must re-check their own timers.
    fn wait_until(&mut self, deadline: Millis) -> Millis;

    /// Forgets any routing state this substrate learned for `addr` — the
    /// session behind that address is gone. A no-op for substrates that
    /// learn nothing; a distributor-fed channel drops its shared source
    /// hint (see `feed::FeedChannel`), so long-running hint maps track
    /// live sessions, not every address ever replied to.
    fn evict_hint(&mut self, addr: Addr) {
        let _ = addr;
    }

    /// Sends a batch of datagrams from one source address — the
    /// `sendmmsg`-shaped transmit path. Datagram semantics per element,
    /// exactly like [`Channel::send`]. The default is the portable
    /// fallback (a `send` loop); substrates that can amortize per-send
    /// bookkeeping across the batch override it (see
    /// `feed::FeedChannel`, which takes the hint-map lock once per batch
    /// instead of once per datagram).
    fn send_many(&mut self, from: Addr, batch: Vec<(Addr, Vec<u8>)>) {
        for (to, payload) in batch {
            self.send(from, to, payload);
        }
    }
}

// ---------------------------------------------------------------------
// SimChannel
// ---------------------------------------------------------------------

/// The discrete-event [`Network`] emulator behind the [`Channel`] seam.
///
/// Both sides of an emulated session share one `SimChannel` (the network
/// *is* the shared medium): [`Channel::poll_any`] yields every delivery,
/// to either side, from one queue in delivery order, and a driver hands
/// each to the endpoint at its [`Datagram::to`].
#[derive(Debug)]
pub struct SimChannel {
    net: Network,
}

impl SimChannel {
    /// Wraps an emulated network. Register endpoints on the network
    /// (before or after wrapping) exactly as without the seam.
    pub fn new(net: Network) -> Self {
        SimChannel { net }
    }

    /// The underlying emulator (for stats and assertions).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access (to register roamed addresses, swap link
    /// conditions mid-session, ...). When replacing the network outright,
    /// first `advance_to` the current [`Channel::now`] on the incoming
    /// network: this channel's clock *is* the network's, and endpoint
    /// time must never move backwards.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }
}

impl Channel for SimChannel {
    fn now(&self) -> Millis {
        self.net.now()
    }

    fn send(&mut self, from: Addr, to: Addr, payload: Vec<u8>) {
        self.net.send(from, to, payload);
    }

    fn poll_any(&mut self) -> Option<Datagram> {
        self.net.poll_any()
    }

    fn next_event_time(&self) -> Option<Millis> {
        self.net.next_event_time()
    }

    fn wait_until(&mut self, deadline: Millis) -> Millis {
        let t = deadline.max(self.net.now());
        self.net.advance_to(t);
        t
    }
}

// ---------------------------------------------------------------------
// The readiness wait
// ---------------------------------------------------------------------

/// One descriptor in a [`wait_readable`] set: `poll(2)`'s
/// `struct pollfd`, laid out as the C library declares it.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `POLLIN`: there is data to read (the same bit on every Unix).
const POLLIN: c_short = 0x1;

/// `nfds_t`, the type of `poll`'s count argument.
#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

impl PollFd {
    /// Watches `source` for something to read.
    pub(crate) fn readable(source: &impl AsRawFd) -> Self {
        PollFd {
            fd: source.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }
    }

    /// True when the last wait found this descriptor ready: readable, or
    /// in an error or hang-up state, which its next read reports.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// Blocks until one of `fds` is ready or `timeout` has passed — the one
/// readiness wait under [`UdpChannel`], [`crate::poller::UdpPoller`] and
/// [`crate::feed::UdpDistributor`]. The timeout rounds up to whole
/// milliseconds (`poll`'s unit, timed by a high-resolution timer, not
/// the scheduler tick), so a wait never ends before it. A wait a signal
/// interrupts ends early with nothing ready; callers re-check their own
/// deadline and wait again.
pub(crate) fn wait_readable(fds: &mut [PollFd], timeout: Duration) {
    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    let ms = timeout
        .as_nanos()
        .div_ceil(1_000_000)
        .min(c_int::MAX as u128) as c_int;
    // SAFETY: `fds` is a live, exclusively borrowed slice of
    // `#[repr(C)]` `struct pollfd`s and `nfds` is its exact length;
    // `poll` reads `fd`/`events`, writes only `revents` of those entries,
    // and keeps no pointer past its return.
    unsafe {
        poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms);
    }
}

// ---------------------------------------------------------------------
// UdpChannel
// ---------------------------------------------------------------------

/// Maximum UDP datagram we accept (fragments are far smaller).
pub(crate) const MAX_DATAGRAM: usize = 64 * 1024;

/// Upper bound on datagrams consumed by one [`UdpChannel::drain`].
const MAX_DRAIN: usize = 1024;

/// The [`Addr`] for a socket address of either family. IPv4-mapped IPv6
/// sources (`::ffff:a.b.c.d`, what a dual-stack socket reports for IPv4
/// senders) are normalized to [`Host::V4`], so a peer has one identity no
/// matter which family the kernel reported it under. The IPv6 scope id is
/// carried through, so a link-local peer (`fe80::…%iface`) keeps the
/// interface that makes its address routable.
pub fn addr_from_socket(sa: SocketAddr) -> Addr {
    match sa {
        SocketAddr::V4(v4) => Addr::new(u32::from(*v4.ip()), v4.port()),
        SocketAddr::V6(v6) => match v6.ip().to_ipv4_mapped() {
            Some(v4) => Addr::new(u32::from(v4), v6.port()),
            None => Addr::v6_scoped(u128::from(*v6.ip()), v6.scope_id(), v6.port()),
        },
    }
}

/// The socket address an [`Addr`] stands for (inverse of
/// [`addr_from_socket`]). IPv4-mapped IPv6 hosts come back out as plain
/// V4 socket addresses — the kernel routes those from sockets of either
/// family, which is what makes a mid-session IPv4→IPv6 rebind work.
/// Scoped (link-local) hosts come back with their scope id, so replies to
/// `fe80::…%iface` leave on the right interface instead of failing with
/// scope 0.
pub fn socket_from_addr(a: Addr) -> SocketAddr {
    match a.host {
        Host::V4(h) => SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::from(h), a.port)),
        Host::V6(h, scope) => {
            let ip = Ipv6Addr::from(h);
            match ip.to_ipv4_mapped() {
                Some(v4) => SocketAddr::V4(SocketAddrV4::new(v4, a.port)),
                None => SocketAddr::V6(SocketAddrV6::new(ip, a.port, 0, scope)),
            }
        }
    }
}

/// Sends one datagram on a socket, in the family the socket can route.
/// An AF_INET6 socket cannot portably send to an AF_INET sockaddr (Linux
/// tolerates it; BSD kernels return EAFNOSUPPORT), so a V6-bound sender
/// addresses IPv4 peers in v4-mapped form. Datagram semantics: a failed
/// send (a full send buffer on a nonblocking socket, an unroutable
/// destination) is a lost packet, and SSP's retransmission timers already
/// handle loss; the error is returned for the caller to count. Shared by
/// [`UdpChannel`] and the distributor's [`crate::feed::FeedChannel`]
/// (which sends on a socket owned by another thread —
/// `UdpSocket::send_to` is `&self`).
pub(crate) fn send_raw(
    socket: &UdpSocket,
    local_is_v6: bool,
    to: Addr,
    payload: &[u8],
) -> io::Result<()> {
    let target = match (local_is_v6, socket_from_addr(to)) {
        (true, SocketAddr::V4(v4)) => {
            SocketAddr::V6(SocketAddrV6::new(v4.ip().to_ipv6_mapped(), v4.port(), 0, 0))
        }
        (_, sa) => sa,
    };
    socket.send_to(payload, target).map(drop)
}

/// Receives one datagram from a nonblocking socket, stamped as delivered
/// to `local` — the one receive call under [`UdpChannel`] and the
/// distributor ([`crate::feed::UdpDistributor`]). An error is
/// `WouldBlock` (the kernel queue is empty) or a transient condition
/// such as an ICMP-propagated ECONNREFUSED, which occupies one slot of
/// the socket's queue and is read past.
pub(crate) fn recv_raw(socket: &UdpSocket, buf: &mut [u8], local: Addr) -> io::Result<Datagram> {
    let (n, src) = socket.recv_from(buf)?;
    Ok(Datagram {
        from: addr_from_socket(src),
        to: local,
        payload: buf[..n].to_vec(),
    })
}

/// A live UDP socket behind the [`Channel`] seam (IPv4 or IPv6).
///
/// Time is milliseconds on a monotonic clock since the channel was
/// created — the same [`Millis`] the state machines already speak. The
/// two ends of a session each run their own clock; SSP only ever compares
/// times locally (RTT comes from echoed timestamps), so the clocks need
/// not agree.
///
/// Sends to a family the socket cannot reach (an IPv6 destination from an
/// IPv4 socket) fail at the kernel and count as packet loss — datagram
/// semantics, and SSP's retransmission timers already cover loss.
#[derive(Debug)]
pub struct UdpChannel {
    socket: UdpSocket,
    /// Epoch for the `Millis` mapping. Survives `rebind` so virtual time
    /// never jumps backwards for the endpoint, even as the client roams.
    start: Instant,
    local: Addr,
    inbox: VecDeque<Datagram>,
    buf: Box<[u8; MAX_DATAGRAM]>,
}

/// Binds a UDP socket in the nonblocking mode every real socket here
/// runs in (see [`wait_readable`]).
fn bind_nonblocking<A: ToSocketAddrs>(addr: A) -> io::Result<UdpSocket> {
    let socket = UdpSocket::bind(addr)?;
    socket.set_nonblocking(true)?;
    Ok(socket)
}

impl UdpChannel {
    /// Binds a socket of either family (`"127.0.0.1:0"`, `"[::1]:0"`, or
    /// `"[::]:0"` for a dual-stack wildcard, with `0` an ephemeral port).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let socket = bind_nonblocking(addr)?;
        let local = addr_from_socket(socket.local_addr()?);
        Ok(UdpChannel {
            socket,
            start: Instant::now(),
            local,
            inbox: VecDeque::new(),
            buf: Box::new([0u8; MAX_DATAGRAM]),
        })
    }

    /// This socket's address in [`Addr`] form.
    pub fn local_addr(&self) -> Addr {
        self.local
    }

    /// Re-binds to a fresh socket — roaming, the paper's way (§2.2): the
    /// client simply starts sending from a new address; the server learns
    /// it from the source of the next authentic datagram. The new socket
    /// may be of the other address family (IPv4 → IPv6 or back). The
    /// clock epoch and any undelivered inbox survive, so the endpoint's
    /// virtual time stays monotonic across the move.
    pub fn rebind<A: ToSocketAddrs>(&mut self, addr: A) -> io::Result<()> {
        let socket = bind_nonblocking(addr)?;
        self.local = addr_from_socket(socket.local_addr()?);
        self.socket = socket;
        // Undelivered datagrams were addressed to the old socket but
        // belong to this endpoint; re-stamp them so a driver matching on
        // the (new) local address still delivers them.
        for dg in &mut self.inbox {
            dg.to = self.local;
        }
        Ok(())
    }

    /// Drains everything currently queued on the socket into the inbox
    /// without blocking, returning true when the inbox then holds
    /// anything to read. This is the readiness primitive
    /// [`crate::poller::UdpPoller`] builds on: a hub serving many
    /// sessions waits on all its sockets in one `poll(2)` and drains the
    /// ones the wait found ready.
    pub fn drain(&mut self) -> bool {
        // Bounded in calls, so a persistently erroring socket cannot
        // spin forever.
        for _ in 0..MAX_DRAIN {
            match recv_raw(&self.socket, &mut self.buf[..], self.local) {
                Ok(dg) => self.inbox.push_back(dg),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => continue, // transient: drain past it
            }
        }
        self.pending()
    }

    /// True when datagrams already drained wait in the inbox.
    pub(crate) fn pending(&self) -> bool {
        !self.inbox.is_empty()
    }

    /// The socket's entry in a readiness wait ([`wait_readable`]).
    pub(crate) fn poll_fd(&self) -> PollFd {
        PollFd::readable(&self.socket)
    }
}

impl Channel for UdpChannel {
    fn now(&self) -> Millis {
        self.start.elapsed().as_millis() as Millis
    }

    fn send(&mut self, _from: Addr, to: Addr, payload: Vec<u8>) {
        // A failed send is a lost datagram (see `send_raw`).
        let _ = send_raw(&self.socket, self.local.is_v6(), to, &payload);
    }

    fn poll_any(&mut self) -> Option<Datagram> {
        self.inbox.pop_front()
    }

    fn next_event_time(&self) -> Option<Millis> {
        None // A real network cannot announce its arrivals.
    }

    fn wait_until(&mut self, deadline: Millis) -> Millis {
        loop {
            let now = self.now();
            if now >= deadline || self.pending() {
                return now;
            }
            // Saturating on principle: the guard above makes
            // `now < deadline` here, but this arithmetic must never be
            // one refactor away from a debug panic (or a ~585-million-
            // year timeout) on a stale deadline. `now` truncates the
            // clock, so a whole-millisecond wait from it reaches the
            // deadline.
            let timeout = Duration::from_millis(deadline.saturating_sub(now));
            let mut fd = [self.poll_fd()];
            wait_readable(&mut fd, timeout);
            if fd[0].ready() {
                self.drain();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkConfig, Side};

    #[test]
    fn sim_channel_carries_datagrams_with_virtual_time() {
        let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), 1);
        let c = Addr::new(1, 1000);
        let s = Addr::new(2, 60001);
        net.register(c, Side::Client);
        net.register(s, Side::Server);
        let mut ch = SimChannel::new(net);
        ch.send(c, s, b"hello".to_vec());
        assert!(ch.poll_any().is_none(), "not delivered yet");
        let t = ch.next_event_time().expect("delivery scheduled");
        let now = ch.wait_until(t);
        assert_eq!(now, t);
        // The departure event comes first on a LAN; step until arrival.
        let dg = loop {
            if let Some(dg) = ch.poll_any() {
                break dg;
            }
            let t = ch.next_event_time().expect("arrival still pending");
            ch.wait_until(t);
        };
        assert_eq!(dg.payload, b"hello");
        assert_eq!(dg.from, c);
        assert_eq!(dg.to, s);
    }

    #[test]
    fn addr_socket_mapping_round_trips() {
        let sa: SocketAddr = "127.0.0.1:60001".parse().unwrap();
        let a = addr_from_socket(sa);
        assert_eq!(a.port, 60001);
        assert!(!a.is_v6());
        assert_eq!(socket_from_addr(a), sa);

        let sa6: SocketAddr = "[fe80::1]:60002".parse().unwrap();
        let a6 = addr_from_socket(sa6);
        assert!(a6.is_v6());
        assert_eq!(socket_from_addr(a6), sa6);

        // A scoped link-local source keeps its interface: the reply
        // reconstructs the same scope id, not scope 0.
        let scoped = SocketAddr::V6(SocketAddrV6::new(
            "fe80::dead:beef".parse().unwrap(),
            60004,
            0,
            7,
        ));
        let as6 = addr_from_socket(scoped);
        assert_eq!(
            as6,
            Addr::v6_scoped(0xfe80_u128 << 112 | 0xdead_beef, 7, 60004)
        );
        assert_eq!(socket_from_addr(as6), scoped);
        assert_eq!(as6.to_string(), "[fe80::dead:beef%7]:60004");
        // Same sixteen octets on a different link = a different peer.
        let other_link = addr_from_socket(SocketAddr::V6(SocketAddrV6::new(
            "fe80::dead:beef".parse().unwrap(),
            60004,
            0,
            8,
        )));
        assert_ne!(as6, other_link);

        // A v4-mapped source (dual-stack socket reporting an IPv4 peer)
        // normalizes to the plain V4 identity and socket address.
        let mapped: SocketAddr = "[::ffff:127.0.0.1]:60003".parse().unwrap();
        let am = addr_from_socket(mapped);
        assert_eq!(am, Addr::new(0x7f00_0001, 60003));
        assert_eq!(socket_from_addr(am), "127.0.0.1:60003".parse().unwrap());
    }

    #[test]
    fn udp_channel_loopback_round_trip() {
        let mut a = UdpChannel::bind("127.0.0.1:0").unwrap();
        let mut b = UdpChannel::bind("127.0.0.1:0").unwrap();
        a.send(a.local_addr(), b.local_addr(), b"ping".to_vec());
        // Wait up to ~1 s of channel time for delivery.
        let deadline = b.now() + 1000;
        let dg = loop {
            b.wait_until((b.now() + 20).min(deadline));
            if let Some(dg) = b.poll_any() {
                break dg;
            }
            assert!(b.now() < deadline, "loopback datagram never arrived");
        };
        assert_eq!(dg.payload, b"ping");
        assert_eq!(dg.from, a.local_addr());
        assert_eq!(dg.to, b.local_addr());
    }

    #[test]
    fn udp_wait_until_reaches_the_deadline_when_idle() {
        let mut ch = UdpChannel::bind("127.0.0.1:0").unwrap();
        let target = ch.now() + 30;
        let now = ch.wait_until(target);
        assert!(now >= target, "woke at {now}, wanted {target}");
    }

    #[test]
    fn udp_rebind_changes_address_but_not_clock() {
        let mut ch = UdpChannel::bind("127.0.0.1:0").unwrap();
        let old = ch.local_addr();
        let before = ch.now();
        ch.rebind("127.0.0.1:0").unwrap();
        assert_ne!(ch.local_addr().port, old.port);
        assert!(ch.now() >= before, "clock survives the rebind");
    }
}
