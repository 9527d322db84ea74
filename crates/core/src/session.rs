//! The event-driven session driver.
//!
//! Every harness in this tree used to hand-write the same pump: tick both
//! endpoints, advance the simulator one millisecond, drain two mailboxes,
//! repeat — a thousand iterations per virtual second even when both ends
//! were idle. [`SessionLoop`] replaces those loops with one driver that
//! steps straight to the next interesting instant,
//! `min(endpoint wakeups, substrate event, caller deadline)`, over any
//! [`Channel`] substrate — the discrete-event simulator or a live UDP
//! socket — and reports what happened as typed [`SessionEvent`]s.
//!
//! There is one event loop — tick → wait → deliver → check timeouts —
//! in [`ServerHub::pump`]: one `mosh_net::Poller`, a timer wheel, and a
//! slot per session holding everything the hub keeps for it between
//! pumps. [`SessionLoop`] is that hub with one source and one session,
//! so the two cannot drift apart.
//!
//! The stepping is **schedule-identical** to the 1 ms reference loop (a
//! root-level test asserts byte-identical wire transcripts): an endpoint's
//! [`Endpoint::next_wakeup`] is a promise that `tick` is a no-op before
//! that time, so skipping the quiet milliseconds cannot change a single
//! datagram. The ordering contract at any instant `t` matches the
//! reference loop exactly: deliveries at `t` are received first, then
//! caller injections (keystrokes) at `t`, then `tick(t)`. `pump_until`
//! therefore processes arrivals *at* its target but leaves the target
//! tick to the next call, after the caller has injected input.

use crate::client::MoshClient;
use crate::hub::{HubSession, ServerHub, SessionId};
use crate::server::MoshServer;
use crate::Millis;
use mosh_net::{Addr, Channel, ChannelPoller, Poller, Token};
use mosh_ssp::datagram::Opened;

/// Something a session endpoint did or learned, stamped with when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEvent {
    /// A client applied a new authoritative server frame. `echo_ack` is
    /// the newest input index the frame provably reflects (§3.2) — replay
    /// harnesses resolve keystroke latencies from exactly this event.
    FrameAdvanced {
        /// When the frame was applied.
        at: Millis,
        /// The server state number now displayed.
        state_num: u64,
        /// Newest input index covered by the server's echo ack.
        echo_ack: u64,
    },
    /// A server re-targeted to a roaming client's new address (§2.2).
    Roamed {
        /// When the first authentic datagram from the new address arrived.
        at: Millis,
        /// The new target address.
        to: Addr,
    },
    /// An endpoint has heard nothing from its peer for longer than the
    /// loop's configured timeout (the client's "last contact" banner).
    PeerTimeout {
        /// When the silence crossed the threshold.
        at: Millis,
        /// How long the peer has been silent.
        silent_for: Millis,
    },
    /// An octet-stream endpoint rendered more output (the SSH baseline);
    /// `total` is cumulative, the quantity its latency measure tracks.
    BytesRendered {
        /// When the bytes were rendered.
        at: Millis,
        /// Cumulative rendered bytes.
        total: u64,
    },
    /// An endpoint of this session panicked. The hub cut the session off
    /// for the rest of the pump and sent nothing it half-emitted; the
    /// caller rebuilds the server from `checkpoint` (see
    /// [`crate::hub::snapshot::resurrect_server`]) and leases it again
    /// under the same id. Without a checkpoint the session is closed, as a
    /// crashed `mosh-server` is.
    Crashed {
        /// The session's clock when the panic was caught.
        at: Millis,
        /// The session's last framed checkpoint, if it has one.
        checkpoint: Option<Vec<u8>>,
    },
}

/// One timed state machine a [`SessionLoop`] drives: Mosh client or
/// server, an SSH endpoint, a bulk TCP flow, or any test instrument
/// wrapped around one of those.
///
/// `Send` is a supertrait: endpoints are self-contained state machines
/// (no shared interior mutability — the crypto session's counters are
/// `Cell`s, shard-local by construction), which is what lets a sharded
/// hub lease whole sessions to worker threads. `Sync` is deliberately
/// *not* required: a session is only ever driven by one thread at a time.
pub trait Endpoint: Send {
    /// Consumes one wire datagram received at `now` from `from`.
    fn receive(&mut self, now: Millis, from: Addr, wire: &[u8], events: &mut Vec<SessionEvent>);

    /// Runs timers at `now`, appending addressed datagrams to `out`.
    fn tick(&mut self, now: Millis, out: &mut Vec<(Addr, Vec<u8>)>, events: &mut Vec<SessionEvent>);

    /// The earliest future time `tick` could do anything. The contract
    /// that makes event-driven stepping exact *and* cheap has two halves:
    ///
    /// * **No early fire.** Between `now` and the returned time, `tick`
    ///   must be a no-op (absent new receives or caller injections,
    ///   which re-arm the schedule) — so a driver may skip those ticks
    ///   without changing a single datagram.
    /// * **No spin.** Asked right after `tick(now)`, the returned time is
    ///   `> now`: an endpoint never reports a deadline its own `tick`
    ///   declines to act on. A driver clamps an overdue answer to
    ///   `now + 1`, so a violation is not wrong, only a wakeup per
    ///   millisecond that finds nothing to do.
    ///
    /// `tests/wakeup_contract.rs` holds every implementation in the tree
    /// to both halves, and the hub counts violations of the second as
    /// `HubStats::overdue_wakeups`.
    fn next_wakeup(&self, now: Millis) -> Millis;

    /// Time the peer was last heard from, if this endpoint tracks it
    /// (drives [`SessionEvent::PeerTimeout`]).
    fn last_heard(&self) -> Option<Millis> {
        None
    }

    /// True when `wire` cryptographically authenticates to this endpoint's
    /// session, judged **without** consuming the datagram or mutating any
    /// state — the read-only (`&self`) companion of [`Endpoint::try_open`]
    /// for callers that only need the boolean. The hub's demux itself
    /// probes with `try_open` instead, which keeps the verified plaintext
    /// it already paid for. Endpoints without datagram authentication
    /// (SSH/TCP baselines, test instruments) keep the default `false` and
    /// can only be addressed by a unique receive address.
    fn authenticates(&self, _wire: &[u8]) -> bool {
        false
    }

    /// The decrypt-once demux probe: authenticates **and decrypts**
    /// `wire` without consuming it, returning the opened-datagram token
    /// when it belongs to this endpoint's session. Like
    /// [`Endpoint::authenticates`] this mutates no protocol state — but
    /// the verification decrypt is kept instead of discarded, so the hub
    /// can hand the winner its plaintext via
    /// [`Endpoint::receive_opened`] and an ambiguous-address datagram
    /// crosses AES-OCB exactly once. Endpoints without datagram
    /// authentication keep the default `None`.
    fn try_open(&mut self, _wire: &[u8]) -> Option<Opened> {
        None
    }

    /// [`Endpoint::try_open`] over several wires, appending one verdict
    /// per wire to `out`. This default loop is the only implementation
    /// in the workspace, and the hub never calls it: it routes each
    /// datagram with one `try_open` per probe. It stays because the
    /// benchmark's adapter (`benchmark/src/adapter.rs`) times its server
    /// probes through it.
    fn try_open_many(&mut self, wires: &[&[u8]], out: &mut Vec<Option<Opened>>) {
        for wire in wires {
            let opened = self.try_open(wire);
            out.push(opened);
        }
    }

    /// Consumes a token this endpoint produced from [`Endpoint::try_open`]
    /// — identical observable behavior to [`Endpoint::receive`] of the
    /// original wire, minus the duplicate OCB pass. Only ever called with
    /// this endpoint's own tokens; endpoints whose `try_open` never
    /// returns `Some` never see this call.
    fn receive_opened(
        &mut self,
        now: Millis,
        from: Addr,
        opened: Opened,
        events: &mut Vec<SessionEvent>,
    ) {
        let _ = (now, from, opened, events);
        debug_assert!(false, "receive_opened without a matching try_open");
    }

    /// A cheap fingerprint that changes whenever the session's durable
    /// state advances; checkpoint cadence skips sessions whose marker is
    /// unchanged. The default `None` pairs with the default
    /// [`Endpoint::checkpoint`] for endpoints that cannot snapshot.
    fn activity_marker(&self) -> Option<(u64, u64)> {
        None
    }

    /// Serializes this endpoint for handoff or crash recovery,
    /// returning the snapshot body and (as a side effect on the endpoint)
    /// capping its outgoing acks at what the snapshot contains. `None`
    /// (the default) marks an endpoint that does not support
    /// checkpointing — such sessions are simply lost when their shard
    /// dies, exactly as before this machinery existed.
    fn checkpoint(&mut self, _now: Millis) -> Option<Vec<u8>> {
        None
    }
}

impl MoshClient {
    /// Emits [`SessionEvent::FrameAdvanced`] when a receive advanced the
    /// displayed server state (shared by the wire and opened paths).
    fn report_frame_advance(&self, before: u64, now: Millis, events: &mut Vec<SessionEvent>) {
        let state_num = self.remote_state_num();
        if state_num != before {
            events.push(SessionEvent::FrameAdvanced {
                at: now,
                state_num,
                echo_ack: self.echo_ack(),
            });
        }
    }
}

impl Endpoint for MoshClient {
    fn receive(&mut self, now: Millis, _from: Addr, wire: &[u8], events: &mut Vec<SessionEvent>) {
        let before = self.remote_state_num();
        MoshClient::receive(self, now, wire);
        self.report_frame_advance(before, now, events);
    }

    fn tick(
        &mut self,
        now: Millis,
        out: &mut Vec<(Addr, Vec<u8>)>,
        _events: &mut Vec<SessionEvent>,
    ) {
        out.extend(MoshClient::tick(self, now));
    }

    fn next_wakeup(&self, now: Millis) -> Millis {
        MoshClient::next_wakeup(self, now)
    }

    fn last_heard(&self) -> Option<Millis> {
        MoshClient::last_heard(self)
    }

    fn authenticates(&self, wire: &[u8]) -> bool {
        MoshClient::authenticates(self, wire)
    }

    fn try_open(&mut self, wire: &[u8]) -> Option<Opened> {
        MoshClient::try_open(self, wire)
    }

    fn receive_opened(
        &mut self,
        now: Millis,
        _from: Addr,
        opened: Opened,
        events: &mut Vec<SessionEvent>,
    ) {
        let before = self.remote_state_num();
        MoshClient::receive_opened(self, now, opened);
        self.report_frame_advance(before, now, events);
    }
}

impl MoshServer {
    /// Emits [`SessionEvent::Roamed`] when a receive re-targeted the
    /// client address (shared by the wire and opened paths).
    fn report_roam(&self, before: Option<Addr>, now: Millis, events: &mut Vec<SessionEvent>) {
        let target = self.target();
        if target != before {
            events.push(SessionEvent::Roamed {
                at: now,
                to: target.expect("target only ever moves to an address"),
            });
        }
    }
}

impl Endpoint for MoshServer {
    fn receive(&mut self, now: Millis, from: Addr, wire: &[u8], events: &mut Vec<SessionEvent>) {
        let before = self.target();
        MoshServer::receive(self, now, from, wire);
        self.report_roam(before, now, events);
    }

    fn tick(
        &mut self,
        now: Millis,
        out: &mut Vec<(Addr, Vec<u8>)>,
        _events: &mut Vec<SessionEvent>,
    ) {
        out.extend(MoshServer::tick(self, now));
    }

    fn next_wakeup(&self, now: Millis) -> Millis {
        MoshServer::next_wakeup(self, now)
    }

    fn last_heard(&self) -> Option<Millis> {
        MoshServer::last_heard(self)
    }

    fn authenticates(&self, wire: &[u8]) -> bool {
        MoshServer::authenticates(self, wire)
    }

    fn try_open(&mut self, wire: &[u8]) -> Option<Opened> {
        MoshServer::try_open(self, wire)
    }

    fn receive_opened(
        &mut self,
        now: Millis,
        from: Addr,
        opened: Opened,
        events: &mut Vec<SessionEvent>,
    ) {
        let before = self.target();
        MoshServer::receive_opened(self, now, from, opened);
        self.report_roam(before, now, events);
    }

    fn activity_marker(&self) -> Option<(u64, u64)> {
        Some(MoshServer::activity_marker(self))
    }

    fn checkpoint(&mut self, _now: Millis) -> Option<Vec<u8>> {
        Some(self.checkpoint_body())
    }
}

/// An endpoint bound to the address it receives on. The caller keeps
/// ownership of the endpoint and lends it per pump; roaming is the caller
/// assigning a new `addr` between pumps (sim) or rebinding the UDP
/// channel (live).
pub struct Party<'a> {
    /// The address this endpoint currently sends from and receives on.
    pub addr: Addr,
    /// The state machine itself.
    pub endpoint: &'a mut dyn Endpoint,
}

impl<'a> Party<'a> {
    /// Binds `endpoint` to `addr`.
    pub fn new(addr: Addr, endpoint: &'a mut dyn Endpoint) -> Self {
        Party { addr, endpoint }
    }
}

/// The single-session driver: a [`ServerHub`] of one — one source, one
/// session, one lease per pump — over a dedicated [`Channel`] substrate,
/// virtual-time (simulator) or wall-clock (UDP). There is no second
/// event loop: `pump_until` leases the parties to [`ServerHub::pump`].
pub struct SessionLoop<C: Channel> {
    hub: ServerHub<ChannelPoller<C>>,
}

/// The one source of a [`SessionLoop`]'s hub: what
/// [`ChannelPoller::solo`] registers.
const SOURCE: Token = Token(0);
/// Its one session (ids are positional, in registration order).
const SESSION: SessionId = SessionId(0);

impl<C: Channel> SessionLoop<C> {
    /// A driver over `channel`.
    pub fn new(channel: C) -> Self {
        let mut hub = ServerHub::new(ChannelPoller::solo(channel));
        hub.add_session(SOURCE);
        SessionLoop { hub }
    }

    /// Emits [`SessionEvent::PeerTimeout`] when a party's peer has been
    /// silent for `timeout` (once per silence episode).
    pub fn with_peer_timeout(mut self, timeout: Millis) -> Self {
        self.hub.set_peer_timeout(SESSION, Some(timeout));
        self
    }

    /// The substrate's current time.
    pub fn now(&self) -> Millis {
        self.hub.now(SESSION)
    }

    /// The substrate (network stats, UDP local address, ...).
    pub fn channel(&self) -> &C {
        self.hub.poller().channel(SOURCE)
    }

    /// Mutable substrate access (register roamed sim addresses, swap link
    /// conditions, rebind a UDP socket, ...).
    pub fn channel_mut(&mut self) -> &mut C {
        self.hub.poller_mut().channel_mut(SOURCE)
    }

    /// Unwraps the substrate.
    pub fn into_channel(self) -> C {
        self.hub.into_poller().into_solo()
    }

    /// Drives `parties` until the channel clock reaches `target`,
    /// returning every event in order.
    ///
    /// Deliveries *at* `target` are processed; the ticks at `target`
    /// happen at the start of the next pump, so callers inject input due
    /// at `target` between calls and the schedule matches the reference
    /// 1 ms loop exactly (receive → inject → tick at each instant).
    /// Datagrams for addresses no party claims (e.g. a roamed-away
    /// source) are dropped, as a real socket would.
    ///
    /// A panicking endpoint panics here too: a lone session keeps no
    /// checkpoint to restore it from (see [`SessionEvent::Crashed`]).
    pub fn pump_until(&mut self, parties: &mut [Party<'_>], target: Millis) -> Vec<SessionEvent> {
        let events = self
            .hub
            .pump(&mut [HubSession::new(SESSION, parties, target)]);
        events
            .into_iter()
            .map(|(_, event)| match event {
                SessionEvent::Crashed { at, .. } => panic!("session endpoint panicked at {at} ms"),
                event => event,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::LineShell;
    use mosh_crypto::Base64Key;
    use mosh_net::{LinkConfig, Network, Side, SimChannel};
    use mosh_prediction::DisplayPreference;

    fn key() -> Base64Key {
        Base64Key::from_bytes([3u8; 16])
    }

    fn sim_session(seed: u64) -> (SessionLoop<SimChannel>, MoshClient, MoshServer, Addr, Addr) {
        let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), seed);
        let c = Addr::new(1, 1000);
        let s = Addr::new(2, 60001);
        net.register(c, Side::Client);
        net.register(s, Side::Server);
        let client = MoshClient::new(key(), s, 80, 24, DisplayPreference::Never);
        let server = MoshServer::new(key(), Box::new(LineShell::new()));
        (SessionLoop::new(SimChannel::new(net)), client, server, c, s)
    }

    #[test]
    fn pump_reaches_prompt_and_echo() {
        let (mut sl, mut client, mut server, c, s) = sim_session(7);
        sl.pump_until(
            &mut [Party::new(c, &mut client), Party::new(s, &mut server)],
            300,
        );
        assert_eq!(client.server_frame().row_text(0), "$");
        client.keystroke(sl.now(), b"l");
        let t = sl.now() + 300;
        sl.pump_until(
            &mut [Party::new(c, &mut client), Party::new(s, &mut server)],
            t,
        );
        assert_eq!(client.server_frame().row_text(0), "$ l");
    }

    #[test]
    fn frame_advanced_events_carry_echo_acks() {
        let (mut sl, mut client, mut server, c, s) = sim_session(8);
        sl.pump_until(
            &mut [Party::new(c, &mut client), Party::new(s, &mut server)],
            300,
        );
        client.keystroke(sl.now(), b"x");
        let idx = client.input_end_index();
        let t = sl.now() + 500;
        let events = sl.pump_until(
            &mut [Party::new(c, &mut client), Party::new(s, &mut server)],
            t,
        );
        let acked_at = events.iter().find_map(|e| match e {
            SessionEvent::FrameAdvanced { at, echo_ack, .. } if *echo_ack >= idx => Some(*at),
            _ => None,
        });
        // The echo ack needs ~50 ms server-side + a round trip.
        let at = acked_at.expect("keystroke acknowledged in a frame event");
        assert!(at >= 50, "ack at {at}");
    }

    #[test]
    fn roamed_event_fires_on_address_change() {
        let (mut sl, mut client, mut server, c, s) = sim_session(9);
        client.keystroke(0, b"a");
        sl.pump_until(
            &mut [Party::new(c, &mut client), Party::new(s, &mut server)],
            500,
        );
        assert_eq!(server.target(), Some(c));

        let c2 = Addr::new(99, 4321);
        sl.channel_mut().network_mut().register(c2, Side::Client);
        client.keystroke(sl.now(), b"b");
        let t = sl.now() + 1000;
        let events = sl.pump_until(
            &mut [Party::new(c2, &mut client), Party::new(s, &mut server)],
            t,
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, SessionEvent::Roamed { to, .. } if *to == c2)),
            "expected a Roamed event, got {events:?}"
        );
        assert_eq!(server.target(), Some(c2));
        assert_eq!(client.server_frame().row_text(0), "$ ab");
    }

    /// A session with a 2 s peer timeout that made contact, then lost
    /// its link for good at t = 1000.
    fn blacked_out_session() -> (SessionLoop<SimChannel>, MoshClient, MoshServer, Addr, Addr) {
        let (sl, mut client, mut server, c, s) = sim_session(10);
        let mut sl = SessionLoop::new(sl.into_channel()).with_peer_timeout(2000);
        sl.pump_until(
            &mut [Party::new(c, &mut client), Party::new(s, &mut server)],
            1000,
        );
        // Cut the link: everything sent from now on is lost.
        let dead = LinkConfig {
            loss: 1.0,
            ..LinkConfig::lan()
        };
        let mut blackout = Network::new(dead.clone(), dead, 10);
        blackout.register(c, Side::Client);
        blackout.register(s, Side::Server);
        // Fast-forward the fresh network so session time stays monotonic
        // across the swap (SimChannel reads its clock from the network).
        blackout.advance_to(sl.now());
        std::mem::swap(sl.channel_mut().network_mut(), &mut blackout);
        (sl, client, server, c, s)
    }

    fn timeouts(events: &[SessionEvent]) -> usize {
        events
            .iter()
            .filter(|e| matches!(e, SessionEvent::PeerTimeout { .. }))
            .count()
    }

    #[test]
    fn peer_timeout_fires_once_per_silence_episode() {
        let (mut sl, mut client, mut server, c, s) = blacked_out_session();
        let events = sl.pump_until(
            &mut [Party::new(c, &mut client), Party::new(s, &mut server)],
            20_000,
        );
        assert_eq!(
            timeouts(&events),
            2,
            "one per endpoint per episode: {events:?}"
        );
    }

    #[test]
    fn roaming_during_silence_does_not_restart_the_episode() {
        let (mut sl, mut client, mut server, c, s) = blacked_out_session();
        let events = sl.pump_until(
            &mut [Party::new(c, &mut client), Party::new(s, &mut server)],
            12_000,
        );
        assert_eq!(timeouts(&events), 2, "both ends timed out: {events:?}");
        // The client changes address while still cut off. Nothing new was
        // heard, so this is the same silence episode: no second report.
        let c2 = Addr::new(99, 4321);
        sl.channel_mut().network_mut().register(c2, Side::Client);
        let events = sl.pump_until(
            &mut [Party::new(c2, &mut client), Party::new(s, &mut server)],
            20_000,
        );
        assert_eq!(
            timeouts(&events),
            0,
            "same episode, new address: {events:?}"
        );
    }

    /// A lone session has no checkpoint to restore a panicking endpoint
    /// from: the hub contains the panic, and `pump_until` raises it again
    /// rather than return as if nothing happened.
    #[test]
    fn a_panicking_endpoint_panics_the_session_loop() {
        struct PanicEndpoint;

        impl Endpoint for PanicEndpoint {
            fn receive(&mut self, _: Millis, _: Addr, _: &[u8], _: &mut Vec<SessionEvent>) {}

            fn tick(&mut self, _: Millis, _: &mut Vec<(Addr, Vec<u8>)>, _: &mut Vec<SessionEvent>) {
                panic!("injected endpoint panic");
            }

            fn next_wakeup(&self, now: Millis) -> Millis {
                now
            }
        }

        let (mut sl, _, _, c, _) = sim_session(12);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sl.pump_until(&mut [Party::new(c, &mut PanicEndpoint)], 100)
        }));
        let payload = crashed.expect_err("the crash reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("session endpoint panicked at 0 ms")
        );
    }

    #[test]
    fn idle_sessions_step_in_large_strides() {
        let (mut sl, mut client, mut server, c, s) = sim_session(11);
        sl.pump_until(
            &mut [Party::new(c, &mut client), Party::new(s, &mut server)],
            60_000,
        );
        // A minute of idle session: heartbeats every 3 s, frames only at
        // the start. The emulator carried well under 100 datagrams —
        // confirming the loop did not busy-poll its way there.
        let stats = sl.channel().network().stats();
        assert!(
            stats.up.delivered + stats.down.delivered < 100,
            "idle minute moved {} datagrams",
            stats.up.delivered + stats.down.delivered
        );
        assert!(client.last_heard().is_some());
    }
}
