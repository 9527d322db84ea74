//! The Mosh server: terminal host, echo-ack bookkeeping, and roaming.
//!
//! The server owns the **authoritative** terminal state (paper §3): it
//! applies user keystrokes to the hosted application, applies the
//! application's writes to the emulator, and lets SSP synchronize the
//! resulting frames back to the client. Two pieces of paper machinery live
//! here:
//!
//! * **Echo ack (§3.2)** — a keystroke that has been presented to the
//!   application for at least [`ECHO_TIMEOUT`] is acknowledged in the
//!   synchronized state, so the client can judge its predictions without
//!   any client-side timeout (jitter-immune).
//! * **Roaming (§2.2)** — "every time the server receives an authentic
//!   datagram from the client with a sequence number greater than any
//!   before, it sets the packet's source IP address and UDP port number as
//!   its new target."

use crate::apps::{Application, TimedWrite};
use crate::Millis;
use mosh_crypto::session::Direction;
use mosh_crypto::Base64Key;
use mosh_net::{Addr, Host};
use mosh_ssp::datagram::Opened;
use mosh_ssp::transport::{ReceiveEvent, Transport};
use mosh_ssp::wire::{get_bool, put_bool, put_bytes, put_varint, Reader};
use mosh_states::{CompleteTerminal, UserEvent, UserStream};
use std::collections::VecDeque;

/// Server-side echo acknowledgment timeout: "chosen to contain the vast
/// majority of legitimate application echoes on loaded servers, while
/// still fast enough to rapidly detect mistaken predictions" (§3.2).
pub const ECHO_TIMEOUT: Millis = 50;

/// A listener for when application output reaches the terminal and when
/// a frame carries it away — Figure 3's protocol-induced delay is the gap
/// between the two.
///
/// Installed by a measurement harness with [`MoshServer::observe_writes`]
/// (`mosh_trace`'s replay does, for `fig3_collection`); a server in
/// service has none, keeps no record of past writes, and does no work for
/// one. The observer belongs to the process that installed it: it is
/// never part of a session snapshot, and a restored server has none.
pub trait WriteObserver: Send {
    /// An application write was applied to the terminal at `at`.
    fn write_applied(&mut self, at: Millis);
    /// A frame covering every write applied so far left at `now`.
    fn frame_shipped(&mut self, now: Millis);
}

/// The server half of a Mosh session.
///
/// The authoritative terminal lives *inside* the transport's sender (its
/// current state), mutated in place as writes apply — there is no second
/// terminal copy cloned into the sender per frame; the only snapshots
/// taken are the sender's retained diff sources, one per state actually
/// shipped.
pub struct MoshServer {
    transport: Transport<CompleteTerminal, UserStream>,
    app: Box<dyn Application>,
    /// True when the terminal changed since the last commit to the
    /// sender's collection clock.
    dirty: bool,
    /// Next user-stream event index to apply.
    applied_through: u64,
    /// Keystrokes applied but not yet echo-acked: (index+1, applied_at).
    echo_queue: VecDeque<(u64, Millis)>,
    /// Application writes not yet due.
    pending_writes: VecDeque<TimedWrite>,
    /// Where to send packets: the source of the newest authentic datagram.
    target: Option<Addr>,
    started: bool,
    observer: Option<Box<dyn WriteObserver>>,
}

impl MoshServer {
    /// Creates a server hosting `app`, keyed for one client.
    pub fn new(key: Base64Key, app: Box<dyn Application>) -> Self {
        MoshServer {
            transport: Transport::new(
                key,
                Direction::ToClient,
                CompleteTerminal::initial(),
                UserStream::new(),
            ),
            app,
            dirty: false,
            applied_through: 0,
            echo_queue: VecDeque::new(),
            pending_writes: VecDeque::new(),
            target: None,
            started: false,
            observer: None,
        }
    }

    /// Installs the listener told of every write applied and every frame
    /// that covers them (see [`WriteObserver`]), replacing any earlier one.
    pub fn observe_writes(&mut self, observer: Box<dyn WriteObserver>) {
        self.observer = Some(observer);
    }

    /// Overrides the collection interval (Figure 3's sweep).
    pub fn set_mindelay(&mut self, mindelay: Millis) {
        self.transport.set_mindelay(mindelay);
    }

    /// The authoritative screen (for tests and the Control-C experiment).
    pub fn frame(&self) -> &mosh_terminal::Framebuffer {
        self.transport.current_state().frame()
    }

    /// Scrolls the host-side viewport `delta` lines into scrollback
    /// (negative values move back toward the live screen). Viewport
    /// state — scrollback plus [`Framebuffer::display_offset`] — rides
    /// session snapshots (migration, checkpoint/resurrect, handoff) but
    /// is never part of the synchronized state the client sees, so this
    /// needs no sender commit and changes no wire traffic.
    ///
    /// [`Framebuffer::display_offset`]: mosh_terminal::Framebuffer::display_offset
    pub fn scroll_view(&mut self, delta: isize) {
        self.transport.current_state_mut().scroll_view(delta);
    }

    /// Smoothed RTT as the server sees it.
    pub fn srtt(&self) -> f64 {
        self.transport.srtt()
    }

    /// The address the server currently replies to.
    pub fn target(&self) -> Option<Addr> {
        self.target
    }

    /// Sender statistics (piggyback/heartbeat counters for the ablations).
    pub fn sender_stats(&self) -> &mosh_ssp::sender::SenderStats {
        self.transport.sender_stats()
    }

    /// True when `wire` authenticates under this session's key, without
    /// consuming it. A multi-session hub uses this to demultiplex
    /// datagrams whose source address is ambiguous (two roaming clients
    /// behind one NAT address, paper §2.2) — authentication, never the
    /// address, decides session identity.
    pub fn authenticates(&self, wire: &[u8]) -> bool {
        self.transport.authenticates(wire)
    }

    /// Authenticates and decrypts `wire` without consuming it, returning
    /// the opened-datagram token on success — the decrypt-once demux
    /// probe. Consume the token with [`MoshServer::receive_opened`].
    pub fn try_open(&mut self, wire: &[u8]) -> Option<Opened> {
        self.transport.open(wire).ok()
    }

    /// Number of OCB open attempts this endpoint has performed
    /// (decrypt-once instrumentation).
    pub fn decrypt_count(&self) -> u64 {
        self.transport.decrypt_count()
    }

    /// Wire counters (sent/accepted/rejected datagrams).
    pub fn transport_stats(&self) -> &mosh_ssp::transport::TransportStats {
        self.transport.stats()
    }

    /// Next outgoing datagram sequence number (nonce bookkeeping —
    /// lets recovery tests verify the resurrection skip margin).
    pub fn next_seq(&self) -> u64 {
        self.transport.next_seq()
    }

    fn schedule_writes(&mut self, writes: Vec<TimedWrite>) {
        Self::schedule_into(&mut self.pending_writes, writes);
    }

    /// Queues writes ordered by due time (stable for equal times); an
    /// associated fn so callers holding other field borrows can use it.
    ///
    /// The queue is sorted by `at` — only this function adds to it, and
    /// [`Self::decode_snapshot_body`] rejects a body that is not — so the
    /// slot is a binary search, and a command's in-order burst appends
    /// without shifting anything.
    fn schedule_into(pending_writes: &mut VecDeque<TimedWrite>, writes: Vec<TimedWrite>) {
        for w in writes {
            let pos = pending_writes.partition_point(|p| p.at <= w.at);
            pending_writes.insert(pos, w);
        }
    }

    /// Handles one wire datagram from `from`, arriving at `now`.
    pub fn receive(&mut self, now: Millis, from: Addr, wire: &[u8]) {
        let Ok(event) = self.transport.receive(now, wire) else {
            return; // Inauthentic datagrams are line noise.
        };
        self.after_receive(now, from, event);
    }

    /// Handles an already-opened datagram from `from` at `now` (the
    /// decrypt-once path): same behavior as [`MoshServer::receive`] of
    /// the original wire, without a second OCB pass.
    pub fn receive_opened(&mut self, now: Millis, from: Addr, opened: Opened) {
        let Ok(event) = self.transport.recv_opened(now, opened) else {
            return;
        };
        self.after_receive(now, from, event);
    }

    fn after_receive(&mut self, now: Millis, from: Addr, event: ReceiveEvent) {
        if event.new_high_seq {
            // Roaming: re-target to the newest authentic source address.
            self.target = Some(from);
        }
        if !event.remote_advanced {
            return;
        }
        // Apply newly arrived user events to the application/terminal.
        // Split borrows twice over: the remote user stream is iterated in
        // place, and the terminal is the transport's own current state,
        // mutated in place alongside it.
        let Self {
            transport,
            app,
            dirty,
            applied_through,
            echo_queue,
            pending_writes,
            ..
        } = self;
        let (terminal, remote) = transport.split_states();
        // The receiver prunes what its oldest retained state holds; that
        // state is never newer than the last one applied here.
        debug_assert!(remote.base_index() <= *applied_through);
        for (idx, ev) in remote.events_from(*applied_through) {
            match ev {
                UserEvent::Keystroke(bytes) => {
                    let writes = app.on_input(now, bytes);
                    Self::schedule_into(pending_writes, writes);
                }
                UserEvent::Resize { width, height } => {
                    terminal.resize(*width as usize, *height as usize);
                    *dirty = true;
                    let writes = app.on_resize(now, *width as usize, *height as usize);
                    Self::schedule_into(pending_writes, writes);
                }
            }
            echo_queue.push_back((idx + 1, now));
            *applied_through = idx + 1;
        }
    }

    /// Runs timers at `now`; returns datagrams to send to [`Self::target`].
    pub fn tick(&mut self, now: Millis) -> Vec<(Addr, Vec<u8>)> {
        if !self.started {
            self.started = true;
            let writes = self.app.start(now);
            self.schedule_writes(writes);
        }
        // Spontaneous application output (floods).
        let polled = self.app.poll(now);
        self.schedule_writes(polled);

        // Apply due writes to the authoritative terminal (the sender's
        // current state, mutated in place).
        while let Some(w) = self.pending_writes.front() {
            if w.at > now {
                break;
            }
            let w = self.pending_writes.pop_front().expect("peeked");
            self.transport.current_state_mut().act(&w.bytes);
            if let Some(observer) = &mut self.observer {
                observer.write_applied(w.at.max(now));
            }
            self.dirty = true;
        }

        // Terminal replies (DA/DSR) feed back into the application.
        let answerback = self.transport.current_state_mut().take_answerback();
        if !answerback.is_empty() {
            let writes = self.app.on_input(now, &answerback);
            self.schedule_writes(writes);
        }

        // Echo ack: keystrokes presented >= 50 ms ago (or already echoed —
        // subsumed: the 50 ms timeout covers both cases conservatively).
        let mut new_ack = None;
        while let Some(&(idx, at)) = self.echo_queue.front() {
            if now >= at + ECHO_TIMEOUT {
                new_ack = Some(idx);
                self.echo_queue.pop_front();
            } else {
                break;
            }
        }
        if let Some(ack) = new_ack {
            if ack > self.transport.current_state().echo_ack() {
                self.transport.current_state_mut().set_echo_ack(ack);
                self.dirty = true;
            }
        }

        if self.dirty {
            self.transport.commit_current(now);
            self.dirty = false;
        }

        // Until a client datagram arrives there is nowhere to send; running
        // the sender would record states as shipped when they never left.
        if self.target.is_none() {
            return Vec::new();
        }
        let wires = self.transport.tick(now);
        if let Some(observer) = &mut self.observer {
            // A frame just sent covers every write applied so far; a pure
            // ack or heartbeat would leave pending_data true.
            if !wires.is_empty() && !self.transport.pending_data() {
                observer.frame_shipped(now);
            }
        }
        let target = self.target.expect("checked above");
        wires.into_iter().map(|w| (target, w)).collect()
    }

    /// The earliest time `tick` needs to run again (event-driven stepping).
    ///
    /// Purely schedule-driven: the application's own wakeup, the pending
    /// write queue, the echo-ack timer, and the transport's timers. There
    /// is no polling floor — `Application::next_wakeup`'s contract is that
    /// `None` means no spontaneous output until input re-arms it, so a
    /// quiet session sleeps until its next real deadline instead of
    /// burning a wakeup every 50 ms.
    ///
    /// Both halves of the [`crate::session::Endpoint::next_wakeup`]
    /// contract hold here: `tick` does nothing before the returned time
    /// (no early fire), and after a `tick(t)` the returned time is `> t`
    /// (no spin) — every timer reported is one `tick` acts on. In
    /// particular the transport's timers count only while `tick` runs
    /// the transport at all, i.e. once a client datagram has set
    /// `target`; until then a server sleeps on its application alone and
    /// the first receive re-arms the schedule.
    pub fn next_wakeup(&self, now: Millis) -> Millis {
        if !self.started {
            return now; // the first tick starts the application
        }
        let mut next = Millis::MAX;
        if let Some(t) = self.app.next_wakeup(now) {
            next = next.min(t);
        }
        if let Some(w) = self.pending_writes.front() {
            next = next.min(w.at);
        }
        if let Some(&(_, at)) = self.echo_queue.front() {
            next = next.min(at + ECHO_TIMEOUT);
        }
        if let Some(t) = self.target.and_then(|_| self.transport.next_wakeup()) {
            next = next.min(t);
        }
        next.max(now)
    }

    /// Time the client was last heard from.
    pub fn last_heard(&self) -> Option<Millis> {
        self.transport.last_heard()
    }

    // -----------------------------------------------------------------
    // Session snapshots (migration / crash recovery / handoff)
    // -----------------------------------------------------------------

    /// A cheap activity fingerprint for checkpoint cadence decisions: it
    /// changes whenever the synchronized conversation advances in either
    /// direction. Terminal mutations not yet committed into a shipped
    /// state are not reflected, so a cadence tick may skip a session once
    /// and catch it on the next — an accepted approximation (the ack
    /// ceiling keeps the tail recoverable regardless).
    pub fn activity_marker(&self) -> (u64, u64) {
        (
            self.transport.latest_sent_num(),
            self.transport.remote_state_num(),
        )
    }

    /// Takes a checkpoint: raises the outgoing-ack ceiling to the highest
    /// client state number this checkpoint makes durable, then serializes
    /// the whole session. The order matters — the stored snapshot carries
    /// the raised ceiling, and the live server never acknowledges input
    /// beyond what its newest checkpoint contains, so a resurrected twin
    /// needs nothing the client will not retransmit on its own (§2.2's
    /// retransmit machinery doubles as the recovery log).
    pub fn checkpoint_body(&mut self) -> Vec<u8> {
        self.transport
            .set_ack_ceiling(Some(self.transport.remote_state_num()));
        let mut out = Vec::new();
        self.encode_snapshot_body(&mut out);
        out
    }

    /// Skips the outgoing nonce sequence forward by `margin`. Crash
    /// recovery cannot know how many datagrams the dead shard sent after
    /// its last checkpoint, so resurrection burns a generous gap instead
    /// of risking nonce reuse under the same key. Clean handoff (quiesced
    /// snapshot, nothing sent afterwards) must *not* skip — that keeps the
    /// restored wire bytes identical.
    pub fn skip_seq_ahead(&mut self, margin: u64) {
        self.transport.skip_seq_ahead(margin);
    }

    /// Serializes the complete explicit session state: the transport
    /// (every layer writes its own bytes — crypto sequence numbers, SSP
    /// shipped-state lists and ack bookkeeping, the authoritative
    /// terminal), then the echo and write queues, the roaming target, and
    /// the hosted application's dynamic state. Body only: framing (magic,
    /// version, checksum) is the hub snapshot module's job.
    pub fn encode_snapshot_body(&self, out: &mut Vec<u8>) {
        self.transport.encode_into(out);
        put_bool(out, self.dirty);
        put_varint(out, self.applied_through);
        put_varint(out, self.echo_queue.len() as u64);
        for &(idx, at) in &self.echo_queue {
            put_varint(out, idx);
            put_varint(out, at);
        }
        put_varint(out, self.pending_writes.len() as u64);
        for w in &self.pending_writes {
            put_varint(out, w.at);
            put_bytes(out, &w.bytes);
        }
        match self.target {
            None => put_varint(out, 0),
            Some(addr) => {
                put_varint(out, 1);
                put_addr(out, addr);
            }
        }
        put_bool(out, self.started);
        put_bytes(out, &self.app.save_state());
    }

    /// Rebuilds a server from a snapshot body of format `version` (the
    /// current one or its predecessor; the hub snapshot module's frame
    /// says which) plus a freshly constructed application twin
    /// (construction parameters are the caller's to remember; the
    /// snapshot carries only dynamic state). Returns `None` on any
    /// inconsistency — a corrupt snapshot is rejected whole, never
    /// half-applied. The restored sender accepts future acks (resync):
    /// if the client has already acknowledged states newer than the
    /// snapshot, the server adopts that ack and re-sends a self-contained
    /// full diff.
    pub fn decode_snapshot_body(
        bytes: &[u8],
        version: u16,
        mut app: Box<dyn Application>,
    ) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let transport = Transport::decode(&mut r, Direction::ToClient)?;
        let dirty = get_bool(&mut r)?;
        let applied_through = r.varint().ok()?;
        let n = r.varint().ok()?;
        let mut echo_queue = VecDeque::new();
        for _ in 0..n {
            echo_queue.push_back((r.varint().ok()?, r.varint().ok()?));
        }
        let n = r.varint().ok()?;
        let mut pending_writes: VecDeque<TimedWrite> = VecDeque::new();
        for _ in 0..n {
            let at = r.varint().ok()?;
            // `schedule_into` binary-searches this queue: an unsorted one
            // would reorder application output from here on.
            if pending_writes.back().is_some_and(|prev| at < prev.at) {
                return None;
            }
            let bytes = r.bytes().ok()?.to_vec();
            pending_writes.push_back(TimedWrite { at, bytes });
        }
        let target = match r.varint().ok()? {
            0 => None,
            1 => Some(get_addr(&mut r)?),
            _ => return None,
        };
        let started = get_bool(&mut r)?;
        if version == 2 {
            // Version 2 kept Figure 3's log here: a list of (arrived,
            // shipped) pairs, then one of arrival times. Nothing resumes
            // from either; read past them.
            for varints_per_entry in [2, 1] {
                let entries = r.varint().ok()?;
                for _ in 0..entries.saturating_mul(varints_per_entry) {
                    r.varint().ok()?;
                }
            }
        }
        let app_state = r.bytes().ok()?;
        if r.remaining() != 0 || !app.restore_state(app_state) {
            return None;
        }

        Some(MoshServer {
            transport,
            app,
            dirty,
            applied_through,
            echo_queue,
            pending_writes,
            target,
            started,
            observer: None,
        })
    }
}

fn put_addr(out: &mut Vec<u8>, addr: Addr) {
    match addr.host {
        Host::V4(ip) => {
            put_varint(out, 0);
            put_varint(out, u64::from(ip));
        }
        Host::V6(ip, scope) => {
            put_varint(out, 1);
            out.extend_from_slice(&ip.to_be_bytes());
            put_varint(out, u64::from(scope));
        }
    }
    put_varint(out, u64::from(addr.port));
}

fn get_addr(r: &mut Reader<'_>) -> Option<Addr> {
    let host = match r.varint().ok()? {
        0 => Host::V4(u32::try_from(r.varint().ok()?).ok()?),
        1 => {
            let ip = u128::from_be_bytes(r.take(16).ok()?.try_into().ok()?);
            let scope = u32::try_from(r.varint().ok()?).ok()?;
            Host::V6(ip, scope)
        }
        _ => return None,
    };
    let port = u16::try_from(r.varint().ok()?).ok()?;
    Some(Addr { host, port })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::apps::LineShell;
    use crate::hub::snapshot::{snapshot_server, VERSION};
    use mosh_ssp::state::BlobState;

    fn key() -> Base64Key {
        Base64Key::from_bytes([8u8; 16])
    }

    /// A minimal fake client transport for driving the server.
    pub(crate) fn client_transport() -> Transport<UserStream, CompleteTerminal> {
        Transport::new(
            key(),
            Direction::ToServer,
            UserStream::new(),
            CompleteTerminal::initial(),
        )
    }

    fn client_addr() -> Addr {
        Addr::new(1, 999)
    }

    /// Ships current client input to the server directly.
    fn pump(
        client: &mut Transport<UserStream, CompleteTerminal>,
        server: &mut MoshServer,
        now: Millis,
    ) {
        for w in client.tick(now) {
            server.receive(now, client_addr(), &w);
        }
    }

    #[test]
    fn server_applies_keystrokes_to_app_and_terminal() {
        let mut server = MoshServer::new(key(), Box::new(LineShell::new()));
        let mut client = client_transport();
        server.tick(0); // start: prompt appears
        server.tick(1);
        assert_eq!(server.frame().row_text(0), "$");

        let mut input = UserStream::new();
        input.push_keystroke(b"l");
        input.push_keystroke(b"s");
        client.set_current_state(input, 10);
        pump(&mut client, &mut server, 20);
        // Echo delay is 2 ms; run the server forward.
        for t in 21..30 {
            server.tick(t);
        }
        assert_eq!(server.frame().row_text(0), "$ ls");
    }

    #[test]
    fn echo_ack_advances_after_50ms() {
        let mut server = MoshServer::new(key(), Box::new(LineShell::new()));
        let mut client = client_transport();
        server.tick(0);
        let mut input = UserStream::new();
        input.push_keystroke(b"x");
        client.set_current_state(input, 10);
        pump(&mut client, &mut server, 20);
        server.tick(21);
        // Before the timeout the ack is still 0 in the authoritative state.
        server.tick(69);
        assert_eq!(server.transport.current_state().echo_ack(), 0);
        server.tick(70); // 20 + 50
        assert_eq!(server.transport.current_state().echo_ack(), 1);
    }

    #[test]
    fn resize_events_resize_the_terminal() {
        let mut server = MoshServer::new(key(), Box::new(LineShell::new()));
        let mut client = client_transport();
        server.tick(0);
        let mut input = UserStream::new();
        input.push_resize(100, 30);
        client.set_current_state(input, 5);
        pump(&mut client, &mut server, 20);
        server.tick(21);
        assert_eq!(server.frame().width(), 100);
        assert_eq!(server.frame().height(), 30);
    }

    #[test]
    fn a_resize_to_zero_is_refused_without_a_panic() {
        let mut server = MoshServer::new(key(), Box::new(LineShell::new()));
        server.tick(0);
        // A client whose input diff is hand-built bytes: start 0, one
        // event, a resize to 0 × 30.
        let mut client = Transport::new(
            key(),
            Direction::ToServer,
            BlobState::default(),
            CompleteTerminal::initial(),
        );
        client.set_current_state(BlobState(vec![0, 1, 2, 0, 30]), 5);
        let wires = client.tick(20);
        assert!(!wires.is_empty(), "the diff went out");
        for w in wires {
            server.receive(20, client_addr(), &w);
        }
        server.tick(21);
        assert_eq!(server.frame().width(), 80);
        assert_eq!(server.frame().height(), 24);
    }

    #[test]
    fn roaming_retargets_to_newest_source() {
        let mut server = MoshServer::new(key(), Box::new(LineShell::new()));
        let mut client = client_transport();
        server.tick(0);
        let mut input = UserStream::new();
        input.push_keystroke(b"a");
        client.set_current_state(input.clone(), 0);
        let w1 = client.tick(10);
        server.receive(11, Addr::new(1, 1000), &w1[0]);
        assert_eq!(server.target(), Some(Addr::new(1, 1000)));

        // The client roams: same session, new address.
        input.push_keystroke(b"b");
        client.set_current_state(input, 100);
        let w2 = client.tick(400);
        server.receive(401, Addr::new(7, 7777), &w2[0]);
        assert_eq!(server.target(), Some(Addr::new(7, 7777)), "roamed");

        // A stale reordered packet from the old address does not regress.
        server.receive(402, Addr::new(1, 1000), &w1[0]);
        assert_eq!(server.target(), Some(Addr::new(7, 7777)));
    }

    #[test]
    fn a_server_with_no_target_sleeps_until_its_first_datagram() {
        let mut server = MoshServer::new(key(), Box::new(LineShell::new()));
        let mut client = client_transport();
        // Start-up: the prompt is written and committed, so the sender
        // holds pending data — but with no target `tick` never runs the
        // transport, and no transport timer may be reported.
        let mut now = 0;
        assert_eq!(server.next_wakeup(now), 0, "the first tick starts the app");
        assert!(server.tick(now).is_empty());
        while server.next_wakeup(now) != Millis::MAX {
            assert!(server.next_wakeup(now) > now, "spin at {now}");
            now = server.next_wakeup(now);
            assert!(server.tick(now).is_empty());
        }
        assert!(now < 100, "start-up settles at once, not at a heartbeat");
        assert_eq!(server.frame().row_text(0), "$");
        assert!(server.tick(5000).is_empty(), "still nowhere to send");
        assert_eq!(server.next_wakeup(5000), Millis::MAX);

        // The first authentic datagram sets the target and re-arms the
        // schedule: the prompt, pending since start-up, is due at once.
        client.set_current_state(UserStream::new(), 5990);
        pump(&mut client, &mut server, 6000);
        assert_eq!(server.target(), Some(client_addr()));
        assert_eq!(server.next_wakeup(6000), 6000);
        assert!(!server.tick(6000).is_empty(), "prompt frame goes out");
        assert!(server.next_wakeup(6000) > 6000);
    }

    #[test]
    fn server_syncs_screen_back_to_client() {
        let mut server = MoshServer::new(key(), Box::new(LineShell::new()));
        let mut client = client_transport();
        // Tell the server where the client is (any authentic datagram).
        client.set_current_state(UserStream::new(), 0);
        for now in 0..6000 {
            for w in client.tick(now) {
                server.receive(now, client_addr(), &w);
            }
            for (_, w) in server.tick(now) {
                let _ = client.receive(now, &w);
            }
        }
        // The prompt reached the client's copy of the screen.
        assert_eq!(client.remote_state().frame().row_text(0), "$");
    }

    /// Decodes a current-version body onto a fresh `LineShell`.
    fn restore(body: &[u8]) -> Option<MoshServer> {
        MoshServer::decode_snapshot_body(body, VERSION, Box::new(LineShell::new()))
    }

    /// Builds a server mid-conversation: prompt on screen, one keystroke
    /// applied, client address learned.
    pub(crate) fn busy_server(client: &mut Transport<UserStream, CompleteTerminal>) -> MoshServer {
        let mut server = MoshServer::new(key(), Box::new(LineShell::new()));
        let mut input = UserStream::new();
        input.push_keystroke(b"l");
        client.set_current_state(input, 5);
        for now in 0..200 {
            for w in client.tick(now) {
                server.receive(now, client_addr(), &w);
            }
            for (_, w) in server.tick(now) {
                let _ = client.receive(now, &w);
            }
        }
        server
    }

    #[test]
    fn snapshot_round_trip_is_byte_identical_going_forward() {
        let mut client = client_transport();
        let mut server = busy_server(&mut client);
        let body = server.checkpoint_body();
        let mut restored = restore(&body).expect("decodes");

        // Both servers see the same future (more typing plus quiet ticks);
        // their wire output must match byte for byte.
        let mut input = UserStream::new();
        input.push_keystroke(b"l");
        input.push_keystroke(b"s");
        input.push_keystroke(b"\r");
        client.set_current_state(input, 200);
        let arrivals: Vec<Vec<u8>> = (200..210).flat_map(|now| client.tick(now)).collect();
        let mut a_wires = Vec::new();
        let mut b_wires = Vec::new();
        for now in 200..1200 {
            if now == 205 {
                for w in &arrivals {
                    server.receive(now, client_addr(), w);
                    restored.receive(now, client_addr(), w);
                }
            }
            a_wires.extend(server.tick(now).into_iter().map(|(_, w)| w));
            b_wires.extend(restored.tick(now).into_iter().map(|(_, w)| w));
        }
        assert!(!a_wires.is_empty());
        assert_eq!(a_wires, b_wires, "restored server diverged on the wire");
        assert_eq!(server.frame().to_text(), restored.frame().to_text());
        assert_eq!(server.target(), restored.target());
    }

    #[test]
    fn checkpoint_caps_acks_at_checkpointed_input() {
        let mut client = client_transport();
        let mut server = busy_server(&mut client);
        let ceiling = server.transport.ack_ceiling();
        assert_eq!(ceiling, None, "no cap before the first checkpoint");
        let _ = server.checkpoint_body();
        assert_eq!(
            server.transport.ack_ceiling(),
            Some(server.transport.remote_state_num()),
            "checkpoint caps acks at exactly what it made durable"
        );
    }

    #[test]
    fn snapshot_rejects_truncation_and_trailing_garbage() {
        let mut client = client_transport();
        let mut server = busy_server(&mut client);
        let body = server.checkpoint_body();
        // Every truncation point fails cleanly (sampled stride keeps the
        // test fast; the boundaries near field edges are all hit).
        for cut in (0..body.len()).step_by(7).chain([body.len() - 1]) {
            assert!(
                restore(&body[..cut]).is_none(),
                "truncation at {cut} must be rejected"
            );
        }
        let mut extended = body.clone();
        extended.push(0);
        assert!(
            restore(&extended).is_none(),
            "trailing garbage must be rejected"
        );
        // A wrong application twin is rejected too.
        assert!(MoshServer::decode_snapshot_body(
            &body,
            VERSION,
            Box::new(crate::apps::Editor::new())
        )
        .is_none());
    }

    /// A server with a `cat` burst half drained: due writes applied,
    /// hundreds still queued behind them.
    fn mid_cat_server(client: &mut Transport<UserStream, CompleteTerminal>) -> MoshServer {
        let mut server = MoshServer::new(key(), Box::new(LineShell::new()));
        let mut input = UserStream::new();
        for &b in b"cat 800\r" {
            input.push_keystroke(&[b]);
        }
        client.set_current_state(input, 0);
        pump(client, &mut server, 10);
        for now in 10..60 {
            server.tick(now);
        }
        assert!(server.pending_writes.len() > 100, "burst still queued");
        server
    }

    #[test]
    fn snapshot_of_a_mid_burst_server_round_trips() {
        let mut client = client_transport();
        let mut server = mid_cat_server(&mut client);
        let body = server.checkpoint_body();
        let mut restored = restore(&body).expect("decodes");
        assert_eq!(restored.pending_writes, server.pending_writes);
        // The rest of the burst, and a second command scheduled into the
        // restored queue, come out the same on both.
        let mut input = UserStream::new();
        for &b in b"cat 800\rseq 40\r" {
            input.push_keystroke(&[b]);
        }
        client.set_current_state(input, 60);
        let arrivals = client.tick(70);
        for now in 60..400 {
            if now == 70 {
                for w in &arrivals {
                    server.receive(now, client_addr(), w);
                    restored.receive(now, client_addr(), w);
                }
            }
            assert_eq!(server.tick(now), restored.tick(now), "wire at {now}");
        }
        assert!(server.pending_writes.is_empty());
        assert_eq!(server.frame().to_text(), restored.frame().to_text());
    }

    /// Snapshot size at `until` of a server whose shell runs `yes` (with a
    /// client acknowledging its frames, or with nobody listening), or,
    /// without `flood`, whose client types one key every 50 ms: a letter
    /// and Backspace in turn, so the screen stays put while the input
    /// history grows.
    fn snapshot_len_at(until: Millis, flood: bool, heard: bool) -> usize {
        let mut shell = LineShell::new();
        let mut input = UserStream::new();
        if flood && heard {
            input.push_keystroke(b"yes\r");
        } else if flood {
            shell.on_input(0, b"yes\r"); // nobody to type it
        }
        let mut server = MoshServer::new(key(), Box::new(shell));
        let mut client = client_transport();
        client.set_current_state(input, 0);
        for now in 0..until {
            if !flood && now % 50 == 0 {
                let key: &[u8] = if now % 100 == 0 { b"a" } else { b"\x7f" };
                client.current_state_mut().push_keystroke(key);
                client.commit_current(now);
            }
            if heard {
                pump(&mut client, &mut server, now);
            }
            for (_, w) in server.tick(now) {
                let _ = client.receive(now, &w);
            }
        }
        assert_eq!(server.target().is_some(), heard);
        snapshot_server(&server).len()
    }

    #[test]
    fn snapshot_size_does_not_grow_with_session_age() {
        for (flood, heard) in [(true, true), (true, false), (false, true)] {
            let young = snapshot_len_at(5_000, flood, heard);
            let old = snapshot_len_at(60_000, flood, heard);
            assert!(
                old.abs_diff(young) < 2_000,
                "flood {flood}, heard {heard}: {young} B after 5 s, {old} B after 60 s"
            );
        }
    }

    #[test]
    fn snapshot_rejects_a_write_queue_out_of_due_order() {
        let mut client = client_transport();
        let mut server = mid_cat_server(&mut client);
        // Writes due at the same time may come in either order …
        let tied = (1..server.pending_writes.len())
            .find(|&i| server.pending_writes[i - 1].at == server.pending_writes[i].at)
            .expect("cat writes four lines per millisecond");
        server.pending_writes.swap(tied - 1, tied);
        let mut body = Vec::new();
        server.encode_snapshot_body(&mut body);
        assert!(restore(&body).is_some());
        // … but a later write ahead of an earlier one is a corrupt body:
        // `schedule_into` would binary-search a queue that is not sorted.
        let last = server.pending_writes.len() - 1;
        assert!(server.pending_writes[0].at < server.pending_writes[last].at);
        server.pending_writes.swap(0, last);
        body.clear();
        server.encode_snapshot_body(&mut body);
        assert!(
            restore(&body).is_none(),
            "a decreasing due time must reject the snapshot whole"
        );
    }

    /// The insertion `schedule_into` replaced: scan from the front for the
    /// first write due later. Kept here as the order oracle.
    fn schedule_linear(pending_writes: &mut VecDeque<TimedWrite>, writes: Vec<TimedWrite>) {
        for w in writes {
            let pos = pending_writes
                .iter()
                .position(|p| p.at > w.at)
                .unwrap_or(pending_writes.len());
            pending_writes.insert(pos, w);
        }
    }

    proptest::proptest! {
        /// Batches with tied and out-of-order due times, scheduled while
        /// the front of the queue drains as `tick` drains it: the binary
        /// search leaves exactly the queue the linear scan did, each write
        /// told apart by its bytes.
        #[test]
        fn schedule_into_orders_like_the_linear_scan(
            steps in proptest::collection::vec(
                (proptest::collection::vec(0u64..12, 0..24), 0u64..6),
                1..40,
            ),
        ) {
            let (mut fast, mut slow) = (VecDeque::new(), VecDeque::new());
            let (mut now, mut tag) = (0u64, 0u32);
            for (offsets, advance) in steps {
                let batch: Vec<TimedWrite> = offsets
                    .iter()
                    .map(|off| {
                        tag += 1;
                        TimedWrite { at: now + off, bytes: tag.to_be_bytes().to_vec() }
                    })
                    .collect();
                MoshServer::schedule_into(&mut fast, batch.clone());
                schedule_linear(&mut slow, batch);
                proptest::prop_assert_eq!(&fast, &slow);
                now += advance;
                while fast.front().is_some_and(|w| w.at <= now) {
                    proptest::prop_assert_eq!(fast.pop_front(), slow.pop_front());
                }
                proptest::prop_assert_eq!(&fast, &slow);
            }
        }
    }

    #[test]
    fn flood_output_is_coalesced_not_queued() {
        let mut server = MoshServer::new(key(), Box::new(LineShell::new()));
        let mut client = client_transport();
        server.tick(0);
        let mut input = UserStream::new();
        input.push_keystroke(b"y");
        input.push_keystroke(b"e");
        input.push_keystroke(b"s");
        input.push_keystroke(b"\r");
        client.set_current_state(input, 0);
        pump(&mut client, &mut server, 10);
        // Run 2 s of flood: the terminal keeps changing, but SSP sends at
        // the frame rate, so the datagram count stays modest.
        let mut sent = 0usize;
        for t in 11..2000 {
            sent += server.tick(t).len();
        }
        assert!(sent > 0);
        assert!(
            sent < 200,
            "flood must be frame-rate limited, sent {sent} datagrams"
        );
        // The screen shows the *latest* flood output, not a backlog.
        assert!(server.frame().to_text().contains('y'));
    }
}
