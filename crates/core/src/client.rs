//! The Mosh client: input capture, prediction, and display composition.
//!
//! The client sends every keystroke to the server through SSP (nothing may
//! be skipped in that direction), keeps the newest server screen state it
//! has received, and overlays the prediction engine's speculative echoes
//! on top for display (paper §3).

use crate::Millis;
use mosh_crypto::session::Direction;
use mosh_crypto::Base64Key;
use mosh_net::Addr;
use mosh_prediction::{DisplayPreference, PredictionEngine, PredictionStats};
use mosh_ssp::datagram::Opened;
use mosh_ssp::transport::{ReceiveEvent, Transport};
use mosh_states::{CompleteTerminal, UserStream};
use mosh_terminal::Framebuffer;

/// The client half of a Mosh session.
///
/// The authoritative input history lives *inside* the transport's sender
/// (its current state), mutated in place per keystroke — there is no
/// second copy cloned into the sender per event, and acknowledged
/// history is pruned where it lives.
pub struct MoshClient {
    transport: Transport<UserStream, CompleteTerminal>,
    prediction: PredictionEngine,
    server_addr: Addr,
    /// Numbers of remote states already reported to the predictor.
    last_remote_num: u64,
}

impl MoshClient {
    /// Creates a client that will talk to `server_addr`.
    ///
    /// `width`/`height` is the local window size; if it differs from the
    /// conventional 80×24 initial state, a resize event is queued
    /// immediately (the server follows).
    pub fn new(
        key: Base64Key,
        server_addr: Addr,
        width: usize,
        height: usize,
        preference: DisplayPreference,
    ) -> Self {
        // Mosh clients always announce their window size immediately; this
        // doubles as the hello datagram that teaches the server the
        // client's address.
        let mut transport = Transport::new(
            key,
            Direction::ToServer,
            UserStream::new(),
            CompleteTerminal::initial(),
        );
        transport.current_state_mut().push_resize(width, height);
        transport.commit_current(0);
        MoshClient {
            transport,
            prediction: PredictionEngine::new(preference),
            server_addr,
            last_remote_num: 0,
        }
    }

    /// The address this client sends to.
    pub fn server_addr(&self) -> Addr {
        self.server_addr
    }

    /// Points the client at a different server address — the same
    /// session, reached another way (e.g. the server's IPv6 address
    /// after the client rebinds onto an IPv6 socket). The crypto session
    /// is untouched; only the destination of future datagrams changes.
    pub fn retarget(&mut self, server_addr: Addr) {
        self.server_addr = server_addr;
    }

    /// True when `wire` authenticates under this session's key, without
    /// consuming it (multi-session demultiplexing; paper §2.2).
    pub fn authenticates(&self, wire: &[u8]) -> bool {
        self.transport.authenticates(wire)
    }

    /// Authenticates and decrypts `wire` without consuming it, returning
    /// the opened-datagram token on success — the decrypt-once demux
    /// probe. Consume the token with [`MoshClient::receive_opened`].
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

    /// Smoothed RTT estimate.
    pub fn srtt(&self) -> f64 {
        self.transport.srtt()
    }

    /// Prediction counters (the 70%-instant / 0.9%-misprediction numbers).
    pub fn prediction_stats(&self) -> &PredictionStats {
        self.prediction.stats()
    }

    /// Time the server was last heard from.
    pub fn last_heard(&self) -> Option<Millis> {
        self.transport.last_heard()
    }

    /// Total keystrokes entered so far (user-stream event index space).
    /// Indices are global, so pruning acknowledged history never shifts
    /// them.
    pub fn input_end_index(&self) -> u64 {
        self.transport.current_state().end_index()
    }

    /// Echo-ack index of the newest *applied* server frame.
    pub fn echo_ack(&self) -> u64 {
        self.transport.remote_state().echo_ack()
    }

    /// Number of the newest server state received (frame counter).
    pub fn remote_state_num(&self) -> u64 {
        self.transport.remote_state_num()
    }

    /// Types one keystroke at `now`. Returns true when the keystroke's
    /// effect was displayed speculatively, before any server round trip
    /// (the paper's "instant" outcome).
    pub fn keystroke(&mut self, now: Millis, bytes: &[u8]) -> bool {
        // The input history is mutated where the sender keeps it — no
        // whole-stream clone per keystroke.
        self.transport.current_state_mut().push_keystroke(bytes);
        self.transport.commit_current(now);
        // Split borrows: the predictor reads the latest frame in place —
        // no per-keystroke framebuffer clone.
        let Self {
            transport,
            prediction,
            ..
        } = self;
        prediction.new_user_input(
            now,
            transport.srtt(),
            bytes,
            transport.remote_state().frame(),
            transport.current_state().end_index(),
        )
    }

    /// Notifies the server of a window-size change. A size the server
    /// would refuse (a dimension of 0 or above 5000) is ignored.
    pub fn resize(&mut self, now: Millis, width: usize, height: usize) {
        if self
            .transport
            .current_state_mut()
            .push_resize(width, height)
        {
            self.transport.commit_current(now);
        }
    }

    /// Handles one wire datagram at `now`.
    pub fn receive(&mut self, now: Millis, wire: &[u8]) {
        let Ok(event) = self.transport.receive(now, wire) else {
            return;
        };
        self.after_receive(now, event);
    }

    /// Handles an already-opened datagram at `now` (the decrypt-once
    /// path): same behavior as [`MoshClient::receive`] of the original
    /// wire, without a second OCB pass.
    pub fn receive_opened(&mut self, now: Millis, opened: Opened) {
        let Ok(event) = self.transport.recv_opened(now, opened) else {
            return;
        };
        self.after_receive(now, event);
    }

    fn after_receive(&mut self, now: Millis, event: ReceiveEvent) {
        if event.remote_advanced && self.transport.remote_state_num() != self.last_remote_num {
            self.last_remote_num = self.transport.remote_state_num();
            // Split borrows: the predictor reads the new frame in place —
            // no per-frame framebuffer clone.
            let Self {
                transport,
                prediction,
                ..
            } = self;
            // Two acknowledgments ride with a frame: the input the server
            // had applied when it cut it (the state this instruction
            // acknowledged) and the echo ack inside it. Sampled here, not
            // later: a pure ack that follows says nothing about what this
            // frame shows.
            let remote = transport.remote_state();
            prediction.report_frame(
                now,
                remote.frame(),
                transport.acked_state().end_index(),
                remote.echo_ack(),
                transport.srtt(),
            );
        }
    }

    /// Runs timers; returns datagrams addressed to the server.
    pub fn tick(&mut self, now: Millis) -> Vec<(Addr, Vec<u8>)> {
        self.transport
            .tick(now)
            .into_iter()
            .map(|w| (self.server_addr, w))
            .collect()
    }

    /// The earliest time `tick` needs to run again. Purely
    /// transport-driven (collection interval, frame gate, delayed acks,
    /// heartbeats): with nothing scheduled the client sleeps until a
    /// receive or a keystroke re-arms it — no polling floor.
    pub fn next_wakeup(&self, now: Millis) -> Millis {
        self.transport.next_wakeup().unwrap_or(Millis::MAX).max(now)
    }

    /// The latest authoritative server screen, without predictions.
    pub fn server_frame(&self) -> &Framebuffer {
        self.transport.remote_state().frame()
    }

    /// The screen as shown to the user: the newest server state with the
    /// prediction overlays applied.
    pub fn display(&self) -> Framebuffer {
        let mut frame = self.transport.remote_state().frame().clone();
        self.prediction.apply(&mut frame);
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::LineShell;
    use crate::server::MoshServer;
    use crate::session::{Party, SessionLoop};
    use mosh_net::{LinkConfig, Network, Side, SimChannel};

    fn key() -> Base64Key {
        Base64Key::from_bytes([2u8; 16])
    }

    struct Pair {
        sl: SessionLoop<SimChannel>,
        client: MoshClient,
        server: MoshServer,
        c_addr: Addr,
        s_addr: Addr,
    }

    fn session(up: LinkConfig, down: LinkConfig, pref: DisplayPreference) -> Pair {
        let mut net = Network::new(up, down, 11);
        let c_addr = Addr::new(1, 1000);
        let s_addr = Addr::new(2, 60001);
        net.register(c_addr, Side::Client);
        net.register(s_addr, Side::Server);
        Pair {
            sl: SessionLoop::new(SimChannel::new(net)),
            client: MoshClient::new(key(), s_addr, 80, 24, pref),
            server: MoshServer::new(key(), Box::new(LineShell::new())),
            c_addr,
            s_addr,
        }
    }

    impl Pair {
        fn now(&self) -> Millis {
            self.sl.now()
        }
    }

    fn run(p: &mut Pair, until: Millis) {
        p.sl.pump_until(
            &mut [
                Party::new(p.c_addr, &mut p.client),
                Party::new(p.s_addr, &mut p.server),
            ],
            until,
        );
    }

    #[test]
    fn end_to_end_prompt_and_echo() {
        let mut p = session(
            LinkConfig::lan(),
            LinkConfig::lan(),
            DisplayPreference::Never,
        );
        // The hello datagram teaches the server the client's address; the
        // prompt arrives without the user typing anything.
        run(&mut p, 300);
        assert_eq!(p.client.server_frame().row_text(0), "$");
        p.client.keystroke(p.now(), b"l");
        let t = p.now() + 200;
        run(&mut p, t);
        assert_eq!(p.client.server_frame().row_text(0), "$ l");
        p.client.keystroke(p.now(), b"s");
        p.client.keystroke(p.now(), b"\r");
        run(&mut p, 1500);
        let text = p.client.server_frame().to_text();
        assert!(text.contains("Makefile"), "ls output arrived: {text}");
    }

    #[test]
    fn predictions_display_instantly_on_slow_links() {
        let up = LinkConfig {
            delay_ms: 250,
            ..LinkConfig::lan()
        };
        let down = up.clone();
        let mut p = session(up, down, DisplayPreference::Adaptive);
        // Wait for the prompt like a real user, then type one keystroke to
        // train SRTT and confirm the first epoch.
        run(&mut p, 1500);
        assert_eq!(p.client.server_frame().row_text(0), "$");
        p.client.keystroke(p.now(), b"e");
        let t = p.now() + 2000;
        run(&mut p, t);
        assert_eq!(p.client.server_frame().row_text(0), "$ e");

        // Now type: the echo must appear immediately in the display,
        // long before the server round trip.
        let shown = p.client.keystroke(p.now(), b"c");
        assert!(shown, "prediction must display instantly");
        let display = p.client.display();
        assert_eq!(display.row_text(0), "$ ec");
        // The authoritative frame has NOT caught up yet.
        assert_eq!(p.client.server_frame().row_text(0), "$ e");

        // And the server eventually confirms.
        let t = p.now() + 2000;
        run(&mut p, t);
        assert_eq!(p.client.server_frame().row_text(0), "$ ec");
        assert_eq!(p.client.prediction_stats().mispredicted, 0);
    }

    #[test]
    fn mispredictions_repair_within_a_round_trip() {
        let up = LinkConfig {
            delay_ms: 150,
            ..LinkConfig::lan()
        };
        let down = up.clone();
        let mut p = session(up, down, DisplayPreference::Adaptive);
        // Train the predictor on echoing input.
        run(&mut p, 1000);
        for k in [b"a", b"b"] {
            p.client.keystroke(p.now(), k);
            let t = p.now() + 700;
            run(&mut p, t);
        }
        assert_eq!(p.client.server_frame().row_text(0), "$ ab");
        assert!(p.client.prediction_stats().confirmed > 0);

        // Delete past the start of the line: the extra backspaces predict
        // cursor motion the shell will not echo.
        for _ in 0..4 {
            p.client.keystroke(p.now(), b"\x7f");
            let t = p.now() + 30;
            run(&mut p, t);
        }
        let t = p.now() + 3000;
        run(&mut p, t);
        // The wrong overlays were repaired: display matches the server.
        assert_eq!(
            p.client.display().row_text(0),
            p.client.server_frame().row_text(0)
        );
        assert_eq!(p.client.display().cursor, p.client.server_frame().cursor);
        assert!(p.client.prediction_stats().mispredicted > 0);
    }

    #[test]
    fn client_roams_mid_session() {
        let mut p = session(
            LinkConfig::lan(),
            LinkConfig::lan(),
            DisplayPreference::Never,
        );
        p.client.keystroke(0, b"a");
        run(&mut p, 500);
        assert_eq!(p.server.target(), Some(p.c_addr));

        // The client's address changes (new network); nothing re-connects.
        let new_addr = Addr::new(99, 4321);
        p.sl.channel_mut()
            .network_mut()
            .register(new_addr, Side::Client);
        p.c_addr = new_addr;
        p.client.keystroke(p.now(), b"b");
        let t = p.now() + 1000;
        run(&mut p, t);
        assert_eq!(p.server.target(), Some(new_addr), "server re-targeted");
        assert_eq!(p.client.server_frame().row_text(0), "$ ab");
    }

    #[test]
    fn display_without_predictions_equals_server_frame() {
        let mut p = session(
            LinkConfig::lan(),
            LinkConfig::lan(),
            DisplayPreference::Never,
        );
        p.client.keystroke(0, b"x");
        run(&mut p, 500);
        assert_eq!(&p.client.display(), p.client.server_frame());
    }

    #[test]
    fn resize_propagates_to_server() {
        let mut p = session(
            LinkConfig::lan(),
            LinkConfig::lan(),
            DisplayPreference::Never,
        );
        p.client.keystroke(0, b"a");
        run(&mut p, 300);
        // Sizes the server would refuse never reach the wire, where they
        // would hold up every later input diff.
        let queued = p.client.input_end_index();
        p.client.resize(p.now(), 0, 40);
        p.client.resize(p.now(), 65_536 + 120, 40);
        assert_eq!(p.client.input_end_index(), queued);
        p.client.resize(p.now(), 120, 40);
        let t = p.now() + 500;
        run(&mut p, t);
        assert_eq!(p.server.frame().width(), 120);
        assert_eq!(p.client.server_frame().width(), 120);
    }

    #[test]
    fn a_pure_ack_after_a_frame_does_not_raise_what_that_frame_is_said_to_reflect() {
        // A hand-driven server: its screen changes only when told to.
        let mut client = MoshClient::new(key(), Addr::new(2, 1), 80, 24, DisplayPreference::Always);
        let mut server: Transport<CompleteTerminal, UserStream> = Transport::new(
            key(),
            Direction::ToClient,
            CompleteTerminal::initial(),
            UserStream::new(),
        );
        fn exchange(
            client: &mut MoshClient,
            server: &mut Transport<CompleteTerminal, UserStream>,
            now: Millis,
        ) {
            for (_, wire) in client.tick(now) {
                server.receive(now, &wire).expect("authentic");
            }
            for wire in server.tick(now) {
                client.receive(now, &wire);
            }
        }

        // The hello (a resize) and `a` go up; a frame echoing `a` comes
        // down, acknowledging both.
        client.keystroke(0, b"a");
        exchange(&mut client, &mut server, 10);
        server.current_state_mut().act(b"a");
        server.current_state_mut().set_echo_ack(2);
        server.commit_current(20);
        exchange(&mut client, &mut server, 40);
        assert_eq!(client.server_frame().row_text(0), "a");
        assert_eq!(client.transport.acked_state().end_index(), 2);

        // `b` and `c` go up and the server says nothing new: 100 ms later
        // its delayed ack leaves alone.
        client.keystroke(300, b"b");
        client.keystroke(310, b"c");
        exchange(&mut client, &mut server, 320);
        let told = format!("{:?}", client.prediction);
        let frames = client.remote_state_num();
        exchange(&mut client, &mut server, 330 + 100);
        assert_eq!(server.sender_stats().pure_acks, 1);
        assert_eq!(client.transport.acked_state().end_index(), 4);
        // The engine was told about the frame when it arrived, with what
        // was applied then, and is not told again.
        assert_eq!(client.remote_state_num(), frames);
        assert_eq!(format!("{:?}", client.prediction), told);
    }
}
