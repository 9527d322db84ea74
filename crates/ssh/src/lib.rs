//! The SSH baseline: character-at-a-time remote echo over TCP.
//!
//! Paper §1: "SSH operates strictly in character-at-a-time mode, with all
//! echoes and line editing performed by the remote host", over TCP. This
//! crate provides that baseline for the evaluation: every keystroke is a
//! TCP write; every application write streams back *in full and in order*
//! (no frames are ever skipped); the client renders bytes as they arrive.
//!
//! SSH's encryption adds microseconds of CPU and no latency structure, so
//! the baseline omits it (see DESIGN.md, substitution #3).

use mosh_core::apps::{AppHost, Application};
use mosh_core::session::{Endpoint, SessionEvent};
use mosh_net::{Addr, Millis};
use mosh_tcp::TcpEndpoint;
use mosh_terminal::Terminal;

/// The client half: sends keystrokes, renders arriving output.
pub struct SshClient {
    tcp: TcpEndpoint,
    terminal: Terminal,
    /// Cumulative count of bytes rendered (drives latency bookkeeping).
    rendered_bytes: u64,
}

impl SshClient {
    /// Creates the client side of an established SSH connection.
    pub fn new(addr: Addr, server: Addr, width: usize, height: usize) -> Self {
        SshClient {
            tcp: TcpEndpoint::new(addr, server),
            terminal: Terminal::new(width, height),
            rendered_bytes: 0,
        }
    }

    /// This endpoint's address.
    pub fn addr(&self) -> Addr {
        self.tcp.addr()
    }

    /// Sends one keystroke (character-at-a-time, like `ssh` in raw mode).
    pub fn keystroke(&mut self, _now: Millis, bytes: &[u8]) {
        self.tcp.write(bytes);
    }

    /// Handles one wire datagram.
    pub fn receive(&mut self, now: Millis, wire: &[u8]) {
        self.tcp.receive(now, wire);
        let arrived = self.tcp.read();
        if !arrived.is_empty() {
            self.terminal.write(&arrived);
            self.rendered_bytes += arrived.len() as u64;
        }
    }

    /// Runs timers; returns addressed datagrams.
    pub fn tick(&mut self, now: Millis) -> Vec<(Addr, Vec<u8>)> {
        self.tcp.tick(now)
    }

    /// The earliest time `tick` needs to run again (event stepping).
    pub fn next_wakeup(&self, now: Millis) -> Millis {
        self.tcp.next_wakeup(now)
    }

    /// The screen as the user sees it (no speculation — this is SSH).
    pub fn frame(&self) -> &mosh_terminal::Framebuffer {
        self.terminal.frame()
    }

    /// Total output bytes rendered so far.
    pub fn rendered_bytes(&self) -> u64 {
        self.rendered_bytes
    }

    /// Send-side backlog (bytes written but unacknowledged).
    pub fn backlog(&self) -> usize {
        self.tcp.backlog()
    }

    /// TCP counters.
    pub fn tcp_stats(&self) -> &mosh_tcp::TcpStats {
        self.tcp.stats()
    }
}

/// The server half: feeds keystrokes to the application, streams back
/// every write (octet stream, nothing skipped).
pub struct SshServer {
    tcp: TcpEndpoint,
    host: AppHost,
    /// Cumulative bytes written toward the client.
    output_bytes: u64,
}

impl SshServer {
    /// Creates the server side hosting `app`.
    pub fn new(addr: Addr, client: Addr, app: Box<dyn Application>) -> Self {
        SshServer {
            tcp: TcpEndpoint::new(addr, client),
            host: AppHost::new(app),
            output_bytes: 0,
        }
    }

    /// This endpoint's address.
    pub fn addr(&self) -> Addr {
        self.tcp.addr()
    }

    /// Cumulative application output bytes accepted for transmission.
    pub fn output_bytes(&self) -> u64 {
        self.output_bytes
    }

    /// TCP counters.
    pub fn tcp_stats(&self) -> &mosh_tcp::TcpStats {
        self.tcp.stats()
    }

    /// Handles one wire datagram.
    pub fn receive(&mut self, now: Millis, wire: &[u8]) {
        self.tcp.receive(now, wire);
        let input = self.tcp.read();
        if !input.is_empty() {
            self.host.input(now, &input);
        }
    }

    /// Runs timers; returns addressed datagrams.
    pub fn tick(&mut self, now: Millis) -> Vec<(Addr, Vec<u8>)> {
        for w in self.host.due(now) {
            self.output_bytes += w.bytes.len() as u64;
            // SSH must transmit every octet — no skipping, no coalescing
            // beyond TCP's own segmentation.
            self.tcp.write(&w.bytes);
        }
        self.tcp.tick(now)
    }

    /// The earliest time `tick` needs to run again (event stepping).
    pub fn next_wakeup(&self, now: Millis) -> Millis {
        let app = self.host.next_wakeup(now).unwrap_or(Millis::MAX);
        self.tcp.next_wakeup(now).min(app).max(now)
    }
}

impl Endpoint for SshClient {
    fn receive(&mut self, now: Millis, _from: Addr, wire: &[u8], events: &mut Vec<SessionEvent>) {
        let before = self.rendered_bytes;
        SshClient::receive(self, now, wire);
        if self.rendered_bytes != before {
            events.push(SessionEvent::BytesRendered {
                at: now,
                total: self.rendered_bytes,
            });
        }
    }

    fn tick(
        &mut self,
        now: Millis,
        out: &mut Vec<(Addr, Vec<u8>)>,
        _events: &mut Vec<SessionEvent>,
    ) {
        out.extend(SshClient::tick(self, now));
    }

    fn next_wakeup(&self, now: Millis) -> Millis {
        SshClient::next_wakeup(self, now)
    }
}

impl Endpoint for SshServer {
    fn receive(&mut self, now: Millis, _from: Addr, wire: &[u8], _events: &mut Vec<SessionEvent>) {
        SshServer::receive(self, now, wire);
    }

    fn tick(
        &mut self,
        now: Millis,
        out: &mut Vec<(Addr, Vec<u8>)>,
        _events: &mut Vec<SessionEvent>,
    ) {
        out.extend(SshServer::tick(self, now));
    }

    fn next_wakeup(&self, now: Millis) -> Millis {
        SshServer::next_wakeup(self, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosh_core::apps::LineShell;
    use mosh_core::session::Party;
    use mosh_core::{HubSession, ServerHub, SessionId};
    use mosh_net::{LinkConfig, Network, Poller, Side, SimChannel, SimPoller};

    /// SSH baseline sessions ride the same multi-session runtime as Mosh
    /// ones: one hub, one session (more join by `add_session`).
    struct Session {
        hub: ServerHub<SimPoller>,
        sid: SessionId,
        client: SshClient,
        server: SshServer,
    }

    fn session(up: LinkConfig, down: LinkConfig, seed: u64) -> Session {
        let mut net = Network::new(up, down, seed);
        let c = Addr::new(1, 5001);
        let s = Addr::new(2, 22);
        net.register(c, Side::Client);
        net.register(s, Side::Server);
        let mut hub = ServerHub::new(SimPoller::new());
        let tok = hub.poller_mut().add(SimChannel::new(net));
        let sid = hub.add_session(tok);
        Session {
            hub,
            sid,
            client: SshClient::new(c, s, 80, 24),
            server: SshServer::new(s, c, Box::new(LineShell::new())),
        }
    }

    impl Session {
        fn now(&self) -> Millis {
            self.hub.now(self.sid)
        }
    }

    fn run(se: &mut Session, until: Millis) {
        let c = se.client.addr();
        let s = se.server.addr();
        let mut parties = [Party::new(c, &mut se.client), Party::new(s, &mut se.server)];
        se.hub
            .pump(&mut [HubSession::new(se.sid, &mut parties, until)]);
    }

    #[test]
    fn prompt_appears_and_keystrokes_echo() {
        let mut se = session(LinkConfig::lan(), LinkConfig::lan(), 1);
        run(&mut se, 200);
        assert_eq!(se.client.frame().row_text(0), "$");
        se.client.keystroke(se.now(), b"l");
        se.client.keystroke(se.now(), b"s");
        let t = se.now() + 300;
        run(&mut se, t);
        assert_eq!(se.client.frame().row_text(0), "$ ls");
    }

    #[test]
    fn echo_latency_is_a_full_round_trip() {
        let slow = LinkConfig {
            delay_ms: 100,
            ..LinkConfig::lan()
        };
        let mut se = session(slow.clone(), slow, 2);
        run(&mut se, 1000);
        se.client.keystroke(se.now(), b"x");
        let typed_at = se.now();
        // Well under one RTT: nothing on screen.
        let t = typed_at + 150;
        run(&mut se, t);
        assert_eq!(se.client.frame().row_text(0), "$", "no echo yet");
        let t = typed_at + 300;
        run(&mut se, t);
        assert_eq!(se.client.frame().row_text(0), "$ x", "echo after RTT");
    }

    #[test]
    fn command_output_streams_in_full() {
        let mut se = session(LinkConfig::lan(), LinkConfig::lan(), 3);
        run(&mut se, 100);
        for b in b"cat 30\r" {
            se.client.keystroke(se.now(), &[*b]);
        }
        let t = se.now() + 2000;
        run(&mut se, t);
        let text = se.client.frame().to_text();
        assert!(text.contains("file line 29"), "all output rendered");
        // Every output byte crossed the wire (modulo what is in flight).
        assert_eq!(se.client.rendered_bytes(), se.server.output_bytes());
    }

    #[test]
    fn loss_stalls_the_session_for_seconds() {
        // The netem experiment's mechanism: with min-RTO 1 s and backoff,
        // a couple of consecutive losses freeze the screen.
        let lossy = LinkConfig {
            loss: 0.5,
            delay_ms: 50,
            ..LinkConfig::lan()
        };
        let mut se = session(lossy.clone(), lossy, 777);
        run(&mut se, 3000);
        se.client.keystroke(se.now(), b"z");
        let typed = se.now();
        // Keep running until the echo shows; with 75% round-trip loss this
        // routinely takes several RTO backoffs.
        let mut echoed_at = None;
        while se.now() < typed + 120_000 {
            let t = se.now() + 10;
            run(&mut se, t);
            if se.client.frame().row_text(0).contains('z') {
                echoed_at = Some(se.now());
                break;
            }
        }
        let latency = echoed_at.expect("eventually recovers") - typed;
        assert!(
            latency >= 140,
            "cannot beat the RTT + retransmission floor: {latency}"
        );
        assert!(se.client.tcp_stats().timeouts + se.server.tcp_stats().timeouts > 0);
    }
}
