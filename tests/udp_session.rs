//! Live-substrate tests: full Mosh sessions over real 127.0.0.1 UDP
//! sockets (loopback only — safe anywhere, including CI).
//!
//! The client and server each own a [`UdpChannel`] and a [`SessionLoop`];
//! a single test thread alternates short pumps between them, so each
//! pump's `wait_until` genuinely blocks on its socket. Wall-clock bounds
//! are generous: SSP retransmits through any rare loopback drop.

use mosh::core::{LineShell, MoshClient, MoshServer, Party, SessionEvent, SessionLoop};
use mosh::crypto::Base64Key;
use mosh::net::{Addr, Channel, UdpChannel};
use mosh::prediction::DisplayPreference;

struct UdpPair {
    client_loop: SessionLoop<UdpChannel>,
    server_loop: SessionLoop<UdpChannel>,
    client: MoshClient,
    server: MoshServer,
    c_addr: Addr,
    s_addr: Addr,
    events: Vec<SessionEvent>,
}

fn udp_pair(key_byte: u8) -> UdpPair {
    let key = Base64Key::from_bytes([key_byte; 16]);
    let server_channel = UdpChannel::bind("127.0.0.1:0").expect("server socket");
    let client_channel = UdpChannel::bind("127.0.0.1:0").expect("client socket");
    let s_addr = server_channel.local_addr();
    let c_addr = client_channel.local_addr();
    UdpPair {
        client: MoshClient::new(key.clone(), s_addr, 80, 24, DisplayPreference::Never),
        server: MoshServer::new(key, Box::new(LineShell::new())),
        client_loop: SessionLoop::new(client_channel),
        server_loop: SessionLoop::new(server_channel),
        c_addr,
        s_addr,
        events: Vec::new(),
    }
}

impl UdpPair {
    /// One alternation: a few real milliseconds on each side.
    fn step(&mut self) {
        let t = self.client_loop.now() + 4;
        self.client_loop
            .pump_until(&mut [Party::new(self.c_addr, &mut self.client)], t);
        let t = self.server_loop.now() + 4;
        let ev = self
            .server_loop
            .pump_until(&mut [Party::new(self.s_addr, &mut self.server)], t);
        self.events.extend(ev);
    }

    /// Steps until `cond` holds, panicking after ~`limit_ms` of wall time.
    fn step_until(&mut self, limit_ms: u64, what: &str, mut cond: impl FnMut(&Self) -> bool) {
        let start = std::time::Instant::now();
        while !cond(self) {
            assert!(
                start.elapsed().as_millis() < limit_ms as u128,
                "timed out waiting for: {what}"
            );
            self.step();
        }
    }
}

#[test]
fn keystroke_echo_round_trip_over_loopback_udp() {
    let mut p = udp_pair(0x21);
    p.step_until(15_000, "server prompt", |p| {
        p.client.server_frame().row_text(0) == "$"
    });
    p.client.keystroke(p.client_loop.now(), b"x");
    p.step_until(15_000, "echo of 'x'", |p| {
        p.client.server_frame().row_text(0) == "$ x"
    });
    // The server learned the client's real socket address from the wire.
    assert_eq!(p.server.target(), Some(p.c_addr));
}

#[test]
fn client_rebind_mid_session_roams_on_real_sockets() {
    let mut p = udp_pair(0x22);
    p.step_until(15_000, "server prompt", |p| {
        p.client.server_frame().row_text(0) == "$"
    });
    p.client.keystroke(p.client_loop.now(), b"a");
    p.step_until(15_000, "echo of 'a'", |p| {
        p.client.server_frame().row_text(0) == "$ a"
    });
    let old_addr = p.c_addr;
    assert_eq!(p.server.target(), Some(old_addr));

    // Roam: rebind the client's socket (new ephemeral port — a new
    // public identity, as after a network change). Nothing reconnects;
    // the next authentic datagram re-targets the server.
    p.client_loop
        .channel_mut()
        .rebind("127.0.0.1:0")
        .expect("rebind");
    p.c_addr = p.client_loop.channel().local_addr();
    assert_ne!(p.c_addr, old_addr, "ephemeral rebind moved the port");

    p.client.keystroke(p.client_loop.now(), b"b");
    p.step_until(15_000, "echo of 'b' after roam", |p| {
        p.client.server_frame().row_text(0) == "$ ab"
    });
    let new_addr = p.c_addr;
    p.step_until(15_000, "server re-target", |p| {
        p.server.target() == Some(new_addr)
    });
    assert!(
        p.events
            .iter()
            .any(|e| matches!(e, SessionEvent::Roamed { to, .. } if *to == new_addr)),
        "server loop reported the roam: {:?}",
        p.events
    );
}

#[test]
fn into_channel_hands_back_the_same_socket_with_its_inbox() {
    let channel = UdpChannel::bind("127.0.0.1:0").expect("server socket");
    let addr = channel.local_addr();
    let key = Base64Key::from_bytes([0x23; 16]);
    let mut server = MoshServer::new(key, Box::new(LineShell::new()));
    let mut sl = SessionLoop::new(channel);
    let t = sl.now() + 20;
    sl.pump_until(&mut [Party::new(addr, &mut server)], t);

    // A datagram that lands between pumps waits in the channel's inbox.
    let mut peer = UdpChannel::bind("127.0.0.1:0").expect("peer socket");
    peer.send(peer.local_addr(), addr, b"late".to_vec());
    let deadline = sl.now() + 5_000;
    let woke = sl.channel_mut().wait_until(deadline);
    assert!(woke < deadline, "the datagram arrived");

    // Unwrapping the loop returns that socket, not a copy or a fresh
    // one: same address, and what it had received is still there.
    let mut channel = sl.into_channel();
    assert_eq!(channel.local_addr(), addr);
    let dg = channel.poll_any().expect("undelivered datagram survives");
    assert_eq!(dg.payload, b"late");
    assert_eq!(dg.from, peer.local_addr());
}
