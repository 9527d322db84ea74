//! Cross-crate integration tests: full sessions over hostile networks,
//! driven by the event-driven `SessionLoop` instead of a 1 ms pump.

use mosh::core::{
    Editor, LineShell, MailReader, MoshClient, MoshServer, Pager, Party, SessionLoop,
};
use mosh::crypto::Base64Key;
use mosh::net::{Addr, LinkConfig, Network, Side, SimChannel};
use mosh::prediction::DisplayPreference;

struct Session {
    sl: SessionLoop<SimChannel>,
    client: MoshClient,
    server: MoshServer,
    c: Addr,
    s: Addr,
}

fn session(
    up: LinkConfig,
    down: LinkConfig,
    seed: u64,
    app: Box<dyn mosh::core::Application>,
) -> Session {
    let key = Base64Key::from_bytes([seed as u8; 16]);
    let mut net = Network::new(up, down, seed);
    let c = Addr::new(1, 1000);
    let s = Addr::new(2, 60001);
    net.register(c, Side::Client);
    net.register(s, Side::Server);
    Session {
        sl: SessionLoop::new(SimChannel::new(net)),
        client: MoshClient::new(key.clone(), s, 80, 24, DisplayPreference::Adaptive),
        server: MoshServer::new(key, app),
        c,
        s,
    }
}

impl Session {
    fn now(&self) -> u64 {
        self.sl.now()
    }

    fn run(&mut self, until: u64) {
        self.sl.pump_until(
            &mut [
                Party::new(self.c, &mut self.client),
                Party::new(self.s, &mut self.server),
            ],
            until,
        );
    }

    /// Replaces the emulated network mid-session (blackouts, recoveries).
    /// The incoming network is fast-forwarded to the session clock first:
    /// `SimChannel` reads time from its network, and endpoint-visible
    /// time must never go backwards.
    fn swap_network(&mut self, mut net: Network) {
        net.advance_to(self.sl.now());
        std::mem::swap(self.sl.channel_mut().network_mut(), &mut net);
    }
}

fn type_line(se: &mut Session, line: &[u8], gap: u64) {
    for b in line {
        se.client.keystroke(se.now(), &[*b]);
        let until = se.now() + gap;
        se.run(until);
    }
}

#[test]
fn shell_session_over_lossy_3g() {
    let lossy = LinkConfig {
        delay_ms: 220,
        jitter_ms: 40,
        loss: 0.08,
        ..LinkConfig::lan()
    };
    let mut se = session(lossy.clone(), lossy, 1, Box::new(LineShell::new()));
    se.run(2500);
    type_line(&mut se, b"echo resilient\r", 160);
    let until = se.now() + 8000;
    se.run(until);
    let text = se.client.server_frame().to_text();
    assert!(text.contains("resilient"), "output arrived: {text}");
    // Display (with overlays) equals authority after quiescence.
    assert_eq!(se.client.display(), *se.client.server_frame());
}

#[test]
fn editor_full_screen_over_satellite_latency() {
    let sat = LinkConfig {
        delay_ms: 300,
        ..LinkConfig::lan()
    };
    let mut se = session(sat.clone(), sat, 2, Box::new(Editor::new()));
    se.run(3000);
    type_line(&mut se, b"hello editor", 150);
    let until = se.now() + 4000;
    se.run(until);
    let row0 = se.client.server_frame().row_text(0);
    assert!(row0.contains("hello editor"), "typed text visible: {row0}");
    // The editor's status line made it across too.
    assert!(se.client.server_frame().row_text(23).contains("INSERT"));
}

#[test]
fn mail_navigation_syncs_highlight() {
    let mut se = session(
        LinkConfig::lan(),
        LinkConfig::lan(),
        3,
        Box::new(MailReader::new(10)),
    );
    se.run(1000);
    se.client.keystroke(se.now(), b"n");
    let until = se.now() + 500;
    se.run(until);
    se.client.keystroke(se.now(), b"n");
    let until = se.now() + 500;
    se.run(until);
    // The highlight (inverse video) sits on the third message (index 2).
    let f = se.client.server_frame();
    assert!(f.cell(3, 0).attrs().inverse, "bar on row 3 after two 'n'");
}

#[test]
fn pager_over_intermittent_connectivity() {
    // 100% loss blackout in the middle of a session; SSP recovers silently.
    let mut se = session(
        LinkConfig::lan(),
        LinkConfig::lan(),
        4,
        Box::new(Pager::new(200)),
    );
    se.run(1000);
    let first_page = se.client.server_frame().row_text(0);

    // Page forward twice during a blackout (packets vanish).
    se.client.keystroke(se.now(), b" ");
    // Swap in a dead network.
    let mut dead = Network::new(
        LinkConfig {
            loss: 1.0,
            ..LinkConfig::lan()
        },
        LinkConfig {
            loss: 1.0,
            ..LinkConfig::lan()
        },
        4,
    );
    dead.register(se.c, Side::Client);
    dead.register(se.s, Side::Server);
    se.swap_network(dead);
    let until = se.now() + 4000;
    se.run(until);
    assert_eq!(
        se.client.server_frame().row_text(0),
        first_page,
        "nothing arrives during the blackout"
    );

    // Connectivity returns; retransmission heals the session.
    let mut alive = Network::new(LinkConfig::lan(), LinkConfig::lan(), 4);
    alive.register(se.c, Side::Client);
    alive.register(se.s, Side::Server);
    se.swap_network(alive);
    let until = se.now() + 8000;
    se.run(until);
    assert_ne!(se.client.server_frame().row_text(1), "", "screen updated");
    assert!(
        se.client.server_frame().to_text().contains("More"),
        "pager state synced"
    );
}

#[test]
fn control_c_stops_flood_within_a_round_trip() {
    // The §2.3 claim, end to end: the screen keeps changing during the
    // flood (frames skip intermediate states), and ^C lands promptly.
    let narrow = LinkConfig {
        delay_ms: 50,
        rate_bytes_per_ms: Some(50),
        queue_bytes: 128 * 1024,
        ..LinkConfig::lan()
    };
    let mut se = session(LinkConfig::lan(), narrow, 5, Box::new(LineShell::new()));
    se.run(1000);
    type_line(&mut se, b"yes\r", 100);
    let until = se.now() + 3000;
    se.run(until);
    assert!(
        se.client.server_frame().to_text().contains('y'),
        "flood visible"
    );

    se.client.keystroke(se.now(), &[0x03]);
    let pressed = se.now();
    let mut seen_at = None;
    while se.now() < pressed + 10_000 {
        let until = se.now() + 10;
        se.run(until);
        if se.client.server_frame().to_text().contains("^C") {
            seen_at = Some(se.now());
            break;
        }
    }
    let latency = seen_at.expect("^C must appear") - pressed;
    assert!(
        latency < 1000,
        "interrupt visible within ~RTT+frame, took {latency} ms"
    );
}

#[test]
fn resize_mid_session_repaints_correctly() {
    let mut se = session(
        LinkConfig::lan(),
        LinkConfig::lan(),
        6,
        Box::new(LineShell::new()),
    );
    se.run(1000);
    type_line(&mut se, b"echo wide\r", 120);
    let until = se.now() + 1000;
    se.run(until);
    se.client.resize(se.now(), 132, 40);
    let until = se.now() + 2000;
    se.run(until);
    assert_eq!(se.server.frame().width(), 132);
    assert_eq!(se.client.server_frame().width(), 132);
    assert!(se.client.server_frame().to_text().contains("wide"));
}

#[test]
fn tampered_datagrams_never_corrupt_the_session() {
    let mut se = session(
        LinkConfig::lan(),
        LinkConfig::lan(),
        7,
        Box::new(LineShell::new()),
    );
    se.run(500);
    // Inject garbage and bit-flipped copies at the server.
    se.server.receive(se.now(), se.c, b"complete garbage");
    se.server.receive(se.now(), se.c, &[0u8; 64]);
    type_line(&mut se, b"ok\r", 100);
    let until = se.now() + 2000;
    se.run(until);
    assert!(se.client.server_frame().to_text().contains("ok"));
}

#[test]
fn heartbeats_keep_last_heard_fresh_when_idle() {
    let mut se = session(
        LinkConfig::lan(),
        LinkConfig::lan(),
        8,
        Box::new(LineShell::new()),
    );
    se.run(15_000);
    let heard = se.client.last_heard().expect("server spoke");
    assert!(se.now() - heard < 3500, "heartbeats every 3 s keep contact");
}
