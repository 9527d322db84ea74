//! Ablation: the Control-C claim (paper §1, §2.3).
//!
//! "When a process goes haywire and floods the terminal, network buffers do
//! not fill up ... so unlike in prior work, Control-C and other interrupt
//! sequences continue to work" — within about one RTT. SSH, in contrast,
//! must deliver the entire backlog through the choked link first.

use mosh_core::session::{Endpoint, Party, SessionLoop};
use mosh_core::{LineShell, Millis, MoshClient, MoshServer};
use mosh_crypto::Base64Key;
use mosh_net::{Addr, LinkConfig, Network, Side, SimChannel};
use mosh_prediction::DisplayPreference;
use mosh_ssh::{SshClient, SshServer};
use mosh_terminal::Framebuffer;

/// A narrow link with a deep buffer: a flood fills it in under a second.
fn narrow() -> LinkConfig {
    LinkConfig {
        delay_ms: 50,
        rate_bytes_per_ms: Some(40), // 320 kbit/s
        queue_bytes: 256 * 1024,     // ~6.5 s of buffer at line rate
        ..LinkConfig::lan()
    }
}

/// Types `yes` into a shell behind the narrow downlink, lets the flood
/// rage for five seconds, presses Control-C, and returns how long `^C`
/// took to show on the client's `screen` — `None` if not within `limit`.
fn ctrl_c_ms<C: Endpoint, S: Endpoint>(
    (c, mut client): (Addr, C),
    (s, mut server): (Addr, S),
    mut press: impl FnMut(&mut C, Millis, &[u8]),
    screen: impl Fn(&C) -> &Framebuffer,
    limit: Millis,
) -> Option<Millis> {
    let mut net = Network::new(LinkConfig::lan(), narrow(), 1);
    net.register(c, Side::Client);
    net.register(s, Side::Server);
    let mut sl = SessionLoop::new(SimChannel::new(net));
    let mut run = |sl: &mut SessionLoop<SimChannel>, client: &mut C, until| {
        sl.pump_until(
            &mut [Party::new(c, client), Party::new(s, &mut server)],
            until,
        );
    };

    run(&mut sl, &mut client, 1000);
    for b in b"yes\r" {
        press(&mut client, sl.now(), &[*b]);
        let t = sl.now() + 50;
        run(&mut sl, &mut client, t);
    }
    let t = sl.now() + 5000;
    run(&mut sl, &mut client, t); // flood rages
    press(&mut client, sl.now(), &[0x03]);
    let pressed = sl.now();
    while sl.now() < pressed + limit {
        let t = sl.now() + 10;
        run(&mut sl, &mut client, t);
        if screen(&client).to_text().contains("^C") {
            return Some(sl.now() - pressed);
        }
    }
    None
}

fn main() {
    println!("=== Ablation: Control-C responsiveness during output flood ===");

    let key = Base64Key::from_bytes([1u8; 16]);
    let s = Addr::new(2, 60001);
    let mosh_ms = ctrl_c_ms(
        (
            Addr::new(1, 1000),
            MoshClient::new(key.clone(), s, 80, 24, DisplayPreference::Never),
        ),
        (s, MoshServer::new(key, Box::new(LineShell::new()))),
        |client, now, bytes| {
            client.keystroke(now, bytes);
        },
        MoshClient::server_frame,
        60_000,
    );
    println!(
        "  Mosh: ^C visible after {} (paper: within one RTT ≈ 100 ms + frame interval)",
        mosh_ms.map(|m| format!("{m} ms")).unwrap_or("NEVER".into())
    );

    let (c, s) = (Addr::new(1, 5001), Addr::new(2, 22));
    let ssh_ms = ctrl_c_ms(
        (c, SshClient::new(c, s, 80, 24)),
        (s, SshServer::new(s, c, Box::new(LineShell::new()))),
        SshClient::keystroke,
        SshClient::frame,
        120_000,
    );
    println!(
        "  SSH:  ^C visible after {} (backlog must drain through the choked link first)",
        ssh_ms.map(|m| format!("{m} ms")).unwrap_or(">120 s".into())
    );
}
