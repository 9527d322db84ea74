//! A version-2 session snapshot, stored as bytes: what a hub built before
//! the next format bump leaves behind for its successor to read.
//!
//! `fixtures/server_v2.snap` is `snapshot_server` of [`mid_flood`]'s
//! server, written by this commit's code (`write_fixture`, ignored).

use mosh_core::hub::snapshot;
use mosh_core::{LineShell, MoshClient, MoshServer};
use mosh_crypto::Base64Key;
use mosh_net::{Addr, Channel, LinkConfig, Network, Side, SimChannel};
use mosh_prediction::DisplayPreference;

const FIXTURE: &[u8] = include_bytes!("fixtures/server_v2.snap");

const C: Addr = Addr::new(1, 1000);
const S: Addr = Addr::new(2, 60001);

/// A server in the middle of a `yes` flood over a seeded LAN, stopped
/// with writes applied that no frame has covered yet, a keystroke
/// waiting for its echo ack, and the first fragment of a three-fragment
/// paste received. Returns it with the fragments still in flight.
fn mid_flood() -> (MoshServer, Vec<Vec<u8>>) {
    let key = Base64Key::from_bytes([0x76; 16]);
    let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), 17);
    net.register(C, Side::Client);
    net.register(S, Side::Server);
    let mut ch = SimChannel::new(net);
    let mut client = MoshClient::new(key.clone(), S, 80, 24, DisplayPreference::Never);
    let mut server = MoshServer::new(key, Box::new(LineShell::new()));

    let mut now = 0;
    let mut fragmented = false;
    loop {
        match now {
            20 => drop(client.keystroke(now, b"y")),
            25 => drop(client.keystroke(now, b"e")),
            30 => drop(client.keystroke(now, b"s")),
            35 => drop(client.keystroke(now, b"\r")),
            290 => drop(client.keystroke(now, b"q")),
            300 => drop(client.keystroke(now, &[b'p'; 1300])),
            _ => {}
        }
        let wires = client.tick(now);
        fragmented |= wires.len() >= 3;
        for (to, w) in wires {
            ch.send(C, to, w);
        }
        for (to, w) in server.tick(now) {
            ch.send(S, to, w);
        }
        now += 1;
        ch.wait_until(now);
        if fragmented {
            break;
        }
        while let Some(dg) = ch.recv(S) {
            server.receive(now, dg.from, &dg.payload);
        }
        while let Some(dg) = ch.recv(C) {
            client.receive(now, &dg.payload);
        }
    }
    // The paste's fragments arrive together; the server takes the first.
    let first = ch.recv(S).expect("the paste arrived");
    server.receive(now, first.from, &first.payload);
    let rest: Vec<Vec<u8>> = std::iter::from_fn(|| ch.recv(S))
        .map(|dg| dg.payload)
        .collect();
    // Stop on a tick that applied flood output and sent nothing.
    while !server.tick(now).is_empty() {
        now += 1;
    }
    (server, rest)
}

const NEXT_SEQ: u64 = 7;
const ACTIVITY_MARKER: (u64, u64) = (5, 4);

/// The screen the fixture was taken with: the flood's 1..=40-`y` cycle,
/// caught with its last line 20 long and the cursor on the blank row below.
fn screen() -> String {
    let rows: Vec<String> = (38..=40).chain(1..=20).map(|n| "y".repeat(n)).collect();
    rows.join("\n")
}

#[test]
fn fixture_is_this_commits_snapshot_of_the_scenario() {
    let (server, rest) = mid_flood();
    assert_eq!(rest.len(), 2, "two fragments still in flight");
    assert!(!server.write_delays().is_empty());
    assert_eq!(snapshot::snapshot_server(&server), FIXTURE);
    assert_eq!(u16::from_be_bytes([FIXTURE[4], FIXTURE[5]]), 2);

    let restored = snapshot::restore_server(FIXTURE, Box::new(LineShell::new())).expect("reads");
    assert_eq!(restored.frame().to_text(), screen());
    assert_eq!(restored.next_seq(), NEXT_SEQ);
    assert_eq!(restored.activity_marker(), ACTIVITY_MARKER);
}

#[test]
#[ignore = "writes the fixture; run once, at the commit whose format it records"]
fn write_fixture() {
    let (server, _) = mid_flood();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/server_v2.snap");
    std::fs::write(path, snapshot::snapshot_server(&server)).expect("fixture written");
    println!("next_seq {}", server.next_seq());
    println!("activity_marker {:?}", server.activity_marker());
    println!("write_delays {}", server.write_delays().len());
    println!("screen {:?}", server.frame().to_text());
}
