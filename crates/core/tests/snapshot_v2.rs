//! A version-2 session snapshot, stored as bytes: what a hub built before
//! the format went to version 3 leaves behind for its successor to read.
//!
//! `fixtures/server_v2.snap` is `snapshot_server` of [`mid_flood`]'s
//! server as the last version-2 build wrote it (the commit that added
//! this file, where a test pinned the two equal). Version 2 carried the
//! server's Figure 3 log — here 62 shipped pairs and 213 arrival times —
//! between the `started` flag and the application's state.
//!
//! `fixtures/server_v3.snap` is the same server's version-3 snapshot,
//! stored before the format moves again. Both were written while a
//! framebuffer kept history: the screen's lines that had scrolled off its
//! top, [`HISTORY_BYTES`] of each file. A framebuffer keeps none now, so
//! either restores to a server that writes those fields empty, and
//! otherwise to today's `snapshot_server` bytes for the server's state,
//! whatever the in-memory layout becomes.

use mosh_core::hub::snapshot::{self, SnapshotError};
use mosh_core::{LineShell, MoshClient, MoshServer};
use mosh_crypto::Base64Key;
use mosh_net::{Addr, Channel, LinkConfig, Network, Side, SimChannel};
use mosh_prediction::DisplayPreference;

const FIXTURE: &[u8] = include_bytes!("fixtures/server_v2.snap");
const FIXTURE_V3: &[u8] = include_bytes!("fixtures/server_v3.snap");

const C: Addr = Addr::new(1, 1000);
const S: Addr = Addr::new(2, 60001);

/// A server in the middle of a `yes` flood over a seeded LAN, stopped
/// with writes applied that no frame has covered yet, a keystroke
/// waiting for its echo ack, and the first fragment of a three-fragment
/// paste received. Returns it with the fragments still in flight and the
/// time it stopped at.
///
/// The fixtures were recorded while the client held keystrokes for 8 ms.
/// It now holds them for 1 ms, so each key is pressed 1 ms before the
/// tick at which the 8 ms hold released it (`y` and `e` typed at 20 and
/// 25 left together at 28, `s` and `\r` at 48, `q` at 298): the server
/// receives the same datagrams at the same times and reaches the same
/// state, byte for byte.
fn mid_flood() -> (MoshServer, Vec<Vec<u8>>, u64) {
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
            27 => {
                let _ = client.keystroke(now, b"y");
                let _ = client.keystroke(now, b"e");
            }
            47 => {
                let _ = client.keystroke(now, b"s");
                let _ = client.keystroke(now, b"\r");
            }
            297 => {
                let _ = client.keystroke(now, b"q");
            }
            300 => {
                let _ = client.keystroke(now, &[b'p'; 1300]);
            }
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
        while let Some(dg) = ch.network_mut().recv(S) {
            server.receive(now, dg.from, &dg.payload);
        }
        while let Some(dg) = ch.network_mut().recv(C) {
            client.receive(now, &dg.payload);
        }
    }
    // The paste's fragments arrive together; the server takes the first.
    let first = ch.network_mut().recv(S).expect("the paste arrived");
    server.receive(now, first.from, &first.payload);
    let rest: Vec<Vec<u8>> = std::iter::from_fn(|| ch.network_mut().recv(S))
        .map(|dg| dg.payload)
        .collect();
    // Stop on a tick that applied flood output and sent nothing.
    while !server.tick(now).is_empty() {
        now += 1;
    }
    (server, rest, now)
}

/// The bytes of history in each fixture: the limit, length and offset
/// fields and the rows the flood had scrolled off the screen, in every
/// framebuffer the snapshot holds, less the three zero bytes written in
/// their place today.
const HISTORY_BYTES: usize = 4804;

const NEXT_SEQ: u64 = 7;
const ACTIVITY_MARKER: (u64, u64) = (5, 4);

/// The screen the fixture was taken with: the flood's 1..=40-`y` cycle,
/// caught with its last line 20 long and the cursor on the blank row below.
fn screen() -> String {
    let rows: Vec<String> = (38..=40).chain(1..=20).map(|n| "y".repeat(n)).collect();
    rows.join("\n")
}

fn restore(framed: &[u8]) -> Result<MoshServer, SnapshotError> {
    snapshot::restore_server(framed, Box::new(LineShell::new()))
}

/// `framed` with its header claiming `version`; the checksum covers the
/// body only.
fn claiming(version: u16, framed: &[u8]) -> Vec<u8> {
    let mut out = framed.to_vec();
    out[4..6].copy_from_slice(&version.to_be_bytes());
    out
}

#[test]
fn a_v2_snapshot_restores_resumes_and_is_written_back_as_v3() {
    assert_eq!(FIXTURE[4..6], 2u16.to_be_bytes());
    let mut from_v2 = restore(FIXTURE).expect("version 2 is read");
    assert_eq!(from_v2.frame().to_text(), screen());
    assert_eq!(from_v2.next_seq(), NEXT_SEQ);
    assert_eq!(from_v2.activity_marker(), ACTIVITY_MARKER);

    // Written back it is the v3 snapshot of the server the fixture was
    // taken from — the same bytes, not merely an equivalent session —
    // and the log and the history are all that went.
    let (mut live, rest, now) = mid_flood();
    let v3 = snapshot::snapshot_server(&from_v2);
    assert_eq!(v3[4..6], 3u16.to_be_bytes());
    assert_eq!(v3, snapshot::snapshot_server(&live));
    assert_eq!(FIXTURE.len() - v3.len(), 563 + HISTORY_BYTES);

    // It resumes as a v3 round trip of that server does. The paste's
    // other two fragments complete the instruction whose first the
    // snapshot was holding.
    let mut from_v3 = restore(&v3).expect("round trip");
    for server in [&mut live, &mut from_v3, &mut from_v2] {
        for wire in &rest {
            server.receive(now, C, wire);
        }
        assert_eq!(server.activity_marker().1, ACTIVITY_MARKER.1 + 1);
    }
    for t in now..now + 400 {
        let wires = live.tick(t);
        assert_eq!(from_v3.tick(t), wires, "v3 twin at {t}");
        assert_eq!(from_v2.tick(t), wires, "v2 twin at {t}");
    }
    assert!(live.activity_marker().0 > ACTIVITY_MARKER.0, "frames left");
    assert_eq!(from_v2.frame().to_text(), live.frame().to_text());
}

#[test]
fn the_v3_fixture_is_todays_snapshot_and_resumes_like_its_v2_twin() {
    assert_eq!(FIXTURE_V3[4..6], 3u16.to_be_bytes());
    let (mut live, rest, now) = mid_flood();
    let mut from_v3 = restore(FIXTURE_V3).expect("version 3 is read");
    let today = snapshot::snapshot_server(&live);
    assert_eq!(
        snapshot::snapshot_server(&from_v3),
        today,
        "the snapshot bytes of one server state changed"
    );
    assert_eq!(FIXTURE_V3.len() - today.len(), HISTORY_BYTES);

    let mut from_v2 = restore(FIXTURE).expect("version 2 is read");
    assert_eq!(from_v3.frame().to_text(), screen());
    assert_eq!(from_v3.next_seq(), NEXT_SEQ);
    assert_eq!(from_v3.activity_marker(), ACTIVITY_MARKER);
    for server in [&mut live, &mut from_v3, &mut from_v2] {
        for wire in &rest {
            server.receive(now, C, wire);
        }
    }
    for t in now..now + 400 {
        let wires = from_v2.tick(t);
        assert_eq!(from_v3.tick(t), wires, "v3 fixture at {t}");
        assert_eq!(live.tick(t), wires, "live server at {t}");
    }
    assert_eq!(from_v3.frame().to_text(), from_v2.frame().to_text());
}

#[test]
fn versions_other_than_the_current_and_the_one_before_are_refused() {
    for version in [1, 4] {
        assert_eq!(
            restore(&claiming(version, FIXTURE)).err(),
            Some(SnapshotError::UnsupportedVersion(version))
        );
    }
    // The body is not a v3 body: read as one, the log is trailing garbage.
    assert_eq!(
        restore(&claiming(3, FIXTURE)).err(),
        Some(SnapshotError::Malformed)
    );
}

#[test]
fn every_truncation_of_a_v2_snapshot_is_rejected_whole() {
    for cut in 0..FIXTURE.len() {
        assert!(restore(&FIXTURE[..cut]).is_err(), "file cut at {cut}");
    }
    // Past the checksum: a sound v2 frame around each prefix of the body,
    // so the cut lands inside every field in turn, the skipped log's too.
    let (_, body) = snapshot::unframe(FIXTURE).expect("sound frame");
    for cut in 0..body.len() {
        let framed = claiming(2, &snapshot::frame(&body[..cut]));
        assert_eq!(
            restore(&framed).err(),
            Some(SnapshotError::Malformed),
            "body cut at {cut}"
        );
    }
}
