//! A version-2 session snapshot, stored as bytes: what a hub built before
//! the format went to version 3 leaves behind for its successor to read.
//!
//! `fixtures/server_v2.snap` is `snapshot_server` of a server in the
//! middle of a `yes` flood (the [`mid_flood`] scenario with a 1 300-byte
//! paste of `p`), as the last version-2 build wrote it. Version 2 carried
//! the server's Figure 3 log — here 62 shipped pairs and 213 arrival
//! times — between the `started` flag and the application's state.
//! `fixtures/server_v3.snap` is the same server's version-3 snapshot,
//! stored before the format moved again. Both were written while a
//! framebuffer kept history: the screen's lines that had scrolled off its
//! top, [`HISTORY_BYTES`] of each file. A framebuffer keeps none now, so
//! either restores to a server that writes those fields empty.
//!
//! The server had received the first of the paste's three fragments.
//! `fixtures/server_v2_rest.bin` holds the other two as the client sent
//! them, each a length-prefixed datagram, and [`STOPPED_AT`] the time the
//! server stopped at. They were sent before instructions were compressed,
//! so fed them, a restored server completes a plain instruction begun by
//! an older build. The scenario itself cannot make the fixtures again:
//! the paste now compresses into one datagram. So the fixtures are held to
//! each other and to today's writer, and a live twin of the scenario, with
//! a paste that still fragments once compressed, holds today's round trip
//! to the server it was taken from.

use mosh_core::hub::snapshot::{self, SnapshotError};
use mosh_core::{LineShell, MoshClient, MoshServer};
use mosh_crypto::Base64Key;
use mosh_net::{Addr, Channel, LinkConfig, Network, Side, SimChannel};
use mosh_prediction::DisplayPreference;
use mosh_ssp::fragment::FRAGMENT_PAYLOAD;
use mosh_wire::Reader;

const FIXTURE: &[u8] = include_bytes!("fixtures/server_v2.snap");
const FIXTURE_V3: &[u8] = include_bytes!("fixtures/server_v3.snap");
const FIXTURE_REST: &[u8] = include_bytes!("fixtures/server_v2_rest.bin");

/// When the fixtures' server stopped, and its paste's last two fragments
/// arrive.
const STOPPED_AT: u64 = 319;

const C: Addr = Addr::new(1, 1000);
const S: Addr = Addr::new(2, 60001);

/// A server in the middle of a `yes` flood over a seeded LAN, stopped
/// with writes applied that no frame has covered yet, a keystroke
/// waiting for its echo ack, and the first fragment of `paste` received.
/// Returns it with the paste's other fragments still in flight and the
/// time it stopped at.
///
/// Its keys are pressed on the schedule the fixtures were recorded under,
/// when the client held keystrokes for 8 ms: `y` and `e` typed at 20 and
/// 25 left together at 28, `s` and `\r` at 48, `q` at 298.
fn mid_flood(paste: &[u8]) -> (MoshServer, Vec<Vec<u8>>, u64) {
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
                let _ = client.keystroke(now, paste);
            }
            _ => {}
        }
        assert!(now < 1000, "the paste never left in fragments");
        let wires = client.tick(now);
        fragmented |= wires.len() >= 2;
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

/// The fixtures' paste fragments still in flight.
fn fixture_rest() -> Vec<Vec<u8>> {
    let mut r = Reader::new(FIXTURE_REST);
    let rest: Vec<Vec<u8>> = std::iter::from_fn(|| {
        (r.remaining() > 0).then(|| r.bytes().expect("a length-prefixed datagram").to_vec())
    })
    .collect();
    assert_eq!(rest.len(), 2);
    rest
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

/// Feeds `rest` to each server at `now`, checks that each completed the
/// instruction it held the first fragment of, then ticks them for 400 ms
/// and checks that they send the same datagrams.
fn complete_and_tick_alike(servers: &mut [MoshServer], rest: &[Vec<u8>], now: u64) {
    for server in servers.iter_mut() {
        let marker = server.activity_marker();
        for wire in rest {
            server.receive(now, C, wire);
        }
        assert_eq!(
            server.activity_marker().1,
            marker.1 + 1,
            "the paste completed"
        );
    }
    let (first, others) = servers.split_first_mut().expect("a server");
    for t in now..now + 400 {
        let wires = first.tick(t);
        for (i, other) in others.iter_mut().enumerate() {
            assert_eq!(other.tick(t), wires, "twin {i} at {t}");
        }
    }
    for other in others {
        assert_eq!(other.frame().to_text(), first.frame().to_text());
    }
}

#[test]
fn a_v2_snapshot_restores_resumes_and_is_written_back_as_v3() {
    assert_eq!(FIXTURE[4..6], 2u16.to_be_bytes());
    let from_v2 = restore(FIXTURE).expect("version 2 is read");
    assert_eq!(from_v2.frame().to_text(), screen());
    assert_eq!(from_v2.next_seq(), NEXT_SEQ);
    assert_eq!(from_v2.activity_marker(), ACTIVITY_MARKER);

    // Written back it is the v3 fixture written back — the same bytes,
    // not merely an equivalent session — and the log and the history are
    // all that went.
    let from_v3 = restore(FIXTURE_V3).expect("version 3 is read");
    let v3 = snapshot::snapshot_server(&from_v2);
    assert_eq!(v3[4..6], 3u16.to_be_bytes());
    assert_eq!(v3, snapshot::snapshot_server(&from_v3));
    assert_eq!(FIXTURE.len() - v3.len(), 563 + HISTORY_BYTES);

    // The paste's other two fragments complete the plain instruction
    // whose first each was holding, and the two, with a round trip of
    // what the v2 fixture is written back as, go on alike.
    let round_trip = restore(&v3).expect("round trip");
    let mut servers = [from_v2, from_v3, round_trip];
    complete_and_tick_alike(&mut servers, &fixture_rest(), STOPPED_AT);
    assert!(
        servers[0].activity_marker().0 > ACTIVITY_MARKER.0,
        "frames left"
    );
}

#[test]
fn the_v3_fixture_is_written_back_without_its_history_and_stays_so() {
    assert_eq!(FIXTURE_V3[4..6], 3u16.to_be_bytes());
    let from_v3 = restore(FIXTURE_V3).expect("version 3 is read");
    assert_eq!(from_v3.frame().to_text(), screen());
    assert_eq!(from_v3.next_seq(), NEXT_SEQ);
    assert_eq!(from_v3.activity_marker(), ACTIVITY_MARKER);
    let today = snapshot::snapshot_server(&from_v3);
    assert_eq!(FIXTURE_V3.len() - today.len(), HISTORY_BYTES);
    let again = restore(&today).expect("today's bytes are read");
    assert_eq!(
        snapshot::snapshot_server(&again),
        today,
        "the snapshot bytes of one server state changed"
    );
}

#[test]
fn a_server_holding_part_of_a_compressed_paste_resumes_like_the_live_one() {
    // Lines that repeat all but their numbers: the instruction shrinks
    // but still spans several fragments.
    let paste: Vec<u8> = (0..400)
        .flat_map(|n| format!("line {n}: the quick brown fox\r").into_bytes())
        .collect();
    let (live, rest, now) = mid_flood(&paste);
    assert!(!rest.is_empty(), "the paste fragmented");
    assert!(
        1 + rest.len() < paste.len() / FRAGMENT_PAYLOAD,
        "the paste was compressed: {} fragments for {} bytes",
        1 + rest.len(),
        paste.len()
    );
    let restored = restore(&snapshot::snapshot_server(&live)).expect("round trip");
    complete_and_tick_alike(&mut [live, restored], &rest, now);
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
