//! Every decoder that eats bytes from the network or from a snapshot
//! refuses hostile input without panicking: the instruction decoder in
//! both its forms, the fragment decoder, both synchronized objects'
//! `apply_diff`, the server's snapshot body at both versions it reads,
//! and each application's `restore_state` — which must also leave behind
//! an application that survives typing.
//!
//! Each decoder gets arbitrary bytes twice: alone, and behind a cut of a
//! valid encoding, so that the damage lands past the first fields as
//! well as in them. The instruction decoder gets a third: behind a cut of
//! a compressed instruction, so the damage lands in its LZ block.
//!
//! Raw bytes never get past the OCB tag, so a second target seals
//! arbitrary user events under the session key and feeds them through the
//! server's receive path to every application.

use mosh_core::hub::snapshot;
use mosh_core::{Application, Editor, LineShell, MailReader, MoshServer, Pager};
use mosh_crypto::session::Direction;
use mosh_crypto::Base64Key;
use mosh_net::Addr;
use mosh_ssp::datagram::DatagramLayer;
use mosh_ssp::fragment::{fragment, Fragment, FRAGMENT_PAYLOAD};
use mosh_ssp::instruction::{Instruction, PROTOCOL_VERSION};
use mosh_ssp::SyncState;
use mosh_states::{CompleteTerminal, UserStream};
use mosh_terminal::MAX_DIMENSION;
use mosh_wire::{put_bytes, put_varint};
use proptest::prelude::*;

const SERVER_V2: &[u8] = include_bytes!("fixtures/server_v2.snap");
const SERVER_V3: &[u8] = include_bytes!("fixtures/server_v3.snap");

/// The first `cut` bytes of `valid` (wrapping at its length), then `noise`.
fn splice(valid: &[u8], cut: usize, noise: &[u8]) -> Vec<u8> {
    let mut out = valid[..cut % (valid.len() + 1)].to_vec();
    out.extend_from_slice(noise);
    out
}

fn user_diff() -> Vec<u8> {
    let mut input = UserStream::new();
    input.push_keystroke(b"l");
    assert!(input.push_resize(100, 30));
    input.push_keystroke("é".as_bytes());
    input.diff_from(&UserStream::new())
}

fn screen_diff() -> Vec<u8> {
    let mut screen = CompleteTerminal::new(20, 5);
    screen.act(b"$ ls\r\n\x1b[1;31mred\x1b[0m \xe6\xbc\xa2\r\n");
    screen.set_echo_ack(7);
    screen.diff_from(&CompleteTerminal::new(20, 5))
}

fn apps() -> Vec<Box<dyn Application>> {
    vec![
        Box::new(LineShell::new()),
        Box::new(Editor::new()),
        Box::new(Pager::new(100)),
        Box::new(MailReader::new(20)),
    ]
}

proptest! {
    #[test]
    fn decoders_refuse_hostile_bytes_without_panicking(
        noise in proptest::collection::vec(any::<u8>(), 0..96),
        cut in any::<usize>(),
        keys in proptest::collection::vec(0x20u8..0x7f, 0..24),
    ) {
        let plain = Instruction {
            protocol_version: PROTOCOL_VERSION,
            old_num: 1,
            new_num: 300,
            ack_num: 2,
            throwaway_num: 1,
            diff: b"diff".to_vec(),
        };
        let instruction = plain.encode(b"chaff");
        // A diff that repeats itself is sent compressed: behind the tag
        // byte 0, its length and an LZ block.
        let compressed = Instruction { diff: screen_diff().repeat(4), ..plain }.encode(b"chaff");
        prop_assert_eq!(compressed[0], 0);
        let fragment = Fragment { id: 9, num: 2, last: true, contents: b"tail".to_vec() }.encode();
        let (user, screen) = (user_diff(), screen_diff());
        let v2 = snapshot::unframe(SERVER_V2).expect("v2 fixture").1;
        let v3 = snapshot::unframe(SERVER_V3).expect("v3 fixture").1;

        for bytes in [noise.clone(), splice(&instruction, cut, &noise), splice(&compressed, cut, &noise)] {
            let _ = Instruction::decode(bytes);
        }
        for bytes in [noise.clone(), splice(&fragment, cut, &noise)] {
            let _ = Fragment::decode(bytes);
        }
        for bytes in [noise.clone(), splice(&user, cut, &noise)] {
            let _ = UserStream::new().apply_diff(&bytes);
        }
        for bytes in [noise.clone(), splice(&screen, cut, &noise)] {
            let _ = CompleteTerminal::new(20, 5).apply_diff(&bytes);
        }
        for (version, valid) in [(2, v2), (3, v3)] {
            for bytes in [noise.clone(), splice(valid, cut, &noise)] {
                let app = Box::new(LineShell::new());
                let _ = MoshServer::decode_snapshot_body(&bytes, version, app);
            }
        }
        for mut app in apps() {
            app.start(0);
            for (i, &k) in keys.iter().enumerate() {
                app.on_input(1 + i as u64, &[k]);
            }
            let saved = app.save_state();
            for bytes in [noise.clone(), splice(&saved, cut, &noise)] {
                // Restored onto every kind, a snapshot also meets the
                // decoders of the apps that did not write it.
                for mut target in apps() {
                    target.start(0);
                    let _ = target.restore_state(&bytes);
                    for (i, &k) in keys.iter().enumerate() {
                        target.on_input(100 + i as u64, &[k]);
                    }
                }
            }
        }
    }
}

/// One user event as the client's half of the wire would carry it,
/// unchecked: a resize may claim any dimensions.
#[derive(Debug, Clone)]
enum UserInput {
    Keys(Vec<u8>),
    Resize(u64, u64),
}

/// A paste as large as the largest datagram the sockets here read
/// (64 KiB), sent as one keystroke event.
const PASTE_BYTES: usize = 64 * 1024;

/// The client's address, as the server sees it.
const CLIENT: Addr = Addr::new(1, 1000);

/// The client's sending half, by hand: each call seals one instruction
/// carrying `events` as a user diff from the last state the server
/// accepted, fragmented and encrypted under the session key exactly as a
/// `MoshClient` sends them — but nothing checks the events first.
struct Typist {
    layer: DatagramLayer,
    /// The last state the server accepted: its number and end index.
    accepted: (u64, u64),
    next_num: u64,
    next_id: u64,
}

impl Typist {
    fn new(key: Base64Key) -> Self {
        Typist {
            layer: DatagramLayer::new(key, Direction::ToServer),
            accepted: (0, 0),
            next_num: 0,
            next_id: 0,
        }
    }

    /// Seals `events` and hands the wires to `server` at `now`,
    /// returning whether the server took the new state.
    fn send(&mut self, server: &mut MoshServer, now: u64, events: &[UserInput]) -> bool {
        let (old_num, start) = self.accepted;
        let mut diff = Vec::new();
        put_varint(&mut diff, start);
        put_varint(&mut diff, events.len() as u64);
        for event in events {
            match event {
                UserInput::Keys(bytes) => {
                    put_varint(&mut diff, 1);
                    put_bytes(&mut diff, bytes);
                }
                UserInput::Resize(width, height) => {
                    put_varint(&mut diff, 2);
                    put_varint(&mut diff, *width);
                    put_varint(&mut diff, *height);
                }
            }
        }
        self.next_num += 1;
        let payload = Instruction {
            protocol_version: PROTOCOL_VERSION,
            old_num,
            new_num: self.next_num,
            ack_num: 0,
            throwaway_num: old_num,
            diff,
        }
        .encode(b"chaff");
        for f in fragment(self.next_id, &payload, FRAGMENT_PAYLOAD) {
            let wire = self.layer.seal(now, &f.encode());
            server.receive(now, CLIENT, &wire);
        }
        self.next_id += 1;
        let taken = server.activity_marker().1 == self.next_num;
        if taken {
            self.accepted = (self.next_num, start + events.len() as u64);
        }
        taken
    }
}

/// Runs `server`'s timers from `from` to `to`, as often as it asks.
fn settle(server: &mut MoshServer, from: u64, to: u64) {
    let mut now = from;
    while now < to {
        server.tick(now);
        now = server.next_wakeup(now).clamp(now + 1, to);
    }
}

proptest! {
    /// Authenticated user input never panics the server, whatever it
    /// claims: arbitrary keystroke bytes (≥ 0x80 included), 64 KiB
    /// pastes, and resizes to 1, 2, 3, any size up to 300, and the
    /// largest screen in one dimension, sealed under the session key and
    /// fed through `MoshServer`'s receive path to each application, which
    /// is then typed into. A hand-built diff that claims a width or
    /// height of 0 or `MAX_DIMENSION + 1` is refused whole: the server
    /// takes none of its events. (A `MAX_DIMENSION`² screen is left out:
    /// 300 MB of cells per case.)
    #[test]
    fn authenticated_hostile_input_never_panics(
        picks in proptest::collection::vec((0u8..16, any::<u64>(), proptest::collection::vec(any::<u8>(), 1..8)), 0..10),
        bad in 0usize..4,
    ) {
        let max = u64::from(MAX_DIMENSION);
        let events: Vec<UserInput> = picks
            .into_iter()
            .map(|(kind, r, bytes)| match kind {
                10 => UserInput::Resize(1 + r % 300, 1 + (r >> 32) % 300),
                11 => UserInput::Resize(1 + r % 3, 1 + (r >> 8) % 3),
                12 => UserInput::Resize(max, 1),
                13 => UserInput::Resize(1, max),
                14 => UserInput::Keys(bytes.iter().copied().cycle().take(PASTE_BYTES).collect()),
                _ => UserInput::Keys(bytes),
            })
            .collect();
        let (width, height) = [(0, 24), (80, 0), (max + 1, 24), (80, max + 1)][bad];
        let key = Base64Key::from_bytes([0x5a; 16]);
        for app in apps() {
            let mut server = MoshServer::new(key.clone(), app);
            let mut typist = Typist::new(key.clone());
            let mut now = 0;
            settle(&mut server, now, 10);
            for event in &events {
                now += 10;
                prop_assert!(typist.send(&mut server, now, std::slice::from_ref(event)));
                settle(&mut server, now, now + 10);
            }
            now += 10;
            let before = server.activity_marker().1;
            let hostile = [UserInput::Keys(b"z".to_vec()), UserInput::Resize(width, height)];
            prop_assert!(!typist.send(&mut server, now, &hostile), "{}x{} taken", width, height);
            prop_assert_eq!(server.activity_marker().1, before);
            for keys in [&b"x"[..], b"\r", b"\x1b[B", b"\x7f", b"q", b" ", b"\xc3\xa9"] {
                now += 10;
                prop_assert!(typist.send(&mut server, now, &[UserInput::Keys(keys.to_vec())]));
                settle(&mut server, now, now + 10);
            }
            settle(&mut server, now, now + 1_000);
        }
    }
}
