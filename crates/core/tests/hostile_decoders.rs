//! Every decoder that eats bytes from the network or from a snapshot
//! refuses hostile input without panicking: the instruction and fragment
//! decoders, both synchronized objects' `apply_diff`, the server's
//! snapshot body at both versions it reads, and each application's
//! `restore_state` — which must also leave behind an application that
//! survives typing.
//!
//! Each decoder gets arbitrary bytes twice: alone, and behind a cut of a
//! valid encoding, so that the damage lands past the first fields as
//! well as in them.

use mosh_core::hub::snapshot;
use mosh_core::{Application, Editor, LineShell, MailReader, MoshServer, Pager};
use mosh_ssp::fragment::Fragment;
use mosh_ssp::instruction::{Instruction, PROTOCOL_VERSION};
use mosh_ssp::SyncState;
use mosh_states::{CompleteTerminal, UserStream};
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
        let instruction = Instruction {
            protocol_version: PROTOCOL_VERSION,
            old_num: 1,
            new_num: 300,
            ack_num: 2,
            throwaway_num: 1,
            diff: b"diff".to_vec(),
        }
        .encode(b"chaff");
        let fragment = Fragment { id: 9, num: 2, last: true, contents: b"tail".to_vec() }.encode();
        let (user, screen) = (user_diff(), screen_diff());
        let v2 = snapshot::unframe(SERVER_V2).expect("v2 fixture").1;
        let v3 = snapshot::unframe(SERVER_V3).expect("v3 fixture").1;

        for bytes in [noise.clone(), splice(&instruction, cut, &noise)] {
            let _ = Instruction::decode(&bytes);
        }
        for bytes in [noise.clone(), splice(&fragment, cut, &noise)] {
            let _ = Fragment::decode(&bytes);
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
