//! Adversarial wires against `Transport::authenticates` and the
//! decrypt-once open path.
//!
//! Four attack classes from the paper's §2.2 threat model, each checked
//! against all three receive-side entry points:
//!
//! * `authenticates` (the boolean demux probe) must say **no**,
//! * `open` (the decrypt-once demux probe) must fail with the precise
//!   error and must **not** touch any counter (a failed probe is routing
//!   work, not line noise aimed at this session),
//! * `receive` (actual consumption) must fail *and* bump the
//!   rejected-datagrams counter.
//!
//! A fifth wire is authentic but its instruction is hostile: a peer with
//! the key telling the receiver to throw away every state it holds.

use mosh_crypto::session::Direction;
use mosh_crypto::{Base64Key, CryptoError};
use mosh_ssp::datagram::DatagramLayer;
use mosh_ssp::fragment::Fragment;
use mosh_ssp::instruction::{Instruction, PROTOCOL_VERSION};
use mosh_ssp::state::BlobState;
use mosh_ssp::transport::Transport;
use mosh_ssp::SspError;

type T = Transport<BlobState, BlobState>;

fn transport(key_byte: u8, direction: Direction) -> T {
    let init = BlobState(b"init".to_vec());
    Transport::new(
        Base64Key::from_bytes([key_byte; 16]),
        direction,
        init.clone(),
        init,
    )
}

/// A client wire the server-side transport would accept.
fn authentic_wire(client: &mut T) -> Vec<u8> {
    client.set_current_state(BlobState(b"keystroke".to_vec()), 0);
    let wires = client.tick(10);
    assert!(!wires.is_empty(), "client must have shipped an instruction");
    wires.into_iter().next().unwrap()
}

#[test]
fn truncated_wires_are_rejected_everywhere() {
    let mut client = transport(1, Direction::ToServer);
    let mut server = transport(1, Direction::ToClient);
    let good = authentic_wire(&mut client);

    // Shorter than nonce+tag (8+16): under the clear header, and one shy
    // of the minimum sealed length.
    for bad in [&good[..7], &good[..23]] {
        assert!(!server.authenticates(bad));
        assert!(matches!(
            server.open(bad),
            Err(SspError::Crypto(CryptoError::Truncated))
        ));
    }
    assert_eq!(
        server.stats().datagrams_rejected,
        0,
        "failed demux probes are not rejected datagrams"
    );
    assert!(server.receive(11, &good[..23]).is_err());
    assert_eq!(server.stats().datagrams_rejected, 1);
    // Truncated wires never even reach OCB.
    assert_eq!(server.decrypt_count(), 0);
}

#[test]
fn flipped_tag_bit_is_rejected_everywhere() {
    let mut client = transport(2, Direction::ToServer);
    let mut server = transport(2, Direction::ToClient);
    let good = authentic_wire(&mut client);
    let mut bad = good.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x01;

    assert!(!server.authenticates(&bad));
    assert!(matches!(
        server.open(&bad),
        Err(SspError::Crypto(CryptoError::BadTag))
    ));
    assert_eq!(server.stats().datagrams_rejected, 0);
    assert!(server.receive(11, &bad).is_err());
    assert_eq!(server.stats().datagrams_rejected, 1);

    // The untampered wire still consumes cleanly afterwards.
    assert!(server.receive(12, &good).is_ok());
    assert_eq!(server.stats().datagrams_received, 1);
}

#[test]
fn own_direction_bit_is_rejected_everywhere() {
    // A reflected datagram (our own direction bit) authenticates under
    // the key but must be refused: reflection attack (paper §2.2).
    let mut server = transport(3, Direction::ToClient);
    server.set_current_state(BlobState(b"frame".to_vec()), 0);
    let own_wires = server.tick(10);
    assert!(!own_wires.is_empty());
    let own = own_wires.into_iter().next().unwrap();

    assert!(!server.authenticates(&own));
    assert!(matches!(
        server.open(&own),
        Err(SspError::Crypto(CryptoError::BadDirection))
    ));
    assert_eq!(server.stats().datagrams_rejected, 0);
    assert!(server.receive(11, &own).is_err());
    assert_eq!(server.stats().datagrams_rejected, 1);
}

#[test]
fn cross_session_key_confusion_is_rejected_everywhere() {
    // An authentic wire from a *different* session's client: right
    // structure, right direction bit, wrong key.
    let mut foreign_client = transport(9, Direction::ToServer);
    let mut server = transport(4, Direction::ToClient);
    let foreign = authentic_wire(&mut foreign_client);

    assert!(!server.authenticates(&foreign));
    assert!(matches!(
        server.open(&foreign),
        Err(SspError::Crypto(CryptoError::BadTag))
    ));
    assert_eq!(server.stats().datagrams_rejected, 0);
    assert!(server.receive(11, &foreign).is_err());
    assert_eq!(server.stats().datagrams_rejected, 1);
}

#[test]
fn an_authentic_throwaway_past_every_state_changes_nothing() {
    // A peer holding the key seals an instruction that tells the
    // receiver to throw away every state it holds. Honest senders never
    // do this; the receiver must survive it with its state intact.
    let mut client = transport(7, Direction::ToServer);
    let mut server = transport(7, Direction::ToClient);
    server.receive(11, &authentic_wire(&mut client)).unwrap();
    let held = server.remote_state_num();
    assert_eq!(server.remote_state().0, b"keystroke");

    let bogus = Instruction {
        protocol_version: PROTOCOL_VERSION,
        old_num: held,
        new_num: held + 5,
        ack_num: 0,
        throwaway_num: held + 5,
        diff: b"bogus".to_vec(),
    };
    let fragment = Fragment {
        id: 100,
        num: 0,
        last: true,
        contents: bogus.encode(&[]),
    };
    let mut sealer = DatagramLayer::new(Base64Key::from_bytes([7; 16]), Direction::ToServer);
    sealer.skip_seq_to(client.next_seq());
    let wire = sealer.encode_many(20, &[&fragment.encode()]).remove(0);
    assert!(server.receive(21, &wire).is_ok(), "an authentic datagram");
    assert_eq!(server.stats().datagrams_received, 2);
    assert_eq!(server.remote_state_num(), held);
    assert_eq!(server.remote_state().0, b"keystroke");
}

#[test]
fn open_then_recv_opened_consumes_exactly_like_receive() {
    let mut client_a = transport(5, Direction::ToServer);
    let mut client_b = transport(5, Direction::ToServer);
    let mut via_wire = transport(5, Direction::ToClient);
    let mut via_token = transport(5, Direction::ToClient);

    // Identical twin sessions: one consumes raw wires, the other goes
    // through the decrypt-once token path. All observable state matches.
    let wire_a = authentic_wire(&mut client_a);
    let wire_b = authentic_wire(&mut client_b);
    assert_eq!(wire_a, wire_b, "twin sessions produce identical wires");

    let ev_wire = via_wire.receive(11, &wire_a).unwrap();
    let opened = via_token.open(&wire_b).unwrap();
    // Opening an authentic wire consumes nothing.
    assert_eq!(via_token.stats().datagrams_received, 0);
    assert_eq!(via_token.remote_state().0, b"init");
    let ev_token = via_token.recv_opened(11, opened).unwrap();
    assert_eq!(ev_wire, ev_token);
    assert_eq!(via_wire.remote_state().0, via_token.remote_state().0);
    assert_eq!(
        via_wire.stats().datagrams_received,
        via_token.stats().datagrams_received
    );
    // Both paths cost exactly one OCB pass per datagram.
    assert_eq!(via_wire.decrypt_count(), 1);
    assert_eq!(via_token.decrypt_count(), 1);
}
