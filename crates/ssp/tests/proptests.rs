//! Property-based tests: SSP converges over hostile networks.
//!
//! The paper's design goal 5 — "Recover from dropped or reordered packets"
//! — is checked here by running real transports over the discrete-event
//! emulator with randomized loss, delay, jitter, and update schedules.

use mosh_crypto::session::Direction;
use mosh_crypto::Base64Key;
use mosh_net::{Addr, LinkConfig, Network, Side};
use mosh_ssp::state::BlobState;
use mosh_ssp::transport::Transport;
use mosh_wire::{put_bytes, put_varint, Reader};
use proptest::prelude::*;

type T = Transport<BlobState, BlobState>;

fn endpoints() -> (T, T) {
    let key = Base64Key::from_bytes([77u8; 16]);
    let init = BlobState(Vec::new());
    (
        Transport::new(key.clone(), Direction::ToServer, init.clone(), init.clone()),
        Transport::new(key, Direction::ToClient, init.clone(), init),
    )
}

/// Drives both endpoints over the network until `end`, 1 ms steps.
fn run(
    net: &mut Network,
    client: &mut T,
    server: &mut T,
    c_addr: Addr,
    s_addr: Addr,
    updates: &mut Vec<(u64, BlobState)>,
    end: u64,
) {
    let mut now = net.now();
    while now < end {
        while let Some((t, state)) = updates.first().cloned() {
            if t > now {
                break;
            }
            client.set_current_state(state, now);
            updates.remove(0);
        }
        for wire in client.tick(now) {
            net.send(c_addr, s_addr, wire);
        }
        for wire in server.tick(now) {
            net.send(s_addr, c_addr, wire);
        }
        now += 1;
        net.advance_to(now);
        while let Some(dg) = net.recv(s_addr) {
            let _ = server.receive(now, &dg.payload);
        }
        while let Some(dg) = net.recv(c_addr) {
            let _ = client.receive(now, &dg.payload);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Convergence under i.i.d. loss up to 40% each way.
    #[test]
    fn converges_under_loss(
        loss in 0.0f64..0.4,
        seed in any::<u64>(),
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..12),
    ) {
        let link = LinkConfig { loss, delay_ms: 20, ..LinkConfig::lan() };
        let mut net = Network::new(link.clone(), link, seed);
        let c = Addr::new(1, 1000);
        let s = Addr::new(2, 60001);
        net.register(c, Side::Client);
        net.register(s, Side::Server);
        let (mut client, mut server) = endpoints();

        let final_state = BlobState(payloads.last().expect("non-empty").clone());
        let mut updates: Vec<(u64, BlobState)> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u64 * 50, BlobState(p.clone())))
            .collect();

        // Generous horizon: RTO is capped at 1 s, so even long loss runs
        // recover within seconds.
        run(&mut net, &mut client, &mut server, c, s, &mut updates, 60_000);
        prop_assert!(server.remote_state().equals(&final_state));
    }

    /// Convergence with heavy jitter (reordering) and moderate loss.
    #[test]
    fn converges_under_reordering(
        seed in any::<u64>(),
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..32), 1..10),
    ) {
        let link = LinkConfig { loss: 0.1, delay_ms: 10, jitter_ms: 80, ..LinkConfig::lan() };
        let mut net = Network::new(link.clone(), link, seed);
        let c = Addr::new(1, 1001);
        let s = Addr::new(2, 60002);
        net.register(c, Side::Client);
        net.register(s, Side::Server);
        let (mut client, mut server) = endpoints();

        let final_state = BlobState(payloads.last().expect("non-empty").clone());
        let mut updates: Vec<(u64, BlobState)> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u64 * 30, BlobState(p.clone())))
            .collect();

        run(&mut net, &mut client, &mut server, c, s, &mut updates, 60_000);
        prop_assert!(server.remote_state().equals(&final_state));
    }

    /// A total blackout heals: changes made while disconnected arrive once
    /// the path returns (intermittent connectivity, design goal 4).
    #[test]
    fn survives_blackout(seed in any::<u64>(), data in proptest::collection::vec(any::<u8>(), 1..64)) {
        // 100% loss for 5 s, then a clean link.
        let dead = LinkConfig { loss: 1.0, ..LinkConfig::lan() };
        let mut net = Network::new(dead.clone(), dead, seed);
        let c = Addr::new(1, 1002);
        let s = Addr::new(2, 60003);
        net.register(c, Side::Client);
        net.register(s, Side::Server);
        let (mut client, mut server) = endpoints();

        let target = BlobState(data.clone());
        let mut updates = vec![(0u64, target.clone())];
        run(&mut net, &mut client, &mut server, c, s, &mut updates, 5_000);
        prop_assert!(!server.remote_state().equals(&target), "nothing can arrive in blackout");

        // Lift the blackout by replacing the network (same addresses).
        let mut net2 = Network::new(LinkConfig::lan(), LinkConfig::lan(), seed);
        net2.register(c, Side::Client);
        net2.register(s, Side::Server);
        // Drive with empty updates; retransmission timers do the rest.
        let mut no_updates = Vec::new();
        let mut now = 5_000u64;
        net2.advance_to(now);
        let _ = &mut now;
        run(&mut net2, &mut client, &mut server, c, s, &mut no_updates, 12_000);
        prop_assert!(server.remote_state().equals(&target));
    }

    /// Wire-format fuzz: arbitrary bytes fed to `receive` never panic and
    /// never corrupt state.
    #[test]
    fn receive_is_total_on_garbage(garbage in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 0..50)) {
        let (mut client, mut server) = endpoints();
        client.set_current_state(BlobState(b"real".to_vec()), 0);
        for (i, g) in garbage.iter().enumerate() {
            let _ = server.receive(i as u64, g);
        }
        prop_assert_eq!(server.remote_state().0.clone(), Vec::<u8>::new());
        prop_assert_eq!(server.stats().datagrams_received, 0);
    }

    /// An endpoint rebuilt from its own snapshot bytes is the endpoint:
    /// after any history of updates, deliveries and losses (fragments of
    /// a large update dropped singly, so reassembly is often mid-way), the
    /// twin emits the same wires for the same future — chaff stream
    /// included — and re-encodes to the same bytes.
    #[test]
    fn snapshot_twin_is_byte_identical_going_forward(
        steps in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..1400), 1u64..150, any::<u32>()),
            1..12,
        ),
        fresh in proptest::collection::vec(any::<u8>(), 0..1400),
    ) {
        let (mut client, mut server) = endpoints();
        let mut now = 0u64;
        for (from_client, payload, advance, mut drops) in steps {
            let end = if from_client { &mut client } else { &mut server };
            end.set_current_state(BlobState(payload), now);
            for _ in 0..advance {
                for w in client.tick(now) {
                    drops = drops.rotate_left(1);
                    if drops & 1 == 0 {
                        let _ = server.receive(now, &w);
                    }
                }
                for w in server.tick(now) {
                    drops = drops.rotate_left(1);
                    if drops & 1 == 0 {
                        let _ = client.receive(now, &w);
                    }
                }
                now += 1;
            }
        }

        let twin_of = |t: &T, direction| {
            let mut bytes = Vec::new();
            t.encode_into(&mut bytes);
            let mut r = Reader::new(&bytes);
            let twin = T::decode(&mut r, direction).expect("a live endpoint decodes");
            assert_eq!(r.remaining(), 0);
            let mut again = Vec::new();
            twin.encode_into(&mut again);
            assert_eq!(again, bytes, "decode then encode is the identity");
            twin
        };
        let mut client_twin = twin_of(&client, Direction::ToServer);
        let mut server_twin = twin_of(&server, Direction::ToClient);

        for step in 0..50 {
            if step == 10 {
                client.set_current_state(BlobState(fresh.clone()), now);
                client_twin.set_current_state(BlobState(fresh.clone()), now);
            }
            let up = client.tick(now);
            prop_assert_eq!(&up, &client_twin.tick(now), "client wires at +{}", step);
            let down = server.tick(now);
            prop_assert_eq!(&down, &server_twin.tick(now), "server wires at +{}", step);
            for w in &up {
                prop_assert_eq!(server.receive(now, w), server_twin.receive(now, w));
            }
            for w in &down {
                prop_assert_eq!(client.receive(now, w), client_twin.receive(now, w));
            }
            now += 7; // 50 ticks span frame gates, delayed acks and an RTO
        }
        prop_assert_eq!(client.remote_state(), client_twin.remote_state());
        prop_assert_eq!(server.remote_state(), server_twin.remote_state());
    }

    /// Varint/bytes wire helpers round-trip arbitrary structures.
    #[test]
    fn wire_round_trips(vals in proptest::collection::vec(any::<u64>(), 0..20), blob in proptest::collection::vec(any::<u8>(), 0..500)) {
        let mut buf = Vec::new();
        for &v in &vals {
            put_varint(&mut buf, v);
        }
        put_bytes(&mut buf, &blob);
        let mut r = Reader::new(&buf);
        for &v in &vals {
            prop_assert_eq!(r.varint().unwrap(), v);
        }
        prop_assert_eq!(r.bytes().unwrap(), &blob[..]);
        prop_assert_eq!(r.remaining(), 0);
    }
}

/// Helper trait for clearer assertions.
trait Equals {
    fn equals(&self, other: &Self) -> bool;
}

impl Equals for BlobState {
    fn equals(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
