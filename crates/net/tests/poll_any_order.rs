//! `Network::poll_any` ordering contract, locked in.
//!
//! Event-driven drivers (`SessionLoop`, `ServerHub`) drain deliveries
//! with `poll_any` instead of scanning one mailbox per endpoint, and the
//! schedule-identity guarantees lean on its contract: datagrams come out
//! in **strict global delivery order** across all endpoints — even when
//! several arrive at the same virtual instant for different endpoints —
//! and interleaving per-address `recv` calls never perturbs it. These
//! tests pin that contract so an emulator refactor cannot silently relax
//! it into "per-endpoint FIFO only".

use mosh_net::{Addr, LinkConfig, Network, Side};

const CLIENTS: [Addr; 3] = [Addr::new(1, 1001), Addr::new(1, 1002), Addr::new(1, 1003)];
const SERVERS: [Addr; 3] = [Addr::new(2, 2001), Addr::new(2, 2002), Addr::new(2, 2003)];

fn mesh(seed: u64, link: LinkConfig) -> Network {
    let mut net = Network::new(link.clone(), link, seed);
    for c in CLIENTS {
        net.register(c, Side::Client);
    }
    for s in SERVERS {
        net.register(s, Side::Server);
    }
    net
}

/// Same-instant deliveries to *different* endpoints surface in the exact
/// order the sends entered the network, not grouped by endpoint.
#[test]
fn simultaneous_cross_endpoint_deliveries_keep_send_order() {
    // A LAN link with no jitter: every packet sent at t arrives at t+1,
    // so all nine arrivals below share one arrival instant per burst.
    let mut net = mesh(7, LinkConfig::lan());
    let mut expected = Vec::new();
    for round in 0..3u8 {
        for (i, (&c, &s)) in CLIENTS.iter().zip(SERVERS.iter()).enumerate() {
            // Interleave directions so client- and server-side endpoints
            // both participate in every burst.
            if round % 2 == 0 {
                net.send(c, s, vec![round, i as u8]);
                expected.push((s, vec![round, i as u8]));
            } else {
                net.send(s, c, vec![round, i as u8]);
                expected.push((c, vec![round, i as u8]));
            }
        }
    }
    net.advance_to(10);
    let mut got = Vec::new();
    while let Some(dg) = net.poll_any() {
        got.push((dg.to, dg.payload));
    }
    assert_eq!(got, expected, "strict global delivery order");
}

/// No endpoint can starve another: traffic nobody drains does not stall
/// `poll_any` for other endpoints, and draining one endpoint via `recv`
/// leaves the global order of the rest intact.
#[test]
fn fairness_under_a_flooding_endpoint() {
    let mut net = mesh(11, LinkConfig::lan());
    // Endpoint SERVERS[0] is flooded; SERVERS[1] gets one datagram after
    // the flood is already queued.
    for i in 0..50u8 {
        net.send(CLIENTS[0], SERVERS[0], vec![i]);
    }
    net.send(CLIENTS[1], SERVERS[1], b"urgent".to_vec());
    net.advance_to(10);

    // Drain the flood out-of-band via recv; poll_any must then yield the
    // other endpoint's datagram immediately (delivery order minus what
    // recv already consumed).
    for _ in 0..50 {
        assert!(net.recv(SERVERS[0]).is_some());
    }
    let dg = net.poll_any().expect("the non-flooded endpoint's turn");
    assert_eq!(dg.to, SERVERS[1]);
    assert_eq!(dg.payload, b"urgent");
    assert!(net.poll_any().is_none());
}

/// Under jitter, two packets can arrive at the same instant on different
/// endpoints; the tie must break by scheduling order, deterministically
/// across runs.
#[test]
fn jittered_ties_are_deterministic() {
    let run = |seed: u64| {
        let link = LinkConfig {
            jitter_ms: 30,
            ..LinkConfig::lan()
        };
        let mut net = mesh(seed, link);
        for i in 0..60u8 {
            let k = (i % 3) as usize;
            net.send(CLIENTS[k], SERVERS[k], vec![i]);
            net.send(SERVERS[(k + 1) % 3], CLIENTS[(k + 1) % 3], vec![0x80 | i]);
        }
        net.advance_to(100);
        let mut order = Vec::new();
        while let Some(dg) = net.poll_any() {
            order.push((dg.to, dg.payload[0]));
        }
        assert_eq!(order.len(), 120, "no jittered packet lost on a LAN");
        order
    };
    assert_eq!(run(42), run(42), "identical seeds, identical order");
    assert_ne!(run(42), run(43), "jitter actually reordered something");
}
