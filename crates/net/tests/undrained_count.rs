//! `Network` keeps its delivered datagrams in one queue, in delivery
//! order: `poll_any` pops its front and `recv(addr)` takes the first one
//! addressed to `addr`. This suite holds both calls to an oracle built
//! the other way: per-address mailboxes stamped with a global delivery
//! number, and `poll_any` as the minimum scan over their fronts (the
//! design `Network` used before), over 2 400 seeded op sequences.
//!
//! The reference runs a second `Network` from the same seed and links for
//! the link physics (loss, jitter, queueing), steps it one event time at a
//! time and empties every registered address after each step. Within one
//! instant the emulator delivers in send order (every send schedules its
//! arrival when it is made, and ties pop in scheduling order), so sorting
//! each instant's arrivals by the send index carried in their payload
//! rebuilds the global delivery order without reading the emulator's
//! queue.

use mosh_net::{Addr, Datagram, LinkConfig, Millis, Network, Side};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};

const CLIENTS: [Addr; 3] = [Addr::new(1, 1001), Addr::new(1, 1002), Addr::new(1, 1003)];
const SERVERS: [Addr; 3] = [Addr::new(2, 2001), Addr::new(2, 2002), Addr::new(2, 2003)];
/// Addresses a client roams to mid-run, registered one by one.
const ROAMED: [Addr; 3] = [Addr::new(7, 3001), Addr::new(8, 3002), Addr::new(9, 3003)];

const SEQUENCES: u64 = 2_400;
const OPS_PER_SEQUENCE: usize = 64;

/// Per-address mailboxes and a minimum scan: the order oracle.
struct Reference {
    net: Network,
    addrs: Vec<Addr>,
    mailboxes: HashMap<Addr, VecDeque<(u64, Datagram)>>,
    delivered: u64,
}

impl Reference {
    fn register(&mut self, addr: Addr, side: Side) {
        self.net.register(addr, side);
        self.addrs.push(addr);
    }

    fn advance_to(&mut self, t: Millis) {
        while let Some(at) = self.net.next_event_time().filter(|&at| at <= t) {
            self.net.advance_to(at);
            let mut arrived = Vec::new();
            for &addr in &self.addrs {
                while let Some(dg) = self.net.recv(addr) {
                    arrived.push((send_index(&dg), dg));
                }
            }
            arrived.sort_by_key(|&(index, _)| index);
            for (_, dg) in arrived {
                self.delivered += 1;
                self.mailboxes
                    .entry(dg.to)
                    .or_default()
                    .push_back((self.delivered, dg));
            }
        }
        self.net.advance_to(t);
    }

    fn recv(&mut self, addr: Addr) -> Option<Datagram> {
        self.mailboxes.get_mut(&addr)?.pop_front().map(|(_, dg)| dg)
    }

    fn poll_any(&mut self) -> Option<Datagram> {
        let addr = self
            .mailboxes
            .iter()
            .filter_map(|(addr, q)| q.front().map(|&(seq, _)| (seq, *addr)))
            .min()
            .map(|(_, addr)| addr)?;
        self.recv(addr)
    }

    fn holds_mail(&self) -> bool {
        self.mailboxes.values().any(|q| !q.is_empty())
    }
}

fn send_index(dg: &Datagram) -> u32 {
    u32::from_le_bytes(dg.payload[..4].try_into().expect("tagged payload"))
}

/// The link for sequence `n`: 29 % loss, 30 ms of jitter, or both.
fn link(n: u64) -> LinkConfig {
    let jittered = LinkConfig {
        jitter_ms: 30,
        ..LinkConfig::lan()
    };
    match n % 3 {
        0 => LinkConfig::netem_lossy(),
        1 => jittered,
        _ => LinkConfig {
            jitter_ms: 30,
            ..LinkConfig::netem_lossy()
        },
    }
}

/// Drives one seeded op sequence through `Network` and the reference,
/// checking every result against the reference's.
fn run_sequence(n: u64) {
    let mut ops = StdRng::seed_from_u64(n);
    let mut net = Network::new(link(n), link(n), n);
    let mut reference = Reference {
        net: Network::new(link(n), link(n), n),
        addrs: Vec::new(),
        mailboxes: HashMap::new(),
        delivered: 0,
    };
    for (addr, side) in CLIENTS
        .iter()
        .map(|&c| (c, Side::Client))
        .chain(SERVERS.iter().map(|&s| (s, Side::Server)))
    {
        net.register(addr, side);
        reference.register(addr, side);
    }
    let mut roamed = 0;
    let mut sent = 0u32;

    for step in 0..OPS_PER_SEQUENCE {
        let ctx = format!("sequence {n}, step {step}");
        let addrs = &reference.addrs;
        match ops.gen_range(0..100u32) {
            0..=4 if roamed < ROAMED.len() => {
                net.register(ROAMED[roamed], Side::Client);
                reference.register(ROAMED[roamed], Side::Client);
                roamed += 1;
            }
            0..=44 => {
                // A burst, to either side: same-side pairs are loopback.
                for _ in 0..ops.gen_range(1..=4usize) {
                    let from = addrs[ops.gen_range(0..addrs.len())];
                    let to = addrs[ops.gen_range(0..addrs.len())];
                    let payload = sent.to_le_bytes().to_vec();
                    sent += 1;
                    net.send(from, to, payload.clone());
                    reference.net.send(from, to, payload);
                }
            }
            45..=64 => {
                // Often 0 ms, so loopback sent at `now` lands at `now`.
                let t = net.now() + ops.gen_range(0..=40u64).saturating_sub(10);
                net.advance_to(t);
                reference.advance_to(t);
            }
            65..=84 => {
                let addr = addrs[ops.gen_range(0..addrs.len())];
                assert_eq!(net.recv(addr), reference.recv(addr), "recv, {ctx}");
            }
            _ => assert_eq!(net.poll_any(), reference.poll_any(), "poll_any, {ctx}"),
        }
        assert_eq!(net.now(), reference.net.now(), "clock, {ctx}");
        assert_eq!(
            net.next_event_time(),
            reference.net.next_event_time(),
            "{ctx}"
        );
        assert_eq!(net.stats(), reference.net.stats(), "stats, {ctx}");

        // `poll_any` finds nothing exactly when every mailbox is empty.
        let mail = reference.holds_mail();
        let got = net.poll_any();
        assert_eq!(got.is_some(), mail, "poll_any vs. mail held, {ctx}");
        assert_eq!(got, reference.poll_any(), "poll_any after the step, {ctx}");
    }
}

#[test]
fn poll_any_and_recv_agree_with_the_uncounted_reference() {
    for n in 0..SEQUENCES {
        run_sequence(n);
    }
}
