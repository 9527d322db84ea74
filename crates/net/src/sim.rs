//! The two-sided discrete-event network.
//!
//! [`Network`] joins a *client side* and a *server side* with one link per
//! direction. Any number of endpoints may live on each side (the LTE
//! experiment runs a bulk TCP download beside the terminal session, sharing
//! the same bottleneck queue). Packets experience droptail queueing,
//! serialization, propagation delay, jitter, and i.i.d. loss, then join
//! the one queue of delivered datagrams, in delivery order.

use crate::link::LinkConfig;
use crate::{Addr, Datagram, Millis};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Which side of the dumbbell an endpoint lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The mobile client's side.
    Client,
    /// The remote server's side (shell host, bulk-download server, ...).
    Server,
}

/// Counters for one direction of the path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets handed to the link.
    pub offered: u64,
    /// Packets delivered to an endpoint on the side this direction
    /// reaches (same-side loopback included).
    pub delivered: u64,
    /// Packets dropped by random loss.
    pub dropped_loss: u64,
    /// Packets dropped because the buffer was full.
    pub dropped_queue: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
    /// Sum of per-packet one-way latencies, for mean queueing inspection.
    pub total_latency_ms: u64,
}

/// Statistics for both directions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Client-to-server direction.
    pub up: LinkStats,
    /// Server-to-client direction.
    pub down: LinkStats,
}

#[derive(Debug)]
struct LinkState {
    config: LinkConfig,
    /// Bytes currently occupying the buffer (queued, not yet departed).
    queued_bytes: usize,
    /// Time the transmitter finishes its current packet.
    busy_until: Millis,
}

#[derive(Debug)]
enum Event {
    /// Packet leaves the buffer (frees its bytes) at this time.
    Depart { dir: usize, size: usize },
    /// Packet reaches its destination, counted on link `dir`'s stats.
    Arrive {
        dg: Datagram,
        sent_at: Millis,
        dir: usize,
    },
}

/// Heap entry ordered by `(time, insertion sequence)` only; the event
/// payload does not participate in ordering.
#[derive(Debug)]
struct Scheduled {
    at: Millis,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The emulated network. See the crate docs for an example.
#[derive(Debug)]
pub struct Network {
    links: [LinkState; 2], // [0] = up (client->server), [1] = down
    sides: HashMap<Addr, Side>,
    /// Delivered datagrams no one has taken yet, for every endpoint, in
    /// delivery order.
    delivered: VecDeque<Datagram>,
    events: BinaryHeap<Reverse<Scheduled>>,
    event_seq: u64,
    now: Millis,
    rng: StdRng,
    stats: NetworkStats,
}

impl Network {
    /// Creates a network from per-direction link configurations and a seed.
    pub fn new(up: LinkConfig, down: LinkConfig, seed: u64) -> Self {
        Network {
            links: [
                LinkState {
                    config: up,
                    queued_bytes: 0,
                    busy_until: 0,
                },
                LinkState {
                    config: down,
                    queued_bytes: 0,
                    busy_until: 0,
                },
            ],
            sides: HashMap::new(),
            delivered: VecDeque::new(),
            events: BinaryHeap::new(),
            event_seq: 0,
            now: 0,
            rng: StdRng::seed_from_u64(seed),
            stats: NetworkStats::default(),
        }
    }

    /// Registers an endpoint on a side. Roaming clients register each new
    /// address they use; old ones may stay registered.
    pub fn register(&mut self, addr: Addr, side: Side) {
        self.sides.insert(addr, side);
    }

    /// Current virtual time.
    pub fn now(&self) -> Millis {
        self.now
    }

    /// Traffic counters.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Bytes currently sitting in the queue of the given direction's link
    /// (0 = up, 1 = down). Exposed for bufferbloat assertions in tests.
    pub fn queue_depth(&self, dir: usize) -> usize {
        self.links[dir].queued_bytes
    }

    /// Sends a datagram at the current time.
    ///
    /// # Panics
    ///
    /// Panics if either address was never registered (indicating a harness
    /// bug, not a runtime condition).
    pub fn send(&mut self, from: Addr, to: Addr, payload: Vec<u8>) {
        let from_side = *self.sides.get(&from).expect("sender not registered");
        let to_side = *self.sides.get(&to).expect("receiver not registered");
        let dg = Datagram { from, to, payload };
        // The link toward the destination's side: the one a cross-side
        // packet crosses, and the one whose stats count its delivery.
        let dir = match to_side {
            Side::Server => 0,
            Side::Client => 1,
        };
        let sent_at = self.now;

        if from_side == to_side {
            // Same-side traffic short-circuits (loopback) with 0 delay.
            self.schedule(self.now, Event::Arrive { dg, sent_at, dir });
            return;
        }
        self.link_stats(dir).offered += 1;

        // I.i.d. loss applies at ingress (as netem does).
        let loss = self.links[dir].config.loss;
        if loss > 0.0 && self.rng.gen::<f64>() < loss {
            self.link_stats(dir).dropped_loss += 1;
            return;
        }

        let size = dg.payload.len() + self.links[dir].config.per_packet_overhead;
        if self.links[dir].queued_bytes.saturating_add(size) > self.links[dir].config.queue_bytes {
            self.link_stats(dir).dropped_queue += 1;
            return;
        }

        self.links[dir].queued_bytes += size;
        let ser = self.links[dir].config.serialization_ms(dg.payload.len());
        let depart = self.links[dir].busy_until.max(self.now) + ser;
        self.links[dir].busy_until = depart;

        let jitter = if self.links[dir].config.jitter_ms > 0 {
            self.rng.gen_range(0..=self.links[dir].config.jitter_ms)
        } else {
            0
        };
        let arrive = depart + self.links[dir].config.delay_ms + jitter;

        self.schedule(depart, Event::Depart { dir, size });
        self.schedule(arrive, Event::Arrive { dg, sent_at, dir });
    }

    /// The counters of link `dir` (0 = up, 1 = down).
    fn link_stats(&mut self, dir: usize) -> &mut LinkStats {
        if dir == 0 {
            &mut self.stats.up
        } else {
            &mut self.stats.down
        }
    }

    fn schedule(&mut self, at: Millis, event: Event) {
        self.event_seq += 1;
        self.events.push(Reverse(Scheduled {
            at,
            seq: self.event_seq,
            event,
        }));
    }

    /// Advances virtual time to `t`, processing every event up to and
    /// including it. Time never moves backwards.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than [`Network::now`].
    pub fn advance_to(&mut self, t: Millis) {
        assert!(t >= self.now, "time must be monotonic");
        while let Some(Reverse(entry)) = self.events.peek() {
            if entry.at > t {
                break;
            }
            let Reverse(Scheduled { at, event, .. }) = self.events.pop().expect("peeked");
            self.now = at;
            match event {
                Event::Depart { dir, size } => {
                    self.links[dir].queued_bytes -= size;
                }
                Event::Arrive { dg, sent_at, dir } => {
                    let dir_stats = self.link_stats(dir);
                    dir_stats.delivered += 1;
                    dir_stats.bytes_delivered += dg.payload.len() as u64;
                    // Saturating for the linter's benefit: arrivals are
                    // scheduled at send time + latency, so `at >=
                    // sent_at` always holds.
                    dir_stats.total_latency_ms += at.saturating_sub(sent_at);
                    self.delivered.push_back(dg);
                }
            }
        }
        self.now = t;
    }

    /// Time of the next pending event, if any (for event-driven stepping).
    pub fn next_event_time(&self) -> Option<Millis> {
        self.events.peek().map(|Reverse(entry)| entry.at)
    }

    /// Takes the next delivered datagram for an endpoint, if any: the
    /// first in delivery order addressed to `addr`.
    pub fn recv(&mut self, addr: Addr) -> Option<Datagram> {
        let i = self.delivered.iter().position(|dg| dg.to == addr)?;
        self.delivered.remove(i)
    }

    /// Takes the next delivered datagram for *any* endpoint, in strict
    /// delivery order across endpoints; its receiving address is
    /// [`Datagram::to`]. Event-driven drivers use this instead of polling
    /// [`Network::recv`] once per registered address per step. O(1).
    pub fn poll_any(&mut self) -> Option<Datagram> {
        self.delivered.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Addr, Addr) {
        (Addr::new(1, 1000), Addr::new(2, 60001))
    }

    fn basic(up: LinkConfig, down: LinkConfig) -> (Network, Addr, Addr) {
        let mut net = Network::new(up, down, 42);
        let (c, s) = pair();
        net.register(c, Side::Client);
        net.register(s, Side::Server);
        (net, c, s)
    }

    #[test]
    fn delivers_with_propagation_delay() {
        let (mut net, c, s) = basic(LinkConfig::lan(), LinkConfig::lan());
        net.send(c, s, b"x".to_vec());
        net.advance_to(0);
        assert!(net.recv(s).is_none());
        net.advance_to(1);
        assert!(net.recv(s).is_some());
    }

    #[test]
    fn preserves_order_without_jitter() {
        let (mut net, c, s) = basic(LinkConfig::lan(), LinkConfig::lan());
        for i in 0..10u8 {
            net.send(c, s, vec![i]);
        }
        net.advance_to(5);
        for i in 0..10u8 {
            assert_eq!(net.recv(s).unwrap().payload, vec![i]);
        }
    }

    #[test]
    fn loss_drops_roughly_the_configured_fraction() {
        let lossy = LinkConfig {
            loss: 0.29,
            ..LinkConfig::lan()
        };
        let (mut net, c, s) = basic(lossy, LinkConfig::lan());
        for _ in 0..10_000 {
            net.send(c, s, b"p".to_vec());
        }
        net.advance_to(100);
        let got = net.stats().up.delivered;
        let expected = 10_000.0 * 0.71;
        assert!(
            (got as f64 - expected).abs() < 300.0,
            "delivered {got}, expected ≈{expected}"
        );
    }

    #[test]
    fn rate_limit_serializes_packets() {
        // 1 byte/ms, 1 ms propagation: the 3rd 100-byte packet (no
        // overhead) departs at 300 ms.
        let slow = LinkConfig {
            rate_bytes_per_ms: Some(1),
            per_packet_overhead: 0,
            delay_ms: 1,
            ..LinkConfig::lan()
        };
        let (mut net, c, s) = basic(slow, LinkConfig::lan());
        for _ in 0..3 {
            net.send(c, s, vec![0u8; 100]);
        }
        net.advance_to(300);
        assert_eq!(net.stats().up.delivered, 2);
        net.advance_to(301);
        assert_eq!(net.stats().up.delivered, 3);
    }

    #[test]
    fn droptail_queue_drops_overflow() {
        let tiny = LinkConfig {
            rate_bytes_per_ms: Some(1),
            per_packet_overhead: 0,
            queue_bytes: 250,
            ..LinkConfig::lan()
        };
        let (mut net, c, s) = basic(tiny, LinkConfig::lan());
        for _ in 0..5 {
            net.send(c, s, vec![0u8; 100]); // only 2 fit in 250 bytes
        }
        assert_eq!(net.stats().up.dropped_queue, 3);
        net.advance_to(10_000);
        assert_eq!(net.stats().up.delivered, 2);
    }

    #[test]
    fn queue_drains_over_time() {
        let cfg = LinkConfig {
            rate_bytes_per_ms: Some(100),
            per_packet_overhead: 0,
            queue_bytes: 10_000,
            ..LinkConfig::lan()
        };
        let (mut net, c, s) = basic(cfg, LinkConfig::lan());
        for _ in 0..10 {
            net.send(c, s, vec![0u8; 1000]);
        }
        assert_eq!(net.queue_depth(0), 10_000);
        net.advance_to(50);
        assert_eq!(net.queue_depth(0), 5_000);
        net.advance_to(100);
        assert_eq!(net.queue_depth(0), 0);
    }

    #[test]
    fn bufferbloat_latency_grows_with_queue() {
        // Fill a deep buffer, then measure the latency of a late packet.
        let cfg = LinkConfig {
            rate_bytes_per_ms: Some(100),
            per_packet_overhead: 0,
            queue_bytes: 1_000_000,
            delay_ms: 10,
            ..LinkConfig::lan()
        };
        let (mut net, c, s) = basic(cfg, LinkConfig::lan());
        net.send(c, s, vec![0u8; 500_000]); // 5 s of queue
        net.send(c, s, vec![1u8; 10]);
        net.advance_to(20_000);
        // Second packet waited behind the first: ≈5000 ms + delay.
        let mean = net.stats().up.total_latency_ms;
        assert!(mean >= 5000 + 5000 + 10, "latencies: {mean}");
    }

    #[test]
    fn roaming_address_change_reaches_server() {
        let (mut net, c, s) = basic(LinkConfig::lan(), LinkConfig::lan());
        let c2 = Addr::new(99, 4242);
        net.register(c2, Side::Client);
        net.send(c, s, b"from old".to_vec());
        net.send(c2, s, b"from new".to_vec());
        net.advance_to(10);
        assert_eq!(net.recv(s).unwrap().from, c);
        let dg = net.recv(s).unwrap();
        assert_eq!(dg.from, c2);
        assert_eq!(dg.payload, b"from new");
    }

    #[test]
    fn reply_goes_to_datagram_source() {
        let (mut net, c, s) = basic(LinkConfig::lan(), LinkConfig::lan());
        net.send(c, s, b"ping".to_vec());
        net.advance_to(5);
        let dg = net.recv(s).unwrap();
        net.send(s, dg.from, b"pong".to_vec());
        net.advance_to(10);
        assert_eq!(net.recv(c).unwrap().payload, b"pong");
    }

    #[test]
    fn same_side_traffic_is_loopback() {
        let (mut net, c, _s) = basic(LinkConfig::netem_lossy(), LinkConfig::netem_lossy());
        let c2 = Addr::new(1, 2000);
        net.register(c2, Side::Client);
        net.send(c, c2, b"local".to_vec());
        net.advance_to(0);
        assert_eq!(net.recv(c2).unwrap().payload, b"local");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut net = Network::new(LinkConfig::netem_lossy(), LinkConfig::netem_lossy(), seed);
            let (c, s) = pair();
            net.register(c, Side::Client);
            net.register(s, Side::Server);
            for i in 0..100u8 {
                net.send(c, s, vec![i]);
            }
            net.advance_to(1000);
            let mut got = Vec::new();
            while let Some(dg) = net.recv(s) {
                got.push(dg.payload[0]);
            }
            got
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8)); // loss pattern differs by seed
    }

    #[test]
    #[should_panic(expected = "time must be monotonic")]
    fn advance_to_refuses_to_move_time_backwards() {
        let (mut net, _, _) = basic(LinkConfig::lan(), LinkConfig::lan());
        net.advance_to(10);
        net.advance_to(9);
    }

    #[test]
    fn next_event_time_supports_event_stepping() {
        let (mut net, c, s) = basic(LinkConfig::singapore(), LinkConfig::singapore());
        assert_eq!(net.next_event_time(), None);
        net.send(c, s, b"x".to_vec());
        // Step event-to-event (the first event is the queue departure);
        // the datagram arrives no earlier than the propagation delay.
        while net.recv(s).is_none() {
            let t = net.next_event_time().expect("arrival pending");
            net.advance_to(t);
        }
        assert!(net.now() >= 136);
    }

    #[test]
    fn poll_any_yields_delivery_order_across_endpoints() {
        let (mut net, c, s) = basic(LinkConfig::lan(), LinkConfig::lan());
        let c2 = Addr::new(1, 2000);
        net.register(c2, Side::Client);
        net.send(c, s, b"to server".to_vec());
        net.send(s, c, b"to client".to_vec());
        net.send(s, c2, b"to c2".to_vec());
        net.advance_to(10);
        let d1 = net.poll_any().expect("first");
        let d2 = net.poll_any().expect("second");
        let d3 = net.poll_any().expect("third");
        assert_eq!((d1.to, d1.payload.as_slice()), (s, b"to server".as_ref()));
        assert_eq!((d2.to, d2.payload.as_slice()), (c, b"to client".as_ref()));
        assert_eq!((d3.to, d3.payload.as_slice()), (c2, b"to c2".as_ref()));
        assert!(net.poll_any().is_none());
    }

    #[test]
    fn recv_interleaves_with_poll_any_per_destination_fifo() {
        let (mut net, c, s) = basic(LinkConfig::lan(), LinkConfig::lan());
        for i in 0..4u8 {
            net.send(c, s, vec![i]);
        }
        net.advance_to(10);
        assert_eq!(net.recv(s).unwrap().payload, vec![0]);
        assert_eq!(net.poll_any().unwrap().payload, vec![1]);
        assert_eq!(net.recv(s).unwrap().payload, vec![2]);
        assert_eq!(net.poll_any().unwrap().payload, vec![3]);
    }

    #[test]
    fn jitter_stays_within_bound() {
        let cfg = LinkConfig {
            jitter_ms: 50,
            ..LinkConfig::lan()
        };
        let (mut net, c, s) = basic(cfg, LinkConfig::lan());
        for _ in 0..200 {
            net.send(c, s, b"j".to_vec());
        }
        net.advance_to(100);
        let stats = net.stats().up;
        assert_eq!(stats.delivered, 200);
        // Every latency is within [1, 51].
        assert!(stats.total_latency_ms <= 51 * 200);
        assert!(stats.total_latency_ms >= 200);
    }
}
