//! A simplified TCP, faithful where it matters to the paper's comparison.
//!
//! SSH's failure modes on mobile networks come from TCP's loss recovery
//! and in-order delivery, not from its handshake or header format. This
//! crate implements exactly the machinery the paper's evaluation exercises
//! (§4, footnote 3 — "Linux 2.6.32 default TCP"):
//!
//! * RFC 6298 retransmission timers with the standard **1 second minimum
//!   RTO** and **exponential backoff** — the source of SSH's 16.8 s mean
//!   latency under 50% round-trip loss, versus SSP's 50 ms floor.
//! * Slow start and AIMD congestion avoidance, so a bulk transfer fills a
//!   deep droptail buffer and *keeps* it full (the LTE "bufferbloat"
//!   experiment).
//! * Fast retransmit on three duplicate ACKs (rarely reachable for
//!   keystroke-sized flows — which is precisely the paper's point).
//! * Strict in-order delivery: one lost segment stalls everything behind
//!   it (head-of-line blocking), unlike SSP's skip-ahead diffs.
//!
//! Connections are modelled as pre-established (no SYN/FIN): the paper's
//! sessions are long-lived and the handshake is irrelevant to keystroke
//! latency.

use mosh_net::{Addr, Millis};
use std::collections::BTreeMap;

/// Maximum segment size (payload bytes per segment).
pub const MSS: usize = 1400;
/// RFC 6298 minimum retransmission timeout: one second.
pub const MIN_RTO: Millis = 1000;
/// Maximum retransmission timeout (Linux's TCP_RTO_MAX is 120 s).
pub const MAX_RTO: Millis = 120_000;
/// Initial congestion window (RFC 6928-ish, in segments).
pub const INIT_CWND_SEGMENTS: usize = 4;
/// Duplicate-ACK threshold for fast retransmit.
pub const DUPACK_THRESHOLD: u32 = 3;

/// One direction of a TCP connection (sender + receiver state for the
/// bytes flowing each way live in each endpoint).
#[derive(Debug)]
pub struct TcpEndpoint {
    addr: Addr,
    peer: Addr,

    // --- Send side ---
    /// Bytes accepted from the application. `send_buf[send_head..]` holds
    /// sequence numbers from `snd_una`; the consumed prefix is compacted
    /// lazily so transmission stays O(segment), not O(backlog).
    send_buf: Vec<u8>,
    send_head: usize,
    /// Oldest unacknowledged sequence number.
    snd_una: u64,
    /// Next sequence number to transmit.
    snd_nxt: u64,
    /// Congestion window in bytes.
    cwnd: f64,
    /// Slow-start threshold in bytes.
    ssthresh: f64,
    /// Smoothed RTT (RFC 6298); `None` before the first sample.
    srtt: Option<f64>,
    rttvar: f64,
    /// Current (possibly backed-off) RTO.
    rto: Millis,
    /// Exponential backoff count since the last good ACK.
    backoff: u32,
    /// Deadline of the running retransmission timer.
    rto_deadline: Option<Millis>,
    /// First-transmission time of `snd_una`'s segment (Karn's algorithm:
    /// cleared on retransmission so no sample is taken).
    una_sent_at: Option<Millis>,
    dup_acks: u32,
    /// Set when loss recovery should retransmit immediately.
    retransmit_now: bool,
    /// Karn's algorithm: no RTT samples until the ack passes this point
    /// (everything below it may have been retransmitted).
    recovery_point: Option<u64>,

    // --- Receive side ---
    /// Next expected sequence number.
    rcv_nxt: u64,
    /// Out-of-order segments waiting for the gap to fill.
    reorder: BTreeMap<u64, Vec<u8>>,
    /// In-order bytes ready for the application.
    deliverable: Vec<u8>,
    /// ACKs owed to the peer (real TCP acks every out-of-order segment
    /// immediately — duplicate ACKs are the fast-retransmit signal).
    acks_owed: u32,

    stats: TcpStats,
}

/// Counters for the evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Retransmissions (timer or fast).
    pub retransmissions: u64,
    /// Timer expirations (each doubles the RTO).
    pub timeouts: u64,
    /// Bytes delivered to the application in order.
    pub bytes_delivered: u64,
}

/// Wire format: `seq(8) ‖ ack(8) ‖ payload`.
fn encode_segment(seq: u64, ack: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&ack.to_be_bytes());
    out.extend_from_slice(payload);
    out
}

fn decode_segment(wire: &[u8]) -> Option<(u64, u64, &[u8])> {
    if wire.len() < 16 {
        return None;
    }
    let seq = u64::from_be_bytes(wire[..8].try_into().ok()?);
    let ack = u64::from_be_bytes(wire[8..16].try_into().ok()?);
    Some((seq, ack, &wire[16..]))
}

impl TcpEndpoint {
    /// Creates one endpoint of an established connection.
    pub fn new(addr: Addr, peer: Addr) -> Self {
        TcpEndpoint {
            addr,
            peer,
            send_buf: Vec::new(),
            send_head: 0,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: (INIT_CWND_SEGMENTS * MSS) as f64,
            ssthresh: 64.0 * 1024.0 * 16.0,
            srtt: None,
            rttvar: 0.0,
            rto: MIN_RTO,
            backoff: 0,
            rto_deadline: None,
            una_sent_at: None,
            dup_acks: 0,
            retransmit_now: false,
            recovery_point: None,
            rcv_nxt: 0,
            reorder: BTreeMap::new(),
            deliverable: Vec::new(),
            acks_owed: 0,
            stats: TcpStats::default(),
        }
    }

    /// This endpoint's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Evaluation counters.
    pub fn stats(&self) -> &TcpStats {
        &self.stats
    }

    /// Bytes queued but not yet acknowledged (send-side backlog).
    pub fn backlog(&self) -> usize {
        self.send_buf.len() - self.send_head
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> usize {
        self.cwnd as usize
    }

    /// Queues application bytes for transmission.
    pub fn write(&mut self, bytes: &[u8]) {
        self.send_buf.extend_from_slice(bytes);
    }

    /// Unacknowledged-and-unsent bytes starting at absolute sequence `seq`.
    fn send_slice(&self, seq: u64, len: usize) -> &[u8] {
        let off = self.send_head + (seq - self.snd_una) as usize;
        let end = (off + len).min(self.send_buf.len());
        &self.send_buf[off.min(end)..end]
    }

    /// Takes bytes delivered in order to the application.
    pub fn read(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.deliverable)
    }

    /// Cumulative in-order bytes received since the connection opened.
    pub fn bytes_received(&self) -> u64 {
        self.rcv_nxt
    }

    fn effective_rto(&self) -> Millis {
        (self.rto << self.backoff.min(16)).clamp(MIN_RTO, MAX_RTO)
    }

    fn update_rtt(&mut self, sample_ms: f64) {
        match self.srtt {
            None => {
                self.srtt = Some(sample_ms);
                self.rttvar = sample_ms / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - sample_ms).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * sample_ms);
            }
        }
        let rto = self.srtt.expect("just set") + (4.0 * self.rttvar).max(1.0);
        self.rto = (rto.ceil() as Millis).clamp(MIN_RTO, MAX_RTO);
    }

    /// Processes one incoming segment at `now`.
    pub fn receive(&mut self, now: Millis, wire: &[u8]) {
        let Some((seq, ack, payload)) = decode_segment(wire) else {
            return;
        };

        // --- ACK processing (send side) ---
        if ack > self.snd_una {
            let acked = (ack - self.snd_una) as usize;
            // RTT sample only for never-retransmitted data (Karn).
            if let Some(sent_at) = self.una_sent_at.take() {
                if self.recovery_point.is_none() {
                    self.update_rtt(now.saturating_sub(sent_at) as f64);
                }
            }
            if let Some(rp) = self.recovery_point {
                if ack >= rp {
                    self.recovery_point = None;
                } else {
                    // NewReno partial ack: the next hole is retransmitted
                    // immediately, keeping recovery moving without SACK.
                    self.retransmit_now = true;
                }
            }
            self.snd_una = ack;
            // A late ACK from a pre-timeout flight can pass a rewound
            // snd_nxt (go-back-N); sequence space never moves backwards.
            self.snd_nxt = self.snd_nxt.max(ack);
            self.send_head = (self.send_head + acked).min(self.send_buf.len());
            // Compact the consumed prefix occasionally.
            if self.send_head > 1 << 20 {
                self.send_buf.drain(..self.send_head);
                self.send_head = 0;
            }
            self.dup_acks = 0;
            self.backoff = 0;
            // Congestion control. Congestion avoidance grows several
            // segments per RTT rather than one — a coarse stand-in for
            // CUBIC's fast window regrowth on high-BDP paths (the paper's
            // baseline is Linux's default cubic, §4 footnote 3).
            if self.cwnd < self.ssthresh {
                self.cwnd += acked as f64; // Slow start.
            } else {
                self.cwnd += 8.0 * (MSS * MSS) as f64 / self.cwnd * (acked as f64 / MSS as f64);
            }
            self.rto_deadline = if self.snd_una == self.snd_nxt {
                None
            } else {
                Some(now + self.effective_rto())
            };
        } else if ack == self.snd_una && self.snd_nxt > self.snd_una && payload.is_empty() {
            self.dup_acks += 1;
            if self.dup_acks == DUPACK_THRESHOLD && self.recovery_point.is_none() {
                // Fast retransmit + multiplicative decrease — at most once
                // per recovery episode (NewReno), or the window collapses
                // under the duplicate-ack storm of a single loss burst.
                let flight = (self.snd_nxt - self.snd_una) as f64;
                self.ssthresh = (flight / 2.0).max((2 * MSS) as f64);
                self.cwnd = self.ssthresh + (3 * MSS) as f64;
                self.retransmit_now = true;
            }
        }

        // --- Data processing (receive side) ---
        if !payload.is_empty() {
            self.acks_owed += 1;
            if seq <= self.rcv_nxt {
                let overlap = (self.rcv_nxt - seq) as usize;
                if overlap < payload.len() {
                    let fresh = &payload[overlap..];
                    self.deliverable.extend_from_slice(fresh);
                    self.rcv_nxt += fresh.len() as u64;
                    self.stats.bytes_delivered += fresh.len() as u64;
                }
            } else {
                self.reorder.insert(seq, payload.to_vec());
            }
            // Drain whatever became contiguous.
            while let Some((&seq, _)) = self.reorder.range(..=self.rcv_nxt).next_back() {
                let data = self.reorder.remove(&seq).expect("keyed");
                let overlap = (self.rcv_nxt - seq) as usize;
                if overlap < data.len() {
                    let fresh = &data[overlap..];
                    self.deliverable.extend_from_slice(fresh);
                    self.rcv_nxt += fresh.len() as u64;
                    self.stats.bytes_delivered += fresh.len() as u64;
                }
            }
        }
    }

    /// Runs timers and transmits; returns `(to, wire)` datagrams.
    pub fn tick(&mut self, now: Millis) -> Vec<(Addr, Vec<u8>)> {
        let mut out = Vec::new();

        // Retransmission timer.
        if let Some(deadline) = self.rto_deadline {
            if now >= deadline && self.snd_nxt > self.snd_una {
                self.stats.timeouts += 1;
                self.backoff += 1;
                // Loss: collapse to one segment (RFC 5681) and go-back-N —
                // without SACK, everything outstanding is resent as the
                // window reopens (how deep buffers stay full in practice).
                let flight = (self.snd_nxt - self.snd_una) as f64;
                self.ssthresh = (flight / 2.0).max((2 * MSS) as f64);
                self.cwnd = MSS as f64;
                self.recovery_point = Some(self.snd_nxt);
                self.snd_nxt = self.snd_una;
                self.stats.retransmissions += 1;
                self.rto_deadline = Some(now + self.effective_rto());
            }
        }

        if self.retransmit_now && self.snd_nxt > self.snd_una {
            self.retransmit_now = false;
            self.una_sent_at = None; // Karn: no sample from retransmits.
            self.recovery_point = Some(self.recovery_point.unwrap_or(0).max(self.snd_nxt));
            let len = ((self.snd_nxt - self.snd_una) as usize)
                .min(MSS)
                .min(self.backlog());
            let payload: Vec<u8> = self.send_slice(self.snd_una, len).to_vec();
            self.stats.segments_sent += 1;
            self.stats.retransmissions += 1;
            self.acks_owed = 0;
            out.push((
                self.peer,
                encode_segment(self.snd_una, self.rcv_nxt, &payload),
            ));
        }

        // New data within the congestion window.
        loop {
            let in_flight = (self.snd_nxt - self.snd_una) as usize;
            let window = self.cwnd as usize;
            let available = self.backlog().saturating_sub(in_flight);
            if available == 0 || in_flight >= window {
                break;
            }
            let len = available.min(MSS).min(window - in_flight);
            let payload: Vec<u8> = self.send_slice(self.snd_nxt, len).to_vec();
            if self.snd_una == self.snd_nxt {
                self.una_sent_at = Some(now);
            }
            let seq = self.snd_nxt;
            self.snd_nxt += len as u64;
            if self.rto_deadline.is_none() {
                self.rto_deadline = Some(now + self.effective_rto());
            }
            self.stats.segments_sent += 1;
            self.acks_owed = 0;
            out.push((self.peer, encode_segment(seq, self.rcv_nxt, &payload)));
        }

        // Bare ACKs for data that got no piggyback (one per segment, so
        // duplicate ACKs reach the sender's fast-retransmit threshold).
        while self.acks_owed > 0 {
            self.acks_owed -= 1;
            out.push((self.peer, encode_segment(self.snd_nxt, self.rcv_nxt, &[])));
        }
        out
    }

    /// The earliest time `tick` needs to run again: now, when `tick`
    /// would transmit (an owed ack, a pending fast retransmit, or new
    /// data the congestion window admits); else the retransmission
    /// timer, under a 200 ms housekeeping floor. Each condition is the
    /// one `tick` itself tests, so a window-limited sender sleeps until
    /// an ack or its timer instead of being re-woken every millisecond
    /// to find the window still shut.
    pub fn next_wakeup(&self, now: Millis) -> Millis {
        let in_flight = (self.snd_nxt - self.snd_una) as usize;
        let mut next = now + 200;
        if let Some(d) = self.rto_deadline.filter(|_| in_flight > 0) {
            next = next.min(d);
        }
        let can_retransmit = self.retransmit_now && in_flight > 0;
        let can_send = self.backlog() > in_flight && in_flight < self.cwnd as usize;
        if self.acks_owed > 0 || can_retransmit || can_send {
            next = now;
        }
        next.max(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosh_net::{LinkConfig, Network, Side};

    fn pair(net: &mut Network) -> (TcpEndpoint, TcpEndpoint) {
        let c = Addr::new(1, 5000);
        let s = Addr::new(2, 22);
        net.register(c, Side::Client);
        net.register(s, Side::Server);
        (TcpEndpoint::new(c, s), TcpEndpoint::new(s, c))
    }

    fn run(net: &mut Network, a: &mut TcpEndpoint, b: &mut TcpEndpoint, until: Millis) {
        let mut now = net.now();
        while now < until {
            for (to, w) in a.tick(now) {
                net.send(a.addr(), to, w);
            }
            for (to, w) in b.tick(now) {
                net.send(b.addr(), to, w);
            }
            now += 1;
            net.advance_to(now);
            while let Some(dg) = net.recv(a.addr()) {
                a.receive(now, &dg.payload);
            }
            while let Some(dg) = net.recv(b.addr()) {
                b.receive(now, &dg.payload);
            }
        }
    }

    #[test]
    fn delivers_bytes_in_order() {
        let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), 3);
        let (mut c, mut s) = pair(&mut net);
        c.write(b"hello over tcp");
        run(&mut net, &mut c, &mut s, 200);
        assert_eq!(s.read(), b"hello over tcp");
    }

    #[test]
    fn bidirectional_transfer() {
        let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), 4);
        let (mut c, mut s) = pair(&mut net);
        c.write(b"keystroke");
        s.write(b"echo");
        run(&mut net, &mut c, &mut s, 200);
        assert_eq!(s.read(), b"keystroke");
        assert_eq!(c.read(), b"echo");
    }

    #[test]
    fn large_transfer_crosses_segment_boundaries() {
        let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), 5);
        let (mut c, mut s) = pair(&mut net);
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        c.write(&data);
        run(&mut net, &mut c, &mut s, 3000);
        assert_eq!(s.read(), data);
    }

    #[test]
    fn survives_loss_with_retransmission() {
        let lossy = LinkConfig {
            loss: 0.2,
            delay_ms: 10,
            ..LinkConfig::lan()
        };
        let mut net = Network::new(lossy.clone(), lossy, 6);
        let (mut c, mut s) = pair(&mut net);
        let data: Vec<u8> = (0..20_000u32).map(|i| (i * 7 % 256) as u8).collect();
        c.write(&data);
        run(&mut net, &mut c, &mut s, 60_000);
        assert_eq!(s.read(), data);
        assert!(c.stats().retransmissions > 0);
    }

    #[test]
    fn rto_has_one_second_floor() {
        // Drop the first transmission; recovery cannot happen before 1 s.
        let mut net = Network::new(
            LinkConfig {
                loss: 1.0,
                ..LinkConfig::lan()
            },
            LinkConfig::lan(),
            7,
        );
        let (mut c, mut s) = pair(&mut net);
        c.write(b"x");
        run(&mut net, &mut c, &mut s, 999);
        assert_eq!(c.stats().timeouts, 0, "no timeout before MIN_RTO");
        run(&mut net, &mut c, &mut s, 1100);
        assert!(c.stats().timeouts >= 1);
        assert!(s.read().is_empty());
    }

    #[test]
    fn backoff_doubles_the_timeout() {
        let mut net = Network::new(
            LinkConfig {
                loss: 1.0,
                ..LinkConfig::lan()
            },
            LinkConfig::lan(),
            8,
        );
        let (mut c, mut s) = pair(&mut net);
        c.write(b"x");
        // Timeouts at ~1 s, ~3 s (1+2), ~7 s (1+2+4): three by t=7.5 s.
        run(&mut net, &mut c, &mut s, 7500);
        assert_eq!(c.stats().timeouts, 3, "exponential backoff schedule");
    }

    #[test]
    fn slow_start_grows_cwnd() {
        let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), 9);
        let (mut c, mut s) = pair(&mut net);
        let initial = c.cwnd();
        c.write(&vec![0u8; 200_000]);
        run(&mut net, &mut c, &mut s, 2000);
        assert!(
            c.cwnd() > initial * 4,
            "cwnd grew: {} -> {}",
            initial,
            c.cwnd()
        );
    }

    #[test]
    fn bulk_flow_fills_a_droptail_buffer() {
        // The LTE experiment's mechanism: a deep buffer at the bottleneck
        // fills up, so queueing delay reaches seconds.
        let bottleneck = LinkConfig {
            rate_bytes_per_ms: Some(625), // 5 Mbit/s
            queue_bytes: 1_000_000,
            delay_ms: 25,
            ..LinkConfig::lan()
        };
        let mut net = Network::new(LinkConfig::lan(), bottleneck, 10);
        let (mut c, mut s) = pair(&mut net);
        s.write(&vec![0u8; 32_000_000]); // Server pushes a big download.
                                         // Probe mid-transfer: slow start needs a few RTTs to fill the pipe.
        run(&mut net, &mut c, &mut s, 3_000);
        assert!(
            net.queue_depth(1) > 500_000,
            "buffer must be mostly full, got {}",
            net.queue_depth(1)
        );
    }

    #[test]
    fn head_of_line_blocking_stalls_delivery() {
        // One lost segment delays everything behind it — the contrast
        // with SSP's skip-ahead diffs.
        let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), 11);
        let (mut c, mut s) = pair(&mut net);
        c.write(b"first");
        // Force the loss by tearing down the link for the first try.
        let w = c.tick(0);
        drop(w); // Segment vanishes.
        c.write(b"second");
        run(&mut net, &mut c, &mut s, 900);
        // "second" cannot be delivered before "first" is retransmitted.
        assert_eq!(s.read(), b"");
        run(&mut net, &mut c, &mut s, 2500);
        assert_eq!(s.read(), b"firstsecond");
    }

    #[test]
    fn fast_retransmit_on_dupacks() {
        let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), 12);
        let (mut c, mut s) = pair(&mut net);
        // Send several segments; drop the first, deliver the rest, so the
        // receiver generates duplicate ACKs.
        c.write(&vec![1u8; MSS]);
        let first = c.tick(0);
        assert_eq!(first.len(), 1);
        drop(first); // Lost.
        c.write(&vec![2u8; MSS * 3]);
        for (to, w) in c.tick(1) {
            net.send(c.addr(), to, w);
        }
        run(&mut net, &mut c, &mut s, 500);
        assert!(
            c.stats().retransmissions >= 1 && c.stats().timeouts == 0,
            "recovered via fast retransmit: {:?}",
            c.stats()
        );
        assert_eq!(s.read().len(), MSS * 4);
    }
}
