//! The SSP datagram layer (paper §2.2).
//!
//! Wraps the crypto session and adds the per-packet timing machinery:
//!
//! * an incrementing sequence number (carried in the crypto nonce),
//! * a 16-bit millisecond **timestamp** and a **timestamp reply**, from
//!   which the other side derives RTT samples,
//! * the reply-adjustment trick: the echoed timestamp is aged by the time
//!   we held it, so delayed acks do not distort RTT estimates,
//! * tracking of the highest sequence number seen, which drives roaming:
//!   the *endpoint* re-targets its peer address whenever an authentic
//!   datagram arrives with a new-high sequence number.

use crate::rtt::{RttEstimator, MAX_RTT_SAMPLE};
use crate::wire::{get_opt, put_opt, put_varint, Reader};
use crate::{Millis, SspError};
use mosh_crypto::session::{Direction, Session};
use mosh_crypto::Base64Key;

/// Sentinel meaning "no timestamp to echo".
const TS_NONE: u16 = 0xffff;

/// A received, authenticated datagram with its transport payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Received {
    /// The sender's sequence number.
    pub seq: u64,
    /// True if this is the highest sequence number seen so far (drives
    /// roaming: the source address of such a packet becomes the new target).
    pub new_high: bool,
    /// Transport payload (a fragment).
    pub payload: Vec<u8>,
}

/// A verified-and-decrypted datagram token: proof that one OCB pass
/// already happened.
///
/// Produced by [`DatagramLayer::open`] (verification *without* consuming
/// the datagram — no sequence, RTT, or timestamp state changes) and
/// consumed by [`DatagramLayer::accept`], which does the bookkeeping the
/// plaintext was opened for. A multi-session demultiplexer opens a
/// datagram once to decide which session owns it, then hands the token to
/// that session — the verification work is never thrown away, so an
/// ambiguous-address datagram crosses AES-OCB exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opened {
    /// The sender's sequence number (direction bit already checked and
    /// stripped).
    pub seq: u64,
    /// The full authenticated plaintext: `timestamp ‖ timestamp_reply ‖
    /// transport payload`. Backed by the session's recycled scratch
    /// buffer; [`DatagramLayer::accept`] shifts it in place into
    /// [`Received::payload`], and [`DatagramLayer::recycle`] takes it
    /// back once consumed.
    pub payload: Vec<u8>,
}

/// One end of the encrypted, RTT-estimating datagram layer.
#[derive(Debug)]
pub struct DatagramLayer {
    session: Session,
    rtt: RttEstimator,
    /// Highest sequence number accepted from the peer.
    max_seq_seen: Option<u64>,
    /// Most recently received peer timestamp, with its arrival time, for
    /// the adjusted echo.
    saved_timestamp: Option<(u16, Millis)>,
}

impl DatagramLayer {
    /// Creates a datagram layer from the shared key and our direction.
    pub fn new(key: Base64Key, direction: Direction) -> Self {
        DatagramLayer {
            session: Session::new(key, direction),
            rtt: RttEstimator::new(),
            max_seq_seen: None,
            saved_timestamp: None,
        }
    }

    /// Appends everything of this layer a session snapshot must carry:
    /// the crypto session, the RTT estimate, the new-high bookkeeping and
    /// the saved timestamp echo. The key-derived cipher schedule and the
    /// scratch pool are rebuilt, not stored.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.session.encode_into(out);
        self.rtt.encode_into(out);
        put_opt(out, self.max_seq_seen);
        match self.saved_timestamp {
            None => put_varint(out, 0),
            Some((ts, at)) => {
                put_varint(out, 1);
                put_varint(out, u64::from(ts));
                put_varint(out, at);
            }
        }
    }

    /// Reads a layer written by [`DatagramLayer::encode_into`]; the
    /// direction is not stored, the caller knows which end it is.
    pub fn decode(r: &mut Reader<'_>, direction: Direction) -> Option<Self> {
        let session = r.sub(|bytes| Session::decode(bytes, direction))?;
        let rtt = RttEstimator::decode(r)?;
        let max_seq_seen = get_opt(r)?;
        let saved_timestamp = match r.varint().ok()? {
            0 => None,
            1 => {
                let ts = u16::try_from(r.varint().ok()?).ok()?;
                Some((ts, r.varint().ok()?))
            }
            _ => return None,
        };
        Some(DatagramLayer {
            session,
            rtt,
            max_seq_seen,
            saved_timestamp,
        })
    }

    /// The shared session key.
    pub fn key(&self) -> &Base64Key {
        self.session.key()
    }

    /// The sequence number the next outgoing datagram will carry.
    pub fn next_seq(&self) -> u64 {
        self.session.next_seq()
    }

    /// Skips the outgoing sequence number forward (see
    /// [`Session::skip_seq_to`]): crash recovery must never re-use a
    /// nonce a lost post-checkpoint datagram may already have consumed.
    pub fn skip_seq_to(&mut self, seq: u64) {
        self.session.skip_seq_to(seq);
    }

    /// Current smoothed RTT estimate (milliseconds).
    pub fn srtt(&self) -> f64 {
        self.rtt.srtt()
    }

    /// True once a real RTT sample has been observed.
    pub fn has_rtt_sample(&self) -> bool {
        self.rtt.has_sample()
    }

    /// Current retransmission timeout (milliseconds, clamped [50, 1000]).
    pub fn rto(&self) -> Millis {
        self.rtt.rto()
    }

    /// Highest peer sequence number accepted so far.
    pub fn max_seq_seen(&self) -> Option<u64> {
        self.max_seq_seen
    }

    /// True when `wire` authenticates under this session's key and
    /// direction, **without** consuming it: no sequence-number, RTT, or
    /// timestamp state changes. Prefer [`DatagramLayer::open`] in a
    /// demultiplexer — it returns the plaintext this verification already
    /// paid for instead of discarding it.
    pub fn verify(&self, wire: &[u8]) -> bool {
        self.session.decrypt(wire).is_ok()
    }

    /// Number of OCB open attempts this layer has performed (successful
    /// or not) — the decrypt-once instrumentation.
    pub fn decrypt_count(&self) -> u64 {
        self.session.decrypt_count()
    }

    /// Authenticates and decrypts a wire datagram **without** consuming
    /// it: no sequence-number, RTT, or timestamp state changes — the
    /// non-mutating verification a demultiplexer runs on candidate
    /// sessions, except the plaintext is kept instead of discarded. Hand
    /// the token to [`DatagramLayer::accept`] (on this same layer) to
    /// actually consume the datagram.
    pub fn open(&mut self, wire: &[u8]) -> Result<Opened, SspError> {
        let mut buf = self.session.take_scratch();
        match self.session.decrypt_into(wire, &mut buf) {
            Ok(seq) => Ok(Opened { seq, payload: buf }),
            Err(e) => {
                self.session.recycle_scratch(buf);
                Err(SspError::Crypto(e))
            }
        }
    }

    /// Encrypts a batch of transport payloads into wire datagrams, all
    /// stamped `now`, in one cipher pass. A batch of N is byte-identical
    /// to N batches of one: encoding never mutates the saved timestamp,
    /// so every packet of a same-instant burst carries the same echo.
    pub fn encode_many(&mut self, now: Millis, payloads: &[&[u8]]) -> Vec<Vec<u8>> {
        let ts = (now & 0xffff) as u16;
        // Adjust the echo by our holding time (paper §2.2, change #2).
        let ts_reply = match self.saved_timestamp {
            None => TS_NONE,
            Some((their_ts, arrived_at)) => {
                let held = now.saturating_sub(arrived_at);
                (their_ts as u64).wrapping_add(held) as u16
            }
        };
        // Assemble the plaintexts in the session's recycled scratch so
        // the only allocations on this path are the returned wires.
        let mut plains: Vec<Vec<u8>> = Vec::with_capacity(payloads.len());
        for payload in payloads {
            let mut plain = self.session.take_scratch();
            plain.reserve(4 + payload.len());
            plain.extend_from_slice(&ts.to_be_bytes());
            plain.extend_from_slice(&ts_reply.to_be_bytes());
            plain.extend_from_slice(payload);
            plains.push(plain);
        }
        let refs: Vec<&[u8]> = plains.iter().map(Vec::as_slice).collect();
        let mut wires = vec![Vec::new(); payloads.len()];
        self.session.encrypt_many_into(&refs, &mut wires);
        drop(refs);
        for plain in plains {
            self.session.recycle_scratch(plain);
        }
        wires
    }

    /// Consumes an already-opened datagram at `now`: parses the
    /// timestamps, feeds the RTT estimator, and advances the new-high
    /// bookkeeping — everything receiving a datagram does after its
    /// decrypt. The token's own buffer becomes [`Received::payload`]
    /// (shifted in place, no allocation); hand it back via
    /// [`DatagramLayer::recycle`] once consumed and the steady-state
    /// receive path never touches the heap.
    pub fn accept(&mut self, now: Millis, opened: Opened) -> Result<Received, SspError> {
        let Opened {
            seq,
            payload: mut buf,
        } = opened;
        if buf.len() < 4 {
            self.session.recycle_scratch(buf);
            return Err(SspError::Malformed);
        }
        let ts = u16::from_be_bytes([buf[0], buf[1]]);
        let ts_reply = u16::from_be_bytes([buf[2], buf[3]]);
        buf.copy_within(4.., 0);
        buf.truncate(buf.len() - 4);
        let payload = buf;

        let new_high = match self.max_seq_seen {
            None => true,
            Some(max) => seq > max,
        };
        if new_high {
            self.max_seq_seen = Some(seq);
            // Only new-high packets update the saved timestamp: echoing a
            // stale reordered timestamp would inflate the peer's estimate.
            self.saved_timestamp = Some((ts, now));
        }

        if ts_reply != TS_NONE {
            // 16-bit wrap-around subtraction: valid for RTTs under 65 s,
            // and only samples under 5 s count (see `MAX_RTT_SAMPLE`).
            let sample = ((now & 0xffff) as u16).wrapping_sub(ts_reply);
            if sample < MAX_RTT_SAMPLE {
                self.rtt.observe(f64::from(sample));
            }
        }

        Ok(Received {
            seq,
            new_high,
            payload,
        })
    }

    /// Returns a consumed [`Received::payload`] buffer to the scratch
    /// pool, closing the zero-allocation loop: open → accept → consume →
    /// recycle.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        self.session.recycle_scratch(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (DatagramLayer, DatagramLayer) {
        let key = Base64Key::from_bytes([9u8; 16]);
        (
            DatagramLayer::new(key.clone(), Direction::ToServer),
            DatagramLayer::new(key, Direction::ToClient),
        )
    }

    /// One datagram: a batch of one.
    fn encode(layer: &mut DatagramLayer, now: Millis, payload: &[u8]) -> Vec<u8> {
        layer.encode_many(now, &[payload]).remove(0)
    }

    /// Receives one wire the way a transport does: open, then accept.
    fn decode(layer: &mut DatagramLayer, now: Millis, wire: &[u8]) -> Result<Received, SspError> {
        let opened = layer.open(wire)?;
        layer.accept(now, opened)
    }

    #[test]
    fn round_trip_payload() {
        let (mut client, mut server) = pair();
        let wire = encode(&mut client, 0, b"fragment");
        let got = decode(&mut server, 1, &wire).unwrap();
        assert_eq!(got.payload, b"fragment");
        assert_eq!(got.seq, 0);
        assert!(got.new_high);
    }

    #[test]
    fn sequence_numbers_mark_new_high() {
        let (mut client, mut server) = pair();
        let w0 = encode(&mut client, 0, b"a");
        let w1 = encode(&mut client, 5, b"b");
        // Deliver out of order: the older packet is not a new high.
        assert!(decode(&mut server, 10, &w1).unwrap().new_high);
        let r0 = decode(&mut server, 11, &w0).unwrap();
        assert!(!r0.new_high);
        assert_eq!(r0.payload, b"a");
    }

    #[test]
    fn rtt_measured_through_echo() {
        let (mut client, mut server) = pair();
        // t=0: client sends; t=100: server receives and replies immediately;
        // t=200: client receives -> RTT sample 200 ms.
        let w = encode(&mut client, 0, b"ping");
        decode(&mut server, 100, &w).unwrap();
        let reply = encode(&mut server, 100, b"pong");
        decode(&mut client, 200, &reply).unwrap();
        assert!(client.has_rtt_sample());
        assert_eq!(client.srtt(), 200.0);
    }

    #[test]
    fn delayed_ack_does_not_inflate_rtt() {
        let (mut client, mut server) = pair();
        // Server holds the timestamp 400 ms before replying (delayed ack);
        // the echo is aged, so the client still measures 200 ms.
        let w = encode(&mut client, 0, b"ping");
        decode(&mut server, 100, &w).unwrap();
        let reply = encode(&mut server, 500, b"late pong");
        decode(&mut client, 600, &reply).unwrap();
        assert_eq!(client.srtt(), 200.0);
    }

    #[test]
    fn no_echo_no_sample() {
        let (mut client, mut server) = pair();
        let w = encode(&mut client, 0, b"first");
        let got = decode(&mut server, 50, &w).unwrap();
        assert_eq!(got.payload, b"first");
        assert!(!client.has_rtt_sample());
    }

    #[test]
    fn corrupted_datagrams_are_rejected() {
        let (mut client, mut server) = pair();
        let mut w = encode(&mut client, 0, b"x");
        w[9] ^= 1;
        assert!(decode(&mut server, 1, &w).is_err());
    }

    #[test]
    fn timestamp_wraps_correctly() {
        let (mut client, mut server) = pair();
        // Timestamps are 16-bit; send near the wrap boundary.
        let t0: Millis = 65_530;
        let w = encode(&mut client, t0, b"ping");
        decode(&mut server, t0 + 5, &w).unwrap();
        let reply = encode(&mut server, t0 + 5, b"pong");
        decode(&mut client, t0 + 10, &reply).unwrap();
        assert_eq!(client.srtt(), 10.0);
    }

    /// A client that has measured one 20 ms round trip then sends at
    /// `reply_ts` and hears the server's immediate echo at `reply_at`:
    /// its `(srtt, rttvar)` before and after that second sample.
    fn estimate_around(reply_at: Millis, reply_ts: Millis) -> ((f64, f64), (f64, f64)) {
        let (mut client, mut server) = pair();
        let w = encode(&mut client, 1000, b"ping");
        decode(&mut server, 1010, &w).unwrap();
        let pong = encode(&mut server, 1010, b"pong");
        decode(&mut client, 1020, &pong).unwrap();
        let before = (client.srtt(), client.rtt.rttvar());
        let w = encode(&mut client, reply_ts, b"ping");
        decode(&mut server, 2000, &w).unwrap();
        let reply = encode(&mut server, 2000, b"pong");
        decode(&mut client, reply_at, &reply).unwrap();
        (before, (client.srtt(), client.rtt.rttvar()))
    }

    #[test]
    fn an_echo_from_the_future_is_not_a_sample() {
        // Millisecond clocks on a sub-millisecond path: the echo names
        // an instant 1 ms after the client's own `now`. The −1 ms sample
        // wraps to 65 535 ms and must not reach the estimator.
        let (before, after) = estimate_around(1500, 1501);
        assert_eq!(before, (20.0, 10.0));
        assert_eq!(after, before);
    }

    #[test]
    fn a_sample_of_five_seconds_or_more_is_dropped() {
        // Mosh drops R >= 5000 ms ("e.g. server was Ctrl-Zed").
        let (before, after) = estimate_around(8000, 2000);
        assert_eq!(after, before);
        let (before, after) = estimate_around(7000, 2000);
        assert_eq!(after, before, "exactly 5 s is dropped too");
    }

    #[test]
    fn an_ordinary_sample_is_still_observed() {
        let (before, after) = estimate_around(2100, 2000);
        // RTTVAR = 0.75·10 + 0.25·|20 − 100| = 27.5; SRTT = 0.875·20 + 0.125·100 = 30.
        assert_eq!(before, (20.0, 10.0));
        assert_eq!(after, (30.0, 27.5));
    }

    #[test]
    fn open_does_not_consume_the_datagram() {
        let (mut client, mut server) = pair();
        let w_old = encode(&mut client, 0, b"old"); // seq 0
        let w_new = encode(&mut client, 100, b"new"); // seq 1
        decode(&mut server, 10, &w_old).unwrap();
        let before = (server.max_seq_seen(), server.srtt());
        // Opening (even repeatedly, even of a would-be-new-high packet)
        // changes no sequence, RTT, or timestamp state.
        for _ in 0..3 {
            let opened = server.open(&w_new).unwrap();
            assert_eq!(opened.seq, 1);
            assert_eq!(&opened.payload[4..], b"new");
        }
        assert_eq!((server.max_seq_seen(), server.srtt()), before);
        // Rejected wires recycle their buffer and report the crypto error.
        let mut bad = w_new.clone();
        bad[9] ^= 1;
        assert!(server.open(&bad).is_err());
        assert_eq!((server.max_seq_seen(), server.srtt()), before);
    }

    #[test]
    fn decrypt_count_counts_every_ocb_pass() {
        let (mut client, mut server) = pair();
        let w = encode(&mut client, 0, b"x");
        assert_eq!(server.decrypt_count(), 0);
        assert!(server.verify(&w));
        let opened = server.open(&w).unwrap();
        server.accept(1, opened).unwrap();
        // verify + open each cost one OCB pass; accept costs none.
        assert_eq!(server.decrypt_count(), 2);
    }

    /// A batch of N equals N batches of one, byte for byte.
    #[test]
    fn encode_many_matches_per_packet_encode() {
        let (mut batched, mut server) = pair();
        let (mut looped, _) = pair();
        // Give both encoders a saved timestamp so the echo path is live.
        let echo = encode(&mut server, 40, b"seed");
        decode(&mut batched, 50, &echo).unwrap();
        decode(&mut looped, 50, &echo).unwrap();
        let payloads: Vec<&[u8]> = vec![b"a", b"", b"a longer fragment payload"];
        let wires = batched.encode_many(75, &payloads);
        for (payload, wire) in payloads.iter().zip(wires.iter()) {
            assert_eq!(*wire, encode(&mut looped, 75, payload));
            assert_eq!(decode(&mut server, 80, wire).unwrap().payload, *payload);
        }
    }

    #[test]
    fn snapshot_round_trip_is_byte_identical_going_forward() {
        let (mut client, mut server) = pair();
        let w = encode(&mut client, 0, b"ping");
        decode(&mut server, 100, &w).unwrap();
        let reply = encode(&mut server, 130, b"pong");
        decode(&mut client, 200, &reply).unwrap();

        let mut bytes = Vec::new();
        client.encode_into(&mut bytes);
        let mut r = Reader::new(&bytes);
        let mut twin = DatagramLayer::decode(&mut r, Direction::ToServer).expect("decodes");
        assert_eq!(r.remaining(), 0);
        assert_eq!((twin.srtt(), twin.rto()), (client.srtt(), client.rto()));
        // Same nonce, same timestamp echo: the next wire is the same.
        assert_eq!(encode(&mut twin, 260, b"x"), encode(&mut client, 260, b"x"));

        // A saved timestamp wider than the 16 bits the wire carries.
        bytes.clear();
        pair().0.encode_into(&mut bytes);
        assert_eq!(bytes.pop(), Some(0), "a new layer has none saved");
        for v in [1, 0x1_0000, 5] {
            put_varint(&mut bytes, v);
        }
        assert!(DatagramLayer::decode(&mut Reader::new(&bytes), Direction::ToServer).is_none());
    }

    #[test]
    fn reordered_timestamps_do_not_regress_echo() {
        let (mut client, mut server) = pair();
        let w_old = encode(&mut client, 0, b"old");
        let w_new = encode(&mut client, 300, b"new");
        decode(&mut server, 400, &w_new).unwrap();
        // The older packet arrives later; its timestamp must not replace
        // the saved one.
        decode(&mut server, 410, &w_old).unwrap();
        let reply = encode(&mut server, 410, b"pong");
        // Client receives at 510: echo is based on the *new* packet
        // (ts=300 aged by 10), so the sample is 510-300-10 = 200.
        decode(&mut client, 510, &reply).unwrap();
        assert_eq!(client.srtt(), 200.0);
    }
}
