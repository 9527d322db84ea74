//! The full SSP transport endpoint: datagram layer + sender + receiver.
//!
//! A [`Transport`] is one end of a bidirectional SSP session. It owns a
//! local object (synchronized *to* the peer) and a remote object
//! (synchronized *from* the peer). It is deliberately free of I/O: `tick`
//! returns encrypted wire datagrams to transmit and `receive` consumes
//! them, with all timing supplied by the caller in virtual milliseconds —
//! the same state machine runs under the discrete-event simulator and the
//! live UDP adapter.

use crate::datagram::{DatagramLayer, Opened};
use crate::fragment::{fragment, Fragment, FragmentAssembly, FRAGMENT_PAYLOAD};
use crate::instruction::{Instruction, PROTOCOL_VERSION};
use crate::receiver::Receiver;
use crate::sender::{Sender, SenderStats};
use crate::state::SyncState;
use crate::{Millis, SspError};
use mosh_crypto::session::Direction;
use mosh_crypto::Base64Key;
use mosh_wire::{put_opt, put_varint, Reader};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What `receive` learned from one datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiveEvent {
    /// The peer's sequence number was the highest yet: roaming endpoints
    /// re-target their peer address from this datagram's source.
    pub new_high_seq: bool,
    /// The remote object advanced; read [`Transport::remote_state`].
    pub remote_advanced: bool,
}

/// Combined counters from all layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportStats {
    /// Wire datagrams sent.
    pub datagrams_sent: u64,
    /// Wire datagrams accepted (authentic).
    pub datagrams_received: u64,
    /// Datagrams rejected (failed authentication or malformed).
    pub datagrams_rejected: u64,
}

/// One end of an SSP session synchronizing `L` outbound and `R` inbound.
#[derive(Debug)]
pub struct Transport<L: SyncState, R: SyncState> {
    datagram: DatagramLayer,
    sender: Sender<L>,
    receiver: Receiver<R>,
    assembly: FragmentAssembly,
    next_instruction_id: u64,
    /// Id of the instruction currently being (re)sent, reused when the
    /// instruction content is unchanged so the assembler can complete it.
    stats: TransportStats,
    /// Time we last heard an authentic datagram from the peer.
    last_heard: Option<Millis>,
    /// Cap on the remote state number we acknowledge. A checkpointing
    /// server never acks beyond its last durable checkpoint: the peer
    /// then keeps (and keeps retransmitting) everything a crash could
    /// lose, so recovery never strands un-checkpointed input.
    ack_ceiling: Option<u64>,
    chaff_rng: StdRng,
}

/// Chaff is deterministic per session key and direction so simulations
/// reproduce — and so a restored endpoint can fast-forward the stream.
fn chaff_seed(key: &Base64Key, direction: Direction) -> [u8; 32] {
    let mut seed = [0u8; 32];
    seed[..16].copy_from_slice(key.as_bytes());
    seed[16] = match direction {
        Direction::ToServer => 0,
        Direction::ToClient => 1,
    };
    seed
}

impl<L: SyncState, R: SyncState> Transport<L, R> {
    /// Creates an endpoint. Both sides must agree on the key, opposite
    /// `direction`s, and the two initial states.
    pub fn new(key: Base64Key, direction: Direction, initial_local: L, initial_remote: R) -> Self {
        let seed = chaff_seed(&key, direction);
        Transport {
            datagram: DatagramLayer::new(key, direction),
            sender: Sender::new(initial_local),
            receiver: Receiver::new(initial_remote),
            assembly: FragmentAssembly::new(),
            next_instruction_id: 0,
            stats: TransportStats::default(),
            last_heard: None,
            ack_ceiling: None,
            chaff_rng: StdRng::from_seed(seed),
        }
    }

    /// Appends the whole endpoint for a session snapshot: each layer's
    /// own bytes in turn, then the instruction counter, the wire counters
    /// and the two ack clocks. The chaff stream's position is implied by
    /// the instruction counter.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.datagram.encode_into(out);
        self.sender.encode_into(out);
        self.receiver.encode_into(out);
        self.assembly.encode_into(out);
        put_varint(out, self.next_instruction_id);
        let st = &self.stats;
        for v in [
            st.datagrams_sent,
            st.datagrams_received,
            st.datagrams_rejected,
        ] {
            put_varint(out, v);
        }
        put_opt(out, self.last_heard);
        put_opt(out, self.ack_ceiling);
    }

    /// Reads an endpoint written by [`Transport::encode_into`]; `None`
    /// when any layer rejects its bytes. The chaff RNG is re-seeded and
    /// fast-forwarded past the instructions already sent, so the restored
    /// endpoint's wire bytes continue exactly where the original's would
    /// have.
    pub fn decode(r: &mut Reader<'_>, direction: Direction) -> Option<Self> {
        let datagram = DatagramLayer::decode(r, direction)?;
        let sender = Sender::decode(r)?;
        let receiver = Receiver::decode(r)?;
        let assembly = FragmentAssembly::decode(r)?;
        let next_instruction_id = r.varint()?;
        let stats = TransportStats {
            datagrams_sent: r.varint()?,
            datagrams_received: r.varint()?,
            datagrams_rejected: r.varint()?,
        };
        let last_heard = r.opt()?;
        let ack_ceiling = r.opt()?;
        let mut chaff_rng = StdRng::from_seed(chaff_seed(datagram.key(), direction));
        for _ in 0..next_instruction_id {
            // Replay the draws `tick` made per instruction (length, then
            // that many bytes) to reach the same stream position.
            let n = chaff_rng.gen_range(1..=16usize);
            for _ in 0..n {
                let _: u8 = chaff_rng.gen();
            }
        }
        Some(Transport {
            datagram,
            sender,
            receiver,
            assembly,
            next_instruction_id,
            stats,
            last_heard,
            ack_ceiling,
            chaff_rng,
        })
    }

    /// The sequence number the next outgoing datagram will carry.
    pub fn next_seq(&self) -> u64 {
        self.datagram.next_seq()
    }

    /// Skips the outgoing sequence number forward by `margin`: crash
    /// recovery must never re-use a nonce a lost post-checkpoint datagram
    /// may already have consumed (see [`DatagramLayer::skip_seq_to`]).
    pub fn skip_seq_ahead(&mut self, margin: u64) {
        self.datagram
            .skip_seq_to(self.next_seq().saturating_add(margin));
    }

    /// Caps outgoing acknowledgments at `ceiling` (`None` lifts the cap).
    /// See the `ack_ceiling` field: a checkpointing server raises this to
    /// its checkpoint's remote state number, never beyond.
    pub fn set_ack_ceiling(&mut self, ceiling: Option<u64>) {
        self.ack_ceiling = ceiling;
    }

    /// The current outgoing-ack cap, if any.
    pub fn ack_ceiling(&self) -> Option<u64> {
        self.ack_ceiling
    }

    /// The remote state number we are willing to acknowledge right now.
    fn capped_ack(&self) -> u64 {
        let latest = self.receiver.latest_num();
        match self.ack_ceiling {
            Some(c) => latest.min(c),
            None => latest,
        }
    }

    /// Overrides the collection interval (see [`Sender::set_mindelay`]).
    pub fn set_mindelay(&mut self, mindelay: Millis) {
        self.sender.set_mindelay(mindelay);
    }

    /// Replaces the outbound object's current state.
    pub fn set_current_state(&mut self, state: L, now: Millis) {
        self.sender.set_current(state, now);
    }

    /// Mutable access to the outbound object's current state, for
    /// callers whose authoritative object lives *inside* the sender
    /// (mutated in place, never cloned per change). Pair every mutation
    /// with a [`Transport::commit_current`] before the next
    /// [`Transport::tick`]. Borrowing clears the sender's cached answer to
    /// "anything to send?" (see [`Sender::current_mut`]), so borrow only to
    /// mutate.
    pub fn current_state_mut(&mut self) -> &mut L {
        self.sender.current_mut()
    }

    /// Re-evaluates the current state against the last sent snapshot
    /// after in-place mutation (see [`Transport::current_state_mut`]), and
    /// caches the answer until the next mutation (see [`Sender::commit`]).
    pub fn commit_current(&mut self, now: Millis) {
        self.sender.commit(now);
    }

    /// The outbound object's current state.
    pub fn current_state(&self) -> &L {
        self.sender.current()
    }

    /// Split borrow of both state objects: the outbound current state
    /// (mutable, for in-place updates) and the newest state received
    /// from the peer. Lets an endpoint apply remote events to its local
    /// object without cloning either — the Mosh server iterates the
    /// remote user stream while mutating its terminal in place. Like
    /// [`Transport::current_state_mut`], it clears the cached answer.
    pub fn split_states(&mut self) -> (&mut L, &R) {
        (self.sender.current_mut(), self.receiver.latest())
    }

    /// The newest state received from the peer.
    pub fn remote_state(&self) -> &R {
        self.receiver.latest()
    }

    /// The newest received state's number.
    pub fn remote_state_num(&self) -> u64 {
        self.receiver.latest_num()
    }

    /// Smoothed RTT estimate in milliseconds.
    pub fn srtt(&self) -> f64 {
        self.datagram.srtt()
    }

    /// True once an RTT sample exists.
    pub fn has_rtt_sample(&self) -> bool {
        self.datagram.has_rtt_sample()
    }

    /// Current retransmission timeout in milliseconds.
    pub fn rto(&self) -> Millis {
        self.datagram.rto()
    }

    /// Time the peer was last heard from (for the client's warning banner).
    pub fn last_heard(&self) -> Option<Millis> {
        self.last_heard
    }

    /// Highest state number of ours the peer has acknowledged.
    pub fn acked_state_num(&self) -> u64 {
        self.sender.acked_num()
    }

    /// The newest state of ours the peer has acknowledged (see
    /// [`Sender::acked_state`]). Read right after a receive it is the
    /// state the instruction just handled acknowledged — for a server
    /// frame, the input the server had taken in when it cut the frame —
    /// unless a later acknowledgment overtook that datagram on the wire.
    pub fn acked_state(&self) -> &L {
        self.sender.acked_state()
    }

    /// Number of the most recently shipped outbound state.
    pub fn latest_sent_num(&self) -> u64 {
        self.sender.latest_sent_num()
    }

    /// True if local changes have not been shipped yet.
    pub fn pending_data(&self) -> bool {
        self.sender.pending_data()
    }

    /// Sender counters (piggyback ratios, retransmissions, heartbeats).
    pub fn sender_stats(&self) -> &SenderStats {
        self.sender.stats()
    }

    /// Wire counters.
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// The next time `tick` could produce output (for event stepping).
    pub fn next_wakeup(&self) -> Option<Millis> {
        self.sender
            .next_wakeup(self.datagram.srtt(), self.datagram.rto())
    }

    /// Runs the sender's timers at `now`, returning encrypted datagrams to
    /// transmit (several when an instruction fragments).
    pub fn tick(&mut self, now: Millis) -> Vec<Vec<u8>> {
        let rto = self.datagram.rto();
        let srtt = self.datagram.srtt();
        let Some(outgoing) = self.sender.tick(now, srtt, rto) else {
            return Vec::new();
        };

        // Acks always ride along (piggybacked or otherwise).
        let instruction = Instruction {
            protocol_version: PROTOCOL_VERSION,
            old_num: outgoing.old_num,
            new_num: outgoing.new_num,
            ack_num: self.capped_ack(),
            throwaway_num: outgoing.throwaway_num,
            diff: outgoing.diff,
        };
        let mut chaff = [0u8; 16];
        let chaff = &mut chaff[..self.chaff_rng.gen_range(1..=16usize)];
        chaff.iter_mut().for_each(|b| *b = self.chaff_rng.gen());
        let encoded = instruction.encode(chaff);

        let id = self.next_instruction_id;
        self.next_instruction_id += 1;

        let wires: Vec<Vec<u8>> = fragment(id, &encoded, FRAGMENT_PAYLOAD)
            .iter()
            .map(|f| self.datagram.seal(now, &f.encode()))
            .collect();
        // Counters restored from a snapshot may sit at their limit.
        self.stats.datagrams_sent = self.stats.datagrams_sent.saturating_add(wires.len() as u64);
        wires
    }

    /// True when `wire` authenticates under this session's key and
    /// direction, without consuming it or mutating any state. This is
    /// the paper's §2.2 roaming rule generalized to many sessions behind
    /// one socket: when source addresses collide, *only* cryptographic
    /// authentication decides which session a datagram belongs to.
    /// Prefer [`Transport::open`] in a demultiplexer: it keeps the
    /// plaintext this verification already paid for.
    pub fn authenticates(&self, wire: &[u8]) -> bool {
        self.datagram.open(wire).is_ok()
    }

    /// Number of OCB open attempts this endpoint has performed,
    /// successful or not (decrypt-once instrumentation).
    pub fn decrypt_count(&self) -> u64 {
        self.datagram.decrypt_count()
    }

    /// Authenticates and decrypts `wire` **without** consuming it: no
    /// transport, sequence, RTT, or counter state changes (a failed open
    /// here is a demux probe, not line noise — it is not counted as a
    /// rejected datagram). On success, pass the token to
    /// [`Transport::recv_opened`] to consume the datagram without a
    /// second decrypt.
    pub fn open(&self, wire: &[u8]) -> Result<Opened, SspError> {
        self.datagram.open(wire)
    }

    /// Consumes one wire datagram received at `now`.
    pub fn receive(&mut self, now: Millis, wire: &[u8]) -> Result<ReceiveEvent, SspError> {
        match self.datagram.open(wire) {
            Ok(opened) => self.recv_opened(now, opened),
            Err(e) => {
                self.stats.datagrams_rejected = self.stats.datagrams_rejected.saturating_add(1);
                Err(e)
            }
        }
    }

    /// Consumes an already-opened datagram at `now` — the second half of
    /// the decrypt-once receive path. Identical behavior (state, stats,
    /// events) to [`Transport::receive`] of the original wire, minus the
    /// duplicate OCB pass. The token's plaintext buffer, allocated by the
    /// open, is consumed here: it becomes the fragment, the assembled
    /// instruction and finally the diff the receiver applies.
    pub fn recv_opened(&mut self, now: Millis, opened: Opened) -> Result<ReceiveEvent, SspError> {
        let received = match self.datagram.accept(now, opened) {
            Ok(r) => r,
            Err(e) => {
                self.stats.datagrams_rejected = self.stats.datagrams_rejected.saturating_add(1);
                return Err(e);
            }
        };
        self.stats.datagrams_received = self.stats.datagrams_received.saturating_add(1);
        self.last_heard = Some(now);

        let mut event = ReceiveEvent {
            new_high_seq: received.new_high,
            remote_advanced: false,
        };

        // The decrypted buffer travels up whole: the fragment, then the
        // assembled instruction, then its diff.
        let fragment = Fragment::decode(received.payload)?;
        let Some(payload) = self.assembly.add(fragment) else {
            return Ok(event);
        };
        let instruction = Instruction::decode(payload)?;

        // Their ack prunes our sent-state list.
        self.sender.handle_ack(instruction.ack_num);

        let processed = self.receiver.process(&instruction, now);
        event.remote_advanced = processed.advanced;

        // Schedule our (delayed) ack: for new states, and for data-bearing
        // duplicates, which mean the peer never got our previous ack.
        let must_ack = processed.new_state || processed.duplicate_data;
        self.sender.set_ack_num(self.capped_ack(), must_ack, now);

        Ok(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::BlobState;

    type T = Transport<BlobState, BlobState>;

    fn pair() -> (T, T) {
        let key = Base64Key::from_bytes([5u8; 16]);
        let init = BlobState(b"init".to_vec());
        (
            Transport::new(key.clone(), Direction::ToServer, init.clone(), init.clone()),
            Transport::new(key, Direction::ToClient, init.clone(), init),
        )
    }

    /// Runs both endpoints with an ideal zero-loss 1 ms link until quiet.
    fn converge(a: &mut T, b: &mut T, start: Millis, duration: Millis) -> Millis {
        let mut now = start;
        let end = start + duration;
        let mut a_to_b: Vec<(Millis, Vec<u8>)> = Vec::new();
        let mut b_to_a: Vec<(Millis, Vec<u8>)> = Vec::new();
        while now < end {
            for w in a.tick(now) {
                a_to_b.push((now + 1, w));
            }
            for w in b.tick(now) {
                b_to_a.push((now + 1, w));
            }
            for (at, w) in std::mem::take(&mut a_to_b) {
                if at <= now {
                    let _ = b.receive(now, &w);
                } else {
                    a_to_b.push((at, w));
                }
            }
            for (at, w) in std::mem::take(&mut b_to_a) {
                if at <= now {
                    let _ = a.receive(now, &w);
                } else {
                    b_to_a.push((at, w));
                }
            }
            now += 1;
        }
        now
    }

    #[test]
    fn state_synchronizes_end_to_end() {
        let (mut client, mut server) = pair();
        client.set_current_state(BlobState(b"keystroke q".to_vec()), 0);
        converge(&mut client, &mut server, 0, 400);
        assert_eq!(server.remote_state().0, b"keystroke q");
        // The ack came back and pruned the client's sent list.
        assert_eq!(client.acked_state_num(), client.latest_sent_num());
    }

    #[test]
    fn both_directions_synchronize() {
        let (mut client, mut server) = pair();
        client.set_current_state(BlobState(b"up".to_vec()), 0);
        server.set_current_state(BlobState(b"down".to_vec()), 0);
        converge(&mut client, &mut server, 0, 400);
        assert_eq!(server.remote_state().0, b"up");
        assert_eq!(client.remote_state().0, b"down");
    }

    #[test]
    fn rapid_changes_coalesce_into_few_states() {
        let (mut client, mut server) = pair();
        let mut now = 0;
        for i in 0..50u32 {
            client.set_current_state(BlobState(format!("v{i}").as_bytes().to_vec()), now);
            now = converge(&mut client, &mut server, now, 2);
        }
        converge(&mut client, &mut server, now, 400);
        assert_eq!(server.remote_state().0, b"v49");
        // 50 changes in 100 ms: far fewer instructions than changes.
        assert!(client.sender_stats().data < 25);
    }

    #[test]
    fn large_state_fragments_and_reassembles() {
        let (mut client, mut server) = pair();
        // Seeded xorshift bytes: nothing for the compressor to shorten.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let big: Vec<u8> = (0..5000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        client.set_current_state(BlobState(big.clone()), 0);
        converge(&mut client, &mut server, 0, 500);
        assert_eq!(server.remote_state().0, big);
        assert!(client.stats().datagrams_sent >= 10, "must have fragmented");
    }

    #[test]
    fn tampered_datagrams_are_counted_and_ignored() {
        let (mut client, mut server) = pair();
        client.set_current_state(BlobState(b"x".to_vec()), 0);
        let wires = client.tick(10);
        assert!(!wires.is_empty());
        let mut bad = wires[0].clone();
        bad[12] ^= 0xff;
        assert!(server.receive(11, &bad).is_err());
        assert_eq!(server.stats().datagrams_rejected, 1);
        assert_eq!(server.remote_state().0, b"init");
    }

    #[test]
    fn heartbeats_flow_when_idle() {
        let (mut client, mut server) = pair();
        let mut now = 0;
        converge(&mut client, &mut server, now, 10_000);
        now = 10_000;
        assert!(client.sender_stats().heartbeats >= 2);
        assert!(server.last_heard().is_some());
        assert!(now - server.last_heard().unwrap() < 3500);
    }

    #[test]
    fn srtt_is_learned_from_traffic() {
        let (mut client, mut server) = pair();
        client.set_current_state(BlobState(b"x".to_vec()), 0);
        converge(&mut client, &mut server, 0, 8000);
        assert!(client.has_rtt_sample());
        // The simulated link is ~1 ms each way.
        assert!(client.srtt() < 50.0, "srtt = {}", client.srtt());
    }

    #[test]
    fn loss_recovers_via_retransmission() {
        let (mut client, mut server) = pair();
        client.set_current_state(BlobState(b"lost".to_vec()), 0);
        // Drop the first transmission entirely.
        let wires = client.tick(8);
        assert!(!wires.is_empty());
        drop(wires);
        // Let timers drive the retransmission (initial RTO = 1 s).
        converge(&mut client, &mut server, 9, 3000);
        assert_eq!(server.remote_state().0, b"lost");
        assert!(client.sender_stats().retransmits >= 1);
    }

    #[test]
    fn reordered_and_duplicated_datagrams_converge() {
        let (mut client, mut server) = pair();
        let mut stash: Vec<Vec<u8>> = Vec::new();
        let mut now = 0;
        for i in 0..10u32 {
            client.set_current_state(BlobState(format!("state {i}").as_bytes().to_vec()), now);
            now += 30;
            stash.extend(client.tick(now));
        }
        // Deliver everything reversed, then duplicated.
        for w in stash.iter().rev() {
            let _ = server.receive(now, w);
        }
        for w in stash.iter() {
            let _ = server.receive(now, w);
        }
        converge(&mut client, &mut server, now, 3000);
        assert_eq!(server.remote_state().0, b"state 9");
    }

    #[test]
    fn new_high_seq_marks_roaming_candidates() {
        let (mut client, mut server) = pair();
        client.set_current_state(BlobState(b"a".to_vec()), 0);
        let w1 = client.tick(8);
        client.set_current_state(BlobState(b"b".to_vec()), 100);
        let w2 = client.tick(300);
        // Later packet first: new high. Earlier packet second: not.
        let e2 = server.receive(301, &w2[0]).unwrap();
        assert!(e2.new_high_seq);
        let e1 = server.receive(302, &w1[0]).unwrap();
        assert!(!e1.new_high_seq);
    }

    /// `t` through its own bytes.
    fn clone_via_snapshot(t: &T, direction: Direction) -> T {
        let mut bytes = Vec::new();
        t.encode_into(&mut bytes);
        let mut r = Reader::new(&bytes);
        let twin = T::decode(&mut r, direction).expect("a live endpoint decodes");
        assert_eq!(r.remaining(), 0);
        twin
    }

    #[test]
    fn restored_endpoint_is_byte_identical_going_forward() {
        let (mut client, mut server) = pair();
        client.set_current_state(BlobState(b"warm up".to_vec()), 0);
        server.set_current_state(BlobState(b"reply".to_vec()), 0);
        let now = converge(&mut client, &mut server, 0, 500);

        let mut twin = clone_via_snapshot(&server, Direction::ToClient);

        // Drive both through identical futures: same state changes, same
        // inbound wires, same tick times. Every output must match.
        server.set_current_state(BlobState(b"post-snapshot".to_vec()), now);
        twin.set_current_state(BlobState(b"post-snapshot".to_vec()), now);
        for step in 0..400u64 {
            let t = now + step;
            let wires_a = server.tick(t);
            let wires_b = twin.tick(t);
            assert_eq!(wires_a, wires_b, "tick divergence at {t}");
            if step == 50 {
                for w in client.tick(t) {
                    let ea = server.receive(t, &w);
                    let eb = twin.receive(t, &w);
                    assert_eq!(ea.is_ok(), eb.is_ok());
                }
            }
        }
        assert_eq!(server.stats().datagrams_sent, twin.stats().datagrams_sent);
    }

    /// Snapshot bytes come from outside the process: counters restored
    /// at their limit (the wire counters and the crypto session's decrypt
    /// count) stay there through ticks, receives and a rejection.
    #[test]
    fn restored_counters_at_their_limit_saturate() {
        let (mut client, mut server) = pair();
        server.stats = TransportStats {
            datagrams_sent: u64::MAX,
            datagrams_received: u64::MAX,
            datagrams_rejected: u64::MAX,
        };
        let mut bytes = Vec::new();
        server.encode_into(&mut bytes);
        // The decrypt count is the second varint after the 16 key bytes.
        let mut r = Reader::new(&bytes[16..]);
        r.varint();
        let at = bytes.len() - r.remaining();
        r.varint();
        let end = bytes.len() - r.remaining();
        let mut max = Vec::new();
        put_varint(&mut max, u64::MAX);
        bytes.splice(at..end, max);
        let mut server = T::decode(&mut Reader::new(&bytes), Direction::ToClient).expect("decodes");
        assert_eq!(server.decrypt_count(), u64::MAX);

        client.set_current_state(BlobState(b"up".to_vec()), 0);
        server.set_current_state(BlobState(b"down".to_vec()), 0);
        let now = converge(&mut client, &mut server, 0, 400);
        assert!(server.receive(now, &[0; 40]).is_err());
        assert_eq!(
            (
                server.remote_state().0.as_slice(),
                client.remote_state().0.as_slice()
            ),
            (&b"up"[..], &b"down"[..])
        );
        let st = server.stats();
        assert_eq!(
            [
                st.datagrams_sent,
                st.datagrams_received,
                st.datagrams_rejected
            ],
            [u64::MAX; 3]
        );
        assert_eq!(server.decrypt_count(), u64::MAX);
    }

    #[test]
    fn snapshot_decode_rejects_every_truncation_and_an_emptied_layer() {
        let (mut client, mut server) = pair();
        client.set_current_state(BlobState(vec![7; 1200]), 0);
        let wires = client.tick(8);
        server.receive(9, &wires[0]).unwrap(); // one fragment of three held
        let mut bytes = Vec::new();
        server.encode_into(&mut bytes);
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                T::decode(&mut r, Direction::ToClient).is_none(),
                "cut {cut}"
            );
        }
        let mut twin = clone_via_snapshot(&server, Direction::ToClient);
        for w in &wires[1..] {
            twin.receive(10, w).unwrap();
        }
        assert_eq!(twin.remote_state().0, vec![7; 1200]);
        // The sender's state list sits right behind the datagram layer;
        // emptied, the whole endpoint is refused.
        let mut datagram = Vec::new();
        server.datagram.encode_into(&mut datagram);
        assert_eq!(bytes[datagram.len()], 1, "one shipped state");
        bytes[datagram.len()] = 0;
        assert!(T::decode(&mut Reader::new(&bytes), Direction::ToClient).is_none());
    }

    #[test]
    fn ack_ceiling_caps_outgoing_acks() {
        let (mut client, mut server) = pair();
        server.set_ack_ceiling(Some(0));
        client.set_current_state(BlobState(b"typed".to_vec()), 0);
        converge(&mut client, &mut server, 0, 2000);
        // The server received and applied the state...
        assert_eq!(server.remote_state().0, b"typed");
        // ...but never acknowledged past the ceiling, so the client still
        // holds (and re-offers) the un-checkpointed state.
        assert_eq!(client.acked_state_num(), 0);
        assert!(client.sender_stats().retransmits >= 1);

        // Raising the ceiling (a checkpoint happened) releases the ack.
        server.set_ack_ceiling(Some(u64::MAX));
        let mut now = 2000;
        now = converge(&mut client, &mut server, now, 2000);
        let _ = now;
        assert_eq!(client.acked_state_num(), client.latest_sent_num());
    }

    #[test]
    fn pure_ack_when_nothing_to_piggyback() {
        let (mut client, mut server) = pair();
        server.set_current_state(BlobState(b"server out".to_vec()), 0);
        converge(&mut client, &mut server, 0, 2000);
        assert_eq!(client.remote_state().0, b"server out");
        // The client had no data, so its ack went out alone.
        assert!(client.sender_stats().pure_acks >= 1);
    }
}
