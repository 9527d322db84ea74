//! Datagram-layer crypto framing.
//!
//! Every SSP datagram is encrypted and authenticated as one OCB message
//! (paper §2.2). The 96-bit nonce is never repeated within a session: it is
//! built from a **direction bit** (so a packet can never be reflected back to
//! its sender) and a 63-bit **incrementing sequence number** (which the
//! datagram layer also uses for roaming and RTT bookkeeping). The low 8 bytes
//! of the nonce travel in the clear at the front of each datagram; the
//! payload and authentication tag follow.
//!
//! Wire layout:
//!
//! ```text
//! +---------------------------+-------------------------------+
//! | direction ‖ seq (8 bytes) | OCB(payload) ‖ tag (16 bytes) |
//! +---------------------------+-------------------------------+
//! ```

use crate::base64::Base64Key;
use crate::ocb::{Ocb, TAG_LEN};
use crate::CryptoError;
use mosh_wire::{put_varint, Reader};
use std::cell::Cell;

/// Which way a datagram travels. The bit prevents reflection attacks: a
/// receiver only accepts packets stamped with the *other* direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client-to-server traffic (direction bit 0).
    ToServer,
    /// Server-to-client traffic (direction bit 1).
    ToClient,
}

impl Direction {
    /// The opposite direction.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::ToServer => Direction::ToClient,
            Direction::ToClient => Direction::ToServer,
        }
    }

    fn bit(self) -> u64 {
        match self {
            Direction::ToServer => 0,
            Direction::ToClient => 1 << 63,
        }
    }
}

/// A decrypted, authenticated datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The sender's 63-bit sequence number (monotonically increasing).
    pub seq: u64,
    /// The authenticated plaintext payload.
    pub payload: Vec<u8>,
}

/// Maximum sequence number; beyond this a session must be rekeyed. In
/// practice a terminal session never comes near 2^63 datagrams.
pub const MAX_SEQ: u64 = (1 << 63) - 1;

/// One end of an encrypted session: encrypts outgoing datagrams with its own
/// direction bit and accepts only datagrams from the opposite direction.
///
/// A `Session` is `Send` but deliberately **not** `Sync`: the decrypt
/// counter is a `Cell`, which is exactly right for the sharded-hub
/// threading model — a session is owned by one shard (worker thread) at
/// a time, its interior state shard-local by construction, and the
/// compiler rejects any attempt to share one across threads.
///
/// # Examples
///
/// ```
/// use mosh_crypto::session::{Direction, Session};
/// use mosh_crypto::Base64Key;
///
/// let key = Base64Key::random();
/// let mut client = Session::new(key.clone(), Direction::ToServer);
/// let server = Session::new(key, Direction::ToClient);
///
/// let wire = client.encrypt(b"keystroke: q");
/// assert_eq!(server.decrypt(&wire).unwrap().payload, b"keystroke: q");
/// // Reflection back to the sender is rejected.
/// assert!(client.decrypt(&wire).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    ocb: Ocb,
    /// The shared session key, retained so the session can be snapshotted
    /// (the cipher schedule and the transport's chaff seed both re-derive
    /// from it on restore). The struct already *is* key material — the OCB
    /// schedule is a pure function of these bytes — so keeping them adds
    /// no new secret surface.
    key: Base64Key,
    direction: Direction,
    next_seq: u64,
    /// OCB open attempts (successful or not) performed by this endpoint —
    /// the decrypt-once instrumentation: a multi-session hub must cost
    /// exactly one of these per delivered datagram, even when the receive
    /// address is ambiguous and the datagram was first opened to decide
    /// which session owns it.
    decrypt_ops: Cell<u64>,
}

impl Session {
    /// Creates a session endpoint from a shared key and our send direction.
    pub fn new(key: Base64Key, direction: Direction) -> Self {
        Session {
            ocb: Ocb::new(key.as_bytes()),
            key,
            direction,
            next_seq: 0,
            decrypt_ops: Cell::new(0),
        }
    }

    /// Appends what a snapshot must carry of this endpoint: the 16 key
    /// bytes, then the next outgoing sequence number and the decrypt-ops
    /// counter as varints.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.key.as_bytes());
        put_varint(out, self.next_seq);
        put_varint(out, self.decrypt_ops.get());
    }

    /// Reads an endpoint written by [`Session::encode_into`] off `r`.
    /// The direction is the caller's to know; the cipher schedule is
    /// re-derived from the key. `None` for truncated input or a sequence
    /// number beyond [`MAX_SEQ`].
    pub fn decode(r: &mut Reader<'_>, direction: Direction) -> Option<Self> {
        let key: [u8; 16] = r.take(16)?.try_into().ok()?;
        let next_seq = r.varint().filter(|&seq| seq <= MAX_SEQ)?;
        let decrypt_ops = r.varint()?;
        let mut session = Session::new(Base64Key::from_bytes(key), direction);
        session.next_seq = next_seq;
        session.decrypt_ops.set(decrypt_ops);
        Some(session)
    }

    /// The shared session key (for snapshot serialization).
    pub fn key(&self) -> &Base64Key {
        &self.key
    }

    /// Skips the outgoing sequence number forward to at least `seq`.
    ///
    /// Crash recovery restores a session from a checkpoint taken *before*
    /// some datagrams were sealed; re-using those sequence numbers would
    /// repeat OCB nonces. Resurrection therefore burns a margin of numbers
    /// past anything the checkpointed counter could have covered — sequence
    /// numbers need only be fresh and monotonic, not dense, so the peer
    /// just sees a (large) gap, exactly as after heavy packet loss.
    pub fn skip_seq_to(&mut self, seq: u64) {
        assert!(seq <= MAX_SEQ, "sequence number space exhausted");
        self.next_seq = self.next_seq.max(seq);
    }

    /// The sequence number the next outgoing datagram will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of OCB open attempts this endpoint has performed, successful
    /// or not (truncated datagrams never reach OCB and are not counted).
    /// Instrumentation for the decrypt-once receive pipeline.
    pub fn decrypt_count(&self) -> u64 {
        self.decrypt_ops.get()
    }

    /// Builds the 12-byte OCB nonce for a direction+sequence pair.
    fn nonce(dir_seq: u64) -> [u8; 12] {
        let mut nonce = [0u8; 12];
        nonce[4..].copy_from_slice(&dir_seq.to_be_bytes());
        nonce
    }

    /// Encrypts a payload into a wire datagram, consuming one sequence
    /// number.
    ///
    /// # Panics
    ///
    /// Panics if the session has exhausted its 2^63 sequence numbers; callers
    /// must rekey long before this (Mosh sessions never approach it).
    pub fn encrypt(&mut self, payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        self.encrypt_into(payload, &mut wire);
        wire
    }

    /// [`Session::encrypt`] into a reused `wire` buffer (cleared first):
    /// the one place a datagram is sealed.
    fn encrypt_into(&mut self, payload: &[u8], wire: &mut Vec<u8>) {
        assert!(self.next_seq <= MAX_SEQ, "sequence number space exhausted");
        let dir_seq = self.direction.bit() | self.next_seq;
        self.next_seq += 1;
        wire.clear();
        wire.reserve(8 + payload.len() + TAG_LEN);
        wire.extend_from_slice(&dir_seq.to_be_bytes());
        self.ocb
            .seal_into(&Self::nonce(dir_seq), &[], payload, wire);
    }

    /// Authenticates and decrypts a wire datagram from the peer.
    ///
    /// Returns the peer's sequence number and payload. Fails if the packet is
    /// truncated, fails its tag, or carries our own direction bit. The
    /// payload is a fresh buffer of exactly the plaintext's size, the one
    /// allocation a received datagram costs here; it is the caller's to
    /// keep. Thin allocating wrapper over [`Session::decrypt_into`].
    pub fn decrypt(&self, wire: &[u8]) -> Result<Message, CryptoError> {
        let mut payload = Vec::new();
        let seq = self.decrypt_into(wire, &mut payload)?;
        Ok(Message { seq, payload })
    }

    /// Authenticates and decrypts a wire datagram into `payload` (cleared
    /// first), returning the peer's sequence number. On any failure the
    /// buffer is left empty — no unauthenticated plaintext is released.
    pub fn decrypt_into(&self, wire: &[u8], payload: &mut Vec<u8>) -> Result<u64, CryptoError> {
        payload.clear();
        if wire.len() < 8 + TAG_LEN {
            return Err(CryptoError::Truncated);
        }
        // A restored counter may sit at `u64::MAX`: it saturates.
        self.decrypt_ops
            .set(self.decrypt_ops.get().saturating_add(1));
        let dir_seq = u64::from_be_bytes(wire[..8].try_into().expect("length checked"));
        self.ocb
            .open_into(&Self::nonce(dir_seq), &[], &wire[8..], payload)?;
        // Authentic — now enforce that it came from the other side.
        if dir_seq & (1 << 63) != self.direction.opposite().bit() {
            payload.clear();
            return Err(CryptoError::BadDirection);
        }
        Ok(dir_seq & MAX_SEQ)
    }

    /// Encrypts a batch of payloads into wire datagrams, consuming one
    /// sequence number per payload in order: a loop over
    /// [`Session::encrypt`] that reuses each `wires` buffer.
    ///
    /// # Panics
    ///
    /// Panics if the batch would exhaust the 2^63 sequence numbers (checked
    /// before any payload is sealed), or if `payloads` and `wires` differ
    /// in length.
    pub fn encrypt_many_into(&mut self, payloads: &[&[u8]], wires: &mut [Vec<u8>]) {
        assert_eq!(payloads.len(), wires.len(), "one wire buffer per payload");
        assert!(
            self.next_seq <= MAX_SEQ - (payloads.len() as u64).saturating_sub(1),
            "sequence number space exhausted"
        );
        for (payload, wire) in payloads.iter().zip(wires.iter_mut()) {
            self.encrypt_into(payload, wire);
        }
    }

    /// Authenticates and decrypts a batch of wire datagrams, each into
    /// its own `payloads` buffer: a loop over [`Session::decrypt_into`],
    /// with its per-packet verdicts and decrypt accounting.
    ///
    /// # Panics
    ///
    /// Panics if `wires` and `payloads` differ in length.
    pub fn decrypt_many_into(
        &self,
        wires: &[&[u8]],
        payloads: &mut [Vec<u8>],
    ) -> Vec<Result<u64, CryptoError>> {
        assert_eq!(wires.len(), payloads.len(), "one payload buffer per wire");
        wires
            .iter()
            .zip(payloads.iter_mut())
            .map(|(wire, payload)| self.decrypt_into(wire, payload))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Session, Session) {
        let key = Base64Key::from_bytes([3u8; 16]);
        (
            Session::new(key.clone(), Direction::ToServer),
            Session::new(key, Direction::ToClient),
        )
    }

    #[test]
    fn session_is_send_for_shard_handoff() {
        // Sessions move to shard worker threads whole; `Cell` keeps
        // them !Sync, so concurrent sharing cannot compile.
        fn is_send<T: Send>() {}
        is_send::<Session>();
    }

    #[test]
    fn round_trip_both_directions() {
        let (mut client, mut server) = pair();
        let up = client.encrypt(b"up");
        let down = server.encrypt(b"down");
        assert_eq!(server.decrypt(&up).unwrap().payload, b"up");
        assert_eq!(client.decrypt(&down).unwrap().payload, b"down");
    }

    #[test]
    fn sequence_numbers_increment() {
        let (mut client, server) = pair();
        for expected in 0..5 {
            let wire = client.encrypt(b"x");
            assert_eq!(server.decrypt(&wire).unwrap().seq, expected);
        }
    }

    #[test]
    fn reflection_is_rejected() {
        let (mut client, _server) = pair();
        let wire = client.encrypt(b"boomerang");
        assert_eq!(client.decrypt(&wire), Err(CryptoError::BadDirection));
    }

    #[test]
    fn corruption_is_rejected() {
        let (mut client, server) = pair();
        let mut wire = client.encrypt(b"fragile");
        wire[10] ^= 0x40;
        assert_eq!(server.decrypt(&wire), Err(CryptoError::BadTag));
    }

    #[test]
    fn corrupted_clear_seq_fails_authentication() {
        // The clear sequence bytes feed the nonce, so flipping one breaks the tag.
        let (mut client, server) = pair();
        let mut wire = client.encrypt(b"seq matters");
        wire[7] ^= 0x01;
        assert_eq!(server.decrypt(&wire), Err(CryptoError::BadTag));
    }

    #[test]
    fn wrong_key_is_rejected() {
        let (mut client, _) = pair();
        let other = Session::new(Base64Key::from_bytes([4u8; 16]), Direction::ToClient);
        let wire = client.encrypt(b"secret");
        assert_eq!(other.decrypt(&wire), Err(CryptoError::BadTag));
    }

    #[test]
    fn truncated_datagrams_are_rejected() {
        let (_, server) = pair();
        assert_eq!(server.decrypt(&[0u8; 7]), Err(CryptoError::Truncated));
        assert_eq!(server.decrypt(&[0u8; 23]), Err(CryptoError::Truncated));
    }

    #[test]
    fn empty_payload_round_trips() {
        let (mut client, server) = pair();
        let wire = client.encrypt(b"");
        assert_eq!(server.decrypt(&wire).unwrap().payload, b"");
    }

    #[test]
    fn large_payload_round_trips() {
        let (mut client, server) = pair();
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let wire = client.encrypt(&payload);
        assert_eq!(server.decrypt(&wire).unwrap().payload, payload);
    }

    #[test]
    fn into_variants_match_allocating_variants() {
        let (mut client, server) = pair();
        let mut payload = Vec::new();
        for msg in [&b"x"[..], b"", b"a longer payload spanning blocks....."] {
            let wire = client.encrypt(msg);
            let seq = server.decrypt_into(&wire, &mut payload).unwrap();
            let message = server.decrypt(&wire).unwrap();
            assert_eq!(seq, message.seq);
            assert_eq!(payload, message.payload);
        }
    }

    #[test]
    fn decrypt_into_leaves_buffer_empty_on_failure() {
        let (mut client, server) = pair();
        let mut wire = client.encrypt(b"secret");
        wire[10] ^= 1;
        let mut payload = b"stale".to_vec();
        assert_eq!(
            server.decrypt_into(&wire, &mut payload),
            Err(CryptoError::BadTag)
        );
        assert!(payload.is_empty());
        // Reflection: authenticates, then fails the direction check —
        // plaintext still withheld.
        let wire = client.encrypt(b"boomerang");
        let mut payload = b"stale".to_vec();
        assert_eq!(
            client.decrypt_into(&wire, &mut payload),
            Err(CryptoError::BadDirection)
        );
        assert!(payload.is_empty());
    }

    #[test]
    fn decrypt_count_tracks_ocb_opens_only() {
        let (mut client, server) = pair();
        assert_eq!(server.decrypt_count(), 0);
        let wire = client.encrypt(b"one");
        server.decrypt(&wire).unwrap();
        assert_eq!(server.decrypt_count(), 1);
        // Truncated datagrams never reach OCB: not counted.
        assert_eq!(server.decrypt(&[0u8; 7]), Err(CryptoError::Truncated));
        assert_eq!(server.decrypt_count(), 1);
        // Failed tag checks are still OCB work: counted.
        let mut bad = client.encrypt(b"two");
        bad[12] ^= 0xff;
        assert!(server.decrypt(&bad).is_err());
        assert_eq!(server.decrypt_count(), 2);
    }

    #[test]
    fn encrypt_many_matches_per_packet_loop() {
        // Two sessions on the same key walk the same seq stream, one in
        // a single batch, one in batches of one: wires must be
        // byte-identical.
        let (mut batched, _) = pair();
        let (mut looped, server) = pair();
        let payloads: Vec<Vec<u8>> = (0..9usize)
            .map(|k| {
                (0..[0, 1, 7, 16, 33, 120, 1400][k % 7])
                    .map(|i| (i + k) as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let mut wires = vec![Vec::new(); refs.len()];
        batched.encrypt_many_into(&refs, &mut wires);
        for (payload, wire) in refs.iter().zip(wires.iter()) {
            assert_eq!(*wire, looped.encrypt(payload));
            assert_eq!(server.decrypt(wire).unwrap().payload, *payload);
        }
        assert_eq!(batched.next_seq(), refs.len() as u64);
        // An empty batch is a no-op.
        batched.encrypt_many_into(&[], &mut []);
        assert_eq!(batched.next_seq(), refs.len() as u64);
    }

    #[test]
    fn decrypt_many_matches_single_path_verdicts_and_accounting() {
        let (mut client, server) = pair();
        let good0 = client.encrypt(b"first");
        let mut tampered = client.encrypt(b"second");
        tampered[10] ^= 0x40;
        let good1 = client.encrypt(b"third");
        let truncated = vec![0u8; 8 + TAG_LEN - 1];
        let reflected = {
            // Stamped with the server's own direction: authenticates on
            // the server's key stream? No — build it from a ToClient
            // session on the same key so the tag verifies but the
            // direction check fails.
            let key = Base64Key::from_bytes([3u8; 16]);
            Session::new(key, Direction::ToClient).encrypt(b"mirror")
        };
        let wires: Vec<&[u8]> = vec![&good0, &tampered, &truncated, &reflected, &good1];
        let mut payloads = vec![b"stale".to_vec(); wires.len()];
        let results = server.decrypt_many_into(&wires, &mut payloads);
        assert_eq!(results[0], Ok(0));
        assert_eq!(results[1], Err(CryptoError::BadTag));
        assert_eq!(results[2], Err(CryptoError::Truncated));
        assert_eq!(results[3], Err(CryptoError::BadDirection));
        assert_eq!(results[4], Ok(2));
        assert_eq!(payloads[0], b"first");
        assert_eq!(payloads[4], b"third");
        for k in [1, 2, 3] {
            assert!(
                payloads[k].is_empty(),
                "failed packet {k} must release nothing"
            );
        }
        // Truncated wire skipped OCB; the other four were opened.
        assert_eq!(server.decrypt_count(), 4);
        // Single-path verdicts agree packet by packet.
        let (_, single) = pair();
        let mut buf = Vec::new();
        for (wire, result) in wires.iter().zip(results.iter()) {
            assert_eq!(single.decrypt_into(wire, &mut buf), *result);
        }
    }

    #[test]
    fn snapshot_round_trip_continues_the_sequence_and_the_counter() {
        let (mut client, server) = pair();
        for _ in 0..300 {
            client.encrypt(b"x");
        }
        server.decrypt(&client.encrypt(b"y")).unwrap();
        let mut bytes = Vec::new();
        client.encode_into(&mut bytes);
        bytes.push(0xee); // the next layer's first byte
        let mut r = Reader::new(&bytes);
        let mut twin = Session::decode(&mut r, Direction::ToServer).expect("decodes");
        assert_eq!(r.byte(), Some(0xee), "reads exactly its own bytes");
        assert_eq!(twin.encrypt(b"next"), client.encrypt(b"next"));
        bytes.clear();
        server.encode_into(&mut bytes);
        let twin = Session::decode(&mut Reader::new(&bytes), Direction::ToClient).expect("decodes");
        assert_eq!(twin.decrypt_count(), 1);

        // A sequence number past the last usable one would panic in the
        // next `encrypt`; it is refused here instead.
        let mut spent = vec![3u8; 16];
        put_varint(&mut spent, MAX_SEQ + 1);
        put_varint(&mut spent, 0);
        assert!(Session::decode(&mut Reader::new(&spent), Direction::ToClient).is_none());
    }

    #[test]
    fn a_restored_decrypt_counter_at_its_limit_saturates() {
        // Snapshot bytes come from outside the process; a counter at
        // `u64::MAX` must not overflow at the next open.
        let (mut client, _) = pair();
        let mut bytes = vec![3u8; 16];
        put_varint(&mut bytes, 0);
        put_varint(&mut bytes, u64::MAX);
        let server =
            Session::decode(&mut Reader::new(&bytes), Direction::ToClient).expect("decodes");
        assert_eq!(
            server.decrypt(&client.encrypt(b"ok")).unwrap().payload,
            b"ok"
        );
        assert_eq!(server.decrypt_count(), u64::MAX);
    }
}
