//! The transport-layer Instruction: a self-contained state diff.
//!
//! Paper §2.3: "The transport sender updates the receiver to the current
//! state of the object by sending an Instruction: a self-contained message
//! listing the source and target states and the binary 'diff' between
//! them." Each instruction also piggybacks an acknowledgment (`ack_num`)
//! and tells the receiver which old states it may discard
//! (`throwaway_num`).
//!
//! An instruction travels in one of two forms, as Mosh's travel through
//! zlib before they are fragmented:
//!
//! * **Plain:** the protocol version, the four state numbers, the diff and
//!   the chaff, as varints and length-prefixed byte strings.
//! * **Compressed:** the tag byte `0x00` (no protocol version is 0), a
//!   varint giving the plain form's length, then the plain form as one
//!   LZ block (the crate's private `lz` codec). The decoded plain form
//!   carries its own version, so the version check is the same.
//!
//! [`Instruction::encode`] sends the compressed form when the plain one is
//! at least 64 bytes long and the compressed one is strictly shorter. No
//! state carries from one instruction to the next, so each stays a
//! self-contained fast-forward and a retransmission encodes to the same
//! bytes. What an observer sees is the compressed length, as in Mosh; the
//! chaff still pads it by 1–16 bytes.

use crate::{lz, SspError};
use mosh_wire::{put_bytes, put_varint, Reader};
use std::ops::Range;

/// The protocol version this implementation speaks.
pub const PROTOCOL_VERSION: u64 = 2;

/// The first byte of a compressed instruction, where a plain one has its
/// protocol version.
const COMPRESSED: u8 = 0;

/// The shortest plain form worth compressing. Below it are most of an
/// interactive session's instructions (acks, heartbeats, a keystroke and
/// its echo), and they hardly repeat themselves: on the benchmark's
/// typing workload (seed 1, 10 s) compressing the 87 % of instructions
/// under it would have saved 148 of their 2.4 MB, on the flood none, and
/// each attempt costs CPU.
const COMPRESS_FROM: usize = 64;

/// A self-contained state-synchronization message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instruction {
    /// Protocol version (receivers reject mismatches).
    pub protocol_version: u64,
    /// The source state number the diff applies to.
    pub old_num: u64,
    /// The target state number the diff produces.
    pub new_num: u64,
    /// Acknowledgment: the highest-numbered remote state we have applied.
    pub ack_num: u64,
    /// The receiver may discard its copies of states numbered below this.
    pub throwaway_num: u64,
    /// The object-defined logical diff from `old_num` to `new_num`.
    pub diff: Vec<u8>,
}

impl Instruction {
    /// Serializes the instruction with `chaff`, random-looking padding
    /// (Mosh pads instructions to resist traffic analysis of keystroke
    /// timing/length patterns), and compresses the result when that makes
    /// it shorter (see the module doc).
    pub fn encode(&self, chaff: &[u8]) -> Vec<u8> {
        let plain = self.encode_plain(chaff);
        if plain.len() < COMPRESS_FROM {
            return plain;
        }
        let mut packed = Vec::with_capacity(plain.len());
        packed.push(COMPRESSED);
        put_varint(&mut packed, plain.len() as u64);
        lz::compress_into(&plain, &mut packed);
        if packed.len() < plain.len() {
            packed
        } else {
            plain
        }
    }

    fn encode_plain(&self, chaff: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.diff.len() + chaff.len() + 24);
        put_varint(&mut out, self.protocol_version);
        put_varint(&mut out, self.old_num);
        put_varint(&mut out, self.new_num);
        put_varint(&mut out, self.ack_num);
        put_varint(&mut out, self.throwaway_num);
        put_bytes(&mut out, &self.diff);
        put_bytes(&mut out, chaff);
        out
    }

    /// Parses an instruction in either form, discarding the chaff. Bytes
    /// past the chaff are refused. The plain form's buffer (`buf` itself,
    /// or the one decompressed from it) becomes the diff in place.
    pub fn decode(buf: Vec<u8>) -> Result<Instruction, SspError> {
        let mut plain = match buf.split_first() {
            Some((&COMPRESSED, packed)) => Self::decompress(packed)?,
            _ => buf,
        };
        let (mut instruction, diff) = Self::parse_plain(&plain)?;
        plain.truncate(diff.end);
        plain.drain(..diff.start);
        instruction.diff = plain;
        Ok(instruction)
    }

    /// The plain form a compressed one (past its tag byte) stands for.
    fn decompress(packed: &[u8]) -> Result<Vec<u8>, SspError> {
        let mut r = Reader::new(packed);
        let declared = r.varint().and_then(|n| usize::try_from(n).ok());
        let (Some(declared), Some(block)) = (declared, r.take(r.remaining())) else {
            return Err(SspError::Malformed);
        };
        // A block cannot stand for more than this, so what is allocated
        // stays in proportion to what arrived.
        if declared > block.len().saturating_mul(lz::MAX_EXPANSION) {
            return Err(SspError::Malformed);
        }
        let plain = lz::decompress(block, declared).ok_or(SspError::Malformed)?;
        if plain.first() == Some(&COMPRESSED) {
            return Err(SspError::Malformed);
        }
        Ok(plain)
    }

    /// Reads a plain form through its chaff, to its last byte. Returns the
    /// instruction with an empty diff, and where in `buf` the diff is.
    fn parse_plain(buf: &[u8]) -> Result<(Instruction, Range<usize>), SspError> {
        let mut r = Reader::new(buf);
        let protocol_version = r.varint().ok_or(SspError::Malformed)?;
        if protocol_version != PROTOCOL_VERSION {
            return Err(SspError::VersionMismatch);
        }
        let mut fields = || {
            let instruction = Instruction {
                protocol_version,
                old_num: r.varint()?,
                new_num: r.varint()?,
                ack_num: r.varint()?,
                throwaway_num: r.varint()?,
                diff: Vec::new(),
            };
            let diff = r.bytes()?.len();
            let end = buf.len() - r.remaining();
            r.bytes()?; // the chaff
            r.end()?;
            Some((instruction, end - diff..end))
        };
        fields().ok_or(SspError::Malformed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Decodes a copy of `buf`.
    fn decode(buf: &[u8]) -> Result<Instruction, SspError> {
        Instruction::decode(buf.to_vec())
    }

    fn sample() -> Instruction {
        Instruction {
            protocol_version: PROTOCOL_VERSION,
            old_num: 3,
            new_num: 4,
            ack_num: 17,
            throwaway_num: 2,
            diff: b"the diff".to_vec(),
        }
    }

    #[test]
    fn round_trips() {
        let i = sample();
        assert_eq!(decode(&i.encode(b"")).unwrap(), i);
    }

    #[test]
    fn round_trips_with_chaff() {
        let i = sample();
        let encoded = i.encode(&[0xaa; 13]);
        assert_eq!(decode(&encoded).unwrap(), i);
    }

    #[test]
    fn chaff_changes_length_not_content() {
        let i = sample();
        let a = i.encode(&[0x55; 1]);
        let b = i.encode(&[0x55; 16]);
        assert_ne!(a.len(), b.len());
        assert_eq!(decode(&a).unwrap(), decode(&b).unwrap());
    }

    #[test]
    fn rejects_wrong_version() {
        let mut i = sample();
        i.protocol_version = PROTOCOL_VERSION + 1;
        assert_eq!(decode(&i.encode(b"")), Err(SspError::VersionMismatch));
    }

    #[test]
    fn rejects_truncation() {
        let full = sample().encode(b"");
        for cut in 0..full.len() {
            // Some prefixes happen to parse if the diff shrinks to fit, but
            // none may panic; truncation inside the header must error.
            let _ = decode(&full[..cut]);
        }
        assert!(decode(&full[..3]).is_err());
    }

    #[test]
    fn empty_diff_is_a_valid_heartbeat() {
        let i = Instruction {
            protocol_version: PROTOCOL_VERSION,
            old_num: 5,
            new_num: 5,
            ack_num: 9,
            throwaway_num: 5,
            diff: Vec::new(),
        };
        let decoded = decode(&i.encode(b"pad")).unwrap();
        assert!(decoded.diff.is_empty());
        assert_eq!(decoded.new_num, 5);
    }

    /// A compressed instruction: the tag, `declared`, then `block`.
    fn packed(declared: u64, block: &[u8]) -> Vec<u8> {
        let mut out = vec![COMPRESSED];
        put_varint(&mut out, declared);
        out.extend_from_slice(block);
        out
    }

    /// The LZ block of `plain`, and `plain`'s compressed form.
    fn compress(plain: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let mut block = Vec::new();
        lz::compress_into(plain, &mut block);
        let whole = packed(plain.len() as u64, &block);
        (block, whole)
    }

    /// An instruction whose compressed form is pinned byte for byte.
    fn pinned() -> Instruction {
        Instruction {
            protocol_version: PROTOCOL_VERSION,
            old_num: 1,
            new_num: 2,
            ack_num: 3,
            throwaway_num: 1,
            diff: b"abcd".repeat(20),
        }
    }

    #[test]
    fn the_compressed_layout_is_pinned() {
        let i = pinned();
        let encoded = i.encode(b"ch");
        #[rustfmt::skip]
        let expected = [
            COMPRESSED, 89, // the tag and the plain form's length
            0xaf, 2, 1, 2, 3, 1, 80, b'a', b'b', b'c', b'd', // 10 literals
            4, 0, 55, // a match 4 back, 4 + 15 + 55 = 74 long
            0x50, b'c', b'd', 2, b'c', b'h', // the last 5 bytes stay literals
        ];
        assert_eq!(encoded, expected);
        assert_eq!(decode(&encoded).unwrap(), i);
    }

    #[test]
    fn short_or_incompressible_instructions_stay_plain() {
        let short = sample().encode(b"pad");
        assert_eq!(short, sample().encode_plain(b"pad"));
        let noise: Vec<u8> = (0..200u32)
            .map(|n| (n.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let i = Instruction {
            diff: noise,
            ..sample()
        };
        assert_eq!(i.encode(b"x"), i.encode_plain(b"x"));
        assert_eq!(i.encode(b"x")[0], PROTOCOL_VERSION as u8);
    }

    #[test]
    fn trailing_bytes_are_refused_in_either_form() {
        for i in [sample(), pinned()] {
            let mut encoded = i.encode(b"chaff");
            assert_eq!(decode(&encoded).unwrap(), i);
            encoded.push(0);
            assert_eq!(decode(&encoded), Err(SspError::Malformed));
        }
        // Inside the compressed block: the plain form with a byte past
        // its chaff, compressed whole.
        let mut plain = pinned().encode_plain(b"chaff");
        plain.push(0);
        assert_eq!(decode(&compress(&plain).1), Err(SspError::Malformed));
    }

    #[test]
    fn a_declared_length_past_the_largest_expansion_is_refused() {
        let plain = pinned().encode_plain(b"");
        let (block, whole) = compress(&plain);
        assert_eq!(decode(&whole).unwrap(), pinned());
        let most = (block.len() * lz::MAX_EXPANSION) as u64;
        // Refused before the block is read: no decode matches it anyway.
        assert_eq!(decode(&packed(most + 1, &block)), Err(SspError::Malformed));
        assert_eq!(decode(&packed(u64::MAX, &block)), Err(SspError::Malformed));
        assert_eq!(decode(&[COMPRESSED]), Err(SspError::Malformed));
        assert_eq!(decode(&[COMPRESSED, 0]), Err(SspError::Malformed));
    }

    #[test]
    fn a_block_that_misses_its_declared_length_is_refused() {
        let plain = pinned().encode_plain(b"");
        let (block, _) = compress(&plain);
        let n = plain.len() as u64;
        for declared in [0, 1, n - 1, n + 1, 2 * n] {
            assert_eq!(
                decode(&packed(declared, &block)),
                Err(SspError::Malformed),
                "declared {declared}"
            );
        }
        for cut in 0..block.len() {
            assert_eq!(decode(&packed(n, &block[..cut])), Err(SspError::Malformed));
        }
    }

    #[test]
    fn match_offsets_of_zero_or_past_the_output_are_refused() {
        // The pinned layout's one match reaches 4 back from 10 bytes.
        let good = pinned().encode(b"ch");
        assert_eq!(good[13..15], [4, 0]);
        assert_eq!(decode(&good).unwrap(), pinned());
        for offset in [0u16, 11, u16::MAX] {
            let mut bad = good.clone();
            bad[13..15].copy_from_slice(&offset.to_le_bytes());
            assert_eq!(decode(&bad), Err(SspError::Malformed), "offset {offset}");
        }
    }

    #[test]
    fn a_body_that_is_compressed_again_is_refused() {
        let (_, inner) = compress(&pinned().encode_plain(b""));
        let (_, outer) = compress(&inner);
        assert_eq!(decode(&inner).unwrap(), pinned());
        assert_eq!(decode(&outer), Err(SspError::Malformed));
    }

    /// A diff of random bytes, of one short run repeated, or nothing.
    fn diff() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..700),
            (proptest::collection::vec(any::<u8>(), 1..9), 1usize..300)
                .prop_map(|(w, n)| w.repeat(n)),
            Just(Vec::new()),
        ]
    }

    proptest! {
        #[test]
        fn either_form_round_trips_and_the_shorter_is_sent(
            nums in (any::<u64>(), 0u64..1000, any::<u64>(), 0u64..1000),
            diff in diff(),
            chaff in proptest::collection::vec(any::<u8>(), 1..17),
        ) {
            let i = Instruction {
                protocol_version: PROTOCOL_VERSION,
                old_num: nums.0,
                new_num: nums.1,
                ack_num: nums.2,
                throwaway_num: nums.3,
                diff,
            };
            let encoded = i.encode(&chaff);
            prop_assert_eq!(decode(&encoded), Ok(i.clone()));
            let plain = i.encode_plain(&chaff);
            let (_, compressed) = compress(&plain);
            let shorter = plain.len() >= COMPRESS_FROM && compressed.len() < plain.len();
            prop_assert_eq!(encoded[0] == COMPRESSED, shorter);
            prop_assert_eq!(encoded, if shorter { compressed } else { plain });
        }
    }
}
