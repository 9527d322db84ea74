//! The transport-layer Instruction: a self-contained state diff.
//!
//! Paper §2.3: "The transport sender updates the receiver to the current
//! state of the object by sending an Instruction: a self-contained message
//! listing the source and target states and the binary 'diff' between
//! them." Each instruction also piggybacks an acknowledgment (`ack_num`)
//! and tells the receiver which old states it may discard
//! (`throwaway_num`).

use crate::SspError;
use mosh_wire::{put_bytes, put_varint, Reader};

/// The protocol version this implementation speaks.
pub const PROTOCOL_VERSION: u64 = 2;

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
    /// Serializes the instruction, appending `chaff_len` random-looking
    /// padding bytes (Mosh pads instructions to resist traffic analysis of
    /// keystroke timing/length patterns).
    pub fn encode(&self, chaff: &[u8]) -> Vec<u8> {
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

    /// Parses an instruction, discarding the chaff.
    pub fn decode(buf: &[u8]) -> Result<Instruction, SspError> {
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
                diff: r.bytes()?.to_vec(),
            };
            r.bytes()?; // the chaff
            Some(instruction)
        };
        fields().ok_or(SspError::Malformed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(Instruction::decode(&i.encode(b"")).unwrap(), i);
    }

    #[test]
    fn round_trips_with_chaff() {
        let i = sample();
        let encoded = i.encode(&[0xaa; 13]);
        assert_eq!(Instruction::decode(&encoded).unwrap(), i);
    }

    #[test]
    fn chaff_changes_length_not_content() {
        let i = sample();
        let a = i.encode(&[0x55; 1]);
        let b = i.encode(&[0x55; 16]);
        assert_ne!(a.len(), b.len());
        assert_eq!(
            Instruction::decode(&a).unwrap(),
            Instruction::decode(&b).unwrap()
        );
    }

    #[test]
    fn rejects_wrong_version() {
        let mut i = sample();
        i.protocol_version = PROTOCOL_VERSION + 1;
        assert_eq!(
            Instruction::decode(&i.encode(b"")),
            Err(SspError::VersionMismatch)
        );
    }

    #[test]
    fn rejects_truncation() {
        let full = sample().encode(b"");
        for cut in 0..full.len() {
            // Some prefixes happen to parse if the diff shrinks to fit, but
            // none may panic; truncation inside the header must error.
            let _ = Instruction::decode(&full[..cut]);
        }
        assert!(Instruction::decode(&full[..3]).is_err());
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
        let decoded = Instruction::decode(&i.encode(b"pad")).unwrap();
        assert!(decoded.diff.is_empty());
        assert_eq!(decoded.new_num, 5);
    }
}
