//! Fragmentation of instructions into MTU-sized pieces.
//!
//! A large screen repaint can exceed the path MTU, so instructions are
//! split into fragments, each tagged with the instruction id and a
//! fragment number whose high bit marks the final piece. The assembler
//! keeps only the newest instruction id it has seen: SSP never needs an
//! older instruction once a newer one exists, because every instruction is
//! a self-contained fast-forward (paper §2.2's idempotency principle).

use crate::SspError;
use mosh_wire::{put_bool, put_bytes, put_opt, put_varint, Reader};

/// Maximum bytes of fragment *payload* per datagram. Mosh uses a
/// conservative 500-byte MTU to survive exotic tunnels.
pub const FRAGMENT_PAYLOAD: usize = 500;

/// One fragment of a serialized instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// Instruction id (increments per distinct instruction).
    pub id: u64,
    /// Fragment index within the instruction.
    pub num: u16,
    /// True on the last fragment.
    pub last: bool,
    /// Payload bytes.
    pub contents: Vec<u8>,
}

impl Fragment {
    /// Serializes as `id(8) ‖ num|last(2) ‖ contents`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(10 + self.contents.len());
        out.extend_from_slice(&self.id.to_be_bytes());
        let num_field = self.num | if self.last { 0x8000 } else { 0 };
        out.extend_from_slice(&num_field.to_be_bytes());
        out.extend_from_slice(&self.contents);
        out
    }

    /// Parses a fragment from a datagram payload, which becomes its
    /// contents: the 10-byte header is drained in place.
    pub fn decode(mut buf: Vec<u8>) -> Result<Fragment, SspError> {
        let mut r = Reader::new(&buf);
        let (Some(id), Some(num_field)) = (r.u64(), r.u16()) else {
            return Err(SspError::Malformed);
        };
        buf.drain(..10);
        Ok(Fragment {
            id,
            num: num_field & 0x7fff,
            last: num_field & 0x8000 != 0,
            contents: buf,
        })
    }
}

/// Splits a serialized instruction into fragments.
pub fn fragment(id: u64, payload: &[u8], mtu: usize) -> Vec<Fragment> {
    assert!(mtu > 0, "fragment payload size must be positive");
    let mut chunks = payload.chunks(mtu);
    // An empty payload is still one (empty) fragment.
    let n = chunks.len().max(1);
    (0..n)
        .map(|i| Fragment {
            id,
            num: i as u16,
            last: i + 1 == n,
            contents: chunks.next().unwrap_or_default().to_vec(),
        })
        .collect()
}

/// Reassembles fragments, keeping only the newest instruction id.
#[derive(Debug, Default)]
pub struct FragmentAssembly {
    current_id: Option<u64>,
    pieces: Vec<Option<Vec<u8>>>,
    arrived: usize,
    total: Option<usize>,
}

impl FragmentAssembly {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the assembler for a session snapshot — the newest
    /// instruction id, the pieces that have arrived, and the expected
    /// piece count once the final fragment is in — so a half-assembled
    /// instruction survives a restore and resumes where it left off.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_opt(out, self.current_id);
        put_varint(out, self.pieces.len() as u64);
        for p in &self.pieces {
            put_bool(out, p.is_some());
            if let Some(b) = p {
                put_bytes(out, b);
            }
        }
        put_opt(out, self.total.map(|t| t as u64));
    }

    /// Reads an assembler written by [`FragmentAssembly::encode_into`];
    /// `arrived` is recounted. `None` for pieces or a total without an
    /// instruction id, or a total of zero.
    pub fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let current_id = r.opt()?;
        let mut pieces = Vec::new();
        for _ in 0..r.varint()? {
            pieces.push(match r.bool()? {
                false => None,
                true => Some(r.bytes()?.to_vec()),
            });
        }
        let total = match r.opt()? {
            None => None,
            Some(t) => Some(usize::try_from(t).ok()?),
        };
        if current_id.is_none() && (!pieces.is_empty() || total.is_some()) {
            return None;
        }
        if total == Some(0) {
            return None;
        }
        let arrived = pieces.iter().filter(|p| p.is_some()).count();
        Some(FragmentAssembly {
            current_id,
            pieces,
            arrived,
            total,
        })
    }

    /// Adds a fragment; returns the full instruction payload when complete:
    /// the first piece's buffer, extended by the rest, so a one-fragment
    /// instruction is handed up without a copy.
    ///
    /// Fragments of an id other than the newest-seen reset the buffer:
    /// stale instructions are abandoned mid-assembly, exactly as Mosh does.
    pub fn add(&mut self, frag: Fragment) -> Option<Vec<u8>> {
        if self.current_id != Some(frag.id) {
            // Never regress to an older instruction.
            if let Some(cur) = self.current_id {
                if frag.id < cur {
                    return None;
                }
            }
            self.current_id = Some(frag.id);
            self.pieces.clear();
            self.arrived = 0;
            self.total = None;
        }
        let idx = frag.num as usize;
        if idx >= self.pieces.len() {
            self.pieces.resize(idx + 1, None);
        }
        if self.pieces[idx].is_some() {
            return None; // Duplicate.
        }
        if frag.last {
            self.total = Some(idx + 1);
        }
        self.pieces[idx] = Some(frag.contents);
        self.arrived += 1;

        // Each slot is filled once, and the last fragment's number bounds
        // the rest: `total` pieces arrived is every slot filled.
        let total = self.total?;
        if self.arrived < total || self.pieces.len() > total {
            return None;
        }
        self.arrived = 0;
        self.total = None;
        self.pieces.drain(..).flatten().reduce(|mut out, p| {
            out.extend_from_slice(&p);
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_encode_decode() {
        let f = Fragment {
            id: 42,
            num: 3,
            last: true,
            contents: b"chunk".to_vec(),
        };
        assert_eq!(Fragment::decode(f.encode()).unwrap(), f);
    }

    #[test]
    fn single_fragment_for_small_payload() {
        let frags = fragment(1, b"small", 500);
        assert_eq!(frags.len(), 1);
        assert!(frags[0].last);
    }

    #[test]
    fn empty_payload_still_produces_a_fragment() {
        let frags = fragment(1, b"", 500);
        assert_eq!(frags.len(), 1);
        assert!(frags[0].last);
        assert!(frags[0].contents.is_empty());
    }

    #[test]
    fn splits_at_mtu() {
        let payload = vec![7u8; 1200];
        let frags = fragment(2, &payload, 500);
        assert_eq!(frags.len(), 3);
        assert_eq!(frags[0].contents.len(), 500);
        assert_eq!(frags[2].contents.len(), 200);
        assert!(!frags[0].last && !frags[1].last && frags[2].last);
    }

    #[test]
    fn reassembles_in_order() {
        let payload: Vec<u8> = (0..1300u32).map(|i| i as u8).collect();
        let mut asm = FragmentAssembly::new();
        let mut result = None;
        for f in fragment(9, &payload, 500) {
            result = asm.add(f);
        }
        assert_eq!(result.unwrap(), payload);
    }

    #[test]
    fn reassembles_out_of_order() {
        let payload: Vec<u8> = (0..1000u32).map(|i| (i * 3) as u8).collect();
        let mut frags = fragment(9, &payload, 300);
        frags.reverse();
        let mut asm = FragmentAssembly::new();
        let mut result = None;
        for f in frags {
            let r = asm.add(f);
            if r.is_some() {
                result = r;
            }
        }
        assert_eq!(result.unwrap(), payload);
    }

    #[test]
    fn duplicates_are_ignored() {
        let payload = vec![1u8; 600];
        let frags = fragment(5, &payload, 500);
        let mut asm = FragmentAssembly::new();
        assert!(asm.add(frags[0].clone()).is_none());
        assert!(asm.add(frags[0].clone()).is_none());
        assert_eq!(asm.add(frags[1].clone()).unwrap(), payload);
    }

    #[test]
    fn newer_id_preempts_partial_assembly() {
        let old = fragment(1, &vec![1u8; 900], 500);
        let new = fragment(2, &vec![2u8; 600], 500);
        let mut asm = FragmentAssembly::new();
        assert!(asm.add(old[0].clone()).is_none());
        assert!(asm.add(new[0].clone()).is_none());
        // The old id is below the current one, so it is ignored entirely.
        assert!(asm.add(old[1].clone()).is_none());
        assert_eq!(asm.add(new[1].clone()).unwrap(), vec![2u8; 600]);
    }

    #[test]
    fn stale_ids_are_dropped() {
        let mut asm = FragmentAssembly::new();
        let new = fragment(10, b"new", 500);
        let old = fragment(3, b"old", 500);
        assert_eq!(asm.add(new[0].clone()).unwrap(), b"new".to_vec());
        assert!(asm.add(old[0].clone()).is_none());
    }

    #[test]
    fn snapshot_restore_resumes_mid_assembly() {
        let payload: Vec<u8> = (0..1300u32).map(|i| (i * 7) as u8).collect();
        let frags = fragment(4, &payload, 500);
        let mut asm = FragmentAssembly::new();
        assert!(asm.add(frags[0].clone()).is_none());
        assert!(asm.add(frags[2].clone()).is_none());

        let mut bytes = Vec::new();
        asm.encode_into(&mut bytes);
        let mut r = Reader::new(&bytes);
        let mut restored = FragmentAssembly::decode(&mut r).expect("decodes");
        assert_eq!(r.remaining(), 0);
        assert_eq!(restored.add(frags[1].clone()).unwrap(), payload);
    }

    #[test]
    fn restore_rejects_inconsistent_parts() {
        let decode = |bytes: &[u8]| FragmentAssembly::decode(&mut Reader::new(bytes));
        // id | piece count, pieces | total
        assert!(decode(&[0, 1, 1, 1, 0xaa, 0]).is_none(), "a piece, no id");
        assert!(decode(&[0, 0, 1, 1]).is_none(), "a total, no id");
        assert!(decode(&[1, 3, 0, 1, 0]).is_none(), "a total of zero");
        assert!(
            decode(&[1, 3, 1, 2, 0]).is_none(),
            "a piece tag that is neither"
        );
        assert!(decode(&[0, 0, 0]).is_some(), "the empty assembler");
        assert!(decode(&[1, 3, 2, 0, 1, 1, 0xaa, 1, 2]).is_some());
    }

    #[test]
    fn reassembly_after_completion_starts_fresh() {
        let mut asm = FragmentAssembly::new();
        for id in 1..4u64 {
            let payload = vec![id as u8; 700];
            let mut out = None;
            for f in fragment(id, &payload, 500) {
                out = asm.add(f);
            }
            assert_eq!(out.unwrap(), payload);
        }
    }
}
