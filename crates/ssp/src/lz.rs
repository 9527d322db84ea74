//! A byte-aligned LZ77 codec for serialized instructions.
//!
//! Mosh runs every instruction through zlib before fragmenting it
//! (`src/network/compressor.cc`). This is the same idea without an entropy
//! coder: the LZ4 block layout
//! (<https://github.com/lz4/lz4/blob/dev/doc/lz4_Block_format.md>), a run
//! of sequences, each a token byte (literal count in the high nibble,
//! match length less [`MIN_MATCH`] in the low one, 15 meaning "more length
//! bytes follow, each added, until one is below 255"), the literals, then
//! a two-byte little-endian offset back into the output and the match
//! length's extra bytes. The last sequence is literals only; this encoder
//! also keeps the layout's end-of-block rules, so any LZ4 block decoder
//! reads what it writes. The decoder here does not ask for them.
//!
//! A block is decoded against the length its sender declared and nothing
//! is carried from one block to the next, so each instruction stays a
//! self-contained fast-forward.

use mosh_wire::Reader;

/// The shortest match the layout can express.
const MIN_MATCH: usize = 4;

/// The layout's end-of-block rules, which let an LZ4 decoder copy in
/// whole words: the last match starts at least this far from the end...
const MATCH_START_LIMIT: usize = 12;

/// ...and ends at least this far from it, leaving that many literals.
const LAST_LITERALS: usize = 5;

/// Hash table entries at most: one per byte of a full-screen repaint,
/// and 8 KiB to clear per call.
const MAX_TABLE: usize = 4096;

/// The most bytes one block byte can stand for: a match length's extra
/// byte of 255 adds 255 output bytes.
pub(crate) const MAX_EXPANSION: usize = 255;

/// Appends the LZ block of `input` to `out`: greedy, one probe per
/// position into a hash table of 4-byte windows.
pub(crate) fn compress_into(input: &[u8], out: &mut Vec<u8>) {
    let size = input.len().next_power_of_two().clamp(16, MAX_TABLE);
    let shift = 32 - size.trailing_zeros();
    // Each entry holds the low 16 bits of the last position whose window
    // hashed there, so the offset back to it is a wrapping difference and
    // never more than the layout allows. An entry that is empty or too
    // old names some earlier position, and the window compare refuses it.
    let mut table = vec![0u16; size];
    let window = |at: usize| u32::from_le_bytes(input[at..at + 4].try_into().expect("4 bytes"));
    let match_end = input.len().saturating_sub(LAST_LITERALS);
    let (mut anchor, mut at) = (0, 0);
    while at + MATCH_START_LIMIT <= input.len() {
        let w = window(at);
        let slot = (w.wrapping_mul(2_654_435_761) >> shift) as usize;
        let last = std::mem::replace(&mut table[slot], at as u16);
        let offset = usize::from((at as u16).wrapping_sub(last));
        if offset == 0 || offset > at || window(at - offset) != w {
            at += 1;
            continue;
        }
        let from = at - offset;
        let len = MIN_MATCH
            + common_prefix(
                &input[at + MIN_MATCH..match_end],
                &input[from + MIN_MATCH..],
            );
        sequence(out, &input[anchor..at], Some((offset, len)));
        at += len;
        anchor = at;
    }
    sequence(out, &input[anchor..], None);
}

/// How many leading bytes `a` and `b` share, compared eight at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut n = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8 bytes"));
        let differ = word(x) ^ word(y);
        if differ != 0 {
            return n + differ.trailing_zeros() as usize / 8;
        }
        n += 8;
    }
    n + a[n..]
        .iter()
        .zip(&b[n..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Appends one sequence: `literals`, then the match `(offset, len)`, or
/// nothing when this is the last sequence.
fn sequence(out: &mut Vec<u8>, literals: &[u8], matched: Option<(usize, usize)>) {
    let extra = matched.map_or(0, |(_, len)| len - MIN_MATCH);
    out.push(((literals.len().min(15) as u8) << 4) | extra.min(15) as u8);
    length_bytes(out, literals.len());
    out.extend_from_slice(literals);
    if let Some((offset, _)) = matched {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        length_bytes(out, extra);
    }
}

/// The bytes after a nibble of 15: `n - 15` in steps of 255.
fn length_bytes(out: &mut Vec<u8>, n: usize) {
    if n < 15 {
        return;
    }
    let mut rest = n - 15;
    while rest >= 255 {
        out.push(255);
        rest -= 255;
    }
    out.push(rest as u8);
}

/// Decodes `block`, which must produce exactly `len` bytes. `None` for a
/// truncated block, a match offset of 0 or past the output, or any other
/// length. Allocates `len` bytes once; the caller bounds `len`.
pub(crate) fn decompress(block: &[u8], len: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(len);
    let mut r = Reader::new(block);
    loop {
        let token = r.byte()?;
        let literals = read_length(&mut r, token >> 4)?;
        if literals > len - out.len() {
            return None;
        }
        out.extend_from_slice(r.take(literals)?);
        if r.remaining() == 0 {
            return (out.len() == len).then_some(out);
        }
        let offset = usize::from(u16::from_le_bytes(r.take(2)?.try_into().ok()?));
        let mut remaining = MIN_MATCH.checked_add(read_length(&mut r, token & 15)?)?;
        if offset == 0 || offset > out.len() || remaining > len - out.len() {
            return None;
        }
        // A match may overlap what it writes: copy in steps that each
        // reach only bytes already written.
        let start = out.len() - offset;
        while remaining > 0 {
            let n = remaining.min(out.len() - start);
            out.extend_from_within(start..start + n);
            remaining -= n;
        }
    }
}

/// A nibble's length, with its extra bytes read when it is 15.
fn read_length(r: &mut Reader, nibble: u8) -> Option<usize> {
    let mut n = usize::from(nibble);
    if nibble == 15 {
        loop {
            let b = r.byte()?;
            n = n.checked_add(usize::from(b))?;
            if b < 255 {
                break;
            }
        }
    }
    Some(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn compress(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        compress_into(input, &mut out);
        out
    }

    #[test]
    fn repeated_bytes_shrink_to_an_overlapping_match() {
        let input = vec![b'p'; 1300];
        let block = compress(&input);
        // One literal, one match reaching back a single byte, then the
        // five literals the layout leaves at the end.
        assert_eq!(&block[..4], &[0x1f, b'p', 1, 0]);
        assert_eq!(
            &block[block.len() - 6..],
            &[0x50, b'p', b'p', b'p', b'p', b'p']
        );
        assert_eq!(block.len(), 16);
        assert_eq!(decompress(&block, input.len()).unwrap(), input);
    }

    #[test]
    fn long_literal_runs_use_extra_length_bytes() {
        let input: Vec<u8> = (0..=255u8).collect();
        let block = compress(&input);
        // 256 literals: a nibble of 15, then 241, then the bytes.
        assert_eq!(block[..3], [0xf0, 241, 0]);
        assert_eq!(block.len(), 2 + 256);
        assert_eq!(decompress(&block, 256).unwrap(), input);
    }

    #[test]
    fn matches_keep_clear_of_the_end_of_the_block() {
        // Twelve bytes are too few for any match; from thirteen on, the
        // last five are literals.
        assert_eq!(
            compress(&[7; 12]),
            [0xc0, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7]
        );
        assert_eq!(compress(&[7; 13]), [0x13, 7, 1, 0, 0x50, 7, 7, 7, 7, 7]);
    }

    #[test]
    fn a_block_must_fill_exactly_its_declared_length() {
        let input = b"abcdabcdabcdabcdabcd".to_vec();
        let block = compress(&input);
        assert_eq!(decompress(&block, input.len()).unwrap(), input);
        assert_eq!(decompress(&block, input.len() - 1), None);
        assert_eq!(decompress(&block, input.len() + 1), None);
        for cut in 0..block.len() {
            assert_eq!(decompress(&block[..cut], input.len()), None, "cut {cut}");
        }
    }

    #[test]
    fn offsets_of_zero_or_past_the_output_are_refused() {
        // Two literals, then a four-byte match.
        let with_offset = |offset: u16| {
            let mut b = vec![0x20, b'a', b'b'];
            b.extend_from_slice(&offset.to_le_bytes());
            b.push(0x00); // the last sequence: no literals
            b
        };
        assert_eq!(decompress(&with_offset(2), 6).unwrap(), b"ababab");
        assert_eq!(decompress(&with_offset(1), 6).unwrap(), b"abbbbb");
        assert_eq!(decompress(&with_offset(0), 6), None);
        assert_eq!(decompress(&with_offset(3), 6), None);
    }

    #[test]
    fn a_match_may_not_run_past_the_declared_length() {
        // One literal and a match of 4 + 15 + 255 · 4 bytes, then the
        // empty last sequence.
        let block = [0x1f, b'z', 1, 0, 255, 255, 255, 255, 0, 0x00];
        let out = decompress(&block, 1 + 4 + 15 + 4 * 255);
        assert_eq!(out.map(|o| o.len()), Some(1040));
        assert_eq!(decompress(&block, 8), None);
    }

    #[test]
    fn matches_reach_back_at_most_the_two_byte_offset() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let noise: Vec<u8> = (0..1000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        // The noise, a run of zeros, the noise again: the repeat is one
        // match when it is within reach, literals when it is not.
        for gap in [64_000, 66_000] {
            let input = [&noise[..], &vec![0; gap], &noise[..]].concat();
            let block = compress(&input);
            assert_eq!(decompress(&block, input.len()).unwrap(), input);
            let reached = block.len() < 1500;
            assert_eq!(
                reached,
                1000 + gap <= u16::MAX as usize,
                "gap {gap}: {}",
                block.len()
            );
        }
    }

    proptest! {
        #[test]
        fn any_input_round_trips(
            input in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), any::<u8>()], 0..3000),
        ) {
            let block = compress(&input);
            prop_assert_eq!(decompress(&block, input.len()), Some(input.clone()));
            // Worst case: every byte a literal, one length byte per 255.
            prop_assert!(block.len() <= input.len() + input.len() / 255 + 2);
        }

        #[test]
        fn hostile_blocks_never_panic(
            block in proptest::collection::vec(any::<u8>(), 0..64),
            len in 0usize..4096,
        ) {
            if let Some(out) = decompress(&block, len) {
                prop_assert_eq!(out.len(), len);
            }
        }
    }
}
