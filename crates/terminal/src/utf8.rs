//! Incremental UTF-8 decoding for the byte-at-a-time parser.
//!
//! The terminal receives a byte stream that may split multi-byte characters
//! across writes (and across SSP instructions), so decoding must carry state
//! between calls. Invalid sequences decode to U+FFFD, one replacement per
//! bogus byte, matching the common terminal-emulator convention.

/// Streaming UTF-8 decoder.
///
/// Feed bytes one at a time; each call yields zero or more decoded
/// characters (more than one only when an invalid prefix is flushed).
///
/// # Examples
///
/// ```
/// use mosh_terminal::utf8::Utf8Decoder;
///
/// let mut d = Utf8Decoder::new();
/// let mut out = String::new();
/// for b in "héllo".bytes() {
///     for c in d.push(b) {
///         out.push(c);
///     }
/// }
/// assert_eq!(out, "héllo");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Utf8Decoder {
    /// Accumulated code point bits.
    acc: u32,
    /// Continuation bytes still expected.
    needed: u8,
    /// Lower bound to reject overlong encodings.
    min: u32,
}

/// Result of pushing one byte: up to 2 chars (replacement + restart).
#[derive(Debug, Clone, Copy)]
pub struct Decoded {
    buf: [char; 2],
    len: u8,
}

impl Decoded {
    fn none() -> Self {
        Decoded {
            buf: ['\0'; 2],
            len: 0,
        }
    }

    fn one(c: char) -> Self {
        Decoded {
            buf: [c, '\0'],
            len: 1,
        }
    }

    fn two(a: char, b: char) -> Self {
        Decoded {
            buf: [a, b],
            len: 2,
        }
    }
}

impl Iterator for Decoded {
    type Item = char;

    fn next(&mut self) -> Option<char> {
        if self.len == 0 {
            return None;
        }
        let c = self.buf[0];
        self.buf[0] = self.buf[1];
        self.len -= 1;
        Some(c)
    }
}

const REPLACEMENT: char = '\u{fffd}';

impl Utf8Decoder {
    /// Creates a decoder in the ground state.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if the decoder is mid-sequence (bytes are buffered).
    pub fn pending(&self) -> bool {
        self.needed > 0
    }

    /// Pushes one byte, yielding any completed characters.
    pub fn push(&mut self, byte: u8) -> Decoded {
        if self.needed == 0 {
            match byte {
                0x00..=0x7f => Decoded::one(byte as char),
                0xc2..=0xdf => {
                    self.start(u32::from(byte & 0x1f), 1, 0x80);
                    Decoded::none()
                }
                0xe0..=0xef => {
                    self.start(u32::from(byte & 0x0f), 2, 0x800);
                    Decoded::none()
                }
                0xf0..=0xf4 => {
                    self.start(u32::from(byte & 0x07), 3, 0x10000);
                    Decoded::none()
                }
                // Bare continuation bytes, overlong starters (0xc0/0xc1),
                // and out-of-range starters (0xf5..) are each one error.
                _ => Decoded::one(REPLACEMENT),
            }
        } else if (0x80..=0xbf).contains(&byte) {
            self.acc = (self.acc << 6) | u32::from(byte & 0x3f);
            self.needed -= 1;
            if self.needed > 0 {
                return Decoded::none();
            }
            let cp = self.acc;
            let min = self.min;
            self.reset();
            if cp < min || (0xd800..=0xdfff).contains(&cp) {
                Decoded::one(REPLACEMENT)
            } else {
                Decoded::one(char::from_u32(cp).unwrap_or(REPLACEMENT))
            }
        } else {
            // Sequence interrupted: emit a replacement for the bad prefix,
            // then reprocess this byte from the ground state.
            self.reset();
            let mut again = self.push(byte);
            if again.len == 0 {
                Decoded::one(REPLACEMENT)
            } else if again.len == 1 {
                Decoded::two(REPLACEMENT, again.next().expect("len checked"))
            } else {
                // Cannot happen: ground-state push yields at most one char.
                Decoded::one(REPLACEMENT)
            }
        }
    }

    fn start(&mut self, acc: u32, needed: u8, min: u32) {
        self.acc = acc;
        self.needed = needed;
        self.min = min;
    }

    /// Serializes the mid-sequence decoding state for a session snapshot.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        mosh_wire::put_varint(out, u64::from(self.acc));
        out.push(self.needed);
        mosh_wire::put_varint(out, u64::from(self.min));
    }

    /// Rebuilds a decoder from [`Self::encode_into`] output.
    pub(crate) fn decode(r: &mut mosh_wire::Reader<'_>) -> Option<Self> {
        let acc = u32::try_from(r.varint()?).ok()?;
        let needed = r.byte()?;
        if needed > 3 {
            return None;
        }
        let min = u32::try_from(r.varint()?).ok()?;
        Some(Utf8Decoder { acc, needed, min })
    }

    fn reset(&mut self) {
        self.acc = 0;
        self.needed = 0;
        self.min = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(bytes: &[u8]) -> String {
        let mut d = Utf8Decoder::new();
        let mut out = String::new();
        for &b in bytes {
            out.extend(d.push(b));
        }
        out
    }

    #[test]
    fn ascii_passes_through() {
        assert_eq!(decode_all(b"hello world"), "hello world");
    }

    #[test]
    fn multibyte_sequences_decode() {
        assert_eq!(decode_all("é漢🎉".as_bytes()), "é漢🎉");
    }

    #[test]
    fn split_sequences_carry_state() {
        let bytes = "漢".as_bytes();
        let mut d = Utf8Decoder::new();
        assert_eq!(d.push(bytes[0]).count(), 0);
        assert!(d.pending());
        assert_eq!(d.push(bytes[1]).count(), 0);
        let got: Vec<char> = d.push(bytes[2]).collect();
        assert_eq!(got, vec!['漢']);
    }

    #[test]
    fn bare_continuation_is_replacement() {
        assert_eq!(decode_all(&[0x80]), "\u{fffd}");
    }

    #[test]
    fn overlong_encoding_rejected() {
        // 0xc0 0xaf is an overlong '/', must not decode to '/'.
        let s = decode_all(&[0xc0, 0xaf]);
        assert!(!s.contains('/'));
        // 0xe0 0x80 0xaf likewise.
        let s = decode_all(&[0xe0, 0x80, 0xaf]);
        assert!(!s.contains('/'));
    }

    #[test]
    fn surrogate_encodings_rejected() {
        // 0xed 0xa0 0x80 would be U+D800.
        let s = decode_all(&[0xed, 0xa0, 0x80]);
        assert!(s.chars().all(|c| c == REPLACEMENT));
    }

    #[test]
    fn interrupted_sequence_yields_replacement_then_char() {
        // Start of a 2-byte sequence followed by ASCII.
        assert_eq!(decode_all(&[0xc3, b'x']), "\u{fffd}x");
    }

    #[test]
    fn interrupted_by_new_starter_decodes_second() {
        // 0xe0 (wants 2 more) then a complete 2-byte é.
        assert_eq!(decode_all(&[0xe0, 0xc3, 0xa9]), "\u{fffd}é");
    }

    #[test]
    fn out_of_range_starter_rejected() {
        assert_eq!(
            decode_all(&[0xf5, 0x80, 0x80, 0x80]),
            "\u{fffd}\u{fffd}\u{fffd}\u{fffd}"
        );
    }

    #[test]
    fn all_valid_chars_round_trip() {
        for cp in [0x7fu32, 0x80, 0x7ff, 0x800, 0xffff, 0x10000, 0x10ffff] {
            if let Some(c) = char::from_u32(cp) {
                let mut buf = [0u8; 4];
                let s = c.encode_utf8(&mut buf);
                assert_eq!(decode_all(s.as_bytes()), s.to_string());
            }
        }
    }
}
