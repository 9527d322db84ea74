//! The one binary vocabulary of every instruction, diff and snapshot in
//! this workspace: LEB128 varints, length-prefixed byte strings, one-byte
//! flags and optional numbers, and a strict [`Reader`] for all of them.
//!
//! Mosh serializes instructions with protocol buffers (§2.3); this crate
//! uses the same varint primitive directly, avoiding a code-generation
//! dependency while keeping the wire compact (state numbers are small
//! early in a session and grow slowly). Every layer's snapshot is written
//! in the same words, so the format — and the bounds and overflow checks
//! a hostile input must meet — lives here alone.
//!
//! Decoding is strict: every read returns `None` on truncation, on a
//! varint that does not fit 64 bits, or on a flag or tag other than 0 or
//! 1, so a corrupt input is refused rather than misread.

/// Appends `v` as an LEB128 varint: seven bits per byte, low group first,
/// the high bit set on every byte but the last.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Appends a flag as one byte, 0 or 1.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Appends an optional number: the tag byte 0, or 1 followed by the value
/// as a varint.
pub fn put_opt(out: &mut Vec<u8>, v: Option<u64>) {
    put_bool(out, v.is_some());
    if let Some(x) = v {
        put_varint(out, x);
    }
}

/// A bounds-checked cursor over received bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// `Some` when every byte has been consumed: a decoder's last check
    /// that nothing trails what it read.
    pub fn end(&self) -> Option<()> {
        self.buf.is_empty().then_some(())
    }

    /// Reads one raw byte.
    pub fn byte(&mut self) -> Option<u8> {
        let (&b, rest) = self.buf.split_first()?;
        self.buf = rest;
        Some(b)
    }

    /// Reads exactly `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.buf.len() {
            return None;
        }
        let (s, rest) = self.buf.split_at(n);
        self.buf = rest;
        Some(s)
    }

    /// Reads a [`put_varint`] varint: at most ten bytes, the tenth at most
    /// 1, so the value fits 64 bits.
    pub fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for i in 0..10 {
            let b = self.byte()?;
            if i == 9 && b > 1 {
                return None;
            }
            v |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    /// Reads a [`put_bytes`] byte string.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = usize::try_from(self.varint()?).ok()?;
        self.take(n)
    }

    /// Reads a [`put_bytes`] byte string that must be UTF-8.
    pub fn string(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?.to_vec()).ok()
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        Some(u16::from_be_bytes(self.take(2)?.try_into().ok()?))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_be_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Reads a [`put_bool`] flag; any byte but 0 or 1 is refused.
    pub fn bool(&mut self) -> Option<bool> {
        match self.byte()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Reads a [`put_opt`] optional number.
    pub fn opt(&mut self) -> Option<Option<u64>> {
        if self.bool()? {
            Some(Some(self.varint()?))
        } else {
            Some(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varint_bytes(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, v);
        out
    }

    #[test]
    fn varints_round_trip_at_the_group_edges() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let buf = varint_bytes(v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint(), Some(v));
            assert_eq!(r.end(), Some(()));
        }
    }

    #[test]
    fn varints_take_one_byte_per_seven_bits() {
        for (v, len) in [
            (0u64, 1),
            (5, 1),
            (127, 1),
            (128, 2),
            (300, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::from(u32::MAX), 5),
            (u64::MAX, 10),
        ] {
            assert_eq!(varint_bytes(v).len(), len, "{v} encodes in {len} bytes");
        }
        assert_eq!(varint_bytes(0), [0]);
        assert_eq!(varint_bytes(127), [0x7f]);
        assert_eq!(varint_bytes(128), [0x80, 0x01]);
        assert_eq!(varint_bytes(300), [0xac, 0x02]);
    }

    #[test]
    fn varints_stop_at_ten_bytes_and_sixty_four_bits() {
        // u64::MAX is nine 0xff bytes and a tenth byte of 1.
        let mut max = vec![0xff; 9];
        max.push(1);
        assert_eq!(Reader::new(&max).varint(), Some(u64::MAX));
        // A tenth byte of 2 would set bit 64.
        let mut over = vec![0xff; 9];
        over.push(2);
        assert_eq!(Reader::new(&over).varint(), None);
        // A tenth byte with its continuation bit set asks for an eleventh.
        assert_eq!(Reader::new(&[0xff; 11]).varint(), None);
        let mut padded = vec![0x80; 9];
        padded.push(0x81);
        padded.push(0);
        assert_eq!(Reader::new(&padded).varint(), None);
        // Non-minimal encodings inside the ten bytes are read, as before.
        assert_eq!(Reader::new(&[0x80, 0x00]).varint(), Some(0));
    }

    #[test]
    fn byte_strings_round_trip() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"payload");
        put_bytes(&mut buf, b"");
        assert_eq!(buf[..2], [7, b'p']);
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes(), Some(&b"payload"[..]));
        assert_eq!(r.bytes(), Some(&b""[..]));
        assert_eq!(r.end(), Some(()));
    }

    #[test]
    fn fixed_width_reads_are_big_endian() {
        let mut r = Reader::new(&[0x12, 0x34, 0, 0, 0, 0, 0, 0, 0, 0xff]);
        assert_eq!(r.u16(), Some(0x1234));
        assert_eq!(r.u64(), Some(0xff));
        assert_eq!(r.u16(), None);
    }

    #[test]
    fn every_truncation_is_refused() {
        // A lone continuation byte is a varint cut short.
        assert_eq!(Reader::new(&[0x80]).varint(), None);
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        put_bytes(&mut buf, b"payload");
        put_bool(&mut buf, true);
        put_opt(&mut buf, Some(300));
        buf.extend_from_slice(&[0x12, 0x34]);
        buf.extend_from_slice(&7u64.to_be_bytes());
        let read = |bytes: &[u8]| {
            let mut r = Reader::new(bytes);
            let v = (
                r.varint()?,
                r.string()?,
                r.bool()?,
                r.opt()?,
                r.u16()?,
                r.u64()?,
            );
            r.end()?;
            Some(v)
        };
        assert_eq!(
            read(&buf),
            Some((u64::MAX, "payload".to_owned(), true, Some(300), 0x1234, 7))
        );
        for cut in 0..buf.len() {
            assert_eq!(read(&buf[..cut]), None, "cut at {cut}");
        }
    }

    #[test]
    fn flags_and_tags_are_one_byte_zero_or_one() {
        let mut buf = Vec::new();
        put_bool(&mut buf, false);
        put_bool(&mut buf, true);
        put_opt(&mut buf, None);
        put_opt(&mut buf, Some(5));
        assert_eq!(buf, [0, 1, 0, 1, 5]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.bool(), Some(false));
        assert_eq!(r.bool(), Some(true));
        assert_eq!(r.opt(), Some(None));
        assert_eq!(r.opt(), Some(Some(5)));
        assert_eq!(r.end(), Some(()));
        assert_eq!(Reader::new(&[2]).bool(), None);
        assert_eq!(Reader::new(&[2, 0]).opt(), None);
        // A varint spelling of 0 is no flag and no tag.
        assert_eq!(Reader::new(&[0x80, 0x00]).bool(), None);
        assert_eq!(Reader::new(&[0x80, 0x00]).opt(), None);
    }

    #[test]
    fn lengths_beyond_the_input_are_refused_without_reading() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 100);
        buf.extend_from_slice(b"short");
        assert_eq!(Reader::new(&buf).bytes(), None);
        let mut huge = Vec::new();
        put_varint(&mut huge, u64::MAX);
        assert_eq!(Reader::new(&huge).bytes(), None);
        let mut r = Reader::new(b"abc");
        assert_eq!(r.take(4), None);
        assert_eq!(r.remaining(), 3, "a refused take consumes nothing");
        assert_eq!(r.end(), None);
        assert_eq!(r.take(3), Some(&b"abc"[..]));
    }

    #[test]
    fn strings_must_be_utf8() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, "漢字".as_bytes());
        assert_eq!(Reader::new(&buf).string().as_deref(), Some("漢字"));
        let mut bad = Vec::new();
        put_bytes(&mut bad, &[0xff, 0xfe]);
        assert_eq!(Reader::new(&bad).string(), None);
    }
}
