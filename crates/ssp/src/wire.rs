//! Minimal binary wire helpers: LEB128-style varints and length-prefixed
//! byte strings.
//!
//! Mosh serializes instructions with protocol buffers; this crate uses the
//! same varint primitive directly, avoiding a code-generation dependency
//! while keeping the wire compact (state numbers are small early in a
//! session and grow slowly).

use crate::SspError;

pub use mosh_crypto::session::put_varint;
use mosh_crypto::session::take_varint;

/// Appends a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Appends a flag as one varint, 0 or 1.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_varint(out, u64::from(v));
}

/// Reads a flag written by [`put_bool`]; any other value is malformed.
pub fn get_bool(r: &mut Reader<'_>) -> Option<bool> {
    match r.varint().ok()? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

/// Appends an optional number: 0, or 1 followed by the value.
pub fn put_opt(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => put_varint(out, 0),
        Some(x) => {
            put_varint(out, 1);
            put_varint(out, x);
        }
    }
}

/// Reads an optional number written by [`put_opt`].
pub fn get_opt(r: &mut Reader<'_>) -> Option<Option<u64>> {
    match r.varint().ok()? {
        0 => Some(None),
        1 => Some(Some(r.varint().ok()?)),
        _ => None,
    }
}

/// A cursor over received bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Runs a decoder that reads off the front of a byte slice — one
    /// from a crate below this one — over the unread bytes, and skips
    /// what it consumed.
    pub fn sub<T>(&mut self, read: impl FnOnce(&mut &'a [u8]) -> Option<T>) -> Option<T> {
        let mut rest = &self.buf[self.pos..];
        let value = read(&mut rest)?;
        self.pos = self.buf.len() - rest.len();
        Some(value)
    }

    /// Reads a varint-encoded `u64`.
    pub fn varint(&mut self) -> Result<u64, SspError> {
        self.sub(take_varint).ok_or(SspError::Malformed)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SspError> {
        let len = self.varint()? as usize;
        if len > self.remaining() {
            return Err(SspError::Malformed);
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// Reads exactly `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SspError> {
        if n > self.remaining() {
            return Err(SspError::Malformed);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SspError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SspError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes(b.try_into().expect("length checked")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn varint_sizes_are_compact() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 5);
        assert_eq!(buf.len(), 1);
        buf.clear();
        put_varint(&mut buf, 300);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut r = Reader::new(&[0x80]);
        assert!(r.varint().is_err());
    }

    #[test]
    fn varint_rejects_overflow() {
        // 11 continuation bytes exceed 64 bits.
        let bytes = [0xffu8; 11];
        let mut r = Reader::new(&bytes);
        assert!(r.varint().is_err());
    }

    #[test]
    fn bytes_round_trips() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"payload");
        put_bytes(&mut buf, b"");
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes().unwrap(), b"payload");
        assert_eq!(r.bytes().unwrap(), b"");
    }

    #[test]
    fn bytes_rejects_bad_length() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 100);
        buf.extend_from_slice(b"short");
        let mut r = Reader::new(&buf);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn flags_and_options_round_trip_and_reject_other_tags() {
        let mut buf = Vec::new();
        put_bool(&mut buf, true);
        put_bool(&mut buf, false);
        put_opt(&mut buf, None);
        put_opt(&mut buf, Some(300));
        let mut r = Reader::new(&buf);
        assert_eq!(get_bool(&mut r), Some(true));
        assert_eq!(get_bool(&mut r), Some(false));
        assert_eq!(get_opt(&mut r), Some(None));
        assert_eq!(get_opt(&mut r), Some(Some(300)));
        assert_eq!(r.remaining(), 0);
        assert_eq!(get_bool(&mut Reader::new(&[2])), None);
        assert_eq!(get_opt(&mut Reader::new(&[2, 0])), None);
        assert_eq!(get_opt(&mut Reader::new(&[1])), None);
    }

    #[test]
    fn fixed_width_reads() {
        let mut r = Reader::new(&[0x12, 0x34, 0, 0, 0, 0, 0, 0, 0, 0xff]);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u64().unwrap(), 0xff);
        assert!(r.u16().is_err());
    }
}
