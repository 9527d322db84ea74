//! Minimal varint wire helpers for terminal snapshots.
//!
//! The terminal crate is dependency-free, so the snapshot encoding used by
//! [`crate::Terminal::snapshot_bytes`] carries its own tiny LEB128
//! vocabulary instead of borrowing `mosh_ssp::wire`, plus the cell words
//! built on it (colour, renditions, cell). Decoding is strict:
//! every reader returns `None` on truncation, overlong varints, or invalid
//! payloads, so a corrupt snapshot is rejected rather than misread.

use crate::cell::{Attrs, Cell, Color};

/// Appends `v` as a LEB128 varint.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Appends a length-prefixed byte string.
pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Appends a bool as one byte (0 or 1).
pub(crate) fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// A strict, bounds-checked reader over a snapshot body.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn byte(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    pub(crate) fn boolean(&mut self) -> Option<bool> {
        match self.byte()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    pub(crate) fn varint(&mut self) -> Option<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return None; // overflow past u64
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
            if shift > 63 {
                return None;
            }
        }
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    pub(crate) fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.varint()? as usize;
        self.take(n)
    }

    /// A decoded `char`; rejects surrogate/out-of-range code points.
    pub(crate) fn ch(&mut self) -> Option<char> {
        char::from_u32(u32::try_from(self.varint()?).ok()?)
    }

    fn color(&mut self) -> Option<Color> {
        match self.byte()? {
            0 => Some(Color::Default),
            1 => Some(Color::Indexed(self.byte()?)),
            2 => {
                let rgb = self.take(3)?;
                Some(Color::Rgb(rgb[0], rgb[1], rgb[2]))
            }
            _ => None,
        }
    }

    pub(crate) fn attrs(&mut self) -> Option<Attrs> {
        let flags = self.byte()?;
        Some(Attrs::from_flags(flags, self.color()?, self.color()?))
    }

    pub(crate) fn cell(&mut self) -> Option<Cell> {
        let f = self.byte()?;
        if f > 3 {
            return None;
        }
        Some(Cell::new(self.ch()?, f & 1 != 0, f & 2 != 0, self.attrs()?))
    }
}

/// Appends a `char` as a varint of its code point.
pub(crate) fn put_char(out: &mut Vec<u8>, c: char) {
    put_varint(out, u64::from(u32::from(c)));
}

fn put_color(out: &mut Vec<u8>, c: Color) {
    match c {
        Color::Default => out.push(0),
        Color::Indexed(n) => {
            out.push(1);
            out.push(n);
        }
        Color::Rgb(r, g, b) => {
            out.push(2);
            out.extend_from_slice(&[r, g, b]);
        }
    }
}

/// Appends renditions: one byte of flags, then the two colours.
pub(crate) fn put_attrs(out: &mut Vec<u8>, a: &Attrs) {
    out.push(a.flags());
    put_color(out, a.fg);
    put_color(out, a.bg);
}

/// Appends a cell: its two wide flags, its character, its renditions.
pub(crate) fn put_cell(out: &mut Vec<u8>, c: &Cell) {
    out.push(u8::from(c.wide()) | u8::from(c.wide_continuation()) << 1);
    put_char(out, c.ch());
    put_attrs(out, &c.attrs());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(Reader::new(&out).varint(), Some(v));
        }
    }

    #[test]
    fn truncation_rejected() {
        let mut out = Vec::new();
        put_bytes(&mut out, b"hello");
        out.pop();
        assert!(Reader::new(&out).bytes().is_none());
    }

    #[test]
    fn bool_strictness() {
        assert_eq!(Reader::new(&[2]).boolean(), None);
        assert_eq!(Reader::new(&[1]).boolean(), Some(true));
    }

    #[test]
    fn char_round_trip_and_rejection() {
        let mut out = Vec::new();
        put_char(&mut out, '漢');
        assert_eq!(Reader::new(&out).ch(), Some('漢'));
        let mut bad = Vec::new();
        put_varint(&mut bad, 0xd800); // surrogate
        assert!(Reader::new(&bad).ch().is_none());
    }
}
