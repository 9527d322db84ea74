//! The terminal snapshot's cell words — character, colour, renditions and
//! cell — written in the shared [`mosh_wire`] vocabulary that every
//! snapshot layer uses. Decoding is strict: every reader returns `None`
//! on truncation or an invalid payload, so a corrupt snapshot is rejected
//! rather than misread.

use crate::cell::{Attrs, Cell, Color};
use mosh_wire::{put_varint, Reader};

/// Appends a `char` as a varint of its code point.
pub(crate) fn put_char(out: &mut Vec<u8>, c: char) {
    put_varint(out, u64::from(u32::from(c)));
}

/// Reads a [`put_char`] `char`; refuses surrogate and out-of-range code
/// points.
pub(crate) fn get_char(r: &mut Reader<'_>) -> Option<char> {
    char::from_u32(u32::try_from(r.varint()?).ok()?)
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

fn get_color(r: &mut Reader<'_>) -> Option<Color> {
    match r.byte()? {
        0 => Some(Color::Default),
        1 => Some(Color::Indexed(r.byte()?)),
        2 => {
            let rgb = r.take(3)?;
            Some(Color::Rgb(rgb[0], rgb[1], rgb[2]))
        }
        _ => None,
    }
}

/// Appends renditions: one byte of flags, then the two colours.
pub(crate) fn put_attrs(out: &mut Vec<u8>, a: &Attrs) {
    out.push(a.flags());
    put_color(out, a.fg);
    put_color(out, a.bg);
}

/// Reads [`put_attrs`] renditions.
pub(crate) fn get_attrs(r: &mut Reader<'_>) -> Option<Attrs> {
    let flags = r.byte()?;
    Some(Attrs::from_flags(flags, get_color(r)?, get_color(r)?))
}

/// Appends a cell: its two wide flags, its character, its renditions.
pub(crate) fn put_cell(out: &mut Vec<u8>, c: &Cell) {
    out.push(u8::from(c.wide()) | u8::from(c.wide_continuation()) << 1);
    put_char(out, c.ch());
    put_attrs(out, &c.attrs());
}

/// Reads a [`put_cell`] cell.
pub(crate) fn get_cell(r: &mut Reader<'_>) -> Option<Cell> {
    let f = r.byte()?;
    if f > 3 {
        return None;
    }
    Some(Cell::new(
        get_char(r)?,
        f & 1 != 0,
        f & 2 != 0,
        get_attrs(r)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rgb_cell() -> Vec<u8> {
        let attrs = Attrs {
            fg: Color::Rgb(1, 2, 3),
            bg: Color::Indexed(200),
            ..Attrs::default()
        };
        let mut out = Vec::new();
        put_cell(&mut out, &Cell::new('漢', true, false, attrs));
        out
    }

    #[test]
    fn truncation_rejected() {
        let full = rgb_cell();
        assert!(get_cell(&mut Reader::new(&full)).is_some());
        for cut in 0..full.len() {
            assert!(
                get_cell(&mut Reader::new(&full[..cut])).is_none(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bool_strictness() {
        // The cell's first byte holds its two wide flags and nothing else;
        // a colour's tag is one of three.
        let mut bad_flags = rgb_cell();
        bad_flags[0] = 4;
        assert!(get_cell(&mut Reader::new(&bad_flags)).is_none());
        let mut bad_color = Vec::new();
        put_attrs(&mut bad_color, &Attrs::default());
        bad_color[1] = 3;
        assert!(get_attrs(&mut Reader::new(&bad_color)).is_none());
    }

    #[test]
    fn varint_round_trip() {
        // A char is its code point as a varint: one byte per seven bits,
        // so the group edges below the Unicode limit take 1, 2 and 3 bytes.
        for (c, len) in [
            ('\0', 1),
            ('\x7f', 1),
            ('\u{80}', 2),
            ('\u{3fff}', 2),
            ('\u{4000}', 3),
            (char::MAX, 3),
        ] {
            let mut out = Vec::new();
            put_char(&mut out, c);
            assert_eq!(out.len(), len, "{c:?} encodes in {len} bytes");
            let mut r = Reader::new(&out);
            assert_eq!(get_char(&mut r), Some(c));
            assert_eq!(r.remaining(), 0);
        }
        // Varints past the Unicode and u32 ranges are no char.
        for v in [0x11_0000, u64::from(u32::MAX) + 1, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(get_char(&mut Reader::new(&out)), None, "{v:#x}");
        }
    }

    #[test]
    fn char_round_trip_and_rejection() {
        let mut out = Vec::new();
        put_char(&mut out, '漢');
        assert_eq!(get_char(&mut Reader::new(&out)), Some('漢'));
        let mut bad = Vec::new();
        put_varint(&mut bad, 0xd800); // surrogate
        assert!(get_char(&mut Reader::new(&bad)).is_none());
    }
}
