//! Character cells and their graphic renditions.
//!
//! A terminal screen is a grid of cells; each holds one displayed character
//! (or the continuation of a double-width character) plus its *renditions* —
//! the ECMA-48 "Select Graphic Rendition" attributes: intensity, underline,
//! colors, and so on.
//!
//! Every framebuffer a session keeps (the live screen, the states the
//! sender retains, the client's copy) is mostly cells, so a
//! [`Cell`] is packed into three `u32`s, 12 bytes:
//!
//! - `glyph`: the scalar value (bits 0–20), the wide flag (21), the
//!   wide-continuation flag (22) and the eight SGR flags (23–30);
//! - `fg` and `bg`: one [`Color`] each, a tag in bits 24–25 (default,
//!   indexed, RGB) and the payload in bits 0–23.
//!
//! [`Attrs`] stays the unpacked form the pen and the SGR code use.

/// A color as selectable by SGR sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Color {
    /// The terminal's default foreground or background.
    #[default]
    Default,
    /// One of the 256 indexed colors (0–7 classic, 8–15 bright, 16–255 cube).
    Indexed(u8),
    /// 24-bit direct color (SGR 38;2;r;g;b / 48;2;r;g;b).
    Rgb(u8, u8, u8),
}

/// Graphic renditions applied to a cell (ECMA-48 SGR).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Attrs {
    /// Bold / increased intensity (SGR 1).
    pub bold: bool,
    /// Faint / decreased intensity (SGR 2).
    pub faint: bool,
    /// Italicized (SGR 3).
    pub italic: bool,
    /// Underlined (SGR 4). Mosh uses this to flag unconfirmed predictions.
    pub underline: bool,
    /// Blinking (SGR 5).
    pub blink: bool,
    /// Negative image / reverse video (SGR 7).
    pub inverse: bool,
    /// Concealed (SGR 8).
    pub invisible: bool,
    /// Crossed-out (SGR 9).
    pub strikethrough: bool,
    /// Foreground color.
    pub fg: Color,
    /// Background color.
    pub bg: Color,
}

impl Attrs {
    /// The eight SGR flags as one byte, bold in bit 0 up to strikethrough
    /// in bit 7: their order in a packed cell and on the wire.
    pub(crate) fn flags(&self) -> u8 {
        [
            self.bold,
            self.faint,
            self.italic,
            self.underline,
            self.blink,
            self.inverse,
            self.invisible,
            self.strikethrough,
        ]
        .iter()
        .rev()
        .fold(0, |byte, &on| byte << 1 | u8::from(on))
    }

    /// Renditions from a [`Self::flags`] byte and two colours.
    pub(crate) fn from_flags(flags: u8, fg: Color, bg: Color) -> Attrs {
        let on = |bit: u8| flags & 1 << bit != 0;
        Attrs {
            bold: on(0),
            faint: on(1),
            italic: on(2),
            underline: on(3),
            blink: on(4),
            inverse: on(5),
            invisible: on(6),
            strikethrough: on(7),
            fg,
            bg,
        }
    }

    /// Appends to `out` the minimal SGR sequence that switches renditions
    /// from `self` to `target` (nothing when they are equal).
    ///
    /// Used by the display differ: it tracks the renditions the receiving
    /// terminal currently has and emits only what must change. Falls back to
    /// a full reset-and-set when clearing individual attributes would be
    /// longer.
    pub fn write_sgr_update(&self, target: &Attrs, out: &mut String) {
        if self == target {
            return;
        }
        // If any attribute must be turned *off*, a reset-and-set is simplest
        // and never longer than issuing individual "off" codes.
        let needs_reset = (self.bold && !target.bold)
            || (self.faint && !target.faint)
            || (self.italic && !target.italic)
            || (self.underline && !target.underline)
            || (self.blink && !target.blink)
            || (self.inverse && !target.inverse)
            || (self.invisible && !target.invisible)
            || (self.strikethrough && !target.strikethrough)
            || (self.fg != target.fg && target.fg == Color::Default)
            || (self.bg != target.bg && target.bg == Color::Default);
        let base = if needs_reset { Attrs::default() } else { *self };
        // The first code follows the introducer, every later one a ';'.
        let mut codes = Codes {
            out,
            separator: "\x1b[",
        };
        if needs_reset {
            codes.push(0);
        }
        for (on, was_on, code) in [
            (target.bold, base.bold, 1),
            (target.faint, base.faint, 2),
            (target.italic, base.italic, 3),
            (target.underline, base.underline, 4),
            (target.blink, base.blink, 5),
            (target.inverse, base.inverse, 7),
            (target.invisible, base.invisible, 8),
            (target.strikethrough, base.strikethrough, 9),
        ] {
            if on && !was_on {
                codes.push(code);
            }
        }
        if target.fg != base.fg {
            codes.push_color(30, target.fg);
        }
        if target.bg != base.bg {
            codes.push_color(40, target.bg);
        }
        if codes.separator == ";" {
            out.push('m');
        }
    }
}

/// The parameter list of one SGR sequence, written straight into the
/// differ's output.
struct Codes<'a> {
    out: &'a mut String,
    separator: &'static str,
}

impl Codes<'_> {
    fn push(&mut self, code: u16) {
        self.out.push_str(self.separator);
        self.separator = ";";
        push_decimal(self.out, usize::from(code));
    }

    /// A color selection; `base` is 30 for foreground, 40 for background.
    fn push_color(&mut self, base: u16, c: Color) {
        match c {
            Color::Default => self.push(base + 9),
            Color::Indexed(n @ 0..=7) => self.push(base + u16::from(n)),
            Color::Indexed(n @ 8..=15) => self.push(base + 60 + u16::from(n) - 8),
            Color::Indexed(n) => {
                self.push(base + 8);
                self.push(5);
                self.push(u16::from(n));
            }
            Color::Rgb(r, g, b) => {
                self.push(base + 8);
                self.push(2);
                for channel in [r, g, b] {
                    self.push(u16::from(channel));
                }
            }
        }
    }
}

/// Appends `n` in decimal: the differ's cursor addresses and SGR codes,
/// two digits per step, without `fmt`'s machinery.
pub(crate) fn push_decimal(out: &mut String, n: usize) {
    if n >= 100 {
        push_decimal(out, n / 100);
    }
    let low = (n % 100) as u8;
    if n >= 10 {
        out.push(char::from(b'0' + low / 10));
    }
    out.push(char::from(b'0' + low % 10));
}

/// One character cell of the screen grid, packed into three words.
///
/// - `glyph`: the character's scalar value in bits 0–20, `wide` in bit 21,
///   `wide_continuation` in bit 22 and the eight SGR flags in bits 23–30
///   (bold, faint, italic, underline, blink, inverse, invisible,
///   strikethrough, in that order).
/// - `fg` and `bg`: one [`Color`] each, its tag in bits 24–25 (0 default,
///   1 indexed, 2 RGB) and its payload in bits 0–23 (the index, or
///   `r << 16 | g << 8 | b`).
///
/// Packing is one-to-one, so comparing the three words is comparing every
/// field: a frame a client built from diffs equals the server's.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    glyph: u32,
    fg: u32,
    bg: u32,
}

const SCALAR: u32 = 0x1f_ffff;
const WIDE: u32 = 1 << 21;
const CONTINUATION: u32 = 1 << 22;
const FLAGS_SHIFT: u32 = 23;
const FLAGS: u32 = 0xff << FLAGS_SHIFT;
const INDEXED: u32 = 1 << 24;
const RGB: u32 = 2 << 24;

fn pack_color(c: Color) -> u32 {
    match c {
        Color::Default => 0,
        Color::Indexed(n) => INDEXED | u32::from(n),
        Color::Rgb(r, g, b) => RGB | u32::from(r) << 16 | u32::from(g) << 8 | u32::from(b),
    }
}

fn unpack_color(w: u32) -> Color {
    match w & !0xff_ffff {
        0 => Color::Default,
        INDEXED => Color::Indexed(w as u8),
        _ => Color::Rgb((w >> 16) as u8, (w >> 8) as u8, w as u8),
    }
}

impl Default for Cell {
    fn default() -> Self {
        Cell::blank(Attrs::default())
    }
}

impl std::fmt::Debug for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cell")
            .field("ch", &self.ch())
            .field("wide", &self.wide())
            .field("wide_continuation", &self.wide_continuation())
            .field("attrs", &self.attrs())
            .finish()
    }
}

impl Cell {
    /// A cell from its fields.
    pub fn new(ch: char, wide: bool, wide_continuation: bool, attrs: Attrs) -> Self {
        Cell {
            glyph: u32::from(ch)
                | (u32::from(wide) * WIDE)
                | (u32::from(wide_continuation) * CONTINUATION)
                | u32::from(attrs.flags()) << FLAGS_SHIFT,
            fg: pack_color(attrs.fg),
            bg: pack_color(attrs.bg),
        }
    }

    /// A blank (space) cell carrying the given renditions; erase operations
    /// use the current background color (BCE semantics, like xterm).
    pub fn blank(attrs: Attrs) -> Self {
        Cell::narrow(' ', attrs)
    }

    /// A cell holding a single narrow character.
    pub fn narrow(ch: char, attrs: Attrs) -> Self {
        Cell::new(ch, false, false, attrs)
    }

    /// The displayed character. A blank cell holds a space.
    pub fn ch(&self) -> char {
        // Only `Cell::new` and `set_ch` write the scalar, from a `char`.
        char::from_u32(self.glyph & SCALAR).unwrap_or(char::REPLACEMENT_CHARACTER)
    }

    /// Replaces the character, keeping the width flags and renditions.
    pub fn set_ch(&mut self, ch: char) {
        self.glyph = self.glyph & !SCALAR | u32::from(ch);
    }

    /// True when the character occupies two columns.
    pub fn wide(&self) -> bool {
        self.glyph & WIDE != 0
    }

    /// True for the trailing half of a double-width character; such a cell
    /// displays nothing of its own.
    pub fn wide_continuation(&self) -> bool {
        self.glyph & CONTINUATION != 0
    }

    /// The graphic renditions, unpacked.
    pub fn attrs(&self) -> Attrs {
        let flags = (self.glyph >> FLAGS_SHIFT) as u8;
        Attrs::from_flags(flags, unpack_color(self.fg), unpack_color(self.bg))
    }

    /// Replaces the renditions, keeping the character and width flags.
    pub fn set_attrs(&mut self, attrs: Attrs) {
        self.glyph = self.glyph & !FLAGS | u32::from(attrs.flags()) << FLAGS_SHIFT;
        self.fg = pack_color(attrs.fg);
        self.bg = pack_color(attrs.bg);
    }

    /// True when both cells carry the same renditions, whatever they hold.
    pub fn same_attrs(&self, other: &Cell) -> bool {
        (self.glyph ^ other.glyph) & FLAGS == 0 && self.fg == other.fg && self.bg == other.bg
    }

    /// True if the cell displays as a plain space (possibly colored).
    pub fn is_blank(&self) -> bool {
        self.glyph & (SCALAR | WIDE | CONTINUATION) == u32::from(' ')
    }
}

const _: () = assert!(std::mem::size_of::<Cell>() == 12);

/// How many leading cells `a` and `b` share: the run of a row the receiver
/// already shows. Eight cells at a time are folded into one word of
/// differing bits, so a long run costs no branch per cell.
pub(crate) fn common_prefix(a: &[Cell], b: &[Cell]) -> usize {
    let same = |x: &[Cell], y: &[Cell]| {
        let differing =
            |acc, (p, q): (&Cell, &Cell)| acc | (p.glyph ^ q.glyph) | (p.fg ^ q.fg) | (p.bg ^ q.bg);
        x.iter().zip(y).fold(0, differing) == 0
    };
    let whole = a
        .chunks_exact(8)
        .zip(b.chunks_exact(8))
        .take_while(|(x, y)| same(x, y))
        .count()
        * 8;
    whole
        + a[whole..]
            .iter()
            .zip(&b[whole..])
            .take_while(|(x, y)| x == y)
            .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Attrs {
        fn sgr_update(&self, target: &Attrs) -> String {
            let mut out = String::new();
            self.write_sgr_update(target, &mut out);
            out
        }
    }

    #[test]
    fn default_cell_is_blank_space() {
        let c = Cell::default();
        assert!(c.is_blank());
        assert_eq!(c.ch(), ' ');
        assert_eq!(c.attrs(), Attrs::default());
    }

    #[test]
    fn zero_payload_colours_stay_distinct() {
        let with_fg = |fg| {
            Cell::blank(Attrs {
                fg,
                ..Attrs::default()
            })
        };
        let cells = [
            with_fg(Color::Default),
            with_fg(Color::Indexed(0)),
            with_fg(Color::Rgb(0, 0, 0)),
        ];
        for (i, a) in cells.iter().enumerate() {
            for (j, b) in cells.iter().enumerate() {
                assert_eq!(a == b, i == j, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn debug_shows_the_unpacked_fields() {
        let cell = Cell::new('漢', true, false, Attrs::default());
        let shown = format!("{cell:?}");
        assert!(
            shown.starts_with(
                "Cell { ch: '漢', wide: true, wide_continuation: false, attrs: Attrs {"
            ),
            "{shown}"
        );
    }

    #[test]
    fn sgr_update_identity_is_empty() {
        let a = Attrs {
            bold: true,
            fg: Color::Indexed(2),
            ..Attrs::default()
        };
        assert_eq!(a.sgr_update(&a), "");
    }

    #[test]
    fn sgr_update_sets_single_attribute() {
        let plain = Attrs::default();
        let bold = Attrs {
            bold: true,
            ..Attrs::default()
        };
        assert_eq!(plain.sgr_update(&bold), "\x1b[1m");
    }

    #[test]
    fn sgr_update_resets_when_turning_off() {
        let bold = Attrs {
            bold: true,
            ..Attrs::default()
        };
        assert_eq!(bold.sgr_update(&Attrs::default()), "\x1b[0m");
    }

    #[test]
    fn sgr_update_basic_colors() {
        let plain = Attrs::default();
        let red = Attrs {
            fg: Color::Indexed(1),
            ..Attrs::default()
        };
        assert_eq!(plain.sgr_update(&red), "\x1b[31m");
        let bright = Attrs {
            fg: Color::Indexed(9),
            ..Attrs::default()
        };
        assert_eq!(plain.sgr_update(&bright), "\x1b[91m");
        let indexed = Attrs {
            fg: Color::Indexed(200),
            ..Attrs::default()
        };
        assert_eq!(plain.sgr_update(&indexed), "\x1b[38;5;200m");
        let rgb = Attrs {
            bg: Color::Rgb(1, 2, 3),
            ..Attrs::default()
        };
        assert_eq!(plain.sgr_update(&rgb), "\x1b[48;2;1;2;3m");
    }

    #[test]
    fn sgr_update_combines_codes() {
        let plain = Attrs::default();
        let fancy = Attrs {
            bold: true,
            underline: true,
            fg: Color::Indexed(4),
            ..Attrs::default()
        };
        assert_eq!(plain.sgr_update(&fancy), "\x1b[1;4;34m");
    }

    #[test]
    fn sgr_update_reset_then_set() {
        let from = Attrs {
            inverse: true,
            fg: Color::Indexed(1),
            ..Attrs::default()
        };
        let to = Attrs {
            bold: true,
            ..Attrs::default()
        };
        // Inverse must go off -> reset, then bold on.
        assert_eq!(from.sgr_update(&to), "\x1b[0;1m");
    }
}
