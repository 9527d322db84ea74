//! Character cells and their graphic renditions.
//!
//! A terminal screen is a grid of cells; each holds one displayed character
//! (or the continuation of a double-width character) plus its *renditions* —
//! the ECMA-48 "Select Graphic Rendition" attributes: intensity, underline,
//! colors, and so on.

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
    /// Renders the minimal SGR sequence that switches renditions from `self`
    /// to `target`.
    ///
    /// The allocating form of [`Self::write_sgr_update`].
    pub fn sgr_update(&self, target: &Attrs) -> String {
        let mut out = String::new();
        self.write_sgr_update(target, &mut out);
        out
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
        use std::fmt::Write;
        self.out.push_str(self.separator);
        self.separator = ";";
        // Writing to a `String` cannot fail.
        let _ = write!(self.out, "{code}");
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

/// One character cell of the screen grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    /// The displayed character. A blank cell holds a space.
    pub ch: char,
    /// True for the trailing half of a double-width character; such a cell
    /// displays nothing of its own.
    pub wide_continuation: bool,
    /// True when `ch` occupies two columns.
    pub wide: bool,
    /// Graphic renditions.
    pub attrs: Attrs,
}

impl Default for Cell {
    fn default() -> Self {
        Cell::blank(Attrs::default())
    }
}

impl Cell {
    /// A blank (space) cell carrying the given renditions; erase operations
    /// use the current background color (BCE semantics, like xterm).
    pub fn blank(attrs: Attrs) -> Self {
        Cell {
            ch: ' ',
            wide_continuation: false,
            wide: false,
            attrs,
        }
    }

    /// A cell holding a single narrow character.
    pub fn narrow(ch: char, attrs: Attrs) -> Self {
        Cell {
            ch,
            wide_continuation: false,
            wide: false,
            attrs,
        }
    }

    /// True if the cell displays as a plain space (possibly colored).
    pub fn is_blank(&self) -> bool {
        !self.wide_continuation && !self.wide && self.ch == ' '
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cell_is_blank_space() {
        let c = Cell::default();
        assert!(c.is_blank());
        assert_eq!(c.ch, ' ');
        assert_eq!(c.attrs, Attrs::default());
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
