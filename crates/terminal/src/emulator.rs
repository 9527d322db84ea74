//! The terminal emulator: parser events dispatched onto the framebuffer.
//!
//! [`Terminal`] is the complete character-cell emulator of paper §3.1: it
//! implements the subset of ECMA-48 / ISO 6429 used by xterm,
//! gnome-terminal, Terminal.app, and PuTTY — cursor motion, graphic
//! renditions, erasing, scrolling regions, insert/delete, the alternate
//! screen, and the bidirectional queries (DA, DSR) whose answers the host
//! may request.
//!
//! # Ingest
//!
//! Host output becomes cells in one pass. The screen is the parser's
//! [`Perform`] sink, so [`Terminal::write`] builds no list of actions; and
//! while the parser sits in its ground state, `write` hands each maximal
//! run of printable ASCII to [`Framebuffer::print_run`], which writes a
//! whole row segment at a time. Everything else — escape
//! sequences, non-ASCII and wide characters — goes byte by byte through
//! [`Parser::advance`] to the per-character [`Framebuffer::print`] and the
//! dispatch below. [`Terminal::perform`] replays a collected [`Action`]
//! through the same dispatch: the per-action reference that tests and the
//! `term_ops` bench hold `write` against.

use crate::cell::{Attrs, Color};
use crate::framebuffer::Framebuffer;
use crate::parser::{Action, Parser, Perform};

/// A full terminal: byte-stream in, screen state out.
///
/// # Examples
///
/// ```
/// use mosh_terminal::Terminal;
///
/// let mut term = Terminal::new(80, 24);
/// term.write(b"hello\r\n\x1b[1mworld\x1b[0m");
/// assert_eq!(term.frame().row_text(0), "hello");
/// assert_eq!(term.frame().row_text(1), "world");
/// assert!(term.frame().cell(1, 0).attrs().bold);
/// ```
#[derive(Debug, Clone)]
pub struct Terminal {
    parser: Parser,
    frame: Framebuffer,
}

impl Terminal {
    /// Creates a terminal with a blank screen.
    pub fn new(width: usize, height: usize) -> Self {
        Terminal {
            parser: Parser::new(),
            frame: Framebuffer::new(width, height),
        }
    }

    /// The current screen state.
    pub fn frame(&self) -> &Framebuffer {
        &self.frame
    }

    /// Mutable access to the screen state (used by resize plumbing and the
    /// prediction engine's local copies).
    pub fn frame_mut(&mut self) -> &mut Framebuffer {
        &mut self.frame
    }

    /// The escape-sequence parser, mid-sequence position included. Feeding
    /// it through [`Parser::input`] and the result through [`Self::perform`]
    /// is the per-action route [`Self::write`] is held against.
    pub fn parser_mut(&mut self) -> &mut Parser {
        &mut self.parser
    }

    /// Parses and applies a chunk of host output.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while let Some(&b) = rest.first() {
            if self.parser.in_ground() {
                match b {
                    0x20..=0x7e => {
                        let n = rest
                            .iter()
                            .position(|b| !(0x20..=0x7e).contains(b))
                            .unwrap_or(rest.len());
                        self.frame.print_run(&rest[..n]);
                        rest = &rest[n..];
                        continue;
                    }
                    0x07..=0x0f => {
                        self.frame.execute(b);
                        rest = &rest[1..];
                        continue;
                    }
                    _ => {}
                }
            }
            self.parser.advance(b, &mut self.frame);
            rest = &rest[1..];
        }
    }

    /// Resizes the screen (window-size change propagated by the server).
    pub fn resize(&mut self, width: usize, height: usize) {
        self.frame.resize(width, height);
    }

    /// Drains bytes the terminal owes the host (DA/DSR replies).
    pub fn take_answerback(&mut self) -> Vec<u8> {
        self.frame.take_answerback()
    }

    /// Serializes the complete emulator state — screen, interpreter
    /// internals, and the parser's mid-sequence position — so a restored
    /// terminal behaves byte-for-byte like the original on all future
    /// input. Used by session snapshots (handoff / crash recovery).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.parser.encode_into(&mut out);
        self.frame.encode_into(&mut out);
        out
    }

    /// Rebuilds a terminal from [`Self::snapshot_bytes`] output.
    ///
    /// Returns `None` (never a half-applied terminal) if the bytes are
    /// truncated, carry trailing garbage, or describe a state the live
    /// emulator could not reach.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = mosh_wire::Reader::new(bytes);
        let parser = Parser::decode(&mut r)?;
        let frame = Framebuffer::decode(&mut r)?;
        r.end()?;
        Some(Terminal { parser, frame })
    }

    /// Applies one parsed action: the per-action route [`Self::write`] is
    /// held against.
    pub fn perform(&mut self, action: &Action) {
        action.replay(&mut self.frame);
    }
}

/// The interpreter proper: what each parser event does to the screen.
impl Perform for Framebuffer {
    fn print(&mut self, c: char) {
        Framebuffer::print(self, c);
    }

    fn execute(&mut self, b: u8) {
        match b {
            0x07 => self.ring_bell(),
            0x08 => self.move_relative(0, -1),
            0x09 => self.tab_forward(),
            0x0a..=0x0c => self.line_feed(),
            0x0d => {
                self.cursor.col = 0;
                // CR clears a pending wrap.
                self.move_relative(0, 0);
            }
            0x0e | 0x0f => {
                // SO/SI shift between G0/G1; we model only G0 line drawing
                // selected via ESC ( 0, so shifts are ignored.
            }
            _ => {}
        }
    }

    fn esc_dispatch(&mut self, intermediates: &[u8], byte: u8) {
        match (intermediates, byte) {
            ([], b'7') => self.save_cursor(),
            ([], b'8') => self.restore_cursor(),
            ([], b'D') => self.line_feed(),
            ([], b'E') => {
                self.cursor.col = 0;
                self.line_feed();
            }
            ([], b'H') => self.set_tab(),
            ([], b'M') => self.reverse_line_feed(),
            ([], b'c') => self.reset(),
            ([], b'=') | ([], b'>') => {
                // DECKPAM / DECKPNM keypad modes: client-side concern only.
            }
            ([b'#'], b'8') => self.screen_alignment_test(),
            ([b'('], b'0') => self.line_drawing = true,
            ([b'('], _) => self.line_drawing = false,
            ([b')'], _) | ([b'*'], _) | ([b'+'], _) => {
                // G1–G3 designation: unused (no SO/SI shifting).
            }
            _ => {}
        }
    }

    fn csi_dispatch(
        &mut self,
        private: Option<u8>,
        params: &[u16],
        intermediates: &[u8],
        byte: u8,
    ) {
        if !intermediates.is_empty() {
            // DECSCUSR and friends: not part of the synchronized state.
            return;
        }
        match private {
            None => self.csi_standard(params, byte),
            Some(b'?') => self.csi_private(params, byte),
            _ => {}
        }
    }

    fn osc_dispatch(&mut self, data: &[u8]) {
        let s = String::from_utf8_lossy(data);
        if let Some(rest) = s.strip_prefix("0;").or_else(|| s.strip_prefix("2;")) {
            self.set_title(rest.to_string());
        }
    }
}

/// First parameter with default, treating 0 as the default (most CSI
/// sequences treat both absent and zero as 1).
fn p1(params: &[u16], default: u16) -> usize {
    let v = params.first().copied().unwrap_or(0);
    if v == 0 {
        default as usize
    } else {
        v as usize
    }
}

/// Parses the tail of an SGR 38/48 extended color: `5;n` or `2;r;g;b`.
/// Returns the color and how many parameters were consumed.
fn extended_color(rest: &[u16]) -> Option<(Color, usize)> {
    match rest.first()? {
        5 => {
            let n = *rest.get(1)?;
            Some((Color::Indexed(n.min(255) as u8), 2))
        }
        2 => {
            let r = *rest.get(1)? as u8;
            let g = *rest.get(2)? as u8;
            let b = *rest.get(3)? as u8;
            Some((Color::Rgb(r, g, b), 4))
        }
        _ => None,
    }
}

/// The dispatch tables behind [`Perform::csi_dispatch`].
impl Framebuffer {
    fn csi_standard(&mut self, params: &[u16], byte: u8) {
        let n = p1(params, 1);
        match byte {
            b'@' => self.insert_chars(n),
            b'A' => self.move_relative(-(n as isize), 0),
            b'B' => self.move_relative(n as isize, 0),
            b'C' => self.move_relative(0, n as isize),
            b'D' => self.move_relative(0, -(n as isize)),
            b'E' => {
                self.move_relative(n as isize, 0);
                self.cursor.col = 0;
            }
            b'F' => {
                self.move_relative(-(n as isize), 0);
                self.cursor.col = 0;
            }
            b'G' | b'`' => {
                let col = p1(params, 1) - 1;
                let row = self.cursor.row;
                let origin = self.modes.origin;
                self.modes.origin = false;
                self.move_to(row, col);
                self.modes.origin = origin;
            }
            b'H' | b'f' => {
                let row = p1(params, 1) - 1;
                let col = if params.len() > 1 {
                    (params[1].max(1) - 1) as usize
                } else {
                    0
                };
                self.move_to(row, col);
            }
            b'I' => {
                for _ in 0..n {
                    self.tab_forward();
                }
            }
            b'J' => self.erase_display(params.first().copied().unwrap_or(0)),
            b'K' => self.erase_line(params.first().copied().unwrap_or(0)),
            b'L' => self.insert_lines(n),
            b'M' => self.delete_lines(n),
            b'P' => self.delete_chars(n),
            b'S' => self.scroll_up(n),
            b'T' => self.scroll_down(n),
            b'X' => self.erase_chars(n),
            b'Z' => {
                for _ in 0..n {
                    self.tab_backward();
                }
            }
            b'a' => self.move_relative(0, n as isize),
            b'b' => self.repeat_last(n),
            b'c' => {
                // DA: identify as a VT220-class terminal, like Mosh.
                self.push_answerback(b"\x1b[?62c");
            }
            b'd' => {
                // VPA: vertical position absolute (origin-aware row).
                let row = p1(params, 1) - 1;
                let col = self.cursor.col;
                self.move_to(row, col);
            }
            b'e' => self.move_relative(n as isize, 0),
            b'g' => self.clear_tabs(params.first().copied().unwrap_or(0)),
            b'h' | b'l' => {
                let set = byte == b'h';
                for &p in params {
                    if p == 4 {
                        self.modes.insert = set;
                    }
                }
            }
            b'm' => self.sgr(params),
            b'n' => match params.first().copied().unwrap_or(0) {
                5 => self.push_answerback(b"\x1b[0n"),
                6 => {
                    let (top, _) = self.scroll_region();
                    let row = if self.modes.origin {
                        self.cursor.row - top + 1
                    } else {
                        self.cursor.row + 1
                    };
                    let report = format!("\x1b[{};{}R", row, self.cursor.col + 1);
                    self.push_answerback(report.as_bytes());
                }
                _ => {}
            },
            b'r' => {
                let top = p1(params, 1);
                let bottom = params.get(1).copied().unwrap_or(0) as usize;
                self.set_scroll_region(top, bottom);
            }
            b's' => self.save_cursor(),
            b'u' => self.restore_cursor(),
            b't' => {
                // Window manipulation: not part of the cell grid.
            }
            _ => {}
        }
    }

    fn csi_private(&mut self, params: &[u16], byte: u8) {
        let set = match byte {
            b'h' => true,
            b'l' => false,
            _ => return,
        };
        for &p in params {
            match p {
                1 => self.modes.application_cursor_keys = set,
                3 => {
                    // DECCOLM: clear screen and home (no width change).
                    self.erase_display(2);
                    self.move_to(0, 0);
                }
                6 => {
                    self.modes.origin = set;
                    self.move_to(0, 0);
                }
                7 => self.modes.autowrap = set,
                25 => self.modes.cursor_visible = set,
                47 | 1047 => {
                    if set {
                        self.enter_alternate_screen();
                    } else {
                        self.exit_alternate_screen();
                    }
                }
                1048 => {
                    if set {
                        self.save_cursor();
                    } else {
                        self.restore_cursor();
                    }
                }
                1049 => {
                    if set {
                        self.save_cursor();
                        self.enter_alternate_screen();
                    } else {
                        self.exit_alternate_screen();
                        self.restore_cursor();
                    }
                }
                1000 | 1002 | 1003 => self.modes.mouse_reporting = set,
                2004 => self.modes.bracketed_paste = set,
                _ => {}
            }
        }
    }

    fn sgr(&mut self, params: &[u16]) {
        let pen = &mut self.pen;
        if params.is_empty() {
            *pen = Attrs::default();
            return;
        }
        let mut i = 0;
        while i < params.len() {
            match params[i] {
                0 => *pen = Attrs::default(),
                1 => pen.bold = true,
                2 => pen.faint = true,
                3 => pen.italic = true,
                4 => pen.underline = true,
                5 | 6 => pen.blink = true,
                7 => pen.inverse = true,
                8 => pen.invisible = true,
                9 => pen.strikethrough = true,
                21 | 22 => {
                    pen.bold = false;
                    pen.faint = false;
                }
                23 => pen.italic = false,
                24 => pen.underline = false,
                25 => pen.blink = false,
                27 => pen.inverse = false,
                28 => pen.invisible = false,
                29 => pen.strikethrough = false,
                30..=37 => pen.fg = Color::Indexed((params[i] - 30) as u8),
                38 => {
                    if let Some((color, used)) = extended_color(&params[i + 1..]) {
                        pen.fg = color;
                        i += used;
                    }
                }
                39 => pen.fg = Color::Default,
                40..=47 => pen.bg = Color::Indexed((params[i] - 40) as u8),
                48 => {
                    if let Some((color, used)) = extended_color(&params[i + 1..]) {
                        pen.bg = color;
                        i += used;
                    }
                }
                49 => pen.bg = Color::Default,
                90..=97 => pen.fg = Color::Indexed((params[i] - 90 + 8) as u8),
                100..=107 => pen.bg = Color::Indexed((params[i] - 100 + 8) as u8),
                _ => {}
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term(input: &[u8]) -> Terminal {
        let mut t = Terminal::new(20, 5);
        t.write(input);
        t
    }

    #[test]
    fn cursor_positioning() {
        let t = term(b"\x1b[3;4Hx");
        assert_eq!(t.frame().cell(2, 3).ch(), 'x');
    }

    #[test]
    fn cursor_movement_sequences() {
        let t = term(b"\x1b[5;5H\x1b[2A\x1b[3C\x1b[1B\x1b[4D");
        assert_eq!(t.frame().cursor.row, 3);
        assert_eq!(t.frame().cursor.col, 3);
    }

    #[test]
    fn cursor_movement_clamps_at_edges() {
        let t = term(b"\x1b[99A\x1b[99D");
        assert_eq!(t.frame().cursor.row, 0);
        assert_eq!(t.frame().cursor.col, 0);
        let t = term(b"\x1b[99;99H");
        assert_eq!(t.frame().cursor.row, 4);
        assert_eq!(t.frame().cursor.col, 19);
    }

    #[test]
    fn sgr_sets_pen() {
        let t = term(b"\x1b[1;4;31;45mx");
        let attrs = t.frame().cell(0, 0).attrs();
        assert!(attrs.bold);
        assert!(attrs.underline);
        assert_eq!(attrs.fg, Color::Indexed(1));
        assert_eq!(attrs.bg, Color::Indexed(5));
    }

    #[test]
    fn sgr_256_and_truecolor() {
        let t = term(b"\x1b[38;5;123m\x1b[48;2;10;20;30mx");
        let attrs = t.frame().cell(0, 0).attrs();
        assert_eq!(attrs.fg, Color::Indexed(123));
        assert_eq!(attrs.bg, Color::Rgb(10, 20, 30));
    }

    #[test]
    fn sgr_reset() {
        let t = term(b"\x1b[1mx\x1b[0my");
        assert!(t.frame().cell(0, 0).attrs().bold);
        assert!(!t.frame().cell(0, 1).attrs().bold);
    }

    #[test]
    fn sgr_bright_colors() {
        let t = term(b"\x1b[91mx\x1b[102my");
        assert_eq!(t.frame().cell(0, 0).attrs().fg, Color::Indexed(9));
        assert_eq!(t.frame().cell(0, 1).attrs().bg, Color::Indexed(10));
    }

    #[test]
    fn erase_display_clears() {
        let t = term(b"hello\x1b[2J");
        assert_eq!(t.frame().to_text(), "");
    }

    #[test]
    fn carriage_return_line_feed() {
        let t = term(b"ab\r\ncd");
        assert_eq!(t.frame().row_text(0), "ab");
        assert_eq!(t.frame().row_text(1), "cd");
    }

    #[test]
    fn bare_line_feed_keeps_column() {
        let t = term(b"ab\ncd");
        assert_eq!(t.frame().row_text(0), "ab");
        assert_eq!(t.frame().row_text(1), "  cd");
    }

    #[test]
    fn backspace_moves_left() {
        let t = term(b"ab\x08\x08X");
        assert_eq!(t.frame().row_text(0), "Xb");
    }

    #[test]
    fn bell_increments_counter() {
        let t = term(b"\x07\x07");
        assert_eq!(t.frame().bell_count(), 2);
    }

    #[test]
    fn osc_sets_title() {
        let t = term(b"\x1b]0;my window\x07");
        assert_eq!(t.frame().title(), "my window");
        let t = term(b"\x1b]2;other\x1b\\");
        assert_eq!(t.frame().title(), "other");
    }

    #[test]
    fn scroll_region_with_lf() {
        let mut t = Terminal::new(10, 4);
        t.write(b"1\r\n2\r\n3\r\n4");
        t.write(b"\x1b[2;3r"); // region rows 2-3 (1-based)
        t.write(b"\x1b[3;1H\n"); // LF at region bottom
        assert_eq!(t.frame().row_text(0), "1");
        assert_eq!(t.frame().row_text(1), "3");
        assert_eq!(t.frame().row_text(2), "");
        assert_eq!(t.frame().row_text(3), "4");
    }

    #[test]
    fn insert_mode() {
        let t = term(b"abc\x1b[1;1H\x1b[4hX");
        assert_eq!(t.frame().row_text(0), "Xabc");
        let t2 = term(b"abc\x1b[1;1H\x1b[4lX");
        assert_eq!(t2.frame().row_text(0), "Xbc");
    }

    #[test]
    fn cursor_visibility_mode() {
        let t = term(b"\x1b[?25l");
        assert!(!t.frame().modes.cursor_visible);
        let t = term(b"\x1b[?25l\x1b[?25h");
        assert!(t.frame().modes.cursor_visible);
    }

    #[test]
    fn alternate_screen_1049() {
        let t = term(b"primary\x1b[?1049hALT");
        assert_eq!(t.frame().row_text(0), "ALT");
        let t = term(b"primary\x1b[?1049hALT\x1b[?1049l");
        assert_eq!(t.frame().row_text(0), "primary");
        assert_eq!(t.frame().cursor.col, 7);
    }

    #[test]
    fn device_attributes_reply() {
        let mut t = term(b"\x1b[c");
        assert_eq!(t.take_answerback(), b"\x1b[?62c");
        assert!(t.take_answerback().is_empty());
    }

    #[test]
    fn cursor_position_report() {
        let mut t = term(b"\x1b[3;5H\x1b[6n");
        assert_eq!(t.take_answerback(), b"\x1b[3;5R");
    }

    #[test]
    fn line_drawing_charset() {
        let t = term(b"\x1b(0lqk\x1b(B");
        assert_eq!(t.frame().row_text(0), "┌─┐");
    }

    #[test]
    fn dec_alignment() {
        let mut t = Terminal::new(3, 2);
        t.write(b"\x1b#8");
        assert_eq!(t.frame().to_text(), "EEE\nEEE");
    }

    #[test]
    fn vpa_and_cha() {
        let t = term(b"\x1b[3d\x1b[7G*");
        assert_eq!(t.frame().cell(2, 6).ch(), '*');
    }

    #[test]
    fn ich_dch_ech() {
        let t = term(b"abcdef\x1b[1;2H\x1b[2@");
        assert_eq!(t.frame().row_text(0), "a  bcdef");
        let t = term(b"abcdef\x1b[1;2H\x1b[2P");
        assert_eq!(t.frame().row_text(0), "adef");
        let t = term(b"abcdef\x1b[1;2H\x1b[2X");
        assert_eq!(t.frame().row_text(0), "a  def");
    }

    #[test]
    fn il_dl() {
        let t = term(b"a\r\nb\r\nc\x1b[1;1H\x1b[1L");
        assert_eq!(t.frame().row_text(0), "");
        assert_eq!(t.frame().row_text(1), "a");
        let t = term(b"a\r\nb\r\nc\x1b[1;1H\x1b[1M");
        assert_eq!(t.frame().row_text(0), "b");
    }

    #[test]
    fn su_sd_scroll() {
        let t = term(b"a\r\nb\r\nc\x1b[1S");
        assert_eq!(t.frame().row_text(0), "b");
        let t = term(b"a\r\nb\x1b[1T");
        assert_eq!(t.frame().row_text(0), "");
        assert_eq!(t.frame().row_text(1), "a");
    }

    #[test]
    fn rep_repeats() {
        let t = term(b"x\x1b[4b");
        assert_eq!(t.frame().row_text(0), "xxxxx");
    }

    #[test]
    fn rep_at_its_largest_matches_per_character_printing() {
        // CSI 65535 b: eight bytes that fill the screen many times over,
        // row-sized spans at a time. The result — screen, cursor, pending
        // wrap — is what printing the character 65 535 times leaves.
        for (w, h) in [(80, 24), (1, 1)] {
            let mut rep = Terminal::new(w, h);
            rep.write(b"x\x1b[65535b");
            let mut printed = Terminal::new(w, h);
            printed.write(b"x");
            for _ in 0..65535 {
                printed.frame_mut().print('x');
            }
            assert_eq!(rep.snapshot_bytes(), printed.snapshot_bytes(), "{w}x{h}");
        }
    }

    #[test]
    fn full_reset() {
        let t = term(b"junk\x1b[?25l\x1bc");
        assert_eq!(t.frame().to_text(), "");
        assert!(t.frame().modes.cursor_visible);
    }

    #[test]
    fn wrap_and_continue() {
        let mut t = Terminal::new(5, 3);
        t.write(b"abcdefgh");
        assert_eq!(t.frame().row_text(0), "abcde");
        assert_eq!(t.frame().row_text(1), "fgh");
    }

    #[test]
    fn utf8_across_writes() {
        let mut t = Terminal::new(10, 2);
        let bytes = "héllo".as_bytes();
        t.write(&bytes[..2]);
        t.write(&bytes[2..]);
        assert_eq!(t.frame().row_text(0), "héllo");
    }

    #[test]
    fn snapshot_round_trip_preserves_future_behavior() {
        let mut t = Terminal::new(20, 6);
        // Leave rich interpreter state behind: pen, scroll region, saved
        // cursor, a custom tab stop, line drawing, and a *split* escape
        // sequence plus a split UTF-8 character still in flight.
        t.write(b"\x1b[1;31mhello\x1b7\x1b[2;5r\x1b[2;3H\x1bH\x1b(0");
        t.write(b"\x1b[3");
        let first = "é".as_bytes()[0];
        t.write(&[first]);
        let bytes = t.snapshot_bytes();
        let mut restored = Terminal::from_snapshot_bytes(&bytes).expect("decodes");
        assert_eq!(restored.frame(), t.frame());
        // Finish the split sequences on both: behavior must match exactly.
        let tail = ["m".as_bytes(), &"é".as_bytes()[1..], b"\x1b8after"].concat();
        t.write(&tail);
        restored.write(&tail);
        assert_eq!(restored.frame(), t.frame());
        assert_eq!(restored.snapshot_bytes(), t.snapshot_bytes());
    }

    #[test]
    fn snapshot_rejects_truncation_and_garbage() {
        let mut t = Terminal::new(10, 4);
        t.write(b"state\x1b[2;4H");
        let bytes = t.snapshot_bytes();
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(Terminal::from_snapshot_bytes(&bytes[..cut]).is_none());
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(Terminal::from_snapshot_bytes(&padded).is_none());
    }

    #[test]
    fn snapshot_round_trips_alternate_screen() {
        let mut t = Terminal::new(12, 4);
        t.write(b"primary\x1b[?1049h\x1b[Halt content");
        let mut r = Terminal::from_snapshot_bytes(&t.snapshot_bytes()).expect("decodes");
        assert_eq!(r.frame(), t.frame());
        t.write(b"\x1b[?1049l");
        r.write(b"\x1b[?1049l");
        assert_eq!(r.frame().row_text(0), "primary");
        assert_eq!(r.frame(), t.frame());
    }

    #[test]
    fn vim_like_screen_setup() {
        // The typical curses app preamble: alt screen, clear, draw status.
        let mut t = Terminal::new(20, 5);
        t.write(b"$ vim file\r\n");
        t.write(b"\x1b[?1049h\x1b[2J\x1b[H");
        t.write(b"text line\x1b[5;1H\x1b[7m-- INSERT --\x1b[0m\x1b[1;10H");
        assert_eq!(t.frame().row_text(0), "text line");
        assert_eq!(t.frame().row_text(4), "-- INSERT --");
        assert!(t.frame().cell(4, 0).attrs().inverse);
        assert_eq!(t.frame().cursor.row, 0);
        assert_eq!(t.frame().cursor.col, 9);
    }
}
