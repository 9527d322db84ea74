//! Frame-to-frame diffs: the minimal ANSI message that transforms one
//! screen state into another.
//!
//! This is the heart of Mosh's server→client direction (paper §2.3): "for
//! screen states, [the diff] is only the minimal message that transforms
//! the client's frame to the current one." The server never replays raw
//! application output; it diffs snapshots, so it can *skip* intermediate
//! states entirely when the application floods the terminal.
//!
//! The differ tracks what each byte it emits does to the receiving
//! terminal — cursor, pen, scroll offset, the one cell a print can blank
//! beside itself — over the *borrowed* rows of the frame the receiver
//! shows, so a warm diff allocates nothing. A row that still shares storage
//! with the receiver's row is skipped unread; every other row is compared
//! cell by cell. Correctness is the invariant
//! `apply(new_frame(init, a, b), a) == b`, which debug builds assert on
//! every diff through a real terminal and the property tests in `tests/`
//! check against randomized screens.

use crate::cell::{common_prefix, push_decimal, Cell};
use crate::framebuffer::{Cursor, Framebuffer, Row};
use crate::grid::blank_cell;

/// Minimum run of trailing blanks for which erase-to-end-of-line is used
/// instead of printing spaces.
const EL_THRESHOLD: usize = 4;

/// Computes the ANSI byte string that turns `last` into `target` when fed
/// through a [`crate::Terminal`] currently displaying `last`.
///
/// If `initialized` is false (or the two frames disagree about size), the
/// receiver is assumed to be a *blank* terminal of `target`'s size and a
/// full repaint is generated; size changes themselves travel outside the
/// byte stream (as resize records in the SSP state object).
///
/// This is the allocating convenience wrapper around [`new_frame_into`],
/// which senders on the hot path call with a reusable scratch buffer.
///
/// # Examples
///
/// ```
/// use mosh_terminal::{display, Terminal};
///
/// let mut server = Terminal::new(80, 24);
/// let before = server.frame().clone();
/// server.write(b"$ ls\r\nfile.txt\r\n$ ");
///
/// let diff = display::new_frame(true, &before, server.frame());
/// let mut client = Terminal::new(80, 24);
/// client.write(diff.as_bytes());
/// assert_eq!(client.frame(), server.frame());
/// ```
pub fn new_frame(initialized: bool, last: &Framebuffer, target: &Framebuffer) -> String {
    let mut out = String::new();
    new_frame_into(initialized, last, target, &mut out);
    out
}

/// [`new_frame`] into a caller-provided buffer: `out` is cleared and then
/// filled, so a per-tick sender can reuse one allocation across diffs.
///
/// Skips without reading them the rows that share storage with the row
/// the receiver shows ([`Row::same_data`]), which hold the same cells, and
/// compares the cells of every other row, so the output is identical to
/// [`new_frame_full_scan`] — an invariant the proptests and the `term_ops`
/// bench both assert.
pub fn new_frame_into(
    initialized: bool,
    last: &Framebuffer,
    target: &Framebuffer,
    out: &mut String,
) {
    frame_diff(initialized, last, target, out, true);
}

/// The correctness oracle: same contract as [`new_frame`], but every row's
/// cells are compared, shared storage or not.
pub fn new_frame_full_scan(initialized: bool, last: &Framebuffer, target: &Framebuffer) -> String {
    let mut out = String::new();
    frame_diff(initialized, last, target, &mut out, false);
    out
}

/// Row comparison for the scroll search: shared storage first (O(1)), the
/// cells themselves as the fallback — both imply identical cells, so the
/// oracle, which never asks about storage, reaches the same answer.
fn rows_match(target: &Row, sim: &Row, skip_shared: bool) -> bool {
    (skip_shared && Row::same_data(target, sim)) || target.cells() == sim.cells()
}

/// Whether the repaint may pass a row by. The skip path leaves every row
/// that does not share storage to [`Differ::diff_row`], whose jumps read
/// each matching cell once; the oracle compares every row's cells first.
fn row_settled(wanted: &Row, shown: &Row, skip_shared: bool) -> bool {
    if skip_shared {
        Row::same_data(wanted, shown)
    } else {
        wanted.cells() == shown.cells()
    }
}

fn frame_diff(
    initialized: bool,
    last: &Framebuffer,
    target: &Framebuffer,
    out: &mut String,
    skip_shared: bool,
) {
    out.clear();
    let same_canvas =
        initialized && last.width() == target.width() && last.height() == target.height();

    // The top rows that share storage with the receiver's (none on the
    // oracle's path). Idle fast path: when that is every row and the
    // scalar state matches, the diff is empty — on a mostly-idle fleet
    // this is the common case (echo-ack-only state changes diff equal
    // frames every tick).
    let shared_top = if skip_shared && same_canvas {
        (0..target.height())
            .take_while(|&r| Row::same_data(target.row(r), last.row(r)))
            .count()
    } else {
        0
    };
    if shared_top == target.height()
        && last.title() == target.title()
        && last.bell_count() == target.bell_count()
        && last.modes.cursor_visible == target.modes.cursor_visible
        && last.cursor == target.cursor
    {
        return;
    }

    let mut d = Differ {
        out: std::mem::take(out),
        source: same_canvas.then_some(last),
        shift: 0,
        cursor: last.cursor,
        // The receiver *might* have a wrap pending from a previous diff's
        // final print, so the first print must follow an explicit cursor
        // move (which clears it on both ends).
        wrap_pending: true,
        pen: Cell::default(),
        attrs_known: false,
    };

    if !same_canvas {
        // Paint from scratch: reset renditions, clear, home. The receiver
        // *keeps* its title, bell count and cursor visibility across a
        // resize, so those still compare against the source state below
        // (blank for a genuinely fresh client).
        d.out.push_str("\x1b[0m\x1b[2J\x1b[H");
        d.attrs_known = true;
        d.cursor = Cursor { row: 0, col: 0 };
        d.wrap_pending = false;
    }

    // Window title.
    if last.title() != target.title() {
        d.out.push_str("\x1b]0;");
        d.out.push_str(target.title());
        d.out.push('\x07');
    }

    // Bell: ring exactly the number of times the server heard it since the
    // receiver's frame, so the counters converge.
    for _ in 0..target.bell_count().saturating_sub(last.bell_count()) {
        d.out.push('\x07');
    }

    // Scroll optimization: if the new frame is the old one shifted up by k
    // rows (tail-grew terminal output, pagers), scroll instead of repainting.
    // Ring rotation moves row storage with the rows, so shared rows keep
    // matching the shifted positions afterwards.
    if same_canvas {
        if let Some(k) = detect_scroll(last, target, skip_shared) {
            // Default renditions first: the rows scrolled in are blank in
            // the pen's background.
            d.set_attrs(&Cell::default());
            d.out.push_str("\x1b[");
            push_decimal(&mut d.out, k);
            d.out.push('S');
            d.shift = k;
        }
    }

    // Per-row repaint of whatever still differs; unless a scroll moved
    // them, the shared top rows are known to match.
    let first = if d.shift == 0 { shared_top } else { 0 };
    for row in first..target.height() {
        let wanted = target.row(row);
        match d.receiver_row(row) {
            None if wanted.cells().iter().all(|c| *c == Cell::default()) => {}
            None => d.diff_row(row, None, wanted.cells()),
            Some(shown) if row_settled(wanted, shown, skip_shared) => {}
            Some(shown) => d.diff_row(row, Some(shown.cells()), wanted.cells()),
        }
    }

    // Cursor visibility.
    if last.modes.cursor_visible != target.modes.cursor_visible {
        d.out.push_str(if target.modes.cursor_visible {
            "\x1b[?25h"
        } else {
            "\x1b[?25l"
        });
    }

    // Final cursor position: emitted only when something moved it (or on a
    // repaint), so a pure no-op diff is an empty string.
    if d.cursor != target.cursor {
        d.goto(target.cursor.row, target.cursor.col);
    }

    *out = d.out;
    debug_assert!(
        converges(same_canvas, last, target, out),
        "a terminal showing `last` must show `target` after the diff"
    );
}

/// The differ's contract, checked in debug builds through a real terminal:
/// the receiver — showing `last`, or blank at `target`'s size with `last`'s
/// title, bell count and cursor visibility — shows `target` after `diff`.
fn converges(same_canvas: bool, last: &Framebuffer, target: &Framebuffer, diff: &str) -> bool {
    let mut receiver = crate::Terminal::new(target.width(), target.height());
    let frame = receiver.frame_mut();
    if same_canvas {
        *frame = last.clone();
    } else {
        frame.set_title(last.title().to_string());
        frame.set_bell_count(last.bell_count());
        frame.modes.cursor_visible = last.modes.cursor_visible;
    }
    frame.normalize_for_diff();
    receiver.write(diff.as_bytes());
    receiver.frame() == target
}

/// Finds the largest upward shift `k` such that the top `height - k` rows of
/// `target` are exactly the bottom rows of `shown`. Requires the preserved
/// region to cover at least half the screen to be worthwhile.
fn detect_scroll(shown: &Framebuffer, target: &Framebuffer, skip_shared: bool) -> Option<usize> {
    let h = target.height();
    for k in 1..h {
        let kept = h - k;
        if kept < h.div_ceil(2) {
            break;
        }
        if (0..kept).all(|i| rows_match(target.row(i), shown.row(i + k), skip_shared))
            && (0..kept).any(|i| !rows_match(target.row(i), shown.row(i), skip_shared))
        {
            return Some(k);
        }
    }
    None
}

/// The receiving terminal, as far as the bytes emitted so far have moved
/// it from the frame it showed: its cursor, pen and a scroll offset over
/// the source frame's rows. A diff-receiving terminal never inserts, never
/// has autowrap or the scroll region changed and never draws lines (diffs
/// do not set those modes), so that is all a print or an erase depends on
/// — and the differ borrows the source rows instead of simulating on a
/// copy of them.
struct Differ<'a> {
    out: String,
    /// The frame the receiver showed; `None` when it was cleared to blank.
    source: Option<&'a Framebuffer>,
    /// Rows the receiver has been scrolled up since.
    shift: usize,
    cursor: Cursor,
    wrap_pending: bool,
    /// A cell carrying the receiver's renditions, so that an unchanged pen
    /// costs one [`Cell::same_attrs`]; its character is never read.
    pen: Cell,
    /// False until the first SGR is emitted; the receiver's pen state is
    /// unknown at the start of a diff, so the first rendition change is
    /// emitted absolutely (reset + set).
    attrs_known: bool,
}

impl<'a> Differ<'a> {
    /// What the receiver shows on `row` before that row is repainted; `None`
    /// for a blank row (cleared, or scrolled in from below).
    fn receiver_row(&self, row: usize) -> Option<&'a Row> {
        let source = self.source?;
        (row + self.shift < source.height()).then(|| source.row(row + self.shift))
    }

    fn goto(&mut self, row: usize, col: usize) {
        let to = Cursor { row, col };
        if self.cursor == to && !self.wrap_pending {
            return;
        }
        // CUP addresses the 0-based position 1-based.
        self.out.push_str("\x1b[");
        push_decimal(&mut self.out, row + 1);
        self.out.push(';');
        push_decimal(&mut self.out, col + 1);
        self.out.push('H');
        self.cursor = to;
        self.wrap_pending = false;
    }

    /// Switches the receiver's pen to `target`'s renditions.
    fn set_attrs(&mut self, target: &Cell) {
        if !self.attrs_known {
            // Emit from a known baseline.
            self.out.push_str("\x1b[0m");
            self.pen = Cell::default();
            self.attrs_known = true;
        }
        if !self.pen.same_attrs(target) {
            let (from, to) = (self.pen.attrs(), target.attrs());
            from.write_sgr_update(&to, &mut self.out);
            self.pen = *target;
        }
    }

    /// Repaints the cells of `row` where what the receiver shows (`shown`;
    /// `None` for a blank row) differs from `wanted`.
    fn diff_row(&mut self, row: usize, shown: Option<&[Cell]>, wanted: &[Cell]) {
        let width = wanted.len();
        // A print changes one receiver cell beyond those it writes: when
        // the last cell it overwrites led a wide pair, the orphaned
        // continuation to its right is blanked. The walk only moves
        // right, so that one cell is all there is to remember.
        let mut blanked: Option<(usize, Cell)> = None;
        let receiver = |col: usize, blanked: Option<(usize, Cell)>| match blanked {
            Some((at, cell)) if at == col => cell,
            _ => shown.map_or_else(Cell::default, |cells| cells[col]),
        };
        let mut col = 0;
        while col < width {
            // Jump over the run of cells the receiver already shows (once
            // the walk has passed the cell a print blanked). A pair whose
            // continuation ends the run differs as a pair: step back onto
            // its lead.
            if blanked.is_none_or(|(at, _)| at < col) {
                let start = col;
                col += match shown {
                    Some(cells) => common_prefix(&cells[col..], &wanted[col..]),
                    None => wanted[col..]
                        .iter()
                        .take_while(|cell| **cell == Cell::default())
                        .count(),
                };
                if col == width {
                    break;
                }
                if col > start && wanted[col - 1].wide() {
                    col -= 1;
                }
            }
            let tcell = wanted[col];
            if tcell.wide_continuation() {
                col += 1;
                continue;
            }
            // (A lead in the last column has no continuation to span: no
            // emulator-made frame holds one, and it must not index past
            // the row.)
            let span = 1 + usize::from(tcell.wide() && col + 1 < width);
            let matches = receiver(col, blanked) == tcell
                && (span == 1 || receiver(col + 1, blanked) == wanted[col + 1]);
            if matches {
                col += span;
                continue;
            }

            // Trailing-blank run: erase to end of line when long enough and
            // the blanks carry only a background color (EL semantics).
            if tcell.is_blank()
                && is_erase_style(&tcell)
                && width - col >= EL_THRESHOLD
                && wanted[col..].iter().all(|cell| *cell == tcell)
            {
                self.set_attrs(&tcell);
                self.goto(row, col);
                self.out.push_str("\x1b[K");
                return;
            }

            self.goto(row, col);
            self.set_attrs(&tcell);
            self.out.push(tcell.ch());
            // What the print does to the receiver, as `Framebuffer::print`
            // would: the cells written, the orphan blanked, the cursor
            // advanced or left at the margin with a wrap pending.
            // (A wide print over a lead at `col` blanks that old pair
            // whole before its own continuation lands on the second cell.)
            let end = col + span - 1;
            let led_a_pair =
                receiver(end, blanked).wide() && !(span == 2 && receiver(col, blanked).wide());
            blanked =
                (led_a_pair && end + 1 < width).then(|| (end + 1, blank_cell(tcell.attrs().bg)));
            col += span;
            if col >= width {
                self.cursor.col = width - 1;
                self.wrap_pending = true;
            } else {
                self.cursor.col = col;
            }
        }
    }
}

/// True if the cell's renditions are producible by an erase operation:
/// background color only, nothing else set.
fn is_erase_style(cell: &Cell) -> bool {
    cell.same_attrs(&blank_cell(cell.attrs().bg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attrs, Terminal};

    /// Apply a diff through a real client and check convergence. The client
    /// is brought to `last` the way a real Mosh client gets there: by
    /// applying an initial diff, never by copying server internals.
    fn check_round_trip(last: &Framebuffer, target: &Framebuffer) -> String {
        let mut client = Terminal::new(last.width(), last.height());
        let blank = Framebuffer::new(last.width(), last.height());
        client.write(new_frame(false, &blank, last).as_bytes());
        assert_eq!(client.frame(), last, "initial diff failed to converge");

        let diff = new_frame(true, last, target);
        client.write(diff.as_bytes());
        assert_eq!(client.frame(), target, "diff failed to converge");
        diff
    }

    fn written(w: usize, h: usize, bytes: &[u8]) -> Framebuffer {
        let mut t = Terminal::new(w, h);
        t.write(bytes);
        t.frame().clone()
    }

    #[test]
    fn identical_frames_produce_empty_diff() {
        let a = written(20, 5, b"hello");
        assert_eq!(new_frame(true, &a, &a), "");
    }

    #[test]
    fn simple_text_addition() {
        let a = written(20, 5, b"$ ");
        let b = written(20, 5, b"$ ls");
        let diff = check_round_trip(&a, &b);
        assert!(diff.contains("ls"));
    }

    #[test]
    fn uninitialized_repaints_fully() {
        let blank = Framebuffer::new(20, 5);
        let b = written(20, 5, b"content");
        let diff = new_frame(false, &blank, &b);
        assert!(diff.starts_with("\x1b[0m\x1b[2J\x1b[H"));
        let mut client = Terminal::new(20, 5);
        client.write(diff.as_bytes());
        assert_eq!(client.frame(), &b);
    }

    #[test]
    fn attribute_changes_propagate() {
        let a = written(20, 5, b"plain");
        let b = written(20, 5, b"\x1b[1;31mplain");
        check_round_trip(&a, &b);
    }

    #[test]
    fn erase_to_eol_is_used_for_long_blank_tails() {
        let a = written(40, 5, b"a very long line of text here");
        let b = written(40, 5, b"ab");
        let diff = check_round_trip(&a, &b);
        assert!(diff.contains("\x1b[K"), "diff should use EL: {diff:?}");
    }

    #[test]
    fn cursor_only_change_is_tiny() {
        let a = written(20, 5, b"text\x1b[1;1H");
        let b = written(20, 5, b"text\x1b[3;2H");
        let diff = check_round_trip(&a, &b);
        assert_eq!(diff, "\x1b[3;2H");
    }

    #[test]
    fn long_addresses_and_codes_are_written_digit_for_digit() {
        let a = written(300, 120, b"");
        let b = written(
            300,
            120,
            b"\x1b[110;250H\x1b[38;5;208;48;2;100;200;255mX\x1b[1;107mY\x1b[120;300H",
        );
        let diff = check_round_trip(&a, &b);
        assert_eq!(
            diff,
            "\x1b[110;250H\x1b[0m\x1b[38;5;208;48;2;100;200;255mX\x1b[1;107mY\x1b[120;300H"
        );
    }

    #[test]
    fn title_change_emits_osc() {
        let a = written(20, 5, b"");
        let b = written(20, 5, b"\x1b]0;hi\x07");
        let diff = check_round_trip(&a, &b);
        assert!(diff.contains("\x1b]0;hi\x07"));
    }

    #[test]
    fn bell_delta_is_preserved() {
        let a = written(20, 5, b"");
        let b = written(20, 5, b"\x07\x07\x07");
        let diff = check_round_trip(&a, &b);
        assert_eq!(diff.matches('\x07').count(), 3);
    }

    #[test]
    fn scroll_is_detected_for_terminal_output() {
        let mut t = Terminal::new(10, 4);
        t.write(b"1\r\n2\r\n3\r\n4");
        let a = t.frame().clone();
        t.write(b"\r\n5\r\n6");
        let b = t.frame().clone();
        let diff = check_round_trip(&a, &b);
        assert!(diff.contains("\x1b[2S"), "expected scroll: {diff:?}");
    }

    #[test]
    fn scroll_not_used_when_screen_replaced() {
        let a = written(10, 4, b"aaa\r\nbbb\r\nccc\r\nddd");
        let b = written(10, 4, b"www\r\nxxx\r\nyyy\r\nzzz");
        let diff = check_round_trip(&a, &b);
        assert!(!diff.contains('S'));
    }

    #[test]
    fn wide_characters_round_trip() {
        let a = written(20, 5, b"");
        let b = written(20, 5, "日本語 text".as_bytes());
        check_round_trip(&a, &b);
    }

    #[test]
    fn wide_character_overwrite_round_trips() {
        let a = written(20, 5, "日本語".as_bytes());
        let b = written(20, 5, "xx本語".as_bytes());
        check_round_trip(&a, &b);
    }

    #[test]
    fn a_pair_whose_continuation_differs_is_repainted_from_its_lead() {
        // The receiver's pair matches the target's at the lead only (no
        // emulator makes such a pair; a stray cell write can): the run of
        // matching cells ends on the continuation, and the diff steps back
        // to print the whole pair again.
        let target = written(20, 3, "ab漢".as_bytes());
        let mut receiver = Terminal::new(20, 3);
        *receiver.frame_mut() = target.clone();
        let stray = Attrs {
            underline: true,
            ..Attrs::default()
        };
        receiver.frame_mut().cell_mut(0, 3).set_attrs(stray);
        let diff = new_frame(true, receiver.frame(), &target);
        assert_eq!(diff, "\x1b[1;3H\x1b[0m漢");
        receiver.write(diff.as_bytes());
        assert_eq!(receiver.frame(), &target);
    }

    #[test]
    fn cursor_visibility_round_trips() {
        let a = written(20, 5, b"x");
        let b = written(20, 5, b"x\x1b[?25l");
        let diff = check_round_trip(&a, &b);
        assert!(diff.contains("\x1b[?25l"));
    }

    #[test]
    fn colored_background_blank_regions() {
        let a = written(20, 3, b"");
        let b = written(20, 3, b"\x1b[44m\x1b[2J\x1b[1;1Htext");
        check_round_trip(&a, &b);
    }

    #[test]
    fn underlined_spaces_are_not_erased_away() {
        // Underlined blanks must be printed, not EL'd (EL drops underline).
        let a = written(20, 3, b"");
        let b = written(20, 3, b"\x1b[4m          \x1b[0m");
        check_round_trip(&a, &b);
    }

    #[test]
    fn full_screen_editor_transition() {
        let a = written(40, 8, b"$ ls\r\nfile.txt\r\n$ vim file.txt");
        let b = written(
            40,
            8,
            b"$ ls\r\nfile.txt\r\n$ vim file.txt\x1b[?1049h\x1b[2J\x1b[Hline one\r\nline two\x1b[8;1H\x1b[7m-- file.txt --\x1b[0m\x1b[1;9H",
        );
        check_round_trip(&a, &b);
    }

    #[test]
    fn bottom_right_cell_is_paintable() {
        let a = written(10, 3, b"");
        let b = written(10, 3, b"\x1b[3;10Hx\x1b[1;1H");
        check_round_trip(&a, &b);
    }

    #[test]
    fn size_mismatch_forces_repaint() {
        let a = written(10, 3, b"old");
        let b = written(20, 5, b"new");
        let diff = new_frame(true, &a, &b);
        let mut client = Terminal::new(20, 5);
        client.write(diff.as_bytes());
        assert_eq!(client.frame(), &b);
    }

    #[test]
    fn prompt_after_scroll_converges() {
        // The classic shell pattern: output scrolls, then a prompt appears.
        let mut t = Terminal::new(20, 4);
        for i in 0..10 {
            t.write(format!("line {i}\r\n").as_bytes());
        }
        let a = t.frame().clone();
        t.write(b"$ cmd output\r\n$ ");
        let b = t.frame().clone();
        check_round_trip(&a, &b);
    }
}
