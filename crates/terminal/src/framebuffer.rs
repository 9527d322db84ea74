//! The screen state and the VT editing operations on it.
//!
//! [`Framebuffer`] holds everything the *user can see* — the screen's
//! rows, the cursor, the window title, the bell count — and the
//! interpreter state that decides how future bytes are rendered (pen,
//! scrolling region, modes, tab stops, the saved cursor, the primary
//! screen stashed behind the alternate one). Only the visible portion
//! participates in equality: SSP synchronizes what the user sees, and the
//! client only ever applies self-contained diffs to its framebuffer.
//!
//! A framebuffer holds exactly the screen's `height` rows, as Mosh's own
//! `Terminal::Framebuffer` does: a line scrolled off the top is gone. The
//! rows are copy-on-write handles (`grid.rs`); this module turns each VT
//! operation into edits of those rows.

use std::collections::VecDeque;

use crate::cell::{Attrs, Cell};
use crate::grid::{blank_cell, blank_rows, shared_blank, MAX_DIMENSION};
use crate::wirefmt::{get_attrs, get_char, put_attrs, put_char};
use mosh_wire::{put_bool, put_bytes, put_varint, Reader};

pub use crate::grid::Row;

/// Cursor state (position is 0-based internally).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    /// Row index, `0..height`.
    pub row: usize,
    /// Column index, `0..width`.
    pub col: usize,
}

/// Saved-cursor state for DECSC/DECRC and the alternate screen.
#[derive(Debug, Clone, Copy)]
pub struct SavedCursor {
    cursor: Cursor,
    pen: Attrs,
    origin_mode: bool,
    wrap_pending: bool,
}

/// Terminal modes that alter interpretation or visibility.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Modes {
    /// DECAWM: wrap at the right margin (default on).
    pub autowrap: bool,
    /// DECOM: cursor addressing is relative to the scroll region.
    pub origin: bool,
    /// IRM: insert rather than replace on print.
    pub insert: bool,
    /// DECTCEM: cursor visible (default on).
    pub cursor_visible: bool,
    /// DECCKM: application cursor keys (affects what the *client* sends).
    pub application_cursor_keys: bool,
    /// Bracketed paste (mode 2004).
    pub bracketed_paste: bool,
    /// Any mouse reporting mode enabled (1000/1002/1003).
    pub mouse_reporting: bool,
}

impl Default for Modes {
    fn default() -> Self {
        Modes {
            autowrap: true,
            origin: false,
            insert: false,
            cursor_visible: true,
            application_cursor_keys: false,
            bracketed_paste: false,
            mouse_reporting: false,
        }
    }
}

/// The terminal screen state.
///
/// Equality compares only what the user can observe: screen contents,
/// cursor position and visibility, window title, and the bell count. That
/// is the contract the display differ ([`crate::display`]) reproduces.
#[derive(Debug, Clone)]
pub struct Framebuffer {
    width: usize,
    /// The screen's `height` rows, top to bottom, each `width` cells.
    rows: VecDeque<Row>,
    /// Current cursor.
    pub cursor: Cursor,
    /// Current graphic renditions for new text.
    pub pen: Attrs,
    /// Modes in effect.
    pub modes: Modes,
    /// Scroll region top (inclusive, 0-based).
    scroll_top: usize,
    /// Scroll region bottom (inclusive, 0-based).
    scroll_bottom: usize,
    tabs: Vec<bool>,
    title: String,
    bell_count: u64,
    wrap_pending: bool,
    saved_cursor: Option<SavedCursor>,
    /// Primary-screen stash while the alternate screen is active.
    alt_saved: Option<(VecDeque<Row>, Cursor)>,
    /// Replies the terminal owes the host (DSR/DA reports).
    answerback: Vec<u8>,
    /// Last printed character, for REP.
    last_printed: Option<char>,
    /// G0 charset is DEC Special Graphics (line drawing).
    pub line_drawing: bool,
}

impl PartialEq for Framebuffer {
    fn eq(&self, other: &Self) -> bool {
        self.width() == other.width()
            && self.height() == other.height()
            && (0..self.height()).all(|r| self.row(r) == other.row(r))
            && self.cursor == other.cursor
            && self.modes.cursor_visible == other.modes.cursor_visible
            && self.title == other.title
            && self.bell_count == other.bell_count
    }
}

impl Eq for Framebuffer {}

impl Framebuffer {
    /// Creates a blank screen of the given size.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "framebuffer must be at least 1x1");
        Framebuffer {
            width,
            rows: blank_rows(width, height).collect(),
            cursor: Cursor { row: 0, col: 0 },
            pen: Attrs::default(),
            modes: Modes::default(),
            scroll_top: 0,
            scroll_bottom: height - 1,
            tabs: (0..width).map(|c| c % 8 == 0 && c != 0).collect(),
            title: String::new(),
            bell_count: 0,
            wrap_pending: false,
            saved_cursor: None,
            alt_saved: None,
            answerback: Vec::new(),
            last_printed: None,
            line_drawing: false,
        }
    }

    /// Screen width in columns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Screen height in rows.
    pub fn height(&self) -> usize {
        self.rows.len()
    }

    /// The row at visual position `i` (0 = top of the live screen).
    ///
    /// # Panics
    ///
    /// Panics if `i >= height`.
    pub fn row(&self, i: usize) -> &Row {
        &self.rows[i]
    }

    /// The cell at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn cell(&self, row: usize, col: usize) -> &Cell {
        &self.rows[row].cells()[col]
    }

    /// Mutable cell access (used by tests and the prediction engine).
    /// Copies the row first if a clone shares it; the wide-pair invariant
    /// is the caller's responsibility.
    pub fn cell_mut(&mut self, row: usize, col: usize) -> &mut Cell {
        &mut self.rows[row].cells_mut()[col]
    }

    /// The window title (OSC 0/2).
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Sets the window title.
    pub fn set_title(&mut self, title: String) {
        self.title = title;
    }

    /// Number of BELs received so far.
    pub fn bell_count(&self) -> u64 {
        self.bell_count
    }

    /// Rings the bell.
    pub fn ring_bell(&mut self) {
        self.bell_count += 1;
    }

    /// Force the bell counter (used when applying a frame diff).
    pub fn set_bell_count(&mut self, n: u64) {
        self.bell_count = n;
    }

    /// Scroll region as an inclusive `(top, bottom)` pair.
    pub fn scroll_region(&self) -> (usize, usize) {
        (self.scroll_top, self.scroll_bottom)
    }

    /// Whether a print at the right margin is pending a wrap.
    pub fn wrap_pending(&self) -> bool {
        self.wrap_pending
    }

    /// Drains any pending terminal-to-host replies (DSR/DA).
    pub fn take_answerback(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.answerback)
    }

    pub(crate) fn push_answerback(&mut self, bytes: &[u8]) {
        self.answerback.extend_from_slice(bytes);
    }

    /// Blank cell carrying only the pen's background (BCE erase semantics).
    pub(crate) fn erase_cell(&self) -> Cell {
        blank_cell(self.pen.bg)
    }

    // ------------------------------------------------------------------
    // Cursor movement.
    // ------------------------------------------------------------------

    /// Moves the cursor to an absolute position, clamping to the screen (or
    /// to the scroll region when origin mode is on). Clears pending wrap.
    pub fn move_to(&mut self, row: usize, col: usize) {
        let (top, bottom) = if self.modes.origin {
            (self.scroll_top, self.scroll_bottom)
        } else {
            (0, self.height() - 1)
        };
        self.cursor.row = (top + row).min(bottom);
        self.cursor.col = col.min(self.width() - 1);
        self.wrap_pending = false;
    }

    /// Relative cursor move, clamped to the screen; clears pending wrap.
    pub fn move_relative(&mut self, dr: isize, dc: isize) {
        let row = self.cursor.row as isize + dr;
        let col = self.cursor.col as isize + dc;
        self.cursor.row = row.clamp(0, self.height() as isize - 1) as usize;
        self.cursor.col = col.clamp(0, self.width() as isize - 1) as usize;
        self.wrap_pending = false;
    }

    // ------------------------------------------------------------------
    // Printing.
    // ------------------------------------------------------------------

    /// Prints one character at the cursor with current pen, honouring
    /// insert mode, autowrap, and double-width characters.
    pub fn print(&mut self, ch: char) {
        let ch = if self.line_drawing {
            crate::charset::dec_special(ch)
        } else {
            ch
        };
        let w = crate::width::char_width(ch);
        if w == 0 {
            // Zero-width characters (combining marks) are not composed onto
            // cells in this implementation; they are dropped.
            return;
        }
        if w == 2 && self.width() < 2 {
            // A double-width character cannot fit on a one-column screen.
            return;
        }
        if self.wrap_pending && self.modes.autowrap {
            self.wrap_pending = false;
            self.cursor.col = 0;
            self.line_feed();
        }
        // A wide character that doesn't fit on this line wraps early.
        if w == 2 && self.cursor.col == self.width() - 1 {
            let erase = self.erase_cell();
            self.put_cell(self.cursor.row, self.cursor.col, erase);
            if self.modes.autowrap {
                self.cursor.col = 0;
                self.line_feed();
            } else {
                // Without autowrap the wide char is dropped at the margin.
                return;
            }
        }
        if self.modes.insert {
            let n = w;
            self.insert_chars(n);
        }
        let row = self.cursor.row;
        let col = self.cursor.col;
        self.put_cell(row, col, Cell::new(ch, w == 2, false, self.pen));
        if w == 2 {
            self.put_cell(row, col + 1, Cell::new(' ', false, true, self.pen));
        }
        self.last_printed = Some(ch);
        let new_col = col + w;
        if new_col >= self.width() {
            self.cursor.col = self.width() - 1;
            if self.modes.autowrap {
                self.wrap_pending = true;
            }
        } else {
            self.cursor.col = new_col;
        }
    }

    /// Prints a run of printable ASCII (every byte in `0x20..=0x7e`) at the
    /// cursor: the same screen and cursor as [`Self::print`] of each byte
    /// in turn, writing a whole row segment at a time instead of one cell.
    ///
    /// Insert mode, autowrap off and the line-drawing charset make a print
    /// depend on more than the cell under the cursor, so under any of them
    /// the run goes through `print` character by character.
    pub fn print_run(&mut self, mut run: &[u8]) {
        debug_assert!(run.iter().all(|b| (0x20..=0x7e).contains(b)));
        if self.modes.insert || !self.modes.autowrap || self.line_drawing {
            for &b in run {
                self.print(b as char);
            }
            return;
        }
        let Some(&last_byte) = run.last() else {
            return;
        };
        // The pen is packed once: each cell of the run is `template`
        // holding its byte.
        let (width, template, erase) = (self.width(), Cell::blank(self.pen), self.erase_cell());
        while !run.is_empty() {
            if self.wrap_pending {
                self.cursor.col = 0;
                self.line_feed();
            }
            let col = self.cursor.col;
            let (segment, rest) = run.split_at(run.len().min(width - col));
            let last = col + segment.len() - 1;
            let cells = self.rows[self.cursor.row].cells_mut();
            // The wide-pair invariant at the two ends of the span: a pair
            // the span cuts in half loses its other half too (`lo`/`hi`
            // step outward onto it; otherwise they are the span's own ends
            // and the fill overwrites them). Pairs wholly inside the span
            // are simply overwritten.
            let lo = col - usize::from(cells[col].wide_continuation() && col > 0);
            let hi = last + usize::from(cells[last].wide() && last + 1 < width);
            cells[lo] = erase;
            cells[hi] = erase;
            for (cell, &b) in cells[col..=last].iter_mut().zip(segment) {
                *cell = template;
                cell.set_ch(char::from(b));
            }
            if last + 1 == width {
                self.cursor.col = last;
                self.wrap_pending = true;
            } else {
                self.cursor.col = last + 1;
            }
            run = rest;
        }
        self.last_printed = Some(last_byte as char);
    }

    /// Repeats the last printed character `n` times (REP).
    pub fn repeat_last(&mut self, n: usize) {
        let Some(ch) = self.last_printed else {
            return;
        };
        if (' '..='~').contains(&ch) {
            // `n` reaches 65 535: whole rows at a time, not cell by cell.
            let chunk = [ch as u8; 256];
            let mut left = n;
            while left > 0 {
                let take = left.min(chunk.len());
                self.print_run(&chunk[..take]);
                left -= take;
            }
        } else {
            for _ in 0..n {
                self.print(ch);
            }
        }
    }

    /// Writes a cell, maintaining the invariant that wide characters always
    /// have an intact continuation: overwriting either half blanks the other.
    fn put_cell(&mut self, row: usize, col: usize, cell: Cell) {
        let erase = self.erase_cell();
        let width = self.width();
        let cells = self.rows[row].cells_mut();
        let old = cells[col];
        if old.wide() && col + 1 < width {
            cells[col + 1] = erase;
        }
        if old.wide_continuation() && col > 0 {
            cells[col - 1] = erase;
        }
        cells[col] = cell;
    }

    /// Fills the inclusive column span with the erase cell, extending to a
    /// neighbouring column when the span boundary would split a wide pair
    /// (the same blanking `put_cell` performs cell by cell). A span that
    /// already holds only the erase cell is left alone, so erasing a blank
    /// row that shares its storage copies nothing.
    fn fill_erase(&mut self, row: usize, lo: usize, hi: usize) {
        let erase = self.erase_cell();
        let width = self.width();
        let cells = self.rows[row].cells();
        let lo = lo - usize::from(cells[lo].wide_continuation() && lo > 0);
        let hi = hi + usize::from(cells[hi].wide() && hi + 1 < width);
        if cells[lo..=hi].iter().any(|c| *c != erase) {
            self.rows[row].cells_mut()[lo..=hi].fill(erase);
        }
    }

    // ------------------------------------------------------------------
    // Line feeds and scrolling.
    // ------------------------------------------------------------------

    /// Index / line feed: move down, scrolling if at the region bottom.
    pub fn line_feed(&mut self) {
        if self.cursor.row == self.scroll_bottom {
            self.scroll_up(1);
        } else if self.cursor.row < self.height() - 1 {
            self.cursor.row += 1;
        }
        self.wrap_pending = false;
    }

    /// Reverse index: move up, scrolling down if at the region top.
    pub fn reverse_line_feed(&mut self) {
        if self.cursor.row == self.scroll_top {
            self.scroll_down(1);
        } else if self.cursor.row > 0 {
            self.cursor.row -= 1;
        }
        self.wrap_pending = false;
    }

    /// Scrolls the scroll region up by `n` lines (text moves up); each row
    /// leaving at the top is discarded.
    pub fn scroll_up(&mut self, n: usize) {
        self.shift_up(self.scroll_top, self.scroll_bottom, n);
    }

    /// Scrolls the scroll region down by `n` lines (text moves down); each
    /// row leaving at the bottom is discarded.
    pub fn scroll_down(&mut self, n: usize) {
        self.shift_down(self.scroll_top, self.scroll_bottom, n);
    }

    /// Moves rows `top + n..=bottom` up `n` lines (`n` capped at the
    /// span); each row leaving at `top` is discarded and its handle comes
    /// back, blank in the pen's background, at `bottom`.
    fn shift_up(&mut self, top: usize, bottom: usize, n: usize) {
        for _ in 0..n.min(bottom - top + 1) {
            let mut row = self.rows.remove(top).expect("row on screen");
            row.reblank(self.width, self.pen.bg);
            self.rows.insert(bottom, row);
        }
    }

    /// Moves rows `top..=bottom - n` down `n` lines (`n` capped at the
    /// span); each row leaving at `bottom` is discarded and its handle
    /// comes back, blank in the pen's background, at `top`.
    fn shift_down(&mut self, top: usize, bottom: usize, n: usize) {
        for _ in 0..n.min(bottom - top + 1) {
            let mut row = self.rows.remove(bottom).expect("row on screen");
            row.reblank(self.width, self.pen.bg);
            self.rows.insert(top, row);
        }
    }

    /// Sets the scroll region from 1-based inclusive coordinates, moving the
    /// cursor home (DECSTBM). Invalid regions reset to the full screen.
    pub fn set_scroll_region(&mut self, top1: usize, bottom1: usize) {
        let top = top1.max(1) - 1;
        let bottom = if bottom1 == 0 { self.height() } else { bottom1 } - 1;
        if top < bottom && bottom < self.height() {
            self.scroll_top = top;
            self.scroll_bottom = bottom;
        } else {
            self.scroll_top = 0;
            self.scroll_bottom = self.height() - 1;
        }
        self.move_to(0, 0);
    }

    // ------------------------------------------------------------------
    // Insert / delete / erase.
    // ------------------------------------------------------------------

    /// Inserts `n` blank characters at the cursor, shifting the rest right.
    pub fn insert_chars(&mut self, n: usize) {
        let row = self.cursor.row;
        let col = self.cursor.col;
        let n = n.min(self.width() - col);
        let width = self.width();
        let erase = self.erase_cell();
        let cells = self.rows[row].cells_mut();
        // Splitting a wide pair at the insertion point orphans both halves.
        if cells[col].wide_continuation() {
            cells[col] = erase;
            if col > 0 {
                cells[col - 1] = erase;
            }
        }
        cells.splice(col..col, std::iter::repeat_n(erase, n));
        cells.truncate(width);
        // A wide lead pushed against the right edge loses its continuation.
        if let Some(last) = cells.last_mut() {
            if last.wide() {
                *last = erase;
            }
        }
    }

    /// Deletes `n` characters at the cursor, shifting the rest left.
    pub fn delete_chars(&mut self, n: usize) {
        let row = self.cursor.row;
        let col = self.cursor.col;
        let n = n.min(self.width() - col);
        let width = self.width();
        let erase = self.erase_cell();
        let cells = self.rows[row].cells_mut();
        // Deleting the continuation but not the lead orphans the lead.
        if cells[col].wide_continuation() && col > 0 {
            cells[col - 1] = erase;
        }
        // Deleting the lead but not the continuation orphans the latter.
        if col + n < width && cells[col + n].wide_continuation() {
            cells[col + n] = erase;
        }
        cells.drain(col..col + n);
        cells.extend(std::iter::repeat_n(erase, n));
    }

    /// Erases `n` characters at the cursor without shifting (ECH).
    pub fn erase_chars(&mut self, n: usize) {
        let col = self.cursor.col;
        let n = n.min(self.width() - col);
        if n > 0 {
            self.fill_erase(self.cursor.row, col, col + n - 1);
        }
    }

    /// Inserts `n` blank lines at the cursor row (IL); only inside the
    /// scroll region.
    pub fn insert_lines(&mut self, n: usize) {
        if self.cursor.row < self.scroll_top || self.cursor.row > self.scroll_bottom {
            return;
        }
        self.shift_down(self.cursor.row, self.scroll_bottom, n);
        self.cursor.col = 0;
        self.wrap_pending = false;
    }

    /// Deletes `n` lines at the cursor row (DL); only inside the scroll
    /// region.
    pub fn delete_lines(&mut self, n: usize) {
        if self.cursor.row < self.scroll_top || self.cursor.row > self.scroll_bottom {
            return;
        }
        self.shift_up(self.cursor.row, self.scroll_bottom, n);
        self.cursor.col = 0;
        self.wrap_pending = false;
    }

    /// Erase in line (EL): 0 = cursor to end, 1 = start to cursor, 2 = all.
    pub fn erase_line(&mut self, mode: u16) {
        let row = self.cursor.row;
        let (lo, hi) = match mode {
            0 => (self.cursor.col, self.width() - 1),
            1 => (0, self.cursor.col),
            _ => (0, self.width() - 1),
        };
        self.fill_erase(row, lo, hi);
    }

    /// Erase in display (ED): 0 = cursor to end, 1 = start to cursor,
    /// 2 and 3 = whole screen (xterm's E3 also clears saved lines, and
    /// none are kept).
    pub fn erase_display(&mut self, mode: u16) {
        match mode {
            0 => {
                self.erase_line(0);
                for r in self.cursor.row + 1..self.height() {
                    self.fill_erase(r, 0, self.width() - 1);
                }
            }
            1 => {
                self.erase_line(1);
                for r in 0..self.cursor.row {
                    self.fill_erase(r, 0, self.width() - 1);
                }
            }
            _ => {
                for r in 0..self.height() {
                    self.fill_erase(r, 0, self.width() - 1);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Tabs.
    // ------------------------------------------------------------------

    /// Moves to the next tab stop (or the right margin).
    pub fn tab_forward(&mut self) {
        let mut col = self.cursor.col;
        while col + 1 < self.width() {
            col += 1;
            if self.tabs[col] {
                break;
            }
        }
        self.cursor.col = col;
        self.wrap_pending = false;
    }

    /// Moves to the previous tab stop (or column 0).
    pub fn tab_backward(&mut self) {
        let mut col = self.cursor.col;
        while col > 0 {
            col -= 1;
            if self.tabs[col] {
                break;
            }
        }
        self.cursor.col = col;
        self.wrap_pending = false;
    }

    /// Sets a tab stop at the cursor column (HTS).
    pub fn set_tab(&mut self) {
        self.tabs[self.cursor.col] = true;
    }

    /// Clears tab stops: mode 0 at cursor, mode 3 all (TBC).
    pub fn clear_tabs(&mut self, mode: u16) {
        match mode {
            0 => self.tabs[self.cursor.col] = false,
            3 => self.tabs.fill(false),
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Save/restore and screens.
    // ------------------------------------------------------------------

    /// DECSC: save cursor, pen, and origin mode.
    pub fn save_cursor(&mut self) {
        self.saved_cursor = Some(SavedCursor {
            cursor: self.cursor,
            pen: self.pen,
            origin_mode: self.modes.origin,
            wrap_pending: self.wrap_pending,
        });
    }

    /// DECRC: restore the saved cursor (or home if none saved).
    pub fn restore_cursor(&mut self) {
        if let Some(s) = self.saved_cursor {
            self.cursor = Cursor {
                row: s.cursor.row.min(self.height() - 1),
                col: s.cursor.col.min(self.width() - 1),
            };
            self.pen = s.pen;
            self.modes.origin = s.origin_mode;
            self.wrap_pending = s.wrap_pending;
        } else {
            self.cursor = Cursor { row: 0, col: 0 };
            self.pen = Attrs::default();
            self.wrap_pending = false;
        }
    }

    /// Switches to the alternate screen (clearing it). No-op if already on.
    pub fn enter_alternate_screen(&mut self) {
        if self.alt_saved.is_some() {
            return;
        }
        let blank = blank_rows(self.width, self.height()).collect();
        self.alt_saved = Some((std::mem::replace(&mut self.rows, blank), self.cursor));
        self.cursor = Cursor { row: 0, col: 0 };
        self.wrap_pending = false;
    }

    /// Returns from the alternate screen, restoring the primary contents.
    pub fn exit_alternate_screen(&mut self) {
        if let Some((rows, cursor)) = self.alt_saved.take() {
            // `resize` and `decode` keep the stashed cursor on the screen.
            self.rows = rows;
            self.cursor = cursor;
            self.wrap_pending = false;
        }
    }

    /// RIS: reset to initial state (size, title and bell count are kept;
    /// everything else returns to power-on defaults).
    pub fn reset(&mut self) {
        let old = std::mem::replace(self, Framebuffer::new(self.width, self.height()));
        self.title = old.title;
        self.bell_count = old.bell_count;
    }

    /// DECALN: fill the screen with 'E' and reset margins (alignment test).
    pub fn screen_alignment_test(&mut self) {
        let cell = Cell::narrow('E', Attrs::default());
        for r in 0..self.height() {
            self.rows[r].cells_mut().fill(cell);
        }
        self.scroll_top = 0;
        self.scroll_bottom = self.height() - 1;
        self.cursor = Cursor { row: 0, col: 0 };
        self.wrap_pending = false;
    }

    // ------------------------------------------------------------------
    // Resize.
    // ------------------------------------------------------------------

    /// Resizes the screen, preserving the top-left contents (Mosh keeps
    /// content anchored at the top on resize). Resets the scroll region and
    /// clamps the cursor.
    pub fn resize(&mut self, width: usize, height: usize) {
        assert!(width > 0 && height > 0, "resize to at least 1x1");
        if width == self.width() && height == self.height() {
            return;
        }
        // The alternate-screen stash must track the new size too.
        if let Some((rows, cursor)) = &mut self.alt_saved {
            reshape(rows, self.width, width, height);
            cursor.row = cursor.row.min(height - 1);
            cursor.col = cursor.col.min(width - 1);
        }
        reshape(&mut self.rows, self.width, width, height);
        self.width = width;
        self.scroll_top = 0;
        self.scroll_bottom = height - 1;
        self.cursor.row = self.cursor.row.min(height - 1);
        self.cursor.col = self.cursor.col.min(width - 1);
        self.tabs = (0..width).map(|c| c % 8 == 0 && c != 0).collect();
        self.wrap_pending = false;
    }

    /// Resets interpreter state to the invariants a diff-receiving client is
    /// known to satisfy (diffs never alter these modes): the receiver the
    /// display differ reasons about, and the one its debug-build convergence
    /// check replays each diff through.
    ///
    /// `wrap_pending` is set conservatively: the client *might* have a wrap
    /// pending from a previous diff's final print, so the differ must issue
    /// an explicit cursor move before its first print (which clears it on
    /// both ends).
    pub fn normalize_for_diff(&mut self) {
        self.modes.origin = false;
        self.modes.insert = false;
        self.modes.autowrap = true;
        self.scroll_top = 0;
        self.scroll_bottom = self.height() - 1;
        self.line_drawing = false;
        self.wrap_pending = true;
    }

    // ------------------------------------------------------------------
    // Snapshot serialization.
    // ------------------------------------------------------------------

    /// Serializes the complete screen *and* interpreter state for a session
    /// snapshot. Unlike the display differ, nothing is normalized away: pen,
    /// modes, scroll region, tabs, saved cursors and the alternate-screen
    /// stash all round-trip, so a restored framebuffer interprets future
    /// bytes exactly like the original would have.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.width() as u64);
        put_varint(out, self.height() as u64);
        (0..self.height()).for_each(|r| self.row(r).encode_into(out));
        put_cursor(out, self.cursor);
        put_attrs(out, &self.pen);
        out.push(
            u8::from(self.modes.autowrap)
                | u8::from(self.modes.origin) << 1
                | u8::from(self.modes.insert) << 2
                | u8::from(self.modes.cursor_visible) << 3
                | u8::from(self.modes.application_cursor_keys) << 4
                | u8::from(self.modes.bracketed_paste) << 5
                | u8::from(self.modes.mouse_reporting) << 6,
        );
        put_varint(out, self.scroll_top as u64);
        put_varint(out, self.scroll_bottom as u64);
        let mut tab_bits = vec![0u8; self.width().div_ceil(8)];
        for (c, &set) in self.tabs.iter().enumerate() {
            if set {
                tab_bits[c / 8] |= 1 << (c % 8);
            }
        }
        out.extend_from_slice(&tab_bits);
        put_bytes(out, self.title.as_bytes());
        put_varint(out, self.bell_count);
        put_bool(out, self.wrap_pending);
        put_bool(out, self.saved_cursor.is_some());
        if let Some(s) = &self.saved_cursor {
            put_cursor(out, s.cursor);
            put_attrs(out, &s.pen);
            put_bool(out, s.origin_mode);
            put_bool(out, s.wrap_pending);
        }
        put_bool(out, self.alt_saved.is_some());
        if let Some((rows, cursor)) = &self.alt_saved {
            rows.iter().for_each(|row| row.encode_into(out));
            put_cursor(out, *cursor);
        }
        put_bytes(out, &self.answerback);
        put_bool(out, self.last_printed.is_some());
        if let Some(c) = self.last_printed {
            put_char(out, c);
        }
        put_bool(out, self.line_drawing);
        // The format's history fields (a limit, that many rows at most and
        // a viewport offset into them), written empty: none is kept.
        out.extend_from_slice(&[0, 0, 0]);
    }

    /// Rebuilds a framebuffer from [`Self::encode_into`] output. Every
    /// structural invariant the editing primitives rely on (row/column
    /// bounds, tab-vector length, scroll-region ordering) is re-validated,
    /// so a decoded framebuffer can never panic later.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let width = r.varint()? as usize;
        let height = r.varint()? as usize;
        let max = usize::from(MAX_DIMENSION);
        if width == 0 || height == 0 || width > max || height > max {
            return None;
        }
        let rows = decode_screen(r, width, height)?;
        let cursor = decode_cursor(r)?;
        if cursor.row >= height || cursor.col >= width {
            return None;
        }
        let pen = get_attrs(r)?;
        let m = r.byte()?;
        if m & 0x80 != 0 {
            return None;
        }
        let modes = Modes {
            autowrap: m & 1 != 0,
            origin: m & 2 != 0,
            insert: m & 4 != 0,
            cursor_visible: m & 8 != 0,
            application_cursor_keys: m & 16 != 0,
            bracketed_paste: m & 32 != 0,
            mouse_reporting: m & 64 != 0,
        };
        let scroll_top = r.varint()? as usize;
        let scroll_bottom = r.varint()? as usize;
        if scroll_top > scroll_bottom || scroll_bottom >= height {
            return None;
        }
        let tab_bits = r.take(width.div_ceil(8))?;
        let tabs: Vec<bool> = (0..width)
            .map(|c| tab_bits[c / 8] & (1 << (c % 8)) != 0)
            .collect();
        let title = r.string()?;
        let bell_count = r.varint()?;
        let wrap_pending = r.bool()?;
        let saved_cursor = match r.bool()? {
            false => None,
            // restore_cursor clamps, so out-of-range saved positions
            // are tolerated the way a live resize tolerates them.
            true => Some(SavedCursor {
                cursor: decode_cursor(r)?,
                pen: get_attrs(r)?,
                origin_mode: r.bool()?,
                wrap_pending: r.bool()?,
            }),
        };
        let alt_saved = match r.bool()? {
            false => None,
            true => {
                let alt_rows = decode_screen(r, width, height)?;
                let c = decode_cursor(r)?;
                if c.row >= height || c.col >= width {
                    return None;
                }
                Some((alt_rows, c))
            }
        };
        let answerback = r.bytes()?.to_vec();
        let last_printed = match r.bool()? {
            false => None,
            true => Some(get_char(r)?),
        };
        let line_drawing = r.bool()?;
        // History, which older writers kept: checked, so that every
        // input refused while history was kept is still refused, then
        // skipped and dropped.
        let limit = r.varint()?;
        let len = r.varint()?;
        if limit > 1_000_000 || len > limit {
            return None;
        }
        for _ in 0..len {
            Row::skip(r, width)?;
        }
        if r.varint()? > len {
            return None;
        }
        Some(Framebuffer {
            width,
            rows,
            cursor,
            pen,
            modes,
            scroll_top,
            scroll_bottom,
            tabs,
            title,
            bell_count,
            wrap_pending,
            saved_cursor,
            alt_saved,
            answerback,
            last_printed,
            line_drawing,
        })
    }

    // ------------------------------------------------------------------
    // Test / debugging helpers.
    // ------------------------------------------------------------------

    /// The visible text of one row, with trailing blanks trimmed.
    pub fn row_text(&self, row: usize) -> String {
        let mut s: String = self
            .row(row)
            .cells()
            .iter()
            .filter(|c| !c.wide_continuation())
            .map(Cell::ch)
            .collect();
        while s.ends_with(' ') {
            s.pop();
        }
        s
    }

    /// The visible text of the whole screen, one line per row, trailing
    /// blank rows trimmed. Intended for tests and examples.
    pub fn to_text(&self) -> String {
        let mut lines: Vec<String> = (0..self.height()).map(|r| self.row_text(r)).collect();
        while lines.last().is_some_and(|l| l.is_empty()) {
            lines.pop();
        }
        lines.join("\n")
    }
}

fn put_cursor(out: &mut Vec<u8>, c: Cursor) {
    put_varint(out, c.row as u64);
    put_varint(out, c.col as u64);
}

fn decode_cursor(r: &mut Reader<'_>) -> Option<Cursor> {
    Some(Cursor {
        row: r.varint()? as usize,
        col: r.varint()? as usize,
    })
}

/// A screen's `height` rows of `width` cells, top to bottom; blank ones
/// share the thread's blank row. Each row takes at least one input byte,
/// so the deque is sized once, and never past what the input can hold.
fn decode_screen(r: &mut Reader<'_>, width: usize, height: usize) -> Option<VecDeque<Row>> {
    let blank = shared_blank(width);
    let mut rows = VecDeque::with_capacity(height.min(r.remaining()));
    for _ in 0..height {
        rows.push_back(Row::decode(r, &blank)?);
    }
    Some(rows)
}

/// Pads or cuts `rows`, now `from` cells wide, to `width` cells each and,
/// at the bottom, to `height` rows. The rows it adds share one blank row.
fn reshape(rows: &mut VecDeque<Row>, from: usize, width: usize, height: usize) {
    if width != from {
        rows.iter_mut().for_each(|row| row.set_width(width));
    }
    if rows.len() < height {
        let missing = height - rows.len();
        rows.extend(blank_rows(width, missing));
    } else {
        rows.truncate(height);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Color;

    #[test]
    fn new_framebuffer_is_blank() {
        let fb = Framebuffer::new(80, 24);
        assert_eq!(fb.width(), 80);
        assert_eq!(fb.height(), 24);
        assert_eq!(fb.to_text(), "");
        assert_eq!(fb.cursor, Cursor { row: 0, col: 0 });
    }

    #[test]
    fn print_advances_cursor() {
        let mut fb = Framebuffer::new(10, 3);
        fb.print('h');
        fb.print('i');
        assert_eq!(fb.row_text(0), "hi");
        assert_eq!(fb.cursor.col, 2);
    }

    #[test]
    fn print_at_margin_sets_wrap_pending() {
        let mut fb = Framebuffer::new(3, 2);
        for c in "abc".chars() {
            fb.print(c);
        }
        assert_eq!(fb.cursor.col, 2);
        assert!(fb.wrap_pending());
        fb.print('d');
        assert_eq!(fb.row_text(0), "abc");
        assert_eq!(fb.row_text(1), "d");
        assert_eq!(fb.cursor, Cursor { row: 1, col: 1 });
    }

    #[test]
    fn no_autowrap_overwrites_margin() {
        let mut fb = Framebuffer::new(3, 2);
        fb.modes.autowrap = false;
        for c in "abcd".chars() {
            fb.print(c);
        }
        assert_eq!(fb.row_text(0), "abd");
        assert_eq!(fb.cursor.row, 0);
    }

    #[test]
    fn wide_char_occupies_two_cells() {
        let mut fb = Framebuffer::new(10, 2);
        fb.print('漢');
        assert!(fb.cell(0, 0).wide());
        assert!(fb.cell(0, 1).wide_continuation());
        assert_eq!(fb.cursor.col, 2);
    }

    #[test]
    fn wide_char_wraps_early_at_margin() {
        let mut fb = Framebuffer::new(3, 2);
        fb.print('a');
        fb.print('b');
        fb.print('漢');
        assert_eq!(fb.row_text(0), "ab");
        assert!(fb.cell(1, 0).wide());
    }

    #[test]
    fn overwriting_wide_lead_blanks_continuation() {
        let mut fb = Framebuffer::new(10, 2);
        fb.print('漢');
        fb.move_to(0, 0);
        fb.print('x');
        assert_eq!(fb.cell(0, 0).ch(), 'x');
        assert!(!fb.cell(0, 1).wide_continuation());
        assert_eq!(fb.cell(0, 1).ch(), ' ');
    }

    #[test]
    fn overwriting_continuation_blanks_lead() {
        let mut fb = Framebuffer::new(10, 2);
        fb.print('漢');
        fb.move_to(0, 1);
        fb.print('x');
        assert_eq!(fb.cell(0, 0).ch(), ' ');
        assert!(!fb.cell(0, 0).wide());
        assert_eq!(fb.cell(0, 1).ch(), 'x');
    }

    #[test]
    fn line_feed_scrolls_at_bottom() {
        let mut fb = Framebuffer::new(5, 2);
        fb.print('a');
        fb.move_to(1, 0);
        fb.print('b');
        fb.move_to(1, 0);
        fb.line_feed();
        assert_eq!(fb.row_text(0), "b");
        assert_eq!(fb.row_text(1), "");
    }

    #[test]
    fn scroll_region_confines_scrolling() {
        let mut fb = Framebuffer::new(5, 4);
        for (r, t) in ["aa", "bb", "cc", "dd"].iter().enumerate() {
            fb.move_to(r, 0);
            for c in t.chars() {
                fb.print(c);
            }
        }
        fb.set_scroll_region(2, 3); // rows 1..=2 0-based
        fb.move_to(2, 0); // bottom of region (origin off: absolute row 2)
        fb.line_feed();
        assert_eq!(fb.row_text(0), "aa");
        assert_eq!(fb.row_text(1), "cc");
        assert_eq!(fb.row_text(2), "");
        assert_eq!(fb.row_text(3), "dd");
    }

    #[test]
    fn reverse_line_feed_scrolls_down_at_top() {
        let mut fb = Framebuffer::new(5, 3);
        fb.print('a');
        fb.move_to(0, 0);
        fb.reverse_line_feed();
        assert_eq!(fb.row_text(0), "");
        assert_eq!(fb.row_text(1), "a");
    }

    #[test]
    fn insert_and_delete_chars() {
        let mut fb = Framebuffer::new(6, 1);
        for c in "abcde".chars() {
            fb.print(c);
        }
        fb.move_to(0, 1);
        fb.insert_chars(2);
        assert_eq!(fb.row_text(0), "a  bcd");
        fb.delete_chars(2);
        assert_eq!(fb.row_text(0), "abcd");
    }

    #[test]
    fn erase_line_variants() {
        let mut fb = Framebuffer::new(5, 1);
        for c in "abcde".chars() {
            fb.print(c);
        }
        fb.move_to(0, 2);
        fb.erase_line(0);
        assert_eq!(fb.row_text(0), "ab");
        for c in "cde".chars() {
            fb.print(c);
        }
        fb.move_to(0, 2);
        fb.erase_line(1);
        assert_eq!(fb.row_text(0), "   de");
        fb.erase_line(2);
        assert_eq!(fb.row_text(0), "");
    }

    #[test]
    fn erase_display_from_cursor() {
        let mut fb = Framebuffer::new(3, 3);
        for r in 0..3 {
            fb.move_to(r, 0);
            for c in "xyz".chars() {
                fb.print(c);
            }
        }
        fb.move_to(1, 1);
        fb.erase_display(0);
        assert_eq!(fb.row_text(0), "xyz");
        assert_eq!(fb.row_text(1), "x");
        assert_eq!(fb.row_text(2), "");
    }

    #[test]
    fn erase_uses_pen_background() {
        let mut fb = Framebuffer::new(4, 1);
        fb.pen.bg = Color::Indexed(4);
        fb.erase_line(2);
        assert_eq!(fb.cell(0, 0).attrs().bg, Color::Indexed(4));
        assert!(!fb.cell(0, 0).attrs().bold);
    }

    #[test]
    fn insert_delete_lines_respect_region() {
        let mut fb = Framebuffer::new(3, 4);
        for (r, t) in ["a", "b", "c", "d"].iter().enumerate() {
            fb.move_to(r, 0);
            fb.print(t.chars().next().unwrap());
        }
        fb.set_scroll_region(1, 3);
        fb.move_to(1, 0);
        fb.insert_lines(1);
        assert_eq!(fb.row_text(0), "a");
        assert_eq!(fb.row_text(1), "");
        assert_eq!(fb.row_text(2), "b");
        assert_eq!(fb.row_text(3), "d");
        fb.delete_lines(1);
        assert_eq!(fb.row_text(1), "b");
        assert_eq!(fb.row_text(2), "");
    }

    #[test]
    fn tabs_default_every_eight() {
        let mut fb = Framebuffer::new(20, 1);
        fb.tab_forward();
        assert_eq!(fb.cursor.col, 8);
        fb.tab_forward();
        assert_eq!(fb.cursor.col, 16);
        fb.tab_forward();
        assert_eq!(fb.cursor.col, 19);
        fb.tab_backward();
        assert_eq!(fb.cursor.col, 16);
    }

    #[test]
    fn custom_tab_stops() {
        let mut fb = Framebuffer::new(20, 1);
        fb.move_to(0, 3);
        fb.set_tab();
        fb.move_to(0, 0);
        fb.tab_forward();
        assert_eq!(fb.cursor.col, 3);
        fb.clear_tabs(3);
        fb.move_to(0, 0);
        fb.tab_forward();
        assert_eq!(fb.cursor.col, 19);
    }

    #[test]
    fn save_restore_cursor() {
        let mut fb = Framebuffer::new(10, 5);
        fb.move_to(2, 3);
        fb.pen.bold = true;
        fb.save_cursor();
        fb.move_to(0, 0);
        fb.pen.bold = false;
        fb.restore_cursor();
        assert_eq!(fb.cursor, Cursor { row: 2, col: 3 });
        assert!(fb.pen.bold);
    }

    #[test]
    fn alternate_screen_round_trip() {
        let mut fb = Framebuffer::new(5, 2);
        fb.print('p');
        fb.enter_alternate_screen();
        assert_eq!(fb.to_text(), "");
        fb.print('a');
        assert_eq!(fb.row_text(0), "a");
        fb.exit_alternate_screen();
        assert_eq!(fb.row_text(0), "p");
    }

    #[test]
    fn resize_preserves_top_left() {
        let mut fb = Framebuffer::new(5, 3);
        fb.print('a');
        fb.move_to(1, 0);
        fb.print('b');
        fb.resize(3, 2);
        assert_eq!(fb.row_text(0), "a");
        assert_eq!(fb.row_text(1), "b");
        fb.resize(8, 4);
        assert_eq!(fb.row_text(0), "a");
        assert_eq!(fb.width(), 8);
    }

    #[test]
    fn resize_cuts_no_wide_pair_in_half_on_either_screen() {
        // A wide pair straddling the new margin loses its lead too — on the
        // live screen and in the primary screen stashed behind the
        // alternate one, which comes back with `exit_alternate_screen`.
        let mut fb = Framebuffer::new(6, 2);
        fb.move_to(0, 2);
        fb.print('漢');
        fb.enter_alternate_screen();
        fb.move_to(0, 2);
        fb.print('字');
        fb.resize(3, 2);
        assert_eq!(*fb.cell(0, 2), Cell::default());
        fb.exit_alternate_screen();
        assert_eq!(*fb.cell(0, 2), Cell::default());
    }

    #[test]
    fn resize_clamps_cursor() {
        let mut fb = Framebuffer::new(10, 10);
        fb.move_to(9, 9);
        fb.resize(4, 4);
        assert_eq!(fb.cursor, Cursor { row: 3, col: 3 });
    }

    #[test]
    fn origin_mode_offsets_addressing() {
        let mut fb = Framebuffer::new(10, 10);
        fb.set_scroll_region(3, 8);
        fb.modes.origin = true;
        fb.move_to(0, 0);
        assert_eq!(fb.cursor.row, 2);
        fb.move_to(99, 0);
        assert_eq!(fb.cursor.row, 7); // clamped to region bottom
    }

    #[test]
    fn equality_ignores_pen_and_region() {
        let mut a = Framebuffer::new(10, 5);
        let mut b = Framebuffer::new(10, 5);
        a.pen.bold = true;
        a.set_scroll_region(2, 4);
        b.move_to(0, 0);
        a.move_to(0, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn equality_sees_cells_cursor_title_bell() {
        let base = Framebuffer::new(10, 5);
        let mut c = base.clone();
        c.print('x');
        assert_ne!(base, c);
        let mut c = base.clone();
        c.move_to(1, 1);
        assert_ne!(base, c);
        let mut c = base.clone();
        c.set_title("t".into());
        assert_ne!(base, c);
        let mut c = base.clone();
        c.ring_bell();
        assert_ne!(base, c);
        let mut c = base.clone();
        c.modes.cursor_visible = false;
        assert_ne!(base, c);
    }

    #[test]
    fn reset_keeps_size_and_title() {
        let mut fb = Framebuffer::new(7, 3);
        fb.set_title("keepme".into());
        fb.print('x');
        fb.modes.autowrap = false;
        fb.reset();
        assert_eq!(fb.width(), 7);
        assert_eq!(fb.title(), "keepme");
        assert_eq!(fb.to_text(), "");
        assert!(fb.modes.autowrap);
    }

    #[test]
    fn alignment_test_fills_screen() {
        let mut fb = Framebuffer::new(3, 2);
        fb.screen_alignment_test();
        assert_eq!(fb.to_text(), "EEE\nEEE");
    }

    #[test]
    fn repeat_last_printed() {
        let mut fb = Framebuffer::new(10, 1);
        fb.print('z');
        fb.repeat_last(3);
        assert_eq!(fb.row_text(0), "zzzz");
    }

    // --------------------------------------------------------------
    // Shared rows.
    // --------------------------------------------------------------

    #[test]
    fn clone_shares_rows_and_cow_isolates_them() {
        let mut fb = Framebuffer::new(10, 3);
        fb.print('a');
        let snap = fb.clone();
        assert!(Row::same_data(fb.row(0), snap.row(0)));
        fb.move_to(0, 5);
        fb.print('b');
        assert!(!Row::same_data(fb.row(0), snap.row(0)));
        assert!(Row::same_data(fb.row(1), snap.row(1)), "untouched row");
        assert_eq!(snap.row_text(0), "a");
        assert_eq!(fb.row_text(0), "a    b");
    }

    #[test]
    fn scroll_preserves_row_identity() {
        let mut fb = Framebuffer::new(5, 3);
        fb.print('a');
        let snap = fb.clone();
        fb.move_to(2, 0);
        fb.line_feed(); // full-screen scroll by one
        assert!(Row::same_data(fb.row(0), snap.row(1)));
        assert!(Row::same_data(fb.row(1), snap.row(2)));
        assert!(!Row::same_data(fb.row(2), snap.row(0)));
    }

    #[test]
    fn scroll_reuses_only_unshared_storage_under_a_new_identity() {
        let mut fb = Framebuffer::new(10, 3);
        fb.print('x');
        let storage = fb.row(0).cells().as_ptr();
        // Unshared: the evicted top row comes back, blank, as the bottom
        // row, and shares nothing with the row it used to be.
        let top = fb.row(0).clone();
        fb.cell_mut(0, 5).set_ch('y'); // copy-on-write: `top` keeps the old storage
        let unshared = fb.row(0).cells().as_ptr();
        assert_ne!(unshared, storage);
        fb.scroll_up(1);
        assert_eq!(fb.row(2).cells().as_ptr(), unshared, "storage reused");
        assert_eq!(fb.row_text(2), "");
        assert!(!Row::same_data(fb.row(2), &top));
        assert_eq!(top.cells()[0].ch(), 'x');
        // Shared: a clone still shows the row this scroll evicts, which
        // holds a character, so it is not the blank the scroll wants.
        fb.cell_mut(0, 0).set_ch('z');
        let held = fb.clone();
        let shared = fb.row(0).cells().as_ptr();
        fb.scroll_up(1);
        assert_ne!(
            fb.row(2).cells().as_ptr(),
            shared,
            "shared storage left alone"
        );
        assert_eq!(held.row(0).cells().as_ptr(), shared);
    }

    /// True when every row of `fb` but those in `own` shares one storage.
    fn blank_rows_shared_except(fb: &Framebuffer, own: &[usize]) -> bool {
        let rows: Vec<&Row> = (0..fb.height())
            .filter(|r| !own.contains(r))
            .map(|r| fb.row(r))
            .collect();
        rows.windows(2).all(|w| Row::same_data(w[0], w[1]))
    }

    #[test]
    fn a_fresh_screen_shares_one_blank_row() {
        let fb = Framebuffer::new(80, 24);
        assert!(blank_rows_shared_except(&fb, &[]));
        let mut alt = fb.clone();
        alt.enter_alternate_screen();
        assert!(blank_rows_shared_except(&alt, &[]));
        alt.reset();
        assert!(blank_rows_shared_except(&alt, &[]));
    }

    #[test]
    fn fresh_screens_of_one_width_share_the_threads_blank_row() {
        let a = Framebuffer::new(80, 24);
        let mut b = Framebuffer::new(80, 3);
        let mut bytes = Vec::new();
        a.encode_into(&mut bytes);
        let decoded = Framebuffer::decode(&mut Reader::new(&bytes)).unwrap();
        assert!(Row::same_data(a.row(0), b.row(2)));
        assert!(Row::same_data(a.row(0), decoded.row(23)));
        assert!(!Row::same_data(a.row(0), Framebuffer::new(81, 24).row(0)));
        // A write copies its own row only; the other screen is untouched.
        b.move_to(1, 0);
        b.print('x');
        assert!(!Row::same_data(a.row(1), b.row(1)));
        assert!(Row::same_data(a.row(1), b.row(0)));
        assert!(Row::same_data(a.row(1), b.row(2)));
        assert_eq!(a.to_text(), "");
        assert_eq!(b.row_text(1), "x");
    }

    #[test]
    fn the_differ_skips_rows_shared_across_screens_as_the_oracle_compares_them() {
        // Two sessions' screens: every pair of blank rows shares storage,
        // and the written rows do not.
        let mut last = Framebuffer::new(20, 6);
        let mut target = Framebuffer::new(20, 6);
        last.move_to(2, 0);
        last.print('a');
        target.move_to(4, 3);
        target.print('b');
        target.scroll_up(1);
        let mut fast = String::new();
        for initialized in [false, true] {
            crate::display::new_frame_into(initialized, &last, &target, &mut fast);
            let oracle = crate::display::new_frame_full_scan(initialized, &last, &target);
            assert_eq!(fast, oracle, "initialized: {initialized}");
        }
    }

    #[test]
    fn erasing_blank_rows_copies_nothing() {
        let mut fb = Framebuffer::new(80, 24);
        let before = fb.clone();
        fb.move_to(3, 10);
        for mode in 0..=2 {
            fb.erase_line(mode);
        }
        for mode in 0..=3 {
            fb.erase_display(mode);
        }
        fb.erase_chars(5);
        assert!(blank_rows_shared_except(&fb, &[]));
        assert!(Row::same_data(fb.row(0), before.row(0)));
        // An erase in another background does write, into its rows only.
        fb.pen.bg = Color::Indexed(4);
        fb.erase_line(2);
        assert!(!Row::same_data(fb.row(3), before.row(3)));
        assert!(blank_rows_shared_except(&fb, &[3]));
    }

    #[test]
    fn a_print_copies_only_its_own_row() {
        let mut fb = Framebuffer::new(80, 24);
        fb.move_to(5, 0);
        fb.print('x');
        assert!(!Row::same_data(fb.row(5), fb.row(4)));
        assert!(blank_rows_shared_except(&fb, &[5]));
        assert_eq!(fb.row_text(4), "");
        assert_eq!(fb.row_text(5), "x");
    }

    #[test]
    fn a_scroll_keeps_a_shared_blank_row() {
        let mut fb = Framebuffer::new(10, 4);
        let held = fb.clone();
        fb.scroll_up(2);
        fb.scroll_down(1);
        assert!(blank_rows_shared_except(&fb, &[]));
        assert!(Row::same_data(fb.row(0), held.row(0)));
        // A blank in another background is not the row evicted.
        fb.pen.bg = Color::Indexed(2);
        fb.scroll_up(1);
        assert!(blank_rows_shared_except(&fb, &[3]));
        assert_eq!(fb.cell(3, 0).attrs().bg, Color::Indexed(2));
    }

    #[test]
    fn a_resize_pads_with_one_shared_blank_row() {
        let mut fb = Framebuffer::new(10, 4);
        fb.move_to(1, 0);
        fb.print('y');
        fb.enter_alternate_screen();
        fb.resize(10, 7);
        // The rows a resize adds, live and stashed, share one blank row,
        // and a height-only resize leaves the rows it keeps shared.
        assert!(blank_rows_shared_except(&fb, &[4, 5, 6]));
        assert!(Row::same_data(fb.row(4), fb.row(6)));
        fb.exit_alternate_screen();
        assert!(Row::same_data(fb.row(4), fb.row(6)));
        assert!(Row::same_data(fb.row(0), fb.row(3)));
        assert_eq!(fb.row_text(1), "y");
        fb.resize(20, 9);
        assert!(Row::same_data(fb.row(7), fb.row(8)));
        assert_eq!(fb.row(0).cells().len(), 20);
        assert_eq!(fb.row(8).cells().len(), 20);
        assert_eq!(fb.row_text(1), "y");
    }

    #[test]
    fn erase_display_3_erases_the_whole_screen() {
        let mut fb = Framebuffer::new(3, 2);
        fb.print('a');
        fb.move_to(1, 2);
        fb.print('b');
        let mut plain = fb.clone();
        fb.erase_display(3);
        plain.erase_display(2);
        assert_eq!(fb.to_text(), "");
        let bytes = |f: &Framebuffer| {
            let mut out = Vec::new();
            f.encode_into(&mut out);
            out
        };
        assert_eq!(bytes(&fb), bytes(&plain), "ED 3 is ED 2");
    }
}
