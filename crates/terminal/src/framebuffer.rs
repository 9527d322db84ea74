//! The screen grid and its editing primitives.
//!
//! [`Framebuffer`] holds everything the *user can see*: the cell grid, the
//! cursor, the window title, and the bell count. It also carries the
//! interpreter state that decides how future bytes are rendered (pen,
//! scrolling region, modes, tab stops) — but only the visible portion
//! participates in equality, because SSP synchronizes what the user sees,
//! not the interpreter internals (the client never feeds application bytes
//! into its own framebuffer; it only applies self-contained diffs).
//!
//! # Shared rows
//!
//! Every row is a copy-on-write handle ([`Row`]) around shared cell
//! storage. Cloning a framebuffer — which the sender does for every
//! shipped state — is O(height) pointer bumps, and the first mutation of
//! a shared row copies its cells. Storage is written in place only while
//! no other handle holds it, so two rows that share storage
//! ([`Row::same_data`]) hold the same cells: the display differ skips
//! those without reading them and compares the cells of every other row,
//! so the emitted bytes are identical to a full scan by construction.
//!
//! A scroll's blank row may be built in the storage of the row that scroll
//! evicted (see "Scrollback"), but only when no earlier frame shares that
//! storage, so no earlier frame can mistake the new row for its old one.
//!
//! # Scrollback
//!
//! The grid itself is a ring buffer, so a full-screen scroll is O(1)
//! pointer math rather than a row rotation. Rows evicted off the top of
//! the primary screen land in a bounded scrollback deque; `display_offset`
//! selects how far back the viewport is scrolled (0 = live screen).
//! Scrollback and the offset ride session snapshots, so they survive
//! migration and checkpoint/resurrect, but they are *not* part of
//! framebuffer equality: SSP synchronizes the visible screen only.
//!
//! Every scroll discards exactly one row for good — the oldest history
//! line once scrollback is full, the top row itself where no history is
//! kept (alternate screen, a limit of 0), the row a region scroll, a
//! scroll-down, IL or DL pushes out of the region — and needs exactly one
//! blank row. The blank row is built in the discarded row's storage
//! whenever no clone of the framebuffer (a state the sender still retains)
//! shares it, so a flooding terminal in steady state scrolls without
//! touching the allocator; a shared row stays with its sharers, untouched,
//! and the scroll allocates a new one.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::cell::{Attrs, Cell};

/// Rows of scrollback a fresh framebuffer retains (see
/// [`Framebuffer::set_scrollback_limit`]).
pub const DEFAULT_SCROLLBACK: usize = 200;

/// One row of the grid: a copy-on-write handle to shared cell storage,
/// always exactly the screen width long.
///
/// Cloning is O(1); the first mutation after a clone copies the cells.
#[derive(Debug, Clone)]
pub struct Row {
    data: Arc<Vec<Cell>>,
}

/// A blank cell carrying only the given background color.
fn blank_cell(bg: crate::cell::Color) -> Cell {
    Cell::blank(Attrs {
        bg,
        ..Attrs::default()
    })
}

impl Row {
    /// A row of blank cells carrying only the given background color.
    pub fn blank(width: usize, bg: crate::cell::Color) -> Self {
        Row::from_cells(vec![blank_cell(bg); width])
    }

    pub(crate) fn from_cells(cells: Vec<Cell>) -> Self {
        Row {
            data: Arc::new(cells),
        }
    }

    /// Makes this handle — a row some scroll has just evicted for good —
    /// a [`Row::blank`]. When no other handle shares the storage (no clone
    /// of the framebuffer still shows the evicted line) the row is rebuilt
    /// in place and nothing is allocated; otherwise the sharers keep the
    /// old storage untouched and this handle gets its own.
    fn reblank(&mut self, width: usize, bg: crate::cell::Color) {
        match Arc::get_mut(&mut self.data) {
            Some(cells) => {
                cells.clear();
                cells.resize(width, blank_cell(bg));
            }
            None => *self = Row::blank(width, bg),
        }
    }

    /// The row's cells, always exactly the screen width.
    pub fn cells(&self) -> &[Cell] {
        &self.data
    }

    /// True when both handles share the same storage, and so the same
    /// cells: storage is only ever written while no other handle holds it.
    pub fn same_data(a: &Row, b: &Row) -> bool {
        Arc::ptr_eq(&a.data, &b.data)
    }

    /// Mutable access to the cells, copying them first if another handle
    /// shares them.
    fn cells_mut(&mut self) -> &mut Vec<Cell> {
        Arc::make_mut(&mut self.data)
    }

    /// Pads or truncates to `width`. A wide lead the cut leaves dangling in
    /// the last column is blanked.
    fn set_width(&mut self, width: usize) {
        let cells = self.cells_mut();
        if width < cells.len() {
            cells.truncate(width);
            if let Some(last) = cells.last_mut() {
                if last.wide {
                    *last = Cell::default();
                }
            }
        } else {
            let pad = width - cells.len();
            cells.extend(std::iter::repeat_n(Cell::default(), pad));
        }
    }
}

/// Row equality is *content* equality: frames that share no storage — a
/// client applying diffs versus the server that generated them — must
/// still compare equal. It compares the cells, never the handles: `==` on
/// two `Arc`s short-cuts on a shared pointer.
impl PartialEq for Row {
    fn eq(&self, other: &Self) -> bool {
        *self.data == *other.data
    }
}

impl Eq for Row {}

/// The visible grid as a ring buffer: visual row `i` lives at
/// `buf[(head + i) % height]`, so a full-screen scroll is O(1) index math
/// and rows keep their storage (and so stay shared with earlier clones) as
/// they move up the screen.
#[derive(Debug, Clone)]
struct Ring {
    buf: Vec<Row>,
    head: usize,
}

impl Ring {
    fn new(rows: Vec<Row>) -> Self {
        Ring { buf: rows, head: 0 }
    }

    fn idx(&self, i: usize) -> usize {
        let j = self.head + i;
        if j >= self.buf.len() {
            j - self.buf.len()
        } else {
            j
        }
    }

    fn get(&self, i: usize) -> &Row {
        &self.buf[self.idx(i)]
    }

    fn get_mut(&mut self, i: usize) -> &mut Row {
        let j = self.idx(i);
        &mut self.buf[j]
    }

    fn swap(&mut self, i: usize, j: usize) {
        let (a, b) = (self.idx(i), self.idx(j));
        self.buf.swap(a, b);
    }

    /// O(1) full-screen scroll up: every row moves up one line. Returns
    /// the slot that is now the bottom row and still holds the evicted
    /// top row, for the caller to replace.
    fn rotate_up(&mut self) -> &mut Row {
        let slot = self.head;
        self.head = if self.head + 1 == self.buf.len() {
            0
        } else {
            self.head + 1
        };
        &mut self.buf[slot]
    }

    /// O(1) full-screen scroll down: every row moves down one line.
    /// Returns the slot that is now the top row and still holds the
    /// evicted bottom row, for the caller to replace.
    fn rotate_down(&mut self) -> &mut Row {
        self.head = if self.head == 0 {
            self.buf.len() - 1
        } else {
            self.head - 1
        };
        &mut self.buf[self.head]
    }

    /// Drains into a contiguous top-to-bottom vector (for rebuilds).
    fn take_rows(&mut self) -> Vec<Row> {
        let head = self.head;
        self.head = 0;
        let mut rows = std::mem::take(&mut self.buf);
        rows.rotate_left(head);
        rows
    }
}

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
/// Equality compares only what the user can observe: grid contents, cursor
/// position and visibility, window title, and the bell count. That is the
/// contract the display differ ([`crate::display`]) reproduces. Scrollback
/// and the display offset are deliberately excluded — they are server-side
/// view state, not synchronized screen content.
#[derive(Debug, Clone)]
pub struct Framebuffer {
    width: usize,
    height: usize,
    grid: Ring,
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
    alt_saved: Option<(Vec<Row>, Cursor)>,
    /// Rows scrolled off the top of the primary screen, oldest first,
    /// bounded by `scrollback_limit`.
    scrollback: VecDeque<Row>,
    scrollback_limit: usize,
    /// How far back the viewport is scrolled, `0..=scrollback.len()`;
    /// 0 shows the live screen.
    display_offset: usize,
    /// Replies the terminal owes the host (DSR/DA reports).
    answerback: Vec<u8>,
    /// Last printed character, for REP.
    last_printed: Option<char>,
    /// G0 charset is DEC Special Graphics (line drawing).
    pub line_drawing: bool,
}

impl PartialEq for Framebuffer {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width
            && self.height == other.height
            && (0..self.height).all(|r| self.grid.get(r) == other.grid.get(r))
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
            height,
            // Each position gets its own `Row::blank` call: a scroll
            // rebuilds the row it evicts in place only when no other handle
            // shares its storage, so rows of `vec![blank; h]` would make
            // every scroll allocate.
            grid: Ring::new(
                (0..height)
                    .map(|_| Row::blank(width, crate::cell::Color::Default))
                    .collect(),
            ),
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
            scrollback: VecDeque::new(),
            scrollback_limit: DEFAULT_SCROLLBACK,
            display_offset: 0,
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
        self.height
    }

    /// The row at visual position `i` (0 = top of the live screen).
    ///
    /// # Panics
    ///
    /// Panics if `i >= height`.
    pub fn row(&self, i: usize) -> &Row {
        self.grid.get(i)
    }

    /// The cell at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn cell(&self, row: usize, col: usize) -> &Cell {
        &self.grid.get(row).cells()[col]
    }

    /// Mutable cell access (used by tests and the prediction engine).
    /// Copies the row first if a clone shares it; the wide-pair invariant
    /// is the caller's responsibility.
    pub fn cell_mut(&mut self, row: usize, col: usize) -> &mut Cell {
        &mut self.grid.get_mut(row).cells_mut()[col]
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
    // Scrollback and the display offset.
    // ------------------------------------------------------------------

    /// Maximum rows of scrollback retained.
    pub fn scrollback_limit(&self) -> usize {
        self.scrollback_limit
    }

    /// Sets the scrollback bound, discarding the oldest rows (and clamping
    /// the display offset) if the new bound is smaller.
    pub fn set_scrollback_limit(&mut self, limit: usize) {
        self.scrollback_limit = limit;
        while self.scrollback.len() > limit {
            self.scrollback.pop_front();
        }
        self.display_offset = self.display_offset.min(self.scrollback.len());
    }

    /// Rows currently held in scrollback.
    pub fn scrollback_len(&self) -> usize {
        self.scrollback.len()
    }

    /// A scrollback row; `i = 0` is the line just above the live screen,
    /// higher `i` reaches further into history.
    ///
    /// # Panics
    ///
    /// Panics if `i >= scrollback_len()`.
    pub fn history_row(&self, i: usize) -> &Row {
        &self.scrollback[self.scrollback.len() - 1 - i]
    }

    /// How far back the viewport is scrolled (0 = live screen).
    pub fn display_offset(&self) -> usize {
        self.display_offset
    }

    /// Moves the viewport `delta` lines into history (negative values move
    /// back toward the live screen), clamped to the available scrollback.
    pub fn scroll_view(&mut self, delta: isize) {
        let next = self.display_offset as isize + delta;
        self.display_offset = next.clamp(0, self.scrollback.len() as isize) as usize;
    }

    /// The row shown at viewport position `i` under the current display
    /// offset: history rows first, then the top of the live screen.
    ///
    /// # Panics
    ///
    /// Panics if `i >= height`.
    pub fn view_row(&self, i: usize) -> &Row {
        if i < self.display_offset {
            self.history_row(self.display_offset - 1 - i)
        } else {
            self.grid.get(i - self.display_offset)
        }
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
            (0, self.height - 1)
        };
        self.cursor.row = (top + row).min(bottom);
        self.cursor.col = col.min(self.width - 1);
        self.wrap_pending = false;
    }

    /// Relative cursor move, clamped to the screen; clears pending wrap.
    pub fn move_relative(&mut self, dr: isize, dc: isize) {
        let row = self.cursor.row as isize + dr;
        let col = self.cursor.col as isize + dc;
        self.cursor.row = row.clamp(0, self.height as isize - 1) as usize;
        self.cursor.col = col.clamp(0, self.width as isize - 1) as usize;
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
        if w == 2 && self.width < 2 {
            // A double-width character cannot fit on a one-column screen.
            return;
        }
        if self.wrap_pending && self.modes.autowrap {
            self.wrap_pending = false;
            self.cursor.col = 0;
            self.line_feed();
        }
        // A wide character that doesn't fit on this line wraps early.
        if w == 2 && self.cursor.col == self.width - 1 {
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
        let cell = Cell {
            ch,
            wide: w == 2,
            wide_continuation: false,
            attrs: self.pen,
        };
        self.put_cell(row, col, cell);
        if w == 2 {
            self.put_cell(
                row,
                col + 1,
                Cell {
                    ch: ' ',
                    wide: false,
                    wide_continuation: true,
                    attrs: self.pen,
                },
            );
        }
        self.last_printed = Some(ch);
        let new_col = col + w;
        if new_col >= self.width {
            self.cursor.col = self.width - 1;
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
        let (width, pen, erase) = (self.width, self.pen, self.erase_cell());
        while !run.is_empty() {
            if self.wrap_pending {
                self.cursor.col = 0;
                self.line_feed();
            }
            let col = self.cursor.col;
            let (segment, rest) = run.split_at(run.len().min(width - col));
            let last = col + segment.len() - 1;
            let cells = self.grid.get_mut(self.cursor.row).cells_mut();
            // The wide-pair invariant at the two ends of the span: a pair
            // the span cuts in half loses its other half too (`lo`/`hi`
            // step outward onto it; otherwise they are the span's own ends
            // and the fill overwrites them). Pairs wholly inside the span
            // are simply overwritten.
            let lo = col - usize::from(cells[col].wide_continuation && col > 0);
            let hi = last + usize::from(cells[last].wide && last + 1 < width);
            cells[lo] = erase;
            cells[hi] = erase;
            for (cell, &b) in cells[col..=last].iter_mut().zip(segment) {
                *cell = Cell::narrow(b as char, pen);
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
        let width = self.width;
        let cells = self.grid.get_mut(row).cells_mut();
        let old = cells[col];
        if old.wide && col + 1 < width {
            cells[col + 1] = erase;
        }
        if old.wide_continuation && col > 0 {
            cells[col - 1] = erase;
        }
        cells[col] = cell;
    }

    /// Fills the inclusive column span with the erase cell, extending to a
    /// neighbouring column when the span boundary would split a wide pair
    /// (the same blanking `put_cell` performs cell by cell).
    fn fill_erase(&mut self, row: usize, lo: usize, hi: usize) {
        let erase = self.erase_cell();
        let width = self.width;
        let cells = self.grid.get_mut(row).cells_mut();
        let lo = lo - usize::from(cells[lo].wide_continuation && lo > 0);
        let hi = hi + usize::from(cells[hi].wide && hi + 1 < width);
        cells[lo..=hi].fill(erase);
    }

    // ------------------------------------------------------------------
    // Line feeds and scrolling.
    // ------------------------------------------------------------------

    /// Index / line feed: move down, scrolling if at the region bottom.
    pub fn line_feed(&mut self) {
        if self.cursor.row == self.scroll_bottom {
            self.scroll_up(1);
        } else if self.cursor.row < self.height - 1 {
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

    /// Scrolls the scroll region up by `n` lines (text moves up). With the
    /// full screen as the region this is O(1) ring rotation per line, and
    /// on the primary screen the evicted top row retires into scrollback.
    pub fn scroll_up(&mut self, n: usize) {
        let n = n.min(self.scroll_bottom - self.scroll_top + 1);
        let full_screen = self.scroll_top == 0 && self.scroll_bottom == self.height - 1;
        for _ in 0..n {
            if full_screen {
                self.rotate_screen_up();
            } else {
                // Region scroll: the evicted region-top row is discarded,
                // never scrollback.
                self.shift_rows_up(self.scroll_top, self.scroll_bottom);
            }
        }
    }

    /// One line of full-screen scroll up.
    fn rotate_screen_up(&mut self) {
        let (width, bg) = (self.width, self.pen.bg);
        let slot = self.grid.rotate_up();
        if self.alt_saved.is_some() || self.scrollback_limit == 0 {
            // No history is kept: the top row itself leaves for good.
            slot.reblank(width, bg);
            return;
        }
        // The top row retires into scrollback, so the row that leaves for
        // good is the oldest history line, once scrollback is full.
        let fresh = if self.scrollback.len() == self.scrollback_limit {
            let mut oldest = self.scrollback.pop_front().expect("limit > 0");
            oldest.reblank(width, bg);
            oldest
        } else {
            Row::blank(width, bg)
        };
        self.scrollback.push_back(std::mem::replace(slot, fresh));
        // A scrolled-back viewport stays anchored on the same history
        // lines by following the eviction.
        if self.display_offset > 0 {
            self.display_offset = (self.display_offset + 1).min(self.scrollback.len());
        }
    }

    /// Scrolls the scroll region down by `n` lines (text moves down). The
    /// evicted bottom row is discarded; scroll-down never pulls history
    /// back onto the screen.
    pub fn scroll_down(&mut self, n: usize) {
        let n = n.min(self.scroll_bottom - self.scroll_top + 1);
        let (width, bg) = (self.width, self.pen.bg);
        let full_screen = self.scroll_top == 0 && self.scroll_bottom == self.height - 1;
        for _ in 0..n {
            if full_screen {
                self.grid.rotate_down().reblank(width, bg);
            } else {
                self.shift_rows_down(self.scroll_top, self.scroll_bottom);
            }
        }
    }

    /// Moves rows `top + 1..=bottom` up one line; the row at `top` is
    /// discarded and its handle becomes the blank row at `bottom`.
    fn shift_rows_up(&mut self, top: usize, bottom: usize) {
        for r in top..bottom {
            self.grid.swap(r, r + 1);
        }
        let (width, bg) = (self.width, self.pen.bg);
        self.grid.get_mut(bottom).reblank(width, bg);
    }

    /// Moves rows `top..bottom` down one line; the row at `bottom` is
    /// discarded and its handle becomes the blank row at `top`.
    fn shift_rows_down(&mut self, top: usize, bottom: usize) {
        for r in (top..bottom).rev() {
            self.grid.swap(r + 1, r);
        }
        let (width, bg) = (self.width, self.pen.bg);
        self.grid.get_mut(top).reblank(width, bg);
    }

    /// Sets the scroll region from 1-based inclusive coordinates, moving the
    /// cursor home (DECSTBM). Invalid regions reset to the full screen.
    pub fn set_scroll_region(&mut self, top1: usize, bottom1: usize) {
        let top = top1.max(1) - 1;
        let bottom = if bottom1 == 0 { self.height } else { bottom1 } - 1;
        if top < bottom && bottom < self.height {
            self.scroll_top = top;
            self.scroll_bottom = bottom;
        } else {
            self.scroll_top = 0;
            self.scroll_bottom = self.height - 1;
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
        let n = n.min(self.width - col);
        let width = self.width;
        let erase = self.erase_cell();
        let cells = self.grid.get_mut(row).cells_mut();
        // Splitting a wide pair at the insertion point orphans both halves.
        if cells[col].wide_continuation {
            cells[col] = erase;
            if col > 0 {
                cells[col - 1] = erase;
            }
        }
        cells.splice(col..col, std::iter::repeat_n(erase, n));
        cells.truncate(width);
        // A wide lead pushed against the right edge loses its continuation.
        if let Some(last) = cells.last_mut() {
            if last.wide {
                *last = erase;
            }
        }
    }

    /// Deletes `n` characters at the cursor, shifting the rest left.
    pub fn delete_chars(&mut self, n: usize) {
        let row = self.cursor.row;
        let col = self.cursor.col;
        let n = n.min(self.width - col);
        let width = self.width;
        let erase = self.erase_cell();
        let cells = self.grid.get_mut(row).cells_mut();
        // Deleting the continuation but not the lead orphans the lead.
        if cells[col].wide_continuation && col > 0 {
            cells[col - 1] = erase;
        }
        // Deleting the lead but not the continuation orphans the latter.
        if col + n < width && cells[col + n].wide_continuation {
            cells[col + n] = erase;
        }
        cells.drain(col..col + n);
        cells.extend(std::iter::repeat_n(erase, n));
    }

    /// Erases `n` characters at the cursor without shifting (ECH).
    pub fn erase_chars(&mut self, n: usize) {
        let col = self.cursor.col;
        let n = n.min(self.width - col);
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
        let n = n.min(self.scroll_bottom - self.cursor.row + 1);
        for _ in 0..n {
            self.shift_rows_down(self.cursor.row, self.scroll_bottom);
        }
        self.cursor.col = 0;
        self.wrap_pending = false;
    }

    /// Deletes `n` lines at the cursor row (DL); only inside the scroll
    /// region.
    pub fn delete_lines(&mut self, n: usize) {
        if self.cursor.row < self.scroll_top || self.cursor.row > self.scroll_bottom {
            return;
        }
        let n = n.min(self.scroll_bottom - self.cursor.row + 1);
        for _ in 0..n {
            self.shift_rows_up(self.cursor.row, self.scroll_bottom);
        }
        self.cursor.col = 0;
        self.wrap_pending = false;
    }

    /// Erase in line (EL): 0 = cursor to end, 1 = start to cursor, 2 = all.
    pub fn erase_line(&mut self, mode: u16) {
        let row = self.cursor.row;
        let (lo, hi) = match mode {
            0 => (self.cursor.col, self.width - 1),
            1 => (0, self.cursor.col),
            _ => (0, self.width - 1),
        };
        self.fill_erase(row, lo, hi);
    }

    /// Erase in display (ED): 0 = cursor to end, 1 = start to cursor,
    /// 2 = whole screen, 3 = whole screen plus scrollback (xterm E3).
    pub fn erase_display(&mut self, mode: u16) {
        match mode {
            0 => {
                self.erase_line(0);
                for r in self.cursor.row + 1..self.height {
                    self.fill_erase(r, 0, self.width - 1);
                }
            }
            1 => {
                self.erase_line(1);
                for r in 0..self.cursor.row {
                    self.fill_erase(r, 0, self.width - 1);
                }
            }
            _ => {
                for r in 0..self.height {
                    self.fill_erase(r, 0, self.width - 1);
                }
                if mode == 3 {
                    self.scrollback.clear();
                    self.display_offset = 0;
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
        while col + 1 < self.width {
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
                row: s.cursor.row.min(self.height - 1),
                col: s.cursor.col.min(self.width - 1),
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
    /// Snaps the viewport back to the live screen; scrollback is retained
    /// but never fed while the alternate screen is active.
    pub fn enter_alternate_screen(&mut self) {
        if self.alt_saved.is_some() {
            return;
        }
        // One `Row::blank` per position, so scrolls can reuse storage —
        // see `Framebuffer::new`.
        let blank = Ring::new(
            (0..self.height)
                .map(|_| Row::blank(self.width, crate::cell::Color::Default))
                .collect(),
        );
        let mut saved = std::mem::replace(&mut self.grid, blank);
        self.alt_saved = Some((saved.take_rows(), self.cursor));
        self.cursor = Cursor { row: 0, col: 0 };
        self.wrap_pending = false;
        self.display_offset = 0;
    }

    /// Returns from the alternate screen, restoring the primary contents.
    pub fn exit_alternate_screen(&mut self) {
        if let Some((rows, cursor)) = self.alt_saved.take() {
            self.grid = Ring::new(rows);
            self.cursor = Cursor {
                row: cursor.row.min(self.height - 1),
                col: cursor.col.min(self.width - 1),
            };
            self.wrap_pending = false;
        }
    }

    /// RIS: reset to initial state (size and title are kept; everything
    /// else returns to power-on defaults). Scrollback *content* and the
    /// configured limit survive — only E3 discards history — but the
    /// viewport snaps back to the live screen.
    pub fn reset(&mut self) {
        let title = std::mem::take(&mut self.title);
        let bells = self.bell_count;
        let scrollback = std::mem::take(&mut self.scrollback);
        let limit = self.scrollback_limit;
        *self = Framebuffer::new(self.width, self.height);
        self.title = title;
        self.bell_count = bells;
        self.scrollback = scrollback;
        self.scrollback_limit = limit;
    }

    /// DECALN: fill the screen with 'E' and reset margins (alignment test).
    pub fn screen_alignment_test(&mut self) {
        let cell = Cell::narrow('E', Attrs::default());
        for r in 0..self.height {
            self.grid.get_mut(r).cells_mut().fill(cell);
        }
        self.scroll_top = 0;
        self.scroll_bottom = self.height - 1;
        self.cursor = Cursor { row: 0, col: 0 };
        self.wrap_pending = false;
    }

    // ------------------------------------------------------------------
    // Resize.
    // ------------------------------------------------------------------

    /// Resizes the screen, preserving the top-left contents (Mosh keeps
    /// content anchored at the top on resize). Resets the scroll region and
    /// clamps the cursor. Scrollback rows are padded or truncated to the
    /// new width; the display offset stays within bounds because the
    /// scrollback length is unchanged.
    pub fn resize(&mut self, width: usize, height: usize) {
        assert!(width > 0 && height > 0, "resize to at least 1x1");
        if width == self.width && height == self.height {
            return;
        }
        if width != self.width {
            for r in 0..self.height {
                self.grid.get_mut(r).set_width(width);
            }
            for row in self.scrollback.iter_mut() {
                row.set_width(width);
            }
        }
        let mut rows = self.grid.take_rows();
        if height < rows.len() {
            rows.truncate(height);
        } else {
            let pad = height - rows.len();
            // One `Row::blank` per position — see `Framebuffer::new`.
            rows.extend((0..pad).map(|_| Row::blank(width, crate::cell::Color::Default)));
        }
        self.grid = Ring::new(rows);
        // The alternate-screen stash must track the new size too.
        if let Some((rows, cursor)) = &mut self.alt_saved {
            if width != self.width {
                for row in rows.iter_mut() {
                    row.set_width(width);
                }
            }
            if height < rows.len() {
                rows.truncate(height);
            } else {
                let pad = height - rows.len();
                rows.extend((0..pad).map(|_| Row::blank(width, crate::cell::Color::Default)));
            }
            cursor.row = cursor.row.min(height - 1);
            cursor.col = cursor.col.min(width - 1);
        }
        self.width = width;
        self.height = height;
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
        self.scroll_bottom = self.height - 1;
        self.line_drawing = false;
        self.wrap_pending = true;
    }

    // ------------------------------------------------------------------
    // Snapshot serialization.
    // ------------------------------------------------------------------

    /// Serializes the complete screen *and* interpreter state for a session
    /// snapshot. Unlike the display differ, nothing is normalized away: pen,
    /// modes, scroll region, tabs, saved cursors, the alternate-screen
    /// stash, scrollback, and the display offset all round-trip, so a
    /// restored framebuffer interprets future bytes exactly like the
    /// original would have — and the user's history survives migration.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        use crate::wirefmt::{put_bool, put_bytes, put_char, put_varint};
        put_varint(out, self.width as u64);
        put_varint(out, self.height as u64);
        for r in 0..self.height {
            encode_row(out, self.grid.get(r));
        }
        put_varint(out, self.cursor.row as u64);
        put_varint(out, self.cursor.col as u64);
        encode_attrs(out, &self.pen);
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
        let mut tab_bits = vec![0u8; self.width.div_ceil(8)];
        for (c, &set) in self.tabs.iter().enumerate() {
            if set {
                tab_bits[c / 8] |= 1 << (c % 8);
            }
        }
        out.extend_from_slice(&tab_bits);
        put_bytes(out, self.title.as_bytes());
        put_varint(out, self.bell_count);
        put_bool(out, self.wrap_pending);
        match &self.saved_cursor {
            None => out.push(0),
            Some(s) => {
                out.push(1);
                put_varint(out, s.cursor.row as u64);
                put_varint(out, s.cursor.col as u64);
                encode_attrs(out, &s.pen);
                put_bool(out, s.origin_mode);
                put_bool(out, s.wrap_pending);
            }
        }
        match &self.alt_saved {
            None => out.push(0),
            Some((rows, cursor)) => {
                out.push(1);
                for row in rows {
                    encode_row(out, row);
                }
                put_varint(out, cursor.row as u64);
                put_varint(out, cursor.col as u64);
            }
        }
        put_bytes(out, &self.answerback);
        match self.last_printed {
            None => out.push(0),
            Some(c) => {
                out.push(1);
                put_char(out, c);
            }
        }
        put_bool(out, self.line_drawing);
        put_varint(out, self.scrollback_limit as u64);
        put_varint(out, self.scrollback.len() as u64);
        for row in &self.scrollback {
            encode_row(out, row);
        }
        put_varint(out, self.display_offset as u64);
    }

    /// Rebuilds a framebuffer from [`Self::encode_into`] output. Every
    /// structural invariant the editing primitives rely on (row/column
    /// bounds, tab-vector length, scroll-region ordering, scrollback and
    /// offset bounds) is re-validated, so a decoded framebuffer can never
    /// panic later.
    pub(crate) fn decode(r: &mut crate::wirefmt::Reader<'_>) -> Option<Self> {
        let width = r.varint()? as usize;
        let height = r.varint()? as usize;
        if width == 0 || height == 0 || width > 5000 || height > 5000 {
            return None;
        }
        let mut rows = Vec::with_capacity(height);
        for _ in 0..height {
            rows.push(decode_row(r, width)?);
        }
        let cursor = Cursor {
            row: r.varint()? as usize,
            col: r.varint()? as usize,
        };
        if cursor.row >= height || cursor.col >= width {
            return None;
        }
        let pen = decode_attrs(r)?;
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
        let title = String::from_utf8(r.bytes()?.to_vec()).ok()?;
        let bell_count = r.varint()?;
        let wrap_pending = r.boolean()?;
        let saved_cursor = match r.byte()? {
            0 => None,
            1 => {
                let cursor = Cursor {
                    row: r.varint()? as usize,
                    col: r.varint()? as usize,
                };
                let pen = decode_attrs(r)?;
                let origin_mode = r.boolean()?;
                let wrap_pending = r.boolean()?;
                // restore_cursor clamps, so out-of-range saved positions
                // are tolerated the way a live resize tolerates them.
                Some(SavedCursor {
                    cursor,
                    pen,
                    origin_mode,
                    wrap_pending,
                })
            }
            _ => return None,
        };
        let alt_saved = match r.byte()? {
            0 => None,
            1 => {
                let mut alt_rows = Vec::with_capacity(height);
                for _ in 0..height {
                    alt_rows.push(decode_row(r, width)?);
                }
                let c = Cursor {
                    row: r.varint()? as usize,
                    col: r.varint()? as usize,
                };
                if c.row >= height || c.col >= width {
                    return None;
                }
                Some((alt_rows, c))
            }
            _ => return None,
        };
        let answerback = r.bytes()?.to_vec();
        let last_printed = match r.byte()? {
            0 => None,
            1 => Some(r.ch()?),
            _ => return None,
        };
        let line_drawing = r.boolean()?;
        let scrollback_limit = r.varint()? as usize;
        if scrollback_limit > 1_000_000 {
            return None;
        }
        let scrollback_len = r.varint()? as usize;
        if scrollback_len > scrollback_limit {
            return None;
        }
        let mut scrollback = VecDeque::with_capacity(scrollback_len);
        for _ in 0..scrollback_len {
            scrollback.push_back(decode_row(r, width)?);
        }
        let display_offset = r.varint()? as usize;
        if display_offset > scrollback_len {
            return None;
        }
        Some(Framebuffer {
            width,
            height,
            grid: Ring::new(rows),
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
            scrollback,
            scrollback_limit,
            display_offset,
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
            .grid
            .get(row)
            .cells()
            .iter()
            .filter(|c| !c.wide_continuation)
            .map(|c| c.ch)
            .collect();
        while s.ends_with(' ') {
            s.pop();
        }
        s
    }

    /// The visible text of the whole screen, one line per row, trailing
    /// blank rows trimmed. Intended for tests and examples.
    pub fn to_text(&self) -> String {
        let mut lines: Vec<String> = (0..self.height).map(|r| self.row_text(r)).collect();
        while lines.last().is_some_and(|l| l.is_empty()) {
            lines.pop();
        }
        lines.join("\n")
    }
}

fn encode_color(out: &mut Vec<u8>, c: crate::cell::Color) {
    use crate::cell::Color;
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

fn decode_color(r: &mut crate::wirefmt::Reader<'_>) -> Option<crate::cell::Color> {
    use crate::cell::Color;
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

fn encode_attrs(out: &mut Vec<u8>, a: &Attrs) {
    out.push(
        u8::from(a.bold)
            | u8::from(a.faint) << 1
            | u8::from(a.italic) << 2
            | u8::from(a.underline) << 3
            | u8::from(a.blink) << 4
            | u8::from(a.inverse) << 5
            | u8::from(a.invisible) << 6
            | u8::from(a.strikethrough) << 7,
    );
    encode_color(out, a.fg);
    encode_color(out, a.bg);
}

fn decode_attrs(r: &mut crate::wirefmt::Reader<'_>) -> Option<Attrs> {
    let f = r.byte()?;
    Some(Attrs {
        bold: f & 1 != 0,
        faint: f & 2 != 0,
        italic: f & 4 != 0,
        underline: f & 8 != 0,
        blink: f & 16 != 0,
        inverse: f & 32 != 0,
        invisible: f & 64 != 0,
        strikethrough: f & 128 != 0,
        fg: decode_color(r)?,
        bg: decode_color(r)?,
    })
}

fn encode_cell(out: &mut Vec<u8>, c: &Cell) {
    out.push(u8::from(c.wide) | u8::from(c.wide_continuation) << 1);
    crate::wirefmt::put_char(out, c.ch);
    encode_attrs(out, &c.attrs);
}

fn decode_cell(r: &mut crate::wirefmt::Reader<'_>) -> Option<Cell> {
    let f = r.byte()?;
    if f > 3 {
        return None;
    }
    Some(Cell {
        wide: f & 1 != 0,
        wide_continuation: f & 2 != 0,
        ch: r.ch()?,
        attrs: decode_attrs(r)?,
    })
}

/// Rows are run-length encoded (count, cell) so mostly-blank screens stay
/// small in checkpoints.
fn encode_row(out: &mut Vec<u8>, row: &Row) {
    let cells = row.cells();
    let mut i = 0;
    while i < cells.len() {
        let cell = cells[i];
        let mut run = 1;
        while i + run < cells.len() && cells[i + run] == cell {
            run += 1;
        }
        crate::wirefmt::put_varint(out, run as u64);
        encode_cell(out, &cell);
        i += run;
    }
}

fn decode_row(r: &mut crate::wirefmt::Reader<'_>, width: usize) -> Option<Row> {
    let mut cells = Vec::with_capacity(width);
    while cells.len() < width {
        let run = r.varint()? as usize;
        if run == 0 || run > width - cells.len() {
            return None;
        }
        let cell = decode_cell(r)?;
        cells.extend(std::iter::repeat_n(cell, run));
    }
    Some(Row::from_cells(cells))
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
        assert!(fb.cell(0, 0).wide);
        assert!(fb.cell(0, 1).wide_continuation);
        assert_eq!(fb.cursor.col, 2);
    }

    #[test]
    fn wide_char_wraps_early_at_margin() {
        let mut fb = Framebuffer::new(3, 2);
        fb.print('a');
        fb.print('b');
        fb.print('漢');
        assert_eq!(fb.row_text(0), "ab");
        assert!(fb.cell(1, 0).wide);
    }

    #[test]
    fn overwriting_wide_lead_blanks_continuation() {
        let mut fb = Framebuffer::new(10, 2);
        fb.print('漢');
        fb.move_to(0, 0);
        fb.print('x');
        assert_eq!(fb.cell(0, 0).ch, 'x');
        assert!(!fb.cell(0, 1).wide_continuation);
        assert_eq!(fb.cell(0, 1).ch, ' ');
    }

    #[test]
    fn overwriting_continuation_blanks_lead() {
        let mut fb = Framebuffer::new(10, 2);
        fb.print('漢');
        fb.move_to(0, 1);
        fb.print('x');
        assert_eq!(fb.cell(0, 0).ch, ' ');
        assert!(!fb.cell(0, 0).wide);
        assert_eq!(fb.cell(0, 1).ch, 'x');
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
        assert_eq!(fb.cell(0, 0).attrs.bg, Color::Indexed(4));
        assert!(!fb.cell(0, 0).attrs.bold);
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
    // Shared rows and scrollback.
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
        fb.set_scrollback_limit(0);
        fb.print('x');
        let storage = fb.row(0).cells().as_ptr();
        // Unshared: the evicted top row comes back, blank, as the bottom
        // row, and shares nothing with the row it used to be.
        let top = fb.row(0).clone();
        fb.cell_mut(0, 5).ch = 'y'; // copy-on-write: `top` keeps the old storage
        let unshared = fb.row(0).cells().as_ptr();
        assert_ne!(unshared, storage);
        fb.scroll_up(1);
        assert_eq!(fb.row(2).cells().as_ptr(), unshared, "storage reused");
        assert_eq!(fb.row_text(2), "");
        assert!(!Row::same_data(fb.row(2), &top));
        assert_eq!(top.cells()[0].ch, 'x');
        // Shared: a clone still shows the row this scroll evicts.
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

    #[test]
    fn scrolled_rows_land_in_scrollback() {
        let mut fb = Framebuffer::new(5, 2);
        fb.print('a');
        fb.move_to(1, 0);
        fb.print('b');
        fb.move_to(1, 0);
        fb.line_feed();
        assert_eq!(fb.scrollback_len(), 1);
        let hist: String = fb.history_row(0).cells().iter().map(|c| c.ch).collect();
        assert_eq!(hist.trim_end(), "a");
    }

    #[test]
    fn scrollback_is_bounded() {
        let mut fb = Framebuffer::new(3, 2);
        fb.set_scrollback_limit(4);
        for _ in 0..10 {
            fb.move_to(1, 0);
            fb.line_feed();
        }
        assert_eq!(fb.scrollback_len(), 4);
    }

    #[test]
    fn display_offset_clamps_and_follows_scrolls() {
        let mut fb = Framebuffer::new(3, 2);
        for _ in 0..5 {
            fb.move_to(1, 0);
            fb.line_feed();
        }
        assert_eq!(fb.scrollback_len(), 5);
        fb.scroll_view(100);
        assert_eq!(fb.display_offset(), 5);
        fb.scroll_view(-2);
        assert_eq!(fb.display_offset(), 3);
        // A new eviction keeps the viewport anchored on the same lines.
        fb.move_to(1, 0);
        fb.line_feed();
        assert_eq!(fb.display_offset(), 4);
        fb.scroll_view(-100);
        assert_eq!(fb.display_offset(), 0);
    }

    #[test]
    fn view_row_blends_history_and_live_screen() {
        let mut fb = Framebuffer::new(3, 2);
        fb.print('1');
        fb.move_to(1, 0);
        fb.print('2');
        fb.move_to(1, 0);
        fb.line_feed(); // "1" scrolls into history; screen is ["2", ""]
        fb.scroll_view(1);
        assert_eq!(fb.view_row(0).cells()[0].ch, '1');
        assert_eq!(fb.view_row(1).cells()[0].ch, '2');
    }

    #[test]
    fn region_scrolls_do_not_feed_scrollback() {
        let mut fb = Framebuffer::new(5, 4);
        fb.set_scroll_region(1, 3);
        fb.move_to(2, 0);
        fb.line_feed();
        assert_eq!(fb.scrollback_len(), 0);
    }

    #[test]
    fn alternate_screen_does_not_feed_scrollback() {
        let mut fb = Framebuffer::new(5, 2);
        fb.enter_alternate_screen();
        fb.move_to(1, 0);
        fb.line_feed();
        assert_eq!(fb.scrollback_len(), 0);
        fb.exit_alternate_screen();
    }

    #[test]
    fn erase_display_3_clears_scrollback() {
        let mut fb = Framebuffer::new(3, 2);
        fb.move_to(1, 0);
        fb.line_feed();
        fb.scroll_view(1);
        assert_eq!(fb.scrollback_len(), 1);
        fb.erase_display(3);
        assert_eq!(fb.scrollback_len(), 0);
        assert_eq!(fb.display_offset(), 0);
        // Plain ED 2 keeps history.
        fb.move_to(1, 0);
        fb.line_feed();
        fb.erase_display(2);
        assert_eq!(fb.scrollback_len(), 1);
    }

    #[test]
    fn resize_pads_scrollback_rows_to_new_width() {
        let mut fb = Framebuffer::new(4, 2);
        fb.print('w');
        fb.move_to(1, 0);
        fb.line_feed();
        fb.resize(8, 3);
        assert_eq!(fb.history_row(0).cells().len(), 8);
        fb.resize(2, 3);
        assert_eq!(fb.history_row(0).cells().len(), 2);
        assert!(fb.display_offset() <= fb.scrollback_len());
    }

    #[test]
    fn snapshot_roundtrips_scrollback_and_offset() {
        let mut fb = Framebuffer::new(5, 2);
        fb.print('q');
        fb.move_to(1, 0);
        fb.line_feed();
        fb.line_feed();
        fb.scroll_view(2);
        let mut bytes = Vec::new();
        fb.encode_into(&mut bytes);
        let mut reader = crate::wirefmt::Reader::new(&bytes);
        let back = Framebuffer::decode(&mut reader).expect("decode");
        assert_eq!(back, fb);
        assert_eq!(back.scrollback_len(), fb.scrollback_len());
        assert_eq!(back.display_offset(), 2);
        assert_eq!(back.scrollback_limit(), fb.scrollback_limit());
        for i in 0..fb.scrollback_len() {
            assert_eq!(back.history_row(i), fb.history_row(i));
        }
    }
}
