//! The screen's rows and the history above them, in one store.
//!
//! [`Grid`] keeps the primary screen and the lines that scrolled off its
//! top as one run of rows: history first, oldest line at the front, then
//! the screen's `height` rows. It is the single buffer `Grid.tla` models:
//! `total_lines` is the store's length, and the viewport is the `height`
//! rows that end `display_offset` rows above the bottom. A full-screen
//! scroll on the primary screen moves no row — the top row already lies
//! where the newest history line belongs — so it is one push of a blank
//! row at the back, and once history is full that blank row is the oldest
//! line, popped from the front. While the alternate screen is shown its
//! rows stand in the primary screen's place (the framebuffer stashes
//! those), and its scrolls never feed history. History and the offset
//! ride snapshots but are not part of framebuffer equality.
//!
//! Every row is a copy-on-write handle ([`Row`]) around shared cell
//! storage, so cloning a framebuffer — which the sender does for every
//! shipped state — is O(rows) pointer bumps. Storage is written in place
//! only while no other handle holds it, so rows that share storage
//! ([`Row::same_data`]) hold the same cells and the display differ skips
//! them unread.
//!
//! A scroll that discards a row for good — the oldest history line once
//! history is full, or the row a scroll pushes out of its region (the top
//! row itself where no history is kept) — builds its blank row in that
//! row's storage whenever no clone shares it. A flooding terminal in
//! steady state therefore scrolls without touching the allocator, and no
//! earlier frame can mistake the new row for its old one; a shared row
//! stays with its sharers and the scroll allocates.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::cell::{Attrs, Cell, Color};
use crate::wirefmt::{get_cell, put_cell};
use mosh_wire::{put_varint, Reader};

/// Rows of scrollback a fresh framebuffer retains (see
/// [`Framebuffer::set_scrollback_limit`](crate::Framebuffer::set_scrollback_limit)).
pub const DEFAULT_SCROLLBACK: usize = 200;

/// The largest screen width or height accepted from outside the process:
/// a snapshot, or a resize or frame diff from the peer, that carries a
/// larger one (or a 0) is refused whole as malformed.
pub const MAX_DIMENSION: u16 = 5000;

/// One row of the grid: a copy-on-write handle to shared cell storage,
/// always exactly the screen width long.
///
/// Cloning is O(1); the first mutation after a clone copies the cells.
#[derive(Debug, Clone)]
pub struct Row {
    data: Arc<Vec<Cell>>,
}

/// A blank cell carrying only the given background color.
pub(crate) fn blank_cell(bg: Color) -> Cell {
    Cell::blank(Attrs {
        bg,
        ..Attrs::default()
    })
}

/// `n` blank rows, each with its own storage: a scroll rebuilds the row
/// it evicts in place only when no other handle shares its storage, so
/// `n` clones of one blank row would make every scroll allocate.
fn blank_rows(width: usize, n: usize) -> impl Iterator<Item = Row> {
    (0..n).map(move |_| Row::blank(width, Color::Default))
}

impl Row {
    /// A row of blank cells carrying only the given background color.
    pub fn blank(width: usize, bg: Color) -> Self {
        Row::from_cells(vec![blank_cell(bg); width])
    }

    fn from_cells(cells: Vec<Cell>) -> Self {
        Row {
            data: Arc::new(cells),
        }
    }

    /// Makes this handle — a row some scroll has just evicted for good —
    /// a [`Row::blank`]. When no other handle shares the storage (no clone
    /// of the framebuffer still shows the evicted line) the row is rebuilt
    /// in place and nothing is allocated; otherwise the sharers keep the
    /// old storage untouched and this handle gets its own.
    fn reblank(&mut self, width: usize, bg: Color) {
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
    pub(crate) fn cells_mut(&mut self) -> &mut Vec<Cell> {
        Arc::make_mut(&mut self.data)
    }

    /// Pads or truncates to `width`. A wide lead the cut leaves dangling in
    /// the last column is blanked.
    pub(crate) fn set_width(&mut self, width: usize) {
        let cells = self.cells_mut();
        if width < cells.len() {
            cells.truncate(width);
            if let Some(last) = cells.last_mut() {
                if last.wide() {
                    *last = Cell::default();
                }
            }
        } else {
            let pad = width - cells.len();
            cells.extend(std::iter::repeat_n(Cell::default(), pad));
        }
    }

    /// Appends the row run-length encoded (count, cell), so mostly-blank
    /// screens stay small in checkpoints.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let cells = self.cells();
        let mut i = 0;
        while i < cells.len() {
            let cell = cells[i];
            let mut run = 1;
            while i + run < cells.len() && cells[i + run] == cell {
                run += 1;
            }
            put_varint(out, run as u64);
            put_cell(out, &cell);
            i += run;
        }
    }

    /// Reads a row of exactly `width` cells written by [`Self::encode_into`].
    pub(crate) fn decode(r: &mut Reader<'_>, width: usize) -> Option<Row> {
        let mut cells = Vec::with_capacity(width);
        while cells.len() < width {
            let run = r.varint()? as usize;
            if run == 0 || run > width - cells.len() {
                return None;
            }
            let cell = get_cell(r)?;
            cells.extend(std::iter::repeat_n(cell, run));
        }
        Some(Row::from_cells(cells))
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

/// The screen and its history: one store of rows, history first.
#[derive(Debug, Clone)]
pub(crate) struct Grid {
    width: usize,
    height: usize,
    /// History, oldest first, then the screen's `height` rows.
    lines: VecDeque<Row>,
    scrollback_limit: usize,
    /// How far back the viewport is scrolled, `0..=scrollback_len()`.
    display_offset: usize,
}

impl Grid {
    /// A blank screen with no history and the default limit.
    pub(crate) fn new(width: usize, height: usize) -> Self {
        let lines = blank_rows(width, height).collect();
        Grid::from_lines(width, height, lines, DEFAULT_SCROLLBACK, 0)
    }

    /// A grid over `lines`: history oldest first, then `height` screen
    /// rows, all `width` wide.
    pub(crate) fn from_lines(
        width: usize,
        height: usize,
        lines: VecDeque<Row>,
        scrollback_limit: usize,
        display_offset: usize,
    ) -> Self {
        Grid {
            width,
            height,
            lines,
            scrollback_limit,
            display_offset,
        }
    }

    pub(crate) fn width(&self) -> usize {
        self.width
    }

    pub(crate) fn height(&self) -> usize {
        self.height
    }

    /// Screen row `i`, 0 at the top.
    pub(crate) fn row(&self, i: usize) -> &Row {
        &self.lines[self.scrollback_len() + i]
    }

    pub(crate) fn row_mut(&mut self, i: usize) -> &mut Row {
        let j = self.scrollback_len() + i;
        &mut self.lines[j]
    }

    pub(crate) fn scrollback_len(&self) -> usize {
        self.lines.len() - self.height
    }

    pub(crate) fn scrollback_limit(&self) -> usize {
        self.scrollback_limit
    }

    /// Bounds history at `limit`, dropping its oldest lines and pulling
    /// the viewport in with them.
    pub(crate) fn set_scrollback_limit(&mut self, limit: usize) {
        self.scrollback_limit = limit;
        self.lines
            .drain(..self.scrollback_len().saturating_sub(limit));
        self.display_offset = self.display_offset.min(self.scrollback_len());
    }

    /// History line `i`, counted up from the line just above the screen.
    pub(crate) fn history_row(&self, i: usize) -> &Row {
        &self.lines[self.scrollback_len() - 1 - i]
    }

    /// History, oldest line first.
    pub(crate) fn history(&self) -> impl Iterator<Item = &Row> {
        self.lines.range(..self.scrollback_len())
    }

    pub(crate) fn clear_history(&mut self) {
        self.lines.drain(..self.scrollback_len());
        self.display_offset = 0;
    }

    pub(crate) fn display_offset(&self) -> usize {
        self.display_offset
    }

    pub(crate) fn scroll_view(&mut self, delta: isize) {
        let next = self.display_offset as isize + delta;
        self.display_offset = next.clamp(0, self.scrollback_len() as isize) as usize;
    }

    /// Viewport row `i`: the window of `height` rows ending
    /// `display_offset` rows above the bottom.
    pub(crate) fn view_row(&self, i: usize) -> &Row {
        assert!(i < self.height, "viewport row {i} out of range");
        &self.lines[self.scrollback_len() - self.display_offset + i]
    }

    /// `n` lines of full-screen scroll up on the primary screen: each top
    /// row becomes the newest history line where it lies, and a blank row
    /// enters at the bottom. With no history kept the top row itself
    /// leaves, as in a region scroll.
    pub(crate) fn scroll_into_history(&mut self, n: usize, bg: Color) {
        if self.scrollback_limit == 0 {
            return self.shift_up(0, self.height - 1, n, bg);
        }
        for _ in 0..n {
            let fresh = if self.scrollback_len() >= self.scrollback_limit {
                let mut oldest = self.lines.pop_front().expect("history is full");
                oldest.reblank(self.width, bg);
                oldest
            } else {
                Row::blank(self.width, bg)
            };
            self.lines.push_back(fresh);
            // A scrolled-back viewport stays anchored on the same history
            // lines by following the eviction.
            if self.display_offset > 0 {
                self.display_offset = (self.display_offset + 1).min(self.scrollback_len());
            }
        }
    }

    /// Moves screen rows `top + n..=bottom` up `n` lines; each row leaving
    /// at `top` is discarded and its handle comes back, blank, at `bottom`.
    pub(crate) fn shift_up(&mut self, top: usize, bottom: usize, n: usize, bg: Color) {
        let base = self.scrollback_len();
        for _ in 0..n {
            let mut row = self.lines.remove(base + top).expect("row on screen");
            row.reblank(self.width, bg);
            self.lines.insert(base + bottom, row);
        }
    }

    /// Moves screen rows `top..=bottom - n` down `n` lines; each row leaving
    /// at `bottom` is discarded and its handle comes back, blank, at `top`.
    pub(crate) fn shift_down(&mut self, top: usize, bottom: usize, n: usize, bg: Color) {
        let base = self.scrollback_len();
        for _ in 0..n {
            let mut row = self.lines.remove(base + bottom).expect("row on screen");
            row.reblank(self.width, bg);
            self.lines.insert(base + top, row);
        }
    }

    /// Swaps the screen for `height` blank rows and returns its rows, top
    /// to bottom; the viewport snaps back to the live screen.
    pub(crate) fn take_screen(&mut self) -> Vec<Row> {
        let screen = self.lines.drain(self.scrollback_len()..).collect();
        self.lines.extend(blank_rows(self.width, self.height));
        self.display_offset = 0;
        screen
    }

    /// Shows `rows` (`height` rows of `width`) in place of the screen.
    pub(crate) fn restore_screen(&mut self, rows: Vec<Row>) {
        self.lines.truncate(self.scrollback_len());
        self.lines.extend(rows);
    }

    /// Takes `old`'s history and limit above this grid's screen.
    pub(crate) fn adopt_history(&mut self, mut old: Grid) {
        old.lines.truncate(old.scrollback_len());
        old.lines.append(&mut self.lines);
        self.lines = old.lines;
        self.scrollback_limit = old.scrollback_limit;
    }

    /// Pads or cuts every row to `width`, and the screen at its bottom to
    /// `height` rows. History keeps its length, so the viewport stays in
    /// bounds.
    pub(crate) fn resize(&mut self, width: usize, height: usize) {
        if width != self.width {
            self.lines.iter_mut().for_each(|row| row.set_width(width));
        }
        let history = self.scrollback_len();
        self.lines
            .resize_with(history + height, || Row::blank(width, Color::Default));
        self.width = width;
        self.height = height;
    }
}
