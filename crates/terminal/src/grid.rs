//! The rows of the screen grid.
//!
//! Every row is a copy-on-write handle ([`Row`]) around shared cell
//! storage, so cloning a framebuffer — which the sender does for every
//! shipped state — is O(rows) pointer bumps. Storage is written in place
//! only while no other handle holds it, so rows that share storage
//! ([`Row::same_data`]) hold the same cells: the display differ skips
//! them unread, and row equality answers "equal" for them at once, so
//! comparing a frame with a clone of itself costs one pointer compare per
//! row. Rows that share no storage still compare cell by cell.
//!
//! Blank rows share storage too, as in Mosh's own `Framebuffer`: every new
//! screen of one width on a thread holds the thread's one blank row
//! `height` times, so an idle shell's screen costs the rows it has
//! written, and a row is copied only when something is written into it.
//!
//! A scroll discards the row it pushes out of its region (the top row of
//! the screen on a full-screen scroll) and builds its blank row in that
//! row's storage whenever no clone shares it. A flooding terminal in
//! steady state therefore scrolls without touching the allocator. A
//! shared row stays with its sharers: the scroll keeps its handle when it
//! is already the blank wanted, and allocates a new row otherwise.

use std::cell::RefCell;
use std::sync::Arc;

use crate::cell::{Attrs, Cell, Color};
use crate::wirefmt::{get_cell, put_cell};
use mosh_wire::{put_varint, Reader};

/// The largest screen width or height accepted from outside the process:
/// a snapshot, or a resize or frame diff from the peer, that carries a
/// larger one (or a 0) is refused whole as malformed.
pub const MAX_DIMENSION: u16 = 5000;

/// One row of the screen: a copy-on-write handle to shared cell storage,
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

thread_local! {
    /// The last blank row [`shared_blank`] made on this thread.
    static BLANK: RefCell<Option<Row>> = const { RefCell::new(None) };
}

/// A handle to this thread's blank row of default cells `width` wide,
/// shared by every screen of that width the thread makes. During thread
/// teardown it is a fresh [`Row::blank`].
pub(crate) fn shared_blank(width: usize) -> Row {
    BLANK
        .try_with(|b| {
            let mut b = b.borrow_mut();
            match &*b {
                Some(row) if row.cells().len() == width => row.clone(),
                _ => b.insert(Row::blank(width, Color::Default)).clone(),
            }
        })
        .unwrap_or_else(|_| Row::blank(width, Color::Default))
}

/// `n` handles to the thread's blank row: the first write to any of them
/// copies that row's cells, and the rest stay shared.
pub(crate) fn blank_rows(width: usize, n: usize) -> impl Iterator<Item = Row> {
    std::iter::repeat_n(shared_blank(width), n)
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
    /// in place and nothing is allocated. Otherwise the sharers keep the
    /// old storage untouched: this handle keeps sharing it when it already
    /// holds the blank wanted, and gets its own storage when it does not.
    pub(crate) fn reblank(&mut self, width: usize, bg: Color) {
        let blank = blank_cell(bg);
        if let Some(cells) = Arc::get_mut(&mut self.data) {
            cells.clear();
            cells.resize(width, blank);
        } else if !self.holds_only(blank) {
            *self = Row::blank(width, bg);
        }
    }

    /// True when every cell of the row is `cell`.
    pub(crate) fn holds_only(&self, cell: Cell) -> bool {
        self.cells().iter().all(|c| *c == cell)
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

    /// Reads a row written by [`Self::encode_into`], as wide as `blank`, a
    /// row of default cells. A row that is one run of default cells comes
    /// back as a clone of `blank`, and builds no cells of its own.
    pub(crate) fn decode(r: &mut Reader<'_>, blank: &Row) -> Option<Row> {
        let width = blank.cells().len();
        let mut cells = Vec::new();
        read_runs(r, width, |run, cell| {
            if run == width && cell == Cell::default() {
                return;
            }
            if cells.is_empty() {
                cells.reserve_exact(width);
            }
            cells.extend(std::iter::repeat_n(cell, run))
        })?;
        Some(if cells.is_empty() {
            blank.clone()
        } else {
            Row::from_cells(cells)
        })
    }

    /// Reads past a row written by [`Self::encode_into`], refusing what
    /// [`Self::decode`] refuses, without building its cells.
    pub(crate) fn skip(r: &mut Reader<'_>, width: usize) -> Option<()> {
        read_runs(r, width, |_, _| {})
    }
}

/// Reads the (count, cell) runs of one row, handing each to `run`, until
/// they cover exactly `width` cells.
fn read_runs(r: &mut Reader<'_>, width: usize, mut run: impl FnMut(usize, Cell)) -> Option<()> {
    let mut left = width;
    while left > 0 {
        let n = r.varint()? as usize;
        if n == 0 || n > left {
            return None;
        }
        run(n, get_cell(r)?);
        left -= n;
    }
    Some(())
}

/// Row equality is *content* equality, answered by identity first: rows
/// that share storage hold the same cells (storage is written only while
/// unshared), so they compare equal without reading a cell. Rows that do
/// not — a client applying diffs versus the server that generated them, or
/// a cell written and put back — compare their cells, so frames from
/// different lineages still compare equal.
impl PartialEq for Row {
    fn eq(&self, other: &Self) -> bool {
        Row::same_data(self, other) || self.cells() == other.cells()
    }
}

impl Eq for Row {}
