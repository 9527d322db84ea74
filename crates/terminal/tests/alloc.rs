//! Heap allocations on the terminal's two hot paths, counted.
//!
//! The server interprets every byte an application writes and diffs a
//! frame per dirty tick, so what these paths allocate is a per-byte and
//! per-tick tax on every session. A counting global allocator (the
//! benchmark package has the same one) pins the counts for a warm
//! terminal: ingest allocates nothing, scrolled lines included — a scroll
//! builds its blank row in the storage of the row it evicts, and pays for
//! a new row only while a clone still holds the evicted one — and the
//! differ writes its cursor moves and rendition changes, digit by digit,
//! into the caller's buffer. A new screen's rows share one blank row, as
//! Mosh's do, so a fresh terminal pays for a row the first time it writes
//! into it, and only then. The snapshot decoder reserves no room for rows
//! its input does not hold, builds one row for all of a screen's blank
//! rows, and builds none of the history rows an older writer stored.
//!
//! Its own test binary, because a `#[global_allocator]` is per binary.
//! The counters are thread-local, so the harness running these tests on
//! parallel threads does not mix their counts.

use mosh_terminal::{display, Terminal, MAX_DIMENSION};
use mosh_wire::put_varint;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

/// Counts one request of `size` bytes, adds it to the total and keeps the
/// largest.
fn count(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
    let _ = BYTES.try_with(|c| c.set(c.get() + size));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; each counter is a thread-local `Cell` with a constant
// initialiser and no destructor, so touching one allocates nothing and is
// valid at any point of a thread's life.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's contract is `System.alloc`'s, passed through.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    // SAFETY: the caller's contract is `System.dealloc`'s, passed through.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: the caller's contract is `System.alloc_zeroed`'s, passed through.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: the caller's contract is `System.realloc`'s, passed through.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) this thread makes inside `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// The largest single request, in bytes, this thread makes inside `f`,
/// and what `f` returned.
fn largest_request_in<T>(f: impl FnOnce() -> T) -> (usize, T) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (LARGEST.with(Cell::get), out)
}

/// The bytes this thread requests inside `f`, all requests together, and
/// what `f` returned.
fn bytes_requested_in<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}

/// Writes `stream` once to warm `term` (the parser's parameter buffer
/// gets its capacity, every row the stream writes its own storage), then
/// counts a second write of the same bytes.
fn warm_write_allocations_on(mut term: Terminal, stream: &[u8]) -> u64 {
    term.write(stream);
    allocations_in(|| term.write(stream))
}

/// [`warm_write_allocations_on`] a fresh 80x24 terminal.
fn warm_write_allocations(stream: &[u8]) -> u64 {
    warm_write_allocations_on(Terminal::new(80, 24), stream)
}

#[test]
fn warm_write_of_plain_text_allocates_nothing() {
    // Wraps across rows, never reaches the bottom of the screen.
    let mut stream = b"\x1b[H".to_vec();
    for _ in 0..12 {
        stream.extend_from_slice(b"the quick brown fox jumps over the lazy dog; ");
    }
    stream.extend_from_slice(b"\r\ntab\there\r\nand a bell\x07");
    assert_eq!(warm_write_allocations(&stream), 0);
}

#[test]
fn warm_write_of_coloured_text_allocates_nothing() {
    let stream = b"\x1b[H\x1b[1;31merror\x1b[0m: \x1b[38;5;208mwarned\x1b[39m \
                   \x1b[48;2;10;20;30m rgb \x1b[0m\r\n\x1b[4;7munderlined inverse\x1b[m";
    assert_eq!(warm_write_allocations(stream), 0);
}

#[test]
fn warm_write_of_cursor_addressed_text_allocates_nothing() {
    let stream = b"\x1b[5;10Hcolumn ten\x1b[12;1H\x1b[Kstatus\x1b[3A\x1b[20Cup and right\
                   \x1b[24;70Hcorner\x1b[2;2H\x1b[3Xgap\x1b[1;1H";
    assert_eq!(warm_write_allocations(stream), 0);
}

/// A terminal that has written lines until its screen is full, so every
/// further line discards the top row for good.
fn terminal_with_a_full_screen() -> Terminal {
    let mut term = Terminal::new(80, 24);
    for i in 0..24 {
        term.write(format!("\r\nline {i}").as_bytes());
    }
    assert_eq!(term.frame().row_text(23), "line 23");
    term
}

#[test]
fn a_line_that_scrolls_allocates_nothing_once_the_screen_is_full() {
    let mut term = terminal_with_a_full_screen();
    // The discarded top row's storage comes back as the bottom row.
    let allocations = allocations_in(|| term.write(b"\r\none more line of output"));
    assert_eq!(allocations, 0);
}

#[test]
fn a_line_that_scrolls_allocates_only_its_new_row() {
    let mut term = terminal_with_a_full_screen();
    // A clone (a shipped state) still shows the top row this scroll
    // discards, so its storage is not the terminal's to reuse: the bottom
    // row is new — its cells and the shared handle around them. A count
    // of 0 here would mean the clone's row was blanked under it.
    let held = term.clone();
    let allocations = allocations_in(|| term.write(b"\r\none more line of output"));
    assert!(
        (1..=2).contains(&allocations),
        "a scrolled line allocated {allocations} times"
    );
    drop(held);
    // With the clone gone the next discarded row is unshared again.
    assert_eq!(allocations_in(|| term.write(b"\r\nand another")), 0);
}

// The two below start from a full screen, every row with storage of its
// own: on a fresh screen a scroll would move the shared blank rows about,
// and the second write would pay for the first copy of whichever of them
// it then writes into.

#[test]
fn a_region_scroll_allocates_nothing() {
    // LF at the bottom margin of a region, then IL and DL inside it: each
    // discards a row of the region and needs a blank one.
    let stream = b"\x1b[5;20r\x1b[20;1Hlast line of the region\r\nscrolled\r\nagain\
                   \x1b[8;1H\x1b[2L\x1b[3M\x1b[2S\x1b[r";
    assert_eq!(
        warm_write_allocations_on(terminal_with_a_full_screen(), stream),
        0
    );
}

#[test]
fn a_reverse_index_allocates_nothing() {
    // RI at the top margin and `CSI T`: the bottom row is discarded.
    let stream = b"\x1b[H\x1bMpushed down\x1bM\x1b[3Ttwice more";
    assert_eq!(
        warm_write_allocations_on(terminal_with_a_full_screen(), stream),
        0
    );
}

#[test]
fn a_fresh_terminal_copies_only_the_rows_it_writes() {
    // A client's first frame (reset the pen, clear, home) and a shell
    // prompt: the clear and `EL` find blank rows and write nothing, and
    // each of the three rows printed into gets its own cells and handle.
    let stream = b"\x1b[0m\x1b[2J\x1b[H$ ls\r\nCargo.toml  src\r\n\x1b[K$ ";
    let mut term = Terminal::new(80, 24);
    let allocations = allocations_in(|| term.write(stream));
    let written = (0..24)
        .filter(|&r| !term.frame().row_text(r).is_empty())
        .count() as u64;
    assert_eq!(written, 3);
    // Two allocations per row written, and the parser's parameter buffer.
    assert!(
        allocations <= 2 * written + 1,
        "a fresh terminal writing {written} rows allocated {allocations} times"
    );
}

/// A release-build property: a debug build also replays every diff through
/// a fresh terminal (the differ's convergence assertion), which allocates.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds replay each diff through a fresh terminal"
)]
fn warm_diff_between_editor_frames_allocates_nothing() {
    let mut term = Terminal::new(80, 24);
    for row in 1..24 {
        term.write(format!("\x1b[{row};1Hfn line_{row}() {{ body(); }}").as_bytes());
    }
    let before = term.frame().clone();
    term.write(b"\x1b[7;9H// edited\x1b[24;1H\x1b[7m -- INSERT -- col 9\x1b[0m\x1b[7;18H");
    let after = term.frame().clone();

    let mut out = String::new();
    display::new_frame_into(true, &before, &after, &mut out);
    // Both paths under test ran: cursor addressing and a rendition change.
    assert!(
        out.contains("\x1b[7;") && out.contains("\x1b[7m"),
        "{out:?}"
    );
    let allocations = allocations_in(|| display::new_frame_into(true, &before, &after, &mut out));
    assert_eq!(allocations, 0);
}

/// The same on a screen wide and tall enough for three-digit cursor
/// addresses, with indexed and direct colours: the differ writes their
/// digits straight into the caller's buffer.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds replay each diff through a fresh terminal"
)]
fn warm_diff_with_colours_and_long_addresses_allocates_nothing() {
    let mut term = Terminal::new(200, 120);
    for row in (100..120).step_by(3) {
        term.write(format!("\x1b[{row};150H\x1b[38;5;{row}mrow {row}\x1b[0m").as_bytes());
    }
    let before = term.frame().clone();
    term.write(
        b"\x1b[104;160H\x1b[1;38;2;250;128;7;48;5;236mwarm\x1b[0m\x1b[118;190H\x1b[97;101m!\x1b[0m\x1b[112;123H",
    );
    let after = term.frame().clone();

    let mut out = String::new();
    display::new_frame_into(true, &before, &after, &mut out);
    assert!(
        out.contains("\x1b[104;160H")
            && out.contains("38;2;250;128;7;48;5;236")
            && out.contains("\x1b[112;123H"),
        "{out:?}"
    );
    let allocations = allocations_in(|| display::new_frame_into(true, &before, &after, &mut out));
    assert_eq!(allocations, 0);
}

#[test]
fn a_snapshot_claiming_rows_it_lacks_reserves_no_room_for_them() {
    // A blank 80x24 terminal whose snapshot tail claims 1 000 000 history
    // rows, under a limit of as many, then ends before the first of them.
    let mut bytes = without_history(Terminal::new(80, 24).snapshot_bytes());
    for _ in 0..2 {
        put_varint(&mut bytes, 1_000_000);
    }
    let (largest, restored) = largest_request_in(|| Terminal::from_snapshot_bytes(&bytes));
    assert!(restored.is_none());
    assert!(
        largest < 64 * 1024,
        "decoding {} bytes asked for {largest} bytes at once",
        bytes.len()
    );
}

#[test]
fn a_blank_snapshot_of_the_largest_screen_builds_one_row() {
    // 5 000 rows of one run of 5 000 blanks each, seven bytes per row:
    // decoded, they share one row of cells instead of holding 300 MB, and
    // the deque that holds them is sized once: 60 kB of cells, 40 kB of
    // row handles.
    let side = usize::from(MAX_DIMENSION);
    let bytes = Terminal::new(side, side).snapshot_bytes();
    let (requested, restored) = bytes_requested_in(|| Terminal::from_snapshot_bytes(&bytes));
    let restored = restored.expect("a blank snapshot restores");
    assert_eq!(restored.frame().height(), side);
    assert!(
        requested < 128 * 1024,
        "decoding {} bytes asked for {requested} bytes",
        bytes.len()
    );
}

/// `snapshot` without its last three bytes: the history fields (limit,
/// length, viewport offset), which today's writer leaves empty.
fn without_history(mut snapshot: Vec<u8>) -> Vec<u8> {
    assert!(snapshot.ends_with(&[0, 0, 0]));
    snapshot.truncate(snapshot.len() - 3);
    snapshot
}

/// The snapshot of a blank 5 000-wide, one-row terminal as an older writer
/// that kept history would leave it, with `lines` history rows: each is
/// one run of 5 000 blanks, seven bytes that a row built from them turns
/// into 60 kB of cells.
fn snapshot_with_history(lines: u64) -> Vec<u8> {
    let mut bytes = without_history(Terminal::new(5000, 1).snapshot_bytes());
    put_varint(&mut bytes, lines); // the limit
    put_varint(&mut bytes, lines);
    for _ in 0..lines {
        put_varint(&mut bytes, 5000);
        // A blank cell: no wide flags, ' ', no renditions, default colours.
        bytes.extend_from_slice(&[0, b' ', 0, 0, 0]);
    }
    bytes.push(0); // the viewport offset
    bytes
}

#[test]
fn history_an_older_writer_stored_is_read_without_being_built() {
    let decode = |lines| {
        let bytes = snapshot_with_history(lines);
        allocations_in(|| {
            Terminal::from_snapshot_bytes(&bytes).expect("an older writer's history is read");
        })
    };
    assert_eq!(decode(1_000), decode(1));
}
