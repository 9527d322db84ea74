//! Property-based tests for the terminal emulator and the frame differ.
//!
//! The load-bearing invariant for the whole system is **diff convergence**:
//! for any two reachable screen states A and B,
//! `apply(new_frame(init, A, B), A) == B`. SSP relies on this to skip
//! intermediate states safely (paper §2.3).

use mosh_terminal::{display, Terminal};
use proptest::prelude::*;

/// Bytes biased toward terminal-relevant content: printable ASCII, escape
/// sequences, UTF-8 fragments, and control characters.
fn terminal_bytes() -> impl Strategy<Value = Vec<u8>> {
    let chunk = prop_oneof![
        // Plain words.
        "[ -~]{1,12}".prop_map(|s| s.into_bytes()),
        // Cursor movement and erase sequences.
        (0u16..30, 0u16..90).prop_map(|(a, b)| format!("\x1b[{a};{b}H").into_bytes()),
        (1u16..5).prop_map(|n| format!("\x1b[{n}A").into_bytes()),
        (1u16..5).prop_map(|n| format!("\x1b[{n}B").into_bytes()),
        (1u16..9).prop_map(|n| format!("\x1b[{n}C").into_bytes()),
        (1u16..9).prop_map(|n| format!("\x1b[{n}D").into_bytes()),
        (0u16..3).prop_map(|n| format!("\x1b[{n}J").into_bytes()),
        (0u16..3).prop_map(|n| format!("\x1b[{n}K").into_bytes()),
        (1u16..4).prop_map(|n| format!("\x1b[{n}L").into_bytes()),
        (1u16..4).prop_map(|n| format!("\x1b[{n}M").into_bytes()),
        (1u16..6).prop_map(|n| format!("\x1b[{n}@").into_bytes()),
        (1u16..6).prop_map(|n| format!("\x1b[{n}P").into_bytes()),
        (1u16..6).prop_map(|n| format!("\x1b[{n}X").into_bytes()),
        // Renditions.
        (0u16..110).prop_map(|n| format!("\x1b[{n}m").into_bytes()),
        (0u8..=255u8).prop_map(|n| format!("\x1b[38;5;{n}m").into_bytes()),
        // Scroll regions and scrolling.
        (1u16..10, 1u16..24).prop_map(|(t, b)| format!("\x1b[{t};{b}r").into_bytes()),
        (1u16..4).prop_map(|n| format!("\x1b[{n}S").into_bytes()),
        (1u16..4).prop_map(|n| format!("\x1b[{n}T").into_bytes()),
        // Controls.
        Just(b"\r".to_vec()),
        Just(b"\n".to_vec()),
        Just(b"\r\n".to_vec()),
        Just(b"\t".to_vec()),
        Just(b"\x08".to_vec()),
        Just(b"\x07".to_vec()),
        // Index / reverse index / save / restore.
        Just(b"\x1bD".to_vec()),
        Just(b"\x1bM".to_vec()),
        Just(b"\x1b7".to_vec()),
        Just(b"\x1b8".to_vec()),
        // Modes.
        Just(b"\x1b[?25l".to_vec()),
        Just(b"\x1b[?25h".to_vec()),
        Just(b"\x1b[?1049h".to_vec()),
        Just(b"\x1b[?1049l".to_vec()),
        Just(b"\x1b[4h".to_vec()),
        Just(b"\x1b[4l".to_vec()),
        Just(b"\x1b[?6h".to_vec()),
        Just(b"\x1b[?6l".to_vec()),
        Just(b"\x1b[?7l".to_vec()),
        Just(b"\x1b[?7h".to_vec()),
        // Wide and accented characters.
        Just("漢字".as_bytes().to_vec()),
        Just("héllo wörld".as_bytes().to_vec()),
        Just("🎉".as_bytes().to_vec()),
        // Titles.
        Just(b"\x1b]0;title\x07".to_vec()),
        // Line drawing.
        Just(b"\x1b(0lqqk\x1b(B".to_vec()),
    ];
    proptest::collection::vec(chunk, 0..40).prop_map(|chunks| chunks.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser and emulator never panic on arbitrary bytes.
    #[test]
    fn emulator_is_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let mut t = Terminal::new(80, 24);
        t.write(&bytes);
    }

    /// The emulator never panics on small screens either.
    #[test]
    fn emulator_is_total_on_tiny_screens(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        w in 1usize..4,
        h in 1usize..4,
    ) {
        let mut t = Terminal::new(w, h);
        t.write(&bytes);
    }

    /// Diff convergence between two reachable states, with the client built
    /// the way a real Mosh client is: from an initial diff plus deltas.
    #[test]
    fn diff_converges_between_reachable_states(a in terminal_bytes(), b in terminal_bytes()) {
        let mut term = Terminal::new(80, 24);
        term.write(&a);
        let before = term.frame().clone();
        term.write(&b);
        let after = term.frame().clone();

        let blank = mosh_terminal::Framebuffer::new(80, 24);
        let mut client = Terminal::new(80, 24);
        client.write(display::new_frame(false, &blank, &before).as_bytes());
        prop_assert_eq!(client.frame(), &before);

        client.write(display::new_frame(true, &before, &after).as_bytes());
        prop_assert_eq!(client.frame(), &after);
    }

    /// Convergence holds across a whole *chain* of diffs (the receiver
    /// applies many instructions in sequence, as SSP does).
    #[test]
    fn diff_chain_converges(steps in proptest::collection::vec(terminal_bytes(), 1..6)) {
        let mut term = Terminal::new(60, 16);
        let mut client = Terminal::new(60, 16);
        let blank = mosh_terminal::Framebuffer::new(60, 16);
        let mut prev = blank.clone();
        let mut initialized = false;
        for step in steps {
            term.write(&step);
            let next = term.frame().clone();
            let diff = display::new_frame(initialized, &prev, &next);
            client.write(diff.as_bytes());
            prop_assert_eq!(client.frame(), &next);
            prev = next;
            initialized = true;
        }
    }

    /// Diff convergence from a blank (uninitialized) client.
    #[test]
    fn initial_diff_converges(a in terminal_bytes()) {
        let mut term = Terminal::new(80, 24);
        term.write(&a);
        let target = term.frame().clone();

        let blank = mosh_terminal::Framebuffer::new(80, 24);
        let diff = display::new_frame(false, &blank, &target);
        let mut client = Terminal::new(80, 24);
        client.write(diff.as_bytes());
        prop_assert_eq!(client.frame(), &target);
    }

    /// An empty diff means equal states, and equal states mean empty diffs.
    #[test]
    fn empty_diff_iff_equal(a in terminal_bytes(), b in terminal_bytes()) {
        let mut term = Terminal::new(40, 10);
        term.write(&a);
        let before = term.frame().clone();
        term.write(&b);
        let after = term.frame().clone();

        let diff = display::new_frame(true, &before, &after);
        if before == after {
            prop_assert_eq!(diff, "");
        } else {
            prop_assert!(!diff.is_empty());
        }
    }

    /// Diffing is deterministic.
    #[test]
    fn diff_is_deterministic(a in terminal_bytes(), b in terminal_bytes()) {
        let mut term = Terminal::new(40, 12);
        term.write(&a);
        let before = term.frame().clone();
        term.write(&b);
        let after = term.frame().clone();
        prop_assert_eq!(
            display::new_frame(true, &before, &after),
            display::new_frame(true, &before, &after)
        );
    }

    /// Resize never panics and preserves the top-left contents that fit.
    #[test]
    fn resize_is_total(
        bytes in terminal_bytes(),
        w in 1usize..120,
        h in 1usize..40,
    ) {
        let mut t = Terminal::new(80, 24);
        t.write(&bytes);
        t.resize(w, h);
        prop_assert_eq!(t.frame().width(), w);
        prop_assert_eq!(t.frame().height(), h);
        // Cursor stays in bounds.
        prop_assert!(t.frame().cursor.row < h);
        prop_assert!(t.frame().cursor.col < w);
    }

    /// Diff convergence across a resize: the client resizes its emulator
    /// (the resize travels as a state record, not as bytes), then applies a
    /// diff computed against the pre-resize state, which repaints.
    #[test]
    fn diff_converges_across_resize(
        a in terminal_bytes(),
        b in terminal_bytes(),
        w in 2usize..100,
        h in 2usize..30,
    ) {
        let mut term = Terminal::new(80, 24);
        term.write(&a);
        let before = term.frame().clone();
        term.resize(w, h);
        term.write(&b);
        let target = term.frame().clone();

        // Client reaches `before` the legitimate way, then resizes.
        let blank = mosh_terminal::Framebuffer::new(80, 24);
        let mut client = Terminal::new(80, 24);
        client.write(display::new_frame(false, &blank, &before).as_bytes());
        client.resize(w, h);

        let diff = display::new_frame(true, &before, &target);
        client.write(diff.as_bytes());
        prop_assert_eq!(client.frame(), &target);
    }

    /// Parsing in one call equals parsing byte-by-byte (chunking invariance).
    #[test]
    fn chunking_does_not_change_result(bytes in terminal_bytes(), split in any::<prop::sample::Index>()) {
        let mut whole = Terminal::new(40, 10);
        whole.write(&bytes);

        let cut = split.index(bytes.len().max(1)).min(bytes.len());
        let mut parts = Terminal::new(40, 10);
        parts.write(&bytes[..cut]);
        parts.write(&bytes[cut..]);
        prop_assert_eq!(whole.frame(), parts.frame());
    }

    /// Sharing soundness (`Grid.tla`'s `DamageSound`, with shared storage
    /// as the only claim): a row that shares storage with the same row of
    /// an earlier clone holds that clone's cells. The differ skips exactly
    /// the shared rows, so an unsound share is a wrong frame.
    #[test]
    fn shared_rows_hold_their_clones_cells(a in terminal_bytes(), b in terminal_bytes()) {
        let mut term = Terminal::new(60, 16);
        term.write(&a);
        let snap = term.frame().clone();
        term.write(&b);
        check_shared_rows(term.frame(), &snap)?;
    }

    /// Scrolls build their blank row in the storage of the row they evict
    /// for good, but only when no clone still holds that row. Two
    /// terminals take the same scroll-heavy stream; one keeps clones of
    /// itself taken at random points (so some of its evicted rows are
    /// shared and some are not), the other never does (so it reuses every
    /// time). They must stay the same terminal by snapshot; every held
    /// clone must stay byte for byte what it was when taken; and every row
    /// of the live screen that shares storage with a held clone's row must
    /// hold that clone's cells — storage a clone still holds is never
    /// reused.
    #[test]
    fn scrolls_reuse_only_rows_no_clone_holds(
        limit in prop_oneof![Just(0usize), Just(1usize), Just(3usize), Just(200usize)],
        steps in proptest::collection::vec(
            // Half the steps write (the offline `prop_oneof!` has no
            // weights; a repeated arm is one).
            prop_oneof![
                scroll_bytes().prop_map(ScrollStep::Write),
                scroll_bytes().prop_map(ScrollStep::Write),
                scroll_bytes().prop_map(ScrollStep::Write),
                Just(ScrollStep::Hold),
                any::<prop::sample::Index>().prop_map(ScrollStep::Release),
                (1usize..10, 1usize..8).prop_map(|(w, h)| ScrollStep::Resize(w, h)),
            ],
            1..24,
        ),
    ) {
        let mut reuser = Terminal::new(8, 6);
        reuser.frame_mut().set_scrollback_limit(limit);
        let mut holder = reuser.clone();
        let mut held: Vec<(Terminal, Vec<u8>)> = Vec::new();
        for step in steps {
            match step {
                ScrollStep::Write(bytes) => {
                    reuser.write(&bytes);
                    holder.write(&bytes);
                }
                ScrollStep::Resize(w, h) => {
                    reuser.resize(w, h);
                    holder.resize(w, h);
                }
                ScrollStep::Hold => {
                    let clone = holder.clone();
                    let bytes = clone.snapshot_bytes();
                    held.push((clone, bytes));
                }
                ScrollStep::Release(which) => {
                    if !held.is_empty() {
                        held.swap_remove(which.index(held.len()));
                    }
                }
            }
            prop_assert_eq!(holder.snapshot_bytes(), reuser.snapshot_bytes());
            for (clone, taken) in &held {
                prop_assert_eq!(&clone.snapshot_bytes(), taken, "a held clone changed");
                let (now, then) = (holder.frame(), clone.frame());
                if (now.width(), now.height()) == (then.width(), then.height()) {
                    check_shared_rows(now, then)?;
                }
            }
        }
    }

    /// `Row::eq` / `Framebuffer::eq` are content equality whatever the
    /// rows' storage (shared or copied): across clone → mutate → revert →
    /// sibling-lineage → cross-lineage (a client built from diffs vs. the
    /// server that made them) pairs,
    /// equality agrees with a cell-by-cell oracle that never looks at
    /// identity. An identity shortcut added to either may only ever
    /// short-circuit a *true* answer; this is the test it has to pass.
    #[test]
    fn equality_agrees_with_cell_by_cell_oracle(
        a in terminal_bytes(),
        b in terminal_bytes(),
        c in terminal_bytes(),
        row in 0usize..16,
        col in 0usize..60,
    ) {
        let mut term = Terminal::new(60, 16);
        term.write(&a);
        // Clone: every row shares storage with its snapshot.
        let snap = term.frame().clone();
        prop_assert!(frames_agree(term.frame(), &snap));
        prop_assert!(term.frame() == &snap);

        // A sibling lineage: same row storage until each side writes.
        let mut sibling = term.clone();

        // Mutate.
        term.write(&b);
        prop_assert!(frames_agree(term.frame(), &snap));

        // Mutate one cell and put it back: storage moved, content did not.
        let mut reverted = term.clone();
        let original = *reverted.frame().cell(row, col);
        *reverted.frame_mut().cell_mut(row, col) = mosh_terminal::Cell::default();
        prop_assert!(frames_agree(reverted.frame(), term.frame()));
        *reverted.frame_mut().cell_mut(row, col) = original;
        prop_assert!(frames_agree(reverted.frame(), term.frame()));
        prop_assert!(reverted.frame() == term.frame());

        // The sibling replays the same bytes (equal content in distinct
        // storage), then diverges.
        sibling.write(&b);
        prop_assert!(frames_agree(sibling.frame(), term.frame()));
        prop_assert!(sibling.frame() == term.frame());
        sibling.write(&c);
        prop_assert!(frames_agree(sibling.frame(), term.frame()));
        prop_assert!(frames_agree(sibling.frame(), &snap));

        // Cross-lineage: a client that only ever applied diffs shares no
        // row identity with the server at all.
        let blank = mosh_terminal::Framebuffer::new(60, 16);
        let mut client = Terminal::new(60, 16);
        client.write(display::new_frame(false, &blank, &snap).as_bytes());
        prop_assert!(frames_agree(client.frame(), &snap));
        prop_assert!(frames_agree(client.frame(), term.frame()));
        client.write(display::new_frame(true, &snap, term.frame()).as_bytes());
        prop_assert!(frames_agree(client.frame(), term.frame()));
        prop_assert!(client.frame() == term.frame());
        prop_assert!(frames_agree(client.frame(), sibling.frame()));
    }

    /// The differ that skips shared rows is byte-identical to the
    /// full-scan oracle — sharing only changes what gets *visited*, never
    /// what gets emitted.
    #[test]
    fn skip_diff_matches_full_scan_oracle(
        a in terminal_bytes(),
        b in terminal_bytes(),
        initialized in any::<bool>(),
    ) {
        let mut term = Terminal::new(60, 16);
        term.write(&a);
        let before = term.frame().clone();
        term.write(&b);
        let after = term.frame().clone();

        let mut fast = String::new();
        display::new_frame_into(initialized, &before, &after, &mut fast);
        prop_assert_eq!(fast, display::new_frame_full_scan(initialized, &before, &after));
    }

    /// Viewport bounds (`Grid.tla`'s `OffsetInBounds`): across writes,
    /// scroll-view motions, and resizes, the display offset never exceeds
    /// the scrollback depth, and the depth never exceeds the limit.
    #[test]
    fn display_offset_stays_in_bounds(
        steps in proptest::collection::vec(
            prop_oneof![
                terminal_bytes().prop_map(Step::Write),
                (-30isize..30).prop_map(Step::Scroll),
                (2usize..90, 2usize..30).prop_map(|(w, h)| Step::Resize(w, h)),
            ],
            1..12,
        ),
    ) {
        let mut term = Terminal::new(80, 24);
        for step in steps {
            match step {
                Step::Write(bytes) => term.write(&bytes),
                Step::Scroll(delta) => term.frame_mut().scroll_view(delta),
                Step::Resize(w, h) => term.resize(w, h),
            }
            let f = term.frame();
            prop_assert!(f.display_offset() <= f.scrollback_len());
            prop_assert!(f.scrollback_len() <= f.scrollback_limit());
            // Every viewport position resolves (would panic otherwise).
            for i in 0..f.height() {
                let _ = f.view_row(i);
            }
        }
    }

    /// A written / scrolled / scrolled-back / resized terminal survives
    /// the snapshot (wirefmt) path byte-identically — scrollback rows and
    /// the viewport offset included (the PR 9 container rides on this).
    #[test]
    fn snapshot_roundtrips_scrollback_and_viewport(
        a in terminal_bytes(),
        b in terminal_bytes(),
        back in 0isize..40,
        w in 2usize..90,
        h in 2usize..30,
    ) {
        let mut term = Terminal::new(80, 24);
        term.write(&a);
        term.resize(w, h);
        term.write(&b);
        term.frame_mut().scroll_view(back);

        let restored = Terminal::from_snapshot_bytes(&term.snapshot_bytes())
            .expect("snapshot of a live terminal decodes");
        // Frame equality covers grid/cursor/title/bell; viewport state is
        // deliberately outside `Eq`, so pin it field by field.
        prop_assert_eq!(restored.frame(), term.frame());
        prop_assert_eq!(restored.frame().scrollback_len(), term.frame().scrollback_len());
        prop_assert_eq!(restored.frame().display_offset(), term.frame().display_offset());
        prop_assert_eq!(restored.frame().scrollback_limit(), term.frame().scrollback_limit());
        for i in 0..term.frame().scrollback_len() {
            prop_assert_eq!(
                restored.frame().history_row(i),
                term.frame().history_row(i),
                "history row {} diverged",
                i
            );
        }
    }

    /// Ingest equivalence on terminal-shaped input: `write` (push parser,
    /// ground-run scan, `print_run`) leaves the same terminal as the
    /// per-action reference.
    #[test]
    fn write_matches_per_action_reference(
        bytes in terminal_bytes(),
        shape in screen_shapes(),
        split in any::<prop::sample::Index>(),
    ) {
        let cut = split.index(bytes.len().max(1));
        check_write_matches_reference(shape.0, shape.1, &bytes, cut)?;
    }

    /// The same on arbitrary bytes: torn UTF-8, stray C1 controls, escape
    /// sequences cut off by the chunk boundary.
    #[test]
    fn write_matches_per_action_reference_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..1024),
        shape in screen_shapes(),
        split in any::<prop::sample::Index>(),
    ) {
        let cut = split.index(bytes.len().max(1));
        check_write_matches_reference(shape.0, shape.1, &bytes, cut)?;
    }

    /// `print_run(run)` is `print` of each byte in turn: same terminal by
    /// snapshot. The cursor's row is paved with wide pairs from column 0
    /// or 1 in two cases of three, so both ends of most spans cut one in
    /// half.
    #[test]
    fn print_run_matches_per_character_print(
        shape in prop_oneof![
            Just((12usize, 4usize)),
            Just((2usize, 3usize)),
            Just((1usize, 1usize)),
        ],
        wide_from in 0usize..3,
        pieces in run_prestate(),
        park in (any::<u16>(), any::<u16>(), any::<bool>()),
        run in prop_oneof!["[ -~]{0,5}", "[ -~]{0,40}"],
    ) {
        let (w, h) = shape;
        let (row, col) = (park.0 as usize % h + 1, park.1 as usize % w + 1);
        let mut setup = Vec::new();
        if wide_from > 0 {
            setup.extend(format!("\x1b[{row};{wide_from}H{}", "漢".repeat(w / 2)).bytes());
        }
        setup.extend(render_prestate(w, h, &pieces));
        if park.2 {
            setup.extend(format!("\x1b[{row};{col}H").bytes());
        }
        let mut by_run = Terminal::new(w, h);
        by_run.write(&setup);
        let mut by_char = by_run.clone();

        by_run.frame_mut().print_run(run.as_bytes());
        for c in run.chars() {
            by_char.frame_mut().print(c);
        }
        prop_assert_eq!(by_run.snapshot_bytes(), by_char.snapshot_bytes());
    }
}

/// Every row of `cur` that shares storage with the same row of `snap`, an
/// earlier clone of the same framebuffer, must hold `snap`'s cells.
fn check_shared_rows(
    cur: &mosh_terminal::Framebuffer,
    snap: &mosh_terminal::Framebuffer,
) -> Result<(), TestCaseError> {
    for r in 0..cur.height() {
        if mosh_terminal::Row::same_data(cur.row(r), snap.row(r)) {
            prop_assert_eq!(cur.row(r).cells(), snap.row(r).cells(), "shared row {}", r);
        }
    }
    Ok(())
}

/// One step of the row-reuse walk.
#[derive(Debug, Clone)]
enum ScrollStep {
    Write(Vec<u8>),
    /// The holder clones itself and keeps the clone.
    Hold,
    /// The holder drops one of its clones.
    Release(prop::sample::Index),
    Resize(usize, usize),
}

/// Streams in which most chunks scroll something: line feeds and short
/// lines (at the bottom margin more often than not on a six-row screen),
/// `CSI S`/`CSI T`, reverse index, IL/DL, with the cursor, the scroll
/// region, the alternate screen and the erase colour moved in between.
fn scroll_bytes() -> impl Strategy<Value = Vec<u8>> {
    let chunk = prop_oneof![
        "[a-z]{1,6}".prop_map(|s| format!("{s}\r\n").into_bytes()),
        Just(b"\n".to_vec()),
        Just(b"\x1bM".to_vec()),
        Just("漢".as_bytes().to_vec()),
        (1u16..5).prop_map(|n| format!("\x1b[{n}S").into_bytes()),
        (1u16..5).prop_map(|n| format!("\x1b[{n}T").into_bytes()),
        (1u16..5).prop_map(|n| format!("\x1b[{n}L").into_bytes()),
        (1u16..5).prop_map(|n| format!("\x1b[{n}M").into_bytes()),
        (1u16..8, 1u16..10).prop_map(|(r, c)| format!("\x1b[{r};{c}H").into_bytes()),
        (1u16..6, 1u16..8).prop_map(|(t, b)| format!("\x1b[{t};{b}r").into_bytes()),
        Just(b"\x1b[r".to_vec()),
        Just(b"\x1b[?1049h".to_vec()),
        Just(b"\x1b[?1049l".to_vec()),
        (40u16..48).prop_map(|n| format!("\x1b[{n}m").into_bytes()),
        Just(b"\x1b[m".to_vec()),
    ];
    proptest::collection::vec(chunk, 1..16).prop_map(|chunks| chunks.concat())
}

/// The per-action route `Terminal::write` replaced and is held against:
/// `Parser::input` one byte at a time (so no run is ever longer than one
/// character), each collected action applied through `Terminal::perform`.
fn reference_write(term: &mut Terminal, bytes: &[u8]) {
    for &b in bytes {
        for action in term.parser_mut().input(&[b]) {
            term.perform(&action);
        }
    }
}

/// `write` and the per-action reference must leave the same terminal —
/// screen, interpreter state and the parser's mid-sequence position, all
/// of which `snapshot_bytes` covers — at every chunk boundary.
fn check_write_matches_reference(
    w: usize,
    h: usize,
    bytes: &[u8],
    cut: usize,
) -> Result<(), TestCaseError> {
    let mut fast = Terminal::new(w, h);
    let mut reference = Terminal::new(w, h);
    let cut = cut.min(bytes.len());
    for chunk in [&bytes[..cut], &bytes[cut..]] {
        fast.write(chunk);
        reference_write(&mut reference, chunk);
        prop_assert_eq!(fast.snapshot_bytes(), reference.snapshot_bytes());
    }
    Ok(())
}

/// Screen shapes for the ingest equivalence: the usual one, the smallest
/// one, and two columns (every wide character sits on a margin).
fn screen_shapes() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        Just((80usize, 24usize)),
        Just((1usize, 1usize)),
        (1usize..6).prop_map(|h| (2usize, h)),
    ]
}

/// Pieces of a screen state in which the two ends of a printed span have
/// something to get wrong — wide pairs at chosen cells, the cursor parked
/// on a lead, a continuation or the margin, and the modes `print_run` must
/// notice — as `(kind, a, b)` with the coordinates reduced to the screen
/// by [`render_prestate`].
fn run_prestate() -> impl Strategy<Value = Vec<(u8, u16, u16)>> {
    proptest::collection::vec((0u8..13, any::<u16>(), any::<u16>()), 0..12)
}

fn render_prestate(w: usize, h: usize, pieces: &[(u8, u16, u16)]) -> Vec<u8> {
    let mut out = Vec::new();
    for &(kind, a, b) in pieces {
        let (row, col) = (a as usize % h + 1, b as usize % w + 1);
        match kind {
            0 => out.extend(format!("\x1b[{row};{col}H漢").bytes()),
            1 => out.extend(format!("\x1b[{row};{col}H🎉").bytes()),
            2 => out.extend(format!("\x1b[{row};{col}Hx").bytes()),
            // Fill a row to the margin: leaves a wrap pending.
            3 => {
                out.extend(format!("\x1b[{row};1H").bytes());
                out.extend(std::iter::repeat_n(b'm', w));
            }
            4 => out.extend(b"\x1b[4h"),
            5 => out.extend(b"\x1b[4l"),
            6 => out.extend(b"\x1b[?7l"),
            7 => out.extend(b"\x1b[?7h"),
            8 => out.extend(b"\x1b(0"),
            9 => out.extend(b"\x1b(B"),
            10 => out.extend(b"\x1b[44m"),
            11 => out.extend(format!("\x1b[{row};{}r", b as usize % h + 1).bytes()),
            _ => out.extend(format!("\x1b[{row};{col}H").bytes()),
        }
    }
    out
}

/// One step of the viewport-bounds walk.
#[derive(Debug, Clone)]
enum Step {
    Write(Vec<u8>),
    Scroll(isize),
    Resize(usize, usize),
}

/// Checks `Row::eq` and `Framebuffer::eq` against a comparison that
/// reads every cell and never consults row identity; false on any
/// disagreement.
fn frames_agree(x: &mosh_terminal::Framebuffer, y: &mosh_terminal::Framebuffer) -> bool {
    let same_shape = x.width() == y.width() && x.height() == y.height();
    let mut rows_equal = same_shape;
    if same_shape {
        for r in 0..x.height() {
            let oracle = x.row(r).cells() == y.row(r).cells();
            if (x.row(r) == y.row(r)) != oracle {
                return false;
            }
            rows_equal &= oracle;
        }
    }
    let oracle = rows_equal
        && x.cursor == y.cursor
        && x.modes.cursor_visible == y.modes.cursor_visible
        && x.title() == y.title()
        && x.bell_count() == y.bell_count();
    (x == y) == oracle
}
