//! The prediction engine: epochs, confidence, culling, and display.

use crate::overlay::{CellPrediction, CursorPrediction, Validity};
use crate::Millis;
use mosh_terminal::{Attrs, Cell, Framebuffer};

/// Engage predictions when SRTT rises above this (hysteresis high side).
pub const SRTT_TRIGGER_HIGH: f64 = 30.0;
/// Disengage when SRTT falls below this.
pub const SRTT_TRIGGER_LOW: f64 = 20.0;
/// Underline (flag) predictions when SRTT exceeds this.
pub const FLAG_TRIGGER_HIGH: f64 = 80.0;
/// Stop underlining when SRTT falls below this.
pub const FLAG_TRIGGER_LOW: f64 = 50.0;
/// A prediction outstanding longer than this is a "glitch": display and
/// flag predictions for a while even on fast links.
pub const GLITCH_THRESHOLD: Millis = 250;
/// How many quick confirmations cancel a glitch.
pub const GLITCH_REPAIR_COUNT: u32 = 10;

/// When to display speculative output (paper §3.2's behaviour is
/// `Adaptive`; the others aid testing and user preference).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DisplayPreference {
    /// Show predictions when the link is slow or glitchy (the default).
    #[default]
    Adaptive,
    /// Always show predictions immediately.
    Always,
    /// Never show predictions (paper's "Mosh (no predictions)" rows).
    Never,
}

/// Counters for the evaluation harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictionStats {
    /// Keystrokes for which an echo prediction was made.
    pub predicted: u64,
    /// Keystrokes whose prediction was displayed at input time.
    pub displayed_instantly: u64,
    /// Keystrokes that made no prediction (navigation, control).
    pub unpredicted: u64,
    /// Predictions confirmed correct by the server.
    pub confirmed: u64,
    /// Predictions the server contradicted (repaired within an RTT).
    pub mispredicted: u64,
}

/// The speculative-echo engine. One per client session.
#[derive(Debug)]
pub struct PredictionEngine {
    cells: Vec<CellPrediction>,
    cursor: Option<CursorPrediction>,
    prediction_epoch: u64,
    confirmed_epoch: u64,
    srtt_trigger: bool,
    flagging: bool,
    glitch_trigger: u32,
    preference: DisplayPreference,
    stats: PredictionStats,
    /// Size of the frame predictions were made against.
    width: usize,
    height: usize,
}

impl PredictionEngine {
    /// Creates an engine for a screen of the given size.
    pub fn new(preference: DisplayPreference) -> Self {
        PredictionEngine {
            cells: Vec::new(),
            cursor: None,
            prediction_epoch: 1,
            confirmed_epoch: 0,
            srtt_trigger: false,
            flagging: false,
            glitch_trigger: 0,
            preference,
            stats: PredictionStats::default(),
            width: 0,
            height: 0,
        }
    }

    /// Evaluation counters.
    pub fn stats(&self) -> &PredictionStats {
        &self.stats
    }

    /// True when predictions would currently be shown to the user.
    pub fn engaged(&self) -> bool {
        match self.preference {
            DisplayPreference::Always => true,
            DisplayPreference::Never => false,
            DisplayPreference::Adaptive => self.srtt_trigger || self.glitch_trigger > 0,
        }
    }

    /// True if any displayable (non-tentative, non-unknown) overlay exists.
    pub fn active(&self) -> bool {
        self.cursor
            .map(|c| !c.tentative(self.confirmed_epoch))
            .unwrap_or(false)
            || self
                .cells
                .iter()
                .any(|c| !c.unknown && !c.tentative(self.confirmed_epoch))
    }

    /// Starts a new epoch: future predictions stay in the background until
    /// the server confirms one of them.
    pub fn become_tentative(&mut self) {
        self.prediction_epoch = self.confirmed_epoch.max(self.prediction_epoch) + 1;
    }

    /// Drops every outstanding prediction and starts a fresh epoch.
    pub fn reset(&mut self) {
        self.cells.clear();
        self.cursor = None;
        self.become_tentative();
    }

    fn update_triggers(&mut self, srtt: f64) {
        self.srtt_trigger = if self.srtt_trigger {
            srtt > SRTT_TRIGGER_LOW
        } else {
            srtt > SRTT_TRIGGER_HIGH
        };
        self.flagging = if self.flagging {
            srtt > FLAG_TRIGGER_LOW
        } else {
            srtt > FLAG_TRIGGER_HIGH
        };
    }

    /// The cursor position predictions build on: the latest cursor
    /// prediction if one exists, else the frame's own cursor.
    fn working_cursor(&self, frame: &Framebuffer) -> (usize, usize) {
        match self.cursor {
            Some(c) => (c.row, c.col),
            None => (frame.cursor.row, frame.cursor.col),
        }
    }

    /// The character currently predicted (or displayed) at a position.
    fn cell_at(&self, frame: &Framebuffer, row: usize, col: usize) -> Cell {
        for p in self.cells.iter().rev() {
            if p.row == row && p.col == col {
                return p.replacement;
            }
        }
        *frame.cell(row, col)
    }

    fn put_prediction(&mut self, p: CellPrediction) {
        // Newest wins: drop any older prediction for the same cell.
        self.cells.retain(|c| !(c.row == p.row && c.col == p.col));
        self.cells.push(p);
    }

    /// Feeds one user keystroke made at `now`, to be judged once the echo
    /// ack reaches `expiration_index`. `frame` is the latest server state
    /// known to the client; `srtt` the transport's current estimate.
    ///
    /// Returns true if the keystroke's echo was predicted *and displayed*
    /// immediately (the paper's "instant" outcome).
    pub fn new_user_input(
        &mut self,
        now: Millis,
        srtt: f64,
        keystroke: &[u8],
        frame: &Framebuffer,
        expiration_index: u64,
    ) -> bool {
        self.update_triggers(srtt);
        if self.width != frame.width() || self.height != frame.height() {
            self.width = frame.width();
            self.height = frame.height();
            self.reset();
        }

        // Classify the keystroke.
        match keystroke {
            // Printable (possibly multi-byte UTF-8) text: predict the echo.
            [b, ..] if *b >= 0x20 && *b != 0x7f => {
                let Ok(text) = std::str::from_utf8(keystroke) else {
                    self.become_tentative();
                    self.stats.unpredicted += 1;
                    return false;
                };
                let Some(ch) = text.chars().next() else {
                    self.stats.unpredicted += 1;
                    return false;
                };
                if mosh_terminal::width::char_width(ch) != 1 {
                    // Wide characters complicate wrap prediction; stay out.
                    self.become_tentative();
                    self.stats.unpredicted += 1;
                    return false;
                }
                self.predict_echo(now, ch, frame, expiration_index);
                self.stats.predicted += 1;
                // "Shown" means *this* keystroke's prediction is visible:
                // the engine is engaged and the current epoch is confirmed.
                let shown = self.engaged() && self.prediction_epoch <= self.confirmed_epoch;
                if shown {
                    self.stats.displayed_instantly += 1;
                }
                shown
            }
            // Backspace / DEL: predict the deletion.
            [0x7f] | [0x08] => {
                self.predict_backspace(now, frame, expiration_index);
                self.stats.predicted += 1;
                let shown = self.engaged() && self.prediction_epoch <= self.confirmed_epoch;
                if shown {
                    self.stats.displayed_instantly += 1;
                }
                shown
            }
            // Carriage return: move to column 0 of the next row, but in a
            // new epoch — the command's output is unpredictable.
            [0x0d] => {
                self.become_tentative();
                let (row, _) = self.working_cursor(frame);
                self.cursor = Some(CursorPrediction {
                    row: (row + 1).min(frame.height().saturating_sub(1)),
                    col: 0,
                    tentative_until_epoch: self.prediction_epoch,
                    expiration_index,
                    prediction_time: now,
                });
                self.stats.unpredicted += 1;
                false
            }
            // Up/down arrows, escape sequences, control characters: these
            // "are likely to alter the host's echo state" (paper §3.2).
            _ => {
                self.become_tentative();
                self.stats.unpredicted += 1;
                false
            }
        }
    }

    fn predict_echo(&mut self, now: Millis, ch: char, frame: &Framebuffer, expiration: u64) {
        let (row, col) = self.working_cursor(frame);
        if col + 1 >= frame.width() {
            // Word wrap is the paper's canonical misprediction source
            // (0.9% of keystrokes): predict only tentatively at the margin.
            self.become_tentative();
        }
        if row >= frame.height() || col >= frame.width() {
            self.become_tentative();
            return;
        }

        // Insert: displaced text slides right; those cells become
        // "unknown" guesses beyond a short horizon.
        let width = frame.width();
        let mut carried: Vec<Cell> = Vec::new();
        for c in col..width.saturating_sub(1) {
            carried.push(self.cell_at(frame, row, c));
        }
        for (offset, old) in carried.into_iter().enumerate() {
            let target = col + 1 + offset;
            if target >= width {
                break;
            }
            if old.is_blank() && self.cell_at(frame, row, target).is_blank() {
                continue; // Shifting blanks over blanks: no prediction.
            }
            self.put_prediction(CellPrediction {
                row,
                col: target,
                replacement: old,
                unknown: offset >= 2,
                tentative_until_epoch: self.prediction_epoch,
                expiration_index: expiration,
                prediction_time: now,
            });
        }

        let attrs = frame.cell(row, col).attrs;
        self.put_prediction(CellPrediction {
            row,
            col,
            replacement: Cell::narrow(ch, attrs),
            unknown: false,
            tentative_until_epoch: self.prediction_epoch,
            expiration_index: expiration,
            prediction_time: now,
        });
        self.cursor = Some(CursorPrediction {
            row,
            col: (col + 1).min(frame.width() - 1),
            tentative_until_epoch: self.prediction_epoch,
            expiration_index: expiration,
            prediction_time: now,
        });
    }

    fn predict_backspace(&mut self, now: Millis, frame: &Framebuffer, expiration: u64) {
        let (row, col) = self.working_cursor(frame);
        if col == 0 {
            self.become_tentative();
            return;
        }
        let target = col - 1;
        // Text right of the cursor slides left.
        let width = frame.width();
        for c in target..width {
            let source = if c + 1 < width {
                self.cell_at(frame, row, c + 1)
            } else {
                Cell::blank(Attrs::default())
            };
            if source.is_blank() && self.cell_at(frame, row, c).is_blank() {
                continue;
            }
            self.put_prediction(CellPrediction {
                row,
                col: c,
                replacement: source,
                unknown: c > target + 1,
                tentative_until_epoch: self.prediction_epoch,
                expiration_index: expiration,
                prediction_time: now,
            });
        }
        self.cursor = Some(CursorPrediction {
            row,
            col: target,
            tentative_until_epoch: self.prediction_epoch,
            expiration_index: expiration,
            prediction_time: now,
        });
    }

    /// Processes a newly arrived server frame (with its echo ack): culls
    /// confirmed and contradicted predictions, updates confidence.
    pub fn report_frame(&mut self, now: Millis, frame: &Framebuffer, echo_ack: u64, srtt: f64) {
        self.update_triggers(srtt);
        if self.width != frame.width() || self.height != frame.height() {
            self.width = frame.width();
            self.height = frame.height();
            self.reset();
            return;
        }

        let mut must_reset = false;
        // Candidate epoch confirmation from correct cells — adopted only if
        // the cursor does not contradict it. A coincidental cell match in a
        // full-screen app (a redrawn character happening to equal the
        // predicted echo) must not unleash the epoch; the cursor position
        // corroborates a real echo.
        let mut candidate_epoch = self.confirmed_epoch;

        let confirmed_epoch = self.confirmed_epoch;
        let mut confirmed = 0u64;
        let mut mispredicted = 0u64;
        let mut glitch_hits = 0u32;
        let mut quick_confirms = 0u32;
        self.cells.retain(|p| match p.validity(frame, echo_ack) {
            Validity::Correct => {
                if p.tentative_until_epoch > candidate_epoch {
                    candidate_epoch = p.tentative_until_epoch;
                }
                confirmed += 1;
                if now.saturating_sub(p.prediction_time) < GLITCH_THRESHOLD {
                    quick_confirms += 1;
                }
                false // Server now shows it; drop the overlay.
            }
            Validity::CorrectNoCredit => false,
            Validity::IncorrectOrExpired => {
                // Tentative mispredictions die silently (they were never
                // shown); displayed ones force a repair.
                if p.tentative_until_epoch <= confirmed_epoch && !p.unknown {
                    mispredicted += 1;
                    must_reset = true;
                }
                false
            }
            Validity::Pending => {
                if now.saturating_sub(p.prediction_time) > GLITCH_THRESHOLD {
                    glitch_hits += 1;
                }
                true
            }
        });
        self.stats.confirmed += confirmed;
        self.stats.mispredicted += mispredicted;

        let mut cursor_contradicts = false;
        if let Some(c) = self.cursor {
            match c.validity(frame, echo_ack) {
                Validity::Correct | Validity::CorrectNoCredit => {
                    if c.tentative_until_epoch > candidate_epoch {
                        candidate_epoch = c.tentative_until_epoch;
                    }
                    self.cursor = None;
                }
                Validity::IncorrectOrExpired => {
                    if !c.tentative(confirmed_epoch) {
                        self.stats.mispredicted += 1;
                        must_reset = true;
                    } else {
                        // A wrong tentative cursor vetoes the confirmation:
                        // whatever matched was coincidence, not an echo.
                        cursor_contradicts = true;
                    }
                    self.cursor = None;
                }
                Validity::Pending => {}
            }
        }
        if !cursor_contradicts && candidate_epoch > self.confirmed_epoch {
            self.confirmed_epoch = candidate_epoch;
        }

        // Confidence bookkeeping: long-pending predictions engage the
        // glitch trigger; quick confirmations repair it.
        if glitch_hits > 0 {
            self.glitch_trigger = GLITCH_REPAIR_COUNT;
        } else {
            self.glitch_trigger = self.glitch_trigger.saturating_sub(quick_confirms);
        }

        if must_reset {
            self.reset();
        }
    }

    /// Overlays the (displayable) predictions onto a frame copy for
    /// rendering. Unconfirmed predictions are underlined while flagging is
    /// engaged, per the paper: "we underline unconfirmed predictions so
    /// the user doesn't become misled."
    pub fn apply(&self, frame: &mut Framebuffer) {
        if !self.engaged() {
            return;
        }
        if frame.width() != self.width || frame.height() != self.height {
            return;
        }
        for p in &self.cells {
            if p.unknown || p.tentative(self.confirmed_epoch) {
                continue;
            }
            let mut cell = p.replacement;
            if self.flagging {
                cell.attrs.underline = true;
            }
            *frame.cell_mut(p.row, p.col) = cell;
        }
        if let Some(c) = self.cursor {
            if !c.tentative(self.confirmed_epoch) {
                frame.cursor.row = c.row.min(frame.height() - 1);
                frame.cursor.col = c.col.min(frame.width() - 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosh_terminal::Terminal;

    const FAST: f64 = 5.0;
    const SLOW: f64 = 200.0;

    fn frame(text: &[u8]) -> Framebuffer {
        let mut t = Terminal::new(40, 8);
        t.write(text);
        t.frame().clone()
    }

    /// An engine warmed up on a slow link with one confirmed round trip,
    /// so predictions display immediately.
    fn confident_engine(fb: &Framebuffer) -> PredictionEngine {
        let mut e = PredictionEngine::new(DisplayPreference::Adaptive);
        // First keystroke: epoch still tentative.
        e.new_user_input(0, SLOW, b"x", fb, 1);
        // Server confirms it.
        let mut confirmed = fb.clone();
        let (r, c) = (fb.cursor.row, fb.cursor.col);
        *confirmed.cell_mut(r, c) = Cell::narrow('x', Attrs::default());
        confirmed.cursor.col = c + 1;
        e.report_frame(400, &confirmed, 1, SLOW);
        assert_eq!(e.stats().confirmed, 1);
        e
    }

    #[test]
    fn first_epoch_is_tentative() {
        let fb = frame(b"$ ");
        let mut e = PredictionEngine::new(DisplayPreference::Adaptive);
        let shown = e.new_user_input(0, SLOW, b"l", &fb, 1);
        assert!(!shown, "first epoch must stay in the background");
        let mut display = fb.clone();
        e.apply(&mut display);
        assert_eq!(display, fb, "tentative predictions are invisible");
    }

    #[test]
    fn confirmation_reveals_the_epoch() {
        let fb = frame(b"$ x");
        let e = confident_engine(&frame(b"$ "));
        // The engine is confident now; a new keystroke displays instantly.
        let mut e = e;
        let shown = e.new_user_input(500, SLOW, b"l", &fb, 2);
        assert!(shown);
        let mut display = fb.clone();
        e.apply(&mut display);
        assert_eq!(display.cell(0, 3).ch, 'l');
        assert_eq!(display.cursor.col, 4);
    }

    #[test]
    fn fast_links_do_not_engage_predictions() {
        let fb = frame(b"$ ");
        let mut e = PredictionEngine::new(DisplayPreference::Adaptive);
        let shown = e.new_user_input(0, FAST, b"l", &fb, 1);
        assert!(!shown);
        assert!(!e.engaged());
    }

    #[test]
    fn always_preference_displays_from_first_keystroke() {
        let fb = frame(b"$ ");
        let mut e = PredictionEngine::new(DisplayPreference::Always);
        // Epochs still apply: the first epoch is tentative until confirmed.
        let shown = e.new_user_input(0, FAST, b"l", &fb, 1);
        assert!(!shown);
        // After confirmation, instant.
        let mut confirmed = fb.clone();
        *confirmed.cell_mut(0, 2) = Cell::narrow('l', Attrs::default());
        confirmed.cursor.col = 3;
        e.report_frame(10, &confirmed, 1, FAST);
        let shown = e.new_user_input(20, FAST, b"s", &confirmed, 2);
        assert!(shown);
    }

    #[test]
    fn never_preference_never_displays() {
        let fb = frame(b"$ ");
        let mut e = PredictionEngine::new(DisplayPreference::Never);
        e.new_user_input(0, SLOW, b"l", &fb, 1);
        let mut display = fb.clone();
        e.apply(&mut display);
        assert_eq!(display, fb);
    }

    #[test]
    fn typing_a_word_overlays_every_character() {
        let base = frame(b"$ ");
        let mut e = confident_engine(&base);
        let fb = frame(b"$ x"); // server state after the confirmed 'x'
        for (i, key) in [b"e", b"c", b"h", b"o"].iter().enumerate() {
            e.new_user_input(500 + i as u64, SLOW, *key, &fb, 2 + i as u64);
        }
        let mut display = fb.clone();
        e.apply(&mut display);
        assert_eq!(display.row_text(0), "$ xecho");
        assert_eq!(display.cursor.col, 7);
    }

    #[test]
    fn misprediction_is_repaired() {
        let base = frame(b"$ ");
        let mut e = confident_engine(&base);
        let fb = frame(b"$ x");
        e.new_user_input(500, SLOW, b"q", &fb, 2);
        let mut display = fb.clone();
        e.apply(&mut display);
        assert_eq!(display.cell(0, 3).ch, 'q');

        // Server disagrees: the app swallowed the keystroke (e.g. passwd).
        let server = frame(b"$ x");
        e.report_frame(900, &server, 2, SLOW);
        // Both the echoed cell and the cursor position were wrong.
        assert!(e.stats().mispredicted >= 1);
        let mut display = server.clone();
        e.apply(&mut display);
        assert_eq!(display, server, "wrong overlay must be removed");
    }

    #[test]
    fn control_characters_end_the_epoch() {
        let base = frame(b"$ ");
        let mut e = confident_engine(&base);
        let fb = frame(b"$ x");
        assert!(e.new_user_input(500, SLOW, b"a", &fb, 2));
        // Up-arrow: epoch increments; the next prediction hides.
        e.new_user_input(510, SLOW, b"\x1b[A", &fb, 3);
        let shown = e.new_user_input(520, SLOW, b"b", &fb, 4);
        assert!(!shown, "prediction after navigation must be tentative");
    }

    #[test]
    fn backspace_is_predicted() {
        let base = frame(b"$ ");
        let mut e = confident_engine(&base);
        let fb = frame(b"$ xy"); // cursor at col 4
        let shown = e.new_user_input(500, SLOW, b"\x7f", &fb, 2);
        assert!(shown);
        let mut display = fb.clone();
        e.apply(&mut display);
        assert_eq!(display.row_text(0), "$ x");
        assert_eq!(display.cursor.col, 3);
    }

    #[test]
    fn word_wrap_predictions_are_tentative() {
        let base = frame(b"$ ");
        let mut e = confident_engine(&base);
        // Fill the row to one short of the margin.
        let mut t = Terminal::new(40, 8);
        t.write(&[b'a'; 39]);
        let fb = t.frame().clone();
        let shown = e.new_user_input(500, SLOW, b"z", &fb, 2);
        assert!(!shown, "margin predictions must not display");
    }

    #[test]
    fn glitch_trigger_engages_on_slow_confirmation() {
        let fb = frame(b"$ ");
        let mut e = PredictionEngine::new(DisplayPreference::Adaptive);
        // Low SRTT: not engaged via srtt_trigger.
        e.new_user_input(0, 25.0, b"a", &fb, 1);
        assert!(!e.engaged());
        // 300 ms later the prediction is still pending: glitch.
        e.report_frame(300, &fb, 0, 25.0);
        assert!(e.engaged(), "glitch trigger must engage display");
    }

    #[test]
    fn underline_flags_on_high_latency() {
        let base = frame(b"$ ");
        let mut e = PredictionEngine::new(DisplayPreference::Adaptive);
        e.new_user_input(0, 200.0, b"x", &base, 1);
        let mut confirmed = frame(b"$ x");
        confirmed.cursor.col = 3;
        e.report_frame(400, &confirmed, 1, 200.0);
        e.new_user_input(500, 200.0, b"y", &confirmed, 2);
        let mut display = confirmed.clone();
        e.apply(&mut display);
        assert!(
            display.cell(0, 3).attrs.underline,
            "unconfirmed predictions underline on slow links"
        );
    }

    #[test]
    fn no_underline_on_moderate_latency() {
        let base = frame(b"$ ");
        let mut e = confident_engine(&base); // srtt 200 → flagging on
                                             // Drop to 60 ms: flagging hysteresis keeps it on until < 50.
        e.report_frame(600, &frame(b"$ x"), 1, 40.0);
        let fb = frame(b"$ x");
        e.new_user_input(700, 40.0, b"y", &fb, 2);
        let mut display = fb.clone();
        e.apply(&mut display);
        // srtt_trigger hysteresis: still engaged (40 > 20) from before.
        assert_eq!(display.cell(0, 3).ch, 'y');
        assert!(!display.cell(0, 3).attrs.underline);
    }

    #[test]
    fn resize_resets_predictions() {
        let base = frame(b"$ ");
        let mut e = confident_engine(&base);
        let fb = frame(b"$ x");
        e.new_user_input(500, SLOW, b"y", &fb, 2);
        let mut small = Terminal::new(20, 4);
        small.write(b"$ x");
        e.report_frame(600, small.frame(), 2, SLOW);
        let mut display = small.frame().clone();
        e.apply(&mut display);
        assert_eq!(&display, small.frame());
    }

    #[test]
    fn insert_shifts_existing_text() {
        let base = frame(b"$ ");
        let mut e = confident_engine(&base);
        // Screen shows "$ xab" with the cursor back at the 'a'.
        let mut t = Terminal::new(40, 8);
        t.write(b"$ xab\x1b[1;4H");
        let fb = t.frame().clone();
        e.new_user_input(500, SLOW, b"Z", &fb, 2);
        let mut display = fb.clone();
        e.apply(&mut display);
        // 'Z' lands at the cursor; 'a' visibly slides right ("unknown"
        // cells beyond the horizon are not displayed).
        assert_eq!(display.cell(0, 3).ch, 'Z');
        assert_eq!(display.cell(0, 4).ch, 'a');
    }

    #[test]
    fn stats_track_prediction_rate() {
        let base = frame(b"$ ");
        let mut e = confident_engine(&base);
        let fb = frame(b"$ x");
        e.new_user_input(500, SLOW, b"a", &fb, 2);
        e.new_user_input(510, SLOW, b"\x1b[B", &fb, 3);
        e.new_user_input(520, SLOW, b"\r", &fb, 4);
        let s = e.stats();
        assert_eq!(s.predicted, 2); // 'x' (warmup) + 'a'
        assert_eq!(s.unpredicted, 2);
        assert_eq!(s.displayed_instantly, 1);
    }
}
