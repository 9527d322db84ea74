//! The prediction engine: epochs, confidence, culling, and display.
//!
//! # Two acknowledgments
//!
//! Every server frame reaches [`PredictionEngine::report_frame`] with two
//! indices into the user's input stream, both already carried by SSP:
//!
//! * the **applied index** — how many input events the server had handed
//!   to the application when it cut the frame (the state number it
//!   acknowledged in the same instruction, read back as that state's
//!   length). The frame *probably* shows their effect; the application
//!   may still owe some output.
//! * the **echo ack** (§3.2) — the newest event that was handed over at
//!   least 50 ms before the frame was cut. The frame *must* show its
//!   effect, if it has one.
//!
//! The engine keeps every keystroke that is not yet echo-acked (index,
//! time, epoch, kind), so what it overlays is a function of the newest
//! frame and the keys in flight, not of positions frozen when a key was
//! typed:
//!
//! 1. **Echo evidence.** An unconfirmed epoch is confirmed when what its
//!    applied keys typed stands immediately left of the frame's cursor.
//! 2. **Re-anchoring.** While no key of a confirmed epoch is ahead of the
//!    frame, the overlays of the keys ahead of it are laid out again from
//!    the frame's cursor — type-ahead after ENTER lands behind the prompt.
//! 3. **Judging what can be judged.** A displayed prediction that matches
//!    is retired once the applied index covers it; one that a later
//!    ENTER, arrow or escape has already overtaken in the judging frame is
//!    dropped uncounted as a misprediction ([`PredictionStats::overtaken`]).
//!
//! # Invariants
//!
//! * **Nothing tentative is painted.** [`PredictionEngine::apply`] skips
//!   every overlay whose epoch exceeds the confirmed epoch.
//! * **Refutation waits for the echo ack.** A mismatch counts against a
//!   prediction only in a frame whose echo ack covers its keystroke; the
//!   applied index can confirm and retire, never refute.
//! * **Epochs advance where §3.2 says**: on every keystroke that is not
//!   predicted (ENTER, arrows, escape, control characters, wide or
//!   malformed text), at the right margin, on a backspace at column 0, on
//!   a misprediction and on a resize.

use crate::overlay::{CellPrediction, CursorPrediction, Validity};
use crate::Millis;
use mosh_terminal::{Attrs, Cell, Framebuffer};
use std::collections::VecDeque;

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
/// How many echoed characters confirm an epoch (fewer when the epoch has
/// had fewer applied): one could be the `a` of `cat` meeting the `a` of
/// `Makefile`.
const EVIDENCE_CHARS: usize = 2;

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
    /// Keystrokes that made no prediction (navigation, control, or
    /// nowhere to lay one out).
    pub unpredicted: u64,
    /// Predictions confirmed correct by the server.
    pub confirmed: u64,
    /// Predictions the server contradicted (repaired within an RTT).
    pub mispredicted: u64,
    /// Displayed predictions that no longer matched in the frame that
    /// judged them, because that frame already reflected a later ENTER,
    /// arrow or escape: unjudgeable, so neither confirmed nor
    /// mispredicted.
    pub overtaken: u64,
}

/// What a keystroke means to the predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyKind {
    /// One narrow printable character: its echo is predicted.
    Print(char),
    /// Backspace / DEL: the deletion is predicted.
    Backspace,
    /// Carriage return: the cursor is guessed at the start of the next
    /// row, in a new epoch.
    Enter,
    /// Arrows, escape sequences, control characters, wide or malformed
    /// text: "likely to alter the host's echo state" (§3.2). Nothing is
    /// predicted and a new epoch begins.
    Other,
}

impl KeyKind {
    fn of(keystroke: &[u8]) -> Self {
        match keystroke {
            [b, ..] if *b >= 0x20 && *b != 0x7f => {
                match std::str::from_utf8(keystroke).map(|t| t.chars().next()) {
                    // Wide characters complicate wrap prediction; stay out.
                    Ok(Some(ch)) if mosh_terminal::width::char_width(ch) == 1 => KeyKind::Print(ch),
                    _ => KeyKind::Other,
                }
            }
            [0x7f] | [0x08] => KeyKind::Backspace,
            [0x0d] => KeyKind::Enter,
            _ => KeyKind::Other,
        }
    }

    /// True for the keys that begin an epoch of their own.
    fn ends_epoch(self) -> bool {
        matches!(self, KeyKind::Enter | KeyKind::Other)
    }
}

/// A keystroke the server has not echo-acked yet.
#[derive(Debug, Clone, Copy)]
struct KeyInFlight {
    /// Length of the input stream with this key in it: the key is applied
    /// once the applied index reaches this, judged once the echo ack does.
    index: u64,
    /// When it was typed (glitch detection).
    time: Millis,
    epoch: u64,
    kind: KeyKind,
}

/// The speculative-echo engine. One per client session.
#[derive(Debug)]
pub struct PredictionEngine {
    /// Keys typed and not yet echo-acked, oldest first.
    keys: VecDeque<KeyInFlight>,
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
            keys: VecDeque::new(),
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

    /// Starts a new epoch: future predictions stay in the background until
    /// the server confirms one of them.
    pub fn become_tentative(&mut self) {
        self.prediction_epoch = self.confirmed_epoch.max(self.prediction_epoch) + 1;
    }

    /// Drops every outstanding prediction and starts a fresh epoch. The
    /// keys in flight stay: the acknowledgments still have to account for
    /// them.
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

    /// Adopts the frame's size; a change invalidates every overlay.
    fn resized(&mut self, frame: &Framebuffer) -> bool {
        if self.width == frame.width() && self.height == frame.height() {
            return false;
        }
        self.width = frame.width();
        self.height = frame.height();
        self.reset();
        true
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

    /// One past the last column of `row` that holds anything, on the
    /// frame or in a prediction: beyond it blanks shift over blanks.
    fn row_extent(&self, frame: &Framebuffer, row: usize) -> usize {
        let shown = frame.row(row).cells();
        let on_frame = shown.len() - shown.iter().rev().take_while(|c| c.is_blank()).count();
        self.cells
            .iter()
            .filter(|p| p.row == row)
            .fold(on_frame, |end, p| end.max(p.col + 1))
    }

    fn put_prediction(&mut self, p: CellPrediction) {
        // Newest wins: drop any older prediction for the same cell.
        self.cells.retain(|c| !(c.row == p.row && c.col == p.col));
        self.cells.push(p);
    }

    /// Feeds one user keystroke made at `now`. `index` is the length of
    /// the input stream with the keystroke in it — what the applied index
    /// and the echo ack of later frames are compared against. `frame` is
    /// the latest server state known to the client; `srtt` the
    /// transport's current estimate.
    ///
    /// Returns true if the keystroke's echo was predicted *and displayed*
    /// immediately (the paper's "instant" outcome).
    pub fn new_user_input(
        &mut self,
        now: Millis,
        srtt: f64,
        keystroke: &[u8],
        frame: &Framebuffer,
        index: u64,
    ) -> bool {
        self.update_triggers(srtt);
        self.resized(frame);

        let kind = KeyKind::of(keystroke);
        if kind.ends_epoch() || self.at_margin(kind, frame) {
            // Word wrap is the paper's canonical misprediction source
            // (0.9% of keystrokes): predict only tentatively at the margin.
            self.become_tentative();
        }
        let key = KeyInFlight {
            index,
            time: now,
            epoch: self.prediction_epoch,
            kind,
        };
        self.keys.push_back(key);
        if !self.lay_out(key, frame) {
            if !kind.ends_epoch() {
                // Nowhere to put it (backspace at column 0, cursor off
                // the frame): whatever the host does next is a guess.
                self.become_tentative();
            }
            self.stats.unpredicted += 1;
            return false;
        }
        self.stats.predicted += 1;
        // "Shown" means *this* keystroke's prediction is visible: the
        // engine is engaged and the key's epoch is confirmed.
        let shown = self.engaged() && key.epoch <= self.confirmed_epoch;
        if shown {
            self.stats.displayed_instantly += 1;
        }
        shown
    }

    /// True when `kind` would print into the last column.
    fn at_margin(&self, kind: KeyKind, frame: &Framebuffer) -> bool {
        matches!(kind, KeyKind::Print(_)) && self.working_cursor(frame).1 + 1 >= frame.width()
    }

    /// Lays `key`'s overlays out behind the working cursor. Returns true
    /// if an echo was predicted.
    fn lay_out(&mut self, key: KeyInFlight, frame: &Framebuffer) -> bool {
        let (row, col) = self.working_cursor(frame);
        match key.kind {
            KeyKind::Print(ch) => self.predict_echo(key, ch, row, col, frame),
            KeyKind::Backspace => self.predict_backspace(key, row, col, frame),
            KeyKind::Enter => {
                // Column 0 of the next row — a guess the command's output
                // will usually overrule, hence the new epoch.
                let row = (row + 1).min(frame.height().saturating_sub(1));
                self.cursor = Some(key.predicts_cursor(row, 0));
                false
            }
            KeyKind::Other => false,
        }
    }

    fn predict_echo(
        &mut self,
        key: KeyInFlight,
        ch: char,
        row: usize,
        col: usize,
        frame: &Framebuffer,
    ) -> bool {
        let width = frame.width();
        if row >= frame.height() || col >= width {
            return false;
        }

        // Insert: displaced text slides right; those cells become
        // "unknown" guesses beyond a short horizon.
        let end = self.row_extent(frame, row).min(width - 1);
        let carried: Vec<Cell> = (col..end).map(|c| self.cell_at(frame, row, c)).collect();
        for (offset, old) in carried.into_iter().enumerate() {
            let target = col + 1 + offset;
            if old.is_blank() && self.cell_at(frame, row, target).is_blank() {
                continue; // Shifting blanks over blanks: no prediction.
            }
            self.put_prediction(key.predicts_cell(row, target, old, offset >= 2));
        }

        let attrs = frame.cell(row, col).attrs();
        self.put_prediction(key.predicts_cell(row, col, Cell::narrow(ch, attrs), false));
        self.cursor = Some(key.predicts_cursor(row, (col + 1).min(width - 1)));
        true
    }

    fn predict_backspace(
        &mut self,
        key: KeyInFlight,
        row: usize,
        col: usize,
        frame: &Framebuffer,
    ) -> bool {
        let width = frame.width();
        if col == 0 || row >= frame.height() || col >= width {
            return false;
        }
        let target = col - 1;
        // Text right of the cursor slides left.
        for c in target..self.row_extent(frame, row) {
            let source = if c + 1 < width {
                self.cell_at(frame, row, c + 1)
            } else {
                Cell::blank(Attrs::default())
            };
            if source.is_blank() && self.cell_at(frame, row, c).is_blank() {
                continue;
            }
            self.put_prediction(key.predicts_cell(row, c, source, c > target + 1));
        }
        self.cursor = Some(key.predicts_cursor(row, target));
        true
    }

    /// Rule 1: the epoch the frame gives evidence for, if any. The newest
    /// applied key says whose text ends at the frame's cursor; the
    /// evidence is the last [`EVIDENCE_CHARS`] characters its epoch's
    /// applied keys left standing (printables net of backspaces; all of
    /// them when there are fewer), found immediately left of that cursor.
    /// Blanks alone prove nothing.
    fn echo_evidence(&self, frame: &Framebuffer, applied: u64) -> Option<u64> {
        let applied_keys = self.keys.iter().rev().skip_while(|k| k.index > applied);
        let epoch = applied_keys.clone().next()?.epoch;
        if epoch <= self.confirmed_epoch {
            return None;
        }
        // Newest first: a backspace cancels the next printable met.
        let mut tail = [' '; EVIDENCE_CHARS];
        let mut found = 0;
        let mut erased = 0;
        for key in applied_keys.take_while(|k| k.epoch == epoch) {
            match key.kind {
                KeyKind::Backspace => erased += 1,
                KeyKind::Print(_) if erased > 0 => erased -= 1,
                KeyKind::Print(ch) => {
                    found += 1;
                    tail[EVIDENCE_CHARS - found] = ch;
                    if found == EVIDENCE_CHARS {
                        break;
                    }
                }
                KeyKind::Enter | KeyKind::Other => break,
            }
        }
        let tail = &tail[EVIDENCE_CHARS - found..];
        let (row, col) = (frame.cursor.row, frame.cursor.col);
        if tail.iter().all(|ch| *ch == ' ') || col < found {
            return None;
        }
        let left = &frame.row(row).cells()[col - found..col];
        left.iter()
            .zip(tail)
            .all(|(cell, ch)| cell.ch() == *ch)
            .then_some(epoch)
    }

    /// Rule 2: lays the overlays of the keys ahead of `frame` out again
    /// from its cursor. The caller has checked that none of those keys
    /// belongs to an epoch confirmed before the frame arrived, whose
    /// overlays (`<= confirmed_before`) stay frozen until judged.
    fn re_anchor(&mut self, frame: &Framebuffer, applied: u64, confirmed_before: u64) {
        self.cells.retain(|p| !p.tentative(confirmed_before));
        if self.cursor.is_some_and(|c| c.tentative(confirmed_before)) {
            self.cursor = None;
        }
        for i in 0..self.keys.len() {
            let key = self.keys[i];
            if key.index <= applied {
                continue;
            }
            if self.at_margin(key.kind, frame) {
                // Typed live this would have begun an epoch; leave the
                // rest without overlays until a frame catches up.
                break;
            }
            self.lay_out(key, frame);
        }
    }

    /// Processes a newly arrived server frame with its two
    /// acknowledgments (see the module docs): `applied`, the input index
    /// the server had applied when it cut the frame, and `echo_ack`, the
    /// index whose effects the frame must show. Confirms epochs, culls
    /// confirmed and contradicted predictions, re-anchors the keys in
    /// flight, updates confidence.
    pub fn report_frame(
        &mut self,
        now: Millis,
        frame: &Framebuffer,
        applied: u64,
        echo_ack: u64,
        srtt: f64,
    ) {
        self.update_triggers(srtt);
        if self.resized(frame) {
            return;
        }
        // A server that caps its acknowledgments (checkpointing) can
        // report fewer applied than echo-acked; the latter implies the
        // former.
        let applied = applied.max(echo_ack);

        // Tentativeness is judged against the epoch confirmed *before*
        // this frame: a stale overlay of the epoch this very frame
        // confirms was never shown, and dies silently.
        let confirmed_before = self.confirmed_epoch;
        if let Some(epoch) = self.echo_evidence(frame, applied) {
            self.confirmed_epoch = epoch;
        }

        // Rule 3's second half: a later epoch-ending key the frame
        // already reflects makes a displayed mismatch unjudgeable.
        let keys = &self.keys;
        let mut mispredicted = 0u64;
        let mut overtaken = 0u64;
        let mut refute = |expiration: u64| {
            let passed = |k: &KeyInFlight| expiration < k.index && k.index <= applied;
            if keys.iter().any(|k| k.kind.ends_epoch() && passed(k)) {
                overtaken += 1;
            } else {
                mispredicted += 1;
            }
        };
        let mut confirmed = 0u64;
        let mut glitch_hits = 0u32;
        let mut quick_confirms = 0u32;
        self.cells
            .retain(|p| match p.validity(frame, applied, echo_ack) {
                Validity::Correct => {
                    confirmed += 1;
                    if now.saturating_sub(p.prediction_time) < GLITCH_THRESHOLD {
                        quick_confirms += 1;
                    }
                    false // Server now shows it; drop the overlay.
                }
                Validity::CorrectNoCredit => false,
                Validity::IncorrectOrExpired => {
                    // Tentative mispredictions die silently (they were
                    // never shown); displayed ones force a repair.
                    if !p.tentative(confirmed_before) && !p.unknown {
                        refute(p.expiration_index);
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
        if let Some(c) = self.cursor {
            match c.validity(frame, applied, echo_ack) {
                Validity::Pending => {}
                Validity::IncorrectOrExpired if !c.tentative(confirmed_before) => {
                    refute(c.expiration_index);
                    self.cursor = None;
                }
                _ => self.cursor = None,
            }
        }
        self.stats.confirmed += confirmed;
        self.stats.mispredicted += mispredicted;
        self.stats.overtaken += overtaken;

        while self.keys.front().is_some_and(|k| k.index <= echo_ack) {
            self.keys.pop_front();
        }
        if self
            .keys
            .iter()
            .all(|k| k.index <= applied || k.epoch > confirmed_before)
        {
            self.re_anchor(frame, applied, confirmed_before);
        }

        // Confidence bookkeeping: long-pending predictions engage the
        // glitch trigger; quick confirmations repair it.
        if glitch_hits > 0 {
            self.glitch_trigger = GLITCH_REPAIR_COUNT;
        } else {
            self.glitch_trigger = self.glitch_trigger.saturating_sub(quick_confirms);
        }

        if mispredicted > 0 {
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
                let mut attrs = cell.attrs();
                attrs.underline = true;
                cell.set_attrs(attrs);
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

impl KeyInFlight {
    fn predicts_cell(
        &self,
        row: usize,
        col: usize,
        replacement: Cell,
        unknown: bool,
    ) -> CellPrediction {
        CellPrediction {
            row,
            col,
            replacement,
            unknown,
            tentative_until_epoch: self.epoch,
            expiration_index: self.index,
            prediction_time: self.time,
        }
    }

    fn predicts_cursor(&self, row: usize, col: usize) -> CursorPrediction {
        CursorPrediction {
            row,
            col,
            tentative_until_epoch: self.epoch,
            expiration_index: self.index,
            prediction_time: self.time,
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
        e.report_frame(400, &confirmed, 1, 1, SLOW);
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
        assert_eq!(display.cell(0, 3).ch(), 'l');
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
        e.report_frame(10, &confirmed, 1, 1, FAST);
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
        assert_eq!(display.cell(0, 3).ch(), 'q');

        // Server disagrees: the app swallowed the keystroke (e.g. passwd).
        let server = frame(b"$ x");
        e.report_frame(900, &server, 2, 2, SLOW);
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
        e.report_frame(300, &fb, 0, 0, 25.0);
        assert!(e.engaged(), "glitch trigger must engage display");
    }

    #[test]
    fn underline_flags_on_high_latency() {
        let base = frame(b"$ ");
        let mut e = PredictionEngine::new(DisplayPreference::Adaptive);
        e.new_user_input(0, 200.0, b"x", &base, 1);
        let mut confirmed = frame(b"$ x");
        confirmed.cursor.col = 3;
        e.report_frame(400, &confirmed, 1, 1, 200.0);
        e.new_user_input(500, 200.0, b"y", &confirmed, 2);
        let mut display = confirmed.clone();
        e.apply(&mut display);
        assert!(
            display.cell(0, 3).attrs().underline,
            "unconfirmed predictions underline on slow links"
        );
    }

    #[test]
    fn no_underline_on_moderate_latency() {
        let base = frame(b"$ ");
        let mut e = confident_engine(&base); // srtt 200 → flagging on
                                             // Drop to 60 ms: flagging hysteresis keeps it on until < 50.
        e.report_frame(600, &frame(b"$ x"), 1, 1, 40.0);
        let fb = frame(b"$ x");
        e.new_user_input(700, 40.0, b"y", &fb, 2);
        let mut display = fb.clone();
        e.apply(&mut display);
        // srtt_trigger hysteresis: still engaged (40 > 20) from before.
        assert_eq!(display.cell(0, 3).ch(), 'y');
        assert!(!display.cell(0, 3).attrs().underline);
    }

    #[test]
    fn resize_resets_predictions() {
        let base = frame(b"$ ");
        let mut e = confident_engine(&base);
        let fb = frame(b"$ x");
        e.new_user_input(500, SLOW, b"y", &fb, 2);
        let mut small = Terminal::new(20, 4);
        small.write(b"$ x");
        e.report_frame(600, small.frame(), 2, 2, SLOW);
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
        assert_eq!(display.cell(0, 3).ch(), 'Z');
        assert_eq!(display.cell(0, 4).ch(), 'a');
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

    /// Types `keys` one after the other from `first_index` on, all
    /// against `fb`; returns whether the last one was shown.
    fn type_keys(
        e: &mut PredictionEngine,
        fb: &Framebuffer,
        first_index: u64,
        keys: &[&[u8]],
    ) -> bool {
        let mut shown = false;
        for (i, key) in keys.iter().enumerate() {
            let i = i as u64;
            shown = e.new_user_input(500 + 10 * i, SLOW, key, fb, first_index + i);
        }
        shown
    }

    fn displayed(e: &PredictionEngine, fb: &Framebuffer) -> Framebuffer {
        let mut display = fb.clone();
        e.apply(&mut display);
        display
    }

    #[test]
    fn only_what_was_laid_out_counts_as_predicted() {
        // A backspace with nothing left of the cursor.
        let fb = frame(b"");
        let mut e = PredictionEngine::new(DisplayPreference::Adaptive);
        assert!(!e.new_user_input(0, SLOW, b"\x7f", &fb, 1));
        assert_eq!((e.stats().predicted, e.stats().unpredicted), (0, 1));
        assert!(e.cells.is_empty() && e.cursor.is_none());

        // A character with the working cursor off the frame.
        e.cursor = Some(CursorPrediction {
            row: 99,
            col: 0,
            tentative_until_epoch: e.prediction_epoch,
            expiration_index: 1,
            prediction_time: 0,
        });
        assert!(!e.new_user_input(10, SLOW, b"a", &fb, 2));
        assert_eq!((e.stats().predicted, e.stats().unpredicted), (0, 2));
        assert!(e.cells.is_empty());
    }

    #[test]
    fn a_stale_overlay_of_the_epoch_a_frame_confirms_dies_silently() {
        let mut e = confident_engine(&frame(b"$ "));
        // `y ENTER c` typed ahead: `c` is laid out at the start of the next
        // row, where the command's output will go instead.
        let fb = frame(b"$ x");
        type_keys(&mut e, &fb, 2, &[b"y", b"\r", b"c"]);
        let epoch = e.prediction_epoch;
        // The prompt frame shows `c` behind the prompt and echo-acks it,
        // so the stale overlay is judged in the frame that confirms its
        // epoch.
        let prompt = frame(b"$ xy\r\nxy: command not found\r\n$ c");
        e.report_frame(900, &prompt, 4, 4, SLOW);
        assert_eq!(e.stats().mispredicted, 0, "never shown, so never wrong");
        assert_eq!(e.prediction_epoch, epoch, "and no reset");
        assert_eq!(displayed(&e, &prompt), prompt);
        // `c`'s successor is shown at once, behind it.
        assert!(type_keys(&mut e, &prompt, 5, &[b"a"]));
        assert_eq!(displayed(&e, &prompt).row_text(2), "$ ca");
    }

    #[test]
    fn type_ahead_after_enter_is_displayed_once_the_prompt_frame_shows_some_of_it() {
        let mut e = confident_engine(&frame(b"$ "));
        let fb = frame(b"$ x");
        assert!(type_keys(&mut e, &fb, 2, &[b"y"]));
        assert!(!type_keys(&mut e, &fb, 3, &[b"\r", b"c", b"a"]));

        // A frame from before the ENTER: the type-ahead stays hidden.
        let before = frame(b"$ xy");
        e.report_frame(800, &before, 2, 2, SLOW);
        assert_eq!(displayed(&e, &before), before);

        // The prompt frame reflects `c`; `a` is still in flight and is
        // laid out again behind it.
        let prompt = frame(b"$ xy\r\nxy: command not found\r\n$ c");
        e.report_frame(900, &prompt, 4, 3, SLOW);
        let display = displayed(&e, &prompt);
        assert_eq!(display.row_text(2), "$ ca");
        assert_eq!((display.cursor.row, display.cursor.col), (2, 4));

        // From the first key typed after that frame, everything shows.
        assert!(type_keys(&mut e, &prompt, 6, &[b"t"]));
        assert_eq!(displayed(&e, &prompt).row_text(2), "$ cat");
        assert_eq!(e.stats().mispredicted, 0);
    }

    #[test]
    fn an_epoch_that_is_never_echoed_never_confirms_and_never_paints() {
        let mut e = confident_engine(&frame(b"$ "));
        let fb = frame(b"$ x");
        type_keys(&mut e, &fb, 2, &[b"\r"]);
        let confirmed = e.confirmed_epoch;
        // `passwd`-style: the prompt arrives, the answer is not echoed.
        let asking = frame(b"$ x\r\nNew password: ");
        e.report_frame(800, &asking, 2, 2, SLOW);
        for (i, key) in [b"s", b"e", b"c"].iter().enumerate() {
            let index = 3 + i as u64;
            assert!(!e.new_user_input(900 + 400 * index, SLOW, *key, &asking, index));
            assert_eq!(displayed(&e, &asking), asking);
            // Applied first, echo-acked a frame later; neither shows it.
            e.report_frame(1000 + 400 * index, &asking, index, index - 1, SLOW);
            assert_eq!(displayed(&e, &asking), asking);
            e.report_frame(1200 + 400 * index, &asking, index, index, SLOW);
            assert_eq!(displayed(&e, &asking), asking);
        }
        assert_eq!(e.confirmed_epoch, confirmed);
        assert_eq!(e.stats().mispredicted, 0);
        assert!(e.keys.is_empty(), "echo-acked keys are let go");
    }

    #[test]
    fn insert_after_escape_confirms_on_the_second_echoed_character() {
        let mut e = confident_engine(&frame(b"$ "));
        // An editor line with the cursor behind "fn x".
        let text = |typed: &str| frame(format!("fn x{typed}").as_bytes());
        let fb = text("");
        assert!(!type_keys(&mut e, &fb, 2, &[b"\x1b", b"i", b"a", b"b"]));
        let confirmed = e.confirmed_epoch;

        // ESC and `i` switch modes and print nothing.
        e.report_frame(900, &fb, 3, 2, SLOW);
        assert_eq!(e.confirmed_epoch, confirmed);
        // One echoed character: "ia" does not stand left of the cursor.
        e.report_frame(1000, &text("a"), 4, 3, SLOW);
        assert_eq!(e.confirmed_epoch, confirmed, "`i` was not echoed");
        assert_eq!(displayed(&e, &text("a")), text("a"));
        // The second: "ab" does.
        e.report_frame(1100, &text("ab"), 5, 4, SLOW);
        assert!(e.confirmed_epoch > confirmed);
        assert!(type_keys(&mut e, &text("ab"), 6, &[b"c"]));
        assert_eq!(displayed(&e, &text("ab")).row_text(0), "fn xabc");
        assert_eq!(e.stats().mispredicted, 0);
    }

    #[test]
    fn blanks_alone_confirm_nothing() {
        let mut e = confident_engine(&frame(b"$ "));
        let fb = frame(b"$ x");
        type_keys(&mut e, &fb, 2, &[b"\x1b[A", b" "]);
        let confirmed = e.confirmed_epoch;
        // History recalled a shorter line; a blank stands left of the
        // cursor whether or not the space was echoed.
        let mut recalled = frame(b"$  ");
        recalled.cursor.col = 3;
        e.report_frame(900, &recalled, 3, 3, SLOW);
        assert_eq!(e.confirmed_epoch, confirmed);
    }

    #[test]
    fn a_match_is_retired_as_soon_as_it_is_applied() {
        let mut e = confident_engine(&frame(b"$ "));
        let fb = frame(b"$ x");
        assert!(type_keys(&mut e, &fb, 2, &[b"y"]));
        // Applied and on the screen, 50 ms before the echo ack says so.
        e.report_frame(900, &frame(b"$ xy"), 2, 1, SLOW);
        assert_eq!(e.stats().confirmed, 2);
        assert!(e.cells.is_empty() && e.cursor.is_none());
    }

    #[test]
    fn a_prediction_a_later_enter_overtook_is_dropped_unjudged() {
        let mut e = confident_engine(&frame(b"$ "));
        let fb = frame(b"$ x");
        assert!(type_keys(&mut e, &fb, 2, &[b"y"]));
        type_keys(&mut e, &fb, 3, &[b"\r"]);
        let epoch = e.prediction_epoch;
        // One frame carries both: the line `y` was typed on has been
        // cleared away by what the ENTER ran.
        let cleared = frame(b"$ xy\r\n\x1b[2J\x1b[H$ ");
        e.report_frame(900, &cleared, 3, 3, SLOW);
        assert_eq!(e.stats().overtaken, 1);
        assert_eq!(e.stats().mispredicted, 0);
        assert_eq!(e.prediction_epoch, epoch, "no reset");

        // Without the ENTER the same mismatch is a misprediction.
        let mut e = confident_engine(&frame(b"$ "));
        assert!(type_keys(&mut e, &fb, 2, &[b"y"]));
        e.report_frame(900, &frame(b"$ x"), 2, 2, SLOW);
        assert_eq!(e.stats().overtaken, 0);
        assert!(e.stats().mispredicted > 0);
    }

    mod interleavings {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Step {
            Key(&'static [u8]),
            /// The server applies `advance` more keys and cuts a frame
            /// whose echo ack trails by `lag`.
            Frame {
                advance: u64,
                lag: u64,
            },
        }

        fn step() -> impl Strategy<Value = Step> {
            let key = |k: &'static [u8]| Just(Step::Key(k)).boxed();
            prop_oneof![
                key(b"a"),
                key(b"b"),
                key(b"a"),
                key(b"c"),
                key(b" "),
                key(b"\x7f"),
                key(b"\r"),
                key(b"\x1b[A"),
                (0u64..4, 0u64..3)
                    .prop_map(|(advance, lag)| Step::Frame { advance, lag })
                    .boxed(),
                (0u64..4, 0u64..3)
                    .prop_map(|(advance, lag)| Step::Frame { advance, lag })
                    .boxed(),
            ]
        }

        /// A line shell that echoes: what the server's screen holds once
        /// it has applied `keys`.
        fn echoed(keys: &[&[u8]]) -> Framebuffer {
            let mut t = Terminal::new(40, 8);
            let mut line = 0usize;
            t.write(b"$ ");
            for key in keys {
                match *key {
                    b"\r" => {
                        line = 0;
                        t.write(b"\r\n$ ");
                    }
                    b"\x7f" if line > 0 => {
                        line -= 1;
                        t.write(b"\x08 \x08");
                    }
                    [b] if *b >= 0x20 && *b != 0x7f => {
                        line += 1;
                        t.write(key);
                    }
                    _ => {}
                }
            }
            t.frame().clone()
        }

        proptest! {
            #[test]
            fn nothing_tentative_is_painted_and_a_frame_told_twice_changes_nothing(
                steps in proptest::collection::vec(step(), 1..60),
            ) {
                let mut e = PredictionEngine::new(DisplayPreference::Always);
                let mut typed: Vec<&[u8]> = Vec::new();
                let (mut applied, mut echo_ack) = (0u64, 0u64);
                let mut fb = echoed(&[]);
                for (i, step) in steps.iter().enumerate() {
                    let now = 100 * i as u64;
                    match step {
                        Step::Key(key) => {
                            typed.push(key);
                            e.new_user_input(now, SLOW, key, &fb, typed.len() as u64);
                        }
                        Step::Frame { advance, lag } => {
                            applied = (applied + advance).min(typed.len() as u64);
                            echo_ack = echo_ack.max(applied.saturating_sub(*lag));
                            fb = echoed(&typed[..applied as usize]);
                            e.report_frame(now, &fb, applied, echo_ack, SLOW);
                            let once = format!("{e:?}");
                            e.report_frame(now, &fb, applied, echo_ack, SLOW);
                            prop_assert_eq!(&once, &format!("{e:?}"));
                        }
                    }
                    let display = displayed(&e, &fb);
                    for row in 0..fb.height() {
                        for col in 0..fb.width() {
                            if display.cell(row, col) != fb.cell(row, col) {
                                prop_assert!(e.cells.iter().any(|p| {
                                    (p.row, p.col) == (row, col) && !p.tentative(e.confirmed_epoch)
                                }));
                            }
                        }
                    }
                    if display.cursor != fb.cursor {
                        prop_assert!(e.cursor.is_some_and(|c| !c.tentative(e.confirmed_epoch)));
                    }
                    prop_assert!(e.keys.iter().all(|k| k.index > echo_ack));
                }
            }
        }
    }
}
