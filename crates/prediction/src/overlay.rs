//! Conditional overlays: predictions awaiting confirmation.
//!
//! Each prediction remembers the index its keystroke has in the user's
//! input stream and the epoch it belongs to. Two acknowledgments judge it
//! (see [`crate::engine`]): the *applied index* of a frame can confirm a
//! prediction — the server had the keystroke and the frame shows the
//! predicted character — and only the *echo ack* can refute one, since
//! until then the application may simply not have answered yet. Until the
//! epoch is confirmed the prediction exists only in the background and is
//! never painted (paper §3.2).

use crate::Millis;
use mosh_terminal::{Cell, Framebuffer};

/// The outcome of validating a prediction against an arriving frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Validity {
    /// The server's screen shows exactly what we predicted.
    Correct,
    /// The keystroke is echo-acked but this cell counts for nothing (its
    /// content was a guess about shifted text, not an echo).
    CorrectNoCredit,
    /// The server's screen contradicts the prediction (or it expired).
    IncorrectOrExpired,
    /// Neither acknowledgment can judge the prediction yet.
    Pending,
}

/// A predicted character cell.
#[derive(Debug, Clone)]
pub struct CellPrediction {
    /// Screen row.
    pub row: usize,
    /// Screen column.
    pub col: usize,
    /// What we predict the server will put here.
    pub replacement: Cell,
    /// True when the content is a guess about displaced text rather than a
    /// real echo: never displayed, never counted.
    pub unknown: bool,
    /// The prediction is hidden until this epoch is confirmed.
    pub tentative_until_epoch: u64,
    /// Length of the user stream with this prediction's keystroke in it:
    /// what the applied index and the echo ack are compared against.
    pub expiration_index: u64,
    /// When the prediction was made (glitch detection).
    pub prediction_time: Millis,
}

impl CellPrediction {
    /// True while the prediction's epoch is unconfirmed.
    pub fn tentative(&self, confirmed_epoch: u64) -> bool {
        self.tentative_until_epoch > confirmed_epoch
    }

    /// Judges this prediction against a server frame cut with `applied`
    /// inputs handed to the application and `echo_ack` of them certain to
    /// show.
    pub fn validity(&self, frame: &Framebuffer, applied: u64, echo_ack: u64) -> Validity {
        if self.row >= frame.height() || self.col >= frame.width() {
            return Validity::IncorrectOrExpired;
        }
        let shown = frame.cell(self.row, self.col).ch() == self.replacement.ch();
        judge(
            self.expiration_index,
            applied,
            echo_ack,
            shown,
            self.unknown,
        )
    }
}

/// A predicted cursor position.
#[derive(Debug, Clone, Copy)]
pub struct CursorPrediction {
    /// Predicted row.
    pub row: usize,
    /// Predicted column.
    pub col: usize,
    /// Hidden until this epoch confirms.
    pub tentative_until_epoch: u64,
    /// Length of the user stream with this prediction's keystroke in it.
    pub expiration_index: u64,
    /// When the prediction was made.
    pub prediction_time: Millis,
}

impl CursorPrediction {
    /// True while the prediction's epoch is unconfirmed.
    pub fn tentative(&self, confirmed_epoch: u64) -> bool {
        self.tentative_until_epoch > confirmed_epoch
    }

    /// Judges the cursor prediction against a server frame (see
    /// [`CellPrediction::validity`]).
    pub fn validity(&self, frame: &Framebuffer, applied: u64, echo_ack: u64) -> Validity {
        if self.row >= frame.height() || self.col >= frame.width() {
            return Validity::IncorrectOrExpired;
        }
        let shown = frame.cursor.row == self.row && frame.cursor.col == self.col;
        judge(self.expiration_index, applied, echo_ack, shown, false)
    }
}

/// The one rule both kinds of overlay are judged by: a match counts as
/// soon as the server has applied the keystroke, a mismatch only once the
/// echo ack says the application has had its 50 ms.
fn judge(expiration: u64, applied: u64, echo_ack: u64, shown: bool, unknown: bool) -> Validity {
    let acked = echo_ack >= expiration;
    if unknown {
        return if acked {
            Validity::CorrectNoCredit
        } else {
            Validity::Pending
        };
    }
    if shown && (acked || applied >= expiration) {
        Validity::Correct
    } else if acked {
        Validity::IncorrectOrExpired
    } else {
        Validity::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosh_terminal::{Attrs, Terminal};

    fn frame_with(text: &str) -> Framebuffer {
        let mut t = Terminal::new(20, 5);
        t.write(text.as_bytes());
        t.frame().clone()
    }

    fn prediction(row: usize, col: usize, ch: char, expiration: u64) -> CellPrediction {
        CellPrediction {
            row,
            col,
            replacement: Cell::narrow(ch, Attrs::default()),
            unknown: false,
            tentative_until_epoch: 0,
            expiration_index: expiration,
            prediction_time: 0,
        }
    }

    #[test]
    fn pending_until_echo_ack_reaches_keystroke() {
        let f = frame_with("x");
        let p = prediction(0, 0, 'x', 5);
        assert_eq!(p.validity(&f, 4, 4), Validity::Pending);
        assert_eq!(p.validity(&f, 5, 5), Validity::Correct);
    }

    #[test]
    fn applied_index_confirms_a_match_but_never_refutes() {
        let p = prediction(0, 0, 'x', 5);
        assert_eq!(p.validity(&frame_with("x"), 5, 4), Validity::Correct);
        // The application may just not have answered yet.
        assert_eq!(p.validity(&frame_with("y"), 5, 4), Validity::Pending);
        assert_eq!(
            p.validity(&frame_with("y"), 5, 5),
            Validity::IncorrectOrExpired
        );
        let mut guess = prediction(0, 0, 'x', 5);
        guess.unknown = true;
        assert_eq!(guess.validity(&frame_with("x"), 5, 4), Validity::Pending);
    }

    #[test]
    fn mismatch_is_incorrect_once_acked() {
        let f = frame_with("y");
        let p = prediction(0, 0, 'x', 1);
        assert_eq!(p.validity(&f, 0, 0), Validity::Pending);
        assert_eq!(p.validity(&f, 1, 1), Validity::IncorrectOrExpired);
    }

    #[test]
    fn unknown_cells_never_earn_credit() {
        let f = frame_with("ab");
        let mut p = prediction(0, 1, 'b', 1);
        p.unknown = true;
        assert_eq!(p.validity(&f, 1, 1), Validity::CorrectNoCredit);
    }

    #[test]
    fn out_of_bounds_is_incorrect() {
        let f = frame_with("");
        let p = prediction(99, 0, 'x', 0);
        assert_eq!(p.validity(&f, 10, 10), Validity::IncorrectOrExpired);
    }

    #[test]
    fn tentative_tracks_epochs() {
        let mut p = prediction(0, 0, 'x', 0);
        p.tentative_until_epoch = 3;
        assert!(p.tentative(2));
        assert!(!p.tentative(3));
    }

    #[test]
    fn cursor_prediction_validates_position() {
        let f = frame_with("ab"); // cursor at (0, 2)
        let good = CursorPrediction {
            row: 0,
            col: 2,
            tentative_until_epoch: 0,
            expiration_index: 1,
            prediction_time: 0,
        };
        assert_eq!(good.validity(&f, 0, 0), Validity::Pending);
        assert_eq!(good.validity(&f, 1, 0), Validity::Correct);
        let bad = CursorPrediction { col: 5, ..good };
        assert_eq!(bad.validity(&f, 1, 0), Validity::Pending);
        assert_eq!(bad.validity(&f, 1, 1), Validity::IncorrectOrExpired);
    }
}
