//! Speculative local echo — the Mosh paper's §3.2.
//!
//! The client guesses the effect of each keystroke on the screen and, when
//! confident, displays the guess immediately rather than waiting a round
//! trip. Predictions are grouped into **epochs** ("either all of the
//! predictions in an epoch will be correct, or none will"): an epoch
//! begins tentatively, making predictions only in the background, and is
//! revealed the moment a server frame shows what the epoch's keystrokes
//! typed standing left of its cursor. Keystrokes that tend to change the
//! host's echo behaviour — up/down arrows, control characters, carriage
//! returns — end the current epoch.
//!
//! Refutation uses the server-side **echo ack** (§3.2): the terminal
//! state that arrives from the server carries the index of the newest
//! keystroke whose effects must already be on the screen, so network
//! jitter can never produce false-negative flicker. Confirmation may come
//! sooner, from the second acknowledgment SSP carries with every frame:
//! how much of the input the server had applied when it cut it.
//!
//! [`PredictionEngine`] is a pure state machine: feed it user keystrokes
//! and arriving server frames with their two acknowledgments, then let it
//! [`PredictionEngine::apply`] its overlays onto a copy of the frame for
//! display. It keeps the keystrokes still in flight, so after every frame
//! the overlays of an unconfirmed epoch are laid out afresh from where
//! that frame's cursor stands (see [`engine`]).

pub mod engine;
pub mod overlay;

pub use engine::{DisplayPreference, PredictionEngine, PredictionStats};
pub use overlay::Validity;

/// Virtual time in milliseconds.
pub type Millis = u64;
