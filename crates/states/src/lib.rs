//! Concrete SSP state objects: user input streams and terminal screens.
//!
//! The Mosh system runs SSP in each direction, "instantiated on two
//! different kinds of objects" (paper §2):
//!
//! * [`user::UserStream`] — client→server: the history of the user's
//!   input. Diffs contain **every** intervening keystroke; nothing may be
//!   skipped.
//! * [`complete::CompleteTerminal`] — server→client: the contents of the
//!   terminal window plus the server's 50 ms echo acknowledgment. Diffs
//!   are minimal repaints; intermediate frames are skipped freely.
//!
//! Both implement [`mosh_ssp::SyncState`] and uphold its round-trip law,
//! which the property tests in `tests/` exercise with randomized inputs.

pub mod complete;
pub mod user;

pub use complete::CompleteTerminal;
pub use user::{UserEvent, UserStream};
