//! A character-cell terminal emulator with frame diffing, as used by Mosh.
//!
//! The Mosh paper (§3.1) requires a terminal emulator on *both* ends of the
//! connection: the server applies application output to an authoritative
//! screen state, and the State Synchronization Protocol carries **frame
//! diffs** — not raw bytes — to the client. This crate provides:
//!
//! * [`Terminal`] — the emulator: an ECMA-48 / ISO 6429 interpreter covering
//!   the subset used by xterm, gnome-terminal, Terminal.app, and PuTTY.
//! * [`Framebuffer`] — the screen state: grid, cursor, title, bell, modes.
//! * [`display::new_frame`] — the differ: the minimal ANSI message that
//!   transforms one frame into another (paper §2.3).
//! * [`parser::Parser`] — the streaming escape-sequence state machine, a
//!   push parser driving a [`parser::Perform`] sink (the screen itself).
//!
//! # Examples
//!
//! ```
//! use mosh_terminal::{display, Terminal};
//!
//! // Server side: apply application output.
//! let mut server = Terminal::new(80, 24);
//! let snapshot = server.frame().clone();
//! server.write(b"Welcome!\r\n$ ");
//!
//! // Wire: only the difference travels.
//! let diff = display::new_frame(true, &snapshot, server.frame());
//!
//! // Client side: apply the diff, converging on the server's screen.
//! let mut client = Terminal::new(80, 24);
//! client.write(diff.as_bytes());
//! assert_eq!(client.frame(), server.frame());
//! ```

pub mod cell;
pub mod charset;
pub mod display;
pub mod emulator;
pub mod framebuffer;
pub mod parser;
pub mod utf8;
pub mod width;
mod wirefmt;

pub use cell::{Attrs, Cell, Color};
pub use emulator::Terminal;
pub use framebuffer::{Cursor, Framebuffer, Row};
