//! Mosh sessions: the client and server endpoints, and the applications
//! the server hosts.
//!
//! This crate ties the substrates together into the system of the paper:
//!
//! * [`client::MoshClient`] — sends every keystroke through SSP, overlays
//!   speculative echoes on the newest server frame (§3).
//! * [`server::MoshServer`] — hosts an [`apps::Application`], owns the
//!   authoritative terminal, maintains the 50 ms echo ack (§3.2), and
//!   re-targets roaming clients (§2.2).
//! * [`apps`] — deterministic models of the application classes in the
//!   paper's traces: shell, full-screen editor, pager, mail reader, and a
//!   runaway flood for the Control-C experiment.
//! * [`session`] — what a session is made of: the [`session::Endpoint`]
//!   contract, the [`session::Party`] that binds one to an address,
//!   typed [`session::SessionEvent`]s, and [`session::SessionLoop`] — a
//!   [`hub::ServerHub`] of one session over a dedicated
//!   `mosh_net::Channel` (simulator or live UDP).
//! * [`hub`] — the session runtime, in two layers: [`hub::ServerHub`]
//!   is the one event loop, stepping each session by
//!   `min(next_wakeup, next_event_time)`; it drives any number of them
//!   behind one `mosh_net::Poller` with a timer wheel of wakeups and
//!   one slot of state per session, demultiplexing datagrams by address and falling back to
//!   cryptographic authentication when roaming makes addresses collide
//!   (§2.2); [`hub::ShardedHub`] spreads those hubs across worker
//!   threads — one private shard per core, sessions assigned at accept
//!   time and known by one hub-wide id on every shard, byte-identical
//!   per-session behavior at every shard count.
//!
//! Endpoints are I/O-free: `tick(now)` returns addressed datagrams and
//! `receive(now, ...)` consumes them, under any transport — the
//! discrete-event emulator in tests and benchmarks, or a real UDP socket.

pub mod apps;
pub mod client;
pub mod hub;
pub mod server;
pub mod session;

pub use apps::{AppHost, Application, Editor, LineShell, MailReader, Pager, TimedWrite};
pub use client::MoshClient;
pub use hub::{HubSession, HubStats, ServerHub, SessionId, ShardedHub, SnapshotError};
pub use server::{MoshServer, WriteObserver};
pub use session::{Endpoint, Party, SessionEvent, SessionLoop};

/// Virtual time in milliseconds.
pub type Millis = u64;
