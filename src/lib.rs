//! # mosh-rs — a Rust reproduction of Mosh (the mobile shell)
//!
//! This crate re-exports the full system described in *Mosh: An
//! Interactive Remote Shell for Mobile Clients* (Winstein & Balakrishnan,
//! USENIX ATC 2012):
//!
//! * [`ssp`] — the State Synchronization Protocol: encrypted, roaming,
//!   diff-based object synchronization over UDP datagrams (paper §2).
//! * [`terminal`] — the ECMA-48 character-cell emulator and frame differ
//!   (paper §3.1).
//! * [`prediction`] — speculative local echo with epochs and server echo
//!   acks (paper §3.2).
//! * [`core`] — client/server sessions and the hosted applications.
//! * [`net`] — the discrete-event network emulator used for evaluation.
//! * [`tcp`] / [`ssh`] — the TCP substrate and SSH baseline.
//! * [`trace`] — six-user keystroke traces, replay, and statistics (§4).
//! * [`crypto`] — AES-128-OCB authenticated encryption (§2.2).
//!
//! The I/O seam is the [`net::Channel`] trait: the same `MoshClient` /
//! `MoshServer` state machines run over [`net::SimChannel`] (the
//! discrete-event emulator, virtual time) and [`net::UdpChannel`] (a real
//! socket, wall-clock time) — the paper's §2 design claim, executable.
//! One event loop, [`core::ServerHub`], drives any number of sessions
//! over either substrate, stepping straight to the next timer or delivery
//! instead of polling every millisecond, and reports
//! [`core::SessionEvent`]s (`FrameAdvanced`, `Roamed`, `PeerTimeout`,
//! ...). A [`core::SessionLoop`] is that hub with one session on a
//! dedicated channel.
//!
//! # Quickstart
//!
//! ```
//! use mosh::core::{LineShell, MoshClient, MoshServer, Party, SessionLoop};
//! use mosh::crypto::Base64Key;
//! use mosh::net::{Addr, LinkConfig, Network, Side, SimChannel};
//! use mosh::prediction::DisplayPreference;
//!
//! // A shared key, exactly like `mosh-server` prints during bootstrap.
//! let key = Base64Key::random();
//!
//! // An emulated mobile network path. (Swap `SimChannel` for
//! // `UdpChannel::bind("127.0.0.1:0")` and the same session runs over
//! // real sockets — see `examples/udp_pair.rs`.)
//! let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), 7);
//! let (c, s) = (Addr::new(1, 1000), Addr::new(2, 60001));
//! net.register(c, Side::Client);
//! net.register(s, Side::Server);
//!
//! let mut client = MoshClient::new(key.clone(), s, 80, 24, DisplayPreference::Adaptive);
//! let mut server = MoshServer::new(key, Box::new(LineShell::new()));
//!
//! // Run both endpoints for half a virtual second: the loop steps from
//! // event to event (keystrokes, frames, acks), not millisecond to
//! // millisecond, and the schedule is identical either way.
//! let mut session = SessionLoop::new(SimChannel::new(net));
//! let events = session.pump_until(
//!     &mut [Party::new(c, &mut client), Party::new(s, &mut server)],
//!     500,
//! );
//! assert_eq!(client.server_frame().row_text(0), "$");
//! assert!(!events.is_empty(), "the prompt arrived in a frame event");
//!
//! // Type a keystroke, then let the session settle.
//! client.keystroke(session.now(), b"l");
//! session.pump_until(
//!     &mut [Party::new(c, &mut client), Party::new(s, &mut server)],
//!     1000,
//! );
//! assert_eq!(client.server_frame().row_text(0), "$ l");
//! ```

pub use mosh_core as core;
pub use mosh_crypto as crypto;
pub use mosh_net as net;
pub use mosh_prediction as prediction;
pub use mosh_ssh as ssh;
pub use mosh_ssp as ssp;
pub use mosh_states as states;
pub use mosh_tcp as tcp;
pub use mosh_terminal as terminal;
pub use mosh_trace as trace;
