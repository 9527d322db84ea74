//! The State Synchronization Protocol (SSP) — the Mosh paper's primary
//! contribution (§2).
//!
//! SSP securely synchronizes the state of abstract objects between a local
//! node, which controls the object, and a remote host that may be only
//! intermittently connected, roaming between IP addresses, or stuck behind
//! a lossy path. It is organized exactly as the paper describes:
//!
//! * **Datagram layer** ([`datagram`]) — AES-OCB-encrypted UDP payloads
//!   with incrementing sequence numbers, 16-bit timestamps, adjusted
//!   timestamp echoes, and RFC 6298 RTT estimation with a 50 ms RTO floor.
//! * **Transport layer** ([`sender`], [`receiver`], [`transport`]) —
//!   numbered state snapshots, diff-based [`instruction`]s, frame-rate
//!   control at `SRTT/2` (20–250 ms), an 8 ms collection interval (1 ms on
//!   the client), 100 ms delayed acks, 3 s heartbeats, MTU [`fragment`]ation
//!   of each instruction after it is compressed, as Mosh compresses
//!   with zlib (here an LZ77 block without an entropy coder).
//! * **Object interface** ([`state::SyncState`]) — the protocol is
//!   agnostic to what it synchronizes; diffs are object-defined.
//!
//! The whole protocol is a pure state machine over caller-supplied virtual
//! time: no sockets, no threads, no clocks. That is what lets the paper's
//! evaluation replay 40 hours of traces in seconds, deterministically.
//!
//! # Examples
//!
//! ```
//! use mosh_crypto::{session::Direction, Base64Key};
//! use mosh_ssp::state::BlobState;
//! use mosh_ssp::transport::Transport;
//!
//! let key = Base64Key::random();
//! let init = BlobState(Vec::new());
//! let mut client: Transport<BlobState, BlobState> =
//!     Transport::new(key.clone(), Direction::ToServer, init.clone(), init.clone());
//! let mut server: Transport<BlobState, BlobState> =
//!     Transport::new(key, Direction::ToClient, init.clone(), init);
//!
//! // The client's object changes; SSP ships a diff after the collection
//! // interval and frame gate have elapsed.
//! client.set_current_state(BlobState(b"typed: ls".to_vec()), 0);
//! let mut delivered = false;
//! for now in 0..2000 {
//!     for wire in client.tick(now) {
//!         delivered |= server.receive(now, &wire).unwrap().remote_advanced;
//!     }
//!     for wire in server.tick(now) {
//!         client.receive(now, &wire).unwrap();
//!     }
//! }
//! assert!(delivered);
//! assert_eq!(server.remote_state().0, b"typed: ls");
//! ```

pub mod datagram;
pub mod fragment;
pub mod instruction;
mod lz;
pub mod receiver;
pub mod rtt;
pub mod sender;
pub mod state;
pub mod transport;

pub use state::{StateError, SyncState};
pub use transport::{ReceiveEvent, Transport};

/// Virtual time in milliseconds (the caller supplies every clock reading).
pub type Millis = u64;

/// Errors surfaced by the protocol layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SspError {
    /// The datagram failed authentication or was structurally invalid.
    Crypto(mosh_crypto::CryptoError),
    /// A payload could not be parsed.
    Malformed,
    /// The peer speaks a different protocol version.
    VersionMismatch,
    /// A state diff failed to apply.
    State(StateError),
}

impl std::fmt::Display for SspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SspError::Crypto(e) => write!(f, "datagram rejected: {e}"),
            SspError::Malformed => write!(f, "malformed payload"),
            SspError::VersionMismatch => write!(f, "protocol version mismatch"),
            SspError::State(e) => write!(f, "state error: {e}"),
        }
    }
}

impl std::error::Error for SspError {}

impl From<mosh_crypto::CryptoError> for SspError {
    fn from(e: mosh_crypto::CryptoError) -> Self {
        SspError::Crypto(e)
    }
}

impl From<StateError> for SspError {
    fn from(e: StateError) -> Self {
        SspError::State(e)
    }
}
