//! The abstract state-object interface SSP synchronizes.
//!
//! SSP is "agnostic to the type of objects sent and received" (paper §2.3):
//! the transport moves *diffs between numbered states*, and the object
//! implementation defines what a diff means. Mosh instantiates the protocol
//! twice — user-input streams (client→server) and terminal screens
//! (server→client) — both defined in the `mosh-states` crate.

use mosh_wire::{put_bytes, Reader};

/// Errors raised by state objects when applying diffs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateError {
    /// The diff is syntactically malformed.
    Malformed,
    /// The diff does not apply to this source state (harness bug or
    /// protocol violation; SSP's numbering should prevent this).
    WrongSource,
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Malformed => write!(f, "malformed state diff"),
            StateError::WrongSource => write!(f, "diff applied to wrong source state"),
        }
    }
}

impl std::error::Error for StateError {}

/// An object whose state SSP can synchronize to a remote host.
///
/// Implementations must uphold the **round-trip law**: for any two states
/// `a`, `b` reachable in one session,
///
/// ```text
/// { let mut x = a.clone(); x.apply_diff(&b.diff_from(&a))?; x }  ≡  b
/// ```
///
/// where `≡` is [`SyncState::equivalent`]. SSP relies on this to skip
/// intermediate states: a diff is always a fast-forward from *any* known
/// state, not a log of everything that happened.
pub trait SyncState: Clone {
    /// True when [`SyncState::subtract`] actually reclaims memory for
    /// this type. The sender and the receiver consult it to skip the
    /// snapshot clones the subtraction pass needs: for states whose
    /// `subtract` is the default no-op (terminal screens), pruning shared
    /// history would clone whole snapshots for nothing on every ack and
    /// every receive.
    const SUBTRACTS: bool = false;

    /// Computes the logical diff that transforms `source` into `self`.
    ///
    /// The semantics are object-defined (paper §2.3): user-input streams
    /// include *every* intervening keystroke; screen states send only the
    /// minimal repaint.
    fn diff_from(&self, source: &Self) -> Vec<u8>;

    /// Applies a diff produced by [`SyncState::diff_from`].
    fn apply_diff(&mut self, diff: &[u8]) -> Result<(), StateError>;

    /// A self-contained diff that transforms *any* state of this type into
    /// `self`, regardless of what the receiver actually holds.
    ///
    /// Ordinary diffs assume the receiver has the named source state. After
    /// crash recovery the sender may adopt a state *number* the peer
    /// acknowledged without knowing the bytes behind it (they were produced
    /// after the checkpoint and lost with the crash); the first diff sent
    /// from such a state must therefore carry everything — a full repaint
    /// for terminals, the whole retained event window for input streams.
    fn full_diff(&self) -> Vec<u8>;

    /// Appends the whole state for a session snapshot. Unlike a diff this
    /// is everything a restored endpoint needs to behave identically from
    /// here on, including what the peer never sees.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Reads a state written by [`SyncState::encode_into`]; `None` on any
    /// structural violation.
    fn decode(r: &mut Reader<'_>) -> Option<Self>;

    /// True if two states are interchangeable for synchronization purposes
    /// (no diff needs to be sent between them).
    fn equivalent(&self, other: &Self) -> bool;

    /// Discards the portion of history covered by `prefix`, which both ends
    /// are known to share. Memory reclamation only — must never change what
    /// [`SyncState::diff_from`] produces, nor what [`SyncState::apply_diff`]
    /// makes of a diff. Defaults to a no-op.
    fn subtract(&mut self, _prefix: &Self) {}
}

/// A trivial byte-blob state used by the SSP unit tests: the diff is the
/// whole target value (full-state replacement).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlobState(pub Vec<u8>);

impl SyncState for BlobState {
    fn diff_from(&self, _source: &Self) -> Vec<u8> {
        self.0.clone()
    }

    fn full_diff(&self) -> Vec<u8> {
        // Blob diffs are already full-state replacements.
        self.0.clone()
    }

    fn apply_diff(&mut self, diff: &[u8]) -> Result<(), StateError> {
        self.0 = diff.to_vec();
        Ok(())
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_bytes(out, &self.0);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(BlobState(r.bytes()?.to_vec()))
    }

    fn equivalent(&self, other: &Self) -> bool {
        self == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_round_trip_law() {
        let a = BlobState(b"one".to_vec());
        let b = BlobState(b"two".to_vec());
        let mut x = a.clone();
        x.apply_diff(&b.diff_from(&a)).unwrap();
        assert!(x.equivalent(&b));
    }

    #[test]
    fn blob_diff_skips_intermediates() {
        // Fast-forward directly from state 0 to state 3.
        let s0 = BlobState(b"0".to_vec());
        let s3 = BlobState(b"333".to_vec());
        let mut x = s0.clone();
        x.apply_diff(&s3.diff_from(&s0)).unwrap();
        assert!(x.equivalent(&s3));
    }
}
