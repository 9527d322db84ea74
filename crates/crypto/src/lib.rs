//! Cryptography for the Mosh State Synchronization Protocol.
//!
//! The paper (§2.2) builds SSP's security on **AES-128 in the Offset Codebook
//! (OCB) mode**, which provides confidentiality and authenticity with a single
//! secret key. This crate implements that stack from scratch:
//!
//! * [`aes`] — the AES-128 block cipher (FIPS 197), both directions, in
//!   two wire tiers picked once per key: AES-NI where the CPU has it, a
//!   constant-time bitsliced circuit everywhere else. Both are pinned
//!   against a byte-oriented reference compiled into test builds only.
//! * [`ocb`] — OCB3 authenticated encryption (RFC 7253) with a 128-bit
//!   tag, one pass per packet; `seal_into`/`open_into` append into
//!   reused buffers so the per-datagram hot path never allocates.
//! * [`base64`] — key encoding, matching Mosh's 22-character printable keys.
//! * [`session`] — the datagram-layer crypto framing: a 64-bit
//!   direction+sequence nonce sent in the clear, with everything else
//!   encrypted and authenticated.
//!
//! # Examples
//!
//! ```
//! use mosh_crypto::session::{Direction, Session};
//! use mosh_crypto::Base64Key;
//!
//! let key = Base64Key::random();
//! let mut server = Session::new(key.clone(), Direction::ToClient);
//! let client = Session::new(key, Direction::ToServer);
//!
//! let wire = server.encrypt(b"hello, roaming world");
//! let message = client.decrypt(&wire).expect("authentic packet");
//! assert_eq!(message.payload, b"hello, roaming world");
//! ```

pub mod aes;
pub mod base64;
pub mod ocb;
pub mod session;

pub use base64::Base64Key;
pub use ocb::Ocb;
pub use session::{Direction, Message, Session};

/// Errors produced by cryptographic operations.
///
/// SSP treats any failure as "drop the packet": an inauthentic datagram is
/// indistinguishable from line noise and must never affect connection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// The ciphertext failed tag verification (forged, corrupted, or keyed
    /// with the wrong session key).
    BadTag,
    /// The wire datagram is too short to contain a nonce and a tag.
    Truncated,
    /// A key string could not be decoded (wrong length or alphabet).
    BadKey,
    /// The nonce carried an unexpected direction bit (reflection attempt).
    BadDirection,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::BadTag => write!(f, "message failed authentication"),
            CryptoError::Truncated => write!(f, "datagram too short"),
            CryptoError::BadKey => write!(f, "malformed base64 key"),
            CryptoError::BadDirection => write!(f, "nonce direction bit mismatch"),
        }
    }
}

impl std::error::Error for CryptoError {}
