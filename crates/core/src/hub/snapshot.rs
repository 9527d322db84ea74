//! Versioned, checksummed snapshot framing for hub sessions, and the
//! handoff container that rolling restarts ship between processes. This
//! module is the format and nothing else: the hub keeps each session's
//! latest checkpoint in that session's slot, and a rolling restart writes
//! and reads its container as a file of its own.
//!
//! A [`crate::server::MoshServer`] already knows how to encode and
//! decode its own body ([`crate::server::MoshServer::encode_snapshot_body`]:
//! the transport's bytes, each SSP layer having written its own, then the
//! server's queues and the application's state — what resuming the
//! conversation needs, so its size does not depend on how long the
//! session has lived); this module wraps that body in a self-describing
//! frame so a snapshot written by one process can be rejected — not
//! half-applied — by another when it is truncated, bit-flipped, or from
//! an incompatible build:
//!
//! ```text
//! "MSHS" | version: u16 BE | crc32(body): u32 BE | body
//! ```
//!
//! A frame is written at [`VERSION`] and read at [`VERSION`] or the one
//! before it, so a rolling restart across an upgrade keeps its sessions:
//! the new build reads what the old one left and writes its own format
//! from then on.
//!
//! Two consumers, two entry points:
//!
//! * **Handoff** across processes uses [`snapshot_server`] /
//!   [`restore_server`]: the old process was shut down cleanly, so the
//!   restored session resumes byte-identical — same sequence numbers,
//!   same chaff, same wire.
//! * **Crash recovery** uses [`resurrect_server`]: when a session's
//!   endpoint panics, the hub reports `SessionEvent::Crashed` with the
//!   session's last checkpoint, and the caller rebuilds the server from
//!   it and leases it in place — same id, same shard, same source. The
//!   snapshot is *stale* (the dead endpoint may have sent datagrams after
//!   the last checkpoint), so the restored session burns a generous nonce
//!   gap ([`SEQ_SKIP_MARGIN`]) to stay strictly ahead of anything the
//!   dead incarnation could have emitted. Un-checkpointed client input is
//!   recovered by SSP's own retransmit: a checkpoint caps the session's
//!   outgoing acks at what it contains, so the client never stops
//!   resending the tail.

use std::fmt;

use mosh_wire::{put_bytes, put_varint, Reader};

use crate::server::MoshServer;
use crate::Application;

/// Frame magic: identifies a mosh hub session snapshot.
pub const MAGIC: [u8; 4] = *b"MSHS";

/// Current snapshot format version. Bump on any change to the body
/// layout, and keep the body decoder reading the version before; old
/// readers reject newer frames whole.
///
/// History: v1 — initial container; v2 — [`mosh_terminal::Framebuffer`]
/// encoding grew bounded history and a viewport offset into it; v3 — the
/// server's Figure 3 measurement log (two lists that grew by one entry
/// per application write) is gone from the body, which is otherwise v2's
/// field for field; a v2 frame is read by skipping them. A framebuffer
/// now keeps no history, as Mosh's keeps none: its three history fields
/// are written empty, and history an older writer stored is read, checked
/// and dropped, so the layout and this version stay as they were.
pub const VERSION: u16 = 3;

/// Nonce gap burned when resurrecting from a possibly-stale checkpoint:
/// the dead shard cannot have encrypted this many datagrams between the
/// checkpoint and its crash, so the resurrected session never reuses a
/// nonce the client may already have seen.
pub const SEQ_SKIP_MARGIN: u64 = 1 << 20;

/// Why a snapshot was rejected. Every failure rejects the frame whole —
/// a bad snapshot is never partially applied to a live session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// Shorter than the fixed frame header.
    TooShort,
    /// The leading bytes are not [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// A snapshot from a newer format revision, or one older than the
    /// previous.
    UnsupportedVersion(u16),
    /// The body does not match its recorded CRC: truncated in storage
    /// or corrupted in flight.
    ChecksumMismatch,
    /// The frame is intact but the body fails structural validation
    /// (internal inconsistency, trailing garbage, or an application
    /// state that does not match the restoring app's kind).
    Malformed,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::TooShort => write!(f, "snapshot shorter than frame header"),
            SnapshotError::BadMagic => write!(f, "missing MSHS snapshot magic"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Malformed => write!(f, "snapshot body malformed"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

const HEADER_LEN: usize = 4 + 2 + 4;

/// Wraps an encoded body in the versioned, checksummed frame.
pub fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_be_bytes());
    out.extend_from_slice(&crc32(body).to_be_bytes());
    out.extend_from_slice(body);
    out
}

/// Validates a frame and returns its format version — [`VERSION`] or
/// the one before — and the body it carries.
pub fn unframe(bytes: &[u8]) -> Result<(u16, &[u8]), SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::TooShort);
    }
    if bytes[..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u16::from_be_bytes([bytes[4], bytes[5]]);
    if version != VERSION && version != VERSION - 1 {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let want = u32::from_be_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]);
    let body = &bytes[HEADER_LEN..];
    if crc32(body) != want {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok((version, body))
}

/// Snapshots a server verbatim — the clean-handoff entry point. Does
/// **not** touch the ack ceiling, so a snapshot-and-restore round trip
/// leaves the session byte-identical going forward. For crash-recovery
/// checkpoints use [`crate::server::MoshServer::checkpoint_body`]
/// (which caps acks first) and frame the result with [`frame`].
pub fn snapshot_server(server: &MoshServer) -> Vec<u8> {
    let mut body = Vec::new();
    server.encode_snapshot_body(&mut body);
    frame(&body)
}

/// Restores a server from a framed snapshot, verbatim. Used for clean
/// handoff, where the previous incarnation is known to have stopped:
/// sequence numbers continue exactly where the snapshot left them.
pub fn restore_server(
    bytes: &[u8],
    app: Box<dyn Application>,
) -> Result<MoshServer, SnapshotError> {
    let (version, body) = unframe(bytes)?;
    MoshServer::decode_snapshot_body(body, version, app).ok_or(SnapshotError::Malformed)
}

/// Restores a server from a possibly-stale checkpoint — the crash
/// recovery entry point. Identical to [`restore_server`] plus a
/// [`SEQ_SKIP_MARGIN`] nonce skip, because the dead incarnation may
/// have encrypted datagrams after this checkpoint was taken.
pub fn resurrect_server(
    bytes: &[u8],
    app: Box<dyn Application>,
) -> Result<MoshServer, SnapshotError> {
    let mut server = restore_server(bytes, app)?;
    server.skip_seq_ahead(SEQ_SKIP_MARGIN);
    Ok(server)
}

/// Handoff container entries: `(global session id, framed snapshot)`
/// per session, in hub order.
pub type HandoffEntries = Vec<(usize, Vec<u8>)>;

/// Encodes a whole hub's sessions as one framed handoff container:
/// `count | (global-session-id, framed-snapshot)...`. The entries are
/// each already framed, so a reader can reject one corrupt session
/// without trusting the rest — and the container has its own frame on
/// top, so storage truncation is caught before any entry is parsed.
pub fn encode_handoff(entries: &[(usize, Vec<u8>)]) -> Vec<u8> {
    let mut body = Vec::new();
    put_varint(&mut body, entries.len() as u64);
    for (sid, framed) in entries {
        put_varint(&mut body, *sid as u64);
        put_bytes(&mut body, framed);
    }
    frame(&body)
}

/// Decodes a handoff container back into `(global-session-id, framed
/// snapshot)` entries. The entries' own frames are *not* validated here
/// — each is checked by [`restore_server`] when the session is rebuilt,
/// so one corrupt entry fails individually rather than sinking the
/// whole handoff at parse time.
pub fn decode_handoff(bytes: &[u8]) -> Result<HandoffEntries, SnapshotError> {
    let (_, body) = unframe(bytes)?;
    let mut r = Reader::new(body);
    let count = r.varint().ok_or(SnapshotError::Malformed)? as usize;
    let mut entries = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let sid = r.varint().ok_or(SnapshotError::Malformed)? as usize;
        let framed = r.bytes().ok_or(SnapshotError::Malformed)?;
        entries.push((sid, framed.to_vec()));
    }
    r.end().ok_or(SnapshotError::Malformed)?;
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::LineShell;
    use crate::server::tests::client_transport;

    /// A server that has seen real traffic, so its snapshot exercises
    /// every section of the body.
    fn busy_server() -> MoshServer {
        crate::server::tests::busy_server(&mut client_transport())
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn frame_round_trips() {
        let body = b"hello snapshot".to_vec();
        let framed = frame(&body);
        assert_eq!(unframe(&framed).unwrap(), (VERSION, &body[..]));
    }

    #[test]
    fn unframe_rejects_every_corruption_mode() {
        let framed = frame(b"payload");
        // Truncation at every prefix of the header.
        for cut in 0..HEADER_LEN {
            assert_eq!(unframe(&framed[..cut]), Err(SnapshotError::TooShort));
        }
        // Wrong magic.
        let mut bad = framed.clone();
        bad[0] = b'X';
        assert_eq!(unframe(&bad), Err(SnapshotError::BadMagic));
        // A future version, and one older than the previous.
        for version in [VERSION + 1, VERSION - 2] {
            let mut bad = framed.clone();
            bad[4..6].copy_from_slice(&version.to_be_bytes());
            assert_eq!(
                unframe(&bad),
                Err(SnapshotError::UnsupportedVersion(version))
            );
        }
        // The previous version is read.
        let mut previous = framed.clone();
        previous[5] = VERSION as u8 - 1;
        assert_eq!(unframe(&previous).unwrap(), (VERSION - 1, &b"payload"[..]));
        // A bit flip anywhere in the body trips the checksum.
        for i in HEADER_LEN..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x10;
            assert_eq!(unframe(&bad), Err(SnapshotError::ChecksumMismatch));
        }
        // Truncating the body also trips the checksum.
        assert_eq!(
            unframe(&framed[..framed.len() - 1]),
            Err(SnapshotError::ChecksumMismatch)
        );
    }

    #[test]
    fn snapshot_restore_round_trips_a_busy_server() {
        let server = busy_server();
        let framed = snapshot_server(&server);
        let restored = restore_server(&framed, Box::new(LineShell::new())).unwrap();
        // The restored twin re-encodes to the same body.
        assert_eq!(snapshot_server(&restored), framed);
    }

    #[test]
    fn restore_rejects_corrupt_snapshots_whole() {
        let server = busy_server();
        let framed = snapshot_server(&server);
        // Bit flips anywhere in the body are caught by the CRC, long
        // before the body decoder could half-apply anything.
        for i in (HEADER_LEN..framed.len()).step_by(13) {
            let mut bad = framed.clone();
            bad[i] ^= 0x40;
            assert_eq!(
                restore_server(&bad, Box::new(LineShell::new())).err(),
                Some(SnapshotError::ChecksumMismatch)
            );
        }
        // A structurally valid frame around a truncated body decodes
        // to Malformed — still rejected whole.
        let (_, body) = unframe(&framed).unwrap();
        let reframed = frame(&body[..body.len() - 3]);
        assert_eq!(
            restore_server(&reframed, Box::new(LineShell::new())).err(),
            Some(SnapshotError::Malformed)
        );
    }

    #[test]
    fn resurrect_skips_the_nonce_margin() {
        let mut server = busy_server();
        let framed = frame(&server.checkpoint_body());
        let seq_before = server.next_seq();
        let resurrected = resurrect_server(&framed, Box::new(LineShell::new())).unwrap();
        let seq_after = resurrected.next_seq();
        assert!(seq_after >= seq_before + SEQ_SKIP_MARGIN);
    }

    #[test]
    fn handoff_container_round_trips_and_rejects_corruption() {
        let entries = vec![(0usize, vec![1, 2, 3]), (5, vec![]), (2, vec![9; 40])];
        let container = encode_handoff(&entries);
        assert_eq!(decode_handoff(&container).unwrap(), entries);
        // Bit flip in the container body.
        let mut bad = container.clone();
        bad[HEADER_LEN + 2] ^= 1;
        assert_eq!(decode_handoff(&bad), Err(SnapshotError::ChecksumMismatch));
        // Reframed-but-truncated body is structurally rejected.
        let (_, body) = unframe(&container).unwrap();
        let reframed = frame(&body[..body.len() - 1]);
        assert_eq!(decode_handoff(&reframed), Err(SnapshotError::Malformed));
        // Trailing garbage behind the last entry is rejected too.
        let mut long = body.to_vec();
        long.push(0);
        assert_eq!(decode_handoff(&frame(&long)), Err(SnapshotError::Malformed));
    }
}
