//! The multi-session server runtime, in two layers:
//!
//! * [`shard`] — [`ServerHub`]: one poller, one timer wheel, N sessions
//!   on **one thread** — the tree's one session event loop. A sharded
//!   runtime calls one of these a *shard*; a single-session
//!   [`crate::session::SessionLoop`] is one with N = 1.
//! * [`router`] — [`ShardedHub`]: N worker threads, each owning a
//!   private `ServerHub`, fed by a sharding front end that assigns
//!   sessions to shards at accept time. Sessions are independent worlds
//!   behind tokens and endpoints are `Send`, so sharding is a layering
//!   decision, not a locking problem — per-session transcripts are
//!   byte-identical to the single-threaded hub for every shard count.
//!
//! As in Mosh, where each session is its own `mosh-server` process, a
//! crash costs one session: a panic in a session's endpoint code is
//! caught inside the pump, the other sessions pump on, and the caller
//! restores the crashed one in place, on the same shard and source, from
//! the checkpoint its [`crate::session::SessionEvent::Crashed`] carries.
//!
//! The types shared by both layers — [`SessionId`], the per-pump
//! [`HubSession`] lease, and the [`HubStats`] counters — live here.

pub mod router;
pub mod shard;
pub mod snapshot;

pub use router::ShardedHub;
pub use shard::ServerHub;
pub use snapshot::SnapshotError;

use crate::session::Party;
use crate::Millis;

/// Identifies one session within a hub, in registration order. A
/// [`ShardedHub`] hands out hub-wide ids, and the owning shard knows the
/// session by the same id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub usize);

/// One session's per-pump lease: which registered session it is, the
/// endpoints it currently lends to the hub, and how far to drive it.
///
/// The hub borrows endpoints per pump — the caller keeps ownership,
/// injects keystrokes between pumps, and models roaming by changing a
/// party's address (simulator) or rebinding a socket (live).
pub struct HubSession<'p, 'e> {
    /// The registered session this lease belongs to.
    pub id: SessionId,
    /// The endpoints, bound to their current receive addresses.
    pub parties: &'p mut [Party<'e>],
    /// Drive this session's clock up to this instant (its own source's
    /// clock — sources tick independently).
    pub target: Millis,
}

impl<'p, 'e> HubSession<'p, 'e> {
    /// A lease for `id` driving `parties` until `target`.
    pub fn new(id: SessionId, parties: &'p mut [Party<'e>], target: Millis) -> Self {
        HubSession {
            id,
            parties,
            target,
        }
    }
}

/// Hub-level counters (wakeups are the scaling quantity: each costs
/// `O(log sessions)`, so totals grow linearly with live sessions and not
/// at all with idle ones). A [`ShardedHub`] reports the sum over its
/// shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HubStats {
    /// Timer-wheel pops serviced.
    pub wakeups: u64,
    /// Re-arms where a session's own endpoints reported
    /// `next_wakeup(now) <= now` right after being ticked at `now`, so
    /// the wheel's clamp to `now + 1` fired because of an endpoint, not
    /// the substrate. Zero by the [`crate::session::Endpoint::next_wakeup`]
    /// contract; each count is a wakeup that will find nothing to do.
    pub overdue_wakeups: u64,
    /// Datagrams delivered to a session.
    pub delivered: u64,
    /// Datagrams no session claimed (unknown address, or authentication
    /// failed against every candidate).
    pub dropped: u64,
    /// Deliveries that needed the cryptographic-authentication fallback
    /// (ambiguous receive address).
    pub auth_routed: u64,
    /// Unclaimed datagrams handed to the unclaimed-datagram hook instead
    /// of being dropped (a sharded front end's bounce path — the wire
    /// goes back to the distributor to try the next shard).
    pub bounced: u64,
    /// Endpoint panics caught; each cost one session (reported as
    /// [`crate::session::SessionEvent::Crashed`]), never its shard.
    pub shard_panics: u64,
    /// Datagrams the shared-socket distributor shed because the target
    /// shard's feed queue was at capacity — the operator-visible signal
    /// that a shard is falling behind its inbound traffic.
    pub feed_overflow: u64,
    /// Distributor forwards of bounced (unclaimed-by-one-shard)
    /// datagrams: sustained growth means inbound traffic keeps missing
    /// its hinted shard.
    pub feed_bounced: u64,
    /// Datagrams no shard claimed after a full distributor fan-out
    /// cycle (line noise, or traffic for sessions already removed).
    pub feed_dropped: u64,
    /// Shard replies the shared (nonblocking) socket refused — a full
    /// send buffer or an unroutable destination: lost datagrams, which
    /// SSP retransmits, counted instead of silently dropped.
    pub feed_send_failed: u64,
    /// Live source hints in the distributor's map (a gauge, not a
    /// counter: one per client address currently claimed by a shard).
    pub feed_hints: u64,
    /// Total framed snapshot bytes written by the checkpoint cadence
    /// (cumulative, across all sessions and checkpoints).
    pub checkpoint_bytes: u64,
}

impl HubStats {
    /// Member-wise sum (aggregating shard counters).
    pub(crate) fn add(&mut self, other: HubStats) {
        self.wakeups += other.wakeups;
        self.overdue_wakeups += other.overdue_wakeups;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.auth_routed += other.auth_routed;
        self.bounced += other.bounced;
        self.shard_panics += other.shard_panics;
        self.feed_overflow += other.feed_overflow;
        self.feed_bounced += other.feed_bounced;
        self.feed_dropped += other.feed_dropped;
        self.feed_send_failed += other.feed_send_failed;
        self.feed_hints += other.feed_hints;
        self.checkpoint_bytes += other.checkpoint_bytes;
    }
}
