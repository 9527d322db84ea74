//! The transport sender: frame-rate control, delayed acks, retransmission,
//! and heartbeats (paper §2.3).
//!
//! The sender keeps a short list of states it has shipped, always diffs the
//! *current* state against the most recent state the receiver plausibly
//! has, and paces transmissions so that "there is about one Instruction in
//! flight to the receiver at any time":
//!
//! * frame interval = `clamp(SRTT/2, 20 ms, 250 ms)` (50 Hz cap),
//! * collection interval after the first change: the server's
//!   `SEND_MINDELAY` = 8 ms, the client's 1 ms,
//! * delayed acks ride along within 100 ms,
//! * a heartbeat goes out every 3 s of silence,
//! * un-acknowledged states are retransmitted after `RTO + ACK_DELAY`.

use crate::state::SyncState;
use crate::Millis;
use mosh_wire::{put_bool, put_opt, put_varint, Reader};

/// Minimum interval between frames: caps the rate at 50 Hz, "roughly the
/// limit of human perception" (paper footnote 1).
pub const SEND_INTERVAL_MIN: Millis = 20;
/// Maximum interval between frames.
pub const SEND_INTERVAL_MAX: Millis = 250;
/// Default collection interval after the first write: the server's (paper
/// §4, Figure 3: "we adjusted that to 8 ms, the minimum of the curve"). The
/// client sets its own 1 ms with [`Sender::set_mindelay`], as Mosh's does.
pub const SEND_MINDELAY: Millis = 8;
/// Delayed-ack window: "a delay of 100 ms was sufficient to let the
/// delayed ACK piggyback on host data" in >99.9% of cases (paper §2.3).
pub const ACK_DELAY: Millis = 100;
/// Heartbeat interval: 3 s, "to compromise between responsiveness and the
/// desire to reduce unnecessary chatter" (paper §2.3).
pub const HEARTBEAT_DURATION: Millis = 3000;
/// Cap on retained sent states; beyond this, middle states are coalesced.
const MAX_SENT_STATES: usize = 32;

/// The frame interval for a given smoothed RTT.
pub fn send_interval(srtt: f64) -> Millis {
    ((srtt / 2.0).ceil() as Millis).clamp(SEND_INTERVAL_MIN, SEND_INTERVAL_MAX)
}

/// A numbered state snapshot with its last transmission time.
#[derive(Debug, Clone)]
pub struct TimestampedState<S> {
    /// State number (monotonically increasing per sender).
    pub num: u64,
    /// Time this state was last sent.
    pub timestamp: Millis,
    /// The snapshot itself.
    pub state: S,
}

/// Appends a state list for a session snapshot: a count, then each
/// state's number, timestamp and body.
pub(crate) fn encode_states<S: SyncState>(states: &[TimestampedState<S>], out: &mut Vec<u8>) {
    put_varint(out, states.len() as u64);
    for s in states {
        put_varint(out, s.num);
        put_varint(out, s.timestamp);
        s.state.encode_into(out);
    }
}

/// Reads a list written by [`encode_states`]. `None` unless it is
/// non-empty with strictly increasing numbers: sender and receiver both
/// take its first and last entries unchecked and look states up by number.
pub(crate) fn decode_states<S: SyncState>(r: &mut Reader<'_>) -> Option<Vec<TimestampedState<S>>> {
    let mut states: Vec<TimestampedState<S>> = Vec::new();
    for _ in 0..r.varint()? {
        let num = r.varint()?;
        if states.last().is_some_and(|prev| prev.num >= num) {
            return None;
        }
        let timestamp = r.varint()?;
        let state = S::decode(r)?;
        states.push(TimestampedState {
            num,
            timestamp,
            state,
        });
    }
    (!states.is_empty()).then_some(states)
}

/// Subtracts the oldest of `states` from every other, then from itself
/// through a clone: the pass each end runs to reclaim the history its
/// retained states share. A no-op on an empty list.
pub(crate) fn subtract_oldest<S: SyncState>(states: &mut [TimestampedState<S>]) {
    let Some((first, rest)) = states.split_first_mut() else {
        return;
    };
    for s in rest {
        s.state.subtract(&first.state);
    }
    let p = first.state.clone();
    first.state.subtract(&p);
}

/// What the sender wants transmitted this tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outgoing {
    /// Source state number the diff applies to.
    pub old_num: u64,
    /// Target state number.
    pub new_num: u64,
    /// Receiver may discard states below this.
    pub throwaway_num: u64,
    /// The diff payload (empty for acks/heartbeats).
    pub diff: Vec<u8>,
    /// Classification for instrumentation.
    pub kind: SendKind,
}

/// Why a transmission happened (for the ablation benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendKind {
    /// New data: the current state advanced.
    Data,
    /// Retransmission of un-acknowledged data.
    Retransmit,
    /// A pure acknowledgment that could not piggyback within [`ACK_DELAY`].
    PureAck,
    /// Keep-alive after [`HEARTBEAT_DURATION`] of silence.
    Heartbeat,
}

/// Counters for sender behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Data-bearing instructions sent.
    pub data: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// Pure acks (the 0.1% that fail to piggyback).
    pub pure_acks: u64,
    /// Heartbeats.
    pub heartbeats: u64,
    /// Acks that piggybacked on data instructions.
    pub piggybacked_acks: u64,
}

/// When each kind of transmission falls due (see `Sender::deadlines`).
#[derive(Debug, Clone, Copy)]
struct Deadlines {
    /// A data frame or a retransmission.
    frame: Option<Millis>,
    /// A standalone ack or heartbeat; `None` while data is pending.
    ack: Option<Millis>,
}

impl Deadlines {
    fn earliest(self) -> Option<Millis> {
        [self.frame, self.ack].into_iter().flatten().min()
    }
}

/// The sender half of an SSP transport endpoint.
#[derive(Debug)]
pub struct Sender<S: SyncState> {
    sent_states: Vec<TimestampedState<S>>,
    current: S,
    /// Set when the current state first diverges from the last sent state.
    mindelay_clock: Option<Millis>,
    /// Collection interval; configurable because Figure 3 sweeps it.
    mindelay: Millis,
    /// Remote state number to acknowledge on the next transmission.
    ack_num: u64,
    /// Deadline for a standalone ack (or heartbeat).
    next_ack_time: Millis,
    /// True if `next_ack_time` is a 100 ms delayed *ack* rather than a 3 s
    /// heartbeat (distinguishes the two for instrumentation).
    ack_pending: bool,
    /// False until the first transmission: the frame-rate gate applies only
    /// "after a previous frame" (paper §2.3), never to the first one.
    sent_anything: bool,
    /// True after a snapshot restore: an authenticated ack for a state
    /// number *newer* than anything in `sent_states` is then trusted as
    /// evidence of a pre-crash state this sender no longer knows, and the
    /// sender adopts that number (see [`Sender::handle_ack`]).
    accept_future_acks: bool,
    /// `Some(b)`: states numbered `<= b` have unknown receiver-side
    /// content (their bytes were lost with a crash); any diff sourced
    /// from one must be a self-contained [`SyncState::full_diff`].
    resync_base: Option<u64>,
    /// Whether `current` differs from the newest sent state, while that
    /// is known (`None`: unknown). [`Sender::commit`] computes it; a send
    /// or a crash resync makes it `Some(false)`; every mutation of
    /// `current`, or of the sent states it is compared with, clears it.
    differs: Option<bool>,
    stats: SenderStats,
}

impl<S: SyncState> Sender<S> {
    /// Creates a sender whose state number 0 is `initial` (both ends start
    /// with equal, known initial states).
    pub fn new(initial: S) -> Self {
        Sender {
            sent_states: vec![TimestampedState {
                num: 0,
                timestamp: 0,
                state: initial.clone(),
            }],
            current: initial,
            mindelay_clock: None,
            mindelay: SEND_MINDELAY,
            ack_num: 0,
            next_ack_time: HEARTBEAT_DURATION,
            ack_pending: false,
            sent_anything: false,
            accept_future_acks: false,
            resync_base: None,
            differs: Some(false),
            stats: SenderStats::default(),
        }
    }

    /// Appends the sender for a session snapshot: the shipped-state list
    /// (acked front first), the current state, the collection and ack
    /// clocks, and the counters. A pending crash resync is not carried.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_states(&self.sent_states, out);
        self.current.encode_into(out);
        put_opt(out, self.mindelay_clock);
        put_varint(out, self.mindelay);
        put_varint(out, self.ack_num);
        put_varint(out, self.next_ack_time);
        put_bool(out, self.ack_pending);
        put_bool(out, self.sent_anything);
        let st = &self.stats;
        for v in [
            st.data,
            st.retransmits,
            st.pure_acks,
            st.heartbeats,
            st.piggybacked_acks,
        ] {
            put_varint(out, v);
        }
    }

    /// Reads a sender written by [`Sender::encode_into`]. `None` when the
    /// shipped-state list is empty, out of order or ends at `u64::MAX`
    /// (see [`Sender::handle_ack`]), or the collection interval exceeds
    /// [`SEND_INTERVAL_MAX`] (Figure 3 sweeps it to 100 ms) — a corrupt
    /// snapshot is rejected whole, never half-applied.
    /// Clocks and timestamps are taken as they are: the deadlines built
    /// on them saturate.
    pub fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(Sender {
            sent_states: decode_states(r).filter(|s| s.last().is_some_and(|l| l.num < u64::MAX))?,
            current: S::decode(r)?,
            mindelay_clock: r.opt()?,
            mindelay: r.varint().filter(|&m| m <= SEND_INTERVAL_MAX)?,
            ack_num: r.varint()?,
            next_ack_time: r.varint()?,
            ack_pending: r.bool()?,
            sent_anything: r.bool()?,
            // A restored sender may be resuming from a checkpoint older
            // than the peer's view; future acks are then legitimate.
            accept_future_acks: true,
            resync_base: None,
            differs: None,
            stats: SenderStats {
                data: r.varint()?,
                retransmits: r.varint()?,
                pure_acks: r.varint()?,
                heartbeats: r.varint()?,
                piggybacked_acks: r.varint()?,
            },
        })
    }

    /// Overrides the collection interval: the client's 1 ms keystroke
    /// hold, and Figure 3's sweep parameter on the server.
    pub fn set_mindelay(&mut self, mindelay: Millis) {
        self.mindelay = mindelay;
    }

    /// Sender-side counters.
    pub fn stats(&self) -> &SenderStats {
        &self.stats
    }

    /// The current (not necessarily sent) state.
    pub fn current(&self) -> &S {
        &self.current
    }

    /// Number of the most recently shipped state.
    pub fn latest_sent_num(&self) -> u64 {
        self.sent_states.last().expect("never empty").num
    }

    /// Number of the newest state the receiver has acknowledged.
    pub fn acked_num(&self) -> u64 {
        self.sent_states.first().expect("never empty").num
    }

    /// The newest state the receiver has acknowledged, as far as it is
    /// still retained: for a [`SyncState::SUBTRACTS`] state the
    /// acknowledged prefix has been reclaimed and what is left answers
    /// only questions about its extent (a `UserStream`'s `end_index`).
    pub fn acked_state(&self) -> &S {
        &self.sent_states.first().expect("never empty").state
    }

    /// Replaces the current state. The collection-interval clock starts at
    /// the first moment the state diverges from what was last sent.
    pub fn set_current(&mut self, state: S, now: Millis) {
        self.current = state;
        self.commit(now);
    }

    /// Mutable access to the current state, for callers that own no
    /// separate copy — the authoritative object *is* the sender's current
    /// state, mutated in place instead of cloned in whole per change (the
    /// Mosh server's terminal, the client's input stream). After mutating,
    /// call [`Sender::commit`] before the next [`Sender::tick`] so the
    /// collection-interval clock sees the divergence.
    ///
    /// Forgets the cached answer to "does the current state differ from
    /// the newest sent one?": until the next [`Sender::commit`] or send,
    /// every [`Sender::pending_data`] compares afresh.
    pub fn current_mut(&mut self) -> &mut S {
        self.differs = None;
        &mut self.current
    }

    /// Re-evaluates the current state against the last sent snapshot (the
    /// tail of [`Sender::set_current`]): starts the collection-interval
    /// clock at the first divergence, cancels it when the state reverted.
    /// This is the one [`SyncState::equivalent`] a mutation costs: the
    /// answer is cached for [`Sender::pending_data`], [`Sender::tick`] and
    /// [`Sender::next_wakeup`] until the next mutation.
    pub fn commit(&mut self, now: Millis) {
        let differs = self.compare();
        self.differs = Some(differs);
        if !differs {
            self.mindelay_clock = None;
        } else if self.mindelay_clock.is_none() {
            self.mindelay_clock = Some(now);
        }
    }

    /// True if `current` differs from the newest sent state, compared
    /// afresh.
    fn compare(&self) -> bool {
        let back = &self.sent_states.last().expect("never empty").state;
        !self.current.equivalent(back)
    }

    /// [`Self::compare`], answered from the cache when it is known.
    fn differs(&self) -> bool {
        match self.differs {
            Some(differs) => {
                debug_assert_eq!(differs, self.compare(), "stale cached comparison");
                differs
            }
            None => self.compare(),
        }
    }

    /// Records the remote state number to acknowledge and whether an ack
    /// must go out soon (data was received that deserves one).
    pub fn set_ack_num(&mut self, ack_num: u64, must_ack: bool, now: Millis) {
        self.ack_num = ack_num;
        if must_ack {
            let due = now + ACK_DELAY;
            if !self.ack_pending || due < self.next_ack_time {
                self.next_ack_time = self.next_ack_time.min(due);
                self.ack_pending = true;
            }
        }
    }

    /// Processes a cumulative acknowledgment from the receiver. State
    /// numbers stay below `u64::MAX`, and a resync needs a number past the
    /// one it adopts, so a future ack of either of the last two numbers is
    /// ignored. A sender whose newest state is `u64::MAX - 1` (only a
    /// hostile snapshot comes near) resends that number with new content.
    pub fn handle_ack(&mut self, ack_num: u64) {
        if self.accept_future_acks && ack_num > self.latest_sent_num() && ack_num < u64::MAX - 1 {
            // Crash-recovery resync: the peer (authenticated) acknowledges
            // a state produced after our checkpoint and lost with the
            // crash. Adopt its *number* with our current content marked
            // unknown-to-peer; the next diff sourced from it will be a
            // self-contained `full_diff` (see `send_data`).
            self.sent_states = vec![TimestampedState {
                num: ack_num,
                timestamp: 0,
                state: self.current.clone(),
            }];
            self.resync_base = Some(ack_num);
            self.differs = Some(false);
            return;
        }
        let Some(pos) = self.sent_states.iter().position(|s| s.num == ack_num) else {
            return; // Stale ack for an already-discarded state.
        };
        self.sent_states.drain(..pos);
        if self.resync_base.is_some_and(|b| ack_num > b) {
            // A post-resync state made it across; content is known again.
            self.resync_base = None;
        }
        // Rationalize: everything shares the acked prefix now; reclaim
        // it. Skipped entirely for states whose `subtract` is a no-op
        // (terminal screens) — the pass exists only to reclaim memory,
        // and the snapshot clone it needs would be pure cost per ack.
        if !S::SUBTRACTS {
            return;
        }
        self.differs = None;
        self.current.subtract(&self.sent_states[0].state);
        subtract_oldest(&mut self.sent_states);
    }

    /// True if the current state has not been shipped yet. While a resync
    /// is pending, the latest "sent" state is the adopted one whose
    /// receiver-side content is unknown — a full frame must still go out
    /// even though its recorded content equals `current`.
    ///
    /// Otherwise this reads the answer [`Sender::commit`] or the last send
    /// cached, and calls [`SyncState::equivalent`] only when a mutation
    /// ([`Sender::current_mut`], or an ack that reclaims history) has
    /// cleared it since. Debug builds check a cached answer against a
    /// fresh compare.
    pub fn pending_data(&self) -> bool {
        let back = self.sent_states.last().expect("never empty");
        self.resync_base.is_some_and(|b| back.num <= b) || self.differs()
    }

    /// The one scheduling rule: when each kind of transmission falls due.
    /// Both [`Sender::next_wakeup`] (the time reported) and
    /// [`Sender::tick`] (the time acted on) read it, so the two can never
    /// disagree. `pending` is [`Sender::pending_data`], evaluated once by
    /// the caller.
    ///
    /// * Unshipped data is due at `max(collect, gate)`: the collection
    ///   interval after the first divergence, and the frame interval
    ///   after the previous frame (never before the first one).
    /// * Otherwise un-acknowledged data is retransmitted at
    ///   `sent + RTO + ACK_DELAY`.
    /// * A standalone ack or heartbeat is due at `next_ack_time` — but
    ///   only when no data is pending: the imminent (merely gated) frame
    ///   carries the ack, so an overdue ack behind a closed gate is *not*
    ///   a reason to wake.
    fn deadlines(&self, pending: bool, srtt: f64, rto: Millis) -> Deadlines {
        let back = self.sent_states.last().expect("never empty");
        if pending {
            let gate = if self.sent_anything {
                back.timestamp.saturating_add(send_interval(srtt))
            } else {
                0
            };
            // An unset clock (data pending that no `commit` saw: a crash
            // resync) is started by the first `tick` at or after the gate.
            let collect = self
                .mindelay_clock
                .map_or(0, |c| c.saturating_add(self.mindelay));
            Deadlines {
                frame: Some(collect.max(gate)),
                ack: None,
            }
        } else {
            let unacked = back.num != self.acked_num();
            Deadlines {
                frame: unacked.then(|| back.timestamp.saturating_add(rto + ACK_DELAY)),
                ack: Some(self.next_ack_time),
            }
        }
    }

    /// The next time this sender wants `tick` called (for event-driven
    /// stepping). The contract has two halves, and both hold by
    /// construction because `tick` acts on the same `Deadlines`:
    ///
    /// * **no early fire** — `tick(t)` emits nothing for any `t` before
    ///   the returned time (absent `set_current`/`commit`/`set_ack_num`/
    ///   `handle_ack`, which re-arm the schedule);
    /// * **no spin** — after a `tick(t)` the returned time is `> t`: a
    ///   deadline is never reported that `tick` would decline to act on.
    pub fn next_wakeup(&self, srtt: f64, rto: Millis) -> Option<Millis> {
        self.deadlines(self.pending_data(), srtt, rto).earliest()
    }

    /// Decides what (if anything) to transmit at `now`. At most one
    /// instruction per call; the transport encodes and fragments it.
    pub fn tick(&mut self, now: Millis, srtt: f64, rto: Millis) -> Option<Outgoing> {
        let pending = self.pending_data();
        if pending && self.mindelay_clock.is_none() {
            self.mindelay_clock = Some(now);
        }
        let due = self.deadlines(pending, srtt, rto);
        // A due frame (new data or a retransmission) wins over a due ack:
        // it carries the ack along.
        if due.frame.is_some_and(|t| now >= t) {
            return Some(self.send_data(now, rto, pending));
        }
        if due.ack.is_some_and(|t| now >= t) {
            let kind = if self.ack_pending {
                self.stats.pure_acks = self.stats.pure_acks.saturating_add(1);
                SendKind::PureAck
            } else {
                self.stats.heartbeats = self.stats.heartbeats.saturating_add(1);
                SendKind::Heartbeat
            };
            self.ack_pending = false;
            self.next_ack_time = now + HEARTBEAT_DURATION;
            let back_num = self.latest_sent_num();
            return Some(Outgoing {
                old_num: back_num,
                new_num: back_num,
                throwaway_num: self.acked_num(),
                diff: Vec::new(),
                kind,
            });
        }
        None
    }

    /// Index of the most recent sent state the receiver plausibly has:
    /// every sent state younger than `RTO + ACK_DELAY` is assumed to be
    /// arriving; otherwise we fall back toward the acknowledged front.
    fn assumed_receiver_index(&self, now: Millis, rto: Millis) -> usize {
        let mut idx = 0;
        for (i, s) in self.sent_states.iter().enumerate().skip(1) {
            if now.saturating_sub(s.timestamp) < rto + ACK_DELAY {
                idx = i;
            }
        }
        idx
    }

    /// Ships a frame: the current state as a new numbered state when it is
    /// `pending` ([`Sender::pending_data`]), else a retransmission of the
    /// newest sent state, which equals it.
    fn send_data(&mut self, now: Millis, rto: Millis, pending: bool) -> Outgoing {
        let assumed = self.assumed_receiver_index(now, rto);
        let source = &self.sent_states[assumed];
        let old_num = source.num;
        // A source at or below the resync base has unknown receiver-side
        // content: the diff must be self-contained.
        let source_unknown = self.resync_base.is_some_and(|b| source.num <= b);
        let diff = if source_unknown {
            self.current.full_diff()
        } else {
            self.current.diff_from(&source.state)
        };

        let back = self.sent_states.last_mut().expect("never empty");
        // The last number is resent (see `handle_ack`).
        let spent = back.num == u64::MAX - 1;
        if pending && spent {
            back.state = self.current.clone();
        }
        let (new_num, kind) = if !pending || spent {
            // Retransmission: same target state, refreshed timestamp.
            back.timestamp = now;
            self.stats.retransmits = self.stats.retransmits.saturating_add(1);
            (back.num, SendKind::Retransmit)
        } else {
            let n = back.num + 1;
            // Only to the high-water mark: an idle session keeps one or
            // two states for good, and `drain` keeps a burst's capacity.
            self.sent_states.reserve_exact(1);
            self.sent_states.push(TimestampedState {
                num: n,
                timestamp: now,
                state: self.current.clone(),
            });
            self.stats.data = self.stats.data.saturating_add(1);
            if self.sent_states.len() > MAX_SENT_STATES {
                // Coalesce from the middle: keep the acked front and the
                // freshest states as diff sources.
                let drop_at = self.sent_states.len() / 2;
                self.sent_states.remove(drop_at);
            }
            (n, SendKind::Data)
        };

        if self.ack_pending {
            self.stats.piggybacked_acks = self.stats.piggybacked_acks.saturating_add(1);
        }
        self.sent_anything = true;
        // The newest sent state now holds `current`.
        self.differs = Some(false);
        self.mindelay_clock = None;
        self.ack_pending = false;
        self.next_ack_time = now + HEARTBEAT_DURATION;
        Outgoing {
            old_num,
            new_num,
            throwaway_num: self.acked_num(),
            diff,
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::BlobState;
    use proptest::prelude::*;

    fn blob(s: &[u8]) -> BlobState {
        BlobState(s.to_vec())
    }

    const SRTT: f64 = 100.0;
    const RTO: Millis = 300;

    #[test]
    fn send_interval_is_half_srtt_clamped() {
        assert_eq!(send_interval(100.0), 50);
        assert_eq!(send_interval(10.0), SEND_INTERVAL_MIN);
        assert_eq!(send_interval(10_000.0), SEND_INTERVAL_MAX);
    }

    #[test]
    fn no_output_when_idle() {
        let mut s = Sender::new(blob(b"init"));
        assert_eq!(s.tick(0, SRTT, RTO), None);
        assert_eq!(s.tick(100, SRTT, RTO), None);
    }

    #[test]
    fn waits_for_collection_interval() {
        let mut s = Sender::new(blob(b"init"));
        // First send must also clear the frame gate from the initial state
        // at timestamp 0.
        let start = 1000;
        s.set_current(blob(b"changed"), start);
        assert_eq!(s.tick(start, SRTT, RTO), None);
        assert_eq!(s.tick(start + SEND_MINDELAY - 1, SRTT, RTO), None);
        let out = s
            .tick(start + SEND_MINDELAY, SRTT, RTO)
            .expect("sends after mindelay");
        assert_eq!(out.kind, SendKind::Data);
        assert_eq!(out.old_num, 0);
        assert_eq!(out.new_num, 1);
        assert_eq!(out.diff, b"changed");
    }

    #[test]
    fn frame_rate_limits_consecutive_sends() {
        let mut s = Sender::new(blob(b"0"));
        s.set_current(blob(b"1"), 1000);
        let first = s.tick(1008, SRTT, RTO).expect("first frame");
        assert_eq!(first.new_num, 1);
        // Immediately change again: the frame gate (srtt/2 = 50 ms) holds.
        s.set_current(blob(b"2"), 1010);
        assert_eq!(s.tick(1018, SRTT, RTO), None);
        assert_eq!(s.tick(1057, SRTT, RTO), None);
        let second = s.tick(1058, SRTT, RTO).expect("after frame interval");
        assert_eq!(second.new_num, 2);
    }

    #[test]
    fn skips_intermediate_states() {
        let mut s = Sender::new(blob(b"0"));
        s.set_current(blob(b"1"), 1000);
        s.set_current(blob(b"2"), 1002);
        s.set_current(blob(b"3"), 1004);
        let out = s
            .tick(1008, SRTT, RTO)
            .expect("one frame for three changes");
        assert_eq!(out.diff, b"3");
        assert_eq!(out.new_num, 1); // One state number, not three.
    }

    #[test]
    fn collection_clock_starts_at_first_divergence() {
        let mut s = Sender::new(blob(b"0"));
        s.set_current(blob(b"1"), 1000);
        s.set_current(blob(b"2"), 1006);
        // Mindelay counts from t=1000, so the send happens at 1008.
        assert!(s.tick(1007, SRTT, RTO).is_none());
        assert!(s.tick(1008, SRTT, RTO).is_some());
    }

    #[test]
    fn reverting_to_sent_state_cancels_send() {
        let mut s = Sender::new(blob(b"same"));
        s.set_current(blob(b"other"), 1000);
        s.set_current(blob(b"same"), 1004);
        assert_eq!(s.tick(1100, SRTT, RTO), None);
    }

    #[test]
    fn ack_prunes_sent_states() {
        let mut s = Sender::new(blob(b"0"));
        s.set_current(blob(b"1"), 1000);
        s.tick(1008, SRTT, RTO).unwrap();
        assert_eq!(s.acked_num(), 0);
        assert_eq!(s.acked_state(), &blob(b"0"));
        s.handle_ack(1);
        assert_eq!(s.acked_num(), 1);
        assert_eq!(s.acked_state(), &blob(b"1"));
    }

    #[test]
    fn stale_ack_is_ignored() {
        let mut s = Sender::new(blob(b"0"));
        s.handle_ack(99);
        assert_eq!(s.acked_num(), 0);
    }

    #[test]
    fn retransmits_unacked_state_after_rto() {
        let mut s = Sender::new(blob(b"0"));
        s.set_current(blob(b"1"), 1000);
        let first = s.tick(1008, SRTT, RTO).unwrap();
        assert_eq!(first.kind, SendKind::Data);
        // No ack arrives; after RTO + ACK_DELAY the same state goes again.
        assert_eq!(s.tick(1008 + RTO + ACK_DELAY - 1, SRTT, RTO), None);
        let again = s
            .tick(1008 + RTO + ACK_DELAY, SRTT, RTO)
            .expect("retransmit");
        assert_eq!(again.new_num, 1);
        assert_eq!(again.diff, b"1");
        assert_eq!(s.stats().retransmits, 1);
    }

    #[test]
    fn retransmission_diffs_from_acked_front_when_stale() {
        let mut s = Sender::new(blob(b"0"));
        s.set_current(blob(b"1"), 1000);
        s.tick(1008, SRTT, RTO).unwrap();
        // Long silence: the assumed receiver state decays to the front.
        let out = s.tick(1008 + RTO + ACK_DELAY, SRTT, RTO).unwrap();
        assert_eq!(out.old_num, 0);
    }

    #[test]
    fn delayed_ack_goes_out_alone_when_no_data() {
        let mut s = Sender::new(blob(b"0"));
        s.set_ack_num(7, true, 1000);
        assert_eq!(s.tick(1099, SRTT, RTO), None);
        let out = s.tick(1100, SRTT, RTO).expect("pure ack at +100 ms");
        assert_eq!(out.kind, SendKind::PureAck);
        assert!(out.diff.is_empty());
        assert_eq!(s.stats().pure_acks, 1);
    }

    #[test]
    fn ack_piggybacks_on_data() {
        let mut s = Sender::new(blob(b"0"));
        s.set_ack_num(7, true, 1000);
        s.set_current(blob(b"1"), 1001);
        let out = s.tick(1009, SRTT, RTO).expect("data within ack window");
        assert_eq!(out.kind, SendKind::Data);
        assert_eq!(s.stats().piggybacked_acks, 1);
        assert_eq!(s.stats().pure_acks, 0);
        // The scheduled standalone ack is cancelled.
        assert_eq!(s.tick(1100, SRTT, RTO), None);
    }

    #[test]
    fn overdue_ack_behind_a_closed_frame_gate_wakes_at_the_gate_not_now() {
        // SRTT 400 ms: the frame gate (200 ms) outlasts the ack window.
        let srtt = 400.0;
        let mut s = Sender::new(blob(b"0"));
        s.set_current(blob(b"1"), 1000);
        s.tick(1008, srtt, RTO).expect("first frame");
        // New data arrives, then something to acknowledge: the ack falls
        // due at 1120, the gate opens at 1208.
        s.set_current(blob(b"2"), 1010);
        s.set_ack_num(7, true, 1020);
        assert_eq!(s.next_wakeup(srtt, RTO), Some(1208));
        for now in 1100..1208 {
            // The gated frame will carry the ack: nothing goes out, and
            // the wakeup reported is never one `tick` just declined.
            assert_eq!(s.tick(now, srtt, RTO), None);
            assert_eq!(s.next_wakeup(srtt, RTO), Some(1208), "at {now}");
        }
        let out = s.tick(1208, srtt, RTO).expect("frame at the gate");
        assert_eq!(out.kind, SendKind::Data);
        assert_eq!(s.stats().piggybacked_acks, 1);
        assert_eq!(s.stats().pure_acks, 0);
    }

    #[test]
    fn wakeup_reported_is_the_time_tick_acts() {
        // Walk one sender through data, ack, retransmit and heartbeat
        // phases at 1 ms: `tick` emits exactly when `now` reaches the
        // last reported wakeup, never before and never later.
        let mut s = Sender::new(blob(b"0"));
        let mut sends = 0;
        let mut due = s.next_wakeup(SRTT, RTO).expect("heartbeat armed");
        for now in 0..12_000 {
            let mut rearmed = false;
            if now == 500 || now == 530 || now == 4000 {
                s.set_current(blob(format!("v{now}").as_bytes()), now);
                rearmed = true;
            }
            if now == 520 || now == 7000 {
                s.set_ack_num(now, true, now);
                rearmed = true;
            }
            if now == 4100 {
                s.handle_ack(s.latest_sent_num());
                rearmed = true;
            }
            if rearmed {
                due = s.next_wakeup(SRTT, RTO).expect("always armed");
            }
            let out = s.tick(now, SRTT, RTO);
            assert_eq!(out.is_some(), now >= due, "at {now}, due {due}");
            if out.is_some() {
                sends += 1;
            }
            let next = s.next_wakeup(SRTT, RTO).expect("always armed");
            if now >= due {
                assert!(next > now, "tick({now}) left an overdue wakeup {next}");
                due = next;
            } else {
                assert_eq!(next, due, "a no-op tick moved the wakeup");
            }
        }
        let st = s.stats();
        assert!(st.data >= 3 && st.retransmits >= 1 && st.pure_acks >= 1 && st.heartbeats >= 1);
        assert_eq!(
            sends,
            st.data + st.retransmits + st.pure_acks + st.heartbeats
        );
    }

    #[test]
    fn heartbeat_after_three_seconds_of_silence() {
        let mut s = Sender::new(blob(b"0"));
        assert_eq!(s.tick(2999, SRTT, RTO), None);
        let out = s.tick(3000, SRTT, RTO).expect("heartbeat");
        assert_eq!(out.kind, SendKind::Heartbeat);
        // And again 3 s later.
        assert_eq!(s.tick(5999, SRTT, RTO), None);
        assert!(s.tick(6000, SRTT, RTO).is_some());
    }

    #[test]
    fn data_resets_heartbeat_timer() {
        let mut s = Sender::new(blob(b"0"));
        s.set_current(blob(b"1"), 2900);
        s.tick(2908, SRTT, RTO).unwrap();
        s.handle_ack(1);
        // Heartbeat fires 3 s after the data send, not at t=3000.
        assert_eq!(s.tick(3000, SRTT, RTO), None);
        assert!(s.tick(5908, SRTT, RTO).is_some());
    }

    #[test]
    fn sent_state_list_is_bounded() {
        let mut s = Sender::new(blob(b"0"));
        let mut t = 1000;
        for i in 0..100u32 {
            s.set_current(blob(format!("{i}").as_bytes()), t);
            t += 300;
            s.tick(t, SRTT, RTO);
        }
        assert!(s.sent_states.len() <= MAX_SENT_STATES + 1);
    }

    /// `s` through its own bytes.
    fn via_snapshot(s: &Sender<BlobState>) -> Sender<BlobState> {
        let mut bytes = Vec::new();
        s.encode_into(&mut bytes);
        let mut r = Reader::new(&bytes);
        let back = Sender::decode(&mut r).expect("a live sender decodes");
        assert_eq!(r.remaining(), 0);
        back
    }

    #[test]
    fn snapshot_round_trips() {
        let mut s = Sender::new(blob(b"0"));
        s.set_current(blob(b"1"), 1000);
        s.tick(1008, SRTT, RTO).unwrap();
        s.set_ack_num(5, true, 1010);
        s.set_current(blob(b"2"), 1012);
        let mut r = via_snapshot(&s);
        assert_eq!(r.acked_num(), s.acked_num());
        assert_eq!(r.stats(), s.stats());
        assert!(r.current().equivalent(s.current()));
        for now in 1012..1500 {
            assert_eq!(r.tick(now, SRTT, RTO), s.tick(now, SRTT, RTO), "at {now}");
        }
    }

    #[test]
    fn restore_rejects_invalid_parts() {
        let mut s = Sender::new(blob(b"0"));
        s.set_current(blob(b"1"), 1000);
        s.tick(1008, SRTT, RTO).unwrap();
        let mut bytes = Vec::new();
        s.encode_into(&mut bytes);
        // count 2 | num 0, ts 0, "0" | num 1, ts 1008, "1" | current ...
        assert_eq!(bytes[..10], [2, 0, 0, 1, b'0', 1, 0xf0, 0x07, 1, b'1']);
        for first_num in [1, 2] {
            let mut unordered = bytes.clone();
            unordered[1] = first_num; // equal to the second, then above it
            assert!(Sender::<BlobState>::decode(&mut Reader::new(&unordered)).is_none());
        }
        let mut empty = vec![0];
        empty.extend_from_slice(&bytes[10..]);
        assert!(Sender::<BlobState>::decode(&mut Reader::new(&empty)).is_none());
    }

    /// Snapshot bytes come from outside the process: a restored sender
    /// refuses a collection interval no caller sets, and the deadlines it
    /// builds on a clock or a timestamp at `Millis::MAX` saturate instead
    /// of overflowing.
    #[test]
    fn restore_refuses_or_saturates_extreme_clocks() {
        // State 1 shipped at 1008, unacknowledged; `pending` adds an
        // unshipped change at 1012.
        let sender = |pending: bool| {
            let mut s = Sender::new(blob(b"0"));
            s.set_current(blob(b"1"), 1000);
            s.tick(1008, SRTT, RTO).unwrap();
            if pending {
                s.set_current(blob(b"2"), 1012);
            }
            s
        };
        let restore = |s: &Sender<BlobState>| {
            let mut bytes = Vec::new();
            s.encode_into(&mut bytes);
            Sender::<BlobState>::decode(&mut Reader::new(&bytes))
        };
        for (mindelay, accepted) in [
            (SEND_INTERVAL_MAX, true),
            (SEND_INTERVAL_MAX + 1, false),
            (Millis::MAX, false),
        ] {
            let mut s = sender(true);
            s.mindelay = mindelay;
            assert_eq!(restore(&s).is_some(), accepted, "mindelay {mindelay}");
        }

        // A frame waits behind the collection clock or the frame gate.
        let mut clock = sender(true);
        clock.mindelay_clock = Some(Millis::MAX);
        let mut gate = sender(true);
        gate.sent_states.last_mut().unwrap().timestamp = Millis::MAX;
        for (case, s) in [("mindelay_clock", clock), ("gated timestamp", gate)] {
            let mut r = restore(&s).expect(case);
            for now in [1012, 5000, 100_000] {
                assert_eq!(r.next_wakeup(SRTT, RTO), Some(Millis::MAX), "{case}");
                assert_eq!(r.tick(now, SRTT, RTO), None, "{case} at {now}");
            }
        }

        // Nothing pending: the retransmission deadline saturates, and the
        // heartbeat still falls due.
        let mut unacked = sender(false);
        unacked.sent_states.last_mut().unwrap().timestamp = Millis::MAX;
        let mut r = restore(&unacked).expect("unacked timestamp");
        let beat = 1008 + HEARTBEAT_DURATION;
        assert_eq!(r.next_wakeup(SRTT, RTO), Some(beat));
        assert_eq!(
            r.tick(beat, SRTT, RTO).map(|o| o.kind),
            Some(SendKind::Heartbeat)
        );
    }

    #[test]
    fn future_ack_is_ignored_without_restore() {
        let mut s = Sender::new(blob(b"0"));
        s.handle_ack(42);
        assert_eq!(s.acked_num(), 0);
        assert_eq!(s.latest_sent_num(), 0);
    }

    /// Counters restored at their limit stay there through a data send
    /// carrying an ack, a retransmission, a pure ack and a heartbeat.
    #[test]
    fn restored_counters_at_their_limit_saturate() {
        let full = SenderStats {
            data: u64::MAX,
            retransmits: u64::MAX,
            pure_acks: u64::MAX,
            heartbeats: u64::MAX,
            piggybacked_acks: u64::MAX,
        };
        let mut s = Sender::new(blob(b"0"));
        s.stats = full;
        let mut r = via_snapshot(&s);
        r.set_ack_num(1, true, 1000);
        r.set_current(blob(b"1"), 1000);
        let mut kinds = Vec::new();
        for now in 1000..5000 {
            if now == 1500 {
                r.handle_ack(1);
                r.set_ack_num(2, true, now);
            }
            kinds.extend(r.tick(now, SRTT, RTO).map(|o| o.kind));
        }
        use SendKind::*;
        assert_eq!(kinds, [Data, Retransmit, PureAck, Heartbeat]);
        assert_eq!(r.stats(), &full);
    }

    /// State numbers stay below `u64::MAX`: a snapshot ending there is
    /// refused, and a sender that reaches the number before it resends
    /// that one.
    #[test]
    fn the_last_state_number_is_refused_on_restore_and_never_passed() {
        let mut s = Sender::new(blob(b"0"));
        let restore = |s: &Sender<BlobState>| {
            let mut bytes = Vec::new();
            s.encode_into(&mut bytes);
            Sender::<BlobState>::decode(&mut Reader::new(&bytes))
        };
        s.sent_states[0].num = u64::MAX;
        assert!(restore(&s).is_none());
        s.sent_states[0].num = u64::MAX - 2;
        let mut r = restore(&s).expect("one number left");
        r.set_current(blob(b"1"), 1000);
        let out = r.tick(1008, SRTT, RTO).expect("data");
        assert_eq!((out.new_num, out.kind), (u64::MAX - 1, SendKind::Data));
        r.handle_ack(u64::MAX - 1);
        r.set_current(blob(b"2"), 2000);
        let out = r.tick(2008, SRTT, RTO).expect("resend");
        assert_eq!(
            (out.new_num, out.kind),
            (u64::MAX - 1, SendKind::Retransmit)
        );
        assert_eq!(out.diff, b"2");
        assert!(!r.pending_data());
        // What it writes, it reads back.
        assert_eq!(via_snapshot(&r).latest_sent_num(), u64::MAX - 1);
    }

    /// An authenticated peer's future ack of either of the last two state
    /// numbers does not start a resync, which would need a number past
    /// it; an ack of the number before them does, and the resync ends.
    #[test]
    fn future_acks_of_the_last_two_numbers_are_ignored() {
        let mut s = Sender::new(blob(b"0"));
        s.set_current(blob(b"1"), 1000);
        s.tick(1008, SRTT, RTO).unwrap();
        for ack in [u64::MAX, u64::MAX - 1] {
            let mut r = via_snapshot(&s);
            r.handle_ack(ack);
            assert_eq!((r.acked_num(), r.latest_sent_num()), (0, 1));
        }
        let mut r = via_snapshot(&s);
        r.handle_ack(u64::MAX - 2);
        assert_eq!(r.tick(2000, SRTT, RTO), None);
        let out = r.tick(2008, SRTT, RTO).expect("resync frame");
        assert_eq!((out.new_num, out.kind), (u64::MAX - 1, SendKind::Data));
        r.handle_ack(u64::MAX - 1);
        assert!(!r.pending_data());
    }

    #[test]
    fn restored_sender_resyncs_after_future_ack() {
        // A sender restored from a checkpoint at state 2 learns the peer
        // already has state 5 (produced post-checkpoint, lost in a crash).
        let mut s = Sender::new(blob(b"ckpt"));
        s.set_current(blob(b"v1"), 1000);
        s.tick(1008, SRTT, RTO).unwrap(); // state 1 shipped
        let mut r = via_snapshot(&s);

        r.handle_ack(5);
        assert_eq!(r.latest_sent_num(), 5);
        // Even though the adopted entry's recorded content equals current,
        // the peer's real state 5 is unknown: a frame must go out.
        assert!(r.pending_data());
        // First tick starts the collection clock; the frame follows 8 ms on.
        assert_eq!(r.tick(2000, SRTT, RTO), None);
        let out = r.tick(2008, SRTT, RTO).expect("resync frame");
        assert_eq!(out.kind, SendKind::Data);
        assert_eq!(out.old_num, 5);
        assert_eq!(out.new_num, 6);
        // BlobState's full_diff is the whole value: self-contained.
        assert_eq!(out.diff, b"v1");

        // Until state 6 is acked, retransmissions sourced from the adopted
        // state keep using the self-contained diff.
        let again = r.tick(2008 + RTO + ACK_DELAY, SRTT, RTO).expect("rtx");
        assert_eq!(again.old_num, 5);
        assert_eq!(again.new_num, 6);
        assert_eq!(again.diff, b"v1");

        // Ack of the post-resync state ends the resync.
        r.handle_ack(6);
        assert_eq!(r.acked_num(), 6);
        assert!(!r.pending_data());
        assert_eq!(r.tick(2600, SRTT, RTO), None);
    }

    #[test]
    fn fresh_sent_states_are_assumed_received() {
        let mut s = Sender::new(blob(b"0"));
        s.set_current(blob(b"1"), 1000);
        s.tick(1008, SRTT, RTO).unwrap();
        // A second change diffs against state 1 (in flight), not state 0.
        s.set_current(blob(b"2"), 1010);
        let out = s.tick(1060, SRTT, RTO).expect("second frame");
        assert_eq!(out.old_num, 1);
        assert_eq!(out.new_num, 2);
    }

    thread_local! {
        static EQUIVALENT_CALLS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    /// `Counted::equivalent` calls made on this thread so far.
    fn equivalent_calls() -> u32 {
        EQUIVALENT_CALLS.with(|c| c.get())
    }

    /// A one-byte state that counts its `equivalent` calls.
    #[derive(Debug, Clone)]
    struct Counted(u8);

    impl SyncState for Counted {
        fn diff_from(&self, _source: &Self) -> Vec<u8> {
            vec![self.0]
        }

        fn apply_diff(&mut self, diff: &[u8]) -> Result<(), crate::state::StateError> {
            self.0 = *diff.first().ok_or(crate::state::StateError::Malformed)?;
            Ok(())
        }

        fn full_diff(&self) -> Vec<u8> {
            vec![self.0]
        }

        fn encode_into(&self, out: &mut Vec<u8>) {
            out.push(self.0);
        }

        fn decode(r: &mut Reader<'_>) -> Option<Self> {
            r.byte().map(Counted)
        }

        fn equivalent(&self, other: &Self) -> bool {
            EQUIVALENT_CALLS.with(|c| c.set(c.get() + 1));
            self.0 == other.0
        }
    }

    #[test]
    fn equivalent_runs_once_per_mutation() {
        // A cached answer costs no compare in a release build; a debug
        // build checks each one against a fresh compare.
        let check = u32::from(cfg!(debug_assertions));
        let mut s = Sender::new(Counted(0));
        s.current_mut().0 = 1;
        s.commit(1000);
        assert_eq!(equivalent_calls(), 1, "commit compares once");
        for _ in 0..10 {
            assert!(s.pending_data());
            assert_eq!(s.next_wakeup(SRTT, RTO), Some(1000 + SEND_MINDELAY));
        }
        assert_eq!(equivalent_calls(), 1 + 20 * check, "reads hit the cache");

        let before = equivalent_calls();
        assert_eq!(s.tick(1004, SRTT, RTO), None, "collecting");
        let out = s.tick(1000 + SEND_MINDELAY, SRTT, RTO).expect("data");
        assert_eq!(out.kind, SendKind::Data);
        assert_eq!(
            equivalent_calls() - before,
            2 * check,
            "ticks read the cache"
        );

        // The send leaves the answer known: nothing is pending.
        let before = equivalent_calls();
        assert!(!s.pending_data());
        assert!(s.next_wakeup(SRTT, RTO).is_some());
        assert_eq!(equivalent_calls() - before, 2 * check);

        // A borrow forgets the answer: each read compares until a commit.
        s.current_mut().0 = 2;
        let before = equivalent_calls();
        assert!(s.pending_data());
        assert!(s.pending_data());
        assert_eq!(equivalent_calls() - before, 2);
        s.commit(1100);
        assert!(s.pending_data());
        assert_eq!(equivalent_calls() - before, 3 + check);
    }

    /// One step of [`cached_comparison_agrees_with_a_fresh_one`].
    #[derive(Debug, Clone)]
    enum Step {
        /// [`Sender::set_current`] to a blob.
        Set(Vec<u8>),
        /// A blob written through [`Sender::current_mut`], committed or not.
        Mutate(Vec<u8>, bool),
        /// [`Sender::tick`] this many milliseconds on.
        Tick(u64),
        /// [`Sender::handle_ack`] of the newest sent number plus this much:
        /// stale below 0, current at 0, future above.
        Ack(i64),
        /// An [`Sender::encode_into`]/[`Sender::decode`] round trip, which
        /// lets a future ack start a crash resync.
        Restore,
    }

    fn small_blob() -> impl Strategy<Value = Vec<u8>> {
        // Two symbols, up to two long: equal states come up often.
        proptest::collection::vec(0u8..2, 0..3)
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            small_blob().prop_map(Step::Set),
            (small_blob(), any::<bool>()).prop_map(|(b, commit)| Step::Mutate(b, commit)),
            (0u64..700).prop_map(Step::Tick),
            (-3i64..4).prop_map(Step::Ack),
            Just(Step::Restore),
        ]
    }

    proptest! {
        /// After any interleaving of mutations, commits, ticks, acks and
        /// restores, `pending_data` (and the cached answer behind it, when
        /// one is held) equals a comparison made without the cache.
        #[test]
        fn cached_comparison_agrees_with_a_fresh_one(
            first in small_blob(),
            steps in proptest::collection::vec(step(), 1..60),
        ) {
            let mut s = Sender::new(BlobState(first));
            let mut now = 1000;
            for step in steps {
                match step.clone() {
                    Step::Set(b) => s.set_current(BlobState(b), now),
                    Step::Mutate(b, commit) => {
                        s.current_mut().0 = b;
                        if commit {
                            s.commit(now);
                        }
                    }
                    Step::Tick(dt) => {
                        now += dt;
                        s.tick(now, SRTT, RTO);
                    }
                    Step::Ack(d) => s.handle_ack(s.latest_sent_num().saturating_add_signed(d)),
                    Step::Restore => s = via_snapshot(&s),
                }
                let back = s.sent_states.last().expect("never empty");
                let fresh = !s.current.equivalent(&back.state);
                let resync = s.resync_base.is_some_and(|b| back.num <= b);
                if let Some(cached) = s.differs {
                    prop_assert_eq!(cached, fresh, "cached answer after {:?}", step);
                }
                prop_assert_eq!(s.pending_data(), resync || fresh, "after {:?}", step);
            }
        }
    }
}
