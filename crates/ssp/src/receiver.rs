//! The transport receiver: applies instructions to stored state copies.
//!
//! The receiver keeps copies of recent states, keyed by number. An arriving
//! instruction names a source state; if the receiver has it, applying the
//! diff yields the target state. Duplicates and reordered instructions are
//! harmless by design — each is an idempotent fast-forward (paper §2.2) —
//! and an instruction whose source is unknown is simply dropped (the sender
//! will retransmit from an acknowledged state).

use crate::instruction::Instruction;
use crate::sender::{decode_states, encode_states, subtract_oldest, TimestampedState};
use crate::state::SyncState;
use crate::Millis;
use mosh_wire::{put_varint, Reader};

/// Cap on stored received states (Mosh keeps up to 1024).
const MAX_RECEIVED_STATES: usize = 1024;

/// Result of processing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Processed {
    /// A state we did not have before was created.
    pub new_state: bool,
    /// The newest state number advanced (the application should re-read
    /// [`Receiver::latest`]).
    pub advanced: bool,
    /// This instruction carried data we already had (a retransmission —
    /// the peer has evidently not seen our ack).
    pub duplicate_data: bool,
}

/// Receiver counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// Instructions applied to produce a new state.
    pub applied: u64,
    /// Duplicate instructions ignored.
    pub duplicates: u64,
    /// Instructions dropped for referencing an unknown source state.
    pub missing_source: u64,
}

/// The receiver half of an SSP transport endpoint.
#[derive(Debug)]
pub struct Receiver<R: SyncState> {
    states: Vec<TimestampedState<R>>,
    stats: ReceiverStats,
}

impl<R: SyncState> Receiver<R> {
    /// Creates a receiver whose state number 0 is `initial`.
    pub fn new(initial: R) -> Self {
        Receiver {
            states: vec![TimestampedState {
                num: 0,
                timestamp: 0,
                state: initial,
            }],
            stats: ReceiverStats::default(),
        }
    }

    /// Appends the receiver for a session snapshot: the stored state
    /// copies, oldest first, then the counters.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_states(&self.states, out);
        let st = &self.stats;
        for v in [st.applied, st.duplicates, st.missing_source] {
            put_varint(out, v);
        }
    }

    /// Reads a receiver written by [`Receiver::encode_into`]. `None` when
    /// the state list is empty or its numbers are not strictly increasing.
    /// A snapshot written before receivers pruned is pruned here, so a
    /// restored receiver re-encodes as a live one would.
    pub fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let mut receiver = Receiver {
            states: decode_states(r)?,
            stats: ReceiverStats {
                applied: r.varint()?,
                duplicates: r.varint()?,
                missing_source: r.varint()?,
            },
        };
        receiver.prune();
        Some(receiver)
    }

    /// Receiver counters.
    pub fn stats(&self) -> &ReceiverStats {
        &self.stats
    }

    /// The newest state received.
    pub fn latest(&self) -> &R {
        &self.states.last().expect("never empty").state
    }

    /// The newest state's number (this is what we acknowledge).
    pub fn latest_num(&self) -> u64 {
        self.states.last().expect("never empty").num
    }

    /// Processes one instruction at `now`.
    pub fn process(&mut self, instruction: &Instruction, now: Millis) -> Processed {
        // Throwaway: the sender promises never to reference older states.
        // One past every state we hold comes only from a misbehaving peer
        // (the protocol never throws away the sender's own diff source):
        // refused whole, so the list is never emptied.
        let keep_from = instruction.throwaway_num;
        if keep_from > self.latest_num() {
            self.stats.missing_source = self.stats.missing_source.saturating_add(1);
            return Processed {
                new_state: false,
                advanced: false,
                duplicate_data: false,
            };
        }
        self.states.retain(|s| s.num >= keep_from);
        // Before any early return below, so every path leaves the list pruned;
        // a state inserted below is built on a pruned source, so it is
        // pruned too.
        self.prune();

        // Duplicate of a state we already have?
        if self.states.iter().any(|s| s.num == instruction.new_num) {
            self.stats.duplicates = self.stats.duplicates.saturating_add(1);
            return Processed {
                new_state: false,
                advanced: false,
                // Data-bearing duplicates signal a lost ack.
                duplicate_data: instruction.new_num != instruction.old_num
                    || !instruction.diff.is_empty(),
            };
        }

        let Some(source) = self.states.iter().find(|s| s.num == instruction.old_num) else {
            self.stats.missing_source = self.stats.missing_source.saturating_add(1);
            return Processed {
                new_state: false,
                advanced: false,
                duplicate_data: false,
            };
        };

        let mut state = source.state.clone();
        if state.apply_diff(&instruction.diff).is_err() {
            self.stats.missing_source = self.stats.missing_source.saturating_add(1);
            return Processed {
                new_state: false,
                advanced: false,
                duplicate_data: false,
            };
        }

        let advanced = instruction.new_num > self.latest_num();
        let insert_at = self.states.partition_point(|s| s.num < instruction.new_num);
        // Grows only to its high-water mark, as the sender's list does.
        self.states.reserve_exact(1);
        self.states.insert(
            insert_at,
            TimestampedState {
                num: instruction.new_num,
                timestamp: now,
                state,
            },
        );
        self.stats.applied = self.stats.applied.saturating_add(1);

        if self.states.len() > MAX_RECEIVED_STATES {
            // Drop the second-oldest: the oldest is the last-acked fallback.
            self.states.remove(1);
        }

        Processed {
            new_state: true,
            advanced,
            duplicate_data: false,
        }
    }

    /// Reclaims the history every retained state shares with the oldest,
    /// as Mosh's receiver does after each receive (the sender runs the
    /// same pass on each ack). The application has already consumed that
    /// history, and a diff applies to a pruned state as it did to the
    /// whole one. Skipped for states whose `subtract` is a no-op.
    fn prune(&mut self) {
        if R::SUBTRACTS {
            subtract_oldest(&mut self.states);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::PROTOCOL_VERSION;
    use crate::state::BlobState;

    fn instr(old: u64, new: u64, throwaway: u64, diff: &[u8]) -> Instruction {
        Instruction {
            protocol_version: PROTOCOL_VERSION,
            old_num: old,
            new_num: new,
            ack_num: 0,
            throwaway_num: throwaway,
            diff: diff.to_vec(),
        }
    }

    #[test]
    fn applies_simple_chain() {
        let mut r = Receiver::new(BlobState(b"0".to_vec()));
        let p = r.process(&instr(0, 1, 0, b"one"), 10);
        assert!(p.new_state && p.advanced);
        assert_eq!(r.latest().0, b"one");
        assert_eq!(r.latest_num(), 1);
    }

    #[test]
    fn skips_intermediate_states() {
        let mut r = Receiver::new(BlobState(b"0".to_vec()));
        // The sender jumped straight from 0 to 5.
        let p = r.process(&instr(0, 5, 0, b"five"), 10);
        assert!(p.advanced);
        assert_eq!(r.latest_num(), 5);
    }

    #[test]
    fn duplicates_are_ignored_but_flagged() {
        let mut r = Receiver::new(BlobState(b"0".to_vec()));
        r.process(&instr(0, 1, 0, b"one"), 10);
        let p = r.process(&instr(0, 1, 0, b"one"), 20);
        assert!(!p.new_state);
        assert!(p.duplicate_data, "retransmission implies lost ack");
        assert_eq!(r.stats().duplicates, 1);
    }

    #[test]
    fn heartbeats_are_not_flagged_as_duplicate_data() {
        let mut r = Receiver::new(BlobState(b"0".to_vec()));
        let p = r.process(&instr(0, 0, 0, b""), 10);
        assert!(!p.duplicate_data);
        assert!(!p.new_state);
    }

    #[test]
    fn missing_source_is_dropped() {
        let mut r = Receiver::new(BlobState(b"0".to_vec()));
        let p = r.process(&instr(7, 8, 0, b"eight"), 10);
        assert!(!p.new_state);
        assert_eq!(r.stats().missing_source, 1);
        assert_eq!(r.latest_num(), 0);
    }

    #[test]
    fn out_of_order_delivery_converges() {
        let mut r = Receiver::new(BlobState(b"0".to_vec()));
        // Instruction 2->3 arrives before 0->2.
        let p = r.process(&instr(2, 3, 0, b"three"), 10);
        assert!(!p.new_state); // Source 2 unknown yet.
        let p = r.process(&instr(0, 2, 0, b"two"), 11);
        assert!(p.advanced);
        // Retransmission of 2->3 now applies.
        let p = r.process(&instr(2, 3, 0, b"three"), 12);
        assert!(p.advanced);
        assert_eq!(r.latest().0, b"three");
    }

    #[test]
    fn older_state_does_not_regress_latest() {
        let mut r = Receiver::new(BlobState(b"0".to_vec()));
        r.process(&instr(0, 5, 0, b"five"), 10);
        let p = r.process(&instr(0, 3, 0, b"three"), 11);
        assert!(p.new_state);
        assert!(!p.advanced);
        assert_eq!(r.latest_num(), 5);
        assert_eq!(r.latest().0, b"five");
    }

    #[test]
    fn throwaway_discards_old_states() {
        let mut r = Receiver::new(BlobState(b"0".to_vec()));
        r.process(&instr(0, 1, 0, b"one"), 10);
        r.process(&instr(1, 2, 1, b"two"), 20);
        // State 0 is gone; an instruction sourcing it is now undeliverable.
        let p = r.process(&instr(0, 9, 1, b"nine"), 30);
        assert!(!p.new_state);
    }

    #[test]
    fn snapshot_round_trips_and_rejects_a_bad_state_list() {
        let mut r = Receiver::new(BlobState(b"0".to_vec()));
        r.process(&instr(0, 2, 0, b"two"), 10);
        r.process(&instr(0, 2, 0, b"two"), 11);
        r.process(&instr(9, 10, 0, b"ten"), 12);
        let mut bytes = Vec::new();
        r.encode_into(&mut bytes);
        let mut reader = Reader::new(&bytes);
        let mut back = Receiver::<BlobState>::decode(&mut reader).expect("decodes");
        assert_eq!(reader.remaining(), 0);
        assert_eq!((back.latest(), back.latest_num()), (r.latest(), 2));
        assert_eq!(back.stats(), r.stats());
        // The older copy came along too: a diff sourced from it applies.
        assert!(back.process(&instr(0, 3, 0, b"three"), 20).new_state);

        // count 2 | num 0, ts 0, "0" | num 2, ...
        assert_eq!(bytes[..6], [2, 0, 0, 1, b'0', 2]);
        let mut unordered = bytes.clone();
        unordered[1] = 2;
        assert!(Receiver::<BlobState>::decode(&mut Reader::new(&unordered)).is_none());
        let empty = [0, 1, 1, 1]; // no states, three counters
        assert!(Receiver::<BlobState>::decode(&mut Reader::new(&empty)).is_none());
    }

    /// Counters restored at their limit (snapshot bytes come from outside
    /// the process) stay there through an apply, a duplicate and a
    /// missing source.
    #[test]
    fn restored_counters_at_their_limit_saturate() {
        let mut r = Receiver::new(BlobState(b"0".to_vec()));
        r.stats = ReceiverStats {
            applied: u64::MAX,
            duplicates: u64::MAX,
            missing_source: u64::MAX,
        };
        let mut bytes = Vec::new();
        r.encode_into(&mut bytes);
        let mut r = Receiver::<BlobState>::decode(&mut Reader::new(&bytes)).expect("decodes");
        assert!(r.process(&instr(0, 1, 0, b"one"), 10).new_state);
        assert!(!r.process(&instr(0, 1, 0, b"one"), 11).new_state);
        assert!(!r.process(&instr(7, 8, 0, b"eight"), 12).new_state);
        let st = r.stats();
        assert_eq!(
            [st.applied, st.duplicates, st.missing_source],
            [u64::MAX; 3]
        );
    }

    #[test]
    fn storage_is_bounded() {
        let mut r = Receiver::new(BlobState(b"0".to_vec()));
        for i in 0..2000u64 {
            r.process(&instr(i, i + 1, 0, b"x"), i);
        }
        assert!(r.states.len() <= MAX_RECEIVED_STATES);
        assert_eq!(r.latest_num(), 2000);
    }
}
