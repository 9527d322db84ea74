//! The client→server state object: the history of the user's input.
//!
//! Paper §2: "From client to server, the objects represent the history of
//! the user's input." Its diff semantics differ fundamentally from the
//! screen's: "for user inputs, the diff contains **every intervening
//! keystroke**" — input must never be skipped, while screens may be.
//!
//! Events carry global indices, so pruning acknowledged history on either
//! end (via [`mosh_ssp::SyncState::subtract`]) never changes what a diff
//! contains.

use mosh_ssp::{StateError, SyncState};
use mosh_terminal::MAX_DIMENSION;
use mosh_wire::{put_bytes, put_varint, Reader};
use std::collections::VecDeque;

/// One unit of user input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UserEvent {
    /// Bytes of one keystroke (a printable character, control byte, or a
    /// multi-byte escape sequence such as an arrow key).
    Keystroke(Vec<u8>),
    /// The client's window changed size; the server must follow.
    Resize {
        /// New width in columns.
        width: u16,
        /// New height in rows.
        height: u16,
    },
}

/// An append-only stream of user events with global indexing.
///
/// # Examples
///
/// ```
/// use mosh_ssp::SyncState;
/// use mosh_states::user::{UserEvent, UserStream};
///
/// let mut client = UserStream::new();
/// client.push_keystroke(b"l");
/// client.push_keystroke(b"s");
///
/// let mut server = UserStream::new();
/// server.apply_diff(&client.diff_from(&UserStream::new())).unwrap();
/// let events: Vec<_> = server.events_from(0).collect();
/// assert_eq!(events.len(), 2);
/// assert_eq!(*events[1].1, UserEvent::Keystroke(b"s".to_vec()));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UserStream {
    /// Global index of the first retained event.
    base: u64,
    events: VecDeque<UserEvent>,
}

impl UserStream {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a keystroke.
    pub fn push_keystroke(&mut self, bytes: &[u8]) {
        self.events.push_back(UserEvent::Keystroke(bytes.to_vec()));
    }

    /// Appends a window resize, unless the receiver would refuse it (a
    /// dimension of 0 or above 5000): a diff carrying one is dropped whole,
    /// so every later diff would be too. Returns whether it was appended.
    pub fn push_resize(&mut self, width: usize, height: usize) -> bool {
        let checked = |d: usize| u64::try_from(d).ok().and_then(dimension);
        let (Some(width), Some(height)) = (checked(width), checked(height)) else {
            return false;
        };
        self.events.push_back(UserEvent::Resize { width, height });
        true
    }

    /// Global index one past the last event (total events ever appended).
    pub fn end_index(&self) -> u64 {
        self.base + self.events.len() as u64
    }

    /// Global index of the first retained event.
    pub fn base_index(&self) -> u64 {
        self.base
    }

    /// Iterates retained events with global index `>= from`.
    pub fn events_from(&self, from: u64) -> impl Iterator<Item = (u64, &UserEvent)> {
        let skip = from.saturating_sub(self.base) as usize;
        self.events
            .iter()
            .enumerate()
            .skip(skip)
            .map(move |(i, e)| (self.base + i as u64, e))
    }

    fn encode_event(out: &mut Vec<u8>, event: &UserEvent) {
        match event {
            UserEvent::Keystroke(bytes) => {
                put_varint(out, 1);
                put_bytes(out, bytes);
            }
            UserEvent::Resize { width, height } => {
                put_varint(out, 2);
                put_varint(out, u64::from(*width));
                put_varint(out, u64::from(*height));
            }
        }
    }

    fn decode_event(r: &mut Reader<'_>) -> Option<UserEvent> {
        match r.varint()? {
            1 => Some(UserEvent::Keystroke(r.bytes()?.to_vec())),
            2 => Some(UserEvent::Resize {
                width: dimension(r.varint()?)?,
                height: dimension(r.varint()?)?,
            }),
            _ => None,
        }
    }
}

/// `v` as a window dimension the receiver accepts: 1 to [`MAX_DIMENSION`].
fn dimension(v: u64) -> Option<u16> {
    u16::try_from(v)
        .ok()
        .filter(|d| (1..=MAX_DIMENSION).contains(d))
}

impl SyncState for UserStream {
    /// `subtract` genuinely prunes acknowledged history here (global
    /// indices make it invisible to diffs), so the sender and the receiver
    /// run it.
    const SUBTRACTS: bool = true;

    /// Every intervening event from `source`'s end to ours, with the
    /// starting global index so overlap and pruning are unambiguous.
    fn diff_from(&self, source: &Self) -> Vec<u8> {
        let start = source.end_index().max(self.base);
        let mut out = Vec::new();
        put_varint(&mut out, start);
        put_varint(&mut out, self.end_index().saturating_sub(start));
        for (_, e) in self.events_from(start) {
            Self::encode_event(&mut out, e);
        }
        out
    }

    /// Every retained event from the base: the most any diff can carry.
    /// A receiver behind the base has lost pruned (acknowledged) events
    /// for good and still rejects the gap — which cannot arise in
    /// recovery, because a checkpointing endpoint never acknowledges
    /// (and therefore never lets the peer prune) past its checkpoint.
    fn full_diff(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    fn apply_diff(&mut self, diff: &[u8]) -> Result<(), StateError> {
        let mut r = Reader::new(diff);
        let start = r.varint().ok_or(StateError::Malformed)?;
        let count = r.varint().ok_or(StateError::Malformed)?;
        if start > self.end_index() {
            // A gap would mean lost keystrokes; SSP numbering prevents it.
            return Err(StateError::WrongSource);
        }
        for i in 0..count {
            let event = Self::decode_event(&mut r).ok_or(StateError::Malformed)?;
            let idx = start + i;
            if idx < self.end_index() {
                continue; // Overlap with already-known events.
            }
            self.events.push_back(event);
        }
        Ok(())
    }

    /// The base index plus the retained events: the layout of a diff
    /// starting at the base, so the event codec is the wire's.
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.base);
        put_varint(out, self.events.len() as u64);
        for e in &self.events {
            Self::encode_event(out, e);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let base = r.varint()?;
        let count = r.varint()?;
        let mut events = VecDeque::new();
        for _ in 0..count {
            events.push_back(Self::decode_event(r)?);
        }
        Some(UserStream { base, events })
    }

    fn equivalent(&self, other: &Self) -> bool {
        // Single writer + append-only: equal end indices imply equal
        // histories.
        self.end_index() == other.end_index()
    }

    fn subtract(&mut self, prefix: &Self) {
        let cut = prefix.end_index().min(self.end_index());
        while self.base < cut {
            self.events.pop_front();
            self.base += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_law() {
        let empty = UserStream::new();
        let mut a = UserStream::new();
        a.push_keystroke(b"h");
        a.push_keystroke(b"i");
        a.push_resize(100, 40);

        let mut x = empty.clone();
        x.apply_diff(&a.diff_from(&empty)).unwrap();
        assert!(x.equivalent(&a));
        assert_eq!(x, a);
    }

    #[test]
    fn diff_contains_every_intervening_keystroke() {
        let mut s = UserStream::new();
        s.push_keystroke(b"a");
        let snapshot = s.clone();
        s.push_keystroke(b"b");
        s.push_keystroke(b"c");
        let mut target = snapshot.clone();
        target.apply_diff(&s.diff_from(&snapshot)).unwrap();
        let keys: Vec<_> = target.events_from(0).map(|(_, e)| e.clone()).collect();
        assert_eq!(keys.len(), 3);
        assert_eq!(keys[2], UserEvent::Keystroke(b"c".to_vec()));
    }

    #[test]
    fn overlapping_diffs_are_idempotent() {
        let base = UserStream::new();
        let mut s = UserStream::new();
        s.push_keystroke(b"x");
        s.push_keystroke(b"y");
        let diff = s.diff_from(&base);
        let mut t = UserStream::new();
        t.apply_diff(&diff).unwrap();
        t.apply_diff(&diff).unwrap(); // Duplicate application.
        assert_eq!(t.end_index(), 2);
    }

    #[test]
    fn gap_is_rejected() {
        let mut s = UserStream::new();
        s.push_keystroke(b"a");
        let snap = s.clone();
        s.push_keystroke(b"b");
        let diff = s.diff_from(&snap); // starts at index 1
        let mut fresh = UserStream::new(); // end = 0: gap!
        assert_eq!(fresh.apply_diff(&diff), Err(StateError::WrongSource));
    }

    #[test]
    fn subtract_prunes_without_changing_diffs() {
        let mut s = UserStream::new();
        s.push_keystroke(b"1");
        s.push_keystroke(b"2");
        let acked = s.clone();
        s.push_keystroke(b"3");

        let diff_before = s.diff_from(&acked);
        s.subtract(&acked);
        assert_eq!(s.base_index(), 2);
        let diff_after = s.diff_from(&acked);
        assert_eq!(diff_before, diff_after);
    }

    #[test]
    fn subtract_on_both_ends_stays_consistent() {
        let mut client = UserStream::new();
        let mut server = UserStream::new();
        client.push_keystroke(b"a");
        client.push_keystroke(b"b");
        server
            .apply_diff(&client.diff_from(&UserStream::new()))
            .unwrap();
        let acked = client.clone();
        client.subtract(&acked);
        server.subtract(&acked);
        client.push_keystroke(b"c");
        let snap_acked = acked.clone();
        server.apply_diff(&client.diff_from(&snap_acked)).unwrap();
        assert_eq!(server.end_index(), 3);
        let last: Vec<_> = server.events_from(2).collect();
        assert_eq!(*last[0].1, UserEvent::Keystroke(b"c".to_vec()));
    }

    #[test]
    fn events_from_respects_global_indices() {
        let mut s = UserStream::new();
        for k in [b"a", b"b", b"c", b"d"] {
            s.push_keystroke(k);
        }
        let mut acked = UserStream::new();
        acked.push_keystroke(b"a");
        acked.push_keystroke(b"b");
        s.subtract(&acked);
        let got: Vec<u64> = s.events_from(0).map(|(i, _)| i).collect();
        assert_eq!(got, vec![2, 3]);
        let got: Vec<u64> = s.events_from(3).map(|(i, _)| i).collect();
        assert_eq!(got, vec![3]);
    }

    #[test]
    fn resize_events_survive_the_wire() {
        let mut s = UserStream::new();
        s.push_resize(132, 50);
        let mut t = UserStream::new();
        t.apply_diff(&s.diff_from(&UserStream::new())).unwrap();
        assert_eq!(
            t.events_from(0).next().unwrap().1,
            &UserEvent::Resize {
                width: 132,
                height: 50
            }
        );
    }

    #[test]
    fn empty_diff_between_equal_states() {
        let mut a = UserStream::new();
        a.push_keystroke(b"k");
        let b = a.clone();
        let diff = a.diff_from(&b);
        let mut c = b.clone();
        c.apply_diff(&diff).unwrap();
        assert!(c.equivalent(&a));
    }

    #[test]
    fn malformed_diffs_are_rejected() {
        let mut s = UserStream::new();
        assert_eq!(s.apply_diff(&[0xff]), Err(StateError::Malformed));
        assert_eq!(s.apply_diff(&[0, 1, 9, 9]), Err(StateError::Malformed));
    }

    #[test]
    fn resizes_the_receiver_would_refuse_are_refused() {
        // start 0, one event: a resize to `width` × 30.
        let resize_diff = |width: u64| {
            let mut d = vec![0, 1, 2];
            put_varint(&mut d, width);
            put_varint(&mut d, 30);
            d
        };
        let mut s = UserStream::new();
        for width in [0, 5001, 65_536, 65_537] {
            assert_eq!(
                s.apply_diff(&resize_diff(width)),
                Err(StateError::Malformed),
                "width {width}"
            );
            assert_eq!(s.end_index(), 0);
        }
        s.apply_diff(&resize_diff(5000)).unwrap();
        assert_eq!(s.end_index(), 1);
        // The sender refuses to queue what the receiver would refuse.
        for (width, height) in [(0, 30), (80, 5001), (65_536, 30)] {
            assert!(!s.push_resize(width, height));
        }
        assert_eq!(s.end_index(), 1);
    }

    #[test]
    fn full_diff_carries_every_retained_event() {
        let mut s = UserStream::new();
        s.push_keystroke(b"a");
        s.push_keystroke(b"b");
        s.push_resize(90, 30);
        // Any receiver at or past the base converges.
        let mut fresh = UserStream::new();
        fresh.apply_diff(&s.full_diff()).unwrap();
        assert_eq!(fresh, s);
        let mut partial = UserStream::new();
        partial.push_keystroke(b"a");
        partial.apply_diff(&s.full_diff()).unwrap();
        assert_eq!(partial, s);
    }

    #[test]
    fn snapshot_round_trips_pruned_stream() {
        let mut s = UserStream::new();
        for k in [b"1", b"2", b"3", b"4"] {
            s.push_keystroke(k);
        }
        let mut acked = UserStream::new();
        acked.push_keystroke(b"1");
        acked.push_keystroke(b"2");
        s.subtract(&acked); // base = 2
        let mut buf = Vec::new();
        s.encode_into(&mut buf);
        let mut r = Reader::new(&buf);
        let back = UserStream::decode(&mut r).expect("valid snapshot");
        assert_eq!(r.remaining(), 0);
        assert_eq!(back, s);
        assert_eq!(back.base_index(), 2);
    }

    #[test]
    fn snapshot_decode_rejects_truncation() {
        let mut s = UserStream::new();
        s.push_keystroke(b"abc");
        s.push_resize(80, 24);
        let mut buf = Vec::new();
        s.encode_into(&mut buf);
        for cut in 1..buf.len() {
            assert!(
                UserStream::decode(&mut Reader::new(&buf[..cut])).is_none(),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn multibyte_keystrokes_round_trip() {
        let mut s = UserStream::new();
        s.push_keystroke("é".as_bytes());
        s.push_keystroke(b"\x1b[A"); // up arrow
        let mut t = UserStream::new();
        t.apply_diff(&s.diff_from(&UserStream::new())).unwrap();
        let events: Vec<_> = t.events_from(0).map(|(_, e)| e.clone()).collect();
        assert_eq!(events[0], UserEvent::Keystroke("é".as_bytes().to_vec()));
        assert_eq!(events[1], UserEvent::Keystroke(b"\x1b[A".to_vec()));
    }
}
