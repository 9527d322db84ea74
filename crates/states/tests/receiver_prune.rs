//! The SSP receiver prunes the input history it has already applied: a
//! differential property test against the keys as typed.
//!
//! A `Sender<UserStream>` types random keys; the instructions it emits
//! reach a `Receiver<UserStream>` through loss, reordering and
//! duplication, and the receiver's acks come back late and out of order.
//! A consumer reading the receiver's newest state as `MoshServer` does
//! (from its own cursor, whenever the newest state advances) must see
//! every typed event exactly once, in order, while every retained state
//! starts where the oldest one ends. Restoring the receiver from its own
//! snapshot bytes changes neither.
//!
//! It lives here, not in `mosh_ssp`, because `UserStream` does.

use mosh_ssp::instruction::{Instruction, PROTOCOL_VERSION};
use mosh_ssp::receiver::Receiver;
use mosh_ssp::sender::{Outgoing, Sender};
use mosh_ssp::wire::Reader;
use mosh_ssp::{Millis, SyncState};
use mosh_states::user::{UserEvent, UserStream};
use proptest::prelude::*;

const SRTT: f64 = 100.0;
const RTO: Millis = 300;

fn instruction(out: Outgoing) -> Instruction {
    Instruction {
        protocol_version: PROTOCOL_VERSION,
        old_num: out.old_num,
        new_num: out.new_num,
        ack_num: 0,
        throwaway_num: out.throwaway_num,
        diff: out.diff,
    }
}

/// Reads the retained states back from the receiver's own snapshot bytes
/// and panics unless each starts where the oldest ends.
fn assert_pruned(receiver: &Receiver<UserStream>) {
    let mut bytes = Vec::new();
    receiver.encode_into(&mut bytes);
    let mut r = Reader::new(&bytes);
    let count = r.varint().expect("state count");
    let states: Vec<UserStream> = (0..count)
        .map(|_| {
            r.varint().expect("number");
            r.varint().expect("timestamp");
            UserStream::decode(&mut r).expect("state")
        })
        .collect();
    let floor = states[0].end_index();
    for s in &states {
        assert_eq!(s.base_index(), floor, "a retained state keeps pruned input");
    }
}

/// The receiving end: the receiver and a consumer cursor over it.
struct Server {
    receiver: Receiver<UserStream>,
    applied_through: u64,
    seen: Vec<UserEvent>,
}

impl Server {
    /// Processes one instruction, hands newly arrived events to the
    /// consumer, and returns the ack to send back.
    fn process(&mut self, instruction: &Instruction, now: Millis) -> u64 {
        let processed = self.receiver.process(instruction, now);
        assert_pruned(&self.receiver);
        if processed.advanced {
            let latest = self.receiver.latest();
            assert!(latest.base_index() <= self.applied_through);
            for (idx, ev) in latest.events_from(self.applied_through) {
                assert_eq!(idx, self.seen.len() as u64, "events out of order");
                self.seen.push(ev.clone());
                self.applied_through = idx + 1;
            }
        }
        self.receiver.latest_num()
    }

    /// Replaces the receiver with its decoded snapshot.
    fn restore(&mut self) {
        let mut bytes = Vec::new();
        self.receiver.encode_into(&mut bytes);
        let mut r = Reader::new(&bytes);
        self.receiver = Receiver::decode(&mut r).expect("a live receiver decodes");
        assert_eq!(r.remaining(), 0);
        let mut again = Vec::new();
        self.receiver.encode_into(&mut again);
        assert_eq!(again, bytes, "decode then encode is the identity");
        assert_pruned(&self.receiver);
    }
}

/// A throwaway past every retained state, which only a misbehaving peer
/// sends, is refused whole: the instruction is counted as missing its
/// source and every state stays as it was.
#[test]
fn a_throwaway_past_every_state_is_refused_whole() {
    let mut receiver = Receiver::new(UserStream::new());
    let mut input = UserStream::new();
    input.push_keystroke(b"a");
    let bogus = Instruction {
        protocol_version: PROTOCOL_VERSION,
        old_num: 0,
        new_num: 1,
        ack_num: 0,
        throwaway_num: 5,
        diff: input.diff_from(&UserStream::new()),
    };
    assert!(!receiver.process(&bogus, 10).new_state);
    assert_eq!(receiver.stats().missing_source, 1);
    assert_eq!(receiver.latest_num(), 0);
    // State 0 is still held: the honest instruction sourced from it applies.
    let honest = Instruction {
        throwaway_num: 0,
        ..bogus
    };
    assert!(receiver.process(&honest, 20).new_state);
    assert_eq!(receiver.latest_num(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each step is an action and an argument that picks what it does:
    /// type a key or a resize; let time pass and tick the sender (its
    /// instruction lost, sent once, or sent twice); deliver one
    /// instruction in flight (any of them, one time in eight keeping a
    /// copy to deliver again); return one pending ack (any of them);
    /// restore the receiver. Delivery is the likeliest step, so the
    /// receiver often holds three or four states at once. A clean link
    /// then drains whatever is left.
    #[test]
    fn a_pruned_receiver_hands_over_each_event_once(
        steps in proptest::collection::vec((0u8..8, any::<u32>()), 1..300),
    ) {
        let mut sender = Sender::new(UserStream::new());
        let mut server = Server {
            receiver: Receiver::new(UserStream::new()),
            applied_through: 0,
            seen: Vec::new(),
        };
        let mut typed: Vec<UserEvent> = Vec::new();
        let mut in_flight: Vec<Instruction> = Vec::new();
        let mut acks: Vec<u64> = Vec::new();
        let mut now: Millis = 0;

        for (action, arg) in steps {
            match action {
                0 | 1 => {
                    let input = sender.current_mut();
                    if arg % 16 == 0 {
                        input.push_resize(80 + (arg % 7) as usize, 24);
                    } else {
                        input.push_keystroke(&[arg as u8]);
                    }
                    let (_, event) = input.events_from(typed.len() as u64).next().expect("pushed");
                    typed.push(event.clone());
                    sender.commit(now);
                }
                2 => {
                    now += Millis::from(arg % 60);
                    if let Some(out) = sender.tick(now, SRTT, RTO) {
                        let copies = [0, 1, 1, 2][(arg >> 8) as usize % 4];
                        for _ in 0..copies {
                            in_flight.push(instruction(out.clone()));
                        }
                    }
                }
                3..=5 if !in_flight.is_empty() => {
                    let i = arg as usize % in_flight.len();
                    let instr = if arg >> 29 == 0 {
                        in_flight[i].clone()
                    } else {
                        in_flight.swap_remove(i)
                    };
                    acks.push(server.process(&instr, now));
                }
                6 if !acks.is_empty() => {
                    let ack = acks.swap_remove(arg as usize % acks.len());
                    sender.handle_ack(ack);
                }
                7 => server.restore(),
                _ => {}
            }
        }

        // A clean link: whatever is still in flight lands, then every
        // instruction is delivered and acknowledged at once.
        for instr in std::mem::take(&mut in_flight) {
            sender.handle_ack(server.process(&instr, now));
        }
        for _ in 0..100 {
            now += 50;
            if let Some(out) = sender.tick(now, SRTT, RTO) {
                sender.handle_ack(server.process(&instruction(out), now));
            }
        }
        prop_assert_eq!(server.seen, typed);
    }
}
