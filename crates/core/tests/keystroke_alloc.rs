//! Heap allocations of a keystroke's round trip and of an idle
//! heartbeat, counted.
//!
//! A client and a shell server are driven directly, each datagram handed
//! from one's `tick` to the other's `receive` after a fixed one-way delay,
//! so every allocation counted is the two endpoints' own. Once the prompt
//! has arrived, 200 keys are typed 200 ms apart; the count over those 40
//! seconds, per echoed key, covers the keystroke, its datagram, the echo
//! frame, the acks and the predictor. Then the pair idles, and the count
//! per heartbeat datagram covers sealing one and opening it at the other
//! end.
//!
//! Its own test binary, because a `#[global_allocator]` is per binary.
//! The counter is thread-local, so the harness running tests on parallel
//! threads does not mix their counts.

use mosh_core::{LineShell, MoshClient, MoshServer};
use mosh_crypto::Base64Key;
use mosh_net::Addr;
use mosh_prediction::DisplayPreference;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the counter is a thread-local `Cell` with a constant
// initialiser and no destructor, so touching it allocates nothing and is
// valid at any point of a thread's life.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's contract is `System.alloc`'s, passed through.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: the caller's contract is `System.dealloc`'s, passed through.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: the caller's contract is `System.alloc_zeroed`'s, passed through.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    // SAFETY: the caller's contract is `System.realloc`'s, passed through.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) this thread makes inside `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const C: Addr = Addr::new(1, 1000);
const DELAY: u64 = 20;
const KEYS: u64 = 200;
const KEY_GAP: u64 = 200;

/// A client and a server joined by a lossless link of `DELAY` each way.
struct Pair {
    client: MoshClient,
    server: MoshServer,
    now: u64,
    /// Datagrams in flight, in arrival order: arrival time, whether the
    /// server is the receiver, the wire.
    flight: VecDeque<(u64, bool, Vec<u8>)>,
}

impl Pair {
    /// A connected pair once the shell's prompt has reached the client.
    fn connected() -> Pair {
        let key = Base64Key::from_bytes([7; 16]);
        let server_addr = Addr::new(2, 60001);
        let mut pair = Pair {
            client: MoshClient::new(
                key.clone(),
                server_addr,
                80,
                24,
                DisplayPreference::Adaptive,
            ),
            server: MoshServer::new(key, Box::new(LineShell::new())),
            now: 0,
            flight: VecDeque::with_capacity(64),
        };
        while pair.client.server_frame().row_text(0) != "$" {
            assert!(pair.now < 10_000, "no prompt after {} ms", pair.now);
            pair.run_until(pair.now + 50);
        }
        pair
    }

    /// Steps both endpoints and the link, event by event, to `end`.
    fn run_until(&mut self, end: u64) {
        loop {
            let mut next = self.client.next_wakeup(self.now);
            next = next.min(self.server.next_wakeup(self.now));
            if let Some(&(at, _, _)) = self.flight.front() {
                next = next.min(at);
            }
            if next > end {
                self.now = end;
                return;
            }
            self.now = next;
            while self.flight.front().is_some_and(|d| d.0 <= self.now) {
                let (_, to_server, wire) = self.flight.pop_front().expect("checked");
                if to_server {
                    self.server.receive(self.now, C, &wire);
                } else {
                    self.client.receive(self.now, &wire);
                }
            }
            for (_, wire) in self.client.tick(self.now) {
                self.flight.push_back((self.now + DELAY, true, wire));
            }
            for (_, wire) in self.server.tick(self.now) {
                self.flight.push_back((self.now + DELAY, false, wire));
            }
        }
    }

    /// Datagrams both ends have sent so far.
    fn sent(&self) -> u64 {
        self.client.transport_stats().datagrams_sent + self.server.transport_stats().datagrams_sent
    }
}

#[test]
fn a_keystroke_round_trip_allocates_a_bounded_number_of_times() {
    // 83 allocations per echoed key (release) while the crypto session
    // lent plaintext buffers from a pool, each layer copied the received
    // payload out of them, and each send collected its fragments, their
    // encodings and the wires into vectors of their own; 64 with one
    // buffer per datagram (12 809 for the 200 keys). Four datagrams
    // cross per key. A debug build
    // also replays every frame diff through a fresh terminal (the
    // differ's convergence check), 9 allocations per key more: 92 and 73.
    const MAX_PER_KEY: u64 = if cfg!(debug_assertions) { 64 + 9 } else { 64 };
    let mut pair = Pair::connected();
    let start = pair.now;
    let typed = allocations_in(|| {
        for i in 0..KEYS {
            pair.run_until(start + i * KEY_GAP);
            let key = b'a' + (i % 26) as u8;
            pair.client.keystroke(pair.now, &[key]);
        }
        pair.run_until(start + KEYS * KEY_GAP);
    });
    assert_eq!(
        pair.client.echo_ack(),
        pair.client.input_end_index(),
        "every key echoed"
    );
    let per_key = typed / KEYS;
    assert!(
        per_key <= MAX_PER_KEY,
        "{typed} allocations for {KEYS} keys: {per_key} per key"
    );
}

#[test]
fn an_idle_heartbeat_allocates_a_bounded_number_of_times() {
    // 13 allocations per heartbeat datagram, sent and received, under
    // the same pool and copies; 9 with one buffer per datagram. The same
    // in debug and release builds.
    const MAX_PER_DATAGRAM: u64 = 9;
    let mut pair = Pair::connected();
    pair.client.keystroke(pair.now, b"x");
    pair.run_until(pair.now + 10_000);
    let sent = pair.sent();
    let end = pair.now + 60_000;
    let idle = allocations_in(|| pair.run_until(end));
    let datagrams = pair.sent() - sent;
    assert!(datagrams >= 30, "{datagrams} heartbeats in a minute");
    let per_datagram = idle / datagrams;
    assert!(
        per_datagram <= MAX_PER_DATAGRAM,
        "{idle} allocations for {datagrams} heartbeat datagrams: {per_datagram} each"
    );
}
