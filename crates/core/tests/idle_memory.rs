//! Live heap of an idle session, counted.
//!
//! A Mosh server keeps state, not connections, for many mostly idle
//! clients, so what an idle session holds resident is a cost paid once
//! per session by every server. Most of it is the screen: an idle
//! shell's 80x24 screen is a prompt over 23 blank rows, and the blank
//! rows of every screen on a thread share one row of cells. A counting
//! global allocator tracks the bytes this thread holds (asked for, less
//! those given back) and pins what a fresh server and a connected
//! client/server pair hold, and how large the endpoints are inline.
//!
//! Its own test binary, because a `#[global_allocator]` is per binary.
//! The count is thread-local, so the harness running these tests on
//! parallel threads does not mix them.

use mosh_core::{LineShell, MoshClient, MoshServer, Party, SessionLoop};
use mosh_crypto::session::Session;
use mosh_crypto::Base64Key;
use mosh_net::{Addr, LinkConfig, Network, Side, SimChannel};
use mosh_prediction::DisplayPreference;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

/// Adds `delta` bytes to this thread's live count.
fn count(delta: isize) {
    let _ = LIVE.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the counter is a thread-local `Cell` with a constant
// initialiser and no destructor, so touching it allocates nothing and is
// valid at any point of a thread's life.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's contract is `System.alloc`'s, passed through.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc(layout)
    }

    // SAFETY: the caller's contract is `System.dealloc`'s, passed through.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    // SAFETY: the caller's contract is `System.alloc_zeroed`'s, passed through.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    // SAFETY: the caller's contract is `System.realloc`'s, passed through.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The bytes this thread holds now.
fn live() -> isize {
    LIVE.with(Cell::get)
}

const C: Addr = Addr::new(1, 1000);
const S: Addr = Addr::new(2, 60001);

fn key() -> Base64Key {
    Base64Key::from_bytes([7; 16])
}

/// Makes this thread's blank 80-column row, which every later screen of
/// that width shares, so a count does not depend on which test ran first
/// on the thread.
fn warm() {
    drop(MoshServer::new(key(), Box::new(LineShell::new())));
}

#[test]
fn endpoints_are_small_inline() {
    // 1 512, 2 464 and 2 176 bytes while the crypto context held the
    // bitsliced AES schedules inline on every host; 640, 1 600 and 1 296
    // with them boxed.
    let sizes = [
        ("Session", size_of::<Session>(), 768),
        ("MoshServer", size_of::<MoshServer>(), 1_664),
        ("MoshClient", size_of::<MoshClient>(), 1_344),
    ];
    for (name, size, max) in sizes {
        assert!(size <= max, "size_of::<{name}>() is {size} bytes");
    }
}

#[test]
fn a_fresh_shell_server_holds_little() {
    // 25 736 bytes while every row of the screen had cells of its own;
    // 2 736 with its blank rows sharing one; 1 096 with every screen on
    // the thread sharing one and a 40-entry OCB table cut to 13.
    const MAX: isize = 2 * 1024;
    warm();
    let before = live();
    let server = MoshServer::new(key(), Box::new(LineShell::new()));
    let held = live() - before;
    drop(server);
    assert!(held <= MAX, "a fresh server holds {held} bytes");
}

#[test]
fn a_connected_pair_holds_little_once_the_prompt_has_arrived() {
    // 57 548 bytes while every row of the two screens had cells of its
    // own; 11 548 with each screen's blank rows sharing one; 5 992 with
    // the thread's screens sharing one, the OCB tables cut to 13 entries
    // and the state lists at their high-water mark.
    const MAX: isize = 8 * 1024;
    warm();
    let before = live();
    let mut client = MoshClient::new(key(), S, 80, 24, DisplayPreference::Adaptive);
    let mut server = MoshServer::new(key(), Box::new(LineShell::new()));
    let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), 1);
    net.register(C, Side::Client);
    net.register(S, Side::Server);
    let mut session = SessionLoop::new(SimChannel::new(net));
    let mut now = 0;
    while client.server_frame().row_text(0) != "$" {
        assert!(now < 10_000, "no prompt after {now} ms");
        now += 50;
        session.pump_until(
            &mut [Party::new(C, &mut client), Party::new(S, &mut server)],
            now,
        );
    }
    // What the two endpoints hold, not the simulated network between.
    drop(session);
    let held = live() - before;
    drop((client, server));
    assert!(held <= MAX, "a connected pair holds {held} bytes");
}

#[test]
fn the_simulated_world_between_a_connected_pair_holds_little() {
    // 2 408 bytes while the network kept a mailbox per address; 1 428
    // with one queue of deliveries.
    const MAX: isize = 2 * 1024;
    let mut client = MoshClient::new(key(), S, 80, 24, DisplayPreference::Adaptive);
    let mut server = MoshServer::new(key(), Box::new(LineShell::new()));
    let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), 1);
    net.register(C, Side::Client);
    net.register(S, Side::Server);
    let mut session = SessionLoop::new(SimChannel::new(net));
    let mut now = 0;
    while client.server_frame().row_text(0) != "$" {
        assert!(now < 10_000, "no prompt after {now} ms");
        now += 50;
        session.pump_until(
            &mut [Party::new(C, &mut client), Party::new(S, &mut server)],
            now,
        );
    }
    let channel = session.into_channel();
    let before = live();
    drop(channel);
    let held = before - live();
    assert!(held <= MAX, "the simulated world holds {held} bytes");
}
