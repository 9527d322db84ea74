//! Heap allocations of a hub pump, counted.
//!
//! An idle session should cost the hub its wheel entry and nothing
//! else, so what one pump allocates must not grow with the number of
//! leases it drives. A counting global allocator (in the pattern of the
//! terminal's `alloc` test) pins it: once warm, a pump over 1 024 idle
//! leases allocates no more than a pump over 16, plus a small constant.
//!
//! Its own test binary, because a `#[global_allocator]` is per binary.
//! The counters are thread-local, so the harness running tests on
//! parallel threads does not mix their counts.

use mosh_core::{Endpoint, HubSession, Party, ServerHub, SessionEvent, SessionId};
use mosh_net::{Addr, LinkConfig, Network, Poller, Side, SimChannel, SimPoller};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

const S: Addr = Addr::new(2, 60001);

/// An endpoint with nothing to do, ever: what a pump costs for it is the
/// hub's own bookkeeping.
struct Idle;

impl Endpoint for Idle {
    fn receive(&mut self, _: u64, _: Addr, _: &[u8], _: &mut Vec<SessionEvent>) {}

    fn tick(&mut self, _: u64, _: &mut Vec<(Addr, Vec<u8>)>, _: &mut Vec<SessionEvent>) {}

    fn next_wakeup(&self, _: u64) -> u64 {
        u64::MAX
    }
}

/// Allocations of the second pump over `n` idle sessions, each on its own
/// simulated world (as `idle_fleet_sim` has them): the first pump ticks
/// every session once and grows the hub's buffers to size.
fn warm_pump_allocations(n: usize) -> u64 {
    let mut hub = ServerHub::new(SimPoller::new());
    let sids: Vec<SessionId> = (0..n as u64)
        .map(|seed| {
            let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), seed);
            net.register(S, Side::Server);
            let tok = hub.poller_mut().add(SimChannel::new(net));
            hub.add_session(tok)
        })
        .collect();
    let mut idle: Vec<Idle> = (0..n).map(|_| Idle).collect();
    let [_, warm] = [100, 200].map(|target| {
        let mut leases: Vec<[Party<'_>; 1]> = idle.iter_mut().map(|e| [Party::new(S, e)]).collect();
        let mut sessions: Vec<HubSession<'_, '_>> = leases
            .iter_mut()
            .zip(&sids)
            .map(|(parties, &sid)| HubSession::new(sid, parties, target))
            .collect();
        allocations_in(|| {
            let events = hub.pump(&mut sessions);
            assert!(events.is_empty());
        })
    });
    warm
}

#[test]
fn a_warm_pump_allocates_nothing_per_idle_lease() {
    // What a pump may allocate whatever its lease count: a few buffers
    // of its own. Both counts read 0 today; a hub that builds anything
    // per lease per pump reads over 1 000 more for the larger pump.
    const PER_PUMP: u64 = 4;
    let few = warm_pump_allocations(16);
    let many = warm_pump_allocations(1024);
    assert!(
        many <= few + PER_PUMP,
        "a warm pump over 1024 idle leases allocated {many} times, over 16 {few} times"
    );
}
