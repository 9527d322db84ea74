//! The wakeup-to-send stopwatch `hub_c100k` wraps around its typing
//! clients (a library item so `tests/wakeup_contract.rs` can hold it to
//! the `Endpoint::next_wakeup` contract like every other endpoint).

use mosh_core::{Endpoint, MoshClient, SessionEvent};
use mosh_net::{Addr, Millis};
use mosh_ssp::datagram::Opened;
use std::time::Instant;

/// Wraps an active client endpoint to clock keystroke-to-wire latency:
/// `keystroke` arms a wall-clock timer, and the first subsequent tick
/// that emits a datagram stops it. What accumulates in `samples_us` is
/// exactly the runtime's wakeup-to-send path as the session experiences
/// it.
pub struct SendTimer {
    inner: MoshClient,
    armed: Option<Instant>,
    samples_us: Vec<f64>,
}

impl SendTimer {
    /// Wraps `inner` with the timer disarmed.
    pub fn new(inner: MoshClient) -> Self {
        SendTimer {
            inner,
            armed: None,
            samples_us: Vec::new(),
        }
    }

    /// Types one keystroke at `now` and arms the wall-clock timer.
    pub fn keystroke(&mut self, now: Millis, bytes: &[u8]) {
        self.inner.keystroke(now, bytes);
        self.armed = Some(Instant::now());
    }

    /// Wakeup-to-send latencies recorded so far, in microseconds.
    pub fn samples_us(&self) -> &[f64] {
        &self.samples_us
    }
}

// `MoshClient` has inherent methods shadowing the trait's, so the
// delegation is spelled with fully qualified calls.
impl Endpoint for SendTimer {
    fn receive(&mut self, now: Millis, from: Addr, wire: &[u8], events: &mut Vec<SessionEvent>) {
        <MoshClient as Endpoint>::receive(&mut self.inner, now, from, wire, events);
    }

    fn tick(
        &mut self,
        now: Millis,
        out: &mut Vec<(Addr, Vec<u8>)>,
        events: &mut Vec<SessionEvent>,
    ) {
        let before = out.len();
        <MoshClient as Endpoint>::tick(&mut self.inner, now, out, events);
        if out.len() > before {
            if let Some(armed) = self.armed.take() {
                self.samples_us.push(armed.elapsed().as_secs_f64() * 1e6);
            }
        }
    }

    fn next_wakeup(&self, now: Millis) -> Millis {
        <MoshClient as Endpoint>::next_wakeup(&self.inner, now)
    }

    fn last_heard(&self) -> Option<Millis> {
        <MoshClient as Endpoint>::last_heard(&self.inner)
    }

    fn authenticates(&self, wire: &[u8]) -> bool {
        <MoshClient as Endpoint>::authenticates(&self.inner, wire)
    }

    fn try_open(&mut self, wire: &[u8]) -> Option<Opened> {
        <MoshClient as Endpoint>::try_open(&mut self.inner, wire)
    }

    fn receive_opened(
        &mut self,
        now: Millis,
        from: Addr,
        opened: Opened,
        events: &mut Vec<SessionEvent>,
    ) {
        <MoshClient as Endpoint>::receive_opened(&mut self.inner, now, from, opened, events);
    }
}
