//! The one file that touches the program's API.
//!
//! Everything the workloads need from `mosh` goes through here: the
//! wrappers that stand at each layer boundary (`TapClient`, `TapServer`,
//! `TapApp`, `TapPoller`), the simulated and the UDP fleets, the oracle,
//! and the isolation probes. When an API collapses (ROADMAP item 2) this
//! is the file to edit; the batch forms that item keeps
//! (`try_open_many`, `send_many`, `receive_opened`) are the ones
//! forwarded here.
//!
//! The wrappers are always in place. Untraced, they do the bookkeeping
//! the end-to-end metrics and the correctness check need (which keys a
//! shipped state reflects, what the application was fed, bytes on the
//! wire); traced, they also record spans and capture inputs for the
//! probes.

use crate::trace::{self, Stage};
use mosh::core::hub::snapshot;
use mosh::core::{
    Application, Editor, Endpoint, HubSession, LineShell, MoshClient, MoshServer, Party, ServerHub,
    SessionEvent, SessionId, ShardedHub, TimedWrite,
};
use mosh::crypto::session::{Direction, Session};
use mosh::crypto::Base64Key;
use mosh::net::{
    Addr, ChannelPoller, Datagram, FeedChannel, LinkConfig, Network, Poller, Side, SimChannel,
    SimPoller, Token, UdpChannel, UdpDistributor, UdpPoller,
};
use mosh::ssp::datagram::Opened;
use mosh::ssp::fragment::{fragment, FRAGMENT_PAYLOAD};
use mosh::ssp::instruction::{Instruction, PROTOCOL_VERSION};
use mosh::ssp::state::SyncState;
use mosh::states::{CompleteTerminal, UserStream};
use mosh::terminal::{display, Framebuffer};
use std::hint::black_box;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

pub use mosh::core::Millis;
pub use mosh::prediction::DisplayPreference as Predict;

/// Client and server addresses inside every simulated world.
pub const C: Addr = Addr::new(1, 1000);
pub const S: Addr = Addr::new(2, 60001);

/// Bytes of wire framing around a datagram's plaintext (nonce + tag).
const WIRE_OVERHEAD: usize = 24;
/// Captured application writes per session, for the probes.
const CAPTURE_BYTES: usize = 1 << 20;
/// Captured datagram sizes per poller, for the crypto probe.
const CAPTURE_SIZES: usize = 1 << 16;

// ---------------------------------------------------------------------
// Hosted applications and links
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppKind {
    Shell,
    Editor,
}

impl AppKind {
    fn build(self) -> Box<dyn Application> {
        match self {
            AppKind::Shell => Box::new(LineShell::new()),
            AppKind::Editor => Box::new(Editor::new()),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Link {
    Lan,
    Evdo,
}

impl Link {
    fn up_down(self) -> (LinkConfig, LinkConfig) {
        match self {
            Link::Lan => (LinkConfig::lan(), LinkConfig::lan()),
            Link::Evdo => (LinkConfig::evdo_uplink(), LinkConfig::evdo_downlink()),
        }
    }
}

pub fn session_key(seed: u64, i: usize) -> Base64Key {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    bytes[8..12].copy_from_slice(&(i as u32).to_le_bytes());
    bytes[15] = 0xb7;
    Base64Key::from_bytes(bytes)
}

/// "aes-ni+vaes", "aes-ni" or "bitsliced": the cipher tier the program
/// picks on this CPU.
pub fn aes_backend() -> &'static str {
    let hw = mosh::crypto::aes::Aes128::new(&[0u8; 16]).hardware_accelerated();
    if !hw {
        return "bitsliced";
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") && std::arch::is_x86_feature_detected!("vaes")
    {
        return "aes-ni+vaes";
    }
    "aes-ni"
}

// ---------------------------------------------------------------------
// Per-session log shared by the server-side wrappers and the driver
// ---------------------------------------------------------------------

/// One `Application::on_input` call as the server made it.
#[derive(Clone, Debug)]
pub struct InputRec {
    pub at: Millis,
    pub bytes: Vec<u8>,
    /// The call produced output (the paper excludes keys that do not).
    pub wrote: bool,
    /// Due time of the last write the call scheduled.
    done_at: Millis,
}

/// A captured application write or shipping tick, for the probes.
#[derive(Clone, Debug)]
pub enum Capture {
    Write(Millis, Vec<u8>),
    Ship(Millis),
}

#[derive(Default, Debug)]
pub struct SessionLog {
    pub inputs: Vec<InputRec>,
    /// Application output in bytes: start, input responses and polls.
    pub app_bytes: u64,
    /// `(state number, inputs it reflects)`, one per state first shipped.
    shipped: Vec<(u64, u64)>,
    reflected: usize,
    pub capture: Vec<Capture>,
    captured_bytes: usize,
}

impl SessionLog {
    /// How many inputs server state `num` (or the newest state at or
    /// below it) has on screen.
    pub fn reflected_by(&self, num: u64) -> u64 {
        let i = self.shipped.partition_point(|(n, _)| *n <= num);
        if i == 0 {
            0
        } else {
            self.shipped[i - 1].1
        }
    }

    /// The first shipped state with `count` inputs on screen.
    pub fn first_state_reflecting(&self, count: u64) -> Option<u64> {
        let i = self.shipped.partition_point(|(_, k)| *k < count);
        self.shipped.get(i).map(|(n, _)| *n)
    }

    fn record_writes(&mut self, writes: &[TimedWrite]) {
        for w in writes {
            self.app_bytes += w.bytes.len() as u64;
            if trace::on() && self.captured_bytes < CAPTURE_BYTES {
                self.captured_bytes += w.bytes.len();
                self.capture.push(Capture::Write(w.at, w.bytes.clone()));
            }
        }
    }
}

pub type Log = Arc<Mutex<SessionLog>>;

pub fn lock(log: &Log) -> MutexGuard<'_, SessionLog> {
    log.lock().expect("session log lock")
}

// ---------------------------------------------------------------------
// Wrappers
// ---------------------------------------------------------------------

/// The hosted application, with its inputs and output logged.
struct TapApp {
    inner: Box<dyn Application>,
    log: Log,
    sess: usize,
}

impl Application for TapApp {
    fn start(&mut self, now: Millis) -> Vec<TimedWrite> {
        let writes = self.inner.start(now);
        lock(&self.log).record_writes(&writes);
        writes
    }

    fn on_input(&mut self, now: Millis, bytes: &[u8]) -> Vec<TimedWrite> {
        let mut span = trace::span(Stage::AppInput);
        let writes = self.inner.on_input(now, bytes);
        let mut log = lock(&self.log);
        log.record_writes(&writes);
        log.inputs.push(InputRec {
            at: now,
            bytes: bytes.to_vec(),
            wrote: !writes.is_empty(),
            done_at: writes.iter().map(|w| w.at).max().unwrap_or(now),
        });
        span.tag(|| trace::req_id(self.sess, log.inputs.len() as u64));
        writes
    }

    fn poll(&mut self, now: Millis) -> Vec<TimedWrite> {
        let _span = trace::span(Stage::AppPoll);
        let writes = self.inner.poll(now);
        if !writes.is_empty() {
            lock(&self.log).record_writes(&writes);
        }
        writes
    }

    fn next_wakeup(&self, now: Millis) -> Option<Millis> {
        self.inner.next_wakeup(now)
    }

    fn on_resize(&mut self, now: Millis, width: usize, height: usize) -> Vec<TimedWrite> {
        let writes = self.inner.on_resize(now, width, height);
        lock(&self.log).record_writes(&writes);
        writes
    }

    fn save_state(&self) -> Vec<u8> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        self.inner.restore_state(bytes)
    }
}

/// A wire's sequence number (the clear header minus its direction bit).
fn wire_seq(wire: &[u8]) -> u64 {
    match wire.get(..8) {
        Some(head) => u64::from_be_bytes(head.try_into().expect("8 bytes")) & !(1 << 63),
        None => u64::MAX,
    }
}

/// One datagram's passage through a wrapper, for the UDP per-key budget.
#[derive(Clone, Copy, Debug)]
pub struct WireMark {
    pub seq: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What the traced UDP run records per endpoint to rebuild each key's
/// path; empty otherwise.
#[derive(Default, Debug)]
pub struct BudgetMarks {
    /// Ticks that emitted: one mark per wire out.
    pub tick_out: Vec<WireMark>,
    /// `try_open_many` calls: one mark per wire probed.
    pub opened: Vec<WireMark>,
    /// Receives, in delivery order.
    pub received: Vec<WireMark>,
    /// Server only: `(inputs applied so far, index into received)` after
    /// each receive that fed the application.
    pub fed: Vec<(u64, usize)>,
    /// Server only: `(state number, index of its first wire in tick_out)`.
    pub shipped_at: Vec<(u64, usize)>,
}

pub struct TapServer {
    pub inner: MoshServer,
    pub log: Log,
    sess: usize,
    last_num: u64,
    pub marks: BudgetMarks,
}

impl TapServer {
    fn new(key: Base64Key, app: AppKind, sess: usize) -> Self {
        let log: Log = Arc::default();
        let app = TapApp {
            inner: app.build(),
            log: Arc::clone(&log),
            sess,
        };
        TapServer {
            inner: MoshServer::new(key, Box::new(app)),
            log,
            sess,
            last_num: 0,
            marks: BudgetMarks::default(),
        }
    }

    /// The request id of the newest key the application has been fed.
    fn req(&self) -> u64 {
        trace::req_id(self.sess, lock(&self.log).inputs.len() as u64)
    }

    /// After a tick that emitted: if it shipped a new state, note how
    /// many inputs that state has on screen — every input whose writes
    /// were all due by `now`, because the tick applies due writes before
    /// it ships.
    fn note_shipped(&mut self, now: Millis, first_wire: usize) {
        let num = self.inner.activity_marker().0;
        if num == self.last_num {
            return;
        }
        self.last_num = num;
        let mut log = lock(&self.log);
        while log
            .inputs
            .get(log.reflected)
            .is_some_and(|i| i.done_at <= now)
        {
            log.reflected += 1;
        }
        let reflected = log.reflected as u64;
        log.shipped.push((num, reflected));
        if trace::on() {
            log.capture.push(Capture::Ship(now));
            self.marks.shipped_at.push((num, first_wire));
        }
    }

    fn after_receive(&mut self, seq: u64, start_ns: u64) {
        if trace::on() {
            self.marks.received.push(WireMark {
                seq,
                start_ns,
                end_ns: trace::now_ns(),
            });
            let fed = lock(&self.log).inputs.len() as u64;
            if self.marks.fed.last().is_none_or(|(n, _)| *n != fed) {
                self.marks.fed.push((fed, self.marks.received.len() - 1));
            }
        }
    }
}

// `MoshServer` and `MoshClient` have inherent methods shadowing the
// trait's, so the delegation is spelled with fully qualified calls.
impl Endpoint for TapServer {
    fn receive(&mut self, now: Millis, from: Addr, wire: &[u8], events: &mut Vec<SessionEvent>) {
        let mut span = trace::span(Stage::SrvReceive);
        let start_ns = trace::now_ns();
        <MoshServer as Endpoint>::receive(&mut self.inner, now, from, wire, events);
        self.after_receive(wire_seq(wire), start_ns);
        span.tag(|| self.req());
    }

    fn tick(
        &mut self,
        now: Millis,
        out: &mut Vec<(Addr, Vec<u8>)>,
        events: &mut Vec<SessionEvent>,
    ) {
        let mut span = trace::span(Stage::SrvTick);
        let start_ns = trace::now_ns();
        let before = out.len();
        <MoshServer as Endpoint>::tick(&mut self.inner, now, out, events);
        span.tag(|| self.req());
        if out.len() > before {
            let first_wire = self.marks.tick_out.len();
            if trace::on() {
                let end_ns = trace::now_ns();
                self.marks
                    .tick_out
                    .extend(out[before..].iter().map(|(_, w)| WireMark {
                        seq: wire_seq(w),
                        start_ns,
                        end_ns,
                    }));
            }
            self.note_shipped(now, first_wire);
        }
    }

    fn next_wakeup(&self, now: Millis) -> Millis {
        <MoshServer as Endpoint>::next_wakeup(&self.inner, now)
    }

    fn last_heard(&self) -> Option<Millis> {
        <MoshServer as Endpoint>::last_heard(&self.inner)
    }

    fn authenticates(&self, wire: &[u8]) -> bool {
        <MoshServer as Endpoint>::authenticates(&self.inner, wire)
    }

    fn try_open(&mut self, wire: &[u8]) -> Option<Opened> {
        let mut out = Vec::with_capacity(1);
        self.try_open_many(&[wire], &mut out);
        out.pop().flatten()
    }

    fn try_open_many(&mut self, wires: &[&[u8]], out: &mut Vec<Option<Opened>>) {
        let mut span = trace::span(Stage::SrvOpen);
        let start_ns = trace::now_ns();
        <MoshServer as Endpoint>::try_open_many(&mut self.inner, wires, out);
        span.tag(|| self.req());
        if trace::on() {
            let end_ns = trace::now_ns();
            self.marks.opened.extend(wires.iter().map(|w| WireMark {
                seq: wire_seq(w),
                start_ns,
                end_ns,
            }));
        }
    }

    fn receive_opened(
        &mut self,
        now: Millis,
        from: Addr,
        opened: Opened,
        events: &mut Vec<SessionEvent>,
    ) {
        let mut span = trace::span(Stage::SrvReceive);
        let start_ns = trace::now_ns();
        let seq = opened.seq;
        <MoshServer as Endpoint>::receive_opened(&mut self.inner, now, from, opened, events);
        self.after_receive(seq, start_ns);
        span.tag(|| self.req());
    }

    fn activity_marker(&self) -> Option<(u64, u64)> {
        <MoshServer as Endpoint>::activity_marker(&self.inner)
    }

    fn checkpoint(&mut self, now: Millis) -> Option<Vec<u8>> {
        <MoshServer as Endpoint>::checkpoint(&mut self.inner, now)
    }
}

/// A server frame the client applied.
#[derive(Clone, Copy, Debug)]
pub struct FrameSeen {
    pub num: u64,
    /// The channel clock when it arrived (virtual ms in a simulation).
    pub at: Millis,
    /// The wall clock when it arrived (UDP fleets only).
    pub wall: Option<Instant>,
}

pub struct TapClient {
    pub inner: MoshClient,
    /// Frames applied since the driver last looked.
    pub frames: Vec<FrameSeen>,
    stamp_wall: bool,
    sess: usize,
    keys_typed: u64,
    pub marks: BudgetMarks,
    /// Traced: when the newest key was typed, until a tick sends it.
    armed_ns: Option<u64>,
    /// Traced: key typed → the tick that put it on the wire, wall µs.
    pub wake_to_send_us: Vec<f64>,
}

impl TapClient {
    fn new(key: Base64Key, server: Addr, predict: Predict, stamp_wall: bool, sess: usize) -> Self {
        TapClient {
            inner: MoshClient::new(key, server, 80, 24, predict),
            frames: Vec::new(),
            stamp_wall,
            sess,
            keys_typed: 0,
            marks: BudgetMarks::default(),
            armed_ns: None,
            wake_to_send_us: Vec::new(),
        }
    }

    /// Types one key; true when its effect was displayed at once.
    pub fn keystroke(&mut self, now: Millis, bytes: &[u8]) -> bool {
        self.keys_typed += 1;
        let mut span = trace::span(Stage::Keystroke);
        span.tag(|| self.req());
        if trace::on() {
            self.armed_ns = Some(trace::now_ns());
        }
        self.inner.keystroke(now, bytes)
    }

    /// Composes the screen the user sees, as a client does after every
    /// change.
    pub fn render(&self) {
        let mut span = trace::span(Stage::Display);
        span.tag(|| self.req());
        black_box(self.inner.display());
    }

    /// The request id of the newest key typed.
    fn req(&self) -> u64 {
        trace::req_id(self.sess, self.keys_typed)
    }
}

impl Endpoint for TapClient {
    fn receive(&mut self, now: Millis, from: Addr, wire: &[u8], events: &mut Vec<SessionEvent>) {
        let mut span = trace::span(Stage::CliReceive);
        span.tag(|| self.req());
        let start_ns = trace::now_ns();
        let before = self.inner.remote_state_num();
        <MoshClient as Endpoint>::receive(&mut self.inner, now, from, wire, events);
        let num = self.inner.remote_state_num();
        if num != before {
            self.frames.push(FrameSeen {
                num,
                at: now,
                wall: self.stamp_wall.then(Instant::now),
            });
        }
        if trace::on() {
            self.marks.received.push(WireMark {
                seq: wire_seq(wire),
                start_ns,
                end_ns: trace::now_ns(),
            });
        }
    }

    fn tick(
        &mut self,
        now: Millis,
        out: &mut Vec<(Addr, Vec<u8>)>,
        events: &mut Vec<SessionEvent>,
    ) {
        let mut span = trace::span(Stage::CliTick);
        span.tag(|| self.req());
        let start_ns = trace::now_ns();
        let before = out.len();
        <MoshClient as Endpoint>::tick(&mut self.inner, now, out, events);
        if trace::on() && out.len() > before {
            let end_ns = trace::now_ns();
            if let Some(armed) = self.armed_ns.take() {
                self.wake_to_send_us.push((end_ns - armed) as f64 / 1e3);
            }
            self.marks
                .tick_out
                .extend(out[before..].iter().map(|(_, w)| WireMark {
                    seq: wire_seq(w),
                    start_ns,
                    end_ns,
                }));
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
}

/// Counters a [`TapPoller`] keeps.
#[derive(Clone, Debug, Default)]
pub struct NetCounters {
    /// Datagrams and bytes sent towards the server / towards the client.
    pub up_dgrams: u64,
    pub up_bytes: u64,
    pub down_dgrams: u64,
    pub down_bytes: u64,
    pub received: u64,
    pub waits: u64,
    /// Waits after which nothing had arrived.
    pub empty_waits: u64,
    /// Runs of `poll_any` that returned at least one datagram.
    pub drains: u64,
    /// Sizes of datagrams sent, for the crypto probe.
    pub sizes: Vec<u16>,
    /// Traced UDP run: `(peer port, wire seq, time the send returned)`.
    pub send_marks: Vec<(u16, u64, u64)>,
}

/// Which way a poller's sends travel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// A simulated world: both directions cross it, told apart by `from`.
    Sim,
    /// The UDP clients' poller: every send goes up.
    Clients,
    /// The UDP server's poller: every send goes down.
    Server,
}

/// Any poller, with its traffic counted and its calls spanned.
pub struct TapPoller<P: Poller> {
    inner: P,
    role: Role,
    pub counters: NetCounters,
    in_drain: bool,
    got_since_wait: bool,
}

impl<P: Poller> TapPoller<P> {
    pub fn new(inner: P, role: Role) -> Self {
        TapPoller {
            inner,
            role,
            counters: NetCounters::default(),
            in_drain: false,
            got_since_wait: true,
        }
    }
}

impl<P: Poller> Poller for TapPoller<P> {
    type Chan = P::Chan;

    fn add(&mut self, channel: P::Chan) -> Token {
        self.inner.add(channel)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn channel(&self, tok: Token) -> &P::Chan {
        self.inner.channel(tok)
    }

    fn channel_mut(&mut self, tok: Token) -> &mut P::Chan {
        self.inner.channel_mut(tok)
    }

    fn now(&self, tok: Token) -> Millis {
        self.inner.now(tok)
    }

    fn send(&mut self, tok: Token, from: Addr, to: Addr, payload: Vec<u8>) {
        self.send_many(tok, from, vec![(to, payload)]);
    }

    fn send_many(&mut self, tok: Token, from: Addr, batch: Vec<(Addr, Vec<u8>)>) {
        let _span = trace::span(Stage::NetSend);
        let down = self.role == Role::Server || (self.role == Role::Sim && from == S);
        let tracing = trace::on();
        let c = &mut self.counters;
        let mut marks = Vec::new();
        for (to, wire) in &batch {
            if down {
                c.down_dgrams += 1;
                c.down_bytes += wire.len() as u64;
            } else {
                c.up_dgrams += 1;
                c.up_bytes += wire.len() as u64;
            }
            if tracing {
                if c.sizes.len() < CAPTURE_SIZES {
                    c.sizes.push(wire.len().min(u16::MAX as usize) as u16);
                }
                // The client's port names the session on both UDP sides.
                match self.role {
                    Role::Clients => marks.push((from.port, wire_seq(wire))),
                    Role::Server => marks.push((to.port, wire_seq(wire))),
                    Role::Sim => {}
                }
            }
        }
        self.inner.send_many(tok, from, batch);
        if !marks.is_empty() {
            let end_ns = trace::now_ns();
            c.send_marks
                .extend(marks.into_iter().map(|(port, seq)| (port, seq, end_ns)));
        }
    }

    fn extract(&mut self, tok: Token) -> Option<P::Chan> {
        self.inner.extract(tok)
    }

    fn next_event_time(&self, tok: Token) -> Option<Millis> {
        self.inner.next_event_time(tok)
    }

    fn poll_any(&mut self) -> Option<(Token, Datagram)> {
        let _span = trace::span(Stage::NetDrain);
        let got = self.inner.poll_any();
        match &got {
            Some(_) => {
                self.counters.received += 1;
                self.got_since_wait = true;
                if !self.in_drain {
                    self.in_drain = true;
                    self.counters.drains += 1;
                }
            }
            None => self.in_drain = false,
        }
        got
    }

    fn wait_until(&mut self, tok: Token, deadline: Millis) -> Millis {
        let _span = trace::span(Stage::NetWait);
        self.counters.waits += 1;
        if !self.got_since_wait {
            self.counters.empty_waits += 1;
        }
        self.got_since_wait = false;
        self.inner.wait_until(tok, deadline)
    }
}

// ---------------------------------------------------------------------
// The simulated fleet
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
pub struct SimSpec {
    pub sessions: usize,
    /// 1 pumps inline on the calling thread; more use the worker runtime.
    pub shards: usize,
    pub link: Link,
    pub predict: Predict,
    pub seed: u64,
}

/// N client/server pairs, each in its own emulated world, behind one
/// sharded hub.
pub struct SimFleet {
    hub: ShardedHub<TapPoller<SimPoller>>,
    sids: Vec<SessionId>,
    pub clients: Vec<TapClient>,
    pub servers: Vec<TapServer>,
}

impl SimFleet {
    pub fn new(spec: SimSpec, app_of: impl Fn(usize) -> AppKind) -> Self {
        let mut hub =
            ShardedHub::with_shards(spec.shards, || TapPoller::new(SimPoller::new(), Role::Sim));
        let mut sids = Vec::with_capacity(spec.sessions);
        let mut clients = Vec::with_capacity(spec.sessions);
        let mut servers = Vec::with_capacity(spec.sessions);
        let (up, down) = spec.link.up_down();
        for i in 0..spec.sessions {
            let link_seed = spec
                .seed
                .wrapping_mul(0x9e37_79b9)
                .wrapping_add(i as u64 + 1);
            let mut net = Network::new(up.clone(), down.clone(), link_seed);
            net.register(C, Side::Client);
            net.register(S, Side::Server);
            sids.push(hub.add_session(SimChannel::new(net)));
            let key = session_key(spec.seed, i);
            clients.push(TapClient::new(key.clone(), S, spec.predict, false, i));
            servers.push(TapServer::new(key, app_of(i), i));
        }
        SimFleet {
            hub,
            sids,
            clients,
            servers,
        }
    }

    pub fn now(&self, i: usize) -> Millis {
        self.hub.now(self.sids[i])
    }

    /// Leases every session and drives each to its own target.
    pub fn pump(&mut self, targets: &[Millis]) {
        let _span = trace::span(Stage::HubPump);
        let mut leases: Vec<[Party<'_>; 2]> = self
            .clients
            .iter_mut()
            .zip(self.servers.iter_mut())
            .map(|(c, s)| [Party::new(C, c), Party::new(S, s)])
            .collect();
        let mut sessions: Vec<HubSession<'_, '_>> = leases
            .iter_mut()
            .zip(self.sids.iter().zip(targets))
            .map(|(parties, (sid, target))| HubSession::new(*sid, parties, *target))
            .collect();
        self.hub.pump(&mut sessions);
    }

    pub fn net(&self) -> NetCounters {
        let mut sum = NetCounters::default();
        for i in 0..self.hub.shard_count() {
            sum.add(&self.hub.shard(i).poller().counters);
        }
        sum
    }

    pub fn hub_stats(&self) -> HubCounts {
        HubCounts::from(&self.hub.stats())
    }
}

impl NetCounters {
    fn add(&mut self, o: &NetCounters) {
        self.up_dgrams += o.up_dgrams;
        self.up_bytes += o.up_bytes;
        self.down_dgrams += o.down_dgrams;
        self.down_bytes += o.down_bytes;
        self.received += o.received;
        self.waits += o.waits;
        self.empty_waits += o.empty_waits;
        self.drains += o.drains;
        self.sizes.extend_from_slice(&o.sizes);
        self.send_marks.extend_from_slice(&o.send_marks);
    }
}

/// The hub counters the metrics use.
#[derive(Clone, Copy, Debug, Default)]
pub struct HubCounts {
    pub wakeups: u64,
    pub dropped: u64,
    pub shard_panics: u64,
    pub feed_overflow: u64,
    pub feed_bounced: u64,
    pub feed_dropped: u64,
}

impl From<&mosh::core::HubStats> for HubCounts {
    fn from(s: &mosh::core::HubStats) -> Self {
        HubCounts {
            wakeups: s.wakeups,
            dropped: s.dropped,
            shard_panics: s.shard_panics,
            feed_overflow: s.feed_overflow,
            feed_bounced: s.feed_bounced,
            feed_dropped: s.feed_dropped,
        }
    }
}

// ---------------------------------------------------------------------
// The UDP fleet: one server socket, one socket per client
// ---------------------------------------------------------------------

/// The server half: a one-shard hub behind a distributor on one real
/// socket. The calling thread is the distributor's seat; the shard pumps
/// on the hub's worker.
///
/// Wired by hand from `UdpDistributor::new` rather than through
/// `ShardedHub::over_distributor`, which fixes the poller type: this is
/// the same wiring with a [`TapPoller`] around the shard's poller.
pub struct UdpServerSide {
    hub: ShardedHub<TapPoller<ChannelPoller<FeedChannel>>>,
    dist: UdpDistributor,
    sids: Vec<SessionId>,
    pub servers: Vec<TapServer>,
    pub addr: Addr,
}

impl UdpServerSide {
    pub fn new(
        sessions: usize,
        seed: u64,
        app_of: impl Fn(usize) -> AppKind,
    ) -> std::io::Result<Self> {
        let socket = std::net::UdpSocket::bind("127.0.0.1:0")?;
        let (dist, feeds) = UdpDistributor::new(socket, 1)?;
        let addr = dist.local_addr();
        let feed = feeds.into_iter().next().expect("one shard, one feed");
        let bouncer = feed.bouncer();
        let mut poller = TapPoller::new(ChannelPoller::new(), Role::Server);
        let tok = poller.add(feed);
        let mut hub = ShardedHub::new(vec![poller]);
        hub.shard_mut(0)
            .set_unclaimed(tok, Box::new(move |dg| bouncer.bounce(dg)));
        let sids = (0..sessions).map(|_| hub.add_session_on(0, tok)).collect();
        let servers = (0..sessions)
            .map(|i| TapServer::new(session_key(seed, i), app_of(i), i))
            .collect();
        Ok(UdpServerSide {
            hub,
            dist,
            sids,
            servers,
            addr,
        })
    }

    /// Serves for `wall_ms`: the shard pumps on its worker while this
    /// thread drains the socket into the shard's feed queue.
    pub fn pump(&mut self, wall_ms: u64) {
        let _span = trace::span(Stage::HubPump);
        let target = self.hub.now(self.sids[0]) + wall_ms;
        let addr = self.addr;
        let mut leases: Vec<[Party<'_>; 1]> = self
            .servers
            .iter_mut()
            .map(|s| [Party::new(addr, s)])
            .collect();
        let mut sessions: Vec<HubSession<'_, '_>> = leases
            .iter_mut()
            .zip(self.sids.iter())
            .map(|(parties, sid)| HubSession::new(*sid, parties, target))
            .collect();
        let dist = &mut self.dist;
        self.hub.pump_with(&mut sessions, || dist.pump(wall_ms));
    }

    pub fn net(&self) -> NetCounters {
        self.hub.shard(0).poller().counters.clone()
    }

    pub fn hub_stats(&self) -> HubCounts {
        let mut h = HubCounts::from(&self.hub.stats());
        let d = self.dist.stats();
        h.feed_overflow = d.overflow;
        h.feed_bounced = d.bounced;
        h.feed_dropped = d.dropped;
        h
    }
}

/// The client half: every client on its own socket, all driven by one
/// thread through one hub.
pub struct UdpClientSide {
    hub: ServerHub<TapPoller<UdpPoller>>,
    sids: Vec<SessionId>,
    addrs: Vec<Addr>,
    pub clients: Vec<TapClient>,
}

impl UdpClientSide {
    pub fn new(
        sessions: usize,
        seed: u64,
        server: Addr,
        predict: Predict,
    ) -> std::io::Result<Self> {
        let mut hub = ServerHub::new(TapPoller::new(UdpPoller::new(), Role::Clients));
        let mut sids = Vec::with_capacity(sessions);
        let mut addrs = Vec::with_capacity(sessions);
        let mut clients = Vec::with_capacity(sessions);
        for i in 0..sessions {
            let channel = UdpChannel::bind("127.0.0.1:0")?;
            addrs.push(channel.local_addr());
            let tok = hub.poller_mut().add(channel);
            sids.push(hub.add_session(tok));
            clients.push(TapClient::new(
                session_key(seed, i),
                server,
                predict,
                true,
                i,
            ));
        }
        Ok(UdpClientSide {
            hub,
            sids,
            addrs,
            clients,
        })
    }

    pub fn now(&self, i: usize) -> Millis {
        self.hub.now(self.sids[i])
    }

    /// The port that names session `i` in the budget marks.
    pub fn port(&self, i: usize) -> u16 {
        self.addrs[i].port
    }

    /// Drives every client for `ms` of its own clock.
    pub fn pump(&mut self, ms: u64) {
        let _span = trace::span(Stage::GenPump);
        let targets: Vec<Millis> = self
            .sids
            .iter()
            .map(|sid| self.hub.now(*sid) + ms)
            .collect();
        let mut leases: Vec<[Party<'_>; 1]> = self
            .clients
            .iter_mut()
            .zip(self.addrs.iter())
            .map(|(c, addr)| [Party::new(*addr, c)])
            .collect();
        let mut sessions: Vec<HubSession<'_, '_>> = leases
            .iter_mut()
            .zip(self.sids.iter().zip(&targets))
            .map(|(parties, (sid, target))| HubSession::new(*sid, parties, *target))
            .collect();
        self.hub.pump(&mut sessions);
    }

    pub fn net(&self) -> NetCounters {
        self.hub.poller().counters.clone()
    }
}

// ---------------------------------------------------------------------
// Correctness: the oracle and the end-of-run check
// ---------------------------------------------------------------------

/// The screen a fresh application and terminal, with no network between
/// them, show after `inputs` (fed at their recorded server-side times).
pub fn oracle_frame(app: AppKind, inputs: &[InputRec]) -> Framebuffer {
    let mut app = app.build();
    let mut writes = app.start(0);
    for input in inputs {
        writes.extend(app.poll(input.at));
        writes.extend(app.on_input(input.at, &input.bytes));
    }
    // The server applies writes in due-time order, ties in the order
    // they were scheduled.
    writes.sort_by_key(|w| w.at);
    let mut terminal = CompleteTerminal::initial();
    for w in &writes {
        terminal.act(&w.bytes);
    }
    terminal.frame().clone()
}

/// Per-session verdicts of the end-of-run check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// The client's server frame equals the server's.
    pub converged: bool,
    /// The server's frame equals the oracle's.
    pub oracle: bool,
    /// The application was fed exactly the bytes typed, in order.
    pub inputs: bool,
}

/// Checks one session. `typed` is what the generator typed;
/// `oracle_from` is the first input the oracle replays (0 for all).
pub fn check_session(
    client: &TapClient,
    server: &TapServer,
    app: AppKind,
    typed: &[Vec<u8>],
    oracle_from: usize,
) -> Verdict {
    let log = lock(&server.log);
    let fed_ok =
        log.inputs.len() == typed.len() && log.inputs.iter().zip(typed).all(|(i, t)| i.bytes == *t);
    let from = oracle_from.min(log.inputs.len());
    Verdict {
        converged: client.inner.server_frame() == server.inner.frame(),
        oracle: *server.inner.frame() == oracle_frame(app, &log.inputs[from..]),
        inputs: fed_ok,
    }
}

// ---------------------------------------------------------------------
// Counters read off the endpoints
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, Default)]
pub struct EndpointCounts {
    pub decrypts: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub sent: u64,
    /// Server-side sender counters.
    pub data: u64,
    pub retransmits: u64,
    pub pure_acks: u64,
    pub heartbeats: u64,
    pub piggybacked: u64,
    /// Client-side prediction counters.
    pub predicted: u64,
    pub instant: u64,
    pub mispredicted: u64,
}

pub fn endpoint_counts(clients: &[TapClient], servers: &[TapServer]) -> EndpointCounts {
    let mut c = EndpointCounts::default();
    for cl in clients {
        let t = cl.inner.transport_stats();
        c.decrypts += cl.inner.decrypt_count();
        c.accepted += t.datagrams_received;
        c.rejected += t.datagrams_rejected;
        c.sent += t.datagrams_sent;
        let p = cl.inner.prediction_stats();
        c.predicted += p.predicted;
        c.instant += p.displayed_instantly;
        c.mispredicted += p.mispredicted;
    }
    for s in servers {
        let t = s.inner.transport_stats();
        c.decrypts += s.inner.decrypt_count();
        c.accepted += t.datagrams_received;
        c.rejected += t.datagrams_rejected;
        c.sent += t.datagrams_sent;
        let ss = s.inner.sender_stats();
        c.data += ss.data;
        c.retransmits += ss.retransmits;
        c.pure_acks += ss.pure_acks;
        c.heartbeats += ss.heartbeats;
        c.piggybacked += ss.piggybacked_acks;
    }
    c
}

// ---------------------------------------------------------------------
// Probes: a layer's public entry point, replayed alone on captured input
// ---------------------------------------------------------------------

/// Runs `pass` three times and keeps the fastest time per named cost.
fn best_of_three<const N: usize>(mut pass: impl FnMut() -> [u64; N]) -> [u64; N] {
    let mut best = pass();
    for _ in 0..2 {
        let again = pass();
        for (b, a) in best.iter_mut().zip(again) {
            *b = (*b).min(a);
        }
    }
    best
}

fn timed<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_nanos() as u64;
    out
}

#[derive(Clone, Copy, Debug, Default)]
pub struct TerminalProbe {
    pub act_bytes: u64,
    pub act_ns: u64,
    pub frames: u64,
    pub diff_bytes: u64,
    /// `display::new_frame_into` between successive shipped frames.
    pub frame_diff_ns: u64,
    /// `SyncState::diff_from` / `apply_diff` on `CompleteTerminal`.
    pub state_diff_ns: u64,
    pub state_apply_ns: u64,
    /// The client terminal absorbing the diff string alone.
    pub term_apply_ns: u64,
    /// `Instruction::encode` + `fragment` + `Fragment::encode`.
    pub encode_ns: u64,
    pub fragments: u64,
}

/// Replays each session's captured writes through a fresh terminal,
/// cloning it where the server shipped, and times the layer calls a
/// shipping tick makes between those states.
pub fn probe_terminal(captures: &[Vec<Capture>]) -> TerminalProbe {
    let mut p = TerminalProbe::default();
    let sorted: Vec<Vec<&Capture>> = captures
        .iter()
        .map(|cap| {
            let mut v: Vec<&Capture> = cap.iter().collect();
            // Writes due at a shipping tick's time are applied before it ships.
            v.sort_by_key(|c| match c {
                Capture::Write(at, _) => (*at, 0),
                Capture::Ship(at) => (*at, 1),
            });
            v
        })
        .collect();
    let costs = best_of_three(|| {
        let mut c = [0u64; 6];
        let (mut act_bytes, mut frames, mut diff_bytes, mut fragments) = (0, 0, 0, 0);
        for cap in &sorted {
            let mut server = CompleteTerminal::initial();
            let mut client = CompleteTerminal::initial();
            let mut screen = CompleteTerminal::initial();
            let mut prev = server.clone();
            let mut buf = String::new();
            for ev in cap {
                match ev {
                    Capture::Write(_, bytes) => {
                        act_bytes += bytes.len() as u64;
                        timed(&mut c[0], || server.act(bytes));
                    }
                    Capture::Ship(_) => {
                        let snap = server.clone();
                        timed(&mut c[1], || {
                            display::new_frame_into(true, prev.frame(), snap.frame(), &mut buf)
                        });
                        let diff = timed(&mut c[2], || snap.diff_from(&prev));
                        timed(&mut c[3], || client.apply_diff(&diff)).expect("own diff applies");
                        timed(&mut c[4], || screen.act(buf.as_bytes()));
                        fragments += timed(&mut c[5], || {
                            let ins = Instruction {
                                protocol_version: PROTOCOL_VERSION,
                                old_num: frames,
                                new_num: frames + 1,
                                ack_num: 0,
                                throwaway_num: frames,
                                diff: diff.clone(),
                            };
                            let frags = fragment(frames, &ins.encode(&[]), FRAGMENT_PAYLOAD);
                            for f in &frags {
                                black_box(f.encode());
                            }
                            frags.len() as u64
                        });
                        frames += 1;
                        diff_bytes += diff.len() as u64;
                        prev = snap;
                    }
                }
            }
        }
        p.act_bytes = act_bytes;
        p.frames = frames;
        p.diff_bytes = diff_bytes;
        p.fragments = fragments;
        c
    });
    [
        p.act_ns,
        p.frame_diff_ns,
        p.state_diff_ns,
        p.state_apply_ns,
        p.term_apply_ns,
        p.encode_ns,
    ] = costs;
    p
}

/// `UserStream::diff_from` / `apply_diff` over the inputs as typed: ns
/// per call of each, and the number of calls.
pub fn probe_user_stream(inputs: &[Vec<u8>]) -> (u64, u64, u64) {
    let [diff_ns, apply_ns] = best_of_three(|| {
        let mut c = [0u64; 2];
        let mut local = UserStream::new();
        let mut remote = UserStream::new();
        for bytes in inputs {
            let prev = local.clone();
            local.push_keystroke(bytes);
            let diff = timed(&mut c[0], || local.diff_from(&prev));
            timed(&mut c[1], || remote.apply_diff(&diff)).expect("own diff applies");
        }
        c
    });
    (diff_ns, apply_ns, inputs.len() as u64)
}

#[derive(Clone, Copy, Debug, Default)]
pub struct CryptoProbe {
    pub dgrams: u64,
    pub bytes: u64,
    pub seal_ns: u64,
    pub open_ns: u64,
}

/// Seals and opens datagrams of the captured sizes in batches of 16
/// through `crypto::Session`'s batch calls.
pub fn probe_crypto(sizes: &[u16]) -> CryptoProbe {
    let key = session_key(7, 7);
    let payloads: Vec<Vec<u8>> = sizes
        .iter()
        .map(|s| vec![0x5a; (*s as usize).saturating_sub(WIRE_OVERHEAD)])
        .collect();
    let [seal_ns, open_ns] = best_of_three(|| {
        let mut c = [0u64; 2];
        let mut sealer = Session::new(key.clone(), Direction::ToClient);
        let opener = Session::new(key.clone(), Direction::ToServer);
        let mut wires: Vec<Vec<u8>> = vec![Vec::new(); 16];
        let mut plains: Vec<Vec<u8>> = vec![Vec::new(); 16];
        for batch in payloads.chunks(16) {
            let refs: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
            let n = refs.len();
            timed(&mut c[0], || {
                sealer.encrypt_many_into(&refs, &mut wires[..n])
            });
            let wire_refs: Vec<&[u8]> = wires[..n].iter().map(Vec::as_slice).collect();
            let verdicts = timed(&mut c[1], || {
                opener.decrypt_many_into(&wire_refs, &mut plains[..n])
            });
            assert!(verdicts.iter().all(Result::is_ok), "probe datagrams open");
        }
        c
    });
    CryptoProbe {
        dgrams: sizes.len() as u64,
        bytes: sizes.iter().map(|s| *s as u64).sum(),
        seal_ns,
        open_ns,
    }
}

/// `hub::snapshot::snapshot_server` over up to 64 of the run's servers:
/// `(ns, bytes, servers)`.
pub fn probe_snapshot(servers: &[TapServer]) -> (u64, u64, u64) {
    let sample = &servers[..servers.len().min(64)];
    let mut bytes = 0;
    let [ns] = best_of_three(|| {
        let mut c = [0u64; 1];
        bytes = 0;
        for s in sample {
            bytes += timed(&mut c[0], || snapshot::snapshot_server(&s.inner)).len() as u64;
        }
        c
    });
    (ns, bytes, sample.len() as u64)
}

/// Heap bytes still live after building `n` servers that never ran.
pub fn probe_idle_server_bytes(n: usize) -> f64 {
    let was_on = trace::on();
    trace::count_allocs(true);
    let before = trace::thread_live_bytes();
    let servers: Vec<MoshServer> = (0..n)
        .map(|i| MoshServer::new(session_key(9, i), AppKind::Shell.build()))
        .collect();
    let live = trace::thread_live_bytes() - before;
    trace::count_allocs(was_on);
    drop(servers);
    live as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The end-of-run check passes on a faithful run, and fails when one
    /// byte of what was typed, or of what the oracle is fed, is flipped.
    #[test]
    fn a_flipped_byte_fails_the_check() {
        let spec = SimSpec {
            sessions: 1,
            shards: 1,
            link: Link::Lan,
            predict: Predict::Never,
            seed: 3,
        };
        let mut fleet = SimFleet::new(spec, |_| AppKind::Shell);
        let mut now = 1_000;
        fleet.pump(&[now]);
        let typed: Vec<Vec<u8>> = b"echo hi\r".iter().map(|b| vec![*b]).collect();
        for key in &typed {
            fleet.clients[0].keystroke(now, key);
            now += 100;
            fleet.pump(&[now]);
        }
        fleet.pump(&[now + 2_000]);
        let (client, server) = (&fleet.clients[0], &fleet.servers[0]);

        let v = check_session(client, server, AppKind::Shell, &typed, 0);
        assert!(v.converged && v.oracle && v.inputs, "{v:?}");

        let mut mistyped = typed.clone();
        mistyped[5][0] ^= 1;
        assert!(!check_session(client, server, AppKind::Shell, &mistyped, 0).inputs);

        let mut inputs = lock(&server.log).inputs.clone();
        inputs[5].bytes[0] ^= 1;
        assert!(oracle_frame(AppKind::Shell, &inputs) != *server.inner.frame());
    }
}
