//! The replay engine: the paper's evaluation method (§4).
//!
//! "A client-side process played the user portion of the traces, and a
//! server-side process waited for the expected user input and then replied
//! (in time) with the prerecorded server output." Our applications are
//! deterministic, so running them live *is* replying with the prerecorded
//! output — byte-for-byte and with the same think-time.
//!
//! For every keystroke we record the user-interface response latency:
//!
//! * **Mosh** — zero when the prediction engine displayed the keystroke's
//!   effect speculatively at input time; otherwise the arrival time of the
//!   first server frame whose echo ack covers the keystroke (the screen
//!   then provably reflects it). The echo ack is set `ECHO_TIMEOUT` (50 ms)
//!   after the key is applied and rides the next frame, up to
//!   `SEND_INTERVAL_MAX` (250 ms) later: it lags the screen by up to 300 ms,
//!   so this measure is *conservative against Mosh* (ROADMAP.md, 1(c)).
//! * **SSH** — the time the client has rendered every output byte the
//!   application produced in response to the keystroke (known exactly
//!   from a deterministic dry run).
//!
//! Keystrokes that produce no output at all (and were not predicted) are
//! excluded from both systems alike: no response ever becomes visible.
//!
//! Sessions are driven by the multi-session [`mosh_core::ServerHub`]: every user in
//! a replay batch is one hub session in its own discrete-event world, all
//! demultiplexed through a single timer wheel and one event loop — the
//! six-user workloads that used to be six dedicated loops are now one
//! hub. Per-session stepping is event-driven (virtual time jumps straight
//! to the next wakeup or delivery), and the resolution of keystrokes
//! against server acknowledgments rides on the hub's typed events
//! ([`SessionEvent::FrameAdvanced`] for Mosh,
//! [`SessionEvent::BytesRendered`] for SSH), so the measured schedule is
//! identical to the historical 1 ms pump and to dedicated per-user loops
//! alike (see `tests/schedule_identity.rs` and `tests/hub_identity.rs`).
//!
//! Both systems run through that one loop. They differ only in what a
//! typed key waits for (`Typist::press`: nothing when a prediction shows
//! it, else an echo-ack level for Mosh, a rendered-byte count for SSH)
//! and in which event reports that level (`level`).

use crate::stats::Latencies;
use crate::synth::{KeyKind, TraceKey, UserTrace};
use crate::workload::{WorkloadApp, SWITCH_BYTE};
use mosh_core::session::{Endpoint, Party, SessionEvent};
use mosh_core::{HubSession, Millis, MoshClient, MoshServer, SessionId, ShardedHub, WriteObserver};
use mosh_crypto::Base64Key;
use mosh_net::{Addr, LinkConfig, Network, Side, SimChannel, SimPoller};
use mosh_prediction::DisplayPreference;
use mosh_ssh::{SshClient, SshServer};
use mosh_tcp::TcpEndpoint;
use std::collections::VecDeque;
use std::sync::mpsc;

/// Configuration of one replay run.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Client→server link.
    pub up: LinkConfig,
    /// Server→client link.
    pub down: LinkConfig,
    /// Network RNG seed.
    pub seed: u64,
    /// Prediction display preference (Mosh only).
    pub preference: DisplayPreference,
    /// Collection-interval override in ms (Figure 3's sweep).
    pub mindelay: Option<Millis>,
    /// Run a concurrent bulk TCP download through the same downlink
    /// bottleneck (the LTE experiment).
    pub bulk_download: bool,
    /// Worker threads for batch replays: users are spread over this many
    /// hub shards, each replaying its share in parallel. Per-user results
    /// are **identical at every thread count** (each user is a private
    /// world; the sharded hub is byte-identical to the single-threaded
    /// one), so this is purely a wall-clock knob. 0 and 1 both mean
    /// single-threaded.
    pub threads: usize,
}

impl ReplayConfig {
    /// A replay over the given pair of links with defaults otherwise.
    pub fn over(up: LinkConfig, down: LinkConfig) -> Self {
        ReplayConfig {
            up,
            down,
            seed: 42,
            preference: DisplayPreference::Adaptive,
            mindelay: None,
            bulk_download: false,
            threads: 1,
        }
    }

    /// The shard count a config asks for (clamped to at least one, and
    /// never more than one shard per user).
    fn shards_for(&self, users: usize) -> usize {
        self.threads.max(1).min(users.max(1))
    }
}

/// The outcome of replaying one trace through one system.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Per-keystroke response latencies (ms).
    pub latencies: Latencies,
    /// Keystrokes whose effect displayed instantly (Mosh predictions).
    pub instant: u64,
    /// Keystrokes measured.
    pub measured: u64,
    /// Mispredictions repaired (Mosh).
    pub mispredicted: u64,
    /// Server-side `(write arrival, shipped)` pairs (Figure 3).
    pub write_delays: Vec<(Millis, Millis)>,
    /// SSP sender stats (ablations); zeroed for SSH.
    pub sender_stats: mosh_ssp::sender::SenderStats,
}

/// Figure 3's measurement, kept by the harness that wants it: when each
/// application write reached the server's terminal and when a frame
/// covering it left, sent as `(arrived, shipped)` pairs to whoever holds
/// the receiving end.
#[derive(Debug)]
pub struct WriteDelayLog {
    /// Arrival times of writes no frame has covered yet.
    unshipped: Vec<Millis>,
    shipped: mpsc::Sender<(Millis, Millis)>,
}

impl WriteDelayLog {
    /// Installs a log as `server`'s write observer and returns where its
    /// pairs arrive, in shipping order.
    pub fn install(server: &mut MoshServer) -> mpsc::Receiver<(Millis, Millis)> {
        let (shipped, pairs) = mpsc::channel();
        server.observe_writes(Box::new(WriteDelayLog {
            unshipped: Vec::new(),
            shipped,
        }));
        pairs
    }
}

impl WriteObserver for WriteDelayLog {
    fn write_applied(&mut self, at: Millis) {
        self.unshipped.push(at);
    }

    fn frame_shipped(&mut self, now: Millis) {
        for arrived in self.unshipped.drain(..) {
            // A harness that dropped the receiver no longer wants them.
            let _ = self.shipped.send((arrived, now));
        }
    }
}

/// A flattened trace: absolute keystroke times plus the switch markers.
struct FlatTrace {
    keys: Vec<(Millis, Vec<u8>, KeyKind, bool)>, // (at, bytes, kind, measured)
    apps: Vec<crate::workload::AppKind>,
}

fn flatten(trace: &UserTrace) -> FlatTrace {
    let mut keys = Vec::new();
    let mut now: Millis = 1500; // Let the session settle first.
    for (i, seg) in trace.segments.iter().enumerate() {
        if i > 0 {
            now += 1500;
            keys.push((now, vec![SWITCH_BYTE], KeyKind::Control, false));
        }
        for TraceKey {
            gap_ms,
            bytes,
            kind,
        } in &seg.keys
        {
            now += gap_ms;
            keys.push((now, bytes.clone(), *kind, true));
        }
    }
    FlatTrace {
        keys,
        apps: trace.segments.iter().map(|s| s.app).collect(),
    }
}

/// Dry-runs the workload to learn each keystroke's cumulative response
/// byte target (and which keystrokes produce any output at all).
fn dry_run(flat: &FlatTrace) -> Vec<u64> {
    let mut app = WorkloadApp::new(flat.apps.clone());
    use mosh_core::apps::Application;
    let mut cumulative: u64 = app.start(0).iter().map(|w| w.bytes.len() as u64).sum();
    let mut targets = Vec::with_capacity(flat.keys.len());
    for (at, bytes, _, _) in &flat.keys {
        let writes = app.on_input(*at, bytes);
        let produced: u64 = writes.iter().map(|w| w.bytes.len() as u64).sum();
        cumulative += produced;
        // Target 0 marks "no visible response".
        targets.push(if produced == 0 { 0 } else { cumulative });
    }
    targets
}

/// Replays a trace through a full Mosh session over the emulated network.
pub fn replay_mosh(trace: &UserTrace, cfg: &ReplayConfig) -> ReplayOutcome {
    replay_mosh_many(std::slice::from_ref(trace), cfg)
        .pop()
        .expect("one trace in, one outcome out")
}

/// Replays a trace through the SSH baseline over the emulated network.
pub fn replay_ssh(trace: &UserTrace, cfg: &ReplayConfig) -> ReplayOutcome {
    replay_ssh_many(std::slice::from_ref(trace), cfg)
        .pop()
        .expect("one trace in, one outcome out")
}

/// Replays a batch of traces through full Mosh sessions — one
/// [`mosh_core::ServerHub`] driving every user concurrently, each in its own
/// emulated network world (same links, same seed: users are statistically
/// identical runs, exactly as the per-user processes of the paper's
/// evaluation were). Outcomes come back in trace order and are identical
/// to running each trace through a dedicated loop.
pub fn replay_mosh_many(traces: &[UserTrace], cfg: &ReplayConfig) -> Vec<ReplayOutcome> {
    let key = Base64Key::from_bytes([0x4d; 16]);
    let s_addr = Addr::new(2, 60001);
    let mut write_logs = Vec::new();
    let users = replay_many(traces, cfg, (Addr::new(1, 1000), s_addr), 20_000, |app| {
        let client = MoshClient::new(key.clone(), s_addr, 80, 24, cfg.preference);
        let mut server = MoshServer::new(key.clone(), Box::new(app));
        if let Some(md) = cfg.mindelay {
            server.set_mindelay(md);
        }
        write_logs.push(WriteDelayLog::install(&mut server));
        (client, server)
    });
    users
        .into_iter()
        .zip(write_logs)
        .map(|(u, write_log)| ReplayOutcome {
            mispredicted: u.client.prediction_stats().mispredicted,
            sender_stats: *u.server.sender_stats(),
            write_delays: write_log.try_iter().collect(),
            latencies: u.latencies,
            instant: u.instant,
            measured: u.measured,
        })
        .collect()
}

/// Replays a batch of traces through the SSH baseline — one [`mosh_core::ServerHub`]
/// driving every user concurrently (see [`replay_mosh_many`]).
pub fn replay_ssh_many(traces: &[UserTrace], cfg: &ReplayConfig) -> Vec<ReplayOutcome> {
    let (c_addr, s_addr) = (Addr::new(1, 5001), Addr::new(2, 22));
    let users = replay_many(traces, cfg, (c_addr, s_addr), 130_000, |app| {
        (
            SshClient::new(c_addr, s_addr, 80, 24),
            SshServer::new(s_addr, c_addr, Box::new(app)),
        )
    });
    users
        .into_iter()
        .map(|u| ReplayOutcome {
            latencies: u.latencies,
            instant: u.instant,
            measured: u.measured,
            mispredicted: 0,
            write_delays: Vec::new(),
            sender_stats: mosh_ssp::sender::SenderStats::default(),
        })
        .collect()
}

/// A system's client as the replay types on it.
trait Typist: Endpoint {
    /// Types `bytes` at `at`, whose application response ends at
    /// cumulative byte `response`. Returns the [`level`] at which the
    /// response is visible, or `None` when the screen already shows it.
    fn press(&mut self, at: Millis, bytes: &[u8], response: u64) -> Option<u64>;
}

impl Typist for MoshClient {
    /// Visible at once when a prediction shows the key; otherwise once a
    /// frame's echo ack covers it (see the module docs).
    fn press(&mut self, at: Millis, bytes: &[u8], _response: u64) -> Option<u64> {
        let shown = self.keystroke(at, bytes);
        (!shown).then(|| self.input_end_index())
    }
}

impl Typist for SshClient {
    /// Visible once every byte of the response has been rendered.
    fn press(&mut self, at: Millis, bytes: &[u8], response: u64) -> Option<u64> {
        self.keystroke(at, bytes);
        Some(response)
    }
}

/// How far a session event proves the client's screen has come, and
/// when: a Mosh frame's echo ack, or the SSH client's rendered bytes.
/// Both only ever grow.
fn level(ev: &SessionEvent) -> Option<(Millis, u64)> {
    match *ev {
        SessionEvent::FrameAdvanced { at, echo_ack, .. } => Some((at, echo_ack)),
        SessionEvent::BytesRendered { at, total } => Some((at, total)),
        _ => None,
    }
}

/// One user's replay: the flattened script, its response-byte targets,
/// the two endpoints (and the bulk flow beside them), the keystrokes
/// waiting for their response, and the measurements.
struct User<C, S> {
    sid: SessionId,
    keys: Vec<(Millis, Vec<u8>, KeyKind, bool)>,
    targets: Vec<u64>,
    next_key: usize,
    /// The settle deadline after the last keystroke.
    end: Millis,
    done: bool,
    client: C,
    server: S,
    bulk: Option<BulkFlow>,
    /// Counted keystrokes not yet visible: ([`level`] needed, typed at).
    waiting: VecDeque<(u64, Millis)>,
    latencies: Latencies,
    instant: u64,
    measured: u64,
}

impl<C: Typist, S: Endpoint> User<C, S> {
    /// The next instant this user needs control back: its next keystroke,
    /// or the post-trace settle deadline.
    fn next_target(&self) -> Millis {
        self.keys
            .get(self.next_key)
            .map(|k| k.0)
            .unwrap_or(self.end)
    }

    /// The user's lease. Party order matters for determinism: it fixes
    /// the order same-instant datagrams enter the emulator, exactly as
    /// the historical loop ticked them.
    fn parties(&mut self, c_addr: Addr, s_addr: Addr) -> Vec<Party<'_>> {
        let mut parties = vec![
            Party::new(c_addr, &mut self.client),
            Party::new(s_addr, &mut self.server),
        ];
        if let Some(b) = &mut self.bulk {
            parties.push(Party::new(BULK_SERVER, &mut b.sender));
            parties.push(Party::new(BULK_CLIENT, &mut b.receiver));
        }
        parties
    }

    /// Resolves every waiting keystroke that a frame at `level`, arriving
    /// at `at`, makes visible.
    fn resolve(&mut self, at: Millis, level: u64) {
        while let Some(&(need, typed_at)) = self.waiting.front() {
            if level < need {
                break;
            }
            self.waiting.pop_front();
            self.measured += 1;
            self.latencies.push((at - typed_at) as f64);
        }
    }

    /// Types every keystroke due by the round's target; the next pump
    /// ticks them out. The round after the last keystroke runs to the
    /// settle deadline, and the user is done after it.
    fn type_due_keys(&mut self) {
        if self.next_key >= self.keys.len() {
            self.done = true;
            return;
        }
        let at = self.next_target();
        while let Some((key_at, bytes, _, count_it)) = self.keys.get(self.next_key) {
            if *key_at > at {
                break;
            }
            let response = self.targets[self.next_key];
            let counted = *count_it && response != 0;
            match self.client.press(at, bytes, response) {
                None if counted => {
                    self.instant += 1;
                    self.measured += 1;
                    self.latencies.push(0.0);
                }
                Some(need) if counted => self.waiting.push_back((need, at)),
                _ => {}
            }
            self.next_key += 1;
        }
    }
}

/// The replay loop both systems share. Every user gets its own network
/// world and one hub session; `build` makes its client and server around
/// the user's application. Each round leases every user that is not done
/// to its own next target (its next keystroke, or its settle deadline),
/// pumps the hub — each user on its owning shard's worker thread —
/// resolves keystrokes against the events that arrived, then types the
/// keys that are due.
fn replay_many<C: Typist, S: Endpoint>(
    traces: &[UserTrace],
    cfg: &ReplayConfig,
    (c_addr, s_addr): (Addr, Addr),
    settle: Millis,
    mut build: impl FnMut(WorkloadApp) -> (C, S),
) -> Vec<User<C, S>> {
    let mut hub = ShardedHub::with_shards(cfg.shards_for(traces.len()), SimPoller::new);
    let mut users: Vec<User<C, S>> = traces
        .iter()
        .map(|trace| {
            let flat = flatten(trace);
            let targets = dry_run(&flat);
            let mut net = Network::new(cfg.up.clone(), cfg.down.clone(), cfg.seed);
            net.register(c_addr, Side::Client);
            net.register(s_addr, Side::Server);
            let (client, server) = build(WorkloadApp::new(flat.apps));
            let bulk = cfg.bulk_download.then(|| BulkFlow::new(&mut net));
            User {
                sid: hub.add_session(SimChannel::new(net)),
                end: flat.keys.last().map_or(0, |k| k.0) + settle,
                keys: flat.keys,
                targets,
                next_key: 0,
                done: false,
                client,
                server,
                bulk,
                waiting: VecDeque::new(),
                latencies: Latencies::new(),
                instant: 0,
                measured: 0,
            }
        })
        .collect();

    loop {
        let mut leases: Vec<(SessionId, Millis, Vec<Party<'_>>)> = users
            .iter_mut()
            .filter(|u| !u.done)
            .map(|u| (u.sid, u.next_target(), u.parties(c_addr, s_addr)))
            .collect();
        if leases.is_empty() {
            return users;
        }
        let mut sessions: Vec<HubSession<'_, '_>> = leases
            .iter_mut()
            .map(|(sid, target, parties)| HubSession::new(*sid, parties, *target))
            .collect();
        for (sid, ev) in hub.pump(&mut sessions) {
            // A replay keeps no checkpoints: a crashed user's clock would
            // stall, and this loop would never end.
            assert!(
                !matches!(ev, SessionEvent::Crashed { .. }),
                "user {} crashed: {ev:?}",
                sid.0
            );
            if let Some((at, level)) = level(&ev) {
                users[sid.0].resolve(at, level);
            }
        }
        for u in users.iter_mut().filter(|u| !u.done) {
            u.type_due_keys();
        }
    }
}

/// Address the bulk download's client side receives on.
pub const BULK_CLIENT: Addr = Addr::new(1, 9999);
/// Address the bulk download's server side receives on.
pub const BULK_SERVER: Addr = Addr::new(2, 8888);

/// A greedy bulk TCP download sharing the bottleneck (LTE experiment).
pub struct BulkFlow {
    /// The download's server side, at [`BULK_SERVER`].
    pub sender: BulkSender,
    /// The download's client side, at [`BULK_CLIENT`].
    pub receiver: BulkReceiver,
}

impl BulkFlow {
    /// Registers both bulk addresses on `net` and primes the download.
    pub fn new(net: &mut Network) -> Self {
        net.register(BULK_CLIENT, Side::Client);
        net.register(BULK_SERVER, Side::Server);
        let mut server = TcpEndpoint::new(BULK_SERVER, BULK_CLIENT);
        server.write(&vec![0u8; 4_000_000]);
        BulkFlow {
            sender: BulkSender { ep: server },
            receiver: BulkReceiver {
                ep: TcpEndpoint::new(BULK_CLIENT, BULK_SERVER),
            },
        }
    }
}

/// The download's server side: keeps its send buffer topped up so the
/// flow never goes idle (an endless download).
pub struct BulkSender {
    ep: TcpEndpoint,
}

impl Endpoint for BulkSender {
    fn receive(&mut self, now: Millis, _from: Addr, wire: &[u8], _events: &mut Vec<SessionEvent>) {
        self.ep.receive(now, wire);
    }

    fn tick(
        &mut self,
        now: Millis,
        out: &mut Vec<(Addr, Vec<u8>)>,
        _events: &mut Vec<SessionEvent>,
    ) {
        if self.ep.backlog() < 2_000_000 {
            self.ep.write(&vec![0u8; 4_000_000]);
        }
        out.extend(self.ep.tick(now));
    }

    fn next_wakeup(&self, now: Millis) -> Millis {
        // The greedy flow is paced by its own congestion-window dynamics
        // every millisecond; match the historical per-millisecond drive.
        now + 1
    }
}

/// The download's client side: drains delivered bytes and discards them.
pub struct BulkReceiver {
    ep: TcpEndpoint,
}

impl Endpoint for BulkReceiver {
    fn receive(&mut self, now: Millis, _from: Addr, wire: &[u8], _events: &mut Vec<SessionEvent>) {
        self.ep.receive(now, wire);
        let _ = self.ep.read();
    }

    fn tick(
        &mut self,
        now: Millis,
        out: &mut Vec<(Addr, Vec<u8>)>,
        _events: &mut Vec<SessionEvent>,
    ) {
        out.extend(self.ep.tick(now));
    }

    fn next_wakeup(&self, now: Millis) -> Millis {
        now + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::small_trace;

    #[test]
    fn mosh_replay_measures_most_keystrokes() {
        let trace = small_trace(60);
        let cfg = ReplayConfig::over(LinkConfig::lan(), LinkConfig::lan());
        let out = replay_mosh(&trace, &cfg);
        assert!(out.measured >= 50, "measured {}", out.measured);
        // LAN: everything fast.
        assert!(out.latencies.median() < 200.0);
    }

    #[test]
    fn ssh_replay_measures_most_keystrokes() {
        let trace = small_trace(60);
        let cfg = ReplayConfig::over(LinkConfig::lan(), LinkConfig::lan());
        let out = replay_ssh(&trace, &cfg);
        assert!(out.measured >= 50, "measured {}", out.measured);
        assert!(out.latencies.median() < 100.0);
    }

    #[test]
    fn mosh_wins_on_high_latency_links() {
        let trace = small_trace(80);
        let slow = LinkConfig {
            delay_ms: 250,
            ..LinkConfig::lan()
        };
        let cfg = ReplayConfig::over(slow.clone(), slow);
        let mosh = replay_mosh(&trace, &cfg);
        let ssh = replay_ssh(&trace, &cfg);
        assert!(
            mosh.latencies.median() < ssh.latencies.median() / 3.0,
            "mosh median {} vs ssh {}",
            mosh.latencies.median(),
            ssh.latencies.median()
        );
        assert!(mosh.instant > 0, "predictions fired");
        assert!((ssh.latencies.median() - 500.0).abs() < 120.0);
    }

    #[test]
    fn replays_are_deterministic() {
        let trace = small_trace(40);
        let cfg = ReplayConfig::over(LinkConfig::lan(), LinkConfig::lan());
        let a = replay_mosh(&trace, &cfg);
        let b = replay_mosh(&trace, &cfg);
        assert_eq!(a.latencies.median(), b.latencies.median());
        assert_eq!(a.instant, b.instant);
    }

    #[test]
    fn bulk_download_replay_still_completes() {
        let trace = small_trace(20);
        let mut cfg = ReplayConfig::over(LinkConfig::lte_uplink(), LinkConfig::lte_downlink());
        cfg.bulk_download = true;
        let out = replay_mosh(&trace, &cfg);
        assert!(out.measured >= 10, "measured {}", out.measured);
    }
}
