//! The four workloads. Each builds its world (set-up, timed apart), runs
//! the timed section, and checks every session against the oracle.
//!
//! Sizes that are frozen here: session counts, link models, key rates,
//! and the virtual milliseconds each requested second of `--seconds`
//! buys (sized on the 2-core reference box so the timed section takes
//! about that many wall seconds). Shorten horizons with `--seconds`,
//! never session counts.

use crate::adapter::{
    self, lock, AppKind, Capture, EndpointCounts, HubCounts, Link, Millis, NetCounters, Predict,
    SimFleet, SimSpec, TapClient, TapServer, UdpClientSide, UdpServerSide,
};
use crate::gen::{typing_gap_ms, EditorTyper, Rng, ShellTyper, Typer};
use crate::host;
use crate::trace::{self, Stage};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = ["typing_sim", "flood_sim", "idle_fleet_sim", "typing_udp"];

/// Why each workload exists, in one line (`BENCHMARK.json`'s `why`; the
/// long form is in `README.md`).
pub const WHY: [&str; 4] = [
    "64 users typing over a simulated EV-DO link, open loop (the paper's Fig. 2): tiny diffs and small datagrams, so fixed cost per wakeup and per datagram in core, ssp, crypto and hub does the work",
    "16 shells printing floods over a simulated LAN, closed loop, Ctrl-C timed: the same layers the other way round, so terminal parser, scroll and differ do the work and hub and timers little",
    "8192 mostly idle sessions on two hub worker shards, 64 of them typing: lease sweep, timer wheel, heartbeats and memory per session do the work; the only simulation that crosses the worker hop",
    "16 users typing over real loopback UDP sockets, open loop on the wall clock: the only workload where the real half of net runs (syscalls, distributor, feed queue, thread wake-ups)",
];

/// A key with no answer on the client's screen this long after it was
/// due counts as failed.
const UNANSWERED_MS: f64 = 5_000.0;

#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub sessions: usize,
    /// Sessions that type (all of them except in the idle fleet).
    pub active: usize,
    /// Virtual (or, for UDP, wall) milliseconds of the timed section's
    /// typing phase.
    pub horizon_ms: u64,
}

/// The frozen size of `workload` for a run of `seconds`; `smoke` shrinks
/// the fleet so a test finishes in a second or two.
pub fn size_of(workload: &str, seconds: u64, smoke: bool) -> Size {
    let (sessions, active, ms_per_second) = match (workload, smoke) {
        ("typing_sim", false) => (64, 64, 21_000),
        ("typing_sim", true) => (8, 8, 6_000),
        ("flood_sim", false) => (16, 16, 1_500),
        ("flood_sim", true) => (2, 2, 3_000),
        ("idle_fleet_sim", false) => (8192, 64, 800),
        ("idle_fleet_sim", true) => (256, 8, 4_000),
        ("typing_udp", false) => (16, 16, 1_000),
        ("typing_udp", true) => (4, 4, 1_000),
        _ => panic!("unknown workload {workload}"),
    };
    Size {
        sessions,
        active,
        horizon_ms: seconds * ms_per_second,
    }
}

/// One key's fate.
#[derive(Clone, Copy, Debug)]
struct KeyDone {
    idx: u64,
    due: f64,
    instant: bool,
    /// Due → the first authoritative frame with the key's whole effect.
    screen_ms: f64,
}

/// Per-session bookkeeping of keys typed and answered.
#[derive(Default)]
struct KeyLog {
    typed: Vec<Vec<u8>>,
    /// Keys excluded from the latency samples (flood: everything but ^C).
    untimed: Vec<bool>,
    pending: VecDeque<(u64, f64, bool)>,
    done: Vec<KeyDone>,
}

impl KeyLog {
    fn typed(&mut self, bytes: &[u8], due: f64, instant: bool, timed: bool) {
        self.pending
            .push_back((self.typed.len() as u64, due, instant));
        self.typed.push(bytes.to_vec());
        self.untimed.push(!timed);
    }

    /// A frame reflecting the first `reflected` inputs arrived at `at`.
    fn frame(&mut self, reflected: u64, at: f64) {
        while let Some(&(idx, due, instant)) = self.pending.front() {
            if idx >= reflected {
                break;
            }
            self.pending.pop_front();
            self.done.push(KeyDone {
                idx,
                due,
                instant,
                screen_ms: at - due,
            });
        }
    }
}

/// What a run measured, before it is turned into named metrics.
#[derive(Default)]
pub struct Outcome {
    pub sessions: usize,
    /// Session-seconds carried in the timed section (virtual for the
    /// simulated workloads, wall for UDP).
    pub session_seconds: f64,
    pub wall_s: f64,
    /// CPU-seconds of the system under test in the timed section: the
    /// whole process for a simulation, every thread but the generator
    /// for UDP.
    pub cpu_s: f64,
    pub keys: u64,
    /// The paper's measure per timed key: 0 if predicted on screen at
    /// once, else `screen_ms`.
    pub response_ms: Vec<f64>,
    pub screen_ms: Vec<f64>,
    pub instant: u64,
    pub unanswered: u64,
    pub checks: u64,
    pub check_failures: u64,
    pub shed: u64,
    pub app_bytes: u64,
    pub rss_kb: f64,
    pub net: NetCounters,
    pub hub: HubCounts,
    pub ep: EndpointCounts,
    /// UDP: how late the generator typed each key, and its busy share.
    pub gen_late_ms: Vec<f64>,
    pub gen_busy: f64,
    pub gen_net: NetCounters,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn wire_bytes(&self) -> u64 {
        self.net.up_bytes + self.net.down_bytes + self.gen_net.up_bytes + self.gen_net.down_bytes
    }

    pub fn wire_dgrams(&self) -> u64 {
        self.net.up_dgrams
            + self.net.down_dgrams
            + self.gen_net.up_dgrams
            + self.gen_net.down_dgrams
    }

    pub fn attempted(&self) -> u64 {
        self.keys + self.checks
    }

    pub fn failed(&self) -> u64 {
        self.unanswered + self.check_failures + self.shed + self.hub.shard_panics
    }

    /// Folds the sessions' key logs and end-of-run verdicts in.
    fn settle(
        &mut self,
        logs: &[KeyLog],
        clients: &[TapClient],
        servers: &[TapServer],
        apps: &dyn Fn(usize) -> AppKind,
        oracle_from: &dyn Fn(usize) -> usize,
    ) {
        for (i, keys) in logs.iter().enumerate() {
            self.keys += keys.typed.len() as u64;
            let log = lock(&servers[i].log);
            self.app_bytes += log.app_bytes;
            // The paper leaves out keys the application answers with no
            // output at all: nothing ever becomes visible.
            let wrote = |idx: u64| log.inputs.get(idx as usize).is_none_or(|r| r.wrote);
            for k in &keys.done {
                if keys.untimed[k.idx as usize] || !wrote(k.idx) {
                    continue;
                }
                if k.screen_ms > UNANSWERED_MS {
                    self.unanswered += 1;
                    continue;
                }
                self.instant += u64::from(k.instant);
                self.response_ms
                    .push(if k.instant { 0.0 } else { k.screen_ms });
                self.screen_ms.push(k.screen_ms);
            }
            let lost = keys.pending.iter().filter(|(idx, ..)| wrote(*idx)).count() as u64;
            if lost > 0 {
                self.failures
                    .push(format!("session {i}: {lost} keys never answered"));
            }
            self.unanswered += lost;
            drop(log);
            if keys.typed.is_empty() {
                // An idle session: convergence only.
                self.checks += 1;
                if clients[i].inner.server_frame() != servers[i].inner.frame() {
                    self.check_failures += 1;
                    self.failures.push(format!("idle session {i} diverged"));
                }
                continue;
            }
            let v = adapter::check_session(
                &clients[i],
                &servers[i],
                apps(i),
                &keys.typed,
                oracle_from(i),
            );
            self.checks += 3;
            for (ok, what) in [
                (v.converged, "client and server screens differ"),
                (v.oracle, "server screen differs from the oracle's"),
                (v.inputs, "application was not fed what was typed"),
            ] {
                if !ok {
                    self.check_failures += 1;
                    self.failures.push(format!("session {i}: {what}"));
                }
            }
        }
        self.ep = adapter::endpoint_counts(clients, servers);
    }
}

/// What the traced run keeps for the probes and the budget.
#[derive(Default)]
pub struct Artifacts {
    pub captures: Vec<Vec<Capture>>,
    pub typed: Vec<Vec<u8>>,
    pub sizes: Vec<u16>,
    pub snapshot: (u64, u64, u64),
    pub budget: Vec<crate::budget::KeyPath>,
    pub wake_to_send_us: Vec<f64>,
}

fn collect_artifacts(
    clients: &[TapClient],
    servers: &[TapServer],
    logs: &[KeyLog],
    net: &NetCounters,
) -> Artifacts {
    Artifacts {
        wake_to_send_us: clients
            .iter()
            .flat_map(|c| c.wake_to_send_us.iter().copied())
            .collect(),
        captures: servers
            .iter()
            .filter(|s| !lock(&s.log).inputs.is_empty())
            .take(8)
            .map(|s| std::mem::take(&mut lock(&s.log).capture))
            .collect(),
        typed: logs
            .iter()
            .take(8)
            .flat_map(|l| l.typed.iter().cloned())
            .collect(),
        sizes: net.sizes.clone(),
        snapshot: adapter::probe_snapshot(servers),
        budget: Vec::new(),
    }
}

/// Brackets a timed section: wall and CPU at both ends.
///
/// The whole section's ratio is what is reported. Medians over
/// half-second windows were tried and were worse (spread between eight
/// runs of one seed 9.6 % against 5.9 % on `typing_sim`, 14 % against
/// 10 % on `idle_fleet_sim`): the work per virtual second differs between
/// a workload's phases by more than the host's noise does, so a window
/// median sits between two modes and flips.
struct Clock {
    /// Threads whose CPU time is not the system's (the load generator).
    except: &'static str,
    wall: Instant,
    cpu_ns: u64,
}

impl Clock {
    fn start(except: &'static str) -> Self {
        Clock {
            except,
            wall: Instant::now(),
            cpu_ns: host::process_cpu_ns(except),
        }
    }

    fn stop(self, out: &mut Outcome) {
        out.wall_s = self.wall.elapsed().as_secs_f64();
        out.cpu_s = (host::process_cpu_ns(self.except) - self.cpu_ns) as f64 / 1e9;
    }
}

// ---------------------------------------------------------------------
// Simulated workloads
// ---------------------------------------------------------------------

/// A simulated world ready to run: prompts on every client's screen.
pub struct SimWorld {
    fleet: SimFleet,
    size: Size,
    seed: u64,
    /// The common virtual time set-up ended at.
    t0: Millis,
}

fn typing_app(i: usize) -> AppKind {
    if i.is_multiple_of(2) {
        AppKind::Shell
    } else {
        AppKind::Editor
    }
}

fn shell_app(_: usize) -> AppKind {
    AppKind::Shell
}

pub fn setup_sim(workload: &str, size: Size, seed: u64) -> SimWorld {
    let (shards, link, predict, app): (usize, Link, Predict, fn(usize) -> AppKind) = match workload
    {
        "typing_sim" => (1, Link::Evdo, Predict::Adaptive, typing_app),
        "flood_sim" => (1, Link::Lan, Predict::Adaptive, shell_app),
        "idle_fleet_sim" => (2, Link::Lan, Predict::Never, shell_app),
        _ => panic!("{workload} is not simulated"),
    };
    let mut fleet = SimFleet::new(
        SimSpec {
            sessions: size.sessions,
            shards,
            link,
            predict,
            seed,
        },
        app,
    );
    // Pump until every prompt has arrived.
    let mut t0 = 0;
    loop {
        t0 += 500;
        fleet.pump(&vec![t0; size.sessions]);
        let ready = fleet
            .clients
            .iter()
            .all(|c| !c.inner.server_frame().row_text(0).is_empty());
        if ready {
            break;
        }
        assert!(t0 < 60_000, "prompts never arrived");
    }
    for c in &mut fleet.clients {
        c.frames.clear();
    }
    SimWorld {
        fleet,
        size,
        seed,
        t0,
    }
}

/// Applies the frames a client saw since the last look to its key log.
fn absorb_frames(client: &mut TapClient, server: &TapServer, keys: &mut KeyLog) {
    if client.frames.is_empty() {
        return;
    }
    let log = lock(&server.log);
    for f in client.frames.drain(..) {
        keys.frame(log.reflected_by(f.num), f.at as f64);
    }
    drop(log);
    client.render();
}

/// `typing_sim`: every session types on its own seeded schedule, whatever
/// the echoes do (open loop); each is pumped from key to key.
pub fn run_typing_sim(world: SimWorld) -> (Outcome, Artifacts) {
    let SimWorld {
        mut fleet,
        size,
        seed,
        t0,
    } = world;
    let n = size.sessions;
    let end = t0 + size.horizon_ms;
    let settle_end = end + 6_000;
    let mut typers: Vec<(Rng, Box<dyn Typer>)> = (0..n)
        .map(|i| {
            let typer: Box<dyn Typer> = match typing_app(i) {
                AppKind::Shell => Box::new(ShellTyper::new(Rng::stream(seed, 2 * i as u64))),
                AppKind::Editor => Box::new(EditorTyper::new(Rng::stream(seed, 2 * i as u64))),
            };
            (Rng::stream(seed, 2 * i as u64 + 1), typer)
        })
        .collect();
    let mut next_due: Vec<Millis> = typers
        .iter_mut()
        .map(|(rng, _)| t0 + rng.range(0, 1_000))
        .collect();
    let mut logs: Vec<KeyLog> = (0..n).map(|_| KeyLog::default()).collect();
    let mut out = Outcome {
        sessions: n,
        ..Outcome::default()
    };

    let clock = Clock::start("");
    let mut targets = vec![0; n];
    loop {
        let mut live = false;
        for i in 0..n {
            targets[i] = next_due[i].min(settle_end);
            live |= fleet.now(i) < settle_end;
        }
        if !live {
            break;
        }
        fleet.pump(&targets);
        let _drive = trace::span(Stage::Drive);
        for i in 0..n {
            absorb_frames(&mut fleet.clients[i], &fleet.servers[i], &mut logs[i]);
            let now = fleet.now(i);
            while next_due[i] <= now {
                let (rng, typer) = &mut typers[i];
                let bytes = typer.next_key();
                let instant = fleet.clients[i].keystroke(now, &bytes);
                fleet.clients[i].render();
                logs[i].typed(&bytes, now as f64, instant, true);
                next_due[i] += typing_gap_ms(rng);
                if next_due[i] >= end {
                    next_due[i] = Millis::MAX;
                }
            }
        }
    }
    clock.stop(&mut out);
    out.session_seconds = n as f64 * (settle_end - t0) as f64 / 1e3;
    finish_sim(out, fleet, logs, &typing_app, &|_| 0)
}

fn finish_sim(
    mut out: Outcome,
    fleet: SimFleet,
    logs: Vec<KeyLog>,
    apps: &dyn Fn(usize) -> AppKind,
    oracle_from: &dyn Fn(usize) -> usize,
) -> (Outcome, Artifacts) {
    out.rss_kb = host::rss_kb();
    out.net = fleet.net();
    out.hub = fleet.hub_stats();
    out.shed = out.hub.dropped;
    out.settle(&logs, &fleet.clients, &fleet.servers, apps, oracle_from);
    let artifacts = if trace::on() {
        collect_artifacts(&fleet.clients, &fleet.servers, &logs, &out.net)
    } else {
        Artifacts::default()
    };
    (out, artifacts)
}

/// One step of a flood session's script.
#[derive(Clone, Debug)]
enum Step {
    /// Type these bytes this long after the previous step.
    Key(Vec<u8>, u64),
    /// Wait until every key typed so far is on the client's screen.
    Answered,
    Sleep(u64),
    /// The horizon check: past it, the script switches to its epilogue.
    CycleEnd,
}

fn type_line(script: &mut VecDeque<Step>, rng: &mut Rng, line: &str) {
    let mut gap = rng.range(100, 500);
    for b in line.bytes() {
        script.push_back(Step::Key(vec![b], gap));
        gap = rng.range(20, 60);
    }
    script.push_back(Step::Key(vec![b'\r'], gap));
    script.push_back(Step::Answered);
}

fn flood_cycle(script: &mut VecDeque<Step>, rng: &mut Rng) {
    type_line(script, rng, "cat 12000");
    type_line(script, rng, "seq 2000");
    type_line(script, rng, "yes");
    script.push_back(Step::Sleep(5_000));
    script.push_back(Step::Key(vec![0x03], 0));
    script.push_back(Step::Answered);
    script.push_back(Step::CycleEnd);
}

/// `flood_sim`: each session runs `cat 12000` and `seq 2000`, waiting for
/// the prompt after each, then `yes` for five virtual seconds, stops it
/// with Ctrl-C, waits for the prompt and starts over (closed loop). Only
/// the Ctrl-C is timed.
///
/// `cat` prints three seconds of distinct 60-column lines, so every frame
/// of it is a full-screen repaint in two fragments: that is where the
/// differ, the fragmenter and the cipher work per byte. `yes` repeats
/// with a period of 40 lines, so successive frames of it look alike and
/// its diffs are tiny: it loads the parser and the scroll, and it is what
/// the Ctrl-C has to get through. `cat` comes first so that the traced
/// run's capture, which is bounded, holds some of each.
///
/// What a flood leaves on the screen depends on when the Ctrl-C reached
/// the server, so each session ends with `clear` and one last command,
/// and the oracle replays from the `clear` on: the final screen is then
/// a function of the typed keys alone.
pub fn run_flood_sim(world: SimWorld) -> (Outcome, Artifacts) {
    let SimWorld {
        mut fleet,
        size,
        seed,
        t0,
    } = world;
    let n = size.sessions;
    let end = t0 + size.horizon_ms;
    let mut rngs: Vec<Rng> = (0..n).map(|i| Rng::stream(seed, i as u64)).collect();
    let mut scripts: Vec<VecDeque<Step>> = (0..n).map(|_| VecDeque::new()).collect();
    let mut logs: Vec<KeyLog> = (0..n).map(|_| KeyLog::default()).collect();
    let mut epilogue_at: Vec<Option<usize>> = vec![None; n];
    let mut finished: Vec<Option<Millis>> = vec![None; n];
    // When the head step may run.
    let mut ready_at: Vec<Millis> = vec![t0; n];
    for i in 0..n {
        flood_cycle(&mut scripts[i], &mut rngs[i]);
    }
    let mut out = Outcome {
        sessions: n,
        ..Outcome::default()
    };

    let clock = Clock::start("");
    let mut targets = vec![0; n];
    while finished.iter().any(Option::is_none) {
        for i in 0..n {
            let now = fleet.now(i);
            targets[i] = match (finished[i], scripts[i].front()) {
                (Some(_), _) => now,
                (None, Some(Step::Key(_, gap))) => (ready_at[i] + gap).max(now + 1),
                (None, Some(Step::Sleep(ms))) => ready_at[i] + ms,
                // Waiting for an answer: look again soon.
                (None, _) => now + 10,
            };
        }
        fleet.pump(&targets);
        let _drive = trace::span(Stage::Drive);
        for i in 0..n {
            if finished[i].is_some() {
                continue;
            }
            absorb_frames(&mut fleet.clients[i], &fleet.servers[i], &mut logs[i]);
            let now = fleet.now(i);
            loop {
                match scripts[i].front() {
                    Some(Step::Key(bytes, gap)) if ready_at[i] + gap <= now => {
                        let timed = bytes == &[0x03];
                        let instant = fleet.clients[i].keystroke(now, bytes);
                        fleet.clients[i].render();
                        logs[i].typed(bytes, now as f64, instant, timed);
                    }
                    Some(Step::Sleep(ms)) if ready_at[i] + ms <= now => {}
                    Some(Step::Answered) if logs[i].pending.is_empty() => {}
                    Some(Step::CycleEnd) => {
                        if epilogue_at[i].is_some() {
                            finished[i] = Some(now);
                        } else if now >= end {
                            epilogue_at[i] = Some(logs[i].typed.len());
                            type_line(&mut scripts[i], &mut rngs[i], "clear");
                            type_line(&mut scripts[i], &mut rngs[i], &format!("echo done {i}"));
                            scripts[i].push_back(Step::CycleEnd);
                        } else {
                            flood_cycle(&mut scripts[i], &mut rngs[i]);
                        }
                    }
                    _ => break,
                }
                scripts[i].pop_front();
                ready_at[i] = now;
                if finished[i].is_some() {
                    break;
                }
            }
        }
    }
    clock.stop(&mut out);
    out.session_seconds = finished
        .iter()
        .map(|f| (f.expect("all finished") - t0) as f64 / 1e3)
        .sum();
    finish_sim(out, fleet, logs, &shell_app, &|i| {
        epilogue_at[i].expect("epilogue typed")
    })
}

/// `idle_fleet_sim`: thousands of sessions that only heartbeat, a few
/// spread through the fleet typing one key every odd virtual second
/// (open loop), the whole fleet leased to the two-shard worker runtime
/// every 100 virtual ms.
pub fn run_idle_fleet_sim(world: SimWorld) -> (Outcome, Artifacts) {
    let SimWorld {
        mut fleet,
        size,
        seed,
        t0,
    } = world;
    let n = size.sessions;
    let stride = n / size.active;
    let is_active = |i: usize| i.is_multiple_of(stride) && i / stride < size.active;
    let end = t0 + size.horizon_ms;
    let settle_end = end + 2_000;
    let mut typers: Vec<Option<ShellTyper>> = (0..n)
        .map(|i| is_active(i).then(|| ShellTyper::new(Rng::stream(seed, i as u64))))
        .collect();
    let mut logs: Vec<KeyLog> = (0..n).map(|_| KeyLog::default()).collect();
    let mut out = Outcome {
        sessions: n,
        ..Outcome::default()
    };

    let clock = Clock::start("");
    let mut now = t0;
    while now < settle_end {
        now += 100;
        fleet.pump(&vec![now; n]);
        let _drive = trace::span(Stage::Drive);
        let burst = now < end && now % 1_000 == 0 && (now / 1_000) % 2 == 1;
        for i in (0..n).step_by(stride).take(size.active) {
            absorb_frames(&mut fleet.clients[i], &fleet.servers[i], &mut logs[i]);
            if burst {
                let bytes = typers[i].as_mut().expect("active").next_key();
                let instant = fleet.clients[i].keystroke(now, &bytes);
                logs[i].typed(&bytes, now as f64, instant, true);
            }
        }
    }
    clock.stop(&mut out);
    out.session_seconds = n as f64 * (settle_end - t0) as f64 / 1e3;
    finish_sim(out, fleet, logs, &shell_app, &|_| 0)
}

// ---------------------------------------------------------------------
// typing_udp
// ---------------------------------------------------------------------

/// The UDP world ready to run: sockets bound, prompts on every client.
pub struct UdpWorld {
    server: UdpServerSide,
    clients: UdpClientSide,
    size: Size,
    seed: u64,
}

/// Name of the load-generating thread, whose CPU time is not the
/// server's.
const GENERATOR: &str = "generator";

/// Runs the client side on its own thread while this thread serves,
/// until the client side's closure returns.
fn serve_while<T: Send>(
    server: &mut UdpServerSide,
    clients: UdpClientSide,
    generator: impl FnOnce(UdpClientSide) -> T + Send,
) -> T {
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let flag = Arc::clone(&stop);
        let gen = std::thread::Builder::new()
            .name(GENERATOR.into())
            .spawn_scoped(scope, move || {
                let out = generator(clients);
                flag.store(true, Ordering::SeqCst);
                out
            })
            .expect("spawn generator");
        while !stop.load(Ordering::SeqCst) {
            server.pump(20);
        }
        trace::flush_thread();
        gen.join().expect("generator thread")
    })
}

pub fn setup_udp(size: Size, seed: u64) -> UdpWorld {
    let mut server = UdpServerSide::new(size.sessions, seed, shell_app).expect("server socket");
    let clients = UdpClientSide::new(size.sessions, seed, server.addr, Predict::Adaptive)
        .expect("client sockets");
    let warm_up = |mut clients: UdpClientSide| {
        let started = Instant::now();
        loop {
            clients.pump(5);
            let ready = clients
                .clients
                .iter()
                .all(|c| !c.inner.server_frame().row_text(0).is_empty());
            if ready {
                break;
            }
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "prompts never arrived"
            );
        }
        for c in &mut clients.clients {
            c.frames.clear();
        }
        clients
    };
    let clients = serve_while(&mut server, clients, warm_up);
    UdpWorld {
        server,
        clients,
        size,
        seed,
    }
}

/// What the generator thread hands back.
struct Generated {
    clients: UdpClientSide,
    logs: Vec<KeyLog>,
    late_ms: Vec<f64>,
    cpu_ns: u64,
    wall_s: f64,
    /// The generator's start on the trace clock.
    start_ns: u64,
}

/// `typing_udp`: real sockets on 127.0.0.1 (loopback, not a real link).
/// One generator thread types for every client on a wall-clock schedule
/// (open loop, 5 keys a second each); the server is a one-shard hub
/// behind a distributor.
pub fn run_typing_udp(world: UdpWorld) -> (Outcome, Artifacts) {
    let UdpWorld {
        mut server,
        clients,
        size,
        seed,
    } = world;
    let n = size.sessions;
    let logs_for_gen: Vec<adapter::Log> =
        server.servers.iter().map(|s| Arc::clone(&s.log)).collect();
    let mut out = Outcome {
        sessions: n,
        ..Outcome::default()
    };

    let clock = Clock::start(GENERATOR);
    let generate = move |mut clients: UdpClientSide| {
        let cpu0 = host::thread_cpu_ns();
        let start_ns = trace::now_ns();
        let start = Instant::now();
        let horizon = Duration::from_millis(size.horizon_ms);
        let mut typers: Vec<(Rng, ShellTyper)> = (0..n)
            .map(|i| {
                (
                    Rng::stream(seed, 2 * i as u64 + 1),
                    ShellTyper::new(Rng::stream(seed, 2 * i as u64)),
                )
            })
            .collect();
        let mut next_due: Vec<Option<Duration>> = typers
            .iter_mut()
            .map(|(rng, _)| Some(Duration::from_micros(rng.range(0, 200_000))))
            .collect();
        let mut logs: Vec<KeyLog> = (0..n).map(|_| KeyLog::default()).collect();
        let mut late_ms = Vec::new();
        let ms_since = |t: Instant| t.duration_since(start).as_secs_f64() * 1e3;
        let mut typed_out_at = None;
        loop {
            // Whole milliseconds through the hub, the rest asleep, so a
            // key is typed when it falls due and not a clock tick later.
            let elapsed = start.elapsed();
            let first = next_due.iter().flatten().min().copied();
            match first {
                Some(due) if due > elapsed => {
                    let wait = due - elapsed;
                    if wait >= Duration::from_millis(2) {
                        clients.pump((wait.as_millis() as u64 - 1).min(5));
                    } else {
                        std::thread::sleep(wait);
                    }
                }
                Some(_) => {}
                None => {
                    // The schedule is typed out: go on until every key is
                    // answered, for 300 ms at least (the last acks) and
                    // for as long as a key may take at most.
                    let typed_out = *typed_out_at.get_or_insert(elapsed);
                    let answered = logs.iter().all(|l| l.pending.is_empty());
                    let settling = elapsed - typed_out;
                    if settling >= Duration::from_millis(UNANSWERED_MS as u64)
                        || (answered && settling >= Duration::from_millis(300))
                    {
                        break;
                    }
                    clients.pump(5);
                }
            }
            let _drive = trace::span(Stage::Drive);
            for i in 0..n {
                if !clients.clients[i].frames.is_empty() {
                    let log = lock(&logs_for_gen[i]);
                    for f in clients.clients[i].frames.drain(..) {
                        let at = ms_since(f.wall.expect("UDP frames carry wall stamps"));
                        logs[i].frame(log.reflected_by(f.num), at);
                    }
                    drop(log);
                    clients.clients[i].render();
                }
                let elapsed = start.elapsed();
                if let Some(due) = next_due[i].filter(|d| *d <= elapsed) {
                    let (rng, typer) = &mut typers[i];
                    let bytes = typer.next_key();
                    let now = clients.now(i);
                    let instant = clients.clients[i].keystroke(now, &bytes);
                    clients.clients[i].render();
                    late_ms.push((elapsed - due).as_secs_f64() * 1e3);
                    logs[i].typed(&bytes, due.as_secs_f64() * 1e3, instant, true);
                    let next = due + Duration::from_millis(rng.range(150, 250));
                    next_due[i] = (next < horizon).then_some(next);
                }
            }
        }
        trace::flush_thread();
        Generated {
            clients,
            logs,
            late_ms,
            cpu_ns: host::thread_cpu_ns() - cpu0,
            wall_s: start.elapsed().as_secs_f64(),
            start_ns,
        }
    };
    let mut generated = serve_while(&mut server, clients, generate);
    clock.stop(&mut out);
    out.session_seconds = n as f64 * out.wall_s;
    out.gen_busy = generated.cpu_ns as f64 / 1e9 / generated.wall_s;
    out.gen_late_ms = std::mem::take(&mut generated.late_ms);
    out.rss_kb = host::rss_kb();
    out.net = server.net();
    out.gen_net = generated.clients.net();
    out.hub = server.hub_stats();
    out.shed = out.hub.dropped + out.hub.feed_overflow + out.hub.feed_dropped;
    out.settle(
        &generated.logs,
        &generated.clients.clients,
        &server.servers,
        &shell_app,
        &|_| 0,
    );
    let artifacts = if trace::on() {
        let mut all = out.net.clone();
        all.sizes.extend_from_slice(&out.gen_net.sizes);
        let mut a = collect_artifacts(
            &generated.clients.clients,
            &server.servers,
            &generated.logs,
            &all,
        );
        a.budget = crate::budget::key_paths(
            &generated.clients,
            &server.servers,
            &generated.answered_keys(),
            &out.gen_net,
            &out.net,
        );
        a
    } else {
        Artifacts::default()
    };
    (out, artifacts)
}

impl Generated {
    /// Per session: `(key index, due time on the trace clock)` of every
    /// answered key.
    fn answered_keys(&self) -> Vec<Vec<(u64, u64)>> {
        self.logs
            .iter()
            .map(|l| {
                l.done
                    .iter()
                    .map(|k| (k.idx, self.start_ns + (k.due * 1e6) as u64))
                    .collect()
            })
            .collect()
    }
}
