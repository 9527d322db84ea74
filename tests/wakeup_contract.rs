//! The `Endpoint::next_wakeup` contract, held against every endpoint in
//! the tree.
//!
//! Event-driven stepping is exact only if the time an endpoint *reports*
//! and the time it *acts on* agree, in both directions:
//!
//! * **no early fire** — between a `tick` and the wakeup reported after
//!   it, `tick` emits nothing (absent a receive or a caller injection,
//!   which re-arm the schedule): the ticks an event-driven driver skips
//!   were no-ops;
//! * **no spin** — a `tick(t)` that emitted nothing is followed by
//!   `next_wakeup(t) > t`: an endpoint never reports a deadline its own
//!   `tick` declines to act on. A violation costs no correctness (the
//!   driver clamps to `t + 1`) — it costs a wakeup every millisecond
//!   until the real deadline, which is how 85 % of the hub's wakeups on
//!   a typing fleet once found nothing to do.
//!
//! [`Probe`] wraps any endpoint and checks both halves while the session
//! is driven at the 1 ms reference cadence (every millisecond is ticked,
//! so every skipped-tick claim is put to the test).

use mosh::core::{Endpoint, LineShell, MoshClient, MoshServer, Party, SessionEvent};
use mosh::crypto::Base64Key;
use mosh::net::{Addr, LinkConfig, Network, Side};
use mosh::prediction::DisplayPreference;
use mosh::ssh::{SshClient, SshServer};
use mosh::ssp::datagram::Opened;
use mosh::tcp::TcpEndpoint;
use mosh::trace::replay::{BulkFlow, BULK_CLIENT, BULK_SERVER};

/// Checks one endpoint against the contract as it is driven.
struct Probe<E> {
    inner: E,
    name: &'static str,
    /// The wakeup reported after the last tick an event-driven driver
    /// would have run; `None` once a receive or injection re-armed the
    /// schedule (the next tick is then due by definition).
    promised: Option<u64>,
    violations: Vec<String>,
    ticks: u64,
    sends: u64,
}

impl<E: Endpoint> Probe<E> {
    fn new(name: &'static str, inner: E) -> Self {
        Probe {
            inner,
            name,
            promised: None,
            violations: Vec::new(),
            ticks: 0,
            sends: 0,
        }
    }

    /// A caller injection (keystroke, write): re-arms the schedule.
    fn inject<R>(&mut self, f: impl FnOnce(&mut E) -> R) -> R {
        self.promised = None;
        f(&mut self.inner)
    }

    fn assert_clean(&self) {
        assert!(self.ticks > 0, "{}: never driven", self.name);
        assert!(
            self.violations.is_empty(),
            "{}: {} contract violations in {} ticks, first: {:#?}",
            self.name,
            self.violations.len(),
            self.ticks,
            &self.violations[..self.violations.len().min(5)]
        );
    }
}

impl<E: Endpoint> Endpoint for Probe<E> {
    fn receive(&mut self, now: u64, from: Addr, wire: &[u8], events: &mut Vec<SessionEvent>) {
        self.promised = None;
        self.inner.receive(now, from, wire, events);
    }

    fn tick(&mut self, now: u64, out: &mut Vec<(Addr, Vec<u8>)>, events: &mut Vec<SessionEvent>) {
        let start = out.len();
        self.inner.tick(now, out, events);
        let emitted = out.len() - start;
        self.ticks += 1;
        self.sends += emitted as u64;

        // Would an event-driven driver have run this tick at all?
        let due = self.promised.is_none_or(|p| now >= p);
        if emitted > 0 && !due {
            self.violations.push(format!(
                "early fire: tick({now}) emitted {emitted} datagram(s) before the reported wakeup {}",
                self.promised.expect("not due implies a promise")
            ));
        }
        let next = self.inner.next_wakeup(now);
        if emitted == 0 && next <= now {
            self.violations.push(format!(
                "spin: tick({now}) emitted nothing, yet next_wakeup({now}) = {next}"
            ));
        }
        if due {
            self.promised = Some(next);
        }
    }

    fn next_wakeup(&self, now: u64) -> u64 {
        self.inner.next_wakeup(now)
    }

    fn last_heard(&self) -> Option<u64> {
        self.inner.last_heard()
    }

    fn try_open(&mut self, wire: &[u8]) -> Option<Opened> {
        self.inner.try_open(wire)
    }

    fn receive_opened(
        &mut self,
        now: u64,
        from: Addr,
        opened: Opened,
        events: &mut Vec<SessionEvent>,
    ) {
        self.promised = None;
        self.inner.receive_opened(now, from, opened, events);
    }
}

/// One millisecond of the reference loop: tick every party at the
/// network's now, advance the emulator by one, drain the mailboxes.
fn step_1ms(net: &mut Network, parties: &mut [Party<'_>]) {
    let now = net.now();
    let mut out = Vec::new();
    let mut events = Vec::new();
    for p in parties.iter_mut() {
        p.endpoint.tick(now, &mut out, &mut events);
        for (to, wire) in out.drain(..) {
            net.send(p.addr, to, wire);
        }
    }
    net.advance_to(now + 1);
    for p in parties.iter_mut() {
        while let Some(dg) = net.recv(p.addr) {
            p.endpoint
                .receive(now + 1, dg.from, &dg.payload, &mut events);
        }
    }
}

const C: Addr = Addr::new(1, 1000);
const S: Addr = Addr::new(2, 60001);

fn net(up: LinkConfig, down: LinkConfig, seed: u64) -> Network {
    let mut net = Network::new(up, down, seed);
    net.register(C, Side::Client);
    net.register(S, Side::Server);
    net
}

/// `(name, uplink, downlink)`: a clean LAN, the paper's EV-DO path, and
/// its 29 %-per-direction loss testbed.
fn links() -> Vec<(&'static str, LinkConfig, LinkConfig)> {
    vec![
        ("lan", LinkConfig::lan(), LinkConfig::lan()),
        (
            "evdo",
            LinkConfig::evdo_uplink(),
            LinkConfig::evdo_downlink(),
        ),
        (
            "lossy",
            LinkConfig::netem_lossy(),
            LinkConfig::netem_lossy(),
        ),
    ]
}

type Script = Vec<(u64, Vec<u8>)>;

/// `(name, keys, horizon)`: steady typing (keys arriving while acks are
/// pending behind the frame gate), a `yes` flood with its interrupt
/// (the application-poll wakeup path), and silence (heartbeats only).
fn scripts() -> Vec<(&'static str, Script, u64)> {
    let mut typing: Script = Vec::new();
    let mut t = 700;
    for &b in b"echo the quick brown fox\rls -l\rpwd\r" {
        typing.push((t, vec![b]));
        t += 40 + u64::from(b) * 7 % 260;
    }
    let mut flood: Script = Vec::new();
    let mut t = 900;
    for &b in b"yes\r" {
        flood.push((t, vec![b]));
        t += 150;
    }
    flood.push((t + 2500, vec![0x03]));
    flood.push((t + 3300, b"ls\r".to_vec()));
    vec![
        ("typing", typing, 14_000),
        ("flood", flood, 9_000),
        ("idle", Vec::new(), 10_000),
    ]
}

/// Drives a client/server pair at 1 ms until `end`, typing `keys` into
/// the client as they fall due (receive → inject → tick at each instant,
/// the reference loop's order).
fn run_script<Cl: Endpoint, Sv: Endpoint>(
    net: &mut Network,
    client: &mut Probe<Cl>,
    server: &mut Probe<Sv>,
    keys: &Script,
    end: u64,
    type_key: impl Fn(&mut Cl, u64, &[u8]),
) {
    let mut due = keys.iter().peekable();
    while net.now() < end {
        let now = net.now();
        while let Some((_, bytes)) = due.next_if(|(at, _)| *at <= now) {
            client.inject(|c| type_key(c, now, bytes));
        }
        step_1ms(
            net,
            &mut [Party::new(C, &mut *client), Party::new(S, &mut *server)],
        );
    }
}

fn mosh_pair(seed: u8) -> (MoshClient, MoshServer) {
    let key = Base64Key::from_bytes([seed; 16]);
    (
        MoshClient::new(key.clone(), S, 80, 24, DisplayPreference::Adaptive),
        MoshServer::new(key, Box::new(LineShell::new())),
    )
}

#[test]
fn mosh_endpoints_keep_the_contract_on_every_link_and_script() {
    for (li, (link, up, down)) in links().into_iter().enumerate() {
        for (si, (script, keys, end)) in scripts().into_iter().enumerate() {
            let seed = (li * 3 + si) as u8 + 1;
            let mut net = net(up.clone(), down.clone(), u64::from(seed));
            let (client, server) = mosh_pair(seed);
            let mut client = Probe::new("MoshClient", client);
            let mut server = Probe::new("MoshServer", server);
            run_script(
                &mut net,
                &mut client,
                &mut server,
                &keys,
                end,
                |c, now, k| {
                    c.keystroke(now, k);
                },
            );
            assert!(
                client.sends > 0 && server.sends > 0,
                "{link}/{script}: the session never spoke"
            );
            client.assert_clean();
            server.assert_clean();
        }
    }
}

/// A server whose client never shows up has nowhere to send: it must
/// sleep on its application alone, not on transport timers `tick` will
/// not run.
#[test]
fn a_server_nobody_calls_keeps_the_contract() {
    let mut net = net(LinkConfig::lan(), LinkConfig::lan(), 5);
    let (_, server) = mosh_pair(5);
    let mut server = Probe::new("MoshServer (no client)", server);
    while net.now() < 8_000 {
        step_1ms(&mut net, &mut [Party::new(S, &mut server)]);
    }
    assert_eq!(server.sends, 0);
    server.assert_clean();
}

#[test]
fn ssh_endpoints_keep_the_contract() {
    for (li, (_, up, down)) in links().into_iter().enumerate() {
        for (si, (_, keys, end)) in scripts().into_iter().enumerate() {
            let mut net = net(up.clone(), down.clone(), (li * 3 + si) as u64 + 40);
            let mut client = Probe::new("SshClient", SshClient::new(C, S, 80, 24));
            let mut server = Probe::new(
                "SshServer",
                SshServer::new(S, C, Box::new(LineShell::new())),
            );
            run_script(
                &mut net,
                &mut client,
                &mut server,
                &keys,
                end,
                |c, now, k| {
                    c.keystroke(now, k);
                },
            );
            assert!(server.sends > 0, "the prompt was streamed");
            client.assert_clean();
            server.assert_clean();
        }
    }
}

/// The bare TCP substrate as an endpoint (what `SshClient`/`SshServer`
/// and the bulk instruments wrap).
struct TcpParty(TcpEndpoint);

impl Endpoint for TcpParty {
    fn receive(&mut self, now: u64, _from: Addr, wire: &[u8], _events: &mut Vec<SessionEvent>) {
        self.0.receive(now, wire);
        let _ = self.0.read();
    }

    fn tick(&mut self, now: u64, out: &mut Vec<(Addr, Vec<u8>)>, _events: &mut Vec<SessionEvent>) {
        out.extend(self.0.tick(now));
    }

    fn next_wakeup(&self, now: u64) -> u64 {
        self.0.next_wakeup(now)
    }
}

#[test]
fn tcp_endpoints_keep_the_contract_through_a_window_limited_transfer() {
    for (li, (link, up, down)) in links().into_iter().enumerate() {
        let mut net = net(up, down, li as u64 + 80);
        let mut sender = Probe::new("TcpEndpoint (sender)", TcpParty(TcpEndpoint::new(S, C)));
        let mut receiver = Probe::new("TcpEndpoint (receiver)", TcpParty(TcpEndpoint::new(C, S)));
        // Far more than one congestion window: the sender spends most of
        // the run window-limited, waiting on acks (or, on the lossy
        // link, on its retransmission timer).
        sender.inject(|s| s.0.write(&vec![7u8; 400_000]));
        while net.now() < 12_000 {
            let now = net.now();
            if now == 6_000 {
                sender.inject(|s| s.0.write(b"a late trickle"));
            }
            step_1ms(
                &mut net,
                &mut [Party::new(S, &mut sender), Party::new(C, &mut receiver)],
            );
        }
        assert!(
            receiver.inner.0.bytes_received() > 10_000,
            "{link}: the transfer made progress"
        );
        sender.assert_clean();
        receiver.assert_clean();
    }
}

#[test]
fn replay_bulk_instruments_keep_the_contract() {
    let mut net = net(LinkConfig::lte_uplink(), LinkConfig::lte_downlink(), 9);
    let flow = BulkFlow::new(&mut net);
    let mut sender = Probe::new("BulkSender", flow.sender);
    let mut receiver = Probe::new("BulkReceiver", flow.receiver);
    while net.now() < 4_000 {
        step_1ms(
            &mut net,
            &mut [
                Party::new(BULK_SERVER, &mut sender),
                Party::new(BULK_CLIENT, &mut receiver),
            ],
        );
    }
    assert!(sender.sends > 0 && receiver.sends > 0);
    sender.assert_clean();
    receiver.assert_clean();
}
