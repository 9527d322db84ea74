//! The per-key budget of the traced `typing_udp` run: each answered
//! key's path from due time to screen, cut at every wrapper it crossed.
//!
//! The cuts are timestamps, so a key's rows telescope to its echo time
//! exactly; the table prints each row's median over keys.

use crate::adapter::{lock, NetCounters, TapServer, UdpClientSide, WireMark};
use std::collections::HashMap;

/// Row names, in path order, and whether the row is busy time or a wait.
pub const ROWS: [(&str, &str); 12] = [
    ("core.client_hold", "wait"),
    ("core.client_tick", "busy"),
    ("net.send (client)", "busy"),
    ("net.ingress", "wait"),
    ("core.open", "busy"),
    ("hub.route", "busy"),
    ("core.server_receive + app.input", "busy"),
    ("core.server_hold", "wait"),
    ("core.server_tick", "busy"),
    ("net.send (server)", "busy"),
    ("net.egress", "wait"),
    ("core.client_receive", "busy"),
];

/// One key's rows in milliseconds.
pub struct KeyPath {
    pub rows: [f64; ROWS.len()],
}

impl KeyPath {
    pub fn total_ms(&self) -> f64 {
        self.rows.iter().sum()
    }
}

fn by_seq(marks: &[WireMark]) -> HashMap<u64, WireMark> {
    marks.iter().map(|m| (m.seq, *m)).collect()
}

fn sends_of(net: &NetCounters, port: u16) -> HashMap<u64, u64> {
    net.send_marks
        .iter()
        .filter(|(p, ..)| *p == port)
        .map(|(_, seq, end)| (*seq, *end))
        .collect()
}

/// Rebuilds the path of every answered key whose every cut was seen.
/// `answered[i]` lists session `i`'s `(key index, due ns)`.
pub fn key_paths(
    clients: &UdpClientSide,
    servers: &[TapServer],
    answered: &[Vec<(u64, u64)>],
    client_net: &NetCounters,
    server_net: &NetCounters,
) -> Vec<KeyPath> {
    let mut paths = Vec::new();
    for (i, keys) in answered.iter().enumerate() {
        let (client, server) = (&clients.clients[i], &servers[i]);
        let port = clients.port(i);
        let client_ticks = by_seq(&client.marks.tick_out);
        let client_sends = sends_of(client_net, port);
        let opens = by_seq(&server.marks.opened);
        let server_sends = sends_of(server_net, port);
        let client_receives = by_seq(&client.marks.received);
        let log = lock(&server.log);
        for &(idx, due_ns) in keys {
            let path = (|| {
                let count = idx + 1;
                // Up: the receive that fed the key to the application.
                let fed = server.marks.fed.partition_point(|(n, _)| *n < count);
                let receive = server.marks.received[server.marks.fed.get(fed)?.1];
                let open = opens.get(&receive.seq)?;
                let tick = client_ticks.get(&receive.seq)?;
                let sent = *client_sends.get(&receive.seq)?;
                // Down: the tick that first shipped a state showing it,
                // and the last wire of that tick.
                let state = log.first_state_reflecting(count)?;
                let at = server.marks.shipped_at.partition_point(|(n, _)| *n < state);
                let first = server.marks.shipped_at.get(at)?.1;
                let ship = server.marks.tick_out[first..]
                    .iter()
                    .take_while(|m| m.start_ns == server.marks.tick_out[first].start_ns)
                    .last()?;
                let shipped = *server_sends.get(&ship.seq)?;
                let seen = client_receives.get(&ship.seq)?;
                let cuts = [
                    due_ns,
                    tick.start_ns,
                    tick.end_ns,
                    sent,
                    open.start_ns,
                    open.end_ns,
                    receive.start_ns,
                    receive.end_ns,
                    ship.start_ns,
                    ship.end_ns,
                    shipped,
                    seen.start_ns,
                    seen.end_ns,
                ];
                let mut rows = [0.0; ROWS.len()];
                for (row, pair) in rows.iter_mut().zip(cuts.windows(2)) {
                    *row = (pair[1] as f64 - pair[0] as f64) / 1e6;
                }
                Some(KeyPath { rows })
            })();
            paths.extend(path);
        }
    }
    paths
}
