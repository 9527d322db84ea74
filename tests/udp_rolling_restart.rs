//! Rolling restart over real loopback UDP: the CI smoke for the
//! cross-process handoff path.
//!
//! Two live Mosh sessions run behind ONE server socket. Mid-session, the
//! "old process" hub serializes every session into a handoff container
//! (through an actual file), releases the UDP socket, and dies; a fresh
//! hub adopts the socket and restores the sessions from the container.
//! The clients — real sockets on their own threads, never told about any
//! of this — keep typing straight through the restart and see nothing
//! but their own echoes. At worst the protocol cost is a Mosh-style
//! retarget: the restored server re-learns each client's address from
//! the source of its next authentic datagram (§2.2), exactly as if the
//! client had roamed.

use mosh::core::hub::snapshot;
use mosh::core::{
    HubSession, LineShell, MoshClient, MoshServer, Party, ServerHub, SessionId, SessionLoop,
};
use mosh::crypto::Base64Key;
use mosh::net::{Addr, Poller, UdpChannel, UdpPoller};
use mosh::prediction::DisplayPreference;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn key(i: usize) -> Base64Key {
    let mut bytes = [0u8; 16];
    bytes[0] = 0x40 + i as u8;
    bytes[1] = 0xc3;
    Base64Key::from_bytes(bytes)
}

/// Serves every session behind the shared socket for 10 ms.
fn pump_round(
    hub: &mut ServerHub<UdpPoller>,
    sids: &[SessionId],
    servers: &mut [MoshServer],
    server_addr: Addr,
) {
    let target = hub.now(sids[0]) + 10;
    let mut leases: Vec<[Party<'_>; 1]> = servers
        .iter_mut()
        .map(|s| [Party::new(server_addr, s)])
        .collect();
    let mut sessions: Vec<HubSession<'_, '_>> = leases
        .iter_mut()
        .zip(sids.iter())
        .map(|(parties, sid)| HubSession::new(*sid, parties, target))
        .collect();
    hub.pump(&mut sessions);
}

#[test]
fn rolling_restart_is_invisible_over_loopback() {
    const N: usize = 2;
    let server_channel = UdpChannel::bind("127.0.0.1:0").expect("server socket");
    let server_addr = server_channel.local_addr();

    let mut hub = ServerHub::new(UdpPoller::new());
    let mut tok = hub.poller_mut().add(server_channel);
    let mut sids = Vec::new();
    let mut servers: Vec<MoshServer> = Vec::new();
    for i in 0..N {
        sids.push(hub.add_session(tok));
        servers.push(MoshServer::new(key(i), Box::new(LineShell::new())));
    }

    // Client i types its first letter, reports the echo, then waits for
    // the restart before typing its second letter.
    let first_echoed = Arc::new(AtomicUsize::new(0));
    let restarted = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicUsize::new(0));
    let mut clients = Vec::new();
    for i in 0..N {
        let first_echoed = first_echoed.clone();
        let restarted = restarted.clone();
        let done = done.clone();
        let key = key(i);
        clients.push(std::thread::spawn(move || {
            let channel = UdpChannel::bind("127.0.0.1:0").expect("client socket");
            let addr = channel.local_addr();
            let mut client = MoshClient::new(key, server_addr, 80, 24, DisplayPreference::Never);
            let mut sl = SessionLoop::new(channel);
            let start = std::time::Instant::now();
            let a = (b'a' + i as u8) as char;
            let b = (b'x' + i as u8) as char;
            let after_first = format!("$ {a}");
            let after_second = format!("$ {a}{b}");
            // 0 = waiting for the prompt, 1 = typed the first letter,
            // 2 = saw its echo, 3 = typed the second letter.
            let mut stage = 0;
            loop {
                assert!(
                    start.elapsed().as_secs() < 60,
                    "client {i} stalled at stage {stage} (screen: {:?})",
                    client.server_frame().row_text(0)
                );
                let t = sl.now() + 5;
                sl.pump_until(&mut [Party::new(addr, &mut client)], t);
                let row = client.server_frame().row_text(0);
                match stage {
                    0 if row == "$" => {
                        client.keystroke(sl.now(), &[a as u8]);
                        stage = 1;
                    }
                    1 if row == after_first => {
                        first_echoed.fetch_add(1, Ordering::SeqCst);
                        stage = 2;
                    }
                    2 if restarted.load(Ordering::SeqCst) == 1 => {
                        client.keystroke(sl.now(), &[b as u8]);
                        stage = 3;
                    }
                    3 if row == after_second => break,
                    _ => {}
                }
            }
            done.fetch_add(1, Ordering::SeqCst);
            (i, client.server_frame().row_text(0))
        }));
    }

    // Old process: serve until every client has its first echo.
    let start = std::time::Instant::now();
    while first_echoed.load(Ordering::SeqCst) < N {
        assert!(
            start.elapsed().as_secs() < 90,
            "pre-restart phase timed out"
        );
        pump_round(&mut hub, &sids, &mut servers, server_addr);
    }

    // The rolling restart: sessions to a file, socket out of the old
    // poller, old hub dropped; a brand-new hub adopts both.
    let entries: Vec<(usize, Vec<u8>)> = sids
        .iter()
        .zip(servers.iter())
        .map(|(sid, s)| (sid.0, snapshot::snapshot_server(s)))
        .collect();
    let path = std::env::temp_dir().join(format!("mosh-restart-{}.bin", std::process::id()));
    std::fs::write(&path, snapshot::encode_handoff(&entries)).expect("handoff written");
    let restored = snapshot::decode_handoff(&std::fs::read(&path).expect("handoff read"))
        .expect("handoff decodes");
    let _ = std::fs::remove_file(&path);

    let socket = hub
        .poller_mut()
        .extract(tok)
        .expect("socket leaves the old process");
    drop(hub);
    drop(servers);

    let mut hub = ServerHub::new(UdpPoller::new());
    tok = hub.poller_mut().add(socket);
    sids = (0..N).map(|_| hub.add_session(tok)).collect();
    let mut servers: Vec<MoshServer> = restored
        .into_iter()
        .map(|(_, framed)| {
            snapshot::restore_server(&framed, Box::new(LineShell::new()))
                .expect("handoff snapshot decodes")
        })
        .collect();
    restarted.store(1, Ordering::SeqCst);

    // New process: serve the restored sessions to completion.
    let start = std::time::Instant::now();
    while done.load(Ordering::SeqCst) < N {
        assert!(
            start.elapsed().as_secs() < 90,
            "post-restart phase timed out"
        );
        pump_round(&mut hub, &sids, &mut servers, server_addr);
    }

    for c in clients {
        let (i, row) = c.join().expect("client thread");
        let expected = format!("$ {}{}", (b'a' + i as u8) as char, (b'x' + i as u8) as char);
        assert_eq!(row, expected, "client {i} rode through the restart");
    }
    for (i, server) in servers.iter().enumerate() {
        let expected = format!("$ {}{}", (b'a' + i as u8) as char, (b'x' + i as u8) as char);
        assert_eq!(server.frame().row_text(0), expected, "server {i} screen");
        assert!(
            server.target().is_some(),
            "restored server {i} re-learned its client from authentic traffic"
        );
        assert_eq!(
            server.transport_stats().datagrams_rejected,
            0,
            "session {i} was never fed a foreign datagram"
        );
    }
}

/// The restart that is also an upgrade: the old process was a build that
/// wrote version-2 snapshots (the stored fixture, a shell mid-`yes`), and
/// its handoff container carries that version too. The new hub reads
/// both, serves the session on a real socket, and hands it on as
/// version 3.
#[test]
fn a_v2_handoff_container_is_adopted_by_the_new_hub() {
    let v2_session = include_bytes!("../crates/core/tests/fixtures/server_v2.snap");
    let mut container = snapshot::encode_handoff(&[(7, v2_session.to_vec())]);
    container[4..6].copy_from_slice(&2u16.to_be_bytes()); // the checksum covers the body only
    let path = std::env::temp_dir().join(format!("mosh-restart-v2-{}.bin", std::process::id()));
    std::fs::write(&path, &container).expect("handoff written");
    let restored = snapshot::decode_handoff(&std::fs::read(&path).expect("handoff read"))
        .expect("a version-2 container decodes");
    let _ = std::fs::remove_file(&path);
    assert_eq!(restored.len(), 1);
    let (gid, framed) = &restored[0];
    assert_eq!(*gid, 7);

    let mut servers = [snapshot::restore_server(framed, Box::new(LineShell::new()))
        .expect("a version-2 session snapshot decodes")];
    let before = servers[0].activity_marker();
    let channel = UdpChannel::bind("127.0.0.1:0").expect("server socket");
    let server_addr = channel.local_addr();
    let mut hub = ServerHub::new(UdpPoller::new());
    let tok = hub.poller_mut().add(channel);
    let sids = [hub.add_session(tok)];
    while hub.now(sids[0]) < 50 {
        pump_round(&mut hub, &sids, &mut servers, server_addr);
    }
    let [server] = servers;

    // The flood it was restored into is still running, toward the
    // client address it was restored with.
    assert!(server.frame().row_text(0).starts_with('y'));
    assert!(server.target().is_some());
    assert!(server.activity_marker() >= before);
    assert_eq!(server.transport_stats().datagrams_rejected, 0);
    let handed_on = snapshot::snapshot_server(&server);
    assert_eq!(handed_on[4..6], 3u16.to_be_bytes());
    snapshot::restore_server(&handed_on, Box::new(LineShell::new())).expect("and reads back");
}
