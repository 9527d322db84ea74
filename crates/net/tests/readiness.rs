//! The distributor hands each datagram over when it arrives.
//!
//! `UdpDistributor::pump` waits on readiness — its socket, and the wake
//! descriptor every `FeedBouncer` signals — instead of letting a socket
//! read time out, so neither a datagram nor a bounce waits for the next
//! scheduler tick. These tests time that handoff on loopback, and check
//! what the nonblocking shared socket does with a reply it cannot send.
//!
//! The timed tests hold a lock so they never share the machine with each
//! other, and judge medians, so one late scheduling does not decide them.

use mosh_net::channel::{addr_from_socket, socket_from_addr};
use mosh_net::{Addr, Channel, Datagram, FeedChannel, UdpDistributor};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

static TIMED: Mutex<()> = Mutex::new(());

fn median(mut v: Vec<Duration>) -> Duration {
    v.sort();
    v[v.len() / 2]
}

/// Runs `body` while another thread pumps `dist` in `slice_ms` slices.
fn while_pumping<T>(dist: &mut UdpDistributor, slice_ms: u64, body: impl FnOnce() -> T) -> T {
    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                dist.pump(slice_ms);
            }
        });
        let out = body();
        stop.store(true, Ordering::SeqCst);
        out
    })
}

/// Waits on `feed` until a datagram is there (or 5 s pass), returning it
/// with the instant it was taken.
fn next_on(feed: &mut FeedChannel) -> (Datagram, Instant) {
    let give_up = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(dg) = feed.poll_any() {
            return (dg, Instant::now());
        }
        assert!(Instant::now() < give_up, "no datagram reached the feed");
        let deadline = feed.now() + 50;
        feed.wait_until(deadline);
    }
}

#[test]
fn datagrams_reach_the_feed_within_a_millisecond() {
    let _timed = TIMED.lock().unwrap_or_else(|e| e.into_inner());
    let (mut dist, mut feeds) =
        UdpDistributor::new(UdpSocket::bind("127.0.0.1:0").unwrap(), 1).unwrap();
    let server = socket_from_addr(dist.local_addr());
    let mut feed = feeds.pop().unwrap();
    let latencies = while_pumping(&mut dist, 20, || {
        thread::scope(|s| {
            let receiver = s.spawn(|| {
                (0..40)
                    .map(|_| {
                        let (dg, at) = next_on(&mut feed);
                        (dg.payload[0], at)
                    })
                    .collect::<Vec<_>>()
            });
            let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
            let mut sent = Vec::new();
            for i in 0..40u8 {
                thread::sleep(Duration::from_millis(5));
                sent.push(Instant::now());
                peer.send_to(&[i], server).unwrap();
            }
            let got = receiver.join().unwrap();
            got.into_iter()
                .map(|(i, at)| at.saturating_duration_since(sent[usize::from(i)]))
                .collect::<Vec<_>>()
        })
    });
    let p50 = median(latencies.clone());
    assert!(
        p50 < Duration::from_millis(1),
        "median socket → feed {p50:?}; all: {latencies:?}"
    );
}

#[test]
fn a_bounce_moves_on_while_the_socket_is_idle() {
    let _timed = TIMED.lock().unwrap_or_else(|e| e.into_inner());
    let (mut dist, mut feeds) =
        UdpDistributor::new(UdpSocket::bind("127.0.0.1:0").unwrap(), 2).unwrap();
    let server = socket_from_addr(dist.local_addr());
    let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
    // With no hint, a source's datagrams start at shard `port % 2`.
    let base = usize::from(addr_from_socket(peer.local_addr().unwrap()).port) % 2;
    let (first, second) = feeds.split_at_mut(1);
    let (home, next) = if base == 0 {
        (&mut first[0], &mut second[0])
    } else {
        (&mut second[0], &mut first[0])
    };
    // Long pump slices: a bounce that waited for the slice to end would
    // take up to 200 ms.
    let hops = while_pumping(&mut dist, 200, || {
        (0..5u8)
            .map(|i| {
                peer.send_to(&[i], server).unwrap();
                let (dg, _) = next_on(home);
                thread::sleep(Duration::from_millis(5)); // let the distributor idle
                let bounced = Instant::now();
                assert!(home.bouncer().bounce(&dg));
                let (again, at) = next_on(next);
                assert_eq!(again.payload, [i]);
                at.saturating_duration_since(bounced)
            })
            .collect::<Vec<_>>()
    });
    let p50 = median(hops.clone());
    assert!(
        p50 < Duration::from_millis(2),
        "median bounce → next shard {p50:?}; all: {hops:?}"
    );
    assert_eq!(dist.stats().bounced, 5);
}

#[test]
fn a_reply_the_shared_socket_refuses_is_counted() {
    let (dist, mut feeds) =
        UdpDistributor::new(UdpSocket::bind("127.0.0.1:0").unwrap(), 1).unwrap();
    let server = dist.local_addr();
    // An IPv4 socket cannot send to an IPv6 destination: the send fails
    // at once, like a full send buffer on the nonblocking socket would.
    feeds[0].send(server, Addr::v6(1, 60001), b"unroutable".to_vec());
    feeds[0].send_many(server, vec![(Addr::v6(1, 60002), b"again".to_vec())]);
    assert_eq!(dist.stats().send_failed, 2);
    // A reply that leaves is not counted.
    let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
    feeds[0].send(
        server,
        addr_from_socket(peer.local_addr().unwrap()),
        b"ok".to_vec(),
    );
    assert_eq!(peer.recv_from(&mut [0u8; 8]).unwrap().0, 2);
    assert_eq!(dist.stats().send_failed, 2);
}
