//! Property: the hub demux never leaks a datagram across sessions.
//!
//! The hostile case from the paper's §2.2 roaming design: two sessions
//! share one server receive address, and *both clients roam to the same
//! source address* (one NAT, two phones). Address-based demultiplexing is
//! then impossible — source and destination are identical for both
//! sessions — so the hub must fall back to cryptographic authentication
//! for every datagram, and must never feed one session's traffic to the
//! other's endpoint.
//!
//! "Never misrouted" is observable two ways, both asserted under random
//! typing, keys, and network seeds: each endpoint's rejected-datagram
//! counter stays zero (a misroute is rejected by the receiving transport
//! and counted), and each terminal ends with exactly its own user's
//! keystrokes.

use mosh::core::{HubSession, LineShell, MoshClient, MoshServer, Party, ServerHub, SessionId};
use mosh::crypto::Base64Key;
use mosh::net::{Addr, LinkConfig, Network, Poller, Side, SimChannel, SimPoller};
use mosh::prediction::DisplayPreference;
use proptest::prelude::*;

const SERVER: Addr = Addr::new(2, 60001);
const CLIENT_A: Addr = Addr::new(1, 1001);
const CLIENT_B: Addr = Addr::new(1, 1002);
/// The shared post-roam source address (both clients behind one NAT).
const NAT: Addr = Addr::new(9, 9999);

struct TwoSessions {
    hub: ServerHub<SimPoller>,
    sids: [SessionId; 2],
    clients: [MoshClient; 2],
    servers: [MoshServer; 2],
    client_addrs: [Addr; 2],
}

impl TwoSessions {
    fn new(seed: u64, key_a: u8, key_b: u8) -> Self {
        let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), seed);
        for addr in [CLIENT_A, CLIENT_B, NAT] {
            net.register(addr, Side::Client);
        }
        net.register(SERVER, Side::Server);

        let mut hub = ServerHub::new(SimPoller::new());
        let tok = hub.poller_mut().add(SimChannel::new(net));
        let sids = [hub.add_session(tok), hub.add_session(tok)];
        let keys = [
            Base64Key::from_bytes([key_a; 16]),
            Base64Key::from_bytes([key_b; 16]),
        ];
        TwoSessions {
            hub,
            sids,
            clients: [
                MoshClient::new(keys[0].clone(), SERVER, 80, 24, DisplayPreference::Never),
                MoshClient::new(keys[1].clone(), SERVER, 80, 24, DisplayPreference::Never),
            ],
            servers: [
                MoshServer::new(keys[0].clone(), Box::new(LineShell::new())),
                MoshServer::new(keys[1].clone(), Box::new(LineShell::new())),
            ],
            client_addrs: [CLIENT_A, CLIENT_B],
        }
    }

    fn pump(&mut self, target: u64) {
        let [ca, cb] = &mut self.clients;
        let [sa, sb] = &mut self.servers;
        let mut pa = [Party::new(self.client_addrs[0], ca), Party::new(SERVER, sa)];
        let mut pb = [Party::new(self.client_addrs[1], cb), Party::new(SERVER, sb)];
        self.hub.pump(&mut [
            HubSession::new(self.sids[0], &mut pa, target),
            HubSession::new(self.sids[1], &mut pb, target),
        ]);
        assert_eq!(self.hub.stats().shard_panics, 0);
    }

    fn now(&self) -> u64 {
        self.hub.now(self.sids[0])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn no_cross_session_leakage_when_both_roam_to_one_address(
        seed in any::<u64>(),
        key_a in 1u8..120,
        key_delta in 1u8..120,
        text_a in "[a-m]{1,10}",
        text_b in "[n-z]{1,10}",
        roam_after in 1usize..8,
    ) {
        let key_b = key_a.wrapping_add(key_delta);
        let mut s = TwoSessions::new(seed, key_a, key_b);

        // Both sessions establish from distinct addresses (the server
        // receive address is shared and therefore ambiguous from the
        // very first datagram — authentication routes even the hellos).
        s.pump(2_000);
        prop_assert_eq!(s.servers[0].target(), Some(CLIENT_A));
        prop_assert_eq!(s.servers[1].target(), Some(CLIENT_B));

        // Interleaved typing; part-way through, BOTH clients roam to the
        // same NAT address mid-stream.
        let longest = text_a.len().max(text_b.len());
        for i in 0..longest {
            if i == roam_after.min(longest) {
                s.client_addrs = [NAT, NAT];
            }
            let at = s.now();
            if let Some(b) = text_a.as_bytes().get(i) {
                s.clients[0].keystroke(at, &[*b]);
            }
            if let Some(b) = text_b.as_bytes().get(i) {
                s.clients[1].keystroke(at, &[*b]);
            }
            let t = at + 200;
            s.pump(t);
        }
        if roam_after >= longest {
            s.client_addrs = [NAT, NAT];
            s.pump(s.now() + 200);
        }
        // Let retransmissions settle well past any RTO.
        s.pump(s.now() + 10_000);

        // Both sessions roamed to the SAME address and kept working.
        prop_assert_eq!(s.servers[0].target(), Some(NAT), "A follows the roam");
        prop_assert_eq!(s.servers[1].target(), Some(NAT), "B follows the roam");

        // Each terminal holds exactly its own user's text...
        prop_assert_eq!(s.servers[0].frame().row_text(0), format!("$ {}", text_a));
        prop_assert_eq!(s.servers[1].frame().row_text(0), format!("$ {}", text_b));
        // ...each client converged to its own server's screen...
        prop_assert_eq!(s.clients[0].server_frame(), s.servers[0].frame());
        prop_assert_eq!(s.clients[1].server_frame(), s.servers[1].frame());

        // ...and no endpoint ever saw a foreign datagram: a misroute
        // would fail authentication at the endpoint and be counted.
        for (who, rejected) in [
            ("client A", s.clients[0].transport_stats().datagrams_rejected),
            ("client B", s.clients[1].transport_stats().datagrams_rejected),
            ("server A", s.servers[0].transport_stats().datagrams_rejected),
            ("server B", s.servers[1].transport_stats().datagrams_rejected),
        ] {
            prop_assert_eq!(rejected, 0, "{} was fed a foreign datagram", who);
        }

        // The ambiguous paths were genuinely exercised: every delivery to
        // the shared server address (and to the shared NAT address after
        // the roam) went through the authentication fallback.
        let stats = s.hub.stats();
        prop_assert!(stats.auth_routed > 0, "auth fallback never ran: {:?}", stats);
        prop_assert!(stats.delivered > 0);
    }
}
