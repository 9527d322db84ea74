//! What the prediction engine shows, checked against the truth rather
//! than against its own counters.
//!
//! A scripted typist drives a shell and an editor session over the EV-DO
//! links. For every key [`MoshClient::keystroke`] reports as shown at
//! once, what was displayed — the cursor and the cell the key changed —
//! is compared with an oracle that has no network in it: a fresh
//! application and terminal fed exactly the keys typed up to that one (at
//! the times the served application got them, since a key typed ahead of
//! a running command echoes in the middle of its output). Two thresholds,
//! both of which the positional engine this one replaced fails (0.52 %
//! and 43 %): at most 0.5 % of what is shown is wrong, and at least half
//! of the printable keys are shown.

use mosh::core::{
    Application, Editor, LineShell, MoshClient, MoshServer, Party, SessionLoop, TimedWrite,
};
use mosh::crypto::Base64Key;
use mosh::net::{Addr, LinkConfig, Network, Side, SimChannel};
use mosh::prediction::DisplayPreference;
use mosh::states::CompleteTerminal;
use mosh::terminal::{Cursor, Framebuffer};
use std::sync::{Arc, Mutex};

/// SplitMix64, so the scripts are the same on every host.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn letter(&mut self) -> u8 {
        b'a' + (self.next() % 26) as u8
    }

    /// Bursts around 150 ms, a pause about one key in twelve.
    fn gap_ms(&mut self) -> u64 {
        if self.chance(8) {
            self.range(800, 2000)
        } else {
            self.range(80, 220)
        }
    }
}

const WORDS: [&str; 6] = ["alpha", "bravo", "make", "grep", "test", "mosh"];

/// Shell commands a character at a time, each ending in ENTER and typed
/// ahead of the prompt, with the odd typo fixed by a backspace; every
/// tenth line is a `passwd` prompt answered blind.
fn shell_script(rng: &mut Rng, lines: usize) -> Vec<Vec<u8>> {
    let mut keys = Vec::new();
    for n in 1..=lines {
        let word = WORDS[rng.next() as usize % WORDS.len()];
        let line = match rng.next() % 100 {
            _ if n % 10 == 0 => "passwd\rhunter2".to_string(),
            0..=34 => format!("echo w{n} {word}"),
            35..=54 => "ls".to_string(),
            55..=69 => format!("cat {}", rng.range(3, 8)),
            70..=84 => format!("seq {}", rng.range(5, 20)),
            _ => format!("{word}{n}"),
        };
        for b in line.bytes() {
            if b != b'\r' && rng.chance(4) {
                keys.push(vec![rng.letter()]);
                keys.push(vec![0x7f]);
            }
            keys.push(vec![b]);
        }
        keys.push(vec![b'\r']);
    }
    keys
}

/// Prose into the editor, with runs of arrows, line breaks, backspaces
/// and escape-`i` mode switches between the words.
fn editor_script(rng: &mut Rng, words: usize) -> Vec<Vec<u8>> {
    let mut keys = Vec::new();
    let mut since_break = 0;
    for _ in 0..words {
        for _ in 0..rng.range(3, 8) {
            since_break += 1;
            keys.push(if rng.chance(3) {
                vec![0x7f]
            } else {
                vec![rng.letter()]
            });
        }
        if since_break > 40 {
            since_break = 0;
            keys.push(vec![b'\r']);
            continue;
        }
        match rng.next() % 100 {
            0..=11 => {
                let arrow = [b"\x1b[A", b"\x1b[B", b"\x1b[C", b"\x1b[D"][rng.next() as usize % 4];
                for _ in 0..rng.range(1, 4) {
                    keys.push(arrow.to_vec());
                }
            }
            12..=14 => {
                keys.push(vec![0x1b]);
                keys.push(vec![b'i']);
            }
            _ => {
                since_break += 1;
                keys.push(vec![b' ']);
            }
        }
    }
    keys
}

/// Hosts the served application and notes when each key reached it: a
/// key typed ahead of a running command echoes among that command's
/// output, so the truth depends on those times.
struct Noted {
    app: Box<dyn Application>,
    arrivals: Arc<Mutex<Vec<u64>>>,
}

impl Application for Noted {
    fn start(&mut self, now: u64) -> Vec<TimedWrite> {
        self.app.start(now)
    }

    fn on_input(&mut self, now: u64, bytes: &[u8]) -> Vec<TimedWrite> {
        self.arrivals.lock().expect("no panic holds it").push(now);
        self.app.on_input(now, bytes)
    }
}

/// The screen of a fresh application and terminal, with no network
/// between them, fed exactly `keys` at the times the served one got them.
fn truth(mut app: Box<dyn Application>, keys: &[Vec<u8>], arrivals: &[u64]) -> Framebuffer {
    let mut writes = app.start(0);
    for (bytes, at) in keys.iter().zip(arrivals) {
        writes.extend(app.on_input(*at, bytes));
    }
    // The server applies writes in due-time order, ties as scheduled.
    writes.sort_by_key(|w| w.at);
    let mut terminal = CompleteTerminal::initial();
    for w in &writes {
        terminal.act(&w.bytes);
    }
    terminal.frame().clone()
}

/// What the client displayed for one key it reported as shown.
struct Shown {
    /// How many keys had been typed, this one included.
    keys: usize,
    cursor: Cursor,
    /// The cell the key changed — left of the cursor for a character,
    /// under it for a backspace — and what stood there.
    col: usize,
    ch: char,
}

#[derive(Debug, Default)]
struct Tally {
    printable: u64,
    printable_shown: u64,
    shown: u64,
    wrong: u64,
}

/// Types `script` into a session hosting `app()` and judges every key
/// shown at once against the truth.
fn drive(app: fn() -> Box<dyn Application>, script: &[Vec<u8>], seed: u64) -> Tally {
    let key = Base64Key::from_bytes([seed as u8; 16]);
    let mut net = Network::new(LinkConfig::evdo_uplink(), LinkConfig::evdo_downlink(), seed);
    let (c, s) = (Addr::new(1, 1000), Addr::new(2, 60001));
    net.register(c, Side::Client);
    net.register(s, Side::Server);
    let mut sl = SessionLoop::new(SimChannel::new(net));
    let mut client = MoshClient::new(key.clone(), s, 80, 24, DisplayPreference::Adaptive);
    let arrivals = Arc::new(Mutex::new(Vec::new()));
    let mut server = MoshServer::new(
        key,
        Box::new(Noted {
            app: app(),
            arrivals: arrivals.clone(),
        }),
    );
    let mut gaps = Rng(seed ^ 0x5eed);
    let mut tally = Tally::default();
    let mut shown = Vec::new();

    let mut until = 2_000;
    for (typed, bytes) in script.iter().enumerate() {
        sl.pump_until(
            &mut [Party::new(c, &mut client), Party::new(s, &mut server)],
            until,
        );
        let at_once = client.keystroke(sl.now(), bytes);
        until = sl.now() + gaps.gap_ms();

        let printable = bytes[0] >= 0x20 && bytes[0] != 0x7f;
        tally.printable += u64::from(printable);
        if !at_once {
            continue;
        }
        tally.printable_shown += u64::from(printable);
        let display = client.display();
        let cursor = display.cursor;
        let col = cursor.col.saturating_sub(usize::from(printable));
        shown.push(Shown {
            keys: typed + 1,
            cursor,
            col,
            ch: display.cell(cursor.row, col).ch(),
        });
    }
    sl.pump_until(
        &mut [Party::new(c, &mut client), Party::new(s, &mut server)],
        until + 10_000,
    );
    assert_eq!(&client.display(), client.server_frame());

    // Nothing typed was lost on the way, and the truth is the truth.
    let arrivals = arrivals.lock().expect("no panic holds it");
    assert_eq!(arrivals.len(), script.len());
    assert_eq!(client.server_frame(), &truth(app(), script, &arrivals));
    tally.shown = shown.len() as u64;
    for s in shown {
        let truth = truth(app(), &script[..s.keys], &arrivals);
        if s.cursor != truth.cursor || s.ch != truth.cell(s.cursor.row, s.col).ch() {
            tally.wrong += 1;
        }
    }
    tally
}

#[test]
fn what_is_shown_at_once_is_what_the_application_will_show() {
    let mut rng = Rng(21);
    let shell = drive(
        || Box::new(LineShell::new()),
        &shell_script(&mut rng, 60),
        3,
    );
    let editor = drive(|| Box::new(Editor::new()), &editor_script(&mut rng, 120), 4);
    for (name, t) in [("shell", &shell), ("editor", &editor)] {
        assert!(t.shown >= 200, "{name}: too few keys shown to judge: {t:?}");
    }
    let shown = shell.shown + editor.shown;
    let wrong = shell.wrong + editor.wrong;
    let printable = shell.printable + editor.printable;
    let printable_shown = shell.printable_shown + editor.printable_shown;
    assert!(
        wrong * 1000 <= shown * 5,
        "more than 0.5 % of the predictions shown were wrong: shell {shell:?}, editor {editor:?}"
    );
    assert!(
        printable_shown * 2 >= printable,
        "fewer than half of the printable keys were shown at once: shell {shell:?}, editor {editor:?}"
    );
}
