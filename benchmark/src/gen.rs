//! Seeded input generation. The program sees only what comes out of
//! here: keystrokes, their due times, session keys and link seeds.

use std::collections::VecDeque;

/// SplitMix64: small, seedable, and the same on every host.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for part `i` of seed `seed`.
    pub fn stream(seed: u64, i: u64) -> Self {
        let mut r = Rng(seed ^ i.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    pub fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[(self.next() % items.len() as u64) as usize]
    }
}

const WORDS: [&str; 10] = [
    "alpha", "bravo", "delta", "gamma", "make", "grep", "test", "node", "rust", "mosh",
];

/// Something that types: one keystroke's bytes per call, for ever.
pub trait Typer: Send {
    fn next_key(&mut self) -> Vec<u8>;
}

/// Types shell commands a character at a time, with the odd typo fixed
/// by a backspace. Every command line carries a counter, so no two are
/// alike.
pub struct ShellTyper {
    rng: Rng,
    line_no: u64,
    pending: VecDeque<Vec<u8>>,
}

impl ShellTyper {
    pub fn new(rng: Rng) -> Self {
        ShellTyper {
            rng,
            line_no: 0,
            pending: VecDeque::new(),
        }
    }

    fn compose(&mut self) {
        self.line_no += 1;
        let n = self.line_no;
        let r = &mut self.rng;
        let line = match r.next() % 100 {
            0..=34 => format!("echo w{n} {}", r.pick(&WORDS)),
            35..=54 => "ls".to_string(),
            55..=69 => format!("cat {}", r.range(3, 8)),
            70..=84 => format!("seq {}", r.range(5, 20)),
            _ => format!("{}{n}", r.pick(&WORDS)),
        };
        for b in line.bytes() {
            if r.chance(4) {
                self.pending.push_back(vec![b'a' + (r.next() % 26) as u8]);
                self.pending.push_back(vec![0x7f]);
            }
            self.pending.push_back(vec![b]);
        }
        self.pending.push_back(vec![b'\r']);
    }
}

impl Typer for ShellTyper {
    fn next_key(&mut self) -> Vec<u8> {
        if self.pending.is_empty() {
            self.compose();
        }
        self.pending.pop_front().expect("composed")
    }
}

/// Types prose into the full-screen editor and moves about in it: runs
/// of arrow keys, line breaks, backspaces and vi-style mode switches —
/// the keys a predictor cannot guess.
pub struct EditorTyper {
    rng: Rng,
    since_break: u64,
    word_left: u64,
    pending: VecDeque<Vec<u8>>,
}

impl EditorTyper {
    pub fn new(rng: Rng) -> Self {
        EditorTyper {
            rng,
            since_break: 0,
            word_left: 4,
            pending: VecDeque::new(),
        }
    }
}

impl Typer for EditorTyper {
    fn next_key(&mut self) -> Vec<u8> {
        if let Some(k) = self.pending.pop_front() {
            return k;
        }
        let r = &mut self.rng;
        if self.word_left > 0 {
            self.word_left -= 1;
            self.since_break += 1;
            if r.chance(3) {
                return vec![0x7f];
            }
            return vec![b'a' + (r.next() % 26) as u8];
        }
        // A word boundary: what next?
        self.word_left = r.range(3, 8);
        if self.since_break > 40 {
            self.since_break = 0;
            return vec![b'\r'];
        }
        match r.next() % 100 {
            0..=11 => {
                let arrow: &[u8] = match r.next() % 4 {
                    0 => b"\x1b[A",
                    1 => b"\x1b[B",
                    2 => b"\x1b[C",
                    _ => b"\x1b[D",
                };
                for _ in 0..r.range(1, 4) {
                    self.pending.push_back(arrow.to_vec());
                }
                self.pending.pop_front().expect("one arrow at least")
            }
            12..=14 => {
                self.pending.push_back(vec![b'i']);
                vec![0x1b]
            }
            _ => {
                self.since_break += 1;
                vec![b' ']
            }
        }
    }
}

/// Gap before the next key of a person typing: bursts around 150 ms with
/// a pause about one key in twelve — 4 keys a second on average.
pub fn typing_gap_ms(rng: &mut Rng) -> u64 {
    if rng.chance(8) {
        rng.range(800, 2000)
    } else {
        rng.range(80, 220)
    }
}
