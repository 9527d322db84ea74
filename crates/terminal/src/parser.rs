//! The escape-sequence parser: an ECMA-48 state machine.
//!
//! This is the classic VT-series parser (the "Williams state machine"):
//! ground, escape, CSI, and OSC states, with C0 controls executing inside
//! most states and CAN/SUB/ESC aborting collection. Input is decoded from
//! UTF-8 first, as Mosh does, so C1 controls arrive as single code points.
//!
//! The parser is a *push* parser: [`Parser::advance`] takes one byte and
//! calls the [`Perform`] sink for whatever that byte completes, lending the
//! sink its own parameter, intermediate and OSC buffers for the duration of
//! the call. Nothing is built in between — the emulator's screen implements
//! [`Perform`] directly, so interpreting host output allocates nothing per
//! byte or per sequence. [`Parser::input`] is the same `advance` driving a
//! sink that *collects* owned [`Action`]s; tests and benches use that
//! per-action route as the reference the direct route is compared against.
//!
//! The parser is deliberately total: **any** byte sequence produces a
//! well-defined stream of sink calls and never panics — a property test in
//! `tests/` feeds it arbitrary bytes.

use crate::utf8::Utf8Decoder;

/// Upper bound on collected CSI parameters (matches common emulators).
const MAX_PARAMS: usize = 16;
/// Upper bound on collected intermediate bytes.
const MAX_INTERMEDIATES: usize = 2;
/// Upper bound on OSC string payloads.
const MAX_OSC: usize = 1024;

/// A parsed terminal action, ready for dispatch onto the framebuffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Print one character at the cursor.
    Print(char),
    /// Execute a C0 control (BEL, BS, HT, LF, VT, FF, CR, SO, SI).
    Control(u8),
    /// A completed escape sequence: `ESC intermediates* final`.
    Esc { intermediates: Vec<u8>, byte: u8 },
    /// A completed control sequence: `CSI private? params intermediates* final`.
    Csi {
        /// Leading private marker (`?`, `>`, `<`, `=`) if present.
        private: Option<u8>,
        /// Numeric parameters; empty slots default to 0.
        params: Vec<u16>,
        /// Intermediate bytes (0x20–0x2f).
        intermediates: Vec<u8>,
        /// Final byte (0x40–0x7e).
        byte: u8,
    },
    /// A completed operating-system command string (title setting etc.).
    Osc { data: Vec<u8> },
}

/// What the parser drives: one call per completed grammar element (the
/// shape of vte's `Perform`). Slices borrow the parser's own buffers and
/// are valid only for the call.
pub trait Perform {
    /// Print one character at the cursor.
    fn print(&mut self, c: char);
    /// Execute a C0 control (BEL, BS, HT, LF, VT, FF, CR, SO, SI).
    fn execute(&mut self, byte: u8);
    /// A completed escape sequence: `ESC intermediates* final`.
    fn esc_dispatch(&mut self, intermediates: &[u8], byte: u8);
    /// A completed control sequence: `CSI private? params intermediates*
    /// final`; empty parameter slots read 0.
    fn csi_dispatch(&mut self, private: Option<u8>, params: &[u16], intermediates: &[u8], byte: u8);
    /// A completed operating-system command string (title setting etc.).
    fn osc_dispatch(&mut self, data: &[u8]);
}

impl Action {
    /// Replays this action onto a sink: the inverse of what
    /// [`Parser::input`] collected.
    pub fn replay<S: Perform>(&self, sink: &mut S) {
        match self {
            Action::Print(c) => sink.print(*c),
            Action::Control(b) => sink.execute(*b),
            Action::Esc {
                intermediates,
                byte,
            } => sink.esc_dispatch(intermediates, *byte),
            Action::Csi {
                private,
                params,
                intermediates,
                byte,
            } => sink.csi_dispatch(*private, params, intermediates, *byte),
            Action::Osc { data } => sink.osc_dispatch(data),
        }
    }
}

/// The sink behind [`Parser::input`]: every call becomes an owned
/// [`Action`].
struct Collector(Vec<Action>);

impl Perform for Collector {
    fn print(&mut self, c: char) {
        self.0.push(Action::Print(c));
    }

    fn execute(&mut self, byte: u8) {
        self.0.push(Action::Control(byte));
    }

    fn esc_dispatch(&mut self, intermediates: &[u8], byte: u8) {
        self.0.push(Action::Esc {
            intermediates: intermediates.to_vec(),
            byte,
        });
    }

    fn csi_dispatch(
        &mut self,
        private: Option<u8>,
        params: &[u16],
        intermediates: &[u8],
        byte: u8,
    ) {
        self.0.push(Action::Csi {
            private,
            params: params.to_vec(),
            intermediates: intermediates.to_vec(),
            byte,
        });
    }

    fn osc_dispatch(&mut self, data: &[u8]) {
        self.0.push(Action::Osc {
            data: data.to_vec(),
        });
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Ground,
    Escape,
    EscapeIntermediate,
    CsiEntry,
    CsiParam,
    CsiIntermediate,
    CsiIgnore,
    OscString,
    /// Inside a DCS/SOS/PM/APC string we discard everything until ST.
    StringIgnore,
}

/// The streaming parser. Feed bytes; a [`Perform`] sink receives what they
/// complete ([`Parser::input`] collects it as [`Action`]s).
///
/// # Examples
///
/// ```
/// use mosh_terminal::parser::{Action, Parser};
///
/// let mut p = Parser::new();
/// let actions = p.input(b"a\x1b[1;31mb");
/// assert_eq!(actions[0], Action::Print('a'));
/// assert!(matches!(actions[1], Action::Csi { byte: b'm', .. }));
/// assert_eq!(actions[2], Action::Print('b'));
/// ```
#[derive(Debug, Clone)]
pub struct Parser {
    state: State,
    utf8: Utf8Decoder,
    params: Vec<u16>,
    /// True once the current parameter slot has at least one digit.
    param_started: bool,
    private: Option<u8>,
    intermediates: Vec<u8>,
    osc: Vec<u8>,
    /// Set when an ESC arrives inside an OSC/string state (possible ST).
    string_esc: bool,
}

impl Default for Parser {
    fn default() -> Self {
        Self::new()
    }
}

impl Parser {
    /// Creates a parser in the ground state.
    pub fn new() -> Self {
        Parser {
            state: State::Ground,
            utf8: Utf8Decoder::new(),
            params: Vec::new(),
            param_started: false,
            private: None,
            intermediates: Vec::new(),
            osc: Vec::new(),
            string_esc: false,
        }
    }

    /// Parses a byte slice, returning all completed actions: [`Self::advance`]
    /// over a collecting sink.
    pub fn input(&mut self, bytes: &[u8]) -> Vec<Action> {
        let mut collector = Collector(Vec::new());
        for &b in bytes {
            self.advance(b, &mut collector);
        }
        collector.0
    }

    /// Feeds one byte, calling `sink` for whatever it completes.
    pub fn advance<S: Perform>(&mut self, byte: u8, sink: &mut S) {
        // Decode UTF-8 first, as Mosh does: the state machine consumes
        // code points, so C1 controls arrive as single characters and a
        // multi-byte character can never be torn by the grammar.
        if byte < 0x80 && !self.utf8.pending() {
            self.step(byte as char, sink);
        } else {
            for c in self.utf8.push(byte) {
                self.step(c, sink);
            }
        }
    }

    /// True in the ground state with no UTF-8 sequence half-read: the next
    /// byte in `0x20..=0x7e` prints itself and one in `0x07..=0x0f` executes,
    /// whatever follows it. The emulator's run-at-a-time print relies on
    /// exactly this.
    pub fn in_ground(&self) -> bool {
        self.state == State::Ground && !self.utf8.pending()
    }

    /// Serializes the full parser state (including any half-collected
    /// sequence and pending UTF-8 bytes) for a session snapshot.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        use mosh_wire::{put_bool, put_bytes, put_varint};
        out.push(match self.state {
            State::Ground => 0,
            State::Escape => 1,
            State::EscapeIntermediate => 2,
            State::CsiEntry => 3,
            State::CsiParam => 4,
            State::CsiIntermediate => 5,
            State::CsiIgnore => 6,
            State::OscString => 7,
            State::StringIgnore => 8,
        });
        self.utf8.encode_into(out);
        put_varint(out, self.params.len() as u64);
        for &p in &self.params {
            put_varint(out, u64::from(p));
        }
        put_bool(out, self.param_started);
        put_bool(out, self.private.is_some());
        if let Some(b) = self.private {
            out.push(b);
        }
        put_bytes(out, &self.intermediates);
        put_bytes(out, &self.osc);
        put_bool(out, self.string_esc);
    }

    /// Rebuilds a parser from [`Self::encode_into`] output, rejecting any
    /// state the live parser could never reach (oversized collections).
    pub(crate) fn decode(r: &mut mosh_wire::Reader<'_>) -> Option<Self> {
        let state = match r.byte()? {
            0 => State::Ground,
            1 => State::Escape,
            2 => State::EscapeIntermediate,
            3 => State::CsiEntry,
            4 => State::CsiParam,
            5 => State::CsiIntermediate,
            6 => State::CsiIgnore,
            7 => State::OscString,
            8 => State::StringIgnore,
            _ => return None,
        };
        let utf8 = Utf8Decoder::decode(r)?;
        let nparams = r.varint()? as usize;
        if nparams > MAX_PARAMS {
            return None;
        }
        let mut params = Vec::with_capacity(nparams);
        for _ in 0..nparams {
            params.push(u16::try_from(r.varint()?).ok()?);
        }
        let param_started = r.bool()?;
        let private = match r.bool()? {
            false => None,
            true => Some(r.byte()?),
        };
        let intermediates = r.bytes()?.to_vec();
        if intermediates.len() > MAX_INTERMEDIATES {
            return None;
        }
        let osc = r.bytes()?.to_vec();
        if osc.len() > MAX_OSC {
            return None;
        }
        let string_esc = r.bool()?;
        Some(Parser {
            state,
            utf8,
            params,
            param_started,
            private,
            intermediates,
            osc,
            string_esc,
        })
    }

    fn clear_sequence(&mut self) {
        self.params.clear();
        self.param_started = false;
        self.private = None;
        self.intermediates.clear();
    }

    fn step<S: Perform>(&mut self, c: char, sink: &mut S) {
        let cp = c as u32;
        // C1 controls (from UTF-8 decoding) map onto their ESC equivalents.
        if (0x80..=0x9f).contains(&cp) {
            match cp {
                0x84 => sink.esc_dispatch(&[], b'D'),
                0x85 => sink.esc_dispatch(&[], b'E'),
                0x88 => sink.esc_dispatch(&[], b'H'),
                0x8d => sink.esc_dispatch(&[], b'M'),
                0x9b => {
                    self.clear_sequence();
                    self.state = State::CsiEntry;
                }
                0x9d => {
                    self.osc.clear();
                    self.string_esc = false;
                    self.state = State::OscString;
                }
                0x90 | 0x98 | 0x9e | 0x9f => {
                    self.string_esc = false;
                    self.state = State::StringIgnore;
                }
                0x9c => {
                    // Stray ST: return to ground.
                    self.state = State::Ground;
                }
                _ => {}
            }
            return;
        }

        match self.state {
            State::Ground => self.ground(c, sink),
            State::Escape => self.escape(c, sink),
            State::EscapeIntermediate => self.escape_intermediate(c, sink),
            State::CsiEntry | State::CsiParam | State::CsiIntermediate => self.csi(c, sink),
            State::CsiIgnore => self.csi_ignore(c, sink),
            State::OscString => self.osc_string(c, sink),
            State::StringIgnore => self.string_ignore(c),
        }
    }

    fn execute_c0<S: Perform>(&mut self, c: char, sink: &mut S) -> bool {
        let b = c as u32;
        match b {
            0x1b => {
                self.clear_sequence();
                self.state = State::Escape;
                true
            }
            0x18 | 0x1a => {
                // CAN / SUB abort any sequence.
                self.state = State::Ground;
                true
            }
            0x07..=0x0f => {
                sink.execute(b as u8);
                true
            }
            0x00..=0x1f => true, // Other C0: ignored.
            0x7f => true,        // DEL: ignored.
            _ => false,
        }
    }

    fn ground<S: Perform>(&mut self, c: char, sink: &mut S) {
        if !self.execute_c0(c, sink) {
            sink.print(c);
        }
    }

    fn escape<S: Perform>(&mut self, c: char, sink: &mut S) {
        let b = c as u32;
        match b {
            0x5b => {
                // '[' — CSI.
                self.clear_sequence();
                self.state = State::CsiEntry;
            }
            0x5d => {
                // ']' — OSC.
                self.osc.clear();
                self.string_esc = false;
                self.state = State::OscString;
            }
            0x50 | 0x58 | 0x5e | 0x5f => {
                // 'P' DCS, 'X' SOS, '^' PM, '_' APC: swallow until ST.
                self.string_esc = false;
                self.state = State::StringIgnore;
            }
            0x20..=0x2f => {
                self.intermediates.push(b as u8);
                self.state = State::EscapeIntermediate;
            }
            0x30..=0x7e => {
                sink.esc_dispatch(&self.intermediates, b as u8);
                self.intermediates.clear();
                self.state = State::Ground;
            }
            _ => {
                if !self.execute_c0(c, sink) {
                    self.state = State::Ground;
                }
            }
        }
    }

    fn escape_intermediate<S: Perform>(&mut self, c: char, sink: &mut S) {
        let b = c as u32;
        match b {
            0x20..=0x2f => {
                if self.intermediates.len() < MAX_INTERMEDIATES {
                    self.intermediates.push(b as u8);
                }
            }
            0x30..=0x7e => {
                sink.esc_dispatch(&self.intermediates, b as u8);
                self.intermediates.clear();
                self.state = State::Ground;
            }
            _ => {
                self.execute_c0(c, sink);
            }
        }
    }

    fn csi<S: Perform>(&mut self, c: char, sink: &mut S) {
        let b = c as u32;
        match b {
            0x30..=0x39 => {
                // Digit: extend the current parameter (saturating).
                if self.state == State::CsiIntermediate {
                    self.state = State::CsiIgnore;
                    return;
                }
                if !self.param_started {
                    if self.params.len() >= MAX_PARAMS {
                        self.state = State::CsiIgnore;
                        return;
                    }
                    self.params.push(0);
                    self.param_started = true;
                }
                let last = self
                    .params
                    .last_mut()
                    .expect("param_started implies non-empty");
                *last = last.saturating_mul(10).saturating_add((b - 0x30) as u16);
                self.state = State::CsiParam;
            }
            0x3b | 0x3a => {
                // ';' (and ':' treated alike) — next parameter.
                if self.state == State::CsiIntermediate {
                    self.state = State::CsiIgnore;
                    return;
                }
                if !self.param_started {
                    if self.params.len() >= MAX_PARAMS {
                        self.state = State::CsiIgnore;
                        return;
                    }
                    self.params.push(0);
                }
                self.param_started = false;
                self.state = State::CsiParam;
            }
            0x3c..=0x3f => {
                // Private markers, only valid immediately after CSI.
                if self.state == State::CsiEntry {
                    self.private = Some(b as u8);
                    self.state = State::CsiParam;
                } else {
                    self.state = State::CsiIgnore;
                }
            }
            0x20..=0x2f => {
                if self.intermediates.len() < MAX_INTERMEDIATES {
                    self.intermediates.push(b as u8);
                }
                self.state = State::CsiIntermediate;
            }
            0x40..=0x7e => {
                sink.csi_dispatch(self.private, &self.params, &self.intermediates, b as u8);
                self.clear_sequence();
                self.state = State::Ground;
            }
            _ => {
                self.execute_c0(c, sink);
            }
        }
    }

    fn csi_ignore<S: Perform>(&mut self, c: char, sink: &mut S) {
        let b = c as u32;
        match b {
            0x40..=0x7e => self.state = State::Ground,
            _ => {
                self.execute_c0(c, sink);
            }
        }
    }

    fn osc_string<S: Perform>(&mut self, c: char, sink: &mut S) {
        let b = c as u32;
        if self.string_esc {
            self.string_esc = false;
            if b == 0x5c {
                // ESC \ = ST: terminate.
                sink.osc_dispatch(&self.osc);
                self.osc.clear();
                self.state = State::Ground;
                return;
            }
            // Not a terminator; the ESC aborts the OSC and starts a sequence.
            self.osc.clear();
            self.clear_sequence();
            self.state = State::Escape;
            self.escape(c, sink);
            return;
        }
        match b {
            0x07 => {
                // BEL terminator (xterm convention).
                sink.osc_dispatch(&self.osc);
                self.osc.clear();
                self.state = State::Ground;
            }
            0x1b => {
                self.string_esc = true;
            }
            0x18 | 0x1a => {
                self.osc.clear();
                self.state = State::Ground;
            }
            _ => {
                if self.osc.len() < MAX_OSC {
                    let mut buf = [0u8; 4];
                    self.osc
                        .extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                }
            }
        }
    }

    fn string_ignore(&mut self, c: char) {
        let b = c as u32;
        if self.string_esc {
            self.string_esc = false;
            if b == 0x5c {
                self.state = State::Ground;
            }
            return;
        }
        match b {
            0x1b => self.string_esc = true,
            0x18 | 0x1a | 0x07 => self.state = State::Ground,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Vec<Action> {
        Parser::new().input(bytes)
    }

    #[test]
    fn plain_text_prints() {
        let a = parse(b"hi");
        assert_eq!(a, vec![Action::Print('h'), Action::Print('i')]);
    }

    #[test]
    fn utf8_text_prints() {
        let a = parse("é".as_bytes());
        assert_eq!(a, vec![Action::Print('é')]);
    }

    #[test]
    fn c0_controls_execute() {
        let a = parse(b"\x07\x08\x09\x0a\x0d");
        assert_eq!(
            a,
            vec![
                Action::Control(0x07),
                Action::Control(0x08),
                Action::Control(0x09),
                Action::Control(0x0a),
                Action::Control(0x0d)
            ]
        );
    }

    #[test]
    fn simple_csi() {
        let a = parse(b"\x1b[2;5H");
        assert_eq!(
            a,
            vec![Action::Csi {
                private: None,
                params: vec![2, 5],
                intermediates: vec![],
                byte: b'H'
            }]
        );
    }

    #[test]
    fn csi_with_no_params() {
        let a = parse(b"\x1b[m");
        assert_eq!(
            a,
            vec![Action::Csi {
                private: None,
                params: vec![],
                intermediates: vec![],
                byte: b'm'
            }]
        );
    }

    #[test]
    fn csi_empty_param_slots_are_zero() {
        let a = parse(b"\x1b[;5H");
        assert_eq!(
            a,
            vec![Action::Csi {
                private: None,
                params: vec![0, 5],
                intermediates: vec![],
                byte: b'H'
            }]
        );
    }

    #[test]
    fn csi_private_marker() {
        let a = parse(b"\x1b[?25l");
        assert_eq!(
            a,
            vec![Action::Csi {
                private: Some(b'?'),
                params: vec![25],
                intermediates: vec![],
                byte: b'l'
            }]
        );
    }

    #[test]
    fn csi_intermediate_bytes() {
        let a = parse(b"\x1b[!p");
        assert_eq!(
            a,
            vec![Action::Csi {
                private: None,
                params: vec![],
                intermediates: vec![b'!'],
                byte: b'p'
            }]
        );
        let a = parse(b"\x1b[0 q");
        assert_eq!(
            a,
            vec![Action::Csi {
                private: None,
                params: vec![0],
                intermediates: vec![b' '],
                byte: b'q'
            }]
        );
    }

    #[test]
    fn esc_dispatch() {
        let a = parse(b"\x1bM");
        assert_eq!(
            a,
            vec![Action::Esc {
                intermediates: vec![],
                byte: b'M'
            }]
        );
    }

    #[test]
    fn esc_with_intermediate() {
        let a = parse(b"\x1b(0");
        assert_eq!(
            a,
            vec![Action::Esc {
                intermediates: vec![b'('],
                byte: b'0'
            }]
        );
    }

    #[test]
    fn osc_bel_terminated() {
        let a = parse(b"\x1b]0;my title\x07");
        assert_eq!(
            a,
            vec![Action::Osc {
                data: b"0;my title".to_vec()
            }]
        );
    }

    #[test]
    fn osc_st_terminated() {
        let a = parse(b"\x1b]2;t\x1b\\");
        assert_eq!(
            a,
            vec![Action::Osc {
                data: b"2;t".to_vec()
            }]
        );
    }

    #[test]
    fn dcs_is_swallowed() {
        let a = parse(b"\x1bPsome dcs junk\x1b\\after");
        assert_eq!(
            a,
            vec![
                Action::Print('a'),
                Action::Print('f'),
                Action::Print('t'),
                Action::Print('e'),
                Action::Print('r')
            ]
        );
    }

    #[test]
    fn can_aborts_csi() {
        let a = parse(b"\x1b[2\x18X");
        assert_eq!(a, vec![Action::Print('X')]);
    }

    #[test]
    fn c0_executes_inside_csi() {
        let a = parse(b"\x1b[2\x0a5H");
        assert_eq!(
            a,
            vec![
                Action::Control(0x0a),
                Action::Csi {
                    private: None,
                    params: vec![25],
                    intermediates: vec![],
                    byte: b'H'
                }
            ]
        );
    }

    #[test]
    fn esc_inside_csi_restarts() {
        let a = parse(b"\x1b[1\x1b[2J");
        assert_eq!(
            a,
            vec![Action::Csi {
                private: None,
                params: vec![2],
                intermediates: vec![],
                byte: b'J'
            }]
        );
    }

    #[test]
    fn params_saturate_instead_of_overflow() {
        let a = parse(b"\x1b[99999999999999999999m");
        assert_eq!(
            a,
            vec![Action::Csi {
                private: None,
                params: vec![u16::MAX],
                intermediates: vec![],
                byte: b'm'
            }]
        );
    }

    #[test]
    fn too_many_params_ignored_gracefully() {
        let mut seq = b"\x1b[".to_vec();
        for _ in 0..40 {
            seq.extend_from_slice(b"1;");
        }
        seq.push(b'm');
        // Sequence is ignored (CsiIgnore) but parsing continues cleanly.
        let a = Parser::new().input(&seq);
        assert!(a.is_empty());
        assert_eq!(Parser::new().input(b"x"), vec![Action::Print('x')]);
    }

    #[test]
    fn c1_csi_from_utf8() {
        // U+009B is the C1 CSI; UTF-8 encoding is 0xc2 0x9b.
        let a = parse(&[0xc2, 0x9b, b'5', b'C']);
        assert_eq!(
            a,
            vec![Action::Csi {
                private: None,
                params: vec![5],
                intermediates: vec![],
                byte: b'C'
            }]
        );
    }

    #[test]
    fn del_is_ignored() {
        assert_eq!(parse(&[0x7f]), vec![]);
    }

    #[test]
    fn split_input_across_calls() {
        let mut p = Parser::new();
        let mut a = p.input(b"\x1b[3");
        assert!(a.is_empty());
        a = p.input(b"1m");
        assert_eq!(
            a,
            vec![Action::Csi {
                private: None,
                params: vec![31],
                intermediates: vec![],
                byte: b'm'
            }]
        );
    }
}
