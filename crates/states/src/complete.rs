//! The server→client state object: the complete terminal.
//!
//! Paper §2: "From server to client, the objects represent the contents of
//! the terminal window." The server holds the authoritative emulator; its
//! diffs are *display* diffs ("only the minimal message that transforms
//! the client's frame to the current one"), plus two records that travel
//! outside the byte stream: window resizes and the **echo ack** — the
//! server-side 50 ms acknowledgment (§3.2) that tells the prediction
//! engine which keystrokes the current screen must already reflect.

use mosh_ssp::{StateError, SyncState};
use mosh_terminal::{display, Framebuffer, Terminal};
use mosh_wire::{put_bytes, put_varint, Reader};

/// Record tags inside a complete-terminal diff.
const REC_RESIZE: u64 = 1;
const REC_BYTES: u64 = 2;
const REC_ECHO_ACK: u64 = 3;

/// A terminal emulator plus the echo-ack register, synchronized over SSP.
///
/// Both ends of a session must construct identical initial states; use
/// [`CompleteTerminal::initial`] (80×24) unless negotiated otherwise.
///
/// # Examples
///
/// ```
/// use mosh_ssp::SyncState;
/// use mosh_states::complete::CompleteTerminal;
///
/// let mut server = CompleteTerminal::initial();
/// let snapshot = server.clone();
/// server.act(b"$ make\r\ncc -o prog main.c\r\n$ ");
/// server.set_echo_ack(3);
///
/// let mut client = snapshot.clone();
/// client.apply_diff(&server.diff_from(&snapshot)).unwrap();
/// assert!(client.equivalent(&server));
/// assert_eq!(client.echo_ack(), 3);
/// ```
#[derive(Debug)]
pub struct CompleteTerminal {
    terminal: Terminal,
    echo_ack: u64,
    /// Reusable buffer for the display differ, so the per-tick diff path
    /// allocates nothing once warmed up. Interior mutability because
    /// [`SyncState::diff_from`] takes `&self`; never part of the state.
    scratch: std::cell::RefCell<String>,
}

impl Clone for CompleteTerminal {
    fn clone(&self) -> Self {
        CompleteTerminal {
            terminal: self.terminal.clone(),
            echo_ack: self.echo_ack,
            // Scratch capacity stays with the original (the live sender);
            // clones are snapshots that rarely diff.
            scratch: std::cell::RefCell::new(String::new()),
        }
    }
}

impl CompleteTerminal {
    /// The conventional 80×24 initial state shared by both endpoints.
    pub fn initial() -> Self {
        CompleteTerminal::new(80, 24)
    }

    /// A blank terminal of the given size.
    pub fn new(width: usize, height: usize) -> Self {
        CompleteTerminal {
            terminal: Terminal::new(width, height),
            echo_ack: 0,
            scratch: std::cell::RefCell::new(String::new()),
        }
    }

    /// Applies host (application) output bytes to the emulator.
    pub fn act(&mut self, bytes: &[u8]) {
        self.terminal.write(bytes);
    }

    /// Resizes the terminal (driven by client resize events).
    pub fn resize(&mut self, width: usize, height: usize) {
        self.terminal.resize(width, height);
    }

    /// The current screen.
    pub fn frame(&self) -> &Framebuffer {
        self.terminal.frame()
    }

    /// Drains any device reports the emulator owes the application.
    pub fn take_answerback(&mut self) -> Vec<u8> {
        self.terminal.take_answerback()
    }

    /// The index of the newest keystroke whose effects must be reflected
    /// in this screen state (presented to the application ≥ 50 ms ago).
    pub fn echo_ack(&self) -> u64 {
        self.echo_ack
    }

    /// Advances the echo ack (monotonic).
    pub fn set_echo_ack(&mut self, ack: u64) {
        debug_assert!(ack >= self.echo_ack, "echo ack must be monotonic");
        self.echo_ack = ack;
    }
}

impl SyncState for CompleteTerminal {
    fn diff_from(&self, source: &Self) -> Vec<u8> {
        let mut out = Vec::new();
        let src = source.frame();
        let dst = self.frame();
        if src.width() != dst.width() || src.height() != dst.height() {
            put_varint(&mut out, REC_RESIZE);
            put_varint(&mut out, dst.width() as u64);
            put_varint(&mut out, dst.height() as u64);
        }
        // Diff into the reusable scratch buffer: the differ plus a warmed
        // buffer make the common per-tick diff allocation-free.
        let mut buf = self.scratch.take();
        display::new_frame_into(true, src, dst, &mut buf);
        if !buf.is_empty() {
            put_varint(&mut out, REC_BYTES);
            put_bytes(&mut out, buf.as_bytes());
        }
        self.scratch.replace(buf);
        if self.echo_ack != source.echo_ack {
            put_varint(&mut out, REC_ECHO_ACK);
            put_varint(&mut out, self.echo_ack);
        }
        out
    }

    fn full_diff(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let dst = self.frame();
        // Unconditional resize: the receiver's dimensions are unknown.
        put_varint(&mut out, REC_RESIZE);
        put_varint(&mut out, dst.width() as u64);
        put_varint(&mut out, dst.height() as u64);
        // `initialized = false` forces a clear-and-repaint that lands on
        // the same screen no matter what the receiver currently shows.
        let bytes = display::new_frame(false, dst, dst);
        if !bytes.is_empty() {
            put_varint(&mut out, REC_BYTES);
            put_bytes(&mut out, bytes.as_bytes());
        }
        // Unconditional echo ack; `apply_diff` takes the max, so a
        // receiver that is already ahead keeps its value.
        put_varint(&mut out, REC_ECHO_ACK);
        put_varint(&mut out, self.echo_ack);
        out
    }

    fn apply_diff(&mut self, diff: &[u8]) -> Result<(), StateError> {
        let mut r = Reader::new(diff);
        while r.remaining() > 0 {
            match r.varint().ok_or(StateError::Malformed)? {
                REC_RESIZE => {
                    let w = r.varint().ok_or(StateError::Malformed)? as usize;
                    let h = r.varint().ok_or(StateError::Malformed)? as usize;
                    let max = usize::from(mosh_terminal::MAX_DIMENSION);
                    if w == 0 || h == 0 || w > max || h > max {
                        return Err(StateError::Malformed);
                    }
                    self.terminal.resize(w, h);
                }
                REC_BYTES => {
                    let bytes = r.bytes().ok_or(StateError::Malformed)?;
                    self.terminal.write(bytes);
                }
                REC_ECHO_ACK => {
                    let ack = r.varint().ok_or(StateError::Malformed)?;
                    self.echo_ack = self.echo_ack.max(ack);
                }
                _ => return Err(StateError::Malformed),
            }
        }
        Ok(())
    }

    /// The emulator internals included: parser mid-escape state, pen,
    /// scroll regions — everything needed so that future output behaves
    /// identically after a restore.
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_bytes(out, &self.terminal.snapshot_bytes());
        put_varint(out, self.echo_ack);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let terminal = Terminal::from_snapshot_bytes(r.bytes()?)?;
        let echo_ack = r.varint()?;
        Some(CompleteTerminal {
            terminal,
            echo_ack,
            scratch: std::cell::RefCell::new(String::new()),
        })
    }

    fn equivalent(&self, other: &Self) -> bool {
        self.echo_ack == other.echo_ack && self.frame() == other.frame()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_law_for_text() {
        let base = CompleteTerminal::initial();
        let mut server = base.clone();
        server.act(b"hello\r\nworld\x1b[1;31m!\x1b[0m");
        let mut client = base.clone();
        client.apply_diff(&server.diff_from(&base)).unwrap();
        assert!(client.equivalent(&server));
    }

    #[test]
    fn skipping_intermediate_states_converges() {
        let base = CompleteTerminal::initial();
        let mut server = base.clone();
        // Three bursts of output; the client sees only the final state.
        server.act(b"frame one\r\n");
        server.act(b"\x1b[2Jframe two");
        server.act(b"\x1b[Hfinal frame\x1b[K");
        let mut client = base.clone();
        client.apply_diff(&server.diff_from(&base)).unwrap();
        assert!(client.equivalent(&server));
    }

    #[test]
    fn chained_diffs_converge() {
        let mut server = CompleteTerminal::initial();
        let mut client = CompleteTerminal::initial();
        for chunk in [
            b"$ ls\r\n".as_slice(),
            b"file1 file2\r\n$ ",
            b"vim file1\r\n\x1b[?1049h\x1b[2J\x1b[Htext",
            b"\x1b[?1049l$ ",
        ] {
            let before = server.clone();
            server.act(chunk);
            client.apply_diff(&server.diff_from(&before)).unwrap();
            assert!(client.equivalent(&server));
        }
    }

    #[test]
    fn echo_ack_travels() {
        let base = CompleteTerminal::initial();
        let mut server = base.clone();
        server.set_echo_ack(41);
        let mut client = base.clone();
        client.apply_diff(&server.diff_from(&base)).unwrap();
        assert_eq!(client.echo_ack(), 41);
        assert!(client.equivalent(&server));
    }

    #[test]
    fn echo_ack_never_regresses_on_reordered_diffs() {
        let base = CompleteTerminal::initial();
        let mut s1 = base.clone();
        s1.set_echo_ack(10);
        let mut s2 = base.clone();
        s2.set_echo_ack(20);
        let mut client = base.clone();
        client.apply_diff(&s2.diff_from(&base)).unwrap();
        client.apply_diff(&s1.diff_from(&base)).unwrap();
        assert_eq!(client.echo_ack(), 20);
    }

    #[test]
    fn resize_crosses_the_wire() {
        let base = CompleteTerminal::initial();
        let mut server = base.clone();
        server.resize(120, 40);
        server.act(b"wide screen");
        let mut client = base.clone();
        client.apply_diff(&server.diff_from(&base)).unwrap();
        assert_eq!(client.frame().width(), 120);
        assert!(client.equivalent(&server));
    }

    #[test]
    fn equivalent_ignores_interpreter_internals() {
        let mut a = CompleteTerminal::initial();
        let mut b = CompleteTerminal::initial();
        a.act(b"\x1b[31m"); // Pen change only: nothing visible.
        assert!(a.equivalent(&b));
        b.act(b"\x1b[2;10r"); // Scroll region only.
        assert!(a.equivalent(&b));
    }

    #[test]
    fn empty_diff_for_equivalent_states() {
        let mut a = CompleteTerminal::initial();
        a.act(b"text");
        let b = a.clone();
        assert!(a.diff_from(&b).is_empty());
    }

    #[test]
    fn malformed_diffs_are_rejected() {
        let mut t = CompleteTerminal::initial();
        assert!(t.apply_diff(&[9]).is_err());
        assert!(t.apply_diff(&[REC_RESIZE as u8, 0, 0]).is_err());
    }

    #[test]
    fn full_diff_lands_from_any_receiver_state() {
        let mut server = CompleteTerminal::initial();
        server.act(b"$ tail -f log\r\nline one\x1b[7mline two\x1b[0m");
        server.set_echo_ack(9);

        // Receivers in wildly different states all converge on one
        // self-contained diff — this is what crash recovery relies on.
        let mut fresh = CompleteTerminal::initial();
        let mut resized = CompleteTerminal::new(132, 50);
        resized.act(b"unrelated content\r\nmore");
        let mut ahead = CompleteTerminal::initial();
        ahead.act(b"\x1b[2;10r\x1b[31mscrolled elsewhere");
        ahead.set_echo_ack(4);

        let full = server.full_diff();
        for client in [&mut fresh, &mut resized, &mut ahead] {
            client.apply_diff(&full).unwrap();
            assert_eq!(client.frame(), server.frame());
            assert_eq!(client.echo_ack(), 9);
        }
    }

    #[test]
    fn full_diff_keeps_higher_receiver_echo_ack() {
        let server = CompleteTerminal::initial();
        let mut client = CompleteTerminal::initial();
        client.set_echo_ack(50);
        client.apply_diff(&server.full_diff()).unwrap();
        assert_eq!(client.echo_ack(), 50);
    }

    #[test]
    fn snapshot_round_trips_emulator_internals() {
        let mut t = CompleteTerminal::new(100, 30);
        // Leave the parser mid-escape and the pen non-default.
        t.act(b"\x1b[2;20r\x1b[1;33mstyled\x1b[");
        t.set_echo_ack(7);
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        let mut r = Reader::new(&buf);
        let mut back = CompleteTerminal::decode(&mut r).expect("valid snapshot");
        assert_eq!(r.remaining(), 0);
        assert_eq!(back.echo_ack(), 7);
        // Finishing the escape behaves identically on both.
        t.act(b"5;40H*");
        back.act(b"5;40H*");
        assert_eq!(t.frame(), back.frame());
    }

    #[test]
    fn snapshot_decode_rejects_garbage() {
        let mut t = CompleteTerminal::initial();
        t.act(b"content");
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        let cut = buf.len() / 2;
        assert!(CompleteTerminal::decode(&mut Reader::new(&buf[..cut])).is_none());
        buf[4] ^= 0x80;
        assert!(CompleteTerminal::decode(&mut Reader::new(&buf)).is_none());
    }

    #[test]
    fn bell_crosses_the_wire() {
        let base = CompleteTerminal::initial();
        let mut server = base.clone();
        server.act(b"\x07");
        let mut client = base.clone();
        client.apply_diff(&server.diff_from(&base)).unwrap();
        assert_eq!(client.frame().bell_count(), 1);
        assert!(client.equivalent(&server));
    }
}
