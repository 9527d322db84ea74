//! The workload application: a session that switches between app classes.
//!
//! Real sessions run one program after another inside the same terminal.
//! [`WorkloadApp`] hosts a sequence of applications and advances to the
//! next when it sees the switch byte (Ctrl-], which none of the modelled
//! programs use), so a whole multi-program trace replays through a single
//! Mosh or SSH session.

use mosh_core::apps::{Application, Editor, LineShell, MailReader, Pager, TimedWrite};
use mosh_core::Millis;
use mosh_wire::{put_bytes, put_varint, Reader};

/// The control byte that advances to the next application in the workload.
pub const SWITCH_BYTE: u8 = 0x1d;

/// Which application class a segment runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// Canonical-mode shell (bash/zsh class).
    Shell,
    /// Raw-mode full-screen editor (emacs/vim class).
    Editor,
    /// Full-screen pager (`less`, text-mode browsing).
    Pager,
    /// Mail index (alpine/mutt class).
    Mail,
}

impl AppKind {
    /// Instantiates a fresh application of this class.
    pub fn build(self) -> Box<dyn Application> {
        match self {
            AppKind::Shell => Box::new(LineShell::new()),
            AppKind::Editor => Box::new(Editor::new()),
            AppKind::Pager => Box::new(Pager::new(400)),
            AppKind::Mail => Box::new(MailReader::new(18)),
        }
    }
}

/// A sequence of applications, switched by [`SWITCH_BYTE`].
pub struct WorkloadApp {
    kinds: Vec<AppKind>,
    active: usize,
    current: Box<dyn Application>,
}

impl WorkloadApp {
    /// Builds a workload running the given application classes in order.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty.
    pub fn new(kinds: Vec<AppKind>) -> Self {
        assert!(!kinds.is_empty(), "workload needs at least one app");
        let current = kinds[0].build();
        WorkloadApp {
            kinds,
            active: 0,
            current,
        }
    }
}

impl Application for WorkloadApp {
    fn start(&mut self, now: Millis) -> Vec<TimedWrite> {
        self.current.start(now)
    }

    fn on_input(&mut self, now: Millis, bytes: &[u8]) -> Vec<TimedWrite> {
        let mut out = Vec::new();
        for &b in bytes {
            if b == SWITCH_BYTE {
                if self.active + 1 < self.kinds.len() {
                    self.active += 1;
                    self.current = self.kinds[self.active].build();
                    // Clean handoff: leave any alternate screen, clear.
                    out.push(TimedWrite {
                        at: now + 1,
                        bytes: b"\x1b[?1049l\x1b[0m\x1b[2J\x1b[H".to_vec(),
                    });
                    out.extend(self.current.start(now + 2));
                }
            } else {
                out.extend(self.current.on_input(now, &[b]));
            }
        }
        out
    }

    fn poll(&mut self, now: Millis) -> Vec<TimedWrite> {
        self.current.poll(now)
    }

    fn next_wakeup(&self, now: Millis) -> Option<Millis> {
        self.current.next_wakeup(now)
    }

    fn on_resize(&mut self, now: Millis, width: usize, height: usize) -> Vec<TimedWrite> {
        self.current.on_resize(now, width, height)
    }

    fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, self.active as u64);
        put_bytes(&mut out, &self.current.save_state());
        out
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        // Parse and validate everything before touching self: a rejected
        // snapshot leaves the workload exactly as it was.
        let mut r = Reader::new(bytes);
        let (Some(active), Some(inner), Some(())) = (r.varint(), r.bytes(), r.end()) else {
            return false;
        };
        let active = active as usize;
        if active >= self.kinds.len() {
            return false;
        }
        // The inner app's own kind tag rejects a snapshot whose segment
        // index names a different app class in this workload.
        let mut current = self.kinds[active].build();
        if !current.restore_state(inner) {
            return false;
        }
        self.active = active;
        self.current = current;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_byte_advances_apps() {
        let mut w = WorkloadApp::new(vec![AppKind::Shell, AppKind::Pager]);
        let start = w.start(0);
        assert!(!start.is_empty());
        // Shell echoes 'x'.
        assert!(!w.on_input(10, b"x").is_empty());
        // Switch to the pager: handoff output includes a clear + redraw.
        let out = w.on_input(20, &[SWITCH_BYTE]);
        let bytes: Vec<u8> = out.iter().flat_map(|t| t.bytes.clone()).collect();
        assert!(String::from_utf8_lossy(&bytes).contains("\x1b[2J"));
        // Pager responds to space.
        assert!(!w.on_input(30, b" ").is_empty());
    }

    #[test]
    fn switch_past_the_end_is_harmless() {
        let mut w = WorkloadApp::new(vec![AppKind::Shell]);
        w.start(0);
        assert!(w.on_input(5, &[SWITCH_BYTE]).is_empty());
        assert!(!w.on_input(10, b"a").is_empty());
    }

    #[test]
    fn workload_state_round_trips_mid_segment() {
        let mut w = WorkloadApp::new(vec![AppKind::Shell, AppKind::Pager, AppKind::Mail]);
        w.start(0);
        w.on_input(10, b"ab");
        w.on_input(20, &[SWITCH_BYTE]); // now in the pager
        w.on_input(30, b"  "); // paged down twice
        let saved = w.save_state();

        let mut twin = WorkloadApp::new(vec![AppKind::Shell, AppKind::Pager, AppKind::Mail]);
        twin.start(0);
        assert!(twin.restore_state(&saved), "snapshot restores");
        // Same segment, same inner state: identical next output.
        let a: Vec<_> = w.on_input(40, b" ").into_iter().map(|t| t.bytes).collect();
        let b: Vec<_> = twin
            .on_input(40, b" ")
            .into_iter()
            .map(|t| t.bytes)
            .collect();
        assert_eq!(a, b);

        // A workload with a different app plan rejects the snapshot
        // whole (the inner kind tag catches the mismatch) and keeps
        // serving its own state.
        let mut other = WorkloadApp::new(vec![AppKind::Shell, AppKind::Editor]);
        other.start(0);
        other.on_input(5, b"z");
        assert!(!other.restore_state(&saved));
        assert!(!other.on_input(6, b"z").is_empty(), "still the shell");
        // Truncations are rejected too, never half-applied.
        for cut in 0..saved.len() {
            assert!(!twin.restore_state(&saved[..cut]), "cut at {cut}");
        }
    }

    #[test]
    fn multi_byte_input_crossing_switch() {
        let mut w = WorkloadApp::new(vec![AppKind::Shell, AppKind::Shell]);
        w.start(0);
        // 'a' to app 0, switch, 'b' to app 1 — all in one input chunk.
        let out = w.on_input(10, &[b'a', SWITCH_BYTE, b'b']);
        assert!(out.len() >= 3);
    }
}
