//! Host applications the Mosh server runs.
//!
//! The paper's traces cover "the bash and zsh shells, the alpine and mutt
//! e-mail clients, the emacs and vim text editors, … chat clients, \[and\] the
//! links text-mode Web browser" (§4). This module provides faithful models
//! of those application *classes*, distinguished by their echo behaviour —
//! which is all the prediction engine can observe (§3.2):
//!
//! * [`LineShell`] — canonical-mode echo with line editing, command output
//!   bursts, `passwd`-style echo suppression, and a runaway `yes` flood for
//!   the Control-C experiment.
//! * [`Editor`] — a raw-mode full-screen editor that does its own echoing
//!   (the emacs/vim class, including the multi-mode behaviour of vi).
//! * [`Pager`] — full-screen page-at-a-time navigation (`less`/`more`).
//! * [`MailReader`] — navigation-heavy list browsing (alpine/mutt): the
//!   keystrokes Mosh fundamentally cannot predict.
//!
//! Applications are deterministic and time-explicit: input produces writes
//! scheduled at absolute times, so the same session replays identically.

use crate::Millis;
use mosh_wire::{put_bool, put_bytes, put_varint, Reader};
use std::collections::VecDeque;

/// Application-kind tags leading every [`Application::save_state`] body,
/// so restoring onto the wrong kind of app is caught instead of silently
/// mixing states.
mod kind_tag {
    pub const LINE_SHELL: u64 = 1;
    pub const EDITOR: u64 = 2;
    pub const PAGER: u64 = 3;
    pub const MAIL_READER: u64 = 4;
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// The longest echo delay, in milliseconds, a restored application takes.
/// The applications here echo after 2–4 ms; a snapshot that claims more
/// is refused, so no due time `now + echo_delay` can overflow.
const MAX_ECHO_DELAY: Millis = 60_000;

/// Reads an echo delay, refusing one above [`MAX_ECHO_DELAY`].
fn get_echo_delay(r: &mut Reader<'_>) -> Option<Millis> {
    r.varint().filter(|&delay| delay <= MAX_ECHO_DELAY)
}

/// Replaces `app` with what `decode` reads from `bytes` after the kind
/// `tag`, when that consumes every byte; otherwise leaves `app` untouched
/// and returns `false`.
fn restore<A>(
    app: &mut A,
    bytes: &[u8],
    tag: u64,
    decode: impl FnOnce(&mut Reader<'_>, &A) -> Option<A>,
) -> bool {
    let mut r = Reader::new(bytes);
    let restored = (|| {
        (r.varint()? == tag).then_some(())?;
        let new = decode(&mut r, app)?;
        r.end()?;
        Some(new)
    })();
    restored.map(|new| *app = new).is_some()
}

/// One chunk of application output, due at an absolute time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedWrite {
    /// Virtual time at which the host writes these bytes to the terminal.
    pub at: Millis,
    /// The bytes written.
    pub bytes: Vec<u8>,
}

/// A program running under the Mosh server's terminal.
pub trait Application: Send {
    /// Output produced when the session starts (screen setup).
    fn start(&mut self, _now: Millis) -> Vec<TimedWrite> {
        Vec::new()
    }

    /// Handles user input (or a terminal reply), emitting scheduled writes.
    fn on_input(&mut self, now: Millis, bytes: &[u8]) -> Vec<TimedWrite>;

    /// Spontaneous output (flood/background apps); called regularly.
    fn poll(&mut self, _now: Millis) -> Vec<TimedWrite> {
        Vec::new()
    }

    /// The earliest time [`Application::poll`] could produce output.
    /// Event-driven drivers step straight to this time instead of polling
    /// on a coarse floor, so this is a *liveness contract*: `Some(t)`
    /// promises no output becomes due before `t`, and `None` (the
    /// default) promises [`Application::poll`] produces **nothing** until
    /// an [`Application::on_input`] / [`Application::on_resize`] /
    /// [`Application::start`] call re-arms the schedule. An application
    /// with genuinely unpredictable spontaneous output must return a
    /// concrete polling time, not `None`.
    fn next_wakeup(&self, _now: Millis) -> Option<Millis> {
        None
    }

    /// The window changed size.
    fn on_resize(&mut self, _now: Millis, _width: usize, _height: usize) -> Vec<TimedWrite> {
        Vec::new()
    }

    /// Serializes the application's *dynamic* state for session
    /// snapshots. Construction-time configuration (content size, echo
    /// delay overrides) is the caller's to rebuild when resurrecting a
    /// session; this covers only what user input has changed since. The
    /// default empty body pairs with the default [`Application::restore_state`]
    /// for stateless applications.
    fn save_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Applies state produced by [`Application::save_state`] onto a
    /// freshly constructed twin. Returns `false` when the bytes are not
    /// recognized (corrupt snapshot or mismatched application kind); the
    /// application is left unchanged in that case — never half-applied.
    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        bytes.is_empty()
    }
}

/// An application as a server hosts it: started on the first
/// [`AppHost::due`], its writes queued by due time and handed out once
/// due. The Mosh server and the SSH baseline both host through one, so
/// the two systems replay the same output on the same schedule.
pub struct AppHost {
    pub(crate) app: Box<dyn Application>,
    /// Writes not yet due, sorted by `at`, ties in scheduling order.
    pub(crate) queue: VecDeque<TimedWrite>,
    pub(crate) started: bool,
}

impl AppHost {
    /// Hosts `app`, not yet started.
    pub fn new(app: Box<dyn Application>) -> Self {
        AppHost {
            app,
            queue: VecDeque::new(),
            started: false,
        }
    }

    /// Hands user input (or a terminal reply) to the application.
    pub fn input(&mut self, now: Millis, bytes: &[u8]) {
        let writes = self.app.on_input(now, bytes);
        self.schedule(writes);
    }

    /// Tells the application its window changed size.
    pub fn resize(&mut self, now: Millis, width: usize, height: usize) {
        let writes = self.app.on_resize(now, width, height);
        self.schedule(writes);
    }

    /// Starts the application on the first call, polls it, then yields
    /// every write due by `now`, in order.
    pub fn due(&mut self, now: Millis) -> impl Iterator<Item = TimedWrite> + '_ {
        if !self.started {
            self.started = true;
            let writes = self.app.start(now);
            self.schedule(writes);
        }
        let polled = self.app.poll(now);
        self.schedule(polled);
        let due = self.queue.partition_point(|w| w.at <= now);
        self.queue.drain(..due)
    }

    /// When [`AppHost::due`] next has work: `now` before the start, then
    /// the earlier of the application's wakeup and the next queued write.
    pub fn next_wakeup(&self, now: Millis) -> Option<Millis> {
        if !self.started {
            return Some(now);
        }
        let write = self.queue.front().map(|w| w.at);
        self.app.next_wakeup(now).into_iter().chain(write).min()
    }

    /// Queues writes by due time, stable for equal times. The queue is
    /// sorted (only this adds to it, and a restored server refuses an
    /// unsorted one), so each slot is a binary search and a command's
    /// in-order burst appends without shifting anything.
    fn schedule(&mut self, writes: Vec<TimedWrite>) {
        for w in writes {
            let pos = self.queue.partition_point(|p| p.at <= w.at);
            self.queue.insert(pos, w);
        }
    }
}

// ---------------------------------------------------------------------
// LineShell
// ---------------------------------------------------------------------

/// A canonical-mode shell: echoes keystrokes, edits a line, runs commands.
///
/// Built-in commands: `echo <text>`, `ls`, `cat <n>` (n lines of output),
/// `seq <n>`, `clear`, `passwd` (suppresses echo until ENTER, the paper's
/// §3.2 example), `yes` (floods output until Control-C), and anything else
/// prints `command not found`.
#[derive(Debug)]
pub struct LineShell {
    line: String,
    echo_on: bool,
    prompt: &'static str,
    /// Milliseconds between input arrival and its echo (application think
    /// time; the paper's servers took "tens of milliseconds" when loaded).
    echo_delay: Millis,
    /// An active `yes` flood: output until interrupted.
    flooding: bool,
    next_flood_at: Millis,
    flood_line: u64,
    /// `passwd` captured input awaiting ENTER.
    passwd_pending: bool,
}

impl Default for LineShell {
    fn default() -> Self {
        Self::new()
    }
}

impl LineShell {
    /// A shell with a 2 ms echo delay.
    pub fn new() -> Self {
        LineShell {
            line: String::new(),
            echo_on: true,
            prompt: "$ ",
            echo_delay: 2,
            flooding: false,
            next_flood_at: 0,
            flood_line: 0,
            passwd_pending: false,
        }
    }

    fn run_command(&mut self, now: Millis, out: &mut Vec<TimedWrite>) {
        let cmd = std::mem::take(&mut self.line);
        let mut emit = |at: Millis, s: String| {
            out.push(TimedWrite {
                at,
                bytes: s.into_bytes(),
            })
        };
        let t = now + self.echo_delay;
        if self.passwd_pending {
            self.passwd_pending = false;
            self.echo_on = true;
            emit(
                t + 30,
                "\r\npasswd: password updated successfully\r\n".into(),
            );
            emit(t + 31, self.prompt.into());
            return;
        }
        let mut parts = cmd.split_whitespace();
        match parts.next() {
            None => emit(t, format!("\r\n{}", self.prompt)),
            Some("echo") => {
                let rest: Vec<&str> = parts.collect();
                emit(t, format!("\r\n{}\r\n{}", rest.join(" "), self.prompt));
            }
            Some("ls") => {
                emit(
                    t + 4,
                    format!(
                        "\r\nMakefile   README.md  docs/      src/\r\nbuild.rs   config.),  target/    tests/\r\n{}",
                        self.prompt
                    ),
                );
            }
            Some("cat") => {
                let n: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(10);
                emit(t, "\r\n".into());
                for i in 0..n {
                    // Bursty output: a few lines per millisecond.
                    emit(
                        t + 1 + i / 4,
                        format!("file line {i}: the quick brown fox jumps over the lazy dog\r\n"),
                    );
                }
                emit(t + 2 + n / 4, self.prompt.into());
            }
            Some("seq") => {
                let n: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(10);
                emit(t, "\r\n".into());
                for i in 1..=n {
                    emit(t + 1 + i / 8, format!("{i}\r\n"));
                }
                emit(t + 2 + n / 8, self.prompt.into());
            }
            Some("clear") => emit(t, format!("\r\n\x1b[2J\x1b[H{}", self.prompt)),
            Some("passwd") => {
                self.passwd_pending = true;
                self.echo_on = false;
                emit(t, "\r\nNew password: ".into());
            }
            Some("yes") => {
                self.flooding = true;
                self.flood_line = 0;
                self.next_flood_at = t;
                emit(t, "\r\n".into());
            }
            Some(other) => {
                emit(
                    t + 2,
                    format!("\r\n{}: command not found\r\n{}", other, self.prompt),
                );
            }
        }
    }
}

impl Application for LineShell {
    fn start(&mut self, now: Millis) -> Vec<TimedWrite> {
        vec![TimedWrite {
            at: now,
            bytes: self.prompt.as_bytes().to_vec(),
        }]
    }

    fn on_input(&mut self, now: Millis, bytes: &[u8]) -> Vec<TimedWrite> {
        let mut out = Vec::new();
        for &b in bytes {
            match b {
                0x03 => {
                    // Control-C: interrupt whatever is running.
                    self.flooding = false;
                    self.passwd_pending = false;
                    self.echo_on = true;
                    self.line.clear();
                    out.push(TimedWrite {
                        at: now + self.echo_delay,
                        bytes: format!("^C\r\n{}", self.prompt).into_bytes(),
                    });
                }
                0x0d => self.run_command(now, &mut out),
                0x7f | 0x08 if !self.line.is_empty() => {
                    self.line.pop();
                    if self.echo_on {
                        out.push(TimedWrite {
                            at: now + self.echo_delay,
                            bytes: b"\x08 \x08".to_vec(),
                        });
                    }
                }
                0x20..=0x7e => {
                    self.line.push(b as char);
                    if self.echo_on {
                        out.push(TimedWrite {
                            at: now + self.echo_delay,
                            bytes: vec![b],
                        });
                    }
                }
                _ => {}
            }
        }
        out
    }

    fn poll(&mut self, now: Millis) -> Vec<TimedWrite> {
        let mut out = Vec::new();
        // A runaway process writes far faster than any link can carry.
        while self.flooding && self.next_flood_at <= now {
            // 20 lines of 1..=40 `y`s, each ending "\r\n".
            let mut bytes = Vec::with_capacity(20 * 42);
            for _ in 0..20 {
                let ys = 1 + (self.flood_line % 40) as usize;
                bytes.resize(bytes.len() + ys, b'y');
                bytes.extend_from_slice(b"\r\n");
                // Only `flood_line % 40` is read, and a restored count can
                // sit anywhere: wrap rather than overflow.
                self.flood_line = self.flood_line.wrapping_add(1);
            }
            out.push(TimedWrite {
                at: self.next_flood_at,
                bytes,
            });
            self.next_flood_at += 1;
        }
        out
    }

    fn next_wakeup(&self, _now: Millis) -> Option<Millis> {
        // A running flood writes another chunk every millisecond; the
        // event-driven server must poll at exactly that cadence to match
        // the 1 ms reference loop.
        self.flooding.then_some(self.next_flood_at)
    }

    fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, kind_tag::LINE_SHELL);
        put_string(&mut out, &self.line);
        put_bool(&mut out, self.echo_on);
        put_varint(&mut out, self.echo_delay);
        put_bool(&mut out, self.flooding);
        put_varint(&mut out, self.next_flood_at);
        put_varint(&mut out, self.flood_line);
        put_bool(&mut out, self.passwd_pending);
        out
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        restore(self, bytes, kind_tag::LINE_SHELL, |r, old| {
            Some(LineShell {
                line: r.string()?,
                echo_on: r.bool()?,
                prompt: old.prompt,
                echo_delay: get_echo_delay(r)?,
                flooding: r.bool()?,
                next_flood_at: r.varint()?,
                flood_line: r.varint()?,
                passwd_pending: r.bool()?,
            })
        })
    }
}

// ---------------------------------------------------------------------
// Editor
// ---------------------------------------------------------------------

/// A raw-mode full-screen editor (the emacs/vim class): it echoes typed
/// characters itself, repaints a status line, and navigation moves the
/// cursor without printing anything predictable.
#[derive(Debug)]
pub struct Editor {
    lines: Vec<String>,
    row: usize,
    col: usize,
    width: usize,
    height: usize,
    echo_delay: Millis,
    /// vi-style: false means keystrokes are commands, not text.
    insert_mode: bool,
    started: bool,
}

impl Editor {
    /// An editor on an 80×24 screen with a few lines of existing text.
    pub fn new() -> Self {
        Editor {
            lines: vec![
                "fn main() {".to_string(),
                "    println!(\"hello\");".to_string(),
                "}".to_string(),
            ],
            row: 0,
            col: 0,
            width: 80,
            height: 24,
            echo_delay: 3,
            insert_mode: true,
            started: false,
        }
    }

    fn status_row(&self) -> usize {
        self.height - 1
    }

    fn full_redraw(&self, at: Millis) -> TimedWrite {
        let mut s = String::from("\x1b[?1049h\x1b[2J\x1b[H");
        for (i, line) in self.lines.iter().take(self.height - 1).enumerate() {
            s.push_str(&format!(
                "\x1b[{};1H{}",
                i + 1,
                &line[..line.len().min(self.width)]
            ));
        }
        s.push_str(&self.status_line());
        s.push_str(&self.cursor_goto());
        TimedWrite {
            at,
            bytes: s.into_bytes(),
        }
    }

    fn status_line(&self) -> String {
        format!(
            "\x1b[{};1H\x1b[7m-- {} -- {}:{}\x1b[K\x1b[0m",
            self.status_row() + 1,
            if self.insert_mode { "INSERT" } else { "NORMAL" },
            self.row + 1,
            self.col + 1
        )
    }

    fn cursor_goto(&self) -> String {
        format!("\x1b[{};{}H", self.row + 1, self.col + 1)
    }
}

impl Default for Editor {
    fn default() -> Self {
        Self::new()
    }
}

impl Application for Editor {
    fn start(&mut self, now: Millis) -> Vec<TimedWrite> {
        self.started = true;
        vec![self.full_redraw(now)]
    }

    fn on_input(&mut self, now: Millis, bytes: &[u8]) -> Vec<TimedWrite> {
        let at = now + self.echo_delay;
        let emit = |s: String| {
            vec![TimedWrite {
                at,
                bytes: s.into_bytes(),
            }]
        };
        match bytes {
            b"\x1b[A" => {
                self.row = self.row.saturating_sub(1);
                self.col = self
                    .col
                    .min(self.lines.get(self.row).map_or(0, |l| l.len()));
                emit(format!("{}{}", self.status_line(), self.cursor_goto()))
            }
            b"\x1b[B" => {
                self.row = (self.row + 1).min(self.lines.len().saturating_sub(1));
                self.col = self
                    .col
                    .min(self.lines.get(self.row).map_or(0, |l| l.len()));
                emit(format!("{}{}", self.status_line(), self.cursor_goto()))
            }
            b"\x1b[C" => {
                self.col = (self.col + 1).min(self.lines.get(self.row).map_or(0, |l| l.len()));
                emit(format!("{}{}", self.status_line(), self.cursor_goto()))
            }
            b"\x1b[D" => {
                self.col = self.col.saturating_sub(1);
                emit(format!("{}{}", self.status_line(), self.cursor_goto()))
            }
            b"\x1b" => {
                // vi mode switch: the multi-mode behaviour of §3.2.
                self.insert_mode = false;
                emit(format!("{}{}", self.status_line(), self.cursor_goto()))
            }
            [b'i'] if !self.insert_mode => {
                self.insert_mode = true;
                emit(format!("{}{}", self.status_line(), self.cursor_goto()))
            }
            b"\r" => {
                if self.insert_mode {
                    let rest = self.lines[self.row].split_off(self.col);
                    self.lines.insert(self.row + 1, rest);
                    self.row += 1;
                    self.col = 0;
                    // Repaint from the split row down.
                    let mut s = String::new();
                    for r in self.row.saturating_sub(1)..self.lines.len().min(self.height - 1) {
                        s.push_str(&format!("\x1b[{};1H\x1b[K{}", r + 1, self.lines[r]));
                    }
                    s.push_str(&self.status_line());
                    s.push_str(&self.cursor_goto());
                    emit(s)
                } else {
                    Vec::new()
                }
            }
            [0x7f] | [0x08] => {
                if self.insert_mode && self.col > 0 {
                    self.col -= 1;
                    self.lines[self.row].remove(self.col);
                    let tail: String = self.lines[self.row][self.col..].to_string();
                    emit(format!(
                        "{}{tail}\x1b[K{}{}",
                        self.cursor_goto(),
                        self.status_line(),
                        self.cursor_goto()
                    ))
                } else {
                    Vec::new()
                }
            }
            // Printable ASCII only, as in `LineShell`: one byte is one
            // column, so `col` stays on a character boundary.
            [b @ 0x20..=0x7e] => {
                if self.insert_mode {
                    let ch = *b as char;
                    if self.col <= self.lines[self.row].len() {
                        self.lines[self.row].insert(self.col, ch);
                    }
                    self.col += 1;
                    let tail: String = self.lines[self.row][self.col - 1..].to_string();
                    // Echo: character plus shifted tail plus status update.
                    let mut s = format!("\x1b[{};{}H{tail}", self.row + 1, self.col);
                    s.push_str(&self.status_line());
                    s.push_str(&self.cursor_goto());
                    emit(s)
                } else if *b == b'q' {
                    // Quit from normal mode: leave the alternate screen.
                    emit("\x1b[?1049l".to_string())
                } else {
                    // Normal-mode commands we don't model: status flash.
                    emit(format!("{}{}", self.status_line(), self.cursor_goto()))
                }
            }
            _ => Vec::new(),
        }
    }

    fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, kind_tag::EDITOR);
        put_varint(&mut out, self.lines.len() as u64);
        for line in &self.lines {
            put_string(&mut out, line);
        }
        put_varint(&mut out, self.row as u64);
        put_varint(&mut out, self.col as u64);
        put_varint(&mut out, self.width as u64);
        put_varint(&mut out, self.height as u64);
        put_varint(&mut out, self.echo_delay);
        put_bool(&mut out, self.insert_mode);
        put_bool(&mut out, self.started);
        out
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        restore(self, bytes, kind_tag::EDITOR, |r, _| {
            let n = r.varint()?;
            let editor = Editor {
                lines: (0..n).map(|_| r.string()).collect::<Option<_>>()?,
                row: r.varint()? as usize,
                col: r.varint()? as usize,
                width: r.varint()? as usize,
                height: r.varint()? as usize,
                echo_delay: get_echo_delay(r)?,
                insert_mode: r.bool()?,
                started: r.bool()?,
            };
            // Cursor invariants the editor relies on everywhere; ASCII
            // text keeps `col` and the redraw's width slice on character
            // boundaries.
            let line = editor.lines.get(editor.row)?;
            let valid = editor.col <= line.len()
                && editor.lines.iter().all(|l| l.is_ascii())
                && editor.width >= 1
                && editor.height >= 2;
            valid.then_some(editor)
        })
    }
}

// ---------------------------------------------------------------------
// Pager
// ---------------------------------------------------------------------

/// A `less`-style pager: space pages forward, `b` back, `q` quits. Every
/// navigation keystroke repaints the whole screen — unpredictable by
/// design.
#[derive(Debug)]
pub struct Pager {
    content: Vec<String>,
    top: usize,
    width: usize,
    height: usize,
    echo_delay: Millis,
}

impl Pager {
    /// A pager over `n` generated lines of text.
    pub fn new(n: usize) -> Self {
        Pager {
            content: (0..n)
                .map(|i| {
                    format!("{i:5}  Lorem ipsum dolor sit amet, consectetur adipiscing elit #{i}")
                })
                .collect(),
            top: 0,
            width: 80,
            height: 24,
            echo_delay: 3,
        }
    }

    fn redraw(&self, at: Millis) -> TimedWrite {
        let mut s = String::from("\x1b[2J\x1b[H");
        let body = self.height - 1;
        for (i, line) in self.content.iter().skip(self.top).take(body).enumerate() {
            s.push_str(&format!(
                "\x1b[{};1H{}",
                i + 1,
                &line[..line.len().min(self.width)]
            ));
        }
        s.push_str(&format!(
            "\x1b[{};1H\x1b[7m--More--({}%)\x1b[0m",
            self.height,
            ((self.top + body).min(self.content.len())) * 100 / self.content.len().max(1)
        ));
        TimedWrite {
            at,
            bytes: s.into_bytes(),
        }
    }
}

impl Application for Pager {
    fn start(&mut self, now: Millis) -> Vec<TimedWrite> {
        vec![
            TimedWrite {
                at: now,
                bytes: b"\x1b[?1049h".to_vec(),
            },
            self.redraw(now),
        ]
    }

    fn on_input(&mut self, now: Millis, bytes: &[u8]) -> Vec<TimedWrite> {
        let at = now + self.echo_delay;
        let body = self.height - 1;
        match bytes {
            b" " | b"f" | b"\x1b[6~" => {
                if self.top + body < self.content.len() {
                    self.top += body;
                }
                vec![self.redraw(at)]
            }
            b"b" | b"\x1b[5~" => {
                self.top = self.top.saturating_sub(body);
                vec![self.redraw(at)]
            }
            b"j" | b"\x1b[B" => {
                if self.top + body < self.content.len() {
                    self.top += 1;
                }
                vec![self.redraw(at)]
            }
            b"k" | b"\x1b[A" => {
                self.top = self.top.saturating_sub(1);
                vec![self.redraw(at)]
            }
            b"q" => vec![TimedWrite {
                at,
                bytes: b"\x1b[?1049l".to_vec(),
            }],
            _ => Vec::new(),
        }
    }

    fn save_state(&self) -> Vec<u8> {
        // Content is derived from the construction-time line count; only
        // the scroll position is dynamic.
        let mut out = Vec::new();
        put_varint(&mut out, kind_tag::PAGER);
        put_varint(&mut out, self.top as u64);
        out
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        restore(self, bytes, kind_tag::PAGER, |r, old| {
            let top = r.varint()? as usize;
            (top <= old.content.len()).then(|| Pager {
                top,
                ..Pager::new(old.content.len())
            })
        })
    }
}

// ---------------------------------------------------------------------
// MailReader
// ---------------------------------------------------------------------

/// An alpine/mutt-style mail index: `j`/`k`/`n` move a highlight bar,
/// ENTER opens a message, `i` returns to the index. The paper's example of
/// navigation "which cannot be predicted locally" (§3.2: "n" to move to
/// the next e-mail message).
#[derive(Debug)]
pub struct MailReader {
    subjects: Vec<String>,
    selected: usize,
    reading: bool,
    width: usize,
    height: usize,
    echo_delay: Millis,
}

impl MailReader {
    /// A mailbox with `n` messages.
    pub fn new(n: usize) -> Self {
        MailReader {
            subjects: (0..n)
                .map(|i| {
                    format!(
                        "  {} person{}@example.com   Re: meeting notes #{}",
                        i + 1,
                        i % 7,
                        i
                    )
                })
                .collect(),
            selected: 0,
            reading: false,
            width: 80,
            height: 24,
            echo_delay: 4,
        }
    }

    fn draw_index(&self, at: Millis) -> TimedWrite {
        let mut s = String::from("\x1b[2J\x1b[H\x1b[7m  MAILBOX  \x1b[0m\r\n");
        for (i, subj) in self.subjects.iter().take(self.height - 3).enumerate() {
            let subj = &subj[..subj.len().min(self.width)];
            if i == self.selected {
                s.push_str(&format!("\x1b[{};1H\x1b[7m{}\x1b[0m", i + 2, subj));
            } else {
                s.push_str(&format!("\x1b[{};1H{}", i + 2, subj));
            }
        }
        s.push_str(&format!("\x1b[{};1H? Help  q Quit  n Next", self.height));
        TimedWrite {
            at,
            bytes: s.into_bytes(),
        }
    }

    fn move_bar(&self, old: usize, at: Millis) -> TimedWrite {
        // Realistic mail clients repaint only the two affected rows.
        let mut s = String::new();
        s.push_str(&format!("\x1b[{};1H\x1b[K{}", old + 2, self.subjects[old]));
        s.push_str(&format!(
            "\x1b[{};1H\x1b[7m{}\x1b[0m",
            self.selected + 2,
            self.subjects[self.selected]
        ));
        TimedWrite {
            at,
            bytes: s.into_bytes(),
        }
    }

    fn draw_message(&self, at: Millis) -> TimedWrite {
        let mut s = String::from("\x1b[2J\x1b[H");
        s.push_str(&format!(
            "From: person@example.com\r\nSubject: {}\r\n\r\n",
            self.subjects[self.selected].trim()
        ));
        for p in 0..12 {
            s.push_str(&format!(
                "Body paragraph {p}: text text text text text.\r\n"
            ));
        }
        TimedWrite {
            at,
            bytes: s.into_bytes(),
        }
    }
}

impl Application for MailReader {
    fn start(&mut self, now: Millis) -> Vec<TimedWrite> {
        vec![
            TimedWrite {
                at: now,
                bytes: b"\x1b[?1049h".to_vec(),
            },
            self.draw_index(now),
        ]
    }

    fn on_input(&mut self, now: Millis, bytes: &[u8]) -> Vec<TimedWrite> {
        let at = now + self.echo_delay;
        let max = self.subjects.len().min(self.height - 3).saturating_sub(1);
        match bytes {
            b"j" | b"n" | b"\x1b[B" if !self.reading => {
                let old = self.selected;
                self.selected = (self.selected + 1).min(max);
                if old == self.selected {
                    Vec::new()
                } else {
                    vec![self.move_bar(old, at)]
                }
            }
            b"k" | b"p" | b"\x1b[A" if !self.reading => {
                let old = self.selected;
                self.selected = self.selected.saturating_sub(1);
                if old == self.selected {
                    Vec::new()
                } else {
                    vec![self.move_bar(old, at)]
                }
            }
            b"\r" if !self.reading => {
                self.reading = true;
                vec![self.draw_message(at)]
            }
            b"i" | b"q" if self.reading => {
                self.reading = false;
                vec![self.draw_index(at)]
            }
            b"q" => vec![TimedWrite {
                at,
                bytes: b"\x1b[?1049l".to_vec(),
            }],
            _ => Vec::new(),
        }
    }

    fn save_state(&self) -> Vec<u8> {
        // Subjects derive from the construction-time message count; the
        // highlight position and read/index mode are the dynamic state.
        let mut out = Vec::new();
        put_varint(&mut out, kind_tag::MAIL_READER);
        put_varint(&mut out, self.selected as u64);
        put_bool(&mut out, self.reading);
        out
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        restore(self, bytes, kind_tag::MAIL_READER, |r, old| {
            let selected = r.varint()? as usize;
            let reading = r.bool()?;
            (selected < old.subjects.len().max(1)).then(|| MailReader {
                selected,
                reading,
                ..MailReader::new(old.subjects.len())
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_bytes(writes: &[TimedWrite]) -> Vec<u8> {
        writes.iter().flat_map(|w| w.bytes.clone()).collect()
    }

    #[test]
    fn shell_echoes_printables() {
        let mut sh = LineShell::new();
        let w = sh.on_input(100, b"l");
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].bytes, b"l");
        assert_eq!(w[0].at, 102); // 2 ms echo delay
    }

    #[test]
    fn shell_runs_echo_command() {
        let mut sh = LineShell::new();
        sh.on_input(0, b"echo hi");
        let w = sh.on_input(10, b"\r");
        let out = String::from_utf8(all_bytes(&w)).unwrap();
        assert!(out.contains("hi"));
        assert!(out.contains("$ "));
    }

    #[test]
    fn shell_backspace_erases() {
        let mut sh = LineShell::new();
        sh.on_input(0, b"ab");
        let w = sh.on_input(5, b"\x7f");
        assert_eq!(w[0].bytes, b"\x08 \x08");
        // Line is now "a"; backspace on empty line echoes nothing.
        sh.on_input(6, b"\x7f");
        let w = sh.on_input(7, b"\x7f");
        assert!(w.is_empty());
    }

    #[test]
    fn passwd_suppresses_echo_until_enter() {
        let mut sh = LineShell::new();
        sh.on_input(0, b"passwd");
        sh.on_input(5, b"\r");
        // Typing the password produces no echo at all.
        let w = sh.on_input(50, b"secret");
        assert!(w.is_empty(), "passwd must not echo, got {w:?}");
        let w = sh.on_input(100, b"\r");
        let out = String::from_utf8(all_bytes(&w)).unwrap();
        assert!(out.contains("updated"));
    }

    #[test]
    fn yes_floods_until_interrupted() {
        let mut sh = LineShell::new();
        sh.on_input(0, b"yes");
        sh.on_input(1, b"\r");
        let flood = sh.poll(100);
        assert!(!flood.is_empty());
        assert!(all_bytes(&flood).len() > 1000, "flood must be heavy");
        sh.on_input(101, b"\x03");
        // After the interrupt, catch up the flood clock, then silence.
        sh.poll(101);
        let after = sh.poll(200);
        assert!(after.is_empty());
    }

    /// `poll` assembles a chunk in one buffer; this is the expression it
    /// replaced, one `format!` and one `repeat` per line, as the oracle
    /// for bytes, due times and the saved flood position.
    #[test]
    fn flood_chunks_match_the_per_line_format() {
        let mut sh = LineShell::new();
        sh.on_input(0, b"yes");
        sh.on_input(1, b"\r");
        let mut line = 0u64;
        let mut at = 1 + sh.echo_delay;
        // Polls at uneven times: some return nothing, some several chunks.
        for step in 0..200u64 {
            let now = step * 3 / 2;
            let mut expected = Vec::new();
            while at <= now {
                let mut chunk = String::new();
                for _ in 0..20 {
                    chunk.push_str(&format!("y{}\r\n", "y".repeat((line % 40) as usize)));
                    line += 1;
                }
                expected.push(TimedWrite {
                    at,
                    bytes: chunk.into_bytes(),
                });
                at += 1;
            }
            assert_eq!(sh.poll(now), expected, "poll({now})");
            let mut twin = LineShell::new();
            assert!(twin.restore_state(&sh.save_state()));
            assert_eq!((twin.flood_line, twin.next_flood_at), (line, at));
        }
        assert!(line >= 20 * 200, "the flood ran");
    }

    /// A snapshot is outside input. An echo delay near `u64::MAX` would
    /// overflow the next key's due time, so restoring one is refused and
    /// leaves the app as it was; a flood's line count near `u64::MAX`
    /// keeps counting without overflowing.
    #[test]
    fn restored_delays_and_counts_cannot_overflow() {
        let mut sh = LineShell::new();
        sh.echo_delay = u64::MAX;
        let mut twin = LineShell::new();
        assert!(!twin.restore_state(&sh.save_state()));
        assert_eq!(twin.on_input(100, b"l")[0].at, 102);

        let mut ed = Editor::new();
        ed.echo_delay = u64::MAX;
        let mut twin = Editor::new();
        assert!(!twin.restore_state(&ed.save_state()));
        twin.start(0);
        assert!(!twin.on_input(10, b"x").is_empty());

        let mut sh = LineShell::new();
        sh.on_input(0, b"yes\r");
        sh.flood_line = u64::MAX;
        let mut twin = LineShell::new();
        assert!(twin.restore_state(&sh.save_state()));
        assert!(!twin.poll(100).is_empty());
    }

    #[test]
    fn editor_echoes_in_insert_mode() {
        let mut ed = Editor::new();
        ed.start(0);
        let w = ed.on_input(10, b"x");
        let out = String::from_utf8(all_bytes(&w)).unwrap();
        assert!(out.contains('x'));
    }

    #[test]
    fn editor_normal_mode_does_not_insert() {
        let mut ed = Editor::new();
        ed.start(0);
        ed.on_input(10, b"\x1b"); // to normal mode
        let before = ed.lines.clone();
        ed.on_input(20, b"x");
        assert_eq!(ed.lines, before);
        ed.on_input(30, b"i"); // back to insert
        ed.on_input(40, b"y");
        assert_ne!(ed.lines, before);
    }

    #[test]
    fn editor_arrows_move_without_echoing_text() {
        let mut ed = Editor::new();
        ed.start(0);
        let w = ed.on_input(10, b"\x1b[B");
        let out = String::from_utf8(all_bytes(&w)).unwrap();
        // Status update + cursor motion only; no inserted characters.
        assert!(out.contains("\x1b["));
        assert_eq!(ed.row, 1);
    }

    #[test]
    fn pager_pages_through_content() {
        let mut pg = Pager::new(100);
        pg.start(0);
        assert_eq!(pg.top, 0);
        pg.on_input(10, b" ");
        assert_eq!(pg.top, 23);
        pg.on_input(20, b"b");
        assert_eq!(pg.top, 0);
    }

    #[test]
    fn pager_redraws_fully_on_navigation() {
        let mut pg = Pager::new(100);
        pg.start(0);
        let w = pg.on_input(10, b" ");
        let out = String::from_utf8(all_bytes(&w)).unwrap();
        assert!(out.contains("\x1b[2J"), "pager repaints the screen");
    }

    #[test]
    fn mail_reader_moves_highlight() {
        let mut m = MailReader::new(20);
        m.start(0);
        let w = m.on_input(10, b"n");
        assert_eq!(m.selected, 1);
        let out = String::from_utf8(all_bytes(&w)).unwrap();
        assert!(out.contains("\x1b[7m"), "bar is drawn in inverse");
        m.on_input(20, b"k");
        assert_eq!(m.selected, 0);
    }

    #[test]
    fn mail_reader_opens_and_closes_messages() {
        let mut m = MailReader::new(5);
        m.start(0);
        let w = m.on_input(10, b"\r");
        assert!(m.reading);
        let out = String::from_utf8(all_bytes(&w)).unwrap();
        assert!(out.contains("Body paragraph"));
        m.on_input(20, b"i");
        assert!(!m.reading);
    }

    #[test]
    fn editor_text_is_printable_ascii() {
        // A Latin-1 terminal sends one byte ≥ 0x80 for "é". Inserted as a
        // two-byte char, it left `col` inside it and the next insert
        // panicked.
        let mut ed = Editor::new();
        ed.start(0);
        assert!(ed.on_input(1, &[0xe9]).is_empty(), "not text: ignored");
        ed.on_input(2, b"x");
        assert_eq!(ed.lines[0], "xfn main() {");
        assert_eq!(ed.col, 1);

        // A snapshot holding a non-ASCII line is refused.
        let mut edited = Editor::new();
        edited.lines[0] = "é".into();
        assert!(!ed.restore_state(&edited.save_state()));
        assert_eq!(ed.lines[0], "xfn main() {");
    }

    #[test]
    fn app_state_round_trips_for_every_kind() {
        // Drive each app into a non-default state, save it, restore onto a
        // fresh twin, and check the twin behaves identically afterwards.
        let mut sh = LineShell::new();
        sh.on_input(0, b"passwd");
        sh.on_input(5, b"\r");
        sh.on_input(10, b"hunter2");
        let mut sh2 = LineShell::new();
        assert!(sh2.restore_state(&sh.save_state()));
        assert_eq!(
            sh.on_input(100, b"\r").len(),
            sh2.on_input(100, b"\r").len()
        );
        assert!(sh2.echo_on);

        let mut ed = Editor::new();
        ed.start(0);
        ed.on_input(10, b"z");
        ed.on_input(20, b"\x1b");
        let mut ed2 = Editor::new();
        assert!(ed2.restore_state(&ed.save_state()));
        assert_eq!(ed.lines, ed2.lines);
        assert_eq!(
            all_bytes(&ed.on_input(30, b"i")),
            all_bytes(&ed2.on_input(30, b"i"))
        );

        let mut pg = Pager::new(100);
        pg.start(0);
        pg.on_input(10, b" ");
        let mut pg2 = Pager::new(100);
        assert!(pg2.restore_state(&pg.save_state()));
        assert_eq!(pg2.top, 23);

        let mut m = MailReader::new(20);
        m.start(0);
        m.on_input(10, b"n");
        m.on_input(20, b"\r");
        let mut m2 = MailReader::new(20);
        assert!(m2.restore_state(&m.save_state()));
        assert_eq!(m2.selected, 1);
        assert!(m2.reading);
    }

    #[test]
    fn app_state_rejects_mismatched_kind_and_garbage() {
        let sh = LineShell::new();
        let mut ed = Editor::new();
        let before = format!("{ed:?}");
        // A shell snapshot must not restore onto an editor.
        assert!(!ed.restore_state(&sh.save_state()));
        // Truncation at every cut point is rejected, never half-applied.
        let full = ed.save_state();
        for cut in 0..full.len() {
            assert!(!ed.restore_state(&full[..cut]));
        }
        assert!(!ed.restore_state(b"\xff\xff\xff"));
        assert_eq!(
            format!("{ed:?}"),
            before,
            "failed restores leave app unchanged"
        );

        // Out-of-range scroll position is rejected.
        let mut small = Pager::new(5);
        let mut big = Pager::new(500);
        big.on_input(0, b" ");
        big.on_input(1, b" ");
        assert!(!small.restore_state(&big.save_state()));
    }

    #[test]
    fn apps_are_deterministic() {
        let run = || {
            let mut sh = LineShell::new();
            let mut bytes = Vec::new();
            bytes.extend(all_bytes(&sh.start(0)));
            bytes.extend(all_bytes(&sh.on_input(10, b"ls")));
            bytes.extend(all_bytes(&sh.on_input(20, b"\r")));
            bytes
        };
        assert_eq!(run(), run());
    }

    /// Writes a banner at start and echoes each input 5 ms later.
    struct Probe;

    impl Application for Probe {
        fn start(&mut self, now: Millis) -> Vec<TimedWrite> {
            vec![TimedWrite {
                at: now,
                bytes: b"start".to_vec(),
            }]
        }

        fn on_input(&mut self, now: Millis, bytes: &[u8]) -> Vec<TimedWrite> {
            vec![TimedWrite {
                at: now + 5,
                bytes: bytes.to_vec(),
            }]
        }
    }

    fn due_bytes(host: &mut AppHost, now: Millis) -> Vec<Vec<u8>> {
        host.due(now).map(|w| w.bytes).collect()
    }

    #[test]
    fn app_host_starts_once_and_keeps_tied_writes_in_order() {
        let mut host = AppHost::new(Box::new(Probe));
        assert_eq!(host.next_wakeup(7), Some(7), "due at once until started");
        assert_eq!(due_bytes(&mut host, 10), [b"start"]);
        assert_eq!(host.next_wakeup(10), None, "started, nothing queued");
        host.input(11, b"b");
        host.input(10, b"a");
        host.input(10, b"c");
        assert_eq!(host.next_wakeup(12), Some(15));
        assert!(due_bytes(&mut host, 14).is_empty());
        assert_eq!(due_bytes(&mut host, 20), [b"a", b"c", b"b"]);
        assert!(due_bytes(&mut host, 30).is_empty(), "started only once");
    }

    /// The insertion `AppHost::schedule` replaced: scan from the front for
    /// the first write due later. Kept here as the order oracle.
    fn schedule_linear(queue: &mut VecDeque<TimedWrite>, writes: Vec<TimedWrite>) {
        for w in writes {
            let pos = queue
                .iter()
                .position(|p| p.at > w.at)
                .unwrap_or(queue.len());
            queue.insert(pos, w);
        }
    }

    /// Produces nothing of its own, so a host's queue holds only what a
    /// test schedules.
    struct Silent;

    impl Application for Silent {
        fn on_input(&mut self, _now: Millis, _bytes: &[u8]) -> Vec<TimedWrite> {
            Vec::new()
        }
    }

    proptest::proptest! {
        /// Batches with tied and out-of-order due times, scheduled while
        /// `due` drains the front of the queue: the binary search leaves
        /// exactly the queue the linear scan did, and hands out the same
        /// writes, each told apart by its bytes.
        #[test]
        fn app_host_orders_writes_like_the_linear_scan(
            steps in proptest::collection::vec(
                (proptest::collection::vec(0u64..12, 0..24), 0u64..6),
                1..40,
            ),
        ) {
            let mut host = AppHost::new(Box::new(Silent));
            let mut slow = VecDeque::new();
            let (mut now, mut tag) = (0u64, 0u32);
            for (offsets, advance) in steps {
                let batch: Vec<TimedWrite> = offsets
                    .iter()
                    .map(|off| {
                        tag += 1;
                        TimedWrite { at: now + off, bytes: tag.to_be_bytes().to_vec() }
                    })
                    .collect();
                host.schedule(batch.clone());
                schedule_linear(&mut slow, batch);
                proptest::prop_assert_eq!(&host.queue, &slow);
                now += advance;
                for w in host.due(now).collect::<Vec<_>>() {
                    proptest::prop_assert_eq!(Some(w), slow.pop_front());
                }
                proptest::prop_assert!(slow.front().is_none_or(|w| w.at > now));
                proptest::prop_assert_eq!(&host.queue, &slow);
            }
        }
    }
}
