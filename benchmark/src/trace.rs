//! The span recorder and the counting allocator.
//!
//! Spans are recorded by the benchmark's own wrappers around its calls
//! into the program (`adapter.rs`), never inside the program. Outside a
//! traced run both the recorder and the allocator counter cost one
//! relaxed load per call.
//!
//! Every thread keeps its own open-span stack, per-stage aggregates and
//! (up to [`RAW_CAP`]) raw spans; a thread's data is handed to the global
//! collector when the thread exits (the hub joins its shard workers when
//! it is dropped) or when [`flush_thread`] is called.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Where a span was recorded. The names are the layer names of
/// `README.md`; `core` is split by side because client and server ticks
/// do different work.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Stage {
    HubPump,
    GenPump,
    Drive,
    SrvOpen,
    SrvReceive,
    SrvTick,
    CliReceive,
    CliTick,
    AppInput,
    AppPoll,
    NetWait,
    NetDrain,
    NetSend,
    Keystroke,
    Display,
}

pub const STAGES: [Stage; 15] = [
    Stage::HubPump,
    Stage::GenPump,
    Stage::Drive,
    Stage::SrvOpen,
    Stage::SrvReceive,
    Stage::SrvTick,
    Stage::CliReceive,
    Stage::CliTick,
    Stage::AppInput,
    Stage::AppPoll,
    Stage::NetWait,
    Stage::NetDrain,
    Stage::NetSend,
    Stage::Keystroke,
    Stage::Display,
];

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::HubPump => "hub.pump",
            Stage::GenPump => "gen.pump",
            Stage::Drive => "bench.drive",
            Stage::SrvOpen => "core.open",
            Stage::SrvReceive => "core.server_receive",
            Stage::SrvTick => "core.server_tick",
            Stage::CliReceive => "core.client_receive",
            Stage::CliTick => "core.client_tick",
            Stage::AppInput => "app.input",
            Stage::AppPoll => "app.poll",
            Stage::NetWait => "net.wait",
            Stage::NetDrain => "net.drain",
            Stage::NetSend => "net.send",
            Stage::Keystroke => "prediction.keystroke",
            Stage::Display => "prediction.display",
        }
    }
}

/// Raw spans kept per thread for the span file; aggregates cover all.
pub const RAW_CAP: usize = 200_000;

static ON: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD: AtomicU16 = AtomicU16::new(0);
static COLLECTED: Mutex<Vec<ThreadData>> = Mutex::new(Vec::new());
/// Start of the newest server `hub.pump` span and its ordinal, for the
/// pump-call → first-worker-span hop.
static PUMP_START_NS: AtomicU64 = AtomicU64::new(0);
static PUMP_ID: AtomicU64 = AtomicU64::new(0);

pub fn set_on(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ON.store(on, Ordering::SeqCst);
    COUNT_ALLOCS.store(on, Ordering::SeqCst);
}

#[inline]
pub fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Nanoseconds since the recorder's epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Clone, Copy, Default, Debug)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
}

#[derive(Clone, Copy, Debug)]
pub struct Raw {
    pub stage: Stage,
    pub seq: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: u64,
}

pub const NO_PARENT: u32 = u32::MAX;
/// `req` of a span that belongs to no single keystroke.
pub const NO_REQ: u64 = u64::MAX;

/// The request id of a span at work for session `sess` when that session
/// has seen `keys` keystrokes: the newest of them, or none before the
/// first.
pub fn req_id(sess: usize, keys: u64) -> u64 {
    match keys.checked_sub(1) {
        Some(key) => ((sess as u64) << 32) | (key & 0xffff_ffff),
        None => NO_REQ,
    }
}

#[derive(Debug, Default)]
pub struct ThreadData {
    pub id: u16,
    pub name: String,
    pub agg: [Agg; STAGES.len()],
    pub raw: Vec<Raw>,
    /// Pump call → first span on this (worker) thread, µs.
    pub hops_us: Vec<f64>,
    /// Time covered by spans with no parent, and the part of it spent in
    /// `net.wait`.
    pub top_ns: u64,
    pub top_wait_ns: u64,
    /// A hub worker's on-CPU time from its first span to its exit. What
    /// its spans do not cover of it is the hub's own work on that thread.
    pub worker_cpu_ns: Option<u64>,
}

struct Open {
    stage: Stage,
    seq: u32,
    start_ns: u64,
    child_ns: u64,
    allocs_at_start: u64,
    child_allocs: u64,
}

struct Local {
    data: ThreadData,
    stack: Vec<Open>,
    next_seq: u32,
    /// On-CPU time at the first span, on a hub worker.
    worker_cpu_start: Option<u64>,
    pump_seen: u64,
}

impl Local {
    fn new() -> Self {
        let name = std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .to_string();
        Local {
            worker_cpu_start: name
                .starts_with("mosh-shard-")
                .then(crate::host::thread_cpu_ns),
            data: ThreadData {
                id: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
                name,
                ..ThreadData::default()
            },
            stack: Vec::new(),
            next_seq: 0,
            pump_seen: 0,
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        let mut data = std::mem::take(&mut self.data);
        data.worker_cpu_ns = self
            .worker_cpu_start
            .map(|start| crate::host::thread_cpu_ns().saturating_sub(start));
        if data.agg.iter().any(|a| a.count > 0) {
            if let Ok(mut all) = COLLECTED.lock() {
                all.push(data);
            }
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::new());
}

/// An open span; closes when dropped.
pub struct Span {
    live: bool,
    req: u64,
}

#[inline]
pub fn span(stage: Stage) -> Span {
    if !on() {
        return Span {
            live: false,
            req: NO_REQ,
        };
    }
    enter(stage);
    Span {
        live: true,
        req: NO_REQ,
    }
}

impl Span {
    /// Tags the span with the keystroke it served ([`req_id`]), which is
    /// often known only once the call it brackets has returned.
    pub fn tag(&mut self, req: impl FnOnce() -> u64) {
        if self.live {
            self.req = req();
        }
    }
}

fn enter(stage: Stage) {
    let start_ns = now_ns();
    let _ = LOCAL.try_with(|l| {
        let mut l = l.borrow_mut();
        if stage == Stage::HubPump {
            PUMP_START_NS.store(start_ns, Ordering::Relaxed);
            l.pump_seen = PUMP_ID.fetch_add(1, Ordering::Relaxed) + 1;
        } else if l.worker_cpu_start.is_some() {
            let id = PUMP_ID.load(Ordering::Relaxed);
            if l.pump_seen != id {
                l.pump_seen = id;
                let hop = start_ns.saturating_sub(PUMP_START_NS.load(Ordering::Relaxed));
                l.data.hops_us.push(hop as f64 / 1e3);
            }
        }
        let seq = l.next_seq;
        l.next_seq += 1;
        l.stack.push(Open {
            stage,
            seq,
            start_ns,
            child_ns: 0,
            allocs_at_start: thread_allocs(),
            child_allocs: 0,
        });
    });
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let end_ns = now_ns();
        let allocs_now = thread_allocs();
        let req = self.req;
        let _ = LOCAL.try_with(|l| {
            let mut l = l.borrow_mut();
            let Some(open) = l.stack.pop() else { return };
            let dur = end_ns.saturating_sub(open.start_ns);
            let allocs = allocs_now.saturating_sub(open.allocs_at_start);
            let a = &mut l.data.agg[open.stage as usize];
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(open.child_ns);
            a.self_allocs += allocs.saturating_sub(open.child_allocs);
            let parent = match l.stack.last_mut() {
                Some(p) => {
                    p.child_ns += dur;
                    p.child_allocs += allocs;
                    p.seq
                }
                None => {
                    l.data.top_ns += dur;
                    if open.stage == Stage::NetWait {
                        l.data.top_wait_ns += dur;
                    }
                    NO_PARENT
                }
            };
            if l.data.raw.len() < RAW_CAP {
                l.data.raw.push(Raw {
                    stage: open.stage,
                    seq: open.seq,
                    parent,
                    start_ns: open.start_ns,
                    end_ns,
                    req,
                });
            }
        });
    }
}

/// Hands the calling thread's data to the collector (worker threads do
/// this on exit).
pub fn flush_thread() {
    let _ = LOCAL.try_with(|l| {
        let mut l = l.borrow_mut();
        let id = l.data.id;
        let name = l.data.name.clone();
        let data = std::mem::replace(
            &mut l.data,
            ThreadData {
                id,
                name,
                ..ThreadData::default()
            },
        );
        if data.agg.iter().any(|a| a.count > 0) {
            COLLECTED.lock().expect("collector lock").push(data);
        }
    });
}

/// Everything collected so far, leaving the collector empty.
pub fn take_collected() -> Vec<ThreadData> {
    std::mem::take(&mut *COLLECTED.lock().expect("collector lock"))
}

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

static COUNT_ALLOCS: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Allocations made by this thread while counting was on.
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Bytes allocated minus bytes freed by this thread while counting was on.
pub fn thread_live_bytes() -> i64 {
    LIVE_BYTES.try_with(Cell::get).unwrap_or(0)
}

/// Switches allocation counting alone (the traced run switches it
/// together with the spans).
pub fn count_allocs(on: bool) {
    COUNT_ALLOCS.store(on, Ordering::SeqCst);
}

pub struct Counting;

fn note(allocs: u64, bytes: i64) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the counters are plain thread-local `Cell`s with constant
// initialisers and no destructor, so touching them allocates nothing and
// is valid at any point of a thread's life.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            note(1, layout.size() as i64);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            note(0, -(layout.size() as i64));
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            note(1, layout.size() as i64);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            note(1, new_size as i64 - layout.size() as i64);
        }
        System.realloc(ptr, layout, new_size)
    }
}
