//! Keystroke traces, replay, and statistics: the paper's evaluation
//! apparatus (§4).
//!
//! * [`synth`] — six synthetic users, 9,986 keystrokes, matching the
//!   paper's workload mix (shells, editors, mail, chat, browsing).
//! * [`workload`] — the multi-application session the traces run in.
//! * [`replay`] — drives full Mosh and SSH sessions over the network
//!   emulator and measures per-keystroke response latency.
//! * [`stats`] — medians, means, σ, and CDFs as the paper reports them.

pub mod replay;
pub mod stats;
pub mod synth;
pub mod workload;

pub use replay::{
    replay_mosh, replay_mosh_many, replay_ssh, replay_ssh_many, ReplayConfig, ReplayOutcome,
    WriteDelayLog,
};
pub use stats::Latencies;
pub use synth::{six_users, small_trace, KeyKind, UserTrace};
pub use workload::{AppKind, WorkloadApp, SWITCH_BYTE};
