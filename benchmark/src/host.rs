//! What the benchmark reads off the host: CPU time, memory, and the
//! record every result file carries.

use std::fs;
use std::process::Command;

/// On-CPU nanoseconds of every live thread of this process, leaving out
/// threads named `except` (the load generator, when there is one).
pub fn process_cpu_ns(except: &str) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            fs::read_to_string(t.path().join("comm")).map_or(true, |name| name.trim() != except)
        })
        .map(|t| schedstat_ns(&t.path().join("schedstat")))
        .sum()
}

/// On-CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns(std::path::Path::new("/proc/thread-self/schedstat"))
}

fn schedstat_ns(path: &std::path::Path) -> u64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Resident set size in kB.
pub fn rss_kb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host fields of a result file, as `"key": value` JSON members.
pub fn record() -> Vec<(&'static str, String)> {
    let flags = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = flags
        .lines()
        .find(|l| l.starts_with("flags"))
        .map(|l| l.split_whitespace().collect())
        .unwrap_or_default();
    let has = |f: &str| flags.contains(&f).to_string();
    let quote = |s: String| format!("\"{}\"", s.replace('"', "'"));
    vec![
        ("host", quote(command_line("uname", &["-n"]))),
        ("cores", nproc().to_string()),
        ("cpu_aes", has("aes")),
        ("cpu_vaes", has("vaes")),
        ("cpu_avx512f", has("avx512f")),
        (
            "aes_backend",
            quote(crate::adapter::aes_backend().to_string()),
        ),
        ("rustc", quote(command_line("rustc", &["-V"]))),
        (
            "git_rev",
            quote(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ]
}
