//! `mosh-lint` binary: lint the workspace tree, print findings as
//! `file:line: [rule] message`, exit 1 if any survive suppression. The
//! summary line on stderr also gives the tree's production-line count.
//!
//! Usage: `cargo run -p mosh-lint [workspace-root]`. Without an
//! argument the workspace root is found by walking up from the current
//! directory to the first `Cargo.toml` that sits next to `crates/`.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = match std::env::args().nth(1) {
        Some(p) => PathBuf::from(p),
        None => match find_root() {
            Some(r) => r,
            None => {
                eprintln!("mosh-lint: no workspace root found (run from the repo, or pass it)");
                return ExitCode::FAILURE;
            }
        },
    };
    match mosh_lint::run_workspace(&root) {
        Ok(report) => {
            for f in &report.findings {
                println!("{f}");
            }
            if report.findings.is_empty() {
                eprintln!(
                    "mosh-lint: clean — {} files, 0 findings, {} production lines",
                    report.files, report.production_lines
                );
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "mosh-lint: {} finding(s) across {} files, {} production lines",
                    report.findings.len(),
                    report.files,
                    report.production_lines
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("mosh-lint: {e}");
            ExitCode::FAILURE
        }
    }
}

fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
