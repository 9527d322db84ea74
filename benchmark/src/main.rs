//! The repo's benchmark. See `README.md` beside this package.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, JSON on the last line
//! benchmark run     --seed <n> [--seconds <s>] [--repeat <k>] [--out <file>]   every workload, untraced
//! benchmark trace   --seed <n> [--seconds <s>]                         every workload, traced
//! benchmark compare <a.json> <b.json>                                  two result files, row by row
//! benchmark describe                                                   the text of BENCHMARK.json
//! ```
//!
//! `--smoke` shrinks every workload to a second or two (the package's
//! own test uses it).

mod adapter;
mod budget;
mod gen;
mod host;
mod json;
mod metrics;
mod report;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: trace::Counting = trace::Counting;

/// Seconds per workload when `run`/`trace` are not told (the value
/// `BENCHMARK.json` gives the driver).
const DEFAULT_SECONDS: u64 = 10;

struct Flags {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    repeat: u64,
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let number = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{name} needs a whole number, got {v}"))
        };
        match a.as_str() {
            "--workload" => f.workload = Some(value(a)?),
            "--seed" => f.seed = number(a, value(a)?)?,
            "--seconds" => f.seconds = number(a, value(a)?)?.max(1),
            "--trace" => f.trace = number(a, value(a)?)? != 0,
            "--repeat" => f.repeat = number(a, value(a)?)?.max(1),
            "--out" => f.out = Some(value(a)?),
            "--smoke" => f.smoke = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => f.positional.push(other.to_string()),
        }
    }
    Ok(f)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match parse_flags(&args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match flags.positional.first().map(String::as_str) {
        None => match &flags.workload {
            Some(w) if workloads::NAMES.contains(&w.as_str()) => {
                let r = report::run_one(w, flags.seed, flags.seconds, flags.trace, flags.smoke);
                r.print_human();
                println!("{}", r.contract_json());
                r.valid()
            }
            _ => {
                eprintln!(
                    "benchmark: --workload must be one of {}",
                    workloads::NAMES.join(", ")
                );
                return ExitCode::from(2);
            }
        },
        Some("run") | Some("trace") => {
            let traced = flags.positional[0] == "trace";
            report::run_all(
                flags.seed,
                flags.seconds,
                traced,
                flags.smoke,
                flags.repeat,
                flags.out.as_deref(),
            )
        }
        Some("compare") if flags.positional.len() == 3 => {
            report::compare(&flags.positional[1], &flags.positional[2])
        }
        Some("describe") => {
            print!("{}", report::describe(DEFAULT_SECONDS));
            true
        }
        Some(other) => {
            eprintln!("benchmark: unknown command {other} (run, trace, compare <a> <b>, describe)");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
