//! The SQM benchmark: three workloads at the paper's shapes, end-to-end
//! metrics with tracing off and a per-layer split with tracing on.
//!
//! ```text
//! sqmbench --workload <pca_paper|lr_clients|serve_mix> --seed <n> \
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Progress goes to stderr; the last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod batch;
mod layers;
mod lr;
mod pca;
mod serve;
mod util;

use std::process::ExitCode;

const USAGE: &str = "usage: sqmbench --workload <pca_paper|lr_clients|serve_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run one cold op of this workload and print its seconds
    /// (the child side of `setup_s`).
    cold_op: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        cold_op: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--cold-op" => {
                args.workload = value()?;
                args.cold_op = true;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sqmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.cold_op {
        let t = match args.workload.as_str() {
            "pca_paper" => pca::cold_op(args.seed),
            "lr_clients" => lr::cold_op(args.seed),
            other => {
                eprintln!("sqmbench: no cold op for {other}");
                return ExitCode::from(2);
            }
        };
        println!("{t}");
        return ExitCode::SUCCESS;
    }
    let steal_before = util::steal_jiffies();
    let outcome = match args.workload.as_str() {
        "pca_paper" => pca::run(args.seed, args.seconds, args.trace),
        "lr_clients" => lr::run(args.seed, args.seconds, args.trace),
        "serve_mix" => serve::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    if let (Some(a), Some(b)) = (steal_before, util::steal_jiffies()) {
        // Host contention on a shared VM moves every wall-time metric;
        // printing it lets a reader tell a noisy run from a slow program.
        eprintln!("sqmbench: host steal during the run: {} jiffies", b - a);
    }
    match outcome.and_then(|o| util::result_line(&o, args.trace)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sqmbench: {e}");
            ExitCode::FAILURE
        }
    }
}
