//! `sqm-serve` — the multi-tenant VFL serving endpoint plus its perf
//! suite and regression gate.
//!
//! ```text
//! sqm-serve                                # serve, drive seeded load, write BENCH_serve.json
//! sqm-serve --addr 127.0.0.1:9190         # fixed listen address
//! sqm-serve --hold-secs 45                # keep serving after the load run
//! sqm-serve --suite small --gate          # ...and diff against bench/baseline.json
//! sqm-serve --write-baseline              # refresh the serve suite in the baseline
//! ```
//!
//! The run has three acts:
//!
//! 1. **Serve.** Bind the JSON-over-HTTP protocol (`/v1/tenant`,
//!    `/v1/ingest`, `/v1/release`, `/status`, `/metrics`) on `--addr`.
//! 2. **Load.** Drive the endpoint's scheduler with the seeded closed-loop
//!    generator — with request tracing on, so every request carries a span
//!    tree and every release's MPC span links to its causal critical path.
//!    The finite per-tenant budgets guarantee odometer refusals, which
//!    land in `/metrics` as `sqm_serve_budget_refusals` (the CI smoke test
//!    asserts at least one, plus per-tenant `sqm_serve_request_duration_ns`
//!    samples). Afterwards the span collector dumps the byte-deterministic
//!    `slowreq_<seed>.jsonl` (the zero threshold is pinned, so it retains
//!    every request — the full deterministic request log) and a
//!    `serve_report.html` with the "Serving SLO" section into `--out`.
//! 3. **Measure.** Run the `serve` bench suite and write
//!    `BENCH_serve.json` (sessions/sec from `serve_load_*`, p99 release
//!    latency from `serve_release_*`), optionally gated against
//!    `bench/baseline.json` like every other suite.
//!
//! With `--hold-secs N` the endpoint stays up for N more seconds after
//! the artifact is written, so external probes can scrape mid-run state.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use sqm::obs::span::SpanConfig;
use sqm::obs::trace::Trace;
use sqm::obs::{html_report, metrics};
use sqm::serve::{run_load, LoadSpec, ServeHttp, Server, ServerConfig};
use sqm_bench::gate::{self, Baseline, GateConfig};
use sqm_bench::perf::{run_serve, Tier};

struct ServeOptions {
    addr: String,
    hold_secs: u64,
    tier: Tier,
    out_dir: PathBuf,
    baseline_path: PathBuf,
    gate: bool,
    warn_only: bool,
    write_baseline: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:9190".to_string(),
            hold_secs: 0,
            tier: Tier::Small,
            out_dir: PathBuf::from("results/perf"),
            baseline_path: PathBuf::from("bench/baseline.json"),
            gate: false,
            warn_only: false,
            write_baseline: false,
        }
    }
}

fn parse_args() -> ServeOptions {
    let mut opts = ServeOptions::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                opts.addr = args.get(i).expect("--addr needs host:port").clone();
            }
            "--hold-secs" => {
                i += 1;
                opts.hold_secs = args
                    .get(i)
                    .expect("--hold-secs needs a number")
                    .parse()
                    .expect("--hold-secs expects seconds");
            }
            "--suite" => {
                i += 1;
                let value = args.get(i).expect("--suite needs small|full");
                opts.tier = Tier::parse(value)
                    .unwrap_or_else(|| panic!("--suite expects small|full, got {value:?}"));
            }
            "--out" => {
                i += 1;
                opts.out_dir = PathBuf::from(args.get(i).expect("--out needs a directory"));
            }
            "--baseline" => {
                i += 1;
                opts.baseline_path = PathBuf::from(args.get(i).expect("--baseline needs a path"));
            }
            "--gate" => opts.gate = true,
            "--warn-only" => opts.warn_only = true,
            "--write-baseline" => opts.write_baseline = true,
            other => panic!(
                "unknown flag {other} (expected --addr HOST:PORT, --hold-secs N, \
                 --suite small|full, --out DIR, --baseline PATH, --gate, --warn-only, \
                 --write-baseline)"
            ),
        }
        i += 1;
    }
    opts
}

/// Replace (or append) the `serve` suite in an existing baseline so
/// blessing this binary's numbers never drops the other suites.
fn merge_baseline(path: &PathBuf, artifact: sqm_bench::BenchArtifact) -> Baseline {
    let mut suites = match std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Baseline::from_json_str(&text).ok())
    {
        Some(baseline) => baseline.suites,
        None => Vec::new(),
    };
    suites.retain(|s| s.suite != artifact.suite);
    suites.push(artifact);
    Baseline { suites }
}

fn main() -> ExitCode {
    let opts = parse_args();
    metrics::set_enabled(true);

    // Act 1: the endpoint, with request tracing on. The zero slow
    // threshold is pinned (mirroring the live smoke's pinned stall
    // threshold): every request is retained, so the slowreq dump is the
    // full deterministic request log rather than a timing-dependent
    // subset.
    let server = Server::start(ServerConfig {
        tracing: Some(SpanConfig::dump_all()),
        ..ServerConfig::default()
    });
    let endpoint = match ServeHttp::bind(Arc::clone(&server), &opts.addr) {
        Ok(endpoint) => endpoint,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("sqm-serve: listening on http://{}", endpoint.local_addr());

    // Act 2: seeded closed-loop load against the live endpoint's
    // scheduler. The smoke spec's budgets are finite, so the odometer
    // refuses at least one release and `/metrics` proves it.
    let spec = LoadSpec {
        tracing: true,
        ..LoadSpec::smoke()
    };
    let report = run_load(&server, &spec);
    println!(
        "  load: {} tenants x {} rounds -> {} releases admitted, {} budget refusals, \
         {:.1} sessions/s, p99 release {:.2} ms, digest {:016x}",
        spec.tenants,
        spec.rounds,
        report.releases_admitted(),
        report.budget_refusals(),
        report.sessions_per_sec(),
        report.p99_release_ns() as f64 / 1e6,
        report.digest(),
    );
    if report.budget_refusals() == 0 {
        eprintln!("error: smoke load finished without a single budget refusal");
        return ExitCode::FAILURE;
    }

    // Span artifacts: the deterministic slow-request dump and the HTML
    // report with the "Serving SLO" section.
    let collector = server.spans().expect("tracing configured");
    match collector.write_slow_dump(&opts.out_dir, spec.seed) {
        Ok(path) => println!(
            "  wrote {} ({} requests)",
            path.display(),
            collector.snapshot().slow_retained
        ),
        Err(e) => {
            eprintln!("error: cannot write slow-request dump: {e}");
            return ExitCode::FAILURE;
        }
    }
    let html = html_report(
        "sqm-serve load run",
        &Trace::from_parties(Duration::ZERO, Vec::new()),
        None,
        Some(&metrics::snapshot()),
        Some(&collector.snapshot()),
        None,
    );
    let html_path = opts.out_dir.join("serve_report.html");
    match sqm::obs::atomic_write_str(&html_path, &html) {
        Ok(()) => println!("  wrote {}", html_path.display()),
        Err(e) => {
            eprintln!("error: cannot write HTML report: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Act 3: the bench suite and its artifact.
    println!(
        "sqm-serve: running serve suite at tier '{}'",
        opts.tier.name()
    );
    let artifact = run_serve(opts.tier);
    match artifact.write_to(&opts.out_dir) {
        Ok(path) => println!(
            "  wrote {} ({} entries)",
            path.display(),
            artifact.entries.len()
        ),
        Err(e) => {
            eprintln!("error: cannot write artifact: {e}");
            return ExitCode::FAILURE;
        }
    }

    if opts.write_baseline {
        let baseline = merge_baseline(&opts.baseline_path, artifact.clone());
        if let Err(e) = sqm::obs::atomic_write_str(&opts.baseline_path, &baseline.to_json_string())
        {
            eprintln!("error: cannot write baseline: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "  wrote {} (serve suite refreshed)",
            opts.baseline_path.display()
        );
    }

    let mut failed = false;
    if opts.gate {
        match std::fs::read_to_string(&opts.baseline_path) {
            Ok(text) => match Baseline::from_json_str(&text) {
                Ok(baseline) => {
                    let report = gate::gate_artifacts(
                        &baseline,
                        std::slice::from_ref(&artifact),
                        &GateConfig::default(),
                    );
                    print!("{}", report.render(false));
                    if !report.passed() {
                        if opts.warn_only {
                            println!("(--warn-only: regressions reported but not fatal)");
                        } else {
                            failed = true;
                        }
                    }
                }
                Err(e) => {
                    eprintln!("error: malformed baseline: {e}");
                    failed = true;
                }
            },
            Err(e) => {
                eprintln!(
                    "error: cannot read baseline {}: {e}",
                    opts.baseline_path.display()
                );
                failed = true;
            }
        }
    }

    if opts.hold_secs > 0 {
        println!(
            "sqm-serve: holding for {}s (ctrl-c to stop)",
            opts.hold_secs
        );
        std::thread::sleep(Duration::from_secs(opts.hold_secs));
    }
    endpoint.shutdown();

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
