//! `sqm-perf` — deterministic perf suites, `BENCH_*.json` artifacts, and
//! the regression gate.
//!
//! ```text
//! sqm-perf --suite small              # run all suites, write artifacts
//! sqm-perf --suite small --gate      # ...and diff against bench/baseline.json
//! sqm-perf --suite small --gate --warn-only   # CI mode: report, never fail
//! sqm-perf --suite small --write-baseline     # refresh bench/baseline.json
//! sqm-perf --gate-self-test          # prove the gate catches a 2x slowdown
//! sqm-perf --suite small --report    # also write the covariance HTML report
//! sqm-perf --suite small --prof      # per-suite cost-profiler attribution
//! sqm-perf --suite small --append-history   # append medians to history.jsonl
//! ```
//!
//! Artifacts land in `results/perf/BENCH_<suite>.json` (override with
//! `--out DIR`); the schema is documented in `sqm_bench::perf` and
//! `EXPERIMENTS.md`. The commit hash is taken from `SQM_COMMIT` (CI
//! exports it; locally it falls back to `"unknown"`).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use sqm::core::pca_sensitivity;
use sqm::datasets::SpectralSpec;
use sqm::obs::{html_report, metrics, PrivacyLedger};
use sqm::vfl::{covariance_skellam, ColumnPartition, VflConfig};
use sqm_bench::gate::{self, Baseline, GateConfig};
use sqm_bench::perf::{run_micro, run_mpc, run_serve, run_vfl, BenchArtifact, Tier};

struct PerfOptions {
    tier: Tier,
    out_dir: PathBuf,
    baseline_path: PathBuf,
    gate: bool,
    warn_only: bool,
    write_baseline: bool,
    gate_self_test: bool,
    report: bool,
    live: Option<String>,
    /// Attach the cost profiler and print a per-suite attribution delta
    /// (`--prof` / `SQM_PROF=1`).
    prof: bool,
    /// Append this run's medians to `<out>/history.jsonl`.
    append_history: bool,
}

impl Default for PerfOptions {
    fn default() -> Self {
        PerfOptions {
            tier: Tier::Small,
            out_dir: PathBuf::from("results/perf"),
            baseline_path: PathBuf::from("bench/baseline.json"),
            gate: false,
            warn_only: false,
            write_baseline: false,
            gate_self_test: false,
            report: false,
            live: sqm_experiments::live_addr_from_env(),
            prof: std::env::var("SQM_PROF").ok().as_deref() == Some("1"),
            append_history: false,
        }
    }
}

fn parse_args() -> PerfOptions {
    let mut opts = PerfOptions::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
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
            "--gate-self-test" => opts.gate_self_test = true,
            "--report" => opts.report = true,
            "--prof" => opts.prof = true,
            "--append-history" => opts.append_history = true,
            "--live" => {
                // Optional value: bare `--live` uses the default address.
                match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        opts.live = Some(v.clone());
                        i += 1;
                    }
                    _ => opts.live = Some(sqm_experiments::DEFAULT_LIVE_ADDR.to_string()),
                }
            }
            other => panic!(
                "unknown flag {other} (expected --suite small|full, --out DIR, --baseline PATH, \
                 --gate, --warn-only, --write-baseline, --gate-self-test, --report, \
                 --live [addr], --prof, --append-history)"
            ),
        }
        i += 1;
    }
    sqm_experiments::install_live(opts.live.as_deref());
    opts
}

/// Print what each suite added to the cost profile: the per-node delta of
/// the deterministic counters between two snapshots, heaviest first.
fn print_prof_delta(suite: &str, before: Option<sqm::obs::ProfSnapshot>) {
    let Some(after) = sqm::obs::prof::snapshot() else {
        return;
    };
    let empty = Default::default();
    let before_nodes = before.as_ref().map_or(&empty, |s| &s.nodes);
    let mut rows: Vec<(String, sqm::obs::prof::NodeAgg)> = Vec::new();
    for (name, agg) in &after.nodes {
        let prev = before_nodes.get(name).cloned().unwrap_or_default();
        let delta = sqm::obs::prof::NodeAgg {
            calls: agg.calls - prev.calls,
            work: agg.work - prev.work,
            messages: agg.messages - prev.messages,
            bytes: agg.bytes - prev.bytes,
            wall_ns: agg.wall_ns.saturating_sub(prev.wall_ns),
        };
        if delta.calls > 0 || delta.work > 0 {
            rows.push((name.clone(), delta));
        }
    }
    if rows.is_empty() {
        println!("  [prof {suite}] no instrumented work in this suite");
        return;
    }
    rows.sort_by(|a, b| b.1.weight().cmp(&a.1.weight()).then(a.0.cmp(&b.0)));
    println!("  [prof {suite}] top attribution (this suite's delta):");
    for (name, d) in rows.iter().take(8) {
        println!(
            "    {:>14} work {:>10} calls {:>10} msgs {:>12} B  {name}",
            d.work, d.calls, d.messages, d.bytes
        );
    }
}

/// One traced covariance release (metrics on) rendered as the
/// self-contained HTML report: phase waterfall, per-party traffic table,
/// privacy-ledger summary.
fn write_covariance_report(opts: &PerfOptions) -> std::io::Result<PathBuf> {
    metrics::set_enabled(true);
    metrics::reset();
    let (m, n, p) = (60, 8, 3);
    let (gamma, mu) = (18.0, 100.0);
    let data = SpectralSpec::new(m, n).with_seed(41).generate();
    let partition = ColumnPartition::even(n, p);
    let cfg = VflConfig::new(p)
        .with_latency(Duration::from_millis(100))
        .with_seed(42)
        .with_trace(true)
        .with_live(sqm_experiments::live_config());
    let out = covariance_skellam(&data, &partition, gamma, mu, &cfg);
    metrics::set_enabled(false);
    let trace = out.trace.expect("trace requested");
    assert_eq!(
        trace.summary().total_simulated(),
        out.stats.simulated_time(),
        "trace summary must reproduce the virtual clock exactly"
    );

    let mut ledger = PrivacyLedger::new(p, 1e-5);
    ledger.record(
        "covariance",
        n * n,
        gamma,
        mu,
        pca_sensitivity(gamma, 1.0, n),
    );
    let snapshot = metrics::snapshot();
    let mut html = html_report(
        &format!("covariance m={m} n={n} P={p}"),
        &trace,
        Some(&ledger.report()),
        Some(&snapshot),
        None,
        None,
    );
    // With two or more history points on record, embed the per-entry
    // median-trend sparklines (see `sqm_bench::history`).
    let trends = sqm_bench::history::trends_html(&sqm_bench::history::load(
        &opts.out_dir.join("history.jsonl"),
    ));
    if !trends.is_empty() {
        if let Some(pos) = html.rfind("</body>") {
            html.insert_str(pos, &trends);
        }
    }
    let path = opts.out_dir.join("covariance.report.html");
    sqm::obs::atomic_write_str(&path, &html)?;
    Ok(path)
}

fn main() -> ExitCode {
    let opts = parse_args();
    let cfg = GateConfig::default();

    if opts.prof {
        // Install the process-global profiler before any suite runs so the
        // per-suite deltas below have a baseline to diff against. The
        // aggregate artifacts land next to the BENCH_*.json files.
        sqm::obs::prof::install(
            &sqm::obs::prof::ProfConfig::default().with_dir(&opts.out_dir),
            42,
        );
    }

    println!(
        "sqm-perf: running micro/mpc/vfl/serve suites at tier '{}'",
        opts.tier.name()
    );
    // Same fixed order as `sqm_bench::perf::run_all`, run one suite at a
    // time so `--prof` can attribute instrumented work to the suite that
    // did it.
    type SuiteFn = fn(Tier) -> BenchArtifact;
    let suites: [(&str, SuiteFn); 4] = [
        ("micro", run_micro),
        ("mpc", run_mpc),
        ("vfl", run_vfl),
        ("serve", run_serve),
    ];
    let mut artifacts = Vec::new();
    for (suite, run) in suites {
        let before = if opts.prof {
            sqm::obs::prof::snapshot()
        } else {
            None
        };
        let artifact = run(opts.tier);
        if opts.prof {
            print_prof_delta(suite, before);
        }
        artifacts.push(artifact);
    }
    for artifact in &artifacts {
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
    }

    if opts.append_history {
        let path = opts.out_dir.join("history.jsonl");
        match sqm_bench::history::append(&path, &artifacts) {
            Ok(n) => println!(
                "  appended medians to {} ({n} runs on record)",
                path.display()
            ),
            Err(e) => {
                eprintln!("error: cannot append history: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if opts.prof {
        // Re-target the dump at the suite output directory (an engine run
        // inside the vfl suite re-installs with its own dir/seed; install
        // never clears the accumulated nodes) and flush the artifacts.
        sqm::obs::prof::install(
            &sqm::obs::prof::ProfConfig::default().with_dir(&opts.out_dir),
            42,
        );
        if let Err(e) = sqm_experiments::obsout::dump_prof() {
            eprintln!("error: cannot write profiler artifacts: {e}");
            return ExitCode::FAILURE;
        }
    }

    if opts.report {
        match write_covariance_report(&opts) {
            Ok(path) => println!("  wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write HTML report: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if opts.gate_self_test {
        for artifact in &artifacts {
            if let Err(e) = gate::self_test(artifact, &cfg) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "  gate self-test [{}]: 2x slowdown flagged, identical re-run passes",
                artifact.suite
            );
        }
    }

    if opts.write_baseline {
        let baseline = Baseline {
            suites: artifacts.clone(),
        };
        if let Err(e) = sqm::obs::atomic_write_str(&opts.baseline_path, &baseline.to_json_string())
        {
            eprintln!("error: cannot write baseline: {e}");
            return ExitCode::FAILURE;
        }
        println!("  wrote {}", opts.baseline_path.display());
    }

    if opts.gate {
        let text = match std::fs::read_to_string(&opts.baseline_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!(
                    "error: cannot read baseline {}: {e}",
                    opts.baseline_path.display()
                );
                return ExitCode::FAILURE;
            }
        };
        let baseline = match Baseline::from_json_str(&text) {
            Ok(baseline) => baseline,
            Err(e) => {
                eprintln!("error: malformed baseline: {e}");
                return ExitCode::FAILURE;
            }
        };
        let report = gate::gate_artifacts(&baseline, &artifacts, &cfg);
        print!("{}", report.render(false));
        if !report.passed() && !opts.warn_only {
            return ExitCode::FAILURE;
        }
        if !report.passed() {
            println!("(--warn-only: regressions reported but not fatal)");
        }
    }

    ExitCode::SUCCESS
}
