//! What the two closed-loop batch workloads (`pca_paper`, `lr_clients`)
//! share: cold set-up in child processes, the end-to-end metric set, and
//! the traced per-layer metric set.

use std::process::{Command, Stdio};
use std::time::Instant;

use sqm_mpc::RunStats;

use crate::layers::{self, Layers};
use crate::util::{median, peak_rss_mib, percentile, Counters, Report, Tally};

/// Cold ops measured per run for `setup_s`.
const COLD_RUNS: usize = 9;

/// Seconds of untimed (still checked) ops before the timed window: the
/// first ops of a process run a few percent slower than the rest.
pub const WARM_UP_S: f64 = 2.0;

/// Tail percentile for `op_tail_s` on every workload. Higher percentiles
/// have enough samples beyond them, but on a shared 2-vCPU machine they
/// track the host's steal time from run to run rather than the program.
pub const TAIL_P: f64 = 0.90;

/// `setup_s` of a batch workload: the first (cold) op of a fresh process,
/// measured in `COLD_RUNS` child processes; the median is reported.
pub fn cold_setup(workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut times = Vec::with_capacity(COLD_RUNS);
    for _ in 0..COLD_RUNS {
        let out = Command::new(&exe)
            .args(["--cold-op", workload, "--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn cold op: {e}"))?;
        if !out.status.success() {
            return Err(format!("cold op exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let t: f64 = text
            .trim()
            .parse()
            .map_err(|e| format!("cold op printed {text:?}: {e}"))?;
        times.push(t);
    }
    Ok(median(&times))
}

/// Op samples of an untraced closed-loop run.
#[derive(Default)]
pub struct OpSamples {
    /// Wall seconds of each timed op.
    pub ops: Vec<f64>,
    /// `RunStats::simulated_time()` of each release at 0.1 s per hop.
    pub paper: Vec<f64>,
}

/// The end-to-end metrics of a closed loop with one client: latency is
/// the op's wall time and the sustained rate is ops per busy second.
pub fn put_end_to_end(
    report: &mut Report,
    setup_s: f64,
    samples: &OpSamples,
    counters: Counters,
    tally: &Tally,
) {
    let ops = &samples.ops;
    eprintln!(
        "sqmbench: {} ops timed, {} releases for paper_time_s; tails are p90 \
         ({} samples beyond)",
        ops.len(),
        samples.paper.len(),
        ops.len() - 1 - sqm_obs::metrics::nearest_rank_index(ops.len(), TAIL_P)
    );
    report.put("setup_s", setup_s);
    report.put("op_s", median(ops));
    report.put("op_tail_s", percentile(ops, TAIL_P));
    report.put("paper_time_s", median(&samples.paper));
    report.put("wire_bytes", counters.bytes as f64);
    report.put("latency_p50_ms", median(ops) * 1e3);
    report.put("latency_p90_ms", percentile(ops, 0.9) * 1e3);
    report.put("max_rate_per_s", ops.len() as f64 / ops.iter().sum::<f64>());
    report.put("peak_rss_mb", peak_rss_mib());
    report.put("ok_frac", ok_frac(tally));
}

pub fn ok_frac(tally: &Tally) -> f64 {
    1.0 - tally.failed as f64 / tally.attempted.max(1) as f64
}

/// Per-op samples of the traced run, one entry per traced op.
#[derive(Default)]
pub struct LayerSamples {
    pub calibrate: Vec<f64>,
    pub release: Vec<f64>,
    pub other: Vec<f64>,
    pub quantize: Vec<f64>,
    pub share: Vec<f64>,
    pub local: Vec<f64>,
    pub recombine: Vec<f64>,
    pub skellam: Vec<f64>,
    pub wait: Vec<f64>,
    pub cpath_idle: Vec<f64>,
    pub eigen: Vec<f64>,
    pub sweeps: Vec<f64>,
    pub unattributed: Vec<f64>,
    /// Wall of each traced op and of the untraced ops interleaved with
    /// them (for `obs.trace_overhead`).
    pub traced_op: Vec<f64>,
    pub untraced_op: Vec<f64>,
}

impl LayerSamples {
    /// Record one traced op: its wall, the time of the benchmark's spans
    /// around non-MPC layers (`outside`), the release span and the split of
    /// its trace. Whatever no layer claims is `unattributed_s`.
    pub fn push_op(&mut self, op: f64, outside: f64, release: f64, stats: &RunStats, l: &Layers) {
        self.traced_op.push(op);
        self.unattributed
            .push(op - outside - release + l.party_rest);
        self.release.push(release);
        self.other.push(release - stats.total.wall.as_secs_f64());
        self.quantize.push(l.quantize);
        self.share.push(l.share);
        self.local.push(l.local);
        self.recombine.push(l.recombine);
        self.skellam.push(l.skellam);
        self.wait.push(l.wait);
        self.cpath_idle.push(l.cpath_idle);
    }
}

/// Shape-determined work counts of one op, reported next to the times.
pub struct WorkCounts {
    pub quantized_values: u64,
    /// Local multiply-adds of the `compute` phase on one party.
    pub local_field_muls: u64,
    pub skellam_draws: u64,
    /// Element widths of the rounds whose receive side recombines with
    /// Lagrange weights (degree reduction and opening).
    pub recombine_widths: Vec<usize>,
}

/// Emit the per-layer metrics of traced releases.
pub fn put_layers(
    report: &mut Report,
    s: &LayerSamples,
    stats: &RunStats,
    parties: usize,
    work: &WorkCounts,
) {
    let med_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    report.put("accounting.calibrate_s", med_or_zero(&s.calibrate));
    report.put("vfl.release_s", median(&s.release));
    report.put("mpc.engine.other_s", median(&s.other));
    report.put("core.quantize.busy_s", median(&s.quantize));
    report.put("core.quantize.values", work.quantized_values as f64);
    report.put("mpc.shamir.share_busy_s", median(&s.share));
    let shared = ["input", "dp_noise"]
        .iter()
        .filter_map(|p| stats.phases.get(*p))
        .map(|p| p.elems)
        .sum::<u64>();
    report.put("mpc.shamir.share_elems", shared as f64);
    report.put("mpc.local_busy_s", median(&s.local));
    report.put("mpc.local_field_muls", work.local_field_muls as f64);
    report.put("mpc.recombine_busy_s", median(&s.recombine));
    report.put(
        "mpc.recombine.kernel_s",
        layers::recombine_seconds(&work.recombine_widths, parties),
    );
    report.put("sampling.skellam_busy_s", median(&s.skellam));
    report.put("sampling.skellam_draws", work.skellam_draws as f64);
    let (enc, dec) = layers::codec_seconds(&layers::frame_shapes(stats, parties));
    report.put("net.wire.encode_s", enc);
    report.put("net.wire.decode_s", dec);
    report.put("net.transport.wait_s", median(&s.wait));
    Counters::of(stats).put(report);
    report.put("linalg.eigen_s", med_or_zero(&s.eigen));
    report.put("linalg.eigen_sweeps", med_or_zero(&s.sweeps));
    report.put("obs.cpath_idle_s", median(&s.cpath_idle));
}

/// The per-op metrics of a batch workload's traced run: what tracing
/// costs, what no layer claims, and the untraced tail.
pub fn put_op_metrics(report: &mut Report, s: &LayerSamples) {
    report.put(
        "obs.trace_overhead",
        median(&s.traced_op) / median(&s.untraced_op),
    );
    report.put("unattributed_s", median(&s.unattributed));
    report.put("latency_p99_ms", percentile(&s.untraced_op, 0.99) * 1e3);
}

/// Deadline helper for closed loops.
pub struct Window {
    end: Instant,
}

impl Window {
    pub fn new(seconds: f64) -> Window {
        Window {
            end: Instant::now() + std::time::Duration::from_secs_f64(seconds),
        }
    }

    pub fn open(&self) -> bool {
        Instant::now() < self.end
    }
}
