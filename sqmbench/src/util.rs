//! Shared helpers: order statistics, the result line, timing, RSS.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// End-to-end metrics (`--trace 0`), with units, as `BENCHMARK.json`
/// lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_s", "s"),
    ("op_tail_s", "s"),
    ("paper_time_s", "s"),
    ("wire_bytes", "bytes"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("max_rate_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with units, as `BENCHMARK.json` lists
/// them. A layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("accounting.calibrate_s", "s"),
    ("vfl.release_s", "s"),
    ("mpc.engine.other_s", "s"),
    ("core.quantize.busy_s", "s"),
    ("core.quantize.values", "count"),
    ("mpc.shamir.share_busy_s", "s"),
    ("mpc.shamir.share_elems", "count"),
    ("mpc.local_busy_s", "s"),
    ("mpc.local_field_muls", "count"),
    ("mpc.recombine_busy_s", "s"),
    ("mpc.recombine.kernel_s", "s"),
    ("sampling.skellam_busy_s", "s"),
    ("sampling.skellam_draws", "count"),
    ("net.wire.encode_s", "s"),
    ("net.wire.decode_s", "s"),
    ("net.transport.wait_s", "s"),
    ("net.messages", "count"),
    ("net.bytes", "bytes"),
    ("mpc.rounds", "count"),
    ("mpc.elems", "count"),
    ("linalg.eigen_s", "s"),
    ("linalg.eigen_sweeps", "count"),
    ("obs.cpath_idle_s", "s"),
    ("serve.queue_p50_s", "s"),
    ("serve.queue_p99_s", "s"),
    ("serve.admit_s", "s"),
    ("serve.mpc_s", "s"),
    ("serve.encode_s", "s"),
    ("serve.ingest_s", "s"),
    ("serve.queue_depth_max", "count"),
    ("serve.overloaded", "count"),
    ("gen.lag_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("obs.trace_overhead", "ratio"),
    ("unattributed_s", "s"),
];

/// The metric values of one run, keyed by name.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Set a metric; the name must be one of [`END_TO_END`] or [`PER_LAYER`].
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every checked output matched its oracle and every counter repeated.
    pub correct: bool,
    pub report: Report,
}

/// Failure bookkeeping shared by the workloads: one entry per checked op
/// (or refused request); every mismatch is one failed op and a line on
/// stderr.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("sqmbench: FAILED: {why}");
        }
    }

    /// Record one op whose output check returned `check`.
    pub fn check(&mut self, check: Result<(), String>) {
        match check {
            Ok(()) => self.ok(),
            Err(why) => self.fail(&why),
        }
    }
}

/// Median of a sample (mean of the two middle values for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile with the repo's canonical index rule
/// (`round((len - 1) * p)`, `sqm_obs::metrics::nearest_rank_index`).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[sqm_obs::metrics::nearest_rank_index(v.len(), p)]
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Run `f` and return its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Derive an independent sub-seed from the run seed and a label, so every
/// input of a run is a function of `--seed` alone.
pub fn sub_seed(seed: u64, label: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.gen::<u64>()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Cumulative steal time of all CPUs in jiffies (`/proc/stat`), if known.
pub fn steal_jiffies() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Bitwise equality of two f64 slices, reporting the first difference.
pub fn bits_equal(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: length {} != {}", got.len(), want.len()));
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: element {i} is {} but the oracle gives {}",
            got[i], want[i]
        )),
    }
}

/// The exact per-op counters the engine reports; they depend only on the
/// workload's shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counters {
    pub rounds: u64,
    pub messages: u64,
    pub bytes: u64,
    pub elems: u64,
}

impl Counters {
    pub fn of(stats: &sqm_mpc::RunStats) -> Counters {
        Counters {
            rounds: stats.total.rounds,
            messages: stats.total.messages,
            bytes: stats.total.bytes,
            elems: stats.total.elems,
        }
    }

    /// Compare with the values recorded for this shape. A difference is not
    /// an op failure (a change to the wire format may legitimately move
    /// them) but it is printed loudly so it cannot pass unnoticed.
    pub fn warn_if_not(&self, workload: &str, recorded: Counters) {
        if *self != recorded {
            eprintln!(
                "sqmbench: COUNTERS CHANGED for {workload}: measured {self:?}, recorded {recorded:?}"
            );
        }
    }

    pub fn put(&self, report: &mut Report) {
        report.put("mpc.rounds", self.rounds as f64);
        report.put("net.messages", self.messages as f64);
        report.put("net.bytes", self.bytes as f64);
        report.put("mpc.elems", self.elems as f64);
    }
}

/// Keeps the counters of the first op and fails every later op whose
/// counters differ (they must repeat exactly within a run).
#[derive(Default)]
pub struct CounterGate {
    first: Option<Counters>,
}

impl CounterGate {
    pub fn check(&mut self, c: Counters) -> Result<(), String> {
        match self.first {
            None => {
                self.first = Some(c);
                Ok(())
            }
            Some(f) if f == c => Ok(()),
            Some(f) => Err(format!(
                "counters {c:?} differ from the run's first op {f:?}"
            )),
        }
    }

    pub fn get(&self) -> Option<Counters> {
        self.first
    }
}

/// Render the result line: fixed key order, every number with all its
/// digits (Rust's shortest round-trip float formatting, never an exponent).
/// With `trace` the metrics are [`PER_LAYER`] (absent layers report 0),
/// otherwise [`END_TO_END`] (all required).
pub fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let spec = if trace { PER_LAYER } else { END_TO_END };
    let mut parts = Vec::with_capacity(spec.len());
    for &(name, unit) in spec {
        let value = match outcome.report.values.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        parts.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_the_canonical_rank() {
        let xs: Vec<f64> = (0..67).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.99), 65.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    /// The metric lists here and in `BENCHMARK.json` name the same metrics
    /// with the same units, and every listed workload's recorded counters
    /// appear in its `why`.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let flat: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(flat.matches("\"bound\":").count(), END_TO_END.len());
        assert_eq!(
            flat.matches("\"better\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for (workload, c) in [
            ("pca_paper", crate::pca::RECORDED),
            ("lr_clients", crate::lr::RECORDED),
        ] {
            let start = text.find(&format!("\"name\": \"{workload}\"")).unwrap();
            let why = &text[start..text[start..].find('}').unwrap() + start];
            for n in [c.rounds, c.messages, c.bytes, c.elems] {
                assert!(why.contains(&n.to_string()), "{workload}: {n} not in {why}");
            }
        }
    }

    #[test]
    fn result_line_rejects_non_finite_metrics() {
        let mut report = Report::default();
        for (name, _) in END_TO_END {
            report.put(name, 1.0);
        }
        report.put("op_s", f64::NAN);
        let outcome = Outcome {
            attempted: 1,
            failed: 0,
            correct: true,
            report,
        };
        assert!(result_line(&outcome, false).is_err());
        // Layers a workload does not exercise report 0.
        let line = result_line(&outcome, true).unwrap();
        assert!(line.contains("\"serve.ingest_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }
}
