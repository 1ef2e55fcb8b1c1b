//! The perf regression gate: diff a fresh [`BenchArtifact`] against the
//! committed baseline.
//!
//! Wall-clock metrics (`median_ns`, `p95_ns`) are compared by *ratio*
//! against per-metric thresholds chosen to ride out shared-runner noise
//! (median 1.5x, p95 3.0x by default). Only the median can *fail* the
//! gate: with few repeats the p95 is close to the max, and a single
//! thread-scheduling spike on a shared runner produces 5-10x p95
//! outliers, so p95 exceedances surface as warnings. The gate is a
//! tripwire for "the round loop got quadratically slower", not a
//! microbenchmark referee.
//! Deterministic metrics (`rounds`, `messages`, `bytes`) are compared
//! *exactly*: the workloads are seeded, so any drift there is a real
//! protocol change and fails regardless of thresholds. `simulated_s`
//! mixes a deterministic latency term with measured wall time, so it is
//! ratio-gated like the median.
//!
//! The gate never silently skips: workloads present in only one side are
//! reported as warnings, and a baseline with an unknown schema version is
//! an error, not a pass.

use std::fmt;

use crate::perf::{BenchArtifact, SCHEMA_VERSION};
use sqm::obs::json::{self, JsonValue};

/// Per-metric relative thresholds (current/baseline ratio above which a
/// wall-clock metric fails).
#[derive(Clone, Debug)]
pub struct GateConfig {
    /// Exceeding this fails the gate.
    pub median_ratio_max: f64,
    /// Exceeding this only warns (the p95 of a small sample is spiky).
    pub p95_ratio_max: f64,
    /// Ignore regressions on runs faster than this: ratios on
    /// nanosecond-scale timings are dominated by timer granularity.
    pub min_baseline_ns: u64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            median_ratio_max: 1.5,
            p95_ratio_max: 3.0,
            min_baseline_ns: 10_000,
        }
    }
}

/// Severity of one comparison result.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    /// Non-comparable (entry missing on one side, sub-threshold timing).
    Warn,
    Fail,
}

/// One compared metric.
#[derive(Clone, Debug)]
pub struct Finding {
    pub suite: String,
    pub entry: String,
    pub metric: &'static str,
    pub baseline: f64,
    pub current: f64,
    pub verdict: Verdict,
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.verdict {
            Verdict::Pass => "PASS",
            Verdict::Warn => "WARN",
            Verdict::Fail => "FAIL",
        };
        write!(
            f,
            "[{tag}] {}/{} {}: {}",
            self.suite, self.entry, self.metric, self.detail
        )
    }
}

/// The gate's aggregate result.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    pub findings: Vec<Finding>,
}

impl GateReport {
    pub fn passed(&self) -> bool {
        !self.findings.iter().any(|f| f.verdict == Verdict::Fail)
    }

    pub fn failures(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.verdict == Verdict::Fail)
    }

    /// Human-readable multi-line rendering (one finding per line, PASS
    /// lines elided unless `verbose`).
    pub fn render(&self, verbose: bool) -> String {
        let mut out = String::new();
        let mut shown = 0usize;
        for finding in &self.findings {
            if !verbose && finding.verdict == Verdict::Pass {
                continue;
            }
            out.push_str(&finding.to_string());
            out.push('\n');
            shown += 1;
        }
        let fails = self.failures().count();
        out.push_str(&format!(
            "gate: {} findings ({} shown), {} failures -> {}\n",
            self.findings.len(),
            shown,
            fails,
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

/// Compare one fresh artifact against its baseline counterpart.
pub fn compare(baseline: &BenchArtifact, current: &BenchArtifact, cfg: &GateConfig) -> GateReport {
    let mut report = GateReport::default();
    let suite = current.suite.clone();
    let push = |report: &mut GateReport,
                entry: &str,
                metric: &'static str,
                baseline: f64,
                current: f64,
                verdict: Verdict,
                detail: String| {
        report.findings.push(Finding {
            suite: suite.clone(),
            entry: entry.to_string(),
            metric,
            baseline,
            current,
            verdict,
            detail,
        });
    };

    if baseline.tier != current.tier {
        push(
            &mut report,
            "*",
            "tier",
            0.0,
            0.0,
            Verdict::Warn,
            format!(
                "tier mismatch (baseline {:?}, current {:?}): wall-clock ratios not comparable",
                baseline.tier, current.tier
            ),
        );
    }

    for cur in &current.entries {
        let Some(base) = baseline.entry(&cur.name) else {
            push(
                &mut report,
                &cur.name,
                "presence",
                0.0,
                0.0,
                Verdict::Warn,
                "entry absent from baseline (new workload?)".to_string(),
            );
            continue;
        };

        // Wall-clock: ratio thresholds. The median gates hard; the p95 is
        // a warn-only tripwire — with few repeats it sits near the max, and
        // one scheduler spike on a shared runner produces 5-10x outliers
        // that say nothing about the code.
        for (metric, base_ns, cur_ns, max_ratio, over) in [
            (
                "median_ns",
                base.median_ns,
                cur.median_ns,
                cfg.median_ratio_max,
                Verdict::Fail,
            ),
            (
                "p95_ns",
                base.p95_ns,
                cur.p95_ns,
                cfg.p95_ratio_max,
                Verdict::Warn,
            ),
        ] {
            if base_ns < cfg.min_baseline_ns {
                push(
                    &mut report,
                    &cur.name,
                    metric,
                    base_ns as f64,
                    cur_ns as f64,
                    Verdict::Warn,
                    format!(
                        "baseline {base_ns}ns below {}ns floor, skipped",
                        cfg.min_baseline_ns
                    ),
                );
                continue;
            }
            let ratio = cur_ns as f64 / base_ns as f64;
            let verdict = if ratio <= max_ratio {
                Verdict::Pass
            } else {
                over
            };
            push(
                &mut report,
                &cur.name,
                metric,
                base_ns as f64,
                cur_ns as f64,
                verdict,
                format!("{base_ns}ns -> {cur_ns}ns (x{ratio:.2}, limit x{max_ratio:.2})"),
            );
        }

        // Deterministic counters: exact.
        for (metric, base_v, cur_v) in [
            ("rounds", base.rounds, cur.rounds),
            ("messages", base.messages, cur.messages),
            ("bytes", base.bytes, cur.bytes),
        ] {
            let verdict = if base_v == cur_v {
                Verdict::Pass
            } else {
                Verdict::Fail
            };
            push(
                &mut report,
                &cur.name,
                metric,
                base_v as f64,
                cur_v as f64,
                verdict,
                format!("{base_v} -> {cur_v} (deterministic, must match exactly)"),
            );
        }

        // Critical path: same deterministic-latency/measured-wall mix as
        // simulated_s, so the same ratio gate — but only when both sides
        // measured it (a zero means the workload ran untraced, e.g. a
        // baseline written before causal stamping existed).
        if base.critical_path_s > 0.0 && cur.critical_path_s > 0.0 {
            let ratio = cur.critical_path_s / base.critical_path_s;
            let verdict = if ratio <= cfg.median_ratio_max {
                Verdict::Pass
            } else {
                Verdict::Fail
            };
            push(
                &mut report,
                &cur.name,
                "critical_path_s",
                base.critical_path_s,
                cur.critical_path_s,
                verdict,
                format!(
                    "{:.3}s -> {:.3}s (x{ratio:.2}, limit x{:.2})",
                    base.critical_path_s, cur.critical_path_s, cfg.median_ratio_max
                ),
            );
        }

        // Simulated time: latency term is deterministic, wall term is not;
        // ratio-gate it (a changed round count already failed above).
        if base.simulated_s > 0.0 {
            let ratio = cur.simulated_s / base.simulated_s;
            let verdict = if ratio <= cfg.median_ratio_max {
                Verdict::Pass
            } else {
                Verdict::Fail
            };
            push(
                &mut report,
                &cur.name,
                "simulated_s",
                base.simulated_s,
                cur.simulated_s,
                verdict,
                format!(
                    "{:.3}s -> {:.3}s (x{ratio:.2}, limit x{:.2})",
                    base.simulated_s, cur.simulated_s, cfg.median_ratio_max
                ),
            );
        }
    }

    for base in &baseline.entries {
        if current.entry(&base.name).is_none() {
            push(
                &mut report,
                &base.name,
                "presence",
                0.0,
                0.0,
                Verdict::Warn,
                "entry in baseline but missing from this run (workload removed?)".to_string(),
            );
        }
    }

    report
}

/// The committed baseline file: a map from suite name to its reference
/// artifact (`{"schema_version":1,"suites":{"micro":{...},...}}`).
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    pub suites: Vec<BenchArtifact>,
}

impl Baseline {
    pub fn from_json_str(text: &str) -> Result<Baseline, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let version = doc
            .get("schema_version")
            .and_then(JsonValue::as_u64)
            .ok_or("baseline missing schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "baseline schema_version {version} unsupported (expected {SCHEMA_VERSION})"
            ));
        }
        let suites = doc
            .get("suites")
            .and_then(JsonValue::as_obj)
            .ok_or("baseline missing \"suites\" object")?
            .values()
            .map(BenchArtifact::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Baseline { suites })
    }

    pub fn suite(&self, name: &str) -> Option<&BenchArtifact> {
        self.suites.iter().find(|a| a.suite == name)
    }

    /// Serialize in the committed-file format.
    pub fn to_json_string(&self) -> String {
        use serde::Serialize;
        let mut out = String::new();
        out.push_str("{\"schema_version\":");
        out.push_str(&SCHEMA_VERSION.to_string());
        out.push_str(",\"suites\":{");
        for (i, artifact) in self.suites.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            serde::json::write_str(&mut out, &artifact.suite);
            out.push(':');
            artifact.write_json(&mut out);
        }
        out.push_str("}}\n");
        out
    }
}

/// Gate a set of fresh artifacts against a baseline. Suites without a
/// baseline counterpart produce a warning, not a pass.
pub fn gate_artifacts(
    baseline: &Baseline,
    artifacts: &[BenchArtifact],
    cfg: &GateConfig,
) -> GateReport {
    let mut report = GateReport::default();
    for artifact in artifacts {
        match baseline.suite(&artifact.suite) {
            Some(base) => report
                .findings
                .extend(compare(base, artifact, cfg).findings),
            None => report.findings.push(Finding {
                suite: artifact.suite.clone(),
                entry: "*".to_string(),
                metric: "presence",
                baseline: 0.0,
                current: 0.0,
                verdict: Verdict::Warn,
                detail: "suite has no baseline entry; run with --write-baseline to add it"
                    .to_string(),
            }),
        }
    }
    report
}

/// Self-test: prove the gate detects a synthetic 2x slowdown and passes
/// an identical re-run. Returns an error string on any miss so callers
/// (the `sqm-perf` binary, CI) can fail loudly.
pub fn self_test(artifact: &BenchArtifact, cfg: &GateConfig) -> Result<(), String> {
    // Identical re-run must pass.
    let identical = compare(artifact, artifact, cfg);
    if !identical.passed() {
        return Err(format!(
            "gate self-test: identical artifacts failed:\n{}",
            identical.render(false)
        ));
    }

    // A synthetic 2x wall-clock slowdown must be flagged on at least one
    // gated (above-floor) entry — and on *every* gated entry's median,
    // since 2.0 > the 1.5x default threshold.
    let mut slowed = artifact.clone();
    for entry in &mut slowed.entries {
        entry.median_ns *= 2;
        entry.p95_ns *= 4; // exceed the (warn-only) p95 threshold too
    }
    let gated_entries = artifact
        .entries
        .iter()
        .filter(|e| e.median_ns >= cfg.min_baseline_ns)
        .count();
    if gated_entries == 0 {
        return Err(
            "gate self-test: no entry exceeds the timing floor; suite too small to gate"
                .to_string(),
        );
    }
    let report = compare(artifact, &slowed, cfg);
    let median_fails = report
        .failures()
        .filter(|f| f.metric == "median_ns")
        .count();
    if median_fails != gated_entries {
        return Err(format!(
            "gate self-test: 2x slowdown flagged on {median_fails}/{gated_entries} entries:\n{}",
            report.render(false)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{measure, RunCost, Tier};

    fn toy_artifact() -> BenchArtifact {
        let mut artifact = crate::perf::run_micro(Tier::Small);
        // Shrink to one synthetic, stable entry for threshold tests.
        artifact.entries = vec![measure("busy", Tier::Small, || {
            std::hint::black_box((0..20_000u64).map(|v| v.wrapping_mul(v)).sum::<u64>());
            RunCost::default()
        })];
        artifact.entries[0].median_ns = 1_000_000;
        artifact.entries[0].p95_ns = 1_200_000;
        artifact
    }

    #[test]
    fn identical_artifacts_pass() {
        let a = toy_artifact();
        let report = compare(&a, &a, &GateConfig::default());
        assert!(report.passed(), "{}", report.render(true));
    }

    #[test]
    fn synthetic_2x_slowdown_fails_and_self_test_catches_it() {
        let a = toy_artifact();
        let mut slow = a.clone();
        slow.entries[0].median_ns *= 2;
        let report = compare(&a, &slow, &GateConfig::default());
        assert!(!report.passed());
        assert!(report.failures().any(|f| f.metric == "median_ns"));
        // And the packaged self-test agrees end to end.
        self_test(&a, &GateConfig::default()).unwrap();
    }

    #[test]
    fn deterministic_counter_drift_fails_exactly() {
        let a = toy_artifact();
        let mut drifted = a.clone();
        drifted.entries[0].bytes += 1;
        let report = compare(&a, &drifted, &GateConfig::default());
        assert!(report.failures().any(|f| f.metric == "bytes"));
        // A within-threshold wall-clock wobble alone still passes.
        let mut wobble = a.clone();
        wobble.entries[0].median_ns = (wobble.entries[0].median_ns as f64 * 1.3) as u64;
        assert!(compare(&a, &wobble, &GateConfig::default()).passed());
    }

    #[test]
    fn critical_path_gated_by_ratio_only_when_both_measured() {
        let mut a = toy_artifact();
        a.entries[0].critical_path_s = 0.4;
        let mut slow = a.clone();
        slow.entries[0].critical_path_s = 1.0; // x2.5 > the 1.5x limit
        let report = compare(&a, &slow, &GateConfig::default());
        assert!(report.failures().any(|f| f.metric == "critical_path_s"));
        // An untraced side (0.0) is non-comparable, never a failure.
        let mut unmeasured = a.clone();
        unmeasured.entries[0].critical_path_s = 0.0;
        let report = compare(&unmeasured, &slow, &GateConfig::default());
        assert!(
            !report
                .findings
                .iter()
                .any(|f| f.metric == "critical_path_s"),
            "{}",
            report.render(true)
        );
    }

    #[test]
    fn missing_and_new_entries_warn_not_fail() {
        let a = toy_artifact();
        let mut renamed = a.clone();
        renamed.entries[0].name = "renamed".to_string();
        let report = compare(&a, &renamed, &GateConfig::default());
        assert!(report.passed());
        let warns: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.verdict == Verdict::Warn)
            .collect();
        assert_eq!(warns.len(), 2, "one absent-from-baseline, one removed");
    }

    #[test]
    fn p95_spike_warns_but_does_not_fail() {
        let a = toy_artifact();
        let mut spiky = a.clone();
        spiky.entries[0].p95_ns *= 10; // one scheduler hiccup, median untouched
        let report = compare(&a, &spiky, &GateConfig::default());
        assert!(report.passed(), "{}", report.render(true));
        assert!(report
            .findings
            .iter()
            .any(|f| f.metric == "p95_ns" && f.verdict == Verdict::Warn));
    }

    #[test]
    fn sub_floor_timings_are_skipped() {
        let mut a = toy_artifact();
        a.entries[0].median_ns = 100; // below the 10us floor
        a.entries[0].p95_ns = 120;
        let mut slow = a.clone();
        slow.entries[0].median_ns = 1_000; // 10x, but sub-floor
        let report = compare(&a, &slow, &GateConfig::default());
        assert!(report.passed(), "{}", report.render(true));
        assert!(report.findings.iter().any(|f| f.verdict == Verdict::Warn));
    }

    #[test]
    fn baseline_file_roundtrip_and_gate() {
        let baseline = Baseline {
            suites: vec![toy_artifact()],
        };
        let text = baseline.to_json_string();
        let back = Baseline::from_json_str(&text).unwrap();
        assert_eq!(back.suites.len(), 1);
        let report = gate_artifacts(&back, &[toy_artifact()], &GateConfig::default());
        assert!(report.passed(), "{}", report.render(true));
        // Unknown suite warns.
        let mut other = toy_artifact();
        other.suite = "unknown".to_string();
        let report = gate_artifacts(&back, &[other], &GateConfig::default());
        assert!(report.passed());
        assert!(report.findings.iter().any(|f| f.verdict == Verdict::Warn));
    }

    #[test]
    fn bad_baseline_schema_is_an_error() {
        assert!(Baseline::from_json_str("{}").is_err());
        assert!(Baseline::from_json_str("{\"schema_version\":99,\"suites\":{}}").is_err());
        assert!(Baseline::from_json_str("not json").is_err());
    }
}
