//! `serve_mix`: `sqm-serve` through `Server::submit`. Four tenants, each
//! with 32 columns over P = 3 parties, every arrival a 64-row `Ingest`
//! followed by a `Release` on the same tenant, two workers, and an
//! unlimited privacy budget so nothing is refused.
//!
//! A run has two measured phases, each on a fresh server (its start-up is
//! one `setup_s` sample), after an untimed warm-up:
//!
//! 1. open loop at [`FIXED_RATE`]: release latency from the due time to
//!    the reply (`op_s`, `op_tail_s`, `latency_p50_ms`, `latency_p90_ms`);
//! 2. open loop up the [`LADDER`] of rates until a step misses the p99
//!    limit, fails a request or ends with a backlog (`max_rate_per_s`).
//!
//! There is no closed loop: on a 2-vCPU VM the idle-server release time
//! switched between modes up to 40% apart from run to run (thread wake-ups
//! on idle virtual CPUs), while the light-load open-loop median held
//! within a few percent.
//!
//! Open-loop timing: one generator thread submits arrival `k` at
//! `t0 + k / rate` and stamps it with that due time; a request that is
//! submitted late still counts its latency from when it was due. Replies
//! are collected by one waiter per tenant. A tenant's requests run in
//! submission order, so each waiter sees its tickets complete in the order
//! it waits on them and never reports a reply later than it arrived; a
//! single waiter taking every ticket in submission order would charge a
//! fast reply the wait for every slower reply submitted before it.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use sqm_linalg::Matrix;
use sqm_obs::span::SpanConfig;
use sqm_serve::{Reply, Request, ServeError, Server, ServerConfig, TenantConfig, Ticket};
use sqm_vfl::{covariance_streaming_oracle, ColumnPartition, StreamCov, VflConfig};

use crate::batch::{self, LayerSamples, WorkCounts};
use crate::layers;
use crate::util::{
    bits_equal, median, peak_rss_mib, percentile, secs, sub_seed, CounterGate, Counters, Outcome,
    Report, Tally,
};

const TENANTS: usize = 4;
const N_COLS: usize = 32;
const P: usize = 3;
const ROWS: usize = 64;
const WORKERS: usize = 2;
const GAMMA: f64 = 64.0;
const MU: f64 = 1e4;
/// Distinct record batches per run; tenant `t`'s `k`-th ingest uses batch
/// `(k + 7 t) mod POOL`.
const POOL: usize = 32;
const QUEUE_BOUND: usize = 1024;

/// Offered load of the fixed-rate phase, releases (and ingests) per second.
pub const FIXED_RATE: f64 = 200.0;
/// Offered loads of the ladder, releases per second, ascending.
pub const LADDER: &[f64] = &[
    800.0, 900.0, 1000.0, 1100.0, 1200.0, 1300.0, 1400.0, 1500.0, 1600.0, 1800.0,
];
/// A ladder step passes while its release p99 stays within this limit.
pub const P99_LIMIT_MS: f64 = 50.0;

/// Per-release counters at this shape (also recorded in `BENCHMARK.json`).
pub const RECORDED: Counters = Counters {
    rounds: 4,
    messages: 24,
    bytes: 108_800,
    elems: 13_600,
};

/// Share of `--seconds` spent in the fixed-rate phase; the ladder gets the
/// rest.
const FIXED_SHARE: f64 = 0.55;
/// Untimed open-loop warm-up at the fixed rate before the first measured
/// phase, seconds.
const WARMUP_S: f64 = 1.0;
/// Length of one ladder step as a share of `--seconds`.
const STEP_SHARE: f64 = 0.05;

struct Plan {
    seed: u64,
    batches: Vec<Matrix>,
    records: Vec<Vec<Vec<f64>>>,
}

impl Plan {
    fn new(seed: u64) -> Plan {
        let batches: Vec<Matrix> = (0..POOL)
            .map(|b| {
                sqm_datasets::synthetic::SpectralSpec::new(ROWS, N_COLS)
                    .with_seed(sub_seed(seed, 100 + b as u64))
                    .generate()
            })
            .collect();
        let records = batches
            .iter()
            .map(|m| (0..m.rows()).map(|i| m.row(i).to_vec()).collect())
            .collect();
        Plan {
            seed,
            batches,
            records,
        }
    }

    fn batch_of(&self, tenant: usize, k: usize) -> usize {
        (k + 7 * tenant) % POOL
    }

    fn tenant_seed(&self, tenant: usize) -> u64 {
        sub_seed(self.seed, 500 + tenant as u64)
    }

    fn tenant(&self, tenant: usize, traced: bool) -> TenantConfig {
        let mut cfg = TenantConfig::new(&name(tenant));
        cfg.n_cols = N_COLS;
        cfg.n_clients = P;
        cfg.gamma = GAMMA;
        cfg.mu = MU;
        cfg.budget_eps = f64::INFINITY;
        cfg.seed = self.tenant_seed(tenant);
        cfg.max_rows = 1 << 22;
        cfg.max_row_norm = 1.0;
        cfg.request_tracing = traced;
        cfg
    }

    /// Start a server with every tenant added; returns it with the time
    /// that took (one `setup_s` sample).
    fn server(&self, traced: bool) -> Result<(Arc<Server>, f64), String> {
        let t0 = Instant::now();
        let server = Server::start(ServerConfig {
            queue_bound: QUEUE_BOUND,
            workers: WORKERS,
            tracing: traced.then(|| SpanConfig {
                retain_cap: 1 << 22,
                ..SpanConfig::dump_all()
            }),
        });
        for t in 0..TENANTS {
            server
                .add_tenant(self.tenant(t, traced))
                .map_err(|e| format!("add_tenant {t}: {e}"))?;
        }
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    /// The oracle's release `index` (1-based) of `tenant`, covering its
    /// first `ingests` batches, as the server down-scales it.
    fn oracle(&self, tenant: usize, ingests: usize, index: usize) -> Vec<f64> {
        let batches: Vec<Matrix> = (0..ingests)
            .map(|k| self.batches[self.batch_of(tenant, k)].clone())
            .collect();
        let cfg = VflConfig::fast(P).with_seed(self.tenant_seed(tenant));
        let partition = ColumnPartition::even(N_COLS, P);
        let c_hat = covariance_streaming_oracle(&batches, &partition, GAMMA, MU, &cfg, index - 1);
        c_hat
            .as_slice()
            .iter()
            .map(|v| v / (GAMMA * GAMMA))
            .collect()
    }
}

fn name(tenant: usize) -> String {
    format!("t{tenant}")
}

/// One reply kept for the oracle.
struct Sample {
    tenant: usize,
    ingests: usize,
    index: usize,
    covariance: Vec<f64>,
}

/// Everything a phase observed.
#[derive(Default)]
struct PhaseResult {
    /// (due offset in the phase, latency) of every release, seconds.
    latencies: Vec<(f64, f64)>,
    /// Submit lag behind the due time, seconds.
    lags: Vec<f64>,
    paper: Vec<f64>,
    /// Covariance digest per (tenant, release index).
    digests: BTreeMap<(usize, usize), u64>,
    samples: Vec<Sample>,
    counters: Vec<Counters>,
    overloaded: u64,
    errors: Vec<String>,
    /// Releases still queued when the last one was submitted.
    backlog_at_end: usize,
}

struct Arrival {
    due: Instant,
    ingests: usize,
    ingest: Ticket,
    release: Ticket,
}

fn digest(v: &[f64]) -> u64 {
    v.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Wait on one tenant's tickets in order, recording each release.
fn waiter(tenant: usize, t0: Instant, rx: mpsc::Receiver<Arrival>) -> PhaseResult {
    let mut r = PhaseResult::default();
    let mut last = None;
    while let Ok(a) = rx.recv() {
        match a.ingest.wait() {
            Ok(Reply::Ingested { .. }) => {}
            other => r.errors.push(format!("tenant {tenant} ingest: {other:?}")),
        }
        let reply = a.release.wait();
        let done = Instant::now();
        match reply {
            Ok(Reply::Released(rep)) => {
                r.latencies.push((
                    secs(a.due - t0),
                    secs(done.saturating_duration_since(a.due)),
                ));
                r.paper.push(secs(
                    rep.stats.total.simulated_time(Duration::from_millis(100)),
                ));
                r.counters.push(Counters::of(&rep.stats));
                r.digests
                    .insert((tenant, rep.release_index), digest(&rep.covariance));
                let sample = Sample {
                    tenant,
                    ingests: a.ingests,
                    index: rep.release_index,
                    covariance: rep.covariance,
                };
                if sample.index == 1 {
                    r.samples.push(sample);
                } else {
                    last = Some(sample);
                }
            }
            other => r.errors.push(format!("tenant {tenant} release: {other:?}")),
        }
    }
    r.samples.extend(last);
    r
}

fn merge(parts: Vec<PhaseResult>) -> PhaseResult {
    let mut out = PhaseResult::default();
    for p in parts {
        out.latencies.extend(p.latencies);
        out.lags.extend(p.lags);
        out.paper.extend(p.paper);
        out.digests.extend(p.digests);
        out.samples.extend(p.samples);
        out.counters.extend(p.counters);
        out.overloaded += p.overloaded;
        out.errors.extend(p.errors);
        out.backlog_at_end = out.backlog_at_end.max(p.backlog_at_end);
    }
    out
}

/// Offer `rate` arrivals per second for `duration` seconds.
fn open_loop(server: &Server, plan: &Plan, rate: f64, duration: f64) -> PhaseResult {
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut gen = PhaseResult::default();
    let waited = thread::scope(|s| {
        let mut senders = Vec::with_capacity(TENANTS);
        let mut handles = Vec::with_capacity(TENANTS);
        for t in 0..TENANTS {
            let (tx, rx) = mpsc::channel::<Arrival>();
            senders.push(tx);
            handles.push(s.spawn(move || waiter(t, t0, rx)));
        }
        let mut ingests = [0usize; TENANTS];
        for k in 0usize.. {
            let offset = k as f64 / rate;
            if offset >= duration {
                break;
            }
            let due = t0 + Duration::from_secs_f64(offset);
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let t = k % TENANTS;
            let records = plan.records[plan.batch_of(t, ingests[t])].clone();
            gen.lags
                .push(secs(Instant::now().saturating_duration_since(due)));
            // The first refusal ends the phase: a release refused after its
            // ingest was admitted would make the tenant's next release
            // cover two batches (more rounds than the shape's counters).
            let ingest = match server.submit(&name(t), Request::Ingest { records }) {
                Ok(ticket) => ticket,
                Err(e) => {
                    note_refusal(&mut gen, t, e);
                    break;
                }
            };
            ingests[t] += 1;
            match server.submit(&name(t), Request::Release) {
                Ok(release) => {
                    let arrival = Arrival {
                        due,
                        ingests: ingests[t],
                        ingest,
                        release,
                    };
                    senders[t].send(arrival).expect("waiter alive");
                }
                Err(e) => {
                    note_refusal(&mut gen, t, e);
                    break;
                }
            }
        }
        gen.backlog_at_end = server.queue_depth();
        drop(senders);
        handles
            .into_iter()
            .map(|h| h.join().expect("waiter thread"))
            .collect::<Vec<_>>()
    });
    let mut parts = waited;
    parts.push(gen);
    merge(parts)
}

fn note_refusal(r: &mut PhaseResult, tenant: usize, e: ServeError) {
    match e {
        ServeError::Overloaded { .. } => r.overloaded += 1,
        other => r.errors.push(format!("tenant {tenant} submit: {other}")),
    }
}

/// Per-second windows of the phase: the median over windows of each
/// window's `p` latency percentile, in seconds. Windows are taken by due
/// time, so a backlog shows in the window that caused it.
fn windowed(latencies: &[(f64, f64)], p: f64) -> f64 {
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(due, lat) in latencies {
        windows.entry(due as u64).or_default().push(lat);
    }
    let per: Vec<f64> = windows.values().map(|w| percentile(w, p)).collect();
    median(&per)
}

/// One op per release (its counters must repeat the run's first), one per
/// sampled release re-derived by the streaming oracle (bit-exact), and one
/// failed op per error the phase saw.
fn gate(plan: &Plan, result: &PhaseResult, counters: &mut CounterGate, tally: &mut Tally) {
    for &c in &result.counters {
        tally.check(counters.check(c));
    }
    for s in &result.samples {
        let want = plan.oracle(s.tenant, s.ingests, s.index);
        let what = format!("tenant {} release {}", s.tenant, s.index);
        tally.check(bits_equal(&what, &s.covariance, &want));
    }
    for e in &result.errors {
        tally.fail(e);
    }
}

/// Judge one ladder step: its release p99 (ms), the release throughput
/// it achieved (completions over the time from the first due time to the
/// last reply), and whether it passed — p99 within the limit, no refusal
/// or error, and no backlog still growing at the end (the last tenth of its
/// releases has a median within the limit).
fn judge(step: &PhaseResult) -> (f64, f64, bool) {
    let lat: Vec<f64> = step.latencies.iter().map(|l| l.1).collect();
    if lat.is_empty() {
        return (f64::INFINITY, 0.0, false);
    }
    let p99_ms = percentile(&lat, 0.99) * 1e3;
    let span = step
        .latencies
        .iter()
        .map(|(due, lat)| due + lat)
        .fold(0.0, f64::max);
    let achieved = lat.len() as f64 / span;
    let tail = &lat[lat.len() - lat.len() / 10..];
    let draining = !tail.is_empty() && median(tail) * 1e3 > P99_LIMIT_MS;
    let ok = p99_ms <= P99_LIMIT_MS && step.overloaded == 0 && step.errors.is_empty() && !draining;
    (p99_ms, achieved, ok)
}

/// Highest sustainable rate. The ladder brackets it between the last
/// passing step and the first failing one; inside the bracket it is the
/// throughput the failing step achieved, which is the server's capacity
/// once a backlog builds. Without a failing step it is the top rung.
fn max_rate(steps: &[(f64, f64, bool)]) -> f64 {
    let mut floor = 0.0;
    for &(rate, achieved, ok) in steps {
        if !ok {
            return achieved.clamp(floor, rate);
        }
        floor = rate;
    }
    floor
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let plan = Plan::new(seed);
    let mut tally = Tally::default();
    let mut counters = CounterGate::default();
    let mut report = Report::default();
    if trace {
        traced(&plan, seconds, &mut tally, &mut counters, &mut report)?;
    } else {
        untraced(&plan, seconds, &mut tally, &mut counters, &mut report)?;
    }
    if let Some(c) = counters.get() {
        c.warn_if_not("serve_mix", RECORDED);
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.failed == 0,
        report,
    })
}

fn untraced(
    plan: &Plan,
    seconds: f64,
    tally: &mut Tally,
    counters: &mut CounterGate,
    report: &mut Report,
) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut checked = Vec::new();

    let (warm, _) = plan.server(false)?;
    open_loop(&warm, plan, FIXED_RATE, WARMUP_S);
    warm.shutdown();

    let (server, setup) = plan.server(false)?;
    setups.push(setup);
    let fixed = open_loop(&server, plan, FIXED_RATE, seconds * FIXED_SHARE);
    server.shutdown();
    if fixed.overloaded > 0 {
        tally.fail(&format!(
            "{} overloaded at the fixed rate",
            fixed.overloaded
        ));
    }

    // The ladder's last step runs past saturation and its backlog would
    // dominate the peak; the ladder is a probe, so RSS is read before it.
    let rss = peak_rss_mib();

    let ladder_s = seconds * (1.0 - FIXED_SHARE);
    let ladder_end = Instant::now() + Duration::from_secs_f64(ladder_s);
    let step_s = seconds * STEP_SHARE;
    let mut steps = Vec::new();
    for &rate in LADDER {
        if Instant::now() >= ladder_end && !steps.is_empty() {
            break;
        }
        // A failing step is run once more before the ladder stops, so one
        // scheduling hiccup on a shared machine does not end the climb.
        let mut best: Option<(f64, f64, bool)> = None;
        for _attempt in 0..2 {
            let (server, setup) = plan.server(false)?;
            setups.push(setup);
            let mut step = open_loop(&server, plan, rate, step_s);
            server.shutdown();
            let (p99_ms, achieved, ok) = judge(&step);
            eprintln!(
                "sqmbench: serve ladder {rate}/s: p99 {p99_ms:.2} ms, achieved {achieved:.0}/s, \
                 overloaded {}, backlog {}, {}",
                step.overloaded,
                step.backlog_at_end,
                if ok { "pass" } else { "fail" }
            );
            // Overload past saturation is the probe's answer, not a failed
            // op; only the first release of each tenant is checked.
            step.samples.retain(|s| s.index == 1);
            step.overloaded = 0;
            checked.push(step);
            if best.is_none_or(|(p, _, _)| p99_ms < p) {
                best = Some((p99_ms, achieved, ok));
            }
            if ok {
                break;
            }
        }
        let (_, achieved, ok) = best.expect("at least one attempt");
        steps.push((rate, achieved, ok));
        if !ok {
            break;
        }
    }
    gate(plan, &fixed, counters, tally);
    for step in &checked {
        gate(plan, step, counters, tally);
    }
    let c = counters.get().ok_or("no release completed")?;
    let fixed_lat: Vec<f64> = fixed.latencies.iter().map(|l| l.1).collect();
    eprintln!(
        "sqmbench: {} fixed-rate releases over {:.0} one-second windows, {} ladder steps, \
         {} server set-ups",
        fixed_lat.len(),
        seconds * FIXED_SHARE,
        steps.len(),
        setups.len()
    );
    report.put("setup_s", median(&setups));
    report.put("op_s", median(&fixed_lat));
    report.put("op_tail_s", percentile(&fixed_lat, batch::TAIL_P));
    report.put("paper_time_s", median(&fixed.paper));
    report.put("wire_bytes", c.bytes as f64);
    report.put("latency_p50_ms", windowed(&fixed.latencies, 0.5) * 1e3);
    report.put("latency_p90_ms", windowed(&fixed.latencies, 0.9) * 1e3);
    report.put("max_rate_per_s", max_rate(&steps));
    report.put("peak_rss_mb", rss);
    report.put("ok_frac", batch::ok_frac(tally));
    Ok(())
}

fn traced(
    plan: &Plan,
    seconds: f64,
    tally: &mut Tally,
    counters: &mut CounterGate,
    report: &mut Report,
) -> Result<(), String> {
    // The same fixed-rate phase untraced and traced: identical releases,
    // and the latency ratio is the tracing overhead.
    let phase_s = seconds * 0.4;
    let (server, _) = plan.server(false)?;
    let plain = open_loop(&server, plan, FIXED_RATE, phase_s);
    server.shutdown();
    let (server, _) = plan.server(true)?;
    let traced = open_loop(&server, plan, FIXED_RATE, phase_s);
    server.shutdown();
    gate(plan, &plain, counters, tally);
    gate(plan, &traced, counters, tally);
    for (key, d) in &traced.digests {
        match plain.digests.get(key) {
            Some(p) if p == d => tally.ok(),
            Some(_) => tally.fail(&format!("traced release {key:?} differs from untraced")),
            None => {}
        }
    }
    if traced.digests.len() != plain.digests.len() {
        tally.fail("traced and untraced phases released different counts");
    }
    if plain.overloaded + traced.overloaded > 0 {
        tally.fail("overloaded at the fixed rate");
    }

    let spans = server
        .spans()
        .ok_or("traced server has no span collector")?;
    let mut queue = Vec::new();
    let (mut admit, mut mpc, mut encode, mut ingest, mut unattributed) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for req in spans.slow_requests() {
        let d = |name: &str| req.span(name).map_or(0.0, |s| secs(s.duration));
        if req.kind == "ingest" {
            ingest.push(d("exec"));
            continue;
        }
        queue.push(d("queue"));
        admit.push(d("admit"));
        mpc.push(d("mpc"));
        encode.push(d("encode"));
        unattributed.push(secs(req.duration()) - d("queue") - d("admit") - d("mpc") - d("encode"));
    }
    if queue.is_empty() {
        return Err("the traced phase recorded no release spans".into());
    }

    // Per-phase split of the same release shape, driven directly through
    // the tenant's streaming session type with the engine trace on.
    let mut s = LayerSamples::default();
    let mut last_stats = None;
    let cfg = VflConfig::fast(P)
        .with_seed(plan.tenant_seed(0))
        .with_trace(true);
    let mut stream = StreamCov::new(
        ColumnPartition::even(N_COLS, P),
        GAMMA,
        MU,
        &cfg,
        1 << 22,
        1.0,
    )
    .map_err(|e| format!("stream session: {e}"))?;
    let end = Instant::now() + Duration::from_secs_f64(seconds * 0.15);
    let mut k = 0;
    while Instant::now() < end {
        stream.ingest(&plan.batches[plan.batch_of(0, k)]);
        k += 1;
        let t0 = Instant::now();
        let out = stream
            .release()
            .map_err(|e| format!("stream release: {e}"))?;
        let rel = t0.elapsed().as_secs_f64();
        tally.check(counters.check(Counters::of(&out.stats)));
        let trace = out
            .trace
            .as_ref()
            .ok_or("traced release returned no trace")?;
        s.push_op(rel, 0.0, rel, &out.stats, &layers::split(trace));
        last_stats = Some(out.stats);
    }
    let stats = last_stats.ok_or("no streaming release ran")?;
    let upper = N_COLS * (N_COLS + 1) / 2;
    let work = WorkCounts {
        quantized_values: (ROWS * N_COLS) as u64,
        local_field_muls: (upper * ROWS) as u64,
        skellam_draws: (upper * P) as u64,
        recombine_widths: vec![upper, upper],
    };
    batch::put_layers(report, &s, &stats, P, &work);

    report.put("serve.queue_p50_s", median(&queue));
    report.put("serve.queue_p99_s", percentile(&queue, 0.99));
    report.put("serve.admit_s", median(&admit));
    report.put("serve.mpc_s", median(&mpc));
    report.put("serve.encode_s", median(&encode));
    report.put("serve.ingest_s", median(&ingest));
    report.put("serve.queue_depth_max", server.max_queued_observed() as f64);
    report.put(
        "serve.overloaded",
        (plain.overloaded + traced.overloaded) as f64,
    );
    report.put("gen.lag_ms", percentile(&traced.lags, 0.99) * 1e3);
    report.put("latency_p99_ms", windowed(&plain.latencies, 0.99) * 1e3);
    report.put(
        "obs.trace_overhead",
        windowed(&traced.latencies, 0.5) / windowed(&plain.latencies, 0.5),
    );
    report.put("unattributed_s", median(&unattributed));
    Ok(())
}
