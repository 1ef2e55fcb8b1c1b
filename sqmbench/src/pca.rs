//! `pca_paper`: the Table II PCA row. m=1000, n=100, P=4, gamma=18,
//! k=10, (eps=1, delta=1e-5), in-process backend, 0.1 s per hop.
//!
//! The untraced run alternates four fits (`SqmPca::fit`, timed for `op_s`)
//! with one release (`covariance_skellam`, whose `RunStats` give
//! `paper_time_s` and `wire_bytes`; `fit` does not return them). Every fit
//! is checked bit-exact against `top_k_eigenvectors` of the
//! `covariance_quantized_oracle` matrix and every release against the
//! oracle itself.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqm_linalg::eigen::{top_k_eigenvectors, top_k_eigenvectors_with_sweeps};
use sqm_linalg::Matrix;
use sqm_tasks::pca::{PcaBackend, SqmPca};
use sqm_vfl::{covariance_quantized_oracle, covariance_skellam, ColumnPartition, VflConfig};

use crate::batch::{self, LayerSamples, OpSamples, Window, WorkCounts};
use crate::layers;
use crate::util::{bits_equal, sub_seed, timed, CounterGate, Counters, Outcome, Report, Tally};

const M: usize = 1000;
const N: usize = 100;
const P: usize = 4;
const GAMMA: f64 = 18.0;
const K: usize = 10;
const EPS: f64 = 1.0;
const DELTA: f64 = 1e-5;
/// The public record-norm bound; the generator rescales rows to it.
const C: f64 = 1.0;

/// Timed fits per untimed release in the untraced run. The releases only
/// feed `paper_time_s` and `wire_bytes`, which barely vary, so most of the
/// window goes to the fits that every timing metric is taken from.
const FITS_PER_RELEASE: usize = 4;

/// Per-op counters at this shape (also recorded in `BENCHMARK.json`).
pub const RECORDED: Counters = Counters {
    rounds: 4,
    messages: 48,
    bytes: 3_854_400,
    elems: 481_800,
};

struct Inputs {
    data: Matrix,
    pca: SqmPca,
    cfg: VflConfig,
    partition: ColumnPartition,
    mu: f64,
}

fn inputs(seed: u64) -> Inputs {
    let data = sqm_datasets::synthetic::SpectralSpec::new(M, N)
        .with_seed(sub_seed(seed, 1))
        .with_norm_bound(C)
        .generate();
    let cfg = VflConfig::new(P).with_seed(sub_seed(seed, 2));
    let pca = SqmPca::new(K, GAMMA, EPS, DELTA)
        .with_clients(P)
        .with_norm_bound(C)
        .with_backend(PcaBackend::Mpc(cfg.clone()));
    let mu = pca.calibrated_mu(C, N);
    Inputs {
        data,
        pca,
        cfg,
        partition: ColumnPartition::even(N, P),
        mu,
    }
}

/// The fit's randomness all comes from the backend config; this rng is
/// never drawn from on the MPC backend.
fn fit(inp: &Inputs) -> Matrix {
    inp.pca.fit(&mut StdRng::seed_from_u64(0), &inp.data)
}

/// One fit in a fresh process (the cold op `setup_s` measures).
pub fn cold_op(seed: u64) -> f64 {
    let inp = inputs(seed);
    timed(|| fit(&inp)).1
}

/// Expected outputs: the oracle's release and the subspace the server
/// computes from it.
struct Oracle {
    c_hat: Matrix,
    subspace: Matrix,
}

fn oracle(inp: &Inputs) -> Oracle {
    let c_hat = covariance_quantized_oracle(&inp.data, &inp.partition, GAMMA, inp.mu, &inp.cfg);
    let subspace = top_k_eigenvectors(&c_hat.scaled(1.0 / (GAMMA * GAMMA)), K);
    Oracle { c_hat, subspace }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let setup_s = if trace {
        0.0
    } else {
        batch::cold_setup("pca_paper", seed)?
    };
    let inp = inputs(seed);
    let want = oracle(&inp);
    let mut tally = Tally::default();
    let mut counters = CounterGate::default();

    // Warm-up (untimed, still checked): fits, then one release.
    let warm_up = Window::new(batch::WARM_UP_S);
    while warm_up.open() {
        tally.check(bits_equal(
            "fit subspace",
            fit(&inp).as_slice(),
            want.subspace.as_slice(),
        ));
    }
    let warm = covariance_skellam(&inp.data, &inp.partition, GAMMA, inp.mu, &inp.cfg);
    tally.check(
        bits_equal("release", warm.c_hat.as_slice(), want.c_hat.as_slice())
            .and(counters.check(Counters::of(&warm.stats))),
    );

    let mut report = Report::default();
    let window = Window::new(seconds);
    if !trace {
        let mut samples = OpSamples::default();
        while window.open() {
            for _ in 0..FITS_PER_RELEASE {
                let (v, t) = timed(|| fit(&inp));
                samples.ops.push(t);
                tally.check(bits_equal(
                    "fit subspace",
                    v.as_slice(),
                    want.subspace.as_slice(),
                ));
            }
            let out = covariance_skellam(&inp.data, &inp.partition, GAMMA, inp.mu, &inp.cfg);
            samples.paper.push(out.stats.simulated_time().as_secs_f64());
            tally.check(
                bits_equal("release", out.c_hat.as_slice(), want.c_hat.as_slice())
                    .and(counters.check(Counters::of(&out.stats))),
            );
        }
        let c = counters.get().expect("at least one release ran");
        c.warn_if_not("pca_paper", RECORDED);
        batch::put_end_to_end(&mut report, setup_s, &samples, c, &tally);
    } else {
        let traced_cfg = inp
            .cfg
            .clone()
            .with_trace(true)
            .with_latency(Duration::ZERO);
        let mut s = LayerSamples::default();
        let mut last_stats = None;
        while window.open() {
            let (v, t) = timed(|| fit(&inp));
            s.untraced_op.push(t);
            tally.check(bits_equal(
                "fit subspace",
                v.as_slice(),
                want.subspace.as_slice(),
            ));

            // The same fit, decomposed into spans around each layer's
            // public call, with the engine trace on.
            let t0 = Instant::now();
            let (mu, cal) = timed(|| inp.pca.calibrated_mu(C, N));
            let (out, rel) =
                timed(|| covariance_skellam(&inp.data, &inp.partition, GAMMA, mu, &traced_cfg));
            let c_tilde = out.c_hat.scaled(1.0 / (GAMMA * GAMMA));
            let ((v, sweeps), eig) = timed(|| top_k_eigenvectors_with_sweeps(&c_tilde, K));
            let op = t0.elapsed().as_secs_f64();

            // Passive tracing: bit-identical release, subspace, counters.
            tally.check(
                bits_equal(
                    "traced release",
                    out.c_hat.as_slice(),
                    want.c_hat.as_slice(),
                )
                .and(bits_equal(
                    "traced subspace",
                    v.as_slice(),
                    want.subspace.as_slice(),
                ))
                .and(counters.check(Counters::of(&out.stats))),
            );
            let trace = out
                .trace
                .as_ref()
                .ok_or("traced release returned no trace")?;
            s.push_op(op, cal + eig, rel, &out.stats, &layers::split(trace));
            s.calibrate.push(cal);
            s.eigen.push(eig);
            s.sweeps.push(sweeps.unwrap_or(0) as f64);
            last_stats = Some(out.stats);
        }
        let stats = last_stats.ok_or("the window closed before a traced op ran")?;
        let upper = (N * (N + 1) / 2) as u64;
        let work = WorkCounts {
            quantized_values: (M * N) as u64,
            local_field_muls: upper * M as u64,
            skellam_draws: upper * P as u64,
            recombine_widths: vec![upper as usize, upper as usize],
        };
        batch::put_layers(&mut report, &s, &stats, P, &work);
        batch::put_op_metrics(&mut report, &s);
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.failed == 0,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-exact gate catches a release off by one quantum in one entry.
    #[test]
    fn corrupted_release_is_caught() {
        let data = sqm_datasets::synthetic::SpectralSpec::new(30, 6)
            .with_seed(3)
            .generate();
        let partition = ColumnPartition::even(6, 3);
        let cfg = VflConfig::fast(3).with_seed(11);
        let want = covariance_quantized_oracle(&data, &partition, GAMMA, 50.0, &cfg);
        let out = covariance_skellam(&data, &partition, GAMMA, 50.0, &cfg);
        assert!(bits_equal("release", out.c_hat.as_slice(), want.as_slice()).is_ok());
        let mut bad = out.c_hat.clone();
        bad[(2, 4)] += 1.0;
        assert!(bits_equal("release", bad.as_slice(), want.as_slice()).is_err());
    }
}
