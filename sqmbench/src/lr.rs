//! `lr_clients`: the Table V LR row. m = n = 500 (d = 499 features plus
//! the label column), P = 10, gamma = 18, mu = 100, loopback TCP, 0.1 s per
//! hop. Each op is one full-batch `gradient_sum_skellam` pass with fresh
//! public weights and a fresh config seed.
//!
//! Every gradient is checked against the plaintext Eq. 9 gradient within
//! a per-dimension tolerance derived from gamma and mu (see [`Reference`]).

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqm_linalg::Matrix;
use sqm_sampling::gaussian::sample_normal;
use sqm_vfl::{gradient_sum_skellam, ColumnPartition, NetBackend, VflConfig};

use crate::batch::{self, LayerSamples, OpSamples, Window, WorkCounts};
use crate::layers;
use crate::util::{bits_equal, sub_seed, timed, CounterGate, Counters, Outcome, Report, Tally};

const M: usize = 500;
const D: usize = 499;
const P: usize = 10;
const GAMMA: f64 = 18.0;
const MU: f64 = 100.0;
/// Standard deviations a dimension's error may reach before it fails.
const Z: f64 = 7.0;

/// Per-op counters at this shape (also recorded in `BENCHMARK.json`).
pub const RECORDED: Counters = Counters {
    rounds: 4,
    messages: 360,
    bytes: 19_077_840,
    elems: 2_384_730,
};

struct Inputs {
    data: Matrix,
    partition: ColumnPartition,
    batch: Vec<usize>,
    reference: Reference,
    seed: u64,
}

fn inputs(seed: u64) -> Inputs {
    let data = sqm_datasets::synthetic::ClassificationSpec::new(M, D)
        .with_seed(sub_seed(seed, 1))
        .generate()
        .as_vfl_matrix();
    Inputs {
        reference: Reference::new(&data),
        partition: ColumnPartition::even(D + 1, P),
        batch: (0..M).collect(),
        data,
        seed,
    }
}

/// Op `i`'s public weights and config (loopback TCP, 0.1 s per hop).
fn op_params(inp: &Inputs, i: u64) -> (Vec<f64>, VflConfig) {
    let mut rng = StdRng::seed_from_u64(sub_seed(inp.seed, 1_000 + i));
    let w = (0..D).map(|_| sample_normal(&mut rng, 0.0, 1.0)).collect();
    let cfg = VflConfig::new(P)
        .with_backend(NetBackend::tcp())
        .with_seed(sub_seed(inp.seed, 2_000_000 + i));
    (w, cfg)
}

fn gradient(inp: &Inputs, w: &[f64], cfg: &VflConfig) -> sqm_vfl::GradientOutput {
    gradient_sum_skellam(&inp.data, &inp.partition, &inp.batch, w, GAMMA, MU, cfg)
}

/// One gradient pass in a fresh process (the cold op `setup_s` measures).
pub fn cold_op(seed: u64) -> f64 {
    let inp = inputs(seed);
    let (w, cfg) = op_params(&inp, 0);
    timed(|| gradient(&inp, &w, &cfg)).1
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let setup_s = if trace {
        0.0
    } else {
        batch::cold_setup("lr_clients", seed)?
    };
    let inp = inputs(seed);
    let mut tally = Tally::default();
    let mut counters = CounterGate::default();
    let mut op_index = 0u64;
    let mut next = || {
        op_index += 1;
        op_params(&inp, op_index)
    };

    // Warm-up (untimed, still checked).
    let warm_up = Window::new(batch::WARM_UP_S);
    while warm_up.open() {
        let (w, cfg) = next();
        let warm = gradient(&inp, &w, &cfg);
        tally.check(
            inp.reference
                .check(&w, &warm.grad_sum)
                .and(counters.check(Counters::of(&warm.stats))),
        );
    }

    let mut report = Report::default();
    let window = Window::new(seconds);
    if !trace {
        let mut samples = OpSamples::default();
        while window.open() {
            let (w, cfg) = next();
            let (out, t) = timed(|| gradient(&inp, &w, &cfg));
            samples.ops.push(t);
            samples.paper.push(out.stats.simulated_time().as_secs_f64());
            tally.check(
                inp.reference
                    .check(&w, &out.grad_sum)
                    .and(counters.check(Counters::of(&out.stats))),
            );
        }
        let c = counters.get().expect("at least one op ran");
        c.warn_if_not("lr_clients", RECORDED);
        batch::put_end_to_end(&mut report, setup_s, &samples, c, &tally);
    } else {
        let mut s = LayerSamples::default();
        let mut last_stats = None;
        while window.open() {
            let (w, cfg) = next();
            let (plain, t) = timed(|| gradient(&inp, &w, &cfg));
            s.untraced_op.push(t);
            tally.check(inp.reference.check(&w, &plain.grad_sum));

            // The same op with the engine trace on: the op is the release.
            let traced_cfg = cfg.with_trace(true).with_latency(Duration::ZERO);
            let t0 = Instant::now();
            let out = gradient(&inp, &w, &traced_cfg);
            let op = t0.elapsed().as_secs_f64();

            // Passive tracing: bit-identical gradient and counters.
            tally.check(
                bits_equal("traced gradient", &out.grad_sum, &plain.grad_sum)
                    .and(counters.check(Counters::of(&out.stats))),
            );
            let trace = out.trace.as_ref().ok_or("traced op returned no trace")?;
            s.push_op(op, 0.0, op, &out.stats, &layers::split(trace));
            last_stats = Some(out.stats);
        }
        let stats = last_stats.ok_or("the window closed before a traced op ran")?;
        let work = WorkCounts {
            quantized_values: (M * (D + 1)) as u64,
            // v_i = <w/4, x_i> - label term, then sum_i (v_i + 1/2) x_ik.
            local_field_muls: (M * (D + 1) + 2 * M * D) as u64,
            skellam_draws: (D * P) as u64,
            recombine_widths: vec![D, D],
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

/// The plaintext Eq. 9 gradient and its error budget.
///
/// The release is `gamma^-3 [ sum_i q_ik (h + v_i) + Z_k ]` with stochastic
/// roundings `q = gamma x + e`, `c_j = gamma w_j / 4 + delta_j`,
/// `h = gamma^2 / 2 + delta_h`, `l = gamma + delta_l` (every rounding error
/// zero-mean, `|.| < 1`, variance `<= 1/4`), `v_i = sum_j c_j q_ij - l q_iy`
/// and `Z_k` the summed Skellam noise (variance `2 mu`). With
/// `A_i = 1/2 + <w, x_i>/4 - y_i` the exact gradient is
/// `g_k = sum_i x_ik A_i` and `gamma^3 (release - g_k)` expands to
/// `sum_i [gamma^2 A_i e_ik + gamma x_ik eta_i + e_ik eta_i] + Z_k`, where
/// `eta_i` collects the rounding errors inside `h + v_i`. Bounding each of
/// the three sums' variances term by term (the shared coefficient
/// roundings exactly, record terms as independent), and their sum by
/// three times the total (Cauchy–Schwarz), gives `sigma_k`; the `j = k`
/// term of `e_ik eta_i` has mean `c_k Var(e_ik)`, a bias of at most
/// `m |c_k| / 4`. A dimension fails if its error exceeds
/// `t_k = (Z sigma_k + bias_k) / gamma^3`, and the whole gradient fails if
/// the root mean square of `Z err_k / t_k` over dimensions exceeds 1 (a
/// small bias shared by every dimension stays under each `t_k` but not
/// under this).
pub struct Reference {
    data: Matrix,
    /// `sum_i x_ik`, `sum_i x_ik y_i`, `sum_i x_ik^2` per feature.
    col_sum: Vec<f64>,
    col_label: Vec<f64>,
    col_sq: Vec<f64>,
    /// `sum_j (gamma^2 G_kj)^2` over the feature Gram matrix `G = X^T X`.
    gram_sq: Vec<f64>,
    /// `sum_i (1 + gamma^2 ||x_i||^2 + gamma^2 y_i^2)`.
    record_scale: f64,
}

impl Reference {
    pub fn new(data: &Matrix) -> Reference {
        let (m, d) = (data.rows(), data.cols() - 1);
        let g2 = GAMMA * GAMMA;
        let mut col_sum = vec![0.0; d];
        let mut col_label = vec![0.0; d];
        let mut col_sq = vec![0.0; d];
        let mut record_scale = 0.0;
        for i in 0..m {
            let row = data.row(i);
            let y = row[d];
            let mut norm_sq = 0.0;
            for k in 0..d {
                col_sum[k] += row[k];
                col_label[k] += row[k] * y;
                col_sq[k] += row[k] * row[k];
                norm_sq += row[k] * row[k];
            }
            record_scale += 1.0 + g2 * norm_sq + g2 * y * y;
        }
        let mut features = Matrix::zeros(m, d);
        for i in 0..m {
            features.row_mut(i).copy_from_slice(&data.row(i)[..d]);
        }
        let gram = features.gram();
        let gram_sq = (0..d)
            .map(|k| (0..d).map(|j| (g2 * gram[(k, j)]).powi(2)).sum())
            .collect();
        Reference {
            data: data.clone(),
            col_sum,
            col_label,
            col_sq,
            gram_sq,
            record_scale,
        }
    }

    /// The exact Eq. 9 gradient sum for public weights `w` and each
    /// dimension's tolerance `t_k`.
    pub fn expected(&self, w: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let (m, d) = (self.data.rows(), self.data.cols() - 1);
        let (g, g2, g3) = (GAMMA, GAMMA * GAMMA, GAMMA.powi(3));
        // Exact Eq. 9 and the per-record factors A_i.
        let mut exact = vec![0.0; d];
        let mut a_sq_sum = 0.0;
        for i in 0..m {
            let row = self.data.row(i);
            let a = 0.5 + w.iter().zip(row).map(|(wj, xj)| wj * xj).sum::<f64>() / 4.0 - row[d];
            a_sq_sum += a * a;
            for k in 0..d {
                exact[k] += row[k] * a;
            }
        }
        // Largest magnitude of each rounded coefficient.
        let c_abs: Vec<f64> = w.iter().map(|wj| (g * wj / 4.0).abs() + 1.0).collect();
        let coeff_sq = c_abs.iter().map(|c| c * c).sum::<f64>() + (g + 1.0).powi(2);
        let v1 = g2 * g2 * a_sq_sum / 4.0;
        let v3 = (self.record_scale / 4.0 + m as f64 * coeff_sq / 4.0) / 4.0;
        let tol = (0..d)
            .map(|k| {
                let shared = ((g * self.col_sum[k]).powi(2)
                    + self.gram_sq[k]
                    + (g2 * self.col_label[k]).powi(2))
                    / 4.0;
                let per_record = g2 * self.col_sq[k] * coeff_sq / 4.0;
                let var = 3.0 * (v1 + shared + per_record + v3) + 2.0 * MU;
                let bias = m as f64 * c_abs[k] / 4.0;
                (Z * var.sqrt() + bias) / g3
            })
            .collect();
        (exact, tol)
    }

    /// Check a released gradient sum for public weights `w`.
    pub fn check(&self, w: &[f64], got: &[f64]) -> Result<(), String> {
        let (exact, tol) = self.expected(w);
        if got.len() != exact.len() {
            return Err(format!(
                "gradient has {} dims, expected {}",
                got.len(),
                exact.len()
            ));
        }
        let mut sum_sq = 0.0;
        for k in 0..exact.len() {
            let err = (got[k] - exact[k]).abs();
            sum_sq += (Z * err / tol[k]).powi(2);
            if err.is_nan() || err > tol[k] {
                return Err(format!(
                    "gradient dim {k}: {} vs Eq. 9 {} (error {err:.4} > tolerance {:.4})",
                    got[k], exact[k], tol[k]
                ));
            }
        }
        let rms = (sum_sq / exact.len() as f64).sqrt();
        if rms > 1.0 {
            return Err(format!(
                "gradient error is {rms:.3} standard deviations root-mean-square (limit 1)"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tolerance accepts the protocol's output and catches a gradient
    /// with one dimension corrupted.
    #[test]
    fn corrupted_gradient_is_caught() {
        let data = sqm_datasets::synthetic::ClassificationSpec::new(60, 11)
            .with_seed(5)
            .generate()
            .as_vfl_matrix();
        let partition = ColumnPartition::even(12, 3);
        let batch: Vec<usize> = (0..60).collect();
        let w: Vec<f64> = (0..11).map(|j| (j as f64 * 0.7).sin()).collect();
        let reference = Reference::new(&data);
        for seed in 0..5 {
            let cfg = VflConfig::fast(3).with_seed(seed);
            let out = gradient_sum_skellam(&data, &partition, &batch, &w, GAMMA, MU, &cfg);
            reference.check(&w, &out.grad_sum).unwrap();
            let mut bad = out.grad_sum.clone();
            bad[4] += 10.0;
            assert!(reference.check(&w, &bad).is_err());
            let mut flipped = out.grad_sum.clone();
            flipped[7] = -flipped[7] + 5.0;
            assert!(reference.check(&w, &flipped).is_err());
            // A small shift of every dimension passes each per-dimension
            // tolerance but not the root-mean-square check.
            let (_, tol) = reference.expected(&w);
            let shifted: Vec<f64> = out
                .grad_sum
                .iter()
                .zip(&tol)
                .map(|(g, t)| g + t / 2.0)
                .collect();
            assert!(reference.check(&w, &shifted).is_err());
        }
    }
}
