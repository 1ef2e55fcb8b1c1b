//! The per-layer split of one traced MPC run, read from outside.
//!
//! Everything here consumes records the program already returns — the
//! engine `Trace` (per-phase spans and `CausalRound`s with `wall_wait`),
//! `RunStats` and `MessageDag::critical_path` — or times public library
//! functions at the shapes an op actually used. Traced runs use zero
//! simulated latency, so the trace timeline is wall time.
//!
//! For every phase visit of the critical party the timeline splits into
//! busy time before an exchange (span start or previous receive up to the
//! send), the exchange itself (`wall_wait`), and busy time after the last
//! exchange (receive up to span end). The phase → layer mapping is:
//!
//! | phase      | before exchange           | after exchange          |
//! |------------|---------------------------|-------------------------|
//! | `quantize` | `core.quantize` (no exchange)                       |
//! | `input`    | `mpc.shamir` share        | `mpc.recombine`         |
//! | `compute`  | `mpc.local` (field muls)  | `mpc.recombine`         |
//! | `dp_noise` | `sampling.skellam` (+ sharing the noise vector) | `mpc.recombine` |
//! | `open`     | unattributed (tiny)       | `mpc.recombine`         |

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqm_field::{PrimeField, M127, M61};
use sqm_mpc::RunStats;
use sqm_net::wire::Frame;
use sqm_obs::causal::MessageDag;
use sqm_obs::trace::Trace;

use crate::util::secs;

/// Busy/wait split of one phase on the critical party.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseSplit {
    pub wall: f64,
    pub pre: f64,
    pub wait: f64,
    pub post: f64,
}

/// The layer times of one traced release, in seconds.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub quantize: f64,
    pub share: f64,
    pub local: f64,
    pub skellam: f64,
    pub recombine: f64,
    pub wait: f64,
    /// Party wall time not in any phase split above (`default` and the
    /// `open` pre-exchange step).
    pub party_rest: f64,
    /// Wall time on the critical path spent in hops (waiting for a peer's
    /// message) rather than computing.
    pub cpath_idle: f64,
}

/// Split a traced run. Panics if the trace lacks the critical party (the
/// benchmark only calls this on complete traces).
pub fn split(trace: &Trace) -> Layers {
    let dag = MessageDag::build(trace);
    let cp = dag.critical_path();
    let party = trace
        .parties
        .iter()
        .find(|p| p.party == cp.end_party)
        .expect("critical party has a trace");
    let mut phases: BTreeMap<&str, PhaseSplit> = BTreeMap::new();
    for span in &party.spans {
        let start = span.start;
        let end = span.start + span.wall;
        let mut cursor = start;
        let s = phases.entry(span.phase.as_str()).or_default();
        s.wall += secs(span.wall);
        for r in party
            .causal
            .iter()
            .filter(|r| r.t_send >= start && r.t_send <= end && r.phase == span.phase)
        {
            s.pre += secs(r.t_send.saturating_sub(cursor));
            s.wait += secs(r.wall_wait);
            cursor = r.t_recv;
        }
        if cursor > start {
            s.post += secs(end.saturating_sub(cursor));
        } else {
            // No exchange in this visit: it is all local work.
            s.pre += secs(span.wall);
        }
    }
    let get = |name: &str| phases.get(name).copied().unwrap_or_default();
    let (quantize, input, compute, noise) = (
        get("quantize"),
        get("input"),
        get("compute"),
        get("dp_noise"),
    );
    let party_wall: f64 = phases.values().map(|p| p.wall).sum();
    let mut layers = Layers {
        quantize: quantize.wall,
        share: input.pre,
        local: compute.pre,
        skellam: noise.pre,
        recombine: phases.values().map(|p| p.post).sum(),
        wait: phases.values().map(|p| p.wait).sum(),
        cpath_idle: cp
            .segments
            .iter()
            .filter(|s| s.kind == "hop")
            .map(|s| secs(s.end.saturating_sub(s.start)))
            .sum(),
        ..Layers::default()
    };
    layers.party_rest = party_wall
        - layers.quantize
        - layers.share
        - layers.local
        - layers.skellam
        - layers.recombine
        - layers.wait;
    layers
}

/// Per-phase frame shapes of one op: (messages each party sends, elements
/// per message, bytes per element).
pub fn frame_shapes(stats: &RunStats, parties: usize) -> Vec<(u64, usize, u64)> {
    stats
        .phases
        .values()
        .filter(|p| p.messages > 0 && p.elems > 0)
        .map(|p| {
            (
                p.messages / parties as u64,
                (p.elems / p.messages) as usize,
                (p.bytes as f64 / p.elems as f64).round() as u64,
            )
        })
        .collect()
}

/// Benchmark-timed codec cost of one op on one party: encode and decode
/// one `Frame` per message the party sends (and receives), at the
/// per-link element counts the op's rounds carried. Returns
/// `(encode_s, decode_s)`.
pub fn codec_seconds(shapes: &[(u64, usize, u64)]) -> (f64, f64) {
    let mut enc = 0.0;
    let mut dec = 0.0;
    for &(msgs, width, elem_bytes) in shapes {
        let (e, d) = if elem_bytes > 8 {
            frame_codec_once::<M127>(width)
        } else {
            frame_codec_once::<M61>(width)
        };
        enc += msgs as f64 * e;
        dec += msgs as f64 * d;
    }
    (enc, dec)
}

fn reps_for(width: usize) -> usize {
    (200_000 / width.max(1)).clamp(5, 400)
}

/// Median encode and decode time of one untraced frame of `width` elements.
fn frame_codec_once<F: PrimeField>(width: usize) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(width as u64);
    let elems: Vec<F> = (0..width).map(|_| F::random(&mut rng)).collect();
    let reps = reps_for(width);
    let mut enc = Vec::with_capacity(reps);
    let mut dec = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let bytes = Frame::<F>::encode(&elems, None);
        enc.push(t0.elapsed());
        let t1 = Instant::now();
        let frame = Frame::<F>::decode(bytes).expect("a frame we just encoded decodes");
        dec.push(t1.elapsed());
        assert_eq!(frame.elements.len(), width);
    }
    (median_secs(enc), median_secs(dec))
}

/// Benchmark-timed Lagrange recombination on the engine's path: the
/// weights come from `lagrange_at_zero` once (the engine caches them per
/// run) and each output element is a dot product with the incoming shares.
/// `widths` are the element counts of the op's degree-reducing and opening
/// rounds. Never `shamir::reconstruct`, which re-inverts per secret.
pub fn recombine_seconds(widths: &[usize], parties: usize) -> f64 {
    widths
        .iter()
        .map(|&w| recombine_once::<M61>(w, parties))
        .sum()
}

fn recombine_once<F: PrimeField>(width: usize, parties: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(width as u64 ^ 0x5EC0);
    let incoming: Vec<Vec<F>> = (0..parties)
        .map(|_| (0..width).map(|_| F::random(&mut rng)).collect())
        .collect();
    let weights = sqm_mpc::shamir::lagrange_at_zero::<F>(&(0..parties).collect::<Vec<_>>());
    let reps = reps_for(width);
    let mut times = Vec::with_capacity(reps);
    let mut sink = F::ZERO;
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut out = vec![F::ZERO; width];
        for (li, inc) in weights.iter().zip(&incoming) {
            for (o, &s) in out.iter_mut().zip(inc) {
                *o += *li * s;
            }
        }
        times.push(t0.elapsed());
        sink += out[width / 2];
    }
    std::hint::black_box(sink);
    median_secs(times)
}

fn median_secs(mut v: Vec<Duration>) -> f64 {
    v.sort();
    secs(v[v.len() / 2])
}
