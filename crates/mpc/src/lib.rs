//! Semi-honest BGW multiparty computation over a simulated network.
//!
//! SQM invokes MPC as a black box (Section IV of the paper): the clients
//! secret-share their quantized columns and locally-sampled Skellam noise,
//! jointly evaluate an arithmetic circuit, and open only the perturbed
//! result. This crate provides that black box:
//!
//! * [`shamir`] — Shamir secret sharing and Lagrange reconstruction.
//! * `runtime` — the one party runtime both engines run on: spawn `n` party
//!   threads over a [`net`] mesh (in-process channels or loopback TCP, with
//!   optional fault injection; backend selection lives on [`MpcConfig`]),
//!   run the same protocol program in each, and collect outputs and
//!   [`stats::RunStats`]. Its single instrumented exchange feeds the
//!   accounting, trace, metrics, live telemetry and cost profiler. Transport
//!   failures and wrong-length peer payloads surface as typed
//!   [`TransportError`]s from `try_run` (or a diagnostic panic from `run`).
//! * [`engine`] — the BGW engine and [`MpcConfig`]. Multiplication uses GRR
//!   degree reduction (`t < n/2`); vector operations
//!   (element-wise products, inner products) are batched into single rounds,
//!   which is what makes covariance computation `O(n^2)` *communication*
//!   instead of `O(m n^2)`.
//! * [`circuit`] — a small retained arithmetic-circuit IR with plaintext and
//!   MPC evaluators, used by the generic polynomial mechanism.
//! * [`additive`] — a second backend: SPDZ-style additive sharing with
//!   Beaver triples from a trusted preprocessing dealer, demonstrating the
//!   paper's "replace BGW with any semi-honest MPC" claim.
//! * [`stats`] — virtual-clock accounting. The paper simulates parties on
//!   one machine and charges 0.1 s per message hop; [`stats::RunStats`]
//!   reproduces that model (`simulated_time = wall + rounds * latency`).

pub mod additive;
pub mod circuit;
pub mod engine;
mod runtime;
pub mod shamir;
pub mod stats;

pub use sqm_net as net;

pub use additive::{AdditiveCtx, AdditiveEngine};
pub use engine::{BatchOptions, Batching, MpcConfig, MpcEngine, MpcRun, PartyCtx};
pub use shamir::{reconstruct, share_secret, share_secrets_batch, ShamirShare};
pub use sqm_net::fault::{CrashPoint, FaultSpec};
pub use sqm_net::transport::{FrameMode, NetBackend};
pub use sqm_net::{TcpOptions, TransportError};
pub use sqm_obs::live::LiveConfig;
pub use sqm_obs::prof::ProfConfig;
pub use stats::{PhaseStats, RunStats};
