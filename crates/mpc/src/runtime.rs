//! The party runtime shared by both MPC engines, which differ only in how
//! they share, multiply and open: [`PartyRuntime`] (one party's endpoint,
//! accounting, trace recorder, phase clock and causal state, with the one
//! instrumented [`PartyRuntime::exchange`]) and [`run`] (the SPMD run
//! orchestration, from spawning the party threads to the merged
//! `RunStats` and [`Trace`]).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use sqm_field::PrimeField;
use sqm_net::transport::Transport;
use sqm_net::wire::WireError;
use sqm_net::{TraceHeader, TransportError};
use sqm_obs::live;
use sqm_obs::metrics;
use sqm_obs::prof;
use sqm_obs::trace::{MsgStamp, PartyRecorder, Trace};

use crate::engine::{MpcConfig, MpcRun, RunOnMesh};
use crate::stats::{merge, PartyStats};

/// Panic payload a party thread aborts with when its transport fails.
/// [`run`] catches it and converts it back into the typed
/// [`TransportError`]; every other panic payload is propagated unchanged.
struct PartyAbort(TransportError);

/// Unwind out of the SPMD program with a typed transport error.
fn abort(e: TransportError) -> ! {
    std::panic::panic_any(PartyAbort(e))
}

/// Install (once, process-wide) a panic hook that stays silent for
/// [`PartyAbort`] unwinds — they are controlled error returns, not bugs —
/// and delegates every other panic to the previously installed hook.
fn install_quiet_abort_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<PartyAbort>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Rank errors for reporting when several parties fail at once: the root
/// cause (a crash, an exhausted retransmit budget) outranks the secondary
/// disconnects the survivors observe.
fn error_priority(e: &TransportError) -> u8 {
    match e {
        TransportError::Crashed { .. } => 6,
        TransportError::RetransmitExhausted { .. } => 5,
        TransportError::Wire { .. } => 4,
        TransportError::ConnectFailed { .. } => 3,
        TransportError::Timeout { .. } => 2,
        TransportError::Io { .. } => 1,
        TransportError::Disconnected { .. } => 0,
    }
}

/// Stamps of one traced round's sends, taken before the exchange.
struct SendStamps {
    headers: Vec<Option<TraceHeader>>,
    sends: Vec<MsgStamp>,
    lamport: u64,
    wall: Duration,
}

/// One party's engine-independent state: its endpoint into the mesh, its
/// accounting, its optional trace recorder, the current phase, and the
/// causal clock. Protocol contexts hold one and add only protocol state.
pub(crate) struct PartyRuntime<F: PrimeField> {
    /// This party's index in `0..n`.
    pub(crate) id: usize,
    /// Prefix of the cost-profiler paths (`engine`, `additive`).
    label: &'static str,
    endpoint: Box<dyn Transport<F>>,
    stats: PartyStats,
    recorder: Option<PartyRecorder>,
    phase: String,
    phase_started: Instant,
    /// Causal stamping state (active only when tracing): run identifier
    /// (the engine seed), the party's Lamport clock, and one sequence
    /// counter per directed outgoing link.
    run_id: u64,
    lamport: u64,
    link_seq: Vec<u64>,
}

impl<F: PrimeField> PartyRuntime<F> {
    fn new(endpoint: Box<dyn Transport<F>>, config: &MpcConfig, label: &'static str) -> Self {
        let id = endpoint.id();
        PartyRuntime {
            id,
            label,
            endpoint,
            stats: PartyStats::default(),
            recorder: config.trace.then(|| PartyRecorder::new(id, config.latency)),
            phase: "default".to_string(),
            phase_started: Instant::now(),
            run_id: config.seed,
            lamport: 0,
            link_seq: vec![0; config.n_parties],
        }
    }

    /// The current accounting phase.
    pub(crate) fn phase(&self) -> &str {
        &self.phase
    }

    /// Switch accounting to a named phase. Wall time and rounds accrued so
    /// far are attributed to the previous phase.
    pub(crate) fn set_phase(&mut self, name: &str) {
        self.flush_phase();
        self.phase = name.to_string();
        if let Some(rec) = &mut self.recorder {
            rec.set_phase(name);
        }
    }

    fn flush_phase(&mut self) {
        // One measurement feeds both the accounting and the trace, so a
        // merged trace reproduces RunStats::simulated_time() exactly.
        let elapsed = self.phase_started.elapsed();
        self.stats.record_wall(&self.phase, elapsed);
        if let Some(rec) = &mut self.recorder {
            rec.flush_phase(elapsed);
        }
        self.phase_started = Instant::now();
    }

    /// Causal stamps for a traced round: every real outgoing payload
    /// carries this party's Lamport clock and a per-link sequence number;
    /// the header travels out-of-band of the byte accounting.
    fn stamp_sends(&mut self, outgoing: &[Vec<F>], round: u64) -> SendStamps {
        let lamport = self.lamport + 1;
        let mut sends = Vec::new();
        let headers = outgoing
            .iter()
            .enumerate()
            .map(|(j, payload)| {
                if j == self.id || payload.is_empty() {
                    return None;
                }
                let link_seq = self.link_seq[j];
                self.link_seq[j] += 1;
                sends.push(MsgStamp {
                    peer: j,
                    link_seq,
                    lamport,
                    round,
                });
                Some(TraceHeader {
                    run_id: self.run_id,
                    party: self.id as u32,
                    round,
                    link_seq,
                    lamport,
                })
            })
            .collect();
        SendStamps {
            headers,
            sends,
            lamport,
            wall: self.phase_started.elapsed(),
        }
    }

    /// One synchronous round: send `outgoing[j]` to each party `j`, return
    /// one payload per party. `expected(i)` is the element count party
    /// `i`'s payload must carry; a peer sending any other count aborts the
    /// run with [`WireError::UnexpectedLength`], as does any transport
    /// failure with its own typed error.
    ///
    /// Every sink is fed from the same `(round, phase, messages, bytes,
    /// elems, wall, net events)` values: `RunStats` always, the trace when
    /// recording, and metrics, live telemetry and the cost profiler when
    /// installed. Each of those three costs one relaxed atomic load when
    /// off, and the clock is read only when at least one is on.
    pub(crate) fn exchange(
        &mut self,
        outgoing: Vec<Vec<F>>,
        expected: impl Fn(usize) -> usize,
    ) -> Vec<Vec<F>> {
        let (metrics_on, live_on, prof_on) =
            (metrics::is_enabled(), live::is_active(), prof::is_active());
        let started = (metrics_on || live_on || prof_on).then(Instant::now);
        let round = self.endpoint.round();
        let stamps = self
            .recorder
            .is_some()
            .then(|| self.stamp_sends(&outgoing, round));
        let result = match &stamps {
            Some(s) => self
                .endpoint
                .exchange_stamped(outgoing, Some(s.headers.clone())),
            None => self.endpoint.exchange(outgoing),
        };
        let outcome = result.unwrap_or_else(|e| abort(e));
        for (party, payload) in outcome.incoming.iter().enumerate() {
            let (expected, got) = (expected(party), payload.len());
            if got != expected {
                abort(TransportError::Wire {
                    party,
                    round,
                    source: WireError::UnexpectedLength { expected, got },
                });
            }
        }
        let (messages, bytes) = (outcome.messages, outcome.bytes);
        self.stats
            .record_round(&self.phase, messages, bytes, outcome.elems);
        let wall = started.map(|t0| t0.elapsed()).unwrap_or_default();
        let events = self.endpoint.drain_events();
        if prof_on {
            let wall_ns = wall.as_nanos() as u64;
            let (label, phase) = (self.label, &self.phase);
            prof::record_round(
                &format!("{label};{phase};exchange"),
                messages,
                bytes,
                wall_ns,
            );
            prof::record_round(
                &format!("{label};{phase};round{round:04}"),
                messages,
                bytes,
                wall_ns,
            );
        }
        if live_on {
            // Injected fault events first: they carry the deterministic
            // per-link costs the stall watchdog uses to attribute a slow
            // round to the party that actually slept.
            for e in &events {
                if let Some(ev) = live::LiveEvent::fault(e.party, e.round, e.peer, &e.kind, e.value)
                {
                    live::publish(ev);
                }
            }
            live::publish(live::LiveEvent::round(
                self.id,
                round,
                &self.phase,
                wall,
                messages,
                bytes,
            ));
        }
        if let Some(rec) = &mut self.recorder {
            if let Some(s) = stamps {
                let wall_recv = self.phase_started.elapsed();
                let recvs: Vec<MsgStamp> = outcome
                    .headers
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != self.id)
                    .filter_map(|(i, h)| {
                        h.map(|h| MsgStamp {
                            peer: i,
                            link_seq: h.link_seq,
                            lamport: h.lamport,
                            round: h.round,
                        })
                    })
                    .collect();
                let max_recv = recvs.iter().map(|s| s.lamport).max().unwrap_or(0);
                self.lamport = s.lamport.max(max_recv) + 1;
                rec.record_causal_round(s.wall, wall_recv, s.lamport, self.lamport, s.sends, recvs);
            }
            rec.record_round(messages, bytes);
            for event in events {
                rec.record_net_event(event);
            }
        }
        if metrics_on {
            // The per-round half of the virtual-clock model; the latency
            // half is `rounds * latency` by construction.
            metrics::histogram_record("mpc.round_wall_ns", wall.as_nanos() as f64);
            metrics::counter_add("mpc.party_rounds", 1);
            metrics::counter_add("mpc.messages", messages);
            metrics::counter_add("mpc.bytes", bytes);
            metrics::histogram_record("mpc.messages_per_round", messages as f64);
        }
        outcome.incoming
    }
}

/// Run one SPMD party program per endpoint and collect the results.
///
/// `setup` runs once, after the cost profiler is installed (so setup work
/// it records is attributed), and returns the per-party closure: given the
/// party's runtime it builds the protocol context, runs the program, and
/// hands the runtime back. On success the endpoints are returned so the
/// next run can reuse the mesh; on error they are consumed.
pub(crate) fn run<F, T, S, P>(
    config: &MpcConfig,
    label: &'static str,
    endpoints: Vec<Box<dyn Transport<F>>>,
    setup: S,
) -> Result<RunOnMesh<F, T>, TransportError>
where
    F: PrimeField,
    T: Send,
    S: FnOnce() -> P,
    P: Fn(PartyRuntime<F>) -> (T, PartyRuntime<F>) + Sync,
{
    let n = config.n_parties;
    assert_eq!(
        endpoints.len(),
        n,
        "endpoint mesh size must match config.n_parties"
    );
    install_quiet_abort_hook();
    if let Some(pc) = &config.prof {
        prof::install(pc, config.seed);
    }
    let party = &setup();

    // Bracket the run for live telemetry. The guard's Drop path covers a
    // party-thread panic unwinding past the join below: the run is then
    // recorded as failed and the flight recorder still dumps.
    let live_run = config
        .live
        .as_ref()
        .map(|lc| live::begin_run(lc, n, config.seed));

    let frame_mode = config.batching.frame_mode();
    let results: Vec<Result<(T, PartyRuntime<F>), TransportError>> = std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|mut endpoint| {
                endpoint.set_frame_mode(frame_mode);
                s.spawn(move || {
                    let rt = PartyRuntime::new(endpoint, config, label);
                    // A transport failure aborts the program mid-round via a
                    // PartyAbort unwind; catch it here and surface the typed
                    // error. The unwind drops the context and with it this
                    // party's endpoint, which unblocks any peer waiting on it.
                    match catch_unwind(AssertUnwindSafe(|| party(rt))) {
                        Ok((out, mut rt)) => {
                            rt.flush_phase();
                            Ok((out, rt))
                        }
                        Err(payload) => match payload.downcast::<PartyAbort>() {
                            Ok(abort) => Err(abort.0),
                            Err(other) => resume_unwind(other),
                        },
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("party thread panicked"))
            .collect()
    });

    let mut outputs = Vec::with_capacity(n);
    let mut stats = Vec::with_capacity(n);
    let mut party_traces = Vec::with_capacity(n);
    let mut mesh = Vec::with_capacity(n);
    let mut errors = Vec::new();
    for (party, result) in results.into_iter().enumerate() {
        match result {
            Ok((out, rt)) => {
                let ps = rt.stats;
                if metrics::is_enabled() {
                    metrics::histogram_record("mpc.bytes_per_party", ps.total.bytes as f64);
                    // Last-run-wins per-party gauges: the traffic each party
                    // shipped, readable from a metrics snapshot without
                    // parsing the trace.
                    metrics::gauge_set(
                        &format!("mpc.party.{party}.bytes_sent"),
                        ps.total.bytes as f64,
                    );
                    metrics::gauge_set(
                        &format!("mpc.party.{party}.messages_sent"),
                        ps.total.messages as f64,
                    );
                }
                outputs.push(out);
                stats.push(ps);
                party_traces.extend(rt.recorder.map(PartyRecorder::finish));
                mesh.push(rt.endpoint);
            }
            Err(e) => errors.push(e),
        }
    }
    // Pick the most diagnostic error out of the per-party results.
    if let Some(err) = errors.into_iter().max_by_key(error_priority) {
        if let Some(guard) = live_run {
            guard.fail(live::RunError::new(
                err.kind(),
                Some(err.party()),
                err.round(),
            ));
        }
        return Err(err);
    }
    if let Some(guard) = live_run {
        guard.finish();
    }
    let trace =
        (party_traces.len() == n).then(|| Trace::from_parties(config.latency, party_traces));
    Ok((
        MpcRun {
            outputs,
            stats: merge(stats, config.latency),
            trace,
        },
        mesh,
    ))
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use sqm_field::M61;
    use sqm_net::transport::{build_mesh, NetBackend, RoundOutcome};

    use super::*;
    use crate::{AdditiveEngine, MpcEngine};

    /// Drops the last element of the payload this endpoint receives from
    /// party `from` in round `at` — a peer sending one share too few.
    struct Truncating<F: PrimeField> {
        inner: Box<dyn Transport<F>>,
        from: usize,
        at: u64,
    }

    impl<F: PrimeField> Transport<F> for Truncating<F> {
        fn id(&self) -> usize {
            self.inner.id()
        }
        fn n_parties(&self) -> usize {
            self.inner.n_parties()
        }
        fn round(&self) -> u64 {
            self.inner.round()
        }
        fn exchange_stamped(
            &mut self,
            outgoing: Vec<Vec<F>>,
            headers: Option<Vec<Option<TraceHeader>>>,
        ) -> Result<RoundOutcome<F>, TransportError> {
            let round = self.inner.round();
            let mut outcome = self.inner.exchange_stamped(outgoing, headers)?;
            if round == self.at {
                outcome.incoming[self.from].pop();
            }
            Ok(outcome)
        }
    }

    /// A 3-party mesh where party 1 receives one share too few from
    /// party 0 in round 0.
    fn truncated_mesh() -> Vec<Box<dyn Transport<M61>>> {
        let mut mesh = build_mesh::<M61>(3, &NetBackend::InProcess, None).unwrap();
        let inner = mesh.remove(1);
        mesh.insert(
            1,
            Box::new(Truncating {
                inner,
                from: 0,
                at: 0,
            }),
        );
        mesh
    }

    #[test]
    fn truncated_peer_payload_is_a_typed_wire_error_on_both_engines() {
        let config = MpcConfig::semi_honest(3).with_latency(Duration::ZERO);
        let input = |id: usize| (id == 0).then(|| vec![M61::from_u64(5); 2]);
        let expected = TransportError::Wire {
            party: 0,
            round: 0,
            source: WireError::UnexpectedLength {
                expected: 2,
                got: 1,
            },
        };
        let bgw = MpcEngine::new(config.clone()).try_run_on(truncated_mesh(), |ctx| {
            let x = ctx.share_input(0, input(ctx.id).as_deref(), 2);
            ctx.open(&x)
        });
        assert_eq!(bgw.err(), Some(expected.clone()));
        let additive = AdditiveEngine::new(config).try_run_on(truncated_mesh(), |ctx| {
            let x = ctx.share_input(0, input(ctx.id).as_deref(), 2);
            ctx.open(&x)
        });
        assert_eq!(additive.err(), Some(expected));
    }
}
