//! Session drivers over a fault-tolerant [`Transport`]: the batched
//! argument protocol run across a real (or deliberately hostile)
//! channel, with retransmission and per-instance graceful degradation.
//!
//! The message sequence mirrors [`crate::session`]:
//!
//! ```text
//! V → P   HSETUP (seq 0)       per circuit: commitment keys, query seed,
//!                              t-vectors; then the instance→circuit map
//! P → V   SETUP_ACK (seq 0)    or ERROR if the setup failed validation
//! V → P   INSTANCE_REQ (seq i+1, payload = LE32 instance index)
//! P → V   INSTANCE_RESP        commitments + decommitments
//! V → P   DONE                 best-effort session close
//! ```
//!
//! A single-circuit session is the one-circuit case of that sequence.
//! Each side is written once: [`ProverMachine`] is the prover's
//! transport-free state machine (pumped by the blocking loop here, by
//! the `zaatar-server` poll loop and by the in-process argument), and
//! [`run_hetero_session_verifier`] is the verifier's driver.
//!
//! Every exchange is idempotent — the setup is deterministic state, and
//! each instance response is computed once and cached — so the retry
//! layer may retransmit freely, and duplicates or reordered frames are
//! resolved by the frame `seq`. A lost or mangled *instance* costs only
//! that instance ([`VerifyOutcome::TimedOut`] / `Malformed`); the batch
//! carries on, which is the graceful-degradation contract the batched
//! argument wants (β instances amortize one setup, so aborting β−1 good
//! instances over one bad one would forfeit the amortization).

use std::time::{Duration, Instant};

use zaatar_crypto::{ChaChaPrg, HasGroup};
use zaatar_field::PrimeField;
use zaatar_mem::MemBudget;
use zaatar_poly::domain::EvalDomain;
use zaatar_sched::{effective_workers, parallel_map_with, ExecPolicy};
use zaatar_transport::{exchange, Frame, RetryPolicy, Transport, TransportError};

use crate::pcp::{ZaatarPcp, ZaatarProof};
use crate::qap::QapWitness;
use crate::session::{HeteroSessionProver, HeteroSessionVerifier, SessionError};
use crate::wire::WireError;
use crate::workspace::ProverWorkspace;

/// Frame `msg_type` values of the session protocol.
pub mod msg {
    /// Retired: the single-circuit setup frame. A prover answers it
    /// `ERROR(MALFORMED)`; a one-circuit session sends a C = 1
    /// [`HSETUP`].
    pub const SETUP: u8 = 1;
    /// P → V: setup received and validated.
    pub const SETUP_ACK: u8 = 2;
    /// V → P: request for one instance's proof message.
    pub const INSTANCE_REQ: u8 = 3;
    /// P → V: one instance's commitments + decommitments.
    pub const INSTANCE_RESP: u8 = 4;
    /// Either direction: a typed failure report (payload = error code).
    pub const ERROR: u8 = 5;
    /// V → P: the session is over (best effort).
    pub const DONE: u8 = 6;
    /// V → P: the batch setup, for one or several circuits (see
    /// `crate::session::HeteroSessionVerifier`).
    pub const HSETUP: u8 = 7;
}

/// Error codes carried in [`msg::ERROR`] payloads.
pub mod errcode {
    /// The message failed wire-format or structure validation.
    pub const MALFORMED: u8 = 1;
    /// An instance request arrived before a valid setup.
    pub const NO_SETUP: u8 = 2;
    /// The requested instance index is outside the prover's batch.
    pub const BAD_INDEX: u8 = 3;
    /// The server refused admission: at capacity (backpressure).
    pub const BUSY: u8 = 4;
    /// The session's wall-clock deadline budget ran out mid-serve.
    pub const EXPIRED: u8 = 5;
}

/// Builds the proofs for a batch of witnesses under an explicit
/// [`ExecPolicy`]: `policy.workers` threads (the paper's
/// "embarrassingly parallel instances", §5.2), each with its own
/// [`ProverWorkspace`] capped by `budget` and stamped with `policy`,
/// each instance proved through [`prove_instance_policied`]. Output
/// order matches `witnesses`, and proofs are byte-identical across
/// every policy: the policy moves work across threads and chunks, never
/// into the transcript.
///
/// Per-instance results mirror [`ZaatarPcp::prove`]: a non-satisfying
/// witness yields `None` for that instance only, so one bad instance
/// cannot sink the batch — the same graceful-degradation contract the
/// session layer gives verdicts. A budget refusal, by contrast, aborts
/// the batch with `Err`: it is an environment problem every remaining
/// instance would hit too.
///
/// Derive the policy with [`zaatar_sched::Scheduler::policy`] or pin it
/// with the [`ExecPolicy`] constructors.
pub fn prove_batch_with_policy<F, D>(
    pcp: &ZaatarPcp<F, D>,
    witnesses: &[QapWitness<F>],
    policy: &ExecPolicy,
    budget: MemBudget,
) -> Result<Vec<Option<ZaatarProof<F>>>, zaatar_mem::BudgetError>
where
    F: PrimeField,
    D: EvalDomain<F>,
{
    let _span = zaatar_obs::time("runtime.prove_batch");
    zaatar_obs::counter("runtime.prove_batch.instances").add(witnesses.len() as u64);
    let policy = *policy;
    parallel_map_with(
        witnesses.iter().collect(),
        policy.workers,
        || ProverWorkspace::with_budget(budget).with_policy(policy),
        |ws, w| prove_instance_policied(pcp, w, ws),
    )
    .into_iter()
    .collect()
}

/// Proves one instance — the Witness and Quotient stages of the
/// pipeline — over buffers leased from `ws`, through whichever stage
/// implementations the workspace's stamped [`ExecPolicy`] selects
/// ([`crate::qap::Qap::compute_h_policied`]). The one construction path
/// every batch entry point, the session server and [`ZaatarPcp::prove`]
/// go through; a long-lived prover calls it directly to keep one
/// workspace across many sessions. `Ok(None)` is a non-satisfying
/// witness; `Err` is a budget refusal, with all partial leases already
/// returned to the pool.
pub fn prove_instance_policied<F, D>(
    pcp: &ZaatarPcp<F, D>,
    witness: &QapWitness<F>,
    ws: &mut ProverWorkspace<F>,
) -> Result<Option<ZaatarProof<F>>, zaatar_mem::BudgetError>
where
    F: PrimeField,
    D: EvalDomain<F>,
{
    let _span = zaatar_obs::time("pcp.prove");
    zaatar_obs::counter("pcp.prove.calls").inc();
    let h = pcp.qap().compute_h_policied(witness, ws)?;
    Ok(h.map(|h| ZaatarProof {
        z: witness.z.clone(),
        h,
    }))
}

/// The verifier's verdict on one instance of the batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// The proof message verified: commitments consistent, PCP checks
    /// passed for the claimed io.
    Accepted,
    /// A well-formed proof message failed verification.
    Rejected,
    /// The message decoded as garbage, or the prover reported an error
    /// for this instance.
    Malformed(WireError),
    /// No usable response within the retry policy's deadline.
    TimedOut,
}

impl VerifyOutcome {
    /// True only for [`VerifyOutcome::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, VerifyOutcome::Accepted)
    }
}

/// What a full verifier session produced: one verdict per instance plus
/// channel health counters.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// Per-instance verdicts, in batch order.
    pub outcomes: Vec<VerifyOutcome>,
    /// Retransmissions across all exchanges (0 on a clean channel).
    pub retransmits: u64,
    /// Wall-clock duration of the whole session.
    pub elapsed: Duration,
}

impl SessionReport {
    /// True if every instance was accepted.
    pub fn all_accepted(&self) -> bool {
        self.outcomes.iter().all(VerifyOutcome::is_accepted)
    }
}

/// Runs the verifier's side of a batched argument session over
/// `transport`, claiming the io vectors in `ios`: the one-circuit case
/// of [`run_hetero_session_verifier`].
pub fn run_session_verifier<F, D, T>(
    transport: &mut T,
    pcp: &ZaatarPcp<F, D>,
    ios: &[Vec<F>],
    policy: &RetryPolicy,
    prg: &mut ChaChaPrg,
) -> Result<SessionReport, SessionError>
where
    F: HasGroup + PrimeField,
    D: EvalDomain<F>,
    T: Transport,
{
    run_hetero_session_verifier(transport, &[pcp], &vec![0; ios.len()], ios, policy, prg)
}

/// Runs the verifier's side of a batched session: `pcps` are the
/// circuits, `circuit_ids[i]` names the circuit of instance `i`, and
/// `ios[i]` is that instance's claimed io in its circuit's QAP order.
///
/// The session draws a 32-byte seed from `prg` and derives all its
/// secrets from a PRG of its own on that seed (per-circuit secrets
/// through [`HeteroSessionVerifier::new`], retry jitter from stream 1),
/// so successive sessions run from one `prg` never share a key, `r`,
/// query seed or `α`.
///
/// The sequence is the module's: one fatal [`msg::HSETUP`] exchange
/// (seq 0), one `INSTANCE_REQ` exchange per claimed io, then a
/// best-effort `DONE`. Setup failure (the one message the whole batch
/// depends on) is the only fatal path. After setup, per-instance
/// failures degrade to their [`VerifyOutcome`] and the loop continues —
/// except a closed channel, which times out the current and all
/// remaining instances. Instance indexes travel as LE32 and frame seqs
/// reserve 0 for the setup, so a batch the u32 space cannot address is
/// refused up front instead of silently aliasing instances.
pub fn run_hetero_session_verifier<F, D, T>(
    transport: &mut T,
    pcps: &[&ZaatarPcp<F, D>],
    circuit_ids: &[u32],
    ios: &[Vec<F>],
    policy: &RetryPolicy,
    prg: &mut ChaChaPrg,
) -> Result<SessionReport, SessionError>
where
    F: HasGroup + PrimeField,
    D: EvalDomain<F>,
    T: Transport,
{
    if ios.len() >= u32::MAX as usize {
        return Err(SessionError::Wire(WireError::TooLong { len: ios.len() }));
    }
    if ios.len() != circuit_ids.len() {
        return Err(SessionError::Protocol("one circuit id per claimed io"));
    }
    let _span = zaatar_obs::time("runtime.session");
    let started = Instant::now();
    let mut seed = [0u8; 32];
    prg.fill_bytes(&mut seed);
    let session_prg = ChaChaPrg::from_seed(seed);
    let mut verifier = HeteroSessionVerifier::new(pcps, circuit_ids, &session_prg);
    let mut retry_prg = session_prg.fork(1);
    let setup = Frame::new(msg::HSETUP, 0, verifier.setup_message()?);
    let mut retransmits = 0u64;

    let ack = exchange(transport, &setup, &[msg::SETUP_ACK, msg::ERROR], policy, &mut retry_prg)?;
    retransmits += ack.retransmits as u64;
    if ack.response.msg_type == msg::ERROR {
        return Err(SessionError::Peer(
            ack.response.payload.first().copied().unwrap_or(0),
        ));
    }

    let mut outcomes = Vec::with_capacity(ios.len());
    let mut channel_gone = false;
    for (i, io) in ios.iter().enumerate() {
        if channel_gone {
            outcomes.push(VerifyOutcome::TimedOut);
            continue;
        }
        let req = Frame::new(
            msg::INSTANCE_REQ,
            (i + 1) as u32,
            (i as u32).to_le_bytes().to_vec(),
        );
        let outcome = match exchange(
            transport,
            &req,
            &[msg::INSTANCE_RESP, msg::ERROR],
            policy,
            &mut retry_prg,
        ) {
            Ok(out) => {
                retransmits += out.retransmits as u64;
                if out.response.msg_type == msg::ERROR {
                    VerifyOutcome::Malformed(WireError::Invalid)
                } else {
                    match verifier.verify_instance(i, &out.response.payload, io) {
                        Ok(true) => VerifyOutcome::Accepted,
                        Ok(false) => VerifyOutcome::Rejected,
                        Err(e) => VerifyOutcome::Malformed(e),
                    }
                }
            }
            Err(TransportError::TimedOut) => VerifyOutcome::TimedOut,
            Err(_) => {
                // Peer gone for good: no later instance can fare better.
                channel_gone = true;
                VerifyOutcome::TimedOut
            }
        };
        match outcome {
            VerifyOutcome::Accepted => zaatar_obs::counter("runtime.verifier.accepted").inc(),
            VerifyOutcome::Rejected => zaatar_obs::counter("runtime.verifier.rejected").inc(),
            VerifyOutcome::Malformed(_) => {
                zaatar_obs::counter("runtime.verifier.malformed").inc()
            }
            VerifyOutcome::TimedOut => zaatar_obs::counter("runtime.verifier.timed_out").inc(),
        }
        outcomes.push(outcome);
    }

    // Best effort: let the prover loop exit promptly instead of idling
    // out. Loss here is harmless.
    let _ = transport.send(&Frame::new(msg::DONE, u32::MAX, Vec::new()));

    zaatar_obs::counter("runtime.verifier.retransmits").add(retransmits);
    Ok(SessionReport {
        outcomes,
        retransmits,
        elapsed: started.elapsed(),
    })
}

/// Counters from one prover serving session.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProverStats {
    /// Instance responses served, retransmissions included.
    pub responses_served: u64,
    /// ERROR frames sent back (malformed setup, bad index, …).
    pub errors_reported: u64,
}

/// What [`ProverMachine::step`] concluded about one frame.
#[derive(Debug, PartialEq, Eq)]
pub enum ProverStep {
    /// Send this frame back to the verifier.
    Reply(Frame),
    /// An unknown frame type from this or a future protocol version:
    /// ignore rather than abort.
    Ignore,
    /// The verifier closed the session ([`msg::DONE`]).
    Done,
    /// Serving hit a non-recoverable local failure (e.g. a budget
    /// refusal); the session is over.
    Fatal(SessionError),
}

/// The prover's side of the session protocol as a transport-free state
/// machine: frame in, [`ProverStep`] out. It owns everything the
/// protocol itself needs — the [`HeteroSessionProver`] endpoint (a
/// homogeneous session is the one-circuit case), the per-instance
/// response cache that makes every reply idempotent under
/// retransmission, and the serving counters — and nothing a driver
/// decides: the blocking [`run_hetero_session_prover`] loop, the
/// `zaatar-server` poll loop and the in-process
/// [`crate::argument::run_batched_argument`] all pump it, adding only
/// their own receive/deadline policy.
///
/// The machine never panics on channel input: malformed setups, the
/// retired [`msg::SETUP`] frame and out-of-range instance requests are
/// answered with typed ERROR frames.
pub struct ProverMachine<'p, F: HasGroup, D> {
    prover: HeteroSessionProver<'p, F, D>,
    proofs: &'p [ZaatarProof<F>],
    cache: Vec<Option<Vec<u8>>>,
    stats: ProverStats,
}

impl<'p, F: HasGroup + PrimeField, D: EvalDomain<F>> ProverMachine<'p, F, D> {
    /// A machine awaiting its setup; `proofs[i]` belongs to circuit
    /// `circuit_ids[i]` of `pcps`.
    ///
    /// # Panics
    ///
    /// Panics if `circuit_ids` and `proofs` disagree in length or any
    /// id is out of range — the prover's own batch layout, not wire
    /// input.
    pub fn new(
        pcps: &[&'p ZaatarPcp<F, D>],
        circuit_ids: &[u32],
        proofs: &'p [ZaatarProof<F>],
    ) -> Self {
        assert_eq!(circuit_ids.len(), proofs.len(), "one circuit id per proof");
        ProverMachine {
            prover: HeteroSessionProver::new(pcps, circuit_ids),
            proofs,
            cache: vec![None; proofs.len()],
            stats: ProverStats::default(),
        }
    }

    /// True while a valid setup is in force (instance requests are
    /// served rather than answered `ERROR(NO_SETUP)`).
    pub fn is_ready(&self) -> bool {
        self.prover.is_ready()
    }

    /// Counters so far.
    pub fn stats(&self) -> ProverStats {
        self.stats
    }

    /// Advances the protocol by one received frame. Instance responses
    /// are computed once through
    /// [`HeteroSessionProver::instance_message_policied`] over buffers
    /// leased from `ws` (whose stamped policy selects the commitment
    /// engine) and served from the cache on retransmission.
    pub fn step(&mut self, frame: &Frame, ws: &mut ProverWorkspace<F>) -> ProverStep {
        // Ok((msg_type, payload)) or Err(errcode).
        let reply = match frame.msg_type {
            msg::HSETUP => {
                let received = self.prover.receive_setup(&frame.payload);
                // Cached responses are valid only under the setup they
                // were computed for: an accepted (possibly
                // retransmitted) setup supersedes it, and a refused one
                // either left the endpoint untouched (still ready) or
                // reset every circuit to unready.
                if received.is_ok() || !self.prover.is_ready() {
                    self.cache.iter_mut().for_each(|slot| *slot = None);
                }
                match received {
                    Ok(()) => Ok((msg::SETUP_ACK, Vec::new())),
                    Err(_) => Err(errcode::MALFORMED),
                }
            }
            // Retired: refused without touching the setup or the cache.
            msg::SETUP => Err(errcode::MALFORMED),
            msg::INSTANCE_REQ => match parse_instance_index(&frame.payload, self.proofs.len()) {
                Err(code) => Err(code),
                Ok(idx) => {
                    let cached = match &self.cache[idx] {
                        Some(bytes) => Ok(bytes.clone()),
                        None => self
                            .prover
                            .instance_message_policied(idx, &self.proofs[idx], ws)
                            .inspect(|bytes| self.cache[idx] = Some(bytes.clone())),
                    };
                    match cached {
                        Ok(bytes) => {
                            self.stats.responses_served += 1;
                            zaatar_obs::counter("runtime.prover.responses_served").inc();
                            Ok((msg::INSTANCE_RESP, bytes))
                        }
                        Err(SessionError::SetupNotReceived) => Err(errcode::NO_SETUP),
                        Err(e) => return ProverStep::Fatal(e),
                    }
                }
            },
            msg::DONE => return ProverStep::Done,
            _ => return ProverStep::Ignore,
        };
        ProverStep::Reply(match reply {
            Ok((msg_type, payload)) => Frame::new(msg_type, frame.seq, payload),
            Err(code) => {
                self.stats.errors_reported += 1;
                zaatar_obs::counter("runtime.prover.errors_reported").inc();
                Frame::new(msg::ERROR, frame.seq, vec![code])
            }
        })
    }
}

/// Serves proofs for one circuit over `transport` until the verifier
/// sends DONE, the channel closes, or `idle_timeout` passes without any
/// valid frame: [`run_hetero_session_prover`] with a single circuit.
pub fn run_session_prover<F, D, T>(
    transport: &mut T,
    pcp: &ZaatarPcp<F, D>,
    proofs: &[ZaatarProof<F>],
    idle_timeout: Duration,
) -> Result<ProverStats, SessionError>
where
    F: HasGroup + PrimeField,
    D: EvalDomain<F>,
    T: Transport,
{
    run_hetero_session_prover(transport, &[pcp], &vec![0; proofs.len()], proofs, idle_timeout)
}

/// Serves a heterogeneous proof batch over `transport` until the
/// verifier sends DONE, the channel closes, or `idle_timeout` passes
/// without any valid frame — the blocking pump of a [`ProverMachine`]
/// over one workspace, every instance response leasing its Commit- and
/// Answer-stage buffers from the same pool. The verifier asks for one
/// instance at a time, so the workspace is stamped with the worker count
/// the scheduler would give this batch
/// (`effective_workers(proofs.len())`) and each response spends it
/// inside the instance. `proofs[i]` belongs to
/// circuit `circuit_ids[i]`. The setup is [`msg::HSETUP`]; the retired
/// [`msg::SETUP`] is answered `ERROR(MALFORMED)`.
pub fn run_hetero_session_prover<F, D, T>(
    transport: &mut T,
    pcps: &[&ZaatarPcp<F, D>],
    circuit_ids: &[u32],
    proofs: &[ZaatarProof<F>],
    idle_timeout: Duration,
) -> Result<ProverStats, SessionError>
where
    F: HasGroup + PrimeField,
    D: EvalDomain<F>,
    T: Transport,
{
    if proofs.len() != circuit_ids.len() {
        return Err(SessionError::Protocol("one circuit id per proof"));
    }
    let mut machine = ProverMachine::new(pcps, circuit_ids, proofs);
    let mut ws = ProverWorkspace::new()
        .with_policy(ExecPolicy::with_workers(effective_workers(proofs.len())));
    loop {
        let frame = match transport.recv(Instant::now() + idle_timeout) {
            Ok(frame) => frame,
            // An idle or closed channel ends the serving loop normally:
            // the verifier is done or gone, and either way there is
            // nobody left to serve.
            Err(TransportError::TimedOut) | Err(TransportError::Closed) => {
                return Ok(machine.stats())
            }
            Err(e) => return Err(e.into()),
        };
        match machine.step(&frame, &mut ws) {
            ProverStep::Reply(reply) => transport.send(&reply)?,
            ProverStep::Ignore => {}
            ProverStep::Done => return Ok(machine.stats()),
            ProverStep::Fatal(e) => return Err(e),
        }
    }
}

/// Decodes an [`msg::INSTANCE_REQ`] payload (LE32 index) against a
/// batch of `batch` instances, returning the [`errcode`] a prover
/// should report on failure.
pub fn parse_instance_index(payload: &[u8], batch: usize) -> Result<usize, u8> {
    let bytes: [u8; 4] = payload.try_into().map_err(|_| errcode::MALFORMED)?;
    let idx = u32::from_le_bytes(bytes) as usize;
    if idx >= batch {
        return Err(errcode::BAD_INDEX);
    }
    Ok(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionVerifier;
    use crate::testutil::{mul_eq_fixture, mul_fixture, CircuitFixture};
    use zaatar_field::testutil::SplitMix64;
    use zaatar_field::{Field, F61};
    use zaatar_transport::loopback_transport_pair;

    #[test]
    fn prove_batch_matches_serial_and_isolates_bad_witnesses() {
        let mut fx = mul_fixture(&[[2, 3], [4, 5], [6, 7]]);
        // Corrupt the middle witness: it alone must yield None.
        fx.witnesses[1].z[0] += F61::ONE;
        let parallel = prove_batch_with_policy(
            &fx.pcp,
            &fx.witnesses,
            &ExecPolicy::with_workers(4),
            MemBudget::unlimited(),
        )
        .unwrap();
        let serial: Vec<_> = fx.witnesses.iter().map(|w| fx.pcp.prove(w)).collect();
        assert_eq!(parallel.len(), 3);
        assert!(parallel[0].is_some());
        assert!(parallel[1].is_none(), "bad witness must not prove");
        assert!(parallel[2].is_some());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(
                p.as_ref().map(|pr| (&pr.z, &pr.h)),
                s.as_ref().map(|pr| (&pr.z, &pr.h)),
                "parallel and serial proofs must agree"
            );
        }
    }

    fn req(seq: u32, idx: u32) -> Frame {
        Frame::new(msg::INSTANCE_REQ, seq, idx.to_le_bytes().to_vec())
    }

    fn error(seq: u32, code: u8) -> ProverStep {
        ProverStep::Reply(Frame::new(msg::ERROR, seq, vec![code]))
    }

    /// Two circuits interleaved a0, b0, a1: the layout the multi-circuit
    /// machine tests share.
    fn hetero_fixture() -> (CircuitFixture, CircuitFixture, Vec<u32>, Vec<ZaatarProof<F61>>) {
        let a = mul_fixture(&[[2, 3], [4, 5]]);
        let b = mul_eq_fixture(&[[3, 3]]);
        let proofs = vec![a.proofs[0].clone(), b.proofs[0].clone(), a.proofs[1].clone()];
        (a, b, vec![0, 1, 0], proofs)
    }

    /// The whole prover protocol as a frame script against the machine
    /// directly — no threads, no transport — asserting the exact reply
    /// to every frame, the retired SETUP frame included.
    #[test]
    fn machine_replies_exactly_to_an_hsetup_frame_script() {
        let fx = mul_fixture(&[[2, 3], [4, 5]]);
        let pcps = [&fx.pcp];
        let prg = ChaChaPrg::from_u64_seed(0xA11D1);
        let mut verifier = HeteroSessionVerifier::new(&pcps, &[0, 0], &prg);
        let setup = verifier.setup_message().unwrap();
        // The bytes an isolated endpoint emits under the same setup.
        let mut reference = HeteroSessionProver::new(&pcps, &[0, 0]);
        reference.receive_setup(&setup).unwrap();
        let mut ws = ProverWorkspace::new();
        let want: Vec<Vec<u8>> = (0..2)
            .map(|i| reference.instance_message_policied(i, &fx.proofs[i], &mut ws).unwrap())
            .collect();
        assert!(verifier.verify_instance(0, &want[0], &fx.ios[0]).unwrap());
        let resp = |seq, i: usize| ProverStep::Reply(Frame::new(msg::INSTANCE_RESP, seq, want[i].clone()));
        let ack = |seq| ProverStep::Reply(Frame::new(msg::SETUP_ACK, seq, Vec::new()));
        let hsetup = |seq, payload: &[u8]| Frame::new(msg::HSETUP, seq, payload.to_vec());
        let legacy = |seq| Frame::new(msg::SETUP, seq, setup.clone());

        let script = [
            // A request before any setup.
            (req(9, 0), error(9, errcode::NO_SETUP)),
            // The retired single-circuit frame sets nothing up.
            (legacy(0), error(0, errcode::MALFORMED)),
            (req(10, 0), error(10, errcode::NO_SETUP)),
            (hsetup(0, &setup), ack(0)),
            // A retransmitted setup is acknowledged again.
            (hsetup(0, &setup), ack(0)),
            (req(1, 0), resp(1, 0)),
            (req(2, 7), error(2, errcode::BAD_INDEX)),
            (Frame::new(msg::INSTANCE_REQ, 3, vec![1, 2, 3]), error(3, errcode::MALFORMED)),
            (Frame::new(msg::INSTANCE_REQ, 4, vec![0; 5]), error(4, errcode::MALFORMED)),
            (hsetup(5, &setup[..setup.len() - 3]), error(5, errcode::MALFORMED)),
            (legacy(6), error(6, errcode::MALFORMED)),
            // Neither refusal unseated the accepted setup.
            (req(7, 1), resp(7, 1)),
            (Frame::new(0x7f, 8, vec![0xde, 0xad]), ProverStep::Ignore),
            (Frame::new(msg::SETUP_ACK, 8, Vec::new()), ProverStep::Ignore),
            (Frame::new(msg::DONE, u32::MAX, Vec::new()), ProverStep::Done),
        ];
        let mut machine = ProverMachine::new(&pcps, &[0, 0], &fx.proofs);
        assert!(!machine.is_ready());
        for (i, (frame, expected)) in script.iter().enumerate() {
            assert_eq!(&machine.step(frame, &mut ws), expected, "script step {i}");
        }
        assert!(machine.is_ready());
        assert_eq!(machine.stats().responses_served, 2);
        assert_eq!(machine.stats().errors_reported, 8);

        // A retransmitted request is served from the cache, not
        // recomputed: a workspace that can lease nothing still answers
        // it — after a SETUP frame too, which leaves the cache alone —
        // while an index never served before hits the budget.
        let mut starved = ProverWorkspace::with_budget(MemBudget::bytes(1));
        let mut machine = ProverMachine::new(&pcps, &[0, 0], &fx.proofs);
        assert_eq!(machine.step(&hsetup(0, &setup), &mut ws), ack(0));
        assert_eq!(machine.step(&req(1, 0), &mut ws), resp(1, 0));
        assert_eq!(machine.step(&req(1, 0), &mut starved), resp(1, 0));
        assert_eq!(machine.step(&legacy(2), &mut ws), error(2, errcode::MALFORMED));
        assert_eq!(machine.step(&req(1, 0), &mut starved), resp(1, 0));
        assert!(matches!(
            machine.step(&req(3, 1), &mut starved),
            ProverStep::Fatal(SessionError::BudgetExceeded { .. })
        ));
    }

    /// A peer that records the first frame it is sent and refuses it.
    #[derive(Default)]
    struct RefusingPeer {
        first: Option<Frame>,
    }

    impl Transport for RefusingPeer {
        fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
            self.first.get_or_insert_with(|| frame.clone());
            Ok(())
        }

        fn recv(&mut self, _deadline: Instant) -> Result<Frame, TransportError> {
            Ok(Frame::new(msg::ERROR, 0, vec![errcode::BUSY]))
        }

        fn stats(&self) -> zaatar_transport::TransportStats {
            Default::default()
        }
    }

    /// Two sessions run from one PRG send different setups: each
    /// session's keys, `r`, query seed and `α`s are its own.
    #[test]
    fn run_session_verifier_draws_fresh_secrets_per_session() {
        fn two_setups(
            run: impl Fn(&mut RefusingPeer, &mut ChaChaPrg) -> Result<SessionReport, SessionError>,
        ) -> [Vec<u8>; 2] {
            let mut prg = ChaChaPrg::from_u64_seed(0xF2E5);
            [(); 2].map(|_| {
                let mut peer = RefusingPeer::default();
                assert_eq!(run(&mut peer, &mut prg).unwrap_err(), SessionError::Peer(errcode::BUSY));
                let setup = peer.first.expect("setup sent");
                assert_eq!(setup.msg_type, msg::HSETUP);
                setup.payload
            })
        }
        let (a, b, circuit_ids, _) = hetero_fixture();
        let pcps = [&a.pcp, &b.pcp];
        let ios = [a.ios[0].clone(), b.ios[0].clone(), a.ios[1].clone()];
        let policy = RetryPolicy::fast();
        let [first, second] =
            two_setups(|t, prg| run_hetero_session_verifier(t, &pcps, &circuit_ids, &ios, &policy, prg));
        assert!(first != second, "hetero sessions reused their secrets");
        let [first, second] = two_setups(|t, prg| run_session_verifier(t, &a.pcp, &a.ios, &policy, prg));
        assert!(first != second, "single-circuit sessions reused their secrets");
    }

    #[test]
    fn multi_circuit_machine_takes_hsetup_and_refuses_legacy_setup() {
        let (a, b, circuit_ids, proofs) = hetero_fixture();
        let pcps = [&a.pcp, &b.pcp];
        let prg = ChaChaPrg::from_u64_seed(0xA11D2);
        let mut verifier = HeteroSessionVerifier::new(&pcps, &circuit_ids, &prg);
        let hsetup = verifier.setup_message().unwrap();
        let legacy = SessionVerifier::new(&a.pcp, &mut prg.fork(9)).setup_message().unwrap();
        let mut ws = ProverWorkspace::new();
        let mut machine = ProverMachine::new(&pcps, &circuit_ids, &proofs);
        assert_eq!(
            machine.step(&Frame::new(msg::SETUP, 0, legacy), &mut ws),
            error(0, errcode::MALFORMED)
        );
        assert!(!machine.is_ready());
        assert_eq!(
            machine.step(&Frame::new(msg::HSETUP, 0, hsetup), &mut ws),
            ProverStep::Reply(Frame::new(msg::SETUP_ACK, 0, Vec::new()))
        );
        let ios = [&a.ios[0], &b.ios[0], &a.ios[1]];
        for (i, io) in ios.iter().enumerate() {
            let ProverStep::Reply(resp) = machine.step(&req(i as u32 + 1, i as u32), &mut ws) else {
                panic!("instance {i} not served");
            };
            assert_eq!((resp.msg_type, resp.seq), (msg::INSTANCE_RESP, i as u32 + 1));
            assert!(verifier.verify_instance(i, &resp.payload, io).unwrap());
        }
    }

    /// No frame a peer can send — any type, any seq, any payload,
    /// including mangled and well-formed setups in any order — panics
    /// the machine or gets an untyped reply.
    #[test]
    fn machine_survives_random_frames_with_typed_replies_only() {
        let (a, b, circuit_ids, proofs) = hetero_fixture();
        let pcps = [&a.pcp, &b.pcp];
        let prg = ChaChaPrg::from_u64_seed(0xA11D3);
        let hsetup = HeteroSessionVerifier::new(&pcps, &circuit_ids, &prg)
            .setup_message()
            .unwrap();
        let mut ws = ProverWorkspace::new();
        let mut machine = ProverMachine::new(&pcps, &circuit_ids, &proofs);
        let mut g = SplitMix64::new(0x5eed_f4a3);
        let (mut served, mut acked) = (0u32, 0u32);
        for round in 0..10_000 {
            let msg_type = g.range_u64(0, 10) as u8;
            let seq = g.next_u64() as u32;
            let payload = match g.range_u64(0, 64) {
                0 => hsetup.clone(),
                1 => {
                    let mut bad = hsetup.clone();
                    let at = g.range_u64(0, bad.len() as u64) as usize;
                    bad[at] ^= 1 << g.range_u64(0, 8);
                    bad
                }
                2 => hsetup[..g.range_u64(0, hsetup.len() as u64) as usize].to_vec(),
                3..=31 => (g.range_u64(0, 5) as u32).to_le_bytes().to_vec(),
                _ => (0..g.range_u64(0, 12)).map(|_| g.next_u64() as u8).collect(),
            };
            match machine.step(&Frame::new(msg_type, seq, payload), &mut ws) {
                ProverStep::Reply(reply) => {
                    assert!(
                        matches!(msg_type, msg::SETUP | msg::HSETUP | msg::INSTANCE_REQ),
                        "round {round}: reply to frame type {msg_type}"
                    );
                    assert_eq!(reply.seq, seq, "round {round}");
                    match reply.msg_type {
                        msg::SETUP_ACK => {
                            assert!(reply.payload.is_empty());
                            acked += 1;
                        }
                        msg::INSTANCE_RESP => served += 1,
                        msg::ERROR => assert!(
                            matches!(
                                reply.payload[..],
                                [errcode::MALFORMED | errcode::NO_SETUP | errcode::BAD_INDEX]
                            ),
                            "round {round}: untyped error {:?}",
                            reply.payload
                        ),
                        other => panic!("round {round}: untyped reply {other}"),
                    }
                }
                ProverStep::Ignore => {
                    assert!(!matches!(
                        msg_type,
                        msg::SETUP | msg::HSETUP | msg::INSTANCE_REQ | msg::DONE
                    ))
                }
                ProverStep::Done => assert_eq!(msg_type, msg::DONE),
                ProverStep::Fatal(e) => panic!("round {round}: unlimited workspace failed: {e}"),
            }
        }
        assert!(acked > 0 && served > 0, "the walk must reach the serving state");
        assert_eq!(machine.stats().responses_served, u64::from(served));
    }

    #[test]
    fn hetero_loopback_session_mixes_circuits() {
        let (a, b, circuit_ids, proofs) = hetero_fixture();
        let mut ios = vec![a.ios[0].clone(), b.ios[0].clone(), a.ios[1].clone()];
        // Lie about one instance's output: that instance alone rejects.
        let last = ios[2].len() - 1;
        ios[2][last] += F61::ONE;
        let (mut vt, mut pt) = loopback_transport_pair();
        let pcps = [&a.pcp, &b.pcp];
        let report = std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                run_hetero_session_prover(&mut pt, &pcps, &circuit_ids, &proofs, Duration::from_secs(5))
                    .unwrap()
            });
            let mut prg = ChaChaPrg::from_u64_seed(0xA11D7);
            let report = run_hetero_session_verifier(
                &mut vt,
                &pcps,
                &circuit_ids,
                &ios,
                &RetryPolicy::fast(),
                &mut prg,
            )
            .unwrap();
            let stats = server.join().unwrap();
            assert_eq!(stats.responses_served, 3);
            assert_eq!(stats.errors_reported, 0);
            report
        });
        assert_eq!(
            report.outcomes,
            [VerifyOutcome::Accepted, VerifyOutcome::Accepted, VerifyOutcome::Rejected]
        );
    }

    #[test]
    fn lying_instance_degrades_not_aborts() {
        let fx = mul_fixture(&[[2, 3], [4, 5], [6, 7]]);
        let mut ios = fx.ios.clone();
        // Claim a wrong output for the middle instance only.
        let last = ios[1].len() - 1;
        ios[1][last] += F61::ONE;
        let (mut vt, mut pt) = loopback_transport_pair();
        let report = std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                run_session_prover(&mut pt, &fx.pcp, &fx.proofs, Duration::from_secs(5)).unwrap()
            });
            let mut prg = ChaChaPrg::from_u64_seed(0xA11CF);
            let report =
                run_session_verifier(&mut vt, &fx.pcp, &ios, &RetryPolicy::fast(), &mut prg)
                    .unwrap();
            let stats = server.join().unwrap();
            assert_eq!(stats.responses_served, 3);
            assert_eq!(stats.errors_reported, 0);
            report
        });
        assert_eq!(
            report.outcomes,
            [VerifyOutcome::Accepted, VerifyOutcome::Rejected, VerifyOutcome::Accepted]
        );
        assert_eq!(report.retransmits, 0);
    }

    #[test]
    fn verifier_without_prover_times_out_with_verdicts() {
        let fx = mul_fixture(&[[1, 2], [3, 4]]);
        let (mut vt, _pt) = loopback_transport_pair();
        let policy = RetryPolicy {
            deadline: Duration::from_millis(150),
            initial_timeout: Duration::from_millis(20),
            backoff_factor: 2,
            max_timeout: Duration::from_millis(40),
            max_retransmits: 2,
        };
        let mut prg = ChaChaPrg::from_u64_seed(0xA11D0);
        let err = run_session_verifier(&mut vt, &fx.pcp, &fx.ios, &policy, &mut prg).unwrap_err();
        // Setup is the one fatal exchange: no prover, typed error out.
        assert_eq!(err, SessionError::Transport(TransportError::TimedOut));
    }
}
