//! A message-level session driver: the complete batched argument run
//! purely through encoded byte messages, as it would cross a real
//! network.
//!
//! Both endpoints hold the public computation (the PCP structure); the
//! verifier's secrets (`r`, `α`, the decryption key) never leave
//! [`SessionVerifier`], and the prover's witnesses never leave
//! [`SessionProver`]. PCP queries travel as a 32-byte seed
//! (\[53, Apdx A.3\]); `Enc(r)` and the consistency queries are explicit.
//! A session runs [`HeteroSessionVerifier`] and [`HeteroSessionProver`]
//! (one circuit or several); those wrap one per-circuit endpoint each.

use zaatar_crypto::{ChaChaPrg, Ciphertext, HasGroup};
use zaatar_field::PrimeField;
use zaatar_poly::domain::EvalDomain;

use zaatar_transport::TransportError;

use crate::commit::{decommit_packed_into, CommitmentKey, Decommitment};
use crate::pcp::{BatchQuerySet, PcpResponses, QuerySet, ZaatarPcp, ZaatarProof};
use crate::wire::{Reader, WireError, Writer};
use crate::workspace::ProverWorkspace;

/// Everything that can go wrong while running a session, typed so a
/// driver can degrade gracefully instead of aborting the batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// An operation that needs the setup message ran before it arrived
    /// (e.g. [`SessionProver::instance_message_policied`]).
    SetupNotReceived,
    /// The channel failed: timeout after all retransmits, peer gone,
    /// or an OS-level error.
    Transport(TransportError),
    /// A message arrived intact (framing CRC passed) but its contents
    /// failed protocol validation.
    Wire(WireError),
    /// The peer reported a failure of its own (the error code travels
    /// in the message payload).
    Peer(u8),
    /// The peer violated the message sequence in a way retransmission
    /// cannot fix.
    Protocol(&'static str),
    /// The prover's workspace budget refused a buffer lease:
    /// admitting `requested_bytes` on top of `footprint_bytes` already
    /// outstanding would exceed `limit_bytes`. The session is intact —
    /// a driver can retry with a smaller chunk size, shed other
    /// tenants, or degrade the request — and all partial leases were
    /// returned to the pool before the error surfaced.
    BudgetExceeded {
        /// Bytes the refused lease asked for.
        requested_bytes: usize,
        /// Bytes already leased out of the pool at refusal time.
        footprint_bytes: usize,
        /// The hard cap in force.
        limit_bytes: usize,
    },
}

impl core::fmt::Display for SessionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SessionError::SetupNotReceived => {
                write!(f, "setup message has not been received yet")
            }
            SessionError::Transport(e) => write!(f, "transport failure: {e}"),
            SessionError::Wire(e) => write!(f, "malformed message: {e}"),
            SessionError::Peer(code) => write!(f, "peer reported error code {code}"),
            SessionError::Protocol(what) => write!(f, "protocol violation: {what}"),
            SessionError::BudgetExceeded {
                requested_bytes,
                footprint_bytes,
                limit_bytes,
            } => write!(
                f,
                "memory budget exceeded: lease of {requested_bytes} bytes \
                 over {footprint_bytes} outstanding would pass the \
                 {limit_bytes}-byte cap"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<zaatar_mem::BudgetError> for SessionError {
    fn from(e: zaatar_mem::BudgetError) -> Self {
        SessionError::BudgetExceeded {
            requested_bytes: e.requested_bytes,
            footprint_bytes: e.footprint_bytes,
            limit_bytes: e.limit_bytes,
        }
    }
}

impl From<TransportError> for SessionError {
    fn from(e: TransportError) -> Self {
        SessionError::Transport(e)
    }
}

impl From<WireError> for SessionError {
    fn from(e: WireError) -> Self {
        SessionError::Wire(e)
    }
}

/// The per-batch query-generation seed, drawn by the verifier.
fn fresh_seed(prg: &mut ChaChaPrg) -> [u8; 32] {
    zaatar_obs::counter("network.seeds_drawn").inc();
    let mut seed = [0u8; 32];
    prg.fill_bytes(&mut seed);
    seed
}

/// Regenerates the verifier's PCP query set from a public seed: both
/// parties calling this with the same seed obtain identical queries.
fn queries_from_seed<F: PrimeField, D: EvalDomain<F>>(
    pcp: &ZaatarPcp<F, D>,
    seed: [u8; 32],
) -> QuerySet<F> {
    zaatar_obs::counter("network.seed_derivations").inc();
    let mut prg = ChaChaPrg::from_seed(seed);
    pcp.generate_queries(&mut prg)
}

/// The verifier endpoint of a session.
pub struct SessionVerifier<'p, F: HasGroup, D> {
    pcp: &'p ZaatarPcp<F, D>,
    key_z: CommitmentKey<F>,
    key_h: CommitmentKey<F>,
    query_seed: [u8; 32],
    queries: QuerySet<F>,
    t_z: Vec<F>,
    t_h: Vec<F>,
    alphas_z: Vec<F>,
    alphas_h: Vec<F>,
}

/// The prover endpoint of a session. The seed-derived queries are
/// packed once per setup ([`BatchQuerySet`]), so every instance of the
/// batch is answered off the same matrices by the blocked kernel.
pub struct SessionProver<'p, F: HasGroup, D> {
    pcp: &'p ZaatarPcp<F, D>,
    enc_r_z: Vec<Ciphertext>,
    enc_r_h: Vec<Ciphertext>,
    queries: Option<BatchQuerySet<F>>,
    t_z: Vec<F>,
    t_h: Vec<F>,
}

impl<'p, F: HasGroup + PrimeField, D: EvalDomain<F>> SessionVerifier<'p, F, D> {
    /// Batch setup; all verifier secrets are drawn from `prg`.
    pub fn new(pcp: &'p ZaatarPcp<F, D>, prg: &mut ChaChaPrg) -> Self {
        let n_z = pcp.qap().var_map().num_unbound();
        let n_h = pcp.qap().degree() + 1;
        let key_z = CommitmentKey::generate(n_z, prg);
        let key_h = CommitmentKey::generate(n_h, prg);
        let query_seed = fresh_seed(prg);
        let queries = queries_from_seed(pcp, query_seed);
        let (t_z, alphas_z) = key_z.consistency_query(&queries.z_queries(), prg);
        let (t_h, alphas_h) = key_h.consistency_query(&queries.h_queries(), prg);
        SessionVerifier {
            pcp,
            key_z,
            key_h,
            query_seed,
            queries,
            t_z,
            t_h,
            alphas_z,
            alphas_h,
        }
    }

    /// Message 1 (V → P): `Enc(r_z) ‖ Enc(r_h) ‖ seed ‖ t_z ‖ t_h`.
    ///
    /// Fails with [`WireError::TooLong`] if a commitment key is too
    /// large for the u32 length prefixes (a computation the wire format
    /// cannot carry), rather than truncating a count.
    pub fn setup_message(&mut self) -> Result<Vec<u8>, WireError> {
        let mut w = Writer::new();
        w.put_len(self.key_z.enc_r.len())?;
        for ct in &self.key_z.enc_r {
            w.put_ciphertext::<F>(ct);
        }
        w.put_len(self.key_h.enc_r.len())?;
        for ct in &self.key_h.enc_r {
            w.put_ciphertext::<F>(ct);
        }
        w.put_bytes(&self.query_seed);
        w.put_field_vec(&self.t_z)?;
        w.put_field_vec(&self.t_h)?;
        Ok(w.finish())
    }

    /// Verifies one instance's message 2 (P → V). `io` is inputs then
    /// outputs in QAP order.
    pub fn verify_instance(&mut self, message: &[u8], io: &[F]) -> Result<bool, WireError> {
        let ((cz, ch), dz, dh) = crate::wire::decode_prover_message::<F>(message)?;
        let ok = self
            .key_z
            .verify(&cz, &dz.answers, dz.t_answer, &self.alphas_z)
            && self
                .key_h
                .verify(&ch, &dh.answers, dh.t_answer, &self.alphas_h)
            && self.pcp.check(
                &self.queries,
                &PcpResponses {
                    z_answers: dz.answers,
                    h_answers: dh.answers,
                },
                io,
            );
        Ok(ok)
    }
}

impl<'p, F: HasGroup + PrimeField, D: EvalDomain<F>> SessionProver<'p, F, D> {
    /// A prover endpoint awaiting the setup message.
    pub fn new(pcp: &'p ZaatarPcp<F, D>) -> Self {
        SessionProver {
            pcp,
            enc_r_z: Vec::new(),
            enc_r_h: Vec::new(),
            queries: None,
            t_z: Vec::new(),
            t_h: Vec::new(),
        }
    }

    /// Processes message 1, regenerating the PCP queries from the seed.
    ///
    /// The message is untrusted: every announced count is validated
    /// against the count the shared PCP structure dictates *before*
    /// anything is allocated or decoded, so a malicious length prefix
    /// cannot force a large allocation or leave the prover in a
    /// half-initialised state (`self` is only updated once the whole
    /// message has validated).
    pub fn receive_setup(&mut self, message: &[u8]) -> Result<(), WireError> {
        // Checked conversions: a computation whose structural counts
        // exceed u32 cannot be carried by this wire format at all, so
        // refuse outright instead of comparing against truncated values.
        let nz_structural = self.pcp.qap().var_map().num_unbound();
        let nh_structural = self.pcp.qap().degree() + 1;
        let expect_nz =
            u32::try_from(nz_structural).map_err(|_| WireError::TooLong { len: nz_structural })?;
        let expect_nh =
            u32::try_from(nh_structural).map_err(|_| WireError::TooLong { len: nh_structural })?;
        let mut r = Reader::new(message);
        let nz = r.get_u32()?;
        if nz != expect_nz {
            return Err(WireError::CountMismatch { expected: expect_nz, got: nz });
        }
        let enc_r_z: Vec<Ciphertext> = (0..nz)
            .map(|_| r.get_ciphertext::<F>())
            .collect::<Result<_, _>>()?;
        let nh = r.get_u32()?;
        if nh != expect_nh {
            return Err(WireError::CountMismatch { expected: expect_nh, got: nh });
        }
        let enc_r_h: Vec<Ciphertext> = (0..nh)
            .map(|_| r.get_ciphertext::<F>())
            .collect::<Result<_, _>>()?;
        let mut seed = [0u8; 32];
        seed.copy_from_slice(r.get_bytes(32)?);
        // get_field_vec reads a u32 prefix, so these lengths fit u32.
        let t_z = r.get_field_vec()?;
        if t_z.len() != nz_structural {
            return Err(WireError::CountMismatch {
                expected: expect_nz,
                got: t_z.len() as u32,
            });
        }
        let t_h = r.get_field_vec()?;
        if t_h.len() != nh_structural {
            return Err(WireError::CountMismatch {
                expected: expect_nh,
                got: t_h.len() as u32,
            });
        }
        r.finish()?;
        self.enc_r_z = enc_r_z;
        self.enc_r_h = enc_r_h;
        self.t_z = t_z;
        self.t_h = t_h;
        self.queries = Some(BatchQuerySet::new(queries_from_seed(self.pcp, seed)));
        Ok(())
    }

    /// True once a valid setup message has been processed.
    pub fn is_ready(&self) -> bool {
        self.queries.is_some()
    }

    /// Produces one instance's message 2 — commitments + decommitments
    /// for a proof — the Commit and Answer stages of the pipeline, over
    /// buffers leased from `ws`. Fails with
    /// [`SessionError::SetupNotReceived`] when called before
    /// [`SessionProver::receive_setup`] has succeeded.
    ///
    /// The workspace's stamped [`zaatar_sched::ExecPolicy`] gives the
    /// chunk length the commitment MSM is fed at
    /// ([`zaatar_sched::Proving::chunk_len_for`]), so bucket storage
    /// tracks the chunk instead of the oracle length, and the worker
    /// count: with two or more, each commitment's two ciphertext
    /// components run concurrently and each oracle's query rows are
    /// answered in that many shards; with one, everything runs on the
    /// calling thread. The Answer-stage buffers are hard `try_take`
    /// leases — identical to `take` under an unlimited budget, a typed
    /// [`SessionError::BudgetExceeded`] instead of an allocation past
    /// the cap under a finite one — and, like the bucket buffers, are
    /// leased from `ws` before any thread splits off. Bytes on the wire
    /// are identical under every policy.
    pub fn instance_message_policied(
        &self,
        proof: &ZaatarProof<F>,
        ws: &mut ProverWorkspace<F>,
    ) -> Result<Vec<u8>, SessionError> {
        let queries = self.queries.as_ref().ok_or(SessionError::SetupNotReceived)?;
        let commit = |enc_r: &[Ciphertext], u: &[F], ws: &mut ProverWorkspace<F>| {
            let chunk_len = ws.policy().proving.chunk_len_for(u.len());
            CommitmentKey::<F>::commit_chunked(enc_r, u, chunk_len, ws)
        };
        let commitments = (
            commit(&self.enc_r_z, &proof.z, ws),
            commit(&self.enc_r_h, &proof.h, ws),
        );
        // Query answering (Fig. 5's "answer queries" column reads this
        // span), through the blocked kernel off the batch-packed matrices.
        let answer_span = zaatar_obs::time("pcp.answer");
        zaatar_obs::counter("pcp.batch.query_reuse").inc();
        let buf_z = ws.scratch().try_take(queries.z_matrix().num_rows(), F::ZERO)?;
        let buf_h = match ws.scratch().try_take(queries.h_matrix().num_rows(), F::ZERO) {
            Ok(buf) => buf,
            Err(e) => {
                ws.scratch().put(buf_z);
                return Err(e.into());
            }
        };
        let workers = ws.policy().workers;
        let dz: Decommitment<F> =
            decommit_packed_into(&proof.z, queries.z_matrix(), &self.t_z, workers, buf_z);
        let dh: Decommitment<F> =
            decommit_packed_into(&proof.h, queries.h_matrix(), &self.t_h, workers, buf_h);
        drop(answer_span);
        let bytes = crate::wire::encode_prover_message(&commitments, &dz, &dh)?;
        ws.scratch().put(dh.answers);
        ws.scratch().put(dz.answers);
        Ok(bytes)
    }
}

/// PRG stream offset for per-circuit secrets in a heterogeneous
/// session: circuit `c` draws from `prg.fork(HETERO_PRG_STREAM_BASE + c)`.
///
/// `prg` is the session's own PRG: `run_hetero_session_verifier` seeds
/// it from a 32-byte draw and takes its retry jitter from stream 1;
/// stream 0 is unused. Pinning the convention here makes a session
/// *transcript-compatible* with isolated per-circuit sessions: an
/// isolated [`SessionVerifier`] seeded from the same fork produces
/// byte-identical setup blobs and therefore byte-identical instance
/// responses.
pub const HETERO_PRG_STREAM_BASE: u64 = 2;

/// The verifier endpoint of a session: one or several circuits, each
/// batch instance tagged with the circuit it belongs to. Wraps one
/// [`SessionVerifier`] per circuit; all secrets for circuit `c` come
/// from `prg.fork(HETERO_PRG_STREAM_BASE + c)`.
pub struct HeteroSessionVerifier<'p, F: HasGroup, D> {
    verifiers: Vec<SessionVerifier<'p, F, D>>,
    circuit_ids: Vec<u32>,
}

/// The prover endpoint of a session: one
/// [`SessionProver`] per circuit, so each circuit's seed-derived
/// queries are packed once ([`BatchQuerySet`]) and every instance of
/// that circuit is answered off the same matrices (grouped answering).
pub struct HeteroSessionProver<'p, F: HasGroup, D> {
    pcps: Vec<&'p ZaatarPcp<F, D>>,
    provers: Vec<SessionProver<'p, F, D>>,
    circuit_ids: Vec<u32>,
}

impl<'p, F: HasGroup + PrimeField, D: EvalDomain<F>> HeteroSessionVerifier<'p, F, D> {
    /// Batch setup over `pcps.len()` circuits; `circuit_ids[i]` names
    /// the circuit instance `i` runs on.
    ///
    /// # Panics
    ///
    /// Panics if any circuit id is out of range — the instance→circuit
    /// assignment is the verifier's own data, not untrusted input.
    pub fn new(
        pcps: &[&'p ZaatarPcp<F, D>],
        circuit_ids: &[u32],
        prg: &ChaChaPrg,
    ) -> Self {
        assert!(
            circuit_ids.iter().all(|&c| (c as usize) < pcps.len()),
            "circuit id out of range"
        );
        let verifiers = pcps
            .iter()
            .enumerate()
            .map(|(c, pcp)| {
                let mut sub = prg.fork(HETERO_PRG_STREAM_BASE + c as u64);
                SessionVerifier::new(pcp, &mut sub)
            })
            .collect();
        HeteroSessionVerifier {
            verifiers,
            circuit_ids: circuit_ids.to_vec(),
        }
    }

    /// Message 1 (V → P): the session setup. Layout:
    ///
    /// ```text
    /// u32 C                      circuit count
    /// C × { u32 len ‖ bytes }    each circuit's setup message
    /// u32 B                      batch size
    /// B × u32                    per-instance circuit id
    /// ```
    ///
    /// Each embedded blob is byte-for-byte the [`SessionVerifier`]
    /// setup message of that circuit.
    pub fn setup_message(&mut self) -> Result<Vec<u8>, WireError> {
        let mut w = Writer::new();
        w.put_len(self.verifiers.len())?;
        for v in &mut self.verifiers {
            let blob = v.setup_message()?;
            w.put_len(blob.len())?;
            w.put_bytes(&blob);
        }
        w.put_len(self.circuit_ids.len())?;
        for &c in &self.circuit_ids {
            w.put_u32(c);
        }
        Ok(w.finish())
    }

    /// Verifies instance `i`'s message 2 against the circuit it was
    /// assigned at construction. `io` is inputs then outputs in that
    /// circuit's QAP order.
    pub fn verify_instance(
        &mut self,
        i: usize,
        message: &[u8],
        io: &[F],
    ) -> Result<bool, WireError> {
        let c = self.circuit_ids[i] as usize;
        self.verifiers[c].verify_instance(message, io)
    }
}

impl<'p, F: HasGroup + PrimeField, D: EvalDomain<F>> HeteroSessionProver<'p, F, D> {
    /// A prover endpoint awaiting the heterogeneous setup.
    /// `circuit_ids[i]` is the circuit the prover's instance `i` (and
    /// hence its `i`-th proof) belongs to — the prover's own batch
    /// layout, validated against the verifier's announcement in
    /// [`HeteroSessionProver::receive_setup`].
    ///
    /// # Panics
    ///
    /// Panics if any circuit id is out of range (local data, not wire
    /// input).
    pub fn new(pcps: &[&'p ZaatarPcp<F, D>], circuit_ids: &[u32]) -> Self {
        assert!(
            circuit_ids.iter().all(|&c| (c as usize) < pcps.len()),
            "circuit id out of range"
        );
        HeteroSessionProver {
            pcps: pcps.to_vec(),
            provers: pcps.iter().map(|pcp| SessionProver::new(pcp)).collect(),
            circuit_ids: circuit_ids.to_vec(),
        }
    }

    /// Processes the heterogeneous setup message. The framing (circuit
    /// count, batch size, per-instance assignment) is validated against
    /// the prover's own layout before any per-circuit state changes; a
    /// failure in any embedded blob resets every circuit to unready, so
    /// the endpoint is never half-initialised across circuits.
    pub fn receive_setup(&mut self, message: &[u8]) -> Result<(), WireError> {
        let mut r = Reader::new(message);
        let c_count = r.get_u32()?;
        let expect_c = u32::try_from(self.provers.len())
            .map_err(|_| WireError::TooLong { len: self.provers.len() })?;
        if c_count != expect_c {
            return Err(WireError::CountMismatch { expected: expect_c, got: c_count });
        }
        let mut blobs: Vec<&[u8]> = Vec::with_capacity(c_count as usize);
        for _ in 0..c_count {
            let len = r.get_u32()? as usize;
            blobs.push(r.get_bytes(len)?);
        }
        let b_count = r.get_u32()?;
        let expect_b = u32::try_from(self.circuit_ids.len())
            .map_err(|_| WireError::TooLong { len: self.circuit_ids.len() })?;
        if b_count != expect_b {
            return Err(WireError::CountMismatch { expected: expect_b, got: b_count });
        }
        for &expected in &self.circuit_ids {
            let got = r.get_u32()?;
            if got != expected {
                return Err(WireError::CountMismatch { expected, got });
            }
        }
        r.finish()?;
        for (c, blob) in blobs.iter().enumerate() {
            if let Err(e) = self.provers[c].receive_setup(blob) {
                // Reset: no circuit may stay initialised under a setup
                // that failed partway.
                self.provers = self.pcps.iter().map(|pcp| SessionProver::new(pcp)).collect();
                return Err(e);
            }
        }
        Ok(())
    }

    /// True once every circuit has a valid setup.
    pub fn is_ready(&self) -> bool {
        self.provers.iter().all(SessionProver::is_ready)
    }

    /// Produces instance `i`'s message 2 through that instance's
    /// circuit; see [`SessionProver::instance_message_policied`]. Bytes
    /// are identical to what an isolated [`SessionProver`] for the same
    /// circuit and setup would emit.
    pub fn instance_message_policied(
        &self,
        i: usize,
        proof: &ZaatarProof<F>,
        ws: &mut ProverWorkspace<F>,
    ) -> Result<Vec<u8>, SessionError> {
        let c = self.circuit_ids[i] as usize;
        self.provers[c].instance_message_policied(proof, ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcp::PcpParams;
    use crate::qap::Qap;
    use zaatar_cc::{ginger_to_quad, Builder};
    use zaatar_field::{Field, F61};

    #[allow(clippy::type_complexity)]
    fn fixture(
        inputs: &[[i64; 2]],
    ) -> (
        ZaatarPcp<F61, zaatar_poly::Radix2Domain<F61>>,
        Vec<ZaatarProof<F61>>,
        Vec<Vec<F61>>,
    ) {
        let mut b = Builder::<F61>::new();
        let x = b.alloc_input();
        let y = b.alloc_input();
        let p = b.mul(&x, &y);
        let e = b.is_eq(&x, &y);
        b.bind_output(&p.add(&e));
        let (sys, solver) = b.finish();
        let t = ginger_to_quad(&sys);
        let qap = Qap::new(&t.system);
        let pcp = ZaatarPcp::new(qap, PcpParams::light());
        let mut proofs = Vec::new();
        let mut ios = Vec::new();
        for pair in inputs {
            let asg = solver
                .solve(&[F61::from_i64(pair[0]), F61::from_i64(pair[1])])
                .unwrap();
            let ext = t.extend_assignment(&asg);
            let w = pcp.qap().witness(&ext);
            proofs.push(pcp.prove(&w).unwrap());
            ios.push(
                pcp.qap()
                    .var_map()
                    .inputs()
                    .iter()
                    .chain(pcp.qap().var_map().outputs())
                    .map(|v| ext.get(*v))
                    .collect(),
            );
        }
        (pcp, proofs, ios)
    }

    #[test]
    fn seeded_queries_match_between_parties() {
        let (pcp, _, _) = fixture(&[]);
        let mut prg = ChaChaPrg::from_u64_seed(77);
        let seed = fresh_seed(&mut prg);
        let verifier_side = queries_from_seed(&pcp, seed);
        let prover_side = queries_from_seed(&pcp, seed);
        // Identical query vectors in both orderings.
        let vq = verifier_side.z_queries();
        let pq = prover_side.z_queries();
        assert_eq!(vq.len(), pq.len());
        for (a, b) in vq.iter().zip(pq.iter()) {
            assert_eq!(a, b);
        }
        let vh = verifier_side.h_queries();
        let ph = prover_side.h_queries();
        for (a, b) in vh.iter().zip(ph.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (pcp, _, _) = fixture(&[]);
        let q1 = queries_from_seed(&pcp, [1u8; 32]);
        let q2 = queries_from_seed(&pcp, [2u8; 32]);
        assert_ne!(q1.z_queries()[0], q2.z_queries()[0]);
    }

    #[test]
    fn full_session_over_bytes() {
        let (pcp, proofs, ios) = fixture(&[[3, 7], [5, 5], [0, 9]]);
        let reuses_before = zaatar_obs::counter("pcp.batch.query_reuse").get();
        let mut prg = ChaChaPrg::from_u64_seed(0x5e55);
        let mut verifier = SessionVerifier::new(&pcp, &mut prg);
        let mut prover = SessionProver::new(&pcp);
        let mut ws = ProverWorkspace::new();
        // Everything crosses the boundary as bytes.
        let setup = verifier.setup_message().unwrap();
        prover.receive_setup(&setup).unwrap();
        assert!(!setup.is_empty());
        for (proof, io) in proofs.iter().zip(&ios) {
            let msg = prover.instance_message_policied(proof, &mut ws).unwrap();
            assert!(!msg.is_empty());
            assert!(verifier.verify_instance(&msg, io).unwrap());
        }
        // One packed query generation served all three instances.
        assert!(zaatar_obs::counter("pcp.batch.query_reuse").get() >= reuses_before + 3);
    }

    #[test]
    fn corrupted_wire_message_rejected_or_errors() {
        let (pcp, proofs, ios) = fixture(&[[2, 4]]);
        let mut prg = ChaChaPrg::from_u64_seed(0x5e56);
        let mut verifier = SessionVerifier::new(&pcp, &mut prg);
        let mut prover = SessionProver::new(&pcp);
        prover.receive_setup(&verifier.setup_message().unwrap()).unwrap();
        let mut ws = ProverWorkspace::new();
        let mut msg = prover.instance_message_policied(&proofs[0], &mut ws).unwrap();
        // Flip a byte in the middle (inside an answer).
        let mid = msg.len() / 2;
        msg[mid] ^= 0x01;
        // Malformed encoding (Err) is also a fine outcome.
        if let Ok(accepted) = verifier.verify_instance(&msg, &ios[0]) {
            assert!(!accepted, "corrupted message accepted");
        }
    }

    #[test]
    fn wrong_claimed_io_rejected_over_wire() {
        let (pcp, proofs, ios) = fixture(&[[6, 6], [3, 7], [0, 9]]);
        let mut prg = ChaChaPrg::from_u64_seed(0x5e57);
        let mut verifier = SessionVerifier::new(&pcp, &mut prg);
        let mut prover = SessionProver::new(&pcp);
        prover.receive_setup(&verifier.setup_message().unwrap()).unwrap();
        let mut ws = ProverWorkspace::new();
        let msgs: Vec<Vec<u8>> = proofs
            .iter()
            .map(|p| prover.instance_message_policied(p, &mut ws).unwrap())
            .collect();
        let mut lie = ios[0].clone();
        *lie.last_mut().unwrap() += F61::ONE;
        assert!(!verifier.verify_instance(&msgs[0], &lie).unwrap());
        // A statement of the wrong arity is a wrong statement: trailing
        // claimed values are not ignored...
        let mut long = ios[1].clone();
        long.extend([F61::from_u64(123_456), F61::from_u64(99)]);
        assert!(!verifier.verify_instance(&msgs[1], &long).unwrap());
        // ...and a missing output is not read as zero (the true output
        // of (0, 9) *is* zero, so only the arity gives this one away).
        assert_eq!(ios[2], [F61::ZERO, F61::from_u64(9), F61::ZERO]);
        assert!(!verifier.verify_instance(&msgs[2], &ios[2][..2]).unwrap());
        // The same messages under the true statements still accept.
        for (msg, io) in msgs.iter().zip(&ios) {
            assert!(verifier.verify_instance(msg, io).unwrap());
        }
    }

    #[test]
    fn truncated_setup_errors() {
        let (pcp, _, _) = fixture(&[[1, 1]]);
        let mut prg = ChaChaPrg::from_u64_seed(0x5e58);
        let mut verifier = SessionVerifier::new(&pcp, &mut prg);
        let mut prover = SessionProver::new(&pcp);
        let mut setup = verifier.setup_message().unwrap();
        setup.truncate(setup.len() - 3);
        assert!(prover.receive_setup(&setup).is_err());
        // A failed setup leaves the prover unready, and proving without
        // setup is an error, not a panic.
        assert!(!prover.is_ready());
    }

    #[test]
    fn proving_before_setup_is_an_error_not_a_panic() {
        let (pcp, proofs, _) = fixture(&[[2, 3]]);
        let prover = SessionProver::new(&pcp);
        assert_eq!(
            prover
                .instance_message_policied(&proofs[0], &mut ProverWorkspace::new())
                .unwrap_err(),
            SessionError::SetupNotReceived
        );
    }

    /// A second, structurally different circuit (`y = (x + y)·x`) for
    /// heterogeneous-batch tests.
    #[allow(clippy::type_complexity)]
    fn fixture_b(
        inputs: &[[i64; 2]],
    ) -> (
        ZaatarPcp<F61, zaatar_poly::Radix2Domain<F61>>,
        Vec<ZaatarProof<F61>>,
        Vec<Vec<F61>>,
    ) {
        let mut b = Builder::<F61>::new();
        let x = b.alloc_input();
        let y = b.alloc_input();
        let s = x.add(&y);
        let p = b.mul(&s, &x);
        b.bind_output(&p);
        let (sys, solver) = b.finish();
        let t = ginger_to_quad(&sys);
        let qap = Qap::new(&t.system);
        let pcp = ZaatarPcp::new(qap, PcpParams::light());
        let mut proofs = Vec::new();
        let mut ios = Vec::new();
        for pair in inputs {
            let asg = solver
                .solve(&[F61::from_i64(pair[0]), F61::from_i64(pair[1])])
                .unwrap();
            let ext = t.extend_assignment(&asg);
            let w = pcp.qap().witness(&ext);
            proofs.push(pcp.prove(&w).unwrap());
            ios.push(
                pcp.qap()
                    .var_map()
                    .inputs()
                    .iter()
                    .chain(pcp.qap().var_map().outputs())
                    .map(|v| ext.get(*v))
                    .collect(),
            );
        }
        (pcp, proofs, ios)
    }

    #[test]
    fn hetero_session_mixes_circuits_and_matches_isolated_bytes() {
        let (pcp_a, proofs_a, ios_a) = fixture(&[[3, 7], [5, 5]]);
        let (pcp_b, proofs_b, ios_b) = fixture_b(&[[2, 9], [4, 1]]);
        // Interleave: a0, b0, a1, b1.
        let circuit_ids = [0u32, 1, 0, 1];
        let proofs = [&proofs_a[0], &proofs_b[0], &proofs_a[1], &proofs_b[1]];
        let ios = [&ios_a[0], &ios_b[0], &ios_a[1], &ios_b[1]];
        let prg = ChaChaPrg::from_u64_seed(0x4e7e);
        let pcps = [&pcp_a, &pcp_b];
        let mut verifier = HeteroSessionVerifier::new(&pcps, &circuit_ids, &prg);
        let mut prover = HeteroSessionProver::new(&pcps, &circuit_ids);
        assert!(!prover.is_ready());
        let setup = verifier.setup_message().unwrap();
        prover.receive_setup(&setup).unwrap();
        assert!(prover.is_ready());

        // Isolated per-circuit sessions from the same PRG forks must
        // produce byte-identical instance responses.
        let mut iso_provers = Vec::new();
        for (c, pcp) in pcps.iter().enumerate() {
            let mut sub = prg.fork(HETERO_PRG_STREAM_BASE + c as u64);
            let mut iso_v = SessionVerifier::new(pcp, &mut sub);
            let mut iso_p = SessionProver::new(pcp);
            iso_p.receive_setup(&iso_v.setup_message().unwrap()).unwrap();
            iso_provers.push(iso_p);
        }
        let mut ws = ProverWorkspace::new();
        for (i, (proof, io)) in proofs.iter().zip(ios).enumerate() {
            let msg = prover.instance_message_policied(i, proof, &mut ws).unwrap();
            let iso = iso_provers[circuit_ids[i] as usize]
                .instance_message_policied(proof, &mut ws)
                .unwrap();
            assert_eq!(msg, iso, "instance {i} transcript diverged from isolated session");
            assert!(verifier.verify_instance(i, &msg, io).unwrap());
        }
    }

    #[test]
    fn hetero_io_with_the_other_circuits_arity_is_rejected() {
        // Circuit 0 has io arity 3 (two inputs, one output); circuit 1,
        // `y = x²`, has arity 2.
        let (pcp_a, proofs_a, ios_a) = fixture(&[[0, 9]]);
        let mut b = Builder::<F61>::new();
        let x = b.alloc_input();
        let y = b.square(&x);
        b.bind_output(&y);
        let (sys, solver) = b.finish();
        let sq = crate::testutil::circuit_fixture(&sys, &solver, &[vec![F61::ZERO]]);
        let pcps = [&pcp_a, &sq.pcp];
        let circuit_ids = [0u32, 1];
        let prg = ChaChaPrg::from_u64_seed(0x4e81);
        let mut verifier = HeteroSessionVerifier::new(&pcps, &circuit_ids, &prg);
        let mut prover = HeteroSessionProver::new(&pcps, &circuit_ids);
        prover.receive_setup(&verifier.setup_message().unwrap()).unwrap();
        let mut ws = ProverWorkspace::new();
        let msg_a = prover.instance_message_policied(0, &proofs_a[0], &mut ws).unwrap();
        let msg_sq = prover.instance_message_policied(1, &sq.proofs[0], &mut ws).unwrap();
        assert!(verifier.verify_instance(0, &msg_a, &ios_a[0]).unwrap());
        assert!(verifier.verify_instance(1, &msg_sq, &sq.ios[0]).unwrap());
        // Each instance claimed with the other circuit's arity; the
        // values agree on the common prefix and the surplus is zero, so
        // only the arity check can tell.
        assert!(!verifier.verify_instance(0, &msg_a, &ios_a[0][..2]).unwrap());
        assert!(!verifier.verify_instance(1, &msg_sq, &[F61::ZERO; 3]).unwrap());
    }

    #[test]
    fn hetero_setup_with_mismatched_layout_is_refused() {
        let (pcp_a, _, _) = fixture(&[[1, 2]]);
        let (pcp_b, _, _) = fixture_b(&[[3, 4]]);
        let prg = ChaChaPrg::from_u64_seed(0x4e7f);
        let pcps = [&pcp_a, &pcp_b];
        let mut verifier = HeteroSessionVerifier::new(&pcps, &[0, 1], &prg);
        let setup = verifier.setup_message().unwrap();
        // Prover expecting a different instance→circuit assignment.
        let mut prover = HeteroSessionProver::new(&pcps, &[1, 0]);
        assert!(prover.receive_setup(&setup).is_err());
        assert!(!prover.is_ready());
        // And one expecting a different batch size.
        let mut prover = HeteroSessionProver::new(&pcps, &[0, 1, 1]);
        assert!(prover.receive_setup(&setup).is_err());
        assert!(!prover.is_ready());
        // A truncated hetero setup leaves every circuit unready.
        let mut prover = HeteroSessionProver::new(&pcps, &[0, 1]);
        let mut bad = setup.clone();
        bad.truncate(bad.len() - 2);
        assert!(prover.receive_setup(&bad).is_err());
        assert!(!prover.is_ready());
        // The correct layout still works afterwards.
        prover.receive_setup(&setup).unwrap();
        assert!(prover.is_ready());
    }

    #[test]
    fn malicious_setup_counts_are_refused_before_allocation() {
        let (pcp, _, _) = fixture(&[[4, 5]]);
        let mut prg = ChaChaPrg::from_u64_seed(0x5e59);
        let mut verifier = SessionVerifier::new(&pcp, &mut prg);
        let mut prover = SessionProver::new(&pcp);
        let setup = verifier.setup_message().unwrap();
        // Overwrite the leading ciphertext count with an absurd value:
        // the prover must refuse on the count check alone (the message
        // is far too short to back it, and the structure pins the real
        // count anyway).
        let mut evil = setup.clone();
        evil[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            prover.receive_setup(&evil),
            Err(WireError::CountMismatch { .. })
        ));
        assert!(!prover.is_ready());
        // An off-by-one count is refused just the same.
        let real = u32::from_le_bytes(setup[..4].try_into().unwrap());
        let mut evil = setup;
        evil[..4].copy_from_slice(&(real + 1).to_le_bytes());
        assert!(matches!(
            prover.receive_setup(&evil),
            Err(WireError::CountMismatch { .. })
        ));
    }
}
