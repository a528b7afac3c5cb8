//! The end-to-end batched argument system (Fig. 2, with Zaatar's PCP in
//! place of the classical one).
//!
//! Message flow per batch of β instances of one computation Ψ:
//!
//! 1. **V → P**: `Enc(r_z)`, `Enc(r_h)` — commitment request (once per
//!    batch);
//! 2. **P → V**: per instance, the commitments `Enc(π_z(r_z))`,
//!    `Enc(π_h(r_h))`;
//! 3. **V → P**: the PCP queries plus the consistency queries `t_z`,
//!    `t_h` (once per batch — this is the cost the batch amortizes);
//! 4. **P → V**: per instance, answers to every query;
//! 5. **V**: per instance, the commitment consistency check and then the
//!    Fig. 10 PCP checks.
//!
//! Per-phase timings are recorded on both sides; they feed the Fig. 5
//! decomposition and the Fig. 7 break-even computation.

use std::time::{Duration, Instant};

use zaatar_crypto::{ChaChaPrg, Ciphertext, HasGroup};
use zaatar_field::PrimeField;
use zaatar_poly::domain::EvalDomain;

use crate::commit::{decommit, decommit_packed, CommitmentKey, Decommitment};
use crate::ginger::{GingerPcp, GingerProof, GingerResponses};
use crate::matvec::QueryMatrix;
use crate::pcp::{BatchQuerySet, PcpParams, PcpResponses, QuerySet, ZaatarPcp, ZaatarProof};
use crate::qap::QapWitness;
use crate::workspace::ProverWorkspace;

/// Argument-level parameters.
#[derive(Copy, Clone, Debug, Default)]
pub struct ArgumentParams {
    /// The PCP repetition parameters.
    pub pcp: PcpParams,
}

/// Cumulative prover phase timings (the Fig. 5 columns).
#[derive(Copy, Clone, Debug, Default)]
pub struct ProverTimings {
    /// Constraint solving (witness generation) — step Á of Fig. 1.
    pub solve: Duration,
    /// Proof-vector construction (`z` plus the quotient `h`).
    pub construct_proof: Duration,
    /// Cryptographic work (homomorphic commitments).
    pub crypto: Duration,
    /// Query answering (decommitment inner products).
    pub answer_queries: Duration,
}

impl ProverTimings {
    /// End-to-end prover time.
    pub fn total(&self) -> Duration {
        self.solve + self.construct_proof + self.crypto + self.answer_queries
    }
}

/// Cumulative verifier phase timings.
#[derive(Copy, Clone, Debug, Default)]
pub struct VerifierTimings {
    /// Commitment key setup: sampling and encrypting `r` (amortized).
    pub key_setup: Duration,
    /// PCP + consistency query construction (amortized).
    pub query_setup: Duration,
    /// Per-instance decryption and checks.
    pub check: Duration,
}

impl VerifierTimings {
    /// Total batch-amortized setup time.
    pub fn setup_total(&self) -> Duration {
        self.key_setup + self.query_setup
    }
}

/// The verifier's state for one batch.
pub struct Verifier<'p, F: HasGroup, D> {
    pcp: &'p ZaatarPcp<F, D>,
    key_z: CommitmentKey<F>,
    key_h: CommitmentKey<F>,
    batch: BatchQuerySet<F>,
    t_z: Vec<F>,
    t_h: Vec<F>,
    alphas_z: Vec<F>,
    alphas_h: Vec<F>,
    /// Phase timings.
    pub timings: VerifierTimings,
}

/// What the verifier sends for decommitment (step 3). The packed
/// matrices carry the same queries as the slice views; the prover
/// answers off the matrices with the blocked kernel.
pub struct DecommitRequest<'v, F> {
    /// The PCP queries for the z-oracle, canonical order.
    pub z_queries: Vec<&'v [F]>,
    /// The PCP queries for the h-oracle, canonical order.
    pub h_queries: Vec<&'v [F]>,
    /// The z-oracle queries packed for the blocked answer kernel.
    pub z_matrix: &'v QueryMatrix<F>,
    /// The h-oracle queries packed for the blocked answer kernel.
    pub h_matrix: &'v QueryMatrix<F>,
    /// Consistency query for the z-oracle.
    pub t_z: &'v [F],
    /// Consistency query for the h-oracle.
    pub t_h: &'v [F],
}

impl<'p, F: HasGroup + PrimeField, D: EvalDomain<F>> Verifier<'p, F, D> {
    /// Batch setup: commitment keys, PCP queries, consistency queries.
    pub fn setup(pcp: &'p ZaatarPcp<F, D>, prg: &mut ChaChaPrg) -> Self {
        let n_z = pcp.qap().var_map().num_unbound();
        let n_h = pcp.qap().degree() + 1;
        let start = Instant::now();
        let key_z = CommitmentKey::generate(n_z, prg);
        let key_h = CommitmentKey::generate(n_h, prg);
        let key_setup = start.elapsed();
        let start = Instant::now();
        let batch = pcp.generate_batch_queries(prg);
        let (t_z, alphas_z) = {
            let zq = batch.queries().z_queries();
            key_z.consistency_query(&zq, prg)
        };
        let (t_h, alphas_h) = {
            let hq = batch.queries().h_queries();
            key_h.consistency_query(&hq, prg)
        };
        let query_setup = start.elapsed();
        Verifier {
            pcp,
            key_z,
            key_h,
            batch,
            t_z,
            t_h,
            alphas_z,
            alphas_h,
            timings: VerifierTimings {
                key_setup,
                query_setup,
                check: Duration::ZERO,
            },
        }
    }

    /// Step 1's payload: the encrypted commitment vectors.
    pub fn commit_request(&self) -> (&[Ciphertext], &[Ciphertext]) {
        (&self.key_z.enc_r, &self.key_h.enc_r)
    }

    /// Step 3's payload: queries plus consistency queries.
    pub fn decommit_request(&self) -> DecommitRequest<'_, F> {
        DecommitRequest {
            z_queries: self.batch.queries().z_queries(),
            h_queries: self.batch.queries().h_queries(),
            z_matrix: self.batch.z_matrix(),
            h_matrix: self.batch.h_matrix(),
            t_z: &self.t_z,
            t_h: &self.t_h,
        }
    }

    /// The underlying query set.
    pub fn queries(&self) -> &QuerySet<F> {
        self.batch.queries()
    }

    /// The batch-amortized (packed) query set.
    pub fn batch_queries(&self) -> &BatchQuerySet<F> {
        &self.batch
    }

    /// Step 5: checks one instance. `io` is inputs then outputs in QAP
    /// order; `commitments` and `decommitments` are the prover's
    /// per-instance messages.
    pub fn check_instance(
        &mut self,
        commitments: &(Ciphertext, Ciphertext),
        decommit_z: &Decommitment<F>,
        decommit_h: &Decommitment<F>,
        io: &[F],
    ) -> bool {
        let start = Instant::now();
        let ok = self.key_z.verify(
            &commitments.0,
            &decommit_z.answers,
            decommit_z.t_answer,
            &self.alphas_z,
        ) && self.key_h.verify(
            &commitments.1,
            &decommit_h.answers,
            decommit_h.t_answer,
            &self.alphas_h,
        ) && {
            let responses = PcpResponses {
                z_answers: decommit_z.answers.clone(),
                h_answers: decommit_h.answers.clone(),
            };
            self.pcp.check(self.batch.queries(), &responses, io)
        };
        self.timings.check += start.elapsed();
        ok
    }
}

/// The prover's state for one batch: the PCP it proves against, the
/// per-phase timing ledger, and the [`ProverWorkspace`] its pipeline
/// stages lease buffers from. The four stages run per instance as
/// **Witness → Quotient** ([`Prover::construct_proof`]), **Commit**
/// ([`Prover::commit`]), **Answer** ([`Prover::respond`]); because the
/// workspace lives on the prover, instance *i+1* reuses the buffers
/// instance *i* returned to the pool.
pub struct Prover<'p, F: HasGroup, D> {
    pcp: &'p ZaatarPcp<F, D>,
    workspace: ProverWorkspace<F>,
    /// Phase timings.
    pub timings: ProverTimings,
}

impl<'p, F: HasGroup + PrimeField, D: EvalDomain<F>> Prover<'p, F, D> {
    /// A prover bound to one computation's PCP, with empty buffer pools
    /// (they fill on the first instance).
    pub fn new(pcp: &'p ZaatarPcp<F, D>) -> Self {
        Prover {
            pcp,
            workspace: ProverWorkspace::new(),
            timings: ProverTimings::default(),
        }
    }

    /// Pipeline stages 1–2 (**Witness**, **Quotient**): builds the proof
    /// vector for a satisfying witness (timed as "construct u"), leasing
    /// stage buffers from this prover's workspace.
    ///
    /// # Panics
    ///
    /// Panics if the witness does not satisfy the constraints; use
    /// [`ZaatarPcp::prove_unchecked`] to model cheating provers.
    pub fn construct_proof(&mut self, witness: &QapWitness<F>) -> ZaatarProof<F> {
        let start = Instant::now();
        let proof = crate::runtime::prove_instance_policied(self.pcp, witness, &mut self.workspace)
            .expect("unlimited budget never refuses a lease")
            .expect("witness must satisfy the constraints");
        self.timings.construct_proof += start.elapsed();
        proof
    }

    /// Pipeline stage 3 (**Commit**), step 2 of the argument: commits to
    /// one instance's proof (timed as "crypto ops").
    pub fn commit(
        &mut self,
        proof: &ZaatarProof<F>,
        enc_r_z: &[Ciphertext],
        enc_r_h: &[Ciphertext],
    ) -> (Ciphertext, Ciphertext) {
        let start = Instant::now();
        let cz = CommitmentKey::<F>::commit_with(enc_r_z, &proof.z, &mut self.workspace);
        let ch = CommitmentKey::<F>::commit_with(enc_r_h, &proof.h, &mut self.workspace);
        self.timings.crypto += start.elapsed();
        (cz, ch)
    }

    /// Pipeline stage 4 (**Answer**), step 4 of the argument: answers
    /// all queries for one instance (timed as "answer queries") through
    /// the blocked matrix–vector kernel — one pass over each oracle's
    /// proof vector serves the whole query set.
    pub fn respond(
        &mut self,
        proof: &ZaatarProof<F>,
        request: &DecommitRequest<'_, F>,
    ) -> (Decommitment<F>, Decommitment<F>) {
        let start = Instant::now();
        zaatar_obs::counter("pcp.batch.query_reuse").inc();
        let dz = decommit_packed(&proof.z, request.z_matrix, request.t_z, 1);
        let dh = decommit_packed(&proof.h, request.h_matrix, request.t_h, 1);
        self.timings.answer_queries += start.elapsed();
        (dz, dh)
    }

    /// Records externally measured witness-solving time.
    pub fn record_solve_time(&mut self, d: Duration) {
        self.timings.solve += d;
    }
}

/// Result of a batched run.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Per-instance verdicts.
    pub accepted: Vec<bool>,
    /// Prover phase timings, cumulative over the batch.
    pub prover: ProverTimings,
    /// Verifier phase timings.
    pub verifier: VerifierTimings,
}

/// Convenience driver: runs the whole batched argument for pre-built
/// proofs (honest or adversarial) and per-instance io vectors.
pub fn run_batched_argument<F: HasGroup + PrimeField, D: EvalDomain<F>>(
    pcp: &ZaatarPcp<F, D>,
    proofs: &[ZaatarProof<F>],
    ios: &[Vec<F>],
    seed: u64,
) -> BatchResult {
    assert_eq!(proofs.len(), ios.len(), "one io vector per proof");
    let mut prg = ChaChaPrg::from_u64_seed(seed);
    let mut verifier = Verifier::setup(pcp, &mut prg);
    let mut prover = Prover::new(pcp);
    // Step 2: commitments.
    let (enc_z, enc_h) = {
        let (a, b) = verifier.commit_request();
        (a.to_vec(), b.to_vec())
    };
    let commitments: Vec<(Ciphertext, Ciphertext)> = proofs
        .iter()
        .map(|p| prover.commit(p, &enc_z, &enc_h))
        .collect();
    // Steps 3–4: decommitment.
    let request = verifier.decommit_request();
    let responses: Vec<(Decommitment<F>, Decommitment<F>)> = proofs
        .iter()
        .map(|p| prover.respond(p, &request))
        .collect();
    drop(request);
    // Step 5: checks.
    let accepted: Vec<bool> = commitments
        .iter()
        .zip(responses.iter())
        .zip(ios.iter())
        .map(|((c, (dz, dh)), io)| verifier.check_instance(c, dz, dh, io))
        .collect();
    BatchResult {
        accepted,
        prover: prover.timings,
        verifier: verifier.timings,
    }
}

/// Runs the whole batched argument over the **Ginger baseline** PCP
/// (proof vectors `(z, z⊗z)`, §2.2) with the same commitment machinery —
/// used for small-scale baseline validation; at the paper's sizes Ginger
/// is estimated via the cost model instead, exactly as the paper does.
pub fn run_batched_ginger_argument<F: HasGroup + PrimeField>(
    pcp: &GingerPcp<F>,
    proofs: &[GingerProof<F>],
    ios: &[Vec<F>],
    seed: u64,
) -> BatchResult {
    assert_eq!(proofs.len(), ios.len(), "one io vector per proof");
    let n1 = pcp.num_z();
    let n2 = n1 * n1;
    let mut prg = ChaChaPrg::from_u64_seed(seed);
    let start = Instant::now();
    let key1 = CommitmentKey::<F>::generate(n1, &mut prg);
    let key2 = CommitmentKey::<F>::generate(n2, &mut prg);
    let key_setup = start.elapsed();
    let start = Instant::now();
    let queries = pcp.generate_queries(&mut prg);
    let (t1, alphas1) = key1.consistency_query(&queries.q1_queries(), &mut prg);
    let (t2, alphas2) = key2.consistency_query(&queries.q2_queries(), &mut prg);
    let query_setup = start.elapsed();

    let mut prover_timings = ProverTimings::default();
    let start = Instant::now();
    let mut ws: ProverWorkspace<F> = ProverWorkspace::new();
    let commitments: Vec<(Ciphertext, Ciphertext)> = proofs
        .iter()
        .map(|p| {
            (
                CommitmentKey::<F>::commit_with(&key1.enc_r, &p.z, &mut ws),
                CommitmentKey::<F>::commit_with(&key2.enc_r, &p.zz, &mut ws),
            )
        })
        .collect();
    prover_timings.crypto = start.elapsed();
    let start = Instant::now();
    let decommits: Vec<(Decommitment<F>, Decommitment<F>)> = proofs
        .iter()
        .map(|p| {
            (
                decommit(&p.z, &queries.q1_queries(), &t1),
                decommit(&p.zz, &queries.q2_queries(), &t2),
            )
        })
        .collect();
    prover_timings.answer_queries = start.elapsed();

    let start = Instant::now();
    let accepted: Vec<bool> = commitments
        .iter()
        .zip(decommits.iter())
        .zip(ios.iter())
        .map(|(((c1, c2), (d1, d2)), io)| {
            key1.verify(c1, &d1.answers, d1.t_answer, &alphas1)
                && key2.verify(c2, &d2.answers, d2.t_answer, &alphas2)
                && pcp.check(
                    &queries,
                    &GingerResponses {
                        a1: d1.answers.clone(),
                        a2: d2.answers.clone(),
                    },
                    io,
                )
        })
        .collect();
    let check = start.elapsed();
    BatchResult {
        accepted,
        prover: prover_timings,
        verifier: VerifierTimings {
            key_setup,
            query_setup,
            check,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qap::Qap;
    use zaatar_cc::{ginger_to_quad, Builder};
    use zaatar_field::{Field, F61};
    use zaatar_poly::Radix2Domain;

    fn f(x: i64) -> F61 {
        F61::from_i64(x)
    }

    struct Fixture {
        pcp: ZaatarPcp<F61, Radix2Domain<F61>>,
        witnesses: Vec<QapWitness<F61>>,
        ios: Vec<Vec<F61>>,
    }

    /// y = a·b + min(a, b): a batch over several inputs.
    fn fixture(inputs: &[[i64; 2]]) -> Fixture {
        let mut b = Builder::<F61>::new();
        let a = b.alloc_input();
        let bb = b.alloc_input();
        let prod = b.mul(&a, &bb);
        let mn = b.min(&a, &bb, 10);
        b.bind_output(&prod.add(&mn));
        let (sys, solver) = b.finish();
        let t = ginger_to_quad(&sys);
        let qap = Qap::new(&t.system);
        let mut witnesses = Vec::new();
        let mut ios = Vec::new();
        for pair in inputs {
            let asg = solver.solve(&[f(pair[0]), f(pair[1])]).unwrap();
            let ext = t.extend_assignment(&asg);
            assert!(t.system.is_satisfied(&ext));
            let w = qap.witness(&ext);
            let io: Vec<F61> = qap
                .var_map()
                .inputs()
                .iter()
                .chain(qap.var_map().outputs())
                .map(|v| ext.get(*v))
                .collect();
            witnesses.push(w);
            ios.push(io);
        }
        Fixture {
            pcp: ZaatarPcp::new(qap, PcpParams::light()),
            witnesses,
            ios,
        }
    }

    #[test]
    fn honest_batch_accepts() {
        let fx = fixture(&[[3, 7], [10, 2], [0, 0], [-4, 9]]);
        let proofs: Vec<_> = fx
            .witnesses
            .iter()
            .map(|w| fx.pcp.prove(w).unwrap())
            .collect();
        let result = run_batched_argument(&fx.pcp, &proofs, &fx.ios, 42);
        assert_eq!(result.accepted, vec![true; 4]);
        assert!(result.verifier.setup_total() > Duration::ZERO);
    }

    #[test]
    fn cheating_instance_rejected_others_accepted() {
        let fx = fixture(&[[1, 2], [3, 4], [5, 6]]);
        let mut proofs: Vec<_> = fx
            .witnesses
            .iter()
            .map(|w| fx.pcp.prove(w).unwrap())
            .collect();
        // Corrupt instance 1's claimed output: recompute a cheating proof
        // with the same witness but lie in io.
        let mut ios = fx.ios.clone();
        let last = ios[1].len() - 1;
        ios[1][last] += F61::ONE;
        // The honest proof no longer matches the claimed io.
        let result = run_batched_argument(&fx.pcp, &proofs, &ios, 7);
        assert!(result.accepted[0]);
        assert!(!result.accepted[1], "lying instance must be rejected");
        assert!(result.accepted[2]);
        // Also: a corrupted proof vector for a correct io is rejected.
        proofs[2].z[0] += F61::ONE;
        let result2 = run_batched_argument(&fx.pcp, &proofs, &fx.ios, 8);
        assert!(!result2.accepted[2]);
    }

    #[test]
    fn cheating_prover_with_unchecked_quotient_rejected() {
        let fx = fixture(&[[2, 5]]);
        let mut w = fx.witnesses[0].clone();
        w.z[0] += F61::ONE; // Break the witness.
        let proof = fx.pcp.prove_unchecked(&w);
        let result = run_batched_argument(&fx.pcp, &[proof], &fx.ios, 9);
        assert!(!result.accepted[0]);
    }

    #[test]
    fn prover_verifier_phases_accumulate() {
        let fx = fixture(&[[4, 4], [6, 1]]);
        let mut prg = ChaChaPrg::from_u64_seed(3);
        let mut verifier = Verifier::setup(&fx.pcp, &mut prg);
        let mut prover = Prover::new(&fx.pcp);
        let proofs: Vec<_> = fx
            .witnesses
            .iter()
            .map(|w| prover.construct_proof(w))
            .collect();
        let (ez, eh) = {
            let (a, b) = verifier.commit_request();
            (a.to_vec(), b.to_vec())
        };
        let commitments: Vec<_> = proofs.iter().map(|p| prover.commit(p, &ez, &eh)).collect();
        let req = verifier.decommit_request();
        let responses: Vec<_> = proofs.iter().map(|p| prover.respond(p, &req)).collect();
        drop(req);
        for ((c, (dz, dh)), io) in commitments.iter().zip(&responses).zip(&fx.ios) {
            assert!(verifier.check_instance(c, dz, dh, io));
        }
        assert!(prover.timings.construct_proof > Duration::ZERO);
        assert!(prover.timings.crypto > Duration::ZERO);
        assert!(prover.timings.answer_queries > Duration::ZERO);
        assert!(verifier.timings.check > Duration::ZERO);
        assert!(prover.timings.total() >= prover.timings.crypto);
    }

    #[test]
    #[should_panic(expected = "one io vector per proof")]
    fn mismatched_batch_sizes_panic() {
        let fx = fixture(&[[1, 1]]);
        let proof = fx.pcp.prove(&fx.witnesses[0]).unwrap();
        let _ = run_batched_argument(&fx.pcp, &[proof], &[], 1);
    }

    /// The baseline argument: Ginger's quadratic proof through the same
    /// commitment machinery.
    mod ginger_baseline {
        use super::*;
        use crate::ginger::GingerPcp;
        use zaatar_cc::linearize_io;

        fn fixture(
            inputs: &[[i64; 2]],
        ) -> (GingerPcp<F61>, Vec<crate::ginger::GingerProof<F61>>, Vec<Vec<F61>>) {
            let mut b = Builder::<F61>::new();
            let a = b.alloc_input();
            let bb = b.alloc_input();
            let prod = b.mul(&a, &bb);
            b.bind_output(&prod.add(&a));
            let (sys, solver) = b.finish();
            let lin = linearize_io(&sys);
            let pcp = GingerPcp::new(&lin.system, PcpParams::light());
            let mut proofs = Vec::new();
            let mut ios = Vec::new();
            for pair in inputs {
                let asg = solver.solve(&[f(pair[0]), f(pair[1])]).unwrap();
                let ext = lin.extend_assignment(&asg);
                let (z, io) = pcp.split_assignment(&ext);
                proofs.push(pcp.prove(z));
                ios.push(io);
            }
            (pcp, proofs, ios)
        }

        #[test]
        fn honest_batch_accepts() {
            let (pcp, proofs, ios) = fixture(&[[2, 3], [5, 8], [0, 1]]);
            let result = run_batched_ginger_argument(&pcp, &proofs, &ios, 17);
            assert_eq!(result.accepted, vec![true; 3]);
        }

        #[test]
        fn lying_output_rejected() {
            let (pcp, proofs, mut ios) = fixture(&[[2, 3]]);
            let last = ios[0].len() - 1;
            ios[0][last] += F61::ONE;
            let result = run_batched_ginger_argument(&pcp, &proofs, &ios, 18);
            assert!(!result.accepted[0]);
        }

        #[test]
        fn corrupted_outer_product_rejected() {
            let (pcp, mut proofs, ios) = fixture(&[[4, 9]]);
            proofs[0].zz[0] += F61::ONE;
            let result = run_batched_ginger_argument(&pcp, &proofs, &ios, 19);
            assert!(!result.accepted[0]);
        }

        #[test]
        fn proof_is_quadratically_longer_than_zaatars() {
            // The headline contrast, on the SAME computation (the outer
            // fixture's circuit, which includes a comparison gadget).
            let mut b = Builder::<F61>::new();
            let a = b.alloc_input();
            let bb = b.alloc_input();
            let prod = b.mul(&a, &bb);
            let mn = b.min(&a, &bb, 10);
            b.bind_output(&prod.add(&mn));
            let (sys, solver) = b.finish();
            let asg = solver.solve(&[f(3), f(7)]).unwrap();
            // Ginger proof for this computation.
            let lin = linearize_io(&sys);
            let gpcp = GingerPcp::new(&lin.system, PcpParams::light());
            let (z, _) = gpcp.split_assignment(&lin.extend_assignment(&asg));
            let gproof = gpcp.prove(z);
            // Zaatar proof for this computation.
            let t = crate::qap::Qap::new(&zaatar_cc::ginger_to_quad(&sys).system);
            let quad = zaatar_cc::ginger_to_quad(&sys);
            let ext = quad.extend_assignment(&asg);
            let zpcp = ZaatarPcp::new(t, PcpParams::light());
            let zproof = zpcp.prove(&zpcp.qap().witness(&ext)).unwrap();
            assert!(
                gproof.len() > 3 * zproof.len(),
                "ginger {} vs zaatar {}",
                gproof.len(),
                zproof.len()
            );
            // And the Ginger length is exactly |Z| + |Z|².
            let n = gproof.z.len();
            assert_eq!(gproof.len(), n + n * n);
        }
    }
}
