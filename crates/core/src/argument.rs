//! The end-to-end batched argument system (Fig. 2, with Zaatar's PCP in
//! place of the classical one), run in one process.
//!
//! There is one implementation of the argument: the served session. The
//! in-process driver here runs exactly that — the verifier's batch
//! set-up travels as an `HSETUP` frame into the prover's
//! [`ProverMachine`], each instance's commitments and answers travel
//! back as an `INSTANCE_RESP` frame — so a quickstart run exercises the
//! seed-derived queries (App. A.3), the wire codec, the response cache
//! and the Answer stage a served session does. The
//! Ginger baseline has no session form; its driver spells the same
//! commitment protocol over Ginger's `(z, z⊗z)` oracles.
//!
//! [`BatchResult`] carries coarse wall-clock taken by the driver
//! *around* the session calls; the per-phase split (Fig. 5) is read from
//! the `zaatar_obs` spans the session path records.

use std::time::{Duration, Instant};

use zaatar_crypto::{ChaChaPrg, Ciphertext, HasGroup};
use zaatar_field::PrimeField;
use zaatar_poly::domain::EvalDomain;
use zaatar_transport::Frame;

use crate::commit::{decommit, CommitmentKey, Decommitment};
use crate::ginger::{GingerPcp, GingerProof, GingerResponses};
use crate::pcp::{ZaatarPcp, ZaatarProof};
use crate::runtime::{msg, ProverMachine, ProverStep};
use crate::session::HeteroSessionVerifier;
use crate::workspace::ProverWorkspace;

/// Result of a batched run.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Per-instance verdicts.
    pub accepted: Vec<bool>,
    /// Prover wall-clock over the batch's instance messages: commitments
    /// plus answers (proof construction happens before the driver is
    /// called; decoding the set-up once per batch is not counted).
    pub prover_total: Duration,
    /// Verifier batch set-up (keys, queries, consistency queries), paid
    /// once per batch.
    pub verifier_setup: Duration,
    /// Verifier per-instance checks, summed over the batch.
    pub verifier_check: Duration,
}

/// Convenience driver: runs the whole batched argument for pre-built
/// proofs (honest or adversarial) and per-instance io vectors as one
/// served session in memory — a one-circuit [`HeteroSessionVerifier`]
/// whose `HSETUP` and `INSTANCE_REQ` frames are stepped through a
/// [`ProverMachine`], response cache included.
pub fn run_batched_argument<F: HasGroup + PrimeField, D: EvalDomain<F>>(
    pcp: &ZaatarPcp<F, D>,
    proofs: &[ZaatarProof<F>],
    ios: &[Vec<F>],
    seed: u64,
) -> BatchResult {
    assert_eq!(proofs.len(), ios.len(), "one io vector per proof");
    let (pcps, circuit_ids) = ([pcp], vec![0; proofs.len()]);
    let start = Instant::now();
    let mut verifier =
        HeteroSessionVerifier::new(&pcps, &circuit_ids, &ChaChaPrg::from_u64_seed(seed));
    let setup = verifier
        .setup_message()
        .expect("computation fits the wire format");
    let verifier_setup = start.elapsed();

    let mut prover = ProverMachine::new(&pcps, &circuit_ids, proofs);
    let mut ws = ProverWorkspace::new();
    let mut step = |frame: Frame| match prover.step(&frame, &mut ws) {
        ProverStep::Reply(reply) => reply,
        other => panic!("an unlimited workspace answers every frame: {other:?}"),
    };
    let ack = step(Frame::new(msg::HSETUP, 0, setup));
    assert_eq!(ack.msg_type, msg::SETUP_ACK, "setup for the same computation validates");
    let start = Instant::now();
    let responses: Vec<Frame> = (0..proofs.len() as u32)
        .map(|i| step(Frame::new(msg::INSTANCE_REQ, i + 1, i.to_le_bytes().to_vec())))
        .collect();
    let prover_total = start.elapsed();

    let start = Instant::now();
    let accepted = responses
        .iter()
        .zip(ios)
        .enumerate()
        .map(|(i, (r, io))| verifier.verify_instance(i, &r.payload, io).unwrap_or(false))
        .collect();
    BatchResult {
        accepted,
        prover_total,
        verifier_setup,
        verifier_check: start.elapsed(),
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
    let queries = pcp.generate_queries(&mut prg);
    let (t1, alphas1) = key1.consistency_query(&queries.q1_queries(), &mut prg);
    let (t2, alphas2) = key2.consistency_query(&queries.q2_queries(), &mut prg);
    let verifier_setup = start.elapsed();

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
    let decommits: Vec<(Decommitment<F>, Decommitment<F>)> = proofs
        .iter()
        .map(|p| {
            (
                decommit(&p.z, &queries.q1_queries(), &t1),
                decommit(&p.zz, &queries.q2_queries(), &t2),
            )
        })
        .collect();
    let prover_total = start.elapsed();

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
    BatchResult {
        accepted,
        prover_total,
        verifier_setup,
        verifier_check: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcp::PcpParams;
    use crate::testutil::{circuit_fixture, CircuitFixture};
    use zaatar_cc::Builder;
    use zaatar_field::{Field, F61};

    fn f(x: i64) -> F61 {
        F61::from_i64(x)
    }

    /// y = a·b + min(a, b): a batch over several inputs.
    fn fixture(inputs: &[[i64; 2]]) -> CircuitFixture {
        let mut b = Builder::<F61>::new();
        let a = b.alloc_input();
        let bb = b.alloc_input();
        let prod = b.mul(&a, &bb);
        let mn = b.min(&a, &bb, 10);
        b.bind_output(&prod.add(&mn));
        let (sys, solver) = b.finish();
        let inputs: Vec<Vec<F61>> = inputs.iter().map(|p| vec![f(p[0]), f(p[1])]).collect();
        circuit_fixture(&sys, &solver, &inputs)
    }

    #[test]
    fn honest_batch_accepts() {
        let fx = fixture(&[[3, 7], [10, 2], [0, 0], [-4, 9]]);
        let result = run_batched_argument(&fx.pcp, &fx.proofs, &fx.ios, 42);
        assert_eq!(result.accepted, vec![true; 4]);
        assert!(result.verifier_setup > Duration::ZERO);
    }

    #[test]
    fn cheating_instance_rejected_others_accepted() {
        let fx = fixture(&[[1, 2], [3, 4], [5, 6]]);
        let mut proofs = fx.proofs.clone();
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
    fn batch_durations_nonzero_and_setup_paid_once() {
        let fx = fixture(&[[4, 4], [6, 1], [2, 8], [7, 7]]);
        let result = run_batched_argument(&fx.pcp, &fx.proofs, &fx.ios, 3);
        assert_eq!(result.accepted, vec![true; 4]);
        assert!(result.prover_total > Duration::ZERO);
        assert!(result.verifier_setup > Duration::ZERO);
        assert!(result.verifier_check > Duration::ZERO);
        // Set-up (two key generations, ~2·|u| encryptions) is paid once,
        // not per instance: it dwarfs one instance's share of the checks
        // (two decryptions plus the Fig. 10 arithmetic).
        assert!(result.verifier_setup > result.verifier_check / 4);
    }

    /// The in-process driver *is* the session: same seed, same mixed
    /// batch, same verdicts as the transport-backed drivers.
    #[test]
    fn in_process_verdicts_match_loopback_session() {
        use crate::runtime::{run_session_prover, run_session_verifier};
        use zaatar_transport::{loopback_transport_pair, RetryPolicy};

        let fx = fixture(&[[1, 2], [3, 4], [5, 6], [-2, 9]]);
        let mut proofs = fx.proofs.clone();
        proofs[1].h[0] += F61::ONE; // Forged quotient.
        let mut ios = fx.ios.clone();
        let last = ios[3].len() - 1;
        ios[3][last] += F61::ONE; // Lying output.
        let seed = 0xD1FF;
        let in_process = run_batched_argument(&fx.pcp, &proofs, &ios, seed);
        assert_eq!(in_process.accepted, [true, false, true, false]);

        let (mut vt, mut pt) = loopback_transport_pair();
        let report = std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                run_session_prover(&mut pt, &fx.pcp, &proofs, Duration::from_secs(5)).unwrap()
            });
            let mut prg = ChaChaPrg::from_u64_seed(seed);
            let report =
                run_session_verifier(&mut vt, &fx.pcp, &ios, &RetryPolicy::fast(), &mut prg)
                    .unwrap();
            server.join().unwrap();
            report
        });
        let over_loopback: Vec<bool> = report.outcomes.iter().map(|o| o.is_accepted()).collect();
        assert_eq!(in_process.accepted, over_loopback);
    }


    #[test]
    #[should_panic(expected = "one io vector per proof")]
    fn mismatched_batch_sizes_panic() {
        let fx = fixture(&[[1, 1]]);
        let _ = run_batched_argument(&fx.pcp, &fx.proofs, &[], 1);
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
