//! Statistical soundness experiments (App. A.2): rejection rates of the
//! PCP verifier against a zoo of adversarial provers, measured over many
//! independent query seeds.
//!
//! With the light test parameters the per-run soundness error is far
//! from the production `9.6×10⁻⁷`, but every attack below should still
//! be rejected in (nearly) all runs; the tests assert high rejection
//! counts rather than perfection to keep them deterministic-flake-free.

use zaatar::cc::Builder;
use zaatar::core::pcp::{PcpParams, ZaatarPcp};
use zaatar::core::qap::QapWitness;
use zaatar::core::testutil::{circuit_fixture_with, TestPcp as Pcp};
use zaatar::crypto::ChaChaPrg;
use zaatar::field::{Field, F61};

fn f(x: i64) -> F61 {
    F61::from_i64(x)
}

/// y = (a + b)·(a − b) + min(a, b): a few gadget types.
fn fixture(inputs: [i64; 2]) -> (Pcp, QapWitness<F61>, Vec<F61>) {
    let mut b = Builder::<F61>::new();
    let a = b.alloc_input();
    let bb = b.alloc_input();
    let prod = b.mul(&a.add(&bb), &a.sub(&bb));
    let mn = b.min(&a, &bb, 12);
    b.bind_output(&prod.add(&mn));
    let (sys, solver) = b.finish();
    let ins = vec![vec![f(inputs[0]), f(inputs[1])]];
    let mut fx = circuit_fixture_with(&sys, &solver, &ins, PcpParams { rho: 3, rho_lin: 4 });
    (fx.pcp, fx.witnesses.remove(0), fx.ios.remove(0))
}

fn rejection_rate(
    pcp: &Pcp,
    proof: &zaatar::core::pcp::ZaatarProof<F61>,
    io: &[F61],
    trials: u64,
) -> u64 {
    let mut rejections = 0;
    for seed in 0..trials {
        let mut prg = ChaChaPrg::from_u64_seed(seed * 31 + 1);
        let queries = pcp.generate_queries(&mut prg);
        let responses = pcp.answer(proof, &queries);
        if !pcp.check(&queries, &responses, io) {
            rejections += 1;
        }
    }
    rejections
}

#[test]
fn honest_prover_always_accepted() {
    let (pcp, w, io) = fixture([9, 4]);
    let proof = pcp.prove(&w).unwrap();
    assert_eq!(rejection_rate(&pcp, &proof, &io, 50), 0, "completeness");
}

#[test]
fn single_field_element_lie_rejected() {
    // Flipping ONE entry of z — the finest-grained possible cheat.
    let (pcp, w, io) = fixture([9, 4]);
    for idx in 0..3 {
        let mut bad = w.clone();
        bad.z[idx] += F61::ONE;
        let proof = pcp.prove_unchecked(&bad);
        let r = rejection_rate(&pcp, &proof, &io, 40);
        assert!(r >= 39, "z[{idx}] flip: only {r}/40 rejected");
    }
}

#[test]
fn off_by_one_output_rejected() {
    let (pcp, w, mut io) = fixture([12, 7]);
    let last = io.len() - 1;
    io[last] += F61::ONE;
    let proof = pcp.prove_unchecked(&w);
    let r = rejection_rate(&pcp, &proof, &io, 40);
    assert_eq!(r, 40, "wrong output must always fail divisibility");
}

#[test]
fn garbage_h_rejected() {
    // A prover with a valid z but an arbitrary quotient vector.
    let (pcp, w, io) = fixture([3, 8]);
    let mut proof = pcp.prove(&w).unwrap();
    let mut prg = ChaChaPrg::from_u64_seed(1234);
    proof.h = prg.field_vec(proof.h.len());
    let r = rejection_rate(&pcp, &proof, &io, 40);
    assert!(r >= 39, "only {r}/40 rejected");
}

#[test]
fn scaled_proof_rejected() {
    // Multiplying the whole proof by a constant preserves linearity but
    // breaks the divisibility check.
    let (pcp, w, io) = fixture([5, 5]);
    let honest = pcp.prove(&w).unwrap();
    let two = f(2);
    let proof = zaatar::core::pcp::ZaatarProof {
        z: honest.z.iter().map(|x| *x * two).collect(),
        h: honest.h.iter().map(|x| *x * two).collect(),
    };
    let r = rejection_rate(&pcp, &proof, &io, 40);
    assert!(r >= 39, "only {r}/40 rejected");
}

#[test]
fn affine_shift_attack_rejected() {
    // Returning π(q) + c is not linear (it is affine); linearity tests
    // catch it: (π(q5)+c) + (π(q6)+c) ≠ π(q5+q6)+c unless c = 0.
    let (pcp, w, io) = fixture([2, 9]);
    let proof = pcp.prove(&w).unwrap();
    let mut rejections = 0;
    for seed in 0..40u64 {
        let mut prg = ChaChaPrg::from_u64_seed(seed + 7);
        let queries = pcp.generate_queries(&mut prg);
        let mut responses = pcp.answer(&proof, &queries);
        for r in responses.z_answers.iter_mut() {
            *r += F61::ONE;
        }
        if !pcp.check(&queries, &responses, &io) {
            rejections += 1;
        }
    }
    assert_eq!(rejections, 40);
}

#[test]
fn more_repetitions_reject_more() {
    // Soundness amplification: with ρ = 1, a lucky cheater survives some
    // seeds; with ρ = 4 the survival rate must not increase (and should
    // shrink). Statistical, but with fixed seeds it is deterministic.
    let build_with = |rho: usize| {
        let (pcp, w, io) = fixture([9, 4]);
        let qap = pcp.qap().clone();
        let pcp = ZaatarPcp::new(qap, PcpParams { rho, rho_lin: 1 });
        (pcp, w, io)
    };
    let count_accepts = |rho: usize| -> u64 {
        let (pcp, w, io) = build_with(rho);
        let mut bad = w.clone();
        bad.z[0] += F61::ONE;
        let proof = pcp.prove_unchecked(&bad);
        let trials = 60;
        trials - rejection_rate(&pcp, &proof, &io, trials)
    };
    let a1 = count_accepts(1);
    let a4 = count_accepts(4);
    assert!(a4 <= a1, "rho=4 accepted {a4} > rho=1 accepted {a1}");
}

#[test]
fn zero_proof_rejected_for_nontrivial_io() {
    let (pcp, w, io) = fixture([6, 2]);
    let proof = zaatar::core::pcp::ZaatarProof {
        z: vec![F61::ZERO; w.z.len()],
        h: vec![F61::ZERO; pcp.qap().degree() + 1],
    };
    let r = rejection_rate(&pcp, &proof, &io, 40);
    assert!(r >= 39, "only {r}/40 rejected the all-zero proof");
}

#[test]
fn nonzero_remainder_quotient_rejected() {
    // Regression guard for the quotient kernel (PR 3): when P_w is not
    // divisible by D — the witness fails at least one constraint — the
    // prover-side divisibility check must refuse to produce h, and a
    // cheating prover that ships the unchecked quotient anyway must be
    // rejected by the verifier. Kernel rewrites (coset transforms,
    // radix-4 NTTs) must never silently weaken either side.
    let (pcp, w, io) = fixture([11, 6]);
    // Sanity: the honest witness passes the divisibility check.
    assert!(pcp.prove(&w).is_some(), "honest witness divides");
    for idx in 0..w.z.len().min(4) {
        let mut bad = w.clone();
        bad.z[idx] += f(5);
        assert!(
            pcp.prove(&bad).is_none(),
            "non-divisible P_w (z[{idx}] corrupted) must fail the divisibility gate"
        );
        // The cheater ships the remainder-truncated quotient anyway.
        let proof = pcp.prove_unchecked(&bad);
        let r = rejection_rate(&pcp, &proof, &io, 40);
        assert!(
            r >= 39,
            "nonzero-remainder h via z[{idx}]: only {r}/40 rejected"
        );
    }
}
