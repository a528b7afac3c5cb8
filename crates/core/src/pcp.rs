//! The QAP-based linear PCP of Fig. 10.
//!
//! A correct proof oracle is `π = (π_z, π_h)` where `π_z(·) = ⟨·, z⟩` for
//! a satisfying assignment `z` and `π_h(·) = ⟨·, h⟩` for the coefficients
//! of the quotient `H(t)`. The verifier:
//!
//! 1. issues `ρ_lin` **linearity query** triples to each oracle
//!    (`q₇ = q₅ + q₆`, checking `π(q₅) + π(q₆) = π(q₇)`),
//! 2. issues **divisibility correction queries**: for random `τ`,
//!    `q₁ = q_a + q₅`, `q₂ = q_b + q₅`, `q₃ = q_c + q₅` (self-corrected
//!    evaluations of `Σzᵢ·Aᵢ(τ)` etc.) and `q₄ = q_d + q₈` with
//!    `q_d = (1, τ, …, τ^{|C|})`,
//! 3. checks `D(τ)·(π(q₄) − π(q₈)) = A_τ·B_τ − C_τ`.
//!
//! The whole procedure repeats `ρ` times; §A.2 shows soundness error
//! `κ^ρ < 9.6×10⁻⁷` for `ρ_lin = 20`, `ρ = 8`.

use zaatar_crypto::ChaChaPrg;
use zaatar_field::{Field, PrimeField};
use zaatar_poly::domain::EvalDomain;
use zaatar_sched::{effective_workers, parallel_map};

use crate::matvec::QueryMatrix;
use crate::qap::{fold_bound, Qap, QapWitness};
use crate::workspace::ProverWorkspace;

/// PCP repetition parameters (App. A.2).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PcpParams {
    /// Outer repetitions `ρ`.
    pub rho: usize,
    /// Linearity-test iterations `ρ_lin` per repetition.
    pub rho_lin: usize,
}

impl Default for PcpParams {
    /// The paper's production parameters: `ρ = 8`, `ρ_lin = 20`
    /// (soundness error `< 9.6×10⁻⁷`, App. A.2).
    fn default() -> Self {
        PcpParams { rho: 8, rho_lin: 20 }
    }
}

impl PcpParams {
    /// Reduced parameters for fast tests: `ρ = 2`, `ρ_lin = 3`.
    ///
    /// These are **not** the Appendix A.2 production parameters — at
    /// `ρ_lin = 3` the per-repetition error bound `κ` degrades to ≈ 0.5
    /// (versus 0.177 at the paper's `ρ_lin = 20`), so the light
    /// profile's PCP soundness error bound is only `κ² ≈ 0.25` per run.
    /// Tests that rely on rejection therefore repeat over many seeds;
    /// [`crate::soundness::light_profile_error`] computes the bound.
    pub fn light() -> Self {
        PcpParams { rho: 2, rho_lin: 3 }
    }

    /// Total queries per repetition: `ℓ' = 6·ρ_lin + 4` (Fig. 3).
    pub fn queries_per_rep(&self) -> usize {
        6 * self.rho_lin + 4
    }

    /// Total queries `ρ·ℓ'`.
    pub fn total_queries(&self) -> usize {
        self.rho * self.queries_per_rep()
    }
}

/// The prover's proof vector `u = (z, h)` viewed as two linear oracles.
#[derive(Clone, Debug)]
pub struct ZaatarProof<F> {
    /// The purported satisfying assignment (oracle `π_z`).
    pub z: Vec<F>,
    /// The quotient coefficients (oracle `π_h`).
    pub h: Vec<F>,
}

impl<F: Field> ZaatarProof<F> {
    /// `π_z(q) = ⟨q, z⟩`.
    pub fn query_z(&self, q: &[F]) -> F {
        F::dot(q, &self.z)
    }

    /// `π_h(q) = ⟨q, h⟩`.
    pub fn query_h(&self, q: &[F]) -> F {
        F::dot(q, &self.h)
    }

    /// Total proof-vector length `|Z| + |C| + 1`.
    pub fn len(&self) -> usize {
        self.z.len() + self.h.len()
    }

    /// True if both oracles are empty.
    pub fn is_empty(&self) -> bool {
        self.z.is_empty() && self.h.is_empty()
    }
}

/// What [`ZaatarPcp::check`] needs of one repetition beyond the
/// prover's answers (verifier secrets).
#[derive(Clone, Debug)]
struct Rep<F> {
    /// `D(τ)`.
    d_tau: F,
    /// Bound-variable evaluations (`A₀(τ)` and io rows), for the check.
    a_bound: Vec<F>,
    b_bound: Vec<F>,
    c_bound: Vec<F>,
}

/// A full query set (`ρ` repetitions). Built once per batch; the same
/// queries verify every instance (§2.2). The queries live packed, one
/// per row in canonical order, in the two matrices the prover answers
/// from — there is no second copy.
#[derive(Clone, Debug)]
pub struct QuerySet<F> {
    /// The z-oracle queries, in [`QuerySet::z_queries`] order.
    z: QueryMatrix<F>,
    /// The h-oracle queries, in [`QuerySet::h_queries`] order.
    h: QueryMatrix<F>,
    reps: Vec<Rep<F>>,
}

impl<F: Field> QuerySet<F> {
    /// All z-oracle queries in canonical order (per repetition: the
    /// linearity triples flattened, then `q₁, q₂, q₃`).
    pub fn z_queries(&self) -> Vec<&[F]> {
        (0..self.z.num_rows()).map(|r| self.z.row(r)).collect()
    }

    /// All h-oracle queries in canonical order (per repetition: the
    /// linearity triples flattened, then `q₄`).
    pub fn h_queries(&self) -> Vec<&[F]> {
        (0..self.h.num_rows()).map(|r| self.h.row(r)).collect()
    }

    /// Number of repetitions.
    pub fn num_reps(&self) -> usize {
        self.reps.len()
    }
}

/// A query set prepared for batch amortization: the prover-side view
/// of a [`QuerySet`]'s packed [`QueryMatrix`] pair, built once per batch
/// and reused for every instance (§2.2's amortization model — the
/// per-repetition `τ` consistency data stays inside the wrapped
/// [`QuerySet`], so [`ZaatarPcp::check`] works unchanged against batched
/// answers).
///
/// The session answers off these matrices with the blocked
/// matrix–vector kernel ([`crate::commit::decommit_packed_into`]): one
/// pass over the proof vector serves all `ρ·(3ρ_lin+3)` z-queries (and
/// all `ρ·(3ρ_lin+1)` h-queries), instead of one dense dot product per
/// query. Answers are bit-identical to the serial [`ZaatarPcp::answer`]
/// path (field addition is exact, so re-association cannot change a
/// sum); `tests/batch_differential.rs` locks this down.
#[derive(Clone, Debug)]
pub struct BatchQuerySet<F> {
    queries: QuerySet<F>,
}

impl<F: Field> BatchQuerySet<F> {
    /// Wraps a query set (a move: the queries are already packed).
    pub fn new(queries: QuerySet<F>) -> Self {
        BatchQuerySet { queries }
    }

    /// The wrapped query set (for [`ZaatarPcp::check`], consistency
    /// queries, and wire encoding).
    pub fn queries(&self) -> &QuerySet<F> {
        &self.queries
    }

    /// The packed z-oracle queries, canonical order.
    pub fn z_matrix(&self) -> &QueryMatrix<F> {
        &self.queries.z
    }

    /// The packed h-oracle queries, canonical order.
    pub fn h_matrix(&self) -> &QueryMatrix<F> {
        &self.queries.h
    }

}

/// The prover's answers, in the same canonical order as
/// [`QuerySet::z_queries`] / [`QuerySet::h_queries`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PcpResponses<F> {
    /// Answers to the z-oracle queries.
    pub z_answers: Vec<F>,
    /// Answers to the h-oracle queries.
    pub h_answers: Vec<F>,
}

/// The QAP-based linear PCP for one computation (Fig. 10).
#[derive(Clone, Debug)]
pub struct ZaatarPcp<F, D> {
    qap: Qap<F, D>,
    params: PcpParams,
}

impl<F: PrimeField, D: EvalDomain<F>> ZaatarPcp<F, D> {
    /// Wraps a QAP with PCP parameters.
    pub fn new(qap: Qap<F, D>, params: PcpParams) -> Self {
        ZaatarPcp { qap, params }
    }

    /// The underlying QAP.
    pub fn qap(&self) -> &Qap<F, D> {
        &self.qap
    }

    /// The parameters in force.
    pub fn params(&self) -> PcpParams {
        self.params
    }

    /// Builds a correct proof from a satisfying witness over a throwaway
    /// default-policy workspace — the single-instance convenience form
    /// of [`crate::runtime::prove_instance_policied`]. Returns `None` if
    /// the witness does not satisfy the constraints.
    pub fn prove(&self, witness: &QapWitness<F>) -> Option<ZaatarProof<F>> {
        crate::runtime::prove_instance_policied(self, witness, &mut ProverWorkspace::new())
            .expect("unlimited budget never refuses a lease")
    }

    /// Builds the proof a *cheating* prover would ship for a
    /// non-satisfying witness (the quotient ignores the remainder).
    pub fn prove_unchecked(&self, witness: &QapWitness<F>) -> ZaatarProof<F> {
        ZaatarProof {
            z: witness.z.clone(),
            h: self.qap.compute_h_unchecked(witness),
        }
    }

    /// The verifier's query generation (Fig. 10), deriving all
    /// randomness from `prg`; the repetitions' rows are built across
    /// the host's workers (`ZAATAR_WORKERS` honoured).
    pub fn generate_queries(&self, prg: &mut ChaChaPrg) -> QuerySet<F> {
        self.generate_queries_sharded(prg, effective_workers(usize::MAX))
    }

    /// [`Self::generate_queries`] with the correction queries spread
    /// over `shards` workers. Every draw is made first, in transcript
    /// order: per repetition, one [`ChaChaPrg::fill_field`] over its
    /// linearity rows — `q₅, q₆` for z, then `q₈, q₉` for h, triple by
    /// triple — which are appended with `q₇ = q₅ + q₆` and
    /// `q₁₀ = q₈ + q₉`, then `τ`. Each worker then writes its
    /// repetitions' `q₁…q₄` from `evals_at(τ)` into their own rows. So
    /// the queries are the same at every count.
    fn generate_queries_sharded(&self, prg: &mut ChaChaPrg, shards: usize) -> QuerySet<F> {
        let _span = zaatar_obs::time("pcp.generate_queries");
        let PcpParams { rho, rho_lin } = self.params;
        let n_prime = self.qap.var_map().num_unbound();
        let n_h = self.qap.degree() + 1;
        let (z_rows, h_rows) = (3 * rho_lin + 3, 3 * rho_lin + 1);
        let mut z = Vec::with_capacity(rho * z_rows * n_prime);
        let mut h = Vec::with_capacity(rho * h_rows * n_h);
        // One repetition's draws at a time: holding every repetition's
        // would page in a second copy of two thirds of the matrices.
        let triple_draws = 2 * (n_prime + n_h);
        let mut drawn = vec![F::ZERO; rho_lin * triple_draws];
        let mut taus = Vec::with_capacity(rho);
        for _ in 0..rho {
            prg.fill_field(&mut drawn);
            for triple in drawn.chunks_exact(triple_draws) {
                let (dz, dh) = triple.split_at(2 * n_prime);
                push_linearity_triple(&mut z, dz);
                push_linearity_triple(&mut h, dh);
            }
            // Room for `q₁…q₃` and `q₄`, written below.
            z.resize(z.len() + 3 * n_prime, F::ZERO);
            h.resize(h.len() + n_h, F::ZERO);
            taus.push(prg.field_element());
        }
        let mut z = QueryMatrix::from_parts(z, rho * z_rows, n_prime);
        let mut h = QueryMatrix::from_parts(h, rho * h_rows, n_h);
        let work: Vec<_> = taus.into_iter().zip(z.row_blocks_mut(z_rows)).zip(h.row_blocks_mut(h_rows)).collect();
        let reps = parallel_map(work, shards, |((tau, zs), hs)| {
            // `q₁…q₃ = q_{a,b,c} + q₅` and `q₄ = (1, τ, …, τ^{n_h − 1}) + q₈`.
            let evals = self.qap.evals_at(tau);
            let (linear, correction) = zs.split_at_mut(3 * rho_lin * n_prime);
            let q5 = &linear[..n_prime];
            for (i, q) in [&evals.qa, &evals.qb, &evals.qc].into_iter().enumerate() {
                for ((slot, a), b) in correction[i * n_prime..(i + 1) * n_prime].iter_mut().zip(q).zip(q5) {
                    *slot = *a + *b;
                }
            }
            let (linear, q4) = hs.split_at_mut(3 * rho_lin * n_h);
            let mut power = F::ONE;
            for (slot, q8) in q4.iter_mut().zip(&linear[..n_h]) {
                *slot = power + *q8;
                power *= tau;
            }
            Rep {
                d_tau: evals.d_tau,
                a_bound: evals.a_bound,
                b_bound: evals.b_bound,
                c_bound: evals.c_bound,
            }
        });
        QuerySet { z, h, reps }
    }

    /// The prover's response computation: the **serial reference path**,
    /// issuing one dense dot product per query. Production callers
    /// ([`crate::session`]) answer through the blocked kernel off a
    /// [`BatchQuerySet`]'s packed matrices instead; this path is
    /// kept as the differential oracle the batched answers are locked
    /// against (`tests/batch_differential.rs`).
    pub fn answer(&self, proof: &ZaatarProof<F>, queries: &QuerySet<F>) -> PcpResponses<F> {
        let _span = zaatar_obs::time("pcp.answer");
        PcpResponses {
            z_answers: queries
                .z_queries()
                .iter()
                .map(|q| proof.query_z(q))
                .collect(),
            h_answers: queries
                .h_queries()
                .iter()
                .map(|q| proof.query_h(q))
                .collect(),
        }
    }

    /// The verifier's decision procedure (Fig. 10) for one instance with
    /// bound io values `io` (inputs then outputs, in QAP order).
    pub fn check(&self, queries: &QuerySet<F>, responses: &PcpResponses<F>, io: &[F]) -> bool {
        let _span = zaatar_obs::time("pcp.check");
        let rho_lin = self.params.rho_lin;
        let per_rep_z = 3 * rho_lin + 3;
        let per_rep_h = 3 * rho_lin + 1;
        // Both come from outside (the wire, the caller's claim): a wrong
        // answer count or a statement of the wrong arity is a rejection.
        // `zip` below would otherwise ignore surplus io values and read
        // missing ones as zero.
        if responses.z_answers.len() != queries.reps.len() * per_rep_z
            || responses.h_answers.len() != queries.reps.len() * per_rep_h
            || queries.reps.iter().any(|rep| io.len() + 1 != rep.a_bound.len())
        {
            return false;
        }
        for (ri, rep) in queries.reps.iter().enumerate() {
            let z = &responses.z_answers[ri * per_rep_z..(ri + 1) * per_rep_z];
            let h = &responses.h_answers[ri * per_rep_h..(ri + 1) * per_rep_h];
            // Linearity tests.
            for t in 0..rho_lin {
                if z[3 * t] + z[3 * t + 1] != z[3 * t + 2] {
                    return false;
                }
                if h[3 * t] + h[3 * t + 1] != h[3 * t + 2] {
                    return false;
                }
            }
            // Divisibility correction test.
            let pz_q5 = z[0]; // First linearity triple's q5 response.
            let ph_q8 = h[0];
            let (r1, r2, r3) = (z[3 * rho_lin], z[3 * rho_lin + 1], z[3 * rho_lin + 2]);
            let r4 = h[3 * rho_lin];
            let a_tau = r1 - pz_q5 + fold_bound(&rep.a_bound, io);
            let b_tau = r2 - pz_q5 + fold_bound(&rep.b_bound, io);
            let c_tau = r3 - pz_q5 + fold_bound(&rep.c_bound, io);
            if rep.d_tau * (r4 - ph_q8) != a_tau * b_tau - c_tau {
                return false;
            }
        }
        true
    }
}

/// Appends one linearity triple's rows `q₅, q₆, q₇ = q₅ + q₆` from its
/// drawn `q₅ ‖ q₆`.
fn push_linearity_triple<F: Field>(rows: &mut Vec<F>, drawn: &[F]) {
    let (q5, q6) = drawn.split_at(drawn.len() / 2);
    rows.extend_from_slice(drawn);
    rows.extend(q5.iter().zip(q6).map(|(a, b)| *a + *b));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::decommit_packed_into;
    use zaatar_cc::{ginger_to_quad, Builder, QuadSystem};
    use zaatar_field::{F128, F61};
    use zaatar_poly::{ArithDomain, Radix2Domain};

    fn f(x: i64) -> F61 {
        F61::from_i64(x)
    }

    /// y = min(a², b²) — exercises mul, comparison, mux.
    #[allow(clippy::type_complexity)]
    fn build<F: PrimeField>() -> (QuadSystem<F>, zaatar_cc::builder::WitnessSolver<F>, zaatar_cc::transform::QuadTransform<F>) {
        let mut b = Builder::<F>::new();
        let a = b.alloc_input();
        let bb = b.alloc_input();
        let a2 = b.square(&a);
        let b2 = b.square(&bb);
        let m = b.min(&a2, &b2, 16);
        b.bind_output(&m);
        let (sys, solver) = b.finish();
        let t = ginger_to_quad(&sys);
        (t.system.clone(), solver, t)
    }

    fn setup(
        inputs: &[F61],
    ) -> (
        ZaatarPcp<F61, Radix2Domain<F61>>,
        QapWitness<F61>,
        Vec<F61>,
    ) {
        let (sys, solver, t) = build::<F61>();
        let asg = solver.solve(inputs).unwrap();
        let ext = t.extend_assignment(&asg);
        assert!(sys.is_satisfied(&ext));
        let qap = Qap::new(&sys);
        let w = qap.witness(&ext);
        let io = {
            let m = qap.var_map();
            let mut io = Vec::new();
            for v in m.inputs() {
                io.push(ext.get(*v));
            }
            for v in m.outputs() {
                io.push(ext.get(*v));
            }
            io
        };
        (ZaatarPcp::new(qap, PcpParams::light()), w, io)
    }

    #[test]
    fn completeness() {
        let (pcp, w, io) = setup(&[f(3), f(-5)]);
        let proof = pcp.prove(&w).expect("honest witness proves");
        let mut prg = ChaChaPrg::from_u64_seed(1);
        let queries = pcp.generate_queries(&mut prg);
        let responses = pcp.answer(&proof, &queries);
        assert!(pcp.check(&queries, &responses, &io));
    }

    #[test]
    fn completeness_many_seeds() {
        let (pcp, w, io) = setup(&[f(7), f(2)]);
        let proof = pcp.prove(&w).unwrap();
        for seed in 0..20u64 {
            let mut prg = ChaChaPrg::from_u64_seed(seed);
            let queries = pcp.generate_queries(&mut prg);
            let responses = pcp.answer(&proof, &queries);
            assert!(pcp.check(&queries, &responses, &io), "seed={seed}");
        }
    }

    #[test]
    fn wrong_output_rejected() {
        let (pcp, w, mut io) = setup(&[f(3), f(4)]);
        let proof = pcp.prove_unchecked(&w);
        // Claim a different output.
        let last = io.len() - 1;
        io[last] += F61::ONE;
        let mut rejections = 0;
        for seed in 0..30u64 {
            let mut prg = ChaChaPrg::from_u64_seed(seed);
            let queries = pcp.generate_queries(&mut prg);
            let responses = pcp.answer(&proof, &queries);
            if !pcp.check(&queries, &responses, &io) {
                rejections += 1;
            }
        }
        assert_eq!(rejections, 30, "every seed must reject a wrong output");
    }

    /// Since `ginger_to_quad` emits product constraints as written, bound
    /// variables reach all three matrices (under §4's mechanical rule `C`
    /// rows held product variables only, so `c_bound` was identically
    /// zero). Every coordinate of the statement must be load-bearing
    /// wherever it sits.
    #[test]
    fn bound_variables_in_all_three_matrices_are_checked() {
        let mut b = Builder::<F61>::new();
        let xs = b.alloc_inputs(3);
        // (x0 + 1)·(x1 + 2) = p: x0 in an A row, x1 in a B row, both in C.
        let p = b.mul(&xs[0].add_constant(f(1)), &xs[1].add_constant(f(2)));
        // y = p + x2: x2 and y in an A row.
        let y = zaatar_cc::LinComb::var(b.bind_output(&p.add(&xs[2])));
        // x2·q = y: the output in a C row.
        b.div(&y, &xs[2]);
        let (sys, solver) = b.finish();
        let t = ginger_to_quad(&sys);
        assert_eq!(t.k2(), 0);
        let ext = t.extend_assignment(&solver.solve(&[f(3), f(5), f(4)]).unwrap());
        let qap = Qap::new(&t.system);
        let w = qap.witness(&ext);
        assert_eq!(w.io, vec![f(3), f(5), f(4), f(32)]);
        let pcp = ZaatarPcp::new(qap, PcpParams::light());
        let proof = pcp.prove(&w).expect("honest witness proves");
        for seed in 0..10u64 {
            let mut prg = ChaChaPrg::from_u64_seed(seed);
            let queries = pcp.generate_queries(&mut prg);
            for rep in &queries.reps {
                for bound in [&rep.a_bound, &rep.b_bound, &rep.c_bound] {
                    assert!(bound[1..].iter().any(|c| !c.is_zero()), "a matrix lost its io rows");
                }
            }
            let responses = pcp.answer(&proof, &queries);
            assert!(pcp.check(&queries, &responses, &w.io), "seed={seed}");
            for k in 0..w.io.len() {
                let mut lie = w.io.clone();
                lie[k] += F61::ONE;
                assert!(!pcp.check(&queries, &responses, &lie), "seed={seed}: io[{k}] not bound");
            }
        }
    }

    #[test]
    fn corrupted_witness_rejected() {
        let (pcp, mut w, io) = setup(&[f(3), f(4)]);
        w.z[0] += F61::ONE;
        let proof = pcp.prove_unchecked(&w);
        let mut rejections = 0;
        for seed in 0..30u64 {
            let mut prg = ChaChaPrg::from_u64_seed(seed);
            let queries = pcp.generate_queries(&mut prg);
            let responses = pcp.answer(&proof, &queries);
            if !pcp.check(&queries, &responses, &io) {
                rejections += 1;
            }
        }
        assert!(rejections >= 29, "only {rejections}/30 rejected");
    }

    #[test]
    fn nonlinear_oracle_rejected() {
        // A prover answering with a non-linear function fails linearity
        // tests with noticeable probability; with several repetitions the
        // probability of acceptance across many seeds is negligible.
        let (pcp, w, io) = setup(&[f(1), f(2)]);
        let honest = pcp.prove(&w).unwrap();
        let mut rejections = 0;
        for seed in 0..20u64 {
            let mut prg = ChaChaPrg::from_u64_seed(seed);
            let queries = pcp.generate_queries(&mut prg);
            let mut responses = pcp.answer(&honest, &queries);
            // Corrupt every response by squaring it (simulates a
            // non-linear oracle).
            for r in responses.z_answers.iter_mut() {
                *r = r.square() + F61::ONE;
            }
            if !pcp.check(&queries, &responses, &io) {
                rejections += 1;
            }
        }
        assert_eq!(rejections, 20);
    }

    #[test]
    fn tampered_single_response_rejected() {
        let (pcp, w, io) = setup(&[f(2), f(2)]);
        let proof = pcp.prove(&w).unwrap();
        let mut prg = ChaChaPrg::from_u64_seed(5);
        let queries = pcp.generate_queries(&mut prg);
        let mut responses = pcp.answer(&proof, &queries);
        responses.h_answers[0] += F61::ONE;
        assert!(!pcp.check(&queries, &responses, &io));
    }

    #[test]
    fn response_length_mismatch_rejected() {
        let (pcp, w, io) = setup(&[f(2), f(3)]);
        let proof = pcp.prove(&w).unwrap();
        let mut prg = ChaChaPrg::from_u64_seed(9);
        let queries = pcp.generate_queries(&mut prg);
        let mut responses = pcp.answer(&proof, &queries);
        responses.z_answers.pop();
        assert!(!pcp.check(&queries, &responses, &io));
    }

    #[test]
    fn query_counts_match_figure3() {
        let (pcp, _, _) = setup(&[f(1), f(1)]);
        let mut prg = ChaChaPrg::from_u64_seed(3);
        let queries = pcp.generate_queries(&mut prg);
        let params = pcp.params();
        // ℓ' = 6ρlin + 4 queries per repetition, split 3ρlin+3 / 3ρlin+1.
        assert_eq!(
            queries.z_queries().len(),
            params.rho * (3 * params.rho_lin + 3)
        );
        assert_eq!(
            queries.h_queries().len(),
            params.rho * (3 * params.rho_lin + 1)
        );
        assert_eq!(
            queries.z_queries().len() + queries.h_queries().len(),
            params.total_queries()
        );
    }

    #[test]
    fn works_on_arith_domain() {
        let (sys, solver, t) = build::<F61>();
        let asg = solver.solve(&[f(4), f(6)]).unwrap();
        let ext = t.extend_assignment(&asg);
        let qap = Qap::with_domain(&sys, ArithDomain::<F61>::new(sys.constraints.len()));
        let w = qap.witness(&ext);
        let io: Vec<F61> = qap
            .var_map()
            .inputs()
            .iter()
            .chain(qap.var_map().outputs())
            .map(|v| ext.get(*v))
            .collect();
        let pcp = ZaatarPcp::new(qap, PcpParams::light());
        let proof = pcp.prove(&w).unwrap();
        let mut prg = ChaChaPrg::from_u64_seed(11);
        let queries = pcp.generate_queries(&mut prg);
        let responses = pcp.answer(&proof, &queries);
        assert!(pcp.check(&queries, &responses, &io));
        // Tamper and reject.
        let mut bad = responses.clone();
        bad.z_answers[0] -= F61::ONE;
        assert!(!pcp.check(&queries, &bad, &io));
    }

    /// Every query of `q` and every verifier secret, for comparisons.
    #[allow(clippy::type_complexity)]
    fn contents<F: Field>(q: &QuerySet<F>) -> (Vec<&[F]>, Vec<&[F]>, Vec<(F, &[F], &[F], &[F])>) {
        let reps = q.reps.iter().map(|r| (r.d_tau, &r.a_bound[..], &r.b_bound[..], &r.c_bound[..])).collect();
        (q.z_queries(), q.h_queries(), reps)
    }

    /// One query set on F128 at `params`, and the PRG after drawing it.
    fn f128_queries(params: PcpParams, shards: usize) -> (QuerySet<F128>, ChaChaPrg, usize, usize) {
        let (sys, _, _) = build::<F128>();
        let pcp: ZaatarPcp<F128, Radix2Domain<F128>> = ZaatarPcp::new(Qap::new(&sys), params);
        let mut prg = ChaChaPrg::from_u64_seed(0xd7a3);
        let queries = pcp.generate_queries_sharded(&mut prg, shards);
        (queries, prg, pcp.qap().var_map().num_unbound(), pcp.qap().degree() + 1)
    }

    /// The query set draws `ρ·(2ρ_lin·(n′ + n_h) + 1)` field elements:
    /// `q₁…q₄`, `q₇` and `q₁₀` are derived. On F128 a draw takes
    /// `2·NUM_WORDS` keystream words and no candidate is rejected at
    /// these sizes, so the PRG must sit exactly that many words in.
    #[test]
    fn query_generation_draws_rho_times_linearity_rows_plus_tau() {
        let params = PcpParams::default();
        let (_, mut prg, n_prime, n_h) = f128_queries(params, 2);
        let draws = params.rho * (2 * params.rho_lin * (n_prime + n_h) + 1);
        let mut expect = ChaChaPrg::from_u64_seed(0xd7a3);
        for _ in 0..draws * 2 * F128::NUM_WORDS {
            expect.next_u32();
        }
        assert_eq!(prg.next_u64(), expect.next_u64(), "{draws} draws expected");
    }

    #[test]
    fn generate_queries_is_identical_at_every_shard_count() {
        let params = PcpParams { rho: 3, rho_lin: 4 };
        let (serial, mut serial_prg, _, _) = f128_queries(params, 1);
        let (sharded, mut sharded_prg, _, _) = f128_queries(params, 4);
        assert_eq!(contents(&sharded), contents(&serial));
        assert_eq!(sharded_prg.next_u64(), serial_prg.next_u64());
    }

    #[test]
    fn default_params_match_paper() {
        let p = PcpParams::default();
        assert_eq!(p.rho, 8);
        assert_eq!(p.rho_lin, 20);
        assert_eq!(p.queries_per_rep(), 124);
    }

    #[test]
    fn appendix_a2_total_queries() {
        // App. A.2's production point: ρ_lin = 20, ρ = 8 — ℓ' = 6·20 + 4
        // queries per repetition, ρ·ℓ' = 992 in total.
        let p = PcpParams { rho: 8, rho_lin: 20 };
        assert_eq!(p.total_queries(), 992);
        assert_eq!(p.total_queries(), PcpParams::default().total_queries());
        // The light profile is a strict reduction of the same structure.
        let light = PcpParams::light();
        assert_eq!(light.total_queries(), 2 * (6 * 3 + 4));
    }

    /// The answers the session sends for `proof`: the blocked kernel
    /// over the batch's packed matrices (`decommit_packed_into`; the
    /// consistency answer is not compared, so `t` is the proof itself).
    fn packed_answers<F: PrimeField>(
        batch: &BatchQuerySet<F>,
        proof: &ZaatarProof<F>,
        workers: usize,
    ) -> PcpResponses<F> {
        let answer = |u: &[F], m| decommit_packed_into(u, m, u, workers, Vec::new()).answers;
        PcpResponses {
            z_answers: answer(&proof.z, batch.z_matrix()),
            h_answers: answer(&proof.h, batch.h_matrix()),
        }
    }

    #[test]
    fn batched_answers_match_serial() {
        let (pcp, w, io) = setup(&[f(6), f(-2)]);
        let proof = pcp.prove(&w).expect("honest witness proves");
        for seed in [0u64, 3, 17] {
            let mut prg = ChaChaPrg::from_u64_seed(seed);
            let batch = BatchQuerySet::new(pcp.generate_queries(&mut prg));
            let mut prg2 = ChaChaPrg::from_u64_seed(seed);
            let queries = pcp.generate_queries(&mut prg2);
            let serial = pcp.answer(&proof, &queries);
            for workers in [1usize, 4] {
                let batched = packed_answers(&batch, &proof, workers);
                assert_eq!(batched, serial, "seed={seed} workers={workers}");
            }
            assert!(pcp.check(batch.queries(), &packed_answers(&batch, &proof, 2), &io));
        }
    }

    #[test]
    fn batch_query_set_reuses_one_generation() {
        // One generation serves many instances: every proof answered off
        // the same BatchQuerySet verifies against the wrapped QuerySet.
        let inputs: [[i64; 2]; 3] = [[2, 9], [5, 5], [-1, 8]];
        let mut prg = ChaChaPrg::from_u64_seed(0xbaac);
        let mut batchq = None;
        for pair in inputs {
            let (pcp, w, io) = setup(&[f(pair[0]), f(pair[1])]);
            let batch = batchq.get_or_insert_with(|| BatchQuerySet::new(pcp.generate_queries(&mut prg)));
            let proof = pcp.prove(&w).unwrap();
            let responses = packed_answers(batch, &proof, 2);
            assert!(pcp.check(batch.queries(), &responses, &io), "{pair:?}");
        }
    }

    #[test]
    fn batch_matrices_mirror_canonical_order() {
        let (pcp, _, _) = setup(&[f(1), f(2)]);
        let mut prg = ChaChaPrg::from_u64_seed(23);
        let batch = BatchQuerySet::new(pcp.generate_queries(&mut prg));
        let z = batch.queries().z_queries();
        let h = batch.queries().h_queries();
        assert_eq!(batch.z_matrix().num_rows(), z.len());
        assert_eq!(batch.h_matrix().num_rows(), h.len());
        // One storage: the matrix rows *are* the canonical queries.
        for (i, q) in z.iter().enumerate() {
            assert_eq!(batch.z_matrix().row(i), *q);
            assert_eq!(batch.z_matrix().row(i).as_ptr(), q.as_ptr());
        }
        for (i, q) in h.iter().enumerate() {
            assert_eq!(batch.h_matrix().row(i), *q);
            assert_eq!(batch.h_matrix().row(i).as_ptr(), q.as_ptr());
        }
    }
}
