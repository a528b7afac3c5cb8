//! The baseline classical linear PCP of Arora et al., as used by
//! Pepper/Ginger (§2.2).
//!
//! A correct proof oracle is `π = (π₁, π₂)` for the vector
//! `u = (z, z ⊗ z)` — quadratic length `|Z| + |Z|²`, the cost Zaatar
//! eliminates. The verifier runs:
//!
//! * **linearity tests** on both oracles;
//! * the **quadratic correction test**: for random `q, q'`,
//!   `π₂(q ⊗ q') = π₁(q)·π₁(q')` (checks that `π₂` is the outer product
//!   of `π₁`'s vector with itself);
//! * the **circuit test**: for random `v ∈ F^{|C|}`, the polynomial
//!   `Q(v, Z) = ⟨γ₂, Z⊗Z⟩ + ⟨γ₁, Z⟩ + γ₀` must vanish at `z`.
//!
//! All divisibility-style queries are self-corrected with masks, as in
//! the Zaatar PCP. Binding of inputs/outputs: the io-linearized systems
//! produced by `zaatar_cc::linearize_io` guarantee bound variables occur
//! only linearly, so `γ₂, γ₁` are instance-independent and only the
//! scalar `γ₀` depends on `(x, y)` — that is what lets one query set
//! serve a whole batch (Fig. 3's amortized query-construction row).

use zaatar_cc::{Assignment, GingerSystem, Kind, VarId};
use zaatar_crypto::ChaChaPrg;
use zaatar_field::{Field, PrimeField};

use crate::pcp::PcpParams;

/// The proof vector `u = (z, z ⊗ z)` as two linear oracles.
#[derive(Clone, Debug)]
pub struct GingerProof<F> {
    /// The assignment part (oracle `π₁`, length `|Z|`).
    pub z: Vec<F>,
    /// The outer product part (oracle `π₂`, length `|Z|²`, row-major).
    pub zz: Vec<F>,
}

impl<F: Field> GingerProof<F> {
    /// Builds a proof from an assignment vector (honest prover).
    pub fn from_z(z: Vec<F>) -> Self {
        let n = z.len();
        let mut zz = Vec::with_capacity(n * n);
        for a in &z {
            for b in &z {
                zz.push(*a * *b);
            }
        }
        GingerProof { z, zz }
    }

    /// `π₁(q)`.
    pub fn query1(&self, q: &[F]) -> F {
        F::dot(q, &self.z)
    }

    /// `π₂(q)`.
    pub fn query2(&self, q: &[F]) -> F {
        F::dot(q, &self.zz)
    }

    /// Proof vector length `|Z| + |Z|²`.
    pub fn len(&self) -> usize {
        self.z.len() + self.zz.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.z.is_empty()
    }
}

/// A constraint with bound variables substituted out: quadratic and
/// linear parts over `Z` indices plus an `(x, y)`-affine constant.
#[derive(Clone, Debug)]
struct SplitConstraint<F> {
    /// `(i, j, coeff)` over z-indices.
    quad: Vec<(usize, usize, F)>,
    /// `(i, coeff)` over z-indices.
    linear: Vec<(usize, F)>,
    /// Constant part.
    constant: F,
    /// `(io position, coeff)` — the instance-dependent part of `γ₀`.
    io_linear: Vec<(usize, F)>,
}

/// One repetition's queries for the classical PCP.
#[derive(Clone, Debug)]
struct Rep<F> {
    /// Linearity triples for `π₁`.
    lin1: Vec<[Vec<F>; 3]>,
    /// Linearity triples for `π₂`.
    lin2: Vec<[Vec<F>; 3]>,
    /// Quadratic correction: masked `q`, `q'`, masks, and masked outer
    /// product with its mask.
    qc_q1: Vec<F>,
    qc_q2: Vec<F>,
    qc_m1: Vec<F>,
    qc_m2: Vec<F>,
    qc_outer: Vec<F>,
    qc_mm: Vec<F>,
    /// Circuit test: masked `γ₁`, `γ₂` (masks are `qc_m1` and `qc_mm`).
    gamma1: Vec<F>,
    gamma2: Vec<F>,
    /// Constraint coefficients `v` (needed per instance for `γ₀`).
    v: Vec<F>,
}

/// The verifier's query set.
#[derive(Clone, Debug)]
pub struct GingerQuerySet<F> {
    reps: Vec<Rep<F>>,
}

impl<F: Field> GingerQuerySet<F> {
    /// All `π₁` queries in the canonical response order (per repetition:
    /// linearity triples, `q+m₁`, `q'+m₂`, `m₁`, `m₂`, then `γ₁`).
    pub fn q1_queries(&self) -> Vec<&[F]> {
        let mut out = Vec::new();
        for rep in &self.reps {
            for t in &rep.lin1 {
                for q in t {
                    out.push(q.as_slice());
                }
            }
            out.push(rep.qc_q1.as_slice());
            out.push(rep.qc_q2.as_slice());
            out.push(rep.qc_m1.as_slice());
            out.push(rep.qc_m2.as_slice());
            out.push(rep.gamma1.as_slice());
        }
        out
    }

    /// All `π₂` queries in the canonical response order (per repetition:
    /// linearity triples, masked outer product, its mask, then `γ₂`).
    pub fn q2_queries(&self) -> Vec<&[F]> {
        let mut out = Vec::new();
        for rep in &self.reps {
            for t in &rep.lin2 {
                for q in t {
                    out.push(q.as_slice());
                }
            }
            out.push(rep.qc_outer.as_slice());
            out.push(rep.qc_mm.as_slice());
            out.push(rep.gamma2.as_slice());
        }
        out
    }

    /// Number of repetitions.
    pub fn num_reps(&self) -> usize {
        self.reps.len()
    }
}

/// The prover's responses (per repetition, fixed layout).
#[derive(Clone, Debug)]
pub struct GingerResponses<F> {
    /// `π₁` answers.
    pub a1: Vec<F>,
    /// `π₂` answers.
    pub a2: Vec<F>,
}

/// The classical linear PCP for a Ginger constraint system.
///
/// # Panics
///
/// Construction panics if any degree-2 term involves a bound (input or
/// output) variable — run `zaatar_cc::linearize_io` first.
#[derive(Clone, Debug)]
pub struct GingerPcp<F> {
    constraints: Vec<SplitConstraint<F>>,
    z_vars: Vec<VarId>,
    io_vars: Vec<VarId>,
    params: PcpParams,
}

impl<F: PrimeField> GingerPcp<F> {
    /// Builds the PCP from an io-linearized system.
    pub fn new(sys: &GingerSystem<F>, params: PcpParams) -> Self {
        let z_vars = sys.vars.of_kind(Kind::Aux);
        let mut io_vars = sys.vars.of_kind(Kind::Input);
        io_vars.extend(sys.vars.of_kind(Kind::Output));
        let mut z_index = vec![usize::MAX; sys.vars.len()];
        for (i, v) in z_vars.iter().enumerate() {
            z_index[v.0] = i;
        }
        let mut io_index = vec![usize::MAX; sys.vars.len()];
        for (i, v) in io_vars.iter().enumerate() {
            io_index[v.0] = i;
        }
        let constraints = sys
            .constraints
            .iter()
            .map(|c| {
                let quad = c
                    .quad
                    .iter()
                    .map(|(i, j, coeff)| {
                        assert!(
                            z_index[i.0] != usize::MAX && z_index[j.0] != usize::MAX,
                            "degree-2 terms must be io-linearized (run linearize_io)"
                        );
                        (z_index[i.0], z_index[j.0], *coeff)
                    })
                    .collect();
                let mut linear = Vec::new();
                let mut io_linear = Vec::new();
                for (v, coeff) in c.linear.terms() {
                    if z_index[v.0] != usize::MAX {
                        linear.push((z_index[v.0], *coeff));
                    } else {
                        io_linear.push((io_index[v.0], *coeff));
                    }
                }
                SplitConstraint {
                    quad,
                    linear,
                    constant: c.linear.constant_term(),
                    io_linear,
                }
            })
            .collect();
        GingerPcp {
            constraints,
            z_vars,
            io_vars,
            params,
        }
    }

    /// Number of unbound variables `|Z|`.
    pub fn num_z(&self) -> usize {
        self.z_vars.len()
    }

    /// The parameters in force.
    pub fn params(&self) -> PcpParams {
        self.params
    }

    /// Extracts `(z, io)` vectors from a full assignment.
    pub fn split_assignment(&self, asg: &Assignment<F>) -> (Vec<F>, Vec<F>) {
        (asg.extract(&self.z_vars), asg.extract(&self.io_vars))
    }

    /// Builds the (honest or not) proof from a `z` vector.
    pub fn prove(&self, z: Vec<F>) -> GingerProof<F> {
        GingerProof::from_z(z)
    }

    /// Generates queries; shared across a batch.
    pub fn generate_queries(&self, prg: &mut ChaChaPrg) -> GingerQuerySet<F> {
        let n = self.num_z();
        let n2 = n * n;
        let mut reps = Vec::with_capacity(self.params.rho);
        for _ in 0..self.params.rho {
            let mut lin1 = Vec::with_capacity(self.params.rho_lin);
            let mut lin2 = Vec::with_capacity(self.params.rho_lin);
            for _ in 0..self.params.rho_lin {
                let a: Vec<F> = prg.field_vec(n);
                let b: Vec<F> = prg.field_vec(n);
                let c = add(&a, &b);
                lin1.push([a, b, c]);
                let a2: Vec<F> = prg.field_vec(n2);
                let b2: Vec<F> = prg.field_vec(n2);
                let c2 = add(&a2, &b2);
                lin2.push([a2, b2, c2]);
            }
            // Quadratic correction test.
            let q: Vec<F> = prg.field_vec(n);
            let qp: Vec<F> = prg.field_vec(n);
            let m1: Vec<F> = prg.field_vec(n);
            let m2: Vec<F> = prg.field_vec(n);
            let mm: Vec<F> = prg.field_vec(n2);
            let mut outer = Vec::with_capacity(n2);
            for a in &q {
                for b in &qp {
                    outer.push(*a * *b);
                }
            }
            let qc_outer = add(&outer, &mm);
            // Circuit test.
            let v: Vec<F> = prg.field_vec(self.constraints.len());
            let mut g1 = vec![F::ZERO; n];
            let mut g2 = vec![F::ZERO; n2];
            for (c, vj) in self.constraints.iter().zip(v.iter()) {
                for (i, j, coeff) in &c.quad {
                    g2[i * n + j] += *vj * *coeff;
                }
                for (i, coeff) in &c.linear {
                    g1[*i] += *vj * *coeff;
                }
            }
            let gamma1 = add(&g1, &m1);
            let gamma2 = add(&g2, &mm);
            reps.push(Rep {
                lin1,
                lin2,
                qc_q1: add(&q, &m1),
                qc_q2: add(&qp, &m2),
                qc_m1: m1,
                qc_m2: m2,
                qc_outer,
                qc_mm: mm,
                gamma1,
                gamma2,
                v,
            });
        }
        GingerQuerySet { reps }
    }

    /// The prover's responses.
    pub fn answer(&self, proof: &GingerProof<F>, queries: &GingerQuerySet<F>) -> GingerResponses<F> {
        let mut a1 = Vec::new();
        let mut a2 = Vec::new();
        for q in queries.q1_queries() {
            a1.push(proof.query1(q));
        }
        for q in queries.q2_queries() {
            a2.push(proof.query2(q));
        }
        GingerResponses { a1, a2 }
    }

    /// The verifier's decision for an instance with io values `io`.
    pub fn check(&self, queries: &GingerQuerySet<F>, responses: &GingerResponses<F>, io: &[F]) -> bool {
        let rho_lin = self.params.rho_lin;
        let per1 = 3 * rho_lin + 5; // lin triples + q1,q2,m1,m2 + γ1.
        let per2 = 3 * rho_lin + 3; // lin triples + outer,mm + γ2.
        if responses.a1.len() != queries.reps.len() * per1
            || responses.a2.len() != queries.reps.len() * per2
            || io.len() != self.io_vars.len()
        {
            return false;
        }
        for (ri, rep) in queries.reps.iter().enumerate() {
            let a1 = &responses.a1[ri * per1..(ri + 1) * per1];
            let a2 = &responses.a2[ri * per2..(ri + 1) * per2];
            for t in 0..rho_lin {
                if a1[3 * t] + a1[3 * t + 1] != a1[3 * t + 2] {
                    return false;
                }
                if a2[3 * t] + a2[3 * t + 1] != a2[3 * t + 2] {
                    return false;
                }
            }
            let base1 = 3 * rho_lin;
            let base2 = 3 * rho_lin;
            let (rq, rqp, rm1, rm2) = (a1[base1], a1[base1 + 1], a1[base1 + 2], a1[base1 + 3]);
            let (router, rmm) = (a2[base2], a2[base2 + 1]);
            // Quadratic correction: π₂(q⊗q') = π₁(q)·π₁(q').
            if router - rmm != (rq - rm1) * (rqp - rm2) {
                return false;
            }
            // Circuit test: ⟨γ₂,z⊗z⟩ + ⟨γ₁,z⟩ + γ₀ = 0.
            let rg1 = a1[base1 + 4];
            let rg2 = a2[base2 + 2];
            let gamma0: F = self
                .constraints
                .iter()
                .zip(rep.v.iter())
                .map(|(c, vj)| {
                    let io_part: F = c
                        .io_linear
                        .iter()
                        .map(|(pos, coeff)| io[*pos] * *coeff)
                        .sum();
                    *vj * (c.constant + io_part)
                })
                .sum();
            if (rg2 - rmm) + (rg1 - rm1) + gamma0 != F::ZERO {
                return false;
            }
        }
        true
    }
}

fn add<F: Field>(a: &[F], b: &[F]) -> Vec<F> {
    a.iter().zip(b.iter()).map(|(x, y)| *x + *y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zaatar_cc::{linearize_io, Builder};
    use zaatar_field::F61;

    fn f(x: i64) -> F61 {
        F61::from_i64(x)
    }

    fn setup(inputs: &[F61]) -> (GingerPcp<F61>, Vec<F61>, Vec<F61>) {
        // y = (a+1)·(b−2) + a·a.
        let mut b = Builder::<F61>::new();
        let a = b.alloc_input();
        let bb = b.alloc_input();
        let p1 = b.mul(&a.add_constant(f(1)), &bb.add_constant(f(-2)));
        let p2 = b.square(&a);
        b.bind_output(&p1.add(&p2));
        let (sys, solver) = b.finish();
        let lin = linearize_io(&sys);
        let asg = solver.solve(inputs).unwrap();
        let ext = lin.extend_assignment(&asg);
        assert!(lin.system.is_satisfied(&ext));
        let pcp = GingerPcp::new(&lin.system, PcpParams::light());
        let (z, io) = pcp.split_assignment(&ext);
        (pcp, z, io)
    }

    #[test]
    fn completeness() {
        let (pcp, z, io) = setup(&[f(3), f(10)]);
        let proof = pcp.prove(z);
        for seed in 0..10u64 {
            let mut prg = ChaChaPrg::from_u64_seed(seed);
            let queries = pcp.generate_queries(&mut prg);
            let responses = pcp.answer(&proof, &queries);
            assert!(pcp.check(&queries, &responses, &io), "seed={seed}");
        }
    }

    #[test]
    fn wrong_output_rejected() {
        let (pcp, z, mut io) = setup(&[f(3), f(10)]);
        let proof = pcp.prove(z);
        let last = io.len() - 1;
        // A statement of the wrong arity is rejected, not indexed: one
        // value short, and the honest io with a value appended.
        let queries = pcp.generate_queries(&mut ChaChaPrg::from_u64_seed(0));
        let responses = pcp.answer(&proof, &queries);
        assert!(!pcp.check(&queries, &responses, &io[..last]));
        let long: Vec<F61> = io.iter().copied().chain([F61::ZERO]).collect();
        assert!(!pcp.check(&queries, &responses, &long));
        io[last] += F61::ONE;
        let mut rejections = 0;
        for seed in 0..20u64 {
            let mut prg = ChaChaPrg::from_u64_seed(seed);
            let queries = pcp.generate_queries(&mut prg);
            let responses = pcp.answer(&proof, &queries);
            if !pcp.check(&queries, &responses, &io) {
                rejections += 1;
            }
        }
        assert!(rejections >= 19, "only {rejections}/20 rejected");
    }

    #[test]
    fn non_outer_product_pi2_rejected() {
        // π₂ not of the form z⊗z fails the quadratic correction test.
        let (pcp, z, io) = setup(&[f(1), f(4)]);
        let mut proof = pcp.prove(z);
        proof.zz[1] += F61::ONE;
        let mut rejections = 0;
        for seed in 0..20u64 {
            let mut prg = ChaChaPrg::from_u64_seed(seed);
            let queries = pcp.generate_queries(&mut prg);
            let responses = pcp.answer(&proof, &queries);
            if !pcp.check(&queries, &responses, &io) {
                rejections += 1;
            }
        }
        assert!(rejections >= 18, "only {rejections}/20 rejected");
    }

    #[test]
    fn corrupted_z_rejected() {
        let (pcp, mut z, io) = setup(&[f(2), f(7)]);
        z[0] += F61::ONE;
        let proof = pcp.prove(z);
        let mut rejections = 0;
        for seed in 0..20u64 {
            let mut prg = ChaChaPrg::from_u64_seed(seed);
            let queries = pcp.generate_queries(&mut prg);
            let responses = pcp.answer(&proof, &queries);
            if !pcp.check(&queries, &responses, &io) {
                rejections += 1;
            }
        }
        assert!(rejections >= 19, "only {rejections}/20 rejected");
    }

    #[test]
    fn proof_length_is_quadratic() {
        let (pcp, z, _) = setup(&[f(1), f(1)]);
        let n = z.len();
        let proof = pcp.prove(z);
        assert_eq!(proof.len(), n + n * n);
    }

    #[test]
    #[should_panic(expected = "io-linearized")]
    fn rejects_unlinearized_systems() {
        let mut b = Builder::<F61>::new();
        let x = b.alloc_input();
        let y = b.alloc_input();
        let p = b.mul(&x, &y);
        b.bind_output(&p);
        let (sys, _) = b.finish();
        let _ = GingerPcp::new(&sys, PcpParams::light());
    }

    #[test]
    fn same_queries_verify_multiple_instances() {
        // The batching property: one query set, several (x, y) pairs.
        let (pcp, _, _) = setup(&[f(1), f(1)]);
        let mut prg = ChaChaPrg::from_u64_seed(77);
        let queries = pcp.generate_queries(&mut prg);
        for inputs in [[f(3), f(10)], [f(0), f(5)], [f(-2), f(9)]] {
            let (pcp_i, z, io) = setup(&inputs);
            // Same constraint structure → same query shapes.
            let proof = pcp_i.prove(z);
            let responses = pcp_i.answer(&proof, &queries);
            assert!(pcp_i.check(&queries, &responses, &io), "inputs={inputs:?}");
        }
    }
}
