//! Quadratic Arithmetic Programs over quadratic-form constraints
//! (App. A.1).
//!
//! Given a constraint set in quadratic form (`p_A·p_B = p_C` per
//! constraint), the QAP packages the coefficient structure as three
//! families of polynomials `{Aᵢ(t), Bᵢ(t), Cᵢ(t)}` interpolated through
//! the per-constraint coefficients at the domain points `{σⱼ}` with the
//! extra condition `Aᵢ(0) = Bᵢ(0) = Cᵢ(0) = 0`, plus the divisor
//! polynomial `D(t) = ∏(t − σⱼ)`. Claim A.1: `D(t)` divides
//! `P_w(t) = (Σwᵢ·Aᵢ)(Σwᵢ·Bᵢ) − (Σwᵢ·Cᵢ)` iff `w = (x, y, z)` satisfies
//! the constraints.
//!
//! Variable indexing follows App. A.1: index 0 is the constant term row
//! (`w₀ = 1`), indices `1..=n'` are the unbound variables `Z`, and
//! `n'+1..=n` are the bound input/output variables `X, Y`.

use zaatar_cc::{Assignment, Kind, LinComb, QuadSystem, VarId};
use zaatar_field::PrimeField;
use zaatar_mem::{BudgetError, ChunkedVec};
use zaatar_poly::domain::EvalDomain;
use zaatar_poly::{Radix2Domain, SparsePoly};

use crate::workspace::ProverWorkspace;

/// Maps between the constraint system's `VarId`s and QAP indices.
#[derive(Clone, Debug)]
pub struct QapVarMap {
    /// QAP index (1-based among variables; 0 is the constant row) for
    /// each `VarId`.
    index_of: Vec<usize>,
    /// Number of unbound (`Z`) variables.
    num_unbound: usize,
    /// Input variables in declaration order.
    inputs: Vec<VarId>,
    /// Output variables in declaration order.
    outputs: Vec<VarId>,
}

impl QapVarMap {
    fn new<F: PrimeField>(sys: &QuadSystem<F>) -> Self {
        let mut index_of = vec![0usize; sys.vars.len()];
        let mut next = 1;
        // Z variables first (indices 1..=n').
        for v in sys.vars.of_kind(Kind::Aux) {
            index_of[v.0] = next;
            next += 1;
        }
        let num_unbound = next - 1;
        let inputs = sys.vars.of_kind(Kind::Input);
        let outputs = sys.vars.of_kind(Kind::Output);
        for v in inputs.iter().chain(outputs.iter()) {
            index_of[v.0] = next;
            next += 1;
        }
        QapVarMap {
            index_of,
            num_unbound,
            inputs,
            outputs,
        }
    }

    /// QAP index of a constraint variable.
    pub fn index(&self, v: VarId) -> usize {
        self.index_of[v.0]
    }

    /// Number of unbound variables `n'`.
    pub fn num_unbound(&self) -> usize {
        self.num_unbound
    }

    /// Total variable count `n` (excluding the constant row).
    pub fn num_vars(&self) -> usize {
        self.index_of.len()
    }

    /// The input variables, in order.
    pub fn inputs(&self) -> &[VarId] {
        &self.inputs
    }

    /// The output variables, in order.
    pub fn outputs(&self) -> &[VarId] {
        &self.outputs
    }
}

/// A witness split into the QAP's bound/unbound layout.
#[derive(Clone, Debug)]
pub struct QapWitness<F> {
    /// The unbound assignment `z` (QAP indices `1..=n'`).
    pub z: Vec<F>,
    /// The bound input/output values (QAP indices `n'+1..=n`).
    pub io: Vec<F>,
}

impl<F: PrimeField> QapWitness<F> {
    /// The full `w` vector indexed by QAP index (`w[0] = 1`).
    pub fn full(&self) -> Vec<F> {
        let mut w = Vec::with_capacity(1 + self.z.len() + self.io.len());
        w.push(F::ONE);
        w.extend_from_slice(&self.z);
        w.extend_from_slice(&self.io);
        w
    }
}

/// Output of the prover pipeline's Witness stage
/// ([`Qap::witness_stage_streamed`]): the per-constraint values of `A`,
/// `B`, `C` for one instance, materialized as pool-leased chunks so the
/// quotient kernel can return each chunk the moment it is absorbed.
/// Consume with [`Qap::quotient_stage_streamed`].
pub struct StagedWitnessChunked<F> {
    a_vals: ChunkedVec<F>,
    b_vals: ChunkedVec<F>,
    c_vals: ChunkedVec<F>,
}

/// The `{Aᵢ(τ)}` evaluations the verifier needs for query construction
/// (App. A.3), split into the unbound part (the queries `q_a`, `q_b`,
/// `q_c`) and the bound part (folded into the check's `Σ wᵢ·Aᵢ(τ)` terms).
#[derive(Clone, Debug)]
pub struct QapEvals<F> {
    /// `(A₁(τ), …, A_{n'}(τ))` — the query `q_a`.
    pub qa: Vec<F>,
    /// `(B₁(τ), …, B_{n'}(τ))` — the query `q_b`.
    pub qb: Vec<F>,
    /// `(C₁(τ), …, C_{n'}(τ))` — the query `q_c`.
    pub qc: Vec<F>,
    /// `A₀(τ)` and `Aᵢ(τ)` for the bound (io) indices, in io order.
    pub a_bound: Vec<F>,
    /// Same for `B`.
    pub b_bound: Vec<F>,
    /// Same for `C`.
    pub c_bound: Vec<F>,
    /// `D(τ)`.
    pub d_tau: F,
}

/// `b₀ + Σᵢ wᵢ·bᵢ₊₁`: a bound row of [`QapEvals`] (`A₀(τ)`, then the io
/// columns at `τ`) folded with the io values `w` — the verifier's
/// three-operations-per-input-and-output cost (§4).
pub(crate) fn fold_bound<F: PrimeField>(bound: &[F], io: &[F]) -> F {
    bound[0] + io.iter().zip(&bound[1..]).map(|(w, b)| *w * *b).sum::<F>()
}

/// A QAP instance: the sparse variable-constraint matrices of App. A.1
/// in evaluation representation, over a chosen domain.
#[derive(Clone, Debug)]
pub struct Qap<F, D = Radix2Domain<F>> {
    domain: D,
    /// Row `i` holds variable `i`'s values `{(j, aᵢⱼ)}` (QAP indexing;
    /// row 0 is the constant row).
    a_rows: Vec<SparsePoly<F>>,
    b_rows: Vec<SparsePoly<F>>,
    c_rows: Vec<SparsePoly<F>>,
    var_map: QapVarMap,
    /// Real (unpadded) constraint count.
    num_constraints: usize,
}

impl<F: PrimeField> Qap<F, Radix2Domain<F>> {
    /// Builds the QAP over the NTT-friendly subgroup domain (the fast
    /// path; see DESIGN.md §3 for why this preserves the construction).
    pub fn new(sys: &QuadSystem<F>) -> Self {
        let domain = Radix2Domain::new(sys.constraints.len().max(1));
        Self::with_domain(sys, domain)
    }
}

impl<F: PrimeField, D: EvalDomain<F>> Qap<F, D> {
    /// Builds the QAP over an explicit domain, which must have at least
    /// as many points as constraints (extra points become trivially
    /// satisfied padding constraints `0·0 = 0`).
    ///
    /// # Panics
    ///
    /// Panics if the domain is smaller than the constraint count.
    pub fn with_domain(sys: &QuadSystem<F>, domain: D) -> Self {
        let _span = zaatar_obs::time("qap.build");
        assert!(
            domain.size() >= sys.constraints.len(),
            "domain must cover all constraints"
        );
        let var_map = QapVarMap::new(sys);
        let n = var_map.num_vars();
        let mut a_rows = vec![SparsePoly::zero(); n + 1];
        let mut b_rows = vec![SparsePoly::zero(); n + 1];
        let mut c_rows = vec![SparsePoly::zero(); n + 1];
        for (j, constraint) in sys.constraints.iter().enumerate() {
            let fill = |rows: &mut Vec<SparsePoly<F>>, lc: &LinComb<F>| {
                if !lc.constant_term().is_zero() {
                    rows[0].add_at(j, lc.constant_term());
                }
                for (v, coeff) in lc.terms() {
                    rows[var_map.index(*v)].add_at(j, *coeff);
                }
            };
            fill(&mut a_rows, &constraint.a);
            fill(&mut b_rows, &constraint.b);
            fill(&mut c_rows, &constraint.c);
        }
        Qap {
            domain,
            a_rows,
            b_rows,
            c_rows,
            var_map,
            num_constraints: sys.constraints.len(),
        }
    }

    /// The evaluation domain.
    pub fn domain(&self) -> &D {
        &self.domain
    }

    /// The variable mapping.
    pub fn var_map(&self) -> &QapVarMap {
        &self.var_map
    }

    /// Degree of the divisor polynomial = padded constraint count; the
    /// quotient `H` has this degree, so `h` has `degree + 1` entries.
    pub fn degree(&self) -> usize {
        self.domain.size()
    }

    /// Real constraint count before padding.
    pub fn num_constraints(&self) -> usize {
        self.num_constraints
    }

    /// Splits a full assignment into the QAP witness layout.
    pub fn witness(&self, asg: &Assignment<F>) -> QapWitness<F> {
        let m = &self.var_map;
        let mut z = vec![F::ZERO; m.num_unbound()];
        for (v, idx) in m.index_of.iter().enumerate() {
            if *idx >= 1 && *idx <= m.num_unbound() {
                z[*idx - 1] = asg.get(VarId(v));
            }
        }
        let io: Vec<F> = m
            .inputs
            .iter()
            .chain(m.outputs.iter())
            .map(|v| asg.get(*v))
            .collect();
        QapWitness { z, io }
    }

    /// Per-constraint inner products `Σᵢ wᵢ·mᵢⱼ` for a full `w`, into a
    /// buffer leased from `ws` (including padding zeros beyond the real
    /// constraints) — the flat reference [`Qap::compute_h_unchecked`]
    /// runs and the chunked Witness stage is tested against.
    fn combine_rows_into(
        &self,
        rows: &[SparsePoly<F>],
        w: &[F],
        ws: &mut ProverWorkspace<F>,
    ) -> Vec<F> {
        let mut acc = ws.scratch().take(self.domain.size(), F::ZERO);
        for (row, wi) in rows.iter().zip(w.iter()) {
            row.accumulate_into(*wi, &mut acc);
        }
        acc
    }

    /// [`Qap::witness_stage_streamed`] at one covering chunk. Kept
    /// because `zbench` calls it; prover code goes through
    /// [`Qap::compute_h_policied`].
    ///
    /// # Panics
    ///
    /// Panics if the workspace's budget refuses a lease.
    pub fn witness_stage(
        &self,
        witness: &QapWitness<F>,
        ws: &mut ProverWorkspace<F>,
    ) -> StagedWitnessChunked<F> {
        self.witness_stage_streamed(witness, self.degree(), ws)
            .expect("budget refused a covering-chunk Witness lease")
    }

    /// [`Qap::quotient_stage_streamed`] with a refused lease turned
    /// into a panic. Kept because `zbench` calls it.
    ///
    /// # Panics
    ///
    /// Panics if the workspace's budget refuses a lease.
    pub fn quotient_stage(
        &self,
        staged: StagedWitnessChunked<F>,
        ws: &mut ProverWorkspace<F>,
    ) -> Option<Vec<F>> {
        self.quotient_stage_streamed(staged, ws)
            .expect("budget refused a Quotient-stage lease")
    }

    /// Pipeline stage 1 — **Witness**: walks the constraint rows
    /// variable-by-variable *without materializing the full `w` vector*
    /// (each `wᵢ` is read straight out of the witness: the constant 1,
    /// then `z`, then `io`), accumulating into chunked `A`/`B`/`C` value
    /// vectors leased `chunk_len` elements at a time. The per-slot
    /// accumulation order mirrors [`SparsePoly::accumulate_into`] (same
    /// rows, same entry order, same skip-zero-scale rule), so the values
    /// are the same at every chunk length; a budget-limited workspace
    /// gets a typed rejection instead of an OOM.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0`.
    pub fn witness_stage_streamed(
        &self,
        witness: &QapWitness<F>,
        chunk_len: usize,
        ws: &mut ProverWorkspace<F>,
    ) -> Result<StagedWitnessChunked<F>, BudgetError> {
        let n = self.domain.size();
        let a_vals = ChunkedVec::try_take(ws.scratch(), n, chunk_len, F::ZERO)?;
        let b_vals = match ChunkedVec::try_take(ws.scratch(), n, chunk_len, F::ZERO) {
            Ok(v) => v,
            Err(e) => {
                a_vals.release(ws.scratch());
                return Err(e);
            }
        };
        let c_vals = match ChunkedVec::try_take(ws.scratch(), n, chunk_len, F::ZERO) {
            Ok(v) => v,
            Err(e) => {
                b_vals.release(ws.scratch());
                a_vals.release(ws.scratch());
                return Err(e);
            }
        };
        let mut staged = StagedWitnessChunked {
            a_vals,
            b_vals,
            c_vals,
        };
        let w_iter = || {
            core::iter::once(F::ONE)
                .chain(witness.z.iter().copied())
                .chain(witness.io.iter().copied())
        };
        let combine = |rows: &[SparsePoly<F>], acc: &mut ChunkedVec<F>| {
            for (row, wi) in rows.iter().zip(w_iter()) {
                // Mirror SparsePoly::accumulate_into exactly.
                if wi.is_zero() {
                    continue;
                }
                for (j, v) in row.entries() {
                    *acc.get_mut(*j) += wi * *v;
                }
            }
        };
        combine(&self.a_rows, &mut staged.a_vals);
        combine(&self.b_rows, &mut staged.b_vals);
        combine(&self.c_rows, &mut staged.c_vals);
        Ok(staged)
    }

    /// Pipeline stage 2 — **Quotient**: hands the chunked values to the
    /// domain's quotient kernel
    /// ([`EvalDomain::quotient_zero_pinned_streamed`]), which returns
    /// each chunk to the pool as it is absorbed. `Ok(None)` means the
    /// divisibility gate failed — `w` is not a satisfying assignment.
    pub fn quotient_stage_streamed(
        &self,
        staged: StagedWitnessChunked<F>,
        ws: &mut ProverWorkspace<F>,
    ) -> Result<Option<Vec<F>>, BudgetError> {
        let h = self.domain.quotient_zero_pinned_streamed(
            staged.a_vals,
            staged.b_vals,
            staged.c_vals,
            ws.scratch(),
        )?;
        debug_assert!(
            h.as_ref().is_none_or(|h| h.len() == self.degree() + 1),
            "quotient kernel must return degree()+1 coefficients"
        );
        Ok(h)
    }

    /// The prover's quotient computation (App. A.3): the Witness and
    /// Quotient stages back to back over hard (`try_take`) leases, at the
    /// chunk length the workspace's stamped [`zaatar_sched::ExecPolicy`]
    /// gives for this domain ([`zaatar_sched::Proving::chunk_len_for`]).
    /// Peak residency is two coset buffers plus the three value vectors
    /// (7 elements per domain point) at any chunk length.
    ///
    /// Returns the coefficients of `H(t)` (length `degree() + 1`),
    /// bit-identical under every policy; `Ok(None)` means `D(t)` does not
    /// divide `P_w(t)` — `w` is not a satisfying assignment.
    pub fn compute_h_policied(
        &self,
        witness: &QapWitness<F>,
        ws: &mut ProverWorkspace<F>,
    ) -> Result<Option<Vec<F>>, BudgetError> {
        let _span = zaatar_obs::time("qap.compute_h");
        let chunk_len = ws.policy().proving.chunk_len_for(self.degree());
        let staged = self.witness_stage_streamed(witness, chunk_len, ws)?;
        self.quotient_stage_streamed(staged, ws)
    }

    /// Like [`Qap::compute_h_policied`] but returns the (useless)
    /// quotient even when the remainder is non-zero — what a *cheating*
    /// prover would ship. Used by the soundness experiments. Deliberately kept on the
    /// explicit interpolate → multiply → divide route: the coset quotient
    /// kernel has no well-defined output for a non-divisible `P_w`, while
    /// this path's truncated Euclidean quotient is stable across kernel
    /// rewrites.
    pub fn compute_h_unchecked(&self, witness: &QapWitness<F>) -> Vec<F> {
        let mut ws = ProverWorkspace::new();
        let w = witness.full();
        let a_vals = self.combine_rows_into(&self.a_rows, &w, &mut ws);
        let b_vals = self.combine_rows_into(&self.b_rows, &w, &mut ws);
        let c_vals = self.combine_rows_into(&self.c_rows, &w, &mut ws);
        let a_poly = self.domain.interpolate_zero_pinned(&a_vals);
        let b_poly = self.domain.interpolate_zero_pinned(&b_vals);
        let c_poly = self.domain.interpolate_zero_pinned(&c_vals);
        let p = &(&a_poly * &b_poly) - &c_poly;
        let (h, _rem) = self.domain.divide_by_vanishing(&p);
        let mut coeffs = h.into_coeffs();
        coeffs.resize(self.degree() + 1, F::ZERO);
        coeffs
    }

    /// The verifier's evaluations at a random point `τ` (App. A.3):
    /// computes every `Aᵢ(τ), Bᵢ(τ), Cᵢ(τ)` via the zero-pinned Lagrange
    /// basis plus one sparse pass over the matrices, and `D(τ)`.
    pub fn evals_at(&self, tau: F) -> QapEvals<F> {
        let _span = zaatar_obs::time("qap.evals_at");
        let basis = self.domain.zero_pinned_coeffs_at(tau);
        let n_prime = self.var_map.num_unbound();
        let eval_row = |row: &SparsePoly<F>| row.dot(&basis);
        let unbound = |rows: &[SparsePoly<F>]| -> Vec<F> {
            rows[1..=n_prime].iter().map(eval_row).collect()
        };
        let bound = |rows: &[SparsePoly<F>]| -> Vec<F> {
            core::iter::once(&rows[0])
                .chain(rows[n_prime + 1..].iter())
                .map(eval_row)
                .collect()
        };
        QapEvals {
            qa: unbound(&self.a_rows),
            qb: unbound(&self.b_rows),
            qc: unbound(&self.c_rows),
            a_bound: bound(&self.a_rows),
            b_bound: bound(&self.b_rows),
            c_bound: bound(&self.c_rows),
            d_tau: self.domain.vanishing_at(tau),
        }
    }

    /// Evaluates `P_w(τ)` directly from a witness (test/diagnostic path):
    /// `(⟨qa,z⟩ + bound_a)·(⟨qb,z⟩ + bound_b) − (⟨qc,z⟩ + bound_c)`.
    pub fn p_at(&self, evals: &QapEvals<F>, witness: &QapWitness<F>) -> F {
        let a = F::dot(&evals.qa, &witness.z) + fold_bound(&evals.a_bound, &witness.io);
        let b = F::dot(&evals.qb, &witness.z) + fold_bound(&evals.b_bound, &witness.io);
        let c = F::dot(&evals.qc, &witness.z) + fold_bound(&evals.c_bound, &witness.io);
        a * b - c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zaatar_cc::{ginger_to_quad, Builder};
    use zaatar_field::{Field, F61};
    use zaatar_poly::ArithDomain;

    fn f(x: i64) -> F61 {
        F61::from_i64(x)
    }

    /// The quotient over a throwaway default-policy workspace.
    fn quotient<D: EvalDomain<F61>>(qap: &Qap<F61, D>, w: &QapWitness<F61>) -> Option<Vec<F61>> {
        qap.compute_h_policied(w, &mut ProverWorkspace::new())
            .expect("unlimited budget never refuses a lease")
    }

    /// A small computation: y = (a·b + 3)², via the full cc pipeline.
    fn small_system() -> (QuadSystem<F61>, Vec<Assignment<F61>>) {
        let mut b = Builder::<F61>::new();
        let x1 = b.alloc_input();
        let x2 = b.alloc_input();
        let prod = b.mul(&x1, &x2);
        let shifted = prod.add_constant(f(3));
        let sq = b.square(&shifted);
        b.bind_output(&sq);
        let (sys, solver) = b.finish();
        let t = ginger_to_quad(&sys);
        let mut assignments = Vec::new();
        for inputs in [[f(2), f(5)], [f(0), f(0)], [f(-1), f(7)]] {
            let asg = solver.solve(&inputs).unwrap();
            assignments.push(t.extend_assignment(&asg));
        }
        (t.system, assignments)
    }

    #[test]
    fn chunked_witness_values_match_flat_combination() {
        // Covering chunk, even split, ragged tail of 7 — all against
        // combine_rows_into over the materialised w.
        let (sys, asgs) = small_system();
        let qap = Qap::with_domain(&sys, Radix2Domain::new(sys.constraints.len() * 8));
        let n = qap.degree();
        let mut ws = ProverWorkspace::new();
        for asg in &asgs {
            let witness = qap.witness(asg);
            let w = witness.full();
            let a = qap.combine_rows_into(&qap.a_rows, &w, &mut ws);
            let b = qap.combine_rows_into(&qap.b_rows, &w, &mut ws);
            let c = qap.combine_rows_into(&qap.c_rows, &w, &mut ws);
            for chunk_len in [n, n / 2, 7] {
                let staged = qap
                    .witness_stage_streamed(&witness, chunk_len, &mut ws)
                    .expect("no budget");
                assert_eq!(staged.a_vals.to_vec(), a, "chunk_len={chunk_len}");
                assert_eq!(staged.b_vals.to_vec(), b, "chunk_len={chunk_len}");
                assert_eq!(staged.c_vals.to_vec(), c, "chunk_len={chunk_len}");
                assert!(qap.quotient_stage(staged, &mut ws).is_some());
            }
        }
    }

    #[test]
    fn honest_witness_divides() {
        let (sys, asgs) = small_system();
        let qap = Qap::new(&sys);
        for asg in &asgs {
            assert!(sys.is_satisfied(asg));
            let w = qap.witness(asg);
            assert!(quotient(&qap, &w).is_some());
        }
    }

    #[test]
    fn broken_witness_does_not_divide() {
        let (sys, asgs) = small_system();
        let qap = Qap::new(&sys);
        let mut w = qap.witness(&asgs[0]);
        w.z[0] += F61::ONE;
        assert!(quotient(&qap, &w).is_none());
    }

    #[test]
    fn wrong_output_does_not_divide() {
        let (sys, asgs) = small_system();
        let qap = Qap::new(&sys);
        let mut w = qap.witness(&asgs[0]);
        let last = w.io.len() - 1;
        w.io[last] += F61::ONE;
        assert!(quotient(&qap, &w).is_none());
    }

    #[test]
    fn divisibility_identity_at_random_point() {
        // D(τ)·H(τ) == P_w(τ) for honest witnesses (Claim A.1 forward).
        let (sys, asgs) = small_system();
        let qap = Qap::new(&sys);
        let w = qap.witness(&asgs[0]);
        let h = quotient(&qap, &w).unwrap();
        for tau_raw in [12345u64, 999, 0xabcdef01] {
            let tau = F61::from_u64(tau_raw);
            let evals = qap.evals_at(tau);
            let h_tau: F61 = h
                .iter()
                .rev()
                .fold(F61::ZERO, |acc, c| acc * tau + *c);
            assert_eq!(evals.d_tau * h_tau, qap.p_at(&evals, &w));
        }
    }

    #[test]
    fn cheating_h_fails_at_random_point() {
        let (sys, asgs) = small_system();
        let qap = Qap::new(&sys);
        let mut w = qap.witness(&asgs[0]);
        let last = w.io.len() - 1;
        w.io[last] += F61::ONE;
        let h = qap.compute_h_unchecked(&w);
        // With overwhelming probability over τ the check fails.
        let mut failures = 0;
        for tau_raw in 1..50u64 {
            let tau = F61::from_u64(tau_raw * 7919);
            let evals = qap.evals_at(tau);
            let h_tau: F61 = h.iter().rev().fold(F61::ZERO, |acc, c| acc * tau + *c);
            if evals.d_tau * h_tau != qap.p_at(&evals, &w) {
                failures += 1;
            }
        }
        assert!(failures >= 48, "only {failures}/49 checks failed");
    }

    #[test]
    fn arith_domain_agrees_with_radix2() {
        let (sys, asgs) = small_system();
        let q1 = Qap::new(&sys);
        let q2 = Qap::with_domain(&sys, ArithDomain::<F61>::new(sys.constraints.len()));
        let w1 = q1.witness(&asgs[0]);
        let w2 = q2.witness(&asgs[0]);
        assert!(quotient(&q1, &w1).is_some());
        assert!(quotient(&q2, &w2).is_some());
        // And both reject a broken witness.
        let mut wb = q2.witness(&asgs[0]);
        wb.z[0] += F61::ONE;
        assert!(quotient(&q2, &wb).is_none());
    }

    #[test]
    fn variable_ordering_unbound_first() {
        let (sys, _) = small_system();
        let qap = Qap::new(&sys);
        let m = qap.var_map();
        // All aux variables map below all io variables.
        let n_prime = m.num_unbound();
        for v in sys.vars.of_kind(Kind::Aux) {
            assert!(m.index(v) >= 1 && m.index(v) <= n_prime);
        }
        for v in sys.vars.of_kind(Kind::Input) {
            assert!(m.index(v) > n_prime);
        }
    }

    #[test]
    fn h_length_matches_figure3() {
        // |h| = |C| + 1 (padded degree here).
        let (sys, asgs) = small_system();
        let qap = Qap::new(&sys);
        let w = qap.witness(&asgs[0]);
        let h = quotient(&qap, &w).unwrap();
        assert_eq!(h.len(), qap.degree() + 1);
    }

    #[test]
    fn padding_constraints_are_benign() {
        // Domain larger than constraints: still complete and sound.
        let (sys, asgs) = small_system();
        let qap = Qap::with_domain(&sys, Radix2Domain::new(sys.constraints.len() * 4));
        let w = qap.witness(&asgs[1]);
        assert!(quotient(&qap, &w).is_some());
        let mut wb = w.clone();
        wb.z[1] += F61::ONE;
        assert!(quotient(&qap, &wb).is_none());
    }
}
