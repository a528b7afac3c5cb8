//! The Ginger → Zaatar constraint transformation (§4).
//!
//! Zaatar requires every constraint in *quadratic form* `p_A·p_B = p_C`.
//! Given a set of Ginger (general degree-2) constraints, the paper's
//! compiler "retains all of the degree-1 terms and replaces all degree-2
//! terms with a new variable", then adds one product constraint per
//! **distinct** degree-2 term — `K₂` new variables and constraints
//! (Fig. 3).
//!
//! The rule here: a constraint `Σₖ cₖ·Zᵢₖ·Zⱼₖ + ℓ = 0` in which one
//! variable `Z_v` occurs in every degree-2 term is already a product of
//! two linear forms and is emitted as `(Σₖ cₖ·Z_otherₖ)·(Z_v) = −ℓ` with
//! no new variable; only the remaining constraints go through §4's
//! replacement. That deviates from §4 in size only: each constraint is
//! equisatisfiable with its source under the same values for every shared
//! variable, and Fig. 3's `K₂` becomes `K₂′ ≤ K₂` — the distinct terms of
//! the constraints that were replaced ([`QuadTransform::k2`]), so
//! `|Z_zaatar| = |Z_ginger| + K₂′` and `|C_zaatar| = |C_ginger| + K₂′`.

use std::collections::HashMap;

use zaatar_field::Field;

use crate::ir::{
    Assignment, GingerSystem, Kind, LinComb, QuadConstraint, QuadSystem, VarId,
};

/// The result of the transformation: the quadratic-form system plus the
/// bookkeeping needed to extend witnesses.
#[derive(Clone, Debug)]
pub struct QuadTransform<F> {
    /// The quadratic-form ("Zaatar") system.
    pub system: QuadSystem<F>,
    /// For each introduced variable, the degree-2 term it replaces.
    pub product_vars: Vec<(VarId, (VarId, VarId))>,
}

impl<F: Field> QuadTransform<F> {
    /// Extends a satisfying assignment of the source Ginger system with
    /// values for the introduced product variables.
    pub fn extend_assignment(&self, ginger_assignment: &Assignment<F>) -> Assignment<F> {
        let mut values = ginger_assignment.values().to_vec();
        values.resize(self.system.vars.len(), F::ZERO);
        let mut out = Assignment::from_values(values);
        for (v, (i, j)) in &self.product_vars {
            let prod = out.get(*i) * out.get(*j);
            out.set(*v, prod);
        }
        out
    }

    /// The number of product variables introduced (`K₂′`): the distinct
    /// degree-2 terms of the constraints that had no common factor. At
    /// most the `K₂` of Fig. 3, which `ginger_stats` reports.
    pub fn k2(&self) -> usize {
        self.product_vars.len()
    }
}

/// If one variable occurs in every degree-2 term, returns the linear form
/// that multiplies it and the variable:
/// `Σₖ cₖ·Zᵢₖ·Zⱼₖ = (Σₖ cₖ·Z_otherₖ)·Z_v`. The candidates are the two
/// variables of the first term, second position first.
fn common_factor<F: Field>(quad: &[(VarId, VarId, F)]) -> Option<(LinComb<F>, VarId)> {
    let &(i0, j0, _) = quad.first()?;
    let v = [j0, i0]
        .into_iter()
        .find(|v| quad.iter().all(|(i, j, _)| i == v || j == v))?;
    let cofactor = quad.iter().fold(LinComb::zero(), |acc, (i, j, coeff)| {
        acc.add(&LinComb::scaled_var(if *j == v { *i } else { *j }, *coeff))
    });
    Some((cofactor, v))
}

/// Transforms a Ginger system into quadratic form. A constraint whose
/// degree-2 terms share a variable is emitted as the product it already
/// is (`c·Z₁Z₂ + ℓ = 0` becomes `(c·Z₁)·(Z₂) = −ℓ`); any other goes
/// through §4's replacement, one product variable per distinct term
/// shared across constraints (the worked example there:
/// `{3·Z₁Z₂ + 2·Z₃Z₄ + Z₅ − Z₆ = 0}` becomes
/// `{(3·Z′₁ + 2·Z′₂ + Z₅)·(1) = Z₆, Z₁Z₂ = Z′₁, Z₃Z₄ = Z′₂}`).
pub fn ginger_to_quad<F: Field>(sys: &GingerSystem<F>) -> QuadTransform<F> {
    let mut vars = sys.vars.clone();
    let mut term_var: HashMap<(VarId, VarId), VarId> = HashMap::new();
    let mut product_vars = Vec::new();
    let mut constraints = Vec::new();

    for c in &sys.constraints {
        if let Some((cofactor, v)) = common_factor(&c.quad) {
            constraints.push(QuadConstraint {
                a: cofactor,
                b: LinComb::var(v),
                c: c.linear.scale(-F::ONE),
            });
            continue;
        }
        let mut replaced = c.linear.clone();
        for (i, j, coeff) in &c.quad {
            let v = *term_var.entry((*i, *j)).or_insert_with(|| {
                let v = vars.alloc(Kind::Aux);
                product_vars.push((v, (*i, *j)));
                v
            });
            replaced = replaced.add(&LinComb::scaled_var(v, *coeff));
        }
        // (degree-1 expression) · 1 = 0.
        constraints.push(QuadConstraint {
            a: replaced,
            b: LinComb::constant(F::ONE),
            c: LinComb::zero(),
        });
    }
    // One product constraint per distinct replaced term: Zᵢ·Zⱼ = Z′.
    for (v, (i, j)) in &product_vars {
        constraints.push(QuadConstraint {
            a: LinComb::var(*i),
            b: LinComb::var(*j),
            c: LinComb::var(*v),
        });
    }

    QuadTransform {
        system: QuadSystem { vars, constraints },
        product_vars,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::ir::{GingerConstraint, VarRegistry};
    use zaatar_field::{Field, F61};

    fn f(x: i64) -> F61 {
        F61::from_i64(x)
    }

    /// One constraint over `n` fresh aux variables.
    fn one_constraint(n: usize, quad: &[(usize, usize, i64)], linear: LinComb<F61>) -> GingerSystem<F61> {
        let mut vars = VarRegistry::default();
        for _ in 0..n {
            vars.alloc(Kind::Aux);
        }
        let quad = quad.iter().map(|&(i, j, c)| (VarId(i), VarId(j), f(c))).collect();
        GingerSystem {
            vars,
            constraints: vec![GingerConstraint { quad, linear }],
        }
    }

    /// `Σ cᵢ·zᵢ` over `(variable, coefficient)` pairs.
    fn lc(terms: &[(usize, i64)]) -> LinComb<F61> {
        terms.iter().fold(LinComb::zero(), |acc, &(v, c)| {
            acc.add(&LinComb::scaled_var(VarId(v), f(c)))
        })
    }

    /// The §4 worked example: 3·Z₁Z₂ + 2·Z₃Z₄ + Z₅ − Z₆ = 0.
    fn section4_example() -> GingerSystem<F61> {
        one_constraint(6, &[(0, 1, 3), (2, 3, 2)], lc(&[(4, 1), (5, -1)]))
    }

    #[test]
    fn worked_example_counts() {
        let sys = section4_example();
        let t = ginger_to_quad(&sys);
        // 1 original constraint + K₂ = 2 product constraints.
        assert_eq!(t.k2(), 2);
        assert_eq!(t.system.constraints.len(), 3);
        assert_eq!(t.system.vars.len(), 8);
    }

    #[test]
    fn worked_example_equisatisfiable() {
        let sys = section4_example();
        let t = ginger_to_quad(&sys);
        // 3·(2·7) + 2·(3·4) + z5 − z6 = 0 → z6 = 42 + 24 + z5.
        let mut asg = Assignment::from_values(vec![f(2), f(7), f(3), f(4), f(10), f(76)]);
        assert!(sys.is_satisfied(&asg));
        let extended = t.extend_assignment(&asg);
        assert!(t.system.is_satisfied(&extended));
        // Break the assignment: both must reject.
        asg.set(VarId(5), f(77));
        assert!(!sys.is_satisfied(&asg));
        let broken = t.extend_assignment(&asg);
        assert!(!t.system.is_satisfied(&broken));
    }

    /// The system's one constraint comes out as `a·b = c` with no new
    /// variable, and agrees with its source on every assignment tried.
    fn assert_emitted_directly(sys: &GingerSystem<F61>, a: LinComb<F61>, b: usize, c: LinComb<F61>) {
        let t = ginger_to_quad(sys);
        assert_eq!(t.k2(), 0);
        assert_eq!(t.system.vars.len(), sys.vars.len());
        assert_eq!(
            t.system.constraints,
            vec![QuadConstraint { a, b: LinComb::var(VarId(b)), c }]
        );
        // Solve the source for its last variable (linear, coefficient −1
        // in every caller), then flip each variable in turn.
        let n = sys.vars.len();
        let mut asg = Assignment::from_values((0..n as i64).map(|k| f(2 * k + 3)).collect());
        asg.set(VarId(n - 1), F61::ZERO);
        let residual = sys.constraints[0].eval(&asg);
        asg.set(VarId(n - 1), residual);
        assert!(sys.is_satisfied(&asg));
        assert!(t.system.is_satisfied(&t.extend_assignment(&asg)));
        for v in 0..n {
            let mut bad = asg.clone();
            bad.set(VarId(v), asg.get(VarId(v)) + F61::ONE);
            assert!(!sys.is_satisfied(&bad), "flip of z{v} keeps the source satisfied");
            assert!(!t.system.is_satisfied(&t.extend_assignment(&bad)), "flip of z{v} accepted");
        }
    }

    #[test]
    fn single_product_is_emitted_as_written() {
        // 4·z0·z1 + 9 − z2 = 0  →  (4·z0)·(z1) = z2 − 9.
        let sys = one_constraint(3, &[(0, 1, 4)], lc(&[(2, -1)]).add_constant(f(9)));
        assert_emitted_directly(&sys, lc(&[(0, 4)]), 1, lc(&[(2, 1)]).add_constant(f(-9)));
        // The builder's product gate is that shape: no growth at all.
        let mut b = Builder::<F61>::new();
        let x = b.alloc_input();
        let y = b.alloc_input();
        let xy = b.mul(&x, &y);
        b.bind_output(&xy);
        let (sys, solver) = b.finish();
        let t = ginger_to_quad(&sys);
        assert_eq!(t.k2(), 0);
        assert_eq!(t.system.constraints.len(), sys.constraints.len());
        let asg = solver.solve(&[f(6), f(7)]).unwrap();
        assert_eq!(t.extend_assignment(&asg).len(), asg.len());
        assert!(t.system.is_satisfied(&t.extend_assignment(&asg)));
    }

    #[test]
    fn common_factor_in_second_position() {
        // 3·z0·z2 + 5·z1·z2 − z3 = 0  →  (3·z0 + 5·z1)·(z2) = z3.
        let sys = one_constraint(4, &[(0, 2, 3), (1, 2, 5)], lc(&[(3, -1)]));
        assert_emitted_directly(&sys, lc(&[(0, 3), (1, 5)]), 2, lc(&[(3, 1)]));
    }

    #[test]
    fn common_factor_in_first_position() {
        // 3·z0·z1 + 5·z0·z2 − z3 = 0: z1 is not shared, z0 is.
        let sys = one_constraint(4, &[(0, 1, 3), (0, 2, 5)], lc(&[(3, -1)]));
        assert_emitted_directly(&sys, lc(&[(1, 3), (2, 5)]), 0, lc(&[(3, 1)]));
        // The shared variable may sit first in one term and second in the
        // next: 3·z1·z2 + 5·z0·z1 − z3 = 0  →  (5·z0 + 3·z2)·(z1) = z3.
        let sys = one_constraint(4, &[(1, 2, 3), (0, 1, 5)], lc(&[(3, -1)]));
        assert_emitted_directly(&sys, lc(&[(0, 5), (2, 3)]), 1, lc(&[(3, 1)]));
    }

    #[test]
    fn squared_term_shares_its_variable() {
        // 2·z0² + 7·z0·z1 − z2 = 0  →  (2·z0 + 7·z1)·(z0) = z2.
        let sys = one_constraint(3, &[(0, 0, 2), (0, 1, 7)], lc(&[(2, -1)]));
        assert_emitted_directly(&sys, lc(&[(0, 2), (1, 7)]), 0, lc(&[(2, 1)]));
    }

    #[test]
    fn linear_constraint_unchanged() {
        // No degree-2 part: (ℓ)·(1) = 0, as §4 has it.
        let linear = lc(&[(0, 1), (1, 2)]).add_constant(f(-5));
        let sys = one_constraint(2, &[], linear.clone());
        let t = ginger_to_quad(&sys);
        assert_eq!(t.k2(), 0);
        assert_eq!(
            t.system.constraints,
            vec![QuadConstraint {
                a: linear,
                b: LinComb::constant(f(1)),
                c: LinComb::zero(),
            }]
        );
    }

    #[test]
    fn distinct_terms_are_shared_across_constraints() {
        // Neither constraint has a common variable, so both are replaced;
        // Z0·Z1 occurs in both and must get one product variable.
        let mut sys = one_constraint(6, &[(0, 1, 1), (2, 3, 1)], LinComb::constant(f(-18)));
        sys.constraints.push(GingerConstraint {
            quad: vec![(VarId(0), VarId(1), f(2)), (VarId(4), VarId(5), f(1))],
            linear: LinComb::constant(f(-42)),
        });
        let t = ginger_to_quad(&sys);
        assert_eq!(t.k2(), 3);
        assert_eq!(t.system.constraints.len(), 2 + 3);
        assert_eq!(t.system.vars.len(), 6 + 3);
        // 2·3 + 3·4 = 18 and 2·(2·3) + 5·6 = 42.
        let asg = Assignment::from_values(vec![f(2), f(3), f(3), f(4), f(5), f(6)]);
        assert!(sys.is_satisfied(&asg));
        assert!(t.system.is_satisfied(&t.extend_assignment(&asg)));
    }

    #[test]
    fn builder_output_survives_transform() {
        // Full pipeline: gadget build → solve → transform → extend → check.
        let mut b = Builder::<F61>::new();
        let x = b.alloc_input();
        let y = b.alloc_input();
        let xy = b.mul(&x, &y);
        let lt = b.less_than(&x, &y, 8);
        let sel = b.mux(&lt, &xy, &x);
        b.bind_output(&sel);
        let (sys, solver) = b.finish();
        let t = ginger_to_quad(&sys);
        for inputs in [[f(3), f(9)], [f(9), f(3)]] {
            let asg = solver.solve(&inputs).unwrap();
            assert!(sys.is_satisfied(&asg));
            let ext = t.extend_assignment(&asg);
            assert!(t.system.is_satisfied(&ext));
        }
    }

    #[test]
    fn unsatisfying_assignment_rejected_after_transform() {
        let mut b = Builder::<F61>::new();
        let x = b.alloc_input();
        let sq = b.square(&x);
        b.bind_output(&sq);
        let (sys, solver) = b.finish();
        let t = ginger_to_quad(&sys);
        let mut asg = solver.solve(&[f(5)]).unwrap();
        let out = solver.outputs()[0];
        asg.set(out, f(26));
        assert!(!sys.is_satisfied(&asg));
        assert!(!t.system.is_satisfied(&t.extend_assignment(&asg)));
    }
}

/// Io-linearization: rewrites a Ginger system so that input/output
/// variables never appear inside degree-2 terms, by introducing one aux
/// copy variable (`Z_x = X`) per offending bound variable.
///
/// The classical linear PCP (§2.2) needs this: its batched circuit
/// queries `γ₂, γ₁` must not depend on the instance's `(x, y)` — only the
/// scalar `γ₀`, which the verifier computes per instance, may. Zaatar's
/// QAP does not need the pass (its bound rows are handled in the
/// divisibility check), but applying it to both keeps the Fig. 9
/// encoding comparisons apples-to-apples.
#[derive(Clone, Debug)]
pub struct IoLinearize<F> {
    /// The rewritten system.
    pub system: GingerSystem<F>,
    /// `(copy aux var, original bound var)` pairs.
    pub copies: Vec<(VarId, VarId)>,
}

impl<F: Field> IoLinearize<F> {
    /// Extends an assignment of the original system with the copy
    /// variables' values.
    pub fn extend_assignment(&self, original: &Assignment<F>) -> Assignment<F> {
        let mut values = original.values().to_vec();
        values.resize(self.system.vars.len(), F::ZERO);
        let mut out = Assignment::from_values(values);
        for (copy, io) in &self.copies {
            let v = out.get(*io);
            out.set(*copy, v);
        }
        out
    }
}

/// Applies io-linearization (see [`IoLinearize`]).
pub fn linearize_io<F: Field>(sys: &GingerSystem<F>) -> IoLinearize<F> {
    use crate::ir::GingerConstraint;
    let mut vars = sys.vars.clone();
    let mut copy_of: HashMap<VarId, VarId> = HashMap::new();
    let mut copies = Vec::new();
    let mut constraints = Vec::new();
    let map_var = |v: VarId,
                       vars: &mut crate::ir::VarRegistry,
                       copies: &mut Vec<(VarId, VarId)>,
                       copy_of: &mut HashMap<VarId, VarId>|
     -> VarId {
        if sys.vars.kind(v) == Kind::Aux {
            return v;
        }
        *copy_of.entry(v).or_insert_with(|| {
            let c = vars.alloc(Kind::Aux);
            copies.push((c, v));
            c
        })
    };
    for c in &sys.constraints {
        let quad = c
            .quad
            .iter()
            .map(|(i, j, coeff)| {
                (
                    map_var(*i, &mut vars, &mut copies, &mut copy_of),
                    map_var(*j, &mut vars, &mut copies, &mut copy_of),
                    *coeff,
                )
            })
            .collect();
        constraints.push(GingerConstraint {
            quad,
            linear: c.linear.clone(),
        });
    }
    // Copy constraints: Z_x − X = 0.
    for (copy, io) in &copies {
        constraints.push(GingerConstraint::linear(
            LinComb::var(*copy).sub(&LinComb::var(*io)),
        ));
    }
    IoLinearize {
        system: GingerSystem { vars, constraints },
        copies,
    }
}

#[cfg(test)]
mod linearize_tests {
    use super::*;
    use crate::builder::Builder;
    use zaatar_field::{Field, F61};

    fn f(x: i64) -> F61 {
        F61::from_i64(x)
    }

    #[test]
    fn io_vars_leave_quadratic_terms() {
        let mut b = Builder::<F61>::new();
        let x = b.alloc_input();
        let y = b.alloc_input();
        let p = b.mul(&x, &y);
        b.bind_output(&p);
        let (sys, solver) = b.finish();
        let lin = linearize_io(&sys);
        for c in &lin.system.constraints {
            for (i, j, _) in &c.quad {
                assert_eq!(lin.system.vars.kind(*i), Kind::Aux);
                assert_eq!(lin.system.vars.kind(*j), Kind::Aux);
            }
        }
        // Two inputs in quad positions → two copies, two copy constraints.
        assert_eq!(lin.copies.len(), 2);
        assert_eq!(lin.system.constraints.len(), sys.constraints.len() + 2);
        // Equisatisfiability.
        let asg = solver.solve(&[f(6), f(7)]).unwrap();
        let ext = lin.extend_assignment(&asg);
        assert!(lin.system.is_satisfied(&ext));
        let mut bad = asg.clone();
        bad.set(solver.outputs()[0], f(41));
        assert!(!lin.system.is_satisfied(&lin.extend_assignment(&bad)));
    }

    #[test]
    fn aux_only_systems_unchanged() {
        let mut b = Builder::<F61>::new();
        let x = b.alloc_input();
        let t = b.mul(&x.add_constant(f(1)), &x.add_constant(f(2)));
        // t is aux; squaring it involves only aux vars.
        let t2 = b.square(&t);
        b.bind_output(&t2);
        let (sys, _) = b.finish();
        let lin = linearize_io(&sys);
        // x appears in the first mul's quad terms, so one copy; the
        // second square is aux-aux.
        assert_eq!(lin.copies.len(), 1);
        assert_eq!(lin.system.constraints.len(), sys.constraints.len() + 1);
    }
}
