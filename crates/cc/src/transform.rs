//! The Ginger → Zaatar constraint transformation (§4).
//!
//! Zaatar requires every constraint in *quadratic form* `p_A·p_B = p_C`.
//! Given a set of Ginger (general degree-2) constraints, the paper's
//! compiler "retains all of the degree-1 terms and replaces all degree-2
//! terms with a new variable", then adds one product constraint per
//! **distinct** degree-2 term. The number of distinct terms is the `K₂`
//! of Fig. 3: `|Z_zaatar| = |Z_ginger| + K₂` and
//! `|C_zaatar| = |C_ginger| + K₂`.

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

    /// The number of distinct degree-2 terms replaced (`K₂` of Fig. 3).
    pub fn k2(&self) -> usize {
        self.product_vars.len()
    }
}

/// Transforms a Ginger system into quadratic form, exactly as §4
/// describes (the worked example there:
/// `{3·Z₁Z₂ + 2·Z₃Z₄ + Z₅ − Z₆ = 0}` becomes
/// `{(3·Z′₁ + 2·Z′₂ + Z₅)·(1) = Z₆, Z₁Z₂ = Z′₁, Z₃Z₄ = Z′₂}`).
pub fn ginger_to_quad<F: Field>(sys: &GingerSystem<F>) -> QuadTransform<F> {
    transform(sys, false)
}

/// A lightly optimized variant used for ablation: Ginger constraints whose
/// quadratic part is a *single* degree-2 term are emitted directly as
/// `(coeff·Zᵢ)·(Zⱼ) = −linear` without a new variable. Constraints with
/// several degree-2 terms still go through the §4 replacement.
///
/// This is *not* the paper's transformation — it exists so the benches can
/// measure how much of Zaatar's constraint growth the mechanical rule
/// costs (DESIGN.md §5, "degenerate `K₂` regime").
pub fn ginger_to_quad_optimized<F: Field>(sys: &GingerSystem<F>) -> QuadTransform<F> {
    transform(sys, true)
}

/// The §4 replacement; with `direct_single_products`, a constraint with
/// exactly one degree-2 term is emitted as is (it is already in
/// quadratic form) instead of through a product variable.
fn transform<F: Field>(sys: &GingerSystem<F>, direct_single_products: bool) -> QuadTransform<F> {
    let mut vars = sys.vars.clone();
    let mut term_var: HashMap<(VarId, VarId), VarId> = HashMap::new();
    let mut product_vars = Vec::new();
    let mut constraints = Vec::new();

    for c in &sys.constraints {
        if direct_single_products && c.quad.len() == 1 {
            let (i, j, coeff) = c.quad[0];
            constraints.push(QuadConstraint {
                a: LinComb::scaled_var(i, coeff),
                b: LinComb::var(j),
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
    // One product constraint per distinct degree-2 term: Zᵢ·Zⱼ = Z′.
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

    /// Builds the §4 worked example directly.
    fn section4_example() -> GingerSystem<F61> {
        let mut vars = VarRegistry::default();
        let zs: Vec<VarId> = (0..6).map(|_| vars.alloc(Kind::Aux)).collect();
        let linear = LinComb::var(zs[4]).sub(&LinComb::var(zs[5]));
        GingerSystem {
            vars,
            constraints: vec![GingerConstraint {
                quad: vec![(zs[0], zs[1], f(3)), (zs[2], zs[3], f(2))],
                linear,
            }],
        }
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

    #[test]
    fn distinct_terms_are_shared_across_constraints() {
        // Two constraints both using Z0·Z1 must share one product var.
        let mut vars = VarRegistry::default();
        let z0 = vars.alloc(Kind::Aux);
        let z1 = vars.alloc(Kind::Aux);
        let sys = GingerSystem::<F61> {
            vars,
            constraints: vec![
                GingerConstraint {
                    quad: vec![(z0, z1, f(1))],
                    linear: LinComb::constant(f(-6)),
                },
                GingerConstraint {
                    quad: vec![(z0, z1, f(2))],
                    linear: LinComb::constant(f(-12)),
                },
            ],
        };
        let t = ginger_to_quad(&sys);
        assert_eq!(t.k2(), 1);
        assert_eq!(t.system.constraints.len(), 3);
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
    fn optimized_variant_skips_single_products() {
        let mut b = Builder::<F61>::new();
        let x = b.alloc_input();
        let y = b.alloc_input();
        let xy = b.mul(&x, &y);
        b.bind_output(&xy);
        let (sys, solver) = b.finish();
        let mech = ginger_to_quad(&sys);
        let opt = ginger_to_quad_optimized(&sys);
        // Mechanical: mul constraint has one quad term → +1 var, +1 constraint.
        assert_eq!(mech.k2(), 1);
        assert_eq!(opt.k2(), 0);
        assert_eq!(opt.system.constraints.len(), sys.constraints.len());
        let asg = solver.solve(&[f(6), f(7)]).unwrap();
        assert!(opt.extend_assignment(&asg).len() == asg.len());
        assert!(opt.system.is_satisfied(&opt.extend_assignment(&asg)));
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
