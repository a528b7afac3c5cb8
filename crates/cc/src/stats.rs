//! Encoding-size accounting: the quantities of Fig. 3 and Fig. 9.
//!
//! `|Z|` counts *unbound* variables only (inputs and outputs are bound by
//! `x` and `y`, §2.1); `K` is the number of additive terms across all
//! Ginger constraints; `K₂` is the number of **distinct** degree-2 terms.
//! From these, the proof-vector lengths follow:
//! `|u_ginger| = |Z| + |Z|²` and `|u_zaatar| = |Z_zaatar| + |C_zaatar|`.
//!
//! `K₂` here is the paper's: it sizes §4's mechanical rule in closed form
//! (`|C_g| + K₂`, `|Z_g| + K₂`) and drives the `K₂*` crossover. What
//! [`crate::transform::ginger_to_quad`] emits grows by `K₂′ ≤ K₂`
//! ([`crate::transform::QuadTransform::k2`]) instead.

use std::collections::HashSet;

use zaatar_field::Field;

use crate::ir::{GingerSystem, Kind, QuadSystem};

/// Size statistics for a compiled computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodingStats {
    /// Input variable count `|x|`.
    pub num_inputs: usize,
    /// Output variable count `|y|`.
    pub num_outputs: usize,
    /// Unbound variable count `|Z|`.
    pub num_unbound: usize,
    /// Constraint count `|C|`.
    pub num_constraints: usize,
    /// Additive terms across all constraints (`K`, Ginger only).
    pub k_terms: usize,
    /// Distinct degree-2 terms (`K₂`, Ginger only).
    pub k2_distinct: usize,
}

impl EncodingStats {
    /// Ginger's proof-vector length `|Z| + |Z|²` (§3).
    pub fn ginger_proof_len(&self) -> u128 {
        let z = self.num_unbound as u128;
        z + z * z
    }

    /// Zaatar's proof-vector length `|Z| + |C|` (§3), valid when these
    /// stats describe a quadratic-form system.
    pub fn zaatar_proof_len(&self) -> u128 {
        self.num_unbound as u128 + self.num_constraints as u128
    }

    /// The crossover threshold `K₂* = (|Z|² − |Z|)/2` of §4: Zaatar's
    /// proof is shorter than Ginger's iff `K₂ < K₂*`.
    pub fn k2_star(&self) -> u128 {
        let z = self.num_unbound as u128;
        (z * z - z) / 2
    }

    /// The hybrid encoding choice of §4's footnote ("the degenerate
    /// cases are detectable, so the compiler could simply choose to use
    /// Ginger over Zaatar", citing the Allspice hybrid \[57\]): prefer
    /// Zaatar's QAP encoding unless the computation sits in the
    /// degenerate dense-degree-2 regime where Ginger's proof vector is
    /// no longer.
    pub fn prefer_zaatar(&self) -> bool {
        (self.k2_distinct as u128) < self.k2_star()
    }
}

/// Computes statistics for a Ginger (general degree-2) system.
pub fn ginger_stats<F: Field>(sys: &GingerSystem<F>) -> EncodingStats {
    let mut k = 0usize;
    let mut distinct: HashSet<(usize, usize)> = HashSet::new();
    for c in &sys.constraints {
        k += c.quad.len() + c.linear.num_terms();
        for (i, j, _) in &c.quad {
            distinct.insert((i.0, j.0));
        }
    }
    EncodingStats {
        num_inputs: sys.vars.count(Kind::Input),
        num_outputs: sys.vars.count(Kind::Output),
        num_unbound: sys.vars.count(Kind::Aux),
        num_constraints: sys.constraints.len(),
        k_terms: k,
        k2_distinct: distinct.len(),
    }
}

/// Computes statistics for a quadratic-form system (the `K` fields are
/// counted over the expanded `p_A·p_B − p_C` representation's additive
/// terms, primarily informational here).
pub fn quad_stats<F: Field>(sys: &QuadSystem<F>) -> EncodingStats {
    let mut k = 0usize;
    for c in &sys.constraints {
        k += c.a.num_terms() + c.b.num_terms() + c.c.num_terms();
    }
    EncodingStats {
        num_inputs: sys.vars.count(Kind::Input),
        num_outputs: sys.vars.count(Kind::Output),
        num_unbound: sys.vars.count(Kind::Aux),
        num_constraints: sys.constraints.len(),
        k_terms: k,
        k2_distinct: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::transform::ginger_to_quad;
    use zaatar_field::{Field, F61};

    #[test]
    fn stats_track_fig3_relations() {
        // Build something with shared and distinct degree-2 terms.
        let mut b = Builder::<F61>::new();
        let xs = b.alloc_inputs(3);
        let p1 = b.mul(&xs[0], &xs[1]);
        let p2 = b.mul(&xs[1], &xs[2]);
        let s = b.sum_of_products(&[(xs[0].clone(), xs[0].clone()), (xs[2].clone(), xs[2].clone())]);
        let total = p1.add(&p2).add(&s);
        b.bind_output(&total);
        let (sys, solver) = b.finish();
        let gs = ginger_stats(&sys);
        let t = ginger_to_quad(&sys);
        let zs = quad_stats(&t.system);
        // Fig. 3 with K₂′: |Z_zaatar| = |Z_ginger| + K₂′ and
        // |C_zaatar| = |C_ginger| + K₂′. The two product gates are emitted
        // as written; x0² + x2² has no common variable and is replaced,
        // so K₂′ = 2 of the K₂ = 4 distinct terms.
        assert_eq!((gs.k2_distinct, t.k2()), (4, 2));
        assert_eq!(zs.num_unbound, gs.num_unbound + t.k2());
        assert_eq!(zs.num_constraints, gs.num_constraints + t.k2());
        // Same bound variables.
        assert_eq!(zs.num_inputs, gs.num_inputs);
        assert_eq!(zs.num_outputs, gs.num_outputs);
        // Same solutions: satisfied together, and a flip of any one
        // source variable is refused by both.
        let asg = solver.solve(&[2, 3, 5].map(F61::from_u64)).unwrap();
        assert!(sys.is_satisfied(&asg));
        assert!(t.system.is_satisfied(&t.extend_assignment(&asg)));
        for v in (0..sys.vars.len()).map(crate::ir::VarId) {
            let mut bad = asg.clone();
            bad.set(v, asg.get(v) + F61::ONE);
            assert!(!sys.is_satisfied(&bad));
            assert!(!t.system.is_satisfied(&t.extend_assignment(&bad)));
        }
    }

    #[test]
    fn proof_lengths() {
        let stats = EncodingStats {
            num_inputs: 2,
            num_outputs: 1,
            num_unbound: 10,
            num_constraints: 12,
            k_terms: 30,
            k2_distinct: 4,
        };
        assert_eq!(stats.ginger_proof_len(), 10 + 100);
        assert_eq!(stats.zaatar_proof_len(), 22);
        assert_eq!(stats.k2_star(), 45);
    }

    #[test]
    fn k_counts_additive_terms() {
        let mut b = Builder::<F61>::new();
        let xs = b.alloc_inputs(2);
        // One constraint: x0·x1 − v = 0 → 1 quad term + 1 linear term = 2.
        b.mul(&xs[0], &xs[1]);
        let (sys, _) = b.finish();
        let gs = ginger_stats(&sys);
        assert_eq!(gs.k_terms, 2);
        assert_eq!(gs.k2_distinct, 1);
    }
}
