//! Constraint intermediate representation.
//!
//! Two constraint formalisms appear in the paper:
//!
//! * **Ginger constraints** (§2.2): arbitrary degree-2 equations over `F` —
//!   a sum of degree-2 terms plus a linear part, equal to zero.
//! * **Zaatar constraints / quadratic form** (§4): each constraint is
//!   `p_A(W) · p_B(W) = p_C(W)` for degree-1 polynomials `p_A, p_B, p_C`
//!   (what later literature calls R1CS). The QAP of App. A.1 is built
//!   from this form.
//!
//! Variables are globally indexed [`VarId`]s partitioned into inputs `X`,
//! outputs `Y`, and unbound variables `Z` (§2.1).

use zaatar_field::Field;

/// A variable index, global within one constraint system.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub usize);

/// The role of a variable in the system (§2.1's `X`, `Y`, `Z`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Distinguished input variable (bound by the verifier's `x`).
    Input,
    /// Distinguished output variable (bound by the claimed `y`).
    Output,
    /// Unbound variable, part of the satisfying assignment `z`.
    Aux,
}

/// Registry of all variables in a system.
#[derive(Clone, Debug, Default)]
pub struct VarRegistry {
    kinds: Vec<Kind>,
}

impl VarRegistry {
    /// Allocates a new variable of the given kind.
    pub fn alloc(&mut self, kind: Kind) -> VarId {
        self.kinds.push(kind);
        VarId(self.kinds.len() - 1)
    }

    /// Total variable count.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Returns `true` if no variables exist.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The kind of a variable.
    pub fn kind(&self, v: VarId) -> Kind {
        self.kinds[v.0]
    }

    /// Count of variables of a kind.
    pub fn count(&self, kind: Kind) -> usize {
        self.kinds.iter().filter(|k| **k == kind).count()
    }

    /// All variables of a kind, in allocation order.
    pub fn of_kind(&self, kind: Kind) -> Vec<VarId> {
        self.kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == kind)
            .map(|(i, _)| VarId(i))
            .collect()
    }
}

/// A degree-1 polynomial over the variables: `Σ cᵢ·Wᵢ + constant`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinComb<F> {
    /// `(variable, coefficient)` pairs, sorted by variable, no zeros.
    terms: Vec<(VarId, F)>,
    constant: F,
}

impl<F: Field> Default for LinComb<F> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<F: Field> LinComb<F> {
    /// The zero combination.
    pub fn zero() -> Self {
        LinComb {
            terms: Vec::new(),
            constant: F::ZERO,
        }
    }

    /// A constant.
    pub fn constant(c: F) -> Self {
        LinComb {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// A single variable with coefficient one.
    pub fn var(v: VarId) -> Self {
        LinComb {
            terms: vec![(v, F::ONE)],
            constant: F::ZERO,
        }
    }

    /// `coeff · v`.
    pub fn scaled_var(v: VarId, coeff: F) -> Self {
        if coeff.is_zero() {
            Self::zero()
        } else {
            LinComb {
                terms: vec![(v, coeff)],
                constant: F::ZERO,
            }
        }
    }

    /// The `(variable, coefficient)` terms.
    pub fn terms(&self) -> &[(VarId, F)] {
        &self.terms
    }

    /// The constant term.
    pub fn constant_term(&self) -> F {
        self.constant
    }

    /// True if the combination has no variable terms.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// If this is exactly one variable with coefficient 1 and no constant,
    /// returns it.
    pub fn as_single_var(&self) -> Option<VarId> {
        if self.constant.is_zero() && self.terms.len() == 1 && self.terms[0].1 == F::ONE {
            Some(self.terms[0].0)
        } else {
            None
        }
    }

    /// Adds another combination.
    pub fn add(&self, other: &Self) -> Self {
        let mut out = Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut i, mut j) = (0, 0);
        while i < self.terms.len() || j < other.terms.len() {
            match (self.terms.get(i), other.terms.get(j)) {
                (Some(&(va, ca)), Some(&(vb, cb))) if va == vb => {
                    let c = ca + cb;
                    if !c.is_zero() {
                        out.push((va, c));
                    }
                    i += 1;
                    j += 1;
                }
                (Some(&(va, ca)), Some(&(vb, _))) if va < vb => {
                    out.push((va, ca));
                    i += 1;
                }
                (Some(_), Some(&(vb, cb))) => {
                    out.push((vb, cb));
                    j += 1;
                }
                (Some(&(va, ca)), None) => {
                    out.push((va, ca));
                    i += 1;
                }
                (None, Some(&(vb, cb))) => {
                    out.push((vb, cb));
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        LinComb {
            terms: out,
            constant: self.constant + other.constant,
        }
    }

    /// Subtracts another combination.
    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.scale(-F::ONE))
    }

    /// Scales by a constant.
    pub fn scale(&self, c: F) -> Self {
        if c.is_zero() {
            return Self::zero();
        }
        LinComb {
            terms: self.terms.iter().map(|(v, coeff)| (*v, *coeff * c)).collect(),
            constant: self.constant * c,
        }
    }

    /// Adds a constant.
    pub fn add_constant(&self, c: F) -> Self {
        let mut out = self.clone();
        out.constant += c;
        out
    }

    /// Evaluates under an assignment.
    pub fn eval(&self, assignment: &Assignment<F>) -> F {
        self.terms
            .iter()
            .map(|(v, c)| assignment.get(*v) * *c)
            .fold(self.constant, |acc, x| acc + x)
    }

    /// Number of additive terms, counting the constant if non-zero
    /// (the `K` accounting of Fig. 3 counts additive terms per
    /// constraint).
    pub fn num_terms(&self) -> usize {
        self.terms.len() + usize::from(!self.constant.is_zero())
    }
}

/// A general degree-2 ("Ginger") constraint:
/// `Σ qₖ·Wᵢₖ·Wⱼₖ + linear = 0`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GingerConstraint<F> {
    /// Degree-2 terms `(i, j, coeff)` with `i <= j`, no duplicates.
    pub quad: Vec<(VarId, VarId, F)>,
    /// The degree-1 part (including the constant).
    pub linear: LinComb<F>,
}

impl<F: Field> GingerConstraint<F> {
    /// A purely linear constraint `linear = 0`.
    pub fn linear(linear: LinComb<F>) -> Self {
        GingerConstraint {
            quad: Vec::new(),
            linear,
        }
    }

    /// Evaluates the constraint polynomial at an assignment (zero means
    /// satisfied).
    pub fn eval(&self, assignment: &Assignment<F>) -> F {
        let q: F = self
            .quad
            .iter()
            .map(|(i, j, c)| assignment.get(*i) * assignment.get(*j) * *c)
            .sum();
        q + self.linear.eval(assignment)
    }
}

/// A constraint system over general degree-2 constraints (§2.2).
#[derive(Clone, Debug, Default)]
pub struct GingerSystem<F> {
    /// Variable registry.
    pub vars: VarRegistry,
    /// The constraints (each `= 0`).
    pub constraints: Vec<GingerConstraint<F>>,
}

impl<F: Field> GingerSystem<F> {
    /// Returns `true` if `assignment` satisfies every constraint.
    pub fn is_satisfied(&self, assignment: &Assignment<F>) -> bool {
        self.constraints.iter().all(|c| c.eval(assignment).is_zero())
    }

    /// Index of the first violated constraint, if any.
    pub fn first_violation(&self, assignment: &Assignment<F>) -> Option<usize> {
        self.constraints
            .iter()
            .position(|c| !c.eval(assignment).is_zero())
    }
}

/// A quadratic-form ("Zaatar") constraint: `a · b = c` for degree-1 `a`,
/// `b`, `c` (§4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuadConstraint<F> {
    /// `p_A`.
    pub a: LinComb<F>,
    /// `p_B`.
    pub b: LinComb<F>,
    /// `p_C`.
    pub c: LinComb<F>,
}

impl<F: Field> QuadConstraint<F> {
    /// Returns `true` if the constraint holds under `assignment`.
    pub fn is_satisfied(&self, assignment: &Assignment<F>) -> bool {
        self.a.eval(assignment) * self.b.eval(assignment) == self.c.eval(assignment)
    }
}

/// A constraint system in quadratic form — the input to the QAP
/// construction (App. A.1).
#[derive(Clone, Debug, Default)]
pub struct QuadSystem<F> {
    /// Variable registry (shared indexing with any originating
    /// [`GingerSystem`]).
    pub vars: VarRegistry,
    /// The constraints.
    pub constraints: Vec<QuadConstraint<F>>,
}

impl<F: Field> QuadSystem<F> {
    /// Returns `true` if `assignment` satisfies every constraint.
    pub fn is_satisfied(&self, assignment: &Assignment<F>) -> bool {
        self.constraints.iter().all(|c| c.is_satisfied(assignment))
    }

    /// Index of the first violated constraint, if any.
    pub fn first_violation(&self, assignment: &Assignment<F>) -> Option<usize> {
        self.constraints
            .iter()
            .position(|c| !c.is_satisfied(assignment))
    }
}

/// A full assignment of values to variables, indexed by [`VarId`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment<F> {
    values: Vec<F>,
}

impl<F: Field> Assignment<F> {
    /// An all-zero assignment for `n` variables.
    pub fn zeroed(n: usize) -> Self {
        Assignment {
            values: vec![F::ZERO; n],
        }
    }

    /// Builds from a complete value vector.
    pub fn from_values(values: Vec<F>) -> Self {
        Assignment { values }
    }

    /// The value of a variable.
    pub fn get(&self, v: VarId) -> F {
        self.values[v.0]
    }

    /// Sets the value of a variable.
    pub fn set(&mut self, v: VarId, value: F) {
        self.values[v.0] = value;
    }

    /// Number of variables covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All values, by variable index.
    pub fn values(&self) -> &[F] {
        &self.values
    }

    /// Extracts the values of the given variables, in order.
    pub fn extract(&self, vars: &[VarId]) -> Vec<F> {
        vars.iter().map(|v| self.get(*v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zaatar_field::F61;

    fn f(x: u64) -> F61 {
        F61::from_u64(x)
    }

    #[test]
    fn registry_partitions() {
        let mut reg = VarRegistry::default();
        let x = reg.alloc(Kind::Input);
        let y = reg.alloc(Kind::Output);
        let z1 = reg.alloc(Kind::Aux);
        let z2 = reg.alloc(Kind::Aux);
        assert_eq!(reg.len(), 4);
        assert_eq!(reg.kind(x), Kind::Input);
        assert_eq!(reg.count(Kind::Aux), 2);
        assert_eq!(reg.of_kind(Kind::Aux), vec![z1, z2]);
        assert_eq!(reg.of_kind(Kind::Output), vec![y]);
    }

    #[test]
    fn lincomb_add_merges_and_cancels() {
        let v0 = VarId(0);
        let v1 = VarId(1);
        let a = LinComb::var(v0).add(&LinComb::scaled_var(v1, f(3)));
        let b = LinComb::scaled_var(v0, -F61::ONE).add(&LinComb::constant(f(5)));
        let s = a.add(&b);
        assert_eq!(s.terms(), &[(v1, f(3))]);
        assert_eq!(s.constant_term(), f(5));
    }

    #[test]
    fn lincomb_eval() {
        let mut asg = Assignment::zeroed(2);
        asg.set(VarId(0), f(10));
        asg.set(VarId(1), f(20));
        let lc = LinComb::var(VarId(0))
            .add(&LinComb::scaled_var(VarId(1), f(2)))
            .add_constant(f(7));
        assert_eq!(lc.eval(&asg), f(57));
    }

    #[test]
    fn lincomb_as_single_var() {
        assert_eq!(LinComb::<F61>::var(VarId(3)).as_single_var(), Some(VarId(3)));
        assert_eq!(LinComb::<F61>::scaled_var(VarId(3), f(2)).as_single_var(), None);
        assert_eq!(
            LinComb::<F61>::var(VarId(3)).add_constant(f(1)).as_single_var(),
            None
        );
    }

    #[test]
    fn lincomb_num_terms_counts_constant() {
        let lc = LinComb::var(VarId(0)).add_constant(f(1));
        assert_eq!(lc.num_terms(), 2);
        assert_eq!(LinComb::<F61>::var(VarId(0)).num_terms(), 1);
        assert_eq!(LinComb::<F61>::zero().num_terms(), 0);
    }

    #[test]
    fn ginger_constraint_eval() {
        // Z0·Z1 + Z2 − 6 = 0 at (2, 3, 0): 6 − 6 = 0? No — 2·3 + 0 − 6 = 0.
        let c = GingerConstraint {
            quad: vec![(VarId(0), VarId(1), F61::ONE)],
            linear: LinComb::var(VarId(2)).add_constant(-f(6)),
        };
        let mut asg = Assignment::zeroed(3);
        asg.set(VarId(0), f(2));
        asg.set(VarId(1), f(3));
        assert!(c.eval(&asg).is_zero());
        asg.set(VarId(2), f(1));
        assert!(!c.eval(&asg).is_zero());
    }

    #[test]
    fn quad_constraint_decrement_by_three() {
        // The paper's §2.1 example: decrement-by-3 is equivalent to
        // {X − Z = 0, Y − (Z − 3) = 0}; in quadratic form both are
        // (linear)·1 = 0.
        let mut vars = VarRegistry::default();
        let x = vars.alloc(Kind::Input);
        let y = vars.alloc(Kind::Output);
        let z = vars.alloc(Kind::Aux);
        let sys = QuadSystem {
            vars,
            constraints: vec![
                QuadConstraint {
                    a: LinComb::var(x).sub(&LinComb::var(z)),
                    b: LinComb::constant(F61::ONE),
                    c: LinComb::zero(),
                },
                QuadConstraint {
                    a: LinComb::var(y).sub(&LinComb::var(z).add_constant(-f(3))),
                    b: LinComb::constant(F61::ONE),
                    c: LinComb::zero(),
                },
            ],
        };
        let mut asg = Assignment::zeroed(3);
        asg.set(x, f(10));
        asg.set(y, f(7));
        asg.set(z, f(10));
        assert!(sys.is_satisfied(&asg));
        asg.set(y, f(8));
        assert_eq!(sys.first_violation(&asg), Some(1));
    }

    #[test]
    fn assignment_extract() {
        let mut asg = Assignment::zeroed(3);
        asg.set(VarId(2), f(9));
        assert_eq!(asg.extract(&[VarId(2), VarId(0)]), vec![f(9), F61::ZERO]);
    }
}
