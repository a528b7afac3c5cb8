//! Evaluation domains: the distinguished points `σ₁, …, σ_|C|` at which the
//! QAP's variable polynomials are defined (App. A.1).
//!
//! The protocol permits *any* distinct non-zero `σⱼ` (App. A.3). Two
//! instantiations are provided:
//!
//! * [`Radix2Domain`] — a multiplicative subgroup `{ωʲ}` of power-of-two
//!   order. Interpolation/evaluation are plain NTTs and the divisor
//!   polynomial is `tⁿ − 1`, whose coefficient-form division is `O(n)`.
//!   This is the fast path used by the prover.
//! * [`ArithDomain`] — the paper's literal choice `σⱼ = 1, 2, …, |C|`
//!   (an arithmetic progression, §A.3), with the incremental barycentric
//!   weight recurrence the paper describes. Interpolation uses the
//!   subproduct-tree machinery of [`crate::fast`].
//!
//! Both also provide the *zero-pinned* variants required by the QAP
//! construction, which additionally fixes `f(0) = 0` (App. A.1 requires
//! `Aᵢ(0) = Bᵢ(0) = Cᵢ(0) = 0`), raising the interpolant degree to `n`.

use zaatar_field::{batch_inverse, PrimeField};
use zaatar_mem::{BudgetError, ChunkedVec, Scratch};

use crate::dense::DensePoly;
use crate::fast::ProductTree;
use crate::fft;

/// An evaluation domain of `n` distinct non-zero points.
pub trait EvalDomain<F: PrimeField>: Clone + Send + Sync {
    /// Number of points.
    fn size(&self) -> usize;

    /// The `j`-th point (0-based).
    fn element(&self, j: usize) -> F;

    /// All points, in order.
    fn elements(&self) -> Vec<F> {
        (0..self.size()).map(|j| self.element(j)).collect()
    }

    /// Evaluates the divisor polynomial `D(t) = ∏ (t − σⱼ)` at `tau`.
    fn vanishing_at(&self, tau: F) -> F;

    /// The divisor polynomial in coefficient form.
    fn vanishing_poly(&self) -> DensePoly<F>;

    /// Interpolates the unique degree-`< n` polynomial through
    /// `(σⱼ, evals[j])`.
    fn interpolate(&self, evals: &[F]) -> DensePoly<F>;

    /// Evaluates `poly` at every domain point.
    fn evaluate(&self, poly: &DensePoly<F>) -> Vec<F>;

    /// The Lagrange basis evaluated at `tau`: returns `(ℓ₀(τ), …, ℓ_{n−1}(τ))`
    /// in `O(n)` field operations (barycentric form, one batched inversion).
    fn lagrange_coeffs_at(&self, tau: F) -> Vec<F>;

    /// Divides `poly` by the vanishing polynomial, returning
    /// `(quotient, remainder)`.
    fn divide_by_vanishing(&self, poly: &DensePoly<F>) -> (DensePoly<F>, DensePoly<F>);

    /// Interpolates with the extra condition `f(0) = 0`, producing the
    /// degree-`≤ n` polynomial with `f(σⱼ) = evals[j]` (App. A.1).
    fn interpolate_zero_pinned(&self, evals: &[F]) -> DensePoly<F> {
        // f(t) = t·g(t) where g interpolates evals[j]/σⱼ.
        let mut scaled: Vec<F> = self.elements();
        batch_inverse(&mut scaled);
        for (s, e) in scaled.iter_mut().zip(evals.iter()) {
            *s *= *e;
        }
        let g = self.interpolate(&scaled);
        let mut coeffs = g.into_coeffs();
        coeffs.insert(0, F::ZERO);
        DensePoly::from_coeffs(coeffs)
    }

    /// The zero-pinned basis evaluated at `tau`: `Lⱼ(τ) = ℓⱼ(τ)·τ/σⱼ`,
    /// satisfying `Lⱼ(0) = 0` and `Lⱼ(σₖ) = δⱼₖ`.
    fn zero_pinned_coeffs_at(&self, tau: F) -> Vec<F> {
        let mut inv_points = self.elements();
        batch_inverse(&mut inv_points);
        self.lagrange_coeffs_at(tau)
            .into_iter()
            .zip(inv_points)
            .map(|(l, si)| l * tau * si)
            .collect()
    }

    /// The prover's quotient kernel (App. A.3): given the values of the
    /// witness combinations `A`, `B`, `C` at the domain points, computes
    /// `H = (Â·B̂ − Ĉ)/D` where `Â, B̂, Ĉ` are the zero-pinned
    /// interpolants, or returns `None` when `D` does not divide `P_w`
    /// (i.e. the witness does not satisfy the constraints).
    ///
    /// Divisibility is decided *before* the quotient is computed: since
    /// the divisor has a simple root at every domain point, `D | P_w` iff
    /// `a_vals[j]·b_vals[j] == c_vals[j]` at every point — an `O(n)`
    /// check that no fast-division rewrite can weaken.
    fn quotient_zero_pinned(
        &self,
        a_vals: &[F],
        b_vals: &[F],
        c_vals: &[F],
    ) -> Option<DensePoly<F>> {
        for j in 0..self.size() {
            if a_vals[j] * b_vals[j] != c_vals[j] {
                return None;
            }
        }
        let a_poly = self.interpolate_zero_pinned(a_vals);
        let b_poly = self.interpolate_zero_pinned(b_vals);
        let c_poly = self.interpolate_zero_pinned(c_vals);
        let p = &(&a_poly * &b_poly) - &c_poly;
        let (h, rem) = self.divide_by_vanishing(&p);
        debug_assert!(rem.is_zero(), "pointwise check guarantees exactness");
        Some(h)
    }

    /// [`EvalDomain::quotient_zero_pinned`] returning exactly the
    /// `size() + 1` coefficients of `H` (zero-padded) — the flat-slice
    /// form of the generic route, and the differential reference the
    /// chunk-draining kernel is tested against. No domain overrides it.
    fn quotient_zero_pinned_scratch(
        &self,
        a_vals: &[F],
        b_vals: &[F],
        c_vals: &[F],
        scratch: &mut Scratch<F>,
    ) -> Option<Vec<F>> {
        let _ = scratch;
        let h = self.quotient_zero_pinned(a_vals, b_vals, c_vals)?;
        let mut coeffs = h.into_coeffs();
        coeffs.resize(self.size() + 1, F::ZERO);
        Some(coeffs)
    }

    /// The quotient kernel the prover runs: consumes *chunked*
    /// witness-combination values, returning each chunk to the pool as
    /// soon as it is absorbed. Coefficients are bit-identical to
    /// [`EvalDomain::quotient_zero_pinned_scratch`] (field arithmetic is
    /// exact); what differs is speed and peak residency. Budget-limited
    /// pools reject via [`BudgetError`] with every leased chunk
    /// returned first.
    ///
    /// The default implementation flattens and delegates — correct for
    /// any domain, no residency win. [`Radix2Domain`] overrides it with
    /// a coset kernel that holds at most two size-`2n` buffers at once.
    fn quotient_zero_pinned_streamed(
        &self,
        a_vals: ChunkedVec<F>,
        b_vals: ChunkedVec<F>,
        c_vals: ChunkedVec<F>,
        scratch: &mut Scratch<F>,
    ) -> Result<Option<Vec<F>>, BudgetError> {
        let a = a_vals.to_vec();
        a_vals.release(scratch);
        let b = b_vals.to_vec();
        b_vals.release(scratch);
        let c = c_vals.to_vec();
        c_vals.release(scratch);
        Ok(self.quotient_zero_pinned_scratch(&a, &b, &c, scratch))
    }
}

/// A multiplicative-subgroup domain `{ωʲ : 0 ≤ j < n}` with `n = 2ᵏ`.
#[derive(Clone, Debug)]
pub struct Radix2Domain<F> {
    log_size: u32,
    size: usize,
    group_gen: F,
    group_gen_inv: F,
}

impl<F: PrimeField> Radix2Domain<F> {
    /// Builds a domain of the smallest power-of-two size `>= min_size`.
    ///
    /// # Panics
    ///
    /// Panics if the needed size exceeds the field's 2-adic capacity.
    pub fn new(min_size: usize) -> Self {
        let size = fft::next_pow2(min_size.max(1));
        let log_size = size.trailing_zeros();
        let group_gen = F::root_of_unity_of_order(log_size)
            .expect("domain size exceeds field two-adicity");
        Radix2Domain {
            log_size,
            size,
            group_gen,
            group_gen_inv: group_gen.inverse().expect("roots of unity are nonzero"),
        }
    }

    /// The subgroup generator ω.
    pub fn group_gen(&self) -> F {
        self.group_gen
    }

    /// log₂ of the domain size.
    pub fn log_size(&self) -> u32 {
        self.log_size
    }
}

impl<F: PrimeField> EvalDomain<F> for Radix2Domain<F> {
    fn size(&self) -> usize {
        self.size
    }

    fn element(&self, j: usize) -> F {
        self.group_gen.pow(j as u64)
    }

    fn elements(&self) -> Vec<F> {
        let mut out = Vec::with_capacity(self.size);
        let mut acc = F::ONE;
        for _ in 0..self.size {
            out.push(acc);
            acc *= self.group_gen;
        }
        out
    }

    fn vanishing_at(&self, tau: F) -> F {
        tau.pow(self.size as u64) - F::ONE
    }

    fn vanishing_poly(&self) -> DensePoly<F> {
        let mut coeffs = vec![F::ZERO; self.size + 1];
        coeffs[0] = -F::ONE;
        coeffs[self.size] = F::ONE;
        DensePoly::from_coeffs(coeffs)
    }

    fn interpolate(&self, evals: &[F]) -> DensePoly<F> {
        let _span = zaatar_obs::time("poly.interpolate");
        assert_eq!(evals.len(), self.size, "evaluation count mismatch");
        let mut a = evals.to_vec();
        fft::intt(&mut a);
        DensePoly::from_coeffs(a)
    }

    fn evaluate(&self, poly: &DensePoly<F>) -> Vec<F> {
        assert!(
            poly.coeffs().len() <= self.size,
            "polynomial degree exceeds domain size"
        );
        let mut a = poly.coeffs().to_vec();
        a.resize(self.size, F::ZERO);
        fft::ntt(&mut a);
        a
    }

    fn lagrange_coeffs_at(&self, tau: F) -> Vec<F> {
        // ℓⱼ(τ) = (τⁿ − 1)·ωʲ / (n·(τ − ωʲ)).
        let n = self.size;
        let z = self.vanishing_at(tau);
        if z.is_zero() {
            // τ is itself a domain point: indicator vector.
            let mut out = vec![F::ZERO; n];
            let mut acc = F::ONE;
            for slot in out.iter_mut() {
                if acc == tau {
                    *slot = F::ONE;
                    return out;
                }
                acc *= self.group_gen;
            }
            unreachable!("vanishing(τ)=0 implies τ is in the domain");
        }
        let mut denoms = Vec::with_capacity(n);
        let mut acc = F::ONE;
        for _ in 0..n {
            denoms.push(tau - acc);
            acc *= self.group_gen;
        }
        batch_inverse(&mut denoms);
        let z_over_n = z * F::from_u64(n as u64).inverse().expect("n < p");
        let mut out = Vec::with_capacity(n);
        let mut omega_j = F::ONE;
        for d in denoms {
            out.push(z_over_n * omega_j * d);
            omega_j *= self.group_gen;
        }
        out
    }

    fn divide_by_vanishing(&self, poly: &DensePoly<F>) -> (DensePoly<F>, DensePoly<F>) {
        let _span = zaatar_obs::time("poly.divide_by_vanishing");
        // Division by tⁿ − 1 in coefficient form: q[i] = p[i+n] + q[i+n].
        let n = self.size;
        let coeffs = poly.coeffs();
        if coeffs.len() <= n {
            return (DensePoly::zero(), poly.clone());
        }
        let qlen = coeffs.len() - n;
        let mut q = vec![F::ZERO; qlen];
        for i in (0..qlen).rev() {
            let upper = if i + n < qlen { q[i + n] } else { F::ZERO };
            q[i] = coeffs[i + n] + upper;
        }
        // The remainder is r[i] = p[i] + q[i], because q·(tⁿ − 1)
        // contributes −q[i] at position i.
        let mut r = vec![F::ZERO; n];
        for (i, slot) in r.iter_mut().enumerate() {
            *slot = coeffs[i] + q.get(i).copied().unwrap_or(F::ZERO);
        }
        let quotient = DensePoly::from_coeffs(q);
        let remainder = DensePoly::from_coeffs(r);
        (quotient, remainder)
    }

    fn interpolate_zero_pinned(&self, evals: &[F]) -> DensePoly<F> {
        // Domain elements are ωʲ; their inverses are ω^{−j}, avoiding the
        // generic batched inversion.
        assert_eq!(evals.len(), self.size, "evaluation count mismatch");
        let mut scaled = Vec::with_capacity(self.size);
        let mut inv = F::ONE;
        for e in evals {
            scaled.push(*e * inv);
            inv *= self.group_gen_inv;
        }
        let g = self.interpolate(&scaled);
        let mut coeffs = g.into_coeffs();
        coeffs.insert(0, F::ZERO);
        DensePoly::from_coeffs(coeffs)
    }

    /// Coset kernel: with `D(t) = tⁿ − 1`, the quotient is recovered
    /// from `2n` evaluations on the proper coset `g·H₂ₙ`, where `D` never
    /// vanishes. Only `Â, B̂, Ĉ` (degree ≤ n) are transformed forward and
    /// `H` (degree ≤ n < 2n) backward — the degree-`2n` product `P_w`
    /// itself is never interpolated, so `2n` points suffice where the
    /// generic multiply-then-divide route needs size-`4n` transforms.
    ///
    /// Each value stream is absorbed into its coset buffer one chunk at
    /// a time (the chunk returns to the pool the moment it is copied),
    /// laid out directly as the zero-pinned interpolant's coefficients
    /// (`buf = [0, g₀, …, g_{n−1}, 0, …]`, i.e. `t·g(t)`). The pointwise
    /// combine `(h·eb − ec)·v` is associated so only **two** size-`2n`
    /// buffers are ever live: B's evaluations fold into H in place, and
    /// C's buffer reuses B's storage via the pool. Peak residency is
    /// `3n` (values) + `4n` (two coset buffers) at any chunk length.
    fn quotient_zero_pinned_streamed(
        &self,
        a_vals: ChunkedVec<F>,
        b_vals: ChunkedVec<F>,
        c_vals: ChunkedVec<F>,
        scratch: &mut Scratch<F>,
    ) -> Result<Option<Vec<F>>, BudgetError> {
        let _span = zaatar_obs::time("poly.quotient");
        let n = self.size;
        assert_eq!(a_vals.len(), n, "value stream length mismatch");
        assert_eq!(b_vals.len(), n, "value stream length mismatch");
        assert_eq!(c_vals.len(), n, "value stream length mismatch");
        // Divisibility gate before any coset buffer is leased: with a
        // simple root at every domain point, D | P_w iff the values
        // satisfy a·b = c pointwise.
        let satisfied = (0..n).all(|j| *a_vals.get(j) * *b_vals.get(j) == *c_vals.get(j));
        if !satisfied {
            a_vals.release(scratch);
            b_vals.release(scratch);
            c_vals.release(scratch);
            return Ok(None);
        }
        let big = 2 * n;
        let gen_inv = self.group_gen_inv;
        let shift = F::multiplicative_generator();
        // Drains one value stream into `buf` in zero-pinned layout
        // (buf[1 + j] = vals[j]·ω^{−j}), interpolates, and moves it to
        // the coset.
        let to_coset = |vals: ChunkedVec<F>, buf: &mut [F], scratch: &mut Scratch<F>| {
            let mut inv = F::ONE;
            vals.drain(scratch, |off, chunk| {
                for (slot, e) in buf[1 + off..][..chunk.len()].iter_mut().zip(chunk) {
                    *slot = *e * inv;
                    inv *= gen_inv;
                }
            });
            fft::intt(&mut buf[1..=n]);
            fft::coset_ntt(buf, shift);
        };
        let mut h = match scratch.try_take(big, F::ZERO) {
            Ok(buf) => buf,
            Err(e) => {
                a_vals.release(scratch);
                b_vals.release(scratch);
                c_vals.release(scratch);
                return Err(e);
            }
        };
        to_coset(a_vals, &mut h, scratch);
        // B's coset buffer — the second and last big buffer ever live.
        let mut eb = match scratch.try_take(big, F::ZERO) {
            Ok(buf) => buf,
            Err(e) => {
                scratch.put(h);
                b_vals.release(scratch);
                c_vals.release(scratch);
                return Err(e);
            }
        };
        to_coset(b_vals, &mut eb, scratch);
        // Fold B into H and return B's storage before leasing C's — the
        // pool hands the same buffer back.
        for (hj, ebj) in h.iter_mut().zip(eb.iter()) {
            *hj *= *ebj;
        }
        scratch.put(eb);
        let mut ec = match scratch.try_take(big, F::ZERO) {
            Ok(buf) => buf,
            Err(e) => {
                scratch.put(h);
                c_vals.release(scratch);
                return Err(e);
            }
        };
        to_coset(c_vals, &mut ec, scratch);
        // Vanishing values on the coset: (g·ω₂ₙʲ)ⁿ − 1 = gⁿ·(−1)ʲ − 1;
        // two inverses cover all 2n points.
        let gn = shift.pow(n as u64);
        let v_even = (gn - F::ONE).inverse().expect("proper coset");
        let v_odd = (-gn - F::ONE).inverse().expect("proper coset");
        for (j, hj) in h.iter_mut().enumerate() {
            *hj = (*hj - ec[j]) * if j % 2 == 0 { v_even } else { v_odd };
        }
        fft::coset_intt(&mut h, shift);
        // Only degree ≤ n survives division; the top half is zeros.
        let out = h[..=n].to_vec();
        scratch.put(ec);
        scratch.put(h);
        Ok(Some(out))
    }
}

/// The paper's arithmetic-progression domain `σⱼ = start + j·step`
/// (defaulting to `1, 2, …, n`, §A.3).
#[derive(Clone, Debug)]
pub struct ArithDomain<F> {
    points: Vec<F>,
    /// Barycentric weights `vⱼ = 1/∏_{k≠j}(σⱼ − σₖ)`, computed by the
    /// incremental recurrence of §A.3.
    weights: Vec<F>,
}

impl<F: PrimeField> ArithDomain<F> {
    /// The domain `σⱼ = 1, …, n`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "domain must be non-empty");
        let points: Vec<F> = (1..=n as u64).map(F::from_u64).collect();
        // 1/vⱼ follows the recurrence (1/v_{j+1}) = (1/vⱼ)·(−j)/(n−j)
        // with 1/v₁ = (−1)^(n−1)·(n−1)!  (σ indexed from 1).
        let mut inv_weights = Vec::with_capacity(n);
        let mut acc = F::ONE;
        for k in 1..n as u64 {
            acc *= F::from_u64(k);
        }
        if (n - 1) % 2 == 1 {
            acc = -acc;
        }
        inv_weights.push(acc);
        for j in 1..n as u64 {
            // Multiply by −j, divide by (n − j): two field ops plus the
            // batched inversion below (matching the (f_div + 3f)·|C| cost).
            acc *= -F::from_u64(j);
            let denom = F::from_u64(n as u64 - j);
            acc *= denom.inverse().expect("nonzero");
            inv_weights.push(acc);
        }
        let mut weights = inv_weights;
        batch_inverse(&mut weights);
        ArithDomain { points, weights }
    }

    /// The barycentric weights `vⱼ`.
    pub fn weights(&self) -> &[F] {
        &self.weights
    }

    fn tree(&self) -> ProductTree<F> {
        ProductTree::new(&self.points)
    }
}

impl<F: PrimeField> EvalDomain<F> for ArithDomain<F> {
    fn size(&self) -> usize {
        self.points.len()
    }

    fn element(&self, j: usize) -> F {
        self.points[j]
    }

    fn elements(&self) -> Vec<F> {
        self.points.clone()
    }

    fn vanishing_at(&self, tau: F) -> F {
        self.points.iter().map(|p| tau - *p).product()
    }

    fn vanishing_poly(&self) -> DensePoly<F> {
        self.tree().root().clone()
    }

    fn interpolate(&self, evals: &[F]) -> DensePoly<F> {
        let _span = zaatar_obs::time("poly.interpolate");
        assert_eq!(evals.len(), self.points.len(), "evaluation count mismatch");
        self.tree().interpolate(evals)
    }

    fn evaluate(&self, poly: &DensePoly<F>) -> Vec<F> {
        self.tree().multi_eval(poly)
    }

    fn lagrange_coeffs_at(&self, tau: F) -> Vec<F> {
        // ℓⱼ(τ) = ℓ(τ)·vⱼ/(τ − σⱼ) with ℓ(τ) = ∏(τ − σₖ).
        let n = self.points.len();
        let mut denoms: Vec<F> = self.points.iter().map(|p| tau - *p).collect();
        if let Some(hit) = denoms.iter().position(|d| d.is_zero()) {
            let mut out = vec![F::ZERO; n];
            out[hit] = F::ONE;
            return out;
        }
        let ell: F = denoms.iter().copied().product();
        batch_inverse(&mut denoms);
        denoms
            .into_iter()
            .zip(self.weights.iter())
            .map(|(d, v)| ell * *v * d)
            .collect()
    }

    fn divide_by_vanishing(&self, poly: &DensePoly<F>) -> (DensePoly<F>, DensePoly<F>) {
        let _span = zaatar_obs::time("poly.divide_by_vanishing");
        poly.div_rem_fast(&self.vanishing_poly())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zaatar_field::{Field, F128, F61};

    fn poly61(cs: &[u64]) -> DensePoly<F61> {
        DensePoly::from_coeffs(cs.iter().map(|&c| F61::from_u64(c)).collect())
    }

    #[test]
    fn radix2_round_trip() {
        let d = Radix2Domain::<F61>::new(13);
        assert_eq!(d.size(), 16);
        let p = poly61(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let evals = d.evaluate(&p);
        assert_eq!(d.interpolate(&evals), p);
    }

    #[test]
    fn radix2_elements_are_distinct_nonzero() {
        let d = Radix2Domain::<F61>::new(8);
        let els = d.elements();
        for (i, e) in els.iter().enumerate() {
            assert!(!e.is_zero());
            assert_eq!(*e, d.element(i));
            for f in &els[i + 1..] {
                assert_ne!(e, f);
            }
        }
    }

    #[test]
    fn radix2_vanishing() {
        let d = Radix2Domain::<F61>::new(8);
        for e in d.elements() {
            assert!(d.vanishing_at(e).is_zero());
        }
        let tau = F61::from_u64(12345);
        assert_eq!(d.vanishing_at(tau), d.vanishing_poly().evaluate(tau));
    }

    #[test]
    fn radix2_lagrange_coeffs() {
        let d = Radix2Domain::<F61>::new(8);
        let tau = F61::from_u64(987654321);
        let coeffs = d.lagrange_coeffs_at(tau);
        // Σ f(σⱼ)·ℓⱼ(τ) = f(τ) for f of degree < n.
        let p = poly61(&[2, 7, 1, 8, 2, 8, 1, 8]);
        let evals = d.evaluate(&p);
        let via_basis: F61 = evals
            .iter()
            .zip(coeffs.iter())
            .map(|(e, l)| *e * *l)
            .sum();
        assert_eq!(via_basis, p.evaluate(tau));
    }

    #[test]
    fn radix2_lagrange_at_domain_point() {
        let d = Radix2Domain::<F61>::new(4);
        let coeffs = d.lagrange_coeffs_at(d.element(2));
        assert_eq!(coeffs[2], F61::ONE);
        assert!(coeffs.iter().enumerate().all(|(i, c)| i == 2 || c.is_zero()));
    }

    #[test]
    fn radix2_divide_by_vanishing_exact() {
        let d = Radix2Domain::<F61>::new(4);
        let q = poly61(&[5, 6, 7, 8, 9]);
        let prod = q.mul_naive(&d.vanishing_poly());
        let (q2, r) = d.divide_by_vanishing(&prod);
        assert_eq!(q2, q);
        assert!(r.is_zero());
    }

    #[test]
    fn radix2_divide_by_vanishing_with_remainder() {
        let d = Radix2Domain::<F61>::new(4);
        let p = poly61(&[1, 2, 3, 4, 5, 6, 7]);
        let (q, r) = d.divide_by_vanishing(&p);
        let back = &q.mul_naive(&d.vanishing_poly()) + &r;
        assert_eq!(back, p);
        assert!(r.degree().unwrap() < 4);
    }

    #[test]
    fn zero_pinned_interpolation() {
        fn check<D: EvalDomain<F61>>(d: &D) {
            let evals: Vec<F61> = (0..d.size() as u64).map(|i| F61::from_u64(i * 3 + 1)).collect();
            let f = d.interpolate_zero_pinned(&evals);
            assert!(f.evaluate(F61::ZERO).is_zero());
            assert!(f.degree().unwrap() <= d.size());
            for (j, e) in evals.iter().enumerate() {
                assert_eq!(f.evaluate(d.element(j)), *e);
            }
        }
        check(&Radix2Domain::<F61>::new(8));
        check(&ArithDomain::<F61>::new(7));
    }

    #[test]
    fn zero_pinned_coeffs_consistent() {
        fn check<D: EvalDomain<F61>>(d: &D) {
            let evals: Vec<F61> = (0..d.size() as u64).map(|i| F61::from_u64(i + 2)).collect();
            let f = d.interpolate_zero_pinned(&evals);
            let tau = F61::from_u64(0xabcdef);
            let basis = d.zero_pinned_coeffs_at(tau);
            let via: F61 = evals.iter().zip(basis.iter()).map(|(e, l)| *e * *l).sum();
            assert_eq!(via, f.evaluate(tau));
        }
        check(&Radix2Domain::<F61>::new(8));
        check(&ArithDomain::<F61>::new(9));
    }

    #[test]
    fn arith_domain_points() {
        let d = ArithDomain::<F128>::new(5);
        assert_eq!(d.elements(), (1..=5u64).map(F128::from_u64).collect::<Vec<_>>());
    }

    #[test]
    fn arith_weights_match_definition() {
        let d = ArithDomain::<F61>::new(6);
        for j in 0..6 {
            let mut prod = F61::ONE;
            for k in 0..6 {
                if k != j {
                    prod *= d.element(j) - d.element(k);
                }
            }
            assert_eq!(d.weights()[j] * prod, F61::ONE, "j={j}");
        }
    }

    #[test]
    fn arith_round_trip() {
        let d = ArithDomain::<F61>::new(9);
        let p = poly61(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let evals = d.evaluate(&p);
        assert_eq!(d.interpolate(&evals), p);
    }

    #[test]
    fn arith_lagrange_coeffs() {
        let d = ArithDomain::<F61>::new(7);
        let tau = F61::from_u64(424242);
        let coeffs = d.lagrange_coeffs_at(tau);
        let p = poly61(&[9, 8, 7, 6, 5, 4, 3]);
        let evals = d.evaluate(&p);
        let via: F61 = evals.iter().zip(coeffs.iter()).map(|(e, l)| *e * *l).sum();
        assert_eq!(via, p.evaluate(tau));
    }

    #[test]
    fn arith_lagrange_at_domain_point() {
        let d = ArithDomain::<F61>::new(5);
        let coeffs = d.lagrange_coeffs_at(F61::from_u64(3));
        assert_eq!(coeffs[2], F61::ONE);
        assert_eq!(coeffs.iter().filter(|c| !c.is_zero()).count(), 1);
    }

    #[test]
    fn domains_agree_on_divisibility_outcome() {
        // The same witness-derived product must be divisible on both
        // domains of equal size (shape parity between the fast path and the
        // paper's literal domain).
        let n = 8;
        let r2 = Radix2Domain::<F61>::new(n);
        let ar = ArithDomain::<F61>::new(n);
        let evals: Vec<F61> = (0..n as u64).map(|i| F61::from_u64(i * i + 1)).collect();
        for d in [&r2 as &dyn DomainDyn, &ar as &dyn DomainDyn] {
            let f = d.interp(&evals);
            let z = d.vanish();
            let prod = f.mul_naive(&z);
            let (_, r) = prod.div_rem(&z);
            assert!(r.is_zero());
        }
    }

    /// Object-safe helper for the cross-domain test.
    trait DomainDyn {
        fn interp(&self, evals: &[F61]) -> DensePoly<F61>;
        fn vanish(&self) -> DensePoly<F61>;
    }

    impl DomainDyn for Radix2Domain<F61> {
        fn interp(&self, evals: &[F61]) -> DensePoly<F61> {
            self.interpolate(evals)
        }
        fn vanish(&self) -> DensePoly<F61> {
            self.vanishing_poly()
        }
    }

    impl DomainDyn for ArithDomain<F61> {
        fn interp(&self, evals: &[F61]) -> DensePoly<F61> {
            self.interpolate(evals)
        }
        fn vanish(&self) -> DensePoly<F61> {
            self.vanishing_poly()
        }
    }

    /// Values satisfying `a·b = c` pointwise, so `D | P_w`.
    fn satisfying_values(n: usize) -> [Vec<F61>; 3] {
        let a: Vec<F61> = (0..n as u64).map(|i| F61::from_u64(i * 7 + 1)).collect();
        let b: Vec<F61> = (0..n as u64).map(|i| F61::from_u64(i * i + 4)).collect();
        let c = a.iter().zip(&b).map(|(a, b)| *a * *b).collect();
        [a, b, c]
    }

    fn chunked(vals: &[F61], chunk_len: usize, s: &mut Scratch<F61>) -> ChunkedVec<F61> {
        let mut cv = ChunkedVec::try_take(s, vals.len(), chunk_len, F61::ZERO).expect("lease fits");
        for (i, v) in vals.iter().enumerate() {
            *cv.get_mut(i) = *v;
        }
        cv
    }

    #[test]
    fn coset_kernel_matches_generic_route_across_chunkings() {
        // Reference: the trait-default interpolate → multiply → divide
        // route on the same domain. Sizes cover even and odd log n; the
        // chunk geometries are covering, even split, ragged tail of 7.
        let mut scratch = Scratch::new();
        for log_n in 0..=10u32 {
            let n = 1usize << log_n;
            let d = Radix2Domain::<F61>::new(n);
            let [a, b, c] = satisfying_values(n);
            let reference = d
                .quotient_zero_pinned_scratch(&a, &b, &c, &mut scratch)
                .expect("satisfying values");
            assert_eq!(reference.len(), n + 1, "n={n}");
            for chunk_len in [n, n.div_ceil(2), 7] {
                let (ca, cb, cc) = (
                    chunked(&a, chunk_len, &mut scratch),
                    chunked(&b, chunk_len, &mut scratch),
                    chunked(&c, chunk_len, &mut scratch),
                );
                let h = d
                    .quotient_zero_pinned_streamed(ca, cb, cc, &mut scratch)
                    .expect("no budget set")
                    .expect("satisfying values");
                assert_eq!(h, reference, "n={n} chunk_len={chunk_len}");
                assert_eq!(scratch.outstanding_bytes(), 0);
            }
        }
    }

    #[test]
    fn coset_kernel_rejects_nonsatisfying_values_before_leasing() {
        let n = 4;
        let d = Radix2Domain::<F61>::new(n);
        let [a, b, mut c] = satisfying_values(n);
        c[2] += F61::ONE;
        assert!(d.quotient_zero_pinned(&a, &b, &c).is_none());
        let mut scratch = Scratch::new();
        let (ca, cb, cc) = (
            chunked(&a, 2, &mut scratch),
            chunked(&b, 2, &mut scratch),
            chunked(&c, 2, &mut scratch),
        );
        let chunks_only = scratch.high_water_bytes();
        assert!(d
            .quotient_zero_pinned_streamed(ca, cb, cc, &mut scratch)
            .expect("no budget")
            .is_none());
        // Every chunk came back and no coset buffer was ever leased.
        assert_eq!(scratch.outstanding_bytes(), 0);
        assert_eq!(scratch.high_water_bytes(), chunks_only);
    }

    #[test]
    fn coset_kernel_budget_refusal_releases_every_lease() {
        use zaatar_mem::MemBudget;
        // Room for the three 16-element value streams but not for a
        // 32-element coset buffer on top of them.
        let n = 16;
        let budget = 4 * n * 8;
        let mut tight: Scratch<F61> = Scratch::with_budget(MemBudget::bytes(budget));
        let d = Radix2Domain::<F61>::new(n);
        let [a, b, c] = satisfying_values(n);
        let (ca, cb, cc) = (
            chunked(&a, 4, &mut tight),
            chunked(&b, 4, &mut tight),
            chunked(&c, 4, &mut tight),
        );
        let err = d
            .quotient_zero_pinned_streamed(ca, cb, cc, &mut tight)
            .expect_err("2n coset buffer cannot fit on top of the value streams");
        assert_eq!(err.limit_bytes, budget);
        assert_eq!(tight.outstanding_bytes(), 0, "error path released all chunks");
    }
}
