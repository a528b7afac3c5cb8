//! Generic Montgomery-form prime field element, [`Fp`].
//!
//! The element is stored as `a · R mod p` for `R = 2^(64N)`; multiplication
//! uses the CIOS (coarsely integrated operand scanning) algorithm, which is
//! correct for any odd modulus `p < 2^(64N)` — including our moduli, which
//! sit within a few parts per 2³² of `2^(64N)` and therefore leave no spare
//! top bits.

use core::fmt;
use core::hash::{Hash, Hasher};
use core::iter::{Product, Sum};
use core::marker::PhantomData;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::limbs::{adc, add_assign, geq, is_zero, mac, shr1, sub_assign};
use crate::traits::{Field, FpParams, PrimeField};

/// An element of the prime field described by `P`, in Montgomery form.
///
/// The representation is always fully reduced (`< p`), so derived equality
/// and hashing coincide with field equality.
pub struct Fp<P, const N: usize> {
    limbs: [u64; N],
    _marker: PhantomData<P>,
}

impl<P: FpParams<N>, const N: usize> Fp<P, N> {
    /// Constructs an element directly from Montgomery-form limbs.
    ///
    /// Internal use only; callers must guarantee `limbs < p`.
    #[inline]
    const fn from_mont(limbs: [u64; N]) -> Self {
        Fp {
            limbs,
            _marker: PhantomData,
        }
    }

    /// Montgomery multiplication: returns `a · b / R mod p` (CIOS).
    #[inline]
    fn mont_mul(a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let mut t = [0u64; N];
        let mut t_n: u64 = 0;
        let mut t_n1: u64 = 0;
        for bi in b.iter().take(N) {
            // Multiplication step: t += a * b[i].
            let mut carry = 0;
            for j in 0..N {
                let (lo, c) = mac(t[j], a[j], *bi, carry);
                t[j] = lo;
                carry = c;
            }
            let (lo, c) = adc(t_n, carry, 0);
            t_n = lo;
            t_n1 = c;

            // Reduction step: make t divisible by 2^64 and shift down.
            let m = t[0].wrapping_mul(P::INV);
            let (_, mut carry) = mac(t[0], m, P::MODULUS[0], 0);
            for j in 1..N {
                let (lo, c) = mac(t[j], m, P::MODULUS[j], carry);
                t[j - 1] = lo;
                carry = c;
            }
            let (lo, c) = adc(t_n, carry, 0);
            t[N - 1] = lo;
            t_n = t_n1 + c;
            t_n1 = 0;
        }
        let _ = t_n1;
        // The intermediate value is < 2p, so one conditional subtraction
        // fully reduces; a set overflow word t_n cancels against the borrow.
        let mut r = t;
        if t_n == 1 || geq(&r, &P::MODULUS) {
            sub_assign(&mut r, &P::MODULUS);
        }
        r
    }

    /// Returns the canonical limbs (out of Montgomery form).
    #[inline]
    pub fn canonical_limbs(&self) -> [u64; N] {
        let mut one = [0u64; N];
        one[0] = 1;
        Self::mont_mul(&self.limbs, &one)
    }

    /// Builds an element from canonical limbs, which must be `< p`.
    #[inline]
    pub fn from_canonical_limbs(limbs: [u64; N]) -> Option<Self> {
        if geq(&limbs, &P::MODULUS) && !is_zero(&P::MODULUS) {
            return None;
        }
        Some(Self::from_mont(Self::mont_mul(&limbs, &P::R2)))
    }

    /// Raw Montgomery limbs (for serialization-free inspection in tests).
    #[inline]
    pub fn mont_limbs(&self) -> [u64; N] {
        self.limbs
    }
}

/// A `(2N + 1)`-limb accumulator of *unreduced* products of
/// Montgomery-form operands — §5.1's `f_lazy`, multiplication without
/// the "mod p".
///
/// Each product of two reduced operands is `< p² < 2^(128N)`, so the
/// two `[u64; N]` halves hold one product and the spare `top` limb
/// counts the overflows of up to `2⁶⁴` of them. `F128`'s modulus leaves
/// no spare top bits, so `top` is live there from the second term on.
#[derive(Clone, Copy)]
struct Wide<const N: usize> {
    lo: [u64; N],
    hi: [u64; N],
    top: u64,
}

/// Columns [`Field::add_scaled_rows`] accumulates at once: one block's
/// wide accumulators live on the stack (576 B at `N = 4`) while every
/// row contributes a contiguous stripe of that many elements. Measured
/// on a 300 × 2,600 fold: `F128` takes 3.0–3.9 ns per term at 8 against
/// 5.3–5.5 at 16 and 32; `F220` reads 10–13 ns at every width.
const COLUMN_BLOCK: usize = 8;

/// Limb `k` of the `2N`-limb integer `lo + hi·2^(64N)`.
#[inline(always)]
fn limb_mut<'a, const N: usize>(
    lo: &'a mut [u64; N],
    hi: &'a mut [u64; N],
    k: usize,
) -> &'a mut u64 {
    if k < N {
        &mut lo[k]
    } else {
        &mut hi[k - N]
    }
}

/// `*acc += x + carry`, returning the carry out. `overflowing_add`
/// pairs, not `limbs::adc`: this shape compiles to one hardware
/// add-with-carry chain across all `2N + 1` limbs of a [`Wide`].
#[inline(always)]
fn add_into(acc: &mut u64, x: u64, carry: bool) -> bool {
    let (s, c1) = acc.overflowing_add(x);
    let (s, c2) = s.overflowing_add(carry as u64);
    *acc = s;
    c1 | c2
}

impl<const N: usize> Wide<N> {
    const ZERO: Self = Wide {
        lo: [0; N],
        hi: [0; N],
        top: 0,
    };

    /// `self += a · b` over the integers: one 2N-limb schoolbook product
    /// and one carry chain into the accumulator, no reduction.
    ///
    /// `while` loops, not `for`: this is the per-term body of every
    /// answer, and a dev-profile build instantiates it in the calling
    /// crate at opt-level 0, where each `Range::next` is a real call —
    /// half the unoptimized cost of a term. Optimized code is the same.
    #[inline(always)]
    fn mul_acc(&mut self, a: &[u64; N], b: &[u64; N]) {
        let (mut lo, mut hi) = ([0u64; N], [0u64; N]);
        let mut i = 0;
        while i < N {
            let mut carry = 0;
            let mut j = 0;
            while j < N {
                let slot = limb_mut(&mut lo, &mut hi, i + j);
                (*slot, carry) = mac(*slot, a[j], b[i], carry);
                j += 1;
            }
            hi[i] = carry;
            i += 1;
        }
        let mut carry = false;
        let mut k = 0;
        while k < N {
            carry = add_into(&mut self.lo[k], lo[k], carry);
            k += 1;
        }
        k = 0;
        while k < N {
            carry = add_into(&mut self.hi[k], hi[k], carry);
            k += 1;
        }
        self.top += carry as u64;
    }

    /// The one Montgomery reduction of a whole sum: returns the field
    /// element whose Montgomery form is `self / R mod p`, i.e. exactly
    /// what adding up the reduced products one by one gives.
    fn reduce<P: FpParams<N>>(self) -> Fp<P, N> {
        let Wide {
            mut lo,
            mut hi,
            mut top,
        } = self;
        // N reduction steps clear the low half; `carry2` hands each
        // step's carry out of limb `i + N` to the next step.
        let mut carry2 = 0;
        for i in 0..N {
            let m = lo[i].wrapping_mul(P::INV);
            let (_, mut carry) = mac(lo[i], m, P::MODULUS[0], 0);
            for j in 1..N {
                let slot = limb_mut(&mut lo, &mut hi, i + j);
                (*slot, carry) = mac(*slot, m, P::MODULUS[j], carry);
            }
            (hi[i], carry2) = adc(hi[i], carry, carry2);
        }
        top += carry2;
        // A sum of k products leaves `hi + top·R < (k + 1)·p`. The high
        // half is folded under p by a multiplication by `R mod p` (the
        // Montgomery form of one: `hi · R / R`), the spare limb by
        // `top · (R mod p)`, which is `from_u64(top)`'s Montgomery form.
        Fp::from_mont(Fp::<P, N>::mont_mul(&hi, &P::R)) + Fp::from_u64(top)
    }
}

impl<P, const N: usize> Clone for Fp<P, N> {
    #[inline]
    fn clone(&self) -> Self {
        *self
    }
}

impl<P, const N: usize> Copy for Fp<P, N> {}

impl<P, const N: usize> PartialEq for Fp<P, N> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.limbs == other.limbs
    }
}

impl<P, const N: usize> Eq for Fp<P, N> {}

impl<P, const N: usize> Hash for Fp<P, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.limbs.hash(state);
    }
}

impl<P: FpParams<N>, const N: usize> Default for Fp<P, N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<P: FpParams<N>, const N: usize> fmt::Debug for Fp<P, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl<P: FpParams<N>, const N: usize> fmt::Display for Fp<P, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let canon = self.canonical_limbs();
        write!(f, "0x")?;
        let mut started = false;
        for limb in canon.iter().rev() {
            if started {
                write!(f, "{limb:016x}")?;
            } else if *limb != 0 {
                write!(f, "{limb:x}")?;
                started = true;
            }
        }
        if !started {
            write!(f, "0")?;
        }
        Ok(())
    }
}

impl<P: FpParams<N>, const N: usize> Add for Fp<P, N> {
    type Output = Self;

    #[inline]
    fn add(mut self, rhs: Self) -> Self {
        let carry = add_assign(&mut self.limbs, &rhs.limbs);
        if carry == 1 || geq(&self.limbs, &P::MODULUS) {
            sub_assign(&mut self.limbs, &P::MODULUS);
        }
        self
    }
}

impl<P: FpParams<N>, const N: usize> Sub for Fp<P, N> {
    type Output = Self;

    #[inline]
    fn sub(mut self, rhs: Self) -> Self {
        let borrow = sub_assign(&mut self.limbs, &rhs.limbs);
        if borrow == 1 {
            add_assign(&mut self.limbs, &P::MODULUS);
        }
        self
    }
}

impl<P: FpParams<N>, const N: usize> Mul for Fp<P, N> {
    type Output = Self;

    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::from_mont(Self::mont_mul(&self.limbs, &rhs.limbs))
    }
}

impl<P: FpParams<N>, const N: usize> Div for Fp<P, N> {
    type Output = Self;

    /// Division by the inverse.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // Division IS multiplication by the inverse.
    fn div(self, rhs: Self) -> Self {
        self * rhs.inverse().expect("division by zero field element")
    }
}

impl<P: FpParams<N>, const N: usize> Neg for Fp<P, N> {
    type Output = Self;

    #[inline]
    fn neg(self) -> Self {
        if is_zero(&self.limbs) {
            self
        } else {
            let mut r = P::MODULUS;
            sub_assign(&mut r, &self.limbs);
            Self::from_mont(r)
        }
    }
}

impl<P: FpParams<N>, const N: usize> AddAssign for Fp<P, N> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<P: FpParams<N>, const N: usize> SubAssign for Fp<P, N> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<P: FpParams<N>, const N: usize> MulAssign for Fp<P, N> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<P: FpParams<N>, const N: usize> DivAssign for Fp<P, N> {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl<P: FpParams<N>, const N: usize> Sum for Fp<P, N> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, x| acc + x)
    }
}

impl<P: FpParams<N>, const N: usize> Product for Fp<P, N> {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |acc, x| acc * x)
    }
}

impl<P: FpParams<N>, const N: usize> Field for Fp<P, N> {
    const ZERO: Self = Fp {
        limbs: [0u64; N],
        _marker: PhantomData,
    };

    const ONE: Self = Fp {
        limbs: P::R,
        _marker: PhantomData,
    };

    #[inline]
    fn is_zero(&self) -> bool {
        is_zero(&self.limbs)
    }

    #[inline]
    fn square(&self) -> Self {
        *self * *self
    }

    #[inline]
    fn double(&self) -> Self {
        *self + *self
    }

    fn inverse(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        // Binary extended GCD on the Montgomery representation
        // (Kaliski-style): for input a·R it computes a⁻¹·R directly.
        //
        // Invariants, with u,v shrinking and b,c tracking cofactors:
        //   u ≡ (a·R)·b·R⁻¹  and  v ≡ (a·R)·c·R⁻¹  (mod p)
        // so when u reaches 1, b = R·(a·R)⁻¹·1 ... more simply: we run
        // the classic algorithm over the raw limbs; the R factors cancel
        // so the result is the inverse of the *Montgomery form* times R²,
        // i.e. converting via two Montgomery multiplications at the end
        // restores the right form. To keep the code auditable we instead
        // run on the canonical value and convert back, which costs two
        // extra Montgomery multiplications but has a single obvious
        // invariant: u·x ≡ b (mod p) and v·x ≡ c (mod p).
        let x = self.canonical_limbs();
        let mut u = x;
        let mut v = P::MODULUS;
        // b, c are field elements (Montgomery form): b = 1, c = 0.
        let mut b = Self::ONE;
        let mut c = Self::ZERO;
        // Precompute 1/2 as a field element: (p+1)/2.
        let half = {
            let mut h = P::MODULUS;
            // (p + 1) / 2: p odd, so add 1 (no overflow past N words
            // because p < 2^(64N) and p+1 ≤ 2^(64N); handle the carry by
            // shifting with it).
            let carry = {
                let mut one = [0u64; N];
                one[0] = 1;
                add_assign(&mut h, &one)
            };
            // Shift right one bit, feeding the carry into the top.
            let mut prev = carry;
            for w in h.iter_mut().rev() {
                let lsb = *w & 1;
                *w = (*w >> 1) | (prev << 63);
                prev = lsb;
            }
            Self::from_mont(Self::mont_mul(&h, &P::R2))
        };
        while !is_zero(&u) {
            if u[0] & 1 == 0 {
                shr1(&mut u);
                b *= half;
            } else if v[0] & 1 == 0 {
                shr1(&mut v);
                c *= half;
            } else if geq(&u, &v) {
                sub_assign(&mut u, &v);
                shr1(&mut u);
                b -= c;
                b *= half;
            } else {
                sub_assign(&mut v, &u);
                shr1(&mut v);
                c -= b;
                c *= half;
            }
        }
        // gcd(x, p) = v must be 1 (p prime, x != 0), with c ≡ x⁻¹.
        let mut one = [0u64; N];
        one[0] = 1;
        debug_assert_eq!(v, one, "modulus must be prime");
        Some(c)
    }

    fn pow(&self, exp: u64) -> Self {
        self.pow_words(&[exp])
    }

    fn from_u64(value: u64) -> Self {
        let mut limbs = [0u64; N];
        limbs[0] = value;
        // For single-word moduli the input may exceed p; since our smallest
        // modulus has 61 bits, at most 8 subtractions are needed.
        while geq(&limbs, &P::MODULUS) {
            sub_assign(&mut limbs, &P::MODULUS);
        }
        Self::from_mont(Self::mont_mul(&limbs, &P::R2))
    }

    fn dot(a: &[Self], b: &[Self]) -> Self {
        debug_assert_eq!(a.len(), b.len(), "dot: operand length mismatch");
        let mut acc = Wide::ZERO;
        for (x, y) in a.iter().zip(b) {
            acc.mul_acc(&x.limbs, &y.limbs);
        }
        acc.reduce()
    }

    fn add_scaled_rows(out: &mut [Self], coeffs: &[Self], rows: &[&[Self]]) {
        debug_assert_eq!(coeffs.len(), rows.len(), "one coefficient per row");
        let mut col = 0;
        for block in out.chunks_mut(COLUMN_BLOCK) {
            let mut acc = [Wide::ZERO; COLUMN_BLOCK];
            for (c, row) in coeffs.iter().zip(rows) {
                let stripe = &row[col..col + block.len()];
                for (w, x) in acc.iter_mut().zip(stripe) {
                    w.mul_acc(&c.limbs, &x.limbs);
                }
            }
            for (slot, w) in block.iter_mut().zip(acc) {
                *slot += w.reduce();
            }
            col += block.len();
        }
    }

    fn random_from<F: FnMut() -> u64>(mut next_u64: F) -> Self {
        let top_bits = P::NUM_BITS - 64 * (N as u32 - 1);
        let mask = if top_bits == 64 {
            u64::MAX
        } else {
            (1u64 << top_bits) - 1
        };
        loop {
            let mut limbs = [0u64; N];
            for limb in limbs.iter_mut() {
                *limb = next_u64();
            }
            limbs[N - 1] &= mask;
            if !geq(&limbs, &P::MODULUS) {
                return Self::from_mont(Self::mont_mul(&limbs, &P::R2));
            }
        }
    }
}

impl<P: FpParams<N>, const N: usize> PrimeField for Fp<P, N> {
    const NUM_BITS: u32 = P::NUM_BITS;
    const TWO_ADICITY: u32 = P::TWO_ADICITY;
    const NUM_WORDS: usize = N;

    fn modulus_words() -> Vec<u64> {
        P::MODULUS.to_vec()
    }

    fn two_adic_root_of_unity() -> Self {
        Self::from_canonical_limbs(P::ROOT_OF_UNITY).expect("root-of-unity constant is reduced")
    }

    fn multiplicative_generator() -> Self {
        Self::from_u64(P::GENERATOR)
    }

    fn pow_words(&self, exp: &[u64]) -> Self {
        let mut padded = vec![0u64; exp.len()];
        padded.copy_from_slice(exp);
        let high = match exp
            .iter()
            .enumerate()
            .rev()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
        {
            Some(h) => h,
            None => return Self::ONE,
        };
        let mut acc = Self::ONE;
        for i in (0..=high).rev() {
            acc = acc.square();
            if (exp[i / 64] >> (i % 64)) & 1 == 1 {
                acc *= *self;
            }
        }
        acc
    }

    fn to_canonical_words(&self) -> Vec<u64> {
        self.canonical_limbs().to_vec()
    }

    fn from_canonical_words(words: &[u64]) -> Option<Self> {
        if words.len() != N {
            return None;
        }
        let mut limbs = [0u64; N];
        limbs.copy_from_slice(words);
        Self::from_canonical_limbs(limbs)
    }
}

#[cfg(test)]
mod tests {
    use super::{Fp, Wide};
    use crate::{F128Params, F220Params, F61Params, FpParams};
    use crate::{Field, PrimeField, F128, F220, F61};

    /// `Wide::reduce` on accumulators no slice is long enough to build
    /// (`F220`'s spare limb needs 2⁷² terms): every limb at its maximum,
    /// and random limbs, against the limb-by-limb value of the element
    /// whose Montgomery form is `Σ limbₖ·2^(64k) / R`.
    #[test]
    fn wide_reduce_matches_limbwise_value() {
        fn check<P: FpParams<N>, const N: usize>() {
            let two64 = Fp::<P, N>::from_u64(1 << 32).square();
            let r_inv = two64.pow(N as u64).inverse().expect("R is a unit");
            let mut gen = crate::testutil::SplitMix64::new(0x21);
            // A legal sum of at most 2⁶⁴ − 1 products keeps the spare
            // limb below 2⁶⁴ − 1, which leaves the reduction its carry.
            let mut cases = vec![
                Wide::ZERO,
                Wide {
                    lo: [u64::MAX; N],
                    hi: [u64::MAX; N],
                    top: u64::MAX - 1,
                },
            ];
            for _ in 0..64 {
                let mut limbs = || core::array::from_fn(|_| gen.next_u64());
                let (lo, hi) = (limbs(), limbs());
                cases.push(Wide {
                    lo,
                    hi,
                    top: gen.next_u64() >> 1,
                });
            }
            for acc in cases {
                let mut value = Fp::<P, N>::from_u64(acc.top);
                for limb in acc.lo.iter().chain(&acc.hi).rev() {
                    value = value * two64 + Fp::from_u64(*limb);
                }
                assert_eq!(acc.reduce::<P>(), value * r_inv * r_inv);
            }
        }
        check::<F61Params, 1>();
        check::<F128Params, 2>();
        check::<F220Params, 4>();
    }

    /// Reference arithmetic for the 61-bit field via u128.
    const P61: u128 = 0x1ffffff900000001;

    fn f61(x: u128) -> F61 {
        F61::from_u128(x)
    }

    #[test]
    fn f61_matches_reference_mul() {
        let cases: [(u128, u128); 4] = [
            (3, 5),
            (P61 - 1, P61 - 1),
            (0x1234_5678_9abc_def0, 0x0fed_cba9_8765_4321),
            (P61 - 2, 7),
        ];
        for (a, b) in cases {
            let expect = (a % P61) * (b % P61) % P61;
            assert_eq!(f61(a) * f61(b), f61(expect), "a={a} b={b}");
        }
    }

    #[test]
    fn f61_matches_reference_add_sub() {
        let a = 0x1fff_fff8_ffff_fff0u128;
        let b = 0x1fff_fff8_0000_0123u128;
        assert_eq!(f61(a) + f61(b), f61((a + b) % P61));
        assert_eq!(f61(a) - f61(b), f61((a + P61 - b) % P61));
        assert_eq!(f61(b) - f61(a), f61((b + P61 - a) % P61));
    }

    #[test]
    fn one_and_zero_identities() {
        fn check<F: Field>() {
            let x = F::from_u64(0xdead_beef);
            assert_eq!(x + F::ZERO, x);
            assert_eq!(x * F::ONE, x);
            assert_eq!(x * F::ZERO, F::ZERO);
            assert_eq!(x - x, F::ZERO);
            assert!(F::ZERO.is_zero());
            assert!(!F::ONE.is_zero());
        }
        check::<F61>();
        check::<F128>();
        check::<F220>();
    }

    #[test]
    fn inverse_round_trips() {
        fn check<F: Field>() {
            for v in [1u64, 2, 3, 0xffff_ffff, 0xdead_beef_cafe_f00d] {
                let x = F::from_u64(v);
                let inv = x.inverse().expect("nonzero");
                assert_eq!(x * inv, F::ONE, "v={v}");
            }
            assert!(F::ZERO.inverse().is_none());
        }
        check::<F61>();
        check::<F128>();
        check::<F220>();
    }

    #[test]
    fn negation_is_additive_inverse() {
        fn check<F: Field>() {
            let x = F::from_u64(0x1234_5678);
            assert_eq!(x + (-x), F::ZERO);
            assert_eq!(-F::ZERO, F::ZERO);
        }
        check::<F61>();
        check::<F128>();
        check::<F220>();
    }

    #[test]
    fn from_i64_embeds_negatives() {
        fn check<F: Field>() {
            assert_eq!(F::from_i64(-5) + F::from_u64(5), F::ZERO);
            assert_eq!(F::from_i64(7), F::from_u64(7));
            assert_eq!(F::from_i64(i64::MIN) + F::from_u64(1 << 63), F::ZERO);
        }
        check::<F61>();
        check::<F128>();
        check::<F220>();
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        fn check<F: Field>() {
            let x = F::from_u64(3);
            let mut acc = F::ONE;
            for e in 0..20u64 {
                assert_eq!(x.pow(e), acc, "e={e}");
                acc *= x;
            }
        }
        check::<F61>();
        check::<F128>();
        check::<F220>();
    }

    #[test]
    fn root_of_unity_has_correct_order() {
        fn check<F: PrimeField>() {
            let w = F::two_adic_root_of_unity();
            let mut acc = w;
            // w^(2^TWO_ADICITY) == 1 and w^(2^(TWO_ADICITY-1)) == -1.
            for _ in 0..F::TWO_ADICITY - 1 {
                acc = acc.square();
            }
            assert_eq!(acc, -F::ONE);
            assert_eq!(acc.square(), F::ONE);
        }
        check::<F61>();
        check::<F128>();
        check::<F220>();
    }

    #[test]
    fn small_order_roots() {
        let w = F128::root_of_unity_of_order(3).unwrap();
        assert_eq!(w.pow(8), F128::ONE);
        assert_ne!(w.pow(4), F128::ONE);
        assert!(F128::root_of_unity_of_order(64).is_none());
    }

    #[test]
    fn serialization_round_trips() {
        fn check<F: PrimeField>() {
            let x = F::from_u64(0xfeed_face_dead_beef).pow(3);
            let bytes = x.to_bytes_le();
            assert_eq!(bytes.len(), 8 * F::NUM_WORDS);
            assert_eq!(F::from_bytes_le(&bytes), Some(x));
        }
        check::<F61>();
        check::<F128>();
        check::<F220>();
    }

    #[test]
    fn from_bytes_rejects_unreduced() {
        let mut bytes = vec![0xffu8; 16];
        // All-ones is >= p for F128 (p < 2^128).
        assert!(F128::from_bytes_le(&bytes).is_none());
        bytes.push(0);
        assert!(F128::from_bytes_le(&bytes).is_none(), "wrong length");
    }

    #[test]
    fn random_sampling_is_reduced_and_varied() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let a = F220::random_from(&mut next);
        let b = F220::random_from(&mut next);
        assert_ne!(a, b);
        // Round-tripping through canonical words proves reducedness.
        assert_eq!(
            F220::from_canonical_words(&a.to_canonical_words()),
            Some(a)
        );
    }

    #[test]
    fn display_formats_canonical_hex() {
        assert_eq!(format!("{}", F128::from_u64(0x1f)), "0x1f");
        assert_eq!(format!("{}", F128::ZERO), "0x0");
        let big = F128::from_u128(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        assert_eq!(format!("{big}"), "0x123456789abcdef0011223344556677");
    }

    #[test]
    fn from_u128_consistent_with_words() {
        let v = 0xaaaa_bbbb_cccc_dddd_1111_2222_3333_4444u128;
        let x = F220::from_u128(v);
        let words = x.to_canonical_words();
        assert_eq!(words[0], v as u64);
        assert_eq!(words[1], (v >> 64) as u64);
        assert_eq!(words[2], 0);
    }

    #[test]
    fn sum_and_product_fold() {
        let xs: Vec<F61> = (1..=5u64).map(F61::from_u64).collect();
        let s: F61 = xs.iter().copied().sum();
        let p: F61 = xs.iter().copied().product();
        assert_eq!(s, F61::from_u64(15));
        assert_eq!(p, F61::from_u64(120));
    }

    #[test]
    fn division_is_mul_by_inverse() {
        let a = F128::from_u64(84);
        let b = F128::from_u64(2);
        assert_eq!(a / b, F128::from_u64(42));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = F128::ONE / F128::ZERO;
    }
}
