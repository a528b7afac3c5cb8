//! Dynamic-width multiprecision arithmetic with runtime Montgomery
//! contexts.
//!
//! Unlike `zaatar-field`, where the modulus is a compile-time constant,
//! the ElGamal group modulus is runtime data (different groups pair with
//! different PCP fields), so this module provides a [`MontCtx`] built at
//! runtime. Widths in this system are 4 limbs (256-bit test group) or 16
//! limbs (1024-bit production groups).

/// `a + b + carry` with carry out.
#[inline(always)]
fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `a − b − borrow` with borrow out.
#[inline(always)]
fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (t as u64, ((t >> 64) as u64) & 1)
}

/// `acc + a·b + carry` returning (low, high).
#[inline(always)]
fn mac(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = acc as u128 + (a as u128) * (b as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// Compares little-endian multi-word integers: `true` if `a >= b`.
pub fn geq(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// `a += b`, returning the carry out.
pub fn add_assign(a: &mut [u64], b: &[u64]) -> u64 {
    let mut carry = 0;
    for (x, y) in a.iter_mut().zip(b.iter()) {
        let (lo, c) = adc(*x, *y, carry);
        *x = lo;
        carry = c;
    }
    carry
}

/// `a -= b`, returning the borrow out.
pub fn sub_assign(a: &mut [u64], b: &[u64]) -> u64 {
    let mut borrow = 0;
    for (x, y) in a.iter_mut().zip(b.iter()) {
        let (lo, bo) = sbb(*x, *y, borrow);
        *x = lo;
        borrow = bo;
    }
    borrow
}

/// Returns `true` if all words are zero.
pub fn is_zero(a: &[u64]) -> bool {
    a.iter().all(|&x| x == 0)
}

/// Widest modulus, in words, a [`MontCtx`] supports (1024 bits): every
/// multiplication builds its result in a stack temporary of this size,
/// so no kernel call touches the heap.
pub const MAX_WIDTH: usize = 16;

/// The CIOS inner loops: `t ← a·b/R mod m` before the final conditional
/// subtraction, returning the overflow word. Always inlined, so a call
/// site that passes constant-length slices gets its own unrolled copy.
#[inline(always)]
fn cios(t: &mut [u64], a: &[u64], b: &[u64], m: &[u64], inv: u64) -> u64 {
    let n = t.len();
    let mut t_n: u64 = 0;
    for &bi in b {
        let mut carry = 0;
        for j in 0..n {
            let (lo, c) = mac(t[j], a[j], bi, carry);
            t[j] = lo;
            carry = c;
        }
        let (lo, t_n1) = adc(t_n, carry, 0);
        t_n = lo;

        let k = t[0].wrapping_mul(inv);
        let (_, mut carry) = mac(t[0], k, m[0], 0);
        for j in 1..n {
            let (lo, c) = mac(t[j], k, m[j], carry);
            t[j - 1] = lo;
            carry = c;
        }
        let (lo, c) = adc(t_n, carry, 0);
        t[n - 1] = lo;
        t_n = t_n1 + c;
    }
    t_n
}

/// A Montgomery reduction context for an odd runtime modulus of at most
/// [`MAX_WIDTH`] words.
#[derive(Clone, Debug)]
pub struct MontCtx {
    modulus: Vec<u64>,
    /// `−m⁻¹ mod 2⁶⁴`.
    inv: u64,
    /// `R mod m` where `R = 2^(64·n)`.
    r: Vec<u64>,
    /// `R² mod m`.
    r2: Vec<u64>,
}

impl MontCtx {
    /// Builds a context for the given odd modulus (little-endian words,
    /// top word non-zero).
    ///
    /// # Panics
    ///
    /// Panics if the modulus is even, zero, has a zero top word, or is
    /// wider than [`MAX_WIDTH`] words.
    pub fn new(modulus: Vec<u64>) -> Self {
        assert!(!modulus.is_empty(), "modulus must be non-empty");
        assert!(modulus.len() <= MAX_WIDTH, "modulus wider than MAX_WIDTH words");
        assert!(modulus[0] & 1 == 1, "modulus must be odd");
        assert!(
            *modulus.last().expect("non-empty") != 0,
            "modulus top word must be non-zero"
        );
        let n = modulus.len();
        // Newton iteration for m⁻¹ mod 2⁶⁴: x ← x(2 − m₀x).
        let m0 = modulus[0];
        let mut x = 1u64;
        for _ in 0..6 {
            x = x.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(x)));
        }
        debug_assert_eq!(x.wrapping_mul(m0), 1);
        let inv = x.wrapping_neg();
        // R mod m and R² mod m by repeated modular doubling of 1.
        let mut acc = vec![0u64; n];
        acc[0] = 1;
        let mut r = Vec::new();
        for step in 0..(128 * n) {
            if step == 64 * n {
                r = acc.clone();
            }
            let mut doubled = acc.clone();
            let carry = add_assign(&mut doubled, &acc);
            if carry == 1 || geq(&doubled, &modulus) {
                sub_assign(&mut doubled, &modulus);
            }
            acc = doubled;
        }
        let r2 = acc;
        MontCtx {
            modulus,
            inv,
            r,
            r2,
        }
    }

    /// Word width of this context.
    pub fn width(&self) -> usize {
        self.modulus.len()
    }

    /// The modulus words.
    pub fn modulus(&self) -> &[u64] {
        &self.modulus
    }

    /// Montgomery form of 1 (i.e. `R mod m`).
    pub fn one(&self) -> &[u64] {
        &self.r
    }

    /// Converts a canonical value (`< m`) into Montgomery form, in place.
    pub fn to_mont(&self, a: &mut [u64]) {
        debug_assert!(!geq(a, &self.modulus), "value must be reduced");
        self.mont_mul_assign(a, &self.r2);
    }

    /// Converts a Montgomery-form value back to canonical form, in place.
    pub fn from_mont(&self, a: &mut [u64]) {
        let mut one = [0u64; MAX_WIDTH];
        one[0] = 1;
        self.mont_mul_assign(a, &one[..self.width()]);
    }

    /// Montgomery multiplication (CIOS) `a·b/R mod m` into a stack
    /// temporary — the one kernel every group operation bottoms out in.
    /// The production width gets a copy of the loops specialised to it.
    #[inline]
    fn mul(&self, a: &[u64], b: &[u64]) -> [u64; MAX_WIDTH] {
        let n = self.width();
        let m = &self.modulus[..];
        let mut buf = [0u64; MAX_WIDTH];
        let overflow = if n == MAX_WIDTH {
            cios(&mut buf[..], &a[..MAX_WIDTH], &b[..MAX_WIDTH], &m[..MAX_WIDTH], self.inv)
        } else {
            cios(&mut buf[..n], &a[..n], &b[..n], m, self.inv)
        };
        let t = &mut buf[..n];
        if overflow != 0 || geq(t, m) {
            sub_assign(t, m);
        }
        buf
    }

    /// In-place Montgomery multiplication: `a ← a·b/R mod m`.
    pub fn mont_mul_assign(&self, a: &mut [u64], b: &[u64]) {
        debug_assert_eq!(a.len(), self.width());
        debug_assert_eq!(b.len(), self.width());
        let t = self.mul(a, b);
        a.copy_from_slice(&t[..a.len()]);
    }

    /// In-place Montgomery squaring: `a ← a²/R mod m`, through the
    /// multiplication kernel (a dedicated squaring measured no faster
    /// at the production width).
    pub fn mont_sqr_assign(&self, a: &mut [u64]) {
        debug_assert_eq!(a.len(), self.width());
        let t = self.mul(a, a);
        a.copy_from_slice(&t[..a.len()]);
    }

    /// In-place modular exponentiation with a multi-word exponent:
    /// `a ← a^exp mod m`, Montgomery form in and out.
    pub fn mont_pow(&self, a: &mut [u64], exp: &[u64]) {
        let n = self.width();
        let mut base = [0u64; MAX_WIDTH];
        base[..n].copy_from_slice(a);
        a.copy_from_slice(&self.r);
        let high = exp
            .iter()
            .enumerate()
            .rev()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize);
        let Some(high) = high else { return };
        for i in (0..=high).rev() {
            self.mont_sqr_assign(a);
            if (exp[i / 64] >> (i % 64)) & 1 == 1 {
                self.mont_mul_assign(a, &base[..n]);
            }
        }
    }

    /// Full modular exponentiation on canonical values.
    pub fn pow(&self, base: &[u64], exp: &[u64]) -> Vec<u64> {
        let mut acc = base.to_vec();
        self.to_mont(&mut acc);
        self.mont_pow(&mut acc, exp);
        self.from_mont(&mut acc);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(x: u128, n: usize) -> Vec<u64> {
        let mut v = vec![0u64; n];
        v[0] = x as u64;
        if n > 1 {
            v[1] = (x >> 64) as u64;
        }
        v
    }

    /// A 127-bit prime for reference testing (fits u128 arithmetic via
    /// Python-checked vectors).
    const P: u128 = (1 << 127) - 1; // Mersenne prime 2^127 − 1.

    #[test]
    fn ctx_constants() {
        let ctx = MontCtx::new(words(P, 2));
        assert_eq!(ctx.width(), 2);
        // R mod p for R = 2^128, p = 2^127 − 1: R = 2p + 2 → R mod p = 2.
        assert_eq!(ctx.one(), &words(2, 2)[..]);
    }

    #[test]
    fn mont_round_trip() {
        let ctx = MontCtx::new(words(P, 2));
        let a = words(0xdead_beef_cafe_f00d_1234u128, 2);
        let mut m = a.clone();
        ctx.to_mont(&mut m);
        assert_ne!(m, a);
        ctx.from_mont(&mut m);
        assert_eq!(m, a);
    }

    #[test]
    fn mul_matches_reference() {
        let ctx = MontCtx::new(words(P, 2));
        let a = 0x0123_4567_89ab_cdef_1122_3344_5566_7788u128 % P;
        let b = 0x0fed_cba9_8765_4321_8877_6655_4433_2211u128 % P;
        let (mut prod, mut bm) = (words(a, 2), words(b, 2));
        ctx.to_mont(&mut prod);
        ctx.to_mont(&mut bm);
        ctx.mont_mul_assign(&mut prod, &bm);
        ctx.from_mont(&mut prod);
        // Reference via shift-and-add in u128 is awkward; use the identity
        // (a·b mod p) for Mersenne p: fold the 256-bit product.
        let expect = mulmod_mersenne127(a, b);
        assert_eq!(prod, words(expect, 2));
    }

    fn mulmod_mersenne127(a: u128, b: u128) -> u128 {
        // Schoolbook 128×128 → 256, then fold mod 2^127 − 1.
        let (a0, a1) = (a as u64 as u128, a >> 64);
        let (b0, b1) = (b as u64 as u128, b >> 64);
        let ll = a0 * b0;
        let lh = a0 * b1;
        let hl = a1 * b0;
        let hh = a1 * b1;
        let mid = lh + hl;
        let lo = ll.wrapping_add(mid << 64);
        let carry = if lo < ll { 1u128 } else { 0 };
        let hi = hh + (mid >> 64) + carry;
        // value = hi·2^128 + lo; 2^127 ≡ 1, so 2^128 ≡ 2.
        let mut acc = (lo & ((1 << 127) - 1)) + (lo >> 127) + 2 * (hi % ((1 << 127) - 1));
        while acc >= (1 << 127) - 1 {
            acc -= (1 << 127) - 1;
        }
        acc
    }

    #[test]
    fn pow_small_cases() {
        let ctx = MontCtx::new(words(1_000_003, 1));
        // 2^10 = 1024 mod 1000003.
        assert_eq!(ctx.pow(&[2], &[10]), vec![1024]);
        // Fermat: a^(p−1) = 1.
        assert_eq!(ctx.pow(&[12345], &[1_000_002]), vec![1]);
        // Zero exponent.
        assert_eq!(ctx.pow(&[999], &[0]), vec![1]);
    }

    #[test]
    fn pow_matches_square_chain() {
        let ctx = MontCtx::new(words(P, 2));
        let base = words(987654321, 2);
        let e = 0b1011_0110u64;
        let fast = ctx.pow(&base, &[e]);
        // Reference: repeated multiplication.
        let mut bm = base.clone();
        ctx.to_mont(&mut bm);
        let mut acc = ctx.one().to_vec();
        for _ in 0..e {
            ctx.mont_mul_assign(&mut acc, &bm);
        }
        ctx.from_mont(&mut acc);
        assert_eq!(fast, acc);
    }

    #[test]
    #[should_panic(expected = "MAX_WIDTH")]
    fn overwide_modulus_rejected() {
        let _ = MontCtx::new(vec![1; MAX_WIDTH + 1]);
    }

    #[test]
    fn add_sub_helpers() {
        let mut a = vec![u64::MAX, 0];
        let carry = add_assign(&mut a, &[1, 0]);
        assert_eq!(carry, 0);
        assert_eq!(a, vec![0, 1]);
        let borrow = sub_assign(&mut a, &[1, 1]);
        assert_eq!(borrow, 1);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_modulus_rejected() {
        let _ = MontCtx::new(vec![4]);
    }
}
