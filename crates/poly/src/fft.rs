//! Number-theoretic transforms (NTTs) over FFT-friendly prime fields.
//!
//! The prover's quotient computation (`H(t) = P_w(t)/D(t)`, App. A.3) uses
//! FFT-based interpolation, multiplication, and division; all three reduce
//! to the in-place transform implemented by the kernel layer in
//! [`crate::plan`]. The free functions here are thin instrumented wrappers:
//! they fetch the cached [`crate::plan::NttPlan`] for the input length
//! (building it on first use) and record `poly.ntt.forward` /
//! `poly.ntt.inverse` timings. All shipped fields have 2-adicity 32, so
//! domains up to 2³² points exist.

use zaatar_field::PrimeField;

use crate::plan::plan_for_len;

/// Returns the smallest power of two `>= n` (minimum 1).
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two().max(1)
}

/// In-place forward NTT of a power-of-two-length slice: replaces
/// coefficients with evaluations at `{ωʲ}` in natural order.
///
/// # Panics
///
/// Panics if the length is not a power of two or exceeds the field's 2-adic
/// subgroup capacity.
pub fn ntt<F: PrimeField>(a: &mut [F]) {
    if a.len() <= 1 {
        return;
    }
    let plan = plan_for_len::<F>(a.len());
    let _span = zaatar_obs::time("poly.ntt.forward");
    plan.forward(a);
}

/// In-place inverse NTT: replaces evaluations at `{ωʲ}` (natural order)
/// with coefficients.
pub fn intt<F: PrimeField>(a: &mut [F]) {
    if a.len() <= 1 {
        return;
    }
    let plan = plan_for_len::<F>(a.len());
    let _span = zaatar_obs::time("poly.ntt.inverse");
    plan.inverse(a);
}

/// Multiplies two coefficient vectors via NTT, returning the product's
/// coefficients (length `a.len() + b.len() − 1`, untrimmed).
pub fn fft_mul<F: PrimeField>(a: &[F], b: &[F]) -> Vec<F> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let out_len = a.len() + b.len() - 1;
    let n = next_pow2(out_len);
    let mut fa = vec![F::ZERO; n];
    fa[..a.len()].copy_from_slice(a);
    let mut fb = vec![F::ZERO; n];
    fb[..b.len()].copy_from_slice(b);
    ntt(&mut fa);
    ntt(&mut fb);
    for (x, y) in fa.iter_mut().zip(fb.iter()) {
        *x *= *y;
    }
    intt(&mut fa);
    fa.truncate(out_len);
    fa
}

/// Forward NTT on the coset `g·H` of the size-`n` subgroup `H`: returns the
/// evaluations of the input coefficients at `{g·ωʲ}`.
pub fn coset_ntt<F: PrimeField>(a: &mut [F], shift: F) {
    // Scale coefficients by gⁱ, then a plain NTT evaluates at g·ωʲ.
    let mut power = F::ONE;
    for c in a.iter_mut() {
        *c *= power;
        power *= shift;
    }
    ntt(a);
}

/// Inverse of [`coset_ntt`]: recovers coefficients from evaluations on the
/// coset `g·H`.
pub fn coset_intt<F: PrimeField>(a: &mut [F], shift: F) {
    intt(a);
    let shift_inv = shift.inverse().expect("coset shift must be nonzero");
    let mut power = F::ONE;
    for c in a.iter_mut() {
        *c *= power;
        power *= shift_inv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zaatar_field::{Field, PrimeField, F128, F61};

    fn evals_naive<F: PrimeField>(coeffs: &[F], n: usize) -> Vec<F> {
        let root = F::root_of_unity_of_order(n.trailing_zeros()).unwrap();
        (0..n)
            .map(|j| {
                let x = root.pow(j as u64);
                let mut acc = F::ZERO;
                for c in coeffs.iter().rev() {
                    acc = acc * x + *c;
                }
                acc
            })
            .collect()
    }

    #[test]
    fn ntt_matches_naive_evaluation() {
        let coeffs: Vec<F61> = (1..=8u64).map(F61::from_u64).collect();
        let mut a = coeffs.clone();
        ntt(&mut a);
        assert_eq!(a, evals_naive(&coeffs, 8));
    }

    #[test]
    fn ntt_intt_round_trip() {
        let coeffs: Vec<F128> = (0..64u64).map(|i| F128::from_u64(i * i + 3)).collect();
        let mut a = coeffs.clone();
        ntt(&mut a);
        intt(&mut a);
        assert_eq!(a, coeffs);
    }

    #[test]
    fn fft_mul_matches_schoolbook() {
        let a: Vec<F61> = (1..=70u64).map(F61::from_u64).collect();
        let b: Vec<F61> = (1..=90u64).map(|i| F61::from_u64(i * 3 + 1)).collect();
        let fast = fft_mul(&a, &b);
        let mut slow = vec![F61::ZERO; a.len() + b.len() - 1];
        for (i, x) in a.iter().enumerate() {
            for (j, y) in b.iter().enumerate() {
                slow[i + j] += *x * *y;
            }
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn fft_mul_empty() {
        assert!(fft_mul::<F61>(&[], &[F61::ONE]).is_empty());
    }

    #[test]
    fn length_one_is_identity() {
        let mut a = vec![F61::from_u64(5)];
        ntt(&mut a);
        assert_eq!(a[0], F61::from_u64(5));
        intt(&mut a);
        assert_eq!(a[0], F61::from_u64(5));
    }

    #[test]
    fn coset_round_trip() {
        let g = F61::multiplicative_generator();
        let coeffs: Vec<F61> = (0..16u64).map(|i| F61::from_u64(i + 7)).collect();
        let mut a = coeffs.clone();
        coset_ntt(&mut a, g);
        // Spot-check one coset evaluation.
        let root = F61::root_of_unity_of_order(4).unwrap();
        let x = g * root.pow(3);
        let expect: F61 = coeffs
            .iter()
            .rev()
            .fold(F61::ZERO, |acc, c| acc * x + *c);
        assert_eq!(a[3], expect);
        coset_intt(&mut a, g);
        assert_eq!(a, coeffs);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut a = vec![F61::ONE; 3];
        ntt(&mut a);
    }
}
