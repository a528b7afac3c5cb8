//! Numeric encodings: signed integers and primitive fixed-point rationals
//! in a prime field.
//!
//! The paper's computations use 32-bit signed integers embedded in a
//! 128-bit field, and "primitive floating-point" rationals — values
//! `a/2^q` with bounded numerator and power-of-two denominator — for the
//! bisection and shortest-path benchmarks (§5.1; the representation is
//! from Ginger \[54\]). Addition of same-scale fixed-point values is exact;
//! multiplication adds scales; comparisons reduce to integer comparisons
//! of numerators. Bit widths grow accordingly, which is why bisection
//! needs the 220-bit field.

use zaatar_field::{Field, PrimeField};

/// Embeds a signed integer into the field (`x < 0 ↦ p − |x|`).
pub fn embed_i64<F: Field>(x: i64) -> F {
    F::from_i64(x)
}

/// Embeds a signed 128-bit integer.
pub fn embed_i128<F: Field>(x: i128) -> F {
    if x < 0 {
        -F::from_u128(x.unsigned_abs())
    } else {
        F::from_u128(x as u128)
    }
}

/// Decodes a field element back to a signed integer: values in the lower
/// half of the field `[0, p/2]` are non-negative, values in the upper
/// half represent `−(p − x)`. Returns `None` if the magnitude does not
/// fit an `i64`.
pub fn decode_i64<F: PrimeField>(x: F) -> Option<i64> {
    let words = x.to_canonical_words();
    // floor(p/2), little-endian.
    let mut half = F::modulus_words();
    let mut carry = 0u64;
    for w in half.iter_mut().rev() {
        let next = *w & 1;
        *w = (*w >> 1) | (carry << 63);
        carry = next;
    }
    let in_lower_half = {
        let mut le = true;
        for i in (0..words.len()).rev() {
            if words[i] != half[i] {
                le = words[i] < half[i];
                break;
            }
        }
        le
    };
    if in_lower_half {
        let fits = words[1..].iter().all(|w| *w == 0) && words[0] <= i64::MAX as u64;
        fits.then(|| words[0] as i64)
    } else {
        let neg_words = (-x).to_canonical_words();
        let fits = neg_words[1..].iter().all(|w| *w == 0) && neg_words[0] <= (1 << 63);
        fits.then(|| (neg_words[0] as i64).wrapping_neg())
    }
}

/// A fixed-point rational `num / 2^scale` embedded as the field element
/// `num · (2^scale)⁻¹` (the "primitive floating-point" type of \[54\]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FixedPoint {
    /// The power-of-two denominator exponent `q`.
    pub scale: u32,
}

impl FixedPoint {
    /// A fixed-point format with denominator `2^scale`.
    pub fn new(scale: u32) -> Self {
        FixedPoint { scale }
    }

    /// Encodes the rational `num / 2^scale`.
    pub fn encode<F: Field>(&self, num: i64) -> F {
        let denom_inv = F::from_u64(2)
            .pow(self.scale as u64)
            .inverse()
            .expect("2^q is nonzero in an odd-characteristic field");
        embed_i64::<F>(num) * denom_inv
    }

    /// Decodes a field element known to be `num / 2^scale` back to its
    /// numerator. Returns `None` if the numerator does not fit `i64`.
    pub fn decode<F: PrimeField>(&self, x: F) -> Option<i64> {
        let scaled = x * F::from_u64(2).pow(self.scale as u64);
        decode_i64(scaled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zaatar_field::{F128, F220, F61};

    #[test]
    fn embed_decode_round_trip() {
        for v in [0i64, 1, -1, 42, -42, i64::MAX / 2, -(i64::MAX / 2)] {
            assert_eq!(decode_i64::<F128>(embed_i64(v)), Some(v), "v={v}");
            assert_eq!(decode_i64::<F61>(embed_i64(v % (1 << 59))), Some(v % (1 << 59)));
        }
    }

    #[test]
    fn decode_rejects_large() {
        // A huge positive value (p−1)/2-ish decodes to None.
        let big = F128::from_u128(u128::MAX / 3);
        assert_eq!(decode_i64(big), None);
    }

    #[test]
    fn embed_i128_negative() {
        let x = embed_i128::<F220>(-5_000_000_000_000_000_000_000i128);
        let y = embed_i128::<F220>(5_000_000_000_000_000_000_000i128);
        assert_eq!(x + y, F220::ZERO);
    }

    #[test]
    fn fixed_point_round_trip() {
        let fp = FixedPoint::new(5);
        for num in [0i64, 1, -1, 31, -32, 1000] {
            let enc: F128 = fp.encode(num);
            assert_eq!(fp.decode(enc), Some(num), "num={num}");
        }
    }

    #[test]
    fn fixed_point_addition_is_exact() {
        // 3/32 + 5/32 = 8/32.
        let fp = FixedPoint::new(5);
        let a: F128 = fp.encode(3);
        let b: F128 = fp.encode(5);
        assert_eq!(fp.decode(a + b), Some(8));
    }

    #[test]
    fn fixed_point_multiplication_doubles_scale() {
        // (3/4)·(5/4) = 15/16: encode at scale 2, decode at scale 4.
        let fp2 = FixedPoint::new(2);
        let fp4 = FixedPoint::new(4);
        let a: F128 = fp2.encode(3);
        let b: F128 = fp2.encode(5);
        assert_eq!(fp4.decode(a * b), Some(15));
    }

    #[test]
    fn mixed_scale_addition_via_common_scale() {
        // 1/2 + 1/8 = 5/8: rescale numerators to scale 3.
        let half: F128 = FixedPoint::new(1).encode(1);
        let eighth: F128 = FixedPoint::new(3).encode(1);
        assert_eq!(FixedPoint::new(3).decode(half + eighth), Some(5));
    }
}
