//! The [`Field`] and [`PrimeField`] abstractions, and the compile-time
//! parameter table ([`FpParams`]) that instantiates a concrete prime field.

use core::fmt::{Debug, Display};
use core::hash::Hash;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An element of a finite field.
///
/// Implementors are plain `Copy` value types with unique (canonical) internal
/// representations, so `Eq`/`Hash` behave as mathematical equality.
pub trait Field:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + Eq
    + PartialEq
    + Hash
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + Product
{
    /// The additive identity.
    const ZERO: Self;

    /// The multiplicative identity.
    const ONE: Self;

    /// Returns `true` if this element is the additive identity.
    fn is_zero(&self) -> bool;

    /// Returns `self * self`.
    fn square(&self) -> Self;

    /// Returns `self + self`.
    fn double(&self) -> Self;

    /// Returns the multiplicative inverse, or `None` for zero.
    fn inverse(&self) -> Option<Self>;

    /// Raises `self` to the power `exp`.
    fn pow(&self, exp: u64) -> Self;

    /// Embeds an unsigned integer, reducing it modulo the field
    /// characteristic.
    fn from_u64(value: u64) -> Self;

    /// Embeds a signed integer (negative values map to `p - |value|`).
    fn from_i64(value: i64) -> Self {
        if value < 0 {
            -Self::from_u64(value.unsigned_abs())
        } else {
            Self::from_u64(value as u64)
        }
    }

    /// Embeds a 128-bit unsigned integer, reducing it modulo the field
    /// characteristic.
    fn from_u128(value: u128) -> Self {
        // 2^64 = (2^32)^2 as a field element.
        let shift = Self::from_u64(1 << 32).square();
        Self::from_u64((value >> 64) as u64) * shift + Self::from_u64(value as u64)
    }

    /// The inner product `Σ aᵢ·bᵢ` on the deferred-reduction kernel
    /// (§5.1's `f_lazy`): unreduced products accumulate in a wide
    /// integer and the sum is reduced once. Reduction is exact, so the
    /// result is the element the `s += a * b` loop produces.
    ///
    /// The slices must have equal lengths (checked in debug builds).
    fn dot(a: &[Self], b: &[Self]) -> Self;

    /// The transpose of [`Field::dot`] on the same kernel:
    /// `out[j] += Σᵢ coeffs[i]·rows[i][j]`, every column's sum reduced
    /// once.
    ///
    /// # Panics
    ///
    /// Panics if a row is shorter than `out`; `coeffs` and `rows` must
    /// have equal lengths (checked in debug builds).
    fn add_scaled_rows(out: &mut [Self], coeffs: &[Self], rows: &[&[Self]]);

    /// Samples a uniformly random field element, drawing 64-bit words from
    /// the supplied entropy source (rejection sampling).
    ///
    /// Keeping the entropy source abstract lets both `rand` RNGs (tests) and
    /// the ChaCha PRG from `zaatar-crypto` (the protocol's query generator,
    /// §5.1) drive sampling without this crate depending on either.
    fn random_from<F: FnMut() -> u64>(next_u64: F) -> Self;
}

/// A prime-order field `F_p` with access to its modulus and 2-adic structure.
pub trait PrimeField: Field {
    /// Bit length of the modulus.
    const NUM_BITS: u32;

    /// Largest `s` such that `2^s` divides `p − 1`.
    const TWO_ADICITY: u32;

    /// Number of 64-bit words in the canonical representation.
    const NUM_WORDS: usize;

    /// The modulus, as little-endian 64-bit words.
    fn modulus_words() -> Vec<u64>;

    /// An element of multiplicative order exactly `2^TWO_ADICITY`.
    fn two_adic_root_of_unity() -> Self;

    /// A quadratic non-residue (used to derive roots of unity).
    fn multiplicative_generator() -> Self;

    /// Raises `self` to a multi-word exponent (little-endian words).
    fn pow_words(&self, exp: &[u64]) -> Self;

    /// Returns the canonical (non-Montgomery) little-endian words.
    fn to_canonical_words(&self) -> Vec<u64>;

    /// Builds an element from canonical little-endian words; `None` if the
    /// value is not fully reduced (`>= p`) or has the wrong length.
    fn from_canonical_words(words: &[u64]) -> Option<Self>;

    /// Serializes to canonical little-endian bytes (`8 * NUM_WORDS` bytes).
    fn to_bytes_le(&self) -> Vec<u8> {
        self.to_canonical_words()
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect()
    }

    /// Deserializes from canonical little-endian bytes.
    fn from_bytes_le(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 8 * Self::NUM_WORDS {
            return None;
        }
        let words: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
            .collect();
        Self::from_canonical_words(&words)
    }

    /// Returns `p − 1` divided by `2^k` as an exponent, useful for computing
    /// roots of unity of order `2^k`.
    fn root_of_unity_of_order(log2_order: u32) -> Option<Self> {
        if log2_order > Self::TWO_ADICITY {
            return None;
        }
        let mut root = Self::two_adic_root_of_unity();
        for _ in 0..(Self::TWO_ADICITY - log2_order) {
            root = root.square();
        }
        Some(root)
    }
}

/// Compile-time parameters defining a concrete prime field with an `N`-word
/// Montgomery representation (`R = 2^(64N)`).
///
/// The constant tables for the shipped fields were generated offline (see
/// `params.rs` for the exact values and the derivation notes).
pub trait FpParams<const N: usize>:
    Copy + Clone + Debug + Default + Eq + PartialEq + Hash + Send + Sync + 'static
{
    /// The prime modulus `p`, little-endian words. Must be odd and `< 2^(64N)`.
    const MODULUS: [u64; N];

    /// `R mod p` where `R = 2^(64N)` — the Montgomery form of one.
    const R: [u64; N];

    /// `R² mod p`, used to convert into Montgomery form.
    const R2: [u64; N];

    /// `−p⁻¹ mod 2⁶⁴`, the Montgomery reduction constant.
    const INV: u64;

    /// Bit length of `p`.
    const NUM_BITS: u32;

    /// 2-adicity of `p − 1`.
    const TWO_ADICITY: u32;

    /// A small quadratic non-residue (canonical value).
    const GENERATOR: u64;

    /// A `2^TWO_ADICITY`-th primitive root of unity (canonical words).
    const ROOT_OF_UNITY: [u64; N];
}
