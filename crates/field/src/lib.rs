//! Finite-field arithmetic for the Zaatar verified-computation stack.
//!
//! The paper (§5.1) runs its protocol over prime fields of two sizes: a
//! 128-bit prime modulus for integer benchmarks and a 220-bit modulus for the
//! rational-arithmetic benchmark (root finding by bisection). This crate
//! provides from-scratch implementations of both, plus a small 61-bit field
//! used to keep unit tests and property tests fast.
//!
//! All fields are instantiations of a single generic Montgomery-form
//! representation, [`Fp`], parameterized by a compile-time constant table
//! ([`FpParams`]). The concrete moduli were chosen to be *FFT-friendly*
//! (`p = c·2³² + 1`) so that the QAP polynomial arithmetic in `zaatar-poly`
//! can use radix-2 NTTs; DESIGN.md §3 documents why this substitution is
//! sound with respect to the paper's protocol.
//!
//! # Examples
//!
//! ```
//! use zaatar_field::{F128, Field};
//!
//! let a = F128::from_u64(7);
//! let b = F128::from_u64(6);
//! assert_eq!(a * b, F128::from_u64(42));
//! assert_eq!(a * a.inverse().unwrap(), F128::ONE);
//! ```

#![forbid(unsafe_code)]

pub mod batch;
pub mod fp;
pub mod limbs;
pub mod params;
pub mod testutil;
pub mod traits;

pub use batch::{batch_inverse, batch_inverse_into};
pub use fp::Fp;
pub use params::{F128Params, F220Params, F61Params};
pub use traits::{Field, FpParams, PrimeField};

/// The 128-bit field used for the integer benchmarks (§5.1).
///
/// `p = 0xfffffffffffffffffffffff700000001`, a 128-bit prime with
/// 2-adicity 32.
pub type F128 = Fp<F128Params, 2>;

/// The 220-bit field used for the rational-arithmetic benchmark (§5.1).
///
/// `p = 0xffffffffffffffffffffffffffffffffffffffffffffffd00000001`, a
/// 220-bit prime with 2-adicity 32.
pub type F220 = Fp<F220Params, 4>;

/// A 61-bit test field (`p = 0x1ffffff900000001`), small enough that
/// reference computations fit in `u128`, used to cross-check the generic
/// Montgomery machinery.
pub type F61 = Fp<F61Params, 1>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_sizes() {
        assert_eq!(<F128 as PrimeField>::NUM_BITS, 128);
        assert_eq!(<F220 as PrimeField>::NUM_BITS, 220);
        assert_eq!(<F61 as PrimeField>::NUM_BITS, 61);
    }
}
