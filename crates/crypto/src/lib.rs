//! Cryptographic substrate for the Zaatar argument system.
//!
//! The linear commitment protocol (§2.2) requires an *additively
//! homomorphic* encryption scheme — the paper uses ElGamal with 1024-bit
//! keys — and the query generator uses the ChaCha stream cipher as a
//! pseudorandom generator (§5.1). Both are implemented here from scratch:
//!
//! * [`mp`] — dynamic-width multiprecision Montgomery arithmetic (the
//!   1024-bit modular exponentiation engine);
//! * [`group`] — Schnorr groups: prime-order subgroups of `Z_p*` whose
//!   order equals the *PCP field modulus*, so that homomorphic operations
//!   on exponents coincide exactly with field arithmetic (this is what
//!   makes the commitment's consistency check sound: `π(r)` computed in
//!   the exponent equals `π(r)` computed in `F`);
//! * [`elgamal`] — exponential ElGamal (`Enc(m) = (gᵏ, gᵐ·hᵏ)`) with the
//!   ciphertext-multiply and scalar-exponent homomorphisms the commitment
//!   needs (decryption recovers `gᵐ`, which suffices: the verifier only
//!   ever *compares* exponents it already knows);
//! * [`chacha`] — the ChaCha20 stream cipher, used as the protocol's PRG.

#![forbid(unsafe_code)]

pub mod chacha;
pub mod elgamal;
pub mod group;
pub mod mp;
pub mod primality;

pub use chacha::ChaChaPrg;
pub use elgamal::{Ciphertext, ElGamal, KeyPair};
pub use group::{FixedBaseTable, GroupElem, HasGroup, SchnorrGroup};
pub use primality::is_probable_prime;
