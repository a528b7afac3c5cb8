//! Univariate polynomial arithmetic for the Zaatar verified-computation
//! stack.
//!
//! The QAP-based linear PCP (paper §3, App. A) is built entirely out of
//! univariate polynomial operations over a prime field:
//!
//! * the prover interpolates `A(t)`, `B(t)`, `C(t)` from their values on the
//!   constraint domain, multiplies them, and divides by the divisor
//!   polynomial `D(t)` to obtain the quotient `H(t)` — `≈ 3·f·|C|·log|C|`
//!   field operations (§4, App. A.3);
//! * the verifier evaluates all the `{Aᵢ(τ), Bᵢ(τ), Cᵢ(τ)}` via a
//!   barycentric Lagrange basis at a random point `τ` (App. A.3).
//!
//! This crate supplies those operations: dense polynomials ([`DensePoly`]),
//! cached NTT kernels ([`plan`]) with instrumented wrappers ([`fft`]),
//! evaluation domains with barycentric machinery ([`domain`]), and
//! asymptotically fast division/multipoint algorithms ([`fast`]) for
//! domains that are not multiplicative subgroups. Nothing here starts a
//! thread (the crate cannot reach `zaatar-sched`, which owns them): a
//! transform runs on its caller's thread, and parallelism is across the
//! instances of a batch.

#![forbid(unsafe_code)]

pub mod dense;
pub mod domain;
pub mod fast;
pub mod fft;
pub mod plan;
pub mod sparse;

pub use dense::DensePoly;
pub use domain::{ArithDomain, EvalDomain, Radix2Domain};
pub use plan::{plan_for, plan_for_len, NttPlan};
pub use sparse::SparsePoly;
