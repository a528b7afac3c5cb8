//! The constraint compiler: from high-level programs to the constraint
//! formalisms of Ginger and Zaatar.
//!
//! The pipeline mirrors the paper's (§2.1, §4, and \[16\]):
//!
//! 1. a program in **ZSL** (a small imperative language standing in for
//!    SFDL; see [`lang`]) is parsed and *flattened* — bounded loops are
//!    unrolled, both branches of conditionals are evaluated and merged
//!    with multiplexers — into a straight line of assignments;
//! 2. each assignment becomes a constraint or *pseudoconstraint* via the
//!    gadget library in [`builder`] (`!=` costs two constraints with an
//!    auxiliary inverse variable; order comparisons expand to `O(log |F|)`
//!    constraints via bit decomposition, exactly as §2.2 describes);
//! 3. the resulting **Ginger constraints** (general degree-2 equations,
//!    [`ir::GingerSystem`]) are transformed to **quadratic form**
//!    (`p_A · p_B = p_C`, [`ir::QuadSystem`]): a constraint that is
//!    already a product of two linear forms is emitted as is, and any
//!    other has each distinct degree-2 term replaced by a new variable
//!    ([`transform`], §4) — the `K₂′ ≤ K₂` extra variables and
//!    constraints that Fig. 3 accounts for.
//!
//! Witness generation (step Á of Fig. 1: the prover "solves the
//! constraints") is handled by the same builder: every gadget records a
//! deterministic solver step, so [`builder::WitnessSolver::solve`] executes the
//! computation and fills in every auxiliary variable.

#![forbid(unsafe_code)]

pub mod builder;
pub mod gadgets;
pub mod ir;
pub mod lang;
pub mod numeric;
pub mod stats;
pub mod transform;

pub use builder::{Builder, SolveError};
pub use gadgets::U32Word;
pub use ir::{
    Assignment, GingerConstraint, GingerSystem, Kind, LinComb, QuadConstraint, QuadSystem, VarId,
};
pub use lang::compile as compile_zsl;
pub use stats::{ginger_stats, quad_stats, EncodingStats};
pub use transform::{ginger_to_quad, linearize_io, IoLinearize, QuadTransform};
