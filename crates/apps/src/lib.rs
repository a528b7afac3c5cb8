//! The paper's benchmark computations (§5.1): Partitioning Around
//! Medoids clustering, root finding by bisection, Floyd–Warshall
//! all-pairs shortest paths, the Fannkuch benchmark, and longest common
//! subsequence.
//!
//! Each benchmark provides:
//!
//! * a **ZSL program generator** parameterized exactly as the paper's
//!   experiments (`m`, `d`, `L`, …) — the programs are compiled
//!   automatically, never hand-tailored, which is the paper's central
//!   evaluation choice ("most of the evaluated computations in prior
//!   work were manually constructed");
//! * a deterministic **input generator**;
//! * a **native reference implementation** (the "local execution"
//!   baseline of Fig. 5/7, which the paper runs with GMP).
//!
//! [`suite::Suite`] enumerates all five for the benchmark harness, and
//! [`suite::build`] runs the full compilation pipeline (ZSL → Ginger
//! constraints → quadratic form) returning encoding statistics for the
//! Fig. 9 table.

#![forbid(unsafe_code)]

pub mod apsp;
pub mod bisection;
pub mod fannkuch;
pub mod gadget_zoo;
pub mod lcs;
pub mod pam;
pub mod suite;

pub use gadget_zoo::GadgetApp;
pub use suite::{build, AppArtifacts, Suite};
