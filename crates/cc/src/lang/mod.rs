//! ZSL: a small imperative language compiled to constraints.
//!
//! ZSL stands in for the SFDL front-end of the paper's compiler (§1, §5.1:
//! "translate computations written in SFDL to constraints in quadratic
//! form"). It supports the constructs the paper lists in §2.2 — arithmetic,
//! if-then-else, logical tests and connectives, equality and order
//! comparisons — plus bounded `for` loops and fixed-size arrays with
//! compile-time indices. Loops are fully unrolled and both branches of
//! data-dependent conditionals are evaluated and merged with multiplexers
//! (the Fairplay-descended "list of assignment statements" strategy).
//!
//! # Example
//!
//! ```
//! use zaatar_cc::lang::{compile, CompileOptions};
//! use zaatar_field::{Field, F61};
//!
//! let src = r"
//!     input a[3];
//!     output max;
//!     var m = a[0];
//!     for i in 1..3 {
//!         if (m < a[i]) { m = a[i]; }
//!     }
//!     max = m;
//! ";
//! let compiled = compile::<F61>(src, &CompileOptions::default()).unwrap();
//! let inputs: Vec<F61> = [5u64, 9, 2].iter().map(|&v| F61::from_u64(v)).collect();
//! let outputs = compiled.solver.run(&inputs).unwrap();
//! assert_eq!(outputs, vec![F61::from_u64(9)]);
//! ```

pub mod ast;
pub mod compile;
pub mod parser;

pub use ast::{BinOp, Expr, Program, Stmt, UnOp};
pub use compile::{compile, Compiled, CompileError, CompileOptions};
pub use parser::parse;
