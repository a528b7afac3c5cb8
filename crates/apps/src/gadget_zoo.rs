//! The gadget workload zoo: three small builder-level computations that
//! exercise the `crates/cc` gadget library (bit decomposition, u32
//! bitwise ops, comparisons, the ARX hash round) rather than the ZSL
//! front end.
//!
//! Unlike [`crate::suite::Suite`], whose five members reproduce the
//! paper's Fig. 9 benchmarks, these circuits are chosen to be
//! *heterogeneous* — three genuinely different constraint systems that
//! one multi-tenant session can carry side by side. They are emitted
//! mechanically, redundancy included (shared bit products between XOR
//! and MAJ, sign-mirrored mux products in compare-exchange, and the
//! symmetric half of a Gram matrix): nothing downstream cleans it up.
//!
//! Each member provides `build` (Ginger system + witness solver),
//! a deterministic input generator, and a native i64/u32 reference.

use zaatar_cc::builder::WitnessSolver;
use zaatar_cc::gadgets::{arx_quarter_round_ref, maj_ref};
use zaatar_cc::{Builder, GingerSystem, LinComb};
use zaatar_field::testutil::SplitMix64;
use zaatar_field::{Field, PrimeField};

/// ARX rounds in the hash chain.
const HASH_ROUNDS: usize = 2;
/// Elements sorted by the merge-sort check.
const SORT_N: usize = 4;
/// Sorted values live in `[0, 2^SORT_WIDTH)`.
const SORT_WIDTH: usize = 16;
/// Matrix side for the Gram-matrix product.
const MAT_N: usize = 3;
/// Matrix entries are small non-negative integers below this bound.
const MAT_BOUND: i64 = 64;

/// One of the three gadget-built workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GadgetApp {
    /// A chain of ARX quarter rounds with a MAJ/XOR mixing step over a
    /// 4-word u32 state.
    HashChain,
    /// A Batcher sorting network over four width-16 values; outputs the
    /// sorted sequence.
    MergeSortCheck,
    /// The Gram matrix `A·Aᵀ` of a 3×3 integer matrix, all nine entries
    /// (the symmetric half is encoded redundantly on purpose).
    MatMul,
}

impl GadgetApp {
    /// All three workloads.
    pub fn all() -> [GadgetApp; 3] {
        [
            GadgetApp::HashChain,
            GadgetApp::MergeSortCheck,
            GadgetApp::MatMul,
        ]
    }

    /// Display name (also the bench-report key).
    pub fn name(&self) -> &'static str {
        match self {
            GadgetApp::HashChain => "hash_chain",
            GadgetApp::MergeSortCheck => "merge_sort_check",
            GadgetApp::MatMul => "mat_mul",
        }
    }

    /// Number of public inputs.
    pub fn num_inputs(&self) -> usize {
        match self {
            GadgetApp::HashChain => 4,
            GadgetApp::MergeSortCheck => SORT_N,
            GadgetApp::MatMul => MAT_N * MAT_N,
        }
    }

    /// Builds the circuit: Ginger constraints plus the witness solver.
    pub fn build<F: PrimeField>(&self) -> (GingerSystem<F>, WitnessSolver<F>) {
        match self {
            GadgetApp::HashChain => build_hash_chain(),
            GadgetApp::MergeSortCheck => build_merge_sort_check(),
            GadgetApp::MatMul => build_mat_mul(),
        }
    }

    /// Deterministic instance inputs, in range for the circuit.
    pub fn gen_inputs<F: Field>(&self, seed: u64) -> Vec<F> {
        self.gen_raw_inputs(seed)
            .into_iter()
            .map(F::from_i64)
            .collect()
    }

    /// The same inputs as native integers (for [`GadgetApp::reference`]).
    pub fn gen_raw_inputs(&self, seed: u64) -> Vec<i64> {
        // Offset the stream per app so a session mixing all three at the
        // same seed still feeds them distinct data.
        let mut rng = SplitMix64::new(seed ^ (0xa5a5 + *self as u64));
        let bound = match self {
            GadgetApp::HashChain => 1 << 32,
            GadgetApp::MergeSortCheck => 1 << SORT_WIDTH,
            GadgetApp::MatMul => MAT_BOUND as u64,
        };
        (0..self.num_inputs())
            .map(|_| rng.range_u64(0, bound) as i64)
            .collect()
    }

    /// Native reference over the same integer inputs.
    pub fn reference(&self, inputs: &[i64]) -> Vec<i64> {
        assert_eq!(inputs.len(), self.num_inputs(), "{}", self.name());
        match self {
            GadgetApp::HashChain => {
                let (mut a, mut b, mut c, mut d) = (
                    inputs[0] as u32,
                    inputs[1] as u32,
                    inputs[2] as u32,
                    inputs[3] as u32,
                );
                for _ in 0..HASH_ROUNDS {
                    (a, b, c, d) = arx_quarter_round_ref(a, b, c, d);
                    let mixed = maj_ref(a, b, c).wrapping_add(a ^ b);
                    (a, b, c, d) = (b, c, d, mixed);
                }
                vec![a as i64, b as i64, c as i64, d as i64]
            }
            GadgetApp::MergeSortCheck => {
                let mut v = inputs.to_vec();
                v.sort_unstable();
                v
            }
            GadgetApp::MatMul => {
                let n = MAT_N;
                let mut out = vec![0i64; n * n];
                for i in 0..n {
                    for j in 0..n {
                        out[i * n + j] =
                            (0..n).map(|k| inputs[i * n + k] * inputs[j * n + k]).sum();
                    }
                }
                out
            }
        }
    }
}

/// Hash chain: each round is one ARX quarter round followed by a
/// MAJ/XOR mixing step. MAJ(a,b,c) and a⊕b both materialize the 32 bit
/// products `aᵢ·bᵢ`, so every round carries 32 of them twice.
fn build_hash_chain<F: PrimeField>() -> (GingerSystem<F>, WitnessSolver<F>) {
    let mut bld = Builder::<F>::new();
    let mut a = bld.u32_input();
    let mut b = bld.u32_input();
    let mut c = bld.u32_input();
    let mut d = bld.u32_input();
    for _ in 0..HASH_ROUNDS {
        (a, b, c, d) = bld.arx_quarter_round(&a, &b, &c, &d);
        let m = bld.u32_maj(&a, &b, &c);
        let x = bld.u32_xor(&a, &b);
        let mixed = bld.u32_add(&m, &x);
        (a, b, c, d) = (b, c, d, mixed);
    }
    for w in [&a, &b, &c, &d] {
        bld.bind_output(&w.to_lc());
    }
    bld.finish()
}

/// Compare-exchange: both outputs go through `mux` on the same flag, so
/// the two products `s·(a−b)` and `s·(b−a)` are sign mirrors of each
/// other.
fn compare_exchange<F: PrimeField>(
    bld: &mut Builder<F>,
    a: &LinComb<F>,
    b: &LinComb<F>,
) -> (LinComb<F>, LinComb<F>) {
    let s = bld.less_than(a, b, SORT_WIDTH);
    let lo = bld.mux(&s, a, b);
    let hi = bld.mux(&s, b, a);
    (lo, hi)
}

/// Batcher's 4-element sorting network (5 comparators).
fn build_merge_sort_check<F: PrimeField>() -> (GingerSystem<F>, WitnessSolver<F>) {
    let mut bld = Builder::<F>::new();
    let mut v: Vec<LinComb<F>> = bld.alloc_inputs(SORT_N);
    for (i, j) in [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)] {
        let (lo, hi) = compare_exchange(&mut bld, &v[i], &v[j]);
        v[i] = lo;
        v[j] = hi;
    }
    for out in &v {
        bld.bind_output(out);
    }
    bld.finish()
}

/// Gram matrix `G = A·Aᵀ`, each scalar product `A[i][k]·A[j][k]`
/// materialized as its own variable (one `mul` per product, the
/// Fairplay-style encoding). `G` is symmetric, and the circuit encodes
/// both `G[i][j]` and `G[j][i]` independently, so every off-diagonal
/// product appears twice — nine identical defining constraints.
fn build_mat_mul<F: PrimeField>() -> (GingerSystem<F>, WitnessSolver<F>) {
    let n = MAT_N;
    let mut bld = Builder::<F>::new();
    let a: Vec<LinComb<F>> = bld.alloc_inputs(n * n);
    for i in 0..n {
        for j in 0..n {
            let mut g = LinComb::zero();
            for k in 0..n {
                let p = bld.mul(&a[i * n + k], &a[j * n + k]);
                g = g.add(&p);
            }
            bld.bind_output(&g);
        }
    }
    bld.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zaatar_cc::numeric::decode_i64;
    use zaatar_field::F61;

    #[test]
    fn every_gadget_app_matches_its_reference() {
        for app in GadgetApp::all() {
            for seed in 0..3u64 {
                let (sys, solver) = app.build::<F61>();
                let raw = app.gen_raw_inputs(seed);
                let inputs: Vec<F61> = app.gen_inputs(seed);
                let asg = solver
                    .solve(&inputs)
                    .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
                assert!(sys.is_satisfied(&asg), "{}", app.name());
                let outs: Vec<i64> = asg
                    .extract(solver.outputs())
                    .into_iter()
                    .map(|v| decode_i64(v).expect("u32-ranged output"))
                    .collect();
                assert_eq!(outs, app.reference(&raw), "{} seed {seed}", app.name());
            }
        }
    }
}
