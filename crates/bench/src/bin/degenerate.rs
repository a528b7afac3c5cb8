//! The §4 degenerate-case ablation: sweep a *dense degree-2 polynomial
//! evaluation* — the computation the paper names as Ginger's best case
//! ("an example is degree-2 polynomial evaluation, for which the Ginger
//! encoding is actually very concise") — and locate the regime where
//! `K₂` approaches `K₂* = (|Z|² − |Z|)/2`, flipping the proof-length
//! comparison. Also shows the hybrid compiler choice of §4's footnote
//! (detect the degenerate case and fall back to Ginger, as in the
//! Allspice hybrid, the paper's reference 57).

use zaatar_bench::{fmt_count, print_table};
use zaatar_cc::{ginger_stats, ginger_to_quad, Builder, LinComb};
use zaatar_field::F128;

/// Builds `y = Σ_{i≤j} x_i·x_j` over `m` materialized variables: every
/// variable pair appears as a distinct degree-2 term, so `K₂` is maximal.
fn dense_poly_eval(m: usize) -> zaatar_cc::GingerSystem<F128> {
    let mut b = Builder::<F128>::new();
    let inputs = b.alloc_inputs(m);
    // Materialize each input into an unbound variable (the paper's
    // compiler binds inputs to Z-variables before use).
    let xs: Vec<LinComb<F128>> = inputs.iter().map(|x| b.materialize(x)).collect();
    let mut pairs = Vec::new();
    for i in 0..m {
        for x in xs.iter().skip(i) {
            pairs.push((xs[i].clone(), x.clone()));
        }
    }
    let y = b.sum_of_products(&pairs);
    b.bind_output(&y);
    let (sys, _) = b.finish();
    sys
}

fn main() {
    println!("== Degenerate-K2 ablation: dense degree-2 polynomial evaluation ==\n");
    let mut rows = Vec::new();
    for m in [4usize, 8, 16, 32, 64] {
        let sys = dense_poly_eval(m);
        let st = ginger_stats(&sys);
        // What the transform emits: the dense sum has no common factor,
        // so every distinct term is replaced (K₂′ = K₂ here).
        let k2_emitted = ginger_to_quad(&sys).k2();
        rows.push(vec![
            format!("m={m}"),
            fmt_count(st.num_unbound as f64),
            fmt_count(st.k2_distinct as f64),
            fmt_count(st.k2_star() as f64),
            fmt_count(st.ginger_proof_len() as f64),
            fmt_count(st.zaatar_proof_len() as f64 + 2.0 * k2_emitted as f64),
            if st.prefer_zaatar() { "Zaatar" } else { "Ginger" }.to_string(),
        ]);
    }
    print_table(
        &[
            "size",
            "|Z_g|",
            "K2",
            "K2*",
            "|u_ginger|",
            "|u_zaatar|",
            "hybrid picks",
        ],
        &rows,
    );
    println!(
        "\nIn this regime K2 ≈ K2* (each constraint averages (|Z|−1)/2 distinct\n\
         degree-2 terms), so Zaatar's advantage vanishes — but §4 shows even the\n\
         worst case obeys |u_zaatar| <= |u_ginger|·(1 + 2/(|Z|+1)). The benchmarks\n\
         of Fig. 9 sit nowhere near this regime (see figure9's K2 columns)."
    );
}
