//! Compiler-strategy ablations:
//!
//! 1. **Assignment materialization** (the Fairplay-style one variable per
//!    statement the paper's compiler uses, giving `|C| ≈ |Z|`, §4 fn. 6)
//!    vs symbolic propagation — how much encoding size the paper-faithful
//!    strategy costs, per benchmark.
//! 2. **Dynamic indexing** (§5.4's "natural translation" of indirect
//!    memory access): constraints per data-dependent read as the array
//!    grows.

use zaatar_apps::Suite;
use zaatar_bench::{fmt_count, print_table, Scale};
use zaatar_cc::lang::{compile, CompileOptions};
use zaatar_cc::{ginger_stats, ginger_to_quad};
use zaatar_field::F128;

fn main() {
    let scale = Scale::from_env();
    println!("== Ablation 1: assignment materialization vs symbolic propagation ==\n");
    let mut rows = Vec::new();
    for app in scale.suite() {
        let mat = stats(&app, true);
        let sym = stats(&app, false);
        rows.push(vec![
            app.name().to_string(),
            app.params(),
            fmt_count(mat.0),
            fmt_count(sym.0),
            format!("{:.2}x", mat.0 / sym.0),
            fmt_count(mat.1),
            fmt_count(sym.1),
            format!("{:.2}x", mat.1 / sym.1),
        ]);
    }
    print_table(
        &[
            "computation",
            "params",
            "|C_z| mat",
            "|C_z| sym",
            "ratio",
            "|u_z| mat",
            "|u_z| sym",
            "ratio",
        ],
        &rows,
    );
    println!(
        "\nMaterialization reproduces the paper compiler's |C| ≈ |Z| accounting. Product\n\
         gates are emitted as written in both modes, so it costs what it looks like it\n\
         costs — one variable and one constraint per statement, a few percent to a\n\
         fifth — except where symbolic propagation lets long linear combinations meet\n\
         in a product (bisection): that expansion has no common variable and pays a\n\
         product variable per distinct degree-2 term, while the statement-per-variable\n\
         structure keeps every product a single term.\n"
    );

    println!("== Ablation 2: the §5.4 dynamic-indexing translation ==\n");
    let mut rows = Vec::new();
    for n in [4usize, 16, 64, 256] {
        let src = format!("input a[{n}]; input i; output y; y = a[i];");
        let opts = CompileOptions {
            dynamic_indexing: true,
            ..CompileOptions::default()
        };
        let compiled = compile::<F128>(&src, &opts).expect("compiles");
        let st = ginger_stats(&compiled.ginger);
        rows.push(vec![
            format!("a[{n}]"),
            st.num_constraints.to_string(),
            format!("{:.1}", st.num_constraints as f64 / n as f64),
        ]);
    }
    print_table(&["array", "constraints per read", "per element"], &rows);
    println!(
        "\nEach data-dependent read costs Θ(n) constraints — the 'excessive number\n\
         of constraints' §5.4 cites as the reason RAM-style programs need the\n\
         later literature's routing-network techniques."
    );
}

/// `(constraints, proof length)` of the Zaatar encoding under the given
/// materialization mode.
fn stats(app: &Suite, materialize: bool) -> (f64, f64) {
    let opts = CompileOptions {
        materialize,
        ..app.options()
    };
    let compiled = compile::<F128>(&app.zsl(), &opts).expect("compiles");
    let quad = ginger_to_quad(&compiled.ginger);
    let st = zaatar_cc::quad_stats(&quad.system);
    (
        st.num_constraints as f64,
        st.zaatar_proof_len() as f64,
    )
}
