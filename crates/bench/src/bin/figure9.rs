//! Reproduces the Fig. 9 table: computation encodings — `|Z|`, `|C|`
//! for both systems and the proof-vector lengths `|u_ginger|`,
//! `|u_zaatar|` — for every benchmark (the Zaatar columns as emitted,
//! with §4's mechanical-rule sizes `|C_g| + K₂` and
//! `|Z_g| + |C_g| + 2K₂` beside them), plus a scaling sweep that fits
//! the growth exponent in `m` (the paper's formulas are polynomials in
//! `m`, e.g. `|u_ginger| = 7140·m⁶` vs `|u_zaatar| = 173·m³` for APSP).

use zaatar_apps::build;
use zaatar_bench::{fmt_count, print_table, Scale};
use zaatar_field::F128;

fn main() {
    let scale = Scale::from_env();
    println!("== Figure 9: computation encodings ==\n");
    let mut rows = Vec::new();
    for app in scale.suite() {
        let art = build::<F128>(&app);
        let g = &art.ginger_stats;
        let z = &art.zaatar_stats;
        rows.push(vec![
            app.name().to_string(),
            app.complexity().to_string(),
            app.params(),
            fmt_count(g.num_unbound as f64),
            fmt_count(z.num_unbound as f64),
            fmt_count(g.num_constraints as f64),
            fmt_count(z.num_constraints as f64),
            fmt_count((g.num_constraints + g.k2_distinct) as f64),
            fmt_count(g.ginger_proof_len() as f64),
            fmt_count(z.zaatar_proof_len() as f64),
            fmt_count((g.num_unbound + g.num_constraints + 2 * g.k2_distinct) as f64),
            format!(
                "{:.0}x",
                g.ginger_proof_len() as f64 / z.zaatar_proof_len() as f64
            ),
        ]);
    }
    print_table(
        &[
            "computation",
            "O(.)",
            "params",
            "|Z_g|",
            "|Z_z|",
            "|C_g|",
            "|C_z|",
            "|C_z| §4",
            "|u_g|",
            "|u_z|",
            "|u_z| §4",
            "|u_g|/|u_z|",
        ],
        &rows,
    );

    println!("\n== Proof-length growth exponents in m (three sizes per benchmark) ==\n");
    let mut rows = Vec::new();
    for app in scale.suite() {
        let sizes = scale.scaling_sizes(&app);
        let mut points = Vec::new();
        for m in &sizes {
            let art = build::<F128>(&app.with_m(*m));
            points.push((
                *m as f64,
                art.ginger_stats.ginger_proof_len() as f64,
                art.zaatar_stats.zaatar_proof_len() as f64,
            ));
        }
        let exp = |a: f64, b: f64, ma: f64, mb: f64| (b / a).ln() / (mb / ma).ln();
        let (m0, g0, z0) = points[0];
        let (m2, g2, z2) = points[2];
        rows.push(vec![
            app.name().to_string(),
            format!("{:?}", sizes),
            format!("{:.2}", exp(g0, g2, m0, m2)),
            format!("{:.2}", exp(z0, z2, m0, m2)),
        ]);
    }
    print_table(
        &[
            "computation",
            "m values",
            "|u_ginger| exponent",
            "|u_zaatar| exponent",
        ],
        &rows,
    );
    println!(
        "\nPaper shape: |u_ginger| grows with twice the exponent of |u_zaatar|\n\
         (e.g. APSP m^6 vs m^3; LCS m^4 vs m^2; PAM m^4 vs m^2)."
    );
}
