//! Reproduces Fig. 8: prover running time as input sizes scale (three
//! sizes per benchmark, each roughly doubling `m`) — Zaatar should scale
//! (near-)linearly in the constraint count, Ginger quadratically in
//! `|Z|`.
//!
//! For each size the Zaatar prover is measured and the Ginger prover is
//! estimated (Fig. 3 model); the last column reports the empirical
//! scaling exponent between consecutive sizes.

use zaatar_bench::{fmt_secs, measure_app, print_table, Scale};
use zaatar_bench::cost::{measure_micro_params, CostModel};
use zaatar_core::pcp::PcpParams;
use zaatar_field::F128;

fn main() {
    let scale = Scale::from_env();
    let model = CostModel::new(measure_micro_params::<F128>());
    println!("== Figure 8: prover running time vs input size ==");
    println!("(scale {scale:?}; Zaatar measured, Ginger model-estimated)\n");

    for app in scale.suite() {
        println!("-- {} --", app.name());
        let sizes = scale.scaling_sizes(&app);
        let mut rows = Vec::new();
        let mut prev: Option<(f64, f64, f64)> = None; // (|C|, zaatar, ginger)
        for m in sizes {
            let sized = app.with_m(m);
            let run = measure_app::<F128>(&sized, 1, 5, PcpParams::default());
            assert!(run.all_accepted, "{} m={m} failed", run.name);
            let z = run.prover_total();
            let g = model.ginger_prover_total(&run.spec);
            let c = run.spec.c_zaatar();
            let exps = prev.map(|(c0, z0, g0)| {
                let dx = (c / c0).ln();
                ((z / z0).ln() / dx, (g / g0).ln() / dx)
            });
            rows.push(vec![
                sized.params(),
                format!("{:.0}", c),
                fmt_secs(z),
                fmt_secs(g),
                exps.map_or("-".into(), |e| format!("{:.2}", e.0)),
                exps.map_or("-".into(), |e| format!("{:.2}", e.1)),
            ]);
            prev = Some((c, z, g));
        }
        print_table(
            &[
                "params",
                "|C_zaatar|",
                "Zaatar (measured)",
                "Ginger (model)",
                "Zaatar exp",
                "Ginger exp",
            ],
            &rows,
        );
        println!();
    }
    println!(
        "Exponents are with respect to constraint count: Zaatar ≈ 1 (linear),\n\
         Ginger ≈ 2 (quadratic), matching the paper's scaling claim."
    );
}
