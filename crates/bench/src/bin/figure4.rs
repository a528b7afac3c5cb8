//! Reproduces Fig. 4: per-instance running time of the prover under
//! Zaatar and Ginger for the five benchmark computations.
//!
//! Zaatar is measured end-to-end at the configured scale
//! (`ZAATAR_SCALE=tiny|small|medium`); Ginger is estimated from the
//! Fig. 3 cost model with host-measured microbenchmark parameters —
//! the paper's own methodology. A second table projects both systems to
//! the paper's input sizes through the model, which is where the
//! headline 1–6 orders of magnitude appear.

use zaatar_bench::{fmt_secs, measure_app, print_table, raw_inputs, spec_of, Scale};
use zaatar_bench::cost::{measure_micro_params, CostModel};
use zaatar_core::pcp::PcpParams;
use zaatar_field::F128;

fn main() {
    let scale = Scale::from_env();
    let micro = measure_micro_params::<F128>();
    let model = CostModel::new(micro);
    println!("== Figure 4: per-instance prover running time ==");
    println!("(Zaatar measured at scale {scale:?}; Ginger estimated via the Fig. 3 model)\n");

    let mut rows = Vec::new();
    for app in scale.suite() {
        let run = measure_app::<F128>(&app, 1, 7, PcpParams::default());
        assert!(run.all_accepted, "{} failed verification", run.name);
        let ginger_est = model.ginger_prover_total(&run.spec);
        let zaatar_meas = run.prover_total();
        let zaatar_model = model.zaatar_prover_total(&run.spec);
        rows.push(vec![
            run.name.to_string(),
            run.params.clone(),
            fmt_secs(zaatar_meas),
            fmt_secs(zaatar_model),
            fmt_secs(ginger_est),
            format!("{:.1}x", ginger_est / zaatar_meas),
            format!("{:.1}", (ginger_est / zaatar_meas).log10()),
        ]);
    }
    print_table(
        &[
            "computation",
            "params",
            "Zaatar (measured)",
            "Zaatar (model)",
            "Ginger (model)",
            "speedup",
            "orders",
        ],
        &rows,
    );

    println!("\n== Paper-scale projection (both systems via the model) ==\n");
    let mut rows = Vec::new();
    for (app, label, ratios) in paper_specs() {
        // Estimate T at paper scale from a measured small run, scaled by
        // the benchmark's work ratio; encoding sizes scale by their own
        // per-benchmark growth laws (Fig. 9's formulas — bisection's
        // Ginger encoding grows only linearly in m, which is why its
        // gap is the smallest).
        let art = zaatar_apps::build::<F128>(&app);
        let inputs = raw_inputs(&app, 1);
        let start = std::time::Instant::now();
        for _ in 0..5 {
            std::hint::black_box(app.reference(&inputs));
        }
        let t_small = start.elapsed().as_secs_f64() / 5.0;
        let mut spec = spec_of(&art, t_small * ratios.work);
        spec.z_ginger *= ratios.z;
        spec.c_ginger *= ratios.z;
        spec.k *= ratios.k2;
        spec.k2 *= ratios.k2;
        let g = model.ginger_prover_total(&spec);
        let z = model.zaatar_prover_total(&spec);
        rows.push(vec![
            app.name().to_string(),
            label.to_string(),
            fmt_secs(z),
            fmt_secs(g),
            format!("{:.1}", (g / z).log10()),
        ]);
    }
    print_table(
        &[
            "computation",
            "paper params",
            "Zaatar (model)",
            "Ginger (model)",
            "orders of magnitude",
        ],
        &rows,
    );
    println!("\nPaper reports: 3-6 orders for PAM/APSP/Fannkuch/LCS, 1-2 orders for bisection.");
}

/// Growth ratios from the small measured configuration to the paper's
/// configuration, per Fig. 9's per-benchmark encoding laws.
struct Ratios {
    /// Native work (and Ginger `|C|`-independent running time) ratio.
    work: f64,
    /// `|Z_ginger|` (and `|C_ginger|`) ratio.
    z: f64,
    /// `K`/`K₂` (degree-2 term) ratio.
    k2: f64,
}

/// The small benchmark used for measurement plus its paper-scale label
/// and growth ratios.
fn paper_specs() -> Vec<(zaatar_apps::Suite, &'static str, Ratios)> {
    use zaatar_apps::suite::Suite as S;
    use zaatar_apps::*;
    let uniform = |r: f64| Ratios {
        work: r,
        z: r,
        k2: r,
    };
    vec![
        (
            S::Pam(pam::Pam { m: 6, d: 8 }),
            "m=20, d=128",
            // Everything scales with m²d (Fig. 9: 20m²d).
            uniform((400.0 * 128.0) / (36.0 * 8.0)),
        ),
        (
            S::Bisection(bisection::Bisection { m: 6, l: 4 }),
            "m=256, L=8",
            // Work and K₂ scale with m²L, but Ginger's encoding is
            // concise: |Z_ginger| = Θ(mL) (Fig. 9: 2mL).
            Ratios {
                work: (65536.0 * 8.0) / (36.0 * 4.0),
                z: (256.0 * 8.0) / (6.0 * 4.0),
                k2: (65536.0 * 8.0) / (36.0 * 4.0),
            },
        ),
        (
            S::Apsp(apsp::Apsp { m: 6 }),
            "m=25",
            uniform(15625.0 / 216.0),
        ),
        (
            S::Fannkuch(fannkuch::Fannkuch {
                m: 3,
                p: 5,
                flip_bound: 8,
            }),
            "m=100",
            // m permutations, plus the 13-vs-5 length factor ~6.8.
            uniform((100.0 / 3.0) * 6.8),
        ),
        (
            S::Lcs(lcs::Lcs { m: 10 }),
            "m=300",
            uniform(90000.0 / 100.0),
        ),
    ]
}
