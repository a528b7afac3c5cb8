//! Reproduces Fig. 7: break-even batch sizes under Zaatar and Ginger —
//! the smallest β at which the verifier's amortized cost beats local
//! execution (§2.2).
//!
//! The setup and per-instance verifier costs come from real measurement
//! for Zaatar and from the Fig. 3 model for Ginger (as in the paper);
//! both are also shown at paper scale via the model.

use zaatar_bench::{fmt_count, measure_app, print_table, Scale};
use zaatar_bench::cost::{measure_micro_params, CostModel};
use zaatar_core::pcp::PcpParams;
use zaatar_field::F128;

fn main() {
    let scale = Scale::from_env();
    let model = CostModel::new(measure_micro_params::<F128>());
    println!("== Figure 7: break-even batch sizes ==");
    println!("(scale {scale:?}; measured Zaatar verifier costs, model-estimated Ginger)\n");

    let mut rows = Vec::new();
    for app in scale.suite() {
        let run = measure_app::<F128>(&app, 1, 3, PcpParams::default());
        assert!(run.all_accepted);
        // Break-even from measured quantities: setup/(T − per-instance).
        let measured_be = if run.t_local > run.v_per_instance {
            Some((run.v_setup / (run.t_local - run.v_per_instance)).ceil())
        } else {
            None
        };
        let model_be_z = model.break_even(&run.spec, true);
        let model_be_g = model.break_even(&run.spec, false);
        let show = |v: Option<f64>| v.map_or("never".to_string(), fmt_count);
        let ratio = match (model_be_z, model_be_g) {
            (Some(z), Some(g)) => format!("{:.1}", (g / z).log10()),
            _ => "-".to_string(),
        };
        rows.push(vec![
            run.name.to_string(),
            run.params.clone(),
            show(measured_be),
            show(model_be_z),
            show(model_be_g),
            ratio,
        ]);
    }
    print_table(
        &[
            "computation",
            "params",
            "Zaatar (measured)",
            "Zaatar (model)",
            "Ginger (model)",
            "orders",
        ],
        &rows,
    );
    println!(
        "\nNote: at small scales on modern hardware, native local execution is nearly\n\
         free, so break-even can be 'never' (§5.4: outsourcing pays only for\n\
         computations superlinear in input size)."
    );

    // Paper-scale projection: encoding sizes scaled per Fig. 9's growth
    // laws, local times taken from the paper's own Fig. 5 measurements
    // (its local baseline ran field arithmetic through GMP, which is the
    // regime where batching breaks even).
    println!("\n== Paper-scale projection (paper's local times, our measured protocol costs) ==\n");
    let mut rows = Vec::new();
    for (app, label, t_paper, ratios) in paper_projection() {
        let art = zaatar_apps::build::<F128>(&app);
        let mut spec = zaatar_bench::spec_of(&art, t_paper);
        spec.z_ginger *= ratios.1;
        spec.c_ginger *= ratios.1;
        spec.k *= ratios.2;
        spec.k2 *= ratios.2;
        let show = |v: Option<f64>| v.map_or("never".to_string(), fmt_count);
        let bz = model.break_even(&spec, true);
        let bg = model.break_even(&spec, false);
        let orders = match (bz, bg) {
            (Some(z), Some(g)) => format!("{:.1}", (g / z).log10()),
            _ => "-".to_string(),
        };
        rows.push(vec![
            app.name().to_string(),
            label.to_string(),
            show(bz),
            show(bg),
            orders,
        ]);
    }
    print_table(
        &[
            "computation",
            "paper params",
            "Zaatar break-even",
            "Ginger break-even",
            "orders",
        ],
        &rows,
    );
    println!(
        "\nPaper shape: Zaatar breaks even at plausibly small batch sizes (thousands);\n\
         Ginger needs batches orders of magnitude larger."
    );
}

/// `(small app, paper label, paper local time from Fig. 5, (work, z, k2)
/// growth ratios)`.
#[allow(clippy::type_complexity)]
fn paper_projection() -> Vec<(zaatar_apps::Suite, &'static str, f64, (f64, f64, f64))> {
    use zaatar_apps::suite::Suite as S;
    use zaatar_apps::*;
    vec![
        (
            S::Pam(pam::Pam { m: 6, d: 8 }),
            "m=20, d=128",
            51.6e-3,
            {
                let r = (400.0 * 128.0) / (36.0 * 8.0);
                (r, r, r)
            },
        ),
        (
            S::Bisection(bisection::Bisection { m: 6, l: 4 }),
            "m=256, L=8",
            0.8,
            (
                (65536.0 * 8.0) / (36.0 * 4.0),
                (256.0 * 8.0) / (6.0 * 4.0),
                (65536.0 * 8.0) / (36.0 * 4.0),
            ),
        ),
        (
            S::Apsp(apsp::Apsp { m: 6 }),
            "m=25",
            8.1e-3,
            {
                let r = 15625.0 / 216.0;
                (r, r, r)
            },
        ),
        (
            S::Fannkuch(fannkuch::Fannkuch {
                m: 3,
                p: 5,
                flip_bound: 8,
            }),
            "m=100",
            0.8e-3,
            {
                let r = (100.0 / 3.0) * 6.8;
                (r, r, r)
            },
        ),
        (
            S::Lcs(lcs::Lcs { m: 10 }),
            "m=300",
            1.4e-3,
            {
                let r = 90000.0 / 100.0;
                (r, r, r)
            },
        ),
    ]
}
