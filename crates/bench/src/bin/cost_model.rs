//! Prints the Fig. 3 cost model evaluated for each benchmark: every row
//! of the table (proof-vector sizes, prover construct/respond, verifier
//! query-construction and response-processing) for both systems, using
//! host-measured microbenchmark parameters.

use zaatar_apps::build;
use zaatar_bench::{fmt_count, fmt_secs, print_table, spec_of, time_local, Scale};
use zaatar_bench::cost::{measure_micro_params, CostModel};
use zaatar_field::F128;

fn main() {
    let scale = Scale::from_env();
    let model = CostModel::new(measure_micro_params::<F128>());
    println!("== Figure 3: cost model, evaluated per benchmark ==");
    println!("(scale {scale:?}; host-measured microbenchmark parameters)\n");

    for app in scale.suite() {
        let art = build::<F128>(&app);
        let spec = spec_of(&art, time_local(&app, 1));
        println!("-- {} ({}) --", app.name(), app.params());
        let rows = vec![
            vec![
                "proof vector size".to_string(),
                fmt_count(spec.u_ginger()),
                fmt_count(spec.u_zaatar()),
            ],
            vec![
                "P: construct proof".to_string(),
                fmt_secs(model.ginger_prover_construct(&spec)),
                fmt_secs(model.zaatar_prover_construct(&spec)),
            ],
            vec![
                "P: issue responses".to_string(),
                fmt_secs(model.ginger_prover_respond(&spec)),
                fmt_secs(model.zaatar_prover_respond(&spec)),
            ],
            vec![
                "V: computation-specific queries (setup)".to_string(),
                fmt_secs(model.ginger_v_specific_setup(&spec)),
                fmt_secs(model.zaatar_v_specific_setup(&spec)),
            ],
            vec![
                "V: computation-oblivious queries (setup)".to_string(),
                fmt_secs(model.ginger_v_oblivious_setup(&spec)),
                fmt_secs(model.zaatar_v_oblivious_setup(&spec)),
            ],
            vec![
                "V: process responses (per instance)".to_string(),
                fmt_secs(model.ginger_v_per_instance(&spec)),
                fmt_secs(model.zaatar_v_per_instance(&spec)),
            ],
        ];
        print_table(&["cost row", "Ginger", "Zaatar"], &rows);
        // K2 is the paper's (distinct degree-2 terms: it decides the
        // degenerate regime); K2' is what the transform introduced and
        // what the Zaatar rows above are sized by.
        let g = &art.ginger_stats;
        println!(
            "K = {}, K2 = {} (K2' = {} introduced), K2* = {} ({})\n",
            fmt_count(spec.k),
            fmt_count(g.k2_distinct as f64),
            fmt_count(spec.k2),
            fmt_count(g.k2_star() as f64),
            if g.prefer_zaatar() {
                "non-degenerate: Zaatar wins"
            } else {
                "degenerate: Ginger wins"
            }
        );
    }
}
