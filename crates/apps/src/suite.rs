//! The benchmark suite: a uniform interface over the five computations
//! plus the full compilation pipeline.

use zaatar_cc::lang::{compile, Compiled, CompileOptions};
use zaatar_cc::{ginger_stats, ginger_to_quad, quad_stats, EncodingStats, QuadTransform};
use zaatar_field::PrimeField;

use crate::apsp::Apsp;
use crate::bisection::Bisection;
use crate::fannkuch::Fannkuch;
use crate::lcs::Lcs;
use crate::pam::Pam;

/// One of the paper's five benchmark computations (§5.1).
#[derive(Copy, Clone, Debug)]
pub enum Suite {
    /// PAM clustering.
    Pam(Pam),
    /// Root finding by bisection.
    Bisection(Bisection),
    /// Floyd–Warshall all-pairs shortest paths.
    Apsp(Apsp),
    /// The Fannkuch benchmark.
    Fannkuch(Fannkuch),
    /// Longest common subsequence.
    Lcs(Lcs),
}

impl Suite {
    /// All five benchmarks at their scaled-down default sizes.
    pub fn all_small() -> Vec<Suite> {
        vec![
            Suite::Pam(Pam::small()),
            Suite::Bisection(Bisection::small()),
            Suite::Apsp(Apsp::small()),
            Suite::Fannkuch(Fannkuch::small()),
            Suite::Lcs(Lcs::small()),
        ]
    }

    /// The paper's display name.
    pub fn name(&self) -> &'static str {
        match self {
            Suite::Pam(_) => "PAM clustering",
            Suite::Bisection(_) => "root finding by bisection",
            Suite::Apsp(_) => "all-pairs shortest path",
            Suite::Fannkuch(_) => "Fannkuch benchmark",
            Suite::Lcs(_) => "longest common subsequence",
        }
    }

    /// The Fig. 9 complexity column.
    pub fn complexity(&self) -> &'static str {
        match self {
            Suite::Pam(_) => "O(m^2 d)",
            Suite::Bisection(_) => "O(m^2 L)",
            Suite::Apsp(_) => "O(m^3)",
            Suite::Fannkuch(_) => "O(m)",
            Suite::Lcs(_) => "O(m^2)",
        }
    }

    /// A short parameter string (for table rows).
    pub fn params(&self) -> String {
        match self {
            Suite::Pam(p) => format!("m={}, d={}", p.m, p.d),
            Suite::Bisection(p) => format!("m={}, L={}", p.m, p.l),
            Suite::Apsp(p) => format!("m={}", p.m),
            Suite::Fannkuch(p) => format!("m={}, p={}", p.m, p.p),
            Suite::Lcs(p) => format!("m={}", p.m),
        }
    }

    /// The primary size parameter `m` (for scaling sweeps).
    pub fn m(&self) -> usize {
        match self {
            Suite::Pam(p) => p.m,
            Suite::Bisection(p) => p.m,
            Suite::Apsp(p) => p.m,
            Suite::Fannkuch(p) => p.m,
            Suite::Lcs(p) => p.m,
        }
    }

    /// The same benchmark with `m` replaced (other parameters kept).
    pub fn with_m(&self, m: usize) -> Suite {
        match *self {
            Suite::Pam(p) => Suite::Pam(Pam { m, ..p }),
            Suite::Bisection(p) => Suite::Bisection(Bisection { m, ..p }),
            Suite::Apsp(_) => Suite::Apsp(Apsp { m }),
            Suite::Fannkuch(p) => Suite::Fannkuch(Fannkuch { m, ..p }),
            Suite::Lcs(_) => Suite::Lcs(Lcs { m }),
        }
    }

    /// The generated ZSL source.
    pub fn zsl(&self) -> String {
        match self {
            Suite::Pam(p) => p.zsl(),
            Suite::Bisection(p) => p.zsl(),
            Suite::Apsp(p) => p.zsl(),
            Suite::Fannkuch(p) => p.zsl(),
            Suite::Lcs(p) => p.zsl(),
        }
    }

    /// The compile options (comparison widths differ per benchmark).
    pub fn options(&self) -> CompileOptions {
        match self {
            Suite::Pam(p) => p.options(),
            Suite::Bisection(p) => p.options(),
            Suite::Apsp(p) => p.options(),
            Suite::Fannkuch(p) => p.options(),
            Suite::Lcs(p) => p.options(),
        }
    }

    /// Deterministic instance inputs.
    pub fn gen_inputs<F: PrimeField>(&self, seed: u64) -> Vec<F> {
        match self {
            Suite::Pam(p) => p.gen_inputs(seed),
            Suite::Bisection(p) => p.gen_inputs(seed),
            Suite::Apsp(p) => p.gen_inputs(seed),
            Suite::Fannkuch(p) => p.gen_inputs(seed),
            Suite::Lcs(p) => p.gen_inputs(seed),
        }
    }

    /// Native (local) execution over the same integer inputs.
    pub fn reference(&self, inputs: &[i64]) -> Vec<i64> {
        match self {
            Suite::Pam(p) => p.reference(inputs),
            Suite::Bisection(p) => p.reference(inputs),
            Suite::Apsp(p) => p.reference(inputs),
            Suite::Fannkuch(p) => p.reference(inputs),
            Suite::Lcs(p) => p.reference(inputs),
        }
    }
}

/// Everything the harness needs about one compiled benchmark.
pub struct AppArtifacts<F> {
    /// Which benchmark.
    pub app: Suite,
    /// The compiled Ginger system plus witness solver.
    pub compiled: Compiled<F>,
    /// The §4 transformation to quadratic form.
    pub quad: QuadTransform<F>,
    /// Fig. 9 statistics for the Ginger encoding.
    pub ginger_stats: EncodingStats,
    /// Fig. 9 statistics for the Zaatar encoding.
    pub zaatar_stats: EncodingStats,
}

/// Runs the full pipeline: ZSL → Ginger constraints → quadratic form,
/// with encoding statistics.
///
/// # Panics
///
/// Panics if the generated program fails to compile (a bug in the
/// generator).
pub fn build<F: PrimeField>(app: &Suite) -> AppArtifacts<F> {
    let compiled = compile::<F>(&app.zsl(), &app.options())
        .unwrap_or_else(|e| panic!("{} failed to compile: {e}", app.name()));
    let quad = ginger_to_quad(&compiled.ginger);
    let ginger_stats = ginger_stats(&compiled.ginger);
    let zaatar_stats = quad_stats(&quad.system);
    AppArtifacts {
        app: *app,
        compiled,
        quad,
        ginger_stats,
        zaatar_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zaatar_cc::numeric::decode_i64;
    use zaatar_field::{Field, F128};

    #[test]
    fn every_benchmark_compiles_and_verifies_end_to_end() {
        for app in Suite::all_small() {
            let art = build::<F128>(&app);
            let inputs: Vec<F128> = app.gen_inputs(0);
            let asg = art
                .compiled
                .solver
                .solve(&inputs)
                .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
            assert!(
                art.compiled.ginger.is_satisfied(&asg),
                "{}: ginger violated at {:?}",
                app.name(),
                art.compiled.ginger.first_violation(&asg)
            );
            let ext = art.quad.extend_assignment(&asg);
            assert!(
                art.quad.system.is_satisfied(&ext),
                "{}: quad violated at {:?}",
                app.name(),
                art.quad.system.first_violation(&ext)
            );
        }
    }

    #[test]
    fn outputs_match_references() {
        for app in Suite::all_small() {
            let art = build::<F128>(&app);
            let inputs: Vec<F128> = app.gen_inputs(3);
            let raw: Vec<i64> = inputs
                .iter()
                .map(|v| decode_i64::<F128>(*v).expect("small input"))
                .collect();
            let asg = art.compiled.solver.solve(&inputs).unwrap();
            let outs: Vec<i64> = asg
                .extract(art.compiled.solver.outputs())
                .into_iter()
                .map(|v| decode_i64(v).expect("small output"))
                .collect();
            assert_eq!(outs, app.reference(&raw), "{}", app.name());
        }
    }

    #[test]
    fn fig3_size_relations_hold_for_all() {
        for app in Suite::all_small() {
            let art = build::<F128>(&app);
            let g = &art.ginger_stats;
            let z = &art.zaatar_stats;
            // Fig. 3 with K₂′, the product variables actually introduced:
            // constraints that are already products are emitted as written.
            let k2 = art.quad.k2();
            assert_eq!(z.num_unbound, g.num_unbound + k2, "{}", app.name());
            assert_eq!(z.num_constraints, g.num_constraints + k2, "{}", app.name());
            assert!(k2 <= g.k2_distinct, "{}: K₂′ = {k2} > K₂ = {}", app.name(), g.k2_distinct);
            // All benchmarks are far from the degenerate K₂ regime
            // except bisection, which is *closer* but still under K₂*.
            assert!(
                (g.k2_distinct as u128) < g.k2_star(),
                "{}: K₂ = {} ≥ K₂* = {}",
                app.name(),
                g.k2_distinct,
                g.k2_star()
            );
            // And the headline: Zaatar's proof vector is shorter.
            assert!(z.zaatar_proof_len() < g.ginger_proof_len(), "{}", app.name());
            // Same solutions: satisfied together, and a false output is
            // refused by both systems.
            let solver = &art.compiled.solver;
            let mut asg = solver.solve(&app.gen_inputs::<F128>(1)).expect("in-range inputs");
            assert!(art.compiled.ginger.is_satisfied(&asg), "{}", app.name());
            assert!(art.quad.system.is_satisfied(&art.quad.extend_assignment(&asg)), "{}", app.name());
            let out = solver.outputs()[0];
            asg.set(out, asg.get(out) + F128::ONE);
            assert!(!art.compiled.ginger.is_satisfied(&asg), "{}", app.name());
            assert!(!art.quad.system.is_satisfied(&art.quad.extend_assignment(&asg)), "{}", app.name());
        }
    }

    /// The six circuits the benchmark proves, at its sizes: quadratic-form
    /// constraints, variables (bound ones included) and the padded radix-2
    /// domain every prover cost is linear in. A compiler or transform
    /// change that pushes LCS m=8 back over 4096 fails here by name.
    #[test]
    fn benchmark_circuit_encodings_are_pinned() {
        use crate::GadgetApp;
        let sizes = |quad: &zaatar_cc::QuadSystem<F128>| {
            let c = quad.constraints.len();
            (c, quad.vars.len(), c.next_power_of_two())
        };
        let suite = [
            (Suite::Lcs(Lcs { m: 8 }), (2718, 2607, 4096)),
            (Suite::Pam(Pam { m: 4, d: 3 }), (1195, 1177, 2048)),
            (Suite::Bisection(Bisection { m: 6, l: 4 }), (330, 341, 512)),
        ];
        for (app, expected) in suite {
            assert_eq!(sizes(&build::<F128>(&app).quad.system), expected, "{}", app.name());
        }
        let gadgets = [
            (GadgetApp::HashChain, (924, 914, 1024)),
            (GadgetApp::MergeSortCheck, (104, 103, 128)),
            (GadgetApp::MatMul, (36, 45, 64)),
        ];
        for (app, expected) in gadgets {
            let (sys, _) = app.build::<F128>();
            assert_eq!(sizes(&ginger_to_quad(&sys).system), expected, "{}", app.name());
        }
    }

    #[test]
    fn with_m_rescales() {
        let app = Suite::Lcs(Lcs { m: 4 });
        assert_eq!(app.with_m(9).m(), 9);
        let app = Suite::Pam(Pam { m: 3, d: 7 });
        match app.with_m(5) {
            Suite::Pam(p) => assert_eq!((p.m, p.d), (5, 7)),
            _ => panic!("variant changed"),
        }
    }
}
