//! The evaluation: the Fig. 3 cost model and the wire-cost formula
//! ([`cost`]) and the shared measurement machinery behind the per-figure
//! binaries (`figure4` … `figure9`, `microbench`, `cost_model`,
//! `network`, `validate_model`). The protocol crate, `zaatar-core`,
//! reads neither.
//!
//! Methodology follows §5.1–5.2: Zaatar is *measured* end-to-end at the
//! configured scale, Ginger is *estimated* from the Fig. 3 cost model
//! parameterized with host-measured microbenchmarks (the paper does
//! exactly this: "we use estimates, rather than empirics, because the
//! computations would be too expensive under Ginger"), and paper-scale
//! numbers are additionally projected from the model so every figure can
//! report both a measured shape and a paper-scale comparison.

#![forbid(unsafe_code)]

use std::time::Instant;

pub mod cost;

use zaatar_apps::{build, AppArtifacts, Suite};
use zaatar_cc::numeric::decode_i64;
use zaatar_cc::Assignment;
use zaatar_core::pcp::{PcpParams, ZaatarPcp};
use zaatar_core::qap::Qap;
use zaatar_core::{prove_instance_policied, run_batched_argument, ProverWorkspace};
use zaatar_crypto::HasGroup;
use zaatar_field::PrimeField;
use zaatar_obs::Snapshot;

use crate::cost::ComputationSpec;

/// Measurement scale, selected with the `ZAATAR_SCALE` environment
/// variable (`tiny` | `small` | `medium` | `paper`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minimal sizes — seconds per figure (CI-friendly).
    Tiny,
    /// Default sizes — tens of seconds per figure.
    Small,
    /// Larger sizes — minutes per figure.
    Medium,
    /// The paper's exact §5.2 configurations. Only `figure9` (pure
    /// compilation, no crypto) is practical at this scale; the
    /// runtime-measuring figures would take the paper's minutes-per-
    /// instance times β.
    Paper,
}

impl Scale {
    /// Reads `ZAATAR_SCALE` (defaults to `Small`). An unrecognised
    /// value also runs at `Small`, after a warning on stderr — a figure
    /// must not be recorded at a scale its output never named.
    pub fn from_env() -> Scale {
        Scale::parse(std::env::var("ZAATAR_SCALE").ok().as_deref()).unwrap_or_else(|warning| {
            eprintln!("{warning}");
            Scale::Small
        })
    }

    /// The scale a raw `ZAATAR_SCALE` value names (surrounding
    /// whitespace ignored; unset is `Small`), or the warning to print
    /// for a value that names none.
    fn parse(raw: Option<&str>) -> Result<Scale, String> {
        match raw.map(str::trim) {
            None | Some("small") => Ok(Scale::Small),
            Some("tiny") => Ok(Scale::Tiny),
            Some("medium") => Ok(Scale::Medium),
            Some("paper") => Ok(Scale::Paper),
            Some(other) => Err(format!(
                "warning: ZAATAR_SCALE={other:?} is not one of tiny | small | medium | paper; running at small"
            )),
        }
    }

    /// The five benchmarks at this scale (the paper's Fig. 4
    /// configurations, scaled down by a constant factor).
    pub fn suite(&self) -> Vec<Suite> {
        use zaatar_apps::suite::Suite as S;
        if matches!(self, Scale::Paper) {
            return vec![
                S::Pam(zaatar_apps::pam::Pam::paper()),
                S::Bisection(zaatar_apps::bisection::Bisection::paper()),
                S::Apsp(zaatar_apps::apsp::Apsp::paper()),
                S::Fannkuch(zaatar_apps::fannkuch::Fannkuch::paper()),
                S::Lcs(zaatar_apps::lcs::Lcs::paper()),
            ];
        }
        let (pam, bis, apsp, fan, lcs) = match self {
            Scale::Tiny => ((4, 3), (3, 3), 4, (2, 4, 4), 5),
            Scale::Small => ((6, 8), (6, 4), 6, (3, 5, 8), 10),
            Scale::Medium | Scale::Paper => ((10, 16), (12, 6), 10, (6, 7, 12), 24),
        };
        vec![
            S::Pam(zaatar_apps::pam::Pam { m: pam.0, d: pam.1 }),
            S::Bisection(zaatar_apps::bisection::Bisection { m: bis.0, l: bis.1 }),
            S::Apsp(zaatar_apps::apsp::Apsp { m: apsp }),
            S::Fannkuch(zaatar_apps::fannkuch::Fannkuch {
                m: fan.0,
                p: fan.1,
                flip_bound: fan.2,
            }),
            S::Lcs(zaatar_apps::lcs::Lcs { m: lcs }),
        ]
    }

    /// Three input sizes per benchmark for the Fig. 8 scaling sweep
    /// (each doubles `m`, as in the paper).
    pub fn scaling_sizes(&self, app: &Suite) -> Vec<usize> {
        let m = app.m();
        let s0 = m.div_ceil(4).max(2);
        let s1 = m.div_ceil(2).max(s0 + 1);
        let s2 = m.max(s1 + 1);
        vec![s0, s1, s2]
    }
}

/// One benchmark's full measurement at a given batch size.
#[derive(Clone, Debug)]
pub struct MeasuredRun {
    /// Benchmark name.
    pub name: &'static str,
    /// Parameter string.
    pub params: String,
    /// Native execution time per instance, seconds.
    pub t_local: f64,
    /// Prover: constraint solving per instance.
    pub solve: f64,
    /// Prover: proof-vector construction per instance.
    pub construct: f64,
    /// Prover: commitment crypto per instance.
    pub crypto: f64,
    /// Prover: query answering per instance.
    pub answer: f64,
    /// Verifier: batch setup (keys, queries, consistency queries and
    /// the setup message's encoding), total wall time.
    pub v_setup: f64,
    /// Verifier: per-instance checking, instance-message decoding
    /// included, wall time.
    pub v_per_instance: f64,
    /// Encoding spec for the cost model.
    pub spec: ComputationSpec,
    /// All instances verified correctly.
    pub all_accepted: bool,
    /// Batch size used.
    pub beta: usize,
}

impl MeasuredRun {
    /// Prover end-to-end per instance.
    pub fn prover_total(&self) -> f64 {
        self.solve + self.construct + self.crypto + self.answer
    }
}

/// Extracts the cost-model spec from compiled artifacts plus a measured
/// local time. `k2` is `K₂′`, the product variables the transform
/// introduced, so the model sizes the system that actually runs.
pub fn spec_of<F: PrimeField>(art: &AppArtifacts<F>, t_local: f64) -> ComputationSpec {
    let g = &art.ginger_stats;
    ComputationSpec {
        t_local,
        z_ginger: g.num_unbound as f64,
        c_ginger: g.num_constraints as f64,
        k: g.k_terms as f64,
        k2: art.quad.k2() as f64,
        n_inputs: g.num_inputs as f64,
        n_outputs: g.num_outputs as f64,
    }
}

/// Times the native reference implementation (averaged over repeats).
pub fn time_local(app: &Suite, seed: u64) -> f64 {
    let inputs: Vec<i64> = raw_inputs(app, seed);
    // Warm up once, then time.
    std::hint::black_box(app.reference(&inputs));
    let reps = 10;
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(app.reference(&inputs));
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// The integer inputs corresponding to [`Suite::gen_inputs`].
pub fn raw_inputs(app: &Suite, seed: u64) -> Vec<i64> {
    app.gen_inputs::<zaatar_field::F128>(seed)
        .iter()
        .map(|v| decode_i64(*v).expect("benchmark inputs are small"))
        .collect()
}

/// Runs the complete batched argument for `beta` instances of `app`,
/// measuring every phase. `F` must be a field with a paired commitment
/// group.
pub fn measure_app<F: PrimeField + HasGroup>(
    app: &Suite,
    beta: usize,
    seed: u64,
    pcp_params: PcpParams,
) -> MeasuredRun {
    let art = build::<F>(app);
    let t_local = time_local(app, seed);

    // Witnesses (prover's "solve constraints" phase).
    let start = Instant::now();
    let assignments: Vec<Assignment<F>> = (0..beta)
        .map(|i| {
            let inputs: Vec<F> = app.gen_inputs(seed + i as u64);
            let asg = art
                .compiled
                .solver
                .solve(&inputs)
                .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
            art.quad.extend_assignment(&asg)
        })
        .collect();
    let solve_total = start.elapsed().as_secs_f64();

    let qap = Qap::new(&art.quad.system);
    let witnesses: Vec<_> = assignments.iter().map(|a| qap.witness(a)).collect();
    let pcp = ZaatarPcp::new(qap, pcp_params);

    // Proof construction, then the argument as the library runs it in
    // one process. The prover-side Fig. 5 columns are cut from the spans
    // that path records — the names `zbench` reads; a window around the
    // whole call would also count the prover's re-derivation of the
    // queries as verifier set-up.
    let t0 = zaatar_obs::snapshot();
    let mut ws = ProverWorkspace::new();
    let proofs: Vec<_> = witnesses
        .iter()
        .map(|w| {
            prove_instance_policied(&pcp, w, &mut ws)
                .expect("unlimited budget never refuses a lease")
                .expect("witness must satisfy the constraints")
        })
        .collect();
    let t1 = zaatar_obs::snapshot();
    // `w.io` is the statement: inputs then outputs in QAP order.
    let ios: Vec<Vec<F>> = witnesses.iter().map(|w| w.io.clone()).collect();
    let result = run_batched_argument(&pcp, &proofs, &ios, seed ^ 0xbead);
    let t2 = zaatar_obs::snapshot();

    let b = beta as f64;
    MeasuredRun {
        name: app.name(),
        params: app.params(),
        t_local,
        solve: solve_total / b,
        construct: span_secs(&t0, &t1, &["pcp.prove"]) / b,
        crypto: span_secs(&t1, &t2, &["commit.commit"]) / b,
        answer: span_secs(&t1, &t2, &["pcp.answer"]) / b,
        v_setup: result.verifier_setup.as_secs_f64(),
        v_per_instance: result.verifier_check.as_secs_f64() / b,
        spec: spec_of(&art, t_local),
        all_accepted: result.accepted.iter().all(|&ok| ok),
        beta,
    }
}

/// Seconds the named spans accumulated between two obs snapshots.
fn span_secs(from: &Snapshot, to: &Snapshot, spans: &[&str]) -> f64 {
    let ns = |s: &Snapshot, n: &str| s.timers.get(n).map_or(0, |t| t.total_ns);
    spans.iter().map(|n| ns(to, n) - ns(from, n)).sum::<u64>() as f64 * 1e-9
}

/// Formats a duration in engineering units.
pub fn fmt_secs(s: f64) -> String {
    if s == 0.0 {
        "0".to_string()
    } else if s < 1e-6 {
        format!("{:.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.1} us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1} ms", s * 1e3)
    } else if s < 120.0 {
        format!("{:.2} s", s)
    } else if s < 7200.0 {
        format!("{:.1} min", s / 60.0)
    } else if s < 86400.0 * 3.0 {
        format!("{:.1} h", s / 3600.0)
    } else {
        format!("{:.1} days", s / 86400.0)
    }
}

/// Formats a dimensionless count with thousands grouping of powers
/// (`1.2e9`-style for large values).
pub fn fmt_count(x: f64) -> String {
    if x < 1e4 {
        format!("{x:.0}")
    } else {
        format!("{x:.2e}")
    }
}

/// Prints a simple aligned table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (cell, w) in cells.iter().zip(&widths) {
            out.push_str(&format!("{cell:>w$}  ", w = w));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zaatar_field::F61;

    #[test]
    fn measure_smallest_app_end_to_end() {
        let app = Scale::Tiny.suite().remove(4); // LCS, the cheapest.
        let run = measure_app::<F61>(&app, 2, 0, PcpParams::light());
        assert!(run.all_accepted);
        // A renamed span must fail here, not print a zero Fig. 5 column.
        assert!(run.construct > 0.0 && run.crypto > 0.0 && run.answer > 0.0);
        assert!(run.v_setup > 0.0 && run.v_per_instance > 0.0);
        assert_eq!(run.beta, 2);
    }

    #[test]
    fn scale_parse_trims_and_refuses_typos() {
        assert_eq!(Scale::parse(None), Ok(Scale::Small));
        for (raw, scale) in [
            ("tiny", Scale::Tiny),
            ("small", Scale::Small),
            ("medium ", Scale::Medium),
            (" paper\n", Scale::Paper),
        ] {
            assert_eq!(Scale::parse(Some(raw)), Ok(scale), "{raw:?}");
        }
        for typo in ["papr", "Small", "", "tiny,medium"] {
            let warning = Scale::parse(Some(typo)).expect_err(typo);
            assert!(warning.contains(&format!("{typo:?}")), "{warning}");
            assert!(warning.contains("tiny | small | medium | paper"), "{warning}");
        }
    }

    #[test]
    fn scale_suites_have_five_benchmarks() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Medium] {
            assert_eq!(scale.suite().len(), 5);
        }
    }

    #[test]
    fn scaling_sizes_are_increasing() {
        let scale = Scale::Small;
        for app in scale.suite() {
            let sizes = scale.scaling_sizes(&app);
            assert_eq!(sizes.len(), 3);
            assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2]);
        }
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(2e-9), "2.0 ns");
        assert_eq!(fmt_secs(0.005), "5.0 ms");
        assert_eq!(fmt_secs(90.0), "90.00 s");
        assert_eq!(fmt_count(120.0), "120");
    }
}
