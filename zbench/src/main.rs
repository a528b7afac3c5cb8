//! `zbench` — the repository's benchmark: one batched verified session
//! on the paper's fields and parameters, measured end to end and layer
//! by layer, entirely from outside the measured crates.
//!
//! ```text
//! zbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! zbench --smoke            # every workload, timed and traced, tiny sizes
//! ```
//!
//! The last line of standard output is the driver's JSON result.

mod circuit;
mod host;
mod report;
mod session;
mod span;
mod stats;
mod timed;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use zaatar_field::{F128, F220};

use circuit::BenchField;
use report::Metric;
use session::{Measured, Prepared};
use workload::{FieldKind, Spec};

/// The fixed default seed. `20130415` is the documented second seed for
/// held-out checks (see README.md).
const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`, for runs started by hand.
const DEFAULT_SECONDS: f64 = 20.0;

/// Parsed command line.
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where the traced run writes `<workload>.trace.jsonl`.
    pub out_dir: String,
}

impl Options {
    /// Sessions every measured phase runs at least.
    pub fn min_sessions(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out_dir: std::env::var("ZBENCH_OUT").unwrap_or_else(|_| "zbench/out".into()),
    };
    let mut seconds_given = false;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => opts.workload = Some(value("--workload")?),
            "--seed" => {
                opts.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                opts.trace = match args.next_if(|next| next == "0" || next == "1") {
                    Some(flag) => flag == "1",
                    None => true,
                };
            }
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.smoke && !seconds_given {
        opts.seconds = 0.0;
    }
    if !(opts.seconds >= 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be between 0 and 600".into());
    }
    if opts.workload.is_none() && !opts.smoke {
        return Err(format!("--workload <{}> is required (or --smoke)", workload::NAMES.join("|")));
    }
    Ok(opts)
}

/// What one run of one workload reports.
pub struct RunResult {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

fn per_second(count: usize, wall_s: f64) -> f64 {
    if wall_s > 0.0 {
        count as f64 / wall_s
    } else {
        0.0
    }
}

/// The timed run: set-up passes, then closed-loop sessions with tracing
/// off; reports every end-to-end metric.
fn timed_run<F: BenchField>(spec: &Spec, opts: &Options, process_start: Instant) -> Result<RunResult, String> {
    let mut setup_s = Vec::new();
    let mut prepared: Option<Prepared<F>> = None;
    for pass in 0..spec.setup_passes {
        // The first pass is timed from process start, as a user pays it.
        let begun = if pass == 0 { process_start } else { Instant::now() };
        // Free the previous pass first, or peak RSS would count two.
        drop(prepared.take());
        let prep = Prepared::<F>::build(spec, opts.seed)?;
        prep.warm_up(opts.seed)?;
        setup_s.push(begun.elapsed().as_secs_f64());
        prepared = Some(prep);
    }
    let prep = prepared.expect("at least one set-up pass");
    let beta = prep.batch.beta();
    println!(
        "workload {}: {} instance(s)/session, policy {:?}, budget {:?}",
        spec.name,
        beta,
        prep.policy,
        prep.budget.limit_bytes()
    );
    for circuit in &prep.batch.circuits {
        println!(
            "  circuit {}: domain {} |z| {} constraints {}",
            circuit.app.label(),
            circuit.pcp.qap().degree(),
            circuit.z_len(),
            circuit.pcp.qap().num_constraints()
        );
    }

    // From here the workspace high-water gauge sees the measured phase only.
    zaatar_obs::global().reset();
    let Measured { samples, wall_s, counts } = prep.measure(opts.seed, opts.seconds, opts.min_sessions(), None)?;
    let peak_rss = host::peak_rss_bytes();
    let workspace_peak = zaatar_obs::snapshot().gauges.get("mem.scratch.high_water").copied().unwrap_or(0);

    let sessions = samples.len();
    let attempted = sessions * beta;
    let failed: usize = samples.iter().map(|s| s.failed_instances(beta)).sum();
    for sample in samples.iter().filter(|s| s.exchange.result.is_err()) {
        println!("  session failed: {:?}", sample.exchange.result.as_ref().err());
    }
    if counts.rejected + counts.expired + counts.failed > 0 {
        println!("  server: {counts:?}");
    }
    let retransmits: u64 = samples.iter().map(|s| s.exchange.phases.retransmits).sum();
    if retransmits > 0 {
        println!("  warning: {retransmits} retransmitted request(s) stretched a phase");
    }

    let wall: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let phase = |pick: fn(&timed::RolePhases) -> Option<u64>| -> Vec<f64> {
        samples.iter().filter_map(|s| pick(&s.exchange.phases)).map(|ns| ns as f64 * 1e-9).collect()
    };
    let verifier_setup = phase(|p| p.verifier_setup_ns);
    let setup_exchange = phase(|p| p.setup_exchange_ns);
    // Per session, the mean over its instances: on the fleet an instance
    // either queues behind the other tenant's or does not, and a median
    // over instances would flip between those two modes from run to run.
    let per_instance = |pick: fn(&timed::RolePhases) -> &Vec<u64>| -> Vec<f64> {
        samples
            .iter()
            .map(|s| pick(&s.exchange.phases))
            .filter(|ns| !ns.is_empty())
            .map(|ns| ns.iter().sum::<u64>() as f64 * 1e-9 / ns.len() as f64)
            .collect()
    };
    let serve = per_instance(|p| &p.serve_ns);
    let verify = per_instance(|p| &p.verify_ns);
    let construct: Vec<f64> = samples.iter().filter_map(|s| s.construct_s).map(|s| s / beta as f64).collect();
    let wire: Vec<f64> = samples.iter().map(|s| s.exchange.wire_bytes as f64 / beta as f64).collect();
    if stats::min(&wire) != stats::max(&wire) {
        println!("  warning: wire bytes differ between sessions: {} .. {}", stats::min(&wire), stats::max(&wire));
    }

    let med = |name, unit, xs: &[f64]| Metric::new(name, unit, stats::median(xs), format!("median of {}", xs.len()));
    let metrics = vec![
        med("setup_s", "s", &setup_s),
        med("session_wall_s", "s", &wall),
        Metric::new(
            "sessions_per_s",
            "1/s",
            per_second(sessions, wall_s),
            format!("{sessions} sessions in {wall_s:.3} s"),
        ),
        med("verifier_setup_s", "s", &verifier_setup),
        med("setup_exchange_s", "s", &setup_exchange),
        med("serve_instance_s", "s", &serve),
        med("wire_bytes_per_instance", "B", &wire),
        Metric::new(
            "prover_workspace_peak_bytes",
            "B",
            workspace_peak as f64,
            "mem.scratch.high_water, measured phase",
        ),
    ];
    // Readings that did not repeat between identical runs on the
    // recording host (README, "Noise floor"): printed, never bounded.
    let tail = stats::tail_or_max(&wall);
    println!("  unbounded readings of this run:");
    println!("    session_wall_s tail     p{:.1} = {} s over {} sessions", tail.percentile, tail.value, wall.len());
    if !construct.is_empty() {
        println!("    construct per instance  {} s (median of {})", stats::median(&construct), construct.len());
    }
    println!("    verify per instance     {} s (median of {})", stats::median(&verify), verify.len());
    println!("    peak RSS (VmHWM)        {peak_rss} B");
    Ok(RunResult { attempted, failed, metrics })
}

fn run_workload(name: &str, opts: &Options, process_start: Instant) -> Result<RunResult, String> {
    let nproc = zaatar_core::HostProfile::from_env().parallelism;
    let spec = workload::spec(name, opts.smoke, nproc)
        .ok_or(format!("unknown workload {name:?}; choose one of {}", workload::NAMES.join(", ")))?;
    match (spec.field, opts.trace) {
        (FieldKind::F128, false) => timed_run::<F128>(&spec, opts, process_start),
        (FieldKind::F220, false) => timed_run::<F220>(&spec, opts, process_start),
        (FieldKind::F128, true) => trace::traced_run::<F128>(&spec, opts, process_start),
        (FieldKind::F220, true) => trace::traced_run::<F220>(&spec, opts, process_start),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    host::scrub_env();
    let mut opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("zbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host::describe());
    println!("seed {} seconds {} smoke {}", opts.seed, opts.seconds, opts.smoke);

    // `--smoke` without a workload: all four, timed then traced.
    let plan: Vec<(String, bool)> = match opts.workload.clone() {
        Some(name) => vec![(name, opts.trace)],
        None => workload::NAMES.iter().flat_map(|n| [(n.to_string(), false), (n.to_string(), true)]).collect(),
    };
    let mut start = process_start;
    for (name, trace) in plan {
        opts.trace = trace;
        match run_workload(&name, &opts, start) {
            Ok(result) => {
                let title = format!(
                    "{} {}",
                    name,
                    if trace { "per-layer metrics (traced run)" } else { "end-to-end metrics (timed run)" }
                );
                report::print_table(&title, &result.metrics);
                println!(
                    "{}",
                    report::result_line(result.failed == 0, result.attempted, result.failed, &result.metrics)
                );
            }
            // No result line: a run whose checks cannot be trusted reports nothing.
            Err(e) => {
                eprintln!("zbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
        start = Instant::now();
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use zaatar_obs::json::Value;

    fn declared(doc: &Value, section: &str) -> Vec<(String, String)> {
        doc.as_object().unwrap()[section]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let m = m.as_object().unwrap();
                (m["name"].as_str().unwrap().to_string(), m["unit"].as_str().unwrap().to_string())
            })
            .collect()
    }

    fn printed(result: &RunResult) -> Vec<(String, String)> {
        result.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
    }

    /// `BENCHMARK.json` must name exactly the workloads and metrics a run
    /// prints, or the driver refuses the result. Runs the cheapest
    /// workload at `--smoke` size, timed and traced.
    #[test]
    fn benchmark_json_lists_exactly_what_a_run_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = zaatar_obs::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let workloads: Vec<String> = doc.as_object().unwrap()["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.as_object().unwrap()["name"].as_str().unwrap().to_string())
            .collect();
        assert_eq!(workloads, workload::NAMES);
        assert_eq!(doc.as_object().unwrap()["run_seconds"].as_f64(), Some(DEFAULT_SECONDS));

        let out_dir = std::env::temp_dir().join(format!("zbench-test-{}", std::process::id()));
        let mut opts = Options {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            trace: false,
            smoke: true,
            out_dir: out_dir.to_string_lossy().into_owned(),
        };
        let timed = run_workload("single_f220", &opts, Instant::now()).unwrap();
        assert_eq!(timed.failed, 0);
        assert_eq!(printed(&timed), declared(&doc, "end_to_end"));
        opts.trace = true;
        let traced = run_workload("single_f220", &opts, Instant::now()).unwrap();
        assert_eq!(traced.failed, 0);
        assert_eq!(printed(&traced), declared(&doc, "per_layer"));
        assert!(out_dir.join("single_f220.trace.jsonl").exists());
        std::fs::remove_dir_all(&out_dir).unwrap();
    }
}
