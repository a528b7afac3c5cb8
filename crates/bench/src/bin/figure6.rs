//! Reproduces Fig. 6: batch speedups from parallelizing and distributing
//! the prover, over hardware configurations in the paper's notation
//! (`4C`, `20C`, `60C`, `15C+15G`, `30C+30G`).
//!
//! CPU configurations run the real sharded prover over worker threads
//! (capped at host parallelism; configurations beyond it are projected
//! with ideal scaling from the measured per-instance cost, which is
//! what "60C (ideal)" denotes in the paper's own figure). GPU
//! configurations apply the paper's measured ~20% crypto-offload factor
//! (see DESIGN.md §3 on this substitution).

use std::time::Instant;

use zaatar_apps::build;
use zaatar_bench::{print_table, Scale};
use zaatar_core::pcp::{PcpParams, ZaatarPcp};
use zaatar_core::qap::Qap;
use zaatar_core::runtime::prove_batch_with_policy;
use zaatar_core::{ExecPolicy, MemBudget};
use zaatar_field::F128;

/// A hardware configuration in the paper's Fig. 6 notation (`4C`,
/// `15C+15G`, …); GPUs are crypto acceleration, modeled.
#[derive(Copy, Clone)]
struct HardwareConfig {
    cores: usize,
    gpus: usize,
}

impl HardwareConfig {
    fn cpus(cores: usize) -> Self {
        HardwareConfig { cores, gpus: 0 }
    }

    fn with_gpus(cores: usize, gpus: usize) -> Self {
        HardwareConfig { cores, gpus }
    }

    /// The paper's measured per-instance latency gain from GPU crypto
    /// offload ("GPU acceleration improves per-instance latency by
    /// roughly 20%", §5.2): applied as a multiplicative factor to the
    /// crypto-dominated share of prover work when `gpus > 0`.
    fn gpu_latency_factor(&self) -> f64 {
        if self.gpus > 0 {
            0.8
        } else {
            1.0
        }
    }
}

impl std::fmt::Display for HardwareConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.gpus > 0 {
            write!(f, "{}C+{}G", self.cores, self.gpus)
        } else {
            write!(f, "{}C", self.cores)
        }
    }
}

fn main() {
    let scale = Scale::from_env();
    // The paper uses PAM (m=10, d=128, β=60) and APSP (m=15, β=60);
    // scaled down proportionally here.
    let (apps, beta) = match scale {
        Scale::Tiny => (
            vec![
                zaatar_apps::Suite::Pam(zaatar_apps::pam::Pam { m: 4, d: 4 }),
                zaatar_apps::Suite::Apsp(zaatar_apps::apsp::Apsp { m: 4 }),
            ],
            8,
        ),
        Scale::Small => (
            vec![
                zaatar_apps::Suite::Pam(zaatar_apps::pam::Pam { m: 5, d: 8 }),
                zaatar_apps::Suite::Apsp(zaatar_apps::apsp::Apsp { m: 6 }),
            ],
            12,
        ),
        Scale::Medium | Scale::Paper => (
            vec![
                zaatar_apps::Suite::Pam(zaatar_apps::pam::Pam { m: 8, d: 16 }),
                zaatar_apps::Suite::Apsp(zaatar_apps::apsp::Apsp { m: 10 }),
            ],
            24,
        ),
    };
    let host = std::thread::available_parallelism().map_or(4, |n| n.get());
    println!("== Figure 6: prover batch speedup vs hardware config ==");
    println!("(scale {scale:?}, batch size {beta}, host parallelism {host})\n");

    let configs = [
        HardwareConfig::cpus(1),
        HardwareConfig::cpus(2),
        HardwareConfig::cpus(4),
        HardwareConfig::with_gpus(4, 4),
        HardwareConfig::cpus(8),
        HardwareConfig::with_gpus(8, 8),
        HardwareConfig::cpus(16),
    ];

    for app in apps {
        println!("-- {} ({}) --", app.name(), app.params());
        let art = build::<F128>(&app);
        let qap = Qap::new(&art.quad.system);
        let pcp = ZaatarPcp::new(qap, PcpParams::light());
        // Pre-solve witnesses; the sharded phase is proof construction,
        // the dominant prover cost.
        let witnesses: Vec<_> = (0..beta)
            .map(|i| {
                let inputs: Vec<F128> = app.gen_inputs(i as u64);
                let asg = art.compiled.solver.solve(&inputs).expect("solvable");
                let ext = art.quad.extend_assignment(&asg);
                pcp.qap().witness(&ext)
            })
            .collect();

        // Baseline: one worker.
        let base = time_batch(&pcp, &witnesses, 1);
        let mut rows = Vec::new();
        for cfg in configs {
            let measured = cfg.cores <= host;
            let latency = if measured {
                time_batch(&pcp, &witnesses, cfg.cores)
            } else {
                // Ideal projection (the paper's "60C (ideal)" bars).
                base / cfg.cores as f64
            } * cfg.gpu_latency_factor();
            rows.push(vec![
                format!("{cfg}{}", if measured { "" } else { " (ideal)" }),
                format!("{:.3} s", latency),
                format!("{:.1}x", base / latency),
            ]);
        }
        print_table(&["config", "batch latency", "speedup"], &rows);
        println!();
    }
    println!(
        "Paper shape: near-linear speedup with added hardware; GPUs shave ~20% per instance."
    );
}

fn time_batch(
    pcp: &ZaatarPcp<F128, zaatar_poly::Radix2Domain<F128>>,
    witnesses: &[zaatar_core::qap::QapWitness<F128>],
    workers: usize,
) -> f64 {
    let start = Instant::now();
    let proofs = prove_batch_with_policy(
        pcp,
        witnesses,
        &ExecPolicy::with_workers(workers),
        MemBudget::unlimited(),
    )
    .expect("unlimited budget never refuses a lease");
    assert!(proofs.iter().all(Option::is_some), "honest witnesses");
    std::hint::black_box(proofs);
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_display_matches_figure6_notation() {
        assert_eq!(HardwareConfig::cpus(4).to_string(), "4C");
        assert_eq!(HardwareConfig::with_gpus(15, 15).to_string(), "15C+15G");
    }

    #[test]
    fn gpu_factor() {
        assert_eq!(HardwareConfig::cpus(4).gpu_latency_factor(), 1.0);
        assert_eq!(HardwareConfig::with_gpus(4, 4).gpu_latency_factor(), 0.8);
    }
}
