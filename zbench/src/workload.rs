//! The four workloads: what runs, on which field, over which harness.
//! Sizes are constants of the benchmark — never adaptive — and every
//! workload proves at the paper's PCP parameters on a paper field.

use zaatar_apps::bisection::Bisection;
use zaatar_apps::lcs::Lcs;
use zaatar_apps::pam::Pam;
use zaatar_apps::{GadgetApp, Suite};

use crate::circuit::App;

/// How a workload's sessions are served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Harness {
    /// `run_session_prover` / `run_session_verifier` on two threads over
    /// the in-process loopback, policy pinned monolithic.
    Direct,
    /// A single-tenant `SessionServer` over loopback whose tenant budget
    /// sits between the streamed floor and the monolithic peak, so the
    /// scheduler must stream.
    Budgeted,
    /// A heterogeneous `SessionServer` over TCP on 127.0.0.1 with
    /// closed-loop tenants; proofs are constructed once in set-up.
    Fleet { tenants: usize },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldKind {
    F128,
    F220,
}

/// One workload: its circuits (an app and how many instances of it per
/// session), field and harness.
pub struct Spec {
    pub name: &'static str,
    pub field: FieldKind,
    pub mix: Vec<(App, usize)>,
    pub harness: Harness,
    /// Set-up passes per timed run; `setup_s` is their median.
    pub setup_passes: usize,
}

/// Workload names, in report order. `BENCHMARK.json` lists the same.
pub const NAMES: [&str; 4] = ["batch_f128", "single_f220", "fleet_mixed", "budget_streamed"];

/// The tenant budget of the `Budgeted` harness for a padded domain of
/// `domain` elements of `elem_bytes` each: 8 elements per point, between
/// the scheduler's streamed floor (7 per point) and its monolithic peak
/// (10 per point).
pub fn tenant_budget_bytes(domain: usize, elem_bytes: usize) -> usize {
    8 * domain.next_power_of_two() * elem_bytes
}

/// The workload called `name`, at full or `--smoke` size. Client count
/// never exceeds `nproc`.
pub fn spec(name: &str, smoke: bool, nproc: usize) -> Option<Spec> {
    let lcs = |m| App::Suite(Suite::Lcs(Lcs { m }));
    // Three passes where one costs seconds; the fleet's cost 0.4 s each,
    // so it affords seven and a steadier median.
    let passes = |full| if smoke { 1 } else { full };
    let spec = match name {
        // LCS m=8: domain 2^13, so the quotient's 2n-point coset NTTs run
        // at 2^14 — above the tile size and at the parallel-pass cutover.
        "batch_f128" => Spec {
            name: "batch_f128",
            field: FieldKind::F128,
            mix: vec![(lcs(if smoke { 3 } else { 8 }), if smoke { 2 } else { 8 })],
            harness: Harness::Direct,
            setup_passes: passes(3),
        },
        "single_f220" => Spec {
            name: "single_f220",
            field: FieldKind::F220,
            mix: vec![(App::Suite(Suite::Pam(if smoke { Pam { m: 2, d: 2 } } else { Pam { m: 4, d: 3 } })), 1)],
            harness: Harness::Direct,
            setup_passes: passes(3),
        },
        // Largest domain 2^10 keeps the server's largest-circuit rule at
        // monolithic (10·n·16 B = 160 KiB < 256 KiB); hash_chain (2^12)
        // would flip it to streamed.
        "fleet_mixed" => Spec {
            name: "fleet_mixed",
            field: FieldKind::F128,
            mix: if smoke {
                vec![(App::Suite(Suite::Bisection(Bisection { m: 2, l: 2 })), 1), (App::Gadget(GadgetApp::MatMul), 1)]
            } else {
                vec![
                    (App::Suite(Suite::Bisection(Bisection { m: 6, l: 4 })), 4),
                    (App::Gadget(GadgetApp::MergeSortCheck), 2),
                    (App::Gadget(GadgetApp::MatMul), 2),
                ]
            },
            harness: Harness::Fleet { tenants: nproc.clamp(1, 2) },
            setup_passes: passes(7),
        },
        // Same circuit, field and seed as batch_f128, so streamed versus
        // monolithic is a row-to-row comparison.
        "budget_streamed" => Spec {
            name: "budget_streamed",
            field: FieldKind::F128,
            mix: vec![(lcs(if smoke { 3 } else { 8 }), if smoke { 2 } else { 4 })],
            harness: Harness::Budgeted,
            setup_passes: passes(3),
        },
        _ => return None,
    };
    Some(spec)
}
