//! Benches for the headline encoding ablation: proof-vector
//! construction under Zaatar's `(z, h)` vs Ginger's `(z, z⊗z)`, plus the
//! Ginger → quadratic-form transform. On the in-tree harness
//! (`zaatar_bench::harness`).

use std::hint::black_box;
use zaatar_apps::{build, Suite};
use zaatar_bench::harness::BenchGroup;
use zaatar_cc::{ginger_to_quad, linearize_io};
use zaatar_core::ginger::GingerPcp;
use zaatar_core::pcp::{PcpParams, ZaatarPcp};
use zaatar_core::qap::Qap;
use zaatar_field::F61;

/// Proof construction: Zaatar's FFT-based quotient vs Ginger's outer
/// product, on the same computation at growing sizes.
fn proof_construction() {
    let mut group = BenchGroup::new("proof_construction");
    for m in [4usize, 8] {
        let app = Suite::Lcs(zaatar_apps::lcs::Lcs { m });
        let art = build::<F61>(&app);
        let inputs: Vec<F61> = app.gen_inputs(1);
        let asg = art.compiled.solver.solve(&inputs).unwrap();
        // Zaatar path.
        let ext = art.quad.extend_assignment(&asg);
        let qap = Qap::new(&art.quad.system);
        let witness = qap.witness(&ext);
        let pcp = ZaatarPcp::new(qap, PcpParams::light());
        group.bench(&format!("zaatar_z_h/{m}"), || black_box(pcp.prove(&witness)));
        // Ginger path: (z, z⊗z) over the io-linearized system.
        let lin = linearize_io(&art.compiled.ginger);
        let gext = lin.extend_assignment(&asg);
        let gpcp = GingerPcp::new(&lin.system, PcpParams::light());
        let (z, _) = gpcp.split_assignment(&gext);
        group.bench(&format!("ginger_z_zz/{m}"), || black_box(gpcp.prove(z.clone())));
    }
}

/// The Ginger → quadratic-form transform.
fn transform() {
    let mut group = BenchGroup::new("ginger_to_quad");
    let app = Suite::Apsp(zaatar_apps::apsp::Apsp { m: 6 });
    let art = build::<F61>(&app);
    group.bench("apsp/6", || black_box(ginger_to_quad(&art.compiled.ginger)));
}

fn main() {
    proof_construction();
    transform();
}
