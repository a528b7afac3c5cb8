//! Shared test fixtures: circuit → PCP → proofs/IOs pipelines.
//!
//! Before this module, every integration test that needed "a circuit
//! with some proven instances" copied the same fifteen lines (build a
//! small circuit, quad-transform it, wrap a QAP and a light-profile
//! PCP, then solve/extend/prove each input vector). Those copies
//! drifted one field at a time; the constructors here are the single
//! source the test files share. Not gated behind `cfg(test)` because
//! the workspace-level integration tests (and the bench harness's
//! smoke paths) link against the published crate.

use zaatar_cc::{ginger_to_quad, Builder, GingerSystem};
use zaatar_cc::builder::WitnessSolver;
use zaatar_field::{Field, F61};
use zaatar_poly::Radix2Domain;

use crate::pcp::{PcpParams, ZaatarPcp, ZaatarProof};
use crate::qap::{Qap, QapWitness};

/// The PCP type every fixture-based test runs over.
pub type TestPcp = ZaatarPcp<F61, Radix2Domain<F61>>;

/// A circuit with a batch of proven instances.
pub struct CircuitFixture {
    /// The PCP over the circuit's QAP.
    pub pcp: TestPcp,
    /// One QAP witness per instance.
    pub witnesses: Vec<QapWitness<F61>>,
    /// One proof per instance.
    pub proofs: Vec<ZaatarProof<F61>>,
    /// Public `(inputs ‖ outputs)` per instance, in QAP variable order.
    pub ios: Vec<Vec<F61>>,
}

/// Builds a fixture from any compiled circuit and a batch of input
/// vectors: quad-transforms the system, wraps a light-profile PCP, and
/// solves/extends/proves each instance.
pub fn circuit_fixture(
    sys: &GingerSystem<F61>,
    solver: &WitnessSolver<F61>,
    inputs: &[Vec<F61>],
) -> CircuitFixture {
    circuit_fixture_with(sys, solver, inputs, PcpParams::light())
}

/// [`circuit_fixture`] with explicit PCP parameters, for the soundness
/// suites that need more query repetitions than the light profile.
pub fn circuit_fixture_with(
    sys: &GingerSystem<F61>,
    solver: &WitnessSolver<F61>,
    inputs: &[Vec<F61>],
    params: PcpParams,
) -> CircuitFixture {
    let t = ginger_to_quad(sys);
    let qap = Qap::new(&t.system);
    let pcp = ZaatarPcp::new(qap, params);
    let mut witnesses = Vec::with_capacity(inputs.len());
    let mut proofs = Vec::with_capacity(inputs.len());
    let mut ios = Vec::with_capacity(inputs.len());
    for ins in inputs {
        let asg = solver.solve(ins).expect("fixture inputs solve");
        let ext = t.extend_assignment(&asg);
        let w = pcp.qap().witness(&ext);
        proofs.push(pcp.prove(&w).expect("fixture instance proves"));
        witnesses.push(w);
        ios.push(
            pcp.qap()
                .var_map()
                .inputs()
                .iter()
                .chain(pcp.qap().var_map().outputs())
                .map(|v| ext.get(*v))
                .collect(),
        );
    }
    CircuitFixture {
        pcp,
        witnesses,
        proofs,
        ios,
    }
}

/// The two-input product circuit `y = a·b` — the minimal fixture the
/// fault-matrix and runtime tests share.
pub fn mul_fixture(inputs: &[[i64; 2]]) -> CircuitFixture {
    let mut b = Builder::<F61>::new();
    let x = b.alloc_input();
    let y = b.alloc_input();
    let p = b.mul(&x, &y);
    b.bind_output(&p);
    let (sys, solver) = b.finish();
    circuit_fixture(&sys, &solver, &to_field_inputs(inputs))
}

/// The product-plus-equality circuit `y = a·b + (a == b)` — the
/// slightly richer fixture the session/argument tests share (it
/// exercises an auxiliary inverse variable and a two-term product with
/// a common factor).
pub fn mul_eq_fixture(inputs: &[[i64; 2]]) -> CircuitFixture {
    let mut b = Builder::<F61>::new();
    let x = b.alloc_input();
    let y = b.alloc_input();
    let p = b.mul(&x, &y);
    let e = b.is_eq(&x, &y);
    b.bind_output(&p.add(&e));
    let (sys, solver) = b.finish();
    circuit_fixture(&sys, &solver, &to_field_inputs(inputs))
}

fn to_field_inputs(inputs: &[[i64; 2]]) -> Vec<Vec<F61>> {
    inputs
        .iter()
        .map(|pair| pair.iter().map(|&v| F61::from_i64(v)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_fixture_instances_verify() {
        let fx = mul_fixture(&[[3, 7], [5, 11]]);
        assert_eq!(fx.proofs.len(), 2);
        assert_eq!(fx.ios[0], vec![F61::from_i64(3), F61::from_i64(7), F61::from_i64(21)]);
    }

    #[test]
    fn mul_eq_fixture_has_equality_term() {
        let fx = mul_eq_fixture(&[[4, 4]]);
        // 4·4 + (4 == 4) = 17.
        assert_eq!(*fx.ios[0].last().unwrap(), F61::from_i64(17));
    }
}
