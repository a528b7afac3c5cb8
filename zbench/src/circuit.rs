//! From an application to a provable batch: compile, transform, build
//! the QAP and PCP at the paper's parameters, generate seeded inputs,
//! solve witnesses, and check every instance's outputs against the
//! application's native reference. Each step is timed where it is
//! called, so the `cc`/`apps`/`core.qap` set-up metrics need no tracing
//! inside those crates.

use std::time::Instant;

use zaatar_apps::{GadgetApp, Suite};
use zaatar_cc::builder::WitnessSolver;
use zaatar_cc::lang::compile;
use zaatar_cc::numeric::decode_i64;
use zaatar_cc::{ginger_stats, ginger_to_quad, EncodingStats, GingerSystem, QuadTransform};
use zaatar_core::pcp::{PcpParams, ZaatarPcp, ZaatarProof};
use zaatar_core::qap::{Qap, QapWitness};
use zaatar_crypto::HasGroup;
use zaatar_field::{PrimeField, F128};
use zaatar_poly::Radix2Domain;

/// Every workload proves over the NTT-friendly radix-2 domain.
pub type Pcp<F> = ZaatarPcp<F, Radix2Domain<F>>;

/// A field the benchmark can run a session on.
pub trait BenchField: PrimeField + HasGroup {}
impl<F: PrimeField + HasGroup> BenchField for F {}

/// One computation: a paper benchmark compiled from ZSL, or a
/// builder-level gadget circuit.
#[derive(Clone, Copy, Debug)]
pub enum App {
    Suite(Suite),
    Gadget(GadgetApp),
}

impl App {
    pub fn label(&self) -> String {
        match self {
            App::Suite(s) => format!("{} ({})", s.name(), s.params()),
            App::Gadget(g) => g.name().to_string(),
        }
    }

    fn compile<F: PrimeField>(&self) -> (GingerSystem<F>, WitnessSolver<F>) {
        match self {
            App::Suite(s) => {
                let compiled = compile::<F>(&s.zsl(), &s.options())
                    .unwrap_or_else(|e| panic!("{} failed to compile: {e}", s.name()));
                (compiled.ginger, compiled.solver)
            }
            App::Gadget(g) => g.build::<F>(),
        }
    }

    fn gen_inputs<F: PrimeField>(&self, seed: u64) -> Vec<F> {
        match self {
            App::Suite(s) => s.gen_inputs(seed),
            App::Gadget(g) => g.gen_inputs(seed),
        }
    }

    /// The same inputs as native integers, for the reference run.
    fn raw_inputs(&self, seed: u64) -> Vec<i64> {
        match self {
            App::Suite(s) => s
                .gen_inputs::<F128>(seed)
                .into_iter()
                .map(|v| decode_i64(v).expect("benchmark inputs are small integers"))
                .collect(),
            App::Gadget(g) => g.gen_raw_inputs(seed),
        }
    }

    fn reference(&self, raw: &[i64]) -> Vec<i64> {
        match self {
            App::Suite(s) => s.reference(raw),
            App::Gadget(g) => g.reference(raw),
        }
    }
}

/// Seconds spent in each step of building one circuit.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildTimes {
    pub compile_s: f64,
    pub transform_s: f64,
    pub qap_build_s: f64,
}

/// A compiled computation, ready to produce instances.
pub struct Circuit<F> {
    pub app: App,
    pub pcp: Pcp<F>,
    solver: WitnessSolver<F>,
    quad: QuadTransform<F>,
    pub ginger_stats: EncodingStats,
    pub times: BuildTimes,
}

/// Seconds spent producing one instance.
#[derive(Clone, Copy, Debug, Default)]
pub struct InstanceTimes {
    pub gen_inputs_s: f64,
    pub solve_s: f64,
    pub local_s: f64,
}

/// One instance of a batch: the prover's witness and the io vector the
/// verifier claims (inputs then outputs, in QAP order).
pub struct Instance<F> {
    pub witness: QapWitness<F>,
    pub io: Vec<F>,
    pub times: InstanceTimes,
}

impl<F: BenchField> Circuit<F> {
    /// Compiles `app` and builds its PCP at ρ = 8, ρ_lin = 20.
    pub fn build(app: App) -> Self {
        let t = Instant::now();
        let (ginger, solver) = app.compile::<F>();
        let compile_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let quad = ginger_to_quad(&ginger);
        let transform_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let qap = Qap::new(&quad.system);
        let qap_build_s = t.elapsed().as_secs_f64();
        Circuit {
            app,
            pcp: ZaatarPcp::new(qap, PcpParams::default()),
            solver,
            ginger_stats: ginger_stats(&ginger),
            quad,
            times: BuildTimes { compile_s, transform_s, qap_build_s },
        }
    }

    /// Length of the z-oracle, `|Z|`.
    pub fn z_len(&self) -> usize {
        self.pcp.qap().var_map().num_unbound()
    }

    /// Length of the h-oracle, `|C| + 1` over the padded domain.
    pub fn h_len(&self) -> usize {
        self.pcp.qap().degree() + 1
    }

    /// Generates the instance for `seed`, solves its witness, and checks
    /// the circuit's outputs against the native reference — a mismatch
    /// is an error, never a silently wrong claim.
    pub fn instance(&self, seed: u64) -> Result<Instance<F>, String> {
        let t = Instant::now();
        let inputs: Vec<F> = self.app.gen_inputs(seed);
        let gen_inputs_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let asg = self.solver.solve(&inputs).map_err(|e| format!("{}: witness solve failed: {e}", self.app.label()))?;
        let ext = self.quad.extend_assignment(&asg);
        let qap = self.pcp.qap();
        let witness = qap.witness(&ext);
        let solve_s = t.elapsed().as_secs_f64();

        let raw = self.app.raw_inputs(seed);
        let t = Instant::now();
        let expected = std::hint::black_box(self.app.reference(std::hint::black_box(&raw)));
        let local_s = t.elapsed().as_secs_f64();

        let outputs: Option<Vec<i64>> = asg.extract(self.solver.outputs()).into_iter().map(decode_i64).collect();
        if outputs.as_deref() != Some(expected.as_slice()) {
            return Err(format!(
                "{}: outputs {outputs:?} differ from the native reference {expected:?} at seed {seed}",
                self.app.label()
            ));
        }
        let io = qap.var_map().inputs().iter().chain(qap.var_map().outputs()).map(|v| ext.get(*v)).collect();
        Ok(Instance { witness, io, times: InstanceTimes { gen_inputs_s, solve_s, local_s } })
    }
}

/// The instances one session proves: `circuit_ids[i]` names the circuit
/// of instance `i`. A homogeneous batch has one circuit.
pub struct Batch<F> {
    pub circuits: Vec<Circuit<F>>,
    pub circuit_ids: Vec<u32>,
    pub instances: Vec<Instance<F>>,
}

impl<F: BenchField> Batch<F> {
    /// Builds every circuit of `mix` (an app and how many instances of
    /// it) and generates the instances from `seed`: instance `i` uses
    /// input seed `seed + i`, as the issue specifies.
    pub fn build(mix: &[(App, usize)], seed: u64) -> Result<Self, String> {
        let circuits: Vec<Circuit<F>> = mix.iter().map(|(app, _)| Circuit::build(*app)).collect();
        let mut circuit_ids = Vec::new();
        let mut instances = Vec::new();
        for (c, (_, count)) in mix.iter().enumerate() {
            for _ in 0..*count {
                let i = instances.len() as u64;
                instances.push(circuits[c].instance(seed.wrapping_add(i))?);
                circuit_ids.push(c as u32);
            }
        }
        Ok(Batch { circuits, circuit_ids, instances })
    }

    pub fn beta(&self) -> usize {
        self.instances.len()
    }

    pub fn is_hetero(&self) -> bool {
        self.circuits.len() > 1
    }

    pub fn pcps(&self) -> Vec<&Pcp<F>> {
        self.circuits.iter().map(|c| &c.pcp).collect()
    }

    pub fn circuit_of(&self, instance: usize) -> &Circuit<F> {
        &self.circuits[self.circuit_ids[instance] as usize]
    }

    pub fn ios(&self) -> Vec<Vec<F>> {
        self.instances.iter().map(|i| i.io.clone()).collect()
    }

    /// Instance 0's witness with one coordinate flipped — the warm-up's
    /// second negative control. Neither the prover's divisibility gate
    /// nor the verifier may accept it.
    pub fn flipped_witness(&self) -> QapWitness<F> {
        let mut bad = self.instances[0].witness.clone();
        let k = bad.z.len() / 2;
        bad.z[k] += F::ONE;
        bad
    }

    /// The proof a cheating prover would ship for [`Batch::flipped_witness`].
    pub fn cheating_proof(&self) -> ZaatarProof<F> {
        self.circuit_of(0).pcp.prove_unchecked(&self.flipped_witness())
    }
}
