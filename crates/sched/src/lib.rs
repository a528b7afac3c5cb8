//! Execution policy layer: worker counts and the prover's chunk length
//! as one explicit object instead of scattered globals.
//!
//! * [`HostProfile`] — what the machine can do: parallelism, a one-time
//!   measured thread spawn/join overhead, and the operator's
//!   `ZAATAR_WORKERS` override (parsed here, once, with a
//!   `sched.env.bad_override` counter on garbage instead of silence).
//! * [`ExecPolicy`] — what one prover run will do: worker count and
//!   the chunk length of the (single) prover pipeline.
//! * [`Scheduler`] — derives an [`ExecPolicy`] from the workload shape
//!   (circuit size, batch size β, element width), a
//!   [`zaatar_mem::MemBudget`] and the host profile.
//!
//! Every decision is a pure function of its inputs, so the scheduler is
//! testable with synthetic profiles — no wall clock anywhere in the
//! decision path. Policy dispatch is byte-transparent to transcripts: a
//! policy changes *where* and *when* work happens (threads, chunks),
//! never the field/group values that reach the wire.

use std::sync::OnceLock;
use std::time::Instant;

use zaatar_mem::MemBudget;

/// Residency, in field elements per domain point, that a budget must
/// cover before the scheduler picks the covering chunk
/// ([`Proving::Monolithic`]). The pipeline peaks at
/// [`STREAM_FLOOR_ELEMS_PER_POINT`] at any chunk, so this over-predicts
/// a `Monolithic` run; the value fixes where `proving_for` switches,
/// and re-fitting it is ROADMAP item 5.
const MONO_PEAK_ELEMS_PER_POINT: usize = 10;

/// Pipeline residency floor, in elements per domain point: the chunked
/// A/B/C value vectors are full length (3n) and the quotient drain
/// holds two 2n coset buffers (4n). Measured: 57,344 B = 7 n elements
/// at n = 1024. Chunk length tunes transients above this floor, not
/// the floor itself.
const STREAM_FLOOR_ELEMS_PER_POINT: usize = 7;

/// Smallest chunk the scheduler will derive — below this the per-chunk
/// lease/release traffic dominates the work inside the chunk (the
/// bench's streaming geometry bottomed out at the same value).
const MIN_CHUNK_LEN: usize = 16;

/// Default working-set size above which the scheduler chunks the
/// pipeline even with no budget in force (fitted on F61: a covering
/// chunk was faster at an 80 KiB working set, n/8 chunks at 320 KiB).
/// Overridable per profile for hosts with other cache sizes.
const DEFAULT_CACHE_RESIDENT_BYTES: usize = 256 << 10;

/// Spawn-probe fallback when a measurement is impossible or absurd
/// (e.g. a clock that reports zero): a mid-range value for commodity
/// hosts so derived cutoffs stay sane.
const DEFAULT_SPAWN_OVERHEAD_NS: f64 = 25_000.0;

/// What the machine running this process can do: measured once, cached
/// for the process lifetime, and injectable for tests (every field is
/// plain data — no global state is consulted after construction).
/// All four fields stay public because `zbench/src/host.rs` prints them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostProfile {
    /// Hardware threads available to this process
    /// ([`std::thread::available_parallelism`], floor 1).
    pub parallelism: usize,
    /// The operator's `ZAATAR_WORKERS` pin, when set to a positive
    /// integer: replaces every derived or requested worker count
    /// verbatim. `None` when unset or unparsable (the bad parse is
    /// counted, not silently dropped).
    pub worker_override: Option<usize>,
    /// Measured cost of one thread spawn + join, in nanoseconds.
    pub spawn_overhead_ns: f64,
    /// Working-set size above which [`Scheduler::proving_for`] chunks
    /// the pipeline on this host even without a budget.
    pub cache_resident_bytes: usize,
}

impl HostProfile {
    /// Probes the host once and caches the result for the process
    /// lifetime: parallelism from the OS, spawn overhead measured by
    /// timing a handful of spawn/join round trips. Does **not** read
    /// the environment — see [`HostProfile::from_env`] for the
    /// operator-override layer.
    pub fn detect() -> HostProfile {
        static PROBED: OnceLock<HostProfile> = OnceLock::new();
        *PROBED.get_or_init(HostProfile::probe)
    }

    /// The profile every in-tree `effective_workers` call consults:
    /// [`HostProfile::detect`] plus the `ZAATAR_WORKERS` environment
    /// override, both read once per process. A bad override value
    /// (unparsable, or zero) increments the `sched.env.bad_override`
    /// counter exactly once and is otherwise treated as unset.
    pub fn from_env() -> HostProfile {
        static CACHED: OnceLock<HostProfile> = OnceLock::new();
        *CACHED.get_or_init(|| {
            HostProfile::detect()
                .with_override_str(std::env::var("ZAATAR_WORKERS").ok().as_deref())
        })
    }

    /// A fully synthetic profile for deterministic tests: no probing,
    /// no environment, default cache threshold.
    pub fn synthetic(parallelism: usize, spawn_overhead_ns: f64) -> HostProfile {
        HostProfile {
            parallelism: parallelism.max(1),
            worker_override: None,
            spawn_overhead_ns,
            cache_resident_bytes: DEFAULT_CACHE_RESIDENT_BYTES,
        }
    }

    /// Applies an override string (the raw `ZAATAR_WORKERS` value, or
    /// an injected one in tests) to this profile. Pure: the environment
    /// is never consulted, so tests can drive every parse path without
    /// process-global env ordering. `Some` garbage or zero counts one
    /// `sched.env.bad_override` and leaves the override unset.
    pub fn with_override_str(mut self, raw: Option<&str>) -> HostProfile {
        self.worker_override = match raw {
            None => None,
            Some(raw) => match raw.trim().parse::<usize>() {
                Ok(w) if w >= 1 => Some(w),
                _ => {
                    zaatar_obs::counter("sched.env.bad_override").inc();
                    None
                }
            },
        };
        self
    }

    /// The worker count actually used for a request of `requested`
    /// workers: the override, when pinned, replaces the request
    /// verbatim; otherwise the request is clamped to the host's
    /// parallelism (oversubscribing cores only buys scheduling
    /// overhead) with a floor of one.
    pub fn effective_workers(&self, requested: usize) -> usize {
        match self.worker_override {
            Some(w) => w,
            None => requested.min(self.parallelism).max(1),
        }
    }

    fn probe() -> HostProfile {
        let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        HostProfile {
            parallelism,
            worker_override: None,
            spawn_overhead_ns: measure_spawn_overhead_ns(),
            cache_resident_bytes: DEFAULT_CACHE_RESIDENT_BYTES,
        }
    }
}

/// Times a few thread spawn + join round trips and returns the mean,
/// in nanoseconds. Runs once per process (behind [`HostProfile::detect`]'s
/// cache); four spawns keep the probe under a millisecond on any host
/// that can run the prover at all.
fn measure_spawn_overhead_ns() -> f64 {
    const ROUNDS: u32 = 4;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        std::thread::spawn(|| {}).join().expect("probe thread");
    }
    let per_spawn = start.elapsed().as_nanos() as f64 / f64::from(ROUNDS);
    if per_spawn <= 0.0 {
        DEFAULT_SPAWN_OVERHEAD_NS
    } else {
        per_spawn
    }
}

/// The chunk length of the prover pipeline. There is one pipeline —
/// chunked Witness, chunk-draining Quotient, chunked Commit, all over
/// hard (`try_take`) leases — and its only degree of freedom is how
/// many elements a chunk holds; proofs are byte-identical at any value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proving {
    /// One chunk that covers the whole vector.
    Monolithic,
    /// Chunks of `chunk_len` field elements.
    Streamed {
        /// Field elements per chunk; any value is accepted and
        /// normalised by [`Proving::chunk_len_for`].
        chunk_len: usize,
    },
}

impl Proving {
    /// The chunk length to run a `len`-element stage at: `len` for
    /// [`Proving::Monolithic`], `chunk_len` clamped to `1..=len` for
    /// [`Proving::Streamed`] (never 0, even for an empty vector). The
    /// one place a stage learns its chunk length from the policy.
    pub fn chunk_len_for(self, len: usize) -> usize {
        let len = len.max(1);
        match self {
            Proving::Monolithic => len,
            Proving::Streamed { chunk_len } => chunk_len.clamp(1, len),
        }
    }
}

/// Every execution decision for one prover run, in one place. Plain
/// data: carrying a policy costs a few words, and stamping one on a
/// workspace never changes the bytes any prover path produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Worker threads for batch-level parallelism
    /// (`prove_batch_with_policy`). Call sites still clamp to the item
    /// count.
    pub workers: usize,
    /// Chunk length of the prover pipeline.
    pub proving: Proving,
}

impl ExecPolicy {
    /// The do-nothing-clever policy: one worker, one covering chunk.
    pub fn serial() -> ExecPolicy {
        ExecPolicy::with_workers(1)
    }

    /// A covering-chunk policy pinning `workers`.
    pub fn with_workers(workers: usize) -> ExecPolicy {
        ExecPolicy {
            workers: workers.max(1),
            proving: Proving::Monolithic,
        }
    }

    /// A serial policy pinning `chunk_len`.
    pub fn streamed(chunk_len: usize) -> ExecPolicy {
        ExecPolicy {
            proving: Proving::Streamed { chunk_len: chunk_len.max(1) },
            ..ExecPolicy::serial()
        }
    }
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy::serial()
    }
}

/// The inputs a scheduling decision depends on, per workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadShape {
    /// QAP domain size `|C_z|` (constraint count; padded to a power of
    /// two internally, matching the transform sizes the prover runs).
    pub domain_size: usize,
    /// Batch size β — instances proved together.
    pub batch: usize,
    /// Bytes per field element (residency predictions scale by this).
    pub elem_bytes: usize,
}

impl WorkloadShape {
    /// The transform size the prover actually runs at: `domain_size`
    /// rounded up to a power of two.
    pub fn padded_domain(&self) -> usize {
        self.domain_size.max(1).next_power_of_two()
    }
}

/// Derives an [`ExecPolicy`] from workload shape, memory budget and
/// host profile. Every method is a pure function of the constructor
/// input and its arguments.
#[derive(Clone, Copy, Debug)]
pub struct Scheduler {
    host: HostProfile,
}

impl Scheduler {
    /// A scheduler for `host`.
    pub fn new(host: HostProfile) -> Scheduler {
        Scheduler { host }
    }

    /// The full policy for one workload under `budget`: one worker per
    /// batch instance up to the host's parallelism (an operator
    /// `ZAATAR_WORKERS` pin wins outright), and
    /// [`Scheduler::proving_for`]'s chunk length.
    pub fn policy(&self, shape: WorkloadShape, budget: MemBudget) -> ExecPolicy {
        ExecPolicy {
            workers: self.host.effective_workers(shape.batch),
            proving: self.proving_for(shape, budget),
        }
    }

    /// The residency, in bytes, a budget must cover for `shape` before
    /// [`Scheduler::proving_for`] picks the covering chunk (10 elements
    /// per padded domain point — an over-prediction of the 7 n the
    /// pipeline peaks at; see `MONO_PEAK_ELEMS_PER_POINT`).
    pub fn predicted_monolithic_peak_bytes(shape: WorkloadShape) -> usize {
        MONO_PEAK_ELEMS_PER_POINT * shape.padded_domain() * shape.elem_bytes
    }

    /// Predicted pipeline residency floor for `shape`, in bytes (7
    /// elements per padded point; chunk length tunes transients above
    /// this, never below).
    pub fn predicted_streamed_floor_bytes(shape: WorkloadShape) -> usize {
        STREAM_FLOOR_ELEMS_PER_POINT * shape.padded_domain() * shape.elem_bytes
    }

    /// Covering chunk vs smaller chunks for `shape` under `budget`:
    /// chunked when [`Scheduler::predicted_monolithic_peak_bytes`]
    /// would cross the budget, or — with room to spare — when it falls
    /// out of cache. Otherwise one covering chunk.
    pub fn proving_for(&self, shape: WorkloadShape, budget: MemBudget) -> Proving {
        let peak = Scheduler::predicted_monolithic_peak_bytes(shape);
        let over_budget = budget.limit_bytes().is_some_and(|limit| peak > limit);
        if over_budget || peak > self.host.cache_resident_bytes {
            Proving::Streamed { chunk_len: self.chunk_len(shape, budget) }
        } else {
            Proving::Monolithic
        }
    }

    /// Chunk length for the pipeline under `budget`: half the
    /// element headroom between the budget and the residency floor
    /// (half, because the pool's power-of-two size classes can round a
    /// lease up to 2x), clamped to `[16, padded domain]`. With no
    /// budget in force the cache-friendly default is one-eighth of the
    /// domain — eight chunks, enough to keep per-chunk overhead
    /// negligible while the working chunk stays small.
    pub fn chunk_len(&self, shape: WorkloadShape, budget: MemBudget) -> usize {
        let n = shape.padded_domain();
        match budget.limit_bytes() {
            None => (n / 8).max(MIN_CHUNK_LEN),
            Some(limit) => {
                let floor = Scheduler::predicted_streamed_floor_bytes(shape);
                let headroom_elems =
                    limit.saturating_sub(floor) / shape.elem_bytes.max(1);
                (headroom_elems / 2).clamp(MIN_CHUNK_LEN, n.max(MIN_CHUNK_LEN))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(domain: usize, batch: usize) -> WorkloadShape {
        WorkloadShape { domain_size: domain, batch, elem_bytes: 8 }
    }

    #[test]
    fn override_parsing_counts_garbage_and_zero() {
        let counter = zaatar_obs::counter("sched.env.bad_override");
        let before = counter.get();
        let p = HostProfile::synthetic(4, 50_000.0).with_override_str(Some("not-a-number"));
        assert_eq!(p.worker_override, None);
        assert_eq!(counter.get(), before + 1);
        let p = p.with_override_str(Some("0"));
        assert_eq!(p.worker_override, None);
        assert_eq!(counter.get(), before + 2);
        // A good override parses without touching the counter and wins
        // over both requests and host parallelism.
        let p = p.with_override_str(Some(" 3 "));
        assert_eq!(p.worker_override, Some(3));
        assert_eq!(counter.get(), before + 2);
        assert_eq!(p.effective_workers(8), 3);
        assert_eq!(p.effective_workers(1), 3);
        // And None clears it.
        let p = p.with_override_str(None);
        assert_eq!(p.worker_override, None);
        assert_eq!(counter.get(), before + 2);
    }

    #[test]
    fn effective_workers_clamps_to_parallelism_without_override() {
        let p = HostProfile::synthetic(4, 50_000.0);
        assert_eq!(p.effective_workers(0), 1);
        assert_eq!(p.effective_workers(3), 3);
        assert_eq!(p.effective_workers(64), 4);
    }

    #[test]
    fn unlimited_budget_stays_monolithic_while_cache_resident() {
        // n = 1024: predicted peak 80 KiB — inside the 256 KiB cache
        // threshold, so monolithic.
        let s = Scheduler::new(HostProfile::synthetic(1, 20_000.0));
        assert_eq!(
            s.proving_for(shape(1024, 16), MemBudget::unlimited()),
            Proving::Monolithic
        );
        // n = 4096: predicted peak 320 KiB — past the cache threshold,
        // so streamed even with no budget in force.
        assert!(matches!(
            s.proving_for(shape(4096, 16), MemBudget::unlimited()),
            Proving::Streamed { .. }
        ));
    }

    #[test]
    fn budget_pressure_forces_streaming_with_bounded_chunk() {
        let s = Scheduler::new(HostProfile::synthetic(1, 20_000.0));
        let sh = shape(1024, 1);
        let peak = Scheduler::predicted_monolithic_peak_bytes(sh);
        assert_eq!(peak, 10 * 1024 * 8);
        // A budget exactly at the peak still fits monolithic.
        assert_eq!(s.proving_for(sh, MemBudget::bytes(peak)), Proving::Monolithic);
        // One byte less forces streaming.
        let Proving::Streamed { chunk_len } = s.proving_for(sh, MemBudget::bytes(peak - 1))
        else {
            panic!("expected streamed under budget pressure");
        };
        assert!(chunk_len >= MIN_CHUNK_LEN);
        assert!(chunk_len <= 1024);
        // Chunk residency above the floor must fit in the headroom
        // (half of it, leaving room for size-class rounding).
        let floor = Scheduler::predicted_streamed_floor_bytes(sh);
        let headroom = (peak - 1) - floor;
        assert!(chunk_len * 8 <= headroom.max(MIN_CHUNK_LEN * 8 * 2));
    }

    #[test]
    fn chunk_len_grows_with_headroom_and_caps_at_domain() {
        let s = Scheduler::new(HostProfile::synthetic(1, 20_000.0));
        let sh = shape(1024, 1);
        let floor = Scheduler::predicted_streamed_floor_bytes(sh);
        let tight = s.chunk_len(sh, MemBudget::bytes(floor + 64 * 8));
        let roomy = s.chunk_len(sh, MemBudget::bytes(floor + 4096 * 8));
        assert!(tight <= roomy);
        assert!(roomy <= 1024);
        // Unlimited: the cache-friendly n/8 default.
        assert_eq!(s.chunk_len(sh, MemBudget::unlimited()), 128);
        // Tiny domains floor at MIN_CHUNK_LEN.
        assert_eq!(s.chunk_len(shape(32, 1), MemBudget::unlimited()), MIN_CHUNK_LEN);
    }

    #[test]
    fn policy_assembles_all_decisions() {
        let host = HostProfile::synthetic(8, 20_000.0);
        let s = Scheduler::new(host);
        let p = s.policy(shape(1024, 16), MemBudget::unlimited());
        assert_eq!(p.workers, 8);
        assert_eq!(p.proving, Proving::Monolithic);
        // Never more workers than instances.
        assert_eq!(s.policy(shape(1024, 1), MemBudget::unlimited()).workers, 1);
        // An operator pin wins over both.
        let pinned = Scheduler::new(host.with_override_str(Some("2")));
        assert_eq!(pinned.policy(shape(1024, 16), MemBudget::unlimited()).workers, 2);
        assert_eq!(pinned.policy(shape(1024, 1), MemBudget::unlimited()).workers, 2);
    }

    #[test]
    fn policy_constructors_pin_their_contracts() {
        let serial = ExecPolicy::serial();
        assert_eq!(serial.workers, 1);
        assert_eq!(serial.proving, Proving::Monolithic);
        let par = ExecPolicy::with_workers(8);
        assert_eq!(par.workers, 8);
        assert_eq!(par.proving, Proving::Monolithic);
        let st = ExecPolicy::streamed(64);
        assert_eq!(st.proving, Proving::Streamed { chunk_len: 64 });
        assert_eq!(st.workers, 1);
        assert_eq!(ExecPolicy::default(), serial);
    }

    #[test]
    fn chunk_len_for_normalises_every_spelling_of_covering() {
        assert_eq!(Proving::Monolithic.chunk_len_for(1024), 1024);
        assert_eq!(Proving::Monolithic.chunk_len_for(0), 1);
        let streamed = |chunk_len| Proving::Streamed { chunk_len };
        assert_eq!(streamed(64).chunk_len_for(1024), 64);
        assert_eq!(streamed(0).chunk_len_for(1024), 1);
        assert_eq!(streamed(usize::MAX).chunk_len_for(1024), 1024);
        assert_eq!(streamed(7).chunk_len_for(0), 1);
    }
}
