//! Execution policy layer: worker counts and the prover's chunk length
//! as one explicit object instead of scattered globals — and the one
//! place the workspace starts threads.
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
//! * [`parallel_map`] / [`parallel_map_with`] — §5.2's static sharding
//!   ("each machine computing a subset of a batch"): the crate that
//!   resolves the worker count is the crate that spawns.
//!
//! Every decision is a pure function of its inputs, so the scheduler is
//! testable with synthetic profiles — no wall clock anywhere in the
//! decision path. Policy dispatch is byte-transparent to transcripts: a
//! policy changes *where* and *when* work happens (threads, chunks),
//! never the field/group values that reach the wire.

#![forbid(unsafe_code)]

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::OnceLock;
use std::time::Instant;

use zaatar_mem::MemBudget;

/// Residency, in field elements per domain point, that a budget must
/// cover before the scheduler picks the covering chunk
/// ([`Proving::Monolithic`]). The pipeline peaks at
/// [`STREAM_FLOOR_ELEMS_PER_POINT`] at any chunk, so this over-predicts
/// a `Monolithic` run; the value fixes where `proving_for` switches,
/// and re-fitting it is part of the ROADMAP's chunk-axis item.
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

/// The worker count actually used for a request of `requested`
/// workers: [`HostProfile::from_env`]'s
/// [`effective_workers`](HostProfile::effective_workers) — the
/// `ZAATAR_WORKERS` pin verbatim when set, else the request clamped to
/// the host's parallelism. Callers still clamp to the item count.
pub fn effective_workers(requested: usize) -> usize {
    HostProfile::from_env().effective_workers(requested)
}

/// Splits `batch_size` items across `workers` contiguous shards as
/// evenly as possible (the per-machine subsets of §5.2); trailing
/// shards are empty when there are more workers than items.
pub fn shard_batch(batch_size: usize, workers: usize) -> Vec<Range<usize>> {
    let workers = workers.max(1);
    let base = batch_size / workers;
    let extra = batch_size % workers;
    let mut shards = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        shards.push(start..start + len);
        start += len;
    }
    shards
}

/// Applies `f` to every item on up to `workers` threads, preserving
/// order: [`parallel_map_with`] without per-worker state.
pub fn parallel_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(items, workers, || (), |(), item| f(item))
}

/// The workspace's one thread primitive. `workers` goes through
/// [`effective_workers`] and a clamp to the item count; items then go
/// to workers as the contiguous runs of [`shard_batch`] — static
/// sharding, no stealing: every caller hands over equal-cost items. The
/// first run executes on the calling thread and one scoped thread is
/// spawned per further run, so one worker (or one item, or
/// `ZAATAR_WORKERS=1`) spawns nothing. Each worker calls `init` once
/// and threads the value through its `f` calls by `&mut` — how the
/// batch prover gives every worker its own workspace. Items may hold
/// `&mut` borrows: each is moved to exactly one worker.
///
/// # Panics
///
/// If `f` or `init` panics, the other runs still finish their own
/// items; then the payload of the first panicking run in item order is
/// re-raised on the calling thread.
pub fn parallel_map_with<T, R, W, I, F>(items: Vec<T>, workers: usize, init: I, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, T) -> R + Sync,
{
    let work = |run: Vec<T>| -> Vec<R> {
        let mut state = init();
        run.into_iter().map(|item| f(&mut state, item)).collect()
    };
    let workers = effective_workers(workers).clamp(1, items.len().max(1));
    let shards = shard_batch(items.len(), workers);
    let mut items = items.into_iter();
    let mut runs = shards.into_iter().map(|shard| items.by_ref().take(shard.len()).collect());
    let first: Vec<T> = runs.next().expect("shard_batch returns at least one shard");
    // A panic in `work(first)` unwinds through the scope, which joins
    // every thread before re-raising it; a panic in a later run comes
    // back from its `join` and the scope joins the rest.
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = runs.map(|run| scope.spawn(move || work(run))).collect();
        let mut out = work(first);
        for handle in handles {
            out.extend(handle.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
        out
    })
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
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    // The thread layer. Requests pass through `effective_workers`, so
    // expectations are stated at the count the host resolves (`resolved`):
    // two or more cores run real threads, and `tools/ci.sh` reruns this
    // suite under `ZAATAR_WORKERS=1` and `=4`.

    fn resolved(requested: usize, items: usize) -> usize {
        effective_workers(requested).clamp(1, items.max(1))
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string payload>".into())
    }

    #[test]
    fn effective_workers_clamps_to_host_parallelism() {
        // Relies on ZAATAR_WORKERS being unset in the default test
        // environment (the env-override case has its own
        // single-process integration test).
        if std::env::var("ZAATAR_WORKERS").is_ok() {
            return;
        }
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(effective_workers(1), 1);
        assert_eq!(effective_workers(host), host);
        assert_eq!(effective_workers(host + 100), host);
        // A zero request still yields a usable worker count.
        assert_eq!(effective_workers(0), 1);
    }

    #[test]
    fn shards_cover_batch_exactly() {
        for (batch, workers) in [(60, 4), (60, 7), (5, 10), (0, 3), (61, 60)] {
            let shards = shard_batch(batch, workers);
            assert_eq!(shards.len(), workers.max(1));
            let total: usize = shards.iter().map(|r| r.len()).sum();
            assert_eq!(total, batch, "batch={batch} workers={workers}");
            // Contiguous and non-overlapping.
            let mut pos = 0;
            for r in &shards {
                assert_eq!(r.start, pos);
                pos = r.end;
            }
            // Balanced within 1.
            let lens: Vec<usize> = shards.iter().map(|r| r.len()).collect();
            let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn map_preserves_order_at_any_shape() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(parallel_map(items, 8, |x| x * x), expect);
        // Empty input, and more workers than items.
        assert!(parallel_map(Vec::<i32>::new(), 4, |x| x).is_empty());
        assert_eq!(parallel_map(vec![9], 64, |x| x * 2), vec![18]);
    }

    #[test]
    fn each_worker_inits_once_and_carries_its_state_down_one_contiguous_run() {
        // The contract callers rely on: worker w handles exactly shard
        // w of `shard_batch`, in order, on one thread with one state —
        // the first on the caller's. An index-claiming map interleaves
        // the runs; a request for one worker is the sequential case.
        let caller = std::thread::current().id();
        for (n, requested) in [(3, 1), (10, 3), (500, 4)] {
            let workers = resolved(requested, n);
            let inits = AtomicUsize::new(0);
            let out = parallel_map_with(
                (0..n).collect(),
                requested,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::new()
                },
                |mine: &mut Vec<usize>, i| {
                    mine.push(i);
                    (std::thread::current().id(), mine.clone())
                },
            );
            assert_eq!(inits.load(Ordering::Relaxed), workers);
            for shard in shard_batch(n, workers) {
                for i in shard.clone() {
                    assert_eq!(out[i].0, out[shard.start].0, "one thread per run");
                    assert_eq!(out[i].1, (shard.start..=i).collect::<Vec<_>>());
                }
            }
            assert_eq!(out[0].0, caller);
            let threads: HashSet<_> = out.iter().map(|(id, _)| *id).collect();
            assert_eq!(threads.len(), workers, "the caller plus one thread per further run");
        }
    }

    #[test]
    fn items_holding_disjoint_mut_borrows_are_all_written() {
        // The `inner_product_split` / `matvec_into` shape: every item
        // carries a `&mut` into caller-owned storage and is moved to
        // exactly one worker.
        let mut slots = vec![0u64; 7];
        let items: Vec<(u64, &mut u64)> = (1..).zip(slots.iter_mut()).collect();
        parallel_map(items, 3, |(i, slot)| *slot = i * i);
        assert_eq!(slots, [1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn a_panic_propagates_its_original_payload_after_siblings_finish() {
        // The caller sees the worker's own message, not a poisoning
        // artifact; the run holding item 37 stops there and every
        // other run finishes its items.
        let handled = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map((0..100).collect::<Vec<usize>>(), 4, |x| {
                if x == 37 {
                    panic!("item 37 exploded");
                }
                handled.fetch_add(1, Ordering::Relaxed);
                x * 2
            })
        }));
        let msg = panic_message(result.expect_err("panic must propagate"));
        assert!(msg.contains("item 37 exploded"), "got: {msg}");
        let shards = shard_batch(100, resolved(4, 100));
        let abandoned = shards.iter().find(|s| s.contains(&37)).unwrap().end - 37;
        assert_eq!(handled.load(Ordering::Relaxed), 100 - abandoned);

        // A lone item panics on the calling thread just the same.
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(vec![2], 1, |x: i32| -> i32 { panic!("sequential path panics too: {x}") })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn concurrent_panics_surface_exactly_one_payload() {
        // Every item panics; the caller still gets one faithful payload
        // — the first run's — and the process does not abort from a
        // double panic.
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map((0..64).collect::<Vec<i32>>(), 8, |x| -> i32 {
                panic!("worker panic on {x}");
            })
        }));
        let msg = panic_message(result.expect_err("panic must propagate"));
        assert_eq!(msg, "worker panic on 0");
    }
}
