//! Shared-memory parallel primitives used, via re-export, by
//! `zaatar-core`'s batch prover (§5.2, Fig. 6). No transform in this
//! crate calls them: a transform runs on its caller's thread and
//! parallelism is across the instances of a batch.
//!
//! Worker counts may be pinned globally with the `ZAATAR_WORKERS`
//! environment variable (see [`effective_workers`]), which overrides
//! whatever count a caller requests — the operator's knob for running
//! the whole stack single-threaded or matching a machine's core budget
//! without threading a parameter through every layer.

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use zaatar_sched::HostProfile;

/// One output cell, written by exactly one worker (the one that claimed
/// its index) and read only after all workers have joined — the
/// claim/join protocol in [`parallel_map`] is what makes the `Sync`
/// assertion sound, with no per-item lock on the hot path.
struct Slot<V>(UnsafeCell<Option<V>>);

// SAFETY: each slot index is claimed by exactly one worker via
// `fetch_add` on the shared cursor, so writes never alias; the scope
// join orders every write before the single-threaded drain.
unsafe impl<V: Send> Sync for Slot<V> {}

/// The worker count actually used for a request of `requested` workers:
/// [`HostProfile::from_env`]'s view of the host — the `ZAATAR_WORKERS`
/// environment variable, when set to a positive integer, replaces the
/// requested count verbatim (read once per process; an unparsable or
/// zero value increments the `sched.env.bad_override` counter and is
/// treated as unset). Without the override, the request is clamped to
/// the host's parallelism — oversubscribing cores only buys scheduling
/// overhead (measured as a <1 speedup on a 1-core host), so a default
/// request never exceeds what the hardware can run concurrently.
/// Callers still clamp to the item count, so neither path ever idles
/// on empty shards.
///
/// The parse and clamp logic lives in `zaatar-sched` so tests can
/// drive it with injected profiles and override strings
/// ([`HostProfile::with_override_str`]) instead of racing the
/// process-global environment.
pub fn effective_workers(requested: usize) -> usize {
    HostProfile::from_env().effective_workers(requested)
}

/// Applies `f` to every item using up to `workers` threads (chunked
/// work-stealing over a shared cursor), preserving output order. The
/// `ZAATAR_WORKERS` environment variable overrides `workers`
/// ([`effective_workers`]).
///
/// # Panics
///
/// If `f` panics on any item, the first panic payload is re-raised on
/// the calling thread once all workers have stopped; remaining items
/// are abandoned, not half-processed into the output.
pub fn parallel_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(items, workers, || (), |(), item| f(item))
}

/// [`parallel_map`] with per-worker state: every worker thread calls
/// `init` exactly once and threads the resulting value through each of
/// its `f` calls by `&mut`. This is how the staged prover gives each
/// worker its own `ProverWorkspace` — buffer pools are built once per
/// thread and reused across every instance that thread processes,
/// without any cross-thread sharing or locking.
///
/// Output order matches input order regardless of which worker handled
/// which item. With one worker (or one item, or `ZAATAR_WORKERS=1`) the
/// whole map runs on the calling thread with a single `init`.
pub fn parallel_map_with<T, R, W, I, F>(items: Vec<T>, workers: usize, init: I, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, T) -> R + Sync,
{
    let workers = effective_workers(workers).max(1).min(items.len().max(1));
    if workers == 1 {
        let mut state = init();
        return items.into_iter().map(|item| f(&mut state, item)).collect();
    }
    let n = items.len();
    // Chunked claiming amortizes the shared-cursor contention: each
    // fetch_add hands a worker a run of consecutive indices, sized so
    // every worker still gets several turns (load balance) without an
    // atomic RMW per item.
    let chunk = (n / (workers * 8)).max(1);
    let inputs: Vec<Slot<T>> = items
        .into_iter()
        .map(|t| Slot(UnsafeCell::new(Some(t))))
        .collect();
    let outputs: Vec<Slot<R>> = (0..n).map(|_| Slot(UnsafeCell::new(None))).collect();
    let next = AtomicUsize::new(0);
    let panicked = AtomicBool::new(false);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = init();
                while !panicked.load(Ordering::Relaxed) {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    for i in start..(start + chunk).min(n) {
                        if panicked.load(Ordering::Relaxed) {
                            return;
                        }
                        // SAFETY: index i belongs to this worker's
                        // claimed chunk; no other worker touches it.
                        let item = unsafe { (*inputs[i].0.get()).take() }
                            .expect("each index claimed once");
                        match catch_unwind(AssertUnwindSafe(|| f(&mut state, item))) {
                            Ok(r) => unsafe { *outputs[i].0.get() = Some(r) },
                            Err(payload) => {
                                // Keep only the first payload; siblings
                                // just stop at the next flag check.
                                let mut guard =
                                    first_panic.lock().expect("panic slot lock");
                                if guard.is_none() {
                                    *guard = Some(payload);
                                }
                                panicked.store(true, Ordering::Relaxed);
                                return;
                            }
                        }
                    }
                }
            });
        }
    });
    if let Some(payload) = first_panic.into_inner().expect("workers joined") {
        resume_unwind(payload);
    }
    outputs
        .into_iter()
        .map(|slot| slot.0.into_inner().expect("all slots filled"))
        .collect()
}

/// Splits `batch_size` instances across `workers` shards as evenly as
/// possible (the per-machine subsets of §5.2).
pub fn shard_batch(batch_size: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_workers_clamps_to_host_parallelism() {
        // This test relies on ZAATAR_WORKERS being unset in the default
        // test environment (the env-override case has its own
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
    fn map_with_threads_state_through_each_worker() {
        // Every worker's state counts the items it handled; the total
        // across workers must cover the batch exactly once.
        use std::sync::atomic::AtomicUsize;
        let handled = AtomicUsize::new(0);
        let out = parallel_map_with(
            (0..500u64).collect::<Vec<_>>(),
            4,
            || 0usize,
            |count, x| {
                *count += 1;
                handled.fetch_add(1, Ordering::Relaxed);
                x * 3
            },
        );
        assert_eq!(out, (0..500u64).map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(handled.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn map_with_serial_initializes_once() {
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let out = parallel_map_with(
            vec![1, 2, 3],
            1,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<i32>::new()
            },
            |buf, x| {
                buf.push(x);
                buf.len()
            },
        );
        // One worker, one state: the buffer accumulates across items.
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(inits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn map_with_reuses_state_within_a_worker() {
        // A worker's scratch buffer keeps its capacity across items.
        let caps = parallel_map_with(
            vec![64usize; 32],
            2,
            Vec::<u8>::new,
            |buf, len| {
                buf.clear();
                buf.resize(len, 0);
                buf.capacity()
            },
        );
        assert!(caps.iter().all(|&c| c >= 64));
    }
}
