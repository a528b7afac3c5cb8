//! The parallel/distributed prover (§5.2, Fig. 6).
//!
//! Instances of a batch are embarrassingly parallel — the paper
//! distributes them over machines ("with each machine computing a subset
//! of a batch") and reports near-linear speedup plus ~20% per-instance
//! gains from GPU-offloaded crypto. Here the same sharding runs over
//! worker threads; "GPU" workers are modeled as applying the measured
//! crypto-acceleration factor (DESIGN.md §3 documents this
//! substitution).
//!
//! The thread primitives themselves ([`parallel_map`], [`shard_batch`])
//! live in `zaatar_poly::parallel` and are re-exported here unchanged.

pub use zaatar_poly::parallel::{effective_workers, parallel_map, parallel_map_with, shard_batch};

/// A hardware configuration in the paper's Fig. 6 notation (`4C`,
/// `15C+15G`, …).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HardwareConfig {
    /// CPU core count.
    pub cores: usize,
    /// GPU count (crypto acceleration, modeled).
    pub gpus: usize,
}

impl HardwareConfig {
    /// A CPU-only configuration.
    pub fn cpus(cores: usize) -> Self {
        HardwareConfig { cores, gpus: 0 }
    }

    /// A CPU+GPU configuration.
    pub fn with_gpus(cores: usize, gpus: usize) -> Self {
        HardwareConfig { cores, gpus }
    }

    /// The paper's measured per-instance latency gain from GPU crypto
    /// offload ("GPU acceleration improves per-instance latency by
    /// roughly 20%", §5.2): applied as a multiplicative factor to the
    /// crypto-dominated share of prover work when `gpus > 0`.
    pub fn gpu_latency_factor(&self) -> f64 {
        if self.gpus > 0 {
            0.8
        } else {
            1.0
        }
    }
}

impl core::fmt::Display for HardwareConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.gpus > 0 {
            write!(f, "{}C+{}G", self.cores, self.gpus)
        } else {
            write!(f, "{}C", self.cores)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map(items.clone(), 8, |x| x * x);
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn single_worker_is_sequential() {
        let out = parallel_map(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items() {
        let out = parallel_map(vec![9], 64, |x| x * 2);
        assert_eq!(out, vec![18]);
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
    fn config_display_matches_figure6_notation() {
        assert_eq!(HardwareConfig::cpus(4).to_string(), "4C");
        assert_eq!(HardwareConfig::with_gpus(15, 15).to_string(), "15C+15G");
    }

    #[test]
    fn gpu_factor() {
        assert_eq!(HardwareConfig::cpus(4).gpu_latency_factor(), 1.0);
        assert_eq!(HardwareConfig::with_gpus(4, 4).gpu_latency_factor(), 0.8);
    }

    #[test]
    fn panic_in_worker_propagates_original_payload() {
        // The caller sees the worker's own panic message — not a
        // mutex-poisoning artifact from a sibling thread.
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map((0..100).collect::<Vec<i32>>(), 4, |x| {
                if x == 37 {
                    panic!("item 37 exploded");
                }
                x * 2
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-string payload>");
        assert!(msg.contains("item 37 exploded"), "got: {msg}");
    }

    #[test]
    fn panic_with_single_worker_also_propagates() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(vec![1, 2, 3], 1, |x| {
                if x == 2 {
                    panic!("sequential path panics too");
                }
                x
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn concurrent_panics_surface_exactly_one_payload() {
        // Every item panics; the caller still gets one faithful payload
        // and the process does not abort from a double panic.
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map((0..64).collect::<Vec<i32>>(), 8, |x| -> i32 {
                panic!("worker panic on {x}");
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("worker panic on"), "got: {msg}");
    }

    #[test]
    fn parallel_map_actually_uses_threads() {
        // Sanity: thread ids differ across a large map.
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        let _ = parallel_map((0..200).collect::<Vec<_>>(), 4, |x| {
            ids.lock().unwrap().insert(std::thread::current().id());
            x
        });
        // At least one thread ran (scoped workers may or may not all be
        // scheduled, so only a weak assertion is safe).
        assert!(!ids.lock().unwrap().is_empty());
    }
}
