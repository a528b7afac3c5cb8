//! A minimal in-tree benchmark harness used by the `benches/` targets.
//!
//! The container this repo builds in has no network access, so the
//! benches cannot depend on criterion; this module provides the small
//! subset we need: named groups, adaptive iteration counts, and
//! median-of-samples reporting in engineering units. Run with
//! `cargo bench -p zaatar-bench`.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall-clock time per measured sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(40);
/// Number of measured samples per benchmark (median is reported).
const SAMPLES: usize = 7;

/// A named group of related benchmarks, printed as an aligned block.
pub struct BenchGroup {
    name: String,
}

impl BenchGroup {
    /// Starts a group, printing its header.
    pub fn new(name: &str) -> Self {
        println!("\n{name}");
        println!("{}", "-".repeat(name.len()));
        BenchGroup { name: name.to_string() }
    }

    /// Measures `f`, printing median time per iteration.
    pub fn bench<R, F: FnMut() -> R>(&mut self, name: &str, f: F) {
        self.bench_items(name, 1, f);
    }

    /// Measures `f`, one call of which processes `items` items (the
    /// terms of an inner product, say), printing median time per item.
    pub fn bench_items<R, F: FnMut() -> R>(&mut self, name: &str, items: u64, mut f: F) {
        // Warm up and calibrate: find an iteration count that fills the
        // sample target.
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let t = start.elapsed();
            if t >= SAMPLE_TARGET / 4 || iters >= 1 << 24 {
                let per_iter = t.as_nanos().max(1) / u128::from(iters);
                iters = (SAMPLE_TARGET.as_nanos() / per_iter).clamp(1, 1 << 24) as u64;
                break;
            }
            iters *= 8;
        }
        let mut samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed().as_secs_f64() / iters as f64
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2] / items as f64;
        println!(
            "  {:<32} {:>12}/{}  ({} iters/sample)",
            format!("{}/{}", self.name, name),
            fmt_nanos(median * 1e9),
            if items == 1 { "iter" } else { "item" },
            iters
        );
    }
}

fn fmt_nanos(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}
