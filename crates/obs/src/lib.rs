//! Zero-dependency observability for the Zaatar workspace: monotonic
//! counters, high-water gauges, scoped timers, and lock-cheap
//! log₂-bucketed histograms, gathered in a [`MetricsRegistry`] that
//! snapshots to a human-readable table and to machine-readable JSON.
//!
//! The paper's evaluation (§5.2, Fig. 5–6) is a story about *measured*
//! per-phase cost — QAP construction, the `H(t)` quotient, commitment
//! crypto, query answering, per-instance checking. This crate is the
//! measurement substrate those figures anchor against: the protocol
//! crates time their phases and count their events here, and the
//! figure binaries and `zbench` cut their per-phase columns from
//! registry snapshots.
//!
//! Design constraints, in order:
//!
//! 1. **Zero dependencies** — like the rest of the workspace, builds
//!    fully offline.
//! 2. **Cheap on the hot path** — a metric handle is an `Arc` of
//!    atomics; recording is a handful of relaxed atomic ops with no
//!    lock. The registry's name→handle map takes a mutex only on
//!    lookup, so call sites that care cache the handle.
//! 3. **Deterministic snapshots** — maps are `BTreeMap`s, so two
//!    identical runs produce identical metric *sets* (and identical
//!    counter values; timer durations naturally vary).
//!
//! ```
//! let reg = zaatar_obs::MetricsRegistry::new();
//! reg.counter("proofs.constructed").add(3);
//! {
//!     let _t = reg.time("phase.prove"); // records on drop
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counters["proofs.constructed"], 3);
//! assert_eq!(snap.timers["phase.prove"].count, 1);
//! println!("{}", snap.to_json());
//! ```

#![forbid(unsafe_code)]

pub mod json;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Number of log₂ buckets: one for 0 plus one per bit position, so the
/// whole `u64` range is covered — `bucket_of(u64::MAX)` is 64, hence 65
/// slots (64 would drop the top bucket and overflow on e.g. a saturated
/// [`Histogram::record_duration`]).
const BUCKETS: usize = 65;

/// A monotonic counter. Cloning shares the underlying cell.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A high-water gauge: retains the *maximum* value ever observed.
/// Observation order therefore never matters, keeping snapshots
/// deterministic under concurrent recording. Cloning shares the cell.
///
/// Used for watermark-style measurements such as
/// `mem.scratch.high_water` (peak bytes retained by a buffer pool).
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Raises the gauge to `v` if `v` exceeds the current maximum.
    pub fn observe(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current maximum.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistogramInner {
    fn new() -> Self {
        HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [0u64; BUCKETS].map(AtomicU64::new),
        }
    }
}

/// A lock-free histogram over `u64` samples (the registry uses it for
/// durations in nanoseconds). Cloning shares the underlying cells.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner::new()))
    }
}

/// Bucket index of a sample: ⌊log₂ v⌋ + 1, with 0 reserved for v = 0.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Lower bound of a bucket (inverse of [`bucket_of`]; quantiles report
/// [`bucket_ceil`] instead, so only the tests consult the floor).
#[cfg(test)]
fn bucket_floor(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

/// Largest value a bucket can hold. Quantiles report this (clamped to
/// the observed max) rather than the floor: a log₂ bucket only tells us
/// the sample is *somewhere* in `[2^(b−1), 2^b)`, and a percentile is a
/// "no more than" statement, so the conservative bound is the upper one.
/// The floor would systematically under-report: a power of two below the
/// true quantile.
fn bucket_ceil(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        let h = &self.0;
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.min.fetch_min(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
        h.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Summary statistics for this histogram.
    pub fn stats(&self) -> TimerStats {
        let h = &self.0;
        let count = h.count.load(Ordering::Relaxed);
        let sum = h.sum.load(Ordering::Relaxed);
        let buckets: Vec<u64> = h
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let max = h.max.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // Exclusive nearest-rank: ⌊count·q⌋ + 1 (clamped to count).
            // The inclusive form ⌈count·q⌉ under-selects when counts
            // concentrate in low buckets: with 99 small samples and one
            // huge one, ⌈100·0.99⌉ = 99 still lands in the low bucket
            // and p99 reports a value 400× below the observed max. The
            // exclusive rank picks sample 100 — the tail — which is the
            // "no more than" bound a percentile promises.
            let rank = (((count as f64) * q).floor() as u64 + 1).min(count);
            let mut seen = 0;
            for (i, n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    // Upper bound of the bucket, clamped to the observed
                    // max (exact whenever the quantile falls in the top
                    // bucket — e.g. constant distributions).
                    return bucket_ceil(i).min(max);
                }
            }
            max
        };
        TimerStats {
            count,
            total_ns: sum,
            mean_ns: sum.checked_div(count).unwrap_or(0),
            min_ns: if count == 0 {
                0
            } else {
                h.min.load(Ordering::Relaxed)
            },
            max_ns: max,
            p50_ns: quantile(0.5),
            p99_ns: quantile(0.99),
        }
    }
}

/// A scope guard that records its lifetime into a [`Histogram`] on drop.
pub struct TimerGuard {
    hist: Histogram,
    start: Instant,
}

impl TimerGuard {
    /// Starts timing against `hist`.
    pub fn new(hist: Histogram) -> Self {
        TimerGuard {
            hist,
            start: Instant::now(),
        }
    }
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

/// Summary of one timer/histogram, all durations in nanoseconds.
/// Percentiles are bucket *upper* bounds clamped to the observed max
/// (log₂ resolution) — a conservative "no more than" figure, never an
/// under-report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimerStats {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub total_ns: u64,
    /// `total / count` (0 when empty).
    pub mean_ns: u64,
    /// Smallest sample (0 when empty).
    pub min_ns: u64,
    /// Largest sample.
    pub max_ns: u64,
    /// Median: upper bound of its bucket, clamped to `max_ns`.
    pub p50_ns: u64,
    /// 99th percentile: upper bound of its bucket, clamped to `max_ns`.
    pub p99_ns: u64,
}

/// A named collection of counters and timers.
///
/// The registry owns the name→handle maps; the handles themselves are
/// shared atomics, so recording never holds the registry lock.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    timers: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use. Cache the handle
    /// on genuinely hot paths; the lookup itself is one mutex + clone.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("registry mutex");
        match map.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Counter::default();
                map.insert(name.to_string(), c.clone());
                c
            }
        }
    }

    /// The high-water gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("registry mutex");
        match map.get(name) {
            Some(g) => g.clone(),
            None => {
                let g = Gauge::default();
                map.insert(name.to_string(), g.clone());
                g
            }
        }
    }

    /// The timer histogram named `name`, created on first use.
    pub fn timer(&self, name: &str) -> Histogram {
        let mut map = self.timers.lock().expect("registry mutex");
        match map.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Histogram::default();
                map.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// Starts a scoped timer: the guard records into `name` on drop.
    pub fn time(&self, name: &str) -> TimerGuard {
        TimerGuard::new(self.timer(name))
    }

    /// Drops every metric (names included). Subsequent recordings on
    /// handles obtained *before* the reset still work but are no longer
    /// visible to snapshots — re-fetch handles after resetting.
    pub fn reset(&self) {
        self.counters.lock().expect("registry mutex").clear();
        self.gauges.lock().expect("registry mutex").clear();
        self.timers.lock().expect("registry mutex").clear();
    }

    /// A consistent point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("registry mutex")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("registry mutex")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let timers = self
            .timers
            .lock()
            .expect("registry mutex")
            .iter()
            .map(|(k, v)| (k.clone(), v.stats()))
            .collect();
        Snapshot {
            counters,
            gauges,
            timers,
        }
    }
}

/// A point-in-time copy of a registry's metrics, ordered by name.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// High-water gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Timer statistics by name.
    pub timers: BTreeMap<String, TimerStats>,
}

impl Snapshot {
    /// A sub-snapshot containing only metrics whose names start with
    /// `prefix`. Determinism carries over (the filtered maps stay
    /// sorted), so a subsystem — say everything under `server.` — can
    /// be snapshotted and serialized in isolation.
    pub fn filter_prefix(&self, prefix: &str) -> Snapshot {
        let keep = |map: &BTreeMap<String, u64>| -> BTreeMap<String, u64> {
            map.iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, v)| (k.clone(), *v))
                .collect()
        };
        Snapshot {
            counters: keep(&self.counters),
            gauges: keep(&self.gauges),
            timers: self
                .timers
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }

    /// Renders an aligned human-readable table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            let w = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<w$}  {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges (high-water)\n");
            let w = self.gauges.keys().map(|k| k.len()).max().unwrap_or(0);
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k:<w$}  {v}\n"));
            }
        }
        if !self.timers.is_empty() {
            out.push_str("timers (count, total, mean, p50, p99, max)\n");
            let w = self.timers.keys().map(|k| k.len()).max().unwrap_or(0);
            for (k, t) in &self.timers {
                out.push_str(&format!(
                    "  {k:<w$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}\n",
                    t.count,
                    fmt_ns(t.total_ns),
                    fmt_ns(t.mean_ns),
                    fmt_ns(t.p50_ns),
                    fmt_ns(t.p99_ns),
                    fmt_ns(t.max_ns),
                ));
            }
        }
        out
    }

    /// Serializes to a deterministic JSON object
    /// `{"counters": {...}, "gauges": {...}, "timers": {name: {count,
    /// total_ns, ...}}}` with keys in sorted order.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}:{v}", json::escape(k)));
        }
        s.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}:{v}", json::escape(k)));
        }
        s.push_str("},\"timers\":{");
        for (i, (k, t)) in self.timers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{}:{{\"count\":{},\"total_ns\":{},\"mean_ns\":{},\"min_ns\":{},\"max_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                json::escape(k),
                t.count,
                t.total_ns,
                t.mean_ns,
                t.min_ns,
                t.max_ns,
                t.p50_ns,
                t.p99_ns,
            ));
        }
        s.push_str("}}");
        s
    }
}

fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry the protocol crates record into.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Shorthand: a counter in the [`global`] registry.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Shorthand: a high-water gauge in the [`global`] registry.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Shorthand: a scoped timer in the [`global`] registry.
pub fn time(name: &str) -> TimerGuard {
    global().time(name)
}

/// Shorthand: a snapshot of the [`global`] registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let reg = MetricsRegistry::new();
        reg.counter("a").inc();
        reg.counter("a").add(4);
        reg.counter("b").add(0);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["a"], 5);
        assert_eq!(snap.counters["b"], 0);
        assert_eq!(snap.counters.len(), 2);
    }

    #[test]
    fn timer_guard_records_on_drop() {
        let reg = MetricsRegistry::new();
        {
            let _t = reg.time("phase");
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = reg.snapshot().timers["phase"];
        assert_eq!(stats.count, 1);
        assert!(stats.total_ns >= 1_000_000, "{stats:?}");
        assert_eq!(stats.total_ns, stats.max_ns);
        assert!(stats.min_ns <= stats.max_ns);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.stats();
        assert_eq!(s.count, 6);
        assert_eq!(s.min_ns, 0);
        assert_eq!(s.max_ns, 1_000_000);
        assert_eq!(s.total_ns, 1_001_006);
        // p50 lands in the bucket holding the 3rd sample (value 2, bucket
        // [2, 3]) → upper bound 3.
        assert_eq!(s.p50_ns, 3);
        // p99 lands in the top sample's bucket [2^19, 2^20); its upper
        // bound exceeds the observed max, so the clamp makes it exact.
        assert_eq!(s.p99_ns, 1_000_000);
    }

    #[test]
    fn known_distribution_percentiles_are_upper_bounds() {
        // 1..=100: the 50th sample is 50 (bucket [32, 63]), so p50 must
        // be 63 — at least the true quantile, never below it. The 99th
        // sample is 99 (bucket [64, 127]) whose ceiling exceeds the
        // observed max, so p99 clamps to exactly 100.
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.stats();
        assert_eq!(s.p50_ns, 63);
        assert_eq!(s.p99_ns, 100);
        assert!(s.p50_ns >= 50, "percentile must not under-report");
    }

    #[test]
    fn skewed_low_heavy_distribution_p99_reaches_the_tail() {
        // Regression: a recorded `qap.evals_at` timer once reported
        // p99_ns = 131071 against max_ns = 53115274. With 99
        // samples in a low bucket and 1 huge outlier, the inclusive
        // rank ⌈100·0.99⌉ = 99 selected the low bucket; the exclusive
        // rank ⌊100·0.99⌋ + 1 = 100 must select the outlier.
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(100_000);
        }
        h.record(53_115_274);
        let s = h.stats();
        assert_eq!(s.count, 100);
        assert_eq!(s.max_ns, 53_115_274);
        assert_eq!(
            s.p99_ns, 53_115_274,
            "p99 must land in the outlier's bucket (clamped to max)"
        );
        // p50 still reports the low bucket's ceiling.
        assert_eq!(s.p50_ns, (1u64 << bucket_of(100_000)) - 1);
        assert!(s.p50_ns < 1 << 18);
    }

    #[test]
    fn constant_distribution_percentiles_are_exact() {
        // Every sample identical: the max-clamp makes both percentiles
        // exact, not the power-of-two bucket bound (the pre-fix floor
        // reported 512 here).
        let h = Histogram::default();
        for _ in 0..1000 {
            h.record(1000);
        }
        let s = h.stats();
        assert_eq!(s.p50_ns, 1000);
        assert_eq!(s.p99_ns, 1000);
    }

    #[test]
    fn top_bucket_sample_does_not_panic() {
        // u64::MAX maps to bucket 64 — with only 64 slots this indexed
        // out of bounds (saturated record_duration would crash the
        // process).
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        let s = h.stats();
        assert_eq!(s.count, 2);
        assert_eq!(s.max_ns, u64::MAX);
        assert_eq!(s.p99_ns, u64::MAX);
    }

    #[test]
    fn bucket_mapping_round_trips() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            let b = bucket_of(v);
            assert!(b < BUCKETS, "v={v} b={b}");
            assert!(bucket_floor(b) <= v.max(1), "v={v} b={b}");
            assert!(v <= bucket_ceil(b), "v={v} b={b}");
            if b + 1 < BUCKETS {
                assert!(v < bucket_floor(b + 1), "v={v} b={b}");
            }
        }
    }

    #[test]
    fn identical_runs_produce_identical_counter_sets() {
        // The metrics-snapshot determinism contract: two identical runs
        // yield byte-identical counter JSON and the same timer keys,
        // counts, and field presence.
        let run = |reg: &MetricsRegistry| {
            reg.counter("pcp.prove.calls").add(2);
            reg.counter("runtime.verifier.accepted").add(7);
            let _t = reg.time("qap.compute_h");
        };
        let (r1, r2) = (MetricsRegistry::new(), MetricsRegistry::new());
        run(&r1);
        run(&r2);
        let (s1, s2) = (r1.snapshot(), r2.snapshot());
        assert_eq!(s1.counters, s2.counters);
        assert_eq!(
            s1.timers.keys().collect::<Vec<_>>(),
            s2.timers.keys().collect::<Vec<_>>()
        );
        for (a, b) in s1.timers.values().zip(s2.timers.values()) {
            assert_eq!(a.count, b.count);
        }
        // Counter halves of the JSON are byte-identical.
        let json_counters = |s: &Snapshot| {
            let j = s.to_json();
            j[..j.find("\"timers\"").unwrap()].to_string()
        };
        assert_eq!(json_counters(&s1), json_counters(&s2));
        // Timer fields are all present in the JSON.
        for field in ["count", "total_ns", "mean_ns", "min_ns", "max_ns", "p50_ns", "p99_ns"] {
            assert!(s1.to_json().contains(field), "missing {field}");
        }
    }

    #[test]
    fn snapshot_json_parses_back() {
        let reg = MetricsRegistry::new();
        reg.counter("x\"y\\z").add(3);
        reg.gauge("hw").observe(9);
        reg.timer("t").record(5);
        let parsed = json::parse(&reg.snapshot().to_json()).expect("valid json");
        let obj = parsed.as_object().unwrap();
        let counters = obj["counters"].as_object().unwrap();
        assert_eq!(counters["x\"y\\z"].as_u64(), Some(3));
        let gauges = obj["gauges"].as_object().unwrap();
        assert_eq!(gauges["hw"].as_u64(), Some(9));
        let t = obj["timers"].as_object().unwrap()["t"].as_object().unwrap();
        assert_eq!(t["count"].as_u64(), Some(1));
        assert_eq!(t["total_ns"].as_u64(), Some(5));
    }

    #[test]
    fn filter_prefix_isolates_a_subsystem() {
        let reg = MetricsRegistry::new();
        reg.counter("server.sessions.accepted").add(3);
        reg.counter("transport.frames_sent").add(9);
        reg.gauge("server.live").observe(2);
        reg.timer("server.session").record(100);
        reg.timer("runtime.session").record(100);
        let snap = reg.snapshot().filter_prefix("server.");
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters["server.sessions.accepted"], 3);
        assert_eq!(snap.gauges["server.live"], 2);
        assert_eq!(snap.timers.len(), 1);
        assert!(snap.timers.contains_key("server.session"));
    }

    #[test]
    fn gauge_retains_maximum() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("hw");
        g.observe(10);
        g.observe(4);
        g.observe(12);
        g.observe(11);
        assert_eq!(g.get(), 12);
        assert_eq!(reg.snapshot().gauges["hw"], 12);
    }

    #[test]
    fn reset_clears_names() {
        let reg = MetricsRegistry::new();
        reg.counter("gone").inc();
        reg.reset();
        assert!(reg.snapshot().counters.is_empty());
    }

    #[test]
    fn global_registry_is_shared() {
        counter("obs.test.global").add(2);
        counter("obs.test.global").add(3);
        assert!(snapshot().counters["obs.test.global"] >= 5);
    }

    #[test]
    fn table_renders_all_sections() {
        let reg = MetricsRegistry::new();
        reg.counter("c").inc();
        reg.gauge("g").observe(7);
        reg.timer("t").record(1500);
        let table = reg.snapshot().to_table();
        assert!(table.contains("counters"));
        assert!(table.contains("gauges"));
        assert!(table.contains("timers"));
        assert!(table.contains("1.50 us"));
    }
}
