//! Reusable-memory primitives for the Zaatar workspace: a generic
//! value [`Interner`] and a size-classed [`Scratch`] buffer pool.
//!
//! Two independent crates (`zaatar-poly`'s NTT plan registry and
//! `zaatar-crypto`'s fixed-base table registry) grew the same
//! hand-rolled intern pattern — `OnceLock` + `RwLock` + `HashMap` +
//! `Box::leak`. [`Interner`] is that pattern, written once: keyed,
//! process-lived, build-once values handed out as `&'static` references.
//! By workspace convention the triple pattern may not appear anywhere
//! else; registries must go through this type.
//!
//! [`Scratch`] serves the staged prover pipeline: the per-instance
//! quotient and NTT temporaries are identical in shape across the β
//! instances of a batch, so each worker thread keeps one pool and the
//! allocations amortize to the first instance. Pool behavior is
//! observable through the global [`zaatar_obs`] registry as
//! `mem.scratch.hit` / `mem.scratch.miss` counters and the
//! `mem.scratch.high_water` gauge (peak pooled + outstanding bytes),
//! which the leak-guard tests and the bench baseline's `mem` section
//! read.
//!
//! The prover's stages additionally use [`ChunkedVec`] — a vector
//! materialized as a sequence of size-classed chunks leased from a
//! [`Scratch`] pool — and [`MemBudget`], which turns the pool's
//! high-water mark from an observation into a hard cap enforced by
//! [`Scratch::try_take`] (typed [`BudgetError`] instead of OOM).

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::{OnceLock, RwLock};

/// A process-wide value interner: each key's value is built exactly
/// once, leaked, and served as `&'static V` forever after.
///
/// Designed to live in a `static` (`new` is `const`). The first build
/// for a key runs under the write lock, so concurrent first uses of the
/// same key race at most once and every caller observes the same
/// address — callers may rely on pointer identity of interned values.
///
/// Leaking is deliberate and bounded: interned values are the kind of
/// table (NTT twiddles, fixed-base windows) a process accumulates a
/// handful of, keyed by configuration that does not grow with the
/// workload.
pub struct Interner<K: 'static, V: 'static> {
    map: OnceLock<RwLock<HashMap<K, &'static V>>>,
}

impl<K: Eq + Hash, V> Interner<K, V> {
    /// An empty interner, usable as a `static` initializer.
    pub const fn new() -> Self {
        Interner {
            map: OnceLock::new(),
        }
    }

    /// Returns the interned value for `key`, building it with `build`
    /// on first use. The second component is `true` on a registry hit
    /// (the value already existed) and `false` when this call built it,
    /// so call sites can keep their own hit/miss counters.
    pub fn intern_with<B: FnOnce() -> V>(&self, key: K, build: B) -> (&'static V, bool) {
        let map = self.map.get_or_init(|| RwLock::new(HashMap::new()));
        if let Some(v) = map.read().expect("interner lock").get(&key) {
            return (v, true);
        }
        let mut write = map.write().expect("interner lock");
        if let Some(v) = write.get(&key) {
            // Lost the race between dropping the read lock and taking
            // the write lock: another thread built it — still a hit.
            return (v, true);
        }
        let v: &'static V = Box::leak(Box::new(build()));
        write.insert(key, v);
        (v, false)
    }

    /// The interned value for `key`, if one has been built.
    pub fn get(&self, key: &K) -> Option<&'static V> {
        self.map
            .get()
            .and_then(|m| m.read().expect("interner lock").get(key).copied())
    }

    /// Number of interned values.
    pub fn len(&self) -> usize {
        self.map
            .get()
            .map_or(0, |m| m.read().expect("interner lock").len())
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Eq + Hash, V> Default for Interner<K, V> {
    fn default() -> Self {
        Interner::new()
    }
}

/// A memory ceiling for one [`Scratch`] pool, in bytes of pooled +
/// outstanding buffer capacity (the same quantity `footprint_bytes`
/// reports and the `mem.scratch.high_water` gauge tracks).
///
/// `Copy` and cheap: thread it by value through workspaces and server
/// configs. An unlimited budget never rejects a lease; a byte-limited
/// budget makes [`Scratch::try_take`] shed idle pooled buffers first
/// and return a [`BudgetError`] when the lease still cannot fit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemBudget {
    limit: Option<usize>,
}

impl MemBudget {
    /// No ceiling: every lease is admitted (the pre-budget behavior).
    pub const fn unlimited() -> Self {
        MemBudget { limit: None }
    }

    /// A hard ceiling of `n` bytes of pool footprint.
    pub const fn bytes(n: usize) -> Self {
        MemBudget { limit: Some(n) }
    }

    /// The ceiling in bytes, or `None` when unlimited.
    pub fn limit_bytes(&self) -> Option<usize> {
        self.limit
    }

    /// Whether a ceiling is set.
    pub fn is_limited(&self) -> bool {
        self.limit.is_some()
    }
}

/// A lease was rejected because it would push a [`Scratch`] pool's
/// footprint past its [`MemBudget`] — the typed alternative to the
/// allocator aborting the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetError {
    /// Bytes the rejected lease would have added to the pool.
    pub requested_bytes: usize,
    /// Pool footprint (pooled + outstanding) at rejection time.
    pub footprint_bytes: usize,
    /// The configured ceiling.
    pub limit_bytes: usize,
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory budget exceeded: lease of {} bytes on footprint {} exceeds limit {}",
            self.requested_bytes, self.footprint_bytes, self.limit_bytes
        )
    }
}

impl std::error::Error for BudgetError {}

/// Buffers per size class retained by a [`Scratch`] pool; extras are
/// dropped on [`Scratch::put`]. Bounds worst-case retention at
/// `MAX_PER_CLASS · Σ 2^c` elements over the classes actually used.
const MAX_PER_CLASS: usize = 8;

/// Size classes cover capacities up to `2^(CLASSES-1)`; larger buffers
/// bypass the pool entirely (allocated and dropped like plain `Vec`s).
const CLASSES: usize = 48;

/// A size-classed pool of reusable `Vec<T>` buffers.
///
/// [`Scratch::take`] hands out a buffer of the requested length (every
/// element initialized to the supplied fill value, so reuse can never
/// leak stale data into a computation); [`Scratch::put`] returns it for
/// reuse. Class `c` holds buffers with capacity in `[2^c, 2^(c+1))`,
/// and `take(len)` draws from class `⌈log₂ len⌉`, so a pooled buffer
/// always has enough capacity for the request.
///
/// Not thread-safe by design — each prover worker owns its pool (one
/// `&mut` user), which is what keeps take/put free of atomics.
pub struct Scratch<T> {
    classes: Vec<Vec<Vec<T>>>,
    /// Elements (capacities) currently pooled.
    retained: usize,
    /// Elements (capacities) handed out and not yet returned.
    outstanding: usize,
    /// Optional hard cap enforced by [`Scratch::try_take`].
    budget: MemBudget,
    /// This pool's own peak footprint in bytes (the global
    /// `mem.scratch.high_water` gauge keeps the max across all pools).
    peak_bytes: usize,
}

impl<T> Scratch<T> {
    /// An empty pool with no budget.
    pub fn new() -> Self {
        Scratch::with_budget(MemBudget::unlimited())
    }

    /// An empty pool enforcing `budget` on [`Scratch::try_take`].
    pub fn with_budget(budget: MemBudget) -> Self {
        Scratch {
            classes: (0..CLASSES).map(|_| Vec::new()).collect(),
            retained: 0,
            outstanding: 0,
            budget,
            peak_bytes: 0,
        }
    }

    /// Replaces the pool's budget. Takes effect on the next lease; an
    /// already-oversized footprint is shed lazily (idle buffers first)
    /// as leases arrive.
    pub fn set_budget(&mut self, budget: MemBudget) {
        self.budget = budget;
    }

    /// The budget [`Scratch::try_take`] enforces.
    pub fn budget(&self) -> MemBudget {
        self.budget
    }

    /// Size class of a capacity: smallest `c` with `2^c >= cap`.
    fn class_of(cap: usize) -> usize {
        cap.max(1).next_power_of_two().trailing_zeros() as usize
    }

    /// Current pool footprint in bytes (pooled + outstanding
    /// capacities), the quantity tracked by `mem.scratch.high_water`.
    pub fn footprint_bytes(&self) -> usize {
        (self.retained + self.outstanding) * core::mem::size_of::<T>()
    }

    fn observe_high_water(&mut self) {
        let fp = self.footprint_bytes();
        self.peak_bytes = self.peak_bytes.max(fp);
        zaatar_obs::gauge("mem.scratch.high_water").observe(fp as u64);
    }

    /// This pool's own peak footprint in bytes since creation (or the
    /// last [`Scratch::reset_high_water`]). Unlike the global
    /// `mem.scratch.high_water` gauge — which records the max across
    /// every pool in the process — this attributes the peak to one
    /// pool, which is what per-run bench comparisons and per-tenant
    /// budget checks need.
    pub fn high_water_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Resets the per-pool peak to the current footprint.
    pub fn reset_high_water(&mut self) {
        self.peak_bytes = self.footprint_bytes();
    }

    /// Admission check for a prospective lease of `len` elements under
    /// the configured budget: pooled reuse is always admitted (it moves
    /// bytes from retained to outstanding without growing the pool);
    /// a fresh allocation first sheds idle pooled buffers to make room
    /// and is rejected only if the outstanding bytes plus the new
    /// buffer would still exceed the ceiling.
    fn admit(&mut self, len: usize) -> Result<(), BudgetError> {
        let Some(limit) = self.budget.limit_bytes() else {
            return Ok(());
        };
        let class = Self::class_of(len);
        if self.classes.get(class).is_some_and(|c| !c.is_empty()) {
            return Ok(());
        }
        let elem = core::mem::size_of::<T>().max(1);
        let need = len.max(1).next_power_of_two() * elem;
        let out = self.outstanding * elem;
        if out + need > limit {
            return Err(BudgetError {
                requested_bytes: need,
                footprint_bytes: self.footprint_bytes(),
                limit_bytes: limit,
            });
        }
        if self.retained * elem + out + need > limit {
            self.trim_to(limit - out - need);
        }
        Ok(())
    }

    /// Takes a buffer of exactly `len` elements, each set to `fill`.
    /// Reuses a pooled buffer when one of sufficient capacity exists
    /// (`mem.scratch.hit`), otherwise allocates (`mem.scratch.miss`).
    ///
    /// When a [`MemBudget`] is set, idle pooled buffers are shed to
    /// keep the footprint under the ceiling, but the lease itself is
    /// never refused — use [`Scratch::try_take`] for hard enforcement.
    pub fn take(&mut self, len: usize, fill: T) -> Vec<T>
    where
        T: Clone,
    {
        if self.budget.is_limited() {
            let _ = self.admit(len);
        }
        self.take_unchecked(len, fill)
    }

    /// Budget-enforcing [`Scratch::take`]: sheds idle pooled buffers to
    /// make room, and returns a typed [`BudgetError`] instead of
    /// allocating when the lease cannot fit under the ceiling.
    pub fn try_take(&mut self, len: usize, fill: T) -> Result<Vec<T>, BudgetError>
    where
        T: Clone,
    {
        self.admit(len)?;
        Ok(self.take_unchecked(len, fill))
    }

    fn take_unchecked(&mut self, len: usize, fill: T) -> Vec<T>
    where
        T: Clone,
    {
        let class = Self::class_of(len);
        let mut buf = match self.classes.get_mut(class).and_then(Vec::pop) {
            Some(buf) => {
                self.retained -= buf.capacity();
                zaatar_obs::counter("mem.scratch.hit").inc();
                buf
            }
            None => {
                zaatar_obs::counter("mem.scratch.miss").inc();
                Vec::with_capacity(len.max(1).next_power_of_two())
            }
        };
        buf.clear();
        buf.resize(len, fill);
        self.outstanding += buf.capacity();
        self.observe_high_water();
        buf
    }

    /// Returns a buffer to the pool for reuse. Buffers beyond
    /// [`MAX_PER_CLASS`] per class (or beyond the class range) are
    /// simply dropped, which is what bounds the pool's high-water mark.
    pub fn put(&mut self, buf: Vec<T>) {
        let cap = buf.capacity();
        self.outstanding = self.outstanding.saturating_sub(cap);
        if cap == 0 {
            return;
        }
        // Classed by *floor* log₂ of capacity so every pooled buffer in
        // class c can serve any take() of length ≤ 2^c.
        let class = (usize::BITS - 1 - cap.leading_zeros()) as usize;
        if let Some(slot) = self.classes.get_mut(class) {
            if slot.len() < MAX_PER_CLASS {
                self.retained += cap;
                slot.push(buf);
            }
        }
        self.observe_high_water();
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    /// Bytes held by pooled (idle) buffers only.
    pub fn retained_bytes(&self) -> usize {
        self.retained * core::mem::size_of::<T>()
    }

    /// Bytes in buffers handed out and not yet returned.
    pub fn outstanding_bytes(&self) -> usize {
        self.outstanding * core::mem::size_of::<T>()
    }

    /// Drops pooled buffers, largest class first, until the retained
    /// footprint is at most `max_bytes`. Outstanding buffers are
    /// untouched (they return through [`Scratch::put`] as usual), so
    /// this is safe to call between leases — a server sheds idle
    /// workspace memory under backpressure without invalidating any
    /// buffer a session still holds.
    pub fn trim_to(&mut self, max_bytes: usize) {
        let elem = core::mem::size_of::<T>().max(1);
        let max_elems = max_bytes / elem;
        for class in self.classes.iter_mut().rev() {
            while self.retained > max_elems {
                match class.pop() {
                    Some(buf) => self.retained -= buf.capacity(),
                    None => break,
                }
            }
        }
        self.observe_high_water();
    }
}

impl<T> Default for Scratch<T> {
    fn default() -> Self {
        Scratch::new()
    }
}

/// A logically contiguous vector materialized as a sequence of
/// fixed-size chunks leased from a [`Scratch`] pool.
///
/// The prover stages pass these instead of flat `Vec`s: a
/// producer fills the chunks in order, and a consumer that walks them
/// front-to-back can return each chunk to the pool the moment it is
/// done with it ([`ChunkedVec::drain`]), so peak residency is bounded
/// by the live window rather than the full length. All chunks have
/// exactly `chunk_len` elements except the last, which holds the
/// ragged tail.
///
/// Spill-free by construction: chunks live in the same size-classed
/// pool as every other prover temporary, so retention after release is
/// bounded by the pool's per-class cap and budget.
#[derive(Debug)]
pub struct ChunkedVec<T> {
    chunks: Vec<Vec<T>>,
    chunk_len: usize,
    len: usize,
}

impl<T> ChunkedVec<T> {
    /// Leases chunks for `len` elements (each set to `fill`) from the
    /// pool, `chunk_len` elements per chunk, under the pool's budget
    /// ([`Scratch::try_take`]): on rejection, every chunk leased so far
    /// is returned to the pool before the error propagates, so a failed
    /// lease never strands memory.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0`.
    pub fn try_take(
        scratch: &mut Scratch<T>,
        len: usize,
        chunk_len: usize,
        fill: T,
    ) -> Result<Self, BudgetError>
    where
        T: Clone,
    {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let mut chunks = Vec::with_capacity(len.div_ceil(chunk_len));
        let mut remaining = len;
        while remaining > 0 {
            let this = remaining.min(chunk_len);
            match scratch.try_take(this, fill.clone()) {
                Ok(chunk) => chunks.push(chunk),
                Err(e) => {
                    for c in chunks {
                        scratch.put(c);
                    }
                    return Err(e);
                }
            }
            remaining -= this;
        }
        Ok(ChunkedVec {
            chunks,
            chunk_len,
            len,
        })
    }

    /// Total element count across all chunks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements per chunk (the last chunk may be shorter).
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// The element at logical index `i`.
    pub fn get(&self, i: usize) -> &T {
        &self.chunks[i / self.chunk_len][i % self.chunk_len]
    }

    /// Mutable access to the element at logical index `i`.
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        &mut self.chunks[i / self.chunk_len][i % self.chunk_len]
    }

    /// Returns every chunk to the pool.
    pub fn release(self, scratch: &mut Scratch<T>) {
        for c in self.chunks {
            scratch.put(c);
        }
    }

    /// Consumes the vector front-to-back: calls `f(base_offset, chunk)`
    /// for each chunk and returns that chunk to the pool *immediately*
    /// afterwards, so a downstream stage that has its own large buffers
    /// live only ever coexists with one chunk of this vector.
    pub fn drain(self, scratch: &mut Scratch<T>, mut f: impl FnMut(usize, &[T])) {
        let mut offset = 0;
        for c in self.chunks {
            f(offset, &c);
            offset += c.len();
            scratch.put(c);
        }
    }

    /// Copies the chunks out into one flat `Vec` (for differential
    /// tests and domains without a chunk-draining kernel).
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(self.len);
        for c in &self.chunks {
            out.extend_from_slice(c);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static INTERNED: Interner<u32, String> = Interner::new();

    #[test]
    fn interner_builds_once_and_returns_same_reference() {
        let (a, hit_a) = INTERNED.intern_with(7, || "seven".to_string());
        let (b, hit_b) = INTERNED.intern_with(7, || unreachable!("already interned"));
        assert!(!hit_a || hit_b, "second lookup must be a hit");
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "seven");
        assert_eq!(INTERNED.get(&7), Some(a));
    }

    #[test]
    fn interner_separates_keys() {
        let local: Interner<(u8, u8), Vec<u8>> = Interner::new();
        assert!(local.is_empty());
        let (a, hit) = local.intern_with((1, 2), || vec![1, 2]);
        assert!(!hit);
        let (b, _) = local.intern_with((2, 1), || vec![2, 1]);
        assert!(!std::ptr::eq(a, b));
        assert_eq!(local.len(), 2);
        assert_eq!(local.get(&(9, 9)), None);
    }

    #[test]
    fn scratch_reuses_buffers() {
        let mut s: Scratch<u64> = Scratch::new();
        let a = s.take(100, 0);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&x| x == 0));
        let cap = a.capacity();
        s.put(a);
        assert_eq!(s.pooled(), 1);
        // Same class → reuse, even for a smaller request.
        let b = s.take(90, 7);
        assert_eq!(b.capacity(), cap, "must reuse the pooled buffer");
        assert_eq!(b.len(), 90);
        assert!(b.iter().all(|&x| x == 7), "reused buffer must be re-filled");
        assert_eq!(s.pooled(), 0);
    }

    #[test]
    fn scratch_clears_stale_contents() {
        let mut s: Scratch<u32> = Scratch::new();
        let mut a = s.take(8, 9);
        a[3] = 1234;
        s.put(a);
        let b = s.take(8, 0);
        assert!(b.iter().all(|&x| x == 0));
    }

    #[test]
    fn scratch_footprint_is_bounded_under_reuse() {
        let mut s: Scratch<u64> = Scratch::new();
        let mut peak = 0;
        for _ in 0..1000 {
            let a = s.take(64, 0);
            let b = s.take(64, 0);
            s.put(a);
            s.put(b);
            peak = peak.max(s.footprint_bytes());
        }
        // Two 64-slot class-6 buffers, nothing more.
        assert_eq!(s.pooled(), 2);
        assert_eq!(peak, 2 * 64 * 8);
    }

    #[test]
    fn scratch_retention_is_capped_per_class() {
        let mut s: Scratch<u8> = Scratch::new();
        let bufs: Vec<_> = (0..MAX_PER_CLASS + 5).map(|_| s.take(16, 0)).collect();
        for b in bufs {
            s.put(b);
        }
        assert_eq!(s.pooled(), MAX_PER_CLASS);
    }

    #[test]
    fn scratch_trim_sheds_idle_buffers_only() {
        let mut s: Scratch<u64> = Scratch::new();
        let small = s.take(64, 0);
        let big = s.take(4096, 0);
        let held = s.take(1024, 0);
        s.put(small);
        s.put(big);
        assert_eq!(s.pooled(), 2);
        assert_eq!(s.retained_bytes(), (64 + 4096) * 8);
        assert_eq!(s.outstanding_bytes(), 1024 * 8);
        // Trim to below the big buffer: largest class goes first.
        s.trim_to(1000 * 8);
        assert_eq!(s.pooled(), 1);
        assert_eq!(s.retained_bytes(), 64 * 8);
        // The outstanding buffer is untouched and still returnable.
        assert_eq!(s.outstanding_bytes(), 1024 * 8);
        s.put(held);
        assert_eq!(s.outstanding_bytes(), 0);
        assert_eq!(s.pooled(), 2);
        // Trim to zero empties the pool entirely.
        s.trim_to(0);
        assert_eq!(s.pooled(), 0);
        assert_eq!(s.retained_bytes(), 0);
    }

    #[test]
    fn try_take_rejects_over_budget_with_typed_error() {
        // 64 u64 slots = 512 bytes of ceiling.
        let mut s: Scratch<u64> = Scratch::with_budget(MemBudget::bytes(512));
        let a = s.try_take(64, 0).expect("fits exactly");
        let err = s.try_take(1, 0).expect_err("over budget");
        assert_eq!(err.limit_bytes, 512);
        assert_eq!(err.requested_bytes, 8);
        assert_eq!(err.footprint_bytes, 512);
        s.put(a);
        // Pooled reuse is always admitted: the buffer is already
        // counted in the footprint.
        let b = s.try_take(64, 0).expect("reuse fits");
        s.put(b);
    }

    #[test]
    fn try_take_sheds_idle_buffers_before_rejecting() {
        let mut s: Scratch<u64> = Scratch::with_budget(MemBudget::bytes(1024));
        let a = s.take(64, 0); // 512 bytes outstanding
        s.put(a); // ...now 512 bytes retained, 0 outstanding
        assert_eq!(s.retained_bytes(), 512);
        // A 128-slot lease (1024 bytes) only fits if the idle 64-slot
        // buffer is dropped first.
        let b = s.try_take(128, 0).expect("must trim idle buffer to fit");
        assert_eq!(s.retained_bytes(), 0);
        assert_eq!(s.outstanding_bytes(), 1024);
        s.put(b);
    }

    #[test]
    fn unbudgeted_take_and_try_take_agree() {
        let mut s: Scratch<u32> = Scratch::new();
        let a = s.try_take(1000, 3).expect("unlimited budget never rejects");
        assert_eq!(a.len(), 1000);
        assert!(a.iter().all(|&x| x == 3));
        s.put(a);
    }

    #[test]
    fn per_pool_high_water_tracks_own_peak() {
        let mut s: Scratch<u64> = Scratch::new();
        assert_eq!(s.high_water_bytes(), 0);
        let a = s.take(64, 0);
        let b = s.take(64, 0);
        assert_eq!(s.high_water_bytes(), 2 * 64 * 8);
        s.put(a);
        s.put(b);
        // Peak is sticky across puts...
        assert_eq!(s.high_water_bytes(), 2 * 64 * 8);
        s.trim_to(0);
        // ...until explicitly reset to the current footprint.
        s.reset_high_water();
        assert_eq!(s.high_water_bytes(), 0);
    }

    #[test]
    fn chunked_vec_round_trips_with_ragged_tail() {
        let mut s: Scratch<u64> = Scratch::new();
        let mut cv = ChunkedVec::try_take(&mut s, 10, 4, 0u64).expect("no budget");
        assert_eq!(cv.len(), 10);
        assert_eq!(cv.chunk_len(), 4);
        for i in 0..10 {
            *cv.get_mut(i) = i as u64 * 3;
        }
        assert_eq!(*cv.get(7), 21);
        assert_eq!(cv.to_vec(), (0..10).map(|i| i * 3).collect::<Vec<u64>>());
        cv.release(&mut s);
        assert_eq!(s.outstanding_bytes(), 0);
        // Two full chunks and the ragged 2-element tail.
        assert_eq!(s.pooled(), 3);
    }

    #[test]
    fn chunked_vec_drain_returns_chunks_progressively() {
        let mut s: Scratch<u64> = Scratch::new();
        let cv = ChunkedVec::try_take(&mut s, 10, 4, 5u64).expect("no budget");
        assert_eq!(s.outstanding_bytes(), (4 + 4 + 2) * 8);
        let mut seen = Vec::new();
        cv.drain(&mut s, |off, chunk| seen.push((off, chunk.len(), chunk.iter().sum::<u64>())));
        assert_eq!(seen, vec![(0, 4, 20), (4, 4, 20), (8, 2, 10)]);
        assert_eq!(s.outstanding_bytes(), 0);
    }

    #[test]
    fn chunked_vec_try_take_releases_partial_lease_on_rejection() {
        // Room for two 4-slot chunks (64 bytes), not three.
        let mut s: Scratch<u64> = Scratch::with_budget(MemBudget::bytes(64));
        let err = ChunkedVec::try_take(&mut s, 12, 4, 0u64).expect_err("third chunk over budget");
        assert_eq!(err.limit_bytes, 64);
        // The two admitted chunks were returned, not stranded.
        assert_eq!(s.outstanding_bytes(), 0);
        let ok = ChunkedVec::try_take(&mut s, 8, 4, 0u64).expect("two chunks fit");
        ok.release(&mut s);
    }

    #[test]
    fn scratch_metrics_fire() {
        let mut s: Scratch<u64> = Scratch::new();
        let before = zaatar_obs::snapshot();
        let hits0 = before.counters.get("mem.scratch.hit").copied().unwrap_or(0);
        let miss0 = before.counters.get("mem.scratch.miss").copied().unwrap_or(0);
        let a = s.take(32, 0);
        s.put(a);
        let b = s.take(32, 0);
        s.put(b);
        let after = zaatar_obs::snapshot();
        assert!(after.counters["mem.scratch.miss"] > miss0);
        assert!(after.counters["mem.scratch.hit"] > hits0);
        assert!(after.gauges["mem.scratch.high_water"] >= 32 * 8);
    }
}
