//! Property tests for the NTT plan registry: concurrent first use must
//! produce exactly one table per `(field, log_size)` with no torn
//! initialization, and cached plans must transform identically to
//! cold-path (freshly built) plans.

use std::sync::{Arc, Barrier};

use zaatar_field::testutil::SplitMix64;
use zaatar_field::{F128, F61};
use zaatar_poly::plan::{plan_for, plan_for_len, NttPlan};

/// Many threads race the first lookup of a size; every thread must get
/// the same interned plan, and that plan must already be fully built
/// (its transform agrees with a cold-built plan) — i.e. no torn init.
#[test]
fn concurrent_first_use_yields_one_table() {
    // log 11 is not used by any other test in this binary, so the race
    // below really is the first use for this (field, size) pair.
    const LOG: u32 = 11;
    const THREADS: usize = 16;
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let plan = plan_for::<F61>(LOG);
                // Use the plan immediately, mid-race.
                let mut g = SplitMix64::new(7);
                let coeffs = g.field_vec::<F61>(1 << LOG);
                let mut a = coeffs.clone();
                plan.forward(&mut a);
                (plan, coeffs, a)
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let (first_plan, coeffs, first_out) = &results[0];
    for (plan, _, out) in &results[1..] {
        assert!(
            Arc::ptr_eq(first_plan, plan),
            "every thread must see the same interned plan"
        );
        assert_eq!(out, first_out, "transforms mid-race must agree");
    }
    // The raced result matches a plan built outside the registry.
    let cold = NttPlan::<F61>::build(LOG);
    let mut a = coeffs.clone();
    cold.forward(&mut a);
    assert_eq!(&a, first_out, "raced plan differs from cold-built plan");
}

/// Reused (cached) plans return bit-identical transforms to cold-path
/// computation across every size in the working range, forward and
/// inverse.
#[test]
fn cached_plans_match_cold_path_across_sizes() {
    let mut g = SplitMix64::new(99);
    for log_n in 0..=9u32 {
        let cached = plan_for::<F61>(log_n);
        let again = plan_for::<F61>(log_n);
        assert!(Arc::ptr_eq(&cached, &again), "log_n={log_n}");
        let cold = NttPlan::<F61>::build(log_n);
        let coeffs = g.field_vec::<F61>(1 << log_n);

        let mut warm = coeffs.clone();
        cached.forward(&mut warm);
        let mut fresh = coeffs.clone();
        cold.forward(&mut fresh);
        assert_eq!(warm, fresh, "forward log_n={log_n}");

        cached.inverse(&mut warm);
        cold.inverse(&mut fresh);
        assert_eq!(warm, fresh, "inverse log_n={log_n}");
        assert_eq!(warm, coeffs, "round trip log_n={log_n}");
    }
}

/// Plans are interned per field: the same log over different fields
/// yields independent tables, and both keep working after interleaved
/// use.
#[test]
fn per_field_plans_are_independent() {
    let mut g = SplitMix64::new(3);
    let p61 = plan_for_len::<F61>(64);
    let p128 = plan_for_len::<F128>(64);
    assert_eq!(p61.len(), p128.len());

    let c61 = g.field_vec::<F61>(64);
    let c128 = g.field_vec::<F128>(64);
    let mut a61 = c61.clone();
    let mut a128 = c128.clone();
    p61.forward(&mut a61);
    p128.forward(&mut a128);
    p61.inverse(&mut a61);
    p128.inverse(&mut a128);
    assert_eq!(a61, c61);
    assert_eq!(a128, c128);
}

/// Repeated lookups are cache hits: the hit counter grows while reusing
/// a size, and the interned pointer never changes.
#[test]
fn reuse_is_observable_as_cache_hits() {
    let hits_before = zaatar_obs::snapshot()
        .counters
        .get("poly.ntt.twiddle_cache_hit")
        .copied()
        .unwrap_or(0);
    let first = plan_for::<F61>(6);
    for _ in 0..10 {
        let again = plan_for::<F61>(6);
        assert!(Arc::ptr_eq(&first, &again));
    }
    let hits_after = zaatar_obs::snapshot()
        .counters
        .get("poly.ntt.twiddle_cache_hit")
        .copied()
        .unwrap_or(0);
    assert!(
        hits_after >= hits_before + 10,
        "expected ≥10 new cache hits, got {hits_before} → {hits_after}"
    );
}
