//! `ZAATAR_WORKERS` must override the caller's requested worker count.
//!
//! The override is read once and cached for the life of the process, so
//! the env-driven test lives in its own test binary where the variable
//! can be set before the first `parallel_map` call. With the override
//! pinned to 1, a map requested at 8 workers must run entirely on the
//! calling thread — observable both through thread ids and through
//! `effective_workers` directly.
//!
//! The parse/clamp logic itself lives in `zaatar-sched` and is
//! injectable ([`HostProfile::with_override_str`]), so the malformed-
//! and synthetic-override cases below never touch the process
//! environment — this is what removed the latent flakiness of the old
//! single-`OnceLock` design, where any test that raced the first env
//! read could poison every later one.

use std::collections::HashSet;
use std::sync::Mutex;

use zaatar_sched::{effective_workers, parallel_map, parallel_map_with, HostProfile};

#[test]
fn zaatar_workers_env_pins_the_worker_count() {
    // Safety: set before any other test code in this binary touches the
    // parallel layer (the injectable tests below never read the env).
    std::env::set_var("ZAATAR_WORKERS", "1");

    assert_eq!(effective_workers(8), 1);
    assert_eq!(effective_workers(1), 1);

    let ids = Mutex::new(HashSet::new());
    let caller = std::thread::current().id();
    let out = parallel_map((0..300u64).collect::<Vec<_>>(), 8, |x| {
        ids.lock().unwrap().insert(std::thread::current().id());
        x + 1
    });
    assert_eq!(out, (1..=300u64).collect::<Vec<_>>());
    let ids = ids.lock().unwrap();
    assert_eq!(
        ids.iter().collect::<Vec<_>>(),
        vec![&caller],
        "override=1 must run the map on the calling thread only"
    );

    // The stateful variant honors the same override: one worker, one
    // init, state threaded across the whole batch.
    let inits = Mutex::new(0usize);
    let out = parallel_map_with(
        vec![10usize, 20, 30],
        8,
        || {
            *inits.lock().unwrap() += 1;
            0usize
        },
        |seen, x| {
            *seen += 1;
            (*seen, x)
        },
    );
    assert_eq!(out, vec![(1, 10), (2, 20), (3, 30)]);
    assert_eq!(*inits.lock().unwrap(), 1);
}

#[test]
fn injected_override_wins_without_touching_the_env() {
    // A synthetic profile with an injected override string behaves
    // exactly like the env path, but is test-local: no process-global
    // state, no race with the binary's env test above (which pins the
    // cached from_env profile, not these).
    let host = HostProfile::synthetic(4, 25_000.0);
    let pinned = host.with_override_str(Some("3"));
    assert_eq!(pinned.worker_override, Some(3));
    assert_eq!(pinned.effective_workers(8), 3);
    assert_eq!(pinned.effective_workers(1), 3, "override replaces verbatim");
    // Overrides may deliberately oversubscribe: the operator said 6.
    assert_eq!(host.with_override_str(Some("6")).effective_workers(2), 6);
}

#[test]
fn malformed_override_counts_and_falls_back_to_clamping() {
    let host = HostProfile::synthetic(4, 25_000.0);
    let before = zaatar_obs::counter("sched.env.bad_override").get();
    let garbage = host.with_override_str(Some("not-a-number"));
    let zero = host.with_override_str(Some("0"));
    let after = zaatar_obs::counter("sched.env.bad_override").get();
    assert_eq!(after - before, 2, "each bad parse increments the counter");
    // Both fall back to no-override clamping semantics.
    for profile in [garbage, zero] {
        assert_eq!(profile.worker_override, None);
        assert_eq!(profile.effective_workers(8), 4);
        assert_eq!(profile.effective_workers(0), 1);
    }
}
