//! The `host` block of a report — enough to tell two result files apart
//! before comparing them — and the process's peak resident set.

use zaatar_core::HostProfile;

/// Environment variables that change how the measured crates execute.
/// The benchmark clears them, so the environment cannot change the load.
const SCRUBBED_ENV: [&str; 3] = ["ZAATAR_WORKERS", "ZAATAR_MEM_BUDGET", "ZAATAR_SCALE"];

/// Removes [`SCRUBBED_ENV`]. Call before any thread starts and before
/// the first `HostProfile::from_env()` caches its reading.
pub fn scrub_env() {
    for name in SCRUBBED_ENV {
        std::env::remove_var(name);
    }
}

/// `VmHWM` of this process in bytes (0 where `/proc` is unavailable).
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// One line describing the machine and toolchain. The runner script
/// passes the compiler's version in `ZBENCH_RUSTC`; the binary starts no
/// process of its own to ask.
pub fn describe() -> String {
    let profile = HostProfile::from_env();
    format!(
        "host: nproc={} spawn_overhead_ns={:.0} cache_resident_bytes={} worker_override={:?} rustc=\"{}\"",
        profile.parallelism,
        profile.spawn_overhead_ns,
        profile.cache_resident_bytes,
        profile.worker_override,
        std::env::var("ZBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
    )
}
