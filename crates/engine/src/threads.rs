//! Worker-count configuration: the `SELC_THREADS` knob.
//!
//! Every parallel entry point in the workspace sizes its pool with
//! [`configured_threads`], so one environment variable makes runs
//! reproducible on any machine (CI pins `SELC_THREADS=2`). Unset or
//! unparsable values fall back to [`hardware_threads`]. Parsing goes
//! through the workspace's one env parser ([`selc::env::env_usize`]),
//! shared with the `SELC_CACHE_SHARDS` / `SELC_CACHE_CAP` cache knobs.
//!
//! `SELC_THREADS` is read on every call (about 100 ns), so a test or a
//! long-lived server sees a change at once. The hardware count is
//! resolved **once per process**: [`std::thread::available_parallelism`]
//! reads cgroup files on Linux and costs tens of microseconds, which a
//! warm tree search answered by one summary probe would otherwise pay on
//! every request.

use std::sync::OnceLock;

/// Name of the environment variable consulted by [`configured_threads`].
pub const THREADS_ENV: &str = "SELC_THREADS";

/// Number of workers a parallel search should use when the caller did not
/// pin one: `SELC_THREADS` if set to a positive integer, else the
/// machine's available parallelism, else 1.
pub fn configured_threads() -> usize {
    selc::env::env_usize(THREADS_ENV).unwrap_or_else(hardware_threads)
}

/// The fallback default: what the OS reports, clamped to at least 1.
/// Resolved on the first call and cached for the life of the process.
pub fn hardware_threads() -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    *HARDWARE
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_default_is_positive() {
        assert!(hardware_threads() >= 1);
    }

    #[test]
    fn hardware_default_is_stable_across_calls() {
        assert_eq!(hardware_threads(), hardware_threads());
    }
}
