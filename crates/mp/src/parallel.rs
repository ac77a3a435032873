//! Multi-threaded STOMP.
//!
//! The paper (§2) notes that matrix-profile computation parallelises
//! trivially ("GPUs, cloud computing, and other HPC environments").
//! [`stomp_parallel`] partitions the *diagonals* of the distance matrix into
//! cell-balanced contiguous ranges, one blocked traversal per worker, and
//! merges the per-worker profiles with the lexicographic min — which is
//! associative, so the result is bit-identical to the sequential kernel for
//! any thread count. The spawn/merge loop is
//! [`fold_diagonals`](crate::diagonal::fold_diagonals), the same driver
//! `valmod-core`'s lower-bound harvest runs on.

use valmod_data::error::Result;
use valmod_obs::{Recorder, SharedRecorder};

use crate::context::ProfiledSeries;
use crate::exclusion::ExclusionPolicy;
use crate::matrix_profile::MatrixProfile;

/// Resolves a user-facing thread-count knob: `0` means "use all available
/// cores" (falling back to 1 if the count cannot be queried).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Computes the matrix profile with `threads` workers (0 = all available
/// cores). Bit-identical to [`crate::stomp::stomp`] for every thread count;
/// with one thread it runs the same single-range fold.
pub fn stomp_parallel(
    ps: &ProfiledSeries,
    l: usize,
    policy: ExclusionPolicy,
    threads: usize,
) -> Result<MatrixProfile> {
    stomp_parallel_with(ps, l, policy, threads, &SharedRecorder::noop())
}

/// [`stomp_parallel`] with instrumentation: the whole parallel traversal is
/// timed into `mp.diag.parallel_us`, the row total into `mp.stomp.rows`,
/// and the block count into `mp.diag.blocks`. With a disabled recorder the
/// only cost is one `enabled()` branch per call.
pub fn stomp_parallel_with(
    ps: &ProfiledSeries,
    l: usize,
    policy: ExclusionPolicy,
    threads: usize,
    recorder: &SharedRecorder,
) -> Result<MatrixProfile> {
    let mut ws = crate::workspace::Workspace::new();
    let profile = {
        let _span = valmod_obs::span!(recorder, "mp.diag.parallel_us");
        crate::diagonal::stomp_diagonal_parallel_ws(ps, l, policy, threads, &mut ws)?
    };
    if recorder.enabled() {
        recorder.add("mp.stomp.rows", profile.len() as u64);
        recorder.add(
            "mp.diag.blocks",
            crate::diagonal::block_count(profile.len(), policy.radius(l), ws.block()),
        );
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stomp::stomp;
    use valmod_data::generators::random_walk;

    fn check(n: usize, l: usize, threads: usize, seed: u64) {
        let ps = ProfiledSeries::from_values(&random_walk(n, seed)).unwrap();
        let seq = stomp(&ps, l, ExclusionPolicy::HALF).unwrap();
        let par = stomp_parallel(&ps, l, ExclusionPolicy::HALF, threads).unwrap();
        assert_eq!(seq.len(), par.len());
        for i in 0..seq.len() {
            assert_eq!(seq.mp[i].to_bits(), par.mp[i].to_bits(), "threads={threads} mp[{i}]");
            assert_eq!(seq.ip[i], par.ip[i], "threads={threads} ip[{i}]");
        }
    }

    #[test]
    fn matches_sequential_stomp_various_thread_counts() {
        for threads in [1usize, 2, 3, 7, 16] {
            check(350, 24, threads, 31);
        }
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        check(40, 8, 64, 5);
    }

    #[test]
    fn single_thread_is_the_sequential_algorithm() {
        check(200, 16, 1, 9);
    }

    #[test]
    fn zero_threads_means_all_cores() {
        check(120, 12, 0, 13);
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn recorder_counts_rows_and_blocks_but_no_fft_seeds() {
        use valmod_obs::Registry;
        let ps = ProfiledSeries::from_values(&random_walk(300, 17)).unwrap();
        let registry = Registry::new();
        stomp_parallel_with(
            &ps,
            20,
            ExclusionPolicy::HALF,
            2,
            &SharedRecorder::from(registry.clone()),
        )
        .unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("mp.stomp.rows"), Some(300 - 20 + 1));
        assert!(snap.counter("mp.diag.blocks").unwrap() > 0);
        // Direct-sum seeds: the kernel never runs MASS.
        assert_eq!(snap.counter("mp.mass.calls"), None);
    }
}
