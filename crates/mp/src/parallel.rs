//! Multi-threaded STOMP.
//!
//! The paper (§2) notes that matrix-profile computation parallelises
//! trivially ("GPUs, cloud computing, and other HPC environments").
//! [`stomp_parallel`] partitions the *diagonals* of the distance matrix into
//! cell-balanced contiguous ranges (see [`crate::diagonal`]), one blocked
//! traversal per worker, and merges the per-worker profiles with the
//! lexicographic min — which is associative, so the result is bit-identical
//! to the sequential kernel for any thread count.
//!
//! The older row-chunked machinery stays: [`stomp_rows`] is a visitor-based
//! kernel that hands each row's distance profile *and* dot-product vector to
//! a closure, and [`row_chunks`] splits rows across workers. `valmod-core`'s
//! chunked lower-bound harvest still builds on them (harvesting needs full
//! rows), as do the differential oracles.

use valmod_data::error::Result;
use valmod_obs::{Recorder, SharedRecorder};

use crate::context::ProfiledSeries;
use crate::distance::CorrStats;
use crate::distance_profile::{dp_from_qt_into, self_qt};
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

/// Splits `ndp` rows into at most `threads` contiguous `(start, len)`
/// chunks. Every chunk is non-empty and the chunks cover `[0, ndp)` in
/// order; with `ndp` not divisible by the thread count the last chunk is
/// short.
pub fn row_chunks(ndp: usize, threads: usize) -> Vec<(usize, usize)> {
    if ndp == 0 {
        return Vec::new();
    }
    let threads = resolve_threads(threads).clamp(1, ndp);
    let chunk_len = ndp.div_ceil(threads);
    let mut chunks = Vec::with_capacity(threads);
    let mut start = 0;
    while start < ndp {
        let len = chunk_len.min(ndp - start);
        chunks.push((start, len));
        start += len;
    }
    chunks
}

/// Streams rows `[row_start, row_start + row_len)` of the self-join distance
/// matrix to `visit`, which receives `(row, distance_profile, qt)` where
/// `qt[j] = ⟨T_row, T_j⟩` on the centered series.
///
/// The first row of the range is seeded with one FFT pass
/// ([`self_qt`]); subsequent rows use the `O(1)`-per-cell STOMP update, with
/// column 0 recovered by symmetry (`⟨T_i, T_0⟩ = ⟨T_0, T_i⟩`, a direct
/// `O(ℓ)` dot product) so chunks never need each other's state; they share
/// the length's per-offset statistics `stats` (a [`CorrStats`] filled for
/// `l`). The caller must have validated `l` (e.g. via
/// [`ProfiledSeries::require_pairs`]) and `row_start + row_len <= ndp`.
pub fn stomp_rows<F>(
    ps: &ProfiledSeries,
    l: usize,
    policy: &ExclusionPolicy,
    stats: &CorrStats,
    row_start: usize,
    row_len: usize,
    mut visit: F,
) where
    F: FnMut(usize, &[f64], &[f64]),
{
    if row_len == 0 {
        return;
    }
    let ndp = ps.num_subsequences(l);
    debug_assert!(row_start + row_len <= ndp);
    let t = ps.centered();
    // Seed: the full dot-product vector of the range's first row (FFT).
    let mut qt = self_qt(ps, row_start, l);
    let mut dp = Vec::with_capacity(ndp);
    for i in row_start..row_start + row_len {
        if i > row_start {
            // STOMP update, descending j (paper Alg. 3 lines 10–12).
            for j in (1..ndp).rev() {
                qt[j] = qt[j - 1] - t[i - 1] * t[j - 1] + t[i + l - 1] * t[j + l - 1];
            }
            // First column by symmetry: ⟨T_0, T_i⟩ = ⟨T_i, T_0⟩, computed
            // directly (cheap O(ℓ); avoids sharing the seed row across
            // chunks).
            qt[0] = t[0..l].iter().zip(&t[i..i + l]).map(|(a, b)| a * b).sum();
        }
        dp_from_qt_into(stats, &qt, i, l, policy, &mut dp);
        visit(i, &dp, &qt);
    }
}

/// Computes the matrix profile with `threads` workers (1 = sequential
/// fallback identical to [`crate::stomp::stomp`]; 0 = all available cores).
pub fn stomp_parallel(
    ps: &ProfiledSeries,
    l: usize,
    policy: ExclusionPolicy,
    threads: usize,
) -> Result<MatrixProfile> {
    stomp_parallel_with(ps, l, policy, threads, &SharedRecorder::noop())
}

/// [`stomp_parallel`] with instrumentation: the whole parallel traversal is
/// timed into `mp.diag.parallel_us`, the single FFT seed into
/// `mp.mass.calls`, the row total into `mp.stomp.rows`, and the block count
/// into `mp.diag.blocks`. With a disabled recorder the only cost is one
/// `enabled()` branch per call.
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
        // One FFT-seeded first row; every other cell uses the O(1) update.
        recorder.add("mp.mass.calls", 1);
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
            if seq.mp[i].is_infinite() || par.mp[i].is_infinite() {
                assert_eq!(seq.mp[i].is_infinite(), par.mp[i].is_infinite(), "row {i}");
            } else {
                assert!(
                    (seq.mp[i] - par.mp[i]).abs() < 1e-7,
                    "row {i}: {} vs {}",
                    seq.mp[i],
                    par.mp[i]
                );
            }
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
    fn row_chunks_cover_exactly_once() {
        for (ndp, threads) in [(10, 3), (7, 7), (5, 16), (1, 1), (100, 7), (0, 4)] {
            let chunks = row_chunks(ndp, threads);
            let mut next = 0;
            for &(start, len) in &chunks {
                assert_eq!(start, next);
                assert!(len > 0);
                next += len;
            }
            assert_eq!(next, ndp);
        }
    }

    #[test]
    fn visitor_sees_each_row_once_with_qt() {
        let ps = ProfiledSeries::from_values(&random_walk(80, 2)).unwrap();
        let l = 8;
        let t = ps.centered();
        let mut rows = Vec::new();
        let stats = CorrStats::new(&ps, l, ps.num_subsequences(l));
        stomp_rows(&ps, l, &ExclusionPolicy::HALF, &stats, 3, 5, |i, dp, qt| {
            rows.push(i);
            assert_eq!(dp.len(), qt.len());
            // qt really is the dot-product row of the centered series.
            for (j, &q) in qt.iter().enumerate().step_by(17) {
                let direct: f64 = t[i..i + l].iter().zip(&t[j..j + l]).map(|(a, b)| a * b).sum();
                assert!((q - direct).abs() < 1e-6, "qt[{j}] at row {i}");
            }
        });
        assert_eq!(rows, vec![3, 4, 5, 6, 7]);
    }
}
