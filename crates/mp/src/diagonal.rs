//! The diagonal-blocked STOMP kernel — the hot path of the whole stack.
//!
//! The classic row-by-row STOMP (kept as [`crate::stomp::stomp_row`], the
//! differential oracle) streams full `O(n)` rows: every row touches the
//! entire series and the entire statistics arrays, so at large `n` each row
//! update is a pass over memory that long since left cache. This kernel
//! traverses the distance matrix along *anti-diagonals* instead, in blocks
//! of [`Workspace::block`] adjacent diagonals:
//!
//! * On diagonal `k`, cell `(i, i+k)` follows from cell `(i−1, i+k−1)` by the
//!   same `O(1)` recurrence STOMP uses along a row — so a block of `B`
//!   diagonals needs only `B` in-flight QT values (seeded from the one
//!   directly-summed first row) plus a sliding window of the series and
//!   statistics: everything the inner loop touches stays in L1/L2.
//! * Each unordered pair `(i, j)` is visited exactly once (the matrix is
//!   symmetric), halving the arithmetic of the row kernel, and the
//!   symmetric min-update writes both `mp[i]` and `mp[j]`.
//! * The per-row QT update loop is branch-free over the block width and
//!   reads `t[j]` contiguously, so it auto-vectorises.
//!
//! ## Bit-identity with the row kernel
//!
//! The QT value of any cell chains back to the direct-sum first row through
//! the exact same left-associated update expression in both kernels (for the
//! lower triangle the two factor orders of each product are swapped, and
//! IEEE-754 multiplication commutes), and the one correlation formula
//! ([`correlation`](crate::distance::correlation)) — from which the
//! distance follows — is bitwise symmetric in its two subsequences: the
//! row kernel meets pair `(j, i)` from row `j`, this kernel meets it once
//! from row `min(i, j)`, and both compute the same `q` and `d`. Min-updates
//! break distance ties toward the smaller neighbour index — exactly the
//! order [`profile_min`](crate::distance_profile::profile_min) produces
//! scanning a row left to right. The `valmod-check` oracle
//! `diagonal-vs-row` holds the two kernels to bit-identical `mp` *and* `ip`
//! arrays across every generator family and block size.
//!
//! ## Cells in correlation space
//!
//! The visitor receives `(i, j, qt, q, dist)`: the dot product, the Pearson
//! correlation and the distance. Per-offset means and reciprocal σ are
//! filled once per call into the workspace ([`CorrStats`]), so a cell costs
//! the recurrence plus a multiply-only correlation and a sqrt — no
//! division, no per-cell flatness test (the row's flat mask is hoisted).
//! `valmod-core`'s Eq. 2 harvest keys pairs by `lb_key(q)` straight from
//! the visited `q`.

use valmod_data::error::Result;
use valmod_obs::{Recorder, SharedRecorder};

use crate::context::ProfiledSeries;
use crate::distance::CorrStats;
use crate::exclusion::ExclusionPolicy;
use crate::matrix_profile::MatrixProfile;
use crate::parallel::resolve_threads;
use crate::workspace::Workspace;

/// Lexicographic `(distance, index)` min-update: `profile_min` keeps the
/// first index achieving the row minimum, i.e. ties resolve to the smaller
/// neighbour. The `is_finite` guard keeps never-updated slots at
/// `(∞, usize::MAX)` exactly like the row kernel leaves them. Public so the
/// fused harvesting traversal in `valmod-core` folds with the same rule.
#[inline(always)]
pub fn lex_update(mp: &mut f64, ip: &mut usize, d: f64, j: usize) {
    if d < *mp || (d == *mp && d.is_finite() && j < *ip) {
        *mp = d;
        *ip = j;
    }
}

/// Fills the workspace seeds for one kernel call: the direct-summation first
/// row (`qt_first[k] = ⟨T_0, T_k⟩`, see
/// [`seed_qt`](crate::distance_profile::seed_qt)) and the per-offset
/// statistics. Returns `ndp`.
///
/// The seeds are deliberately *not* FFT-computed: an FFT sliding dot product
/// is bit-sensitive to the transform size and therefore to `n`, while the
/// direct sum for diagonal `k` reads only `t[..l]` and `t[k..k+l]` — so a
/// series that grows by appends keeps every existing seed, which is what lets
/// the tail-extension path (`crate::extend`) continue the diagonal chains
/// bit-identically. The `O(nℓ)` seed cost is negligible against the `O(n²)`
/// traversal.
fn prepare_seeds(ps: &ProfiledSeries, l: usize, ws: &mut Workspace) -> Result<usize> {
    let ndp = ps.require_pairs(l)?;
    let t = ps.centered();
    let Workspace { qt_first, stats, .. } = ws;
    crate::distance_profile::seed_qt_row_into(t, l, ndp, qt_first);
    debug_assert_eq!(qt_first.len(), ndp);
    stats.fill(ps, l, ndp);
    Ok(ndp)
}

/// The blocked traversal of diagonals `[k_start, k_end)`: streams every cell
/// `(i, j)` of that range to `visit(i, j, qt, q, dist)` — the one loop
/// under the sequential, range and parallel kernels. `diag` is the
/// caller's in-flight QT buffer.
#[allow(clippy::too_many_arguments)]
fn traverse_range<F>(
    t: &[f64],
    l: usize,
    ndp: usize,
    qt_first: &[f64],
    stats: &CorrStats,
    (k_start, k_end): (usize, usize),
    block: usize,
    diag: &mut Vec<f64>,
    visit: &mut F,
) where
    F: FnMut(usize, usize, f64, f64, f64),
{
    let mut kb = k_start;
    while kb < k_end {
        let bw = block.min(k_end - kb);
        diag.clear();
        diag.extend_from_slice(&qt_first[kb..kb + bw]);
        // The block is a trapezoid: diagonal kb+c holds rows 0..ndp-(kb+c).
        for i in 0..ndp - kb {
            let w = bw.min(ndp - kb - i);
            if i > 0 {
                // The STOMP recurrence along each diagonal (paper Alg. 3
                // lines 10–12, same expression and association as the row
                // kernel), contiguous in both t reads — vectorises.
                let (a, b) = (t[i - 1], t[i + l - 1]);
                for (c, q) in diag.iter_mut().enumerate().take(w) {
                    let j = i + kb + c;
                    *q = *q - a * t[j - 1] + b * t[j + l - 1];
                }
            }
            stats.visit_line(i, i + kb, &diag[..w], l, &mut |j, qt, q, d| visit(i, j, qt, q, d));
        }
        kb += bw;
    }
}

/// Streams every non-excluded cell of the upper triangle (`i < j`) to
/// `visit(i, j, qt, q, dist)` — the dot product, the Pearson correlation
/// ([`corr_and_dist`](crate::distance::corr_and_dist): `q = 1` when either
/// side is flat) and the distance — traversing diagonals `radius..ndp` in
/// blocks of `ws.block()` and reusing the workspace buffers.
///
/// Within a fixed `i`, cells arrive in ascending `j`; for a fixed `j`, in
/// ascending `i` — so a lexicographic min-fold over the visits reproduces
/// the row kernel's profile exactly. Returns `ndp`.
pub fn diagonal_cells<F>(
    ps: &ProfiledSeries,
    l: usize,
    policy: &ExclusionPolicy,
    ws: &mut Workspace,
    mut visit: F,
) -> Result<usize>
where
    F: FnMut(usize, usize, f64, f64, f64),
{
    let ndp = prepare_seeds(ps, l, ws)?;
    ws.note_use();
    let block = ws.block();
    let Workspace { qt_first, diag, stats, .. } = ws;
    let range = (policy.radius(l).min(ndp), ndp);
    traverse_range(ps.centered(), l, ndp, qt_first, stats, range, block, diag, &mut visit);
    Ok(ndp)
}

/// Number of diagonal blocks the blocked traversal of `ndp` subsequences
/// visits (for the `mp.diag.blocks` counter).
pub fn block_count(ndp: usize, radius: usize, block: usize) -> u64 {
    if radius >= ndp {
        0
    } else {
        ((ndp - radius).div_ceil(block.max(1))) as u64
    }
}

/// The sequential diagonal-blocked matrix profile, reusing `ws` across
/// calls. Bit-identical to [`crate::stomp::stomp_row`].
pub fn stomp_diagonal_ws(
    ps: &ProfiledSeries,
    l: usize,
    policy: ExclusionPolicy,
    ws: &mut Workspace,
) -> Result<MatrixProfile> {
    stomp_diagonal_with(ps, l, policy, ws, &SharedRecorder::noop())
}

/// [`stomp_diagonal_ws`] with instrumentation: block count into
/// `mp.diag.blocks`, workspace recycling into `mp.workspace.reuses`, and
/// FFT plan-cache traffic into `fft.plan_cache.hits`/`misses`.
pub fn stomp_diagonal_with(
    ps: &ProfiledSeries,
    l: usize,
    policy: ExclusionPolicy,
    ws: &mut Workspace,
    recorder: &SharedRecorder,
) -> Result<MatrixProfile> {
    let observe = recorder.enabled();
    let (hits0, misses0, reused) =
        (ws.plan_cache().hits(), ws.plan_cache().misses(), ws.uses() > 0);
    let ndp = ps.require_pairs(l)?;
    let mut mp = vec![f64::INFINITY; ndp];
    let mut ip = vec![usize::MAX; ndp];
    diagonal_cells(ps, l, &policy, ws, |i, j, _qt, _q, d| {
        lex_update(&mut mp[i], &mut ip[i], d, j);
        lex_update(&mut mp[j], &mut ip[j], d, i);
    })?;
    if observe {
        recorder.add("mp.diag.blocks", block_count(ndp, policy.radius(l), ws.block()));
        if reused {
            recorder.add("mp.workspace.reuses", 1);
        }
        recorder.add("fft.plan_cache.hits", ws.plan_cache().hits() - hits0);
        recorder.add("fft.plan_cache.misses", ws.plan_cache().misses() - misses0);
    }
    Ok(MatrixProfile { l, mp, ip, exclusion_radius: policy.radius(l) })
}

/// Splits diagonals `[radius, ndp)` into at most `threads` contiguous
/// `(k_start, k_end)` ranges of roughly equal *cell* count (diagonal `k`
/// holds `ndp − k` cells, so equal-width ranges would leave the first worker
/// with most of the work). Deterministic in its inputs.
pub fn diagonal_chunks(ndp: usize, radius: usize, threads: usize) -> Vec<(usize, usize)> {
    if radius >= ndp {
        return Vec::new();
    }
    let threads = resolve_threads(threads).clamp(1, ndp - radius);
    let total_cells: u64 = (radius..ndp).map(|k| (ndp - k) as u64).sum();
    let mut chunks = Vec::with_capacity(threads);
    let mut k = radius;
    let mut cells_left = total_cells;
    for worker in 0..threads {
        let target = cells_left.div_ceil((threads - worker) as u64);
        let start = k;
        let mut took = 0u64;
        while k < ndp && (took < target || k == start) {
            took += (ndp - k) as u64;
            k += 1;
        }
        cells_left -= took;
        if k > start {
            chunks.push((start, k));
        }
        if k >= ndp {
            break;
        }
    }
    debug_assert_eq!(chunks.last().map(|c| c.1), Some(ndp));
    chunks
}

/// Min-folds diagonals `[k_start, k_end)` into `(mp, ip)` with a local QT
/// buffer — the per-worker body of the range and parallel kernels.
#[allow(clippy::too_many_arguments)]
fn diagonal_range_minfold(
    t: &[f64],
    l: usize,
    ndp: usize,
    qt_first: &[f64],
    stats: &CorrStats,
    range: (usize, usize),
    block: usize,
    mp: &mut [f64],
    ip: &mut [usize],
) {
    let mut diag = Vec::with_capacity(block.min(range.1 - range.0));
    traverse_range(t, l, ndp, qt_first, stats, range, block, &mut diag, &mut |i, j, _qt, _q, d| {
        lex_update(&mut mp[i], &mut ip[i], d, j);
        lex_update(&mut mp[j], &mut ip[j], d, i);
    });
}

/// Computes the *partial* matrix profile contributed by diagonals
/// `[k_start, k_end)` alone: a full-length `(mp, ip)` pair where slots never
/// touched by this range stay at `(∞, usize::MAX)`. The range must lie within
/// `[policy.radius(l), ndp]` — out-of-range bounds are clamped, an empty
/// range yields the all-infinite profile.
///
/// This is the unit of distributed work: min-merging the partials of any
/// family of ranges that covers `[radius, ndp)` (overlaps and duplicates
/// included — the lexicographic min is idempotent) with [`merge_partial`]
/// reproduces [`stomp_diagonal_ws`] bit for bit.
pub fn stomp_diagonal_range_ws(
    ps: &ProfiledSeries,
    l: usize,
    policy: ExclusionPolicy,
    (k_start, k_end): (usize, usize),
    ws: &mut Workspace,
) -> Result<MatrixProfile> {
    let ndp = prepare_seeds(ps, l, ws)?;
    ws.note_use();
    let block = ws.block();
    let t = ps.centered();
    let radius = policy.radius(l);
    let mut mp = vec![f64::INFINITY; ndp];
    let mut ip = vec![usize::MAX; ndp];
    let (k_start, k_end) = (k_start.clamp(radius, ndp), k_end.clamp(radius, ndp));
    if k_start < k_end {
        let Workspace { qt_first, stats, .. } = ws;
        diagonal_range_minfold(
            t,
            l,
            ndp,
            qt_first,
            stats,
            (k_start, k_end),
            block,
            &mut mp,
            &mut ip,
        );
    }
    Ok(MatrixProfile { l, mp, ip, exclusion_radius: radius })
}

/// Lexicographically min-merges the partial profile `src` into `dst`
/// slot-by-slot. Because [`lex_update`] is associative, commutative, and
/// idempotent, merging any multiset of partials whose ranges cover the
/// diagonal span — in any order, with duplicates — yields the same bits as
/// the sequential kernel.
///
/// # Panics
/// If the two profiles have different lengths or subsequence lengths.
pub fn merge_partial(dst: &mut MatrixProfile, src: &MatrixProfile) {
    assert_eq!(dst.l, src.l, "merge_partial: subsequence length mismatch");
    assert_eq!(dst.len(), src.len(), "merge_partial: profile length mismatch");
    for i in 0..src.len() {
        lex_update(&mut dst.mp[i], &mut dst.ip[i], src.mp[i], src.ip[i]);
    }
}

/// The parallel diagonal-blocked matrix profile: diagonals are partitioned
/// into cell-balanced contiguous ranges, each worker min-folds into its own
/// full-length profile, and the per-worker profiles merge lexicographically.
///
/// The lexicographic `(distance, index)` min is associative and commutative,
/// so the result is bit-identical to the sequential kernel — and therefore
/// to the row kernel — for *any* thread count.
pub fn stomp_diagonal_parallel_ws(
    ps: &ProfiledSeries,
    l: usize,
    policy: ExclusionPolicy,
    threads: usize,
    ws: &mut Workspace,
) -> Result<MatrixProfile> {
    let ndp = prepare_seeds(ps, l, ws)?;
    ws.note_use();
    let block = ws.block();
    let t = ps.centered();
    let radius = policy.radius(l);
    let chunks = diagonal_chunks(ndp, radius, threads);
    let (qt_first, stats) = (&ws.qt_first, &ws.stats);

    let mut mp = vec![f64::INFINITY; ndp];
    let mut ip = vec![usize::MAX; ndp];
    if let [only] = chunks[..] {
        // One worker: fold straight into the output, no merge copy.
        diagonal_range_minfold(t, l, ndp, qt_first, stats, only, block, &mut mp, &mut ip);
    } else {
        let locals = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|&range| {
                    scope.spawn(move || {
                        let mut lmp = vec![f64::INFINITY; ndp];
                        let mut lip = vec![usize::MAX; ndp];
                        diagonal_range_minfold(
                            t, l, ndp, qt_first, stats, range, block, &mut lmp, &mut lip,
                        );
                        (lmp, lip)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("diagonal worker panicked"))
                .collect::<Vec<_>>()
        });
        for (lmp, lip) in locals {
            for i in 0..ndp {
                lex_update(&mut mp[i], &mut ip[i], lmp[i], lip[i]);
            }
        }
    }
    Ok(MatrixProfile { l, mp, ip, exclusion_radius: radius })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stomp::stomp_row;
    use valmod_data::generators::{plant_motif, random_walk, sine_mixture};

    fn assert_profiles_bit_identical(a: &MatrixProfile, b: &MatrixProfile, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for i in 0..a.len() {
            assert_eq!(a.mp[i].to_bits(), b.mp[i].to_bits(), "{what}: mp[{i}]");
            assert_eq!(a.ip[i], b.ip[i], "{what}: ip[{i}]");
        }
    }

    #[test]
    fn diagonal_matches_row_kernel_bit_for_bit() {
        let ps = ProfiledSeries::from_values(&random_walk(500, 17)).unwrap();
        for l in [8usize, 16, 50] {
            let row = stomp_row(&ps, l, ExclusionPolicy::HALF).unwrap();
            let mut ws = Workspace::new();
            let diag = stomp_diagonal_ws(&ps, l, ExclusionPolicy::HALF, &mut ws).unwrap();
            assert_profiles_bit_identical(&diag, &row, &format!("l={l}"));
        }
    }

    #[test]
    fn block_width_does_not_change_a_single_bit() {
        let (series, _) = plant_motif(400, 30, 3, 0.01, 23);
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let row = stomp_row(&ps, 30, ExclusionPolicy::HALF).unwrap();
        for block in [1usize, 3, 64, 10_000] {
            let mut ws = Workspace::with_block(block);
            let diag = stomp_diagonal_ws(&ps, 30, ExclusionPolicy::HALF, &mut ws).unwrap();
            assert_profiles_bit_identical(&diag, &row, &format!("block={block}"));
        }
    }

    #[test]
    fn workspace_reuse_across_lengths_does_not_change_results() {
        let series = sine_mixture(600, &[(0.03, 1.0), (0.011, 0.4)], 0.05, 3);
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let mut ws = Workspace::new();
        for l in 10..40 {
            let reused = stomp_diagonal_ws(&ps, l, ExclusionPolicy::HALF, &mut ws).unwrap();
            let fresh =
                stomp_diagonal_ws(&ps, l, ExclusionPolicy::HALF, &mut Workspace::new()).unwrap();
            assert_profiles_bit_identical(&reused, &fresh, &format!("l={l}"));
        }
        assert!(ws.uses() > 1);
        // Direct seeding keeps the blocked kernel off the FFT entirely; the
        // plan cache is reserved for MASS/refinement paths.
        assert_eq!(ws.plan_cache().hits() + ws.plan_cache().misses(), 0);
    }

    #[test]
    fn parallel_is_bit_identical_for_any_thread_count() {
        let ps = ProfiledSeries::from_values(&random_walk(350, 31)).unwrap();
        let row = stomp_row(&ps, 24, ExclusionPolicy::HALF).unwrap();
        for threads in [1usize, 2, 3, 7, 16, 64] {
            let mut ws = Workspace::new();
            let par = stomp_diagonal_parallel_ws(&ps, 24, ExclusionPolicy::HALF, threads, &mut ws)
                .unwrap();
            assert_profiles_bit_identical(&par, &row, &format!("threads={threads}"));
        }
    }

    #[test]
    fn fully_excluded_series_yields_all_infinite() {
        let ps = ProfiledSeries::from_values(&random_walk(12, 2)).unwrap();
        let mut ws = Workspace::new();
        let p = stomp_diagonal_ws(&ps, 10, ExclusionPolicy::HALF, &mut ws).unwrap();
        assert!(p.mp.iter().all(|d| d.is_infinite()));
        assert!(p.ip.iter().all(|&j| j == usize::MAX));
    }

    #[test]
    fn diagonal_chunks_cover_exactly_once_and_balance_cells() {
        for (ndp, radius, threads) in
            [(100, 5, 4), (50, 49, 8), (300, 1, 3), (10, 12, 2), (64, 8, 64)]
        {
            let chunks = diagonal_chunks(ndp, radius, threads);
            if radius >= ndp {
                assert!(chunks.is_empty());
                continue;
            }
            let mut next = radius;
            for &(s, e) in &chunks {
                assert_eq!(s, next);
                assert!(e > s);
                next = e;
            }
            assert_eq!(next, ndp);
            // Cell balance: no chunk more than ~2x the mean.
            let cells: Vec<u64> =
                chunks.iter().map(|&(s, e)| (s..e).map(|k| (ndp - k) as u64).sum()).collect();
            let mean = cells.iter().sum::<u64>() / cells.len() as u64;
            for &c in &cells {
                assert!(c <= 2 * mean + (ndp as u64), "chunk {c} vs mean {mean}");
            }
        }
    }

    #[test]
    fn range_partials_merge_bit_identically_for_any_partition() {
        let ps = ProfiledSeries::from_values(&random_walk(320, 9)).unwrap();
        let l = 20usize;
        let policy = ExclusionPolicy::HALF;
        let full = stomp_row(&ps, l, policy).unwrap();
        let ndp = full.len();
        let radius = policy.radius(l);
        for parts in [1usize, 2, 3, 5, 11] {
            let chunks = diagonal_chunks(ndp, radius, parts);
            let mut ws = Workspace::new();
            let mut merged = MatrixProfile {
                l,
                mp: vec![f64::INFINITY; ndp],
                ip: vec![usize::MAX; ndp],
                exclusion_radius: radius,
            };
            // Merge in reverse order to exercise commutativity.
            for &range in chunks.iter().rev() {
                let partial = stomp_diagonal_range_ws(&ps, l, policy, range, &mut ws).unwrap();
                merge_partial(&mut merged, &partial);
            }
            assert_profiles_bit_identical(&merged, &full, &format!("parts={parts}"));
        }
    }

    #[test]
    fn duplicate_and_overlapping_ranges_are_harmless() {
        let ps = ProfiledSeries::from_values(&random_walk(200, 5)).unwrap();
        let l = 16usize;
        let policy = ExclusionPolicy::HALF;
        let full = stomp_row(&ps, l, policy).unwrap();
        let ndp = full.len();
        let radius = policy.radius(l);
        let mid = radius + (ndp - radius) / 2;
        let mut ws = Workspace::new();
        let mut merged = MatrixProfile {
            l,
            mp: vec![f64::INFINITY; ndp],
            ip: vec![usize::MAX; ndp],
            exclusion_radius: radius,
        };
        // First half twice (a redispatched shard), overlapping second half.
        for range in [(radius, mid), (radius, mid), (mid.saturating_sub(3), ndp)] {
            let partial = stomp_diagonal_range_ws(&ps, l, policy, range, &mut ws).unwrap();
            merge_partial(&mut merged, &partial);
        }
        assert_profiles_bit_identical(&merged, &full, "dup+overlap");
    }

    #[test]
    fn empty_and_clamped_ranges_yield_infinite_partials() {
        let ps = ProfiledSeries::from_values(&random_walk(100, 1)).unwrap();
        let mut ws = Workspace::new();
        let p = stomp_diagonal_range_ws(&ps, 10, ExclusionPolicy::HALF, (7, 7), &mut ws).unwrap();
        assert!(p.mp.iter().all(|d| d.is_infinite()));
        // A range entirely below the radius clamps to empty.
        let q = stomp_diagonal_range_ws(&ps, 10, ExclusionPolicy::HALF, (0, 2), &mut ws).unwrap();
        assert!(q.mp.iter().all(|d| d.is_infinite()));
    }

    #[test]
    fn block_count_matches_traversal() {
        assert_eq!(block_count(100, 5, 256), 1);
        assert_eq!(block_count(100, 5, 10), 10);
        assert_eq!(block_count(100, 5, 1), 95);
        assert_eq!(block_count(10, 12, 4), 0);
    }
}
