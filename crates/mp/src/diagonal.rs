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
//! ## One driver, any thread count
//!
//! [`fold_diagonals`] is the single driver under every kernel here and under
//! `valmod-core`'s lower-bound harvest. It splits diagonals into
//! cell-balanced [`diagonal_chunks`], one per visitor; the first chunk runs
//! on the calling thread straight into the output, every other chunk on its
//! own scoped worker into a private `(mp, ip)` pair that is min-merged
//! afterwards. A cell's bits depend only on its diagonal's chain, never on
//! which worker walks it, and the lexicographic min is associative and
//! commutative — so the profile is bit-identical for *any* thread count.
//! The same holds for the captured [`TailState`]: the chain head of diagonal
//! `k` is the value its block leaves in flight, and each worker writes the
//! slots of its own diagonals.
//!
//! ## Cells in correlation space
//!
//! Visitors receive `(i, j, qt, q, dist)`: the dot product, the Pearson
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
use crate::extend::TailState;
use crate::matrix_profile::MatrixProfile;
use crate::parallel::resolve_threads;
use crate::workspace::Workspace;

/// Lexicographic `(distance, index)` min-update: `profile_min` keeps the
/// first index achieving the row minimum, i.e. ties resolve to the smaller
/// neighbour. The `is_finite` guard keeps never-updated slots at
/// `(∞, usize::MAX)` exactly like the row kernel leaves them. Public so
/// folds outside this module (the tail extension, the segment harvest in
/// `valmod-core`) use the same rule.
#[inline(always)]
pub fn lex_update(mp: &mut f64, ip: &mut usize, d: f64, j: usize) {
    if d < *mp || (d == *mp && d.is_finite() && j < *ip) {
        *mp = d;
        *ip = j;
    }
}

/// The read-only inputs every worker of one kernel call shares.
#[derive(Clone, Copy)]
struct Seeds<'a> {
    t: &'a [f64],
    l: usize,
    ndp: usize,
    qt_first: &'a [f64],
    stats: &'a CorrStats,
    block: usize,
}

/// Fills the workspace seeds for one kernel call — the direct-summation
/// first row (`qt_first[k] = ⟨T_0, T_k⟩`, see
/// [`seed_qt`](crate::distance_profile::seed_qt)) and the per-offset
/// statistics — and returns them with the workspace's in-flight QT buffer.
///
/// The seeds are deliberately *not* FFT-computed: an FFT sliding dot product
/// is bit-sensitive to the transform size and therefore to `n`, while the
/// direct sum for diagonal `k` reads only `t[..l]` and `t[k..k+l]` — so a
/// series that grows by appends keeps every existing seed, which is what lets
/// the tail-extension path (`crate::extend`) continue the diagonal chains
/// bit-identically. The `O(nℓ)` seed cost is negligible against the `O(n²)`
/// traversal.
fn prepare<'w>(
    ps: &'w ProfiledSeries,
    l: usize,
    ws: &'w mut Workspace,
) -> Result<(Seeds<'w>, &'w mut Vec<f64>)> {
    let ndp = ps.require_pairs(l)?;
    ws.note_use();
    let block = ws.block();
    let Workspace { qt_first, diag, stats, .. } = ws;
    let t = ps.centered();
    crate::distance_profile::seed_qt_row_into(t, l, ndp, qt_first);
    debug_assert_eq!(qt_first.len(), ndp);
    stats.fill(ps, l, ndp);
    Ok((Seeds { t, l, ndp, qt_first, stats, block }, diag))
}

/// The blocked traversal of diagonals `[k_start, k_end)`: streams every cell
/// `(i, j)` of that range to `visit(i, j, qt, q, dist)` — the one loop
/// under every kernel. `diag` is the caller's in-flight QT buffer. A
/// non-empty `tail` (one slot per diagonal of the range, diagonal `k` at
/// `k_end − 1 − k`) receives each diagonal's last QT value, the chain head
/// of cell `(ndp − 1 − k, ndp − 1)`.
fn traverse_range<F>(
    s: Seeds,
    (k_start, k_end): (usize, usize),
    diag: &mut Vec<f64>,
    tail: &mut [f64],
    visit: &mut F,
) where
    F: FnMut(usize, usize, f64, f64, f64),
{
    let Seeds { t, l, ndp, .. } = s;
    let mut kb = k_start;
    while kb < k_end {
        let bw = s.block.min(k_end - kb);
        diag.clear();
        diag.extend_from_slice(&s.qt_first[kb..kb + bw]);
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
            s.stats.visit_line(i, i + kb, &diag[..w], l, &mut |j, qt, q, d| visit(i, j, qt, q, d));
        }
        if !tail.is_empty() {
            // Diagonal kb+c last moved at row ndp-1-(kb+c), in column ndp-1.
            for (c, &q) in diag.iter().enumerate() {
                tail[k_end - 1 - (kb + c)] = q;
            }
        }
        kb += bw;
    }
}

/// [`traverse_range`] plus the symmetric lexicographic min-fold of every
/// cell into `(mp, ip)` — one worker's share of [`fold_diagonals`].
fn fold_range<V>(
    s: Seeds,
    range: (usize, usize),
    diag: &mut Vec<f64>,
    (mp, ip): (&mut [f64], &mut [usize]),
    tail: &mut [f64],
    visit: &mut V,
) where
    V: FnMut(usize, usize, f64, f64, f64),
{
    traverse_range(s, range, diag, tail, &mut |i, j, qt, q, d| {
        lex_update(&mut mp[i], &mut ip[i], d, j);
        lex_update(&mut mp[j], &mut ip[j], d, i);
        visit(i, j, qt, q, d);
    });
}

/// Splits the last-column buffer into per-chunk slots: diagonal `k`'s chain
/// head lives at index `ndp − 1 − k`, so chunks ascending in `k` own
/// disjoint, descending slices. An empty buffer (no capture) yields empty
/// slots.
fn tail_slots<'a>(mut tail: &'a mut [f64], chunks: &[(usize, usize)]) -> Vec<&'a mut [f64]> {
    let mut slots = Vec::with_capacity(chunks.len());
    for &(k_start, k_end) in chunks.iter().rev() {
        let width = (k_end - k_start).min(tail.len());
        let (slot, rest) = std::mem::take(&mut tail).split_at_mut(width);
        slots.push(slot);
        tail = rest;
    }
    slots.reverse();
    slots
}

/// The one traversal driver: computes the matrix profile at length `l` and
/// streams every non-excluded cell of the upper triangle (`i < j`) to a
/// visitor as `(i, j, qt, q, dist)` — the dot product, the Pearson
/// correlation ([`corr_and_dist`](crate::distance::corr_and_dist): `q = 1`
/// when either side is flat) and the distance. With `capture` it also
/// returns the [`TailState`] the extension path continues from.
///
/// Diagonals `radius..ndp` are split into one cell-balanced
/// [`diagonal_chunks`] range per visitor (`visitors.len()` is the thread
/// count; pass one visitor for the sequential kernel). The first range runs
/// on the calling thread straight into the output; each other range runs on
/// its own scoped worker with its own visitor and a private `(mp, ip)` pair,
/// min-merged afterwards. The profile and the tail are bit-identical for
/// any number of visitors; each cell reaches exactly one visitor. Within
/// one range, for a fixed `i` cells arrive in ascending `j` and for a fixed
/// `j` in ascending `i`.
///
/// # Panics
/// If `visitors` is empty.
pub fn fold_diagonals<V>(
    ps: &ProfiledSeries,
    l: usize,
    policy: ExclusionPolicy,
    capture: bool,
    ws: &mut Workspace,
    visitors: &mut [V],
) -> Result<(MatrixProfile, Option<TailState>)>
where
    V: FnMut(usize, usize, f64, f64, f64) + Send,
{
    assert!(!visitors.is_empty(), "fold_diagonals needs at least one visitor");
    let (seeds, diag) = prepare(ps, l, ws)?;
    let (ndp, radius) = (seeds.ndp, policy.radius(l));
    let chunks = diagonal_chunks(ndp, radius, visitors.len());
    let mut mp = vec![f64::INFINITY; ndp];
    let mut ip = vec![usize::MAX; ndp];
    let mut tail = vec![0.0f64; if capture { ndp.saturating_sub(radius) } else { 0 }];
    let mut jobs =
        chunks.iter().copied().zip(visitors.iter_mut()).zip(tail_slots(&mut tail, &chunks));
    if let Some(((first, visit), slot)) = jobs.next() {
        let rest: Vec<_> = jobs.collect();
        if rest.is_empty() {
            fold_range(seeds, first, diag, (&mut mp, &mut ip), slot, visit);
        } else {
            std::thread::scope(|scope| {
                let workers: Vec<_> = rest
                    .into_iter()
                    .map(|((range, visit), slot)| {
                        scope.spawn(move || {
                            let mut lmp = vec![f64::INFINITY; ndp];
                            let mut lip = vec![usize::MAX; ndp];
                            let mut diag = Vec::with_capacity(seeds.block);
                            fold_range(seeds, range, &mut diag, (&mut lmp, &mut lip), slot, visit);
                            (lmp, lip)
                        })
                    })
                    .collect();
                fold_range(seeds, first, diag, (&mut mp, &mut ip), slot, visit);
                for worker in workers {
                    let (lmp, lip) = worker.join().expect("diagonal worker panicked");
                    merge_slots(&mut mp, &mut ip, &lmp, &lip);
                }
            });
        }
    }
    let profile = MatrixProfile { l, mp, ip, exclusion_radius: radius };
    Ok((profile, capture.then(|| TailState::captured(ps, l, radius, tail))))
}

/// The visitor of the bare kernels: the min-fold is all they need.
pub(crate) fn no_visit(_: usize, _: usize, _: f64, _: f64, _: f64) {}

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
    let (profile, _) = fold_diagonals(ps, l, policy, false, ws, &mut [no_visit])?;
    if observe {
        recorder.add("mp.diag.blocks", block_count(profile.len(), policy.radius(l), ws.block()));
        if reused {
            recorder.add("mp.workspace.reuses", 1);
        }
        recorder.add("fft.plan_cache.hits", ws.plan_cache().hits() - hits0);
        recorder.add("fft.plan_cache.misses", ws.plan_cache().misses() - misses0);
    }
    Ok(profile)
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
    let (seeds, diag) = prepare(ps, l, ws)?;
    let (ndp, radius) = (seeds.ndp, policy.radius(l));
    let mut mp = vec![f64::INFINITY; ndp];
    let mut ip = vec![usize::MAX; ndp];
    let range = (k_start.clamp(radius, ndp), k_end.clamp(radius, ndp));
    fold_range(seeds, range, diag, (&mut mp, &mut ip), &mut [], &mut no_visit);
    Ok(MatrixProfile { l, mp, ip, exclusion_radius: radius })
}

/// Min-merges `(src_mp, src_ip)` into `(mp, ip)` slot by slot.
fn merge_slots(mp: &mut [f64], ip: &mut [usize], src_mp: &[f64], src_ip: &[usize]) {
    for i in 0..mp.len() {
        lex_update(&mut mp[i], &mut ip[i], src_mp[i], src_ip[i]);
    }
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
    merge_slots(&mut dst.mp, &mut dst.ip, &src.mp, &src.ip);
}

/// The parallel diagonal-blocked matrix profile: [`fold_diagonals`] with
/// `threads` workers (0 = all available cores). Bit-identical to the
/// sequential kernel — and therefore to the row kernel — for *any* thread
/// count; with one thread it *is* the sequential kernel.
pub fn stomp_diagonal_parallel_ws(
    ps: &ProfiledSeries,
    l: usize,
    policy: ExclusionPolicy,
    threads: usize,
    ws: &mut Workspace,
) -> Result<MatrixProfile> {
    let mut visitors = vec![no_visit; resolve_threads(threads)];
    Ok(fold_diagonals(ps, l, policy, false, ws, &mut visitors)?.0)
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
    fn captured_tail_is_identical_for_any_thread_count() {
        // Every worker writes the chain heads of its own diagonals: the
        // capture at any thread count must extend exactly like the
        // sequential one.
        let series = random_walk(400, 41);
        let base = ProfiledSeries::from_values(&series[..330]).unwrap();
        let grown = ProfiledSeries::with_offset(&series, base.offset()).unwrap();
        let policy = ExclusionPolicy::HALF;
        let (mut seq, mut seq_tail) = crate::extend::stomp_with_tail(&base, 18, policy).unwrap();
        crate::extend::extend_profile(&mut seq, &mut seq_tail, &grown).unwrap();
        for (threads, block) in [(2usize, 7usize), (3, 1), (7, 256), (64, 5)] {
            let mut visitors = vec![no_visit; threads];
            let mut ws = Workspace::with_block(block);
            let (mut par, tail) =
                fold_diagonals(&base, 18, policy, true, &mut ws, &mut visitors).unwrap();
            let mut tail = tail.expect("capture requested");
            crate::extend::extend_profile(&mut par, &mut tail, &grown).unwrap();
            assert_profiles_bit_identical(&par, &seq, &format!("threads={threads}"));
        }
    }

    #[test]
    fn every_cell_reaches_exactly_one_visitor() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let ps = ProfiledSeries::from_values(&random_walk(150, 3)).unwrap();
        let (l, policy) = (12usize, ExclusionPolicy::HALF);
        let ndp = ps.num_subsequences(l);
        let seen: Vec<AtomicU64> = (0..ndp * ndp).map(|_| AtomicU64::new(0)).collect();
        let visit = |i: usize, j: usize, _: f64, _: f64, _: f64| {
            seen[i * ndp + j].fetch_add(1, Ordering::Relaxed);
        };
        let mut ws = Workspace::with_block(4);
        fold_diagonals(&ps, l, policy, false, &mut ws, &mut [visit; 3]).unwrap();
        let radius = policy.radius(l);
        for i in 0..ndp {
            for j in 0..ndp {
                let want = u64::from(j >= i + radius);
                assert_eq!(seen[i * ndp + j].load(Ordering::Relaxed), want, "cell ({i}, {j})");
            }
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
