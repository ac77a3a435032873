//! `ComputeMatrixProfile` (paper Algorithm 3): STOMP plus lower-bound
//! harvesting.
//!
//! One pass computes the matrix profile and fills `listDP` (one
//! [`PartialProfile`] per row) at the same time: the harvest rides the
//! diagonal-blocked traversal driver
//! ([`valmod_mp::diagonal::fold_diagonals`]), which hands every visited
//! cell `(i, j)` to the harvest once, and the harvest offers the pair to
//! both rows' heaps in the same cache-resident pass. Total cost
//! `O(n² log p)`. [`compute_matrix_profile_with`] is the one pass entry
//! point; an [`MpPass`] says which length, `p`, policy, thread count and
//! whether to capture the [`TailState`] for later extension.
//!
//! ## Any thread count, the same bits
//!
//! With one thread the fold holds the heaps by `&mut` and takes no lock or
//! atomic. With more, the workers walk disjoint diagonal ranges into their
//! own `mp`/`ip` (merged lexicographically by the driver) and offer into
//! one shared `listDP`: each row's heap sits behind its own lock, and its
//! admit bound is mirrored in an atomic that offers read without the lock.
//! Bounds only fall, so a stale read only lets an offer through to the
//! exact [`PartialProfile::offer`] check — it never drops one. The heap's
//! strict total order makes the retained *set* independent of offer order,
//! so every thread count retains bit-identical entries and matches the
//! row-streamed harvest ([`compute_matrix_profile_rows`]: `harvest_row`
//! over [`valmod_mp::stomp::StompDriver`] rows) bit for bit. Only the
//! heaps' internal layout may differ between runs; nothing downstream reads
//! it (the sub-MP advance and the motif-set expansion break ties by
//! neighbour offset).
//!
//! ## The harvest works in correlation space
//!
//! The traversal hands each cell's Pearson correlation `q` along with its
//! distance, computed by the one multiply-only, bitwise-symmetric formula
//! of [`valmod_mp::distance::correlation`]; the pair's Eq. 2 key is
//! [`lb_key`]`(q)` (a flat side arrives as `q = 1`, key 0). No distance is
//! turned back into a correlation, and the key has no branch. Offers are
//! screened against each profile's admit bound (the root's key once the
//! heap is full), so once heaps fill, most offers cost one compare and
//! never touch a heap. One screen — `HarvestFold` for cell streams,
//! `harvest_row` for single rows, the shared heaps' lock-free read for
//! threaded passes — serves every harvest site: the fused and capturing
//! harvests, `SegmentState::extend`, the Alg. 4 refinement and
//! `complete_profiles`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use valmod_data::error::Result;
use valmod_mp::diagonal::fold_diagonals;
use valmod_mp::distance::CorrStats;
use valmod_mp::distance_profile::profile_min;
use valmod_mp::exclusion::ExclusionPolicy;
use valmod_mp::extend::TailState;
use valmod_mp::matrix_profile::MatrixProfile;
use valmod_mp::parallel::resolve_threads;
use valmod_mp::workspace::Workspace;
use valmod_mp::ProfiledSeries;
use valmod_obs::{Recorder, SharedRecorder};

use crate::lb::lb_key;
use crate::profile::{DpEntry, PartialProfile};

/// A matrix profile together with the per-row partial distance profiles
/// harvested while computing it.
#[derive(Debug, Clone)]
pub struct MpWithProfiles {
    /// The exact matrix profile at the anchor length.
    pub profile: MatrixProfile,
    /// `listDP`: one partial profile per row, anchored at the same length.
    pub partials: Vec<PartialProfile>,
}

/// What one harvesting pass computes and how: the pass descriptor of
/// [`compute_matrix_profile_with`]. Only `l`, `p` and `policy` change the
/// result; `threads` and `capture` change how it is produced and what comes
/// back with it.
#[derive(Debug, Clone, Copy)]
pub struct MpPass {
    /// Subsequence length of the profile.
    pub l: usize,
    /// Lower-bound entries retained per row.
    pub p: usize,
    /// Trivial-match exclusion policy.
    pub policy: ExclusionPolicy,
    /// Traversal workers (1 = sequential, 0 = all available cores).
    pub threads: usize,
    /// Also return the [`TailState`] that lets the result be extended under
    /// appends instead of recomputed.
    pub capture: bool,
}

impl MpPass {
    /// A sequential, non-capturing pass.
    pub fn new(l: usize, p: usize, policy: ExclusionPolicy) -> Self {
        MpPass { l, p, policy, threads: 1, capture: false }
    }

    /// Sets the worker count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets whether the pass captures its [`TailState`].
    pub fn capture(mut self, capture: bool) -> Self {
        self.capture = capture;
        self
    }
}

/// Offers `entry` to `prof` unless its key exceeds `*bound`, the profile's
/// cached `PartialProfile::admit_bound`; keeps the bound current. Once a
/// heap fills, most offers fail this one comparison against a contiguous
/// array and never touch the heap. The rejected offers are exactly those
/// `offer` itself would discard (their key is strictly worse than the
/// root's), so the retained set and heap layout do not change.
#[inline(always)]
fn offer_bounded(prof: &mut PartialProfile, bound: &mut f64, entry: DpEntry) {
    if entry.lb_key <= *bound {
        prof.offer(entry);
        *bound = prof.admit_bound();
    }
}

/// The key-and-offer fold of a single-owner harvest (the one-worker pass
/// and `SegmentState::extend`): every visited cell `(i, j)` is offered to
/// both rows' partial profiles under one Eq. 2 key, [`lb_key`] of the
/// correlation the traversal hands over. `worst_key[j]` caches each
/// profile's admit bound in one contiguous array.
pub(crate) struct HarvestFold<'a> {
    l: usize,
    partials: &'a mut [PartialProfile],
    worst_key: Vec<f64>,
}

impl<'a> HarvestFold<'a> {
    /// A fold into `partials`, anchored at `l`.
    pub(crate) fn new(l: usize, partials: &'a mut [PartialProfile]) -> Self {
        let worst_key = partials.iter().map(PartialProfile::admit_bound).collect();
        HarvestFold { l, partials, worst_key }
    }

    /// Offers one cell `(i, j, qt, q, dist)` as streamed by
    /// [`fold_diagonals`] / `extend_cells` to both of its rows.
    #[inline(always)]
    pub(crate) fn cell(&mut self, i: usize, j: usize, qt: f64, q: f64, dist: f64) {
        let lb_key = lb_key(q, self.l);
        let (partials, worst) = (&mut *self.partials, &mut self.worst_key);
        offer_bounded(&mut partials[i], &mut worst[i], DpEntry { neighbor: j, qt, dist, lb_key });
        offer_bounded(&mut partials[j], &mut worst[j], DpEntry { neighbor: i, qt, dist, lb_key });
    }
}

/// `listDP` shared by the workers of a multi-worker pass: one lock per
/// row's heap, and each heap's admit bound mirrored as `f64` bits in an
/// atomic. An offer reads the bound without the lock and takes the lock
/// only when it passes. The bound publishes no other data — the heap is
/// only ever read under its lock — so `Relaxed` suffices. Bounds only fall,
/// so every value a read can return is at least the heap's current bound:
/// a stale read may let an offer through to the exact check, never reject
/// one the heap would keep.
struct SharedHeaps {
    l: usize,
    heaps: Vec<Mutex<PartialProfile>>,
    bounds: Vec<AtomicU64>,
}

impl SharedHeaps {
    fn new(l: usize, partials: Vec<PartialProfile>) -> Self {
        let bounds = partials.iter().map(|p| AtomicU64::new(p.admit_bound().to_bits())).collect();
        SharedHeaps { l, heaps: partials.into_iter().map(Mutex::new).collect(), bounds }
    }

    /// [`HarvestFold::cell`] for a shared `listDP`.
    #[inline(always)]
    fn cell(&self, i: usize, j: usize, qt: f64, q: f64, dist: f64) {
        let lb_key = lb_key(q, self.l);
        self.offer(i, DpEntry { neighbor: j, qt, dist, lb_key });
        self.offer(j, DpEntry { neighbor: i, qt, dist, lb_key });
    }

    #[inline(always)]
    fn offer(&self, row: usize, entry: DpEntry) {
        let bound = &self.bounds[row];
        if entry.lb_key <= f64::from_bits(bound.load(Ordering::Relaxed)) {
            let mut heap = self.heaps[row].lock().expect("a harvest worker panicked mid-offer");
            heap.offer(entry);
            bound.store(heap.admit_bound().to_bits(), Ordering::Relaxed);
        }
    }

    fn into_partials(self) -> Vec<PartialProfile> {
        self.heaps
            .into_iter()
            .map(|m| m.into_inner().expect("a harvest worker panicked mid-offer"))
            .collect()
    }
}

/// Harvests the `p` smallest-LB entries of one freshly computed distance
/// profile row into `prof` (which must already be (re-)anchored at `l`):
/// the row-streamed reference harvest, the Alg. 4 refinement and
/// [`crate::complete_profiles()`]. `stats` holds the length's per-offset
/// statistics; each pair's key is [`lb_key`] of the same correlation the
/// fused diagonal harvest computes (the formula is bitwise symmetric in its
/// two sides), so both harvests retain bit-identical entries.
pub(crate) fn harvest_row(
    prof: &mut PartialProfile,
    stats: &CorrStats,
    dp: &[f64],
    qt: &[f64],
    owner: usize,
    l: usize,
) {
    let mut bound = prof.admit_bound();
    for (i, (&dist, &qt)) in dp.iter().zip(qt).enumerate() {
        if !dist.is_finite() {
            continue; // exclusion zone
        }
        let lb_key = lb_key(stats.corr(qt, l, owner, i), l);
        offer_bounded(prof, &mut bound, DpEntry { neighbor: i, qt, dist, lb_key });
    }
}

/// Computes the matrix profile at length `l`, harvesting `p` lower-bound
/// entries per row (paper Algorithm 3): [`compute_matrix_profile_with`] for
/// a sequential pass with a fresh [`Workspace`] and no recorder. Callers
/// computing many profiles should hold a workspace to reuse its buffers.
pub fn compute_matrix_profile(
    ps: &ProfiledSeries,
    l: usize,
    p: usize,
    policy: ExclusionPolicy,
) -> Result<MpWithProfiles> {
    let pass = MpPass::new(l, p, policy);
    let (out, _) =
        compute_matrix_profile_with(ps, &pass, &SharedRecorder::noop(), &mut Workspace::new())?;
    Ok(out)
}

/// The harvesting pass over a caller-held [`Workspace`]: one blocked
/// diagonal traversal computes the matrix profile *and* harvests both ends
/// of every visited pair — `(i, j)` is touched once and offered to
/// `partials[i]` and `partials[j]` with the same distance, dot product, and
/// Eq. 2 key (`lb_key` of the pair's symmetric correlation). With
/// `pass.capture` the [`TailState`] comes back too (`None` otherwise); the
/// capture only reads QT values the traversal produces anyway.
///
/// The output is bit-identical for every `pass.threads` and equal to the
/// row-streamed harvest's, profile and retained entries alike (see the
/// module docs). With an enabled recorder the pass is timed into
/// `core.mp.full_profile_us` and accounted under `core.mp.full_profiles`,
/// `mp.stomp.rows`, `mp.diag.blocks`, `mp.workspace.reuses`, and the FFT
/// plan-cache traffic (`fft.plan_cache.hits`/`misses`).
pub fn compute_matrix_profile_with(
    ps: &ProfiledSeries,
    pass: &MpPass,
    recorder: &SharedRecorder,
    ws: &mut Workspace,
) -> Result<(MpWithProfiles, Option<TailState>)> {
    let _span = valmod_obs::span!(recorder, "core.mp.full_profile_us");
    let baseline = PassBaseline::take(ws);
    let MpPass { l, p, policy, threads, capture } = *pass;
    let ndp = ps.require_pairs(l)?;
    let mut partials: Vec<PartialProfile> =
        (0..ndp).map(|j| PartialProfile::new(j, l, ps.std(j, l), p)).collect();
    let workers = resolve_threads(threads);
    let (profile, tail) = if workers == 1 {
        let mut fold = HarvestFold::new(l, &mut partials);
        let visit = |i, j, qt, q, d| fold.cell(i, j, qt, q, d);
        fold_diagonals(ps, l, policy, capture, ws, &mut [visit])?
    } else {
        let heaps = SharedHeaps::new(l, partials);
        let visit = |i, j, qt, q, d| heaps.cell(i, j, qt, q, d);
        let out = fold_diagonals(ps, l, policy, capture, ws, &mut vec![visit; workers])?;
        partials = heaps.into_partials();
        out
    };
    baseline.record(recorder, ndp, l, policy, ws);
    Ok((MpWithProfiles { profile, partials }, tail))
}

/// The row-streamed harvest: rows of the distance matrix from the
/// [`StompDriver`](valmod_mp::stomp::StompDriver), each harvested with
/// `harvest_row`. Not a fast path — it is the reference the fused
/// diagonal harvest is held to, bit for bit on the profile and on every
/// retained `(neighbor, qt, dist, lb_key)` (`valmod-check`'s
/// `harvest-vs-row` oracle).
pub fn compute_matrix_profile_rows(
    ps: &ProfiledSeries,
    l: usize,
    p: usize,
    policy: ExclusionPolicy,
) -> Result<MpWithProfiles> {
    let mut driver = valmod_mp::stomp::StompDriver::new(ps, l, policy)?;
    let ndp = driver.ndp();
    let mut mp = vec![f64::INFINITY; ndp];
    let mut ip = vec![usize::MAX; ndp];
    let mut partials: Vec<PartialProfile> =
        (0..ndp).map(|j| PartialProfile::new(j, l, ps.std(j, l), p)).collect();
    let stats = CorrStats::new(ps, l, ndp);
    let mut dp = Vec::with_capacity(ndp);
    while let Some(row) = driver.next_row(&mut dp) {
        if let Some((arg, d)) = profile_min(&dp) {
            mp[row] = d;
            ip[row] = arg;
        }
        harvest_row(&mut partials[row], &stats, &dp, driver.qt(), row, l);
    }
    let profile = MatrixProfile { l, mp, ip, exclusion_radius: policy.radius(l) };
    Ok(MpWithProfiles { profile, partials })
}

/// Pre-pass workspace snapshot, turned into the per-pass accounting. The
/// traversal seeds by direct sums, so a pass runs no MASS: `mp.mass.calls`
/// is left to the rows that really are FFT-seeded (the sub-MP refinement).
struct PassBaseline {
    hits0: u64,
    misses0: u64,
    reused: bool,
}

impl PassBaseline {
    fn take(ws: &Workspace) -> Self {
        PassBaseline {
            hits0: ws.plan_cache().hits(),
            misses0: ws.plan_cache().misses(),
            reused: ws.uses() > 0,
        }
    }

    fn record(
        self,
        recorder: &SharedRecorder,
        ndp: usize,
        l: usize,
        policy: ExclusionPolicy,
        ws: &Workspace,
    ) {
        if !recorder.enabled() {
            return;
        }
        recorder.add("core.mp.full_profiles", 1);
        recorder.add("mp.stomp.rows", ndp as u64);
        recorder.add(
            "mp.diag.blocks",
            valmod_mp::diagonal::block_count(ndp, policy.radius(l), ws.block()),
        );
        if self.reused {
            recorder.add("mp.workspace.reuses", 1);
        }
        recorder.add("fft.plan_cache.hits", ws.plan_cache().hits() - self.hits0);
        recorder.add("fft.plan_cache.misses", ws.plan_cache().misses() - self.misses0);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use valmod_data::generators::random_walk;
    use valmod_mp::stomp::stomp;

    /// One recorder-less pass of [`compute_matrix_profile_with`].
    pub(crate) fn run_pass(
        ps: &ProfiledSeries,
        pass: MpPass,
        ws: &mut Workspace,
    ) -> (MpWithProfiles, Option<TailState>) {
        compute_matrix_profile_with(ps, &pass, &SharedRecorder::noop(), ws).unwrap()
    }

    #[test]
    fn parallel_harvest_matches_sequential() {
        // Random walk plus a flat stretch: tied keys and distances under a
        // concurrently filled listDP.
        let series = flat_and_near_flat_series(320, 37);
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let (l, p) = (20, 4);
        let seq = compute_matrix_profile(&ps, l, p, ExclusionPolicy::HALF).unwrap();
        for threads in [2usize, 3, 7, 16, 0] {
            for run in 0..2 {
                let pass = MpPass::new(l, p, ExclusionPolicy::HALF).threads(threads);
                let (par, tail) = run_pass(&ps, pass, &mut Workspace::with_block(7));
                assert!(tail.is_none());
                assert_harvests_bit_identical(&par, &seq, &format!("threads={threads} run={run}"));
            }
        }
    }

    /// A profile's retained entries as sorted `(neighbor, qt, dist, lb_key)`
    /// bit patterns — the set every harvest must agree on.
    pub(crate) fn entry_bits(p: &PartialProfile) -> Vec<(usize, u64, u64, u64)> {
        let mut v: Vec<_> = p
            .entries()
            .iter()
            .map(|e| (e.neighbor, e.qt.to_bits(), e.dist.to_bits(), e.lb_key.to_bits()))
            .collect();
        v.sort_unstable();
        v
    }

    pub(crate) fn assert_harvests_bit_identical(
        a: &MpWithProfiles,
        b: &MpWithProfiles,
        what: &str,
    ) {
        assert_eq!(a.profile.len(), b.profile.len(), "{what}: length");
        for i in 0..a.profile.len() {
            assert_eq!(a.profile.mp[i].to_bits(), b.profile.mp[i].to_bits(), "{what}: mp[{i}]");
            assert_eq!(a.profile.ip[i], b.profile.ip[i], "{what}: ip[{i}]");
        }
        for (pa, pb) in a.partials.iter().zip(&b.partials) {
            assert_eq!(pa.owner, pb.owner);
            assert_eq!(entry_bits(pa), entry_bits(pb), "{what}: partials of owner {}", pa.owner);
        }
    }

    #[test]
    fn fused_diagonal_harvest_matches_row_harvest_bit_for_bit() {
        let ps = ProfiledSeries::from_values(&random_walk(320, 61)).unwrap();
        for (l, p) in [(16usize, 4usize), (24, 1), (50, 8)] {
            let reference = compute_matrix_profile_rows(&ps, l, p, ExclusionPolicy::HALF).unwrap();
            let fused = compute_matrix_profile(&ps, l, p, ExclusionPolicy::HALF).unwrap();
            assert_harvests_bit_identical(&fused, &reference, &format!("l={l} p={p}"));
        }
    }

    #[test]
    fn fused_harvest_handles_tied_distances_from_flat_stretches() {
        // A long constant stretch yields many exactly-equal distances (0 and
        // √ℓ); the total heap order must retain the same set either way.
        let mut series = random_walk(260, 67);
        for v in &mut series[80..140] {
            *v = 1.0;
        }
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let reference = compute_matrix_profile_rows(&ps, 16, 3, ExclusionPolicy::HALF).unwrap();
        let fused = compute_matrix_profile(&ps, 16, 3, ExclusionPolicy::HALF).unwrap();
        assert_harvests_bit_identical(&fused, &reference, "flat stretch");
    }

    /// A random walk with an exactly constant stretch, a near-flat stretch
    /// whose σ sits just above the flatness threshold, and a stair step.
    pub(crate) fn flat_and_near_flat_series(n: usize, seed: u64) -> Vec<f64> {
        let mut series = random_walk(n, seed);
        for v in &mut series[n / 5..n / 5 + 50] {
            *v = 3.25;
        }
        for (k, v) in series[n / 2..n / 2 + 45].iter_mut().enumerate() {
            *v = 1.0 + if k % 2 == 0 { 1e-15 } else { -1e-15 };
        }
        for v in &mut series[3 * n / 4..3 * n / 4 + 20] {
            *v = -7.5;
        }
        series
    }

    #[test]
    fn every_harvest_site_agrees_on_flat_and_near_flat_stretches() {
        let series = flat_and_near_flat_series(420, 79);
        let ps = ProfiledSeries::from_values(&series).unwrap();
        for (l, p) in [(12usize, 3usize), (16, 5), (24, 1)] {
            let rows = compute_matrix_profile_rows(&ps, l, p, ExclusionPolicy::HALF).unwrap();
            for (block, threads) in [(1usize, 1usize), (7, 1), (1 << 20, 1), (7, 2), (1, 3)] {
                let mut ws = Workspace::with_block(block);
                let pass = MpPass::new(l, p, ExclusionPolicy::HALF).threads(threads);
                let (fused, _) = run_pass(&ps, pass, &mut ws);
                let what = format!("fused l={l} p={p} block={block} threads={threads}");
                assert_harvests_bit_identical(&fused, &rows, &what);
                let (captured, _) = run_pass(&ps, pass.capture(true), &mut ws);
                let what = format!("capture l={l} p={p} block={block} threads={threads}");
                assert_harvests_bit_identical(&captured, &rows, &what);
            }
            // Flat pairs carry key 0 (q = 1) on every side of the pair.
            let flat_row = 420 / 5 + 10;
            assert!(rows.partials[flat_row].entries().iter().all(|e| e.lb_key == 0.0));
        }
    }

    #[test]
    fn workspace_reuse_does_not_change_the_harvest() {
        let ps = ProfiledSeries::from_values(&random_walk(300, 71)).unwrap();
        let mut ws = Workspace::new();
        for l in [40usize, 41, 64, 40] {
            let (reused, _) = run_pass(&ps, MpPass::new(l, 4, ExclusionPolicy::HALF), &mut ws);
            let fresh = compute_matrix_profile(&ps, l, 4, ExclusionPolicy::HALF).unwrap();
            assert_harvests_bit_identical(&reused, &fresh, &format!("l={l}"));
        }
        // Since the direct-seeding rewrite the fused diagonal harvest does no
        // FFT work at all — its seeds must stay prefix-stable under appends.
        assert_eq!(
            ws.plan_cache().hits() + ws.plan_cache().misses(),
            0,
            "diagonal harvest must not touch the FFT plan cache"
        );
    }

    #[test]
    fn capturing_variant_is_bit_identical_and_extension_ready() {
        let series = random_walk(360, 73);
        let base = ProfiledSeries::from_values(&series[..300]).unwrap();
        let plain = compute_matrix_profile(&base, 18, 4, ExclusionPolicy::HALF).unwrap();
        let grown = ProfiledSeries::with_offset(&series, base.offset()).unwrap();
        let cold = stomp(&grown, 18, ExclusionPolicy::HALF).unwrap();
        for threads in [1usize, 2, 3] {
            let pass = MpPass::new(18, 4, ExclusionPolicy::HALF).threads(threads).capture(true);
            let (captured, tail) = run_pass(&base, pass, &mut Workspace::new());
            assert_harvests_bit_identical(&captured, &plain, &format!("threads={threads}"));
            // The captured tail really is the extension entry point: growing
            // the series through it reproduces a cold profile bit for bit.
            let mut tail = tail.expect("capture requested");
            let mut profile = captured.profile.clone();
            valmod_mp::extend::extend_profile(&mut profile, &mut tail, &grown).unwrap();
            for i in 0..cold.len() {
                assert_eq!(profile.mp[i].to_bits(), cold.mp[i].to_bits(), "mp[{i}]");
                assert_eq!(profile.ip[i], cold.ip[i], "ip[{i}]");
            }
        }
    }

    #[test]
    fn profile_part_matches_plain_stomp() {
        let ps = ProfiledSeries::from_values(&random_walk(400, 19)).unwrap();
        let with = compute_matrix_profile(&ps, 24, 5, ExclusionPolicy::HALF).unwrap();
        let plain = stomp(&ps, 24, ExclusionPolicy::HALF).unwrap();
        for i in 0..plain.len() {
            assert!((with.profile.mp[i] - plain.mp[i]).abs() < 1e-9, "row {i}");
        }
    }

    #[test]
    fn partials_hold_p_smallest_lb_entries() {
        let ps = ProfiledSeries::from_values(&random_walk(300, 23)).unwrap();
        let p = 4;
        let l = 16;
        let policy = ExclusionPolicy::HALF;
        let with = compute_matrix_profile(&ps, l, p, policy).unwrap();
        // Recompute row 10's keys exhaustively and compare to the heap.
        let row = 10usize;
        let dp = valmod_mp::distance_profile::self_distance_profile(&ps, row, l, &policy);
        let mut keys: Vec<f64> = dp
            .iter()
            .filter(|d| d.is_finite())
            .map(|&d| {
                let q = (1.0 - d * d / (2.0 * l as f64)).clamp(-1.0, 1.0);
                crate::lb::lb_key(q, l)
            })
            .collect();
        keys.sort_by(f64::total_cmp);
        let mut got: Vec<f64> = with.partials[row].entries().iter().map(|e| e.lb_key).collect();
        got.sort_by(f64::total_cmp);
        assert_eq!(got.len(), p);
        for (a, b) in got.iter().zip(&keys[..p]) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn partial_entries_store_true_distances_and_dot_products() {
        let ps = ProfiledSeries::from_values(&random_walk(250, 29)).unwrap();
        let l = 20;
        let with = compute_matrix_profile(&ps, l, 6, ExclusionPolicy::HALF).unwrap();
        let t = ps.centered();
        for prof in with.partials.iter().step_by(31) {
            let j = prof.owner;
            for e in prof.entries() {
                let i = e.neighbor;
                let qt: f64 = t[j..j + l].iter().zip(&t[i..i + l]).map(|(a, b)| a * b).sum();
                assert!((e.qt - qt).abs() < 1e-6, "qt mismatch for ({j},{i})");
                let d = valmod_mp::distance::zdist_naive(&t[j..j + l], &t[i..i + l]);
                assert!((e.dist - d).abs() < 1e-6, "dist mismatch for ({j},{i})");
            }
        }
    }

    #[test]
    fn flat_owner_rows_get_zero_keys() {
        // A series with a long constant stretch: rows inside it are flat.
        let mut series = random_walk(200, 3);
        for v in &mut series[50..90] {
            *v = 1.0;
        }
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let with = compute_matrix_profile(&ps, 16, 3, ExclusionPolicy::HALF).unwrap();
        // Row 60 (fully inside the flat stretch) should have key-0 entries.
        for e in with.partials[60].entries() {
            assert_eq!(e.lb_key, 0.0);
        }
    }
}
