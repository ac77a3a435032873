//! Z-normalised Euclidean distances (paper Eq. 3) and their naive oracles.
//!
//! ## Flat-subsequence convention
//!
//! Z-normalisation is undefined for a constant subsequence (σ = 0). We follow
//! the standard matrix-profile convention — a flat subsequence z-normalises
//! to the all-zero vector — which induces:
//!
//! * both flat → distance 0;
//! * exactly one flat → distance `sqrt(ℓ)` (the energy of a z-normalised
//!   vector is ℓ).
//!
//! The fast dot-product path and the naive path agree on this convention, so
//! every oracle test can compare them bit-tightly.
//!
//! ## One correlation formula
//!
//! Every kernel goes through [`correlation`]:
//! `q = (qt − ℓ·(μi·μj)) · (σi⁻¹·σj⁻¹) · ℓ⁻¹`, multiply-only over per-offset
//! reciprocals ([`inv_std`], cached in [`CorrStats`]), with the distance
//! `d = sqrt(2ℓ(1 − q))` taken from it ([`corr_and_dist`]). A flat side is
//! encoded as the reciprocal 0 and reports `q = 1` (Eq. 2 key 0). The
//! formula is bitwise symmetric in its two subsequences, which is what
//! keeps the diagonal kernel, the row streamer and the tail extension
//! bit-identical although each visits a pair from a different side.

use valmod_data::series::znormalize_into;

use crate::context::ProfiledSeries;

/// Relative threshold below which a σ is treated as zero (flat subsequence).
/// Matches the threshold used by [`valmod_data::series::znormalize`].
#[inline]
pub fn is_flat(sigma: f64, mean: f64) -> bool {
    sigma <= f64::EPSILON * mean.abs().max(1.0)
}

/// The reciprocal `σ⁻¹` the correlation formula multiplies by, with a flat
/// subsequence (see [`is_flat`]) encoded as `0`: a flat side has no finite
/// reciprocal, and [`corr_and_dist`] reads the zero as its flat mask.
///
/// Kernels cache this per offset (`Workspace`, [`CorrStats`]) so the
/// per-cell formula needs no division.
#[inline]
pub fn inv_std(sigma: f64, mean: f64) -> f64 {
    if is_flat(sigma, mean) {
        0.0
    } else {
        1.0 / sigma
    }
}

/// The Pearson correlation between two non-flat subsequences of length `l`
/// from their (centred-domain) dot product, centred means and reciprocal
/// standard deviations ([`inv_std`]), clamped to [−1, 1]:
///
/// ```text
/// q = (qt − ℓ·(μi·μj)) · (σi⁻¹·σj⁻¹) · ℓ⁻¹
/// ```
///
/// Multiply-only, and **bitwise symmetric** in its two subsequences: both
/// pair products commute under IEEE-754, and the outer operations see the
/// same operands whichever side is called `i`. That symmetry is what lets
/// the diagonal kernel (which visits `(i, j)` with `i < j`), the row
/// streamer (which visits `(i, j)` and `(j, i)` as separate rows) and the
/// column-wise tail extension produce the same bits for the same pair.
///
/// `qt` must be the dot product of the two subsequences in the same domain
/// (raw or centred) that `mean_i`/`mean_j` are expressed in.
#[inline(always)]
pub fn correlation(
    qt: f64,
    l: usize,
    mean_i: f64,
    inv_std_i: f64,
    mean_j: f64,
    inv_std_j: f64,
) -> f64 {
    let lf = l as f64;
    let q = (qt - lf * (mean_i * mean_j)) * (inv_std_i * inv_std_j) * (1.0 / lf);
    q.clamp(-1.0, 1.0)
}

/// Paper Eq. 3 from a correlation: `d = sqrt(2ℓ(1 − q))`.
#[inline(always)]
fn dist_from_corr(q: f64, l: usize) -> f64 {
    (2.0 * l as f64 * (1.0 - q)).max(0.0).sqrt()
}

/// The correlation *and* z-normalised distance of one pair, with the
/// flat-subsequence convention applied through the zero reciprocals of
/// [`inv_std`]: a pair with a flat side reports `q = 1` (so its Eq. 2 key is
/// 0, the unconditionally admissible bound) and the conventional distance
/// (0 when both sides are flat, `sqrt(ℓ)` when one is). Bitwise symmetric
/// in `i` and `j`, like [`correlation`].
#[inline(always)]
pub fn corr_and_dist(
    qt: f64,
    l: usize,
    mean_i: f64,
    inv_std_i: f64,
    mean_j: f64,
    inv_std_j: f64,
) -> (f64, f64) {
    if inv_std_i == 0.0 || inv_std_j == 0.0 {
        return (1.0, flat_pair_dist(inv_std_i, inv_std_j, l));
    }
    let q = correlation(qt, l, mean_i, inv_std_i, mean_j, inv_std_j);
    (q, dist_from_corr(q, l))
}

/// The conventional distance of a pair with at least one flat side.
#[inline(always)]
fn flat_pair_dist(inv_std_i: f64, inv_std_j: f64, l: usize) -> f64 {
    if inv_std_i == 0.0 && inv_std_j == 0.0 {
        0.0
    } else {
        (l as f64).sqrt()
    }
}

/// Z-normalised Euclidean distance from a dot product (paper Eq. 3):
/// `d = sqrt(2ℓ(1 − q))`, with the flat-subsequence convention above.
///
/// The one definition every kernel shares: it is [`corr_and_dist`] over
/// the [`inv_std`] reciprocals, which hot callers cache per offset instead
/// of recomputing per cell — with identical bits.
#[inline]
pub fn dist_from_qt(qt: f64, l: usize, mean_i: f64, std_i: f64, mean_j: f64, std_j: f64) -> f64 {
    corr_and_dist(qt, l, mean_i, inv_std(std_i, mean_i), mean_j, inv_std(std_j, mean_j)).1
}

/// Per-offset statistics of one subsequence length in the form the
/// correlation formula reads them: centred means and [`inv_std`]
/// reciprocals. Filling it once per length turns every per-cell σ (a sqrt)
/// and division into two loads.
#[derive(Debug, Clone, Default)]
pub struct CorrStats {
    /// Centred subsequence means, `means[i] = μ(T_{i,ℓ}) − offset`.
    pub(crate) means: Vec<f64>,
    /// Flat-aware reciprocal standard deviations ([`inv_std`]).
    pub(crate) inv_stds: Vec<f64>,
}

impl CorrStats {
    /// The statistics of the first `ndp` subsequences of length `l`.
    pub fn new(ps: &ProfiledSeries, l: usize, ndp: usize) -> Self {
        let mut stats = CorrStats::default();
        stats.fill(ps, l, ndp);
        stats
    }

    /// Refills the buffers for the first `ndp` subsequences of length `l`,
    /// reusing their allocations.
    pub fn fill(&mut self, ps: &ProfiledSeries, l: usize, ndp: usize) {
        self.means.clear();
        self.inv_stds.clear();
        self.means.extend((0..ndp).map(|i| ps.mean_c(i, l)));
        self.inv_stds.extend(self.means.iter().enumerate().map(|(i, &m)| inv_std(ps.std(i, l), m)));
    }

    /// Visits the pairs `(fixed, start + c)` for every dot product `qts[c]`,
    /// handing `emit(start + c, qts[c], q, d)` the [`corr_and_dist`] result.
    /// The fixed side's statistics and flat mask are hoisted out of the
    /// loop: a flat fixed side pays no correlation at all. Every traversal
    /// (diagonal rows, extension columns) emits through here.
    #[inline(always)]
    pub(crate) fn visit_line<F>(
        &self,
        fixed: usize,
        start: usize,
        qts: &[f64],
        l: usize,
        emit: &mut F,
    ) where
        F: FnMut(usize, f64, f64, f64),
    {
        let (mean_f, inv_f) = (self.means[fixed], self.inv_stds[fixed]);
        let end = start + qts.len();
        let (means, invs) = (&self.means[start..end], &self.inv_stds[start..end]);
        if inv_f == 0.0 {
            for (c, (&qt, &inv)) in qts.iter().zip(invs).enumerate() {
                emit(start + c, qt, 1.0, flat_pair_dist(inv_f, inv, l));
            }
            return;
        }
        for (c, ((&qt, &mean), &inv)) in qts.iter().zip(means).zip(invs).enumerate() {
            let (q, d) = corr_and_dist(qt, l, mean_f, inv_f, mean, inv);
            emit(start + c, qt, q, d);
        }
    }

    /// The correlation half of [`corr_and_dist`] for the pair `(i, j)`
    /// (`1` when either side is flat), for callers that already hold the
    /// pair's distance.
    #[inline(always)]
    pub fn corr(&self, qt: f64, l: usize, i: usize, j: usize) -> f64 {
        let (inv_i, inv_j) = (self.inv_stds[i], self.inv_stds[j]);
        if inv_i == 0.0 || inv_j == 0.0 {
            return 1.0;
        }
        correlation(qt, l, self.means[i], inv_i, self.means[j], inv_j)
    }
}

/// Naive z-normalised Euclidean distance: z-normalise both subsequences and
/// take the plain Euclidean distance. The oracle for every fast path.
pub fn zdist_naive(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "z-distance needs equal lengths");
    let mut za = a.to_vec();
    let mut zb = b.to_vec();
    znormalize_into(a, &mut za);
    znormalize_into(b, &mut zb);
    za.iter().zip(&zb).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

/// Early-abandoning z-normalised squared distance: returns `None` as soon as
/// the partial squared sum exceeds `threshold_sq` (used by the QuickMotif
/// refinement step).
pub fn zdist_sq_early_abandon(
    a: &[f64],
    b: &[f64],
    mean_a: f64,
    std_a: f64,
    mean_b: f64,
    std_b: f64,
    threshold_sq: f64,
) -> Option<f64> {
    debug_assert_eq!(a.len(), b.len());
    let l = a.len();
    let flat_a = is_flat(std_a, mean_a);
    let flat_b = is_flat(std_b, mean_b);
    if flat_a || flat_b {
        let d_sq = if flat_a && flat_b { 0.0 } else { l as f64 };
        return (d_sq <= threshold_sq).then_some(d_sq);
    }
    let inv_a = 1.0 / std_a;
    let inv_b = 1.0 / std_b;
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = (x - mean_a) * inv_a - (y - mean_b) * inv_b;
        acc += d * d;
        if acc > threshold_sq {
            return None;
        }
    }
    Some(acc)
}

/// The paper's §3 length-normalisation: multiply a distance by `sqrt(1/ℓ)`
/// so motifs of different lengths become comparable (and the ranking no
/// longer has a bias toward either extreme of the length range).
#[inline]
pub fn length_normalize(dist: f64, l: usize) -> f64 {
    dist * (1.0 / l as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qt(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn mean_std(x: &[f64]) -> (f64, f64) {
        let l = x.len() as f64;
        let m = x.iter().sum::<f64>() / l;
        let v = x.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / l;
        (m, v.sqrt())
    }

    #[test]
    fn fast_path_matches_naive() {
        let a = [1.0, 3.0, 2.0, 5.0, 4.0, 4.5];
        let b = [0.2, -1.0, 0.8, 2.0, 1.5, 1.0];
        let (ma, sa) = mean_std(&a);
        let (mb, sb) = mean_std(&b);
        let fast = dist_from_qt(qt(&a, &b), a.len(), ma, sa, mb, sb);
        let slow = zdist_naive(&a, &b);
        assert!((fast - slow).abs() < 1e-10, "{fast} vs {slow}");
    }

    #[test]
    fn identical_shape_has_zero_distance() {
        let a = [1.0, 2.0, 4.0, 8.0];
        let b: Vec<f64> = a.iter().map(|v| v * 3.0 + 7.0).collect();
        assert!(zdist_naive(&a, &b) < 1e-9);
        let (ma, sa) = mean_std(&a);
        let (mb, sb) = mean_std(&b);
        assert!(dist_from_qt(qt(&a, &b), 4, ma, sa, mb, sb) < 1e-7);
    }

    #[test]
    fn anti_correlated_reaches_maximum() {
        let a = [1.0, -1.0, 1.0, -1.0];
        let b = [-1.0, 1.0, -1.0, 1.0];
        let d = zdist_naive(&a, &b);
        // Max distance is sqrt(4ℓ) = 4 for ℓ = 4.
        assert!((d - 4.0).abs() < 1e-9);
        let (ma, sa) = mean_std(&a);
        let (mb, sb) = mean_std(&b);
        assert!((dist_from_qt(qt(&a, &b), 4, ma, sa, mb, sb) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn flat_conventions_match_between_paths() {
        let flat = [2.0, 2.0, 2.0, 2.0];
        let wavy = [0.0, 1.0, 0.0, -1.0];
        // Naive: znorm(flat) = 0 ⇒ dist = sqrt(Σ z_wavy²) = sqrt(ℓ) = 2.
        assert!((zdist_naive(&flat, &wavy) - 2.0).abs() < 1e-9);
        let (mf, sf) = mean_std(&flat);
        let (mw, sw) = mean_std(&wavy);
        assert!((dist_from_qt(qt(&flat, &wavy), 4, mf, sf, mw, sw) - 2.0).abs() < 1e-9);
        // Both flat ⇒ 0.
        assert_eq!(zdist_naive(&flat, &[5.0; 4]), 0.0);
        assert_eq!(dist_from_qt(qt(&flat, &[5.0; 4]), 4, mf, sf, 5.0, 0.0), 0.0);
    }

    #[test]
    fn correlation_and_distance_are_bitwise_symmetric() {
        // The diagonal-vs-row identity rests on this: the diagonal kernel
        // visits (i, j) once with i < j, the row streamer visits it from
        // both rows, and the extension visits it from the new column.
        let mut rng = valmod_data::rng::Xoshiro256::seed_from_u64(12);
        for case in 0..20_000 {
            let l = rng.uniform_usize(2, 600);
            let mut side = || {
                let mean = rng.uniform(-1e3, 1e3) * 10f64.powi(rng.uniform_usize(0, 7) as i32 - 4);
                let std = match rng.uniform_usize(0, 8) {
                    0 => 0.0,
                    1 => f64::EPSILON * mean.abs().max(1.0) * rng.uniform(0.5, 4.0),
                    _ => rng.uniform(1e-6, 50.0),
                };
                (mean, std)
            };
            let ((mi, si), (mj, sj)) = (side(), side());
            let qt = (mi * mj + rng.uniform(-1.0, 1.0) * si * sj) * l as f64;
            let (ii, ij) = (inv_std(si, mi), inv_std(sj, mj));
            let fwd = corr_and_dist(qt, l, mi, ii, mj, ij);
            let rev = corr_and_dist(qt, l, mj, ij, mi, ii);
            assert_eq!(fwd.0.to_bits(), rev.0.to_bits(), "case {case}: q");
            assert_eq!(fwd.1.to_bits(), rev.1.to_bits(), "case {case}: d");
            let d = dist_from_qt(qt, l, mi, si, mj, sj);
            assert_eq!(d.to_bits(), dist_from_qt(qt, l, mj, sj, mi, si).to_bits(), "case {case}");
            assert_eq!(d.to_bits(), fwd.1.to_bits(), "case {case}: one definition");
            if ii != 0.0 && ij != 0.0 {
                let q = correlation(qt, l, mi, ii, mj, ij);
                assert_eq!(q.to_bits(), correlation(qt, l, mj, ij, mi, ii).to_bits());
                assert_eq!(q.to_bits(), fwd.0.to_bits());
            } else {
                assert_eq!(fwd.0, 1.0, "case {case}: a flat side reports q = 1");
            }
        }
    }

    #[test]
    fn corr_stats_match_the_per_pair_formula() {
        let values: Vec<f64> = (0..300)
            .map(|i| if (100..160).contains(&i) { 2.0 } else { (i as f64 * 0.3).sin() })
            .collect();
        let ps = ProfiledSeries::from_values(&values).unwrap();
        let l = 16;
        let ndp = ps.num_subsequences(l);
        let stats = CorrStats::new(&ps, l, ndp);
        let t = ps.centered();
        for (i, j) in [(0usize, 40usize), (110, 130), (105, 250), (200, 120)] {
            let qt = qt(&t[i..i + l], &t[j..j + l]);
            let (q, d) = corr_and_dist(
                qt,
                l,
                stats.means[i],
                stats.inv_stds[i],
                stats.means[j],
                stats.inv_stds[j],
            );
            let want =
                dist_from_qt(qt, l, ps.mean_c(i, l), ps.std(i, l), ps.mean_c(j, l), ps.std(j, l));
            assert_eq!(d.to_bits(), want.to_bits(), "({i}, {j})");
            assert_eq!(q.to_bits(), stats.corr(qt, l, i, j).to_bits(), "({i}, {j})");
        }
        // Rows inside the constant stretch are flat: reciprocal 0, q = 1.
        assert_eq!(stats.inv_stds[120], 0.0);
        assert_eq!(stats.corr(1.0, l, 120, 10), 1.0);
    }

    #[test]
    fn correlation_is_clamped() {
        // Rounding could push q epsilon-above 1; the distance must stay ≥ 0.
        let q = correlation(100.0, 4, 0.0, 1.0, 0.0, 1.0);
        assert_eq!(q, 1.0);
        let q = correlation(-100.0, 4, 0.0, 1.0, 0.0, 1.0);
        assert_eq!(q, -1.0);
    }

    #[test]
    fn early_abandon_agrees_when_not_abandoning() {
        let a = [1.0, 3.0, 2.0, 5.0];
        let b = [4.0, 1.0, 2.5, 2.0];
        let (ma, sa) = mean_std(&a);
        let (mb, sb) = mean_std(&b);
        let full = zdist_naive(&a, &b);
        let got = zdist_sq_early_abandon(&a, &b, ma, sa, mb, sb, f64::INFINITY).unwrap();
        assert!((got.sqrt() - full).abs() < 1e-10);
    }

    #[test]
    fn early_abandon_abandons() {
        let a = [1.0, 3.0, 2.0, 5.0];
        let b = [4.0, 1.0, 2.5, 2.0];
        let (ma, sa) = mean_std(&a);
        let (mb, sb) = mean_std(&b);
        assert!(zdist_sq_early_abandon(&a, &b, ma, sa, mb, sb, 1e-6).is_none());
    }

    #[test]
    fn length_normalization_factor() {
        assert!((length_normalize(4.0, 16) - 1.0).abs() < 1e-12);
        assert_eq!(length_normalize(0.0, 5), 0.0);
    }
}
