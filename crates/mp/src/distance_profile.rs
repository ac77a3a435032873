//! Distance profiles (paper Definition 2.4) and the MASS algorithm.
//!
//! A distance profile holds the z-normalised distance between one query
//! subsequence and every subsequence of the series. The `O(n log n)` path
//! computes the dot-product vector once by FFT (`valmod-fft`) and applies
//! Eq. 3; trivial matches inside the exclusion zone are set to `+∞`.

use valmod_fft::real::sliding_dot_product;

use crate::context::ProfiledSeries;
use crate::distance::{dist_from_qt, zdist_naive, CorrStats};
use crate::exclusion::ExclusionPolicy;

/// Computes the dot-product vector `QT[j] = ⟨T_{i,ℓ}, T_{j,ℓ}⟩` (centred
/// domain) for a query subsequence of the same series, via FFT.
pub fn self_qt(ps: &ProfiledSeries, i: usize, l: usize) -> Vec<f64> {
    let query = &ps.centered()[i..i + l];
    sliding_dot_product(query, ps.centered())
}

/// One first-row seed `⟨T_0, T_j⟩` by direct left-to-right summation.
///
/// This is THE seed expression of both STOMP kernels and the tail-extension
/// path (`crate::extend`): unlike an FFT sliding dot product — whose bits
/// depend on the transform size and therefore on `n` — a direct sum over the
/// first `l` samples depends only on `t[..l]` and `t[j..j+l]`, so growing the
/// series never changes the seed of an existing diagonal. Every cell of the
/// distance matrix chains from these seeds through the same recurrence, which
/// is what makes incremental extension bit-identical to a cold recompute.
#[inline]
pub fn seed_qt(t: &[f64], j: usize, l: usize) -> f64 {
    t[..l].iter().zip(&t[j..j + l]).map(|(&a, &b)| a * b).sum()
}

/// Fills `out` with the full first row of seeds `qt[j] = ⟨T_0, T_j⟩` for
/// `j ∈ [0, ndp)`, by direct summation (see [`seed_qt`]).
pub fn seed_qt_row_into(t: &[f64], l: usize, ndp: usize, out: &mut Vec<f64>) {
    out.clear();
    out.reserve(ndp);
    out.extend((0..ndp).map(|j| seed_qt(t, j, l)));
}

/// Fills `out` with the distance profile of `T_{i,ℓ}` given its precomputed
/// dot-product vector `qt` and the length's per-offset statistics (`stats`
/// filled for `l`, at least `qt.len()` offsets). Entries inside the
/// exclusion zone become `+∞`. The owner's statistics and flat mask are
/// hoisted out of the row, so each cell costs one multiply-only correlation
/// ([`corr_and_dist`](crate::distance::corr_and_dist)).
pub fn dp_from_qt_into(
    stats: &CorrStats,
    qt: &[f64],
    i: usize,
    l: usize,
    policy: &ExclusionPolicy,
    out: &mut Vec<f64>,
) {
    let ndp = qt.len();
    debug_assert!(stats.means.len() >= ndp);
    out.clear();
    out.resize(ndp, f64::INFINITY);
    let radius = policy.radius(l);
    // Cells outside the exclusion zone: [0, i − radius] and [i + radius, ndp).
    let left_end = (i + 1).saturating_sub(radius).min(ndp);
    let right_start = (i + radius).max(left_end).min(ndp);
    stats.visit_line(i, 0, &qt[..left_end], l, &mut |j, _qt, _q, d| out[j] = d);
    stats.visit_line(i, right_start, &qt[right_start..], l, &mut |j, _qt, _q, d| out[j] = d);
}

/// Full distance profile of subsequence `T_{i,ℓ}` against its own series
/// (`O(n log n)`), exclusion zone included.
pub fn self_distance_profile(
    ps: &ProfiledSeries,
    i: usize,
    l: usize,
    policy: &ExclusionPolicy,
) -> Vec<f64> {
    let qt = self_qt(ps, i, l);
    let stats = CorrStats::new(ps, l, qt.len());
    let mut out = Vec::new();
    dp_from_qt_into(&stats, &qt, i, l, policy, &mut out);
    out
}

/// MASS: the distance profile of an *external* query against a series
/// (no exclusion zone — the query is not part of the series).
///
/// Correlation is invariant to independent shifts of either input, so the
/// raw query can be matched against the centred series as long as each side
/// is paired with the mean of its own domain.
pub fn mass(query: &[f64], ps: &ProfiledSeries) -> Vec<f64> {
    let l = query.len();
    let ndp = ps.num_subsequences(l);
    if l == 0 || ndp == 0 {
        return Vec::new();
    }
    let qt = sliding_dot_product(query, ps.centered());
    let mean_q = query.iter().sum::<f64>() / l as f64;
    let var_q = query.iter().map(|&v| (v - mean_q) * (v - mean_q)).sum::<f64>() / l as f64;
    let std_q = var_q.sqrt();
    (0..ndp).map(|j| dist_from_qt(qt[j], l, mean_q, std_q, ps.mean_c(j, l), ps.std(j, l))).collect()
}

/// Naive `O(nℓ)` distance profile — the oracle for the fast paths.
pub fn self_distance_profile_naive(
    ps: &ProfiledSeries,
    i: usize,
    l: usize,
    policy: &ExclusionPolicy,
) -> Vec<f64> {
    let ndp = ps.num_subsequences(l);
    let centered = ps.centered();
    let query = &centered[i..i + l];
    let radius = policy.radius(l);
    (0..ndp)
        .map(|j| {
            if i.abs_diff(j) < radius {
                f64::INFINITY
            } else {
                zdist_naive(query, &centered[j..j + l])
            }
        })
        .collect()
}

/// Minimum of a distance profile and the offset achieving it, ignoring `+∞`
/// entries. Returns `None` when every entry is excluded.
pub fn profile_min(dp: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (j, &d) in dp.iter().enumerate() {
        if d.is_finite() && best.is_none_or(|(_, bd)| d < bd) {
            best = Some((j, d));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use valmod_data::generators::random_walk;

    fn ps(n: usize, seed: u64) -> ProfiledSeries {
        ProfiledSeries::from_values(&random_walk(n, seed)).unwrap()
    }

    #[test]
    fn fast_profile_matches_naive() {
        let ps = ps(300, 1);
        let policy = ExclusionPolicy::HALF;
        for &(i, l) in &[(0usize, 16usize), (120, 16), (283, 16), (50, 7), (0, 64)] {
            let fast = self_distance_profile(&ps, i, l, &policy);
            let slow = self_distance_profile_naive(&ps, i, l, &policy);
            assert_eq!(fast.len(), slow.len());
            for (j, (a, b)) in fast.iter().zip(&slow).enumerate() {
                if a.is_infinite() || b.is_infinite() {
                    assert_eq!(a.is_infinite(), b.is_infinite(), "i={i} l={l} j={j}");
                } else {
                    assert!((a - b).abs() < 1e-7, "i={i} l={l} j={j}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn exclusion_zone_is_infinite() {
        let ps = ps(100, 2);
        let policy = ExclusionPolicy::HALF;
        let dp = self_distance_profile(&ps, 40, 10, &policy);
        let radius = policy.radius(10);
        for (j, &d) in dp.iter().enumerate() {
            if 40usize.abs_diff(j) < radius {
                assert!(d.is_infinite(), "j={j} should be excluded");
            } else {
                assert!(d.is_finite());
            }
        }
    }

    #[test]
    fn mass_finds_planted_query() {
        let series = random_walk(500, 3);
        let ps = ProfiledSeries::from_values(&series).unwrap();
        // Take an in-series window as external query: its profile minimum
        // must be (numerically) zero at its own offset.
        let query = series[200..232].to_vec();
        let dp = mass(&query, &ps);
        assert_eq!(dp.len(), 500 - 32 + 1);
        let (arg, min) =
            dp.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).map(|(j, &d)| (j, d)).unwrap();
        assert_eq!(arg, 200);
        // Near-zero distances amplify FFT rounding through sqrt(2ℓ·ε).
        assert!(min < 1e-3, "self-match distance {min}");
    }

    #[test]
    fn mass_is_shift_invariant_in_query() {
        let series = random_walk(300, 4);
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let query: Vec<f64> = series[50..80].to_vec();
        let shifted: Vec<f64> = query.iter().map(|v| v + 1000.0).collect();
        let a = mass(&query, &ps);
        let b = mass(&shifted, &ps);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn profile_min_ignores_infinities() {
        assert_eq!(profile_min(&[f64::INFINITY, 3.0, 1.0, f64::INFINITY]), Some((2, 1.0)));
        assert_eq!(profile_min(&[f64::INFINITY, f64::INFINITY]), None);
        assert_eq!(profile_min(&[]), None);
    }

    #[test]
    fn direct_seeds_are_prefix_stable_and_close_to_fft() {
        let series = random_walk(400, 9);
        let ps_small = ProfiledSeries::from_values(&series[..300]).unwrap();
        let ps_big = ProfiledSeries::with_offset(&series, ps_small.offset()).unwrap();
        let l = 24;
        let fft = self_qt(&ps_small, 0, l);
        for (j, &row_qt) in fft.iter().enumerate().take(ps_small.num_subsequences(l)) {
            let small = seed_qt(ps_small.centered(), j, l);
            let big = seed_qt(ps_big.centered(), j, l);
            // Growing the series cannot move a direct seed by a single bit…
            assert_eq!(small.to_bits(), big.to_bits(), "j={j}");
            // …and the seed agrees with the FFT row to rounding.
            assert!((small - row_qt).abs() < 1e-6 * small.abs().max(1.0), "j={j}");
        }
        let mut row = Vec::new();
        seed_qt_row_into(ps_big.centered(), l, ps_big.num_subsequences(l), &mut row);
        assert_eq!(row.len(), ps_big.num_subsequences(l));
        assert_eq!(row[5].to_bits(), seed_qt(ps_big.centered(), 5, l).to_bits());
    }

    #[test]
    fn mass_empty_cases() {
        let ps = ps(10, 5);
        assert!(mass(&[], &ps).is_empty());
        let long_query = vec![0.0; 20];
        assert!(mass(&long_query, &ps).is_empty());
    }
}
