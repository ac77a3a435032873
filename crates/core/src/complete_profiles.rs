//! Complete per-length matrix profiles — the paper's §8 future-work item:
//! *"extend VALMOD in order to efficiently compute a complete matrix profile
//! for each length in the input range"*.
//!
//! `ComputeSubMP` certifies only a *subset* of each length's profile (the
//! valid rows); this module fills in the rest. For every length after the
//! anchor, each row is resolved either from its partial profile (when the
//! `minDist ≤ maxLB` certificate holds — free) or by one MASS pass (an
//! `O(n log n)` recomputation that also re-anchors the row's partial
//! profile, tightening future lengths). The result is byte-for-byte the
//! STOMP profile of every length, usually far below `ℓ_range` full STOMP
//! runs of work — enabling the "more diverse applications" the paper lists
//! (per-length shapelet and discord analysis).

use valmod_data::error::Result;
use valmod_mp::distance::CorrStats;
use valmod_mp::distance_profile::{dp_from_qt_into, profile_min, self_qt};
use valmod_mp::exclusion::ExclusionPolicy;
use valmod_mp::matrix_profile::MatrixProfile;
use valmod_mp::ProfiledSeries;

use crate::compute_mp::{compute_matrix_profile, harvest_row};
use crate::profile::{update_dist_and_lb, EntryState};

/// Per-length cost accounting for [`complete_profiles`].
#[derive(Debug, Clone, Copy)]
pub struct CompletionStats {
    /// Subsequence length.
    pub l: usize,
    /// Rows served by the lower-bound certificate (no recomputation).
    pub certified_rows: usize,
    /// Rows recomputed with a MASS pass.
    pub recomputed_rows: usize,
}

/// Computes the **complete** matrix profile of every length in
/// `[l_min, l_max]`, exactly, sharing work across lengths through the
/// partial profiles. Returns one [`MatrixProfile`] per length plus the
/// per-length cost split.
pub fn complete_profiles(
    ps: &ProfiledSeries,
    l_min: usize,
    l_max: usize,
    p: usize,
    policy: ExclusionPolicy,
) -> Result<(Vec<MatrixProfile>, Vec<CompletionStats>)> {
    ps.require_pairs(l_max)?;
    let mut state = compute_matrix_profile(ps, l_min, p, policy)?;
    let mut profiles = Vec::with_capacity(l_max - l_min + 1);
    let mut stats = Vec::with_capacity(l_max - l_min + 1);
    stats.push(CompletionStats {
        l: l_min,
        certified_rows: 0,
        recomputed_rows: state.profile.len(),
    });
    profiles.push(state.profile.clone());

    let mut dp = Vec::new();
    for l in (l_min + 1)..=l_max {
        let ndp = ps.num_subsequences(l);
        let mut mp = vec![f64::INFINITY; ndp];
        let mut ip = vec![usize::MAX; ndp];
        let mut certified = 0usize;
        let mut recomputed = 0usize;
        let mut corr_stats: Option<CorrStats> = None;
        for j in 0..ndp {
            let prof = &mut state.partials[j];
            let sigma_new = ps.std(j, l);
            let from_l = prof.current_l;
            let max_lb = prof.max_lb_at(sigma_new);
            let mut min_dist = f64::INFINITY;
            let mut ind = usize::MAX;
            for e in prof.entries_mut() {
                if e.dist.is_infinite() {
                    continue;
                }
                if let EntryState::Valid { dist } = update_dist_and_lb(ps, e, j, from_l, l, &policy)
                {
                    if dist < min_dist {
                        min_dist = dist;
                        ind = e.neighbor;
                    }
                }
            }
            prof.current_l = l;
            if min_dist <= max_lb {
                // Certified: the stored minimum is the row's true minimum.
                mp[j] = min_dist;
                ip[j] = ind;
                certified += 1;
            } else {
                // Recompute this row and re-anchor its partial profile.
                let corr_stats = corr_stats.get_or_insert_with(|| CorrStats::new(ps, l, ndp));
                let qt = self_qt(ps, j, l);
                dp_from_qt_into(corr_stats, &qt, j, l, &policy, &mut dp);
                prof.reanchor(l, sigma_new);
                harvest_row(prof, corr_stats, &dp, &qt, j, l);
                if let Some((arg, d)) = profile_min(&dp) {
                    mp[j] = d;
                    ip[j] = arg;
                }
                recomputed += 1;
            }
        }
        profiles.push(MatrixProfile { l, mp, ip, exclusion_radius: policy.radius(l) });
        stats.push(CompletionStats { l, certified_rows: certified, recomputed_rows: recomputed });
    }
    Ok((profiles, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use valmod_data::datasets::{ecg_like, emg_like};
    use valmod_data::generators::random_walk;
    use valmod_mp::stomp::stomp;

    fn check_exact(series: &[f64], l_min: usize, l_max: usize, p: usize) {
        let ps = ProfiledSeries::from_values(series).unwrap();
        let (profiles, stats) =
            complete_profiles(&ps, l_min, l_max, p, ExclusionPolicy::HALF).unwrap();
        assert_eq!(profiles.len(), l_max - l_min + 1);
        assert_eq!(stats.len(), profiles.len());
        for prof in &profiles {
            let oracle = stomp(&ps, prof.l, ExclusionPolicy::HALF).unwrap();
            assert_eq!(prof.len(), oracle.len());
            for i in 0..prof.len() {
                if prof.mp[i].is_infinite() || oracle.mp[i].is_infinite() {
                    assert_eq!(prof.mp[i].is_infinite(), oracle.mp[i].is_infinite());
                } else {
                    assert!(
                        (prof.mp[i] - oracle.mp[i]).abs() < 1e-6,
                        "l={} row {}: {} vs {}",
                        prof.l,
                        i,
                        prof.mp[i],
                        oracle.mp[i]
                    );
                }
            }
        }
    }

    #[test]
    fn every_length_profile_matches_stomp_random_walk() {
        check_exact(&random_walk(260, 71), 16, 24, 4);
    }

    #[test]
    fn every_length_profile_matches_stomp_ecg() {
        check_exact(ecg_like(600, 5).values(), 32, 40, 6);
    }

    #[test]
    fn every_length_profile_matches_stomp_emg_worst_case() {
        // EMG defeats the bound; everything is recomputed — still exact.
        check_exact(emg_like(400, 5).values(), 24, 30, 4);
    }

    #[test]
    fn certification_saves_work_on_easy_data() {
        let ps = ProfiledSeries::from_values(ecg_like(1200, 9).values()).unwrap();
        let (_, stats) = complete_profiles(&ps, 48, 56, 8, ExclusionPolicy::HALF).unwrap();
        let certified: usize = stats[1..].iter().map(|s| s.certified_rows).sum();
        let recomputed: usize = stats[1..].iter().map(|s| s.recomputed_rows).sum();
        assert!(
            certified > recomputed / 4,
            "expected meaningful certification on ECG (certified {certified}, recomputed {recomputed})"
        );
    }
}
