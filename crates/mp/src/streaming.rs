//! STAMPI-style streaming matrix profile: maintain the profile of a fixed
//! subsequence length as points are appended (Yeh et al., ICDM 2016, §IV —
//! the incremental variant of the matrix-profile family).
//!
//! Appending one point creates exactly one new subsequence; its dot products
//! against all existing subsequences follow from the *previous* newest row in
//! `O(1)` per column, so each append costs `O(n)` — no FFT needed after the
//! seed. The new row updates both the new offset's entry and, symmetrically,
//! every older offset whose nearest neighbour the newcomer beats.
//!
//! Note the well-known streaming caveat: older entries only ever *improve*
//! (distances are min-folded), which is exactly the semantics of the batch
//! profile over the grown series.

use std::collections::VecDeque;

use valmod_data::error::{DataError, Result};
use valmod_obs::{Recorder, SharedRecorder};

use crate::context::ProfiledSeries;
use crate::distance::{inv_std, CorrStats};
use crate::exclusion::ExclusionPolicy;
use crate::matrix_profile::MatrixProfile;
use crate::stomp::stomp;

/// A matrix profile maintained incrementally under appends.
#[derive(Debug, Clone)]
pub struct StreamingProfile {
    l: usize,
    policy: ExclusionPolicy,
    /// Centring offset fixed at construction (shift-invariance makes any
    /// constant valid; fixing it keeps appends O(n)).
    offset: f64,
    /// Centred samples.
    values: Vec<f64>,
    /// The last `l + 1` prefix sums of the centred samples / their
    /// squares: all the newest window's statistics need, since every
    /// older window's are already in `stats`.
    prefix: VecDeque<f64>,
    prefix_sq: VecDeque<f64>,
    /// Length of the constant run ending at the newest sample (saturating),
    /// for exact σ = 0 on constant windows — mirrors `RollingStats` so
    /// streamed and batch profiles classify flat subsequences identically.
    run: u32,
    /// Dot products of the newest subsequence against all others.
    last_qt: Vec<f64>,
    /// The retired dot-product row, recycled as the next append's buffer so
    /// steady-state appends allocate nothing.
    qt_scratch: Vec<f64>,
    /// Per-offset mean and reciprocal σ of every complete window. A
    /// window's statistics never change once it is complete, so each
    /// append computes one new entry and every cell reads two loads
    /// instead of a σ (sqrt) and two divisions.
    stats: CorrStats,
    mp: Vec<f64>,
    ip: Vec<usize>,
    /// Measurement sink; defaults to the no-op recorder.
    recorder: SharedRecorder,
}

impl StreamingProfile {
    /// Builds the initial profile from a seed series (batch STOMP), ready
    /// for appends.
    pub fn new(seed: &[f64], l: usize, policy: ExclusionPolicy) -> Result<Self> {
        let ps = ProfiledSeries::from_values(seed)?;
        let initial = stomp(&ps, l, policy)?;
        let centered = ps.centered();
        let mut stream = StreamingProfile {
            l,
            policy,
            offset: ps.offset(),
            values: Vec::with_capacity(centered.len()),
            prefix: VecDeque::from([0.0]),
            prefix_sq: VecDeque::from([0.0]),
            run: 0,
            last_qt: Vec::new(),
            qt_scratch: Vec::new(),
            stats: CorrStats::default(),
            mp: initial.mp,
            ip: initial.ip,
            recorder: SharedRecorder::noop(),
        };
        for &v in centered {
            stream.push_sample(v);
        }
        // Seed the newest-row dot products (the last subsequence vs all).
        let values = &stream.values;
        let last = values.len() - l;
        stream.last_qt = (0..=last)
            .map(|j| values[last..last + l].iter().zip(&values[j..j + l]).map(|(a, b)| a * b).sum())
            .collect();
        Ok(stream)
    }

    /// Pushes one centred sample and, once it completes a window, that
    /// window's mean and reciprocal σ, taken from the rolling prefix sums.
    fn push_sample(&mut self, v: f64) {
        let extends = self.values.last().is_some_and(|&prev| prev == v);
        self.run = if extends { self.run.saturating_add(1) } else { 1 };
        self.values.push(v);
        let back = |d: &VecDeque<f64>| *d.back().expect("prefix sums start at 0");
        let (s, q) = (back(&self.prefix) + v, back(&self.prefix_sq) + v * v);
        self.prefix.push_back(s);
        self.prefix_sq.push_back(q);
        let l = self.l;
        if self.prefix.len() > l + 1 {
            self.prefix.pop_front();
            self.prefix_sq.pop_front();
        }
        if self.values.len() < l {
            return;
        }
        // The newest window spans prefix sums front..=back.
        let inv = 1.0 / l as f64;
        let sum = s - self.prefix[0];
        let mean = sum / l as f64;
        let std = if self.run as usize >= l {
            0.0 // exactly constant window
        } else {
            let m = sum * inv;
            let ss = (q - self.prefix_sq[0]) * inv;
            (ss - m * m).max(0.0).sqrt()
        };
        self.stats.inv_stds.push(inv_std(std, mean));
        self.stats.means.push(mean);
    }

    /// Replaces the measurement sink. Each accepted [`append`](Self::append)
    /// then records its wall time into `mp.streaming.append_us` and counts
    /// `mp.streaming.appends`.
    pub fn with_recorder(mut self, recorder: SharedRecorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Current number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The fixed subsequence length this profile is maintained at.
    #[inline]
    pub fn subsequence_len(&self) -> usize {
        self.l
    }

    /// The exclusion policy fixed at construction.
    #[inline]
    pub fn policy(&self) -> ExclusionPolicy {
        self.policy
    }

    /// Whether the stream holds no samples (never true after `new`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Nearest-neighbour distance of the newest complete window (the value
    /// a live monitor thresholds on) — `None` before any window is complete
    /// or when every pair is excluded.
    pub fn newest_nn_dist(&self) -> Option<f64> {
        self.mp.last().copied().filter(|d| d.is_finite())
    }

    /// The current profile (same semantics as batch STOMP over all samples
    /// seen so far).
    pub fn profile(&self) -> MatrixProfile {
        MatrixProfile {
            l: self.l,
            mp: self.mp.clone(),
            ip: self.ip.clone(),
            exclusion_radius: self.policy.radius(self.l),
        }
    }

    /// Appends one sample, updating the profile in `O(n)`.
    pub fn append(&mut self, raw: f64) -> Result<()> {
        if !raw.is_finite() {
            return Err(DataError::NonFinite { index: self.values.len() });
        }
        let recorder = self.recorder.clone();
        let _span = valmod_obs::span!(&recorder, "mp.streaming.append_us");
        if recorder.enabled() {
            recorder.add("mp.streaming.appends", 1);
        }
        self.append_unchecked(raw);
        Ok(())
    }

    /// The `O(n)` profile update for one already-validated sample — shared
    /// by [`append`](Self::append) and [`extend`](Self::extend) so the two
    /// produce bit-identical profiles; instrumentation lives in the callers.
    fn append_unchecked(&mut self, raw: f64) {
        self.push_sample(raw - self.offset);

        let l = self.l;
        let n = self.values.len();
        let ndp = n - l + 1;
        let new = ndp - 1; // offset of the new subsequence
        let t = &self.values;
        // New row's dot products from the previous newest row:
        // ⟨T_new, T_j⟩ = ⟨T_{new−1}, T_{j−1}⟩ − t[new−1]t[j−1] + t[new+l−1]t[j+l−1].
        // The buffer is the row retired two appends ago (zero-allocation
        // steady state); every slot is overwritten below.
        let mut qt = std::mem::take(&mut self.qt_scratch);
        qt.clear();
        qt.resize(ndp, 0.0);
        for j in (1..ndp).rev() {
            qt[j] = self.last_qt[j - 1] - t[new - 1] * t[j - 1] + t[new + l - 1] * t[j + l - 1];
        }
        qt[0] = t[0..l].iter().zip(&t[new..new + l]).map(|(a, b)| a * b).sum();

        let mut best = f64::INFINITY;
        let mut arg = usize::MAX;
        self.mp.push(f64::INFINITY);
        self.ip.push(usize::MAX);
        // Older offsets outside the exclusion zone: j ∈ [0, new − radius].
        let end = (new + 1).saturating_sub(self.policy.radius(l).max(1));
        let (mp, ip) = (&mut self.mp, &mut self.ip);
        self.stats.visit_line(new, 0, &qt[..end], l, &mut |j, _qt, _q, d| {
            if d < best {
                best = d;
                arg = j;
            }
            // Symmetric fold into the older offset.
            if d < mp[j] {
                mp[j] = d;
                ip[j] = new;
            }
        });
        self.mp[new] = best;
        self.ip[new] = arg;
        self.qt_scratch = std::mem::replace(&mut self.last_qt, qt);
    }

    /// Appends a batch of samples, all-or-nothing: the batch is validated
    /// up front, so a non-finite sample rejects the whole call and leaves
    /// the profile exactly as it was (callers that mirror the stream into
    /// other state never desynchronise).
    ///
    /// The resulting profile is bit-identical to `k` individual
    /// [`append`](Self::append) calls, but the batch is instrumented as ONE
    /// unit: one `mp.streaming.extend_us` span and one
    /// `mp.streaming.batch_extends` count per call (plus `k` on
    /// `mp.streaming.appends`), so per-append observability cost does not
    /// scale with the batch size.
    pub fn extend(&mut self, samples: &[f64]) -> Result<()> {
        if let Some(bad) = samples.iter().position(|v| !v.is_finite()) {
            return Err(DataError::NonFinite { index: self.values.len() + bad });
        }
        if samples.is_empty() {
            return Ok(());
        }
        let recorder = self.recorder.clone();
        let _span = valmod_obs::span!(&recorder, "mp.streaming.extend_us");
        if recorder.enabled() {
            recorder.add("mp.streaming.batch_extends", 1);
            recorder.add("mp.streaming.appends", samples.len() as u64);
        }
        for &s in samples {
            self.append_unchecked(s);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valmod_data::generators::{plant_motif, random_walk};

    fn check_equals_batch(series: &[f64], seed_len: usize, l: usize) {
        let mut stream = StreamingProfile::new(&series[..seed_len], l, ExclusionPolicy::HALF)
            .expect("seed profile");
        stream.extend(&series[seed_len..]).unwrap();
        let streamed = stream.profile();

        // Batch oracle over the whole series. The streaming profile centres
        // by the *seed* mean, the batch by the full mean — distances are
        // shift-invariant, so they must agree.
        let ps = ProfiledSeries::from_values(series).unwrap();
        let batch = stomp(&ps, l, ExclusionPolicy::HALF).unwrap();
        assert_eq!(streamed.len(), batch.len());
        for i in 0..batch.len() {
            if streamed.mp[i].is_infinite() || batch.mp[i].is_infinite() {
                assert_eq!(streamed.mp[i].is_infinite(), batch.mp[i].is_infinite(), "row {i}");
            } else {
                assert!(
                    (streamed.mp[i] - batch.mp[i]).abs() < 1e-6,
                    "row {i}: streamed {} vs batch {}",
                    streamed.mp[i],
                    batch.mp[i]
                );
            }
        }
    }

    #[test]
    fn streaming_equals_batch_on_random_walk() {
        let series = random_walk(300, 77);
        check_equals_batch(&series, 120, 16);
    }

    #[test]
    fn streaming_equals_batch_point_by_point() {
        let series = random_walk(150, 79);
        check_equals_batch(&series, 40, 10);
    }

    #[test]
    fn streaming_detects_a_late_motif() {
        // Plant a motif whose second occurrence arrives only via appends.
        let (series, planted) = plant_motif(1200, 40, 2, 0.001, 81);
        let cut = planted.offsets[1].saturating_sub(10);
        let mut stream =
            StreamingProfile::new(&series[..cut.max(100)], 40, ExclusionPolicy::HALF).unwrap();
        stream.extend(&series[cut.max(100)..]).unwrap();
        let profile = stream.profile();
        let (a, b, d) = profile.motif_pair().unwrap();
        assert!(d < 1.0, "planted motif distance {d}");
        let mut got = [a, b];
        got.sort_unstable();
        assert!(got[0].abs_diff(planted.offsets[0]) <= 2);
        assert!(got[1].abs_diff(planted.offsets[1]) <= 2);
    }

    #[test]
    fn append_rejects_non_finite() {
        let series = random_walk(100, 83);
        let mut stream = StreamingProfile::new(&series, 10, ExclusionPolicy::HALF).unwrap();
        assert!(stream.append(f64::NAN).is_err());
        assert!(stream.append(1.5).is_ok());
    }

    #[test]
    fn recorder_sees_appends_and_batches() {
        let reg = valmod_obs::Registry::new();
        let series = random_walk(100, 87);
        let mut stream = StreamingProfile::new(&series, 10, ExclusionPolicy::HALF)
            .unwrap()
            .with_recorder(SharedRecorder::from(reg.clone()));
        stream.extend(&[0.5, 1.5, -0.5]).unwrap();
        assert!(stream.append(f64::NAN).is_err());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("mp.streaming.appends"), Some(3), "rejected appends not counted");
        assert_eq!(snap.counter("mp.streaming.batch_extends"), Some(1));
        // One span per *batch*, not per sample — per-append observability
        // cost must not scale with the batch size.
        assert_eq!(snap.histogram("mp.streaming.extend_us").unwrap().count, 1);
        assert_eq!(snap.histogram("mp.streaming.append_us").map(|h| h.count).unwrap_or(0), 0);

        stream.append(2.5).unwrap();
        stream.extend(&[]).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("mp.streaming.appends"), Some(4));
        assert_eq!(snap.counter("mp.streaming.batch_extends"), Some(1), "empty batch not counted");
        assert_eq!(snap.histogram("mp.streaming.append_us").unwrap().count, 1);
        assert_eq!(snap.histogram("mp.streaming.extend_us").unwrap().count, 1);
    }

    #[test]
    fn batched_extend_is_bit_identical_to_per_sample_appends() {
        let series = random_walk(220, 91);
        let mut batched = StreamingProfile::new(&series[..140], 12, ExclusionPolicy::HALF).unwrap();
        let mut one_by_one = batched.clone();
        batched.extend(&series[140..]).unwrap();
        for &s in &series[140..] {
            one_by_one.append(s).unwrap();
        }
        let (a, b) = (batched.profile(), one_by_one.profile());
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.mp[i].to_bits(), b.mp[i].to_bits(), "row {i}");
            assert_eq!(a.ip[i], b.ip[i], "row {i}");
        }
    }

    #[test]
    fn extend_is_all_or_nothing() {
        let series = random_walk(100, 85);
        let mut stream = StreamingProfile::new(&series, 10, ExclusionPolicy::HALF).unwrap();
        let before = stream.len();
        let err = stream.extend(&[1.0, 2.0, f64::INFINITY, 3.0]).unwrap_err();
        assert!(matches!(err, DataError::NonFinite { index } if index == before + 2));
        assert_eq!(stream.len(), before, "a rejected batch must not apply partially");
        stream.extend(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(stream.len(), before + 3);
        assert_eq!(stream.subsequence_len(), 10);
        assert_eq!(stream.policy(), ExclusionPolicy::HALF);
    }
}
