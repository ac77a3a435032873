//! The per-length profile fragment cache behind the query planner.
//!
//! Where the result cache ([`crate::cache`]) stores *finished query
//! bodies* keyed by the whole request, this cache stores the reusable
//! intermediate: one [`LengthProfile`] per subsequence length, keyed by
//! `(series, version, anchor, ℓ, knobs)`. The **anchor** is the length at
//! which the producing segment computed its full matrix profile before
//! advancing via `ComputeSubMP` — a fragment is a pure function of that
//! tuple (see [`valmod_core::Valmod::run_lengths_on`]), so replaying it is
//! bit-identical to recomputing it, for any client and any query shape.
//!
//! `knobs` canonicalises the result-affecting per-length parameters (`p`
//! and the reduced exclusion policy); ranking parameters (`top`, `k`,
//! `radius`) are deliberately excluded, so a MOTIFS and a DISCORDS query
//! over the same range share fragments. Versioned keys make stale hits
//! structurally impossible, exactly as in the result cache.
//!
//! ## Incremental extension across appends
//!
//! An `APPEND` does **not** purge this cache. Fragments keyed by the old
//! version simply stop matching (their version is the staleness
//! watermark); they are garbage-collected lazily by
//! [`FragmentCache::invalidate_stale`] on the next planner touch. What
//! makes the old work *reusable* rather than merely dead is the second
//! kind of entry: each computed segment also parks its [`SegmentState`] — the
//! advance-ready capture of its anchor profile and top-`p` partials —
//! keyed by `(series, anchor, knobs)` **without** a version. On the next
//! query the planner takes the state, extends it over the appended tail
//! (`O(k·n)` instead of `O(n²)`), replays it, and re-inserts fragments
//! under the new version — bit-identical to a cold recompute, as
//! `valmod-check`'s extension oracle enforces. Only a `LOAD` (replace)
//! purges both kinds, because a replace rewrites history instead of
//! growing it. Fragments and parked states are entries of one
//! [`ByteLru`]: one byte budget, one clock, one eviction order.

use std::sync::Arc;

use valmod_core::{LengthProfile, SegmentState};

use crate::lru::{ByteLru, LruStats, Weigh};

/// Fragment key: series identity + data version + producing anchor +
/// length + canonical per-length knobs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FragmentKey {
    /// Series name.
    pub series: String,
    /// Series version the fragment was computed against.
    pub version: u64,
    /// Anchor length of the producing segment (where the full profile ran).
    pub anchor: usize,
    /// Subsequence length of this fragment.
    pub l: usize,
    /// Canonical per-length knobs, e.g. `p=50;excl=1/2`.
    pub knobs: String,
}

/// Key of a parked [`SegmentState`]: no version — the state is *advanced*
/// across versions (extended over appended samples) rather than invalidated
/// by them. Its internal sample count is the watermark that tells the
/// planner how far behind the series it is.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateKey {
    /// Series name.
    pub series: String,
    /// Anchor length of the captured segment.
    pub anchor: usize,
    /// Canonical per-length knobs, e.g. `p=50;excl=1/2`.
    pub knobs: String,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Fragment(FragmentKey),
    State(StateKey),
}

/// A key charges its series, its knobs and its fixed-width fields.
impl Weigh for Key {
    fn weigh(&self) -> usize {
        use std::mem::size_of;
        match self {
            Key::Fragment(k) => {
                k.series.len() + size_of::<u64>() + 2 * size_of::<usize>() + k.knobs.len()
            }
            Key::State(k) => k.series.len() + size_of::<usize>() + k.knobs.len(),
        }
    }
}

#[derive(Debug)]
enum Entry {
    Fragment(Arc<LengthProfile>),
    State(SegmentState),
}

/// A fragment charges the profile's heap footprint (the `mp`/`ip` vectors,
/// ~16 bytes per row); a parked state charges its anchor profile, top-`p`
/// partials and qt tail.
impl Weigh for Entry {
    fn weigh(&self) -> usize {
        match self {
            Entry::Fragment(f) => f.heap_bytes(),
            Entry::State(s) => s.heap_bytes(),
        }
    }
}

/// An LRU cache of per-length profile fragments and parked segment states,
/// bounded by approximate bytes.
#[derive(Debug)]
pub struct FragmentCache {
    lru: ByteLru<Key, Entry>,
    extended: u64,
}

impl FragmentCache {
    /// A cache bounded by `budget` bytes (0 disables fragment reuse — the
    /// planner then recomputes every segment, which is always correct).
    pub fn new(budget: usize) -> Self {
        FragmentCache { lru: ByteLru::new(budget), extended: 0 }
    }

    /// All-or-nothing lookup of one planned segment: the fragments for
    /// every length `anchor..=hi` under the same `(series, version,
    /// anchor, knobs)`. Returns `None` — counting one miss per absent
    /// length and touching nothing — unless **every** length is present,
    /// because a partially cached segment is recomputed whole from its
    /// anchor (the advance chain is only valid from the anchor's full
    /// profile).
    pub fn get_segment(
        &mut self,
        series: &str,
        version: u64,
        anchor: usize,
        hi: usize,
        knobs: &str,
    ) -> Option<Vec<Arc<LengthProfile>>> {
        let keys: Vec<Key> = (anchor..=hi)
            .map(|l| Key::Fragment(fragment_key(series, version, anchor, l, knobs)))
            .collect();
        let absent: Vec<&Key> = keys.iter().filter(|k| !self.lru.contains(k)).collect();
        if !absent.is_empty() {
            for key in absent {
                self.lru.get(key); // counts the miss
            }
            return None;
        }
        let fragment = |entry: Option<&Entry>| match entry {
            Some(Entry::Fragment(f)) => Arc::clone(f),
            _ => unreachable!("every length is present, and fragment keys hold fragments"),
        };
        Some(keys.iter().map(|key| fragment(self.lru.get(key))).collect())
    }

    /// Inserts one fragment, evicting least-recently-used entries until the
    /// budget holds; a fragment larger than the whole budget is not cached.
    pub fn insert(&mut self, key: FragmentKey, fragment: Arc<LengthProfile>) {
        self.lru.insert(Key::Fragment(key), Entry::Fragment(fragment));
    }

    /// Caches one computed segment — the fragments anchored at `anchor`
    /// under `(series, version, knobs)` — whole or not at all: a segment is
    /// only ever reused whole, so one whose bytes exceed the budget is
    /// served uncached and evicts nothing. Returns whether it was cached.
    pub fn insert_segment(
        &mut self,
        series: &str,
        version: u64,
        anchor: usize,
        knobs: &str,
        fragments: &[Arc<LengthProfile>],
    ) -> bool {
        let batch = fragments
            .iter()
            .map(|f| {
                let key = fragment_key(series, version, anchor, f.l, knobs);
                (Key::Fragment(key), Entry::Fragment(Arc::clone(f)))
            })
            .collect();
        self.lru.insert_all(batch)
    }

    /// Takes the parked segment state under `(series, anchor, knobs)` out
    /// of the cache, if any, transferring ownership (and its bytes) to the
    /// caller — the planner extends/replays it, then returns it via
    /// [`FragmentCache::put_state`]. Counts nothing.
    pub fn take_state(&mut self, series: &str, anchor: usize, knobs: &str) -> Option<SegmentState> {
        match self.lru.remove(&state_key(series, anchor, knobs))? {
            Entry::State(state) => Some(state),
            Entry::Fragment(_) => unreachable!("state keys hold states"),
        }
    }

    /// Parks a segment state for future extension. Replaces any previous
    /// state under the same key; a state larger than the whole budget is
    /// dropped together with its predecessor (the planner then recomputes,
    /// which is always correct).
    pub fn put_state(&mut self, series: &str, anchor: usize, knobs: &str, state: SegmentState) {
        self.lru.insert(state_key(series, anchor, knobs), Entry::State(state));
    }

    /// Notes one in-place extension (surfaced through `STATS`).
    pub fn note_extended(&mut self) {
        self.extended += 1;
    }

    /// Drops every fragment **and** parked state for `series`, any
    /// version. This is the replace/`LOAD` path: a replace rewrites the
    /// series' history, so nothing computed against it can be extended.
    /// Only the fragments count as invalidated.
    pub fn invalidate_series(&mut self, series: &str) {
        self.lru.retain(|k, _| !matches!(k, Key::Fragment(f) if f.series == series));
        let state_of_series = |k: &&Key| matches!(k, Key::State(s) if s.series == series);
        for key in self.lru.keys().filter(state_of_series).cloned().collect::<Vec<_>>() {
            self.lru.remove(&key); // uncounted, like `take_state`
        }
    }

    /// Garbage-collects fragments for `series` whose version watermark is
    /// behind `current_version` — the lazy-append path. Parked states are
    /// deliberately kept: they are what the stale fragments get *extended
    /// from*. Returns the number of fragments collected.
    pub fn invalidate_stale(&mut self, series: &str, current_version: u64) -> usize {
        self.lru.retain(|k, _| {
            !matches!(k, Key::Fragment(f) if f.series == series && f.version < current_version)
        })
    }

    /// Live fragment count (parked states not included).
    pub fn len(&self) -> usize {
        self.lru.len() - self.state_count()
    }

    /// Number of parked segment states.
    pub fn state_count(&self) -> usize {
        self.lru.keys().filter(|k| matches!(k, Key::State(_))).count()
    }

    /// Whether the cache holds neither fragments nor parked states.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Bytes currently accounted against the budget.
    pub fn used_bytes(&self) -> usize {
        self.lru.used_bytes()
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.lru.budget_bytes()
    }

    /// Accounting over fragments and parked states together, except
    /// `entries`, which counts fragments only. Evictions count both kinds;
    /// `invalidated` counts fragments only — eagerly purged on replace,
    /// lazily collected (old versions, on the next planner touch) on append.
    pub fn stats(&self) -> LruStats {
        LruStats { entries: self.len(), ..self.lru.stats() }
    }

    /// Parked segment states extended in place over appended samples
    /// instead of recomputing the segment from scratch.
    pub fn extended(&self) -> u64 {
        self.extended
    }
}

fn fragment_key(series: &str, version: u64, anchor: usize, l: usize, knobs: &str) -> FragmentKey {
    FragmentKey { series: series.into(), version, anchor, l, knobs: knobs.into() }
}

fn state_key(series: &str, anchor: usize, knobs: &str) -> Key {
    Key::State(StateKey { series: series.into(), anchor, knobs: knobs.into() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use valmod_core::{LengthMethod, Valmod};
    use valmod_data::generators::random_walk;
    use valmod_mp::ProfiledSeries;
    use valmod_obs::SharedRecorder;

    fn fragment(l: usize, rows: usize) -> Arc<LengthProfile> {
        Arc::new(LengthProfile {
            l,
            mp: vec![1.0; rows],
            ip: vec![0; rows],
            method: LengthMethod::FullProfile,
            motif: None,
            known_entries: rows,
            valid_rows: rows,
            nonvalid_rows: 0,
            recomputed_rows: 0,
        })
    }

    fn key(series: &str, version: u64, anchor: usize, l: usize) -> FragmentKey {
        fragment_key(series, version, anchor, l, "p=8;excl=1/2")
    }

    fn entry_bytes(key: &FragmentKey, fragment: &LengthProfile) -> usize {
        Key::Fragment(key.clone()).weigh() + fragment.heap_bytes()
    }

    fn state_bytes(key: &StateKey, state: &SegmentState) -> usize {
        Key::State(key.clone()).weigh() + state.heap_bytes()
    }

    fn fill_segment(cache: &mut FragmentCache, anchor: usize, hi: usize) {
        for l in anchor..=hi {
            cache.insert(key("s", 1, anchor, l), fragment(l, 32));
        }
    }

    #[test]
    fn segment_lookup_is_all_or_nothing() {
        let mut cache = FragmentCache::new(1 << 20);
        fill_segment(&mut cache, 16, 20);
        let seg = cache.get_segment("s", 1, 16, 20, "p=8;excl=1/2").unwrap();
        assert_eq!(seg.len(), 5);
        assert_eq!(seg[0].l, 16);
        assert_eq!(seg[4].l, 20);
        // One length short of the asked range: the whole lookup misses.
        assert!(cache.get_segment("s", 1, 16, 21, "p=8;excl=1/2").is_none());
        let s = cache.stats();
        assert_eq!(s.hits, 5);
        assert_eq!(s.misses, 1, "only the absent length counts as a miss");
    }

    #[test]
    fn keys_split_on_version_anchor_and_knobs() {
        let mut cache = FragmentCache::new(1 << 20);
        fill_segment(&mut cache, 16, 18);
        assert!(cache.get_segment("s", 2, 16, 18, "p=8;excl=1/2").is_none());
        assert!(cache.get_segment("s", 1, 17, 18, "p=8;excl=1/2").is_none());
        assert!(cache.get_segment("s", 1, 16, 18, "p=50;excl=1/2").is_none());
        assert!(cache.get_segment("s", 1, 16, 18, "p=8;excl=1/2").is_some());
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let one = entry_bytes(&key("s", 1, 16, 16), &fragment(16, 32));
        let mut cache = FragmentCache::new(2 * one + 8);
        cache.insert(key("s", 1, 16, 16), fragment(16, 32));
        cache.insert(key("s", 1, 16, 17), fragment(17, 32));
        // Refresh 16, insert a third: 17 is the LRU.
        assert!(cache.get_segment("s", 1, 16, 16, "p=8;excl=1/2").is_some());
        cache.insert(key("s", 1, 16, 18), fragment(18, 32));
        assert!(cache.get_segment("s", 1, 17, 17, "p=8;excl=1/2").is_none());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.used_bytes() <= cache.budget_bytes());
    }

    /// A real advance-ready state over the first `n` samples of a fixed
    /// 240-sample walk, so tests can grow the series afterwards in the
    /// state's pinned frame.
    fn captured_state(n: usize, anchor: usize) -> (SegmentState, Vec<f64>) {
        let series = random_walk(240, 3);
        let ps = ProfiledSeries::from_values(&series[..n]).unwrap();
        let (_, state) =
            Valmod::new(anchor, anchor + 2).run_lengths_capturing(&ps, anchor, anchor + 2).unwrap();
        (state.expect("single-threaded runs capture"), series)
    }

    #[test]
    fn parked_states_round_trip_with_exact_accounting() {
        let mut cache = FragmentCache::new(1 << 20);
        let (state, _) = captured_state(80, 8);
        let skey = StateKey { series: "s".into(), anchor: 8, knobs: "p=50;excl=1/2".into() };
        let bytes = state_bytes(&skey, &state);
        cache.put_state("s", 8, "p=50;excl=1/2", state);
        assert_eq!(cache.state_count(), 1);
        assert_eq!(cache.used_bytes(), bytes);

        let taken = cache.take_state("s", 8, "p=50;excl=1/2").expect("parked above");
        assert_eq!(cache.used_bytes(), 0, "take transfers the bytes to the caller");
        assert!(cache.take_state("s", 8, "p=50;excl=1/2").is_none());
        assert_eq!(taken.anchor(), 8);
        assert_eq!(taken.n(), 80);
    }

    #[test]
    fn extending_a_state_changes_its_bytes_and_accounting_follows() {
        let mut cache = FragmentCache::new(1 << 20);
        let (state, series) = captured_state(80, 8);
        let offset = {
            let ps = ProfiledSeries::from_values(&series[..80]).unwrap();
            ps.offset()
        };
        cache.put_state("s", 8, "p=50;excl=1/2", state);
        let before = cache.used_bytes();

        let mut state = cache.take_state("s", 8, "p=50;excl=1/2").unwrap();
        let grown = ProfiledSeries::with_offset(&series[..140], offset).unwrap();
        state.extend(&grown, &SharedRecorder::noop()).unwrap();
        let skey = StateKey { series: "s".into(), anchor: 8, knobs: "p=50;excl=1/2".into() };
        let grown_bytes = state_bytes(&skey, &state);
        cache.put_state("s", 8, "p=50;excl=1/2", state);
        cache.note_extended();

        assert!(cache.used_bytes() > before, "an extended state must charge its grown size");
        assert_eq!(cache.used_bytes(), grown_bytes);
        assert_eq!(cache.extended(), 1);
    }

    #[test]
    fn append_staleness_is_collected_lazily_but_states_survive() {
        let mut cache = FragmentCache::new(1 << 20);
        fill_segment(&mut cache, 16, 18); // version 1 fragments
        cache.insert(key("s", 2, 16, 16), fragment(16, 32));
        let (state, _) = captured_state(80, 8);
        cache.put_state("s", 8, "p=8;excl=1/2", state);

        let collected = cache.invalidate_stale("s", 2);
        assert_eq!(collected, 3, "only the version-1 fragments are behind the watermark");
        assert_eq!(cache.len(), 1, "the current-version fragment survives");
        assert_eq!(cache.state_count(), 1, "states are what stale fragments extend from");
        assert_eq!(cache.stats().invalidated, 3);
        assert_eq!(cache.invalidate_stale("s", 2), 0, "idempotent at the same watermark");

        // A replace purges states too: nothing survives a rewritten history.
        cache.invalidate_series("s");
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
        assert_eq!(cache.stats().invalidated, 4, "the dropped state is not counted");
    }

    #[test]
    fn oversized_and_zero_budget_states_are_rejected_cleanly() {
        let (state, _) = captured_state(80, 8);
        let mut cache = FragmentCache::new(0);
        cache.put_state("s", 8, "p=50;excl=1/2", state.clone());
        assert!(cache.is_empty(), "zero budget disables state parking");
        assert_eq!(cache.used_bytes(), 0);

        // A budget smaller than the state: parking is refused, and the
        // refusal also drops any stale previous state under the key rather
        // than leaving it to be served later.
        let skey = StateKey { series: "s".into(), anchor: 8, knobs: "p=50;excl=1/2".into() };
        let mut cache = FragmentCache::new(state_bytes(&skey, &state) + 64);
        cache.put_state("s", 8, "p=50;excl=1/2", state.clone());
        assert_eq!(cache.state_count(), 1);
        let (bigger, _) = captured_state(200, 8);
        cache.put_state("s", 8, "p=50;excl=1/2", bigger);
        assert!(cache.is_empty(), "oversized replacement drops the stale state too");
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn fragments_and_states_compete_under_one_lru_clock() {
        let (state, _) = captured_state(80, 8);
        let skey = StateKey { series: "s".into(), anchor: 8, knobs: "p=8;excl=1/2".into() };
        let sbytes = state_bytes(&skey, &state);
        let fbytes = entry_bytes(&key("s", 1, 16, 16), &fragment(16, 32));
        // Room for the state plus one fragment, not two.
        let mut cache = FragmentCache::new(sbytes + fbytes + fbytes / 2);
        cache.put_state("s", 8, "p=8;excl=1/2", state);
        cache.insert(key("s", 1, 16, 16), fragment(16, 32));
        assert_eq!(cache.stats().evictions, 0);
        // The state is the LRU; a second fragment evicts it, not fragment 16.
        cache.insert(key("s", 1, 16, 17), fragment(17, 32));
        assert_eq!(cache.state_count(), 0, "oldest entry goes first, whichever kind it is");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.used_bytes() <= cache.budget_bytes());
    }

    #[test]
    fn invalidation_and_zero_budget() {
        let mut cache = FragmentCache::new(0);
        cache.insert(key("s", 1, 16, 16), fragment(16, 8));
        assert!(cache.is_empty(), "zero budget disables fragment reuse");
        let mut cache = FragmentCache::new(1 << 20);
        fill_segment(&mut cache, 16, 18);
        cache.insert(key("t", 1, 16, 16), fragment(16, 8));
        cache.invalidate_series("s");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().invalidated, 3);
        assert_eq!(
            cache.used_bytes(),
            entry_bytes(&key("t", 1, 16, 16), &fragment(16, 8)),
            "accounting survives invalidation"
        );
    }
}
