//! The named, versioned, **striped** series store.
//!
//! Each stored series carries a **version** that increments on every
//! append; result-cache keys embed the version, so a query result can
//! never be served against data it was not computed from. The counter is
//! **monotonic across replaces**: reloading a series under an existing
//! name continues from the previous version rather than resetting to 1,
//! so a cache entry keyed by an old generation can never alias a key from
//! the new one. Batch state (the [`ProfiledSeries`] with its O(1) rolling
//! statistics) is rebuilt lazily — at most once per version — while
//! **hot lengths** keep a [`StreamingProfile`] live across appends at
//! `O(n)` per point, so a fixed-length motif monitor never pays a batch
//! recomputation.
//!
//! ## Sharding
//!
//! The store is a hand-rolled striped map: series names hash into
//! [`stripe_of`] buckets, each bucket holding its own
//! `RwLock<HashMap<name, Arc<SeriesSlot>>>`, and every slot wraps its
//! [`StoredSeries`] in a **per-series** `RwLock`. Operations on different
//! series therefore never contend on a common lock — an APPEND on series
//! A cannot block a query on series B — and every method takes `&self`,
//! so the engine holds no outer lock at all. Lock order is strictly
//! stripe map → series lock; nothing is ever acquired in the other
//! direction.
//!
//! A slot additionally mirrors its `(version, len)` into atomics
//! (maintained by the store-level `load`/`append` paths), so `STATS` and
//! query admission read them without touching any series lock — a slow
//! append never stops the world.
//!
//! A replace must not race an in-flight append into a version collision:
//! the new generation's version is derived while holding the **old**
//! generation's write lock, the old slot is marked *retired* under that
//! same lock, and appenders re-check the flag after acquiring their write
//! lock — an appender that lost the race retries its lookup and lands on
//! the new generation.
//!
//! A store opened with [`SeriesStore::open`] is **durable**: loads and
//! WAL-compaction points write checksummed snapshots, every append batch
//! is logged (and fsynced) to a per-series WAL *before* it is applied in
//! memory, and reopening the same directory replays the log over the
//! latest snapshot — see [`crate::persist`] for formats and the
//! truncation policy. All persistence calls happen under the owning
//! series' write lock, which preserves the WAL-before-apply ordering
//! per series exactly as the single-lock store did.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use valmod_data::stats::neumaier_sum;
use valmod_mp::{ExclusionPolicy, ProfiledSeries, StreamingProfile};
use valmod_obs::SharedRecorder;

use crate::error::{ServeError, ServeResult};
use crate::persist::{FaultHook, Persistence, SnapshotMeta};

/// Default stripe count for stores built without an explicit choice.
pub const DEFAULT_STRIPES: usize = 8;

/// The stripe a series name hashes into (FNV-1a over the name). Public so
/// the engine's per-stripe caches and the tests agree with the store on
/// placement.
pub fn stripe_of(name: &str, stripes: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % stripes.max(1) as u64) as usize
}

/// One named series with its versioned derived state.
#[derive(Debug)]
pub struct StoredSeries {
    values: Vec<f64>,
    version: u64,
    /// Policy the hot profiles were seeded with (recorded in snapshots).
    policy: ExclusionPolicy,
    /// Centring offset **pinned at load time** (the mean of the loaded
    /// samples). Every batch view is built in this frame, so statistics and
    /// dot products over the original prefix stay bit-identical across
    /// appends — the property that makes incremental extension of cached
    /// fragments exact. Persisted in snapshots; a replace re-derives it.
    base_offset: f64,
    /// Lazily (re)built batch view; `None` whenever `values` has changed
    /// since the last build. `Arc` so workers can compute without holding
    /// the store lock.
    profiled: Option<Arc<ProfiledSeries>>,
    /// Live fixed-length profiles, extended incrementally on append.
    hot: HashMap<usize, StreamingProfile>,
    /// Set (under this series' write lock) when a replace supersedes this
    /// generation; an appender that acquires the write lock afterwards
    /// must retry its lookup instead of bumping a dead generation.
    retired: bool,
}

impl StoredSeries {
    fn new(
        values: Vec<f64>,
        hot_lengths: &[usize],
        policy: ExclusionPolicy,
        version: u64,
        base_offset: f64,
    ) -> ServeResult<Self> {
        validate_samples(&values, 0)?;
        let mut series = StoredSeries {
            values,
            version,
            policy,
            base_offset,
            profiled: None,
            hot: HashMap::new(),
            retired: false,
        };
        for &l in hot_lengths {
            series.track(l, policy)?;
        }
        Ok(series)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Current version (+1 per append batch; a replace continues the
    /// previous generation's counter instead of resetting).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether a replace has superseded this generation.
    pub fn retired(&self) -> bool {
        self.retired
    }

    /// The raw samples.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The exclusion policy hot profiles are seeded with.
    pub fn policy(&self) -> ExclusionPolicy {
        self.policy
    }

    /// The load-time centring offset every batch view is pinned to.
    pub fn base_offset(&self) -> f64 {
        self.base_offset
    }

    /// Registers a hot length: seeds a streaming profile from the current
    /// samples so subsequent appends keep it live.
    pub fn track(&mut self, l: usize, policy: ExclusionPolicy) -> ServeResult<()> {
        if self.hot.contains_key(&l) {
            return Ok(());
        }
        let sp = StreamingProfile::new(&self.values, l, policy)?;
        self.hot.insert(l, sp);
        Ok(())
    }

    /// The live profile at a hot length, if one is registered.
    pub fn hot_profile(&self, l: usize) -> Option<&StreamingProfile> {
        self.hot.get(&l)
    }

    /// The registered hot lengths, sorted.
    pub fn hot_lengths(&self) -> Vec<usize> {
        let mut ls: Vec<usize> = self.hot.keys().copied().collect();
        ls.sort_unstable();
        ls
    }

    /// Appends a batch of samples: bumps the version, extends every hot
    /// profile incrementally, and invalidates the lazily-built batch view.
    /// All-or-nothing — a non-finite sample rejects the whole batch and
    /// leaves every piece of state untouched.
    pub fn append(&mut self, samples: &[f64]) -> ServeResult<u64> {
        if samples.is_empty() {
            return Err(ServeError::InvalidParameter("append requires at least one sample".into()));
        }
        validate_samples(samples, self.values.len())?;
        for sp in self.hot.values_mut() {
            sp.extend(samples)?;
        }
        self.values.extend_from_slice(samples);
        self.version += 1;
        self.profiled = None;
        Ok(self.version)
    }

    /// The batch view of the current version, building it if the series
    /// changed since the last call. Returns the version alongside the view,
    /// captured atomically — cache entries must be keyed by exactly this
    /// version.
    pub fn profiled(&mut self) -> ServeResult<(Arc<ProfiledSeries>, u64)> {
        if self.profiled.is_none() {
            self.profiled =
                Some(Arc::new(ProfiledSeries::with_offset(&self.values, self.base_offset)?));
        }
        Ok((Arc::clone(self.profiled.as_ref().expect("just built")), self.version))
    }

    fn snapshot_meta(&self) -> SnapshotMeta {
        SnapshotMeta {
            version: self.version,
            policy: self.policy,
            hot_lengths: self.hot_lengths(),
            base_offset: self.base_offset,
        }
    }
}

/// One map entry: the per-series lock plus lock-free `(version, len)`
/// mirrors so `STATS` and admission probes never wait behind a mutation.
/// The mirrors are maintained by [`SeriesStore::load`] /
/// [`SeriesStore::append`]; mutating the inner [`StoredSeries`] directly
/// bypasses them.
#[derive(Debug)]
pub struct SeriesSlot {
    series: RwLock<StoredSeries>,
    version: AtomicU64,
    len: AtomicUsize,
    /// Hot lengths are fixed at load time for a generation (a replace
    /// swaps the whole slot), so STATS reads them without a lock.
    hot_lengths: Vec<usize>,
}

impl SeriesSlot {
    fn new(series: StoredSeries) -> Self {
        SeriesSlot {
            version: AtomicU64::new(series.version()),
            len: AtomicUsize::new(series.len()),
            hot_lengths: series.hot_lengths(),
            series: RwLock::new(series),
        }
    }

    /// Shared access to the series (readers of values / hot profiles).
    pub fn read(&self) -> RwLockReadGuard<'_, StoredSeries> {
        self.series.read().expect("series lock")
    }

    /// Exclusive access to the series (append, batch-view build).
    pub fn write(&self) -> RwLockWriteGuard<'_, StoredSeries> {
        self.series.write().expect("series lock")
    }

    /// Lock-free version mirror (exact after any store-level mutation).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Lock-free length mirror.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the mirrored length is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The generation's hot lengths, sorted (fixed at load time).
    pub fn hot_lengths(&self) -> &[usize] {
        &self.hot_lengths
    }

    /// Publishes a mutation into the lock-free mirrors. Called under the
    /// series write lock, so mirror order matches version order.
    fn note_mutation(&self, version: u64, len: usize) {
        self.len.store(len, Ordering::Release);
        self.version.store(version, Ordering::Release);
    }
}

/// The centring offset a fresh load pins: the mean of the loaded samples,
/// computed exactly as `RollingStats::new` derives it, so a freshly loaded
/// series profiles bit-identically to the un-pinned batch path.
fn derive_offset(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        neumaier_sum(values.iter().copied()) / values.len() as f64
    }
}

fn validate_samples(samples: &[f64], base_index: usize) -> ServeResult<()> {
    if let Some(bad) = samples.iter().position(|v| !v.is_finite()) {
        return Err(ServeError::NonFinite { index: base_index + bad });
    }
    Ok(())
}

#[derive(Debug, Default)]
struct Stripe {
    map: RwLock<HashMap<String, Arc<SeriesSlot>>>,
}

/// All series held by one engine, addressed by name, sharded across
/// [`stripe_of`] buckets. Every method takes `&self`; mutual exclusion is
/// per series (plus a short stripe-map lock for lookups and replaces).
/// Optionally durable: see [`SeriesStore::open`].
#[derive(Debug)]
pub struct SeriesStore {
    stripes: Box<[Stripe]>,
    persist: Option<Persistence>,
    /// `(file, why)` entries from recovery that were skipped rather than
    /// loaded (corrupt snapshot, orphan WAL). Empty for in-memory stores.
    skipped: Vec<(String, String)>,
}

impl Default for SeriesStore {
    fn default() -> Self {
        SeriesStore::with_stripes(DEFAULT_STRIPES)
    }
}

fn make_stripes(stripes: usize) -> Box<[Stripe]> {
    (0..stripes.max(1)).map(|_| Stripe::default()).collect()
}

impl SeriesStore {
    /// An empty, in-memory (non-durable) store with [`DEFAULT_STRIPES`].
    pub fn new() -> Self {
        SeriesStore::default()
    }

    /// An empty, in-memory store with an explicit stripe count (≥ 1).
    pub fn with_stripes(stripes: usize) -> Self {
        SeriesStore { stripes: make_stripes(stripes), persist: None, skipped: Vec::new() }
    }

    /// Opens a durable store over `dir` with [`DEFAULT_STRIPES`]; see
    /// [`SeriesStore::open_with_stripes`].
    pub fn open(
        dir: impl AsRef<Path>,
        compact_bytes: u64,
        recorder: &SharedRecorder,
    ) -> ServeResult<Self> {
        SeriesStore::open_with_stripes(dir, compact_bytes, DEFAULT_STRIPES, recorder)
    }

    /// Opens a durable store over `dir`, recovering every series found
    /// there: latest snapshot + WAL replay, with torn or corrupt WAL tails
    /// truncated rather than fatal (see [`crate::persist`]). `recorder`
    /// receives the recovery counters (`serve.wal.replayed_batches`,
    /// `serve.recovery.truncated_tails`); pass
    /// [`SharedRecorder::noop()`] when not observing.
    pub fn open_with_stripes(
        dir: impl AsRef<Path>,
        compact_bytes: u64,
        stripes: usize,
        recorder: &SharedRecorder,
    ) -> ServeResult<Self> {
        let persist = Persistence::open(dir.as_ref(), compact_bytes)?;
        let recovery = persist.recover()?;
        let store = SeriesStore {
            stripes: make_stripes(stripes),
            persist: Some(persist),
            skipped: recovery.skipped,
        };
        for rec in recovery.series {
            recorder.add("serve.wal.replayed_batches", rec.replayed_batches);
            if rec.truncated_tail {
                recorder.add("serve.recovery.truncated_tails", 1);
            }
            let series = StoredSeries::new(
                rec.values,
                &rec.hot_lengths,
                rec.policy,
                rec.version,
                rec.base_offset,
            )?;
            let stripe = &store.stripes[store.stripe_index(&rec.name)];
            stripe
                .map
                .write()
                .expect("stripe lock")
                .insert(rec.name, Arc::new(SeriesSlot::new(series)));
        }
        Ok(store)
    }

    /// Installs an I/O fault hook on a durable store's persistence layer
    /// (see [`crate::persist::FaultHook`]); a no-op for in-memory stores.
    pub fn set_fault_hook(&mut self, hook: FaultHook) {
        if let Some(p) = self.persist.as_mut() {
            p.set_fault_hook(hook);
        }
    }

    /// Number of stripes in the table.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// The stripe `name` hashes into.
    pub fn stripe_index(&self, name: &str) -> usize {
        stripe_of(name, self.stripes.len())
    }

    /// Whether the store persists to disk.
    pub fn is_durable(&self) -> bool {
        self.persist.is_some()
    }

    /// The data directory, when durable.
    pub fn data_dir(&self) -> Option<&Path> {
        self.persist.as_ref().map(Persistence::dir)
    }

    /// Files recovery skipped as unrecoverable, as `(file, why)` pairs.
    pub fn recovery_skipped(&self) -> &[(String, String)] {
        &self.skipped
    }

    /// Loads a series under `name`. Fails with [`ServeError::SeriesExists`]
    /// unless `replace` is set. A replace **continues** the previous
    /// generation's version counter (old version + 1) — derived under the
    /// old generation's write lock, which is also where the old slot is
    /// retired, so a racing append can neither bump past the new version
    /// nor resurrect the dead generation. Durable stores write a fresh
    /// snapshot (and reset the WAL) before the swap becomes visible.
    /// Records `serve.snapshot.writes` on `recorder`. Returns
    /// `(version, len)`.
    pub fn load(
        &self,
        name: &str,
        values: Vec<f64>,
        hot_lengths: &[usize],
        policy: ExclusionPolicy,
        replace: bool,
        recorder: &SharedRecorder,
    ) -> ServeResult<(u64, usize)> {
        if name.is_empty() {
            return Err(ServeError::Protocol("series name must be non-empty".into()));
        }
        let stripe = &self.stripes[self.stripe_index(name)];
        let mut map = stripe.map.write().expect("stripe lock");
        let previous = map.get(name).cloned();
        if previous.is_some() && !replace {
            return Err(ServeError::SeriesExists(name.to_string()));
        }
        // Hold the old generation's write lock across the swap: its version
        // is the replace's baseline, and no append may land in between.
        let mut old_guard = previous.as_ref().map(|slot| slot.write());
        let version = old_guard.as_ref().map_or(1, |old| old.version() + 1);
        let base_offset = derive_offset(&values);
        let series = StoredSeries::new(values, hot_lengths, policy, version, base_offset)?;
        if let Some(p) = &self.persist {
            p.write_snapshot(name, &series.snapshot_meta(), series.values())?;
            recorder.add("serve.snapshot.writes", 1);
        }
        if let Some(old) = old_guard.as_mut() {
            old.retired = true;
        }
        let len = series.len();
        map.insert(name.to_string(), Arc::new(SeriesSlot::new(series)));
        Ok((version, len))
    }

    /// Appends a batch to the series under `name`, write-ahead logging it
    /// first when durable: the record is on disk (fsynced) before any
    /// in-memory state changes, so an acknowledged append survives a crash
    /// at any later point. The whole sequence runs under the **series'**
    /// write lock only — appends to other series proceed in parallel.
    /// A failed WAL write is rolled back (or the series fenced read-only,
    /// see [`Persistence::log_append`]) and reported without touching the
    /// series. Past the compaction threshold the WAL is folded into a fresh
    /// snapshot; a compaction failure does not fail the already-applied
    /// append. Records `serve.wal.appends`, `serve.snapshot.writes` and
    /// `serve.snapshot.failures` on `recorder`. Returns `(version, len)`.
    pub fn append(
        &self,
        name: &str,
        samples: &[f64],
        recorder: &SharedRecorder,
    ) -> ServeResult<(u64, usize)> {
        if samples.is_empty() {
            return Err(ServeError::InvalidParameter("append requires at least one sample".into()));
        }
        loop {
            let slot = self.get(name)?;
            let mut series = slot.write();
            if series.retired() {
                // A replace swapped the slot between lookup and lock; the
                // next lookup lands on the new generation.
                continue;
            }
            // Validate before logging so a rejected batch never reaches the WAL.
            validate_samples(samples, series.len())?;
            if let Some(p) = &self.persist {
                p.log_append(name, series.version() + 1, samples)?;
                recorder.add("serve.wal.appends", 1);
            }
            let version = series.append(samples)?;
            let len = series.len();
            slot.note_mutation(version, len);
            if let Some(p) = &self.persist {
                if p.wal_bytes(name) > p.compact_bytes() {
                    // The batch is durable in the WAL and applied, so it is
                    // acknowledged whatever compaction does; a failure only
                    // leaves the WAL long, and the next append past the
                    // threshold retries.
                    match p.write_snapshot(name, &series.snapshot_meta(), series.values()) {
                        Ok(()) => recorder.add("serve.snapshot.writes", 1),
                        Err(_) => recorder.add("serve.snapshot.failures", 1),
                    }
                }
            }
            return Ok((version, len));
        }
    }

    /// Snapshots every series to disk (and resets its WAL), bounding
    /// restart time. Each series is snapshotted under its own write lock —
    /// a per-series critical section, never a global pause. No-op
    /// returning 0 for in-memory stores; otherwise returns the number of
    /// snapshots written. Records `serve.snapshot.writes` on `recorder`.
    pub fn persist_all(&self, recorder: &SharedRecorder) -> ServeResult<usize> {
        let Some(p) = &self.persist else { return Ok(0) };
        let mut written = 0usize;
        for stripe in self.stripes.iter() {
            let slots: Vec<(String, Arc<SeriesSlot>)> = stripe
                .map
                .read()
                .expect("stripe lock")
                .iter()
                .map(|(k, v)| (k.clone(), Arc::clone(v)))
                .collect();
            for (name, slot) in slots {
                let series = slot.write();
                if series.retired() {
                    // Replaced since the listing; the new generation wrote
                    // its own snapshot at load time.
                    continue;
                }
                p.write_snapshot(&name, &series.snapshot_meta(), series.values())?;
                written += 1;
            }
        }
        recorder.add("serve.snapshot.writes", written as u64);
        Ok(written)
    }

    /// The slot under `name` (clone of the shared handle; lock its series
    /// via [`SeriesSlot::read`] / [`SeriesSlot::write`]).
    pub fn get(&self, name: &str) -> ServeResult<Arc<SeriesSlot>> {
        let stripe = &self.stripes[self.stripe_index(name)];
        stripe
            .map
            .read()
            .expect("stripe lock")
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownSeries(name.to_string()))
    }

    /// Number of stored series.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.map.read().expect("stripe lock").len()).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Names in sorted order (stable STATS output).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .stripes
            .iter()
            .flat_map(|s| s.map.read().expect("stripe lock").keys().cloned().collect::<Vec<_>>())
            .collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{Fault, IoStep};
    use std::sync::atomic::AtomicBool;
    use valmod_data::generators::random_walk;
    use valmod_mp::stomp::stomp;

    fn noop() -> SharedRecorder {
        SharedRecorder::noop()
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("valmod_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A fault hook that fails `step` with `fault` while the returned flag
    /// is set.
    fn armed_fault(step: IoStep, fault: Fault) -> (FaultHook, Arc<AtomicBool>) {
        let armed = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&armed);
        let hook: FaultHook =
            Arc::new(move |s, _| (s == step && flag.load(Ordering::SeqCst)).then_some(fault));
        (hook, armed)
    }

    #[test]
    fn compaction_failure_after_apply_still_acknowledges_the_append() {
        let dir = tmp_dir("compact_fail");
        let registry = valmod_obs::Registry::new();
        let rec = SharedRecorder::from(registry.clone());
        let values = random_walk(150, 3);
        {
            // Threshold 1 byte: every append crosses it and compacts.
            let mut store = SeriesStore::open(&dir, 1, &rec).unwrap();
            let (hook, armed) = armed_fault(IoStep::Snapshot, Fault { errno: 28, written: 0 });
            store.set_fault_hook(hook);
            store
                .load("a", values[..100].to_vec(), &[], ExclusionPolicy::HALF, false, &rec)
                .unwrap();
            armed.store(true, Ordering::SeqCst);
            let (v, len) = store.append("a", &values[100..120], &rec).unwrap();
            assert_eq!((v, len), (2, 120), "the applied append is acknowledged");
            let slot = store.get("a").unwrap();
            assert_eq!((slot.version(), slot.len()), (2, 120), "mirrors follow the apply");
            assert_eq!(registry.snapshot().counter("serve.snapshot.failures"), Some(1));
            assert!(store.persist.as_ref().unwrap().wal_bytes("a") > 0, "batch stays in the WAL");
            // The next crossing retries compaction, which now succeeds.
            armed.store(false, Ordering::SeqCst);
            store.append("a", &values[120..150], &rec).unwrap();
            assert_eq!(store.persist.as_ref().unwrap().wal_bytes("a"), 0);
        }
        let store = SeriesStore::open(&dir, 1, &noop()).unwrap();
        let slot = store.get("a").unwrap();
        let recovered = slot.read();
        assert_eq!(recovered.version(), 3);
        assert_eq!(recovered.values(), &values[..]);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unrecoverable_wal_rollback_fences_the_series_until_restart() {
        let dir = tmp_dir("wal_fence");
        let values = random_walk(140, 4);
        {
            let mut store = SeriesStore::open(&dir, u64::MAX, &noop()).unwrap();
            // A short write (disk full) whose rollback also fails.
            let armed = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&armed);
            store.set_fault_hook(Arc::new(move |step, _| match step {
                IoStep::WalWrite | IoStep::WalRollback if flag.load(Ordering::SeqCst) => {
                    Some(Fault { errno: 28, written: 13 })
                }
                _ => None,
            }));
            store
                .load("a", values[..100].to_vec(), &[], ExclusionPolicy::HALF, false, &noop())
                .unwrap();
            store.append("a", &values[100..110], &noop()).unwrap();
            armed.store(true, Ordering::SeqCst);
            assert!(store.append("a", &values[110..120], &noop()).is_err());
            armed.store(false, Ordering::SeqCst);
            // Fenced: nothing can be acknowledged behind the orphan bytes.
            let err = store.append("a", &values[110..120], &noop()).unwrap_err();
            assert!(err.to_string().contains("read-only"), "{err}");
            assert_eq!(store.get("a").unwrap().version(), 2);
            assert!(store.persist.as_ref().unwrap().is_fenced("a"));
        }
        // Restart: the torn orphan is truncated and the series writable.
        let store = SeriesStore::open(&dir, u64::MAX, &noop()).unwrap();
        assert_eq!(store.get("a").unwrap().read().values(), &values[..110]);
        let (v, len) = store.append("a", &values[110..140], &noop()).unwrap();
        assert_eq!((v, len), (3, 140));
        drop(store);
        let store = SeriesStore::open(&dir, u64::MAX, &noop()).unwrap();
        assert_eq!(store.get("a").unwrap().read().values(), &values[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_append_versions() {
        let store = SeriesStore::new();
        let values = random_walk(200, 5);
        store.load("a", values.clone(), &[], ExclusionPolicy::HALF, false, &noop()).unwrap();
        assert_eq!(store.get("a").unwrap().version(), 1);
        assert!(store
            .load("a", values.clone(), &[], ExclusionPolicy::HALF, false, &noop())
            .is_err());

        let (v, len) = store.append("a", &[1.0, 2.0], &noop()).unwrap();
        assert_eq!((v, len), (2, 202));
        assert_eq!(store.get("a").unwrap().len(), 202);
        assert!(store.get("missing").is_err());
        assert!(store.append("missing", &[1.0], &noop()).is_err());
    }

    #[test]
    fn replace_continues_the_version_counter() {
        // Regression: replace used to reset the version to 1, so a query
        // admitted against the old generation could insert a cache entry
        // under `(name, version=1, cfg)` that the new generation's first
        // version would then serve stale. The counter must be monotonic.
        let store = SeriesStore::new();
        store.load("a", random_walk(200, 5), &[], ExclusionPolicy::HALF, false, &noop()).unwrap();
        store.append("a", &[1.0], &noop()).unwrap();
        store.append("a", &[2.0], &noop()).unwrap();
        assert_eq!(store.get("a").unwrap().version(), 3);

        store.load("a", random_walk(150, 9), &[], ExclusionPolicy::HALF, true, &noop()).unwrap();
        assert_eq!(
            store.get("a").unwrap().version(),
            4,
            "replace must continue the version counter, not reset it"
        );
        // And every later generation stays ahead of anything seen before.
        store.load("a", random_walk(150, 2), &[], ExclusionPolicy::HALF, true, &noop()).unwrap();
        assert_eq!(store.get("a").unwrap().version(), 5);
    }

    #[test]
    fn replace_retires_the_old_generation() {
        let store = SeriesStore::new();
        store.load("a", random_walk(120, 5), &[], ExclusionPolicy::HALF, false, &noop()).unwrap();
        let old = store.get("a").unwrap();
        store.load("a", random_walk(90, 7), &[], ExclusionPolicy::HALF, true, &noop()).unwrap();
        assert!(old.read().retired(), "the replaced slot must be marked retired");
        assert!(!store.get("a").unwrap().read().retired());
        // An append through the store lands on the live generation even if
        // a stale handle is still around.
        let (v, _) = store.append("a", &[0.5], &noop()).unwrap();
        assert_eq!(v, 3);
        assert_eq!(old.read().version(), 1, "the dead generation never advances");
    }

    #[test]
    fn append_is_atomic_under_bad_input() {
        let store = SeriesStore::new();
        store.load("a", random_walk(120, 6), &[16], ExclusionPolicy::HALF, false, &noop()).unwrap();
        let err = store.append("a", &[1.0, f64::NAN], &noop()).unwrap_err();
        assert!(matches!(err, ServeError::NonFinite { index: 121 }));
        let slot = store.get("a").unwrap();
        let s = slot.read();
        assert_eq!(s.version(), 1);
        assert_eq!(s.len(), 120);
        assert_eq!(s.hot_profile(16).unwrap().len(), 120);
        drop(s);
        assert!(store.append("a", &[], &noop()).is_err());
        assert_eq!(store.get("a").unwrap().version(), 1);
    }

    #[test]
    fn hot_profile_tracks_appends_and_matches_batch() {
        let series = random_walk(300, 7);
        let store = SeriesStore::new();
        store
            .load("a", series[..200].to_vec(), &[20], ExclusionPolicy::HALF, false, &noop())
            .unwrap();
        store.append("a", &series[200..], &noop()).unwrap();

        let slot = store.get("a").unwrap();
        assert_eq!(slot.hot_lengths(), &[20]);
        let entry = slot.read();
        let hot = entry.hot_profile(20).unwrap().profile();
        let ps = ProfiledSeries::from_values(&series).unwrap();
        let batch = stomp(&ps, 20, ExclusionPolicy::HALF).unwrap();
        for i in 0..batch.len() {
            if batch.mp[i].is_finite() {
                assert!((hot.mp[i] - batch.mp[i]).abs() < 1e-6, "row {i}");
            }
        }
    }

    #[test]
    fn profiled_is_cached_per_version() {
        let store = SeriesStore::new();
        store.load("a", random_walk(150, 8), &[], ExclusionPolicy::HALF, false, &noop()).unwrap();
        let slot = store.get("a").unwrap();
        let mut s = slot.write();
        let (p1, v1) = s.profiled().unwrap();
        let (p2, v2) = s.profiled().unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!((v1, v2), (1, 1));
        s.append(&[0.5]).unwrap();
        let (p3, v3) = s.profiled().unwrap();
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(v3, 2);
        assert_eq!(p3.len(), 151);
    }

    #[test]
    fn slot_mirrors_track_store_level_mutations_lock_free() {
        let store = SeriesStore::new();
        store.load("a", random_walk(100, 3), &[], ExclusionPolicy::HALF, false, &noop()).unwrap();
        let slot = store.get("a").unwrap();
        assert_eq!((slot.version(), slot.len()), (1, 100));
        store.append("a", &[1.0, 2.0, 3.0], &noop()).unwrap();
        assert_eq!((slot.version(), slot.len()), (2, 103));
        // The mirrors agree with the locked truth.
        let s = slot.read();
        assert_eq!((s.version(), s.len()), (2, 103));
    }

    #[test]
    fn names_are_striped_but_listed_sorted() {
        let store = SeriesStore::with_stripes(4);
        for name in ["zeta", "alpha", "mid", "beta"] {
            store
                .load(name, random_walk(64, 1), &[], ExclusionPolicy::HALF, false, &noop())
                .unwrap();
        }
        assert_eq!(store.len(), 4);
        assert_eq!(store.names(), vec!["alpha", "beta", "mid", "zeta"]);
        for name in ["zeta", "alpha", "mid", "beta"] {
            assert!(store.stripe_index(name) < store.stripe_count());
            assert_eq!(store.stripe_index(name), stripe_of(name, 4));
        }
    }

    #[test]
    fn concurrent_appends_to_distinct_series_stay_isolated() {
        let store = Arc::new(SeriesStore::with_stripes(4));
        for name in ["a", "b", "c", "d"] {
            store
                .load(name, random_walk(50, 11), &[], ExclusionPolicy::HALF, false, &noop())
                .unwrap();
        }
        let handles: Vec<_> = ["a", "b", "c", "d"]
            .into_iter()
            .map(|name| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        store.append(name, &[i as f64], &noop()).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for name in ["a", "b", "c", "d"] {
            let slot = store.get(name).unwrap();
            assert_eq!(slot.version(), 51);
            assert_eq!(slot.len(), 100);
        }
    }

    #[test]
    fn durable_store_round_trips_bit_for_bit() {
        let dir = tmp_dir("roundtrip");
        let series = random_walk(256, 11);
        {
            let store = SeriesStore::open(&dir, 4 << 20, &noop()).unwrap();
            assert!(store.is_durable());
            assert!(store.is_empty());
            store
                .load("s", series[..200].to_vec(), &[16], ExclusionPolicy::HALF, false, &noop())
                .unwrap();
            store.append("s", &series[200..230], &noop()).unwrap();
            store.append("s", &series[230..], &noop()).unwrap();
        }
        let store = SeriesStore::open(&dir, 4 << 20, &noop()).unwrap();
        assert!(store.recovery_skipped().is_empty());
        let slot = store.get("s").unwrap();
        let s = slot.read();
        assert_eq!(s.version(), 3);
        assert_eq!(s.len(), series.len());
        for (a, b) in s.values().iter().zip(&series) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(s.hot_lengths(), vec![16]);
        assert_eq!(s.policy(), ExclusionPolicy::HALF);
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_replace_survives_restart_with_monotonic_version() {
        let dir = tmp_dir("replace");
        {
            let store = SeriesStore::open(&dir, 4 << 20, &noop()).unwrap();
            store
                .load("s", random_walk(128, 3), &[], ExclusionPolicy::HALF, false, &noop())
                .unwrap();
            store.append("s", &[1.0], &noop()).unwrap();
            store
                .load("s", random_walk(64, 4), &[], ExclusionPolicy::QUARTER, true, &noop())
                .unwrap();
        }
        let store = SeriesStore::open(&dir, 4 << 20, &noop()).unwrap();
        let slot = store.get("s").unwrap();
        let s = slot.read();
        assert_eq!(s.version(), 3, "recovered version continues past the replaced generation");
        assert_eq!(s.len(), 64);
        assert_eq!(s.policy(), ExclusionPolicy::QUARTER);
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_compaction_threshold_folds_wal_into_snapshots() {
        let dir = tmp_dir("compact");
        {
            // 1-byte threshold: every append compacts.
            let store = SeriesStore::open(&dir, 1, &noop()).unwrap();
            store
                .load("s", random_walk(150, 5), &[], ExclusionPolicy::HALF, false, &noop())
                .unwrap();
            for i in 0..5 {
                store.append("s", &[i as f64], &noop()).unwrap();
            }
        }
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            if entry.path().extension().is_some_and(|e| e == "wal") {
                assert_eq!(entry.metadata().unwrap().len(), 0, "WAL should be compacted away");
            }
        }
        let store = SeriesStore::open(&dir, 1, &noop()).unwrap();
        let slot = store.get("s").unwrap();
        assert_eq!(slot.read().version(), 6);
        assert_eq!(slot.read().len(), 155);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
