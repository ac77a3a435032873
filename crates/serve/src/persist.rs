//! Durable storage for the series store: per-series snapshots + WAL.
//!
//! Each named series persists as two files inside the data directory,
//! keyed by the hex encoding of the series name (so arbitrary names never
//! escape into filesystem syntax):
//!
//! * `<hex>.snap` — a checksummed **snapshot** of the whole series
//!   (format version, series version, exclusion policy, hot lengths,
//!   samples), written via temp-file + atomic rename so a reader only
//!   ever observes a complete old or complete new snapshot;
//! * `<hex>.wal` — an **append-only write-ahead log** of `APPEND`
//!   batches. A batch is logged (and fsynced) *before* it is applied in
//!   memory, so any batch the client saw acknowledged survives a crash.
//!
//! ## Record layouts (all integers little-endian)
//!
//! ```text
//! snapshot := magic "VMSNAP1\n" | fmt u32 (=2) | series_version u64
//!           | policy_num u32 | policy_den u32
//!           | base_offset f64
//!           | hot_count u32 | hot_length u64 × hot_count
//!           | sample_count u64 | sample f64 × sample_count
//!           | fnv1a64(everything above) u64
//! ```
//!
//! Format 1 snapshots (no `base_offset` field) are still decoded; their
//! centring offset is re-derived as the mean of the snapshot samples,
//! which is exactly what a format-1 build computed on every rebuild.
//!
//! ```text
//!
//! wal      := record*
//! record   := magic "VWAL" | post_apply_version u64 | sample_count u32
//!           | sample f64 × sample_count
//!           | fnv1a64(record bytes above) u64
//! ```
//!
//! ## Recovery ordering and truncation policy
//!
//! [`Persistence::recover`] reads the snapshot, then replays WAL records
//! in file order. A record whose version is ≤ the snapshot version is
//! *stale* (left over from a crash between a replace's snapshot write and
//! its WAL reset) and is skipped; a record whose version is exactly the
//! next expected version is applied. Anything else — a bad magic, a
//! record extending past end-of-file (torn tail), a checksum mismatch, or
//! a version gap — marks the end of the usable prefix: the file is
//! **physically truncated** there rather than reported as an error, so a
//! crash mid-write never bricks the store. Only fully-synced batches were
//! ever acknowledged, and those always live in the usable prefix.
//!
//! Once a WAL grows past the compaction threshold the store folds it into
//! a fresh snapshot and truncates the log, bounding restart time.

use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use valmod_data::io::codec::{put_f64, put_u32, put_u64, ByteCursor};
use valmod_data::io::{fnv1a64, write_atomic};
use valmod_mp::ExclusionPolicy;

use crate::error::{ServeError, ServeResult};

/// Leading bytes of a snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"VMSNAP1\n";

/// Snapshot format version this build writes. Format 1 (which lacked the
/// pinned centring offset) is still decoded — see the module docs.
pub const SNAPSHOT_FORMAT: u32 = 2;

/// Leading bytes of every WAL record.
pub const WAL_RECORD_MAGIC: &[u8; 4] = b"VWAL";

/// Default WAL size past which an append triggers compaction into a fresh
/// snapshot (4 MiB — a few hundred thousand samples of log).
pub const DEFAULT_WAL_COMPACT_BYTES: u64 = 4 << 20;

/// Everything a snapshot stores about a series besides its samples.
#[derive(Debug, Clone)]
pub struct SnapshotMeta {
    /// Series version counter at snapshot time.
    pub version: u64,
    /// Exclusion policy the series' hot profiles were seeded with.
    pub policy: ExclusionPolicy,
    /// Hot lengths to re-seed streaming profiles at on recovery.
    pub hot_lengths: Vec<usize>,
    /// Centring offset the series' batch views are pinned to (the mean of
    /// the samples at load time). Persisting it keeps extended fragments
    /// bit-identical across restarts.
    pub base_offset: f64,
}

/// One series reconstructed by [`Persistence::recover`].
#[derive(Debug, Clone)]
pub struct RecoveredSeries {
    /// The series name (decoded from the file stem).
    pub name: String,
    /// Samples: snapshot samples plus every replayed WAL batch.
    pub values: Vec<f64>,
    /// Version after replay (snapshot version + replayed batches).
    pub version: u64,
    /// Exclusion policy for re-seeding hot profiles.
    pub policy: ExclusionPolicy,
    /// Hot lengths to re-seed.
    pub hot_lengths: Vec<usize>,
    /// Pinned centring offset recovered from the snapshot (or re-derived
    /// from its samples for format-1 snapshots).
    pub base_offset: f64,
    /// WAL batches replayed on top of the snapshot.
    pub replayed_batches: u64,
    /// Whether a torn/corrupt WAL tail was truncated during recovery.
    pub truncated_tail: bool,
}

/// Outcome of scanning a data directory on startup.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Series successfully reconstructed, sorted by name.
    pub series: Vec<RecoveredSeries>,
    /// `(file, why)` for files that could not be recovered (corrupt
    /// snapshot, orphan WAL, undecodable name). The store skips these
    /// rather than refusing to start.
    pub skipped: Vec<(String, String)>,
}

/// An I/O step of the persistence layer that a [`FaultHook`] can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoStep {
    /// Writing an APPEND batch record to the WAL.
    WalWrite,
    /// Fsyncing the WAL after that write.
    WalSync,
    /// Truncating the WAL back to its pre-write length (and fsyncing it)
    /// after a failed write or fsync.
    WalRollback,
    /// Writing a snapshot (LOAD, SAVE or WAL compaction).
    Snapshot,
}

/// An injected I/O failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The OS error code the failing call reports (e.g. 28 = `ENOSPC`,
    /// 5 = `EIO` on Linux).
    pub errno: i32,
    /// For [`IoStep::WalWrite`]: how many bytes of the record reach the
    /// file before the write fails — a short write. Other steps ignore it.
    pub written: usize,
}

impl Fault {
    fn error(&self) -> std::io::Error {
        std::io::Error::from_raw_os_error(self.errno)
    }
}

/// Decides, for an I/O step on the named series, whether that step fails
/// and how. Installed with
/// [`SeriesStore::set_fault_hook`](crate::store::SeriesStore::set_fault_hook); the recovery
/// oracle and the store tests use it to inject disk-full and fsync errors.
pub type FaultHook = Arc<dyn Fn(IoStep, &str) -> Option<Fault> + Send + Sync>;

/// Handle on one data directory; owns path layout and file formats.
pub struct Persistence {
    dir: PathBuf,
    compact_bytes: u64,
    fault_hook: Option<FaultHook>,
    /// Series whose WAL holds bytes of a failed append that could not be
    /// rolled back. Their appends are refused until a snapshot resets the
    /// WAL or the process restarts (recovery then drops a torn orphan).
    fenced: Mutex<HashSet<String>>,
}

impl std::fmt::Debug for Persistence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Persistence")
            .field("dir", &self.dir)
            .field("compact_bytes", &self.compact_bytes)
            .field("fault_hook", &self.fault_hook.is_some())
            .field("fenced", &self.fenced)
            .finish()
    }
}

impl Persistence {
    /// Opens (creating if needed) a data directory.
    pub fn open(dir: impl Into<PathBuf>, compact_bytes: u64) -> ServeResult<Persistence> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Persistence {
            dir,
            compact_bytes: compact_bytes.max(1),
            fault_hook: None,
            fenced: Mutex::new(HashSet::new()),
        })
    }

    /// Installs a hook that can fail individual I/O steps (fault
    /// injection for tests and the recovery oracle).
    pub(crate) fn set_fault_hook(&mut self, hook: FaultHook) {
        self.fault_hook = Some(hook);
    }

    /// Whether appends to `name` are refused because a failed WAL write
    /// could not be rolled back.
    pub(crate) fn is_fenced(&self, name: &str) -> bool {
        self.fenced.lock().expect("fence lock").contains(name)
    }

    fn fault(&self, step: IoStep, name: &str) -> Option<Fault> {
        self.fault_hook.as_ref().and_then(|hook| hook(step, name))
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// WAL size past which the store compacts into a fresh snapshot.
    pub fn compact_bytes(&self) -> u64 {
        self.compact_bytes
    }

    /// Path of the snapshot file for `name`.
    pub fn snapshot_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{}.snap", hex_encode(name)))
    }

    /// Path of the WAL file for `name`.
    pub fn wal_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{}.wal", hex_encode(name)))
    }

    /// Writes a fresh snapshot (atomically), then resets the series' WAL —
    /// in that order, so a crash between the two steps leaves only *stale*
    /// WAL records, which replay skips by version.
    pub fn write_snapshot(
        &self,
        name: &str,
        meta: &SnapshotMeta,
        values: &[f64],
    ) -> ServeResult<()> {
        if let Some(fault) = self.fault(IoStep::Snapshot, name) {
            return Err(ServeError::Io(fault.error()));
        }
        write_atomic(self.snapshot_path(name), &encode_snapshot(meta, values))?;
        // Truncate rather than delete: an open append handle elsewhere
        // would resurrect a deleted file's contents on some platforms.
        File::create(self.wal_path(name))?.sync_all()?;
        // The reset WAL no longer holds any orphan bytes.
        self.fenced.lock().expect("fence lock").remove(name);
        Ok(())
    }

    /// Appends one batch record to the series' WAL and fsyncs it. Must be
    /// called *before* the batch is applied in memory; `version` is the
    /// version the series will have once the batch applies.
    ///
    /// A failed `write_all` or `sync_data` can leave part or all of the
    /// record in the file while the caller treats the batch as never
    /// applied. The next acknowledged append would then log the same
    /// version again, and replay would apply the orphan, read the
    /// acknowledged record as a version gap, and truncate every later
    /// batch. So on any failure the WAL is truncated back to its pre-write
    /// length and fsynced before the error is returned. If that rollback
    /// fails too, the series is fenced: its appends are refused (until a
    /// snapshot resets the WAL or the process restarts), so no later batch
    /// can be acknowledged behind the orphan. The success path costs one
    /// `fstat` more than before and no extra fsync.
    pub fn log_append(&self, name: &str, version: u64, samples: &[f64]) -> ServeResult<()> {
        if self.is_fenced(name) {
            return Err(fenced_error(name));
        }
        let record = encode_wal_record(version, samples);
        let mut f = OpenOptions::new().create(true).append(true).open(self.wal_path(name))?;
        let before = f.metadata()?.len();
        let Err(err) = self.write_record(&mut f, name, &record) else { return Ok(()) };
        if self.rollback(&f, name, before).is_err() {
            self.fenced.lock().expect("fence lock").insert(name.to_string());
        }
        Err(ServeError::Io(err))
    }

    fn write_record(&self, f: &mut File, name: &str, record: &[u8]) -> std::io::Result<()> {
        match self.fault(IoStep::WalWrite, name) {
            Some(fault) => {
                f.write_all(&record[..fault.written.min(record.len())])?;
                return Err(fault.error());
            }
            None => f.write_all(record)?,
        }
        match self.fault(IoStep::WalSync, name) {
            Some(fault) => Err(fault.error()),
            None => f.sync_data(),
        }
    }

    fn rollback(&self, f: &File, name: &str, len: u64) -> std::io::Result<()> {
        if let Some(fault) = self.fault(IoStep::WalRollback, name) {
            return Err(fault.error());
        }
        f.set_len(len)?;
        f.sync_all()
    }

    /// Current WAL size in bytes (0 when the file does not exist).
    pub fn wal_bytes(&self, name: &str) -> u64 {
        fs::metadata(self.wal_path(name)).map(|m| m.len()).unwrap_or(0)
    }

    /// Scans the directory, reconstructing every series: snapshot first,
    /// then WAL replay with torn/corrupt tails physically truncated.
    pub fn recover(&self) -> ServeResult<Recovery> {
        let mut out = Recovery::default();
        let mut stems: Vec<String> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let file = entry.file_name().to_string_lossy().into_owned();
            if let Some(stem) = file.strip_suffix(".snap") {
                stems.push(stem.to_string());
            } else if let Some(stem) = file.strip_suffix(".wal") {
                // An orphan WAL (no snapshot) has no base state to replay
                // over; report it rather than silently ignoring the file.
                if !self.dir.join(format!("{stem}.snap")).exists() {
                    out.skipped.push((file, "WAL without a base snapshot".into()));
                }
            }
        }
        stems.sort_unstable();
        for stem in stems {
            let snap_file = format!("{stem}.snap");
            let Some(name) = hex_decode(&stem) else {
                out.skipped.push((snap_file, "file stem is not a hex-encoded name".into()));
                continue;
            };
            let bytes = fs::read(self.dir.join(&snap_file))?;
            let Some((meta, values)) = decode_snapshot(&bytes) else {
                // Snapshots are written atomically, so a corrupt one means
                // external damage; the series cannot be reconstructed.
                out.skipped.push((snap_file, "snapshot failed checksum/format validation".into()));
                continue;
            };
            let recovered = self.replay_wal(&name, meta, values)?;
            out.series.push(recovered);
        }
        Ok(out)
    }

    /// Replays the WAL for one series over its snapshot state, truncating
    /// the file at the first unusable record.
    fn replay_wal(
        &self,
        name: &str,
        meta: SnapshotMeta,
        mut values: Vec<f64>,
    ) -> ServeResult<RecoveredSeries> {
        let wal_path = self.wal_path(name);
        let bytes = match fs::read(&wal_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(ServeError::Io(e)),
        };
        let mut version = meta.version;
        let mut replayed = 0u64;
        let mut pos = 0usize;
        let good_prefix = loop {
            if pos >= bytes.len() {
                break pos; // clean end of log
            }
            match decode_wal_record(&bytes, pos) {
                Some((rec_version, _, end)) if rec_version <= meta.version => {
                    // Stale record from before the last snapshot (crash
                    // between snapshot write and WAL reset): skip it.
                    pos = end;
                }
                Some((rec_version, samples, end)) if rec_version == version + 1 => {
                    values.extend_from_slice(&samples);
                    version = rec_version;
                    replayed += 1;
                    pos = end;
                }
                // Version gap, torn tail, bad magic, or checksum mismatch:
                // the usable prefix ends at this record's start.
                Some(_) | None => break pos,
            }
        };
        let truncated = (good_prefix as u64) < bytes.len() as u64;
        if truncated {
            OpenOptions::new().write(true).open(&wal_path)?.set_len(good_prefix as u64)?;
        }
        Ok(RecoveredSeries {
            name: name.to_string(),
            values,
            version,
            policy: meta.policy,
            hot_lengths: meta.hot_lengths,
            base_offset: meta.base_offset,
            replayed_batches: replayed,
            truncated_tail: truncated,
        })
    }
}

fn fenced_error(name: &str) -> ServeError {
    ServeError::Io(std::io::Error::other(format!(
        "series '{name}' is read-only until restart: a failed WAL append could not be rolled back"
    )))
}

/// Encodes a snapshot body (checksum included).
pub fn encode_snapshot(meta: &SnapshotMeta, values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(48 + 8 * (meta.hot_lengths.len() + values.len()));
    out.extend_from_slice(SNAPSHOT_MAGIC);
    put_u32(&mut out, SNAPSHOT_FORMAT);
    put_u64(&mut out, meta.version);
    put_u32(&mut out, meta.policy.num() as u32);
    put_u32(&mut out, meta.policy.den() as u32);
    put_f64(&mut out, meta.base_offset);
    put_u32(&mut out, meta.hot_lengths.len() as u32);
    for &l in &meta.hot_lengths {
        put_u64(&mut out, l as u64);
    }
    put_u64(&mut out, values.len() as u64);
    for &v in values {
        put_f64(&mut out, v);
    }
    let checksum = fnv1a64(&out);
    put_u64(&mut out, checksum);
    out
}

/// Decodes and validates a snapshot; `None` on any structural or checksum
/// failure.
pub fn decode_snapshot(bytes: &[u8]) -> Option<(SnapshotMeta, Vec<f64>)> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 8 {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().ok()?);
    if fnv1a64(body) != stored {
        return None;
    }
    let mut c = ByteCursor::new(body);
    if c.take(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
        return None;
    }
    let format = c.read_u32()?;
    if format == 0 || format > SNAPSHOT_FORMAT {
        return None;
    }
    let version = c.read_u64()?;
    let num = c.read_u32()? as usize;
    let den = c.read_u32()? as usize;
    if den == 0 {
        return None;
    }
    let stored_offset = if format >= 2 { Some(c.read_f64()?) } else { None };
    let hot_count = c.read_u32()? as usize;
    // Each hot length is 8 bytes; an absurd count cannot fit in the body.
    if hot_count > c.remaining() / 8 {
        return None;
    }
    let mut hot_lengths = Vec::with_capacity(hot_count);
    for _ in 0..hot_count {
        hot_lengths.push(usize::try_from(c.read_u64()?).ok()?);
    }
    let count = usize::try_from(c.read_u64()?).ok()?;
    if count != c.remaining() / 8 || count * 8 != c.remaining() {
        return None;
    }
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(c.read_f64()?);
    }
    // Format-1 snapshots carried no pinned offset: a format-1 build centred
    // every rebuild at the current mean, so the mean of the snapshot samples
    // is exactly the frame that build was using at snapshot time.
    let base_offset = stored_offset.unwrap_or_else(|| {
        if values.is_empty() {
            0.0
        } else {
            valmod_data::stats::neumaier_sum(values.iter().copied()) / values.len() as f64
        }
    });
    Some((
        SnapshotMeta { version, policy: ExclusionPolicy::new(num, den), hot_lengths, base_offset },
        values,
    ))
}

/// Encodes one WAL record (checksum included).
pub fn encode_wal_record(version: u64, samples: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + 8 * samples.len());
    out.extend_from_slice(WAL_RECORD_MAGIC);
    put_u64(&mut out, version);
    put_u32(&mut out, samples.len() as u32);
    for &v in samples {
        put_f64(&mut out, v);
    }
    let checksum = fnv1a64(&out);
    put_u64(&mut out, checksum);
    out
}

/// Decodes the WAL record starting at byte `start`; returns
/// `(post-apply version, samples, end offset)`, or `None` on bad magic, a
/// torn tail, or a checksum mismatch — the caller then truncates at
/// `start`.
fn decode_wal_record(bytes: &[u8], start: usize) -> Option<(u64, Vec<f64>, usize)> {
    let mut c = ByteCursor::new(bytes.get(start..)?);
    if c.take(WAL_RECORD_MAGIC.len())? != WAL_RECORD_MAGIC {
        return None;
    }
    let version = c.read_u64()?;
    let count = c.read_u32()? as usize;
    let mut values = Vec::with_capacity(count.min(c.remaining() / 8));
    for _ in 0..count {
        values.push(c.read_f64()?);
    }
    // Checksum covers everything from the record start through the samples.
    let body_len = c.pos();
    let stored = c.read_u64()?;
    if fnv1a64(&bytes[start..start + body_len]) != stored {
        return None;
    }
    Some((version, values, start + c.pos()))
}

/// Byte spans `(start, end)` of each structurally valid, checksum-passing
/// record in a WAL image, stopping at the first invalid one. Exposed for
/// the recovery fault harness, which uses the spans to place kill points.
pub fn wal_record_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        match decode_wal_record(bytes, pos) {
            Some((_, _, end)) => {
                spans.push((pos, end));
                pos = end;
            }
            None => break,
        }
    }
    spans
}

fn hex_encode(name: &str) -> String {
    let mut out = String::with_capacity(name.len() * 2);
    for b in name.bytes() {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn hex_decode(stem: &str) -> Option<String> {
    if !stem.len().is_multiple_of(2) {
        return None;
    }
    let mut bytes = Vec::with_capacity(stem.len() / 2);
    let chars = stem.as_bytes();
    for pair in chars.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        bytes.push((hi * 16 + lo) as u8);
    }
    String::from_utf8(bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("valmod_persist_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn meta(version: u64, hot: &[usize]) -> SnapshotMeta {
        SnapshotMeta {
            version,
            policy: ExclusionPolicy::HALF,
            hot_lengths: hot.to_vec(),
            base_offset: 0.25,
        }
    }

    #[test]
    fn snapshot_round_trips_bit_for_bit() {
        let values = vec![1.5, -0.0, f64::MIN_POSITIVE, 1e300, -42.25];
        let m = meta(7, &[16, 32]);
        let bytes = encode_snapshot(&m, &values);
        let (back_meta, back_values) = decode_snapshot(&bytes).expect("valid snapshot");
        assert_eq!(back_meta.version, 7);
        assert_eq!(back_meta.hot_lengths, vec![16, 32]);
        assert_eq!(back_meta.policy, ExclusionPolicy::HALF);
        assert_eq!(back_meta.base_offset.to_bits(), 0.25f64.to_bits());
        assert_eq!(back_values.len(), values.len());
        for (a, b) in back_values.iter().zip(&values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn format_1_snapshots_decode_with_a_derived_offset() {
        // A pre-offset (format 1) snapshot: same layout minus the
        // base_offset field. Decoding must still succeed and pin the frame
        // at the mean of the snapshot samples — the frame a format-1 build
        // was actually centring in at snapshot time.
        let values = [3.0f64, 5.0, 10.0];
        let mut body = Vec::new();
        body.extend_from_slice(SNAPSHOT_MAGIC);
        put_u32(&mut body, 1);
        put_u64(&mut body, 9);
        put_u32(&mut body, 1);
        put_u32(&mut body, 2);
        put_u32(&mut body, 1);
        put_u64(&mut body, 16);
        put_u64(&mut body, values.len() as u64);
        for &v in &values {
            put_f64(&mut body, v);
        }
        let checksum = fnv1a64(&body);
        put_u64(&mut body, checksum);

        let (meta, back) = decode_snapshot(&body).expect("format 1 must still decode");
        assert_eq!(meta.version, 9);
        assert_eq!(meta.hot_lengths, vec![16]);
        assert_eq!(back, values);
        assert_eq!(meta.base_offset.to_bits(), 6.0f64.to_bits());

        // Unknown future formats are rejected rather than misparsed.
        let mut future = Vec::new();
        future.extend_from_slice(SNAPSHOT_MAGIC);
        put_u32(&mut future, SNAPSHOT_FORMAT + 1);
        let mut bytes = future.clone();
        let checksum = fnv1a64(&bytes);
        put_u64(&mut bytes, checksum);
        assert!(decode_snapshot(&bytes).is_none());
    }

    #[test]
    fn snapshot_rejects_any_single_bit_flip() {
        let bytes = encode_snapshot(&meta(3, &[8]), &[1.0, 2.0, 3.0]);
        assert!(decode_snapshot(&bytes).is_some());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(decode_snapshot(&bad).is_none(), "bit flip at byte {i} not caught");
        }
        // Truncations are rejected too.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_snapshot(&bytes[..cut]).is_none(), "truncation at {cut} not caught");
        }
    }

    #[test]
    fn wal_spans_stop_at_first_corruption() {
        let mut wal = Vec::new();
        wal.extend_from_slice(&encode_wal_record(2, &[1.0, 2.0]));
        wal.extend_from_slice(&encode_wal_record(3, &[3.0]));
        let spans = wal_record_spans(&wal);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].0, 0);
        assert_eq!(spans[1].1, wal.len());

        // A torn third record: spans still report the two complete ones.
        let mut torn = wal.clone();
        let third = encode_wal_record(4, &[4.0, 5.0, 6.0]);
        torn.extend_from_slice(&third[..third.len() - 11]);
        assert_eq!(wal_record_spans(&torn).len(), 2);

        // A bit flip in the first record stops the scan immediately.
        let mut flipped = wal;
        flipped[6] ^= 0x01;
        assert!(wal_record_spans(&flipped).is_empty());
    }

    #[test]
    fn recover_replays_wal_over_snapshot_and_truncates_torn_tail() {
        let dir = tmp_dir("replay");
        let p = Persistence::open(&dir, DEFAULT_WAL_COMPACT_BYTES).unwrap();
        let base: Vec<f64> = (0..32).map(|i| i as f64 * 0.5).collect();
        p.write_snapshot("s", &meta(1, &[8]), &base).unwrap();
        p.log_append("s", 2, &[100.0, 101.0]).unwrap();
        p.log_append("s", 3, &[102.0]).unwrap();
        // Simulate a crash mid-write of a third record.
        let torn = encode_wal_record(4, &[900.0, 901.0]);
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(p.wal_path("s")).unwrap();
            f.write_all(&torn[..torn.len() - 5]).unwrap();
        }
        let wal_len_before = p.wal_bytes("s");
        let rec = p.recover().unwrap();
        assert!(rec.skipped.is_empty(), "{:?}", rec.skipped);
        assert_eq!(rec.series.len(), 1);
        let s = &rec.series[0];
        assert_eq!(s.name, "s");
        assert_eq!(s.version, 3);
        assert_eq!(s.replayed_batches, 2);
        assert!(s.truncated_tail);
        assert_eq!(s.values.len(), 35);
        assert_eq!(s.values[32..], [100.0, 101.0, 102.0]);
        assert_eq!(s.hot_lengths, vec![8]);
        // The torn tail was physically removed: a second recovery is clean.
        assert!(p.wal_bytes("s") < wal_len_before);
        let rec2 = p.recover().unwrap();
        assert!(!rec2.series[0].truncated_tail);
        assert_eq!(rec2.series[0].values, s.values);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_skips_stale_records_after_replace_crash() {
        // Crash window: a replace wrote its new snapshot (version 5) but
        // died before resetting the WAL, leaving records from versions 2-3.
        let dir = tmp_dir("stale");
        let p = Persistence::open(&dir, DEFAULT_WAL_COMPACT_BYTES).unwrap();
        p.write_snapshot("s", &meta(1, &[]), &[1.0, 2.0]).unwrap();
        p.log_append("s", 2, &[3.0]).unwrap();
        p.log_append("s", 3, &[4.0]).unwrap();
        // Replace writes the snapshot only (simulating the crash by
        // bypassing write_snapshot's WAL reset).
        valmod_data::io::write_atomic(
            p.snapshot_path("s"),
            &encode_snapshot(&meta(5, &[]), &[9.0, 8.0, 7.0]),
        )
        .unwrap();
        // A post-restart append continues from the snapshot version.
        p.log_append("s", 6, &[6.0]).unwrap();
        let rec = p.recover().unwrap();
        let s = &rec.series[0];
        assert_eq!(s.version, 6);
        assert_eq!(s.values, vec![9.0, 8.0, 7.0, 6.0]);
        assert_eq!(s.replayed_batches, 1, "stale records must not count as replayed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_reports_orphan_wal_and_corrupt_snapshot() {
        let dir = tmp_dir("skips");
        let p = Persistence::open(&dir, DEFAULT_WAL_COMPACT_BYTES).unwrap();
        // Orphan WAL with no snapshot.
        p.log_append("ghost", 2, &[1.0]).unwrap();
        // Corrupt snapshot.
        fs::write(p.snapshot_path("bad"), b"not a snapshot").unwrap();
        let rec = p.recover().unwrap();
        assert!(rec.series.is_empty());
        assert_eq!(rec.skipped.len(), 2, "{:?}", rec.skipped);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn names_round_trip_through_hex_paths() {
        let dir = tmp_dir("names");
        let p = Persistence::open(&dir, DEFAULT_WAL_COMPACT_BYTES).unwrap();
        for name in ["s", "sensor/7", "../escape", "ünïcode", "a b\tc"] {
            p.write_snapshot(name, &meta(1, &[]), &[1.0]).unwrap();
            // Everything must land inside the data dir, whatever the name.
            assert_eq!(p.snapshot_path(name).parent().unwrap(), p.dir());
        }
        let rec = p.recover().unwrap();
        let mut names: Vec<&str> = rec.series.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let mut expected = vec!["s", "sensor/7", "../escape", "ünïcode", "a b\tc"];
        expected.sort_unstable();
        assert_eq!(names, expected);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_snapshot_resets_the_wal() {
        let dir = tmp_dir("compact");
        let p = Persistence::open(&dir, DEFAULT_WAL_COMPACT_BYTES).unwrap();
        p.write_snapshot("s", &meta(1, &[]), &[1.0]).unwrap();
        p.log_append("s", 2, &[2.0]).unwrap();
        assert!(p.wal_bytes("s") > 0);
        p.write_snapshot("s", &meta(2, &[]), &[1.0, 2.0]).unwrap();
        assert_eq!(p.wal_bytes("s"), 0, "snapshot write must reset the WAL");
        let rec = p.recover().unwrap();
        assert_eq!(rec.series[0].values, vec![1.0, 2.0]);
        assert_eq!(rec.series[0].version, 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
