//! Shared helpers: order statistics, failure tallies, the benchmark's own
//! span recorder, process memory, and host facts.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use valmod_serve::Value;

/// Latency charged to a failed request: it misses every latency bound.
pub const FAILED_LATENCY_MS: f64 = 60_000.0;

/// Linear-interpolated quantile (`q` in `[0, 1]`) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Relative tolerance of `valmod-check`'s distance comparisons.
pub const DIST_TOL: f64 = 1e-6;

/// Whether two distances agree within [`DIST_TOL`].
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= DIST_TOL * (1.0 + a.abs().max(b.abs()))
}

/// Whether two reply bodies have the same shape, keys, strings and flags,
/// with every number within [`DIST_TOL`].
pub fn matches(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => close(*x, *y),
        (Value::Arr(x), Value::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| matches(x, y))
        }
        (Value::Obj(x), Value::Obj(y)) => {
            x.len() == y.len()
                && x.iter().zip(y).all(|((kx, x), (ky, y))| kx == ky && matches(x, y))
        }
        _ => a == b,
    }
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// `a / b`, or 0 when `b` is 0 (a ratio with nothing to divide by).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms_since(t))
}

/// Median wall time in milliseconds of `reps` calls of `f`.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1)).map(|_| timed(&mut f).1).collect();
    median(&times)
}

/// Attempted/failed request counts plus wrong-answer tracking.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable description of every wrong answer.
    pub wrong: Vec<String>,
}

impl Tally {
    /// Counts one request; a failed one is logged and returns `None`.
    pub fn record<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }

    /// Counts one correctness gate over an already-attempted answer.
    pub fn gate(&mut self, what: &str, ok: bool) {
        if !ok {
            self.failed += 1;
            self.wrong.push(what.to_string());
            eprintln!("perfbench: wrong answer: {what}");
        }
    }

    pub fn ok_frac(&self) -> f64 {
        1.0 - ratio(self.failed as f64, self.attempted as f64)
    }
}

/// One span recorded by the benchmark around a call into a layer.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// In-memory span recorder of the traced pass. Spans nest by call order;
/// a layer's self time is its duration minus what its child spans cover.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// One line per span name, sorted: count, total and self time.
    pub fn notes(&self) -> Vec<String> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut by_name: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_us) {
            let e = by_name.entry(s.name).or_default();
            let dur = s.end_us - s.start_us;
            e.0 += 1;
            e.1 += dur / 1e3;
            e.2 += (dur - child).max(0.0) / 1e3;
        }
        by_name
            .into_iter()
            .map(|(name, (count, total, own))| {
                format!("span {name}: count={count} total_ms={total:.3} self_ms={own:.3}")
            })
            .collect()
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ms(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec; the clock ids are the
    // Linux constants for the per-thread and per-process CPU clocks.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
    } else {
        0.0
    }
}

/// On-CPU time of the calling thread in milliseconds. Like every CPU
/// clock it excludes time the hypervisor took the vCPU away.
pub fn thread_cpu_ms() -> f64 {
    cpu_clock_ms(CLOCK_THREAD_CPUTIME_ID)
}

/// On-CPU time of this process, exited threads included, in milliseconds.
pub fn process_cpu_ms() -> f64 {
    cpu_clock_ms(CLOCK_PROCESS_CPUTIME_ID)
}

/// On-CPU time of each live thread of process `pid`, in milliseconds, by
/// thread id (`schedstat`, exact for threads that are not running at the
/// moment).
pub fn task_cpu_ms(pid: u32) -> Vec<(u32, f64)> {
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|t| {
            let tid = t.file_name().to_str()?.parse().ok()?;
            Some((tid, schedstat_ms(&t.path().join("schedstat").to_string_lossy())))
        })
        .collect()
}

fn schedstat_ms(path: &str) -> f64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse::<f64>().ok()))
        .map_or(0.0, |ns| ns / 1e6)
}

/// Runs `f` and returns its result with the calling thread's on-CPU time
/// and the wall time, both in milliseconds.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let c = thread_cpu_ms();
    let (out, wall) = timed(f);
    (out, thread_cpu_ms() - c, wall)
}

/// Machine-wide busy and stolen CPU time from `/proc/stat`, in ticks.
#[derive(Debug, Clone, Copy)]
pub struct CpuTicks {
    busy: f64,
    steal: f64,
}

impl CpuTicks {
    pub fn now() -> CpuTicks {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let f: Vec<f64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        let at = |i: usize| f.get(i).copied().unwrap_or(0.0);
        // user nice system idle iowait irq softirq steal
        CpuTicks { busy: at(0) + at(1) + at(2) + at(5) + at(6), steal: at(7) }
    }

    /// The share of busy vCPU time the hypervisor stole since `self`.
    pub fn steal_frac_since(&self) -> f64 {
        let now = CpuTicks::now();
        let steal = now.steal - self.steal;
        ratio(steal, now.busy - self.busy + steal)
    }
}

/// Peak resident set (VmHWM) of process `pid` in MiB, 0 if unreadable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Facts about the host that the numbers depend on, as one line.
pub fn host_facts(data_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut caches = Vec::new();
    for idx in 0..8 {
        let base = PathBuf::from(format!("/sys/devices/system/cpu/cpu0/cache/index{idx}"));
        let read = |f: &str| fs::read_to_string(base.join(f)).map(|s| s.trim().to_string());
        if let (Ok(level), Ok(size), Ok(kind)) = (read("level"), read("size"), read("type")) {
            if kind != "Instruction" && level != "1" {
                caches.push(format!("L{level}={size}"));
            }
        }
    }
    let caches = if caches.is_empty() { "unknown".to_string() } else { caches.join(",") };
    format!(
        "host: nproc={nproc} caches={caches} data_fs={} fsync_p50_ms={:.4}",
        filesystem_of(data_dir),
        fsync_p50_ms(data_dir)
    )
}

/// The filesystem type of the mount holding `dir` (longest prefix match in
/// `/proc/mounts`).
fn filesystem_of(dir: &Path) -> String {
    let dir = fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(at).then(|| (at.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// Median time of a 4 KiB append + fdatasync in `dir`, in milliseconds.
fn fsync_p50_ms(dir: &Path) -> f64 {
    let path = dir.join("fsync-probe");
    let Ok(mut f) = OpenOptions::new().create(true).append(true).open(&path) else {
        return 0.0;
    };
    let block = [0u8; 4096];
    let times: Vec<f64> = (0..30)
        .map(|_| {
            timed(|| {
                let _ = f.write_all(&block);
                let _ = f.sync_data();
            })
            .1
        })
        .collect();
    let _ = fs::remove_file(&path);
    median(&times)
}

/// p95 of how late 100 timed wakeups 5 ms apart ran, in milliseconds —
/// the lateness an open-loop generator on this host would have.
pub fn timer_late_p95_ms() -> f64 {
    let start = Instant::now();
    let late: Vec<f64> = (1..=100)
        .map(|i| {
            let due = start + Duration::from_millis(5 * i);
            sleep_until(due);
            ms_since(due)
        })
        .collect();
    quantile(&late, 0.95)
}

/// Sleeps until `due` (no-op when it has passed).
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// A deadline `seconds` from now.
pub fn after(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}
