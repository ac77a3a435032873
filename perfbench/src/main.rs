//! The repository's benchmark. Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload discover|explore|stream --seed N --seconds S --trace 0|1
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! It builds the `valmod` binary from the same checkout, drives the
//! in-process API and a `valmod serve` child over loopback TCP, checks
//! every answer against an independent computation, and prints one JSON
//! object as the last line of standard output. See `perfbench/README.md`.

mod discover;
mod explore;
mod layers;
mod selftest;
mod server;
mod stream;
mod util;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use util::Tally;

/// End-to-end metrics, printed with `--trace 0` (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "frac"),
    ("primary_mean_cpu_ms", "ms"),
    ("primary_p90_cpu_ms", "ms"),
    ("secondary_mean_cpu_ms", "ms"),
    ("secondary_p90_cpu_ms", "ms"),
];

/// Per-layer metrics, printed with `--trace 1` (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mp.stomp_ms", "ms"),
    ("mp.cells_per_s", "1/s"),
    ("mp.stomp_par_speedup", "x"),
    ("mp.streaming_extend_us", "us"),
    ("mp.hot_seed_ms", "ms"),
    ("core.anchor_ms", "ms"),
    ("core.harvest_ratio", "x"),
    ("core.walk_ms", "ms"),
    ("core.fallback_lengths", "count"),
    ("core.valid_row_frac", "frac"),
    ("core.recomputed_rows", "count"),
    ("core.compose_ms", "ms"),
    ("core.segment_extend_ms", "ms"),
    ("core.thread_speedup", "x"),
    ("serve.server.ping_us", "us"),
    ("serve.protocol.codec_us", "us"),
    ("serve.net_ms", "ms"),
    ("serve.engine.queue_wait_ms", "ms"),
    ("serve.engine.compute_ms", "ms"),
    ("serve.engine.busy", "count"),
    ("serve.engine.deadline_misses", "count"),
    ("serve.engine.coalesced", "count"),
    ("serve.planner.anchors_per_query", "count"),
    ("serve.planner.self_ms", "ms"),
    ("serve.cache.hit_frac", "frac"),
    ("serve.fragment.hit_frac", "frac"),
    ("serve.fragment.evictions", "count"),
    ("serve.fragment.revive_frac", "frac"),
    ("serve.store.load_ms", "ms"),
    ("serve.store.append_ms", "ms"),
    ("serve.persist.wal_append_ms", "ms"),
    ("serve.persist.snapshot_ms", "ms"),
    ("bench.gen_late_p95_ms", "ms"),
    ("bench.trace_overhead_frac", "frac"),
];

pub const WORKLOADS: &[&str] = &["discover", "explore", "stream"];

/// Named metric values of one run.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The JSON `metrics` object for `table`, or the names it lacks.
    fn render(&self, table: &[(&str, &str)]) -> Result<String, Vec<String>> {
        let missing: Vec<String> = table
            .iter()
            .filter(|(n, _)| !self.0.get(*n).is_some_and(|v| v.is_finite()))
            .map(|(n, _)| n.to_string())
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        let fields: Vec<String> = table
            .iter()
            .map(|(n, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", self.0[*n]))
            .collect();
        Ok(format!("{{{}}}", fields.join(", ")))
    }
}

/// How big the inputs are: the benchmark proper, or the harness self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Everything a workload needs to run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    pub valmod: PathBuf,
    pub work: PathBuf,
    pub scale: Scale,
    /// Self-test hook: corrupt one answer before it is checked.
    pub corrupt: bool,
}

/// What a workload reports.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, self_test: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            a.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !a.self_test && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

/// Builds the `valmod` binary from the checkout in the current directory
/// and returns its path.
fn build_valmod() -> Result<PathBuf, String> {
    if !Path::new("crates/cli/Cargo.toml").is_file() {
        return Err("run from the repository root (crates/cli not found)".into());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "-p", "valmod-cli"])
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build -p valmod-cli failed: {status}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = Path::new(&target).join("release").join("valmod");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after build", bin.display()))
    }
}

/// Runs one workload and returns its outcome.
pub fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "discover" => discover::run(ctx),
        "explore" => explore::run(ctx),
        "stream" => stream::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The result line for `outcome`, or the metrics it failed to produce.
pub fn result_line(outcome: &Outcome, trace: bool) -> Result<String, Vec<String>> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let metrics = outcome.metrics.render(table)?;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.tally.wrong.is_empty(),
        outcome.tally.attempted.max(1),
        outcome.tally.failed
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let valmod = match build_valmod() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".perfbench_work").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let code = if args.self_test {
        selftest::run(&valmod, &work, threads)
    } else {
        println!("{}", util::host_facts(&work));
        let ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            threads,
            valmod,
            work: work.clone(),
            scale: Scale::Full,
            corrupt: false,
        };
        report(&args.workload, &ctx)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");
    code
}

/// Runs a workload and prints its notes and result line.
fn report(workload: &str, ctx: &Ctx) -> ExitCode {
    let started = std::time::Instant::now();
    let ticks = util::CpuTicks::now();
    let outcome = match run_workload(workload, ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(1);
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    let steal = ticks.steal_frac_since();
    println!(
        "run: workload={workload} seed={} wall_s={:.1} steal_frac={steal:.4}",
        ctx.seed,
        started.elapsed().as_secs_f64()
    );
    match result_line(&outcome, ctx.trace) {
        Ok(line) => {
            println!("{line}");
            if outcome.tally.wrong.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(missing) => {
            eprintln!("perfbench: {workload} did not produce {missing:?}");
            ExitCode::from(3)
        }
    }
}
