//! The `valmod serve` child process and the STATS arithmetic the traced
//! pass runs on it.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use valmod_serve::{Client, Timeouts, Value};

use crate::util::{peak_rss_mb, task_cpu_ms};

/// A running `valmod serve` child.
pub struct ServerProc {
    child: Child,
    /// Drains the rest of the child's stdout so its prints never block.
    drain: Option<std::thread::JoinHandle<()>>,
    pub addr: String,
    /// Last on-CPU reading per thread id. A thread that has exited (a
    /// closed connection's handler) keeps its last reading, so the server's
    /// total never drops when one goes away.
    cpu_seen: Mutex<BTreeMap<u32, f64>>,
}

impl ServerProc {
    /// Spawns `bin serve --addr 127.0.0.1:0 <extra>` and waits for its
    /// `listening on <addr>` line.
    pub fn start(bin: &Path, extra: &[String]) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut stdout = BufReader::new(stdout);
        let mut first = String::new();
        let read = stdout.read_line(&mut first);
        let addr = first.trim().strip_prefix("listening on ").map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                let drain = std::thread::spawn(move || {
                    let _ = std::io::copy(&mut stdout, &mut std::io::sink());
                });
                Ok(ServerProc { child, drain: Some(drain), addr, cpu_seen: Mutex::default() })
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not announce its address (got {first:?})"))
            }
        }
    }

    /// A client with bounded connect and read times.
    pub fn client(&self) -> Result<Client, String> {
        let t = Timeouts::new()
            .with_connect(Duration::from_secs(5))
            .with_read(Duration::from_secs(60))
            .with_retries(3);
        Client::connect_with(self.addr.as_str(), &t).map_err(|e| format!("connect: {e}"))
    }

    /// On-CPU time of the server's threads so far, in milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        let mut seen = self.cpu_seen.lock().expect("cpu readings lock");
        for (tid, ms) in task_cpu_ms(self.child.id()) {
            let e = seen.entry(tid).or_default();
            *e = e.max(ms);
        }
        seen.values().sum()
    }

    /// Peak RSS of the server process so far, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Asks the server to shut down and waits for it to exit; kills it if
    /// it has not exited within 20 s.
    pub fn stop(mut self) {
        if let Ok(mut c) = self.client() {
            let _ = c.shutdown();
        }
        let give_up = Instant::now() + Duration::from_secs(20);
        while Instant::now() < give_up {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// A number at `path` inside a STATS tree (0 when absent).
pub fn stat(stats: &Value, path: &[&str]) -> f64 {
    let mut v = stats;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

/// A registry counter from the STATS `obs` section.
pub fn obs_counter(stats: &Value, key: &str) -> f64 {
    stats.get("obs").and_then(|o| o.get(key)).and_then(Value::as_f64).unwrap_or(0.0)
}

/// A registry histogram's `(count, sum)` from the STATS `obs` section.
pub fn obs_hist(stats: &Value, key: &str) -> (f64, f64) {
    let h = stats.get("obs").and_then(|o| o.get(key));
    let field = |f: &str| h.and_then(|h| h.get(f)).and_then(Value::as_f64).unwrap_or(0.0);
    (field("count"), field("sum"))
}

/// Sums of STATS deltas across the traced requests of one run.
#[derive(Debug, Default, Clone)]
pub struct StatsDelta {
    pub requests: f64,
    pub client_ms: f64,
    pub queue_count: f64,
    pub queue_us: f64,
    pub compute_count: f64,
    pub compute_us: f64,
    pub plan_count: f64,
    pub plan_us: f64,
    pub segment_us: f64,
    pub revalidate_us: f64,
    pub full_profiles: f64,
    pub computed: f64,
    pub busy: f64,
    pub deadline_misses: f64,
    pub coalesced: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub fragment_hits: f64,
    pub fragment_misses: f64,
    pub fragment_evictions: f64,
    pub fragments_extended: f64,
    /// Segments computed by queries that followed an APPEND on their series.
    pub post_append_segments: f64,
}

impl StatsDelta {
    /// Adds the difference `after − before` around one request that took
    /// `client_ms` at the client.
    pub fn add(&mut self, before: &Value, after: &Value, client_ms: f64, after_append: bool) {
        let d = |path: &[&str]| stat(after, path) - stat(before, path);
        let c = |key: &str| obs_counter(after, key) - obs_counter(before, key);
        let h = |key: &str| {
            let (c1, s1) = obs_hist(after, key);
            let (c0, s0) = obs_hist(before, key);
            (c1 - c0, s1 - s0)
        };
        self.requests += 1.0;
        self.client_ms += client_ms;
        let (qc, qs) = h("serve.queue.wait_us");
        let (cc, cs) = h("serve.compute_us");
        let (pc, ps) = h("serve.planner.plan_us");
        self.queue_count += qc;
        self.queue_us += qs;
        self.compute_count += cc;
        self.compute_us += cs;
        self.plan_count += pc;
        self.plan_us += ps;
        self.segment_us += h("core.valmod.segment_us").1;
        self.revalidate_us += h("serve.fragment.revalidate_us").1;
        self.full_profiles += c("core.mp.full_profiles");
        self.computed += d(&["engine", "computed"]);
        self.busy += d(&["engine", "busy_rejections"]);
        self.deadline_misses += d(&["engine", "deadline_misses"]);
        self.coalesced += d(&["engine", "coalesced"]);
        self.cache_hits += d(&["cache", "hits"]);
        self.cache_misses += d(&["cache", "misses"]);
        self.fragment_hits += d(&["planner", "fragment_hits"]);
        self.fragment_misses += d(&["planner", "fragment_misses"]);
        self.fragment_evictions += d(&["planner", "fragment_evictions"]);
        self.fragments_extended += d(&["planner", "fragments_extended"]);
        if after_append {
            self.post_append_segments += c("serve.planner.segments_computed");
        }
    }

    /// Per-layer metrics derived from the deltas.
    pub fn metrics(&self, out: &mut crate::Metrics) {
        out.put(
            "serve.net_ms",
            ratio_or0(self.client_ms - (self.queue_us + self.compute_us) / 1e3, self.requests),
        );
        out.put("serve.engine.queue_wait_ms", ratio_or0(self.queue_us / 1e3, self.queue_count));
        out.put("serve.engine.compute_ms", ratio_or0(self.compute_us / 1e3, self.compute_count));
        out.put("serve.engine.busy", self.busy);
        out.put("serve.engine.deadline_misses", self.deadline_misses);
        out.put("serve.engine.coalesced", self.coalesced);
        out.put("serve.planner.anchors_per_query", ratio_or0(self.full_profiles, self.computed));
        out.put(
            "serve.planner.self_ms",
            ratio_or0((self.plan_us - self.segment_us - self.revalidate_us) / 1e3, self.plan_count),
        );
        out.put(
            "serve.cache.hit_frac",
            ratio_or0(self.cache_hits, self.cache_hits + self.cache_misses),
        );
        out.put(
            "serve.fragment.hit_frac",
            ratio_or0(self.fragment_hits, self.fragment_hits + self.fragment_misses),
        );
        out.put("serve.fragment.evictions", self.fragment_evictions);
        out.put(
            "serve.fragment.revive_frac",
            ratio_or0(self.fragments_extended, self.post_append_segments),
        );
    }
}

fn ratio_or0(a: f64, b: f64) -> f64 {
    crate::util::ratio(a, b)
}
