//! The fault injector: hostile and unlucky clients replayed against real
//! loopback line servers — a [`valmod_serve::Server`] and a cluster
//! [`valmod_cluster::Worker`], which run on the same
//! [`valmod_serve::LineServer`].
//!
//! Each scenario asserts three things: the server never panics (it keeps
//! answering a well-formed `ping` afterwards), no connection handler leaks
//! (the live-connection count drains back to the baseline), and the series
//! store's version counter is never corrupted by a half-delivered mutation.
//! The framing scenarios run against both servers; the `slow-reader`
//! scenario shows that a peer which stops reading cannot pin a handler or
//! keep the server from stopping.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use valmod_cluster::{Worker, WorkerConfig};
use valmod_serve::engine::{EngineConfig, QueryEngine};
use valmod_serve::{
    Client, ConnectionCount, ServeError, ServeResult, Server, SharedRecorder, SEND_STALL_LIMIT,
};

/// The line cap used by the harness server — small, so the oversized-line
/// scenario is cheap to trigger.
const FAULT_LINE_CAP: usize = 4096;

/// How long handlers may take to unwind, and `run` to return after
/// `shutdown`, before the harness calls it a leak or a hang.
const SETTLE: Duration = Duration::from_secs(5);

/// Outcome of the full fault matrix.
#[derive(Debug, Default)]
pub struct FaultReport {
    /// Scenario names that ran clean.
    pub passed: Vec<String>,
    /// `(scenario, what went wrong)` for the rest.
    pub failed: Vec<(String, String)>,
}

impl FaultReport {
    /// True when every scenario passed.
    pub fn all_passed(&self) -> bool {
        self.failed.is_empty()
    }

    fn record(&mut self, name: &str, result: Result<(), String>) {
        match result {
            Ok(()) => self.passed.push(name.to_string()),
            Err(why) => self.failed.push((name.to_string(), why)),
        }
    }
}

/// A line server running on its own thread.
struct Running {
    addr: SocketAddr,
    connections: ConnectionCount,
    done: mpsc::Receiver<ServeResult<()>>,
}

impl Running {
    fn serve(engine: QueryEngine) -> Result<Running, String> {
        let server = Server::bind("127.0.0.1:0", engine).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| format!("bind: {e}"))?;
        Ok(Running::spawn(addr, server.connection_count(), move || server.run()))
    }

    fn worker() -> Result<Running, String> {
        let worker = Worker::bind("127.0.0.1:0", WorkerConfig::default(), SharedRecorder::noop())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = worker.local_addr().map_err(|e| format!("bind: {e}"))?;
        Ok(Running::spawn(addr, worker.connection_count(), move || worker.run()))
    }

    fn spawn(
        addr: SocketAddr,
        connections: ConnectionCount,
        run: impl FnOnce() -> ServeResult<()> + Send + 'static,
    ) -> Running {
        let (tx, done) = mpsc::channel();
        std::thread::spawn(move || tx.send(run()));
        Running { addr, connections, done }
    }

    /// Waits up to `within` for every handler past `baseline` to unwind.
    fn drained(&self, baseline: usize, within: Duration) -> Result<(), String> {
        let deadline = Instant::now() + within;
        while self.connections.live() > baseline {
            if Instant::now() > deadline {
                let leaked = self.connections.live() - baseline;
                return Err(format!("{leaked} connection handler(s) leaked"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(())
    }

    /// Sends `shutdown`; `run` must then return cleanly within [`SETTLE`].
    fn shutdown(self) -> Result<(), String> {
        Client::connect(self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown: {e}"))?;
        match self.done.recv_timeout(SETTLE) {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server run() errored: {e}")),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                Err(format!("run() had not returned {SETTLE:?} after shutdown"))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err("server thread panicked".into()),
        }
    }
}

/// Sends raw bytes on a fresh connection, optionally reading one response
/// line back (with a timeout so a silent close cannot hang the harness).
fn raw_exchange(
    addr: SocketAddr,
    payload: &[u8],
    read_reply: bool,
) -> Result<Option<String>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("set timeout: {e}"))?;
    stream.write_all(payload).map_err(|e| format!("write: {e}"))?;
    stream.flush().map_err(|e| format!("flush: {e}"))?;
    if !read_reply {
        return Ok(None); // drop the connection mid-frame
    }
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => buf.push(byte[0]),
            Err(e) => return Err(format!("read: {e}")),
        }
        if buf.len() > 1 << 20 {
            return Err("reply unreasonably long".into());
        }
    }
    Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
}

/// Asserts the server still answers a well-formed ping.
fn expect_alive(addr: SocketAddr) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
    client.ping().map_err(|e| format!("ping after fault: {e}"))
}

/// Asserts the reply is an error response of the given kind.
fn expect_error_reply(reply: Option<String>, kind: &str) -> Result<(), String> {
    let line = reply.ok_or("expected a reply, connection just closed")?;
    if line.contains("\"ok\":false") && line.contains(&format!("\"kind\":\"{kind}\"")) {
        Ok(())
    } else {
        Err(format!("expected a {kind:?} error reply, got {line:?}"))
    }
}

/// Runs every fault scenario and reports.
pub fn run_fault_matrix() -> FaultReport {
    let mut report = FaultReport::default();
    serve_matrix(&mut report);
    worker_matrix(&mut report);
    report.record("slow-reader", slow_reader());
    report
}

/// The framing guarantees every line server gives: a truncated frame, a
/// malformed JSON line and an invalid UTF-8 line cost nothing but their
/// own connection (or, for malformed JSON, one error reply).
fn framing_scenarios(report: &mut FaultReport, prefix: &str, addr: SocketAddr) {
    // Truncated frame: half a request, then disconnect. No reply is owed;
    // the server must simply survive.
    report.record(
        &format!("{prefix}truncated-frame"),
        raw_exchange(addr, br#"{"cmd":"motifs","na"#, false).and_then(|_| expect_alive(addr)),
    );

    // Malformed JSON gets an error reply and the connection stays open.
    report.record(
        &format!("{prefix}malformed-json"),
        raw_exchange(addr, b"{nope\n", true)
            .and_then(|reply| expect_error_reply(reply, "protocol"))
            .and_then(|()| expect_alive(addr)),
    );

    // Invalid UTF-8 is a protocol error, not a panic.
    report.record(
        &format!("{prefix}invalid-utf8"),
        raw_exchange(addr, b"\xff\xfe\xfd\n", true)
            .and_then(|reply| expect_error_reply(reply, "protocol"))
            .and_then(|()| expect_alive(addr)),
    );
}

/// The serve scenarios, against one loopback [`Server`].
fn serve_matrix(report: &mut FaultReport) {
    let config = EngineConfig::builder()
        .workers(1)
        .max_line_bytes(FAULT_LINE_CAP)
        .build()
        .expect("static engine config");
    let server = match Running::serve(QueryEngine::new(config)) {
        Ok(s) => s,
        Err(why) => return report.record("bind", Err(why)),
    };
    let addr = server.addr;
    // A resident series the mutation scenarios aim at.
    let seeded: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
    let setup = Client::connect(addr)
        .map_err(|e| format!("setup connect: {e}"))
        .and_then(|mut c| c.load("s", seeded, vec![], false).map_err(|e| format!("load: {e}")));
    let baseline_version = match setup {
        Ok(ack) => ack.version,
        Err(why) => return report.record("setup", Err(why)),
    };

    framing_scenarios(report, "", addr);

    // Oversized line: a newline-free flood past the cap must be answered
    // with a protocol error, not buffered without bound. (Kept just over
    // the cap so the server consumes the whole flood before replying — a
    // close with unread bytes would RST the reply away.)
    let flood = vec![b'x'; FAULT_LINE_CAP + 1024];
    report.record(
        "oversized-line",
        raw_exchange(addr, &flood, true)
            .and_then(|reply| expect_error_reply(reply, "protocol"))
            .and_then(|()| expect_alive(addr)),
    );

    // Mid-APPEND disconnect: the half-delivered mutation must not tick
    // the version counter or partially mutate the store.
    report.record(
        "mid-append-disconnect",
        raw_exchange(addr, br#"{"cmd":"append","name":"s","values":[1.0,2.0"#, false)
            .and_then(|_| expect_alive(addr))
            .and_then(|()| {
                let mut client = Client::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
                let ack = client
                    .append("s", vec![5.0])
                    .map_err(|e| format!("append after fault: {e}"))?;
                let (version, len) = (ack.version, ack.len);
                if version != baseline_version + 1 {
                    return Err(format!(
                        "version counter corrupted: expected {}, got {version}",
                        baseline_version + 1
                    ));
                }
                if len != 65 {
                    return Err(format!("series length corrupted: expected 65, got {len}"));
                }
                Ok(())
            }),
    );

    // Hostile numeric fields: a beyond-2^53 sleep must be rejected, not
    // cast-truncated into a bounded-looking sleep.
    report.record(
        "hostile-sleep-ms",
        raw_exchange(addr, b"{\"cmd\":\"sleep\",\"ms\":1e300}\n", true)
            .and_then(|reply| expect_error_reply(reply, "protocol"))
            .and_then(|()| expect_alive(addr)),
    );

    // Deadline expiry: a sleep whose deadline lapses while it holds the
    // only worker must come back as a deadline error, and the worker must
    // be reusable afterwards.
    report.record(
        "deadline-expiry",
        Client::connect(addr)
            .map_err(|e| format!("connect: {e}"))
            .and_then(|mut c| {
                match c.sleep(300, Some(Duration::from_millis(1))) {
                    Err(ServeError::DeadlineExceeded) => Ok(()),
                    Err(ServeError::Busy) => Ok(()), // queue full counts as refusal
                    Ok(_) => Err("expired sleep reported success".into()),
                    Err(e) => Err(format!("unexpected error: {e}")),
                }
            })
            .and_then(|()| expect_alive(addr)),
    );

    // Non-finite ingestion: APPEND with a NaN is rejected whole — the
    // version counter must not move.
    report.record(
        "non-finite-append",
        raw_exchange(addr, b"{\"cmd\":\"append\",\"name\":\"s\",\"values\":[NaN]}\n", true)
            .and_then(|reply| expect_error_reply(reply, "protocol"))
            .and_then(|()| {
                let mut client = Client::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
                let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
                let ver = stats
                    .get("series")
                    .and_then(valmod_serve::Value::as_arr)
                    .and_then(|arr| {
                        arr.iter().find(|s| {
                            s.get("name").and_then(valmod_serve::Value::as_str) == Some("s")
                        })
                    })
                    .and_then(|s| s.get("version"))
                    .and_then(valmod_serve::Value::as_u64)
                    .ok_or("stats did not report series \"s\"")?;
                if ver == baseline_version + 1 {
                    Ok(())
                } else {
                    Err(format!(
                        "version moved on rejected append: {ver} (expected {})",
                        baseline_version + 1
                    ))
                }
            }),
    );

    report.record("connection-drain", server.drained(0, SETTLE));
    // Graceful shutdown still works after the whole matrix.
    report.record("graceful-shutdown", server.shutdown());
}

/// The framing scenarios and the leak check against a cluster worker.
fn worker_matrix(report: &mut FaultReport) {
    let worker = match Running::worker() {
        Ok(w) => w,
        Err(why) => return report.record("worker/bind", Err(why)),
    };
    framing_scenarios(report, "worker/", worker.addr);
    report.record("worker/connection-drain", worker.drained(0, SETTLE));
    report.record("worker/graceful-shutdown", worker.shutdown());
}

/// A peer that pipelines `stats` without reading a reply until the
/// server's writes block. Within the send-stall limit plus a margin, its
/// handler must be gone, the server must still answer `ping`, and `run`
/// must return after `shutdown` — all while the peer keeps its socket open.
fn slow_reader() -> Result<(), String> {
    let engine =
        QueryEngine::new(EngineConfig::builder().workers(1).build().expect("static engine config"));
    let server = Running::serve(engine)?;
    let baseline = server.connections.live();
    let stalled = stall_server_writes(server.addr);
    // A blocked write fails after at most two stall windows: the stall can
    // begin part-way through one write call.
    let checks = stalled
        .as_ref()
        .map_err(String::clone)
        .and_then(|_| server.drained(baseline, 2 * SEND_STALL_LIMIT + SETTLE))
        .and_then(|()| expect_alive(server.addr));
    let stopped = server.shutdown();
    drop(stalled);
    checks.and(stopped)
}

/// Writes pipelined `stats` requests until a write makes no progress for a
/// second: the server has stopped reading because its own reply writes
/// block. Returns the still-open, never-read stream.
fn stall_server_writes(addr: SocketAddr) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_write_timeout(Some(Duration::from_secs(1)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let batch = "{\"cmd\":\"stats\"}\n".repeat(1024);
    for _ in 0..(256 << 20) / batch.len() {
        match stream.write_all(batch.as_bytes()) {
            Ok(()) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(stream);
            }
            Err(e) => return Err(format!("pipelined write: {e}")),
        }
    }
    Err("the server read 256 MiB of requests without its writes blocking".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_full_fault_matrix_passes() {
        let report = run_fault_matrix();
        assert!(report.all_passed(), "failed scenarios: {:?}", report.failed);
        assert!(report.passed.len() >= 9, "expected ≥9 scenarios, ran {:?}", report.passed);
    }
}
