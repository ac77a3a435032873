//! The cluster worker: a [`LineService`] on the serve layer's one
//! [`LineServer`] — same framing, send-stall limit and shutdown as `valmod
//! serve`, so an idle coordinator connection cannot keep it running — that
//! caches one profiled series per job and answers `work` requests with
//! diagonal-range partial profiles.
//!
//! A worker is deliberately stateless beyond its job cache — if it crashes
//! and restarts, the coordinator's `unknown_series` handling re-ships the
//! series and the shard is recomputed; the idempotent merge makes the
//! duplicate harmless. The optional [`Fault`] plan injects protocol-level
//! failures (abrupt close ≈ SIGKILL, pre-reply hangs ≈ stragglers) for the
//! check oracle and the integration tests.

use std::collections::HashMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use valmod_mp::{stomp_diagonal_range_ws, ExclusionPolicy, ProfiledSeries, Workspace};
use valmod_obs::{Recorder, SharedRecorder};
use valmod_serve::protocol::{hello_result, response_err, response_ok};
use valmod_serve::{
    Client, ConnectionCount, LineServer, LineService, Reply, ServeError, ServeResult, Timeouts,
    Value, DEFAULT_MAX_LINE_BYTES,
};

use crate::wire::{encode_partial, ClusterRequest, WORKER_CAPABILITIES};

/// A deliberate failure mode for fault-matrix testing.
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    /// Close the connection without replying once `after` `work` commands
    /// have completed — the protocol-level shape of a SIGKILL mid-shard.
    CloseAfter {
        /// Number of successful `work` replies before the drop.
        after: usize,
    },
    /// Sleep before replying to every `work` past the first `after` — a
    /// straggler that trips the coordinator's per-shard deadline.
    HangAfter {
        /// Number of prompt `work` replies before hanging starts.
        after: usize,
        /// How long each hung reply stalls.
        stall: Duration,
    },
}

/// Worker construction options.
#[derive(Debug, Clone, Default)]
pub struct WorkerConfig {
    /// Optional injected failure mode.
    pub fault: Option<Fault>,
    /// Protocol version to advertise in `hello` (tests use a wrong one to
    /// exercise coordinator-side rejection). `None` = this build's version.
    pub advertise_version: Option<u64>,
}

/// Shared worker state: the per-job series cache and fault accounting.
struct WorkerState {
    jobs: Mutex<HashMap<String, Arc<Job>>>,
    config: WorkerConfig,
    recorder: SharedRecorder,
    work_done: AtomicUsize,
}

struct Job {
    ps: ProfiledSeries,
    policy: ExclusionPolicy,
}

/// A bound-but-not-yet-running cluster worker.
pub struct Worker(LineServer<WorkerState>);

impl Worker {
    /// Binds to `addr` (port 0 for ephemeral). Request lines are capped at
    /// [`DEFAULT_MAX_LINE_BYTES`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: WorkerConfig,
        recorder: SharedRecorder,
    ) -> ServeResult<Worker> {
        let state = WorkerState {
            jobs: Mutex::new(HashMap::new()),
            config,
            recorder,
            work_done: AtomicUsize::new(0),
        };
        let server = LineServer::bind(addr, state, DEFAULT_MAX_LINE_BYTES, SharedRecorder::noop())?;
        Ok(Worker(server))
    }

    /// The bound address.
    pub fn local_addr(&self) -> ServeResult<SocketAddr> {
        self.0.local_addr()
    }

    /// A handle that reports the number of live connections after `run`
    /// consumes the worker.
    pub fn connection_count(&self) -> ConnectionCount {
        self.0.connection_count()
    }

    /// Serves until a `shutdown` command arrives.
    pub fn run(self) -> ServeResult<()> {
        self.0.run()
    }
}

/// One workspace per connection: FFT plans and buffers are reused across
/// every shard this coordinator connection dispatches.
impl LineService for WorkerState {
    type Conn = Workspace;

    fn serve(&self, ws: &mut Workspace, request: &Value) -> Reply {
        let request = match ClusterRequest::from_value(request) {
            Ok(req) => req,
            Err(e) => return Reply::Send(response_err(&e)),
        };
        if self.recorder.enabled() {
            self.recorder.add(&format!("cluster.worker.cmd.{}", request.cmd_name()), 1);
        }
        let reply = match request {
            ClusterRequest::Hello { .. } => {
                let version =
                    self.config.advertise_version.unwrap_or(valmod_serve::PROTOCOL_VERSION);
                // Same payload shape as `hello_result`, with an overridable
                // version for the incompatibility tests.
                let mut v = hello_result(WORKER_CAPABILITIES);
                if let Value::Obj(fields) = &mut v {
                    for (k, val) in fields.iter_mut() {
                        if k == "version" {
                            *val = version.into();
                        }
                    }
                }
                response_ok(v, None)
            }
            ClusterRequest::Ping => response_ok(Value::str("pong"), None),
            ClusterRequest::LoadJob { job, values, policy } => {
                match ProfiledSeries::from_values(&values) {
                    Ok(ps) => {
                        self.jobs
                            .lock()
                            .expect("jobs lock")
                            .insert(job.clone(), Arc::new(Job { ps, policy }));
                        let ack = vec![("job", Value::str(&job)), ("len", values.len().into())];
                        response_ok(Value::obj(ack), None)
                    }
                    Err(e) => response_err(&e),
                }
            }
            ClusterRequest::Work { job, shard } => {
                let entry = self.jobs.lock().expect("jobs lock").get(&job).cloned();
                let Some(entry) = entry else {
                    // Stable kind the coordinator reacts to by re-sending the job.
                    return Reply::Send(response_err(&ServeError::UnknownSeries(job)));
                };
                let range = (shard.k_start, shard.k_end);
                match stomp_diagonal_range_ws(&entry.ps, shard.l, entry.policy, range, ws) {
                    Ok(partial) => {
                        let done = self.work_done.fetch_add(1, Ordering::SeqCst) + 1;
                        match self.config.fault {
                            Some(Fault::CloseAfter { after }) if done > after => {
                                return Reply::Close
                            }
                            Some(Fault::HangAfter { after, stall }) if done > after => {
                                std::thread::sleep(stall);
                            }
                            _ => {}
                        }
                        if self.recorder.enabled() {
                            self.recorder.add("cluster.worker.shards_computed", 1);
                        }
                        response_ok(encode_partial(&shard, &partial.mp, &partial.ip), None)
                    }
                    Err(e) => response_err(&e),
                }
            }
            ClusterRequest::DropJob { job } => {
                let dropped = self.jobs.lock().expect("jobs lock").remove(&job).is_some();
                response_ok(Value::obj(vec![("dropped", Value::Bool(dropped))]), None)
            }
            ClusterRequest::Shutdown => {
                return Reply::SendThenStop(response_ok(Value::str("shutting down"), None))
            }
        };
        Reply::Send(reply)
    }

    fn stop(&self) {}
}

/// A worker running on a background thread of *this* process — the shape
/// the bench scaling scenario, the check oracle, and the tests use.
pub struct LocalWorker {
    addr: SocketAddr,
    handle: Option<std::thread::JoinHandle<ServeResult<()>>>,
}

impl LocalWorker {
    /// Binds an ephemeral-port worker and runs it on a new thread.
    pub fn spawn(config: WorkerConfig) -> ServeResult<LocalWorker> {
        let worker = Worker::bind("127.0.0.1:0", config, SharedRecorder::noop())?;
        let addr = worker.local_addr()?;
        let handle = std::thread::spawn(move || worker.run());
        Ok(LocalWorker { addr, handle: Some(handle) })
    }

    /// The worker's address, as a `host:port` string for the coordinator.
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Sends `shutdown` and joins the worker thread, as dropping it does.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for LocalWorker {
    fn drop(&mut self) {
        let limits =
            Timeouts::new().with_connect(Duration::from_secs(2)).with_read(Duration::from_secs(2));
        let _ = Client::connect_with(self.addr, &limits).and_then(|mut c| c.shutdown());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Spawns `count` in-process workers with the same config.
pub fn spawn_local_workers(count: usize, config: WorkerConfig) -> ServeResult<Vec<LocalWorker>> {
    (0..count).map(|_| LocalWorker::spawn(config.clone())).collect()
}
