//! The `valmod serve` front end: the query engine as a
//! [`LineService`] on the shared [`LineServer`] — one line-delimited
//! request/response pair at a time per connection, many concurrent
//! connections, graceful shutdown.
//!
//! A connection thread is cheap bookkeeping — all heavy work is bounded by
//! the engine's worker pool, so a flood of connections degrades into
//! `busy` responses, not into unbounded compute. The `shutdown` command
//! runs the line server's shutdown sequence, whose stop hook shuts the
//! engine down and joins its workers.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

use valmod_obs::SharedRecorder;

use crate::engine::QueryEngine;
use crate::error::ServeResult;
use crate::line_server::{ConnectionCount, LineServer, LineService, Reply};
use crate::protocol::{hello_result, response_err, response_ok, response_query, Request};
use crate::response::{Ack, SaveAck};
use crate::value::Value;

/// A bound-but-not-yet-running server.
pub struct Server(LineServer<QueryEngine>);

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) around an engine.
    /// The per-request line cap comes from the engine's
    /// [`crate::engine::EngineConfig::max_line_bytes`].
    pub fn bind(addr: impl ToSocketAddrs, engine: QueryEngine) -> ServeResult<Server> {
        let max_line_bytes = engine.config().max_line_bytes;
        let net = SharedRecorder::from(engine.registry().clone());
        Ok(Server(LineServer::bind(addr, engine, max_line_bytes, net)?))
    }

    /// A handle that reports the number of live connections after `run`
    /// consumes the server.
    pub fn connection_count(&self) -> ConnectionCount {
        self.0.connection_count()
    }

    /// The bound address (needed when binding to port 0).
    pub fn local_addr(&self) -> ServeResult<SocketAddr> {
        self.0.local_addr()
    }

    /// Shared handle to the engine (for embedding / inspection).
    pub fn engine(&self) -> Arc<QueryEngine> {
        Arc::clone(self.0.service())
    }

    /// Serves until a `shutdown` command arrives, then drains and returns.
    pub fn run(self) -> ServeResult<()> {
        self.0.run()
    }
}

/// Each successfully parsed command records its wall-clock latency into a
/// per-command histogram (`serve.cmd.<cmd>_us`).
impl LineService for QueryEngine {
    type Conn = ();

    fn serve(&self, _: &mut (), request: &Value) -> Reply {
        let request = match Request::from_value(request) {
            Ok(req) => req,
            Err(e) => return Reply::Send(response_err(&e)),
        };
        let cmd = request.cmd_name();
        let started = std::time::Instant::now();
        let reply = execute(self, request);
        self.registry()
            .histogram(&format!("serve.cmd.{cmd}_us"))
            .record(started.elapsed().as_micros() as f64);
        reply
    }

    fn stop(&self) {
        self.shutdown();
        self.join();
    }
}

/// Executes one parsed request against the engine.
fn execute(engine: &QueryEngine, request: Request) -> Reply {
    let reply = match request {
        Request::Load { name, values, hot, replace } => {
            let policy = valmod_mp::ExclusionPolicy::HALF;
            result_response(
                engine
                    .load(&name, values, &hot, policy, replace)
                    .map(|(version, len)| Ack { name, version, len }.to_value()),
            )
        }
        Request::Append { name, values } => result_response(
            engine
                .append(&name, &values)
                .map(|(version, len)| Ack { name, version, len }.to_value()),
        ),
        Request::Query(spec) => match engine.query(spec) {
            Ok(outcome) => response_query(
                outcome.payload.as_ref().clone(),
                Some(outcome.cached),
                outcome.coalesced,
            ),
            Err(e) => response_err(&e),
        },
        Request::Sleep { ms, deadline } => match engine.sleep(ms, deadline) {
            Ok(outcome) => response_ok(outcome.payload.as_ref().clone(), Some(outcome.cached)),
            Err(e) => response_err(&e),
        },
        Request::Stats => response_ok(engine.stats(), None),
        Request::Ping => response_ok(Value::str("pong"), None),
        Request::Save => {
            result_response(engine.persist().map(|snapshots| SaveAck { snapshots }.to_value()))
        }
        Request::Shutdown => {
            return Reply::SendThenStop(response_ok(Value::str("shutting down"), None))
        }
        Request::Hello { .. } => response_ok(hello_result(&["serve"]), None),
    };
    Reply::Send(reply)
}

fn result_response(result: ServeResult<Value>) -> Value {
    match result {
        Ok(v) => response_ok(v, None),
        Err(e) => response_err(&e),
    }
}
