//! The one line-protocol TCP server under both `valmod serve` and
//! `valmod cluster-worker` (DESIGN.md §8): bind, the accept loop, one
//! thread per connection, bounded framing, the reply writer, a send-stall
//! limit, and the shutdown sequence — reply, stop accepting, half-close
//! every live connection's reads, join the handlers, run the stop hook.
//! What differs between the two servers is a [`LineService`].

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use valmod_obs::{Recorder, SharedRecorder};

use crate::error::{ServeError, ServeResult};
use crate::protocol::response_err;
use crate::value::Value;

/// Default cap on one request line. Large enough for a multi-million-sample
/// `load`, small enough that a newline-free flood cannot exhaust memory.
pub const DEFAULT_MAX_LINE_BYTES: usize = 64 << 20;

/// The send timeout on every accepted stream: a write call that moves no
/// bytes for this long fails and the connection is dropped. A stall can
/// begin part-way through a call, so a handler whose peer stops reading
/// exits within twice this. Clients that read each reply as it arrives
/// never reach it.
pub const SEND_STALL_LIMIT: Duration = Duration::from_secs(5);

/// A cloneable observer of how many connections are currently live; survives
/// `run` consuming the server, so tests can assert that fault scenarios do
/// not leak handler threads.
#[derive(Clone, Default)]
pub struct ConnectionCount(Arc<Mutex<HashMap<u64, TcpStream>>>);

impl ConnectionCount {
    /// Number of connections with a live handler right now.
    pub fn live(&self) -> usize {
        self.map().len()
    }

    fn map(&self) -> std::sync::MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.0.lock().expect("connections lock")
    }

    /// Registers (`Some`) or forgets (`None`) connection `id`, publishing
    /// the new count under the same lock so the gauge never goes stale.
    fn update(&self, id: u64, stream: Option<TcpStream>, net: &SharedRecorder) {
        let mut conns = self.map();
        match stream {
            Some(stream) => conns.insert(id, stream),
            None => conns.remove(&id),
        };
        net.set("serve.conn.active", conns.len() as f64);
    }
}

/// What a service answers to one request.
pub enum Reply {
    /// Write the reply and keep reading.
    Send(Value),
    /// Write the reply, then shut the whole server down.
    SendThenStop(Value),
    /// Close the connection without a reply (fault injection: the
    /// protocol-level shape of a kill -9).
    Close,
}

/// The protocol-specific half of a [`LineServer`].
pub trait LineService: Send + Sync + 'static {
    /// State one connection keeps across its requests.
    type Conn: Default;

    /// Answers one parsed request line.
    fn serve(&self, conn: &mut Self::Conn, request: &Value) -> Reply;

    /// Runs once, after every connection handler has exited.
    fn stop(&self);
}

/// A bound-but-not-yet-running line-protocol server around a service.
pub struct LineServer<S> {
    listener: TcpListener,
    service: Arc<S>,
    max_line_bytes: usize,
    /// Receives `serve.net.bytes_in/out` and `serve.conn.active`.
    net: SharedRecorder,
    connections: ConnectionCount,
}

impl<S: LineService> LineServer<S> {
    /// Binds to `addr` (port 0 for an ephemeral port). Request lines longer
    /// than `max_line_bytes` are refused without being buffered.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: S,
        max_line_bytes: usize,
        net: SharedRecorder,
    ) -> ServeResult<Self> {
        Ok(LineServer {
            listener: TcpListener::bind(addr)?,
            service: Arc::new(service),
            max_line_bytes,
            net,
            connections: ConnectionCount::default(),
        })
    }

    /// The bound address (needed when binding to port 0).
    pub fn local_addr(&self) -> ServeResult<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// The service this server runs.
    pub(crate) fn service(&self) -> &Arc<S> {
        &self.service
    }

    /// A handle that reports the number of live connections after `run`
    /// consumes the server.
    pub fn connection_count(&self) -> ConnectionCount {
        self.connections.clone()
    }

    /// Serves until a request is answered with [`Reply::SendThenStop`], then
    /// drains the connections, runs the service's stop hook and returns.
    pub fn run(self) -> ServeResult<()> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut handlers = Vec::new();
        for id in 0u64.. {
            let (stream, _) = match self.listener.accept() {
                Ok(conn) => conn,
                Err(_) if stop.load(Ordering::SeqCst) => break,
                Err(e) => return Err(ServeError::Io(e)),
            };
            if stop.load(Ordering::SeqCst) {
                break; // the self-connect (or a late client) during shutdown
            }
            // A stream shutdown cannot reach, or without the stall limit,
            // is never served.
            let set_limit = stream.set_write_timeout(Some(SEND_STALL_LIMIT));
            let Ok(registered) = set_limit.and_then(|()| stream.try_clone()) else { continue };
            self.connections.update(id, Some(registered), &self.net);
            let (service, net, max) =
                (Arc::clone(&self.service), self.net.clone(), self.max_line_bytes);
            let (connections, stop) = (self.connections.clone(), Arc::clone(&stop));
            handlers.push(std::thread::spawn(move || {
                if serve_connection(&*service, &net, max, &stream) {
                    // Flip the stop flag first, then unblock the accept loop.
                    stop.store(true, Ordering::SeqCst);
                    let _ = TcpStream::connect(addr);
                }
                connections.update(id, None, &net);
            }));
            handlers.retain(|h| !h.is_finished());
        }
        for conn in self.connections.map().values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        for h in handlers {
            let _ = h.join();
        }
        self.service.stop();
        Ok(())
    }
}

/// One connection's read–dispatch–write loop; returns whether the server
/// should stop.
fn serve_connection<S: LineService>(
    service: &S,
    net: &SharedRecorder,
    max_line_bytes: usize,
    stream: &TcpStream,
) -> bool {
    let mut reader = BufReader::new(stream);
    let mut state = S::Conn::default();
    loop {
        let refusal = match read_bounded_line(&mut reader, max_line_bytes) {
            Ok(LineRead::Eof) | Err(_) => return false,
            Ok(LineRead::TooLong) => {
                format!("request line exceeds the {max_line_bytes}-byte limit")
            }
            Ok(LineRead::NotUtf8) => "request line is not valid UTF-8".to_string(),
            Ok(LineRead::Line(line)) if line.trim().is_empty() => continue,
            Ok(LineRead::Line(line)) => {
                net.add("serve.net.bytes_in", line.len() as u64);
                let reply = match Value::parse(&line) {
                    Ok(request) => service.serve(&mut state, &request),
                    Err(e) => Reply::Send(response_err(&e)),
                };
                match reply {
                    Reply::Send(v) if write_reply(net, stream, &v) => continue,
                    Reply::Send(_) => return false,
                    Reply::SendThenStop(v) => return write_reply(net, stream, &v),
                    Reply::Close => {
                        let _ = stream.shutdown(Shutdown::Both);
                        return false;
                    }
                }
            }
        };
        // The stream is mid-line, so resync is impossible: refuse and close.
        write_reply(net, stream, &response_err(&ServeError::Protocol(refusal)));
        return false;
    }
}

/// Writes one encoded reply line, counting its bytes; returns whether the
/// socket is still usable.
fn write_reply(net: &SharedRecorder, mut stream: &TcpStream, reply: &Value) -> bool {
    let mut encoded = reply.encode();
    encoded.push('\n');
    net.add("serve.net.bytes_out", encoded.len() as u64);
    stream.write_all(encoded.as_bytes()).is_ok() && stream.flush().is_ok()
}

/// One bounded attempt to read a request line.
enum LineRead {
    /// Clean EOF before any bytes of a new line.
    Eof,
    /// A complete line (newline stripped by the caller's trim).
    Line(String),
    /// The line exceeded the cap; the rest was not buffered.
    TooLong,
    /// The line was not valid UTF-8.
    NotUtf8,
}

/// Reads one `\n`-terminated line, buffering at most `max` bytes. Unlike
/// `BufReader::read_line`, a hostile client sending an endless newline-free
/// stream costs O(`max`) memory, not O(stream).
fn read_bounded_line(reader: &mut impl BufRead, max: usize) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let (used, terminated) = {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                if buf.is_empty() {
                    return Ok(LineRead::Eof);
                }
                (0, true) // EOF closes a final unterminated line
            } else {
                match chunk.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        buf.extend_from_slice(&chunk[..pos]);
                        (pos + 1, true)
                    }
                    None => {
                        buf.extend_from_slice(chunk);
                        (chunk.len(), false)
                    }
                }
            }
        };
        reader.consume(used);
        if buf.len() > max {
            return Ok(LineRead::TooLong);
        }
        if terminated {
            break;
        }
    }
    match String::from_utf8(buf) {
        Ok(s) => Ok(LineRead::Line(s)),
        Err(_) => Ok(LineRead::NotUtf8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read_all(input: &[u8], max: usize) -> Vec<String> {
        let mut reader = Cursor::new(input.to_vec());
        let mut out = Vec::new();
        loop {
            match read_bounded_line(&mut reader, max).unwrap() {
                LineRead::Eof => return out,
                LineRead::Line(l) => out.push(l),
                LineRead::TooLong => {
                    out.push("<too long>".into());
                    return out;
                }
                LineRead::NotUtf8 => {
                    out.push("<not utf-8>".into());
                    return out;
                }
            }
        }
    }

    #[test]
    fn bounded_reader_splits_lines_and_handles_final_fragment() {
        assert_eq!(read_all(b"a\nbb\nccc", 100), vec!["a", "bb", "ccc"]);
        assert_eq!(read_all(b"", 100), Vec::<String>::new());
        assert_eq!(read_all(b"\n\n", 100), vec!["", ""]);
    }

    #[test]
    fn bounded_reader_caps_newline_free_floods() {
        let flood = vec![b'x'; 1 << 16];
        assert_eq!(read_all(&flood, 1024), vec!["<too long>"]);
        // A line exactly at the cap still passes.
        let mut exact = vec![b'y'; 1024];
        exact.push(b'\n');
        assert_eq!(read_all(&exact, 1024), vec!["y".repeat(1024)]);
    }

    #[test]
    fn bounded_reader_flags_invalid_utf8() {
        assert_eq!(read_all(b"\xff\xfe\n", 100), vec!["<not utf-8>"]);
    }
}
