//! Transports: line-delimited JSON over stdin/stdout and over TCP with a
//! fixed worker-thread pool.
//!
//! The TCP server binds one `TcpListener` shared by `workers` threads;
//! each worker accepts a connection, drains its request lines, and goes
//! back to accepting. `accept(2)` on a shared listener is the thread pool:
//! no queue, no async runtime, no dependency beyond `std`.
//!
//! ## Per-connection multiplexing
//!
//! A streamed batch used to occupy its connection until the last
//! envelope was written — a client could not interleave a second batch
//! (or even a `ping`) on the same socket. Now each connection runs a
//! small [`MuxGate`]-bounded set of scoped side threads: a request that
//! is a streamed batch is handed to a side thread (up to
//! `EngineConfig::mux_streams` of them) while the reader keeps draining
//! request lines, and every response line is written atomically through
//! a shared, mutex-serialized writer. Envelopes of concurrent streams
//! interleave on the wire; the `stream.request` id echo (see
//! [`proto::with_stream_tag`](crate::proto::with_stream_tag)) is what
//! lets the client demultiplex them. Non-streaming requests are still
//! answered inline on the reader thread, in arrival order.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use crate::ctx::{request_op, RequestCtx};
use crate::engine::Engine;
use crate::lockorder::{rank, OrderedMutex};
use crate::metrics::Phase;
use crate::proto::{Op, ServiceResult};
use crate::trace::TraceCtx;
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;

/// A running TCP server. Dropping the handle does *not* stop the workers;
/// call [`shutdown`](ServerHandle::shutdown) for a clean stop.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until every worker exits (i.e. forever, unless another
    /// thread calls [`shutdown`](Self::shutdown)) — the foreground mode of
    /// `srank serve --listen`.
    pub fn join(mut self) {
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Signals every worker to stop and joins them. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Workers block in accept(); poke each one awake.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Serves `engine` on `addr` (e.g. `"127.0.0.1:0"`) with a fixed pool of
/// `workers` threads. Returns immediately; the workers run detached until
/// [`ServerHandle::shutdown`].
pub fn serve_tcp(engine: Arc<Engine>, addr: &str, workers: usize) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let listener = Arc::new(listener);
    let stop = Arc::new(AtomicBool::new(false));
    let workers = (1..=workers.max(1))
        .map(|_| {
            let listener = Arc::clone(&listener);
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || loop {
                let conn = listener.accept();
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                match conn {
                    Ok((stream, _peer)) => {
                        // Client errors end this connection only.
                        let _ = serve_connection(&engine, stream, &stop);
                    }
                    // Transient accept failures (ECONNABORTED from a
                    // client resetting mid-handshake, EMFILE under fd
                    // pressure) must not shrink the worker pool; back off
                    // briefly and keep accepting.
                    Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
                }
            })
        })
        .collect();
    Ok(ServerHandle {
        addr,
        stop,
        workers,
    })
}

/// Bounds how many streamed batches one connection runs concurrently.
/// `acquire` blocks the reader while the connection is at capacity, so
/// the pipeline's thread count stays at `cap` side threads per
/// connection no matter how many stream requests the client floods in.
struct MuxGate {
    cap: usize,
    active: OrderedMutex<rank::MuxGate, usize>,
    freed: Condvar,
}

impl MuxGate {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            active: OrderedMutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Whether streamed batches may run on side threads at all.
    fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// Acquires a slot, polling `halt` every 100 ms so a reader blocked
    /// behind a full gate stays responsive to shutdown and to writer
    /// failure. Returns `false` (no slot taken) when halted.
    fn acquire(&self, halt: impl Fn() -> bool) -> bool {
        let mut active = self.active.lock();
        while *active >= self.cap {
            if halt() {
                return false;
            }
            active = active.wait_timeout(&self.freed, std::time::Duration::from_millis(100));
        }
        *active += 1;
        true
    }

    fn release(&self) {
        *self.active.lock() -= 1;
        self.freed.notify_one();
    }

    /// Streams currently running on side threads.
    fn in_flight(&self) -> usize {
        *self.active.lock()
    }
}

/// The per-connection context shared by the reader loop and the stream
/// side threads.
struct Connection<'env, W> {
    engine: &'env Engine,
    /// Response lines from the reader thread and every side thread are
    /// serialized through this lock, one complete line per acquisition.
    writer: &'env OrderedMutex<rank::ConnWriter, W>,
    gate: &'env MuxGate,
    /// The connection's death flag: set when any thread hits a write
    /// error or when the reader leaves its loop (EOF, idle disconnect,
    /// shutdown). The reader stops accepting new requests once set, and
    /// the same flag rides into the engine as the cancellation signal —
    /// a `session.get_next` parked on a busy session is dropped at grant
    /// time instead of executing against this dead writer (counted in
    /// `stats.session_queue.cancelled`).
    dead: &'env Arc<AtomicBool>,
    /// The server-wide shutdown flag (TCP only; `None` on stdio). A
    /// reader waiting on a full mux gate re-checks it, so a stalled
    /// client can never wedge a worker against shutdown.
    stop: Option<&'env AtomicBool>,
}

// Manual impl: derive(Clone)/derive(Copy) would demand W: Clone/Copy.
impl<W> Clone for Connection<'_, W> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<W> Copy for Connection<'_, W> {}

fn serve_connection(engine: &Engine, stream: TcpStream, stop: &AtomicBool) -> std::io::Result<()> {
    // A short read timeout keeps this worker responsive to shutdown even
    // while a client holds the connection open without sending anything.
    stream.set_read_timeout(Some(std::time::Duration::from_millis(100)))?;
    // Responses are written as (line, newline) pairs followed by a read;
    // without TCP_NODELAY the split write interacts with delayed ACKs and
    // adds tens of milliseconds to every request.
    stream.set_nodelay(true)?;
    // Each worker serves one connection at a time, so a silent peer is a
    // captured worker; disconnect it after an idle deadline to return the
    // worker to the accept pool (clients reconnect per request anyway).
    const IDLE_DISCONNECT: std::time::Duration = std::time::Duration::from_secs(60);
    let mut last_activity = std::time::Instant::now();
    let writer = OrderedMutex::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    let gate = MuxGate::new(engine.config().mux_streams);
    let dead = Arc::new(AtomicBool::new(false));
    // Scoped: leaving the loop (EOF, idle, shutdown) joins the in-flight
    // stream side threads, so a connection never leaks a detached writer.
    std::thread::scope(|scope| {
        let conn = Connection {
            engine,
            writer: &writer,
            gate: &gate,
            dead: &dead,
            stop: Some(stop),
        };
        // Lines accumulate as raw bytes: `read_until` keeps partial reads
        // across timeouts intact (a `read_line` would discard bytes when a
        // timeout splits a multi-byte UTF-8 character).
        let mut line: Vec<u8> = Vec::new();
        let outcome = loop {
            if stop.load(Ordering::SeqCst) || dead.load(Ordering::Relaxed) {
                break Ok(());
            }
            match reader.read_until(b'\n', &mut line) {
                Ok(0) if line.is_empty() => break Ok(()), // EOF
                Ok(n) => {
                    let eof = n == 0 || line.last() != Some(&b'\n');
                    if let Err(e) = respond(conn, &line, scope) {
                        break Err(e);
                    }
                    line.clear();
                    if eof {
                        break Ok(());
                    }
                    last_activity = std::time::Instant::now();
                }
                // Timeout: partial bytes stay accumulated in `line`; loop
                // to re-check the stop flag and the idle deadline, then
                // keep reading.
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // A connection with streams still emitting on side
                    // threads is live, not idle — the reader used to sit
                    // inside those streams (which suppressed this check),
                    // so a long stream must not trip the disconnect now.
                    if gate.in_flight() > 0 {
                        last_activity = std::time::Instant::now();
                    } else if last_activity.elapsed() >= IDLE_DISCONNECT {
                        break Ok(());
                    }
                    continue;
                }
                Err(e) => break Err(e),
            }
        };
        // The connection is over: raise the death flag *before* the scope
        // joins in-flight side threads, so any of their sub-requests
        // still parked on busy sessions cancel at grant instead of
        // burning enumeration budget into this closed socket.
        dead.store(true, Ordering::Relaxed);
        outcome
    })
}

/// Writes one complete response line (line + newline in a single buffer:
/// split small writes cost an extra TCP segment — and, without
/// TCP_NODELAY, a delayed-ACK round — per line) under the shared writer
/// lock, so concurrent streams interleave whole lines, never bytes.
fn write_line(
    writer: &OrderedMutex<rank::ConnWriter, impl Write>,
    response: &str,
) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(response.len() + 1);
    bytes.extend_from_slice(response.as_bytes());
    bytes.push(b'\n');
    let mut writer = writer.lock();
    writer.write_all(&bytes)?;
    writer.flush()
}

/// Runs one request to completion, writing its response line(s) through
/// the shared writer. A panic inside the engine (it should not happen;
/// request validation exists to prevent it) is caught and answered as an
/// `internal` error instead of unwinding the worker thread out of the
/// pool (TCP) or killing the process (stdio).
fn handle_catching<W: Write>(
    engine: &Engine,
    writer: &OrderedMutex<rank::ConnWriter, W>,
    request: &Value,
    op: ServiceResult<Op>,
    ctx: RequestCtx,
) -> std::io::Result<()> {
    let mut sink = |response: &str| {
        // The flush span rides the caller's ambient ctx: the sub-request
        // for streamed envelopes, the request root for inline responses.
        let _flush = engine.time(Phase::Flush, None);
        // Chaos seam: a congested socket is simulated by stalling the
        // flush (`SRANK_FAULTS=slow_flush...`).
        if let Some(delay) = engine.faults().flush_delay() {
            std::thread::sleep(delay);
        }
        write_line(writer, response)
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.handle_streamed(request, op, &mut sink, ctx)
    }));
    match outcome {
        Ok(io_result) => io_result,
        Err(_) => write_line(
            writer,
            r#"{"ok": false, "error": {"code": "internal", "message": "request handler panicked"}}"#,
        ),
    }
}

/// Handles one raw request line — shared by the TCP and stream
/// transports. Most requests answer with exactly one line, inline on the
/// calling (reader) thread; a `batch` with `"stream": true` writes one
/// envelope line per sub-request *as it completes* plus a terminal
/// summary line (wire protocol v2 — each line is flushed immediately so
/// envelopes reach the client before the batch finishes), and — when the
/// connection's mux gate has room — runs on a scoped side thread so the
/// reader can keep accepting interleaved requests.
fn respond<'scope, W>(
    conn: Connection<'scope, W>,
    line: &[u8],
    scope: &'scope std::thread::Scope<'scope, '_>,
) -> std::io::Result<()>
where
    W: Write + Send + 'scope,
{
    let text = String::from_utf8_lossy(line);
    if text.trim().is_empty() {
        return Ok(());
    }
    // Chaos seam: sever the connection instead of answering
    // (`SRANK_FAULTS=drop_connection=RATE`) — the client sees an EOF
    // mid-request, exactly like a network partition.
    if conn.engine.faults().should_drop_connection() {
        return Err(std::io::Error::other("injected fault: connection dropped"));
    }
    // The transport owns the request root span: it must cover the JSON
    // parse and the response flush, which the engine never sees. An
    // unsampled request runs under `TraceCtx::UNSAMPLED` so the engine's
    // entry points know the decision was already made. The request's
    // context starts here, with that decision and the connection's
    // death flag.
    let mut root = conn.engine.tracer().root_span();
    let parse = conn.engine.tracer().span(root.ctx(), Phase::Parse);
    let parsed = serde_json::from_str(&text);
    drop(parse);
    let ctx = RequestCtx {
        trace: match root.is_recording() {
            true => root.ctx(),
            false => TraceCtx::UNSAMPLED,
        },
        cancel: Some(Arc::clone(conn.dead)),
        ..RequestCtx::default()
    };
    let Ok(request) = parsed else {
        // Not JSON: let the engine produce its parse_error envelope.
        let mut sink = |response: &str| write_line(conn.writer, response);
        return conn.engine.handle_line_streamed(&text, &mut sink, ctx);
    };
    let op = request_op(&request);
    if let Ok(op) = op {
        root.set_op(op);
    }
    if Engine::is_streaming(&op, &request) && conn.gate.enabled() {
        // Blocks while `mux_streams` streams are already in flight —
        // the reader pauses instead of spawning without bound, but stays
        // responsive to shutdown and to a dead writer.
        let halted = !conn.gate.acquire(|| {
            conn.dead.load(Ordering::Relaxed)
                || conn.stop.is_some_and(|stop| stop.load(Ordering::SeqCst))
        });
        if halted {
            return Ok(()); // tearing down; the reader loop exits next
        }
        // The root span moves onto the side thread (it completes when
        // the stream's last envelope has been written there). Flush the
        // reader thread's staged records first (the parse span lives
        // there), so the finished tree is complete.
        if root.is_recording() {
            conn.engine.tracer().flush_thread();
        }
        scope.spawn(move || {
            let result = handle_catching(conn.engine, conn.writer, &request, op, ctx);
            drop(root);
            if result.is_err() {
                conn.dead.store(true, Ordering::Relaxed);
            }
            conn.gate.release();
        });
        return Ok(());
    }
    handle_catching(conn.engine, conn.writer, &request, op, ctx)
}

/// Serves `engine` over arbitrary reader/writer streams — the
/// `srank serve --stdio` transport, and directly testable with byte
/// buffers. Returns when the reader reaches EOF (after joining any
/// in-flight multiplexed streams). `writer` must be `Send` so streamed
/// batches can interleave from side threads, exactly as over TCP.
pub fn serve_stream(
    engine: &Engine,
    reader: impl std::io::Read,
    writer: impl Write + Send,
) -> std::io::Result<()> {
    let reader = BufReader::new(reader);
    let writer = OrderedMutex::new(writer);
    let gate = MuxGate::new(engine.config().mux_streams);
    let dead = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let conn = Connection {
            engine,
            writer: &writer,
            gate: &gate,
            dead: &dead,
            stop: None,
        };
        let run = || -> std::io::Result<()> {
            for line in reader.lines() {
                if dead.load(Ordering::Relaxed) {
                    break; // a side thread hit a write error: writer is dead
                }
                let line = line?;
                respond(conn, line.as_bytes(), scope)?;
            }
            Ok(())
        };
        let outcome = run();
        dead.store(true, Ordering::Relaxed);
        outcome
    })
}

/// `serve_stream` wired to this process's stdin/stdout. (`Stdout` rather
/// than `StdoutLock`: the lock guard is not `Send`, and the shared-writer
/// mutex already serializes response lines.)
pub fn serve_stdio(engine: &Engine) -> std::io::Result<()> {
    serve_stream(engine, std::io::stdin().lock(), std::io::stdout())
}

/// Serves the Prometheus text exposition on `addr` as a persistent
/// keep-alive HTTP endpoint (`serve --metrics-port`): each connection
/// runs on its own detached thread and answers `GET /metrics` (any
/// path except `/healthz`, which serves the `health` op's JSON and
/// answers 503 while the server is shedding) *repeatedly* —
/// HTTP/1.1 keep-alive is the default, so
/// a Prometheus scraper reuses one connection across scrape intervals
/// instead of paying a TCP handshake per scrape. `Connection: close`
/// (or an HTTP/1.0 request without `keep-alive`) closes after the
/// response; idle connections are dropped after 30 s. Every response
/// carries a fresh [`Engine::prometheus_text`] rendering (via
/// `EngineCore::prometheus_text`). Returns a [`ServerHandle`]; shut it
/// down like the main listener (connection threads notice the stop flag
/// within their read timeout).
pub fn serve_metrics(engine: Arc<Engine>, addr: &str) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || loop {
            let conn = listener.accept();
            if stop.load(Ordering::SeqCst) {
                return;
            }
            match conn {
                Ok((stream, _peer)) => {
                    // Detached per-connection thread: the accept loop
                    // keeps listening while a scraper holds its
                    // connection open between scrapes. Errors end that
                    // connection only.
                    let engine = Arc::clone(&engine);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        serve_metrics_connection(&engine, stream, &stop);
                    });
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
            }
        })
    };
    Ok(ServerHandle {
        addr,
        stop,
        workers: vec![worker],
    })
}

/// One keep-alive metrics connection: answer every complete HTTP
/// request head with a fresh exposition until the peer closes, asks to
/// close, idles out, or the server stops.
fn serve_metrics_connection(engine: &Engine, mut stream: TcpStream, stop: &AtomicBool) {
    use std::io::Read as _;
    const IDLE_DISCONNECT: std::time::Duration = std::time::Duration::from_secs(30);
    // A request head larger than this is rejected with 431 — the
    // endpoint only ever answers plain GETs, so anything bigger is a
    // confused (or hostile) client trying to buffer unbounded bytes.
    const MAX_HEAD_BYTES: usize = 8 * 1024;
    // A peer that has *started* a request head but not finished it
    // within this budget is a slow-loris: it gets a typed 408 instead
    // of holding the 30-second idle slot open one byte at a time.
    const PARTIAL_HEAD_DEADLINE: std::time::Duration = std::time::Duration::from_secs(2);
    // A short read timeout keeps the thread responsive to shutdown while
    // the scraper sits between scrapes.
    if stream
        .set_read_timeout(Some(std::time::Duration::from_millis(100)))
        .is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut last_activity = std::time::Instant::now();
    // Set when `buf` holds the start of a not-yet-complete head.
    let mut partial_since: Option<std::time::Instant> = None;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Answer every complete request head already buffered (GETs have
        // no body, so the head boundary is the request boundary).
        while let Some(end) = find_header_end(&buf) {
            #[expect(
                clippy::indexing_slicing,
                reason = "find_header_end returns an offset within buf"
            )]
            let head = String::from_utf8_lossy(&buf[..end]).into_owned();
            buf.drain(..end);
            partial_since = None;
            let close = metrics_request_wants_close(&head);
            let watchdog = &engine.obs().watchdog;
            watchdog.scrape_start();
            // `/healthz` answers the `health` op's JSON (503 while the
            // server is shedding, so load balancers back off); any other
            // path serves the Prometheus exposition.
            let (status, content_type, body) = if request_path(&head).starts_with("/healthz") {
                let health = engine.health_value();
                let status = match health.get("status").and_then(Value::as_str) {
                    Some("overloaded") => "503 Service Unavailable",
                    _ => "200 OK",
                };
                let body = serde_json::to_string(&health).unwrap_or_else(|_| "{}".into());
                (status, "application/json", body)
            } else {
                (
                    "200 OK",
                    "text/plain; version=0.0.4",
                    engine.prometheus_text(),
                )
            };
            watchdog.scrape_end();
            let response = format!(
                "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
                 Content-Length: {}\r\nConnection: {}\r\n\r\n{body}",
                body.len(),
                if close { "close" } else { "keep-alive" },
            );
            if stream.write_all(response.as_bytes()).is_err() || stream.flush().is_err() {
                return;
            }
            last_activity = std::time::Instant::now();
            if close {
                let _ = stream.shutdown(std::net::Shutdown::Write);
                return;
            }
        }
        if buf.len() > MAX_HEAD_BYTES {
            metrics_reject(&mut stream, "431 Request Header Fields Too Large");
            return;
        }
        if let Some(since) = partial_since {
            if since.elapsed() >= PARTIAL_HEAD_DEADLINE {
                metrics_reject(&mut stream, "408 Request Timeout");
                return;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                #[expect(clippy::indexing_slicing, reason = "read returns n <= chunk.len()")]
                buf.extend_from_slice(&chunk[..n]);
                last_activity = std::time::Instant::now();
                if partial_since.is_none() && !buf.is_empty() {
                    partial_since = Some(std::time::Instant::now());
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if last_activity.elapsed() >= IDLE_DISCONNECT {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Writes a typed error status line on a metrics connection and closes
/// it — the shared shape of the oversized-head (431) and slow-loris
/// (408) rejections.
fn metrics_reject(stream: &mut TcpStream, status: &str) {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{status}",
        status.len(),
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// The request path of an HTTP request head (`"/"` when unparseable).
fn request_path(head: &str) -> &str {
    head.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("/")
}

/// Index one past the end of the first complete HTTP request head in
/// `buf` (`\r\n\r\n`, or a tolerated bare `\n\n`), if any.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
        return Some(i + 4);
    }
    buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2)
}

/// Whether the request head asks for the connection to close after the
/// response: an explicit `Connection: close`, or HTTP/1.0 without an
/// explicit `Connection: keep-alive`.
fn metrics_request_wants_close(head: &str) -> bool {
    let http10 = head
        .lines()
        .next()
        .is_some_and(|l| l.trim_end().ends_with("HTTP/1.0"));
    let mut connection: Option<String> = None;
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("connection") {
                connection = Some(value.trim().to_ascii_lowercase());
            }
        }
    }
    match connection.as_deref() {
        Some("close") => true,
        Some("keep-alive") => false,
        _ => http10,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    #[test]
    fn stream_transport_answers_line_per_line() {
        let engine = Engine::new(EngineConfig::default());
        let input = b"{\"id\": 1, \"op\": \"ping\"}\n\nnot json\n".to_vec();
        let mut out = Vec::new();
        serve_stream(&engine, &input[..], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "blank line skipped: {text}");
        let ok = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(ok.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(ok.get("id").unwrap().as_u64(), Some(1));
        let err = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(err.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            err.get("error").unwrap().get("code").unwrap().as_str(),
            Some("parse_error")
        );
    }
}
