//! A minimal blocking client for the TCP transport — used by
//! `srank query`, the integration tests, and the benches.
//!
//! ## Multiplexing
//!
//! One connection can keep several *streamed batches* in flight at once
//! (wire-protocol v2.1): [`Client::stream_begin`] sends a
//! `batch`+`"stream": true` request without waiting, and
//! [`Client::stream_next`] / [`Client::stream_next_any`] pull envelopes
//! as they arrive. Every streamed line carries a `stream.request` tag
//! echoing the outer request's `id`; the client routes each incoming
//! line to its stream by that echo (lines for *other* in-flight streams
//! are buffered, never dropped), which is what makes interleaving safe.
//! A request without an `id` gets a unique client-generated one
//! (`"mux-N"`) injected before sending, so every stream is addressable.
//!
//! Plain [`Client::call`]s may be issued between pulls: stream lines that
//! arrive while waiting for the call's response are routed to their
//! streams' buffers.
//!
//! ## Connection death
//!
//! When the server closes the socket (or a response line is truncated
//! mid-stream), every pending and future operation fails with a typed
//! [`ClientError::Transport`] — never a raw JSON parse error — and the
//! client stays *dead*: later calls fail fast instead of desyncing on a
//! half-read stream. [`Client::reconnect`] re-dials the remembered peer
//! address and revives the handle (in-flight streams are lost with the
//! old socket).
//!
//! ## Errors and retries
//!
//! Every operation returns [`ClientResult`], whose error type
//! [`ClientError`] separates the four failure classes a caller handles
//! differently: transport death, a typed server error, a timeout
//! (client socket or server `deadline_exceeded`), and server load
//! shedding (`overloaded`, carrying the server's `retry_after_ms`
//! hint). [`Client::call_retry`] layers a [`RetryPolicy`] — capped
//! exponential backoff with decorrelated jitter, bounded by a total
//! sleep budget — on top of [`Client::call_ok`], retrying only
//! idempotent reads (plus shed requests, which the server guarantees
//! never executed) and reconnecting through transport faults.

use crate::ctx::request_op;
use crate::engine::Engine;
use crate::proto::{ErrorCode, Op, ServiceError};
use serde_json::Value;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Result type of every [`Client`] operation.
pub type ClientResult<T> = Result<T, ClientError>;

/// What went wrong with a client operation — split by how a caller
/// recovers, not by where the message came from.
#[derive(Debug, Clone)]
pub enum ClientError {
    /// The connection failed, died, or desynchronized. The handle is
    /// dead; [`Client::reconnect`] (or a fresh connect) is required.
    /// Whether the request executed is unknown — retry only idempotent
    /// reads.
    Transport(String),
    /// The request ran out of time: a client-side socket timeout, or
    /// the server's typed `deadline_exceeded` answer. Same retry rule
    /// as transport errors (a socket timeout also kills the handle; a
    /// server deadline answer does not).
    Timeout(String),
    /// The server shed the request at admission (`overloaded`) without
    /// executing it — always safe to retry after `retry_after_ms`.
    Overloaded {
        message: String,
        /// The server's backoff hint, derived from its live backlog.
        retry_after_ms: Option<u64>,
    },
    /// Any other typed error envelope from the server, code preserved.
    Server(ServiceError),
}

impl ClientError {
    /// Classifies a decoded error envelope (see [`expect_ok`]).
    fn from_envelope(error: ServiceError) -> Self {
        match error.code {
            ErrorCode::Overloaded => ClientError::Overloaded {
                retry_after_ms: error.retry_after_ms,
                message: error.message,
            },
            ErrorCode::DeadlineExceeded => ClientError::Timeout(error.message),
            _ => ClientError::Server(error),
        }
    }

    /// The server's retry-after hint, when it gave one.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ClientError::Overloaded { retry_after_ms, .. } => *retry_after_ms,
            _ => None,
        }
    }

    /// Whether a retry can help. Shed requests are always retryable
    /// (the server guarantees they never executed); everything else
    /// only when the request is an idempotent read — a transport error
    /// or timeout leaves "did it execute?" unanswered, and re-running a
    /// state-advancing op would double-execute it.
    pub fn is_retryable(&self, idempotent: bool) -> bool {
        match self {
            ClientError::Overloaded { .. } => true,
            ClientError::Transport(_) | ClientError::Timeout(_) => idempotent,
            ClientError::Server(e) => idempotent && e.code.is_retryable(),
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(why) => write!(f, "transport: {why}"),
            ClientError::Timeout(why) => write!(f, "timeout: {why}"),
            ClientError::Overloaded {
                message,
                retry_after_ms,
            } => match retry_after_ms {
                Some(ms) => write!(f, "overloaded (retry after {ms}ms): {message}"),
                None => write!(f, "overloaded: {message}"),
            },
            ClientError::Server(e) => write!(f, "{}: {}", e.code.as_str(), e.message),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ClientError> for ServiceError {
    fn from(e: ClientError) -> Self {
        match e {
            ClientError::Server(err) => err,
            ClientError::Overloaded {
                message,
                retry_after_ms,
            } => ServiceError::overloaded(message, retry_after_ms.unwrap_or(0)),
            ClientError::Timeout(why) => ServiceError::deadline_exceeded(why),
            ClientError::Transport(why) => ServiceError::internal(why),
        }
    }
}

/// Client-side retry/backoff configuration for [`Client::call_retry`]:
/// capped exponential backoff with decorrelated jitter, bounded by both
/// an attempt count and a total sleep budget, honoring the server's
/// `retry_after_ms` hints.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = try once, never retry).
    pub max_retries: u32,
    /// First-retry backoff, and the decorrelated-jitter floor.
    pub base: Duration,
    /// Per-sleep backoff cap (a larger server `retry_after_ms` hint
    /// still wins — the server knows its backlog better).
    pub cap: Duration,
    /// Total sleep budget across all retries; once spent, the last
    /// error is returned even with attempts remaining.
    pub budget: Duration,
    /// Jitter seed — fixed default for reproducible tests; vary it to
    /// decorrelate real fleets.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(2),
            budget: Duration::from_secs(10),
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// The pure backoff-delay iterator this policy generates (separated
    /// out so tests can drive the schedule without sockets or sleeps).
    pub fn schedule(&self) -> BackoffSchedule {
        BackoffSchedule {
            base_ms: self.base.as_millis().max(1) as u64,
            cap_ms: self.cap.as_millis().max(1) as u64,
            budget_ms: self.budget.as_millis() as u64,
            slept_ms: 0,
            prev_ms: self.base.as_millis().max(1) as u64,
            state: self.seed,
            exhausted: false,
        }
    }
}

/// The deterministic backoff-delay sequence of one [`RetryPolicy`] run:
/// decorrelated jitter (`next = uniform(base, prev * 3)`, capped),
/// floored by the server's `retry_after_ms` hint, stopping when the
/// total sleep budget is spent.
#[derive(Debug, Clone)]
pub struct BackoffSchedule {
    base_ms: u64,
    cap_ms: u64,
    budget_ms: u64,
    slept_ms: u64,
    prev_ms: u64,
    state: u64,
    exhausted: bool,
}

impl BackoffSchedule {
    /// The next delay in milliseconds, or `None` when the sleep budget
    /// is exhausted. `retry_after_ms` (the server's hint) floors the
    /// jittered delay — even past the cap — but still counts against
    /// the budget. Exhaustion is sticky: the first over-budget draw
    /// ends the schedule for good (a retry loop must not revive on a
    /// luckily-small later jitter).
    pub fn next_delay_ms(&mut self, retry_after_ms: Option<u64>) -> Option<u64> {
        if self.exhausted {
            return None;
        }
        // Decorrelated jitter: uniform in [base, prev * 3], capped.
        let hi = (self.prev_ms.saturating_mul(3)).max(self.base_ms + 1);
        let span = hi - self.base_ms;
        let jittered = (self.base_ms + self.next_u64() % span).min(self.cap_ms);
        // The next step decorrelates from the *jittered* value, so the
        // schedule's shape is independent of server hints.
        self.prev_ms = jittered;
        let delay = jittered.max(retry_after_ms.unwrap_or(0));
        if self.slept_ms.saturating_add(delay) > self.budget_ms {
            self.exhausted = true;
            return None;
        }
        self.slept_ms += delay;
        Some(delay)
    }

    /// Total milliseconds handed out so far.
    pub fn slept_ms(&self) -> u64 {
        self.slept_ms
    }

    /// splitmix64 — small, seedable, good enough for jitter.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Token for one in-flight multiplexed stream on a [`Client`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamId(u64);

/// One pull from an in-flight stream.
#[derive(Debug)]
pub enum StreamEvent {
    /// A streamed sub-response envelope (tagged, `last: false`).
    Envelope(Value),
    /// The stream's terminal line: the `last: true` summary, or — for a
    /// whole-batch shape error, or a pre-v2 server that ignored
    /// `"stream"` — the single untagged response envelope. The stream is
    /// finished; its id is no longer valid.
    Done(Value),
}

struct StreamState {
    token: u64,
    /// The outer request's `id` — the demux key every line of this
    /// stream echoes in its `stream.request` tag.
    key: Value,
    /// Envelopes read while the caller was pulling a different stream
    /// (or waiting on a plain call).
    pending: VecDeque<Value>,
    terminal: Option<Value>,
}

/// One connection to a running `srank serve` instance.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The dialed peer, remembered for [`reconnect`](Self::reconnect).
    peer: SocketAddr,
    /// The configured socket read timeout, re-applied on reconnect.
    timeout: Option<Duration>,
    /// Why the connection is unusable (set once, checked by every call).
    dead: Option<String>,
    streams: Vec<StreamState>,
    next_token: u64,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Requests are single small writes that wait for a response;
        // Nagle's algorithm only adds delayed-ACK latency to that pattern.
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            peer,
            timeout: None,
            dead: None,
            streams: Vec::new(),
            next_token: 0,
        })
    }

    /// Sets (or clears) the socket read timeout: a response taking
    /// longer fails the call with [`ClientError::Timeout`] *and kills
    /// the connection* — a late response line would desynchronize every
    /// later call, so the only safe continuation is a reconnect.
    /// Survives [`reconnect`](Self::reconnect).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.timeout = timeout;
        Ok(())
    }

    /// Re-dials the remembered peer address, replacing a dead (or live)
    /// socket with a fresh one. In-flight streams are lost with the old
    /// connection; the read timeout is re-applied.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.peer)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.timeout)?;
        self.writer = stream.try_clone()?;
        self.reader = BufReader::new(stream);
        self.dead = None;
        self.streams.clear();
        Ok(())
    }

    /// Marks the connection dead and returns the error every later call
    /// will fail fast with.
    fn kill(&mut self, why: impl Into<String>) -> ClientError {
        self.kill_with(ClientError::Transport(why.into()))
    }

    /// [`kill`](Self::kill) with a caller-chosen error class (a socket
    /// read timeout also kills the handle, but reports as `Timeout`).
    fn kill_with(&mut self, err: ClientError) -> ClientError {
        if self.dead.is_none() {
            self.dead = Some(err.to_string());
        }
        err
    }

    fn ensure_alive(&self) -> ClientResult<()> {
        match &self.dead {
            None => Ok(()),
            Some(why) => Err(ClientError::Transport(format!(
                "connection closed; reconnect to continue ({why})"
            ))),
        }
    }

    fn send(&mut self, request: &Value) -> ClientResult<()> {
        self.ensure_alive()?;
        let mut line = serde_json::to_string(request)
            .map_err(|e| ClientError::Server(ServiceError::internal(e.to_string())))?;
        // One write per request: splitting the newline into its own write
        // used to cost a Nagle/delayed-ACK round on every call.
        line.push('\n');
        if let Err(e) = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.flush())
        {
            return Err(self.kill(format!("connection closed while sending: {e}")));
        }
        Ok(())
    }

    /// Reads one complete response line. Any failure — EOF, an I/O
    /// error or read timeout, a line truncated by the server dying
    /// mid-write, or unparseable bytes — kills the connection (fail
    /// fast beats desyncing on a half-read stream).
    fn read_response(&mut self) -> ClientResult<Value> {
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Err(self.kill_with(ClientError::Timeout(format!(
                    "no response within the read timeout: {e}"
                ))))
            }
            Err(e) => Err(self.kill(format!("connection closed: {e}"))),
            Ok(0) => Err(self.kill("connection closed by the server (EOF)")),
            Ok(_) if !response.ends_with('\n') => {
                Err(self.kill("connection closed mid-response (truncated line)"))
            }
            Ok(_) => serde_json::from_str(response.trim_end()).map_err(|e| {
                self.kill(format!(
                    "connection desynchronized (bad response JSON: {e})"
                ))
            }),
        }
    }

    /// Routes one incoming line to an in-flight stream's buffer. Returns
    /// the line back when it belongs to no registered stream (i.e. it is
    /// the response to a plain call, or unexpected).
    fn route_to_streams(&mut self, value: Value) -> Option<Value> {
        let position = if let Some(tag) = value.get("stream") {
            // Streamed line: match the `request` id echo. Every stream
            // registered here was begun with an id (stream_begin injects
            // one), so a line *without* the echo can only belong to a
            // foreign stream — e.g. an id-less `stream: true` batch sent
            // through plain call() — and is handed back to the caller
            // rather than guessed into a registered stream's buffer.
            tag.get("request")
                .and_then(|request| self.streams.iter().position(|s| s.key == *request))
        } else {
            // Untagged line: a whole-batch shape error answers as a
            // plain envelope echoing the outer id.
            match value.get("id") {
                Some(id) => self.streams.iter().position(|s| s.key == *id),
                None => None,
            }
        };
        let Some(position) = position else {
            return Some(value);
        };
        let terminal = value.get("stream").is_none()
            || value
                .get("stream")
                .and_then(|t| t.get("last"))
                .and_then(Value::as_bool)
                == Some(true);
        let stream = &mut self.streams[position];
        if terminal {
            stream.terminal = Some(value);
        } else {
            stream.pending.push_back(value);
        }
        None
    }

    /// Sends one request object and reads its single response line.
    ///
    /// May be called while multiplexed streams are in flight: their
    /// envelopes are buffered for later [`stream_next`](Self::stream_next)
    /// pulls while this call waits for its own response.
    ///
    /// If the request was a streaming batch (`"stream": true`) sent
    /// through this non-streaming entry point by mistake, the server
    /// answers with *multiple* lines — this method drains them all (so
    /// the connection stays request/response-aligned for later calls)
    /// and returns an error directing the caller to
    /// [`call_streamed`](Self::call_streamed).
    pub fn call(&mut self, request: &Value) -> ClientResult<Value> {
        // An id colliding with an in-flight stream's key would make this
        // call's response indistinguishable from that stream's terminal
        // (the demux would swallow it and this call would wait forever):
        // refuse up front instead.
        if let Some(id) = request.get("id") {
            if self.streams.iter().any(|s| s.key == *id) {
                return Err(ClientError::Server(ServiceError::bad_request(format!(
                    "request id {} collides with an in-flight stream on this connection",
                    serde_json::to_string(id).unwrap_or_default()
                ))));
            }
        }
        self.send(request)?;
        let mut response = loop {
            let value = self.read_response()?;
            match self.route_to_streams(value) {
                None => continue, // belonged to an in-flight stream
                Some(value) => break value,
            }
        };
        if response.get("stream").is_none() {
            return Ok(response);
        }
        // Streamed response on the plain API: drain through the terminal
        // line, then fail loudly. Returning the first line instead would
        // hand back an arbitrary sub-envelope and desync every later
        // response on this connection by the remaining line count.
        // (Registered streams' lines keep being routed while draining.)
        loop {
            match response.get("stream") {
                None => break, // defensive: never leave this loop spinning
                Some(tag) if tag.get("last").and_then(Value::as_bool) == Some(true) => break,
                Some(_) => {}
            }
            response = loop {
                let value = self.read_response()?;
                if let Some(value) = self.route_to_streams(value) {
                    break value;
                }
            };
        }
        Err(ClientError::Server(ServiceError::bad_request(
            "the server answered with a streamed response ('stream': true); \
             use call_streamed (or `srank query --stream`) for streaming batches",
        )))
    }

    /// `call`, then unwraps the `result` field of an `ok` response.
    pub fn call_ok(&mut self, request: &Value) -> ClientResult<Value> {
        let response = self.call(request)?;
        expect_ok(&response)
    }

    /// [`call_ok`](Self::call_ok) under a [`RetryPolicy`]: failed
    /// attempts back off (capped exponential, decorrelated jitter,
    /// flooring on the server's `retry_after_ms` hint) and re-issue the
    /// request, reconnecting first when the failure killed the
    /// connection. Stops on the earliest of: success, a non-retryable
    /// error, `max_retries` spent, or the sleep budget spent — and
    /// returns the *last* error.
    ///
    /// Only idempotent reads are re-issued after ambiguous failures
    /// (transport death, timeouts); shed requests (`overloaded`) are
    /// always retried, because the server sheds at admission — before
    /// any work runs. A state-advancing op like `session.get_next`
    /// failing in transit is returned to the caller undisguised: only
    /// the caller knows whether replaying it is safe.
    pub fn call_retry(&mut self, request: &Value, policy: &RetryPolicy) -> ClientResult<Value> {
        let idempotent = request
            .get("op")
            .and_then(Value::as_str)
            .and_then(Op::parse)
            .is_some_and(Op::retry_safe);
        let mut schedule = policy.schedule();
        let mut attempt = 0u32;
        loop {
            let err = match self.call_ok(request) {
                Ok(value) => return Ok(value),
                Err(err) => err,
            };
            attempt += 1;
            if attempt > policy.max_retries || !err.is_retryable(idempotent) {
                return Err(err);
            }
            let Some(delay_ms) = schedule.next_delay_ms(err.retry_after_ms()) else {
                return Err(err); // sleep budget spent
            };
            std::thread::sleep(Duration::from_millis(delay_ms));
            if self.dead.is_some() {
                if let Err(e) = self.reconnect() {
                    return Err(ClientError::Transport(format!(
                        "reconnect to {} failed: {e}",
                        self.peer
                    )));
                }
            }
        }
    }

    /// Queries the server's trace recorder (`op: "trace"`): recent
    /// completed span trees, newest first, optionally filtered by root
    /// op, minimum total duration, and session id. Returns the `trace`
    /// op's result (`{"traces": [...], "recorded": N, "dropped": N}`).
    pub fn trace(
        &mut self,
        filter_op: Option<&str>,
        min_micros: u64,
        session: Option<u64>,
        limit: usize,
    ) -> ClientResult<Value> {
        let mut request = crate::proto::Object::new().field("op", Op::Trace.name());
        if let Some(op) = filter_op {
            request = request.field("filter_op", op);
        }
        if min_micros > 0 {
            request = request.field("min_micros", min_micros);
        }
        if let Some(session) = session {
            request = request.field("session", session);
        }
        request = request.field("limit", limit as u64);
        self.call_ok(&request.build())
    }

    /// Queries the server's per-client resource accounting (`op:
    /// "top"`): rows sorted by `sort_by` (server default: kernel CPU)
    /// descending, truncated to `limit`. Returns the `top` op's result
    /// (`{"sorted_by", "tracked", "capacity", "evicted", "clients"}`).
    pub fn top(&mut self, sort_by: Option<&str>, limit: usize) -> ClientResult<Value> {
        let mut request = crate::proto::Object::new().field("op", Op::Top.name());
        if let Some(sort_by) = sort_by {
            request = request.field("sort_by", sort_by);
        }
        request = request.field("limit", limit as u64);
        self.call_ok(&request.build())
    }

    /// Fetches the server's one-shot self-diagnostic (`op:
    /// "debug.dump"`): watchdog findings, pool and session state, the
    /// hottest clients, and the lock hierarchy.
    pub fn debug_dump(&mut self) -> ClientResult<Value> {
        self.call_ok(
            &crate::proto::Object::new()
                .field("op", Op::DebugDump.name())
                .build(),
        )
    }

    /// Sends one streaming batch (`op: "batch"`, `"stream": true`)
    /// *without waiting for any response*, registering it for
    /// demultiplexed pulls. If the request has no `id`, a unique
    /// client-generated one is injected (the server echoes it in every
    /// line's `stream.request` tag — the demux key). Requests whose `id`
    /// duplicates an in-flight stream's are refused: their lines would
    /// be indistinguishable.
    pub fn stream_begin(&mut self, request: &Value) -> ClientResult<StreamId> {
        self.ensure_alive()?;
        if !Engine::is_streaming(&request_op(request), request) {
            return Err(ClientError::Server(ServiceError::bad_request(
                "stream_begin needs a batch request with 'stream': true",
            )));
        }
        let token = self.next_token;
        self.next_token += 1;
        let (request, key) = match request.get("id") {
            Some(id) => (request.clone(), id.clone()),
            None => {
                let key = Value::String(format!("mux-{token}"));
                let Value::Object(mut fields) = request.clone() else {
                    unreachable!("is_streaming matched an object")
                };
                fields.push(("id".to_string(), key.clone()));
                (Value::Object(fields), key)
            }
        };
        if self.streams.iter().any(|s| s.key == key) {
            return Err(ClientError::Server(ServiceError::bad_request(format!(
                "a stream with id {} is already in flight on this connection",
                serde_json::to_string(&key).unwrap_or_default()
            ))));
        }
        self.send(&request)?;
        self.streams.push(StreamState {
            token,
            key,
            pending: VecDeque::new(),
            terminal: None,
        });
        Ok(StreamId(token))
    }

    fn stream_index(&self, id: StreamId) -> ClientResult<usize> {
        self.streams
            .iter()
            .position(|s| s.token == id.0)
            .ok_or_else(|| {
                ClientError::Server(ServiceError::bad_request(
                    "unknown stream id (already finished, or never begun)",
                ))
            })
    }

    /// Pops the next buffered event of stream `position`, if any. The
    /// terminal is surfaced only once `pending` is drained (guaranteed
    /// by the failed `pop_front` above it).
    fn pop_event(&mut self, position: usize) -> Option<StreamEvent> {
        let stream = &mut self.streams[position];
        if let Some(envelope) = stream.pending.pop_front() {
            return Some(StreamEvent::Envelope(envelope));
        }
        if let Some(terminal) = stream.terminal.take() {
            self.streams.remove(position);
            return Some(StreamEvent::Done(terminal));
        }
        None
    }

    /// Blocks for the next event of one specific in-flight stream.
    /// Events of *other* streams arriving meanwhile are buffered, never
    /// dropped. After `Done` the stream id is finished.
    pub fn stream_next(&mut self, id: StreamId) -> ClientResult<StreamEvent> {
        loop {
            let position = self.stream_index(id)?;
            if let Some(event) = self.pop_event(position) {
                return Ok(event);
            }
            self.pump()?;
        }
    }

    /// Blocks for the next event of *any* in-flight stream (buffered
    /// events first, in stream-begin order). Errors if no stream is in
    /// flight.
    pub fn stream_next_any(&mut self) -> ClientResult<(StreamId, StreamEvent)> {
        if self.streams.is_empty() {
            return Err(ClientError::Server(ServiceError::bad_request(
                "no stream is in flight",
            )));
        }
        loop {
            let ready = (0..self.streams.len()).find(|&i| {
                !self.streams[i].pending.is_empty() || self.streams[i].terminal.is_some()
            });
            if let Some(position) = ready {
                let id = StreamId(self.streams[position].token);
                let event = self.pop_event(position).expect("checked non-empty");
                return Ok((id, event));
            }
            self.pump()?;
        }
    }

    /// Number of streams currently in flight on this connection.
    pub fn streams_in_flight(&self) -> usize {
        self.streams.len()
    }

    /// Reads one line and routes it; a line that belongs to no in-flight
    /// stream here is a protocol violation (no plain call is pending).
    fn pump(&mut self) -> ClientResult<()> {
        self.ensure_alive()?;
        let value = self.read_response()?;
        match self.route_to_streams(value) {
            None => Ok(()),
            Some(stray) => Err(self.kill(format!(
                "connection desynchronized (response for no in-flight request: {})",
                serde_json::to_string(&stray).unwrap_or_default()
            ))),
        }
    }

    /// Sends one *streaming* request (a `batch` with `"stream": true`)
    /// and reads response lines until the stream terminates, invoking
    /// `on_envelope` for every streamed sub-response as it arrives (in
    /// completion order, each tagged `{"batch_id", "request", "index",
    /// "last"}`).
    ///
    /// Returns the terminal line: the summary envelope tagged
    /// `"last": true`, or — when the server answered with a single
    /// untagged envelope (shape error, or a pre-v2 server that ignores
    /// `stream`) — that envelope verbatim.
    ///
    /// This is `stream_begin` + a `stream_next` loop; use those directly
    /// to multiplex several batches on this connection.
    pub fn call_streamed(
        &mut self,
        request: &Value,
        mut on_envelope: impl FnMut(&Value),
    ) -> ClientResult<Value> {
        let id = self.stream_begin(request)?;
        loop {
            match self.stream_next(id)? {
                StreamEvent::Envelope(envelope) => on_envelope(&envelope),
                StreamEvent::Done(terminal) => return Ok(terminal),
            }
        }
    }
}

/// Splits a response envelope into its `result` or its typed error:
/// the wire `code` round-trips back into [`ErrorCode`] (so `overloaded`
/// / `deadline_exceeded` classify as their own [`ClientError`]
/// variants) and `retry_after_ms` is preserved.
pub fn expect_ok(response: &Value) -> ClientResult<Value> {
    if response.get("ok").and_then(Value::as_bool) == Some(true) {
        return Ok(response.get("result").cloned().unwrap_or(Value::Null));
    }
    let error = response.get("error");
    let code = error
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .and_then(ErrorCode::parse)
        .unwrap_or(ErrorCode::Internal);
    let message = error
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .unwrap_or("malformed error response");
    let mut decoded = ServiceError::new(code, message);
    decoded.retry_after_ms = error
        .and_then(|e| e.get("retry_after_ms"))
        .and_then(Value::as_u64);
    Err(ClientError::from_envelope(decoded))
}
