//! # srank-service — a concurrent stability-query engine
//!
//! The library behind `srank serve`: a long-running server for the
//! interactive workload *On Obtaining Stable Rankings* (Asudeh et al.,
//! PVLDB 2018) describes — consumers probing published rankings
//! (`verify`, `overview`) and producers iterating `GET-NEXT`
//! (`session.*`) — without re-loading the dataset, re-deriving
//! ordering-exchange hyperplanes, or re-drawing Monte-Carlo samples on
//! every call.
//!
//! Twelve layers:
//!
//! * [`registry`] — loads/normalizes each dataset once (builtin simulators
//!   or CSV) and shares it via `Arc`; every (re)load bumps a generation
//!   stamp that scopes cache keys and sessions;
//! * [`session`] — live enumerator sessions built on `srank-core`'s
//!   detachable state snapshots (`Sweep2DState`, `MdState`,
//!   `RandomizedState`), with idle eviction and a bounded per-session
//!   FIFO dispatch queue: a request landing on a busy session parks and
//!   is handed the session in arrival order (a transport thread blocks
//!   for the grant; a pool sub-request resumes as a pool job) instead of
//!   being refused;
//! * [`cache`] — an LRU over query results plus a second LRU of shared
//!   Monte-Carlo sample batches, so a hot `verify` is a lookup and a cold
//!   one at least reuses the samples drawn for its dataset/ROI;
//! * [`pool`] — the persistent batch worker pool (created once per
//!   engine, MPMC work queue) plus the bounded response queue that turns
//!   a slow batch consumer into backpressure on the workers;
//! * [`metrics`] — pool counters, per-op latency histograms, and
//!   phase-attributed latency histograms (queue wait vs session wait vs
//!   kernel vs serialize, per op), surfaced by the `stats` op (JSON or
//!   Prometheus text, the latter served by the persistent keep-alive
//!   `serve --metrics-port` endpoint);
//! * [`trace`] — request-scoped structured tracing: sampled inbound
//!   requests get a trace id propagated into batch sub-requests, pool
//!   jobs, and parked waiters; typed spans (parse, dispatch, pool queue,
//!   session wait, cache probe, kernel, store I/O, serialize, flush)
//!   land in a bounded recorder read back by the `trace` op, and roots
//!   past `--slow-ms` are logged as structured JSON trees;
//! * [`log`] — the leveled structured logger behind the service's
//!   diagnostics (`SRANK_LOG` level/target filter, pretty or JSON
//!   output);
//! * [`obs`] — live observability: a ring of per-second telemetry slots
//!   giving `stats` windowed (10s/60s/300s) rates and percentiles with
//!   worst-case trace-id exemplars, a bounded per-client resource
//!   accounting table behind the `top` op, and the stall watchdog that
//!   degrades `/healthz` and answers `debug.dump`;
//! * [`guard`] — robustness under load: per-request deadlines
//!   (`deadline_ms`, checked at the dequeue/grant/kernel seams and
//!   between sampling chunks), admission control that sheds cold
//!   expensive work with a typed `overloaded` + `retry_after_ms` while
//!   still serving cache hits, and the `health` op / `/healthz`
//!   endpoint; the client side ([`RetryPolicy`]) retries idempotent
//!   reads with capped, decorrelated-jitter backoff;
//! * [`faults`] — seeded, deterministic fault injection
//!   (`SRANK_FAULTS`: store IO errors, kernel delays, severed
//!   connections, stalled flushes) behind always-compiled seams, so the
//!   chaos suite can prove the guard's invariants;
//! * [`store`] — durable snapshot + journal persistence under a
//!   `--data-dir`: versioned, checksummed on-disk snapshots of the
//!   caches and sessions, generation-stamp compatibility checks, and a
//!   background checkpoint journal, so a warm restart answers hot
//!   queries at cache speed and producers resume enumerations across
//!   process death (`snapshot` / `restore` / `session.save` /
//!   `session.resume` ops);
//! * [`server`] / [`client`] — line-delimited JSON over stdin/stdout or a
//!   `TcpListener` with a fixed worker-thread pool (std only, no async
//!   runtime). `batch` requests with `"stream": true` answer with one
//!   envelope line per sub-request the moment it completes, and one
//!   connection can keep several such streams in flight at once — their
//!   lines interleave on the socket, tagged with a `stream.request` id
//!   echo that the client demultiplexes by (wire protocol v2.1).
//!
//! The wire protocol is documented in `crates/service/README.md`; the
//! protocol types and error codes live in [`proto`].
//!
//! ## Embedding
//!
//! The engine is usable without any transport, through three entry
//! points: [`Engine::handle`], [`Engine::handle_line`] and
//! [`Engine::handle_line_streamed`], which writes response lines to a
//! sink under a [`RequestCtx`] (see [`ctx`]; an embedder passes the
//! default):
//!
//! ```
//! use srank_service::engine::{Engine, EngineConfig};
//! use srank_service::registry::DatasetSource;
//! use srank_service::RequestCtx;
//!
//! let engine = Engine::new(EngineConfig::default());
//! engine
//!     .registry()
//!     .load("hiring", &DatasetSource::Builtin {
//!         family: "figure1".into(), n: 0, d: 0, seed: 0,
//!     })
//!     .unwrap();
//! let response = engine.handle(
//!     &serde_json::from_str(
//!         r#"{"op": "verify", "dataset": "hiring", "weights": [1, 1]}"#,
//!     )
//!     .unwrap(),
//! );
//! assert_eq!(response.get("ok").unwrap().as_bool(), Some(true));
//! let stability = response
//!     .get("result").unwrap()
//!     .get("stability").unwrap()
//!     .as_f64().unwrap();
//! assert!(stability > 0.0);
//!
//! let batch = r#"{"op": "batch", "stream": true, "requests": [{"op": "ping"}]}"#;
//! let mut lines = Vec::new();
//! let mut sink = |line: &str| { lines.push(line.to_string()); Ok(()) };
//! engine.handle_line_streamed(batch, &mut sink, RequestCtx::default()).unwrap();
//! assert_eq!(lines.len(), 2, "one sub-envelope, then the summary line");
//! ```

pub mod cache;
pub mod client;
pub mod ctx;
pub mod engine;
pub mod faults;
pub mod guard;
pub mod lockorder;
pub mod log;
pub mod metrics;
pub mod obs;
pub mod pool;
pub mod proto;
pub mod registry;
pub mod server;
pub mod session;
pub mod store;
pub mod trace;

pub use client::{
    BackoffSchedule, Client, ClientError, ClientResult, RetryPolicy, StreamEvent, StreamId,
};
pub use ctx::RequestCtx;
pub use engine::{Engine, EngineConfig, EngineCore};
pub use faults::Faults;
pub use guard::{Deadline, Guard, GuardConfig};
pub use proto::{ErrorCode, Op, ServiceError, ServiceResult};
pub use registry::{DatasetRegistry, DatasetSource};
pub use server::{serve_metrics, serve_stdio, serve_stream, serve_tcp, ServerHandle};
pub use store::{journal::JournalHandle, Store};
pub use trace::{Span, TraceCtx, Tracer};
