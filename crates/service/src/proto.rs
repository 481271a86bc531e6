//! The wire protocol: line-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, in order:
//!
//! ```json
//! {"id": 7, "op": "verify", "dataset": "fifa", "weights": [1, 1, 1, 1]}
//! {"id": 7, "ok": true, "cached": false, "result": {"stability": 0.132, ...}}
//! ```
//!
//! `id` is echoed verbatim (any JSON value, optional). Errors come back as
//! `{"id": ..., "ok": false, "error": {"code": "...", "message": "..."}}`.
//! The ops are the [`Op`] table; `crates/service/README.md` documents
//! each op's parameters and result.

use serde_json::Value;

/// Declares [`Op`] from its table, one row per op: the variant, its wire
/// name, and the two attributes code reads. `Op::ALL`, the names and the
/// attributes come from the same rows, so they cannot drift apart.
macro_rules! op_table {
    ($($op:ident => $name:literal, cacheable: $cacheable:literal, retry_safe: $retry_safe:literal;)*) => {
        /// The protocol's ops. A request's `"op"` string is resolved to
        /// an `Op` once, where its [`crate::ctx::RequestCtx`] is built,
        /// and the `Op` is passed down from there: dispatch, admission,
        /// metrics and tracing all take it, so a new op is one table row
        /// and one dispatch arm, and the compiler points at every `match`
        /// that misses it.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum Op {
            $($op,)*
        }

        impl Op {
            /// Every op, in table order — the order of the per-op blocks
            /// in `stats` and the exposition; `op as usize` indexes it.
            pub const ALL: [Op; [$(Op::$op),*].len()] = [$(Op::$op),*];

            /// The wire name.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Op::$op => $name,)*
                }
            }

            /// Whether answers go through the result cache (keyed on the
            /// op and its parameters, and persisted by snapshots).
            pub const fn cacheable(self) -> bool {
                match self {
                    $(Op::$op => $cacheable,)*
                }
            }

            /// Whether `Client::call_retry` may re-issue the op after an
            /// ambiguous failure: a read whose replay cannot double-execute
            /// work.
            pub const fn retry_safe(self) -> bool {
                match self {
                    $(Op::$op => $retry_safe,)*
                }
            }
        }
    };
}

op_table! {
    Ping => "ping", cacheable: false, retry_safe: true;
    Batch => "batch", cacheable: false, retry_safe: false;
    Stats => "stats", cacheable: false, retry_safe: true;
    Health => "health", cacheable: false, retry_safe: true;
    RegistryLoad => "registry.load", cacheable: false, retry_safe: false;
    RegistryList => "registry.list", cacheable: false, retry_safe: true;
    RegistryDrop => "registry.drop", cacheable: false, retry_safe: false;
    Verify => "verify", cacheable: true, retry_safe: true;
    Overview => "overview", cacheable: true, retry_safe: true;
    SessionOpen => "session.open", cacheable: false, retry_safe: false;
    SessionGetNext => "session.get_next", cacheable: false, retry_safe: false;
    SessionClose => "session.close", cacheable: false, retry_safe: false;
    SessionSave => "session.save", cacheable: false, retry_safe: false;
    SessionResume => "session.resume", cacheable: false, retry_safe: false;
    Snapshot => "snapshot", cacheable: false, retry_safe: false;
    Restore => "restore", cacheable: false, retry_safe: false;
    Trace => "trace", cacheable: false, retry_safe: true;
    Top => "top", cacheable: false, retry_safe: true;
    DebugDump => "debug.dump", cacheable: false, retry_safe: true;
}

impl Op {
    /// The op a wire name names, if any.
    pub fn parse(name: &str) -> Option<Op> {
        Self::ALL.into_iter().find(|op| op.name() == name)
    }
}

/// Declares [`ErrorCode`] from its table, one row per code, so
/// `ErrorCode::ALL` and the wire names cannot drift from the variants.
macro_rules! error_code_table {
    ($($(#[$doc:meta])* $code:ident => $name:literal,)*) => {
        /// Machine-readable error categories of the protocol.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum ErrorCode {
            $($(#[$doc])* $code,)*
        }

        impl ErrorCode {
            /// Every code, in table order (the README error-code table's
            /// order).
            pub const ALL: [ErrorCode; [$(ErrorCode::$code),*].len()] = [$(ErrorCode::$code),*];

            pub fn as_str(self) -> &'static str {
                match self {
                    $(ErrorCode::$code => $name,)*
                }
            }
        }
    };
}

error_code_table! {
    /// The request line was not valid JSON.
    ParseError => "parse_error",
    /// The request was valid JSON but malformed (missing/ill-typed field,
    /// unknown op, invalid parameter combination).
    BadRequest => "bad_request",
    /// The referenced dataset is not registered.
    NotFound => "not_found",
    /// The referenced session does not exist (never opened, closed, or
    /// evicted after idling).
    SessionNotFound => "session_not_found",
    /// The referenced session is currently executing another request and
    /// queueing is disabled (`session_queue_depth` 0).
    SessionBusy => "session_busy",
    /// The referenced session's bounded dispatch queue is at capacity;
    /// the request was refused rather than parked (retryable).
    SessionQueueFull => "session_queue_full",
    /// The engine refused to open another session (capacity).
    SessionLimit => "session_limit",
    /// Admission control shed the request before execution: the server is
    /// past its configured load thresholds. The error object carries
    /// `retry_after_ms`, a backoff hint derived from current queue state
    /// (retryable).
    Overloaded => "overloaded",
    /// The request's `deadline_ms` budget expired before (or while) the
    /// server could execute it; partial work was abandoned. The caller
    /// already stopped waiting, so the result would be useless (retryable
    /// for idempotent reads, with a larger budget).
    DeadlineExceeded => "deadline_exceeded",
    /// An internal invariant failed.
    Internal => "internal",
}

impl ErrorCode {
    /// Parses a wire `error.code` string back into the enum (client side).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|code| code.as_str() == s)
    }

    /// Whether a request refused with this code is safe to retry verbatim:
    /// the server sheds *before* side effects for all of these, so a retry
    /// cannot double-execute anything.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Overloaded
                | ErrorCode::SessionQueueFull
                | ErrorCode::SessionBusy
                | ErrorCode::DeadlineExceeded
        )
    }
}

/// A protocol-level error: code + human-readable message.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceError {
    pub code: ErrorCode,
    pub message: String,
    /// Backoff hint attached to `overloaded` (and other shed) errors:
    /// "retry no sooner than this many milliseconds from now". Emitted in
    /// the wire error object when present.
    pub retry_after_ms: Option<u64>,
}

pub type ServiceResult<T> = Result<T, ServiceError>;

impl ServiceError {
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Attaches a `retry_after_ms` backoff hint to the error.
    pub fn with_retry_after_ms(mut self, ms: u64) -> Self {
        self.retry_after_ms = Some(ms);
        self
    }

    pub fn parse_error(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::ParseError, message)
    }

    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::BadRequest, message)
    }

    pub fn not_found(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::NotFound, message)
    }

    pub fn session_not_found(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::SessionNotFound, message)
    }

    pub fn internal(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::Internal, message)
    }

    pub fn overloaded(message: impl Into<String>, retry_after_ms: u64) -> Self {
        Self::new(ErrorCode::Overloaded, message).with_retry_after_ms(retry_after_ms)
    }

    pub fn deadline_exceeded(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::DeadlineExceeded, message)
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ServiceError {}

/// Builder for JSON objects (field order = insertion order).
#[derive(Debug, Default)]
pub struct Object {
    fields: Vec<(String, Value)>,
}

impl Object {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn field(mut self, key: &str, value: impl IntoValue) -> Self {
        self.fields.push((key.to_string(), value.into_value()));
        self
    }

    pub fn build(self) -> Value {
        Value::Object(self.fields)
    }
}

/// Conversion into a JSON value (local stand-in for `serde::Serialize`,
/// covering the handful of shapes responses are built from).
pub trait IntoValue {
    fn into_value(self) -> Value;
}

impl IntoValue for Value {
    fn into_value(self) -> Value {
        self
    }
}

impl IntoValue for bool {
    fn into_value(self) -> Value {
        Value::Bool(self)
    }
}

impl IntoValue for f64 {
    fn into_value(self) -> Value {
        Value::Number(self)
    }
}

impl IntoValue for u64 {
    fn into_value(self) -> Value {
        Value::Number(self as f64)
    }
}

impl IntoValue for usize {
    fn into_value(self) -> Value {
        Value::Number(self as f64)
    }
}

impl IntoValue for &str {
    fn into_value(self) -> Value {
        Value::String(self.to_string())
    }
}

impl IntoValue for String {
    fn into_value(self) -> Value {
        Value::String(self)
    }
}

impl IntoValue for &[f64] {
    fn into_value(self) -> Value {
        Value::Array(self.iter().map(|&x| Value::Number(x)).collect())
    }
}

impl IntoValue for &[u32] {
    fn into_value(self) -> Value {
        Value::Array(self.iter().map(|&x| Value::Number(f64::from(x))).collect())
    }
}

impl IntoValue for Vec<Value> {
    fn into_value(self) -> Value {
        Value::Array(self)
    }
}

/// Typed field access on a request object.
pub struct Fields<'a> {
    value: &'a Value,
}

impl<'a> Fields<'a> {
    pub fn of(value: &'a Value) -> ServiceResult<Self> {
        match value {
            Value::Object(_) => Ok(Self { value }),
            _ => Err(ServiceError::bad_request("request must be a JSON object")),
        }
    }

    pub fn raw(&self, key: &str) -> Option<&'a Value> {
        self.value.get(key).filter(|v| !v.is_null())
    }

    pub fn str(&self, key: &str) -> ServiceResult<Option<&'a str>> {
        match self.raw(key) {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(Some)
                .ok_or_else(|| type_error(key, "a string")),
        }
    }

    pub fn required_str(&self, key: &str) -> ServiceResult<&'a str> {
        self.str(key)?.ok_or_else(|| missing(key))
    }

    pub fn f64(&self, key: &str) -> ServiceResult<Option<f64>> {
        match self.raw(key) {
            None => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| type_error(key, "a number")),
        }
    }

    pub fn u64(&self, key: &str) -> ServiceResult<Option<u64>> {
        match self.raw(key) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| type_error(key, "a non-negative integer")),
        }
    }

    pub fn usize(&self, key: &str) -> ServiceResult<Option<usize>> {
        Ok(self.u64(key)?.map(|v| v as usize))
    }

    pub fn bool(&self, key: &str) -> ServiceResult<Option<bool>> {
        match self.raw(key) {
            None => Ok(None),
            Some(v) => v
                .as_bool()
                .map(Some)
                .ok_or_else(|| type_error(key, "a boolean")),
        }
    }

    pub fn f64_array(&self, key: &str) -> ServiceResult<Option<Vec<f64>>> {
        match self.raw(key) {
            None => Ok(None),
            Some(v) => {
                let items = v
                    .as_array()
                    .ok_or_else(|| type_error(key, "an array of numbers"))?;
                items
                    .iter()
                    .map(|x| {
                        x.as_f64()
                            .ok_or_else(|| type_error(key, "an array of numbers"))
                    })
                    .collect::<ServiceResult<Vec<f64>>>()
                    .map(Some)
            }
        }
    }
}

/// The `bad_request` for a closed-set parameter `key` given `value`,
/// naming the values it accepts.
pub(crate) fn not_one_of(key: &str, value: &str, valid: &[&str]) -> ServiceError {
    ServiceError::bad_request(format!(
        "unknown {key} '{value}' (one of {})",
        valid.join(", ")
    ))
}

fn missing(key: &str) -> ServiceError {
    ServiceError::bad_request(format!("missing required field '{key}'"))
}

fn type_error(key: &str, expected: &str) -> ServiceError {
    ServiceError::bad_request(format!("field '{key}' must be {expected}"))
}

/// Appends the wire-protocol-v2 stream tag to a response envelope:
/// `"stream": {"batch_id": B, "request": id?, "index": i?, "last": bool}`.
/// Sub-response envelopes carry their request `index` and `last: false`;
/// the one terminal summary line per streamed batch carries `last: true`
/// and no index. `request` echoes the *outer* batch request's `id`
/// verbatim (when it has one) on every line of the stream — with
/// per-connection multiplexing several streams interleave on one socket,
/// and this echo is what lets a client demultiplex them.
pub fn with_stream_tag(
    envelope: Value,
    batch_id: u64,
    request: Option<&Value>,
    index: Option<usize>,
    last: bool,
) -> Value {
    let mut tag = Object::new().field("batch_id", batch_id);
    if let Some(request) = request {
        tag = tag.field("request", request.clone());
    }
    if let Some(index) = index {
        tag = tag.field("index", index);
    }
    let tag = tag.field("last", last).build();
    match envelope {
        Value::Object(mut fields) => {
            fields.push(("stream".to_string(), tag));
            Value::Object(fields)
        }
        other => other, // envelopes are always objects
    }
}

/// Hashes a resolved `"client"` tag (FNV-1a) into the fairness identity
/// used by the session dispatch queue. Untagged (or empty-tagged)
/// requests are anonymous (0) and always dispatch in pure arrival
/// order; a real tag never maps to 0 (the anonymous sentinel is
/// reserved), so tagged traffic is always eligible for fairness.
pub fn hash_client_tag(tag: Option<&str>) -> u64 {
    let Some(tag) = tag else { return 0 };
    if tag.is_empty() {
        return 0;
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in tag.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash.max(1)
}

/// Wraps a handler outcome into the response envelope, echoing `id`.
pub fn envelope(id: Option<Value>, outcome: ServiceResult<(Value, bool)>) -> Value {
    let mut out = Object::new();
    if let Some(id) = id {
        out = out.field("id", id);
    }
    match outcome {
        Ok((result, cached)) => out
            .field("ok", true)
            .field("cached", cached)
            .field("result", result)
            .build(),
        Err(e) => {
            let mut error = Object::new()
                .field("code", e.code.as_str())
                .field("message", e.message);
            if let Some(ms) = e.retry_after_ms {
                error = error.field("retry_after_ms", ms);
            }
            out.field("ok", false).field("error", error.build()).build()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_tag_hash_is_stable_and_reserves_zero() {
        let tagged = hash_client_tag(Some("tenant-a"));
        assert_eq!(tagged, hash_client_tag(Some("tenant-a")));
        assert_ne!(tagged, hash_client_tag(Some("tenant-b")));
        assert_ne!(tagged, 0, "tagged is never anonymous");
        for anonymous in [None, Some("")] {
            assert_eq!(hash_client_tag(anonymous), 0, "anonymous: {anonymous:?}");
        }
    }

    #[test]
    fn fields_accessors_validate_types() {
        let v = serde_json::from_str(
            r#"{"s": "x", "n": 3, "f": 1.5, "a": [1, 2], "b": true, "z": null}"#,
        )
        .unwrap();
        let f = Fields::of(&v).unwrap();
        assert_eq!(f.required_str("s").unwrap(), "x");
        assert_eq!(f.u64("n").unwrap(), Some(3));
        assert_eq!(f.f64("f").unwrap(), Some(1.5));
        assert_eq!(f.f64_array("a").unwrap(), Some(vec![1.0, 2.0]));
        assert_eq!(f.bool("b").unwrap(), Some(true));
        assert_eq!(f.str("z").unwrap(), None, "null reads as absent");
        assert_eq!(f.str("missing").unwrap(), None);
        assert!(f.required_str("missing").is_err());
        assert!(f.u64("f").is_err());
        assert!(f.str("n").is_err());
    }

    #[test]
    fn stream_tags_append_without_disturbing_the_envelope() {
        let base = envelope(
            Some(Value::String("a".into())),
            Ok((Object::new().field("x", 1u64).build(), false)),
        );
        let outer = Value::String("outer".into());
        let sub = with_stream_tag(base.clone(), 7, Some(&outer), Some(2), false);
        assert_eq!(sub.get("id").unwrap().as_str(), Some("a"));
        assert_eq!(sub.get("ok").unwrap().as_bool(), Some(true));
        let tag = sub.get("stream").unwrap();
        assert_eq!(tag.get("batch_id").unwrap().as_u64(), Some(7));
        assert_eq!(tag.get("request").unwrap().as_str(), Some("outer"));
        assert_eq!(tag.get("index").unwrap().as_u64(), Some(2));
        assert_eq!(tag.get("last").unwrap().as_bool(), Some(false));

        let terminal = with_stream_tag(base.clone(), 7, Some(&outer), None, true);
        let tag = terminal.get("stream").unwrap();
        assert!(tag.get("index").is_none(), "terminal line has no index");
        assert_eq!(tag.get("request").unwrap().as_str(), Some("outer"));
        assert_eq!(tag.get("last").unwrap().as_bool(), Some(true));

        // An outer request without an id streams without the echo.
        let anonymous = with_stream_tag(base, 7, None, Some(0), false);
        assert!(anonymous.get("stream").unwrap().get("request").is_none());
    }

    #[test]
    fn envelope_shapes() {
        let ok = envelope(
            Some(Value::Number(7.0)),
            Ok((Object::new().field("x", 1u64).build(), true)),
        );
        assert_eq!(ok.get("id").unwrap().as_u64(), Some(7));
        assert_eq!(ok.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(ok.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(
            ok.get("result").unwrap().get("x").unwrap().as_u64(),
            Some(1)
        );

        let err = envelope(None, Err(ServiceError::not_found("nope")));
        assert_eq!(err.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            err.get("error").unwrap().get("code").unwrap().as_str(),
            Some("not_found")
        );
        assert!(
            err.get("error").unwrap().get("retry_after_ms").is_none(),
            "no hint unless attached"
        );

        let shed = envelope(None, Err(ServiceError::overloaded("shed", 150)));
        let error = shed.get("error").unwrap();
        assert_eq!(error.get("code").unwrap().as_str(), Some("overloaded"));
        assert_eq!(error.get("retry_after_ms").unwrap().as_u64(), Some(150));
    }

    #[test]
    fn error_codes_round_trip_and_classify() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("no_such_code"), None);
        assert!(ErrorCode::Overloaded.is_retryable());
        assert!(ErrorCode::SessionQueueFull.is_retryable());
        assert!(!ErrorCode::Internal.is_retryable());
        assert!(!ErrorCode::BadRequest.is_retryable());
    }

    #[test]
    fn ops_round_trip_by_name_and_index_their_table() {
        for (i, op) in Op::ALL.into_iter().enumerate() {
            assert_eq!(Op::parse(op.name()), Some(op));
            assert_eq!(op as usize, i, "{op:?} indexes Op::ALL");
        }
        let mut names: Vec<&str> = Op::ALL.iter().map(|op| op.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Op::ALL.len(), "no two ops share a name");
        assert_eq!(Op::parse("nope"), None);
    }
}
