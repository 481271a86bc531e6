//! The request context: everything one request carries across threads.
//!
//! A request's trace context, deadline, resolved `"client"` tag and
//! connection cancel flag are one [`RequestCtx`] value, held in a single
//! thread-local slot: [`RequestCtx::current`] captures it and
//! [`RequestCtx::enter`] installs it for the duration of a closure. Every
//! thread hop — a pool job, the inline fast path, a session-queue
//! continuation, a transport's mux side thread — moves it as one unit.
//! It is built by the transport (sampling decision and death flag), once
//! per top-level request ([`RequestCtx::for_request`]) and once per batch
//! sub-request at submit ([`RequestCtx::for_sub`]); the request's op is
//! resolved beside it, by [`request_op`].
//! [`crate::trace::with_ctx`] nests spans by rewriting only its trace
//! field.

use crate::engine::PoolPark;
use crate::guard::{Deadline, Guard};
use crate::proto::{hash_client_tag, Fields, Op, ServiceError, ServiceResult};
use crate::trace::TraceCtx;
use serde_json::Value;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The per-request state that follows a request across threads.
#[derive(Clone, Debug, Default)]
pub struct RequestCtx {
    /// Which trace the work belongs to and its parent span.
    pub(crate) trace: TraceCtx,
    /// When the request expires (checked at the guard seams).
    pub(crate) deadline: Option<Deadline>,
    /// The accounting and fairness identity (None = untagged).
    pub(crate) client: Option<Arc<str>>,
    /// The requesting connection's death flag.
    pub(crate) cancel: Option<Arc<AtomicBool>>,
    /// A pooled batch sub-request's answer slot, where its grant
    /// continuation delivers if it parks on a busy session (`None` on
    /// every other path, whose parks block for the grant).
    pub(crate) park: Option<Arc<PoolPark>>,
}

impl RequestCtx {
    /// The calling thread's current context (empty outside any request).
    pub fn current() -> RequestCtx {
        CURRENT.with(|slot| slot.borrow().clone())
    }

    /// Runs `f` with `self` as the thread's current context, restoring
    /// the previous one afterwards (panic-safe, so nested scopes
    /// compose).
    pub fn enter<R>(self, f: impl FnOnce() -> R) -> R {
        struct Restore(RequestCtx);
        impl Drop for Restore {
            fn drop(&mut self) {
                let previous = std::mem::take(&mut self.0);
                CURRENT.with(|slot| slot.replace(previous));
            }
        }
        let _restore = Restore(CURRENT.with(|slot| slot.replace(self)));
        f()
    }

    /// The context of one top-level request: the current (transport's)
    /// trace and cancel flag, with the request's own deadline — whose
    /// budget starts now — and `client` tag, which must be a string.
    pub(crate) fn for_request(request: &Value, guard: &Guard) -> ServiceResult<Self> {
        let fields = Fields::of(request)?;
        Ok(RequestCtx {
            deadline: guard.deadline_from(fields.u64("deadline_ms")?)?,
            client: fields.str("client")?.map(Arc::from),
            ..Self::current()
        })
    }

    /// The context of one batch sub-request running under `trace`: its
    /// own `client` tag (which must be a string), else this (the
    /// batch's); the batch's deadline and cancel flag either way. A
    /// sub-request that is not an object keeps the batch's tag and
    /// fails at dispatch.
    pub(crate) fn for_sub(&self, request: &Value, trace: TraceCtx) -> ServiceResult<Self> {
        let own = match Fields::of(request) {
            Ok(fields) => fields.str("client")?,
            Err(_) => None,
        };
        Ok(RequestCtx {
            trace,
            client: own.map(Arc::from).or_else(|| self.client.clone()),
            ..self.clone()
        })
    }

    /// The session-queue fairness identity of the resolved tag (0 =
    /// anonymous).
    pub(crate) fn client_hash(&self) -> u64 {
        hash_client_tag(self.client.as_deref())
    }

    /// Whether the requesting connection has closed.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }
}

/// Resolves a request's op — the one place `"op"` is read from a
/// request. Called once per top-level request and once per batch
/// sub-request; the [`Op`] is passed down from there.
pub(crate) fn request_op(request: &Value) -> ServiceResult<Op> {
    let name = Fields::of(request)?.required_str("op")?;
    Op::parse(name).ok_or_else(|| ServiceError::bad_request(format!("unknown op '{name}'")))
}

thread_local! {
    /// The one request-state slot.
    pub(crate) static CURRENT: RefCell<RequestCtx> = const {
        RefCell::new(RequestCtx { trace: TraceCtx::DISABLED, deadline: None, client: None, cancel: None, park: None })
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn enter_scopes_and_restores_every_field() {
        let outer = RequestCtx {
            trace: TraceCtx {
                trace: 7,
                parent: 3,
            },
            deadline: Some(Deadline::after(Duration::from_secs(60))),
            client: Some(Arc::from("tenant-1")),
            cancel: Some(Arc::new(AtomicBool::new(true))),
            park: None,
        };
        assert!(RequestCtx::current().client.is_none());
        outer.clone().enter(|| {
            let seen = RequestCtx::current();
            assert_eq!(seen.trace, outer.trace);
            assert_eq!(seen.deadline, outer.deadline);
            assert_eq!(seen.client.as_deref(), Some("tenant-1"));
            assert!(seen.is_cancelled());
            RequestCtx::default().enter(|| {
                let inner = RequestCtx::current();
                assert!(inner.client.is_none() && inner.deadline.is_none());
                assert!(!inner.is_cancelled());
            });
            assert_eq!(RequestCtx::current().deadline, outer.deadline);
            assert_eq!(crate::trace::ambient(), outer.trace);
        });
        let after = std::panic::catch_unwind(|| outer.clone().enter(|| panic!("unwind")));
        assert!(after.is_err());
        let restored = RequestCtx::current();
        assert!(restored.client.is_none() && restored.cancel.is_none());
        assert_eq!(restored.trace, TraceCtx::DISABLED);
    }

    #[test]
    fn a_sub_request_keeps_its_own_tag_else_the_batch_tag() {
        let batch = RequestCtx {
            client: Some(Arc::from("outer")),
            ..RequestCtx::default()
        };
        let parse = |raw: &str| -> Value { serde_json::from_str(raw).unwrap() };
        let own = batch
            .for_sub(
                &parse(r#"{"op": "ping", "client": "inner"}"#),
                TraceCtx::DISABLED,
            )
            .unwrap();
        assert_eq!(own.client.as_deref(), Some("inner"));
        let inherited = batch
            .for_sub(&parse(r#"{"op": "ping"}"#), TraceCtx::DISABLED)
            .unwrap();
        assert_eq!(inherited.client.as_deref(), Some("outer"));
        assert_eq!(inherited.client_hash(), batch.client_hash());
        assert!(batch
            .for_sub(&parse(r#"{"op": "ping", "client": 8}"#), TraceCtx::DISABLED)
            .is_err());
    }
}
