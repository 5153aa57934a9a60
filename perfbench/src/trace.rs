//! Spans recorded from the benchmark's own files: a wrapper around a
//! route [`Handler`] that stamps handler entry and exit, next to the
//! `Request::arrival` instant the reactor stamped when it parsed the
//! request off the wire. The wrapper returns the inner handler's
//! response untouched.

use bytes::Bytes;
use etude_serve::http::{Method, Request};
use etude_serve::rustserver::Handler;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One handler invocation for `POST /predictions`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Schedule id of the client request (the part of `x-request-id`
    /// before any `-s<i>` leg suffix).
    pub id: u64,
    /// Shard group index for a backend leg, `None` for the front server.
    pub leg: Option<u8>,
    /// When the reactor finished parsing the request.
    pub arrival: Instant,
    /// Handler entry.
    pub entry: Instant,
    /// Handler return.
    pub exit: Instant,
    /// Response status.
    pub status: u16,
    /// Leg answers keep their body, so the router's merge can be
    /// replayed on the partials it received.
    pub body: Option<Bytes>,
}

/// In-memory span store, written out when the run ends.
#[derive(Debug, Default)]
pub struct TraceLog {
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl TraceLog {
    /// An empty, disabled log with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> TraceLog {
        TraceLog {
            enabled: AtomicBool::new(false),
            spans: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    /// Starts or stops recording.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("trace log lock poisoned"))
    }
}

/// Parses `123` or `123-s1` into the schedule id.
pub fn schedule_id(header: &str) -> Option<u64> {
    header.split('-').next()?.parse().ok()
}

/// Wraps `inner` so every `POST /predictions` it answers is recorded in
/// `log` while the log is enabled. `leg` tags shard-backend servers.
pub fn wrap(inner: Handler, log: Arc<TraceLog>, leg: Option<u8>) -> Handler {
    Arc::new(move |req: &Request| {
        let entry = Instant::now();
        let resp = inner(req);
        let exit = Instant::now();
        if req.method == Method::Post
            && req.path == "/predictions"
            && log.enabled.load(Ordering::Relaxed)
        {
            if let Some(id) = req.headers.get("x-request-id").and_then(|h| schedule_id(h)) {
                let span = Span {
                    id,
                    leg,
                    arrival: req.arrival,
                    entry,
                    exit,
                    status: resp.status,
                    body: leg.map(|_| resp.body.clone()),
                };
                log.spans
                    .lock()
                    .expect("trace log lock poisoned")
                    .push(span);
            }
        }
        resp
    })
}
