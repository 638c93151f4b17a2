//! # odin-telemetry
//!
//! Observability primitives for the ODIN pipeline, with a determinism
//! contract: every exposition (Prometheus text, Chrome-trace JSON,
//! typed snapshot) is a pure function of the recorded observations,
//! and the recorded observations are a pure function of the stream
//! when a deterministic
//! [`clock::Clock`] is installed. That makes telemetry output
//! bit-comparable across `ODIN_THREADS` settings and across
//! checkpoint/restore cycles — the property the repo's telemetry tests
//! pin.
//!
//! * [`registry::Registry`] — named monotonic [`registry::Counter`]s,
//!   [`registry::Gauge`]s, and fixed-bucket latency
//!   [`registry::Histogram`]s (log-spaced bounds chosen at
//!   registration, so merged output never depends on thread count),
//! * [`event`] — event severity: [`registry::Registry::event`] records
//!   leveled events in the flight recorder and echoes warnings and
//!   errors to stderr,
//! * [`timeline`] — the drift timeline: drift detected → training job
//!   queued → model installed, with frame indices and wall times,
//! * [`render`] — Prometheus text exposition of labeled
//!   [`registry::TelemetrySnapshot`]s, and [`render::read_samples`], its
//!   reader,
//! * [`json`] — the workspace's one JSON escaper and one JSON reader,
//! * [`clock`] — the time source: [`clock::WallClock`] in production,
//!   [`clock::ManualClock`] for bit-identical tests,
//! * [`span`] — hierarchical causal tracing: [`span::SpanGuard`]s with
//!   parent ids and per-frame / per-recovery trace ids, propagated
//!   across thread boundaries via the `Copy`able [`span::SpanCtx`],
//! * [`recorder`] — the always-on, fixed-capacity flight recorder
//!   (ring buffers of recent spans and events),
//! * [`export`] — Chrome-trace (Perfetto) JSON export of a
//!   [`recorder::FlightRecord`],
//! * [`http`] — a zero-dependency blocking HTTP server
//!   ([`http::serve`]) that answers every request through one router.
//!
//! The crate has no dependencies (not even on the rest of the
//! workspace) so any ODIN crate can embed it without cycles.

#![warn(missing_docs)]

use std::sync::LockResult;

/// Recover the guard from a possibly poisoned lock.
///
/// Telemetry state behind these locks (metric maps, ring buffers, the
/// clock) is updated with short, infallible critical sections, so a
/// poisoned lock means an *emitter* thread panicked mid-update — the
/// protected data is still structurally sound. Observability must stay
/// up precisely when something else is crashing, so readers and
/// renderers (`/metrics`, flight-recorder dumps) take the guard instead
/// of cascading the panic.
pub fn unpoison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(|poisoned| poisoned.into_inner())
}

pub mod clock;
pub mod event;
pub mod export;
pub mod http;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod render;
pub mod span;
pub mod timeline;

pub use clock::{Clock, ManualClock, WallClock};
pub use event::Level;
pub use export::chrome_trace;
pub use http::{
    get, post, serve, MetricsServer, Request, Response, RouteHandler, MAX_CONNECTION_THREADS,
};
pub use recorder::{FlightRecord, FlightRecorder, RecordedEvent};
pub use registry::{
    log_bounds, Counter, Gauge, Histogram, HistogramSnapshot, Registry, TelemetrySnapshot,
};
pub use render::{read_samples, render_prometheus_grouped, Sample};
pub use span::{SpanCtx, SpanGuard, SpanRecord, Tracer, NO_PARENT};
pub use timeline::{TimelineEvent, TimelineStage};
