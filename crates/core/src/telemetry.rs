//! The pipeline's telemetry facade: pre-registered counters, gauges,
//! per-stage latency histograms, the drift timeline, and the structured
//! event log, all backed by [`odin_telemetry::Registry`].
//!
//! Every handle is registered once at construction so metric names and
//! histogram bucket bounds are fixed for the life of the pipeline —
//! the precondition for output that is bit-identical at any
//! `ODIN_THREADS` and across checkpoint/restore. Get the facade with
//! [`crate::pipeline::Odin::telemetry`]; a typed copy comes from
//! [`Telemetry::snapshot`].
//!
//! Stage timers cover: `encode` (latent projection), `ingest`
//! (cluster/Δ-band observation), `select` (SELECTOR decision), `detect`
//! (model/teacher inference + NMS), `train` (SPECIALIZER wall time),
//! `snapshot_build` (checkpoint serialization), `snapshot_write`
//! (background atomic file write), and `wal_append` (drift-event WAL
//! append + fsync).
//!
//! Each stage timer is also a *span*: the same RAII guard that feeds
//! the histogram records a [`odin_telemetry::SpanRecord`] into the
//! always-on flight recorder, linked by parent id into a per-frame or
//! per-recovery trace. [`Telemetry::render_chrome_trace`] exports the
//! recorder as Chrome-trace JSON (loadable in Perfetto). The HTTP
//! exposition (`/metrics`, `/flight`, `/healthz`, `/events`) is
//! [`crate::server::OdinServer::serve`]'s; one camera is a one-stream
//! server.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use odin_store::checkpoint::write_atomic;
use odin_telemetry::{
    chrome_trace, log_bounds, unpoison, Clock, Counter, FlightRecord, Gauge, Histogram, Level,
    Registry, SpanCtx, SpanGuard, TelemetrySnapshot, TimelineEvent, TimelineStage,
};

/// Bucket bounds (ms) shared by the fast per-frame stages. Log-spaced
/// from 5 µs to 5 s: encode/select/detect on a tiny synthetic frame sit
/// near the bottom; a cold teacher inference near the middle.
fn stage_bounds() -> Vec<f64> {
    log_bounds(0.005, 5_000.0, 14)
}

/// Bucket bounds (ms) for SPECIALIZER training runs and whole
/// recoveries, which live on a much slower scale (milliseconds to
/// minutes).
fn train_bounds() -> Vec<f64> {
    log_bounds(1.0, 600_000.0, 14)
}

/// Shared telemetry facade for one pipeline instance. Cloning is cheap
/// and shares all state (the clone observes into the same registry).
#[derive(Clone)]
pub struct Telemetry {
    registry: Arc<Registry>,
    last_error: Arc<Mutex<Option<String>>>,
    /// Where the flight recorder auto-dumps (Chrome-trace JSON) on
    /// drift events and store errors; set when a store is attached.
    dump_path: Arc<Mutex<Option<PathBuf>>>,

    // Counters.
    pub(crate) frames: Counter,
    pub(crate) served_teacher: Counter,
    pub(crate) served_ensemble: Counter,
    pub(crate) served_fallback: Counter,
    pub(crate) drift_events: Counter,
    pub(crate) evictions: Counter,
    pub(crate) jobs_submitted: Counter,
    pub(crate) models_lite: Counter,
    pub(crate) models_specialized: Counter,
    pub(crate) snapshots: Counter,
    pub(crate) wal_appends: Counter,
    pub(crate) store_errors: Counter,
    pub(crate) quant_fallback: Counter,
    /// Drift events whose cluster matched an archived attic signature
    /// (the cached model was reinstalled instead of retrained).
    pub(crate) attic_hits: Counter,
    /// Drift events that probed a non-empty attic and found no match.
    pub(crate) attic_misses: Counter,
    /// Evicted-cluster models archived into the attic.
    pub(crate) attic_archived: Counter,
    /// Attic entries dropped by the byte-budget LRU.
    pub(crate) attic_evicted: Counter,
    /// Trained models dropped because their cluster was evicted while
    /// the job ran.
    pub(crate) train_orphaned: Counter,
    /// Queued training jobs cancelled before starting because their
    /// cluster was evicted.
    pub(crate) train_cancelled: Counter,
    /// Background training jobs whose run panicked; they settle without
    /// a model.
    pub(crate) train_failed: Counter,
    /// Records accepted into the event-log queue.
    pub(crate) event_log_appended: Counter,
    /// Records dropped because the event-log queue was full.
    pub(crate) event_log_dropped: Counter,

    // Gauges.
    pub(crate) clusters: Gauge,
    pub(crate) models: Gauge,
    pub(crate) queue_depth: Gauge,
    pub(crate) in_flight: Gauge,
    /// Configured serving precision: 0 = f32, 1 = int8.
    pub(crate) serve_precision: Gauge,
    /// Instantaneous event-log queue depth (emitter minus writer).
    pub(crate) event_log_queue_depth: Gauge,

    // Stage latency histograms.
    pub(crate) stage_encode: Histogram,
    pub(crate) stage_ingest: Histogram,
    pub(crate) stage_select: Histogram,
    pub(crate) stage_detect: Histogram,
    pub(crate) stage_train: Histogram,
    pub(crate) stage_snapshot_build: Histogram,
    pub(crate) stage_snapshot_write: Histogram,
    pub(crate) stage_wal_append: Histogram,
    /// Drift detected → model installed, per recovery episode that this
    /// process saw from its first frame to its last (trained or
    /// reinstalled from the attic): how long the cluster was served
    /// without a model of its own.
    pub(crate) recovery: Histogram,
    /// Wall time per sealed event-log segment write (background
    /// thread; live only when the event log is enabled).
    pub(crate) event_log_flush: Histogram,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("registry", &self.registry).finish()
    }
}

impl Telemetry {
    /// Creates a facade with every pipeline metric pre-registered.
    /// Warnings and errors are echoed to stderr (so store failures stay
    /// visible on the console) until [`Telemetry::clear_sinks`].
    pub fn new() -> Self {
        let registry = Arc::new(Registry::new());
        let stage = stage_bounds();
        Telemetry {
            frames: registry.counter("odin_frames_total"),
            served_teacher: registry.counter("odin_served_teacher_total"),
            served_ensemble: registry.counter("odin_served_ensemble_total"),
            served_fallback: registry.counter("odin_served_fallback_total"),
            drift_events: registry.counter("odin_drift_events_total"),
            evictions: registry.counter("odin_evictions_total"),
            jobs_submitted: registry.counter("odin_train_jobs_total"),
            models_lite: registry.counter("odin_models_installed_lite_total"),
            models_specialized: registry.counter("odin_models_installed_specialized_total"),
            snapshots: registry.counter("odin_snapshots_total"),
            wal_appends: registry.counter("odin_wal_appends_total"),
            store_errors: registry.counter("odin_store_errors_total"),
            quant_fallback: registry.counter("odin_quant_fallback_total"),
            attic_hits: registry.counter("odin_attic_hits_total"),
            attic_misses: registry.counter("odin_attic_misses_total"),
            attic_archived: registry.counter("odin_attic_archived_total"),
            attic_evicted: registry.counter("odin_attic_evicted_total"),
            train_orphaned: registry.counter("odin_train_orphaned_total"),
            train_cancelled: registry.counter("odin_train_cancelled_total"),
            train_failed: registry.counter("odin_train_failed_total"),
            event_log_appended: registry.counter("odin_event_log_appended_total"),
            event_log_dropped: registry.counter("odin_event_log_dropped_total"),
            clusters: registry.gauge("odin_clusters"),
            models: registry.gauge("odin_models"),
            queue_depth: registry.gauge("odin_training_queue_depth"),
            in_flight: registry.gauge("odin_train_in_flight"),
            serve_precision: registry.gauge("odin_serve_precision"),
            event_log_queue_depth: registry.gauge("odin_event_log_queue_depth"),
            stage_encode: registry.histogram("odin_stage_encode_ms", &stage),
            stage_ingest: registry.histogram("odin_stage_ingest_ms", &stage),
            stage_select: registry.histogram("odin_stage_select_ms", &stage),
            stage_detect: registry.histogram("odin_stage_detect_ms", &stage),
            stage_train: registry.histogram("odin_stage_train_ms", &train_bounds()),
            stage_snapshot_build: registry.histogram("odin_stage_snapshot_build_ms", &stage),
            stage_snapshot_write: registry.histogram("odin_stage_snapshot_write_ms", &stage),
            stage_wal_append: registry.histogram("odin_stage_wal_append_ms", &stage),
            recovery: registry.histogram("odin_recovery_ms", &train_bounds()),
            event_log_flush: registry.histogram("odin_event_log_flush_ms", &stage),
            registry,
            last_error: Arc::new(Mutex::new(None)),
            dump_path: Arc::new(Mutex::new(None)),
        }
    }

    /// The underlying registry (for ad-hoc metrics or direct access).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Opens a root span in a brand-new trace.
    pub(crate) fn root_span(&self, name: &'static str) -> SpanGuard {
        self.registry.tracer().root(name)
    }

    /// Opens a span under `ctx` (for cross-thread continuation, e.g.
    /// the training pool's worker-side `train` span).
    pub(crate) fn span(&self, name: &'static str, ctx: SpanCtx) -> SpanGuard {
        self.registry.tracer().span(name, ctx)
    }

    /// Records an instant marker span and returns its id so later spans
    /// can parent onto it.
    pub(crate) fn instant(
        &self,
        name: &'static str,
        ctx: SpanCtx,
        cluster: i64,
        frame: i64,
    ) -> u64 {
        self.registry.tracer().instant(name, ctx, cluster, frame)
    }

    /// Allocates a fresh trace id (one per recovery arc).
    pub(crate) fn new_trace(&self) -> u64 {
        self.registry.tracer().new_trace()
    }

    /// The per-frame root span, tagged with the stream frame index.
    pub(crate) fn frame_span(&self, frame_idx: u64) -> SpanGuard {
        let mut g = self.root_span("frame");
        g.set_frame(frame_idx as usize);
        g
    }

    /// RAII stage timer: opens a span under `ctx`; when the guard drops
    /// the span closes and its duration lands in `hist`. One guard feeds
    /// both the latency histogram and the flight recorder, so the two
    /// views can never disagree.
    pub(crate) fn stage_span(
        &self,
        name: &'static str,
        hist: &Histogram,
        ctx: SpanCtx,
    ) -> StageSpan {
        StageSpan { span: Some(self.span(name, ctx)), hist: hist.clone() }
    }

    /// Like [`Telemetry::stage_span`] but as the root of its own trace
    /// (batch stages that don't belong to a single frame).
    pub(crate) fn stage_root_span(&self, name: &'static str, hist: &Histogram) -> StageSpan {
        StageSpan { span: Some(self.root_span(name)), hist: hist.clone() }
    }

    /// Replaces the time source. Installing an
    /// [`odin_telemetry::ManualClock`] makes every recorded duration a
    /// pure function of the stream — the determinism tests rely on it.
    pub fn set_clock(&self, clock: Arc<dyn Clock>) {
        self.registry.set_clock(clock);
    }

    /// Stops echoing warnings and errors to stderr; the flight recorder
    /// keeps every event.
    pub fn clear_sinks(&self) {
        self.registry.clear_sinks();
    }

    /// Records a leveled event in the flight recorder (warnings and
    /// errors also go to stderr until [`Telemetry::clear_sinks`]).
    pub fn event(&self, level: Level, target: &'static str, message: impl Into<String>) {
        self.registry.event(level, target, message);
    }

    /// Records a drift-timeline marker at the given stream frame.
    pub(crate) fn record_timeline(&self, stage: TimelineStage, cluster_id: usize, frame: usize) {
        self.registry.record_timeline(stage, cluster_id, frame);
    }

    /// The drift timeline recorded so far, oldest first.
    pub fn timeline(&self) -> Vec<TimelineEvent> {
        self.registry.timeline()
    }

    /// Counts one snapshot/WAL failure, remembers it as the last store
    /// error, and emits an error-level event. Never panics: persistence
    /// failures must not take down the serving path.
    pub(crate) fn record_store_error(
        &self,
        what: impl std::fmt::Display,
        detail: impl std::fmt::Display,
    ) {
        self.store_errors.inc();
        self.note_store_error(what, detail);
    }

    /// [`Self::record_store_error`] for a failure already counted in
    /// `odin_store_errors_total` (the event-log writer counts its own).
    pub(crate) fn note_store_error(
        &self,
        what: impl std::fmt::Display,
        detail: impl std::fmt::Display,
    ) {
        let message = format!("{what}: {detail}");
        *unpoison(self.last_error.lock()) = Some(message.clone());
        self.registry.event(Level::Error, "store", message);
        // Preserve the evidence: dump the flight recorder so the spans
        // and events leading up to the failure survive a crash.
        self.flight_autodump();
    }

    /// The most recent store failure, if any.
    pub fn last_store_error(&self) -> Option<String> {
        unpoison(self.last_error.lock()).clone()
    }

    /// A frozen, ordered copy of all metrics and the timeline.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.registry.snapshot()
    }

    /// Restores metric values from a snapshot (all handles stay valid).
    pub(crate) fn load(&self, snap: &TelemetrySnapshot) {
        self.registry.load(snap);
    }

    /// A copy of the flight recorder's current contents: the most
    /// recent spans and events plus drop counters.
    pub fn flight_record(&self) -> FlightRecord {
        self.registry.flight_record()
    }

    /// Chrome-trace (Perfetto) JSON export of the flight recorder.
    /// With a manual clock this is a pure function of the stream.
    pub fn render_chrome_trace(&self) -> String {
        chrome_trace(&self.flight_record())
    }

    /// Writes the Chrome-trace export to `path`.
    pub fn dump_flight(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.render_chrome_trace())
    }

    /// Sets (or clears) the auto-dump destination. The pipeline points
    /// this at `<store_dir>/flight.json` when a store is attached.
    pub(crate) fn set_flight_dump_path(&self, path: Option<PathBuf>) {
        *unpoison(self.dump_path.lock()) = path;
    }

    /// The current auto-dump destination, if any.
    pub fn flight_dump_path(&self) -> Option<PathBuf> {
        unpoison(self.dump_path.lock()).clone()
    }

    /// Dumps the flight record to the configured path, if one is set —
    /// atomically, so a crash mid-dump keeps the previous one. A failed
    /// dump emits a warn event and nothing else — in particular it must
    /// NOT count as a store error, or a broken store directory would
    /// recurse through [`Telemetry::record_store_error`] forever.
    pub(crate) fn flight_autodump(&self) {
        let path = self.flight_dump_path();
        if let Some(path) = path {
            if let Err(e) = write_atomic(&path, self.render_chrome_trace().as_bytes()) {
                self.registry.event(
                    Level::Warn,
                    "telemetry",
                    format!("flight-record dump to {} failed: {e}", path.display()),
                );
            }
        }
    }
}

/// RAII guard tying a span to a stage histogram: dropping it closes the
/// span and observes the span's duration into the histogram.
pub(crate) struct StageSpan {
    span: Option<SpanGuard>,
    hist: Histogram,
}

impl Drop for StageSpan {
    fn drop(&mut self) {
        if let Some(span) = self.span.take() {
            self.hist.observe_ms(span.close());
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odin_telemetry::render_prometheus_grouped;

    #[test]
    fn clone_shares_state() {
        let tel = Telemetry::new();
        tel.clear_sinks(); // keep test output quiet
        let other = tel.clone();
        other.frames.add(3);
        assert_eq!(tel.frames.get(), 3);
        other.record_store_error("wal append", "disk full");
        assert_eq!(tel.store_errors.get(), 1);
        assert_eq!(tel.last_store_error().as_deref(), Some("wal append: disk full"));
    }

    #[test]
    fn stage_span_feeds_histogram_and_flight_recorder() {
        let tel = Telemetry::new();
        tel.clear_sinks();
        let clock = Arc::new(odin_telemetry::ManualClock::new());
        tel.set_clock(clock.clone());
        let root = tel.frame_span(9);
        {
            let _g = tel.stage_span("ingest", &tel.stage_ingest, root.child_ctx());
            clock.advance_ms(1.0);
        }
        drop(root);
        assert_eq!(tel.stage_ingest.snapshot("x").count, 1);
        let rec = tel.flight_record();
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[0].name, "ingest");
        assert_eq!(rec.spans[0].parent, rec.spans[1].id);
        assert_eq!(rec.spans[1].frame, 9);
    }

    #[test]
    fn renders_cover_preregistered_metrics() {
        let tel = Telemetry::new();
        tel.clear_sinks();
        let prom = render_prometheus_grouped(&[("0".into(), tel.snapshot())]);
        assert!(prom.contains("# TYPE odin_stage_encode_ms histogram"));
        assert!(prom.contains("# TYPE odin_event_log_flush_ms histogram"));
        for metric in [
            "odin_frames_total",
            "odin_attic_hits_total",
            "odin_attic_misses_total",
            "odin_attic_archived_total",
            "odin_attic_evicted_total",
            "odin_train_orphaned_total",
            "odin_train_cancelled_total",
            "odin_train_failed_total",
            "odin_event_log_appended_total",
            "odin_event_log_dropped_total",
            "odin_event_log_queue_depth",
        ] {
            assert!(prom.contains(&format!("{metric}{{stream=\"0\"}} 0\n")), "{metric}");
        }
    }
}
