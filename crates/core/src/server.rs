//! Multi-stream sharded serving: N camera streams, one process.
//!
//! [`OdinServer`] fronts N per-stream [`Odin`] shards with one ingest
//! layer. The split follows the shard/shared divide:
//!
//! * **Per-stream shard state** — each stream keeps its own [`Odin`]:
//!   ingest window, drift detectors (cluster manager), telemetry
//!   registry and tracing roots, and checkpoint namespace
//!   (`<store>/streams/<id>/…`). Shards never read each other's state,
//!   so one camera's drift cannot contaminate another's detectors.
//! * **Process-wide shared state** — one [`SharedRegistry`] holds every
//!   stream's specialized models under disjoint id namespaces
//!   ([`NS_STRIDE`]), one [`Trainer`] trains for every shard (a drift
//!   burst on one camera borrows the whole training capacity; each
//!   job records into the submitting shard's telemetry), and the
//!   exposition endpoints merge per-shard telemetry under
//!   `stream="<id>"` labels.
//!
//! Frames enter through [`OdinServer::submit`] (or `POST
//! /ingest/<stream>` once [`OdinServer::serve`] is up — the workspace's
//! one HTTP front end; one camera is a one-stream server), pass admission
//! control (per-stream queue cap → HTTP 429 backpressure), and are
//! routed to serving workers. Each worker owns a static subset of
//! shards (`stream % workers`), so every shard sees its frames in FIFO
//! order and per-shard results are deterministic regardless of how
//! many streams run concurrently; batched frames go through the
//! existing [`Odin::process_batch`], which is pinned identical to
//! per-frame processing.
//!
//! Checkpointing dedups shard-invariant weight sections: the encoder
//! and teacher are written once to `shared.odst`, per-shard snapshots
//! omit them, and [`OdinServer::restore_from_dir`] resolves the
//! sections back so every shard restores bit-identically.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use odin_data::{Condition, Frame, GtBox, Image, ObjectClass, TimeOfDay, Weather};
use odin_detect::Detector;
use odin_log::segment::scan_bytes;
use odin_log::{collect_after, events_page, Cursor, LogRecord, RecordKind, EVENT_LOG_FILE};
use odin_store::checkpoint::write_atomic;
use odin_store::framed::read_or_empty;
use odin_store::{Checkpoint, Decoder, Encoder, StoreError};
use odin_telemetry::{
    chrome_trace, log_bounds, render_prometheus_grouped, Counter, FlightRecord, Gauge, Histogram,
    MetricsServer, Request, Response, TelemetrySnapshot,
};
use odin_tensor::par;
use parking_lot::Mutex;

use crate::encoder::LatentEncoder;
use crate::pipeline::{FrameResult, Odin, OdinConfig, NS_STRIDE};
use crate::registry::{ModelRegistry, SharedRegistry};
use crate::specializer::Specializer;
use crate::store::{
    persist_frame, restore_frame, CheckpointPolicy, FrameBounds, SHARED_SNAPSHOT_FILE,
    SNAPSHOT_FILE, STREAMS_DIR,
};
use crate::telemetry::Telemetry;
use crate::training::{Trainer, TrainingMode};

/// Configuration of the serving layer (the per-stream pipelines are
/// configured by the embedded [`OdinConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Number of concurrent streams (shards). At least 1.
    pub streams: usize,
    /// Serving worker threads. Shards are partitioned statically
    /// (worker `w` owns streams `w, w+W, w+2W, …`), which keeps every
    /// shard's frame order FIFO — the basis of per-shard determinism.
    pub workers: usize,
    /// Admission cap per stream: frames submitted but not yet answered.
    /// Beyond it, [`OdinServer::submit`] rejects with
    /// [`SubmitError::Backpressure`] (HTTP 429 on the ingest route).
    pub queue_cap: usize,
    /// Max frames per [`Odin::process_batch`] call when a worker drains
    /// its queue. Batching makes the encoder cheaper per frame (the
    /// DA-GAN's: 70 µs in a batch of 16, 110 µs alone) without changing
    /// results.
    pub batch_max: usize,
    /// Per-stream pipeline configuration. `training` configures the
    /// one [`Trainer`] every shard shares: `Background { workers }`
    /// gives it that many worker threads; `Inline` trains on the
    /// serving workers (deterministic).
    pub odin: OdinConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            streams: 4,
            workers: 2,
            queue_cap: 64,
            batch_max: 16,
            odin: OdinConfig::default(),
        }
    }
}

/// Why a frame was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The stream index is outside `0..streams`.
    UnknownStream(usize),
    /// The stream's admission queue is full; shed load upstream and
    /// retry (HTTP 429 on the ingest route).
    Backpressure {
        /// The stream that was over its cap.
        stream: usize,
        /// The queue depth observed at rejection.
        depth: usize,
    },
    /// The server is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownStream(s) => write!(f, "unknown stream {s}"),
            SubmitError::Backpressure { stream, depth } => {
                write!(f, "stream {stream} queue full (depth {depth})")
            }
            SubmitError::ShuttingDown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Serializes a frame for `POST /ingest/<stream>` (the little-endian
/// `odin-store` frame codec, no container).
pub fn encode_ingest_frame(frame: &Frame) -> Vec<u8> {
    let mut enc = Encoder::new();
    persist_frame(frame, &mut enc);
    enc.into_bytes()
}

/// What `POST /ingest/<stream>` accepts: a frame side of at most 256
/// (the detectors resize to their own input anyway; the repo's streams
/// are 48 px) and at most 256 ground-truth boxes.
const INGEST_BOUNDS: FrameBounds = FrameBounds { side: 256, boxes: 256 };

/// The largest legal ingest frame: RGB at the largest side with the most
/// boxes (every field of the codec is fixed-width, so the values do not
/// matter).
fn max_ingest_frame() -> Frame {
    let any_box = GtBox { class: ObjectClass::ALL[0], x: 0.0, y: 0.0, w: 0.0, h: 0.0 };
    Frame {
        image: Image::new(3, INGEST_BOUNDS.side, INGEST_BOUNDS.side),
        boxes: vec![any_box; INGEST_BOUNDS.boxes],
        cond: Condition::new(Weather::Clear, TimeOfDay::Day),
    }
}

/// Parses a `POST /ingest/<stream>` body back into a frame within
/// [`INGEST_BOUNDS`] (a checkpoint's frames are not held to them).
pub fn decode_ingest_frame(bytes: &[u8]) -> Result<Frame, StoreError> {
    let mut dec = Decoder::new(bytes);
    let frame = restore_frame(&mut dec, INGEST_BOUNDS)?;
    dec.finish("ingest frame")?;
    Ok(frame)
}

/// One queued frame: where it goes, when it arrived, who is waiting.
struct Job {
    stream: usize,
    frame: Frame,
    submitted: Instant,
    reply: Sender<FrameResult>,
}

enum Msg {
    Job(Job),
    Stop,
}

/// Per-shard telemetry handles for the serving layer's own metrics.
/// They live in the *shard's* registry so the merged `/metrics`
/// exposition labels them `stream="<id>"`, and they are persisted with
/// the shard's checkpoint like every other metric. Replaced wholesale
/// when a shard is restored in place ([`OdinServer::restore_shard`]).
struct ShardHandles {
    telemetry: Telemetry,
    queue_gauge: Gauge,
    admitted: Counter,
    rejected: Counter,
    frame_ms: Histogram,
}

impl ShardHandles {
    fn for_pipeline(odin: &Odin) -> Self {
        let telemetry = odin.telemetry().clone();
        let reg = telemetry.registry();
        ShardHandles {
            queue_gauge: reg.gauge("odin_server_queue_depth"),
            admitted: reg.counter("odin_server_admitted_total"),
            rejected: reg.counter("odin_server_rejected_total"),
            frame_ms: reg.histogram("odin_server_frame_ms", &log_bounds(0.1, 10_000.0, 24)),
            telemetry,
        }
    }
}

struct ShardState {
    odin: Mutex<Odin>,
    handles: Mutex<ShardHandles>,
    /// Frames submitted but not yet answered (admission control).
    depth: AtomicUsize,
}

struct ServerInner {
    shards: Vec<Arc<ShardState>>,
    worker_txs: Vec<Sender<Msg>>,
    registry: SharedRegistry,
    trainer: Arc<Trainer>,
    queue_cap: usize,
    stopped: AtomicBool,
    /// Root store directory once [`OdinServer::enable_store`] /
    /// [`OdinServer::restore_from_dir`] has run; the `GET /events`
    /// route tails `<store>/streams/<id>/events.odlg` under it.
    store_dir: Mutex<Option<PathBuf>>,
}

impl ServerInner {
    fn submit(&self, stream: usize, frame: Frame) -> Result<Receiver<FrameResult>, SubmitError> {
        let shard = self.shards.get(stream).ok_or(SubmitError::UnknownStream(stream))?;
        if self.stopped.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        // Check-then-add: concurrent submitters can briefly overshoot
        // the cap by their own count — admission control bounds the
        // queue, it does not meter it exactly.
        let depth = shard.depth.load(Ordering::SeqCst);
        if depth >= self.queue_cap {
            shard.handles.lock().rejected.inc();
            return Err(SubmitError::Backpressure { stream, depth });
        }
        let depth = shard.depth.fetch_add(1, Ordering::SeqCst) + 1;
        {
            let h = shard.handles.lock();
            h.admitted.inc();
            h.queue_gauge.set(depth as i64);
        }
        // Carries exactly one `FrameResult`.
        let (tx, rx) = bounded(1);
        let job = Job { stream, frame, submitted: Instant::now(), reply: tx };
        let tx = &self.worker_txs[stream % self.worker_txs.len()];
        if tx.send(Msg::Job(job)).is_err() {
            shard.depth.fetch_sub(1, Ordering::SeqCst);
            return Err(SubmitError::ShuttingDown);
        }
        Ok(rx)
    }

    fn render_metrics(&self) -> String {
        let labeled: Vec<(String, TelemetrySnapshot)> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| (i.to_string(), s.handles.lock().telemetry.snapshot()))
            .collect();
        render_prometheus_grouped(&labeled)
    }

    fn render_trace(&self) -> String {
        // Merge the shards' flight recorders in stream order. Trace and
        // span ids are namespaced per stream (`stream << 40`), so the
        // merged export groups per stream and never collides.
        let mut merged = FlightRecord {
            spans: Vec::new(),
            events: Vec::new(),
            dropped_spans: 0,
            dropped_events: 0,
        };
        for shard in &self.shards {
            let rec = shard.handles.lock().telemetry.flight_record();
            merged.spans.extend(rec.spans);
            merged.events.extend(rec.events);
            merged.dropped_spans += rec.dropped_spans;
            merged.dropped_events += rec.dropped_events;
        }
        chrome_trace(&merged)
    }

    /// Liveness JSON: `"status"` is `"ok"` until any shard counts a
    /// store error, then `"degraded"`.
    fn render_healthz(&self) -> String {
        let depths: Vec<String> =
            self.shards.iter().map(|s| s.depth.load(Ordering::SeqCst).to_string()).collect();
        let mut store_errors = 0;
        let mut log_depths = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let handles = shard.handles.lock();
            store_errors += handles.telemetry.store_errors.get();
            log_depths.push(handles.telemetry.event_log_queue_depth.get().to_string());
        }
        let status = if store_errors == 0 { "ok" } else { "degraded" };
        format!(
            "{{\"status\":\"{status}\",\"streams\":{},\"queue_cap\":{},\"queue_depths\":[{}],\"event_log_queue_depths\":[{}],\"store_errors\":{store_errors}}}",
            self.shards.len(),
            self.queue_cap,
            depths.join(","),
            log_depths.join(",")
        )
    }

    fn render_events(&self, req: &Request) -> Response {
        let Some(dir) = self.store_dir.lock().clone() else {
            return Response::text(
                "404 Not Found",
                "no store attached; /events serves the persistent event log\n",
            );
        };
        let paths: Vec<PathBuf> = (0..self.shards.len())
            .map(|i| dir.join(STREAMS_DIR).join(i.to_string()).join(EVENT_LOG_FILE))
            .collect();
        events_response(&paths, req)
    }

    fn route(&self, req: &Request) -> Option<Response> {
        if req.method == "GET" {
            return match req.path.as_str() {
                "/metrics" => Some(Response {
                    status: "200 OK",
                    content_type: "text/plain; version=0.0.4; charset=utf-8",
                    body: self.render_metrics().into_bytes(),
                }),
                "/healthz" => Some(Response::ok_json(self.render_healthz())),
                "/events" => Some(self.render_events(req)),
                "/flight" => Some(Response::ok_json(self.render_trace())),
                _ => None,
            };
        }
        if req.method != "POST" {
            return None;
        }
        let rest = req.path.strip_prefix("/ingest/")?;
        let Ok(stream) = rest.parse::<usize>() else {
            return Some(Response::text("404 Not Found", "bad stream id\n"));
        };
        let frame = match decode_ingest_frame(&req.body) {
            Ok(f) => f,
            Err(e) => return Some(Response::text("400 Bad Request", format!("bad frame: {e}\n"))),
        };
        Some(match self.submit(stream, frame) {
            Ok(rx) => match rx.recv() {
                Ok(res) => Response::ok_json(format!(
                    "{{\"stream\":{stream},\"detections\":{},\"served_by\":\"{:?}\",\"drift\":{}}}",
                    res.detections.len(),
                    res.served_by,
                    res.drift.is_some()
                )),
                Err(_) => Response::text("503 Service Unavailable", "server stopping\n"),
            },
            Err(e @ SubmitError::Backpressure { .. }) => {
                Response::text("429 Too Many Requests", format!("{e}\n"))
            }
            Err(e @ SubmitError::UnknownStream(_)) => {
                Response::text("404 Not Found", format!("{e}\n"))
            }
            Err(e @ SubmitError::ShuttingDown) => {
                Response::text("503 Service Unavailable", format!("{e}\n"))
            }
        })
    }
}

/// Longest a `GET /events` request may long-poll. Kept well under the
/// HTTP client/server read timeouts (5 s) so a quiet log returns an
/// empty batch instead of a dropped connection.
const EVENTS_MAX_WAIT_MS: u64 = 2_000;

/// Poll interval while a long-poll waits for new sealed records.
const EVENTS_POLL_MS: u64 = 25;

/// `GET /events`: one event-log path per stream, one [`Cursor`] per
/// path in the comma-joined `cursor` query parameter. A page holds at
/// most `limit` records in all ([`read_page`]) and long-polls up to
/// `wait_ms` when it would otherwise be empty. A `kind` filter drops
/// non-matching records *after* the cursors advance, so a filtered
/// tail still makes progress through frame traffic.
fn events_response(paths: &[PathBuf], req: &Request) -> Response {
    let n = paths.len();
    let limit = req
        .query_param("limit")
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(256)
        .clamp(1, 4096);
    let wait_ms = req
        .query_param("wait_ms")
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0)
        .min(EVENTS_MAX_WAIT_MS);
    let kind = match req.query_param("kind") {
        None | Some("") => None,
        Some(s) => match RecordKind::parse(s) {
            Some(k) => Some(k),
            None => {
                return Response::text("400 Bad Request", format!("unknown kind: {s}\n"));
            }
        },
    };
    let mut cursors: Vec<Cursor> = match req.query_param("cursor") {
        None | Some("") => vec![Cursor::default(); n],
        Some(s) => {
            let parsed: Option<Vec<Cursor>> = s.split(',').map(Cursor::parse).collect();
            match parsed {
                Some(v) if v.len() == n => v,
                _ => {
                    return Response::text(
                        "400 Bad Request",
                        format!("bad cursor: expected {n} comma-separated seq:offset entries\n"),
                    );
                }
            }
        }
    };
    let deadline = Instant::now() + Duration::from_millis(wait_ms);
    loop {
        let page = match read_page(paths, &mut cursors, limit) {
            Ok(page) => page,
            Err(e) => {
                return Response::text(
                    "500 Internal Server Error",
                    format!("event log read failed: {e}\n"),
                );
            }
        };
        let out: Vec<LogRecord> =
            page.into_iter().filter(|r| kind.is_none_or(|k| r.kind == k)).collect();
        if !out.is_empty() || Instant::now() >= deadline {
            return Response::ok_json(events_page(&cursors, &out));
        }
        std::thread::sleep(Duration::from_millis(EVENTS_POLL_MS));
    }
}

/// The first `limit` sealed records after `cursors` across `paths`,
/// merged by `(ts_us, stream, seq)`. Each stream is read up to `limit`
/// records and gives a prefix of them; its cursor moves past exactly
/// that prefix, found again in the log already scanned.
fn read_page(
    paths: &[PathBuf],
    cursors: &mut [Cursor],
    limit: usize,
) -> Result<Vec<LogRecord>, StoreError> {
    let mut logs = Vec::with_capacity(paths.len());
    let mut batches = Vec::with_capacity(paths.len());
    for (path, &cursor) in paths.iter().zip(cursors.iter()) {
        let log = scan_bytes(read_or_empty(path)?)?;
        let batch = collect_after(&log, cursor, limit)?;
        batches.push((batch.records.into_iter().peekable(), batch.next));
        logs.push(log);
    }
    let mut taken = vec![0; paths.len()];
    let mut page = Vec::new();
    while page.len() < limit {
        let heads = batches.iter_mut().enumerate();
        let next =
            heads.filter_map(|(i, (b, _))| b.peek().map(|r| ((r.ts_us, r.stream, r.seq), i)));
        let Some((_, i)) = next.min() else { break };
        page.extend(batches[i].0.next());
        taken[i] += 1;
    }
    for (i, (rest, next)) in batches.iter_mut().enumerate() {
        cursors[i] = match (rest.peek(), taken[i]) {
            (None, _) => *next,
            // `collect_after` raises a limit of 0 to 1: a stream that
            // gave nothing keeps its cursor.
            (Some(_), 0) => cursors[i],
            (Some(_), k) => collect_after(&logs[i], cursors[i], k)?.next,
        };
    }
    Ok(page)
}

fn worker_loop(rx: Receiver<Msg>, shards: Vec<Arc<ShardState>>, batch_max: usize, workers: usize) {
    // The tensor pool is one per process: each serving worker takes its
    // share, so `workers × intra-op threads ≤ tensor threads` and two
    // workers never fork every kernel into the same two cores. Training
    // pool threads set no cap and keep the whole pool.
    par::set_intra_op_cap((par::num_threads() / workers).max(1));
    loop {
        let first = match rx.recv() {
            Ok(Msg::Job(j)) => j,
            Ok(Msg::Stop) | Err(_) => return,
        };
        let mut stop = false;
        let mut jobs = vec![first];
        while jobs.len() < batch_max.max(1) {
            match rx.try_recv() {
                Ok(Msg::Job(j)) => jobs.push(j),
                Ok(Msg::Stop) => {
                    stop = true;
                    break;
                }
                Err(_) => break,
            }
        }
        // Group by stream; BTreeMap insertion preserves each stream's
        // arrival order, and the channel is this shard's only producer,
        // so per-shard processing stays FIFO.
        let mut by_stream: BTreeMap<usize, Vec<Job>> = BTreeMap::new();
        for job in jobs {
            by_stream.entry(job.stream).or_default().push(job);
        }
        for (stream, jobs) in by_stream {
            let shard = &shards[stream];
            let (frames, waiters): (Vec<Frame>, Vec<_>) =
                jobs.into_iter().map(|j| (j.frame, (j.submitted, j.reply))).unzip();
            let results = shard.odin.lock().process_batch(&frames);
            let handles = shard.handles.lock();
            for ((submitted, reply), result) in waiters.into_iter().zip(results) {
                handles.frame_ms.observe_ms(submitted.elapsed().as_secs_f64() * 1e3);
                let _ = reply.send(result);
                let depth = shard.depth.fetch_sub(1, Ordering::SeqCst) - 1;
                handles.queue_gauge.set(depth as i64);
            }
        }
        if stop {
            return;
        }
    }
}

/// The multi-stream ingest front end over N [`Odin`] shards. See the
/// module docs for the shard/shared state split.
pub struct OdinServer {
    inner: Arc<ServerInner>,
    workers: Vec<JoinHandle<()>>,
    http: Option<MetricsServer>,
    cfg: ServerConfig,
}

impl OdinServer {
    /// Builds a server with `cfg.streams` fresh shards. Each shard gets
    /// its own encoder from `encoder_factory(stream)` (the factory must
    /// build identical encoders — shared-section checkpoint dedup
    /// assumes it), one shared `teacher`, and the seed
    /// `seed + stream` so shards explore deterministically but not in
    /// lock-step.
    pub fn build<F>(cfg: ServerConfig, mut encoder_factory: F, teacher: Detector, seed: u64) -> Self
    where
        F: FnMut(usize) -> Box<dyn LatentEncoder>,
    {
        let teacher = Arc::new(teacher);
        let registry = ModelRegistry::new().into_shared();
        let trainer = Self::build_trainer(&cfg, &teacher);
        // Shards are built Inline: all training flows through the
        // shared trainer attached below, never a private per-shard
        // pool.
        let shard_cfg = OdinConfig { training: TrainingMode::Inline, ..cfg.odin };
        let shards: Vec<Odin> = (0..cfg.streams.max(1))
            .map(|i| {
                Odin::with_teacher(
                    encoder_factory(i),
                    Arc::clone(&teacher),
                    shard_cfg,
                    seed.wrapping_add(i as u64),
                )
            })
            .collect();
        Self::assemble(cfg, shards, registry, trainer)
    }

    fn build_trainer(cfg: &ServerConfig, teacher: &Arc<Detector>) -> Arc<Trainer> {
        Trainer::new(cfg.odin.training, Specializer::new(cfg.odin.specializer), Arc::clone(teacher))
    }

    fn assemble(
        cfg: ServerConfig,
        pipelines: Vec<Odin>,
        registry: SharedRegistry,
        trainer: Arc<Trainer>,
    ) -> Self {
        let shards: Vec<Arc<ShardState>> = pipelines
            .into_iter()
            .enumerate()
            .map(|(i, mut odin)| {
                odin.set_snapshot_self_contained(false);
                odin.attach_shared(i, &registry, &trainer);
                Arc::new(ShardState {
                    handles: Mutex::new(ShardHandles::for_pipeline(&odin)),
                    odin: Mutex::new(odin),
                    depth: AtomicUsize::new(0),
                })
            })
            .collect();
        let n_workers = cfg.workers.max(1);
        let mut worker_txs = Vec::with_capacity(n_workers);
        let mut workers = Vec::with_capacity(n_workers);
        for w in 0..n_workers {
            let (tx, rx) = unbounded::<Msg>();
            worker_txs.push(tx);
            let shards = shards.clone();
            let batch_max = cfg.batch_max;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("odin-serve-w{w}"))
                    .spawn(move || worker_loop(rx, shards, batch_max, n_workers))
                    .expect("spawn serving worker"),
            );
        }
        let inner = Arc::new(ServerInner {
            shards,
            worker_txs,
            registry,
            trainer,
            queue_cap: cfg.queue_cap.max(1),
            stopped: AtomicBool::new(false),
            store_dir: Mutex::new(None),
        });
        OdinServer { inner, workers, http: None, cfg }
    }

    /// Number of streams this server shards.
    pub fn streams(&self) -> usize {
        self.inner.shards.len()
    }

    /// The process-wide shared model registry.
    pub fn registry(&self) -> SharedRegistry {
        Arc::clone(&self.inner.registry)
    }

    /// A stream's current admission-queue depth.
    pub fn queue_depth(&self, stream: usize) -> usize {
        self.inner.shards.get(stream).map(|s| s.depth.load(Ordering::SeqCst)).unwrap_or(0)
    }

    /// Runs `f` with exclusive access to one shard's pipeline (tests,
    /// reporting, store attachment). Blocks frame processing for that
    /// shard while held.
    pub fn with_shard<R>(&self, stream: usize, f: impl FnOnce(&mut Odin) -> R) -> R {
        f(&mut self.inner.shards[stream].odin.lock())
    }

    /// Enqueues a frame for `stream` and returns the receiver its
    /// result will arrive on. Admission control applies.
    pub fn submit(
        &self,
        stream: usize,
        frame: Frame,
    ) -> Result<Receiver<FrameResult>, SubmitError> {
        self.inner.submit(stream, frame)
    }

    /// [`OdinServer::submit`] + blocking wait for the result.
    pub fn process(&self, stream: usize, frame: Frame) -> Result<FrameResult, SubmitError> {
        let rx = self.submit(stream, frame)?;
        rx.recv().map_err(|_| SubmitError::ShuttingDown)
    }

    /// Blocks until every admitted frame has been answered.
    pub fn drain(&self) {
        while self.inner.shards.iter().any(|s| s.depth.load(Ordering::SeqCst) > 0) {
            std::thread::yield_now();
        }
    }

    /// Finishes all shards' outstanding background training (via the
    /// shared trainer) and installs the models.
    pub fn finish_training(&self) {
        self.drain();
        for shard in &self.inner.shards {
            shard.odin.lock().finish_training();
        }
    }

    /// Starts the HTTP front end on `addr` (port 0 for ephemeral) and
    /// returns the bound address. Endpoints: `POST /ingest/<stream>`
    /// (body: [`encode_ingest_frame`]; 200 with a result summary, 429
    /// under backpressure), `GET /metrics` (all shards merged, every
    /// sample labeled `stream="<id>"`), `GET /flight` (merged
    /// Chrome-trace of the live flight recorders), `GET
    /// /healthz` (liveness + queue depths + cap), and `GET
    /// /events?cursor=&kind=&limit=&wait_ms=` (cursor-paged long-poll
    /// tail of the per-stream event logs; requires
    /// [`OdinServer::enable_store`]).
    pub fn serve<A: std::net::ToSocketAddrs>(
        &mut self,
        addr: A,
    ) -> std::io::Result<std::net::SocketAddr> {
        let inner = Arc::clone(&self.inner);
        let server = odin_telemetry::http::serve(
            addr,
            Arc::new(move |req: &Request| inner.route(req)),
            // The body cap is whatever the frame codec itself writes
            // for the largest legal frame.
            encode_ingest_frame(&max_ingest_frame()).len(),
        )?;
        let bound = server.addr();
        self.http = Some(server);
        Ok(bound)
    }

    /// The merged `/metrics` exposition (also available without the
    /// HTTP front end).
    pub fn render_metrics(&self) -> String {
        self.inner.render_metrics()
    }

    /// The merged `/healthz` body.
    pub fn render_healthz(&self) -> String {
        self.inner.render_healthz()
    }

    // -- Persistence ---------------------------------------------------

    /// Attaches a per-shard persistence runtime under
    /// `<dir>/streams/<id>/` (WAL + snapshot policy per shard) and
    /// writes the deduplicated shared sections to `<dir>/shared.odst`
    /// once.
    pub fn enable_store(&self, dir: &Path, policy: CheckpointPolicy) -> Result<(), StoreError> {
        std::fs::create_dir_all(dir)?;
        self.write_shared(dir)?;
        for (i, shard) in self.inner.shards.iter().enumerate() {
            let sdir = dir.join(STREAMS_DIR).join(i.to_string());
            shard.odin.lock().enable_store(&sdir, policy)?;
        }
        *self.inner.store_dir.lock() = Some(dir.to_path_buf());
        Ok(())
    }

    fn write_shared(&self, dir: &Path) -> Result<(), StoreError> {
        let bytes = self.inner.shards[0].odin.lock().shared_sections_bytes()?;
        write_atomic(&dir.join(SHARED_SNAPSHOT_FILE), &bytes)
    }

    /// Writes a full checkpoint of every shard: `<dir>/shared.odst`
    /// (encoder + teacher, once) plus
    /// `<dir>/streams/<id>/snapshot.odst` per shard (local cluster ids,
    /// no shared sections). Quiesce first ([`OdinServer::drain`]) for a
    /// frame-boundary-consistent image.
    pub fn checkpoint_all(&self, dir: &Path) -> Result<(), StoreError> {
        std::fs::create_dir_all(dir)?;
        self.write_shared(dir)?;
        for (i, shard) in self.inner.shards.iter().enumerate() {
            let sdir = dir.join(STREAMS_DIR).join(i.to_string());
            std::fs::create_dir_all(&sdir)?;
            shard.odin.lock().checkpoint(&sdir.join(SNAPSHOT_FILE))?;
        }
        Ok(())
    }

    /// Rebuilds a server from [`OdinServer::checkpoint_all`] /
    /// [`OdinServer::enable_store`] output: reads `shared.odst` once,
    /// restores every shard from its namespace directory (snapshot +
    /// WAL replay), and re-attaches the shared registry/trainer. Each
    /// shard comes back bit-identical to the one that wrote it.
    pub fn restore_from_dir(dir: &Path, cfg: ServerConfig) -> Result<Self, StoreError> {
        let shared = Checkpoint::read(&dir.join(SHARED_SNAPSHOT_FILE))?;
        let mut pipelines = Vec::with_capacity(cfg.streams);
        for i in 0..cfg.streams.max(1) {
            let sdir = dir.join(STREAMS_DIR).join(i.to_string());
            pipelines.push(Odin::restore_from_dir_with(&sdir, Some(&shared))?);
        }
        let registry = ModelRegistry::new().into_shared();
        let teacher = pipelines[0].teacher_handle();
        let trainer = Self::build_trainer(&cfg, &teacher);
        let server = Self::assemble(cfg, pipelines, registry, trainer);
        *server.inner.store_dir.lock() = Some(dir.to_path_buf());
        Ok(server)
    }

    /// Restores ONE shard in place from a server checkpoint directory,
    /// leaving every other shard untouched (targeted recovery). The
    /// shard's namespace in the shared registry is cleared first so no
    /// stale post-checkpoint model survives the rollback, and the shared
    /// trainer starts a new epoch for the stream, so no model or
    /// cancellation the old shard left in it reaches the restored one.
    pub fn restore_shard(&self, stream: usize, dir: &Path) -> Result<(), StoreError> {
        if stream >= self.inner.shards.len() {
            return Err(StoreError::Malformed { context: "restore_shard: unknown stream" });
        }
        let shared = Checkpoint::read(&dir.join(SHARED_SNAPSHOT_FILE))?;
        let sdir = dir.join(STREAMS_DIR).join(stream.to_string());
        let mut odin = Odin::restore_from_dir_with(&sdir, Some(&shared))?;
        odin.set_snapshot_self_contained(false);
        {
            let mut reg = self.inner.registry.write();
            for id in reg.ids_in(stream * NS_STRIDE, (stream + 1) * NS_STRIDE) {
                reg.remove(id);
            }
        }
        odin.attach_shared(stream, &self.inner.registry, &self.inner.trainer);
        let shard = &self.inner.shards[stream];
        let mut slot = shard.odin.lock();
        // Under the shard lock: the old shard submits nothing after this.
        self.inner.trainer.restart_stream(stream);
        *shard.handles.lock() = ShardHandles::for_pipeline(&odin);
        *slot = odin;
        Ok(())
    }

    /// Stops the HTTP front end and the serving workers. Queued frames
    /// already admitted are processed first; subsequent submits fail
    /// with [`SubmitError::ShuttingDown`]. Idempotent.
    pub fn shutdown(&mut self) {
        if let Some(mut http) = self.http.take() {
            http.shutdown();
        }
        if !self.inner.stopped.swap(true, Ordering::SeqCst) {
            for tx in &self.inner.worker_txs {
                let _ = tx.send(Msg::Stop);
            }
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// The server's configuration.
    pub fn config(&self) -> ServerConfig {
        self.cfg
    }
}

impl Drop for OdinServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::HistogramEncoder;
    use crate::specializer::SpecializerConfig;
    use odin_data::{SceneGen, Subset};
    use odin_detect::DetectorArch;
    use odin_drift::ManagerConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_cfg() -> ServerConfig {
        ServerConfig {
            streams: 2,
            workers: 2,
            queue_cap: 8,
            batch_max: 4,
            odin: OdinConfig {
                manager: ManagerConfig {
                    min_points: 12,
                    stable_window: 4,
                    kl_eps: 5e-3,
                    hist_hi: 8.0,
                    ..ManagerConfig::default()
                },
                specializer: SpecializerConfig {
                    arch: DetectorArch::Small,
                    frame_size: 48,
                    train_iters: 30,
                    distill_iters: 20,
                    batch_size: 4,
                },
                min_train_frames: 20,
                ..OdinConfig::default()
            },
        }
    }

    fn new_server(cfg: ServerConfig) -> OdinServer {
        let mut rng = StdRng::seed_from_u64(0);
        let teacher = Detector::heavy(48, &mut rng);
        let server = OdinServer::build(cfg, |_| Box::new(HistogramEncoder::new()), teacher, 42);
        for i in 0..server.streams() {
            server.with_shard(i, |o| o.telemetry().clear_sinks());
        }
        server
    }

    #[test]
    fn frames_route_to_their_shard_and_results_return() {
        let server = new_server(quick_cfg());
        let gen = SceneGen::new(48);
        let mut rng = StdRng::seed_from_u64(1);
        let frames = gen.subset_frames(&mut rng, Subset::Day, 6);
        for (i, f) in frames.iter().enumerate() {
            let res = server.process(i % 2, f.clone()).expect("admitted");
            assert!(res.used_teacher || !res.detections.is_empty() || res.detections.is_empty());
        }
        server.drain();
        let s0 = server.with_shard(0, |o| o.telemetry().frames.get());
        let s1 = server.with_shard(1, |o| o.telemetry().frames.get());
        assert_eq!(s0, 3);
        assert_eq!(s1, 3);
    }

    #[test]
    fn unknown_stream_and_backpressure_are_rejected() {
        let server = new_server(ServerConfig { queue_cap: 1, ..quick_cfg() });
        let gen = SceneGen::new(48);
        let mut rng = StdRng::seed_from_u64(2);
        let frame = gen.subset_frames(&mut rng, Subset::Day, 1).remove(0);
        assert_eq!(server.submit(9, frame.clone()).err(), Some(SubmitError::UnknownStream(9)));
        // Saturate stream 0's queue far beyond its cap of 1: at least
        // one submit must hit backpressure (the workers race us, so the
        // exact count varies).
        let mut rejected = 0;
        let mut receivers = Vec::new();
        for _ in 0..50 {
            match server.submit(0, frame.clone()) {
                Ok(rx) => receivers.push(rx),
                Err(SubmitError::Backpressure { stream, .. }) => {
                    assert_eq!(stream, 0);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(rejected > 0, "queue cap 1 never produced backpressure");
        for rx in receivers {
            rx.recv().expect("admitted frames still answered");
        }
        let metrics = server.render_metrics();
        assert!(metrics.contains("odin_server_rejected_total{stream=\"0\"}"), "{metrics}");
    }

    #[test]
    fn metrics_are_labeled_per_stream_and_healthz_is_live() {
        let server = new_server(quick_cfg());
        let gen = SceneGen::new(48);
        let mut rng = StdRng::seed_from_u64(3);
        let f = gen.subset_frames(&mut rng, Subset::Day, 1).remove(0);
        server.process(0, f.clone()).expect("admitted");
        server.process(1, f).expect("admitted");
        let metrics = server.render_metrics();
        assert!(metrics.contains("odin_frames_total{stream=\"0\"} 1"), "{metrics}");
        assert!(metrics.contains("odin_frames_total{stream=\"1\"} 1"), "{metrics}");
        assert!(metrics.contains("odin_server_queue_depth{stream=\"0\"}"), "{metrics}");
        assert_eq!(metrics.matches("# TYPE odin_frames_total counter").count(), 1);
        let health = server.render_healthz();
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        assert!(health.contains("\"streams\":2"), "{health}");
    }

    /// A 43-byte body: an RGB `h × w` image with no pixels, no boxes and
    /// the first condition of each kind.
    fn bare_header(h: usize, w: usize) -> Vec<u8> {
        let mut enc = Encoder::new();
        for side in [3, h, w] {
            enc.put_usize(side);
        }
        enc.put_f32s(&[]);
        enc.put_usize(0);
        for _ in 0..3 {
            enc.put_u8(0);
        }
        enc.into_bytes()
    }

    #[test]
    fn every_route_keeps_its_status_line_and_content_type() {
        use std::io::{Read, Write};
        let mut server = new_server(quick_cfg());
        let addr = server.serve("127.0.0.1:0").expect("bind");
        // The status line and Content-Type of one request, and its body.
        let send = |method: &str, path: &str| {
            let mut stream = std::net::TcpStream::connect(addr).expect("connect");
            write!(stream, "{method} {path} HTTP/1.1\r\nHost: odin\r\n\r\n").expect("send");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("read");
            let (head, body) = response.split_once("\r\n\r\n").expect("a header block");
            let mut lines = head.lines();
            let status = lines.next().unwrap_or("").to_string();
            let content_type = lines.find_map(|l| l.strip_prefix("Content-Type: ")).unwrap_or("");
            (format!("{status} | {content_type}"), body.to_string())
        };
        let json = "HTTP/1.1 200 OK | application/json; charset=utf-8";
        let (head, body) = send("GET", "/metrics");
        assert_eq!(head, "HTTP/1.1 200 OK | text/plain; version=0.0.4; charset=utf-8");
        assert_eq!(body, server.render_metrics());
        let (head, body) = send("GET", "/healthz");
        assert_eq!((head.as_str(), body), (json, server.render_healthz()));
        let (head, body) = send("GET", "/flight");
        assert_eq!(head, json);
        assert!(body.contains("\"traceEvents\""), "{body}");
        let text = |status: &str| format!("HTTP/1.1 {status} | text/plain; charset=utf-8");
        assert_eq!(send("GET", "/events").0, text("404 Not Found"), "no store attached");
        assert_eq!(send("GET", "/trace").0, text("404 Not Found"));
        assert_eq!(send("POST", "/metrics").0, text("405 Method Not Allowed"));
        server.shutdown();
    }

    #[test]
    fn http_ingest_round_trips_a_frame() {
        let mut server = new_server(quick_cfg());
        let addr = server.serve("127.0.0.1:0").expect("bind");
        let gen = SceneGen::new(48);
        let mut rng = StdRng::seed_from_u64(4);
        let frame = gen.subset_frames(&mut rng, Subset::Day, 1).remove(0);
        let body = encode_ingest_frame(&frame);
        let decoded = decode_ingest_frame(&body).expect("codec roundtrip");
        assert_eq!(decoded.image.data(), frame.image.data());
        let (status, body) = odin_telemetry::http::post(addr, "/ingest/1", &body).expect("ingest");
        assert!(status.contains("200"), "{status}: {body}");
        assert!(body.contains("\"stream\":1"), "{body}");
        let (status, _) =
            odin_telemetry::http::post(addr, "/ingest/99", &encode_ingest_frame(&frame))
                .expect("bad stream");
        assert!(status.contains("404"), "{status}");
        // Junk; 3 · 2^63 · 2 pixels, which wrap to the zero the body
        // carries; zero sides. Each is refused, and the worker that would
        // have panicked on the last two serves the next frame.
        for bad in [b"junk".to_vec(), bare_header(1 << 63, 2), bare_header(0, 0)] {
            let (status, _) = odin_telemetry::http::post(addr, "/ingest/0", &bad).expect("bad");
            assert!(status.contains("400"), "{status}");
        }
        let (status, body) =
            odin_telemetry::http::post(addr, "/ingest/0", &encode_ingest_frame(&frame))
                .expect("ingest");
        assert!(status.contains("200"), "{status}: {body}");
        let (status, body) = odin_telemetry::http::get(addr, "/healthz").expect("healthz");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        server.shutdown();
    }

    #[test]
    fn ingest_body_cap_is_the_largest_legal_frame() {
        let mut server = new_server(quick_cfg());
        let addr = server.serve("127.0.0.1:0").expect("bind");
        // The largest legal frame is served...
        let body = encode_ingest_frame(&max_ingest_frame());
        let (status, reply) = odin_telemetry::http::post(addr, "/ingest/0", &body).expect("post");
        assert!(status.contains("200"), "{status}: {reply}");
        // ...and one byte more is refused from its headers alone.
        use std::io::{Read, Write};
        let mut conn = std::net::TcpStream::connect(addr).expect("connect");
        let head = format!("POST /ingest/0 HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len() + 1);
        conn.write_all(head.as_bytes()).expect("send");
        let mut reply = String::new();
        conn.read_to_string(&mut reply).expect("reply");
        assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");
        let (status, _) = odin_telemetry::http::get(addr, "/healthz").expect("healthz");
        assert!(status.contains("200"), "{status}");
        server.shutdown();
    }

    /// Whether a decoded frame is one the serving path can run: sides
    /// within the ingest bound and not zero, pixels to match, and no more
    /// boxes than the bound.
    fn in_ingest_bounds(f: &Frame) -> bool {
        let (c, h, w) = (f.image.channels(), f.image.height(), f.image.width());
        let sides = 1..=INGEST_BOUNDS.side;
        sides.contains(&h)
            && sides.contains(&w)
            && f.image.numel() == c * h * w
            && f.boxes.len() <= INGEST_BOUNDS.boxes
    }

    /// A valid body: a `c × h × w` image and `boxes` boxes.
    fn small_body(c: usize, h: usize, w: usize, boxes: usize) -> Vec<u8> {
        let any_box = GtBox { class: ObjectClass::ALL[0], x: 0.5, y: 0.5, w: 0.1, h: 0.1 };
        let cond = Condition::new(Weather::Clear, TimeOfDay::Day);
        encode_ingest_frame(&Frame {
            image: Image::new(c, h, w),
            boxes: vec![any_box; boxes],
            cond,
        })
    }

    #[test]
    fn every_one_byte_edit_of_a_body_decodes_to_an_error_or_a_bounded_frame() {
        // A 1 × 2 image: setting the top bit of its height makes the
        // pixel count wrap back to 2.
        let body = small_body(1, 1, 2, 1);
        for at in 0..body.len() {
            for byte in 0..=u8::MAX {
                let mut edited = body.clone();
                edited[at] = byte;
                if let Ok(f) = decode_ingest_frame(&edited) {
                    assert!(
                        in_ingest_bounds(&f),
                        "byte {at} set to {byte:#04x} decoded out of bounds"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, and a valid body of arbitrary shape with one
        /// arbitrary byte edit, decode to an error or to a frame within
        /// the ingest bounds, and never panic.
        #[test]
        fn hostile_ingest_bodies_decode_to_an_error_or_a_bounded_frame(
            raw in proptest::collection::vec(0u8..=u8::MAX, 0..128),
            shape in (0usize..2, 1usize..5, 1usize..5, 0usize..3),
            at in 0usize..4096,
            byte in 0u8..=u8::MAX,
        ) {
            let (c, h, w, boxes) = shape;
            let mut edited = small_body([1, 3][c], h, w, boxes);
            let n = edited.len();
            edited[at % n] = byte;
            for body in [&raw, &edited] {
                if let Ok(f) = decode_ingest_frame(body) {
                    proptest::prop_assert!(in_ingest_bounds(&f));
                }
            }
        }
    }

    #[test]
    fn a_shard_restored_in_place_takes_no_result_of_its_predecessor() {
        let odin =
            OdinConfig { training: TrainingMode::Background { workers: 1 }, ..quick_cfg().odin };
        let cfg = ServerConfig { streams: 1, workers: 1, odin, ..quick_cfg() };
        let dir = std::env::temp_dir().join(format!("odin-restore-shard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let gen = SceneGen::new(48);
        let mut rng = StdRng::seed_from_u64(7);
        let day = gen.subset_frames(&mut rng, Subset::Day, 10);
        let night = gen.subset_frames(&mut rng, Subset::Night, 60);
        let server = new_server(cfg);
        for f in &day[..4] {
            server.process(0, f.clone()).expect("admitted");
        }
        server.checkpoint_all(&dir).expect("checkpoint");
        // The night regime submits a job; it finishes, and is left banked.
        for f in &night {
            server.process(0, f.clone()).expect("admitted");
        }
        let submitted = server.with_shard(0, |o| o.telemetry().jobs_submitted.get());
        assert!(submitted > 0, "the night frames trained nothing");
        let trainer = &server.inner.trainer;
        while trainer.queue_depth() + trainer.in_flight() > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        server.restore_shard(0, &dir).expect("restore shard");
        // A server rebuilt from the same checkpoint is the reference.
        let rebuilt = OdinServer::restore_from_dir(&dir, cfg).expect("restore server");
        for s in [&server, &rebuilt] {
            for f in &day[4..] {
                s.process(0, f.clone()).expect("admitted");
            }
            s.finish_training();
        }
        let orphaned = |s: &OdinServer| s.with_shard(0, |o| o.telemetry().train_orphaned.get());
        assert_eq!(orphaned(&server), orphaned(&rebuilt));
        assert_eq!(orphaned(&server), 0, "the old shard's model reached the restored one");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn per_stream_trace_ids_are_namespaced() {
        let server = new_server(quick_cfg());
        let gen = SceneGen::new(48);
        let mut rng = StdRng::seed_from_u64(5);
        let frames = gen.subset_frames(&mut rng, Subset::Night, 30);
        for f in &frames {
            server.process(0, f.clone()).expect("admitted");
            server.process(1, f.clone()).expect("admitted");
        }
        server.drain();
        for stream in 0..2u64 {
            let rec = server.with_shard(stream as usize, |o| o.telemetry().flight_record());
            let base = stream << 40;
            assert!(!rec.spans.is_empty());
            for span in &rec.spans {
                assert!(
                    span.id > base && span.id < (stream + 1) << 40,
                    "stream {stream} span id {} outside its namespace",
                    span.id
                );
                assert!(
                    span.trace > base && span.trace < (stream + 1) << 40,
                    "stream {stream} trace id {} outside its namespace",
                    span.trace
                );
            }
        }
    }
}
