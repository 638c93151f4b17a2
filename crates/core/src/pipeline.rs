//! The end-to-end ODIN pipeline (Figure 3).
//!
//! A frame flows through: ❶ DETECTOR projects it to the latent manifold
//! and assigns it to a cluster (or the temporary cluster); ❷ on a drift
//! event SPECIALIZER trains a model for the new cluster (a YoloLite
//! immediately; a YoloSpecialized when oracle labels are available);
//! ❸ SELECTOR picks the ensemble of specialized models that runs
//! inference on the frame. Before any cluster exists, the heavyweight
//! teacher model serves inference (the static-baseline behaviour).
//!
//! Stages ❶+❷ share one ingest path ([`Odin::process`] and
//! [`Odin::bootstrap_clusters`] both run it). This file is the serving
//! and persistence half of [`Odin`]; what happens between a drift and
//! the model that answers it — the per-cluster recovery episode,
//! training, install, WAL replay — is [`crate::recovery`], and
//! SPECIALIZER's inline/background scheduling is [`crate::training`].

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use odin_data::{Frame, GtBox};
use odin_detect::{nms, Detection, Detector, DEFAULT_NMS_IOU};
use odin_drift::{Assignment, ClusterManager, DriftEvent, ManagerConfig};
use odin_log::{EventLogConfig, LogMetrics, LogRecord, LogWriter, RecordKind, ServedLabel};
use odin_store::checkpoint::write_atomic;
use odin_store::{read_wal, Checkpoint, CheckpointBuilder, Decoder, Encoder, Persist, StoreError};
use odin_telemetry::{Level, SpanCtx, SpanGuard, TimelineStage};

use crate::attic::{AtticConfig, ModelAttic};
use crate::encoder::LatentEncoder;
use crate::metrics::PipelineStats;
use crate::recovery::{persist_episodes, restore_episodes, Episode};
use crate::registry::{ClusterModel, ModelKind, ModelRegistry, ServePrecision, SharedRegistry};
use crate::selector::{select, Selection, SelectionPolicy};
use crate::specializer::{Specializer, SpecializerConfig};
use crate::store::{
    decode_wal_event, persist_detector, persist_encoder, persist_frames, persist_registry_models,
    persist_telemetry, restore_detector, restore_encoder, restore_frames, restore_registry_models,
    restore_telemetry, section, CheckpointPolicy, PipelineStore, EVENT_LOG_FILE, FLIGHT_FILE,
    SNAPSHOT_FILE, WAL_FILE,
};
use crate::telemetry::Telemetry;
use crate::training::{Trainer, TrainingMode};

/// Frames encoded per [`LatentEncoder::project_batch`] call by the
/// stream/bootstrap paths: batching still pays (the DA-GAN encoder
/// takes 70 µs a frame in a batch of 16 against 110 µs alone), and the
/// chunk bounds each call's scratch.
const ENCODE_CHUNK: usize = 64;

/// Width of one stream's cluster-id namespace inside a shared
/// [`ModelRegistry`]: shard `s` owns global ids
/// `[s * NS_STRIDE, (s + 1) * NS_STRIDE)`. Local (per-shard) cluster
/// ids stay small — DETECTOR promotes a handful of clusters per camera
/// — so a 2^32 stride can never collide between streams. Standalone
/// pipelines keep namespace base 0, which makes local and global ids
/// coincide (and keeps the on-disk checkpoint format unchanged:
/// snapshots always persist local ids).
pub const NS_STRIDE: usize = 1 << 32;

/// Largest mAP drop an int8-quantized model may show against its f32
/// original on the install-time gate set before the install falls back
/// to f32 serving (counted in `odin_quant_fallback_total`).
pub const QUANT_MAP_DELTA: f32 = 0.05;

/// How many of the cluster's training frames the int8 install gate
/// evaluates. Bounds the (teacher-free) mAP check's cost; the gate set
/// is the head of the very frames the model just trained on, so it is
/// available in both inline and background installs.
pub const QUANT_GATE_FRAMES: usize = 32;

/// How oracle labels become available to SPECIALIZER (§7 discusses this
/// constraint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleLabels {
    /// Ground truth is available as soon as a cluster is promoted: a
    /// YoloSpecialized model is trained immediately.
    Immediate,
    /// Labels never arrive: clusters are served by YoloLite models only.
    Never,
}

/// Configuration of the whole pipeline.
#[derive(Debug, Clone, Copy)]
pub struct OdinConfig {
    /// DETECTOR clustering configuration.
    pub manager: ManagerConfig,
    /// SELECTOR policy.
    pub policy: SelectionPolicy,
    /// SPECIALIZER training configuration.
    pub specializer: SpecializerConfig,
    /// Oracle-label availability.
    pub oracle: OracleLabels,
    /// SPECIALIZER scheduling: inline (deterministic default) or on
    /// background worker threads.
    pub training: TrainingMode,
    /// When true, drift detection and recovery are disabled and every
    /// frame is served by the heavyweight teacher — the static baseline
    /// of Figure 1 / Table 7.
    pub baseline_only: bool,
    /// Cap on frames buffered for the next specialization run.
    pub buffer_cap: usize,
    /// Minimum frames a cluster must accumulate before SPECIALIZER
    /// trains its model. Promotion usually happens on a few dozen
    /// outliers; the paper's SPECIALIZER keeps "collect[ing] sufficient
    /// novel data points" before the model is generated, with SELECTOR
    /// covering the gap from nearby clusters.
    pub min_train_frames: usize,
    /// Numeric precision cluster models are served at. Under `Int8`,
    /// installs quantize once and gate the swap on an mAP-delta check
    /// ([`QUANT_MAP_DELTA`]); a failed gate serves f32 instead.
    pub precision: ServePrecision,
    /// Durable event log ([`odin_log`]): when enabled and a store is
    /// attached, per-frame detection records and drift/recovery events
    /// stream to `<store>/events.odlg` through a bounded channel with
    /// counted-drop backpressure (the hot path never blocks on it).
    pub event_log: EventLogConfig,
    /// Model attic ([`crate::attic`]): when enabled, cap-evicted
    /// clusters' signatures + models are archived, and a later drift
    /// whose cluster matches an archived signature reinstalls the
    /// cached model instead of retraining.
    pub attic: AtticConfig,
}

impl Default for OdinConfig {
    fn default() -> Self {
        OdinConfig {
            manager: ManagerConfig::default(),
            policy: SelectionPolicy::DeltaBand,
            specializer: SpecializerConfig::default(),
            oracle: OracleLabels::Immediate,
            training: TrainingMode::Inline,
            baseline_only: false,
            buffer_cap: 512,
            min_train_frames: 120,
            precision: ServePrecision::F32,
            event_log: EventLogConfig::default(),
            attic: AtticConfig::default(),
        }
    }
}

/// Which execution path produced a frame's detections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// The heavyweight teacher (no specialized model was applicable).
    Teacher,
    /// An ensemble chosen by the policy's primary criterion.
    Ensemble,
    /// An ensemble chosen by the policy's fallback path (e.g. Δ-BM
    /// finding no band match and deferring to KNN).
    FallbackEnsemble,
}

/// What happened while processing one frame.
pub struct FrameResult {
    /// Final (post-NMS) detections for the frame.
    pub detections: Vec<Detection>,
    /// DETECTOR's cluster assignment.
    pub assignment: Assignment,
    /// A drift event, if this frame triggered a promotion.
    pub drift: Option<DriftEvent>,
    /// True if the heavyweight teacher served this frame (no specialized
    /// model was applicable yet). Equivalent to
    /// `served_by == ServedBy::Teacher`; kept for callers that only
    /// care about the teacher/specialized split.
    pub used_teacher: bool,
    /// Exactly which path served the frame.
    pub served_by: ServedBy,
    /// The selection SELECTOR produced (empty when the teacher served).
    pub selection: Selection,
}

/// Typed outcome of the observe→buffer→promote→evict ingest stage.
pub struct IngestOutcome {
    /// The frame's latent projection (reused by SELECTOR).
    pub latent: Vec<f32>,
    /// DETECTOR's cluster assignment.
    pub assignment: Assignment,
    /// The drift event, if this frame promoted the temporary cluster.
    pub drift: Option<DriftEvent>,
    /// The cluster evicted by the cap, if promotion forced one out.
    pub evicted: Option<usize>,
}

/// The ODIN system.
///
/// Fields marked `pub(crate)` are the ones [`crate::recovery`]'s half
/// of the implementation works on.
pub struct Odin {
    encoder: Box<dyn LatentEncoder>,
    pub(crate) manager: ClusterManager,
    pub(crate) registry: SharedRegistry,
    teacher: Arc<Detector>,
    pub(crate) temp_frames: Vec<Frame>,
    /// One open recovery episode per promoted cluster that has no model
    /// yet — collecting frames, or training ([`crate::recovery`]).
    /// Persisted in checkpoints, retained training jobs included, so a
    /// restart resumes every episode where it stood.
    pub(crate) episodes: BTreeMap<usize, Episode>,
    /// SPECIALIZER's executor: private to a standalone pipeline, the
    /// server's shared one for a shard ([`Odin::attach_shared`]).
    pub(crate) trainer: Arc<Trainer>,
    /// Archived models of cap-evicted clusters ([`crate::attic`]),
    /// probed on drift for a recurring-regime reinstall.
    pub(crate) attic: ModelAttic,
    /// Live persistence runtime ([`Odin::enable_store`]): WAL appender,
    /// background snapshot writer, and the snapshot policy.
    pub(crate) store: Option<PipelineStore>,
    pub(crate) stats: PipelineStats,
    pub(crate) telemetry: Telemetry,
    pub(crate) cfg: OdinConfig,
    pub(crate) seed: u64,
    pub(crate) model_seq: u64,
    /// Base of this pipeline's cluster-id namespace inside the (possibly
    /// shared) registry: global id = `ns_base + local id`. `0` for a
    /// standalone pipeline; `stream * NS_STRIDE` for a server shard
    /// (see [`Odin::attach_shared`]). All public APIs speak local ids.
    ns_base: usize,
    /// When false, snapshots omit the ENCODER and TEACHER sections
    /// (identical across a server's shards) — the server persists them
    /// once in `shared.odst` and restore resolves them from there.
    snapshot_self_contained: bool,
    /// Durable event-log writer, opened by [`Odin::enable_store`] when
    /// [`OdinConfig::event_log`] is enabled.
    event_log: Option<LogWriter>,
    /// Last event-log sequence number assigned. Owned by the emitter
    /// (this pipeline thread), not the writer, so record contents are
    /// a pure function of the stream; persisted in checkpoint META and
    /// reconciled with the log file's intact tail on `enable_store`.
    log_seq: u64,
}

impl Odin {
    /// Builds an ODIN instance from a latent encoder (usually a trained
    /// DA-GAN) and a heavyweight teacher detector.
    pub fn new(
        encoder: Box<dyn LatentEncoder>,
        teacher: Detector,
        cfg: OdinConfig,
        seed: u64,
    ) -> Self {
        Self::with_teacher(encoder, Arc::new(teacher), cfg, seed)
    }

    /// [`Odin::new`] with an already-shared teacher handle. A
    /// multi-stream server builds every shard from one teacher `Arc`,
    /// so N shards hold one copy of the heavyweight weights.
    pub fn with_teacher(
        encoder: Box<dyn LatentEncoder>,
        teacher: Arc<Detector>,
        cfg: OdinConfig,
        seed: u64,
    ) -> Self {
        let trainer =
            Trainer::new(cfg.training, Specializer::new(cfg.specializer), Arc::clone(&teacher));
        Odin {
            encoder,
            manager: ClusterManager::new(cfg.manager),
            registry: ModelRegistry::new().into_shared(),
            teacher,
            temp_frames: Vec::new(),
            episodes: BTreeMap::new(),
            trainer,
            attic: ModelAttic::new(cfg.attic),
            store: None,
            stats: PipelineStats::default(),
            telemetry: Telemetry::new(),
            cfg,
            seed,
            model_seq: 0,
            ns_base: 0,
            snapshot_self_contained: true,
            event_log: None,
            log_seq: 0,
        }
    }

    /// Global registry id of one of this pipeline's local cluster ids.
    pub(crate) fn gid(&self, local: usize) -> usize {
        self.ns_base + local
    }

    /// This pipeline's stream index (`0` standalone): who it is to a
    /// shared [`Trainer`] and in the event log.
    pub(crate) fn stream(&self) -> usize {
        self.ns_base / NS_STRIDE
    }

    /// This pipeline's half-open global-id range inside the registry.
    fn ns_range(&self) -> (usize, usize) {
        (self.ns_base, self.ns_base + NS_STRIDE)
    }

    /// Base of this pipeline's cluster-id namespace in the registry
    /// (`0` standalone, `stream * NS_STRIDE` as a server shard).
    pub fn ns_base(&self) -> usize {
        self.ns_base
    }

    /// The drift detector's cluster manager (read access for reporting).
    pub fn manager(&self) -> &ClusterManager {
        &self.manager
    }

    /// Shared handle to the model registry. Take `.read()` for
    /// reporting; the pipeline itself takes `.write()` only to install
    /// or evict models at frame boundaries.
    pub fn registry(&self) -> SharedRegistry {
        Arc::clone(&self.registry)
    }

    /// Number of models this pipeline registered (its own namespace
    /// only when the registry is shared).
    pub fn model_count(&self) -> usize {
        let (lo, hi) = self.ns_range();
        self.registry.read().count_in(lo, hi)
    }

    /// This pipeline's registered cluster ids (local), ascending.
    pub fn model_ids(&self) -> Vec<usize> {
        let (lo, hi) = self.ns_range();
        self.registry.read().ids_in(lo, hi).into_iter().map(|id| id - self.ns_base).collect()
    }

    /// The kind of model serving a (local) cluster, if one is
    /// registered.
    pub fn model_kind(&self, cluster_id: usize) -> Option<ModelKind> {
        self.registry.read().kind(self.gid(cluster_id))
    }

    /// Model-deployment footprint in bytes — the quantity Figure 1 /
    /// Table 7 compare. While the teacher serves every frame (baseline
    /// mode, or no specialized model yet) this is the teacher's
    /// parameter bytes; once specialized models exist it is the
    /// registry's total. The teacher stays *resident* either way (it
    /// backs fallback serving and distillation); its bytes are
    /// intentionally excluded from the ODIN side of the comparison,
    /// which measures what must be deployed per camera.
    pub fn memory_bytes(&self) -> usize {
        let (lo, hi) = self.ns_range();
        let registry = self.registry.read();
        if self.cfg.baseline_only || registry.count_in(lo, hi) == 0 {
            self.teacher.param_bytes()
        } else {
            registry.total_bytes_in(lo, hi)
        }
    }

    /// Pipeline-stage counters: training queue depth, in-flight jobs,
    /// training wall-time, and how often frames were served by the
    /// teacher or a fallback ensemble while their cluster's model was
    /// still pending.
    pub fn stats(&self) -> PipelineStats {
        let mut s = self.stats.clone();
        s.queue_depth = self.trainer.queue_depth();
        s.in_flight = self.trainer.in_flight();
        s.store_errors = self.telemetry.store_errors.get();
        s.last_store_error = self.telemetry.last_store_error();
        s
    }

    /// The pipeline's telemetry facade: per-stage latency histograms,
    /// counters, the drift timeline, and the structured event log.
    /// Take a typed [`Telemetry::snapshot`]; an [`crate::server::OdinServer`]
    /// serves it as `/metrics`.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Attic occupancy: `(archived models, approximate bytes)`. Stays
    /// `(0, 0)` while [`AtticConfig::enabled`] is false.
    pub fn attic_stats(&self) -> (usize, usize) {
        (self.attic.len(), self.attic.bytes())
    }

    /// Appends one row to the durable event log, if one is open. The
    /// sequence number, timestamp (from the installed clock), and
    /// stream id are stamped here, on the pipeline thread, so record
    /// contents are a pure function of the stream — the background
    /// writer only decides *when* bytes reach the disk. A full queue
    /// drops the record and counts it; it never blocks serving.
    pub(crate) fn log_event(&mut self, mut rec: LogRecord) {
        let Some(log) = &self.event_log else { return };
        self.log_seq += 1;
        rec.seq = self.log_seq;
        rec.ts_us = (self.telemetry.registry().now_ms() * 1000.0).round() as u64;
        rec.stream = self.stream() as u32;
        log.append(rec);
    }

    /// Stage ❶+❷ ingest: observe the frame (whose latent projection was
    /// already computed — singly or by the batched encode path), buffer
    /// it for SPECIALIZER, and react to promotions and evictions. Shared
    /// by [`Odin::process`] and [`Odin::bootstrap_clusters`] so the two
    /// can never diverge; the encoder is stateless with respect to the
    /// stream, so projecting ahead of ingest is exact.
    fn ingest_with_latent(
        &mut self,
        frame: &Frame,
        latent: Vec<f32>,
        ctx: SpanCtx,
    ) -> IngestOutcome {
        // Land any background-trained models before observing, so this
        // frame already sees them.
        self.install_completed();
        let obs = {
            let _g = self.telemetry.stage_span("ingest", &self.telemetry.stage_ingest, ctx);
            self.manager.observe(&latent)
        };
        match obs.assignment {
            Assignment::Temporary => {
                if self.temp_frames.len() < self.cfg.buffer_cap {
                    self.temp_frames.push(frame.clone());
                }
            }
            Assignment::Cluster(id) => self.collect(id, frame),
        }
        if let Some(event) = obs.promoted {
            self.on_drift(event, obs.evicted, ctx);
        }
        IngestOutcome {
            latent,
            assignment: obs.assignment,
            drift: obs.promoted,
            evicted: obs.evicted,
        }
    }

    /// Processes one frame end-to-end.
    pub fn process(&mut self, frame: &Frame) -> FrameResult {
        if self.cfg.baseline_only {
            let root = self.telemetry.frame_span(self.telemetry.frames.get());
            self.telemetry.frames.inc();
            self.telemetry.served_teacher.inc();
            let detections = {
                let _g = self.telemetry.stage_span(
                    "detect",
                    &self.telemetry.stage_detect,
                    root.child_ctx(),
                );
                self.teacher.detect(&frame.image)
            };
            return FrameResult {
                detections,
                assignment: Assignment::Temporary,
                drift: None,
                used_teacher: true,
                served_by: ServedBy::Teacher,
                selection: Selection::empty(),
            };
        }
        let root = self.telemetry.frame_span(self.telemetry.frames.get());
        let latent = {
            let _g =
                self.telemetry.stage_span("encode", &self.telemetry.stage_encode, root.child_ctx());
            self.encoder.project(&frame.image)
        };
        self.process_traced(frame, latent, root)
    }

    /// [`Odin::process`] for a pre-computed latent (the batched path).
    fn process_with_latent(&mut self, frame: &Frame, latent: Vec<f32>) -> FrameResult {
        let root = self.telemetry.frame_span(self.telemetry.frames.get());
        self.process_traced(frame, latent, root)
    }

    /// The serving stages under an already-open per-frame root span.
    fn process_traced(&mut self, frame: &Frame, latent: Vec<f32>, root: SpanGuard) -> FrameResult {
        self.telemetry.frames.inc();
        let ctx = root.child_ctx();
        // ❶+❷ DETECTOR ingest and SPECIALIZER scheduling.
        let outcome = self.ingest_with_latent(frame, latent, ctx);
        // ❸ SELECTOR: pick models and run inference.
        let (detections, served_by, selection) = self.infer(&outcome.latent, frame, ctx);
        self.update_gauges();

        // While a cluster's model is still being collected for, queued,
        // or trained, its frames are covered by the teacher or by
        // nearby clusters' models — count both gap-serving modes.
        if let Assignment::Cluster(id) = outcome.assignment {
            if self.episodes.contains_key(&id) {
                match served_by {
                    ServedBy::Teacher => self.stats.teacher_frames_while_pending += 1,
                    _ => self.stats.fallback_frames_while_pending += 1,
                }
            }
        }

        // Close the frame's root span *before* a snapshot can run, so a
        // checkpoint written at this boundary already contains the
        // frame's complete trace — the basis of byte-identical
        // Chrome-trace exports across checkpoint/restore.
        let frame_wall_ms = root.close();
        if self.event_log.is_some() {
            let (conf_mean, conf_max) = conf_summary(&detections);
            self.log_event(LogRecord {
                kind: RecordKind::Frame,
                frame: self.manager.seen().saturating_sub(1) as u64,
                cluster: match outcome.assignment {
                    Assignment::Cluster(id) => id as i64,
                    Assignment::Temporary => -1,
                },
                served: served_label(served_by),
                dets: detections.len() as u32,
                conf_mean,
                conf_max,
                latency_us: (frame_wall_ms * 1000.0).round() as u64,
                trace: ctx.trace,
                ..LogRecord::empty()
            });
        }
        self.maybe_snapshot(outcome.drift.is_some());

        FrameResult {
            detections,
            assignment: outcome.assignment,
            drift: outcome.drift,
            used_teacher: served_by == ServedBy::Teacher,
            served_by,
            selection,
        }
    }

    /// Ensemble inference over the selected models; falls back to the
    /// teacher when no model is applicable.
    fn infer(
        &self,
        z: &[f32],
        frame: &Frame,
        ctx: SpanCtx,
    ) -> (Vec<Detection>, ServedBy, Selection) {
        let registry = self.registry.read();
        let selection = {
            let _g = self.telemetry.stage_span("select", &self.telemetry.stage_select, ctx);
            select_existing(self.cfg.policy, &self.manager, &registry, self.ns_base, z)
        };
        let det_span = self.telemetry.stage_span("detect", &self.telemetry.stage_detect, ctx);
        if selection.is_empty() {
            let dets = self.teacher.detect(&frame.image);
            drop(det_span);
            self.telemetry.served_teacher.inc();
            return (dets, ServedBy::Teacher, selection);
        }
        let k = selection.models.len() as f32;
        let mut pool: Vec<Detection> = Vec::new();
        for &(id, w) in &selection.models {
            let model = registry.get(self.gid(id)).expect("selection filtered to existing models");
            for mut d in model.detect(&frame.image) {
                // Rescale so a single selected model keeps its raw scores
                // and ensemble members compete by weight.
                d.score = (d.score * w * k).min(1.0);
                pool.push(d);
            }
        }
        let served =
            if selection.used_fallback { ServedBy::FallbackEnsemble } else { ServedBy::Ensemble };
        match served {
            ServedBy::FallbackEnsemble => self.telemetry.served_fallback.inc(),
            _ => self.telemetry.served_ensemble.inc(),
        }
        let dets = nms(pool, DEFAULT_NMS_IOU);
        drop(det_span);
        (dets, served, selection)
    }

    /// Refreshes the instantaneous gauges (cluster count, model count,
    /// training queue). Called once per processed frame.
    fn update_gauges(&self) {
        let (lo, hi) = self.ns_range();
        self.telemetry.clusters.set(self.manager.clusters().len() as i64);
        self.telemetry.models.set(self.registry.read().count_in(lo, hi) as i64);
        self.telemetry.serve_precision.set(match self.cfg.precision {
            ServePrecision::F32 => 0,
            ServePrecision::Int8 => 1,
        });
        self.telemetry.queue_depth.set(self.trainer.queue_depth() as i64);
        self.telemetry.in_flight.set(self.trainer.in_flight() as i64);
    }

    /// Switches the SELECTOR policy (used by the Table-5 experiment to
    /// compare policies over the same clusters and models).
    pub fn set_policy(&mut self, policy: SelectionPolicy) {
        self.cfg.policy = policy;
    }

    /// Inference without observation: runs SELECTOR + models on a frame
    /// but does not update DETECTOR's cluster state. Used to evaluate a
    /// frozen system on held-out data.
    pub fn infer_only(&mut self, frame: &Frame) -> Vec<Detection> {
        if self.cfg.baseline_only {
            return self.teacher.detect(&frame.image);
        }
        let z = self.encoder.project(&frame.image);
        let root = self.telemetry.root_span("infer_only");
        self.infer(&z, frame, root.child_ctx()).0
    }

    /// Processes a batch of frames, encoding them in one
    /// [`LatentEncoder::project_batch`] call (the DA-GAN encoder takes
    /// 70 µs a frame in a batch of 16 against 110 µs alone) and then
    /// running the per-frame observe→select→infer stages in stream
    /// order. Per-frame conv and dense rows are computed independently,
    /// so results are identical to calling [`Odin::process`] frame by
    /// frame.
    pub fn process_batch(&mut self, frames: &[Frame]) -> Vec<FrameResult> {
        if self.cfg.baseline_only {
            let images: Vec<_> = frames.iter().map(|f| &f.image).collect();
            self.telemetry.frames.add(frames.len() as u64);
            self.telemetry.served_teacher.add(frames.len() as u64);
            let batched = {
                let _g = self.telemetry.stage_root_span("detect", &self.telemetry.stage_detect);
                self.teacher.detect_batch(&images)
            };
            return batched
                .into_iter()
                .map(|detections| FrameResult {
                    detections,
                    assignment: Assignment::Temporary,
                    drift: None,
                    used_teacher: true,
                    served_by: ServedBy::Teacher,
                    selection: Selection::empty(),
                })
                .collect();
        }
        let images: Vec<_> = frames.iter().map(|f| &f.image).collect();
        let latents = {
            let _g = self.telemetry.stage_root_span("encode", &self.telemetry.stage_encode);
            self.encoder.project_batch(&images)
        };
        frames.iter().zip(latents).map(|(f, z)| self.process_with_latent(f, z)).collect()
    }

    /// Processes a whole stream, returning per-frame results. Encoding
    /// runs in fixed-size batches through [`Odin::process_batch`].
    pub fn process_stream(&mut self, frames: &[Frame]) -> Vec<FrameResult> {
        let mut out = Vec::with_capacity(frames.len());
        for chunk in frames.chunks(ENCODE_CHUNK.max(1)) {
            out.extend(self.process_batch(chunk));
        }
        out
    }

    /// Pre-registers a model for a cluster id (warm start — used by
    /// experiments that train specialized models offline, as §6.2's
    /// cluster bootstrap does).
    pub fn register_model(&mut self, cluster_id: usize, detector: Detector, kind: ModelKind) {
        let mut cm = ClusterModel::new(detector, kind);
        if self.cfg.precision == ServePrecision::Int8 {
            cm.quantize(); // warm start: no labelled gate set, accept ungated
        }
        self.registry.write().insert(self.gid(cluster_id), cm);
    }

    /// Bootstraps DETECTOR's clusters from a training stream without
    /// running inference (the held-out-subset training of §6.2). Waits
    /// for background training to finish so the returned clusters'
    /// models are servable immediately.
    pub fn bootstrap_clusters(&mut self, frames: &[Frame]) -> Vec<usize> {
        let mut promoted = Vec::new();
        for chunk in frames.chunks(ENCODE_CHUNK.max(1)) {
            let images: Vec<_> = chunk.iter().map(|f| &f.image).collect();
            let latents = {
                let _g = self.telemetry.stage_root_span("encode", &self.telemetry.stage_encode);
                self.encoder.project_batch(&images)
            };
            for (f, z) in chunk.iter().zip(latents) {
                let mut root = self.telemetry.root_span("bootstrap_frame");
                root.set_frame(self.manager.seen());
                let ctx = root.child_ctx();
                let outcome = self.ingest_with_latent(f, z, ctx);
                let drifted = outcome.drift.is_some();
                if let Some(event) = outcome.drift {
                    promoted.push(event.cluster_id);
                }
                root.close();
                self.maybe_snapshot(drifted);
            }
        }
        self.finish_training();
        promoted
    }

    /// Projects an image with the pipeline's encoder (for external
    /// analyses such as Table 2's cluster crosstab).
    pub fn project(&mut self, frame: &Frame) -> Vec<f32> {
        self.encoder.project(&frame.image)
    }

    // -- Persistence ---------------------------------------------------

    /// Serializes the full pipeline state into the sectioned,
    /// checksummed `odin-store` checkpoint container. `last_wal_seq`
    /// records which WAL records the snapshot already covers.
    fn snapshot_bytes(&self, last_wal_seq: u64) -> Result<Vec<u8>, StoreError> {
        let span = self.telemetry.root_span("snapshot_build");
        let mut builder = CheckpointBuilder::new();

        let mut enc = Encoder::new();
        enc.put_u64(self.seed);
        enc.put_u64(self.model_seq);
        enc.put_u64(last_wal_seq);
        enc.put_u64(self.log_seq);
        builder.section(section::META, enc.into_bytes());

        builder.section(section::CONFIG, self.cfg.to_store_bytes());

        // ENCODER and TEACHER are identical across a server's shards;
        // when this pipeline snapshots as a shard, they are persisted
        // once in the server's `shared.odst` instead (see
        // `shared_sections_bytes`) and resolved from there at restore.
        if self.snapshot_self_contained {
            let mut enc = Encoder::new();
            persist_encoder(&self.encoder.snapshot(), &mut enc)?;
            builder.section(section::ENCODER, enc.into_bytes());

            let mut enc = Encoder::new();
            persist_detector(&self.teacher, &mut enc);
            builder.section(section::TEACHER, enc.into_bytes());
        }

        builder.section(section::MANAGER, self.manager.to_store_bytes());

        let mut enc = Encoder::new();
        {
            // Persist LOCAL ids: a shard's checkpoint is byte-compatible
            // with a standalone pipeline's, and restore re-applies
            // whatever namespace the restoring process attaches.
            let (lo, hi) = self.ns_range();
            let registry = self.registry.read();
            let ids = registry.ids_in(lo, hi);
            let mut models = Vec::with_capacity(ids.len());
            for id in ids {
                let m = registry.get(id).expect("id came from ids_in()");
                let quantized = m.precision() == ServePrecision::Int8;
                models.push((id - self.ns_base, m.kind, &m.detector, quantized));
            }
            persist_registry_models(&models, &mut enc);
        }
        builder.section(section::REGISTRY, enc.into_bytes());

        let mut enc = Encoder::new();
        persist_frames(&self.temp_frames, &mut enc);
        persist_episodes(&self.episodes, &mut enc);
        builder.section(section::FRAMES, enc.into_bytes());

        builder.section(section::STATS, self.stats.to_store_bytes());

        builder.section(section::ATTIC, self.attic.to_store_bytes());

        // Close the build span (and observe it) before serializing the
        // telemetry section, so the persisted state — histograms,
        // flight recorder, and tracer id allocators — includes this
        // very build. That makes a restored pipeline's telemetry
        // bit-identical to the writer's. (The timing excludes only the
        // telemetry serialization itself, which is negligible next to
        // model/frame serialization.)
        self.telemetry.stage_snapshot_build.observe_ms(span.close());
        builder.section(
            section::TELEMETRY,
            persist_telemetry(
                &self.telemetry.snapshot(),
                &self.telemetry.flight_record(),
                self.telemetry.registry().tracer().state(),
            ),
        );

        Ok(builder.to_bytes())
    }

    /// Writes a full checkpoint to `path`, atomically (tmp + fsync +
    /// rename): a crash mid-write never destroys a previous checkpoint
    /// at the same path.
    ///
    /// Fails when the configured encoder does not support snapshots
    /// (see [`crate::encoder::EncoderSnapshot`]).
    pub fn checkpoint(&mut self, path: &Path) -> Result<(), StoreError> {
        let last = self.store.as_ref().map(|s| s.wal.last_seq()).unwrap_or(0);
        // Count the snapshot before building it so the persisted
        // counters cover it — a restored pipeline then agrees with the
        // writer. (Manual checkpoint writes are synchronous and not
        // timed into the write-stage histogram, which covers the
        // background writer; their failure surfaces as the returned
        // error *and* in store_errors_total.)
        self.stats.snapshots_written += 1;
        self.telemetry.snapshots.inc();
        let bytes = self.snapshot_bytes(last).inspect_err(|e| {
            self.telemetry.record_store_error("snapshot build failed", e);
        })?;
        write_atomic(path, &bytes).inspect_err(|e| {
            self.telemetry
                .record_store_error(format!("snapshot write to {} failed", path.display()), e);
        })?;
        Ok(())
    }

    /// Rebuilds a pipeline from a checkpoint file. The restored instance
    /// is bit-identical to the one that wrote it: same cluster state,
    /// same model weights (same `ServedBy` decisions on the same
    /// stream), same `memory_bytes`. Background training jobs that were
    /// queued or running at checkpoint time are re-submitted from their
    /// retained inputs with their original seeds (or trained inline when
    /// restored into [`TrainingMode::Inline`]).
    ///
    /// Corruption, truncation, version mismatch, and malformed payloads
    /// all surface as [`StoreError`] — never a panic — so callers can
    /// fall back to a cold bootstrap ([`Odin::restore_or_else`]).
    pub fn restore(path: &Path) -> Result<Self, StoreError> {
        let cp = Checkpoint::read(path)?;
        let (mut odin, _) = Self::from_checkpoint_with(&cp, None)?;
        odin.resubmit_training();
        Ok(odin)
    }

    /// [`Odin::restore`], falling back to `cold_bootstrap()` when the
    /// checkpoint is missing, corrupt, or from an unsupported format
    /// version. The failure reason is emitted as a warn-level event on
    /// the fresh instance's telemetry (whose default stderr sink keeps
    /// it visible on the console).
    pub fn restore_or_else(path: &Path, cold_bootstrap: impl FnOnce() -> Self) -> Self {
        match Self::restore(path) {
            Ok(odin) => odin,
            Err(e) => {
                let odin = cold_bootstrap();
                odin.telemetry.event(
                    Level::Warn,
                    "store",
                    format!("cold bootstrap: cannot restore {}: {e}", path.display()),
                );
                odin
            }
        }
    }

    /// Restores from a store *directory* (as populated by
    /// [`Odin::enable_store`]): loads `snapshot.odst`, then replays
    /// every WAL record newer than the snapshot — promotions (with full
    /// cluster state), evictions, and model installs (with full
    /// weights). The WAL recovers *learned* state; transient frame
    /// buffers refill from the stream.
    ///
    /// The returned instance has no store attached; call
    /// [`Odin::enable_store`] on it to resume logging.
    pub fn restore_from_dir(dir: &Path) -> Result<Self, StoreError> {
        Self::restore_from_dir_with(dir, None)
    }

    /// [`Odin::restore_from_dir`] for a shard snapshot that omitted its
    /// ENCODER/TEACHER sections: absent sections resolve from `shared`
    /// (the server's `shared.odst`). With `shared = None` this is
    /// exactly `restore_from_dir`.
    pub fn restore_from_dir_with(
        dir: &Path,
        shared: Option<&Checkpoint>,
    ) -> Result<Self, StoreError> {
        let cp = Checkpoint::read(&dir.join(SNAPSHOT_FILE))?;
        let (mut odin, last_seq) = Self::from_checkpoint_with(&cp, shared)?;
        let wal = read_wal(&dir.join(WAL_FILE))?;
        let mut replayed = 0usize;
        for rec in wal.records.iter().filter(|r| r.seq > last_seq) {
            let event = decode_wal_event(&rec.payload)?;
            odin.apply_wal_event(event);
            replayed += 1;
        }
        // Only now: a job the snapshot caught training may have its
        // `Install` (or its cluster's `Evict`) in the WAL, and replay
        // closed that episode. What is still training is what the
        // crashed process never finished.
        odin.resubmit_training();
        // Mark the warm restart on the timeline and refresh the gauges,
        // so a scrape right after restore already reflects the replayed
        // state. (Plain `Odin::restore` stays marker-free: it must stay
        // byte-identical to the writer, which never restored.)
        odin.telemetry.record_timeline(TimelineStage::RestoreCompleted, 0, odin.manager.seen());
        odin.telemetry.event(
            Level::Info,
            "store",
            format!("warm restart complete: replayed {replayed} WAL records"),
        );
        odin.update_gauges();
        Ok(odin)
    }

    /// A checkpoint section, falling back to the shared-section
    /// checkpoint when the shard snapshot omitted it (shared-section
    /// dedup). Without a fallback, absence is the usual hard error.
    fn section_or_shared<'a>(
        cp: &'a Checkpoint,
        shared: Option<&'a Checkpoint>,
        name: &'static str,
    ) -> Result<&'a [u8], StoreError> {
        match (cp.section(name), shared) {
            (Some(bytes), _) => Ok(bytes),
            (None, Some(s)) => s.require(name),
            (None, None) => cp.require(name),
        }
    }

    /// The pipeline a checkpoint describes and the last WAL sequence
    /// number it covers. Episodes the snapshot caught in their training
    /// stage come back holding their jobs, not yet resubmitted: the
    /// caller does that ([`Odin::resubmit_training`]) once it has
    /// replayed whatever WAL it has.
    fn from_checkpoint_with(
        cp: &Checkpoint,
        shared: Option<&Checkpoint>,
    ) -> Result<(Self, u64), StoreError> {
        let mut dec = Decoder::new(cp.require(section::META)?);
        let seed = dec.take_u64("meta.seed")?;
        let model_seq = dec.take_u64("meta.model_seq")?;
        let last_wal_seq = dec.take_u64("meta.last_wal_seq")?;
        // Event-log position; absent in pre-event-log checkpoints.
        let log_seq = if dec.remaining() > 0 { dec.take_u64("meta.log_seq")? } else { 0 };
        dec.finish("meta")?;

        let cfg = OdinConfig::from_store_bytes(cp.require(section::CONFIG)?, "config")?;

        let mut dec = Decoder::new(Self::section_or_shared(cp, shared, section::ENCODER)?);
        let encoder = restore_encoder(&mut dec)?;
        dec.finish("encoder")?;

        let mut dec = Decoder::new(Self::section_or_shared(cp, shared, section::TEACHER)?);
        let teacher = restore_detector(&mut dec)?;
        dec.finish("teacher")?;

        let manager = ClusterManager::from_store_bytes(cp.require(section::MANAGER)?, "manager")?;

        let mut dec = Decoder::new(cp.require(section::REGISTRY)?);
        let models = restore_registry_models(&mut dec)?;
        dec.finish("registry")?;

        let mut dec = Decoder::new(cp.require(section::FRAMES)?);
        let temp_frames = restore_frames(&mut dec)?;
        let episodes = restore_episodes(&mut dec)?;
        dec.finish("frames")?;

        let stats = PipelineStats::from_store_bytes(cp.require(section::STATS)?, "stats")?;

        // The attic section is optional for forward compatibility with
        // pre-attic checkpoints: absent section → empty attic.
        let attic = match cp.section(section::ATTIC) {
            Some(bytes) => Some(ModelAttic::from_store_bytes(bytes, "attic")?),
            None => None,
        };

        let mut odin = Odin::new(encoder, teacher, cfg, seed);
        odin.manager = manager;
        odin.model_seq = model_seq;
        odin.log_seq = log_seq;
        odin.stats = stats;
        odin.temp_frames = temp_frames;
        odin.episodes = episodes;
        if let Some(attic) = attic {
            odin.attic = attic;
        }
        {
            let mut registry = odin.registry.write();
            for (id, kind, detector, quantized) in models {
                let mut cm = ClusterModel::new(detector, kind);
                if quantized {
                    // Quantization is deterministic: re-quantizing the
                    // restored f32 weights reproduces the serving model
                    // the writer had, bit for bit.
                    cm.quantize();
                }
                registry.insert(id, cm);
            }
        }
        // Telemetry is optional for forward compatibility with
        // pre-telemetry checkpoints: absent section → fresh metrics.
        if let Some(bytes) = cp.section(section::TELEMETRY) {
            let (snap, flight, (next_span, next_trace)) = restore_telemetry(bytes)?;
            odin.telemetry.load(&snap);
            odin.telemetry.registry().recorder().load(&flight);
            odin.telemetry.registry().tracer().load_state(next_span, next_trace);
        }
        Ok((odin, last_wal_seq))
    }

    /// Attaches a persistence runtime: every drift event, eviction, and
    /// model install is appended (and fsynced) to `dir/events.wal`, and
    /// `policy` controls automatic snapshots to `dir/snapshot.odst`
    /// (built synchronously at the frame boundary, written atomically by
    /// a background thread — the serving path never blocks on disk).
    /// Recover later with [`Odin::restore_from_dir`].
    pub fn enable_store(&mut self, dir: &Path, policy: CheckpointPolicy) -> Result<(), StoreError> {
        self.store = Some(PipelineStore::open(dir, policy, self.telemetry.clone())?);
        // With a store attached, the flight recorder auto-dumps next to
        // the WAL on drift events and store errors.
        self.telemetry.set_flight_dump_path(Some(dir.join(FLIGHT_FILE)));
        if self.cfg.event_log.enabled {
            let metrics = LogMetrics {
                appended: self.telemetry.event_log_appended.clone(),
                dropped: self.telemetry.event_log_dropped.clone(),
                queue_depth: self.telemetry.event_log_queue_depth.clone(),
                flush_ms: self.telemetry.event_log_flush.clone(),
                errors: self.telemetry.store_errors.clone(),
            };
            let writer = LogWriter::open(&dir.join(EVENT_LOG_FILE), self.cfg.event_log, metrics)?;
            // Never reuse a sequence number: resume past both the
            // checkpointed position and the log file's intact tail
            // (after a crash the two can disagree in either direction).
            self.log_seq = self.log_seq.max(writer.recovered_last_seq());
            self.event_log = Some(writer);
        }
        Ok(())
    }

    // -- Sharded serving ----------------------------------------------

    /// Turns this standalone pipeline into shard `stream` of a
    /// multi-stream server: its models move into `registry` (the
    /// process-wide [`SharedRegistry`]) under the namespace
    /// `stream * NS_STRIDE`, its training jobs flow through `trainer`
    /// (the process-wide one) as stream `stream`, and its trace/span id
    /// allocators jump to a per-stream base so Perfetto exports group
    /// per stream and stay deterministic per shard.
    ///
    /// Any models still training on the pipeline's private trainer are
    /// finished and installed first, so the handoff loses nothing. The
    /// trace-id base is applied with `max` semantics: a fresh shard
    /// jumps to its base, while a restored shard whose persisted
    /// allocators are already past it (they were namespaced before the
    /// checkpoint) continues exactly where it left off.
    pub fn attach_shared(
        &mut self,
        stream: usize,
        registry: &SharedRegistry,
        trainer: &Arc<Trainer>,
    ) {
        self.finish_training();
        let ns_base = stream * NS_STRIDE;
        if !Arc::ptr_eq(&self.registry, registry) {
            let mut private = self.registry.write();
            let mut shared = registry.write();
            for id in private.ids() {
                let m = private.remove(id).expect("id came from ids()");
                shared.insert(ns_base + (id - self.ns_base), m);
            }
            drop(private);
            drop(shared);
            self.registry = Arc::clone(registry);
        }
        self.ns_base = ns_base;
        self.trainer = Arc::clone(trainer);
        let tracer = self.telemetry.registry().tracer();
        let (next_span, next_trace) = tracer.state();
        let base = (stream as u64) << 40;
        tracer.load_state(next_span.max(base + 1), next_trace.max(base + 1));
        self.update_gauges();
    }

    /// Marks whether snapshots embed the ENCODER/TEACHER sections
    /// (default) or omit them for shared-section dedup (server shards;
    /// restore then needs [`Odin::restore_from_dir_with`]).
    pub fn set_snapshot_self_contained(&mut self, self_contained: bool) {
        self.snapshot_self_contained = self_contained;
    }

    /// The shared-section checkpoint body (ENCODER + TEACHER only) a
    /// multi-stream server writes once as `shared.odst`. Every shard's
    /// sections are identical by construction (one teacher `Arc`, one
    /// encoder factory), so any shard can produce it.
    pub fn shared_sections_bytes(&self) -> Result<Vec<u8>, StoreError> {
        let mut builder = CheckpointBuilder::new();
        let mut enc = Encoder::new();
        persist_encoder(&self.encoder.snapshot(), &mut enc)?;
        builder.section(section::ENCODER, enc.into_bytes());
        let mut enc = Encoder::new();
        persist_detector(&self.teacher, &mut enc);
        builder.section(section::TEACHER, enc.into_bytes());
        Ok(builder.to_bytes())
    }

    /// Shared handle to the teacher (a server builds its trainer
    /// around the same weights every shard serves from).
    pub(crate) fn teacher_handle(&self) -> Arc<Detector> {
        Arc::clone(&self.teacher)
    }

    /// Writes the flight recorder's current contents — the most recent
    /// spans and events — as Chrome-trace JSON to `path`. Open the file
    /// in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
    pub fn dump_flight_record(&self, path: &Path) -> std::io::Result<()> {
        self.telemetry.dump_flight(path)
    }

    /// Blocks until every queued background snapshot write has landed
    /// and the WAL is durable. Call before process exit (or before
    /// inspecting the store directory in tests).
    pub fn flush_store(&mut self) {
        if let Some(store) = self.store.as_mut() {
            if let Err(e) = store.wal.sync() {
                self.telemetry.record_store_error("WAL sync failed", e);
            }
            store.writer.flush();
        }
        if let Some(log) = &self.event_log {
            // The writer counted the failure when it happened.
            if let Err(e) = log.flush() {
                self.telemetry.note_store_error("event-log flush failed", e);
            }
        }
    }

    /// Number of background snapshot writes that failed (0 when healthy
    /// or when no store is attached).
    pub fn store_write_failures(&self) -> u64 {
        self.store.as_ref().map(|s| s.writer.failures()).unwrap_or(0)
    }

    pub(crate) fn wal_append(&mut self, payload: &[u8], ctx: SpanCtx) {
        let Some(store) = self.store.as_mut() else { return };
        let res = {
            let _g = self.telemetry.stage_span("wal_append", &self.telemetry.stage_wal_append, ctx);
            store.wal.append(payload).and_then(|_| store.wal.sync())
        };
        match res {
            Ok(()) => {
                self.stats.wal_events_logged += 1;
                self.telemetry.wal_appends.inc();
            }
            Err(e) => self.telemetry.record_store_error("WAL append failed", e),
        }
    }

    /// Runs the snapshot policy at a frame boundary; when due, builds
    /// the snapshot synchronously (consistency) and hands the bytes to
    /// the background writer (latency).
    fn maybe_snapshot(&mut self, drifted: bool) {
        let Some(store) = self.store.as_mut() else { return };
        store.frames_since_snapshot += 1;
        let due = match store.policy {
            CheckpointPolicy::Manual => false,
            CheckpointPolicy::EveryNFrames(n) => store.frames_since_snapshot >= n.max(1),
            CheckpointPolicy::OnDrift => drifted,
        };
        if !due {
            return;
        }
        let last = store.wal.last_seq();
        let path = store.snapshot_path();
        // Counted before the build so the persisted counters cover this
        // snapshot (see `checkpoint`); a failed build is visible as
        // store_errors_total alongside.
        self.stats.snapshots_written += 1;
        self.telemetry.snapshots.inc();
        let bytes = match self.snapshot_bytes(last) {
            Ok(b) => b,
            Err(e) => {
                self.telemetry.record_store_error("snapshot build skipped", e);
                return;
            }
        };
        let store = self.store.as_mut().expect("store checked above");
        store.frames_since_snapshot = 0;
        store.writer.submit(path, bytes);
    }
}

/// Applies the policy, then filters to clusters that actually have a
/// registered model (a cluster can briefly exist without one while its
/// model is pending).
fn select_existing(
    policy: SelectionPolicy,
    manager: &ClusterManager,
    registry: &ModelRegistry,
    ns_base: usize,
    z: &[f32],
) -> Selection {
    let mut s = select(policy, manager, z);
    s.models.retain(|(id, _)| registry.kind(ns_base + *id).is_some());
    if s.models.is_empty() {
        // Nothing the policy picked is servable: the teacher takes the
        // frame, so no fallback ensemble actually ran — don't report
        // the policy's internal fallback flag for a selection that
        // served nothing.
        return Selection::empty();
    }
    let total: f32 = s.models.iter().map(|m| m.1).sum();
    if total > 0.0 {
        for m in &mut s.models {
            m.1 /= total;
        }
    }
    s
}

/// Serving outcome as recorded in the event log.
fn served_label(s: ServedBy) -> ServedLabel {
    match s {
        ServedBy::Teacher => ServedLabel::Teacher,
        ServedBy::Ensemble => ServedLabel::Ensemble,
        ServedBy::FallbackEnsemble => ServedLabel::Fallback,
    }
}

/// Mean and max detection confidence of a frame ((0, 0) when empty).
fn conf_summary(dets: &[Detection]) -> (f32, f32) {
    if dets.is_empty() {
        return (0.0, 0.0);
    }
    let mut sum = 0.0f32;
    let mut max = 0.0f32;
    for d in dets {
        sum += d.score;
        max = max.max(d.score);
    }
    (sum / dets.len() as f32, max)
}

/// Ground-truth boxes of a frame slice, shaped for mAP evaluation.
pub fn gt_refs(frames: &[Frame]) -> Vec<&[GtBox]> {
    frames.iter().map(|f| f.boxes.as_slice()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::HistogramEncoder;
    use odin_data::{SceneGen, Subset};
    use odin_detect::DetectorArch;
    use odin_drift::ManagerConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_cfg() -> OdinConfig {
        OdinConfig {
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
        }
    }

    fn new_odin(cfg: OdinConfig) -> Odin {
        let mut rng = StdRng::seed_from_u64(0);
        let teacher = Detector::heavy(48, &mut rng);
        Odin::new(Box::new(HistogramEncoder::new()), teacher, cfg, 42)
    }

    #[test]
    fn baseline_mode_always_uses_teacher() {
        let cfg = OdinConfig { baseline_only: true, ..quick_cfg() };
        let mut odin = new_odin(cfg);
        let gen = SceneGen::new(48);
        let mut rng = StdRng::seed_from_u64(1);
        let frames = gen.subset_frames(&mut rng, Subset::Day, 3);
        for f in &frames {
            let r = odin.process(f);
            assert!(r.used_teacher);
            assert_eq!(r.served_by, ServedBy::Teacher);
            assert!(r.drift.is_none());
        }
        assert_eq!(odin.manager().clusters().len(), 0);
    }

    #[test]
    fn drift_is_detected_and_model_trained() {
        let mut odin = new_odin(quick_cfg());
        let gen = SceneGen::new(48);
        let mut rng = StdRng::seed_from_u64(2);
        let night = gen.subset_frames(&mut rng, Subset::Night, 60);
        let results = odin.process_stream(&night);
        let drifts: Vec<_> = results.iter().filter_map(|r| r.drift).collect();
        assert!(!drifts.is_empty(), "no drift detected on the first concept");
        assert!(odin.model_count() > 0, "no model trained after promotion");
        // Later frames should be served by the specialized model.
        let last = results.last().expect("non-empty stream");
        assert!(!last.used_teacher, "teacher still serving after recovery");
        assert_ne!(last.served_by, ServedBy::Teacher);
    }

    #[test]
    fn second_concept_adds_second_model() {
        let mut odin = new_odin(quick_cfg());
        let gen = SceneGen::new(48);
        let mut rng = StdRng::seed_from_u64(3);
        odin.process_stream(&gen.subset_frames(&mut rng, Subset::Night, 60));
        let n1 = odin.model_count();
        odin.process_stream(&gen.subset_frames(&mut rng, Subset::Day, 60));
        let n2 = odin.model_count();
        assert!(n2 > n1, "day concept did not produce a new model ({n1} -> {n2})");
    }

    #[test]
    fn lite_models_when_labels_never_arrive() {
        let cfg = OdinConfig { oracle: OracleLabels::Never, ..quick_cfg() };
        let mut odin = new_odin(cfg);
        let gen = SceneGen::new(48);
        let mut rng = StdRng::seed_from_u64(4);
        odin.process_stream(&gen.subset_frames(&mut rng, Subset::Night, 60));
        let ids = odin.model_ids();
        assert!(!ids.is_empty());
        for id in ids {
            assert_eq!(odin.model_kind(id), Some(ModelKind::Lite));
        }
    }

    #[test]
    fn memory_shrinks_after_recovery() {
        let mut odin = new_odin(quick_cfg());
        let baseline_mem = odin.memory_bytes();
        let gen = SceneGen::new(48);
        let mut rng = StdRng::seed_from_u64(5);
        odin.process_stream(&gen.subset_frames(&mut rng, Subset::Night, 60));
        assert!(
            odin.memory_bytes() < baseline_mem,
            "specialized models should be smaller than the teacher"
        );
    }

    #[test]
    fn memory_bytes_counts_deployment_not_residency() {
        let mut odin = new_odin(quick_cfg());
        let teacher_bytes = odin.memory_bytes();
        // Warm-start one small model: memory_bytes switches to the
        // registry total even though the teacher remains resident for
        // fallback serving and distillation.
        let mut rng = StdRng::seed_from_u64(9);
        let small = Detector::small(48, &mut rng);
        let small_bytes = small.param_bytes();
        odin.register_model(0, small, ModelKind::Specialized);
        assert_eq!(odin.memory_bytes(), small_bytes);
        assert!(teacher_bytes > small_bytes);
    }

    #[test]
    fn int8_precision_shrinks_memory_and_marks_models() {
        let cfg = OdinConfig { precision: ServePrecision::Int8, ..quick_cfg() };
        let mut odin = new_odin(cfg);
        let mut rng = StdRng::seed_from_u64(12);
        let small = Detector::small(48, &mut rng);
        let f32_bytes = small.param_bytes();
        odin.register_model(0, small, ModelKind::Specialized);
        // Served representation is int8: ~4x below the f32 weights.
        assert!(
            odin.memory_bytes() * 3 < f32_bytes,
            "int8 memory {} not well below f32 {}",
            odin.memory_bytes(),
            f32_bytes
        );
        let reg = odin.registry();
        let reg = reg.read();
        assert_eq!(reg.get(0).expect("registered").precision(), ServePrecision::Int8);
    }

    #[test]
    fn int8_stream_installs_gated_quantized_models() {
        let cfg = OdinConfig { precision: ServePrecision::Int8, ..quick_cfg() };
        let mut odin = new_odin(cfg);
        let gen = SceneGen::new(48);
        let mut rng = StdRng::seed_from_u64(2);
        let night = gen.subset_frames(&mut rng, Subset::Night, 60);
        let results = odin.process_stream(&night);
        assert!(odin.model_count() > 0, "no model installed under Int8");
        let last = results.last().expect("non-empty stream");
        assert_ne!(last.served_by, ServedBy::Teacher, "model not serving after recovery");
        // Every installed model either passed the gate (int8) or fell
        // back (f32 + counted); with no fallbacks all must be int8.
        let fallbacks = odin.telemetry().snapshot().counters.iter().fold(0u64, |acc, (n, v)| {
            if n == "odin_quant_fallback_total" {
                acc + v
            } else {
                acc
            }
        });
        let reg = odin.registry();
        let reg = reg.read();
        let int8 = reg
            .ids()
            .into_iter()
            .filter(|&id| reg.get(id).expect("listed").precision() == ServePrecision::Int8);
        assert_eq!(
            int8.count() as u64 + fallbacks,
            reg.len() as u64,
            "every install must be int8 or a counted fallback"
        );
    }

    #[test]
    fn int8_models_survive_checkpoint_roundtrip() {
        let cfg = OdinConfig { precision: ServePrecision::Int8, ..quick_cfg() };
        let mut odin = new_odin(cfg);
        let gen = SceneGen::new(48);
        let mut rng = StdRng::seed_from_u64(13);
        odin.process_stream(&gen.subset_frames(&mut rng, Subset::Night, 60));
        assert!(odin.model_count() > 0);
        let path = std::env::temp_dir().join(format!("odin-int8-cp-{}.odst", std::process::id()));
        odin.checkpoint(&path).unwrap();
        let back = Odin::restore(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.cfg.precision, ServePrecision::Int8);
        let a = odin.registry();
        let a = a.read();
        let b = back.registry();
        let b = b.read();
        assert_eq!(a.ids(), b.ids());
        for id in a.ids() {
            let ma = a.get(id).expect("listed");
            let mb = b.get(id).expect("restored");
            assert_eq!(ma.precision(), mb.precision(), "precision lost across restore");
            assert_eq!(ma.serve_bytes(), mb.serve_bytes());
        }
        assert_eq!(odin.memory_bytes(), back.memory_bytes());
    }

    #[test]
    fn infer_only_does_not_mutate_clusters() {
        let mut odin = new_odin(quick_cfg());
        let gen = SceneGen::new(48);
        let mut rng = StdRng::seed_from_u64(7);
        odin.process_stream(&gen.subset_frames(&mut rng, Subset::Night, 60));
        let clusters = odin.manager().clusters().len();
        let seen = odin.manager().seen();
        let frames = gen.subset_frames(&mut rng, Subset::Day, 10);
        for f in &frames {
            let _ = odin.infer_only(f);
        }
        assert_eq!(odin.manager().clusters().len(), clusters);
        assert_eq!(odin.manager().seen(), seen, "infer_only must not observe");
    }

    #[test]
    fn set_policy_changes_selection_behaviour() {
        let mut odin = new_odin(quick_cfg());
        let gen = SceneGen::new(48);
        let mut rng = StdRng::seed_from_u64(8);
        odin.process_stream(&gen.subset_frames(&mut rng, Subset::Night, 60));
        odin.process_stream(&gen.subset_frames(&mut rng, Subset::Day, 60));
        if odin.model_count() < 2 {
            return; // fixture didn't split; covered by other tests
        }
        let frame = &gen.subset_frames(&mut rng, Subset::Night, 1)[0];
        odin.set_policy(crate::selector::SelectionPolicy::MostRecent);
        let r1 = odin.process(frame);
        assert!(r1.selection.models.len() <= 1);
        odin.set_policy(crate::selector::SelectionPolicy::KnnUnweighted(4));
        let r2 = odin.process(frame);
        assert!(r2.selection.models.len() >= r1.selection.models.len());
    }

    #[test]
    fn bootstrap_reports_promotions() {
        let mut odin = new_odin(quick_cfg());
        let gen = SceneGen::new(48);
        let mut rng = StdRng::seed_from_u64(6);
        let promoted = odin.bootstrap_clusters(&gen.subset_frames(&mut rng, Subset::Night, 60));
        assert!(!promoted.is_empty());
        assert_eq!(promoted.len(), odin.manager().events().len());
    }

    #[test]
    fn served_by_agrees_with_used_teacher() {
        let mut odin = new_odin(quick_cfg());
        let gen = SceneGen::new(48);
        let mut rng = StdRng::seed_from_u64(10);
        let frames = gen.subset_frames(&mut rng, Subset::Night, 60);
        for r in odin.process_stream(&frames) {
            assert_eq!(r.used_teacher, r.served_by == ServedBy::Teacher);
            // A teacher-served frame must not report a fallback
            // selection that never ran (the stale-flag regression).
            if r.selection.is_empty() {
                assert!(!r.selection.used_fallback);
                assert_eq!(r.served_by, ServedBy::Teacher);
            }
        }
    }

    #[test]
    fn background_mode_installs_after_finish() {
        let cfg = OdinConfig { training: TrainingMode::Background { workers: 1 }, ..quick_cfg() };
        let mut odin = new_odin(cfg);
        let gen = SceneGen::new(48);
        let mut rng = StdRng::seed_from_u64(2);
        odin.process_stream(&gen.subset_frames(&mut rng, Subset::Night, 60));
        odin.finish_training();
        assert!(odin.model_count() > 0, "background training produced no model");
        let stats = odin.stats();
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.jobs_submitted, stats.models_installed);
        assert!(stats.train_wall_ms > 0.0);
    }

    #[test]
    fn stats_count_gap_serving_while_model_pending() {
        let mut odin = new_odin(quick_cfg());
        let gen = SceneGen::new(48);
        let mut rng = StdRng::seed_from_u64(11);
        odin.process_stream(&gen.subset_frames(&mut rng, Subset::Night, 60));
        let stats = odin.stats();
        assert!(stats.jobs_submitted >= 1);
        // Between promotion and min_train_frames, assigned frames are
        // covered by the teacher (first concept: nothing else exists).
        assert!(
            stats.teacher_frames_while_pending > 0,
            "expected teacher to cover the promotion window"
        );
    }
}
