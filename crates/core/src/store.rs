//! Whole-pipeline persistence: the glue between [`crate::pipeline::Odin`]
//! and the `odin-store` container formats.
//!
//! A checkpoint is a sectioned [`odin_store::Checkpoint`] holding the
//! complete pipeline state — configuration, encoder weights, teacher,
//! cluster manager (centroids, Δ-bands, KL histograms), the model
//! registry (lite/specialized detector weights), frame buffers, and
//! open recovery episodes with their in-flight training jobs (encoded
//! next to their type, in [`crate::recovery`]) — enough to rebuild a
//! bit-identical `Odin` with [`crate::pipeline::Odin::restore`].
//!
//! The drift-event WAL complements snapshots: every promotion, eviction,
//! and model install is appended (with the full promoted-cluster /
//! installed-model state), so a restart can replay events newer than the
//! last snapshot instead of re-learning them. Frame buffers are *not* in
//! the WAL — replay recovers learned state; transient buffers refill
//! from the stream.
//!
//! Everything here is little-endian and hand-coded via
//! [`odin_store::codec`]; the vendored serde has no serializer backend.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};
use odin_data::{Condition, Frame, GtBox, Image, Location, ObjectClass, TimeOfDay, Weather};
use odin_detect::{Detector, DetectorArch};
use odin_drift::{Cluster, ClusterSignature, DriftEvent, ManagerConfig};
use odin_gan::{DaGan, DaGanConfig};
use odin_log::{EventLogConfig, RetentionConfig};
use odin_store::checkpoint::write_atomic;
use odin_store::{Decoder, Encoder, Persist, StoreError, WalWriter};
use odin_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use odin_telemetry::{
    FlightRecord, HistogramSnapshot, Level, RecordedEvent, SpanRecord, TelemetrySnapshot,
    TimelineEvent, TimelineStage,
};

use crate::attic::AtticConfig;
use crate::encoder::{DaGanEncoder, EncoderSnapshot, HistogramEncoder, LatentEncoder};
use crate::metrics::PipelineStats;
use crate::pipeline::{OdinConfig, OracleLabels};
use crate::registry::{ModelKind, ServePrecision};
use crate::selector::SelectionPolicy;
use crate::specializer::SpecializerConfig;
use crate::telemetry::Telemetry;
use crate::training::TrainingMode;

/// Snapshot file name inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.odst";
/// WAL file name inside a store directory.
pub const WAL_FILE: &str = "events.wal";
/// Flight-record auto-dump file name (Chrome-trace JSON) inside a store
/// directory, written on drift events and store errors.
pub const FLIGHT_FILE: &str = "flight.json";
/// Deduplicated shared-section checkpoint (encoder + teacher weights,
/// identical across every stream) inside a multi-stream server's store
/// directory. Per-shard snapshots under `streams/<id>/` omit these
/// sections and resolve them from this file at restore time.
pub const SHARED_SNAPSHOT_FILE: &str = "shared.odst";
/// Subdirectory of a multi-stream store holding one store directory per
/// stream (`streams/<id>/{snapshot.odst,events.wal,flight.json}`).
pub const STREAMS_DIR: &str = "streams";
/// Columnar event-log file name inside a store directory (written when
/// [`OdinConfig::event_log`] is enabled; see [`odin_log`]).
pub const EVENT_LOG_FILE: &str = odin_log::EVENT_LOG_FILE;

/// Checkpoint section names.
pub(crate) mod section {
    pub const META: &str = "meta";
    pub const CONFIG: &str = "config";
    pub const ENCODER: &str = "encoder";
    pub const TEACHER: &str = "teacher";
    pub const MANAGER: &str = "manager";
    pub const REGISTRY: &str = "registry";
    pub const FRAMES: &str = "frames";
    pub const STATS: &str = "stats";
    pub const ATTIC: &str = "attic";
    pub const TELEMETRY: &str = "telemetry";
}

/// When the pipeline writes snapshots on its own (once
/// [`crate::pipeline::Odin::enable_store`] is active). Manual
/// checkpoints via [`crate::pipeline::Odin::checkpoint`] always work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Never snapshot automatically; the WAL still records every event.
    Manual,
    /// Snapshot after every `N` processed frames.
    EveryNFrames(usize),
    /// Snapshot at the frame boundary after each drift event.
    OnDrift,
}

// ---------------------------------------------------------------------
// Codecs for foreign types (orphan rule keeps these as free functions).
// ---------------------------------------------------------------------

fn enum_pos<T: PartialEq + Copy>(all: &[T], v: T, context: &'static str) -> u8 {
    all.iter().position(|x| *x == v).unwrap_or_else(|| panic!("{context}: variant not in ALL"))
        as u8
}

fn enum_at<T: Copy>(all: &[T], i: u8, context: &'static str) -> Result<T, StoreError> {
    all.get(i as usize).copied().ok_or(StoreError::Malformed { context })
}

pub(crate) fn persist_image(img: &Image, enc: &mut Encoder) {
    enc.put_usize(img.channels());
    enc.put_usize(img.height());
    enc.put_usize(img.width());
    enc.put_f32s(img.data());
}

pub(crate) fn restore_image(dec: &mut Decoder<'_>) -> Result<Image, StoreError> {
    let c = dec.take_usize("Image.channels")?;
    let h = dec.take_usize("Image.height")?;
    let w = dec.take_usize("Image.width")?;
    let data = dec.take_f32s("Image.data")?;
    // Checked: a wrapped product could match a short pixel buffer.
    let pixels = c.checked_mul(h).and_then(|ch| ch.checked_mul(w));
    if !(c == 1 || c == 3) || h == 0 || w == 0 || pixels != Some(data.len()) {
        return Err(StoreError::Malformed { context: "Image shape" });
    }
    // Pixels are clamped to [0,1] at every write, so the clamp inside
    // from_tensor is the identity and the roundtrip is bit-exact.
    Ok(Image::from_tensor(&Tensor::from_vec(data, &[c, h, w])))
}

pub(crate) fn persist_frame(frame: &Frame, enc: &mut Encoder) {
    persist_image(&frame.image, enc);
    enc.put_usize(frame.boxes.len());
    for b in &frame.boxes {
        enc.put_u8(b.class.index() as u8);
        enc.put_f32(b.x);
        enc.put_f32(b.y);
        enc.put_f32(b.w);
        enc.put_f32(b.h);
    }
    enc.put_u8(enum_pos(&Weather::ALL, frame.cond.weather, "Weather"));
    enc.put_u8(enum_pos(&TimeOfDay::ALL, frame.cond.time, "TimeOfDay"));
    enc.put_u8(enum_pos(&Location::ALL, frame.cond.location, "Location"));
}

/// The most a decoded frame may hold: the longer side of its image and
/// its number of boxes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameBounds {
    pub(crate) side: usize,
    pub(crate) boxes: usize,
}

impl FrameBounds {
    /// Only the codec's own limits: what a checkpoint's frames may hold.
    pub(crate) const NONE: FrameBounds = FrameBounds { side: usize::MAX, boxes: usize::MAX };
}

pub(crate) fn restore_frame(
    dec: &mut Decoder<'_>,
    bounds: FrameBounds,
) -> Result<Frame, StoreError> {
    let image = restore_image(dec)?;
    if image.height().max(image.width()) > bounds.side {
        return Err(StoreError::Malformed { context: "Frame side" });
    }
    let n = dec.take_usize("Frame.boxes len")?;
    if n > bounds.boxes {
        return Err(StoreError::Malformed { context: "Frame.boxes len" });
    }
    let mut boxes = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let ci = dec.take_u8("GtBox.class")?;
        let class = enum_at(&ObjectClass::ALL, ci, "GtBox.class")?;
        boxes.push(GtBox {
            class,
            x: dec.take_f32("GtBox.x")?,
            y: dec.take_f32("GtBox.y")?,
            w: dec.take_f32("GtBox.w")?,
            h: dec.take_f32("GtBox.h")?,
        });
    }
    let weather = enum_at(&Weather::ALL, dec.take_u8("Condition.weather")?, "Condition.weather")?;
    let time = enum_at(&TimeOfDay::ALL, dec.take_u8("Condition.time")?, "Condition.time")?;
    let location =
        enum_at(&Location::ALL, dec.take_u8("Condition.location")?, "Condition.location")?;
    let mut cond = Condition::new(weather, time);
    cond.location = location;
    Ok(Frame { image, boxes, cond })
}

pub(crate) fn persist_frames(frames: &[Frame], enc: &mut Encoder) {
    enc.put_usize(frames.len());
    for f in frames {
        persist_frame(f, enc);
    }
}

pub(crate) fn restore_frames(dec: &mut Decoder<'_>) -> Result<Vec<Frame>, StoreError> {
    let n = dec.take_usize("frames len")?;
    let mut out = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        out.push(restore_frame(dec, FrameBounds::NONE)?);
    }
    Ok(out)
}

pub(crate) fn persist_detector(d: &Detector, enc: &mut Encoder) {
    enc.put_u8(match d.arch() {
        DetectorArch::Heavy => 0,
        DetectorArch::Small => 1,
    });
    enc.put_usize(d.input_size());
    enc.put_f32(d.conf_threshold);
    enc.put_f32s(&d.export_params());
}

pub(crate) fn restore_detector(dec: &mut Decoder<'_>) -> Result<Detector, StoreError> {
    let arch = match dec.take_u8("Detector.arch")? {
        0 => DetectorArch::Heavy,
        1 => DetectorArch::Small,
        _ => return Err(StoreError::Malformed { context: "Detector.arch tag" }),
    };
    let size = dec.take_usize("Detector.input_size")?;
    if size == 0 || !size.is_multiple_of(8) {
        return Err(StoreError::Malformed { context: "Detector.input_size" });
    }
    let conf = dec.take_f32("Detector.conf_threshold")?;
    let params = dec.take_f32s("Detector.params")?;
    // The constructor's random init is immediately overwritten by the
    // imported parameters; the seed is arbitrary.
    let mut rng = StdRng::seed_from_u64(0);
    let mut d = match arch {
        DetectorArch::Heavy => Detector::heavy(size, &mut rng),
        DetectorArch::Small => Detector::small(size, &mut rng),
    };
    if params.len() != d.export_len() {
        return Err(StoreError::Malformed { context: "Detector.params length" });
    }
    d.import_params(&params);
    d.conf_threshold = conf;
    Ok(d)
}

pub(crate) fn persist_model_kind(kind: ModelKind, enc: &mut Encoder) {
    enc.put_u8(match kind {
        ModelKind::Lite => 0,
        ModelKind::Specialized => 1,
    });
}

pub(crate) fn restore_model_kind(dec: &mut Decoder<'_>) -> Result<ModelKind, StoreError> {
    match dec.take_u8("ModelKind")? {
        0 => Ok(ModelKind::Lite),
        1 => Ok(ModelKind::Specialized),
        _ => Err(StoreError::Malformed { context: "ModelKind tag" }),
    }
}

fn persist_dagan_config(cfg: &DaGanConfig, enc: &mut Encoder) {
    enc.put_usize(cfg.channels);
    enc.put_usize(cfg.size);
    enc.put_usize(cfg.latent);
    enc.put_usize(cfg.width);
    enc.put_f32(cfg.lr);
    enc.put_f32(cfg.lambda_r);
    enc.put_f32(cfg.denoise_std);
}

fn restore_dagan_config(dec: &mut Decoder<'_>) -> Result<DaGanConfig, StoreError> {
    let cfg = DaGanConfig {
        channels: dec.take_usize("DaGanConfig.channels")?,
        size: dec.take_usize("DaGanConfig.size")?,
        latent: dec.take_usize("DaGanConfig.latent")?,
        width: dec.take_usize("DaGanConfig.width")?,
        lr: dec.take_f32("DaGanConfig.lr")?,
        lambda_r: dec.take_f32("DaGanConfig.lambda_r")?,
        denoise_std: dec.take_f32("DaGanConfig.denoise_std")?,
    };
    if cfg.size == 0
        || !cfg.size.is_multiple_of(8)
        || cfg.latent == 0
        || cfg.width == 0
        || cfg.channels == 0
    {
        return Err(StoreError::Malformed { context: "DaGanConfig invariants" });
    }
    Ok(cfg)
}

/// Encodes an encoder snapshot. Fails (with the encoder's name in the
/// context) when the encoder does not support snapshotting.
pub(crate) fn persist_encoder(
    snapshot: &EncoderSnapshot,
    enc: &mut Encoder,
) -> Result<(), StoreError> {
    match snapshot {
        EncoderSnapshot::Histogram => enc.put_u8(0),
        EncoderSnapshot::DaGan { cfg, params } => {
            enc.put_u8(1);
            persist_dagan_config(cfg, enc);
            enc.put_f32s(params);
        }
        EncoderSnapshot::Unsupported(_) => {
            return Err(StoreError::Malformed { context: "encoder does not support snapshots" })
        }
    }
    Ok(())
}

/// Rebuilds a boxed encoder from its snapshot encoding.
pub(crate) fn restore_encoder(dec: &mut Decoder<'_>) -> Result<Box<dyn LatentEncoder>, StoreError> {
    match dec.take_u8("EncoderSnapshot tag")? {
        0 => Ok(Box::new(HistogramEncoder::new())),
        1 => {
            let cfg = restore_dagan_config(dec)?;
            let params = dec.take_f32s("EncoderSnapshot.params")?;
            let mut rng = StdRng::seed_from_u64(0);
            let mut model = DaGan::new(cfg, &mut rng);
            if params.len() != model.export_len() {
                return Err(StoreError::Malformed { context: "EncoderSnapshot.params length" });
            }
            model.import_params(&params);
            Ok(Box::new(DaGanEncoder::new(model)))
        }
        _ => Err(StoreError::Malformed { context: "EncoderSnapshot tag" }),
    }
}

impl Persist for SelectionPolicy {
    fn persist(&self, enc: &mut Encoder) {
        match self {
            SelectionPolicy::KnnUnweighted(k) => {
                enc.put_u8(0);
                enc.put_usize(*k);
            }
            SelectionPolicy::KnnWeighted(k) => {
                enc.put_u8(1);
                enc.put_usize(*k);
            }
            SelectionPolicy::DeltaBand => enc.put_u8(2),
            SelectionPolicy::MostRecent => enc.put_u8(3),
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        match dec.take_u8("SelectionPolicy tag")? {
            0 => Ok(SelectionPolicy::KnnUnweighted(dec.take_usize("SelectionPolicy.k")?)),
            1 => Ok(SelectionPolicy::KnnWeighted(dec.take_usize("SelectionPolicy.k")?)),
            2 => Ok(SelectionPolicy::DeltaBand),
            3 => Ok(SelectionPolicy::MostRecent),
            _ => Err(StoreError::Malformed { context: "SelectionPolicy tag" }),
        }
    }
}

impl Persist for OdinConfig {
    fn persist(&self, enc: &mut Encoder) {
        self.manager.persist(enc);
        self.policy.persist(enc);
        enc.put_u8(match self.specializer.arch {
            DetectorArch::Heavy => 0,
            DetectorArch::Small => 1,
        });
        enc.put_usize(self.specializer.frame_size);
        enc.put_usize(self.specializer.train_iters);
        enc.put_usize(self.specializer.distill_iters);
        enc.put_usize(self.specializer.batch_size);
        enc.put_u8(match self.oracle {
            OracleLabels::Immediate => 0,
            OracleLabels::Never => 1,
        });
        match self.training {
            TrainingMode::Inline => enc.put_u8(0),
            TrainingMode::Background { workers } => {
                enc.put_u8(1);
                enc.put_usize(workers);
            }
        }
        enc.put_bool(self.baseline_only);
        enc.put_usize(self.buffer_cap);
        enc.put_usize(self.min_train_frames);
        enc.put_u8(match self.precision {
            ServePrecision::F32 => 0,
            ServePrecision::Int8 => 1,
        });
        enc.put_bool(self.event_log.enabled);
        enc.put_usize(self.event_log.queue_cap);
        enc.put_usize(self.event_log.segment_records);
        enc.put_bool(self.attic.enabled);
        enc.put_usize(self.attic.byte_budget);
        enc.put_f32(self.attic.match_threshold);
        enc.put_u64(self.event_log.retention.max_bytes);
        enc.put_u64(self.event_log.retention.max_age_us);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        let manager = ManagerConfig::restore(dec)?;
        let policy = SelectionPolicy::restore(dec)?;
        let arch = match dec.take_u8("SpecializerConfig.arch")? {
            0 => DetectorArch::Heavy,
            1 => DetectorArch::Small,
            _ => return Err(StoreError::Malformed { context: "SpecializerConfig.arch tag" }),
        };
        let specializer = SpecializerConfig {
            arch,
            frame_size: dec.take_usize("SpecializerConfig.frame_size")?,
            train_iters: dec.take_usize("SpecializerConfig.train_iters")?,
            distill_iters: dec.take_usize("SpecializerConfig.distill_iters")?,
            batch_size: dec.take_usize("SpecializerConfig.batch_size")?,
        };
        let oracle = match dec.take_u8("OracleLabels tag")? {
            0 => OracleLabels::Immediate,
            1 => OracleLabels::Never,
            _ => return Err(StoreError::Malformed { context: "OracleLabels tag" }),
        };
        let training = match dec.take_u8("TrainingMode tag")? {
            0 => TrainingMode::Inline,
            1 => TrainingMode::Background { workers: dec.take_usize("TrainingMode.workers")? },
            _ => return Err(StoreError::Malformed { context: "TrainingMode tag" }),
        };
        let baseline_only = dec.take_bool("OdinConfig.baseline_only")?;
        let buffer_cap = dec.take_usize("OdinConfig.buffer_cap")?;
        let min_train_frames = dec.take_usize("OdinConfig.min_train_frames")?;
        let precision = match dec.take_u8("OdinConfig.precision")? {
            0 => ServePrecision::F32,
            1 => ServePrecision::Int8,
            _ => return Err(StoreError::Malformed { context: "ServePrecision tag" }),
        };
        // Added after the precision field; absent in checkpoints
        // written by older builds, which read back as disabled.
        let mut event_log = if dec.remaining() > 0 {
            EventLogConfig {
                enabled: dec.take_bool("OdinConfig.event_log.enabled")?,
                queue_cap: dec.take_usize("OdinConfig.event_log.queue_cap")?,
                segment_records: dec.take_usize("OdinConfig.event_log.segment_records")?,
                ..EventLogConfig::default()
            }
        } else {
            EventLogConfig::default()
        };
        // Added after the event-log fields; absent in checkpoints
        // written by older builds, which read back as disabled.
        let attic = if dec.remaining() > 0 {
            AtticConfig {
                enabled: dec.take_bool("OdinConfig.attic.enabled")?,
                byte_budget: dec.take_usize("OdinConfig.attic.byte_budget")?,
                match_threshold: dec.take_f32("OdinConfig.attic.match_threshold")?,
            }
        } else {
            AtticConfig::default()
        };
        // Added after the attic fields; absent in checkpoints written
        // by older builds, which read back as unlimited retention.
        if dec.remaining() > 0 {
            event_log.retention = RetentionConfig {
                max_bytes: dec.take_u64("OdinConfig.event_log.retention.max_bytes")?,
                max_age_us: dec.take_u64("OdinConfig.event_log.retention.max_age_us")?,
            };
        }
        Ok(OdinConfig {
            manager,
            policy,
            specializer,
            oracle,
            training,
            baseline_only,
            buffer_cap,
            min_train_frames,
            precision,
            event_log,
            attic,
        })
    }
}

impl Persist for PipelineStats {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_u64(self.jobs_submitted);
        enc.put_u64(self.models_installed);
        enc.put_f64(self.train_wall_ms);
        enc.put_u64(self.teacher_frames_while_pending);
        enc.put_u64(self.fallback_frames_while_pending);
        enc.put_u64(self.snapshots_written);
        enc.put_u64(self.wal_events_logged);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        Ok(PipelineStats {
            jobs_submitted: dec.take_u64("PipelineStats.jobs_submitted")?,
            models_installed: dec.take_u64("PipelineStats.models_installed")?,
            // queue_depth / in_flight are live pool gauges, not state.
            queue_depth: 0,
            in_flight: 0,
            train_wall_ms: dec.take_f64("PipelineStats.train_wall_ms")?,
            teacher_frames_while_pending: dec.take_u64("PipelineStats.teacher_pending")?,
            fallback_frames_while_pending: dec.take_u64("PipelineStats.fallback_pending")?,
            snapshots_written: dec.take_u64("PipelineStats.snapshots_written")?,
            wal_events_logged: dec.take_u64("PipelineStats.wal_events_logged")?,
            // Derived live from telemetry by `Odin::stats`, not state.
            store_errors: 0,
            last_store_error: None,
        })
    }
}

// ---------------------------------------------------------------------
// Telemetry snapshot codec
// ---------------------------------------------------------------------

/// Encodes the full telemetry state: the metric snapshot (counters,
/// gauges, histograms with their bucket bounds, drift timeline), the
/// flight recorder's contents, and the tracer's id allocators. Bounds
/// are persisted alongside the counts so a restored registry reproduces
/// the exact bucketing, and the recorder + tracer state make the
/// Chrome-trace export byte-identical after a restore.
pub(crate) fn persist_telemetry(
    snap: &TelemetrySnapshot,
    flight: &FlightRecord,
    tracer_state: (u64, u64),
) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_usize(snap.counters.len());
    for (name, v) in &snap.counters {
        enc.put_str(name);
        enc.put_u64(*v);
    }
    enc.put_usize(snap.gauges.len());
    for (name, v) in &snap.gauges {
        enc.put_str(name);
        enc.put_u64(*v as u64);
    }
    enc.put_usize(snap.histograms.len());
    for h in &snap.histograms {
        enc.put_str(&h.name);
        enc.put_usize(h.bounds.len());
        for &b in &h.bounds {
            enc.put_f64(b);
        }
        enc.put_usize(h.buckets.len());
        for &b in &h.buckets {
            enc.put_u64(b);
        }
        enc.put_u64(h.count);
        enc.put_u64(h.sum_ns);
    }
    enc.put_usize(snap.timeline.len());
    for t in &snap.timeline {
        enc.put_u8(t.stage.tag());
        enc.put_usize(t.cluster_id);
        enc.put_usize(t.frame);
        enc.put_f64(t.at_ms);
    }
    enc.put_usize(flight.spans.len());
    for s in &flight.spans {
        enc.put_u64(s.trace);
        enc.put_u64(s.id);
        enc.put_u64(s.parent);
        enc.put_str(&s.name);
        enc.put_f64(s.start_ms);
        enc.put_f64(s.end_ms);
        enc.put_u64(s.cluster as u64);
        enc.put_u64(s.frame as u64);
    }
    enc.put_usize(flight.events.len());
    for e in &flight.events {
        enc.put_f64(e.at_ms);
        enc.put_u8(e.level.tag());
        enc.put_str(&e.target);
        enc.put_str(&e.message);
    }
    enc.put_u64(flight.dropped_spans);
    enc.put_u64(flight.dropped_events);
    enc.put_u64(tracer_state.0);
    enc.put_u64(tracer_state.1);
    enc.into_bytes()
}

/// Decodes the telemetry state written by [`persist_telemetry`]:
/// `(snapshot, flight_record, (next_span_id, next_trace_id))`.
pub(crate) fn restore_telemetry(
    bytes: &[u8],
) -> Result<(TelemetrySnapshot, FlightRecord, (u64, u64)), StoreError> {
    let mut dec = Decoder::new(bytes);
    let n = dec.take_usize("telemetry counters len")?;
    let mut counters = Vec::with_capacity(n.min(1 << 10));
    for _ in 0..n {
        let name = dec.take_str("telemetry counter name")?;
        counters.push((name, dec.take_u64("telemetry counter value")?));
    }
    let n = dec.take_usize("telemetry gauges len")?;
    let mut gauges = Vec::with_capacity(n.min(1 << 10));
    for _ in 0..n {
        let name = dec.take_str("telemetry gauge name")?;
        gauges.push((name, dec.take_u64("telemetry gauge value")? as i64));
    }
    let n = dec.take_usize("telemetry histograms len")?;
    let mut histograms = Vec::with_capacity(n.min(1 << 10));
    for _ in 0..n {
        let name = dec.take_str("telemetry histogram name")?;
        let nb = dec.take_usize("telemetry bounds len")?;
        let mut bounds = Vec::with_capacity(nb.min(1 << 10));
        for _ in 0..nb {
            bounds.push(dec.take_f64("telemetry bound")?);
        }
        let nk = dec.take_usize("telemetry buckets len")?;
        if nk != nb + 1 {
            return Err(StoreError::Malformed { context: "telemetry bucket count" });
        }
        let mut buckets = Vec::with_capacity(nk);
        for _ in 0..nk {
            buckets.push(dec.take_u64("telemetry bucket")?);
        }
        let count = dec.take_u64("telemetry count")?;
        let sum_ns = dec.take_u64("telemetry sum_ns")?;
        histograms.push(HistogramSnapshot { name, bounds, buckets, count, sum_ns });
    }
    let n = dec.take_usize("telemetry timeline len")?;
    let mut timeline = Vec::with_capacity(n.min(1 << 14));
    for _ in 0..n {
        let tag = dec.take_u8("timeline stage")?;
        let stage = TimelineStage::from_tag(tag)
            .ok_or(StoreError::Malformed { context: "timeline stage tag" })?;
        timeline.push(TimelineEvent {
            stage,
            cluster_id: dec.take_usize("timeline cluster")?,
            frame: dec.take_usize("timeline frame")?,
            at_ms: dec.take_f64("timeline at_ms")?,
        });
    }
    let n = dec.take_usize("flight spans len")?;
    let mut spans = Vec::with_capacity(n.min(1 << 14));
    for _ in 0..n {
        spans.push(SpanRecord {
            trace: dec.take_u64("span trace")?,
            id: dec.take_u64("span id")?,
            parent: dec.take_u64("span parent")?,
            name: dec.take_str("span name")?.into(),
            start_ms: dec.take_f64("span start_ms")?,
            end_ms: dec.take_f64("span end_ms")?,
            cluster: dec.take_u64("span cluster")? as i64,
            frame: dec.take_u64("span frame")? as i64,
        });
    }
    let n = dec.take_usize("flight events len")?;
    let mut events = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let at_ms = dec.take_f64("flight event at_ms")?;
        let tag = dec.take_u8("flight event level")?;
        let level =
            Level::from_tag(tag).ok_or(StoreError::Malformed { context: "flight event level" })?;
        events.push(RecordedEvent {
            at_ms,
            level,
            target: dec.take_str("flight event target")?.into(),
            message: dec.take_str("flight event message")?,
        });
    }
    let dropped_spans = dec.take_u64("flight dropped spans")?;
    let dropped_events = dec.take_u64("flight dropped events")?;
    let next_span = dec.take_u64("tracer next span")?;
    let next_trace = dec.take_u64("tracer next trace")?;
    dec.finish("telemetry trailing bytes")?;
    Ok((
        TelemetrySnapshot { counters, gauges, histograms, timeline },
        FlightRecord { spans, events, dropped_spans, dropped_events },
        (next_span, next_trace),
    ))
}

// ---------------------------------------------------------------------
// WAL events
// ---------------------------------------------------------------------

/// One replayable record in the drift-event WAL. `Drift` carries the
/// full promoted-cluster state and `Install` the full model weights, so
/// replay needs no context beyond the snapshot it starts from.
pub(crate) enum WalEvent {
    Drift {
        event: DriftEvent,
        cluster: Cluster,
    },
    Evict {
        cluster_id: usize,
    },
    Install {
        cluster_id: usize,
        kind: ModelKind,
        detector: Detector,
        quantized: bool,
    },
    /// An evicted cluster's signature + model entered the attic. Logged
    /// *before* the matching `Evict` so a crash between the two replays
    /// into a state where the model is archived, never lost.
    Archive {
        cluster_id: usize,
        signature: ClusterSignature,
        kind: ModelKind,
        detector: Detector,
        quantized: bool,
    },
    /// A drift hit consumed the attic entry archived from cluster
    /// `source_id` (a reinstall). Logged before the matching `Install`
    /// so replay removes exactly the entry the live probe took.
    AtticTake {
        source_id: usize,
    },
}

pub(crate) fn encode_drift(event: DriftEvent, cluster: &Cluster) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u8(1);
    event.persist(&mut enc);
    cluster.persist(&mut enc);
    enc.into_bytes()
}

pub(crate) fn encode_evict(cluster_id: usize) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u8(2);
    enc.put_usize(cluster_id);
    enc.into_bytes()
}

pub(crate) fn encode_install(
    cluster_id: usize,
    kind: ModelKind,
    detector: &Detector,
    quantized: bool,
) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u8(3);
    enc.put_usize(cluster_id);
    persist_model_kind(kind, &mut enc);
    persist_detector(detector, &mut enc);
    // The f32 weights plus this flag fully determine the served model:
    // quantization is deterministic, so replay re-quantizes instead of
    // logging int8 bytes.
    enc.put_bool(quantized);
    enc.into_bytes()
}

pub(crate) fn encode_archive(
    cluster_id: usize,
    signature: &ClusterSignature,
    kind: ModelKind,
    detector: &Detector,
    quantized: bool,
) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u8(4);
    enc.put_usize(cluster_id);
    signature.persist(&mut enc);
    persist_model_kind(kind, &mut enc);
    persist_detector(detector, &mut enc);
    enc.put_bool(quantized);
    enc.into_bytes()
}

pub(crate) fn encode_attic_take(source_id: usize) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u8(5);
    enc.put_usize(source_id);
    enc.into_bytes()
}

pub(crate) fn decode_wal_event(payload: &[u8]) -> Result<WalEvent, StoreError> {
    let mut dec = Decoder::new(payload);
    let event = match dec.take_u8("WalEvent tag")? {
        1 => WalEvent::Drift {
            event: DriftEvent::restore(&mut dec)?,
            cluster: Cluster::restore(&mut dec)?,
        },
        2 => WalEvent::Evict { cluster_id: dec.take_usize("WalEvent.cluster_id")? },
        3 => WalEvent::Install {
            cluster_id: dec.take_usize("WalEvent.cluster_id")?,
            kind: restore_model_kind(&mut dec)?,
            detector: restore_detector(&mut dec)?,
            quantized: dec.take_bool("WalEvent.quantized")?,
        },
        4 => WalEvent::Archive {
            cluster_id: dec.take_usize("WalEvent.cluster_id")?,
            signature: ClusterSignature::restore(&mut dec)?,
            kind: restore_model_kind(&mut dec)?,
            detector: restore_detector(&mut dec)?,
            quantized: dec.take_bool("WalEvent.quantized")?,
        },
        5 => WalEvent::AtticTake { source_id: dec.take_usize("WalEvent.source_id")? },
        _ => return Err(StoreError::Malformed { context: "WalEvent tag" }),
    };
    dec.finish("WalEvent trailing bytes")?;
    Ok(event)
}

// ---------------------------------------------------------------------
// Registry section codec (operates on parts, the pipeline assembles
// them under its own locks)
// ---------------------------------------------------------------------

pub(crate) fn persist_registry_models(
    models: &[(usize, ModelKind, &Detector, bool)],
    enc: &mut Encoder,
) {
    enc.put_usize(models.len());
    for (id, kind, det, quantized) in models {
        enc.put_usize(*id);
        persist_model_kind(*kind, enc);
        persist_detector(det, enc);
        // Whether the model is served int8; restore re-quantizes the
        // f32 weights deterministically instead of storing int8 bytes.
        enc.put_bool(*quantized);
    }
}

pub(crate) fn restore_registry_models(
    dec: &mut Decoder<'_>,
) -> Result<Vec<(usize, ModelKind, Detector, bool)>, StoreError> {
    let n = dec.take_usize("registry len")?;
    let mut out = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let id = dec.take_usize("registry id")?;
        let kind = restore_model_kind(dec)?;
        let det = restore_detector(dec)?;
        let quantized = dec.take_bool("registry quantized")?;
        out.push((id, kind, det, quantized));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Background snapshot writer
// ---------------------------------------------------------------------

enum WriteReq {
    Write {
        path: PathBuf,
        bytes: Vec<u8>,
    },
    /// Render the flight recorder and write it to the telemetry's dump
    /// path (see [`Telemetry::flight_autodump`]).
    FlightDump,
    Barrier(Sender<()>),
}

/// Owns a thread that writes snapshot bytes atomically off the serving
/// path. Snapshot *bytes* are built synchronously at the frame boundary
/// (that part must be consistent); only the file I/O is deferred. The
/// drift alarm's flight-record dump — a diagnostic, with no consistency
/// to keep — is rendered here as well as written.
pub(crate) struct SnapshotWriter {
    tx: Option<Sender<WriteReq>>,
    handle: Option<JoinHandle<()>>,
    failures: Arc<AtomicU64>,
}

impl SnapshotWriter {
    pub fn new(telemetry: Telemetry) -> Self {
        let (tx, rx) = unbounded::<WriteReq>();
        let failures = Arc::new(AtomicU64::new(0));
        let fail = Arc::clone(&failures);
        let handle = std::thread::Builder::new()
            .name("odin-snapshot-writer".to_string())
            .spawn(move || {
                while let Ok(req) = rx.recv() {
                    match req {
                        WriteReq::Write { path, bytes } => {
                            let t0 = telemetry.registry().now_ms();
                            let res = write_atomic(&path, &bytes);
                            telemetry
                                .stage_snapshot_write
                                .observe_ms(telemetry.registry().now_ms() - t0);
                            if let Err(e) = res {
                                fail.fetch_add(1, Ordering::Relaxed);
                                telemetry.record_store_error(
                                    format!("snapshot write to {} failed", path.display()),
                                    e,
                                );
                            }
                        }
                        WriteReq::FlightDump => telemetry.flight_autodump(),
                        WriteReq::Barrier(done) => {
                            let _ = done.send(());
                        }
                    }
                }
            })
            .expect("spawn snapshot writer thread");
        SnapshotWriter { tx: Some(tx), handle: Some(handle), failures }
    }

    /// Queues one atomic snapshot write.
    pub fn submit(&self, path: PathBuf, bytes: Vec<u8>) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(WriteReq::Write { path, bytes });
        }
    }

    /// Queues a dump of the flight recorder as it stands when the
    /// writer gets to it: the spans up to the request, and whatever the
    /// serving thread has recorded since.
    pub fn submit_flight_dump(&self) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(WriteReq::FlightDump);
        }
    }

    /// Blocks until every previously queued write has hit the disk.
    pub fn flush(&self) {
        if let Some(tx) = &self.tx {
            let (done_tx, done_rx) = unbounded();
            if tx.send(WriteReq::Barrier(done_tx)).is_ok() {
                let _ = done_rx.recv();
            }
        }
    }

    /// Number of writes that failed since startup.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The live persistence runtime attached to an `Odin` by
/// [`crate::pipeline::Odin::enable_store`]: the WAL appender, the
/// background snapshot writer, and the snapshot policy.
pub(crate) struct PipelineStore {
    pub dir: PathBuf,
    pub policy: CheckpointPolicy,
    pub wal: WalWriter,
    pub writer: SnapshotWriter,
    pub frames_since_snapshot: usize,
}

impl PipelineStore {
    pub fn open(dir: &Path, policy: CheckpointPolicy, tel: Telemetry) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        let wal = WalWriter::open(&dir.join(WAL_FILE))?;
        Ok(PipelineStore {
            dir: dir.to_path_buf(),
            policy,
            wal,
            writer: SnapshotWriter::new(tel),
            frames_since_snapshot: 0,
        })
    }

    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odin_data::{SceneGen, Subset};

    fn sample_frame() -> Frame {
        let gen = SceneGen::new(48);
        let mut rng = StdRng::seed_from_u64(3);
        gen.subset_frames(&mut rng, Subset::Night, 1).pop().expect("one frame")
    }

    #[test]
    fn frame_roundtrip_is_bit_exact() {
        let frame = sample_frame();
        let mut enc = Encoder::new();
        persist_frame(&frame, &mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = restore_frame(&mut dec, FrameBounds::NONE).unwrap();
        dec.finish("frame").unwrap();
        assert_eq!(back.image.data(), frame.image.data());
        assert_eq!(back.boxes, frame.boxes);
        assert_eq!(back.cond, frame.cond);
        let mut enc2 = Encoder::new();
        persist_frame(&back, &mut enc2);
        assert_eq!(enc2.into_bytes(), bytes);
    }

    #[test]
    fn detector_roundtrip_preserves_weights_and_outputs() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut d = Detector::small(48, &mut rng);
        d.conf_threshold = 0.123;
        let mut enc = Encoder::new();
        persist_detector(&d, &mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = restore_detector(&mut dec).unwrap();
        dec.finish("detector").unwrap();
        assert_eq!(back.arch(), d.arch());
        assert_eq!(back.input_size(), d.input_size());
        assert_eq!(back.conf_threshold, d.conf_threshold);
        assert_eq!(back.export_params(), d.export_params());
        let frame = sample_frame();
        let a = d.detect(&frame.image);
        let b = back.detect(&frame.image);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!(x.bbox.class, y.bbox.class);
        }
    }

    #[test]
    fn detector_restore_rejects_wrong_param_count() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = Detector::small(48, &mut rng);
        let mut enc = Encoder::new();
        persist_detector(&d, &mut enc);
        let mut bytes = enc.into_bytes();
        // Drop the last parameter: length prefix no longer matches.
        bytes.truncate(bytes.len() - 4);
        let mut dec = Decoder::new(&bytes);
        assert!(restore_detector(&mut dec).is_err());
    }

    #[test]
    fn odin_config_roundtrip() {
        let cfg = OdinConfig {
            policy: SelectionPolicy::KnnWeighted(3),
            oracle: OracleLabels::Never,
            training: TrainingMode::Background { workers: 2 },
            buffer_cap: 99,
            min_train_frames: 17,
            ..OdinConfig::default()
        };
        let bytes = cfg.to_store_bytes();
        let back = OdinConfig::from_store_bytes(&bytes, "config").unwrap();
        assert_eq!(back.to_store_bytes(), bytes);
        assert_eq!(back.policy, cfg.policy);
        assert_eq!(back.training, cfg.training);
        assert_eq!(back.buffer_cap, 99);
    }

    #[test]
    fn wal_event_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        let cluster = Cluster::from_points(4, vec![vec![0.5, 1.5], vec![0.6, 1.4]], 0.75, 8);
        let event = DriftEvent { cluster_id: 4, at: 123 };
        match decode_wal_event(&encode_drift(event, &cluster)).unwrap() {
            WalEvent::Drift { event: e, cluster: c } => {
                assert_eq!(e, event);
                assert_eq!(c.id(), 4);
                assert_eq!(c.centroid(), cluster.centroid());
            }
            _ => panic!("expected drift event"),
        }
        match decode_wal_event(&encode_evict(9)).unwrap() {
            WalEvent::Evict { cluster_id } => assert_eq!(cluster_id, 9),
            _ => panic!("expected evict event"),
        }
        let det = Detector::small(48, &mut rng);
        let params = det.export_params();
        match decode_wal_event(&encode_install(2, ModelKind::Specialized, &det, true)).unwrap() {
            WalEvent::Install { cluster_id, kind, detector, quantized } => {
                assert_eq!(cluster_id, 2);
                assert_eq!(kind, ModelKind::Specialized);
                assert_eq!(detector.export_params(), params);
                assert!(quantized);
            }
            _ => panic!("expected install event"),
        }
        let sig = ClusterSignature::from_cluster(&cluster);
        let payload = encode_archive(6, &sig, ModelKind::Lite, &det, false);
        match decode_wal_event(&payload).unwrap() {
            WalEvent::Archive { cluster_id, signature, kind, detector, quantized } => {
                assert_eq!(cluster_id, 6);
                assert_eq!(signature.centroid(), sig.centroid());
                assert_eq!(signature.to_store_bytes(), sig.to_store_bytes());
                assert_eq!(kind, ModelKind::Lite);
                assert_eq!(detector.export_params(), params);
                assert!(!quantized);
            }
            _ => panic!("expected archive event"),
        }
        assert!(decode_wal_event(&[42]).is_err(), "unknown tag must be malformed");
    }

    #[test]
    fn encoder_snapshot_roundtrip_histogram_and_unsupported() {
        let mut enc = Encoder::new();
        persist_encoder(&EncoderSnapshot::Histogram, &mut enc).unwrap();
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let e = restore_encoder(&mut dec).unwrap();
        assert_eq!(e.name(), "histogram");

        let mut enc2 = Encoder::new();
        let err = persist_encoder(&EncoderSnapshot::Unsupported("custom"), &mut enc2);
        assert!(err.is_err(), "unsupported encoders must fail checkpointing");
    }

    #[test]
    fn snapshot_writer_flush_waits_for_writes() {
        let dir = std::env::temp_dir().join(format!("odin-writer-{}", std::process::id()));
        let path = dir.join("snap.odst");
        let writer = SnapshotWriter::new(Telemetry::new());
        let mut b = odin_store::CheckpointBuilder::new();
        b.section("x", vec![1, 2, 3]);
        writer.submit(path.clone(), b.to_bytes());
        writer.flush();
        assert!(path.exists(), "flush must guarantee the write landed");
        assert_eq!(writer.failures(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
