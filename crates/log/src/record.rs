//! Row type and enums for the event log, plus the pipeline-facing
//! [`EventLogConfig`].

use odin_telemetry::json::Value;

/// File name of the event log inside a store directory (next to the
/// snapshot and the WAL).
pub const EVENT_LOG_FILE: &str = "events.odlg";

/// What a [`LogRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum RecordKind {
    /// One served frame: detection count, confidence summary, latency.
    Frame = 0,
    /// The DETECTOR promoted a temporary cluster / flagged drift.
    DriftDetected = 1,
    /// A specializer training job was queued for the drifted cluster.
    TrainQueued = 2,
    /// A trained model passed the install gate and entered the registry.
    ModelInstalled = 3,
    /// A cluster (and its models) was evicted from the registry.
    ClusterEvicted = 4,
    /// Drift matched an archived signature; the attic's cached model
    /// was reinstalled instead of queueing a training job.
    AtticHit = 5,
    /// A training job finished for a cluster that was evicted while it
    /// ran; the model was dropped (terminal record of the arc).
    TrainOrphaned = 6,
}

impl RecordKind {
    /// All kinds, in tag order.
    pub const ALL: [RecordKind; 7] = [
        RecordKind::Frame,
        RecordKind::DriftDetected,
        RecordKind::TrainQueued,
        RecordKind::ModelInstalled,
        RecordKind::ClusterEvicted,
        RecordKind::AtticHit,
        RecordKind::TrainOrphaned,
    ];

    /// Stable numeric tag (also the on-disk dictionary value).
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`RecordKind::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.get(tag as usize).copied()
    }

    /// Stable lowercase name used by the CLI and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            RecordKind::Frame => "frame",
            RecordKind::DriftDetected => "drift_detected",
            RecordKind::TrainQueued => "train_queued",
            RecordKind::ModelInstalled => "model_installed",
            RecordKind::ClusterEvicted => "cluster_evicted",
            RecordKind::AtticHit => "attic_hit",
            RecordKind::TrainOrphaned => "train_orphaned",
        }
    }

    /// Parse a CLI spelling (`drift_detected`, `drift`, `install`, ...).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "frame" => Some(RecordKind::Frame),
            "drift" | "drift_detected" => Some(RecordKind::DriftDetected),
            "queued" | "train_queued" => Some(RecordKind::TrainQueued),
            "install" | "model_installed" => Some(RecordKind::ModelInstalled),
            "evict" | "cluster_evicted" => Some(RecordKind::ClusterEvicted),
            "attic" | "attic_hit" => Some(RecordKind::AtticHit),
            "orphaned" | "train_orphaned" => Some(RecordKind::TrainOrphaned),
            _ => None,
        }
    }
}

/// Which model family served a frame (the log's own copy of the core
/// `ServedBy` enum, so this crate stays below `odin-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum ServedLabel {
    /// Not a frame record / not served.
    None = 0,
    /// The heavyweight teacher model.
    Teacher = 1,
    /// A specialized (or lite) ensemble member for the frame's cluster.
    Ensemble = 2,
    /// Fallback ensemble while specialization is pending.
    Fallback = 3,
}

impl ServedLabel {
    /// All labels, in tag order.
    pub const ALL: [ServedLabel; 4] =
        [ServedLabel::None, ServedLabel::Teacher, ServedLabel::Ensemble, ServedLabel::Fallback];

    /// Stable numeric tag (also the on-disk dictionary value).
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`ServedLabel::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.get(tag as usize).copied()
    }

    /// Stable lowercase name used by the CLI and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            ServedLabel::None => "-",
            ServedLabel::Teacher => "teacher",
            ServedLabel::Ensemble => "ensemble",
            ServedLabel::Fallback => "fallback",
        }
    }

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" | "-" => Some(ServedLabel::None),
            "teacher" => Some(ServedLabel::Teacher),
            "ensemble" => Some(ServedLabel::Ensemble),
            "fallback" => Some(ServedLabel::Fallback),
            _ => None,
        }
    }
}

/// One event-log row. `Frame` records carry the serving fields
/// (`served`, `dets`, `conf_*`, `latency_us`); drift/recovery records
/// carry `cluster` and the recovery-arc `trace` id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogRecord {
    /// Monotonic per-pipeline sequence number (assigned by the
    /// emitter, not the writer — so it is deterministic and survives
    /// checkpoint/restore).
    pub seq: u64,
    /// What this row describes.
    pub kind: RecordKind,
    /// Event time in microseconds from the pipeline's installed clock.
    pub ts_us: u64,
    /// Frame index at emission time.
    pub frame: u64,
    /// Stream id (shard index under a multi-stream server; 0 for a
    /// standalone pipeline).
    pub stream: u32,
    /// Cluster id the event refers to, or -1 when not applicable.
    pub cluster: i64,
    /// Who served the frame (`None` for non-frame records).
    pub served: ServedLabel,
    /// Detection count for frame records.
    pub dets: u32,
    /// Mean detection confidence for frame records (0 when no dets).
    pub conf_mean: f32,
    /// Max detection confidence for frame records (0 when no dets).
    pub conf_max: f32,
    /// Frame serving latency (or train wall time for installs), µs.
    pub latency_us: u64,
    /// Causal trace id: the frame trace for frame records, the
    /// recovery-arc trace for drift/queue/install records.
    pub trace: u64,
}

impl LogRecord {
    /// One record as a JSON object with a stable key order (no
    /// external deps). This is the wire shape of the CLI's `--json`
    /// output and the server's `GET /events` response records.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"seq\":{},\"kind\":\"{}\",\"ts_us\":{},\"frame\":{},",
                "\"stream\":{},\"cluster\":{},\"served\":\"{}\",\"dets\":{},",
                "\"conf_mean\":{:.4},\"conf_max\":{:.4},\"latency_us\":{},",
                "\"trace\":{}}}"
            ),
            self.seq,
            self.kind.name(),
            self.ts_us,
            self.frame,
            self.stream,
            self.cluster,
            self.served.name(),
            self.dets,
            self.conf_mean,
            self.conf_max,
            self.latency_us,
            self.trace,
        )
    }

    /// Inverse of [`LogRecord::to_json`], from the parsed object; `None`
    /// when a field is missing or out of range.
    pub fn from_json(v: &Value) -> Option<Self> {
        let u64_of = |key| v.get(key)?.as_u64();
        let f32_of = |key| Some(v.get(key)?.as_f64()? as f32);
        Some(LogRecord {
            seq: u64_of("seq")?,
            kind: RecordKind::parse(v.get("kind")?.as_str()?)?,
            ts_us: u64_of("ts_us")?,
            frame: u64_of("frame")?,
            stream: u64_of("stream")?.try_into().ok()?,
            cluster: v.get("cluster")?.as_i64()?,
            served: ServedLabel::parse(v.get("served")?.as_str()?)?,
            dets: u64_of("dets")?.try_into().ok()?,
            conf_mean: f32_of("conf_mean")?,
            conf_max: f32_of("conf_max")?,
            latency_us: u64_of("latency_us")?,
            trace: u64_of("trace")?,
        })
    }

    /// A zeroed frame-kind record, useful as a builder base in tests.
    pub fn empty() -> Self {
        LogRecord {
            seq: 0,
            kind: RecordKind::Frame,
            ts_us: 0,
            frame: 0,
            stream: 0,
            cluster: -1,
            served: ServedLabel::None,
            dets: 0,
            conf_mean: 0.0,
            conf_max: 0.0,
            latency_us: 0,
            trace: 0,
        }
    }
}

/// Retention/compaction policy for the on-disk log. Whole sealed
/// segments are dropped from the *front* of the file when a budget is
/// exceeded; the newest segment is always retained so the recovered
/// sequence tail survives. Zero on either axis means "unlimited".
///
/// Both budgets are evaluated against data already in the file (bytes
/// written, record timestamps), never against wall-clock time — so
/// compaction decisions are deterministic and the byte-identical log
/// contract across `ODIN_THREADS` settings is preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetentionConfig {
    /// Target upper bound for the log file size in bytes (header +
    /// sealed segments). 0 = unlimited. The bound can be overshot by
    /// at most one segment, since only whole segments are dropped and
    /// the newest segment is never dropped.
    pub max_bytes: u64,
    /// Maximum record age in microseconds, measured against the newest
    /// retained record's `ts_us` (not wall clock). A segment is
    /// dropped when *all* of its records are older than the window.
    /// 0 = unlimited.
    pub max_age_us: u64,
}

impl RetentionConfig {
    /// True when neither budget is set (compaction never runs).
    pub fn is_unlimited(&self) -> bool {
        self.max_bytes == 0 && self.max_age_us == 0
    }
}

/// Event-log knobs carried inside `OdinConfig`. `Copy` so the core
/// config stays `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventLogConfig {
    /// Master switch; when false no writer is opened and emission is a
    /// no-op.
    pub enabled: bool,
    /// Bounded-channel capacity between the pipeline thread and the
    /// background writer. When full, records are *dropped and counted*
    /// — the hot path never blocks.
    pub queue_cap: usize,
    /// Records per sealed segment. Smaller segments prune better;
    /// larger segments compress better.
    pub segment_records: usize,
    /// On-disk retention budget, enforced by the background writer at
    /// open time and after each sealed segment.
    pub retention: RetentionConfig,
}

impl Default for EventLogConfig {
    fn default() -> Self {
        EventLogConfig {
            enabled: false,
            queue_cap: 4096,
            segment_records: 512,
            retention: RetentionConfig::default(),
        }
    }
}

impl EventLogConfig {
    /// Enabled with default sizing.
    pub fn enabled() -> Self {
        EventLogConfig { enabled: true, ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odin_telemetry::json;

    #[test]
    fn record_json_round_trips() {
        let rec = LogRecord {
            seq: 9,
            kind: RecordKind::DriftDetected,
            ts_us: 123_456,
            frame: 42,
            stream: 3,
            cluster: -1,
            served: ServedLabel::Teacher,
            dets: 2,
            conf_mean: 0.5,
            conf_max: 0.75,
            latency_us: 810,
            trace: u64::MAX,
        };
        let parsed = json::parse(&rec.to_json()).expect("valid JSON");
        assert_eq!(LogRecord::from_json(&parsed), Some(rec));
        let too_wide = rec.to_json().replace("\"stream\":3", "\"stream\":4294967296");
        assert_eq!(LogRecord::from_json(&json::parse(&too_wide).unwrap()), None);
        let missing = rec.to_json().replace("\"trace\":", "\"tracer\":");
        assert_eq!(LogRecord::from_json(&json::parse(&missing).unwrap()), None);
    }

    #[test]
    fn enum_tags_roundtrip() {
        for k in RecordKind::ALL {
            assert_eq!(RecordKind::from_tag(k.tag()), Some(k));
            assert_eq!(RecordKind::parse(k.name()), Some(k));
        }
        for s in ServedLabel::ALL {
            assert_eq!(ServedLabel::from_tag(s.tag()), Some(s));
            assert_eq!(ServedLabel::parse(s.name()), Some(s));
        }
        assert_eq!(RecordKind::from_tag(9), None);
        assert_eq!(ServedLabel::from_tag(9), None);
        assert_eq!(RecordKind::parse("drift"), Some(RecordKind::DriftDetected));
        assert_eq!(ServedLabel::parse("nope"), None);
    }
}
