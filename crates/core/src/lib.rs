//! # odin-core
//!
//! The ODIN system (Figure 3 of the paper): automated drift detection
//! and recovery for video analytics.
//!
//! * [`encoder`] — the pluggable pixel→latent projection (DA-GAN per the
//!   paper, or a handcrafted-feature ablation),
//! * [`pipeline::Odin`] — the end-to-end system: DETECTOR assigns each
//!   frame to a latent cluster; on drift, SPECIALIZER trains a model for
//!   the new cluster; SELECTOR picks the model ensemble per frame,
//! * [`specializer`] — YoloSpecialized (oracle-trained) and YoloLite
//!   (teacher-distilled) model generation (§5.1–§5.2),
//! * [`selector`] — the KNN-U / KNN-W / Δ-BM selection policies (§5.3),
//! * [`recovery`] — the per-cluster recovery episode (collecting →
//!   training → installed or evicted): the half of [`pipeline::Odin`]
//!   between a drift and the model that answers it,
//! * [`training`] — SPECIALIZER scheduling: one trainer, run inline
//!   (deterministic default) or on background worker threads so the
//!   serving path never blocks on a training run,
//! * [`query`] / [`filter`] — aggregation queries and the lightweight
//!   per-cluster filters of §6.6 (ODIN-PP / ODIN-FILTER),
//! * [`metrics`] — windowed stream evaluation (Figure 9) and
//!   pipeline-stage counters,
//! * [`telemetry`] — the observability facade: deterministic counters,
//!   gauges, per-stage latency histograms, the drift timeline, and the
//!   structured event log ([`pipeline::Odin::telemetry`]),
//! * [`attic`] — the recurring-drift model attic: evicted clusters'
//!   signatures + models, LSH-matched on later drift so a returning
//!   regime reinstalls its cached model instead of retraining,
//! * [`store`] — crash-safe persistence glue: full-pipeline checkpoints
//!   ([`pipeline::Odin::checkpoint`] / [`pipeline::Odin::restore`]) and
//!   the drift-event WAL ([`pipeline::Odin::enable_store`]),
//! * [`server`] — multi-stream sharded serving: per-stream [`Odin`]
//!   shards (isolated drift state) behind one ingest front end with a
//!   shared model registry, shared trainer, admission control,
//!   and per-stream-labeled exposition ([`server::OdinServer`]).
//!
//! ## Quick example
//!
//! ```no_run
//! use odin_core::encoder::HistogramEncoder;
//! use odin_core::pipeline::{Odin, OdinConfig};
//! use odin_data::{DriftSchedule, SceneGen};
//! use odin_detect::Detector;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let teacher = Detector::heavy(48, &mut rng);
//! let mut odin = Odin::new(
//!     Box::new(HistogramEncoder::new()),
//!     teacher,
//!     OdinConfig::default(),
//!     0,
//! );
//! let gen = SceneGen::new(48);
//! let stream = DriftSchedule::paper_end_to_end(1000).generate(&gen, &mut rng);
//! for frame in &stream {
//!     let result = odin.process(frame);
//!     if let Some(event) = result.drift {
//!         println!("drift detected at frame {}", event.at);
//!     }
//! }
//! ```

#![warn(missing_docs)]

pub mod attic;
pub mod encoder;
pub mod filter;
pub mod metrics;
pub mod pipeline;
pub mod query;
pub mod recovery;
pub mod registry;
pub mod selector;
pub mod server;
pub mod specializer;
pub mod store;
pub mod telemetry;
pub mod training;

pub use attic::AtticConfig;
pub use encoder::{DaGanEncoder, EncoderSnapshot, HistogramEncoder, LatentEncoder};
pub use filter::BinaryFilter;
pub use metrics::{mean_map, PipelineStats, StreamEvaluator, WindowPoint};
pub use odin_log::{EventLogConfig, RetentionConfig};
pub use pipeline::{
    FrameResult, IngestOutcome, Odin, OdinConfig, OracleLabels, ServedBy, NS_STRIDE,
    QUANT_GATE_FRAMES, QUANT_MAP_DELTA,
};
pub use query::{count_accuracy, CountQuery};
pub use registry::{ClusterModel, ModelKind, ModelRegistry, ServePrecision, SharedRegistry};
pub use selector::{select, Selection, SelectionPolicy};
pub use server::{decode_ingest_frame, encode_ingest_frame, OdinServer, ServerConfig, SubmitError};
pub use specializer::{Specializer, SpecializerConfig};
pub use store::{
    CheckpointPolicy, EVENT_LOG_FILE, FLIGHT_FILE, SHARED_SNAPSHOT_FILE, SNAPSHOT_FILE,
    STREAMS_DIR, WAL_FILE,
};
pub use telemetry::Telemetry;
pub use training::{TrainJob, TrainedModel, Trainer, TrainingMode};
