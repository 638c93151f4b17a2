//! Drift recovery (§5, Algorithm 2): one [`Episode`] per promoted
//! cluster, from the drift that opened it to the model that closes it.
//!
//! A cluster that has no model yet is *in recovery*, and everything the
//! pipeline knows about that is one entry in one map
//! (`Odin::episodes`):
//!
//! ```text
//!   drift ──open──▶ Collecting(frames) ──enough frames──▶ Training(job)
//!                        │    ▲                                │
//!        attic hit ──────┤    └── frames assigned to           │ model arrives
//!        (reinstall)     │        the cluster                  ▼
//!                        └───────────────────────────────▶ install ──▶ closed
//!   cap eviction / replayed Evict / replayed Install ──────────────▶ closed
//! ```
//!
//! * **Open** — [`Odin::on_drift`], or a replayed `Drift` WAL record
//!   (empty buffer: frames are not in the WAL and refill from the
//!   stream).
//! * **Collect** — [`Odin::collect`] buffers frames DETECTOR assigns to
//!   the cluster until `min_train_frames` are in hand.
//! * **Train** — the buffer moves into an `Arc<TrainJob>` that the
//!   episode and the [`Trainer`](crate::training::Trainer) share: the
//!   episode keeps it for checkpoints (a restored pipeline resubmits it
//!   with its original seed) and for the install-time int8 gate.
//! * **Close** — installing a model (trained, or reinstalled from the
//!   attic), evicting the cluster, or replaying an `Install`/`Evict`
//!   record each remove the entry. A model that arrives for an evicted
//!   cluster finds neither cluster nor episode and is counted orphaned.
//!
//! The invariant replay and serving both keep: **a cluster without a
//! model has an episode.** "Is this cluster still waiting for a model"
//! is `episodes.contains_key`.
//!
//! The episode map persists as the tail of the checkpoint's FRAMES
//! section ([`persist_episodes`]); the layout predates this module
//! (three id-ordered lists: collecting buffers, retained jobs, trace
//! contexts) and is unchanged.

use std::collections::BTreeMap;
use std::sync::Arc;

use odin_data::Frame;
use odin_drift::{ClusterSignature, DriftEvent};
use odin_log::{LogRecord, RecordKind};
use odin_store::{Decoder, Encoder, StoreError};
use odin_telemetry::{Level, SpanCtx, TimelineStage, NO_PARENT};

use crate::pipeline::{Odin, OracleLabels, QUANT_GATE_FRAMES, QUANT_MAP_DELTA};
use crate::registry::{ClusterModel, ModelKind, ServePrecision};
use crate::store::{
    encode_archive, encode_attic_take, encode_drift, encode_evict, encode_install, persist_frames,
    persist_model_kind, restore_frames, restore_model_kind, WalEvent,
};
use crate::training::{TrainJob, TrainedModel};

/// Where a cluster's recovery stands.
pub(crate) enum Stage {
    /// Buffering the cluster's frames until there are enough to train.
    Collecting(Vec<Frame>),
    /// Handed to the trainer; the job (frames, seed, trace context) is
    /// retained until the model installs.
    Training(Arc<TrainJob>),
}

/// One cluster's open recovery arc.
pub(crate) struct Episode {
    /// Trace context of the `drift_detected` marker that opened the
    /// arc; training spans parent onto it, so one trace links detection
    /// → training → install. `None` when the episode was reopened by
    /// WAL replay (the marker died with the crashed process) — training
    /// then starts a fresh trace.
    pub ctx: Option<SpanCtx>,
    /// When the drift was detected, on this process's telemetry clock;
    /// closes into `odin_recovery_ms` at install. `None` for an episode
    /// this process did not see open (restored from a checkpoint, or
    /// reopened by WAL replay): the clock that timed its start is gone.
    pub opened_ms: Option<f64>,
    pub stage: Stage,
}

impl Episode {
    /// An episode picked up from a checkpoint or the WAL rather than
    /// opened by a live drift: no trace context yet, no start time ever.
    pub fn restored(stage: Stage) -> Self {
        Episode { ctx: None, opened_ms: None, stage }
    }

    /// The frames collected (or being trained on) so far.
    pub fn frames(&self) -> &[Frame] {
        match &self.stage {
            Stage::Collecting(frames) => frames,
            Stage::Training(job) => &job.frames,
        }
    }
}

/// Encodes the episode map in the FRAMES section's historical layout:
/// collecting buffers by id, retained jobs by id, trace contexts by id.
pub(crate) fn persist_episodes(episodes: &BTreeMap<usize, Episode>, enc: &mut Encoder) {
    let (mut collecting, mut training) = (Vec::new(), Vec::new());
    for (id, episode) in episodes {
        match &episode.stage {
            Stage::Collecting(frames) => collecting.push((*id, frames)),
            Stage::Training(job) => training.push((*id, job)),
        }
    }
    enc.put_usize(collecting.len());
    for (id, frames) in collecting {
        enc.put_usize(id);
        persist_frames(frames, enc);
    }
    enc.put_usize(training.len());
    for (id, job) in training {
        enc.put_usize(id);
        enc.put_u64(job.seed);
        persist_model_kind(job.kind, enc);
        persist_frames(&job.frames, enc);
        enc.put_u64(job.ctx.trace);
        enc.put_u64(job.ctx.parent);
    }
    let ctxs: Vec<_> = episodes.iter().filter_map(|(id, e)| e.ctx.map(|c| (*id, c))).collect();
    enc.put_usize(ctxs.len());
    for (id, ctx) in ctxs {
        enc.put_usize(id);
        enc.put_u64(ctx.trace);
        enc.put_u64(ctx.parent);
    }
}

/// Decodes [`persist_episodes`]. The three lists must describe one
/// map: a cluster in two stages, or a trace context for a cluster with
/// no episode, is malformed.
pub(crate) fn restore_episodes(
    dec: &mut Decoder<'_>,
) -> Result<BTreeMap<usize, Episode>, StoreError> {
    let mut episodes = BTreeMap::new();
    let mut open = |id, stage| match episodes.insert(id, Episode::restored(stage)) {
        None => Ok(()),
        Some(_) => Err(StoreError::Malformed { context: "cluster in two recovery stages" }),
    };
    for _ in 0..dec.take_usize("pending len")? {
        let id = dec.take_usize("pending id")?;
        open(id, Stage::Collecting(restore_frames(dec)?))?;
    }
    for _ in 0..dec.take_usize("inflight len")? {
        let cluster_id = dec.take_usize("inflight id")?;
        let seed = dec.take_u64("inflight seed")?;
        let kind = restore_model_kind(dec)?;
        let frames = restore_frames(dec)?;
        let trace = dec.take_u64("inflight ctx trace")?;
        let parent = dec.take_u64("inflight ctx parent")?;
        let ctx = SpanCtx { trace, parent };
        open(
            cluster_id,
            Stage::Training(Arc::new(TrainJob { cluster_id, seed, kind, frames, ctx })),
        )?;
    }
    for _ in 0..dec.take_usize("recovery len")? {
        let id = dec.take_usize("recovery id")?;
        let trace = dec.take_u64("recovery trace")?;
        let parent = dec.take_u64("recovery parent")?;
        let episode = episodes
            .get_mut(&id)
            .ok_or(StoreError::Malformed { context: "recovery ctx without an episode" })?;
        episode.ctx = Some(SpanCtx { trace, parent });
    }
    Ok(episodes)
}

impl Odin {
    /// Reacts to a promotion: opens the new cluster's episode (seeded
    /// with the temporary cluster's frames), retires the cluster the cap
    /// evicted to make room, and starts recovery — an attic reinstall
    /// when the regime is a returning one, training otherwise.
    pub(crate) fn on_drift(&mut self, event: DriftEvent, evicted: Option<usize>, ctx: SpanCtx) {
        self.telemetry.drift_events.inc();
        self.telemetry.record_timeline(TimelineStage::DriftDetected, event.cluster_id, event.at);
        // Each drift episode opens its own trace: later spans —
        // train_job_queued, the (possibly worker-side) train span,
        // and the install marker — all parent back onto this
        // drift_detected marker, even across threads or a
        // checkpoint restore.
        let trace = self.telemetry.new_trace();
        let marker = self.telemetry.instant(
            "drift_detected",
            SpanCtx { trace, parent: NO_PARENT },
            event.cluster_id as i64,
            event.at as i64,
        );
        let rctx = SpanCtx { trace, parent: marker };
        // Log the promotion (with the full new-cluster state) before
        // any consequence of it, mirroring the live apply order.
        if self.store.is_some() {
            let payload = self.manager.cluster(event.cluster_id).map(|c| encode_drift(event, c));
            if let Some(p) = payload {
                self.wal_append(&p, rctx);
            }
        }
        // The drift record opens the episode in the event log under
        // the recovery trace, before any of its consequences
        // (train_queued, install, eviction) are logged.
        self.log_event(LogRecord {
            kind: RecordKind::DriftDetected,
            frame: event.at as u64,
            cluster: event.cluster_id as i64,
            trace: rctx.trace,
            ..LogRecord::empty()
        });
        let seed_frames = std::mem::take(&mut self.temp_frames);
        self.episodes.insert(
            event.cluster_id,
            Episode {
                ctx: Some(rctx),
                opened_ms: Some(self.telemetry.registry().now_ms()),
                stage: Stage::Collecting(seed_frames),
            },
        );
        // Handle the cap eviction this promotion forced *before*
        // scheduling recovery for the new cluster: the evicted
        // model lands in the attic first, so a regime displaced by
        // its own return is still reinstallable (and the WAL's
        // Archive → Install order matches the live probe order).
        if let Some(evicted) = evicted {
            self.evict(evicted, ctx);
        }
        if !self.try_reinstall_from_attic(event.cluster_id, rctx) {
            self.try_train(event.cluster_id);
        }
        // Preserve the spans and events leading up to the drift: when
        // a store is attached, dump the flight recorder next to the WAL
        // — from the snapshot writer's thread, where rendering and
        // writing it cost this frame nothing.
        if let Some(store) = &self.store {
            store.writer.submit_flight_dump();
        }
    }

    /// Retires a cap-evicted cluster: its model moves to the attic (when
    /// enabled), the eviction is logged, and its episode — if it was
    /// still in recovery — is closed.
    fn evict(&mut self, evicted: usize, ctx: SpanCtx) {
        self.telemetry.evictions.inc();
        self.telemetry.record_timeline(TimelineStage::ClusterEvicted, evicted, self.manager.seen());
        let model = self.registry.write().remove(self.gid(evicted));
        let dropped = self.manager.take_evicted();
        if self.cfg.attic.enabled {
            if let (Some(model), Some(cluster)) = (model, dropped.as_ref()) {
                // Archive before the eviction becomes durable:
                // a crash between the two WAL appends replays
                // into "archived, not yet evicted" — the model
                // is never lost.
                let signature = ClusterSignature::from_cluster(cluster);
                let quantized = model.precision() == ServePrecision::Int8;
                if self.store.is_some() {
                    let p =
                        encode_archive(evicted, &signature, model.kind, &model.detector, quantized);
                    self.wal_append(&p, ctx);
                }
                let lru =
                    self.attic.archive(evicted, signature, model.kind, model.detector, quantized);
                self.telemetry.attic_archived.inc();
                self.telemetry.attic_evicted.add(lru as u64);
            }
        }
        if self.store.is_some() {
            let p = encode_evict(evicted);
            self.wal_append(&p, ctx);
        }
        // A queued-but-not-started background job for the
        // evicted cluster would only burn a worker on a model
        // nobody can serve; tombstone it so the trainer discards
        // it at dequeue (counted in
        // `odin_train_cancelled_total`). A job already running
        // finishes and is dropped by the orphan path instead.
        if let Some(Episode { stage: Stage::Training(_), .. }) = self.episodes.remove(&evicted) {
            self.trainer.cancel(self.stream(), evicted);
        }
        self.log_event(LogRecord {
            kind: RecordKind::ClusterEvicted,
            frame: self.manager.seen() as u64,
            cluster: evicted as i64,
            trace: ctx.trace,
            ..LogRecord::empty()
        });
    }

    /// Buffers a frame DETECTOR assigned to `cluster_id` while the
    /// cluster is still collecting training data, and trains once there
    /// is enough.
    pub(crate) fn collect(&mut self, cluster_id: usize, frame: &Frame) {
        let Some(Episode { stage: Stage::Collecting(buf), .. }) =
            self.episodes.get_mut(&cluster_id)
        else {
            return;
        };
        if buf.len() < self.cfg.buffer_cap {
            buf.push(frame.clone());
        }
        self.try_train(cluster_id);
    }

    /// Hands a cluster's buffer to the trainer once it has accumulated
    /// enough frames (Algorithm 2's `GenerateNewModel`, gated on data
    /// sufficiency).
    fn try_train(&mut self, cluster_id: usize) {
        let min_frames = self.cfg.min_train_frames.max(1);
        let (frames, marker) = match self.episodes.get_mut(&cluster_id) {
            Some(Episode { ctx, stage: Stage::Collecting(buf), .. }) if buf.len() >= min_frames => {
                (std::mem::take(buf), *ctx)
            }
            _ => return,
        };
        self.model_seq += 1;
        let seed = self.seed.wrapping_add(self.model_seq * 7919);
        let kind = match self.cfg.oracle {
            OracleLabels::Immediate => ModelKind::Specialized,
            OracleLabels::Never => ModelKind::Lite,
        };
        self.stats.jobs_submitted += 1;
        self.telemetry.jobs_submitted.inc();
        self.telemetry.record_timeline(
            TimelineStage::TrainJobQueued,
            cluster_id,
            self.manager.seen(),
        );
        // Continue the cluster's drift episode (or open a fresh trace
        // if the episode has no marker: reopened by WAL replay, or
        // restored from a pre-tracing checkpoint).
        let rctx = marker
            .unwrap_or_else(|| SpanCtx { trace: self.telemetry.new_trace(), parent: NO_PARENT });
        let queued = self.telemetry.instant(
            "train_job_queued",
            rctx,
            cluster_id as i64,
            self.manager.seen() as i64,
        );
        self.log_event(LogRecord {
            kind: RecordKind::TrainQueued,
            frame: self.manager.seen() as u64,
            cluster: cluster_id as i64,
            trace: rctx.trace,
            ..LogRecord::empty()
        });
        let ctx = SpanCtx { trace: rctx.trace, parent: queued };
        let job = Arc::new(TrainJob { cluster_id, seed, kind, frames, ctx });
        if let Some(episode) = self.episodes.get_mut(&cluster_id) {
            episode.stage = Stage::Training(Arc::clone(&job));
        }
        if let Some(done) = self.trainer.submit(self.stream(), job, &self.telemetry) {
            self.install(done);
        }
    }

    /// On drift, probes the attic for an archived model whose signature
    /// matches the promoted cluster's centroid. On a hit the cached
    /// model is reinstalled through the normal install gate (re-deriving
    /// int8 serving under [`ServePrecision::Int8`]) instead of queueing
    /// a train job — recovery latency collapses from a SPECIALIZER run
    /// to a registry insert. Returns true when it reinstalled.
    fn try_reinstall_from_attic(&mut self, cluster_id: usize, rctx: SpanCtx) -> bool {
        if !self.cfg.attic.enabled || self.attic.is_empty() {
            return false;
        }
        let hit = self.manager.cluster(cluster_id).and_then(|c| self.attic.lookup(c.centroid()));
        let Some((idx, dist)) = hit else {
            self.telemetry.attic_misses.inc();
            return false;
        };
        let entry = self.attic.take(idx);
        self.telemetry.attic_hits.inc();
        if self.store.is_some() {
            // The take precedes the Install record in the WAL so replay
            // consumes the same entry the live probe did.
            let p = encode_attic_take(entry.cluster_id);
            self.wal_append(&p, rctx);
        }
        // The attic-hit marker stands where train_job_queued + train
        // would: same trace, so the arc reads
        // drift_detected → attic_hit → install.
        let marker = self.telemetry.instant(
            "attic_hit",
            rctx,
            cluster_id as i64,
            self.manager.seen() as i64,
        );
        self.log_event(LogRecord {
            kind: RecordKind::AtticHit,
            frame: self.manager.seen() as u64,
            cluster: cluster_id as i64,
            trace: rctx.trace,
            ..LogRecord::empty()
        });
        self.telemetry.event(
            Level::Info,
            "attic",
            format!(
                "cluster {cluster_id}: reinstalling archived model of evicted cluster {} \
                 (centroid distance {dist:.3})",
                entry.cluster_id
            ),
        );
        self.install(TrainedModel {
            cluster_id,
            detector: entry.detector,
            kind: entry.kind,
            wall_ms: 0.0,
            ctx: SpanCtx { trace: rctx.trace, parent: marker },
        });
        true
    }

    /// Closes the cluster's episode by installing `model`, unless the
    /// cluster was evicted while the model was training. Under
    /// [`ServePrecision::Int8`] the model is quantized here — once, at
    /// install time — and the swap is gated on an mAP-delta check over
    /// the episode's frames (what the model trained on, or what the
    /// cluster had collected when the attic answered); a failed gate
    /// falls back to f32 serving.
    fn install(&mut self, model: TrainedModel) {
        let episode = self.episodes.remove(&model.cluster_id);
        self.stats.train_wall_ms += model.wall_ms;
        self.telemetry.stage_train.observe_ms(model.wall_ms);
        if self.manager.cluster(model.cluster_id).is_none() {
            // Evicted mid-training: there is no cluster left to serve.
            // Close the recovery arc with a terminal marker on the same
            // trace instead of vanishing silently, and count the wasted
            // training run.
            self.telemetry.train_orphaned.inc();
            self.telemetry.instant(
                "train_orphaned",
                model.ctx,
                model.cluster_id as i64,
                self.manager.seen() as i64,
            );
            self.log_event(LogRecord {
                kind: RecordKind::TrainOrphaned,
                frame: self.manager.seen() as u64,
                cluster: model.cluster_id as i64,
                latency_us: (model.wall_ms * 1000.0).round() as u64,
                trace: model.ctx.trace,
                ..LogRecord::empty()
            });
            return;
        }
        let mut cm = ClusterModel::new(model.detector, model.kind);
        if self.cfg.precision == ServePrecision::Int8 {
            let gate = episode.as_ref().map_or(&[][..], Episode::frames);
            self.quantize_gated(&mut cm, model.cluster_id, gate);
        }
        if self.store.is_some() {
            let quantized = cm.precision() == ServePrecision::Int8;
            let p = encode_install(model.cluster_id, model.kind, &cm.detector, quantized);
            self.wal_append(&p, model.ctx);
        }
        let (counter, stage) = match model.kind {
            ModelKind::Lite => (&self.telemetry.models_lite, TimelineStage::LiteInstalled),
            ModelKind::Specialized => {
                (&self.telemetry.models_specialized, TimelineStage::SpecializedInstalled)
            }
        };
        counter.inc();
        self.telemetry.record_timeline(stage, model.cluster_id, self.manager.seen());
        // Close the recovery arc: the install marker parents onto the
        // train span (possibly recorded on a worker thread), completing
        // drift_detected → train_job_queued → train → install in one
        // trace.
        self.telemetry.instant(
            "install",
            model.ctx,
            model.cluster_id as i64,
            self.manager.seen() as i64,
        );
        // Close the episode in the event log too: same trace as the
        // drift/queued records, train wall time as the latency field.
        self.log_event(LogRecord {
            kind: RecordKind::ModelInstalled,
            frame: self.manager.seen() as u64,
            cluster: model.cluster_id as i64,
            latency_us: (model.wall_ms * 1000.0).round() as u64,
            trace: model.ctx.trace,
            ..LogRecord::empty()
        });
        self.registry.write().insert(self.gid(model.cluster_id), cm);
        self.stats.models_installed += 1;
        if let Some(opened_ms) = episode.and_then(|e| e.opened_ms) {
            self.telemetry.recovery.observe_ms(self.telemetry.registry().now_ms() - opened_ms);
        }
    }

    /// Attempts int8 quantization of a freshly trained model, gated on
    /// an mAP-delta check over up to [`QUANT_GATE_FRAMES`] of `gate`.
    /// On a failed gate the model reverts to f32 and the fallback is
    /// counted in `odin_quant_fallback_total`. With no gate frames the
    /// quantization is accepted ungated (quantization is deterministic
    /// and the delta bound holds in expectation).
    fn quantize_gated(&mut self, cm: &mut ClusterModel, cluster_id: usize, gate: &[Frame]) {
        if cm.quantize() != ServePrecision::Int8 {
            return; // architecture not quantizable; keep serving f32
        }
        if gate.is_empty() {
            return;
        }
        let eval = &gate[..gate.len().min(QUANT_GATE_FRAMES)];
        let q_map = cm.quant.as_ref().expect("quantized above").evaluate_map(eval);
        let f_map = cm.detector.evaluate_map(eval);
        if q_map + QUANT_MAP_DELTA < f_map {
            cm.quant = None;
            self.telemetry.quant_fallback.inc();
            self.telemetry.event(
                Level::Warn,
                "quant",
                format!(
                    "cluster {cluster_id}: int8 mAP {q_map:.3} more than \
                     {QUANT_MAP_DELTA} below f32 mAP {f_map:.3}; serving f32"
                ),
            );
        }
    }

    /// Lands every background-trained model that has finished, without
    /// blocking. Called at frame boundaries. On a shared trainer this
    /// drains only this shard's models.
    pub(crate) fn install_completed(&mut self) {
        for m in self.trainer.drain(self.stream()) {
            self.install(m);
        }
    }

    /// Blocks until every queued and in-flight background training job
    /// this pipeline submitted has finished, then installs the results.
    /// No-op under [`TrainingMode::Inline`](crate::training::TrainingMode).
    /// After this returns, the registry state matches what inline
    /// training would have produced.
    pub fn finish_training(&mut self) {
        for m in self.trainer.drain_barrier(self.stream()) {
            self.install(m);
        }
    }

    /// Re-schedules the training jobs a restored checkpoint carried and
    /// WAL replay did not close — the last step of a restore. Their
    /// original seeds are reused, so the resulting weights are
    /// bit-identical to what the checkpointed process would have
    /// produced; `jobs_submitted` is *not* re-incremented (the original
    /// submission already counted).
    pub(crate) fn resubmit_training(&mut self) {
        let jobs: Vec<Arc<TrainJob>> = self
            .episodes
            .values()
            .filter_map(|e| match &e.stage {
                Stage::Training(job) => Some(Arc::clone(job)),
                Stage::Collecting(_) => None,
            })
            .collect();
        for job in jobs {
            if let Some(done) = self.trainer.submit(self.stream(), job, &self.telemetry) {
                self.install(done);
            }
        }
    }

    /// Applies one replayed WAL record. Replay converges the *learned*
    /// state (clusters and models) to what the crashed process had;
    /// seq-ordering in the WAL reproduces the live apply order. It keeps
    /// the episode invariant too: a replayed `Drift` leaves a cluster
    /// without a model, so it reopens the episode — empty, because
    /// frames are not in the WAL — and the cluster collects and trains
    /// again instead of being stranded on the teacher.
    pub(crate) fn apply_wal_event(&mut self, event: WalEvent) {
        match event {
            WalEvent::Drift { event, cluster } => {
                self.manager.apply_promotion(cluster, event.at);
                // As live `on_drift` does: the snapshot's temporary-
                // cluster frames are this regime's first. Left behind
                // they would seed the next promotion — another regime.
                let seed_frames = std::mem::take(&mut self.temp_frames);
                self.episodes
                    .insert(event.cluster_id, Episode::restored(Stage::Collecting(seed_frames)));
            }
            WalEvent::Evict { cluster_id } => {
                self.manager.apply_eviction(cluster_id);
                self.registry.write().remove(self.gid(cluster_id));
                self.episodes.remove(&cluster_id);
            }
            WalEvent::Install { cluster_id, kind, detector, quantized } => {
                if self.manager.cluster(cluster_id).is_some() {
                    let mut cm = ClusterModel::new(detector, kind);
                    if quantized {
                        cm.quantize();
                    }
                    self.registry.write().insert(self.gid(cluster_id), cm);
                    self.episodes.remove(&cluster_id);
                }
            }
            WalEvent::Archive { cluster_id, signature, kind, detector, quantized } => {
                // Replay convention: converge state, never re-count
                // telemetry (the live counters are in the snapshot).
                self.attic.archive(cluster_id, signature, kind, detector, quantized);
            }
            WalEvent::AtticTake { source_id } => {
                self.attic.take_by_source(source_id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attic::AtticConfig;
    use crate::encoder::HistogramEncoder;
    use crate::pipeline::OdinConfig;
    use crate::specializer::SpecializerConfig;
    use crate::training::TrainingMode;
    use odin_data::{SceneGen, Subset};
    use odin_detect::{Detector, DetectorArch};
    use odin_drift::Cluster;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Frames a cluster must collect before it trains, in the harness.
    const MIN_FRAMES: usize = 2;

    /// An episode without its trace ids: cluster, is it training, how
    /// many frames, does it have a context.
    type EpisodeShape = (usize, bool, usize, bool);

    /// One of the two newest of `ids` (non-empty).
    fn newest(ids: &[usize], i: usize) -> usize {
        ids[ids.len() - 1 - (i % 2).min(ids.len() - 1)]
    }

    /// A real `Odin` driven event by event, past DETECTOR: promotions
    /// and evictions are applied to the cluster manager the way WAL
    /// replay applies them, then handed to the recovery half exactly as
    /// `ingest_with_latent` would.
    struct Harness {
        odin: Odin,
        frame: Frame,
        /// Every cluster id ever promoted (evicted ones included).
        promoted: Vec<usize>,
        scratch: std::path::PathBuf,
    }

    impl Harness {
        fn new(training: TrainingMode) -> Self {
            let cfg = OdinConfig {
                specializer: SpecializerConfig {
                    arch: DetectorArch::Small,
                    frame_size: 48,
                    train_iters: 1,
                    distill_iters: 1,
                    batch_size: 2,
                },
                min_train_frames: MIN_FRAMES,
                training,
                attic: AtticConfig::enabled(),
                ..OdinConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(0);
            let teacher = Detector::small(48, &mut rng);
            let odin = Odin::new(Box::new(HistogramEncoder::new()), teacher, cfg, 42);
            odin.telemetry.clear_sinks();
            let frame = SceneGen::new(48).subset_frames(&mut rng, Subset::Day, 1).remove(0);
            let scratch = std::env::temp_dir()
                .join(format!("odin-episodes-{}-{training:?}.odst", std::process::id()));
            Harness { odin, frame, promoted: Vec::new(), scratch }
        }

        fn live(&self) -> Vec<usize> {
            self.odin.manager.clusters().iter().map(|c| c.id()).collect()
        }

        /// Promotes a fresh cluster — seeded with one temporary-cluster
        /// frame when `seeded` — optionally evicting one of the newest
        /// live clusters (the ones most likely still in recovery) to
        /// "make room", optionally with a matching model waiting in the
        /// attic (a returning regime).
        fn drift(&mut self, seeded: bool, evict: Option<usize>, in_attic: bool) {
            let id = self.promoted.len();
            let at = self.odin.manager.seen();
            let cluster = Cluster::from_points(id, vec![vec![id as f32 * 10.0; 4]], 0.75, 8);
            if in_attic {
                let detector = Detector::small(48, &mut StdRng::seed_from_u64(id as u64));
                let signature = ClusterSignature::from_cluster(&cluster);
                self.odin.attic.archive(1000 + id, signature, ModelKind::Lite, detector, false);
            }
            let live = self.live();
            let victim = evict.filter(|_| !live.is_empty()).map(|i| newest(&live, i));
            self.odin.manager.apply_promotion(cluster, at);
            if let Some(v) = victim {
                self.odin.manager.apply_eviction(v);
            }
            self.promoted.push(id);
            if seeded {
                self.odin.temp_frames.push(self.frame.clone());
            }
            let ctx = SpanCtx { trace: 1, parent: NO_PARENT };
            self.odin.on_drift(DriftEvent { cluster_id: id, at }, victim, ctx);
        }

        fn apply(&mut self, (kind, arg): (u8, usize)) {
            match kind {
                0 => self.drift(arg % 2 == 1, None, false),
                1 | 2 => self.drift(arg % 2 == 1, Some(arg / 2), false),
                3 => self.drift(arg % 2 == 1, None, true),
                // A frame for a cluster: usually one of the two newest
                // (collecting or training), sometimes any ever promoted
                // (installed, or long evicted).
                4..=7 if !self.promoted.is_empty() => {
                    let n = self.promoted.len();
                    let id = if arg < 6 { newest(&self.promoted, arg) } else { arg % n };
                    let frame = self.frame.clone();
                    self.odin.collect(id, &frame);
                }
                // Models arrive — including ones whose cluster was
                // evicted while they trained.
                8 => self.odin.finish_training(),
                9 => {
                    self.odin.checkpoint(&self.scratch).expect("checkpoint");
                    self.odin = Odin::restore(&self.scratch).expect("restore");
                    self.odin.telemetry.clear_sinks();
                }
                _ => {}
            }
        }

        fn check(&self) {
            let live = self.live();
            for id in &self.promoted {
                let has_episode = self.odin.episodes.contains_key(id);
                if live.contains(id) {
                    // The replay invariant, and its converse.
                    let has_model = self.odin.model_kind(*id).is_some();
                    assert!(
                        has_model != has_episode,
                        "cluster {id}: model {has_model}, episode {has_episode}"
                    );
                } else {
                    assert!(!has_episode, "evicted cluster {id} kept its episode");
                }
            }
            // encode → decode → encode is byte-stable. Decoding rejects a
            // cluster listed in two stages, so it succeeding is also the
            // "at most one stage" check on the encoded form.
            let mut enc = Encoder::new();
            persist_episodes(&self.odin.episodes, &mut enc);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            let decoded = restore_episodes(&mut dec).expect("decode what was just encoded");
            dec.finish("episodes").expect("no trailing bytes");
            let mut enc = Encoder::new();
            persist_episodes(&decoded, &mut enc);
            assert_eq!(enc.into_bytes(), bytes);
        }

        /// The episode map and the installed models, without the trace
        /// ids (a worker allocates its span id whenever it gets to the
        /// job, so ids — and only ids — differ between modes).
        fn summary(&self) -> (Vec<EpisodeShape>, Vec<usize>) {
            let episodes = self
                .odin
                .episodes
                .iter()
                .map(|(id, e)| {
                    let training = matches!(e.stage, Stage::Training(_));
                    (*id, training, e.frames().len(), e.ctx.is_some())
                })
                .collect();
            (episodes, self.odin.model_ids())
        }
    }

    impl Drop for Harness {
        fn drop(&mut self) {
            std::fs::remove_file(&self.scratch).ok();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random walks over {drift, drift+evict, attic hit, frame for a
        /// cluster, models arrive, checkpoint→restore}: the invariants
        /// hold after every step in both training modes, and once
        /// training has finished the two modes are in the same state.
        #[test]
        fn episode_machine_invariants(
            ops in prop::collection::vec((0u8..10, 0usize..8), 1..32),
        ) {
            let mut inline = Harness::new(TrainingMode::Inline);
            let mut background = Harness::new(TrainingMode::Background { workers: 1 });
            for op in ops {
                inline.apply(op);
                background.apply(op);
                inline.check();
                background.check();
                // Inline never leaves a job behind.
                prop_assert!(inline.summary().0.iter().all(|(_, training, ..)| !training));
            }
            inline.odin.finish_training();
            background.odin.finish_training();
            background.check();
            prop_assert_eq!(inline.summary(), background.summary());
        }
    }

    /// A `Drift` replayed over a snapshot taken while the regime's first
    /// frames sat in the temporary cluster hands them to the episode it
    /// opens, as the live promotion did.
    #[test]
    fn replayed_drift_seeds_its_episode_with_the_restored_temp_frames() {
        let mut h = Harness::new(TrainingMode::Inline);
        h.odin.temp_frames = vec![h.frame.clone(); 3];
        let cluster = Cluster::from_points(0, vec![vec![0.0; 4]], 0.75, 8);
        let event = DriftEvent { cluster_id: 0, at: h.odin.manager.seen() };
        h.odin.apply_wal_event(WalEvent::Drift { event, cluster });
        assert!(h.odin.temp_frames.is_empty(), "replay stranded the temporary-cluster frames");
        assert_eq!(h.odin.episodes[&0].frames().len(), 3);
    }

    /// The FRAMES tail written before there was an `Episode` type: three
    /// lists. A hand-assembled one decodes into one map and re-encodes
    /// to the same bytes; one that puts a cluster in two stages, or
    /// names a trace context for no episode, is rejected.
    #[test]
    fn historical_layout_decodes_and_inconsistent_lists_are_rejected() {
        let frame = SceneGen::new(48)
            .subset_frames(&mut StdRng::seed_from_u64(3), Subset::Night, 1)
            .remove(0);
        let encode = |pending: &[usize], inflight: &[usize], recovery: &[usize]| {
            let mut enc = Encoder::new();
            enc.put_usize(pending.len());
            for id in pending {
                enc.put_usize(*id);
                persist_frames(std::slice::from_ref(&frame), &mut enc);
            }
            enc.put_usize(inflight.len());
            for id in inflight {
                enc.put_usize(*id);
                enc.put_u64(77);
                persist_model_kind(ModelKind::Lite, &mut enc);
                persist_frames(&[frame.clone(), frame.clone()], &mut enc);
                enc.put_u64(5);
                enc.put_u64(6);
            }
            enc.put_usize(recovery.len());
            for id in recovery {
                enc.put_usize(*id);
                enc.put_u64(5);
                enc.put_u64(4);
            }
            enc.into_bytes()
        };
        let bytes = encode(&[1, 4], &[2], &[2, 4]);
        let episodes = restore_episodes(&mut Decoder::new(&bytes)).expect("consistent lists");
        assert_eq!(episodes.keys().copied().collect::<Vec<_>>(), vec![1, 2, 4]);
        assert!(episodes[&1].ctx.is_none() && episodes[&4].ctx.is_some());
        let Stage::Training(job) = &episodes[&2].stage else { panic!("2 was in flight") };
        assert_eq!((job.cluster_id, job.seed, job.frames.len()), (2, 77, 2));
        let mut enc = Encoder::new();
        persist_episodes(&episodes, &mut enc);
        assert_eq!(enc.into_bytes(), bytes);

        assert!(restore_episodes(&mut Decoder::new(&encode(&[1], &[1], &[]))).is_err());
        assert!(restore_episodes(&mut Decoder::new(&encode(&[1], &[], &[3]))).is_err());
    }
}
