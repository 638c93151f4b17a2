//! SPECIALIZER scheduling — one [`Trainer`], with or without worker
//! threads.
//!
//! The paper's SPECIALIZER "generates a new model" whenever DETECTOR
//! promotes a cluster (Algorithm 2). Training a detector takes orders of
//! magnitude longer than serving a frame, so doing it on the serving
//! thread stalls the stream for the whole training run. There is one
//! way to train — `run_job` — and [`TrainingMode`] only decides which
//! thread calls it:
//!
//! * [`TrainingMode::Inline`] is a [`Trainer`] with no worker threads:
//!   [`Trainer::submit`] runs the job on the caller and hands the model
//!   straight back. Fully deterministic — every paper-table harness
//!   uses it, and it is the default.
//! * [`TrainingMode::Background`] gives the [`Trainer`] worker threads
//!   fed over a channel. `submit` returns at once; finished models are
//!   banked per submitting stream and collected at frame boundaries
//!   ([`Trainer::drain`]), and frames for a still-training cluster are
//!   served by the teacher or by nearby clusters' models meanwhile.
//!
//! A multi-stream server shares one `Trainer` between all its shards
//! (a drift burst on one camera borrows the whole training capacity); a
//! standalone pipeline is the one-stream case of the same type. Every
//! submission names the submitting stream and carries that shard's
//! [`Telemetry`], so the `train` span, the training wall time and the
//! cancellation count land in the submitter's own registry whichever
//! thread did the work.
//!
//! Because each job carries its own seed (derived from the submission
//! sequence number), the models background workers produce are
//! bit-identical to the ones inline training would have built — only
//! *when* they become servable differs.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use odin_data::Frame;
use odin_detect::Detector;
use odin_telemetry::SpanCtx;
use parking_lot::Mutex;

use crate::registry::ModelKind;
use crate::specializer::Specializer;
use crate::telemetry::Telemetry;

/// How SPECIALIZER schedules training work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrainingMode {
    /// Train on the calling thread inside `process`. Deterministic
    /// frame-by-frame; the default, and what the paper-table harnesses
    /// use.
    #[default]
    Inline,
    /// Train on `workers` background threads (at least one). `process`
    /// never trains on the calling thread; call
    /// `Odin::finish_training` to wait for stragglers.
    Background {
        /// Worker-thread count; clamped to at least 1.
        workers: usize,
    },
}

/// One unit of SPECIALIZER work: build a model of `kind` for
/// `cluster_id` from `frames`, seeding all randomness from `seed`.
/// Shared (`Arc`) between the cluster's recovery episode — which keeps
/// it for checkpoints and the install-time int8 gate — and the worker
/// that trains from it, so the frames exist once.
#[derive(Debug)]
pub struct TrainJob {
    /// The promoted cluster the model will serve.
    pub cluster_id: usize,
    /// RNG seed — carried in the job so Inline and Background modes
    /// build identical models.
    pub seed: u64,
    /// Specialized (oracle labels) or Lite (teacher distillation).
    pub kind: ModelKind,
    /// The cluster's accumulated training frames.
    pub frames: Vec<Frame>,
    /// Trace context the job was submitted under: the `train` span
    /// parents onto the submitter's `train_job_queued` marker, so one
    /// trace links drift detection to the trained model across the
    /// thread hop (and across a checkpoint restore).
    pub ctx: SpanCtx,
}

/// A trained model, ready for registry installation.
pub struct TrainedModel {
    /// The cluster the model was built for.
    pub cluster_id: usize,
    /// The trained detector.
    pub detector: Detector,
    /// Specialized or Lite.
    pub kind: ModelKind,
    /// Wall-clock the training run took, in milliseconds.
    pub wall_ms: f64,
    /// Trace context for the install: same trace as the submitting
    /// recovery arc, parented on the `train` span.
    pub ctx: SpanCtx,
}

/// Trains one job — the only caller of the [`Specializer`]'s builders.
/// Opens a `train` span from [`TrainJob::ctx`] in `telemetry` (the
/// submitting pipeline's, whichever thread runs this), measures wall
/// time against that telemetry's clock, and threads a child context
/// into the [`TrainedModel`] for the install marker.
fn run_job(
    specializer: &Specializer,
    teacher: &Detector,
    telemetry: &Telemetry,
    job: &TrainJob,
) -> TrainedModel {
    let mut span = telemetry.span("train", job.ctx);
    span.set_cluster(job.cluster_id);
    let detector = match job.kind {
        ModelKind::Specialized => specializer.build_specialized(job.seed, &job.frames),
        ModelKind::Lite => specializer.build_lite(job.seed, teacher, &job.frames),
    };
    let ctx = span.child_ctx();
    let wall_ms = span.close();
    TrainedModel { cluster_id: job.cluster_id, detector, kind: job.kind, wall_ms, ctx }
}

/// A job on its way to a worker: who asked, in which of the stream's
/// epochs, and where to record.
#[derive(Debug)]
struct Queued {
    stream: usize,
    epoch: u64,
    job: Arc<TrainJob>,
    telemetry: Telemetry,
}

/// What a worker sends back per dequeued job: the submitting stream and
/// epoch, and the model — or `None` when the job was discarded at
/// dequeue ([`Ledger::discard`]). Discarded jobs still flow back so the
/// per-stream outstanding count (and the drain barrier) stays exact.
type Settled = (usize, u64, Option<TrainedModel>);

/// What the workers consult before training a dequeued job.
#[derive(Default)]
struct Ledger {
    /// Per stream, how many times its shard was restored in place
    /// ([`Trainer::restart_stream`]); absent is epoch 0. A job or a
    /// result from an earlier epoch belongs to a shard that is gone.
    epochs: BTreeMap<usize, u64>,
    /// Jobs tombstoned by [`Trainer::cancel`], as `(stream, epoch,
    /// cluster_id)`. Within an epoch cluster ids are never reused, so a
    /// tombstone that arrives after its job already started is inert.
    cancelled: BTreeSet<(usize, u64, usize)>,
}

impl Ledger {
    fn epoch(&self, stream: usize) -> u64 {
        self.epochs.get(&stream).copied().unwrap_or(0)
    }

    /// Whether a dequeued job is not worth a training run: its cluster
    /// was evicted, or its shard was restored since it was submitted.
    fn discard(&mut self, q: &Queued) -> bool {
        self.cancelled.remove(&(q.stream, q.epoch, q.job.cluster_id))
            || q.epoch != self.epoch(q.stream)
    }
}

/// The receiving half: results not yet handed to their shard.
struct Inbox {
    results: Receiver<Settled>,
    /// Finished models banked per stream until that shard drains.
    ready: BTreeMap<usize, Vec<TrainedModel>>,
    /// Submitted-but-unsettled jobs per stream.
    outstanding: BTreeMap<usize, usize>,
}

impl Inbox {
    /// Settles one job, banking its model unless `ledger` says the
    /// stream has moved to a later epoch since it was submitted.
    fn bank(&mut self, (stream, epoch, model): Settled, ledger: &Mutex<Ledger>) {
        if let Some(n) = self.outstanding.get_mut(&stream) {
            *n = n.saturating_sub(1);
        }
        if let Some(m) = model.filter(|_| epoch == ledger.lock().epoch(stream)) {
            self.ready.entry(stream).or_default().push(m);
        }
    }
}

/// SPECIALIZER's executor: zero worker threads ([`TrainingMode::Inline`])
/// or a pool of them ([`TrainingMode::Background`]), serving one
/// pipeline or every shard of a server.
///
/// Jobs flow worker-ward through an unbounded MPMC channel; settled
/// jobs flow back through a second one and are banked per submitting
/// stream, so a shard only ever sees its own models. Counters are
/// monotone (`submitted >= started >= finished`), so queue depth and
/// in-flight counts are snapshots computed from their differences.
pub struct Trainer {
    specializer: Specializer,
    teacher: Arc<Detector>,
    /// `None` when there are no workers (and, transiently, during drop:
    /// taking it closes the channel so workers exit their recv loop).
    jobs: Option<Sender<Queued>>,
    workers: Vec<JoinHandle<()>>,
    submitted: AtomicUsize,
    started: Arc<AtomicUsize>,
    finished: Arc<AtomicUsize>,
    ledger: Arc<Mutex<Ledger>>,
    inbox: Mutex<Inbox>,
}

impl Trainer {
    /// Builds the trainer `mode` asks for: no threads for `Inline`,
    /// `workers` (at least 1) for `Background`. Models are built with
    /// `specializer`, distilling from `teacher` for Lite jobs.
    pub fn new(mode: TrainingMode, specializer: Specializer, teacher: Arc<Detector>) -> Arc<Self> {
        let workers = match mode {
            TrainingMode::Inline => 0,
            TrainingMode::Background { workers } => workers.max(1),
        };
        let (job_tx, job_rx) = unbounded::<Queued>();
        let (res_tx, res_rx) = unbounded::<Settled>();
        let started = Arc::new(AtomicUsize::new(0));
        let finished = Arc::new(AtomicUsize::new(0));
        let ledger = Arc::new(Mutex::new(Ledger::default()));
        let handles = (0..workers)
            .map(|_| {
                let rx = job_rx.clone();
                let tx = res_tx.clone();
                let teacher = Arc::clone(&teacher);
                let started = Arc::clone(&started);
                let finished = Arc::clone(&finished);
                let ledger = Arc::clone(&ledger);
                std::thread::spawn(move || {
                    while let Ok(q) = rx.recv() {
                        started.fetch_add(1, Ordering::SeqCst);
                        let discard = ledger.lock().discard(&q);
                        let model = if discard {
                            // The cluster or the shard this model would
                            // serve is gone. Discard the job without
                            // burning a training run.
                            q.telemetry.train_cancelled.inc();
                            None
                        } else {
                            Some(run_job(&specializer, &teacher, &q.telemetry, &q.job))
                        };
                        finished.fetch_add(1, Ordering::SeqCst);
                        if tx.send((q.stream, q.epoch, model)).is_err() {
                            break; // trainer dropped; nobody wants results
                        }
                    }
                })
            })
            .collect();
        Arc::new(Trainer {
            specializer,
            teacher,
            jobs: (workers > 0).then_some(job_tx),
            workers: handles,
            submitted: AtomicUsize::new(0),
            started,
            finished,
            ledger,
            inbox: Mutex::new(Inbox {
                results: res_rx,
                ready: BTreeMap::new(),
                outstanding: BTreeMap::new(),
            }),
        })
    }

    /// Trains `job` for `stream`, recording into `telemetry` (the
    /// submitting pipeline's). Without workers the job runs here and the
    /// model comes straight back; with workers it is enqueued, `None` is
    /// returned at once, and the model arrives through
    /// [`Trainer::drain`] / [`Trainer::drain_barrier`] for `stream`.
    pub fn submit(
        &self,
        stream: usize,
        job: Arc<TrainJob>,
        telemetry: &Telemetry,
    ) -> Option<TrainedModel> {
        let Some(jobs) = &self.jobs else {
            return Some(run_job(&self.specializer, &self.teacher, telemetry, &job));
        };
        *self.inbox.lock().outstanding.entry(stream).or_insert(0) += 1;
        self.submitted.fetch_add(1, Ordering::SeqCst);
        let epoch = self.ledger.lock().epoch(stream);
        jobs.send(Queued { stream, epoch, job, telemetry: telemetry.clone() })
            .expect("training workers alive");
        None
    }

    /// Tombstones `stream`'s queued job for `cluster_id`: a worker that
    /// dequeues it discards it instead of training (counted in the
    /// submitter's `odin_train_cancelled_total`). Best effort — a job
    /// already running trains to completion and is dropped by the
    /// install-time orphan path instead.
    pub fn cancel(&self, stream: usize, cluster_id: usize) {
        let mut ledger = self.ledger.lock();
        let epoch = ledger.epoch(stream);
        ledger.cancelled.insert((stream, epoch, cluster_id));
    }

    /// Starts a new epoch for `stream`, whose shard is being replaced by
    /// one restored from a checkpoint: the restored shard's cluster ids
    /// restart, so nothing its predecessor submitted may reach it. Banked
    /// models and tombstones of earlier epochs are dropped; their jobs
    /// still queued or training settle without a model, and still count
    /// towards [`Trainer::drain_barrier`].
    pub(crate) fn restart_stream(&self, stream: usize) {
        {
            let mut ledger = self.ledger.lock();
            *ledger.epochs.entry(stream).or_insert(0) += 1;
            ledger.cancelled.retain(|&(s, _, _)| s != stream);
        }
        self.inbox.lock().ready.remove(&stream);
    }

    /// Collects `stream`'s finished models without blocking (banked
    /// ones first, then whatever has completed since). Other streams'
    /// models that completed meanwhile are banked for their own shards.
    pub fn drain(&self, stream: usize) -> Vec<TrainedModel> {
        if self.jobs.is_none() {
            return Vec::new(); // no workers: submit already returned every model
        }
        let mut inbox = self.inbox.lock();
        while let Ok(settled) = inbox.results.try_recv() {
            inbox.bank(settled, &self.ledger);
        }
        inbox.ready.remove(&stream).unwrap_or_default()
    }

    /// Blocks until every job `stream` submitted has settled, then
    /// returns its models. With more than one worker the order results
    /// arrive in is nondeterministic; callers install into a map keyed
    /// by cluster id, so final state does not depend on it. Holds the
    /// inbox lock while waiting, so concurrent drains of other streams
    /// stall until this stream's jobs land — callers only block here at
    /// quiesce points (`Odin::finish_training`), never on the per-frame
    /// path.
    pub fn drain_barrier(&self, stream: usize) -> Vec<TrainedModel> {
        let mut inbox = self.inbox.lock();
        while inbox.outstanding.get(&stream).is_some_and(|n| *n > 0) {
            match inbox.results.recv() {
                Ok(settled) => inbox.bank(settled, &self.ledger),
                Err(_) => break, // the workers died; don't hang forever
            }
        }
        inbox.ready.remove(&stream).unwrap_or_default()
    }

    /// Jobs enqueued but not yet picked up by a worker (all streams).
    pub fn queue_depth(&self) -> usize {
        self.submitted.load(Ordering::SeqCst).saturating_sub(self.started.load(Ordering::SeqCst))
    }

    /// Jobs currently training on a worker (all streams).
    pub fn in_flight(&self) -> usize {
        self.started.load(Ordering::SeqCst).saturating_sub(self.finished.load(Ordering::SeqCst))
    }

    /// Jobs submitted by `stream` that have not settled yet.
    #[cfg(test)]
    fn outstanding_for(&self, stream: usize) -> usize {
        self.inbox.lock().outstanding.get(&stream).copied().unwrap_or(0)
    }
}

impl Drop for Trainer {
    /// Closes the job channel and joins the workers. A worker mid-run
    /// finishes its current job first, so dropping a busy trainer can
    /// block for up to one training run.
    fn drop(&mut self) {
        self.jobs.take();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specializer::SpecializerConfig;
    use odin_data::{SceneGen, Subset};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_specializer() -> Specializer {
        Specializer::new(SpecializerConfig {
            train_iters: 10,
            distill_iters: 8,
            batch_size: 4,
            ..SpecializerConfig::default()
        })
    }

    fn fixture() -> (Arc<Detector>, Vec<Frame>) {
        let mut rng = StdRng::seed_from_u64(0);
        let teacher = Arc::new(Detector::small(48, &mut rng));
        let gen = SceneGen::new(48);
        let frames = gen.subset_frames(&mut rng, Subset::Day, 8);
        (teacher, frames)
    }

    fn background(workers: usize, teacher: Arc<Detector>) -> Arc<Trainer> {
        Trainer::new(TrainingMode::Background { workers }, quick_specializer(), teacher)
    }

    fn tel() -> Telemetry {
        let t = Telemetry::new();
        t.clear_sinks();
        t
    }

    fn job(cluster_id: usize, kind: ModelKind, frames: &[Frame]) -> Arc<TrainJob> {
        Arc::new(TrainJob {
            cluster_id,
            seed: cluster_id as u64,
            kind,
            frames: frames.to_vec(),
            ctx: SpanCtx { trace: 1, parent: odin_telemetry::NO_PARENT },
        })
    }

    #[test]
    fn workers_train_and_return_models() {
        let (teacher, frames) = fixture();
        let trainer = background(2, teacher);
        let t = tel();
        for (i, kind) in [ModelKind::Specialized, ModelKind::Lite].into_iter().enumerate() {
            assert!(trainer.submit(0, job(i, kind, &frames), &t).is_none());
        }
        let done = trainer.drain_barrier(0);
        assert_eq!(done.len(), 2);
        assert_eq!(trainer.outstanding_for(0), 0);
        let mut kinds: Vec<_> = done.iter().map(|m| (m.cluster_id, m.kind)).collect();
        kinds.sort_by_key(|&(id, _)| id);
        assert_eq!(kinds, vec![(0, ModelKind::Specialized), (1, ModelKind::Lite)]);
        assert!(done.iter().all(|m| m.wall_ms >= 0.0));
    }

    #[test]
    fn inline_submit_hands_the_model_straight_back() {
        let (teacher, frames) = fixture();
        let trainer = Trainer::new(TrainingMode::Inline, quick_specializer(), teacher);
        let t = tel();
        let done = trainer.submit(3, job(5, ModelKind::Lite, &frames), &t).expect("trained inline");
        assert_eq!((done.cluster_id, done.kind), (5, ModelKind::Lite));
        assert_eq!(trainer.outstanding_for(3), 0);
        assert!(trainer.drain(3).is_empty() && trainer.drain_barrier(3).is_empty());
        // The span landed in the caller's telemetry, as a worker's would.
        assert!(t.flight_record().spans.iter().any(|s| s.name == "train" && s.cluster == 5));
    }

    #[test]
    fn background_model_matches_inline_training() {
        let (teacher, frames) = fixture();
        let inline = Trainer::new(TrainingMode::Inline, quick_specializer(), Arc::clone(&teacher));
        let j = job(7, ModelKind::Specialized, &frames);
        let want = inline.submit(0, Arc::clone(&j), &tel()).expect("trained inline");
        let trainer = background(1, teacher);
        trainer.submit(0, j, &tel());
        let done = trainer.drain_barrier(0);
        assert_eq!(done[0].detector.export_params(), want.detector.export_params());
    }

    #[test]
    fn worker_span_continues_the_submitted_trace() {
        let (teacher, frames) = fixture();
        let telemetry = tel();
        let trainer = background(1, teacher);
        let submitted = SpanCtx { trace: 42, parent: 7 };
        let j = TrainJob { cluster_id: 5, seed: 1, kind: ModelKind::Lite, frames, ctx: submitted };
        trainer.submit(0, Arc::new(j), &telemetry);
        let done = trainer.drain_barrier(0);
        assert_eq!(done.len(), 1);
        // The model's install context continues the submitter's trace...
        assert_eq!(done[0].ctx.trace, 42);
        // ...parented on the worker-side train span, which itself
        // parents onto the submitted context — in the submitter's
        // telemetry, not one owned by the trainer.
        let rec = telemetry.flight_record();
        let train =
            rec.spans.iter().find(|s| s.name == "train").expect("worker recorded a train span");
        assert_eq!(train.trace, 42);
        assert_eq!(train.parent, 7);
        assert_eq!(train.cluster, 5);
        assert_eq!(done[0].ctx.parent, train.id);
    }

    #[test]
    fn counters_settle_after_barrier() {
        let (teacher, frames) = fixture();
        let trainer = background(1, teacher);
        trainer.submit(0, job(3, ModelKind::Lite, &frames), &tel());
        assert_eq!(trainer.outstanding_for(0), 1);
        let _ = trainer.drain_barrier(0);
        assert_eq!(trainer.outstanding_for(0), 0);
        assert_eq!(trainer.queue_depth(), 0);
        assert_eq!(trainer.in_flight(), 0);
    }

    #[test]
    fn cancelled_job_is_discarded_and_counted() {
        let (teacher, frames) = fixture();
        let telemetry = tel();
        let trainer = background(1, teacher);
        // Tombstone first, then submit: the worker is guaranteed to see
        // the cancellation at dequeue (cluster ids are never reused, so
        // an early tombstone is exactly as valid as a late one).
        trainer.cancel(0, 9);
        trainer.submit(0, job(9, ModelKind::Lite, &frames), &telemetry);
        let done = trainer.drain_barrier(0);
        assert!(done.is_empty(), "cancelled job must not produce a model");
        assert_eq!(trainer.outstanding_for(0), 0, "cancellation settles the stream's accounting");
        assert_eq!(trainer.queue_depth(), 0);
        assert_eq!(trainer.in_flight(), 0);
        // Counted where the submitter's /metrics will show it.
        assert_eq!(telemetry.train_cancelled.get(), 1);
    }

    #[test]
    fn drain_without_jobs_is_empty() {
        let (teacher, _) = fixture();
        let trainer = background(1, teacher);
        assert!(trainer.drain(0).is_empty());
        assert!(trainer.drain_barrier(0).is_empty());
    }

    #[test]
    fn each_stream_gets_only_its_own_models() {
        let (teacher, frames) = fixture();
        let trainer = background(2, teacher);
        let (ta, tb) = (tel(), tel());
        for (stream, t, cluster) in [(0, &ta, 0), (1, &tb, 1), (0, &ta, 2)] {
            trainer.submit(stream, job(cluster, ModelKind::Lite, &frames), t);
        }
        // Stream 0's barrier returns exactly its two models and banks
        // stream 1's if it finished meanwhile.
        let got_a = trainer.drain_barrier(0);
        let mut ids: Vec<_> = got_a.iter().map(|m| m.cluster_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 2]);
        assert_eq!(trainer.outstanding_for(0), 0);

        let got_b = trainer.drain_barrier(1);
        assert_eq!(got_b.len(), 1);
        assert_eq!(got_b[0].cluster_id, 1);
        assert_eq!(trainer.outstanding_for(1), 0);
        // Each stream's spans went to its own telemetry.
        let trains =
            |t: &Telemetry| t.flight_record().spans.iter().filter(|s| s.name == "train").count();
        assert_eq!((trains(&ta), trains(&tb)), (2, 1));
        // Nothing left for either stream.
        assert!(trainer.drain(0).is_empty());
        assert!(trainer.drain(1).is_empty());
    }
}
