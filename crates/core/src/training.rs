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
//!   served by the teacher or by nearby clusters' models meanwhile. A
//!   thread that waits for a stream's models at a quiesce point
//!   ([`Trainer::drain_barrier`]) trains queued jobs itself instead of
//!   sleeping, so it works beside the workers.
//!
//! A multi-stream server shares one `Trainer` between all its shards
//! (a drift burst on one camera borrows the whole training capacity); a
//! standalone pipeline is the one-stream case of the same type. Every
//! submission names the submitting stream and carries that shard's
//! [`Telemetry`], so the `train` span, the training wall time and the
//! cancellation and failure counts land in the submitter's own registry
//! whichever thread did the work.
//!
//! Because each job carries its own seed (derived from the submission
//! sequence number), the models background workers produce are
//! bit-identical to the ones inline training would have built — only
//! *when* they become servable differs.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// never trains on the calling thread; `Odin::finish_training`
    /// waits for stragglers, training queued jobs itself meanwhile.
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

/// A queued job: who asked, in which of the stream's epochs, its place
/// in the submission order, and where to record.
struct Queued {
    stream: usize,
    epoch: u64,
    /// Submission index (unique per trainer): a stream's models leave
    /// the trainer in this order, whichever thread trained them.
    seq: usize,
    job: Arc<TrainJob>,
    telemetry: Telemetry,
}

/// What comes back per dequeued job: the submitting stream, epoch and
/// submission index, and the model — or `None` when the job was
/// discarded at dequeue ([`Ledger::discard`]) or its run panicked.
/// Such jobs still flow back so the per-stream outstanding count (and
/// the drain barrier) stays exact.
struct Settled {
    stream: usize,
    epoch: u64,
    seq: usize,
    model: Option<TrainedModel>,
}

/// What a thread consults before training a dequeued job.
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

/// What every thread that trains a queued job shares: the builders, the
/// monotone start/finish counters and the ledger.
struct Crew {
    specializer: Specializer,
    teacher: Arc<Detector>,
    started: AtomicUsize,
    finished: AtomicUsize,
    ledger: Mutex<Ledger>,
}

impl Crew {
    /// Settles one dequeued job — the one path for workers and for a
    /// helping [`Trainer::drain_barrier`] alike. A discarded job counts
    /// `odin_train_cancelled_total`; a run that panics counts
    /// `odin_train_failed_total` (both in the submitter's telemetry)
    /// and settles without a model, and the calling thread carries on.
    fn settle(&self, q: Queued) -> Settled {
        self.started.fetch_add(1, Ordering::SeqCst);
        let discard = self.ledger.lock().discard(&q);
        let model = if discard {
            // The cluster or the shard this model would serve is gone.
            // Discard the job without burning a training run.
            q.telemetry.train_cancelled.inc();
            None
        } else {
            let run = || run_job(&self.specializer, &self.teacher, &q.telemetry, &q.job);
            let model = catch_unwind(AssertUnwindSafe(run)).ok();
            if model.is_none() {
                q.telemetry.train_failed.inc();
            }
            model
        };
        self.finished.fetch_add(1, Ordering::SeqCst);
        Settled { stream: q.stream, epoch: q.epoch, seq: q.seq, model }
    }
}

/// The receiving half: results not yet handed to their shard.
struct Inbox {
    results: Receiver<Settled>,
    /// Finished models banked per stream, keyed by submission index,
    /// until that shard drains.
    ready: BTreeMap<usize, BTreeMap<usize, TrainedModel>>,
    /// Submitted-but-unsettled jobs per stream.
    outstanding: BTreeMap<usize, usize>,
}

impl Inbox {
    /// Settles one job, banking its model unless `ledger` says the
    /// stream has moved to a later epoch since it was submitted.
    fn bank(&mut self, s: Settled, ledger: &Mutex<Ledger>) {
        if let Some(n) = self.outstanding.get_mut(&s.stream) {
            *n = n.saturating_sub(1);
        }
        if let Some(m) = s.model.filter(|_| s.epoch == ledger.lock().epoch(s.stream)) {
            self.ready.entry(s.stream).or_default().insert(s.seq, m);
        }
    }

    /// Banks every result that has arrived.
    fn bank_arrived(&mut self, ledger: &Mutex<Ledger>) {
        while let Ok(settled) = self.results.try_recv() {
            self.bank(settled, ledger);
        }
    }

    /// Hands over `stream`'s banked models in submission order.
    fn take(&mut self, stream: usize) -> Vec<TrainedModel> {
        self.ready.remove(&stream).map(|m| m.into_values().collect()).unwrap_or_default()
    }
}

/// SPECIALIZER's executor: zero worker threads ([`TrainingMode::Inline`])
/// or a pool of them ([`TrainingMode::Background`]), serving one
/// pipeline or every shard of a server.
///
/// Jobs flow worker-ward through an unbounded MPMC channel; settled
/// jobs flow back through a second one and are banked per submitting
/// stream, so a shard only ever sees its own models. The trainer keeps
/// an end of each channel: a waiting barrier takes jobs from the first
/// and sends what it trained into the second, as a worker would.
/// Counters are monotone (`submitted >= started >= finished`), so queue
/// depth and in-flight counts are snapshots computed from their
/// differences.
pub struct Trainer {
    crew: Arc<Crew>,
    /// `None` when there are no workers (and, transiently, during drop:
    /// taking it closes the channel so workers exit their recv loop).
    jobs: Option<Sender<Queued>>,
    /// The trainer's own end of the job queue.
    queued: Receiver<Queued>,
    /// The trainer's own end of the result channel.
    results: Sender<Settled>,
    workers: Vec<JoinHandle<()>>,
    submitted: AtomicUsize,
    inbox: Mutex<Inbox>,
    /// Jobs a barrier trained on its calling thread.
    #[cfg(test)]
    helped: AtomicUsize,
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
        let crew = Arc::new(Crew {
            specializer,
            teacher,
            started: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            ledger: Mutex::new(Ledger::default()),
        });
        let handles = (0..workers)
            .map(|_| {
                let (rx, tx, crew) = (job_rx.clone(), res_tx.clone(), Arc::clone(&crew));
                // The result channel outlives the workers (drop joins
                // them first), so a send cannot fail.
                std::thread::spawn(move || {
                    while let Ok(q) = rx.recv() {
                        let _ = tx.send(crew.settle(q));
                    }
                })
            })
            .collect();
        Arc::new(Trainer {
            crew,
            jobs: (workers > 0).then_some(job_tx),
            queued: job_rx,
            results: res_tx,
            workers: handles,
            submitted: AtomicUsize::new(0),
            inbox: Mutex::new(Inbox {
                results: res_rx,
                ready: BTreeMap::new(),
                outstanding: BTreeMap::new(),
            }),
            #[cfg(test)]
            helped: AtomicUsize::new(0),
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
            return Some(run_job(&self.crew.specializer, &self.crew.teacher, telemetry, &job));
        };
        *self.inbox.lock().outstanding.entry(stream).or_insert(0) += 1;
        let seq = self.submitted.fetch_add(1, Ordering::SeqCst);
        let epoch = self.crew.ledger.lock().epoch(stream);
        // The trainer holds a receiver, so the send cannot fail.
        let _ = jobs.send(Queued { stream, epoch, seq, job, telemetry: telemetry.clone() });
        None
    }

    /// Tombstones `stream`'s queued job for `cluster_id`: the thread
    /// that dequeues it discards it instead of training (counted in the
    /// submitter's `odin_train_cancelled_total`). Best effort — a job
    /// already running trains to completion and is dropped by the
    /// install-time orphan path instead.
    pub fn cancel(&self, stream: usize, cluster_id: usize) {
        let mut ledger = self.crew.ledger.lock();
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
            let mut ledger = self.crew.ledger.lock();
            *ledger.epochs.entry(stream).or_insert(0) += 1;
            ledger.cancelled.retain(|&(s, _, _)| s != stream);
        }
        self.inbox.lock().ready.remove(&stream);
    }

    /// Collects `stream`'s finished models without blocking or training
    /// (banked ones first, then whatever has completed since), in
    /// submission order. Other streams' models that completed meanwhile
    /// are banked for their own shards.
    pub fn drain(&self, stream: usize) -> Vec<TrainedModel> {
        if self.jobs.is_none() {
            return Vec::new(); // no workers: submit already returned every model
        }
        let mut inbox = self.inbox.lock();
        inbox.bank_arrived(&self.crew.ledger);
        inbox.take(stream)
    }

    /// Waits until every job `stream` submitted has settled, then
    /// returns its models in submission order, whichever threads
    /// trained them. While the stream has jobs outstanding the caller
    /// does not sleep if the queue holds work: it takes the next queued
    /// job (of any stream) and trains it here, with the inbox lock
    /// released, so it may finish at most one job of another stream
    /// after its own stream settles. Only once the queue is empty does
    /// it block on results, holding the inbox lock as it does so —
    /// concurrent drains of other streams stall until this stream's
    /// last jobs land. Callers only wait here at quiesce points
    /// (`Odin::finish_training`), never on the per-frame path.
    pub fn drain_barrier(&self, stream: usize) -> Vec<TrainedModel> {
        let mut inbox = self.inbox.lock();
        loop {
            inbox.bank_arrived(&self.crew.ledger);
            if inbox.outstanding.get(&stream).is_none_or(|&n| n == 0) {
                return inbox.take(stream);
            }
            match self.queued.try_recv() {
                // The result goes back through the channel, not straight
                // into the inbox: a barrier of another stream may be
                // blocked on that channel, holding the inbox lock, for
                // this very job.
                Ok(q) => {
                    #[cfg(test)]
                    self.helped.fetch_add(1, Ordering::SeqCst);
                    drop(inbox);
                    let _ = self.results.send(self.crew.settle(q));
                    inbox = self.inbox.lock();
                }
                // Nothing queued: the stream's last jobs are training on
                // other threads, each of which sends its result here.
                Err(_) => {
                    if let Ok(settled) = inbox.results.recv() {
                        inbox.bank(settled, &self.crew.ledger);
                    }
                }
            }
        }
    }

    /// Jobs enqueued but not yet picked up by a worker or a barrier (all
    /// streams).
    pub fn queue_depth(&self) -> usize {
        let started = self.crew.started.load(Ordering::SeqCst);
        self.submitted.load(Ordering::SeqCst).saturating_sub(started)
    }

    /// Jobs currently training (all streams), on a worker or on a thread
    /// waiting in [`Trainer::drain_barrier`].
    pub fn in_flight(&self) -> usize {
        let finished = self.crew.finished.load(Ordering::SeqCst);
        self.crew.started.load(Ordering::SeqCst).saturating_sub(finished)
    }

    /// Jobs submitted by `stream` that have not settled yet.
    #[cfg(test)]
    fn outstanding_for(&self, stream: usize) -> usize {
        self.inbox.lock().outstanding.get(&stream).copied().unwrap_or(0)
    }
}

impl Drop for Trainer {
    /// Empties the job queue (nobody is left to want those models), then
    /// closes it and joins the workers. A worker mid-run finishes its
    /// current job first, so dropping a busy trainer can block for up
    /// to one training run.
    fn drop(&mut self) {
        while self.queued.try_recv().is_ok() {}
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

    /// `trainer.drain_barrier(stream)` on a thread of its own, failing
    /// the test rather than stalling it if the barrier hangs.
    fn barrier_within(trainer: &Arc<Trainer>, stream: usize) -> Vec<TrainedModel> {
        let (tx, rx) = crossbeam::channel::unbounded();
        let t = Arc::clone(trainer);
        std::thread::spawn(move || {
            let _ = tx.send(t.drain_barrier(stream));
        });
        rx.recv_timeout(std::time::Duration::from_secs(60)).expect("drain_barrier hung")
    }

    fn ids(models: &[TrainedModel]) -> Vec<usize> {
        models.iter().map(|m| m.cluster_id).collect()
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

    #[test]
    fn a_waiting_barrier_trains_queued_jobs_in_submission_order() {
        let (teacher, frames) = fixture();
        let inline = Trainer::new(TrainingMode::Inline, quick_specializer(), Arc::clone(&teacher));
        let trainer = background(1, teacher);
        let submissions = [
            (0, job(0, ModelKind::Specialized, &frames)),
            (1, job(1, ModelKind::Lite, &frames)),
            (0, job(2, ModelKind::Lite, &frames)),
            (0, job(3, ModelKind::Specialized, &frames)),
        ];
        // Everything is queued before the barriers run, and the one
        // worker holds at most one job at a time, so the barriers find
        // queued work to take on.
        for (stream, j) in &submissions {
            assert!(trainer.submit(*stream, Arc::clone(j), &tel()).is_none());
        }
        let got = [trainer.drain_barrier(0), trainer.drain_barrier(1)];
        assert_eq!((ids(&got[0]), ids(&got[1])), (vec![0, 2, 3], vec![1]));
        for m in got.iter().flatten() {
            let j = &submissions[m.cluster_id].1;
            let want = inline.submit(0, Arc::clone(j), &tel()).expect("trained inline");
            assert_eq!(m.detector.export_params(), want.detector.export_params());
        }
        assert!(trainer.helped.load(Ordering::SeqCst) >= 1, "no job ran on the waiting thread");
        assert_eq!((trainer.queue_depth(), trainer.in_flight()), (0, 0));
    }

    #[test]
    fn a_panicking_job_settles_as_failed_and_the_pool_carries_on() {
        let (teacher, frames) = fixture();
        for workers in [1, 2] {
            let trainer = background(workers, Arc::clone(&teacher));
            let telemetry = tel();
            // `build_specialized` asserts on an empty frame set.
            trainer.submit(0, job(1, ModelKind::Specialized, &[]), &telemetry);
            trainer.submit(0, job(2, ModelKind::Lite, &frames), &telemetry);
            assert_eq!(ids(&barrier_within(&trainer, 0)), vec![2], "{workers} worker(s)");
            assert_eq!(telemetry.train_failed.get(), 1);
            assert_eq!(telemetry.train_cancelled.get(), 0);
            // The pool still trains what comes next.
            trainer.submit(0, job(3, ModelKind::Lite, &frames), &telemetry);
            assert_eq!(ids(&barrier_within(&trainer, 0)), vec![3], "{workers} worker(s)");
            assert_eq!((trainer.queue_depth(), trainer.in_flight()), (0, 0));
        }
    }

    #[test]
    fn dropping_a_trainer_discards_its_queue() {
        let (teacher, frames) = fixture();
        let specializer = Specializer::new(SpecializerConfig {
            train_iters: 100,
            ..*quick_specializer().config()
        });
        let trainer = Trainer::new(TrainingMode::Background { workers: 1 }, specializer, teacher);
        for cluster in 0..5 {
            trainer.submit(0, job(cluster, ModelKind::Specialized, &frames), &tel());
        }
        let crew = Arc::clone(&trainer.crew);
        drop(trainer);
        // The worker finishes the job it holds (and may have taken one
        // more before the queue was emptied); the rest never start.
        assert!(crew.started.load(Ordering::SeqCst) <= 2);
    }
}
