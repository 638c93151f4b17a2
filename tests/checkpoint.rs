//! Crash-safe persistence of the whole pipeline: a checkpoint must
//! restore to a bit-identical system (same `ServedBy` decisions, same
//! detections, same `memory_bytes`), corruption must be rejected with a
//! clean cold-bootstrap fallback instead of a panic, and the drift-event
//! WAL must replay promotions/evictions/installs newer than the last
//! snapshot.

use std::path::PathBuf;

use odin_core::encoder::HistogramEncoder;
use odin_core::pipeline::{Odin, OdinConfig};
use odin_core::specializer::SpecializerConfig;
use odin_core::training::TrainingMode;
use odin_core::{AtticConfig, CheckpointPolicy, SNAPSHOT_FILE, WAL_FILE};
use odin_data::{Frame, RecurringSchedule, SceneGen, Subset};
use odin_detect::{Detection, Detector, DetectorArch};
use odin_drift::ManagerConfig;
use odin_telemetry::render_prometheus_grouped;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quick_cfg(training: TrainingMode) -> OdinConfig {
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
        training,
        ..OdinConfig::default()
    }
}

fn new_odin(training: TrainingMode) -> Odin {
    let mut rng = StdRng::seed_from_u64(0);
    let teacher = Detector::heavy(48, &mut rng);
    Odin::new(Box::new(HistogramEncoder::new()), teacher, quick_cfg(training), 42)
}

fn night_then_day(n_each: usize) -> (Vec<Frame>, Vec<Frame>) {
    let gen = SceneGen::new(48);
    let mut rng = StdRng::seed_from_u64(2);
    (
        gen.subset_frames(&mut rng, Subset::Night, n_each),
        gen.subset_frames(&mut rng, Subset::Day, n_each),
    )
}

/// Unique scratch path per test (the suite may run in parallel).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("odin-ckpt-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Bitwise fingerprint of a detection list.
fn fingerprint(dets: &[Detection]) -> Vec<(u32, usize, u32, u32, u32, u32)> {
    dets.iter()
        .map(|d| {
            (
                d.score.to_bits(),
                d.bbox.class.index(),
                d.bbox.x.to_bits(),
                d.bbox.y.to_bits(),
                d.bbox.w.to_bits(),
                d.bbox.h.to_bits(),
            )
        })
        .collect()
}

fn registry_params(odin: &Odin) -> Vec<(usize, Vec<f32>)> {
    let registry = odin.registry();
    let registry = registry.read();
    odin.model_ids()
        .into_iter()
        .map(|id| (id, registry.get(id).expect("registered").detector.export_params()))
        .collect()
}

/// The headline contract: checkpoint mid-stream, restore in a fresh
/// process stand-in, and the restored pipeline serves the rest of the
/// stream *bit-identically* — same `ServedBy` path, same detections,
/// same deployment footprint.
#[test]
fn checkpoint_restore_is_bit_identical_inline() {
    let path = scratch("roundtrip").join("snap.odst");
    let (night, day) = night_then_day(60);

    let mut original = new_odin(TrainingMode::Inline);
    original.process_stream(&night);
    assert!(original.model_count() > 0, "fixture trained no model before checkpoint");
    original.checkpoint(&path).expect("checkpoint");

    let mut restored = Odin::restore(&path).expect("restore");
    assert_eq!(restored.memory_bytes(), original.memory_bytes());
    assert_eq!(registry_params(&restored), registry_params(&original));
    assert_eq!(restored.manager().clusters().len(), original.manager().clusters().len());

    let before = original.stats();
    let after = restored.stats();
    assert_eq!(before.jobs_submitted, after.jobs_submitted);
    assert_eq!(before.models_installed, after.models_installed);

    // Serve the second concept on both instances.
    let res_orig = original.process_stream(&day);
    let res_rest = restored.process_stream(&day);
    for (a, b) in res_orig.iter().zip(&res_rest) {
        assert_eq!(a.served_by, b.served_by, "ServedBy diverged after restore");
        assert_eq!(a.assignment, b.assignment, "assignment diverged after restore");
        assert_eq!(
            fingerprint(&a.detections),
            fingerprint(&b.detections),
            "detections diverged after restore"
        );
    }
    assert_eq!(original.memory_bytes(), restored.memory_bytes());
    assert_eq!(registry_params(&original), registry_params(&restored));
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// A checkpoint taken while background jobs are queued/running retains
/// their inputs and seeds; the restored pipeline converges to the same
/// models as the uninterrupted run.
#[test]
fn background_checkpoint_converges_to_identical_models() {
    let path = scratch("background").join("snap.odst");
    let (night, day) = night_then_day(60);

    let mut original = new_odin(TrainingMode::Background { workers: 2 });
    original.process_stream(&night);
    original.checkpoint(&path).expect("checkpoint");

    let mut restored = Odin::restore(&path).expect("restore");
    original.process_stream(&day);
    restored.process_stream(&day);
    original.finish_training();
    restored.finish_training();

    assert!(original.model_count() > 0, "fixture trained no models");
    assert_eq!(registry_params(&original), registry_params(&restored));
    assert_eq!(original.memory_bytes(), restored.memory_bytes());
    let a = original.stats();
    let b = restored.stats();
    assert_eq!(a.models_installed, b.models_installed);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// Truncation anywhere in the file is caught by the section CRCs (or
/// the header parse) and surfaces as an error — and `restore_or_else`
/// falls back to a cold bootstrap instead of panicking.
#[test]
fn truncated_checkpoint_falls_back_to_cold_bootstrap() {
    let path = scratch("truncate").join("snap.odst");
    let (night, _) = night_then_day(40);
    let mut odin = new_odin(TrainingMode::Inline);
    odin.process_stream(&night);
    odin.checkpoint(&path).expect("checkpoint");

    let bytes = std::fs::read(&path).expect("read snapshot");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate snapshot");
    assert!(Odin::restore(&path).is_err(), "truncated checkpoint must be rejected");

    let cold = Odin::restore_or_else(&path, || new_odin(TrainingMode::Inline));
    assert_eq!(cold.model_count(), 0, "fallback must be a cold bootstrap");
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// A single flipped bit in the payload is caught by a section CRC.
#[test]
fn bit_flip_is_detected() {
    let path = scratch("bitflip").join("snap.odst");
    let (night, _) = night_then_day(40);
    let mut odin = new_odin(TrainingMode::Inline);
    odin.process_stream(&night);
    odin.checkpoint(&path).expect("checkpoint");

    let mut bytes = std::fs::read(&path).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).expect("write corrupted snapshot");
    assert!(Odin::restore(&path).is_err(), "bit flip must be rejected");
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// Drift events, evictions, and installs that happen *after* the last
/// snapshot live in the WAL; `restore_from_dir` replays them so the
/// recovered system serves like the live one.
#[test]
fn wal_replay_recovers_post_snapshot_events() {
    let dir = scratch("wal-replay");
    let (night, day) = night_then_day(60);

    let mut live = new_odin(TrainingMode::Inline);
    live.enable_store(&dir, CheckpointPolicy::Manual).expect("enable store");
    // Snapshot the empty system, then learn everything afterwards: every
    // promotion and install must come back from the WAL alone.
    live.checkpoint(&dir.join(SNAPSHOT_FILE)).expect("snapshot");
    live.process_stream(&night);
    live.flush_store();
    assert!(live.model_count() > 0, "fixture trained no model");
    assert!(live.stats().wal_events_logged > 0, "no WAL events were logged");

    let mut recovered = Odin::restore_from_dir(&dir).expect("restore from dir");
    assert_eq!(
        recovered.manager().clusters().len(),
        live.manager().clusters().len(),
        "WAL replay missed promotions"
    );
    assert_eq!(registry_params(&recovered), registry_params(&live));
    assert_eq!(recovered.memory_bytes(), live.memory_bytes());
    // The recovered system must serve identically on fresh frames.
    for f in &day[..10] {
        assert_eq!(fingerprint(&live.infer_only(f)), fingerprint(&recovered.infer_only(f)));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `OnDrift` writes a snapshot at the frame boundary after each
/// promotion, through the background writer.
#[test]
fn on_drift_policy_snapshots_automatically() {
    let dir = scratch("on-drift");
    let (night, _) = night_then_day(60);
    let mut odin = new_odin(TrainingMode::Inline);
    odin.enable_store(&dir, CheckpointPolicy::OnDrift).expect("enable store");
    odin.process_stream(&night);
    odin.flush_store();
    assert!(odin.stats().snapshots_written > 0, "drift did not trigger a snapshot");
    assert_eq!(odin.store_write_failures(), 0);
    let restored = Odin::restore_from_dir(&dir).expect("restore from dir");
    assert!(!restored.manager().clusters().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// `EveryNFrames` snapshots on a frame cadence even with no drift.
#[test]
fn every_n_frames_policy_snapshots_on_cadence() {
    let dir = scratch("cadence");
    let (night, _) = night_then_day(25);
    let mut odin = new_odin(TrainingMode::Inline);
    odin.enable_store(&dir, CheckpointPolicy::EveryNFrames(10)).expect("enable store");
    odin.process_stream(&night);
    odin.flush_store();
    assert!(odin.stats().snapshots_written >= 2, "cadence snapshots missing");
    assert!(dir.join(SNAPSHOT_FILE).exists());
    assert!(Odin::restore_from_dir(&dir).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

/// Recurring night/day frames under a 1-cluster cap: every regime
/// switch evicts the other regime's model into the attic, and returns
/// reinstall from it.
fn recurring_frames(total: usize, period: usize) -> Vec<Frame> {
    let gen = SceneGen::new(48);
    let mut rng = StdRng::seed_from_u64(2);
    RecurringSchedule::alternating(total, period, &[Subset::Night, Subset::Day])
        .generate(&gen, &mut rng)
}

fn attic_cfg() -> OdinConfig {
    let base = quick_cfg(TrainingMode::Inline);
    OdinConfig {
        manager: ManagerConfig { max_clusters: Some(1), ..base.manager },
        min_train_frames: 16,
        attic: AtticConfig::enabled(),
        ..base
    }
}

/// The attic survives both persistence paths: the checkpoint's ATTIC
/// section restores the archive bit-identically, and a WAL-only replay
/// (snapshot taken before anything was learned) converges the archive
/// through its Archive / Evict / AtticTake records alone.
#[test]
fn attic_survives_checkpoint_and_wal_replay() {
    let dir = scratch("attic-replay");
    let stream = recurring_frames(360, 60);

    let mut live = Odin::new(
        Box::new(HistogramEncoder::new()),
        Detector::heavy(48, &mut StdRng::seed_from_u64(0)),
        attic_cfg(),
        42,
    );
    live.enable_store(&dir, CheckpointPolicy::Manual).expect("enable store");
    live.checkpoint(&dir.join(SNAPSHOT_FILE)).expect("empty snapshot");
    live.process_stream(&stream);
    live.flush_store();
    let (archived, _) = live.attic_stats();
    assert!(archived > 0, "fixture never archived a model");
    let prom = render_prometheus_grouped(&[("0".into(), live.telemetry().snapshot())]);
    assert!(prom.contains("odin_attic_hits_total{stream=\"0\"} "), "{prom}");
    assert!(
        !prom.contains("odin_attic_hits_total{stream=\"0\"} 0\n"),
        "fixture never hit the attic"
    );

    // WAL-only replay: state (attic included) converges from the log.
    let replayed = Odin::restore_from_dir(&dir).expect("restore from dir");
    assert_eq!(replayed.attic_stats(), live.attic_stats(), "WAL replay diverged the attic");
    assert_eq!(replayed.manager().clusters().len(), live.manager().clusters().len());
    assert_eq!(registry_params(&replayed), registry_params(&live));

    // Checkpoint roundtrip: the ATTIC section carries the archive, and
    // the TELEMETRY section carries its counters.
    let snap = dir.join("attic-snap.odst");
    live.checkpoint(&snap).expect("checkpoint");
    let restored = Odin::restore(&snap).expect("restore");
    assert_eq!(restored.attic_stats(), live.attic_stats(), "checkpoint dropped the attic");
    let attic_counters = |o: &Odin| {
        o.telemetry()
            .snapshot()
            .counters
            .into_iter()
            .filter(|(n, _)| n.starts_with("odin_attic"))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        attic_counters(&restored),
        attic_counters(&live),
        "attic counters diverged across checkpoint/restore"
    );

    // All three must serve fresh frames bit-identically.
    let probe = recurring_frames(10, 5);
    let mut live = live;
    let mut replayed = replayed;
    let mut restored = restored;
    for f in &probe {
        let want = fingerprint(&live.infer_only(f));
        assert_eq!(want, fingerprint(&replayed.infer_only(f)), "WAL replay serves differently");
        assert_eq!(want, fingerprint(&restored.infer_only(f)), "restore serves differently");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash *between* the Archive append and the Evict append must
/// replay into "archived, never lost": the WAL order puts Archive
/// first, so the truncated log restores a system where the model is in
/// the attic and the cluster has not yet been evicted — nothing is
/// dropped on the floor.
#[test]
fn crash_between_archive_and_evict_keeps_the_model() {
    let dir = scratch("attic-crash");
    let stream = recurring_frames(360, 60);

    let mut live = Odin::new(
        Box::new(HistogramEncoder::new()),
        Detector::heavy(48, &mut StdRng::seed_from_u64(0)),
        attic_cfg(),
        42,
    );
    live.enable_store(&dir, CheckpointPolicy::Manual).expect("enable store");
    live.checkpoint(&dir.join(SNAPSHOT_FILE)).expect("empty snapshot");
    live.process_stream(&stream);
    live.flush_store();
    drop(live);

    // Chop the WAL immediately after the last Archive record (tag 4):
    // the crash happened before the matching Evict (tag 2) was appended.
    let wal_path = dir.join(WAL_FILE);
    let all = odin_store::read_wal(&wal_path).expect("read wal").records;
    let cut = all.iter().rposition(|r| r.payload[0] == 4).expect("no archive record") + 1;
    assert_eq!(all[cut].payload[0], 2, "archive must be directly followed by evict");
    std::fs::remove_file(&wal_path).expect("drop wal");
    let mut w = odin_store::WalWriter::open(&wal_path).expect("rewrite wal");
    for r in &all[..cut] {
        w.append(&r.payload).expect("append prefix");
    }
    w.sync().expect("sync");
    drop(w);

    let mut recovered = Odin::restore_from_dir(&dir).expect("restore across crash");
    let (archived, _) = recovered.attic_stats();
    assert!(archived > 0, "archived model lost across the crash");
    // The eviction never became durable, so the cluster (and its
    // registered model) are still live alongside the archived copy.
    assert!(recovered.model_count() > 0, "registry lost the not-yet-evicted model");
    // The recovered system keeps serving.
    for f in &recurring_frames(10, 5) {
        recovered.infer_only(f);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash *between* a Drift append and its Install append — the whole
/// training window — must not strand the cluster: replaying the Drift
/// reopens the cluster's recovery episode, so the restored pipeline
/// collects the regime's next frames and trains the model the crashed
/// process never finished. Frames are not in the WAL, but the ones the
/// snapshot caught in the temporary cluster are this regime's: the
/// replayed episode starts from them, as the live one did.
#[test]
fn crash_between_drift_and_install_retrains_the_cluster() {
    let dir = scratch("drift-crash");
    let (night, _) = night_then_day(60);

    let mut live = new_odin(TrainingMode::Inline);
    live.enable_store(&dir, CheckpointPolicy::Manual).expect("enable store");
    // Snapshot with the regime's first frames buffered and no cluster
    // promoted yet.
    const BUFFERED: usize = 8;
    live.process_stream(&night[..BUFFERED]);
    assert!(live.manager().clusters().is_empty(), "fixture: promoted before the snapshot");
    live.checkpoint(&dir.join(SNAPSHOT_FILE)).expect("snapshot");
    live.process_stream(&night[BUFFERED..]);
    live.flush_store();
    assert!(live.model_count() > 0, "fixture trained no model");
    drop(live);

    // Chop the WAL immediately after the first Drift record (tag 1):
    // the crash happened before the matching Install (tag 3) landed.
    let wal_path = dir.join(WAL_FILE);
    let all = odin_store::read_wal(&wal_path).expect("read wal").records;
    let cut = all.iter().position(|r| r.payload[0] == 1).expect("no drift record") + 1;
    assert_eq!(all[cut].payload[0], 3, "fixture: the drift's install must follow it");
    std::fs::remove_file(&wal_path).expect("drop wal");
    let mut w = odin_store::WalWriter::open(&wal_path).expect("rewrite wal");
    for r in &all[..cut] {
        w.append(&r.payload).expect("append prefix");
    }
    w.sync().expect("sync");
    drop(w);

    let mut recovered = Odin::restore_from_dir(&dir).expect("restore across crash");
    let cluster = recovered.manager().clusters()[0].id();
    assert_eq!(recovered.model_count(), 0, "the install never became durable");
    let submitted = recovered.stats().jobs_submitted;

    // The same regime keeps streaming: within 2 x min_train_frames the
    // restored cluster has collected enough, trained, and installed.
    let gen = SceneGen::new(48);
    let more = gen.subset_frames(&mut StdRng::seed_from_u64(9), Subset::Night, 40);
    let needed = more.iter().position(|f| {
        recovered.process(f);
        recovered.stats().jobs_submitted > submitted
    });
    let needed = needed.expect("no training job after the restart") + 1;
    // The episode was seeded with the snapshot's buffered frames, so it
    // fills before min_train_frames new ones arrive. (Stranded, they
    // would instead have seeded the next regime's training set.)
    let min_train_frames = quick_cfg(TrainingMode::Inline).min_train_frames;
    assert!(
        needed < min_train_frames,
        "training took {needed} new frames: the replayed episode started empty"
    );
    recovered.process_stream(&more[needed..]);
    assert!(
        recovered.model_kind(cluster).is_some(),
        "cluster {cluster} was restored without a model and never got one"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash halfway through a snapshot write must leave the *previous*
/// snapshot intact: writes go to a tmp file and rename in.
#[test]
fn atomic_snapshot_never_destroys_the_previous_one() {
    let path = scratch("atomic").join("snap.odst");
    let (night, day) = night_then_day(40);
    let mut odin = new_odin(TrainingMode::Inline);
    odin.process_stream(&night);
    odin.checkpoint(&path).expect("first checkpoint");
    let first = std::fs::read(&path).expect("read first");

    odin.process_stream(&day);
    odin.checkpoint(&path).expect("second checkpoint");
    let second = std::fs::read(&path).expect("read second");
    assert_ne!(first, second, "state changed, snapshots must differ");
    // Both generations parse — the overwrite was a whole-file swap.
    assert!(Odin::restore(&path).is_ok());
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// The training-side counters a restore must not move: jobs submitted,
/// models installed (stats and both exposition counters), and the
/// number of training runs timed into `odin_stage_train_ms`.
fn training_counts(odin: &Odin) -> (u64, u64, u64, u64, u64) {
    let snap = odin.telemetry().snapshot();
    let counter = |name: &str| {
        snap.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).expect("counter registered")
    };
    let train_runs = snap
        .histograms
        .iter()
        .find(|h| h.name == "odin_stage_train_ms")
        .map(|h| h.count)
        .expect("histogram registered");
    (
        odin.stats().jobs_submitted,
        odin.stats().models_installed,
        counter("odin_train_jobs_total"),
        counter("odin_models_installed_specialized_total"),
        train_runs,
    )
}

/// A snapshot taken while a job trains, then a crash after the job's
/// `Install` reached the WAL: the replayed record *is* the model, so
/// the restore must not train it again — let alone install the retrain
/// and then the replayed record over it. Replay never re-counts, so the
/// restored counters are the snapshot's, and stay there.
#[test]
fn restore_over_a_wal_that_holds_the_install_runs_no_training() {
    let dir = scratch("install-in-wal");
    let (night, _) = night_then_day(60);

    let mut live = new_odin(TrainingMode::Background { workers: 1 });
    live.enable_store(&dir, CheckpointPolicy::Manual).expect("enable store");
    // Stop at the frame that submits the job: the model cannot install
    // before the next frame boundary, so the snapshot holds the episode
    // in its training stage whatever the worker has done by then.
    let submitted_at = night
        .iter()
        .position(|f| {
            live.process(f);
            live.stats().jobs_submitted > 0
        })
        .expect("fixture submitted no training job");
    assert_eq!(live.model_count(), 0, "fixture: installed before the snapshot");
    live.checkpoint(&dir.join(SNAPSHOT_FILE)).expect("snapshot mid-training");
    let at_snapshot = training_counts(&live);
    live.finish_training();
    live.flush_store();
    assert_eq!(live.model_count(), 1, "fixture: the job never installed");
    let want = registry_params(&live);
    let wal = odin_store::read_wal(&dir.join(WAL_FILE)).expect("read wal").records;
    assert_eq!(wal.last().map(|r| r.payload[0]), Some(3), "fixture: no Install at the WAL's tail");
    drop(live);

    let mut recovered = Odin::restore_from_dir(&dir).expect("restore across crash");
    // Anything the restore wrongly resubmitted lands here.
    recovered.finish_training();
    assert_eq!(registry_params(&recovered), want, "the replayed model is the writer's");
    assert_eq!(training_counts(&recovered), at_snapshot, "the restore trained or installed");
    // ...and the cluster is out of recovery: serving on does not retrain.
    for f in &night[submitted_at + 1..] {
        recovered.process(f);
    }
    recovered.finish_training();
    assert_eq!(training_counts(&recovered), at_snapshot, "a closed episode trained again");
    std::fs::remove_dir_all(&dir).ok();
}
