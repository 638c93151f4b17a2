//! Event-log contracts: every served frame and every recovery stage
//! lands in the log exactly once, in causal order, with contents that
//! mirror the serving results; two identical runs produce *byte
//! identical* log files; and a multi-stream deployment survives a crash
//! mid-segment-write — the intact prefix scans, the sequence resumes
//! past both the checkpoint and the torn tail, and the full
//! detect → queue → install arc is reconstructable by trace id.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use odin_core::encoder::HistogramEncoder;
use odin_core::pipeline::{Odin, OdinConfig};
use odin_core::server::{OdinServer, ServerConfig};
use odin_core::specializer::SpecializerConfig;
use odin_core::training::TrainingMode;
use odin_core::{
    AtticConfig, CheckpointPolicy, EventLogConfig, RetentionConfig, ServedBy, EVENT_LOG_FILE,
    STREAMS_DIR,
};
use odin_data::{Frame, RecurringSchedule, SceneGen, Subset};
use odin_detect::{Detector, DetectorArch};
use odin_drift::ManagerConfig;
use odin_log::{scan_log, scan_store, LogRecord, Predicate, RecordKind, ServedLabel};
use odin_telemetry::{render_prometheus_grouped, ManualClock};
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
        training: TrainingMode::Inline,
        // Small segments so a ~100-frame run spans several of them.
        event_log: EventLogConfig {
            enabled: true,
            queue_cap: 4096,
            segment_records: 16,
            ..Default::default()
        },
        ..OdinConfig::default()
    }
}

fn new_odin() -> Odin {
    let mut rng = StdRng::seed_from_u64(0);
    let teacher = Detector::heavy(48, &mut rng);
    let odin = Odin::new(Box::new(HistogramEncoder::new()), teacher, quick_cfg(), 42);
    odin.telemetry().clear_sinks();
    odin
}

fn night_then_day(n_each: usize) -> (Vec<Frame>, Vec<Frame>) {
    let gen = SceneGen::new(48);
    let mut rng = StdRng::seed_from_u64(2);
    (
        gen.subset_frames(&mut rng, Subset::Night, n_each),
        gen.subset_frames(&mut rng, Subset::Day, n_each),
    )
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("odin-evlog-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn served_label(s: ServedBy) -> ServedLabel {
    match s {
        ServedBy::Teacher => ServedLabel::Teacher,
        ServedBy::Ensemble => ServedLabel::Ensemble,
        ServedBy::FallbackEnsemble => ServedLabel::Fallback,
    }
}

/// Requires a complete detect → queue → install arc joined on one
/// trace id, in causal (seq) order, all about the same cluster.
fn assert_recovery_arc(records: &[LogRecord]) {
    let install = records
        .iter()
        .find(|r| r.kind == RecordKind::ModelInstalled)
        .expect("no model installed in log");
    let arc: Vec<&LogRecord> = records
        .iter()
        .filter(|r| r.trace == install.trace && r.kind != RecordKind::Frame)
        .collect();
    let pos = |k: RecordKind| arc.iter().position(|r| r.kind == k);
    let detect = pos(RecordKind::DriftDetected).expect("arc lost its drift record");
    let queued = pos(RecordKind::TrainQueued).expect("arc lost its queue record");
    let installed = pos(RecordKind::ModelInstalled).unwrap();
    assert!(detect < queued && queued < installed, "arc out of causal order");
    assert!(arc[detect].seq < arc[queued].seq && arc[queued].seq < arc[installed].seq);
    assert_eq!(arc[detect].cluster, arc[installed].cluster, "arc spans two clusters");
}

/// One `Frame` record per served frame, in order, mirroring the
/// `FrameResult`s; recovery records join into arcs by trace id; and the
/// per-pipeline sequence is dense from 1.
#[test]
fn frame_records_mirror_serving_results() {
    let dir = scratch("mirror");
    let (night, day) = night_then_day(50);
    let mut odin = new_odin();
    odin.telemetry().set_clock(Arc::new(ManualClock::new()));
    odin.enable_store(&dir, CheckpointPolicy::Manual).expect("enable_store");
    let mut results = odin.process_stream(&night);
    results.extend(odin.process_stream(&day));
    odin.flush_store();

    let res = scan_log(&dir.join(EVENT_LOG_FILE), &Predicate::default()).expect("scan");
    for (i, w) in res.records.windows(2).enumerate() {
        assert_eq!(w[1].seq, w[0].seq + 1, "sequence gap at record {i}");
    }
    assert_eq!(res.records.first().map(|r| r.seq), Some(1));

    let frames: Vec<&LogRecord> =
        res.records.iter().filter(|r| r.kind == RecordKind::Frame).collect();
    assert_eq!(frames.len(), results.len(), "one frame record per served frame");
    for (i, (rec, fr)) in frames.iter().zip(&results).enumerate() {
        assert_eq!(rec.frame, i as u64, "frame index diverged at {i}");
        assert_eq!(rec.stream, 0);
        assert_eq!(rec.dets, fr.detections.len() as u32, "det count diverged at {i}");
        assert_eq!(rec.served, served_label(fr.served_by), "served path diverged at {i}");
        if let Some(best) = fr.detections.iter().map(|d| d.score).reduce(f32::max) {
            assert_eq!(rec.conf_max, best, "conf_max diverged at {i}");
        }
    }
    assert!(res.stats.segments_total >= 3, "fixture must span >= 3 segments");
    assert_recovery_arc(&res.records);
    std::fs::remove_dir_all(&dir).ok();
}

/// With a manual clock advanced per frame, two identical runs write
/// byte-identical log files — the log inherits the pipeline's replay
/// determinism (segment seals included).
#[test]
fn identical_runs_write_byte_identical_logs() {
    let (night, day) = night_then_day(40);
    let run = |tag: &str| {
        let dir = scratch(tag);
        let mut odin = new_odin();
        let clock = Arc::new(ManualClock::new());
        odin.telemetry().set_clock(clock.clone());
        odin.enable_store(&dir, CheckpointPolicy::Manual).expect("enable_store");
        for f in night.iter().chain(&day) {
            odin.process(f);
            clock.advance_ms(1.0);
        }
        odin.flush_store();
        let bytes = std::fs::read(dir.join(EVENT_LOG_FILE)).expect("log written");
        std::fs::remove_dir_all(&dir).ok();
        bytes
    };
    let a = run("det-a");
    let b = run("det-b");
    assert!(!a.is_empty());
    assert_eq!(a, b, "event log bytes diverged between identical runs");
}

/// Crash/restore on a 2-stream server with a torn segment write: the
/// intact prefix scans, the reopened writer resumes past both the
/// checkpointed position and the file tail (no sequence reuse), and a
/// full recovery arc is still reconstructable afterwards.
#[test]
fn crash_mid_write_resumes_sequence_and_keeps_arcs() {
    let dir = scratch("crash");
    let cfg =
        ServerConfig { streams: 2, workers: 2, queue_cap: 64, batch_max: 8, odin: quick_cfg() };
    let frames = [night_then_day(40), night_then_day(30)];
    let server = OdinServer::build(
        cfg,
        |_| Box::new(HistogramEncoder::new()),
        Detector::heavy(48, &mut StdRng::seed_from_u64(0)),
        42,
    );
    for i in 0..2 {
        server.with_shard(i, |o| o.telemetry().clear_sinks());
    }
    server.enable_store(&dir, CheckpointPolicy::Manual).expect("enable_store");
    for (stream, (night, day)) in frames.iter().enumerate() {
        for f in night.iter().chain(day) {
            server.process(stream, f.clone()).expect("admitted");
        }
    }
    server.drain();
    for i in 0..2 {
        server.with_shard(i, |o| o.flush_store());
    }
    server.checkpoint_all(&dir).expect("checkpoint_all");
    let shard0_log = dir.join(STREAMS_DIR).join("0").join(EVENT_LOG_FILE);
    let before = scan_store(&dir, &Predicate::default()).expect("scan before crash");
    assert!(before.records.iter().any(|r| r.stream == 1), "fixture: stream 1 silent");
    drop(server);

    // Crash mid-flush: chop the last segment in half.
    let bytes = std::fs::read(&shard0_log).expect("log exists");
    std::fs::write(&shard0_log, &bytes[..bytes.len() - 30]).expect("tear");
    let torn = scan_log(&shard0_log, &Predicate::default()).expect("scan torn");
    assert!(torn.stats.torn_tail, "fixture must actually tear a segment");
    let tail_seq = torn.records.last().map(|r| r.seq).unwrap_or(0);

    let cfg =
        ServerConfig { streams: 2, workers: 2, queue_cap: 64, batch_max: 8, odin: quick_cfg() };
    let restored = OdinServer::restore_from_dir(&dir, cfg).expect("restore");
    for i in 0..2 {
        restored.with_shard(i, |o| o.telemetry().clear_sinks());
    }
    restored.enable_store(&dir, CheckpointPolicy::Manual).expect("re-enable store");
    let probe = {
        let gen = SceneGen::new(48);
        gen.subset_frames(&mut StdRng::seed_from_u64(99), Subset::Rain, 10)
    };
    for f in &probe {
        restored.process(0, f.clone()).expect("admitted");
        restored.process(1, f.clone()).expect("admitted");
    }
    restored.drain();
    for i in 0..2 {
        restored.with_shard(i, |o| o.flush_store());
    }

    let after = scan_log(&shard0_log, &Predicate::default()).expect("scan after restore");
    assert!(!after.stats.torn_tail, "reopen must heal the torn tail");
    assert!(after.records.len() > torn.records.len(), "post-restore records missing");
    for w in after.records.windows(2) {
        assert!(w[1].seq > w[0].seq, "sequence reused across the crash");
    }
    let first_new = after.records[torn.records.len()].seq;
    assert!(
        first_new > tail_seq,
        "resumed seq {first_new} does not clear the torn tail {tail_seq}"
    );

    // The whole store still joins into recovery arcs per stream.
    let merged = scan_store(&dir, &Predicate::default()).expect("scan store");
    for stream in 0..2u32 {
        let shard: Vec<LogRecord> =
            merged.records.iter().filter(|r| r.stream == stream).copied().collect();
        assert!(!shard.is_empty());
        assert_recovery_arc(&shard);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The event-log metric family and health fields are live: appends are
/// counted per shard, the queue drains after a flush, and healthz
/// exposes each shard's queue depth.
#[test]
fn metrics_and_healthz_surface_the_event_log() {
    let dir = scratch("metrics");
    let cfg =
        ServerConfig { streams: 2, workers: 2, queue_cap: 64, batch_max: 8, odin: quick_cfg() };
    let server = OdinServer::build(
        cfg,
        |_| Box::new(HistogramEncoder::new()),
        Detector::heavy(48, &mut StdRng::seed_from_u64(0)),
        42,
    );
    for i in 0..2 {
        server.with_shard(i, |o| o.telemetry().clear_sinks());
    }
    server.enable_store(&dir, CheckpointPolicy::Manual).expect("enable_store");
    let gen = SceneGen::new(48);
    let probe = gen.subset_frames(&mut StdRng::seed_from_u64(5), Subset::Day, 6);
    for f in &probe {
        server.process(0, f.clone()).expect("admitted");
        server.process(1, f.clone()).expect("admitted");
    }
    server.drain();
    for i in 0..2 {
        server.with_shard(i, |o| o.flush_store());
    }

    let metrics = server.render_metrics();
    assert!(metrics.contains("odin_event_log_appended_total{stream=\"0\"} 6"), "{metrics}");
    assert!(metrics.contains("odin_event_log_appended_total{stream=\"1\"} 6"), "{metrics}");
    assert!(metrics.contains("odin_event_log_dropped_total{stream=\"0\"} 0"), "{metrics}");
    assert!(metrics.contains("odin_event_log_queue_depth{stream=\"0\"} 0"), "{metrics}");
    let health = server.render_healthz();
    assert!(health.contains("\"event_log_queue_depths\":[0,0]"), "{health}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A disk failure on the event-log thread turns `/healthz` degraded on
/// its own — nobody has to call flush — and the next flush reports it.
/// Retention compaction is the failing write here: a directory squats
/// on its tmp path, which no permission bit (or root) can get past.
#[test]
fn event_log_disk_failure_degrades_health_without_a_flush() {
    let dir = scratch("disk-failure");
    let mut cfg = quick_cfg();
    cfg.event_log.retention = RetentionConfig { max_bytes: 1, max_age_us: 0 };
    let cfg = ServerConfig { streams: 1, workers: 1, queue_cap: 64, batch_max: 8, odin: cfg };
    let server = OdinServer::build(
        cfg,
        |_| Box::new(HistogramEncoder::new()),
        Detector::heavy(48, &mut StdRng::seed_from_u64(0)),
        42,
    );
    server.with_shard(0, |o| o.telemetry().clear_sinks());
    server.enable_store(&dir, CheckpointPolicy::Manual).expect("enable_store");
    let shard_dir = dir.join(STREAMS_DIR).join("0");
    std::fs::create_dir_all(shard_dir.join(format!("{EVENT_LOG_FILE}.tmp"))).expect("squat");
    let (night, _) = night_then_day(40);
    // 40 frames seal two 16-record segments; the second one is over
    // budget, so its compaction fails.
    for f in &night {
        server.process(0, f.clone()).expect("admitted");
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.with_shard(0, |o| o.stats().store_errors) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let health = server.render_healthz();
    assert!(health.contains("\"status\":\"degraded\""), "{health}");
    server.with_shard(0, |o| o.flush_store());
    let last = server.with_shard(0, |o| o.telemetry().last_store_error());
    let last = last.expect("the flush reports the failure");
    assert!(last.starts_with("event-log flush failed"), "{last}");
    std::fs::remove_dir_all(&dir).ok();
}

/// An attic reinstall logs a distinct recovery arc: on one trace id,
/// detect → attic hit → install, in causal order, with *no* train-queue
/// record (nothing was queued — the cached model was reinstalled), all
/// about the same cluster.
#[test]
fn attic_hit_joins_the_recovery_arc() {
    let dir = scratch("attic-arc");
    let base = quick_cfg();
    let cfg = OdinConfig {
        manager: ManagerConfig { max_clusters: Some(1), ..base.manager },
        min_train_frames: 16,
        attic: AtticConfig::enabled(),
        ..base
    };
    let mut odin = {
        let mut rng = StdRng::seed_from_u64(0);
        let teacher = Detector::heavy(48, &mut rng);
        Odin::new(Box::new(HistogramEncoder::new()), teacher, cfg, 42)
    };
    odin.telemetry().clear_sinks();
    odin.enable_store(&dir, CheckpointPolicy::Manual).expect("enable_store");

    // Night, day, night, ...: from the third window on, each switch
    // returns to a regime whose model sits in the attic.
    let gen = SceneGen::new(48);
    let mut rng = StdRng::seed_from_u64(2);
    let stream = RecurringSchedule::alternating(360, 60, &[Subset::Night, Subset::Day])
        .generate(&gen, &mut rng);
    odin.process_stream(&stream);
    odin.flush_store();

    let res = scan_log(&dir.join(EVENT_LOG_FILE), &Predicate::default()).expect("scan");
    let hits: Vec<&LogRecord> =
        res.records.iter().filter(|r| r.kind == RecordKind::AtticHit).collect();
    assert!(!hits.is_empty(), "recurring stream produced no attic hits");
    for hit in hits {
        let arc: Vec<&LogRecord> = res
            .records
            .iter()
            .filter(|r| r.trace == hit.trace && r.kind != RecordKind::Frame)
            .collect();
        let pos = |k: RecordKind| arc.iter().position(|r| r.kind == k);
        let detect = pos(RecordKind::DriftDetected).expect("attic arc lost its drift record");
        let reinstall = pos(RecordKind::AtticHit).unwrap();
        let installed = pos(RecordKind::ModelInstalled).expect("attic arc never installed");
        assert!(detect < reinstall && reinstall < installed, "attic arc out of causal order");
        assert!(pos(RecordKind::TrainQueued).is_none(), "attic hit still queued a train job");
        assert_eq!(arc[detect].cluster, arc[installed].cluster, "attic arc spans two clusters");
        assert_eq!(
            arc[installed].latency_us, 0,
            "reinstall must report zero train latency (nothing was trained)"
        );
    }
    // The kind filter reaches the same records through the zone maps.
    let filtered = scan_log(
        &dir.join(EVENT_LOG_FILE),
        &Predicate { kind: Some(RecordKind::AtticHit), ..Predicate::default() },
    )
    .expect("scan attic_hit");
    assert!(!filtered.records.is_empty());
    assert!(filtered.records.iter().all(|r| r.kind == RecordKind::AtticHit));
    std::fs::remove_dir_all(&dir).ok();
}

/// Disabled by default: no writer, no file, no metric movement.
#[test]
fn disabled_log_writes_nothing() {
    let dir = scratch("disabled");
    let mut odin = {
        let mut rng = StdRng::seed_from_u64(0);
        let teacher = Detector::heavy(48, &mut rng);
        let cfg = OdinConfig { event_log: EventLogConfig::default(), ..quick_cfg() };
        Odin::new(Box::new(HistogramEncoder::new()), teacher, cfg, 42)
    };
    odin.telemetry().clear_sinks();
    odin.enable_store(&dir, CheckpointPolicy::Manual).expect("enable_store");
    let (night, _) = night_then_day(10);
    odin.process_stream(&night);
    odin.flush_store();
    assert!(!dir.join(EVENT_LOG_FILE).exists(), "disabled log still wrote a file");
    let metrics = render_prometheus_grouped(&[("0".into(), odin.telemetry().snapshot())]);
    assert!(metrics.contains("odin_event_log_appended_total{stream=\"0\"} 0\n"), "{metrics}");
    std::fs::remove_dir_all(&dir).ok();
}
