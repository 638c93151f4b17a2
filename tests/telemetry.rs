//! Telemetry contracts: expositions are bit-identical at any
//! `ODIN_THREADS` and across checkpoint/restore (given a manual clock),
//! store failures are counted and surfaced instead of silently dropped,
//! and the drift timeline records the full detect → queue → install arc.

use std::path::PathBuf;
use std::sync::Arc;

use odin_core::encoder::HistogramEncoder;
use odin_core::pipeline::{Odin, OdinConfig};
use odin_core::specializer::SpecializerConfig;
use odin_core::training::TrainingMode;
use odin_core::CheckpointPolicy;
use odin_data::{Frame, SceneGen, Subset};
use odin_detect::{Detector, DetectorArch};
use odin_drift::ManagerConfig;
use odin_telemetry::{render_prometheus_grouped, Level, ManualClock, TimelineStage};
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

/// A fresh pipeline with a manual clock installed, so every recorded
/// duration and timestamp is a pure function of the frame stream.
fn new_odin() -> Odin {
    let mut rng = StdRng::seed_from_u64(0);
    let teacher = Detector::heavy(48, &mut rng);
    let odin =
        Odin::new(Box::new(HistogramEncoder::new()), teacher, quick_cfg(TrainingMode::Inline), 42);
    odin.telemetry().set_clock(Arc::new(ManualClock::new()));
    odin.telemetry().clear_sinks();
    odin
}

/// The pipeline's Prometheus exposition, as a one-stream server's
/// `/metrics` serves it.
fn render(odin: &Odin) -> String {
    render_prometheus_grouped(&[("0".into(), odin.telemetry().snapshot())])
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
    let dir = std::env::temp_dir().join(format!("odin-tel-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The exposition is byte-identical when the pipeline runs the same
/// stream on one worker thread vs two: bucket counts come from fixed
/// bounds, timestamps from the manual clock, and iteration order from
/// sorted maps — none of it depends on scheduling.
#[test]
fn renders_are_identical_across_thread_counts() {
    let (night, day) = night_then_day(50);

    let render_with = |threads: usize| {
        odin_tensor::par::set_num_threads(threads);
        let mut odin = new_odin();
        odin.process_stream(&night);
        odin.process_stream(&day);
        render(&odin)
    };

    let prom1 = render_with(1);
    let prom2 = render_with(2);
    assert_eq!(prom1, prom2, "prometheus exposition depends on thread count");
    assert!(prom1.contains("odin_frames_total{stream=\"0\"} 100\n"));
}

/// A checkpoint carries the full telemetry state: the restored pipeline,
/// after serving the same remaining stream, renders byte-for-byte what
/// the original rendered — counters, histogram buckets, and the drift
/// timeline all survive the round trip.
#[test]
fn renders_survive_checkpoint_restore() {
    let path = scratch("roundtrip").join("snap.odst");
    let (night, day) = night_then_day(60);

    let mut original = new_odin();
    original.process_stream(&night);
    original.checkpoint(&path).expect("checkpoint");
    original.process_stream(&day);

    let restored = Odin::restore(&path).expect("restore");
    restored.telemetry().set_clock(Arc::new(ManualClock::new()));
    restored.telemetry().clear_sinks();
    let mut restored = restored;
    restored.process_stream(&day);

    assert_eq!(
        render(&original),
        render(&restored),
        "prometheus exposition diverged across checkpoint/restore"
    );
    assert_eq!(original.telemetry().timeline(), restored.telemetry().timeline());
}

/// The drift timeline records the whole recovery arc in order: drift
/// detected, training job queued, and a model installed — each tagged
/// with the cluster and stream position.
#[test]
fn timeline_records_recovery_arc() {
    let (night, day) = night_then_day(60);
    let mut odin = new_odin();
    odin.process_stream(&night);
    odin.process_stream(&day);

    let timeline = odin.telemetry().timeline();
    let pos = |stage: TimelineStage| timeline.iter().position(|t| t.stage == stage);
    let detected = pos(TimelineStage::DriftDetected).expect("no drift detected");
    let queued = pos(TimelineStage::TrainJobQueued).expect("no job queued");
    let installed = timeline
        .iter()
        .position(|t| {
            matches!(t.stage, TimelineStage::LiteInstalled | TimelineStage::SpecializedInstalled)
        })
        .expect("no model installed");
    assert!(detected < queued, "job queued before drift was detected");
    assert!(queued <= installed, "model installed before its job was queued");
    assert!(timeline[installed].frame >= timeline[detected].frame);

    let stats = odin.stats();
    assert_eq!(stats.store_errors, 0);
    assert_eq!(stats.last_store_error, None);
    assert_eq!(odin.telemetry().snapshot().counters.len(), 22);
}

/// Store failures are machine-visible: when the snapshot directory is
/// destroyed mid-stream, background snapshot writes fail, the failure is
/// counted in `PipelineStats::store_errors`, described in
/// `last_store_error`, and emitted as an error-level event — while the
/// serving path keeps going.
#[test]
fn store_write_failures_are_counted_and_reported() {
    let dir = scratch("broken-store");
    let (night, _) = night_then_day(60);

    let mut odin = new_odin();
    odin.enable_store(&dir, CheckpointPolicy::EveryNFrames(10)).expect("enable store");

    odin.process_stream(&night[..20]);
    odin.flush_store();
    assert_eq!(odin.stats().store_errors, 0, "store failed on a healthy directory");

    // Replace the store directory with a regular file: the WAL survives
    // through its already-open handle, but every atomic snapshot write
    // now fails with ENOTDIR when it creates its temp file.
    std::fs::remove_dir_all(&dir).expect("remove store dir");
    std::fs::write(&dir, b"not a directory").expect("plant blocking file");

    odin.process_stream(&night[20..]);
    odin.flush_store();

    let stats = odin.stats();
    assert!(stats.store_errors > 0, "snapshot writes to a dead dir were not counted");
    let last = stats.last_store_error.expect("no last_store_error recorded");
    assert!(last.contains("snapshot write"), "unexpected error text: {last}");
    assert!(
        odin.telemetry().flight_record().events.iter().any(|e| e.level == Level::Error
            && e.target == "store"
            && e.message.contains("snapshot write")),
        "no error-level store event reached the flight recorder"
    );
    // Serving never stopped: every frame was still processed.
    assert!(render(&odin).contains("odin_frames_total{stream=\"0\"} 60\n"));
    std::fs::remove_file(&dir).ok();
}

/// `odin_recovery_ms` is `recovery_p50_s` server-side: one sample per
/// episode this process saw from drift to install, on the registry's
/// clock, rendered like every other histogram — and nothing for an
/// episode whose start a restart forgot.
#[test]
fn recovery_histogram_times_the_episodes_this_process_saw_open() {
    let recovery = |odin: &Odin| {
        let snap = odin.telemetry().snapshot();
        snap.histograms.into_iter().find(|h| h.name == "odin_recovery_ms").expect("registered")
    };
    let (night, day) = night_then_day(60);
    let mut odin = new_odin();
    odin.process_stream(&night);
    odin.process_stream(&day);
    let installed = odin.stats().models_installed;
    assert!(installed >= 2, "fixture: expected a recovery per regime");
    assert_eq!(recovery(&odin).count, installed, "one sample per completed recovery");
    let rendered = render(&odin);
    assert!(rendered.contains(&format!("odin_recovery_ms_count{{stream=\"0\"}} {installed}\n")));

    // A snapshot taken mid-training, restored: the job is resubmitted
    // and its model installs, but the drift that opened the episode was
    // timed by a clock that no longer exists.
    let path = scratch("recovery-restored").join("snap.odst");
    let mut writer = Odin::new(
        Box::new(HistogramEncoder::new()),
        Detector::heavy(48, &mut StdRng::seed_from_u64(0)),
        quick_cfg(TrainingMode::Background { workers: 1 }),
        42,
    );
    writer.telemetry().clear_sinks();
    night.iter().find(|f| {
        writer.process(f);
        writer.stats().jobs_submitted > 0
    });
    assert_eq!((writer.stats().jobs_submitted, writer.model_count()), (1, 0), "fixture");
    writer.checkpoint(&path).expect("checkpoint mid-training");
    let mut restored = Odin::restore(&path).expect("restore");
    restored.telemetry().clear_sinks();
    restored.finish_training();
    assert_eq!(restored.stats().models_installed, 1, "the resubmitted job installs");
    assert_eq!(recovery(&restored).count, 0, "an episode without a start time observed one");
    writer.finish_training();
    let h = recovery(&writer);
    assert_eq!(h.count, 1, "the writer saw its episode open");
    assert!(h.sum_ns > 0, "collecting and training take time on a real clock");
    std::fs::remove_dir_all(path.parent().expect("scratch dir")).ok();
}
