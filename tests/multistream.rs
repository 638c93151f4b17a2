//! Multi-stream sharded serving: shard isolation and per-shard
//! checkpoint/restore.
//!
//! The contracts pinned here:
//!
//! * **Isolation** — a stream served through [`OdinServer`] behaves
//!   bit-identically to a standalone [`Odin`] fed the same frames with
//!   the same seed, no matter what the *other* streams are doing. Two
//!   streams with different drift schedules never cross-contaminate
//!   detectors, clusters, or models.
//! * **Restore** — a 4-stream server checkpoint restores every shard
//!   bit-identically (shared encoder/teacher sections deduped into
//!   `shared.odst`), and restoring ONE shard rolls only that shard
//!   back, leaving the others untouched.

use std::path::PathBuf;

use odin_core::encoder::HistogramEncoder;
use odin_core::pipeline::{Odin, OdinConfig};
use odin_core::server::{OdinServer, ServerConfig};
use odin_core::specializer::SpecializerConfig;
use odin_core::training::TrainingMode;
use odin_core::SHARED_SNAPSHOT_FILE;
use odin_data::{Frame, SceneGen, Subset};
use odin_detect::{Detection, Detector, DetectorArch};
use odin_drift::ManagerConfig;
use proptest::prelude::*;
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

fn server_cfg(streams: usize, training: TrainingMode) -> ServerConfig {
    ServerConfig { streams, workers: 2, queue_cap: 64, batch_max: 8, odin: quick_cfg(training) }
}

fn teacher() -> Detector {
    let mut rng = StdRng::seed_from_u64(0);
    Detector::heavy(48, &mut rng)
}

const SEED: u64 = 42;

fn new_server(cfg: ServerConfig) -> OdinServer {
    let server = OdinServer::build(cfg, |_| Box::new(HistogramEncoder::new()), teacher(), SEED);
    for i in 0..server.streams() {
        server.with_shard(i, |o| o.telemetry().clear_sinks());
    }
    server
}

/// A standalone pipeline configured exactly like server shard `stream`
/// (same teacher weights, same per-shard seed, inline training).
fn standalone_shard(stream: usize, training: TrainingMode) -> Odin {
    let odin = Odin::new(
        Box::new(HistogramEncoder::new()),
        teacher(),
        quick_cfg(training),
        SEED.wrapping_add(stream as u64),
    );
    odin.telemetry().clear_sinks();
    odin
}

fn stream_frames(subset: Subset, seed: u64, n: usize) -> Vec<Frame> {
    let gen = SceneGen::new(48);
    let mut rng = StdRng::seed_from_u64(seed);
    gen.subset_frames(&mut rng, subset, n)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("odin-mstream-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

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

/// Per-shard model parameters, keyed by LOCAL cluster id (resolved
/// through the shard's namespace in whatever registry it is attached
/// to — shared for server shards, private for standalone pipelines).
fn shard_params(odin: &Odin) -> Vec<(usize, Vec<f32>)> {
    let registry = odin.registry();
    let registry = registry.read();
    odin.model_ids()
        .into_iter()
        .map(|id| {
            (id, registry.get(odin.ns_base() + id).expect("registered").detector.export_params())
        })
        .collect()
}

/// Round-robin two streams' frames through the server, returning each
/// stream's results in order. Interleaving exercises the shared worker
/// partition; per-shard FIFO makes the interleaving invisible.
fn serve_interleaved(
    server: &OdinServer,
    frames: &[Vec<Frame>],
) -> Vec<Vec<odin_core::FrameResult>> {
    let mut out: Vec<Vec<odin_core::FrameResult>> = frames.iter().map(|_| Vec::new()).collect();
    let longest = frames.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (stream, stream_frames) in frames.iter().enumerate() {
            if let Some(f) = stream_frames.get(i) {
                out[stream].push(server.process(stream, f.clone()).expect("admitted"));
            }
        }
    }
    out
}

const SUBSETS: [Subset; 4] = [Subset::Day, Subset::Night, Subset::Rain, Subset::Snow];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Two concurrently-served streams with different (arbitrary) drift
    /// schedules each behave bit-identically to a standalone pipeline:
    /// same detections, same serving path, same trained models. Drift
    /// on one stream never leaks into the other's shard.
    #[test]
    fn shards_never_cross_contaminate(
        sub_a in 0usize..4,
        sub_b in 0usize..4,
        seed_a in 1u64..500,
        seed_b in 500u64..1000,
    ) {
        let frames = vec![
            stream_frames(SUBSETS[sub_a], seed_a, 40),
            stream_frames(SUBSETS[sub_b], seed_b, 40),
        ];
        let server = new_server(server_cfg(2, TrainingMode::Inline));
        let served = serve_interleaved(&server, &frames);

        for stream in 0..2 {
            let mut solo = standalone_shard(stream, TrainingMode::Inline);
            let solo_res = solo.process_stream(&frames[stream]);
            prop_assert_eq!(solo_res.len(), served[stream].len());
            for (a, b) in solo_res.iter().zip(&served[stream]) {
                prop_assert_eq!(a.served_by, b.served_by, "ServedBy diverged on stream {}", stream);
                prop_assert_eq!(&a.assignment, &b.assignment);
                prop_assert_eq!(fingerprint(&a.detections), fingerprint(&b.detections));
            }
            let shard_p = server.with_shard(stream, |o| shard_params(o));
            prop_assert_eq!(shard_p, shard_params(&solo), "models diverged on stream {}", stream);
            let (solo_mem, shard_mem) = (
                solo.memory_bytes(),
                server.with_shard(stream, |o| o.memory_bytes()),
            );
            prop_assert_eq!(shard_mem, solo_mem);
        }
    }
}

/// The shared registry holds every shard's models under disjoint
/// namespaces; the shards' local views are disjoint projections.
#[test]
fn shared_registry_partitions_by_namespace() {
    let frames = vec![stream_frames(Subset::Night, 7, 60), stream_frames(Subset::Day, 8, 60)];
    let server = new_server(server_cfg(2, TrainingMode::Inline));
    serve_interleaved(&server, &frames);

    let m0 = server.with_shard(0, |o| o.model_count());
    let m1 = server.with_shard(1, |o| o.model_count());
    assert!(m0 > 0, "stream 0 trained no model");
    assert!(m1 > 0, "stream 1 trained no model");
    // Both shards' models live in ONE registry, totals add up...
    assert_eq!(server.registry().read().len(), m0 + m1);
    // ...and each shard sees only its own namespace.
    let ids0 = server.with_shard(0, |o| o.model_ids());
    let ids1 = server.with_shard(1, |o| o.model_ids());
    assert!(ids0.iter().all(|id| *id < odin_core::NS_STRIDE));
    assert!(ids1.iter().all(|id| *id < odin_core::NS_STRIDE));
}

/// Background training through the shared router converges every shard
/// to the same models as inline training: jobs fan into one pool, but
/// results route back only to the submitting shard.
#[test]
fn shared_training_pool_routes_models_to_their_shard() {
    let frames = vec![stream_frames(Subset::Night, 7, 60), stream_frames(Subset::Day, 8, 60)];
    let solos: Vec<_> = frames
        .iter()
        .enumerate()
        .map(|(stream, stream_frames)| {
            let mut solo = standalone_shard(stream, TrainingMode::Inline);
            solo.process_stream(stream_frames);
            solo.finish_training();
            assert!(solo.model_count() > 0, "fixture trained no model");
            shard_params(&solo)
        })
        .collect();
    // One worker leaves the waiting thread queued jobs to train itself.
    for workers in [1, 2] {
        let server = new_server(server_cfg(2, TrainingMode::Background { workers }));
        serve_interleaved(&server, &frames);
        server.finish_training();
        for (stream, solo) in solos.iter().enumerate() {
            assert_eq!(
                &server.with_shard(stream, |o| shard_params(o)),
                solo,
                "background-trained models diverged on stream {stream} ({workers} worker(s))"
            );
        }
    }
}

/// A shared background trainer records each job into the *submitting*
/// shard's telemetry: the `train` span sits in that shard's own flight
/// record (so `/flight` shows it), parented on the shard's
/// `train_job_queued` marker with ids from the shard's own namespace,
/// and the `install` marker parents onto it — one unbroken recovery
/// trace per stream, whichever worker thread trained.
#[test]
fn background_train_spans_land_in_the_submitting_shards_flight_record() {
    let frames = vec![stream_frames(Subset::Night, 7, 60), stream_frames(Subset::Day, 8, 60)];
    let server = new_server(server_cfg(2, TrainingMode::Background { workers: 2 }));
    serve_interleaved(&server, &frames);
    server.finish_training();

    for stream in 0..2u64 {
        let rec = server.with_shard(stream as usize, |o| o.telemetry().flight_record());
        let queued = rec
            .spans
            .iter()
            .find(|s| s.name == "train_job_queued")
            .unwrap_or_else(|| panic!("stream {stream} queued no training job"));
        let train =
            rec.spans.iter().find(|s| s.name == "train" && s.parent == queued.id).unwrap_or_else(
                || panic!("stream {stream}: no train span under its queued marker"),
            );
        assert_eq!(train.trace, queued.trace, "train span left the recovery trace");
        let namespace = (stream << 40) + 1..(stream + 1) << 40;
        assert!(
            namespace.contains(&train.id),
            "train span id {} is not stream {stream}'s",
            train.id
        );
        assert!(
            rec.spans.iter().any(|s| s.name == "install" && s.parent == train.id),
            "stream {stream}: install marker is not parented on the shard's train span"
        );
    }
}

/// `/healthz` of a sharded server reports `"degraded"` (with the error
/// total) once any shard's store has failed — what `odin status` and
/// `odin top` turn into a non-zero exit — and the other shards, and the
/// failing shard's serving path, carry on.
#[test]
fn healthz_degrades_when_one_shards_store_fails() {
    let dir = scratch("broken-store");
    let server = new_server(server_cfg(2, TrainingMode::Inline));
    server.enable_store(&dir, odin_core::CheckpointPolicy::EveryNFrames(4)).expect("enable_store");
    let frames = stream_frames(Subset::Day, 8, 16);
    for f in &frames[..8] {
        server.process(1, f.clone()).expect("admitted");
    }
    server.with_shard(1, |o| o.flush_store());
    let health = server.render_healthz();
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("\"store_errors\":0"), "{health}");

    // Replace stream 1's store directory with a regular file: its WAL
    // survives through the open handle, but every snapshot write now
    // fails with ENOTDIR.
    let sdir = dir.join("streams").join("1");
    std::fs::remove_dir_all(&sdir).expect("remove shard store dir");
    std::fs::write(&sdir, b"not a directory").expect("plant blocking file");
    for f in &frames[8..] {
        server.process(1, f.clone()).expect("a failing store must not stop serving");
        server.process(0, f.clone()).expect("the healthy shard serves");
    }
    for i in 0..2 {
        server.with_shard(i, |o| o.flush_store());
    }
    let health = server.render_healthz();
    assert!(health.contains("\"status\":\"degraded\""), "{health}");
    assert!(!health.contains("\"store_errors\":0"), "{health}");
    assert!(health.contains("\"streams\":2"), "{health}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `checkpoint_all` + `restore_from_dir`: every shard of a 4-stream
/// server restores bit-identically (models, memory, inference), with
/// the encoder/teacher deduped into one `shared.odst`.
#[test]
fn four_stream_checkpoint_restores_every_shard_bit_identically() {
    let dir = scratch("restore-all");
    let subsets = [Subset::Night, Subset::Day, Subset::Rain, Subset::Snow];
    let frames: Vec<Vec<Frame>> =
        subsets.iter().enumerate().map(|(i, s)| stream_frames(*s, 20 + i as u64, 60)).collect();
    let cfg = server_cfg(4, TrainingMode::Inline);
    let server = new_server(cfg);
    serve_interleaved(&server, &frames);
    server.drain();
    server.checkpoint_all(&dir).expect("checkpoint_all");
    assert!(dir.join(SHARED_SNAPSHOT_FILE).exists(), "shared sections were not deduped");

    let restored = OdinServer::restore_from_dir(&dir, cfg).expect("restore");
    let probe = stream_frames(Subset::Day, 99, 5);
    for stream in 0..4 {
        assert_eq!(
            restored.with_shard(stream, |o| shard_params(o)),
            server.with_shard(stream, |o| shard_params(o)),
            "stream {stream} models diverged after restore"
        );
        assert_eq!(
            restored.with_shard(stream, |o| o.memory_bytes()),
            server.with_shard(stream, |o| o.memory_bytes()),
        );
        for f in &probe {
            assert_eq!(
                restored.with_shard(stream, |o| fingerprint(&o.infer_only(f))),
                server.with_shard(stream, |o| fingerprint(&o.infer_only(f))),
                "stream {stream} inference diverged after restore"
            );
        }
    }
    // The dedup actually happened: no shard snapshot embeds the
    // encoder/teacher sections, so each is far smaller than shared.odst
    // (the teacher dominates both).
    let shared_len = std::fs::metadata(dir.join(SHARED_SNAPSHOT_FILE)).unwrap().len();
    for stream in 0..4 {
        let snap = dir.join("streams").join(stream.to_string()).join("snapshot.odst");
        let len = std::fs::metadata(&snap).expect("shard snapshot").len();
        assert!(
            len < shared_len,
            "stream {stream} snapshot ({len} B) should be smaller than shared.odst ({shared_len} B)"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Per-shard store files never clobber each other: with a store (and
/// the event log) attached, every shard keeps its WAL, event log, and
/// flight-recorder auto-dump under its own `streams/<id>/` directory,
/// and nothing lands at the store root where a second shard could
/// overwrite it.
#[test]
fn store_files_are_namespaced_per_shard() {
    use odin_core::{EventLogConfig, EVENT_LOG_FILE, FLIGHT_FILE, WAL_FILE};

    let dir = scratch("namespaced");
    let mut cfg = server_cfg(2, TrainingMode::Inline);
    cfg.odin.event_log = EventLogConfig::enabled();
    let frames = vec![stream_frames(Subset::Night, 7, 60), stream_frames(Subset::Day, 8, 60)];
    let server = new_server(cfg);
    server.enable_store(&dir, odin_core::CheckpointPolicy::Manual).expect("enable_store");
    serve_interleaved(&server, &frames);
    server.drain();
    for i in 0..2 {
        server.with_shard(i, |o| o.flush_store());
    }

    for stream in 0..2 {
        let sdir = dir.join("streams").join(stream.to_string());
        for file in [WAL_FILE, EVENT_LOG_FILE, FLIGHT_FILE] {
            assert!(
                sdir.join(file).exists(),
                "stream {stream} is missing {file} in its namespace directory"
            );
        }
    }
    // Nothing shard-specific at the root: a clobber would show up here.
    for file in [WAL_FILE, EVENT_LOG_FILE, FLIGHT_FILE] {
        assert!(!dir.join(file).exists(), "{file} leaked to the store root");
    }
    // The two shards really wrote distinct logs (different drift
    // schedules => different contents), not one file twice.
    let log0 = std::fs::read(dir.join("streams/0").join(EVENT_LOG_FILE)).unwrap();
    let log1 = std::fs::read(dir.join("streams/1").join(EVENT_LOG_FILE)).unwrap();
    assert_ne!(log0, log1, "shards shared one event log");
    std::fs::remove_dir_all(&dir).ok();
}

/// `restore_shard` rolls ONE stream back to the checkpoint while the
/// other keeps its post-checkpoint state — targeted recovery after a
/// bad model lands on one camera.
#[test]
fn restoring_one_shard_leaves_the_other_untouched() {
    let dir = scratch("restore-one");
    // Stream 0's concept straddles the checkpoint: only 8 of its Night
    // frames land before the snapshot (short of `min_points`), so its
    // cluster promotes — and its model trains — entirely afterwards.
    // Stream 1 learns its concept entirely before the checkpoint.
    let night = stream_frames(Subset::Night, 7, 60);
    let early = vec![night[..8].to_vec(), stream_frames(Subset::Day, 8, 60)];
    let late = vec![night[8..].to_vec(), stream_frames(Subset::Day, 10, 10)];
    let server = new_server(server_cfg(2, TrainingMode::Inline));
    serve_interleaved(&server, &early);
    server.drain();
    server.checkpoint_all(&dir).expect("checkpoint_all");
    let at_ckpt: Vec<_> = (0..2).map(|s| server.with_shard(s, |o| shard_params(o))).collect();
    assert!(at_ckpt[0].is_empty(), "fixture: stream 0 must not have trained yet");

    serve_interleaved(&server, &late);
    server.drain();
    let after: Vec<_> = (0..2).map(|s| server.with_shard(s, |o| shard_params(o))).collect();
    assert_ne!(at_ckpt[0], after[0], "fixture: stream 0 should have learned post-checkpoint");

    server.restore_shard(0, &dir).expect("restore shard 0");
    // Stream 0 is back at the checkpoint; stream 1 still has its
    // post-checkpoint models, in the shared registry and in its view.
    assert_eq!(server.with_shard(0, |o| shard_params(o)), at_ckpt[0]);
    assert_eq!(server.with_shard(1, |o| shard_params(o)), after[1]);
    let m0 = server.with_shard(0, |o| o.model_count());
    let m1 = server.with_shard(1, |o| o.model_count());
    assert_eq!(server.registry().read().len(), m0 + m1, "stale namespace entries survived");

    // The rolled-back shard still serves (and can learn again).
    let probe = stream_frames(Subset::Day, 99, 3);
    for f in &probe {
        server.process(0, f.clone()).expect("restored shard serves");
        server.process(1, f.clone()).expect("untouched shard serves");
    }
    std::fs::remove_dir_all(&dir).ok();
}
