//! Golden bytes of the core wire shapes: the sharded server's
//! `/healthz`, a two-stream `GET /events` page (and the empty page
//! after it), and `LogRecord::to_json`. `odin status/top/tail`, CI's
//! `jq` checks and any scraper read these bytes; a change to them is a
//! wire change, not a refactor. Every clock is a `ManualClock`, so the
//! pages are a pure function of the frames and seeds.

use std::path::PathBuf;
use std::sync::Arc;

use odin_core::encoder::HistogramEncoder;
use odin_core::pipeline::OdinConfig;
use odin_core::server::{OdinServer, ServerConfig};
use odin_core::specializer::SpecializerConfig;
use odin_core::training::TrainingMode;
use odin_core::{CheckpointPolicy, EventLogConfig};
use odin_data::{SceneGen, Subset};
use odin_detect::{Detector, DetectorArch};
use odin_log::{LogRecord, RecordKind, ServedLabel};
use odin_telemetry::ManualClock;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("odin-golden-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn two_stream_server() -> OdinServer {
    let odin = OdinConfig {
        specializer: SpecializerConfig {
            arch: DetectorArch::Small,
            frame_size: 48,
            train_iters: 30,
            distill_iters: 20,
            batch_size: 4,
        },
        training: TrainingMode::Inline,
        event_log: EventLogConfig {
            enabled: true,
            queue_cap: 256,
            segment_records: 4,
            ..Default::default()
        },
        ..OdinConfig::default()
    };
    let cfg = ServerConfig { streams: 2, workers: 1, queue_cap: 16, batch_max: 1, odin };
    let server = OdinServer::build(
        cfg,
        |_| Box::new(HistogramEncoder::new()),
        Detector::heavy(48, &mut StdRng::seed_from_u64(0)),
        42,
    );
    for i in 0..2 {
        server.with_shard(i, |o| {
            o.telemetry().clear_sinks();
            o.telemetry().set_clock(Arc::new(ManualClock::new()));
        });
    }
    server
}

#[test]
fn sharded_healthz_bytes_are_pinned() {
    let server = two_stream_server();
    assert_eq!(
        server.render_healthz(),
        concat!(
            r#"{"status":"ok","streams":2,"queue_cap":16,"queue_depths":[0,0],"#,
            r#""event_log_queue_depths":[0,0],"store_errors":0}"#
        )
    );
}

#[test]
fn two_stream_events_page_bytes_are_pinned() {
    let dir = scratch("events");
    let mut server = two_stream_server();
    server.enable_store(&dir, CheckpointPolicy::Manual).expect("enable_store");
    let frames = SceneGen::new(48).subset_frames(&mut StdRng::seed_from_u64(2), Subset::Day, 5);
    for f in &frames {
        server.process(0, f.clone()).expect("admitted");
    }
    for f in frames[2..].iter().rev() {
        server.process(1, f.clone()).expect("admitted");
    }
    server.drain();
    for i in 0..2 {
        server.with_shard(i, |o| o.flush_store());
    }
    let addr = server.serve("127.0.0.1:0").expect("bind");

    let (status, page) = odin_telemetry::http::get(addr, "/events?limit=2").expect("events");
    assert!(status.contains("200"), "{status}: {page}");
    assert_eq!(
        page,
        concat!(
            r#"{"cursor":"2:8,0:8","count":2,"records":[{"seq":1,"kind":"frame","ts_us":0,"frame":0,"stream":0,"cluster":-1,"served":"teacher","dets":18,"conf_mean":0.3297,"conf_max":0.4548,"latency_us":0,"trace":2},"#,
            r#"{"seq":2,"kind":"frame","ts_us":0,"frame":1,"stream":0,"cluster":-1,"served":"teacher","dets":19,"conf_mean":0.3336,"conf_max":0.5361,"latency_us":0,"trace":4}]}"#,
        )
    );
    let (status, page) =
        odin_telemetry::http::get(addr, "/events?cursor=2:8,2:8&limit=8").expect("events");
    assert!(status.contains("200"), "{status}: {page}");
    assert_eq!(
        page,
        concat!(
            r#"{"cursor":"5:514,3:274","count":4,"records":[{"seq":3,"kind":"frame","ts_us":0,"frame":2,"stream":0,"cluster":-1,"served":"teacher","dets":19,"conf_mean":0.3322,"conf_max":0.4343,"latency_us":0,"trace":6},"#,
            r#"{"seq":4,"kind":"frame","ts_us":0,"frame":3,"stream":0,"cluster":-1,"served":"teacher","dets":20,"conf_mean":0.3227,"conf_max":0.4343,"latency_us":0,"trace":8},"#,
            r#"{"seq":5,"kind":"frame","ts_us":0,"frame":4,"stream":0,"cluster":-1,"served":"teacher","dets":18,"conf_mean":0.2936,"conf_max":0.3671,"latency_us":0,"trace":10},"#,
            r#"{"seq":3,"kind":"frame","ts_us":0,"frame":2,"stream":1,"cluster":-1,"served":"teacher","dets":19,"conf_mean":0.3322,"conf_max":0.4343,"latency_us":0,"trace":1099511627782}]}"#,
        )
    );
    let (status, page) =
        odin_telemetry::http::get(addr, "/events?cursor=5:514,3:274").expect("events");
    assert!(status.contains("200"), "{status}: {page}");
    assert_eq!(page, r#"{"cursor":"5:514,3:274","count":0,"records":[]}"#);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn log_record_json_bytes_are_pinned() {
    let rec = LogRecord {
        seq: 9,
        kind: RecordKind::DriftDetected,
        ts_us: 123_456,
        frame: 42,
        stream: 3,
        cluster: -1,
        served: ServedLabel::Teacher,
        dets: 2,
        conf_mean: 0.123_456,
        conf_max: 0.75,
        latency_us: 810,
        trace: u64::MAX,
    };
    assert_eq!(
        rec.to_json(),
        concat!(
            r#"{"seq":9,"kind":"drift_detected","ts_us":123456,"frame":42,"stream":3,"#,
            r#""cluster":-1,"served":"teacher","dets":2,"conf_mean":0.1235,"conf_max":0.7500,"#,
            r#""latency_us":810,"trace":18446744073709551615}"#
        )
    );
    assert_eq!(
        LogRecord::empty().to_json(),
        concat!(
            r#"{"seq":0,"kind":"frame","ts_us":0,"frame":0,"stream":0,"cluster":-1,"#,
            r#""served":"-","dets":0,"conf_mean":0.0000,"conf_max":0.0000,"latency_us":0,"trace":0}"#
        )
    );
}
