//! Live-tail contracts: `GET /events` pages the per-stream event logs
//! with durable cursors (no record duplicated, none skipped, torn
//! tails invisible), long-polls until new sealed records arrive, and
//! `GET /flight` serves the live flight recorder; a reader chasing a
//! live writer never observes a torn record; a cursor survives a
//! writer restart; and retention compaction leaves `scan_log` and its
//! [`ScanStats`] consistent on the retained suffix.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use odin_core::encoder::HistogramEncoder;
use odin_core::pipeline::OdinConfig;
use odin_core::server::{OdinServer, ServerConfig};
use odin_core::specializer::SpecializerConfig;
use odin_core::training::TrainingMode;
use odin_core::{CheckpointPolicy, EventLogConfig, RetentionConfig};
use odin_data::{Frame, SceneGen, Subset};
use odin_detect::{Detector, DetectorArch};
use odin_drift::ManagerConfig;
use odin_log::writer::{LogMetrics, LogWriter};
use odin_log::{
    parse_events_page, read_after, read_log, scan_log, Cursor, LogRecord, Predicate, RecordKind,
};
use odin_telemetry::ManualClock;
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
        event_log: EventLogConfig {
            enabled: true,
            queue_cap: 4096,
            segment_records: 16,
            ..Default::default()
        },
        ..OdinConfig::default()
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("odin-tail-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn night_then_day(n_each: usize) -> (Vec<Frame>, Vec<Frame>) {
    let gen = SceneGen::new(48);
    let mut rng = StdRng::seed_from_u64(2);
    (
        gen.subset_frames(&mut rng, Subset::Night, n_each),
        gen.subset_frames(&mut rng, Subset::Day, n_each),
    )
}

fn rec(seq: u64) -> LogRecord {
    LogRecord { seq, ts_us: seq * 1000, frame: seq, ..LogRecord::empty() }
}

/// `GET /events` through the one page reader: the next cursor and
/// the page's records.
fn events(addr: std::net::SocketAddr, path: &str) -> (String, Vec<LogRecord>) {
    let (status, body) = odin_telemetry::http::get(addr, path).expect("events");
    assert!(status.contains("200"), "{status}: {body}");
    parse_events_page(&body).expect("an /events page")
}

/// `GET /events` pages the sharded server's logs end to end: every
/// record is delivered exactly once in per-stream seq order, the
/// recovery arc (drift → install) is visible, the final page is empty
/// with a stable cursor, kind filters narrow the stream, and malformed
/// cursors are rejected.
#[test]
fn http_events_pages_the_sharded_log_with_cursors() {
    let dir = scratch("http");
    let cfg =
        ServerConfig { streams: 2, workers: 2, queue_cap: 64, batch_max: 8, odin: quick_cfg() };
    let mut server = OdinServer::build(
        cfg,
        |_| Box::new(HistogramEncoder::new()),
        Detector::heavy(48, &mut StdRng::seed_from_u64(0)),
        42,
    );
    for i in 0..2 {
        server.with_shard(i, |o| o.telemetry().clear_sinks());
    }
    server.enable_store(&dir, CheckpointPolicy::Manual).expect("enable_store");
    let (night, day) = night_then_day(40);
    for f in night.iter().chain(&day) {
        server.process(0, f.clone()).expect("admitted");
        server.process(1, f.clone()).expect("admitted");
    }
    server.drain();
    for i in 0..2 {
        server.with_shard(i, |o| o.flush_store());
    }
    let addr = server.serve("127.0.0.1:0").expect("bind");

    // healthz surfaces the admission cap for degraded-state probes.
    let (status, health) = odin_telemetry::http::get(addr, "/healthz").expect("healthz");
    assert!(status.contains("200"), "{status}");
    assert!(health.contains("\"queue_cap\":64"), "{health}");

    // Page through everything in small chunks.
    let mut cursor = String::new();
    let mut kinds: Vec<String> = Vec::new();
    let mut per_stream: Vec<Vec<u64>> = vec![Vec::new(); 2];
    loop {
        let (next, records) = events(addr, &format!("/events?cursor={cursor}&limit=32"));
        if records.is_empty() {
            assert_eq!(next, cursor, "empty page must not move the cursor");
            break;
        }
        for r in &records {
            per_stream[r.stream as usize].push(r.seq);
        }
        kinds.extend(records.iter().map(|r| r.kind.name().to_string()));
        cursor = next;
    }
    for (stream, seqs) in per_stream.iter().enumerate() {
        assert!(!seqs.is_empty(), "stream {stream} never surfaced");
        for w in seqs.windows(2) {
            assert!(w[1] > w[0], "stream {stream}: seq {} then {}", w[0], w[1]);
        }
    }
    assert!(kinds.iter().any(|k| k == "drift_detected"), "no drift in {kinds:?}");
    assert!(kinds.iter().any(|k| k == "model_installed"), "no install in {kinds:?}");

    // A kind filter narrows the records but still pages the cursor.
    let (drained, filtered) = events(addr, "/events?kind=drift&limit=1000");
    assert!(!filtered.is_empty());
    assert!(filtered.iter().all(|r| r.kind == RecordKind::DriftDetected), "{filtered:?}");
    assert_eq!(drained, cursor, "full filtered read must land on the drained cursor");

    let (status, _) = odin_telemetry::http::get(addr, "/events?cursor=zap").expect("bad cursor");
    assert!(status.contains("400"), "{status}");
    let (status, _) = odin_telemetry::http::get(addr, "/events?kind=zap").expect("bad kind");
    assert!(status.contains("400"), "{status}");

    // /flight serves the merged live flight recorder as a Chrome trace.
    let (status, body) = odin_telemetry::http::get(addr, "/flight").expect("flight");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"traceEvents\""), "{body}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A long-poll on a one-stream server parks until new sealed records
/// land, then returns them (instead of returning empty immediately or
/// timing out the connection).
#[test]
fn events_long_poll_waits_for_new_records() {
    let dir = scratch("longpoll");
    let cfg =
        ServerConfig { streams: 1, workers: 1, queue_cap: 64, batch_max: 8, odin: quick_cfg() };
    let mut server = OdinServer::build(
        cfg,
        |_| Box::new(HistogramEncoder::new()),
        Detector::heavy(48, &mut StdRng::seed_from_u64(0)),
        42,
    );
    server.with_shard(0, |o| o.telemetry().clear_sinks());
    server.enable_store(&dir, CheckpointPolicy::Manual).expect("enable_store");
    let addr = server.serve("127.0.0.1:0").expect("bind");

    let gen = SceneGen::new(48);
    let frames = gen.subset_frames(&mut StdRng::seed_from_u64(7), Subset::Day, 20);
    for f in &frames[..4] {
        server.process(0, f.clone()).expect("admitted");
    }
    server.with_shard(0, |o| o.flush_store());
    let (cursor, records) = events(addr, "/events");
    assert!(!records.is_empty(), "first read must see the flushed prefix");

    std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(250));
            for f in &frames[4..] {
                server.process(0, f.clone()).expect("admitted");
            }
            server.with_shard(0, |o| o.flush_store());
        });
        let started = Instant::now();
        let (_, records) = events(addr, &format!("/events?cursor={cursor}&wait_ms=2000"));
        assert!(!records.is_empty(), "long poll returned empty");
        assert!(
            started.elapsed() >= Duration::from_millis(200),
            "records were not supposed to exist before the writer thread ran"
        );
    });

    // /flight also works on a one-stream server.
    let (status, body) = odin_telemetry::http::get(addr, "/flight").expect("flight");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"traceEvents\""), "{body}");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `limit` bounds a whole page, not each stream's share of it: three
/// pages of `limit=2` over two streams' six records return every record
/// once, in the `(ts_us, stream, seq)` order of one unbounded page, and
/// the page after them is empty.
#[test]
fn events_limit_bounds_the_page_across_streams() {
    let dir = scratch("limit");
    let cfg =
        ServerConfig { streams: 2, workers: 1, queue_cap: 64, batch_max: 1, odin: quick_cfg() };
    let mut server = OdinServer::build(
        cfg,
        |_| Box::new(HistogramEncoder::new()),
        Detector::heavy(48, &mut StdRng::seed_from_u64(0)),
        42,
    );
    // One manual clock for both shards, advanced between frames, so the
    // records' times interleave the streams.
    let clock = Arc::new(ManualClock::new());
    for i in 0..2 {
        server.with_shard(i, |o| {
            o.telemetry().clear_sinks();
            o.telemetry().set_clock(clock.clone());
        });
    }
    server.enable_store(&dir, CheckpointPolicy::Manual).expect("enable_store");
    let frames = SceneGen::new(48).subset_frames(&mut StdRng::seed_from_u64(7), Subset::Day, 6);
    for (f, stream) in frames.iter().zip([1, 0, 0, 1, 0, 1]) {
        server.process(stream, f.clone()).expect("admitted");
        clock.advance_ms(1.0);
    }
    for i in 0..2 {
        server.with_shard(i, |o| o.flush_store());
    }
    let addr = server.serve("127.0.0.1:0").expect("bind");
    let order = |records: &[LogRecord]| -> Vec<(u32, u64)> {
        records.iter().map(|r| (r.stream, r.seq)).collect()
    };

    let (end, all) = events(addr, "/events?limit=4096");
    assert_eq!(order(&all), [(1, 1), (0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]);
    let mut cursor = String::new();
    let mut paged = Vec::new();
    for _ in 0..3 {
        let (next, records) = events(addr, &format!("/events?cursor={cursor}&limit=2"));
        assert_eq!(records.len(), 2, "page at {cursor:?}");
        paged.extend(records);
        cursor = next;
    }
    assert_eq!(paged, all);
    assert_eq!(cursor, end);
    let (next, records) = events(addr, &format!("/events?cursor={cursor}&limit=2"));
    assert!(records.is_empty(), "{records:?}");
    assert_eq!(next, cursor);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader chasing a live writer sees every record exactly once, in
/// order, and never a torn one — the writer's in-progress segment is
/// invisible until its CRC frame is complete.
#[test]
fn tail_chases_a_live_writer_without_torn_or_skipped_records() {
    let dir = scratch("chase");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.odlg");
    const TOTAL: u64 = 400;
    let cfg =
        EventLogConfig { enabled: true, queue_cap: 4096, segment_records: 8, ..Default::default() };
    std::thread::scope(|s| {
        s.spawn(|| {
            let w = LogWriter::open(&path, cfg, LogMetrics::detached()).unwrap();
            for seq in 1..=TOTAL {
                assert!(w.append(rec(seq)), "queue full");
                if seq % 25 == 0 {
                    w.flush().unwrap();
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            w.flush().unwrap();
        });
        let mut cursor = Cursor::default();
        let mut seen: Vec<u64> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        while (seen.last().copied().unwrap_or(0)) < TOTAL {
            assert!(Instant::now() < deadline, "reader never caught up: {} seen", seen.len());
            let batch = read_after(&path, cursor, 64).expect("read_after");
            cursor = batch.next;
            seen.extend(batch.records.iter().map(|r| r.seq));
        }
        assert_eq!(seen, (1..=TOTAL).collect::<Vec<u64>>());
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// A cursor taken before a writer shutdown keeps working after the
/// process "restarts" (a new writer on the same file): the resumed
/// read returns exactly the records appended after the cursor.
#[test]
fn cursor_survives_writer_restart() {
    let dir = scratch("restart");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.odlg");
    let cfg =
        EventLogConfig { enabled: true, queue_cap: 256, segment_records: 8, ..Default::default() };
    {
        let w = LogWriter::open(&path, cfg, LogMetrics::detached()).unwrap();
        for seq in 1..=40u64 {
            assert!(w.append(rec(seq)));
        }
        w.flush().unwrap();
    }
    let batch = read_after(&path, Cursor::default(), 1000).expect("first read");
    assert_eq!(batch.records.len(), 40);
    let resumed = Cursor::parse(&batch.next.to_string()).expect("cursor round-trips as text");

    let w = LogWriter::open(&path, cfg, LogMetrics::detached()).unwrap();
    assert_eq!(w.recovered_last_seq(), 40, "restart must resume the sequence");
    for seq in 41..=60u64 {
        assert!(w.append(rec(seq)));
    }
    w.flush().unwrap();
    drop(w);

    let batch = read_after(&path, resumed, 1000).expect("resumed read");
    let seqs: Vec<u64> = batch.records.iter().map(|r| r.seq).collect();
    assert_eq!(seqs, (41..=60).collect::<Vec<u64>>());
    std::fs::remove_dir_all(&dir).ok();
}

/// Byte-budget retention drops exactly the oldest sealed segments:
/// the survivors scan with correct [`ScanStats`], zone-map pruning
/// still works on the retained suffix, and the newest records are
/// byte-for-byte intact.
#[test]
fn retention_keeps_scan_log_consistent_on_the_retained_suffix() {
    let dir = scratch("retention");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.odlg");
    let unlimited =
        EventLogConfig { enabled: true, queue_cap: 1024, segment_records: 8, ..Default::default() };
    {
        let w = LogWriter::open(&path, unlimited, LogMetrics::detached()).unwrap();
        for seq in 1..=96u64 {
            let mut r = rec(seq);
            // Alternate kinds so zone-map pruning has something to cut.
            if seq % 8 == 0 {
                r.kind = RecordKind::DriftDetected;
            }
            assert!(w.append(r));
        }
        w.flush().unwrap();
    }
    let full = scan_log(&path, &Predicate::default()).expect("scan full");
    assert_eq!(full.records.len(), 96);
    let budget = std::fs::metadata(&path).unwrap().len() / 2;

    let compacted = EventLogConfig {
        retention: RetentionConfig { max_bytes: budget, max_age_us: 0 },
        ..unlimited
    };
    drop(LogWriter::open(&path, compacted, LogMetrics::detached()).unwrap());
    assert!(std::fs::metadata(&path).unwrap().len() <= budget, "budget not enforced");

    let after = scan_log(&path, &Predicate::default()).expect("scan compacted");
    assert!(!after.stats.torn_tail);
    assert!(after.stats.segments_total < full.stats.segments_total);
    assert_eq!(
        after.stats.segments_pruned + after.stats.segments_scanned,
        after.stats.segments_total,
        "every surviving segment is accounted for"
    );
    assert_eq!(after.stats.records_matched, after.records.len());
    // The survivors are exactly the newest suffix of the full log.
    let suffix = &full.records[full.records.len() - after.records.len()..];
    assert_eq!(after.records, suffix, "compaction altered surviving records");
    assert_eq!(after.records.last().unwrap().seq, 96);
    assert!(after.records[0].seq > 1, "nothing was dropped");

    // Zone-map pruning still cuts frame-only segments on a kind query.
    let drift =
        scan_log(&path, &Predicate { kind: Some(RecordKind::DriftDetected), ..Default::default() })
            .expect("kind scan");
    assert!(drift.records.iter().all(|r| r.kind == RecordKind::DriftDetected));
    let expect: Vec<u64> =
        suffix.iter().filter(|r| r.kind == RecordKind::DriftDetected).map(|r| r.seq).collect();
    assert_eq!(drift.records.iter().map(|r| r.seq).collect::<Vec<u64>>(), expect);

    // And the writer still appends cleanly after compaction.
    let w = LogWriter::open(&path, unlimited, LogMetrics::detached()).unwrap();
    assert_eq!(w.recovered_last_seq(), 96);
    assert!(w.append(rec(97)));
    w.flush().unwrap();
    drop(w);
    let log = read_log(&path).expect("reopen");
    assert!(!log.torn);
    std::fs::remove_dir_all(&dir).ok();
}
