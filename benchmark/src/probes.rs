//! Per-layer metrics of a traced run: client spans, `/metrics` deltas
//! over the timed window, and direct timed calls into each layer's
//! public functions on the run's own frames.
//!
//! Layers are measured from outside. The functions called here are the
//! API surface listed in the README; nothing inside the program is
//! instrumented by this benchmark.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use odin_core::encoder::HistogramEncoder;
use odin_core::pipeline::OdinConfig;
use odin_core::server::{decode_ingest_frame, encode_ingest_frame, OdinServer, ServerConfig};
use odin_core::specializer::{Specializer, SpecializerConfig};
use odin_core::{AtticConfig, EventLogConfig, ServePrecision};
use odin_data::{Frame, Image, SceneGen, Subset};
use odin_detect::QDetector;
use odin_drift::{ClusterManager, ManagerConfig};
use odin_log::{
    read_after, scan_log, scan_store, Cursor, LogMetrics, LogRecord, LogWriter, Predicate,
    RecordKind,
};
use odin_store::WalWriter;
use odin_tensor::layers::Conv2d;
use odin_tensor::ops::matmul;
use odin_tensor::{Layer, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fixtures::{Fixtures, FRAME_SIZE};
use crate::http;
use crate::stats;
use crate::trace::Trace;
use crate::workload::{new_encoder, render, Instance, RunArgs, TempDir, WindowLog};

/// Timed calls behind each probe's median.
const CALLS: usize = 200;

/// Values by per-layer metric name, plus lines for the reader.
#[derive(Default)]
pub struct Layers {
    pub values: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
    }
}

struct Prober<'a> {
    trace: &'a mut Trace,
    root: u32,
}

impl Prober<'_> {
    /// Median duration in µs of `calls` calls of `f`, each recorded as
    /// a span under the `probe` root. One unrecorded call warms caches.
    fn us<R>(&mut self, name: &'static str, calls: usize, mut f: impl FnMut(usize) -> R) -> f64 {
        black_box(f(0));
        self.us_cold(name, calls, f)
    }

    /// [`Prober::us`] without the warming call, for probes too slow to
    /// repeat for nothing.
    fn us_cold<R>(
        &mut self,
        name: &'static str,
        calls: usize,
        mut f: impl FnMut(usize) -> R,
    ) -> f64 {
        let mut durations = Vec::with_capacity(calls);
        for i in 0..calls {
            let start = Instant::now();
            black_box(f(i));
            let end = Instant::now();
            self.trace.record(self.root, name, start, end, 0, name);
            durations.push((end - start).as_secs_f64() * 1e6);
        }
        stats::median(&mut durations)
    }
}

fn span_medians(log: &WindowLog, layers: &mut Layers) {
    let mut connect = Vec::new();
    let mut send = Vec::new();
    let mut wait = Vec::new();
    let mut recv = Vec::new();
    for t in log.samples().filter(|s| s.ok).filter_map(|s| s.timing) {
        let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
        connect.push(us(t.start, t.connected));
        send.push(us(t.connected, t.sent));
        wait.push(us(t.sent, t.first_byte));
        recv.push(us(t.first_byte, t.end));
    }
    layers.set("http.connect_us", stats::median(&mut connect));
    layers.set("http.send_us", stats::median(&mut send));
    layers.set("http.wait_us", stats::median(&mut wait));
    layers.set("http.recv_us", stats::median(&mut recv));
}

/// Turns the window's requests into span trees: a `request` root keyed
/// `stream:seq` with `connect`/`send`/`wait`/`recv` children. The
/// Chrome trace keeps the first [`MAX_TRACED_REQUESTS`] per client so
/// the file stays loadable; the medians above use every request.
const MAX_TRACED_REQUESTS: usize = 2000;

fn record_request_spans(log: &WindowLog, trace: &mut Trace) {
    for (tid, client) in log.ingest.iter().enumerate() {
        let tid = tid as u32 + 1;
        for s in client.samples.iter().take(MAX_TRACED_REQUESTS) {
            let Some(t) = s.timing else { continue };
            let key = format!("{}:{}", s.stream, s.seq);
            let root = trace.record(0, "request", s.due.min(t.start), t.end, tid, &key);
            trace.record(root, "connect", t.start, t.connected, tid, &key);
            trace.record(root, "send", t.connected, t.sent, tid, &key);
            trace.record(root, "wait", t.sent, t.first_byte, tid, &key);
            trace.record(root, "recv", t.first_byte, t.end, tid, &key);
        }
        for s in &client.scrapes {
            trace.record(0, "scrape", s.start, s.end, tid, "scrape");
        }
    }
}

fn window_deltas(log: &WindowLog, layers: &mut Layers) {
    let d = log.delta();
    let frames = d.counter("odin_frames_total");
    let per_frame = |sum_ms: f64| if frames > 0.0 { sum_ms / frames } else { 0.0 };
    let stage = |name: &str| per_frame(d.hist_sum_ms(name));
    let encode = stage("odin_stage_encode_ms");
    let ingest = stage("odin_stage_ingest_ms");
    let select = stage("odin_stage_select_ms");
    let detect = stage("odin_stage_detect_ms");
    let frame_ms = d.hist_mean_ms("odin_server_frame_ms");
    let batches = d.hist_count("odin_stage_encode_ms");

    let samples = log.samples().count();
    let scrapes = log.scrapes().count();
    let polls = log.observer.as_ref().map_or(0, |o| o.polls);
    let non200 = log.samples().filter(|s| !s.ok).count()
        + log.scrapes().filter(|s| !s.ok).count()
        + log.observer.as_ref().map_or(0, |o| o.failed_polls);
    layers.set("http.requests", (samples + 2 * scrapes + polls) as f64);
    layers.set("http.non200", non200 as f64);

    layers.set("server.frame_ms_mean", frame_ms);
    // Submit-to-reply time no stage accounts for: queueing for the
    // shard's worker plus the hop back.
    layers.set("server.queue_wait_ms", (frame_ms - encode - ingest - select - detect).max(0.0));
    layers.set("server.batch_mean", if batches > 0.0 { frames / batches } else { 0.0 });
    layers.set("server.admitted", d.counter("odin_server_admitted_total"));
    layers.set("server.rejected", d.counter("odin_server_rejected_total"));
    layers.set(
        "server.queue_depth_max",
        log.scrapes().map(|s| s.queue_depth_max).max().unwrap_or(0) as f64,
    );
    layers.set("encoder.stage_ms_mean", encode);
    layers.set("detect.stage_ms_mean", detect);
    layers.set("detect.served_teacher", d.counter("odin_served_teacher_total"));
    layers.set("detect.served_ensemble", d.counter("odin_served_ensemble_total"));
    layers.set("detect.served_fallback", d.counter("odin_served_fallback_total"));
    layers.set("drift.events", d.counter("odin_drift_events_total"));
    layers.set("drift.clusters", log.after.total("odin_clusters"));
    layers.set("drift.stage_ms_mean", ingest);
    layers.set("selector.stage_ms_mean", select);
    layers.set("train.stage_ms_mean", d.hist_mean_ms("odin_stage_train_ms"));
    layers.set("train.jobs", d.counter("odin_train_jobs_total"));
    layers.set("train.cancelled", d.counter("odin_train_cancelled_total"));
    layers.set("train.orphaned", d.counter("odin_train_orphaned_total"));
    layers.set("attic.hits", d.counter("odin_attic_hits_total"));
    layers.set("attic.misses", d.counter("odin_attic_misses_total"));
    layers.set("store.wal_append_ms_mean", d.hist_mean_ms("odin_stage_wal_append_ms"));
    layers.set("store.snapshot_write_ms_mean", d.hist_mean_ms("odin_stage_snapshot_write_ms"));
    layers.set("store.errors", d.counter("odin_store_errors_total"));
    layers.set("log.dropped", d.counter("odin_event_log_dropped_total"));

    let mut lags: Vec<f64> = log.samples().map(|s| s.lag.as_secs_f64() * 1e3).collect();
    stats::sort(&mut lags);
    layers.set("gen.lag_p99_ms", stats::percentile(&lags, 0.99));
}

fn rand_tensor(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec((0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect(), shape)
}

/// Direct calls into the serving layers on the run's frames and the
/// run's own server.
fn serving_probes(args: &RunArgs, inst: &Instance, p: &mut Prober<'_>, layers: &mut Layers) {
    // The tail of stream 0: the regime its shard is in when the run ends.
    let all = &inst.frames[0];
    let frames: &[Frame] = &all[all.len().saturating_sub(64)..];
    let frame = |i: usize| &frames[i % frames.len()];
    let bodies: Vec<Vec<u8>> = frames.iter().map(encode_ingest_frame).collect();
    let addr = inst.addr;
    let mut scratch = Vec::new();

    let healthz = http::get_request("/healthz");
    let null = p.us("http.null_rtt", CALLS, |_| http::send(addr, &healthz, &mut scratch).is_ok());
    layers.set("http.null_rtt_us", null);
    // A full-size body to a stream id the route rejects before decoding.
    let rejected = http::post_request("/ingest/x", &bodies[0]);
    let body_rtt =
        p.us("http.body_rtt", CALLS, |_| http::send(addr, &rejected, &mut scratch).is_ok());
    layers.set("http.body_rtt_us", body_rtt);

    let decode = p.us("server.decode_frame", CALLS, |i| {
        decode_ingest_frame(&bodies[i % bodies.len()]).is_ok()
    });
    layers.set("server.decode_frame_us", decode);
    let served = p.us("server.process", CALLS, |i| {
        inst.server.process(0, frame(i).clone()).expect("probe frame admitted").detections.len()
    });
    let bare = p.us("pipeline.process", CALLS, |i| {
        inst.server.with_shard(0, |o| o.process(frame(i)).detections.len())
    });
    layers.set("server.process_us", served);
    layers.set("pipeline.process_us", bare);
    layers.set("server.hop_us", served - bare);

    let fixtures = Fixtures::new(&args.root);
    let mut encoder = new_encoder(inst.workload, &fixtures);
    let project = p.us("encoder.project", CALLS, |i| encoder.project(&frame(i).image));
    layers.set("encoder.project_us", project);
    let eight: Vec<&Image> = frames.iter().take(8).map(|f| &f.image).collect();
    let batch = p.us("encoder.project_batch8", CALLS, |_| encoder.project_batch(&eight));
    layers.set("encoder.project_batch8_us", batch);

    // The heavy detector's 48→64 3×3 layer on its 12×12 map, and the
    // matmul that layer's im2col lowers to: equal FLOPs, so the gap
    // between the two is the lowering's cost.
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x7E50);
    let conv = Conv2d::k3(48, 64, 1, &mut rng);
    let input = rand_tensor(&mut rng, &[1, 48, 12, 12]);
    let a = rand_tensor(&mut rng, &[144, 432]);
    let b = rand_tensor(&mut rng, &[432, 64]);
    let flops = 2.0 * 144.0 * 432.0 * 64.0;
    let conv_us = p.us("tensor.conv2d_fwd", CALLS, |_| conv.infer(&input));
    let matmul_us = p.us("tensor.matmul", CALLS, |_| matmul(&a, &b));
    layers.set("tensor.conv2d_fwd_ms", conv_us / 1e3);
    layers.set("tensor.matmul_ms", matmul_us / 1e3);
    layers.notes.push(format!(
        "tensor probes: {flops:.0} FLOP per call; conv2d_fwd {:.2} GFLOP/s, matmul {:.2} GFLOP/s, {} tensor threads",
        flops / conv_us / 1e3,
        flops / matmul_us / 1e3,
        odin_tensor::par::num_threads()
    ));

    let teacher = fixtures.teacher();
    let teacher_us = p.us("detect.teacher", CALLS, |i| teacher.detect(&frame(i).image));
    layers.set("detect.teacher_us", teacher_us);

    // SPECIALIZER on 90 frames with the workloads' training settings;
    // the model it builds is the small detector probed below.
    let train_frames = SceneGen::new(FRAME_SIZE).subset_frames(&mut rng, Subset::Day, 90);
    let specializer = Specializer::new(inst.cfg.odin.specializer);
    let mut small = None;
    let train_us = p.us_cold("train.build_specialized", 3, |i| {
        small = Some(specializer.build_specialized(args.seed + i as u64, &train_frames));
    });
    layers.set("train.build_specialized_s", train_us / 1e6);
    let small = small.expect("trained above");
    let small_us = p.us("detect.small_f32", CALLS, |i| small.detect(&frame(i).image));
    layers.set("detect.small_f32_us", small_us);
    let quantized = QDetector::quantize(&small).expect("the small architecture quantizes");
    let int8_us = p.us("detect.small_int8", CALLS, |i| quantized.detect(&frame(i).image));
    layers.set("detect.small_int8_us", int8_us);

    let latents: Vec<Vec<f32>> = frames.iter().map(|f| encoder.project(&f.image)).collect();
    let mut manager = ClusterManager::new(inst.cfg.odin.manager);
    let observe =
        p.us("drift.observe", CALLS * 5, |i| manager.observe(&latents[i % latents.len()]));
    layers.set("drift.observe_us", observe);

    let render = p.us("telemetry.render_metrics", CALLS, |_| inst.server.render_metrics().len());
    layers.set("telemetry.render_metrics_ms", render / 1e3);
    let flight_req = http::get_request("/flight");
    let flight =
        p.us("telemetry.flight", 20, |_| http::send(addr, &flight_req, &mut scratch).is_ok());
    layers.set("telemetry.flight_ms", flight / 1e3);

    let gen = SceneGen::new(FRAME_SIZE);
    let gen_us = p.us("gen.frame", CALLS, |_| gen.subset_frames(&mut rng, Subset::Day, 1));
    layers.set("gen.frame_us", gen_us);
    let body_us = p.us("gen.encode_body", CALLS, |i| encode_ingest_frame(frame(i)));
    layers.set("gen.encode_body_us", body_us);
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// The storage layers, on files of their own: WAL append, event-log
/// append and reads, and — through a one-stream server with store,
/// event log and attic on, fed 400 frames night/day/night/day —
/// checkpoint, restore, the `/events` round trip and the attic
/// reinstall. The same on every workload, so these numbers track the
/// storage code and nothing else.
fn storage_probes(args: &RunArgs, tmp: &Path, p: &mut Prober<'_>, layers: &mut Layers) {
    let mut wal = WalWriter::open(&tmp.join("probe.wal")).expect("probe WAL opens");
    let payload = vec![0xA5u8; 1024];
    let wal_us = p.us("store.wal_append", CALLS, |_| {
        wal.append(&payload).and_then(|_| wal.sync()).expect("probe WAL append")
    });
    layers.set("store.wal_append_us", wal_us);

    let log_path = tmp.join("probe.odlg");
    let records = 4096usize;
    {
        let cfg = EventLogConfig { queue_cap: 2 * records, ..EventLogConfig::enabled() };
        let writer =
            LogWriter::open(&log_path, cfg, LogMetrics::detached()).expect("probe log opens");
        let append_us = p.us_cold("log.append", records, |i| {
            writer.append(LogRecord {
                seq: i as u64 + 1,
                ts_us: i as u64 * 1500,
                frame: i as u64,
                dets: (i % 5) as u32,
                latency_us: 400 + (i % 37) as u64,
                ..LogRecord::empty()
            })
        });
        layers.set("log.append_us", append_us);
        writer.flush().expect("probe log flushes");
    }
    let read_us = p.us("log.read_after", 20, |_| {
        read_after(&log_path, Cursor::default(), records).expect("probe log reads").records.len()
    });
    let scan_us = p.us("log.scan", 20, |_| {
        scan_log(&log_path, &Predicate::default()).expect("probe log scans").records.len()
    });
    layers.set("log.read_after_us_per_rec", read_us / records as f64);
    layers.set("log.scan_us_per_rec", scan_us / records as f64);
    layers.set("log.bytes_per_rec", file_len(&log_path) / records as f64);

    // table8_recurring's detector settings with the workloads' band
    // margin: night and day separate cleanly under the histogram encoder
    // and the returning regimes hit the attic (at the default margin a
    // third of the seeds alarmed inside a regime and missed it).
    let cfg = ServerConfig {
        streams: 1,
        workers: 1,
        odin: OdinConfig {
            manager: ManagerConfig {
                assign_margin: 1.5,
                min_points: 12,
                stable_window: 4,
                kl_eps: 5e-3,
                hist_hi: 8.0,
                max_clusters: Some(1),
                ..ManagerConfig::default()
            },
            specializer: SpecializerConfig { train_iters: 40, ..SpecializerConfig::default() },
            min_train_frames: 16,
            precision: ServePrecision::Int8,
            attic: AtticConfig::enabled(),
            event_log: EventLogConfig { segment_records: 64, ..EventLogConfig::enabled() },
            ..OdinConfig::default()
        },
        ..ServerConfig::default()
    };
    let fixtures = Fixtures::new(&args.root);
    let mut server = OdinServer::build(
        cfg,
        |_| Box::new(HistogramEncoder::new()),
        fixtures.teacher(),
        args.seed,
    );
    server.with_shard(0, |o| o.telemetry().clear_sinks());
    let live = tmp.join("probe-live");
    server.enable_store(&live, odin_core::CheckpointPolicy::Manual).expect("probe store opens");
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xA771C);
    // Night, day, night, day, each under its one condition like the
    // workloads' regimes, so the returning ones match their signatures.
    let gen = SceneGen::new(FRAME_SIZE);
    for regime in [Subset::Night, Subset::Day, Subset::Night, Subset::Day] {
        for frame in render(&gen, &mut rng, regime, 100) {
            server.process(0, frame).expect("probe frame admitted");
        }
    }
    server.with_shard(0, |o| o.flush_store());

    let records = scan_store(&live, &Predicate::default()).expect("probe event log scans").records;
    let mut reinstall_ms: Vec<f64> = records
        .iter()
        .filter(|r| r.kind == RecordKind::AtticHit)
        .filter_map(|hit| {
            records
                .iter()
                .find(|r| r.kind == RecordKind::ModelInstalled && r.trace == hit.trace)
                .map(|installed| (installed.ts_us - hit.ts_us) as f64 / 1e3)
        })
        .collect();
    if reinstall_ms.is_empty() {
        layers.notes.push("attic probe: the returning regime did not hit the attic".into());
    }
    layers.set("attic.reinstall_ms", stats::median(&mut reinstall_ms));

    let snap = tmp.join("probe-snap");
    let checkpoint_us =
        p.us("store.checkpoint", 20, |_| server.checkpoint_all(&snap).expect("probe checkpoint"));
    layers.set("store.checkpoint_ms", checkpoint_us / 1e3);
    layers.set(
        "store.snapshot_bytes",
        file_len(&snap.join(odin_core::SHARED_SNAPSHOT_FILE))
            + file_len(&snap.join(odin_core::STREAMS_DIR).join("0").join(odin_core::SNAPSHOT_FILE)),
    );
    let restore_us = p.us("store.restore", 10, |_| {
        OdinServer::restore_from_dir(&snap, cfg).expect("probe restore").streams()
    });
    layers.set("store.restore_ms", restore_us / 1e3);

    let addr = server.serve("127.0.0.1:0").expect("probe server binds");
    let page = http::get_request("/events?limit=256");
    let mut scratch = Vec::new();
    let events_us = p.us("log.events_rtt", 50, |_| {
        http::send(addr, &page, &mut scratch).map(|r| r.status).expect("probe /events")
    });
    layers.set("log.events_rtt_ms", events_us / 1e3);
}

/// One row of the budget table.
pub struct BudgetRow {
    pub layer: &'static str,
    pub self_ms: f64,
}

/// A frame's blocking path as layer self-times, from the client spans
/// and the server's own stage histograms: the request's `wait` span
/// covers everything the server did, so the server-side pieces are
/// taken out of it and what remains of `wait` is the HTTP edge's own
/// time (accept, thread spawn, parse, reply write).
pub fn budget(layers: &Layers, backlog_ms: f64) -> Vec<BudgetRow> {
    let us = |name: &str| layers.get(name) / 1e3;
    let ms = |name: &str| layers.get(name);
    let server_side = us("server.decode_frame_us") + ms("server.frame_ms_mean");
    vec![
        BudgetRow { layer: "client backlog (due -> start)", self_ms: backlog_ms },
        BudgetRow { layer: "http.connect", self_ms: us("http.connect_us") },
        BudgetRow { layer: "http.send", self_ms: us("http.send_us") },
        BudgetRow {
            layer: "http.wait (self)",
            self_ms: (us("http.wait_us") - server_side).max(0.0),
        },
        BudgetRow { layer: "  server.decode_frame", self_ms: us("server.decode_frame_us") },
        BudgetRow { layer: "  server.queue_wait", self_ms: ms("server.queue_wait_ms") },
        BudgetRow { layer: "  encoder.stage", self_ms: ms("encoder.stage_ms_mean") },
        BudgetRow { layer: "  drift.stage", self_ms: ms("drift.stage_ms_mean") },
        BudgetRow { layer: "  selector.stage", self_ms: ms("selector.stage_ms_mean") },
        BudgetRow { layer: "  detect.stage", self_ms: ms("detect.stage_ms_mean") },
        BudgetRow { layer: "http.recv", self_ms: us("http.recv_us") },
    ]
}

/// Measures every per-layer metric of a traced run and records the
/// spans into `trace`.
pub fn measure(
    args: &RunArgs,
    inst: &Instance,
    log: &WindowLog,
    tmp: &TempDir,
    trace: &mut Trace,
) -> Layers {
    let mut layers = Layers::default();
    span_medians(log, &mut layers);
    record_request_spans(log, trace);
    window_deltas(log, &mut layers);
    let start = Instant::now();
    let root = trace.record(0, "probe", start, start, 0, "probe");
    let mut prober = Prober { trace, root };
    serving_probes(args, inst, &mut prober, &mut layers);
    storage_probes(args, &tmp.0, &mut prober, &mut layers);
    layers
}
