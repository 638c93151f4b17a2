//! Multi-stream sharded serving quickstart: one `OdinServer`, four
//! camera streams, one HTTP ingest/exposition front end.
//!
//! Builds a 4-shard server (per-stream drift detectors and telemetry,
//! one shared model registry and training pool), pushes a short
//! two-concept stream through every shard, and prints the per-stream
//! metrics. With `ODIN_SERVE_MS=<n>` the process then serves HTTP for
//! n ms so the endpoints can be scraped:
//!
//! ```text
//! POST /ingest/<stream>  (body: odin_core::encode_ingest_frame)
//! GET  /metrics          every sample labeled {stream="<id>"}
//! GET  /healthz          liveness + per-stream queue depths
//! GET  /flight           merged Chrome trace, spans grouped per stream
//! GET  /events           cursor-paged tail of the per-stream event logs
//! ```
//!
//! Run: `cargo run --release --example multistream_server`

use odin_core::encoder::HistogramEncoder;
use odin_core::pipeline::OdinConfig;
use odin_core::server::{OdinServer, ServerConfig};
use odin_core::specializer::SpecializerConfig;
use odin_core::{CheckpointPolicy, EventLogConfig};
use odin_data::{SceneGen, Subset};
use odin_detect::{Detector, DetectorArch};
use odin_drift::ManagerConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cfg = ServerConfig {
        streams: 4,
        workers: 2,
        queue_cap: 64,
        batch_max: 8,
        odin: OdinConfig {
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
            event_log: EventLogConfig {
                enabled: true,
                queue_cap: 4096,
                segment_records: 16,
                ..Default::default()
            },
            ..OdinConfig::default()
        },
    };

    let mut rng = StdRng::seed_from_u64(0);
    let teacher = Detector::heavy(48, &mut rng);
    let mut server = OdinServer::build(cfg, |_| Box::new(HistogramEncoder::new()), teacher, 42);

    // With ODIN_STORE_DIR set, every shard persists its WAL + event log
    // under <dir>/streams/<id>/ — `odin tail --addr` (via GET /events)
    // and `odin tail --store <dir>` both read the same files.
    let store_dir = std::env::var("ODIN_STORE_DIR").ok().map(std::path::PathBuf::from);
    if let Some(dir) = &store_dir {
        server.enable_store(dir, CheckpointPolicy::Manual).expect("enable store");
    }

    // Four cameras see different condition schedules; each shard learns
    // only from its own stream.
    let gen = SceneGen::new(48);
    let subsets = [Subset::Night, Subset::Day, Subset::Rain, Subset::Snow];
    let per_stream: Vec<Vec<_>> = subsets
        .iter()
        .enumerate()
        .map(|(i, s)| gen.subset_frames(&mut StdRng::seed_from_u64(7 + i as u64), *s, 40))
        .collect();
    for tick in 0..40 {
        for (stream, frames) in per_stream.iter().enumerate() {
            let res = server.process(stream, frames[tick].clone()).expect("admitted");
            if let Some(event) = res.drift {
                println!("stream {stream}: drift detected at frame {}", event.at);
            }
        }
    }
    server.finish_training();

    for stream in 0..server.streams() {
        let (models, clusters) =
            server.with_shard(stream, |o| (o.model_count(), o.manager().clusters().len()));
        println!("stream {stream}: {clusters} cluster(s), {models} specialized model(s)");
    }

    // Seal the partial event-log segments so a tail (sealed-segment
    // reads only) sees the full detect -> install arc before serving.
    if store_dir.is_some() {
        for stream in 0..server.streams() {
            server.with_shard(stream, |o| o.flush_store());
        }
    }

    // Optional exposition window for scrape smoke tests (same contract
    // as the telemetry bench): serve HTTP for ODIN_SERVE_MS ms and
    // print the address in a stable, greppable form. While serving, one
    // client thread per stream POSTs frames through the real ingest
    // route, so a scrape during the window sees live per-stream
    // admission counters.
    if let Some(ms) = std::env::var("ODIN_SERVE_MS").ok().and_then(|v| v.parse::<u64>().ok()) {
        if ms > 0 {
            let addr = server.serve(("127.0.0.1", 0)).expect("bind ingest server");
            println!("serving multistream at http://{addr} for {ms} ms");
            use std::io::Write;
            std::io::stdout().flush().expect("flush stdout");
            let clients: Vec<_> = (0..per_stream.len())
                .map(|stream| {
                    let frames = per_stream[stream].clone();
                    std::thread::spawn(move || {
                        let mut accepted = 0usize;
                        for f in frames.iter().take(10) {
                            let body = odin_core::encode_ingest_frame(f);
                            let path = format!("/ingest/{stream}");
                            match odin_telemetry::http::post(addr, &path, &body) {
                                Ok((status, _)) if status.contains("200") => accepted += 1,
                                _ => {}
                            }
                        }
                        accepted
                    })
                })
                .collect();
            let accepted: usize = clients.into_iter().map(|c| c.join().unwrap_or(0)).sum();
            println!("http ingest: {accepted} frames accepted across {} streams", per_stream.len());
            std::io::stdout().flush().expect("flush stdout");
            // Make the ingest-era records visible to tails running
            // against the serve window.
            if store_dir.is_some() {
                server.drain();
                for stream in 0..server.streams() {
                    server.with_shard(stream, |o| o.flush_store());
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }
    server.shutdown();
}
