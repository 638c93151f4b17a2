//! Telemetry table (systems extension): per-stage latency breakdown,
//! pipeline counters, and the drift timeline for one end-to-end run.
//!
//! Replays a Night→Day drift stream with the store enabled (so snapshot
//! and WAL stages record real work), then reads everything back through
//! the telemetry subsystem: one row per stage histogram with count /
//! mean / p95 / total, the counter set, the drift timeline (detected →
//! queued → installed per cluster), and the overall frame rate with
//! telemetry enabled. The flight record is written next to the table
//! as a Chrome trace.

use std::time::Instant;

use odin_bench::report::{Args, Table};
use odin_core::encoder::HistogramEncoder;
use odin_core::pipeline::{Odin, OdinConfig};
use odin_core::specializer::SpecializerConfig;
use odin_core::CheckpointPolicy;
use odin_data::{DriftSchedule, Phase, SceneGen, Subset};
use odin_detect::{Detector, DetectorArch};
use odin_drift::ManagerConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    let total = args.scaled(240, 120);
    let gen = SceneGen::new(48);
    let mut rng = StdRng::seed_from_u64(args.seed);
    let stream = DriftSchedule::new(
        total,
        vec![
            Phase { at_frame: 0, adds: Subset::Night },
            Phase { at_frame: total / 2, adds: Subset::Day },
        ],
    )
    .generate(&gen, &mut rng);

    let cfg = OdinConfig {
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
            train_iters: args.scaled(400, 150),
            distill_iters: args.scaled(300, 100),
            batch_size: 8,
        },
        min_train_frames: 20,
        ..OdinConfig::default()
    };

    let teacher = Detector::heavy(48, &mut rng);
    let mut odin = Odin::new(Box::new(HistogramEncoder::new()), teacher, cfg, args.seed);

    let store_dir =
        std::env::temp_dir().join(format!("odin-table-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let every = (total / 4).max(1);
    odin.enable_store(&store_dir, CheckpointPolicy::EveryNFrames(every)).expect("enable store");

    println!("replaying {} frames (snapshot every {every})...", stream.len());
    let t_all = Instant::now();
    for f in &stream {
        odin.process(f);
    }
    odin.finish_training();
    odin.flush_store();
    let wall_ms = t_all.elapsed().as_secs_f64() * 1e3;

    let snap = odin.telemetry().snapshot();
    let mut t = Table::new(
        "table_telemetry",
        "Per-Stage Latency Breakdown (telemetry subsystem)",
        &["Stage", "count", "mean ms", "p50 ms", "p95 ms", "p99 ms", "total ms"],
    );
    for h in &snap.histograms {
        t.row(vec![
            h.name.clone(),
            h.count.to_string(),
            format!("{:.4}", h.mean_ms()),
            format!("{:.4}", h.quantile_interp_ms(0.50)),
            format!("{:.4}", h.quantile_interp_ms(0.95)),
            format!("{:.4}", h.quantile_interp_ms(0.99)),
            format!("{:.2}", h.sum_ms()),
        ]);
    }
    t.finish(&args);

    println!("\ncounters:");
    for (name, v) in &snap.counters {
        println!("  {name:<42} {v}");
    }
    println!("\ndrift timeline (stage / cluster / stream frame):");
    for ev in &snap.timeline {
        println!("  {:<24} cluster {:<3} frame {}", ev.stage.as_str(), ev.cluster_id, ev.frame);
    }

    let fps = stream.len() as f64 / (wall_ms / 1e3);
    println!(
        "\n{} frames in {:.0} ms ({:.1} fps) with telemetry and the store enabled; \
         store errors: {}",
        stream.len(),
        wall_ms,
        fps,
        odin.stats().store_errors,
    );

    if std::fs::create_dir_all(&args.out_dir).is_ok() {
        let trace = args.out_dir.join("table_telemetry_trace.json");
        match odin.dump_flight_record(&trace) {
            Ok(()) => println!("chrome trace: {}", trace.display()),
            Err(e) => println!("warning: could not write chrome trace: {e}"),
        }
    }

    let _ = std::fs::remove_dir_all(&store_dir);
}
