//! Startup latency: cold bootstrap vs warm restore (systems extension).
//!
//! The cost the odin-store checkpoint erases is everything the pipeline
//! *learned* during its first life: cluster promotions, Δ-band fitting,
//! and — dominating by orders of magnitude — training the specialized
//! models. Cold start pays it all again from the raw stream; warm
//! restore reads one checksummed snapshot and serves immediately with
//! the same clusters, the same model weights, and the same deployment
//! footprint.
//!
//! Reported: time to learn the system from scratch (cold), time to
//! checkpoint it, time to restore it, the speedup, and proof of
//! equivalence (model count and `memory_bytes` on both sides).

use std::time::Instant;

use odin_bench::report::{Args, Table};
use odin_core::encoder::HistogramEncoder;
use odin_core::pipeline::{Odin, OdinConfig};
use odin_core::specializer::SpecializerConfig;
use odin_core::AtticConfig;
use odin_data::{RecurringSchedule, SceneGen, Subset};
use odin_detect::{Detector, DetectorArch};
use odin_drift::ManagerConfig;
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
            train_iters: 60,
            distill_iters: 40,
            batch_size: 4,
        },
        min_train_frames: 20,
        ..OdinConfig::default()
    }
}

fn cold_bootstrap(args: &Args, n_frames: usize) -> Odin {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let teacher = Detector::heavy(48, &mut rng);
    let mut odin = Odin::new(Box::new(HistogramEncoder::new()), teacher, quick_cfg(), args.seed);
    let gen = SceneGen::new(48);
    let mut stream_rng = StdRng::seed_from_u64(args.seed ^ 0x51A7);
    odin.process_stream(&gen.subset_frames(&mut stream_rng, Subset::Night, n_frames));
    odin.process_stream(&gen.subset_frames(&mut stream_rng, Subset::Day, n_frames));
    odin
}

fn main() {
    let args = Args::parse();
    let n_frames = args.scaled(120, 40);
    let snapshot = args.out_dir.join("cache").join(format!("startup_{}.odst", args.seed));

    let t0 = Instant::now();
    let mut odin = cold_bootstrap(&args, n_frames);
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    odin.checkpoint(&snapshot).expect("checkpoint");
    let checkpoint_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let restored = Odin::restore(&snapshot).expect("restore");
    let restore_ms = t0.elapsed().as_secs_f64() * 1e3;

    assert_eq!(restored.model_count(), odin.model_count(), "restore lost models");
    assert_eq!(restored.memory_bytes(), odin.memory_bytes(), "restore changed footprint");

    let snapshot_bytes = std::fs::metadata(&snapshot).map(|m| m.len()).unwrap_or(0);
    let speedup = if restore_ms > 0.0 { cold_ms / restore_ms } else { f64::INFINITY };

    let mut table = Table::new(
        "startup_latency",
        "Startup latency: cold bootstrap vs warm restore",
        &["path", "time (ms)", "models", "memory (KiB)", "notes"],
    );
    table.row(vec![
        "cold bootstrap".to_string(),
        format!("{cold_ms:.1}"),
        odin.model_count().to_string(),
        format!("{:.1}", odin.memory_bytes() as f64 / 1024.0),
        format!("{} frames/concept, 2 concepts", n_frames),
    ]);
    table.row(vec![
        "checkpoint write".to_string(),
        format!("{checkpoint_ms:.1}"),
        "-".to_string(),
        format!("{:.1}", snapshot_bytes as f64 / 1024.0),
        "atomic tmp+fsync+rename".to_string(),
    ]);
    table.row(vec![
        "warm restore".to_string(),
        format!("{restore_ms:.1}"),
        restored.model_count().to_string(),
        format!("{:.1}", restored.memory_bytes() as f64 / 1024.0),
        format!("{speedup:.0}x faster than cold"),
    ]);

    // Recurring drift under a 1-cluster cap with the attic on: the
    // checkpoint now carries archived models too, and the restored
    // pipeline resumes with the same attic occupancy — the recovery
    // shortcut survives a restart.
    let snapshot = args.out_dir.join("cache").join(format!("startup_attic_{}.odst", args.seed));
    let mut rng = StdRng::seed_from_u64(args.seed);
    let teacher = Detector::heavy(48, &mut rng);
    let cfg = OdinConfig {
        manager: ManagerConfig { max_clusters: Some(1), ..quick_cfg().manager },
        min_train_frames: 16,
        attic: AtticConfig::enabled(),
        ..quick_cfg()
    };
    let mut odin = Odin::new(Box::new(HistogramEncoder::new()), teacher, cfg, args.seed);
    let gen = SceneGen::new(48);
    let mut stream_rng = StdRng::seed_from_u64(args.seed ^ 0x0D1A);
    let rec_total = 3 * n_frames;
    let stream = RecurringSchedule::alternating(rec_total, n_frames, &[Subset::Night, Subset::Day])
        .generate(&gen, &mut stream_rng);
    odin.process_stream(&stream);

    let t0 = Instant::now();
    odin.checkpoint(&snapshot).expect("checkpoint");
    let restored = Odin::restore(&snapshot).expect("restore");
    let attic_restore_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (archived, attic_bytes) = odin.attic_stats();
    assert!(archived > 0, "recurring bootstrap never archived a model");
    assert_eq!(restored.attic_stats(), odin.attic_stats(), "restore changed the attic");

    table.row(vec![
        "warm restore (attic)".to_string(),
        format!("{attic_restore_ms:.1}"),
        restored.model_count().to_string(),
        format!("{:.1}", restored.memory_bytes() as f64 / 1024.0),
        format!("{archived} archived models ({:.1} KiB) survive", attic_bytes as f64 / 1024.0),
    ]);
    table.print();
    table.save(&args).expect("write results");
}
