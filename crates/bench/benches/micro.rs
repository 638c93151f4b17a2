//! Criterion micro-benchmarks for ODIN's hot paths: latent encoding,
//! Δ-band fitting/updating, KL stability checks, outlier scoring
//! (DA-GAN kNN vs LOF), selector policies, NMS, and detector inference.
//! Tensor kernel throughput is the `tensor_gflops` bin's, which records
//! it in `results/` and is gated in CI.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use odin_core::encoder::{DaGanEncoder, HistogramEncoder, LatentEncoder};
use odin_core::registry::{ClusterModel, ModelKind, ModelRegistry};
use odin_core::selector::{select, SelectionPolicy};
use odin_data::{GtBox, Image, ObjectClass, SceneGen, Subset};
use odin_detect::{nms, Detection, Detector};
use odin_drift::baselines::{LatentKnn, Lof};
use odin_drift::cluster::euclidean;
use odin_drift::kl::{histogram_kl, DistanceHistogram};
use odin_drift::{ClusterManager, DeltaBand, LshIndex, ManagerConfig};
use odin_gan::{DaGan, DaGanConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn sample_frames(n: usize) -> Vec<Image> {
    let gen = SceneGen::new(48);
    let mut rng = StdRng::seed_from_u64(0);
    gen.subset_frames(&mut rng, Subset::Full, n).into_iter().map(|f| f.image).collect()
}

fn bench_encoding(c: &mut Criterion) {
    let frames = sample_frames(16);
    let refs: Vec<&Image> = frames.iter().collect();
    let mut rng = StdRng::seed_from_u64(1);

    let mut hist = HistogramEncoder::new();
    c.bench_function("encode/histogram_16_frames", |b| {
        b.iter(|| black_box(hist.project_batch(&refs)))
    });

    let mut dagan = DaGanEncoder::new(DaGan::new(DaGanConfig::bdd(), &mut rng));
    c.bench_function("encode/dagan_16_frames", |b| {
        b.iter(|| black_box(dagan.project_batch(&refs)))
    });
}

fn bench_bands_and_kl(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let distances: Vec<f32> = (0..512).map(|_| rng.gen_range(0.0f32..8.0)).collect();
    c.bench_function("band/fit_512_distances", |b| {
        b.iter(|| black_box(DeltaBand::fit(&distances, 0.75)))
    });

    let mut h = DistanceHistogram::new(0.0, 16.0, 32);
    for &d in &distances {
        h.add(d);
    }
    c.bench_function("kl/histogram_update_and_divergence", |b| {
        b.iter_batched(
            || h.clone(),
            |prior| {
                let mut post = prior.clone();
                post.add(3.3);
                black_box(histogram_kl(&prior, &post))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_cluster_observe(c: &mut Criterion) {
    let cfg = ManagerConfig {
        min_points: 20,
        stable_window: 5,
        kl_eps: 5e-3,
        ..ManagerConfig::default()
    };
    let mut manager = ClusterManager::new(cfg);
    for (salt, center) in [(0usize, 0.0f32), (1, 8.0), (2, -8.0), (3, 16.0)] {
        let pts: Vec<Vec<f32>> = (0..120)
            .map(|i| (0..32).map(|j| center + ((i * 7 + j * 13 + salt) as f32).sin()).collect())
            .collect();
        manager.bootstrap(&pts);
    }
    let probe: Vec<f32> = (0..32).map(|j| (j as f32).sin()).collect();
    c.bench_function("cluster/observe_with_4_clusters", |b| {
        b.iter(|| black_box(manager.observe(&probe)))
    });
    c.bench_function("selector/delta_band_policy", |b| {
        b.iter(|| black_box(select(SelectionPolicy::DeltaBand, &manager, &probe)))
    });
    c.bench_function("selector/knn_weighted_policy", |b| {
        b.iter(|| black_box(select(SelectionPolicy::KnnWeighted(3), &manager, &probe)))
    });
}

fn bench_outlier_scoring(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let latents: Vec<Vec<f32>> =
        (0..300).map(|_| (0..64).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
    let pixels: Vec<Vec<f32>> =
        (0..300).map(|_| (0..784).map(|_| rng.gen_range(0.0f32..1.0)).collect()).collect();
    let knn = LatentKnn::new(latents, 3);
    let lof = Lof::fit(pixels, 8);
    let zq: Vec<f32> = (0..64).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let pq: Vec<f32> = (0..784).map(|_| rng.gen_range(0.0f32..1.0)).collect();
    c.bench_function("score/latent_knn_64d_300ref", |b| b.iter(|| black_box(knn.score(&zq))));
    c.bench_function("score/lof_784d_300ref", |b| b.iter(|| black_box(lof.score(&pq))));
}

fn bench_detection(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let heavy = Detector::heavy(48, &mut rng);
    let small = Detector::small(48, &mut rng);
    let img = Image::new(3, 48, 48);
    c.bench_function("detect/yolosim_heavy_1_frame", |b| b.iter(|| black_box(heavy.detect(&img))));
    c.bench_function("detect/yolo_specialized_1_frame", |b| {
        b.iter(|| black_box(small.detect(&img)))
    });

    let dets: Vec<Detection> = (0..64)
        .map(|i| Detection {
            bbox: GtBox {
                class: ObjectClass::ALL[i % 5],
                x: (i % 8) as f32 * 5.0,
                y: (i / 8) as f32 * 5.0,
                w: 8.0,
                h: 8.0,
            },
            score: 1.0 - i as f32 / 64.0,
        })
        .collect();
    c.bench_function("detect/nms_64_boxes", |b| {
        b.iter_batched(|| dets.clone(), |d| black_box(nms(d, 0.45)), BatchSize::SmallInput)
    });
}

/// The serving path reads models through a shared (read-write-locked)
/// registry so background SPECIALIZER workers can install models
/// concurrently; this prices the per-frame lock acquisition.
fn bench_shared_registry(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut reg = ModelRegistry::new();
    for id in 0..8 {
        reg.insert(id, ClusterModel::new(Detector::small(48, &mut rng), ModelKind::Specialized));
    }
    let shared = reg.into_shared();
    c.bench_function("registry/shared_read_lookup", |b| {
        b.iter(|| {
            let guard = shared.read();
            black_box(guard.get(3).map(|m| m.kind))
        })
    });
}

/// §7 extension: LSH centroid lookup vs a linear scan, at a cluster
/// count where the paper says DA-GAN lookup starts to hurt.
fn bench_lsh_lookup(c: &mut Criterion) {
    let dim = 64;
    let n = 256;
    let centroids: Vec<Vec<f32>> = (0..n)
        .map(|i| (0..dim).map(|j| ((i * 31 + j * 17) % 101) as f32 / 10.0 - 5.0).collect())
        .collect();
    let mut lsh = LshIndex::new(dim, 4, 10, 7);
    for p in &centroids {
        lsh.insert(p.clone());
    }
    let q: Vec<f32> = (0..dim).map(|j| (j as f32 * 0.3).sin()).collect();
    c.bench_function("lookup/linear_scan_256_centroids", |b| {
        b.iter(|| {
            black_box(
                centroids
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (i, euclidean(p, &q)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite")),
            )
        })
    });
    c.bench_function("lookup/lsh_256_centroids", |b| b.iter(|| black_box(lsh.nearest(&q))));
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_encoding, bench_bands_and_kl,
              bench_cluster_observe, bench_outlier_scoring, bench_detection,
              bench_shared_registry, bench_lsh_lookup
}
criterion_main!(micro);
