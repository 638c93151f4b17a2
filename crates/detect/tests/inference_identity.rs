//! Pinned inference identity: the raw head tensors of the teacher
//! (`Detector::heavy`, batch-normalized) and of the Small detector on
//! 16 generated frames, at batch 1 and batch 4, bit for bit.
//!
//! Both models take a few training steps first, so every BatchNorm
//! carries non-default γ, β and running statistics into eval mode. The
//! hashes were recorded from the im2col inference path; the test runs
//! the models at every SIMD dispatch level the CPU offers and requires
//! the same bits from each (`scripts/ci.sh` also runs it at
//! `ODIN_THREADS` 1 and 2 and under `ODIN_NO_SIMD=1`).

use odin_data::{Image, SceneGen, Subset};
use odin_detect::Detector;
use odin_tensor::simd;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the little-endian bit patterns of `values`.
fn fnv1a(values: impl Iterator<Item = f32>) -> u64 {
    values.flat_map(|v| v.to_bits().to_le_bytes()).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hash of the detector's raw predictions on `images`, one frame per
/// forward pass and then four per pass.
fn predictions_hash(d: &Detector, images: &[&Image]) -> u64 {
    let size = d.input_size();
    let ones = images.chunks(1);
    let fours = images.chunks(4);
    let preds: Vec<f32> = ones
        .chain(fours)
        .flat_map(|batch| d.forward(&Image::batch_resized(batch, size, size)).into_vec())
        .collect();
    fnv1a(preds.into_iter())
}

/// Runs `check` once per dispatch level the CPU offers, scalar first.
fn at_every_level(check: impl Fn(&str)) {
    for level in simd::available_levels() {
        assert_eq!(simd::set_simd_level(level), level);
        let name = format!("{level:?}");
        println!("inference identity at level {name}");
        check(&name);
    }
    simd::reset_simd();
}

#[test]
fn detector_inference_bits_are_pinned() {
    let mut rng = StdRng::seed_from_u64(30);
    let frames = SceneGen::new(48).subset_frames(&mut rng, Subset::Night, 16);
    let images: Vec<&Image> = frames.iter().map(|f| &f.image).collect();
    let mut heavy = Detector::heavy(48, &mut rng);
    let mut small = Detector::small(48, &mut rng);
    heavy.train_oracle(&mut rng, &frames, 3, 4);
    small.train_oracle(&mut rng, &frames, 3, 4);
    at_every_level(|level| {
        let h = predictions_hash(&heavy, &images);
        assert_eq!(h, 0x0e48_a86a_225c_1ab1, "teacher predictions at {level}: {h:#018x}");
        let s = predictions_hash(&small, &images);
        assert_eq!(s, 0x8085_2a96_9deb_2535, "small predictions at {level}: {s:#018x}");
    });
}
