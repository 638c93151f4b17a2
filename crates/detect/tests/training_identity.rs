//! Pinned training identity: the small detector's weights and losses
//! after a fixed training run, bit for bit.
//!
//! The hash was recorded from the kernels as they stood before the
//! training path's data movement was rewritten (fused gradient sweep,
//! `col2im` fast path, k-blocked masked `matmul_tn`, no layer-0 input
//! gradient). A kernel change that moves one bit of one weight or one
//! loss fails here — at any `ODIN_THREADS` and with `ODIN_NO_SIMD=1`
//! (`scripts/ci.sh` runs this file under all three) — and at every SIMD
//! dispatch level the CPU offers, which the test runs in turn.

use odin_data::{SceneGen, Subset};
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

#[test]
fn small_detector_training_bits_are_pinned() {
    for level in simd::available_levels() {
        assert_eq!(simd::set_simd_level(level), level);
        println!("training identity at level {level:?}");
        let mut rng = StdRng::seed_from_u64(22);
        let frames = SceneGen::new(48).subset_frames(&mut rng, Subset::Day, 40);
        let mut d = Detector::small(48, &mut rng);
        let losses = d.train_oracle(&mut rng, &frames, 40, 8);
        let hash = fnv1a(d.export_params().into_iter().chain(losses));
        assert_eq!(
            hash, 0x9604_35b9_1358_e8d7,
            "export_params ‖ losses after 40 steps at {level:?}: {hash:#018x}"
        );
    }
    simd::reset_simd();
}
