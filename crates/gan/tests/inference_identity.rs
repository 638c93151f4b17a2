//! Pinned inference identity: the DA-GAN encoder's latents for 16
//! generated frames, projected one frame at a time and as one batch,
//! bit for bit — the projection every frame of a DA-GAN workload pays.
//!
//! The hash was recorded from the im2col inference path, after two
//! training steps so the weights are not at their initialization. The
//! test runs at every SIMD dispatch level the CPU offers and requires
//! the same bits from each (`scripts/ci.sh` also runs it at
//! `ODIN_THREADS` 1 and 2 and under `ODIN_NO_SIMD=1`). The detector
//! twin of this file is `odin-detect`'s `inference_identity.rs`.

use odin_data::{Image, SceneGen, Subset};
use odin_gan::{DaGan, DaGanConfig};
use odin_tensor::simd;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the little-endian bit patterns of `values`.
fn fnv1a(values: impl Iterator<Item = f32>) -> u64 {
    values.flat_map(|v| v.to_bits().to_le_bytes()).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `check` once per dispatch level the CPU offers, scalar first.
fn at_every_level(mut check: impl FnMut(&str)) {
    for level in simd::available_levels() {
        assert_eq!(simd::set_simd_level(level), level);
        let name = format!("{level:?}");
        println!("inference identity at level {name}");
        check(&name);
    }
    simd::reset_simd();
}

#[test]
fn dagan_encoder_bits_are_pinned() {
    let mut rng = StdRng::seed_from_u64(30);
    let frames = SceneGen::new(48).subset_frames(&mut rng, Subset::Night, 16);
    let images: Vec<Image> = frames.into_iter().map(|f| f.image).collect();
    let refs: Vec<&Image> = images.iter().collect();
    let mut gan = DaGan::new(DaGanConfig::bdd(), &mut rng);
    gan.train(&mut rng, &images, 2, 8);
    at_every_level(|level| {
        let one_by_one: Vec<f32> =
            refs.chunks(1).flat_map(|one| gan.encode_images(one).into_vec()).collect();
        let batched = gan.encode_images(&refs).into_vec();
        let h = fnv1a(one_by_one.into_iter().chain(batched));
        assert_eq!(h, 0x416a_bfc3_d465_49d1, "encoder latents at {level}: {h:#018x}");
    });
}
