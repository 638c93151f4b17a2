//! Pinned training identity: the DA-GAN's weights and losses after a
//! fixed training run, bit for bit.
//!
//! The hash was recorded from the kernels as they stood before the
//! training path's data movement was rewritten (see the twin file in
//! `odin-detect`). The DA-GAN reaches the shapes the detector does not:
//! unfused convolutions, a 12-wide first layer, `Dense` first layers,
//! stride-1 decoder convs. `scripts/ci.sh` runs this file at
//! `ODIN_THREADS` 1 and 2 and with `ODIN_NO_SIMD=1`; the test itself
//! trains once at every SIMD dispatch level the CPU offers.

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

#[test]
fn dagan_training_bits_are_pinned() {
    for level in simd::available_levels() {
        assert_eq!(simd::set_simd_level(level), level);
        println!("training identity at level {level:?}");
        let mut rng = StdRng::seed_from_u64(22);
        let images: Vec<Image> = SceneGen::new(48)
            .subset_frames(&mut rng, Subset::Day, 24)
            .into_iter()
            .map(|f| f.image)
            .collect();
        let mut gan = DaGan::new(DaGanConfig::bdd(), &mut rng);
        let losses = gan.train(&mut rng, &images, 10, 8);
        let loss_bits = losses
            .iter()
            .flat_map(|l| [l.image_disc, l.decoder_adv, l.latent_disc, l.encoder_adv, l.recon]);
        let hash = fnv1a(gan.export_params().into_iter().chain(loss_bits));
        assert_eq!(
            hash, 0x21a5_a9c1_6e5e_52f7,
            "export_params ‖ losses after 10 steps at {level:?}: {hash:#018x}"
        );
    }
    simd::reset_simd();
}
