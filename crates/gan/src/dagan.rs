//! The Dual-Adversarial GAN (§4.3–§4.4, Figures 6–7 of the paper).
//!
//! Four components: a convolutional encoder `E`, a decoder/generator `G`,
//! a latent discriminator `D_Z` that pins the latent space to a normal
//! prior (Equation 3), and an image discriminator `D_I` that forces
//! high-fidelity reconstructions (Equation 4). Training follows
//! Algorithm 1 verbatim: per iteration the image discriminator, decoder,
//! latent discriminator, encoder, and finally the autoencoder pair are
//! updated in sequence, with the reconstruction loss weighted by
//! `λ_R = 0.5 · λ_Z` (§4.4).
//!
//! After training, only the encoder is used: it is ODIN's
//! distance-preserving projection from pixels to the low-dimensional
//! manifold on which Δ-bands and KL divergence are computed.

use odin_data::Image;
use odin_tensor::init::randn_latent;
use odin_tensor::layers::{Conv2d, Dense, Flatten, LeakyRelu, Relu, Reshape, Upsample2};
use odin_tensor::optim::{Adam, Optimizer};
use odin_tensor::{loss, Layer, Sequential, Tensor};
use rand::rngs::StdRng;

use crate::common::{per_sample_bce, sample_batch};

/// Configuration of a DA-GAN.
#[derive(Debug, Clone, Copy)]
pub struct DaGanConfig {
    /// Input channels (1 or 3).
    pub channels: usize,
    /// Input side length; must be divisible by 8 (three stride-2 stages).
    pub size: usize,
    /// Latent dimensionality (the encoder's channel count after global
    /// average pooling).
    pub latent: usize,
    /// Base convolution width; the encoder uses `width`, `2·width`,
    /// `latent` channels.
    pub width: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Reconstruction weight λ_R. The paper sets λ_Z = λ_I = 1 and
    /// λ_R = 0.5.
    pub lambda_r: f32,
    /// Standard deviation of input noise for the reconstruction step
    /// (denoising objective). 0 disables it. Denoising forces the encoder
    /// to capture content rather than pixel identity — at this model
    /// scale it substitutes for the feature quality the paper gets from
    /// ResNet capacity and 100-epoch training.
    pub denoise_std: f32,
}

impl DaGanConfig {
    /// Configuration for 32×32 grayscale digit images.
    pub fn digits() -> Self {
        DaGanConfig {
            channels: 1,
            size: 32,
            latent: 32,
            width: 8,
            lr: 1e-3,
            lambda_r: 0.5,
            denoise_std: 0.25,
        }
    }

    /// Configuration for 32×32 color images.
    pub fn cifar() -> Self {
        DaGanConfig {
            channels: 3,
            size: 32,
            latent: 48,
            width: 12,
            lr: 1e-3,
            lambda_r: 0.5,
            denoise_std: 0.25,
        }
    }

    /// Configuration for 48×48 BDD-sim frames.
    pub fn bdd() -> Self {
        DaGanConfig {
            channels: 3,
            size: 48,
            latent: 64,
            width: 12,
            lr: 1e-3,
            lambda_r: 0.5,
            denoise_std: 0.25,
        }
    }
}

/// Losses from one Algorithm-1 iteration.
#[derive(Debug, Clone, Copy)]
pub struct DaGanLosses {
    /// Image discriminator loss (L_I, Equation 4).
    pub image_disc: f32,
    /// Decoder adversarial loss (fooling D_I).
    pub decoder_adv: f32,
    /// Latent discriminator loss (L_Z, Equation 3).
    pub latent_disc: f32,
    /// Encoder adversarial loss (fooling D_Z).
    pub encoder_adv: f32,
    /// Weighted reconstruction loss (λ_R · L_R, Equation 5).
    pub recon: f32,
}

impl DaGanLosses {
    /// True if every component is finite.
    pub fn is_finite(&self) -> bool {
        self.image_disc.is_finite()
            && self.decoder_adv.is_finite()
            && self.latent_disc.is_finite()
            && self.encoder_adv.is_finite()
            && self.recon.is_finite()
    }
}

/// The dual-adversarial GAN.
pub struct DaGan {
    cfg: DaGanConfig,
    encoder: Sequential,
    decoder: Sequential,
    latent_disc: Sequential,
    image_disc: Sequential,
    opt_enc: Adam,
    opt_dec: Adam,
    opt_zdisc: Adam,
    opt_idisc: Adam,
}

impl DaGan {
    /// Builds an untrained DA-GAN.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.size` is not divisible by 8.
    pub fn new(cfg: DaGanConfig, rng: &mut StdRng) -> Self {
        assert_eq!(cfg.size % 8, 0, "DA-GAN input size must be divisible by 8");
        let s8 = cfg.size / 8;
        let w = cfg.width;

        // Conv pyramid, then a dense projection of the *flattened*
        // feature map to the latent. (A per-channel global pool, as in
        // the paper's Figure 7, works at ResNet scale where channels are
        // plentiful; at this scale it discards the spatial structure the
        // latent must preserve to stay distance-preserving.)
        let encoder = Sequential::new()
            .push(Conv2d::k3(cfg.channels, w, 2, rng))
            .push(LeakyRelu::default())
            .push(Conv2d::k3(w, 2 * w, 2, rng))
            .push(LeakyRelu::default())
            .push(Conv2d::k3(2 * w, 2 * w, 2, rng))
            .push(LeakyRelu::default())
            .push(Flatten::new())
            .push(Dense::new(2 * w * s8 * s8, cfg.latent, rng));

        let decoder = Sequential::new()
            .push(Dense::new(cfg.latent, 2 * w * s8 * s8, rng))
            .push(Relu::new())
            .push(Reshape::new(2 * w, s8, s8))
            .push(Upsample2::new())
            .push(Conv2d::k3(2 * w, w, 1, rng))
            .push(LeakyRelu::default())
            .push(Upsample2::new())
            .push(Conv2d::k3(w, w, 1, rng))
            .push(LeakyRelu::default())
            .push(Upsample2::new())
            .push(Conv2d::k3(w, cfg.channels, 1, rng));

        let latent_disc = Sequential::new()
            .push(Dense::new(cfg.latent, 64, rng))
            .push(LeakyRelu::default())
            .push(Dense::new(64, 1, rng));

        let s4 = cfg.size / 4;
        let image_disc = Sequential::new()
            .push(Conv2d::k3(cfg.channels, w, 2, rng))
            .push(LeakyRelu::default())
            .push(Conv2d::k3(w, w, 2, rng))
            .push(LeakyRelu::default())
            .push(Flatten::new())
            .push(Dense::new(w * s4 * s4, 1, rng));

        // GAN-conventional Adam betas (0.5, 0.999).
        DaGan {
            cfg,
            encoder,
            decoder,
            latent_disc,
            image_disc,
            opt_enc: Adam::with_betas(cfg.lr, 0.5, 0.999),
            opt_dec: Adam::with_betas(cfg.lr, 0.5, 0.999),
            opt_zdisc: Adam::with_betas(cfg.lr, 0.5, 0.999),
            opt_idisc: Adam::with_betas(cfg.lr, 0.5, 0.999),
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &DaGanConfig {
        &self.cfg
    }

    /// Total trainable parameters across all four components.
    pub fn num_params(&self) -> usize {
        self.encoder.num_params()
            + self.decoder.num_params()
            + self.latent_disc.num_params()
            + self.image_disc.num_params()
    }

    /// Encoder parameter count — what ODIN actually deploys at inference
    /// time.
    pub fn encoder_params(&self) -> usize {
        self.encoder.num_params()
    }

    /// Projects a `[B, C, s, s]` batch to the `[B, latent]` manifold.
    pub fn encode(&mut self, batch: &Tensor) -> Tensor {
        self.encoder.forward(batch, false)
    }

    /// Projects a slice of images (resized to the model's input size).
    ///
    /// Internally processes fixed-size chunks so the layers' scratch
    /// stays bounded for arbitrarily large inputs. Conv and dense kernels
    /// compute each output row independently, so the chunked result is
    /// bit-identical to a single monolithic batch.
    pub fn encode_images(&mut self, images: &[&Image]) -> Tensor {
        const CHUNK: usize = 32;
        if images.len() <= CHUNK {
            let batch = Image::batch_resized(images, self.cfg.size, self.cfg.size);
            return self.encode(&batch);
        }
        let latent = self.cfg.latent;
        let mut out = Vec::with_capacity(images.len() * latent);
        for chunk in images.chunks(CHUNK) {
            let batch = Image::batch_resized(chunk, self.cfg.size, self.cfg.size);
            out.extend_from_slice(self.encode(&batch).data());
        }
        Tensor::from_vec(out, &[images.len(), latent])
    }

    /// Decodes latent vectors to image logits.
    pub fn decode(&mut self, z: &Tensor) -> Tensor {
        self.decoder.forward(z, false)
    }

    /// Reconstruction logits `G(E(x))`.
    pub fn reconstruct_logits(&mut self, batch: &Tensor) -> Tensor {
        let z = self.encoder.forward(batch, false);
        self.decoder.forward(&z, false)
    }

    /// Per-sample reconstruction error.
    pub fn reconstruction_errors(&mut self, batch: &Tensor) -> Vec<f32> {
        let logits = self.reconstruct_logits(batch);
        per_sample_bce(&logits, batch)
    }

    /// One Algorithm-1 training iteration on a batch.
    pub fn train_step(&mut self, rng: &mut StdRng, batch: &Tensor) -> DaGanLosses {
        let b = batch.shape()[0];
        let ones = Tensor::ones(&[b, 1]);
        let zeros = Tensor::zeros(&[b, 1]);

        // Mini-batches (Alg. 1 lines 3-4).
        let z_prior = randn_latent(rng, b, self.cfg.latent);
        let x_fake_logits = self.decoder.forward(&z_prior, false);
        let x_fake = x_fake_logits.map(odin_tensor::ops::sigmoid);

        // Update the image discriminator (lines 5-7).
        let di_real = self.image_disc.forward(batch, true);
        let (l_real, g_real) = loss::bce_with_logits(&di_real, &ones);
        self.image_disc.backward_params(&g_real);
        let di_fake = self.image_disc.forward(&x_fake, true);
        let (l_fake, g_fake) = loss::bce_with_logits(&di_fake, &zeros);
        self.image_disc.backward_params(&g_fake);
        self.opt_idisc.step(&mut self.image_disc.params_grads());
        self.image_disc.zero_grad();
        let image_disc = l_real + l_fake;

        // Update the decoder to fool D_I (line 8).
        let x_gen_logits = self.decoder.forward(&z_prior, true);
        let x_gen = x_gen_logits.map(odin_tensor::ops::sigmoid);
        let di_gen = self.image_disc.forward(&x_gen, true);
        let (decoder_adv, g_adv) = loss::bce_with_logits(&di_gen, &ones);
        let g_img = self.image_disc.backward(&g_adv);
        // Chain through the sigmoid between decoder logits and D_I input.
        let g_logits = g_img.zip(&x_gen, |g, s| g * s * (1.0 - s));
        self.decoder.backward_params(&g_logits);
        self.opt_dec.step(&mut self.decoder.params_grads());
        self.decoder.zero_grad();
        self.image_disc.zero_grad();

        // Update the latent discriminator (lines 9-11).
        let z_enc = self.encoder.forward(batch, false);
        let dz_real = self.latent_disc.forward(&z_prior, true);
        let (lz_real, gz_real) = loss::bce_with_logits(&dz_real, &ones);
        self.latent_disc.backward_params(&gz_real);
        let dz_fake = self.latent_disc.forward(&z_enc, true);
        let (lz_fake, gz_fake) = loss::bce_with_logits(&dz_fake, &zeros);
        self.latent_disc.backward_params(&gz_fake);
        self.opt_zdisc.step(&mut self.latent_disc.params_grads());
        self.latent_disc.zero_grad();
        let latent_disc = lz_real + lz_fake;

        // Update the encoder to fool D_Z (line 12).
        let z_enc2 = self.encoder.forward(batch, true);
        let dz_enc = self.latent_disc.forward(&z_enc2, true);
        let (encoder_adv, g_enc) = loss::bce_with_logits(&dz_enc, &ones);
        let gz = self.latent_disc.backward(&g_enc);
        self.encoder.backward_params(&gz);
        self.opt_enc.step(&mut self.encoder.params_grads());
        self.encoder.zero_grad();
        self.latent_disc.zero_grad();

        // Update encoder + decoder on reconstruction (line 13),
        // weighted by λ_R. With `denoise_std > 0` the encoder sees a
        // corrupted input but must reconstruct the clean image.
        let enc_input = if self.cfg.denoise_std > 0.0 {
            let noise = crate::common::gaussian_like(rng, batch, self.cfg.denoise_std);
            batch.add(&noise).clamp(0.0, 1.0)
        } else {
            batch.clone()
        };
        let z_rec = self.encoder.forward(&enc_input, true);
        let rec_logits = self.decoder.forward(&z_rec, true);
        let (l_rec, g_rec) = loss::bce_with_logits(&rec_logits, batch);
        let g_rec = g_rec.scale(self.cfg.lambda_r);
        let gz_rec = self.decoder.backward(&g_rec);
        self.encoder.backward_params(&gz_rec);
        self.opt_dec.step(&mut self.decoder.params_grads());
        self.opt_enc.step(&mut self.encoder.params_grads());
        self.decoder.zero_grad();
        self.encoder.zero_grad();
        let recon = self.cfg.lambda_r * l_rec;

        DaGanLosses { image_disc, decoder_adv, latent_disc, encoder_adv, recon }
    }

    /// Serialized buffer length (parameters + non-trainable state).
    pub fn export_len(&self) -> usize {
        self.encoder.export_len()
            + self.decoder.export_len()
            + self.latent_disc.export_len()
            + self.image_disc.export_len()
    }

    /// Exports all four components' parameters (and non-trainable state)
    /// as one flat buffer (for caching trained models across experiment
    /// runs).
    pub fn export_params(&self) -> Vec<f32> {
        let mut out = self.encoder.export_params();
        out.extend(self.decoder.export_params());
        out.extend(self.latent_disc.export_params());
        out.extend(self.image_disc.export_params());
        out
    }

    /// Imports a buffer produced by [`DaGan::export_params`] on an
    /// identically configured model.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length does not match this model's parameter
    /// count.
    pub fn import_params(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.export_len(), "DA-GAN parameter buffer length mismatch");
        let mut offset = 0;
        for net in
            [&mut self.encoder, &mut self.decoder, &mut self.latent_disc, &mut self.image_disc]
        {
            let n = net.export_len();
            net.import_params(&flat[offset..offset + n]);
            offset += n;
        }
    }

    /// Trains on random mini-batches; returns per-iteration losses.
    pub fn train(
        &mut self,
        rng: &mut StdRng,
        images: &[Image],
        iters: usize,
        batch_size: usize,
    ) -> Vec<DaGanLosses> {
        (0..iters)
            .map(|_| {
                let batch = sample_batch(rng, images, batch_size, self.cfg.size);
                self.train_step(rng, &batch)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odin_data::digits::digit_dataset;
    use odin_data::Image;
    use rand::SeedableRng;

    fn tiny_cfg() -> DaGanConfig {
        DaGanConfig {
            channels: 1,
            size: 32,
            latent: 16,
            width: 6,
            lr: 1.5e-3,
            lambda_r: 0.5,
            denoise_std: 0.25,
        }
    }

    #[test]
    #[should_panic(expected = "divisible by 8")]
    fn bad_size_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = DaGanConfig { size: 30, ..tiny_cfg() };
        let _ = DaGan::new(cfg, &mut rng);
    }

    #[test]
    fn encode_shape_and_determinism() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = DaGan::new(tiny_cfg(), &mut rng);
        let batch = Image::batch(&vec![Image::new(1, 32, 32); 2]);
        let z1 = g.encode(&batch);
        let z2 = g.encode(&batch);
        assert_eq!(z1.shape(), &[2, 16]);
        assert_eq!(z1.data(), z2.data());
    }

    #[test]
    fn losses_are_finite_through_training() {
        let mut rng = StdRng::seed_from_u64(2);
        let data: Vec<Image> =
            digit_dataset(&mut rng, &[0, 1], 20).into_iter().map(|s| s.image).collect();
        let mut g = DaGan::new(tiny_cfg(), &mut rng);
        for l in g.train(&mut rng, &data, 30, 8) {
            assert!(l.is_finite(), "non-finite loss: {l:?}");
        }
    }

    #[test]
    fn training_improves_reconstruction() {
        let mut rng = StdRng::seed_from_u64(3);
        let data: Vec<Image> =
            digit_dataset(&mut rng, &[0, 1, 2], 30).into_iter().map(|s| s.image).collect();
        let mut g = DaGan::new(tiny_cfg(), &mut rng);
        let trace = g.train(&mut rng, &data, 120, 8);
        let head: f32 = trace[..10].iter().map(|l| l.recon).sum::<f32>() / 10.0;
        let tail: f32 = trace[trace.len() - 10..].iter().map(|l| l.recon).sum::<f32>() / 10.0;
        assert!(tail < head, "recon loss did not drop: {head} -> {tail}");
    }

    #[test]
    fn latent_separates_known_classes() {
        // After training on two visually distinct digit classes, within-
        // class latent distances should be smaller than cross-class ones.
        let mut rng = StdRng::seed_from_u64(4);
        let data: Vec<Image> =
            digit_dataset(&mut rng, &[0, 1], 40).into_iter().map(|s| s.image).collect();
        let mut g = DaGan::new(tiny_cfg(), &mut rng);
        g.train(&mut rng, &data, 200, 8);

        let zeros: Vec<Image> =
            digit_dataset(&mut rng, &[0], 15).into_iter().map(|s| s.image).collect();
        let ones: Vec<Image> =
            digit_dataset(&mut rng, &[1], 15).into_iter().map(|s| s.image).collect();
        let z0 = g.encode(&Image::batch(&zeros));
        let z1 = g.encode(&Image::batch(&ones));
        let centroid = |z: &Tensor| {
            let (b, d) = (z.shape()[0], z.shape()[1]);
            let mut c = vec![0.0f32; d];
            for i in 0..b {
                for (j, cj) in c.iter_mut().enumerate() {
                    *cj += z.get(&[i, j]) / b as f32;
                }
            }
            Tensor::from_vec(c, &[d])
        };
        let c0 = centroid(&z0);
        let c1 = centroid(&z1);
        let within: f32 = (0..15).map(|i| z0.row(i).dist(&c0)).sum::<f32>() / 15.0;
        let between = c0.dist(&c1);
        assert!(
            between > within * 0.8,
            "class centroids too close: between {between}, within {within}"
        );
    }

    #[test]
    fn decode_produces_image_shaped_logits() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = DaGan::new(tiny_cfg(), &mut rng);
        let z = odin_tensor::init::randn_latent(&mut rng, 3, 16);
        let x = g.decode(&z);
        assert_eq!(x.shape(), &[3, 1, 32, 32]);
    }

    #[test]
    fn encoder_is_smaller_than_whole_model() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = DaGan::new(tiny_cfg(), &mut rng);
        assert!(g.encoder_params() < g.num_params());
        assert!(g.encoder_params() > 0);
    }
}
