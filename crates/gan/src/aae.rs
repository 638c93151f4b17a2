//! The adversarial autoencoder (Makhzani et al.; §2.3 of the paper).
//!
//! An autoencoder whose latent space is pushed toward a normal prior by a
//! latent discriminator, closing the "holes" of the standard AE at the
//! price of slightly blurrier reconstructions (Figure 2b).

use odin_data::Image;
use odin_tensor::init::randn_latent;
use odin_tensor::layers::{Dense, Flatten, LeakyRelu, Relu};
use odin_tensor::optim::{Adam, Optimizer};
use odin_tensor::{loss, Layer, Sequential, Tensor};
use rand::rngs::StdRng;

use crate::ae::AeConfig;
use crate::common::{per_sample_bce, sample_batch};

/// An adversarial autoencoder: encoder, decoder, and latent discriminator.
pub struct AdversarialAe {
    cfg: AeConfig,
    encoder: Sequential,
    decoder: Sequential,
    latent_disc: Sequential,
    opt_enc: Adam,
    opt_dec: Adam,
    opt_disc: Adam,
}

/// Losses from one adversarial training step.
#[derive(Debug, Clone, Copy)]
pub struct AaeStepLosses {
    /// Pixel-wise reconstruction loss.
    pub recon: f32,
    /// Latent discriminator loss (real + fake).
    pub disc: f32,
    /// Encoder adversarial loss (fooling the discriminator).
    pub adv: f32,
}

impl AdversarialAe {
    /// Builds an untrained adversarial AE.
    pub fn new(cfg: AeConfig, rng: &mut StdRng) -> Self {
        let n = cfg.channels * cfg.size * cfg.size;
        let encoder = Sequential::new()
            .push(Flatten::new())
            .push(Dense::new(n, cfg.hidden, rng))
            .push(Relu::new())
            .push(Dense::new(cfg.hidden, cfg.latent, rng));
        let decoder = Sequential::new()
            .push(Dense::new(cfg.latent, cfg.hidden, rng))
            .push(Relu::new())
            .push(Dense::new(cfg.hidden, n, rng));
        let latent_disc = Sequential::new()
            .push(Dense::new(cfg.latent, 64, rng))
            .push(LeakyRelu::default())
            .push(Dense::new(64, 1, rng));
        AdversarialAe {
            cfg,
            encoder,
            decoder,
            latent_disc,
            opt_enc: Adam::with_betas(cfg.lr, 0.5, 0.999),
            opt_dec: Adam::with_betas(cfg.lr, 0.5, 0.999),
            opt_disc: Adam::with_betas(cfg.lr, 0.5, 0.999),
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &AeConfig {
        &self.cfg
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.encoder.num_params() + self.decoder.num_params() + self.latent_disc.num_params()
    }

    /// Encodes a `[B, C, s, s]` batch into `[B, latent]`.
    pub fn encode(&mut self, batch: &Tensor) -> Tensor {
        self.encoder.forward(batch, false)
    }

    /// Reconstruction logits for a batch.
    pub fn reconstruct_logits(&mut self, batch: &Tensor) -> Tensor {
        let z = self.encoder.forward(batch, false);
        self.decoder.forward(&z, false)
    }

    /// Per-sample reconstruction error.
    pub fn reconstruction_errors(&mut self, batch: &Tensor) -> Vec<f32> {
        let b = batch.shape()[0];
        let n = self.cfg.channels * self.cfg.size * self.cfg.size;
        let flat = batch.reshape(&[b, n]);
        let logits = self.reconstruct_logits(batch);
        per_sample_bce(&logits, &flat)
    }

    /// One adversarial training step on a batch.
    pub fn train_step(&mut self, rng: &mut StdRng, batch: &Tensor) -> AaeStepLosses {
        let b = batch.shape()[0];
        let n = self.cfg.channels * self.cfg.size * self.cfg.size;
        let flat_targets = batch.reshape(&[b, n]);
        let ones = Tensor::ones(&[b, 1]);
        let zeros = Tensor::zeros(&[b, 1]);

        // 1. Reconstruction: update encoder + decoder.
        let z = self.encoder.forward(batch, true);
        let logits = self.decoder.forward(&z, true);
        let (recon, grad) = loss::bce_with_logits(&logits, &flat_targets);
        let gz = self.decoder.backward(&grad);
        self.encoder.backward_params(&gz);
        self.opt_dec.step(&mut self.decoder.params_grads());
        self.opt_enc.step(&mut self.encoder.params_grads());
        self.decoder.zero_grad();
        self.encoder.zero_grad();

        // 2. Latent discriminator: real = prior samples, fake = encodings.
        let z_prior = randn_latent(rng, b, self.cfg.latent);
        let z_fake = self.encoder.forward(batch, false);
        let d_real = self.latent_disc.forward(&z_prior, true);
        let (l_real, g_real) = loss::bce_with_logits(&d_real, &ones);
        self.latent_disc.backward_params(&g_real);
        let d_fake = self.latent_disc.forward(&z_fake, true);
        let (l_fake, g_fake) = loss::bce_with_logits(&d_fake, &zeros);
        self.latent_disc.backward_params(&g_fake);
        self.opt_disc.step(&mut self.latent_disc.params_grads());
        self.latent_disc.zero_grad();
        let disc = l_real + l_fake;

        // 3. Encoder adversarial: make encodings look like the prior.
        let z_adv = self.encoder.forward(batch, true);
        let d_adv = self.latent_disc.forward(&z_adv, true);
        let (adv, g_adv) = loss::bce_with_logits(&d_adv, &ones);
        let gz_adv = self.latent_disc.backward(&g_adv);
        self.encoder.backward_params(&gz_adv);
        self.opt_enc.step(&mut self.encoder.params_grads());
        self.encoder.zero_grad();
        self.latent_disc.zero_grad(); // gradients flowed through; discard

        AaeStepLosses { recon, disc, adv }
    }

    /// Trains on random mini-batches; returns per-iteration losses.
    pub fn train(
        &mut self,
        rng: &mut StdRng,
        images: &[Image],
        iters: usize,
        batch_size: usize,
    ) -> Vec<AaeStepLosses> {
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

    fn small_cfg() -> AeConfig {
        AeConfig { channels: 1, size: 28, hidden: 64, latent: 8, lr: 2e-3 }
    }

    fn moment_gap(z: &Tensor) -> f32 {
        let mean = z.mean();
        let var = z.map(|v| (v - mean) * (v - mean)).mean();
        mean.abs() + (var.sqrt() - 1.0).abs()
    }

    #[test]
    fn training_reduces_recon_loss() {
        let mut rng = StdRng::seed_from_u64(0);
        let data: Vec<Image> =
            digit_dataset(&mut rng, &[0, 1], 30).into_iter().map(|s| s.image).collect();
        let mut aae = AdversarialAe::new(small_cfg(), &mut rng);
        let trace = aae.train(&mut rng, &data, 100, 16);
        let head: f32 = trace[..10].iter().map(|l| l.recon).sum::<f32>() / 10.0;
        let tail: f32 = trace[trace.len() - 10..].iter().map(|l| l.recon).sum::<f32>() / 10.0;
        assert!(tail < head, "recon loss did not drop: {head} -> {tail}");
    }

    #[test]
    fn latent_matches_prior_better_than_plain_ae() {
        // The smoothness constraint (§2.3): after adversarial training the
        // encoded latents should be closer to N(0,1) than a plain AE's.
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<Image> =
            digit_dataset(&mut rng, &[0, 1, 2], 40).into_iter().map(|s| s.image).collect();

        let mut aae = AdversarialAe::new(small_cfg(), &mut rng);
        aae.train(&mut rng, &data, 300, 16);

        let mut ae = crate::ae::Autoencoder::new(small_cfg(), &mut rng);
        ae.train(&mut rng, &data, 300, 16);

        let test = Image::batch(&data[..30]);
        let gap_aae = moment_gap(&aae.encode(&test));
        let gap_ae = moment_gap(&ae.encode(&test));
        assert!(gap_aae < gap_ae, "AAE latent gap {gap_aae} should be below AE gap {gap_ae}");
    }

    #[test]
    fn losses_stay_finite() {
        let mut rng = StdRng::seed_from_u64(2);
        let data: Vec<Image> =
            digit_dataset(&mut rng, &[5], 10).into_iter().map(|s| s.image).collect();
        let mut aae = AdversarialAe::new(small_cfg(), &mut rng);
        for l in aae.train(&mut rng, &data, 50, 8) {
            assert!(l.recon.is_finite() && l.disc.is_finite() && l.adv.is_finite());
        }
    }
}
