//! The standard autoencoder (§2.3 of the paper).
//!
//! Dense encoder/decoder trained with pixel-wise BCE. This is both the
//! weakest drift-detection baseline (its latent space has "holes") and
//! the reconstruction-error engine behind the DRAE baseline and the
//! Figure-5 projection-failure experiment.

use odin_data::Image;
use odin_tensor::layers::{Dense, Flatten, Relu};
use odin_tensor::optim::{Adam, Optimizer};
use odin_tensor::{loss, Layer, Sequential, Tensor};
use rand::rngs::StdRng;

use crate::common::{per_sample_bce, sample_batch};

/// Configuration of a dense autoencoder.
#[derive(Debug, Clone, Copy)]
pub struct AeConfig {
    /// Input channels (1 or 3).
    pub channels: usize,
    /// Input side length (images are resized to `size`×`size`).
    pub size: usize,
    /// Hidden layer width.
    pub hidden: usize,
    /// Latent dimensionality.
    pub latent: usize,
    /// Adam learning rate.
    pub lr: f32,
}

impl AeConfig {
    /// The Figure-5 configuration for 28×28 digits: dense 512→128→64.
    pub fn digits() -> Self {
        AeConfig { channels: 1, size: 28, hidden: 256, latent: 64, lr: 1e-3 }
    }

    /// A configuration for 32×32 color images.
    pub fn cifar() -> Self {
        AeConfig { channels: 3, size: 32, hidden: 256, latent: 64, lr: 1e-3 }
    }

    fn input_dim(&self) -> usize {
        self.channels * self.size * self.size
    }
}

/// A dense autoencoder with an explicit encoder/decoder split.
pub struct Autoencoder {
    cfg: AeConfig,
    encoder: Sequential,
    decoder: Sequential,
    opt_enc: Adam,
    opt_dec: Adam,
}

impl Autoencoder {
    /// Builds an untrained autoencoder.
    pub fn new(cfg: AeConfig, rng: &mut StdRng) -> Self {
        let n = cfg.input_dim();
        let encoder = Sequential::new()
            .push(Flatten::new())
            .push(Dense::new(n, cfg.hidden, rng))
            .push(Relu::new())
            .push(Dense::new(cfg.hidden, cfg.latent, rng));
        let decoder = Sequential::new()
            .push(Dense::new(cfg.latent, cfg.hidden, rng))
            .push(Relu::new())
            .push(Dense::new(cfg.hidden, n, rng));
        Autoencoder {
            cfg,
            encoder,
            decoder,
            opt_enc: Adam::new(cfg.lr),
            opt_dec: Adam::new(cfg.lr),
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &AeConfig {
        &self.cfg
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.encoder.num_params() + self.decoder.num_params()
    }

    /// Encodes a `[B, C, s, s]` batch into `[B, latent]`.
    pub fn encode(&mut self, batch: &Tensor) -> Tensor {
        self.encoder.forward(batch, false)
    }

    /// Reconstruction logits for a batch (apply sigmoid for pixels).
    pub fn reconstruct_logits(&mut self, batch: &Tensor) -> Tensor {
        let z = self.encoder.forward(batch, false);
        self.decoder.forward(&z, false)
    }

    /// One gradient step on a batch; returns the reconstruction loss.
    pub fn train_step(&mut self, batch: &Tensor) -> f32 {
        let b = batch.shape()[0];
        let flat_targets = batch.reshape(&[b, self.cfg.input_dim()]);
        let z = self.encoder.forward(batch, true);
        let logits = self.decoder.forward(&z, true);
        let (l, grad) = loss::bce_with_logits(&logits, &flat_targets);
        let gz = self.decoder.backward(&grad);
        self.encoder.backward_params(&gz);
        self.opt_dec.step(&mut self.decoder.params_grads());
        self.opt_enc.step(&mut self.encoder.params_grads());
        self.decoder.zero_grad();
        self.encoder.zero_grad();
        l
    }

    /// Trains on random mini-batches drawn from `images`.
    ///
    /// Returns the loss trace (one value per iteration).
    pub fn train(
        &mut self,
        rng: &mut StdRng,
        images: &[Image],
        iters: usize,
        batch_size: usize,
    ) -> Vec<f32> {
        (0..iters)
            .map(|_| {
                let batch = sample_batch(rng, images, batch_size, self.cfg.size);
                self.train_step(&batch)
            })
            .collect()
    }

    /// Exports encoder+decoder parameters as one flat buffer.
    pub fn export_params(&self) -> Vec<f32> {
        let mut out = self.encoder.export_params();
        out.extend(self.decoder.export_params());
        out
    }

    /// Imports a buffer produced by [`Autoencoder::export_params`] on an
    /// identically configured model.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length does not match.
    pub fn import_params(&mut self, flat: &[f32]) {
        let n_enc = self.encoder.export_len();
        assert_eq!(
            flat.len(),
            self.encoder.export_len() + self.decoder.export_len(),
            "AE parameter buffer length mismatch"
        );
        self.encoder.import_params(&flat[..n_enc]);
        self.decoder.import_params(&flat[n_enc..]);
    }

    /// Per-sample reconstruction error (mean BCE per image) — the DRAE
    /// drift signal.
    pub fn reconstruction_errors(&mut self, batch: &Tensor) -> Vec<f32> {
        let b = batch.shape()[0];
        let flat_targets = batch.reshape(&[b, self.cfg.input_dim()]);
        let logits = self.reconstruct_logits(batch);
        per_sample_bce(&logits, &flat_targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odin_data::digits::{digit_dataset, gen_digit};
    use odin_data::Image;
    use rand::SeedableRng;

    fn small_cfg() -> AeConfig {
        AeConfig { channels: 1, size: 28, hidden: 64, latent: 16, lr: 2e-3 }
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(0);
        let data: Vec<Image> =
            digit_dataset(&mut rng, &[0, 1, 2], 30).into_iter().map(|s| s.image).collect();
        let mut ae = Autoencoder::new(small_cfg(), &mut rng);
        let trace = ae.train(&mut rng, &data, 80, 16);
        let head: f32 = trace[..10].iter().sum::<f32>() / 10.0;
        let tail: f32 = trace[trace.len() - 10..].iter().sum::<f32>() / 10.0;
        assert!(tail < head * 0.9, "loss did not drop: {head} -> {tail}");
    }

    #[test]
    fn outliers_have_higher_reconstruction_error() {
        // The Figure-5 experiment in miniature: train on digits 0-2, test
        // on unseen digits; unseen digits should reconstruct worse.
        let mut rng = StdRng::seed_from_u64(1);
        let train: Vec<Image> =
            digit_dataset(&mut rng, &[0, 1, 2], 40).into_iter().map(|s| s.image).collect();
        let mut ae = Autoencoder::new(small_cfg(), &mut rng);
        ae.train(&mut rng, &train, 250, 16);
        let inliers: Vec<Image> = (0..20).map(|i| gen_digit(&mut rng, (i % 3) as u8)).collect();
        let outliers: Vec<Image> =
            (0..20).map(|i| gen_digit(&mut rng, 3 + (i % 7) as u8)).collect();
        let ib = Image::batch(&inliers);
        let ob = Image::batch(&outliers);
        let ie: f32 = ae.reconstruction_errors(&ib).iter().sum::<f32>() / 20.0;
        let oe: f32 = ae.reconstruction_errors(&ob).iter().sum::<f32>() / 20.0;
        assert!(oe > ie, "outlier error {oe} should exceed inlier error {ie}");
    }

    #[test]
    fn encode_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ae = Autoencoder::new(small_cfg(), &mut rng);
        let batch = Image::batch(&vec![Image::new(1, 28, 28); 3]);
        let z = ae.encode(&batch);
        assert_eq!(z.shape(), &[3, 16]);
    }

    #[test]
    fn param_count_is_positive_and_stable() {
        let mut rng = StdRng::seed_from_u64(3);
        let ae = Autoencoder::new(small_cfg(), &mut rng);
        let n = 28 * 28;
        let expected = (n * 64 + 64) + (64 * 16 + 16) + (16 * 64 + 64) + (64 * n + n);
        assert_eq!(ae.num_params(), expected);
    }
}
