//! Shared helpers for the generative models: per-sample losses and batch
//! preparation.

use odin_data::Image;
use odin_tensor::ops::sigmoid;
use odin_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// Per-sample binary cross-entropy of sigmoid(logits) against targets.
///
/// Inputs are `[B, ...]`; the result has one loss per batch row. This is
/// what the DRAE baseline and the Figure-5 experiment need: the
/// *distribution* of reconstruction errors, not just the mean.
pub fn per_sample_bce(logits: &Tensor, targets: &Tensor) -> Vec<f32> {
    assert_eq!(logits.shape(), targets.shape(), "per_sample_bce shape mismatch");
    assert!(logits.ndim() >= 2, "per_sample_bce expects a batch dimension");
    let b = logits.shape()[0];
    let per = logits.numel() / b;
    let ld = logits.data();
    let td = targets.data();
    (0..b)
        .map(|i| {
            let mut acc = 0.0f32;
            for j in i * per..(i + 1) * per {
                let (x, t) = (ld[j], td[j]);
                acc += x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln();
            }
            acc / per as f32
        })
        .collect()
}

/// Per-sample mean squared error between sigmoid(logits) and targets.
pub fn per_sample_recon_mse(logits: &Tensor, targets: &Tensor) -> Vec<f32> {
    assert_eq!(logits.shape(), targets.shape(), "per_sample_recon_mse shape mismatch");
    let b = logits.shape()[0];
    let per = logits.numel() / b;
    let ld = logits.data();
    let td = targets.data();
    (0..b)
        .map(|i| {
            let mut acc = 0.0f32;
            for j in i * per..(i + 1) * per {
                let d = sigmoid(ld[j]) - td[j];
                acc += d * d;
            }
            acc / per as f32
        })
        .collect()
}

/// Gaussian noise tensor with the same shape as `like`.
pub fn gaussian_like(rng: &mut StdRng, like: &Tensor, std: f32) -> Tensor {
    odin_tensor::init::normal(rng, like.shape(), std)
}

/// Samples a random mini-batch (with replacement) of size `n` from a
/// dataset of images, resized to `s`.
pub fn sample_batch(rng: &mut StdRng, images: &[Image], n: usize, s: usize) -> Tensor {
    assert!(!images.is_empty(), "cannot sample from an empty dataset");
    let picks: Vec<&Image> = (0..n).map(|_| &images[rng.gen_range(0..images.len())]).collect();
    Image::batch_resized(&picks, s, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn per_sample_bce_separates_good_and_bad_rows() {
        // Row 0 predicts targets perfectly; row 1 is maximally wrong.
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0, 10.0], &[2, 2]);
        let targets = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0], &[2, 2]);
        let errs = per_sample_bce(&logits, &targets);
        assert!(errs[0] < 0.01);
        assert!(errs[1] > 5.0);
    }

    #[test]
    fn per_sample_mse_matches_manual() {
        let logits = Tensor::from_vec(vec![0.0, 0.0], &[1, 2]);
        let targets = Tensor::from_vec(vec![0.5, 1.0], &[1, 2]);
        let errs = per_sample_recon_mse(&logits, &targets);
        assert!((errs[0] - 0.125).abs() < 1e-6); // (0^2 + 0.5^2)/2
    }

    #[test]
    fn sample_batch_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let imgs = vec![Image::new(3, 48, 48); 4];
        let t = sample_batch(&mut rng, &imgs, 7, 48);
        assert_eq!(t.shape(), &[7, 3, 48, 48]);
    }
}
