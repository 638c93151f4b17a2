//! Batch normalization.

use crate::layer::{Epilogue, Layer};
use crate::ops::Norm;
use crate::scratch;
use crate::tensor::Tensor;

/// 2-D batch normalization: per-channel standardization over the batch
/// and spatial axes, with a learned scale (γ) and shift (β), plus running
/// statistics for inference.
///
/// The paper's heavyweight YOLO backbone uses batch norm; the pruned
/// YoloSpecialized models drop it (§5.2: shallow models don't need it
/// and train more simply without).
pub struct BatchNorm2d {
    gamma: Tensor,
    beta: Tensor,
    dgamma: Tensor,
    dbeta: Tensor,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            dgamma: Tensor::zeros(&[channels]),
            dbeta: Tensor::zeros(&[channels]),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    pub(crate) fn channels(&self) -> usize {
        self.gamma.numel()
    }

    /// Runs `f` with the eval-mode normalization (running statistics,
    /// `inv_std = 1 / sqrt(running_var + eps)`, γ, β) — what `infer`
    /// applies and what a preceding convolution's output sweep applies
    /// in its place.
    pub(crate) fn with_eval_norm<R>(&self, f: impl FnOnce(Norm) -> R) -> R {
        let inv = self.running_var.iter().map(|&v| 1.0 / (v + self.eps).sqrt());
        let inv_std = scratch::collect_exact(self.channels(), inv);
        let norm = Norm {
            mean: &self.running_mean,
            inv_std: &inv_std,
            gamma: self.gamma.data(),
            beta: self.beta.data(),
        };
        let out = f(norm);
        scratch::recycle(inv_std);
        out
    }

    /// Normalizes `input` with the batch statistics, applying γ and β.
    /// Returns `(output, x_hat)` for the backward pass.
    fn normalize_train(
        &self,
        input: &Tensor,
        means: &[f32],
        inv_std: &[f32],
    ) -> (Tensor, Vec<f32>) {
        let (b, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let plane = h * w;
        let data = input.data();
        let mut x_hat = vec![0.0f32; data.len()];
        let mut out = vec![0.0f32; data.len()];
        let g = self.gamma.data();
        let be = self.beta.data();
        for bi in 0..b {
            for ci in 0..c {
                let base = (bi * c + ci) * plane;
                for p in 0..plane {
                    let xh = (data[base + p] - means[ci]) * inv_std[ci];
                    x_hat[base + p] = xh;
                    out[base + p] = g[ci] * xh + be[ci];
                }
            }
        }
        (Tensor::from_vec(out, input.shape()), x_hat)
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if !train {
            return self.infer(input);
        }
        assert_eq!(input.ndim(), 4, "BatchNorm2d expects [B, C, H, W]");
        let (b, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        assert_eq!(c, self.channels(), "BatchNorm2d channel mismatch");
        let plane = h * w;
        let per_channel = (b * plane) as f32;
        let data = input.data();

        let mut means = vec![0.0f32; c];
        let mut vars = vec![0.0f32; c];
        for ci in 0..c {
            let mut sum = 0.0f32;
            for bi in 0..b {
                let base = (bi * c + ci) * plane;
                sum += data[base..base + plane].iter().sum::<f32>();
            }
            means[ci] = sum / per_channel;
            let mut sq = 0.0f32;
            for bi in 0..b {
                let base = (bi * c + ci) * plane;
                for &v in &data[base..base + plane] {
                    let d = v - means[ci];
                    sq += d * d;
                }
            }
            vars[ci] = sq / per_channel;
            self.running_mean[ci] =
                (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * means[ci];
            self.running_var[ci] =
                (1.0 - self.momentum) * self.running_var[ci] + self.momentum * vars[ci];
        }

        let inv_std: Vec<f32> = vars.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let (out, x_hat) = self.normalize_train(input, &means, &inv_std);
        self.cache = Some(BnCache { x_hat: Tensor::from_vec(x_hat, input.shape()), inv_std });
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.ndim(), 4, "BatchNorm2d expects [B, C, H, W]");
        assert_eq!(input.shape()[1], self.channels(), "BatchNorm2d channel mismatch");
        let (c, plane) = (self.channels(), input.shape()[2] * input.shape()[3]);
        // Only the output is written: `x_hat` is the training path's.
        let mut out = scratch::take_dirty(input.numel());
        self.with_eval_norm(|norm| {
            let planes = input.data().chunks_exact(plane.max(1));
            for (i, (src, dst)) in planes.zip(out.chunks_exact_mut(plane.max(1))).enumerate() {
                for (d, &v) in dst.iter_mut().zip(src) {
                    *d = norm.apply(v, i % c);
                }
            }
        });
        Tensor::from_vec(out, input.shape())
    }

    fn epilogue(&self) -> Option<Epilogue<'_>> {
        Some(Epilogue::Norm(self))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("BatchNorm2d::backward without forward");
        let (b, c, h, w) =
            (grad_out.shape()[0], grad_out.shape()[1], grad_out.shape()[2], grad_out.shape()[3]);
        let plane = h * w;
        let n = (b * plane) as f32;
        let gd = grad_out.data();
        let xh = cache.x_hat.data();
        let g = self.gamma.data();

        // Per-channel sums needed by the BN gradient.
        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xhat = vec![0.0f32; c];
        for bi in 0..b {
            for ci in 0..c {
                let base = (bi * c + ci) * plane;
                for p in 0..plane {
                    sum_dy[ci] += gd[base + p];
                    sum_dy_xhat[ci] += gd[base + p] * xh[base + p];
                }
            }
        }
        {
            let dg = self.dgamma.data_mut();
            let db = self.dbeta.data_mut();
            for ci in 0..c {
                dg[ci] += sum_dy_xhat[ci];
                db[ci] += sum_dy[ci];
            }
        }
        // dx = γ·inv_std/N · (N·dy − Σdy − x̂·Σ(dy·x̂))
        let mut dx = vec![0.0f32; gd.len()];
        for bi in 0..b {
            for ci in 0..c {
                let base = (bi * c + ci) * plane;
                let k = g[ci] * cache.inv_std[ci] / n;
                for p in 0..plane {
                    dx[base + p] =
                        k * (n * gd[base + p] - sum_dy[ci] - xh[base + p] * sum_dy_xhat[ci]);
                }
            }
        }
        Tensor::from_vec(dx, grad_out.shape())
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.gamma, &self.beta]
    }

    fn params_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![(&mut self.gamma, &mut self.dgamma), (&mut self.beta, &mut self.dbeta)]
    }

    // Running statistics must survive serialization: an imported model
    // with default (0, 1) running stats is useless in eval mode.
    fn extra_state(&self) -> Vec<f32> {
        let mut s = self.running_mean.clone();
        s.extend_from_slice(&self.running_var);
        s
    }

    fn extra_state_len(&self) -> usize {
        2 * self.channels()
    }

    fn load_extra_state(&mut self, state: &[f32]) {
        let c = self.channels();
        assert_eq!(state.len(), 2 * c, "BatchNorm2d state length mismatch");
        self.running_mean.copy_from_slice(&state[..c]);
        self.running_var.copy_from_slice(&state[c..]);
    }

    fn name(&self) -> &'static str {
        "BatchNorm2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_forward_standardizes_channels() {
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[1, 2, 2, 2]);
        let y = bn.forward(&x, true);
        // Each channel should have mean ~0 and unit variance.
        for ci in 0..2 {
            let slice = &y.data()[ci * 4..(ci + 1) * 4];
            let mean: f32 = slice.iter().sum::<f32>() / 4.0;
            let var: f32 = slice.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "channel {ci} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "channel {ci} var {var}");
        }
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_vec(vec![5.0, 5.0, 5.0, 5.0], &[1, 1, 2, 2]);
        // Repeated training passes move the running mean toward 5.
        for _ in 0..50 {
            let _ = bn.forward(&x, true);
        }
        let y = bn.forward(&x, false);
        // Running mean ≈ 5, running var ≈ 0 → output ≈ 0 everywhere.
        assert!(y.data().iter().all(|v| v.abs() < 0.5), "eval output {:?}", y.data());
    }

    #[test]
    fn gamma_beta_are_learnable() {
        let mut bn = BatchNorm2d::new(1);
        bn.params_grads()[0].0.data_mut()[0] = 2.0;
        bn.params_grads()[1].0.data_mut()[0] = 1.0;
        let x = Tensor::from_vec(vec![-1.0, 1.0], &[1, 1, 1, 2]);
        let y = bn.forward(&x, true);
        // x̂ = [-1, 1] → y = 2·x̂ + 1 = [-1, 3].
        assert!((y.data()[0] + 1.0).abs() < 1e-2);
        assert!((y.data()[1] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn backward_gradients_sum_to_zero_per_channel() {
        // BN output is mean-free per channel, so dL/dx must be orthogonal
        // to constant shifts: Σ dx over a channel ≈ 0.
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.1, 2.0, -1.0], &[1, 1, 2, 3]);
        let _ = bn.forward(&x, true);
        let g = Tensor::from_vec(vec![1.0, -0.5, 0.2, 0.9, -0.1, 0.4], &[1, 1, 2, 3]);
        let dx = bn.backward(&g);
        let sum: f32 = dx.data().iter().sum();
        assert!(sum.abs() < 1e-4, "dx sum {sum}");
    }
}
