//! Fully-connected layer.

use rand::rngs::StdRng;

use crate::init;
use crate::layer::Layer;
use crate::ops::{matmul, matmul_tn, Lhs, WeightPanels};
use crate::tensor::Tensor;

/// A fully-connected (affine) layer: `y = x Wᵀ + b`.
///
/// Input `[B, in]`, output `[B, out]`. Weights are stored `[out, in]`.
pub struct Dense {
    w: Tensor,
    /// Packed form of `w` for the forward product; stale whenever `w`
    /// may have changed, i.e. after every [`Layer::params_grads`].
    panels: WeightPanels,
    b: Tensor,
    dw: Tensor,
    db: Tensor,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-normal initialized weights.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let std = (2.0 / in_dim as f32).sqrt();
        Dense {
            w: init::normal(rng, &[out_dim, in_dim], std),
            panels: WeightPanels::default(),
            b: Tensor::zeros(&[out_dim]),
            dw: Tensor::zeros(&[out_dim, in_dim]),
            db: Tensor::zeros(&[out_dim]),
            cached_input: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.shape()[1]
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.shape()[0]
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.cached_input = Some(input.clone());
        }
        self.panels.refresh(&self.w);
        self.infer(input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.ndim(), 2, "Dense expects [B, in]");
        assert_eq!(
            input.shape()[1],
            self.in_dim(),
            "Dense input dim {} != expected {}",
            input.shape()[1],
            self.in_dim()
        );
        let mut y = self.panels.nt(&Lhs::dense(input), &self.w);
        let out = y.shape()[1];
        let bias = self.b.data();
        for row in y.data_mut().chunks_exact_mut(out) {
            for (v, &bv) in row.iter_mut().zip(bias.iter()) {
                *v += bv;
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // dW += Gᵀ X ; db += column sums of G ; dX = G W
        self.backward_params(grad_out);
        matmul(grad_out, &self.w)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let x = self
            .cached_input
            .as_ref()
            .expect("Dense::backward called without a training forward pass");
        let dw = matmul_tn(grad_out, x);
        self.dw.add_scaled(&dw, 1.0);
        let out = grad_out.shape()[1];
        let dbd = self.db.data_mut();
        for row in grad_out.data().chunks_exact(out) {
            for (d, &g) in dbd.iter_mut().zip(row.iter()) {
                *d += g;
            }
        }
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.w, &self.b]
    }

    fn params_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        self.panels.invalidate();
        vec![(&mut self.w, &mut self.dw), (&mut self.b, &mut self.db)]
    }

    fn zero_grad(&mut self) {
        // Direct fills keep the training loop allocation-free (the
        // default goes through the params_grads Vec).
        self.dw.fill_zero();
        self.db.fill_zero();
    }

    fn name(&self) -> &'static str {
        "Dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_applies_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(2, 3, &mut rng);
        // Zero the weights so output == bias.
        for v in d.params_grads()[0].0.data_mut() {
            *v = 0.0;
        }
        d.params_grads()[1].0.data_mut().copy_from_slice(&[1.0, 2.0, 3.0]);
        let y = d.forward(&Tensor::ones(&[2, 2]), false);
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn backward_accumulates_gradients() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let _ = d.forward(&x, true);
        let g = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]);
        let _ = d.backward(&g);
        let _ = d.backward(&g); // accumulate twice
        let (_, dw) = d.params_grads().remove(0);
        // d loss / d w[0][0] = g[0]*x[0] = 1, accumulated twice => 2
        assert_eq!(dw.get(&[0, 0]), 2.0);
        assert_eq!(dw.get(&[0, 1]), 4.0);
        assert_eq!(dw.get(&[1, 0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "Dense input dim")]
    fn wrong_input_dim_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(4, 2, &mut rng);
        let _ = d.forward(&Tensor::zeros(&[1, 3]), false);
    }
}
