//! Activation layers.

use crate::layer::{Epilogue, Layer};
use crate::ops::sigmoid;
use crate::tensor::Tensor;

/// Rectified linear unit: `max(0, x)`.
#[derive(Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.mask = Some(input.data().iter().map(|&x| x > 0.0).collect());
        }
        self.infer(input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        input.map(|x| x.max(0.0))
    }

    fn epilogue(&self) -> Option<Epilogue<'_>> {
        Some(Epilogue::Act(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("Relu::backward without forward");
        assert_eq!(mask.len(), grad_out.numel(), "Relu grad shape mismatch");
        let data = grad_out
            .data()
            .iter()
            .zip(mask.iter())
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(data, grad_out.shape())
    }

    fn name(&self) -> &'static str {
        "Relu"
    }
}

/// Leaky ReLU: `x` if `x > 0`, otherwise `alpha * x`.
pub struct LeakyRelu {
    alpha: f32,
    mask: Option<Vec<bool>>,
}

impl LeakyRelu {
    /// Creates a leaky ReLU with the given negative slope.
    pub fn new(alpha: f32) -> Self {
        LeakyRelu { alpha, mask: None }
    }
}

impl Default for LeakyRelu {
    /// The GAN-conventional slope of 0.2.
    fn default() -> Self {
        Self::new(0.2)
    }
}

impl Layer for LeakyRelu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.mask = Some(input.data().iter().map(|&x| x > 0.0).collect());
        }
        self.infer(input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let a = self.alpha;
        input.map(|x| if x > 0.0 { x } else { a * x })
    }

    /// Only a positive slope: the output sweep treats slope `0.0` as
    /// ReLU, which differs from `0.0 * x` in the sign of zero.
    fn epilogue(&self) -> Option<Epilogue<'_>> {
        (self.alpha > 0.0).then_some(Epilogue::Act(self.alpha))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("LeakyRelu::backward without forward");
        assert_eq!(mask.len(), grad_out.numel(), "LeakyRelu grad shape mismatch");
        let a = self.alpha;
        let data = grad_out
            .data()
            .iter()
            .zip(mask.iter())
            .map(|(&g, &m)| if m { g } else { a * g })
            .collect();
        Tensor::from_vec(data, grad_out.shape())
    }

    fn name(&self) -> &'static str {
        "LeakyRelu"
    }
}

/// Logistic sigmoid.
#[derive(Default)]
pub struct Sigmoid {
    output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let y = self.infer(input);
        if train {
            self.output = Some(y.clone());
        }
        y
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        input.map(sigmoid)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self.output.as_ref().expect("Sigmoid::backward without forward");
        grad_out.zip(y, |g, s| g * s * (1.0 - s))
    }

    fn name(&self) -> &'static str {
        "Sigmoid"
    }
}

/// Hyperbolic tangent.
#[derive(Default)]
pub struct Tanh {
    output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let y = self.infer(input);
        if train {
            self.output = Some(y.clone());
        }
        y
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        input.map(f32::tanh)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self.output.as_ref().expect("Tanh::backward without forward");
        grad_out.zip(y, |g, t| g * (1.0 - t * t))
    }

    fn name(&self) -> &'static str {
        "Tanh"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clips_negatives() {
        let mut r = Relu::new();
        let y = r.forward(&Tensor::from_slice(&[-1.0, 0.0, 2.0]), true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = r.backward(&Tensor::from_slice(&[1.0, 1.0, 1.0]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        let mut r = LeakyRelu::new(0.1);
        let y = r.forward(&Tensor::from_slice(&[-10.0, 10.0]), true);
        assert_eq!(y.data(), &[-1.0, 10.0]);
        let g = r.backward(&Tensor::from_slice(&[1.0, 1.0]));
        assert_eq!(g.data(), &[0.1, 1.0]);
    }

    #[test]
    fn sigmoid_gradient_peaks_at_zero() {
        let mut s = Sigmoid::new();
        let _ = s.forward(&Tensor::from_slice(&[0.0, 10.0]), true);
        let g = s.backward(&Tensor::from_slice(&[1.0, 1.0]));
        assert!((g.data()[0] - 0.25).abs() < 1e-6);
        assert!(g.data()[1] < 1e-3);
    }

    #[test]
    fn tanh_range_and_gradient() {
        let mut t = Tanh::new();
        let y = t.forward(&Tensor::from_slice(&[0.0, 100.0, -100.0]), true);
        assert_eq!(y.data()[0], 0.0);
        assert!((y.data()[1] - 1.0).abs() < 1e-5);
        let g = t.backward(&Tensor::from_slice(&[1.0, 1.0, 1.0]));
        assert!((g.data()[0] - 1.0).abs() < 1e-6);
        assert!(g.data()[1].abs() < 1e-5);
    }
}
