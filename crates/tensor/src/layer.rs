//! The [`Layer`] trait and the [`Sequential`] container.
//!
//! ODIN's networks are plain layer stacks trained with layer-wise
//! backpropagation: `forward` caches whatever `backward` needs, `backward`
//! accumulates parameter gradients and returns the gradient with respect to
//! its input. There is no tape/autograd — every model in the paper is a
//! feed-forward composition, so this is all that is needed, and it keeps
//! memory behaviour predictable.

use crate::layers::BatchNorm2d;
use crate::tensor::Tensor;

/// A per-channel elementwise layer in the form a preceding convolution
/// can apply in its output sweep (see [`Layer::infer_fused`]).
#[derive(Clone, Copy)]
pub enum Epilogue<'a> {
    /// An eval-mode batch norm.
    Norm(&'a BatchNorm2d),
    /// A ReLU (`0.0`) or LeakyReLU (the slope, `> 0`).
    Act(f32),
}

/// A differentiable network layer.
///
/// Layers are `Send + Sync`: a frozen network can be shared across
/// threads (e.g. a teacher model serving distillation workers) as long
/// as only [`Layer::infer`] is called.
pub trait Layer: Send + Sync {
    /// Runs the layer forward. When `train` is true the layer caches
    /// activations required by [`Layer::backward`].
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Inference-mode forward pass through `&self`: no activation
    /// caching, no running-statistic updates. The only interior state a
    /// layer may touch is a write-once cache derived purely from its
    /// parameters (the packed weight panels of `Conv2d`/`Dense`), which
    /// can never change a result and is safe to race on.
    /// Must produce exactly the same output as `forward(input, false)`.
    fn infer(&self, input: &Tensor) -> Tensor;

    /// [`Layer::infer`] followed by as many of the `next` layers as this
    /// layer can apply in its own output pass; returns the output and
    /// how many of `next` it applied. Must equal running those layers'
    /// `infer` in turn, bit for bit. [`Sequential::infer`] drives it; a
    /// convolution takes a following eval-mode batch norm and
    /// activation (see [`Layer::epilogue`]).
    fn infer_fused(&self, input: &Tensor, _next: &[Box<dyn Layer>]) -> (Tensor, usize) {
        (self.infer(input), 0)
    }

    /// This layer as a step a preceding convolution can apply in its
    /// output sweep, if it is one.
    fn epilogue(&self) -> Option<Epilogue<'_>> {
        None
    }

    /// Backpropagates `grad_out` (gradient of the loss w.r.t. this layer's
    /// output), accumulating parameter gradients internally and returning
    /// the gradient w.r.t. this layer's input.
    ///
    /// Must be preceded by a `forward(.., train=true)` call.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// [`Layer::backward`] for a caller that does not read the input
    /// gradient — the first layer of a network whose input is data.
    /// Leaves exactly the parameter gradients `backward` leaves;
    /// `Conv2d` and `Dense` override it to stop once those are
    /// accumulated, which skips the `G · W` product (and `col2im`).
    fn backward_params(&mut self, grad_out: &Tensor) {
        let _ = self.backward(grad_out);
    }

    /// Immutable access to trainable parameters (for counting/serialization).
    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// `(parameter, accumulated gradient)` pairs, in a stable order.
    fn params_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        Vec::new()
    }

    /// Clears accumulated gradients.
    fn zero_grad(&mut self) {
        for (_, g) in self.params_grads() {
            g.fill_zero();
        }
    }

    /// Non-trainable state that must survive serialization (e.g. batch
    /// norm running statistics). Defaults to empty.
    fn extra_state(&self) -> Vec<f32> {
        Vec::new()
    }

    /// Length of [`Layer::extra_state`].
    fn extra_state_len(&self) -> usize {
        0
    }

    /// Restores state produced by [`Layer::extra_state`].
    ///
    /// # Panics
    ///
    /// Implementations panic on length mismatch.
    fn load_extra_state(&mut self, _state: &[f32]) {}

    /// Human-readable layer name for debugging.
    fn name(&self) -> &'static str;
}

/// A stack of layers applied in order.
///
/// `Sequential` itself implements [`Layer`], so stacks compose.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn add(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the stack.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the stack contains no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total number of trainable scalar parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.params().iter().map(|p| p.numel()).sum::<usize>()).sum()
    }

    /// Model size in bytes (f32 parameters).
    pub fn param_bytes(&self) -> usize {
        self.num_params() * std::mem::size_of::<f32>()
    }

    /// Total length of an [`Sequential::export_params`] buffer:
    /// trainable parameters plus non-trainable state (batch-norm running
    /// statistics).
    pub fn export_len(&self) -> usize {
        self.num_params() + self.layers.iter().map(|l| l.extra_state_len()).sum::<usize>()
    }

    /// Copies all parameters into one flat buffer, in layer order,
    /// followed by each layer's non-trainable state.
    pub fn export_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.export_len());
        for l in &self.layers {
            for p in l.params() {
                out.extend_from_slice(p.data());
            }
        }
        for l in &self.layers {
            out.extend(l.extra_state());
        }
        out
    }

    /// Restores parameters (and non-trainable state) from a flat buffer
    /// produced by [`Sequential::export_params`] on an identically shaped
    /// stack.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length does not match [`Sequential::export_len`].
    pub fn import_params(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.export_len(), "parameter buffer length mismatch");
        let mut offset = 0usize;
        for l in &mut self.layers {
            for (p, _) in l.params_grads() {
                let n = p.numel();
                p.data_mut().copy_from_slice(&flat[offset..offset + n]);
                offset += n;
            }
        }
        for l in &mut self.layers {
            let n = l.extra_state_len();
            l.load_extra_state(&flat[offset..offset + n]);
            offset += n;
        }
        debug_assert_eq!(offset, flat.len());
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if !train {
            return self.infer(input);
        }
        let Some((first, rest)) = self.layers.split_first_mut() else { return input.clone() };
        rest.iter_mut().fold(first.forward(input, true), |x, l| l.forward(&x, true))
    }

    /// Each layer in turn, a layer taking the ones after it that it can
    /// apply in its output pass ([`Layer::infer_fused`]).
    fn infer(&self, input: &Tensor) -> Tensor {
        let mut x: Option<Tensor> = None;
        let mut i = 0;
        while i < self.layers.len() {
            let (y, absorbed) =
                self.layers[i].infer_fused(x.as_ref().unwrap_or(input), &self.layers[i + 1..]);
            x = Some(y);
            i += 1 + absorbed;
        }
        x.unwrap_or_else(|| input.clone())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let Some((last, rest)) = self.layers.split_last_mut() else { return grad_out.clone() };
        rest.iter_mut().rev().fold(last.backward(grad_out), |g, l| l.backward(&g))
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        match self.layers.as_mut_slice() {
            [] => {}
            [only] => only.backward_params(grad_out),
            [first, middle @ .., last] => {
                let g =
                    middle.iter_mut().rev().fold(last.backward(grad_out), |g, l| l.backward(&g));
                first.backward_params(&g);
            }
        }
    }

    fn params(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        self.layers.iter_mut().flat_map(|l| l.params_grads()).collect()
    }

    fn extra_state(&self) -> Vec<f32> {
        self.layers.iter().flat_map(|l| l.extra_state()).collect()
    }

    fn extra_state_len(&self) -> usize {
        self.layers.iter().map(|l| l.extra_state_len()).sum()
    }

    fn load_extra_state(&mut self, state: &[f32]) {
        let mut offset = 0usize;
        for l in &mut self.layers {
            let n = l.extra_state_len();
            l.load_extra_state(&state[offset..offset + n]);
            offset += n;
        }
        assert_eq!(offset, state.len(), "extra-state buffer length mismatch");
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new()
            .push(Dense::new(4, 8, &mut rng))
            .push(Relu::new())
            .push(Dense::new(8, 2, &mut rng))
    }

    #[test]
    fn sequential_forward_shape() {
        let mut net = tiny_net(0);
        let x = Tensor::zeros(&[3, 4]);
        let y = net.forward(&x, false);
        assert_eq!(y.shape(), &[3, 2]);
    }

    #[test]
    fn num_params_counts_weights_and_biases() {
        let net = tiny_net(0);
        // 4*8 + 8 + 8*2 + 2 = 58
        assert_eq!(net.num_params(), 58);
        assert_eq!(net.param_bytes(), 58 * 4);
    }

    #[test]
    fn export_import_roundtrip() {
        let mut a = tiny_net(1);
        let mut b = tiny_net(2);
        let x = Tensor::ones(&[1, 4]);
        let ya = a.forward(&x, false);
        let yb = b.forward(&x, false);
        assert_ne!(ya.data(), yb.data(), "different seeds should differ");
        let blob = a.export_params();
        b.import_params(&blob);
        let yb2 = b.forward(&x, false);
        assert_eq!(ya.data(), yb2.data());
    }

    #[test]
    #[should_panic(expected = "parameter buffer")]
    fn import_wrong_length_panics() {
        let mut net = tiny_net(0);
        net.import_params(&[0.0; 3]);
    }

    #[test]
    fn infer_matches_eval_forward() {
        let mut net = tiny_net(3);
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1, -0.3, 1.2, 0.0, 4.0], &[2, 4]);
        let eval = net.forward(&x, false);
        let inferred = net.infer(&x);
        assert_eq!(eval.data(), inferred.data());
    }

    #[test]
    fn zero_grad_clears_accumulated_gradients() {
        let mut net = tiny_net(0);
        let x = Tensor::ones(&[2, 4]);
        let y = net.forward(&x, true);
        net.backward(&Tensor::ones(y.shape()));
        let any_nonzero =
            net.params_grads().iter().any(|(_, g)| g.data().iter().any(|&v| v != 0.0));
        assert!(any_nonzero);
        net.zero_grad();
        let all_zero = net.params_grads().iter().all(|(_, g)| g.data().iter().all(|&v| v == 0.0));
        assert!(all_zero);
    }
}
