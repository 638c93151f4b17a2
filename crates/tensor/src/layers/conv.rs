//! 2-D convolution.
//!
//! Forward, training and inference alike: the implicit-GEMM product —
//! the NT kernel reads the zero-padded input in place, no `im2col`
//! matrix — then one output sweep (bias, then the activation; at
//! inference also a following eval-mode batch norm and activation when
//! [`Layer::infer_fused`] hands them over; positions → NCHW). Inference
//! ([`Layer::infer`], and `forward` with `train = false`) reads an
//! unpadded input where it lies; training keeps the padded copy for the
//! backward pass. Backward: one gradient sweep (fused activation's
//! gradient, NCHW → positions) → `db` as row sums, `dW = Gᵀ · cols`
//! with the columns read from the kept padded input through the same
//! addressing, transposed, and — only for a caller that reads it
//! ([`Layer::backward`], not [`Layer::backward_params`]) — `dX =
//! col2im(G · W)`. The padded input and the activation mask live in the
//! layer between steps, so a steady-state training step allocates
//! nothing.

use rand::rngs::StdRng;

use crate::init;
use crate::layer::{Epilogue, Layer};
use crate::ops::{
    col2im, conv2d_implicit, conv2d_padded, conv2d_weight_grad, matmul, pad_input, transpose_sweep,
    ConvGeom, Norm, SweepOp, WeightPanels,
};
use crate::scratch;
use crate::tensor::Tensor;

/// A 2-D convolution with square kernels, uniform stride, and zero padding.
///
/// Input `[B, in_c, H, W]`, output `[B, out_c, H', W']`.
/// Weights are stored flattened `[out_c, in_c * k * k]`, the `im2col`
/// matmul's right-hand side (the `im2col` matrix itself is never built).
///
/// An activation can be fused into the convolution's output pass (see
/// [`Conv2d::fuse_relu`] / [`Conv2d::fuse_leaky_relu`]): bias add,
/// activation, and the positions→NCHW repack then happen in one sweep
/// instead of three, with values bit-identical to running the separate
/// activation layer afterwards.
pub struct Conv2d {
    in_c: usize,
    out_c: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    w: Tensor,
    /// Packed form of `w` for the forward product; stale whenever `w`
    /// may have changed, i.e. after every [`Layer::params_grads`].
    panels: WeightPanels,
    b: Tensor,
    dw: Tensor,
    db: Tensor,
    /// Negative-side slope of a fused activation: `Some(0.0)` = ReLU,
    /// `Some(a)` = LeakyReLU with slope `a`, `None` = linear output.
    fused_act: Option<f32>,
    cache: Option<ConvCache>,
}

/// What a training forward pass leaves for the backward pass.
struct ConvCache {
    /// The input with its zero border, `[B, C, Hp, Wp]` (a copy even
    /// without padding): the left operand of the forward product and
    /// of `dW`, read in place by both.
    padded: Tensor,
    geom: ConvGeom,
    /// Sign of the fused activation's output (`out > 0`), recorded
    /// during the training forward pass so backward can apply the
    /// activation gradient before the convolution gradients. For
    /// slope ≥ 0, `out > 0 ⇔ pre-activation > 0`, the same mask the
    /// standalone activation layers compute from their input. Empty
    /// without a fused activation; like `padded`, the allocation is
    /// carried from one training forward pass to the next.
    act_mask: Vec<bool>,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal initialized weights.
    pub fn new(
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut StdRng,
    ) -> Self {
        let fan_in = in_c * kernel * kernel;
        let std = (2.0 / fan_in as f32).sqrt();
        Conv2d {
            in_c,
            out_c,
            kernel,
            stride,
            pad,
            w: init::normal(rng, &[out_c, fan_in], std),
            panels: WeightPanels::default(),
            b: Tensor::zeros(&[out_c]),
            dw: Tensor::zeros(&[out_c, fan_in]),
            db: Tensor::zeros(&[out_c]),
            fused_act: None,
            cache: None,
        }
    }

    /// Convenience constructor: 3×3 kernel, given stride, padding 1.
    pub fn k3(in_c: usize, out_c: usize, stride: usize, rng: &mut StdRng) -> Self {
        Self::new(in_c, out_c, 3, stride, 1, rng)
    }

    /// Fuses a ReLU into the output pass (replaces a following
    /// `Relu` layer; bit-identical values).
    pub fn fuse_relu(mut self) -> Self {
        self.fused_act = Some(0.0);
        self
    }

    /// Fuses a LeakyReLU with negative slope `alpha` into the output
    /// pass (replaces a following `LeakyRelu` layer; bit-identical
    /// values). `alpha` must be non-negative — the backward mask is
    /// recovered from the output sign.
    pub fn fuse_leaky_relu(mut self, alpha: f32) -> Self {
        assert!(alpha >= 0.0, "fused activation slope must be non-negative");
        self.fused_act = Some(alpha);
        self
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    fn geom_for(&self, input: &Tensor) -> ConvGeom {
        assert_eq!(input.ndim(), 4, "Conv2d expects [B, C, H, W]");
        assert_eq!(
            input.shape()[1],
            self.in_c,
            "Conv2d input channels {} != expected {}",
            input.shape()[1],
            self.in_c
        );
        ConvGeom {
            in_c: self.in_c,
            in_h: input.shape()[2],
            in_w: input.shape()[3],
            kernel: self.kernel,
            stride: self.stride,
            pad: self.pad,
        }
    }
}

/// Converts a `[B*OH*OW, C]` row-per-position matrix into `[B, C, OH, OW]`.
/// The forward path fuses this repack into `Conv2d::output`; kept as the
/// reference implementation for the roundtrip test of the backward repack.
#[cfg(test)]
fn positions_to_nchw(m: &Tensor, batch: usize, c: usize, oh: usize, ow: usize) -> Tensor {
    debug_assert_eq!(m.shape(), &[batch * oh * ow, c]);
    let md = m.data();
    let mut out = scratch::take_zeroed(batch * c * oh * ow);
    let plane = oh * ow;
    for bi in 0..batch {
        for p in 0..plane {
            let src = &md[(bi * plane + p) * c..(bi * plane + p + 1) * c];
            for (ch, &v) in src.iter().enumerate() {
                out[bi * c * plane + ch * plane + p] = v;
            }
        }
    }
    Tensor::from_vec(out, &[batch, c, oh, ow])
}

impl Conv2d {
    /// The output sweep shared by the training and inference forward
    /// paths: `pos` (`[B·OH·OW, out_c]`, a row per position) to NCHW,
    /// with the bias, then `norm`, then the activation of negative slope
    /// `slope` applied on the way.
    fn output(
        &self,
        pos: &Tensor,
        geom: &ConvGeom,
        batch: usize,
        norm: Option<Norm>,
        slope: Option<f32>,
    ) -> Tensor {
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let (oc, plane) = (self.out_c, oh * ow);
        let op = SweepOp::Output { bias: self.b.data(), norm, slope };
        let mut out = scratch::take_dirty(batch * oc * plane);
        for (src, img) in pos.data().chunks_exact(plane * oc).zip(out.chunks_exact_mut(oc * plane))
        {
            transpose_sweep(src, plane, oc, img, op);
        }
        Tensor::from_vec(out, &[batch, oc, oh, ow])
    }

    /// The inference forward pass: the implicit-GEMM product over the
    /// input, read in place unless it needs a zero border, and one
    /// output sweep.
    fn infer_with(&self, input: &Tensor, norm: Option<Norm>, slope: Option<f32>) -> Tensor {
        let geom = self.geom_for(input);
        let pos = conv2d_implicit(input, &geom, &self.w, &self.panels);
        self.output(&pos, &geom, input.shape()[0], norm, slope)
    }

    /// The half of the backward pass every caller needs: `dW += Gᵀ ·
    /// cols` (read from the padded input) and `db +=` column sums of
    /// `G`. Returns `G` — the output gradient through the fused
    /// activation, `[B*OH*OW, out_c]` — for [`Layer::backward`] to carry
    /// on to the input gradient.
    fn accumulate_param_grads(&mut self, grad_out: &Tensor) -> Tensor {
        let cache =
            self.cache.as_ref().expect("Conv2d::backward called without a training forward pass");
        let (oc, batch) = (self.out_c, cache.padded.shape()[0]);
        let plane = cache.geom.out_h() * cache.geom.out_w();
        assert_eq!(grad_out.shape(), &[batch, oc, cache.geom.out_h(), cache.geom.out_w()]);
        // G: the output gradient, a row per position, through the fused
        // activation's gradient — elementwise, exactly what the
        // standalone Relu/LeakyRelu backward computes.
        let mut g = scratch::take_dirty(batch * plane * oc);
        for (bi, dst) in g.chunks_exact_mut(plane * oc).enumerate() {
            let image = bi * oc * plane..(bi + 1) * oc * plane;
            let op = match self.fused_act {
                Some(slope) => SweepOp::ActGrad { mask: &cache.act_mask[image.clone()], slope },
                None => SweepOp::Copy,
            };
            transpose_sweep(&grad_out.data()[image], oc, plane, dst, op);
        }
        let g_pos = Tensor::from_vec(g, &[batch * plane, oc]);
        let dw = conv2d_weight_grad(&cache.padded, &cache.geom, &g_pos);
        self.dw.add_scaled(&dw, 1.0);
        // Row by row: each channel takes its terms in ascending position
        // order, one accumulator per channel.
        let dbd = self.db.data_mut();
        for row in g_pos.data().chunks_exact(oc) {
            for (d, &v) in dbd.iter_mut().zip(row.iter()) {
                *d += v;
            }
        }
        g_pos
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.panels.refresh(&self.w);
        if !train {
            // The training cache stays: a backward may follow.
            return self.infer(input);
        }
        let geom = self.geom_for(input);
        // Reuse the previous forward pass's padded buffer and mask; with
        // a stable batch shape this makes forward allocation-free.
        let (reuse, mut act_mask) = match self.cache.take() {
            Some(prev) => (Some(prev.padded.into_vec()), prev.act_mask),
            None => (None, Vec::new()),
        };
        let padded = pad_input(input, &geom, reuse);
        let pos = conv2d_padded(&padded, &geom, &self.w, &self.panels);
        let out = self.output(&pos, &geom, input.shape()[0], None, self.fused_act);
        act_mask.clear();
        if self.fused_act.is_some() {
            act_mask.extend(out.data().iter().map(|&v| v > 0.0));
        }
        self.cache = Some(ConvCache { padded, geom, act_mask });
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        self.infer_with(input, None, self.fused_act)
    }

    /// Takes an eval-mode `BatchNorm2d` over this layer's channels, then
    /// a ReLU or LeakyReLU, from `next` into the output sweep — a ReLU
    /// only straight after the bias (see `simd::avx2::transpose_sweep`
    /// on the sign of zero). A layer with a fused activation of its own
    /// takes nothing.
    fn infer_fused(&self, input: &Tensor, next: &[Box<dyn Layer>]) -> (Tensor, usize) {
        if self.fused_act.is_some() {
            return (self.infer(input), 0);
        }
        let bn = match next.first().and_then(|l| l.epilogue()) {
            Some(Epilogue::Norm(bn)) if bn.channels() == self.out_c => Some(bn),
            _ => None,
        };
        let act_at = usize::from(bn.is_some());
        let slope = match next.get(act_at).and_then(|l| l.epilogue()) {
            Some(Epilogue::Act(a)) if bn.is_none() || a > 0.0 => Some(a),
            _ => None,
        };
        let out = match bn {
            Some(bn) => bn.with_eval_norm(|norm| self.infer_with(input, Some(norm), slope)),
            None => self.infer_with(input, None, slope),
        };
        (out, act_at + usize::from(slope.is_some()))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g_pos = self.accumulate_param_grads(grad_out);
        let cache = self.cache.as_ref().expect("checked by accumulate_param_grads");
        // dX = col2im(G · W)
        let dcols = matmul(&g_pos, &self.w);
        col2im(&dcols, &cache.geom, cache.padded.shape()[0])
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let _ = self.accumulate_param_grads(grad_out);
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
        "Conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_stride1() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let y = c.forward(&Tensor::zeros(&[2, 3, 8, 8]), false);
        assert_eq!(y.shape(), &[2, 8, 8, 8]);
    }

    #[test]
    fn forward_shape_stride2_downsamples() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new(1, 4, 3, 2, 1, &mut rng);
        let y = c.forward(&Tensor::zeros(&[1, 1, 16, 16]), false);
        assert_eq!(y.shape(), &[1, 4, 8, 8]);
    }

    #[test]
    fn identity_kernel_passes_through() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        c.params_grads()[0].0.data_mut()[0] = 1.0;
        c.params_grads()[1].0.data_mut()[0] = 0.0;
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = c.forward(&x, false);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn bias_broadcasts_per_channel() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new(1, 2, 1, 1, 0, &mut rng);
        for v in c.params_grads()[0].0.data_mut() {
            *v = 0.0;
        }
        c.params_grads()[1].0.data_mut().copy_from_slice(&[5.0, -5.0]);
        let y = c.forward(&Tensor::zeros(&[1, 1, 2, 2]), false);
        assert_eq!(y.shape(), &[1, 2, 2, 2]);
        assert!(y.data()[..4].iter().all(|&v| v == 5.0));
        assert!(y.data()[4..].iter().all(|&v| v == -5.0));
    }

    #[test]
    fn eval_pass_between_forward_and_backward_keeps_the_training_cache() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut a = Conv2d::k3(2, 4, 1, &mut rng).fuse_leaky_relu(0.2);
        let mut b = Conv2d::k3(2, 4, 1, &mut StdRng::seed_from_u64(3)).fuse_leaky_relu(0.2);
        let x = Tensor::from_vec(
            (0..2 * 2 * 5 * 4).map(|v| (v as f32 * 0.37).sin()).collect(),
            &[2, 2, 5, 4],
        );
        let other =
            Tensor::from_vec((0..2 * 6 * 6).map(|v| (v as f32).cos()).collect(), &[1, 2, 6, 6]);
        let ya = a.forward(&x, true);
        let yb = b.forward(&x, true);
        let _ = b.forward(&other, false); // an eval pass of another shape
        let _ = b.infer(&other);
        let (da, db) = (a.backward(&ya), b.backward(&yb));
        assert_eq!(da.data(), db.data());
        let grads = |c: &mut Conv2d| -> Vec<f32> {
            c.params_grads().iter().flat_map(|(_, g)| g.data().to_vec()).collect()
        };
        assert_eq!(grads(&mut a), grads(&mut b));
    }

    #[test]
    fn nchw_roundtrip() {
        let t = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]);
        let mut pos = vec![0.0; 24];
        for (src, dst) in t.data().chunks_exact(12).zip(pos.chunks_exact_mut(12)) {
            transpose_sweep(src, 3, 4, dst, SweepOp::Copy);
        }
        let pos = Tensor::from_vec(pos, &[8, 3]);
        let back = positions_to_nchw(&pos, 2, 3, 2, 2);
        assert_eq!(back.data(), t.data());
    }
}
