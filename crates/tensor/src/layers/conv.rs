//! 2-D convolution via im2col.

use rand::rngs::StdRng;

use crate::init;
use crate::layer::Layer;
use crate::ops::{col2im, im2col, im2col_into, matmul, matmul_tn, ConvGeom, WeightPanels};
use crate::scratch;
use crate::tensor::Tensor;

/// A 2-D convolution with square kernels, uniform stride, and zero padding.
///
/// Input `[B, in_c, H, W]`, output `[B, out_c, H', W']`.
/// Weights are stored flattened `[out_c, in_c * k * k]` for the im2col
/// matmul.
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

struct ConvCache {
    cols: Tensor,
    geom: ConvGeom,
    batch: usize,
    /// Sign of the fused activation's output (`out > 0`), recorded
    /// during the training forward pass so backward can apply the
    /// activation gradient before the convolution gradients. For
    /// slope ≥ 0, `out > 0 ⇔ pre-activation > 0`, the same mask the
    /// standalone activation layers compute from their input.
    act_mask: Option<Vec<bool>>,
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
/// The forward path fuses this repack into [`Conv2d::apply`]; kept as the
/// reference implementation for the roundtrip test.
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

/// Inverse of [`positions_to_nchw`].
fn nchw_to_positions(t: &Tensor) -> Tensor {
    debug_assert_eq!(t.ndim(), 4);
    let (batch, c, oh, ow) = (t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]);
    let plane = oh * ow;
    let td = t.data();
    let mut out = scratch::take_zeroed(batch * plane * c);
    for bi in 0..batch {
        for ch in 0..c {
            let src = &td[bi * c * plane + ch * plane..bi * c * plane + (ch + 1) * plane];
            for (p, &v) in src.iter().enumerate() {
                out[(bi * plane + p) * c + ch] = v;
            }
        }
    }
    Tensor::from_vec(out, &[batch * plane, c])
}

impl Conv2d {
    /// The im2col matmul shared by the training and inference forward
    /// paths. Bias add, the fused activation (if any), and the
    /// positions→NCHW repack happen in one output sweep.
    fn apply(&self, cols: &Tensor, geom: &ConvGeom, batch: usize) -> Tensor {
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let pos = self.panels.matmul_nt(cols, &self.w); // [B*OH*OW, out_c]
        let md = pos.data();
        let bias = self.b.data();
        let oc = self.out_c;
        let plane = oh * ow;
        let mut out = scratch::take_raw(batch * oc * plane);
        out.resize(batch * oc * plane, 0.0);
        for bi in 0..batch {
            let img = &mut out[bi * oc * plane..(bi + 1) * oc * plane];
            for p in 0..plane {
                let src = &md[(bi * plane + p) * oc..(bi * plane + p + 1) * oc];
                match self.fused_act {
                    None => {
                        for (ch, &v) in src.iter().enumerate() {
                            img[ch * plane + p] = v + bias[ch];
                        }
                    }
                    // ReLU as max keeps +0.0 for negative inputs, exactly
                    // like the standalone Relu layer (slope * v would
                    // yield -0.0).
                    Some(a) if a > 0.0 => {
                        for (ch, &v) in src.iter().enumerate() {
                            let s = v + bias[ch];
                            img[ch * plane + p] = if s > 0.0 { s } else { a * s };
                        }
                    }
                    Some(_) => {
                        for (ch, &v) in src.iter().enumerate() {
                            img[ch * plane + p] = (v + bias[ch]).max(0.0);
                        }
                    }
                }
            }
        }
        Tensor::from_vec(out, &[batch, oc, oh, ow])
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let geom = self.geom_for(input);
        let batch = input.shape()[0];
        // Reuse the cached column buffer from the previous forward pass;
        // with a stable batch shape this makes forward allocation-free
        // (im2col_into resizes only when the geometry changed).
        let patch = geom.in_c * geom.kernel * geom.kernel;
        let mut cols_buf = match self.cache.take() {
            Some(prev) => prev.cols.into_vec(),
            None => scratch::take_raw(batch * geom.out_h() * geom.out_w() * patch),
        };
        im2col_into(input, &geom, &mut cols_buf);
        let cols = Tensor::from_vec(cols_buf, &[batch * geom.out_h() * geom.out_w(), patch]);
        self.panels.refresh(&self.w);
        let out = self.apply(&cols, &geom, batch);
        if train {
            let act_mask = self.fused_act.map(|_| out.data().iter().map(|&v| v > 0.0).collect());
            self.cache = Some(ConvCache { cols, geom, batch, act_mask });
        }
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let geom = self.geom_for(input);
        let batch = input.shape()[0];
        let cols = im2col(input, &geom);
        self.apply(&cols, &geom, batch)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache =
            self.cache.as_ref().expect("Conv2d::backward called without a training forward pass");
        // Apply the fused activation's gradient first — elementwise,
        // exactly what the standalone Relu/LeakyRelu backward computes.
        let masked;
        let grad_out = if let (Some(a), Some(mask)) = (self.fused_act, cache.act_mask.as_ref()) {
            let mut g = scratch::copy_of(grad_out.data());
            for (gv, &m) in g.iter_mut().zip(mask.iter()) {
                if !m {
                    *gv = if a == 0.0 { 0.0 } else { a * *gv };
                }
            }
            masked = Tensor::from_vec(g, grad_out.shape());
            &masked
        } else {
            grad_out
        };
        let g_pos = nchw_to_positions(grad_out); // [B*OH*OW, out_c]
                                                 // dW += Gᵀ · cols
        let dw = matmul_tn(&g_pos, &cache.cols);
        self.dw.add_scaled(&dw, 1.0);
        // db += column sums of G
        {
            let gd = g_pos.data();
            let oc = self.out_c;
            let dbd = self.db.data_mut();
            for (i, &v) in gd.iter().enumerate() {
                dbd[i % oc] += v;
            }
        }
        // dX = col2im(G · W)
        let dcols = matmul(&g_pos, &self.w);
        col2im(&dcols, &cache.geom, cache.batch)
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
    fn nchw_roundtrip() {
        let t = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]);
        let pos = nchw_to_positions(&t);
        let back = positions_to_nchw(&pos, 2, 3, 2, 2);
        assert_eq!(back.data(), t.data());
    }
}
