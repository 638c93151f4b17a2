//! The layers' derived state must never be observable: a `Conv2d` /
//! `Dense` keeps a packed copy of its weight for the forward product,
//! and every way of changing the weight has to drop it. These tests
//! compare a layer whose panels were already built against a fresh
//! layer that received the same weights and has never packed anything,
//! and pin the convolution, inference and training forward alike, to a
//! direct per-element reference.

use odin_tensor::layers::{Conv2d, Dense, Flatten};
use odin_tensor::ops::ConvGeom;
use odin_tensor::optim::{Adam, Optimizer};
use odin_tensor::{Layer, Sequential, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rand_tensor(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec((0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect(), shape)
}

/// Conv (ragged N = 12) → flatten → dense, 6×6 inputs.
fn net(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new().push(Conv2d::k3(2, 12, 1, &mut rng)).push(Flatten::new()).push(Dense::new(
        12 * 6 * 6,
        5,
        &mut rng,
    ))
}

#[test]
fn panels_are_rebuilt_after_an_optimizer_step_and_after_import() {
    let mut rng = StdRng::seed_from_u64(11);
    let x = rand_tensor(&mut rng, &[3, 2, 6, 6]);
    let mut trained = net(1);
    let before = trained.infer(&x); // packs both layers' panels

    let mut opt = Adam::new(0.05);
    let y = trained.forward(&x, true);
    trained.backward(&y);
    opt.step(&mut trained.params_grads());
    trained.zero_grad();
    let after_step = trained.infer(&x);
    assert_ne!(before.data(), after_step.data(), "the step must move the weights");

    // A layer that never packed the old weights is the reference.
    let mut fresh = net(2);
    fresh.import_params(&trained.export_params());
    assert_eq!(fresh.infer(&x).data(), after_step.data(), "stale panels after Adam::step");
    assert_eq!(trained.forward(&x, false).data(), after_step.data());

    // import_params into a net whose panels are live for other weights.
    let mut warm = net(3);
    let warm_before = warm.infer(&x);
    assert_ne!(warm_before.data(), after_step.data());
    warm.import_params(&trained.export_params());
    assert_eq!(warm.infer(&x).data(), after_step.data(), "stale panels after import_params");
}

/// `Σ_k patch[k] · w[oc][k] + bias[oc]` with one accumulator walking
/// the patch in im2col order — the arithmetic every kernel must match.
fn conv_reference(x: &Tensor, w: &[f32], bias: &[f32], g: &ConvGeom, out_c: usize) -> Vec<f32> {
    let (batch, oh, ow) = (x.shape()[0], g.out_h(), g.out_w());
    let patch = g.in_c * g.kernel * g.kernel;
    let mut out = Vec::with_capacity(batch * out_c * oh * ow);
    for bi in 0..batch {
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for kk in 0..patch {
                        acc += patch_elem(x, g, bi, oy, ox, kk) * w[oc * patch + kk];
                    }
                    out.push(acc + bias[oc]);
                }
            }
        }
    }
    out
}

/// Element `kk` of the patch at output position `(oy, ox)`: the input
/// pixel under kernel tap `(c, ky, kx)`, or zero in the padding.
fn patch_elem(x: &Tensor, g: &ConvGeom, bi: usize, oy: usize, ox: usize, kk: usize) -> f32 {
    let (c, ky, kx) = (kk / (g.kernel * g.kernel), kk / g.kernel % g.kernel, kk % g.kernel);
    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
    let ix = (ox * g.stride + kx) as isize - g.pad as isize;
    if iy < 0 || ix < 0 || iy >= g.in_h as isize || ix >= g.in_w as isize {
        0.0
    } else {
        x.get(&[bi, c, iy as usize, ix as usize])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `infer`, `forward(train = false)`, `forward(train = true)` and the
    /// direct reference agree bit for bit on stride 1 and 2, pad 0 and 1
    /// — shapes from a single all-interior position (3×3, pad 0) to maps
    /// that are mostly border.
    #[test]
    fn conv_matches_direct_reference(
        batch in 1usize..3,
        in_c in 1usize..4,
        out_c in 1usize..14,
        h in 3usize..10,
        w in 3usize..10,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = rand_tensor(&mut rng, &[batch, in_c, h, w]);
        let mut conv = Conv2d::new(in_c, out_c, 3, stride, pad, &mut rng);
        for b in conv.params_grads()[1].0.data_mut() {
            *b = rng.gen_range(-1.0f32..1.0);
        }
        let g = ConvGeom { in_c, in_h: h, in_w: w, kernel: 3, stride, pad };


        let (wt, bias) = {
            let p = conv.params();
            (p[0].data().to_vec(), p[1].data().to_vec())
        };
        let want = conv_reference(&x, &wt, &bias, &g, out_c);
        let inferred = conv.infer(&x);
        prop_assert_eq!(inferred.data(), &want[..], "infer vs direct reference");
        let forwarded = conv.forward(&x, false);
        prop_assert_eq!(forwarded.data(), &want[..], "forward(train=false) vs direct reference");
        let trained = conv.forward(&x, true);
        prop_assert_eq!(trained.data(), &want[..], "forward(train=true) vs direct reference");
    }
}
