//! Property-based tests for the tensor algebra core.

use odin_tensor::layers::{BatchNorm2d, Conv2d, LeakyRelu, Relu};
use odin_tensor::ops::{col2im, matmul, matmul_nt, matmul_tn, softmax_rows, ConvGeom};
use odin_tensor::{simd, Layer, Sequential, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tensor_strategy(max_elems: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, 1..=max_elems)
}

/// `col2im` as first written: every patch row in order, every patch
/// element tested against the image bounds. The reference the 3×3
/// interior fast path must match bit for bit.
fn col2im_reference(cols: &[f32], g: &ConvGeom, batch: usize) -> Vec<f32> {
    let (oh, ow) = (g.out_h(), g.out_w());
    let mut out = vec![0.0f32; batch * g.in_c * g.in_h * g.in_w];
    let mut src = cols.iter();
    for img in out.chunks_exact_mut(g.in_c * g.in_h * g.in_w) {
        for oy in 0..oh {
            for ox in 0..ow {
                for c in 0..g.in_c {
                    for ky in 0..g.kernel {
                        for kx in 0..g.kernel {
                            let v = *src.next().expect("one value per patch element");
                            let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                            let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                            if (0..g.in_h as isize).contains(&iy)
                                && (0..g.in_w as isize).contains(&ix)
                            {
                                img[(c * g.in_h + iy as usize) * g.in_w + ix as usize] += v;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Every geometry class the models and the seams between `col2im`'s
/// two paths produce: 1×1 and 3×3 kernels, both strides, with and
/// without padding, non-square images from "no interior at all" up, one
/// to five channels, two images.
#[test]
fn col2im_matches_the_naive_reference_bit_for_bit() {
    for kernel in [1usize, 3] {
        for stride in [1usize, 2] {
            for pad in [0usize, 1] {
                for in_c in 1..=5usize {
                    for (in_h, in_w) in [(3usize, 4usize), (4, 3), (5, 8), (8, 5), (9, 12)] {
                        let g = ConvGeom { in_c, in_h, in_w, kernel, stride, pad };
                        let rows = 2 * g.out_h() * g.out_w();
                        let patch = in_c * kernel * kernel;
                        let cols = Tensor::from_vec(
                            (0..rows * patch).map(|i| (i as f32 * 0.37).sin() * 3.0).collect(),
                            &[rows, patch],
                        );
                        let got = col2im(&cols, &g, 2);
                        assert_eq!(got.shape(), &[2, in_c, in_h, in_w]);
                        assert_eq!(got.data(), &col2im_reference(cols.data(), &g, 2)[..], "{g:?}");
                    }
                }
            }
        }
    }
}

/// The `im2col` matrix by definition, `[B·OH·OW, C·k·k]`: for every
/// output position, every patch element read from the image or `0.0`
/// off it. The convolution products read these values from the padded
/// input without building the matrix.
fn im2col_reference(x: &[f32], g: &ConvGeom, batch: usize) -> Tensor {
    let mut out = Vec::new();
    for img in x.chunks_exact(g.in_c * g.in_h * g.in_w).take(batch) {
        for oy in 0..g.out_h() {
            for ox in 0..g.out_w() {
                for c in 0..g.in_c {
                    for ky in 0..g.kernel {
                        for kx in 0..g.kernel {
                            let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                            let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                            let inside = (0..g.in_h as isize).contains(&iy)
                                && (0..g.in_w as isize).contains(&ix);
                            out.push(if inside {
                                img[(c * g.in_h + iy as usize) * g.in_w + ix as usize]
                            } else {
                                0.0
                            });
                        }
                    }
                }
            }
        }
    }
    let rows = out.len() / (g.in_c * g.kernel * g.kernel);
    Tensor::from_vec(out, &[rows, g.in_c * g.kernel * g.kernel])
}

/// The geometry grid of the convolution identity tests.
fn conv_geometries() -> impl Iterator<Item = ConvGeom> {
    let sizes = [(3usize, 4usize), (4, 3), (5, 8), (8, 5), (9, 12)];
    [1usize, 3].into_iter().flat_map(move |kernel| {
        [1usize, 2].into_iter().flat_map(move |stride| {
            [0usize, 1].into_iter().flat_map(move |pad| {
                (1..=5usize).flat_map(move |in_c| {
                    sizes.into_iter().map(move |(in_h, in_w)| ConvGeom {
                        in_c,
                        in_h,
                        in_w,
                        kernel,
                        stride,
                        pad,
                    })
                })
            })
        })
    })
}

/// What follows the convolution in a stack.
#[derive(Debug, Clone, Copy)]
enum Tail {
    None,
    Relu,
    Leaky,
    Norm,
    NormLeaky,
}

/// A batch norm over `c` channels with non-default γ, β and running
/// statistics.
fn trained_norm(c: usize) -> BatchNorm2d {
    let mut bn = BatchNorm2d::new(c);
    let vals = |phase: f32| (0..c).map(move |i| ((i as f32 + phase) * 1.7).sin());
    let state: Vec<f32> = vals(0.3).chain(vals(0.9).map(|v| v * v + 0.05)).collect();
    bn.load_extra_state(&state);
    for (j, (p, _)) in bn.params_grads().into_iter().enumerate() {
        for (d, v) in p.data_mut().iter_mut().zip(vals(2.0 + j as f32)) {
            *d = if j == 0 { 1.0 + v } else { v };
        }
    }
    bn
}

/// The inference convolution — implicit GEMM, with a following batch
/// norm and activation applied in its output sweep — against its
/// definition: the `im2col` matrix times the weight (`matmul_nt` at the
/// scalar level), the bias, then each following layer on its own. Bit
/// for bit at every dispatch level, through `Sequential::infer` and an
/// eval-mode `forward`, over the geometry grid × batch {1, 3} × every
/// tail, with output channels cycling across the 16-wide panel edges.
#[test]
fn implicit_conv_with_fused_tail_matches_im2col_and_separate_layers() {
    let tails = [Tail::None, Tail::Relu, Tail::Leaky, Tail::Norm, Tail::NormLeaky];
    let out_cs = [1usize, 5, 12, 16, 17, 33];
    for (case, g) in conv_geometries().enumerate() {
        for batch in [1usize, 3] {
            for (t, &tail) in tails.iter().enumerate() {
                let out_c = out_cs[(case + t + batch) % out_cs.len()];
                let seed = (case * 31 + t * 7 + batch) as u64;
                let conv = Conv2d::new(g.in_c, out_c, g.kernel, g.stride, g.pad, &mut {
                    StdRng::seed_from_u64(seed)
                });
                let x = Tensor::from_vec(
                    (0..batch * g.in_c * g.in_h * g.in_w)
                        .map(|i| ((i as f32 + seed as f32) * 0.61).sin() * 2.0)
                        .collect(),
                    &[batch, g.in_c, g.in_h, g.in_w],
                );
                simd::set_simd_level(simd::SimdLevel::Scalar);
                let (w, bias) = (conv.params()[0].clone(), conv.params()[1].clone());
                let pos = matmul_nt(&im2col_reference(x.data(), &g, batch), &w);
                let plane = g.out_h() * g.out_w();
                let nchw: Vec<f32> = (0..batch * out_c * plane)
                    .map(|i| {
                        let (b, c, p) = (i / (out_c * plane), i / plane % out_c, i % plane);
                        pos.data()[(b * plane + p) * out_c + c] + bias.data()[c]
                    })
                    .collect();
                let mut want = Tensor::from_vec(nchw, &[batch, out_c, g.out_h(), g.out_w()]);
                let mut net = Sequential::new().push(conv);
                if matches!(tail, Tail::Norm | Tail::NormLeaky) {
                    let bn = trained_norm(out_c);
                    want = bn.infer(&want);
                    net = net.push(bn);
                }
                match tail {
                    Tail::Relu => {
                        want = Relu::new().infer(&want);
                        net = net.push(Relu::new());
                    }
                    Tail::Leaky | Tail::NormLeaky => {
                        want = LeakyRelu::new(0.1).infer(&want);
                        net = net.push(LeakyRelu::new(0.1));
                    }
                    Tail::None | Tail::Norm => {}
                }
                for level in simd::available_levels() {
                    simd::set_simd_level(level);
                    let got = net.infer(&x);
                    assert_eq!(got.data(), want.data(), "{g:?} batch {batch} {tail:?} {level:?}");
                    let eval = net.forward(&x, false);
                    assert_eq!(eval.data(), want.data(), "forward {g:?} {tail:?} {level:?}");
                }
                simd::reset_simd();
            }
        }
    }
}

/// The training convolution — forward with its fused activation, then
/// backward — against its definition at the scalar level: the `im2col`
/// matrix times the weight plus the bias, the separate activation layer,
/// `dW = matmul_tn(G, cols)`, `db` as column sums of `G` and `dX =
/// col2im(matmul(G, W))`, where `G` is the output gradient through the
/// activation's backward, a row per position. Output, `dW`, `db` and
/// `dX` bit for bit at every dispatch level, over the geometry grid ×
/// batch {1, 3} × {no, ReLU, LeakyReLU} activation, with output
/// channels cycling across the 16-wide panel edges.
#[test]
fn training_conv_matches_im2col_and_separate_layers() {
    let out_cs = [1usize, 5, 12, 16, 17, 33];
    for (case, g) in conv_geometries().enumerate() {
        for batch in [1usize, 3] {
            for act in 0..3usize {
                let out_c = out_cs[(case + act + batch) % out_cs.len()];
                let seed = (case * 29 + act * 5 + batch) as u64;
                let make = || {
                    let conv = Conv2d::new(g.in_c, out_c, g.kernel, g.stride, g.pad, &mut {
                        StdRng::seed_from_u64(seed)
                    });
                    match act {
                        1 => conv.fuse_relu(),
                        2 => conv.fuse_leaky_relu(0.1),
                        _ => conv,
                    }
                };
                let x = Tensor::from_vec(
                    (0..batch * g.in_c * g.in_h * g.in_w)
                        .map(|i| ((i as f32 + seed as f32) * 0.43).sin() * 2.0)
                        .collect(),
                    &[batch, g.in_c, g.in_h, g.in_w],
                );
                let (oh, ow) = (g.out_h(), g.out_w());
                let plane = oh * ow;
                let dy = Tensor::from_vec(
                    (0..batch * out_c * plane).map(|i| ((i as f32 + 0.5) * 0.71).cos()).collect(),
                    &[batch, out_c, oh, ow],
                );
                // NCHW <-> a row per position.
                let to_pos = |t: &Tensor| -> Tensor {
                    let v = (0..batch * plane * out_c)
                        .map(|i| {
                            let (r, c) = (i / out_c, i % out_c);
                            t.data()[(r / plane * out_c + c) * plane + r % plane]
                        })
                        .collect();
                    Tensor::from_vec(v, &[batch * plane, out_c])
                };

                simd::set_simd_level(simd::SimdLevel::Scalar);
                let reference = make();
                let (w, bias) = (reference.params()[0].clone(), reference.params()[1].clone());
                let cols = im2col_reference(x.data(), &g, batch);
                let pos = matmul_nt(&cols, &w);
                let pre: Vec<f32> = (0..batch * out_c * plane)
                    .map(|i| {
                        let (b, c, p) = (i / (out_c * plane), i / plane % out_c, i % plane);
                        pos.data()[(b * plane + p) * out_c + c] + bias.data()[c]
                    })
                    .collect();
                let pre = Tensor::from_vec(pre, &[batch, out_c, oh, ow]);
                let (want_y, g_nchw) = match act {
                    1 => {
                        let mut relu = Relu::new();
                        (relu.forward(&pre, true), relu.backward(&dy))
                    }
                    2 => {
                        let mut leaky = LeakyRelu::new(0.1);
                        (leaky.forward(&pre, true), leaky.backward(&dy))
                    }
                    _ => (pre, dy.clone()),
                };
                let g_pos = to_pos(&g_nchw);
                let want_dw = matmul_tn(&g_pos, &cols);
                let want_db: Vec<f32> = (0..out_c)
                    .map(|c| {
                        let mut acc = 0.0f32;
                        for r in 0..batch * plane {
                            acc += g_pos.data()[r * out_c + c];
                        }
                        acc
                    })
                    .collect();
                let want_dx = col2im(&matmul(&g_pos, &w), &g, batch);

                for level in simd::available_levels() {
                    simd::set_simd_level(level);
                    let mut conv = make();
                    let y = conv.forward(&x, true);
                    assert_eq!(
                        y.data(),
                        want_y.data(),
                        "forward {g:?} batch {batch} act {act} {level:?}"
                    );
                    let dx = conv.backward(&dy);
                    assert_eq!(
                        dx.data(),
                        want_dx.data(),
                        "dX {g:?} batch {batch} act {act} {level:?}"
                    );
                    let grads = conv.params_grads();
                    assert_eq!(
                        grads[0].1.data(),
                        want_dw.data(),
                        "dW {g:?} batch {batch} act {act} {level:?}"
                    );
                    assert_eq!(
                        grads[1].1.data(),
                        &want_db[..],
                        "db {g:?} batch {batch} act {act} {level:?}"
                    );
                }
                simd::reset_simd();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_is_commutative(a in tensor_strategy(64)) {
        let n = a.len();
        let b: Vec<f32> = a.iter().map(|x| x * 0.5 + 1.0).collect();
        let ta = Tensor::from_vec(a, &[n]);
        let tb = Tensor::from_vec(b, &[n]);
        let ab = ta.add(&tb);
        let ba = tb.add(&ta);
        prop_assert_eq!(ab.data(), ba.data());
    }

    #[test]
    fn sub_then_add_roundtrips(a in tensor_strategy(64)) {
        let n = a.len();
        let b: Vec<f32> = a.iter().map(|x| x - 3.0).collect();
        let ta = Tensor::from_vec(a, &[n]);
        let tb = Tensor::from_vec(b, &[n]);
        let back = ta.sub(&tb).add(&tb);
        for (x, y) in back.data().iter().zip(ta.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn scale_distributes_over_add(a in tensor_strategy(32), s in -4.0f32..4.0) {
        let n = a.len();
        let b: Vec<f32> = a.iter().rev().cloned().collect();
        let ta = Tensor::from_vec(a, &[n]);
        let tb = Tensor::from_vec(b, &[n]);
        let lhs = ta.add(&tb).scale(s);
        let rhs = ta.scale(s).add(&tb.scale(s));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_is_involution(rows in 1usize..6, cols in 1usize..6) {
        let data: Vec<f32> = (0..rows * cols).map(|i| i as f32 * 0.7).collect();
        let t = Tensor::from_vec(data, &[rows, cols]);
        let tt = t.transpose().transpose();
        prop_assert_eq!(tt.data(), t.data());
    }

    #[test]
    fn matmul_identity_is_noop(rows in 1usize..5, cols in 1usize..5) {
        let data: Vec<f32> = (0..rows * cols).map(|i| (i as f32).sin()).collect();
        let a = Tensor::from_vec(data, &[rows, cols]);
        let mut eye = Tensor::zeros(&[cols, cols]);
        for i in 0..cols {
            eye.set(&[i, i], 1.0);
        }
        let prod = matmul(&a, &eye);
        for (x, y) in prod.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_variants_agree(m in 1usize..4, k in 1usize..4, n in 1usize..4) {
        let a = Tensor::from_vec((0..m * k).map(|i| (i as f32 * 0.3).cos()).collect(), &[m, k]);
        let b = Tensor::from_vec((0..k * n).map(|i| (i as f32 * 0.7).sin()).collect(), &[k, n]);
        let base = matmul(&a, &b);
        let via_nt = matmul_nt(&a, &b.transpose());
        let via_tn = matmul_tn(&a.transpose(), &b);
        for ((x, y), z) in base.data().iter().zip(via_nt.data()).zip(via_tn.data()) {
            prop_assert!((x - y).abs() < 1e-4);
            prop_assert!((x - z).abs() < 1e-4);
        }
    }

    #[test]
    fn dist_satisfies_triangle_inequality(a in tensor_strategy(16)) {
        let n = a.len();
        let b: Vec<f32> = a.iter().map(|x| x + 1.0).collect();
        let c: Vec<f32> = a.iter().map(|x| x * -0.5).collect();
        let ta = Tensor::from_vec(a, &[n]);
        let tb = Tensor::from_vec(b, &[n]);
        let tc = Tensor::from_vec(c, &[n]);
        prop_assert!(ta.dist(&tc) <= ta.dist(&tb) + tb.dist(&tc) + 1e-3);
    }

    #[test]
    fn softmax_rows_are_distributions(rows in 1usize..4, cols in 1usize..6) {
        let x = Tensor::from_vec(
            (0..rows * cols).map(|i| (i as f32 * 1.3).sin() * 5.0).collect(),
            &[rows, cols],
        );
        let s = softmax_rows(&x);
        for i in 0..rows {
            let row = s.row(i);
            prop_assert!(row.min() >= 0.0);
            prop_assert!((row.sum() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn im2col_col2im_adjoint(h in 3usize..8, w in 3usize..8, stride in 1usize..3) {
        let g = ConvGeom { in_c: 2, in_h: h, in_w: w, kernel: 3, stride, pad: 1 };
        let n_in = 2 * h * w;
        let x = Tensor::from_vec((0..n_in).map(|i| (i as f32 * 0.13).sin()).collect(), &[1, 2, h, w]);
        let cols = im2col_reference(x.data(), &g, 1);
        let y = Tensor::from_vec(
            (0..cols.numel()).map(|i| (i as f32 * 0.29).cos()).collect(),
            cols.shape(),
        );
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let folded = col2im(&y, &g, 1);
        let rhs: f32 = x.data().iter().zip(folded.data()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2, "adjoint mismatch {} vs {}", lhs, rhs);
    }

    #[test]
    fn reshape_preserves_sum(a in tensor_strategy(24)) {
        let n = a.len();
        let t = Tensor::from_vec(a, &[n]);
        let r = t.reshape(&[1, n]);
        prop_assert_eq!(t.sum(), r.sum());
    }

    #[test]
    fn fused_softmax_matches_two_pass_reference(rows in 1usize..8, cols in 1usize..12) {
        let x = Tensor::from_vec(
            (0..rows * cols).map(|i| (i as f32 * 0.7).sin() * 20.0).collect(),
            &[rows, cols],
        );
        let got = softmax_rows(&x);
        // The pre-fusion implementation: max pass, exp pass writing the
        // output, then a separate divide pass — bit-for-bit.
        let mut expect = vec![0.0f32; rows * cols];
        for i in 0..rows {
            let row = &x.data()[i * cols..(i + 1) * cols];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for (j, &v) in row.iter().enumerate() {
                let e = (v - m).exp();
                expect[i * cols + j] = e;
                sum += e;
            }
            for v in &mut expect[i * cols..(i + 1) * cols] {
                *v /= sum;
            }
        }
        prop_assert_eq!(got.data(), &expect[..]);
    }
}
