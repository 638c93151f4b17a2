//! The SIMD dispatch contract: the vector micro-kernels (AVX2, and the
//! 16-lane AVX-512 NT body where the CPU has it) are bit-identical to
//! the scalar kernels on every shape (including ragged tails narrower
//! than one vector register), the fused conv+ReLU pass matches the
//! unfused conv followed by a standalone activation, and the int8
//! quantizer is exact to half a quantization step with byte-identical
//! SIMD and scalar paths.
//!
//! These tests flip the process-global SIMD knob, so each one serializes
//! on a shared mutex and restores the default dispatch through an RAII
//! guard. On CPUs without AVX2 both "paths" are scalar and the identity
//! assertions hold trivially.

use odin_tensor::layers::{Conv2d, Dense};
use odin_tensor::ops::{matmul, matmul_nt, matmul_tn};
use odin_tensor::qtensor::{
    dot_i8, quantize_activations, quantize_into, quantize_planes_into_nhwc, QConv2d, QConvScratch,
};
use odin_tensor::simd::{self, SimdLevel};
use odin_tensor::{Layer, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

static KNOB: Mutex<()> = Mutex::new(());

/// Holds the SIMD knob lock and restores default dispatch on drop.
struct SimdGuard<'a> {
    _lock: std::sync::MutexGuard<'a, ()>,
}

impl SimdGuard<'_> {
    fn acquire() -> Self {
        let lock = KNOB.lock().unwrap_or_else(|e| e.into_inner());
        SimdGuard { _lock: lock }
    }
}

impl Drop for SimdGuard<'_> {
    fn drop(&mut self) {
        simd::reset_simd();
    }
}

fn rand_tensor(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec((0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect(), shape)
}

/// Runs `f` at the scalar level, then at every vector level the CPU
/// offers, and asserts the tensors are bit-identical.
fn assert_simd_invariant(f: impl Fn() -> Tensor) {
    simd::set_simd_level(SimdLevel::Scalar);
    let scalar = f();
    for level in simd::available_levels() {
        simd::set_simd_level(level);
        let vector = f();
        assert_eq!(scalar.shape(), vector.shape());
        assert_eq!(scalar.data(), vector.data(), "{level:?} result differs from scalar");
    }
}

/// The NT kernel at every vector level against the scalar kernel, bit
/// for bit, over every ragged shape up to m = 41 (every height of the
/// 8-row AVX-512 and 4-row AVX2 tiles, plus one) and n = 33 (two whole
/// 16-lane panels plus one lane), at reduction lengths from one step
/// through the teacher's 576 — around the 64 edge and the 27 of a
/// three-channel 3×3 patch.
#[test]
fn nt_kernel_matches_scalar_at_every_level_on_every_ragged_tail() {
    let _g = SimdGuard::acquire();
    let mut rng = StdRng::seed_from_u64(30);
    for k in [1usize, 27, 63, 64, 65, 576] {
        let a = rand_tensor(&mut rng, &[41, k]);
        let b = rand_tensor(&mut rng, &[33, k]);
        for m in 1..=41 {
            let a_m = Tensor::from_vec(a.data()[..m * k].to_vec(), &[m, k]);
            for n in 1..=33 {
                let b_n = Tensor::from_vec(b.data()[..n * k].to_vec(), &[n, k]);
                simd::set_simd_level(SimdLevel::Scalar);
                let scalar = matmul_nt(&a_m, &b_n);
                for level in simd::available_levels() {
                    simd::set_simd_level(level);
                    let got = matmul_nt(&a_m, &b_n);
                    assert_eq!(got.data(), scalar.data(), "matmul_nt m={m} n={n} k={k} {level:?}");
                }
            }
        }
    }
}

/// The TN and NN products at every vector level against their scalar
/// references, bit for bit, over every way the output can be ragged —
/// each row-tile height and each width of the masked last panel, at
/// 8 and at 16 lanes — and reduction lengths from one step to 200,
/// around the 64 edge.
#[test]
fn tn_and_nn_kernels_match_scalar_on_every_ragged_tail_and_block_edge() {
    let _g = SimdGuard::acquire();
    let mut rng = StdRng::seed_from_u64(22);
    for k in [1usize, 63, 64, 65, 200] {
        let a_t = rand_tensor(&mut rng, &[k, 41]);
        let b = rand_tensor(&mut rng, &[k, 33]);
        for m in 1..=41 {
            // The first `m` columns of `a_t`, and their transpose.
            let cols = |t: &Tensor, width: usize| {
                let w = t.shape()[1];
                let data = t.data().chunks_exact(w).flat_map(|r| r[..width].to_vec()).collect();
                Tensor::from_vec(data, &[t.shape()[0], width])
            };
            let a_tm = cols(&a_t, m);
            let a_m = a_tm.transpose();
            for n in 1..=33 {
                let b_n = cols(&b, n);
                simd::set_simd_level(SimdLevel::Scalar);
                let (tn_scalar, nn_scalar) = (matmul_tn(&a_tm, &b_n), matmul(&a_m, &b_n));
                for level in simd::available_levels() {
                    simd::set_simd_level(level);
                    let (tn_vector, nn_vector) = (matmul_tn(&a_tm, &b_n), matmul(&a_m, &b_n));
                    let at = format!("m={m} n={n} k={k} {level:?}");
                    assert_eq!(tn_scalar.data(), tn_vector.data(), "matmul_tn {at}");
                    assert_eq!(nn_scalar.data(), nn_vector.data(), "matmul {at}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The matmul family is bit-identical across dispatch paths on
    /// arbitrary shapes. `n` ranges across the 8-wide panel boundary so
    /// ragged column tails (n % 8 != 0) and sub-panel widths (n < 8)
    /// are both exercised.
    #[test]
    fn matmul_family_is_simd_invariant(
        m in 1usize..24,
        k in 1usize..40,
        n in 1usize..24,
        seed in 0u64..1000,
    ) {
        let _g = SimdGuard::acquire();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_tensor(&mut rng, &[m, k]);
        let b = rand_tensor(&mut rng, &[k, n]);
        let b_t = rand_tensor(&mut rng, &[n, k]);
        let a_t = rand_tensor(&mut rng, &[k, m]);
        assert_simd_invariant(|| matmul(&a, &b));
        assert_simd_invariant(|| matmul_nt(&a, &b_t));
        assert_simd_invariant(|| matmul_tn(&a_t, &b));
    }

    /// The packed-panel NT kernel against the scalar reference, bit for
    /// bit, at the row counts a served frame produces (one latent row,
    /// one tile, a 6×6 and a 12×12 feature map, and a ragged 37), over
    /// column counts on both sides of the 8-lane AVX2 half-panel edge
    /// (the zero-padded last panel) and odd reduction lengths — both through
    /// the free function (pack, then call) and through a layer that
    /// packs once and reuses the panels.
    #[test]
    fn packed_panel_kernel_matches_scalar_reference(
        m in (0usize..5).prop_map(|i| [1usize, 4, 36, 37, 144][i]),
        n in (0usize..5).prop_map(|i| [1usize, 12, 13, 24, 25][i]),
        k in (0usize..24).prop_map(|i| 2 * i + 1),
        seed in 0u64..1000,
    ) {
        let _g = SimdGuard::acquire();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_tensor(&mut rng, &[m, k]);
        let b_t = rand_tensor(&mut rng, &[n, k]);
        assert_simd_invariant(|| matmul_nt(&a, &b_t));
        let dense = Dense::new(k, n, &mut rng);
        assert_simd_invariant(|| dense.infer(&a));
        // Second SIMD call: the panels packed by the first are reused.
        assert_simd_invariant(|| dense.infer(&a));
    }

    /// The fused conv+activation sweep equals the unfused convolution
    /// followed by a standalone elementwise activation — bit for bit,
    /// on both dispatch paths (ReLU-as-max keeps +0.0 for negatives,
    /// matching the fused kernel's blend).
    #[test]
    fn fused_conv_relu_matches_unfused(
        batch in 1usize..3,
        in_c in 1usize..3,
        out_c in 1usize..6,
        hw in 3usize..9,
        steep in (0usize..2).prop_map(|i| i == 1),
        seed in 0u64..1000,
    ) {
        let _g = SimdGuard::acquire();
        let slope = if steep { 0.1f32 } else { 0.0 };
        let mut rng = StdRng::seed_from_u64(seed);
        let x = rand_tensor(&mut rng, &[batch, in_c, hw, hw]);
        for level in simd::available_levels() {
            simd::set_simd_level(level);
            let plain = Conv2d::k3(in_c, out_c, 1, &mut StdRng::seed_from_u64(seed ^ 0xF));
            let fused = Conv2d::k3(in_c, out_c, 1, &mut StdRng::seed_from_u64(seed ^ 0xF))
                .fuse_leaky_relu(slope);
            let y = plain.infer(&x);
            let want: Vec<f32> =
                y.data().iter().map(|&v| if v > 0.0 { v } else { slope * v }).collect();
            let got = fused.infer(&x);
            prop_assert_eq!(
                got.data(),
                &want[..],
                "fused activation diverges ({:?})", level
            );
        }
    }

    /// A training step through one convolution — the forward output
    /// sweep, the backward gradient sweep (8×8 register tiles on the
    /// AVX2 path, ragged in channels and in positions here), `col2im`
    /// and all three products — leaves the same output, input gradient,
    /// `dW` and `db` bits on both dispatch paths, for a linear output
    /// and both fused activations.
    #[test]
    fn conv_training_step_is_simd_invariant(
        batch in 1usize..3,
        in_c in 1usize..4,
        out_c in 1usize..20,
        h in 3usize..11,
        extra_w in 1usize..4,
        stride in 1usize..3,
        act in (0usize..3).prop_map(|i| [None, Some(0.0f32), Some(0.1)][i]),
        seed in 0u64..1000,
    ) {
        let _g = SimdGuard::acquire();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = rand_tensor(&mut rng, &[batch, in_c, h, h + extra_w]);
        let run = |level: SimdLevel| {
            simd::set_simd_level(level);
            let conv = Conv2d::k3(in_c, out_c, stride, &mut StdRng::seed_from_u64(seed ^ 0xA));
            let mut conv = match act {
                Some(slope) => conv.fuse_leaky_relu(slope),
                None => conv,
            };
            let y = conv.forward(&x, true);
            let g = Tensor::from_vec(y.data().iter().map(|v| v.cos()).collect(), y.shape());
            let dx = conv.backward(&g);
            let grads: Vec<Vec<f32>> =
                conv.params_grads().iter().map(|(_, g)| g.data().to_vec()).collect();
            (y, dx, grads)
        };
        let (y_s, dx_s, grads_s) = run(SimdLevel::Scalar);
        for level in simd::available_levels() {
            let (y_v, dx_v, grads_v) = run(level);
            prop_assert_eq!(y_s.data(), y_v.data(), "forward output diverges ({:?})", level);
            prop_assert_eq!(dx_s.data(), dx_v.data(), "input gradient diverges ({:?})", level);
            prop_assert_eq!(&grads_s, &grads_v, "parameter gradients diverge ({:?})", level);
        }
    }

    /// Quantize→dequantize round-trip error is bounded by half a
    /// quantization step for every element, and the quantized bytes are
    /// identical on both dispatch paths (ties-to-even rounding on each).
    #[test]
    fn quantize_roundtrip_and_paths_agree(
        n in 1usize..200,
        scale_mag in 0.01f32..8.0,
        seed in 0u64..1000,
    ) {
        let _g = SimdGuard::acquire();
        let mut rng = StdRng::seed_from_u64(seed);
        let src: Vec<f32> = (0..n).map(|_| rng.gen_range(-scale_mag..scale_mag)).collect();

        simd::set_simd_enabled(false);
        let mut q_scalar = Vec::new();
        let s_scalar = quantize_activations(&src, &mut q_scalar);
        simd::set_simd_enabled(true);
        let mut q_vector = Vec::new();
        let s_vector = quantize_activations(&src, &mut q_vector);

        prop_assert_eq!(s_scalar.to_bits(), s_vector.to_bits(), "scales diverge");
        prop_assert_eq!(&q_scalar, &q_vector, "quantized bytes diverge");
        for (&v, &qi) in src.iter().zip(q_scalar.iter()) {
            let back = f32::from(qi) * s_scalar;
            prop_assert!(
                (v - back).abs() <= s_scalar * 0.5 + 1e-6,
                "round-trip error beyond half a step: {} -> {}", v, back
            );
        }
    }

    /// Quantizing planar f32 straight into channels-last i8 writes the
    /// bytes the planar quantizer followed by an interleave would, on
    /// both dispatch paths — pixel counts on both sides of the 8-pixel
    /// AVX2 step and its two-pixel store slack, three channels (the
    /// vector path) and others (scalar on either setting).
    #[test]
    fn planar_to_nhwc_quantizer_matches_quantize_then_interleave(
        pixels in 1usize..70,
        channels in 1usize..5,
        scale_mag in 0.01f32..8.0,
        seed in 0u64..1000,
    ) {
        let _g = SimdGuard::acquire();
        let mut rng = StdRng::seed_from_u64(seed);
        let src: Vec<f32> =
            (0..pixels * channels).map(|_| rng.gen_range(-scale_mag..scale_mag)).collect();
        let inv = 127.0 / scale_mag;
        simd::set_simd_enabled(false);
        let mut planar = vec![0i8; src.len()];
        quantize_into(&src, inv, &mut planar);
        let want: Vec<i8> =
            (0..src.len()).map(|i| planar[(i % channels) * pixels + i / channels]).collect();
        for on in [false, true] {
            simd::set_simd_enabled(on);
            let mut got = vec![0i8; src.len()];
            quantize_planes_into_nhwc(&src, channels, inv, &mut got);
            prop_assert_eq!(&got, &want, "nhwc quantizer diverges (simd={})", on);
        }
    }

    /// The int8 dot product is the same integer on both dispatch paths.
    #[test]
    fn int8_dot_is_simd_invariant(len in 1usize..100, seed in 0u64..1000) {
        let _g = SimdGuard::acquire();
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<i8> = (0..len).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
        let b: Vec<i8> = (0..len).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
        simd::set_simd_enabled(false);
        let dot_scalar = dot_i8(&a, &b);
        simd::set_simd_enabled(true);
        prop_assert_eq!(dot_scalar, dot_i8(&a, &b), "int8 dot diverges");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The direct NHWC quantized convolution is bit-identical on both
    /// dispatch paths — integer accumulation has no rounding and the
    /// requantization is the same mul, add and select per lane — over
    /// every way a shape can be ragged for the channels-in-lanes
    /// kernel: `out_c` short of a whole 8-lane group and of the
    /// 16-channel tile, an odd patch length (a padded k-pair),
    /// position counts that are not a multiple of the 4-position tile,
    /// 1×1 and 3×3 kernels with and without padding and stride, and
    /// all three fused activations. One scratch serves every layer
    /// shape in turn, as it does in the detector.
    #[test]
    fn int8_conv_is_simd_invariant(
        in_c in 1usize..=33,
        out_c in 1usize..=41,
        hw in 3usize..=13,
        kernel in (0usize..2).prop_map(|i| [1usize, 3][i]),
        pad in 0usize..=1,
        stride in 1usize..=2,
        act in (0usize..3).prop_map(|i| [None, Some(0.0f32), Some(0.1)][i]),
        seed in 0u64..1000,
    ) {
        let _g = SimdGuard::acquire();
        let mut rng = StdRng::seed_from_u64(seed);
        let fan_in = in_c * kernel * kernel;
        let w: Vec<f32> = (0..out_c * fan_in).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let bias: Vec<f32> = (0..out_c).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
        let conv = QConv2d::new(&w, &bias, in_c, out_c, kernel, stride, pad, act);
        let x: Vec<i8> = (0..hw * hw * in_c).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
        // A wider layer first, so the scratch arrives used.
        let warm = QConv2d::new(&vec![0.5; 2 * 50 * 9], &[0.0; 2], 50, 2, 3, 1, 1, None);
        let run = |on: bool| {
            simd::set_simd_enabled(on);
            let mut scratch = QConvScratch::default();
            let mut out = Vec::new();
            warm.forward_nhwc(&[127; 3 * 3 * 50], 0.02, 3, 3, &mut scratch, &mut out);
            let dims = conv.forward_nhwc(&x, 0.02, hw, hw, &mut scratch, &mut out);
            assert_eq!(out.len(), dims.0 * dims.1 * out_c);
            out
        };
        let scalar = run(false);
        let vector = run(true);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&scalar), bits(&vector), "quantized conv diverges");
    }
}
