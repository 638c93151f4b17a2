//! Tensor-backend micro-benchmark: GFLOP/s of the matmul kernels (the
//! default SIMD level, named in the title, forced-scalar and forced
//! AVX2), the convolution forward (implicit GEMM) and forward/backward
//! (batched, and at the batch-1 shapes the server runs per frame), the
//! retrain's own kernels and a whole `Detector::train_step`, the
//! int8 serving kernels (one interior shape, the four layers of the
//! Small detector at batch 1, and a whole frame through
//! `QDetector::detect`), end-to-end DA-GAN encoding throughput, and the
//! teacher-served frame (one DA-GAN projection, one teacher detection).
//! Used to record before/after numbers for the deterministic parallel
//! backend (see README "Performance"). For int8 rows the "GFLOP/s"
//! column reports integer giga-ops/s on the same 2·m·k·n count.

use std::time::Instant;

use odin_bench::report::{Args, Table};
use odin_data::{Condition, Frame, GtBox, Image, SceneGen, Subset, TimeOfDay, Weather};
use odin_detect::model::SMALL_CONVS;
use odin_detect::{Detector, QDetector};
use odin_gan::{DaGan, DaGanConfig};
use odin_tensor::layers::{Conv2d, Dense};
use odin_tensor::ops::{col2im, matmul, matmul_nt, matmul_tn, ConvGeom};
use odin_tensor::qtensor::{dot_i8, quantize_activations, QConv2d, QConvScratch};
use odin_tensor::simd::{self, SimdLevel};
use odin_tensor::{Layer, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn rand_tensor(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec((0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect(), shape)
}

/// Times `f` over enough repetitions to fill ~0.3 s, returning seconds
/// per call.
fn time_per_call(mut f: impl FnMut()) -> f64 {
    // Warm-up.
    f();
    let mut reps = 1usize;
    loop {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt > 0.3 {
            return dt / reps as f64;
        }
        reps = (reps as f64 * (0.4 / dt.max(1e-6))).ceil() as usize + 1;
    }
}

fn main() {
    let args = Args::parse();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut t = Table::new(
        "tensor_gflops",
        &format!("Tensor backend kernel throughput ({:?})", simd::simd_level()),
        &["Kernel", "Shape", "GFLOP/s", "ms/call"],
    );

    // Matmul family at one mid-size product: [1024, 192] x [192, 64].
    let (m, k, n) = (1024usize, 192, 64);
    let flops = (2 * m * k * n) as f64;
    let a = rand_tensor(&mut rng, &[m, k]);
    let b = rand_tensor(&mut rng, &[k, n]);
    let bt = rand_tensor(&mut rng, &[n, k]);
    let at = rand_tensor(&mut rng, &[k, m]);
    // At the default level, then forced to scalar — the baseline the
    // vector kernel is measured against (and the bit-identity partner
    // exercised by `ODIN_NO_SIMD=1` test runs) — and to AVX2, the 8-lane
    // bodies an AVX2-only CPU runs, timed even on an AVX-512 box.
    let levels =
        [("", None), ("_scalar", Some(SimdLevel::Scalar)), ("_avx2", Some(SimdLevel::Avx2))];
    for (suffix, level) in levels {
        if let Some(level) = level {
            simd::set_simd_level(level);
        }
        for (name, secs) in [
            (
                "matmul",
                time_per_call(|| {
                    black_box(matmul(black_box(&a), black_box(&b)));
                }),
            ),
            (
                "matmul_nt",
                time_per_call(|| {
                    black_box(matmul_nt(black_box(&a), black_box(&bt)));
                }),
            ),
            (
                "matmul_tn",
                time_per_call(|| {
                    black_box(matmul_tn(black_box(&at), black_box(&b)));
                }),
            ),
        ] {
            t.row(vec![
                format!("{name}{suffix}"),
                format!("{m}x{k}x{n}"),
                format!("{:.2}", flops / secs / 1e9),
                format!("{:.3}", secs * 1e3),
            ]);
        }
    }
    simd::reset_simd();

    // Square matmul (distillation/dense-heavy shape).
    let s = 256usize;
    let sq_a = rand_tensor(&mut rng, &[s, s]);
    let sq_b = rand_tensor(&mut rng, &[s, s]);
    let sq_flops = (2 * s * s * s) as f64;
    let secs = time_per_call(|| {
        black_box(matmul(black_box(&sq_a), black_box(&sq_b)));
    });
    t.row(vec![
        "matmul".into(),
        format!("{s}x{s}x{s}"),
        format!("{:.2}", sq_flops / secs / 1e9),
        format!("{:.3}", secs * 1e3),
    ]);

    // Conv2d forward (inference) and forward+backward (training) at the
    // DA-GAN encoder's first-layer geometry.
    let (bsz, cin, cout, hw) = (8usize, 3usize, 16usize, 48usize);
    let x = rand_tensor(&mut rng, &[bsz, cin, hw, hw]);
    let mut conv = Conv2d::k3(cin, cout, 1, &mut rng);
    let conv_flops = (2 * bsz * cout * cin * 9 * hw * hw) as f64;
    let secs = time_per_call(|| {
        black_box(conv.infer(black_box(&x)));
    });
    t.row(vec![
        "conv2d_fwd".into(),
        format!("{bsz}x{cin}x{hw}x{hw} k3->{cout}"),
        format!("{:.2}", conv_flops / secs / 1e9),
        format!("{:.3}", secs * 1e3),
    ]);
    let secs = time_per_call(|| {
        let y = conv.forward(black_box(&x), true);
        black_box(conv.backward(&y));
    });
    t.row(vec![
        "conv2d_fwd_bwd".into(),
        format!("{bsz}x{cin}x{hw}x{hw} k3->{cout}"),
        format!("{:.2}", 3.0 * conv_flops / secs / 1e9),
        format!("{:.3}", secs * 1e3),
    ]);

    // The retrain (`build_specialized`): the Small detector's three 3×3
    // layers at the trainer's batch of 8. `matmul_tn_small*` time the
    // free TN product (`Dense`'s `dW`, its right operand a dense matrix
    // read down its columns) at those layers' `dW = Gᵀ · cols` shapes —
    // a tiny output and a tall reduction (k = B·OH·OW); the conv itself
    // reads its columns from the padded input, timed inside
    // `conv2d_fwd_bwd` and `train_step_small_b8`. `col2im` is the input
    // gradient's scatter; and a whole `train_step` is what 300 of make a
    // recovery.
    let tb = 8usize;
    let mut hw = 48usize;
    for (i, &(cin, cout, k, stride, pad, _)) in SMALL_CONVS.iter().enumerate() {
        if k != 3 {
            continue;
        }
        let geom = ConvGeom { in_c: cin, in_h: hw, in_w: hw, kernel: k, stride, pad };
        let rows = tb * geom.out_h() * geom.out_w();
        let patch = cin * k * k;
        let g = rand_tensor(&mut rng, &[rows, cout]);
        let cols = rand_tensor(&mut rng, &[rows, patch]);
        let secs = time_per_call(|| {
            black_box(matmul_tn(black_box(&g), black_box(&cols)));
        });
        t.row(vec![
            format!("matmul_tn_small{i}"),
            format!("{cout}x{rows}x{patch}"),
            format!("{:.2}", (2 * cout * rows * patch) as f64 / secs / 1e9),
            format!("{:.4}", secs * 1e3),
        ]);
        if i == 1 {
            let secs = time_per_call(|| {
                black_box(col2im(black_box(&cols), &geom, tb));
            });
            t.row(vec![
                "col2im_small1".into(),
                format!("{rows}x{patch} -> {tb}x{cin}x{hw}x{hw}"),
                "-".into(),
                format!("{:.4}", secs * 1e3),
            ]);
        }
        hw = geom.out_h();
    }
    let mut student = Detector::small(48, &mut rng);
    let train_frames: Vec<Frame> = SceneGen::new(48).subset_frames(&mut rng, Subset::Day, tb);
    let train_images: Vec<&Image> = train_frames.iter().map(|f| &f.image).collect();
    let train_batch = Image::batch_resized(&train_images, 48, 48);
    let train_boxes: Vec<&[GtBox]> = train_frames.iter().map(|f| f.boxes.as_slice()).collect();
    let secs = time_per_call(|| {
        black_box(student.train_step(black_box(&train_batch), &train_boxes));
    });
    t.row(vec![
        "train_step_small_b8".into(),
        format!("{tb}x3x48x48"),
        "-".into(),
        format!("{:.4}", secs * 1e3),
    ]);

    // Batch-1 inference at the shapes a served frame actually runs: the
    // teacher's two widest convs, the DA-GAN encoder's first conv
    // (ragged N = 12) and its latent projection (M = 1). At these row
    // counts the batched rows above say nothing — per-call overheads
    // (weight packing, the padded copy) are a multiple of the arithmetic.
    for (name, cin, hw, stride, cout) in [
        ("conv2d_b1_teacher12", 48usize, 12usize, 1usize, 64usize),
        ("conv2d_b1_teacher6", 64, 6, 1, 64),
        ("conv2d_b1_encoder48", 3, 48, 2, 12),
    ] {
        let x = rand_tensor(&mut rng, &[1, cin, hw, hw]);
        let conv = Conv2d::k3(cin, cout, stride, &mut rng);
        let out_hw = hw / stride;
        let flops = (2 * cout * cin * 9 * out_hw * out_hw) as f64;
        let secs = time_per_call(|| {
            black_box(conv.infer(black_box(&x)));
        });
        t.row(vec![
            name.into(),
            format!("1x{cin}x{hw}x{hw} k3s{stride}->{cout}"),
            format!("{:.2}", flops / secs / 1e9),
            format!("{:.4}", secs * 1e3),
        ]);
    }
    let (din, dout) = (864usize, 64usize);
    let dx = rand_tensor(&mut rng, &[1, din]);
    let dense = Dense::new(din, dout, &mut rng);
    let secs = time_per_call(|| {
        black_box(dense.infer(black_box(&dx)));
    });
    t.row(vec![
        "dense_b1".into(),
        format!("1x{din}x{dout}"),
        format!("{:.2}", (2 * din * dout) as f64 / secs / 1e9),
        format!("{:.4}", secs * 1e3),
    ]);

    // Int8 serving kernels: the quantized direct NHWC convolution at a
    // Small-detector interior-layer geometry, the madd dot product, and
    // the activation quantizer that feeds both.
    let (qin, qout, qh) = (16usize, 32usize, 24usize);
    let fan_in = qin * 9;
    let qw: Vec<f32> = (0..qout * fan_in).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let qb: Vec<f32> = (0..qout).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
    let qconv = QConv2d::new(&qw, &qb, qin, qout, 3, 1, 1, Some(0.1));
    let qx: Vec<i8> = (0..qh * qh * qin).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
    let (oh, ow) = qconv.out_hw(qh, qh);
    let qconv_flops = (2 * oh * ow * qout * fan_in) as f64;
    let mut qout_buf = Vec::new();
    let mut qscratch = QConvScratch::default();
    let secs = time_per_call(|| {
        black_box(qconv.forward_nhwc(black_box(&qx), 0.01, qh, qh, &mut qscratch, &mut qout_buf));
    });
    t.row(vec![
        "conv2d_int8".into(),
        format!("{qh}x{qh}x{qin} k3->{qout}"),
        format!("{:.2}", qconv_flops / secs / 1e9),
        format!("{:.3}", secs * 1e3),
    ]);

    // The int8 path a recovered stream serves every frame with: the
    // four layers of the Small detector at a 48-pixel frame, one image
    // each, and the whole frame (quantize, stack, decode, NMS).
    let mut hw = 48usize;
    for (i, &(cin, cout, k, stride, pad, _)) in SMALL_CONVS.iter().enumerate() {
        let fan_in = cin * k * k;
        let w: Vec<f32> = (0..cout * fan_in).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..cout).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
        let conv = QConv2d::new(&w, &b, cin, cout, k, stride, pad, Some(0.2));
        let x: Vec<i8> = (0..hw * hw * cin).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
        let (oh, ow) = conv.out_hw(hw, hw);
        let secs = time_per_call(|| {
            black_box(conv.forward_nhwc(black_box(&x), 0.01, hw, hw, &mut qscratch, &mut qout_buf));
        });
        t.row(vec![
            format!("qconv_small{i}"),
            format!("1x{hw}x{hw}x{cin} k{k}s{stride}->{cout}"),
            format!("{:.2}", (2 * oh * ow * cout * fan_in) as f64 / secs / 1e9),
            format!("{:.4}", secs * 1e3),
        ]);
        hw = oh;
    }
    let small = QDetector::quantize(&Detector::small(48, &mut rng)).expect("small quantizes");
    let day = Condition::new(Weather::Clear, TimeOfDay::Day);
    let frame = SceneGen::new(48).frame(&mut rng, day).image;
    let secs = time_per_call(|| {
        black_box(small.detect(black_box(&frame)));
    });
    t.row(vec![
        "detect_small_int8".into(),
        "1x3x48x48".into(),
        "-".into(),
        format!("{:.4}", secs * 1e3),
    ]);

    let dn = 65536usize;
    let da: Vec<i8> = (0..dn).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
    let db: Vec<i8> = (0..dn).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
    let secs = time_per_call(|| {
        black_box(dot_i8(black_box(&da), black_box(&db)));
    });
    t.row(vec![
        "dot_i8".into(),
        format!("{dn}"),
        format!("{:.2}", (2 * dn) as f64 / secs / 1e9),
        format!("{:.3}", secs * 1e3),
    ]);

    let acts: Vec<f32> = (0..1 << 16).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
    let mut qbuf = Vec::new();
    let secs = time_per_call(|| {
        black_box(quantize_activations(black_box(&acts), &mut qbuf));
    });
    t.row(vec![
        "quantize_i8".into(),
        format!("{} f32", acts.len()),
        "-".into(),
        format!("{:.3}", secs * 1e3),
    ]);

    // End-to-end DA-GAN encode of a 16-frame batch (the pipeline's
    // buffered-frame path).
    let mut dagan = DaGan::new(DaGanConfig::bdd(), &mut rng);
    let frames = vec![Image::new(3, 48, 48); 16];
    let refs: Vec<&Image> = frames.iter().collect();
    let secs = time_per_call(|| {
        black_box(dagan.encode_images(black_box(&refs)));
    });
    t.row(vec![
        "dagan_encode".into(),
        "16x3x48x48".into(),
        "-".into(),
        format!("{:.3}", secs * 1e3),
    ]);

    // The stale-period frame, whole: the DA-GAN projection and the
    // teacher's detection of one frame — every layer of both on the
    // inference path (implicit-GEMM convolutions, batch norm and
    // activations in the output sweep).
    let secs = time_per_call(|| {
        black_box(dagan.encode_images(black_box(&[&frame])));
    });
    t.row(vec![
        "dagan_encode_b1".into(),
        "1x3x48x48".into(),
        "-".into(),
        format!("{:.4}", secs * 1e3),
    ]);
    let teacher = Detector::heavy(48, &mut rng);
    let secs = time_per_call(|| {
        black_box(teacher.detect(black_box(&frame)));
    });
    t.row(vec![
        "detect_teacher_b1".into(),
        "1x3x48x48".into(),
        "-".into(),
        format!("{:.4}", secs * 1e3),
    ]);

    t.finish(&args);
}
