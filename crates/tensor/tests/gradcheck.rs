//! Numerical gradient checks for every layer.
//!
//! These are the load-bearing tests of the whole repository: if a backward
//! pass is wrong, every model trained on top silently degrades. Each check
//! compares analytic parameter and input gradients against central finite
//! differences on a small network.

use odin_tensor::layers::{
    BatchNorm2d, Conv2d, Dense, Flatten, GlobalAvgPool, GlobalMaxPool, LeakyRelu, MaxPool2, Relu,
    Reshape, Sigmoid, Tanh, Upsample2,
};
use odin_tensor::{loss, Layer, Sequential, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EPS: f32 = 2e-3;
const TOL: f32 = 3e-2;

/// Scalar loss used for checking: MSE against a fixed random target.
/// Always runs in train mode so batch-statistic layers (BatchNorm) see
/// the same forward function the analytic gradient was derived for; all
/// layers are deterministic, so this is safe for finite differences.
fn scalar_loss(net: &mut Sequential, x: &Tensor, target: &Tensor) -> (f32, Tensor) {
    let y = net.forward(x, true);
    loss::mse(&y, target)
}

/// Checks all parameter gradients and the input gradient of `net` at `x`.
fn gradcheck(net: &mut Sequential, x: &Tensor, out_shape: &[usize], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let target = Tensor::from_vec(
        (0..out_shape.iter().product::<usize>()).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        out_shape,
    );

    // Analytic gradients.
    net.zero_grad();
    let (_, dgrad) = scalar_loss(net, x, &target);
    let dx = net.backward(&dgrad);

    // Check parameter gradients (a random subset for large tensors).
    let n_params = net.params_grads().len();
    for pi in 0..n_params {
        let numel = net.params_grads()[pi].0.numel();
        let step = (numel / 8).max(1);
        for j in (0..numel).step_by(step) {
            let analytic = net.params_grads()[pi].1.data()[j];
            let orig = net.params_grads()[pi].0.data()[j];
            net.params_grads()[pi].0.data_mut()[j] = orig + EPS;
            let (lp, _) = scalar_loss(net, x, &target);
            net.params_grads()[pi].0.data_mut()[j] = orig - EPS;
            let (lm, _) = scalar_loss(net, x, &target);
            net.params_grads()[pi].0.data_mut()[j] = orig;
            let numeric = (lp - lm) / (2.0 * EPS);
            let denom = analytic.abs().max(numeric.abs()).max(1.0);
            assert!(
                (analytic - numeric).abs() / denom < TOL,
                "param {pi}[{j}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    // Check input gradients.
    let mut xp = x.clone();
    let step = (x.numel() / 8).max(1);
    for j in (0..x.numel()).step_by(step) {
        let analytic = dx.data()[j];
        let orig = xp.data()[j];
        xp.data_mut()[j] = orig + EPS;
        let (lp, _) = scalar_loss(net, &xp, &target);
        xp.data_mut()[j] = orig - EPS;
        let (lm, _) = scalar_loss(net, &xp, &target);
        xp.data_mut()[j] = orig;
        let numeric = (lp - lm) / (2.0 * EPS);
        let denom = analytic.abs().max(numeric.abs()).max(1.0);
        assert!(
            (analytic - numeric).abs() / denom < TOL,
            "input[{j}]: analytic {analytic} vs numeric {numeric}"
        );
    }
}

fn rand_input(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    Tensor::from_vec(
        (0..shape.iter().product::<usize>()).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        shape,
    )
}

#[test]
fn gradcheck_dense() {
    let mut rng = StdRng::seed_from_u64(10);
    let mut net = Sequential::new().push(Dense::new(5, 4, &mut rng));
    let x = rand_input(&mut rng, &[3, 5]);
    gradcheck(&mut net, &x, &[3, 4], 1);
}

#[test]
fn gradcheck_dense_relu_dense() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut net = Sequential::new()
        .push(Dense::new(4, 8, &mut rng))
        .push(Relu::new())
        .push(Dense::new(8, 3, &mut rng));
    let x = rand_input(&mut rng, &[2, 4]);
    gradcheck(&mut net, &x, &[2, 3], 2);
}

#[test]
fn gradcheck_leaky_relu() {
    let mut rng = StdRng::seed_from_u64(12);
    let mut net = Sequential::new()
        .push(Dense::new(4, 6, &mut rng))
        .push(LeakyRelu::new(0.2))
        .push(Dense::new(6, 2, &mut rng));
    let x = rand_input(&mut rng, &[2, 4]);
    gradcheck(&mut net, &x, &[2, 2], 3);
}

#[test]
fn gradcheck_sigmoid_tanh() {
    let mut rng = StdRng::seed_from_u64(13);
    let mut net = Sequential::new()
        .push(Dense::new(3, 5, &mut rng))
        .push(Tanh::new())
        .push(Dense::new(5, 3, &mut rng))
        .push(Sigmoid::new());
    let x = rand_input(&mut rng, &[2, 3]);
    gradcheck(&mut net, &x, &[2, 3], 4);
}

#[test]
fn gradcheck_conv_stride1() {
    let mut rng = StdRng::seed_from_u64(14);
    let mut net = Sequential::new().push(Conv2d::new(2, 3, 3, 1, 1, &mut rng)).push(Flatten::new());
    let x = rand_input(&mut rng, &[1, 2, 4, 4]);
    gradcheck(&mut net, &x, &[1, 48], 5);
}

#[test]
fn gradcheck_conv_stride2() {
    let mut rng = StdRng::seed_from_u64(15);
    let mut net = Sequential::new()
        .push(Conv2d::new(1, 4, 3, 2, 1, &mut rng))
        .push(Relu::new())
        .push(Flatten::new());
    let x = rand_input(&mut rng, &[2, 1, 6, 6]);
    gradcheck(&mut net, &x, &[2, 36], 6);
}

#[test]
fn gradcheck_conv_deep() {
    let mut rng = StdRng::seed_from_u64(16);
    let mut net = Sequential::new()
        .push(Conv2d::new(1, 2, 3, 2, 1, &mut rng))
        .push(LeakyRelu::default())
        .push(Conv2d::new(2, 3, 3, 2, 1, &mut rng))
        .push(Flatten::new())
        .push(Dense::new(12, 2, &mut rng));
    let x = rand_input(&mut rng, &[1, 1, 8, 8]);
    gradcheck(&mut net, &x, &[1, 2], 7);
}

#[test]
fn gradcheck_maxpool() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut net = Sequential::new()
        .push(Conv2d::new(1, 2, 3, 1, 1, &mut rng))
        .push(MaxPool2::new())
        .push(Flatten::new());
    let x = rand_input(&mut rng, &[1, 1, 4, 4]);
    gradcheck(&mut net, &x, &[1, 8], 8);
}

#[test]
fn gradcheck_global_avg_pool() {
    let mut rng = StdRng::seed_from_u64(18);
    let mut net =
        Sequential::new().push(Conv2d::new(1, 3, 3, 1, 1, &mut rng)).push(GlobalAvgPool::new());
    let x = rand_input(&mut rng, &[2, 1, 4, 4]);
    gradcheck(&mut net, &x, &[2, 3], 9);
}

#[test]
fn gradcheck_batch_norm() {
    // Note: BN's forward depends on batch statistics, so the numeric
    // check perturbs one element and the analytic gradient must account
    // for the mean/var coupling — exactly what the backward implements.
    let mut rng = StdRng::seed_from_u64(22);
    let mut net = Sequential::new()
        .push(Conv2d::new(1, 3, 3, 1, 1, &mut rng))
        .push(BatchNorm2d::new(3))
        .push(Relu::new())
        .push(Flatten::new())
        .push(Dense::new(48, 2, &mut rng));
    let x = rand_input(&mut rng, &[2, 1, 4, 4]);
    gradcheck(&mut net, &x, &[2, 2], 12);
}

#[test]
fn gradcheck_global_max_pool() {
    let mut rng = StdRng::seed_from_u64(21);
    let mut net = Sequential::new()
        .push(Conv2d::new(1, 3, 3, 1, 1, &mut rng))
        .push(GlobalMaxPool::new())
        .push(Dense::new(3, 2, &mut rng));
    let x = rand_input(&mut rng, &[2, 1, 4, 4]);
    gradcheck(&mut net, &x, &[2, 2], 11);
}

#[test]
fn gradcheck_decoder_shape() {
    // Dense -> Reshape -> Upsample -> Conv: the decoder pattern.
    let mut rng = StdRng::seed_from_u64(19);
    let mut net = Sequential::new()
        .push(Dense::new(4, 8, &mut rng))
        .push(Reshape::new(2, 2, 2))
        .push(Upsample2::new())
        .push(Conv2d::new(2, 1, 3, 1, 1, &mut rng))
        .push(Flatten::new());
    let x = rand_input(&mut rng, &[1, 4]);
    gradcheck(&mut net, &x, &[1, 16], 10);
}

#[test]
fn gradcheck_bce_loss_gradient() {
    // Check the BCE-with-logits gradient itself numerically.
    let mut rng = StdRng::seed_from_u64(20);
    let logits = rand_input(&mut rng, &[6]);
    let targets = Tensor::from_slice(&[1.0, 0.0, 1.0, 0.0, 0.5, 1.0]);
    let (_, grad) = loss::bce_with_logits(&logits, &targets);
    for j in 0..logits.numel() {
        let mut lp = logits.clone();
        lp.data_mut()[j] += EPS;
        let (llp, _) = loss::bce_with_logits(&lp, &targets);
        let mut lm = logits.clone();
        lm.data_mut()[j] -= EPS;
        let (llm, _) = loss::bce_with_logits(&lm, &targets);
        let numeric = (llp - llm) / (2.0 * EPS);
        assert!(
            (grad.data()[j] - numeric).abs() < 1e-3,
            "bce grad[{j}]: {} vs {}",
            grad.data()[j],
            numeric
        );
    }
}

/// Runs `build()` twice on the same input and output gradient — once
/// through `backward`, once through `backward_params` — and requires
/// the two to leave the same parameter-gradient bits.
fn assert_backward_params_leaves_backwards_grads<L: Layer>(
    build: impl Fn() -> L,
    x: &Tensor,
    passes: usize,
) {
    let grads_after = |params_only: bool| {
        let mut layer = build();
        // More than one pass: gradients accumulate across calls.
        for pass in 0..passes {
            let y = layer.forward(x, true);
            let g = Tensor::from_vec(
                y.data().iter().map(|v| (v + pass as f32).sin()).collect(),
                y.shape(),
            );
            if params_only {
                layer.backward_params(&g);
            } else {
                let _ = layer.backward(&g);
            }
        }
        layer.params_grads().iter().map(|(_, g)| g.data().to_vec()).collect::<Vec<_>>()
    };
    let (full, params_only) = (grads_after(false), grads_after(true));
    assert!(full.iter().flatten().any(|&v| v != 0.0), "gradients must be non-trivial");
    assert_eq!(full, params_only);
}

#[test]
fn backward_params_leaves_exactly_backwards_parameter_gradients() {
    let mut rng = StdRng::seed_from_u64(30);
    let image = rand_input(&mut rng, &[2, 3, 7, 9]);
    let conv = || Conv2d::k3(3, 5, 2, &mut StdRng::seed_from_u64(31));
    assert_backward_params_leaves_backwards_grads(conv, &image, 2);
    assert_backward_params_leaves_backwards_grads(|| conv().fuse_leaky_relu(0.2), &image, 2);
    assert_backward_params_leaves_backwards_grads(|| conv().fuse_relu(), &image, 2);
    let flat = rand_input(&mut rng, &[3, 11]);
    assert_backward_params_leaves_backwards_grads(
        || Dense::new(11, 4, &mut StdRng::seed_from_u64(32)),
        &flat,
        2,
    );
    // A stack skips only its first layer's input gradient.
    let stack = || {
        let mut rng = StdRng::seed_from_u64(33);
        Sequential::new()
            .push(Conv2d::k3(3, 4, 1, &mut rng).fuse_leaky_relu(0.2))
            .push(Conv2d::k3(4, 2, 2, &mut rng))
            .push(Flatten::new())
            .push(Dense::new(2 * 4 * 5, 3, &mut rng))
    };
    assert_backward_params_leaves_backwards_grads(stack, &image, 1);
}
