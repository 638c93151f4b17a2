//! The parallel backend's determinism contract: every kernel produces
//! bit-identical results for any thread count, and the forced-parallel
//! path matches the forced-serial path on every shape.
//!
//! These tests mutate process-global knobs (thread count, parallel
//! threshold), so each one serializes on a shared mutex and restores the
//! defaults through an RAII guard.

use odin_tensor::layers::{Conv2d, Dense};
use odin_tensor::ops::{matmul, matmul_nt, matmul_tn, softmax_rows};
use odin_tensor::par;
use odin_tensor::{Layer, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

static KNOBS: Mutex<()> = Mutex::new(());

/// Holds the knob lock and restores defaults on drop.
struct KnobGuard<'a> {
    _lock: std::sync::MutexGuard<'a, ()>,
}

impl KnobGuard<'_> {
    fn acquire() -> Self {
        let lock = KNOBS.lock().unwrap_or_else(|e| e.into_inner());
        KnobGuard { _lock: lock }
    }
}

impl Drop for KnobGuard<'_> {
    fn drop(&mut self) {
        par::set_num_threads(1);
        par::reset_parallel_threshold();
        par::set_intra_op_cap(usize::MAX);
    }
}

fn rand_tensor(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec((0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect(), shape)
}

/// Runs `f` under 1, 2, and 4 threads with the parallel threshold forced
/// to zero (so even tiny shapes exercise the pool) and asserts all three
/// results are bit-identical.
fn assert_thread_invariant(f: impl Fn() -> Tensor) {
    par::set_parallel_threshold(0);
    par::set_num_threads(1);
    let t1 = f();
    par::set_num_threads(2);
    let t2 = f();
    par::set_num_threads(4);
    let t4 = f();
    assert_eq!(t1.shape(), t2.shape());
    assert_eq!(t1.shape(), t4.shape());
    assert_eq!(t1.data(), t2.data(), "1-thread vs 2-thread results differ");
    assert_eq!(t1.data(), t4.data(), "1-thread vs 4-thread results differ");
}

/// Asserts the forced-parallel path (threshold 0, 4 threads) matches the
/// forced-serial path (threshold usize::MAX) bit for bit.
fn assert_serial_matches_parallel(f: impl Fn() -> Tensor) {
    par::set_num_threads(4);
    par::set_parallel_threshold(usize::MAX);
    let serial = f();
    par::set_parallel_threshold(0);
    let parallel = f();
    assert_eq!(serial.shape(), parallel.shape());
    assert_eq!(serial.data(), parallel.data(), "serial fallback differs from parallel path");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn matmul_family_is_thread_invariant(
        m in 1usize..40,
        k in 1usize..24,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let _g = KnobGuard::acquire();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_tensor(&mut rng, &[m, k]);
        let b = rand_tensor(&mut rng, &[k, n]);
        let b_t = rand_tensor(&mut rng, &[n, k]);
        let a_t = rand_tensor(&mut rng, &[k, m]);
        assert_thread_invariant(|| matmul(&a, &b));
        assert_thread_invariant(|| matmul_nt(&a, &b_t));
        assert_thread_invariant(|| matmul_tn(&a_t, &b));
        assert_serial_matches_parallel(|| matmul(&a, &b));
        assert_serial_matches_parallel(|| matmul_nt(&a, &b_t));
        assert_serial_matches_parallel(|| matmul_tn(&a_t, &b));
    }

    #[test]
    fn conv_forward_backward_is_thread_invariant(
        batch in 1usize..4,
        in_c in 1usize..3,
        out_c in 1usize..5,
        hw in 4usize..10,
        stride in 1usize..3,
        seed in 0u64..1000,
    ) {
        let _g = KnobGuard::acquire();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = rand_tensor(&mut rng, &[batch, in_c, hw, hw]);
        // One forward+backward per thread count, from identical weights.
        let run = |threads: usize, threshold: usize| {
            par::set_num_threads(threads);
            par::set_parallel_threshold(threshold);
            let mut conv = Conv2d::k3(in_c, out_c, stride, &mut StdRng::seed_from_u64(seed ^ 0xC0));
            let y = conv.forward(&x, true);
            let gx = conv.backward(&y);
            let (dw, db) = {
                let pg = conv.params_grads();
                (pg[0].1.clone(), pg[1].1.clone())
            };
            (y, gx, dw, db)
        };
        let base = run(1, 0);
        for threads in [2usize, 4] {
            let got = run(threads, 0);
            assert_eq!(base.0.data(), got.0.data(), "forward differs at {threads} threads");
            assert_eq!(base.1.data(), got.1.data(), "input grad differs at {threads} threads");
            assert_eq!(base.2.data(), got.2.data(), "weight grad differs at {threads} threads");
            assert_eq!(base.3.data(), got.3.data(), "bias grad differs at {threads} threads");
        }
        let serial = run(4, usize::MAX);
        assert_eq!(base.0.data(), serial.0.data(), "serial conv forward differs");
        assert_eq!(base.1.data(), serial.1.data(), "serial conv backward differs");
    }

    /// A serving worker's intra-op cap is one more way of choosing how
    /// many threads run the same blocks: capped to 1, uncapped on a
    /// 4-thread pool, and a 1-thread process (`ODIN_THREADS=1`) must
    /// agree bit for bit, forward and backward, conv and dense.
    #[test]
    fn intra_op_cap_is_bit_invariant(
        batch in 1usize..4,
        in_c in 1usize..3,
        out_c in 1usize..5,
        hw in 4usize..10,
        seed in 0u64..1000,
    ) {
        let _g = KnobGuard::acquire();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = rand_tensor(&mut rng, &[batch, in_c, hw, hw]);
        let run = |threads: usize, cap: usize| {
            par::set_num_threads(threads);
            par::set_intra_op_cap(cap);
            par::set_parallel_threshold(0);
            let mut wrng = StdRng::seed_from_u64(seed ^ 0xCA9);
            let mut conv = Conv2d::k3(in_c, out_c, 1, &mut wrng);
            let mut dense = Dense::new(out_c * hw * hw, 5, &mut wrng);
            let y = conv.forward(&x, true);
            let flat = y.reshape(&[batch, out_c * hw * hw]);
            let z = dense.forward(&flat, true);
            let g_flat = dense.backward(&z);
            let gx = conv.backward(&g_flat.reshape(y.shape()));
            let mut out = vec![y, z, gx];
            out.extend(conv.params_grads().into_iter().map(|(_, g)| g.clone()));
            out.extend(dense.params_grads().into_iter().map(|(_, g)| g.clone()));
            out
        };
        let uncapped = run(4, usize::MAX);
        for (what, got) in [("cap 1", run(4, 1)), ("cap 2", run(4, 2)), ("1 thread", run(1, usize::MAX))] {
            for (want, got) in uncapped.iter().zip(got.iter()) {
                assert_eq!(want.data(), got.data(), "{what} differs from uncapped");
            }
        }
    }

    /// The training convolution's forward and backward at every kernel
    /// size and padding the models use — a 1×1 kernel without padding
    /// keeps a plain copy of its input — as one tensor: output, `dX`,
    /// `dW`, `db`.
    #[test]
    fn training_conv_and_softmax_are_thread_invariant(
        batch in 1usize..4,
        hw in 3usize..9,
        k3 in 0usize..2,
        pad in 0usize..2,
        seed in 0u64..1000,
    ) {
        let _g = KnobGuard::acquire();
        let kernel = if k3 == 1 { 3 } else { 1 };
        let mut rng = StdRng::seed_from_u64(seed);
        let x = rand_tensor(&mut rng, &[batch, 2, hw, hw]);
        let train = || {
            let mut conv = Conv2d::new(2, 3, kernel, 1, pad, &mut StdRng::seed_from_u64(seed));
            let y = conv.forward(&x, true);
            let gx = conv.backward(&y);
            let mut all = [y.data(), gx.data()].concat();
            for (_, grad) in conv.params_grads() {
                all.extend_from_slice(grad.data());
            }
            let n = all.len();
            Tensor::from_vec(all, &[n])
        };
        assert_thread_invariant(train);
        assert_serial_matches_parallel(train);
        let logits = rand_tensor(&mut rng, &[batch * 7, 11]);
        assert_thread_invariant(|| softmax_rows(&logits));
        assert_serial_matches_parallel(|| softmax_rows(&logits));
    }
}
