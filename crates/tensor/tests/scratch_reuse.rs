//! Asserts the zero-allocation contract of the scratch arena: after a
//! short warm-up, repeated `Conv2d::forward` (and forward+backward, and
//! a fused first layer's forward+`backward_params`) calls with a fixed
//! batch shape perform no heap allocations at all —
//! every buffer is drawn from and returned to the thread-local pool.
//!
//! A counting global allocator makes the assertion exact. The whole
//! file is one `#[test]` so no other test binary's allocations are
//! counted, and the worker pool is pinned to one thread so no allocation
//! happens on a thread we can't warm up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use odin_tensor::layers::Conv2d;
use odin_tensor::{par, Layer, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn conv_forward_is_allocation_free_at_steady_state() {
    par::set_num_threads(1);
    let mut rng = StdRng::seed_from_u64(7);
    let mut conv = Conv2d::k3(3, 16, 1, &mut rng);
    let n = 8 * 3 * 24 * 24;
    let x =
        Tensor::from_vec((0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect(), &[8, 3, 24, 24]);

    // Warm up: the pool learns the working set for this shape.
    let mut checksum = 0.0f32;
    for _ in 0..4 {
        checksum += conv.forward(&x, false).data()[0];
    }

    let before = alloc_count();
    for _ in 0..8 {
        checksum += conv.forward(&x, false).data()[0];
    }
    let after = alloc_count();
    assert_eq!(
        after - before,
        0,
        "Conv2d::forward allocated on the steady-state path (checksum {checksum})"
    );

    // Training steady state: forward + backward with grad accumulation
    // also stabilizes to zero allocations once its buffers are pooled.
    for _ in 0..4 {
        let y = conv.forward(&x, true);
        checksum += conv.backward(&y).data()[0];
        conv.zero_grad();
    }
    let before = alloc_count();
    for _ in 0..8 {
        let y = conv.forward(&x, true);
        checksum += conv.backward(&y).data()[0];
        conv.zero_grad();
    }
    let after = alloc_count();
    assert_eq!(
        after - before,
        0,
        "Conv2d forward+backward allocated at steady state (checksum {checksum})"
    );

    // A first layer with a fused activation, as the Small detector
    // trains it: the activation mask is carried from step to step like
    // the column buffer, and `backward_params` takes nothing it does
    // not give back.
    let mut fused = Conv2d::k3(3, 16, 2, &mut rng).fuse_leaky_relu(0.2);
    for _ in 0..4 {
        let y = fused.forward(&x, true);
        fused.backward_params(&y);
        fused.zero_grad();
    }
    let before = alloc_count();
    for _ in 0..8 {
        let y = fused.forward(&x, true);
        checksum += y.data()[0];
        fused.backward_params(&y);
        fused.zero_grad();
    }
    let after = alloc_count();
    assert_eq!(
        after - before,
        0,
        "fused Conv2d forward+backward_params allocated at steady state (checksum {checksum})"
    );
}
