//! Thread-local scratch-buffer arena.
//!
//! Every [`crate::Tensor`] returns its flat buffer here on drop, and all
//! tensor constructors (and the convolution/matmul hot paths) draw buffers
//! from here first. On a steady-state workload — repeated forward or
//! forward/backward passes over fixed shapes — the pool converges to the
//! working set and the tensor layer stops touching the global allocator
//! entirely (asserted by `tests/scratch_reuse.rs`).
//!
//! The pool is thread-local, so no locking is involved and buffers
//! recycled by SPECIALIZER worker threads stay with those threads. Two
//! caps bound memory: at most [`MAX_POOLED_BUFFERS`] buffers are kept,
//! and any buffer larger than [`MAX_POOLED_FLOATS`] is released to the
//! allocator instead of pooled.

use std::cell::RefCell;

/// Maximum number of free buffers kept per thread.
const MAX_POOLED_BUFFERS: usize = 64;
/// Largest buffer (in `f32` elements) the pool will retain: 16 MiB.
const MAX_POOLED_FLOATS: usize = 1 << 22;

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Removes the smallest pooled buffer with capacity ≥ `n` (smallest
/// fit wins, to keep big buffers available for big requests), with
/// whatever length and contents it was recycled with.
fn take_pooled(n: usize) -> Option<Vec<f32>> {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let mut best: Option<(usize, usize)> = None;
        for (i, b) in pool.iter().enumerate() {
            let c = b.capacity();
            if c >= n && best.is_none_or(|(_, bc)| c < bc) {
                best = Some((i, c));
                if c == n {
                    break;
                }
            }
        }
        best.map(|(i, _)| pool.swap_remove(i))
    })
}

/// Takes a cleared buffer with capacity ≥ `n`.
pub(crate) fn take_raw(n: usize) -> Vec<f32> {
    let mut v = take_pooled(n).unwrap_or_else(|| Vec::with_capacity(n));
    v.clear();
    v
}

/// Takes a buffer of exactly `n` zeros.
pub(crate) fn take_zeroed(n: usize) -> Vec<f32> {
    let mut v = take_raw(n);
    v.resize(n, 0.0);
    v
}

/// Takes a buffer of exactly `n` elements of unspecified (but
/// initialized) value, for a kernel that overwrites every one of them:
/// a recycled buffer keeps what its last owner left in it, so at steady
/// state — same shapes, same buffers — nothing is cleared at all. A
/// full-length memset per output was a seventh of a training step.
pub(crate) fn take_dirty(n: usize) -> Vec<f32> {
    let mut v = take_pooled(n).unwrap_or_else(|| Vec::with_capacity(n));
    v.resize(n, 0.0); // truncates, or zero-extends the missing tail
    v
}

/// Takes a buffer of exactly `n` copies of `value`.
pub(crate) fn take_filled(n: usize, value: f32) -> Vec<f32> {
    let mut v = take_raw(n);
    v.resize(n, value);
    v
}

/// Copies a slice into a pooled buffer.
pub(crate) fn copy_of(src: &[f32]) -> Vec<f32> {
    let mut v = take_raw(src.len());
    v.extend_from_slice(src);
    v
}

/// Collects exactly `n` items from an iterator into a pooled buffer.
pub(crate) fn collect_exact(n: usize, iter: impl Iterator<Item = f32>) -> Vec<f32> {
    let mut v = take_raw(n);
    v.extend(iter);
    debug_assert_eq!(v.len(), n, "scratch::collect_exact length mismatch");
    v
}

/// Returns a buffer to the pool (or frees it, if the pool is full or the
/// buffer is empty/oversized).
pub(crate) fn recycle(v: Vec<f32>) {
    let cap = v.capacity();
    if cap == 0 || cap > MAX_POOLED_FLOATS {
        return;
    }
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < MAX_POOLED_BUFFERS {
            pool.push(v);
        }
    });
}

/// Number of free buffers currently pooled on this thread (diagnostics).
pub fn pooled_buffers() -> usize {
    POOL.with(|p| p.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_buffer_is_reused() {
        // Use an odd size unlikely to collide with other tests on this
        // thread.
        let mut v = take_raw(12345);
        v.resize(12345, 1.0);
        let ptr = v.as_ptr();
        recycle(v);
        let v2 = take_raw(12345);
        assert_eq!(v2.as_ptr(), ptr, "pool did not hand back the recycled buffer");
        assert!(v2.is_empty(), "recycled buffer must come back cleared");
    }

    #[test]
    fn zeroed_buffers_are_actually_zero() {
        let mut v = take_raw(64);
        v.resize(64, 7.0);
        recycle(v);
        let z = take_zeroed(64);
        assert!(z.iter().all(|&x| x == 0.0));
        assert_eq!(z.len(), 64);
    }

    #[test]
    fn dirty_buffers_have_the_length_asked_for() {
        let mut v = take_raw(77);
        v.resize(50, 3.0);
        recycle(v);
        let longer = take_dirty(77);
        assert_eq!(longer.len(), 77);
        assert!(longer[50..].iter().all(|&x| x == 0.0), "the missing tail is zero-extended");
        recycle(longer);
        assert_eq!(take_dirty(20).len(), 20);
    }

    #[test]
    fn oversized_buffers_are_not_pooled() {
        let before = pooled_buffers();
        recycle(Vec::with_capacity(MAX_POOLED_FLOATS + 1));
        assert_eq!(pooled_buffers(), before);
    }
}
