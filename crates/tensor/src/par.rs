//! Deterministic data-parallel execution for tensor kernels.
//!
//! A single persistent worker pool serves the whole process. Kernels
//! hand it a job described as `blocks` disjoint pieces of work plus a
//! closure `body(block_index)`; workers (and the submitting thread, which
//! participates instead of idling) race on an atomic counter to claim
//! block indices until the job is drained.
//!
//! # Determinism contract
//!
//! The partition into blocks is always a pure function of the problem
//! size — never of the thread count — and every output element is owned
//! by exactly one block and computed by a single accumulator walking the
//! reduction axis in ascending order. Which *thread* computes a block
//! affects nothing about the arithmetic, so results are bit-identical
//! for any `ODIN_THREADS` setting, including 1, and identical to the
//! serial fallback. `tests/par_determinism.rs` pins this.
//!
//! # Sizing
//!
//! The pool is sized by the first of: [`set_num_threads`], the
//! `ODIN_THREADS` environment variable, or `available_parallelism()`.
//! Worker threads are spawned lazily on the first parallel job and kept
//! for the life of the process; jobs smaller than the parallel threshold
//! never touch the pool at all.
//!
//! # Intra-op budget
//!
//! The pool is one per process, so N threads that each fork their
//! kernels into it oversubscribe the cores N-fold. A thread that is
//! itself one of several concurrent callers (a serving worker) declares
//! its share with [`set_intra_op_cap`]: kernels submitted from that
//! thread then use at most that many threads (1 = always serial, never
//! touching the pool). The cap is thread-local — threads that never set
//! one (the training pool) keep the full [`num_threads`]. By the
//! determinism contract any cap gives identical bits.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

/// Configured thread count; 0 means "not yet resolved".
static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Minimum number of scalar multiply-adds (or comparable flop count)
/// before a kernel considers going parallel. Below this, fork/join
/// latency dominates. Tests override it via [`set_parallel_threshold`].
static PARALLEL_THRESHOLD: AtomicUsize = AtomicUsize::new(DEFAULT_PARALLEL_THRESHOLD);

const DEFAULT_PARALLEL_THRESHOLD: usize = 1 << 18;

/// Returns the configured worker count (including the submitting
/// thread). Resolution order: [`set_num_threads`] → `ODIN_THREADS` →
/// `std::thread::available_parallelism()`.
pub fn num_threads() -> usize {
    let n = NUM_THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let resolved = std::env::var("ODIN_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    // First caller wins; a racing set_num_threads overrides regardless.
    let _ = NUM_THREADS.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed);
    NUM_THREADS.load(Ordering::Relaxed)
}

/// Overrides the worker count for subsequent parallel jobs.
///
/// Already-spawned workers are retained (and re-used) when the count
/// shrinks or grows; only up to `n - 1` of them receive work for a job
/// submitted while the count is `n`. Setting `1` forces every kernel
/// down the serial path.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn set_num_threads(n: usize) {
    assert!(n > 0, "thread count must be at least 1");
    NUM_THREADS.store(n, Ordering::Relaxed);
}

/// Overrides the flop threshold above which kernels go parallel.
/// Primarily a test hook: `0` forces even tiny shapes through the pool,
/// `usize::MAX` forces the serial fallback everywhere.
pub fn set_parallel_threshold(flops: usize) {
    PARALLEL_THRESHOLD.store(flops, Ordering::Relaxed);
}

/// Restores the default parallel threshold.
pub fn reset_parallel_threshold() {
    PARALLEL_THRESHOLD.store(DEFAULT_PARALLEL_THRESHOLD, Ordering::Relaxed);
}

thread_local! {
    /// This thread's share of the pool; `usize::MAX` = uncapped.
    static INTRA_OP_CAP: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Caps the threads (submitter included) that kernels called from the
/// *current* thread may use, for the rest of the thread's life or until
/// set again; `usize::MAX` lifts the cap. Concurrent callers sharing the
/// pool should each take `num_threads() / callers` so that
/// `callers × cap ≤ num_threads()`.
///
/// # Panics
///
/// Panics if `max_threads` is zero.
pub fn set_intra_op_cap(max_threads: usize) {
    assert!(max_threads > 0, "intra-op cap must be at least 1");
    INTRA_OP_CAP.with(|c| c.set(max_threads));
}

/// Threads a kernel submitted from the current thread may use:
/// [`num_threads`] clipped to this thread's [`set_intra_op_cap`].
fn intra_op_threads() -> usize {
    num_threads().min(INTRA_OP_CAP.with(Cell::get))
}

/// True if a kernel performing `flops` scalar operations over `blocks`
/// partitionable blocks should use the pool.
pub(crate) fn should_parallelize(flops: usize, blocks: usize) -> bool {
    blocks >= 2 && intra_op_threads() >= 2 && flops >= PARALLEL_THRESHOLD.load(Ordering::Relaxed)
}

/// A fan-out job: workers claim block indices from `next` until
/// exhausted; the last block to finish signals `done`.
struct Task {
    /// Type-erased `&dyn Fn(usize) + Sync` borrowed from the submitting
    /// stack frame. Valid until `done` fires (the submitter blocks on
    /// the `done` channel before its frame unwinds).
    body: *const (dyn Fn(usize) + Sync),
    next: AtomicUsize,
    blocks: usize,
    remaining: AtomicUsize,
    done: Sender<()>,
}

// SAFETY: `body` points at a `Sync` closure that the submitting thread
// keeps alive (it blocks on `done`) for the task's whole lifetime, and
// all other fields are atomics/channels.
unsafe impl Send for Task {}
unsafe impl Sync for Task {}

impl Task {
    /// Claims and runs blocks until none remain. Returns after the whole
    /// task is drained (possibly by other threads).
    fn run(&self) {
        // SAFETY: see the field invariant — the pointee outlives the task.
        let body = unsafe { &*self.body };
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.blocks {
                return;
            }
            body(i);
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _ = self.done.send(());
            }
        }
    }
}

struct Pool {
    inject: Sender<Arc<Task>>,
    queue: Receiver<Arc<Task>>,
    spawned: usize,
}

fn pool() -> &'static Mutex<Pool> {
    static POOL: OnceLock<Mutex<Pool>> = OnceLock::new();
    POOL.get_or_init(|| {
        let (tx, rx) = unbounded();
        Mutex::new(Pool { inject: tx, queue: rx, spawned: 0 })
    })
}

/// Runs `body(0..blocks)` across the pool, blocking until every block
/// has completed. Falls back to a plain serial loop when the pool would
/// not help.
pub(crate) fn parallel_blocks(blocks: usize, body: &(dyn Fn(usize) + Sync)) {
    let threads = intra_op_threads().min(blocks);
    if threads < 2 {
        for i in 0..blocks {
            body(i);
        }
        return;
    }
    let (done_tx, done_rx) = unbounded();
    // SAFETY: we erase `body`'s lifetime to store it in the task; the
    // task cannot outlive this frame because we block on `done_rx` (which
    // fires only after the final block completes) before returning.
    let body_static: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
    };
    let task = Arc::new(Task {
        body: body_static,
        next: AtomicUsize::new(0),
        blocks,
        remaining: AtomicUsize::new(blocks),
        done: done_tx,
    });
    {
        let mut p = pool().lock();
        while p.spawned < threads - 1 {
            let rx = p.queue.clone();
            std::thread::Builder::new()
                .name(format!("odin-tensor-{}", p.spawned))
                .spawn(move || {
                    while let Ok(task) = rx.recv() {
                        task.run();
                    }
                })
                .expect("failed to spawn tensor worker");
            p.spawned += 1;
        }
        // One queue entry per helper; workers that lose the race to an
        // already-drained task just go back to waiting on the queue.
        for _ in 0..threads - 1 {
            let _ = p.inject.send(Arc::clone(&task));
        }
    }
    // The submitting thread works too, then waits for stragglers.
    task.run();
    done_rx.recv().expect("tensor worker pool disconnected");
}

/// Splits `out` (a buffer of `rows * width` elements) into disjoint
/// row-block chunks of `grain` rows and runs
/// `body(block_index, first_row, &mut chunk)` for each, in parallel.
///
/// `grain` must be a pure function of the problem size so the partition
/// (and therefore the arithmetic) is identical for every thread count.
pub(crate) fn parallel_row_blocks(
    out: &mut [f32],
    width: usize,
    rows: usize,
    grain: usize,
    body: &(dyn Fn(usize, usize, &mut [f32]) + Sync),
) {
    assert_eq!(out.len(), rows * width, "row-block buffer size mismatch");
    let grain = grain.max(1);
    let blocks = rows.div_ceil(grain);
    let base = out.as_mut_ptr() as usize;
    parallel_blocks(blocks, &move |bi| {
        let r0 = bi * grain;
        let r1 = (r0 + grain).min(rows);
        // SAFETY: blocks own disjoint row ranges of `out`, which outlives
        // the parallel_blocks call; turning the base address back into a
        // slice per block never aliases another block's range.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut((base + r0 * width * 4) as *mut f32, (r1 - r0) * width)
        };
        body(bi, r0, chunk);
    });
}

/// Number of row blocks a `rows`-row output is split into, as a pure
/// function of `rows` (multiples of 4 keep 4×4 micro-tiles from
/// straddling block boundaries).
pub(crate) fn row_grain(rows: usize) -> usize {
    if rows >= 512 {
        64
    } else if rows >= 64 {
        16
    } else {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn parallel_blocks_visits_every_block_once() {
        set_num_threads(4);
        let hits: Vec<AtomicU32> = (0..97).map(|_| AtomicU32::new(0)).collect();
        parallel_blocks(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn row_blocks_cover_disjointly() {
        set_num_threads(4);
        let rows = 37;
        let width = 5;
        let mut out = vec![0.0f32; rows * width];
        parallel_row_blocks(&mut out, width, rows, 4, &|_bi, r0, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v += (r0 * width + i) as f32;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as f32, "element {i} written wrongly or twice");
        }
    }

    #[test]
    fn serial_fallback_used_for_single_thread() {
        set_num_threads(1);
        let hits = AtomicU32::new(0);
        parallel_blocks(8, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
        set_num_threads(4);
    }

    #[test]
    fn intra_op_cap_is_per_thread_and_serializes_at_one() {
        set_num_threads(4);
        let runs_on_submitter = || {
            let me = std::thread::current().id();
            parallel_blocks(16, &|_| assert_eq!(std::thread::current().id(), me));
        };
        // A capped sibling thread leaves this thread uncapped.
        std::thread::scope(|s| {
            s.spawn(|| {
                set_intra_op_cap(1);
                assert_eq!(intra_op_threads(), 1);
                runs_on_submitter();
            });
        });
        assert_eq!(INTRA_OP_CAP.with(Cell::get), usize::MAX);
        set_intra_op_cap(1);
        assert!(!should_parallelize(usize::MAX, 64));
        runs_on_submitter();
        set_intra_op_cap(usize::MAX);
    }

    #[test]
    fn grain_is_pure_in_rows() {
        assert_eq!(row_grain(1024), row_grain(1024));
        assert!(row_grain(4) >= 1);
        assert_eq!(row_grain(100) % 4, 0);
    }
}
