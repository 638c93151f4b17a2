//! Linear-algebra and convolution primitives.
//!
//! All three matmul variants share the same structure: the public
//! function is a thin dispatcher that splits the output into row blocks
//! (a pure function of the row count — see [`crate::par`]) and runs a
//! register-blocked micro-kernel over each block, on the worker pool
//! when the problem is big enough and serially otherwise. Every output
//! element is produced by a single accumulator walking `k` in ascending
//! order, so the serial and parallel, scalar and vector paths are all
//! bit-identical at any thread count.
//!
//! Each product has a scalar 4×4 kernel — the semantics reference, and
//! what runs under `ODIN_NO_SIMD` — and all three share one vector
//! kernel, `simd::nt_packed_chunk`: `lhs × Bᵀ`, its left operand read in
//! place through a row base and a column offset (`Lhs`) and `B` packed
//! in 16-wide panels (`PackedPanels`). An `n` that is not a multiple of
//! the panel width ends in a lane-masked panel, never in a scalar tail.
//!
//! - NT (`a × bᵀ`, the forward pass of every layer): `Dense` over its
//!   input, and the convolution, training and inference alike, over its
//!   zero-padded input read in place — no column matrix is built (a
//!   dense matrix is the identity addressing). A layer packs its weight
//!   once and keeps it (`WeightPanels`); the free [`matmul_nt`] packs
//!   per call.
//! - NN (`a × b`, every layer's input gradient): `a` read in place,
//!   `b` packed from its `[k, n]` layout.
//! - TN (`aᵀ × b`, every layer's `dW`) runs as `(bᵀ × a)ᵀ`: `b` read in
//!   place a column at a time, `a` (the gradient) packed, and the result
//!   transposed by `transpose_sweep`. A convolution's `b` is the column
//!   matrix, read from the padded input through the same addressing as
//!   its forward product with rows and columns swapped: a row per kernel
//!   tap `(c, ky, kx)`, a column per output position.
//!
//! Around the matmuls a convolution moves data, and these are the
//! movers: `pad_input` (the input with its zero border, which both
//! convolution products read), [`col2im`] (the input gradient's
//! scatter; 3×3 interior positions on a branch-free path, each bit as
//! the general loop writes it) and `transpose_sweep`, the one pass
//! between the row-per-position layout the matmuls work in and NCHW,
//! with the elementwise work applied on the way — forward, the bias, an
//! eval-mode batch norm and the activation (the layers' own arithmetic,
//! step for step); backward, the activation gradient. Outputs come from
//! `scratch::take_dirty`: every kernel here writes every element of its
//! output, so nothing is cleared first.

use std::sync::OnceLock;

use crate::par;
use crate::scratch;
use crate::simd::{self, PackedPanels, SimdLevel};
use crate::tensor::Tensor;

/// Micro-kernel tile edge: output is computed in 4×4 register tiles.
const TILE: usize = 4;

/// Partitions `out` (`rows * width` elements) into row blocks and runs
/// `body(block, first_row, chunk)` over each — on the worker pool when
/// `flops` crosses the parallel threshold, serially otherwise. Both
/// paths use the identical partition and body, so they are bit-identical.
fn run_row_blocks(
    out: &mut [f32],
    width: usize,
    rows: usize,
    flops: usize,
    body: &(dyn Fn(usize, usize, &mut [f32]) + Sync),
) {
    let grain = par::row_grain(rows);
    let blocks = rows.div_ceil(grain.max(1));
    if par::should_parallelize(flops, blocks) {
        par::parallel_row_blocks(out, width, rows, grain, body);
    } else {
        for bi in 0..blocks {
            let r0 = bi * grain;
            let r1 = (r0 + grain).min(rows);
            body(bi, r0, &mut out[r0 * width..r1 * width]);
        }
    }
}

/// 4×4-blocked kernel for `out[r0..][..] = a[r0..] × b` where
/// `a` is `[m, k]` row-major and `b` is `[k, n]` row-major.
fn matmul_chunk_scalar(ad: &[f32], bd: &[f32], chunk: &mut [f32], r0: usize, k: usize, n: usize) {
    let rows = chunk.len() / n;
    let mut i = 0;
    while i < rows {
        let ih = (rows - i).min(TILE);
        let a_base = (r0 + i) * k;
        let mut j = 0;
        while j < n {
            let jw = (n - j).min(TILE);
            if ih == TILE && jw == TILE {
                let a0 = &ad[a_base..a_base + k];
                let a1 = &ad[a_base + k..a_base + 2 * k];
                let a2 = &ad[a_base + 2 * k..a_base + 3 * k];
                let a3 = &ad[a_base + 3 * k..a_base + 4 * k];
                let mut acc = [[0.0f32; TILE]; TILE];
                for kk in 0..k {
                    let av = [a0[kk], a1[kk], a2[kk], a3[kk]];
                    let bv = &bd[kk * n + j..kk * n + j + TILE];
                    for (accr, &ar) in acc.iter_mut().zip(av.iter()) {
                        for (accv, &bc) in accr.iter_mut().zip(bv.iter()) {
                            *accv += ar * bc;
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    chunk[(i + r) * n + j..(i + r) * n + j + TILE].copy_from_slice(accr);
                }
            } else {
                for r in 0..ih {
                    let a_row = &ad[(r0 + i + r) * k..(r0 + i + r + 1) * k];
                    for c in 0..jw {
                        let mut acc = 0.0f32;
                        for (kk, &av) in a_row.iter().enumerate() {
                            acc += av * bd[kk * n + j + c];
                        }
                        chunk[(i + r) * n + j + c] = acc;
                    }
                }
            }
            j += jw;
        }
        i += ih;
    }
}

/// Matrix multiply: `a [m, k] × b [k, n] → [m, n]`.
///
/// # Panics
///
/// Panics if either input is not 2-D or the inner dimensions differ.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul lhs must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul rhs must be 2-D");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    #[cfg(target_arch = "x86_64")]
    if let Some(level) = vector_level() {
        let mut panels = PANELS.take();
        panels.repack_kn(b.data(), k, n);
        let out = packed_product(level, &Lhs::dense(a), &panels);
        PANELS.set(panels);
        return Tensor::from_vec(out, &[m, n]);
    }
    let mut out = scratch::take_dirty(m * n);
    let (ad, bd) = (a.data(), b.data());
    run_row_blocks(&mut out, n, m, 2 * m * k * n, &|_, r0, chunk| {
        matmul_chunk_scalar(ad, bd, chunk, r0, k, n);
    });
    Tensor::from_vec(out, &[m, n])
}

/// Where the NT kernels find column `kk` of a left-operand row,
/// relative to the row's base: `kk` itself for a dense matrix, a table
/// entry for an image read in place.
pub(crate) trait Offsets: Copy + Send + Sync {
    /// Offset of column `kk`.
    ///
    /// # Safety
    ///
    /// `kk` must be below the depth the offsets were built for.
    unsafe fn at(self, kk: usize) -> usize;
}

/// The offsets of a dense row: column `kk` is element `kk`.
#[derive(Clone, Copy)]
pub(crate) struct Contiguous;

impl Offsets for Contiguous {
    #[inline(always)]
    unsafe fn at(self, kk: usize) -> usize {
        kk
    }
}

/// The offsets of a row read down a matrix's column: column `kk` is
/// `kk` row strides on.
#[derive(Clone, Copy)]
pub(crate) struct Strided(usize);

impl Offsets for Strided {
    #[inline(always)]
    unsafe fn at(self, kk: usize) -> usize {
        kk * self.0
    }
}

impl Offsets for &[u32] {
    #[inline(always)]
    unsafe fn at(self, kk: usize) -> usize {
        // SAFETY: `kk < self.len()`, the caller's contract.
        unsafe { *self.get_unchecked(kk) as usize }
    }
}

/// Row bases of a left operand: row `r = (b, oy, ox)` (row-major over
/// `[B, oh, ow]`) starts at `b·img + oy·dy + ox·dx`. A dense `[m, k]`
/// matrix is `oh = ow = 1`, `img = k`.
#[derive(Clone, Copy)]
pub(crate) struct RowMap {
    oh: usize,
    ow: usize,
    img: usize,
    dy: usize,
    dx: usize,
}

impl RowMap {
    /// Row bases from row `r0` on.
    fn cursor(self, r0: usize) -> RowCursor {
        let (plane_r, b) = (r0 % (self.oh * self.ow), r0 / (self.oh * self.ow));
        RowCursor { map: self, b, oy: plane_r / self.ow, ox: plane_r % self.ow }
    }
}

/// Walks the row bases of a [`RowMap`] from some first row on, one
/// increment per row instead of a division.
pub(crate) struct RowCursor {
    map: RowMap,
    b: usize,
    oy: usize,
    ox: usize,
}

impl RowCursor {
    /// The base of the current row; moves to the next.
    #[inline(always)]
    pub(crate) fn next_base(&mut self) -> usize {
        let m = self.map;
        let base = self.b * m.img + self.oy * m.dy + self.ox * m.dx;
        self.ox += 1;
        if self.ox == m.ow {
            self.ox = 0;
            self.oy += 1;
            if self.oy == m.oh {
                self.oy = 0;
                self.b += 1;
            }
        }
        base
    }
}

/// The left operand of an NT product, read in place: element `(r, kk)`
/// is `data[base(r) + offs.at(kk)]`. A dense matrix is the identity
/// addressing; a convolution's zero-padded input with per-row window
/// corners and per-column `(c, ky, kx)` offsets is the implicit `im2col`
/// matrix, and with the two swapped its transpose — the same values in
/// the same places, so every product through it is bit-identical to one
/// over the materialized columns.
pub(crate) struct Lhs<'a, O> {
    /// Invariant: every `base(r) + offs.at(kk)`, `r < rows`, `kk < k`,
    /// indexes into `data` (checked by [`Lhs::new`]).
    data: &'a [f32],
    rows: usize,
    k: usize,
    map: RowMap,
    offs: O,
}

impl<'a> Lhs<'a, Contiguous> {
    /// A dense row-major `[m, k]` matrix.
    pub(crate) fn dense(a: &'a Tensor) -> Self {
        assert_eq!(a.ndim(), 2, "matmul_nt lhs must be 2-D");
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let map = RowMap { oh: 1, ow: 1, img: k, dy: 0, dx: 0 };
        Lhs::new(a.data(), m, k, map, Contiguous, k.saturating_sub(1))
    }
}

impl<'a> Lhs<'a, Strided> {
    /// The transpose of a dense row-major `[k, n]` matrix, read in
    /// place: row `r` is column `r`, and its step `kk` sits `kk·n` on.
    pub(crate) fn columns(b: &'a Tensor) -> Self {
        let (k, n) = (b.shape()[0], b.shape()[1]);
        let map = RowMap { oh: 1, ow: 1, img: 1, dy: 0, dx: 0 };
        Lhs::new(b.data(), n, k, map, Strided(n), k.saturating_sub(1) * n)
    }
}

impl<'a, O: Offsets> Lhs<'a, O> {
    /// Checks the addressing invariant: `max_off` is the largest of the
    /// `k` offsets, and the largest row base is the last image's last
    /// window, each coordinate at its maximum.
    fn new(data: &'a [f32], rows: usize, k: usize, map: RowMap, offs: O, max_off: usize) -> Self {
        let plane = map.oh * map.ow;
        assert!(plane > 0 && rows.is_multiple_of(plane), "lhs rows are not whole images");
        if rows > 0 && k > 0 {
            // In u128: the unsafe reads rely on this check, so it must not wrap.
            let w = |v: usize| v as u128;
            let last = w(rows / plane - 1) * w(map.img)
                + w(map.oh - 1) * w(map.dy)
                + w(map.ow - 1) * w(map.dx);
            assert!(last + w(max_off) < w(data.len()), "lhs addressing runs past its data");
        }
        Lhs { data, rows, k, map, offs }
    }

    /// Rows (`m`) of the operand.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Reduction length (`k`) of the operand.
    pub(crate) fn depth(&self) -> usize {
        self.k
    }

    /// The buffer the rows are read from.
    pub(crate) fn data(&self) -> &'a [f32] {
        self.data
    }

    /// The column offsets, valid below [`Lhs::depth`].
    pub(crate) fn offsets(&self) -> O {
        self.offs
    }

    /// Row bases from row `r0` on.
    pub(crate) fn cursor(&self, r0: usize) -> RowCursor {
        self.map.cursor(r0)
    }
}

/// The scalar NT kernel: `chunk = lhs[r0..r0+rows] × bᵀ` with `b`
/// `[n, k]` row-major, in 4×4 register tiles. The semantics every
/// vector body reproduces: each output element is one accumulator
/// walking `k` ascending, `acc += a * b`.
fn nt_chunk_scalar<O: Offsets>(
    lhs: &Lhs<'_, O>,
    bd: &[f32],
    chunk: &mut [f32],
    r0: usize,
    n: usize,
) {
    let (k, d, offs) = (lhs.k, lhs.data, lhs.offs);
    let rows = chunk.len() / n;
    assert!(r0 + rows <= lhs.rows && bd.len() >= n * k, "operands shorter than the chunk");
    // SAFETY (every `get_unchecked` below): `r0 + rows <= lhs.rows`
    // (asserted above) and `kk < k`, so each index is one the `Lhs`
    // invariant covers. Unchecked because a bounds check per read made
    // this kernel 1.7–2× slower (1024×192×64: 2.0 → 3.5 ms).
    let at = |base: usize, kk: usize| unsafe { *d.get_unchecked(base + offs.at(kk)) };
    let mut cursor = lhs.cursor(r0);
    let mut i = 0;
    while i < rows {
        let ih = (rows - i).min(TILE);
        let mut bases = [0usize; TILE];
        for base in &mut bases[..ih] {
            *base = cursor.next_base();
        }
        let mut j = 0;
        while j < n {
            let jw = (n - j).min(TILE);
            if ih == TILE && jw == TILE {
                let b0 = &bd[j * k..(j + 1) * k];
                let b1 = &bd[(j + 1) * k..(j + 2) * k];
                let b2 = &bd[(j + 2) * k..(j + 3) * k];
                let b3 = &bd[(j + 3) * k..(j + 4) * k];
                let mut acc = [[0.0f32; TILE]; TILE];
                for kk in 0..k {
                    let av = bases.map(|base| at(base, kk));
                    let bv = [b0[kk], b1[kk], b2[kk], b3[kk]];
                    for (accr, &ar) in acc.iter_mut().zip(av.iter()) {
                        for (accv, &bc) in accr.iter_mut().zip(bv.iter()) {
                            *accv += ar * bc;
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    chunk[(i + r) * n + j..(i + r) * n + j + TILE].copy_from_slice(accr);
                }
            } else {
                for (r, &base) in bases[..ih].iter().enumerate() {
                    for c in 0..jw {
                        let b_row = &bd[(j + c) * k..(j + c + 1) * k];
                        let mut acc = 0.0f32;
                        for (kk, bv) in b_row.iter().enumerate() {
                            acc += at(base, kk) * bv;
                        }
                        chunk[(i + r) * n + j + c] = acc;
                    }
                }
            }
            j += jw;
        }
        i += ih;
    }
}

/// The active vector level, or `None` when the scalar kernels run.
#[cfg(target_arch = "x86_64")]
fn vector_level() -> Option<SimdLevel> {
    Some(simd::simd_level()).filter(|&level| level != SimdLevel::Scalar)
}

/// `lhs × Bᵀ` on the vector kernel at `level`, `B` `[n, k]` given by its
/// packing `b`: the one vector product, under all three matmul variants.
#[cfg(target_arch = "x86_64")]
fn packed_product<O: Offsets>(level: SimdLevel, lhs: &Lhs<'_, O>, b: &PackedPanels) -> Vec<f32> {
    let (m, k, n) = (lhs.rows, lhs.k, b.cols());
    let mut out = scratch::take_dirty(m * n);
    if n == 0 {
        return out; // no columns, and no row length to split chunks by
    }
    run_row_blocks(&mut out, n, m, 2 * m * k * n, &|_, r0, chunk| {
        // SAFETY: a level above scalar is only ever set when the CPU
        // supports it; `lhs` was built by `Lhs::new`.
        unsafe { simd::nt_packed_chunk(level, lhs, b, chunk, r0) };
    });
    out
}

thread_local! {
    /// The NN or TN product's packing on this thread, kept for its
    /// allocation.
    static PANELS: std::cell::Cell<PackedPanels> = std::cell::Cell::default();
}

/// `lhs × wᵀ` for `w` `[n, k]`: the one NT product every forward pass
/// runs — `Dense` over its input, the convolution over its padded
/// input — and the scalar half of a convolution's `dW`. On a vector
/// level it reads `packed`, `w`'s panel packing; otherwise, or without
/// one, the scalar kernel reads `w`.
fn nt_product<O: Offsets>(lhs: &Lhs<'_, O>, w: &Tensor, packed: Option<&PackedPanels>) -> Tensor {
    assert_eq!(w.ndim(), 2, "matmul_nt rhs must be 2-D");
    let (m, k, n) = (lhs.rows, lhs.k, w.shape()[0]);
    assert_eq!(w.shape()[1], k, "matmul_nt inner dimension mismatch: {k} vs {}", w.shape()[1]);
    #[cfg(target_arch = "x86_64")]
    if let (Some(panels), Some(level)) = (packed, vector_level()) {
        assert_eq!((panels.cols(), panels.depth()), (n, k), "packing is not of this rhs");
        return Tensor::from_vec(packed_product(level, lhs, panels), &[m, n]);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = packed;
    let mut out = scratch::take_dirty(m * n);
    let (wd, flops) = (w.data(), 2 * m * k * n);
    run_row_blocks(&mut out, n, m, flops, &|_, r0, chunk| nt_chunk_scalar(lhs, wd, chunk, r0, n));
    Tensor::from_vec(out, &[m, n])
}

/// Matrix multiply with the right-hand side transposed:
/// `a [m, k] × bᵀ where b is [n, k] → [m, n]`.
///
/// Avoids materializing the transpose. On a vector level `b` is packed
/// into column panels (pure data movement) and handed to the same
/// kernel the layers reach through their cached `WeightPanels` — which
/// is how a `b` that outlives the call avoids paying for the packing,
/// and its buffer, on every product.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let lhs = Lhs::dense(a);
    // `nt_product` checks `b`'s shape against the packing it is given.
    let packed =
        (simd::simd_enabled() && b.ndim() == 2).then(|| pack_weight(b, PackedPanels::default()));
    nt_product(&lhs, b, packed.as_ref())
}

/// The panel-major packing of one layer's `[n, k]` weight: derived
/// state, never persisted or counted as parameters. Built on first use —
/// from `&self`, so a frozen layer shared across threads packs exactly
/// once — and dropped by [`WeightPanels::invalidate`], which the owning
/// layer must call wherever it hands out `&mut` access to the weight.
#[derive(Default)]
pub(crate) struct WeightPanels {
    /// Set ⇒ packed from the weight's current values.
    live: OnceLock<PackedPanels>,
    /// The last invalidated packing; [`WeightPanels::refresh`] re-packs
    /// into its allocation so a training step allocates nothing.
    spare: PackedPanels,
}

/// Packs the `[n, k]` matrix `w` into `into`'s allocation.
fn pack_weight(w: &Tensor, mut into: PackedPanels) -> PackedPanels {
    into.repack(w.data(), w.shape()[0], w.shape()[1]);
    into
}

impl WeightPanels {
    /// Marks the packing stale (the weight is about to change).
    pub(crate) fn invalidate(&mut self) {
        if let Some(stale) = self.live.take() {
            self.spare = stale;
        }
    }

    /// Re-packs a stale packing into the retained buffer. Optional —
    /// [`WeightPanels::nt`] packs on demand — but the `&mut self`
    /// training path calls it to stay allocation-free at steady state.
    pub(crate) fn refresh(&mut self, w: &Tensor) {
        if simd::simd_enabled() && self.live.get().is_none() {
            let _ = self.live.set(pack_weight(w, std::mem::take(&mut self.spare)));
        }
    }

    /// `lhs × wᵀ`, bit-identical to [`matmul_nt`] over `lhs`'s values.
    /// `w` must be the weight this cache belongs to.
    pub(crate) fn nt<O: Offsets>(&self, lhs: &Lhs<'_, O>, w: &Tensor) -> Tensor {
        let packed = simd::simd_enabled()
            .then(|| self.live.get_or_init(|| pack_weight(w, PackedPanels::default())));
        nt_product(lhs, w, packed)
    }
}

/// Column-strided kernel for `out[r0..][..] = aᵀ[r0..] × b` where
/// `a` is `[k, m]` and `b` is `[k, n]`, both row-major.
fn matmul_tn_chunk_scalar(
    ad: &[f32],
    bd: &[f32],
    chunk: &mut [f32],
    r0: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    // k-outer rank-1 updates: a and b are walked row-by-row (their
    // contiguous axis), the small output block stays cache-resident, and
    // each output cell still accumulates its k terms in ascending order
    // with a single accumulator — bit-identical to a per-element walk.
    let rows = chunk.len() / n;
    chunk.fill(0.0);
    for kk in 0..k {
        let av = &ad[kk * m + r0..kk * m + r0 + rows];
        let bv = &bd[kk * n..kk * n + n];
        for (row, &ar) in chunk.chunks_exact_mut(n).zip(av.iter()) {
            for (o, &bc) in row.iter_mut().zip(bv.iter()) {
                *o += ar * bc;
            }
        }
    }
}

/// Matrix multiply with the left-hand side transposed:
/// `aᵀ where a is [k, m] × b [k, n] → [m, n]`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul_tn lhs must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul_tn rhs must be 2-D");
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul_tn inner dimension mismatch: {k} vs {k2}");
    #[cfg(target_arch = "x86_64")]
    if let Some(out) = packed_tn(a, &Lhs::columns(b)) {
        return out;
    }
    let mut out = scratch::take_dirty(m * n);
    let (ad, bd) = (a.data(), b.data());
    run_row_blocks(&mut out, n, m, 2 * m * k * n, &|_, r0, chunk| {
        matmul_tn_chunk_scalar(ad, bd, chunk, r0, k, m, n);
    });
    Tensor::from_vec(out, &[m, n])
}

/// `aᵀ × bt_lhsᵀ` for `a` `[k, m]` and `bt_lhs` an `[n, k]` left operand
/// (`bᵀ`, read in place), `[m, n]`, on the vector kernel: `(bᵀ × a)ᵀ`,
/// with `a` packed and the product transposed on its way out. Each
/// element is still one accumulator over ascending `k`, of `b·a` where
/// the scalar TN kernel has `a·b` — the same bits, multiplication being
/// commutative. `None` at the scalar level.
#[cfg(target_arch = "x86_64")]
fn packed_tn<O: Offsets>(a: &Tensor, bt_lhs: &Lhs<'_, O>) -> Option<Tensor> {
    let level = vector_level()?;
    let (k, m, n) = (a.shape()[0], a.shape()[1], bt_lhs.rows);
    let mut out = scratch::take_dirty(m * n);
    let mut panels = PANELS.take();
    panels.repack_kn(a.data(), k, m);
    let swapped = packed_product(level, bt_lhs, &panels);
    PANELS.set(panels);
    transpose_sweep(&swapped, n, m, &mut out, SweepOp::Copy);
    scratch::recycle(swapped);
    Some(Tensor::from_vec(out, &[m, n]))
}

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel size (square).
    pub kernel: usize,
    /// Stride (same in both axes).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvGeom {
    /// Output height for this geometry.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn out_h(&self) -> usize {
        let padded = self.in_h + 2 * self.pad;
        assert!(padded >= self.kernel, "kernel larger than padded input height");
        (padded - self.kernel) / self.stride + 1
    }

    /// Output width for this geometry.
    pub fn out_w(&self) -> usize {
        let padded = self.in_w + 2 * self.pad;
        assert!(padded >= self.kernel, "kernel larger than padded input width");
        (padded - self.kernel) / self.stride + 1
    }

    /// Height and width of the input with its zero border.
    fn padded_dims(&self) -> (usize, usize) {
        (self.in_h + 2 * self.pad, self.in_w + 2 * self.pad)
    }
}

thread_local! {
    /// The column-offset table of the last convolution product on this
    /// thread, kept for its allocation.
    static OFFSETS: std::cell::Cell<Vec<u32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// `input` `[B, C, H, W]` with a border of `g.pad` zeros on every side,
/// `[B, C, Hp, Wp]` (`Hp = H + 2·pad`, `Wp = W + 2·pad`), written into
/// `reuse`'s allocation or a scratch buffer. Every element is written,
/// so the buffer may hold anything; with `pad = 0` this is a copy.
pub(crate) fn pad_input(input: &Tensor, g: &ConvGeom, reuse: Option<Vec<f32>>) -> Tensor {
    assert_eq!(input.ndim(), 4, "conv expects [B, C, H, W]");
    let b = input.shape()[0];
    assert_eq!(input.shape()[1..], [g.in_c, g.in_h, g.in_w], "conv input shape mismatch");
    let (h, w, pad) = (g.in_h, g.in_w, g.pad);
    let (hp, wp) = g.padded_dims();
    let len = b * g.in_c * hp * wp;
    let mut buf = reuse.unwrap_or_else(|| scratch::take_dirty(len));
    buf.resize(len, 0.0);
    for (src, dst) in input.data().chunks_exact(h * w).zip(buf.chunks_exact_mut(hp * wp)) {
        let (top, rest) = dst.split_at_mut(pad * wp);
        let (body, bottom) = rest.split_at_mut(h * wp);
        top.fill(0.0);
        bottom.fill(0.0);
        for (row, dst_row) in src.chunks_exact(w).zip(body.chunks_exact_mut(wp)) {
            dst_row[..pad].fill(0.0);
            dst_row[pad..pad + w].copy_from_slice(row);
            dst_row[pad + w..].fill(0.0);
        }
    }
    Tensor::from_vec(buf, &[b, g.in_c, hp, wp])
}

/// Runs `f` on a convolution's column matrix (`transposed = false`) or
/// its transpose (`true`), read in place from `padded`, the input with
/// its zero border, `[B, C, Hp, Wp]`. The two index sets are the output
/// positions `(b, oy, ox)`, whose windows' top left corners sit at
/// `b·C·Hp·Wp + oy·s·Wp + ox·s`, and the kernel taps `(c, ky, kx)`, at
/// `c·Hp·Wp + ky·Wp + kx` from a corner: one set is the rows' map, the
/// other goes into the `OFFSETS` table as the column offsets. A
/// position's base plus a tap's is where element `(position, tap)` of
/// the `im2col` matrix lives — its value, padding included as `+0.0`.
fn with_conv_lhs<R>(
    padded: &Tensor,
    g: &ConvGeom,
    transposed: bool,
    f: impl FnOnce(&Lhs<'_, &[u32]>) -> R,
) -> R {
    let (hp, wp) = g.padded_dims();
    assert_eq!(padded.shape()[1..], [g.in_c, hp, wp], "padded conv input shape mismatch");
    let (oh, ow, s) = (g.out_h(), g.out_w(), g.stride);
    let positions =
        (padded.shape()[0] * oh * ow, RowMap { oh, ow, img: g.in_c * hp * wp, dy: s * wp, dx: s });
    let taps = (
        g.in_c * g.kernel * g.kernel,
        RowMap { oh: g.kernel, ow: g.kernel, img: hp * wp, dy: wp, dx: 1 },
    );
    let ((rows, row_map), (k, col_map)) =
        if transposed { (taps, positions) } else { (positions, taps) };
    let mut offs = OFFSETS.take();
    offs.clear();
    let mut cols = col_map.cursor(0);
    offs.extend((0..k).map(|_| {
        u32::try_from(cols.next_base()).expect("conv input too large for 32-bit offsets")
    }));
    let max_off = offs.iter().max().map_or(0, |&o| o as usize);
    let out = f(&Lhs::new(padded.data(), rows, k, row_map, offs.as_slice(), max_off));
    OFFSETS.set(offs);
    out
}

/// A convolution's product with its flattened `[out_c, C·k·k]` weight,
/// `[B·OH·OW, out_c]` — the `im2col` matmul without the `im2col`
/// matrix: the NT kernel reads `padded` ([`pad_input`]'s layout) in
/// place, so the product is bit-identical to `matmul_nt` over the
/// materialized columns. The training forward pass keeps `padded` for
/// [`conv2d_weight_grad`].
pub(crate) fn conv2d_padded(
    padded: &Tensor,
    g: &ConvGeom,
    w: &Tensor,
    panels: &WeightPanels,
) -> Tensor {
    with_conv_lhs(padded, g, false, |cols| panels.nt(cols, w))
}

/// [`conv2d_padded`] for an unpadded input `[B, C, H, W]`, as inference
/// runs it: the input is copied once into a zero-padded buffer, or read
/// in place when there is no padding.
pub(crate) fn conv2d_implicit(
    input: &Tensor,
    g: &ConvGeom,
    w: &Tensor,
    panels: &WeightPanels,
) -> Tensor {
    if g.pad == 0 {
        return conv2d_padded(input, g, w, panels);
    }
    conv2d_padded(&pad_input(input, g, None), g, w, panels)
}

/// A convolution's weight gradient `Gᵀ × cols`, `[out_c, C·k·k]`, for
/// the output gradient `grad` (`[B·OH·OW, out_c]`, a row per position)
/// and the forward pass's `padded` input. The column matrix is read in
/// place as `colsᵀ`, a row per kernel tap, and the product runs as
/// `(colsᵀ × G)ᵀ`: on a vector level through `matmul_tn`'s own path;
/// on the scalar one as the NT product over `Gᵀ`, then transposed. Each
/// element is one accumulator starting at `0.0` and walking the
/// positions in ascending order, so either way the bits are those of
/// `matmul_tn(grad, cols)` over the materialized columns.
pub(crate) fn conv2d_weight_grad(padded: &Tensor, g: &ConvGeom, grad: &Tensor) -> Tensor {
    with_conv_lhs(padded, g, true, |cols_t| {
        assert_eq!(grad.ndim(), 2, "conv output gradient must be 2-D");
        assert_eq!(grad.shape()[0], cols_t.depth(), "conv output gradient rows mismatch");
        #[cfg(target_arch = "x86_64")]
        if let Some(dw) = packed_tn(grad, cols_t) {
            return dw;
        }
        nt_product(cols_t, &grad.transpose(), None).transpose()
    })
}

/// Output columns of one output row whose 3-wide window needs no
/// padding: those with `0 <= ox * stride - pad` and
/// `ox * stride - pad + 3 <= in_w`. Empty for any other kernel size.
fn interior_columns_k3(g: &ConvGeom) -> std::ops::Range<usize> {
    if g.kernel == 3 && g.in_w >= 3 {
        g.pad.div_ceil(g.stride)..((g.in_w + g.pad - 3) / g.stride + 1).min(g.out_w())
    } else {
        0..0
    }
}

/// Folds a column-matrix gradient back into an image gradient — the
/// adjoint of the `im2col` unfolding the convolution products read in
/// place. Overlapping patches accumulate.
///
/// Parallelized over batch images: each image's overlapping-patch
/// accumulation is done by exactly one block, in patch-row order, so the
/// result is independent of the thread count.
///
/// 3×3 kernels at interior positions add their nine values per channel
/// at fixed offsets, the interior test hoisted to one range check per
/// output row; borders and other kernel sizes go
/// through [`col2im_patch`]. A pixel receives at most one term per patch,
/// and patches are visited in the same order on both paths, so each
/// pixel's accumulation order — and every bit — is the same.
pub fn col2im(cols: &Tensor, g: &ConvGeom, batch: usize) -> Tensor {
    let (oh, ow) = (g.out_h(), g.out_w());
    let patch = g.in_c * g.kernel * g.kernel;
    assert_eq!(cols.shape(), &[batch * oh * ow, patch], "col2im shape mismatch");
    let img_stride = g.in_c * g.in_h * g.in_w;
    let mut out = scratch::take_dirty(batch * img_stride);
    let data = cols.data();
    let chan_stride = g.in_h * g.in_w;
    let interior_x = interior_columns_k3(g);
    run_row_blocks(&mut out, img_stride, batch, cols.numel(), &|_, b0, chunk| {
        for (local, img) in chunk.chunks_exact_mut(img_stride).enumerate() {
            img.fill(0.0);
            let first = (b0 + local) * oh * ow;
            let mut srcs = data[first * patch..(first + oh * ow) * patch].chunks_exact(patch);
            for oy in 0..oh {
                let y0 = oy * g.stride;
                let interior_y = y0 >= g.pad && y0 - g.pad + 3 <= g.in_h;
                for ox in 0..ow {
                    let src = srcs.next().expect("one patch row per output position");
                    if interior_y && interior_x.contains(&ox) {
                        let top_left = (y0 - g.pad) * g.in_w + ox * g.stride - g.pad;
                        for (s, chan) in src.chunks_exact(9).zip(img.chunks_exact_mut(chan_stride))
                        {
                            let window = &mut chan[top_left..top_left + 2 * g.in_w + 3];
                            for (ky, s_row) in s.chunks_exact(3).enumerate() {
                                let d_row = &mut window[ky * g.in_w..ky * g.in_w + 3];
                                d_row[0] += s_row[0];
                                d_row[1] += s_row[1];
                                d_row[2] += s_row[2];
                            }
                        }
                    } else {
                        col2im_patch(src, g, oy, ox, img);
                    }
                }
            }
        }
    });
    Tensor::from_vec(out, &[batch, g.in_c, g.in_h, g.in_w])
}

/// Adds one patch row of the column matrix — output position `(oy, ox)`
/// — into its image, any kernel and any overlap with the zero padding.
fn col2im_patch(src: &[f32], g: &ConvGeom, oy: usize, ox: usize, img: &mut [f32]) {
    let chan_stride = g.in_h * g.in_w;
    let mut si = 0usize;
    for c in 0..g.in_c {
        for ky in 0..g.kernel {
            let iy = (oy * g.stride + ky) as isize - g.pad as isize;
            if iy < 0 || iy >= g.in_h as isize {
                si += g.kernel;
                continue;
            }
            let row_base = c * chan_stride + iy as usize * g.in_w;
            for kx in 0..g.kernel {
                let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                if ix >= 0 && ix < g.in_w as isize {
                    img[row_base + ix as usize] += src[si];
                }
                si += 1;
            }
        }
    }
}

/// What a [`transpose_sweep`] does to each value on its way across.
#[derive(Clone, Copy)]
pub(crate) enum SweepOp<'a> {
    /// Nothing: a pure transpose.
    Copy,
    /// A fused activation's gradient: the value where `mask` (the
    /// forward pass's `out > 0`, laid out like the source) is set,
    /// `slope` times it elsewhere — `+0.0` for ReLU's slope of zero,
    /// whatever the value's sign.
    ActGrad { mask: &'a [bool], slope: f32 },
    /// A convolution's output pass: add the source column's bias, then
    /// an eval-mode batch norm if one follows the convolution, then the
    /// fused activation (`None` = linear, `Some(0.0)` = ReLU, `Some(a)`
    /// = LeakyReLU).
    Output { bias: &'a [f32], norm: Option<Norm<'a>>, slope: Option<f32> },
}

/// An eval-mode `BatchNorm2d` as the output sweep applies it, one
/// entry per channel: `γ·((v − mean)·inv_std) + β`, the layer's own
/// arithmetic step for step (BN is never folded into the weights:
/// `w·γ/σ` rounds differently).
#[derive(Clone, Copy)]
pub(crate) struct Norm<'a> {
    pub(crate) mean: &'a [f32],
    pub(crate) inv_std: &'a [f32],
    pub(crate) gamma: &'a [f32],
    pub(crate) beta: &'a [f32],
}

impl Norm<'_> {
    /// The normalized, scaled and shifted value of `v` in channel `c`.
    #[inline(always)]
    pub(crate) fn apply(&self, v: f32, c: usize) -> f32 {
        self.gamma[c] * ((v - self.mean[c]) * self.inv_std[c]) + self.beta[c]
    }
}

/// Source rows per block of the scalar [`transpose_sweep`]: a block's
/// destination columns stay in L1 while each source row is scattered
/// down them.
const SWEEP_BLOCK: usize = 16;

/// `dst[c][r] = op(src[r][c])` for `src` `[rows, cols]` and `dst`
/// `[cols, rows]`, both row-major: the move between the layout the
/// matmuls work in (a row per output position, a column per channel)
/// and NCHW, with the elementwise work that used to be passes of its
/// own done on the way. `Conv2d` runs it per image in both directions —
/// forward (bias, batch norm, activation, positions → channels) and
/// backward (activation gradient, channels → positions) — and the TN
/// product transposes its result with it.
///
/// The AVX2 path works in 8×8 register tiles and the scalar path in
/// cache blocks; apart from `op`'s adds and multiplies per value, which
/// both perform identically, this is data movement, so the two agree to
/// the bit.
pub(crate) fn transpose_sweep(src: &[f32], rows: usize, cols: usize, dst: &mut [f32], op: SweepOp) {
    assert_eq!(src.len(), rows * cols, "transpose source size mismatch");
    assert_eq!(dst.len(), rows * cols, "transpose destination size mismatch");
    match op {
        SweepOp::Copy => {}
        SweepOp::ActGrad { mask, .. } => assert_eq!(mask.len(), src.len(), "mask size mismatch"),
        SweepOp::Output { bias, norm, .. } => {
            assert_eq!(bias.len(), cols, "bias size mismatch");
            if let Some(nm) = norm {
                for p in [nm.mean, nm.inv_std, nm.gamma, nm.beta] {
                    assert_eq!(p.len(), cols, "batch-norm size mismatch");
                }
            }
        }
    }
    #[cfg(target_arch = "x86_64")]
    if simd::simd_enabled() {
        // SAFETY: simd_enabled() is true only when AVX2 was detected;
        // the size relations the kernel relies on are asserted above.
        unsafe { simd::avx2::transpose_sweep(src, rows, cols, dst, op) };
        return;
    }
    match op {
        SweepOp::Copy => transpose_sweep_scalar(src, rows, cols, dst, |v, _, _| v),
        // Selected by table, not by branch: the mask is as unpredictable
        // as the activations' signs. `1.0 * v` is `v` to the bit.
        SweepOp::ActGrad { mask, slope } if slope > 0.0 => {
            transpose_sweep_scalar(src, rows, cols, dst, |v, i, _| {
                [slope, 1.0][usize::from(mask[i])] * v
            });
        }
        SweepOp::ActGrad { mask, .. } => {
            transpose_sweep_scalar(src, rows, cols, dst, |v, i, _| [0.0, v][usize::from(mask[i])]);
        }
        SweepOp::Output { bias, norm, slope } => match slope {
            None => sweep_output(src, rows, cols, dst, bias, norm, |s| s),
            Some(a) if a > 0.0 => {
                sweep_output(src, rows, cols, dst, bias, norm, |s| if s > 0.0 { s } else { a * s });
            }
            // ReLU as max keeps +0.0 for negative inputs, exactly like the
            // standalone Relu layer (slope * v would yield -0.0).
            Some(_) => sweep_output(src, rows, cols, dst, bias, norm, |s| s.max(0.0)),
        },
    }
}

/// The scalar output sweep: bias, the optional batch norm, then `act`
/// — each the arithmetic of the layer it stands in for.
fn sweep_output(
    src: &[f32],
    rows: usize,
    cols: usize,
    dst: &mut [f32],
    bias: &[f32],
    norm: Option<Norm>,
    act: impl Fn(f32) -> f32,
) {
    match norm {
        None => transpose_sweep_scalar(src, rows, cols, dst, |v, _, c| act(v + bias[c])),
        Some(nm) => {
            transpose_sweep_scalar(src, rows, cols, dst, |v, _, c| act(nm.apply(v + bias[c], c)));
        }
    }
}

/// `dst[c][r] = f(src[r][c], r * cols + c, c)`.
fn transpose_sweep_scalar(
    src: &[f32],
    rows: usize,
    cols: usize,
    dst: &mut [f32],
    f: impl Fn(f32, usize, usize) -> f32,
) {
    for r0 in (0..rows).step_by(SWEEP_BLOCK) {
        let r1 = rows.min(r0 + SWEEP_BLOCK);
        for (c, dst_row) in dst.chunks_exact_mut(rows).enumerate() {
            for (r, d) in dst_row[r0..r1].iter_mut().enumerate() {
                let i = (r0 + r) * cols + c;
                *d = f(src[i], i, c);
            }
        }
    }
}

/// Numerically stable softmax over the last axis of a 2-D tensor.
///
/// Fused per row: one max scan, then a single pass that exponentiates
/// into the output row while accumulating the normalizer, then an
/// in-place scale. Rows are independent, so the op parallelizes over
/// row blocks without affecting the result.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    assert_eq!(x.ndim(), 2, "softmax_rows expects a 2-D tensor");
    let (r, c) = (x.shape()[0], x.shape()[1]);
    let mut out = scratch::take_zeroed(r * c);
    let data = x.data();
    run_row_blocks(&mut out, c, r, r * c * 8, &|_, r0, chunk| {
        for (local, dst) in chunk.chunks_exact_mut(c).enumerate() {
            let row = &data[(r0 + local) * c..(r0 + local + 1) * c];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for (o, &v) in dst.iter_mut().zip(row.iter()) {
                let e = (v - m).exp();
                *o = e;
                sum += e;
            }
            for o in dst.iter_mut() {
                *o /= sum;
            }
        }
    });
    Tensor::from_vec(out, &[r, c])
}

/// Stable elementwise sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], &[3, 3]);
        assert_eq!(matmul(&a, &eye).data(), a.data());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let b = Tensor::from_vec((0..12).map(|x| x as f32 * 0.5).collect(), &[4, 3]);
        let expect = matmul(&a, &b.transpose());
        let got = matmul_nt(&a, &b);
        assert_eq!(got.shape(), expect.shape());
        for (x, y) in got.data().iter().zip(expect.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[3, 2]);
        let b = Tensor::from_vec((0..12).map(|x| x as f32 * 0.5).collect(), &[3, 4]);
        let expect = matmul(&a.transpose(), &b);
        let got = matmul_tn(&a, &b);
        assert_eq!(got.shape(), expect.shape());
        for (x, y) in got.data().iter().zip(expect.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_edge_tiles_match_reference() {
        // 7x5x6 exercises both the full 4x4 tile path and all edge paths.
        let (m, k, n) = (7, 5, 6);
        let a = Tensor::from_vec((0..m * k).map(|x| (x as f32).sin()).collect(), &[m, k]);
        let b = Tensor::from_vec((0..k * n).map(|x| (x as f32).cos()).collect(), &[k, n]);
        let got = matmul(&a, &b);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.get(&[i, kk]) * b.get(&[kk, j]);
                }
                assert!((got.get(&[i, j]) - acc).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn conv_geom_output_sizes() {
        let g = ConvGeom { in_c: 3, in_h: 8, in_w: 8, kernel: 3, stride: 2, pad: 1 };
        assert_eq!(g.out_h(), 4);
        assert_eq!(g.out_w(), 4);
        let g2 = ConvGeom { in_c: 1, in_h: 5, in_w: 5, kernel: 3, stride: 1, pad: 0 };
        assert_eq!(g2.out_h(), 3);
    }

    /// The `im2col` matrix as the convolution products read it: every
    /// element of the implicit left operand over the padded input, the
    /// column matrix itself or, `transposed`, its transpose.
    fn implicit_columns(x: &Tensor, g: &ConvGeom, transposed: bool) -> Tensor {
        with_conv_lhs(&pad_input(x, g, None), g, transposed, |lhs| {
            let (rows, k) = (lhs.rows(), lhs.depth());
            let mut cursor = lhs.cursor(0);
            let mut out = Vec::with_capacity(rows * k);
            for _ in 0..rows {
                let base = cursor.next_base();
                out.extend(lhs.offsets().iter().map(|&off| lhs.data()[base + off as usize]));
            }
            Tensor::from_vec(out, &[rows, k])
        })
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: the column matrix is just a reshape.
        let g = ConvGeom { in_c: 2, in_h: 2, in_w: 2, kernel: 1, stride: 1, pad: 0 };
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]);
        let cols = implicit_columns(&x, &g, false);
        assert_eq!(cols.shape(), &[4, 2]);
        // Row r = spatial position, columns = channels.
        assert_eq!(cols.get(&[0, 0]), 0.0);
        assert_eq!(cols.get(&[0, 1]), 4.0);
        assert_eq!(cols.get(&[3, 0]), 3.0);
        assert_eq!(cols.get(&[3, 1]), 7.0);
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let g = ConvGeom { in_c: 1, in_h: 2, in_w: 2, kernel: 3, stride: 1, pad: 1 };
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let cols = implicit_columns(&x, &g, false);
        assert_eq!(cols.shape(), &[4, 9]);
        // Top-left output position: its 3x3 patch has 4 real pixels, 5 padded.
        let first: f32 = cols.row(0).sum();
        assert_eq!(first, 4.0);
    }

    #[test]
    fn transposed_addressing_reads_the_transposed_columns() {
        let g = ConvGeom { in_c: 3, in_h: 5, in_w: 4, kernel: 3, stride: 2, pad: 1 };
        let x = Tensor::from_vec((0..2 * 3 * 5 * 4).map(|v| v as f32).collect(), &[2, 3, 5, 4]);
        let cols = implicit_columns(&x, &g, false);
        assert_eq!(implicit_columns(&x, &g, true).data(), cols.transpose().data());
    }

    #[test]
    fn pad_input_overwrites_a_dirty_buffer() {
        let g = ConvGeom { in_c: 1, in_h: 3, in_w: 3, kernel: 3, stride: 1, pad: 1 };
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let fresh = pad_input(&x, &g, Some(Vec::new()));
        assert_eq!(fresh.shape(), &[1, 1, 5, 5]);
        assert_eq!(fresh.sum(), 9.0);
        let dirty = pad_input(&x, &g, Some(vec![9.9f32; 40]));
        assert_eq!(dirty.data(), fresh.data());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <cols(x), y> == <x, col2im(y)> for random-ish x, y.
        let g = ConvGeom { in_c: 2, in_h: 5, in_w: 4, kernel: 3, stride: 2, pad: 1 };
        let n_in = 2 * 5 * 4;
        let x = Tensor::from_vec(
            (0..n_in).map(|i| ((i * 37 % 11) as f32 - 5.0) * 0.3).collect(),
            &[1, 2, 5, 4],
        );
        let cols = implicit_columns(&x, &g, false);
        let y = Tensor::from_vec(
            (0..cols.numel()).map(|i| ((i * 17 % 7) as f32 - 3.0) * 0.2).collect(),
            cols.shape(),
        );
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let folded = col2im(&y, &g, 1);
        let rhs: f32 = x.data().iter().zip(folded.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], &[2, 3]);
        let s = softmax_rows(&x);
        for i in 0..2 {
            let sum: f32 = s.row(i).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert!(!s.has_non_finite());
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(-1e30).is_finite());
    }
}
