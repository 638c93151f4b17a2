//! Runtime-dispatched SIMD micro-kernels for the matmul family.
//!
//! The scalar kernels in [`crate::ops`] define the semantics: every
//! output element is produced by a single accumulator walking the
//! reduction axis `k` in ascending order. The vector kernels here keep
//! that contract exactly — each `f32` lane is one independent output
//! element's accumulator, and every step is a separate `mul` + `add`
//! pair (never an FMA, whose single rounding would differ from scalar
//! mul-then-add) — so the SIMD and scalar paths are **bit-identical**,
//! and all of them stay bit-identical at any `ODIN_THREADS`
//! (`tests/par_determinism.rs` pins this).
//!
//! Three dispatch levels ([`SimdLevel`]): scalar; AVX2, 8 lanes, for
//! every kernel; and AVX-512, which adds a 16-lane body for the matrix
//! products and keeps AVX2 for the rest (the layout sweeps, the int8
//! kernels). There is one vector matrix kernel, [`nt_packed_chunk`]:
//! `lhs × Bᵀ`, with `B` packed in 16-wide panels (`PackedPanels`) — one
//! register at AVX-512, two side by side at AVX2, so one packing serves
//! both — and the left operand read in place through base/offset
//! addressing (`ops::Lhs`): a dense matrix, a matrix read down its
//! columns and a convolution's padded input alike. The NT, NN and TN
//! products all run on it, told apart only by how their operands are
//! packed and addressed (see `ops`); the three scalar kernels there are
//! the reference each is measured against.
//!
//! Things the kernels do that look like they might bend the contract,
//! and do not: a ragged last panel runs the ordinary register tile and
//! stores only its live lanes (`maskstore` at AVX2, an `__mmask16` at
//! AVX-512 — a lane not stored is discarded, a live lane computes what
//! it would in a full panel); the TN product runs as `(bᵀ × a)ᵀ`, so
//! each step multiplies `b·a` where the scalar kernel multiplies `a·b`
//! (IEEE multiplication commutes exactly, and the adds keep their
//! order); and the layout sweeps (`transpose_sweep`) are 8×8
//! in-register transposes around the scalar sweep's own adds and
//! multiplies per value.
//!
//! The level is decided once at runtime: the highest the CPU supports,
//! or scalar when `ODIN_NO_SIMD` is set. Tests and benches can pin a
//! level with [`set_simd_level`] (or [`set_simd_enabled`]) and undo it
//! with [`reset_simd`].

use std::sync::atomic::{AtomicU8, Ordering};

use crate::ops::{Lhs, Offsets};

/// Which kernel bodies run. Ordered: a level implies every lower one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// The scalar reference kernels.
    Scalar,
    /// 8-lane AVX2 kernels.
    Avx2,
    /// AVX2, plus the 16-lane AVX-512 body of the matrix products.
    Avx512,
}

impl SimdLevel {
    fn code(self) -> u8 {
        self as u8 + 1
    }

    fn from_code(code: u8) -> Self {
        match code {
            1 => SimdLevel::Scalar,
            2 => SimdLevel::Avx2,
            _ => SimdLevel::Avx512,
        }
    }
}

/// Not yet decided: the next [`simd_level`] call detects.
const UNKNOWN: u8 = 0;

static STATE: AtomicU8 = AtomicU8::new(UNKNOWN);

/// The highest level the running CPU can execute.
fn cpu_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if !std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Scalar
        } else if std::arch::is_x86_feature_detected!("avx512f") {
            SimdLevel::Avx512
        } else {
            SimdLevel::Avx2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
    }
}

fn detect() -> SimdLevel {
    let disabled = std::env::var("ODIN_NO_SIMD").map(|v| v != "0" && !v.is_empty());
    if disabled.unwrap_or(false) {
        SimdLevel::Scalar
    } else {
        cpu_level()
    }
}

/// The active dispatch level. Decided once from CPU feature detection
/// and the `ODIN_NO_SIMD` environment variable, then cached;
/// [`set_simd_level`] / [`set_simd_enabled`] override the cached
/// decision.
pub fn simd_level() -> SimdLevel {
    match STATE.load(Ordering::Relaxed) {
        UNKNOWN => {
            let level = detect();
            STATE.store(level.code(), Ordering::Relaxed);
            level
        }
        code => SimdLevel::from_code(code),
    }
}

/// Whether the vectorized kernels are active (any level above scalar).
pub fn simd_enabled() -> bool {
    simd_level() != SimdLevel::Scalar
}

/// Forces a dispatch level (test/bench hook), capped at what the CPU
/// supports; returns the level that is now active.
pub fn set_simd_level(level: SimdLevel) -> SimdLevel {
    let level = level.min(cpu_level());
    STATE.store(level.code(), Ordering::Relaxed);
    level
}

/// Forces the SIMD path on (the highest level the CPU supports) or off
/// (test/bench hook).
pub fn set_simd_enabled(on: bool) {
    set_simd_level(if on { SimdLevel::Avx512 } else { SimdLevel::Scalar });
}

/// Clears any [`set_simd_level`] override; the next [`simd_level`]
/// call re-derives the default from the CPU and `ODIN_NO_SIMD`.
pub fn reset_simd() {
    STATE.store(UNKNOWN, Ordering::Relaxed);
}

/// Every level this CPU can run, lowest first — what an identity test
/// iterates over.
pub fn available_levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512]
        .into_iter()
        .filter(|&l| l <= cpu_level())
        .collect()
}

/// Output columns per packed panel: the `f32` lanes of one AVX-512
/// register, or two AVX2 registers side by side.
pub(crate) const PANEL: usize = 16;

/// The right-hand side `B` of the vector product `lhs × Bᵀ` — `[n, k]`,
/// one `k`-long row per output column, whether it came as an NT
/// product's `[n, k]` or an NN product's `[k, n]` — re-laid out
/// panel-major for the vector kernel: `[n.div_ceil(PANEL)][k][PANEL]`,
/// so step `kk` of panel `p` is one contiguous 16-lane load holding
/// `B[p * 16 + lane][kk]`. The last panel of a ragged `n` is
/// zero-padded; its pad lanes are computed and never stored. Packing is
/// pure data movement, so it cannot change a bit of any product.
#[derive(Default)]
pub(crate) struct PackedPanels {
    /// Invariant: `data.len() == n.div_ceil(PANEL) * k * PANEL`.
    data: Vec<f32>,
    start: usize,
    n: usize,
    k: usize,
}

// Only the vector paths consume a packing.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
impl PackedPanels {
    /// Elements a packing of an `[n, k]` matrix occupies.
    fn packed_len(n: usize, k: usize) -> usize {
        n.div_ceil(PANEL) * k * PANEL
    }

    /// Sizes the buffer for an `[n, k]` packing, all zeros, reusing the
    /// allocation; returns the packing's aligned data.
    fn reset(&mut self, n: usize, k: usize) -> &mut [f32] {
        self.data.clear();
        self.data.resize(Self::packed_len(n, k) + PANEL, 0.0);
        self.start = self.data.as_ptr().align_offset(64).min(PANEL);
        (self.n, self.k) = (n, k);
        &mut self.data[self.start..]
    }

    /// Re-packs from `bd` (`[n, k]` row-major), reusing the allocation.
    pub(crate) fn repack(&mut self, bd: &[f32], n: usize, k: usize) {
        assert_eq!(bd.len(), n * k, "packed rhs size mismatch");
        let data = self.reset(n, k);
        if k == 0 {
            return;
        }
        for (j, col) in bd.chunks_exact(k).enumerate() {
            let base = (j / PANEL) * k * PANEL + j % PANEL;
            for (kk, &v) in col.iter().enumerate() {
                data[base + kk * PANEL] = v;
            }
        }
    }

    /// Re-packs from `bd` given as `[k, n]` row-major — an NN product's
    /// right-hand side, a TN product's left — reusing the allocation:
    /// step `kk` of panel `p` is one contiguous copy of up to 16 values
    /// of row `kk`.
    pub(crate) fn repack_kn(&mut self, bd: &[f32], k: usize, n: usize) {
        assert_eq!(bd.len(), k * n, "packed rhs size mismatch");
        let data = self.reset(n, k);
        if n == 0 {
            return;
        }
        for (kk, row) in bd.chunks_exact(n).enumerate() {
            for (p, lanes) in row.chunks(PANEL).enumerate() {
                let at = (p * k + kk) * PANEL;
                data[at..at + lanes.len()].copy_from_slice(lanes);
            }
        }
    }

    /// Output columns (`n`) of the packed matrix.
    pub(crate) fn cols(&self) -> usize {
        self.n
    }

    /// Reduction length (`k`) of the packed matrix.
    pub(crate) fn depth(&self) -> usize {
        self.k
    }
}

/// The NT product's vector body: `chunk = lhs[r0..r0+rows] × bᵀ` with
/// `b` packed. Panel by panel, register tiles of up to 8 rows (AVX-512)
/// or 4 rows (AVX2) walk down the chunk, each row read in place through
/// `lhs`'s base/offset addressing — a dense matrix and a zero-padded
/// image alike. Every lane of every accumulator is one output element
/// walking `k` ascending with a separate mul and add, so the result is
/// bit-identical to `ops::nt_chunk_scalar` at either vector level.
///
/// # Safety
///
/// Requires the CPU features of `level` (`Avx2` or `Avx512`), and `lhs`
/// must uphold its addressing invariant (`Lhs::new` asserts it).
#[cfg(target_arch = "x86_64")]
pub(crate) unsafe fn nt_packed_chunk<O: Offsets>(
    level: SimdLevel,
    lhs: &Lhs<'_, O>,
    b: &PackedPanels,
    chunk: &mut [f32],
    r0: usize,
) {
    let (k, n) = (b.k, b.n);
    let rows = chunk.len() / n;
    assert_eq!(chunk.len(), rows * n, "output chunk is not whole rows");
    assert!(r0 + rows <= lhs.rows(), "lhs shorter than the rows it is asked for");
    assert_eq!(lhs.depth(), k, "lhs and packed rhs disagree on k");
    assert!(b.data.len() >= b.start + PackedPanels::packed_len(n, k), "packed rhs invariant");
    let (base, offs) = (lhs.data().as_ptr(), lhs.offsets());
    for (p, j) in (0..n).step_by(PANEL).enumerate() {
        let cols = (n - j).min(PANEL);
        // SAFETY (pointer arithmetic below): panel `p` spans
        // `k * PANEL` elements from `b.start` inside `b.data` (asserted
        // length); every lhs element a tile reads is in bounds by
        // `Lhs`'s invariant; rows `i ..+ ih` of `chunk` exist and only
        // `cols` columns from `j` are stored, `j + cols <= n`.
        let panel = b.data.as_ptr().add(b.start + p * k * PANEL);
        let mut cursor = lhs.cursor(r0);
        let mut i = 0;
        // Tiles of the first (largest) height listed, then one ragged
        // tile; each tile's row pointers come from the cursor in order.
        macro_rules! walk {
            ($body:ident, $($r:literal)+) => {
                while i < rows {
                    let ih = (rows - i).min([$($r),+][0]);
                    let out = chunk.as_mut_ptr().add(i * n + j);
                    match ih {
                        $($r => {
                            let a: [*const f32; $r] =
                                std::array::from_fn(|_| base.add(cursor.next_base()));
                            $body::nt_tile::<$r, O>(a, offs, k, panel, out, n, cols)
                        })+
                        _ => unreachable!("tile heights cover 1..=max"),
                    }
                    i += ih;
                }
            };
        }
        match level {
            SimdLevel::Avx512 => walk!(avx512, 8 7 6 5 4 3 2 1),
            _ => walk!(avx2, 4 3 2 1),
        }
    }
}

/// The 16-lane body of the NT product.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::PANEL;
    use crate::ops::Offsets;
    use std::arch::x86_64::*;

    /// `R` output rows × `cols ≤ 16` output columns of an NT product:
    /// row `r` of the left operand is read at `a[r] + offs.at(kk)`, the
    /// packed panel at `panel + kk * 16`. Each lane of each accumulator
    /// is one output element, walking `k` ascending with a separate
    /// mul and add (never an FMA) — the scalar kernel's order and
    /// rounding. The panel's pad lanes are zero and computed; only the
    /// `cols` lanes `__mmask16` selects are stored.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; the `a` reads, `k` panel steps and `R` output
    /// rows (stride `out_stride`, `cols` lanes) must be in bounds.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn nt_tile<const R: usize, O: Offsets>(
        a: [*const f32; R],
        offs: O,
        k: usize,
        panel: *const f32,
        out: *mut f32,
        out_stride: usize,
        cols: usize,
    ) {
        let mut acc = [_mm512_setzero_ps(); R];
        for kk in 0..k {
            let bv = _mm512_loadu_ps(panel.add(kk * PANEL));
            let off = offs.at(kk);
            for (accr, &ar) in acc.iter_mut().zip(a.iter()) {
                let av = _mm512_set1_ps(*ar.add(off));
                *accr = _mm512_add_ps(*accr, _mm512_mul_ps(av, bv));
            }
        }
        let mask: __mmask16 = if cols >= PANEL { !0 } else { (1u16 << cols) - 1 };
        for (r, accr) in acc.iter().enumerate() {
            _mm512_mask_storeu_ps(out.add(r * out_stride), mask, *accr);
        }
    }
}

/// AVX2 kernel bodies. Callers must check [`simd_enabled`] first; every
/// function is `unsafe` because it requires AVX2 at runtime.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::PANEL;
    use crate::ops::{Offsets, SweepOp};
    use std::arch::x86_64::*;

    /// The `f32` lanes of one AVX2 register: half of a packed panel.
    const LANES: usize = 8;

    /// All-ones in the first `cols ≤ 8` lanes, zero in the rest.
    #[target_feature(enable = "avx2")]
    unsafe fn lane_mask(cols: usize) -> __m256i {
        const LANES: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
        debug_assert!(cols <= 8);
        _mm256_loadu_si256(LANES.as_ptr().add(8 - cols).cast())
    }

    /// `R` output rows × `cols ≤ 16` output columns of an NT product —
    /// one packed panel as two 8-lane halves, or only the first when
    /// `cols ≤ 8`: row `r` of the left operand is read at
    /// `a[r] + offs.at(kk)`, the panel at `panel + kk * 16`. Each lane of
    /// each accumulator is one output element walking `k` ascending with
    /// a separate mul and add — the scalar kernel's order and rounding.
    /// Pad lanes of the panel are zero and computed; only `cols` lanes
    /// are stored.
    ///
    /// # Safety
    ///
    /// Requires AVX2; the `a` reads, `k` panel steps and `R` output rows
    /// (stride `out_stride`, `cols` lanes) must be in bounds.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn nt_tile<const R: usize, O: Offsets>(
        a: [*const f32; R],
        offs: O,
        k: usize,
        panel: *const f32,
        out: *mut f32,
        out_stride: usize,
        cols: usize,
    ) {
        if cols > LANES {
            nt_halves::<R, 2, O>(a, offs, k, panel, out, out_stride, cols);
        } else {
            nt_halves::<R, 1, O>(a, offs, k, panel, out, out_stride, cols);
        }
    }

    /// [`nt_tile`] over the first `H` halves of the panel.
    ///
    /// # Safety
    ///
    /// As [`nt_tile`], with `cols <= H * 8`.
    #[target_feature(enable = "avx2")]
    unsafe fn nt_halves<const R: usize, const H: usize, O: Offsets>(
        a: [*const f32; R],
        offs: O,
        k: usize,
        panel: *const f32,
        out: *mut f32,
        out_stride: usize,
        cols: usize,
    ) {
        let mut acc = [[_mm256_setzero_ps(); H]; R];
        for kk in 0..k {
            let p = panel.add(kk * PANEL);
            let mut bv = [_mm256_setzero_ps(); H];
            for (h, v) in bv.iter_mut().enumerate() {
                *v = _mm256_loadu_ps(p.add(h * LANES));
            }
            let off = offs.at(kk);
            for (accr, &ar) in acc.iter_mut().zip(a.iter()) {
                let av = _mm256_set1_ps(*ar.add(off));
                for (acch, &bh) in accr.iter_mut().zip(bv.iter()) {
                    *acch = _mm256_add_ps(*acch, _mm256_mul_ps(av, bh));
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            for (h, acch) in accr.iter().enumerate() {
                let to = out.add(r * out_stride + h * LANES);
                let live = (cols - h * LANES).min(LANES);
                if live == LANES {
                    _mm256_storeu_ps(to, *acch);
                } else {
                    _mm256_maskstore_ps(to, lane_mask(live), *acch);
                }
            }
        }
    }

    /// Int8 dot product with an i32 accumulator: 16 lanes per step via
    /// sign-extend to i16 and `madd` (pairwise multiply-add to i32).
    /// Integer addition is exact and order-independent, so this is
    /// identical to the scalar reduction for any length.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `a` and `b` must be valid for `len` reads.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8(a: *const i8, b: *const i8, len: usize) -> i32 {
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 16 <= len {
            let av = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.add(i).cast()));
            let bv = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.add(i).cast()));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, bv));
            i += 16;
        }
        let lo = _mm256_castsi256_si128(acc);
        let hi = _mm256_extracti128_si256(acc, 1);
        let s = _mm_add_epi32(lo, hi);
        let s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 1));
        let mut sum = _mm_cvtsi128_si32(s);
        while i < len {
            sum += i32::from(*a.add(i)) * i32::from(*b.add(i));
            i += 1;
        }
        sum
    }

    /// Transposes an 8×8 block held as eight row registers.
    #[target_feature(enable = "avx2")]
    unsafe fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let u0 = _mm256_shuffle_ps(t0, t2, 0x44);
        let u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
        let u2 = _mm256_shuffle_ps(t1, t3, 0x44);
        let u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
        let u4 = _mm256_shuffle_ps(t4, t6, 0x44);
        let u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
        let u6 = _mm256_shuffle_ps(t5, t7, 0x44);
        let u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
        [
            _mm256_permute2f128_ps(u0, u4, 0x20),
            _mm256_permute2f128_ps(u1, u5, 0x20),
            _mm256_permute2f128_ps(u2, u6, 0x20),
            _mm256_permute2f128_ps(u3, u7, 0x20),
            _mm256_permute2f128_ps(u0, u4, 0x31),
            _mm256_permute2f128_ps(u1, u5, 0x31),
            _mm256_permute2f128_ps(u2, u6, 0x31),
            _mm256_permute2f128_ps(u3, u7, 0x31),
        ]
    }

    /// `ops::transpose_sweep` in 8×8 register tiles: eight source rows
    /// of eight values are loaded, passed through `op` lane-wise (the
    /// same one add or multiply per value as the scalar sweep, its
    /// branches turned into lane selects), transposed in registers and
    /// stored as eight destination rows. Ragged edges in either
    /// dimension run the same tile with the missing lanes masked off.
    /// Bit-identical to the scalar sweep: the batch norm of an `Output`
    /// op is the same sub, mul, mul, add per value, and ReLU, written
    /// there as `max(s, 0.0)` and here as "`s` where `s > 0`, else
    /// `+0.0`", differs only at `s = -0.0`, which a sum that started
    /// from `+0.0` plus a bias never is (a ReLU is never fused after a
    /// batch norm, whose `β` could be `-0.0`).
    ///
    /// # Safety
    ///
    /// Requires AVX2, `src.len() == dst.len() == rows * cols`, an
    /// `ActGrad` mask of that length and `Output` vectors of `cols`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn transpose_sweep(
        src: &[f32],
        rows: usize,
        cols: usize,
        dst: &mut [f32],
        op: SweepOp,
    ) {
        let zero = _mm256_setzero_ps();
        for c0 in (0..cols).step_by(8) {
            let nc = (cols - c0).min(8);
            let col_lanes = lane_mask(nc);
            // SAFETY: the per-channel vectors hold `cols` entries.
            let lanes_of = |v: &[f32]| _mm256_maskload_ps(v.as_ptr().add(c0), col_lanes);
            let (bias, norm) = match op {
                SweepOp::Output { bias, norm, .. } => (
                    lanes_of(bias),
                    norm.map(|nm| {
                        [
                            lanes_of(nm.mean),
                            lanes_of(nm.inv_std),
                            lanes_of(nm.gamma),
                            lanes_of(nm.beta),
                        ]
                    }),
                ),
                _ => (zero, None),
            };
            for r0 in (0..rows).step_by(8) {
                let nr = (rows - r0).min(8);
                let mut tile = [zero; 8];
                for (r, lanes) in tile.iter_mut().enumerate().take(nr) {
                    // SAFETY: `at ..+ nc` lies inside row `r0 + r` of
                    // `src` (and of the mask, the same length); lanes
                    // past `nc` are masked off / not copied.
                    let at = (r0 + r) * cols + c0;
                    let v = _mm256_maskload_ps(src.as_ptr().add(at), col_lanes);
                    *lanes = match op {
                        SweepOp::Copy => v,
                        SweepOp::ActGrad { mask, slope } => {
                            // The tile row's `nc` bools as the low
                            // bytes of a u64 (a `bool` is 0 or 1).
                            let from = mask.as_ptr().add(at).cast::<u8>();
                            let bools = if nc == 8 {
                                from.cast::<u64>().read_unaligned()
                            } else {
                                let mut bytes = [0u8; 8];
                                std::ptr::copy_nonoverlapping(from, bytes.as_mut_ptr(), nc);
                                u64::from_le_bytes(bytes)
                            };
                            let keep = _mm256_cmpgt_epi32(
                                _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(bools as i64)),
                                _mm256_setzero_si256(),
                            );
                            scaled_unless(v, _mm256_castsi256_ps(keep), slope)
                        }
                        SweepOp::Output { slope, .. } => {
                            let mut s = _mm256_add_ps(v, bias);
                            if let Some([mean, inv_std, gamma, beta]) = norm {
                                let x_hat = _mm256_mul_ps(_mm256_sub_ps(s, mean), inv_std);
                                s = _mm256_add_ps(_mm256_mul_ps(gamma, x_hat), beta);
                            }
                            match slope {
                                None => s,
                                Some(a) => scaled_unless(s, _mm256_cmp_ps(s, zero, _CMP_GT_OQ), a),
                            }
                        }
                    };
                }
                let tile = transpose8(tile);
                let row_lanes = lane_mask(nr);
                for (c, lanes) in tile.iter().enumerate().take(nc) {
                    // SAFETY: `nr` lanes from column `r0` of row `c0 + c`
                    // of `dst` (`cols × rows`) are in bounds.
                    let to = dst.as_mut_ptr().add((c0 + c) * rows + r0);
                    _mm256_maskstore_ps(to, row_lanes, *lanes);
                }
            }
        }
    }

    /// `v` in the lanes `keep` selects, `slope * v` in the rest — or
    /// `+0.0` there when `slope` is zero (a product would carry `v`'s
    /// sign into the zero).
    #[target_feature(enable = "avx2")]
    unsafe fn scaled_unless(v: __m256, keep: __m256, slope: f32) -> __m256 {
        let off =
            if slope > 0.0 { _mm256_mul_ps(_mm256_set1_ps(slope), v) } else { _mm256_setzero_ps() };
        _mm256_blendv_ps(off, v, keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_flips_and_reset_rederives() {
        let before = simd_enabled();
        set_simd_enabled(false);
        assert!(!simd_enabled());
        set_simd_enabled(true);
        assert_eq!(simd_level(), cpu_level());
        assert_eq!(set_simd_level(SimdLevel::Avx2), SimdLevel::Avx2.min(cpu_level()));
        assert_eq!(simd_level(), SimdLevel::Avx2.min(cpu_level()));
        reset_simd();
        assert_eq!(simd_enabled(), before);
    }
}
