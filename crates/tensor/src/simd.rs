//! Runtime-dispatched SIMD micro-kernels for the matmul family.
//!
//! The scalar kernels in [`crate::ops`] define the semantics: every
//! output element is produced by a single accumulator walking the
//! reduction axis `k` in ascending order. The AVX2 kernels here keep
//! that contract exactly — each of the 8 `f32` lanes is one independent
//! output element's accumulator, and every step is a separate
//! `mul` + `add` pair (never an FMA, whose single rounding would differ
//! from scalar mul-then-add) — so the SIMD and scalar paths are
//! **bit-identical**, and both stay bit-identical at any `ODIN_THREADS`
//! (`tests/par_determinism.rs` pins this).
//!
//! Dispatch is decided once at runtime: AVX2 is used when the CPU
//! supports it and `ODIN_NO_SIMD` is not set. Tests and benches can
//! flip the path with [`set_simd_enabled`] / [`reset_simd`].

use std::sync::atomic::{AtomicU8, Ordering};

const UNKNOWN: u8 = 0;
const SCALAR: u8 = 1;
const VECTOR: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNKNOWN);

/// True when the running CPU can execute the AVX2 kernels.
fn cpu_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn detect() -> u8 {
    let disabled = std::env::var("ODIN_NO_SIMD").map(|v| v != "0" && !v.is_empty());
    if disabled.unwrap_or(false) {
        return SCALAR;
    }
    if cpu_supported() {
        VECTOR
    } else {
        SCALAR
    }
}

/// Whether the vectorized kernels are active. Decided once from CPU
/// feature detection and the `ODIN_NO_SIMD` environment variable, then
/// cached; [`set_simd_enabled`] overrides the cached decision.
pub fn simd_enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        UNKNOWN => {
            let s = detect();
            STATE.store(s, Ordering::Relaxed);
            s == VECTOR
        }
        s => s == VECTOR,
    }
}

/// Forces the SIMD path on or off (test/bench hook). Enabling is a
/// no-op on CPUs without AVX2 — the scalar path stays active.
pub fn set_simd_enabled(on: bool) {
    let s = if on && cpu_supported() { VECTOR } else { SCALAR };
    STATE.store(s, Ordering::Relaxed);
}

/// Clears any [`set_simd_enabled`] override; the next [`simd_enabled`]
/// call re-derives the default from the CPU and `ODIN_NO_SIMD`.
pub fn reset_simd() {
    STATE.store(UNKNOWN, Ordering::Relaxed);
}

/// Output columns per packed panel: the `f32` lanes of one AVX2 register.
pub(crate) const PANEL: usize = 8;

/// The right-hand side of an NT product — `b` as `[n, k]` row-major, one
/// `k`-long row per output column — re-laid out panel-major for the AVX2
/// kernel: `[n.div_ceil(PANEL)][k][PANEL]`, so step `kk` of panel `p` is
/// one contiguous 8-lane load holding `b[p * 8 + lane][kk]`. The last
/// panel of a ragged `n` is zero-padded; its pad lanes are computed and
/// discarded. Packing is pure data movement, so it cannot change a bit
/// of any product.
#[derive(Default)]
pub(crate) struct PackedPanels {
    /// Invariant: `data.len() == n.div_ceil(PANEL) * k * PANEL`.
    data: Vec<f32>,
    n: usize,
    k: usize,
}

// Only the AVX2 path consumes a packing.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
impl PackedPanels {
    /// Elements a packing of an `[n, k]` matrix occupies.
    fn packed_len(n: usize, k: usize) -> usize {
        n.div_ceil(PANEL) * k * PANEL
    }

    /// Re-packs from `bd` (`[n, k]` row-major), reusing the allocation.
    pub(crate) fn repack(&mut self, bd: &[f32], n: usize, k: usize) {
        assert_eq!(bd.len(), n * k, "packed rhs size mismatch");
        self.data.clear();
        self.data.resize(Self::packed_len(n, k), 0.0);
        (self.n, self.k) = (n, k);
        if k == 0 {
            return;
        }
        for (j, col) in bd.chunks_exact(k).enumerate() {
            let base = (j / PANEL) * k * PANEL + j % PANEL;
            for (kk, &v) in col.iter().enumerate() {
                self.data[base + kk * PANEL] = v;
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

/// AVX2 kernel bodies. Callers must check [`simd_enabled`] first; every
/// function is `unsafe` because it requires AVX2 at runtime.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::{PackedPanels, PANEL};
    use std::arch::x86_64::*;

    /// Computes `R` output rows × 8 output columns: each lane of each
    /// accumulator register is one output element, walking `k` ascending
    /// with separate mul and add — the exact scalar accumulation order.
    ///
    /// `a` points at the first of `R` consecutive `k`-long rows
    /// (row stride `k`); `b` points at an 8-wide column panel with row
    /// stride `b_stride`; `out` at the first of `R` output rows (row
    /// stride `out_stride`), of which the first `cols ≤ 8` columns are
    /// written.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and in-bounds pointers for the strides above (all
    /// 8 lanes of `b` are read whatever `cols` is).
    #[target_feature(enable = "avx2")]
    unsafe fn rows8<const R: usize>(
        a: *const f32,
        k: usize,
        b: *const f32,
        b_stride: usize,
        out: *mut f32,
        out_stride: usize,
        cols: usize,
    ) {
        let mut acc = [_mm256_setzero_ps(); R];
        for kk in 0..k {
            let bv = _mm256_loadu_ps(b.add(kk * b_stride));
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*a.add(r * k + kk));
                *accr = _mm256_add_ps(*accr, _mm256_mul_ps(av, bv));
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            if cols == 8 {
                _mm256_storeu_ps(out.add(r * out_stride), *accr);
            } else {
                let mut lanes = [0.0f32; 8];
                _mm256_storeu_ps(lanes.as_mut_ptr(), *accr);
                std::ptr::copy_nonoverlapping(lanes.as_ptr(), out.add(r * out_stride), cols);
            }
        }
    }

    /// 8-lane NN kernel: `chunk = a[r0..r0+rows] × b` with `a` `[m, k]`
    /// and `b` `[k, n]`, both row-major. Bit-identical to
    /// `ops::matmul_chunk`.
    ///
    /// # Safety
    ///
    /// Requires AVX2; slices must hold a full `[rows, k] × [k, n]`
    /// problem as in the scalar kernel.
    #[target_feature(enable = "avx2")]
    pub unsafe fn matmul_chunk(
        ad: &[f32],
        bd: &[f32],
        chunk: &mut [f32],
        r0: usize,
        k: usize,
        n: usize,
    ) {
        let rows = chunk.len() / n;
        let mut i = 0;
        while i < rows {
            let ih = (rows - i).min(4);
            let a = ad.as_ptr().add((r0 + i) * k);
            let mut j = 0;
            while j + 8 <= n {
                let b = bd.as_ptr().add(j);
                let out = chunk.as_mut_ptr().add(i * n + j);
                match ih {
                    4 => rows8::<4>(a, k, b, n, out, n, 8),
                    3 => rows8::<3>(a, k, b, n, out, n, 8),
                    2 => rows8::<2>(a, k, b, n, out, n, 8),
                    _ => rows8::<1>(a, k, b, n, out, n, 8),
                }
                j += 8;
            }
            // Ragged column tail: scalar, same single-accumulator
            // ascending-k order.
            while j < n {
                for r in 0..ih {
                    let a_row = &ad[(r0 + i + r) * k..(r0 + i + r + 1) * k];
                    let mut acc = 0.0f32;
                    for (kk, &av) in a_row.iter().enumerate() {
                        acc += av * bd[kk * n + j];
                    }
                    chunk[(i + r) * n + j] = acc;
                }
                j += 1;
            }
            i += ih;
        }
    }

    /// 8-lane NT kernel over a packed right-hand side:
    /// `chunk = a[r0..r0+rows] × bᵀ` with `a` `[m, k]` row-major and `b`
    /// in [`PackedPanels`] form, which gives the dot-product layout the
    /// NN kernel's shape. Bit-identical to `ops::matmul_nt_chunk_scalar`
    /// on the unpacked `b`.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn matmul_nt_packed_chunk(
        ad: &[f32],
        b: &PackedPanels,
        chunk: &mut [f32],
        r0: usize,
    ) {
        let (k, n) = (b.k, b.n);
        let rows = chunk.len() / n;
        assert_eq!(chunk.len(), rows * n, "output chunk is not whole rows");
        assert!(ad.len() >= (r0 + rows) * k, "lhs shorter than the rows it is asked for");
        assert_eq!(b.data.len(), PackedPanels::packed_len(n, k), "packed rhs invariant");
        for (p, j) in (0..n).step_by(PANEL).enumerate() {
            let cols = (n - j).min(PANEL);
            // SAFETY (pointer arithmetic below): panel `p` spans
            // `k * PANEL` elements inside `b.data` (asserted length);
            // rows `r0 + i ..+ ih` of `a` and `i ..+ ih` of `chunk`
            // are in bounds by the two asserts above, and only `cols`
            // columns from `j` are stored, `j + cols <= n`.
            let panel = b.data.as_ptr().add(p * k * PANEL);
            let mut i = 0;
            while i < rows {
                let ih = (rows - i).min(4);
                let a = ad.as_ptr().add((r0 + i) * k);
                let out = chunk.as_mut_ptr().add(i * n + j);
                match ih {
                    4 => rows8::<4>(a, k, panel, PANEL, out, n, cols),
                    3 => rows8::<3>(a, k, panel, PANEL, out, n, cols),
                    2 => rows8::<2>(a, k, panel, PANEL, out, n, cols),
                    _ => rows8::<1>(a, k, panel, PANEL, out, n, cols),
                }
                i += ih;
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

    /// Like [`rows8`] but for the TN layout: `a` element for output row
    /// `r`, step `kk` sits at `a[kk * a_stride + r]` (`a_stride` = the
    /// original `m`). Accumulators live in registers across the whole
    /// `k` walk, so `out` is written exactly once per element.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and in-bounds pointers for the strides above.
    #[target_feature(enable = "avx2")]
    unsafe fn rows8_tn<const R: usize>(
        a: *const f32,
        k: usize,
        a_stride: usize,
        b: *const f32,
        b_stride: usize,
        out: *mut f32,
        out_stride: usize,
    ) {
        let mut acc = [_mm256_setzero_ps(); R];
        for kk in 0..k {
            let bv = _mm256_loadu_ps(b.add(kk * b_stride));
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*a.add(kk * a_stride + r));
                *accr = _mm256_add_ps(*accr, _mm256_mul_ps(av, bv));
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            _mm256_storeu_ps(out.add(r * out_stride), *accr);
        }
    }

    /// 8-lane TN kernel: `chunk = aᵀ[r0..r0+rows] × b` with `a` `[k, m]`
    /// and `b` `[k, n]`, both row-major. Register-blocked 4 rows × 8
    /// cols with each lane a single accumulator walking `k` ascending —
    /// the per-element order of `ops::matmul_tn_chunk`'s rank-1 updates,
    /// so results are bit-identical; ragged edges fall back to a scalar
    /// walk in the same order.
    ///
    /// # Safety
    ///
    /// Requires AVX2; slices must hold a full `[k, m] × [k, n]` problem
    /// as in the scalar kernel.
    #[target_feature(enable = "avx2")]
    pub unsafe fn matmul_tn_chunk(
        ad: &[f32],
        bd: &[f32],
        chunk: &mut [f32],
        r0: usize,
        k: usize,
        m: usize,
        n: usize,
    ) {
        let rows = chunk.len() / n;
        let mut i = 0;
        while i < rows {
            let ih = (rows - i).min(4);
            let a = ad.as_ptr().add(r0 + i);
            let mut j = 0;
            while j + 8 <= n {
                let b = bd.as_ptr().add(j);
                let out = chunk.as_mut_ptr().add(i * n + j);
                match ih {
                    4 => rows8_tn::<4>(a, k, m, b, n, out, n),
                    3 => rows8_tn::<3>(a, k, m, b, n, out, n),
                    2 => rows8_tn::<2>(a, k, m, b, n, out, n),
                    _ => rows8_tn::<1>(a, k, m, b, n, out, n),
                }
                j += 8;
            }
            // Ragged column tail: k-outer rank-1 updates so both inputs
            // are walked contiguously (a per-column walk would stride by
            // `m` for the whole reduction). Each output cell is still a
            // single accumulator taking its k terms in ascending order.
            if j < n {
                for r in 0..ih {
                    chunk[(i + r) * n + j..(i + r) * n + n].fill(0.0);
                }
                for kk in 0..k {
                    let av = &ad[kk * m + r0 + i..kk * m + r0 + i + ih];
                    let bv = &bd[kk * n + j..kk * n + n];
                    for (r, &ar) in av.iter().enumerate() {
                        for (c, &bc) in bv.iter().enumerate() {
                            chunk[(i + r) * n + j + c] += ar * bc;
                        }
                    }
                }
            }
            i += ih;
        }
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
        assert_eq!(simd_enabled(), cpu_supported());
        reset_simd();
        assert_eq!(simd_enabled(), before);
    }
}
