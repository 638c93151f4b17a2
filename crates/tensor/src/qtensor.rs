//! Int8 quantized inference primitives.
//!
//! Quantization scheme (the standard symmetric-linear edge recipe):
//!
//! * **Weights** are quantized per output channel: each channel's scale
//!   is `max_abs / 127`, values are rounded to nearest (ties to even —
//!   the IEEE default, so the scalar `round_ties_even` and the AVX2
//!   `roundps` produce identical bytes) and clamped to `[-127, 127]`.
//!   Symmetric (no zero point) keeps the integer kernel a plain dot
//!   product.
//! * **Activations** are quantized per tensor with a dynamic scale
//!   computed from the tensor's own max-abs at inference time
//!   ([`quantize_activations`]), so no calibration set is needed.
//! * **Accumulation** is exact `i32` (largest product is `127² =
//!   16129`, so a reduction would need ~130 000 terms to overflow —
//!   far beyond any layer here). Because integer addition is
//!   associative, the SIMD and scalar integer kernels are *identical*,
//!   not merely close.
//! * **Requantization** back to f32 multiplies the accumulator by
//!   `x_scale * w_scale[channel]` and adds the (f32) bias; an optional
//!   leaky-ReLU slope is fused into the same pass.
//!
//! [`QConv2d`] deliberately does **not** use im2col: activations are
//! kept in NHWC (channels-last) layout, where a `k×k` patch row is
//! `k * C` *contiguous* bytes, so gathering one output position's
//! window is `k` short copies.
//!
//! Weights are packed once, at [`QConv2d::new`], into int8 panels
//! `[ceil(out_c / 8)][ceil(l / 2)][8][2]`: eight output channels side
//! by side, and under each channel two consecutive patch elements (a
//! *k-pair*). The ragged last group and an odd `l` are zero-padded.
//! The AVX2 body puts the **output channels in the SIMD lanes**: one
//! `vpmovsxbw` widens a 16-byte panel row to eight `(w[k], w[k+1])`
//! i16 pairs, the activation pair `(a[k], a[k+1])` is broadcast to
//! every lane, and `vpmaddwd` yields `a[k]·w[k] + a[k+1]·w[k+1]` per
//! channel as an i32 — so the eight lanes of an accumulator *are*
//! eight finished outputs and there is no horizontal sum. A tile of 4
//! output positions × 16 channels shares each widened panel row. The
//! panels stay one byte per weight and are the only weight copy: the
//! scalar body indexes them too.

use crate::simd;

/// Quantizes one f32 value with round-to-nearest-even and the
/// symmetric clamp. Ties-to-even matches the AVX2 `roundps` default, so
/// the scalar and SIMD quantizers emit identical bytes.
#[inline]
fn q8(v: f32, inv_scale: f32) -> i8 {
    (v * inv_scale).round_ties_even().clamp(-127.0, 127.0) as i8
}

/// Max absolute value of a slice (0.0 for an empty one). Dispatches to
/// AVX2; `max` over `abs` is order-independent, so the paths agree
/// exactly.
pub fn max_abs(src: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if simd::simd_enabled() {
        // Safety: simd_enabled() is true only when AVX2 was detected.
        return unsafe { max_abs_avx2(src) };
    }
    src.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn max_abs_avx2(src: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = src.len();
    let sp = src.as_ptr();
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= n {
        acc = _mm256_max_ps(acc, _mm256_and_ps(_mm256_loadu_ps(sp.add(i)), abs_mask));
        i += 8;
    }
    let lo = _mm256_castps256_ps128(acc);
    let hi = _mm256_extractf128_ps(acc, 1);
    let m = _mm_max_ps(lo, hi);
    let m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    let m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
    let mut out = _mm_cvtss_f32(m);
    for k in i..n {
        out = out.max(src.get_unchecked(k).abs());
    }
    out
}

/// Quantizes `src` into `dst` (same length) with the given inverse
/// scale: `dst[i] = clamp(round(src[i] * inv_scale))`. The AVX2 path
/// (`roundps` + saturating packs) produces exactly the bytes the scalar
/// path does.
pub fn quantize_into(src: &[f32], inv_scale: f32, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len(), "quantize_into length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd::simd_enabled() {
        // Safety: simd_enabled() is true only when AVX2 was detected.
        unsafe { quantize_into_avx2(src, inv_scale, dst) };
        return;
    }
    for (d, &v) in dst.iter_mut().zip(src.iter()) {
        *d = q8(v, inv_scale);
    }
}

/// Eight floats at `src`, scaled, rounded to nearest-even and clamped
/// to `[-127, 127]`, as i32 lanes: [`q8`] on eight lanes.
///
/// # Safety
///
/// Requires AVX2 and eight readable floats at `src`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn quant8_avx2(
    src: *const f32,
    inv_scale: std::arch::x86_64::__m256,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    const NEAREST: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
    let t = _mm256_mul_ps(_mm256_loadu_ps(src), inv_scale);
    let t = _mm256_round_ps::<NEAREST>(t);
    let t = _mm256_min_ps(_mm256_max_ps(t, _mm256_set1_ps(-127.0)), _mm256_set1_ps(127.0));
    _mm256_cvtps_epi32(t)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_into_avx2(src: &[f32], inv_scale: f32, dst: &mut [i8]) {
    use std::arch::x86_64::*;
    let n = src.len();
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let invv = _mm256_set1_ps(inv_scale);
    let mut i = 0;
    while i + 32 <= n {
        let q0 = quant8_avx2(sp.add(i), invv);
        let q1 = quant8_avx2(sp.add(i + 8), invv);
        let q2 = quant8_avx2(sp.add(i + 16), invv);
        let q3 = quant8_avx2(sp.add(i + 24), invv);
        // packs interleaves 128-bit lanes; the permute restores source
        // order (dword j of the packed result holds elements 4j..4j+3).
        let p01 = _mm256_packs_epi32(q0, q1);
        let p23 = _mm256_packs_epi32(q2, q3);
        let b = _mm256_packs_epi16(p01, p23);
        let idx = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let b = _mm256_permutevar8x32_epi32(b, idx);
        _mm256_storeu_si256(dp.add(i).cast(), b);
        i += 32;
    }
    for k in i..n {
        *dst.get_unchecked_mut(k) = q8(*src.get_unchecked(k), inv_scale);
    }
}

/// Per-tensor symmetric quantization of activations into `dst`
/// (resized to match). Returns the scale such that
/// `src[i] ≈ dst[i] as f32 * scale`; an all-zero tensor gets scale 1.
pub fn quantize_activations(src: &[f32], dst: &mut Vec<i8>) -> f32 {
    let max = max_abs(src);
    let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
    dst.clear();
    dst.resize(src.len(), 0);
    quantize_into(src, 1.0 / scale, dst);
    scale
}

/// Quantizes a planar `[channels][pixels]` f32 image into channels-last
/// `[pixels][channels]` i8: `dst[p * channels + c] =
/// clamp(round(src[c * pixels + p] * inv_scale))`, the bytes
/// [`quantize_into`] followed by an interleave would produce. Three
/// channels (a frame entering the detector) take the AVX2 path.
pub fn quantize_planes_into_nhwc(src: &[f32], channels: usize, inv_scale: f32, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len(), "quantize_planes_into_nhwc length mismatch");
    assert!(channels > 0 && src.len().is_multiple_of(channels), "planes do not divide the input");
    let pixels = src.len() / channels;
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if channels == 3 && simd::simd_enabled() {
        // Safety: simd_enabled() is true only when AVX2 was detected.
        done = unsafe { quantize_rgb_into_nhwc_avx2(src, inv_scale, dst) };
    }
    for p in done..pixels {
        for c in 0..channels {
            dst[p * channels + c] = q8(src[c * pixels + p], inv_scale);
        }
    }
}

/// The three-plane body of [`quantize_planes_into_nhwc`]; returns how
/// many leading pixels it wrote (the caller finishes the rest).
///
/// # Safety
///
/// Requires AVX2; `src` and `dst` must have the same length, a
/// multiple of 3.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_rgb_into_nhwc_avx2(src: &[f32], inv_scale: f32, dst: &mut [i8]) -> usize {
    use std::arch::x86_64::*;
    let pixels = src.len() / 3;
    let (r, g, b) = (src.as_ptr(), src.as_ptr().add(pixels), src.as_ptr().add(2 * pixels));
    let dp = dst.as_mut_ptr();
    let invv = _mm256_set1_ps(inv_scale);
    let byte = _mm256_set1_epi32(0xff);
    // Per 128-bit lane: four [r g b 0] dwords → twelve packed bytes.
    let pack = _mm256_setr_epi8(
        0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, -1, -1, -1, -1, //
        0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, -1, -1, -1, -1,
    );
    let mut p = 0;
    // Each step stores 28 bytes for 8 pixels (24): stop while the four
    // spilled bytes still land inside `dst`; later steps overwrite them.
    while p + 10 <= pixels {
        let qr = _mm256_and_si256(quant8_avx2(r.add(p), invv), byte);
        let qg = _mm256_and_si256(quant8_avx2(g.add(p), invv), byte);
        let qb = _mm256_and_si256(quant8_avx2(b.add(p), invv), byte);
        let rgb = _mm256_or_si256(
            qr,
            _mm256_or_si256(_mm256_slli_epi32::<8>(qg), _mm256_slli_epi32::<16>(qb)),
        );
        let packed = _mm256_shuffle_epi8(rgb, pack);
        _mm_storeu_si128(dp.add(3 * p).cast(), _mm256_castsi256_si128(packed));
        _mm_storeu_si128(dp.add(3 * p + 12).cast(), _mm256_extracti128_si256::<1>(packed));
        p += 8;
    }
    p
}

/// Int8 dot product with an i32 accumulator. Dispatches to the AVX2
/// `madd` kernel when enabled; the scalar reduction computes the exact
/// same integer, so the paths are interchangeable.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if simd::simd_enabled() {
        // Safety: simd_enabled() is true only when AVX2 was detected,
        // and the pointers cover exactly `len` elements.
        return unsafe { simd::avx2::dot_i8(a.as_ptr(), b.as_ptr(), a.len()) };
    }
    a.iter().zip(b.iter()).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum()
}

/// Output channels per weight panel group: the i32 lanes of one AVX2
/// accumulator.
const GROUP: usize = 8;

/// Output positions per AVX2 tile.
const TILE: usize = 4;

/// Reusable buffers for [`QConv2d::forward_nhwc`], so a serving thread
/// allocates nothing per layer or per frame once they have grown.
#[derive(Default)]
pub struct QConvScratch {
    /// Per-channel requantization multipliers for the current input
    /// scale, padded to whole groups.
    m: Vec<f32>,
    /// `TILE` gathered i8 patches, `patch_stride` apart.
    patch: Vec<i8>,
    /// The same patches widened to i16 (AVX2 body only).
    wide: Vec<i16>,
}

/// An int8 2-D convolution over NHWC activations: direct (no im2col),
/// square kernel, uniform stride, zero padding, optional fused
/// leaky-ReLU.
///
/// Per output position the kernel window is gathered once into a
/// contiguous patch buffer (`k` short memcpys of int8 — this is all
/// that remains of im2col); the module docs describe the weight panels
/// and the channels-in-lanes kernel that consumes it.
pub struct QConv2d {
    in_c: usize,
    out_c: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    /// Patch length `in_c * k * k`.
    l: usize,
    /// `ceil(l / 2)`: k-pairs per panel group.
    pairs: usize,
    /// `[ceil(out_c / GROUP)][pairs][GROUP][2]`, patch order
    /// `[ky][kx][ic]` (channels-last); padding is zero.
    panels: Vec<i8>,
    w_scale: Vec<f32>,
    /// Padded with zeros to whole groups.
    bias: Vec<f32>,
    /// Fused activation negative slope (`Some(0.0)` = ReLU, `None` =
    /// linear), matching `Conv2d`'s fused activation.
    act: Option<f32>,
}

impl QConv2d {
    /// Quantizes an f32 convolution given its `[out_c, in_c * k * k]`
    /// row-major weights in im2col patch order (`[ic][ky][kx]`, the
    /// `Conv2d` storage layout) and `out_c` biases. Weights are
    /// reordered to channels-last `[ky][kx][ic]` and packed into the
    /// panels the kernels read.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        w: &[f32],
        bias: &[f32],
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        act: Option<f32>,
    ) -> Self {
        let l = in_c * kernel * kernel;
        assert_eq!(w.len(), out_c * l, "conv weight shape mismatch");
        assert_eq!(bias.len(), out_c, "bias length mismatch");
        if let Some(a) = act {
            assert!(a >= 0.0, "fused activation slope must be non-negative");
        }
        let pairs = l.div_ceil(2);
        let groups = out_c.div_ceil(GROUP);
        let mut conv = QConv2d {
            in_c,
            out_c,
            kernel,
            stride,
            pad,
            l,
            pairs,
            panels: vec![0i8; groups * pairs * GROUP * 2],
            w_scale: Vec::with_capacity(out_c),
            bias: bias.to_vec(),
            act,
        };
        conv.bias.resize(groups * GROUP, 0.0);
        for o in 0..out_c {
            let row = &w[o * l..(o + 1) * l];
            let max = max_abs(row);
            let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
            let inv = 1.0 / scale;
            // [ic][ky][kx] → [ky][kx][ic].
            for ic in 0..in_c {
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        let src = (ic * kernel + ky) * kernel + kx;
                        let dst = (ky * kernel + kx) * in_c + ic;
                        let at = conv.panel_index(o, dst);
                        conv.panels[at] = q8(row[src], inv);
                    }
                }
            }
            conv.w_scale.push(scale);
        }
        conv
    }

    /// Where output channel `o`'s weight for patch element `i` lives in
    /// `panels`.
    #[inline(always)]
    fn panel_index(&self, o: usize, i: usize) -> usize {
        (((o / GROUP) * self.pairs + i / 2) * GROUP + o % GROUP) * 2 + i % 2
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// Spatial output size for an `h`×`w` input.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.pad - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.pad - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// Length of one gathered patch buffer: `l` rounded up to 16, so
    /// the AVX2 body widens it in whole registers. The tail past `l`
    /// is never written; the one element of it a kernel reads (odd
    /// `l`) meets a zero weight.
    fn patch_stride(&self) -> usize {
        self.l.div_ceil(16) * 16
    }

    /// Copies the kernel window at `(oy, ox)` into `patch[..l]`: `k`
    /// contiguous NHWC row runs, with out-of-bounds (zero-padding)
    /// regions cleared. Zero terms contribute nothing to the integer
    /// dot, so this is exact.
    #[inline(always)]
    fn gather_patch(&self, x: &[i8], h: usize, w: usize, oy: usize, ox: usize, patch: &mut [i8]) {
        let (k, c) = (self.kernel, self.in_c);
        let y0 = (oy * self.stride) as isize - self.pad as isize;
        let x0 = (ox * self.stride) as isize - self.pad as isize;
        let ky_lo = (-y0).clamp(0, k as isize) as usize;
        let ky_hi = (h as isize - y0).clamp(ky_lo as isize, k as isize) as usize;
        let kx_lo = (-x0).clamp(0, k as isize) as usize;
        let kx_hi = (w as isize - x0).clamp(kx_lo as isize, k as isize) as usize;
        let interior = ky_lo == 0 && ky_hi == k && kx_lo == 0 && kx_hi == k;
        if !interior {
            patch[..self.l].fill(0);
        }
        let run = (kx_hi - kx_lo) * c;
        for ky in ky_lo..ky_hi {
            let iy = (y0 + ky as isize) as usize;
            let src = ((iy * w) as isize + x0 + kx_lo as isize) as usize * c;
            let doff = (ky * k + kx_lo) * c;
            patch[doff..doff + run].copy_from_slice(&x[src..src + run]);
        }
    }

    /// Requantize + bias + fused activation for one accumulator. The
    /// AVX2 body runs this arithmetic on eight lanes: `cvtdq2ps`,
    /// `mulps`, `addps` (never an FMA) and a compare + blend.
    #[inline(always)]
    fn finish(&self, acc: i32, m: f32, bias: f32) -> f32 {
        let s = acc as f32 * m + bias;
        match self.act {
            None => s,
            Some(_) if s > 0.0 => s,
            Some(a) if a > 0.0 => a * s,
            Some(_) => 0.0,
        }
    }

    /// Scalar conv body — the portable fallback, and the reference the
    /// AVX2 body must match exactly (it does: integer accumulation is
    /// order-independent and the requantization arithmetic is
    /// identical).
    #[allow(clippy::too_many_arguments)]
    fn forward_body_scalar(
        &self,
        x: &[i8],
        h: usize,
        w: usize,
        m: &[f32],
        out: &mut [f32],
        ow: usize,
        patch: &mut [i8],
    ) {
        for (pos, dst) in out.chunks_exact_mut(self.out_c).enumerate() {
            self.gather_patch(x, h, w, pos / ow, pos % ow, patch);
            for (g, dst) in dst.chunks_mut(GROUP).enumerate() {
                let panel = &self.panels[g * self.pairs * GROUP * 2..][..self.pairs * GROUP * 2];
                let mut acc = [0i32; GROUP];
                for (i, &a) in patch[..self.l].iter().enumerate() {
                    let row = &panel[(i / 2) * GROUP * 2..][..GROUP * 2];
                    for (lane, acc) in acc.iter_mut().enumerate() {
                        *acc += i32::from(a) * i32::from(row[lane * 2 + i % 2]);
                    }
                }
                for (lane, d) in dst.iter_mut().enumerate() {
                    let o = g * GROUP + lane;
                    *d = self.finish(acc[lane], m[o], self.bias[o]);
                }
            }
        }
    }

    /// AVX2 conv body: tiles of [`TILE`] output positions × 16 output
    /// channels (8 for an odd last group), channels in the lanes.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn forward_body_avx2(
        &self,
        x: &[i8],
        h: usize,
        w: usize,
        m: &[f32],
        out: &mut [f32],
        ow: usize,
        patch: &mut [i8],
        wide: &mut [i16],
    ) {
        use std::arch::x86_64::*;
        let stride = self.patch_stride();
        let groups = self.out_c.div_ceil(GROUP);
        let positions = out.len() / self.out_c;
        // What the tile kernel's raw reads rely on.
        assert!(m.len() >= groups * GROUP && self.bias.len() >= groups * GROUP);
        assert!(patch.len() >= TILE * stride && wide.len() >= TILE * stride);
        let mut pos = 0;
        while pos < positions {
            // A ragged last tile computes on stale patches in the
            // unused slots and stores only the live ones.
            let live = (positions - pos).min(TILE);
            for t in 0..live {
                let p = &mut patch[t * stride..(t + 1) * stride];
                self.gather_patch(x, h, w, (pos + t) / ow, (pos + t) % ow, p);
                for i in (0..stride).step_by(16) {
                    let v = _mm256_cvtepi8_epi16(_mm_loadu_si128(p.as_ptr().add(i).cast()));
                    _mm256_storeu_si256(wide.as_mut_ptr().add(t * stride + i).cast(), v);
                }
            }
            let dst = &mut out[pos * self.out_c..(pos + live) * self.out_c];
            // SAFETY (both calls): `wide` holds TILE patches `stride`
            // apart with `stride >= 2 * pairs`, the group range is
            // inside `groups`, and `m` was checked above.
            let mut g = 0;
            while g + 2 <= groups {
                self.tile_avx2::<2>(g, wide.as_ptr(), stride, m, dst);
                g += 2;
            }
            if g < groups {
                self.tile_avx2::<1>(g, wide.as_ptr(), stride, m, dst);
            }
            pos += live;
        }
    }

    /// One tile: [`TILE`] widened patches (`stride` apart at `wide`)
    /// against panel groups `g .. g + NG`, finished and stored into
    /// `dst` — the `[positions][out_c]` rows of the tile's live
    /// positions.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `wide` must be readable for `TILE * stride` i16
    /// with `stride >= 2 * pairs`, `g + NG <= groups`, and `m` must
    /// cover `groups * GROUP` lanes.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile_avx2<const NG: usize>(
        &self,
        g: usize,
        wide: *const i16,
        stride: usize,
        m: &[f32],
        dst: &mut [f32],
    ) {
        use std::arch::x86_64::*;
        let group_bytes = self.pairs * GROUP * 2;
        let wp = self.panels.as_ptr().add(g * group_bytes);
        let mut acc = [[_mm256_setzero_si256(); NG]; TILE];
        for p in 0..self.pairs {
            let mut wv = [_mm256_setzero_si256(); NG];
            for (n, wv) in wv.iter_mut().enumerate() {
                let row = wp.add(n * group_bytes + p * GROUP * 2);
                *wv = _mm256_cvtepi8_epi16(_mm_loadu_si128(row.cast()));
            }
            for (t, acc) in acc.iter_mut().enumerate() {
                // The activation pair (a[2p], a[2p+1]) in every lane.
                let av =
                    _mm256_set1_epi32(wide.add(t * stride + 2 * p).cast::<i32>().read_unaligned());
                for (acc, &wv) in acc.iter_mut().zip(&wv) {
                    *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(wv, av));
                }
            }
        }
        let zero = _mm256_setzero_ps();
        for (row, acc) in dst.chunks_exact_mut(self.out_c).zip(&acc) {
            for (n, &acc) in acc.iter().enumerate() {
                let o = (g + n) * GROUP;
                let s = _mm256_add_ps(
                    _mm256_mul_ps(_mm256_cvtepi32_ps(acc), _mm256_loadu_ps(m.as_ptr().add(o))),
                    _mm256_loadu_ps(self.bias.as_ptr().add(o)),
                );
                let s = match self.act {
                    None => s,
                    Some(a) => {
                        let neg = if a > 0.0 { _mm256_mul_ps(_mm256_set1_ps(a), s) } else { zero };
                        _mm256_blendv_ps(neg, s, _mm256_cmp_ps::<_CMP_GT_OQ>(s, zero))
                    }
                };
                if o + GROUP <= self.out_c {
                    _mm256_storeu_ps(row.as_mut_ptr().add(o), s);
                } else {
                    // Ragged last group: the pad lanes are dropped.
                    let mut lanes = [0.0f32; GROUP];
                    _mm256_storeu_ps(lanes.as_mut_ptr(), s);
                    row[o..].copy_from_slice(&lanes[..self.out_c - o]);
                }
            }
        }
    }

    /// Direct NHWC convolution of one image: `x` is `[h][w][in_c]` i8
    /// with per-tensor scale `x_scale`; writes `[oh][ow][out_c]` f32
    /// into `out` (resized), with bias and the fused activation
    /// applied. The SIMD and scalar bodies produce identical results.
    pub fn forward_nhwc(
        &self,
        x: &[i8],
        x_scale: f32,
        h: usize,
        w: usize,
        scratch: &mut QConvScratch,
        out: &mut Vec<f32>,
    ) -> (usize, usize) {
        assert_eq!(x.len(), h * w * self.in_c, "input shape mismatch");
        let (oh, ow) = self.out_hw(h, w);
        // No clear first: both bodies write every element.
        out.resize(oh * ow * self.out_c, 0.0);
        // Per-channel requantization multipliers for this input scale.
        scratch.m.clear();
        scratch.m.extend(self.w_scale.iter().map(|&s| s * x_scale));
        scratch.m.resize(self.bias.len(), 0.0);
        scratch.patch.resize(TILE * self.patch_stride(), 0);
        #[cfg(target_arch = "x86_64")]
        if simd::simd_enabled() {
            scratch.wide.resize(scratch.patch.len(), 0);
            // Safety: simd_enabled() is true only when AVX2 was detected.
            unsafe {
                self.forward_body_avx2(
                    x,
                    h,
                    w,
                    &scratch.m,
                    out,
                    ow,
                    &mut scratch.patch,
                    &mut scratch.wide,
                )
            };
            return (oh, ow);
        }
        self.forward_body_scalar(x, h, w, &scratch.m, out, ow, &mut scratch.patch);
        (oh, ow)
    }

    /// Bytes of the served representation: i8 weights (unpadded) +
    /// f32 scales + f32 biases.
    pub fn param_bytes(&self) -> usize {
        self.out_c * self.l + 4 * (self.w_scale.len() + self.out_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_roundtrip_error_is_bounded() {
        let src: Vec<f32> = (0..100).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let mut q = Vec::new();
        let scale = quantize_activations(&src, &mut q);
        let max_abs = src.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        for (&v, &qi) in src.iter().zip(q.iter()) {
            let back = f32::from(qi) * scale;
            assert!((v - back).abs() <= scale * 0.5 + 1e-6, "error beyond half a step");
            let _ = max_abs;
        }
    }

    #[test]
    fn zero_tensor_quantizes_to_zero_with_unit_scale() {
        let mut q = Vec::new();
        let scale = quantize_activations(&[0.0; 8], &mut q);
        assert_eq!(scale, 1.0);
        assert!(q.iter().all(|&v| v == 0));
    }

    #[test]
    fn dot_i8_matches_scalar_reduction() {
        let a: Vec<i8> = (0..100).map(|i| ((i * 37) % 255 - 127) as i8).collect();
        let b: Vec<i8> = (0..100).map(|i| ((i * 91) % 255 - 127) as i8).collect();
        let expect: i32 = a.iter().zip(b.iter()).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum();
        assert_eq!(dot_i8(&a, &b), expect);
    }

    #[test]
    fn qconv_1x1_identity_passes_through_with_quant_noise() {
        // 1x1 kernel, identity weight on 1 channel: y ≈ x.
        let qc = QConv2d::new(&[1.0], &[0.0], 1, 1, 1, 1, 0, None);
        let x_f: Vec<f32> = vec![0.5, -1.0, 0.25, 1.0];
        let mut xq = Vec::new();
        let s = quantize_activations(&x_f, &mut xq);
        let mut out = Vec::new();
        let (oh, ow) = qc.forward_nhwc(&xq, s, 2, 2, &mut QConvScratch::default(), &mut out);
        assert_eq!((oh, ow), (2, 2));
        for (a, b) in out.iter().zip(x_f.iter()) {
            assert!((a - b).abs() < 0.01, "{a} vs {b}");
        }
    }

    #[test]
    fn qconv_serving_bytes_shrink_4x() {
        let fan = 3 * 3 * 16;
        let w = vec![0.5f32; 32 * fan];
        let b = vec![0.0f32; 32];
        let qc = QConv2d::new(&w, &b, 16, 32, 3, 2, 1, Some(0.2));
        let f32_bytes = (32 * fan + 32) * 4;
        assert!(qc.param_bytes() * 3 < f32_bytes, "int8 model not ~4x smaller");
    }
}
