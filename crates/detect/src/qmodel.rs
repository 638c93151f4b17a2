//! Int8 quantized serving of the Small (YoloSpecialized / YoloLite)
//! detector.
//!
//! [`QDetector::quantize`] snapshots a trained f32 [`Detector`] into
//! per-channel symmetric int8 weights (see [`odin_tensor::qtensor`] for
//! the scheme) — done once at model-install time. Serving then runs a
//! direct NHWC int8 convolution stack: no im2col gather, ~4× smaller
//! weight traffic, output channels in the SIMD lanes. Outputs are
//! *approximately* equal to the f32 detector's (quantization noise),
//! which is why installs gate the swap on an mAP-delta check.

use odin_data::{Frame, Image};
use odin_tensor::qtensor::{
    max_abs, quantize_activations, quantize_planes_into_nhwc, QConv2d, QConvScratch,
};
use odin_tensor::Tensor;

use crate::head::{decode, Detection, HEAD_CHANNELS};
use crate::map::mean_average_precision;
use crate::model::{Detector, DetectorArch, LEAKY_SLOPE, SMALL_CONVS};
use crate::nms::nms;

/// An int8-quantized Small detector, produced from a trained f32
/// [`Detector`] by [`QDetector::quantize`].
pub struct QDetector {
    convs: Vec<QConv2d>,
    size: usize,
    conf_threshold: f32,
    params: usize,
}

impl QDetector {
    /// Quantizes a trained detector for int8 serving. Only the Small
    /// (pruned) architecture is supported — the heavy YoloSim keeps
    /// batch-norm layers and is never served per cluster — so `Heavy`
    /// returns `None`.
    ///
    /// Quantization is a pure function of the exported parameters:
    /// re-quantizing the same weights (e.g. after a checkpoint restore)
    /// reproduces the exact same int8 model.
    pub fn quantize(d: &Detector) -> Option<QDetector> {
        if d.arch() != DetectorArch::Small {
            return None;
        }
        let flat = d.export_params();
        let mut convs = Vec::with_capacity(SMALL_CONVS.len());
        let mut off = 0usize;
        for &(in_c, out_c, kernel, stride, pad, leaky) in SMALL_CONVS.iter() {
            let fan_in = in_c * kernel * kernel;
            let w = &flat[off..off + out_c * fan_in];
            off += out_c * fan_in;
            let b = &flat[off..off + out_c];
            off += out_c;
            let act = if leaky { Some(LEAKY_SLOPE) } else { None };
            convs.push(QConv2d::new(w, b, in_c, out_c, kernel, stride, pad, act));
        }
        assert_eq!(off, flat.len(), "Small layout does not cover the exported parameters");
        Some(QDetector {
            convs,
            size: d.input_size(),
            conf_threshold: d.conf_threshold,
            params: d.num_params(),
        })
    }

    /// Frame side length expected by the detector.
    pub fn input_size(&self) -> usize {
        self.size
    }

    /// Logical parameter count (same network as the f32 original).
    pub fn num_params(&self) -> usize {
        self.params
    }

    /// Bytes of the served representation: int8 weights plus f32
    /// scales and biases — the footprint Table 4 reports for an
    /// int8-served model.
    pub fn param_bytes(&self) -> usize {
        self.convs.iter().map(QConv2d::param_bytes).sum()
    }

    /// Runs the int8 conv stack on one image's `[3, s, s]` f32 data,
    /// appending the head output into `pred` in NCHW order.
    ///
    /// `scratch` holds the reusable buffers (quantized input, f32
    /// activations, the conv kernels' own) so batch serving does not
    /// allocate per frame.
    fn forward_one(&self, data: &[f32], scratch: &mut QScratch, pred: &mut Vec<f32>) {
        let s = self.size;
        // NCHW → NHWC int8 with a per-frame dynamic scale.
        let max = max_abs(data);
        let mut scale = if max > 0.0 { max / 127.0 } else { 1.0 };
        scratch.q.resize(data.len(), 0);
        quantize_planes_into_nhwc(data, 3, 1.0 / scale, &mut scratch.q);
        let (mut h, mut w) = (s, s);
        let last = self.convs.len() - 1;
        for (i, conv) in self.convs.iter().enumerate() {
            let (oh, ow) =
                conv.forward_nhwc(&scratch.q, scale, h, w, &mut scratch.conv, &mut scratch.f);
            (h, w) = (oh, ow);
            if i < last {
                scale = quantize_activations(&scratch.f, &mut scratch.q);
            }
        }
        // Head output: NHWC [g, g, HEAD_CHANNELS] → NCHW.
        let g = h;
        debug_assert_eq!(scratch.f.len(), g * g * HEAD_CHANNELS);
        let base = pred.len();
        pred.resize(base + g * g * HEAD_CHANNELS, 0.0);
        let dst = &mut pred[base..];
        for p in 0..g * g {
            for ch in 0..HEAD_CHANNELS {
                dst[ch * g * g + p] = scratch.f[p * HEAD_CHANNELS + ch];
            }
        }
    }

    /// Raw head output for a `[B, 3, s, s]` batch — the int8 analogue
    /// of [`Detector::forward`], returning `[B, HEAD_CHANNELS, g, g]`.
    pub fn forward(&self, batch: &Tensor) -> Tensor {
        assert_eq!(batch.ndim(), 4, "QDetector expects [B, 3, s, s]");
        let b = batch.shape()[0];
        let s = self.size;
        assert_eq!(batch.shape()[2], s, "input size mismatch");
        let g = s / 8; // three stride-2 convs
        let mut pred = Vec::with_capacity(b * HEAD_CHANNELS * g * g);
        let mut scratch = QScratch::default();
        let img_len = 3 * s * s;
        let data = batch.data();
        for bi in 0..b {
            self.forward_one(&data[bi * img_len..(bi + 1) * img_len], &mut scratch, &mut pred);
        }
        Tensor::from_vec(pred, &[b, HEAD_CHANNELS, g, g])
    }

    /// Runs detection (decode + NMS) on a batch of frames — the int8
    /// analogue of [`Detector::detect_batch`].
    pub fn detect_batch(&self, images: &[&Image]) -> Vec<Vec<Detection>> {
        let s = self.size;
        let mut pred = Vec::new();
        let mut scratch = QScratch::default();
        let mut resized_buf; // keeps a resized image alive across the loop body
        for im in images {
            let data = if im.height() == s && im.width() == s {
                im.data()
            } else {
                resized_buf = im.resize_nearest(s, s);
                resized_buf.data()
            };
            self.forward_one(data, &mut scratch, &mut pred);
        }
        let g = s / 8;
        let pred = Tensor::from_vec(pred, &[images.len(), HEAD_CHANNELS, g, g]);
        decode(&pred, s, self.conf_threshold)
            .into_iter()
            .map(|d| nms(d, crate::model::DEFAULT_NMS_IOU))
            .collect()
    }

    /// Runs detection on one frame.
    pub fn detect(&self, image: &Image) -> Vec<Detection> {
        self.detect_batch(&[image]).pop().expect("one frame in, one out")
    }

    /// Evaluates mAP against ground truth — same protocol as
    /// [`Detector::evaluate_map`], for the install-time delta gate.
    pub fn evaluate_map(&self, frames: &[Frame]) -> f32 {
        if frames.is_empty() {
            return 0.0;
        }
        let mut all_dets = Vec::with_capacity(frames.len());
        for chunk in frames.chunks(16) {
            let images: Vec<&Image> = chunk.iter().map(|f| &f.image).collect();
            all_dets.extend(self.detect_batch(&images));
        }
        let gts: Vec<&[odin_data::GtBox]> = frames.iter().map(|f| f.boxes.as_slice()).collect();
        mean_average_precision(&all_dets, &gts, crate::map::MAP_IOU)
    }
}

/// Reusable int8/f32 activation buffers for one serving thread.
#[derive(Default)]
struct QScratch {
    q: Vec<i8>,
    f: Vec<f32>,
    conv: QConvScratch,
}

#[cfg(test)]
mod tests {
    use super::*;
    use odin_data::{Condition, SceneGen, Subset, TimeOfDay, Weather};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn heavy_is_not_quantizable() {
        let mut rng = StdRng::seed_from_u64(0);
        let heavy = Detector::heavy(48, &mut rng);
        assert!(QDetector::quantize(&heavy).is_none());
    }

    #[test]
    fn quantized_bytes_are_much_smaller() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = Detector::small(48, &mut rng);
        let q = QDetector::quantize(&d).expect("small quantizes");
        assert_eq!(q.num_params(), d.num_params());
        assert!(
            q.param_bytes() * 3 < d.param_bytes(),
            "int8 {} not ~4x below f32 {}",
            q.param_bytes(),
            d.param_bytes()
        );
    }

    #[test]
    fn quantized_forward_tracks_f32_head() {
        let mut rng = StdRng::seed_from_u64(1);
        let gen = SceneGen::new(48);
        let frames = gen.subset_frames(&mut rng, Subset::Day, 60);
        let mut d = Detector::small(48, &mut rng);
        d.train_oracle(&mut rng, &frames, 200, 8);
        let q = QDetector::quantize(&d).expect("small quantizes");
        let img = gen.frame(&mut rng, Condition::new(Weather::Clear, TimeOfDay::Day)).image;
        let x = Image::batch(&[img]);
        let pf = d.forward(&x);
        let pq = q.forward(&x);
        assert_eq!(pf.shape(), pq.shape());
        let max_abs = pf.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let max_err =
            pf.data().iter().zip(pq.data()).fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs()));
        assert!(
            max_err < 0.15 * max_abs.max(1.0),
            "quantized head diverges: max_err {max_err}, f32 max {max_abs}"
        );
    }

    #[test]
    fn quantized_map_close_to_f32() {
        // Trained on real scenes, evaluated on held-out ones.
        let mut rng = StdRng::seed_from_u64(2);
        let gen = SceneGen::new(48);
        let frames = gen.subset_frames(&mut rng, Subset::Day, 120);
        let test = gen.subset_frames(&mut rng, Subset::Day, 30);
        let mut d = Detector::small(48, &mut rng);
        d.train_oracle(&mut rng, &frames, 700, 8);
        let q = QDetector::quantize(&d).expect("small quantizes");
        let mf = d.evaluate_map(&test);
        let mq = q.evaluate_map(&test);
        assert!(mq > mf - 0.05, "int8 mAP {mq} dropped more than 0.05 below f32 mAP {mf}");
    }

    #[test]
    fn quantization_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = Detector::small(48, &mut rng);
        let a = QDetector::quantize(&d).expect("small quantizes");
        let b = QDetector::quantize(&d).expect("small quantizes");
        let x = Tensor::ones(&[1, 3, 48, 48]);
        assert_eq!(a.forward(&x).data(), b.forward(&x).data());
    }

    #[test]
    fn detect_resizes_foreign_sizes() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = Detector::small(48, &mut rng);
        let q = QDetector::quantize(&d).expect("small quantizes");
        let img = Image::new(3, 64, 64);
        let _ = q.detect(&img); // must not panic
    }

    /// FNV-1a over the little-endian bit patterns of `values`.
    fn fnv1a(values: &[f32]) -> u64 {
        values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// The head output's bits for a fixed seed, recorded from the
    /// kernel this one replaced (four output channels per pass, a
    /// horizontal sum per channel): a change of layout or tiling must
    /// not move a single bit, on either dispatch path or thread count.
    #[test]
    fn forward_bits_are_pinned() {
        let mut rng = StdRng::seed_from_u64(7);
        let gen = SceneGen::new(48);
        let frames = gen.subset_frames(&mut rng, Subset::Day, 40);
        let mut d = Detector::small(48, &mut rng);
        d.train_oracle(&mut rng, &frames, 40, 8);
        let q = QDetector::quantize(&d).expect("small quantizes");
        let images: Vec<Image> = frames[..3].iter().map(|f| f.image.clone()).collect();
        let one = q.forward(&Image::batch(&images[..1]));
        let three = q.forward(&Image::batch(&images));
        assert_eq!(fnv1a(one.data()), 0xa366_89f3_94c3_ce29, "batch 1");
        assert_eq!(fnv1a(three.data()), 0xc5fb_9648_9a96_8f1b, "batch 3");
    }
}
