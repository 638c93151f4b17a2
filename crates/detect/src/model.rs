//! The YOLO-sim detector family (§5.2 of the paper).
//!
//! Three roles, two architectures:
//!
//! * **YoloSim** (heavyweight): a deep, wide backbone — the stand-in for
//!   YOLOv3's 24-conv-layer network. Accurate but slow and large.
//! * **YoloSpecialized**: a pruned backbone trained *from scratch* on one
//!   cluster's data with oracle labels.
//! * **YoloLite**: the same pruned backbone, but distilled from a teacher
//!   (trained on the teacher's *outputs*, no oracle labels needed).
//!
//! The paper's YOLOv3 has ~62M parameters (237 MB); CPU training at that
//! scale is not feasible, so both architectures are scaled down while
//! preserving the heavy-to-small parameter and depth ratio (~7×) that
//! drives Table 4's throughput/memory results.

use std::fmt;

use odin_data::{Frame, GtBox, Image};
use odin_tensor::layers::{BatchNorm2d, Conv2d, LeakyRelu};
use odin_tensor::optim::{Adam, Optimizer};
use odin_tensor::{Layer, Sequential, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

use crate::head::{build_targets, decode, detector_loss, Detection, LossWeights, HEAD_CHANNELS};
use crate::map::mean_average_precision;
use crate::nms::nms;

/// Detector backbone architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorArch {
    /// The heavyweight YoloSim backbone.
    Heavy,
    /// The pruned backbone shared by YoloSpecialized and YoloLite.
    Small,
}

impl fmt::Display for DetectorArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectorArch::Heavy => write!(f, "YoloSim"),
            DetectorArch::Small => write!(f, "YoloSmall"),
        }
    }
}

/// Default confidence threshold used at inference.
pub const DEFAULT_CONF: f32 = 0.35;
/// Default NMS IoU threshold.
pub const DEFAULT_NMS_IOU: f32 = 0.45;
/// Negative slope of the backbone activations (`LeakyRelu::default()`).
pub(crate) const LEAKY_SLOPE: f32 = 0.2;

/// The Small backbone's conv stack: `(in_c, out_c, kernel, stride, pad,
/// fused leaky-ReLU)` per layer. [`Detector::small`] builds the f32 net
/// from this table and `QDetector::quantize` uses it to slice the flat
/// [`Detector::export_params`] buffer, so the two can never drift apart
/// (and the kernel bench times these shapes, whatever they become).
pub const SMALL_CONVS: [(usize, usize, usize, usize, usize, bool); 4] = [
    (3, 16, 3, 2, 1, true),
    (16, 32, 3, 2, 1, true),
    (32, 40, 3, 2, 1, true),
    (40, HEAD_CHANNELS, 1, 1, 0, false),
];

/// A grid object detector.
pub struct Detector {
    net: Sequential,
    arch: DetectorArch,
    size: usize,
    grid: usize,
    opt: Adam,
    weights: LossWeights,
    /// Confidence threshold applied in [`Detector::detect`].
    pub conf_threshold: f32,
}

impl Detector {
    /// Builds the heavyweight YoloSim detector for `size`×`size` frames.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not divisible by 8.
    pub fn heavy(size: usize, rng: &mut StdRng) -> Self {
        assert_eq!(size % 8, 0, "frame size must be divisible by 8");
        // Batch-normalized, like the original YOLO backbone; the pruned
        // models below drop BN per §5.2.
        let net = Sequential::new()
            .push(Conv2d::k3(3, 24, 2, rng))
            .push(BatchNorm2d::new(24))
            .push(LeakyRelu::default())
            .push(Conv2d::k3(24, 48, 2, rng))
            .push(BatchNorm2d::new(48))
            .push(LeakyRelu::default())
            .push(Conv2d::k3(48, 64, 1, rng))
            .push(BatchNorm2d::new(64))
            .push(LeakyRelu::default())
            .push(Conv2d::k3(64, 64, 2, rng))
            .push(BatchNorm2d::new(64))
            .push(LeakyRelu::default())
            .push(Conv2d::k3(64, 64, 1, rng))
            .push(BatchNorm2d::new(64))
            .push(LeakyRelu::default())
            .push(Conv2d::new(64, HEAD_CHANNELS, 1, 1, 0, rng));
        Detector {
            net,
            arch: DetectorArch::Heavy,
            size,
            grid: size / 8,
            opt: Adam::new(1e-3),
            weights: LossWeights::default(),
            conf_threshold: DEFAULT_CONF,
        }
    }

    /// Builds the pruned small detector (YoloSpecialized / YoloLite
    /// architecture). Per §5.2 the pruned model drops several conv layers
    /// (and batch norm, which these models never had to begin with).
    pub fn small(size: usize, rng: &mut StdRng) -> Self {
        assert_eq!(size % 8, 0, "frame size must be divisible by 8");
        // Activations are fused into the convs (no BN between conv and
        // activation here, unlike the heavy backbone): same RNG draws,
        // same parameter layout, bit-identical outputs — just one output
        // sweep per conv instead of three on the serving hot path.
        let mut net = Sequential::new();
        for &(in_c, out_c, kernel, stride, pad, leaky) in SMALL_CONVS.iter() {
            let conv = Conv2d::new(in_c, out_c, kernel, stride, pad, rng);
            net = net.push(if leaky { conv.fuse_leaky_relu(LEAKY_SLOPE) } else { conv });
        }
        Detector {
            net,
            arch: DetectorArch::Small,
            size,
            grid: size / 8,
            opt: Adam::new(1.5e-3),
            weights: LossWeights::default(),
            conf_threshold: DEFAULT_CONF,
        }
    }

    /// The architecture of this detector.
    pub fn arch(&self) -> DetectorArch {
        self.arch
    }

    /// Frame side length expected by the detector.
    pub fn input_size(&self) -> usize {
        self.size
    }

    /// Trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.net.num_params()
    }

    /// Model size in bytes (f32 parameters) — the "memory footprint" of
    /// Table 4.
    pub fn param_bytes(&self) -> usize {
        self.net.param_bytes()
    }

    /// Raw head output for a `[B, 3, s, s]` batch.
    ///
    /// Inference is const-correct (`&self`): a frozen detector can be
    /// shared behind an `Arc` and serve several threads concurrently —
    /// e.g. the teacher feeding background distillation workers.
    pub fn forward(&self, batch: &Tensor) -> Tensor {
        self.net.infer(batch)
    }

    /// Runs detection (decode + NMS) on a batch of frames.
    pub fn detect_batch(&self, images: &[&Image]) -> Vec<Vec<Detection>> {
        let batch = Image::batch_resized(images, self.size, self.size);
        let pred = self.net.infer(&batch);
        decode(&pred, self.size, self.conf_threshold)
            .into_iter()
            .map(|d| nms(d, DEFAULT_NMS_IOU))
            .collect()
    }

    /// Runs detection on one frame.
    pub fn detect(&self, image: &Image) -> Vec<Detection> {
        self.detect_batch(&[image]).pop().expect("one frame in, one out")
    }

    /// One gradient step against explicit per-frame box labels.
    pub fn train_step(&mut self, batch: &Tensor, boxes: &[&[GtBox]]) -> f32 {
        let targets = build_targets(boxes, self.grid, self.size);
        let pred = self.net.forward(batch, true);
        let (loss, grad) = detector_loss(&pred, &targets, &self.weights);
        self.net.backward_params(&grad);
        self.opt.step(&mut self.net.params_grads());
        self.net.zero_grad();
        loss
    }

    /// Trains against oracle (ground-truth) labels — how SPECIALIZER
    /// builds a YoloSpecialized model once labels are available.
    pub fn train_oracle(
        &mut self,
        rng: &mut StdRng,
        frames: &[Frame],
        iters: usize,
        batch_size: usize,
    ) -> Vec<f32> {
        assert!(!frames.is_empty(), "cannot train on zero frames");
        (0..iters)
            .map(|_| {
                let picks: Vec<&Frame> =
                    (0..batch_size).map(|_| &frames[rng.gen_range(0..frames.len())]).collect();
                let images: Vec<&Image> = picks.iter().map(|f| &f.image).collect();
                let batch = Image::batch_resized(&images, self.size, self.size);
                let boxes: Vec<&[GtBox]> = picks.iter().map(|f| f.boxes.as_slice()).collect();
                self.train_step(&batch, &boxes)
            })
            .collect()
    }

    /// Trains against a teacher's outputs (knowledge distillation) — how
    /// SPECIALIZER builds a YoloLite model *before* oracle labels arrive.
    pub fn train_distill(
        &mut self,
        rng: &mut StdRng,
        teacher: &Detector,
        frames: &[Frame],
        iters: usize,
        batch_size: usize,
    ) -> Vec<f32> {
        assert!(!frames.is_empty(), "cannot distill on zero frames");
        assert_eq!(teacher.size, self.size, "teacher/student input size mismatch");
        (0..iters)
            .map(|_| {
                let picks: Vec<&Frame> =
                    (0..batch_size).map(|_| &frames[rng.gen_range(0..frames.len())]).collect();
                let images: Vec<&Image> = picks.iter().map(|f| &f.image).collect();
                // Teacher pseudo-labels replace the oracle.
                let pseudo: Vec<Vec<GtBox>> = teacher
                    .detect_batch(&images)
                    .into_iter()
                    .map(|dets| dets.into_iter().map(|d| d.bbox).collect())
                    .collect();
                let batch = Image::batch_resized(&images, self.size, self.size);
                let boxes: Vec<&[GtBox]> = pseudo.iter().map(|v| v.as_slice()).collect();
                self.train_step(&batch, &boxes)
            })
            .collect()
    }

    /// Evaluates mAP against ground truth over a set of frames.
    pub fn evaluate_map(&self, frames: &[Frame]) -> f32 {
        if frames.is_empty() {
            return 0.0;
        }
        let mut all_dets = Vec::with_capacity(frames.len());
        // Batch in chunks to bound memory.
        for chunk in frames.chunks(16) {
            let images: Vec<&Image> = chunk.iter().map(|f| &f.image).collect();
            all_dets.extend(self.detect_batch(&images));
        }
        let gts: Vec<&[GtBox]> = frames.iter().map(|f| f.boxes.as_slice()).collect();
        mean_average_precision(&all_dets, &gts, crate::map::MAP_IOU)
    }

    /// Serialized buffer length (parameters + batch-norm running stats).
    pub fn export_len(&self) -> usize {
        self.net.export_len()
    }

    /// Exports parameters and non-trainable state (for model-registry
    /// snapshots and caches).
    pub fn export_params(&self) -> Vec<f32> {
        self.net.export_params()
    }

    /// Imports parameters produced by [`Detector::export_params`] on a
    /// same-architecture detector.
    pub fn import_params(&mut self, flat: &[f32]) {
        self.net.import_params(flat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odin_data::{Condition, SceneGen, Subset, TimeOfDay, Weather};
    use rand::SeedableRng;

    #[test]
    fn heavy_is_much_larger_than_small() {
        let mut rng = StdRng::seed_from_u64(0);
        let heavy = Detector::heavy(48, &mut rng);
        let small = Detector::small(48, &mut rng);
        let ratio = heavy.num_params() as f32 / small.num_params() as f32;
        assert!(
            (5.0..14.0).contains(&ratio),
            "heavy/small parameter ratio {ratio} out of the paper's ballpark (~7x)"
        );
    }

    #[test]
    fn forward_has_head_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Detector::small(48, &mut rng);
        let out = d.forward(&Tensor::zeros(&[2, 3, 48, 48]));
        assert_eq!(out.shape(), &[2, HEAD_CHANNELS, 6, 6]);
    }

    #[test]
    fn training_reduces_detection_loss() {
        let mut rng = StdRng::seed_from_u64(2);
        let gen = SceneGen::new(48);
        let frames: Vec<Frame> = (0..20)
            .map(|_| gen.frame(&mut rng, Condition::new(Weather::Clear, TimeOfDay::Day)))
            .collect();
        let mut d = Detector::small(48, &mut rng);
        let trace = d.train_oracle(&mut rng, &frames, 60, 8);
        let head: f32 = trace[..5].iter().sum::<f32>() / 5.0;
        let tail: f32 = trace[trace.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(tail < head, "loss did not drop: {head} -> {tail}");
    }

    #[test]
    fn trained_detector_beats_untrained_map() {
        let mut rng = StdRng::seed_from_u64(3);
        let gen = SceneGen::new(48);
        let frames = gen.subset_frames(&mut rng, Subset::Day, 120);
        let test = gen.subset_frames(&mut rng, Subset::Day, 30);
        let mut trained = Detector::small(48, &mut rng);
        let untrained = Detector::small(48, &mut rng);
        trained.train_oracle(&mut rng, &frames, 700, 8);
        let m_trained = trained.evaluate_map(&test);
        let m_untrained = untrained.evaluate_map(&test);
        assert!(
            m_trained > m_untrained + 0.05,
            "training did not help: {m_untrained} -> {m_trained}"
        );
        assert!(m_trained > 0.1, "trained mAP {m_trained} too low");
    }

    #[test]
    fn distillation_transfers_teacher_behaviour() {
        let mut rng = StdRng::seed_from_u64(4);
        let gen = SceneGen::new(48);
        let frames = gen.subset_frames(&mut rng, Subset::Day, 120);
        let test = gen.subset_frames(&mut rng, Subset::Day, 30);
        let mut teacher = Detector::small(48, &mut rng); // small teacher keeps the test fast
        teacher.train_oracle(&mut rng, &frames, 700, 8);
        let mut student = Detector::small(48, &mut rng);
        student.train_distill(&mut rng, &teacher, &frames, 400, 8);
        let m_student = student.evaluate_map(&test);
        let fresh = Detector::small(48, &mut rng);
        let m_fresh = fresh.evaluate_map(&test);
        assert!(
            m_student > m_fresh,
            "distilled student ({m_student}) no better than untrained ({m_fresh})"
        );
    }

    #[test]
    fn export_import_roundtrip_preserves_outputs() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Detector::small(48, &mut rng);
        let mut b = Detector::small(48, &mut rng);
        let x = Tensor::ones(&[1, 3, 48, 48]);
        let blob = a.export_params();
        b.import_params(&blob);
        assert_eq!(a.forward(&x).data(), b.forward(&x).data());
    }

    #[test]
    fn shared_detector_first_used_by_two_threads_at_once_agrees() {
        // The layers build their packed weights on first use, through
        // `&self`: two threads racing on a never-used shared detector
        // must both see the result a private, warmed-up copy gives.
        let build = || {
            let mut d = Detector::heavy(48, &mut StdRng::seed_from_u64(7));
            d.conf_threshold = 0.0; // untrained: keep every cell's box
            d
        };
        let gen = SceneGen::new(48);
        let frame = gen
            .frame(&mut StdRng::seed_from_u64(8), Condition::new(Weather::Clear, TimeOfDay::Day));
        let reference = build();
        let _ = reference.detect(&frame.image);
        let want = reference.detect(&frame.image);
        assert!(!want.is_empty(), "threshold 0 must yield detections to compare");

        let shared = std::sync::Arc::new(build());
        let gate = std::sync::Barrier::new(2);
        let got: Vec<Vec<Detection>> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        shared.detect(&frame.image)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().expect("racer")).collect()
        });
        assert_eq!(got[0], want);
        assert_eq!(got[1], want);
    }

    #[test]
    fn detect_resizes_foreign_sizes() {
        let mut rng = StdRng::seed_from_u64(6);
        let d = Detector::small(48, &mut rng);
        let img = Image::new(3, 64, 64);
        let _ = d.detect(&img); // must not panic
    }
}
