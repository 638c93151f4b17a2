//! Lightweight DNN filters for approximate aggregation queries (§6.6,
//! Figure 10).
//!
//! A filter is a tiny binary CNN that predicts whether a frame contains
//! any object of a class; frames it rejects skip the heavyweight
//! detector entirely, trading a little query accuracy for throughput
//! (the probabilistic-predicates idea of Lu et al., adapted to drift:
//! ODIN-FILTER deploys one *specialized* filter per cluster, ODIN-PP a
//! single unspecialized one).

use odin_data::{Frame, Image, ObjectClass};
use odin_tensor::layers::{Conv2d, Dense, GlobalMaxPool, LeakyRelu};
use odin_tensor::optim::{Adam, Optimizer};
use odin_tensor::{loss, Layer, Sequential, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

/// A binary contains-class filter.
pub struct BinaryFilter {
    net: Sequential,
    opt: Adam,
    class: ObjectClass,
    size: usize,
    /// Decision threshold: frames with probability below it are skipped.
    pub threshold: f32,
}

impl BinaryFilter {
    /// Builds an untrained filter for `size`×`size` frames ("a DNN with 3
    /// convolutional layers is sufficient", §6.6).
    pub fn new(class: ObjectClass, size: usize, rng: &mut StdRng) -> Self {
        let net = Sequential::new()
            .push(Conv2d::k3(3, 6, 2, rng))
            .push(LeakyRelu::default())
            .push(Conv2d::k3(6, 8, 2, rng))
            .push(LeakyRelu::default())
            .push(Conv2d::k3(8, 12, 2, rng))
            .push(LeakyRelu::default())
            .push(GlobalMaxPool::new())
            .push(Dense::new(12, 1, rng));
        BinaryFilter { net, opt: Adam::new(2e-3), class, size, threshold: 0.4 }
    }

    /// The class this filter gates.
    pub fn class(&self) -> ObjectClass {
        self.class
    }

    /// Trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.net.num_params()
    }

    /// Probability that the frame contains at least one object of the
    /// filter's class.
    pub fn prob(&mut self, image: &Image) -> f32 {
        let img = if image.height() == self.size && image.width() == self.size {
            image.clone()
        } else {
            image.resize_nearest(self.size, self.size)
        };
        let out = self.net.forward(&img.to_batch_tensor(), false);
        odin_tensor::ops::sigmoid(out.data()[0])
    }

    /// The boolean gate: should the heavyweight model process this frame?
    pub fn pass(&mut self, image: &Image) -> bool {
        self.prob(image) >= self.threshold
    }

    /// Trains the filter on frames labeled by ground-truth presence of
    /// the class.
    pub fn train(
        &mut self,
        rng: &mut StdRng,
        frames: &[Frame],
        iters: usize,
        batch_size: usize,
    ) -> Vec<f32> {
        assert!(!frames.is_empty(), "cannot train a filter on zero frames");
        (0..iters)
            .map(|_| {
                let picks: Vec<&Frame> =
                    (0..batch_size).map(|_| &frames[rng.gen_range(0..frames.len())]).collect();
                let images: Vec<Image> = picks.iter().map(|f| f.image.clone()).collect();
                let batch = Image::batch(&images);
                let targets =
                    Tensor::from_vec(
                        picks
                            .iter()
                            .map(|f| {
                                if f.boxes.iter().any(|b| b.class == self.class) {
                                    1.0
                                } else {
                                    0.0
                                }
                            })
                            .collect(),
                        &[batch_size, 1],
                    );
                let logits = self.net.forward(&batch, true);
                let (l, grad) = loss::bce_with_logits(&logits, &targets);
                self.net.backward_params(&grad);
                self.opt.step(&mut self.net.params_grads());
                self.net.zero_grad();
                l
            })
            .collect()
    }

    /// Filter accuracy (fraction of frames whose gate decision matches
    /// ground truth).
    pub fn accuracy(&mut self, frames: &[Frame]) -> f32 {
        if frames.is_empty() {
            return 1.0;
        }
        let correct = frames
            .iter()
            .filter(|f| {
                let truth = f.boxes.iter().any(|b| b.class == self.class);
                self.pass(&f.image) == truth
            })
            .count();
        correct as f32 / frames.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odin_data::{SceneGen, Subset};
    use rand::SeedableRng;

    #[test]
    fn filter_is_tiny() {
        let mut rng = StdRng::seed_from_u64(0);
        let f = BinaryFilter::new(ObjectClass::Car, 48, &mut rng);
        assert!(f.num_params() < 3000, "filter has {} params; should be tiny", f.num_params());
    }

    #[test]
    fn training_improves_gate_accuracy() {
        let mut rng = StdRng::seed_from_u64(1);
        let gen = SceneGen::new(48);
        let frames = gen.subset_frames(&mut rng, Subset::Day, 120);
        let test = gen.subset_frames(&mut rng, Subset::Day, 40);
        let mut filter = BinaryFilter::new(ObjectClass::Truck, 48, &mut rng);
        let before = filter.accuracy(&test);
        filter.train(&mut rng, &frames, 250, 8);
        let after = filter.accuracy(&test);
        assert!(after >= before, "filter accuracy regressed: {before} -> {after}");
        assert!(after > 0.5, "trained filter accuracy {after} is no better than chance");
    }

    #[test]
    fn prob_is_a_probability() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut f = BinaryFilter::new(ObjectClass::Car, 48, &mut rng);
        let p = f.prob(&Image::new(3, 48, 48));
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn foreign_sizes_are_resized() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut f = BinaryFilter::new(ObjectClass::Car, 48, &mut rng);
        let _ = f.prob(&Image::new(3, 64, 64));
    }
}
