//! # odin-tensor
//!
//! A from-scratch CPU tensor and neural-network substrate for the ODIN
//! reproduction. Every model in the paper — the AE/AAE/DA-GAN generative
//! models of the drift DETECTOR and the YOLO-family object detectors of the
//! SPECIALIZER — is built and trained on this crate.
//!
//! Design notes:
//!
//! * **Layer-wise backprop, no autograd.** All of ODIN's networks are
//!   feed-forward stacks (plus adversarial alternation, which is just
//!   several stacks trained in turn). A [`Layer`] trait with explicit
//!   `forward`/`backward` keeps memory behaviour predictable and the
//!   implementation auditable.
//! * **Convolutions as one matrix multiply.** Every convolution product
//!   — the forward pass, training and inference alike, and the weight
//!   gradient — reads the zero-padded input in place (implicit GEMM)
//!   instead of an `im2col` matrix; inference also applies a following
//!   batch norm and activation in its output pass.
//! * **Determinism.** All initialization and sampling is seeded
//!   (`StdRng`), so every experiment in the bench harness is reproducible.
//! * **Deterministic parallelism.** Matmul, convolution and col2im
//!   kernels run on a persistent worker pool ([`par`]), partitioned over
//!   disjoint output row blocks whose boundaries depend only on the
//!   problem size.
//!   Results are bit-identical for any `ODIN_THREADS` value, including 1.
//! * **Zero-alloc hot path.** Tensors recycle their buffers through a
//!   thread-local scratch pool on drop, so steady-state forward/backward
//!   passes reuse memory instead of allocating.
//!
//! ## Quick example
//!
//! ```
//! use odin_tensor::{layers::{Dense, Relu}, loss, optim::{Adam, Optimizer},
//!                   Layer, Sequential, Tensor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Sequential::new()
//!     .push(Dense::new(2, 16, &mut rng))
//!     .push(Relu::new())
//!     .push(Dense::new(16, 1, &mut rng));
//! let mut opt = Adam::new(0.01);
//!
//! // Learn y = x0 + x1 on a tiny batch.
//! let x = Tensor::from_vec(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[4, 2]);
//! let t = Tensor::from_vec(vec![0.0, 1.0, 1.0, 2.0], &[4, 1]);
//! for _ in 0..300 {
//!     let y = net.forward(&x, true);
//!     let (_, grad) = loss::mse(&y, &t);
//!     net.backward(&grad);
//!     opt.step(&mut net.params_grads());
//!     net.zero_grad();
//! }
//! let y = net.forward(&x, false);
//! assert!((y.get(&[3, 0]) - 2.0).abs() < 0.2);
//! ```

#![warn(missing_docs)]

pub mod init;
mod layer;
pub mod layers;
pub mod loss;
pub mod ops;
pub mod optim;
pub mod par;
pub mod qtensor;
pub mod scratch;
pub mod simd;
mod tensor;

pub use layer::{Epilogue, Layer, Sequential};
pub use tensor::{Tensor, MAX_NDIM};
