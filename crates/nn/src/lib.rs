//! # duet-nn
//!
//! A minimal trainable neural-network library built on [`duet_tensor`].
//!
//! The DUET paper assumes a full DNN training ecosystem (the authors train
//! accurate modules in a standard framework and distill approximate modules
//! from them). This crate is that substrate, implemented from scratch:
//!
//! * [`Activation`] — ReLU / sigmoid / tanh / GELU with derivatives and
//!   the noise-sensitivity analysis behind Fig. 1,
//! * [`Linear`], [`Conv2d`], [`MaxPool2d`] — layers with full backprop,
//! * [`LstmCell`], [`GruCell`] — recurrent cells with BPTT,
//! * [`loss`] — MSE and softmax cross-entropy (+ perplexity),
//! * [`Optimizer`] — SGD, SGD-with-momentum, and Adam,
//! * [`Sequential`] — a feed-forward network container with a training
//!   loop.
//!
//! # Example
//!
//! ```
//! use duet_nn::{Activation, Linear, Sequential};
//! use duet_tensor::rng;
//!
//! let mut r = rng::seeded(0);
//! let mut net = Sequential::new();
//! net.push_linear(Linear::new(4, 8, &mut r));
//! net.push_activation(Activation::Relu);
//! net.push_linear(Linear::new(8, 2, &mut r));
//!
//! let x = rng::normal(&mut r, &[3, 4], 0.0, 1.0); // batch of 3
//! let logits = net.forward(&x);
//! assert_eq!(logits.shape().dims(), &[3, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod attention;
pub mod conv;
pub mod gru;
pub mod init;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod lstm;
pub mod optim;
pub mod pool;
pub mod pruning;
pub mod sequential;

pub use activation::Activation;
pub use conv::Conv2d;
pub use gru::GruCell;
pub use layer::{Layer, Param};
pub use linear::Linear;
pub use lstm::LstmCell;
pub use optim::Optimizer;
pub use pool::MaxPool2d;
pub use sequential::Sequential;
