//! # duet-tensor
//!
//! Dense tensor and fixed-point arithmetic substrate for the DUET
//! dual-module accelerator reproduction.
//!
//! The crate provides:
//!
//! * [`Shape`] — row-major shapes with stride computation,
//! * [`Tensor`] — a contiguous `f32` tensor with the linear-algebra kernels
//!   the rest of the workspace needs ([`ops::matmul`], [`ops::gemv`], …),
//! * [`im2col`](im2col::im2col) — the convolution-to-GEMM lowering the paper
//!   uses to apply dual-module processing to CONV layers (§II-B),
//! * fixed-point types [`Fixed16Tensor`] and [`Int4Tensor`] mirroring the
//!   Executor's INT16-with-FP32-scale datapath and the Speculator's INT4
//!   datapath (§III-B),
//! * truncation quantization (16-bit → 4-bit keeps the four MSBs and scales
//!   by 2¹², §III-B step 1),
//! * [`parallel`] — the scoped `std::thread` data-parallelism layer behind
//!   the blocked GEMM/GEMV kernels (`DUET_NUM_THREADS` overrides the
//!   thread count),
//! * seeded in-tree RNG helpers ([`rng`]) and summary statistics used
//!   throughout the evaluation harness.
//!
//! # Example
//!
//! ```
//! use duet_tensor::{Tensor, ops};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = ops::matmul(&a, &b);
//! assert_eq!(c.data(), a.data());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixed;
pub mod im2col;
pub mod ops;
pub mod parallel;
pub mod quantize;
pub mod rng;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use fixed::{Fixed16Tensor, Int4Tensor};
pub use shape::Shape;
pub use tensor::Tensor;
