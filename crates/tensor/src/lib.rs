//! Minimal dense `f32` tensor library for the DMT model-quality experiments.
//!
//! The paper's quality results (Tables 2–6) require actually training DLRM/DCN-style
//! models; this crate provides the small, CPU-only numeric substrate those models are
//! built on: a contiguous row-major [`Tensor`], shape-checked elementwise and matrix
//! operations, and the random initializers the layers need.
//!
//! The design intentionally avoids a general autograd graph — the layers in `dmt-nn`
//! implement explicit forward/backward passes, which keeps the numeric core small and
//! easy to verify.
//!
//! # Example
//!
//! ```
//! use dmt_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
//! let b = Tensor::ones(&[3, 2]);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.data()[0], 6.0);
//! # Ok::<(), dmt_tensor::TensorError>(())
//! ```

#![deny(missing_docs)]

pub mod init;
pub mod isa;
pub mod kernels;
pub mod pairwise;
pub mod qgemm;
pub mod quant;
pub mod simd;
pub mod tensor;
#[cfg(test)]
mod testutil;

pub use init::{kaiming_uniform, xavier_uniform};
pub use isa::{with_tier, Tier};
pub use pairwise::PairwiseScratch;
pub use qgemm::{gemm_a_bt_q8, gemm_a_bt_q8_with, QGemmScratch, QuantizedBtMatrix};
pub use quant::Precision;
pub use simd::{prefetch_read, prefetch_read_span};
pub use tensor::{Tensor, TensorError};
