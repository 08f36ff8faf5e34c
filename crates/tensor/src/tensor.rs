//! The dense row-major `f32` tensor and its operations.

use crate::kernels;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced by shape-checked tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The provided data length does not match the product of the shape.
    ShapeDataMismatch {
        /// Requested shape.
        shape: Vec<usize>,
        /// Length of the provided data.
        data_len: usize,
    },
    /// Two tensors had incompatible shapes for the attempted operation.
    ShapeMismatch {
        /// Description of the operation.
        op: &'static str,
        /// Left-hand shape.
        lhs: Vec<usize>,
        /// Right-hand shape.
        rhs: Vec<usize>,
    },
    /// The operation requires a different rank (number of dimensions).
    RankMismatch {
        /// Description of the operation.
        op: &'static str,
        /// Expected rank.
        expected: usize,
        /// Actual rank.
        actual: usize,
    },
    /// An index or dimension argument was out of bounds.
    IndexOutOfBounds {
        /// Description of the operation.
        op: &'static str,
        /// The offending index.
        index: usize,
        /// The bound it violated.
        bound: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeDataMismatch { shape, data_len } => {
                write!(
                    f,
                    "shape {shape:?} requires {} elements but {data_len} were provided",
                    shape.iter().product::<usize>()
                )
            }
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: incompatible shapes {lhs:?} and {rhs:?}")
            }
            TensorError::RankMismatch {
                op,
                expected,
                actual,
            } => {
                write!(f, "{op}: expected rank {expected}, got {actual}")
            }
            TensorError::IndexOutOfBounds { op, index, bound } => {
                write!(f, "{op}: index {index} out of bounds ({bound})")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// `(rows, cols)` of one matrix operand.
type MatDims = (usize, usize);

/// A dense, contiguous, row-major `f32` tensor.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

/// `clone_from` reuses the destination's buffers, so a caller-owned buffer
/// refilled every step copies into last step's allocation.
impl Clone for Tensor {
    fn clone(&self) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.shape.clone_from(&source.shape);
        self.data.clone_from(&source.data);
    }
}

/// The default tensor is the empty `[0]` vector — the natural seed for
/// reusable `*_into` output buffers, which reshape on first use.
impl Default for Tensor {
    fn default() -> Self {
        Self {
            shape: vec![0],
            data: Vec::new(),
        }
    }
}

impl Tensor {
    /// Creates a tensor from a shape and row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` does not equal the
    /// product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                shape,
                data_len: data.len(),
            });
        }
        Ok(Self { shape, data })
    }

    /// A tensor filled with zeros.
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// A tensor filled with ones.
    #[must_use]
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Reshapes `self` in place to `shape` and zero-fills the data — the
    /// reusable-output idiom of the `*_into` kernels. Allocation-free once the
    /// buffer's capacity has grown to `shape`'s element count.
    pub fn reset_to_shape(&mut self, shape: &[usize]) {
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        let len = shape.iter().product();
        self.data.clear();
        self.data.resize(len, 0.0);
    }

    /// A tensor filled with `value`.
    #[must_use]
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self {
            shape: shape.to_vec(),
            data: vec![value; shape.iter().product()],
        }
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of dimensions.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Borrow of the underlying row-major data.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major data.
    #[must_use]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its data buffer.
    #[must_use]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the new shape does not preserve
    /// the number of elements.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self, TensorError> {
        Self::from_vec(shape.to_vec(), self.data.clone())
    }

    /// Gives the data a new shape with the same element count, in place (no
    /// copy, and no allocation for shapes of rank ≤ the current rank).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the new shape does not
    /// preserve the number of elements.
    pub fn reshape_in_place(&mut self, shape: &[usize]) -> Result<(), TensorError> {
        if shape.iter().product::<usize>() != self.data.len() {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                data_len: self.data.len(),
            });
        }
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        Ok(())
    }

    /// Element at a 2-D position. Only valid for rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the indices are out of bounds.
    #[must_use]
    pub fn at(&self, row: usize, col: usize) -> f32 {
        assert_eq!(self.rank(), 2, "at() requires a rank-2 tensor");
        self.data[row * self.shape[1] + col]
    }

    /// Sets the element at a 2-D position. Only valid for rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the indices are out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert_eq!(self.rank(), 2, "set() requires a rank-2 tensor");
        let cols = self.shape[1];
        self.data[row * cols + col] = value;
    }

    fn check_same_shape(&self, other: &Self, op: &'static str) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        Ok(())
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Self) -> Result<Self, TensorError> {
        self.check_same_shape(other, "add")?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Self {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Self) -> Result<Self, TensorError> {
        self.check_same_shape(other, "sub")?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Self {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Self) -> Result<Self, TensorError> {
        self.check_same_shape(other, "mul")?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Ok(Self {
            shape: self.shape.clone(),
            data,
        })
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Self) -> Result<(), TensorError> {
        self.check_same_shape(other, "axpy")?;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiplies every element by `scalar`, returning a new tensor.
    #[must_use]
    pub fn scale(&self, scalar: f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|x| x * scalar).collect(),
        }
    }

    /// Applies `f` to every element, returning a new tensor.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    #[must_use]
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Dot product of two tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn dot(&self, other: &Self) -> Result<f32, TensorError> {
        if self.len() != other.len() {
            return Err(TensorError::ShapeMismatch {
                op: "dot",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        Ok(self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum())
    }

    /// L2 norm of the tensor viewed as a flat vector.
    #[must_use]
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Checks that `self` and `other` are matrices with compatible `[m, k] x [k2, n]`
    /// shapes for `op`, where the caller interprets `k`/`k2` according to the kernel
    /// (e.g. for `AᵀB` the *row* counts must agree). Returns `(rows, cols)` of each.
    fn matmul_dims(
        &self,
        other: &Self,
        op: &'static str,
    ) -> Result<(MatDims, MatDims), TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op,
                expected: 2,
                actual: self.rank(),
            });
        }
        if other.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op,
                expected: 2,
                actual: other.rank(),
            });
        }
        Ok((
            (self.shape[0], self.shape[1]),
            (other.shape[0], other.shape[1]),
        ))
    }

    /// Matrix multiplication of two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// Dispatches to the cache-blocked kernel in [`crate::kernels`], which tiles the
    /// loops for locality and parallelizes large shapes across threads.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
    pub fn matmul(&self, other: &Self) -> Result<Self, TensorError> {
        let ((m, k), (k2, n)) = self.matmul_dims(other, "matmul")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        kernels::gemm(&self.data, &other.data, &mut out, m, k, n);
        Ok(Self {
            shape: vec![m, n],
            data: out,
        })
    }

    /// Fused `self · weight + bias` with the bias row broadcast over every output row:
    /// `[m, k] x [k, n] + [n] -> [m, n]`.
    ///
    /// Single-pass: every output element's fma chain is seeded directly from its bias
    /// value inside the kernel ([`kernels::gemm_fused_bias`]), so no intermediate
    /// product tensor or separate bias broadcast pass exists. Bit-identical to
    /// broadcasting the bias and accumulating a GEMM on top.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`] if the
    /// operands are not conforming matrices or `bias` is not a length-`n` vector.
    pub fn matmul_bias(&self, weight: &Self, bias: &Self) -> Result<Self, TensorError> {
        let mut out = Self::zeros(&[0]);
        self.matmul_bias_act_into(weight, bias, false, &mut out)?;
        Ok(out)
    }

    /// [`Tensor::matmul_bias`] with an optional fused ReLU epilogue, writing into a
    /// caller-owned output tensor (reshaped and overwritten; its buffer is reused) —
    /// the allocation-free linear-layer forward the serving hot path uses.
    ///
    /// The fused ReLU (`if v > 0.0 { v } else { 0.0 }`) is bit-identical to applying
    /// [`Tensor::map`]-style ReLU over the un-fused result.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`] if the
    /// operands are not conforming matrices or `bias` is not a length-`n` vector.
    pub fn matmul_bias_act_into(
        &self,
        weight: &Self,
        bias: &Self,
        relu: bool,
        out: &mut Self,
    ) -> Result<(), TensorError> {
        let ((m, k), (k2, n)) = self.matmul_dims(weight, "matmul_bias")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_bias",
                lhs: self.shape.clone(),
                rhs: weight.shape.clone(),
            });
        }
        if bias.rank() != 1 {
            return Err(TensorError::RankMismatch {
                op: "matmul_bias",
                expected: 1,
                actual: bias.rank(),
            });
        }
        if bias.shape[0] != n {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_bias",
                lhs: weight.shape.clone(),
                rhs: bias.shape.clone(),
            });
        }
        out.reset_to_shape(&[m, n]);
        kernels::gemm_fused_bias(
            &self.data,
            &weight.data,
            &bias.data,
            &mut out.data,
            m,
            k,
            n,
            relu,
        );
        Ok(())
    }

    /// Fused `selfᵀ · other` without materializing the transpose:
    /// `[m, r]ᵀ x [m, n] -> [r, n]`.
    ///
    /// This is the weight-gradient product of a linear layer (`dW = xᵀ·dy`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::ShapeMismatch`] if the row counts disagree.
    pub fn matmul_at_b(&self, other: &Self) -> Result<Self, TensorError> {
        let mut out = Self::default();
        self.matmul_at_b_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Tensor::matmul_at_b`] into a caller-owned tensor, reshaped and
    /// zero-filled first (allocation-free once its capacity has grown).
    ///
    /// # Errors
    ///
    /// Same contract as [`Tensor::matmul_at_b`].
    pub fn matmul_at_b_into(&self, other: &Self, out: &mut Self) -> Result<(), TensorError> {
        let ((m, r), (m2, n)) = self.matmul_dims(other, "matmul_at_b")?;
        if m != m2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_at_b",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        out.reset_to_shape(&[r, n]);
        kernels::gemm_at_b(&self.data, &other.data, &mut out.data, m, r, n);
        Ok(())
    }

    /// Fused `self · otherᵀ` without materializing the transpose:
    /// `[m, k] x [n, k]ᵀ -> [m, n]`.
    ///
    /// This is the input-gradient product of a linear layer (`dx = dy·Wᵀ`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::ShapeMismatch`] if the shared inner widths disagree.
    pub fn matmul_a_bt(&self, other: &Self) -> Result<Self, TensorError> {
        let mut out = Self::default();
        self.matmul_a_bt_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Tensor::matmul_a_bt`] into a caller-owned tensor, reshaped and
    /// zero-filled first (allocation-free once its capacity has grown).
    ///
    /// # Errors
    ///
    /// Same contract as [`Tensor::matmul_a_bt`].
    pub fn matmul_a_bt_into(&self, other: &Self, out: &mut Self) -> Result<(), TensorError> {
        let ((m, k), (n, k2)) = self.matmul_dims(other, "matmul_a_bt")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_a_bt",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        out.reset_to_shape(&[m, n]);
        kernels::gemm_a_bt(&self.data, &other.data, &mut out.data, m, k, n);
        Ok(())
    }

    /// Fused elementwise `self ⊙ a + b` in a single pass (no intermediate product
    /// tensor) — the DCN cross-layer update `x_{l+1} = x_0 ⊙ u_l + x_l`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul_add(&self, a: &Self, b: &Self) -> Result<Self, TensorError> {
        self.check_same_shape(a, "mul_add")?;
        self.check_same_shape(b, "mul_add")?;
        let data = self
            .data
            .iter()
            .zip(&a.data)
            .zip(&b.data)
            .map(|((&x, &y), &z)| x * y + z)
            .collect();
        Ok(Self {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn transpose(&self) -> Result<Self, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Ok(Self {
            shape: vec![n, m],
            data: out,
        })
    }

    /// Concatenates rank-2 tensors along the column dimension (dim 1). All inputs must
    /// have the same number of rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if row counts differ,
    /// [`TensorError::RankMismatch`] for non-matrices, and
    /// [`TensorError::IndexOutOfBounds`] for an empty input list.
    pub fn concat_cols(tensors: &[&Self]) -> Result<Self, TensorError> {
        if tensors.is_empty() {
            return Err(TensorError::IndexOutOfBounds {
                op: "concat_cols",
                index: 0,
                bound: 0,
            });
        }
        let rows = tensors[0].shape.first().copied().unwrap_or(0);
        for t in tensors {
            if t.rank() != 2 {
                return Err(TensorError::RankMismatch {
                    op: "concat_cols",
                    expected: 2,
                    actual: t.rank(),
                });
            }
            if t.shape[0] != rows {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_cols",
                    lhs: tensors[0].shape.clone(),
                    rhs: t.shape.clone(),
                });
            }
        }
        let total_cols: usize = tensors.iter().map(|t| t.shape[1]).sum();
        let mut data = Vec::with_capacity(rows * total_cols);
        for r in 0..rows {
            for t in tensors {
                let cols = t.shape[1];
                data.extend_from_slice(&t.data[r * cols..(r + 1) * cols]);
            }
        }
        Ok(Self {
            shape: vec![rows, total_cols],
            data,
        })
    }

    /// [`Tensor::concat_cols`] into a caller-owned tensor: `out` is overwritten
    /// (shape and data) without allocating once its buffer capacity has grown to
    /// the batch shape — the serving hot path's allocation-free form.
    ///
    /// # Errors
    ///
    /// Same contract as [`Tensor::concat_cols`].
    pub fn concat_cols_into(tensors: &[&Self], out: &mut Self) -> Result<(), TensorError> {
        if tensors.is_empty() {
            return Err(TensorError::IndexOutOfBounds {
                op: "concat_cols",
                index: 0,
                bound: 0,
            });
        }
        let rows = tensors[0].shape.first().copied().unwrap_or(0);
        for t in tensors {
            if t.rank() != 2 {
                return Err(TensorError::RankMismatch {
                    op: "concat_cols",
                    expected: 2,
                    actual: t.rank(),
                });
            }
            if t.shape[0] != rows {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_cols",
                    lhs: tensors[0].shape.clone(),
                    rhs: t.shape.clone(),
                });
            }
        }
        let total_cols: usize = tensors.iter().map(|t| t.shape[1]).sum();
        out.shape.clear();
        out.shape.extend_from_slice(&[rows, total_cols]);
        out.data.clear();
        out.data.reserve(rows * total_cols);
        for r in 0..rows {
            for t in tensors {
                let cols = t.shape[1];
                out.data
                    .extend_from_slice(&t.data[r * cols..(r + 1) * cols]);
            }
        }
        Ok(())
    }

    /// [`Tensor::mul_add`] into a caller-owned tensor (same elementwise float
    /// path, allocation-free once `out`'s capacity has grown to the shape).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul_add_into(&self, a: &Self, b: &Self, out: &mut Self) -> Result<(), TensorError> {
        self.check_same_shape(a, "mul_add")?;
        self.check_same_shape(b, "mul_add")?;
        out.shape.clear();
        out.shape.extend_from_slice(&self.shape);
        out.data.clear();
        out.data.extend(
            self.data
                .iter()
                .zip(&a.data)
                .zip(&b.data)
                .map(|((&x, &y), &z)| x * y + z),
        );
        Ok(())
    }

    /// Columns `start .. start + width` of a rank-2 tensor, copied into `out`
    /// as `[rows, width]` — the allocation-free column-range read.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::IndexOutOfBounds`] if the range exceeds the column count.
    pub fn cols_into(&self, start: usize, width: usize, out: &mut Self) -> Result<(), TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "cols_into",
                expected: 2,
                actual: self.rank(),
            });
        }
        let cols = self.shape[1];
        if start + width > cols {
            return Err(TensorError::IndexOutOfBounds {
                op: "cols_into",
                index: start + width,
                bound: cols,
            });
        }
        out.shape.clear();
        out.shape.extend_from_slice(&[self.shape[0], width]);
        out.data.clear();
        for row in self.data.chunks_exact(cols.max(1)) {
            out.data.extend_from_slice(&row[start..start + width]);
        }
        Ok(())
    }

    /// Splits a rank-2 tensor column-wise into pieces of the given widths.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the widths do not sum to the column
    /// count, or [`TensorError::RankMismatch`] for non-matrices.
    pub fn split_cols(&self, widths: &[usize]) -> Result<Vec<Self>, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "split_cols",
                expected: 2,
                actual: self.rank(),
            });
        }
        let total: usize = widths.iter().sum();
        if total != self.shape[1] {
            return Err(TensorError::ShapeMismatch {
                op: "split_cols",
                lhs: self.shape.clone(),
                rhs: vec![self.shape[0], total],
            });
        }
        let rows = self.shape[0];
        let cols = self.shape[1];
        let mut bufs: Vec<Vec<f32>> = widths
            .iter()
            .map(|w| Vec::with_capacity(rows * w))
            .collect();
        for r in 0..rows {
            let mut offset = 0;
            for (buf, w) in bufs.iter_mut().zip(widths) {
                buf.extend_from_slice(&self.data[r * cols + offset..r * cols + offset + w]);
                offset += w;
            }
        }
        Ok(bufs
            .into_iter()
            .zip(widths)
            .map(|(data, &w)| Self {
                shape: vec![rows, w],
                data,
            })
            .collect())
    }

    /// Returns the rows `[start, start + count)` of a rank-2 tensor as a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the range exceeds the row count,
    /// or [`TensorError::RankMismatch`] for non-matrices.
    pub fn slice_rows(&self, start: usize, count: usize) -> Result<Self, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "slice_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let rows = self.shape[0];
        if start + count > rows {
            return Err(TensorError::IndexOutOfBounds {
                op: "slice_rows",
                index: start + count,
                bound: rows,
            });
        }
        let cols = self.shape[1];
        let data = self.data[start * cols..(start + count) * cols].to_vec();
        Ok(Self {
            shape: vec![count, cols],
            data,
        })
    }

    /// Stacks rank-2 tensors with identical shapes along a new leading row dimension
    /// (i.e. vertical concatenation).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if column counts differ,
    /// [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::IndexOutOfBounds`] for an empty input list.
    pub fn concat_rows(tensors: &[&Self]) -> Result<Self, TensorError> {
        if tensors.is_empty() {
            return Err(TensorError::IndexOutOfBounds {
                op: "concat_rows",
                index: 0,
                bound: 0,
            });
        }
        let cols = tensors[0].shape.get(1).copied().unwrap_or(0);
        let mut rows = 0;
        for t in tensors {
            if t.rank() != 2 {
                return Err(TensorError::RankMismatch {
                    op: "concat_rows",
                    expected: 2,
                    actual: t.rank(),
                });
            }
            if t.shape[1] != cols {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_rows",
                    lhs: tensors[0].shape.clone(),
                    rhs: t.shape.clone(),
                });
            }
            rows += t.shape[0];
        }
        let mut data = Vec::with_capacity(rows * cols);
        for t in tensors {
            data.extend_from_slice(&t.data);
        }
        Ok(Self {
            shape: vec![rows, cols],
            data,
        })
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} ({} elements)", self.shape, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![2, 2], vec![1.0; 3]),
            Err(TensorError::ShapeDataMismatch { .. })
        ));
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::full(&[2, 2], 2.0);
        assert_eq!(a.add(&b).unwrap().data(), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.sub(&b).unwrap().data(), &[-1.0, 0.0, 1.0, 2.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(a.scale(0.5).data(), &[0.5, 1.0, 1.5, 2.0]);
        assert!(a.add(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::zeros(&[3]);
        let g = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]).unwrap();
        a.axpy(0.5, &g).unwrap();
        a.axpy(0.5, &g).unwrap();
        assert_eq!(a.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&Tensor::zeros(&[4, 2])).is_err());
        assert!(a.matmul(&Tensor::zeros(&[3])).is_err());
        assert!(Tensor::zeros(&[3]).matmul(&a).is_err());
    }

    #[test]
    fn matmul_bias_broadcasts_rows() {
        let x = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let w = Tensor::ones(&[3, 2]);
        let b = Tensor::from_vec(vec![2], vec![10.0, -10.0]).unwrap();
        let y = x.matmul_bias(&w, &b).unwrap();
        assert_eq!(y.data(), &[16.0, -4.0, 25.0, 5.0]);
        assert!(x.matmul_bias(&w, &Tensor::zeros(&[3])).is_err());
        assert!(x.matmul_bias(&Tensor::zeros(&[4, 2]), &b).is_err());
        assert!(x.matmul_bias(&w, &Tensor::zeros(&[1, 2])).is_err());
    }

    #[test]
    fn fused_transposed_products_match_explicit_transpose() {
        let a = Tensor::from_vec(vec![3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(vec![3, 4], (0..12).map(|i| i as f32 * 0.5).collect()).unwrap();
        let fused = a.matmul_at_b(&b).unwrap();
        let explicit = a.transpose().unwrap().matmul(&b).unwrap();
        assert_eq!(fused.shape(), explicit.shape());
        for (x, y) in fused.data().iter().zip(explicit.data()) {
            assert!((x - y).abs() < 1e-5);
        }

        let c = Tensor::from_vec(vec![4, 2], (0..8).map(|i| i as f32 - 3.0).collect()).unwrap();
        let fused = a.matmul_a_bt(&c).unwrap();
        let explicit = a.matmul(&c.transpose().unwrap()).unwrap();
        assert_eq!(fused.shape(), &[3, 4]);
        for (x, y) in fused.data().iter().zip(explicit.data()) {
            assert!((x - y).abs() < 1e-5);
        }

        assert!(a.matmul_at_b(&Tensor::zeros(&[2, 4])).is_err());
        assert!(a.matmul_a_bt(&Tensor::zeros(&[4, 3])).is_err());
    }

    #[test]
    fn mul_add_fuses_hadamard_and_residual() {
        let x0 = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let u = Tensor::from_vec(vec![2, 2], vec![0.5, 0.5, 2.0, 2.0]).unwrap();
        let xl = Tensor::from_vec(vec![2, 2], vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let next = x0.mul_add(&u, &xl).unwrap();
        assert_eq!(next.data(), &[1.5, 2.0, 7.0, 9.0]);
        assert!(x0.mul_add(&u, &Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at(0, 1), 4.0);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn concat_and_split_cols_are_inverse() {
        let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(vec![2, 1], vec![5.0, 6.0]).unwrap();
        let cat = Tensor::concat_cols(&[&a, &b]).unwrap();
        assert_eq!(cat.shape(), &[2, 3]);
        assert_eq!(cat.data(), &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
        let parts = cat.split_cols(&[2, 1]).unwrap();
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn concat_rows_stacks_batches() {
        let a = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(vec![2, 2], vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        let cat = Tensor::concat_rows(&[&a, &b]).unwrap();
        assert_eq!(cat.shape(), &[3, 2]);
        assert_eq!(cat.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(Tensor::concat_rows(&[]).is_err());
    }

    #[test]
    fn slice_rows_extracts_a_window() {
        let a = Tensor::from_vec(vec![3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let s = a.slice_rows(1, 2).unwrap();
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[3.0, 4.0, 5.0, 6.0]);
        assert!(a.slice_rows(2, 2).is_err());
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.dot(&a).unwrap(), 30.0);
        assert!((a.norm() - 30.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(Tensor::zeros(&[0]).mean(), 0.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0; 6]).unwrap();
        let b = a.reshape(&[3, 2]).unwrap();
        assert_eq!(b.shape(), &[3, 2]);
        assert!(a.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn display_mentions_shape() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(a.to_string().contains("[2, 3]"));
    }

    #[test]
    fn map_applies_function() {
        let a = Tensor::from_vec(vec![2], vec![-1.0, 2.0]).unwrap();
        assert_eq!(a.map(|x| x.max(0.0)).data(), &[0.0, 2.0]);
    }
}
