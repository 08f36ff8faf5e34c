//! Fully connected (affine) layer.

use crate::param::{HasParameters, Parameter};
use dmt_tensor::quant::{f16_bits_to_f32, f32_to_f16_bits, Precision};
use dmt_tensor::{
    gemm_a_bt_q8_with, xavier_uniform, QGemmScratch, QuantizedBtMatrix, Tensor, TensorError,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Reusable work buffers of [`Linear::forward_into`] and
/// [`Linear::backward_into`]: the quantized kernels' activation scratch and
/// the parameter-gradient staging tensors. One instance can be shared across
/// every layer of a model — each call resizes the buffers it touches, and
/// capacity is retained between batches, so steady state allocates nothing.
#[derive(Debug, Default)]
pub struct LinearScratch {
    /// Activation quantization scratch for the int8 GEMM.
    pub q8: QGemmScratch,
    grad_w: Tensor,
    grad_b: Tensor,
}

/// Reduced-precision weight sidecar for the serving forward pass. Built once
/// by [`Linear::quantize_weights`]; the f32 master weight stays in place
/// (training and `weight()` probes keep using it).
#[derive(Debug, Clone, PartialEq)]
enum QuantWeight {
    /// `Wᵀ` rows at symmetric int8 with per-output-column scales, run through
    /// the integer-dot kernel.
    Int8(QuantizedBtMatrix),
    /// The `[in, out]` weight rounded to binary16 and kept as f32, run through
    /// the fused f32 kernel: fp16 is a storage precision, and an f16 GEMM
    /// lost to f32 at every serving shape.
    Fp16(Tensor),
}

// Snapshots carry f32 weights and re-quantize on load, so the sidecar
// serializes as a bare precision marker rather than its packed payload.
impl Serialize for QuantWeight {
    fn to_json_value(&self) -> serde::json::Value {
        let tag = match self {
            QuantWeight::Int8(_) => "int8",
            QuantWeight::Fp16(_) => "fp16",
        };
        serde::json::Value::String(tag.to_string())
    }
}

impl<'de> Deserialize<'de> for QuantWeight {}

/// A fully connected layer computing `y = x W + b`.
///
/// * `x`: `[batch, in_features]`
/// * `W`: `[in_features, out_features]`
/// * `b`: `[out_features]`
/// * `y`: `[batch, out_features]`
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    weight: Parameter,
    bias: Parameter,
    in_features: usize,
    out_features: usize,
    /// Serving-only quantized weight sidecar; serializes as a precision
    /// marker only (snapshots carry f32 weights and re-quantize on load).
    quantized: Option<QuantWeight>,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        Self {
            weight: Parameter::new(xavier_uniform(rng, in_features, out_features)),
            bias: Parameter::new(Tensor::zeros(&[out_features])),
            in_features,
            out_features,
            quantized: None,
        }
    }

    /// Input width.
    #[must_use]
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    #[must_use]
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Multiply–accumulate FLOPs per sample (forward pass).
    #[must_use]
    pub fn flops_per_sample(&self) -> u64 {
        2 * self.in_features as u64 * self.out_features as u64
    }

    /// Forward pass into a caller-owned output: `y = x W + b`, with `relu`
    /// applying `max(y, 0)` in the GEMM writeback (f32 and fp16 weights) or in
    /// place after the int8 GEMM. No allocation once the scratch and `out`
    /// capacities have grown to the batch shape.
    ///
    /// The fused epilogue maps `NaN` and `-0.0` to `+0.0`, so the saved output
    /// alone gives the ReLU mask for the backward pass: `y > 0` iff the
    /// pre-activation was `> 0`.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `input` is not `[batch, in_features]`.
    pub fn forward_into(
        &self,
        input: &Tensor,
        relu: bool,
        out: &mut Tensor,
        scratch: &mut LinearScratch,
    ) -> Result<(), TensorError> {
        let w = match &self.quantized {
            None => &self.weight.value,
            Some(QuantWeight::Fp16(w)) => w,
            Some(QuantWeight::Int8(w)) => return self.forward_int8(w, input, relu, out, scratch),
        };
        input.matmul_bias_act_into(w, &self.bias.value, relu, out)
    }

    /// [`Linear::forward_into`] through the int8 sidecar: bias broadcast,
    /// integer-dot GEMM, then the ReLU in place.
    fn forward_int8(
        &self,
        w: &QuantizedBtMatrix,
        input: &Tensor,
        relu: bool,
        out: &mut Tensor,
        scratch: &mut LinearScratch,
    ) -> Result<(), TensorError> {
        if input.rank() != 2 || input.shape()[1] != self.in_features {
            return Err(TensorError::ShapeMismatch {
                op: "linear_forward_quantized",
                lhs: input.shape().to_vec(),
                rhs: vec![self.in_features, self.out_features],
            });
        }
        let (m, k, n) = (input.shape()[0], self.in_features, self.out_features);
        out.reset_to_shape(&[m, n]);
        let data = out.data_mut();
        for row in data.chunks_exact_mut(n) {
            row.copy_from_slice(self.bias.value.data());
        }
        gemm_a_bt_q8_with(input.data(), w, data, m, k, &mut scratch.q8);
        if relu {
            for v in data.iter_mut() {
                *v = if *v > 0.0 { *v } else { 0.0 };
            }
        }
        Ok(())
    }

    /// Selects the forward-pass weight precision: packs the f32 weight into an
    /// int8 sidecar, or rounds it to fp16 ([`Precision::F32`] clears the
    /// sidecar). The f32 master weight is untouched, so re-quantizing — or
    /// returning to f32 — is always lossless.
    pub fn quantize_weights(&mut self, precision: Precision) {
        let (k, n) = (self.in_features, self.out_features);
        self.quantized = match precision {
            Precision::F32 => None,
            Precision::Int8 => Some(QuantWeight::Int8(QuantizedBtMatrix::from_col_major(
                self.weight.value.data(),
                k,
                n,
            ))),
            Precision::Fp16 => Some(QuantWeight::Fp16(
                self.weight
                    .value
                    .map(|v| f16_bits_to_f32(f32_to_f16_bits(v))),
            )),
        };
    }

    /// The forward-pass weight precision currently selected.
    #[must_use]
    pub fn weight_precision(&self) -> Precision {
        match &self.quantized {
            None => Precision::F32,
            Some(QuantWeight::Int8(_)) => Precision::Int8,
            Some(QuantWeight::Fp16(_)) => Precision::Fp16,
        }
    }

    /// Backward pass over the `input` a [`Linear::forward_into`] call read:
    /// accumulates `dW`, `db` into the parameters and writes `dx` into
    /// `grad_input`. A ReLU'd forward's mask is the caller's to apply to
    /// `grad_output` first.
    ///
    /// Both matrix products run on the transpose-free kernels (`dW = xᵀ·dy`,
    /// `dx = dy·Wᵀ`). `dW` and `db` are formed in zeroed scratch and then
    /// added to the gradients, so accumulation across micro-batches rounds
    /// exactly like one `grad + (0 + xᵀdy)` per call.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `grad_output` is not `[batch, out_features]`.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not a `[batch, in_features]` activation record,
    /// i.e. no forward filled it.
    pub fn backward_into(
        &mut self,
        input: &Tensor,
        grad_output: &Tensor,
        grad_input: &mut Tensor,
        scratch: &mut LinearScratch,
    ) -> Result<(), TensorError> {
        assert!(
            input.rank() == 2 && input.shape()[1] == self.in_features,
            "Linear::backward_into called before forward: no [batch, {}] input record",
            self.in_features
        );
        let cols = self.out_features;
        if grad_output.shape() != [input.shape()[0], cols] {
            return Err(TensorError::ShapeMismatch {
                op: "linear_backward",
                lhs: grad_output.shape().to_vec(),
                rhs: vec![input.shape()[0], cols],
            });
        }
        input.matmul_at_b_into(grad_output, &mut scratch.grad_w)?;
        self.weight.accumulate_grad(&scratch.grad_w);
        // db = column sums of dy, accumulated slice-wise over the batch rows.
        scratch.grad_b.reset_to_shape(&[cols]);
        for row in grad_output.data().chunks_exact(cols) {
            for (gb, &g) in scratch.grad_b.data_mut().iter_mut().zip(row) {
                *gb += g;
            }
        }
        self.bias.accumulate_grad(&scratch.grad_b);
        grad_output.matmul_a_bt_into(&self.weight.value, grad_input)
    }

    /// Immutable access to the weight matrix (e.g. for probing feature similarity).
    #[must_use]
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }
}

impl HasParameters for Linear {
    fn visit_parameters(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer(in_f: usize, out_f: usize) -> Linear {
        Linear::new(&mut StdRng::seed_from_u64(42), in_f, out_f)
    }

    fn forward(l: &Linear, x: &Tensor) -> Result<Tensor, TensorError> {
        let mut y = Tensor::default();
        l.forward_into(x, false, &mut y, &mut LinearScratch::default())?;
        Ok(y)
    }

    fn backward(l: &mut Linear, x: &Tensor, grad: &Tensor) -> Result<Tensor, TensorError> {
        let mut dx = Tensor::default();
        l.backward_into(x, grad, &mut dx, &mut LinearScratch::default())?;
        Ok(dx)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut l = layer(3, 2);
        // Zero weights isolate the bias path.
        l.weight.value = Tensor::zeros(&[3, 2]);
        l.bias.value = Tensor::from_vec(vec![2], vec![1.0, -1.0]).unwrap();
        let y = forward(&l, &Tensor::ones(&[4, 3])).unwrap();
        assert_eq!(y.shape(), &[4, 2]);
        assert_eq!(y.at(0, 0), 1.0);
        assert_eq!(y.at(3, 1), -1.0);
    }

    #[test]
    fn forward_rejects_wrong_width() {
        let l = layer(3, 2);
        assert!(forward(&l, &Tensor::ones(&[4, 5])).is_err());
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let mut l = layer(4, 3);
        let x =
            Tensor::from_vec(vec![2, 4], (0..8).map(|i| i as f32 * 0.1 - 0.4).collect()).unwrap();
        // Loss = sum(y).
        let y = forward(&l, &x).unwrap();
        let dx = backward(&mut l, &x, &Tensor::ones(y.shape())).unwrap();

        let eps = 1e-3f32;
        // Check dL/dx numerically for a few coordinates.
        for &(r, c) in &[(0usize, 0usize), (1, 2), (0, 3)] {
            let mut x_plus = x.clone();
            x_plus.set(r, c, x.at(r, c) + eps);
            let mut x_minus = x.clone();
            x_minus.set(r, c, x.at(r, c) - eps);
            let l2 = layer(4, 3);
            let y_plus = forward(&l2, &x_plus).unwrap().sum();
            let y_minus = forward(&l2, &x_minus).unwrap().sum();
            let numeric = (y_plus - y_minus) / (2.0 * eps);
            assert!(
                (numeric - dx.at(r, c)).abs() < 1e-2,
                "dx[{r},{c}] analytic {} vs numeric {numeric}",
                dx.at(r, c)
            );
        }
        // Check dL/db: for loss = sum(y), db = batch size.
        assert!(l.bias.grad.data().iter().all(|&g| (g - 2.0).abs() < 1e-6));
    }

    #[test]
    fn weight_gradient_accumulates_across_calls() {
        let mut l = layer(2, 2);
        let x = Tensor::ones(&[1, 2]);
        for _ in 0..2 {
            let y = forward(&l, &x).unwrap();
            backward(&mut l, &x, &Tensor::ones(y.shape())).unwrap();
        }
        // dW for loss=sum(y) with x=1 is 1 per call, accumulated twice.
        assert!(l.weight.grad.data().iter().all(|&g| (g - 2.0).abs() < 1e-6));
        l.zero_grad();
        assert_eq!(l.weight.grad.sum(), 0.0);
    }

    #[test]
    fn parameter_count_matches_dimensions() {
        let mut l = layer(5, 7);
        assert_eq!(l.parameter_count(), 5 * 7 + 7);
        assert_eq!(l.flops_per_sample(), 70);
    }

    /// A default (never filled) tensor is not an activation record.
    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_before_forward_panics() {
        let mut l = layer(2, 2);
        let _ = backward(&mut l, &Tensor::default(), &Tensor::ones(&[1, 2]));
    }

    #[test]
    fn quantized_forward_tracks_the_f32_forward() {
        let mut l = layer(24, 12);
        let x = Tensor::from_vec(
            vec![3, 24],
            (0..72).map(|i| (i as f32 * 0.37).sin()).collect(),
        )
        .unwrap();
        let reference = forward(&l, &x).unwrap();
        for (precision, tol) in [(Precision::Fp16, 2e-2f32), (Precision::Int8, 0.3)] {
            l.quantize_weights(precision);
            assert_eq!(l.weight_precision(), precision);
            let y = forward(&l, &x).unwrap();
            assert_eq!(y.shape(), reference.shape());
            for (a, b) in y.data().iter().zip(reference.data()) {
                assert!((a - b).abs() <= tol, "{precision}: {a} vs {b}");
            }
        }
        // Returning to f32 restores the exact fused kernel.
        l.quantize_weights(Precision::F32);
        let back = forward(&l, &x).unwrap();
        for (a, b) in back.data().iter().zip(reference.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn quantized_forward_validates_shapes_and_keeps_backward_alive() {
        let mut l = layer(3, 2);
        l.quantize_weights(Precision::Int8);
        assert!(forward(&l, &Tensor::ones(&[4, 5])).is_err());
        // The f32 master weight still drives backward (training never
        // quantizes, but the activation-record contract must hold regardless).
        let x = Tensor::ones(&[1, 3]);
        let y = forward(&l, &x).unwrap();
        assert!(backward(&mut l, &x, &Tensor::ones(y.shape())).is_ok());
    }
}
