//! Fully connected (affine) layer.

use crate::param::{HasParameters, Parameter};
use dmt_tensor::quant::Precision;
use dmt_tensor::{
    gemm_a_bt_f16_with, gemm_a_bt_q8_with, xavier_uniform, F16BtMatrix, F16GemmScratch,
    QGemmScratch, QuantizedBtMatrix, Tensor, TensorError,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Reusable buffers for the allocation-free inference forward
/// ([`Linear::forward_infer_into`]): the quantized kernels' activation scratch.
/// One instance can be shared across every layer of a model — each call resizes
/// the buffers it touches, and capacity is retained between batches, so
/// steady-state serving performs no heap allocation here.
#[derive(Debug, Default)]
pub struct LinearScratch {
    /// Activation quantization scratch for the int8 GEMM.
    pub q8: QGemmScratch,
    /// Row-decode scratch for the fp16 GEMM.
    pub f16: F16GemmScratch,
}

/// Reduced-precision weight sidecar for the serving forward pass: the layer's
/// `[in, out]` weight packed as `Wᵀ` rows at int8 (per-output-column scales)
/// or fp16 words. Built once by [`Linear::quantize_weights`]; the f32 master
/// weight stays in place (training and `weight()` probes keep using it).
#[derive(Debug, Clone, PartialEq)]
enum QuantWeight {
    /// Symmetric int8 with per-output-column scales, integer-dot kernel.
    Int8(QuantizedBtMatrix),
    /// IEEE binary16 words, decoded on the fly inside the GEMM.
    Fp16(F16BtMatrix),
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
    cached_input: Option<Tensor>,
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
            cached_input: None,
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

    /// Forward pass; caches the input for the backward pass.
    ///
    /// Runs the fused [`Tensor::matmul_bias`] kernel: the bias broadcast is folded
    /// into the GEMM output initialization instead of a per-element fix-up pass.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `input` is not `[batch, in_features]`.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, TensorError> {
        let out = match &self.quantized {
            None => input.matmul_bias(&self.weight.value, &self.bias.value)?,
            Some(_) => self.forward_quantized(input)?,
        };
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    /// Inference forward into a caller-owned output — no input caching, no
    /// allocation once the scratch and `out` capacities have grown to the batch
    /// shape.
    ///
    /// With `relu`, the activation is fused into the GEMM writeback (f32 path)
    /// or applied in place after the quantized GEMM. The fused epilogue maps
    /// `NaN` and `-0.0` to `+0.0`, exactly like the separate
    /// [`crate::activation::relu`] pass on every representable pre-activation
    /// except the sign of zero (where the two compare equal anyway).
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `input` is not `[batch, in_features]`.
    pub fn forward_infer_into(
        &self,
        input: &Tensor,
        relu: bool,
        out: &mut Tensor,
        scratch: &mut LinearScratch,
    ) -> Result<(), TensorError> {
        match &self.quantized {
            None => input.matmul_bias_act_into(&self.weight.value, &self.bias.value, relu, out),
            Some(q) => {
                if input.rank() != 2 || input.shape()[1] != self.in_features {
                    return Err(TensorError::ShapeMismatch {
                        op: "linear_forward_quantized",
                        lhs: input.shape().to_vec(),
                        rhs: vec![self.in_features, self.out_features],
                    });
                }
                let batch = input.shape()[0];
                let (m, k, n) = (batch, self.in_features, self.out_features);
                out.reset_to_shape(&[m, n]);
                let data = out.data_mut();
                for row in data.chunks_exact_mut(n) {
                    row.copy_from_slice(self.bias.value.data());
                }
                match q {
                    QuantWeight::Int8(w) => {
                        gemm_a_bt_q8_with(input.data(), w, data, m, k, &mut scratch.q8);
                    }
                    QuantWeight::Fp16(w) => {
                        gemm_a_bt_f16_with(input.data(), w, data, m, k, &mut scratch.f16);
                    }
                }
                if relu {
                    for v in data.iter_mut() {
                        *v = if *v > 0.0 { *v } else { 0.0 };
                    }
                }
                Ok(())
            }
        }
    }

    /// Allocating twin of the quantized [`Linear::forward_infer_into`] arm (no
    /// ReLU), so bias broadcast + packed GEMM exist once.
    fn forward_quantized(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        let mut out = Tensor::default();
        self.forward_infer_into(input, false, &mut out, &mut LinearScratch::default())?;
        Ok(out)
    }

    /// Selects the forward-pass weight precision: packs the f32 weight into an
    /// int8 or fp16 sidecar ([`Precision::F32`] clears it back to the fused
    /// f32 kernel). The f32 master weight is untouched, so re-quantizing — or
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
            Precision::Fp16 => Some(QuantWeight::Fp16(F16BtMatrix::from_col_major(
                self.weight.value.data(),
                k,
                n,
            ))),
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

    /// Backward pass: accumulates `dW`, `db` and returns `dx`.
    ///
    /// Both matrix products run on the fused transpose-free kernels
    /// ([`Tensor::matmul_at_b`] for `dW = xᵀ·dy`, [`Tensor::matmul_a_bt`] for
    /// `dx = dy·Wᵀ`), so no transposed copy of the input or the weights is allocated.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `grad_output` has the wrong shape.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Linear::forward`].
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, TensorError> {
        let input = self
            .cached_input
            .as_ref()
            .expect("Linear::backward called before forward");
        let cols = self.out_features;
        if grad_output.rank() != 2 || grad_output.shape()[1] != cols {
            return Err(TensorError::ShapeMismatch {
                op: "linear_backward",
                lhs: grad_output.shape().to_vec(),
                rhs: vec![input.shape()[0], cols],
            });
        }
        // dW = x^T dy, without materializing x^T.
        let grad_w = input.matmul_at_b(grad_output)?;
        self.weight.accumulate_grad(&grad_w);
        // db = column sums of dy, accumulated slice-wise over the batch rows.
        let mut grad_b = vec![0.0f32; cols];
        for row in grad_output.data().chunks_exact(cols) {
            for (gb, &g) in grad_b.iter_mut().zip(row) {
                *gb += g;
            }
        }
        self.bias
            .accumulate_grad(&Tensor::from_vec(vec![cols], grad_b)?);
        // dx = dy W^T, without materializing W^T.
        grad_output.matmul_a_bt(&self.weight.value)
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

    #[test]
    fn forward_shape_and_bias() {
        let mut l = layer(3, 2);
        // Zero weights isolate the bias path.
        l.weight.value = Tensor::zeros(&[3, 2]);
        l.bias.value = Tensor::from_vec(vec![2], vec![1.0, -1.0]).unwrap();
        let y = l.forward(&Tensor::ones(&[4, 3])).unwrap();
        assert_eq!(y.shape(), &[4, 2]);
        assert_eq!(y.at(0, 0), 1.0);
        assert_eq!(y.at(3, 1), -1.0);
    }

    #[test]
    fn forward_rejects_wrong_width() {
        let mut l = layer(3, 2);
        assert!(l.forward(&Tensor::ones(&[4, 5])).is_err());
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let mut l = layer(4, 3);
        let x =
            Tensor::from_vec(vec![2, 4], (0..8).map(|i| i as f32 * 0.1 - 0.4).collect()).unwrap();
        // Loss = sum(y).
        let y = l.forward(&x).unwrap();
        let grad_out = Tensor::ones(y.shape());
        let dx = l.backward(&grad_out).unwrap();

        let eps = 1e-3f32;
        // Check dL/dx numerically for a few coordinates.
        for &(r, c) in &[(0usize, 0usize), (1, 2), (0, 3)] {
            let mut x_plus = x.clone();
            x_plus.set(r, c, x.at(r, c) + eps);
            let mut x_minus = x.clone();
            x_minus.set(r, c, x.at(r, c) - eps);
            let mut l2 = layer(4, 3);
            let y_plus = l2.forward(&x_plus).unwrap().sum();
            let y_minus = l2.forward(&x_minus).unwrap().sum();
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
            let y = l.forward(&x).unwrap();
            l.backward(&Tensor::ones(y.shape())).unwrap();
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

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_before_forward_panics() {
        let mut l = layer(2, 2);
        let _ = l.backward(&Tensor::ones(&[1, 2]));
    }

    #[test]
    fn quantized_forward_tracks_the_f32_forward() {
        let mut l = layer(24, 12);
        let x = Tensor::from_vec(
            vec![3, 24],
            (0..72).map(|i| (i as f32 * 0.37).sin()).collect(),
        )
        .unwrap();
        let reference = l.forward(&x).unwrap();
        for (precision, tol) in [(Precision::Fp16, 2e-2f32), (Precision::Int8, 0.3)] {
            l.quantize_weights(precision);
            assert_eq!(l.weight_precision(), precision);
            let y = l.forward(&x).unwrap();
            assert_eq!(y.shape(), reference.shape());
            for (a, b) in y.data().iter().zip(reference.data()) {
                assert!((a - b).abs() <= tol, "{precision}: {a} vs {b}");
            }
        }
        // Returning to f32 restores the exact fused kernel.
        l.quantize_weights(Precision::F32);
        let back = l.forward(&x).unwrap();
        for (a, b) in back.data().iter().zip(reference.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn quantized_forward_validates_shapes_and_keeps_backward_alive() {
        let mut l = layer(3, 2);
        l.quantize_weights(Precision::Int8);
        assert!(l.forward(&Tensor::ones(&[4, 5])).is_err());
        // The f32 master weight still drives backward (training never
        // quantizes, but the cached-input contract must hold regardless).
        let y = l.forward(&Tensor::ones(&[1, 3])).unwrap();
        assert!(l.backward(&Tensor::ones(y.shape())).is_ok());
    }
}
