//! DLRM's pairwise dot-product feature interaction.
//!
//! Given per-sample feature vectors `e_0 … e_{F-1}` (the pooled embeddings plus the
//! bottom-MLP output), DLRM computes all pairwise dot products `e_i · e_j` for `i < j`
//! and concatenates them with the dense representation before the over-arch. The
//! pairwise interaction is parameter-free, which is why (as the paper notes in §5.2.2)
//! DLRM tower modules change the parameter count less than DCN's.

use dmt_tensor::{pairwise, PairwiseScratch, Tensor, TensorError};
use serde::{Deserialize, Serialize};

/// Pairwise dot-product interaction over `num_features` vectors of `dim` each.
///
/// The arithmetic lives in [`dmt_tensor::pairwise`] (one runtime-dispatched
/// kernel, bit-identical on every SIMD tier); this type owns the geometry and
/// the shape checks. It holds no state: the backward pass reads the input the
/// caller kept from the forward.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct DotInteraction {
    num_features: usize,
    dim: usize,
}

impl DotInteraction {
    /// Creates an interaction over `num_features` feature vectors of width `dim`.
    #[must_use]
    pub fn new(num_features: usize, dim: usize) -> Self {
        Self { num_features, dim }
    }

    /// Number of interacting feature vectors.
    #[must_use]
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Width of each feature vector.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of output values per sample: `F * (F - 1) / 2`.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        self.num_features * (self.num_features - 1) / 2
    }

    /// Forward FLOPs per sample: one `dim`-wide dot product per feature pair.
    #[must_use]
    pub fn flops_per_sample(&self) -> u64 {
        2 * self.output_dim() as u64 * self.dim as u64
    }

    /// Forward pass into a caller-owned output buffer.
    ///
    /// `input` is `[batch, num_features * dim]`, the per-sample concatenation of the
    /// feature vectors; the output is `[batch, F*(F-1)/2]` of pairwise dot products in
    /// row-major `(i, j), i < j` order. No heap allocation once `out` and
    /// `scratch` have reached the batch's working-set size.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if the input width is not `num_features * dim`.
    pub fn forward_into(
        &self,
        input: &Tensor,
        out: &mut Tensor,
        scratch: &mut PairwiseScratch,
    ) -> Result<(), TensorError> {
        let expected = self.num_features * self.dim;
        if input.rank() != 2 || input.shape()[1] != expected {
            return Err(TensorError::ShapeMismatch {
                op: "dot_interaction",
                lhs: input.shape().to_vec(),
                rhs: vec![input.shape().first().copied().unwrap_or(0), expected],
            });
        }
        out.reset_to_shape(&[input.shape()[0], self.output_dim()]);
        pairwise::pairwise_dots(
            input.data(),
            self.num_features,
            self.dim,
            out.data_mut(),
            scratch,
        );
        Ok(())
    }

    /// Backward pass over the `input` a [`DotInteraction::forward_into`] call
    /// read: writes the gradient with respect to it into `grad_input`.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `input` is not `[batch, num_features * dim]`
    /// or `grad_output` is not `[batch, F*(F-1)/2]`.
    pub fn backward_into(
        &self,
        input: &Tensor,
        grad_output: &Tensor,
        grad_input: &mut Tensor,
        scratch: &mut PairwiseScratch,
    ) -> Result<(), TensorError> {
        let batch = input.shape().first().copied().unwrap_or(0);
        if input.shape() != [batch, self.num_features * self.dim]
            || grad_output.shape() != [batch, self.output_dim()]
        {
            return Err(TensorError::ShapeMismatch {
                op: "dot_interaction_backward",
                lhs: grad_output.shape().to_vec(),
                rhs: vec![batch, self.output_dim()],
            });
        }
        grad_input.reset_to_shape(input.shape());
        pairwise::pairwise_dots_backward(
            input.data(),
            grad_output.data(),
            self.num_features,
            self.dim,
            grad_input.data_mut(),
            scratch,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_tensor::{with_tier, Tier};

    fn forward(inter: &DotInteraction, x: &Tensor) -> Result<Tensor, TensorError> {
        let mut y = Tensor::default();
        inter.forward_into(x, &mut y, &mut PairwiseScratch::default())?;
        Ok(y)
    }

    #[test]
    fn output_dim_is_pair_count() {
        assert_eq!(DotInteraction::new(4, 8).output_dim(), 6);
        assert_eq!(DotInteraction::new(27, 128).output_dim(), 27 * 26 / 2);
    }

    #[test]
    fn forward_computes_pairwise_dots() {
        let inter = DotInteraction::new(3, 2);
        // Features per sample: e0 = (1,0), e1 = (0,1), e2 = (2,2).
        let x = Tensor::from_vec(vec![1, 6], vec![1.0, 0.0, 0.0, 1.0, 2.0, 2.0]).unwrap();
        let y = forward(&inter, &x).unwrap();
        // Pairs in order (0,1), (0,2), (1,2).
        assert_eq!(y.data(), &[0.0, 2.0, 2.0]);
    }

    #[test]
    fn forward_rejects_bad_width() {
        let inter = DotInteraction::new(3, 2);
        assert!(forward(&inter, &Tensor::ones(&[1, 5])).is_err());
    }

    #[test]
    fn gradient_check() {
        let inter = DotInteraction::new(3, 2);
        let x = Tensor::from_vec(
            vec![2, 6],
            (0..12).map(|i| (i as f32) * 0.1 - 0.5).collect(),
        )
        .unwrap();
        let y = forward(&inter, &x).unwrap();
        let mut dx = Tensor::default();
        inter
            .backward_into(
                &x,
                &Tensor::ones(y.shape()),
                &mut dx,
                &mut PairwiseScratch::default(),
            )
            .unwrap();

        let eps = 1e-3f32;
        for &(r, c) in &[(0usize, 0usize), (1, 3), (0, 5)] {
            let mut plus = x.clone();
            plus.set(r, c, x.at(r, c) + eps);
            let mut minus = x.clone();
            minus.set(r, c, x.at(r, c) - eps);
            let f_plus = forward(&inter, &plus).unwrap().sum();
            let f_minus = forward(&inter, &minus).unwrap().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            assert!(
                (numeric - dx.at(r, c)).abs() < 1e-2,
                "dx[{r},{c}] analytic {} vs numeric {numeric}",
                dx.at(r, c)
            );
        }
    }

    /// `forward_into` equals the kernel's scalar oracle bit for bit, also
    /// into buffers a different batch grew first.
    #[test]
    fn forward_into_is_bit_identical_to_forward() {
        let inter = DotInteraction::new(4, 3);
        let x = Tensor::from_vec(
            vec![3, 12],
            (0..36)
                .map(|i| ((i * 7) % 13) as f32 * 0.21 - 1.1)
                .collect(),
        )
        .unwrap();
        let mut want = vec![0.0f32; 3 * inter.output_dim()];
        with_tier(Tier::Scalar, || {
            pairwise::pairwise_dots(x.data(), 4, 3, &mut want, &mut PairwiseScratch::default());
        });
        let mut out = Tensor::default();
        let mut scratch = PairwiseScratch::default();
        inter
            .forward_into(&Tensor::ones(&[5, 12]), &mut out, &mut scratch)
            .unwrap();
        for _ in 0..2 {
            inter.forward_into(&x, &mut out, &mut scratch).unwrap();
            assert_eq!(out.shape(), &[3, inter.output_dim()]);
            for (a, b) in out.data().iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn interaction_is_parameter_free_but_costs_flops() {
        let inter = DotInteraction::new(26, 128);
        assert!(inter.flops_per_sample() > 0);
    }
}
