//! The dense stack every model shares: bottom MLP, feature interaction
//! (pairwise dots or a CrossNet), over-arch and BCE loss.
//!
//! The Tower Module (§3.2) changes only what feeds the interaction, so the
//! baseline and every DMT variant run this one implementation: the quality
//! model ([`crate::RecommendationModel`]), every distributed training rank and
//! every serving worker. [`DenseStack::forward_infer`] is the one dense
//! forward, which the training step [`DenseStack::forward_backward`] runs
//! before its backward — sharing the float path is what makes served
//! predictions bit-identical to a training-side forward pass.

use crate::hyper::{ModelArch, ModelHyperparams};
use dmt_data::DatasetSchema;
use dmt_nn::activation::scalar_sigmoid;
use dmt_nn::param::HasParameters;
use dmt_nn::{
    BceWithLogitsLoss, CrossNet, CrossNetScratch, DotInteraction, Mlp, MlpScratch, Parameter,
};
use dmt_tensor::{PairwiseScratch, Precision, Tensor, TensorError};
use rand::Rng;

/// Reusable buffers of the dense stack: every intermediate tensor of
/// [`DenseStack::forward_infer`] — which is also the activation record the
/// training step [`DenseStack::forward_backward`] reads back — the backward's
/// gradient buffers, and the per-module scratch of the layers underneath.
/// Owned per model, rank or serving worker; capacity is retained across
/// (micro-)batches, so steady state performs no heap allocation in the dense
/// stack.
#[derive(Debug, Default)]
pub struct DenseScratch {
    dense_repr: Tensor,
    units: Tensor,
    interaction: Tensor,
    panel: PairwiseScratch,
    over_input: Tensor,
    logits: Tensor,
    bottom: MlpScratch,
    over: MlpScratch,
    cross: CrossNetScratch,
    grad_logits: Tensor,
    grad_over_input: Tensor,
    grad_piece: Tensor,
    grad_units: Tensor,
    grad_dense_repr: Tensor,
    grad_dense_input: Tensor,
    grad_features: Tensor,
}

impl DenseScratch {
    /// Gradient of the last training step's loss with respect to its feature
    /// block, `[batch, feature width]`.
    #[must_use]
    pub fn feature_grad(&self) -> &Tensor {
        &self.grad_features
    }
}

/// The feature interaction between the bottom MLP and the over-arch.
enum Interaction {
    /// DLRM: pairwise dots of the units, concatenated after the dense unit.
    Dot(DotInteraction),
    /// DCN: a CrossNet over the concatenated units.
    Cross(CrossNet),
}

/// The dense stack: bottom MLP, feature interaction and over-arch.
///
/// `unit_width` and `num_units` fix the interaction geometry: the baseline
/// uses one unit per sparse feature plus the dense unit at the embedding
/// dimension, DMT uses one unit per tower-ensemble projection at the tower
/// output dimension. The serving engine rebuilds the same geometry from a
/// snapshot's metadata and loads the exported weights.
pub struct DenseStack {
    bottom: Mlp,
    interaction: Interaction,
    over: Mlp,
    unit_width: usize,
}

impl DenseStack {
    /// Builds a dense stack for `arch` with the given interaction geometry,
    /// seeding every parameter deterministically from `seed` (all ranks build
    /// identical replicas).
    #[must_use]
    pub fn new(
        seed: u64,
        schema: &DatasetSchema,
        arch: ModelArch,
        hyper: &ModelHyperparams,
        unit_width: usize,
        num_units: usize,
    ) -> Self {
        use rand::SeedableRng;
        // Every rank seeds identically: the stack is a data-parallel replica.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Self::from_rng(&mut rng, schema, arch, hyper, unit_width, num_units)
    }

    /// [`DenseStack::new`] drawing its parameters from `rng`: bottom MLP, then
    /// the CrossNet (DCN only), then the over-arch.
    pub fn from_rng<R: Rng + ?Sized>(
        rng: &mut R,
        schema: &DatasetSchema,
        arch: ModelArch,
        hyper: &ModelHyperparams,
        unit_width: usize,
        num_units: usize,
    ) -> Self {
        let mut bottom_sizes = vec![schema.num_dense];
        bottom_sizes.extend(&hyper.bottom_mlp_hidden);
        bottom_sizes.push(unit_width);
        let bottom = Mlp::new(rng, &bottom_sizes);
        let (interaction, over_input) = match arch {
            ModelArch::Dlrm => {
                let dot = DotInteraction::new(num_units, unit_width);
                let over_input = unit_width + dot.output_dim();
                (Interaction::Dot(dot), over_input)
            }
            ModelArch::Dcn => {
                let width = unit_width * num_units;
                let cross = CrossNet::new(rng, width, hyper.cross_layers.max(1));
                (Interaction::Cross(cross), width)
            }
        };
        let mut over_sizes = vec![over_input];
        over_sizes.extend(&hyper.over_mlp_hidden);
        over_sizes.push(1);
        let over = Mlp::new(rng, &over_sizes);
        Self {
            bottom,
            interaction,
            over,
            unit_width,
        }
    }

    /// Scalar parameters [`DenseStack::new`] would create for this geometry,
    /// worked out without building anything, so an untrusted geometry (a
    /// snapshot's) can be checked before it is allocated for. `None` when the
    /// count overflows `usize`.
    #[must_use]
    pub fn param_count(
        schema: &DatasetSchema,
        arch: ModelArch,
        hyper: &ModelHyperparams,
        unit_width: usize,
        num_units: usize,
    ) -> Option<usize> {
        /// Weights and biases of an MLP with these layer widths.
        fn mlp(sizes: &[usize]) -> Option<usize> {
            sizes.windows(2).try_fold(0usize, |sum, pair| {
                sum.checked_add(pair[0].checked_add(1)?.checked_mul(pair[1])?)
            })
        }
        let bottom = [
            &[schema.num_dense][..],
            &hyper.bottom_mlp_hidden,
            &[unit_width],
        ]
        .concat();
        let (interaction, over_input) = match arch {
            ModelArch::Dlrm => {
                let pairs = num_units.checked_mul(num_units.saturating_sub(1))? / 2;
                (0, unit_width.checked_add(pairs)?)
            }
            ModelArch::Dcn => {
                let width = unit_width.checked_mul(num_units)?;
                let layer = width.checked_add(1)?.checked_mul(width)?;
                (layer.checked_mul(hyper.cross_layers.max(1))?, width)
            }
        };
        let over = [&[over_input][..], &hyper.over_mlp_hidden, &[1]].concat();
        mlp(&bottom)?
            .checked_add(interaction)?
            .checked_add(mlp(&over)?)
    }

    /// Approximate forward FLOPs per sample of the bottom MLP, interaction
    /// and over-arch.
    #[must_use]
    pub fn flops_per_sample(&self) -> u64 {
        let interaction = match &self.interaction {
            Interaction::Dot(dot) => dot.flops_per_sample(),
            Interaction::Cross(cross) => cross.flops_per_sample(),
        };
        self.bottom.flops_per_sample() + interaction + self.over.flops_per_sample()
    }

    /// One training step over a local (micro-)batch: the serving forward
    /// [`DenseStack::forward_infer`], the loss, then the backward over the
    /// activations that forward left in `scratch`. Fills `predictions` with
    /// the per-sample click probabilities (for training-AUC tracking), returns
    /// the mean loss and leaves the gradient with respect to the feature block
    /// in [`DenseScratch::feature_grad`]. Parameter gradients *accumulate*
    /// across calls (micro-batches) until `zero_grad`. Once `scratch` and
    /// `predictions` have grown to the batch shape, a step performs zero heap
    /// allocations.
    ///
    /// `grad_scale` multiplies the loss gradient before it propagates (the loss
    /// value is reported unscaled). The sync schedule passes `1.0` (a no-op,
    /// preserving bit-identical behavior); the pipelined schedule passes
    /// `mb_len * M / local_batch` so unequal micro-batches contribute to the
    /// accumulated gradients in proportion to their sample counts — after the
    /// final `1/M` averaging, the result is the exact per-sample mean over the
    /// whole local batch.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] on input shape mismatch.
    pub fn forward_backward(
        &mut self,
        dense_input: &Tensor,
        feature_block: &Tensor,
        labels: &[f32],
        grad_scale: f32,
        predictions: &mut Vec<f32>,
        scratch: &mut DenseScratch,
    ) -> Result<f64, TensorError> {
        self.forward_infer(dense_input, feature_block, predictions, scratch)?;
        let (s, w) = (scratch, self.unit_width);
        let loss =
            BceWithLogitsLoss.forward_backward_into(&s.logits, labels, &mut s.grad_logits)?;
        if grad_scale != 1.0 {
            // Gradients are linear in the loss gradient, so scaling here scales
            // every parameter gradient of this pass.
            for v in s.grad_logits.data_mut() {
                *v *= grad_scale;
            }
        }
        let grad_over = &mut s.grad_over_input;
        self.over
            .backward_into(&s.over_input, &mut s.over, &s.grad_logits, grad_over)?;
        match &mut self.interaction {
            Interaction::Dot(dot) => {
                grad_over.cols_into(w, dot.output_dim(), &mut s.grad_piece)?;
                dot.backward_into(&s.units, &s.grad_piece, &mut s.grad_units, &mut s.panel)?;
                s.grad_units.cols_into(0, w, &mut s.grad_dense_repr)?;
                // The over-arch also read `dense_repr` directly.
                grad_over.cols_into(0, w, &mut s.grad_piece)?;
                s.grad_dense_repr.axpy(1.0, &s.grad_piece)?;
            }
            Interaction::Cross(cross) => {
                cross.backward_into(&s.units, &mut s.cross, grad_over, &mut s.grad_units)?;
                s.grad_units.cols_into(0, w, &mut s.grad_dense_repr)?;
            }
        }
        let features = feature_block.shape()[1];
        s.grad_units.cols_into(w, features, &mut s.grad_features)?;
        let grad = &s.grad_dense_repr;
        self.bottom
            .backward_into(dense_input, &mut s.bottom, grad, &mut s.grad_dense_input)?;
        Ok(loss)
    }

    /// Allocating form of [`DenseStack::forward_infer`], for one-off callers.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] on input shape mismatch.
    pub fn forward(
        &mut self,
        dense_input: &Tensor,
        feature_block: &Tensor,
    ) -> Result<Vec<f32>, TensorError> {
        let (mut predictions, mut scratch) = (Vec::new(), DenseScratch::default());
        self.forward_infer(dense_input, feature_block, &mut predictions, &mut scratch)?;
        Ok(predictions)
    }

    /// The dense forward, shared by training and serving: writes every
    /// intermediate into `scratch` and the per-sample predicted click
    /// probabilities (`sigmoid(logit)`, the same float path the training loss
    /// reports) into `predictions`, which is cleared first. Immutable over the
    /// stack, so it can serve queries indefinitely from frozen weights; once
    /// `scratch` and `predictions` have grown to the batch's working-set size,
    /// a call performs zero heap allocations.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] on input shape mismatch.
    pub fn forward_infer(
        &self,
        dense_input: &Tensor,
        feature_block: &Tensor,
        predictions: &mut Vec<f32>,
        scratch: &mut DenseScratch,
    ) -> Result<(), TensorError> {
        let s = scratch;
        self.bottom
            .forward_into(dense_input, &mut s.dense_repr, &mut s.bottom)?;
        Tensor::concat_cols_into(&[&s.dense_repr, feature_block], &mut s.units)?;
        match &self.interaction {
            Interaction::Dot(dot) => {
                dot.forward_into(&s.units, &mut s.interaction, &mut s.panel)?;
                Tensor::concat_cols_into(&[&s.dense_repr, &s.interaction], &mut s.over_input)?;
            }
            Interaction::Cross(cross) => {
                cross.forward_into(&s.units, &mut s.over_input, &mut s.cross)?
            }
        }
        self.over
            .forward_into(&s.over_input, &mut s.logits, &mut s.over)?;
        predictions.clear();
        predictions.extend(s.logits.data().iter().map(|&z| scalar_sigmoid(z)));
        Ok(())
    }

    /// Switches the bottom and over MLPs' forward passes to the given storage
    /// precision ([`Precision::F32`] restores the exact fused kernels).
    ///
    /// The interaction stays f32 either way: the dot interaction has no
    /// weights, and a DCN CrossNet's per-layer matvecs are tiny relative to
    /// the MLP GEMMs. Training is unaffected — the f32 master weights stay in
    /// place and backward never reads the quantized sidecars.
    pub fn quantize_weights(&mut self, precision: Precision) {
        self.bottom.quantize_weights(precision);
        self.over.quantize_weights(precision);
    }
}

impl HasParameters for DenseStack {
    fn visit_parameters(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        self.bottom.visit_parameters(visitor);
        if let Interaction::Cross(cross) = &mut self.interaction {
            cross.visit_parameters(visitor);
        }
        self.over.visit_parameters(visitor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_schema() -> DatasetSchema {
        DatasetSchema::criteo_like_small()
    }

    #[test]
    fn forward_infer_is_bit_identical_to_forward_for_both_archs() {
        let schema = tiny_schema();
        let hyper = ModelHyperparams::tiny();
        for arch in [ModelArch::Dlrm, ModelArch::Dcn] {
            let unit_width = hyper.embedding_dim;
            let num_units = schema.num_sparse() + 1;
            let mut stack = DenseStack::new(17, &schema, arch, &hyper, unit_width, num_units);
            let batch = 5;
            let dense = Tensor::from_vec(
                vec![batch, schema.num_dense],
                (0..batch * schema.num_dense)
                    .map(|i| ((i * 31) % 17) as f32 * 0.13 - 1.0)
                    .collect(),
            )
            .unwrap();
            let feat_width = unit_width * (num_units - 1);
            let features = Tensor::from_vec(
                vec![batch, feat_width],
                (0..batch * feat_width)
                    .map(|i| ((i * 7) % 23) as f32 * 0.09 - 1.0)
                    .collect(),
            )
            .unwrap();
            let reference = stack.forward(&dense, &features).unwrap();

            let mut predictions = Vec::new();
            let mut scratch = DenseScratch::default();
            let labels = vec![1.0; batch];
            // The training step runs the same forward; the serving forward
            // then reuses the buffers that step grew and must still match.
            for train in [true, false, false] {
                if train {
                    stack
                        .forward_backward(
                            &dense,
                            &features,
                            &labels,
                            1.0,
                            &mut predictions,
                            &mut scratch,
                        )
                        .unwrap();
                    assert_eq!(scratch.feature_grad().shape(), features.shape());
                } else {
                    stack
                        .forward_infer(&dense, &features, &mut predictions, &mut scratch)
                        .unwrap();
                }
                assert_eq!(predictions.len(), reference.len());
                for (a, b) in predictions.iter().zip(&reference) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{arch:?}");
                }
            }
        }
    }

    #[test]
    fn param_count_matches_the_built_stack() {
        let schema = tiny_schema();
        let hyper = ModelHyperparams::tiny();
        for arch in [ModelArch::Dlrm, ModelArch::Dcn] {
            for (unit_width, num_units) in [(hyper.embedding_dim, schema.num_sparse() + 1), (16, 3)]
            {
                let mut stack = DenseStack::new(1, &schema, arch, &hyper, unit_width, num_units);
                let mut built = 0;
                stack.visit_parameters(&mut |p| built += p.len());
                let counted = DenseStack::param_count(&schema, arch, &hyper, unit_width, num_units);
                assert_eq!(counted, Some(built), "{arch:?} {unit_width}x{num_units}");
            }
            let huge = DenseStack::param_count(&schema, arch, &hyper, 1 << 40, 1 << 40);
            assert_eq!(huge, None, "{arch:?}");
        }
    }
}
