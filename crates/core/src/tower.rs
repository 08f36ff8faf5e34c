//! Tower Modules (TM): per-tower dense compression networks.
//!
//! A tower module consumes the output of SPTT step (e) for one tower — a
//! `[batch, F_t, N]` tensor of the tower's `F_t` feature embeddings — and produces a
//! compressed representation that is (1) cheaper to send in the cross-host peer
//! AlltoAll and (2) an extra level of *hierarchical feature interaction* (group-level
//! interactions inside the tower, cross-group interactions in the over-arch).
//!
//! Two concrete architectures follow the paper's §4 listings:
//!
//! * [`DlrmTowerModule`] — Listing 1: an ensemble of a linear layer over the flattened
//!   embeddings (output `p·D`) and a per-feature projection of the embedding dimension
//!   (output `c·F·D`), concatenated.
//! * [`DcnTowerModule`] — Listing 2: a small CrossNet over the flattened embeddings
//!   followed by a projection to `F·D`.

use crate::error::DmtError;
use dmt_nn::param::HasParameters;
use dmt_nn::{CrossNet, CrossNetScratch, Linear, LinearScratch, Parameter};
use dmt_tensor::{Tensor, TensorError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Common interface of tower-module architectures.
///
/// Input is always the flattened `[batch, num_features * embedding_dim]` tower
/// embedding block; output is `[batch, output_dim()]`. Modules hold parameters
/// only: a forward's activation record lives in a caller-owned
/// [`TowerModule::Scratch`], so several micro-batches can be in flight at once,
/// each backward reading its own forward's record.
pub trait TowerModule: HasParameters {
    /// What [`TowerModule::forward_into`] leaves for the matching
    /// [`TowerModule::backward_into`], plus reusable work buffers.
    type Scratch: Default;

    /// Number of features feeding the tower.
    fn num_features(&self) -> usize;

    /// Embedding dimension of each input feature.
    fn embedding_dim(&self) -> usize;

    /// Width of the compressed tower output.
    fn output_dim(&self) -> usize;

    /// Forward pass over the flattened tower embeddings into `out`, leaving
    /// the activation record in `scratch`. No allocation once `scratch` and
    /// `out` have grown to the batch shape.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if the input width is not
    /// `num_features() * embedding_dim()`.
    fn forward_into(
        &self,
        embeddings: &Tensor,
        out: &mut Tensor,
        scratch: &mut Self::Scratch,
    ) -> Result<(), TensorError>;

    /// Backward pass over the record a [`TowerModule::forward_into`] of
    /// `embeddings` left in `scratch`: accumulates parameter gradients and
    /// writes the gradient with respect to `embeddings` into `grad_input`.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] on shape mismatch.
    fn backward_into(
        &mut self,
        embeddings: &Tensor,
        scratch: &mut Self::Scratch,
        grad_output: &Tensor,
        grad_input: &mut Tensor,
    ) -> Result<(), TensorError>;

    /// Allocating forward, for one-off callers.
    ///
    /// # Errors
    ///
    /// As [`TowerModule::forward_into`].
    fn forward(&mut self, embeddings: &Tensor) -> Result<Tensor, TensorError> {
        let mut out = Tensor::default();
        self.forward_into(embeddings, &mut out, &mut Self::Scratch::default())?;
        Ok(out)
    }

    /// Forward FLOPs per sample.
    fn flops_per_sample(&self) -> u64;

    /// Compression ratio of the tower: input width divided by output width.
    ///
    /// Values above 1 mean the cross-host peer AlltoAll carries proportionally fewer
    /// bytes (the `CR` of §4 and Table 5 / Figure 12).
    fn compression_ratio(&self) -> f64 {
        let input = (self.num_features() * self.embedding_dim()) as f64;
        input / self.output_dim().max(1) as f64
    }
}

/// DLRM tower module (paper Listing 1).
///
/// `forward(embs)` with `embs` of shape `[B, F, N]` computes
/// `cat(linear(N·F → p·D)(embs.flat), linear(N → c·D)(embs))`, giving an output width
/// of `D·(c·F + p)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DlrmTowerModule {
    flat_linear: Option<Linear>,
    per_feature_linear: Option<Linear>,
    num_features: usize,
    embedding_dim: usize,
    c: usize,
    p: usize,
    d: usize,
}

/// Activation record and work buffers of one [`DlrmTowerModule`] forward.
#[derive(Debug, Default)]
pub struct DlrmTowerScratch {
    /// The embeddings viewed as `[B·F, N]`: the per-feature branch's input.
    per_feature_input: Tensor,
    flat_out: Tensor,
    per_feature_out: Tensor,
    grad_piece: Tensor,
    grad_branch: Tensor,
    linear: LinearScratch,
}

impl DlrmTowerModule {
    /// Creates a DLRM tower module with ensemble parameters `c`, `p` and output feature
    /// dimension `d` over `num_features` embeddings of width `embedding_dim`.
    ///
    /// # Errors
    ///
    /// Returns [`DmtError::InvalidConfig`] if both `c` and `p` are zero, or any
    /// dimension is zero.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        num_features: usize,
        embedding_dim: usize,
        c: usize,
        p: usize,
        d: usize,
    ) -> Result<Self, DmtError> {
        if num_features == 0 || embedding_dim == 0 || d == 0 {
            return Err(DmtError::InvalidConfig {
                reason: "tower dimensions must be positive".into(),
            });
        }
        if c == 0 && p == 0 {
            return Err(DmtError::InvalidConfig {
                reason: "at least one of c and p must be positive".into(),
            });
        }
        let flat_linear = (p > 0).then(|| Linear::new(rng, num_features * embedding_dim, p * d));
        let per_feature_linear = (c > 0).then(|| Linear::new(rng, embedding_dim, c * d));
        Ok(Self {
            flat_linear,
            per_feature_linear,
            num_features,
            embedding_dim,
            c,
            p,
            d,
        })
    }

    /// Scalar parameters [`DlrmTowerModule::new`] would create for this
    /// geometry — weights and biases of both branches — worked out without
    /// building anything, so an untrusted geometry can be checked before it
    /// is allocated for. `None` when the count overflows `usize`.
    #[must_use]
    pub fn param_count(
        num_features: usize,
        embedding_dim: usize,
        c: usize,
        p: usize,
        d: usize,
    ) -> Option<usize> {
        let linear = |fan_in: usize, fan_out: usize| fan_in.checked_add(1)?.checked_mul(fan_out);
        let flat = linear(num_features.checked_mul(embedding_dim)?, p.checked_mul(d)?)?;
        let per_feature = linear(embedding_dim, c.checked_mul(d)?)?;
        flat.checked_add(per_feature)
    }

    /// Switches both ensemble branches' forward passes to the given storage
    /// precision ([`dmt_tensor::Precision::F32`] restores the exact kernels).
    pub fn quantize_weights(&mut self, precision: dmt_tensor::Precision) {
        if let Some(l) = &mut self.flat_linear {
            l.quantize_weights(precision);
        }
        if let Some(l) = &mut self.per_feature_linear {
            l.quantize_weights(precision);
        }
    }

    /// Output widths of the flat and the per-feature branch (0 when absent).
    fn branch_widths(&self) -> (usize, usize) {
        (self.p * self.d, self.num_features * self.c * self.d)
    }
}

impl HasParameters for DlrmTowerModule {
    fn visit_parameters(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        if let Some(l) = &mut self.flat_linear {
            l.visit_parameters(visitor);
        }
        if let Some(l) = &mut self.per_feature_linear {
            l.visit_parameters(visitor);
        }
    }
}

impl TowerModule for DlrmTowerModule {
    type Scratch = DlrmTowerScratch;

    fn num_features(&self) -> usize {
        self.num_features
    }

    fn embedding_dim(&self) -> usize {
        self.embedding_dim
    }

    fn output_dim(&self) -> usize {
        self.d * (self.c * self.num_features + self.p)
    }

    fn forward_into(
        &self,
        embeddings: &Tensor,
        out: &mut Tensor,
        scratch: &mut DlrmTowerScratch,
    ) -> Result<(), TensorError> {
        let (s, batch) = (scratch, embeddings.shape().first().copied().unwrap_or(0));
        if let Some(flat) = &self.flat_linear {
            flat.forward_into(embeddings, false, &mut s.flat_out, &mut s.linear)?;
        }
        if let Some(per_feature) = &self.per_feature_linear {
            // View [B, F*N] as [B*F, N]; the projection [B*F, c*D] is
            // [B, F*c*D] row-major.
            let input = &mut s.per_feature_input;
            input.clone_from(embeddings);
            input.reshape_in_place(&[batch * self.num_features, self.embedding_dim])?;
            per_feature.forward_into(input, false, &mut s.per_feature_out, &mut s.linear)?;
        }
        // cat(flat, per-feature) along the columns.
        let (wf, wp) = self.branch_widths();
        out.reset_to_shape(&[batch, wf + wp]);
        for (r, row) in out.data_mut().chunks_exact_mut(wf + wp).enumerate() {
            row[..wf].copy_from_slice(&s.flat_out.data()[r * wf..(r + 1) * wf]);
            row[wf..].copy_from_slice(&s.per_feature_out.data()[r * wp..(r + 1) * wp]);
        }
        Ok(())
    }

    fn backward_into(
        &mut self,
        embeddings: &Tensor,
        scratch: &mut DlrmTowerScratch,
        grad_output: &Tensor,
        grad_input: &mut Tensor,
    ) -> Result<(), TensorError> {
        let (s, batch) = (scratch, embeddings.shape().first().copied().unwrap_or(0));
        let (wf, wp) = self.branch_widths();
        if grad_output.shape() != [batch, wf + wp] {
            return Err(TensorError::ShapeMismatch {
                op: "dlrm_tower_backward",
                lhs: grad_output.shape().to_vec(),
                rhs: vec![batch, wf + wp],
            });
        }
        let (piece, branch) = (&mut s.grad_piece, &mut s.grad_branch);
        match &mut self.flat_linear {
            Some(flat) => {
                grad_output.cols_into(0, wf, piece)?;
                flat.backward_into(embeddings, piece, grad_input, &mut s.linear)?;
            }
            None => grad_input.reset_to_shape(embeddings.shape()),
        }
        if let Some(per_feature) = &mut self.per_feature_linear {
            grad_output.cols_into(wf, wp, piece)?;
            piece.reshape_in_place(&[batch * self.num_features, self.c * self.d])?;
            per_feature.backward_into(&s.per_feature_input, piece, branch, &mut s.linear)?;
            branch.reshape_in_place(embeddings.shape())?;
            grad_input.axpy(1.0, branch)?;
        }
        Ok(())
    }

    fn flops_per_sample(&self) -> u64 {
        let mut flops = 0;
        if let Some(flat) = &self.flat_linear {
            flops += flat.flops_per_sample();
        }
        if let Some(per_feature) = &self.per_feature_linear {
            flops += per_feature.flops_per_sample() * self.num_features as u64;
        }
        flops
    }
}

/// DCN tower module (paper Listing 2): a small CrossNet over the flattened tower
/// embeddings followed by a projection to `F·D`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DcnTowerModule {
    crossnet: CrossNet,
    projection: Linear,
    num_features: usize,
    embedding_dim: usize,
    d: usize,
}

/// Activation record and work buffers of one [`DcnTowerModule`] forward.
#[derive(Debug, Default)]
pub struct DcnTowerScratch {
    crossed: Tensor,
    grad_crossed: Tensor,
    cross: CrossNetScratch,
    linear: LinearScratch,
}

impl DcnTowerModule {
    /// Creates a DCN tower module with `cross_layers` cross layers and output feature
    /// dimension `d`.
    ///
    /// # Errors
    ///
    /// Returns [`DmtError::InvalidConfig`] if any dimension is zero.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        num_features: usize,
        embedding_dim: usize,
        cross_layers: usize,
        d: usize,
    ) -> Result<Self, DmtError> {
        if num_features == 0 || embedding_dim == 0 || d == 0 || cross_layers == 0 {
            return Err(DmtError::InvalidConfig {
                reason: "tower dimensions must be positive".into(),
            });
        }
        let width = num_features * embedding_dim;
        Ok(Self {
            crossnet: CrossNet::new(rng, width, cross_layers),
            projection: Linear::new(rng, width, num_features * d),
            num_features,
            embedding_dim,
            d,
        })
    }

    /// Switches the projection's forward pass to the given storage precision.
    ///
    /// The CrossNet stays f32: its per-layer matvecs are tiny relative to the
    /// projection GEMM, so quantizing them would add error without a
    /// measurable speed or memory win.
    pub fn quantize_weights(&mut self, precision: dmt_tensor::Precision) {
        self.projection.quantize_weights(precision);
    }
}

impl HasParameters for DcnTowerModule {
    fn visit_parameters(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        self.crossnet.visit_parameters(visitor);
        self.projection.visit_parameters(visitor);
    }
}

impl TowerModule for DcnTowerModule {
    type Scratch = DcnTowerScratch;

    fn num_features(&self) -> usize {
        self.num_features
    }

    fn embedding_dim(&self) -> usize {
        self.embedding_dim
    }

    fn output_dim(&self) -> usize {
        self.num_features * self.d
    }

    fn forward_into(
        &self,
        embeddings: &Tensor,
        out: &mut Tensor,
        scratch: &mut DcnTowerScratch,
    ) -> Result<(), TensorError> {
        self.crossnet
            .forward_into(embeddings, &mut scratch.crossed, &mut scratch.cross)?;
        self.projection
            .forward_into(&scratch.crossed, false, out, &mut scratch.linear)
    }

    fn backward_into(
        &mut self,
        embeddings: &Tensor,
        scratch: &mut DcnTowerScratch,
        grad_output: &Tensor,
        grad_input: &mut Tensor,
    ) -> Result<(), TensorError> {
        let s = scratch;
        let grad_crossed = &mut s.grad_crossed;
        self.projection
            .backward_into(&s.crossed, grad_output, grad_crossed, &mut s.linear)?;
        self.crossnet
            .backward_into(embeddings, &mut s.cross, grad_crossed, grad_input)
    }

    fn flops_per_sample(&self) -> u64 {
        self.crossnet.flops_per_sample() + self.projection.flops_per_sample()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn dlrm_tower_output_dim_matches_formula() {
        // Paper: O = D (c|F| + p).
        let tm = DlrmTowerModule::new(&mut rng(), 4, 128, 1, 0, 64).unwrap();
        assert_eq!(tm.output_dim(), 64 * 4);
        let tm = DlrmTowerModule::new(&mut rng(), 4, 128, 0, 1, 128).unwrap();
        assert_eq!(tm.output_dim(), 128);
        let tm = DlrmTowerModule::new(&mut rng(), 3, 64, 2, 1, 32).unwrap();
        assert_eq!(tm.output_dim(), 32 * (2 * 3 + 1));
    }

    #[test]
    fn param_count_matches_the_built_module() {
        for (f, n, c, p, d) in [(4, 128, 1, 0, 64), (4, 128, 0, 1, 128), (3, 64, 2, 1, 32)] {
            let mut tm = DlrmTowerModule::new(&mut rng(), f, n, c, p, d).unwrap();
            let mut built = 0;
            tm.visit_parameters(&mut |param| built += param.len());
            assert_eq!(DlrmTowerModule::param_count(f, n, c, p, d), Some(built));
        }
        assert_eq!(
            DlrmTowerModule::param_count(13, 1 << 40, 0, 1, 1 << 40),
            None
        );
    }

    /// One forward + backward through the record-keeping API.
    fn forward_backward<M: TowerModule>(tm: &mut M, x: &Tensor) -> (Tensor, Tensor) {
        let (mut y, mut dx) = (Tensor::default(), Tensor::default());
        let mut scratch = M::Scratch::default();
        tm.forward_into(x, &mut y, &mut scratch).unwrap();
        tm.backward_into(x, &mut scratch, &Tensor::ones(y.shape()), &mut dx)
            .unwrap();
        (y, dx)
    }

    #[test]
    fn dlrm_tower_forward_backward_shapes() {
        let mut tm = DlrmTowerModule::new(&mut rng(), 3, 8, 1, 1, 4).unwrap();
        let x = Tensor::ones(&[5, 24]);
        let (y, dx) = forward_backward(&mut tm, &x);
        assert_eq!(y.shape(), &[5, tm.output_dim()]);
        assert_eq!(dx.shape(), x.shape());
        assert!(tm.forward(&Tensor::ones(&[5, 23])).is_err());
    }

    #[test]
    fn dlrm_tower_gradient_check() {
        let x =
            Tensor::from_vec(vec![2, 6], (0..12).map(|i| i as f32 * 0.05 - 0.3).collect()).unwrap();
        let mut tm = DlrmTowerModule::new(&mut rng(), 3, 2, 1, 1, 2).unwrap();
        let (_, dx) = forward_backward(&mut tm, &x);
        let eps = 1e-3f32;
        for &(r, c) in &[(0usize, 0usize), (1, 5)] {
            let mut plus = x.clone();
            plus.set(r, c, x.at(r, c) + eps);
            let mut minus = x.clone();
            minus.set(r, c, x.at(r, c) - eps);
            let fp = DlrmTowerModule::new(&mut rng(), 3, 2, 1, 1, 2)
                .unwrap()
                .forward(&plus)
                .unwrap()
                .sum();
            let fm = DlrmTowerModule::new(&mut rng(), 3, 2, 1, 1, 2)
                .unwrap()
                .forward(&minus)
                .unwrap()
                .sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - dx.at(r, c)).abs() < 2e-2,
                "analytic {} numeric {numeric}",
                dx.at(r, c)
            );
        }
    }

    #[test]
    fn compression_ratio_matches_table5_settings() {
        // DMT 8T-DLRM with N=128 and D of 64/32/16/8 gives CR of 2/4/8/16 when c=1, p=0
        // (output per feature = D).
        for (d, expected_cr) in [(64usize, 2.0f64), (32, 4.0), (16, 8.0), (8, 16.0)] {
            let tm = DlrmTowerModule::new(&mut rng(), 4, 128, 1, 0, d).unwrap();
            assert!((tm.compression_ratio() - expected_cr).abs() < 1e-9);
        }
    }

    #[test]
    fn dcn_tower_shapes_and_compression() {
        let mut tm = DcnTowerModule::new(&mut rng(), 4, 16, 2, 8).unwrap();
        assert_eq!(tm.output_dim(), 32);
        assert!((tm.compression_ratio() - 2.0).abs() < 1e-9);
        let x = Tensor::ones(&[3, 64]);
        let (y, dx) = forward_backward(&mut tm, &x);
        assert_eq!(y.shape(), &[3, 32]);
        assert_eq!(dx.shape(), x.shape());
        assert!(tm.flops_per_sample() > 0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(DlrmTowerModule::new(&mut rng(), 4, 128, 0, 0, 64).is_err());
        assert!(DlrmTowerModule::new(&mut rng(), 0, 128, 1, 0, 64).is_err());
        assert!(DcnTowerModule::new(&mut rng(), 4, 128, 0, 64).is_err());
        assert!(DcnTowerModule::new(&mut rng(), 4, 0, 1, 64).is_err());
    }

    #[test]
    fn tower_modules_have_trainable_parameters() {
        let mut dlrm_tm = DlrmTowerModule::new(&mut rng(), 4, 16, 1, 1, 8).unwrap();
        assert!(dlrm_tm.parameter_count() > 0);
        let mut dcn_tm = DcnTowerModule::new(&mut rng(), 4, 16, 1, 8).unwrap();
        // CrossNet (64x64 + 64) + projection (64x32 + 32).
        assert_eq!(dcn_tm.parameter_count(), 64 * 64 + 64 + 64 * 32 + 32);
    }
}
