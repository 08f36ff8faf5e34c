//! Trainable recommendation models (baseline and DMT variants).

use crate::dense::{DenseScratch, DenseStack};
use crate::hyper::{ModelArch, ModelHyperparams};
use dmt_core::tower::{DcnTowerModule, DlrmTowerModule, TowerModule};
use dmt_core::{DmtConfig, DmtError, TowerModuleKind, TowerPartition};
use dmt_data::{Batch, DatasetSchema};
use dmt_nn::param::HasParameters;
use dmt_nn::{AdamOptimizer, EmbeddingTable, Optimizer, Parameter};
use dmt_tensor::{Tensor, TensorError};
use rand::Rng;
use std::fmt;

/// Errors produced while building or running a model.
#[derive(Debug)]
pub enum ModelError {
    /// A tensor shape mismatch inside the network.
    Tensor(TensorError),
    /// An invalid DMT configuration or partition.
    Dmt(DmtError),
    /// The batch does not match the model's schema.
    SchemaMismatch {
        /// Explanation of the mismatch.
        reason: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Tensor(e) => write!(f, "tensor error: {e}"),
            ModelError::Dmt(e) => write!(f, "dmt error: {e}"),
            ModelError::SchemaMismatch { reason } => write!(f, "schema mismatch: {reason}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<TensorError> for ModelError {
    fn from(value: TensorError) -> Self {
        ModelError::Tensor(value)
    }
}

impl From<DmtError> for ModelError {
    fn from(value: DmtError) -> Self {
        ModelError::Dmt(value)
    }
}

/// Result of one training step.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainStepStats {
    /// Mean binary cross-entropy of the batch.
    pub loss: f64,
    /// Predicted click probabilities.
    pub predictions: Vec<f32>,
}

/// One tower's dense module in a DMT model, with its last forward's record.
trait TowerUnit {
    fn output_dim(&self) -> usize;
    fn flops_per_sample(&self) -> u64;
    fn forward(&mut self, input: &Tensor, out: &mut Tensor) -> Result<(), TensorError>;
    fn backward(&mut self, x: &Tensor, dy: &Tensor, dx: &mut Tensor) -> Result<(), TensorError>;
    fn visit(&mut self, visitor: &mut dyn FnMut(&mut Parameter));
}

/// A tower module and the record of its last forward.
struct Tower<M: TowerModule> {
    module: M,
    scratch: M::Scratch,
}

impl<M: TowerModule> Tower<M> {
    fn boxed(module: M) -> Box<dyn TowerUnit>
    where
        M: 'static,
    {
        Box::new(Self {
            module,
            scratch: M::Scratch::default(),
        })
    }
}

impl<M: TowerModule> TowerUnit for Tower<M> {
    fn output_dim(&self) -> usize {
        self.module.output_dim()
    }

    fn flops_per_sample(&self) -> u64 {
        self.module.flops_per_sample()
    }

    fn forward(&mut self, input: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
        self.module.forward_into(input, out, &mut self.scratch)
    }

    fn backward(&mut self, x: &Tensor, dy: &Tensor, dx: &mut Tensor) -> Result<(), TensorError> {
        self.module.backward_into(x, &mut self.scratch, dy, dx)
    }

    fn visit(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        self.module.visit_parameters(visitor);
    }
}

/// SPTT-only: embeddings of the given total width pass through unchanged.
struct PassThrough(usize);

impl TowerUnit for PassThrough {
    fn output_dim(&self) -> usize {
        self.0
    }

    fn flops_per_sample(&self) -> u64 {
        0
    }

    fn forward(&mut self, input: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
        out.clone_from(input);
        Ok(())
    }

    fn backward(&mut self, _: &Tensor, dy: &Tensor, dx: &mut Tensor) -> Result<(), TensorError> {
        dx.clone_from(dy);
        Ok(())
    }

    fn visit(&mut self, _: &mut dyn FnMut(&mut Parameter)) {}
}

/// The tower stage of a DMT model: a feature partition plus one module per
/// tower, and each tower's last input (its backward's record) and output.
struct TowerStage {
    partition: TowerPartition,
    modules: Vec<Box<dyn TowerUnit>>,
    inputs: Vec<Tensor>,
    outputs: Vec<Tensor>,
}

/// The dense stack's inputs from the last feature build, which the backward
/// pass reads back.
#[derive(Default)]
struct Features {
    dense_input: Tensor,
    embs: Vec<Tensor>,
    block: Tensor,
}

/// A trainable recommendation model: embedding tables and an (optional) tower
/// stage feeding the shared [`DenseStack`] (bottom MLP, feature interaction,
/// over-arch and BCE loss).
///
/// Construct with [`RecommendationModel::baseline`] for the single-tower baseline or
/// [`RecommendationModel::dmt`] for a Disaggregated Multi-Tower variant.
pub struct RecommendationModel {
    hyper: ModelHyperparams,
    schema: DatasetSchema,
    tables: Vec<EmbeddingTable>,
    towers: Option<TowerStage>,
    dense: DenseStack,
    scratch: DenseScratch,
    adam: AdamOptimizer,
    features: Features,
}

impl RecommendationModel {
    /// Builds the single-tower baseline model (the paper's Strong Baseline
    /// architecture family).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the schema has no sparse features.
    pub fn baseline<R: Rng + ?Sized>(
        rng: &mut R,
        schema: &DatasetSchema,
        arch: ModelArch,
        hyper: &ModelHyperparams,
    ) -> Result<Self, ModelError> {
        Self::build(rng, schema, arch, hyper, None)
    }

    /// Builds a DMT variant: features are grouped by `partition` and each tower gets a
    /// module chosen by `config.tower_module`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the partition does not cover the schema's features or
    /// the DMT configuration is invalid.
    pub fn dmt<R: Rng + ?Sized>(
        rng: &mut R,
        schema: &DatasetSchema,
        arch: ModelArch,
        hyper: &ModelHyperparams,
        partition: TowerPartition,
        config: &DmtConfig,
    ) -> Result<Self, ModelError> {
        if partition.num_features() != schema.num_sparse() {
            return Err(ModelError::SchemaMismatch {
                reason: format!(
                    "partition covers {} features but the schema has {}",
                    partition.num_features(),
                    schema.num_sparse()
                ),
            });
        }
        Self::build(rng, schema, arch, hyper, Some((partition, config.clone())))
    }

    fn build<R: Rng + ?Sized>(
        rng: &mut R,
        schema: &DatasetSchema,
        arch: ModelArch,
        hyper: &ModelHyperparams,
        dmt: Option<(TowerPartition, DmtConfig)>,
    ) -> Result<Self, ModelError> {
        if schema.num_sparse() == 0 {
            return Err(ModelError::SchemaMismatch {
                reason: "schema has no sparse features".into(),
            });
        }
        let n = hyper.embedding_dim;
        let tables: Vec<EmbeddingTable> = schema
            .sparse_cardinalities
            .iter()
            .map(|&cardinality| EmbeddingTable::new(rng, cardinality, n))
            .collect();

        // Tower stage and interaction geometry: every tower output is a whole
        // number of interaction units.
        let (towers, unit_width) = match dmt {
            None => (None, n),
            Some((partition, config)) => {
                let (c, p, d) = (
                    config.ensemble_c,
                    config.ensemble_p,
                    config.tower_output_dim,
                );
                let mut modules = Vec::with_capacity(partition.num_towers());
                for group in partition.groups() {
                    let f_t = group.len();
                    modules.push(match config.tower_module {
                        TowerModuleKind::PassThrough => Box::new(PassThrough(f_t * n)),
                        TowerModuleKind::DlrmLinear => {
                            Tower::boxed(DlrmTowerModule::new(rng, f_t, n, c, p, d)?)
                        }
                        TowerModuleKind::DcnCross => {
                            let layers = config.tower_cross_layers;
                            Tower::boxed(DcnTowerModule::new(rng, f_t, n, layers, d)?)
                        }
                    });
                }
                let unit_width = match config.tower_module {
                    TowerModuleKind::PassThrough => n,
                    _ => d,
                };
                let stage = TowerStage {
                    inputs: vec![Tensor::default(); modules.len()],
                    outputs: vec![Tensor::default(); modules.len()],
                    partition,
                    modules,
                };
                (Some(stage), unit_width)
            }
        };
        let feature_units = towers
            .as_ref()
            .map_or(schema.num_sparse(), |t: &TowerStage| {
                t.modules.iter().map(|m| m.output_dim() / unit_width).sum()
            });
        let num_units = feature_units + 1; // +1 for the dense representation.
        let dense = DenseStack::from_rng(rng, schema, arch, hyper, unit_width, num_units);

        Ok(Self {
            hyper: hyper.clone(),
            schema: schema.clone(),
            tables,
            towers,
            dense,
            scratch: DenseScratch::default(),
            adam: AdamOptimizer::new(1e-3),
            features: Features::default(),
        })
    }

    /// Whether this is a DMT (multi-tower) variant.
    #[must_use]
    pub fn is_dmt(&self) -> bool {
        self.towers.is_some()
    }

    /// Number of towers (1 for the baseline).
    #[must_use]
    pub fn num_towers(&self) -> usize {
        self.towers.as_ref().map_or(1, |t| t.partition.num_towers())
    }

    /// Total trainable parameters (dense + embedding).
    #[must_use]
    pub fn parameter_count(&mut self) -> usize {
        let embedding: usize = self
            .tables
            .iter()
            .map(EmbeddingTable::parameter_count)
            .sum();
        let mut dense = 0usize;
        self.visit_parameters(&mut |p| dense += p.len());
        embedding + dense
    }

    /// Approximate forward FLOPs per sample.
    #[must_use]
    pub fn flops_per_sample(&self) -> u64 {
        let n = self.hyper.embedding_dim as u64;
        let lookup: u64 = self
            .schema
            .pooling_factors
            .iter()
            .map(|&p| 2 * p as u64 * n)
            .sum();
        let towers: u64 = self
            .towers
            .as_ref()
            .map_or(0, |t| t.modules.iter().map(|m| m.flops_per_sample()).sum());
        lookup + towers + self.dense.flops_per_sample()
    }

    /// Builds the dense stack's inputs for `batch`: the dense-feature matrix
    /// and the feature block (pooled embeddings, through the tower stage for
    /// DMT). Every record the backward pass needs stays in the model.
    fn build_features(&mut self, batch: &Batch) -> Result<(), ModelError> {
        if batch.sparse.len() != self.schema.num_sparse() {
            return Err(ModelError::SchemaMismatch {
                reason: format!(
                    "batch has {} sparse features, model expects {}",
                    batch.sparse.len(),
                    self.schema.num_sparse()
                ),
            });
        }
        let a = &mut self.features;
        let dense_shape = vec![batch.len(), self.schema.num_dense];
        a.dense_input = Tensor::from_vec(dense_shape, batch.dense_flat())?;

        // Embedding lookups, one tensor per feature.
        a.embs.clear();
        for (table, bags) in self.tables.iter_mut().zip(&batch.sparse) {
            a.embs.push(table.forward(bags)?);
        }

        // Tower stage (or identity for the baseline).
        let features: Vec<&Tensor> = match &mut self.towers {
            Some(stage) => {
                let groups = stage.partition.groups().iter().zip(&mut stage.modules);
                let io = stage.inputs.iter_mut().zip(&mut stage.outputs);
                for ((group, module), (input, output)) in groups.zip(io) {
                    let members: Vec<&Tensor> = group.iter().map(|&f| &a.embs[f]).collect();
                    Tensor::concat_cols_into(&members, input)?;
                    module.forward(input, output)?;
                }
                stage.outputs.iter().collect()
            }
            None => a.embs.iter().collect(),
        };
        Tensor::concat_cols_into(&features, &mut a.block)?;
        Ok(())
    }

    /// Runs forward + backward + optimizer updates for one batch and returns the loss
    /// and predictions.
    ///
    /// Dense parameters are updated with Adam at `learning_rate`; embedding tables use
    /// row-wise Adagrad at the same rate (the standard split in DLRM-style trainers).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the batch does not match the schema.
    pub fn train_step(
        &mut self,
        batch: &Batch,
        learning_rate: f32,
    ) -> Result<TrainStepStats, ModelError> {
        self.zero_grad();
        self.build_features(batch)?;
        let (f, mut predictions) = (&self.features, Vec::new());
        let loss = self.dense.forward_backward(
            &f.dense_input,
            &f.block,
            &batch.labels,
            1.0,
            &mut predictions,
            &mut self.scratch,
        )?;
        self.backward()?;

        // Dense update (Adam is `Copy`, so temporarily move it out to satisfy the
        // borrow checker).
        let mut adam = self.adam;
        adam.learning_rate = learning_rate;
        adam.step(self);
        self.adam = adam;
        // Sparse update.
        for table in &mut self.tables {
            table.apply_rowwise_adagrad(learning_rate, 1e-8);
        }
        Ok(TrainStepStats { loss, predictions })
    }

    /// Predicts click probabilities without updating any parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the batch does not match the schema.
    pub fn predict(&mut self, batch: &Batch) -> Result<Vec<f32>, ModelError> {
        self.build_features(batch)?;
        let (f, mut predictions) = (&self.features, Vec::new());
        self.dense.forward_infer(
            &f.dense_input,
            &f.block,
            &mut predictions,
            &mut self.scratch,
        )?;
        Ok(predictions)
    }

    /// Mean rows of each embedding table — the feature-affinity probe the Tower
    /// Partitioner consumes (§3.3 uses the normalized feature embeddings of an original
    /// model).
    #[must_use]
    pub fn feature_embedding_probe(&self, rows_per_table: usize) -> Vec<Vec<f32>> {
        self.tables
            .iter()
            .map(|t| {
                let rows: Vec<usize> = (0..rows_per_table.min(t.num_embeddings())).collect();
                t.mean_row(&rows)
            })
            .collect()
    }

    /// Backward pass of the tower stage and the tables, from the feature-block
    /// gradient the last [`DenseStack::forward_backward`] left.
    fn backward(&mut self) -> Result<(), ModelError> {
        // Undo the tower stage (or identity) to get per-feature embedding gradients.
        let (grad_block, mut piece) = (self.scratch.feature_grad(), Tensor::default());
        let n = self.hyper.embedding_dim;
        let feature_grads: Vec<Tensor> = match &mut self.towers {
            Some(stage) => {
                let widths: Vec<usize> = stage.modules.iter().map(|m| m.output_dim()).collect();
                let tower_grads = grad_block.split_cols(&widths)?;
                let mut per_feature: Vec<Option<Tensor>> = vec![None; self.tables.len()];
                let groups = stage.partition.groups().iter().zip(&stage.inputs);
                for ((group, input), (module, grad)) in
                    groups.zip(stage.modules.iter_mut().zip(tower_grads))
                {
                    module.backward(input, &grad, &mut piece)?;
                    for (&f, g) in group.iter().zip(piece.split_cols(&vec![n; group.len()])?) {
                        per_feature[f] = Some(g);
                    }
                }
                per_feature
                    .into_iter()
                    .map(|g| g.expect("every feature receives a gradient"))
                    .collect()
            }
            None => grad_block.split_cols(&vec![n; self.tables.len()])?,
        };
        for (table, grad) in self.tables.iter_mut().zip(feature_grads) {
            table.backward(&grad)?;
        }
        Ok(())
    }

    /// Drops embedding-table pending gradients (dense gradients are zeroed through
    /// [`HasParameters::zero_grad`], which this calls too).
    pub fn zero_grad(&mut self) {
        for table in &mut self.tables {
            table.zero_grad();
        }
        HasParameters::zero_grad(self);
    }
}

impl HasParameters for RecommendationModel {
    fn visit_parameters(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        if let Some(stage) = &mut self.towers {
            for module in &mut stage.modules {
                module.visit(visitor);
            }
        }
        self.dense.visit_parameters(visitor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_core::{naive_partition, DmtConfig};
    use dmt_data::SyntheticClickDataset;
    use dmt_metrics::roc_auc;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> DatasetSchema {
        DatasetSchema::criteo_like_small()
    }

    fn baseline(arch: ModelArch) -> RecommendationModel {
        let mut rng = StdRng::seed_from_u64(1);
        RecommendationModel::baseline(&mut rng, &schema(), arch, &ModelHyperparams::tiny()).unwrap()
    }

    fn dmt_model(arch: ModelArch, kind: TowerModuleKind, towers: usize) -> RecommendationModel {
        let mut rng = StdRng::seed_from_u64(1);
        let s = schema();
        let partition = naive_partition(s.num_sparse(), towers).unwrap();
        let config = DmtConfig::builder(towers)
            .tower_module(kind)
            .tower_output_dim(8)
            .ensemble(1, 0)
            .cross_layers(1)
            .build()
            .unwrap();
        RecommendationModel::dmt(
            &mut rng,
            &s,
            arch,
            &ModelHyperparams::tiny(),
            partition,
            &config,
        )
        .unwrap()
    }

    #[test]
    fn baseline_forward_shapes() {
        for arch in [ModelArch::Dlrm, ModelArch::Dcn] {
            let mut model = baseline(arch);
            let mut data = SyntheticClickDataset::new(schema(), 2);
            let batch = data.next_batch(16);
            assert_eq!(model.predict(&batch).unwrap().len(), 16);
            assert!(!model.is_dmt());
            assert_eq!(model.num_towers(), 1);
        }
    }

    #[test]
    fn dmt_forward_shapes_for_all_tower_kinds() {
        for arch in [ModelArch::Dlrm, ModelArch::Dcn] {
            for kind in [
                TowerModuleKind::PassThrough,
                TowerModuleKind::DlrmLinear,
                TowerModuleKind::DcnCross,
            ] {
                let mut model = dmt_model(arch, kind, 4);
                let mut data = SyntheticClickDataset::new(schema(), 2);
                let batch = data.next_batch(8);
                assert_eq!(model.predict(&batch).unwrap().len(), 8, "{arch:?} {kind:?}");
                assert!(model.is_dmt());
                assert_eq!(model.num_towers(), 4);
            }
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut model = baseline(ModelArch::Dlrm);
        let mut data = SyntheticClickDataset::new(schema(), 3);
        let mut losses = Vec::new();
        for _ in 0..40 {
            let batch = data.next_batch(128);
            losses.push(model.train_step(&batch, 1e-2).unwrap().loss);
        }
        let early: f64 = losses[..5].iter().sum::<f64>() / 5.0;
        let late: f64 = losses[losses.len() - 5..].iter().sum::<f64>() / 5.0;
        assert!(late < early, "loss {early} -> {late}");
    }

    /// Loss bits of three `train_step`s for each dense path this model trains:
    /// DLRM and DCN baselines, DMT with DLRM and DCN tower modules, and
    /// SPTT-only pass-through towers.
    #[test]
    fn train_step_losses_match_the_recorded_bits() {
        let models = [
            (
                baseline(ModelArch::Dlrm),
                [
                    0x3fe7acc5720f34edu64,
                    0x3fe58a3b1a347282,
                    0x3fe3af0510dfe98c,
                ],
            ),
            (
                baseline(ModelArch::Dcn),
                [0x3fe77153f1e06c66, 0x3fe58df125fea260, 0x3fe39b9f7fb5140e],
            ),
            (
                dmt_model(ModelArch::Dlrm, TowerModuleKind::DlrmLinear, 4),
                [0x3fe5aec6f13d5bc6, 0x3fe58164a580e0f9, 0x3fe380dc437bcc9d],
            ),
            (
                dmt_model(ModelArch::Dcn, TowerModuleKind::DcnCross, 4),
                [0x3fe632637d6f1f72, 0x3fe6c348a72d328d, 0x3fe36d0522cf75ec],
            ),
            (
                dmt_model(ModelArch::Dlrm, TowerModuleKind::PassThrough, 4),
                [0x3fe75e4fe27df6c6, 0x3fe59f1495846644, 0x3fe39ed5bfb2fefa],
            ),
        ];
        for (i, (mut model, golden)) in models.into_iter().enumerate() {
            let mut data = SyntheticClickDataset::new(schema(), 6);
            let bits: Vec<u64> = (0..3)
                .map(|_| {
                    let batch = data.next_batch(64);
                    model.train_step(&batch, 1e-2).unwrap().loss.to_bits()
                })
                .collect();
            assert_eq!(bits, golden, "model {i} loss drifted");
        }
    }

    #[test]
    fn trained_model_beats_random_auc() {
        let mut model = baseline(ModelArch::Dlrm);
        let mut data = SyntheticClickDataset::new(schema(), 4);
        for _ in 0..60 {
            let batch = data.next_batch(256);
            model.train_step(&batch, 1e-2).unwrap();
        }
        let eval = data.next_batch(2000);
        let preds = model.predict(&eval).unwrap();
        let auc = roc_auc(&preds, &eval.labels).unwrap();
        assert!(auc > 0.62, "AUC was {auc}");
    }

    #[test]
    fn dmt_training_also_learns() {
        let mut model = dmt_model(ModelArch::Dlrm, TowerModuleKind::DlrmLinear, 4);
        let mut data = SyntheticClickDataset::new(schema(), 5);
        for _ in 0..50 {
            let batch = data.next_batch(256);
            model.train_step(&batch, 1e-2).unwrap();
        }
        let eval = data.next_batch(2000);
        let preds = model.predict(&eval).unwrap();
        let auc = roc_auc(&preds, &eval.labels).unwrap();
        assert!(auc > 0.58, "DMT AUC was {auc}");
    }

    #[test]
    fn parameter_and_flop_accounting() {
        let mut base = baseline(ModelArch::Dlrm);
        let params = base.parameter_count();
        assert!(params > 0);
        // Embedding parameters dominate even the small schema.
        let embedding: usize = schema()
            .sparse_cardinalities
            .iter()
            .map(|c| c * ModelHyperparams::tiny().embedding_dim)
            .sum();
        assert!(params > embedding);
        assert!(base.flops_per_sample() > 0);

        // Pass-through towers keep FLOPs identical to the baseline's interaction cost
        // structure (they add no parameters).
        let mut sptt = dmt_model(ModelArch::Dlrm, TowerModuleKind::PassThrough, 2);
        assert_eq!(sptt.parameter_count(), params);
    }

    #[test]
    fn tower_modules_reduce_interaction_flops_for_dlrm() {
        // With D << N the DMT model's pairwise interaction runs over narrower units, so
        // total FLOPs drop versus the baseline (Table 4's 14.74 -> 8.95 MFlops trend).
        let base = baseline(ModelArch::Dlrm);
        let dmt = dmt_model(ModelArch::Dlrm, TowerModuleKind::DlrmLinear, 4);
        assert!(dmt.flops_per_sample() < base.flops_per_sample());
    }

    #[test]
    fn schema_mismatch_is_reported() {
        let mut model = baseline(ModelArch::Dlrm);
        let other_schema = DatasetSchema::new(
            2,
            vec![10, 10],
            vec![dmt_data::FeatureBlock::User, dmt_data::FeatureBlock::Item],
            vec![1, 1],
        );
        let mut data = SyntheticClickDataset::new(other_schema, 1);
        let batch = data.next_batch(4);
        assert!(matches!(
            model.predict(&batch),
            Err(ModelError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn partition_must_cover_schema() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = schema();
        let partition = naive_partition(4, 2).unwrap();
        let config = DmtConfig::builder(2).build().unwrap();
        assert!(matches!(
            RecommendationModel::dmt(
                &mut rng,
                &s,
                ModelArch::Dlrm,
                &ModelHyperparams::tiny(),
                partition,
                &config
            ),
            Err(ModelError::SchemaMismatch { .. })
        ));
    }
}
