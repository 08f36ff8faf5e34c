//! Helpers shared by the serving integration tests.

use dmt_core::tower::TowerModule;
use dmt_core::{naive_partition, DlrmTowerModule};
use dmt_data::Query;
use dmt_models::DenseStack;
use dmt_nn::EmbeddingTable;
use dmt_tensor::Tensor;
use dmt_trainer::distributed::{ExecutionMode, ModelSnapshot};

/// The training-side reference: full (unsharded) tables, local pooling, the
/// snapshot's own dense stack (and tower modules in DMT mode) — one straight
/// forward pass over the whole batch.
pub fn reference_predictions(snapshot: &ModelSnapshot, queries: &[Query]) -> Vec<f32> {
    use dmt_trainer::distributed::model::load_params;
    use rand::SeedableRng;
    let schema = &snapshot.schema;
    let n = snapshot.hyper.embedding_dim;
    let b = queries.len();
    // Pool every feature locally from the full exported tables.
    let mut pooled: Vec<Tensor> = Vec::with_capacity(schema.num_sparse());
    for f in 0..schema.num_sparse() {
        let table = snapshot.table(f).expect("snapshot covers every feature");
        let mut full = EmbeddingTable::from_weights(table.rows, table.dim, table.data.clone());
        let bags: Vec<Vec<usize>> = queries.iter().map(|q| q.sparse[f].clone()).collect();
        pooled.push(full.forward(&bags).unwrap());
    }
    let dense_input = Tensor::from_vec(
        vec![b, schema.num_dense],
        queries.iter().flat_map(|q| q.dense.clone()).collect(),
    )
    .unwrap();
    let (unit_width, num_units, feature_block) = match snapshot.mode {
        ExecutionMode::Baseline => {
            let refs: Vec<&Tensor> = pooled.iter().collect();
            (
                n,
                schema.num_sparse() + 1,
                Tensor::concat_cols(&refs).unwrap(),
            )
        }
        ExecutionMode::Dmt => {
            // Tower-wise: concat each tower's features, compress, concat outputs.
            let partition = naive_partition(schema.num_sparse(), snapshot.num_towers).unwrap();
            let (c, p, d) = (
                snapshot.tower_ensemble_c,
                snapshot.tower_ensemble_p,
                snapshot.tower_output_dim,
            );
            let mut outputs = Vec::new();
            let mut units = 1usize;
            for (t, group) in partition.groups().iter().enumerate() {
                let mut group = group.clone();
                group.sort_unstable();
                let refs: Vec<&Tensor> = group.iter().map(|&f| &pooled[f]).collect();
                let tower_input = Tensor::concat_cols(&refs).unwrap();
                let mut rng = rand::rngs::StdRng::seed_from_u64(0);
                let mut tower = DlrmTowerModule::new(&mut rng, group.len(), n, c, p, d).unwrap();
                load_params(&mut tower, &snapshot.tower_params[t]).unwrap();
                outputs.push(tower.forward(&tower_input).unwrap());
                units += c * group.len() + p;
            }
            let refs: Vec<&Tensor> = outputs.iter().collect();
            (d, units, Tensor::concat_cols(&refs).unwrap())
        }
    };
    let mut dense = DenseStack::new(
        snapshot.seed,
        schema,
        snapshot.arch,
        &snapshot.hyper,
        unit_width,
        num_units,
    );
    load_params(&mut dense, &snapshot.dense_params).unwrap();
    dense.forward(&dense_input, &feature_block).unwrap()
}
