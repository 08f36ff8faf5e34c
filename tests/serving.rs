//! End-to-end serving tests: the exported model must answer query streams with
//! predictions **bit-identical** to a direct forward pass through the
//! training-side model, for both deployments — with and without the hot-row
//! cache — and the DMT query path must move decisively fewer cross-host bytes
//! than baseline serving.

use dmt_core::tower::TowerModule;
use dmt_core::{naive_partition, DlrmTowerModule};
use dmt_data::{Query, ZipfRequestStream};
use dmt_models::ModelArch;
use dmt_nn::EmbeddingTable;
use dmt_serve::{
    serve_stream, BatchConfig, BatcherConfig, ComputePrecision, Pipeline, Request, ServeConfig,
    ServingEngine, StagePools, StreamConfig,
};
use dmt_tensor::Tensor;
use dmt_topology::{ClusterTopology, HardwareGeneration};
use dmt_trainer::distributed::model::DenseStack;
use dmt_trainer::distributed::{
    run_with_snapshot, DistributedConfig, ExecutionMode, ModelSnapshot,
};

fn cluster_2x4() -> ClusterTopology {
    ClusterTopology::new(HardwareGeneration::A100, 2, 4).unwrap()
}

/// Trains a short quick run and exports its snapshot.
fn snapshot(mode: ExecutionMode, arch: ModelArch) -> ModelSnapshot {
    let cfg = DistributedConfig::quick(cluster_2x4(), arch).with_iterations(3);
    let (_, snapshot) = run_with_snapshot(&cfg, mode).unwrap();
    snapshot
}

fn queries(snapshot: &ModelSnapshot, seed: u64, n: usize) -> Vec<Query> {
    ZipfRequestStream::new(snapshot.schema.clone(), seed, 1.1).next_queries(n)
}

/// The training-side reference: full (unsharded) tables, local pooling, the
/// snapshot's own dense stack (and tower modules in DMT mode) — one straight
/// forward pass over the whole batch.
fn reference_predictions(snapshot: &ModelSnapshot, queries: &[Query]) -> Vec<f32> {
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

/// Serves `batch` as one request: through the blocking colocated engine, or
/// offered to a pipeline with a pooled dense stage.
enum Deployment {
    Colocated(ServingEngine),
    Pooled(Pipeline),
}

impl Deployment {
    fn serve(&mut self, batch: Vec<Query>) -> Vec<f32> {
        match self {
            Deployment::Colocated(engine) => engine.submit(batch).unwrap(),
            Deployment::Pooled(engine) => {
                engine.offer(Request::new(batch)).unwrap();
                engine.flush().unwrap();
                loop {
                    engine.wait(std::time::Duration::from_millis(10));
                    if let Some(done) = engine.drain().unwrap().pop() {
                        return done.preds;
                    }
                }
            }
        }
    }

    fn cache_hits(&self) -> u64 {
        match self {
            Deployment::Colocated(engine) => engine.stats().cache.hits,
            Deployment::Pooled(engine) => engine.serve_stats().cache.hits,
        }
    }
}

#[test]
fn served_predictions_are_bit_identical_to_the_training_model() {
    // Batch and per-rank sub-batch sizes are multiples of 4 so every sample
    // takes the same GEMM microkernel path in the served (chunked) and the
    // reference (whole-batch) forward — the condition under which float
    // summation orders coincide exactly. Every feature composes with every
    // other: both deployments, dense colocated or pooled (4 lookup ranks over
    // both hosts, 2 dense ranks), cache on or off, every precision.
    for mode in [ExecutionMode::Baseline, ExecutionMode::Dmt] {
        let snapshot = snapshot(mode, ModelArch::Dlrm);
        let batch = queries(&snapshot, 42, 32); // 32 / 8 ranks = 4 per rank
        let reference = reference_predictions(&snapshot, &batch);
        for (pooled, cache_rows, precision) in [
            (false, 0usize, ComputePrecision::F32),
            (false, 4096, ComputePrecision::F32),
            (true, 0, ComputePrecision::F32),
            (true, 4096, ComputePrecision::F32),
            (false, 4096, ComputePrecision::Int8),
            (true, 0, ComputePrecision::Int8),
            (false, 0, ComputePrecision::Fp16),
            (true, 4096, ComputePrecision::Fp16),
        ] {
            let what = format!("{mode:?} pooled={pooled} cache={cache_rows} {precision}");
            let config = ServeConfig::new(cluster_2x4())
                .with_precision(precision)
                .with_batch(BatchConfig {
                    cache_rows,
                    ..BatchConfig::default()
                });
            let mut engine = if pooled {
                Deployment::Pooled(
                    Pipeline::start(&snapshot, StagePools::new(4, 2), &config).unwrap(),
                )
            } else {
                Deployment::Colocated(ServingEngine::start(&snapshot, &config).unwrap())
            };
            let served = engine.serve(batch.clone());
            assert_eq!(served.len(), reference.len());
            for (i, (s, r)) in served.iter().zip(&reference).enumerate() {
                if precision.is_f32() {
                    assert_eq!(
                        s.to_bits(),
                        r.to_bits(),
                        "{what}: query {i}: served {s} != reference {r}"
                    );
                } else {
                    assert!((s - r).abs() <= 0.01, "{what}: query {i}: {s} vs {r}");
                }
            }
            // Serving again out of a warm cache must not change a single bit.
            let warm = engine.serve(batch.clone());
            assert_eq!(warm, served, "{what}: warm-cache predictions drifted");
            if cache_rows > 0 {
                assert!(engine.cache_hits() > 0, "{what}: warm pass should hit");
            }
        }
    }
}

#[test]
fn dcn_arch_serves_bit_identically_too() {
    let snapshot = snapshot(ExecutionMode::Dmt, ModelArch::Dcn);
    let batch = queries(&snapshot, 9, 32);
    let reference = reference_predictions(&snapshot, &batch);
    let mut engine = ServingEngine::start(&snapshot, &ServeConfig::new(cluster_2x4())).unwrap();
    let served = engine.submit(batch).unwrap();
    for (s, r) in served.iter().zip(&reference) {
        assert_eq!(s.to_bits(), r.to_bits());
    }
}

#[test]
fn odd_batch_sizes_stay_numerically_close() {
    // Non-multiple-of-4 sub-batches may route samples through different GEMM
    // microkernel paths (different float summation grouping), so exact bit
    // equality is not guaranteed — but predictions must agree to float
    // tolerance and stay probabilities.
    let snapshot = snapshot(ExecutionMode::Baseline, ModelArch::Dlrm);
    let batch = queries(&snapshot, 17, 27);
    let reference = reference_predictions(&snapshot, &batch);
    let mut engine = ServingEngine::start(&snapshot, &ServeConfig::new(cluster_2x4())).unwrap();
    let served = engine.submit(batch).unwrap();
    for (s, r) in served.iter().zip(&reference) {
        assert!((s - r).abs() < 1e-5, "served {s} vs reference {r}");
        assert!((0.0..=1.0).contains(s));
    }
}

#[test]
fn baseline_snapshot_reshards_onto_a_different_cluster() {
    // The snapshot stores full tables, so baseline serving can run on any world
    // size — here 2 ranks instead of the 8 it was trained with.
    let snapshot = snapshot(ExecutionMode::Baseline, ModelArch::Dlrm);
    let small = ClusterTopology::new(HardwareGeneration::A100, 1, 2).unwrap();
    let batch = queries(&snapshot, 5, 16); // 8 per rank
    let reference = reference_predictions(&snapshot, &batch);
    let mut engine = ServingEngine::start(&snapshot, &ServeConfig::new(small)).unwrap();
    let served = engine.submit(batch).unwrap();
    for (s, r) in served.iter().zip(&reference) {
        assert_eq!(s.to_bits(), r.to_bits());
    }
}

#[test]
fn dmt_serving_moves_fewer_cross_host_bytes_per_query() {
    let base_snap = snapshot(ExecutionMode::Baseline, ModelArch::Dlrm);
    let dmt_snap = snapshot(ExecutionMode::Dmt, ModelArch::Dlrm);
    let stream_cfg = StreamConfig {
        num_requests: 192,
        inter_arrival_us: 0,
        batcher: BatcherConfig::new(64, 50_000),
    };
    let mut per_query = Vec::new();
    for snap in [&base_snap, &dmt_snap] {
        // No cache: measure the raw topology effect first.
        let config = ServeConfig::new(cluster_2x4()).with_batch(BatchConfig {
            cache_rows: 0,
            ..BatchConfig::default()
        });
        let mut engine = ServingEngine::start(snap, &config).unwrap();
        let mut stream = ZipfRequestStream::new(snap.schema.clone(), 33, 1.1);
        let report = serve_stream(&mut engine, &stream_cfg, || stream.next_query()).unwrap();
        assert_eq!(report.requests, 192);
        per_query.push(report.stats.cross_host_bytes_per_query());
        // DMT still pays intra-host lookups.
        assert!(report.stats.intra_host_bytes > 0);
    }
    let (baseline, dmt) = (per_query[0], per_query[1]);
    assert!(
        dmt < baseline / 2.0,
        "dmt {dmt:.0} B/query should be far below baseline {baseline:.0} B/query"
    );
}

#[test]
fn hot_row_cache_cuts_wire_bytes_on_skewed_traffic() {
    let snap = snapshot(ExecutionMode::Baseline, ModelArch::Dlrm);
    let stream_cfg = StreamConfig {
        num_requests: 256,
        inter_arrival_us: 0,
        batcher: BatcherConfig::new(64, 50_000),
    };
    let mut cross = Vec::new();
    for cache_rows in [0usize, 8192] {
        let config = ServeConfig::new(cluster_2x4()).with_batch(BatchConfig {
            cache_rows,
            ..BatchConfig::default()
        });
        let mut engine = ServingEngine::start(&snap, &config).unwrap();
        let mut stream = ZipfRequestStream::new(snap.schema.clone(), 4, 1.2);
        let report = serve_stream(&mut engine, &stream_cfg, || stream.next_query()).unwrap();
        if cache_rows > 0 {
            assert!(
                report.stats.cache.hit_rate() > 0.2,
                "zipf traffic should hit a warm cache (rate {:.2})",
                report.stats.cache.hit_rate()
            );
            assert!(report.stats.cache.saved_bytes > 0);
        }
        cross.push(report.stats.cross_host_bytes);
    }
    assert!(
        cross[1] < cross[0],
        "cache should cut cross-host bytes: {} !< {}",
        cross[1],
        cross[0]
    );
}

#[test]
fn deadline_trigger_closes_partial_batches_under_trickle_traffic() {
    let snap = snapshot(ExecutionMode::Baseline, ModelArch::Dlrm);
    let mut engine = ServingEngine::start(
        &snap,
        &ServeConfig::new(ClusterTopology::new(HardwareGeneration::A100, 1, 2).unwrap()),
    )
    .unwrap();
    // 24 requests trickling in every 2ms against a 64-deep batch with a 1ms
    // deadline: the size trigger can never fire, the deadline must.
    let stream_cfg = StreamConfig {
        num_requests: 24,
        inter_arrival_us: 2_000,
        batcher: BatcherConfig::new(64, 1_000),
    };
    let mut stream = ZipfRequestStream::new(snap.schema.clone(), 11, 1.1);
    let report = serve_stream(&mut engine, &stream_cfg, || stream.next_query()).unwrap();
    assert_eq!(report.requests, 24);
    assert_eq!(report.size_closes, 0);
    assert!(
        report.deadline_closes + report.flush_closes >= 2,
        "trickle traffic must close via deadline/flush"
    );
    assert!(report.latency.p99 > 0.0);
    assert!(report.latency.p50 <= report.latency.p99);
}

#[test]
fn snapshot_survives_the_file_format() {
    let snap = snapshot(ExecutionMode::Dmt, ModelArch::Dlrm);
    let dir = std::env::temp_dir().join("dmt_serving_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dmt.dmtsnap");
    snap.write_to(&path).unwrap();
    let restored = ModelSnapshot::read_from(&path).unwrap();
    assert_eq!(snap, restored);
    std::fs::remove_file(&path).ok();
    // And the restored snapshot serves the same bits.
    let batch = queries(&snap, 3, 16);
    let config = ServeConfig::new(cluster_2x4());
    let a = ServingEngine::start(&snap, &config)
        .unwrap()
        .submit(batch.clone())
        .unwrap();
    let b = ServingEngine::start(&restored, &config)
        .unwrap()
        .submit(batch)
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn dmt_snapshot_rejects_a_mismatched_host_count() {
    let snap = snapshot(ExecutionMode::Dmt, ModelArch::Dlrm);
    let wrong = ClusterTopology::new(HardwareGeneration::A100, 1, 4).unwrap();
    assert!(ServingEngine::start(&snap, &ServeConfig::new(wrong)).is_err());
}

#[test]
fn batch_size_one_works_and_empty_submit_is_a_noop() {
    let snap = snapshot(ExecutionMode::Dmt, ModelArch::Dlrm);
    let mut engine = ServingEngine::start(&snap, &ServeConfig::new(cluster_2x4())).unwrap();
    assert!(engine.submit(Vec::new()).unwrap().is_empty());
    // One query on 8 ranks: 7 ranks run the collectives with zero local work.
    let one = queries(&snap, 77, 1);
    let preds = engine.submit(one).unwrap();
    assert_eq!(preds.len(), 1);
    assert!((0.0..=1.0).contains(&preds[0]));
    assert_eq!(engine.stats().queries, 1);
}
