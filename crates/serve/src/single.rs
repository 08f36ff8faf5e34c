//! [`SingleRankServer`]: the pipeline's two stages on a world of one rank,
//! called inline.
//!
//! With `world == 1` every embedding row is local, so routing is the identity
//! and the lookup stage pools straight out of the rank's shard; there is no
//! peer to exchange with, so there is no comm link, no worker thread and no
//! front either — the caller's thread runs *lookup → dense* over rank-local
//! state ([`crate::model`]). That is what makes a hard zero-allocation
//! guarantee possible:
//!
//! > After a warm-up batch of each shape, [`SingleRankServer::serve_into`]
//! > performs **zero heap allocations** per call (asserted by the
//! > counting-allocator test in `tests/zero_alloc.rs`).
//!
//! Every buffer of the forward pass — the pooled feature block, the dense
//! input, each MLP/interaction intermediate and the quantized-GEMM scratch —
//! lives in the rank's state and is reshaped in place per batch. Predictions
//! are bit-identical to a multi-rank deployment at the same precision: the
//! pooling accumulates rows in the same bag order the routed fetch does, and
//! the dense stage is the same code.

use crate::model::{load_rank, RankModel};
use crate::{BatchConfig, ServeConfig, ServeError};
use dmt_data::Query;
use dmt_metrics::trace;
use dmt_tensor::Precision;
use dmt_topology::{ClusterTopology, HardwareGeneration};
use dmt_trainer::distributed::{ExecutionMode, ModelSnapshot};

/// A baseline snapshot served from a single rank with reusable buffers.
pub struct SingleRankServer {
    rank: RankModel,
}

impl SingleRankServer {
    /// Loads a baseline snapshot at the given storage precision
    /// ([`Precision::F32`] is the exact bit-identical-to-training path;
    /// int8/fp16 quantize tables and dense weights once at load time).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for a DMT-mode snapshot (tower outputs
    /// need the peer exchange of a multi-rank deployment) or an inconsistent
    /// snapshot.
    pub fn from_snapshot(
        snapshot: &ModelSnapshot,
        precision: Precision,
    ) -> Result<Self, ServeError> {
        if snapshot.mode != ExecutionMode::Baseline {
            return Err(ServeError::Config {
                reason: "SingleRankServer serves baseline snapshots; DMT tower \
                         compression needs the multi-rank peer exchange"
                    .into(),
            });
        }
        // No peer will ever ask this rank for a row, so nothing is cached.
        let cluster = ClusterTopology::new(HardwareGeneration::A100, 1, 1)
            .expect("one host of one rank is a cluster");
        let config = ServeConfig::new(cluster)
            .with_precision(precision)
            .with_batch(BatchConfig {
                cache_rows: 0,
                ..BatchConfig::default()
            });
        Ok(Self {
            rank: load_rank(snapshot, &config.cluster, 0, &config, true)?,
        })
    }

    /// Bytes resident in the embedding tables at the loaded precision.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.rank.shards().resident_bytes()
    }

    /// Serves one micro-batch, writing the per-query click probabilities into
    /// `predictions` (cleared first). After a warm-up call of the same batch
    /// shape, this performs zero heap allocations: pooling, dense input
    /// assembly and every dense-stack intermediate reuse the rank's buffers.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] if a query's dense width does not match the
    /// snapshot schema.
    pub fn serve_into(
        &mut self,
        queries: &[Query],
        predictions: &mut Vec<f32>,
    ) -> Result<(), ServeError> {
        // One relaxed atomic load when tracing is off (no allocation, no clock
        // read — the name closure never runs), so the zero-alloc guarantee and
        // the disabled-mode ns/request both hold with this compiled in.
        let _span = trace::span(trace::cat::SERVE, || format!("serve {}", queries.len()));
        self.rank.serve_local(queries, predictions)
    }

    /// [`SingleRankServer::serve_into`] returning a fresh prediction vector —
    /// the convenience form for callers that do not recycle buffers.
    ///
    /// # Errors
    ///
    /// Same as [`SingleRankServer::serve_into`].
    pub fn serve(&mut self, queries: &[Query]) -> Result<Vec<f32>, ServeError> {
        let mut out = Vec::with_capacity(queries.len());
        self.serve_into(queries, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeConfig, ServingEngine};
    use dmt_data::ZipfRequestStream;
    use dmt_models::ModelArch;
    use dmt_trainer::distributed::{run_with_snapshot, DistributedConfig};

    fn baseline_snapshot() -> ModelSnapshot {
        let cluster = ClusterTopology::new(HardwareGeneration::A100, 1, 2).unwrap();
        let cfg = DistributedConfig::quick(cluster, ModelArch::Dlrm).with_iterations(1);
        let (_run, snapshot) = run_with_snapshot(&cfg, ExecutionMode::Baseline).unwrap();
        snapshot
    }

    #[test]
    fn predictions_match_the_multi_rank_engine_bit_identically() {
        let snapshot = baseline_snapshot();
        let cluster = ClusterTopology::new(HardwareGeneration::A100, 1, 2).unwrap();
        let mut engine = ServingEngine::start(&snapshot, &ServeConfig::new(cluster)).unwrap();
        let mut single = SingleRankServer::from_snapshot(&snapshot, Precision::F32).unwrap();

        let mut stream = ZipfRequestStream::new(snapshot.schema.clone(), 11, 1.1);
        for batch in [1usize, 8, 13] {
            let queries = stream.next_queries(batch);
            let expected = engine.submit(queries.clone()).unwrap();
            let got = single.serve(&queries).unwrap();
            assert_eq!(got.len(), expected.len());
            for (a, b) in got.iter().zip(&expected) {
                assert_eq!(a.to_bits(), b.to_bits(), "batch {batch}");
            }
        }
        let _stats = engine.shutdown();
    }

    #[test]
    fn quantized_precisions_load_and_serve() {
        let snapshot = baseline_snapshot();
        let f32_bytes = SingleRankServer::from_snapshot(&snapshot, Precision::F32)
            .unwrap()
            .resident_bytes();
        for precision in [Precision::Fp16, Precision::Int8] {
            let mut server = SingleRankServer::from_snapshot(&snapshot, precision).unwrap();
            assert!(server.resident_bytes() < f32_bytes);
            let mut stream = ZipfRequestStream::new(snapshot.schema.clone(), 3, 1.1);
            let preds = server.serve(&stream.next_queries(4)).unwrap();
            assert_eq!(preds.len(), 4);
            assert!(preds.iter().all(|p| (0.0..=1.0).contains(p)));
        }
    }

    #[test]
    fn dmt_snapshots_are_rejected() {
        let cluster = ClusterTopology::new(HardwareGeneration::A100, 2, 2).unwrap();
        let cfg = DistributedConfig::quick(cluster, ModelArch::Dlrm).with_iterations(1);
        let (_run, snapshot) = run_with_snapshot(&cfg, ExecutionMode::Dmt).unwrap();
        assert!(matches!(
            SingleRankServer::from_snapshot(&snapshot, Precision::F32),
            Err(ServeError::Config { .. })
        ));
    }
}
