//! Property tests: quantized embedding tables and the int8/fp16 dense path
//! (`dmt_nn::quantized`, `dmt_tensor::qgemm`, `dmt_nn::Linear`).
//!
//! Quantized serving is only sound if (a) table round-trip error is bounded by
//! each precision's documented per-row bound, (b) the on-the-fly dequantizing
//! lookup is bit-identical to dequantizing the whole table first and looking
//! rows up through the f32 table, (c) re-sharding a quantized table never
//! changes a single answered bit at any world size, (d) the SIMD int8 GEMM is
//! bit-identical to its scalar tier and an fp16 layer is the f32 kernel over
//! f16-rounded weights, and (e) a fully quantized serving
//! forward pass stays within tight quality bounds of the f32 deployment. All
//! five are checked here, mirroring the wire codec's property suite.

use dmt_data::{Query, ZipfRequestStream};
use dmt_metrics::{log_loss, roc_auc};
use dmt_models::ModelArch;
use dmt_nn::{
    EmbeddingTable, Linear, LinearScratch, QuantizedEmbeddingTable, QuantizedShardedTable,
};
use dmt_serve::{ComputePrecision, ServeConfig, ServingEngine};
use dmt_tensor::quant::{decode_f16_slice, encode_f16_slice};
use dmt_tensor::{gemm_a_bt_q8, with_tier, Precision, QuantizedBtMatrix, Tensor, Tier};
use dmt_topology::{ClusterTopology, HardwareGeneration};
use dmt_trainer::distributed::{
    run_with_snapshot, DistributedConfig, ExecutionMode, ModelSnapshot,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic f32 weights in a serving-realistic range.
fn weights(seed: u64, len: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-4.0f32..4.0)).collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// fp16 and int8 table round-trips stay within each precision's documented
    /// per-row error bound (int8 scales are per row, so the bound is too).
    #[test]
    fn quantized_table_round_trip_error_is_bounded(
        num in 1usize..24,
        dim in 1usize..12,
        seed in any::<u64>(),
    ) {
        let w = weights(seed, num * dim);
        for precision in [Precision::Fp16, Precision::Int8] {
            let q = QuantizedEmbeddingTable::from_weights(num, dim, &w, precision);
            prop_assert_eq!(q.precision(), precision);
            let back = q.dequantize_weights();
            prop_assert_eq!(back.len(), w.len());
            for (row, back_row) in w.chunks_exact(dim).zip(back.chunks_exact(dim)) {
                let max_abs = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                let bound = precision.max_abs_error(max_abs) * (1.0 + 1e-5);
                for (v, d) in row.iter().zip(back_row) {
                    prop_assert!(
                        (v - d).abs() <= bound,
                        "{}: {} -> {} (bound {})", precision, v, d, bound
                    );
                }
            }
        }
    }

    /// The allocation-free on-the-fly dequantizing lookup is bit-identical to
    /// dequantizing the whole table and looking rows up through the f32 table —
    /// including the modulo wrap on out-of-range indices.
    #[test]
    fn quantized_lookup_matches_dequantize_then_lookup_bitwise(
        num in 1usize..24,
        dim in 1usize..12,
        seed in any::<u64>(),
        rows in proptest::collection::vec(0usize..64, 0..40),
    ) {
        let w = weights(seed, num * dim);
        for precision in [Precision::Fp16, Precision::Int8] {
            let q = QuantizedEmbeddingTable::from_weights(num, dim, &w, precision);
            let full = EmbeddingTable::from_weights(num, dim, q.dequantize_weights());
            let got = q.lookup_rows(&rows);
            let want = full.lookup_rows(&rows);
            prop_assert_eq!(bits(&got), bits(&want), "{}: lookup drifted", precision);
            // The `_into` form appends after existing contents, untouched.
            let mut out = vec![0.5f32];
            q.lookup_rows_into(&rows, &mut out);
            prop_assert_eq!(out[0], 0.5f32);
            prop_assert_eq!(bits(&out[1..]), bits(&want));
        }
    }

    /// Sharding a quantized table is invisible: at every world size, routing
    /// each row to its owner shard answers exactly the unsharded table's bits
    /// (int8 scales are per row, so shard boundaries cannot change them).
    #[test]
    fn sharded_quantized_lookup_matches_unsharded_bitwise(
        num in 1usize..24,
        dim in 1usize..12,
        seed in any::<u64>(),
        rows in proptest::collection::vec(0usize..64, 0..40),
    ) {
        let w = weights(seed, num * dim);
        for precision in [Precision::Fp16, Precision::Int8] {
            let whole = QuantizedEmbeddingTable::from_weights(num, dim, &w, precision);
            for world in [1usize, 2, 3, 5, 8] {
                let rows_per_shard = num.div_ceil(world);
                let shards: Vec<QuantizedShardedTable> = (0..world)
                    .map(|s| {
                        let lo = (s * rows_per_shard).min(num);
                        let hi = ((s + 1) * rows_per_shard).min(num);
                        QuantizedShardedTable::from_local_rows(
                            num, dim, world, s, &w[lo * dim..hi * dim], precision,
                        )
                    })
                    .collect();
                for &raw in &rows {
                    let owner = shards[0].owner_of(raw);
                    let got = shards[owner].lookup_rows(&[raw]).unwrap();
                    let want = whole.lookup_rows(&[raw]);
                    prop_assert_eq!(
                        bits(&got), bits(&want),
                        "{} world={}: row {} drifted", precision, world, raw
                    );
                }
            }
        }
    }

    /// The runtime-dispatched int8 GEMM is bit-identical to its scalar tier
    /// (exact i32 accumulation makes lane order irrelevant), and an fp16
    /// layer's forward is bit-identical to the fused f32 kernel over its
    /// f16-rounded weight.
    #[test]
    fn simd_and_scalar_quantized_gemms_are_bit_identical(
        m in 1usize..9,
        k in 1usize..48,
        n in 1usize..9,
        seed in any::<u64>(),
    ) {
        let a = weights(seed, m * k);
        let b = weights(seed.wrapping_add(1), k * n);
        let q8 = QuantizedBtMatrix::from_col_major(&b, k, n);
        let mut simd = vec![0.0f32; m * n];
        let mut scalar = vec![0.0f32; m * n];
        gemm_a_bt_q8(&a, &q8, &mut simd, m, k);
        with_tier(Tier::Scalar, || gemm_a_bt_q8(&a, &q8, &mut scalar, m, k));
        prop_assert_eq!(bits(&simd), bits(&scalar), "int8 SIMD != scalar");

        let mut layer = Linear::new(&mut StdRng::seed_from_u64(seed), k, n);
        let x = Tensor::from_vec(vec![m, k], a).unwrap();
        let mut halves = vec![0u16; k * n];
        encode_f16_slice(layer.weight().data(), &mut halves);
        let mut rounded = vec![0.0f32; k * n];
        decode_f16_slice(&halves, &mut rounded);
        let rounded = Tensor::from_vec(vec![k, n], rounded).unwrap();
        let mut reference = Tensor::default();
        // `Linear::new` starts from a zero bias.
        x.matmul_bias_act_into(&rounded, &Tensor::zeros(&[n]), true, &mut reference).unwrap();
        layer.quantize_weights(Precision::Fp16);
        let mut quant = Tensor::default();
        layer.forward_into(&x, true, &mut quant, &mut LinearScratch::default()).unwrap();
        prop_assert_eq!(
            bits(quant.data()),
            bits(reference.data()),
            "fp16 layer != f32 kernel on f16-rounded W"
        );
    }
}

#[test]
fn quantized_tables_shrink_resident_bytes_by_the_documented_factor() {
    let (num, dim) = (256, 64);
    let w = weights(3, num * dim);
    let f32_bytes = (num * dim * 4) as u64;
    let fp16 = QuantizedEmbeddingTable::from_weights(num, dim, &w, Precision::Fp16);
    let int8 = QuantizedEmbeddingTable::from_weights(num, dim, &w, Precision::Int8);
    assert_eq!(fp16.resident_bytes(), f32_bytes / 2);
    assert!(
        int8.resident_bytes() * 2 <= f32_bytes,
        "int8 table must halve-or-better resident bytes: {} vs {}",
        int8.resident_bytes(),
        f32_bytes
    );
}

/// Serving quality: the same traffic served at fp16 and int8 must track the
/// f32 deployment closely — small max prediction delta, and logloss/AUC against
/// labels drawn from the f32 model's own predictions within tight deltas.
#[test]
fn quantized_serving_quality_deltas_are_bounded() {
    let cluster = ClusterTopology::new(HardwareGeneration::A100, 2, 4).unwrap();
    let cfg = DistributedConfig::quick(cluster.clone(), ModelArch::Dlrm).with_iterations(3);
    let (_, snapshot) = run_with_snapshot(&cfg, ExecutionMode::Dmt).unwrap();
    let queries: Vec<Query> =
        ZipfRequestStream::new(snapshot.schema.clone(), 21, 1.1).next_queries(256);

    let serve = |precision: ComputePrecision| -> Vec<f32> {
        let config = ServeConfig::new(cluster.clone()).with_precision(precision);
        let mut engine = ServingEngine::start(&snapshot, &config).unwrap();
        let preds = engine.submit(queries.clone()).unwrap();
        let stats = engine.stats();
        assert!(stats.table_resident_bytes > 0);
        if !precision.is_f32() {
            // Quantized shards must actually be resident in reduced precision:
            // fp16 halves every row, int8 quarters it plus a per-row scale.
            assert!(
                stats.table_resident_bytes * 2 <= reference_table_bytes(&snapshot),
                "{precision}: tables not stored at half the f32 bytes or less"
            );
        }
        preds
    };

    let f32_preds = serve(ComputePrecision::F32);
    // Labels drawn from the f32 model's own predictive distribution: the f32
    // deployment scores near its own ceiling, and a sound quantization must not
    // fall measurably below it.
    let mut rng = StdRng::seed_from_u64(97);
    let labels: Vec<f32> = f32_preds
        .iter()
        .map(|&p| f32::from(u8::from(rng.gen_bool(f64::from(p)))))
        .collect();
    let base_loss = log_loss(&f32_preds, &labels).unwrap();
    let base_auc = roc_auc(&f32_preds, &labels).unwrap();

    for (precision, max_delta) in [
        (ComputePrecision::Fp16, 5e-3f32),
        (ComputePrecision::Int8, 5e-2f32),
    ] {
        let preds = serve(precision);
        assert_eq!(preds.len(), f32_preds.len());
        let worst = preds
            .iter()
            .zip(&f32_preds)
            .map(|(q, f)| (q - f).abs())
            .fold(0.0f32, f32::max);
        assert!(
            worst <= max_delta,
            "{precision}: max prediction delta {worst} exceeds {max_delta}"
        );
        let loss = log_loss(&preds, &labels).unwrap();
        let auc = roc_auc(&preds, &labels).unwrap();
        assert!(
            (loss - base_loss).abs() <= 0.01,
            "{precision}: logloss {loss:.4} drifted from f32 {base_loss:.4}"
        );
        assert!(
            (auc - base_auc).abs() <= 0.01,
            "{precision}: AUC {auc:.4} drifted from f32 {base_auc:.4}"
        );
    }
}

/// f32 bytes the embedding shards would occupy — the yardstick the quantized
/// deployments must beat.
fn reference_table_bytes(snapshot: &ModelSnapshot) -> u64 {
    (0..snapshot.schema.num_sparse())
        .map(|f| {
            let t = snapshot.table(f).expect("snapshot covers every feature");
            (t.rows * t.dim * 4) as u64
        })
        .sum()
}

/// A DMT snapshot's towers and embedding shards reload into a quantized engine
/// and still answer probabilities — the re-sharding boundary works end to end.
#[test]
fn dcn_arch_serves_quantized_too() {
    let cluster = ClusterTopology::new(HardwareGeneration::A100, 2, 4).unwrap();
    let cfg = DistributedConfig::quick(cluster.clone(), ModelArch::Dcn).with_iterations(3);
    let (_, snapshot) = run_with_snapshot(&cfg, ExecutionMode::Dmt).unwrap();
    let queries = ZipfRequestStream::new(snapshot.schema.clone(), 8, 1.1).next_queries(32);
    let f32_preds = ServingEngine::start(&snapshot, &ServeConfig::new(cluster.clone()))
        .unwrap()
        .submit(queries.clone())
        .unwrap();
    for precision in [ComputePrecision::Fp16, ComputePrecision::Int8] {
        let config = ServeConfig::new(cluster.clone()).with_precision(precision);
        let preds = ServingEngine::start(&snapshot, &config)
            .unwrap()
            .submit(queries.clone())
            .unwrap();
        for (q, f) in preds.iter().zip(&f32_preds) {
            assert!(
                (0.0..=1.0).contains(q),
                "{precision}: {q} not a probability"
            );
            assert!((q - f).abs() < 0.1, "{precision}: {q} far from f32 {f}");
        }
    }
}
