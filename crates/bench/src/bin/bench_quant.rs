//! Quantized-compute tracker and gate: storage, kernels, and the fully
//! quantized serving forward pass.
//!
//! Three layers are measured, each at f32 / fp16 / int8:
//!
//! * **Table lookups** (`quant_lookup`): random-row gathers from an
//!   out-of-cache embedding table — the memory-bandwidth case quantized
//!   storage exists for. Resident bytes per precision are reported and the
//!   int8 table must be at least 2× smaller than f32.
//! * **GEMM** (`quant_gemm`): the tower shape and the serving over-arch's
//!   widest layer through f32 (the faster of the dot-product and fused-bias
//!   kernels, so int8 is held against the strongest f32 contender) and the
//!   runtime-dispatched int8 kernel, which must beat f32 at both shapes. fp16
//!   dense weights run the f32 kernel, so they have no row of their own.
//! * **Serving** (`serving_quant`): the full DMT serving path — quantized
//!   shards, quantized hot-row cache, quantized dense/tower weights — under
//!   a fabric paced `FABRIC_SLOWDOWN`× slower than the cluster's, so the
//!   gated timing is dominated by deterministic sleeps and stable on a shared
//!   CI box. An unpaced pass per precision is reported alongside
//!   (`ns_per_request_unpaced`, not gated) for the raw compute effect.
//!
//! Quality is asserted, not just reported: fp16 and int8 predictions on the
//! same streamed queries must stay within tight logloss/AUC deltas of the f32
//! deployment (labels drawn from the f32 model's own predictive
//! distribution).
//!
//! Results go to `BENCH_quant.json` (committed baseline, one `--pair` of
//! the CI bench-regression gate). Run with
//! `cargo run --release -p dmt-bench --bin bench_quant` (add `--quick` in CI;
//! `--tiers` prints the kernel tiers of this machine and exits).

use dmt_comm::FabricProfile;
use dmt_data::{Query, ZipfRequestStream};
use dmt_metrics::{log_loss, roc_auc};
use dmt_models::ModelArch;
use dmt_nn::{EmbeddingTable, QuantizedEmbeddingTable};
use dmt_serve::{
    serve_stream, BatchConfig, BatcherConfig, ComputePrecision, ServeConfig, ServeReport,
    ServingEngine, StreamConfig,
};
use dmt_tensor::isa::tier_line;
use dmt_tensor::kernels::{gemm_a_bt, gemm_fused_bias};
use dmt_tensor::{gemm_a_bt_q8, Precision, QuantizedBtMatrix};
use dmt_topology::{ClusterTopology, HardwareGeneration};
use dmt_trainer::distributed::{
    run_with_snapshot, DistributedConfig, ExecutionMode, ModelSnapshot,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

/// One gated measurement row.
#[derive(Debug, Clone, Serialize)]
struct QuantRow {
    /// Operation name (`quant_lookup`, `quant_gemm`, `serving_quant`).
    op: String,
    /// Shape label ending in the precision (`... f32|fp16|int8`).
    shape: String,
    /// Nanoseconds per unit of work (row gathered, GEMM call, or request).
    ns_per_iter: f64,
    /// Bytes resident in the measured tables/weights at this precision.
    resident_bytes: u64,
    /// This precision's f32 time divided by its own (1.0 for the f32 row).
    speedup_vs_f32: f64,
    /// Units measured.
    iters: u64,
}

/// The serving rows carry quality deltas and the unpaced timing as well.
#[derive(Debug, Clone, Serialize)]
struct ServingQuantRow {
    /// `serving_quant`.
    op: String,
    /// Cluster / batch / fabric / precision label.
    shape: String,
    /// Paced nanoseconds per request (gated; pacing-dominated, so stable).
    ns_per_iter: f64,
    /// Unpaced nanoseconds per request (reported, not gated).
    ns_per_request_unpaced: f64,
    /// Bytes resident in embedding shards across all ranks.
    table_resident_bytes: u64,
    /// Bytes resident in hot-row caches across all ranks.
    cache_resident_bytes: u64,
    /// Worst |prediction − f32 prediction| over the quality batch.
    max_pred_delta: f64,
    /// Logloss minus the f32 deployment's logloss (same synthetic labels).
    logloss_delta: f64,
    /// AUC minus the f32 deployment's AUC.
    auc_delta: f64,
    /// Unpaced f32 ns/request divided by this precision's (1.0 for f32).
    speedup_vs_f32: f64,
    /// Requests per timed pass.
    iters: u64,
}

/// Annotation row the gate skips (no `ns_per_iter`).
#[derive(Debug, Clone, Serialize)]
struct SimdNote {
    op: String,
    shape: String,
    /// The kernel tier of every family on the measuring host.
    tiers: String,
}

/// Embedding dimension of the lookup microbench.
const LOOKUP_DIM: usize = 64;
/// Rows of the lookup table: 200k × 64 × 4 B ≈ 51 MiB at f32, far past LLC,
/// so the gather is bandwidth-bound — the regime quantized storage targets.
const LOOKUP_ROWS: usize = 200_000;
/// Rows gathered per lookup call (a serving batch's worth).
const LOOKUP_BATCH: usize = 512;
/// GEMMs of the serving forward, [batch, in] × [in, out]: the tower shape
/// and the widest layer of the single-rank server's over-arch.
const GEMM_SHAPES: [(usize, usize, usize); 2] = [(64, 256, 128), (64, 383, 128)];
/// Fabric slowdown of the gated serving rows: stretches wire time so pacing,
/// not scheduler noise, dominates their timing.
const FABRIC_SLOWDOWN: f64 = 4_000.0;
/// Admission batch size of the serving rows.
const BATCH: usize = 64;
/// Zipf exponent of the request stream.
const ZIPF: f64 = 1.1;
/// Per-rank hot-row cache capacity.
const CACHE_ROWS: usize = 4_096;

/// Best-of-`passes` wall time of `work`, in nanoseconds per `units`.
fn time_ns_per_unit(passes: usize, units: u64, mut work: impl FnMut()) -> f64 {
    (0..passes)
        .map(|_| {
            let t = Instant::now();
            work();
            t.elapsed().as_secs_f64() * 1e9 / units as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn serve(
    snapshot: &ModelSnapshot,
    cluster: &ClusterTopology,
    fabric: FabricProfile,
    precision: ComputePrecision,
    requests: usize,
) -> ServeReport {
    let config = ServeConfig::new(cluster.clone())
        .with_fabric(fabric)
        .with_precision(precision)
        .with_batch(BatchConfig {
            cache_rows: CACHE_ROWS,
            ..BatchConfig::default()
        });
    let mut engine = ServingEngine::start(snapshot, &config).expect("engine start");
    let mut stream = ZipfRequestStream::new(snapshot.schema.clone(), 1234, ZIPF);
    let warmup = StreamConfig {
        num_requests: BATCH,
        inter_arrival_us: 0,
        batcher: BatcherConfig::new(BATCH, 10_000),
    };
    let _ = serve_stream(&mut engine, &warmup, || stream.next_query()).expect("warmup");
    let stream_cfg = StreamConfig {
        num_requests: requests,
        inter_arrival_us: 0,
        batcher: BatcherConfig::new(BATCH, 10_000),
    };
    (0..3)
        .map(|_| serve_stream(&mut engine, &stream_cfg, || stream.next_query()).expect("serve"))
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("three passes ran")
}

/// Predictions for one fixed query batch at a precision (for quality deltas).
fn predictions(
    snapshot: &ModelSnapshot,
    cluster: &ClusterTopology,
    precision: ComputePrecision,
    queries: &[Query],
) -> Vec<f32> {
    let config = ServeConfig::new(cluster.clone()).with_precision(precision);
    let mut engine = ServingEngine::start(snapshot, &config).expect("engine start");
    engine.submit(queries.to_vec()).expect("submit")
}

fn main() -> ExitCode {
    let quick = dmt_bench::quick_mode();
    let lookup_iters = if quick { 200u64 } else { 1_000 };
    let gemm_iters = if quick { 2_000u64 } else { 10_000 };
    let serve_requests = if quick { 512 } else { 2_048 };

    dmt_bench::header("Quantized compute: storage, kernels, serving (see BENCH_quant.json)");
    println!("{}", tier_line());
    if std::env::args().any(|a| a == "--tiers") {
        return ExitCode::SUCCESS;
    }

    let mut failed = false;
    let mut check = |label: &str, ok: bool| {
        if ok {
            println!("PASS: {label}");
        } else {
            eprintln!("FAIL: {label}");
            failed = true;
        }
    };
    let mut rows: Vec<String> = Vec::new();
    fn pretty<T: serde::Serialize>(row: &T) -> String {
        serde_json::to_string_pretty(row).expect("row serializes")
    }

    // ---- Table lookups: bandwidth-bound random gathers. --------------------
    println!("\nbuilding {LOOKUP_ROWS}x{LOOKUP_DIM} lookup table...");
    let mut rng = StdRng::seed_from_u64(11);
    let weights: Vec<f32> = (0..LOOKUP_ROWS * LOOKUP_DIM)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let indices: Vec<usize> = (0..LOOKUP_BATCH * 128)
        .map(|_| rng.gen_range(0usize..LOOKUP_ROWS))
        .collect();
    let f32_table = EmbeddingTable::from_weights(LOOKUP_ROWS, LOOKUP_DIM, weights.clone());
    let f32_table_bytes = (LOOKUP_ROWS * LOOKUP_DIM * 4) as u64;
    let mut out = Vec::with_capacity(LOOKUP_BATCH * LOOKUP_DIM);
    let lookup_units = lookup_iters * LOOKUP_BATCH as u64;
    let mut gather = |body: &mut dyn FnMut(&[usize], &mut Vec<f32>)| {
        let mut offset = 0usize;
        for _ in 0..lookup_iters {
            let batch = &indices[offset..offset + LOOKUP_BATCH];
            out.clear();
            body(batch, &mut out);
            offset = (offset + LOOKUP_BATCH) % (indices.len() - LOOKUP_BATCH);
        }
    };
    let f32_lookup_ns = time_ns_per_unit(3, lookup_units, || {
        gather(&mut |batch, out| f32_table.lookup_rows_into(batch, out));
    });
    let mut lookup_results: Vec<(Precision, f64, u64)> =
        vec![(Precision::F32, f32_lookup_ns, f32_table_bytes)];
    for precision in [Precision::Fp16, Precision::Int8] {
        let q = QuantizedEmbeddingTable::from_weights(LOOKUP_ROWS, LOOKUP_DIM, &weights, precision);
        let ns = time_ns_per_unit(3, lookup_units, || {
            gather(&mut |batch, out| q.lookup_rows_into(batch, out));
        });
        lookup_results.push((precision, ns, q.resident_bytes()));
    }
    println!(
        "{:<16} {:>28} {:>12} {:>14} {:>10}",
        "op", "shape", "ns/row", "resident MiB", "vs f32"
    );
    for &(precision, ns, bytes) in &lookup_results {
        let row = QuantRow {
            op: "quant_lookup".into(),
            shape: format!("{LOOKUP_ROWS}x{LOOKUP_DIM} b{LOOKUP_BATCH} {precision}"),
            ns_per_iter: ns,
            resident_bytes: bytes,
            speedup_vs_f32: f32_lookup_ns / ns,
            iters: lookup_units,
        };
        println!(
            "{:<16} {:>28} {:>12.1} {:>14.1} {:>9.2}x",
            row.op,
            row.shape,
            row.ns_per_iter,
            bytes as f64 / (1 << 20) as f64,
            row.speedup_vs_f32
        );
        rows.push(pretty(&row));
    }

    // ---- GEMM: the tower and serving shapes through each kernel. -----------
    let mut int8_gemm_beats_f32 = true;
    for (m, k, n) in GEMM_SHAPES {
        let mut rng = StdRng::seed_from_u64(12);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        // Row-major B^T for the f32 dot kernel; the int8 kernel packs B once,
        // as the serving engine does at load.
        let mut bt = vec![0.0f32; n * k];
        for j in 0..n {
            for p in 0..k {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let q8 = QuantizedBtMatrix::from_col_major(&b, k, n);
        let mut c = vec![0.0f32; m * n];
        let zero_bias = vec![0.0f32; n];
        let f32_gemm_bytes = (n * k * 4) as u64;
        let f32_dot_ns = time_ns_per_unit(3, gemm_iters, || {
            for _ in 0..gemm_iters {
                c.iter_mut().for_each(|v| *v = 0.0);
                gemm_a_bt(&a, &bt, &mut c, m, k, n);
            }
        });
        // The kernel `Linear`'s f32 forward actually runs.
        let f32_fused_ns = time_ns_per_unit(3, gemm_iters, || {
            for _ in 0..gemm_iters {
                gemm_fused_bias(&a, &b, &zero_bias, &mut c, m, k, n, false);
            }
        });
        let f32_gemm_ns = f32_dot_ns.min(f32_fused_ns);
        let int8_ns = time_ns_per_unit(3, gemm_iters, || {
            for _ in 0..gemm_iters {
                gemm_a_bt_q8(&a, &q8, &mut c, m, k);
            }
        });
        int8_gemm_beats_f32 &= int8_ns < f32_gemm_ns;
        for (precision, ns, bytes) in [
            (Precision::F32, f32_gemm_ns, f32_gemm_bytes),
            (Precision::Int8, int8_ns, q8.resident_bytes()),
        ] {
            let row = QuantRow {
                op: "quant_gemm".into(),
                shape: format!("{m}x{k}x{n} {precision}"),
                ns_per_iter: ns,
                resident_bytes: bytes,
                speedup_vs_f32: f32_gemm_ns / ns,
                iters: gemm_iters,
            };
            println!(
                "{:<16} {:>28} {:>12.1} {:>14.3} {:>9.2}x",
                row.op,
                row.shape,
                row.ns_per_iter,
                bytes as f64 / (1 << 20) as f64,
                row.speedup_vs_f32
            );
            rows.push(pretty(&row));
        }
    }

    // ---- Serving: the fully quantized forward pass. ------------------------
    println!("\ntraining + exporting the DMT snapshot...");
    let cluster = ClusterTopology::new(HardwareGeneration::A100, 2, 4).expect("2x4 cluster");
    let train_cfg = DistributedConfig::quick(cluster.clone(), ModelArch::Dlrm).with_iterations(4);
    let (_, snapshot) = run_with_snapshot(&train_cfg, ExecutionMode::Dmt).expect("dmt training");
    let fabric = FabricProfile::from_cluster(&cluster, FABRIC_SLOWDOWN);
    let unthrottled = FabricProfile::unthrottled();
    let quality_queries: Vec<Query> =
        ZipfRequestStream::new(snapshot.schema.clone(), 21, ZIPF).next_queries(256);
    let f32_preds = predictions(&snapshot, &cluster, ComputePrecision::F32, &quality_queries);
    // Labels from the f32 model's own predictive distribution: the f32
    // deployment scores near its own ceiling and quantization must hold it.
    let mut rng = StdRng::seed_from_u64(97);
    let labels: Vec<f32> = f32_preds
        .iter()
        .map(|&p| f32::from(u8::from(rng.gen_bool(f64::from(p)))))
        .collect();
    let f32_loss = log_loss(&f32_preds, &labels).expect("f32 logloss");
    let f32_auc = roc_auc(&f32_preds, &labels).expect("f32 auc");

    println!(
        "{:<16} {:>28} {:>12} {:>12} {:>11} {:>10} {:>9}",
        "op", "shape", "ns/req", "unpaced", "tbl MiB", "Δlogloss", "ΔAUC"
    );
    let mut serving_rows: Vec<ServingQuantRow> = Vec::new();
    let mut f32_unpaced_ns = 0.0f64;
    let mut f32_paced_ns = 0.0f64;
    for precision in [
        ComputePrecision::F32,
        ComputePrecision::Fp16,
        ComputePrecision::Int8,
    ] {
        let paced = serve(&snapshot, &cluster, fabric, precision, serve_requests);
        let unpaced = serve(&snapshot, &cluster, unthrottled, precision, serve_requests);
        let paced_ns = paced.wall_s * 1e9 / paced.requests.max(1) as f64;
        let unpaced_ns = unpaced.wall_s * 1e9 / unpaced.requests.max(1) as f64;
        if precision.is_f32() {
            f32_unpaced_ns = unpaced_ns;
            f32_paced_ns = paced_ns;
        }
        let preds = predictions(&snapshot, &cluster, precision, &quality_queries);
        let max_pred_delta = preds
            .iter()
            .zip(&f32_preds)
            .map(|(q, f)| f64::from((q - f).abs()))
            .fold(0.0f64, f64::max);
        let row = ServingQuantRow {
            op: "serving_quant".into(),
            shape: format!("2x4 b{BATCH} f{FABRIC_SLOWDOWN:.0} zipf{ZIPF} {precision}"),
            ns_per_iter: paced_ns,
            ns_per_request_unpaced: unpaced_ns,
            table_resident_bytes: paced.stats.table_resident_bytes,
            cache_resident_bytes: paced.stats.cache_resident_bytes,
            max_pred_delta,
            logloss_delta: log_loss(&preds, &labels).expect("logloss") - f32_loss,
            auc_delta: roc_auc(&preds, &labels).expect("auc") - f32_auc,
            speedup_vs_f32: f32_unpaced_ns / unpaced_ns,
            iters: paced.requests as u64,
        };
        println!(
            "{:<16} {:>28} {:>12.0} {:>12.0} {:>11.2} {:>+10.4} {:>+9.4}",
            row.op,
            row.shape,
            row.ns_per_iter,
            row.ns_per_request_unpaced,
            row.table_resident_bytes as f64 / (1 << 20) as f64,
            row.logloss_delta,
            row.auc_delta
        );
        serving_rows.push(row);
    }
    for row in &serving_rows {
        rows.push(pretty(row));
    }
    let note = SimdNote {
        op: "quant_note".into(),
        shape: "simd".into(),
        tiers: tier_line(),
    };
    rows.push(pretty(&note));

    let json = format!("[\n{}\n]", rows.join(",\n"));
    std::fs::write("BENCH_quant.json", &json).expect("write BENCH_quant.json");
    println!("[results written to BENCH_quant.json]");

    // ---- The claims the bench exists to hold. ------------------------------
    let int8_lookup = &lookup_results[2];
    let fp16_lookup = &lookup_results[1];
    check(
        "int8 lookup table is >= 2x smaller than f32",
        int8_lookup.2 * 2 <= f32_table_bytes,
    );
    check(
        "fp16 lookup table is half the f32 bytes",
        fp16_lookup.2 * 2 == f32_table_bytes,
    );
    // The decode overhead bound is deliberately loose: run-to-run memory noise
    // on a shared box swings these gathers by ~30%, so the genuine int8 win
    // shows up in the reported `speedup_vs_f32`, not in a knife-edge assert.
    check(
        "int8 random gathers stay within 1.3x of f32 despite the decode",
        int8_lookup.1 <= f32_lookup_ns * 1.3,
    );
    check(
        "fp16 random gathers stay within 3x of f32 despite the decode",
        fp16_lookup.1 <= f32_lookup_ns * 3.0,
    );
    check(
        "int8 GEMM is faster than f32 at the tower and serving shapes",
        int8_gemm_beats_f32,
    );
    let f32_serving = &serving_rows[0];
    for row in &serving_rows[1..] {
        check(
            &format!("{}: serving tables are >= 2x smaller than f32", row.shape),
            row.table_resident_bytes * 2 <= f32_serving.table_resident_bytes,
        );
        check(
            &format!(
                "{}: quantized cache is smaller than the f32 cache",
                row.shape
            ),
            f32_serving.cache_resident_bytes == 0
                || row.cache_resident_bytes < f32_serving.cache_resident_bytes,
        );
        check(
            &format!("{}: paced ns/request no worse than f32 (x1.10)", row.shape),
            row.ns_per_iter <= f32_paced_ns * 1.10,
        );
        check(
            &format!("{}: |logloss delta| <= 0.01", row.shape),
            row.logloss_delta.abs() <= 0.01,
        );
        check(
            &format!("{}: |AUC delta| <= 0.01", row.shape),
            row.auc_delta.abs() <= 0.01,
        );
    }
    check(
        "fp16 max prediction delta <= 5e-3",
        serving_rows[1].max_pred_delta <= 5e-3,
    );
    check(
        "int8 max prediction delta <= 5e-2",
        serving_rows[2].max_pred_delta <= 5e-2,
    );

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
