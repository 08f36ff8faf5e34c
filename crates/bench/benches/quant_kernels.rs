//! Criterion benches for the quantized-compute kernels: f32 vs int8 GEMM at
//! serving tower shapes, and f32 vs quantized embedding-row gathers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmt_nn::{EmbeddingTable, QuantizedEmbeddingTable};
use dmt_tensor::kernels::gemm_a_bt;
use dmt_tensor::{gemm_a_bt_q8, Precision, QuantizedBtMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The f32 kernel against the int8 kernel at serving forward shapes:
/// a tower GEMM (64×256×128) and a dense-stack layer (64×128×64).
fn bench_quant_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("quant_gemm");
    for &(m, k, n) in &[(64usize, 256usize, 128usize), (64, 128, 64)] {
        let label = format!("{m}x{k}x{n}");
        let mut rng = StdRng::seed_from_u64(13);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut bt = vec![0.0f32; n * k];
        for j in 0..n {
            for p in 0..k {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let q8 = QuantizedBtMatrix::from_col_major(&b, k, n);
        let mut out = vec![0.0f32; m * n];
        group.bench_with_input(BenchmarkId::new("f32", &label), &m, |bench, _| {
            bench.iter(|| {
                out.iter_mut().for_each(|v| *v = 0.0);
                gemm_a_bt(&a, &bt, &mut out, m, k, n);
            });
        });
        group.bench_with_input(BenchmarkId::new("int8", &label), &m, |bench, _| {
            bench.iter(|| gemm_a_bt_q8(&a, &q8, &mut out, m, k));
        });
    }
    group.finish();
}

/// Random-row gathers (a serving batch's worth) from an out-of-cache table at
/// each storage precision — the memory-bound path quantized storage targets.
fn bench_quant_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("quant_lookup");
    let (rows, dim, batch) = (100_000usize, 64usize, 512usize);
    let mut rng = StdRng::seed_from_u64(14);
    let weights: Vec<f32> = (0..rows * dim)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let indices: Vec<usize> = (0..batch).map(|_| rng.gen_range(0usize..rows)).collect();
    let label = format!("{rows}x{dim}_b{batch}");
    let f32_table = EmbeddingTable::from_weights(rows, dim, weights.clone());
    let mut out = Vec::with_capacity(batch * dim);
    group.bench_with_input(BenchmarkId::new("f32", &label), &rows, |bench, _| {
        bench.iter(|| {
            out.clear();
            f32_table.lookup_rows_into(&indices, &mut out);
        });
    });
    for precision in [Precision::Fp16, Precision::Int8] {
        let q = QuantizedEmbeddingTable::from_weights(rows, dim, &weights, precision);
        group.bench_with_input(
            BenchmarkId::new(precision.to_string(), &label),
            &rows,
            |bench, _| {
                bench.iter(|| {
                    out.clear();
                    q.lookup_rows_into(&indices, &mut out);
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_quant_gemm, bench_quant_lookup);
criterion_main!(benches);
