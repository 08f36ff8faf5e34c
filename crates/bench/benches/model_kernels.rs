//! Criterion benches for the trainable-model kernels: tower modules, interaction, and a
//! full DLRM training step on the synthetic dataset.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmt_core::tower::{DlrmTowerModule, TowerModule};
use dmt_core::{naive_partition, DmtConfig, TowerModuleKind};
use dmt_data::{DatasetSchema, SyntheticClickDataset};
use dmt_models::{ModelArch, ModelHyperparams, RecommendationModel};
use dmt_tensor::{kernels, with_tier, Tensor, Tier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Naive triple loop vs blocked serial vs the parallel dispatcher, per GEMM size.
fn bench_gemm_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for &s in &[128usize, 256, 512] {
        let mut rng = StdRng::seed_from_u64(7);
        let a: Vec<f32> = (0..s * s).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..s * s).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut out = vec![0.0f32; s * s];
        group.bench_with_input(BenchmarkId::new("naive", s), &s, |bench, _| {
            bench.iter(|| {
                out.iter_mut().for_each(|v| *v = 0.0);
                kernels::gemm_naive(&a, &b, &mut out, s, s, s);
            });
        });
        group.bench_with_input(BenchmarkId::new("scalar_tier", s), &s, |bench, _| {
            bench.iter(|| {
                out.iter_mut().for_each(|v| *v = 0.0);
                with_tier(Tier::Scalar, || kernels::gemm(&a, &b, &mut out, s, s, s));
            });
        });
        group.bench_with_input(BenchmarkId::new("blocked_serial", s), &s, |bench, _| {
            bench.iter(|| {
                out.iter_mut().for_each(|v| *v = 0.0);
                kernels::gemm_serial(&a, &b, &mut out, s, s, s);
            });
        });
        group.bench_with_input(BenchmarkId::new("parallel", s), &s, |bench, _| {
            bench.iter(|| {
                out.iter_mut().for_each(|v| *v = 0.0);
                kernels::gemm(&a, &b, &mut out, s, s, s);
            });
        });
    }
    group.finish();
}

/// The fused linear-layer products at a training-step shape.
fn bench_fused_linear_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_linear");
    let mut rng = StdRng::seed_from_u64(8);
    let (batch, fin, fout) = (256usize, 512usize, 256usize);
    let x = Tensor::from_vec(
        vec![batch, fin],
        (0..batch * fin)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
    )
    .unwrap();
    let w = Tensor::from_vec(
        vec![fin, fout],
        (0..fin * fout)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
    )
    .unwrap();
    let bias = Tensor::from_vec(
        vec![fout],
        (0..fout).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
    )
    .unwrap();
    let dy = Tensor::from_vec(
        vec![batch, fout],
        (0..batch * fout)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
    )
    .unwrap();
    group.bench_function("matmul_bias_256x512x256", |bench| {
        bench.iter(|| x.matmul_bias(&w, &bias).unwrap());
    });
    group.bench_function("matmul_at_b_256x512x256", |bench| {
        bench.iter(|| x.matmul_at_b(&dy).unwrap());
    });
    group.bench_function("matmul_a_bt_256x512x256", |bench| {
        bench.iter(|| dy.matmul_a_bt(&w).unwrap());
    });
    group.finish();
}

fn bench_tower_module(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut tm = DlrmTowerModule::new(&mut rng, 7, 32, 1, 0, 16).unwrap();
    let input = Tensor::ones(&[256, 7 * 32]);
    c.bench_function("dlrm_tower_module_forward_256x7x32", |b| {
        b.iter(|| tm.forward(&input).unwrap())
    });
}

fn bench_train_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_step");
    group.sample_size(10);
    let schema = DatasetSchema::criteo_like_small();
    let hyper = ModelHyperparams::tiny();
    let mut data = SyntheticClickDataset::new(schema.clone(), 7);
    let batch = data.next_batch(128);

    let mut rng = StdRng::seed_from_u64(2);
    let mut baseline =
        RecommendationModel::baseline(&mut rng, &schema, ModelArch::Dlrm, &hyper).unwrap();
    group.bench_function("baseline_dlrm_batch128", |b| {
        b.iter(|| baseline.train_step(&batch, 1e-3).unwrap())
    });

    let partition = naive_partition(schema.num_sparse(), 4).unwrap();
    let config = DmtConfig::builder(4)
        .tower_module(TowerModuleKind::DlrmLinear)
        .tower_output_dim(8)
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let mut dmt = RecommendationModel::dmt(
        &mut rng,
        &schema,
        ModelArch::Dlrm,
        &hyper,
        partition,
        &config,
    )
    .unwrap();
    group.bench_function("dmt_4t_dlrm_batch128", |b| {
        b.iter(|| dmt.train_step(&batch, 1e-3).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm_kernels,
    bench_fused_linear_kernels,
    bench_tower_module,
    bench_train_step
);
criterion_main!(benches);
