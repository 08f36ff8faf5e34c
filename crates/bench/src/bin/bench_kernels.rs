//! Compute-kernel throughput tracker.
//!
//! Measures the tensor kernel family (naive vs. blocked-serial vs. parallel GEMM, the
//! fused linear products, the pairwise-interaction kernel against its scalar oracle,
//! and embedding pooling), prints a table, and writes
//! `BENCH_kernels.json` (op, shape, ns/iter, GFLOP/s) into the working directory so
//! the perf trajectory is comparable across PRs.
//!
//! Run with `cargo run --release -p dmt-bench --bin bench_kernels` (add `--quick` for
//! a CI-friendly shorter measurement).

use dmt_nn::EmbeddingTable;
use dmt_tensor::isa::{self, Family};
use dmt_tensor::{kernels, pairwise, with_tier, PairwiseScratch, Tensor, Tier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;

/// One measured kernel configuration.
#[derive(Debug, Clone, Serialize)]
struct KernelResult {
    /// Kernel entry point.
    op: String,
    /// Problem shape, `m x k x n` style.
    shape: String,
    /// Wall-clock nanoseconds per iteration.
    ns_per_iter: f64,
    /// Useful floating-point throughput.
    gflops: f64,
    /// Iterations measured.
    iters: u64,
}

fn measure(target_ns: f64, flops: f64, mut body: impl FnMut()) -> (f64, f64, u64) {
    // Warmup + calibration pass.
    let start = Instant::now();
    body();
    let first = (start.elapsed().as_nanos() as f64).max(10.0);
    let iters = ((target_ns / first) as u64).clamp(1, 1_000_000);
    let start = Instant::now();
    for _ in 0..iters {
        body();
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    (ns, flops / ns, iters)
}

fn random_vec(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

#[allow(clippy::too_many_lines)]
fn main() {
    let quick = dmt_bench::quick_mode();
    let target_ns = if quick { 5.0e7 } else { 4.0e8 };
    let mut rng = StdRng::seed_from_u64(42);
    let mut results: Vec<KernelResult> = Vec::new();

    dmt_bench::header("Compute-kernel throughput (see BENCH_kernels.json)");
    println!("{}", isa::tier_line());
    println!(
        "{:<27} {:>16} {:>14} {:>10}",
        "op", "shape", "ns/iter", "GFLOP/s"
    );

    let record = |results: &mut Vec<KernelResult>,
                  op: &str,
                  shape: String,
                  flops: f64,
                  ns: f64,
                  gflops: f64,
                  iters: u64| {
        println!("{op:<27} {shape:>16} {ns:>14.0} {gflops:>10.2}");
        let _ = flops;
        results.push(KernelResult {
            op: op.to_string(),
            shape,
            ns_per_iter: ns,
            gflops,
            iters,
        });
    };

    // GEMM family: naive reference vs blocked serial vs the parallel dispatcher.
    let square_sizes: &[usize] = if quick {
        &[128, 256, 512]
    } else {
        &[128, 256, 512, 768]
    };
    for &s in square_sizes {
        let (m, k, n) = (s, s, s);
        let a = random_vec(&mut rng, m * k);
        let b = random_vec(&mut rng, k * n);
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        let shape = format!("{m}x{k}x{n}");

        let mut c = vec![0.0f32; m * n];
        let (ns, gf, iters) = measure(target_ns, flops, || {
            c.iter_mut().for_each(|v| *v = 0.0);
            kernels::gemm_naive(&a, &b, &mut c, m, k, n);
            std::hint::black_box(&c);
        });
        record(
            &mut results,
            "gemm_naive",
            shape.clone(),
            flops,
            ns,
            gf,
            iters,
        );

        let (ns, gf, iters) = measure(target_ns, flops, || {
            c.iter_mut().for_each(|v| *v = 0.0);
            with_tier(Tier::Scalar, || kernels::gemm(&a, &b, &mut c, m, k, n));
            std::hint::black_box(&c);
        });
        record(
            &mut results,
            "gemm_scalar_tier",
            shape.clone(),
            flops,
            ns,
            gf,
            iters,
        );

        let (ns, gf, iters) = measure(target_ns, flops, || {
            c.iter_mut().for_each(|v| *v = 0.0);
            kernels::gemm_serial(&a, &b, &mut c, m, k, n);
            std::hint::black_box(&c);
        });
        record(
            &mut results,
            "gemm_blocked_serial",
            shape.clone(),
            flops,
            ns,
            gf,
            iters,
        );

        let (ns, gf, iters) = measure(target_ns, flops, || {
            c.iter_mut().for_each(|v| *v = 0.0);
            kernels::gemm(&a, &b, &mut c, m, k, n);
            std::hint::black_box(&c);
        });
        record(
            &mut results,
            "gemm_parallel",
            shape.clone(),
            flops,
            ns,
            gf,
            iters,
        );
    }

    // Skinny shapes exercised by the recommendation layers (tall-thin activations).
    for &(m, k, n) in &[(2048usize, 512usize, 64usize), (2048, 64, 512)] {
        let a = random_vec(&mut rng, m * k);
        let b = random_vec(&mut rng, k * n);
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        let shape = format!("{m}x{k}x{n}");
        let mut c = vec![0.0f32; m * n];
        let (ns, gf, iters) = measure(target_ns, flops, || {
            c.iter_mut().for_each(|v| *v = 0.0);
            kernels::gemm(&a, &b, &mut c, m, k, n);
            std::hint::black_box(&c);
        });
        record(&mut results, "gemm_parallel", shape, flops, ns, gf, iters);
    }

    // Fused linear-layer products at a representative layer shape.
    let (batch, fin, fout) = (512usize, 512usize, 512usize);
    let x = Tensor::from_vec(vec![batch, fin], random_vec(&mut rng, batch * fin)).unwrap();
    let w = Tensor::from_vec(vec![fin, fout], random_vec(&mut rng, fin * fout)).unwrap();
    let bias = Tensor::from_vec(vec![fout], random_vec(&mut rng, fout)).unwrap();
    let dy = Tensor::from_vec(vec![batch, fout], random_vec(&mut rng, batch * fout)).unwrap();
    let flops = 2.0 * batch as f64 * fin as f64 * fout as f64;
    let shape = format!("{batch}x{fin}x{fout}");

    let (ns, gf, iters) = measure(target_ns, flops, || {
        std::hint::black_box(x.matmul_bias(&w, &bias).unwrap());
    });
    record(
        &mut results,
        "matmul_bias",
        shape.clone(),
        flops,
        ns,
        gf,
        iters,
    );

    // The fused bias+ReLU forward reusing one output buffer (serving hot path).
    let mut fused_out = Tensor::zeros(&[batch, fout]);
    let (ns, gf, iters) = measure(target_ns, flops, || {
        x.matmul_bias_act_into(&w, &bias, true, &mut fused_out)
            .unwrap();
        std::hint::black_box(&fused_out);
    });
    record(
        &mut results,
        "matmul_bias_relu_fused",
        shape.clone(),
        flops,
        ns,
        gf,
        iters,
    );

    let (ns, gf, iters) = measure(target_ns, flops, || {
        std::hint::black_box(x.matmul_at_b(&dy).unwrap());
    });
    record(
        &mut results,
        "matmul_at_b",
        shape.clone(),
        flops,
        ns,
        gf,
        iters,
    );

    let (ns, gf, iters) = measure(target_ns, flops, || {
        std::hint::black_box(dy.matmul_a_bt(&w).unwrap());
    });
    record(
        &mut results,
        "matmul_a_bt",
        shape.clone(),
        flops,
        ns,
        gf,
        iters,
    );

    // Pairwise interaction (DotInteraction's kernel) against its scalar oracle at the
    // serving batch, the training batch and DMT's 3-unit geometry (whose forward takes
    // the oracle path on every tier: its twin must tie).
    for &(batch, f, d) in &[(64usize, 27usize, 32usize), (256, 27, 32), (64, 3, 16)] {
        let pairs = f * (f - 1) / 2;
        let x = random_vec(&mut rng, batch * f * d);
        let gout = random_vec(&mut rng, batch * pairs);
        let mut out = vec![0.0f32; batch * pairs];
        let mut grad = vec![0.0f32; batch * f * d];
        let mut scratch = PairwiseScratch::default();
        // One multiply-add per pair element forward, two backward.
        let fwd_flops = 2.0 * (batch * pairs * d) as f64;
        let mut row = |op: &str, flops: f64, body: &mut dyn FnMut()| {
            let (ns, gf, iters) = measure(target_ns, flops, body);
            let shape = format!("{batch}x{f}x{d}");
            record(&mut results, op, shape, flops, ns, gf, iters);
        };
        row("dot_interaction_fwd", fwd_flops, &mut || {
            pairwise::pairwise_dots(&x, f, d, &mut out, &mut scratch);
            std::hint::black_box(&out);
        });
        row("dot_interaction_fwd_scalar", fwd_flops, &mut || {
            with_tier(Tier::Scalar, || {
                pairwise::pairwise_dots(&x, f, d, &mut out, &mut scratch);
            });
            std::hint::black_box(&out);
        });
        row("dot_interaction_bwd", 2.0 * fwd_flops, &mut || {
            grad.fill(0.0);
            pairwise::pairwise_dots_backward(&x, &gout, f, d, &mut grad, &mut scratch);
            std::hint::black_box(&grad);
        });
        row("dot_interaction_bwd_scalar", 2.0 * fwd_flops, &mut || {
            grad.fill(0.0);
            with_tier(Tier::Scalar, || {
                pairwise::pairwise_dots_backward(&x, &gout, f, d, &mut grad, &mut scratch);
            });
            std::hint::black_box(&grad);
        });
    }

    // Embedding pooling: [rows, dim] table, `pooling` lookups per sample.
    let (rows, dim, pool, ebatch) = (100_000usize, 64usize, 16usize, 2048usize);
    let mut table = EmbeddingTable::new(&mut rng, rows, dim);
    let bags: Vec<Vec<usize>> = (0..ebatch)
        .map(|_| (0..pool).map(|_| rng.gen_range(0..rows)).collect())
        .collect();
    // Pooling is additions only: batch * pooling * dim adds.
    let flops = (ebatch * pool * dim) as f64;
    let (ns, gf, iters) = measure(target_ns, flops, || {
        std::hint::black_box(table.forward(&bags).unwrap());
    });
    record(
        &mut results,
        "embedding_pool",
        format!("{ebatch}x{pool}x{dim}"),
        flops,
        ns,
        gf,
        iters,
    );

    // Speedup summary for the acceptance gate: blocked/parallel vs naive at 512^3.
    let naive = results
        .iter()
        .find(|r| r.op == "gemm_naive" && r.shape == "512x512x512")
        .expect("naive 512 measured");
    let parallel = results
        .iter()
        .find(|r| r.op == "gemm_parallel" && r.shape == "512x512x512")
        .expect("parallel 512 measured");
    println!(
        "\n512^3 speedup vs naive: {:.2}x ({} threads available)",
        naive.ns_per_iter / parallel.ns_per_iter,
        rayon::current_num_threads()
    );

    // Gated ratio: with a SIMD tier active, the 256^3 serial GEMM must run at
    // least 1.8x the same product forced onto the scalar tier, measured back to
    // back in the same loop — "SIMD is dispatched and tiled" without an
    // absolute GFLOP/s floor that a noisy neighbour on a shared host breaks.
    // 256^3 is under the thread-split cutoff, so both rows run on one thread and
    // a second core coming free cannot move the ratio (at 512^3 the scalar row
    // splits across threads and scales better than the memory-bound SIMD one).
    // The scalar fallback host is exempt.
    let at_256 = |op: &str| {
        let row = results
            .iter()
            .find(|r| r.op == op && r.shape == "256x256x256");
        row.expect("256 GEMM rows measured").gflops
    };
    let (serial, scalar) = (at_256("gemm_blocked_serial"), at_256("gemm_scalar_tier"));
    const SIMD_OVER_SCALAR_FLOOR: f64 = 1.8;
    let f32_tier = isa::tier(Family::F32);
    if f32_tier != Tier::Scalar {
        assert!(
            serial >= SIMD_OVER_SCALAR_FLOOR * scalar,
            "256^3 serial GEMM at {serial:.1} GFLOP/s is under {SIMD_OVER_SCALAR_FLOOR}x the \
             scalar tier's {scalar:.1} GFLOP/s (SIMD tier {})",
            f32_tier.name()
        );
        println!(
            "256^3 serial GEMM {serial:.1} GFLOP/s = {:.2}x scalar tier {scalar:.1} GFLOP/s \
             >= {SIMD_OVER_SCALAR_FLOOR}x (tier {})",
            serial / scalar,
            f32_tier.name()
        );
    }

    // Interaction kernel vs its oracle: at least 2x at the flat 27x32 geometry when a
    // SIMD tier is dispatched, and never a loss at DMT's 3x16 (0.8 absorbs timer noise
    // on a ~1 us row).
    let speedup = |op: &str, shape: &str| {
        let ns = |op: &str| {
            let row = results.iter().find(|r| r.op == op && r.shape == shape);
            row.expect("interaction row measured").ns_per_iter
        };
        ns(&format!("{op}_scalar")) / ns(op)
    };
    let pairwise_tier = isa::tier(Family::Pairwise);
    for op in ["dot_interaction_fwd", "dot_interaction_bwd"] {
        let (serve, train, dmt) = (
            speedup(op, "64x27x32"),
            speedup(op, "256x27x32"),
            speedup(op, "64x3x16"),
        );
        println!(
            "{op} vs scalar oracle: {serve:.2}x at 64x27x32, {train:.2}x at 256x27x32, \
             {dmt:.2}x at 64x3x16 (tier {})",
            pairwise_tier.name()
        );
        assert!(dmt >= 0.8, "{op} is slower than its oracle at 64x3x16");
        if pairwise_tier != Tier::Scalar {
            assert!(
                serve >= 2.0 && train >= 2.0,
                "{op} is under 2x its oracle at 27x32"
            );
        }
    }

    let json = serde_json::to_string_pretty(&results).expect("results serialize");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("[results written to BENCH_kernels.json]");
}
