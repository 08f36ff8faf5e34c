//! Runtime-dispatched, register-tiled, optionally parallel f32 matrix kernels.
//!
//! Everything dense in the DMT models funnels through the GEMM-family entry points in
//! this module, which operate on raw row-major slices:
//!
//! * [`gemm`] — `C += A·B` with `A: [m, k]`, `B: [k, n]`, used by [`crate::Tensor::matmul`].
//! * [`gemm_fused_bias`] — `C = bias ⊕ A·B` with an optional fused ReLU epilogue, the
//!   single-pass linear-layer forward ([`crate::Tensor::matmul_bias`] and the serving
//!   fast path).
//! * [`gemm_at_b`] — `C += Aᵀ·B` without materializing `Aᵀ` (the `dW = xᵀ·dy` step of a
//!   linear layer's backward pass).
//! * [`gemm_a_bt`] — `C += A·Bᵀ` without materializing `Bᵀ` (the `dx = dy·Wᵀ` step);
//!   below a reduction length of 32 the vector tiers pack `Bᵀ` into a reused
//!   thread-local panel and run the lane-transposed small-k kernels (see
//!   [`crate::simd`]), which keep the canonical dot's bits.
//!
//! The heavy lifting lives in [`crate::simd`]: AVX-512 / AVX2+FMA microkernels and a
//! portable `f32::mul_add` fallback that executes the *same* per-element operation
//! chains, so every tier produces bit-identical results on every shape. Each entry point
//! resolves its tier once through [`crate::isa::tier`] (the host's fastest, or the one an
//! enclosing [`crate::isa::with_tier`] forces). Large problems (`m·k·n ≥`
//! [`PARALLEL_FLOP_CUTOFF`]) additionally split their output row blocks across threads
//! with rayon, each band on the caller's tier; the split regroups independent
//! per-element chains, so parallel results are bit-identical to serial too.

use crate::isa::{self, Family, Tier};
use crate::simd::{self, BroadcastGemm};
use rayon::prelude::*;

/// Row-block tile size: rows of `A`/`C` per rayon work item.
pub const MC: usize = 128;

/// Widest SIMD register tile in columns (AVX-512 pair); kernel behavior
/// changes tiling — never results — at multiples of this.
pub const NR: usize = 32;

/// Minimum `m·k·n` at which the kernels fan out across threads.
///
/// Below this the serial microkernel wins. The threshold is sized for the vendored
/// rayon stand-in, which spawns scoped OS threads per call (no pool): `1 << 26`
/// multiply-accumulates is roughly a millisecond of serial work at the measured
/// single-core FMA throughput (~110 GFLOP/s at 512³), comfortably above per-call
/// thread start-up cost. The old scalar kernels used `1 << 25` for the same ~1 ms
/// invariant; the SIMD kernels are ~2x faster, so the cutoff doubles. A pooled rayon
/// would tolerate a cutoff one to two orders of magnitude lower.
pub const PARALLEL_FLOP_CUTOFF: usize = 1 << 26;

#[inline]
fn use_parallel(m: usize, k: usize, n: usize) -> bool {
    m.saturating_mul(k).saturating_mul(n) >= PARALLEL_FLOP_CUTOFF
        && rayon::current_num_threads() > 1
        && m > 1
}

/// `C += A·B` for row-major `A: [m, k]`, `B: [k, n]`, `C: [m, n]`.
///
/// `C` must be pre-initialized by the caller (zeros for a plain product, a broadcast
/// bias for the fused linear forward); the kernel only accumulates. Each output
/// element's fma chain is seeded from its initial `C` value, so pre-initialization
/// participates in the canonical operation order (see [`crate::simd`]).
///
/// # Panics
///
/// Panics if a slice length does not match its shape.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm: A length");
    assert_eq!(b.len(), k * n, "gemm: B length");
    assert_eq!(c.len(), m * n, "gemm: C length");
    gemm_inner(isa::tier(Family::F32), a, b, None, c, m, k, n, false);
}

/// `C += A·B` on the dispatched microkernel, never fanning out across threads.
///
/// [`gemm`] normally chooses between this and the parallel path by problem size; the
/// explicit entry point exists so tests can compare serial against the parallel
/// dispatcher (results are bit-identical either way).
///
/// # Panics
///
/// Panics if a slice length does not match its shape.
pub fn gemm_serial(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm_serial: A length");
    assert_eq!(b.len(), k * n, "gemm_serial: B length");
    assert_eq!(c.len(), m * n, "gemm_serial: C length");
    let tier = isa::tier(Family::F32);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    simd::bgemm(tier, &a_times_b(a, k, b, n, m, None, false), c);
}

/// `C = bias ⊕ A·B` in one pass: every output chain is seeded from `bias[j]`,
/// `C` is overwritten, and `relu` optionally applies the fused epilogue
/// `if v > 0.0 { v } else { 0.0 }` before writeback.
///
/// Bit-identical to broadcasting `bias` into `C`, calling [`gemm`], and mapping the
/// same ReLU over the result — the fused form just skips the extra passes, which is
/// what the serving forward path wants.
///
/// # Panics
///
/// Panics if a slice length does not match its shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_fused_bias(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    relu: bool,
) {
    assert_eq!(a.len(), m * k, "gemm_fused_bias: A length");
    assert_eq!(b.len(), k * n, "gemm_fused_bias: B length");
    assert_eq!(bias.len(), n, "gemm_fused_bias: bias length");
    assert_eq!(c.len(), m * n, "gemm_fused_bias: C length");
    let tier = isa::tier(Family::F32);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        for row in c.chunks_exact_mut(n) {
            for (o, &v) in row.iter_mut().zip(bias) {
                *o = if !relu || v > 0.0 { v } else { 0.0 };
            }
        }
        return;
    }
    gemm_inner(tier, a, b, Some(bias), c, m, k, n, relu);
}

/// The broadcast problem `C ⊕= A·B` over `rows` rows of `A: [·, k]`.
fn a_times_b<'x>(
    a: &'x [f32],
    k: usize,
    b: &'x [f32],
    n: usize,
    rows: usize,
    bias: Option<&'x [f32]>,
    relu: bool,
) -> BroadcastGemm<'x> {
    BroadcastGemm {
        a,
        a_row_stride: k,
        a_step_stride: 1,
        steps: k,
        b,
        n,
        rows,
        bias,
        relu,
    }
}

/// Shared `A·B` driver: splits output rows across threads above the cutoff,
/// running every band on `tier`.
#[allow(clippy::too_many_arguments)]
fn gemm_inner(
    tier: Tier,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    relu: bool,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if use_parallel(m, k, n) {
        c.par_chunks_mut(MC * n)
            .enumerate()
            .for_each(|(block, c_rows)| {
                let row0 = block * MC;
                let rows = c_rows.len() / n;
                let a_rows = &a[row0 * k..(row0 + rows) * k];
                simd::bgemm(tier, &a_times_b(a_rows, k, b, n, rows, bias, relu), c_rows);
            });
    } else {
        simd::bgemm(tier, &a_times_b(a, k, b, n, m, bias, relu), c);
    }
}

/// `C += Aᵀ·B` for row-major `A: [m, r]`, `B: [m, n]`, `C: [r, n]`, without building
/// the transpose of `A`.
///
/// This is the weight-gradient GEMM of a linear layer (`dW = xᵀ·dy`): each input row
/// `i` contributes the rank-1 update `A[i, ·] ⊗ B[i, ·]`. The parallel path splits the
/// `r` output rows across threads; each thread streams all of `A` and `B` once but
/// touches a disjoint row band of `C`. The broadcast kernel with swapped strides
/// (`a_row_stride = 1`, `a_step_stride = r`) walks `Aᵀ` rows for free.
///
/// # Panics
///
/// Panics if a slice length does not match its shape.
pub fn gemm_at_b(a: &[f32], b: &[f32], c: &mut [f32], m: usize, r: usize, n: usize) {
    assert_eq!(a.len(), m * r, "gemm_at_b: A length");
    assert_eq!(b.len(), m * n, "gemm_at_b: B length");
    assert_eq!(c.len(), r * n, "gemm_at_b: C length");
    let tier = isa::tier(Family::F32);
    if m == 0 || r == 0 || n == 0 {
        return;
    }
    let at_times_b = |a, rows| BroadcastGemm {
        a,
        a_row_stride: 1,
        a_step_stride: r,
        steps: m,
        b,
        n,
        rows,
        bias: None,
        relu: false,
    };
    if use_parallel(m, r, n) && r >= 4 {
        c.par_chunks_mut(MC * n)
            .enumerate()
            .for_each(|(block, c_rows)| {
                let rows = c_rows.len() / n;
                simd::bgemm(tier, &at_times_b(&a[block * MC..], rows), c_rows);
            });
    } else {
        simd::bgemm(tier, &at_times_b(a, r), c);
    }
}

/// `C += A·Bᵀ` for row-major `A: [m, k]`, `B: [n, k]`, `C: [m, n]`, without building
/// the transpose of `B`.
///
/// This is the input-gradient GEMM of a linear layer (`dx = dy·Wᵀ`): `C[i, j]` is the
/// dot product of row `i` of `A` with row `j` of `B`, so both operands stream
/// row-major with unit stride. Every dot uses the canonical 16-lane layout and fold
/// tree (see [`crate::simd`]), so SIMD, scalar and parallel results are identical.
/// For `k < 32` the vector tiers transpose that layout across output columns (the
/// small-k kernels), the same operations per element, after packing `Bᵀ` into a
/// thread-local panel whose capacity is reused, so steady-state calls below the
/// thread-split cutoff allocate nothing. A call split across threads packs one
/// panel per row band, on the stand-in's fresh threads.
///
/// # Panics
///
/// Panics if a slice length does not match its shape.
pub fn gemm_a_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm_a_bt: A length");
    assert_eq!(b.len(), n * k, "gemm_a_bt: B length");
    assert_eq!(c.len(), m * n, "gemm_a_bt: C length");
    let tier = isa::tier(Family::F32);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if use_parallel(m, k, n) {
        c.par_chunks_mut(MC * n)
            .enumerate()
            .for_each(|(block, c_rows)| {
                let row0 = block * MC;
                let rows = c_rows.len() / n;
                simd::a_bt(tier, &a[row0 * k..(row0 + rows) * k], b, c_rows, rows, k, n);
            });
    } else {
        simd::a_bt(tier, a, b, c, m, k, n);
    }
}

/// Reference triple-loop `C += A·B`, kept for differential tests.
///
/// This is the seed implementation [`crate::Tensor::matmul`] shipped with; the
/// dispatched kernels are validated against it to `≤ 1e-4` relative error. Like
/// every other kernel here it now accumulates into a caller-owned output instead of
/// allocating one.
///
/// # Panics
///
/// Panics if a slice length does not match its shape.
pub fn gemm_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm_naive: A length");
    assert_eq!(b.len(), k * n, "gemm_naive: B length");
    assert_eq!(c.len(), m * n, "gemm_naive: C length");
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut c[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{on_every_tier, with_tier};
    use crate::testutil::{bits, fill, hostile_value};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_close(actual: &[f32], expected: &[f32]) {
        assert_eq!(actual.len(), expected.len());
        for (i, (&x, &y)) in actual.iter().zip(expected).enumerate() {
            let denom = y.abs().max(1.0);
            assert!((x - y).abs() / denom <= 1e-4, "element {i}: {x} vs {y}");
        }
    }

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        gemm_naive(a, b, &mut c, m, k, n);
        c
    }

    /// `[rows, cols]` → `[cols, rows]`.
    fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut t = vec![0.0; rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                t[j * rows + i] = x[i * cols + j];
            }
        }
        t
    }

    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 7, 1),
        (5, 3, 4),
        (64, 64, 64),
        (65, 63, 67),
        (4, 130, 9),
        (130, 5, 130),
        (7, 33, 31),
        (8, 16, 48),
    ];

    #[test]
    fn gemm_matches_naive_across_shapes() {
        on_every_tier(Family::F32, |_| {
            for &(m, k, n) in SHAPES {
                let a = fill(m * k, 1);
                let b = fill(k * n, 2);
                let mut c = vec![0.0; m * n];
                gemm(&a, &b, &mut c, m, k, n);
                assert_close(&c, &naive(&a, &b, m, k, n));
            }
        });
    }

    #[test]
    fn gemm_dispatch_matches_scalar_bit_identically() {
        on_every_tier(Family::F32, |tier| {
            for &(m, k, n) in SHAPES {
                let a = fill(m * k, 1);
                let b = fill(k * n, 2);
                let mut c_tier = fill(m * n, 3);
                let mut c_scalar = c_tier.clone();
                gemm(&a, &b, &mut c_tier, m, k, n);
                with_tier(Tier::Scalar, || gemm(&a, &b, &mut c_scalar, m, k, n));
                assert_eq!(bits(&c_tier), bits(&c_scalar), "{tier:?} ({m},{k},{n})");
            }
        });
    }

    #[test]
    fn fused_bias_matches_broadcast_then_gemm_bit_identically() {
        on_every_tier(Family::F32, |tier| {
            for &(m, k, n) in SHAPES {
                let a = fill(m * k, 4);
                let b = fill(k * n, 5);
                let bias = fill(n, 6);
                for relu in [false, true] {
                    let mut fused = vec![-1.0; m * n];
                    gemm_fused_bias(&a, &b, &bias, &mut fused, m, k, n, relu);
                    let mut reference = bias.repeat(m);
                    gemm(&a, &b, &mut reference, m, k, n);
                    if relu {
                        for v in &mut reference {
                            *v = if *v > 0.0 { *v } else { 0.0 };
                        }
                    }
                    let at = format!("{tier:?} ({m},{k},{n}) relu={relu}");
                    assert_eq!(bits(&fused), bits(&reference), "{at}");
                    let mut fused_scalar = vec![-2.0; m * n];
                    with_tier(Tier::Scalar, || {
                        gemm_fused_bias(&a, &b, &bias, &mut fused_scalar, m, k, n, relu);
                    });
                    assert_eq!(bits(&fused), bits(&fused_scalar), "scalar {at}");
                }
            }
        });
    }

    #[test]
    fn fused_relu_epilogue_handles_special_values() {
        on_every_tier(Family::F32, |tier| {
            // One negative product, one NaN input: relu must send both to +0.0 /
            // 0.0 exactly as the scalar definition does.
            let a = [1.0f32, f32::NAN];
            let b = [1.0f32];
            let bias = [0.0f32];
            let mut c = [9.0f32; 2];
            gemm_fused_bias(&a, &b, &bias, &mut c, 2, 1, 1, true);
            assert_eq!(c[0].to_bits(), 1.0f32.to_bits(), "{tier:?}");
            assert_eq!(c[1].to_bits(), 0.0f32.to_bits(), "{tier:?}");
            // With no reduction the epilogue sees the bias itself.
            let bias = [f32::NAN, -0.0, 2.0];
            let mut c = [9.0f32; 3];
            gemm_fused_bias(&[], &[], &bias, &mut c, 1, 0, 3, true);
            assert_eq!(bits(&c), bits(&[0.0, 0.0, 2.0]), "{tier:?} k = 0");
        });
    }

    #[test]
    fn gemm_accumulates_into_preinitialized_output() {
        let (m, k, n) = (3, 4, 5);
        let a = fill(m * k, 3);
        let b = fill(k * n, 4);
        let mut c = vec![1.0; m * n];
        gemm(&a, &b, &mut c, m, k, n);
        let plain = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(&plain) {
            assert!((x - (y + 1.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        on_every_tier(Family::F32, |tier| {
            for &(m, r, n) in &[(1, 1, 1), (6, 5, 4), (64, 65, 63), (129, 32, 7)] {
                let a = fill(m * r, 5);
                let b = fill(m * n, 6);
                let expected = naive(&transpose(&a, m, r), &b, r, m, n);
                let mut c = vec![0.0; r * n];
                gemm_at_b(&a, &b, &mut c, m, r, n);
                assert_close(&c, &expected);
                let mut c_scalar = vec![0.0; r * n];
                with_tier(Tier::Scalar, || gemm_at_b(&a, &b, &mut c_scalar, m, r, n));
                assert_eq!(bits(&c), bits(&c_scalar), "{tier:?} ({m},{r},{n})");
            }
        });
    }

    /// Ragged shapes around the register tiles, then every reduction length
    /// on both sides of the small-k switch (`simd::SMALL_K`) and of the
    /// 16-lane canonical layout, against column counts on both sides of every
    /// register width, at 3 and 6 rows (the latter fills the dot kernel's
    /// 4-row tile and leaves a tail). Row 1 of `A` is all
    /// `-0.0` over a positive first row of `B` and a `-0.0` output, so its
    /// first dot is a sum of `-0` products that must come out `+0` (a kernel
    /// multiplying instead of `fma(·, ·, +0)` keeps `-0`); row 2 times the
    /// scaled second row of `B` makes subnormal products.
    #[test]
    fn a_bt_matches_explicit_transpose() {
        on_every_tier(Family::F32, |tier| {
            for &(m, k, n) in &[(1, 1, 1), (6, 5, 4), (64, 65, 63), (33, 128, 130)] {
                let a = fill(m * k, 7);
                let b = fill(n * k, 8);
                let expected = naive(&a, &transpose(&b, n, k), m, k, n);
                let mut c = vec![0.0; m * n];
                gemm_a_bt(&a, &b, &mut c, m, k, n);
                assert_close(&c, &expected);
                let mut c_scalar = vec![0.0; m * n];
                with_tier(Tier::Scalar, || gemm_a_bt(&a, &b, &mut c_scalar, m, k, n));
                assert_eq!(bits(&c), bits(&c_scalar), "{tier:?} ({m},{k},{n})");
            }
            // m = 6 also runs the dot kernel's 4-row tile at every k.
            let sweep = (0..=40).chain([48, 64, 128]);
            for (m, k) in sweep.flat_map(|k| [(3, k), (6, k)]) {
                for n in [1, 13, 15, 16, 17, 19, 33, 48, 416] {
                    let mut a = fill(m * k, 7);
                    a[k..2 * k].fill(-0.0);
                    a[2 * k..3 * k].iter_mut().for_each(|v| *v *= 1e-20);
                    let mut b = fill(n * k, 8);
                    b[..k].iter_mut().for_each(|v| *v = v.abs());
                    if n > 1 {
                        b[k..2 * k].iter_mut().for_each(|v| *v *= 1e-20);
                    }
                    let expected = naive(&a, &transpose(&b, n, k), m, k, n);
                    let mut c = vec![-0.0; m * n];
                    gemm_a_bt(&a, &b, &mut c, m, k, n);
                    assert_close(&c, &expected);
                    let mut c_scalar = vec![-0.0; m * n];
                    with_tier(Tier::Scalar, || gemm_a_bt(&a, &b, &mut c_scalar, m, k, n));
                    assert_eq!(bits(&c), bits(&c_scalar), "{tier:?} ({m},{k},{n})");
                    if k > 0 {
                        assert_eq!(c[n].to_bits(), 0.0f32.to_bits(), "{tier:?} -0 sum");
                    }
                }
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Ragged shapes on both sides of every register tile (zero-sized,
        /// `n` off the 8/16/32-lane grid, `m` off the 6/12-row groups) with a
        /// sprinkle of hostile values: every f32 entry point returns the
        /// scalar tier's bits on every host tier.
        #[test]
        fn every_tier_matches_the_scalar_tier_on_ragged_shapes(
            m in 0usize..70,
            k in 0usize..70,
            n in 0usize..70,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut values = |len: usize| -> Vec<f32> {
                let mut value = || match rng.gen_range(0u32..32) {
                    0 => hostile_value(&mut rng),
                    _ => rng.gen_range(-2.0f32..2.0),
                };
                (0..len).map(|_| value()).collect()
            };
            let (a, b, bias, c0) = (values(m * k), values(k * n), values(n), values(m * n));
            let (b_t, c0_t) = (values(n * k), values(k * n));
            let run = || {
                let mut out = [c0.clone(), c0.clone(), c0.clone(), c0_t.clone(), c0.clone()];
                gemm(&a, &b, &mut out[0], m, k, n);
                gemm_fused_bias(&a, &b, &bias, &mut out[1], m, k, n, false);
                gemm_fused_bias(&a, &b, &bias, &mut out[2], m, k, n, true);
                gemm_at_b(&a, &c0, &mut out[3], m, k, n);
                gemm_a_bt(&a, &b_t, &mut out[4], m, k, n);
                out.iter().map(|c| bits(c)).collect::<Vec<_>>()
            };
            let want = with_tier(Tier::Scalar, run);
            on_every_tier(Family::F32, |tier| {
                assert_eq!(run(), want, "{tier:?} at ({m}, {k}, {n})");
            });
        }
    }

    #[test]
    fn degenerate_shapes_are_no_ops() {
        let mut empty: Vec<f32> = Vec::new();
        gemm(&[], &[], &mut empty, 0, 3, 0);
        gemm_at_b(&[], &[], &mut empty, 0, 0, 4);
        gemm_a_bt(&[], &[], &mut empty, 0, 2, 0);
        let mut c = vec![0.0; 3];
        // k = 0 leaves C untouched.
        gemm(&[], &[], &mut c, 3, 0, 1);
        assert_eq!(c, vec![0.0; 3]);
        // k = 0 fused bias still writes the (relu'd) bias.
        let bias = [-1.0f32, 2.0];
        let mut out = [9.0f32; 4];
        gemm_fused_bias(&[], &[], &bias, &mut out, 2, 0, 2, true);
        assert_eq!(out, [0.0, 2.0, 0.0, 2.0]);
    }
}
