//! Pairwise-dot ("upper-triangle Gram") kernels — the compute behind
//! `dmt_nn::DotInteraction`, dispatched through [`crate::isa`] like every
//! kernel family.
//!
//! A sample is `F` feature vectors of width `d`, stored `[F, d]` row-major; the
//! forward output is the `F·(F−1)/2` dots `e_i · e_j`, `i < j`, in row-major
//! `(i, j)` order, so pair `(i, j)` lands at `k = i·F − i(i+1)/2 + (j − i − 1)`.
//!
//! # Forward: a register tile over a transposed panel
//!
//! Per sample the SIMD tiers transpose the units (4×4 blocks) into a
//! zero-padded `[d, ⌈F/lanes⌉·lanes]` **panel** (`panel[t][j] = e_j[t]`; 4 KB at
//! 27×32) that lives in the caller's [`PairwiseScratch`]. A tile is up to 4 rows
//! `i` × one lane-block of columns `j`: one accumulator register per row, and
//! for `t` ascending `acc_i = acc_i + bcast(e_i[t]) · panel[t][j..]`. Only lanes
//! with `i < j < F` are stored (masked), so the padding and the lower triangle
//! are computed but never observable.
//!
//! # Backward: a register tile over the symmetric gradient matrix
//!
//! Per sample `grad_out` is spread into the symmetric `F×F` matrix `G` (zero
//! diagonal); a tile is up to 4 rows `i` × one lane-block of columns `t`, and
//! for `m` ascending `acc_i = acc_i + bcast(G[i][m]) · x[m][t..]`, skipping
//! `G[i][m] == 0.0`. The `d % lanes` columns are a narrower tile (masked loads
//! and stores).
//!
//! # Bit-identity by construction
//!
//! The forward oracle (the scalar tier of [`pairwise_dots`]) is
//! `zip(e_i, e_j).map(|(a, b)| a * b).sum()`: a chain of **separate** multiplies
//! and adds over `t` ascending, folded from `-0.0` (what `Iterator::sum::<f32>`
//! starts from — a `-0.0` unit against a positive one must give `-0.0`, not
//! `+0.0`). The tiles run exactly that chain per lane — `mul` then `add`, never
//! an FMA, seeded with `-0.0` — so vector width changes how many chains run side
//! by side and never a rounding.
//!
//! The backward oracle (the scalar tier of [`pairwise_dots_backward`])
//! scatters each pair `(i, j)` both ways, `grad[i] += g·x[j]; grad[j] +=
//! g·x[i]`, skipping `g == 0.0`. Row `r` therefore receives `G[r][m]·x[m]`
//! from the pairs `(m, r)`, `m < r` (outer index ascending) and then from the
//! pairs `(r, m)`, `m > r`: `m ≠ r` ascending, the tile's order, with the same
//! mul-then-add and the same skip (the zero diagonal folds `m ≠ r` into it).
//!
//! So every tier returns its oracle's bits on every shape and value — NaN
//! payloads excepted, which IEEE leaves to operand order.
//!
//! | tier    | lanes | tiles (fwd `i×j`, bwd `i×t`) | forward below `F = 6`     |
//! |---------|-------|------------------------------|---------------------------|
//! | AVX-512 | 16    | 4 × 16                       | scalar oracle             |
//! | AVX2    | 8     | 4 × 8                        | scalar oracle             |
//! | scalar  | —     | the oracles                  | —                         |
//!
//! (`TILED_MIN_FEATURES`: with a handful of features the transpose and a mostly
//! masked tile cost more than the few scalar chains they replace.)

use crate::isa::{self, Family, Tier};
use rayon::prelude::*;

/// Minimum per-batch work (`batch × pairs × d`) at which forward and backward
/// split the samples across threads.
///
/// Sized like [`crate::kernels::PARALLEL_FLOP_CUTOFF`], for about a millisecond
/// of serial work (`1 << 23` units: 0.6–0.8 ms forward, 1.1–1.3 ms backward on
/// the AVX-512 tier), because the vendored rayon spawns OS threads per call
/// (50–100 µs). Measured on the 2-vCPU box at 512×27×128 (23M units) with both
/// cores free: forward 2.0 → 1.35 ms, backward 3.4 → 2.2 ms; 1.8× at 5.8M
/// units, break-even near 3M, and no gain anywhere while a neighbour holds the
/// second core. The scalar loop this replaced was 4–5× slower per unit, so its
/// cutoff sat at `1 << 22`.
pub const PARALLEL_PAIRWISE_CUTOFF: usize = 1 << 23;

/// Samples per rayon work item: the whole batch below the cutoff (serial).
fn samples_per_band(batch: usize, pairs: usize, d: usize) -> usize {
    if batch * pairs * d < PARALLEL_PAIRWISE_CUTOFF {
        return batch;
    }
    batch.div_ceil(rayon::current_num_threads())
}

/// Reusable per-caller buffer: one sample's transposed panel in
/// [`pairwise_dots`], one sample's symmetric gradient matrix in
/// [`pairwise_dots_backward`]. Capacity is retained, so steady-state calls do
/// not allocate.
#[derive(Debug, Default, Clone)]
pub struct PairwiseScratch {
    panel: Vec<f32>,
}

/// Fewest features at which the forward tiles beat the oracle: below it the
/// per-sample transpose and a mostly-masked tile cost more than the few short
/// scalar chains (measured on AVX-512 at `d` = 16–32: 0.6× at `F` = 3, a tie
/// at 4–5, 1.6× at 6, 2× at 8, 3.5× at 15).
const TILED_MIN_FEATURES: usize = 6;

/// Output index of pair `(i, j)`, `i < j < f`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn pair_index(i: usize, j: usize, f: usize) -> usize {
    i * f - i * (i + 1) / 2 + (j - i - 1)
}

/// Splits the flat buffers into samples, checking the lengths agree: returns
/// `(batch, pairs)`; `pairs == 0` means there is nothing to compute.
fn batch_of(units: usize, pairs_buf: usize, f: usize, d: usize) -> (usize, usize) {
    let pairs = f * f.saturating_sub(1) / 2;
    if pairs == 0 {
        assert_eq!(pairs_buf, 0, "pairwise: {f} features have no pairs");
        return (0, 0);
    }
    assert_eq!(pairs_buf % pairs, 0, "pairwise: ragged pair buffer");
    let batch = pairs_buf / pairs;
    assert_eq!(units, batch * f * d, "pairwise: unit buffer length");
    (batch, pairs)
}

/// All pairwise dots of every sample: `x` is `[batch, f·d]`, `out` is
/// `[batch, f·(f−1)/2]` and is overwritten. Every tier is bit-identical to the
/// scalar oracle (see the module docs).
///
/// # Panics
///
/// Panics if the buffer lengths do not describe the same batch.
pub fn pairwise_dots(
    x: &[f32],
    f: usize,
    d: usize,
    out: &mut [f32],
    scratch: &mut PairwiseScratch,
) {
    let tier = isa::tier(Family::Pairwise);
    let (batch, pairs) = batch_of(x.len(), out.len(), f, d);
    let band = samples_per_band(batch, pairs, d);
    if band < batch {
        out.par_chunks_mut(band * pairs)
            .enumerate()
            .for_each(|(c, out_band)| {
                let x_band = &x[c * band * f * d..][..out_band.len() / pairs * f * d];
                let mut panel = PairwiseScratch::default();
                forward_on(tier, x_band, f, d, out_band, &mut panel);
            });
    } else {
        forward_on(tier, x, f, d, out, scratch);
    }
}

fn forward_on(
    tier: Tier,
    x: &[f32],
    f: usize,
    d: usize,
    out: &mut [f32],
    scratch: &mut PairwiseScratch,
) {
    let (batch, pairs) = batch_of(x.len(), out.len(), f, d);
    match tier {
        // SAFETY: `isa::tier` only returns a vector tier whose features the
        // host has; `batch_of` checked that `x` and `out` hold `batch`
        // samples of `f·d` units / `pairs` dots.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 if f >= TILED_MIN_FEATURES => unsafe {
            avx512::forward(x, f, d, out, &mut scratch.panel);
        },
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 if f >= TILED_MIN_FEATURES => unsafe {
            avx2::forward(x, f, d, out, &mut scratch.panel);
        },
        _ => {
            for b in 0..batch {
                let row = &x[b * f * d..(b + 1) * f * d];
                let out_row = &mut out[b * pairs..(b + 1) * pairs];
                let mut k = 0;
                for i in 0..f {
                    let ei = &row[i * d..(i + 1) * d];
                    for j in (i + 1)..f {
                        let ej = &row[j * d..(j + 1) * d];
                        out_row[k] = ei.iter().zip(ej).map(|(a, b)| a * b).sum();
                        k += 1;
                    }
                }
            }
        }
    }
}

/// Gradient of [`pairwise_dots`] with respect to `x`, **accumulated** into
/// `grad_in` (`[batch, f·d]`, zeros for a plain gradient): per sample
/// `grad_in[i] += Σ_{m≠i} G[i][m]·x[m]` with `G` the symmetric matrix of
/// `grad_out` (`[batch, f·(f−1)/2]`), `m` ascending and exact-zero `G` entries
/// skipped (so a zero gradient never meets a non-finite input). Every tier is
/// bit-identical to the scalar oracle's two-way scatter.
///
/// # Panics
///
/// Panics if the buffer lengths do not describe the same batch.
pub fn pairwise_dots_backward(
    x: &[f32],
    grad_out: &[f32],
    f: usize,
    d: usize,
    grad_in: &mut [f32],
    scratch: &mut PairwiseScratch,
) {
    let tier = isa::tier(Family::Pairwise);
    let (batch, pairs) = batch_of(x.len(), grad_out.len(), f, d);
    let band = samples_per_band(batch, pairs, d);
    if band < batch {
        assert_eq!(grad_in.len(), x.len(), "pairwise: gradient buffer length");
        grad_in
            .par_chunks_mut(band * f * d)
            .enumerate()
            .for_each(|(c, grad_band)| {
                let x_band = &x[c * band * f * d..][..grad_band.len()];
                let gout_band = &grad_out[c * band * pairs..][..grad_band.len() / (f * d) * pairs];
                backward_on(tier, x_band, gout_band, f, d, grad_band, &mut Vec::new());
            });
    } else {
        backward_on(tier, x, grad_out, f, d, grad_in, &mut scratch.panel);
    }
}

fn backward_on(
    tier: Tier,
    x: &[f32],
    grad_out: &[f32],
    f: usize,
    d: usize,
    grad_in: &mut [f32],
    g: &mut Vec<f32>,
) {
    let (batch, pairs) = batch_of(x.len(), grad_out.len(), f, d);
    assert_eq!(grad_in.len(), x.len(), "pairwise: gradient buffer length");
    match tier {
        // SAFETY: as in `forward_on` — the tier's features were detected, and
        // all three buffers hold `batch` whole samples.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 if batch > 0 => unsafe { avx512::backward(x, grad_out, f, d, grad_in, g) },
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 if batch > 0 => unsafe { avx2::backward(x, grad_out, f, d, grad_in, g) },
        _ => {
            for b in 0..batch {
                let row = &x[b * f * d..(b + 1) * f * d];
                let gout = &grad_out[b * pairs..(b + 1) * pairs];
                let grad_row = &mut grad_in[b * f * d..(b + 1) * f * d];
                let mut k = 0;
                for i in 0..f {
                    for j in (i + 1)..f {
                        let g = gout[k];
                        if g != 0.0 {
                            for t in 0..d {
                                grad_row[i * d + t] += g * row[j * d + t];
                                grad_row[j * d + t] += g * row[i * d + t];
                            }
                        }
                        k += 1;
                    }
                }
            }
        }
    }
}

/// `panel[t][j] = row[j·d + t]` for one sample, in 4×4 SSE blocks (baseline
/// x86-64, shared by both tiers). Columns `f..fp` are left as they are, except
/// that a ragged last block rewrites its missing rows' columns with zeros.
///
/// # Safety
///
/// `row` must hold `f·d` units and `panel` `d·fp` floats, with `fp` a multiple
/// of 4 that is `>= f`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn transpose_to_panel(row: &[f32], f: usize, d: usize, fp: usize, panel: &mut [f32]) {
    use std::arch::x86_64::*;
    debug_assert!(row.len() == f * d && panel.len() == d * fp);
    debug_assert!(fp.is_multiple_of(4) && fp >= f);
    let d4 = d / 4 * 4;
    for j0 in (0..f).step_by(4) {
        let live = (f - j0).min(4);
        // Rows past `f` alias the block's first row; their lanes are zeroed.
        let src = |q: usize| row.as_ptr().add((j0 + q % live) * d);
        let keep = |q: usize| _mm_castsi128_ps(_mm_set1_epi32(if q < live { -1 } else { 0 }));
        let mut t = 0;
        while t < d4 {
            let mut r0 = _mm_loadu_ps(src(0).add(t));
            let mut r1 = _mm_and_ps(_mm_loadu_ps(src(1).add(t)), keep(1));
            let mut r2 = _mm_and_ps(_mm_loadu_ps(src(2).add(t)), keep(2));
            let mut r3 = _mm_and_ps(_mm_loadu_ps(src(3).add(t)), keep(3));
            _MM_TRANSPOSE4_PS(&mut r0, &mut r1, &mut r2, &mut r3);
            let dst = panel.as_mut_ptr().add(t * fp + j0);
            _mm_storeu_ps(dst, r0);
            _mm_storeu_ps(dst.add(fp), r1);
            _mm_storeu_ps(dst.add(2 * fp), r2);
            _mm_storeu_ps(dst.add(3 * fp), r3);
            t += 4;
        }
        for t in d4..d {
            for q in 0..live {
                panel[t * fp + j0 + q] = row[(j0 + q) * d + t];
            }
        }
    }
}

/// Spreads one sample's pair gradients into the symmetric `[f, f]` matrix
/// (`g[i][j] = g[j][i] = gout[k(i, j)]`); the diagonal is left untouched.
#[cfg(target_arch = "x86_64")]
fn spread_symmetric(gout: &[f32], f: usize, g: &mut [f32]) {
    let mut k = 0;
    for i in 0..f {
        for j in (i + 1)..f {
            g[i * f + j] = gout[k];
            g[j * f + i] = gout[k];
            k += 1;
        }
    }
}

/// Generates the forward and backward kernels for one AVX ISA.
#[cfg(target_arch = "x86_64")]
macro_rules! pairwise_isa {
    ($modname:ident, $feat:literal, $lanes:expr, $loadu:ident, $set1:ident,
     $mul:ident, $add:ident, $load_lanes:ident, $store_lanes:ident) => {
        mod $modname {
            use super::{pair_index, spread_symmetric, transpose_to_panel};
            use crate::isa::lanes;
            use std::arch::x86_64::*;

            pub(super) const LANES: usize = $lanes;

            /// Forward tile: rows `i0..i0 + R` against columns `j0..j0 + LANES`
            /// of one sample.
            #[inline(always)]
            #[allow(clippy::needless_range_loop)] // `r` walks the accumulators and the rows in lockstep
            unsafe fn dots_tile<const R: usize>(
                row: &[f32],
                panel: &[f32],
                out_row: &mut [f32],
                i0: usize,
                j0: usize,
                f: usize,
                d: usize,
            ) {
                let fp = f.next_multiple_of(LANES);
                debug_assert!((i0 + R) * d <= row.len());
                debug_assert!(j0 + LANES <= fp && panel.len() == d * fp);
                let xp = row.as_ptr().add(i0 * d);
                let pp = panel.as_ptr().add(j0);
                let mut acc = [$set1(-0.0); R];
                for t in 0..d {
                    let pv = $loadu(pp.add(t * fp));
                    for r in 0..R {
                        acc[r] = $add(acc[r], $mul($set1(*xp.add(r * d + t)), pv));
                    }
                }
                for r in 0..R {
                    let i = i0 + r;
                    let (lo, hi) = ((i + 1).max(j0), f.min(j0 + LANES));
                    if lo < hi {
                        let k = pair_index(i, lo, f);
                        debug_assert!(k + (hi - lo) <= out_row.len());
                        lanes::$store_lanes(out_row.as_mut_ptr().add(k), lo - j0, hi - j0, acc[r]);
                    }
                }
            }

            /// Forward over a batch; `x`/`out` hold whole samples, `f >= 2`.
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn forward(
                x: &[f32],
                f: usize,
                d: usize,
                out: &mut [f32],
                panel: &mut Vec<f32>,
            ) {
                let fp = f.next_multiple_of(LANES);
                let pairs = f * (f - 1) / 2;
                // Columns `f..fp` keep these zeros across samples. The panel
                // starts on a lane-block boundary so that no tile load
                // straddles a cache line wherever the allocator put the
                // buffer (a 16-byte-aligned panel cost the tiles 6%).
                panel.clear();
                panel.resize(d * fp + LANES - 1, 0.0);
                let skip = panel.as_ptr().align_offset(LANES * 4).min(LANES - 1);
                let panel = &mut panel[skip..skip + d * fp];
                for (b, out_row) in out.chunks_exact_mut(pairs).enumerate() {
                    let row = &x[b * f * d..(b + 1) * f * d];
                    transpose_to_panel(row, f, d, fp, panel);
                    // The last row has no `j > i`; a tile starts at the block
                    // holding its first needed column, `i0 + 1`.
                    let mut i0 = 0;
                    while i0 + 1 < f {
                        let rows = (f - 1 - i0).min(4);
                        for jb in (i0 + 1) / LANES..fp / LANES {
                            let j0 = jb * LANES;
                            match rows {
                                4 => dots_tile::<4>(row, panel, out_row, i0, j0, f, d),
                                3 => dots_tile::<3>(row, panel, out_row, i0, j0, f, d),
                                2 => dots_tile::<2>(row, panel, out_row, i0, j0, f, d),
                                _ => dots_tile::<1>(row, panel, out_row, i0, j0, f, d),
                            }
                        }
                        i0 += rows;
                    }
                }
            }

            /// Backward tile: gradient rows `i0..i0 + R`, columns `t0..t0 + w`
            /// (`w <= LANES`), of one sample; `g` is its `[f, f]` matrix.
            #[inline(always)]
            #[allow(clippy::needless_range_loop, clippy::too_many_arguments)] // `r` walks the accumulators and the rows in lockstep
            unsafe fn grad_tile<const R: usize>(
                row: &[f32],
                g: &[f32],
                grad_row: &mut [f32],
                i0: usize,
                t0: usize,
                w: usize,
                f: usize,
                d: usize,
            ) {
                debug_assert!(i0 + R <= f && w <= LANES && t0 + w <= d);
                debug_assert!(row.len() == f * d && grad_row.len() == f * d && g.len() == f * f);
                let gp = grad_row.as_mut_ptr().add(i0 * d + t0);
                let g_rows: [&[f32]; R] = std::array::from_fn(|r| &g[(i0 + r) * f..][..f]);
                let mut acc = [$set1(0.0); R];
                for r in 0..R {
                    acc[r] = lanes::$load_lanes(gp.add(r * d), w);
                }
                for m in 0..f {
                    let xv = lanes::$load_lanes(row.as_ptr().add(m * d + t0), w);
                    for r in 0..R {
                        let gv = g_rows[r][m];
                        if gv != 0.0 {
                            acc[r] = $add(acc[r], $mul($set1(gv), xv));
                        }
                    }
                }
                for r in 0..R {
                    lanes::$store_lanes(gp.add(r * d), 0, w, acc[r]);
                }
            }

            /// Backward over a non-empty batch of whole samples (`f >= 2`).
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn backward(
                x: &[f32],
                grad_out: &[f32],
                f: usize,
                d: usize,
                grad_in: &mut [f32],
                g: &mut Vec<f32>,
            ) {
                let pairs = f * (f - 1) / 2;
                // The zero diagonal turns the tiles' zero-skip into `m != i`.
                g.clear();
                g.resize(f * f, 0.0);
                for (b, gout) in grad_out.chunks_exact(pairs).enumerate() {
                    let row = &x[b * f * d..(b + 1) * f * d];
                    let grad_row = &mut grad_in[b * f * d..(b + 1) * f * d];
                    spread_symmetric(gout, f, g);
                    let mut i0 = 0;
                    while i0 < f {
                        let rows = (f - i0).min(4);
                        for t0 in (0..d).step_by(LANES) {
                            let w = (d - t0).min(LANES);
                            match rows {
                                4 => grad_tile::<4>(row, g, grad_row, i0, t0, w, f, d),
                                3 => grad_tile::<3>(row, g, grad_row, i0, t0, w, f, d),
                                2 => grad_tile::<2>(row, g, grad_row, i0, t0, w, f, d),
                                _ => grad_tile::<1>(row, g, grad_row, i0, t0, w, f, d),
                            }
                        }
                        i0 += rows;
                    }
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
pairwise_isa!(
    avx512,
    "avx512f",
    16,
    _mm512_loadu_ps,
    _mm512_set1_ps,
    _mm512_mul_ps,
    _mm512_add_ps,
    load16,
    store16
);

#[cfg(target_arch = "x86_64")]
pairwise_isa!(
    avx2,
    "avx2",
    8,
    _mm256_loadu_ps,
    _mm256_set1_ps,
    _mm256_mul_ps,
    _mm256_add_ps,
    load8,
    store8
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{on_every_tier, with_tier};
    use crate::testutil::{bits, hostile_value};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `[batch, f, d]` units: each feature row is all `+0.0`, all `-0.0`,
    /// plain, or laced with hostile values.
    fn units(rng: &mut StdRng, batch: usize, f: usize, d: usize, hostile: bool) -> Vec<f32> {
        let mut x = Vec::with_capacity(batch * f * d);
        for _ in 0..batch * f {
            let kind = if hostile { rng.gen_range(0u32..6) } else { 5 };
            for _ in 0..d {
                x.push(match kind {
                    0 => 0.0,
                    1 => -0.0,
                    2 if rng.gen_range(0u32..4) == 0 => hostile_value(rng),
                    _ => rng.gen_range(-2.0f32..2.0),
                });
            }
        }
        x
    }

    /// Upstream gradients with exact zeros of both signs and, when `hostile`,
    /// non-finite entries.
    fn grads(rng: &mut StdRng, len: usize, hostile: bool) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.gen_range(0u32..8) {
                0 => 0.0,
                1 => -0.0,
                2 if hostile => hostile_value(rng),
                _ => rng.gen_range(-1.0f32..1.0),
            })
            .collect()
    }

    /// Runs forward and backward on every host tier against the scalar
    /// oracle; `scratch` is shared across calls, and between the forward's
    /// panel and the backward's gradient matrix, to catch stale contents.
    fn check_all_tiers(
        batch: usize,
        f: usize,
        d: usize,
        hostile: bool,
        seed: u64,
        scratch: &mut PairwiseScratch,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs = f * f.saturating_sub(1) / 2;
        let x = units(&mut rng, batch, f, d, hostile);
        let gout = grads(&mut rng, batch * pairs, hostile);
        let mut want = vec![f32::NAN; batch * pairs];
        let mut want_grad = vec![0.0f32; x.len()];
        with_tier(Tier::Scalar, || {
            pairwise_dots(&x, f, d, &mut want, scratch);
            pairwise_dots_backward(&x, &gout, f, d, &mut want_grad, scratch);
        });
        on_every_tier(Family::Pairwise, |tier| {
            let mut got = vec![f32::NAN; batch * pairs];
            pairwise_dots(&x, f, d, &mut got, scratch);
            assert_eq!(
                bits(&got),
                bits(&want),
                "forward {tier:?} at {batch}x{f}x{d}"
            );
            let mut got_grad = vec![0.0f32; x.len()];
            pairwise_dots_backward(&x, &gout, f, d, &mut got_grad, scratch);
            assert_eq!(
                bits(&got_grad),
                bits(&want_grad),
                "backward {tier:?} at {batch}x{f}x{d}"
            );
        });
    }

    #[test]
    fn every_tier_matches_the_oracle_on_the_shape_grid() {
        let mut scratch = PairwiseScratch::default();
        let mut seed = 0;
        for f in [1usize, 2, 3, 15, 16, 17, 27, 33] {
            for d in [0usize, 1, 5, 16, 32, 33, 128] {
                for (batch, hostile) in [(1usize, false), (3, true), (2, true)] {
                    seed += 1;
                    check_all_tiers(batch, f, d, hostile, seed, &mut scratch);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Ragged batches and shapes (empty batch, no features, `d = 0`,
        /// `F` on both sides of each tier's lane-block) with hostile units
        /// and gradients: every tier returns the oracle's bits.
        #[test]
        fn every_tier_matches_the_oracle_on_ragged_hostile_input(
            batch in 0usize..5,
            f in 0usize..40,
            d in 0usize..70,
            seed in any::<u64>(),
        ) {
            check_all_tiers(batch, f, d, true, seed, &mut PairwiseScratch::default());
        }
    }

    #[test]
    fn the_sum_is_folded_from_negative_zero_on_every_tier() {
        // `-0.0` against positive units: every product is `-0.0`, and only a
        // `-0.0` seed keeps the sum there. `d = 0` is the seed itself.
        for (f, d) in [(2usize, 4usize), (17, 3), (33, 0)] {
            let mut x = vec![1.0f32; f * d];
            x[..d].fill(-0.0);
            on_every_tier(Family::Pairwise, |tier| {
                let mut out = vec![f32::NAN; f * (f - 1) / 2];
                pairwise_dots(&x, f, d, &mut out, &mut PairwiseScratch::default());
                for (j, v) in out[..f - 1].iter().enumerate() {
                    assert_eq!(
                        v.to_bits(),
                        (-0.0f32).to_bits(),
                        "{tier:?} {f}x{d} pair (0,{j})"
                    );
                }
            });
        }
    }

    #[test]
    fn padding_and_masked_lanes_never_leak() {
        // Infinite units make every padded lane `inf · 0 = NaN`; the stored
        // triangle must still be the finite-or-infinite oracle values.
        let (f, d) = (17usize, 2usize);
        let x = vec![f32::INFINITY; f * d];
        on_every_tier(Family::Pairwise, |tier| {
            let mut out = vec![0.0f32; f * (f - 1) / 2];
            pairwise_dots(&x, f, d, &mut out, &mut PairwiseScratch::default());
            assert!(out.iter().all(|v| *v == f32::INFINITY), "{tier:?}");
        });
    }

    #[test]
    fn backward_skips_exact_zero_gradients_of_either_sign() {
        // Pair (0, 1) has a zero gradient and non-finite inputs behind it:
        // skipped, rows 0 and 1 only see the finite row 2.
        let (f, d) = (3usize, 20usize);
        let mut x = vec![1.0f32; f * d];
        x[..d].fill(f32::NAN);
        x[d..2 * d].fill(f32::INFINITY);
        for zero in [0.0f32, -0.0] {
            let gout = [zero, 2.0, 3.0];
            on_every_tier(Family::Pairwise, |tier| {
                let mut grad = vec![0.0f32; f * d];
                let mut scratch = PairwiseScratch::default();
                pairwise_dots_backward(&x, &gout, f, d, &mut grad, &mut scratch);
                assert!(grad[..d].iter().all(|v| *v == 2.0), "{tier:?} row 0");
                assert!(grad[d..2 * d].iter().all(|v| *v == 3.0), "{tier:?} row 1");
                assert!(grad[2 * d..].iter().all(|v| v.is_nan()), "{tier:?} row 2");
            });
        }
    }

    #[test]
    fn the_parallel_split_matches_the_oracle() {
        // Above the cutoff, with an odd batch so the bands are uneven; the
        // oracle runs serially.
        let (batch, f, d) = (193usize, 27usize, 128usize);
        let pairs = f * (f - 1) / 2;
        assert!(batch * pairs * d >= PARALLEL_PAIRWISE_CUTOFF);
        let mut rng = StdRng::seed_from_u64(5);
        let x = units(&mut rng, batch, f, d, false);
        let gout = grads(&mut rng, batch * pairs, false);
        let mut scratch = PairwiseScratch::default();
        let (mut got, mut want) = (vec![0.0f32; batch * pairs], vec![0.0f32; batch * pairs]);
        pairwise_dots(&x, f, d, &mut got, &mut scratch);
        forward_on(Tier::Scalar, &x, f, d, &mut want, &mut scratch);
        assert_eq!(bits(&got), bits(&want));
        let (mut got, mut want) = (vec![0.0f32; x.len()], vec![0.0f32; x.len()]);
        pairwise_dots_backward(&x, &gout, f, d, &mut got, &mut scratch);
        backward_on(Tier::Scalar, &x, &gout, f, d, &mut want, &mut scratch.panel);
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    #[should_panic(expected = "unit buffer length")]
    fn mismatched_buffers_are_rejected() {
        pairwise_dots(
            &[0.0; 5],
            3,
            2,
            &mut [0.0; 3],
            &mut PairwiseScratch::default(),
        );
    }
}
