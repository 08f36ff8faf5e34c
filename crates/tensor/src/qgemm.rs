//! Quantized GEMM microkernels: int8 weights with integer accumulation.
//!
//! [`gemm_a_bt_q8`] computes `C += A·Bᵀ` for a linear layer's `[in, out]`
//! weight packed once as int8 with one symmetric scale per output column
//! ([`QuantizedBtMatrix`]); activations are quantized per row, once per GEMM,
//! into a [`QGemmScratch`]. The inner product runs entirely in **i32** (exact
//! integer arithmetic), then each output gets `dot as f32 * a_scale *
//! b_scale`. Integer addition is associative, so every tier below returns
//! **bit-identical** results — pinned by tests against [`dot_i8_scalar`], not
//! hoped for.
//!
//! # The packed int8 layout
//!
//! One layout, built once in [`QuantizedBtMatrix::from_col_major`] and read
//! by every tier: output columns are grouped into **panels** of 16, the
//! reduction index into **k-groups** of 4, and each (panel, k-group) pair is
//! one 64-byte block holding 16 columns × 4 consecutive `k` values:
//!
//! ```text
//! packed: [n/16 panels][k/4 groups][16 columns][4 k]        (i8, zero-padded)
//!
//!            byte 0..3      byte 4..7            byte 60..63
//! group g:  | col 0, k 4g..4g+3 | col 1, k 4g..4g+3 | … | col 15, k 4g..4g+3 |
//!           └──────────── one 512-bit load = 16 i32 lanes ────────────┘
//! ```
//!
//! A 32-bit lane is exactly the four-byte dot `vpdpbusd` consumes, so one
//! broadcast of four activation bytes against one block advances 16 output
//! columns by four `k` steps. Ragged `n` and `k` are zero-padded inside the
//! block (a zero weight contributes nothing whatever the activation byte is),
//! and `scales` / `col_sums` are padded to whole panels so the kernels need
//! masks only on `C`.
//!
//! # Tiers
//!
//! Dispatched through [`crate::isa`] ([`Family::Int8`] states what each tier
//! requires):
//!
//! | tier     | tile (rows × cols) | inner step |
//! |----------|--------------------|------------|
//! | `Avx512` | 4 × 64             | `vpdpbusd` (VNNI) on `u8` activations × `i8` weights |
//! | `Avx2`   | 2 × 16             | sign-extend to i16, `vpmaddwd` |
//! | `Scalar` | 1 × 16             | [`dot_i8_scalar`] per 4-byte lane |
//!
//! Each tier also owns the activation quantizer it feeds from; the two
//! vector forms reproduce [`quantize_i8`] bit for bit (IEEE division by the
//! scale, round half away from zero as `trunc(x + copysign(0.5 − ulp, x))`
//! on the already-saturated value, NaN → 0, non-finite values excluded from
//! the row's max-abs).
//!
//! # Why `+128` and a column sum are exact
//!
//! `vpdpbusd` multiplies **unsigned** bytes by signed bytes, so the VNNI tier
//! stores activations as `u = a + 128` (one XOR of the sign bit) and corrects
//! afterwards with the per-column sum recorded at pack time:
//!
//! ```text
//! Σₚ (aₚ + 128)·bₚ  =  Σₚ aₚ·bₚ  +  128 · Σₚ bₚ
//! ```
//!
//! Both sides are integers, so subtracting `128 · col_sum` recovers the
//! signed dot exactly, provided nothing overflows on the way: with
//! `u ∈ [1, 255]` and `|b| ≤ 127` every partial sum is bounded by
//! `255 · 127 · k = 32 385 · k`, which stays below `i32::MAX` for
//! `k ≤ 66 311`. Constructors assert `k ≤ 65 536` ([`MAX_QUANT_K`]), far
//! above any dense layer in this workspace; the signed tiers need only
//! `127² · k`, a weaker bound.

use crate::isa::{self, Family, Isa, Tier};
use crate::quant::{finite_max_abs, int8_scale, quantize_i8};

/// Largest inner dimension the constructors accept (keeps the i32 dot exact,
/// including the unsigned-activation form — see the module docs).
pub const MAX_QUANT_K: usize = 1 << 16;

/// Output columns per packed panel: one 512-bit register of i32 accumulators.
const PANEL: usize = 16;
/// Consecutive `k` values stored together per column: one 32-bit dot lane.
const KGROUP: usize = 4;
/// Bytes of one (panel, k-group) block.
const BLOCK: usize = PANEL * KGROUP;

/// `B` packed as int8 with one symmetric scale per output column, in the
/// panel/k-group layout the module docs describe.
///
/// Column `j` of the original `B: [k, n]` is quantized at
/// `scales[j] = max_abs(column j) / 127` with the wire codec's element rule
/// (round half away from zero, saturate, NaN → 0).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedBtMatrix {
    /// `[panels][k-groups][16][4]`, zero-padded.
    packed: Vec<i8>,
    /// `Σₚ b[p, j]` over the quantized column, padded to whole panels.
    col_sums: Vec<i32>,
    /// Per-column scales, padded to whole panels.
    scales: Vec<f32>,
    n: usize,
    k: usize,
}

impl QuantizedBtMatrix {
    /// Packs a row-major `B: [k, n]` (a linear layer's `[in, out]` weight).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n` or `k > `[`MAX_QUANT_K`].
    #[must_use]
    pub fn from_col_major(b: &[f32], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "QuantizedBtMatrix: B length");
        assert!(
            k <= MAX_QUANT_K,
            "QuantizedBtMatrix: k too large for exact i32 accumulation"
        );
        let (panels, kgroups) = (n.div_ceil(PANEL), k.div_ceil(KGROUP));
        let mut packed = vec![0i8; panels * kgroups * BLOCK];
        let mut col_sums = vec![0i32; panels * PANEL];
        let mut scales = vec![1.0f32; panels * PANEL];
        for j in 0..n {
            let scale = int8_scale(finite_max_abs((0..k).map(|p| b[p * n + j])));
            scales[j] = scale;
            for p in 0..k {
                let q = quantize_i8(b[p * n + j], scale);
                packed[packed_index(kgroups, j, p)] = q;
                col_sums[j] += i32::from(q);
            }
        }
        Self {
            packed,
            col_sums,
            scales,
            n,
            k,
        }
    }

    /// Output columns (`n`).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Inner dimension (`k`).
    #[must_use]
    pub fn inner(&self) -> usize {
        self.k
    }

    /// Resident bytes of the packed weights: the zero-padded int8 payload
    /// plus the per-column `f32` scales and `i32` sums.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.packed.len() as u64 + 4 * (self.scales.len() + self.col_sums.len()) as u64
    }

    /// Dequantizes back to a row-major `B: [k, n]` — the reference operand
    /// differential tests compare the quantized kernel against.
    #[must_use]
    pub fn dequantize_col_major(&self) -> Vec<f32> {
        let mut b = vec![0.0f32; self.k * self.n];
        for j in 0..self.n {
            let scale = self.scales[j];
            for p in 0..self.k {
                b[p * self.n + j] = f32::from(self.quantized(j, p)) * scale;
            }
        }
        b
    }

    fn panels(&self) -> usize {
        self.n.div_ceil(PANEL)
    }

    fn kgroups(&self) -> usize {
        self.k.div_ceil(KGROUP)
    }

    /// The int8 value stored for `B[p, j]`.
    fn quantized(&self, j: usize, p: usize) -> i8 {
        self.packed[packed_index(self.kgroups(), j, p)]
    }
}

/// Byte offset of `B[p, j]` in the packed layout.
fn packed_index(kgroups: usize, j: usize, p: usize) -> usize {
    ((j / PANEL) * kgroups + p / KGROUP) * BLOCK + (j % PANEL) * KGROUP + p % KGROUP
}

/// Exact int8 dot product in i32, portable scalar loop — the oracle every
/// tier is tested against, and the scalar tier's 4-byte lane.
#[must_use]
pub fn dot_i8_scalar(x: &[i8], y: &[i8]) -> i32 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = 0i32;
    for (&a, &b) in x.iter().zip(y) {
        acc += i32::from(a) * i32::from(b);
    }
    acc
}

/// Reusable activation-quantization scratch for the int8 GEMM.
///
/// [`gemm_a_bt_q8`] quantizes its `A` rows once per call; routing the
/// quantized bytes and per-row scales through a caller-owned scratch keeps the
/// serving hot path free of per-batch heap allocations (buffers grow to the
/// high-water mark once, then are reused).
#[derive(Debug, Default, Clone)]
pub struct QGemmScratch {
    /// `[m][k rounded up to a whole k-group]` activation bytes: the int8
    /// value, with the sign bit flipped (`+128`) on the VNNI tier.
    qa: Vec<i8>,
    scales: Vec<f32>,
}

/// Quantizes the activation rows of `a: [m, k]` once for the whole GEMM,
/// into the reusable scratch, in the byte form `tier`'s kernel consumes.
/// The host must support `tier`.
fn quantize_activations_into(
    a: &[f32],
    m: usize,
    k: usize,
    tier: Tier,
    scratch: &mut QGemmScratch,
) {
    debug_assert!(Isa::host().supports(Family::Int8, tier));
    let kp = k.next_multiple_of(KGROUP);
    // Every row below is overwritten in full, padding included.
    scratch.qa.resize(m * kp, 0);
    scratch.scales.resize(m, 1.0);
    let rows = a.chunks_exact(k).zip(scratch.qa.chunks_exact_mut(kp));
    for ((row, out), scale) in rows.zip(&mut scratch.scales) {
        *scale = match tier {
            // SAFETY: the host supports `tier` (it came from `isa::tier`);
            // `out` is `row` rounded up to a whole k-group.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => unsafe { x86::quantize_row_vnni(row, out) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe { x86::quantize_row_avx2(row, out) },
            _ => quantize_row_scalar(row, out),
        };
    }
}

/// Scalar activation quantizer: `out[..k]` gets [`quantize_i8`] of `row` at
/// the row's symmetric scale (returned), the k-group padding gets zeros.
fn quantize_row_scalar(row: &[f32], out: &mut [i8]) -> f32 {
    let scale = int8_scale(finite_max_abs(row.iter().copied()));
    let (body, pad) = out.split_at_mut(row.len());
    for (q, &v) in body.iter_mut().zip(row) {
        *q = quantize_i8(v, scale);
    }
    pad.fill(0);
    scale
}

/// `C += A·Bᵀ` with int8 weights and dynamically int8-quantized activations.
///
/// `A: [m, k]` is quantized per row (symmetric `max_abs / 127` scale), the
/// integer dot runs exactly in i32, and each output gets one `f32` rescale:
/// `C[i, j] += dot as f32 * a_scale[i] * b_scale[j]`. `C` must be
/// pre-initialized by the caller (zeros, or a broadcast bias for a fused
/// linear forward) — the kernel only accumulates, like [`crate::kernels::gemm`].
///
/// Runs on the tier [`crate::isa::tier`] picks (see the module docs); every
/// tier is bit-identical.
///
/// # Panics
///
/// Panics if slice lengths do not match `m`, `k` and `b`'s geometry.
pub fn gemm_a_bt_q8(a: &[f32], b: &QuantizedBtMatrix, c: &mut [f32], m: usize, k: usize) {
    gemm_a_bt_q8_with(a, b, c, m, k, &mut QGemmScratch::default());
}

/// [`gemm_a_bt_q8`] with caller-owned activation scratch — the
/// allocation-free form the serving hot path uses.
///
/// # Panics
///
/// Panics if slice lengths do not match `m`, `k` and `b`'s geometry.
pub fn gemm_a_bt_q8_with(
    a: &[f32],
    b: &QuantizedBtMatrix,
    c: &mut [f32],
    m: usize,
    k: usize,
    scratch: &mut QGemmScratch,
) {
    let n = b.n;
    assert_eq!(b.k, k, "gemm_a_bt_q8: inner dimension");
    assert_eq!(a.len(), m * k, "gemm_a_bt_q8: A length");
    assert_eq!(c.len(), m * n, "gemm_a_bt_q8: C length");
    let tier = isa::tier(Family::Int8);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    quantize_activations_into(a, m, k, tier, scratch);
    let (qa, a_scales) = (scratch.qa.as_slice(), scratch.scales.as_slice());
    match tier {
        // SAFETY: the host supports `tier` (it came from `isa::tier`);
        // `qa`/`a_scales` were just sized for `m` rows of `b`'s k-groups and
        // `c` is `[m, n]`.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { x86::gemm_vnni(qa, a_scales, b, c, m) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { x86::gemm_avx2(qa, a_scales, b, c, m) },
        _ => scalar_gemm(qa, a_scales, b, c),
    }
}

/// Scalar tier: one output row × one 16-column panel at a time, each 4-byte
/// lane through [`dot_i8_scalar`].
fn scalar_gemm(qa: &[i8], a_scales: &[f32], b: &QuantizedBtMatrix, c: &mut [f32]) {
    let (n, kgroups) = (b.n, b.kgroups());
    let rows = qa.chunks_exact(kgroups * KGROUP).zip(c.chunks_exact_mut(n));
    for ((arow, crow), &a_scale) in rows.zip(a_scales) {
        let panels = b.packed.chunks_exact(kgroups * BLOCK);
        for ((panel, cpanel), scales) in panels
            .zip(crow.chunks_mut(PANEL))
            .zip(b.scales.chunks_exact(PANEL))
        {
            let mut dots = [0i32; PANEL];
            for (a4, block) in arow.chunks_exact(KGROUP).zip(panel.chunks_exact(BLOCK)) {
                for (dot, b4) in dots.iter_mut().zip(block.chunks_exact(KGROUP)) {
                    *dot += dot_i8_scalar(a4, b4);
                }
            }
            for ((cval, dot), b_scale) in cpanel.iter_mut().zip(dots).zip(scales) {
                *cval += dot as f32 * a_scale * b_scale;
            }
        }
    }
}

/// The AVX-512 VNNI and AVX2 tiers: activation quantizers and GEMM tiles.
///
/// Every function here is `unsafe` for two reasons its caller must discharge:
/// the host must support the function's `target_feature` set, and the slices
/// must have the geometry each function documents (re-checked with
/// `debug_assert!` where the raw pointers are formed).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{int8_scale, QuantizedBtMatrix, BLOCK, KGROUP, PANEL};
    use crate::isa::lanes::{load16, load8, mask16, store16, store8};
    use std::arch::x86_64::*;

    /// Largest `f32` below one half. `trunc(t + copysign(HALF_BELOW, t))` is
    /// `t.round()` (half away from zero) for every finite `t`: adding exactly
    /// 0.5 would carry values just under `n + 0.5` up to `n + 1`.
    const HALF_BELOW: f32 = f32::from_bits(0x3eff_ffff);

    /// AVX-512 activation quantizer for the VNNI tier: bit-identical to
    /// [`super::quantize_row_scalar`] with every byte's sign bit flipped
    /// (`+128`, padding included), masked tails instead of a scalar remainder.
    ///
    /// # Safety
    ///
    /// The host must support `avx512f`, `avx512bw` and `avx512vnni`;
    /// `out.len()` must be `row.len()` rounded up to a whole k-group.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(super) unsafe fn quantize_row_vnni(row: &[f32], out: &mut [i8]) -> f32 {
        let (k, kp) = (row.len(), out.len());
        debug_assert_eq!(kp, k.next_multiple_of(KGROUP));
        let (src, dst) = (row.as_ptr(), out.as_mut_ptr());

        let inf = _mm512_set1_ps(f32::INFINITY);
        let mut max = _mm512_setzero_ps();
        let mut p = 0;
        while p < k {
            // In bounds: the mask stops the load at `row[k - 1]`.
            let abs = _mm512_abs_ps(load16(src.add(p), (k - p).min(16)));
            // Ordered less-than drops both infinities and NaN.
            let finite = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(abs, inf);
            max = _mm512_mask_max_ps(max, finite, max, abs);
            p += 16;
        }
        let scale = int8_scale(_mm512_reduce_max_ps(max));

        let vscale = _mm512_set1_ps(scale);
        let (lo, hi) = (_mm512_set1_ps(-127.0), _mm512_set1_ps(127.0));
        let half = _mm512_castps_si512(_mm512_set1_ps(HALF_BELOW));
        let sign_bit = _mm512_castps_si512(_mm512_set1_ps(-0.0));
        let plus_128 = _mm512_set1_epi32(0x80);
        let mut p = 0;
        while p < kp {
            // Masked-off lanes load 0.0 and so quantize to the padding byte
            // (`p < k`: both are multiples of a k-group below `kp`).
            let x = _mm512_div_ps(load16(src.add(p), (k - p).min(16)), vscale);
            // NaN (a NaN input, or 0/0 at a flushed-to-zero scale) → 0.
            let ordered = _mm512_cmp_ps_mask::<_CMP_ORD_Q>(x, x);
            let t = _mm512_min_ps(_mm512_max_ps(x, lo), hi);
            // (t & sign_bit) | half — `copysign(HALF_BELOW, t)` in one op.
            let signed_half = _mm512_castsi512_ps(_mm512_ternarylogic_epi32::<0xEA>(
                _mm512_castps_si512(t),
                sign_bit,
                half,
            ));
            let q = _mm512_maskz_cvttps_epi32(ordered, _mm512_add_ps(t, signed_half));
            // In bounds: the mask stops the store at `out[kp - 1]`.
            _mm512_mask_cvtepi32_storeu_epi8(
                dst.add(p),
                mask16(0, (kp - p).min(16)),
                _mm512_xor_si512(q, plus_128),
            );
            p += 16;
        }
        scale
    }

    /// AVX2 activation quantizer: bit-identical to
    /// [`super::quantize_row_scalar`]; the ragged tail goes through a masked
    /// load rather than a scalar loop.
    ///
    /// # Safety
    ///
    /// The host must support `avx2`; `out.len()` must be `row.len()` rounded
    /// up to a whole k-group.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_row_avx2(row: &[f32], out: &mut [i8]) -> f32 {
        let (k, kp) = (row.len(), out.len());
        debug_assert_eq!(kp, k.next_multiple_of(KGROUP));
        let abs_bits = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        let inf = _mm256_set1_ps(f32::INFINITY);
        let mut max = _mm256_setzero_ps();
        for p in (0..k).step_by(8) {
            let abs = _mm256_and_ps(load8(row.as_ptr().add(p), (k - p).min(8)), abs_bits);
            // Ordered less-than drops both infinities and NaN (lane → 0.0).
            let finite = _mm256_cmp_ps::<_CMP_LT_OQ>(abs, inf);
            max = _mm256_max_ps(max, _mm256_and_ps(abs, finite));
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), max);
        let scale = int8_scale(lanes.into_iter().fold(0.0f32, f32::max));

        let vscale = _mm256_set1_ps(scale);
        let (lo, hi) = (_mm256_set1_ps(-127.0), _mm256_set1_ps(127.0));
        let half = _mm256_set1_ps(HALF_BELOW);
        let sign_bit = _mm256_set1_ps(-0.0);
        for p in (0..kp).step_by(8) {
            // Zero-filled past the end; `p < k` as in `quantize_row_vnni`.
            let x = _mm256_div_ps(load8(row.as_ptr().add(p), (k - p).min(8)), vscale);
            // NaN (a NaN input, or 0/0 at a flushed-to-zero scale) → 0.
            let ordered = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_ORD_Q>(x, x));
            let t = _mm256_min_ps(_mm256_max_ps(x, lo), hi);
            let signed_half = _mm256_or_ps(_mm256_and_ps(t, sign_bit), half);
            let q = _mm256_and_si256(_mm256_cvttps_epi32(_mm256_add_ps(t, signed_half)), ordered);
            // |q| ≤ 127, so both saturating packs are plain narrowing.
            let words =
                _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256::<1>(q));
            let bytes = _mm_cvtsi128_si64(_mm_packs_epi16(words, words)).to_le_bytes();
            for (o, byte) in out[p..].iter_mut().zip(bytes) {
                *o = byte as i8;
            }
        }
        scale
    }

    /// VNNI tier: `C += dot · a_scale · b_scale` over 4-row × 64-column
    /// register tiles. Column tiles are the outer loop so a tile's weights
    /// (≤ 4 panels) stay in L1 while every row tile streams past them.
    ///
    /// # Safety
    ///
    /// The host must support `avx512f`, `avx512bw` and `avx512vnni`. `qa`
    /// must hold `m` rows of `b.kgroups() * 4` bytes in the `+128` form
    /// [`quantize_row_vnni`] writes, `a_scales` `m` values, `c` `[m, b.n]`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(super) unsafe fn gemm_vnni(
        qa: &[i8],
        a_scales: &[f32],
        b: &QuantizedBtMatrix,
        c: &mut [f32],
        m: usize,
    ) {
        let panels = b.panels();
        for p0 in (0..panels).step_by(4) {
            match panels - p0 {
                1 => vnni_column_tile::<1>(qa, a_scales, b, c, m, p0),
                2 => vnni_column_tile::<2>(qa, a_scales, b, c, m, p0),
                3 => vnni_column_tile::<3>(qa, a_scales, b, c, m, p0),
                _ => vnni_column_tile::<4>(qa, a_scales, b, c, m, p0),
            }
        }
    }

    /// All row tiles of the `NP` panels starting at panel `p0`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    unsafe fn vnni_column_tile<const NP: usize>(
        qa: &[i8],
        a_scales: &[f32],
        b: &QuantizedBtMatrix,
        c: &mut [f32],
        m: usize,
        p0: usize,
    ) {
        for i0 in (0..m).step_by(4) {
            match m - i0 {
                1 => vnni_tile::<1, NP>(qa, a_scales, b, c, i0, p0),
                2 => vnni_tile::<2, NP>(qa, a_scales, b, c, i0, p0),
                3 => vnni_tile::<3, NP>(qa, a_scales, b, c, i0, p0),
                _ => vnni_tile::<4, NP>(qa, a_scales, b, c, i0, p0),
            }
        }
    }

    /// One `MR`-row × `NP`-panel tile: `MR · NP` zmm accumulators, `MR`
    /// activation broadcasts and one weight block live per k-group.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    unsafe fn vnni_tile<const MR: usize, const NP: usize>(
        qa: &[i8],
        a_scales: &[f32],
        b: &QuantizedBtMatrix,
        c: &mut [f32],
        i0: usize,
        p0: usize,
    ) {
        let (n, kgroups) = (b.n, b.kgroups());
        let kp = kgroups * KGROUP;
        debug_assert!((i0 + MR) * kp <= qa.len() && i0 + MR <= a_scales.len());
        debug_assert!((p0 + NP) * kgroups * BLOCK <= b.packed.len());
        debug_assert!((p0 + NP) * PANEL <= b.scales.len().min(b.col_sums.len()));
        debug_assert!((p0 + NP - 1) * PANEL < n && (i0 + MR) * n <= c.len());
        let a_tile = qa.as_ptr().add(i0 * kp);
        let b_tile = b.packed.as_ptr().add(p0 * kgroups * BLOCK);

        let mut acc = [[_mm512_setzero_si512(); MR]; NP];
        for g in 0..kgroups {
            let mut a4 = [_mm512_setzero_si512(); MR];
            for (r, a4) in a4.iter_mut().enumerate() {
                let group = a_tile.add(r * kp + g * KGROUP).cast::<i32>();
                *a4 = _mm512_set1_epi32(group.read_unaligned());
            }
            for (p, acc_panel) in acc.iter_mut().enumerate() {
                let block = _mm512_loadu_si512(b_tile.add((p * kgroups + g) * BLOCK).cast());
                for (lane, &a4) in acc_panel.iter_mut().zip(&a4) {
                    *lane = _mm512_dpbusd_epi32(*lane, a4, block);
                }
            }
        }

        for (p, acc_panel) in acc.iter().enumerate() {
            let col = (p0 + p) * PANEL;
            let live = (n - col).min(PANEL);
            // Σ(a+128)·b − 128·Σb = Σ a·b, exactly (module docs).
            let sums = _mm512_loadu_si512(b.col_sums.as_ptr().add(col).cast());
            let correction = _mm512_slli_epi32::<7>(sums);
            let b_scales = _mm512_loadu_ps(b.scales.as_ptr().add(col));
            for (r, &lane) in acc_panel.iter().enumerate() {
                let dot = _mm512_cvtepi32_ps(_mm512_sub_epi32(lane, correction));
                let a_scale = _mm512_set1_ps(a_scales[i0 + r]);
                // Two separate multiplies then an add — the scalar tier's
                // exact operation order; no FMA contraction.
                let term = _mm512_mul_ps(_mm512_mul_ps(dot, a_scale), b_scales);
                // In bounds: the mask stops at column `n - 1` of row `i0 + r`.
                let cptr = c.as_mut_ptr().add((i0 + r) * n + col);
                store16(cptr, 0, live, _mm512_add_ps(load16(cptr, live), term));
            }
        }
    }

    /// AVX2 tier: 2-row × 16-column tiles; each k-group is sign-extended to
    /// i16 and reduced with `vpmaddwd` (pair sums fit i32 with room to spare).
    ///
    /// # Safety
    ///
    /// The host must support `avx2`. `qa` must hold `m` rows of
    /// `b.kgroups() * 4` signed bytes as [`quantize_row_avx2`] writes them,
    /// `a_scales` `m` values, `c` `[m, b.n]`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_avx2(
        qa: &[i8],
        a_scales: &[f32],
        b: &QuantizedBtMatrix,
        c: &mut [f32],
        m: usize,
    ) {
        for panel in 0..b.panels() {
            for i0 in (0..m).step_by(2) {
                if m - i0 == 1 {
                    avx2_tile::<1>(qa, a_scales, b, c, i0, panel);
                } else {
                    avx2_tile::<2>(qa, a_scales, b, c, i0, panel);
                }
            }
        }
    }

    /// One `MR`-row × one-panel tile. A 64-byte block is four 16-byte
    /// quarters of 4 columns × 4 `k`; widened to i16 and `vpmaddwd`-ed against
    /// the broadcast activation group, each quarter yields two i32 partial
    /// sums per column, folded pairwise in the epilogue.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_tile<const MR: usize>(
        qa: &[i8],
        a_scales: &[f32],
        b: &QuantizedBtMatrix,
        c: &mut [f32],
        i0: usize,
        panel: usize,
    ) {
        let (n, kgroups) = (b.n, b.kgroups());
        let kp = kgroups * KGROUP;
        debug_assert!((i0 + MR) * kp <= qa.len() && i0 + MR <= a_scales.len());
        debug_assert!((panel + 1) * kgroups * BLOCK <= b.packed.len());
        debug_assert!((panel + 1) * PANEL <= b.scales.len());
        debug_assert!(panel * PANEL < n && (i0 + MR) * n <= c.len());
        let a_tile = qa.as_ptr().add(i0 * kp);
        let b_tile = b.packed.as_ptr().add(panel * kgroups * BLOCK);

        let mut acc = [[_mm256_setzero_si256(); 4]; MR];
        for g in 0..kgroups {
            let mut quarters = [_mm256_setzero_si256(); 4];
            for (q, quarter) in quarters.iter_mut().enumerate() {
                let bytes = _mm_loadu_si128(b_tile.add(g * BLOCK + q * 16).cast());
                *quarter = _mm256_cvtepi8_epi16(bytes);
            }
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let a4 = a_tile
                    .add(r * kp + g * KGROUP)
                    .cast::<i32>()
                    .read_unaligned();
                let a4 = _mm256_cvtepi8_epi16(_mm_set1_epi32(a4));
                for (lane, &quarter) in acc_row.iter_mut().zip(&quarters) {
                    *lane = _mm256_add_epi32(*lane, _mm256_madd_epi16(a4, quarter));
                }
            }
        }

        for (r, acc_row) in acc.iter().enumerate() {
            let a_scale = _mm256_set1_ps(a_scales[i0 + r]);
            for half in 0..2 {
                let col = panel * PANEL + half * 8;
                if col >= n {
                    break;
                }
                // hadd folds each column's two partials but interleaves the
                // two quarters per 128-bit lane: [c0 c1 c4 c5 | c2 c3 c6 c7].
                let folded = _mm256_hadd_epi32(acc_row[2 * half], acc_row[2 * half + 1]);
                let dot = _mm256_cvtepi32_ps(_mm256_permute4x64_epi64::<0b11_01_10_00>(folded));
                let b_scales = _mm256_loadu_ps(b.scales.as_ptr().add(col));
                // Same two multiplies and one add as the scalar tier.
                let term = _mm256_mul_ps(_mm256_mul_ps(dot, a_scale), b_scales);
                // In bounds: the mask stops at column `n - 1` of row `i0 + r`.
                let live = (n - col).min(8);
                let cptr = c.as_mut_ptr().add((i0 + r) * n + col);
                store8(cptr, 0, live, _mm256_add_ps(load8(cptr, live), term));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{on_every_tier, with_tier};
    use crate::kernels::gemm_a_bt;
    use crate::quant::quantize_row_i8;
    use crate::testutil::{bits, fill, hostile_value};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Row-major [k, n] -> Bᵀ rows [n, k] (reference layout for gemm_a_bt).
    fn transpose(b: &[f32], k: usize, n: usize) -> Vec<f32> {
        let mut bt = vec![0.0f32; n * k];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        bt
    }

    /// `[m, k]` activations: each row is all-zero, plain, or laced with
    /// hostile values.
    fn activations(rng: &mut StdRng, m: usize, k: usize) -> Vec<f32> {
        let mut a = Vec::with_capacity(m * k);
        for _ in 0..m {
            let kind = rng.gen_range(0u32..4);
            for _ in 0..k {
                a.push(match kind {
                    0 => 0.0,
                    1 => rng.gen_range(-4.0f32..4.0),
                    _ => hostile_value(rng),
                });
            }
        }
        a
    }

    /// The kernel's contract spelled out with the scalar oracles only:
    /// quantize `B` columns and `A` rows with `quant`'s element rule, dot in
    /// i32 with [`dot_i8_scalar`], rescale, accumulate onto `c0`.
    fn reference(a: &[f32], bf: &[f32], c0: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let columns: Vec<(Vec<i8>, f32)> = (0..n)
            .map(|j| {
                let column: Vec<f32> = (0..k).map(|p| bf[p * n + j]).collect();
                let mut qb = Vec::new();
                let b_scale = quantize_row_i8(&column, &mut qb);
                (qb, b_scale)
            })
            .collect();
        let mut c = c0.to_vec();
        let mut qa = Vec::new();
        for i in 0..m {
            let a_scale = quantize_row_i8(&a[i * k..(i + 1) * k], &mut qa);
            for (j, (qb, b_scale)) in columns.iter().enumerate() {
                c[i * n + j] += dot_i8_scalar(&qa, qb) as f32 * a_scale * b_scale;
            }
        }
        c
    }

    /// Runs the GEMM onto a copy of `c0` on the current thread's tier.
    fn run(a: &[f32], b: &QuantizedBtMatrix, c0: &[f32], m: usize) -> Vec<f32> {
        let mut c = c0.to_vec();
        gemm_a_bt_q8(a, b, &mut c, m, b.inner());
        c
    }

    /// Asserts every host tier quantizes `a: [m, k]` exactly as
    /// `quantize_row_i8` does (sign bit flipped on the VNNI tier), padding
    /// bytes included.
    fn assert_quantizers_match(a: &[f32], m: usize, k: usize) {
        let kp = k.next_multiple_of(KGROUP);
        let mut want = Vec::new();
        on_every_tier(Family::Int8, |tier| {
            let flip = if tier == Tier::Avx512 { -128i8 } else { 0 };
            // A dirty, oversized scratch: stale bytes must not leak through.
            let mut scratch = QGemmScratch {
                qa: vec![0x55; m * kp + 9],
                scales: vec![7.0; m + 2],
            };
            quantize_activations_into(a, m, k, tier, &mut scratch);
            assert_eq!(scratch.qa.len(), m * kp);
            assert_eq!(scratch.scales.len(), m);
            for i in 0..m {
                let scale = quantize_row_i8(&a[i * k..(i + 1) * k], &mut want);
                want.resize(kp, 0);
                let want: Vec<i8> = want.iter().map(|q| q ^ flip).collect();
                let got_scale = scratch.scales[i];
                assert_eq!(got_scale.to_bits(), scale.to_bits(), "{tier:?} scale");
                assert_eq!(
                    &scratch.qa[i * kp..(i + 1) * kp],
                    &want[..],
                    "{tier:?} row {i}"
                );
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Ragged shapes (zero-sized, 1×1×1, m ∉ 4ℕ, k ∉ 4ℕ, n ∉ 16ℕ and
        /// past one 64-column tile) with hostile activations and weights:
        /// every tier's output bits equal the `dot_i8_scalar` reference.
        #[test]
        fn every_tier_matches_the_scalar_dot_reference(
            m in 0usize..11,
            k in 0usize..140,
            n in 0usize..83,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = activations(&mut rng, m, k);
            let bf: Vec<f32> = (0..k * n)
                .map(|_| if rng.gen_range(0u32..24) == 0 { hostile_value(&mut rng) } else { rng.gen_range(-2.0f32..2.0) })
                .collect();
            let c0: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let b = QuantizedBtMatrix::from_col_major(&bf, k, n);
            let want = bits(&reference(&a, &bf, &c0, m, k, n));
            on_every_tier(Family::Int8, |tier| {
                assert_eq!(bits(&run(&a, &b, &c0, m)), want, "{tier:?} at ({m}, {k}, {n})");
            });
        }

        /// The vector activation quantizers equal `quantize_i8` element for
        /// element on hostile rows of every tail length.
        #[test]
        fn vector_quantizers_match_quantize_i8(
            m in 1usize..4,
            k in 1usize..200,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = activations(&mut rng, m, k);
            assert_quantizers_match(&a, m, k);
        }
    }

    #[test]
    fn serving_shapes_and_edge_shapes_match_the_reference_on_every_tier() {
        let shapes = [
            (1, 1, 1),
            (0, 5, 3),
            (3, 0, 5),
            (3, 5, 0),
            (4, 16, 16),
            (9, 67, 33),
            (5, 13, 64),
            (6, 64, 48),
            (7, 383, 128),
            (64, 64, 1),
        ];
        let mut rng = StdRng::seed_from_u64(77);
        for (m, k, n) in shapes {
            let a = activations(&mut rng, m, k);
            let bf = fill(k * n, 5);
            let c0 = fill(m * n, 6);
            let b = QuantizedBtMatrix::from_col_major(&bf, k, n);
            let want = bits(&reference(&a, &bf, &c0, m, k, n));
            on_every_tier(Family::Int8, |tier| {
                assert_eq!(
                    bits(&run(&a, &b, &c0, m)),
                    want,
                    "{tier:?} at ({m}, {k}, {n})"
                );
            });
        }
    }

    #[test]
    fn quantizers_round_half_away_from_zero_at_every_boundary() {
        // With 127.0 in the row the scale is exactly 1, so every n + 0.5 and
        // its two f32 neighbours land on the rounding decision itself.
        let mut row = vec![127.0f32];
        for n in 0..127 {
            let half = n as f32 + 0.5;
            for v in [half, half.next_down(), half.next_up(), n as f32] {
                row.extend([v, -v]);
            }
        }
        for k in [row.len(), row.len() - 1, row.len() - 2, row.len() - 3] {
            assert_quantizers_match(&row[..k], 1, k);
        }
        // And at a scale that is not a power of two.
        let scaled: Vec<f32> = row.iter().map(|v| v * 0.029_3).collect();
        assert_quantizers_match(&scaled, 1, scaled.len());
    }

    #[test]
    fn int8_simd_and_scalar_dots_are_bit_identical() {
        // Integer-valued operands whose largest magnitude is 127 quantize at
        // scale exactly 1, so a 1×len×1 GEMM returns the raw integer dot.
        for len in [1usize, 7, 15, 16, 17, 64, 200, 333] {
            let mut x: Vec<i8> = (0..len).map(|i| ((i * 37 + 11) % 255) as i8).collect();
            let mut y: Vec<i8> = (0..len).map(|i| ((i * 91 + 3) % 255) as i8).collect();
            for v in x.iter_mut().chain(&mut y) {
                *v = (*v).max(-127);
            }
            (x[0], y[0]) = (127, -127);
            let a: Vec<f32> = x.iter().map(|&v| f32::from(v)).collect();
            let bf: Vec<f32> = y.iter().map(|&v| f32::from(v)).collect();
            let b = QuantizedBtMatrix::from_col_major(&bf, len, 1);
            on_every_tier(Family::Int8, |tier| {
                let got = run(&a, &b, &[0.0], 1);
                assert_eq!(got[0], dot_i8_scalar(&x, &y) as f32, "{tier:?} len {len}");
            });
        }
    }

    #[test]
    fn q8_gemm_simd_matches_scalar_bit_identically() {
        for &(m, k, n) in &[(1, 1, 1), (3, 17, 5), (8, 64, 32), (5, 130, 9)] {
            let a = fill(m * k, 11);
            let b = QuantizedBtMatrix::from_col_major(&fill(k * n, 12), k, n);
            let c0 = vec![0.5f32; m * n];
            let scalar = with_tier(Tier::Scalar, || run(&a, &b, &c0, m));
            on_every_tier(Family::Int8, |tier| {
                assert_eq!(
                    bits(&run(&a, &b, &c0, m)),
                    bits(&scalar),
                    "{tier:?} ({m},{k},{n})"
                );
            });
        }
    }

    #[test]
    fn q8_gemm_approximates_the_f32_product() {
        let (m, k, n) = (6, 48, 24);
        let a = fill(m * k, 21);
        let bf = fill(k * n, 22);
        let b = QuantizedBtMatrix::from_col_major(&bf, k, n);
        let mut c = vec![0.0f32; m * n];
        gemm_a_bt_q8(&a, &b, &mut c, m, k);
        let mut expected = vec![0.0f32; m * n];
        gemm_a_bt(&a, &transpose(&bf, k, n), &mut expected, m, k, n);
        // Two symmetric int8 quantizations (weights + activations) over values
        // in [-1, 1): per-element error stays well under k * 2 * (1/127).
        let bound = k as f32 * 2.5 / 127.0;
        for (x, y) in c.iter().zip(&expected) {
            assert!((x - y).abs() <= bound, "{x} vs {y}");
        }
    }

    #[test]
    fn q8_gemm_matches_integer_reference_exactly() {
        // The kernel's contract is exact: quantize A and B, integer-dot, rescale.
        let (m, k, n) = (4, 33, 7);
        let a = fill(m * k, 31);
        let b = QuantizedBtMatrix::from_col_major(&fill(k * n, 32), k, n);
        let mut c = vec![0.0f32; m * n];
        gemm_a_bt_q8(&a, &b, &mut c, m, k);
        let mut qa = Vec::new();
        for i in 0..m {
            let a_scale = quantize_row_i8(&a[i * k..(i + 1) * k], &mut qa);
            for j in 0..n {
                let column: Vec<i8> = (0..k).map(|p| b.quantized(j, p)).collect();
                let dot = dot_i8_scalar(&qa, &column);
                let expected = dot as f32 * a_scale * b.scales[j];
                assert_eq!(c[i * n + j].to_bits(), expected.to_bits());
            }
        }
    }

    #[test]
    fn packed_matrices_report_reduced_resident_bytes() {
        let (k, n) = (64, 32);
        let bf = fill(k * n, 51);
        let f32_bytes = 4 * (k * n) as u64;
        let q8 = QuantizedBtMatrix::from_col_major(&bf, k, n);
        assert!(q8.resident_bytes() * 2 < f32_bytes, "int8 ≥ 2x smaller");
        assert_eq!((q8.cols(), q8.inner()), (n, k));
    }

    #[test]
    fn round_trip_operands_stay_within_the_per_row_bound() {
        let (k, n) = (16, 8);
        let bf = fill(k * n, 61);
        let dq = QuantizedBtMatrix::from_col_major(&bf, k, n).dequantize_col_major();
        for j in 0..n {
            let max_abs = (0..k).fold(0.0f32, |acc, p| acc.max(bf[p * n + j].abs()));
            for p in 0..k {
                let err = (bf[p * n + j] - dq[p * n + j]).abs();
                assert!(err <= max_abs / 254.0 * (1.0 + 1e-5));
            }
        }
    }

    #[test]
    fn degenerate_shapes_are_no_ops() {
        let b = QuantizedBtMatrix::from_col_major(&[], 0, 0);
        let mut c: Vec<f32> = Vec::new();
        on_every_tier(Family::Int8, |_| gemm_a_bt_q8(&[], &b, &mut c, 0, 0));
    }
}
