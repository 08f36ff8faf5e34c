//! FMA microkernels shared by the f32 GEMM family in [`crate::kernels`], one
//! per [`Tier`] (see [`crate::isa`] for the dispatch).
//!
//! # Bit-identity by construction
//!
//! All tiers execute the *same* floating-point operation sequence per output
//! element, so SIMD and scalar results are bit-identical on every shape — not
//! approximately equal:
//!
//! * **Broadcast kernels** (`A·B`, `Aᵀ·B` and the fused bias/ReLU variants):
//!   each output element is a single fused-multiply-add chain
//!   `acc = fma(a, b, acc)` over the reduction index in ascending order,
//!   seeded from the element's initial `C` value (or its bias). Vector width
//!   only changes how many *independent* chains run side by side, never the
//!   order within a chain, so 16-lane AVX-512, 8-lane AVX2 and scalar
//!   `f32::mul_add` code agree bit for bit — and so do any row/column tiling
//!   and the rayon row split, which merely regroup independent chains.
//! * **Dot kernels** (`A·Bᵀ`): every dot product uses a canonical 16-lane
//!   layout — lane `l` accumulates the products at positions `p ≡ l (mod 16)`
//!   with fused multiply-adds — followed by a fixed fold tree
//!   (`t8[l] = acc[l] + acc[l+8]`, `t4[l] = t8[l] + t8[l+4]`,
//!   `t2[l] = t4[l] + t4[l+2]`, `s = t2[0] + t2[1]`) and a scalar `mul_add`
//!   chain over the `len % 16` tail. AVX-512 keeps the 16 lanes in one
//!   register, AVX2 in two, the fallback in an array; the fold sequence is
//!   identical in all three.
//! * **Small-k dot kernels** (`A·Bᵀ` with `k < 32`, the vector tiers
//!   only): below 32 every canonical lane holds at most one product, so the
//!   layout can be transposed. `Bᵀ` is packed into a thread-local panel
//!   (once per call, or once per row band when the call splits across
//!   threads); a register then holds 16 (AVX-512) or 8 (AVX2)
//!   output *columns*, lane `l` of the canonical accumulator becomes the
//!   vector `fma(a[i,l], Bᵀ[l, j..], +0)` (an fma with `+0`, not a multiply:
//!   the two differ on a `-0` product), the fold tree runs element-wise
//!   across those vectors, the `mul_add` tail continues from the sum and
//!   `C += s` closes each dot — the same operations on every element as the
//!   scalar dot, without a horizontal fold per output. At the DMT tower's
//!   `dx = dy·Wᵀ` (`512 × 16 × 416`) this is ≈2× the dot kernel on a
//!   2-vCPU AVX-512 Xeon, where the fold's 15 adds per 16 products bound it.
//!
//! The fused ReLU epilogue is `if v > 0.0 { v } else { 0.0 }` — exactly the
//! semantics of `maxps(v, 0.0)` (NaN ⇒ `0.0`, `-0.0` ⇒ `+0.0`), so the vector
//! epilogue and the scalar one cannot disagree on special values.

use crate::isa::Tier;

/// Hints the CPU to pull the cache line at `&slice[index]` into L1 with read
/// intent. A pure performance hint: no-op when out of bounds or off x86-64,
/// and never changes results.
#[inline(always)]
pub fn prefetch_read<T>(slice: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if index < slice.len() {
            // SAFETY: the pointer is in bounds and prefetch has no
            // architectural effect — it cannot fault or alter data.
            unsafe {
                use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                _mm_prefetch::<_MM_HINT_T0>(slice.as_ptr().add(index).cast::<i8>());
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slice, index);
    }
}

/// [`prefetch_read`] for every 64-byte cache line `slice[start..start + len]`
/// touches, so a row that spans or straddles lines arrives whole. The same
/// pure hint: out-of-bounds lines are skipped.
#[inline(always)]
pub fn prefetch_read_span<T>(slice: &[T], start: usize, len: usize) {
    if len == 0 {
        return;
    }
    let step = (64 / std::mem::size_of::<T>().max(1)).max(1);
    let last = start.saturating_add(len - 1);
    let mut at = start;
    while at < last {
        prefetch_read(slice, at);
        at += step;
    }
    prefetch_read(slice, last);
}

/// One broadcast-style GEMM problem over a contiguous band of output rows:
///
/// `C[r, j] ⊕= Σ_p A[r·a_row_stride + p·a_step_stride] · B[p, j]`
///
/// With `a_row_stride = k, a_step_stride = 1` this is `C += A·B`; with
/// `a_row_stride = 1, a_step_stride = r_total` it is `C += Aᵀ·B` without
/// materializing the transpose. `bias: Some` switches `⊕=` from accumulate to
/// overwrite, seeding every row's chains from `bias[j]` (the fused linear
/// forward); `relu` applies the fused epilogue described in the module docs.
pub(crate) struct BroadcastGemm<'x> {
    /// Left operand, already offset to the first band row.
    pub a: &'x [f32],
    /// Element stride between consecutive output rows in `a`.
    pub a_row_stride: usize,
    /// Element stride between consecutive reduction steps in `a`.
    pub a_step_stride: usize,
    /// Reduction length.
    pub steps: usize,
    /// Right operand, row-major `[steps, n]`.
    pub b: &'x [f32],
    /// Output columns.
    pub n: usize,
    /// Output rows in this band.
    pub rows: usize,
    /// `Some(bias)` seeds chains from `bias[j]` and overwrites `C`;
    /// `None` seeds from the existing `C` contents and accumulates.
    pub bias: Option<&'x [f32]>,
    /// Apply the fused ReLU epilogue before writeback.
    pub relu: bool,
}

/// Scalar `mul_add` chains for output columns `j0..n` of every band row —
/// the exact per-element recipe the vector tiles implement, used for column
/// remainders by all tiers.
pub(crate) fn bgemm_scalar_cols(p: &BroadcastGemm<'_>, c: &mut [f32], j0: usize) {
    for i in 0..p.rows {
        for j in j0..p.n {
            let mut acc = match p.bias {
                Some(bias) => bias[j],
                None => c[i * p.n + j],
            };
            let mut ai = i * p.a_row_stride;
            let mut bj = j;
            for _ in 0..p.steps {
                acc = p.a[ai].mul_add(p.b[bj], acc);
                ai += p.a_step_stride;
                bj += p.n;
            }
            if p.relu {
                acc = if acc > 0.0 { acc } else { 0.0 };
            }
            c[i * p.n + j] = acc;
        }
    }
}

/// Portable tier: the same chains grouped in 16-wide lane arrays (which
/// auto-vectorize to FMA on hosts compiled with native features) with rows
/// processed in quads, plus the shared scalar column tail.
pub(crate) fn bgemm_scalar(p: &BroadcastGemm<'_>, c: &mut [f32]) {
    const L: usize = 16;
    let n = p.n;
    let w1 = n / L * L;

    /// One `R`-row × 16-lane tile: seeds from `C` or bias, runs the fma
    /// chains over the full reduction, applies the optional ReLU, stores.
    #[inline(always)]
    fn tile<const R: usize>(p: &BroadcastGemm<'_>, c: &mut [f32], i0: usize, j: usize) {
        const L: usize = 16;
        let n = p.n;
        let mut acc = [[0.0f32; L]; R];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            match p.bias {
                Some(bias) => acc_r.copy_from_slice(&bias[j..j + L]),
                None => acc_r.copy_from_slice(&c[(i0 + r) * n + j..(i0 + r) * n + j + L]),
            }
        }
        for step in 0..p.steps {
            let bt: &[f32; L] = p.b[step * n + j..step * n + j + L].try_into().unwrap();
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let av = p.a[(i0 + r) * p.a_row_stride + step * p.a_step_stride];
                for l in 0..L {
                    acc_r[l] = av.mul_add(bt[l], acc_r[l]);
                }
            }
        }
        for (r, acc_r) in acc.iter_mut().enumerate() {
            if p.relu {
                for v in acc_r.iter_mut() {
                    *v = if *v > 0.0 { *v } else { 0.0 };
                }
            }
            c[(i0 + r) * n + j..(i0 + r) * n + j + L].copy_from_slice(acc_r);
        }
    }

    let mut i = 0;
    while i + 4 <= p.rows {
        let mut j = 0;
        while j < w1 {
            tile::<4>(p, c, i, j);
            j += L;
        }
        i += 4;
    }
    while i < p.rows {
        let mut j = 0;
        while j < w1 {
            tile::<1>(p, c, i, j);
            j += L;
        }
        i += 1;
    }
    if w1 < n {
        bgemm_scalar_cols(p, c, w1);
    }
}

/// Canonical 16-lane fold: `t8[l] = acc[l] + acc[l+8]`, `t4[l] = t8[l] +
/// t8[l+4]`, `t2[l] = t4[l] + t4[l+2]`, `s = t2[0] + t2[1]` — the exact tree
/// the SIMD dot kernels implement with shuffles.
#[inline(always)]
pub(crate) fn fold16(acc: &[f32; 16]) -> f32 {
    let mut t8 = [0.0f32; 8];
    for l in 0..8 {
        t8[l] = acc[l] + acc[l + 8];
    }
    let mut t4 = [0.0f32; 4];
    for l in 0..4 {
        t4[l] = t8[l] + t8[l + 4];
    }
    let t2 = [t4[0] + t4[2], t4[1] + t4[3]];
    t2[0] + t2[1]
}

/// Canonical dot product (see module docs), portable tier.
#[inline]
pub(crate) fn dot16_scalar(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = [0.0f32; 16];
    let chunks = x.len() / 16 * 16;
    let mut p = 0;
    while p < chunks {
        let xt: &[f32; 16] = x[p..p + 16].try_into().unwrap();
        let yt: &[f32; 16] = y[p..p + 16].try_into().unwrap();
        for l in 0..16 {
            acc[l] = xt[l].mul_add(yt[l], acc[l]);
        }
        p += 16;
    }
    let mut s = fold16(&acc);
    while p < x.len() {
        s = x[p].mul_add(y[p], s);
        p += 1;
    }
    s
}

/// Four canonical dot products sharing the left operand, portable tier.
#[inline]
pub(crate) fn dot16x4_scalar(x: &[f32], ys: [&[f32]; 4]) -> [f32; 4] {
    let k = x.len();
    let mut acc = [[0.0f32; 16]; 4];
    let chunks = k / 16 * 16;
    let mut p = 0;
    while p < chunks {
        let xt: &[f32; 16] = x[p..p + 16].try_into().unwrap();
        for (q, y) in ys.iter().enumerate() {
            let yt: &[f32; 16] = y[p..p + 16].try_into().unwrap();
            for l in 0..16 {
                acc[q][l] = xt[l].mul_add(yt[l], acc[q][l]);
            }
        }
        p += 16;
    }
    let mut out = [0.0f32; 4];
    for (q, y) in ys.iter().enumerate() {
        let mut s = fold16(&acc[q]);
        let mut t = chunks;
        while t < k {
            s = x[t].mul_add(y[t], s);
            t += 1;
        }
        out[q] = s;
    }
    out
}

/// Portable-tier `C += A·Bᵀ` over a row band: four shared-operand canonical
/// dots per pass, then singles.
pub(crate) fn a_bt_scalar(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            let dots = dot16x4_scalar(
                arow,
                [
                    &b[j * k..(j + 1) * k],
                    &b[(j + 1) * k..(j + 2) * k],
                    &b[(j + 2) * k..(j + 3) * k],
                    &b[(j + 3) * k..(j + 4) * k],
                ],
            );
            for q in 0..4 {
                crow[j + q] += dots[q];
            }
            j += 4;
        }
        while j < n {
            crow[j] += dot16_scalar(arow, &b[j * k..(j + 1) * k]);
            j += 1;
        }
    }
}

/// Generates a broadcast-GEMM driver for one AVX ISA: `R`-row × `W`-vector
/// register tiles over the full reduction, single-vector and scalar column
/// tails, any row count. The chains per output element are exactly the
/// canonical ones, so every instantiation matches [`bgemm_scalar`] bit for
/// bit.
#[cfg(target_arch = "x86_64")]
macro_rules! bgemm_isa {
    ($modname:ident, $feat:literal, $vec:ident, $lanes:expr, $rmain:expr,
     $loadu:ident, $storeu:ident, $set1:ident, $fma:ident, $max:ident, $zero:ident) => {
        pub(crate) mod $modname {
            use super::{bgemm_scalar_cols, BroadcastGemm};
            use std::arch::x86_64::*;

            const LANES: usize = $lanes;
            const RMAIN: usize = $rmain;

            /// `R`-row × `W`-vector tile: seed, fma chains over the full
            /// reduction, optional fused ReLU, writeback.
            #[inline(always)]
            #[allow(clippy::too_many_arguments)] // raw-pointer kernel ABI: strides travel with their pointers
            unsafe fn tile<const R: usize, const W: usize>(
                a: *const f32,
                ars: usize,
                ass: usize,
                steps: usize,
                b: *const f32,
                n: usize,
                c: *mut f32,
                bias: *const f32,
                relu: bool,
            ) {
                let mut acc = [[$zero(); W]; R];
                for r in 0..R {
                    for w in 0..W {
                        let seed = if bias.is_null() {
                            c.add(r * n + w * LANES)
                        } else {
                            bias.add(w * LANES)
                        };
                        acc[r][w] = $loadu(seed);
                    }
                }
                let mut ap = a;
                let mut bp = b;
                for _ in 0..steps {
                    let mut bv = [$zero(); W];
                    for (w, slot) in bv.iter_mut().enumerate() {
                        *slot = $loadu(bp.add(w * LANES));
                    }
                    for r in 0..R {
                        let av = $set1(*ap.add(r * ars));
                        for w in 0..W {
                            acc[r][w] = $fma(av, bv[w], acc[r][w]);
                        }
                    }
                    ap = ap.add(ass);
                    bp = bp.add(n);
                }
                if relu {
                    let z = $zero();
                    for row in acc.iter_mut() {
                        for v in row.iter_mut() {
                            *v = $max(*v, z);
                        }
                    }
                }
                for r in 0..R {
                    for w in 0..W {
                        $storeu(c.add(r * n + w * LANES), acc[r][w]);
                    }
                }
            }

            /// Column sweep for one `R`-row group starting at row `i`.
            #[inline(always)]
            unsafe fn row_group<const R: usize>(p: &BroadcastGemm<'_>, c: *mut f32, i: usize) {
                let n = p.n;
                let a = p.a.as_ptr().add(i * p.a_row_stride);
                let crow = c.add(i * n);
                let b = p.b.as_ptr();
                let bias = p.bias.map_or(std::ptr::null(), <[f32]>::as_ptr);
                #[inline(always)]
                unsafe fn off(ptr: *const f32, j: usize) -> *const f32 {
                    if ptr.is_null() {
                        ptr
                    } else {
                        ptr.add(j)
                    }
                }
                let mut j = 0;
                while j + 2 * LANES <= n {
                    tile::<R, 2>(
                        a,
                        p.a_row_stride,
                        p.a_step_stride,
                        p.steps,
                        b.add(j),
                        n,
                        crow.add(j),
                        off(bias, j),
                        p.relu,
                    );
                    j += 2 * LANES;
                }
                if j + LANES <= n {
                    tile::<R, 1>(
                        a,
                        p.a_row_stride,
                        p.a_step_stride,
                        p.steps,
                        b.add(j),
                        n,
                        crow.add(j),
                        off(bias, j),
                        p.relu,
                    );
                }
            }

            /// Full band driver; the `n % LANES` column tail falls through to
            /// the shared scalar chains after the vector sweep.
            #[target_feature(enable = $feat)]
            pub(crate) unsafe fn bgemm(p: &BroadcastGemm<'_>, c: &mut [f32]) {
                let cptr = c.as_mut_ptr();
                let mut i = 0;
                while i + RMAIN <= p.rows {
                    row_group::<RMAIN>(p, cptr, i);
                    i += RMAIN;
                }
                while i + 2 <= p.rows {
                    row_group::<2>(p, cptr, i);
                    i += 2;
                }
                while i < p.rows {
                    row_group::<1>(p, cptr, i);
                    i += 1;
                }
                let w1 = p.n / LANES * LANES;
                if w1 < p.n {
                    bgemm_scalar_cols(p, c, w1);
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
bgemm_isa!(
    avx512_bgemm,
    "avx512f",
    __m512,
    16,
    12,
    _mm512_loadu_ps,
    _mm512_storeu_ps,
    _mm512_set1_ps,
    _mm512_fmadd_ps,
    _mm512_max_ps,
    _mm512_setzero_ps
);

#[cfg(target_arch = "x86_64")]
bgemm_isa!(
    avx2_bgemm,
    "avx2,fma",
    __m256,
    8,
    6,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_fmadd_ps,
    _mm256_max_ps,
    _mm256_setzero_ps
);

/// Runs one broadcast-GEMM band on `tier`, which came from
/// [`crate::isa::tier`] for the f32 family.
pub(crate) fn bgemm(tier: Tier, p: &BroadcastGemm<'_>, c: &mut [f32]) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa::tier` only returns a vector tier whose features the
        // host has.
        Tier::Avx512 => unsafe { avx512_bgemm::bgemm(p, c) },
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { avx2_bgemm::bgemm(p, c) },
        _ => bgemm_scalar(p, c),
    }
}

/// AVX-512 canonical dot kernels: one 16-lane register per accumulator.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512_dot {
    use std::arch::x86_64::*;

    /// The canonical fold tree on a 16-lane register (see module docs).
    #[inline(always)]
    unsafe fn fold512(acc: __m512) -> f32 {
        let lo = _mm512_castps512_ps256(acc);
        let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(acc)));
        super::fold256_tree(_mm256_add_ps(lo, hi))
    }

    /// `RA`-row × `RB`-column dot tile: shared operand loads, one canonical
    /// 16-lane accumulator per output, fold + scalar tail per output.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)] // the ra/rb indices address two arrays in lockstep
    unsafe fn tile<const RA: usize, const RB: usize>(
        a: *const f32,
        a_stride: usize,
        b: *const f32,
        b_stride: usize,
        len: usize,
        c: *mut f32,
        c_stride: usize,
    ) {
        let mut acc = [[_mm512_setzero_ps(); RB]; RA];
        let chunks = len / 16 * 16;
        let mut p = 0;
        while p < chunks {
            let mut xv = [_mm512_setzero_ps(); RA];
            for (ra, slot) in xv.iter_mut().enumerate() {
                *slot = _mm512_loadu_ps(a.add(ra * a_stride + p));
            }
            for rb in 0..RB {
                let yv = _mm512_loadu_ps(b.add(rb * b_stride + p));
                for ra in 0..RA {
                    acc[ra][rb] = _mm512_fmadd_ps(xv[ra], yv, acc[ra][rb]);
                }
            }
            p += 16;
        }
        for ra in 0..RA {
            for rb in 0..RB {
                let mut s = fold512(acc[ra][rb]);
                let mut q = chunks;
                while q < len {
                    s = (*a.add(ra * a_stride + q)).mul_add(*b.add(rb * b_stride + q), s);
                    q += 1;
                }
                *c.add(ra * c_stride + rb) += s;
            }
        }
    }

    /// `C += A·Bᵀ` band driver, 4×4 main tiles.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn a_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        #[inline(always)]
        unsafe fn cols<const RA: usize>(
            ap: *const f32,
            bp: *const f32,
            cp: *mut f32,
            i: usize,
            k: usize,
            n: usize,
        ) {
            let mut j = 0;
            while j + 4 <= n {
                tile::<RA, 4>(ap.add(i * k), k, bp.add(j * k), k, k, cp.add(i * n + j), n);
                j += 4;
            }
            while j < n {
                tile::<RA, 1>(ap.add(i * k), k, bp.add(j * k), k, k, cp.add(i * n + j), n);
                j += 1;
            }
        }
        let mut i = 0;
        while i + 4 <= m {
            cols::<4>(ap, bp, cp, i, k, n);
            i += 4;
        }
        while i < m {
            cols::<1>(ap, bp, cp, i, k, n);
            i += 1;
        }
    }
}

/// Shared 8-lane fold: `t4 = lo128 + hi128`, `t2[l] = t4[l] + t4[l+2]`,
/// `s = t2[0] + t2[1]` — the lower half of the canonical 16-lane tree.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn fold256_tree(t8: std::arch::x86_64::__m256) -> f32 {
    use std::arch::x86_64::*;
    let t4 = _mm_add_ps(_mm256_castps256_ps128(t8), _mm256_extractf128_ps::<1>(t8));
    let t2 = _mm_add_ps(t4, _mm_movehl_ps(t4, t4));
    let s = _mm_add_ss(t2, _mm_shuffle_ps::<1>(t2, t2));
    _mm_cvtss_f32(s)
}

/// AVX2 canonical dot kernels: the 16 lanes live in a register pair
/// (`lo` = lanes 0–7, `hi` = lanes 8–15), so `lo + hi` *is* the first fold
/// level and the rest of the tree matches AVX-512 exactly.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2_dot {
    use std::arch::x86_64::*;

    /// `RB`-column dot tile for one `A` row: a lane-pair accumulator per
    /// output, canonical fold + scalar tail per output.
    #[inline(always)]
    unsafe fn tile<const RB: usize>(
        x: *const f32,
        b: *const f32,
        b_stride: usize,
        len: usize,
        c: *mut f32,
    ) {
        let mut lo = [_mm256_setzero_ps(); RB];
        let mut hi = [_mm256_setzero_ps(); RB];
        let chunks = len / 16 * 16;
        let mut p = 0;
        while p < chunks {
            let xl = _mm256_loadu_ps(x.add(p));
            let xh = _mm256_loadu_ps(x.add(p + 8));
            for rb in 0..RB {
                let yl = _mm256_loadu_ps(b.add(rb * b_stride + p));
                let yh = _mm256_loadu_ps(b.add(rb * b_stride + p + 8));
                lo[rb] = _mm256_fmadd_ps(xl, yl, lo[rb]);
                hi[rb] = _mm256_fmadd_ps(xh, yh, hi[rb]);
            }
            p += 16;
        }
        for rb in 0..RB {
            let mut s = super::fold256_tree(_mm256_add_ps(lo[rb], hi[rb]));
            let mut q = chunks;
            while q < len {
                s = (*x.add(q)).mul_add(*b.add(rb * b_stride + q), s);
                q += 1;
            }
            *c.add(rb) += s;
        }
    }

    /// `C += A·Bᵀ` band driver, 1×4 main tiles.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn a_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        for i in 0..m {
            let mut j = 0;
            while j + 4 <= n {
                tile::<4>(ap.add(i * k), bp.add(j * k), k, k, cp.add(i * n + j));
                j += 4;
            }
            while j < n {
                tile::<1>(ap.add(i * k), bp.add(j * k), k, k, cp.add(i * n + j));
                j += 1;
            }
        }
    }
}

/// Reduction lengths below this take the lane-transposed `A·Bᵀ` kernels
/// ([`small_k_isa`]): each canonical lane then holds at most one product.
/// At `k ≥ 32` a lane chains two or more fmas and the dot kernels above win.
pub(crate) const SMALL_K: usize = 32;

/// Column stride of the packed `Bᵀ` panel: `n` rounded up to a whole
/// AVX-512 vector, so every tile loads full vectors (the pad is zeros).
#[cfg(target_arch = "x86_64")]
fn packed_stride(n: usize) -> usize {
    n.div_ceil(16) * 16
}

#[cfg(target_arch = "x86_64")]
thread_local! {
    /// The small-k kernels' packed `Bᵀ` panel, `[k, packed_stride(n)]`.
    /// Capacity is kept across calls on one thread, so serial steady-state
    /// calls allocate nothing (the rayon stand-in's split runs each band on a
    /// fresh thread, which allocates its own panel).
    static PACKED_BT: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Packs row-major `B: [n, k]` as `Bᵀ` into this thread's panel and runs
/// `f(panel)` on it.
#[cfg(target_arch = "x86_64")]
fn with_packed_bt<R>(b: &[f32], k: usize, n: usize, f: impl FnOnce(&[f32]) -> R) -> R {
    PACKED_BT.with(|cell| {
        let mut bt = cell.borrow_mut();
        let stride = packed_stride(n);
        bt.clear();
        bt.resize(k * stride, 0.0);
        for (p, dst) in bt.chunks_exact_mut(stride).enumerate() {
            for (d, &v) in dst.iter_mut().zip(b[p..].iter().step_by(k)) {
                *d = v;
            }
        }
        f(&bt)
    })
}

/// Generates the small-k (`k <` [`SMALL_K`]) `C += A·Bᵀ` kernel for one AVX
/// ISA. The canonical layout is transposed: instead of one dot per register,
/// a register holds `LANES` output columns and lane `l` of the canonical
/// 16-lane accumulator becomes the product `fma(a[i,l], Bᵀ[l, j..], +0)` —
/// with `k < 32` no lane chains a second fma. The `t8/t4/t2` fold tree then
/// runs element-wise across registers, the `mul_add` tail continues from its
/// sum, and `C += s` closes the dot, so every output element sees exactly the
/// operation sequence of [`a_bt_scalar`]. (`fma(x, y, +0)`, not `x·y`: the
/// two differ when the product is `-0`.)
#[cfg(target_arch = "x86_64")]
macro_rules! small_k_isa {
    ($modname:ident, $feat:literal, $vec:ident, $lanes:expr, $loadu:ident, $storeu:ident,
     $set1:ident, $fma:ident, $add:ident, $zero:ident, $load_part:path, $store_part:path) => {
        pub(crate) mod $modname {
            use std::arch::x86_64::*;

            const LANES: usize = $lanes;

            // The three helpers below read `a[p]` and `bt[p·stride ..][..LANES]`
            // for every `p < k` they touch; `a_bt` keeps both in bounds.

            /// Lane `p` of the canonical accumulator for `LANES` columns:
            /// `fma(a[p], Bᵀ[p, ·], +0)`.
            #[inline(always)]
            unsafe fn product(a: *const f32, bt: *const f32, stride: usize, p: usize) -> $vec {
                $fma($set1(*a.add(p)), $loadu(bt.add(p * stride)), $zero())
            }

            /// `t4[q] = t8[q] + t8[q+4]` with `t8[l] = acc[l] + acc[l+8]`.
            #[inline(always)]
            unsafe fn t4(a: *const f32, bt: *const f32, stride: usize, q: usize) -> $vec {
                let lo = $add(product(a, bt, stride, q), product(a, bt, stride, q + 8));
                let hi = $add(
                    product(a, bt, stride, q + 4),
                    product(a, bt, stride, q + 12),
                );
                $add(lo, hi)
            }

            /// The canonical dots of `a[0..k]` against `LANES` packed
            /// columns starting at `bt`.
            #[inline(always)]
            unsafe fn dots(a: *const f32, k: usize, bt: *const f32, stride: usize) -> $vec {
                let (mut s, mut p) = ($zero(), 0);
                if k >= 16 {
                    let t2_0 = $add(t4(a, bt, stride, 0), t4(a, bt, stride, 2));
                    let t2_1 = $add(t4(a, bt, stride, 1), t4(a, bt, stride, 3));
                    s = $add(t2_0, t2_1);
                    p = 16;
                }
                while p < k {
                    s = $fma($set1(*a.add(p)), $loadu(bt.add(p * stride)), s);
                    p += 1;
                }
                s
            }

            /// `C += A·Bᵀ` over a row band, reading the packed panel `bt`
            /// (`[k, stride]`, see `with_packed_bt`): one row × `LANES`
            /// columns per tile, the ragged last tile masked.
            ///
            /// # Safety
            ///
            /// The host must support `$feat`; `a` must hold `m·k` and `c`
            /// `m·n` elements, and `bt` must be the packed panel of `B`,
            /// `k · packed_stride(n)` elements (every read and write stays
            /// inside those three).
            #[target_feature(enable = $feat)]
            pub(crate) unsafe fn a_bt(
                a: &[f32],
                bt: &[f32],
                c: &mut [f32],
                m: usize,
                k: usize,
                n: usize,
            ) {
                debug_assert!(k < super::SMALL_K);
                let stride = super::packed_stride(n);
                debug_assert!(a.len() >= m * k && c.len() >= m * n);
                debug_assert_eq!(bt.len(), k * stride);
                let (ap, bp, cp) = (a.as_ptr(), bt.as_ptr(), c.as_mut_ptr());
                for i in 0..m {
                    let (arow, crow) = (ap.add(i * k), cp.add(i * n));
                    let mut j = 0;
                    while j + LANES <= n {
                        let s = dots(arow, k, bp.add(j), stride);
                        let cv = crow.add(j);
                        $storeu(cv, $add($loadu(cv), s));
                        j += LANES;
                    }
                    if j < n {
                        let s = dots(arow, k, bp.add(j), stride);
                        let cv = crow.add(j);
                        $store_part(cv, 0, n - j, $add($load_part(cv, n - j), s));
                    }
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
small_k_isa!(
    avx512_small_k,
    "avx512f",
    __m512,
    16,
    _mm512_loadu_ps,
    _mm512_storeu_ps,
    _mm512_set1_ps,
    _mm512_fmadd_ps,
    _mm512_add_ps,
    _mm512_setzero_ps,
    crate::isa::lanes::load16,
    crate::isa::lanes::store16
);

#[cfg(target_arch = "x86_64")]
small_k_isa!(
    avx2_small_k,
    "avx2,fma",
    __m256,
    8,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_fmadd_ps,
    _mm256_add_ps,
    _mm256_setzero_ps,
    crate::isa::lanes::load8,
    crate::isa::lanes::store8
);

/// Runs `C += A·Bᵀ` over a row band on `tier`, which came from
/// [`crate::isa::tier`] for the f32 family. On the vector tiers `k <`
/// [`SMALL_K`] takes the lane-transposed kernels; the results are the same
/// bits either way.
pub(crate) fn a_bt(tier: Tier, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY (this arm and the three below): `isa::tier` only returns a
        // vector tier whose features the host has; the packed panel is
        // `[k, packed_stride(n)]`, the shape the small-k kernels read.
        Tier::Avx512 if (1..SMALL_K).contains(&k) => with_packed_bt(b, k, n, |bt| unsafe {
            avx512_small_k::a_bt(a, bt, c, m, k, n)
        }),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { avx512_dot::a_bt(a, b, c, m, k, n) },
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 if (1..SMALL_K).contains(&k) => with_packed_bt(b, k, n, |bt| unsafe {
            avx2_small_k::a_bt(a, bt, c, m, k, n)
        }),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { avx2_dot::a_bt(a, b, c, m, k, n) },
        _ => a_bt_scalar(a, b, c, m, k, n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{self, Family};
    use crate::kernels::gemm_a_bt;
    use crate::testutil::fill;

    #[test]
    fn tier_detection_is_stable_and_named() {
        assert_eq!(isa::tier(Family::F32), isa::tier(Family::F32));
        assert!(!isa::tier(Family::F32).name().is_empty());
    }

    #[test]
    fn dispatched_dots_match_scalar_bit_identically() {
        // `C += A·Bᵀ` at 1×len×1 is one canonical dot added to `C`, at
        // 1×len×4 the four-wide tile.
        isa::on_every_tier(Family::F32, |tier| {
            for len in [0usize, 1, 5, 15, 16, 17, 31, 32, 100, 257] {
                let x = fill(len, 7);
                let y = fill(len, 8);
                let mut dot = [0.0f32];
                gemm_a_bt(&x, &y, &mut dot, 1, len, 1);
                let want = 0.0 + dot16_scalar(&x, &y);
                assert_eq!(dot[0].to_bits(), want.to_bits(), "{tier:?} len {len}");
                let panel = fill(4 * len, 9);
                let mut dots = [0.0f32; 4];
                gemm_a_bt(&x, &panel, &mut dots, 1, len, 4);
                let rows: [&[f32]; 4] = std::array::from_fn(|q| &panel[q * len..(q + 1) * len]);
                let want = dot16x4_scalar(&x, rows);
                for q in 0..4 {
                    let want = 0.0 + want[q];
                    assert_eq!(
                        dots[q].to_bits(),
                        want.to_bits(),
                        "{tier:?} len {len} q {q}"
                    );
                }
            }
        });
    }

    #[test]
    fn prefetch_is_safe_on_any_index() {
        let data = [1.0f32; 8];
        prefetch_read(&data, 0);
        prefetch_read(&data, 7);
        prefetch_read(&data, 8); // out of bounds: no-op
        prefetch_read::<f32>(&[], 0);
        prefetch_read_span(&data, 0, 8);
        prefetch_read_span(&data, 6, 5); // runs past the end: tail skipped
        prefetch_read_span(&data, 3, 0);
        prefetch_read_span::<()>(&[(); 4], 0, 4); // zero-sized elements
    }
}
