//! The one SIMD dispatch layer of this crate: one instruction-set probe, one
//! tier type, one table of what each kernel family needs per tier, and one
//! scoped override for tests.
//!
//! # The table
//!
//! | family                               | [`Tier::Avx512`] needs                | [`Tier::Avx2`] needs |
//! |--------------------------------------|---------------------------------------|----------------------|
//! | [`Family::F32`] (`A·B`, `Aᵀ·B`, `A·Bᵀ`) | `avx512f` + `fma`                    | `avx2` + `fma`       |
//! | [`Family::Int8`]                     | `avx512f` + `avx512bw` + `avx512vnni` | `avx2`               |
//! | [`Family::Pairwise`]                 | `avx512f`                             | `avx2`               |
//! | [`Family::F16`] (the f16 codec)      | `f16c`                                | `f16c`               |
//!
//! [`Tier::Scalar`] needs nothing. The f16 codec has a single vector path,
//! which both vector tiers take.
//!
//! # Dispatch
//!
//! Every public kernel entry point calls [`tier`] **once** and passes the
//! result down explicitly, into rayon bands too (a worker thread does not see
//! the caller's thread-local). [`tier`] returns the fastest tier the host
//! supports for the family, or the tier forced by an enclosing [`with_tier`].
//! Every tier of every family is bit-identical to its scalar tier by
//! construction, so forcing one changes which instructions run, never a
//! result; it exists so tests can run each tier on one host. It
//! is not reachable from configuration, environment or command line.

use std::cell::Cell;
use std::sync::OnceLock;

/// The x86-64 features the kernels use, probed once per process (all `false`
/// off x86-64).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[allow(clippy::struct_excessive_bools)] // one flag per CPU feature
pub struct Isa {
    /// AVX-512 Foundation.
    pub avx512f: bool,
    /// AVX-512 byte/word instructions.
    pub avx512bw: bool,
    /// AVX-512 vector neural-network instructions (`vpdpbusd`).
    pub avx512vnni: bool,
    /// AVX2.
    pub avx2: bool,
    /// Fused multiply-add.
    pub fma: bool,
    /// Half-precision conversions (`vcvtph2ps` / `vcvtps2ph`).
    pub f16c: bool,
}

impl Isa {
    /// This host's features (probed on the first call).
    #[must_use]
    pub fn host() -> Isa {
        static HOST: OnceLock<Isa> = OnceLock::new();
        *HOST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                Isa {
                    avx512f: std::is_x86_feature_detected!("avx512f"),
                    avx512bw: std::is_x86_feature_detected!("avx512bw"),
                    avx512vnni: std::is_x86_feature_detected!("avx512vnni"),
                    avx2: std::is_x86_feature_detected!("avx2"),
                    fma: std::is_x86_feature_detected!("fma"),
                    f16c: std::is_x86_feature_detected!("f16c"),
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            Isa::default()
        })
    }

    /// Whether these features run `family` at `tier` (the module-level table).
    #[must_use]
    pub(crate) fn supports(self, family: Family, tier: Tier) -> bool {
        match (tier, family) {
            (Tier::Scalar, _) => true,
            (Tier::Avx512, Family::F32) => self.avx512f && self.fma,
            (Tier::Avx2, Family::F32) => self.avx2 && self.fma,
            (Tier::Avx512, Family::Int8) => self.avx512f && self.avx512bw && self.avx512vnni,
            (Tier::Avx2, Family::Int8) => self.avx2,
            (Tier::Avx512, Family::Pairwise) => self.avx512f,
            (Tier::Avx2, Family::Pairwise) => self.avx2,
            (_, Family::F16) => self.f16c,
        }
    }

    /// The fastest tier these features run `family` at.
    #[must_use]
    pub(crate) fn best(self, family: Family) -> Tier {
        Tier::ALL
            .into_iter()
            .find(|&tier| self.supports(family, tier))
            .unwrap_or(Tier::Scalar)
    }
}

/// A group of kernels that share one feature requirement per tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// The f32 GEMMs of [`crate::kernels`]: broadcast `A·B` / `Aᵀ·B` (fused
    /// bias and ReLU included) and the `A·Bᵀ` dots.
    F32,
    /// The int8 GEMM of [`crate::qgemm`] and its activation quantizers.
    Int8,
    /// The pairwise-dot kernels of [`crate::pairwise`].
    Pairwise,
    /// The bulk f16 ↔ f32 codec of [`crate::quant`].
    F16,
}

/// The instruction set a kernel runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// 512-bit vectors.
    Avx512,
    /// 256-bit vectors.
    Avx2,
    /// Portable code, every kernel's bit-exact reference.
    Scalar,
}

impl Tier {
    /// Every tier, fastest first.
    pub const ALL: [Tier; 3] = [Tier::Avx512, Tier::Avx2, Tier::Scalar];

    /// Short lower-case name (`avx512`, `avx2`, `scalar`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::Avx512 => "avx512",
            Tier::Avx2 => "avx2",
            Tier::Scalar => "scalar",
        }
    }
}

thread_local! {
    static FORCED: Cell<Option<Tier>> = const { Cell::new(None) };
}

/// The tier `family` runs at on this thread: the one forced by an enclosing
/// [`with_tier`], else the host's fastest.
///
/// # Panics
///
/// Panics if the forced tier needs features this host lacks for `family`;
/// the kernel's instructions are never executed.
#[must_use]
pub fn tier(family: Family) -> Tier {
    let isa = Isa::host();
    match FORCED.with(Cell::get) {
        None => isa.best(family),
        Some(forced) => {
            assert!(
                isa.supports(family, forced),
                "{family:?} kernels cannot run at forced tier {forced:?} on this host ({isa:?})"
            );
            forced
        }
    }
}

/// Runs `f` with every kernel it calls on this thread forced onto `tier`,
/// restoring the previous setting afterwards (also on unwind). Results do not
/// change — every tier is bit-identical — only the instructions that compute
/// them.
pub fn with_tier<R>(tier: Tier, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Tier>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|forced| forced.set(self.0));
        }
    }
    let _restore = Restore(FORCED.with(|forced| forced.replace(Some(tier))));
    f()
}

/// One line naming the tier every family dispatches to on this host, e.g.
/// `kernel tiers: f32 avx512, int8 avx512, pairwise avx512, f16 f16c` (the
/// f16 codec has one vector path, named after its feature).
#[must_use]
pub fn tier_line() -> String {
    let isa = Isa::host();
    let f16 = match isa.best(Family::F16) {
        Tier::Scalar => "scalar",
        _ => "f16c",
    };
    format!(
        "kernel tiers: f32 {}, int8 {}, pairwise {}, f16 {f16}",
        isa.best(Family::F32).name(),
        isa.best(Family::Int8).name(),
        isa.best(Family::Pairwise).name(),
    )
}

/// Runs `f` once per tier the host supports for `family` (fastest first,
/// scalar last), each call inside [`with_tier`] — the one forced-tier
/// harness every kernel family's oracle tests go through.
#[cfg(test)]
pub(crate) fn on_every_tier(family: Family, mut f: impl FnMut(Tier)) {
    let isa = Isa::host();
    for tier in Tier::ALL.into_iter().filter(|&t| isa.supports(family, t)) {
        with_tier(tier, || f(tier));
    }
}

/// Masked partial-vector loads and stores shared by the kernel families:
/// lanes `0..n` (or `lo..hi`) of one vector move, the rest are neither read
/// nor written.
#[cfg(target_arch = "x86_64")]
pub(crate) mod lanes {
    use std::arch::x86_64::*;

    /// AVX-512 mask selecting lanes `lo..hi`.
    #[inline(always)]
    pub(crate) fn mask16(lo: usize, hi: usize) -> __mmask16 {
        debug_assert!(lo <= hi && hi <= 16);
        (((1u32 << hi) - 1) & !((1u32 << lo) - 1)) as __mmask16
    }

    /// Loads `src[0..n]` into lanes `0..n`, zeros above.
    ///
    /// # Safety
    ///
    /// Requires `avx512f`; `src[0..n]` must be readable and `n <= 16`.
    #[inline(always)]
    pub(crate) unsafe fn load16(src: *const f32, n: usize) -> __m512 {
        _mm512_maskz_loadu_ps(mask16(0, n), src)
    }

    /// Stores lanes `lo..hi` of `v` to `dst[0..hi - lo]`.
    ///
    /// # Safety
    ///
    /// Requires `avx512f`; `dst[0..hi - lo]` must be writable and
    /// `lo <= hi <= 16`.
    #[inline(always)]
    pub(crate) unsafe fn store16(dst: *mut f32, lo: usize, hi: usize, v: __m512) {
        // Lane `lo` lands on `dst`; masked-off lanes are not accessed, so the
        // (wrapping) pointer below `dst` is never dereferenced.
        _mm512_mask_storeu_ps(dst.wrapping_sub(lo), mask16(lo, hi), v);
    }

    /// AVX2 mask, all-ones in lanes `lo..hi`.
    ///
    /// # Safety
    ///
    /// Requires `avx2`.
    #[inline(always)]
    pub(crate) unsafe fn mask8(lo: usize, hi: usize) -> __m256i {
        debug_assert!(lo <= hi && hi <= 8);
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_and_si256(
            _mm256_cmpgt_epi32(lane, _mm256_set1_epi32(lo as i32 - 1)),
            _mm256_cmpgt_epi32(_mm256_set1_epi32(hi as i32), lane),
        )
    }

    /// Loads `src[0..n]` into lanes `0..n`, zeros above.
    ///
    /// # Safety
    ///
    /// Requires `avx2`; `src[0..n]` must be readable and `n <= 8`.
    #[inline(always)]
    pub(crate) unsafe fn load8(src: *const f32, n: usize) -> __m256 {
        _mm256_maskload_ps(src, mask8(0, n))
    }

    /// Stores lanes `lo..hi` of `v` to `dst[0..hi - lo]`.
    ///
    /// # Safety
    ///
    /// Requires `avx2`; `dst[0..hi - lo]` must be writable and
    /// `lo <= hi <= 8`.
    #[inline(always)]
    pub(crate) unsafe fn store8(dst: *mut f32, lo: usize, hi: usize, v: __m256) {
        // As in `store16`: only lanes `lo..hi` are written, starting at `dst`.
        _mm256_maskstore_ps(dst.wrapping_sub(lo), mask8(lo, hi), v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_runs_every_family_and_best_is_supported() {
        for family in [Family::F32, Family::Int8, Family::Pairwise, Family::F16] {
            assert!(Isa::default().supports(family, Tier::Scalar));
            assert_eq!(Isa::default().best(family), Tier::Scalar);
            assert!(Isa::host().supports(family, Isa::host().best(family)));
        }
        assert!(tier_line().starts_with("kernel tiers: f32 "));
    }

    #[test]
    fn with_tier_is_scoped_and_restored_on_unwind() {
        let best = Isa::host().best(Family::F32);
        with_tier(Tier::Scalar, || {
            assert_eq!(tier(Family::F32), Tier::Scalar);
            assert_eq!(with_tier(best, || tier(Family::F32)), best);
            assert_eq!(tier(Family::F32), Tier::Scalar);
        });
        assert_eq!(tier(Family::F32), best);
        let unwound = std::panic::catch_unwind(|| with_tier(Tier::Scalar, || panic!("inside")));
        assert!(unwound.is_err());
        assert_eq!(tier(Family::F32), best);
    }

    #[test]
    fn forcing_an_unsupported_tier_panics_at_dispatch() {
        let isa = Isa::host();
        for family in [Family::F32, Family::Int8, Family::Pairwise, Family::F16] {
            for forced in Tier::ALL {
                let outcome = std::panic::catch_unwind(|| with_tier(forced, || tier(family)));
                assert_eq!(
                    outcome.is_ok(),
                    isa.supports(family, forced),
                    "{family:?} {forced:?}"
                );
            }
        }
    }
}
