//! Storage precisions and scalar quantization primitives.
//!
//! PR 4 quantized the *wire* (`dmt_comm::codec` packs collective payloads into
//! fp16/int8 words); this module pushes the same two formats into *storage and
//! compute*: embedding tables held as int8 or fp16 and dequantized on the fly
//! inside the hot loops, and dense-layer weights at int8 (an fp16 dense weight
//! is its f16-rounded f32 copy, run through the f32 kernels). The scalar
//! conversions here are the canonical definitions — the wire codec delegates
//! its half-precision conversion to [`f32_to_f16_bits`] / [`f16_bits_to_f32`]
//! so wire words and stored words are bit-compatible by construction.
//!
//! Two formats, two error models (identical to the wire codec's):
//!
//! * **fp16** — IEEE 754 binary16, round to nearest even. Round-trip error is
//!   `|x| · 2⁻¹¹ + 2⁻²⁵` for finite in-range inputs; values already
//!   representable in half precision (including everything that *came from* an
//!   fp16 word) round-trip bit-exactly.
//! * **int8** — symmetric linear quantization with a per-row scale
//!   `max_abs / 127`, rounding half away from zero. Round-trip error is
//!   bounded by `max_abs / 254` per row.

#[cfg(target_arch = "x86_64")]
use crate::isa::{self, Family, Tier};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Numeric precision of stored model state (embedding rows, dense weights).
///
/// This is the storage/compute twin of `dmt_comm::codec::WireFormat` (which
/// packs bytes *in flight*): `dmt-serve` exposes it as `ComputePrecision` and
/// threads it through the whole serving forward pass — table shards, the
/// hot-row cache, and the tower/dense GEMMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Precision {
    /// 4 bytes per element: full single precision, the training format.
    #[default]
    F32,
    /// 2 bytes per element: IEEE 754 binary16 words, decoded on access.
    Fp16,
    /// 1 byte per element plus one `f32` scale per row: symmetric linear
    /// quantization with per-row scale `max_abs / 127`.
    Int8,
}

impl Precision {
    /// Whether this precision stores plain `f32` (no decode on access).
    #[must_use]
    pub fn is_f32(self) -> bool {
        self == Precision::F32
    }

    /// Bytes of payload storage for `elements` values at this precision,
    /// excluding per-row scale words (int8 adds 4 bytes per row on top).
    #[must_use]
    pub fn payload_bytes(self, elements: usize) -> u64 {
        match self {
            Precision::F32 => 4 * elements as u64,
            Precision::Fp16 => 2 * elements as u64,
            Precision::Int8 => elements as u64,
        }
    }

    /// Worst-case absolute round-trip error for one stored value in a row whose
    /// largest finite magnitude is `max_abs` (same bounds as the wire codec).
    #[must_use]
    pub fn max_abs_error(self, max_abs: f32) -> f32 {
        match self {
            Precision::F32 => 0.0,
            // Relative 2^-11 in the normal range plus the subnormal quantum.
            Precision::Fp16 => max_abs / 2048.0 + f32::from_bits(0x3300_0000), // 2^-25
            Precision::Int8 => max_abs / 254.0,
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Precision::F32 => "f32",
            Precision::Fp16 => "fp16",
            Precision::Int8 => "int8",
        })
    }
}

/// Converts an `f32` to IEEE 754 binary16 bits, rounding to nearest even.
/// Overflow saturates to ±inf; NaN stays NaN (payload truncated, kept non-zero).
#[must_use]
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf / NaN: preserve the class; keep a NaN's payload non-zero.
        if man == 0 {
            return sign | 0x7c00;
        }
        let payload = ((man >> 13) & 0x3ff) as u16;
        return sign | 0x7c00 | if payload == 0 { 1 } else { payload };
    }
    let half_exp = exp - 127 + 15;
    if half_exp >= 0x1f {
        return sign | 0x7c00; // overflow -> inf
    }
    let (mantissa, shift) = if half_exp <= 0 {
        if half_exp < -10 {
            return sign; // underflow -> signed zero
        }
        // Subnormal: shift the (implicit-bit-restored) mantissa into place.
        (man | 0x0080_0000, (14 - half_exp) as u32)
    } else {
        (man, 13u32)
    };
    let kept = mantissa >> shift;
    let rem = mantissa & ((1u32 << shift) - 1);
    let half = 1u32 << (shift - 1);
    let round_up = rem > half || (rem == half && (kept & 1) == 1);
    let body = if half_exp <= 0 {
        kept as u16
    } else {
        ((half_exp as u16) << 10) | (kept & 0x3ff) as u16
    };
    // A carry out of the mantissa lands in the exponent, which is exactly the
    // IEEE rounding behaviour (up to the next binade, or to inf).
    sign | body.wrapping_add(u16::from(round_up))
}

/// Converts IEEE 754 binary16 bits back to `f32` (exact).
///
/// Branch-free so bulk decodes ([`decode_row_f16_into`]) auto-vectorize:
/// normals and subnormals share one path — shift the magnitude into f32
/// position and rescale by 2¹¹² (a power-of-two multiply, exact in both
/// regimes) — and the inf/NaN patch is a select, not a branch.
#[inline]
#[must_use]
pub fn f16_bits_to_f32(half: u16) -> f32 {
    let sign = u32::from(half & 0x8000) << 16;
    let mag = u32::from(half & 0x7fff);
    let finite = (f32::from_bits(mag << 13) * f32::from_bits(0x7780_0000)).to_bits(); // × 2^112
    let special = 0x7f80_0000 | ((mag & 0x3ff) << 13);
    let body = if mag >= 0x7c00 { special } else { finite };
    f32::from_bits(sign | body)
}

/// Largest finite magnitude among `values` (`0.0` when there is none): NaN
/// and ±inf never set an int8 scale.
#[must_use]
pub fn finite_max_abs(values: impl IntoIterator<Item = f32>) -> f32 {
    values
        .into_iter()
        .filter(|v| v.is_finite())
        .fold(0.0f32, |acc, v| acc.max(v.abs()))
}

/// Symmetric int8 scale for a row whose largest finite magnitude is `max_abs`
/// (`max_abs / 127`, or `1.0` for an all-zero row so dequantization is exact).
#[must_use]
pub fn int8_scale(max_abs: f32) -> f32 {
    if max_abs > 0.0 {
        max_abs / 127.0
    } else {
        1.0
    }
}

/// Quantizes one value at `scale`: round half away from zero, saturate to
/// ±127, NaN to zero — the wire codec's exact element rule.
#[inline]
#[must_use]
pub fn quantize_i8(value: f32, scale: f32) -> i8 {
    if value.is_nan() {
        0
    } else {
        (value / scale).round().clamp(-127.0, 127.0) as i8
    }
}

/// Quantizes `row` into `out` with a fresh symmetric scale, returning the
/// scale. `out` is overwritten and resized to `row.len()`.
pub fn quantize_row_i8(row: &[f32], out: &mut Vec<i8>) -> f32 {
    let scale = int8_scale(finite_max_abs(row.iter().copied()));
    out.clear();
    out.extend(row.iter().map(|&v| quantize_i8(v, scale)));
    scale
}

/// Appends the dequantized values of `row` (at `scale`) onto `out`.
#[inline]
pub fn dequantize_row_i8_into(row: &[i8], scale: f32, out: &mut Vec<f32>) {
    out.extend(row.iter().map(|&q| f32::from(q) * scale));
}

/// Appends the decoded values of the fp16 `row` onto `out`.
#[inline]
pub fn decode_row_f16_into(row: &[u16], out: &mut Vec<f32>) {
    let start = out.len();
    out.resize(start + row.len(), 0.0);
    decode_f16_slice(row, &mut out[start..]);
}

/// Decodes the fp16 `row` into `out` (same length), using the hardware
/// `vcvtph2ps` converter on the vector tiers of [`crate::isa::Family::F16`].
///
/// The hardware converter implements the same IEEE 754 binary16 → binary32
/// widening as [`f16_bits_to_f32`] (the conversion is exact — every f16 value
/// is representable in f32 — so there is no rounding to disagree on), which
/// the exhaustive all-65536-patterns test below pins bit for bit.
///
/// # Panics
/// If `row` and `out` differ in length.
pub fn decode_f16_slice(row: &[u16], out: &mut [f32]) {
    assert_eq!(
        row.len(),
        out.len(),
        "decode_f16_slice: length mismatch {} vs {}",
        row.len(),
        out.len()
    );
    #[cfg(target_arch = "x86_64")]
    if isa::tier(Family::F16) != Tier::Scalar {
        // SAFETY: `isa::tier` returns a vector tier only on an F16C host.
        unsafe { decode_f16_f16c(row, out) };
        return;
    }
    for (o, &h) in out.iter_mut().zip(row) {
        *o = f16_bits_to_f32(h);
    }
}

/// Encodes `src` into IEEE 754 binary16 bits in `dst` (same length), using
/// the hardware `vcvtps2ph` converter on the vector tiers of [`crate::isa::Family::F16`].
///
/// The hardware converter rounds to nearest even with overflow saturating to
/// ±inf — the same semantics as [`f32_to_f16_bits`] — so both paths produce
/// identical bits (pinned by the round-trip and random-pattern tests below).
/// The one divergence is NaN payloads: `vcvtps2ph` quiets signaling NaNs
/// where the scalar encoder truncates the payload untouched, so any group
/// containing a NaN lane is redone through the scalar path (cold: collectives
/// never carry NaNs in steady state).
///
/// # Panics
/// If `src` and `dst` differ in length.
pub fn encode_f16_slice(src: &[f32], dst: &mut [u16]) {
    assert_eq!(
        src.len(),
        dst.len(),
        "encode_f16_slice: length mismatch {} vs {}",
        src.len(),
        dst.len()
    );
    #[cfg(target_arch = "x86_64")]
    if isa::tier(Family::F16) != Tier::Scalar {
        // SAFETY: `isa::tier` returns a vector tier only on an F16C host.
        unsafe { encode_f16_f16c(src, dst) };
        return;
    }
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = f32_to_f16_bits(v);
    }
}

/// Bulk f32 → f16 encode through `vcvtps2ph`, eight elements per conversion,
/// scalar [`f32_to_f16_bits`] (bit-identical) for the tail and NaN groups.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "f16c")]
unsafe fn encode_f16_f16c(src: &[f32], dst: &mut [u16]) {
    use std::arch::x86_64::{
        __m128i, _mm256_cmp_ps, _mm256_cvtps_ph, _mm256_loadu_ps, _mm256_movemask_ps,
        _mm_storeu_si128, _CMP_UNORD_Q, _MM_FROUND_TO_NEAREST_INT,
    };
    let n = src.len();
    let from = src.as_ptr();
    let to = dst.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let values = _mm256_loadu_ps(from.add(i));
        let halves = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(values);
        _mm_storeu_si128(to.add(i).cast::<__m128i>(), halves);
        if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(values, values)) != 0 {
            for j in i..i + 8 {
                dst[j] = f32_to_f16_bits(src[j]);
            }
        }
        i += 8;
    }
    for j in i..n {
        dst[j] = f32_to_f16_bits(src[j]);
    }
}

/// Bulk f16 → f32 decode through `vcvtph2ps`, eight elements per conversion,
/// scalar [`f16_bits_to_f32`] (bit-identical) for the tail.
///
/// One semantic wrinkle: `vcvtph2ps` quiets signaling NaNs (sets the f32
/// quiet bit) where the scalar decoder propagates the payload untouched, so
/// any group containing a NaN lane is redone through the scalar path. The
/// encoder never produces signaling NaNs, so the fixup branch is cold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "f16c")]
unsafe fn decode_f16_f16c(row: &[u16], out: &mut [f32]) {
    use std::arch::x86_64::{
        __m128i, _mm256_cvtph_ps, _mm256_storeu_ps, _mm_and_si128, _mm_cmpgt_epi16,
        _mm_loadu_si128, _mm_movemask_epi8, _mm_set1_epi16,
    };
    let n = row.len();
    let src = row.as_ptr();
    let dst = out.as_mut_ptr();
    let mag_mask = _mm_set1_epi16(0x7fff);
    let inf_bits = _mm_set1_epi16(0x7c00);
    let mut i = 0;
    while i + 8 <= n {
        let halves = _mm_loadu_si128(src.add(i).cast::<__m128i>());
        _mm256_storeu_ps(dst.add(i), _mm256_cvtph_ps(halves));
        let mag = _mm_and_si128(halves, mag_mask);
        if _mm_movemask_epi8(_mm_cmpgt_epi16(mag, inf_bits)) != 0 {
            for j in i..i + 8 {
                out[j] = f16_bits_to_f32(row[j]);
            }
        }
        i += 8;
    }
    for j in i..n {
        out[j] = f16_bits_to_f32(row[j]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{on_every_tier, Family};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The straightforward per-class decoder the branch-free one replaced; the
    /// exhaustive test below pins the two to identical bits on every pattern.
    fn f16_bits_to_f32_reference(half: u16) -> f32 {
        let sign = u32::from(half & 0x8000) << 16;
        let exp = (half >> 10) & 0x1f;
        let man = u32::from(half & 0x3ff);
        match exp {
            0 => {
                // Signed zero / subnormal: value = man * 2^-24, exact in f32.
                let magnitude = man as f32 * f32::from_bits(0x3380_0000); // 2^-24
                f32::from_bits(magnitude.to_bits() | sign)
            }
            0x1f => f32::from_bits(sign | 0x7f80_0000 | (man << 13)),
            _ => f32::from_bits(sign | ((u32::from(exp) + 112) << 23) | (man << 13)),
        }
    }

    #[test]
    fn f16_decode_matches_the_reference_on_every_bit_pattern() {
        for half in 0..=u16::MAX {
            let fast = f16_bits_to_f32(half);
            let reference = f16_bits_to_f32_reference(half);
            assert_eq!(
                fast.to_bits(),
                reference.to_bits(),
                "pattern {half:#06x}: {fast} != {reference}"
            );
        }
    }

    #[test]
    fn bulk_f16_decode_matches_scalar_on_every_bit_pattern() {
        // Every pattern through the bulk path on every tier (hardware
        // vcvtph2ps where available), laid out so both the 8-wide body and
        // the scalar tail see all 65536 patterns.
        let all: Vec<u16> = (0..=u16::MAX).collect();
        on_every_tier(Family::F16, |tier| {
            for offset in [0usize, 3] {
                let row = &all[offset..];
                let mut out = vec![0.0f32; row.len()];
                decode_f16_slice(row, &mut out);
                for (&half, &got) in row.iter().zip(&out) {
                    let want = f16_bits_to_f32(half);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{tier:?} pattern {half:#06x}: {got} != {want}"
                    );
                }
            }
            let mut appended = vec![1.0f32];
            decode_row_f16_into(&all[..17], &mut appended);
            assert_eq!(appended.len(), 18);
            assert_eq!(appended[0], 1.0);
            assert_eq!(appended[1], f16_bits_to_f32(0));
        });
    }

    #[test]
    fn bulk_f16_encode_matches_scalar_on_rich_inputs() {
        // Every f16-representable value (all 65536 patterns widened to f32),
        // every rounding-boundary neighbourhood a structured sweep can reach,
        // and a pseudo-random sweep over raw f32 bit patterns — NaNs, infs
        // and subnormals included. Offsets exercise both the 8-wide body and
        // the scalar tail.
        let mut inputs: Vec<f32> = (0..=u16::MAX).map(f16_bits_to_f32).collect();
        for center in [1.0f32, 65504.0, 65520.0, 6.104e-5, 5.96e-8, 1e-40] {
            for ulps in -4i32..=4 {
                inputs.push(f32::from_bits(center.to_bits().wrapping_add_signed(ulps)));
                inputs.push(-f32::from_bits(center.to_bits().wrapping_add_signed(ulps)));
            }
        }
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..100_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            inputs.push(f32::from_bits((state >> 32) as u32));
        }
        on_every_tier(Family::F16, |tier| {
            for offset in [0usize, 5] {
                let src = &inputs[offset..];
                let mut bulk = vec![0u16; src.len()];
                encode_f16_slice(src, &mut bulk);
                for (&v, &got) in src.iter().zip(&bulk) {
                    let want = f32_to_f16_bits(v);
                    assert_eq!(got, want, "{tier:?} input {:#010x} ({v})", v.to_bits());
                }
            }
        });
    }

    /// f32 inputs the f16 codec has special rules for: ±0, ±inf, quiet and
    /// signaling NaN payloads, f32 subnormals, and both sides of f16's
    /// overflow edge (65504 is the largest half, 65520 rounds to inf) and of
    /// its underflow edges (2⁻²⁴ is the smallest subnormal half, 2⁻²⁵ ties to
    /// zero, 2⁻¹⁴ is the smallest normal half).
    const HOSTILE_F32_BITS: [u32; 18] = [
        0x0000_0000,
        0x8000_0000,
        0x7f80_0000,
        0xff80_0000,
        0x7fc0_0000,
        0x7fc0_2000,
        0x7f80_0001,
        0xffbf_ffff,
        0x0000_0001,
        0x807f_ffff,
        0x477f_e000,
        0x477f_efff,
        0x477f_f000,
        0x3380_0000,
        0x3300_0000,
        0x3300_0001,
        0x3880_0000,
        0x387f_ffff,
    ];

    /// Half patterns the decoder has special rules for: ±0, ±inf, quiet and
    /// signaling NaNs, the smallest and largest subnormals and the largest
    /// finite half.
    const HOSTILE_F16_BITS: [u16; 10] = [
        0x0000, 0x8000, 0x7c00, 0xfc00, 0x7e00, 0x7c01, 0xfdff, 0x0001, 0x83ff, 0x7bff,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Ragged lengths on both sides of the 8-wide converter groups, with
        /// hostile values mixed in: on every host tier the bulk codec returns
        /// the per-element scalar codec's bits, both ways.
        #[test]
        fn f16_codec_matches_the_scalar_codec_on_ragged_lengths(
            len in 0usize..70,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut raw_bits = || (rng.gen::<u64>() >> 32) as u32;
            let mut src = Vec::with_capacity(len);
            let mut halves_in = Vec::with_capacity(len);
            for _ in 0..len {
                let pick = raw_bits();
                src.push(match pick % 4 {
                    0 => f32::from_bits(
                        HOSTILE_F32_BITS[(pick >> 8) as usize % HOSTILE_F32_BITS.len()],
                    ),
                    1 => f32::from_bits(raw_bits()),
                    _ => (raw_bits() % 140_001) as f32 * 0.5 - 35_000.0,
                });
                halves_in.push(match pick % 3 {
                    0 => HOSTILE_F16_BITS[(pick >> 8) as usize % HOSTILE_F16_BITS.len()],
                    _ => raw_bits() as u16,
                });
            }
            let want_halves: Vec<u16> = src.iter().map(|&v| f32_to_f16_bits(v)).collect();
            let want_floats: Vec<u32> =
                halves_in.iter().map(|&h| f16_bits_to_f32(h).to_bits()).collect();
            on_every_tier(Family::F16, |tier| {
                let mut halves = vec![0u16; len];
                encode_f16_slice(&src, &mut halves);
                assert_eq!(halves, want_halves, "{tier:?} encode at length {len}");
                let mut floats = vec![0.0f32; len];
                decode_f16_slice(&halves_in, &mut floats);
                let got: Vec<u32> = floats.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want_floats, "{tier:?} decode at length {len}");
            });
        }
    }

    #[test]
    fn f16_round_trips_exact_halves() {
        for v in [0.0f32, -0.0, 1.0, -1.5, 0.25, 65504.0, -65504.0] {
            let rt = f16_bits_to_f32(f32_to_f16_bits(v));
            assert_eq!(rt.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn f16_rounds_to_nearest_even_and_saturates() {
        let halfway = 1.0f32 + f32::from_bits(0x3a00_0000); // 1 + 2^-11
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(halfway)), 1.0);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e30)), f32::INFINITY);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn int8_row_round_trip_is_bounded() {
        let row = [0.013f32, -1.7, 0.4, 1.9, -0.002, 0.0];
        let mut q = Vec::new();
        let scale = quantize_row_i8(&row, &mut q);
        let mut back = Vec::new();
        dequantize_row_i8_into(&q, scale, &mut back);
        let bound = Precision::Int8.max_abs_error(1.9);
        for (v, d) in row.iter().zip(&back) {
            assert!((v - d).abs() <= bound, "{v} -> {d}");
        }
    }

    #[test]
    fn int8_zero_row_is_exact() {
        let mut q = Vec::new();
        let scale = quantize_row_i8(&[0.0, 0.0, -0.0], &mut q);
        assert_eq!(scale, 1.0);
        let mut back = Vec::new();
        dequantize_row_i8_into(&q, scale, &mut back);
        assert_eq!(back, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn int8_saturates_and_zeroes_non_finite() {
        let scale = int8_scale(2.0);
        assert_eq!(quantize_i8(f32::INFINITY, scale), 127);
        assert_eq!(quantize_i8(f32::NEG_INFINITY, scale), -127);
        assert_eq!(quantize_i8(f32::NAN, scale), 0);
    }

    #[test]
    fn payload_bytes_halve_and_quarter() {
        assert_eq!(Precision::F32.payload_bytes(1000), 4000);
        assert_eq!(Precision::Fp16.payload_bytes(1000), 2000);
        assert_eq!(Precision::Int8.payload_bytes(1000), 1000);
    }

    #[test]
    fn precision_displays_like_the_wire_format() {
        assert_eq!(Precision::F32.to_string(), "f32");
        assert_eq!(Precision::Fp16.to_string(), "fp16");
        assert_eq!(Precision::Int8.to_string(), "int8");
        assert_eq!(Precision::default(), Precision::F32);
        assert!(Precision::F32.is_f32() && !Precision::Int8.is_f32());
    }
}
