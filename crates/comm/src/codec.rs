//! On-wire quantization codec for communicated `f32` tensors.
//!
//! The paper's strong baseline quantizes its embedding and gradient communication
//! (FP16/BF16), and §6 compares DMT against FP8-quantized training. The simulator
//! (`dmt-commsim`) has always modelled that as a byte-scaling factor; this module
//! makes it *real*: an encoder/decoder pair that packs `f32` payloads into
//! reduced-precision **wire words** the collectives actually move, so the
//! backend's per-link byte accounting (and its fabric pacing) observes the
//! reduced traffic.
//!
//! The shared-memory transport's native element is the `f32` word — the same way
//! NCCL moves typed elements — so encoded payloads are returned as `Vec<f32>`
//! whose *bit patterns* carry the packed sub-word lanes:
//!
//! | format | wire layout | words for `n` elements |
//! |--------|-------------|------------------------|
//! | [`WireFormat::Fp32`] | identity (no copy) | `n` |
//! | [`WireFormat::Fp16`] | 2 IEEE 754 half lanes per word, little-endian | `ceil(n / 2)` |
//! | [`WireFormat::Int8`]  | 1 scale word, then 4 symmetric int8 lanes per word | `1 + ceil(n / 4)` |
//!
//! Decoding needs the original element count, which every receiver in the
//! execution engine knows from its routing state (requested key counts, tower
//! widths); no in-band length header is required. A word-count mismatch surfaces
//! as [`CommError::Decode`].
//!
//! Contracts the engine and the property tests rely on:
//!
//! * **Determinism** — encoding is a pure function of the input bits; encoded
//!   words survive any collective bit-identically (the transport never performs
//!   arithmetic on payloads), so every rank decodes the same bytes to the same
//!   values.
//! * **Bounded round-trip error** — for finite inputs inside the representable
//!   range, `|x - decode(encode(x))| <= |x| * 2^-11 + 2^-25` at fp16 (round to
//!   nearest even), and `<= max_abs / 254` at int8 (symmetric per-buffer scale
//!   `max_abs / 127`, round half away from zero).
//! * **Non-finite handling** — fp16 preserves the class of `±inf` and NaN; int8
//!   saturates `±inf` to the endpoints, maps NaN to zero, and derives its scale
//!   from the finite values only.

use crate::backend::CommError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Precision of an `f32` payload on the wire.
///
/// `dmt-commsim`'s `Quantization` is the analytical twin of this type (it scales
/// modelled byte counts); `WireFormat` is what the executable backend actually
/// packs. The trainer maps one onto the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum WireFormat {
    /// 4 bytes per element: the identity codec (no packing, no copy).
    #[default]
    Fp32,
    /// 2 bytes per element: IEEE 754 binary16, round to nearest even.
    Fp16,
    /// 1 byte per element plus one `f32` scale word per buffer: symmetric linear
    /// quantization with scale `max_abs / 127`.
    Int8,
}

impl WireFormat {
    /// Whether encoding is the identity (no precision loss, no byte savings).
    #[must_use]
    pub fn is_identity(self) -> bool {
        self == WireFormat::Fp32
    }

    /// Number of `f32` wire words carrying `elements` encoded values.
    #[must_use]
    pub fn encoded_words(self, elements: usize) -> usize {
        match self {
            WireFormat::Fp32 => elements,
            WireFormat::Fp16 => elements.div_ceil(2),
            WireFormat::Int8 => {
                if elements == 0 {
                    0
                } else {
                    1 + elements.div_ceil(4)
                }
            }
        }
    }

    /// Bytes on the wire for `elements` encoded values (wire words × 4).
    #[must_use]
    pub fn encoded_bytes(self, elements: usize) -> u64 {
        4 * self.encoded_words(elements) as u64
    }

    /// Worst-case absolute round-trip error for a buffer whose largest finite
    /// magnitude is `max_abs` (see the [module docs](self) for the derivation).
    #[must_use]
    pub fn max_abs_error(self, max_abs: f32) -> f32 {
        match self {
            WireFormat::Fp32 => 0.0,
            // Relative 2^-11 in the normal range plus the subnormal quantum.
            WireFormat::Fp16 => max_abs / 2048.0 + f32::from_bits(0x3300_0000), // 2^-25
            WireFormat::Int8 => max_abs / 254.0,
        }
    }
}

impl fmt::Display for WireFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WireFormat::Fp32 => "fp32",
            WireFormat::Fp16 => "fp16",
            WireFormat::Int8 => "int8",
        })
    }
}

// The half-precision conversion pair is shared with quantized *storage*
// (`dmt_tensor::quant` holds the canonical implementation): an fp16 word on
// the wire and an fp16 word in a table shard are bit-compatible by
// construction, not by parallel maintenance of two converters.
use dmt_tensor::quant::{decode_row_f16_into, encode_f16_slice};
pub use dmt_tensor::quant::{f16_bits_to_f32, f32_to_f16_bits};

/// Packs two half-precision lanes into one wire word. The word is an arbitrary
/// bit pattern reinterpreted as `f32`; the transport moves it without arithmetic.
fn pack_halves(lo: u16, hi: u16) -> f32 {
    f32::from_bits(u32::from(lo) | (u32::from(hi) << 16))
}

/// Encodes `values` into wire words at `format`. `Fp32` returns the input
/// unchanged (no copy); see the [module docs](self) for the packed layouts.
#[must_use]
pub fn encode(format: WireFormat, values: Vec<f32>) -> Vec<f32> {
    match format {
        WireFormat::Fp32 => values,
        WireFormat::Fp16 => {
            // Bulk-convert through the SIMD-dispatched encoder (bit-identical
            // to element-wise `f32_to_f16_bits`), then pack lane pairs.
            let mut halves = vec![0u16; values.len()];
            encode_f16_slice(&values, &mut halves);
            let mut words = Vec::with_capacity(values.len().div_ceil(2));
            let mut chunks = halves.chunks_exact(2);
            for pair in &mut chunks {
                words.push(pack_halves(pair[0], pair[1]));
            }
            if let [last] = chunks.remainder() {
                words.push(pack_halves(*last, 0));
            }
            words
        }
        WireFormat::Int8 => {
            if values.is_empty() {
                return Vec::new();
            }
            let max_abs = values
                .iter()
                .copied()
                .filter(|v| v.is_finite())
                .fold(0.0f32, |acc, v| acc.max(v.abs()));
            let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
            let mut words = Vec::with_capacity(1 + values.len().div_ceil(4));
            words.push(scale);
            for chunk in values.chunks(4) {
                let mut word = 0u32;
                for (lane, &v) in chunk.iter().enumerate() {
                    let q = if v.is_nan() {
                        0i8
                    } else {
                        // Saturating symmetric quantization, half away from zero.
                        (v / scale).round().clamp(-127.0, 127.0) as i8
                    };
                    word |= u32::from(q as u8) << (8 * lane);
                }
                words.push(f32::from_bits(word));
            }
            words
        }
    }
}

/// Decodes `words` produced by [`encode`] back into `elements` `f32` values.
///
/// # Errors
///
/// Returns [`CommError::Decode`] if the word count does not match
/// [`WireFormat::encoded_words`] for `elements`.
pub fn decode(format: WireFormat, words: Vec<f32>, elements: usize) -> Result<Vec<f32>, CommError> {
    let expected = format.encoded_words(elements);
    if words.len() != expected {
        return Err(CommError::Decode {
            expected_words: expected,
            got_words: words.len(),
        });
    }
    match format {
        WireFormat::Fp32 => Ok(words),
        WireFormat::Fp16 => {
            // Unpack lane pairs, then bulk-convert through the
            // SIMD-dispatched decoder (bit-identical to element-wise
            // `f16_bits_to_f32`).
            let mut halves = Vec::with_capacity(elements);
            for word in &words {
                let bits = word.to_bits();
                halves.push(bits as u16);
                if halves.len() < elements {
                    halves.push((bits >> 16) as u16);
                }
            }
            let mut out = Vec::with_capacity(elements);
            decode_row_f16_into(&halves, &mut out);
            Ok(out)
        }
        WireFormat::Int8 => {
            if elements == 0 {
                return Ok(Vec::new());
            }
            let scale = words[0];
            let mut out = Vec::with_capacity(elements);
            for (i, word) in words[1..].iter().enumerate() {
                let bits = word.to_bits();
                for lane in 0..4 {
                    if 4 * i + lane < elements {
                        let q = (bits >> (8 * lane)) as u8 as i8;
                        out.push(f32::from(q) * scale);
                    }
                }
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp32_is_identity_without_copy() {
        let values = vec![1.0f32, -2.5, f32::NAN];
        let encoded = encode(WireFormat::Fp32, values.clone());
        assert_eq!(encoded.len(), 3);
        let decoded = decode(WireFormat::Fp32, encoded, 3).unwrap();
        assert_eq!(decoded[0].to_bits(), values[0].to_bits());
        assert_eq!(decoded[2].to_bits(), values[2].to_bits());
    }

    #[test]
    fn fp16_round_trips_exact_halves() {
        for v in [0.0f32, -0.0, 1.0, -1.5, 0.25, 65504.0, -65504.0] {
            let rt = f16_bits_to_f32(f32_to_f16_bits(v));
            assert_eq!(rt.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn fp16_rounds_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next half; ties go to
        // the even mantissa (1.0).
        let halfway = 1.0f32 + f32::from_bits(0x3a00_0000); // 2^-11
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(halfway)), 1.0);
        // The next f32 above the halfway point rounds up.
        let above = f32::from_bits(halfway.to_bits() + 1);
        assert!(f16_bits_to_f32(f32_to_f16_bits(above)) > 1.0);
    }

    #[test]
    fn fp16_saturates_and_preserves_class() {
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e30)), f32::INFINITY);
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(f32::NEG_INFINITY)),
            f32::NEG_INFINITY
        );
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // Tiny values underflow to signed zero.
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(-1e-30)).to_bits(),
            (-0.0f32).to_bits()
        );
    }

    #[test]
    fn fp16_word_count_and_odd_lengths() {
        for n in [0usize, 1, 2, 3, 7] {
            let values: Vec<f32> = (0..n).map(|i| i as f32 * 0.5 - 1.0).collect();
            let encoded = encode(WireFormat::Fp16, values.clone());
            assert_eq!(encoded.len(), WireFormat::Fp16.encoded_words(n));
            let decoded = decode(WireFormat::Fp16, encoded, n).unwrap();
            assert_eq!(decoded, values, "halves are exact for these inputs");
        }
    }

    #[test]
    fn int8_error_is_bounded_by_the_scale() {
        let values = vec![0.013f32, -1.7, 0.4, 1.9, -0.002, 0.0];
        let max_abs = 1.9f32;
        let decoded = decode(
            WireFormat::Int8,
            encode(WireFormat::Int8, values.clone()),
            values.len(),
        )
        .unwrap();
        for (v, d) in values.iter().zip(&decoded) {
            assert!(
                (v - d).abs() <= WireFormat::Int8.max_abs_error(max_abs),
                "{v} -> {d}"
            );
        }
    }

    #[test]
    fn int8_handles_non_finite_inputs() {
        let values = vec![f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 2.0];
        let decoded = decode(WireFormat::Int8, encode(WireFormat::Int8, values), 4).unwrap();
        // Scale comes from the finite values only (max_abs = 2.0 -> scale 2/127).
        assert_eq!(decoded[0], 2.0, "+inf saturates to +max_abs");
        assert_eq!(decoded[1], -2.0, "-inf saturates to -max_abs");
        assert_eq!(decoded[2], 0.0, "NaN maps to zero");
        assert!((decoded[3] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn zero_length_buffers_encode_to_nothing() {
        for format in [WireFormat::Fp32, WireFormat::Fp16, WireFormat::Int8] {
            assert!(encode(format, Vec::new()).is_empty());
            assert_eq!(decode(format, Vec::new(), 0).unwrap(), Vec::<f32>::new());
            assert_eq!(format.encoded_bytes(0), 0);
        }
    }

    #[test]
    fn word_count_mismatch_is_a_decode_error() {
        let err = decode(WireFormat::Fp16, vec![0.0; 3], 4).unwrap_err();
        assert_eq!(
            err,
            CommError::Decode {
                expected_words: 2,
                got_words: 3
            }
        );
    }

    #[test]
    fn encoded_bytes_halve_and_quarter() {
        assert_eq!(WireFormat::Fp32.encoded_bytes(1000), 4000);
        assert_eq!(WireFormat::Fp16.encoded_bytes(1000), 2000);
        assert_eq!(WireFormat::Int8.encoded_bytes(1000), 4 + 1000);
    }
}
