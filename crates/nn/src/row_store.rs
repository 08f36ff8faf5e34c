//! One store for embedding rows at rest, at any storage precision.
//!
//! A [`RowStore`] holds `[n, dim]` rows as plain `f32`, as IEEE binary16 words,
//! or as symmetric int8 with one `f32` scale per row (`max_abs / 127` over the
//! row's finite values). Frozen serving tables
//! ([`crate::QuantizedEmbeddingTable`]) and the serving hot-row cache both keep
//! their rows in one, so a row encodes and decodes through the same code
//! wherever it rests. Reads append the decoded row to a caller buffer and
//! writes re-encode one row in place: neither allocates.

use dmt_tensor::prefetch_read;
use dmt_tensor::quant::{
    decode_row_f16_into, dequantize_row_i8_into, encode_f16_slice, finite_max_abs, int8_scale,
    quantize_i8, Precision,
};

/// The payload words of a [`RowStore`], one variant per precision; int8
/// carries one scale per row.
#[derive(Debug, Clone, PartialEq)]
enum Words {
    F32(Vec<f32>),
    Fp16(Vec<u16>),
    Int8(Vec<i8>, Vec<f32>),
}

/// Row-major `[n, dim]` embedding rows stored at one [`Precision`].
#[derive(Debug, Clone, PartialEq)]
pub struct RowStore {
    words: Words,
    dim: usize,
}

impl RowStore {
    /// `rows` all-zero rows of width `dim` at `precision` — a slab for
    /// [`RowStore::set_row`] to fill.
    #[must_use]
    pub fn zeros(precision: Precision, rows: usize, dim: usize) -> Self {
        let len = rows * dim;
        let words = match precision {
            Precision::F32 => Words::F32(vec![0.0; len]),
            Precision::Fp16 => Words::Fp16(vec![0; len]),
            Precision::Int8 => Words::Int8(vec![0; len], vec![1.0; rows]),
        };
        Self { words, dim }
    }

    /// Encodes row-major `[n, dim]` f32 rows at `precision`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or `rows` is not a whole number of rows.
    #[must_use]
    pub fn encode(precision: Precision, dim: usize, rows: &[f32]) -> Self {
        assert!(
            dim > 0 && rows.len().is_multiple_of(dim),
            "rows must be [n, dim] with dim > 0"
        );
        let mut store = Self::zeros(precision, rows.len() / dim, dim);
        for (index, row) in rows.chunks_exact(dim).enumerate() {
            store.set_row(index, row);
        }
        store
    }

    /// Storage precision of the rows.
    #[must_use]
    pub fn precision(&self) -> Precision {
        match self.words {
            Words::F32(_) => Precision::F32,
            Words::Fp16(_) => Precision::Fp16,
            Words::Int8(..) => Precision::Int8,
        }
    }

    /// Row width.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Re-encodes row `index` from `row` in place; an int8 row takes a fresh
    /// scale from its largest finite magnitude, so NaN and ±inf never set it.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `row` is not `dim` wide.
    pub fn set_row(&mut self, index: usize, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "rows must be [dim]");
        let span = index * self.dim..(index + 1) * self.dim;
        match &mut self.words {
            Words::F32(words) => words[span].copy_from_slice(row),
            Words::Fp16(words) => encode_f16_slice(row, &mut words[span]),
            Words::Int8(words, scales) => {
                let scale = int8_scale(finite_max_abs(row.iter().copied()));
                for (q, &v) in words[span].iter_mut().zip(row) {
                    *q = quantize_i8(v, scale);
                }
                scales[index] = scale;
            }
        }
    }

    /// Appends the decoded row `index` onto `out`. Always inlined, like
    /// [`RowStore::prefetch`]: both sit in every lookup's per-row loop, and
    /// without it an int8 gather of 16-wide rows ran ~10% slower per row
    /// (2-vCPU AVX-512 VNNI host).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline(always)]
    pub fn row_into(&self, index: usize, out: &mut Vec<f32>) {
        let span = index * self.dim..(index + 1) * self.dim;
        match &self.words {
            Words::F32(words) => out.extend_from_slice(&words[span]),
            Words::Fp16(words) => decode_row_f16_into(&words[span], out),
            Words::Int8(words, scales) => dequantize_row_i8_into(&words[span], scales[index], out),
        }
    }

    /// Software-prefetches row `index`'s payload words. Gathered rows are a
    /// random-access pattern the hardware prefetcher cannot predict, so
    /// lookups hint the next row while decoding the current one.
    #[inline(always)]
    pub fn prefetch(&self, index: usize) {
        let at = index * self.dim;
        match &self.words {
            Words::F32(words) => prefetch_read(words, at),
            Words::Fp16(words) => prefetch_read(words, at),
            Words::Int8(words, _) => prefetch_read(words, at),
        }
    }

    /// Bytes one row occupies: its payload words plus, at int8, its scale.
    #[must_use]
    pub fn row_bytes(&self) -> u64 {
        match self.words {
            Words::Int8(..) => self.dim as u64 + 4,
            _ => self.precision().payload_bytes(self.dim),
        }
    }

    /// Bytes resident in the whole store: payload words plus int8 scales.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        match &self.words {
            Words::F32(words) => 4 * words.len() as u64,
            Words::Fp16(words) => 2 * words.len() as u64,
            Words::Int8(words, scales) => words.len() as u64 + 4 * scales.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_tensor::quant::{f16_bits_to_f32, f32_to_f16_bits, quantize_row_i8};

    const PRECISIONS: [Precision; 3] = [Precision::F32, Precision::Fp16, Precision::Int8];

    fn decoded(store: &RowStore, index: usize) -> Vec<f32> {
        let mut out = Vec::new();
        store.row_into(index, &mut out);
        out
    }

    #[test]
    fn rows_decode_like_the_scalar_codecs() {
        let row = [0.3f32, -1.7, 65504.0, 1e-6, -0.0];
        for precision in PRECISIONS {
            let store = RowStore::encode(precision, row.len(), &row);
            let want: Vec<f32> = match precision {
                Precision::F32 => row.to_vec(),
                Precision::Fp16 => row
                    .iter()
                    .map(|&v| f16_bits_to_f32(f32_to_f16_bits(v)))
                    .collect(),
                Precision::Int8 => {
                    let mut q = Vec::new();
                    let scale = quantize_row_i8(&row, &mut q);
                    q.iter().map(|&v| f32::from(v) * scale).collect()
                }
            };
            let got = decoded(&store, 0);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{precision}");
        }
    }

    #[test]
    fn set_row_rewrites_one_row_in_place() {
        let (row, zero) = ([0.7f32, -0.3], [0.0f32; 2]);
        for precision in PRECISIONS {
            let mut store = RowStore::zeros(precision, 3, 2);
            store.set_row(1, &row);
            let alone = RowStore::encode(precision, 2, &row);
            assert_eq!(decoded(&store, 0), zero, "{precision}");
            assert_eq!(decoded(&store, 1), decoded(&alone, 0), "{precision}");
            store.set_row(1, &zero);
            assert_eq!(decoded(&store, 1), zero, "{precision}");
        }
    }

    #[test]
    fn resident_bytes_count_words_and_scales() {
        for (precision, per_row) in [
            (Precision::F32, 32u64),
            (Precision::Fp16, 16),
            (Precision::Int8, 8 + 4),
        ] {
            let store = RowStore::zeros(precision, 5, 8);
            assert_eq!(store.precision(), precision);
            assert_eq!(store.row_bytes(), per_row, "{precision}");
            assert_eq!(store.resident_bytes(), 5 * per_row, "{precision}");
        }
    }
}
