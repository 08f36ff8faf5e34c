//! Frozen model snapshots: the export/import boundary between training and
//! serving.
//!
//! [`ModelSnapshot`] captures everything the online inference engine
//! (`dmt-serve`) needs to answer queries exactly like the training-side model
//! would: the dataset schema and interaction geometry, the replicated dense-stack
//! weights, the per-tower tower-module weights (DMT mode), and the **full**
//! embedding tables reassembled from every rank's shards. Tables are stored
//! unsharded so a snapshot can be re-sharded onto *any* serving cluster
//! ([`super::model::ShardedLookup::from_tables`]), independent of the world size
//! it was trained with.
//!
//! Snapshots are inference artifacts, not checkpoints: optimizer state (Adam
//! moments, row-wise Adagrad accumulators) is deliberately dropped.
//!
//! # On-disk format
//!
//! A snapshot serializes to a little-endian binary stream (JSON would balloon the
//! table weights ~4×): the magic `DMTSNAP1`, the metadata fields, then the flat
//! `f32` parameter buffers. See `to_bytes` / `from_bytes` for the exact layout;
//! round-tripping is bit-exact and covered by tests.

use super::config::{DistributedConfig, DistributedError, ExecutionMode};
use dmt_data::{DatasetSchema, FeatureBlock};
use dmt_models::{ModelArch, ModelHyperparams};
use std::path::Path;

/// Magic + version prefix of the binary snapshot format.
const MAGIC: &[u8; 8] = b"DMTSNAP1";

/// One sparse feature's full (unsharded) embedding table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableWeights {
    /// Global sparse-feature id.
    pub feature: usize,
    /// Logical row count (the feature's cardinality).
    pub rows: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Row-major `[rows, dim]` weights.
    pub data: Vec<f32>,
}

/// A frozen, servable snapshot of a trained model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSnapshot {
    /// The deployment that trained the model; serving replays the same flow
    /// (global sharded lookup for the baseline, SPTT for DMT).
    pub mode: ExecutionMode,
    /// Dataset schema the model was trained against.
    pub schema: DatasetSchema,
    /// Interaction architecture of the dense stack.
    pub arch: ModelArch,
    /// Dense hyper-parameters (geometry only; weights are in `dense_params`).
    pub hyper: ModelHyperparams,
    /// Tower-module output feature dimension `D` (DMT mode).
    pub tower_output_dim: usize,
    /// Tower-module ensemble parameter `c`.
    pub tower_ensemble_c: usize,
    /// Tower-module ensemble parameter `p`.
    pub tower_ensemble_p: usize,
    /// Training seed (fixes the constructor geometry the weights load into).
    pub seed: u64,
    /// Number of towers the model was trained with (0 for the baseline).
    pub num_towers: usize,
    /// Flat dense-stack weights, in parameter-visitation order.
    pub dense_params: Vec<f32>,
    /// Flat tower-module weights, one buffer per tower (empty for the baseline).
    pub tower_params: Vec<Vec<f32>>,
    /// Full embedding tables, one per sparse feature, ascending by feature id.
    pub tables: Vec<TableWeights>,
}

/// Errors reading or writing a snapshot file.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The byte stream is not a valid snapshot.
    Corrupt(
        /// What was wrong.
        String,
    ),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Corrupt(reason) => write!(f, "corrupt snapshot: {reason}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(value: std::io::Error) -> Self {
        SnapshotError::Io(value)
    }
}

impl From<SnapshotError> for DistributedError {
    fn from(value: SnapshotError) -> Self {
        DistributedError::Config {
            reason: value.to_string(),
        }
    }
}

impl ModelSnapshot {
    /// The table of `feature`, if the snapshot holds it.
    #[must_use]
    pub fn table(&self, feature: usize) -> Option<&TableWeights> {
        self.tables.iter().find(|t| t.feature == feature)
    }

    /// Total embedding rows across all tables.
    #[must_use]
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.rows).sum()
    }

    /// Total `f32` parameters in the snapshot (dense + towers + tables).
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.dense_params.len()
            + self.tower_params.iter().map(Vec::len).sum::<usize>()
            + self.tables.iter().map(|t| t.data.len()).sum::<usize>()
    }

    /// Serializes the snapshot to its binary format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(match self.mode {
            ExecutionMode::Baseline => 0,
            ExecutionMode::Dmt => 1,
        });
        out.push(match self.arch {
            ModelArch::Dlrm => 0,
            ModelArch::Dcn => 1,
        });
        put_u64(&mut out, self.seed);
        put_u64(&mut out, self.tower_output_dim as u64);
        put_u64(&mut out, self.tower_ensemble_c as u64);
        put_u64(&mut out, self.tower_ensemble_p as u64);
        put_u64(&mut out, self.num_towers as u64);
        // Schema.
        put_u64(&mut out, self.schema.num_dense as u64);
        put_u64(&mut out, self.schema.num_sparse() as u64);
        for f in 0..self.schema.num_sparse() {
            put_u64(&mut out, self.schema.sparse_cardinalities[f] as u64);
            out.push(match self.schema.blocks[f] {
                FeatureBlock::User => 0,
                FeatureBlock::Item => 1,
                FeatureBlock::Context => 2,
            });
            put_u64(&mut out, self.schema.pooling_factors[f] as u64);
        }
        // Hyper-parameters.
        put_u64(&mut out, self.hyper.embedding_dim as u64);
        put_u64_list(&mut out, &self.hyper.bottom_mlp_hidden);
        put_u64_list(&mut out, &self.hyper.over_mlp_hidden);
        put_u64(&mut out, self.hyper.cross_layers as u64);
        // Weights.
        put_f32_list(&mut out, &self.dense_params);
        put_u64(&mut out, self.tower_params.len() as u64);
        for tower in &self.tower_params {
            put_f32_list(&mut out, tower);
        }
        put_u64(&mut out, self.tables.len() as u64);
        for table in &self.tables {
            put_u64(&mut out, table.feature as u64);
            put_u64(&mut out, table.rows as u64);
            put_u64(&mut out, table.dim as u64);
            put_f32_raw(&mut out, &table.data);
        }
        out
    }

    /// Deserializes a snapshot from its binary format.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] if the stream is malformed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut c = Cursor { bytes, pos: 0 };
        if c.take(MAGIC.len())? != MAGIC {
            return Err(SnapshotError::Corrupt("bad magic".into()));
        }
        let mode = match c.u8()? {
            0 => ExecutionMode::Baseline,
            1 => ExecutionMode::Dmt,
            m => return Err(SnapshotError::Corrupt(format!("unknown mode {m}"))),
        };
        let arch = match c.u8()? {
            0 => ModelArch::Dlrm,
            1 => ModelArch::Dcn,
            a => return Err(SnapshotError::Corrupt(format!("unknown arch {a}"))),
        };
        let seed = c.u64()?;
        let tower_output_dim = c.usize()?;
        let tower_ensemble_c = c.usize()?;
        let tower_ensemble_p = c.usize()?;
        let num_towers = c.usize()?;
        let num_dense = c.usize()?;
        // Counts are untrusted: cap every pre-allocation by what the remaining
        // bytes could possibly encode, so a corrupt length field yields
        // `Corrupt` instead of an allocator abort.
        let num_sparse = c.count(17)?; // cardinality u64 + block u8 + pooling u64
        let mut cardinalities = Vec::with_capacity(num_sparse);
        let mut blocks = Vec::with_capacity(num_sparse);
        let mut pooling = Vec::with_capacity(num_sparse);
        for _ in 0..num_sparse {
            let cardinality = c.usize()?;
            blocks.push(match c.u8()? {
                0 => FeatureBlock::User,
                1 => FeatureBlock::Item,
                2 => FeatureBlock::Context,
                b => return Err(SnapshotError::Corrupt(format!("unknown block {b}"))),
            });
            let pool = c.usize()?;
            if cardinality == 0 || pool == 0 {
                return Err(SnapshotError::Corrupt(
                    "zero cardinality or pooling factor".into(),
                ));
            }
            cardinalities.push(cardinality);
            pooling.push(pool);
        }
        let schema = DatasetSchema::new(num_dense, cardinalities, blocks, pooling);
        let hyper = ModelHyperparams {
            embedding_dim: c.usize()?,
            bottom_mlp_hidden: c.usize_list()?,
            over_mlp_hidden: c.usize_list()?,
            cross_layers: c.usize()?,
        };
        let dense_params = c.f32_list()?;
        let towers = c.count(8)?; // at least a u64 length per tower
        let mut tower_params = Vec::with_capacity(towers);
        for _ in 0..towers {
            tower_params.push(c.f32_list()?);
        }
        let table_count = c.count(24)?; // feature + rows + dim u64s per table
        let mut tables = Vec::with_capacity(table_count);
        for _ in 0..table_count {
            let feature = c.usize()?;
            let rows = c.usize()?;
            let dim = c.usize()?;
            let data = c.f32_raw(rows.saturating_mul(dim))?;
            tables.push(TableWeights {
                feature,
                rows,
                dim,
                data,
            });
        }
        if c.pos != bytes.len() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes",
                bytes.len() - c.pos
            )));
        }
        Ok(Self {
            mode,
            schema,
            arch,
            hyper,
            tower_output_dim,
            tower_ensemble_c,
            tower_ensemble_p,
            seed,
            num_towers,
            dense_params,
            tower_params,
            tables,
        })
    }

    /// Writes the snapshot to `path` in its binary format.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] on filesystem failure.
    pub fn write_to<P: AsRef<Path>>(&self, path: P) -> Result<(), SnapshotError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on filesystem failure or a malformed file.
    pub fn read_from<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64_list(out: &mut Vec<u8>, values: &[usize]) {
    put_u64(out, values.len() as u64);
    for &v in values {
        put_u64(out, v as u64);
    }
}

fn put_f32_raw(out: &mut Vec<u8>, values: &[f32]) {
    out.reserve(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_f32_list(out: &mut Vec<u8>, values: &[f32]) {
    put_u64(out, values.len() as u64);
    put_f32_raw(out, values);
}

/// Minimal checked little-endian reader over a byte slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| SnapshotError::Corrupt("unexpected end of stream".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let raw: [u8; 8] = self.take(8)?.try_into().expect("take returned 8 bytes");
        Ok(u64::from_le_bytes(raw))
    }

    fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?)
            .map_err(|_| SnapshotError::Corrupt("length exceeds usize".into()))
    }

    /// Reads an element count whose elements occupy at least `min_bytes_each`,
    /// rejecting counts the remaining stream cannot possibly hold — untrusted
    /// counts must fail as `Corrupt` *before* any proportional allocation.
    fn count(&mut self, min_bytes_each: usize) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        if n > (self.bytes.len() - self.pos) / min_bytes_each {
            return Err(SnapshotError::Corrupt(format!(
                "count {n} exceeds the remaining stream"
            )));
        }
        Ok(n)
    }

    fn usize_list(&mut self) -> Result<Vec<usize>, SnapshotError> {
        let n = self.count(8)?;
        (0..n).map(|_| self.usize()).collect()
    }

    fn f32_raw(&mut self, n: usize) -> Result<Vec<f32>, SnapshotError> {
        let raw = self.take(
            n.checked_mul(4)
                .ok_or_else(|| SnapshotError::Corrupt("f32 buffer length overflows".into()))?,
        )?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunks of 4")))
            .collect())
    }

    fn f32_list(&mut self) -> Result<Vec<f32>, SnapshotError> {
        let n = self.count(4)?;
        self.f32_raw(n)
    }
}

/// One rank's contribution to a snapshot, produced after the final optimizer
/// step (all dense replicas are identical by then, so only designated ranks
/// contribute the replicated modules).
pub(crate) struct RankExport {
    /// Flat dense-stack weights; `Some` on global rank 0 only.
    pub dense_params: Option<Vec<f32>>,
    /// `(tower index, flat tower-module weights)`; `Some` on each host's slot-0
    /// rank in DMT mode.
    pub tower: Option<(usize, Vec<f32>)>,
    /// This rank's table shards as `(feature, first_global_row, local rows)`.
    pub shards: Vec<(usize, usize, Vec<f32>)>,
}

/// Assembles rank exports into one full snapshot, reassembling each feature's
/// table from its shards.
pub(crate) fn assemble(
    mode: ExecutionMode,
    config: &DistributedConfig,
    exports: Vec<RankExport>,
) -> Result<ModelSnapshot, DistributedError> {
    let schema = &config.schema;
    let dim = config.hyper.embedding_dim;
    let mut tables: Vec<TableWeights> = (0..schema.num_sparse())
        .map(|f| TableWeights {
            feature: f,
            rows: schema.sparse_cardinalities[f],
            dim,
            data: vec![0.0; schema.sparse_cardinalities[f] * dim],
        })
        .collect();
    let mut filled = vec![0usize; schema.num_sparse()];
    let mut dense_params: Option<Vec<f32>> = None;
    let num_towers = match mode {
        ExecutionMode::Baseline => 0,
        ExecutionMode::Dmt => config.num_towers(),
    };
    let mut tower_params: Vec<Option<Vec<f32>>> = vec![None; num_towers];
    for export in exports {
        if let Some(dense) = export.dense_params {
            dense_params = Some(dense);
        }
        if let Some((tower, params)) = export.tower {
            tower_params[tower] = Some(params);
        }
        for (feature, row_start, data) in export.shards {
            let table = &mut tables[feature];
            let start = row_start * dim;
            table.data[start..start + data.len()].copy_from_slice(&data);
            filled[feature] += data.len();
        }
    }
    for (f, table) in tables.iter().enumerate() {
        if filled[f] != table.data.len() {
            return Err(DistributedError::Config {
                reason: format!(
                    "table {f}: shards covered {} of {} scalars",
                    filled[f],
                    table.data.len()
                ),
            });
        }
    }
    Ok(ModelSnapshot {
        mode,
        schema: schema.clone(),
        arch: config.arch,
        hyper: config.hyper.clone(),
        tower_output_dim: config.tower_output_dim,
        tower_ensemble_c: config.tower_ensemble_c,
        tower_ensemble_p: config.tower_ensemble_p,
        seed: config.seed,
        num_towers,
        dense_params: dense_params.ok_or_else(|| DistributedError::Config {
            reason: "no rank exported the dense stack".into(),
        })?,
        tower_params: tower_params
            .into_iter()
            .enumerate()
            .map(|(t, params)| {
                params.ok_or_else(|| DistributedError::Config {
                    reason: format!("no rank exported tower {t}"),
                })
            })
            .collect::<Result<_, _>>()?,
        tables,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_snapshot() -> ModelSnapshot {
        ModelSnapshot {
            mode: ExecutionMode::Dmt,
            schema: DatasetSchema::criteo_like_small(),
            arch: ModelArch::Dlrm,
            hyper: ModelHyperparams::tiny(),
            tower_output_dim: 16,
            tower_ensemble_c: 0,
            tower_ensemble_p: 1,
            seed: 7,
            num_towers: 2,
            dense_params: vec![0.25, -1.5, f32::MIN_POSITIVE, 3.75],
            tower_params: vec![vec![1.0, 2.0], vec![-0.125]],
            tables: vec![
                TableWeights {
                    feature: 0,
                    rows: 2,
                    dim: 3,
                    data: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                },
                TableWeights {
                    feature: 1,
                    rows: 1,
                    dim: 3,
                    data: vec![-1.0, 0.0, 1.0],
                },
            ],
        }
    }

    #[test]
    fn bytes_round_trip_bit_exactly() {
        let snapshot = tiny_snapshot();
        let bytes = snapshot.to_bytes();
        let restored = ModelSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snapshot, restored);
    }

    #[test]
    fn file_round_trip() {
        let snapshot = tiny_snapshot();
        let dir = std::env::temp_dir().join("dmt_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.dmtsnap");
        snapshot.write_to(&path).unwrap();
        let restored = ModelSnapshot::read_from(&path).unwrap();
        assert_eq!(snapshot, restored);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        assert!(matches!(
            ModelSnapshot::from_bytes(b"not a snapshot at all"),
            Err(SnapshotError::Corrupt(_))
        ));
        let mut bytes = tiny_snapshot().to_bytes();
        bytes.truncate(bytes.len() - 3);
        assert!(ModelSnapshot::from_bytes(&bytes).is_err());
        bytes.extend_from_slice(&[0; 64]);
        assert!(ModelSnapshot::from_bytes(&bytes).is_err());
    }

    #[test]
    fn huge_length_fields_fail_cleanly() {
        // Corrupt the num_sparse count (offset 58: magic 8 + mode/arch 2 + seed
        // + 4 geometry u64s + num_dense u64) to u64::MAX: the reader must
        // return `Corrupt` without attempting a proportional allocation.
        let mut bytes = tiny_snapshot().to_bytes();
        bytes[58..66].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            ModelSnapshot::from_bytes(&bytes),
            Err(SnapshotError::Corrupt(_))
        ));
        // Every possible truncation point errors rather than panicking.
        let bytes = tiny_snapshot().to_bytes();
        for len in 0..bytes.len() {
            assert!(ModelSnapshot::from_bytes(&bytes[..len]).is_err(), "{len}");
        }
    }

    #[test]
    fn inflated_length_at_every_offset_fails_cleanly() {
        // Overwrite every 8-byte window with a huge value. Where the window
        // touches a count or length, the reader must return `Err`: never panic
        // on a wrapped bounds check, never allocate in proportion to the forged
        // value. Where it lands on a plain value (the seed, a geometry field,
        // payload floats) the stream is still well formed, and the parse must
        // then be faithful: it writes back the very bytes it read.
        let clean = tiny_snapshot().to_bytes();
        for huge in [u64::MAX, u64::MAX / 2, u64::MAX / 4, 1 << 40] {
            for offset in 0..=clean.len() - 8 {
                let mut bytes = clean.clone();
                bytes[offset..offset + 8].copy_from_slice(&huge.to_le_bytes());
                let parsed = std::panic::catch_unwind(|| ModelSnapshot::from_bytes(&bytes))
                    .unwrap_or_else(|_| panic!("{huge:#x} at offset {offset} panicked"));
                if let Ok(snapshot) = parsed {
                    assert_eq!(snapshot.to_bytes(), bytes, "{huge:#x} at offset {offset}");
                }
            }
        }
    }

    #[test]
    fn accessors_report_sizes() {
        let s = tiny_snapshot();
        assert_eq!(s.total_rows(), 3);
        assert_eq!(s.parameter_count(), 4 + 3 + 9);
        assert_eq!(s.table(1).unwrap().rows, 1);
        assert!(s.table(9).is_none());
    }

    #[test]
    fn error_display_is_informative() {
        let e = SnapshotError::Corrupt("bad magic".into());
        assert!(e.to_string().contains("bad magic"));
        let converted: DistributedError = e.into();
        assert!(converted.to_string().contains("bad magic"));
    }
}
