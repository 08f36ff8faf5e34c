//! Recommendation models (DLRM, DCN, XLRM) and their DMT variants.
//!
//! Three pieces, mirroring how the paper evaluates:
//!
//! * [`DenseStack`] — the dense half every model shares: bottom MLP, dot-product or
//!   CrossNet interaction, over-arch and BCE loss. The Tower Module (§3.2) changes
//!   only what feeds the interaction, so the baseline and every DMT variant run this
//!   one implementation, as do the distributed trainer's ranks and the serving
//!   workers.
//! * [`RecommendationModel`] — a *trainable* CPU model (embedding tables and an
//!   optional tower stage in front of a [`DenseStack`]) used for the quality
//!   experiments (Tables 2–6). Building it with a [`dmt_core::TowerPartition`] and a
//!   [`dmt_core::DmtConfig`] produces the DMT variant: per-tower embeddings pass
//!   through a tower module before the global interaction, exactly the hierarchical
//!   feature interaction of §3.2.
//! * [`PaperScaleSpec`] — an *analytic* description of the full-scale models (90 GB
//!   open-source models, 2 T-parameter XLRM) used by the throughput simulator, which
//!   only needs FLOPs/sample, embedding bytes/sample and parameter counts.
//!
//! # Example
//!
//! ```
//! use dmt_data::{DatasetSchema, SyntheticClickDataset};
//! use dmt_models::{ModelArch, ModelHyperparams, RecommendationModel};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let schema = DatasetSchema::criteo_like_small();
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut model = RecommendationModel::baseline(
//!     &mut rng,
//!     &schema,
//!     ModelArch::Dlrm,
//!     &ModelHyperparams::tiny(),
//! )?;
//! let mut data = SyntheticClickDataset::new(schema, 1);
//! let batch = data.next_batch(32);
//! let stats = model.train_step(&batch, 0.001)?;
//! assert!(stats.loss.is_finite());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub mod analytic;
pub mod dense;
pub mod hyper;
pub mod model;

pub use analytic::PaperScaleSpec;
pub use dense::{DenseScratch, DenseStack};
pub use hyper::{ModelArch, ModelHyperparams};
pub use model::{ModelError, RecommendationModel, TrainStepStats};
