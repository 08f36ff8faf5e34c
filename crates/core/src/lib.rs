//! Disaggregated Multi-Tower (DMT): the paper's primary contribution.
//!
//! DMT is a topology-aware modeling technique for large-scale recommendation models,
//! built from three cooperating pieces, each implemented in its own module:
//!
//! * [`sptt`] — the **Semantic-Preserving Tower Transform**: a decomposition of the
//!   global embedding-exchange AlltoAll into a feature-distribution AlltoAll, a local
//!   lookup, a peer permute, an intra-host collective, a local shuffle and `L`
//!   concurrent *peer* AlltoAlls whose world size is only the number of towers. The
//!   module both *simulates the dataflow symbolically* (so semantic equivalence with
//!   the classic flow is machine-checked) and *accounts the bytes* each step moves over
//!   each link class (so the communication simulator can time it).
//! * [`tower`] — **Tower Modules**: per-tower dense networks (a linear ensemble for
//!   DLRM, a small CrossNet for DCN) that compress each tower's embedding output before
//!   the cross-host step, with an explicit compression ratio.
//! * [`partition`] — the **Tower Partitioner**: a learned, balanced feature
//!   partitioner that probes feature affinity with a cosine-similarity kernel, embeds
//!   features into a low-dimensional Euclidean space by minimizing a stress objective
//!   with Adam, and groups them with constrained K-Means (coherent or diverse
//!   strategy). A naive strided partitioner is included as the paper's baseline.
//! * [`config`] — the [`config::DmtConfig`] builder tying the pieces together.
//!
//! # Example: check that SPTT is semantics-preserving
//!
//! ```
//! use dmt_core::sptt::SpttPlan;
//! use dmt_topology::{ClusterTopology, HardwareGeneration, TowerPlacement};
//!
//! let cluster = ClusterTopology::new(HardwareGeneration::A100, 2, 2)?;
//! let placement = TowerPlacement::one_tower_per_host(&cluster);
//! // 4 features, one per GPU, 4 local samples per rank.
//! let plan = SpttPlan::new(&cluster, &placement, 4, 4)?;
//! assert!(plan.verify_semantic_equivalence());
//! # Ok::<(), dmt_core::DmtError>(())
//! ```

#![deny(missing_docs)]

pub mod config;
pub mod error;
pub mod partition;
pub mod sptt;
pub mod tower;

pub use config::{DmtConfig, TowerModuleKind};
pub use error::DmtError;
pub use partition::{naive_partition, PartitionStrategy, TowerPartition, TowerPartitioner};
pub use sptt::{SpttCommVolumes, SpttPlan};
pub use tower::{DcnTowerModule, DcnTowerScratch, DlrmTowerModule, DlrmTowerScratch, TowerModule};
