//! Neural-network layers, losses and optimizers for the DMT quality experiments.
//!
//! Every dense layer implements an explicit `forward_into` / `backward_into` pair
//! instead of relying on a general autograd graph. Layers hold parameters only: a
//! forward writes into caller-owned buffers, and what it leaves there — its input and
//! the scratch it filled — is the activation record the matching backward reads. The
//! backward accumulates parameter gradients into [`Parameter::grad`] and writes the
//! gradient with respect to the input into a caller buffer. Training and serving
//! therefore run one forward, and several forwards can be in flight at once, each
//! with its own record. This keeps the numerics small, auditable and easy to test
//! against finite differences (see the gradient-check tests in each module).
//!
//! The building blocks match what DLRM / DCN and the paper's tower modules need:
//!
//! * [`Linear`] and [`Mlp`] — dense layers and ReLU stacks (bottom/over arches).
//! * [`DotInteraction`] — DLRM's pairwise dot-product feature interaction.
//! * [`CrossNet`] — DCN-v2's cross layers, also reused as the DCN tower module.
//! * [`EmbeddingTable`] — sum-pooled embedding bags with sparse gradients and a fused
//!   row-wise Adagrad update (the standard optimizer for embedding tables).
//! * [`RowStore`] — `[n, dim]` rows at rest at one storage precision (f32, fp16, or
//!   int8 with a per-row scale), encoded and decoded in place without allocating.
//!   Frozen serving tables and the serving hot-row cache both keep their rows in one.
//! * [`QuantizedEmbeddingTable`] — a frozen serving table over a [`RowStore`] at any
//!   precision, f32 included, with allocation-free on-the-fly decoding.
//! * [`Sharded`] — one rank's row-block shard of a logical table, written once over
//!   any [`RowSource`]: [`ShardedEmbeddingTable`] (trainable, the local half of the
//!   distributed lookup/grad exchange the execution engine drives) and
//!   [`QuantizedShardedTable`] (frozen serving rows).
//! * [`BceWithLogitsLoss`] — the binary cross-entropy training objective.
//! * [`SgdOptimizer`] / [`AdamOptimizer`] — dense-parameter optimizers.
//!
//! # Example
//!
//! ```
//! use dmt_nn::{Linear, LinearScratch};
//! use dmt_tensor::Tensor;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut layer = Linear::new(&mut rng, 4, 2);
//! let (x, mut y, mut dx) = (Tensor::ones(&[3, 4]), Tensor::default(), Tensor::default());
//! let mut scratch = LinearScratch::default();
//! layer.forward_into(&x, false, &mut y, &mut scratch)?;
//! assert_eq!(y.shape(), &[3, 2]);
//! // The caller keeps `x`: it is the activation record the backward reads.
//! layer.backward_into(&x, &Tensor::ones(&[3, 2]), &mut dx, &mut scratch)?;
//! assert_eq!(dx.shape(), &[3, 4]);
//! # Ok::<(), dmt_tensor::TensorError>(())
//! ```

#![deny(missing_docs)]

pub mod activation;
pub mod crossnet;
pub mod embedding_table;
pub mod interaction;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod optim;
pub mod param;
pub mod quantized;
pub mod row_store;
pub mod sharded;

pub use crossnet::{CrossNet, CrossNetScratch};
pub use embedding_table::EmbeddingTable;
pub use interaction::DotInteraction;
pub use linear::{Linear, LinearScratch};
pub use loss::BceWithLogitsLoss;
pub use mlp::{Mlp, MlpScratch};
pub use optim::{AdamOptimizer, Optimizer, SgdOptimizer};
pub use param::Parameter;
pub use quantized::{QuantizedEmbeddingTable, QuantizedShardedTable};
pub use row_store::RowStore;
pub use sharded::{replica_rank, replica_sources, RowSource, Sharded, ShardedEmbeddingTable};
