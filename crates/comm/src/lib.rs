//! Real (executable) collective communication for the DMT reproduction.
//!
//! The analytical half of this workspace (`dmt-commsim`) *predicts* what NCCL
//! collectives cost on a two-level datacenter fabric. This crate *executes* them: a
//! [`Backend`] trait with the collectives recommendation training needs, and a
//! thread-per-rank shared-memory implementation ([`SharedMemoryComm`] /
//! [`SharedMemoryBackend`]) that maps each rank of a
//! [`dmt_topology::ProcessGroup`] onto a `std::thread` and moves real buffers
//! between them. `dmt-trainer::distributed` drives real sharded-embedding and
//! tower-parallel training iterations through it.
//!
//! Three properties make the backend useful as a *measurement* instrument and not
//! just a transport:
//!
//! * **Determinism** — reductions fold contributions in rank order, so every result
//!   is bit-identical to a serial reference regardless of thread scheduling (see the
//!   workspace property tests).
//! * **Link accounting** — every collective records how many bytes crossed
//!   intra-host vs cross-host links in the mapped [`dmt_topology::ClusterTopology`],
//!   the quantity the paper's whole argument is about.
//! * **Fabric pacing** — an optional [`FabricProfile`] stalls each call to the
//!   modeled link bandwidths, so measured wall-clock time reflects the topology
//!   instead of the host's memcpy speed.
//!
//! The collectives pipelined training overlaps with compute — both AlltoAlls and
//! the AllReduce — also exist in a `*_nonblocking` form returning a
//! [`PendingOp`] completion handle (`wait()` / `is_complete()` / `try_complete()`):
//! the shared-memory implementation runs the transfer — including its fabric
//! pacing — on a helper thread, so rank compute issued between `issue` and `wait`
//! genuinely overlaps the communication. Completed ops are stamped with
//! issue/complete instants on a process-wide clock ([`comm_clock_s`]), which is how
//! the execution engine measures *exposed* (non-hidden) communication per op.
//!
//! # Failure semantics
//!
//! Failures are observable, never deadlocks. A per-collective deadline
//! ([`SharedMemoryBackend::set_op_timeout`]) turns a dead or stalled peer into
//! [`CommError::Timeout`] naming the missing ranks; survivors can then exclude the
//! dead rank ([`SharedMemoryBackend::mark_down`]) so pending and future collectives
//! complete without it, while the excluded rank itself is fenced with
//! [`CommError::RankDown`] until readmitted. The [`fault`] module injects exactly
//! these failures on a deterministic schedule ([`FaultProfile`] /
//! [`FaultInjectingBackend`]) so availability experiments are reproducible.
//!
//! # Example
//!
//! ```
//! use dmt_comm::{Backend, SharedMemoryComm};
//! use std::thread;
//!
//! let handles = SharedMemoryComm::handles(4)?;
//! thread::scope(|scope| {
//!     for mut backend in handles {
//!         scope.spawn(move || {
//!             let mut grads = vec![backend.rank() as f32; 8];
//!             backend.all_reduce(&mut grads).unwrap();
//!             assert_eq!(grads[0], 0.0 + 1.0 + 2.0 + 3.0);
//!         });
//!     }
//! });
//! # Ok::<(), dmt_comm::CommError>(())
//! ```

#![deny(missing_docs)]

pub mod backend;
pub mod codec;
pub mod fabric;
pub mod fault;
pub mod pending;
pub mod shmem;

pub use backend::{Backend, CommError, CommOp, OpRecord};
pub use codec::WireFormat;
pub use fabric::FabricProfile;
pub use fault::{FaultEvent, FaultInjectingBackend, FaultKind, FaultProfile};
pub use pending::PendingOp;
pub use shmem::{comm_clock_s, AbortHandle, SharedMemoryBackend, SharedMemoryComm, TraceTarget};
