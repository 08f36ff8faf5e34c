//! The collective-communication backend abstraction the execution engine runs on.
//!
//! A [`Backend`] is one rank's handle into a communicator world: the same set of
//! operations NCCL exposes to a training framework, restricted to what recommendation
//! training and serving run (AlltoAll for embedding exchange, AllReduce for gradient
//! sync, Barrier for phase alignment).
//!
//! All operations are **collective**: every rank of the world must call the same
//! operation in the same order, or the world deadlocks — exactly the contract a real
//! communication library imposes. Implementations must also be **deterministic**:
//! reductions combine contributions in rank order so results are bit-identical across
//! runs and to a serial reference.

use crate::pending::PendingOp;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which collective operation a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommOp {
    /// Variable-shard AlltoAll of `f32` payloads.
    AllToAll,
    /// Variable-shard AlltoAll of `u64` index payloads.
    AllToAllIndices,
    /// Elementwise sum of equal-length buffers, every rank receives the result.
    AllReduce,
    /// Synchronization only; no payload.
    Barrier,
}

impl fmt::Display for CommOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CommOp::AllToAll => "all_to_all",
            CommOp::AllToAllIndices => "all_to_all_indices",
            CommOp::AllReduce => "all_reduce",
            CommOp::Barrier => "barrier",
        };
        write!(f, "{name}")
    }
}

/// One executed collective, as observed by one rank.
///
/// Byte counts follow the *wire accounting* of a bandwidth-optimal schedule (direct
/// pairwise sends for AlltoAll, a ring for AllReduce), split by the link
/// class each byte crosses in the mapped cluster topology. This is what makes measured
/// volumes directly comparable with the analytical cost model in `dmt-commsim`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpRecord {
    /// The collective that ran.
    pub op: CommOp,
    /// Payload bytes this rank contributed (its local input buffer size).
    pub payload_bytes: u64,
    /// Bytes this rank pushed over cross-host links.
    pub cross_host_bytes: u64,
    /// Bytes this rank pushed over intra-host links.
    pub intra_host_bytes: u64,
    /// Wall-clock seconds of the *transfer*, measured from the instant the last rank
    /// entered the collective (a rank's wait for stragglers is caller imbalance, not
    /// communication), including any fabric throttle.
    pub elapsed_s: f64,
    /// Instant this rank *issued* the op, in seconds on the process-wide monotonic
    /// clock ([`crate::shmem::comm_clock_s`]). For a blocking call this is the call
    /// entry; for a nonblocking call it is when the `*_nonblocking` method returned
    /// the [`PendingOp`].
    pub issued_at_s: f64,
    /// Instant the transfer completed (payload delivered and fabric pacing elapsed),
    /// on the same clock. `completed_at_s - issued_at_s` is the op's full lifetime;
    /// the part of it not covered by the issuing rank's compute is the op's
    /// *exposed* communication — the quantity the overlap engine minimizes.
    pub completed_at_s: f64,
}

impl OpRecord {
    /// Total bytes moved over any off-device link.
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        self.cross_host_bytes + self.intra_host_bytes
    }
}

/// Errors surfaced by collective calls.
///
/// The shared-memory implementation detects the cross-rank shape error
/// ([`CommError::LengthMismatch`]) *after* the rendezvous, so every rank of the
/// world observes the same error and nobody deadlocks.
/// [`CommError::ShardCountMismatch`] is different: it is local
/// validation of the caller's own arguments, returned *before* entering the
/// collective — a rank receiving it must treat the world as dead (abort it, e.g.
/// `SharedMemoryBackend::abort`) rather than proceed, since its peers are already
/// waiting for a deposit it never made.
///
/// The enum is `#[non_exhaustive]`: downstream matches must keep a wildcard arm,
/// so future failure modes (and the fault-injection variants
/// [`CommError::RankDown`] / [`CommError::Timeout`]) can be added without breaking
/// them. Retry logic should branch on [`CommError::is_transient`] rather than
/// enumerating variants.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The world would have zero ranks.
    EmptyWorld,
    /// An AlltoAll was called with a number of destination shards different from the
    /// world size.
    ShardCountMismatch {
        /// Number of shards provided.
        got: usize,
        /// World size (expected shard count).
        expected: usize,
    },
    /// Ranks disagreed on the buffer length of a reduction.
    LengthMismatch {
        /// The operation that observed the mismatch.
        op: CommOp,
        /// Buffer lengths deposited by each rank, in rank order.
        lengths: Vec<usize>,
    },
    /// The world was poisoned (a peer rank died or called `abort`) while this op was
    /// in flight. Surfaced through [`PendingOp`] handles instead of the panic the
    /// blocking path raises, so a pipelined caller can unwind cleanly.
    Aborted,
    /// A quantized payload could not be decoded: the received wire-word count does
    /// not match the element count the receiver expected (see [`crate::codec`]).
    Decode {
        /// Wire words the receiver's element count implies.
        expected_words: usize,
        /// Wire words actually received.
        got_words: usize,
    },
    /// A specific rank is known dead: either this rank itself was fenced out of the
    /// world (it missed a snapshot while its peers force-completed a collective
    /// without it, or a fault profile scripted its death), or a reduction observed a
    /// dead peer's missing contribution. Unlike [`CommError::Timeout`] this is
    /// *not* transient — the rank cannot rejoin until a peer marks it up again.
    RankDown {
        /// The rank known to be down.
        rank: usize,
    },
    /// The per-collective deadline expired before every live rank deposited. The
    /// caller's own deposit was withdrawn, so retrying the same collective is safe:
    /// whichever retry completes the rendezvous publishes exactly one snapshot and
    /// every live rank stays aligned on the collective sequence.
    Timeout {
        /// The collective that timed out.
        op: CommOp,
        /// How long this rank waited, in milliseconds.
        waited_ms: u64,
        /// Ranks that had not deposited (and were not already marked down) when the
        /// deadline expired — the suspects for failure detection.
        missing: Vec<usize>,
    },
}

impl CommError {
    /// Whether retrying the failed collective may succeed.
    ///
    /// Only [`CommError::Timeout`] is transient: the timed-out rank withdrew its
    /// deposit, so it can re-enter the same rendezvous generation (optionally after
    /// marking slow peers down so the world completes without them). Everything
    /// else is a shape bug, a dead rank, or a dead world — retrying cannot help.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, CommError::Timeout { .. })
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::EmptyWorld => write!(f, "communicator world must have at least one rank"),
            CommError::ShardCountMismatch { got, expected } => {
                write!(f, "all_to_all got {got} shards for a world of {expected}")
            }
            CommError::LengthMismatch { op, lengths } => {
                write!(f, "{op} buffer lengths differ across ranks: {lengths:?}")
            }
            CommError::Aborted => {
                write!(f, "collective aborted: a peer rank exited mid-iteration")
            }
            CommError::Decode {
                expected_words,
                got_words,
            } => {
                write!(
                    f,
                    "quantized payload of {got_words} wire words does not match the expected {expected_words}"
                )
            }
            CommError::RankDown { rank } => {
                write!(f, "rank {rank} is down")
            }
            CommError::Timeout {
                op,
                waited_ms,
                missing,
            } => {
                write!(
                    f,
                    "{op} timed out after {waited_ms}ms waiting for ranks {missing:?}"
                )
            }
        }
    }
}

impl std::error::Error for CommError {}

/// One rank's handle to a communicator world.
///
/// See the [module docs](self) for the collective-call contract.
pub trait Backend {
    /// This rank's index within the world, in `0..world_size`.
    fn rank(&self) -> usize;

    /// Number of ranks in the world.
    fn world_size(&self) -> usize;

    /// Blocks until every rank of the world has entered the barrier.
    ///
    /// # Errors
    ///
    /// Implementations may surface transport errors; the shared-memory backend never
    /// fails a barrier.
    fn barrier(&mut self) -> Result<(), CommError>;

    /// Variable-shard AlltoAll: `sends[d]` is delivered to rank `d`; the returned
    /// vector holds one received shard per source rank, in rank order (`result[s]`
    /// came from rank `s`). Shards may have arbitrary (including zero) lengths.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::ShardCountMismatch`] if `sends.len() != world_size`.
    fn all_to_all(&mut self, sends: Vec<Vec<f32>>) -> Result<Vec<Vec<f32>>, CommError>;

    /// [`Backend::all_to_all`] for `u64` payloads (sparse indices, row ids).
    ///
    /// # Errors
    ///
    /// Returns [`CommError::ShardCountMismatch`] if `sends.len() != world_size`.
    fn all_to_all_indices(&mut self, sends: Vec<Vec<u64>>) -> Result<Vec<Vec<u64>>, CommError>;

    /// Elementwise sum of every rank's `buf`, written back into `buf` on every rank.
    /// Contributions are combined in rank order, so the result is bit-identical to a
    /// serial left-to-right fold.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::LengthMismatch`] if ranks disagree on `buf.len()`; every
    /// rank observes the same error.
    fn all_reduce(&mut self, buf: &mut [f32]) -> Result<(), CommError>;

    /// [`Backend::all_reduce`] with the operands carried at `wire` precision: each
    /// rank's contribution is rounded through the [`crate::codec`] once before it
    /// is combined, and only the encoded bytes move — and are accounted.
    /// Accumulation stays in `f32` (one rounding per contribution, rank-ordered
    /// fold), so results remain bit-identical across runs. `WireFormat::Fp32` is
    /// exactly [`Backend::all_reduce`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Backend::all_reduce`], plus [`CommError::Decode`] if a
    /// peer's encoded contribution does not match the buffer's element count.
    fn all_reduce_cast(
        &mut self,
        buf: &mut [f32],
        wire: crate::codec::WireFormat,
    ) -> Result<(), CommError>;

    /// Returns the records of every collective executed since the last drain, in
    /// execution order, clearing the log.
    ///
    /// Nonblocking ops log their record when the *transfer* completes, not when they
    /// are issued; drain after [`PendingOp::wait`] to observe them.
    fn drain_records(&mut self) -> Vec<OpRecord>;

    // --- Nonblocking variants -------------------------------------------------
    //
    // The collectives the pipelined training schedule overlaps with compute — the
    // two AlltoAlls and the AllReduce — also come in a `*_nonblocking` form that
    // issues the collective and returns a completion handle immediately; compute
    // performed before `wait()` overlaps the transfer. Ordering contract: on one
    // backend handle, collectives run in *issue order* (like ops on a CUDA
    // stream), blocking calls included, so a world stays deadlock-free as long as
    // every rank issues the same sequence — the same contract the blocking API
    // has. Errors (including cross-rank shape mismatches and `CommError::Aborted`)
    // are delivered through the handle; a rank receiving one must treat the world
    // as dead and abort it.

    /// Nonblocking [`Backend::all_to_all`].
    fn all_to_all_nonblocking(&mut self, sends: Vec<Vec<f32>>) -> PendingOp<Vec<Vec<f32>>>;

    /// Nonblocking [`Backend::all_to_all_indices`].
    fn all_to_all_indices_nonblocking(&mut self, sends: Vec<Vec<u64>>) -> PendingOp<Vec<Vec<u64>>>;

    /// Nonblocking [`Backend::all_reduce_cast`]. Takes the buffer by value (the
    /// transfer owns it while in flight) and returns the reduced buffer through the
    /// handle; `WireFormat::Fp32` is the nonblocking [`Backend::all_reduce`].
    fn all_reduce_cast_nonblocking(
        &mut self,
        buf: Vec<f32>,
        wire: crate::codec::WireFormat,
    ) -> PendingOp<Vec<f32>>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_display_names() {
        assert_eq!(CommOp::AllToAll.to_string(), "all_to_all");
        assert_eq!(CommOp::Barrier.to_string(), "barrier");
    }

    #[test]
    fn error_display_is_informative() {
        let e = CommError::ShardCountMismatch {
            got: 3,
            expected: 8,
        };
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('8'));
        let e = CommError::LengthMismatch {
            op: CommOp::AllReduce,
            lengths: vec![10, 4],
        };
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn record_wire_bytes_sums_link_classes() {
        let r = OpRecord {
            op: CommOp::AllReduce,
            payload_bytes: 100,
            cross_host_bytes: 30,
            intra_host_bytes: 50,
            elapsed_s: 1e-6,
            issued_at_s: 1.0,
            completed_at_s: 1.5,
        };
        assert_eq!(r.wire_bytes(), 80);
        assert!(r.completed_at_s > r.issued_at_s);
    }

    #[test]
    fn aborted_error_mentions_the_cause() {
        assert!(CommError::Aborted.to_string().contains("aborted"));
    }

    #[test]
    fn only_timeouts_are_transient() {
        let timeout = CommError::Timeout {
            op: CommOp::AllToAll,
            waited_ms: 12,
            missing: vec![3],
        };
        assert!(timeout.is_transient());
        assert!(timeout.to_string().contains("12"));
        assert!(timeout.to_string().contains("[3]"));
        let down = CommError::RankDown { rank: 5 };
        assert!(!down.is_transient());
        assert!(down.to_string().contains('5'));
        assert!(!CommError::Aborted.is_transient());
        assert!(!CommError::EmptyWorld.is_transient());
    }
}
