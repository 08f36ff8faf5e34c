//! Completion handles for nonblocking collectives.
//!
//! A [`PendingOp`] is the communication analogue of a future: issuing a
//! `*_nonblocking` collective on a [`crate::Backend`] returns one immediately, the
//! transfer proceeds on a helper thread (including any [`crate::FabricProfile`]
//! pacing), and the caller claims the result later with [`PendingOp::wait`] — or
//! polls with [`PendingOp::is_complete`] / [`PendingOp::try_complete`]. Compute that
//! runs between issue and wait overlaps the transfer, which is exactly the overlap
//! the pipelined execution engine (`dmt_trainer::distributed::pipeline`) measures.
//!
//! Two accounting hooks make the overlap observable:
//!
//! * every completed op leaves an [`crate::OpRecord`] stamped with issue/complete
//!   timestamps on the process-wide monotonic clock ([`crate::shmem::comm_clock_s`]),
//! * [`PendingOp::wait_timed`] reports how long the caller actually *blocked*, which
//!   is the op's exposed (non-hidden) time on that rank's critical path.

use crate::backend::CommError;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Shared completion cell between the issuing rank and the helper thread.
struct OpCell<T> {
    slot: Mutex<Option<Result<T, CommError>>>,
    done: Condvar,
}

/// Fills one [`PendingOp`]'s cell exactly once. Handed to whichever thread runs the
/// transfer; detached from the consumer-facing handle so either side can outlive the
/// other.
pub struct OpCompleter<T> {
    cell: Arc<OpCell<T>>,
}

impl<T> OpCompleter<T> {
    /// Publishes the op's result and wakes every waiter.
    pub fn complete(self, result: Result<T, CommError>) {
        let mut slot = match self.cell.slot.lock() {
            Ok(slot) => slot,
            Err(poisoned) => poisoned.into_inner(),
        };
        debug_assert!(slot.is_none(), "pending op completed twice");
        *slot = Some(result);
        self.cell.done.notify_all();
    }
}

/// Handle to a collective that may still be in flight.
///
/// Obtained from the `*_nonblocking` methods of [`crate::Backend`]. Dropping the
/// handle does not cancel the transfer — the collective still completes (its peers
/// depend on it) and still logs its [`crate::OpRecord`]; only the result is
/// discarded.
pub struct PendingOp<T> {
    cell: Arc<OpCell<T>>,
}

impl<T> std::fmt::Debug for PendingOp<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingOp")
            .field("complete", &self.is_complete())
            .finish()
    }
}

impl<T> PendingOp<T> {
    /// Creates a not-yet-complete handle plus the completer that will resolve it.
    #[must_use]
    pub fn channel() -> (Self, OpCompleter<T>) {
        let cell = Arc::new(OpCell {
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        (
            Self {
                cell: Arc::clone(&cell),
            },
            OpCompleter { cell },
        )
    }

    /// An already-completed handle — what a wrapper returns for an op it refused
    /// before issue (an injected fault).
    #[must_use]
    pub fn ready(result: Result<T, CommError>) -> Self {
        let (op, completer) = Self::channel();
        completer.complete(result);
        op
    }

    /// Whether the collective has finished (successfully or not). Never blocks.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        match self.cell.slot.lock() {
            Ok(slot) => slot.is_some(),
            Err(poisoned) => poisoned.into_inner().is_some(),
        }
    }

    /// Claims the result if the collective already finished, or returns the handle
    /// unchanged so the caller can keep computing. Never blocks.
    ///
    /// # Errors
    ///
    /// `Err(self)` means the op is still in flight — not a failure.
    pub fn try_complete(self) -> Result<Result<T, CommError>, Self> {
        {
            let mut slot = match self.cell.slot.lock() {
                Ok(slot) => slot,
                Err(poisoned) => poisoned.into_inner(),
            };
            if let Some(result) = slot.take() {
                return Ok(result);
            }
        }
        Err(self)
    }

    /// Blocks until the collective completes and returns its result.
    ///
    /// # Errors
    ///
    /// Returns whatever [`CommError`] the collective produced — including
    /// [`CommError::Aborted`] when the world was poisoned while the op was in
    /// flight.
    pub fn wait(self) -> Result<T, CommError> {
        self.wait_timed().0
    }

    /// [`PendingOp::wait`], additionally reporting the seconds this call spent
    /// blocked — the op's *exposed* time on the caller's critical path (zero when
    /// the transfer was fully hidden behind compute).
    pub fn wait_timed(self) -> (Result<T, CommError>, f64) {
        let start = Instant::now();
        let mut slot = match self.cell.slot.lock() {
            Ok(slot) => slot,
            Err(poisoned) => poisoned.into_inner(),
        };
        loop {
            if let Some(result) = slot.take() {
                return (result, start.elapsed().as_secs_f64());
            }
            slot = match self.cell.done.wait(slot) {
                Ok(slot) => slot,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn ready_ops_complete_immediately() {
        let op = PendingOp::ready(Ok(41));
        assert!(op.is_complete());
        assert_eq!(op.wait(), Ok(41));
    }

    #[test]
    fn try_complete_returns_handle_while_in_flight() {
        let (op, completer) = PendingOp::<u32>::channel();
        assert!(!op.is_complete());
        let op = op.try_complete().expect_err("still in flight");
        completer.complete(Ok(7));
        assert_eq!(op.try_complete().expect("now complete"), Ok(7));
    }

    #[test]
    fn wait_blocks_until_completion() {
        let (op, completer) = PendingOp::<u32>::channel();
        let handle = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            completer.complete(Ok(9));
        });
        let (result, blocked_s) = op.wait_timed();
        assert_eq!(result, Ok(9));
        assert!(blocked_s >= 0.015, "blocked {blocked_s}s");
        handle.join().unwrap();
    }

    #[test]
    fn wait_on_completed_op_barely_blocks() {
        let op = PendingOp::ready(Ok(3));
        let (result, blocked_s) = op.wait_timed();
        assert_eq!(result, Ok(3));
        assert!(blocked_s < 0.01);
    }

    #[test]
    fn errors_travel_through_the_handle() {
        let op: PendingOp<u32> = PendingOp::ready(Err(CommError::Aborted));
        assert_eq!(op.wait(), Err(CommError::Aborted));
    }
}
