//! Admission control and micro-batching: size- and deadline-triggered batch
//! close.
//!
//! Online requests arrive one at a time but the engine amortizes its collectives
//! over batches, so a batcher sits between them: requests queue until either the
//! batch is **full** (`max_batch`, the size trigger — throughput path) or the
//! **earliest close deadline** among queued requests has passed (the deadline
//! trigger — latency floor under trickle traffic). [`MicroBatcher::push`] gives
//! every request the default close deadline `arrival + max_delay`, so the
//! trigger reduces to "the oldest request has waited `max_delay`";
//! [`MicroBatcher::push_by`] lets the admission controller tighten a request's
//! close deadline from its SLO budget, so a deadline-carrying request is never
//! held longer than its slack allows.
//!
//! The batcher is pure data + virtual time (microsecond ticks supplied by the
//! caller), so its trigger semantics are directly property-testable; the serving
//! frontend drives it with real clocks.

/// Batch-close policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatcherConfig {
    /// Size trigger: a batch closes as soon as it holds this many requests.
    pub max_batch: usize,
    /// Deadline trigger, in microseconds: a non-empty batch closes once its
    /// oldest request has waited this long.
    pub max_delay_us: u64,
}

impl BatcherConfig {
    /// A policy with the given size and delay triggers.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    #[must_use]
    pub fn new(max_batch: usize, max_delay_us: u64) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        Self {
            max_batch,
            max_delay_us,
        }
    }
}

/// A queued request, its arrival tick and its close deadline.
#[derive(Debug, Clone)]
struct Pending<T> {
    close_by_us: u64,
    item: T,
}

/// Size- and deadline-triggered micro-batcher over items of type `T`.
#[derive(Debug, Clone)]
pub struct MicroBatcher<T> {
    config: BatcherConfig,
    queue: Vec<Pending<T>>,
    size_closes: u64,
    deadline_closes: u64,
}

impl<T> MicroBatcher<T> {
    /// Creates an empty batcher with the given policy.
    #[must_use]
    pub fn new(config: BatcherConfig) -> Self {
        Self {
            config,
            queue: Vec::with_capacity(config.max_batch.min(1024)),
            size_closes: 0,
            deadline_closes: 0,
        }
    }

    /// The configured policy.
    #[must_use]
    pub fn config(&self) -> BatcherConfig {
        self.config
    }

    /// Replaces the policy for what is pushed from now on; queued requests
    /// keep the close deadlines they were pushed with.
    pub fn set_config(&mut self, config: BatcherConfig) {
        self.config = config;
    }

    /// Requests currently queued (always `< max_batch` between calls).
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Batches closed by the size trigger so far.
    #[must_use]
    pub fn size_closes(&self) -> u64 {
        self.size_closes
    }

    /// Batches closed by the deadline trigger so far.
    #[must_use]
    pub fn deadline_closes(&self) -> u64 {
        self.deadline_closes
    }

    /// Admits a request at tick `now_us` with the default close deadline
    /// `now_us + max_delay_us`. Returns the closed batch (FIFO order) when the
    /// admission fills it to `max_batch`.
    pub fn push(&mut self, now_us: u64, item: T) -> Option<Vec<T>> {
        let close_by_us = now_us.saturating_add(self.config.max_delay_us);
        self.push_by(close_by_us, item)
    }

    /// Admits a request with an explicit close deadline: the deadline trigger
    /// fires no later than `close_by_us` while this request is queued. The
    /// admission controller derives `close_by_us` from the request's SLO
    /// deadline minus its service estimate, so an admitted request's batch
    /// always closes with enough slack to finish in time. Returns the closed
    /// batch (FIFO order) on a size close.
    pub fn push_by(&mut self, close_by_us: u64, item: T) -> Option<Vec<T>> {
        self.queue.push(Pending { close_by_us, item });
        if self.queue.len() >= self.config.max_batch {
            self.size_closes += 1;
            return Some(self.drain());
        }
        None
    }

    /// Fires the deadline trigger: returns the queued batch if any queued
    /// request's close deadline has arrived by tick `now_us`.
    pub fn poll(&mut self, now_us: u64) -> Option<Vec<T>> {
        let earliest = self.next_deadline_us()?;
        if now_us >= earliest {
            self.deadline_closes += 1;
            return Some(self.drain());
        }
        None
    }

    /// The tick at which [`MicroBatcher::poll`] will fire — the earliest close
    /// deadline over the queue — if anything is queued.
    #[must_use]
    pub fn next_deadline_us(&self) -> Option<u64> {
        self.queue.iter().map(|p| p.close_by_us).min()
    }

    /// Closes whatever is queued regardless of triggers (stream shutdown).
    pub fn flush(&mut self) -> Option<Vec<T>> {
        if self.queue.is_empty() {
            return None;
        }
        Some(self.drain())
    }

    fn drain(&mut self) -> Vec<T> {
        self.queue.drain(..).map(|p| p.item).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batcher(max_batch: usize, delay: u64) -> MicroBatcher<u32> {
        MicroBatcher::new(BatcherConfig::new(max_batch, delay))
    }

    #[test]
    fn size_trigger_closes_exactly_at_capacity() {
        let mut b = batcher(3, 1_000);
        assert!(b.push(0, 1).is_none());
        assert!(b.push(1, 2).is_none());
        let batch = b.push(2, 3).expect("third push closes");
        assert_eq!(batch, vec![1, 2, 3]);
        assert!(b.is_empty());
        assert_eq!(b.size_closes(), 1);
        assert_eq!(b.deadline_closes(), 0);
    }

    #[test]
    fn deadline_trigger_waits_for_the_oldest() {
        let mut b = batcher(8, 100);
        assert!(b.push(0, 1).is_none());
        assert!(b.push(50, 2).is_none());
        assert!(b.poll(99).is_none(), "99us < 100us deadline");
        let batch = b.poll(100).expect("deadline reached");
        assert_eq!(batch, vec![1, 2]);
        assert_eq!(b.deadline_closes(), 1);
        assert!(b.poll(10_000).is_none(), "empty queue never fires");
    }

    #[test]
    fn next_deadline_tracks_the_head() {
        let mut b = batcher(8, 100);
        assert_eq!(b.next_deadline_us(), None);
        let _ = b.push(40, 1);
        assert_eq!(b.next_deadline_us(), Some(140));
    }

    #[test]
    fn flush_drains_the_remainder() {
        let mut b = batcher(8, 100);
        let _ = b.push(0, 7);
        assert_eq!(b.flush(), Some(vec![7]));
        assert_eq!(b.flush(), None);
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_batch_size_is_rejected() {
        let _ = BatcherConfig::new(0, 10);
    }

    #[test]
    fn explicit_close_deadline_tightens_the_trigger() {
        let mut b = batcher(8, 1_000);
        // A default push at t=0 would close at 1000; an SLO-constrained request
        // arriving later but closing at 300 pulls the trigger forward.
        let _ = b.push(0, 1);
        let _ = b.push_by(300, 2);
        assert_eq!(b.next_deadline_us(), Some(300));
        assert!(b.poll(299).is_none());
        let batch = b.poll(300).expect("tight deadline fires");
        assert_eq!(batch, vec![1, 2]);
        assert_eq!(b.deadline_closes(), 1);
    }

    #[test]
    fn close_deadlines_need_not_be_monotone() {
        let mut b = batcher(8, 1_000);
        let _ = b.push_by(500, 1);
        let _ = b.push_by(100, 2); // later arrival, earlier close
        assert_eq!(b.next_deadline_us(), Some(100));
        assert_eq!(b.poll(100), Some(vec![1, 2]));
    }
}
