//! A counted window of work against wall time — the accounting vocabulary of
//! the serving harness (`dmt-serve` request throughput).
//!
//! Throughput is quoted one way: `count` completed units over `wall_s`
//! seconds, with the derived per-second rate and nanoseconds-per-unit forms.
//! Keeping the conversion in one place means two throughput figures can never
//! disagree about rounding or zero-window handling.

use serde::{Deserialize, Serialize};

/// `count` completed work units measured over `wall_s` seconds of wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputWindow {
    /// Completed work units (requests, iterations, batches).
    pub count: usize,
    /// Wall-clock seconds of the measurement window.
    pub wall_s: f64,
}

impl ThroughputWindow {
    /// A window of `count` units over `wall_s` seconds.
    #[must_use]
    pub fn new(count: usize, wall_s: f64) -> Self {
        Self { count, wall_s }
    }

    /// Work units per second; 0 for an empty or zero-length window.
    #[must_use]
    pub fn per_second(&self) -> f64 {
        if self.count == 0 || self.wall_s <= 0.0 {
            return 0.0;
        }
        self.count as f64 / self.wall_s
    }

    /// Nanoseconds per work unit; 0 for an empty window.
    #[must_use]
    pub fn ns_per_item(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.wall_s * 1e9 / self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_and_ns_are_reciprocal() {
        let w = ThroughputWindow::new(500, 2.0);
        assert_eq!(w.per_second(), 250.0);
        assert!((w.ns_per_item() - 4e6).abs() < 1e-6);
        assert!((w.per_second() * w.ns_per_item() - 1e9).abs() < 1e-3);
    }

    #[test]
    fn empty_or_zero_windows_are_zero_not_nan() {
        assert_eq!(ThroughputWindow::new(0, 1.0).per_second(), 0.0);
        assert_eq!(ThroughputWindow::new(0, 1.0).ns_per_item(), 0.0);
        assert_eq!(ThroughputWindow::new(5, 0.0).per_second(), 0.0);
    }
}
