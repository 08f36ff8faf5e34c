//! Latency percentiles (p50/p95/p99) from raw samples.
//!
//! Shared by the serving engine (`dmt-serve` per-request latency reporting) and the
//! trainer's `MeasuredRun` per-iteration wall-time reporting, so both sides of the
//! system quote tail latency the same way: the **nearest-rank** method on the sorted
//! samples (`value at index ⌈p/100 · n⌉ - 1`), which always returns an actually
//! observed sample and is exact on small inputs.

use serde::{Deserialize, Serialize};

/// Nearest-rank percentile of `samples`: the smallest observed value such that at
/// least `p` percent of samples are ≤ it. Returns 0 for an empty slice; `p` is
/// clamped to `[0, 100]` (p = 0 returns the minimum).
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    nearest_rank(&ascending(samples), p)
}

fn ascending(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    sorted
}

/// The sample at index `⌈p/100 · n⌉ - 1` of non-empty, ascending `sorted`.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// A p50/p95/p99 summary of latency samples, with mean and extremes.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyPercentiles {
    /// Number of samples.
    pub count: usize,
    /// Median (50th percentile, nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl LatencyPercentiles {
    /// Summarizes raw samples. Returns `None` for an empty slice.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let sorted = ascending(samples);
        Some(Self {
            count: sorted.len(),
            p50: nearest_rank(&sorted, 50.0),
            p95: nearest_rank(&sorted, 95.0),
            p99: nearest_rank(&sorted, 99.0),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_on_small_inputs() {
        // n = 5, sorted [10, 20, 30, 40, 50]:
        // p50 -> ceil(2.5) = rank 3 -> 30; p95 -> ceil(4.75) = 5 -> 50;
        // p20 -> ceil(1.0) = 1 -> 10; p0 -> min.
        let v = [40.0, 10.0, 50.0, 20.0, 30.0];
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 95.0), 50.0);
        assert_eq!(percentile(&v, 20.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
    }

    #[test]
    fn hundred_sample_ladder_hits_exact_ranks() {
        // samples 1..=100: pXX is exactly XX under nearest-rank.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let v = [7.5];
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&v, p), 7.5);
        }
    }

    #[test]
    fn empty_input_is_zero_or_none() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert!(LatencyPercentiles::of(&[]).is_none());
    }

    #[test]
    fn summary_combines_everything() {
        let s = LatencyPercentiles::of(&[3.0, 1.0, 2.0, 4.0]).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p95, 4.0);
        assert_eq!(s.p99, 4.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
    }

    #[test]
    fn summary_agrees_with_percentile() {
        let v: Vec<f64> = (0..37).map(|i| f64::from(i * i % 17)).collect();
        let s = LatencyPercentiles::of(&v).unwrap();
        assert_eq!(s.p50, percentile(&v, 50.0));
        assert_eq!(s.p95, percentile(&v, 95.0));
        assert_eq!(s.p99, percentile(&v, 99.0));
    }
}
