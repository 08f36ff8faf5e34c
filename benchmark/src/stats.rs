//! Order statistics the benchmark reports: medians, nearest-rank
//! percentiles, windowed percentiles and the quartile spread `compare` uses.

/// Median of `values` (mean of the two middle samples for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of consecutive windows a sample sequence is cut into.
pub const WINDOWS: usize = 10;

/// Index ranges of [`WINDOWS`] equal consecutive windows over `len` samples;
/// one window over everything when there is less than a sample per window.
pub fn windows(len: usize) -> Vec<std::ops::Range<usize>> {
    if len < WINDOWS {
        return std::iter::once(0..len).collect();
    }
    (0..WINDOWS)
        .map(|w| w * len / WINDOWS..(w + 1) * len / WINDOWS)
        .collect()
}

/// Percentile `p` of the best of [`WINDOWS`] equal consecutive windows: the
/// lowest per-window percentile. `samples` are times in time order.
///
/// On a shared host interference only ever adds time, and it comes in bursts
/// of seconds to a minute: identical 10 s runs gave whole-run medians from 16
/// to 47 ms and medians over windows from 17 to 21 ms, while the best window
/// stayed within 4%. A change to the program moves every window, the best one
/// included; a burst moves the windows it covers.
pub fn best_window_percentile(samples: &[f64], p: f64) -> f64 {
    windows(samples.len())
        .into_iter()
        .map(|w| percentile(&samples[w], p))
        .fold(f64::INFINITY, f64::min)
}

/// Items per second in the best window: the highest, over the windows of
/// [`windows`], of `items_per_op` times the operations in the window over the
/// time they took. `op_ms` are per-operation times in time order.
pub fn best_window_rate(op_ms: &[f64], items_per_op: f64) -> f64 {
    windows(op_ms.len())
        .into_iter()
        .map(|w| {
            let busy_s = op_ms[w.clone()].iter().sum::<f64>() / 1e3;
            items_per_op * w.len() as f64 / busy_s.max(1e-12)
        })
        .fold(0.0, f64::max)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) gives them. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale, clamped to the sample range.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range of `values` as a share of their median — the spread
/// the contract bounds. 0 below two samples or for a zero median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// For every `(start, end)` interval of `outer`, its length minus the part
/// covered by the union of `inner` intervals: the self time of a driver span
/// once the program's own spans inside it are taken out.
pub fn self_times(outer: &[(f64, f64)], inner: &[(f64, f64)]) -> Vec<f64> {
    let mut sorted = inner.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Disjoint union of the inner intervals, with a running covered length.
    let mut union: Vec<(f64, f64)> = Vec::with_capacity(sorted.len());
    for (start, end) in sorted {
        match union.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => union.push((start, end)),
        }
    }
    let mut prefix = Vec::with_capacity(union.len() + 1);
    prefix.push(0.0);
    for (start, end) in &union {
        prefix.push(prefix.last().expect("seeded") + (end - start));
    }
    // Covered length of the union below coordinate `x`.
    let covered_below = |x: f64| {
        let i = union.partition_point(|&(start, _)| start < x);
        if i == 0 {
            return 0.0;
        }
        let (start, end) = union[i - 1];
        prefix[i - 1] + (x.min(end) - start)
    };
    outer
        .iter()
        .map(|&(start, end)| (end - start) - (covered_below(end) - covered_below(start)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_use_nearest_rank() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn best_window_ignores_bursts_and_follows_a_real_slowdown() {
        // 1000 samples of 1.0; bursts of 3.0 cover windows 0..=6 entirely.
        let mut v = vec![1.0; 1000];
        v.iter_mut().take(700).for_each(|s| *s = 3.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(best_window_percentile(&v, 50.0), 1.0);
        assert_eq!(best_window_percentile(&v, 95.0), 1.0);
        // A slowdown of the program shows in every window, the best included.
        let slow: Vec<f64> = v.iter().map(|s| s * 1.5).collect();
        assert_eq!(best_window_percentile(&slow, 50.0), 1.5);
        // A tail that every window has stays in the tail percentile.
        let tailed: Vec<f64> = (0..1000)
            .map(|i| if i % 10 == 0 { 9.0 } else { 1.0 })
            .collect();
        assert_eq!(best_window_percentile(&tailed, 50.0), 1.0);
        assert_eq!(best_window_percentile(&tailed, 95.0), 9.0);
    }

    #[test]
    fn windows_are_ten_equal_consecutive_ranges() {
        let w = windows(105);
        assert_eq!(w.len(), WINDOWS);
        assert_eq!(w[0], 0..10);
        assert_eq!(w[9], 94..105);
        assert!(w.windows(2).all(|p| p[0].end == p[1].start));
        // Window w of 100 samples holds value w: the best median is window 0's.
        let v: Vec<f64> = (0..100).map(|i| f64::from(i / 10 + 1)).collect();
        assert_eq!(best_window_percentile(&v, 50.0), 1.0);
        // Too short for windows: one window, the plain percentile.
        assert_eq!(windows(3), vec![0..3]);
        assert_eq!(best_window_percentile(&[5.0, 1.0, 3.0], 50.0), 3.0);
    }

    #[test]
    fn best_window_rate_is_items_over_busy_time_of_the_fastest_window() {
        // 100 ops of 2 ms, the last ten of 1 ms: 64 items per op.
        let mut op_ms = vec![2.0; 100];
        op_ms.iter_mut().skip(90).for_each(|s| *s = 1.0);
        assert!((best_window_rate(&op_ms, 64.0) - 64_000.0).abs() < 1e-6);
        assert!((best_window_rate(&[2.0; 5], 64.0) - 32_000.0).abs() < 1e-6);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]).unwrap();
        assert_eq!((q1, q3), (10.0, 40.0));
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn self_time_subtracts_the_union_of_enclosed_spans() {
        let outer = [(0.0, 10.0), (20.0, 30.0), (40.0, 41.0)];
        // Two overlapping inner spans (union [2, 7]), one straddling the end
        // of the second outer span, none inside the third.
        let inner = [(2.0, 5.0), (4.0, 7.0), (28.0, 35.0)];
        let got = self_times(&outer, &inner);
        assert_eq!(got, vec![5.0, 8.0, 1.0]);
        assert_eq!(self_times(&outer, &[]), vec![10.0, 10.0, 1.0]);
    }
}
