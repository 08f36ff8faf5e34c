//! Bench-regression gating: compare a fresh benchmark JSON against a committed
//! baseline and fail on throughput regressions.
//!
//! Both files are JSON arrays of objects carrying at least `op` (string), `shape`
//! (string) and `ns_per_iter` (number) — the schema `bench_kernels`,
//! `bench_slo` and `bench_quant` emit. Entries are matched on `(op, shape)`; an entry whose
//! fresh throughput (`1 / ns_per_iter`) falls below `1 - max_regression` of the
//! baseline's is a regression. Ops present only on one side are reported but do not
//! fail the gate (benchmarks legitimately gain and drop configurations — e.g. the
//! `--quick` CI run measures a subset of the committed full run).
//!
//! Baselines are absolute timings, so they are only meaningful against the machine
//! class that produced them: when the gate's enforcing environment changes (a new
//! CI runner generation, different core count), re-measure and commit fresh
//! baselines there rather than widening the regression budget.

use serde_json::Value;

/// One benchmark entry, as read from a results file.
#[derive(Debug, Clone, PartialEq)]
pub struct GateEntry {
    /// Kernel / operation name.
    pub op: String,
    /// Problem shape label.
    pub shape: String,
    /// Nanoseconds per iteration (lower is faster).
    pub ns_per_iter: f64,
}

/// Comparison of one `(op, shape)` pair present in both files.
#[derive(Debug, Clone, PartialEq)]
pub struct GateComparison {
    /// Kernel / operation name.
    pub op: String,
    /// Problem shape label.
    pub shape: String,
    /// Baseline nanoseconds per iteration.
    pub baseline_ns: f64,
    /// Fresh nanoseconds per iteration.
    pub fresh_ns: f64,
}

impl GateComparison {
    /// Fresh throughput relative to the baseline (`1.0` = unchanged, `0.5` = half
    /// the baseline's throughput, `2.0` = twice as fast).
    #[must_use]
    pub fn throughput_ratio(&self) -> f64 {
        self.baseline_ns / self.fresh_ns
    }
}

/// Result of comparing a fresh results file against a baseline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GateReport {
    /// Entries present in both files, in baseline order.
    pub comparisons: Vec<GateComparison>,
    /// `(op, shape)` labels present only in the baseline.
    pub missing_in_fresh: Vec<String>,
    /// `(op, shape)` labels present only in the fresh file.
    pub new_in_fresh: Vec<String>,
}

impl GateReport {
    /// Comparisons whose fresh throughput regressed by more than `max_regression`
    /// (e.g. `0.30` fails anything slower than 70% of the baseline).
    #[must_use]
    pub fn regressions(&self, max_regression: f64) -> Vec<&GateComparison> {
        self.comparisons
            .iter()
            .filter(|c| c.throughput_ratio() < 1.0 - max_regression)
            .collect()
    }

    /// Whether the gate passes: at least one comparable entry and no regression
    /// beyond `max_regression`.
    #[must_use]
    pub fn passes(&self, max_regression: f64) -> bool {
        !self.comparisons.is_empty() && self.regressions(max_regression).is_empty()
    }
}

/// Parses a benchmark results file into gate entries.
///
/// Rows without an `ns_per_iter` field are *summary rows* (a tracker may
/// append a run-level summary object after its gated entries — see
/// `bench_slo`) and are skipped, not errors.
///
/// # Errors
///
/// Returns a description of the first structural problem: malformed JSON, a
/// non-array root, an entry missing `op` / `shape`, or a present `ns_per_iter`
/// that is not a positive number.
pub fn parse_entries(json: &str) -> Result<Vec<GateEntry>, String> {
    let value: Value = json
        .parse()
        .map_err(|e| format!("malformed results JSON: {e}"))?;
    let items = value
        .as_array()
        .ok_or_else(|| "results root must be a JSON array".to_string())?;
    items
        .iter()
        .enumerate()
        .filter_map(|(i, item)| {
            let field = |name: &str| {
                item.get(name)
                    .ok_or_else(|| format!("entry {i} is missing `{name}`"))
            };
            let ns = match item.get("ns_per_iter") {
                None => return None, // summary row: reported, never gated
                Some(ns) => ns.as_f64().filter(|ns| *ns > 0.0),
            };
            Some((|| {
                Ok(GateEntry {
                    op: field("op")?
                        .as_str()
                        .ok_or_else(|| format!("entry {i}: `op` must be a string"))?
                        .to_string(),
                    shape: field("shape")?
                        .as_str()
                        .ok_or_else(|| format!("entry {i}: `shape` must be a string"))?
                        .to_string(),
                    ns_per_iter: ns.ok_or_else(|| {
                        format!("entry {i}: `ns_per_iter` must be a positive number")
                    })?,
                })
            })())
        })
        .collect()
}

/// Matches baseline and fresh entries on `(op, shape)`.
///
/// Duplicate `(op, shape)` pairs (the same op measured at several moments) keep the
/// first occurrence, matching how the bench binaries emit them.
#[must_use]
pub fn compare(baseline: &[GateEntry], fresh: &[GateEntry]) -> GateReport {
    let key = |e: &GateEntry| format!("{} [{}]", e.op, e.shape);
    let find = |entries: &[GateEntry], op: &str, shape: &str| {
        entries
            .iter()
            .find(|e| e.op == op && e.shape == shape)
            .map(|e| e.ns_per_iter)
    };
    let mut report = GateReport::default();
    for b in baseline {
        match find(fresh, &b.op, &b.shape) {
            Some(fresh_ns) => {
                if report
                    .comparisons
                    .iter()
                    .all(|c| c.op != b.op || c.shape != b.shape)
                {
                    report.comparisons.push(GateComparison {
                        op: b.op.clone(),
                        shape: b.shape.clone(),
                        baseline_ns: b.ns_per_iter,
                        fresh_ns,
                    });
                }
            }
            None => report.missing_in_fresh.push(key(b)),
        }
    }
    for f in fresh {
        if find(baseline, &f.op, &f.shape).is_none() {
            report.new_in_fresh.push(key(f));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(op: &str, shape: &str, ns: f64) -> GateEntry {
        GateEntry {
            op: op.into(),
            shape: shape.into(),
            ns_per_iter: ns,
        }
    }

    #[test]
    fn parses_the_bench_schema() {
        let json = r#"[
            {"op": "gemm_parallel", "shape": "512x512x512", "ns_per_iter": 4967002.0,
             "gflops": 54.04, "iters": 81}
        ]"#;
        let entries = parse_entries(json).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].op, "gemm_parallel");
        assert!((entries[0].ns_per_iter - 4_967_002.0).abs() < 1.0);
    }

    #[test]
    fn rejects_malformed_files() {
        assert!(parse_entries("not json").is_err());
        assert!(parse_entries(r#"{"op": "x"}"#).is_err());
        assert!(parse_entries(r#"[{"op": "x", "shape": "s", "ns_per_iter": -1}]"#).is_err());
        assert!(parse_entries(r#"[{"op": "x", "shape": "s", "ns_per_iter": "4"}]"#).is_err());
    }

    #[test]
    fn summary_rows_without_ns_per_iter_are_skipped_not_errors() {
        let json = r#"[
            {"op": "gated", "shape": "s", "ns_per_iter": 10.0},
            {"op": "run_summary", "shape": "s", "recovery_ms": 2.7, "availability": 0.96}
        ]"#;
        let entries = parse_entries(json).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].op, "gated");
    }

    #[test]
    fn flags_only_regressions_beyond_the_threshold() {
        let baseline = vec![entry("a", "s", 100.0), entry("b", "s", 100.0)];
        // `a` is 25% slower (throughput 0.8): within a 30% budget.
        // `b` is 2x slower (throughput 0.5): a regression.
        let fresh = vec![entry("a", "s", 125.0), entry("b", "s", 200.0)];
        let report = compare(&baseline, &fresh);
        let regressions = report.regressions(0.30);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].op, "b");
        assert!(!report.passes(0.30));
        assert!(report.passes(0.60));
    }

    #[test]
    fn speedups_always_pass() {
        let baseline = vec![entry("a", "s", 100.0)];
        let fresh = vec![entry("a", "s", 10.0)];
        let report = compare(&baseline, &fresh);
        assert!(report.passes(0.30));
        assert!((report.comparisons[0].throughput_ratio() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_sets_are_reported_and_fail() {
        let baseline = vec![entry("a", "s", 100.0), entry("gone", "s", 50.0)];
        let fresh = vec![entry("a", "s", 100.0), entry("new", "s", 10.0)];
        let report = compare(&baseline, &fresh);
        assert_eq!(report.missing_in_fresh, vec!["gone [s]"]);
        assert_eq!(report.new_in_fresh, vec!["new [s]"]);
        assert!(report.passes(0.30), "presence changes alone do not fail");
        // ... but an empty intersection does.
        let report = compare(&[entry("only", "s", 1.0)], &[entry("other", "s", 1.0)]);
        assert!(!report.passes(0.30));
    }

    #[test]
    fn duplicate_pairs_keep_the_first_occurrence() {
        let baseline = vec![entry("a", "s", 100.0), entry("a", "s", 999.0)];
        let fresh = vec![entry("a", "s", 100.0)];
        let report = compare(&baseline, &fresh);
        assert_eq!(report.comparisons.len(), 1);
        assert!((report.comparisons[0].baseline_ns - 100.0).abs() < 1e-9);
    }
}
