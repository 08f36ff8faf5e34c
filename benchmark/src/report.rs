//! Result records: what a run prints, what `run --all` writes to
//! `results.json`, and how `compare` applies the bounds to two sets of them.

use crate::spec::{self, Better};
use crate::stats::{median, relative_iqr};
use crate::sut::{Metrics, Outcome};
use serde::json::Value;
use std::collections::BTreeMap;

pub const SCHEMA: &str = "dmt-benchmark-results/1";

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metric_object<'a>(metrics: &Metrics, names: impl Iterator<Item = (&'a str, &'a str)>) -> Value {
    Value::Object(
        names
            .map(|(name, unit)| {
                let value = metrics.get(name).copied().unwrap_or(0.0);
                let entry = object(vec![
                    ("value", Value::Number(value)),
                    ("unit", Value::String(unit.to_string())),
                ]);
                (name.to_string(), entry)
            })
            .collect(),
    )
}

/// Every end-to-end metric of an untraced run, every per-layer metric of a
/// traced one; a metric the run did not fill reads 0.
pub fn metrics_value(outcome: &Outcome, traced: bool) -> Value {
    if traced {
        metric_object(
            &outcome.metrics,
            spec::PER_LAYER.iter().map(|m| (m.name, m.unit)),
        )
    } else {
        metric_object(
            &outcome.metrics,
            spec::END_TO_END.iter().map(|m| (m.name, m.unit)),
        )
    }
}

/// The one-line result the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn driver_line(outcome: &Outcome, traced: bool) -> String {
    object(vec![
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::Number(outcome.attempted as f64)),
        ("failed", Value::Number(outcome.failed as f64)),
        ("metrics", metrics_value(outcome, traced)),
    ])
    .render()
}

/// The full record of one run, as `--record` writes it.
pub fn record(outcome: &Outcome, traced: bool) -> Value {
    let checks = outcome
        .checks
        .iter()
        .map(|c| {
            object(vec![
                ("name", Value::String(c.name.to_string())),
                ("passed", Value::Bool(c.passed)),
                ("detail", Value::String(c.detail.clone())),
            ])
        })
        .collect();
    object(vec![
        ("correct", Value::Bool(outcome.correct())),
        ("ops_attempted", Value::Number(outcome.attempted as f64)),
        ("ops_failed", Value::Number(outcome.failed as f64)),
        ("samples", Value::Number(outcome.samples as f64)),
        (
            "input_hash",
            Value::String(format!("{:016x}", outcome.input_hash)),
        ),
        ("metrics", metrics_value(outcome, traced)),
        ("checks", Value::Array(checks)),
    ])
}

/// `results.json`: the run's settings and, per workload, the record of its
/// untraced run under `end_to_end` and of its traced run under `per_layer`.
pub fn results(
    seed: u64,
    seconds: u64,
    nproc: usize,
    commit: &str,
    workloads: Vec<(String, Value, Value)>,
) -> Value {
    object(vec![
        ("schema", Value::String(SCHEMA.to_string())),
        ("seed", Value::Number(seed as f64)),
        ("seconds", Value::Number(seconds as f64)),
        ("nproc", Value::Number(nproc as f64)),
        ("commit", Value::String(commit.to_string())),
        (
            "workloads",
            Value::Object(
                workloads
                    .into_iter()
                    .map(|(name, end_to_end, per_layer)| {
                        (
                            name,
                            object(vec![("end_to_end", end_to_end), ("per_layer", per_layer)]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Checks that `value` is a `results.json` of this schema and returns its
/// workloads.
pub fn parse_results(value: &Value) -> Result<&[(String, Value)], String> {
    match value.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => {}
        other => return Err(format!("schema is {other:?}, expected {SCHEMA:?}")),
    }
    for key in ["seed", "seconds", "nproc"] {
        value
            .get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("missing number `{key}`"))?;
    }
    match value.get("workloads") {
        Some(Value::Object(workloads)) => Ok(workloads),
        _ => Err("missing object `workloads`".into()),
    }
}

/// One metric of one workload of one results file.
fn metric_of(workload: &Value, section: &str, name: &str) -> Option<f64> {
    workload
        .get(section)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Per-layer counts of the training workloads that must repeat exactly
/// between two runs of the same seed: they are made by the program, not timed.
const EXACT_COUNTS: [&str; 6] = [
    "comm.payload_bytes_per_op",
    "comm.cross_host_bytes_per_op",
    "comm.intra_host_bytes_per_op",
    "comm.calls_per_op",
    "nn.rows_per_op",
    "trainer.final_loss",
];

/// How one end-to-end metric of one workload compares.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// No worse than the reference by more than the bound.
    Within,
    /// Worse than the reference by more than the bound.
    Regressed,
    /// The reference's own run-to-run spread exceeds the bound, so a change
    /// of that size cannot be told from noise.
    Unresolved,
}

/// By how much `candidate` is worse than `reference`, as a share of the
/// reference (negative: better).
pub fn worsening(better: Better, reference: f64, candidate: f64) -> f64 {
    if reference == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (candidate - reference) / reference.abs(),
        Better::Higher => (reference - candidate) / reference.abs(),
    }
}

pub fn verdict(bound: f64, worse_by: f64, reference_spread: f64) -> Verdict {
    if reference_spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

/// Compares two sets of results files (reference first). Prints one row per
/// workload and end-to-end metric — medians, each side's spread, the
/// worsening and the verdict — then the exact counts. Returns whether any
/// metric regressed or any count differs.
pub fn compare(reference: &[Value], candidate: &[Value]) -> Result<bool, String> {
    let mut sets = Vec::new();
    for files in [reference, candidate] {
        let mut by_workload: BTreeMap<&str, Vec<&Value>> = BTreeMap::new();
        for file in files {
            for (name, workload) in parse_results(file)? {
                by_workload.entry(name).or_default().push(workload);
            }
        }
        sets.push(by_workload);
    }
    let (reference, candidate) = (&sets[0], &sets[1]);
    let mut bad = false;
    println!(
        "{:<18} {:<12} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "reference", "spread", "candidate", "spread", "worse", "bound"
    );
    for spec in &spec::WORKLOADS {
        let (Some(a), Some(b)) = (reference.get(spec.name), candidate.get(spec.name)) else {
            continue;
        };
        for m in &spec::END_TO_END {
            let values = |runs: &[&Value]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|w| metric_of(w, "end_to_end", m.name))
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let worse_by = worsening(m.better, median(&va), median(&vb));
            let verdict = verdict(m.bound, worse_by, relative_iqr(&va));
            bad |= verdict == Verdict::Regressed;
            println!(
                "{:<18} {:<12} {:>14.4} {:>7.1}% {:>14.4} {:>7.1}% {:>+7.1}% {:>5.0}%  {:?}",
                spec.name,
                m.name,
                median(&va),
                relative_iqr(&va) * 100.0,
                median(&vb),
                relative_iqr(&vb) * 100.0,
                worse_by * 100.0,
                m.bound * 100.0,
                verdict
            );
        }
        if !spec.name.starts_with("train_") {
            continue;
        }
        for name in EXACT_COUNTS {
            let all: Vec<f64> = a
                .iter()
                .chain(b)
                .filter_map(|w| metric_of(w, "per_layer", name))
                .collect();
            if let Some(first) = all.first() {
                let same = all.iter().all(|v| v == first);
                bad |= !same;
                println!(
                    "{:<18} {:<30} {} over {} runs{}",
                    spec.name,
                    name,
                    first,
                    all.len(),
                    if same { "" } else { "  DIFFERS" }
                );
            }
        }
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::Check;

    fn outcome() -> Outcome {
        let mut outcome = Outcome {
            attempted: 12,
            failed: 0,
            samples: 10,
            ..Outcome::default()
        };
        outcome.metrics.insert("op_ms_p50", 1.25);
        outcome.metrics.insert("setup_s", 0.5);
        outcome.metrics.insert("comm.calls_per_op", 8.0);
        outcome.checks.push(Check {
            name: "ok",
            passed: true,
            detail: "fine".into(),
        });
        outcome
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys_and_every_metric() {
        for traced in [false, true] {
            let line: Value = driver_line(&outcome(), traced).parse().unwrap();
            let Value::Object(entries) = &line else {
                panic!("not an object")
            };
            let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            let Some(Value::Object(metrics)) = line.get("metrics") else {
                panic!("metrics")
            };
            let expected: Vec<&str> = if traced {
                spec::PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                spec::END_TO_END.iter().map(|m| m.name).collect()
            };
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, expected);
            for (_, entry) in metrics {
                assert!(entry.get("value").and_then(Value::as_f64).is_some());
                assert!(entry.get("unit").and_then(Value::as_str).is_some());
            }
        }
        let line: Value = driver_line(&outcome(), false).parse().unwrap();
        assert_eq!(metric_of_line(&line, "op_ms_p50"), 1.25);
        // A failed check makes the run incorrect.
        let mut failed = outcome();
        failed.checks.push(Check {
            name: "bad",
            passed: false,
            detail: String::new(),
        });
        let line: Value = driver_line(&failed, false).parse().unwrap();
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
    }

    fn metric_of_line(line: &Value, name: &str) -> f64 {
        line.get("metrics")
            .unwrap()
            .get(name)
            .unwrap()
            .get("value")
            .unwrap()
            .as_f64()
            .unwrap()
    }

    fn results_with(op_ms_p50: f64, calls: f64) -> Value {
        let mut o = outcome();
        o.metrics.insert("op_ms_p50", op_ms_p50);
        o.metrics.insert("comm.calls_per_op", calls);
        results(
            1,
            10,
            2,
            "abc",
            vec![("train_dmt".into(), record(&o, false), record(&o, true))],
        )
    }

    #[test]
    fn results_round_trip_through_the_schema() {
        let text = results_with(1.25, 8.0).render_pretty();
        let parsed: Value = text.parse().unwrap();
        let workloads = parse_results(&parsed).unwrap();
        assert_eq!(workloads.len(), 1);
        assert_eq!(workloads[0].0, "train_dmt");
        assert_eq!(
            metric_of(&workloads[0].1, "end_to_end", "op_ms_p50"),
            Some(1.25)
        );
        assert_eq!(
            metric_of(&workloads[0].1, "per_layer", "comm.calls_per_op"),
            Some(8.0)
        );
        assert_eq!(
            workloads[0]
                .1
                .get("end_to_end")
                .unwrap()
                .get("input_hash")
                .and_then(Value::as_str),
            Some("0000000000000000")
        );
        let wrong: Value = r#"{"schema": "other"}"#.parse().unwrap();
        assert!(parse_results(&wrong).is_err());
    }

    #[test]
    fn bounds_apply_to_the_worsening_in_the_metric_s_direction() {
        // Lower is better: 10% slower is worse by 0.10.
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.10).abs() < 1e-12);
        assert!(worsening(Better::Lower, 10.0, 9.0) < 0.0);
        // Higher is better: 10% less throughput is worse by 0.10.
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
        assert_eq!(verdict(0.10, 0.05, 0.01), Verdict::Within);
        assert_eq!(verdict(0.10, 0.11, 0.01), Verdict::Regressed);
        assert_eq!(verdict(0.10, -0.30, 0.01), Verdict::Within);
        assert_eq!(verdict(0.10, 0.11, 0.12), Verdict::Unresolved);
    }

    #[test]
    fn compare_flags_a_regression_and_a_differing_count() {
        let base = [
            results_with(1.0, 8.0),
            results_with(1.01, 8.0),
            results_with(0.99, 8.0),
        ];
        let same = [results_with(1.02, 8.0)];
        assert_eq!(compare(&base, &same), Ok(false));
        let slower = [results_with(1.5, 8.0)];
        assert_eq!(compare(&base, &slower), Ok(true));
        let other_count = [results_with(1.0, 9.0)];
        assert_eq!(compare(&base, &other_count), Ok(true));
    }
}
