//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repo root states the same
//! tables for the driver; a unit test keeps the two in step.

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "train_dmt",
        why: "DMT training, 2x2 ranks, unthrottled fabric: CPU-bound, so kernel, embedding and optimizer work shows and pacing does not exist",
    },
    WorkloadSpec {
        name: "train_baseline",
        why: "the flat comparator on the same config: global AlltoAll and flat interaction; its op_ms_p50 over train_dmt's is the DMT speedup",
    },
    WorkloadSpec {
        name: "train_dmt_paced",
        why: "DMT, 2x4 ranks, paced fabric, pipelined: time follows cross-host bytes and hidden comm; a kernel speed-up predicts no change",
    },
    WorkloadSpec {
        name: "serve_dmt_closed",
        why: "closed loop, one caller, 64-query Zipf(1.1) batches on the colocated engine: SPTT collectives, hot-row cache hits, dense forward",
    },
    WorkloadSpec {
        name: "serve_staged_open",
        why: "open loop, Poisson 20000 requests/s into the staged engine: admission, micro-batcher, lookup pool, queue, dense pool; queueing shows",
    },
    WorkloadSpec {
        name: "serve_single_int8",
        why: "one thread, near-uniform ids, int8 tables and GEMM, no comm, no batcher, no cache: quantized compute shows, comm changes must not",
    },
];

/// Whether a larger or a smaller value of a metric is the better one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: every workload reports every one of them.
pub struct EndToEndSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may get worse before
    /// `compare` calls it a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEndSpec; 5] = [
    EndToEndSpec {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndSpec {
        name: "op_ms_p95",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndSpec {
        name: "items_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndSpec {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// A per-layer metric and the end-to-end metric it should move. A workload
/// on which the layer does not run reports 0.
pub struct PerLayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayerSpec {
    PerLayerSpec {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const TENSOR_TRAIN: &str =
    "op_ms_p50 on train_dmt/train_baseline (at most the compute share); none on train_dmt_paced";
const TENSOR_FWD: &str =
    "op_ms_p50 on train_dmt/train_baseline and on serve_dmt_closed; none on train_dmt_paced";
const Q8_ONLY: &str = "items_per_s on serve_single_int8 only";
const COMM_FLOOR: &str = "op_ms_p50 on serve_dmt_closed (rendezvous floor of every exchange); <=4% on train_*; none on serve_single_int8";
const COMM_BYTES: &str = "op_ms_p50 on train_dmt_paced; none on train_dmt";
const SEGMENT: &str = "op_ms_p50 on the training workload it is read from";
const STAGED: &str = "op_ms_p50/op_ms_p95 and items_per_s on serve_staged_open only";
const CACHE: &str = "items_per_s on serve_dmt_closed; none on serve_single_int8";
const SETUP: &str = "setup_s";

pub const PER_LAYER: [PerLayerSpec; 66] = [
    layer("tensor.gemm_fused_bias_ns", "ns", Lower, TENSOR_FWD),
    layer("tensor.gemm_at_b_ns", "ns", Lower, TENSOR_TRAIN),
    layer("tensor.gemm_a_bt_ns", "ns", Lower, TENSOR_TRAIN),
    layer("tensor.gemm_gflops", "GFLOP/s", Higher, TENSOR_FWD),
    layer("tensor.gemm_q8_ns", "ns", Lower, Q8_ONLY),
    layer("tensor.flops_per_op", "count", Lower, TENSOR_FWD),
    layer(
        "nn.embedding_fwd_ns_per_row",
        "ns",
        Lower,
        "op_ms_p50 on train_*",
    ),
    layer(
        "nn.embedding_bwd_ns_per_row",
        "ns",
        Lower,
        "op_ms_p50 on train_* (the write side exists only there)",
    ),
    layer(
        "nn.lookup_ns_per_row",
        "ns",
        Lower,
        "op_ms_p50 on serve_dmt_closed and serve_staged_open",
    ),
    layer("nn.lookup_q8_ns_per_row", "ns", Lower, Q8_ONLY),
    layer(
        "nn.rows_per_op",
        "count",
        Lower,
        "op_ms_p50 on every workload that gathers rows",
    ),
    layer("nn.table_resident_mb", "MB", Lower, "peak_rss_mb"),
    layer("comm.all_to_all_ns", "ns", Lower, COMM_FLOOR),
    layer("comm.all_to_all_indices_ns", "ns", Lower, COMM_FLOOR),
    layer(
        "comm.all_reduce_ns",
        "ns",
        Lower,
        "<=4% of op_ms_p50 on train_*",
    ),
    layer("comm.barrier_ns", "ns", Lower, COMM_FLOOR),
    layer("comm.calls_per_op", "count", Lower, COMM_FLOOR),
    layer("comm.payload_bytes_per_op", "bytes", Lower, COMM_BYTES),
    layer("comm.cross_host_bytes_per_op", "bytes", Lower, COMM_BYTES),
    layer("comm.intra_host_bytes_per_op", "bytes", Lower, COMM_BYTES),
    layer("comm.time_ms_per_op", "ms", Lower, COMM_BYTES),
    layer("comm.exposed_ms_per_op", "ms", Lower, COMM_BYTES),
    layer("comm.hidden_fraction", "ratio", Higher, COMM_BYTES),
    layer(
        "comm.paced_sleep_ms_per_op",
        "ms",
        Lower,
        "op_ms_p50 on train_dmt_paced; 0 everywhere else",
    ),
    layer("trainer.compute_ms_per_iter", "ms", Lower, SEGMENT),
    layer("trainer.embedding_comm_ms_per_iter", "ms", Lower, SEGMENT),
    layer("trainer.dense_sync_ms_per_iter", "ms", Lower, SEGMENT),
    layer("trainer.other_ms_per_iter", "ms", Lower, SEGMENT),
    layer(
        "trainer.iter_ms_p90",
        "ms",
        Lower,
        "op_ms_p95 on train_*; rises with world size before op_ms_p50 does",
    ),
    layer("trainer.iter_ms_max", "ms", Lower, "op_ms_p95 on train_*"),
    layer(
        "trainer.final_loss",
        "logloss",
        Lower,
        "none: a correctness reading",
    ),
    layer(
        "trainer.run_call_s",
        "s",
        Lower,
        "setup_s plus the measured iterations",
    ),
    layer("trainer.spawn_teardown_s", "s", Lower, SETUP),
    layer("trainer.snapshot_export_s", "s", Lower, SETUP),
    layer(
        "trainer.dense_fwd_ns",
        "ns",
        Lower,
        "op_ms_p50 on the serving workloads",
    ),
    layer(
        "data.batch_gen_ns_per_sample",
        "ns",
        Lower,
        "op_ms_p50 on train_* (batches are drawn inside the rank loop)",
    ),
    layer(
        "data.query_gen_ns",
        "ns",
        Lower,
        "setup_s on the serving workloads",
    ),
    layer("serve.start_s", "s", Lower, SETUP),
    layer(
        "serve.submit_self_ms",
        "ms",
        Lower,
        "op_ms_p50 on serve_dmt_closed",
    ),
    layer("serve.offer_ns", "ns", Lower, STAGED),
    layer("serve.pump_ns", "ns", Lower, STAGED),
    layer("serve.drain_ns", "ns", Lower, STAGED),
    layer("serve.batch_size_mean", "count", Higher, STAGED),
    layer("serve.size_closes", "count", Higher, STAGED),
    layer("serve.deadline_closes", "count", Lower, STAGED),
    layer("serve.cache_hit_ratio", "ratio", Higher, CACHE),
    layer("serve.cache_lookup_ns", "ns", Lower, CACHE),
    layer("serve.cache_insert_ns", "ns", Lower, CACHE),
    layer(
        "serve.cache_resident_mb",
        "MB",
        Lower,
        "peak_rss_mb on serve_dmt_closed",
    ),
    layer(
        "serve.cross_host_bytes_per_query",
        "bytes",
        Lower,
        "op_ms_p50 on serve_dmt_closed once the fabric is paced; a count today",
    ),
    layer(
        "serve.intra_host_bytes_per_query",
        "bytes",
        Lower,
        "op_ms_p50 on serve_dmt_closed once the fabric is paced; a count today",
    ),
    layer("serve.xfer_bytes_per_query", "bytes", Lower, STAGED),
    layer("serve.max_occupancy", "count", Lower, STAGED),
    layer("serve.shed", "count", Lower, STAGED),
    layer(
        "serve.failed",
        "count",
        Lower,
        "items_per_s on the serving workloads",
    ),
    layer(
        "serve.retries",
        "count",
        Lower,
        "op_ms_p95 on serve_dmt_closed",
    ),
    layer(
        "serve.sojourn_ms_p99",
        "ms",
        Lower,
        "op_ms_p95 on serve_staged_open",
    ),
    layer(
        "serve.sojourn_ms_max",
        "ms",
        Lower,
        "op_ms_p95 on serve_staged_open",
    ),
    layer(
        "serve.generator_late_ms_p99",
        "ms",
        Lower,
        "none: how late the benchmark's own generator ran",
    ),
    layer("serve.batcher_push_ns", "ns", Lower, STAGED),
    layer("serve.admission_ns", "ns", Lower, STAGED),
    layer(
        "serve.slo_attain_pct",
        "%",
        Higher,
        "items_per_s on serve_staged_open (requests past 5 ms do not count)",
    ),
    layer(
        "serve.latency_ms_p99",
        "ms",
        Lower,
        "op_ms_p95 on serve_dmt_closed and serve_single_int8",
    ),
    layer(
        "metrics.trace_overhead_pct",
        "%",
        Lower,
        "none with tracing off; the cost of a traced run",
    ),
    layer(
        "metrics.trace_events",
        "count",
        Lower,
        "metrics.trace_overhead_pct",
    ),
    layer(
        "metrics.trace_dropped",
        "count",
        Lower,
        "none: a traced run that drops events is incomplete",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path)
            .expect("BENCHMARK.json at the repo root")
            .parse()
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(item: &'a Value, key: &str) -> &'a str {
        item.get(key).and_then(Value::as_str).expect(key)
    }

    #[test]
    fn benchmark_json_states_the_same_workloads_and_metrics() {
        let json = benchmark_json();
        let workloads = json.get("workloads").and_then(Value::as_array).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (item, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(item, "name"), spec.name);
            assert_eq!(field(item, "why"), spec.why);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
        let end_to_end = json.get("end_to_end").and_then(Value::as_array).unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (item, spec) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(field(item, "name"), spec.name);
            assert_eq!(field(item, "unit"), spec.unit);
            assert_eq!(field(item, "better"), spec.better.as_str());
            assert_eq!(item.get("bound").and_then(Value::as_f64), Some(spec.bound));
            assert!(spec.bound <= 0.25);
        }
        let per_layer = json.get("per_layer").and_then(Value::as_array).unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (item, spec) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(field(item, "name"), spec.name);
            assert_eq!(field(item, "unit"), spec.unit);
            assert_eq!(field(item, "better"), spec.better.as_str());
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| ok_name(n)));
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used once");
        assert!(END_TO_END.iter().all(|m| ok_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| ok_unit(m.unit)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}
