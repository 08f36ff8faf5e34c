//! The system under test, seen from outside.
//!
//! This is the only file of the benchmark that names a `dmt_*` crate. Every
//! workload, probe and check below goes through the program's public
//! functions and reads its public result structs; `README.md` lists the
//! signatures pinned here so a refactor knows what must stay
//! source-compatible.
//!
//! An untraced run (`trace: false`) measures one phase of `seconds` and
//! yields the end-to-end metrics. A traced run (`trace: true`) measures an
//! untraced phase and a shorter phase with the program's span recorder on and
//! a benchmark-side span around every call the driver makes, then runs the
//! probes; it yields the per-layer metrics and a `trace.json`.

use crate::gen::{poisson_schedule, InputHash};
use crate::stats::{
    best_window_percentile, best_window_rate, median, percentile, self_times, windows,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dmt_comm::{Backend, CommOp, FabricProfile, SharedMemoryBackend, SharedMemoryComm};
use dmt_commsim::SegmentKind;
use dmt_core::tower::TowerModule;
use dmt_core::DlrmTowerModule;
use dmt_data::{DatasetSchema, Query, SyntheticClickDataset, ZipfRequestStream};
use dmt_metrics::trace;
use dmt_models::{ModelArch, ModelHyperparams};
use dmt_nn::{DotInteraction, EmbeddingTable, QuantizedEmbeddingTable};
use dmt_serve::{
    AdmissionController, BatchConfig, BatcherConfig, CompletedRequest, ComputePrecision,
    HotRowCache, MicroBatcher, Priority, Request, ServeConfig, ServeError, ServingEngine,
    SingleRankServer, SloConfig, StagePools, StagedEngine, NO_DEADLINE,
};
use dmt_tensor::{gemm_a_bt_q8, kernels, QuantizedBtMatrix, Tensor};
use dmt_topology::{ClusterTopology, HardwareGeneration, ProcessGroup};
use dmt_trainer::distributed::model::{
    encode_key, load_params, tower_groups, tower_num_units, DenseScratch, DenseStack,
};
use dmt_trainer::distributed::{
    run_baseline, run_dmt, run_with_snapshot, DistributedConfig, ExecutionMode, MeasuredRun,
    ModelSnapshot, ScheduleMode,
};

/// Metric values by name; units and directions live in [`crate::spec`].
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run was asked to do.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// How long the run measures, in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Where a traced run writes `<workload>.trace.json`.
    pub out_dir: PathBuf,
}

/// One correctness check and how it came out.
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Samples behind the latency percentiles.
    pub samples: u64,
    pub metrics: Metrics,
    pub checks: Vec<Check>,
    /// Hash of the generated inputs: equal hashes, equal inputs.
    pub input_hash: u64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    fn check(&mut self, name: &'static str, passed: bool, detail: String) {
        self.checks.push(Check {
            name,
            passed,
            detail,
        });
    }
}

/// The seed [`RECORDED_LOSS`] was recorded with.
pub const DEFAULT_SEED: u64 = 1;

/// Mean training loss over [`RECORDED_LOSS_WINDOW`] at [`DEFAULT_SEED`],
/// recorded at the commit that added the benchmark. Training is
/// bit-deterministic, so a drift beyond 0.01 means the arithmetic changed.
const RECORDED_LOSS: [(&str, f64); 3] = [
    ("train_dmt", 0.618882),
    ("train_baseline", 0.617738),
    ("train_dmt_paced", 0.616682),
];

/// Runs one workload. `Err` is a failure of the benchmark itself (unknown
/// workload, the program refusing the configuration); failed operations and
/// failed checks are reported in the [`Outcome`].
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "train_dmt" | "train_baseline" | "train_dmt_paced" => train(args),
        "serve_dmt_closed" => serve_dmt_closed(args),
        "serve_staged_open" => serve_staged_open(args),
        "serve_single_int8" => serve_single_int8(args),
        other => Err(format!("unknown workload `{other}`")),
    }
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

/// Queries per batch on the two closed-loop serving workloads.
const SERVE_BATCH: usize = 64;
/// Pre-generated queries a serving workload cycles through.
const QUERY_POOL: usize = 32_768;
/// Batches served before measurement starts; the first [`CHECKED_BATCHES`]
/// of them are compared against a reference.
const WARMUP_BATCHES: usize = 200;
const CHECKED_BATCHES: usize = 8;
/// How many times an untraced serving run sets up; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
/// Shares of `seconds` a traced run gives its untraced and traced phases.
const PLAIN_SHARE: f64 = 0.4;
const TRACED_SHARE: f64 = 0.2;

fn cluster(hosts: usize, gpus: usize) -> ClusterTopology {
    ClusterTopology::new(HardwareGeneration::A100, hosts, gpus).expect("valid cluster shape")
}

/// The CPU-bound training configuration `train_dmt`, `train_baseline` and
/// every serving snapshot share.
fn cpu_bound_config(seed: u64) -> DistributedConfig {
    let mut config = DistributedConfig::quick(cluster(2, 2), ModelArch::Dlrm).with_local_batch(256);
    config.schema = DatasetSchema::with_cardinality_scale(0.1);
    config.hyper = ModelHyperparams::quality_run();
    config.seed = seed;
    config
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn hash_queries(pool: &[Query]) -> u64 {
    let mut hash = InputHash::new();
    for query in pool {
        query
            .dense
            .iter()
            .for_each(|v| hash.word(u64::from(v.to_bits())));
        for bag in &query.sparse {
            bag.iter().for_each(|&id| hash.word(id as u64));
        }
    }
    hash.finish()
}

fn in_unit_interval(preds: &[f32]) -> bool {
    preds.iter().all(|p| (0.0..=1.0).contains(p))
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Fills the three latency-derived end-to-end metrics from per-operation
/// times in time order, each read in the best of ten windows.
fn latency_metrics(metrics: &mut Metrics, op_ms: &[f64], items_per_op: f64) {
    metrics.insert("op_ms_p50", best_window_percentile(op_ms, 50.0));
    metrics.insert("op_ms_p95", best_window_percentile(op_ms, 95.0));
    metrics.insert("items_per_s", best_window_rate(op_ms, items_per_op));
}

fn overhead_pct(untraced_rate: f64, traced_rate: f64) -> f64 {
    if untraced_rate <= 0.0 {
        return 0.0;
    }
    (untraced_rate - traced_rate) / untraced_rate * 100.0
}

/// The benchmark's own lane in a trace, and the timing of the driver's calls
/// into the program. Off, a call runs bare. On, it is timed on the trace
/// clock, the interval is kept and a span is recorded with the operation id.
struct Driver {
    on: bool,
    calls: BTreeMap<&'static str, Vec<(f64, f64)>>,
}

const DRIVER_TRACK: trace::Track = trace::Track { pid: 9, tid: 0 };
const DRIVER_CAT: &str = "driver";

impl Driver {
    fn off() -> Self {
        Self {
            on: false,
            calls: BTreeMap::new(),
        }
    }

    /// Turns the program's span recorder on and returns a recording driver.
    fn tracing() -> Self {
        trace::name_track("benchmark", "driver", DRIVER_TRACK);
        trace::set_tracing(true);
        Self {
            on: true,
            calls: BTreeMap::new(),
        }
    }

    fn call<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = trace::clock_s();
        let result = f();
        let end = trace::clock_s();
        self.calls.entry(name).or_default().push((start, end));
        trace::emit(
            trace::TraceEvent::complete(
                DRIVER_TRACK,
                DRIVER_CAT,
                name.to_string(),
                start,
                end - start,
            )
            .arg_u64("id", id),
        );
        result
    }

    fn spans(&self, name: &str) -> &[(f64, f64)] {
        self.calls.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median duration of the calls named `name`, in nanoseconds.
    fn median_ns(&self, name: &str) -> f64 {
        let ns: Vec<f64> = self
            .spans(name)
            .iter()
            .map(|(s, e)| (e - s) * 1e9)
            .collect();
        median(&ns)
    }
}

/// What a traced phase left behind, reduced to numbers.
struct TraceDigest {
    /// `cat::COMM` spans the program recorded, and their summed duration.
    comm_spans: u64,
    comm_span_s: f64,
    /// Interval of every span the program itself recorded.
    program_spans: Vec<(f64, f64)>,
}

/// Reads a written trace back through the program's own parser, a few events
/// at a time: `write_chrome_trace` puts one event on a line, and
/// `parse_chrome_trace` takes time quadratic in the length of its input (3 MB
/// took 100 s here), so the file is parsed in slices of lines.
fn parse_trace_file(json: &str) -> Result<Vec<trace::ParsedEvent>, String> {
    const EVENTS_PER_SLICE: usize = 64;
    let lines: Vec<&str> = json
        .lines()
        .map(|line| line.trim().trim_end_matches(','))
        .filter(|line| !matches!(*line, "" | "[" | "]"))
        .collect();
    let mut events = Vec::with_capacity(lines.len());
    for slice in lines.chunks(EVENTS_PER_SLICE) {
        events.extend(trace::parse_chrome_trace(&format!(
            "[{}]",
            slice.join(",")
        ))?);
    }
    Ok(events)
}

/// Stops the recorder, writes `<out_dir>/<workload>.trace.json`, reads it
/// back and validates it.
fn finish_trace(args: &RunArgs, outcome: &mut Outcome) -> Result<TraceDigest, String> {
    trace::set_tracing(false);
    let events = trace::take_events();
    let mut digest = TraceDigest {
        comm_spans: 0,
        comm_span_s: 0.0,
        program_spans: Vec::new(),
    };
    for event in &events {
        if event.phase != trace::Phase::Complete || event.cat == DRIVER_CAT {
            continue;
        }
        digest
            .program_spans
            .push((event.ts_s, event.ts_s + event.dur_s));
        if event.cat == trace::cat::COMM {
            digest.comm_spans += 1;
            digest.comm_span_s += event.dur_s;
        }
    }
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let path = args.out_dir.join(format!("{}.trace.json", args.workload));
    trace::write_chrome_trace(&path, &events)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    outcome
        .metrics
        .insert("metrics.trace_events", events.len() as f64);
    outcome
        .metrics
        .insert("metrics.trace_dropped", trace::events_dropped() as f64);
    drop(events);
    let verdict = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|json| parse_trace_file(&json))
        .and_then(|parsed| trace::validate_trace(&parsed));
    let (passed, detail) = match verdict {
        Ok(summary) => (
            true,
            format!(
                "{}: {} spans, {} instants, {} async pairs on {} tracks",
                path.display(),
                summary.spans,
                summary.instants,
                summary.async_pairs,
                summary.tracks
            ),
        ),
        Err(reason) => (false, reason),
    };
    outcome.check("trace.json validates", passed, detail);
    Ok(digest)
}

// ---------------------------------------------------------------------------
// Training workloads
// ---------------------------------------------------------------------------

struct TrainPlan {
    config: DistributedConfig,
    mode: ExecutionMode,
    /// Iterations at the head of a run that are executed and not measured.
    warm: usize,
    /// Measured iterations per second of `--seconds`: the amount of work is
    /// fixed by the arguments, not by how fast this commit runs, so byte
    /// counts, sample counts and memory repeat. Sized from the iteration time
    /// on a quiet 2-core box (17, 36 and 68 ms).
    iterations_per_s: f64,
}

fn train_plan(workload: &str, seed: u64) -> TrainPlan {
    match workload {
        "train_dmt" => TrainPlan {
            config: cpu_bound_config(seed),
            mode: ExecutionMode::Dmt,
            warm: 20,
            iterations_per_s: 60.0,
        },
        "train_baseline" => TrainPlan {
            config: cpu_bound_config(seed),
            mode: ExecutionMode::Baseline,
            warm: 20,
            iterations_per_s: 28.0,
        },
        _ => {
            let cluster = cluster(2, 4);
            let mut config = DistributedConfig::quick(cluster.clone(), ModelArch::Dlrm)
                .with_local_batch(384)
                .with_fabric(FabricProfile::from_cluster(&cluster, 8000.0))
                .with_schedule(ScheduleMode::Pipelined)
                .with_micro_batches(2);
            config.seed = seed;
            TrainPlan {
                config,
                mode: ExecutionMode::Dmt,
                warm: 10,
                iterations_per_s: 15.0,
            }
        }
    }
}

/// One `run_*` call, timed from outside.
struct TrainRun {
    run: MeasuredRun,
    call_s: f64,
}

impl TrainRun {
    /// Milliseconds of each measured (post-warm-up) iteration.
    fn iter_ms(&self, plan: &TrainPlan) -> Vec<f64> {
        self.run.iter_wall_s[plan.warm..]
            .iter()
            .map(|s| s * 1e3)
            .collect()
    }
}

/// Runs `plan` for `measured` iterations after its warm-up.
fn run_training(
    plan: &TrainPlan,
    measured: usize,
    driver: &mut Driver,
) -> Result<TrainRun, String> {
    let config = plan.config.clone().with_iterations(plan.warm + measured);
    let start = Instant::now();
    let run = driver.call("run", measured as u64, || match plan.mode {
        ExecutionMode::Dmt => run_dmt(&config),
        ExecutionMode::Baseline => run_baseline(&config),
    });
    let call_s = start.elapsed().as_secs_f64();
    Ok(TrainRun {
        run: run.map_err(|e| format!("training run failed: {e}"))?,
        call_s,
    })
}

/// Set-up of a training run, measured on its own: a one-iteration run is
/// thread spawn, table and model initialisation, one step and teardown.
fn training_setups(plan: &TrainPlan, repeats: usize) -> Result<Vec<TrainRun>, String> {
    let cold = TrainPlan {
        config: plan.config.clone(),
        warm: 0,
        ..*plan
    };
    (0..repeats)
        .map(|_| run_training(&cold, 1, &mut Driver::off()))
        .collect()
}

/// Loss iterations `[20, 40)` are averaged over for the recorded-value check:
/// every run length has them.
const RECORDED_LOSS_WINDOW: std::ops::Range<usize> = 20..40;

fn train_checks(args: &RunArgs, outcome: &mut Outcome, runs: &[&TrainRun]) {
    let longest = runs
        .iter()
        .max_by_key(|r| r.run.losses.len())
        .expect("at least one run");
    let losses = &longest.run.losses;
    outcome.check(
        "losses finite",
        runs.iter()
            .all(|r| r.run.losses.iter().all(|l| l.is_finite())),
        format!(
            "{} runs, the longest of {} iterations",
            runs.len(),
            losses.len()
        ),
    );
    let (first, last) = (mean(&losses[..20]), mean(&losses[losses.len() - 20..]));
    outcome.check(
        "loss falls",
        last < first,
        format!("first-20 mean {first:.6}, last-20 mean {last:.6}"),
    );
    outcome.check(
        "runs from one seed repeat bit-identically",
        runs.iter()
            .all(|r| r.run.losses[..] == losses[..r.run.losses.len()]),
        format!("{} runs", runs.len()),
    );
    if args.seed == DEFAULT_SEED {
        let early = mean(&losses[RECORDED_LOSS_WINDOW]);
        let recorded = RECORDED_LOSS
            .iter()
            .find(|(name, _)| *name == args.workload)
            .map_or(f64::NAN, |(_, loss)| *loss);
        outcome.check(
            "loss matches the recorded value",
            (early - recorded).abs() <= 0.01,
            format!("mean of iterations 20..40 {early:.6}, recorded {recorded:.6}"),
        );
    }
    outcome.metrics.insert("trainer.final_loss", last);
    outcome.attempted = runs.iter().map(|r| r.run.iter_wall_s.len() as u64).sum();
}

fn train(args: &RunArgs) -> Result<Outcome, String> {
    let plan = train_plan(&args.workload, args.seed);
    let measured = (args.seconds * plan.iterations_per_s).round() as usize;
    let mut outcome = Outcome::default();
    let mut hash = InputHash::new();
    for word in [args.seed, measured as u64, plan.config.local_batch as u64] {
        hash.word(word);
    }
    outcome.input_hash = hash.finish();
    if args.trace {
        return train_traced(args, &plan, measured, outcome);
    }
    let main = run_training(&plan, measured, &mut Driver::off())?;
    let iter_ms = main.iter_ms(&plan);
    let world = plan.config.cluster.world_size();
    latency_metrics(
        &mut outcome.metrics,
        &iter_ms,
        (world * plan.config.local_batch) as f64,
    );
    // The high-water mark of one training run; the set-up repeats come after.
    outcome.metrics.insert("peak_rss_mb", peak_rss_mb());
    let setups = training_setups(&plan, SETUP_REPEATS)?;
    let setup_s: Vec<f64> = setups.iter().map(|r| r.call_s).collect();
    outcome.metrics.insert("setup_s", median(&setup_s));
    outcome.samples = iter_ms.len() as u64;
    let mut runs: Vec<&TrainRun> = setups.iter().collect();
    runs.push(&main);
    train_checks(args, &mut outcome, &runs);
    Ok(outcome)
}

fn train_traced(
    args: &RunArgs,
    plan: &TrainPlan,
    measured: usize,
    mut outcome: Outcome,
) -> Result<Outcome, String> {
    let cold = training_setups(plan, 1)?.remove(0);
    let plain = run_training(
        plan,
        (measured as f64 * PLAIN_SHARE) as usize,
        &mut Driver::off(),
    )?;
    let traced_iters = (measured as f64 * TRACED_SHARE) as usize;
    let traced = run_training(plan, traced_iters, &mut Driver::tracing())?;
    let digest = finish_trace(args, &mut outcome)?;

    let m = &mut outcome.metrics;
    let run = &plain.run;
    let iter_ms = plain.iter_ms(plan);
    m.insert(
        "metrics.trace_overhead_pct",
        overhead_pct(
            best_window_rate(&iter_ms, 1.0),
            best_window_rate(&traced.iter_ms(plan), 1.0),
        ),
    );
    // R: the run's own segment accounting, per iteration.
    let by_kind = |kind: SegmentKind| {
        run.segments
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.time_s)
            .sum::<f64>()
            * 1e3
    };
    m.insert("trainer.compute_ms_per_iter", by_kind(SegmentKind::Compute));
    m.insert(
        "trainer.embedding_comm_ms_per_iter",
        by_kind(SegmentKind::EmbeddingComm),
    );
    m.insert(
        "trainer.dense_sync_ms_per_iter",
        by_kind(SegmentKind::DenseSync),
    );
    m.insert(
        "trainer.other_ms_per_iter",
        by_kind(SegmentKind::Other) + by_kind(SegmentKind::Shuffle),
    );
    m.insert(
        "trainer.iter_ms_p90",
        best_window_percentile(&iter_ms, 90.0),
    );
    m.insert("trainer.iter_ms_max", percentile(&iter_ms, 100.0));
    m.insert("trainer.run_call_s", plain.call_s);
    m.insert(
        "trainer.spawn_teardown_s",
        cold.call_s - cold.run.iter_wall_s[0],
    );
    let comm: Vec<_> = run.segments.iter().filter(|s| s.is_comm()).collect();
    let world = plan.config.cluster.world_size() as f64;
    let traced_ops = traced.run.iter_wall_s.len() as f64 * world;
    m.insert("comm.calls_per_op", digest.comm_spans as f64 / traced_ops);
    m.insert(
        "comm.payload_bytes_per_op",
        comm.iter().map(|s| s.payload_bytes).sum::<u64>() as f64,
    );
    m.insert(
        "comm.cross_host_bytes_per_op",
        run.cross_host_bytes() as f64,
    );
    m.insert(
        "comm.intra_host_bytes_per_op",
        run.intra_host_bytes() as f64,
    );
    m.insert("comm.time_ms_per_op", run.comm_time_s() * 1e3);
    m.insert("comm.exposed_ms_per_op", run.exposed_comm_s() * 1e3);
    m.insert("comm.hidden_fraction", run.hidden_comm_fraction());
    // The modeled sleep, stated apart from CPU time: what the fabric profile
    // asks the run's own byte counts to take, one launch latency per segment.
    let fabric = plan.config.fabric;
    let paced_s: f64 = comm
        .iter()
        .map(|s| {
            fabric
                .target_duration(s.cross_host_bytes, s.intra_host_bytes)
                .as_secs_f64()
        })
        .sum();
    m.insert("comm.paced_sleep_ms_per_op", paced_s * 1e3);

    // P: the layers under a training iteration, at this workload's shapes.
    let config = &plan.config;
    let payload_of = |op: CommOp| {
        comm.iter()
            .filter(|s| s.op == Some(op))
            .map(|s| s.payload_bytes)
            .max()
            .unwrap_or(0)
    };
    probes::comm(
        m,
        &config.cluster,
        payload_of(CommOp::AllToAll) as usize / 4,
        payload_of(CommOp::AllToAllIndices) as usize / 8,
        payload_of(CommOp::AllReduce) as usize / 4,
    );
    let stack = DenseShape::of_training(config, plan.mode)?;
    probes::gemm(m, &stack, config.local_batch, true, false);
    m.insert(
        "tensor.flops_per_op",
        3.0 * stack.forward_flops(config.local_batch),
    );
    probes::embedding_training(m, config);
    probes::batch_generation(m, config);

    outcome.samples = iter_ms.len() as u64;
    train_checks(args, &mut outcome, &[&cold, &plain, &traced]);
    Ok(outcome)
}

/// Geometry of a dense stack, as far as the probes need it.
struct DenseShape {
    /// Interaction unit width and unit count (the dense unit included).
    width: usize,
    units: usize,
    /// `[in, hidden.., out]` of the bottom and the over-arch MLP.
    bottom: Vec<usize>,
    over: Vec<usize>,
}

impl DenseShape {
    /// The stack `mode` builds: the baseline interacts one unit per sparse
    /// feature at the embedding width, DMT one per tower projection at the
    /// tower output width `d`; both add the dense unit.
    fn of(
        schema: &DatasetSchema,
        hyper: &ModelHyperparams,
        mode: ExecutionMode,
        towers: usize,
        (c, p, d): (usize, usize, usize),
    ) -> Result<Self, String> {
        let (width, units) = match mode {
            ExecutionMode::Baseline => (hyper.embedding_dim, schema.num_sparse() + 1),
            ExecutionMode::Dmt => {
                let groups =
                    tower_groups(schema.num_sparse(), towers).map_err(|e| e.to_string())?;
                (d, tower_num_units(&groups, c, p))
            }
        };
        let mut bottom = vec![schema.num_dense];
        bottom.extend(&hyper.bottom_mlp_hidden);
        bottom.push(width);
        let mut over = vec![width + DotInteraction::new(units, width).output_dim()];
        over.extend(&hyper.over_mlp_hidden);
        over.push(1);
        Ok(Self {
            width,
            units,
            bottom,
            over,
        })
    }

    fn of_training(config: &DistributedConfig, mode: ExecutionMode) -> Result<Self, String> {
        let tower = (
            config.tower_ensemble_c,
            config.tower_ensemble_p,
            config.tower_output_dim,
        );
        Self::of(
            &config.schema,
            &config.hyper,
            mode,
            config.num_towers(),
            tower,
        )
    }

    fn of_snapshot(snapshot: &ModelSnapshot) -> Result<Self, String> {
        let tower = (
            snapshot.tower_ensemble_c,
            snapshot.tower_ensemble_p,
            snapshot.tower_output_dim,
        );
        Self::of(
            &snapshot.schema,
            &snapshot.hyper,
            snapshot.mode,
            snapshot.num_towers,
            tower,
        )
    }

    /// Multiply-add FLOPs of one forward pass of both MLPs over `rows` rows.
    fn forward_flops(&self, rows: usize) -> f64 {
        [&self.bottom, &self.over]
            .iter()
            .flat_map(|sizes| sizes.windows(2))
            .map(|w| 2.0 * (rows * w[0] * w[1]) as f64)
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Serving: shared set-up and checks
// ---------------------------------------------------------------------------

/// One complete set-up of a serving workload and what it cost.
struct Ready<E> {
    snapshot: ModelSnapshot,
    pool: Vec<Query>,
    engine: E,
    setup_s: f64,
    snapshot_s: f64,
    start_s: f64,
}

/// What a serving workload sets up from: the snapshot's deployment, the skew
/// of its query pool and how its engine starts.
struct SetUp<'a, E> {
    seed: u64,
    mode: ExecutionMode,
    exponent: f64,
    start: &'a dyn Fn(&ModelSnapshot) -> Result<E, String>,
}

impl<E> SetUp<'_, E> {
    /// Sets the workload up: trains the four-iteration snapshot, draws the
    /// query pool and starts the engine.
    fn run(&self) -> Result<Ready<E>, String> {
        let begin = Instant::now();
        let config = cpu_bound_config(self.seed).with_iterations(4);
        let (_, snapshot) = run_with_snapshot(&config, self.mode)
            .map_err(|e| format!("snapshot training failed: {e}"))?;
        let snapshot_s = begin.elapsed().as_secs_f64();
        let pool = ZipfRequestStream::new(snapshot.schema.clone(), self.seed, self.exponent)
            .next_queries(QUERY_POOL);
        let engine_begin = Instant::now();
        let engine = (self.start)(&snapshot)?;
        let start_s = engine_begin.elapsed().as_secs_f64();
        let setup_s = begin.elapsed().as_secs_f64();
        Ok(Ready {
            snapshot,
            pool,
            engine,
            setup_s,
            snapshot_s,
            start_s,
        })
    }

    /// `setup_s` of an untraced run: the median of the measured run's own
    /// set-up and [`SETUP_REPEATS`]` - 1` more, each discarded at once. They
    /// run after the measurement so that `peak_rss_mb` is the high-water mark
    /// of one set-up and one measurement, as a user of the workload sees it.
    fn median_s(&self, first_s: f64, discard: impl Fn(E)) -> Result<f64, String> {
        let mut times = vec![first_s];
        for _ in 1..SETUP_REPEATS {
            let ready = self.run()?;
            times.push(ready.setup_s);
            discard(ready.engine);
        }
        Ok(median(&times))
    }
}

fn pool_batch(pool: &[Query], b: usize) -> &[Query] {
    let b = b % (pool.len() / SERVE_BATCH);
    &pool[b * SERVE_BATCH..(b + 1) * SERVE_BATCH]
}

/// The snapshot's dense stack, rebuilt from its geometry and weights.
fn dense_stack(snapshot: &ModelSnapshot) -> Result<DenseStack, String> {
    let DenseShape { width, units, .. } = DenseShape::of_snapshot(snapshot)?;
    let mut dense = DenseStack::new(
        snapshot.seed,
        &snapshot.schema,
        snapshot.arch,
        &snapshot.hyper,
        width,
        units,
    );
    load_params(&mut dense, &snapshot.dense_params).map_err(|e| e.to_string())?;
    Ok(dense)
}

/// The training-side reference forward `tests/serving.rs` uses — full tables,
/// local pooling, the snapshot's tower modules and dense stack — over each of
/// `batches`.
fn reference_predictions(
    snapshot: &ModelSnapshot,
    batches: &[&[Query]],
) -> Result<Vec<Vec<f32>>, String> {
    use rand::SeedableRng;
    fn err(e: impl std::fmt::Display) -> String {
        format!("reference forward: {e}")
    }
    let schema = &snapshot.schema;
    let n = snapshot.hyper.embedding_dim;
    // pooled[batch][feature]; one table is resident at a time.
    let mut pooled: Vec<Vec<Tensor>> = batches.iter().map(|_| Vec::new()).collect();
    for f in 0..schema.num_sparse() {
        let table = snapshot.table(f).ok_or("snapshot misses a feature")?;
        let mut full = EmbeddingTable::from_weights(table.rows, table.dim, table.data.clone());
        for (queries, out) in batches.iter().zip(&mut pooled) {
            let bags: Vec<Vec<usize>> = queries.iter().map(|q| q.sparse[f].clone()).collect();
            out.push(full.forward(&bags).map_err(err)?);
        }
    }
    let groups = match snapshot.mode {
        ExecutionMode::Baseline => Vec::new(),
        ExecutionMode::Dmt => {
            tower_groups(schema.num_sparse(), snapshot.num_towers).map_err(err)?
        }
    };
    let (c, p, d) = (
        snapshot.tower_ensemble_c,
        snapshot.tower_ensemble_p,
        snapshot.tower_output_dim,
    );
    let mut towers = Vec::with_capacity(groups.len());
    for (t, group) in groups.iter().enumerate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut tower = DlrmTowerModule::new(&mut rng, group.len(), n, c, p, d).map_err(err)?;
        load_params(&mut tower, &snapshot.tower_params[t]).map_err(err)?;
        towers.push(tower);
    }
    let mut dense = dense_stack(snapshot).map_err(err)?;
    let mut predictions = Vec::with_capacity(batches.len());
    for (queries, pooled) in batches.iter().zip(&pooled) {
        let dense_input = Tensor::from_vec(
            vec![queries.len(), schema.num_dense],
            queries.iter().flat_map(|q| q.dense.clone()).collect(),
        )
        .map_err(err)?;
        let feature_block = match snapshot.mode {
            ExecutionMode::Baseline => {
                Tensor::concat_cols(&pooled.iter().collect::<Vec<_>>()).map_err(err)?
            }
            ExecutionMode::Dmt => {
                let mut outputs = Vec::with_capacity(groups.len());
                for (group, tower) in groups.iter().zip(&mut towers) {
                    let refs: Vec<&Tensor> = group.iter().map(|&f| &pooled[f]).collect();
                    let input = Tensor::concat_cols(&refs).map_err(err)?;
                    outputs.push(tower.forward(&input).map_err(err)?);
                }
                Tensor::concat_cols(&outputs.iter().collect::<Vec<_>>()).map_err(err)?
            }
        };
        predictions.push(dense.forward(&dense_input, &feature_block).map_err(err)?);
    }
    Ok(predictions)
}

/// Checks served predictions against a reference: bit-identical when
/// `tolerance` is 0, within `tolerance` otherwise.
fn check_predictions(
    outcome: &mut Outcome,
    name: &'static str,
    served: &[Vec<f32>],
    reference: Result<Vec<Vec<f32>>, String>,
    tolerance: f32,
) {
    let reference = match reference {
        Ok(reference) => reference,
        Err(e) => return outcome.check(name, false, e),
    };
    let mut worst = 0.0f32;
    let mut differing = 0usize;
    let mut same_shape = served.len() == reference.len();
    for (got, want) in served.iter().zip(&reference) {
        same_shape &= got.len() == want.len();
        for (g, w) in got.iter().zip(want) {
            if g.to_bits() != w.to_bits() {
                differing += 1;
                worst = worst.max((g - w).abs());
            }
        }
    }
    let passed = same_shape
        && if tolerance == 0.0 {
            differing == 0
        } else {
            worst <= tolerance
        };
    let detail = format!(
        "{} batches, {differing} predictions differ, worst |delta| {worst:e}",
        served.len()
    );
    outcome.check(name, passed, detail);
}

// ---------------------------------------------------------------------------
// Closed-loop serving: serve_dmt_closed and serve_single_int8
// ---------------------------------------------------------------------------

/// What a closed-loop phase measured.
struct ClosedLoop {
    call_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    in_range: bool,
}

impl ClosedLoop {
    fn queries_per_s(&self) -> f64 {
        best_window_rate(&self.call_ms, SERVE_BATCH as f64)
    }
}

/// One caller: serves consecutive pool batches for `seconds`, the next only
/// after the previous returned. `serve` returns the seconds its call into the
/// program took and whether every prediction was a probability.
fn closed_loop(
    pool: &[Query],
    first_batch: usize,
    seconds: f64,
    mut serve: impl FnMut(u64, &[Query]) -> Result<(f64, bool), String>,
) -> ClosedLoop {
    let mut log = ClosedLoop {
        call_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        in_range: true,
    };
    let begin = Instant::now();
    let mut b = first_batch;
    while begin.elapsed().as_secs_f64() < seconds {
        log.attempted += 1;
        match serve(b as u64, pool_batch(pool, b)) {
            Ok((call_s, in_range)) => {
                log.in_range &= in_range;
                log.call_ms.push(call_s * 1e3);
            }
            Err(_) => {
                // A failed engine poisons itself; stop offering.
                log.failed += 1;
                break;
            }
        }
        b += 1;
    }
    log
}

fn closed_loop_checks(outcome: &mut Outcome, logs: &[&ClosedLoop]) {
    let completed: u64 = logs.iter().map(|l| l.call_ms.len() as u64).sum();
    outcome.attempted = logs.iter().map(|l| l.attempted).sum();
    outcome.failed = logs.iter().map(|l| l.failed).sum();
    outcome.samples = logs[0].call_ms.len() as u64;
    outcome.check(
        "predictions in [0, 1]",
        logs.iter().all(|l| l.in_range),
        format!("{completed} batches"),
    );
    outcome.check(
        "offered = completed + shed + failed",
        outcome.attempted == completed + outcome.failed,
        format!(
            "{} offered, {completed} completed, 0 shed, {} failed",
            outcome.attempted, outcome.failed
        ),
    );
    outcome.check(
        "no operation failed",
        outcome.failed == 0,
        format!("{} failed", outcome.failed),
    );
}

/// What the traced phase of a closed-loop run left for the workload's own
/// per-layer metrics.
struct TracedClosedLoop {
    digest: TraceDigest,
    /// Batches the traced phase completed.
    batches: usize,
}

/// The measured part of a closed-loop workload, after its warm-up. Untraced:
/// one phase of `seconds`, the latency end-to-end metrics and `peak_rss_mb`.
/// Traced: an untraced and a traced phase, the trace, and the per-layer
/// metrics every closed loop shares; the rest is returned for the workload's
/// own. `call` names the driver's span around the program call `serve` makes.
fn closed_loop_run(
    args: &RunArgs,
    outcome: &mut Outcome,
    pool: &[Query],
    call: &'static str,
    mut serve: impl FnMut(&mut Driver, u64, &[Query]) -> Result<(f64, bool), String>,
) -> Result<Option<TracedClosedLoop>, String> {
    let mut quiet = Driver::off();
    if !args.trace {
        let log = closed_loop(pool, WARMUP_BATCHES, args.seconds, |id, q| {
            serve(&mut quiet, id, q)
        });
        latency_metrics(&mut outcome.metrics, &log.call_ms, SERVE_BATCH as f64);
        outcome.metrics.insert("peak_rss_mb", peak_rss_mb());
        closed_loop_checks(outcome, &[&log]);
        return Ok(None);
    }
    let plain = closed_loop(pool, WARMUP_BATCHES, args.seconds * PLAIN_SHARE, |id, q| {
        serve(&mut quiet, id, q)
    });
    let mut driver = Driver::tracing();
    let next = WARMUP_BATCHES + plain.attempted as usize;
    let traced = closed_loop(pool, next, args.seconds * TRACED_SHARE, |id, q| {
        serve(&mut driver, id, q)
    });
    let digest = finish_trace(args, outcome)?;
    closed_loop_checks(outcome, &[&plain, &traced]);
    let m = &mut outcome.metrics;
    m.insert(
        "metrics.trace_overhead_pct",
        overhead_pct(plain.queries_per_s(), traced.queries_per_s()),
    );
    m.insert(
        "serve.latency_ms_p99",
        best_window_percentile(&plain.call_ms, 99.0),
    );
    m.insert("serve.failed", (plain.failed + traced.failed) as f64);
    // Self time of the driver's call: its span minus the part the program's
    // own spans cover.
    let own_ms: Vec<f64> = self_times(driver.spans(call), &digest.program_spans)
        .iter()
        .map(|s| s * 1e3)
        .collect();
    m.insert("serve.submit_self_ms", median(&own_ms));
    Ok(Some(TracedClosedLoop {
        digest,
        batches: traced.call_ms.len(),
    }))
}

fn serve_dmt_closed(args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let cluster = cluster(2, 2);
    let config = ServeConfig::new(cluster.clone()).with_batch(BatchConfig {
        cache_rows: 4096,
        ..BatchConfig::default()
    });
    let start = |snapshot: &ModelSnapshot| {
        ServingEngine::start(snapshot, &config).map_err(|e| format!("engine start: {e}"))
    };
    let set_up = SetUp {
        seed: args.seed,
        mode: ExecutionMode::Dmt,
        exponent: 1.1,
        start: &start,
    };
    let Ready {
        snapshot,
        pool,
        mut engine,
        setup_s,
        snapshot_s,
        start_s,
    } = set_up.run()?;
    outcome.input_hash = hash_queries(&pool);

    // Warm-up fills the hot-row cache; its first batches are kept for the
    // reference comparison made after the measurement.
    let mut checked: Vec<Vec<f32>> = Vec::new();
    for b in 0..WARMUP_BATCHES {
        let preds = engine
            .submit(pool_batch(&pool, b).to_vec())
            .map_err(|e| format!("warm-up batch failed: {e}"))?;
        if b < CHECKED_BATCHES {
            checked.push(preds);
        }
    }
    let submit = |driver: &mut Driver, id: u64, queries: &[Query]| {
        // The engine takes its batch by value; the copy is not part of the call.
        let owned = queries.to_vec();
        let start = Instant::now();
        let result = driver.call("submit", id, || engine.submit(owned));
        let call_s = start.elapsed().as_secs_f64();
        result
            .map(|preds| (call_s, in_unit_interval(&preds)))
            .map_err(|e| e.to_string())
    };

    let traced = closed_loop_run(args, &mut outcome, &pool, "submit", submit)?;
    let stats = engine.shutdown();
    if let Some(TracedClosedLoop {
        digest,
        batches: traced_batches,
    }) = traced
    {
        let m = &mut outcome.metrics;
        m.insert("serve.start_s", start_s);
        m.insert("trainer.snapshot_export_s", snapshot_s);
        // R: the engine's own accounting over warm-up and both phases.
        let world = cluster.world_size() as f64;
        let batches = stats.batches.max(1) as f64;
        m.insert("serve.cache_hit_ratio", stats.cache.hit_rate());
        m.insert("serve.cache_resident_mb", mb(stats.cache_resident_bytes));
        m.insert(
            "serve.cross_host_bytes_per_query",
            stats.cross_host_bytes_per_query(),
        );
        m.insert(
            "serve.intra_host_bytes_per_query",
            stats.intra_host_bytes_per_query(),
        );
        m.insert("serve.retries", stats.retries as f64);
        m.insert("nn.table_resident_mb", mb(stats.table_resident_bytes));
        m.insert(
            "nn.rows_per_op",
            (SERVE_BATCH * snapshot.schema.num_sparse()) as f64,
        );
        m.insert(
            "comm.payload_bytes_per_op",
            stats.payload_bytes as f64 / batches / world,
        );
        m.insert(
            "comm.cross_host_bytes_per_op",
            stats.cross_host_bytes as f64 / batches / world,
        );
        m.insert(
            "comm.intra_host_bytes_per_op",
            stats.intra_host_bytes as f64 / batches / world,
        );
        // The engine's collectives block their rank, so all of their time is
        // exposed; both are read from the program's own comm spans.
        let traced_ops = traced_batches.max(1) as f64 * world;
        m.insert("comm.calls_per_op", digest.comm_spans as f64 / traced_ops);
        m.insert("comm.time_ms_per_op", digest.comm_span_s / traced_ops * 1e3);
        m.insert(
            "comm.exposed_ms_per_op",
            digest.comm_span_s / traced_ops * 1e3,
        );
        // P: the layers under one batch, at the per-rank shapes.
        let per_rank = SERVE_BATCH / cluster.world_size();
        let dim = snapshot.hyper.embedding_dim;
        let rows = per_rank * snapshot.schema.num_sparse();
        probes::comm(m, &cluster, rows * dim, rows, 0);
        let stack = DenseShape::of_snapshot(&snapshot)?;
        probes::gemm(m, &stack, per_rank, false, false);
        m.insert("tensor.flops_per_op", stack.forward_flops(SERVE_BATCH));
        probes::lookup(m, &snapshot, &pool, false);
        probes::dense_forward(m, &snapshot, per_rank, ComputePrecision::F32)?;
        probes::cache(m, &snapshot, &pool, config.batch.cache_rows);
        probes::query_generation(m, &snapshot.schema, args.seed, 1.1);
    }
    let batches: Vec<&[Query]> = (0..CHECKED_BATCHES).map(|b| pool_batch(&pool, b)).collect();
    check_predictions(
        &mut outcome,
        "first batches bit-identical to the reference forward",
        &checked,
        reference_predictions(&snapshot, &batches),
        0.0,
    );
    if !args.trace {
        drop((snapshot, pool));
        let median_s = set_up.median_s(setup_s, |engine| {
            let _ = engine.shutdown();
        })?;
        outcome.metrics.insert("setup_s", median_s);
    }
    Ok(outcome)
}

fn single_server(
    snapshot: &ModelSnapshot,
    precision: ComputePrecision,
) -> Result<SingleRankServer, String> {
    SingleRankServer::from_snapshot(snapshot, precision).map_err(|e| format!("server load: {e}"))
}

fn serve_single_int8(args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    // Exponent 0.05: near-uniform ids, so the int8 tables are gathered cold.
    let start = |snapshot: &ModelSnapshot| single_server(snapshot, ComputePrecision::Int8);
    let set_up = SetUp {
        seed: args.seed,
        mode: ExecutionMode::Baseline,
        exponent: 0.05,
        start: &start,
    };
    let Ready {
        snapshot,
        pool,
        engine: mut server,
        setup_s,
        snapshot_s,
        start_s,
    } = set_up.run()?;
    outcome.input_hash = hash_queries(&pool);

    let mut preds = Vec::with_capacity(SERVE_BATCH);
    let mut checked: Vec<Vec<f32>> = Vec::new();
    for b in 0..WARMUP_BATCHES {
        server
            .serve_into(pool_batch(&pool, b), &mut preds)
            .map_err(|e| format!("warm-up batch failed: {e}"))?;
        if b < CHECKED_BATCHES {
            checked.push(preds.clone());
        }
    }
    let serve = |driver: &mut Driver, id: u64, queries: &[Query]| {
        let start = Instant::now();
        let result = driver.call("serve_into", id, || server.serve_into(queries, &mut preds));
        let call_s = start.elapsed().as_secs_f64();
        result
            .map(|()| (call_s, in_unit_interval(&preds)))
            .map_err(|e| e.to_string())
    };

    if closed_loop_run(args, &mut outcome, &pool, "serve_into", serve)?.is_some() {
        let m = &mut outcome.metrics;
        m.insert("serve.start_s", start_s);
        m.insert("trainer.snapshot_export_s", snapshot_s);
        m.insert("nn.table_resident_mb", mb(server.resident_bytes()));
        m.insert(
            "nn.rows_per_op",
            (SERVE_BATCH * snapshot.schema.num_sparse()) as f64,
        );
        // P: one thread, no comm, no cache: quantized gather and GEMM only.
        let stack = DenseShape::of_snapshot(&snapshot)?;
        probes::gemm(m, &stack, SERVE_BATCH, false, true);
        m.insert("tensor.flops_per_op", stack.forward_flops(SERVE_BATCH));
        probes::lookup(m, &snapshot, &pool, true);
        probes::dense_forward(m, &snapshot, SERVE_BATCH, ComputePrecision::Int8)?;
        probes::query_generation(m, &snapshot.schema, args.seed, 0.05);
    }
    drop(server);
    let reference = single_server(&snapshot, ComputePrecision::F32).and_then(|mut f32_server| {
        (0..CHECKED_BATCHES)
            .map(|b| {
                f32_server
                    .serve(pool_batch(&pool, b))
                    .map_err(|e| e.to_string())
            })
            .collect()
    });
    check_predictions(
        &mut outcome,
        "first batches within 0.01 of f32",
        &checked,
        reference,
        0.01,
    );
    if !args.trace {
        drop((snapshot, pool));
        outcome
            .metrics
            .insert("setup_s", set_up.median_s(setup_s, drop)?);
    }
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// Open-loop serving: serve_staged_open
// ---------------------------------------------------------------------------

/// Offered load: fixed, about half of the closed-loop saturation of the
/// staged engine on a 2-core box.
const OPEN_RATE_PER_S: f64 = 20_000.0;
/// A request is good if it completes within this of its scheduled arrival.
const LATENCY_LIMIT_US: u64 = 5_000;
const STAGED_MAX_BATCH: usize = 16;
const STAGED_MAX_DELAY_US: u64 = 500;
/// The generator may run this late at its windowed p99 before the run is
/// called invalid.
const GENERATOR_LATE_LIMIT_MS: f64 = 1.0;
/// How long the driver waits for the last completions after the schedule.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);

/// What an open-loop phase measured, one entry per scheduled request.
struct OpenLoop {
    /// Scheduled arrival → completion in ms, in schedule order; `None` for a
    /// request that was shed, failed or never completed.
    sojourn_ms: Vec<Option<f64>>,
    /// How late after its scheduled instant each request was offered, in ms.
    late_ms: Vec<f64>,
    shed: u64,
    /// Requests lost to a pipeline error.
    failed: u64,
    in_range: bool,
    /// Scheduled arrival offsets in microseconds, and where the schedule ends.
    schedule_us: Vec<u64>,
    horizon_s: f64,
}

impl OpenLoop {
    fn offered(&self) -> u64 {
        self.sojourn_ms.len() as u64
    }

    fn completed(&self) -> Vec<f64> {
        self.sojourn_ms.iter().flatten().copied().collect()
    }

    fn good_in(&self, range: std::ops::Range<usize>) -> u64 {
        let limit_ms = LATENCY_LIMIT_US as f64 / 1e3;
        self.sojourn_ms[range]
            .iter()
            .flatten()
            .filter(|&&ms| ms <= limit_ms)
            .count() as u64
    }

    fn good(&self) -> u64 {
        self.good_in(0..self.sojourn_ms.len())
    }

    /// Requests per second that met the latency limit, in the best of ten
    /// windows of the schedule.
    fn good_per_s(&self) -> f64 {
        let end_us = |i: usize| {
            self.schedule_us
                .get(i)
                .map_or(self.horizon_s * 1e6, |&t| t as f64)
        };
        windows(self.schedule_us.len())
            .into_iter()
            .map(|w| {
                let span_s = (end_us(w.end) - end_us(w.start)) / 1e6;
                self.good_in(w) as f64 / span_s.max(1e-12)
            })
            .fold(0.0, f64::max)
    }
}

/// The open-loop driver: offers one single-query request per scheduled
/// arrival, whatever the engine's state, pumps the batcher's deadline trigger
/// and drains completions in between, and times every request from its
/// *scheduled* instant, so a stall of the generator lengthens the recorded
/// latency and does not hide it.
fn open_loop(
    engine: &mut StagedEngine,
    pool: &[Query],
    first_query: usize,
    schedule: &[u64],
    horizon_s: f64,
    driver: &mut Driver,
) -> OpenLoop {
    let n = schedule.len();
    let mut log = OpenLoop {
        sojourn_ms: vec![None; n],
        late_ms: Vec::with_capacity(n),
        shed: 0,
        failed: 0,
        in_range: true,
        schedule_us: schedule.to_vec(),
        horizon_s,
    };
    // Engine sequence number → (schedule index, scheduled instant).
    let mut admitted: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
    // Books what a `drain` returned; `false` when the pipeline has failed.
    fn absorb(
        log: &mut OpenLoop,
        admitted: &mut BTreeMap<u64, (usize, u64)>,
        drained: Result<Vec<CompletedRequest>, ServeError>,
    ) -> bool {
        let Ok(done) = drained else { return false };
        for c in done {
            if let Some((i, scheduled)) = admitted.remove(&c.seq) {
                log.sojourn_ms[i] = Some(c.done_us.saturating_sub(scheduled) as f64 / 1e3);
                log.in_range &= in_unit_interval(&c.preds);
            }
        }
        true
    }
    let base = engine.now_us() + 1_000;
    let mut alive = true;
    for (i, offset) in schedule.iter().enumerate() {
        let scheduled = base + offset;
        let id = i as u64;
        loop {
            alive &= driver.call("pump", id, || engine.pump()).is_ok();
            let drained = driver.call("drain", id, || engine.drain());
            alive &= absorb(&mut log, &mut admitted, drained);
            let now = engine.now_us();
            if now >= scheduled || !alive {
                break;
            }
            let wake = scheduled.min(engine.next_close_us().unwrap_or(u64::MAX));
            if wake > now {
                std::thread::sleep(Duration::from_micros((wake - now).min(200)));
            }
        }
        if !alive {
            break;
        }
        let request = Request::new(vec![pool[(first_query + i) % pool.len()].clone()])
            .with_deadline_us(scheduled + LATENCY_LIMIT_US);
        log.late_ms
            .push(engine.now_us().saturating_sub(scheduled) as f64 / 1e3);
        match driver.call("offer", id, || engine.offer(request)) {
            Ok(seq) => {
                admitted.insert(seq, (i, scheduled));
            }
            Err(e) if e.is_shed() => log.shed += 1,
            Err(_) => alive = false,
        }
    }
    // Drain: close the last batch and wait for what is still in flight.
    let deadline = Instant::now() + DRAIN_LIMIT;
    alive &= engine.flush().is_ok();
    while alive && !admitted.is_empty() && Instant::now() < deadline {
        alive &= engine.pump().is_ok();
        alive &= absorb(&mut log, &mut admitted, engine.drain());
        std::thread::sleep(Duration::from_micros(200));
    }
    if !alive {
        log.failed = admitted.len() as u64;
    }
    log
}

fn open_loop_checks(outcome: &mut Outcome, logs: &[&OpenLoop]) {
    let offered: u64 = logs.iter().map(|l| l.offered()).sum();
    let completed: u64 = logs
        .iter()
        .map(|l| l.sojourn_ms.iter().flatten().count() as u64)
        .sum();
    let shed: u64 = logs.iter().map(|l| l.shed).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    outcome.attempted = offered;
    outcome.failed = offered - completed;
    outcome.samples = logs[0].sojourn_ms.iter().flatten().count() as u64;
    outcome.check(
        "predictions in [0, 1]",
        logs.iter().all(|l| l.in_range),
        format!("{completed} requests"),
    );
    outcome.check(
        "offered = completed + shed + failed",
        offered == completed + shed + failed,
        format!("{offered} offered, {completed} completed, {shed} shed, {failed} failed"),
    );
    outcome.check(
        "every offered request completed by the end of the drain",
        completed == offered,
        format!("{} unfinished, shed or failed", offered - completed),
    );
    let late = best_window_percentile(&logs[0].late_ms, 99.0);
    outcome.check(
        "the generator kept its schedule",
        late <= GENERATOR_LATE_LIMIT_MS,
        format!("offered {late:.3} ms late at p99, limit {GENERATOR_LATE_LIMIT_MS} ms"),
    );
}

fn serve_staged_open(args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let batch = BatchConfig {
        max_batch: STAGED_MAX_BATCH,
        max_delay_us: STAGED_MAX_DELAY_US,
        cache_rows: 0,
    };
    let config = ServeConfig::new(cluster(2, 2)).with_batch(batch);
    let start = |snapshot: &ModelSnapshot| {
        StagedEngine::start(snapshot, StagePools::new(2, 1), &config)
            .map_err(|e| format!("engine start: {e}"))
    };
    let set_up = SetUp {
        seed: args.seed,
        mode: ExecutionMode::Baseline,
        exponent: 1.1,
        start: &start,
    };
    let Ready {
        snapshot,
        pool,
        mut engine,
        setup_s,
        snapshot_s,
        start_s,
    } = set_up.run()?;
    let horizon_s = if args.trace {
        args.seconds * PLAIN_SHARE
    } else {
        args.seconds
    };
    let schedule = poisson_schedule(args.seed, OPEN_RATE_PER_S, horizon_s);
    let mut hash = InputHash::new();
    hash.word(hash_queries(&pool));
    schedule.iter().for_each(|&offset| hash.word(offset));
    outcome.input_hash = hash.finish();

    // Warm-up and check batches: 16 requests offered back to back close one
    // batch by size, so its composition is known and can be replayed on the
    // single-rank f32 server after the measurement.
    let mut checked: Vec<Vec<f32>> = vec![vec![0.0; STAGED_MAX_BATCH]; CHECKED_BATCHES];
    let warm_requests = WARMUP_BATCHES * STAGED_MAX_BATCH;
    let mut in_flight = 0usize;
    // No `pump` here: the deadline trigger must not split a check batch.
    let mut harvest = |engine: &mut StagedEngine, in_flight: &mut usize| -> Result<(), String> {
        for c in engine.drain().map_err(|e| e.to_string())? {
            *in_flight -= 1;
            let seq = c.seq as usize;
            if seq < CHECKED_BATCHES * STAGED_MAX_BATCH {
                checked[seq / STAGED_MAX_BATCH][seq % STAGED_MAX_BATCH] = c.preds[0];
            }
        }
        Ok(())
    };
    // At most one rate-matching queue of batches in flight, so the engine's
    // occupancy gauge is not set by the warm-up.
    let warm_window = config.slo.stage_queue * STAGED_MAX_BATCH;
    let warm_deadline = Instant::now() + DRAIN_LIMIT;
    for (i, query) in pool.iter().enumerate().take(warm_requests) {
        engine
            .offer(Request::new(vec![query.clone()]))
            .map_err(|e| e.to_string())?;
        in_flight += 1;
        while in_flight >= warm_window || (i + 1 == warm_requests && in_flight > 0) {
            if Instant::now() > warm_deadline {
                return Err(format!(
                    "warm-up stalled with {in_flight} requests in flight"
                ));
            }
            harvest(&mut engine, &mut in_flight)?;
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    if args.trace {
        let before = engine.stats();
        let plain = open_loop(
            &mut engine,
            &pool,
            warm_requests,
            &schedule,
            horizon_s,
            &mut Driver::off(),
        );
        let after = engine.stats();
        let traced_s = args.seconds * TRACED_SHARE;
        let traced_schedule = poisson_schedule(args.seed + 1, OPEN_RATE_PER_S, traced_s);
        let mut driver = Driver::tracing();
        let next = warm_requests + schedule.len();
        let traced = open_loop(
            &mut engine,
            &pool,
            next,
            &traced_schedule,
            traced_s,
            &mut driver,
        );
        finish_trace(args, &mut outcome)?;
        let m = &mut outcome.metrics;
        m.insert(
            "metrics.trace_overhead_pct",
            overhead_pct(plain.good_per_s(), traced.good_per_s()),
        );
        let sojourn = plain.completed();
        m.insert(
            "serve.sojourn_ms_p99",
            best_window_percentile(&sojourn, 99.0),
        );
        m.insert("serve.sojourn_ms_max", percentile(&sojourn, 100.0));
        m.insert(
            "serve.generator_late_ms_p99",
            percentile(&plain.late_ms, 99.0),
        );
        m.insert(
            "serve.slo_attain_pct",
            plain.good() as f64 / plain.offered() as f64 * 100.0,
        );
        m.insert("serve.shed", plain.shed as f64);
        m.insert("serve.failed", plain.failed as f64);
        m.insert("serve.start_s", start_s);
        m.insert("trainer.snapshot_export_s", snapshot_s);
        // S: the driver's own calls into the engine, from the traced phase.
        m.insert("serve.offer_ns", driver.median_ns("offer"));
        m.insert("serve.pump_ns", driver.median_ns("pump"));
        m.insert("serve.drain_ns", driver.median_ns("drain"));
        // R: the engine's accounting over the untraced phase.
        let batches = (after.batches - before.batches).max(1) as f64;
        let queries = (after.queries - before.queries).max(1) as f64;
        m.insert("serve.batch_size_mean", queries / batches);
        m.insert(
            "serve.size_closes",
            (after.size_closes - before.size_closes) as f64,
        );
        m.insert(
            "serve.deadline_closes",
            (after.deadline_closes - before.deadline_closes) as f64,
        );
        m.insert(
            "serve.xfer_bytes_per_query",
            (after.xfer_bytes - before.xfer_bytes) as f64 / queries,
        );
        m.insert("serve.max_occupancy", after.max_occupancy as f64);
        m.insert("nn.rows_per_op", snapshot.schema.num_sparse() as f64);
        let table_bytes: usize = snapshot.tables.iter().map(|t| t.data.len() * 4).sum();
        m.insert("nn.table_resident_mb", mb(table_bytes as u64));
        // P: the layers under one deadline-closed batch.
        let rows = (queries / batches).round().max(1.0) as usize;
        let stack = DenseShape::of_snapshot(&snapshot)?;
        probes::gemm(m, &stack, rows, false, false);
        m.insert("tensor.flops_per_op", stack.forward_flops(1));
        probes::lookup(m, &snapshot, &pool, false);
        probes::dense_forward(m, &snapshot, rows, ComputePrecision::F32)?;
        probes::batcher_and_admission(m, &pool);
        probes::query_generation(m, &snapshot.schema, args.seed, 1.1);
        open_loop_checks(&mut outcome, &[&plain, &traced]);
    } else {
        let log = open_loop(
            &mut engine,
            &pool,
            warm_requests,
            &schedule,
            horizon_s,
            &mut Driver::off(),
        );
        let sojourn = log.completed();
        let m = &mut outcome.metrics;
        m.insert("op_ms_p50", best_window_percentile(&sojourn, 50.0));
        m.insert("op_ms_p95", best_window_percentile(&sojourn, 95.0));
        m.insert("items_per_s", log.good_per_s());
        m.insert("peak_rss_mb", peak_rss_mb());
        open_loop_checks(&mut outcome, &[&log]);
    }
    engine
        .shutdown()
        .map_err(|e| format!("engine shutdown: {e}"))?;
    let reference = single_server(&snapshot, ComputePrecision::F32).and_then(|mut server| {
        (0..CHECKED_BATCHES)
            .map(|b| {
                let queries = &pool[b * STAGED_MAX_BATCH..(b + 1) * STAGED_MAX_BATCH];
                server.serve(queries).map_err(|e| e.to_string())
            })
            .collect()
    });
    check_predictions(
        &mut outcome,
        "first batches bit-identical to the single-rank f32 server",
        &checked,
        reference,
        0.0,
    );
    if !args.trace {
        drop((snapshot, pool));
        let median_s = set_up.median_s(setup_s, |engine| drop(engine.shutdown()))?;
        outcome.metrics.insert("setup_s", median_s);
    }
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// Probes: the benchmark calls a layer's public function itself
// ---------------------------------------------------------------------------

mod probes {
    use super::*;
    use rand::SeedableRng;

    /// Calls per probe at least, and the time a probe spends at least.
    const MIN_CALLS: usize = 200;
    const MIN_SECONDS: f64 = 0.05;

    /// Median nanoseconds per call of `f`.
    fn median_ns(mut f: impl FnMut()) -> f64 {
        let mut ns = Vec::with_capacity(MIN_CALLS);
        let begin = Instant::now();
        while ns.len() < MIN_CALLS || begin.elapsed().as_secs_f64() < MIN_SECONDS {
            let start = Instant::now();
            f();
            ns.push(start.elapsed().as_secs_f64() * 1e9);
        }
        median(&ns)
    }

    fn filled(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = crate::gen::SplitMix64::new(seed);
        (0..len).map(|_| rng.next_open01() as f32 - 0.5).collect()
    }

    /// `dmt-tensor` at the first over-arch layer `[rows, k] x [k, n]`, the
    /// widest GEMM of the dense stack.
    pub fn gemm(m: &mut Metrics, stack: &DenseShape, rows: usize, backward: bool, int8: bool) {
        let (k, n) = (stack.over[0], stack.over[1]);
        let a = filled(rows * k, 1);
        let b = filled(k * n, 2);
        let bias = filled(n, 3);
        let mut c = vec![0.0f32; rows * n];
        let fused = median_ns(|| {
            kernels::gemm_fused_bias(&a, &b, &bias, &mut c, rows, k, n, true);
            std::hint::black_box(&mut c);
        });
        m.insert("tensor.gemm_fused_bias_ns", fused);
        m.insert("tensor.gemm_gflops", 2.0 * (rows * k * n) as f64 / fused);
        if backward {
            // dW = x^T dy and dx = dy W^T of the same layer.
            let dy = filled(rows * n, 4);
            let mut dw = vec![0.0f32; k * n];
            m.insert(
                "tensor.gemm_at_b_ns",
                median_ns(|| {
                    dw.fill(0.0);
                    kernels::gemm_at_b(&a, &dy, &mut dw, rows, k, n);
                    std::hint::black_box(&mut dw);
                }),
            );
            let mut dx = vec![0.0f32; rows * k];
            m.insert(
                "tensor.gemm_a_bt_ns",
                median_ns(|| {
                    dx.fill(0.0);
                    kernels::gemm_a_bt(&dy, &b, &mut dx, rows, n, k);
                    std::hint::black_box(&mut dx);
                }),
            );
        }
        if int8 {
            let packed = QuantizedBtMatrix::from_col_major(&b, k, n);
            m.insert(
                "tensor.gemm_q8_ns",
                median_ns(|| {
                    c.fill(0.0);
                    gemm_a_bt_q8(&a, &packed, &mut c, rows, k);
                    std::hint::black_box(&mut c);
                }),
            );
        }
    }

    /// `dmt-nn` on the write side: pooled forward, backward and the row-wise
    /// Adagrad step over one rank's batch on the largest table.
    pub fn embedding_training(m: &mut Metrics, config: &DistributedConfig) {
        let schema = &config.schema;
        let (feature, &rows) = schema
            .sparse_cardinalities
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .expect("schema has sparse features");
        let dim = config.hyper.embedding_dim;
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let mut table = EmbeddingTable::new(&mut rng, rows, dim);
        let batch =
            SyntheticClickDataset::new(schema.clone(), config.seed).next_batch(config.local_batch);
        let bags = &batch.sparse[feature];
        let gathered: usize = bags.iter().map(Vec::len).sum();
        let grad = Tensor::full(&[bags.len(), dim], 1e-3);
        m.insert(
            "nn.embedding_fwd_ns_per_row",
            median_ns(|| {
                std::hint::black_box(table.forward(bags).expect("forward"));
            }) / gathered as f64,
        );
        m.insert(
            "nn.embedding_bwd_ns_per_row",
            median_ns(|| {
                table.backward(&grad).expect("backward after forward");
                table.apply_rowwise_adagrad(config.learning_rate, 1e-8);
            }) / gathered as f64,
        );
        let per_rank: usize = batch.sparse.iter().flatten().map(Vec::len).sum();
        m.insert("nn.rows_per_op", per_rank as f64);
        let world = config.cluster.world_size();
        m.insert(
            "nn.table_resident_mb",
            mb((schema.total_rows() * dim * 4 / world) as u64),
        );
    }

    /// `dmt-nn` on the read side: the owner's raw row gather over one batch
    /// of the workload's ids on the largest table, f32 or int8.
    pub fn lookup(m: &mut Metrics, snapshot: &ModelSnapshot, pool: &[Query], int8: bool) {
        let table = snapshot
            .tables
            .iter()
            .max_by_key(|t| t.rows)
            .expect("snapshot has tables");
        let ids: Vec<usize> = pool_batch(pool, 0)
            .iter()
            .flat_map(|q| q.sparse[table.feature].iter().copied())
            .collect();
        let mut out = Vec::with_capacity(ids.len() * table.dim);
        if int8 {
            let q8 = QuantizedEmbeddingTable::from_weights(
                table.rows,
                table.dim,
                &table.data,
                ComputePrecision::Int8,
            );
            m.insert(
                "nn.lookup_q8_ns_per_row",
                median_ns(|| {
                    out.clear();
                    q8.lookup_rows_into(&ids, &mut out);
                    std::hint::black_box(&mut out);
                }) / ids.len() as f64,
            );
        } else {
            let f32_table = EmbeddingTable::from_weights(table.rows, table.dim, table.data.clone());
            m.insert(
                "nn.lookup_ns_per_row",
                median_ns(|| {
                    out.clear();
                    f32_table.lookup_rows_into(&ids, &mut out);
                    std::hint::black_box(&mut out);
                }) / ids.len() as f64,
            );
        }
    }

    /// `dmt-comm` over the cluster's global group, one thread per rank, with
    /// per-rank payloads of the workload (elements, split evenly over the
    /// destinations). Times are rank 0's; every call is a full rendezvous.
    pub fn comm(
        m: &mut Metrics,
        cluster: &ClusterTopology,
        all_to_all_floats: usize,
        all_to_all_indices: usize,
        all_reduce_floats: usize,
    ) {
        let group = ProcessGroup::global(cluster);
        let handles = SharedMemoryComm::for_group(cluster, &group, FabricProfile::unthrottled());
        let world = handles.len();
        let rank_loop = |mut backend: SharedMemoryBackend| -> [f64; 4] {
            // A fixed call count: every rank must enter every rendezvous.
            let mut time = |op: &mut dyn FnMut(&mut SharedMemoryBackend)| {
                let mut ns = Vec::with_capacity(MIN_CALLS);
                for _ in 0..MIN_CALLS {
                    let start = Instant::now();
                    op(&mut backend);
                    ns.push(start.elapsed().as_secs_f64() * 1e9);
                }
                median(&ns)
            };
            let floats = vec![vec![0.5f32; all_to_all_floats / world]; world];
            let indices = vec![vec![7u64; all_to_all_indices / world]; world];
            let mut reduce = vec![0.25f32; all_reduce_floats];
            [
                time(&mut |b| drop(b.all_to_all(floats.clone()).expect("all_to_all"))),
                time(&mut |b| drop(b.all_to_all_indices(indices.clone()).expect("indices"))),
                time(&mut |b| b.all_reduce(&mut reduce).expect("all_reduce")),
                time(&mut |b| b.barrier().expect("barrier")),
            ]
        };
        let rank0 = std::thread::scope(|scope| {
            let joins: Vec<_> = handles
                .into_iter()
                .map(|h| scope.spawn(move || rank_loop(h)))
                .collect();
            let mut times = joins
                .into_iter()
                .map(|j| j.join().expect("comm probe rank"));
            let rank0 = times.next().expect("world has a rank 0");
            times.for_each(drop);
            rank0
        });
        m.insert("comm.all_to_all_ns", rank0[0]);
        m.insert("comm.all_to_all_indices_ns", rank0[1]);
        m.insert(
            "comm.all_reduce_ns",
            if all_reduce_floats > 0 { rank0[2] } else { 0.0 },
        );
        m.insert("comm.barrier_ns", rank0[3]);
    }

    /// `dmt-trainer`'s dense stack on the inference path at the serving batch.
    pub fn dense_forward(
        m: &mut Metrics,
        snapshot: &ModelSnapshot,
        rows: usize,
        precision: ComputePrecision,
    ) -> Result<(), String> {
        let DenseShape { width, units, .. } = DenseShape::of_snapshot(snapshot)?;
        let mut dense = dense_stack(snapshot)?;
        dense.quantize_weights(precision);
        let dense_input = Tensor::full(&[rows, snapshot.schema.num_dense], 0.1);
        let features = Tensor::full(&[rows, width * (units - 1)], 0.05);
        let mut preds = Vec::with_capacity(rows);
        let mut scratch = DenseScratch::default();
        dense
            .forward_infer(&dense_input, &features, &mut preds, &mut scratch)
            .map_err(|e| e.to_string())?;
        m.insert(
            "trainer.dense_fwd_ns",
            median_ns(|| {
                dense
                    .forward_infer(&dense_input, &features, &mut preds, &mut scratch)
                    .expect("shape checked above");
                std::hint::black_box(&mut preds);
            }),
        );
        Ok(())
    }

    /// `dmt-data`: drawing one rank's training batch.
    pub fn batch_generation(m: &mut Metrics, config: &DistributedConfig) {
        let mut data = SyntheticClickDataset::new(config.schema.clone(), config.seed);
        m.insert(
            "data.batch_gen_ns_per_sample",
            median_ns(|| {
                std::hint::black_box(data.next_batch(config.local_batch));
            }) / config.local_batch as f64,
        );
    }

    /// `dmt-data`: drawing one serving query.
    pub fn query_generation(m: &mut Metrics, schema: &DatasetSchema, seed: u64, exponent: f64) {
        let mut stream = ZipfRequestStream::new(schema.clone(), seed, exponent);
        m.insert(
            "data.query_gen_ns",
            median_ns(|| {
                std::hint::black_box(stream.next_query());
            }),
        );
    }

    /// `dmt-serve`'s hot-row cache at the engine's capacity, fed the ids of
    /// the workload: a miss is followed by an insert, as on the query path.
    pub fn cache(m: &mut Metrics, snapshot: &ModelSnapshot, pool: &[Query], capacity: usize) {
        let dim = snapshot.hyper.embedding_dim;
        let mut cache = HotRowCache::new(capacity, dim);
        let keys: Vec<u64> = pool
            .iter()
            .take(4096)
            .flat_map(|q| {
                q.sparse
                    .iter()
                    .enumerate()
                    .map(|(f, bag)| encode_key(f, bag[0]))
            })
            .collect();
        let row = vec![0.5f32; dim];
        let mut out = Vec::with_capacity(dim);
        let (mut lookups, mut inserts) = (Vec::new(), Vec::new());
        for &key in &keys {
            out.clear();
            let start = Instant::now();
            let hit = cache.lookup_into(key, &mut out);
            lookups.push(start.elapsed().as_secs_f64() * 1e9);
            if !hit {
                let start = Instant::now();
                cache.insert(key, &row);
                inserts.push(start.elapsed().as_secs_f64() * 1e9);
            }
        }
        m.insert("serve.cache_lookup_ns", median(&lookups));
        m.insert("serve.cache_insert_ns", median(&inserts));
    }

    /// `dmt-serve`'s front door: one admission decision and one batcher push
    /// per single-query request, as `offer` performs them.
    pub fn batcher_and_admission(m: &mut Metrics, pool: &[Query]) {
        let mut admission = AdmissionController::new(&SloConfig::default());
        let mut now_us = 0u64;
        m.insert(
            "serve.admission_ns",
            median_ns(|| {
                now_us += 50;
                let verdict = admission.try_admit(now_us, 1, NO_DEADLINE, Priority::Standard);
                std::hint::black_box(&verdict)
                    .as_ref()
                    .expect("shedding is off");
                admission.release(1);
            }),
        );
        let mut batcher: MicroBatcher<Query> =
            MicroBatcher::new(BatcherConfig::new(STAGED_MAX_BATCH, STAGED_MAX_DELAY_US));
        let mut i = 0usize;
        let mut pushes = Vec::with_capacity(4096);
        while pushes.len() < 4096 {
            let item = pool[i % pool.len()].clone();
            i += 1;
            let start = Instant::now();
            let closed = batcher.push_by(i as u64 * 50 + STAGED_MAX_DELAY_US, item);
            pushes.push(start.elapsed().as_secs_f64() * 1e9);
            drop(closed);
        }
        m.insert("serve.batcher_push_ns", median(&pushes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_pool_is_reproducible_from_the_seed() {
        let pool = |seed: u64, exponent: f64| {
            ZipfRequestStream::new(DatasetSchema::criteo_like_small(), seed, exponent)
                .next_queries(256)
        };
        assert_eq!(hash_queries(&pool(5, 1.1)), hash_queries(&pool(5, 1.1)));
        assert_ne!(hash_queries(&pool(5, 1.1)), hash_queries(&pool(6, 1.1)));
        assert_ne!(hash_queries(&pool(5, 1.1)), hash_queries(&pool(5, 0.05)));
    }

    #[test]
    fn work_is_fixed_by_the_arguments() {
        // Same seed and seconds: the same configuration and iteration count.
        let (a, b) = (train_plan("train_dmt", 3), train_plan("train_dmt", 3));
        assert_eq!(a.config, b.config);
        assert_eq!(a.config.seed, 3);
        assert_eq!(
            train_plan("train_dmt_paced", 3).config.cluster.world_size(),
            8
        );
        assert!(train_plan("train_dmt_paced", 3)
            .config
            .fabric
            .is_throttled());
        assert!(!a.config.fabric.is_throttled());
    }

    #[test]
    fn dense_shape_counts_the_flops_of_both_mlps() {
        let config = cpu_bound_config(1);
        let baseline = DenseShape::of_training(&config, ExecutionMode::Baseline).unwrap();
        // 27 units of width 32: 32 + 27*26/2 inputs into the over-arch.
        assert_eq!(baseline.over, [383, 128, 64, 1]);
        assert_eq!(baseline.bottom, [13, 64, 48, 32]);
        let per_row = 2 * (13 * 64 + 64 * 48 + 48 * 32 + 383 * 128 + 128 * 64 + 64);
        assert_eq!(baseline.forward_flops(10), (10 * per_row) as f64);
        // DMT interacts 2 tower outputs and the dense unit at width 16.
        let dmt = DenseShape::of_training(&config, ExecutionMode::Dmt).unwrap();
        assert_eq!((dmt.width, dmt.units, dmt.over[0]), (16, 3, 19));
    }
}
