//! The repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! dmt-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record <file>]
//! dmt-benchmark run --all [--seed <n>] [--seconds <s>]
//! dmt-benchmark compare <reference.json>[,<more>...] <candidate.json>[,<more>...]
//! dmt-benchmark list
//! ```

mod gen;
mod report;
mod spec;
mod stats;
mod sut;

use serde::json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Where `run` leaves `results.json` and the traces, relative to the working
/// directory (the root of the checkout).
const OUT_DIR: &str = "benchmark/out";
const DEFAULT_SECONDS: u64 = 10;

const USAGE: &str = "usage:
  dmt-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record <file>]
  dmt-benchmark run --all [--seed <n>] [--seconds <s>]
  dmt-benchmark compare <reference.json>[,<more>...] <candidate.json>[,<more>...]
  dmt-benchmark list";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("list") => Ok(list()),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// The options of `run`, parsed.
struct RunOptions {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunOptions, String> {
    let mut options = RunOptions {
        workload: None,
        all: false,
        seed: sut::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--all" => options.all = true,
            "--workload" => options.workload = Some(value()?.clone()),
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--record" => options.record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    if options.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    if options.all == options.workload.is_some() {
        return Err(format!("give either --all or --workload <name>\n{USAGE}"));
    }
    Ok(options)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let options = parse_run(args)?;
    match &options.workload {
        Some(workload) => run_one(workload, &options),
        None => run_all(&options),
    }
}

/// Runs one workload in this process, prints every metric by name with its
/// unit and every check, then the one-line result.
fn run_one(workload: &str, options: &RunOptions) -> Result<ExitCode, String> {
    let args = sut::RunArgs {
        workload: workload.to_string(),
        seed: options.seed,
        seconds: options.seconds as f64,
        trace: options.trace,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let mut outcome = sut::run(&args)?;
    let finite = outcome.metrics.values().all(|v| v.is_finite());
    outcome.checks.push(sut::Check {
        name: "every metric is a finite number",
        passed: finite,
        detail: String::new(),
    });
    println!(
        "workload {workload} seed {} seconds {} trace {} input_hash {:016x}",
        options.seed,
        options.seconds,
        u8::from(options.trace),
        outcome.input_hash
    );
    println!(
        "  ops_attempted = {}  ops_failed = {}  latency samples = {}",
        outcome.attempted, outcome.failed, outcome.samples
    );
    if let Value::Object(metrics) = report::metrics_value(&outcome, options.trace) {
        for (name, entry) in metrics {
            let value = entry.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("");
            println!("  {name} = {value} {unit}");
        }
    }
    for check in &outcome.checks {
        let mark = if check.passed { "ok" } else { "FAILED" };
        println!("  check [{mark}] {}: {}", check.name, check.detail);
    }
    if let Some(path) = &options.record {
        let text = report::record(&outcome, options.trace).render_pretty();
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", report::driver_line(&outcome, options.trace));
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Runs every workload untraced and traced, each run in a fresh child process
/// so that `peak_rss_mb` belongs to one workload, and writes `results.json`.
fn run_all(options: &RunOptions) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in &spec::WORKLOADS {
        let mut records = Vec::new();
        for trace in ["0", "1"] {
            let record_path = out_dir.join(format!("{}.trace{trace}.json", workload.name));
            let status = Command::new(&exe)
                .args(["run", "--workload", workload.name, "--trace", trace])
                .args(["--seed", &options.seed.to_string()])
                .args(["--seconds", &options.seconds.to_string()])
                .arg("--record")
                .arg(&record_path)
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            all_correct &= status.success();
            let text = std::fs::read_to_string(&record_path)
                .map_err(|e| format!("{} left no record: {e}", workload.name))?;
            let record: Value = text
                .parse()
                .map_err(|e| format!("{}: {e}", record_path.display()))?;
            std::fs::remove_file(&record_path).ok();
            records.push(record);
        }
        let per_layer = records.pop().expect("traced record");
        let end_to_end = records.pop().expect("untraced record");
        workloads.push((workload.name.to_string(), end_to_end, per_layer));
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let results = report::results(options.seed, options.seconds, nproc, &commit(), workloads);
    let path = out_dir.join("results.json");
    std::fs::write(&path, results.render_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "wrote {} (nproc {nproc}, all correct: {all_correct})",
        path.display()
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The commit being measured, where the checkout is a git repository.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Prints the workloads and why each exists, the end-to-end metrics with
/// their bounds, and every per-layer metric with the end-to-end metric it
/// should move.
fn list() -> ExitCode {
    println!("workloads");
    for w in &spec::WORKLOADS {
        println!("  {:<18} {}", w.name, w.why);
    }
    println!("end-to-end metrics (every workload reports each)");
    for m in &spec::END_TO_END {
        let better = m.better.as_str();
        println!(
            "  {:<12} {:<4} {better:<6} is better, bound {}",
            m.name, m.unit, m.bound
        );
    }
    println!("per-layer metrics (0 where the layer does not run) -> what each should move");
    for m in &spec::PER_LAYER {
        let better = m.better.as_str();
        println!("  {:<34} {:<8} {better:<6} -> {}", m.name, m.unit, m.moves);
    }
    ExitCode::SUCCESS
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [reference, candidate] = args else {
        return Err(USAGE.to_string());
    };
    let load = |list: &String| -> Result<Vec<Value>, String> {
        list.split(',')
            .map(|path| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                text.parse().map_err(|e| format!("{path}: {e}"))
            })
            .collect()
    };
    let regressed = report::compare(&load(reference)?, &load(candidate)?)?;
    Ok(if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
