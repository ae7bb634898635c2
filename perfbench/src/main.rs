//! `perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload (or all four) and prints, last on stdout, one JSON
//! line `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of the traced replay
//! with `--trace 1`. A `{"report": ...}` line before it records the
//! seed, workload shape, environment and check results; stderr gets a
//! readable table. `--workload all` runs every workload with the replay
//! and prints both metric sets.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{self, END_TO_END, PER_LAYER};
use perfbench::{env, Plan, Run, RunCtx, Workload, DEFAULT_SEED};
use serde_json::{json, Value};

const USAGE: &str =
    "usage: perfbench --workload <ensemble_miss|ensemble_hit|int8_burst8|train_step|all> \
     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workloads: Vec<Workload>,
    all: bool,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        all: false,
        seed: None,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => {
                parsed.all = true;
                parsed.workloads = Workload::ALL.to_vec();
            }
            "--workload" => {
                parsed.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?];
            }
            "--seed" => parsed.seed = Some(number()?),
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// Scratch directory for one process's model artifacts, inside the
/// benchmark's own `target/`; removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Self {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("work-{}", std::process::id()));
        Self(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

/// The `{"report": ...}` record of one run.
fn detail(ctx: &RunCtx, args: &Args, run: &Run, vars: &[(String, String)]) -> Value {
    let shape = &run.shape;
    let edge_types: Vec<String> = shape
        .exercised
        .iter()
        .map(|&t| paragraph::edge_type_name(t))
        .collect();
    let env_vars: serde_json::Map = vars.iter().fold(serde_json::Map::new(), |mut m, (k, v)| {
        m.insert(k.clone(), Value::String(v.clone()));
        m
    });
    json!({"report": {
        "workload": ctx.workload.name(),
        "seed": ctx.seed,
        "default_seed": DEFAULT_SEED,
        "seed_given": args.seed.is_some(),
        "seconds": args.seconds,
        "trace": ctx.trace,
        "ops": {
            "sent": run.timed.ops,
            "succeeded": run.timed.ops - run.timed.failed.min(run.timed.ops),
            "failed": run.timed.failed,
            "checked_against_reference": run.checked,
            "timed_phase_s": run.timed.wall_s,
        },
        "shape": {
            "devices_per_op": shape.devices,
            "nodes_per_op": shape.nodes,
            "edges_per_op": shape.edges,
            "edge_types_per_op": shape.edge_types,
            "edge_types_exercised": edge_types,
        },
        "hardware_threads": env::hardware_threads(),
        "artifact_fingerprint": run.artifacts.map(|(f, _)| Value::String(hex(f))),
        "artifact_bytes": run.artifacts.map(|(_, b)| b),
        "paragraph_env_cleared": Value::Object(env_vars),
        "setup_s_samples": run.setup_s.clone(),
        "service": run.service.map(|s| json!({
            "cache_hit_ratio": s.cache_hit_ratio,
            "batch_size_mean": s.batch_size_mean,
        })),
        "problems": run.problems.clone(),
    }})
}

/// Shape sanity: a workload that ran on empty graphs measured nothing.
fn shape_problems(workload: Workload, run: &Run) -> Vec<String> {
    let s = &run.shape;
    let mut counts = vec![
        ("nodes", s.nodes),
        ("edges", s.edges),
        ("edge types", s.edge_types),
    ];
    if workload != Workload::TrainStep {
        counts.push(("devices", s.devices));
    }
    counts
        .into_iter()
        .filter(|(_, v)| v.is_nan() || *v <= 0.0)
        .map(|(what, _)| format!("{what} per op is zero"))
        .collect()
}

fn print_table(workload: Workload, defs: &[report::MetricDef], values: &Value) {
    for d in defs {
        eprintln!(
            "{:>14} {:<26} {:>14.4} {}",
            workload.name(),
            d.name,
            values[d.name]["value"].as_f64().unwrap_or(f64::NAN),
            d.unit
        );
    }
}

fn main() -> ExitCode {
    // Before any thread starts: the program reads overrides from these.
    let vars = env::take_paragraph_vars();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = WorkDir::new();
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut combined = serde_json::Map::new();
    let mut last = Value::Null;
    for &workload in &args.workloads {
        let ctx = RunCtx {
            workload,
            seed,
            plan: Plan::for_seconds(workload, args.seconds),
            trace: args.trace || args.all,
            work: work.0.join(workload.name()),
        };
        let mut run = match perfbench::run(&ctx) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("{}: {e}", workload.name());
                return ExitCode::from(1);
            }
        };
        let end_to_end = report::end_to_end(&run, ctx.plan.segments);
        let problems = shape_problems(workload, &run);
        run.problems.extend(problems);
        let mut sets: Vec<(&[report::MetricDef], Value)> = Vec::new();
        if !args.trace || args.all {
            sets.push((
                &END_TO_END,
                report::metrics_json(&END_TO_END, &end_to_end, &mut run.problems),
            ));
        }
        if ctx.trace {
            sets.push((
                &PER_LAYER,
                report::metrics_json(&PER_LAYER, &run.layers, &mut run.problems),
            ));
        }
        let ok = run.problems.is_empty() && run.timed.failed == 0;
        println!(
            "{}",
            serde_json::to_string(&detail(&ctx, &args, &run, &vars)).expect("report serialises")
        );
        let mut metrics = serde_json::Map::new();
        for (defs, values) in &sets {
            print_table(workload, defs, values);
            for d in defs.iter() {
                metrics.insert(d.name, values[d.name].clone());
                combined.insert(
                    format!("{}.{}", workload.name(), d.name),
                    values[d.name].clone(),
                );
            }
        }
        for p in &run.problems {
            eprintln!("{:>14} PROBLEM {p}", workload.name());
        }
        correct &= ok;
        attempted += run.timed.ops;
        failed += run.timed.failed;
        last = Value::Object(metrics);
        if args.all {
            println!(
                "{}",
                report::result_line(ok, run.timed.ops, run.timed.failed, last.clone())
            );
        }
    }
    let metrics = if args.all {
        Value::Object(combined)
    } else {
        last
    };
    println!(
        "{}",
        report::result_line(correct, attempted.max(1), failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
