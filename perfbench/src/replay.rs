//! The traced per-layer replay. After the end-to-end phase, one thread
//! replays the first `plan.replay_ops` ops of the workload's stream and
//! wraps each call into a layer's public functions with a timer and an
//! allocation delta, all from this file: no span is recorded inside
//! the program. Every metric is the mean per op over the replayed ops:
//! means add up, so `serve.unattributed_us` — the mean `handle_line`
//! minus the means of the named stages inside it — is the mean time no
//! named stage accounts for, and the stages and it sum to
//! `serve.handle_line_us` exactly. (Medians of stages taken from
//! different ops of a skewed size mix would not sum to anything.)

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use paragraph::{build_graph, raw_feature_rows, CircuitGraph, TargetModel};
use paragraph_exec::{Calibration, CompiledModel};
use paragraph_gnn::{GnnModel, GraphBatch, GraphTask, HeteroGraph};
use paragraph_netlist::{write_flat_spice, Circuit};
use paragraph_serve::{fnv1a, Gateway, ModelRef, ModelRegistry, Request, Service};
use paragraph_tensor::Adam;

use crate::http::{predict_request, HttpConn};
use crate::serving::{self, predict_line, BURST};
use crate::stream::{Input, Stream};
use crate::{alloc, check, report, stats, training, RunCtx, ServiceStats};

/// Stages `Service::handle_line` runs on a predict, as timed here.
const NAMED_STAGES: [&str; 7] = [
    "serve.request_parse_us",
    "netlist.parse_us",
    "serve.drift_us",
    "serve.cache_key_us",
    "core.graph_build_us",
    "core.predict_graph_us",
    "core.select_us",
];

/// Per-op samples of each per-layer metric.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(report::per_layer(name).is_some(), "unknown metric {name}");
        self.0.entry(name).or_default().push(value);
    }

    /// Means per op, and the derived `gateway.overhead_us` /
    /// `serve.unattributed_us`.
    fn finish(self, service: Option<ServiceStats>) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = self
            .0
            .iter()
            .map(|(&name, values)| (name, stats::mean(values)))
            .collect();
        if let Some(&handle) = out.get("serve.handle_line_us") {
            let named: f64 = NAMED_STAGES.iter().filter_map(|s| out.get(s)).sum();
            out.insert("serve.unattributed_us", handle - named);
            if let Some(&rtt) = out.get("gateway.rtt_us") {
                out.insert("gateway.overhead_us", rtt - handle);
            }
        }
        if let Some(s) = service {
            out.insert("serve.cache_hit_ratio", s.cache_hit_ratio);
            out.insert("serve.batch_size_mean", s.batch_size_mean);
        }
        out
    }

    fn shape(&mut self, graph: &HeteroGraph) {
        let types = (0..graph.num_edge_types())
            .filter(|&t| !graph.edges(t).is_empty())
            .count();
        self.push("core.nodes_per_op", graph.num_nodes() as f64);
        self.push("core.edges_per_op", graph.num_edges() as f64);
        self.push("core.edge_types_per_op", types as f64);
    }
}

/// Runs `f`; returns its result, the microseconds it took and the heap
/// allocations the process made meanwhile.
fn measure<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let allocs = alloc::allocations();
    let started = Instant::now();
    let out = f();
    let us = started.elapsed().as_secs_f64() * 1e6;
    (out, us, (alloc::allocations() - allocs) as f64)
}

fn jobs_counter() -> Arc<paragraph_obs::Counter> {
    paragraph_obs::global().counter("paragraph_runtime_jobs_total", &[])
}

/// The executor `TargetModel` compiles for itself: the artifact's GNN,
/// precision and calibration.
fn compile(model: &TargetModel) -> Result<CompiledModel, String> {
    let calibration = model.calibration.clone().map(Calibration::from_sites);
    CompiledModel::compile_with(
        model.gnn(),
        model.effective_precision(),
        calibration.as_ref(),
    )
    .map_err(|e| format!("compile: {e}"))
}

/// Times `Service::handle_line` and the serve/netlist stages inside it
/// that run before any model work; returns the parsed circuit.
fn serve_stages(
    s: &mut Samples,
    service: &Service,
    line: &str,
    netlist: &str,
    problems: &mut Vec<String>,
) -> Result<Circuit, String> {
    let jobs = jobs_counter();
    let before = jobs.get();
    let (response, us, allocs) = measure(|| service.handle_line(line));
    s.push("runtime.jobs_per_op", (jobs.get() - before) as f64);
    s.push("serve.handle_line_us", us);
    s.push("serve.allocs_per_op", allocs);
    if !response.contains("\"ok\":true") {
        problems.push(format!("replay handle_line not ok: {response:.200}"));
    }
    let (parsed, us, _) = measure(|| Request::parse(line));
    parsed.map_err(|e| format!("replay request parse: {e}"))?;
    s.push("serve.request_parse_us", us);
    let (circuit, us, allocs) = measure(|| check::circuit(netlist));
    s.push("netlist.parse_us", us);
    s.push("netlist.allocs_per_op", allocs);
    let circuit = circuit?;
    let (_, us, _) = measure(|| service.drift().observe(&raw_feature_rows(&circuit)));
    s.push("serve.drift_us", us);
    let (_, us, _) = measure(|| fnv1a(&write_flat_spice(&circuit)));
    s.push("serve.cache_key_us", us);
    Ok(circuit)
}

/// Per member: graph build + normalise, `predict_graph` (plan built
/// inside, as in serving), the first `plan()` of a fresh copy of the
/// graph, and the executor forward on that copy. Sums over members;
/// returns each member's predictions and the last member's graph.
fn model_stages(
    s: &mut Samples,
    members: &[TargetModel],
    execs: &[CompiledModel],
    circuit: &Circuit,
    out: &mut Vec<f32>,
) -> (Vec<Vec<Option<f64>>>, CircuitGraph) {
    let mut sums = [0.0_f64; 6]; // build us, build allocs, predict, plan, forward us, forward allocs
    let mut per_member = Vec::with_capacity(members.len());
    let mut last = None;
    for (member, exec) in members.iter().zip(execs) {
        let (cg, us, allocs) = measure(|| {
            let mut cg = build_graph(circuit);
            cg.normalize(&member.norm);
            cg
        });
        sums[0] += us;
        sums[1] += allocs;
        let fresh = cg.graph.clone();
        let (preds, us, _) = measure(|| member.predict_graph(circuit, &cg));
        sums[2] += us;
        per_member.push(preds);
        let (_, us, _) = measure(|| fresh.plan());
        sums[3] += us;
        let nodes = cg.net_nodes();
        let (_, us, allocs) = measure(|| exec.predict_into(&fresh, &nodes, out));
        sums[4] += us;
        sums[5] += allocs;
        last = Some(cg);
    }
    for (name, v) in [
        "core.graph_build_us",
        "core.graph_build_allocs",
        "core.predict_graph_us",
        "gnn.plan_build_us",
        "exec.forward_us",
        "exec.allocs_per_op",
    ]
    .into_iter()
    .zip(sums)
    {
        s.push(name, v);
    }
    (per_member, last.expect("at least one member"))
}

/// Replay of `ensemble_miss` / `ensemble_hit`: HTTP round trips over one
/// sequential keep-alive connection to a fresh gateway, then
/// `handle_line` and the stages on an in-process service with the same
/// config. For hits both caches are filled with the working set first.
///
/// # Errors
///
/// When the replay servers cannot be set up.
pub fn gateway(
    ctx: &RunCtx,
    dir: &Path,
    stream: &Stream,
    hit: bool,
    service_stats: ServiceStats,
    problems: &mut Vec<String>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let registry = Arc::new(ModelRegistry::open(dir).map_err(|e| e.to_string())?);
    let ensemble = registry.current().ensemble.clone().ok_or("no ensemble")?;
    let config = serving::gateway_config();
    let service = Service::new(Arc::clone(&registry), config.service.clone());
    let gateway = Gateway::bind("127.0.0.1:0", Arc::clone(&registry), config)
        .map_err(|e| format!("bind: {e}"))?
        .spawn();
    let mut conn = HttpConn::connect(gateway.addr()).map_err(|e| format!("connect: {e}"))?;
    let execs = ensemble
        .members()
        .iter()
        .map(compile)
        .collect::<Result<Vec<_>, _>>()?;
    let warm = if hit { &stream.inputs } else { &stream.warmup };
    for (i, input) in warm.iter().enumerate() {
        let id = if hit { i } else { usize::MAX - i };
        conn.roundtrip(&predict_request(id, &input.netlist, None))?;
        service.handle_line(&predict_line(id, &input.netlist, None));
    }

    let mut s = Samples::default();
    let mut out = Vec::new();
    for op in 0..ctx.plan.replay_ops.min(stream.order.len()) {
        let (id, input) = (stream.order[op], stream.op(op));
        let request = predict_request(id, &input.netlist, None);
        let (answer, us, _) = measure(|| {
            conn.roundtrip(&request)
                .map(|(status, body)| status == 200 && check::envelope_ok(body))
        });
        if answer != Ok(true) {
            problems.push(format!(
                "replay op {op}: gateway answer not ok ({answer:?})"
            ));
        }
        s.push("gateway.rtt_us", us);
        let line = predict_line(id, &input.netlist, None);
        let circuit = serve_stages(&mut s, &service, &line, &input.netlist, problems)?;
        if hit {
            s.shape(&build_graph(&circuit).graph);
            continue;
        }
        let (per_member, cg) = model_stages(&mut s, ensemble.members(), &execs, &circuit, &mut out);
        s.shape(&cg.graph);
        let (_, us, _) = measure(|| {
            (0..circuit.num_nets())
                .map(|net| {
                    let preds: Option<Vec<f64>> = per_member.iter().map(|pm| pm[net]).collect();
                    preds.map(|p| ensemble.select(&p))
                })
                .collect::<Vec<_>>()
        });
        s.push("core.select_us", us);
    }
    Ok(s.finish(Some(service_stats)))
}

/// Replay of `int8_burst8`: per request, `handle_line` on a service
/// with the window off (a lone request, so nothing waits for a batch)
/// and the stages; per burst, `GraphBatch::new` and the batched
/// executor forward (`predict_batch_into`), each divided by 8.
///
/// # Errors
///
/// When the replay service cannot be set up.
pub fn burst(
    ctx: &RunCtx,
    dir: &Path,
    stream: &Stream,
    service_stats: ServiceStats,
    problems: &mut Vec<String>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let registry = Arc::new(ModelRegistry::open(dir).map_err(|e| e.to_string())?);
    let model = match registry.current().resolve(None) {
        Ok((_, ModelRef::Single(m))) => m,
        _ => return Err("the int8 directory does not resolve to one model".into()),
    };
    let service = Service::new(Arc::clone(&registry), serving::burst_config(Duration::ZERO));
    let exec = compile(&model)?;
    let members = std::slice::from_ref(&*model);
    let execs = std::slice::from_ref(&exec);
    let mut out = Vec::new();
    let mut run_burst = |s: &mut Samples, burst: &[(usize, &Input)], problems: &mut Vec<String>| {
        let mut graphs = Vec::with_capacity(BURST);
        let mut nodes = Vec::with_capacity(BURST);
        for &(id, input) in burst {
            let line = predict_line(id, &input.netlist, None);
            let circuit = serve_stages(s, &service, &line, &input.netlist, problems)?;
            let (_, cg) = model_stages(s, members, execs, &circuit, &mut out);
            s.shape(&cg.graph);
            nodes.push(cg.net_nodes());
            graphs.push(cg.graph);
        }
        let refs: Vec<&HeteroGraph> = graphs.iter().collect();
        let per = burst.len() as f64;
        let (_, us, _) = measure(|| GraphBatch::new(&refs));
        s.push("gnn.batch_assemble_us", us / per);
        let (_, us, allocs) = measure(|| exec.predict_batch_into(&refs, &nodes, &mut out));
        s.push("exec.forward_us", us / per);
        s.push("exec.allocs_per_op", allocs / per);
        Ok::<(), String>(())
    };
    // Warm the lone and batched paths on the warm-up circuits (the timed
    // ones must stay cache misses), then discard those samples.
    let warm: Vec<(usize, &Input)> = stream
        .warmup
        .iter()
        .take(BURST)
        .enumerate()
        .map(|(i, input)| (usize::MAX - i, input))
        .collect();
    run_burst(&mut Samples::default(), &warm, problems)?;

    let mut s = Samples::default();
    let ops: Vec<(usize, &Input)> = (0..ctx.plan.replay_ops.min(stream.order.len()))
        .map(|op| (stream.order[op], stream.op(op)))
        .collect();
    for burst in ops.chunks(BURST) {
        run_burst(&mut s, burst, problems)?;
    }
    Ok(s.finish(Some(service_stats)))
}

/// Replay of `train_step`: `Trainer::step` on one copy of the initial
/// model and the same step decomposed (tape forward + MSE, backward +
/// parameter gradients, Adam) on another; their losses must agree
/// bitwise at every step.
pub fn train(
    ctx: &RunCtx,
    tasks: &[GraphTask],
    init: &GnnModel,
    problems: &mut Vec<String>,
) -> BTreeMap<&'static str, f64> {
    let jobs = jobs_counter();
    let mut stepped = init.clone();
    let mut trainer = training::trainer();
    let mut by_hand = init.clone();
    let mut adam = Adam::new(training::LR);
    let mut s = Samples::default();
    for op in 0..ctx.plan.replay_ops {
        let task = &tasks[op % tasks.len()];
        let before = jobs.get();
        let (loss, us, _) = measure(|| trainer.step(&mut stepped, task));
        s.push("runtime.jobs_per_op", (jobs.get() - before) as f64);
        s.push("gnn.train_step_us", us);
        let (want, [forward, backward, adam_us]) =
            training::manual_step(&mut by_hand, &mut adam, task);
        s.push("tensor.tape_forward_us", forward);
        s.push("tensor.backward_us", backward);
        s.push("tensor.adam_us", adam_us);
        s.shape(&task.graph);
        if loss.to_bits() != want.to_bits() {
            problems.push(format!(
                "replay step {op}: Trainer::step loss {loss}, by hand {want}"
            ));
        }
    }
    s.finish(None)
}
