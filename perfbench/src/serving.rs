//! The serving workloads. `ensemble_miss` and `ensemble_hit` drive a
//! 1-shard gateway over two closed-loop keep-alive HTTP connections
//! (EDA callers block on the annotation); `int8_burst8` submits bursts
//! of 8 to an in-process `Service`. Servers are built only from
//! `ModelRegistry::open`, `Gateway::bind` / `Service::new` and config
//! fields; precision comes from the artifact pins.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use paragraph::CapEnsemble;
use paragraph_serve::{
    Gateway, GatewayConfig, GatewayHandle, ModelRef, ModelRegistry, Service, ServiceConfig,
    Submitted,
};
use serde_json::Value;

use crate::http::{predict_request, HttpConn};
use crate::stream::{self, Stream};
use crate::{
    alloc, check, cold_starts, fixtures, replay, Run, RunCtx, ServiceStats, Shape, Timed, Workload,
};

/// Closed-loop client connections, one thread each.
pub const CONNECTIONS: usize = 2;
/// Service worker threads.
pub const WORKERS: usize = 2;
/// Requests per `int8_burst8` burst.
pub const BURST: usize = 8;
/// Admission window of the burst service: wide enough that all 8 jobs
/// of a burst join one batch. It closes as soon as the 8th job arrives.
pub const BURST_WINDOW: Duration = Duration::from_millis(20);
/// The circuit every cold start predicts on each served model.
pub const PROBE_NETLIST: &str = "mp o i vdd vdd pch\nmn o i vss vss nch\n.end\n";

/// The gateway of `ensemble_miss` / `ensemble_hit`: one shard, two
/// workers, default cache (256 entries).
pub fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        shards: 1,
        service: ServiceConfig {
            workers: WORKERS,
            // One job per forward pass. Two connections would otherwise
            // form batches of 1 or 2 depending on timing; batching is
            // what int8_burst8 measures.
            max_batch: 1,
            batch_window: Duration::ZERO,
            ..ServiceConfig::default()
        },
        ..GatewayConfig::default()
    }
}

/// The in-process service of `int8_burst8`.
pub fn burst_config(batch_window: Duration) -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        max_batch: BURST,
        batch_window,
        ..ServiceConfig::default()
    }
}

/// One JSON-lines predict request.
pub fn predict_line(id: usize, netlist: &str, model: Option<&str>) -> String {
    let mut line = serde_json::json!({"op": "predict", "id": id, "netlist": netlist});
    if let Some(model) = model {
        line["model"] = Value::String(model.to_owned());
    }
    serde_json::to_string(&line).expect("request serialises")
}

fn open_registry(dir: &Path) -> Result<Arc<ModelRegistry>, String> {
    ModelRegistry::open(dir)
        .map(Arc::new)
        .map_err(|e| format!("open {}: {e}", dir.display()))
}

/// Cold start of the gateway: registry open, gateway start, and the
/// first successful predict on every served model (lazy compile
/// included).
///
/// # Errors
///
/// When loading, binding or a probe predict fails.
pub fn cold_gateway(dir: &Path) -> Result<GatewayHandle, String> {
    let registry = open_registry(dir)?;
    let keys = registry.current().keys();
    let gateway = Gateway::bind("127.0.0.1:0", registry, gateway_config())
        .map_err(|e| format!("bind: {e}"))?
        .spawn();
    let mut conn = HttpConn::connect(gateway.addr()).map_err(|e| format!("connect: {e}"))?;
    for key in &keys {
        let (status, body) = conn.roundtrip(&predict_request(0, PROBE_NETLIST, Some(key)))?;
        if status != 200 || !check::envelope_ok(body) {
            return Err(format!(
                "cold-start predict on {key}: {status} {}",
                String::from_utf8_lossy(body)
            ));
        }
    }
    Ok(gateway)
}

/// Cold start of the burst service: registry open, service start, and
/// one burst of 8 probe predicts on every served model.
///
/// # Errors
///
/// When loading fails or a probe predict is not ok.
pub fn cold_burst_service(dir: &Path) -> Result<Service, String> {
    let registry = open_registry(dir)?;
    let keys = registry.current().keys();
    let service = Service::new(registry, burst_config(BURST_WINDOW));
    for key in &keys {
        let lines: Vec<String> = (0..BURST)
            .map(|i| predict_line(i, PROBE_NETLIST, Some(key)))
            .collect();
        let out = burst_loop(&service, &lines, &[]);
        if let Some((_, why)) = out.failures.first() {
            return Err(format!("cold-start predict on {key}: {why}"));
        }
    }
    Ok(service)
}

/// A phase's measurements plus what its checks kept or rejected.
struct Phase<T> {
    timed: Timed,
    /// `(op, response)` kept for a reference check after the phase.
    kept: Vec<(usize, T)>,
    /// `(op, reason)` of every failed op.
    failures: Vec<(usize, String)>,
}

impl<T> Phase<T> {
    fn new(timed: Timed, mut kept: Vec<(usize, T)>, mut failures: Vec<(usize, String)>) -> Self {
        kept.sort_by_key(|k| k.0);
        failures.sort_by_key(|f| f.0);
        Self {
            timed,
            kept,
            failures,
        }
    }
}

/// Waits at the start barrier; every party reads the clock right after
/// it, which is the phase start.
fn start_at(start: &Barrier) -> Instant {
    start.wait();
    Instant::now()
}

/// `(completion s from the phase start, latency ms)` of an op sent at
/// `sent` that has just completed.
fn completed(began: Instant, sent: Instant) -> (f64, f64) {
    let now = Instant::now();
    (
        now.duration_since(began).as_secs_f64(),
        now.duration_since(sent).as_secs_f64() * 1e3,
    )
}

/// A closed loop's per-answer check: `(op, status, body)` to `Ok(keep
/// the body)` or the reason the op failed.
type Check<'a> = dyn Fn(usize, u16, &[u8]) -> Result<bool, String> + Sync + 'a;

/// Sends `requests[i]` for every op `i` over `conns`, one thread per
/// connection, each sending its next op as soon as its previous answer
/// is read (closed loop; the ops are shared out by an atomic counter so
/// both connections stay busy to the end). `check(op, status, body)`
/// returns `Ok(true)` to keep the body for a later reference check.
fn closed_loop(conns: &mut [HttpConn], requests: &[&[u8]], check: &Check<'_>) -> Phase<Vec<u8>> {
    let next = AtomicUsize::new(0);
    let start = Barrier::new(conns.len() + 1);
    let n = requests.len();
    std::thread::scope(|scope| {
        let clients: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let (next, start) = (&next, &start);
                scope.spawn(move || {
                    let mut done = Vec::with_capacity(n);
                    let mut kept = Vec::new();
                    let mut failures = Vec::new();
                    let began = start_at(start);
                    loop {
                        let op = next.fetch_add(1, Ordering::Relaxed);
                        if op >= n {
                            break;
                        }
                        let sent = Instant::now();
                        let answer = conn.roundtrip(requests[op]);
                        done.push(completed(began, sent));
                        match answer.and_then(|(status, body)| {
                            check(op, status, body).map(|keep| keep.then(|| body.to_vec()))
                        }) {
                            Ok(Some(body)) => kept.push((op, body)),
                            Ok(None) => {}
                            Err(why) => failures.push((op, why)),
                        }
                    }
                    (done, kept, failures)
                })
            })
            .collect();
        let began = start_at(&start);
        // Read after the barrier: the clients' buffers are allocated.
        let allocs = alloc::allocations();
        let results: Vec<_> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect();
        let wall_s = began.elapsed().as_secs_f64();
        let (mut done, mut kept, mut failures) = (Vec::new(), Vec::new(), Vec::new());
        for (d, k, f) in results {
            done.extend(d);
            kept.extend(k);
            failures.extend(f);
        }
        let mut timed = Timed::from_ops(done, wall_s, alloc::allocations() - allocs);
        timed.failed = failures.len();
        Phase::new(timed, kept, failures)
    })
}

/// Submits `lines` in bursts of [`BURST`] with `submit_line`, then
/// `wait`s for each; an op's latency runs from its `submit_line` to its
/// answer. Answers of the ops in `sample` (sorted) are kept.
fn burst_loop(service: &Service, lines: &[String], sample: &[usize]) -> Phase<Value> {
    let mut done = Vec::with_capacity(lines.len());
    let (mut kept, mut failures) = (Vec::new(), Vec::new());
    let mut inflight: Vec<(Instant, Submitted)> = Vec::with_capacity(BURST);
    let allocs = alloc::allocations();
    let began = Instant::now();
    for (b, burst) in lines.chunks(BURST).enumerate() {
        for line in burst {
            inflight.push((Instant::now(), service.submit_line(line)));
        }
        for (k, (sent, submitted)) in inflight.drain(..).enumerate() {
            let response = match submitted {
                Submitted::Done(v) => v,
                Submitted::Pending(call) => service.wait(call),
            };
            done.push(completed(began, sent));
            let op = b * BURST + k;
            if response["ok"].as_bool() != Some(true) {
                failures.push((op, format!("not ok: {:?}", response["error"])));
            } else if sample.binary_search(&op).is_ok() {
                kept.push((op, response));
            }
        }
    }
    let wall_s = began.elapsed().as_secs_f64();
    let mut timed = Timed::from_ops(done, wall_s, alloc::allocations() - allocs);
    timed.failed = failures.len();
    Phase::new(timed, kept, failures)
}

/// Cache and batch counters of one service.
#[derive(Debug, Clone, Copy)]
struct Counters {
    hits: u64,
    misses: u64,
    batches: u64,
    batched_jobs: u64,
}

fn counters(service: &Service) -> Counters {
    let snapshot = service.metrics().snapshot(service.cache());
    Counters {
        hits: service.cache().hits(),
        misses: service.cache().misses(),
        batches: service.metrics().batches_formed(),
        batched_jobs: snapshot["batching"]["batched_jobs"].as_u64().unwrap_or(0),
    }
}

fn service_stats(before: Counters, after: Counters) -> ServiceStats {
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let hits = after.hits - before.hits;
    ServiceStats {
        cache_hit_ratio: ratio(hits, hits + after.misses - before.misses),
        batch_size_mean: ratio(
            after.batched_jobs - before.batched_jobs,
            after.batches - before.batches,
        ),
    }
}

/// Per-op shape of a stream's circuits, weighted by how often each is
/// sent.
///
/// # Errors
///
/// When a generated netlist does not parse.
pub fn shape_of(stream: &Stream) -> Result<Shape, String> {
    let mut sends = vec![0_usize; stream.inputs.len()];
    for &i in &stream.order {
        sends[i] += 1;
    }
    let mut shape = Shape::default();
    for (input, &n) in stream.inputs.iter().zip(&sends) {
        if n > 0 {
            let circuit = check::circuit(&input.netlist)?;
            let cg = paragraph::build_graph(&circuit);
            shape.add(circuit.num_devices(), &cg.graph, n as f64);
        }
    }
    Ok(shape.per_op(stream.order.len()))
}

fn record_failures(run: &mut Run, failures: &[(usize, String)]) {
    for (op, why) in failures.iter().take(5) {
        run.problems.push(format!("op {op}: {why}"));
    }
}

/// Checks served ensemble bodies against `CapEnsemble::predict_circuit`
/// on a freshly loaded registry, bitwise; returns the failed ops. The
/// references are computed on two threads.
fn check_ensemble(
    dir: &Path,
    items: &[(usize, &str, &[u8])],
) -> Result<Vec<(usize, String)>, String> {
    let ensemble: Arc<CapEnsemble> = open_registry(dir)?
        .current()
        .ensemble
        .clone()
        .ok_or("no ensemble assembled from the artifacts")?;
    let check_one = |&(op, netlist, body): &(usize, &str, &[u8])| -> Option<(usize, String)> {
        let verdict = check::circuit(netlist).and_then(|c| {
            let expected = check::expected_pairs(&c, &ensemble.predict_circuit(&c));
            check::bitwise_equal(&check::served_pairs_from_body(body)?, &expected)
        });
        verdict.err().map(|why| (op, why))
    };
    let half = items.len().div_ceil(2);
    Ok(std::thread::scope(|scope| {
        let (a, b) = items.split_at(half);
        let other = scope.spawn(|| b.iter().filter_map(check_one).collect::<Vec<_>>());
        let mut failed: Vec<_> = a.iter().filter_map(check_one).collect();
        failed.extend(other.join().expect("reference thread panicked"));
        failed
    }))
}

/// `ensemble_miss` and `ensemble_hit`.
///
/// # Errors
///
/// When fixtures or the gateway cannot be set up.
pub fn gateway_workload(ctx: &RunCtx) -> Result<Run, String> {
    let hit = ctx.workload == Workload::EnsembleHit;
    let plan = ctx.plan;
    let mut stream = if hit {
        stream::ensemble_hit(ctx.seed, plan.ops_in(stream::HIT_WORKING_SET))
    } else {
        stream::ensemble_miss(ctx.seed, plan.ops_in(1), plan.warmup, plan.segments)
    };
    let artifacts = fixtures::ensemble(&ctx.work.join("ensemble"))?;
    let mut run = Run {
        shape: shape_of(&stream)?,
        artifacts: Some((artifacts.fingerprint, artifacts.bytes)),
        ..Run::default()
    };
    let encoded: Vec<Vec<u8>> = stream
        .inputs
        .iter()
        .enumerate()
        .map(|(i, input)| predict_request(i, &input.netlist, None))
        .collect();
    let sample = if hit {
        Vec::new()
    } else {
        stream::sample_indices(ctx.seed, stream.order.len(), plan.check_sample)
    };
    if !hit {
        // Miss inputs are sent once each: op i sends input i.
        let replayed = if ctx.trace { plan.replay_ops } else { 0 };
        stream.forget_netlists(|i| i < replayed || sample.binary_search(&i).is_ok());
    }
    run.setup_s = cold_starts(plan.setup_reps.div_ceil(2), || cold_gateway(&artifacts.dir))?;
    let gateway = cold_gateway(&artifacts.dir)?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| HttpConn::connect(gateway.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let service = &gateway.services()[0];
    let missed = |status: u16, body: &[u8]| -> Result<(), String> {
        if status == 200 && check::envelope_ok(body) && body.ends_with(b"\"cached\":false}") {
            Ok(())
        } else {
            Err(format!(
                "not an ok cache miss (status {status}): {}",
                String::from_utf8_lossy(&body[..body.len().min(200)])
            ))
        }
    };

    // Untimed: lazy arena growth (miss) or the cache fill (hit).
    let mut expected_hits: Vec<Vec<u8>> = Vec::new();
    let mut fill_checked: Vec<(usize, Vec<u8>)> = Vec::new();
    if hit {
        let fill: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        let filled = closed_loop(&mut conns, &fill, &|_, status, body| {
            missed(status, body).map(|()| true)
        });
        if !filled.failures.is_empty() {
            record_failures(&mut run, &filled.failures);
            return Err("cache fill failed".into());
        }
        expected_hits = filled
            .kept
            .iter()
            .map(|(_, body)| {
                let cut = body.len() - b"false}".len();
                [&body[..cut], b"true}"].concat()
            })
            .collect();
        fill_checked = filled.kept;
    } else {
        let warm: Vec<Vec<u8>> = stream
            .warmup
            .iter()
            .enumerate()
            .map(|(i, w)| predict_request(usize::MAX - i, &w.netlist, None))
            .collect();
        let warm: Vec<&[u8]> = warm.iter().map(Vec::as_slice).collect();
        closed_loop(&mut conns, &warm, &|_, status, body| {
            missed(status, body).map(|()| false)
        });
    }

    let requests: Vec<&[u8]> = stream
        .order
        .iter()
        .map(|&i| encoded[i].as_slice())
        .collect();
    let before = counters(service);
    let phase = closed_loop(&mut conns, &requests, &|op, status, body| {
        if hit {
            let expected = &expected_hits[stream.order[op]];
            if status == 200 && body == expected.as_slice() {
                Ok(false)
            } else {
                Err("hit differs from the circuit's miss answer".into())
            }
        } else {
            missed(status, body).map(|()| sample.binary_search(&op).is_ok())
        }
    });
    run.service = Some(service_stats(before, counters(service)));
    drop(conns);
    drop(gateway);
    run.setup_s.extend(cold_starts(plan.setup_reps / 2, || {
        cold_gateway(&artifacts.dir)
    })?);
    run.timed = phase.timed;
    record_failures(&mut run, &phase.failures);

    // Reference checks, outside the timed phase. For hits the fill
    // answers are the references every timed hit matched byte for byte.
    let to_check: Vec<(usize, &str, &[u8])> = if hit {
        fill_checked
            .iter()
            .map(|(i, body)| (*i, stream.inputs[*i].netlist.as_str(), body.as_slice()))
            .collect()
    } else {
        phase
            .kept
            .iter()
            .map(|(op, body)| (*op, stream.op(*op).netlist.as_str(), body.as_slice()))
            .collect()
    };
    run.checked = to_check.len();
    let wrong = check_ensemble(&artifacts.dir, &to_check)?;
    if hit && !wrong.is_empty() {
        // A wrong fill answer makes every timed hit on it wrong.
        let bad: Vec<usize> = wrong.iter().map(|w| w.0).collect();
        run.timed.failed += stream.order.iter().filter(|i| bad.contains(i)).count();
    } else {
        run.timed.failed += wrong.len();
    }
    record_failures(&mut run, &wrong);

    if ctx.trace {
        let stats = run.service.unwrap_or_default();
        run.layers = replay::gateway(ctx, &artifacts.dir, &stream, hit, stats, &mut run.problems)?;
    }
    Ok(run)
}

/// `int8_burst8`.
///
/// # Errors
///
/// When fixtures or the service cannot be set up.
pub fn int8_burst8(ctx: &RunCtx) -> Result<Run, String> {
    let plan = ctx.plan;
    let ops = plan.ops_in(BURST);
    let mut stream = stream::int8_burst(
        ctx.seed,
        ops,
        plan.warmup.div_ceil(BURST) * BURST,
        plan.segments,
    );
    let artifacts = fixtures::int8_single(&ctx.work.join("int8"))?;
    let mut run = Run {
        shape: shape_of(&stream)?,
        artifacts: Some((artifacts.fingerprint, artifacts.bytes)),
        ..Run::default()
    };
    let lines: Vec<String> = stream
        .inputs
        .iter()
        .enumerate()
        .map(|(i, input)| predict_line(i, &input.netlist, None))
        .collect();
    let warm: Vec<String> = stream
        .warmup
        .iter()
        .enumerate()
        .map(|(i, w)| predict_line(usize::MAX - i, &w.netlist, None))
        .collect();
    let sample = stream::sample_indices(ctx.seed, ops, plan.check_sample);
    let replayed = if ctx.trace { plan.replay_ops } else { 0 };
    stream.forget_netlists(|i| i < replayed || sample.binary_search(&i).is_ok());
    run.setup_s = cold_starts(plan.setup_reps.div_ceil(2), || {
        cold_burst_service(&artifacts.dir)
    })?;
    let service = cold_burst_service(&artifacts.dir)?;
    burst_loop(&service, &warm, &[]);
    let before = counters(&service);
    let phase = burst_loop(&service, &lines, &sample);
    run.service = Some(service_stats(before, counters(&service)));
    drop(service);
    run.setup_s.extend(cold_starts(plan.setup_reps / 2, || {
        cold_burst_service(&artifacts.dir)
    })?);
    run.timed = phase.timed;
    record_failures(&mut run, &phase.failures);

    // Int8 answers against the lone-request int8 reference.
    let model = match open_registry(&artifacts.dir)?.current().resolve(None) {
        Ok((_, ModelRef::Single(m))) => m,
        _ => return Err("the int8 directory does not resolve to one model".into()),
    };
    let mut wrong = Vec::new();
    for (op, envelope) in &phase.kept {
        let verdict = check::circuit(&stream.op(*op).netlist).and_then(|c| {
            let expected = check::expected_pairs(&c, &model.predict_circuit(&c));
            check::within_int8_tolerance(
                &check::served_pairs(envelope)?,
                &expected,
                model.max_value,
            )
        });
        if let Err(why) = verdict {
            wrong.push((*op, why));
        }
    }
    run.checked = phase.kept.len();
    run.timed.failed += wrong.len();
    record_failures(&mut run, &wrong);

    if ctx.trace {
        let stats = run.service.unwrap_or_default();
        run.layers = replay::burst(ctx, &artifacts.dir, &stream, stats, &mut run.problems)?;
    }
    Ok(run)
}
