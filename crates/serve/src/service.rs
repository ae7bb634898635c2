//! The in-process service: a fixed worker pool behind a bounded queue,
//! with per-request deadlines, panic isolation, caching, and metrics.
//!
//! [`Service::call`] is the single entry point both for in-process
//! embedders and for the network front end ([`crate::Gateway`]). Heavy
//! operations (`predict`, `stats`, `erc`) are executed on the worker
//! pool; control-plane operations (`health`, `metrics`, `reload`) are
//! answered inline so they stay responsive when the queue is full.
//!
//! Every request gets a service-unique ID (`req-<n>`), runs under a
//! `serve_request` span, and is measured into one [`RequestRecord`]
//! (outcome plus per-stage latency) that travels with the job and back
//! beside the reply. Metrics, the event log, the trace store and the
//! `debug` response field all read it; `result` is never perturbed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paragraph::Target;
use paragraph_netlist::{erc_check, parse_spice, write_flat_spice, Circuit};
use paragraph_obs::{Counter, RequestRecord, SpanContext, Stage, Stages};
use serde_json::{json, Value};

use crate::cache::{fnv1a, text_hash, PredictionCache};
use crate::drift::{baseline_from_snapshot, DriftConfig, DriftMonitor, FeatureRows};
use crate::metrics::Metrics;
use crate::protocol::{
    error_response, malformed_json, ok_response, Envelope, ErrorCode, Op, PredictEnvelope, Request,
    ServeError,
};
use crate::registry::{ModelRef, ModelRegistry};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing queued requests (min 1).
    pub workers: usize,
    /// Bounded queue length; requests beyond it are rejected with
    /// `overloaded` (min 1).
    pub queue_capacity: usize,
    /// Prediction cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Deadline applied when a request does not set `deadline_ms`.
    pub default_deadline: Duration,
    /// Honour the `debug_panic` op (tests only).
    pub enable_debug_ops: bool,
    /// How many queued jobs a worker drains per wake-up (min 1). Predict
    /// jobs in the drained batch that resolve to the same model run as
    /// one forward pass over their circuits' block-diagonal graph union.
    pub max_batch: usize,
    /// Continuous micro-batching admission window. When non-zero, a
    /// worker that picked up a predict job with batching headroom keeps
    /// the queue receiver for up to this long, admitting further jobs
    /// into the same batch as they arrive (not just the ones already
    /// queued). The window is clamped per collected job so that queue
    /// wait plus window never spends more than half of any job's
    /// remaining deadline budget. Zero disables the window (drain-only
    /// batching, the pre-window behaviour). Defaults from
    /// `PARAGRAPH_BATCH_WINDOW_US` (microseconds, 0 = off).
    pub batch_window: Duration,
    /// Requests at/above this latency count as slow: counted in
    /// `paragraph_serve_slow_requests_total` and given a `slow_request`
    /// event.
    pub slow_threshold: Duration,
    /// Drift-monitor tunables.
    pub drift: DriftConfig,
    /// Gateway shard this service serves, stamped onto every request's
    /// [`paragraph_obs::SpanContext`] and the retained traces built
    /// from it. `None` for unsharded embedders.
    pub shard: Option<u32>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 256,
            default_deadline: Duration::from_secs(30),
            enable_debug_ops: false,
            max_batch: 8,
            batch_window: batch_window_default(),
            slow_threshold: Duration::from_millis(500),
            drift: DriftConfig::default(),
            shard: None,
        }
    }
}

/// Admission-window length from `PARAGRAPH_BATCH_WINDOW_US`
/// (microseconds; unset, unparsable, or 0 = window disabled).
fn batch_window_default() -> Duration {
    std::env::var("PARAGRAPH_BATCH_WINDOW_US")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_micros)
        .unwrap_or(Duration::ZERO)
}

/// Process-global request-id counter. Ids must be unique across every
/// service in the process — the sharded gateway runs one service per
/// shard but exposes a single id space, and the trace store keys
/// retained traces on the id.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(0);

/// `req-<n>`, the id of the `n`th request in the process.
fn request_id(n: u64) -> String {
    format!("req-{n}")
}

/// A worker's answer: the response envelope and the request's record.
type Reply = (Envelope, RequestRecord);

struct Job {
    request: Request,
    deadline: Instant,
    enqueued: Instant,
    /// Filled in by the worker and sent back beside the response.
    record: RequestRecord,
    reply: SyncSender<Reply>,
    /// Span-routing context carried with the job so worker-side spans
    /// land in the request's trace; `None` when the store is off.
    ctx: Option<SpanContext>,
}

impl Job {
    /// Replies with the record. A submitter that gave up (e.g. its
    /// connection died) must not kill the worker.
    fn answer(self, response: impl Into<Envelope>) {
        let _ = self.reply.send((response.into(), self.record));
    }
}

/// Everything [`Service::finalize`] needs once the worker's reply
/// arrives: the request identity plus the timestamps taken at
/// submission.
#[derive(Debug)]
struct CallCtx {
    id: Value,
    op: Op,
    debug: bool,
    parse_us: f64,
    request_no: u64,
    started: Instant,
}

/// A data-plane request that has been queued but not yet answered.
/// Obtain one from [`Service::submit_line`] / [`Service::submit_value`];
/// resolve it with [`Service::poll`] (non-blocking) or
/// [`Service::wait`] (blocking). Dropping it abandons the request —
/// the worker's reply is discarded and no metrics are recorded.
#[derive(Debug)]
pub struct PendingCall {
    rx: Receiver<Reply>,
    ctx: CallCtx,
}

/// Outcome of submitting a request without blocking.
#[derive(Debug)]
pub enum Submitted {
    /// Answered inline: control-plane ops, parse errors, and queue
    /// rejections (`overloaded`). Metrics are already recorded.
    Done(Value),
    /// Queued to the worker pool; resolve via [`Service::poll`] or
    /// [`Service::wait`].
    Pending(PendingCall),
}

/// The concurrent inference service.
pub struct Service {
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    cache: Arc<PredictionCache>,
    drift: Arc<DriftMonitor>,
    config: ServiceConfig,
    jobs: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    slow_requests: Arc<Counter>,
    /// Invoked after a successful `reload` refreshed this service, so an
    /// embedder (the sharded gateway) can refresh sibling services that
    /// share the same registry.
    reload_hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("workers", &self.workers.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Starts the worker pool over `registry`.
    pub fn new(registry: Arc<ModelRegistry>, config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let metrics = Arc::new(Metrics::new());
        let cache = Arc::new(PredictionCache::new(config.cache_capacity));
        let drift = Arc::new(DriftMonitor::new(metrics.registry(), config.drift.clone()));
        drift.set_baseline(
            metrics.registry(),
            baseline_from_snapshot(&registry.current()),
        );
        let slow_requests = metrics
            .registry()
            .counter("paragraph_serve_slow_requests_total", &[]);
        let handles = (0..workers)
            .map(|i| {
                let rx = rx.clone();
                let registry = registry.clone();
                let cache = cache.clone();
                let metrics = metrics.clone();
                let drift = drift.clone();
                let debug_ops = config.enable_debug_ops;
                let max_batch = config.max_batch.max(1);
                let batch_window = config.batch_window;
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        worker_loop(
                            &rx,
                            &registry,
                            &cache,
                            &metrics,
                            &drift,
                            debug_ops,
                            max_batch,
                            batch_window,
                        )
                    })
                    .expect("spawn worker")
            })
            .collect();
        Self {
            registry,
            metrics,
            cache,
            drift,
            config,
            jobs: Some(tx),
            workers: handles,
            slow_requests,
            reload_hook: Mutex::new(None),
        }
    }

    /// The drift monitor (for health checks and tests).
    pub fn drift(&self) -> &Arc<DriftMonitor> {
        &self.drift
    }

    /// The registry backing this service.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Live metrics.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The prediction cache.
    pub fn cache(&self) -> &Arc<PredictionCache> {
        &self.cache
    }

    /// Handles one raw protocol line, returning the response rendered as
    /// one compact JSON line (without trailing newline).
    pub fn handle_line(&self, line: &str) -> String {
        match self.submit_line(line) {
            Submitted::Done(response) => Envelope::Value(response).render(),
            Submitted::Pending(call) => self.resolve(call).render(),
        }
    }

    /// Executes one parsed request and returns the response envelope.
    pub fn call(&self, request: Request) -> Value {
        match self.submit_with_parse(request, 0.0) {
            Submitted::Done(response) => response,
            Submitted::Pending(call) => self.wait(call),
        }
    }

    /// Submits one raw protocol line without blocking on the worker
    /// pool. Parse failures and control-plane ops resolve to
    /// [`Submitted::Done`] immediately; data-plane ops come back as
    /// [`Submitted::Pending`] unless the queue rejected them.
    pub fn submit_line(&self, line: &str) -> Submitted {
        let parse_started = Instant::now();
        match serde_json::from_str::<Value>(line) {
            Ok(value) => self.submit_value(value, parse_started),
            Err(err) => {
                self.metrics.bad_line();
                Submitted::Done(error_response(&Value::Null, &malformed_json(err)))
            }
        }
    }

    /// [`Service::submit_line`] for a line already parsed into JSON;
    /// `parse_started` is when its parse began, so the request's parse
    /// stage still covers it.
    pub fn submit_value(&self, value: Value, parse_started: Instant) -> Submitted {
        // Salvage the id for an error envelope before the request takes
        // the value apart.
        let id = value.get("id").cloned().unwrap_or(Value::Null);
        match Request::from_value(value) {
            Ok(request) => {
                let parse_us = parse_started.elapsed().as_secs_f64() * 1e6;
                self.submit_with_parse(request, parse_us)
            }
            Err(err) => {
                self.metrics.bad_line();
                Submitted::Done(error_response(&id, &err))
            }
        }
    }

    fn submit_with_parse(&self, request: Request, parse_us: f64) -> Submitted {
        let started = Instant::now();
        let op = request.op;
        let id = request.id.clone();
        let request_no = NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed) + 1;
        let record = RequestRecord::new(request_id(request_no), op.name());
        let ctx = CallCtx {
            id: id.clone(),
            op,
            debug: request.debug,
            parse_us,
            request_no,
            started,
        };
        // Open the request's span context before any span: everything
        // recorded on this thread (and, via the job, on the workers)
        // now assembles into one tree in the trace store.
        let span_ctx = paragraph_obs::store_enabled().then(|| {
            paragraph_obs::trace_store().begin(&record.request_id, self.config.shard);
            SpanContext::request(&record.request_id, self.config.shard)
        });
        let _ctx_guard = span_ctx.as_ref().map(SpanContext::enter);
        if parse_us > 0.0 {
            let parse_start = started
                .checked_sub(Duration::from_secs_f64(parse_us / 1e6))
                .unwrap_or(started);
            paragraph_obs::record_span_at("parse", parse_start, started);
        }
        // The serve_request span guard must drop (recording the span)
        // before `finalize` completes the trace, so inline-answered ops
        // keep it in their span tree.
        let reply = {
            let _span = paragraph_obs::span!(
                "serve_request",
                request_id = record.request_id,
                op = op.name()
            );
            match op {
                // Control plane: answered inline, never queued.
                Op::Health => (ok_response(&id, self.health(), None), record),
                Op::Metrics => {
                    let metrics = json!({
                        "metrics": self.metrics.snapshot(&self.cache),
                        "prometheus": self.metrics.render(&self.cache),
                    });
                    (ok_response(&id, metrics, None), record)
                }
                Op::Reload => (self.reload(&id), record),
                // Data plane: through the bounded queue.
                Op::Predict | Op::Stats | Op::Erc | Op::DebugPanic => {
                    match self.try_enqueue(request, record, started, span_ctx.clone()) {
                        Ok(rx) => return Submitted::Pending(PendingCall { rx, ctx }),
                        Err(rejected) => *rejected,
                    }
                }
            }
        };
        let (response, record) = reply;
        Submitted::Done(self.finalize(ctx, (response.into(), record)).into_value())
    }

    /// Non-blocking check on a pending call: `Ok(envelope)` once the
    /// worker replied (metrics recorded, envelope finalised), `Err`
    /// handing the call back while it is still in flight. A predict
    /// answer's `result` stays rendered text, ready for the wire.
    #[allow(clippy::missing_errors_doc)]
    pub fn poll(&self, call: PendingCall) -> Result<Envelope, PendingCall> {
        match call.rx.try_recv() {
            Ok(reply) => Ok(self.finalize(call.ctx, reply)),
            Err(mpsc::TryRecvError::Empty) => Err(call),
            Err(mpsc::TryRecvError::Disconnected) => Ok(self.worker_dropped(call.ctx)),
        }
    }

    /// Blocks until a pending call resolves. A cache hit's `result` is
    /// parsed from the cached text; a miss returns the tree it rendered.
    pub fn wait(&self, call: PendingCall) -> Value {
        self.resolve(call).into_value()
    }

    /// [`Service::wait`] without the conversion to a `Value`.
    fn resolve(&self, call: PendingCall) -> Envelope {
        match call.rx.recv() {
            Ok(reply) => self.finalize(call.ctx, reply),
            Err(_) => self.worker_dropped(call.ctx),
        }
    }

    /// Finalizes a queued request whose worker dropped it unanswered.
    fn worker_dropped(&self, ctx: CallCtx) -> Envelope {
        let response = error_response(
            &ctx.id,
            &ServeError::new(ErrorCode::Internal, "worker dropped the request"),
        );
        let record = RequestRecord::new(request_id(ctx.request_no), ctx.op.name());
        self.finalize(ctx, (response.into(), record))
    }

    /// The `reload` op, refreshing this service and (via the hook) its
    /// sibling shards.
    fn reload(&self, id: &Value) -> Value {
        match self.registry.reload() {
            Ok(report) => {
                self.refresh_after_reload();
                if let Some(hook) = lock_hook(&self.reload_hook).as_ref() {
                    hook();
                }
                ok_response(
                    id,
                    json!({"models": report.models, "ensemble": report.ensemble}),
                    None,
                )
            }
            Err(e) => error_response(
                id,
                &ServeError::new(ErrorCode::Internal, format!("reload failed: {e}")),
            ),
        }
    }

    /// Invalidates reload-sensitive state: clears the prediction cache
    /// and re-derives the drift baseline from the registry's current
    /// snapshot. Runs automatically after this service's own `reload`;
    /// the sharded gateway also calls it on sibling shards (which share
    /// the registry but own their caches) via [`Service::set_reload_hook`].
    pub fn refresh_after_reload(&self) {
        self.cache.clear();
        self.drift.set_baseline(
            self.metrics.registry(),
            baseline_from_snapshot(&self.registry.current()),
        );
    }

    /// Registers a callback invoked after a successful `reload` op has
    /// refreshed this service. Replaces any previous hook.
    pub fn set_reload_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        *lock_hook(&self.reload_hook) = Some(Box::new(hook));
    }

    /// Completes the record (parse time, total latency, outcome) and
    /// feeds it to metrics, the `debug` field, the event log and the
    /// trace store. Every response funnels through here exactly once.
    fn finalize(&self, ctx: CallCtx, (mut response, mut record): Reply) -> Envelope {
        let latency = ctx.started.elapsed();
        record.ok = response.is_ok();
        record.slow = latency >= self.config.slow_threshold;
        record.stages.set(Stage::Parse, ctx.parse_us);
        record.stages.set(Stage::Total, latency.as_secs_f64() * 1e6);
        self.metrics.record(ctx.op, latency, record.ok);
        if record.slow {
            self.slow_requests.inc();
        }
        if ctx.debug {
            response.set_debug(debug_json(&record));
        }
        if paragraph_obs::events_enabled() {
            self.emit_events(&record);
        }
        if paragraph_obs::store_enabled() {
            // Tail retention: the request is over, its outcome known —
            // decide now whether its span tree is worth keeping.
            paragraph_obs::trace_store().complete(record);
        }
        response
    }

    /// The record's `request` event, plus a `slow_request` event when it
    /// crossed the slow threshold.
    fn emit_events(&self, record: &RequestRecord) {
        let stages = serde_json::to_string(&stages_json(record)).expect("stages serialise");
        let mut event = paragraph_obs::Event::new("request")
            .str_field("request_id", &record.request_id)
            .str_field("op", record.op)
            .str_field("span", "serve_request")
            .bool_field("ok", record.ok)
            .bool_field("slow", record.slow)
            .f64_field("latency_us", record.total_us())
            .raw_field("stages", &stages);
        // The predict fields `push_predict_fields` gives the `debug`
        // field, written straight into the line rather than through a
        // `Value` each.
        if let Some(m) = &record.model {
            event = event.str_field("model", m);
        }
        if let Some(c) = record.cache_hit {
            event = event.bool_field("cache_hit", c);
        }
        if let Some(v) = record.member_max_v {
            event = event.f64_field("member_max_v", v);
        }
        if let Some(b) = record.batched {
            event = event.u64_field("batched", b);
        }
        if let Some(o) = record.ood {
            event = event.bool_field("ood", o);
        }
        event.emit();
        if record.slow {
            paragraph_obs::Event::new("slow_request")
                .str_field("request_id", &record.request_id)
                .str_field("op", record.op)
                .str_field("span", "serve_request")
                .f64_field("latency_us", record.total_us())
                .f64_field(
                    "threshold_us",
                    self.config.slow_threshold.as_secs_f64() * 1e6,
                )
                .emit();
        }
    }

    /// Queues one data-plane request, returning the reply channel on
    /// success or the rejection (`overloaded` / pool gone), boxed: the
    /// rare path carries the bulk.
    fn try_enqueue(
        &self,
        request: Request,
        record: RequestRecord,
        accepted: Instant,
        span_ctx: Option<SpanContext>,
    ) -> Result<Receiver<Reply>, Box<(Value, RequestRecord)>> {
        let deadline = accepted
            + request
                .deadline_ms
                .map(Duration::from_millis)
                .unwrap_or(self.config.default_deadline);
        let (reply_tx, reply_rx) = mpsc::sync_channel::<Reply>(1);
        let job = Job {
            request,
            deadline,
            enqueued: accepted,
            record,
            reply: reply_tx,
            ctx: span_ctx,
        };
        let sender = self.jobs.as_ref().expect("pool alive while service exists");
        let (job, err) = match sender.try_send(job) {
            Ok(()) => {
                self.metrics.queue_entered();
                return Ok(reply_rx);
            }
            Err(TrySendError::Full(mut job)) => {
                job.record.shed = true;
                let capacity = self.config.queue_capacity;
                let msg = format!("request queue full ({capacity} queued); retry later");
                (job, ServeError::new(ErrorCode::Overloaded, msg))
            }
            Err(TrySendError::Disconnected(job)) => (
                job,
                ServeError::new(ErrorCode::Internal, "worker pool is gone"),
            ),
        };
        Err(Box::new((
            error_response(&job.request.id, &err),
            job.record,
        )))
    }

    fn health(&self) -> Value {
        let snapshot = self.registry.current();
        let (degraded, reasons) = self.drift.status();
        let store_counters = paragraph_obs::trace_store().counters();
        let opt = |v: Option<f64>| v.map_or(Value::Null, |v| json!(v));
        let model_registry: Vec<Value> = snapshot
            .models
            .iter()
            .map(|(name, m)| {
                json!({
                    "name": name,
                    "target": m.target.name(),
                    "param_count": m.param_count(),
                    "max_value": opt(m.max_value),
                    "baseline_stats": m.baseline.is_some(),
                    "precision": m.effective_precision().name(),
                })
            })
            .collect();
        let ensemble_ranges: Vec<Value> = snapshot
            .ensemble
            .as_ref()
            .map(|e| {
                e.members()
                    .iter()
                    .zip(&snapshot.ensemble_members)
                    .map(|(m, key)| {
                        json!({
                            "name": key,
                            "max_value": opt(m.max_value),
                            "label_min": opt(m.baseline.as_ref().and_then(|b| b.label_min)),
                            "label_max": opt(m.baseline.as_ref().and_then(|b| b.label_max)),
                            "baseline_stats": m.baseline.is_some(),
                        })
                    })
                    .collect()
            })
            .unwrap_or_default();
        json!({
            "status": if degraded { "degraded" } else { "ok" },
            "degraded_reasons": reasons,
            "models": snapshot.keys(),
            "model_registry": model_registry,
            "ensemble_members": snapshot.ensemble_members.clone(),
            "ensemble_ranges": ensemble_ranges,
            "drift": {
                "active": self.drift.is_active(),
                "ood_requests_total": self.drift.ood_requests_total(),
                "ood_fraction": self.drift.ood_fraction(),
            },
            "trace": {
                "enabled": paragraph_obs::enabled(),
                "dropped_spans": paragraph_obs::dropped_spans(),
            },
            "events": {
                "enabled": paragraph_obs::events_enabled(),
                "dropped": paragraph_obs::dropped_events(),
                // Wall-clock anchor of the shared span/event epoch:
                // unix_ns = epoch_unix_ns + ts_us * 1000 correlates
                // events.jsonl, trace.json, and /debug/traces
                // timestamps with external timelines.
                "epoch_unix_ns": paragraph_obs::epoch_unix_nanos(),
            },
            "trace_store": {
                "enabled": paragraph_obs::store_enabled(),
                "epoch_unix_ns": paragraph_obs::epoch_unix_nanos(),
                "completed": store_counters.completed,
                "retained": retained_by_reason(&store_counters),
                "not_retained": store_counters.not_retained,
                "dropped_spans": store_counters.dropped_spans,
                "evicted": store_counters.evicted,
                "stored": store_counters.stored,
            },
            "workers": self.workers.len(),
            "queue_capacity": self.config.queue_capacity,
            "cache_capacity": self.config.cache_capacity,
            "uptime_ms": self.metrics.uptime().as_millis() as u64,
        })
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Closing the channel lets every worker's `recv` fail and exit.
        self.jobs = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Poison-tolerant lock on the reload hook: a panicking hook must not
/// wedge every later reload.
fn lock_hook(
    hook: &Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
) -> std::sync::MutexGuard<'_, Option<Box<dyn Fn() + Send + Sync>>> {
    hook.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A record's stages as `{"parse_us": .., ..., "total_us": ..}`: the one
/// renderer behind the `debug` field, the event and `/debug/traces`.
pub(crate) fn stages_json(record: &RequestRecord) -> Value {
    let mut stages = serde_json::Map::new();
    for (key, us) in record.stages.iter() {
        stages.insert(key, json!(us));
    }
    Value::Object(stages)
}

/// Per-reason retention counters, `{"slow": n, ...}`.
pub(crate) fn retained_by_reason(counters: &paragraph_obs::StoreCounters) -> Value {
    let mut by_reason = serde_json::Map::new();
    for (reason, n) in paragraph_obs::RetainReason::ALL
        .iter()
        .zip(&counters.retained)
    {
        by_reason.insert(reason.name(), json!(*n));
    }
    Value::Object(by_reason)
}

/// Appends the record's predict fields that are set (`model`, ...,
/// `ood`) to `out`, for the `debug` field; the `request` event writes
/// the same fields in `Service::emit_events`.
fn push_predict_fields(record: &RequestRecord, out: &mut serde_json::Map) {
    if let Some(m) = &record.model {
        out.insert("model", json!(m));
    }
    if let Some(c) = record.cache_hit {
        out.insert("cache_hit", json!(c));
    }
    if let Some(v) = record.member_max_v {
        out.insert("member_max_v", json!(v));
    }
    if let Some(b) = record.batched {
        out.insert("batched", json!(b));
    }
    if let Some(o) = record.ood {
        out.insert("ood", json!(o));
    }
}

/// The `debug` response field.
fn debug_json(record: &RequestRecord) -> Value {
    let mut dbg = serde_json::Map::new();
    dbg.insert("request_id", json!(record.request_id));
    dbg.insert("span", json!("serve_request"));
    dbg.insert("slow", json!(record.slow));
    push_predict_fields(record, &mut dbg);
    dbg.insert("stages", stages_json(record));
    Value::Object(dbg)
}

/// Latest instant an admission window may stay open for `job` without
/// risking its deadline: at most half of the budget remaining when the
/// window opened goes to collection, the rest stays reserved for
/// inference and response writing. A job already past its deadline
/// closes the window immediately.
fn latency_budget_close(job: &Job, opened: Instant) -> Instant {
    opened + job.deadline.saturating_duration_since(opened) / 2
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    rx: &Arc<Mutex<Receiver<Job>>>,
    registry: &Arc<ModelRegistry>,
    cache: &Arc<PredictionCache>,
    metrics: &Arc<Metrics>,
    drift: &Arc<DriftMonitor>,
    debug_ops: bool,
    max_batch: usize,
    batch_window: Duration,
) {
    loop {
        // Block for one job, then opportunistically drain whatever else
        // is already queued (up to max_batch) under the same lock, so
        // co-queued predictions can share a forward pass. Each job is
        // stamped with the instant it left the queue.
        let mut jobs: Vec<(Job, Instant)> = Vec::with_capacity(max_batch);
        {
            let guard = rx.lock().expect("queue lock poisoned");
            match guard.recv() {
                Ok(job) => jobs.push((job, Instant::now())),
                Err(_) => return, // service dropped
            }
            while jobs.len() < max_batch {
                match guard.try_recv() {
                    Ok(job) => jobs.push((job, Instant::now())),
                    Err(_) => break,
                }
            }
            // Continuous micro-batching: with a predict job in hand and
            // batching headroom, keep the receiver open for the
            // admission window so jobs arriving *now* join this forward
            // pass instead of waiting a full batch turn. Holding the
            // queue lock while waiting doubles as admit-while-running:
            // other workers block on the lock, so exactly one window
            // collects while earlier batches execute. The window is
            // re-clamped as each job lands so queue wait plus window
            // never eats more than half of anyone's deadline budget.
            if !batch_window.is_zero()
                && jobs.len() < max_batch
                && jobs.iter().any(|(j, _)| j.request.op == Op::Predict)
            {
                let opened = Instant::now();
                let mut close_by = opened + batch_window;
                for (job, _) in &jobs {
                    close_by = close_by.min(latency_budget_close(job, opened));
                }
                let mut admitted = 0_u64;
                while jobs.len() < max_batch {
                    let now = Instant::now();
                    if now >= close_by {
                        break;
                    }
                    match guard.recv_timeout(close_by - now) {
                        Ok(job) => {
                            close_by = close_by.min(latency_budget_close(&job, opened));
                            jobs.push((job, Instant::now()));
                            admitted += 1;
                        }
                        // Window elapsed, or the service was dropped —
                        // either way serve what was collected.
                        Err(_) => break,
                    }
                }
                if admitted > 0 {
                    metrics.window_admitted(admitted);
                }
            }
        }
        let collected = Instant::now();
        let mut predict_jobs = Vec::new();
        for (mut job, popped) in jobs {
            metrics.queue_left();
            // Measured stages reach the record only with a response that
            // reports them (a failed predict reports none).
            let mut stages = Stages::default();
            let window_us = collected.saturating_duration_since(popped).as_secs_f64() * 1e6;
            let queue_us = popped.saturating_duration_since(job.enqueued).as_secs_f64() * 1e6;
            stages.set(Stage::QueueWait, queue_us);
            stages.set(Stage::WindowWait, window_us);
            {
                // The wait stages were measured with plain instants;
                // synthesize their spans under the job's context so
                // the request's tree shows them.
                let _ctx = job.ctx.as_ref().map(SpanContext::enter);
                paragraph_obs::record_span_at("queue_wait", job.enqueued, popped);
                if window_us > 0.0 {
                    paragraph_obs::record_span_at("window_wait", popped, collected);
                }
            }
            if Instant::now() > job.deadline {
                job.record.stages = stages;
                job.record.shed = true;
                let response = error_response(
                    &job.request.id,
                    &ServeError::new(
                        ErrorCode::DeadlineExceeded,
                        "deadline passed before a worker picked the request up",
                    ),
                );
                job.answer(response);
                continue;
            }
            if job.request.op == Op::Predict {
                predict_jobs.push((job, stages));
                continue;
            }
            let exec_started = Instant::now();
            let outcome = {
                // Guard dropped before the reply is sent so every span
                // lands ahead of the submitter's retention decision.
                let _ctx = job.ctx.as_ref().map(SpanContext::enter);
                let _span = paragraph_obs::span!("execute", op = job.request.op.name());
                catch_unwind(AssertUnwindSafe(|| execute(&job.request, debug_ops)))
            };
            stages.set(Stage::Exec, exec_started.elapsed().as_secs_f64() * 1e6);
            job.record.stages = stages;
            let response = match outcome {
                Ok(Ok(result)) => ok_response(&job.request.id, result, None),
                Ok(Err(err)) => error_response(&job.request.id, &err),
                Err(panic) => error_response(
                    &job.request.id,
                    &ServeError::new(
                        ErrorCode::Internal,
                        format!("worker panicked: {}", panic_message(&panic)),
                    ),
                ),
            };
            job.answer(response);
        }
        if !predict_jobs.is_empty() {
            predict_many(predict_jobs, registry, cache, metrics, drift);
        }
    }
}

/// One predict job that parsed and resolved but missed the cache.
struct PendingPredict {
    job: Job,
    circuit: Circuit,
    content_hash: u64,
    /// Stages measured so far (waits and cache lookup).
    stages: Stages,
    /// Drift monitor's verdict on this request's feature rows.
    ood: bool,
}

/// Serves a drained batch of predict jobs: per-job parse / model
/// resolution / cache lookup, then one `predict_circuits` call per
/// distinct model over the cache misses (one forward pass per model
/// over their block-diagonal union). Each job's answer equals serving
/// it alone; a panic inside one model group fails only that group's
/// jobs.
fn predict_many(
    jobs: Vec<(Job, Stages)>,
    registry: &Arc<ModelRegistry>,
    cache: &Arc<PredictionCache>,
    metrics: &Arc<Metrics>,
    drift: &Arc<DriftMonitor>,
) {
    let snapshot = registry.current();
    let mut groups: std::collections::BTreeMap<String, (ModelRef, Vec<PendingPredict>)> =
        std::collections::BTreeMap::new();
    for (mut job, mut stages) in jobs {
        let ctx_guard = job.ctx.as_ref().map(SpanContext::enter);
        let lookup_started = Instant::now();
        let resolved = snapshot.resolve(job.request.model.as_deref());
        // An exact repeat answers from the index without a parse. Only a
        // resolved model can have recorded one; anything else takes the
        // full path below, which reports a bad netlist before an unknown
        // model.
        let text_key = match (&resolved, job.request.netlist.as_deref()) {
            (Ok((key, _)), Some(text)) => {
                let hash = text_hash(text);
                if let Some(repeat) = cache.get_repeat(key, hash, text) {
                    let ood = drift.observe_rows(&repeat.rows);
                    let key = resolved.map(|(key, _)| key).expect("matched Ok");
                    stages.set(Stage::CacheLookup, lookup_us(lookup_started));
                    drop(ctx_guard);
                    answer_hit(job, stages, key, ood, repeat.value);
                    continue;
                }
                Some(hash)
            }
            _ => None,
        };
        let circuit = match required_netlist(&job.request) {
            Ok(c) => c,
            Err(err) => {
                let response = error_response(&job.request.id, &err);
                job.answer(response);
                continue;
            }
        };
        // Every parsed circuit feeds the drift windows, canonical hit or
        // not (an exact repeat fed its stored rows above): the monitor
        // watches traffic, not model invocations. The per-request
        // verdict rides along so the tail sampler can retain OOD
        // requests.
        let rows = Arc::new(FeatureRows::new(&paragraph::raw_feature_rows(&circuit)));
        let ood = drift.observe_rows(&rows);
        let (key, model) = match resolved {
            Ok(resolved) => resolved,
            Err(m) => {
                let err = ServeError::new(ErrorCode::UnknownModel, m);
                let response = error_response(&job.request.id, &err);
                job.answer(response);
                continue;
            }
        };
        let content_hash = fnv1a(&write_flat_spice(&circuit));
        let hit = cache.get(&key, content_hash);
        if let (Some(hash), Some(text)) = (text_key, job.request.netlist.take()) {
            cache.put_repeat(&key, hash, text, content_hash, rows);
        }
        stages.set(Stage::CacheLookup, lookup_us(lookup_started));
        drop(ctx_guard);
        if let Some(hit) = hit {
            answer_hit(job, stages, key, ood, hit);
            continue;
        }
        groups
            .entry(key)
            .or_insert_with(|| (model, Vec::new()))
            .1
            .push(PendingPredict {
                job,
                circuit,
                content_hash,
                stages,
                ood,
            });
    }
    for (key, (model, pending)) in groups {
        metrics.record_batch(pending.len());
        if pending.len() > 1 {
            paragraph_obs::global()
                .counter("paragraph_serve_predict_batched_jobs_total", &[])
                .add(pending.len() as u64);
        }
        let circuits: Vec<&Circuit> = pending.iter().map(|p| &p.circuit).collect();
        // One batch context covering every member: spans recorded under
        // it (batch assemble, forward pass) fan out to each member's
        // trace. Guards are scoped so all spans land before replies go
        // out and the submitters finalize their traces.
        let batch_ctx = if pending.iter().any(|p| p.job.ctx.is_some()) {
            let shard = pending
                .iter()
                .find_map(|p| p.job.ctx.as_ref().and_then(SpanContext::shard));
            Some(SpanContext::batch(
                pending.iter().map(|p| p.job.record.request_id.as_str()),
                shard,
            ))
        } else {
            None
        };
        let outcome = {
            let _batch_guard = batch_ctx.as_ref().map(SpanContext::enter);
            let _span = paragraph_obs::span!("inference", model = key, jobs = pending.len());
            catch_unwind(AssertUnwindSafe(|| model.predict_circuits(&circuits)))
        };
        match outcome {
            Ok((per_circuit, profile, member_max_v)) => {
                // Cache hits never get here: only groups that ran
                // inference count toward the precision metrics.
                metrics.record_precision(
                    model.precision_name(),
                    Duration::from_secs_f64(profile.inference_us / 1e6),
                );
                let batched = pending.len();
                for ((p, preds), member_max_v) in
                    pending.into_iter().zip(per_circuit).zip(member_max_v)
                {
                    let mut job = p.job;
                    let ctx_guard = job.ctx.as_ref().map(SpanContext::enter);
                    let response = {
                        let _span =
                            paragraph_obs::span!("predict_job", request_id = job.record.request_id);
                        let result = render_prediction(&key, &model, &p.circuit, &preds);
                        let text: Arc<str> = serde_json::to_string(&result)
                            .expect("result serialises")
                            .into();
                        cache.put(&key, p.content_hash, Arc::clone(&text));
                        let id = std::mem::replace(&mut job.request.id, Value::Null);
                        PredictEnvelope::miss(id, text, result)
                    };
                    drop(ctx_guard);
                    // A batched job waited for the whole batch, so its
                    // stages are the batch's shared timings.
                    let mut stages = p.stages;
                    stages.set(Stage::GraphBuild, profile.graph_build_us);
                    stages.set(Stage::Inference, profile.inference_us);
                    job.record.stages = stages;
                    job.record.model = Some(key.clone());
                    job.record.cache_hit = Some(false);
                    job.record.ood = Some(p.ood);
                    job.record.member_max_v = member_max_v;
                    job.record.batched = (batched > 1).then_some(batched as u64);
                    job.answer(Envelope::Predict(response));
                }
            }
            Err(panic) => {
                let err = ServeError::new(
                    ErrorCode::Internal,
                    format!("worker panicked: {}", panic_message(&panic)),
                );
                for p in pending {
                    let response = error_response(&p.job.request.id, &err);
                    p.job.answer(response);
                }
            }
        }
    }
}

/// Closes the `cache_lookup` span opened at `started` and returns its
/// length in microseconds.
fn lookup_us(started: Instant) -> f64 {
    let done = Instant::now();
    paragraph_obs::record_span_at("cache_lookup", started, done);
    done.duration_since(started).as_secs_f64() * 1e6
}

/// Answers a predict from a cached payload.
fn answer_hit(mut job: Job, stages: Stages, key: String, ood: bool, hit: Arc<str>) {
    job.record.stages = stages;
    job.record.model = Some(key);
    job.record.cache_hit = Some(true);
    job.record.ood = Some(ood);
    let id = std::mem::replace(&mut job.request.id, Value::Null);
    job.answer(Envelope::Predict(PredictEnvelope::hit(id, hit)));
}

/// The predict response body for one circuit's predictions — shared by
/// the batched and single-request paths so they stay byte-identical.
fn render_prediction(
    key: &str,
    model: &ModelRef,
    circuit: &Circuit,
    preds: &[Option<f64>],
) -> Value {
    let (target, on_nets, members) = match model {
        ModelRef::Single(m) => (m.target.name(), m.target.on_nets(), None),
        ModelRef::Ensemble(e) => (Target::Cap.name(), true, Some(e.members().len())),
    };
    let predictions = if on_nets {
        named_predictions(preds, circuit.nets().iter().map(|n| n.name.as_str()), "net")
    } else {
        let devices = circuit.devices().iter().map(|d| d.name.as_str());
        named_predictions(preds, devices, "device")
    };
    let mut result = json!({"model": key, "target": target});
    if let Some(members) = members {
        result["members"] = json!(members);
    }
    result["predictions"] = Value::Array(predictions); // moved in: `json!` would copy it
    result
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn execute(request: &Request, debug_ops: bool) -> Result<Value, ServeError> {
    match request.op {
        Op::Stats => stats(request),
        Op::Erc => erc(request),
        Op::DebugPanic if debug_ops => panic!("debug panic requested"),
        Op::DebugPanic => Err(ServeError::new(
            ErrorCode::BadRequest,
            "debug ops are disabled on this service",
        )),
        // Predict jobs are served by `predict_many`; control-plane ops
        // never reach the queue.
        Op::Predict | Op::Health | Op::Metrics | Op::Reload => Err(ServeError::new(
            ErrorCode::Internal,
            format!("op '{}' routed to execute", request.op.name()),
        )),
    }
}

fn required_netlist(request: &Request) -> Result<Circuit, ServeError> {
    let text = request.netlist.as_deref().ok_or_else(|| {
        ServeError::new(
            ErrorCode::BadRequest,
            format!("op '{}' requires a 'netlist' field", request.op.name()),
        )
    })?;
    parse_spice(text)
        .map_err(|e| ServeError::new(ErrorCode::InvalidNetlist, format!("parse error: {e}")))?
        .flatten()
        .map_err(|e| ServeError::new(ErrorCode::InvalidNetlist, format!("flatten error: {e}")))
}

fn named_predictions<'a>(
    preds: &[Option<f64>],
    names: impl Iterator<Item = &'a str>,
    label: &str,
) -> Vec<Value> {
    names
        .zip(preds)
        .filter_map(|(name, p)| {
            p.map(|v| {
                let mut entry = serde_json::Map::new();
                entry.insert(label, Value::String(name.to_owned()));
                entry.insert("value", json!(v));
                Value::Object(entry)
            })
        })
        .collect()
}

fn stats(request: &Request) -> Result<Value, ServeError> {
    let circuit = required_netlist(request)?;
    let k = circuit.kind_counts();
    let cg = paragraph::build_graph(&circuit);
    Ok(json!({
        "circuit": circuit.name,
        "nets": circuit.num_nets(),
        "signal_nets": k.net,
        "devices": circuit.num_devices(),
        "kinds": {
            "tran": k.tran, "tran_th": k.tran_th, "res": k.res,
            "cap": k.cap, "bjt": k.bjt, "dio": k.dio,
        },
        "graph": {
            "nodes": cg.graph.num_nodes(),
            "edges": cg.graph.num_edges(),
            "edge_types": cg.graph.num_edge_types(),
        },
    }))
}

fn erc(request: &Request) -> Result<Value, ServeError> {
    let circuit = required_netlist(request)?;
    let findings = erc_check(&circuit);
    Ok(json!({
        "circuit": circuit.name,
        "clean": findings.is_empty(),
        "findings": findings.iter().map(|f| json!(f.describe(&circuit))).collect::<Vec<_>>(),
    }))
}
