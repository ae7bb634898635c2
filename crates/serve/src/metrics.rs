//! Service metrics: per-endpoint request/error counters, fixed-bucket
//! latency histograms, a queue-depth gauge, and cache statistics.
//!
//! Since the observability PR everything is backed by a
//! [`paragraph_obs::Registry`] — the same metric types the training and
//! runtime layers record into — so the `metrics` endpoint renders the
//! service's own registry *and* the process-wide
//! [`paragraph_obs::global`] registry (training throughput, pool queue
//! depth, backward-op timings) through one code path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use paragraph::Precision;
use paragraph_obs::{Counter, Gauge, Histogram, Registry, RollingQuantile, RENDERED_QUANTILES};
use serde_json::{json, Map, Value};

use crate::cache::PredictionCache;
use crate::protocol::Op;

/// Finite upper bounds (microseconds) of the latency histogram buckets;
/// the `+Inf` bucket is implicit, as in Prometheus exposition.
pub const LATENCY_BUCKETS_US: [f64; 6] = [
    100.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
    10_000_000.0,
];

/// Observations kept in each per-op rolling latency window; exact
/// p50/p95/p99 are computed over this many most-recent requests.
pub const ROLLING_WINDOW: usize = 512;

/// Finite upper bounds of the `paragraph_serve_batch_size` histogram
/// (jobs per formed predict batch); the `+Inf` bucket is implicit.
pub const BATCH_SIZE_BUCKETS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// Handles for one endpoint's families, resolved once at construction.
#[derive(Debug)]
struct EndpointMetrics {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    latency: Arc<Histogram>,
    rolling: Arc<RollingQuantile>,
}

/// Counters and rolling latency windows for one compiled-path
/// precision.
#[derive(Debug)]
struct PrecisionMetrics {
    requests: Arc<Counter>,
    rolling: Arc<RollingQuantile>,
}

/// All service counters. Cheap to share behind an `Arc`; every method
/// takes `&self`.
///
/// Each `Metrics` owns its own [`Registry`] so concurrent services (and
/// tests) never see each other's counts; the process-wide
/// [`paragraph_obs::global`] registry is merged in at render time only.
#[derive(Debug)]
pub struct Metrics {
    registry: Registry,
    endpoints: Vec<EndpointMetrics>,
    precisions: Vec<PrecisionMetrics>,
    queue_depth: Arc<Gauge>,
    batch_size: Arc<Histogram>,
    batches_formed: Arc<Counter>,
    window_admitted: Arc<Counter>,
    bad_lines: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_hit_rate: Arc<Gauge>,
    cache_entries: Arc<Gauge>,
    started: Instant,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        let registry = Registry::new();
        let endpoints = Op::ALL
            .iter()
            .map(|op| EndpointMetrics {
                requests: registry.counter("paragraph_requests_total", &[("op", op.name())]),
                errors: registry.counter("paragraph_errors_total", &[("op", op.name())]),
                latency: registry.histogram(
                    "paragraph_request_latency_us",
                    &[("op", op.name())],
                    &LATENCY_BUCKETS_US,
                ),
                rolling: registry.rolling(
                    "paragraph_request_latency_rolling_us",
                    &[("op", op.name())],
                    ROLLING_WINDOW,
                ),
            })
            .collect();
        let precisions = Precision::ALL
            .iter()
            .map(|p| PrecisionMetrics {
                requests: registry.counter(
                    "paragraph_serve_precision_requests_total",
                    &[("precision", p.name())],
                ),
                rolling: registry.rolling(
                    "paragraph_serve_precision_latency_us",
                    &[("precision", p.name())],
                    ROLLING_WINDOW,
                ),
            })
            .collect();
        Self {
            endpoints,
            precisions,
            queue_depth: registry.gauge("paragraph_queue_depth", &[]),
            batch_size: registry.histogram("paragraph_serve_batch_size", &[], &BATCH_SIZE_BUCKETS),
            batches_formed: registry.counter("paragraph_serve_batches_formed_total", &[]),
            window_admitted: registry.counter("paragraph_serve_window_admitted_jobs_total", &[]),
            bad_lines: registry.counter("paragraph_bad_lines_total", &[]),
            cache_hits: registry.counter("paragraph_cache_hits_total", &[]),
            cache_misses: registry.counter("paragraph_cache_misses_total", &[]),
            cache_hit_rate: registry.gauge("paragraph_cache_hit_rate", &[]),
            cache_entries: registry.gauge("paragraph_cache_entries", &[]),
            registry,
            started: Instant::now(),
        }
    }

    /// Counts a protocol line that never parsed into a request.
    pub fn bad_line(&self) {
        self.bad_lines.inc();
    }

    /// Lines rejected before reaching any endpoint.
    pub fn bad_lines(&self) -> u64 {
        self.bad_lines.get()
    }

    /// Records one finished request.
    pub fn record(&self, op: Op, latency: Duration, ok: bool) {
        let e = &self.endpoints[op.index()];
        e.requests.inc();
        if !ok {
            e.errors.inc();
        }
        let us = latency.as_secs_f64() * 1e6;
        e.latency.observe(us);
        e.rolling.observe(us);
    }

    /// Records the numeric precision a predict group's inference ran
    /// at, with its inference latency.
    pub fn record_precision(&self, precision: Precision, latency: Duration) {
        let p = &self.precisions[precision as usize];
        p.requests.inc();
        p.rolling.observe(latency.as_secs_f64() * 1e6);
    }

    /// Requests served at the given precision so far.
    pub fn precision_requests(&self, precision: Precision) -> u64 {
        self.precisions[precision as usize].requests.get()
    }

    /// Records one formed predict batch: `jobs` requests of one model
    /// answered by one `predict_circuits` call (1 = an unbatched lone
    /// job). Feeds the
    /// `paragraph_serve_batch_size` histogram and the
    /// `paragraph_serve_batches_formed_total` counter.
    pub fn record_batch(&self, jobs: usize) {
        self.batches_formed.inc();
        self.batch_size.observe(jobs as f64);
    }

    /// Records jobs admitted while an admission window was held open
    /// (i.e. beyond the instantaneous queue drain) — the window's
    /// occupancy contribution.
    pub fn window_admitted(&self, jobs: u64) {
        self.window_admitted.add(jobs);
    }

    /// Predict batches formed so far (every `predict_circuits` call
    /// counts once).
    pub fn batches_formed(&self) -> u64 {
        self.batches_formed.get()
    }

    /// Jobs admitted by open admission windows so far.
    pub fn window_admitted_total(&self) -> u64 {
        self.window_admitted.get()
    }

    /// The service's own registry; the drift monitor and slow-request
    /// counter register their families here so one render covers them.
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Queue-depth gauge: a request entered the queue.
    pub fn queue_entered(&self) {
        self.queue_depth.add(1.0);
    }

    /// Queue-depth gauge: a worker picked a request up.
    pub fn queue_left(&self) {
        self.queue_depth.sub(1.0);
    }

    /// Requests currently sitting in the queue.
    pub fn queue_depth(&self) -> i64 {
        self.queue_depth.get() as i64
    }

    /// Time since the metrics (service) were created.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Copies the cache's own counters into the registry so renders and
    /// snapshots see current values.
    fn sync_cache(&self, cache: &PredictionCache) {
        self.cache_hits.store(cache.hits());
        self.cache_misses.store(cache.misses());
        self.cache_hit_rate.set(cache.hit_rate());
        self.cache_entries.set(cache.len() as f64);
    }

    /// Structured snapshot of every counter.
    pub fn snapshot(&self, cache: &PredictionCache) -> Value {
        self.sync_cache(cache);
        let endpoints: Vec<Value> = Op::ALL
            .iter()
            .map(|&op| {
                let e = &self.endpoints[op.index()];
                let counts = e.latency.bucket_counts();
                let buckets: Vec<Value> = e
                    .latency
                    .bounds()
                    .iter()
                    .map(|&ub| json!(ub as u64))
                    .chain(std::iter::once(Value::String("inf".into())))
                    .zip(&counts)
                    .map(|(le, &count)| json!({ "le_us": le, "count": count }))
                    .collect();
                let qs = e.rolling.quantiles(&RENDERED_QUANTILES);
                let rolling: Vec<Value> = RENDERED_QUANTILES
                    .iter()
                    .zip(&qs)
                    .map(|(&q, &v)| {
                        let value = if v.is_finite() { json!(v) } else { Value::Null };
                        json!({ "q": q, "latency_us": value })
                    })
                    .collect();
                json!({
                    "op": op.name(),
                    "requests": e.requests.get(),
                    "errors": e.errors.get(),
                    "total_latency_us": e.latency.sum() as u64,
                    "latency_buckets": buckets,
                    "latency_rolling": rolling,
                })
            })
            .collect();
        let mut precisions = Map::new();
        for precision in Precision::ALL {
            let p = &self.precisions[precision as usize];
            let qs = p.rolling.quantiles(&RENDERED_QUANTILES);
            let rolling: Vec<Value> = RENDERED_QUANTILES
                .iter()
                .zip(&qs)
                .map(|(&q, &v)| {
                    let value = if v.is_finite() { json!(v) } else { Value::Null };
                    json!({ "q": q, "latency_us": value })
                })
                .collect();
            precisions.insert(
                precision.name(),
                json!({ "requests": p.requests.get(), "latency_rolling": rolling }),
            );
        }
        let batch_counts = self.batch_size.bucket_counts();
        let batch_size_buckets: Vec<Value> = self
            .batch_size
            .bounds()
            .iter()
            .map(|&ub| json!(ub as u64))
            .chain(std::iter::once(Value::String("inf".into())))
            .zip(&batch_counts)
            .map(|(le, &count)| json!({ "le": le, "count": count }))
            .collect();
        json!({
            "uptime_ms": self.uptime().as_millis() as u64,
            "queue_depth": self.queue_depth(),
            "bad_lines": self.bad_lines(),
            "endpoints": endpoints,
            "precisions": Value::Object(precisions),
            "batching": {
                "batches_formed": self.batches_formed(),
                "window_admitted_jobs": self.window_admitted_total(),
                "batched_jobs": self.batch_size.sum() as u64,
                "size_buckets": batch_size_buckets,
            },
            "cache": {
                "hits": cache.hits(),
                "misses": cache.misses(),
                "hit_rate": cache.hit_rate(),
                "entries": cache.len(),
            },
        })
    }

    /// Prometheus-style exposition text: this service's registry
    /// followed by the process-wide [`paragraph_obs::global`] registry
    /// (training / runtime / tensor families), both rendered by the same
    /// [`Registry::render_prometheus`] code path.
    pub fn render(&self, cache: &PredictionCache) -> String {
        self.sync_cache(cache);
        let mut out = self.registry.render_prometheus();
        out.push_str(&paragraph_obs::global().render_prometheus());
        out
    }

    /// Prometheus exposition of this service's own registry with every
    /// sample labelled `shard="<n>"`. The sharded gateway concatenates
    /// one of these per shard (and appends the process-global registry
    /// once) so per-shard series stay distinguishable after aggregation.
    pub fn render_shard(&self, cache: &PredictionCache, shard: usize) -> String {
        self.sync_cache(cache);
        let shard = shard.to_string();
        self.registry
            .render_prometheus_labeled(&[("shard", &shard)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_fills_buckets_and_counters() {
        let m = Metrics::new();
        m.record(Op::Predict, Duration::from_micros(50), true);
        m.record(Op::Predict, Duration::from_micros(500), false);
        m.record(Op::Stats, Duration::from_secs(20), true); // +Inf bucket
        let cache = PredictionCache::new(4);
        let snap = m.snapshot(&cache);
        let predict = &snap["endpoints"][Op::Predict.index()];
        assert_eq!(predict["requests"].as_u64(), Some(2));
        assert_eq!(predict["errors"].as_u64(), Some(1));
        assert_eq!(predict["latency_buckets"][0]["count"].as_u64(), Some(1));
        assert_eq!(predict["latency_buckets"][1]["count"].as_u64(), Some(1));
        let stats = &snap["endpoints"][Op::Stats.index()];
        // Implicit +Inf slot trails the finite bounds.
        let last = LATENCY_BUCKETS_US.len();
        assert_eq!(
            stats["latency_buckets"][last]["le_us"].as_str(),
            Some("inf")
        );
        assert_eq!(stats["latency_buckets"][last]["count"].as_u64(), Some(1));
    }

    #[test]
    fn queue_gauge_tracks_depth() {
        let m = Metrics::new();
        m.queue_entered();
        m.queue_entered();
        m.queue_left();
        assert_eq!(m.queue_depth(), 1);
    }

    #[test]
    fn render_exposes_all_families() {
        let m = Metrics::new();
        m.record(Op::Health, Duration::from_micros(10), true);
        let cache = PredictionCache::new(4);
        let text = m.render(&cache);
        for family in [
            "paragraph_requests_total",
            "paragraph_errors_total",
            "paragraph_request_latency_us_bucket",
            "paragraph_queue_depth",
            "paragraph_cache_hits_total",
            "paragraph_cache_hit_rate",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        assert!(text.contains("le=\"+Inf\""));
    }

    /// Every boundary value lands in its own bucket (le is inclusive)
    /// and the value one past a bound lands in the next bucket.
    #[test]
    fn histogram_bucket_boundaries_are_inclusive() {
        let m = Metrics::new();
        for &ub in &LATENCY_BUCKETS_US {
            m.record(Op::Predict, Duration::from_micros(ub as u64), true);
            m.record(Op::Predict, Duration::from_micros(ub as u64 + 1), true);
        }
        let e = &m.endpoints[Op::Predict.index()];
        let counts = e.latency.bucket_counts();
        // Bucket 0 holds only its own boundary; every later bucket holds
        // its boundary plus the previous bound's +1 overflow; the +Inf
        // slot holds the last bound's +1.
        assert_eq!(counts[0], 1);
        for &c in &counts[1..LATENCY_BUCKETS_US.len()] {
            assert_eq!(c, 2);
        }
        assert_eq!(counts[LATENCY_BUCKETS_US.len()], 1);
        assert_eq!(e.latency.count(), 2 * LATENCY_BUCKETS_US.len() as u64);
    }

    /// Prometheus text-format invariants: one `# TYPE` line per family,
    /// cumulative `_bucket` series ending at `+Inf`, and
    /// `_bucket{le="+Inf"} == _count`.
    #[test]
    fn prometheus_histogram_conformance() {
        let m = Metrics::new();
        m.record(Op::Predict, Duration::from_micros(50), true);
        m.record(Op::Predict, Duration::from_micros(5_000), true);
        m.record(Op::Predict, Duration::from_secs(100), false);
        let cache = PredictionCache::new(4);
        let text = m.render(&cache);

        assert_eq!(
            text.matches("# TYPE paragraph_request_latency_us histogram")
                .count(),
            1
        );
        // Buckets must be cumulative (monotone non-decreasing in le
        // order) for every op label.
        for op in Op::ALL {
            let mut last = 0_u64;
            let mut inf = None;
            for line in text.lines() {
                if line.starts_with("paragraph_request_latency_us_bucket{")
                    && line.contains(&format!("op=\"{}\"", op.name()))
                {
                    let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                    assert!(v >= last, "non-cumulative bucket line: {line}");
                    last = v;
                    if line.contains("le=\"+Inf\"") {
                        inf = Some(v);
                    }
                }
            }
            let count_line = text
                .lines()
                .find(|l| {
                    l.starts_with("paragraph_request_latency_us_count{")
                        && l.contains(&format!("op=\"{}\"", op.name()))
                })
                .unwrap_or_else(|| panic!("no _count for {}", op.name()));
            let count: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
            assert_eq!(inf, Some(count), "+Inf bucket must equal _count");
        }
        // _sum present for the histogram family.
        assert!(text
            .lines()
            .any(|l| l.starts_with("paragraph_request_latency_us_sum{")));
    }

    /// Label values with quotes, backslashes, and newlines must be
    /// escaped per the exposition format.
    #[test]
    fn prometheus_label_escaping() {
        let m = Metrics::new();
        let c = m
            .registry
            .counter("paragraph_test_total", &[("path", "a\\b\"c\nd")]);
        c.inc();
        let cache = PredictionCache::new(1);
        let text = m.render(&cache);
        assert!(
            text.contains(r#"path="a\\b\"c\nd""#),
            "escaped label missing in:\n{text}"
        );
        assert!(!text.contains("c\nd"), "raw newline leaked into a label");
    }

    /// Per-op rolling quantiles render as a Prometheus summary and
    /// appear in the JSON snapshot.
    #[test]
    fn rolling_quantiles_render_and_snapshot() {
        let m = Metrics::new();
        for us in 1..=100u64 {
            m.record(Op::Predict, Duration::from_micros(us), true);
        }
        let cache = PredictionCache::new(4);
        let text = m.render(&cache);
        assert!(
            text.contains(
                "paragraph_request_latency_rolling_us{op=\"predict\",quantile=\"0.5\"} 50"
            ),
            "missing p50 summary line in:\n{text}"
        );
        assert!(text
            .contains("paragraph_request_latency_rolling_us{op=\"predict\",quantile=\"0.95\"} 95"));
        assert!(text
            .contains("paragraph_request_latency_rolling_us{op=\"predict\",quantile=\"0.99\"} 99"));
        let snap = m.snapshot(&cache);
        let rolling = &snap["endpoints"][Op::Predict.index()]["latency_rolling"];
        assert_eq!(rolling[0]["q"].as_f64(), Some(0.5));
        assert_eq!(rolling[0]["latency_us"].as_f64(), Some(50.0));
        assert_eq!(rolling[2]["latency_us"].as_f64(), Some(99.0));
        // Ops with no traffic render null quantiles, not garbage.
        let idle = &snap["endpoints"][Op::Reload.index()]["latency_rolling"];
        assert!(idle[0]["latency_us"].is_null());
    }

    /// Per-precision request counters and latency windows render under
    /// their `precision` label and appear in the JSON snapshot, one
    /// entry per tier in [`Precision::ALL`].
    #[test]
    fn precision_metrics_track_each_tier() {
        let m = Metrics::new();
        m.record_precision(Precision::Int8, Duration::from_micros(30));
        m.record_precision(Precision::Int8, Duration::from_micros(50));
        m.record_precision(Precision::F32, Duration::from_micros(200));
        assert_eq!(m.precision_requests(Precision::Int8), 2);
        assert_eq!(m.precision_requests(Precision::F32), 1);
        let cache = PredictionCache::new(1);
        let text = m.render(&cache);
        assert!(
            text.contains("paragraph_serve_precision_requests_total{precision=\"int8\"} 2"),
            "missing int8 counter in:\n{text}"
        );
        assert!(
            text.contains(
                "paragraph_serve_precision_latency_us{precision=\"f32\",quantile=\"0.5\"} 200"
            ),
            "missing f32 p50 in:\n{text}"
        );
        let snap = m.snapshot(&cache);
        assert_eq!(snap["precisions"]["int8"]["requests"].as_u64(), Some(2));
        let tiers: Vec<&str> = snap["precisions"]
            .as_object()
            .unwrap()
            .iter()
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(tiers, ["f32", "int8"], "one entry per tier, none other");
        assert_eq!(
            snap["precisions"]["f32"]["latency_rolling"][0]["latency_us"].as_f64(),
            Some(200.0)
        );
    }

    /// Batch-size histogram, batches-formed and window-admitted
    /// counters render as Prometheus families and appear in the JSON
    /// snapshot.
    #[test]
    fn batching_metrics_render_and_snapshot() {
        let m = Metrics::new();
        m.record_batch(1);
        m.record_batch(4);
        m.window_admitted(3);
        assert_eq!(m.batches_formed(), 2);
        assert_eq!(m.window_admitted_total(), 3);
        let cache = PredictionCache::new(1);
        let text = m.render(&cache);
        assert!(
            text.contains("paragraph_serve_batch_size_bucket"),
            "missing batch-size histogram in:\n{text}"
        );
        assert!(text.contains("paragraph_serve_batches_formed_total 2"));
        assert!(text.contains("paragraph_serve_window_admitted_jobs_total 3"));
        let snap = m.snapshot(&cache);
        assert_eq!(snap["batching"]["batches_formed"].as_u64(), Some(2));
        assert_eq!(snap["batching"]["window_admitted_jobs"].as_u64(), Some(3));
        assert_eq!(snap["batching"]["batched_jobs"].as_u64(), Some(5));
    }

    /// The render path merges the process-global registry, so training
    /// metrics appear on the serving endpoint.
    #[test]
    fn render_merges_global_registry() {
        paragraph_obs::global()
            .counter("paragraph_render_merge_probe_total", &[])
            .inc();
        let m = Metrics::new();
        let cache = PredictionCache::new(1);
        let text = m.render(&cache);
        assert!(text.contains("paragraph_render_merge_probe_total"));
    }
}
