//! Process-wide metrics: counters, gauges, and histograms behind
//! atomics, organised into named families with Prometheus-style labels.
//!
//! A [`Registry`] owns a set of metric families; handles
//! ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s resolved once and
//! then updated lock-free. The same registry renders either Prometheus
//! exposition text ([`Registry::render_prometheus`]) or a JSON object
//! ([`Registry::render_json`]), so every exporter in the workspace —
//! the serving endpoint included — shares one code path.
//!
//! Most code records into the shared [`global`] registry; subsystems
//! that need isolated counters (e.g. one per service instance) create
//! their own [`Registry`] and render both.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::quantile::{RollingQuantile, RENDERED_QUANTILES};
use crate::trace::JsonStr;

/// A label set: `(key, value)` pairs, sorted by key at registration.
pub type Labels = Vec<(String, String)>;

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the count — for mirroring a counter accumulated
    /// elsewhere (e.g. a cache's internal hit counter) into a registry.
    #[inline]
    pub fn store(&self, n: u64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable `f64` value (stored as bits in an `AtomicU64`).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: AtomicU64::new(0.0_f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (CAS loop; gauges are low-frequency).
    pub fn add(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Subtracts `delta`.
    #[inline]
    pub fn sub(&self, delta: f64) {
        self.add(-delta);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram with Prometheus `le` (less-or-equal)
/// semantics: an observation lands in the first bucket whose upper
/// bound is `>= v`; observations above every bound land in the implicit
/// `+Inf` bucket.
#[derive(Debug)]
pub struct Histogram {
    /// Finite upper bounds, ascending. The `+Inf` bucket is implicit.
    bounds: Vec<f64>,
    /// One slot per finite bound plus the `+Inf` slot.
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite (+Inf is implicit)"
        );
        let mut buckets = Vec::with_capacity(bounds.len() + 1);
        buckets.resize_with(bounds.len() + 1, AtomicU64::default);
        Self {
            bounds: bounds.to_vec(),
            buckets,
            sum_bits: AtomicU64::new(0.0_f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Finite upper bounds (ascending; `+Inf` is implicit).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Non-cumulative per-bucket counts, `+Inf` slot last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }
}

/// One registered metric of any kind.
#[derive(Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    Rolling(Arc<RollingQuantile>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
            // Rolling quantiles render as a Prometheus summary:
            // quantile-labelled samples plus _sum/_count.
            Metric::Rolling(_) => "summary",
        }
    }
}

/// A family: every labelled instance of one metric name.
#[derive(Debug, Default)]
struct Family {
    by_labels: BTreeMap<Labels, Metric>,
}

/// A set of metric families, rendered together.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn sorted_labels(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels
        .iter()
        .map(|&(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
    out.sort();
    out
}

/// Instance labels plus render-time extras, re-sorted; an extra key that
/// collides with an instance key replaces it.
fn merge_labels(base: &Labels, extra: &[(&str, &str)]) -> Labels {
    if extra.is_empty() {
        return base.clone();
    }
    let mut out: Labels = base
        .iter()
        .filter(|(k, _)| !extra.iter().any(|(ek, _)| ek == k))
        .cloned()
        .collect();
    out.extend(extra.iter().map(|&(k, v)| (k.to_owned(), v.to_owned())));
    out.sort();
    out
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves (registering on first use) the counter
    /// `name{labels...}`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different metric
    /// kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut families = lock(&self.families);
        let metric = families
            .entry(name.to_owned())
            .or_default()
            .by_labels
            .entry(sorted_labels(labels))
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())));
        match metric {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric '{name}' is a {}, not a counter", other.kind()),
        }
    }

    /// Resolves (registering on first use) the gauge `name{labels...}`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different metric
    /// kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut families = lock(&self.families);
        let metric = families
            .entry(name.to_owned())
            .or_default()
            .by_labels
            .entry(sorted_labels(labels))
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())));
        match metric {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric '{name}' is a {}, not a gauge", other.kind()),
        }
    }

    /// Resolves (registering on first use) the histogram
    /// `name{labels...}` with the given finite bucket bounds.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind, or
    /// if `bounds` are not strictly ascending finite values.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Arc<Histogram> {
        let mut families = lock(&self.families);
        let metric = families
            .entry(name.to_owned())
            .or_default()
            .by_labels
            .entry(sorted_labels(labels))
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))));
        match metric {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
        }
    }

    /// Resolves (registering on first use) the rolling-window quantile
    /// estimator `name{labels...}` keeping the `window` most recent
    /// observations. Rendered as a Prometheus `summary` with exact
    /// p50/p95/p99 over the window.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different metric
    /// kind.
    pub fn rolling(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        window: usize,
    ) -> Arc<RollingQuantile> {
        let mut families = lock(&self.families);
        let metric = families
            .entry(name.to_owned())
            .or_default()
            .by_labels
            .entry(sorted_labels(labels))
            .or_insert_with(|| Metric::Rolling(Arc::new(RollingQuantile::new(window))));
        match metric {
            Metric::Rolling(r) => Arc::clone(r),
            other => panic!(
                "metric '{name}' is a {}, not a rolling quantile",
                other.kind()
            ),
        }
    }

    /// Renders Prometheus text exposition format: one `# TYPE` line per
    /// family, then one sample line per labelled instance. Histograms
    /// expand into cumulative `_bucket{le=...}` series plus `_sum` and
    /// `_count`.
    pub fn render_prometheus(&self) -> String {
        self.render_prometheus_labeled(&[])
    }

    /// Like [`Registry::render_prometheus`] but merges `extra` label
    /// pairs into every sample line at render time — e.g. a gateway
    /// rendering per-shard registries tags each one `shard="<n>"`
    /// without the instrumented code knowing about shards. Extra labels
    /// sort with the instance labels; `le`/`quantile` stay last.
    pub fn render_prometheus_labeled(&self, extra: &[(&str, &str)]) -> String {
        let families = lock(&self.families);
        let mut out = String::new();
        for (name, family) in families.iter() {
            let kind = match family.by_labels.values().next() {
                Some(m) => m.kind(),
                None => continue,
            };
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (base_labels, metric) in &family.by_labels {
                let labels = &merge_labels(base_labels, extra);
                match metric {
                    Metric::Counter(c) => {
                        let _ = writeln!(out, "{}{} {}", name, label_block(labels), c.get());
                    }
                    Metric::Gauge(g) => {
                        let _ =
                            writeln!(out, "{}{} {}", name, label_block(labels), fmt_f64(g.get()));
                    }
                    Metric::Histogram(h) => {
                        let mut cumulative = 0_u64;
                        let counts = h.bucket_counts();
                        for (i, &count) in counts.iter().enumerate() {
                            cumulative += count;
                            let le = match h.bounds().get(i) {
                                Some(b) => fmt_f64(*b),
                                None => "+Inf".to_owned(),
                            };
                            let mut with_le = labels.clone();
                            with_le.push(("le".to_owned(), le));
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                name,
                                label_block(&with_le),
                                cumulative
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            name,
                            label_block(labels),
                            fmt_f64(h.sum())
                        );
                        let _ =
                            writeln!(out, "{}_count{} {}", name, label_block(labels), h.count());
                    }
                    Metric::Rolling(r) => {
                        let values = r.quantiles(&RENDERED_QUANTILES);
                        for (&q, &v) in RENDERED_QUANTILES.iter().zip(values.iter()) {
                            let mut with_q = labels.clone();
                            with_q.push(("quantile".to_owned(), format!("{q}")));
                            let _ =
                                writeln!(out, "{}{} {}", name, label_block(&with_q), fmt_f64(v));
                        }
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            name,
                            label_block(labels),
                            fmt_f64(r.sum())
                        );
                        let _ =
                            writeln!(out, "{}_count{} {}", name, label_block(labels), r.count());
                    }
                }
            }
        }
        out
    }

    /// Renders the registry as one JSON object: `{"family": [{"labels":
    /// {...}, "value": ...}, ...], ...}`. Histogram instances carry
    /// `buckets` (non-cumulative, with `le` bounds), `sum`, and `count`.
    pub fn render_json(&self) -> String {
        let families = lock(&self.families);
        let mut out = String::from("{");
        for (fi, (name, family)) in families.iter().enumerate() {
            if fi > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:[", JsonStr(name));
            for (mi, (labels, metric)) in family.by_labels.iter().enumerate() {
                if mi > 0 {
                    out.push(',');
                }
                out.push_str("{\"labels\":{");
                for (li, (k, v)) in labels.iter().enumerate() {
                    if li > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:{}", JsonStr(k), JsonStr(v));
                }
                out.push('}');
                match metric {
                    Metric::Counter(c) => {
                        let _ = write!(out, ",\"value\":{}", c.get());
                    }
                    Metric::Gauge(g) => {
                        let _ = write!(out, ",\"value\":{}", json_f64(g.get()));
                    }
                    Metric::Histogram(h) => {
                        out.push_str(",\"buckets\":[");
                        let counts = h.bucket_counts();
                        for (i, &count) in counts.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            let le = match h.bounds().get(i) {
                                Some(b) => json_f64(*b),
                                None => "\"inf\"".to_owned(),
                            };
                            let _ = write!(out, "{{\"le\":{le},\"count\":{count}}}");
                        }
                        let _ = write!(
                            out,
                            "],\"sum\":{},\"count\":{}",
                            json_f64(h.sum()),
                            h.count()
                        );
                    }
                    Metric::Rolling(r) => {
                        let values = r.quantiles(&RENDERED_QUANTILES);
                        out.push_str(",\"quantiles\":{");
                        for (i, (&q, &v)) in
                            RENDERED_QUANTILES.iter().zip(values.iter()).enumerate()
                        {
                            if i > 0 {
                                out.push(',');
                            }
                            let _ = write!(out, "\"{q}\":{}", json_f64(v));
                        }
                        let _ = write!(
                            out,
                            "}},\"sum\":{},\"count\":{},\"window\":{}",
                            json_f64(r.sum()),
                            r.count(),
                            r.window_len()
                        );
                    }
                }
                out.push('}');
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// `{k="v",...}` with Prometheus label-value escaping, or the empty
/// string for an unlabelled instance.
fn label_block(labels: &Labels) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

/// Prometheus label-value escaping: backslash, double-quote, and
/// line-feed.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Shortest-round-trip float formatting; integers drop the fraction.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// JSON number; non-finite values become null (JSON has no Inf/NaN).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        fmt_f64(v)
    } else {
        "null".to_owned()
    }
}

/// The process-wide registry shared by training, tensor, and runtime
/// instrumentation.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("jobs_total", &[("kind", "matmul")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same (name, labels) resolves to the same instance.
        assert_eq!(r.counter("jobs_total", &[("kind", "matmul")]).get(), 5);
        let g = r.gauge("depth", &[]);
        g.set(3.0);
        g.add(2.0);
        g.sub(1.0);
        assert!((g.get() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_le_semantics() {
        let r = Registry::new();
        let h = r.histogram("lat", &[], &[1.0, 10.0]);
        h.observe(1.0); // exactly on a bound -> that bucket (le semantics)
        h.observe(0.5);
        h.observe(10.5); // above all bounds -> +Inf
        assert_eq!(h.bucket_counts(), vec![2, 0, 1]);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 12.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x", &[]);
        let _ = r.gauge("x", &[]);
    }

    #[test]
    fn prometheus_render_families_sorted_with_type_lines() {
        let r = Registry::new();
        r.counter("b_total", &[("op", "predict")]).add(2);
        r.counter("b_total", &[("op", "erc")]).add(1);
        r.gauge("a_gauge", &[]).set(1.5);
        let text = r.render_prometheus();
        let a = text.find("# TYPE a_gauge gauge").expect("gauge family");
        let b = text.find("# TYPE b_total counter").expect("counter family");
        assert!(a < b, "families render in name order:\n{text}");
        assert!(text.contains("b_total{op=\"erc\"} 1"));
        assert!(text.contains("b_total{op=\"predict\"} 2"));
    }

    #[test]
    fn labeled_render_injects_extra_labels() {
        let r = Registry::new();
        r.counter("req_total", &[("op", "predict")]).add(3);
        r.rolling("lat_us", &[("op", "predict")], 4).observe(7.0);
        r.histogram("h_us", &[], &[1.0]).observe(0.5);
        let text = r.render_prometheus_labeled(&[("shard", "2")]);
        assert!(
            text.contains("req_total{op=\"predict\",shard=\"2\"} 3"),
            "{text}"
        );
        // le/quantile stay last, after the injected label.
        assert!(
            text.contains("lat_us{op=\"predict\",shard=\"2\",quantile=\"0.5\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("h_us_bucket{shard=\"2\",le=\"1\"} 1"),
            "{text}"
        );
        assert!(text.contains("h_us_count{shard=\"2\"} 1"), "{text}");
        // The unlabeled render is byte-identical to the pre-refactor one.
        let plain = r.render_prometheus();
        assert!(plain.contains("req_total{op=\"predict\"} 3"), "{plain}");
        assert!(!plain.contains("shard"), "{plain}");
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        let r = Registry::new();
        r.counter("esc_total", &[("path", "a\"b\\c\nd")]).inc();
        let text = r.render_prometheus();
        assert!(
            text.contains("esc_total{path=\"a\\\"b\\\\c\\nd\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn rolling_renders_as_summary() {
        let r = Registry::new();
        let rq = r.rolling("lat_rolling_us", &[("op", "predict")], 8);
        for v in 1..=8 {
            rq.observe(v as f64);
        }
        // Same (name, labels) resolves to the same instance.
        assert_eq!(
            r.rolling("lat_rolling_us", &[("op", "predict")], 8).count(),
            8
        );
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE lat_rolling_us summary"), "{text}");
        assert!(
            text.contains("lat_rolling_us{op=\"predict\",quantile=\"0.5\"} 4"),
            "{text}"
        );
        assert!(
            text.contains("lat_rolling_us{op=\"predict\",quantile=\"0.95\"} 8"),
            "{text}"
        );
        assert!(
            text.contains("lat_rolling_us{op=\"predict\",quantile=\"0.99\"} 8"),
            "{text}"
        );
        assert!(
            text.contains("lat_rolling_us_sum{op=\"predict\"} 36"),
            "{text}"
        );
        assert!(
            text.contains("lat_rolling_us_count{op=\"predict\"} 8"),
            "{text}"
        );
        let json = r.render_json();
        assert!(
            json.contains("\"quantiles\":{\"0.5\":4,\"0.95\":8,\"0.99\":8}"),
            "{json}"
        );
        assert!(json.contains("\"window\":8"), "{json}");
    }

    #[test]
    #[should_panic(expected = "not a rolling quantile")]
    fn rolling_kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("y", &[]);
        let _ = r.rolling("y", &[], 4);
    }

    #[test]
    fn empty_rolling_window_renders_nan_quantiles() {
        let r = Registry::new();
        let _ = r.rolling("idle_rolling", &[], 4);
        let text = r.render_prometheus();
        assert!(
            text.contains("idle_rolling{quantile=\"0.5\"} NaN"),
            "{text}"
        );
        let json = r.render_json();
        assert!(json.contains("\"0.5\":null"), "{json}");
    }

    #[test]
    fn json_render_is_wellformed() {
        let r = Registry::new();
        r.counter("c_total", &[("op", "x")]).add(7);
        r.counter("e_total", &[("path", "a\"b\\c\nd\u{1}e")]).inc();
        r.histogram("h", &[], &[0.5]).observe(0.25);
        let json = r.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"c_total\""));
        assert!(
            json.contains(r#""path":"a\"b\\c\nd\u0001e""#),
            "label value not escaped in:\n{json}"
        );
        assert!(json.contains("\"value\":7"));
        assert!(json.contains("\"le\":0.5"));
        assert!(json.contains("\"le\":\"inf\""));
    }
}
