//! The gateway's live ops surface: `/debug/traces`,
//! `/debug/traces/<req-id>`, and `/debug/dashboard`.
//!
//! The trace endpoints read the process-wide
//! [`paragraph_obs::trace_store`] — one store shared by every shard,
//! each retained trace labelled with the shard that served it — so a
//! single GET sees the whole gateway. The dashboard aggregates the
//! per-shard service registries (rolling latency quantiles, queue
//! depths, batch-size histogram, drift z-scores, per-precision
//! latency) into one self-contained HTML page with no scripts and no
//! external assets: `curl | w3m` works as well as a browser.

use std::fmt::Write as _;
use std::sync::Arc;

use paragraph::Precision;
use serde_json::{json, Value};

use crate::service::{retained_by_reason, stages_json, Service};

/// How many retained traces the index and dashboard list (newest
/// first). The full ring stays addressable by request id.
const INDEX_LIMIT: usize = 50;

/// `GET /debug/traces`: store counters plus an index of retained
/// traces, newest first.
pub(crate) fn traces_index() -> Value {
    let store = paragraph_obs::trace_store();
    let counters = store.counters();
    let mut traces = Vec::new();
    store.visit_newest(INDEX_LIMIT, |t| {
        traces.push(json!({
            "request_id": t.record.request_id,
            "shard": t.shard,
            "op": t.record.op,
            "reason": t.reason.name(),
            "ok": t.record.ok,
            "total_us": t.record.total_us(),
            "completed_ts_us": t.completed_ts_us,
            "stages": stages_json(&t.record),
            "span_count": t.spans.len() as u64,
            "seq": t.seq,
        }));
    });
    json!({
        "enabled": paragraph_obs::store_enabled(),
        "epoch_unix_ns": paragraph_obs::epoch_unix_nanos(),
        "counters": {
            "completed": counters.completed,
            "retained": counters.retained_total(),
            "retained_by_reason": retained_by_reason(&counters),
            "not_retained": counters.not_retained,
            "dropped_spans": counters.dropped_spans,
            "evicted": counters.evicted,
            "active": counters.active as u64,
            "stored": counters.stored as u64,
        },
        "traces": traces,
    })
}

/// `GET /debug/traces/<req-id>`: the full span tree of one retained
/// trace as a Chrome-trace-compatible object (`traceEvents` +
/// `displayTimeUnit`, loadable in `chrome://tracing` / Perfetto) with
/// the request's metadata as extra top-level keys, which trace viewers
/// ignore. `None` when the id is unknown (expired from the ring or
/// never retained).
pub(crate) fn trace_detail(request_id: &str) -> Option<Value> {
    let trace = paragraph_obs::trace_store().get(request_id)?;
    let rendered = paragraph_obs::render_chrome_trace(&trace.spans);
    let mut doc =
        serde_json::from_str::<Value>(&rendered).expect("rendered chrome trace parses as JSON");
    if let Value::Object(obj) = &mut doc {
        let record = &trace.record;
        obj.insert("request_id", json!(record.request_id));
        obj.insert("shard", json!(trace.shard));
        obj.insert("op", json!(record.op));
        obj.insert("reason", json!(trace.reason.name()));
        obj.insert("ok", json!(record.ok));
        obj.insert("total_us", json!(record.total_us()));
        obj.insert("completed_ts_us", json!(trace.completed_ts_us));
        obj.insert("epoch_unix_ns", json!(paragraph_obs::epoch_unix_nanos()));
        obj.insert("stages", stages_json(record));
        obj.insert("dropped_spans", json!(trace.dropped_spans));
    }
    Some(doc)
}

/// `GET /debug/dashboard`: one self-contained HTML page over every
/// shard. Server-rendered from the same snapshots `/metrics.json`
/// serves, so the numbers agree with the machine-readable surface.
pub(crate) fn dashboard_html(services: &[Arc<Service>]) -> String {
    let snapshots: Vec<Value> = services
        .iter()
        .map(|s| s.metrics().snapshot(s.cache()))
        .collect();
    let mut page = String::with_capacity(16 * 1024);
    page.push_str(
        "<!doctype html><html><head><meta charset=\"utf-8\">\
         <title>paragraph gateway</title><style>\
         body{font:14px/1.4 monospace;margin:1.5em;background:#fafafa;color:#222}\
         h1{font-size:1.3em}h2{font-size:1.1em;margin-top:1.6em;\
         border-bottom:1px solid #ccc;padding-bottom:.2em}\
         table{border-collapse:collapse;margin:.5em 0}\
         th,td{border:1px solid #ccc;padding:.2em .6em;text-align:right}\
         th{background:#eee}td.l,th.l{text-align:left}\
         .bar{background:#69c;display:inline-block;height:.8em}\
         .ok{color:#171}.bad{color:#b11}small{color:#666}\
         </style></head><body>\n",
    );
    let _ = writeln!(
        page,
        "<h1>paragraph gateway</h1>\
         <p><small>{} shard(s) &middot; epoch_unix_ns {} &middot; \
         store {}</small></p>",
        services.len(),
        paragraph_obs::epoch_unix_nanos(),
        if paragraph_obs::store_enabled() {
            "enabled"
        } else {
            "disabled"
        },
    );

    render_latency_section(&mut page, &snapshots);
    render_queue_section(&mut page, services, &snapshots);
    render_batch_section(&mut page, &snapshots);
    render_precision_section(&mut page, &snapshots);
    render_drift_section(&mut page, services);
    render_traces_section(&mut page);

    page.push_str("</body></html>\n");
    page
}

/// Rolling request-latency quantiles per op per shard; ops that served
/// no requests are skipped.
fn render_latency_section(page: &mut String, snapshots: &[Value]) {
    page.push_str(
        "<h2>request latency (rolling)</h2>\
         <table><tr><th class=\"l\">shard</th><th class=\"l\">op</th>\
         <th>requests</th><th>errors</th>\
         <th>p50 &micro;s</th><th>p95 &micro;s</th><th>p99 &micro;s</th></tr>\n",
    );
    for (i, snap) in snapshots.iter().enumerate() {
        let Some(endpoints) = snap["endpoints"].as_array() else {
            continue;
        };
        for e in endpoints {
            if e["requests"].as_u64().unwrap_or(0) == 0 {
                continue;
            }
            let _ = write!(
                page,
                "<tr><td class=\"l\">{i}</td><td class=\"l\">{}</td>\
                 <td>{}</td><td>{}</td>",
                escape(e["op"].as_str().unwrap_or("?")),
                e["requests"].as_u64().unwrap_or(0),
                e["errors"].as_u64().unwrap_or(0),
            );
            push_quantile_cells(page, &e["latency_rolling"]);
            page.push_str("</tr>\n");
        }
    }
    page.push_str("</table>\n");
}

/// Queue depth, uptime, and cache hit rate per shard.
fn render_queue_section(page: &mut String, services: &[Arc<Service>], snapshots: &[Value]) {
    page.push_str(
        "<h2>queues &amp; caches</h2>\
         <table><tr><th class=\"l\">shard</th><th>queue depth</th>\
         <th>bad lines</th><th>cache hits</th><th>cache misses</th>\
         <th>hit rate</th><th>uptime ms</th></tr>\n",
    );
    for (i, (service, snap)) in services.iter().zip(snapshots).enumerate() {
        let _ = writeln!(
            page,
            "<tr><td class=\"l\">{i}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{:.2}</td><td>{}</td></tr>",
            service.metrics().queue_depth(),
            snap["bad_lines"].as_u64().unwrap_or(0),
            snap["cache"]["hits"].as_u64().unwrap_or(0),
            snap["cache"]["misses"].as_u64().unwrap_or(0),
            snap["cache"]["hit_rate"].as_f64().unwrap_or(0.0),
            snap["uptime_ms"].as_u64().unwrap_or(0),
        );
    }
    page.push_str("</table>\n");
}

/// Batch-size histogram summed across shards, drawn as text bars.
fn render_batch_section(page: &mut String, snapshots: &[Value]) {
    let mut labels: Vec<String> = Vec::new();
    let mut totals: Vec<u64> = Vec::new();
    for snap in snapshots {
        let Some(buckets) = snap["batching"]["size_buckets"].as_array() else {
            continue;
        };
        for (b, bucket) in buckets.iter().enumerate() {
            if b >= labels.len() {
                let le = bucket["le"]
                    .as_u64()
                    .map_or_else(|| "inf".to_owned(), |v| v.to_string());
                labels.push(le);
                totals.push(0);
            }
            totals[b] += bucket["count"].as_u64().unwrap_or(0);
        }
    }
    let formed: u64 = snapshots
        .iter()
        .filter_map(|s| s["batching"]["batches_formed"].as_u64())
        .sum();
    let admitted: u64 = snapshots
        .iter()
        .filter_map(|s| s["batching"]["window_admitted_jobs"].as_u64())
        .sum();
    let _ = writeln!(
        page,
        "<h2>batch sizes</h2>\
         <p><small>{formed} batches formed &middot; {admitted} jobs \
         admitted by open windows</small></p>\
         <table><tr><th class=\"l\">size &le;</th><th>batches</th>\
         <th class=\"l\"></th></tr>",
    );
    let peak = totals.iter().copied().max().unwrap_or(0).max(1);
    for (le, &count) in labels.iter().zip(&totals) {
        let width = count * 200 / peak;
        let _ = writeln!(
            page,
            "<tr><td class=\"l\">{le}</td><td>{count}</td>\
             <td class=\"l\"><span class=\"bar\" style=\"width:{width}px\"></span></td></tr>",
        );
    }
    page.push_str("</table>\n");
}

/// Per-precision rolling latency per shard, one row per tier in
/// [`Precision::ALL`]; precisions with no traffic are skipped.
fn render_precision_section(page: &mut String, snapshots: &[Value]) {
    page.push_str(
        "<h2>inference precisions</h2>\
         <table><tr><th class=\"l\">shard</th><th class=\"l\">precision</th>\
         <th>requests</th>\
         <th>p50 &micro;s</th><th>p95 &micro;s</th><th>p99 &micro;s</th></tr>\n",
    );
    for (i, snap) in snapshots.iter().enumerate() {
        for precision in Precision::ALL {
            let name = precision.name();
            let p = &snap["precisions"][name];
            if p["requests"].as_u64().unwrap_or(0) == 0 {
                continue;
            }
            let _ = write!(
                page,
                "<tr><td class=\"l\">{i}</td><td class=\"l\">{name}</td><td>{}</td>",
                p["requests"].as_u64().unwrap_or(0),
            );
            push_quantile_cells(page, &p["latency_rolling"]);
            page.push_str("</tr>\n");
        }
    }
    page.push_str("</table>\n");
}

/// Drift monitor state per shard: OOD fraction and the highest
/// per-feature z-scores.
fn render_drift_section(page: &mut String, services: &[Arc<Service>]) {
    page.push_str(
        "<h2>drift</h2>\
         <table><tr><th class=\"l\">shard</th><th>active</th>\
         <th>ood total</th><th>ood fraction</th>\
         <th class=\"l\">top z-scores</th></tr>\n",
    );
    for (i, service) in services.iter().enumerate() {
        let drift = service.drift();
        let mut z = drift.z_scores();
        z.sort_by(|a, b| b.1.total_cmp(&a.1));
        let top: Vec<String> = z
            .iter()
            .take(5)
            .filter(|(_, z)| z.is_finite() && *z > 0.0)
            .map(|(name, z)| format!("{} z={z:.2}", escape(name)))
            .collect();
        let _ = writeln!(
            page,
            "<tr><td class=\"l\">{i}</td><td>{}</td><td>{}</td>\
             <td>{:.3}</td><td class=\"l\">{}</td></tr>",
            drift.is_active(),
            drift.ood_requests_total(),
            drift.ood_fraction(),
            if top.is_empty() {
                "&mdash;".to_owned()
            } else {
                top.join(" &middot; ")
            },
        );
    }
    page.push_str("</table>\n");
}

/// Store counters and the most recently retained traces, each linked
/// to its `/debug/traces/<req-id>` span tree.
fn render_traces_section(page: &mut String) {
    let store = paragraph_obs::trace_store();
    let counters = store.counters();
    let by_reason: Vec<String> = paragraph_obs::RetainReason::ALL
        .iter()
        .zip(counters.retained.iter())
        .filter(|(_, &n)| n > 0)
        .map(|(reason, n)| format!("{} {n}", reason.name()))
        .collect();
    let _ = writeln!(
        page,
        "<h2>retained traces</h2>\
         <p><small>{} completed &middot; {} retained ({}) &middot; \
         {} sampled out &middot; {} evicted &middot; {} spans dropped</small></p>",
        counters.completed,
        counters.retained_total(),
        if by_reason.is_empty() {
            "none".to_owned()
        } else {
            by_reason.join(", ")
        },
        counters.not_retained,
        counters.evicted,
        counters.dropped_spans,
    );
    page.push_str(
        "<table><tr><th class=\"l\">request</th><th class=\"l\">shard</th>\
         <th class=\"l\">op</th><th class=\"l\">reason</th><th class=\"l\">ok</th>\
         <th>total &micro;s</th><th>spans</th></tr>\n",
    );
    store.visit_newest(INDEX_LIMIT, |t| {
        let shard = t.shard.map_or_else(|| "-".to_owned(), |v| v.to_string());
        let _ = writeln!(
            page,
            "<tr><td class=\"l\"><a href=\"/debug/traces/{id}\">{id}</a></td>\
             <td class=\"l\">{shard}</td><td class=\"l\">{}</td>\
             <td class=\"l\">{}</td>\
             <td class=\"l\"><span class=\"{}\">{}</span></td>\
             <td>{:.1}</td><td>{}</td></tr>",
            escape(t.record.op),
            t.reason.name(),
            if t.record.ok { "ok" } else { "bad" },
            t.record.ok,
            t.record.total_us(),
            t.spans.len(),
            id = escape(&t.record.request_id),
        );
    });
    page.push_str("</table>\n");
}

/// Writes the p50/p95/p99 cells from a `latency_rolling` array as
/// rendered by `Metrics::snapshot` (null until the window has data).
fn push_quantile_cells(page: &mut String, rolling: &Value) {
    for slot in 0..3 {
        match rolling[slot]["latency_us"].as_f64() {
            Some(v) => {
                let _ = write!(page, "<td>{v:.1}</td>");
            }
            None => page.push_str("<td>&mdash;</td>"),
        }
    }
}

/// Minimal HTML escaping for dynamic text (request ids, model keys,
/// feature names).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_neutralises_markup() {
        assert_eq!(escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
        assert_eq!(escape("req-12"), "req-12");
    }
}
