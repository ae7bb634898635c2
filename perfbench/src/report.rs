//! Metric names and units, and the result lines the benchmark prints.

use std::collections::BTreeMap;

use serde_json::{json, Map, Value};

use crate::{stats, Run};

/// A reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, reported by every workload with tracing off. An
/// op is one request on the serving workloads and one optimizer step on
/// `train_step`.
pub const END_TO_END: [MetricDef; 6] = [
    m("throughput_per_s", "1/s"),
    m("p50_ms", "ms"),
    m("p90_ms", "ms"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MiB"),
    m("allocs_per_op", "count"),
];

/// Per-layer metrics of the traced replay. A layer a workload does not
/// exercise reads 0 on that workload.
pub const PER_LAYER: [MetricDef; 28] = [
    m("gateway.rtt_us", "us"),
    m("gateway.overhead_us", "us"),
    m("serve.handle_line_us", "us"),
    m("serve.allocs_per_op", "count"),
    m("serve.request_parse_us", "us"),
    m("serve.drift_us", "us"),
    m("serve.cache_key_us", "us"),
    m("serve.unattributed_us", "us"),
    m("serve.cache_hit_ratio", "ratio"),
    m("serve.batch_size_mean", "count"),
    m("netlist.parse_us", "us"),
    m("netlist.allocs_per_op", "count"),
    m("core.graph_build_us", "us"),
    m("core.graph_build_allocs", "count"),
    m("core.predict_graph_us", "us"),
    m("core.select_us", "us"),
    m("core.nodes_per_op", "count"),
    m("core.edges_per_op", "count"),
    m("core.edge_types_per_op", "count"),
    m("gnn.plan_build_us", "us"),
    m("gnn.batch_assemble_us", "us"),
    m("gnn.train_step_us", "us"),
    m("exec.forward_us", "us"),
    m("exec.allocs_per_op", "count"),
    m("tensor.tape_forward_us", "us"),
    m("tensor.backward_us", "us"),
    m("tensor.adam_us", "us"),
    m("runtime.jobs_per_op", "count"),
];

/// Looks up a per-layer metric definition.
pub fn per_layer(name: &str) -> Option<MetricDef> {
    PER_LAYER.iter().copied().find(|d| d.name == name)
}

/// The end-to-end metric values of a run. Throughput is the upper
/// quartile of the timed phase's segment rates, p50 and p90 the lower
/// quartile of its segment percentiles (see [`crate::Plan::segments`]);
/// `setup_s` is the median cold start; `peak_rss_mb` is read at the
/// time of the call.
pub fn end_to_end(run: &Run, segments: usize) -> BTreeMap<&'static str, f64> {
    let t = &run.timed;
    let segs = stats::segments(&t.done_s, &t.latencies_ms, segments);
    let quartile = |q: f64, f: fn(&stats::Segment) -> f64| {
        stats::percentile(&segs.iter().map(f).collect::<Vec<_>>(), q)
    };
    let mut out = BTreeMap::new();
    out.insert("throughput_per_s", quartile(0.75, |s| s.rate));
    out.insert("p50_ms", quartile(0.25, |s| s.p50));
    out.insert("p90_ms", quartile(0.25, |s| s.p90));
    out.insert("setup_s", stats::median(&run.setup_s));
    out.insert(
        "peak_rss_mb",
        crate::env::peak_rss_mib().unwrap_or(f64::NAN),
    );
    out.insert("allocs_per_op", t.allocs as f64 / t.ops.max(1) as f64);
    out
}

/// `{"name": {"value": v, "unit": u}, ...}` in definition order; a name
/// without a value reads 0. Non-finite values are reported as problems.
pub fn metrics_json(
    defs: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
    problems: &mut Vec<String>,
) -> Value {
    let mut out = Map::new();
    for d in defs {
        let mut v = values.get(d.name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            problems.push(format!("{} is not finite", d.name));
            v = 0.0;
        }
        out.insert(d.name, json!({"value": v, "unit": d.unit}));
    }
    Value::Object(out)
}

/// The final result line.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: Value) -> String {
    let line = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    });
    serde_json::to_string(&line).expect("result serialises")
}
