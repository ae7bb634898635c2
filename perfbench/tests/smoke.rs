//! Smoke run: a few ops of every workload, traced, through the library
//! entry point the binary uses. Every answer must check out, every
//! metric name must come out with a finite value, and every per-layer
//! metric must be measured by some workload.

use std::collections::BTreeSet;

use perfbench::report::{self, END_TO_END, PER_LAYER};
use perfbench::{Plan, RunCtx, Workload};

#[test]
fn every_workload_checks_out_and_emits_every_metric() {
    let work = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let mut measured = BTreeSet::new();
    for workload in Workload::ALL {
        let name = workload.name();
        let ctx = RunCtx {
            workload,
            seed: 7,
            plan: Plan::smoke(),
            trace: true,
            work: work.join(name),
        };
        let run = perfbench::run(&ctx).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(run.problems.is_empty(), "{name}: {:?}", run.problems);
        assert_eq!(run.timed.failed, 0, "{name}");
        assert!(
            run.timed.ops >= ctx.plan.ops,
            "{name}: {} ops",
            run.timed.ops
        );
        assert!(run.checked > 0, "{name}: no answer was checked");
        let shape = &run.shape;
        assert!(
            shape.nodes > 0.0 && shape.edges > 0.0 && shape.edge_types > 0.0,
            "{name}: {shape:?}"
        );

        let mut problems = Vec::new();
        let e2e = report::end_to_end(&run, ctx.plan.segments);
        let e2e = report::metrics_json(&END_TO_END, &e2e, &mut problems);
        let layers = report::metrics_json(&PER_LAYER, &run.layers, &mut problems);
        assert!(problems.is_empty(), "{name}: {problems:?}");
        for d in END_TO_END {
            assert_eq!(e2e[d.name]["unit"].as_str(), Some(d.unit));
            let v = e2e[d.name]["value"].as_f64().expect("numeric");
            assert!(v > 0.0, "{name}: {} = {v}", d.name);
        }
        for d in PER_LAYER {
            assert_eq!(layers[d.name]["unit"].as_str(), Some(d.unit), "{name}");
        }
        for layer in run.layers.keys() {
            assert!(
                report::per_layer(layer).is_some(),
                "{name}: unknown metric {layer}"
            );
            measured.insert(*layer);
        }

        let stats = run.service;
        match workload {
            Workload::EnsembleMiss => assert_eq!(stats.unwrap().cache_hit_ratio, 0.0),
            Workload::EnsembleHit => assert_eq!(stats.unwrap().cache_hit_ratio, 1.0),
            Workload::Int8Burst8 => assert!(stats.unwrap().batch_size_mean > 1.0),
            Workload::TrainStep => assert!(stats.is_none()),
        }
        if workload == Workload::EnsembleMiss {
            // The named stages and the remainder add up to the total.
            let l = &run.layers;
            let parts: f64 = [
                "serve.request_parse_us",
                "netlist.parse_us",
                "serve.drift_us",
                "serve.cache_key_us",
                "core.graph_build_us",
                "core.predict_graph_us",
                "core.select_us",
                "serve.unattributed_us",
            ]
            .iter()
            .map(|k| l[k])
            .sum();
            let total = l["serve.handle_line_us"];
            assert!((parts - total).abs() <= 1e-6 * total, "{parts} vs {total}");
        }
    }
    for d in PER_LAYER {
        assert!(
            measured.contains(d.name),
            "{} is measured by no workload",
            d.name
        );
    }
    let _ = std::fs::remove_dir_all(&work);
}
