//! `paragraph` command-line tool: train, save, and apply parasitic
//! predictors on SPICE netlists.
//!
//! ```text
//! paragraph_cli generate --scale 0.3 --seed 7 --out circuits/
//!     writes the synthetic dataset as SPICE decks + ground-truth JSON
//!
//! paragraph_cli train --target CAP --epochs 40 --model cap_model.json
//!     trains a ParaGraph model on the synthetic dataset and saves it
//!
//! paragraph_cli predict --model cap_model.json --netlist my_design.sp
//!     prints per-net (or per-device) predictions for a SPICE netlist
//!
//! paragraph_cli stats --netlist my_design.sp
//!     prints circuit and graph statistics
//!
//! paragraph_cli erc --netlist my_design.sp
//!     runs electrical rule checks (floating gates, dangling nets, ...)
//!
//! paragraph_cli serve --models models/ --addr 127.0.0.1:9107
//!     serves predictions over HTTP/1.1 and the JSON-lines protocol
//!     on one port (see docs/serving.md)
//! ```
//!
//! Each subcommand accepts only the flags it reads; any other flag is
//! an error.

use std::path::{Path, PathBuf};

use paragraph::{
    build_graph, fit_norm, normalize_circuits, FitConfig, GnnKind, PreparedCircuit, SavedModel,
    Target, TargetModel,
};
use paragraph_circuitgen::{paper_dataset, DatasetConfig, Split};
use paragraph_layout::{extract, LayoutConfig};
use paragraph_netlist::{parse_spice, write_flat_spice};
use serde_json::json;

/// Flags the `serve` subcommand reads.
const SERVE_FLAGS: &[&str] = &[
    "models",
    "addr",
    "workers",
    "queue",
    "cache",
    "events",
    "slow-ms",
    "precision",
    "shards",
    "idle-ms",
    "batch-window-us",
    "trace-store",
    "trace-keep",
];

/// The flags `command` reads, or `None` for an unknown subcommand.
fn known_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "generate" => &["scale", "seed", "out"],
        "train" => &["target", "kind", "epochs", "scale", "seed", "model"],
        "predict" => &["model", "netlist"],
        "stats" | "erc" => &["netlist"],
        "serve" => SERVE_FLAGS,
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let Some(known) = known_flags(command) else {
        usage()
    };
    let flags = Flags::parse(&args[1..], known).unwrap_or_else(|e| {
        eprintln!("{command}: {e}");
        usage()
    });
    match command.as_str() {
        "generate" => generate(&flags),
        "train" => train(&flags),
        "predict" => predict(&flags),
        "stats" => stats(&flags),
        "erc" => erc(&flags),
        "serve" => serve(&flags),
        _ => usage(),
    }
    // With PARAGRAPH_TRACE=1 every span recorded above lands in a
    // Chrome-trace file; a disabled run writes nothing.
    match paragraph_obs::flush_default_trace() {
        Ok(0) => {}
        Ok(n) => {
            eprintln!(
                "wrote {n} trace events to {}",
                paragraph_obs::DEFAULT_TRACE_PATH
            );
            let dropped = paragraph_obs::dropped_spans();
            if dropped > 0 {
                eprintln!("dropped {dropped} trace events: a thread's span buffer was full");
            }
        }
        Err(e) => eprintln!("could not write trace: {e}"),
    }
    // Likewise PARAGRAPH_EVENTS=1 flushes the structured event log.
    match paragraph_obs::flush_default_events() {
        Ok(0) => {}
        Ok(n) => eprintln!(
            "wrote {n} event records to {}",
            paragraph_obs::DEFAULT_EVENTS_PATH
        ),
        Err(e) => eprintln!("could not write events: {e}"),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: paragraph_cli <generate|train|predict|stats|erc|serve> [flags]\n\
         \n\
         generate --scale <f> --seed <n> --out <dir>\n\
         train    --target <CAP|SA|DA|SP|DP|LDE1..8|RES> --kind <name>\n\
         \x20        --epochs <n> --scale <f> --seed <n> --model <file.json>\n\
         predict  --model <file.json> --netlist <file.sp>\n\
         stats    --netlist <file.sp>\n\
         erc      --netlist <file.sp>\n\
         serve    --models <dir> --addr <host:port> --workers <n>\n\
         \x20        --queue <n>           per-shard queue bound before\n\
         \x20                              overloaded / 503 shedding\n\
         \x20        --cache <n>\n\
         \x20        --events <path>       periodic event-log flush target\n\
         \x20                              (env PARAGRAPH_EVENTS_PATH)\n\
         \x20        --slow-ms <t>         slow-request threshold in ms\n\
         \x20                              (env PARAGRAPH_SLOW_MS)\n\
         \x20        --precision <f32|f16|int8>  compiled-path weight\n\
         \x20                              precision; artifact pins win\n\
         \x20                              (env PARAGRAPH_PRECISION)\n\
         \x20        --shards <n>          gateway shard count; 0 = one per\n\
         \x20                              core (env PARAGRAPH_SHARDS)\n\
         \x20        --idle-ms <t>         gateway idle-connection reclaim\n\
         \x20                              deadline (env PARAGRAPH_IDLE_MS)\n\
         \x20        --batch-window-us <t> continuous micro-batching\n\
         \x20                              admission window in microseconds,\n\
         \x20                              deadline-budget clamped; 0 = off\n\
         \x20                              (env PARAGRAPH_BATCH_WINDOW_US)\n\
         \x20        --trace-store <n>     tail-sampled per-request trace\n\
         \x20                              store; n > 1 sets the retained\n\
         \x20                              ring capacity, served live at\n\
         \x20                              /debug/traces and /debug/dashboard\n\
         \x20                              (env PARAGRAPH_TRACE_STORE)\n\
         \x20        --trace-keep <n>      keep 1-in-n unremarkable requests\n\
         \x20                              (slow/error/shed/ood always kept;\n\
         \x20                              0 = remarkable only;\n\
         \x20                              env PARAGRAPH_TRACE_KEEP)\n\
         \n\
         PARAGRAPH_TRACE=1 records spans to target/trace.json (long-running\n\
         serve also streams them to target/trace_stream.json);\n\
         PARAGRAPH_EVENTS=1 records the structured event log, one record\n\
         per served request"
    );
    std::process::exit(2)
}

struct Flags {
    entries: Vec<(String, String)>,
}

impl Flags {
    /// Parses `--flag value` pairs, accepting only the flags in `known`.
    fn parse(args: &[String], known: &[&str]) -> Result<Self, String> {
        let mut entries = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("expected a --flag, got '{arg}'"));
            };
            if !known.contains(&key) {
                return Err(format!("unknown flag --{key}"));
            }
            let Some(value) = args.next() else {
                return Err(format!("flag --{key} is missing its value"));
            };
            entries.push((key.to_owned(), value.clone()));
        }
        Ok(Self { entries })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn f64_or(&self, key: &str, default: f64) -> f64 {
        self.get(key)
            .map(|v| v.parse().unwrap_or_else(|_| usage()))
            .unwrap_or(default)
    }

    fn u64_or(&self, key: &str, default: u64) -> u64 {
        self.get(key)
            .map(|v| v.parse().unwrap_or_else(|_| usage()))
            .unwrap_or(default)
    }

    fn required(&self, key: &str) -> &str {
        self.get(key).unwrap_or_else(|| {
            eprintln!("missing required flag --{key}");
            usage()
        })
    }
}

fn parse_target(name: &str) -> Target {
    Target::all_extended()
        .into_iter()
        .find(|t| t.name().eq_ignore_ascii_case(name))
        .unwrap_or_else(|| {
            eprintln!("unknown target '{name}'");
            usage()
        })
}

fn parse_kind(name: &str) -> GnnKind {
    GnnKind::all()
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
        .unwrap_or_else(|| {
            eprintln!("unknown model kind '{name}'");
            usage()
        })
}

fn build_training_set(scale: f64, seed: u64) -> (Vec<PreparedCircuit>, paragraph::FeatureNorm) {
    eprintln!("generating synthetic training dataset (scale {scale}, seed {seed})...");
    let dataset = paper_dataset(DatasetConfig { scale, seed });
    let layout = LayoutConfig::default();
    let mut train: Vec<PreparedCircuit> = dataset
        .into_iter()
        .filter(|c| c.split == Split::Train)
        .map(|c| PreparedCircuit::new(c.name, c.circuit, &layout))
        .collect();
    let norm = fit_norm(&train);
    normalize_circuits(&mut train, &norm);
    (train, norm)
}

fn generate(flags: &Flags) {
    let scale = flags.f64_or("scale", 0.3);
    let seed = flags.u64_or("seed", 2020);
    let out = PathBuf::from(flags.get("out").unwrap_or("circuits"));
    std::fs::create_dir_all(&out).expect("create output dir");
    let layout = LayoutConfig::default();
    for dc in paper_dataset(DatasetConfig { scale, seed }) {
        let sp = out.join(format!("{}.sp", dc.name));
        std::fs::write(&sp, write_flat_spice(&dc.circuit)).expect("write spice");
        let truth = extract(&dc.circuit, &layout);
        let labels = json!({
            "circuit": dc.name,
            "split": format!("{:?}", dc.split),
            "net_cap_f": dc.circuit.nets().iter().enumerate().map(|(i, n)| {
                json!({"net": n.name, "cap": truth.net_cap[i], "res": truth.net_res[i]})
            }).collect::<Vec<_>>(),
        });
        let lj = out.join(format!("{}_truth.json", dc.name));
        std::fs::write(&lj, serde_json::to_string_pretty(&labels).expect("json"))
            .expect("write labels");
        println!("wrote {} and {}", sp.display(), lj.display());
    }
}

fn train(flags: &Flags) {
    let target = parse_target(flags.get("target").unwrap_or("CAP"));
    let kind = parse_kind(flags.get("kind").unwrap_or("ParaGraph"));
    let model_path = PathBuf::from(flags.get("model").unwrap_or("model.json"));
    if let Err(e) = prepare_model_path(&model_path) {
        eprintln!("{e}");
        std::process::exit(1)
    }
    let (train_set, norm) =
        build_training_set(flags.f64_or("scale", 0.25), flags.u64_or("seed", 2020));
    let mut fit = FitConfig::new(kind);
    fit.epochs = flags.u64_or("epochs", 40) as usize;
    eprintln!(
        "training {} model for {target} ({} epochs)...",
        kind.name(),
        fit.epochs
    );
    let (model, loss) = TargetModel::train(&train_set, target, None, fit, &norm);
    eprintln!("final loss {loss:.5}");
    std::fs::write(&model_path, SavedModel::from_model(&model).to_json()).unwrap_or_else(|e| {
        eprintln!("cannot write model to {}: {e}", model_path.display());
        std::process::exit(1)
    });
    println!("model saved to {}", model_path.display());
}

/// Creates the directory the model will be saved in, before a training
/// run that could otherwise end with nowhere to write its result.
fn prepare_model_path(path: &Path) -> Result<(), String> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot write model to {}: {e}", path.display())),
        _ => Ok(()),
    }
}

fn load_netlist(path: &str) -> paragraph_netlist::Circuit {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1)
    });
    parse_spice(&text)
        .unwrap_or_else(|e| {
            eprintln!("parse error in {path}: {e}");
            std::process::exit(1)
        })
        .flatten()
        .unwrap_or_else(|e| {
            eprintln!("flatten error in {path}: {e}");
            std::process::exit(1)
        })
}

fn predict(flags: &Flags) {
    let model_json = std::fs::read_to_string(flags.required("model")).unwrap_or_else(|e| {
        eprintln!("cannot read model: {e}");
        std::process::exit(1)
    });
    let model = SavedModel::from_json(&model_json)
        .and_then(SavedModel::into_model)
        .unwrap_or_else(|e| {
            eprintln!("cannot load model: {e}");
            std::process::exit(1)
        });
    let circuit = load_netlist(flags.required("netlist"));
    let preds = model.predict_circuit(&circuit);
    if model.target.on_nets() {
        println!("{:<24} {:>14}", "net", format!("{} pred", model.target));
        for (i, net) in circuit.nets().iter().enumerate() {
            if let Some(p) = preds[i] {
                let text = match model.target {
                    Target::Cap => format!("{:.4} fF", p * 1e15),
                    _ => format!("{:.2} ohm", p),
                };
                println!("{:<24} {:>14}", net.name, text);
            }
        }
    } else {
        println!("{:<24} {:>16}", "device", format!("{} pred", model.target));
        for (i, dev) in circuit.devices().iter().enumerate() {
            if let Some(p) = preds[i] {
                println!("{:<24} {:>16.6e}", dev.name, p);
            }
        }
    }
}

fn erc(flags: &Flags) {
    let circuit = load_netlist(flags.required("netlist"));
    let findings = paragraph_netlist::erc_check(&circuit);
    if findings.is_empty() {
        println!("erc clean: no findings");
        return;
    }
    println!("{} erc finding(s):", findings.len());
    for f in &findings {
        println!("  {}", f.describe(&circuit));
    }
    std::process::exit(1);
}

/// Flag value, falling back to an environment variable, then `default`.
/// A present-but-malformed flag aborts with usage; a malformed env var
/// silently falls through to the default.
fn u64_flag_env(flags: &Flags, key: &str, env: &str, default: u64) -> u64 {
    if let Some(v) = flags.get(key) {
        return v.parse().unwrap_or_else(|_| usage());
    }
    std::env::var(env)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `--precision` flag, falling back to `PARAGRAPH_PRECISION`, then f32.
/// Same precedence contract as [`u64_flag_env`].
fn precision_flag_env(flags: &Flags) -> paragraph::Precision {
    use paragraph::Precision;
    if let Some(v) = flags.get("precision") {
        return Precision::parse(v).unwrap_or_else(|| {
            eprintln!("--precision expects f32|f16|int8, got '{v}'");
            usage()
        });
    }
    std::env::var("PARAGRAPH_PRECISION")
        .ok()
        .and_then(|v| Precision::parse(&v))
        .unwrap_or(Precision::F32)
}

fn serve(flags: &Flags) {
    use paragraph_serve::{Gateway, GatewayConfig, ModelRegistry, ServiceConfig};
    use std::sync::Arc;
    use std::time::Duration;

    let models_dir = flags.required("models");
    let addr = flags.get("addr").unwrap_or("127.0.0.1:9107");
    let precision = precision_flag_env(flags);
    // The process-wide default governs any model created outside the
    // registry; the registry stamps the setting onto every loaded model
    // so reloads keep the choice (artifact precision pins win over the
    // registry-wide setting).
    paragraph::set_precision_default(precision);
    let registry = match ModelRegistry::open_with(models_dir, Some(precision)) {
        Ok(r) => Arc::new(r),
        Err(e) => {
            eprintln!("cannot load models from {models_dir}: {e}");
            std::process::exit(1)
        }
    };
    let slow_ms = u64_flag_env(flags, "slow-ms", "PARAGRAPH_SLOW_MS", 500);
    let events_path = flags
        .get("events")
        .map(str::to_owned)
        .or_else(|| std::env::var("PARAGRAPH_EVENTS_PATH").ok());
    let batch_window_us = u64_flag_env(flags, "batch-window-us", "PARAGRAPH_BATCH_WINDOW_US", 0);
    // Tail-sampled trace store: `--trace-store n` switches it on (n > 1
    // also sets the retained-ring capacity); a non-numeric
    // PARAGRAPH_TRACE_STORE like "on" still enables it through
    // `store_enabled`'s own env fallback.
    let trace_store_flag = u64_flag_env(flags, "trace-store", "PARAGRAPH_TRACE_STORE", 0);
    if trace_store_flag > 0 {
        paragraph_obs::set_store_enabled(true);
        if trace_store_flag > 1 {
            paragraph_obs::trace_store().set_capacity(trace_store_flag as usize);
        }
    }
    if paragraph_obs::store_enabled() {
        let trace_keep = u64_flag_env(
            flags,
            "trace-keep",
            "PARAGRAPH_TRACE_KEEP",
            paragraph_obs::DEFAULT_KEEP_ONE_IN,
        );
        let store = paragraph_obs::trace_store();
        store.set_keep_one_in(trace_keep);
        // The store's own slow cutoff tracks the event log's, so a
        // request logged slow is also always retained.
        store.set_slow_threshold_us(slow_ms as f64 * 1000.0);
        eprintln!(
            "trace store on: keeping slow/error/shed/ood requests plus 1/{trace_keep} sampled, \
             serving /debug/traces on the gateway"
        );
    }
    let config = ServiceConfig {
        workers: flags.u64_or("workers", 4).max(1) as usize,
        queue_capacity: flags.u64_or("queue", 64).max(1) as usize,
        cache_capacity: flags.u64_or("cache", 256) as usize,
        slow_threshold: Duration::from_millis(slow_ms),
        batch_window: Duration::from_micros(batch_window_us),
        ..ServiceConfig::default()
    };
    let snapshot = registry.current();
    eprintln!(
        "loaded {} model(s): [{}]  (precision {})",
        snapshot.models.len(),
        snapshot.keys().join(", "),
        precision.name()
    );
    if paragraph_obs::events_enabled() {
        eprintln!(
            "event log on: one record per request, slow threshold {slow_ms} ms{}",
            events_path
                .as_deref()
                .map(|p| format!(", flushing to {p}"))
                .unwrap_or_default()
        );
    }
    // Periodically flush buffered event records so a long-running server
    // doesn't hold (or drop) them until shutdown. Harmless when the
    // event log is disabled: there is nothing to write.
    if let Some(path) = events_path {
        let path = PathBuf::from(path);
        std::thread::Builder::new()
            .name("event-flusher".into())
            .spawn(move || loop {
                std::thread::sleep(Duration::from_secs(5));
                match paragraph_obs::write_events(&path) {
                    Ok(_) => {}
                    Err(e) => {
                        eprintln!("event-log flush to {} failed: {e}", path.display());
                        return;
                    }
                }
            })
            .expect("spawn event flusher");
    }
    // With tracing on, stream completed spans to an appendable
    // Chrome-trace array. Without this, spans buffered by worker
    // threads would only surface at process exit — which a
    // long-running server never reaches — and a crash would lose them
    // all. Each thread buffers at most SPAN_BUFFER_CAPACITY spans and
    // drops the rest, so the drain runs every 100 ms: a thread loses
    // spans only above ~40k spans/s, while a serve thread records
    // ~1.7k/s under closed-loop load (docs/observability.md).
    if paragraph_obs::enabled() {
        std::thread::Builder::new()
            .name("trace-flusher".into())
            .spawn(move || loop {
                std::thread::sleep(Duration::from_millis(100));
                match paragraph_obs::append_trace_events(paragraph_obs::DEFAULT_TRACE_STREAM_PATH) {
                    Ok(_) => {}
                    Err(e) => {
                        eprintln!(
                            "trace flush to {} failed: {e}",
                            paragraph_obs::DEFAULT_TRACE_STREAM_PATH
                        );
                        return;
                    }
                }
            })
            .expect("spawn trace flusher");
    }
    // The sharded gateway: HTTP/1.1 keep-alive and JSON-lines with
    // protocol sniffing, N thread-per-core shards.
    let gateway_config = GatewayConfig {
        shards: u64_flag_env(flags, "shards", "PARAGRAPH_SHARDS", 0) as usize,
        service: config,
        idle_deadline: Duration::from_millis(
            u64_flag_env(flags, "idle-ms", "PARAGRAPH_IDLE_MS", 60_000).max(1),
        ),
        ..GatewayConfig::default()
    };
    let gateway = match Gateway::bind(addr, registry, gateway_config) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            std::process::exit(1)
        }
    };
    println!(
        "serving on {} ({} shard(s); HTTP/1.1 + JSON lines; see docs/serving.md)",
        gateway.local_addr(),
        gateway.shard_count()
    );
    // The gateway's threads serve until the process is killed.
    let _handle = gateway.spawn();
    loop {
        std::thread::park();
    }
}

fn stats(flags: &Flags) {
    let circuit = load_netlist(flags.required("netlist"));
    let k = circuit.kind_counts();
    let cg = build_graph(&circuit);
    println!("circuit: {}", circuit.name);
    println!(
        "  nets {} (signal {})   devices {}",
        circuit.num_nets(),
        k.net,
        circuit.num_devices()
    );
    println!(
        "  tran {}  tran_th {}  res {}  cap {}  bjt {}  dio {}",
        k.tran, k.tran_th, k.res, k.cap, k.bjt, k.dio
    );
    println!(
        "graph: {} nodes, {} directed edges over {} edge types",
        cg.graph.num_nodes(),
        cg.graph.num_edges(),
        cg.graph.num_edge_types()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn flags_a_subcommand_does_not_read_are_rejected() {
        let serve = known_flags("serve").unwrap();
        let flags = Flags::parse(&args(&["--workers", "8", "--shards", "2"]), serve).unwrap();
        assert_eq!(flags.get("workers"), Some("8"));
        assert_eq!(flags.get("shards"), Some("2"));
        for (command, flag) in [
            ("serve", "--wokers"),
            ("serve", "--executor"),
            ("predict", "--epochs"),
            ("stats", "--model"),
        ] {
            let known = known_flags(command).unwrap();
            let err = Flags::parse(&args(&[flag, "1"]), known).err();
            assert_eq!(
                err,
                Some(format!("unknown flag {flag}")),
                "{command} {flag}"
            );
        }
        assert!(Flags::parse(&args(&["--netlist"]), known_flags("erc").unwrap()).is_err());
        assert!(Flags::parse(&args(&["netlist", "x"]), known_flags("erc").unwrap()).is_err());
        assert!(known_flags("frobnicate").is_none());
    }

    #[test]
    fn model_directory_is_made_before_training() {
        let root = std::env::temp_dir().join(format!("paragraph-cli-model-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        prepare_model_path(&root.join("a/b/x.json")).unwrap();
        assert!(root.join("a/b").is_dir());
        prepare_model_path(Path::new("x.json")).expect("a bare file name needs no directory");
        // A file in the way of the directory is reported, not a panic.
        std::fs::write(root.join("file"), "").unwrap();
        let blocked = root.join("file/x.json");
        let err = prepare_model_path(&blocked).unwrap_err();
        let prefix = format!("cannot write model to {}: ", blocked.display());
        assert!(err.starts_with(&prefix), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
