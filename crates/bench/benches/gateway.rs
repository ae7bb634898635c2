//! Criterion bench: end-to-end throughput of the sharded gateway over
//! real TCP — keep-alive JSON-lines clients against 1, 2, and
//! all-cores shard counts.
//!
//! Besides the criterion timings, a machine-readable JSON summary
//! (requests/second plus p50/p95/p99 latency per configuration) is
//! printed to stdout and written to `target/gateway_bench.json`,
//! unless the harness runs in `--test` mode.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use paragraph::prelude::*;
use paragraph_layout::LayoutConfig;
use paragraph_netlist::parse_spice;
use paragraph_serve::{
    Gateway, GatewayConfig, GatewayHandle, LoadedModels, ModelRegistry, ServiceConfig,
};
use serde_json::json;

const TRAIN_NETLIST: &str = "mp o i vdd vdd pch\nmn o i vss vss nch\n.end\n";
const REQUEST_NETLIST: &str =
    "mp z a vdd vdd pch nf=2\nmn z a vss vss nch\nmp2 y z vdd vdd pch\nmn2 y z vss vss nch\n.end\n";
const CLIENTS: usize = 8;

fn trained_members() -> Vec<(String, TargetModel)> {
    let circuit = parse_spice(TRAIN_NETLIST).unwrap().flatten().unwrap();
    let mut train = vec![PreparedCircuit::new(
        "seed",
        circuit,
        &LayoutConfig::default(),
    )];
    let norm = fit_norm(&train);
    normalize_circuits(&mut train, &norm);
    [("cap_1f", 1e-15), ("cap_10f", 10e-15)]
        .into_iter()
        .map(|(name, mv)| {
            let mut fit = FitConfig::quick(GnnKind::Gcn);
            fit.epochs = 2;
            fit.embed_dim = 4;
            fit.layers = 1;
            let model = TargetModel::train(&train, Target::Cap, Some(mv), fit, &norm).0;
            (name.to_owned(), model)
        })
        .collect()
}

fn registry() -> Arc<ModelRegistry> {
    let snapshot = LoadedModels::from_models(trained_members()).unwrap();
    Arc::new(ModelRegistry::from_snapshot(snapshot))
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 128,
        cache_capacity: 64,
        ..ServiceConfig::default()
    }
}

fn start_gateway(shards: usize) -> GatewayHandle {
    let config = GatewayConfig {
        shards,
        service: service_config(),
        ..GatewayConfig::default()
    };
    Gateway::bind("127.0.0.1:0", registry(), config)
        .unwrap()
        .spawn()
}

fn predict_line() -> String {
    format!(
        r#"{{"op": "predict", "id": 1, "netlist": "{}"}}{}"#,
        REQUEST_NETLIST.replace('\n', "\\n"),
        "\n"
    )
}

struct LineClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl LineClient {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Self {
            writer: stream,
            reader,
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).expect("write");
        let mut response = String::new();
        let n = self.reader.read_line(&mut response).expect("read");
        assert!(n > 0, "server dropped the connection");
        response
    }
}

fn bench_gateway(c: &mut Criterion) {
    let line = predict_line();
    let mut group = c.benchmark_group("gateway");
    group.sample_size(20);

    // Cache-hit round trip over one keep-alive connection: the
    // per-request floor of the evented path (sniff, parse, submit,
    // poll, encode, flush).
    let handle = start_gateway(1);
    let mut client = LineClient::connect(handle.addr());
    let warm = client.roundtrip(&line);
    assert!(warm.contains("\"ok\":true"), "warmup failed: {warm}");
    group.bench_function("cache_hit_roundtrip_1shard", |b| {
        b.iter(|| client.roundtrip(std::hint::black_box(&line)))
    });
    drop(client);
    handle.shutdown();
    group.finish();
}

/// `CLIENTS` keep-alive connections hammer `addr` for `seconds`;
/// returns total served plus merged per-request latencies in µs.
fn measure(addr: SocketAddr, seconds: f64) -> (u64, Vec<u64>) {
    let line = predict_line();
    let lat: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let line = &line;
                scope.spawn(move || {
                    let mut client = LineClient::connect(addr);
                    // Warm this connection (and the shard cache).
                    let first = client.roundtrip(line);
                    assert!(first.contains("\"ok\":true"), "{first}");
                    let mut lat = Vec::with_capacity(4096);
                    let start = Instant::now();
                    while start.elapsed().as_secs_f64() < seconds {
                        let t = Instant::now();
                        let response = client.roundtrip(line);
                        lat.push(u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX));
                        debug_assert!(response.contains("\"ok\":true"), "{response}");
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut merged: Vec<u64> = lat.into_iter().flatten().collect();
    merged.sort_unstable();
    (merged.len() as u64, merged)
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn json_summary() {
    let window = 1.0;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut shard_counts = vec![1_usize, 2];
    if !shard_counts.contains(&cores) {
        shard_counts.push(cores);
    }

    let mut configs = Vec::new();

    for &shards in &shard_counts {
        let handle = start_gateway(shards);
        let (served, lat) = measure(handle.addr(), window);
        handle.shutdown();
        configs.push(json!({
            "config": format!("gateway_{shards}_shards"),
            "shards": shards,
            "requests_served": served,
            "requests_per_second": served as f64 / window,
            "latency_us": {
                "p50": quantile(&lat, 0.50),
                "p95": quantile(&lat, 0.95),
                "p99": quantile(&lat, 0.99),
            },
        }));
    }

    let results = json!({
        "bench": "gateway",
        "window_seconds": window,
        "clients": CLIENTS,
        "available_parallelism": cores,
        "configs": configs,
    });
    let text = serde_json::to_string_pretty(&results).expect("serialisable");
    println!("{text}");
    let _ = std::fs::create_dir_all("target");
    let _ = std::fs::write("target/gateway_bench.json", &text);
}

criterion_group!(benches, bench_gateway);

fn main() {
    benches();
    if !std::env::args().any(|a| a == "--test") {
        json_summary();
    }
}
