//! The gateway shard sleeps in `poll(2)` until a socket, a deadline or a
//! wake needs it: an idle keep-alive connection costs it no wake-ups,
//! shutdown ends its sleep at once, and a connection reset while its
//! request is in flight still has that request finalised. Context
//! switches are read from `/proc/self/task/*/status`, so this binary is
//! Linux-only. Every gateway names its first shard `gateway-shard-0`, so
//! the tests run one at a time under one lock.
#![cfg(target_os = "linux")]

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use common::{test_service_config, LineClient};
use paragraph_serve::{Gateway, GatewayConfig, GatewayHandle, LoadedModels, ModelRegistry};

/// Serialises the tests: each reads the counters of the one thread named
/// `gateway-shard-0`.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A one-shard gateway with no models: `health` and `stats` need none.
fn start() -> GatewayHandle {
    let registry = Arc::new(ModelRegistry::from_snapshot(LoadedModels::default()));
    let config = GatewayConfig {
        shards: 1,
        service: test_service_config(),
        ..GatewayConfig::default()
    };
    Gateway::bind("127.0.0.1:0", registry, config)
        .expect("bind")
        .spawn()
}

/// Voluntary plus involuntary context switches of `gateway-shard-0`.
fn shard_switches() -> u64 {
    for task in std::fs::read_dir("/proc/self/task").expect("list tasks") {
        let path = task.expect("task entry").path().join("status");
        let Ok(status) = std::fs::read_to_string(path) else {
            continue; // the thread exited meanwhile
        };
        if status.lines().next() != Some("Name:\tgateway-shard-0") {
            continue;
        }
        // `voluntary_ctxt_switches:` and `nonvoluntary_ctxt_switches:`.
        return status
            .lines()
            .filter_map(|line| line.split_once(':'))
            .filter(|(key, _)| key.ends_with("voluntary_ctxt_switches"))
            .map(|(_, n)| n.trim().parse::<u64>().expect("numeric switch count"))
            .sum();
    }
    panic!("no gateway-shard-0 thread");
}

/// Forty lines that flatten to 4^8 = 65,536 devices: a `stats` job on
/// it runs for tens of milliseconds or more, long after a reset lands.
fn deep_netlist() -> String {
    let mut netlist = String::from(".subckt l0 a b\nmn a b vss vss nch\n.ends\n");
    for level in 1..=8 {
        let cell = format!("l{}", level - 1);
        netlist += &format!(
            ".subckt l{level} a b\nx1 a n1 {cell}\nx2 n1 b {cell}\nx3 a n2 {cell}\nx4 n2 b {cell}\n.ends\n"
        );
    }
    netlist + "x0 o i l8\n.end\n"
}

/// `stats` requests the shard has finalised (counted in its metrics).
fn stats_requests(handle: &GatewayHandle) -> u64 {
    let service = &handle.services()[0];
    let snapshot = service.metrics().snapshot(service.cache());
    snapshot["endpoints"]
        .as_array()
        .expect("endpoints array")
        .iter()
        .find(|e| e["op"].as_str() == Some("stats"))
        .and_then(|e| e["requests"].as_u64())
        .expect("stats entry")
}

#[test]
fn idle_keep_alive_connection_does_not_wake_the_shard() {
    let _serial = serial();
    let handle = start();
    let mut client = LineClient::connect(handle.addr());
    let health = client.roundtrip(r#"{"op": "health", "id": 1}"#);
    assert_eq!(health["ok"].as_bool(), Some(true), "{health:?}");
    // Let the shard finish the round that answered and fall asleep.
    std::thread::sleep(Duration::from_millis(50));
    let before = shard_switches();
    std::thread::sleep(Duration::from_millis(300));
    let woke = shard_switches() - before;
    assert!(
        woke <= 10,
        "idle shard switched context {woke} times in 300 ms"
    );
    // The connection is still open and served.
    let health = client.roundtrip(r#"{"op": "health", "id": 2}"#);
    assert_eq!(health["ok"].as_bool(), Some(true), "{health:?}");
    handle.shutdown();
}

#[test]
fn shutdown_returns_promptly_with_and_without_connections() {
    let _serial = serial();
    let handle = start();
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    handle.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "empty shutdown took {took:?}"
    );

    let handle = start();
    let mut clients: Vec<LineClient> = (0..3).map(|_| LineClient::connect(handle.addr())).collect();
    for (id, client) in (0..).zip(&mut clients) {
        let health = client.roundtrip(&format!(r#"{{"op": "health", "id": {id}}}"#));
        assert_eq!(health["ok"].as_bool(), Some(true), "{health:?}");
    }
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    handle.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "shutdown with idle connections took {took:?}"
    );
}

#[test]
fn reset_connection_still_finalises_its_call() {
    let _serial = serial();
    let handle = start();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    // One write, so one read takes both lines: `health` is answered
    // inline, then `stats` goes to a worker and stays in flight.
    let netlist = deep_netlist().replace('\n', "\\n");
    let lines = format!(
        "{{\"op\": \"health\", \"id\": 1}}\n{{\"op\": \"stats\", \"id\": 2, \"netlist\": \"{netlist}\"}}\n"
    );
    stream.write_all(lines.as_bytes()).expect("send");
    // Closing with the `health` answer unread makes the kernel send a
    // reset, which `poll` reports while `stats` is still running.
    stream.peek(&mut [0_u8; 1]).expect("health answer");
    drop(stream);
    let deadline = Instant::now() + Duration::from_secs(30);
    while stats_requests(&handle) == 0 {
        assert!(
            Instant::now() < deadline,
            "the reset connection's stats request was never finalised"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown();
}
