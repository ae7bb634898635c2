//! Sharded evented network front end.
//!
//! The [`Gateway`] binds one listener and runs N thread-per-core
//! shards. An acceptor thread assigns incoming connections round-robin;
//! each shard owns a private [`Service`] (its own worker pool, LRU
//! prediction cache, metrics registry, and drift monitor) over the
//! shared [`ModelRegistry`], and runs a readiness loop over its
//! nonblocking sockets — no thread per connection, so tens of thousands
//! of keep-alive connections cost two threads per shard plus the
//! acceptor. The loop sleeps in `poll(2)` until a socket is ready, a
//! deadline falls, or its wake descriptor is written: by its workers as
//! each job ends, by the acceptor as it hands over a connection, and by
//! the [`GatewayHandle`] at shutdown.
//!
//! Every connection speaks either HTTP/1.1 (`POST /predict`,
//! `GET /health|/metrics|/metrics.json|/registry`, plus the live ops
//! surface `GET /debug/traces[/<req-id>]|/debug/dashboard`) or the
//! JSON-lines protocol; the first non-whitespace byte decides (`{` can
//! never start an HTTP method). Both protocols funnel into the same
//! [`Service::submit_line`] path, so response payloads are bit-identical
//! across protocols and shard counts.
//!
//! Load shedding is per shard: when a shard's bounded queue is full the
//! service answers `overloaded`, which the HTTP encoding maps to
//! `503` + `Retry-After: 1`. A `reload` arriving on any shard refreshes
//! every sibling's cache and drift baseline through
//! [`Service::set_reload_hook`], so no shard serves stale predictions
//! after a weight swap.

mod conn;
mod debug;
mod http;
mod poll;

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde_json::{json, Value};

use crate::protocol::Op;
use crate::registry::ModelRegistry;
use crate::service::{Service, ServiceConfig};
use conn::Conn;
pub(crate) use poll::Waker;
use poll::{PollFd, POLLIN};

/// Gateway tuning knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Shard (event loop) count; `0` uses the machine's available
    /// parallelism.
    pub shards: usize,
    /// Per-shard service configuration: each shard gets its own worker
    /// pool, bounded queue, and cache of exactly this shape.
    pub service: ServiceConfig,
    /// Largest accepted HTTP head (request line + headers); beyond it
    /// the request is answered `431` and the connection closed.
    pub max_header: usize,
    /// Largest accepted HTTP body (`Content-Length`); beyond it `413`.
    pub max_body: usize,
    /// Largest accepted JSON-lines request line, not counting its `\n`
    /// or `\r\n`; beyond it, whether or not the newline has arrived, a
    /// `bad_request` error line, then the connection closes.
    pub max_line: usize,
    /// How long a partially-received request may sit without progress
    /// before the connection is timed out (`408` / `deadline_exceeded`).
    pub read_deadline: Duration,
    /// How long a fully-idle keep-alive connection is retained.
    pub idle_deadline: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            shards: 0,
            service: ServiceConfig::default(),
            max_header: 16 * 1024,
            max_body: 4 * 1024 * 1024,
            max_line: 4 * 1024 * 1024,
            read_deadline: Duration::from_secs(10),
            idle_deadline: Duration::from_secs(60),
        }
    }
}

/// Everything a shard's event loop needs.
pub(crate) struct ShardCtx {
    /// This shard's service.
    pub(crate) service: Arc<Service>,
    /// Every shard's service, for aggregated `/metrics` rendering.
    pub(crate) services: Arc<Vec<Arc<Service>>>,
    pub(crate) config: Arc<GatewayConfig>,
}

/// A bound, not-yet-running gateway.
pub struct Gateway {
    listener: TcpListener,
    services: Arc<Vec<Arc<Service>>>,
    config: Arc<GatewayConfig>,
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("shards", &self.services.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Gateway {
    /// Binds `addr` and builds one [`Service`] per shard over the shared
    /// `registry`, wiring reload hooks so a `reload` on any shard
    /// refreshes every sibling's cache and drift baseline, and giving
    /// each service its shard's wake descriptor.
    ///
    /// # Errors
    ///
    /// Propagates the bind error, or the failure to open a wake
    /// descriptor.
    pub fn bind(
        addr: &str,
        registry: Arc<ModelRegistry>,
        config: GatewayConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let shards = if config.shards == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            config.shards
        };
        let services = (0..shards)
            .map(|i| {
                // Stamp each service with its shard id so trace-store
                // span contexts and `/debug` payloads can attribute
                // requests to the shard that served them.
                let waker = Waker::new()?;
                let mut service_config = config.service.clone();
                service_config.shard = Some(u32::try_from(i).unwrap_or(u32::MAX));
                let service = Service::new(registry.clone(), service_config);
                service.set_waker(waker);
                Ok(Arc::new(service))
            })
            .collect::<io::Result<Vec<_>>>()?;
        for (i, service) in services.iter().enumerate() {
            // Weak siblings: the hook must not keep a reference cycle
            // alive through the services it refreshes.
            let siblings: Vec<Weak<Service>> = services
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, s)| Arc::downgrade(s))
                .collect();
            service.set_reload_hook(move || {
                for sibling in &siblings {
                    if let Some(s) = sibling.upgrade() {
                        s.refresh_after_reload();
                    }
                }
            });
        }
        Ok(Self {
            listener,
            services: Arc::new(services),
            config: Arc::new(config),
        })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Panics
    ///
    /// Panics if the socket has no local address (not expected after a
    /// successful bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// Number of shards this gateway runs.
    pub fn shard_count(&self) -> usize {
        self.services.len()
    }

    /// Starts the acceptor and shard threads, returning a handle for
    /// shutdown and per-shard introspection.
    pub fn spawn(self) -> GatewayHandle {
        let addr = self.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::with_capacity(self.services.len() + 1);
        let mut senders = Vec::with_capacity(self.services.len());
        for (i, service) in self.services.iter().enumerate() {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            senders.push(tx);
            let ctx = ShardCtx {
                service: service.clone(),
                services: self.services.clone(),
                config: self.config.clone(),
            };
            let stop = stop.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("gateway-shard-{i}"))
                    .spawn(move || shard_loop(&rx, &ctx, &stop))
                    .expect("spawn shard thread"),
            );
        }
        let listener = self.listener;
        let accept_stop = stop.clone();
        let services = self.services.clone();
        threads.push(
            std::thread::Builder::new()
                .name("gateway-accept".into())
                .spawn(move || {
                    let mut next = 0_usize;
                    for incoming in listener.incoming() {
                        if accept_stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = incoming else { continue };
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        // Accept-time round-robin pins the connection to
                        // one shard for its whole life.
                        let shard = next % senders.len();
                        if senders[shard].send(stream).is_err() {
                            break;
                        }
                        wake(&services[shard]);
                        next = next.wrapping_add(1);
                    }
                })
                .expect("spawn acceptor thread"),
        );
        GatewayHandle {
            addr,
            stop,
            services: self.services,
            threads,
        }
    }
}

/// Handle to a running gateway; dropping it (or calling
/// [`GatewayHandle::shutdown`]) stops every thread.
pub struct GatewayHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    services: Arc<Vec<Arc<Service>>>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for GatewayHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayHandle")
            .field("addr", &self.addr)
            .field("shards", &self.services.len())
            .finish_non_exhaustive()
    }
}

impl GatewayHandle {
    /// Address the gateway listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The per-shard services, in shard order (tests use these to check
    /// per-shard counters against aggregate totals).
    pub fn services(&self) -> &[Arc<Service>] {
        &self.services
    }

    /// Stops the acceptor and every shard, joining their threads. Open
    /// connections are dropped.
    pub fn shutdown(mut self) {
        self.stop_all();
    }

    fn stop_all(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for service in self.services.iter() {
            wake(service);
        }
        // Poke the listener so a blocking accept observes the flag.
        let _ = TcpStream::connect(self.addr);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for GatewayHandle {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.stop_all();
        }
    }
}

/// One shard's event loop. Each round drains the wake descriptor when
/// the last `poll` reported it, checks `stop`, takes newly assigned
/// connections, ticks every connection that can move, then sleeps in
/// `poll` until a socket is ready, the earliest read or idle deadline,
/// or a wake. Draining first means a wake that lands during the round
/// ends the next `poll` at once, so no `stop`, connection or worker
/// reply is missed.
fn shard_loop(rx: &Receiver<TcpStream>, ctx: &ShardCtx, stop: &AtomicBool) {
    let waker = ctx
        .service
        .waker()
        .expect("Gateway::bind gives every shard a waker");
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds = vec![PollFd::new(waker.fd(), POLLIN)];
    loop {
        if fds[0].revents != 0 {
            waker.drain();
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        conns.extend(rx.try_iter().map(Conn::new));
        let now = Instant::now();
        conns.retain_mut(|conn| !conn.due(now, &ctx.config) || conn.tick(ctx));
        fds.truncate(1);
        fds.extend(conns.iter().map(Conn::poll_fd));
        let deadline = conns.iter().filter_map(|c| c.deadline(&ctx.config)).min();
        poll::wait(&mut fds, deadline);
        for (conn, fd) in conns.iter_mut().zip(&fds[1..]) {
            conn.revents = fd.revents;
        }
    }
}

/// Ends the `poll` of `service`'s shard.
fn wake(service: &Service) {
    if let Some(waker) = service.waker() {
        waker.wake();
    }
}

/// Aggregated Prometheus exposition: shard 0's families keep their
/// `# TYPE` lines; later shards contribute sample lines only (every
/// sample carries its `shard` label), and the process-global registry
/// is appended once.
pub(crate) fn aggregate_prometheus(services: &[Arc<Service>]) -> String {
    let mut out = String::new();
    for (i, service) in services.iter().enumerate() {
        let text = service.metrics().render_shard(service.cache(), i);
        if i == 0 {
            out.push_str(&text);
        } else {
            for line in text.lines() {
                if !line.starts_with('#') {
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
    }
    out.push_str(&paragraph_obs::global().render_prometheus());
    out
}

/// Aggregated JSON snapshot: per-shard snapshots plus summed totals
/// (per-op requests/errors, bad lines, queue depth, cache counters).
pub(crate) fn aggregate_snapshot(services: &[Arc<Service>]) -> Value {
    let shards: Vec<Value> = services
        .iter()
        .map(|s| s.metrics().snapshot(s.cache()))
        .collect();
    let sum_u64 =
        |pick: &dyn Fn(&Value) -> Option<u64>| -> u64 { shards.iter().filter_map(pick).sum() };
    let endpoints: Vec<Value> = Op::ALL
        .iter()
        .map(|&op| {
            let i = op.index();
            json!({
                "op": op.name(),
                "requests": sum_u64(&|s| s["endpoints"][i]["requests"].as_u64()),
                "errors": sum_u64(&|s| s["endpoints"][i]["errors"].as_u64()),
            })
        })
        .collect();
    let requests: u64 = endpoints
        .iter()
        .filter_map(|e| e["requests"].as_u64())
        .sum();
    let errors: u64 = endpoints.iter().filter_map(|e| e["errors"].as_u64()).sum();
    let queue_depth: f64 = shards
        .iter()
        .filter_map(|s| s["queue_depth"].as_f64())
        .sum();
    json!({
        "shard_count": services.len(),
        "totals": {
            "requests": requests,
            "errors": errors,
            "bad_lines": sum_u64(&|s| s["bad_lines"].as_u64()),
            "queue_depth": queue_depth as i64,
            "endpoints": endpoints,
            "cache": {
                "hits": sum_u64(&|s| s["cache"]["hits"].as_u64()),
                "misses": sum_u64(&|s| s["cache"]["misses"].as_u64()),
                "entries": sum_u64(&|s| s["cache"]["entries"].as_u64()),
            },
        },
        "shards": shards,
    })
}

/// The `GET /registry` payload: model keys and ensemble assembly from
/// the shared registry's current snapshot.
pub(crate) fn registry_snapshot(service: &Service) -> Value {
    let snapshot = service.registry().current();
    json!({
        "models": snapshot.keys(),
        "ensemble_members": snapshot.ensemble_members.clone(),
        "ensemble": snapshot.ensemble.is_some(),
    })
}
