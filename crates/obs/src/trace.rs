//! Hierarchical spans and the per-thread trace-event buffers behind
//! them.
//!
//! [`span!`](crate::span!) opens an RAII guard; when tracing is enabled
//! the guard's drop records one complete ("X" phase) event — name,
//! monotonic start timestamp, duration, thread id, nesting depth, and
//! up to [`MAX_SPAN_ARGS`] typed key/value args — into a buffer owned by
//! the recording thread. Buffers register themselves in a process-wide
//! list the first time a thread records, so [`take_events`] /
//! [`write_trace`] can drain every thread's events (including threads
//! that have since exited) without any synchronisation on the hot
//! recording path beyond the buffer's own uncontended mutex.
//! Args stay typed until a trace is rendered and each buffer is
//! allocated once, so recording never allocates; a full buffer drops
//! and counts ([`dropped_spans`]).
//!
//! The output of [`write_trace`] is Chrome-trace-compatible JSON: load
//! `target/trace.json` in `chrome://tracing` or <https://ui.perfetto.dev>.

use std::cell::Cell;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime};

/// Most key/value args one span carries (`matmul`'s `m, k, n`).
pub const MAX_SPAN_ARGS: usize = 3;

/// Events one thread buffers between drains, allocated on its first span;
/// spans recorded while it is full are dropped and counted.
pub const SPAN_BUFFER_CAPACITY: usize = 4096;

/// A span's `(key, value)` args in call-site order; unused slots `None`.
pub type SpanArgs = [Option<(&'static str, ArgValue)>; MAX_SPAN_ARGS];

/// One span argument value, kept typed until the trace is rendered.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// A count or size (call sites pass `usize`).
    U64(u64),
    /// A measurement.
    F64(f64),
    /// A flag.
    Bool(bool),
    /// A static label.
    Str(&'static str),
    /// Owned text: only request ids and model keys (serve spans).
    Text(String),
}

impl From<&usize> for ArgValue {
    fn from(v: &usize) -> Self {
        ArgValue::U64(*v as u64)
    }
}

impl From<&f64> for ArgValue {
    fn from(v: &f64) -> Self {
        ArgValue::F64(*v)
    }
}

impl From<&bool> for ArgValue {
    fn from(v: &bool) -> Self {
        ArgValue::Bool(*v)
    }
}

impl From<&&'static str> for ArgValue {
    fn from(v: &&'static str) -> Self {
        ArgValue::Str(v)
    }
}

impl From<&String> for ArgValue {
    fn from(v: &String) -> Self {
        ArgValue::Text(v.clone())
    }
}

impl std::fmt::Display for ArgValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgValue::U64(v) => v.fmt(f),
            ArgValue::F64(v) => v.fmt(f),
            ArgValue::Bool(v) => v.fmt(f),
            ArgValue::Str(v) => v.fmt(f),
            ArgValue::Text(v) => v.fmt(f),
        }
    }
}

/// Packs a `span!` call site's pairs into [`SpanArgs`]; more than
/// [`MAX_SPAN_ARGS`] pairs fail to compile.
#[doc(hidden)]
pub fn span_args<const N: usize>(pairs: [(&'static str, ArgValue); N]) -> SpanArgs {
    const { assert!(N <= MAX_SPAN_ARGS, "too many span args") };
    let mut args = SpanArgs::default();
    for (slot, pair) in args.iter_mut().zip(pairs) {
        *slot = Some(pair);
    }
    args
}

/// One completed span, in microseconds since the process trace epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span name (the `span!` literal).
    pub name: &'static str,
    /// Start, µs since the first instrumented event of the process.
    pub ts_us: f64,
    /// Duration in µs.
    pub dur_us: f64,
    /// Stable per-thread id (assigned in first-record order).
    pub tid: u64,
    /// Nesting depth at the time the span opened (0 = top level).
    pub depth: u32,
    /// Key/value annotations from the `span!` call site.
    pub args: SpanArgs,
}

impl TraceEvent {
    /// The span's `(key, value)` args in call-site order.
    pub fn args(&self) -> impl Iterator<Item = &(&'static str, ArgValue)> {
        self.args.iter().flatten()
    }
}

/// Tri-state runtime toggle: 0 = uninitialised, 1 = off, 2 = on.
static TRACE_STATE: AtomicU8 = AtomicU8::new(0);

/// Whether span/trace recording is on.
///
/// Initialised from the `PARAGRAPH_TRACE` environment variable on first
/// call (`1`/`true`/`on` enable it); afterwards a single relaxed atomic
/// load — cheap enough for per-matmul checks. Tests and embedders can
/// override with [`set_enabled`].
#[cfg(feature = "trace")]
#[inline]
pub fn enabled() -> bool {
    match TRACE_STATE.load(Ordering::Relaxed) {
        0 => init_from_env(),
        s => s == 2,
    }
}

/// Always false: the `trace` feature is compiled out.
#[cfg(not(feature = "trace"))]
#[inline]
pub fn enabled() -> bool {
    false
}

#[cfg(feature = "trace")]
#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("PARAGRAPH_TRACE")
        .map(|v| matches!(v.trim(), "1" | "true" | "on"))
        .unwrap_or(false);
    // A concurrent set_enabled may have raced us; only fill in if still
    // uninitialised so the explicit override wins.
    let _ = TRACE_STATE.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    TRACE_STATE.load(Ordering::Relaxed) == 2
}

/// Turns span/trace recording on or off, overriding `PARAGRAPH_TRACE`.
pub fn set_enabled(on: bool) {
    TRACE_STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// The monotonic epoch paired with the wall-clock instant it was taken,
/// so external tools can translate `ts_us` offsets back to real time.
struct EpochAnchor {
    instant: Instant,
    unix_nanos: u64,
}

fn epoch_anchor() -> &'static EpochAnchor {
    static EPOCH: OnceLock<EpochAnchor> = OnceLock::new();
    EPOCH.get_or_init(|| EpochAnchor {
        instant: Instant::now(),
        unix_nanos: SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos().min(u64::MAX as u128) as u64)
            .unwrap_or(0),
    })
}

/// Process-wide monotonic epoch every timestamp is measured from.
/// Shared with the event log so event `ts_us` and span `ts` correlate.
pub(crate) fn epoch() -> Instant {
    epoch_anchor().instant
}

/// The wall-clock time (nanoseconds since the unix epoch) at which the
/// shared span/event epoch was captured. Every `ts_us` in the trace
/// file, the event log, and the trace store is an offset from this
/// anchor, so `unix_ns = epoch_unix_nanos() + ts_us * 1000` correlates
/// all three with external timelines.
pub fn epoch_unix_nanos() -> u64 {
    epoch_anchor().unix_nanos
}

type SharedBuffer = Arc<Mutex<Vec<TraceEvent>>>;

/// The live threads' buffers. Exiting threads migrate their remaining
/// events to [`orphaned`] and deregister, so the list stays bounded by
/// the number of live recording threads.
fn sinks() -> &'static Mutex<Vec<SharedBuffer>> {
    static SINKS: OnceLock<Mutex<Vec<SharedBuffer>>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Events rescued from threads that have exited (or that recorded
/// during TLS teardown), drained together with the live buffers.
fn orphaned() -> &'static Mutex<Vec<TraceEvent>> {
    static ORPHANED: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    ORPHANED.get_or_init(|| Mutex::new(Vec::new()))
}

pub(crate) fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

static DROPPED_SPANS: AtomicU64 = AtomicU64::new(0);

/// Spans dropped (so far) because their thread's buffer was full.
pub fn dropped_spans() -> u64 {
    DROPPED_SPANS.load(Ordering::Relaxed)
}

/// Appends `event`, or drops and counts it when `buffer` is full.
fn push_bounded(buffer: &mut Vec<TraceEvent>, event: TraceEvent) {
    if buffer.len() < SPAN_BUFFER_CAPACITY {
        buffer.push(event);
    } else {
        DROPPED_SPANS.fetch_add(1, Ordering::Relaxed);
    }
}

/// TLS owner of a thread's buffer: its `Drop` runs at thread teardown
/// and moves whatever is still buffered into [`orphaned`], then removes
/// the buffer from [`sinks`] — spans recorded by short-lived worker
/// threads survive the thread without leaking dead buffers.
struct ThreadSink {
    buffer: SharedBuffer,
}

impl Drop for ThreadSink {
    fn drop(&mut self) {
        let events = std::mem::take(&mut *lock(&self.buffer));
        if !events.is_empty() {
            let mut orphans = lock(orphaned());
            for event in events {
                push_bounded(&mut orphans, event);
            }
        }
        lock(sinks()).retain(|b| !Arc::ptr_eq(b, &self.buffer));
    }
}

thread_local! {
    static THREAD_BUFFER: ThreadSink = {
        let buffer: SharedBuffer =
            Arc::new(Mutex::new(Vec::with_capacity(SPAN_BUFFER_CAPACITY)));
        lock(sinks()).push(Arc::clone(&buffer));
        ThreadSink { buffer }
    };
    static THREAD_ID: Cell<u64> = const { Cell::new(u64::MAX) };
    static SPAN_DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn thread_id() -> u64 {
    THREAD_ID.with(|id| {
        if id.get() == u64::MAX {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            id.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

fn record(event: TraceEvent) {
    // Completed spans of an in-flight request route to the trace store
    // regardless of whether the global trace file is recording.
    if crate::store::collecting() {
        if let Some(ctx) = crate::store::SpanContext::current() {
            crate::store::trace_store().record(&ctx, &event);
        }
    }
    if !enabled() {
        return;
    }
    let mut slot = Some(event);
    let _ = THREAD_BUFFER.try_with(|sink| {
        let event = slot.take().expect("event taken once");
        push_bounded(&mut lock(&sink.buffer), event);
    });
    // TLS teardown: the thread's buffer is gone (or was never created
    // this late); record into the orphan buffer instead of silently
    // dropping the event.
    if let Some(event) = slot {
        push_bounded(&mut lock(orphaned()), event);
    }
}

/// RAII guard created by [`span!`](crate::span!). Records one trace
/// event on drop when tracing was enabled at construction.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; `let _span = span!(..)`"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    name: &'static str,
    start: Instant,
    ts_us: f64,
    depth: u32,
    args: SpanArgs,
}

impl SpanGuard {
    /// Opens a span when tracing is enabled or the trace store is
    /// collecting spans for an in-flight request on this thread;
    /// otherwise the guard is inert. `args` is only invoked on the
    /// recording path.
    #[inline]
    pub fn open(name: &'static str, args: impl FnOnce() -> SpanArgs) -> Self {
        if !enabled() && !crate::store::collecting() {
            return Self { active: None };
        }
        Self::open_always(name, args())
    }

    #[cold]
    fn open_always(name: &'static str, args: SpanArgs) -> Self {
        let depth = SPAN_DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        let start = Instant::now();
        Self {
            active: Some(ActiveSpan {
                name,
                start,
                ts_us: start.duration_since(epoch()).as_secs_f64() * 1e6,
                depth,
                args,
            }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(span) = self.active.take() {
            let dur_us = span.start.elapsed().as_secs_f64() * 1e6;
            SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            record(TraceEvent {
                name: span.name,
                ts_us: span.ts_us,
                dur_us,
                tid: thread_id(),
                depth: span.depth,
                args: span.args,
            });
        }
    }
}

/// Opens a hierarchical timing span bound to the current scope.
///
/// ```
/// # paragraph_obs::set_enabled(true);
/// let _span = paragraph_obs::span!("epoch", epoch = 3, graphs = 128);
/// // ... timed work ...
/// ```
///
/// Arguments are at most [`MAX_SPAN_ARGS`] `key = expr` pairs of
/// `usize`, `f64`, `bool`, `&'static str` or `String`, kept as typed
/// [`ArgValue`]s and **not evaluated on the disabled path**.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::SpanGuard::open($name, || {
            $crate::span_args([$((stringify!($key), $crate::ArgValue::from(&$value))),*])
        })
    };
}

/// Records an already-measured span: a stage whose boundaries were
/// captured with plain `Instant`s (queue wait, admission-window wait,
/// request parse) rather than an RAII guard.
/// The synthesized event lands in the same buffers — and routes to the
/// trace store under the current [`SpanContext`](crate::SpanContext) —
/// exactly as if a `span!` guard had covered `[start, end]`. A no-op
/// when neither tracing nor the store is recording.
pub fn record_span_at(name: &'static str, start: Instant, end: Instant) {
    if !enabled() && !crate::store::collecting() {
        return;
    }
    let ts_us = start.saturating_duration_since(epoch()).as_secs_f64() * 1e6;
    let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
    record(TraceEvent {
        name,
        ts_us,
        dur_us,
        tid: thread_id(),
        depth: SPAN_DEPTH.with(Cell::get),
        args: SpanArgs::default(),
    });
}

/// Drains and returns every buffered event from every thread (plus any
/// rescued from exited threads), ordered by start timestamp; the
/// buffers keep their allocations.
pub fn take_events() -> Vec<TraceEvent> {
    let mut events = std::mem::take(&mut *lock(orphaned()));
    for buffer in lock(sinks()).iter() {
        events.append(&mut lock(buffer));
    }
    events.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    events
}

/// Number of currently buffered (not yet drained) events.
pub fn pending_events() -> usize {
    lock(orphaned()).len() + lock(sinks()).iter().map(|b| lock(b).len()).sum::<usize>()
}

/// Drains every buffered event and writes a Chrome-trace-format JSON
/// file (the `{"traceEvents": [...]}` object form). Returns the number
/// of events written. Creates parent directories as needed.
pub fn write_trace(path: impl AsRef<Path>) -> io::Result<usize> {
    let events = take_events();
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_chrome_trace(&events))?;
    Ok(events.len())
}

/// Appends drained events to a Chrome-trace *array format* file at
/// `path` (the `[e1,\ne2,\n...` form, which trace viewers accept
/// without a closing bracket), creating it — and parent directories —
/// on first use. Returns the number of events appended. This is the
/// incremental sibling of [`write_trace`] for long-running processes:
/// a periodic flusher can call it forever without rewriting the file.
pub fn append_trace_events(path: impl AsRef<Path>) -> io::Result<usize> {
    use std::io::Write as _;
    let events = take_events();
    if events.is_empty() {
        return Ok(0);
    }
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let fresh = std::fs::metadata(path)
        .map(|m| m.len() == 0)
        .unwrap_or(true);
    let mut body = String::new();
    if fresh {
        body.push_str("[\n");
    }
    for e in &events {
        render_event(&mut body, e);
        body.push_str(",\n");
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(body.as_bytes())?;
    Ok(events.len())
}

/// Renders events as Chrome trace JSON without draining anything.
pub fn render_chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_event(&mut out, e);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Renders one event as a Chrome-trace complete ("X") event object.
fn render_event(out: &mut String, e: &TraceEvent) {
    let _ = write!(
        out,
        "{{\"name\":{},\"ph\":\"X\",\"cat\":\"paragraph\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"depth\":{}",
        json_string(e.name),
        e.ts_us,
        e.dur_us,
        e.tid,
        e.depth
    );
    for (k, v) in e.args() {
        let _ = write!(out, ",{}:{}", json_string(k), json_string(&v.to_string()));
    }
    out.push_str("}}");
}

pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serialises tests (here and in `store.rs`) that toggle the
/// process-wide trace/store flags or drain the shared buffers.
#[cfg(test)]
pub(crate) fn test_flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    lock(&LOCK)
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests toggle the process-wide trace flag, so they must not
    // interleave with each other; a shared mutex serialises them.
    fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
        test_flag_lock()
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _guard = flag_lock();
        set_enabled(false);
        let before = pending_events();
        {
            let _span = crate::span!("idle");
        }
        assert_eq!(pending_events(), before);
    }

    #[test]
    #[cfg(feature = "trace")]
    fn enabled_spans_nest_and_record() {
        let _guard = flag_lock();
        set_enabled(true);
        let _ = take_events();
        {
            let _outer = crate::span!("outer", size = 4);
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _inner = crate::span!("inner");
            }
        }
        set_enabled(false);
        let events = take_events();
        let outer = events.iter().find(|e| e.name == "outer").expect("outer");
        let inner = events.iter().find(|e| e.name == "inner").expect("inner");
        let args: Vec<_> = outer.args().collect();
        assert_eq!(args, [&("size", ArgValue::U64(4))]);
        assert!(outer.dur_us >= 1000.0, "slept 1ms: {}", outer.dur_us);
        assert!(inner.depth > outer.depth, "inner nests under outer");
        assert!(inner.ts_us >= outer.ts_us);
        assert!(inner.dur_us <= outer.dur_us);
    }

    #[test]
    #[cfg(feature = "trace")]
    fn thread_teardown_drains_spans_to_orphan_buffer() {
        let _guard = flag_lock();
        set_enabled(true);
        let _ = take_events();
        std::thread::spawn(|| {
            let _span = crate::span!("teardown_span", i = 7);
        })
        .join()
        .unwrap();
        // The exited thread's TLS sink ran its destructor: the span was
        // rescued into the orphan buffer and the dead buffer
        // deregistered, so a drain still sees the event.
        assert!(
            lock(orphaned()).iter().any(|e| e.name == "teardown_span"),
            "span rescued at thread teardown"
        );
        set_enabled(false);
        let events = take_events();
        assert!(events.iter().any(|e| e.name == "teardown_span"));
    }

    #[test]
    #[cfg(feature = "trace")]
    fn append_trace_events_streams_array_format() {
        let _guard = flag_lock();
        set_enabled(true);
        let _ = take_events();
        let path =
            std::env::temp_dir().join(format!("paragraph-stream-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let _span = crate::span!("flush_a");
        }
        assert_eq!(append_trace_events(&path).unwrap(), 1);
        {
            let _span = crate::span!("flush_b");
        }
        set_enabled(false);
        assert_eq!(append_trace_events(&path).unwrap(), 1);
        // Nothing pending: appending again is a no-op that leaves the
        // file untouched.
        assert_eq!(append_trace_events(&path).unwrap(), 0);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("[\n"), "array-format opener: {body}");
        assert!(
            body.contains("\"flush_a\"") && body.contains("\"flush_b\""),
            "{body}"
        );
        assert!(body.ends_with(",\n"), "stream stays appendable: {body}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[cfg(feature = "trace")]
    fn full_buffer_drops_and_counts_without_growing() {
        let _guard = flag_lock();
        set_enabled(true);
        let _ = take_events();
        // Allocated once, at capacity; never grown; kept by a drain.
        let capacity = || THREAD_BUFFER.with(|sink| lock(&sink.buffer).capacity());
        assert_eq!(capacity(), SPAN_BUFFER_CAPACITY);
        let dropped_before = dropped_spans();
        for i in 0..SPAN_BUFFER_CAPACITY + 10 {
            let _span = crate::span!("fill", i = i);
        }
        set_enabled(false);
        assert_eq!(capacity(), SPAN_BUFFER_CAPACITY);
        assert_eq!(dropped_spans() - dropped_before, 10);
        let events = take_events();
        assert_eq!(events.len(), SPAN_BUFFER_CAPACITY);
        assert_eq!(events[0].args().next(), Some(&("i", ArgValue::U64(0))));
        assert_eq!(capacity(), SPAN_BUFFER_CAPACITY);
    }

    #[test]
    fn chrome_trace_shape() {
        let events = vec![TraceEvent {
            name: "epoch",
            ts_us: 1.5,
            dur_us: 2.25,
            tid: 3,
            depth: 0,
            args: span_args([
                ("loss", ArgValue::F64(0.5)),
                ("phase", ArgValue::Str("fit")),
            ]),
        }];
        let json = render_chrome_trace(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"epoch\""));
        assert!(json.contains("\"loss\":\"0.5\",\"phase\":\"fit\""));
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
    }
}
