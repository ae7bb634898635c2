//! Structured event log: dependency-free JSONL records with per-thread
//! buffers, a bounded capacity with drop counting, and a runtime
//! `PARAGRAPH_EVENTS` toggle.
//!
//! Where spans answer *"where did the time go"*, events answer *"what
//! happened to request X"*: one self-contained JSON object per
//! occurrence, with whatever fields the recording site attaches. An
//! [`Event`] renders its line incrementally (no serde, no intermediate
//! tree), stamps a `ts_us` timestamp from the same monotonic epoch the
//! trace spans use (so event and span timelines correlate), and lands in
//! a per-thread buffer registered in the same style as the trace sinks.
//!
//! The buffers are bounded: once [`pending_event_lines`] reaches the
//! configured capacity ([`set_event_capacity`]), further events are
//! dropped and counted ([`dropped_events`]) instead of growing memory
//! without limit — an unattended `PARAGRAPH_EVENTS=1` service must not
//! OOM because nothing drains it.
//!
//! Like tracing, recording is off by default, the disabled check is one
//! relaxed atomic load, and building with `--no-default-features`
//! compiles recording out entirely.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::trace::{epoch, epoch_unix_nanos, lock, JsonStr};

/// Default bound on buffered (not yet drained) event lines.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// Tri-state runtime toggle: 0 = uninitialised, 1 = off, 2 = on.
static EVENT_STATE: AtomicU8 = AtomicU8::new(0);

/// Buffered-line bound; events beyond it are dropped and counted.
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_EVENT_CAPACITY);

/// Lines currently buffered across every thread.
static BUFFERED: AtomicUsize = AtomicUsize::new(0);

/// Events dropped because the buffers were at capacity.
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Whether event recording is on.
///
/// Initialised from the `PARAGRAPH_EVENTS` environment variable on
/// first call (`1`/`true`/`on` enable it); afterwards a single relaxed
/// atomic load. Override with [`set_events_enabled`].
#[cfg(feature = "trace")]
#[inline]
pub fn events_enabled() -> bool {
    match EVENT_STATE.load(Ordering::Relaxed) {
        0 => init_from_env(),
        s => s == 2,
    }
}

/// Always false: the `trace` feature is compiled out.
#[cfg(not(feature = "trace"))]
#[inline]
pub fn events_enabled() -> bool {
    false
}

#[cfg(feature = "trace")]
#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("PARAGRAPH_EVENTS")
        .map(|v| matches!(v.trim(), "1" | "true" | "on"))
        .unwrap_or(false);
    // A concurrent set_events_enabled may have raced us; only fill in if
    // still uninitialised so the explicit override wins.
    let _ = EVENT_STATE.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    EVENT_STATE.load(Ordering::Relaxed) == 2
}

/// Turns event recording on or off, overriding `PARAGRAPH_EVENTS`.
pub fn set_events_enabled(on: bool) {
    EVENT_STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Sets the bound on buffered event lines (min 1). Events emitted while
/// the buffers are full are dropped and counted, newest first.
pub fn set_event_capacity(capacity: usize) {
    CAPACITY.store(capacity.max(1), Ordering::Relaxed);
}

/// Events dropped (so far) because the buffers were at capacity.
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

type SharedLines = Arc<Mutex<Vec<String>>>;

/// Every thread's line buffer, kept alive past thread exit.
fn event_sinks() -> &'static Mutex<Vec<SharedLines>> {
    static SINKS: OnceLock<Mutex<Vec<SharedLines>>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static EVENT_BUFFER: SharedLines = {
        let buffer: SharedLines = Arc::new(Mutex::new(Vec::new()));
        lock(event_sinks()).push(Arc::clone(&buffer));
        buffer
    };
}

fn record_line(line: String) {
    // Reserve a slot under the bound; back out (and count the drop) when
    // the buffers are full.
    if BUFFERED.fetch_add(1, Ordering::Relaxed) >= CAPACITY.load(Ordering::Relaxed) {
        BUFFERED.fetch_sub(1, Ordering::Relaxed);
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let pushed = EVENT_BUFFER
        .try_with(|buffer| lock(buffer).push(line))
        .is_ok();
    if !pushed {
        // Thread teardown: the TLS buffer is gone; count as dropped.
        BUFFERED.fetch_sub(1, Ordering::Relaxed);
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// One structured event, rendered incrementally as a single JSON object
/// (one JSONL line). Inert — no allocation, no clock read — unless event
/// recording was enabled at construction.
///
/// ```
/// paragraph_obs::set_events_enabled(true);
/// paragraph_obs::Event::new("request")
///     .str_field("id", "req-7")
///     .u64_field("latency_us", 1250)
///     .bool_field("ok", true)
///     .emit();
/// let lines = paragraph_obs::take_event_lines();
/// // One JSONL line per emitted event (none with the feature off).
/// assert!(lines.iter().all(|l| l.contains("\"kind\":\"request\"")));
/// # paragraph_obs::set_events_enabled(false);
/// ```
#[derive(Debug)]
#[must_use = "an event records nothing until .emit() is called"]
pub struct Event {
    /// The partially rendered line; `None` when recording is disabled.
    buf: Option<String>,
}

impl Event {
    /// Starts an event of the given kind, stamped with microseconds
    /// since the process trace epoch (shared with span timestamps).
    #[inline]
    pub fn new(kind: &str) -> Self {
        if !events_enabled() {
            return Self { buf: None };
        }
        Self::open(kind)
    }

    #[cold]
    fn open(kind: &str) -> Self {
        let ts_us = epoch().elapsed().as_secs_f64() * 1e6;
        let mut buf = String::with_capacity(96);
        let _ = write!(buf, "{{\"ts_us\":{ts_us:.3},\"kind\":{}", JsonStr(kind));
        Self { buf: Some(buf) }
    }

    /// Adds a string field.
    pub fn str_field(mut self, key: &str, value: &str) -> Self {
        if let Some(buf) = &mut self.buf {
            let _ = write!(buf, ",{}:{}", JsonStr(key), JsonStr(value));
        }
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64_field(mut self, key: &str, value: u64) -> Self {
        if let Some(buf) = &mut self.buf {
            let _ = write!(buf, ",{}:{value}", JsonStr(key));
        }
        self
    }

    /// Adds a float field; non-finite values render as `null`.
    pub fn f64_field(mut self, key: &str, value: f64) -> Self {
        if let Some(buf) = &mut self.buf {
            let _ = write!(buf, ",{}:", JsonStr(key));
            push_f64(buf, value);
        }
        self
    }

    /// Adds an object field of float members, `{"k":v,...}` in the
    /// order given; non-finite values render as `null`.
    pub fn f64_object_field<'a>(
        mut self,
        key: &str,
        members: impl IntoIterator<Item = (&'a str, f64)>,
    ) -> Self {
        if let Some(buf) = &mut self.buf {
            let _ = write!(buf, ",{}:{{", JsonStr(key));
            for (i, (name, value)) in members.into_iter().enumerate() {
                let comma = if i == 0 { "" } else { "," };
                let _ = write!(buf, "{comma}{}:", JsonStr(name));
                push_f64(buf, value);
            }
            buf.push('}');
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool_field(mut self, key: &str, value: bool) -> Self {
        if let Some(buf) = &mut self.buf {
            let _ = write!(buf, ",{}:{value}", JsonStr(key));
        }
        self
    }

    /// Whether this event is actually recording (enabled at creation).
    pub fn is_recording(&self) -> bool {
        self.buf.is_some()
    }

    /// Closes the object and buffers the line (or drops it, counted,
    /// when the buffers are at capacity).
    pub fn emit(self) {
        if let Some(mut buf) = self.buf {
            buf.push('}');
            record_line(buf);
        }
    }
}

/// Writes `value` as a JSON number, or `null` when it is not finite.
fn push_f64(buf: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(buf, "{value}");
    } else {
        buf.push_str("null");
    }
}

/// Drains and returns every buffered event line from every thread
/// (per-thread FIFO order; threads are concatenated in first-record
/// order, not globally sorted — sort on `ts_us` if you need a single
/// timeline).
pub fn take_event_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for buffer in lock(event_sinks()).iter() {
        lines.append(&mut lock(buffer));
    }
    BUFFERED.fetch_sub(lines.len(), Ordering::Relaxed);
    lines
}

/// Number of currently buffered (not yet drained) event lines.
pub fn pending_event_lines() -> usize {
    BUFFERED.load(Ordering::Relaxed)
}

/// Drains every buffered event line and **appends** them to the JSONL
/// file at `path` (one JSON object per line), creating parent
/// directories as needed. Returns the number of event lines written
/// (the header is not counted). Append semantics let a periodic
/// flusher and the exit-time flush share one file without clobbering
/// each other.
///
/// A fresh (absent or empty) file gains one `events_header` line first,
/// carrying the shared span/event epoch as a unix-nanos offset
/// (`epoch_unix_ns`) so external tools can correlate the log's `ts_us`
/// offsets — and those of `trace.json` and `/debug/traces` — with wall
/// clock time.
pub fn write_events(path: impl AsRef<Path>) -> io::Result<usize> {
    use std::io::Write as _;
    let lines = take_event_lines();
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let fresh = std::fs::metadata(path)
        .map(|m| m.len() == 0)
        .unwrap_or(true);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut body = String::new();
    if fresh {
        let ts_us = epoch().elapsed().as_secs_f64() * 1e6;
        let _ = writeln!(
            body,
            "{{\"ts_us\":{ts_us:.3},\"kind\":\"events_header\",\"epoch_unix_ns\":{},\"version\":1}}",
            epoch_unix_nanos()
        );
    }
    for line in &lines {
        body.push_str(line);
        body.push('\n');
    }
    file.write_all(body.as_bytes())?;
    Ok(lines.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that toggle the process-wide flag or capacity.
    fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock(&LOCK)
    }

    #[test]
    fn disabled_event_records_nothing() {
        let _guard = flag_lock();
        set_events_enabled(false);
        let before = pending_event_lines();
        Event::new("noop").u64_field("x", 1).emit();
        assert_eq!(pending_event_lines(), before);
    }

    #[test]
    #[cfg(feature = "trace")]
    fn event_line_is_wellformed_json() {
        let _guard = flag_lock();
        set_events_enabled(true);
        let _ = take_event_lines();
        Event::new("request")
            .str_field("id", "req-1")
            .str_field("tricky", "a\"b\\c\nd\t\r\u{1}é")
            .u64_field("n", 42)
            .f64_field("lat_us", 12.5)
            .f64_field("nan", f64::NAN)
            .bool_field("ok", true)
            .f64_object_field("stages", [("parse_us", 1.0), ("exec_us", f64::INFINITY)])
            .f64_object_field("empty", [])
            .emit();
        set_events_enabled(false);
        let lines = take_event_lines();
        assert_eq!(lines.len(), 1);
        let line = &lines[0];
        assert!(line.starts_with("{\"ts_us\":"), "{line}");
        assert!(line.ends_with('}'), "{line}");
        assert!(line.contains("\"kind\":\"request\""), "{line}");
        assert!(line.contains("\"id\":\"req-1\""), "{line}");
        assert!(
            line.contains("\"tricky\":\"a\\\"b\\\\c\\nd\\t\\r\\u0001é\""),
            "{line}"
        );
        assert!(line.contains("\"n\":42"), "{line}");
        assert!(line.contains("\"lat_us\":12.5"), "{line}");
        assert!(line.contains("\"nan\":null"), "{line}");
        assert!(line.contains("\"ok\":true"), "{line}");
        assert!(
            line.contains("\"stages\":{\"parse_us\":1,\"exec_us\":null}"),
            "{line}"
        );
        assert!(line.contains("\"empty\":{}"), "{line}");
        assert!(!line.contains('\n'), "one line per event: {line}");
    }

    #[test]
    #[cfg(feature = "trace")]
    fn overflow_drops_and_counts() {
        let _guard = flag_lock();
        set_events_enabled(true);
        let _ = take_event_lines();
        set_event_capacity(4);
        let dropped_before = dropped_events();
        for i in 0..10 {
            Event::new("spam").u64_field("i", i).emit();
        }
        set_events_enabled(false);
        assert_eq!(pending_event_lines(), 4);
        assert_eq!(dropped_events() - dropped_before, 6);
        let lines = take_event_lines();
        assert_eq!(lines.len(), 4);
        // The oldest events were kept; the overflow was dropped.
        assert!(lines[0].contains("\"i\":0"), "{}", lines[0]);
        assert_eq!(pending_event_lines(), 0);
        set_event_capacity(DEFAULT_EVENT_CAPACITY);
    }

    #[test]
    #[cfg(feature = "trace")]
    fn write_events_appends_jsonl() {
        let _guard = flag_lock();
        set_events_enabled(true);
        let _ = take_event_lines();
        let path =
            std::env::temp_dir().join(format!("paragraph-events-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Event::new("first").emit();
        assert_eq!(write_events(&path).unwrap(), 1);
        Event::new("second").emit();
        set_events_enabled(false);
        assert_eq!(write_events(&path).unwrap(), 1);
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        // One epoch header (fresh file only) + the two event lines.
        assert_eq!(lines.len(), 3, "append, not truncate: {body}");
        assert!(
            lines[0].contains("\"kind\":\"events_header\"")
                && lines[0].contains("\"epoch_unix_ns\":"),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"first\"") && lines[2].contains("\"second\""));
        let _ = std::fs::remove_file(&path);
    }
}
