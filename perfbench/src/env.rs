//! The run's environment record.

/// Hardware threads the process may use.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Removes every `PARAGRAPH_*` variable from this process's environment
/// and returns what was set. The program reads tracing, event-log,
/// precision, executor, batching and pool-size overrides from these, so
/// clearing them keeps every run on the artifact pins and the configs
/// the benchmark sets, with tracing off. Call before any thread starts.
pub fn take_paragraph_vars() -> Vec<(String, String)> {
    let vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("PARAGRAPH_"))
        .collect();
    for (k, _) in &vars {
        std::env::remove_var(k);
    }
    vars
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
