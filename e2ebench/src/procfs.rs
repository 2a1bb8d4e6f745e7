//! Memory and I/O of this process, read from `/proc/self`. Off Linux (no
//! `/proc/self`) both readings are `None`: not measured, never zero.

use std::fs;

/// Peak resident set size (`VmHWM` of `/proc/self/status`) in MB.
pub fn rss_peak_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Bytes this process has passed to `write`-like calls so far (`wchar` of
/// `/proc/self/io`).
pub fn wchar() -> Option<u64> {
    let io = fs::read_to_string("/proc/self/io").ok()?;
    io.lines().find_map(|l| l.strip_prefix("wchar:")).and_then(|v| v.trim().parse().ok())
}
