//! Shared helpers for the `report` binary: the service load harness
//! ([`service`]) and the peak-RSS probe its D-series rows print.

pub mod service;

/// Peak resident set size of this process so far, in KiB — `VmHWM` from
/// `/proc/self/status`. `None` where procfs is unavailable (non-Linux), so
/// callers can print `rss=?` instead of failing: the memory column is
/// advisory, the timing columns are the gated quantities.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix("VmHWM:")?
            .trim()
            .strip_suffix("kB")?
            .trim()
            .parse()
            .ok()
    })
}

/// `peak_rss_kb` rendered for a table cell: MiB with one decimal, or `?`.
pub fn peak_rss_cell() -> String {
    peak_rss_kb().map_or_else(
        || "?".to_string(),
        |kb| format!("{:.1}", kb as f64 / 1024.0),
    )
}
