//! Gauges about the process itself, read from the operating system
//! whenever the process's metrics are exported: today its peak resident
//! set size, so a snapshot or a scrape shows where memory went as well
//! as time.

use crate::Registry;

/// The gauge holding the process's peak resident set size, in bytes.
pub const PEAK_RSS_BYTES: &str = "process_peak_rss_bytes";

/// The process's peak resident set size in bytes (`VmHWM` in
/// `/proc/self/status`), or `None` where that file is missing or
/// unreadable.
pub fn peak_rss_bytes() -> Option<u64> {
    vm_hwm_bytes(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in bytes.
fn vm_hwm_bytes(status: &str) -> Option<u64> {
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kib: u64 = kib.trim().strip_suffix("kB")?.trim_end().parse().ok()?;
    kib.checked_mul(1024)
}

/// Sets [`PEAK_RSS_BYTES`] in the global registry from
/// [`peak_rss_bytes`], leaving the gauge out where that is unreadable.
/// Every export of the process's metrics calls this first.
pub fn refresh() {
    if let Some(bytes) = peak_rss_bytes() {
        let bytes = i64::try_from(bytes).unwrap_or(i64::MAX);
        Registry::global().gauge(PEAK_RSS_BYTES).set(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm_in_bytes() {
        let status =
            "Name:\tfigures\nVmPeak:\t  201244 kB\nVmHWM:\t   54312 kB\nVmRSS:\t   50000 kB\n";
        assert_eq!(vm_hwm_bytes(status), Some(54_312 * 1024));
        assert_eq!(vm_hwm_bytes("Name:\tfigures\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(vm_hwm_bytes("VmHWM:\t many kB\n"), None);
        assert_eq!(vm_hwm_bytes("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn refresh_exports_a_valid_gauge_where_proc_is_readable() {
        let Some(first) = peak_rss_bytes() else {
            return;
        };
        assert!(first > 0);
        refresh();
        let gauge = Registry::global().gauge(PEAK_RSS_BYTES).get();
        assert!(gauge as u64 >= first, "{gauge} < {first}");
        let text = crate::export::render_prometheus(&Registry::global().snapshot());
        assert!(
            text.contains(&format!("# TYPE {PEAK_RSS_BYTES} gauge\n")),
            "{text}"
        );
        crate::export::validate_prometheus(&text).unwrap();
    }
}
