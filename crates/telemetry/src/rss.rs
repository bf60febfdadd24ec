//! Process resident-set probes.
//!
//! Linux-only (`/proc/self/status`); every probe returns `None` on
//! other platforms so callers can export an honest `null` instead of
//! a fake zero.

/// Peak resident set size of this process in KiB (`VmHWM`), or `None`
/// when the platform does not expose it. The kernel value is a
/// process-wide high-water mark: it never decreases, so per-cell
/// readings in a multi-cell run are "peak so far", not per-cell
/// footprints.
pub fn peak_rss_kb() -> Option<u64> {
    read_status_kb("VmHWM:")
}

/// Current resident set size in KiB (`VmRSS`), or `None` when
/// unavailable.
pub fn current_rss_kb() -> Option<u64> {
    read_status_kb("VmRSS:")
}

#[cfg(target_os = "linux")]
fn read_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kb(&status, field)
}

#[cfg(not(target_os = "linux"))]
fn read_status_kb(_field: &str) -> Option<u64> {
    None
}

/// Parses a `Vm*:   12345 kB` line out of `/proc/self/status` text.
#[allow(dead_code)] // only dead off-Linux
fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_field() {
        let status = "Name:\tcargo\nVmRSS:\t  1234 kB\nVmHWM:\t  5678 kB\n";
        assert_eq!(parse_status_kb(status, "VmRSS:"), Some(1234));
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(5678));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn linux_reports_positive_peak() {
        assert!(peak_rss_kb().expect("VmHWM present on Linux") > 0);
        assert!(current_rss_kb().expect("VmRSS present on Linux") > 0);
        // Both fields from one snapshot: two separate reads race the
        // test harness's own allocations, and RSS can pass a peak read
        // a moment earlier.
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        let peak = parse_status_kb(&status, "VmHWM:").expect("VmHWM");
        let current = parse_status_kb(&status, "VmRSS:").expect("VmRSS");
        assert!(peak >= current, "VmHWM {peak} kB < VmRSS {current} kB");
    }
}
