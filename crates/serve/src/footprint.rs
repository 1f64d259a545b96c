//! Process resident-memory introspection.
//!
//! Capacity work needs a ground-truth answer to "how much memory is this
//! actually holding?" that survives allocator slack and lazy-page
//! accounting. On Linux the kernel's `VmRSS` line in
//! `/proc/self/status` is that answer; elsewhere there is no portable
//! std-only source, so the probes return `None` and callers degrade to
//! analytic estimates (`examples/capacity.rs` prints both).

/// Resident set size of the current process in bytes, or `None` when
/// the platform offers no `/proc/self/status` (non-Linux) or the field
/// is missing.
pub fn resident_bytes() -> Option<u64> {
    proc_status_kib("VmRSS:").map(|kib| kib * 1024)
}

/// Peak resident set size (`VmHWM`, the RSS high-water mark) in bytes,
/// when available. Note the high-water mark never goes down: measure
/// lean configurations *before* fat ones in the same process.
pub fn peak_resident_bytes() -> Option<u64> {
    proc_status_kib("VmHWM:").map(|kib| kib * 1024)
}

fn proc_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    // Format: "VmRSS:      1234 kB"
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Formats a byte count for humans: `"1.50 GiB"`, `"320.0 MiB"`,
/// `"12.0 KiB"`, `"17 B"`.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [(&str, u64); 3] = [("GiB", 1 << 30), ("MiB", 1 << 20), ("KiB", 1 << 10)];
    for (unit, scale) in UNITS {
        if bytes >= scale {
            return format!("{:.2} {unit}", bytes as f64 / scale as f64);
        }
    }
    format!("{bytes} B")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_bytes_picks_units() {
        assert_eq!(fmt_bytes(17), "17 B");
        assert_eq!(fmt_bytes(12 << 10), "12.00 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00 MiB");
        assert_eq!(fmt_bytes((3 << 30) + (1 << 29)), "3.50 GiB");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn resident_probe_reads_proc() {
        let rss = resident_bytes().expect("linux has /proc/self/status");
        assert!(rss > 0);
        let peak = peak_resident_bytes().expect("VmHWM present");
        assert!(peak >= rss, "high-water {peak} below current {rss}");
    }
}
