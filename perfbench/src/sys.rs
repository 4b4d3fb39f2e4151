//! Process-level resource readings from `/proc` (Linux).

/// Kernel clock ticks per second for `/proc/*/stat` CPU times. `USER_HZ`
/// is 100 on every mainstream Linux ABI.
const USER_HZ: f64 = 100.0;

/// High-water resident set size (`VmHWM`) in MiB, if readable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Reset `VmHWM` to the current resident size, so that a later
/// [`peak_rss_mib`] covers only what runs after this call. Returns
/// whether the kernel took the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Hand memory the allocator holds but no longer uses back to the
/// kernel, so the resident size reflects live data (glibc only).
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim takes no pointers and is thread-safe.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// User + system CPU seconds consumed by every thread of this process,
/// live or exited.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}
