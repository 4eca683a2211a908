//! Process facts the benchmark reports: core count and peak memory.

use std::num::NonZeroUsize;

/// Cores this process may run on (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Peak resident memory of this process so far, in MiB (`VmHWM` of
/// Linux's `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: u64 = status
        .lines()
        .find_map(|line| {
            line.strip_prefix("VmHWM:")?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .expect("/proc/self/status reports VmHWM");
    kb as f64 / 1024.0
}
