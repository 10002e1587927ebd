//! Clocks and summary statistics shared by every workload.
//!
//! Host time is wall time on this machine, read from one process-wide
//! [`Instant`] epoch so spans from different threads share an origin.
//! Per-thread CPU time comes from `/proc/thread-self/schedstat`, which
//! counts only the nanoseconds a thread actually ran: a rank thread
//! blocked in a collective does not accumulate it.

use std::sync::OnceLock;
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Host seconds since the process-wide epoch.
pub fn host_now() -> f64 {
    epoch().elapsed().as_secs_f64()
}

/// Nanoseconds the calling thread has spent on a CPU, or `None` where
/// the kernel does not expose scheduler statistics.
pub fn thread_cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`) since the
/// last [`reset_peak_rss`], or since the process started.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the process's `VmHWM` to its current resident set size, so
/// the next [`peak_rss_mb`] covers only what runs after this call.
/// Without `/proc/self/clear_refs` the peak keeps covering the whole
/// process.
pub fn reset_peak_rss() {
    // "5" resets the peak RSS counter (proc(5), clear_refs).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Largest value, or 0 for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// `max - min` of `values`; 0 for fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if values.len() < 2 {
        0.0
    } else {
        hi - lo
    }
}

/// `max / min` of positive `values` (1 when fewer than two or any is 0).
pub fn skew(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = max(values);
    if values.len() < 2 || lo <= 0.0 {
        1.0
    } else {
        hi / lo
    }
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = host_now();
    let r = f();
    (r, host_now() - t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(spread(&v), 3.0);
        assert_eq!(skew(&[2.0, 4.0]), 2.0);
    }
}
