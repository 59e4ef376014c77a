//! Small numeric helpers: percentiles, medians, memory, accuracy.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// The median over consecutive windows of `window` samples of each
/// window's `p`-th percentile, and the number of windows. Windowing keeps
/// a short burst of interference on a shared machine from moving the
/// figure; with windows of 1,000 or more, each still has at least ten
/// samples beyond its 99th percentile. Fewer samples than one window give
/// the plain percentile.
pub fn windowed(samples: &[u64], p: f64, window: usize) -> (f64, usize) {
    if samples.len() < window {
        let mut s = samples.to_vec();
        s.sort_unstable();
        return (percentile(&s, p), 1);
    }
    let per: Vec<f64> = samples
        .chunks_exact(window)
        .map(|w| {
            let mut s = w.to_vec();
            s.sort_unstable();
            percentile(&s, p)
        })
        .collect();
    (median(&per), per.len())
}

/// Median of the values (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so [`peak_rss_mb`] covers only what runs afterwards.
/// Heap pages the allocator still holds from freed memory are returned
/// to the system first, so they do not set the new floor. False where
/// the kernel offers no reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only
        // releases free heap pages; it is safe to call at any time.
        unsafe { malloc_trim(0) };
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process in MiB (`VmHWM`), or NaN off Linux.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set of this process in MiB (`VmRSS`), or NaN off
/// Linux.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The q-error of one estimate: the factor by which it misses the exact
/// count, both clamped to at least 1.
pub fn q_error(estimate: f64, actual: u64) -> f64 {
    let e = estimate.max(1.0);
    let a = (actual as f64).max(1.0);
    e.max(a) / e.min(a)
}
