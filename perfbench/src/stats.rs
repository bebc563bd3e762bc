//! Order statistics and host probes.
//!
//! The percentile rule follows the benchmark's reporting convention: a
//! percentile is only reported when at least [`TAIL_MIN`] samples lie
//! beyond it, so `p99` needs 1000 samples.

use std::time::Duration;

/// Samples a reported percentile needs beyond it.
pub const TAIL_MIN: usize = 10;

/// Median of `xs` (mean of the middle pair for even lengths). `NaN` for an
/// empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of an unsorted sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The `q` quantile, or `None` when fewer than [`TAIL_MIN`] samples lie
/// beyond it (`n * (1 - q) < TAIL_MIN`).
pub fn supported_quantile(xs: &[f64], q: f64) -> Option<f64> {
    let beyond = xs.len() as f64 * (1.0 - q);
    (beyond + 1e-9 >= TAIL_MIN as f64).then(|| quantile(xs, q))
}

/// The run's tail latency: `p99` when the sample supports it, otherwise
/// the highest percentile with [`TAIL_MIN`] samples beyond it, and for a
/// sample too small to support any percentile above the median (fewer
/// than `2 * TAIL_MIN` operations), the slowest operation. Returns the
/// value and the quantile it reports (`1.0` = maximum).
pub fn tail(xs: &[f64]) -> (f64, f64) {
    if let Some(v) = supported_quantile(xs, 0.99) {
        return (v, 0.99);
    }
    if xs.len() >= 2 * TAIL_MIN {
        let q = 1.0 - TAIL_MIN as f64 / xs.len() as f64;
        return (quantile(xs, q), q);
    }
    (xs.iter().copied().fold(f64::NAN, f64::max), 1.0)
}

/// Mean of `xs`; `0` for an empty slice (an unexercised layer).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Host counters sampled at the start and end of a measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSnap {
    /// Process CPU time (user + system, all threads ever run), seconds.
    pub cpu_s: f64,
    /// Host-wide CPU steal, seconds.
    pub steal_s: f64,
    /// Involuntary context switches summed over the live threads.
    pub nvcsw: u64,
}

/// Linux reports `/proc` CPU times in USER_HZ ticks, 100 per second on
/// every mainstream architecture.
const USER_HZ: f64 = 100.0;

impl HostSnap {
    /// Sample now. Missing `/proc` files read as zero.
    pub fn take() -> HostSnap {
        HostSnap {
            cpu_s: process_cpu_s(),
            steal_s: steal_s(),
            nvcsw: involuntary_switches(),
        }
    }
}

/// The host-noise text printed beside a run's metrics: steal and
/// involuntary switches over the measured phase, and every set-up time.
pub fn host_diag(host: (HostSnap, HostSnap), setup_s: &[f64]) -> String {
    let setups: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
    format!(
        "steal_s={:.2} nvcsw={} setup_s=[{}]",
        host.1.steal_s - host.0.steal_s,
        host.1.nvcsw - host.0.nvcsw,
        setups.join(",")
    )
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// `utime + stime` of `/proc/self/stat` (fields 14 and 15). The fields
/// after the parenthesised command name are split, so a command name with
/// spaces cannot shift them.
pub fn process_cpu_s() -> f64 {
    let stat = read("/proc/self/stat");
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / USER_HZ
}

/// Steal ticks from the aggregate `cpu` line of `/proc/stat`.
fn steal_s() -> f64 {
    read("/proc/stat")
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.0)
        / USER_HZ
}

fn involuntary_switches() -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.filter_map(Result::ok)
        .map(|e| {
            status_field(
                &read(&format!("{}/status", e.path().display())),
                "nonvoluntary_ctxt_switches",
            )
        })
        .sum()
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    status_field(&read("/proc/self/status"), "VmHWM") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(supported_quantile(&xs, 0.99), None);
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(supported_quantile(&xs, 0.99).is_some());
        // The tail falls back to the highest supported percentile…
        let xs: Vec<f64> = (0..500).map(f64::from).collect();
        let (_, q) = tail(&xs);
        assert!((q - 0.98).abs() < 1e-12, "q = {q}");
        assert!(xs.len() as f64 * (1.0 - q) >= TAIL_MIN as f64 - 1e-9);
        // …and to the maximum when no percentile above the median has
        // ten samples beyond it.
        let xs = [3.0, 9.0, 4.0, 1.0];
        assert_eq!(tail(&xs), (9.0, 1.0));
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn proc_status_fields_parse() {
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(status, "VmHWM"), 2048);
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), 7);
        assert_eq!(status_field(status, "Missing"), 0);
    }
}
