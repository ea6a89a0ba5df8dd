//! Host-clock measurement: fixed-work windows, exact percentiles from
//! sorted raw samples, medians, and the process's peak RSS.
//!
//! Every throughput and latency figure is computed per window of a fixed
//! amount of work and then reported as the median across windows, so a
//! phase in which the shared host runs slow moves a minority of windows
//! rather than the reported number. The shared host's speed also swings
//! by up to 1.5× within seconds, so each window is bracketed by a fixed
//! probe kernel and its figures are scaled to the probe's nominal speed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of `sorted` (ascending); `q` in `(0, 1]`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nanoseconds elapsed since `t`, saturated to `u64`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Iterations of one host-speed probe.
const PROBE_ITERS: usize = 40_000;
/// Nominal time of one probe: 100 M iterations per second.
const PROBE_NOMINAL_NS: f64 = 400_000.0;

/// Runs the host-speed probe once and returns its time in ns.
///
/// The probe is a fixed kernel of this crate (hash, table load, relaxed
/// atomic add, like the check path), so no change to the code under test
/// can change it; only the host's speed at that moment does.
pub fn probe_ns() -> u64 {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        (0..1u64 << 16)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    });
    let counter = AtomicU64::new(0);
    let mut x = 1u64;
    let mut acc = 0u64;
    let t = Instant::now();
    for _ in 0..PROBE_ITERS {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        acc ^= table[((z ^ (z >> 27)) as usize) & (table.len() - 1)];
        counter.fetch_add(acc & 1, Ordering::Relaxed);
    }
    std::hint::black_box((acc, counter.load(Ordering::Relaxed)));
    ns_since(t)
}

/// Mean probe time over `threads` probes run at once, one per thread, so
/// the slowdown covers every core a multi-threaded span uses.
fn probe_on(threads: usize) -> u64 {
    if threads <= 1 {
        return probe_ns();
    }
    std::thread::scope(|s| {
        let probes: Vec<_> = (0..threads).map(|_| s.spawn(probe_ns)).collect();
        probes
            .into_iter()
            .map(|p| p.join().expect("probe thread panicked"))
            .sum::<u64>()
            / threads as u64
    })
}

/// Runs `work`, bracketed by a probe on each of `threads` threads before
/// and after, and returns its result, its wall time and the host slowdown
/// around it: probe time over nominal (above 1 when the host runs slow).
pub fn probed_on<T>(threads: usize, work: impl FnOnce() -> T) -> (T, Duration, f64) {
    let before = probe_on(threads);
    let start = Instant::now();
    let out = work();
    let elapsed = start.elapsed();
    let after = probe_on(threads);
    let slowdown = (before + after) as f64 / (2.0 * PROBE_NOMINAL_NS);
    (out, elapsed, slowdown)
}

/// [`probed_on`] one thread.
pub fn probed<T>(work: impl FnOnce() -> T) -> (T, Duration, f64) {
    probed_on(1, work)
}

/// One fixed-work window: how many ops it held, how long it took, the
/// latency samples of its units of work, and the host slowdown around it.
#[derive(Debug, Clone)]
pub struct Window {
    /// Ops completed in the window (fixed per workload).
    pub ops: u64,
    /// Wall time of the whole window.
    pub elapsed: Duration,
    /// Latency of each unit of work in the window, in ns (unsorted).
    pub latencies_ns: Vec<u64>,
    /// Probe time over nominal around the window.
    pub slowdown: f64,
}

impl Window {
    /// Runs `work` (which returns the ops done and their latencies) as a
    /// probed window.
    pub fn measure(work: impl FnOnce() -> (u64, Vec<u64>)) -> Window {
        let ((ops, latencies_ns), elapsed, slowdown) = probed(work);
        Window {
            ops,
            elapsed,
            latencies_ns,
            slowdown,
        }
    }
}

/// Per-window figures, ready for the median across windows. Each is
/// scaled to nominal host speed by its window's slowdown; the raw wall
/// figures are kept for the ledger.
#[derive(Debug, Clone, Default)]
pub struct WindowStats {
    /// Ops per second of each window, at nominal host speed.
    pub ops_per_s: Vec<f64>,
    /// p50 latency of each window, in µs at nominal host speed.
    pub p50_us: Vec<f64>,
    /// p99 latency of each window, in µs at nominal host speed.
    pub p99_us: Vec<f64>,
    /// Wall ops per second of each window.
    pub raw_ops_per_s: Vec<f64>,
    /// Slowdown around each window.
    pub slowdowns: Vec<f64>,
    /// Latency samples behind each window's percentiles.
    pub samples_per_window: u64,
    /// Ops over all windows.
    pub ops: u64,
}

impl WindowStats {
    /// Folds one window in.
    pub fn push(&mut self, mut w: Window) {
        w.latencies_ns.sort_unstable();
        let raw = w.ops as f64 / w.elapsed.as_secs_f64();
        self.raw_ops_per_s.push(raw);
        self.slowdowns.push(w.slowdown);
        self.ops_per_s.push(raw * w.slowdown);
        let us = |ns: u64| ns as f64 / 1e3 / w.slowdown;
        self.p50_us.push(us(percentile(&w.latencies_ns, 0.50)));
        self.p99_us.push(us(percentile(&w.latencies_ns, 0.99)));
        self.samples_per_window = w.latencies_ns.len() as u64;
        self.ops += w.ops;
    }

    /// Appends another set of windows (e.g. another reader thread's).
    pub fn merge(&mut self, other: WindowStats) {
        self.ops_per_s.extend(other.ops_per_s);
        self.p50_us.extend(other.p50_us);
        self.p99_us.extend(other.p99_us);
        self.raw_ops_per_s.extend(other.raw_ops_per_s);
        self.slowdowns.extend(other.slowdowns);
        self.samples_per_window = self.samples_per_window.max(other.samples_per_window);
        self.ops += other.ops;
    }

    /// Windows recorded.
    pub fn windows(&self) -> usize {
        self.ops_per_s.len()
    }

    /// Median ops/s across windows, at nominal host speed.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.ops_per_s)
    }

    /// Median p50 across windows, in µs at nominal host speed.
    pub fn p50_us(&self) -> f64 {
        median(&self.p50_us)
    }

    /// Median p99 across windows, in µs at nominal host speed.
    pub fn p99_us(&self) -> f64 {
        median(&self.p99_us)
    }

    /// Ledger line: the raw wall medians and the slowdown range behind
    /// the normalized figures.
    pub fn raw_note(&self) -> String {
        let mut s = self.slowdowns.clone();
        s.sort_by(f64::total_cmp);
        format!(
            "raw wall ops_per_s median={:.1}; host slowdown median={:.3} min={:.3} max={:.3} over {} windows",
            median(&self.raw_ops_per_s),
            median(&s),
            s[0],
            s[s.len() - 1],
            s.len()
        )
    }
}

/// Times `reps` fresh set-ups, each probed, and returns the median time
/// at nominal host speed in seconds, plus the last set-up's product.
pub fn median_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    assert!(reps > 0, "at least one set-up");
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous product first so each set-up starts from the
        // same heap state.
        drop(last.take());
        let (built, elapsed, slowdown) = probed(&mut setup);
        times.push(elapsed.as_secs_f64() / slowdown);
        last = Some(built);
    }
    (median(&times), last.expect("reps > 0"))
}

/// `VmHWM` (peak resident set) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn window_stats_take_the_median_window() {
        let mut s = WindowStats::default();
        for ms in [10, 20, 30] {
            s.push(Window {
                ops: 1000,
                elapsed: Duration::from_millis(ms),
                latencies_ns: vec![ms * 1000; 100],
                slowdown: 1.0,
            });
        }
        assert_eq!(s.windows(), 3);
        assert!((s.ops_per_s() - 50_000.0).abs() < 1e-6);
        assert!((s.p50_us() - 20.0).abs() < 1e-9);
        assert_eq!(s.ops, 3000);
    }
}
