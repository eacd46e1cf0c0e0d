//! Host facts, process memory, seeding and small statistics helpers.

use std::path::Path;
use std::time::Duration;

/// Compute threads the host offers (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resets the process RSS high-water mark to the current RSS by writing
/// `5` to `/proc/self/clear_refs`. Returns `false` where the kernel
/// refuses, in which case the peak also covers set-up.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// RSS high-water mark (`VmHWM`) in MiB, or 0 when unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time the whole process has used, every thread included (ended
/// ones too), from `/proc/self/stat`; 0 where unavailable.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the command name: state is the 3rd field of the
    // line, utime the 14th and stime the 15th, in 1/100 s ticks.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// CPU time the calling thread has used, from
/// `/proc/thread-self/schedstat` (nanoseconds); 0 where unavailable.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
}

/// Host CPU time since boot, in clock ticks, from `/proc/stat`: all
/// of it and the part the hypervisor stole. Zeros where unavailable.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    pub total: u64,
    pub steal: u64,
}

impl CpuTicks {
    pub fn now() -> Self {
        let host: Vec<u64> = std::fs::read_to_string("/proc/stat")
            .unwrap_or_default()
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        CpuTicks {
            total: host.iter().take(8).sum(),
            steal: host.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of host CPU time stolen since `earlier`: time a noisy
    /// neighbour took from the host's cores.
    pub fn steal_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        self.steal.saturating_sub(earlier.steal) as f64 / total.max(1) as f64
    }
}

/// Commit the checkout was made from, read from its `.git` directory;
/// `unknown` in an exported tree.
pub fn git_rev(git: &Path) -> String {
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// SplitMix64: the benchmark's only source of randomness, so the same
/// seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// `k` seeds derived from the workload seed.
pub fn derived_seeds(seed: u64, k: usize) -> Vec<u64> {
    let mut rng = SplitMix::new(seed);
    (0..k).map(|_| rng.next_u64() % 1_000_000).collect()
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a sample; 0 for an empty one.
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

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_s(), thread_cpu_s());
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(200) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        let (p1, t1) = (process_cpu_s(), thread_cpu_s());
        assert!(t1 - t0 > 0.1, "thread CPU {t0} -> {t1}");
        assert!(p1 - p0 > 0.1, "process CPU {p0} -> {p1}");
    }

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let p = SplitMix::new(7).permutation(100);
        assert_eq!(p, SplitMix::new(7).permutation(100));
        let mut s = p.clone();
        s.sort_unstable();
        assert_eq!(s, (0..100).collect::<Vec<_>>());
        assert_ne!(p, SplitMix::new(8).permutation(100));
    }
}
