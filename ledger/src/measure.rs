//! What the operating system says a repetition cost, and the order
//! statistics every timing is reported with.

use ssp_runtime::JsonValue;
use std::collections::BTreeMap;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at
/// 100 on Linux whatever the scheduler tick is).
const USER_HZ: f64 = 100.0;

/// CPU seconds consumed so far by this process, all its threads, and every
/// child it has waited for (`utime + stime + cutime + cstime`). The dist
/// workloads' workers are children `run_distributed` reaps, so a delta
/// around one repetition is the cost of the whole process tree.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, so utime..cstime are tokens 11..=14 there.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 =
        rest.split_whitespace().skip(11).take(4).filter_map(|t| t.parse::<u64>().ok()).sum();
    ticks as f64 / USER_HZ
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset this process's `VmHWM` to its current resident size, so the next
/// reading is the peak since now (`clear_refs` value 5, Linux ≥ 4.0).
/// False where the kernel or the container refuses; the caller then
/// reports the peak of the whole process instead.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Order statistics of one timing series. With the ≤ 30 samples a run
/// takes, no percentile above the median has ten samples beyond it, so
/// none is reported.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarize `values`; quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` so `ledger check` and the
    /// driver compute the same spread. `None` for an empty series.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let (min, max) = (*v.first()?, *v.last()?);
        let quartile = |i: usize| {
            if n == 1 {
                return v[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some(Summary { n, min, q1: quartile(1), median: quartile(2), q3: quartile(3), max })
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }

    /// The summary next to the `samples` it was taken from, in the order
    /// they were measured.
    pub fn to_json(self, samples: &[f64]) -> JsonValue {
        let mut m = BTreeMap::new();
        let samples = samples.iter().map(|x| JsonValue::Num(*x)).collect();
        m.insert("samples".to_string(), JsonValue::Arr(samples));
        m.insert("n".to_string(), JsonValue::Num(self.n as f64));
        for (k, x) in [
            ("min", self.min),
            ("q1", self.q1),
            ("median", self.median),
            ("q3", self.q3),
            ("max", self.max),
            ("iqr_over_median", self.spread()),
        ] {
            m.insert(k.to_string(), JsonValue::Num(x));
        }
        JsonValue::Obj(m)
    }
}

/// Median of `values` (0 for an empty series).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        // == [3.5, 24.0, 160.0]
        let v: Vec<f64> = (0..10).map(|i| (1u32 << i) as f64).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (3.5, 24.0, 160.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn process_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        let t0 = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - t0 < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
    }
}
