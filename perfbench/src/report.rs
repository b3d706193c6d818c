//! Result reporting: metrics, the final JSON line, summary statistics, the
//! simulated-stats fingerprint and the host fingerprint.

use std::fmt::Write as _;
use std::hash::Hasher;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// What one benchmark invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Planned packets over every round run.
    pub attempted: u64,
    /// Planned packets not delivered exactly once, in per-pair order.
    pub failed: u64,
    /// Every output check that failed, in words.
    pub problems: Vec<String>,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // A non-finite value is a benchmark bug; JSON has no spelling
            // for it, so it reads as null and fails any consumer's check.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values`, interpolating linearly between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `q` quantile of whole-cycle samples, read as grouped data: each
/// integer `v` stands for the interval `[v - 0.5, v + 0.5)` and the
/// quantile is interpolated inside its interval by rank. Unlike a plain
/// order statistic it moves when the distribution moves within one cycle
/// bucket. `sorted` must be sorted ascending; 0 for an empty slice.
pub fn grouped_quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = q * n as f64;
    let v = sorted[(rank as usize).min(n - 1)];
    let below = sorted.partition_point(|&x| x < v);
    let equal = sorted.partition_point(|&x| x <= v) - below;
    v as f64 - 0.5 + (rank - below as f64) / equal as f64
}

/// FNV-1a, 64-bit: the fingerprint hash (stable across builds and hosts,
/// unlike the standard library's randomly keyed hasher).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl Fnv {
    /// Hashes a value's `Debug` form (counters, histograms, stats).
    pub fn debug(&mut self, value: &impl std::fmt::Debug) {
        self.write(format!("{value:?}").as_bytes());
    }
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The host fingerprint printed with every run: CPU model, usable CPUs and
/// the compiler that built the benchmark.
pub fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: cpu=\"{cpu}\" nproc={nproc} rustc=\"{}\"",
        env!("PERFBENCH_RUSTC_VERSION")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_quantile_interpolates_inside_a_bucket() {
        assert_eq!(grouped_quantile(&[5, 5, 5, 5], 0.5), 5.0);
        assert_eq!(grouped_quantile(&[4, 5, 5, 6], 0.5), 5.0);
        assert_eq!(grouped_quantile(&[5, 5, 5, 6], 0.5), 5.0 - 0.5 + 2.0 / 3.0);
        assert_eq!(grouped_quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.push("setup_s", "s", 0.25);
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
