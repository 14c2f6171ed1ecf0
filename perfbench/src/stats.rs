//! Arithmetic shared by the workloads: percentiles, medians, the
//! per-class sample split, the layer-sum breakdown, the FNV-1a digest,
//! and the process's peak resident set.

use std::time::Duration;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it. `None` for
/// an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of the values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Latency samples in microseconds, split by request class so that
/// every percentile falls inside one mode of the distribution.
#[derive(Debug, Default)]
pub struct ClassSamples {
    /// Answers to jobs that carry a deadline.
    pub deadline: Vec<f64>,
    /// Answers to best-effort jobs.
    pub best_effort: Vec<f64>,
    /// One sample per batch (serve) or scheduling round (simulator).
    pub batch: Vec<f64>,
}

/// The p50 and p99 of one class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    pub p50: f64,
    pub p99: f64,
}

impl ClassSamples {
    /// Records one batch (or round) that took `elapsed` and answered
    /// `deadline` deadline jobs and `best_effort` best-effort jobs: each
    /// of them waited for the whole batch.
    pub fn record(&mut self, elapsed: Duration, deadline: usize, best_effort: usize) {
        let us = micros(elapsed);
        self.batch.push(us);
        self.deadline.extend(std::iter::repeat_n(us, deadline));
        self.best_effort
            .extend(std::iter::repeat_n(us, best_effort));
    }

    /// Sorted quantiles of each class, in the order deadline,
    /// best-effort, batch. `None` when a class has no samples.
    pub fn quantiles(&mut self) -> [Option<Quantiles>; 3] {
        [&mut self.deadline, &mut self.best_effort, &mut self.batch].map(|samples| {
            samples.sort_by(f64::total_cmp);
            Some(Quantiles {
                p50: percentile(samples, 50.0)?,
                p99: percentile(samples, 99.0)?,
            })
        })
    }
}

/// Jobs answered over the time spent answering them, summed over
/// repetitions. The total rate rather than a median of per-repetition
/// rates: on a shared host it moves least from run to run.
#[derive(Debug, Default)]
pub struct Throughput {
    jobs: u64,
    seconds: f64,
}

impl Throughput {
    pub fn add(&mut self, jobs: u64, elapsed: Duration) {
        self.jobs += jobs;
        self.seconds += elapsed.as_secs_f64();
    }

    /// Jobs per second, `None` before any time was measured.
    pub fn rate(&self) -> Option<f64> {
        (self.seconds > 0.0).then(|| self.jobs as f64 / self.seconds)
    }
}

/// Microseconds in `d`, with the nanoseconds kept as the fraction.
pub fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Layer times of one traced run against the wall time they must add up
/// to. The remainder is what no layer timer covered.
#[derive(Debug, Default)]
pub struct Breakdown {
    layers: Vec<(&'static str, f64)>,
}

impl Breakdown {
    /// Adds `seconds` to layer `name` (created on first use, kept in
    /// first-use order).
    pub fn add(&mut self, name: &'static str, seconds: f64) {
        match self.layers.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += seconds,
            None => self.layers.push((name, seconds)),
        }
    }

    /// Seconds charged to layer `name` (0 when it never ran).
    pub fn get(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| *s)
    }

    /// Sum of every layer.
    pub fn attributed(&self) -> f64 {
        self.layers.iter().map(|(_, s)| s).sum()
    }

    /// `wall` minus the attributed time. An error when negative: the
    /// layer timers then overlap or count work the traced run never did.
    pub fn remainder(&self, wall: f64) -> Result<f64, String> {
        let rest = wall - self.attributed();
        if rest < 0.0 {
            return Err(format!(
                "layer times sum to {:.6} s, more than the traced wall time {wall:.6} s",
                self.attributed()
            ));
        }
        Ok(rest)
    }

    /// Every layer divided by `n` (per-run means over `n` traced runs).
    pub fn scaled(&self, n: f64) -> Breakdown {
        Breakdown {
            layers: self.layers.iter().map(|&(l, s)| (l, s / n)).collect(),
        }
    }
}

/// Streaming FNV-1a-64, the digest `mega::outcome_digest` and the serve
/// golden files use.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a-64 of a whole file.
pub fn file_digest(path: &std::path::Path) -> Result<u64, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut fnv = Fnv::default();
    fnv.eat(&bytes);
    Ok(fnv.finish())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        // 10,000 samples leave exactly 100 above the p99.
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let p99 = percentile(&big, 99.0).unwrap();
        assert_eq!(big.iter().filter(|&&x| x > p99).count(), 100);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn throughput_is_the_total_rate() {
        let mut t = Throughput::default();
        assert_eq!(t.rate(), None);
        t.add(100, Duration::from_secs(1));
        t.add(300, Duration::from_secs(3));
        assert_eq!(t.rate(), Some(100.0));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn class_split_keeps_each_mode_apart() {
        let mut s = ClassSamples::default();
        // Nine slow deadline answers and one fast best-effort one per
        // round: the best-effort percentiles must see only the fast mode.
        for _ in 0..100 {
            for _ in 0..9 {
                s.record(Duration::from_micros(30), 1, 0);
            }
            s.record(Duration::from_micros(5), 0, 1);
        }
        let [deadline, best_effort, batch] = s.quantiles();
        let (deadline, best_effort, batch) =
            (deadline.unwrap(), best_effort.unwrap(), batch.unwrap());
        assert_eq!((deadline.p50, deadline.p99), (30.0, 30.0));
        assert_eq!((best_effort.p50, best_effort.p99), (5.0, 5.0));
        assert_eq!((batch.p50, batch.p99), (30.0, 30.0));
        assert_eq!(
            (s.deadline.len(), s.best_effort.len(), s.batch.len()),
            (900, 100, 1000)
        );
        // A batch charges its whole time to every member.
        let mut b = ClassSamples::default();
        b.record(Duration::from_micros(640), 6, 58);
        assert_eq!(
            (b.deadline.len(), b.best_effort.len(), b.batch.len()),
            (6, 58, 1)
        );
        assert!(b.best_effort.iter().all(|&us| us == 640.0));
        assert!(ClassSamples::default().quantiles()[0].is_none());
    }

    #[test]
    fn layers_and_remainder_add_up_to_the_wall() {
        let mut b = Breakdown::default();
        b.add("parse", 0.25);
        b.add("decide", 1.0);
        b.add("parse", 0.25);
        assert_eq!(b.get("parse"), 0.5);
        assert_eq!(b.get("absent"), 0.0);
        let rest = b.remainder(2.0).unwrap();
        assert_eq!(rest, 0.5);
        assert_eq!(b.attributed() + rest, 2.0);
        assert!(b.remainder(1.0).is_err(), "overlapping timers must fail");
        let per_run = b.scaled(2.0);
        assert_eq!(per_run.get("decide"), 0.5);
        assert_eq!(per_run.remainder(1.0).unwrap(), 0.25);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let digest = |s: &str| {
            let mut f = Fnv::default();
            f.eat(s.as_bytes());
            f.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
        // Streaming in pieces equals hashing the concatenation.
        let mut f = Fnv::default();
        f.eat(b"foo");
        f.eat(b"bar");
        assert_eq!(f.finish(), digest("foobar"));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
