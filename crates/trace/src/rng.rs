//! A small deterministic PRNG (xoshiro256** seeded by SplitMix64).
//!
//! All randomness in trace generation flows through this generator so that
//! every experiment is bit-reproducible from a single `u64` seed, on every
//! platform, with no dependency on global RNG state.

/// Deterministic pseudo-random number generator.
///
/// # Example
///
/// ```
/// use elasticflow_trace::Rng;
///
/// let mut a = Rng::new(7);
/// let mut b = Rng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: [u64; 4],
}

impl Rng {
    /// Creates a generator from a seed via SplitMix64 expansion.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = move || {
            sm = sm.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        Rng {
            state: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
    }

    /// Next raw 64-bit value (xoshiro256**).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn uniform_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "uniform_usize over an empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential with the given mean (inter-arrival sampling).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u = 1.0 - self.uniform(); // in (0, 1]
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1 = (1.0 - self.uniform()).max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal with the given *median* and log-space sigma — the
    /// heavy-tailed duration distribution observed in production DL traces.
    ///
    /// # Panics
    ///
    /// Panics if `median` is not strictly positive or `sigma` is negative.
    pub fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        assert!(median > 0.0, "log-normal median must be positive");
        assert!(sigma >= 0.0, "log-normal sigma must be non-negative");
        (median.ln() + sigma * self.normal()).exp()
    }

    /// Samples an index according to the given non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_choice(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_choice over empty weights");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut x = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::new(123);
        let mut b = Rng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(124);
        assert_ne!(Rng::new(123).next_u64(), c.next_u64());
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut r = Rng::new(1);
        for _ in 0..10_000 {
            let x = r.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut r = Rng::new(2);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.uniform()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = Rng::new(3);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn log_normal_median() {
        let mut r = Rng::new(4);
        let n = 50_001;
        let mut xs: Vec<f64> = (0..n).map(|_| r.log_normal(2.0, 1.0)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        assert!((median - 2.0).abs() < 0.1, "median {median}");
        // Heavy tail: the mean exceeds the median.
        let mean: f64 = xs.iter().sum::<f64>() / n as f64;
        assert!(mean > median);
    }

    #[test]
    fn weighted_choice_distribution() {
        let mut r = Rng::new(5);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[r.weighted_choice(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn normal_is_centered() {
        let mut r = Rng::new(6);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.normal()).sum();
        assert!((sum / n as f64).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn bad_range_panics() {
        Rng::new(0).uniform_range(2.0, 1.0);
    }
}
