//! Pluggable duration clocks for scheduler-phase profiling.
//!
//! Everything else in the telemetry layer is stamped with *simulated* time
//! (the `now` every [`elasticflow_sim::SimObserver`] hook receives), so it
//! is deterministic by construction. Scheduler-phase *durations* are the
//! one measurement that has no simulated-time analogue — the simulator's
//! clock does not advance while a policy computes — so they come from a
//! [`Clock`] chosen by the caller:
//!
//! * [`TickClock`] (the default) is fully deterministic: every reading
//!   advances a fixed step, so exports are byte-stable across reruns and
//!   golden tests never flake;
//! * [`MonotonicClock`] reads the host's monotonic clock for real
//!   profiling sessions (opt-in; exports stop being byte-stable).

use std::time::Instant;

/// A monotonic nanosecond clock consumed by phase profilers.
///
/// Readings must be non-decreasing; the epoch is arbitrary (only
/// differences are ever used).
pub trait Clock: std::fmt::Debug {
    /// Nanoseconds since this clock's arbitrary epoch.
    fn now_nanos(&mut self) -> u64;
}

/// Deterministic clock: each reading advances by a fixed step.
///
/// With the default 1 µs step, a phase bracketed by two readings always
/// "lasts" exactly one step — useless for real profiling, invaluable for
/// byte-stable exports and golden tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickClock {
    step_nanos: u64,
    now: u64,
}

impl TickClock {
    /// A tick clock advancing `step_nanos` per reading.
    pub fn new(step_nanos: u64) -> Self {
        TickClock { step_nanos, now: 0 }
    }
}

impl Default for TickClock {
    fn default() -> Self {
        TickClock::new(1_000)
    }
}

impl Clock for TickClock {
    fn now_nanos(&mut self) -> u64 {
        self.now = self.now.saturating_add(self.step_nanos);
        self.now
    }
}

/// Wall clock backed by [`std::time::Instant`], for real profiling runs.
///
/// Using it makes exported phase durations depend on the host, so reruns
/// of the same seed no longer produce byte-identical exports. The
/// simulation replay itself stays untouched either way — observers are
/// read-only.
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A monotonic clock with its epoch at construction time.
    #[expect(
        clippy::disallowed_methods,
        reason = "the telemetry clock is where host time enters a profiled run"
    )]
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_nanos(&mut self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_clock_is_deterministic() {
        let mut a = TickClock::new(250);
        let mut b = TickClock::new(250);
        let reads_a: Vec<u64> = (0..4).map(|_| a.now_nanos()).collect();
        let reads_b: Vec<u64> = (0..4).map(|_| b.now_nanos()).collect();
        assert_eq!(reads_a, reads_b);
        assert_eq!(reads_a, vec![250, 500, 750, 1000]);
    }

    #[test]
    fn monotonic_clock_is_non_decreasing() {
        let mut c = MonotonicClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }
}
